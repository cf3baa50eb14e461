//! Property tests for the Lie-group and solver substrate.

use pimvo_vomath::{solve_sym6, Vec3, SE3, SO3};
use proptest::prelude::*;

fn twist_strategy() -> impl Strategy<Value = [f64; 6]> {
    prop::array::uniform6(-1.5f64..1.5)
}

proptest! {
    /// exp/log round-trips for any moderate twist.
    #[test]
    fn se3_exp_log_roundtrip(xi in twist_strategy()) {
        let t = SE3::exp(&xi);
        let xi2 = t.log();
        for k in 0..6 {
            prop_assert!((xi[k] - xi2[k]).abs() < 1e-8, "component {}", k);
        }
    }

    /// Composition with the inverse is the identity.
    #[test]
    fn compose_inverse_identity(xi in twist_strategy()) {
        let t = SE3::exp(&xi);
        let id = t.compose(&t.inverse());
        prop_assert!(id.translation_norm() < 1e-9);
        prop_assert!(id.rotation_angle() < 1e-9);
    }

    /// Group action: (a ∘ b)(p) == a(b(p)).
    #[test]
    fn composition_is_action_compatible(
        xa in twist_strategy(),
        xb in twist_strategy(),
        px in -3.0f64..3.0,
        py in -3.0f64..3.0,
        pz in -3.0f64..3.0,
    ) {
        let (a, b) = (SE3::exp(&xa), SE3::exp(&xb));
        let p = Vec3::new(px, py, pz);
        let lhs = a.compose(&b).transform(p);
        let rhs = a.transform(b.transform(p));
        prop_assert!((lhs - rhs).norm() < 1e-9);
    }

    /// Rotations preserve lengths.
    #[test]
    fn rotation_is_isometry(
        wx in -2.0f64..2.0,
        wy in -2.0f64..2.0,
        wz in -2.0f64..2.0,
        px in -5.0f64..5.0,
        py in -5.0f64..5.0,
        pz in -5.0f64..5.0,
    ) {
        let r = SO3::exp(Vec3::new(wx, wy, wz));
        let p = Vec3::new(px, py, pz);
        prop_assert!((r.rotate(p).norm() - p.norm()).abs() < 1e-9);
    }

    /// Quaternion round-trip for arbitrary rotations.
    #[test]
    fn quaternion_roundtrip(wx in -3.0f64..3.0, wy in -3.0f64..3.0, wz in -3.0f64..3.0) {
        let r = SO3::exp(Vec3::new(wx, wy, wz));
        let r2 = r.to_quaternion().to_so3();
        let diff = r.inverse().compose(&r2).log().norm();
        prop_assert!(diff < 1e-8, "diff {}", diff);
    }

    /// The 6x6 solver inverts well-conditioned SPD systems built from
    /// random square roots.
    #[test]
    fn solver_recovers_solution(vals in prop::collection::vec(-1.0f64..1.0, 21)) {
        // L: lower-triangular with a strengthened diagonal
        let mut l = [[0.0f64; 6]; 6];
        let mut it = vals.into_iter();
        for (i, row) in l.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate().take(i + 1) {
                let v = it.next().expect("21 values");
                *cell = if i == j { 2.0 + v.abs() } else { v };
            }
        }
        let mut a = [[0.0f64; 6]; 6];
        for i in 0..6 {
            for j in 0..6 {
                a[i][j] = l[i].iter().zip(&l[j]).map(|(x, y)| x * y).sum();
            }
        }
        let x_true = [0.7, -0.3, 1.1, 0.0, -2.0, 0.5];
        let mut b = [0.0f64; 6];
        for i in 0..6 {
            for j in 0..6 {
                b[i] += a[i][j] * x_true[j];
            }
        }
        let x = solve_sym6(&a, &b).expect("SPD system");
        for k in 0..6 {
            prop_assert!((x[k] - x_true[k]).abs() < 1e-6, "x[{}]", k);
        }
    }
}
