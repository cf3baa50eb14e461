//! The lane datapath against a per-lane reference, at every lane width
//! and signedness: every ALU op over every pair of Row / Tmp / Reg
//! operands with a `b` pre-shift of up to one lane past either edge,
//! the unary ops, and a write-back followed by a re-read. The reference
//! is built lane by lane from the `pimvo_fixed::sat` wrap/clamp
//! primitives, independently of the machine's row decoder, and forms
//! every value-dependent result in `i128`, where an unsigned 64-bit
//! lane reads as a `u64`. Lane values are drawn over the full range of
//! each width, 64 bits included.

use pimvo_fixed::sat;
use pimvo_pim::{AluOp, ArrayConfig, LaneWidth, LogicFunc, Operand, PimMachine, Shift, Signedness};
use proptest::prelude::*;

/// 256-bit word lines: 32 / 16 / 8 / 4 lanes, so shifts reach both
/// edges at every width.
const CONFIG: ArrayConfig = ArrayConfig {
    rows: 8,
    row_bits: 256,
};
const ROW_A: usize = 0;
const ROW_B: usize = 1;
/// Source rows of the Tmp and `Reg(1)` operands.
const ROW_T: usize = 2;
const ROW_R: usize = 3;
const ZERO: usize = 4;
const DST: usize = 5;

const WIDTHS: [LaneWidth; 4] = [
    LaneWidth::W8,
    LaneWidth::W16,
    LaneWidth::W32,
    LaneWidth::W64,
];
const SIGNS: [Signedness; 2] = [Signedness::Unsigned, Signedness::Signed];

const ALU_OPS: [AluOp; 13] = [
    AluOp::Logic(LogicFunc::And),
    AluOp::Logic(LogicFunc::Nor),
    AluOp::Logic(LogicFunc::Xor),
    AluOp::Logic(LogicFunc::Or),
    AluOp::Add,
    AluOp::Sub,
    AluOp::SatAdd,
    AluOp::SatSub,
    AluOp::Avg,
    AluOp::AbsDiff,
    AluOp::Max,
    AluOp::Min,
    AluOp::CmpGt,
];

const OPERANDS: [Operand; 4] = [
    Operand::Row(ROW_A),
    Operand::Row(ROW_B),
    Operand::Tmp,
    Operand::Reg(1),
];

fn mask(bits: u32) -> u64 {
    u64::MAX >> (64 - bits)
}

fn wrap(v: i64, bits: u32, sign: Signedness) -> i64 {
    match sign {
        Signedness::Signed => sat::wrap_signed(v, bits),
        Signedness::Unsigned => sat::wrap_unsigned(v, bits) as i64,
    }
}

/// The value a lane holding `v` reads back as after a write-back: the
/// stored pattern is `v` wrapped to the lane, decoded per signedness.
fn stored(v: i64, bits: u32, sign: Signedness) -> i64 {
    let raw = sat::wrap_unsigned(v, bits);
    match sign {
        Signedness::Signed => sat::wrap_signed(raw as i64, bits),
        Signedness::Unsigned => raw as i64,
    }
}

/// The value of a lane holding `v`: its `i64`, except that an unsigned
/// 64-bit lane reads as a `u64`.
fn value(v: i64, bits: u32, sign: Signedness) -> i128 {
    match (bits, sign) {
        (64, Signedness::Unsigned) => i128::from(v as u64),
        _ => i128::from(v),
    }
}

/// `v` saturated into a `bits`-wide lane of `sign`, as the lane's
/// `i64` pattern.
fn clamp_wide(v: i128, bits: u32, sign: Signedness) -> i64 {
    let (lo, hi) = match sign {
        Signedness::Signed => (-(1i128 << (bits - 1)), (1i128 << (bits - 1)) - 1),
        Signedness::Unsigned => (0, (1i128 << bits) - 1),
    };
    v.clamp(lo, hi) as i64
}

/// One ALU op on a lane pair at operand width `bits`.
fn alu_ref(op: AluOp, x: i64, y: i64, bits: u32, sign: Signedness) -> i64 {
    let m = mask(bits);
    let (vx, vy) = (value(x, bits, sign), value(y, bits, sign));
    match op {
        AluOp::Logic(f) => {
            let (p, q) = (x as u64 & m, y as u64 & m);
            let r = match f {
                LogicFunc::And => p & q,
                LogicFunc::Nor => !(p | q),
                LogicFunc::Xor => p ^ q,
                LogicFunc::Or => p | q,
            };
            (r & m) as i64
        }
        // the low 64 bits of the exact sum, wrapped to the lane
        AluOp::Add => wrap((vx + vy) as i64, bits, sign),
        AluOp::Sub => wrap((vx - vy) as i64, bits, sign),
        AluOp::SatAdd => clamp_wide(vx + vy, bits, sign),
        AluOp::SatSub => clamp_wide(vx - vy, bits, sign),
        AluOp::Avg => ((vx + vy) >> 1) as i64,
        AluOp::AbsDiff => clamp_wide((vx - vy).abs(), bits, sign),
        AluOp::Max => {
            if vx >= vy {
                x
            } else {
                y
            }
        }
        AluOp::Min => {
            if vx <= vy {
                x
            } else {
                y
            }
        }
        AluOp::CmpGt => {
            if vx > vy {
                m as i64
            } else {
                0
            }
        }
    }
}

/// `vals` shifted by `pix` lanes: lane `i` takes lane `i + pix`, zero
/// past either edge.
fn shifted(vals: &[i64], pix: i32) -> Vec<i64> {
    (0..vals.len() as i64)
        .map(|i| {
            let src = i + i64::from(pix);
            if (0..vals.len() as i64).contains(&src) {
                vals[src as usize]
            } else {
                0
            }
        })
        .collect()
}

/// splitmix64 step.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Random lane values over the full range a `bits`-wide lane of `sign`
/// decodes to (an unsigned 64-bit lane as its `i64` pattern).
fn random_lanes(state: &mut u64, lanes: usize, bits: u32, sign: Signedness) -> Vec<i64> {
    (0..lanes)
        .map(|_| {
            let raw = next(state);
            match (bits, sign) {
                (64, _) => raw as i64,
                (_, Signedness::Signed) => sat::wrap_signed(raw as i64, bits),
                (_, Signedness::Unsigned) => (raw & mask(bits)) as i64,
            }
        })
        .collect()
}

/// A machine at `width`/`sign` holding four random operand rows, with
/// `Reg(1)` loaded from `ROW_R` and Tmp from `ROW_T`. Returns the
/// machine and the lane values of `OPERANDS`, in order.
fn setup(seed: u64, width: LaneWidth, sign: Signedness) -> (PimMachine, [Vec<i64>; 4]) {
    let mut m = PimMachine::builder(CONFIG)
        .lanes(width, sign)
        .tmp_regs(2)
        .build();
    let (lanes, bits) = (m.lanes(), width.bits());
    let mut state = seed;
    let vals: [Vec<i64>; 4] = std::array::from_fn(|_| random_lanes(&mut state, lanes, bits, sign));
    for (row, v) in [ROW_A, ROW_B, ROW_T, ROW_R].into_iter().zip(&vals) {
        m.host_write_lanes(row, v).unwrap();
    }
    m.add(Operand::Row(ROW_R), Operand::Row(ZERO));
    m.save_tmp(1);
    reload_tmp(&mut m);
    assert_eq!(m.tmp_lanes(), &vals[2][..], "Tmp setup");
    (m, vals)
}

fn reload_tmp(m: &mut PimMachine) {
    m.add(Operand::Row(ROW_T), Operand::Row(ZERO));
}

/// Checks the Tmp Reg against `want`, then writes it back and checks
/// the re-read row.
fn check_tmp_and_writeback(
    m: &mut PimMachine,
    want: &[i64],
    what: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(m.tmp_lanes(), want, "{} tmp", what);
    let (bits, sign) = (m.lane_width().bits(), m.signedness());
    m.writeback(DST);
    let want_row: Vec<i64> = want.iter().map(|&v| stored(v, bits, sign)).collect();
    prop_assert_eq!(m.host_read_lanes(DST), want_row, "{} written row", what);
    Ok(())
}

proptest! {
    #[test]
    fn alu_ops_match_lane_reference(seed in any::<u64>(), shift_seed in any::<u64>()) {
        let mut shifts = shift_seed;
        for width in WIDTHS {
            for sign in SIGNS {
                let (mut m, vals) = setup(seed, width, sign);
                let lanes = m.lanes() as i64;
                let bits = width.bits();
                for op in ALU_OPS {
                    for (ai, a) in OPERANDS.into_iter().enumerate() {
                        for (bi, b) in OPERANDS.into_iter().enumerate() {
                            // pre-shift in -(lanes + 1)..=lanes + 1
                            let span = (2 * lanes + 3) as u64;
                            let pix = (next(&mut shifts) % span) as i64 - (lanes + 1);
                            let pix = pix as i32;
                            reload_tmp(&mut m);
                            m.try_alu(op, a, b, Shift::Pix(pix)).unwrap();
                            let ys = shifted(&vals[bi], pix);
                            let want: Vec<i64> = vals[ai]
                                .iter()
                                .zip(&ys)
                                .map(|(&x, &y)| alu_ref(op, x, y, bits, sign))
                                .collect();
                            let what = format!("{op:?} {a:?}, {b:?} << {pix} at {width:?} {sign:?}");
                            check_tmp_and_writeback(&mut m, &want, &what)?;
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn unary_ops_match_lane_reference(seed in any::<u64>(), k_seed in any::<u64>()) {
        let mut ks = k_seed;
        for width in WIDTHS {
            for sign in SIGNS {
                let (mut m, vals) = setup(seed, width, sign);
                let lanes = m.lanes() as i64;
                let bits = width.bits();
                for (ai, a) in OPERANDS.into_iter().enumerate() {
                    let x = &vals[ai];
                    let span = (2 * lanes + 3) as u64;
                    let pix = ((next(&mut ks) % span) as i64 - (lanes + 1)) as i32;
                    let k = (next(&mut ks) % u64::from(bits)) as u32;
                    let narrow = 1 + (next(&mut ks) % u64::from(bits.min(63))) as u32;
                    let cases: [(&str, Vec<i64>); 5] = [
                        ("shift_pix", shifted(x, pix)),
                        (
                            "shr_bits",
                            x.iter()
                                .map(|&v| match sign {
                                    Signedness::Signed => v >> k,
                                    Signedness::Unsigned => ((v as u64) >> k) as i64,
                                })
                                .collect(),
                        ),
                        ("shl_bits", x.iter().map(|&v| wrap(v << k, bits, sign)).collect()),
                        (
                            "neg",
                            x.iter()
                                .map(|&v| wrap((-value(v, bits, sign)) as i64, bits, sign))
                                .collect(),
                        ),
                        (
                            "sat_narrow",
                            x.iter()
                                .map(|&v| clamp_wide(value(v, bits, sign), narrow, Signedness::Signed))
                                .collect(),
                        ),
                    ];
                    for (name, want) in cases {
                        reload_tmp(&mut m);
                        match name {
                            "shift_pix" => m.try_shift_pix(a, pix),
                            "shr_bits" => m.try_shr_bits(a, k),
                            "shl_bits" => m.try_shl_bits(a, k),
                            "neg" => m.try_neg(a),
                            _ => m.try_sat_narrow(a, narrow),
                        }
                        .unwrap();
                        let what = format!("{name} {a:?} (pix {pix}, k {k}, narrow {narrow}) at {width:?} {sign:?}");
                        check_tmp_and_writeback(&mut m, &want, &what)?;
                    }
                }
            }
        }
    }
}
