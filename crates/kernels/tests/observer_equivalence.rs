//! Observing execution must not change it: the four edge-detection
//! programs (LPF passes 1 and 2, HPF, NMS) run on a QVGA frame on a
//! plain machine, a traced one and one with the op recorder armed, and
//! the three must agree on every array row, the Tmp Reg, the
//! statistics and the produced maps. Trace mnemonics are built only
//! while tracing, so this pins that the untraced fast path computes the
//! same thing as the traced one.

use pimvo_kernels::{ir, EdgeConfig, EdgeMaps, GrayImage};
use pimvo_pim::{ArrayConfig, ExecStats, LaneWidth, LowerLevel, PimMachine, Signedness};

#[derive(Debug, Clone, Copy, PartialEq)]
enum Observer {
    Plain,
    Traced,
    Recorded,
}

struct Run {
    maps: EdgeMaps,
    stats: ExecStats,
    tmp: Vec<i64>,
    rows: Vec<Vec<i64>>,
}

fn qvga_frame() -> GrayImage {
    GrayImage::from_fn(320, 240, |x, y| {
        let v = u64::from(x)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(u64::from(y / 3).wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
            .wrapping_mul(0xD6E8_FEB8_6659_FD93);
        // smooth ramps plus noise, so every kernel sees edges
        ((x + 2 * y) as u8 / 2).wrapping_add((v >> 60) as u8)
    })
}

fn run(level: LowerLevel, observer: Observer) -> Run {
    let mut m = PimMachine::new(ArrayConfig::qvga_banks(6));
    if let LowerLevel::MultiReg(n) = level {
        m.set_tmp_regs(n);
    }
    match observer {
        Observer::Plain => {}
        Observer::Traced => m.set_tracing(true),
        Observer::Recorded => m.arm_op_recorder(0, 1 << 16),
    }
    let maps = ir::edge_detect(&mut m, &qvga_frame(), &EdgeConfig::default(), level);
    match observer {
        Observer::Plain => {}
        Observer::Traced => assert!(m.trace().is_some_and(|t| !t.is_empty())),
        Observer::Recorded => assert!(m.op_recorder().is_some_and(|r| !r.is_empty())),
    }
    // capture before the row dump below charges host I/O
    let stats = m.stats().clone();
    let tmp = m.tmp_lanes().to_vec();
    m.set_lanes(LaneWidth::W8, Signedness::Unsigned);
    let rows = (0..m.config().rows).map(|r| m.host_read_lanes(r)).collect();
    Run {
        maps,
        stats,
        tmp,
        rows,
    }
}

#[test]
fn tracing_and_recording_do_not_change_execution() {
    for level in [LowerLevel::Opt, LowerLevel::MultiReg(4)] {
        let plain = run(level, Observer::Plain);
        assert!(
            plain.maps.mask.pixels().iter().any(|&v| v != 0),
            "{level}: no edges"
        );
        for observer in [Observer::Traced, Observer::Recorded] {
            let seen = run(level, observer);
            let what = format!("{level} {observer:?}");
            assert_eq!(seen.stats, plain.stats, "{what}: ExecStats");
            assert_eq!(seen.tmp, plain.tmp, "{what}: Tmp Reg");
            assert!(seen.rows == plain.rows, "{what}: array rows differ");
            assert_eq!(seen.maps.lpf, plain.maps.lpf, "{what}: LPF map");
            assert_eq!(seen.maps.hpf, plain.maps.hpf, "{what}: HPF map");
            assert_eq!(seen.maps.mask, plain.maps.mask, "{what}: edge mask");
        }
    }
}
