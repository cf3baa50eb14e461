//! The on-machine LM batch runs pose programs lowered once per runner
//! and gathers one lane per address. Both are host-side shortcuts:
//!
//! * a [`BatchRunner`] that keeps its lowered pose programs across
//!   submissions produces the same outputs, the same compute stats (op
//!   histogram included) and the same lowered-program cache misses as
//!   resolving the programs afresh for every batch, at both
//!   interpolations and both mappings, and re-resolves them when the
//!   feature fraction changes;
//! * a gather on an inert fault unit returns what sensing the whole
//!   addressed row would, with unchanged stats and op record, at every
//!   lane width and signedness, lanes past the end included.

use pimvo_core::pim_exec::{BatchMapping, BatchOptions, BatchRunner, BATCH};
use pimvo_core::{Feature, Interp, QFeature, QKeyframe, QPose};
use pimvo_mcu::KeyframeTables;
use pimvo_pim::{ArrayConfig, ExecStats, LaneWidth, LoweredCache, OpClass, PimMachine, Signedness};
use pimvo_telemetry::optrace::OpKind;
use pimvo_vomath::{distance_transform, gradient_maps, Pinhole, SE3};

fn test_kf(cam: &Pinhole) -> QKeyframe {
    let (w, h) = (320u32, 240u32);
    let mut mask = vec![0u8; (w * h) as usize];
    for y in (8..h).step_by(16) {
        for x in (8..w).step_by(14) {
            mask[(y * w + x) as usize] = 255;
        }
    }
    let dt = distance_transform(&mask, w, h);
    let (grad_x, grad_y) = gradient_maps(&dt);
    QKeyframe::quantize(&KeyframeTables { dt, grad_x, grad_y }, cam)
}

/// `n` features spread over the image, quantized with `frac`
/// fractional bits.
fn features(cam: &Pinhole, n: usize, seed: u64, frac: u32) -> Vec<QFeature> {
    (0..n)
        .map(|i| {
            let k = (i as u64)
                .wrapping_add(seed)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let u = 10.0 + (k % 300) as f64;
            let v = 10.0 + ((k >> 16) % 220) as f64;
            let depth = 0.8 + ((k >> 32) % 500) as f64 * 0.01;
            let (a, b, c) = cam.inverse_depth_coords(u, v, depth);
            let f = Feature {
                u,
                v,
                depth,
                a,
                b,
                c,
            };
            QFeature::quantize_with(&f, frac, 32)
        })
        .collect()
}

fn runner(options: BatchOptions, cache: &LoweredCache) -> BatchRunner {
    let mut r = BatchRunner::new(options);
    r.pool_mut().set_lowered_cache(cache.clone());
    r
}

/// One submission on the runner under test, plus the same features
/// through a fresh single-batch runner per batch: programs resolved
/// for every batch, through the reference cache.
struct Pair {
    runner: BatchRunner,
    cache: LoweredCache,
    reference_stats: ExecStats,
    reference_cache: LoweredCache,
    options: BatchOptions,
}

impl Pair {
    fn new(options: BatchOptions) -> Self {
        let cache = LoweredCache::new();
        Pair {
            runner: runner(options, &cache),
            cache,
            reference_stats: ExecStats::new(),
            reference_cache: LoweredCache::new(),
            options,
        }
    }

    /// Submits `feats` to both sides and checks the outputs match.
    fn submit(&mut self, feats: &[QFeature], pose: &QPose, kf: &QKeyframe, cam: &Pinhole) {
        let got = self.runner.submit(feats, pose, kf, cam).unwrap();
        let mut want = Vec::new();
        for chunk in feats.chunks(BATCH) {
            let mut lone = runner(self.options, &self.reference_cache);
            want.extend(lone.submit(chunk, pose, kf, cam).unwrap());
            self.reference_stats.merge(&lone.pool().merged_stats());
        }
        assert_eq!(got, want, "{:?}: outputs", self.options);
    }

    /// The runner's compute stats and cache misses against the
    /// per-batch reference.
    fn check_totals(&self) {
        let what = format!("{:?}", self.options);
        assert_eq!(
            self.runner.pool().merged_stats(),
            self.reference_stats,
            "{what}: stats"
        );
        assert_eq!(
            self.cache.stats().misses,
            self.reference_cache.stats().misses,
            "{what}: lowered-program cache misses"
        );
    }
}

#[test]
fn kept_pose_programs_equal_per_batch_lowering() {
    let cam = Pinhole::qvga();
    let kf = test_kf(&cam);
    let poses = [
        SE3::exp(&[0.02, -0.01, 0.03, 0.005, -0.002, 0.01]),
        SE3::exp(&[-0.01, 0.02, 0.0, 0.0, 0.004, -0.01]),
        SE3::IDENTITY,
    ];
    for interp in [Interp::Bilinear, Interp::Nearest] {
        for mapping in [BatchMapping::Opt, BatchMapping::Naive] {
            let mut pair = Pair::new(BatchOptions {
                mapping,
                interp,
                pool: 2,
                on_machine: true,
            });
            // three submissions, each ending in a partial batch
            for (k, pose) in poses.iter().enumerate() {
                let feats = features(&cam, 2 * BATCH + 17 + 9 * k, k as u64, 12);
                pair.submit(&feats, &QPose::quantize(pose), &kf, &cam);
            }
            pair.check_totals();
            // the set was resolved once: no lookup after the first
            // submission's (five programs; four without the bilinear
            // fractional weights)
            let programs = if interp == Interp::Bilinear { 5 } else { 4 };
            let s = pair.cache.stats();
            assert_eq!((s.hits, s.misses), (0, programs), "{interp:?} {mapping:?}");
        }
    }
}

#[test]
fn a_new_feature_fraction_re_resolves_the_set() {
    let cam = Pinhole::qvga();
    let kf = test_kf(&cam);
    let pose = QPose::quantize(&SE3::exp(&[0.01, 0.0, -0.02, 0.003, 0.0, 0.006]));
    let mut pair = Pair::new(BatchOptions {
        on_machine: true,
        ..Default::default()
    });
    pair.submit(&features(&cam, BATCH + 5, 1, 12), &pose, &kf, &cam);
    assert_eq!(pair.cache.stats().misses, 5);
    // only the warp program depends on the fraction: one new lowering,
    // the other four are looked up again
    pair.submit(&features(&cam, BATCH + 5, 2, 10), &pose, &kf, &cam);
    let s = pair.cache.stats();
    assert_eq!((s.hits, s.misses), (4, 6));
    // back to the first fraction: all five are cached
    pair.submit(&features(&cam, 40, 3, 12), &pose, &kf, &cam);
    let s = pair.cache.stats();
    assert_eq!((s.hits, s.misses), (9, 6));
    pair.check_totals();

    // a chunk at another fraction than the submission's first runs its
    // own programs, as a lone batch would
    let mut mixed = features(&cam, BATCH, 4, 12);
    mixed.extend(features(&cam, 30, 5, 10));
    pair.submit(&mixed, &pose, &kf, &cam);
    pair.check_totals();
}

#[test]
fn swapping_the_pool_cache_re_resolves_the_set() {
    let cam = Pinhole::qvga();
    let kf = test_kf(&cam);
    let pose = QPose::quantize(&SE3::IDENTITY);
    let mut pair = Pair::new(BatchOptions::default());
    let feats = features(&cam, 50, 7, 12);
    pair.submit(&feats, &pose, &kf, &cam);
    let fresh = LoweredCache::new();
    pair.runner.pool_mut().set_lowered_cache(fresh.clone());
    let _ = pair.runner.submit(&feats, &pose, &kf, &cam).unwrap();
    assert_eq!(fresh.stats().misses, 5, "the new cache lowers the set");
    assert_eq!(pair.cache.stats().misses, 5, "the old one is not consulted");
}

/// 128-bit word lines: 16 / 8 / 4 / 2 lanes.
const GATHER_CONFIG: ArrayConfig = ArrayConfig {
    rows: 4,
    row_bits: 128,
};

#[test]
fn single_lane_gather_equals_full_row_sensing() {
    let mut state = 0x1234_5678_9ABC_DEF0u64;
    for width in [
        LaneWidth::W8,
        LaneWidth::W16,
        LaneWidth::W32,
        LaneWidth::W64,
    ] {
        for sign in [Signedness::Unsigned, Signedness::Signed] {
            let mut m = PimMachine::builder(GATHER_CONFIG)
                .lanes(width, sign)
                .build();
            m.arm_op_recorder(0, 64);
            let lanes = m.lanes();
            let mut rows = Vec::new();
            for row in 0..GATHER_CONFIG.rows {
                let vals: Vec<i64> = (0..lanes)
                    .map(|_| {
                        state = state
                            .wrapping_mul(6_364_136_223_846_793_005)
                            .wrapping_add(1_442_695_040_888_963_407);
                        state as i64
                    })
                    .collect();
                m.host_write_lanes(row, &vals).unwrap();
                // the full-row read: every lane decoded at this width
                rows.push(m.host_read_lanes(row));
            }
            let addrs: Vec<(usize, usize)> = (0..GATHER_CONFIG.rows)
                .flat_map(|r| (0..lanes + 2).map(move |l| (r, (l * 7 + r) % (lanes + 2))))
                .collect();
            let want: Vec<i64> = addrs
                .iter()
                .map(|&(r, l)| rows[r].get(l).copied().unwrap_or(0))
                .collect();

            let _ = m.drain_op_trace();
            let before = m.stats().clone();
            let got = m.gather(&addrs);
            assert_eq!(got, want, "{width:?} {sign:?}");

            let n = addrs.len() as u64;
            let mut expect = before.clone();
            expect.cycles += n;
            expect.sram_reads += n;
            expect.tmp_accesses += n;
            *expect.op_histogram.entry(OpClass::Gather).or_default() += 1;
            assert_eq!(*m.stats(), expect, "{width:?} {sign:?}: stats");

            let trace = m.drain_op_trace().unwrap();
            assert_eq!(trace.records.len(), 1);
            let rec = &trace.records[0];
            assert_eq!(rec.kind, OpKind::Gather);
            assert_eq!((rec.cycles, rec.sram, rec.size), (n, n as u32, n as u32));
            assert_eq!(rec.rows, [addrs[0].0 as u32, addrs[1].0 as u32]);
        }
    }
}
