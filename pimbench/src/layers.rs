//! Per-layer measurements shared by the workloads' traced runs: traced
//! tracker frames (core and pim layers), direct kernel calls (kernels
//! layer) and checkpoint round trips (core layer).

use crate::inputs::Frame;
use crate::probe::SharedLog;
use crate::report::{mean, median, Domain, Report};
use crate::spans::SharedRecorder;
use pimvo::core::{Checkpoint, FrameResult, Tracker, TrackingState};
use pimvo::kernels::{pim_pool, scalar, EdgeConfig, GrayImage};
use pimvo::pim::{ArrayConfig, ExecStats, LoweredCache, PimArrayPool, PimMachine};
use std::hint::black_box;
use std::time::Instant;

/// One frame run under the span recorder.
#[derive(Debug, Clone)]
pub struct TracedFrame {
    /// Host ms of `process_frame`, shadow work taken out.
    pub ms: f64,
    /// Host ms inside backend calls (`detect_edges`, `downsample`,
    /// `linearize`).
    pub backend_ms: f64,
    /// Host ms inside `linearize`.
    pub linearize_ms: f64,
    /// The tracker's result.
    pub result: FrameResult,
    /// PIM statistics delta of the frame.
    pub pim: ExecStats,
    /// LM cycles charged during the frame.
    pub lm_cycles: u64,
    /// Linearizations charged during the frame.
    pub lm_calls: u64,
    /// Simulated cycles charged during the frame (edge plus LM).
    pub cycles: u64,
}

/// Runs one frame inside a `tracker.process_frame` span and attributes
/// the child spans the backend decorator recorded.
pub fn traced_frame(
    tracker: &mut Tracker,
    frame: &Frame,
    frame_id: u64,
    rec: &SharedRecorder,
    log: &SharedLog,
) -> TracedFrame {
    let before = tracker.stats();
    let shadow_before = log.borrow().shadow_ns;
    let first = {
        let mut r = rec.borrow_mut();
        r.set_frame(frame_id);
        r.spans().len()
    };
    let id = rec.borrow_mut().begin("tracker.process_frame");
    let result = tracker.process_frame(&frame.gray, &frame.depth);
    let total_ms = rec.borrow_mut().end(id);
    let after = tracker.stats();
    let shadow_ms = (log.borrow().shadow_ns - shadow_before) as f64 / 1e6;
    let (mut backend_ms, mut linearize_ms) = (0.0, 0.0);
    for s in &rec.borrow().spans()[first..] {
        if s.parent == Some(first) {
            backend_ms += s.ms();
            if s.name == "backend.linearize" {
                linearize_ms += s.ms();
            }
        }
    }
    let pim = match (&after.pim, &before.pim) {
        (Some(a), Some(b)) => a.try_since(b).unwrap_or_else(|| a.clone()),
        _ => ExecStats::new(),
    };
    TracedFrame {
        ms: total_ms - shadow_ms,
        backend_ms,
        linearize_ms,
        result,
        pim,
        lm_cycles: after.lm_cycles - before.lm_cycles,
        lm_calls: after.lm_iterations - before.lm_iterations,
        cycles: after.total_cycles() - before.total_cycles(),
    }
}

/// Adds the `core.*` frame metrics of a set of traced frames.
pub fn report_traced_frames(frames: &[TracedFrame], report: &mut Report) {
    let n = frames.len().max(1) as f64;
    let tracked: Vec<&TracedFrame> = frames.iter().filter(|f| f.lm_calls > 0).collect();
    let lin: Vec<f64> = tracked.iter().map(|f| f.linearize_ms).collect();
    report.add_note(
        "core.linearize_ms",
        median(&lin),
        "ms",
        Domain::Host,
        format!("median per aligned frame, {} frames", lin.len()),
    );
    let calls: u64 = frames.iter().map(|f| f.lm_calls).sum();
    report.add(
        "core.linearize_calls",
        calls as f64 / n,
        "count",
        Domain::Sim,
    );
    let host: Vec<f64> = frames.iter().map(|f| f.ms - f.backend_ms).collect();
    report.add_note(
        "core.host_ms",
        median(&host),
        "ms",
        Domain::Host,
        format!(
            "median self time outside backend calls, {} frames",
            host.len()
        ),
    );
    let feats: Vec<f64> = frames.iter().map(|f| f.result.features as f64).collect();
    report.add("core.features", mean(&feats), "count", Domain::Sim);
    let iters: Vec<f64> = frames.iter().map(|f| f.result.iterations as f64).collect();
    report.add("core.lm_iterations", mean(&iters), "count", Domain::Sim);
    let lm_cycles: u64 = frames.iter().map(|f| f.lm_cycles).sum();
    report.add(
        "core.lm_cycles_per_linearize",
        lm_cycles as f64 / calls.max(1) as f64,
        "cycles",
        Domain::Sim,
    );
    let lost = frames
        .iter()
        .filter(|f| f.result.state == TrackingState::Lost)
        .count();
    report.add("core.lost_frames", lost as f64, "count", Domain::Sim);
}

/// Adds the per-frame means of the `pim.*` statistics.
pub fn report_pim_deltas<'a>(
    deltas: impl Iterator<Item = &'a ExecStats>,
    frames: usize,
    report: &mut Report,
) {
    let mut sum = ExecStats::new();
    for d in deltas {
        sum.merge(d);
    }
    let n = frames.max(1) as f64;
    for (name, unit, v) in [
        ("pim.compute_cycles", "cycles", sum.cycles),
        ("pim.host_io_cycles", "cycles", sum.host_io_cycles),
        ("pim.host_io_rows", "count", sum.host_io_rows),
        ("pim.dma_stall_cycles", "cycles", sum.dma_stall_cycles),
        ("pim.sram_reads", "count", sum.sram_reads),
        ("pim.sram_writes", "count", sum.sram_writes),
        ("pim.acc_ops", "count", sum.acc_ops),
        ("pim.dma_retries", "count", sum.dma_retries),
    ] {
        report.add_note(
            name,
            v as f64 / n,
            unit,
            Domain::Sim,
            format!("per frame, {frames} frames"),
        );
    }
}

/// Times the sharded kernels by direct calls on a fresh one-array pool
/// over `images`, and checks each output against the scalar reference.
pub fn kernel_probe(images: &[&GrayImage], cfg: &EdgeConfig, report: &mut Report) {
    let mut pool = PimMachine::builder(ArrayConfig::qvga_banks(6)).build_pool(1);
    pool.set_lowered_cache(LoweredCache::new());
    // the first calls lower every kernel program; keep them out of the
    // numbers
    black_box(pim_pool::edge_detect(&mut pool, images[0], cfg));
    black_box(pim_pool::downsample2x(&mut pool, images[0]));

    const NAMES: [&str; 5] = ["lpf", "hpf", "nms", "downsample", "edge_detect"];
    let mut ms: [Vec<f64>; 5] = Default::default();
    let mut cycles = [0u64; 5];
    for img in images {
        let want = scalar::edge_detect(img, cfg);
        let lpf = timed(&mut pool, &mut ms[0], &mut cycles[0], |p| {
            pim_pool::lpf(p, img)
        });
        let hpf = timed(&mut pool, &mut ms[1], &mut cycles[1], |p| {
            pim_pool::hpf(p, &lpf)
        });
        let nms = timed(&mut pool, &mut ms[2], &mut cycles[2], |p| {
            pim_pool::nms(p, &hpf, cfg)
        });
        let down = timed(&mut pool, &mut ms[3], &mut cycles[3], |p| {
            pim_pool::downsample2x(p, img)
        });
        let mask = timed(&mut pool, &mut ms[4], &mut cycles[4], |p| {
            pim_pool::edge_detect(p, img, cfg).mask
        });
        report.attempted += 1;
        let ok = lpf == want.lpf
            && hpf == want.hpf
            && nms == want.mask
            && mask == want.mask
            && down == scalar::downsample2x(img);
        if !ok {
            report.failed += 1;
            report.fail("kernel output differs from the scalar reference".into());
        }
    }
    let calls = images.len() as f64;
    for (k, name) in NAMES.iter().enumerate() {
        report.add_note(
            &format!("kernels.{name}_ms"),
            median(&ms[k]),
            "ms",
            Domain::Host,
            format!("median of {} calls", ms[k].len()),
        );
        if k < 4 {
            let total_s: f64 = ms[k].iter().sum::<f64>() / 1e3;
            report.add(
                &format!("kernels.{name}_cycles"),
                cycles[k] as f64 / calls,
                "cycles",
                Domain::Sim,
            );
            report.add(
                &format!("kernels.{name}_mcycles_per_s"),
                cycles[k] as f64 / total_s / 1e6,
                "Mcycles/s",
                Domain::Host,
            );
        }
    }
}

/// Runs one kernel call, appending its host ms and adding its pool
/// wall cycles.
fn timed(
    pool: &mut PimArrayPool,
    ms: &mut Vec<f64>,
    cycles: &mut u64,
    f: impl FnOnce(&mut PimArrayPool) -> GrayImage,
) -> GrayImage {
    let c0 = pool.wall_cycles();
    let start = Instant::now();
    let out = black_box(f(pool));
    ms.push(start.elapsed().as_secs_f64() * 1e3);
    *cycles += pool.wall_cycles() - c0;
    out
}

/// Serializes `tracker` to checkpoint bytes and restores the bytes into
/// a freshly built tracker, `reps` times, the way an evicted fleet
/// session comes back. Checks that the restored tracker serializes to
/// the same bytes.
pub fn checkpoint_probe(
    tracker: &Tracker,
    rebuild: impl Fn() -> Tracker,
    reps: usize,
    report: &mut Report,
) {
    let (mut ckpt_us, mut restore_ms) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        let start = Instant::now();
        let bytes = black_box(tracker.checkpoint().to_bytes());
        ckpt_us.push(start.elapsed().as_secs_f64() * 1e6);
        let start = Instant::now();
        let restored = Checkpoint::from_bytes(&bytes)
            .map_err(|e| e.to_string())
            .and_then(|c| {
                let mut t = rebuild();
                t.restore(&c).map_err(|e| e.to_string())?;
                Ok(t)
            });
        restore_ms.push(start.elapsed().as_secs_f64() * 1e3);
        report.attempted += 1;
        match restored {
            Ok(t) if t.checkpoint().to_bytes() == bytes => {}
            Ok(_) => {
                report.failed += 1;
                report.fail("restored tracker does not re-serialize to the same bytes".into());
            }
            Err(e) => {
                report.failed += 1;
                report.fail(format!("checkpoint restore failed: {e}"));
            }
        }
    }
    report.add_note(
        "core.checkpoint_us",
        median(&ckpt_us),
        "us",
        Domain::Host,
        format!("median of {reps}"),
    );
    report.add_note(
        "core.restore_ms",
        median(&restore_ms),
        "ms",
        Domain::Host,
        format!("median of {reps}"),
    );
}
