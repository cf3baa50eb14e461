//! The three workloads. Each is a closed loop with no frame budget and
//! no scheduler deadline, so the degrade ladder never changes how much
//! work a frame does.
//!
//! * `edge_solo`: one tracker on one array over six xyz clips,
//!   calibrated LM path. Host time goes to the edge-detection
//!   interpreter and the host-array transfers; no pose program executes.
//! * `lm_machine`: the first ten frames of every `edge_solo` clip, with
//!   every pose batch executed on the machine. Host time
//!   goes to pool dispatch of the pose programs and the lowered-program
//!   cache hit path.
//! * `fleet_evict`: eight sessions (xyz, desk, str_ntex_far) on a shared
//!   one-array fleet, evicted after every round, so every frame restores
//!   its session from checkpoint bytes.
//!
//! Every workload runs on one array ([`ARRAYS`]), so no pool thread is
//! spawned: with two arrays a scoped thread per shard waits at every
//! barrier for the slower one, and on a small shared host that made the
//! host metrics swing by up to 3x from run to run.
//!
//! A timed pass replays every clip from its frame 2: the tracker is
//! restored from the checkpoint taken after the clip's first two frames
//! (a fleet is rebuilt), so later passes repeat the first one exactly.
//! Simulated metrics come from the first pass only; host metrics from
//! every timed frame. The first pass always completes; after it, the
//! loop stops at the first clip (fleet pass) boundary past `--seconds`.

use crate::fleet::{new_fleet, round, Round};
use crate::inputs::{Clip, ClipSpec, SplitMix};
use crate::layers::{checkpoint_probe, kernel_probe, report_pim_deltas, report_traced_frames};
use crate::layers::{traced_frame, TracedFrame};
use crate::probe::{Probe, ProbeLog, Shadow, SharedLog};
use crate::report::{mean, median, peak_rss_mb, percentile, Domain, Report};
use crate::spans::{Recorder, SharedRecorder};
use crate::Options;
use pimvo::core::pim_exec::BatchOptions;
use pimvo::core::{BackendKind, Checkpoint, FrameResult, PimBackend, Tracker, TrackerBackend};
use pimvo::core::{TrackerBuilder, TrackerConfig, TrackingState};
use pimvo::kernels::{scalar, GrayImage};
use pimvo::pim::{LoweredCache, SessionId};
use pimvo::scene::SequenceKind;
use pimvo::serve::FleetScheduler;
use pimvo::telemetry::Telemetry;
use pimvo::vomath::SE3;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Arrays in every pool the workloads build.
pub const ARRAYS: usize = 1;

/// Set-ups an untraced run makes; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Span of each profile's trajectory the clips are spread over,
/// seconds: clip `j` of `n` starts near `j * TRAJECTORY_S / n`.
const TRAJECTORY_S: f64 = 20.0;

/// Window the seed draws each clip's start time from, seconds: one
/// frame interval past the clip's fixed place on the trajectory.
/// Tracking drift and LM work differ a lot between parts of a
/// trajectory, so the places are part of the workload; the seed
/// jitters the start within a frame and picks the render noise, which
/// keeps the simulated metrics comparable from seed to seed.
const START_JITTER_S: f64 = 1.0 / 30.0;

/// Simulated submission-to-completion limit for
/// `latency_limit_miss_ratio`: 1 ms of the 216 MHz array clock.
const LATENCY_LIMIT_CYCLES: u64 = 216_000;

/// Linearizations the traced run shadows with the executed path on
/// workloads that run the calibrated one (the executed path is slow).
const SHADOW_CALLS: u64 = 8;

/// Frames the kernel probe calls each kernel on.
const KERNEL_FRAMES: usize = 6;

/// Checkpoint round trips the traced run times.
const CHECKPOINT_REPS: usize = 10;

/// Xyz clips of the single-tracker workloads, spread over the
/// trajectory.
const XYZ_CLIPS: usize = 6;

/// A single-tracker workload on the xyz clips.
#[derive(Debug, Clone, Copy)]
pub struct Solo {
    /// Workload name.
    pub name: &'static str,
    /// Execute every pose batch on the machines.
    pub on_machine: bool,
    /// Frames per clip, from the clip's start.
    pub frames: usize,
}

/// `edge_solo`.
pub const EDGE_SOLO: Solo = Solo {
    name: "edge_solo",
    on_machine: false,
    frames: 20,
};

/// `lm_machine`: the first frames of `edge_solo`'s clips, so the
/// executed and the calibrated LM path are compared on the same frames.
pub const LM_MACHINE: Solo = Solo {
    name: "lm_machine",
    on_machine: true,
    frames: 10,
};

/// A fleet workload.
#[derive(Debug, Clone, Copy)]
pub struct Fleet {
    /// Workload name.
    pub name: &'static str,
    /// Sessions; profiles cycle through xyz, desk, str_ntex_far.
    pub sessions: usize,
    /// Frames per session clip.
    pub frames: usize,
}

/// `fleet_evict`.
pub const FLEET_EVICT: Fleet = Fleet {
    name: "fleet_evict",
    sessions: 8,
    frames: 12,
};

/// A tracker after set-up: its clips rendered, and each clip's first two
/// frames (keyframe bootstrap, first alignment) processed, one clip
/// after another from a fresh-tracker checkpoint. The first clip's
/// frames fill the lowered-program cache and run the lazy LM
/// calibration probe.
struct SoloSetup {
    clips: Vec<Clip>,
    tracker: Tracker,
    log: SharedLog,
    cache: LoweredCache,
    /// Per clip: the checkpoint after frame 1, where each timed segment
    /// starts.
    ckpts: Vec<Checkpoint>,
    /// Per clip: results of frames 0 and 1.
    first: Vec<Vec<FrameResult>>,
    /// Per clip: edge masks of frames 0 and 1 (while capturing).
    first_masks: Vec<Vec<GrayImage>>,
    seconds: f64,
}

fn shared_log(capture: bool) -> SharedLog {
    Rc::new(RefCell::new(ProbeLog {
        capture,
        ..ProbeLog::default()
    }))
}

fn pool_wall(tracker: &mut Tracker) -> u64 {
    tracker.pool_mut().map_or(0, |p| p.wall_cycles())
}

/// One timed frame of the untraced loop.
struct Timed {
    ms: f64,
    wall_cycles: u64,
}

/// One first-pass frame: result, simulated cycles, energy (mJ), masks.
struct FirstPass {
    result: FrameResult,
    cycles: u64,
    energy_mj: f64,
    masks: Vec<GrayImage>,
}

impl Solo {
    /// The clips `seed` selects, the same on both single-tracker
    /// workloads: clip `j` starts within a frame interval after
    /// `j * TRAJECTORY_S / XYZ_CLIPS`.
    pub fn inputs(&self, seed: u64) -> Vec<ClipSpec> {
        let mut rng = SplitMix::new(seed);
        let slot = TRAJECTORY_S / XYZ_CLIPS as f64;
        (0..XYZ_CLIPS)
            .map(|j| ClipSpec::draw(&mut rng, SequenceKind::Xyz, j as f64 * slot, START_JITTER_S))
            .collect()
    }

    fn build(backend: Box<dyn TrackerBackend>) -> Tracker {
        TrackerBuilder::new(TrackerConfig::default())
            .with_backend(backend)
            .build()
    }

    /// Renders the clips (unless given them), builds the tracker behind
    /// the decorator with a fresh lowered-program cache, and runs every
    /// clip's frames 0 and 1.
    fn setup(
        &self,
        specs: &[ClipSpec],
        reuse: Option<&[Clip]>,
        rec: SharedRecorder,
        log: SharedLog,
        shadow: Option<Shadow>,
        render_ms: &mut Vec<f64>,
    ) -> SoloSetup {
        let start = Instant::now();
        let clips: Vec<Clip> = match reuse {
            Some(c) => c.to_vec(),
            None => specs
                .iter()
                .map(|s| Clip::render(*s, self.frames, render_ms))
                .collect(),
        };
        let cache = LoweredCache::new();
        let backend = pim_backend(self.on_machine, &cache);
        let probe = Probe::new(Box::new(backend), rec, log.clone(), shadow);
        let mut tracker = Self::build(Box::new(probe));
        let fresh = tracker.checkpoint();
        let (mut ckpts, mut first, mut first_masks) = (Vec::new(), Vec::new(), Vec::new());
        for clip in &clips {
            tracker
                .restore(&fresh)
                .expect("a fresh tracker's checkpoint restores");
            first.push(
                clip.frames[..2]
                    .iter()
                    .map(|f| tracker.process_frame(&f.gray, &f.depth))
                    .collect(),
            );
            first_masks.push(std::mem::take(&mut log.borrow_mut().masks));
            ckpts.push(tracker.checkpoint());
        }
        SoloSetup {
            clips,
            tracker,
            log,
            cache,
            ckpts,
            first,
            first_masks,
            seconds: start.elapsed().as_secs_f64(),
        }
    }

    /// Runs the workload.
    pub fn run(&self, opts: &Options) -> Report {
        let specs = self.inputs(opts.seed);
        if opts.trace {
            self.run_traced(opts, &specs)
        } else {
            self.run_untraced(opts, &specs)
        }
    }

    fn run_untraced(&self, opts: &Options, specs: &[ClipSpec]) -> Report {
        let mut report = Report::default();
        let mut setup_s = Vec::new();
        let mut render_ms = Vec::new();
        let mut kept = None;
        for _ in 0..SETUP_REPS {
            drop(kept.take());
            let s = self.setup(
                specs,
                None,
                Recorder::shared(false),
                shared_log(true),
                None,
                &mut render_ms,
            );
            setup_s.push(s.seconds);
            kept = Some(s);
        }
        let mut s = kept.expect("at least one set-up");
        let n = s.clips.len();

        // timed loop: segment k replays clip k % n from its frame 2; the
        // first n segments are the first pass, which always completes
        let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
        let mut segments: Vec<Vec<Timed>> = Vec::new();
        let mut pass0: Vec<Vec<FirstPass>> = (0..n).map(|_| Vec::new()).collect();
        while segments.len() < n || Instant::now() < deadline {
            let j = segments.len() % n;
            let first_pass = segments.len() < n;
            s.log.borrow_mut().capture = first_pass;
            restore(&mut s.tracker, &s.ckpts[j], &mut report);
            let mut seg = Vec::with_capacity(self.frames);
            for (i, f) in s.clips[j].frames.iter().enumerate().skip(2) {
                let before = first_pass.then(|| s.tracker.stats());
                let w0 = pool_wall(&mut s.tracker);
                let start = Instant::now();
                let r = s.tracker.process_frame(&f.gray, &f.depth);
                let ms = start.elapsed().as_secs_f64() * 1e3;
                seg.push(Timed {
                    ms,
                    wall_cycles: pool_wall(&mut s.tracker) - w0,
                });
                count_frame(&r, &mut report);
                if let Some(before) = before {
                    let after = s.tracker.stats();
                    pass0[j].push(FirstPass {
                        result: r,
                        cycles: after.total_cycles() - before.total_cycles(),
                        energy_mj: after.energy_mj - before.energy_mj,
                        masks: std::mem::take(&mut s.log.borrow_mut().masks),
                    });
                } else if r.pose_wc != pass0[j][i - 2].result.pose_wc {
                    report.failed += 1;
                    report.fail(format!(
                        "clip {j} frame {i}: pose differs from the first pass"
                    ));
                }
            }
            segments.push(seg);
        }

        // output checks, outside the timed region
        let levels = TrackerConfig::default().pyramid_levels;
        let mut poses: Vec<Vec<SE3>> = Vec::with_capacity(n);
        for (j, (clip, rest)) in s.clips.iter().zip(&pass0).enumerate() {
            for r in &s.first[j] {
                count_frame(r, &mut report);
            }
            let masks = s.first_masks[j]
                .chunks(levels)
                .map(<[GrayImage]>::to_vec)
                .chain(rest.iter().map(|p| p.masks.clone()));
            for (i, m) in masks.enumerate() {
                if m != reference_masks(&clip.frames[i].gray, levels) {
                    report.failed += 1;
                    report.fail(format!(
                        "clip {j} frame {i}: edge mask differs from the scalar reference"
                    ));
                }
            }
            poses.push(
                s.first[j]
                    .iter()
                    .chain(rest.iter().map(|p| &p.result))
                    .map(|r| r.pose_wc)
                    .collect(),
            );
        }
        if self.on_machine {
            self.check_against_calibrated(&s.clips, &poses, &mut report);
        }

        // end-to-end metrics
        report.add_note(
            "setup_s",
            median(&setup_s),
            "s",
            Domain::Host,
            format!("median of {} set-ups", setup_s.len()),
        );
        let chunks: Vec<Chunk> = segments
            .iter()
            .map(|seg| Chunk {
                frame_ms: seg.iter().map(|t| t.ms).collect(),
                other_ms: 0.0,
                cycles: seg.iter().map(|t| t.wall_cycles).sum(),
            })
            .collect();
        report_host_rates(&chunks, n, &mut report);
        let first: Vec<&FirstPass> = pass0.iter().flatten().collect();
        let ates: Vec<f64> = s
            .clips
            .iter()
            .zip(&poses)
            .map(|(c, p)| c.ate_mm(p))
            .collect();
        report_sim(
            &SimTotals {
                frames: first.len(),
                cycles: first.iter().map(|p| p.cycles).sum(),
                energy_mj: first.iter().map(|p| p.energy_mj).sum(),
                latencies: first.iter().map(|p| p.cycles as f64).collect(),
                refused: 0,
                ate_mm: mean(&ates),
            },
            &mut report,
        );
        let timed_frames = segments.iter().map(Vec::len).sum();
        report_bench(segments.len().div_ceil(n), timed_frames, &mut report);
        report
    }

    /// Replays every clip on the calibrated path (same pool size) and
    /// requires bit-identical poses.
    fn check_against_calibrated(&self, clips: &[Clip], poses: &[Vec<SE3>], report: &mut Report) {
        let mut tracker = Self::build(Box::new(pim_backend(false, &LoweredCache::new())));
        let fresh = tracker.checkpoint();
        for (j, (clip, want)) in clips.iter().zip(poses).enumerate() {
            restore(&mut tracker, &fresh, report);
            for (i, (f, want)) in clip.frames.iter().zip(want).enumerate() {
                if tracker.process_frame(&f.gray, &f.depth).pose_wc != *want {
                    report.failed += 1;
                    report.fail(format!(
                        "clip {j} frame {i}: on-machine pose differs from the calibrated path"
                    ));
                }
            }
        }
    }

    fn run_traced(&self, opts: &Options, specs: &[ClipSpec]) -> Report {
        let mut report = Report::default();
        let rec = Recorder::shared(true);
        let mut render_ms = Vec::new();
        // the decorated tracker shadows linearize with the other LM path:
        // every call of set-up and the first pass on lm_machine, whose
        // shadow is the cheap calibrated path, and the first few on
        // edge_solo, whose shadow executes on the machine
        let log = shared_log(false);
        log.borrow_mut().shadow_budget = if self.on_machine {
            u64::MAX
        } else {
            SHADOW_CALLS
        };
        let shadow = Shadow {
            backend: Box::new(pim_backend(!self.on_machine, &LoweredCache::new())),
            is_calibrated: self.on_machine,
        };
        let mut d = self.setup(specs, None, rec.clone(), log, Some(shadow), &mut render_ms);
        let plain = || {
            self.setup(
                specs,
                Some(&d.clips),
                Recorder::shared(false),
                shared_log(false),
                None,
                &mut Vec::new(),
            )
        };
        let (mut p, mut t) = (plain(), plain());
        t.tracker.set_telemetry(Telemetry::new());
        let n = d.clips.len();
        for r in d.first.iter().chain(&p.first).chain(&t.first).flatten() {
            count_frame(r, &mut report);
        }

        // first pass: every clip on the decorated tracker, spans on
        let mut traced: Vec<TracedFrame> = Vec::new();
        let mut frame_id = 0u64;
        for j in 0..n {
            restore(&mut d.tracker, &d.ckpts[j], &mut report);
            for f in &d.clips[j].frames[2..] {
                let tf = traced_frame(&mut d.tracker, f, frame_id, &rec, &d.log);
                frame_id += 1;
                count_frame(&tf.result, &mut report);
                traced.push(tf);
            }
        }
        let lower = d.cache.stats();
        // the same linearizations are shadowed on every run of a seed,
        // however long the loop below runs
        d.log.borrow_mut().shadow_budget = 0;
        // then clip by clip, each frame on the decorated, the plain and
        // the telemetry-on tracker in rotating order, so the overhead
        // ratios compare the same frames under the same host load
        let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
        let mut ratios: [Vec<f64>; 2] = Default::default();
        let mut k = 0;
        while k == 0 || Instant::now() < deadline {
            let j = k % n;
            for s in [&mut d, &mut p, &mut t] {
                restore(&mut s.tracker, &s.ckpts[j], &mut report);
            }
            for (i, f) in d.clips[j].frames.iter().enumerate().skip(2) {
                let mut ms = [0.0; 3];
                for m in 0..3 {
                    let mode = (i + m) % 3;
                    if mode == 0 {
                        let tf = traced_frame(&mut d.tracker, f, frame_id, &rec, &d.log);
                        frame_id += 1;
                        count_frame(&tf.result, &mut report);
                        ms[0] = tf.ms;
                    } else {
                        let tracker = if mode == 1 {
                            &mut p.tracker
                        } else {
                            &mut t.tracker
                        };
                        let start = Instant::now();
                        let r = tracker.process_frame(&f.gray, &f.depth);
                        ms[mode] = start.elapsed().as_secs_f64() * 1e3;
                        count_frame(&r, &mut report);
                    }
                }
                ratios[0].push(ms[0] / ms[1]);
                ratios[1].push(ms[2] / ms[1]);
            }
            k += 1;
        }

        report.add_note(
            "scene.render_ms",
            median(&render_ms),
            "ms",
            Domain::Host,
            format!("median of {} frames", render_ms.len()),
        );
        let images: Vec<&GrayImage> = d
            .clips
            .iter()
            .cycle()
            .take(KERNEL_FRAMES)
            .map(|c| &c.frames[2].gray)
            .collect();
        kernel_probe(&images, &TrackerConfig::default().edge, &mut report);
        report_pim_deltas(traced.iter().map(|f| &f.pim), traced.len(), &mut report);
        report_lowering(lower, &mut report);
        report_traced_frames(&traced, &mut report);
        checkpoint_probe(
            &p.tracker,
            || Self::build(Box::new(pim_backend(self.on_machine, &LoweredCache::new()))),
            CHECKPOINT_REPS,
            &mut report,
        );
        report_shadow(&d.log, &mut report);
        // the serve layer on this workload's frames: a one-session fleet
        // over the first clip
        let cache = LoweredCache::new();
        let mut fleet = new_fleet(1, &cache, Telemetry::off());
        let mut rounds = Vec::new();
        for r in 0..self.frames {
            let out = round(&mut fleet, &d.clips[..1], r, &rec, false);
            check_round(&out, &mut report);
            if r >= 2 {
                rounds.push(out);
            }
        }
        let st = fleet.stats(SessionId(0)).cloned().unwrap_or_default();
        report_serve(&rounds, st.restores, st.evictions, &mut report);
        report_overheads(&ratios, &mut report);
        let latencies: Vec<f64> = traced.iter().map(|f| f.cycles as f64).collect();
        report_latency(&latencies, 0, &mut report);
        report.spans = rec.borrow().to_jsonl();
        report
    }
}

/// Scalar-reference edge masks of every pyramid level of `gray`.
fn reference_masks(gray: &GrayImage, levels: usize) -> Vec<GrayImage> {
    let cfg = TrackerConfig::default().edge;
    let mut img = gray.clone();
    let mut out = Vec::with_capacity(levels);
    for l in 0..levels {
        if l > 0 {
            img = scalar::downsample2x(&img);
        }
        out.push(scalar::edge_detect(&img, &cfg).mask);
    }
    out
}

fn restore(tracker: &mut Tracker, ckpt: &Checkpoint, report: &mut Report) {
    if let Err(e) = tracker.restore(ckpt) {
        report.fail(format!("restore between passes failed: {e}"));
    }
}

fn count_frame(r: &FrameResult, report: &mut Report) {
    report.attempted += 1;
    if r.state == TrackingState::Lost || !pose_finite(&r.pose_wc) {
        report.failed += 1;
    }
}

fn pose_finite(p: &SE3) -> bool {
    pimvo::core::checkpoint::pose_finite(p)
}

/// One timed chunk of the untraced loop: one clip segment, or one fleet
/// round. Every pass repeats the same chunks with the same work.
#[derive(Clone)]
struct Chunk {
    /// Host ms per `process_frame` call (per `step` call on a fleet).
    frame_ms: Vec<f64>,
    /// Host ms of the chunk outside those calls (a fleet round's
    /// submits, final empty `step` and `evict_idle`).
    other_ms: f64,
    /// Pool wall-clock cycles the simulator executed.
    cycles: u64,
}

/// `frames_per_s`, `frame_ms_p50/p90`, `sim_mcycles_per_s` and
/// `peak_rss_mb`. Chunk `k` of `chunks` is chunk `k % per_pass` of its
/// pass. Since passes repeat the same work, every frame (and the rest of
/// every chunk) keeps its fastest host time over the passes, and the
/// rates are taken over one pass of those: contention from other
/// tenants of the host only ever slows a frame down, so the fastest
/// repeat is the one it disturbed least.
fn report_host_rates(chunks: &[Chunk], per_pass: usize, report: &mut Report) {
    let mut best: Vec<Chunk> = chunks.iter().take(per_pass).cloned().collect();
    for (k, c) in chunks.iter().enumerate().skip(per_pass) {
        let b = &mut best[k % per_pass];
        b.other_ms = b.other_ms.min(c.other_ms);
        for (x, y) in b.frame_ms.iter_mut().zip(&c.frame_ms) {
            *x = x.min(*y);
        }
    }
    let secs = best
        .iter()
        .map(|c| c.frame_ms.iter().sum::<f64>() + c.other_ms)
        .sum::<f64>()
        / 1e3;
    let frame_ms: Vec<f64> = best.iter().flat_map(|c| c.frame_ms.clone()).collect();
    let cycles: u64 = best.iter().map(|c| c.cycles).sum();
    let repeats = format!(
        "fastest of {} passes per frame",
        chunks.len().div_ceil(per_pass)
    );
    report.add_note(
        "frames_per_s",
        frame_ms.len() as f64 / secs,
        "1/s",
        Domain::Host,
        repeats.clone(),
    );
    let n = frame_ms.len();
    report.add_note(
        "frame_ms_p50",
        percentile(&frame_ms, 50.0),
        "ms",
        Domain::Host,
        format!("{n} samples, {repeats}"),
    );
    report.add_note(
        "frame_ms_p90",
        percentile(&frame_ms, 90.0),
        "ms",
        Domain::Host,
        format!(
            "{n} samples, {} beyond, {repeats}",
            n - (n as f64 * 0.9).ceil() as usize
        ),
    );
    report.add_note(
        "sim_mcycles_per_s",
        cycles as f64 / secs / 1e6,
        "Mcycles/s",
        Domain::Host,
        repeats,
    );
    report.add("peak_rss_mb", peak_rss_mb(), "MB", Domain::Host);
}

/// First-pass simulated totals.
struct SimTotals {
    frames: usize,
    cycles: u64,
    energy_mj: f64,
    latencies: Vec<f64>,
    refused: u64,
    ate_mm: f64,
}

fn report_sim(t: &SimTotals, report: &mut Report) {
    let n = t.frames.max(1) as f64;
    report.add_note(
        "sim_cycles_per_frame",
        t.cycles as f64 / n,
        "cycles",
        Domain::Sim,
        format!("{} frames", t.frames),
    );
    report.add(
        "sim_energy_uj_per_frame",
        t.energy_mj * 1e3 / n,
        "uJ",
        Domain::Sim,
    );
    report.add("ate_mm", t.ate_mm, "mm", Domain::Sim);
    report_latency(&t.latencies, t.refused, report);
}

/// `sim_latency_cycles_p50/p90` (submission to completion; a single
/// tracker has no queue, so there it is the frame's own cycles),
/// `latency_limit_miss_ratio` (refused frames count as misses) and
/// `failed_frame_ratio`.
fn report_latency(latencies: &[f64], refused: u64, report: &mut Report) {
    for p in [50.0, 90.0] {
        report.add_note(
            &format!("sim_latency_cycles_p{p}"),
            percentile(latencies, p),
            "cycles",
            Domain::Sim,
            format!("{} samples", latencies.len()),
        );
    }
    report.add_note(
        "failed_frame_ratio",
        report.failed as f64 / report.attempted.max(1) as f64,
        "ratio",
        Domain::Sim,
        format!("{} of {}", report.failed, report.attempted),
    );
    let offered = latencies.len() as u64 + refused;
    let missed = latencies
        .iter()
        .filter(|&&l| l > LATENCY_LIMIT_CYCLES as f64)
        .count() as u64
        + refused;
    report.add_note(
        "latency_limit_miss_ratio",
        missed as f64 / offered.max(1) as f64,
        "ratio",
        Domain::Sim,
        format!("limit {LATENCY_LIMIT_CYCLES} cycles, {missed} of {offered}"),
    );
}

fn report_bench(passes: usize, frames: usize, report: &mut Report) {
    report.add("bench.passes", passes as f64, "count", Domain::Host);
    report.add("bench.timed_frames", frames as f64, "count", Domain::Host);
}

fn report_lowering(stats: pimvo::pim::LoweredCacheStats, report: &mut Report) {
    let note = "set-up plus first pass".to_string();
    report.add_note(
        "pim.lower_hits",
        stats.hits as f64,
        "count",
        Domain::Sim,
        note.clone(),
    );
    report.add_note(
        "pim.lower_misses",
        stats.misses as f64,
        "count",
        Domain::Sim,
        note,
    );
}

fn report_shadow(log: &SharedLog, report: &mut Report) {
    let log = log.borrow();
    report.attempted += log.shadowed;
    if log.shadow_mismatches > 0 {
        report.failed += log.shadow_mismatches;
        report.fail(format!(
            "{} linearizations differ between the calibrated and executed paths",
            log.shadow_mismatches
        ));
    }
    report.add_note(
        "core.lm_calibration_gap_ratio",
        log.calibrated_cycles as f64 / log.executed_cycles.max(1) as f64,
        "ratio",
        Domain::Sim,
        format!(
            "calibrated {} vs executed {} cycles over {} linearizations",
            log.calibrated_cycles, log.executed_cycles, log.shadowed
        ),
    );
}

fn check_round(r: &Round, report: &mut Report) {
    for e in &r.errors {
        report.fail(format!("fleet step failed: {e}"));
    }
    report.attempted += r.refused;
    report.failed += r.refused;
    for o in &r.outcomes {
        count_frame(&o.result, report);
    }
}

fn report_serve(rounds: &[Round], restores: u64, evictions: u64, report: &mut Report) {
    let step: Vec<f64> = rounds.iter().flat_map(|r| r.step_ms.clone()).collect();
    let evict: Vec<f64> = rounds.iter().map(|r| r.evict_ms).collect();
    let queue: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.outcomes.iter().map(|o| o.queue_cycles as f64))
        .collect();
    report.add_note(
        "serve.step_ms",
        median(&step),
        "ms",
        Domain::Host,
        format!("median of {}", step.len()),
    );
    report.add_note(
        "serve.evict_ms",
        median(&evict),
        "ms",
        Domain::Host,
        format!("median of {}", evict.len()),
    );
    report.add("serve.restores", restores as f64, "count", Domain::Sim);
    report.add("serve.evictions", evictions as f64, "count", Domain::Sim);
    report.add_note(
        "serve.queue_cycles_p50",
        percentile(&queue, 50.0),
        "cycles",
        Domain::Sim,
        format!("{} samples", queue.len()),
    );
}

/// `bench.trace_overhead_ratio` (spans on / off) and
/// `telemetry.overhead_ratio` (telemetry on / off): medians of per-frame
/// host-ms ratios, each taken between runs of the same frame back to
/// back.
fn report_overheads(ratios: &[Vec<f64>; 2], report: &mut Report) {
    for (name, r) in [
        ("bench.trace_overhead_ratio", &ratios[0]),
        ("telemetry.overhead_ratio", &ratios[1]),
    ] {
        report.add_note(
            name,
            median(r),
            "ratio",
            Domain::Host,
            format!("median of {} paired frames", r.len()),
        );
    }
}

impl Fleet {
    /// The session clips `seed` selects: profiles alternate, and the
    /// sessions of one profile start at distinct places on its
    /// trajectory, each jittered within a frame interval.
    pub fn inputs(&self, seed: u64) -> Vec<ClipSpec> {
        let kinds = SequenceKind::all();
        let mut rng = SplitMix::new(seed);
        (0..self.sessions)
            .map(|k| {
                let slot = TRAJECTORY_S / self.sessions.div_ceil(kinds.len()) as f64;
                let offset = (k / kinds.len()) as f64 * slot;
                ClipSpec::draw(&mut rng, kinds[k % kinds.len()], offset, START_JITTER_S)
            })
            .collect()
    }

    /// Renders every clip, builds the fleet with a fresh lowered-program
    /// cache and runs rounds 0 and 1. Returns the clips, the fleet, its
    /// cache, the two rounds and the host seconds taken.
    fn setup(
        &self,
        specs: &[ClipSpec],
        rec: &SharedRecorder,
        render_ms: &mut Vec<f64>,
    ) -> (Vec<Clip>, FleetScheduler, LoweredCache, Vec<Round>, f64) {
        let start = Instant::now();
        let clips: Vec<Clip> = specs
            .iter()
            .map(|s| Clip::render(*s, self.frames, render_ms))
            .collect();
        let cache = LoweredCache::new();
        let mut fleet = new_fleet(clips.len(), &cache, Telemetry::off());
        let rounds = (0..2)
            .map(|r| round(&mut fleet, &clips, r, rec, false))
            .collect();
        (clips, fleet, cache, rounds, start.elapsed().as_secs_f64())
    }

    /// Runs the workload.
    pub fn run(&self, opts: &Options) -> Report {
        let specs = self.inputs(opts.seed);
        if opts.trace {
            self.run_traced(opts, &specs)
        } else {
            self.run_untraced(opts, &specs)
        }
    }

    fn run_untraced(&self, opts: &Options, specs: &[ClipSpec]) -> Report {
        let mut report = Report::default();
        let off = Recorder::shared(false);
        let mut setup_s = Vec::new();
        let mut render_ms = Vec::new();
        let mut kept = None;
        for _ in 0..SETUP_REPS {
            drop(kept.take());
            let s = self.setup(specs, &off, &mut render_ms);
            setup_s.push(s.4);
            kept = Some(s);
        }
        let (clips, mut fleet, cache, first, _) = kept.expect("at least one set-up");
        for r in &first {
            check_round(r, &mut report);
        }

        // timed loop: pass 0 continues the set-up fleet; later passes
        // rebuild the fleet (sharing the warm lowered-program cache) and
        // time rounds 2.. again
        let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
        let mut pass0: Vec<Round> = Vec::new();
        let mut later: Vec<Round> = Vec::new();
        let mut passes = 0usize;
        loop {
            if passes > 0 {
                fleet = new_fleet(clips.len(), &cache, Telemetry::off());
                for r in 0..2 {
                    check_round(&round(&mut fleet, &clips, r, &off, false), &mut report);
                }
            }
            for r in 2..self.frames {
                let out = round(&mut fleet, &clips, r, &off, passes == 0);
                check_round(&out, &mut report);
                if passes == 0 {
                    pass0.push(out);
                    continue;
                }
                let want = &pass0[r - 2];
                let same = out.outcomes.len() == want.outcomes.len()
                    && out.outcomes.iter().zip(&want.outcomes).all(|(a, b)| {
                        a.session == b.session && a.result.pose_wc == b.result.pose_wc
                    });
                if !same {
                    report.failed += 1;
                    report.fail(format!("round {r}: poses differ from the first pass"));
                }
                later.push(out);
            }
            passes += 1;
            if Instant::now() >= deadline {
                break;
            }
        }

        report.add_note(
            "setup_s",
            median(&setup_s),
            "s",
            Domain::Host,
            format!("median of {} set-ups", setup_s.len()),
        );
        let chunks: Vec<Chunk> = pass0
            .iter()
            .chain(&later)
            .map(|r| Chunk {
                frame_ms: r.step_ms.clone(),
                other_ms: r.ms - r.step_ms.iter().sum::<f64>(),
                cycles: r.cycles,
            })
            .collect();
        report_host_rates(&chunks, pass0.len(), &mut report);
        let outcomes: Vec<_> = pass0.iter().flat_map(|r| &r.outcomes).collect();
        report_sim(
            &SimTotals {
                frames: outcomes.len(),
                cycles: pass0.iter().map(|r| r.cycles).sum(),
                energy_mj: pass0.iter().map(|r| r.energy_mj).sum(),
                latencies: outcomes.iter().map(|o| o.latency_cycles as f64).collect(),
                refused: pass0.iter().map(|r| r.refused).sum(),
                ate_mm: fleet_ate_mm(&clips, first.iter().chain(&pass0)),
            },
            &mut report,
        );
        let timed_frames = chunks.iter().map(|c| c.frame_ms.len()).sum();
        report_bench(passes, timed_frames, &mut report);
        report
    }

    fn run_traced(&self, opts: &Options, specs: &[ClipSpec]) -> Report {
        let mut report = Report::default();
        let rec = Recorder::shared(true);
        let off = Recorder::shared(false);
        let mut render_ms = Vec::new();
        let (clips, mut fleet, cache, first, _) = self.setup(specs, &rec, &mut render_ms);
        for r in &first {
            check_round(r, &mut report);
        }
        // pass 0: spans on, shared-pool statistics around every step
        let mut pass0 = Vec::new();
        for r in 2..self.frames {
            let out = round(&mut fleet, &clips, r, &rec, true);
            check_round(&out, &mut report);
            pass0.push(out);
        }
        let lower = fleet.lowered_stats();
        let (mut restores, mut evictions) = (0, 0);
        for id in fleet.session_ids() {
            if let Some(st) = fleet.stats(id) {
                restores += st.restores;
                evictions += st.evictions;
            }
        }
        // then passes on three fresh fleets in lockstep: each round runs
        // on the spans-on, the plain and the telemetry-on fleet in
        // rotating order, so the overhead ratios compare the same steps
        // under the same host load
        let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
        let mut ratios: [Vec<f64>; 2] = Default::default();
        let mut pass = 0;
        while pass == 0 || Instant::now() < deadline {
            let mut fleets = [Telemetry::off(), Telemetry::off(), Telemetry::new()]
                .map(|t| new_fleet(clips.len(), &cache, t));
            for r in 0..self.frames {
                let mut outs: [Round; 3] = Default::default();
                for m in 0..3 {
                    let mode = (r + m) % 3;
                    let mode_rec = if mode == 0 { &rec } else { &off };
                    outs[mode] = round(&mut fleets[mode], &clips, r, mode_rec, false);
                    check_round(&outs[mode], &mut report);
                }
                if r >= 2 {
                    for (i, base) in outs[1].step_ms.iter().enumerate() {
                        if let (Some(a), Some(b)) = (outs[0].step_ms.get(i), outs[2].step_ms.get(i))
                        {
                            ratios[0].push(a / base);
                            ratios[1].push(b / base);
                        }
                    }
                }
            }
            pass += 1;
        }

        report.add_note(
            "scene.render_ms",
            median(&render_ms),
            "ms",
            Domain::Host,
            format!("median of {} frames", render_ms.len()),
        );
        let images: Vec<&GrayImage> = clips
            .iter()
            .take(KERNEL_FRAMES)
            .map(|c| &c.frames[2].gray)
            .collect();
        kernel_probe(&images, &TrackerConfig::default().edge, &mut report);
        let steps: usize = pass0.iter().map(|r| r.pim.len()).sum();
        report_pim_deltas(pass0.iter().flat_map(|r| r.pim.iter()), steps, &mut report);
        report_lowering(lower, &mut report);
        self.core_probe(&clips, &rec, &mut report);
        report_serve(&pass0, restores, evictions, &mut report);
        report_overheads(&ratios, &mut report);
        let latencies: Vec<f64> = pass0
            .iter()
            .flat_map(|r| r.outcomes.iter().map(|o| o.latency_cycles as f64))
            .collect();
        let refused = pass0.iter().map(|r| r.refused).sum();
        report_latency(&latencies, refused, &mut report);
        report.spans = rec.borrow().to_jsonl();
        report
    }

    /// The core layer of fleet sessions, which the fleet keeps private:
    /// each profile's clip runs on a standalone decorated tracker of the
    /// fleet's pool size, and a one-array tracker built the way the
    /// fleet builds session trackers serves the checkpoint round trips.
    fn core_probe(&self, clips: &[Clip], rec: &SharedRecorder, report: &mut Report) {
        let mut traced = Vec::new();
        let mut shadow_log = shared_log(false);
        let mut frame_id = 1_000_000u64;
        for (k, clip) in clips.iter().take(SequenceKind::all().len()).enumerate() {
            let log = shared_log(false);
            let shadow = (k == 0).then(|| {
                log.borrow_mut().shadow_budget = SHADOW_CALLS;
                Shadow {
                    backend: Box::new(pim_backend(true, &LoweredCache::new())),
                    is_calibrated: false,
                }
            });
            let backend = pim_backend(false, &LoweredCache::new());
            let probe = Probe::new(Box::new(backend), rec.clone(), log.clone(), shadow);
            let mut tracker = Solo::build(Box::new(probe));
            for (i, f) in clip.frames.iter().enumerate() {
                let tf = traced_frame(&mut tracker, f, frame_id, rec, &log);
                frame_id += 1;
                count_frame(&tf.result, report);
                if i >= 2 {
                    traced.push(tf);
                }
            }
            if k == 0 {
                shadow_log = log;
            }
        }
        report_traced_frames(&traced, report);
        report_shadow(&shadow_log, report);
        let session = || {
            TrackerBuilder::new(TrackerConfig::default())
                .backend(BackendKind::Pim)
                .build()
        };
        let mut tracker = session();
        for f in &clips[0].frames {
            count_frame(&tracker.process_frame(&f.gray, &f.depth), report);
        }
        checkpoint_probe(&tracker, session, CHECKPOINT_REPS, report);
    }
}

/// A PIM backend on [`ARRAYS`] arrays lowering through `cache`.
fn pim_backend(on_machine: bool, cache: &LoweredCache) -> PimBackend {
    let mut b = PimBackend::with_options(BatchOptions {
        pool: ARRAYS,
        on_machine,
        ..Default::default()
    });
    b.pool_mut().set_lowered_cache(cache.clone());
    b
}

/// Mean over sessions of each session's ATE RMSE (mm), from the poses
/// the given rounds completed, in round order.
fn fleet_ate_mm<'a>(clips: &[Clip], rounds: impl Iterator<Item = &'a Round>) -> f64 {
    let mut poses: Vec<Vec<SE3>> = vec![Vec::new(); clips.len()];
    for r in rounds {
        for o in &r.outcomes {
            poses[o.session.0 as usize].push(o.result.pose_wc);
        }
    }
    let ates: Vec<f64> = clips
        .iter()
        .zip(&poses)
        .filter(|(c, p)| c.frames.len() == p.len())
        .map(|(c, p)| c.ate_mm(p))
        .collect();
    if ates.len() != clips.len() {
        return f64::NAN;
    }
    mean(&ates)
}
