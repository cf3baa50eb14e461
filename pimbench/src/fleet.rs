//! Driving a [`FleetScheduler`] in closed-loop rounds: each round
//! offers one frame per session, drains every queue with `step`, then
//! calls `evict_idle`, so every frame restores its session from
//! checkpoint bytes.

use crate::inputs::Clip;
use crate::spans::SharedRecorder;
use crate::workloads::ARRAYS;
use pimvo::core::TrackerConfig;
use pimvo::pim::{ExecStats, LoweredCache, SessionId};
use pimvo::serve::{FleetScheduler, SessionSpec, StepOutcome};
use pimvo::telemetry::Telemetry;
use std::time::Instant;

/// A fleet on [`ARRAYS`] arrays with one background session per clip:
/// no deadline, so the shed ladder never changes the work a frame does.
pub fn new_fleet(sessions: usize, cache: &LoweredCache, telemetry: Telemetry) -> FleetScheduler {
    let mut fleet = FleetScheduler::new(ARRAYS);
    fleet.set_lowered_cache(cache.clone());
    fleet.set_telemetry(telemetry);
    for k in 0..sessions {
        fleet.add_session(
            SessionId(k as u32),
            SessionSpec::new(TrackerConfig::default()),
        );
    }
    fleet
}

/// What one round measured.
#[derive(Debug, Default)]
pub struct Round {
    /// Host ms of the whole round (submits, steps, evict).
    pub ms: f64,
    /// Host ms per `step` call that ran a frame.
    pub step_ms: Vec<f64>,
    /// Host ms of the `evict_idle` call.
    pub evict_ms: f64,
    /// Fleet clock advance over the round, cycles.
    pub cycles: u64,
    /// Shared-pool energy spent in the round, mJ (when measured).
    pub energy_mj: f64,
    /// Per-step shared-pool statistics deltas (when measured).
    pub pim: Vec<ExecStats>,
    /// Step outcomes in completion order.
    pub outcomes: Vec<StepOutcome>,
    /// Frames refused by admission control.
    pub refused: u64,
    /// Scheduler errors, one line each.
    pub errors: Vec<String>,
}

/// Runs round `r`: frame `r` of every clip. With `stats`, also reads
/// the shared pool's statistics around every step (outside the timed
/// calls).
pub fn round(
    fleet: &mut FleetScheduler,
    clips: &[Clip],
    r: usize,
    rec: &SharedRecorder,
    stats: bool,
) -> Round {
    let mut out = Round::default();
    let frames: Vec<_> = clips
        .iter()
        .map(|c| (c.frames[r].gray.clone(), c.frames[r].depth.clone()))
        .collect();
    let cost = fleet.pool().array(0).cost_model().clone();
    let c0 = fleet.now_cycles();
    let e0 = stats.then(|| fleet.pool().merged_stats());
    let round_start = Instant::now();
    let mut excluded_ns = 0u64;
    let span = rec.borrow_mut().begin("serve.round");
    for (k, (gray, depth)) in frames.into_iter().enumerate() {
        let id = rec.borrow_mut().begin("serve.submit_frame");
        let res = fleet.submit_frame(SessionId(k as u32), gray, depth);
        rec.borrow_mut().end(id);
        if res.is_err() {
            out.refused += 1;
        }
    }
    loop {
        let before = stats.then(|| {
            let t = Instant::now();
            let s = fleet.pool().merged_stats();
            excluded_ns += t.elapsed().as_nanos() as u64;
            s
        });
        let id = rec.borrow_mut().begin("serve.step");
        let start = Instant::now();
        let res = fleet.step();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        rec.borrow_mut().end(id);
        match res {
            Ok(Some(outcome)) => {
                out.step_ms.push(ms);
                if let Some(before) = before {
                    let t = Instant::now();
                    let after = fleet.pool().merged_stats();
                    out.pim
                        .push(after.try_since(&before).unwrap_or_else(|| after.clone()));
                    excluded_ns += t.elapsed().as_nanos() as u64;
                }
                out.outcomes.push(outcome);
            }
            Ok(None) => break,
            Err(e) => {
                out.errors.push(e.to_string());
                break;
            }
        }
    }
    let id = rec.borrow_mut().begin("serve.evict_idle");
    let start = Instant::now();
    fleet.evict_idle();
    out.evict_ms = start.elapsed().as_secs_f64() * 1e3;
    rec.borrow_mut().end(id);
    rec.borrow_mut().end(span);
    out.ms = round_start.elapsed().as_secs_f64() * 1e3 - excluded_ns as f64 / 1e6;
    out.cycles = fleet.now_cycles() - c0;
    if let Some(e0) = e0 {
        let e1 = fleet.pool().merged_stats();
        out.energy_mj = e1.energy(&cost).total_mj() - e0.energy(&cost).total_mj();
    }
    out
}
