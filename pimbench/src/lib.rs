//! End-to-end and per-layer benchmark of the pimvo stack.
//!
//! One run drives one workload from seeded, rendered inputs through the
//! public entry points (`TrackerBuilder`/`Tracker::process_frame`,
//! `PimBackend::with_options`, the `pim_pool` kernels,
//! `Checkpoint::{to_bytes,from_bytes}`/`Tracker::restore` and
//! `FleetScheduler::{submit_frame,step,evict_idle}`), checks the outputs
//! outside the timed region, and reports metrics in two time domains:
//! simulated (repeats exactly for a seed) and host wall clock (noisy).
//! See `NOTES.md` beside this crate for what each metric means.

pub mod fleet;
pub mod inputs;
pub mod layers;
pub mod probe;
pub mod report;
pub mod spans;
pub mod workloads;

/// The end-to-end metrics every untraced run reports in its result
/// line, in order. The listing also prints `frame_ms_p90`, which is left
/// out here: on `lm_machine` it moves by a third from seed to seed.
pub const END_TO_END: [&str; 8] = [
    "setup_s",
    "frames_per_s",
    "frame_ms_p50",
    "sim_mcycles_per_s",
    "peak_rss_mb",
    "sim_cycles_per_frame",
    "sim_energy_uj_per_frame",
    "ate_mm",
];

/// The per-layer metrics every traced run reports, in order. The last
/// two are end-to-end ratios that can read 0, which an end-to-end
/// metric may not; they ride in the traced run's result line instead.
pub const PER_LAYER: [&str; 45] = [
    "scene.render_ms",
    "kernels.lpf_ms",
    "kernels.hpf_ms",
    "kernels.nms_ms",
    "kernels.downsample_ms",
    "kernels.lpf_cycles",
    "kernels.hpf_cycles",
    "kernels.nms_cycles",
    "kernels.downsample_cycles",
    "kernels.lpf_mcycles_per_s",
    "kernels.hpf_mcycles_per_s",
    "kernels.nms_mcycles_per_s",
    "kernels.downsample_mcycles_per_s",
    "kernels.edge_detect_ms",
    "pim.compute_cycles",
    "pim.host_io_cycles",
    "pim.host_io_rows",
    "pim.dma_stall_cycles",
    "pim.sram_reads",
    "pim.sram_writes",
    "pim.acc_ops",
    "pim.lower_hits",
    "pim.lower_misses",
    "pim.dma_retries",
    "core.linearize_ms",
    "core.linearize_calls",
    "core.host_ms",
    "core.features",
    "core.lm_iterations",
    "core.lm_cycles_per_linearize",
    "core.checkpoint_us",
    "core.restore_ms",
    "core.lost_frames",
    "core.lm_calibration_gap_ratio",
    "serve.step_ms",
    "serve.evict_ms",
    "serve.restores",
    "serve.evictions",
    "serve.queue_cycles_p50",
    "sim_latency_cycles_p50",
    "sim_latency_cycles_p90",
    "telemetry.overhead_ratio",
    "bench.trace_overhead_ratio",
    "failed_frame_ratio",
    "latency_limit_miss_ratio",
];

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["edge_solo", "lm_machine", "fleet_evict"];

/// Settings of one run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Input seed.
    pub seed: u64,
    /// Host seconds the timed loop runs (at least one full pass always
    /// runs).
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            seed: 1,
            seconds: 10.0,
            trace: false,
        }
    }
}

/// Runs `workload`; `None` for an unknown name.
pub fn run(workload: &str, opts: &Options) -> Option<report::Report> {
    match workload {
        "edge_solo" => Some(workloads::EDGE_SOLO.run(opts)),
        "lm_machine" => Some(workloads::LM_MACHINE.run(opts)),
        "fleet_evict" => Some(workloads::FLEET_EVICT.run(opts)),
        _ => None,
    }
}
