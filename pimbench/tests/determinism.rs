//! The benchmark's own contract: simulated metrics repeat exactly for a
//! seed, in untraced and traced runs of the real workloads; the
//! held-out seed changes the inputs, which `lm_machine` shares with
//! `edge_solo`; and the metric names match `BENCHMARK.json`.
//! The runs use `--seconds 0`, so each times one pass. Run it with
//! `cargo test --release --manifest-path pimbench/Cargo.toml`.

use pimbench::inputs::Clip;
use pimbench::report::{Domain, Report};
use pimbench::workloads::{EDGE_SOLO, FLEET_EVICT, LM_MACHINE};
use pimbench::{run, Options, END_TO_END, PER_LAYER, WORKLOADS};

/// The seed later performance claims are re-checked on (see NOTES.md).
const HELD_OUT_SEED: u64 = 7919;

fn one_pass(trace: bool) -> Options {
    Options {
        seed: 1,
        seconds: 0.0,
        trace,
    }
}

fn sim_metrics(r: &Report) -> Vec<(String, u64)> {
    r.metrics
        .iter()
        .filter(|m| m.domain == Domain::Sim)
        .map(|m| (m.name.clone(), m.value.to_bits()))
        .collect()
}

/// Runs every workload twice with `opts` and compares the sim metrics
/// bit for bit; returns the first run of each.
fn repeats_exactly(opts: &Options) -> Vec<Report> {
    WORKLOADS
        .iter()
        .map(|w| {
            let a = run(w, opts).expect("known workload");
            let b = run(w, opts).expect("known workload");
            assert!(a.correct(), "{w}: {:?}", a.failures);
            assert!(b.correct(), "{w}: {:?}", b.failures);
            assert_eq!(
                sim_metrics(&a),
                sim_metrics(&b),
                "{w}: simulated metrics differ between runs"
            );
            a
        })
        .collect()
}

#[test]
fn untraced_runs_repeat_simulated_metrics_exactly() {
    for (w, r) in WORKLOADS.iter().zip(repeats_exactly(&one_pass(false))) {
        let sim = sim_metrics(&r);
        for name in ["ate_mm", "sim_cycles_per_frame", "sim_energy_uj_per_frame"] {
            assert!(sim.iter().any(|(n, _)| n == name), "{w}: no {name}");
        }
        r.result_line(&END_TO_END).expect("every end-to-end metric");
    }
}

#[test]
fn traced_runs_repeat_simulated_metrics_exactly() {
    for (w, r) in WORKLOADS.iter().zip(repeats_exactly(&one_pass(true))) {
        r.result_line(&PER_LAYER).expect("every per-layer metric");
        assert!(
            sim_metrics(&r)
                .iter()
                .any(|(n, _)| n == "core.lm_calibration_gap_ratio"),
            "{w}: no calibration gap"
        );
        assert!(!r.spans.is_empty(), "{w}: no spans recorded");
    }
}

#[test]
fn held_out_seed_changes_the_inputs() {
    for w in [EDGE_SOLO, LM_MACHINE] {
        assert_ne!(w.inputs(1), w.inputs(HELD_OUT_SEED), "{}", w.name);
        assert_eq!(w.inputs(1), EDGE_SOLO.inputs(1), "{}: other clips", w.name);
    }
    let (a, b) = (FLEET_EVICT.inputs(1), FLEET_EVICT.inputs(HELD_OUT_SEED));
    assert_eq!(a.len(), b.len());
    assert!(a.iter().zip(&b).all(|(x, y)| x != y));
    // and the rendered pixels differ, not only the specs
    let mut ms = Vec::new();
    let fa = Clip::render(a[0], 1, &mut ms);
    let fb = Clip::render(b[0], 1, &mut ms);
    assert_ne!(fa.frames[0].gray, fb.frames[0].gray);
}

#[test]
fn names_match_benchmark_json() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    for name in END_TO_END.iter().chain(&PER_LAYER).chain(&WORKLOADS) {
        assert!(
            json.contains(&format!("\"name\": \"{name}\"")),
            "{name} missing from BENCHMARK.json"
        );
    }
    assert_eq!(
        json.matches("\"name\":").count(),
        END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len(),
        "BENCHMARK.json lists a name the benchmark does not report"
    );
}

#[test]
fn unknown_workload_is_refused() {
    assert!(run("nope", &one_pass(false)).is_none());
}
