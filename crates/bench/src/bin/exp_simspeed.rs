//! Simulator speed: how fast the host runs the PIM interpreter.
//!
//! For each edge kernel (`lpf_pass1`, `lpf_pass2`, `hpf`, `nms`,
//! `downsample`) lowered at `Opt` for one full QVGA frame, times
//! `PimMachine::run_program` and reports simulated Mcycles per
//! wall-second, best of [`REPS`] runs. The NMS mask is checked against
//! the scalar reference first, so the timed path is the correct one.
//!
//! The pose-estimation side gets the same treatment: Mcycles per
//! wall-second of each of the five pose programs (`pose_warp`,
//! `pose_frac`, `pose_residual`, `pose_jacobian`, `pose_hessian`) on one
//! 80-feature batch of the canonical frame, and `lm_batches_per_s`, the
//! batches per wall-second of whole feature sets through
//! `BatchRunner::submit`. Both are checked against the scalar quantized
//! linearization first.
//!
//! Also reports the wall seconds of the `exp_all 30` work
//! (`reports::all_with_reports(30)`, run in this process).
//!
//! ```text
//! cargo run --release -p pimvo-bench --bin exp_simspeed -- [--before <json>] [--out <dir>]
//! ```
//!
//! Writes `<dir>/BENCH_simspeed.json` (default: the current directory).
//! `--before` takes an earlier run's file (e.g. one built from the
//! parent commit) and adds its measurements as `before_<key>` metrics.
//! No key ends in `_cycles`, so `scripts/bench_check.sh` never gates
//! these host-dependent numbers.

use pimvo_bench::sink::{BenchReport, TelemetrySink};
use pimvo_core::pim_exec::{
    fold_batch, pose_programs, pose_scratch, run_batch, BatchOptions, BatchOutput, BatchRunner,
    BATCH, POSE_BASE,
};
use pimvo_core::{
    extract_features, Feature, Interp, Keyframe, PimBackend, QFeature, QNormalEquations, QPose,
    TrackerBackend,
};
use pimvo_kernels::ir::{
    self, downsample_program, hpf_program, lpf_pass1_program, lpf_pass2_program, nms_program,
    scratch_pool,
};
use pimvo_kernels::pim_util::{ghost_mask, load_image, read_image, Regions};
use pimvo_kernels::{scalar, EdgeConfig};
use pimvo_pim::{lower, ArrayConfig, LaneWidth, LowerLevel, PimMachine, Signedness};
use pimvo_vomath::{NormalEquations, Pinhole, SE3};
use std::time::Instant;

/// Timed `run_program` repeats per kernel; the fastest one counts.
const REPS: usize = 50;
/// Frame count of the timed `exp_all` work.
const EXP_ALL_FRAMES: usize = 30;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut before_path: Option<String> = None;
    let mut out_dir = String::from(".");
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).cloned().unwrap_or_else(|| {
            eprintln!("{} needs a value", args[i]);
            std::process::exit(2);
        });
        match args[i].as_str() {
            "--before" => before_path = Some(value),
            "--out" => out_dir = value,
            a => {
                eprintln!("unrecognized argument: {a} (expected --before <json> or --out <dir>)");
                std::process::exit(2);
            }
        }
        i += 2;
    }
    // read first, so a bad path fails before the minutes of timing
    let before = before_path.map(|p| {
        let text = std::fs::read_to_string(&p).unwrap_or_else(|e| {
            eprintln!("cannot read {p}: {e}");
            std::process::exit(2);
        });
        let metrics = measured_metrics(&text);
        if metrics.is_empty() {
            eprintln!("{p} holds no exp_simspeed metrics");
            std::process::exit(2);
        }
        metrics
    });

    let mut after = kernel_speeds();
    after.extend(lm_speeds());
    let start = Instant::now();
    let _ = pimvo_bench::reports::all_with_reports(EXP_ALL_FRAMES);
    after.push((
        format!("exp_all_{EXP_ALL_FRAMES}_wall_s"),
        start.elapsed().as_secs_f64(),
    ));

    let mut report = BenchReport::new("simspeed");
    report
        .note(
            "method",
            &format!("run_program simulated Mcycles per wall-second, best of {REPS}"),
        )
        .note("frame", "canonical xyz frame, 320x240, LowerLevel::Opt");
    println!("Simulator speed (run_program, best of {REPS}, one QVGA frame)");
    for (k, v) in &after {
        report.metric(k, *v);
        let b = before
            .as_ref()
            .and_then(|b| b.iter().find(|(bk, _)| bk == k))
            .map(|&(_, b)| b);
        match b {
            Some(b) => {
                report.metric(&format!("before_{k}"), b);
                println!("  {k:<28} {b:>10.3} -> {v:>10.3}");
            }
            None => println!("  {k:<28} {v:>10.3}"),
        }
    }

    let written =
        std::fs::create_dir_all(&out_dir).and_then(|()| TelemetrySink::new(&out_dir).emit(&report));
    match written {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("failed to write {} in {out_dir}: {e}", report.file_name());
            std::process::exit(1);
        }
    }
}

/// `<kernel>_mcycles_per_s` for each edge kernel on one QVGA frame.
fn kernel_speeds() -> Vec<(String, f64)> {
    let (img, _) = pimvo_bench::canonical_frame();
    let cfg = EdgeConfig::default();
    let mut m = PimMachine::new(ArrayConfig::qvga_banks(6));
    let r = Regions::for_machine(&m, img.height());
    let h = img.height();
    let w = load_image(&mut m, r.input, &img);
    m.set_lanes(LaneWidth::W8, Signedness::Unsigned);
    for (row, v) in [(r.zero_row(), 0), (r.th(0), cfg.th1), (r.th(1), cfg.th2)] {
        m.host_broadcast(row, i64::from(v))
            .expect("host I/O row in range");
    }
    let mask = ghost_mask(&mut m, &r, w);
    let hi = i64::from(h);
    let kernels = [
        ("lpf_pass1", lpf_pass1_program(&r, r.input, h, 0, hi)),
        ("lpf_pass2", lpf_pass2_program(&r, r.aux2, h, mask, 0, hi)),
        ("hpf", hpf_program(&r, r.aux2, r.aux3, h, mask, 0, hi)),
        ("nms", nms_program(&r, r.aux3, r.out, h, mask, 0, hi)),
        ("downsample", downsample_program(&r, 0, h / 2)),
    ]
    .map(|(name, prog)| {
        let lowered = lower(&prog, LowerLevel::Opt, &scratch_pool(&r))
            .unwrap_or_else(|e| panic!("lowering {name}: {e}"));
        (name, lowered)
    });

    // one untimed pass in pipeline order; the edge mask must match the
    // scalar reference before anything is timed
    for (name, prog) in &kernels {
        m.run_program(prog)
            .unwrap_or_else(|e| panic!("running {name}: {e}"));
        if *name == "nms" {
            let mut got = read_image(&mut m, r.out, w as u32, h);
            got.clear_border(cfg.border);
            assert_eq!(
                got,
                scalar::edge_detect(&img, &cfg).mask,
                "PIM edge mask differs from the scalar reference"
            );
        }
    }

    let mut best = [f64::INFINITY; 5];
    let mut cycles = [0u64; 5];
    for _ in 0..REPS {
        for (k, (name, prog)) in kernels.iter().enumerate() {
            let c0 = m.stats().cycles;
            let start = Instant::now();
            m.run_program(prog)
                .unwrap_or_else(|e| panic!("running {name}: {e}"));
            best[k] = best[k].min(start.elapsed().as_secs_f64());
            cycles[k] = m.stats().cycles - c0;
        }
    }
    kernels
        .iter()
        .enumerate()
        .map(|(k, (name, _))| {
            let rate = cycles[k] as f64 / best[k] / 1e6;
            (format!("{name}_mcycles_per_s"), rate)
        })
        .collect()
}

/// The measured metrics of an earlier `BENCH_simspeed.json`: its
/// `"key": number` lines (one per metric, as [`BenchReport::to_json`]
/// writes them), minus that file's own `before_` column.
fn measured_metrics(text: &str) -> Vec<(String, f64)> {
    text.lines()
        .filter_map(|line| {
            let (k, v) = line.trim().trim_end_matches(',').split_once(": ")?;
            let k = k.strip_prefix('"')?.strip_suffix('"')?;
            let v = v.parse::<f64>().ok()?;
            (!k.starts_with("before_")).then(|| (k.to_string(), v))
        })
        .collect()
}

/// The normal equations of a machine submission's batch outputs.
fn folded(outs: &[BatchOutput]) -> NormalEquations {
    let mut eq = QNormalEquations::zero();
    for out in outs {
        fold_batch(&mut eq, out);
    }
    eq.to_normal_equations()
}

/// `<pose program>_mcycles_per_s` on one 80-feature batch and
/// `lm_batches_per_s` through `BatchRunner::submit`, for the canonical
/// frame's features under a small motion.
fn lm_speeds() -> Vec<(String, f64)> {
    let (img, depth) = pimvo_bench::canonical_frame();
    let cam = Pinhole::qvga();
    let mut edge_machine = PimMachine::new(ArrayConfig::qvga_banks(6));
    let maps = ir::edge_detect(
        &mut edge_machine,
        &img,
        &EdgeConfig::default(),
        LowerLevel::Opt,
    );
    let features = extract_features(&maps.mask, &depth, &cam, 6000, 0.3, 8.0);
    let kf = Keyframe::build(0, SE3::IDENTITY, maps.mask.clone(), &cam);
    let pose = SE3::exp(&[0.01, -0.005, 0.02, 0.002, -0.001, 0.003]);
    let qpose = QPose::quantize(&pose);
    let qfeats: Vec<QFeature> = features.iter().map(QFeature::quantize).collect();
    let batch = &qfeats[..BATCH.min(qfeats.len())];
    // the scalar quantized path: the calibrated backend's linearization
    let scalar_eq = |feats: &[Feature]| PimBackend::new().linearize(feats, &kf, &cam, &pose);

    // one batch executed in full stages every row the five programs
    // read; it must equal the scalar path before its programs are timed
    let mut m = PimMachine::new(ArrayConfig::qvga_banks(6));
    let out = run_batch(&mut m, POSE_BASE, batch, &qpose, &kf.q_tables, &cam);
    assert_eq!(
        folded(std::slice::from_ref(&out)),
        scalar_eq(&features[..batch.len()]),
        "machine batch differs from the scalar quantized path"
    );
    let scratch = pose_scratch(POSE_BASE);
    let programs: Vec<_> = pose_programs(POSE_BASE, 12, Interp::Bilinear)
        .iter()
        .map(|p| {
            lower(p, LowerLevel::Opt, &scratch)
                .unwrap_or_else(|e| panic!("lowering {}: {e}", p.name()))
        })
        .collect();
    // the hessian program's reduce results, in program order
    // (the upper triangle of H is stored row by row, the order the
    // program reduces it in, with b_i after row i)
    let mut sums = Vec::new();
    let mut h = out.h_partial.iter();
    for i in 0..6 {
        sums.extend(h.by_ref().take(6 - i).copied());
        sums.push(out.b_partial[i]);
    }
    sums.push(out.cost_partial);

    let mut best = vec![f64::INFINITY; programs.len()];
    let mut cycles = vec![0u64; programs.len()];
    for _ in 0..REPS {
        for (k, prog) in programs.iter().enumerate() {
            let c0 = m.stats().cycles;
            let start = Instant::now();
            let got = m
                .run_program(prog)
                .unwrap_or_else(|e| panic!("running {}: {e}", prog.name()));
            best[k] = best[k].min(start.elapsed().as_secs_f64());
            cycles[k] = m.stats().cycles - c0;
            if prog.name() == "pose_hessian" {
                assert_eq!(got, sums, "timed hessian reduce results");
            }
        }
    }
    let mut rows: Vec<(String, f64)> = programs
        .iter()
        .enumerate()
        .map(|(k, prog)| {
            let rate = cycles[k] as f64 / best[k] / 1e6;
            (format!("{}_mcycles_per_s", prog.name()), rate)
        })
        .collect();

    // whole feature sets through the runner, checked the same way
    let mut runner = BatchRunner::new(BatchOptions::default());
    let outs = runner
        .submit(&qfeats, &qpose, &kf.q_tables, &cam)
        .expect("no fault model: every array healthy");
    assert_eq!(
        folded(&outs),
        scalar_eq(&features),
        "machine submission differs from the scalar quantized path"
    );
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let start = Instant::now();
        let _ = runner.submit(&qfeats, &qpose, &kf.q_tables, &cam);
        best = best.min(start.elapsed().as_secs_f64());
    }
    rows.push(("lm_batches_per_s".to_string(), outs.len() as f64 / best));
    rows
}
