//! Command-line entry of the pimvo benchmark:
//!
//! ```text
//! pimbench --workload <edge_solo|lm_machine|fleet_evict> --seed <n>
//!          --seconds <s> --trace <0|1>
//! ```
//!
//! Prints every metric with its unit and time domain, then, as the
//! last line, one JSON object with `correct`, `attempted`, `failed` and
//! the end-to-end (`--trace 0`) or per-layer (`--trace 1`) metrics.
//! Exits non-zero when an output check fails. The traced run writes its
//! spans to `.bench_out/` under the working directory.

use pimbench::{Options, END_TO_END, PER_LAYER, WORKLOADS};
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: pimbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut opts = Options::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        let ok = match flag.as_str() {
            "--workload" => {
                workload = Some(value.clone());
                true
            }
            "--seed" => value.parse().map(|v| opts.seed = v).is_ok(),
            "--seconds" => value
                .parse::<f64>()
                .ok()
                .filter(|s| s.is_finite() && *s >= 0.0)
                .map(|s| opts.seconds = s)
                .is_some(),
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    opts.trace = value == "1";
                    true
                }
                _ => false,
            },
            _ => return usage(&format!("unknown flag {flag}")),
        };
        if !ok {
            return usage(&format!("bad value {value:?} for {flag}"));
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    let Some(mut report) = pimbench::run(&workload, &opts) else {
        return usage(&format!("unknown workload {workload:?}"));
    };
    if opts.trace {
        let path = format!(".bench_out/spans-{workload}-seed{}.jsonl", opts.seed);
        let res = std::fs::create_dir_all(".bench_out")
            .and_then(|()| std::fs::write(&path, &report.spans));
        if let Err(e) = res {
            report.fail(format!("writing {path}: {e}"));
        }
    }
    print!("{}", report.listing());
    let names: &[&str] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    match report.result_line(names) {
        Ok(line) => {
            println!("{line}");
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
