//! Metric collection, summary statistics and the result line.

use std::fmt::Write as _;

/// Which clock a metric is measured on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Domain {
    /// Host wall clock: noisy.
    Host,
    /// Simulated PIM time or a value derived only from simulated
    /// outputs: repeats exactly for a seed.
    Sim,
}

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Clock the value is measured on.
    pub domain: Domain,
    /// Free-form context, e.g. the sample count.
    pub note: String,
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics in insertion order.
    pub metrics: Vec<Metric>,
    /// Frames (or calls) whose outputs were produced.
    pub attempted: u64,
    /// Frames that failed an output check or ended `Lost`.
    pub failed: u64,
    /// Failed checks, one line each.
    pub failures: Vec<String>,
    /// Spans of a traced run as JSON lines; empty for an untraced run.
    pub spans: String,
}

impl Report {
    /// Adds a metric.
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str, domain: Domain) {
        self.add_note(name, value, unit, domain, String::new());
    }

    /// Adds a metric with a note.
    pub fn add_note(
        &mut self,
        name: &str,
        value: f64,
        unit: &'static str,
        domain: Domain,
        note: String,
    ) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            domain,
            note,
        });
    }

    /// Records a failed check.
    pub fn fail(&mut self, what: String) {
        self.failures.push(what);
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0
    }

    /// Human-readable listing of every metric, one per line.
    pub fn listing(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let domain = match m.domain {
                Domain::Host => "host",
                Domain::Sim => "sim",
            };
            let note = if m.note.is_empty() {
                String::new()
            } else {
                format!("  ({})", m.note)
            };
            let _ = writeln!(
                out,
                "{domain:<4} {:<36} {:>18} {}{note}",
                m.name,
                format!("{:.6}", m.value),
                m.unit
            );
        }
        for f in &self.failures {
            let _ = writeln!(out, "FAILED CHECK: {f}");
        }
        out
    }

    /// The result line: the `names` metrics as a JSON object. Fails if
    /// one is missing or not finite.
    pub fn result_line(&self, names: &[&str]) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(names.len());
        for name in names {
            let m = self
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !m.value.is_finite() {
                return Err(format!("metric {name} is not finite: {}", m.value));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.value, m.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        ))
    }
}

/// Median (mean of the two middle values for an even count); 0 for an
/// empty slice.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` in `0..=100`; 0 for an empty slice.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
