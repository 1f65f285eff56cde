//! What one benchmark run reports: its metrics, its op counts and the
//! output checks that failed.

use std::fmt::Write as _;

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Default)]
pub struct Outcome {
    /// Ops attempted (cells, jobs or requests).
    pub attempted: u64,
    /// Ops that failed or whose output could not be verified.
    pub failed: u64,
    /// One line per failed output check.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Human-readable context printed above the metrics.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record a metric. A value that could not be measured (a percentile
    /// without enough samples beyond it) fails the run and reads 0.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        if !value.is_finite() {
            self.problems.push(format!("{name} could not be measured"));
        }
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push(Metric { name, value, unit });
    }

    /// Record an output check: when it fails, `ops` more ops count as
    /// unverified and the run is no longer correct.
    pub fn check(&mut self, ok: bool, ops: u64, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += ops;
            self.problems.push(what());
        }
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
        self.metrics.extend(other.metrics);
        self.notes.extend(other.notes);
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// Failed or unverified ops over ops attempted.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed.min(self.attempted) as f64 / self.attempted as f64
        }
    }

    /// The result line: one JSON object with exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn json_line(&self) -> String {
        let mut out = String::new();
        write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed.min(self.attempted)
        )
        .expect("writing to a String");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write!(out, "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
                .expect("writing to a String");
        }
        out.push_str("}}");
        out
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}
