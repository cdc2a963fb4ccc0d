//! What one run prints: metrics, operation counts and output checks.

use std::fmt::Write as _;

/// Counts operations, collects metrics and remembers failed checks.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    failures: Vec<String>,
    checks: u64,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.check(value.is_finite(), || {
            format!("metric {name} is not finite ({value})")
        });
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records an output check; a false condition fails the run.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok && self.failures.len() < 64 {
            self.failures.push(msg());
        }
    }

    /// Counts one serving operation; `failed` when it was refused or
    /// its answer carries a degradation marker.
    pub fn op(&mut self, failed: bool) {
        self.attempted += 1;
        self.failed += u64::from(failed);
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    pub fn checks(&self) -> u64 {
        self.checks
    }

    /// Human-readable metric lines.
    pub fn table(&self) -> String {
        let mut s = String::new();
        for (name, value, unit) in &self.metrics {
            let _ = writeln!(s, "  {name:<40} {value:>16.6} {unit}");
        }
        s
    }

    /// Names in `names` that no metric was recorded for.
    pub fn missing<'n>(&self, names: &[&'n str]) -> Vec<&'n str> {
        names
            .iter()
            .copied()
            .filter(|n| !self.metrics.iter().any(|(m, _, _)| m == n))
            .collect()
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, the latter holding the metrics named in `names` (in
    /// that order), each as `{"value": v, "unit": u}`.
    pub fn json(&self, names: &[&str]) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        let chosen = names
            .iter()
            .filter_map(|n| self.metrics.iter().find(|(m, _, _)| m == n));
        for (i, (name, value, unit)) in chosen.enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let v = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(s, "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}");
        }
        s.push_str("}}");
        s
    }
}

/// A result line read back by the steadiness mode.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in printed order.
    pub metrics: Vec<(String, f64, String)>,
}

/// Parses a result line this program printed.
pub fn parse_result(line: &str) -> Option<RunResult> {
    let field = |key: &str| -> Option<&str> {
        let at = line.find(&format!("\"{key}\": "))? + key.len() + 4;
        let rest = &line[at..];
        let end = rest.find([',', '}'])?;
        Some(rest[..end].trim())
    };
    let body = &line[line.find("\"metrics\": {")? + 12..];
    let mut metrics = Vec::new();
    for part in body.split("}, ") {
        let (name, rest) = part.split_once(": {\"value\": ")?;
        let (value, unit) = rest.split_once(", \"unit\": ")?;
        let unit = unit.trim_end_matches('}').trim_matches('"');
        metrics.push((
            name.trim().trim_matches('"').to_string(),
            value.parse().ok()?,
            unit.to_string(),
        ));
    }
    Some(RunResult {
        correct: field("correct")? == "true",
        attempted: field("attempted")?.parse().ok()?,
        failed: field("failed")?.parse().ok()?,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let mut r = Report::default();
        r.op(false);
        r.op(true);
        r.metric("serial_p50_ms", 1.25, "ms");
        r.metric("throughput_rps", 812.5, "req/s");
        let line = r.json(&["serial_p50_ms", "throughput_rps"]);
        let r = parse_result(&line).expect("parses");
        assert!(r.correct);
        assert_eq!((r.attempted, r.failed), (2, 1));
        assert_eq!(r.metrics[0], ("serial_p50_ms".into(), 1.25, "ms".into()));
        assert_eq!(
            r.metrics[1],
            ("throughput_rps".into(), 812.5, "req/s".into())
        );
    }
}
