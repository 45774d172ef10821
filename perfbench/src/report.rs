//! What a run reports: named metrics with units and sample counts, the
//! correctness verdict, and the one-line JSON result the last line of
//! standard output carries.

use std::fmt::Write as _;

/// Which list a metric belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// An end-to-end metric: in the untraced run's JSON result.
    EndToEnd,
    /// A per-layer metric: in the traced run's JSON result.
    Layer,
    /// Printed with its unit and sample count but kept out of the JSON
    /// result, because it is not defined on every workload.
    Printed,
}

/// One measured quantity.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json` for the gated kinds.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value (1 for a single measurement).
    pub samples: usize,
    /// Where the value belongs.
    pub kind: Kind,
    /// Free-form detail: tail percentile, ratio base, probe description.
    pub note: String,
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests sent.
    pub attempted: u64,
    /// Requests with no delivered path (rejected, missing, unreachable,
    /// or failing a correctness check).
    pub failed: u64,
    /// Correctness-gate violations, one line each; empty when the gate
    /// passed.
    pub violations: Vec<String>,
    /// Measured metrics, in report order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Record a metric.
    pub fn add(
        &mut self,
        kind: Kind,
        name: &'static str,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) {
        self.metrics.push(Metric { name, value, unit, samples, kind, note: String::new() });
    }

    /// Record a metric with a detail note.
    pub fn add_noted(
        &mut self,
        kind: Kind,
        name: &'static str,
        value: f64,
        unit: &'static str,
        samples: usize,
        note: impl Into<String>,
    ) {
        self.metrics.push(Metric { name, value, unit, samples, kind, note: note.into() });
    }

    /// Note a correctness violation.
    pub fn violate(&mut self, what: impl Into<String>) {
        self.violations.push(what.into());
    }

    /// The gate: no violation and no failed request.
    pub fn correct(&self) -> bool {
        self.violations.is_empty() && self.failed == 0
    }

    /// Human-readable lines: one per metric with unit and sample count.
    pub fn lines(&self, workload: &str) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let tag = match m.kind {
                Kind::EndToEnd => "e2e",
                Kind::Layer => "layer",
                Kind::Printed => "info",
            };
            let _ = write!(
                out,
                "{workload} {tag} {} = {} {} (n={})",
                m.name,
                number(m.value),
                m.unit,
                m.samples
            );
            if !m.note.is_empty() {
                let _ = write!(out, "  [{}]", m.note);
            }
            out.push('\n');
        }
        let _ = writeln!(
            out,
            "{workload} info failed_share = {} share (n={})",
            number(self.failed as f64 / self.attempted.max(1) as f64),
            self.attempted
        );
        out
    }

    /// The JSON entries (`"<name>": {"value": .., "unit": ..}`) of the
    /// metrics of `kind`.
    pub fn entries(&self, kind: Kind) -> Vec<String> {
        self.metrics
            .iter()
            .filter(|m| m.kind == kind)
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    number(m.value),
                    m.unit
                )
            })
            .collect()
    }
}

/// The JSON result line. Numbers appear only when the gate passed.
pub fn result_line(correct: bool, attempted: u64, failed: u64, entries: &[String]) -> String {
    let metrics = if correct { entries.join(", ") } else { String::new() };
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}"
    )
}

/// A result line read back: what [`result_line`] wrote.
#[derive(Debug, PartialEq)]
pub struct Parsed<'a> {
    /// The gate's verdict.
    pub correct: bool,
    /// Requests sent.
    pub attempted: u64,
    /// Requests failed.
    pub failed: u64,
    /// The entries inside `"metrics": {..}`, as written.
    pub metrics: &'a str,
}

/// Read back a line [`result_line`] wrote; `None` for any other line.
pub fn parse_result(line: &str) -> Option<Parsed<'_>> {
    let rest = line.strip_prefix("{\"correct\": ")?;
    let (correct, rest) = rest.split_once(", \"attempted\": ")?;
    let (attempted, rest) = rest.split_once(", \"failed\": ")?;
    let (failed, rest) = rest.split_once(", \"metrics\": {")?;
    Some(Parsed {
        correct: correct.parse().ok()?,
        attempted: attempted.parse().ok()?,
        failed: failed.parse().ok()?,
        metrics: rest.strip_suffix("}}")?,
    })
}

/// A finite number with all its digits (JSON has no NaN or infinity, so
/// those print as 0 and the caller's gate must keep them out).
pub fn number(v: f64) -> String {
    if v.is_finite() { format!("{v:?}") } else { "0".to_string() }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn json(o: &Outcome, kind: Kind) -> String {
        result_line(o.correct(), o.attempted, o.failed, &o.entries(kind))
    }

    #[test]
    fn result_lines_read_back() {
        let mut o = Outcome { attempted: 12, failed: 0, ..Default::default() };
        o.add(Kind::EndToEnd, "setup_s", 0.25, "s", 3);
        o.add(Kind::EndToEnd, "peak_rss_mb", 9.5, "MiB", 1);
        let line = json(&o, Kind::EndToEnd);
        let parsed = parse_result(&line).unwrap();
        assert_eq!(
            parsed,
            Parsed {
                correct: true,
                attempted: 12,
                failed: 0,
                metrics: "\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
                          \"peak_rss_mb\": {\"value\": 9.5, \"unit\": \"MiB\"}",
            }
        );
        o.violate("wrong");
        assert!(!parse_result(&json(&o, Kind::EndToEnd)).unwrap().correct);
        assert_eq!(parse_result("town-wire e2e setup_s = 1 s (n=1)"), None);
    }

    #[test]
    fn json_carries_numbers_only_when_correct() {
        let mut o = Outcome { attempted: 10, ..Default::default() };
        o.add(Kind::EndToEnd, "setup_s", 0.5, "s", 3);
        o.add(Kind::Layer, "search.us_per_unit", 12.25, "us", 9);
        assert_eq!(
            json(&o, Kind::EndToEnd),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        o.violate("a path was wrong");
        assert_eq!(
            json(&o, Kind::EndToEnd),
            "{\"correct\": false, \"attempted\": 10, \"failed\": 0, \"metrics\": {}}"
        );
    }

    #[test]
    fn failed_requests_fail_the_gate() {
        let o = Outcome { attempted: 10, failed: 1, ..Default::default() };
        assert!(!o.correct());
    }
}

/// The end-to-end metrics every untraced run reports, as `BENCHMARK.json`
/// lists them.
pub const END_TO_END: [&str; 4] = ["setup_s", "throughput_rps", "latency_p50_ms", "peak_rss_mb"];

/// The per-layer metrics every traced run reports, as `BENCHMARK.json`
/// lists them.
pub const PER_LAYER: [&str; 21] = [
    "net.codec_us_per_req",
    "net.bytes_per_req",
    "obfuscate.us_per_req",
    "search.us_per_unit",
    "search.settled_per_unit",
    "search.relaxed_per_unit",
    "search.ns_per_settle",
    "search.sweep_gap",
    "alt.settled_ratio",
    "alt.wall_ratio",
    "alt.build_s",
    "cache.hit_rate",
    "cache.evicted_per_round",
    "partition.owner_share",
    "partition.fallback_share",
    "update.backend_ms",
    "update.obfuscator_ms",
    "filter.us_per_req",
    "account.us_per_req",
    "trace.unattributed_share",
    "trace.overhead_share",
];

impl Outcome {
    /// Flag a run whose `kind` metrics are not exactly `expected`, or
    /// carry a value JSON cannot hold.
    pub fn check_metric_set(&mut self, kind: Kind, expected: &[&str]) {
        let mut got: Vec<&str> =
            self.metrics.iter().filter(|m| m.kind == kind).map(|m| m.name).collect();
        got.sort_unstable();
        let mut want = expected.to_vec();
        want.sort_unstable();
        if got != want {
            self.violate(format!("reported metrics {got:?}, expected {want:?}"));
        }
        let bad: Vec<&str> = self
            .metrics
            .iter()
            .filter(|m| m.kind == kind && !m.value.is_finite())
            .map(|m| m.name)
            .collect();
        if !bad.is_empty() {
            self.violate(format!("non-finite values for {bad:?}"));
        }
    }
}

#[cfg(test)]
mod contract {
    use super::{END_TO_END, PER_LAYER};

    /// The metric names listed under `section` in the repo's
    /// `BENCHMARK.json`.
    fn listed(section: &str) -> Vec<String> {
        let text = include_str!("../../BENCHMARK.json");
        let start = text.find(&format!("\"{section}\"")).expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("\"name\": \"").skip(1).map(|s| s[..s.find('"').unwrap()].to_string()).collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        assert_eq!(listed("end_to_end"), END_TO_END);
        assert_eq!(listed("per_layer"), PER_LAYER);
    }
}
