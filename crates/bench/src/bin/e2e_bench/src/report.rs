//! What a workload run reports, the line protocol a child process uses to
//! hand it to its parent, and the final JSON line.
//!
//! The metric name lists below are the single source of truth for what the
//! benchmark emits; `BENCHMARK.json` at the repository root must list the
//! same names (a test checks it).

use std::fmt::Write as _;

/// End-to-end metrics, printed by every workload of an untraced run:
/// `(name, unit)`. Each workload reads them over its own unit of work (see
/// the README): a study turn, a daemon turn, a hybrid design, a restore.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// The profile phases the program already times (`telemetry::profile`).
pub const PHASES: [&str; 8] = [
    "data.csv_parse",
    "data.group_by",
    "data.split",
    "ml.fit.logistic",
    "ml.fit.forest",
    "ml.fit.boost",
    "pipeline.task",
    "search.generation",
];

/// Per-layer metrics of a traced run, `(name, unit)`, in report order.
/// Every traced run prints all of them; a layer its workload never passes
/// through reads 0. The profile-phase metrics ([`PHASES`]) are appended by
/// [`per_layer`].
const LAYERS: [(&str, &str); 51] = [
    // converse_inproc
    ("data.csv.read_ms", "ms"),
    ("core.session.new_ms", "ms"),
    ("core.session.ack_step_us", "us"),
    ("core.session.run_step_ms", "ms"),
    ("core.session.drivers_step_ms", "ms"),
    ("pipeline.validate_us", "us"),
    ("pipeline.run_ms", "ms"),
    ("pipeline.task.explore_ms", "ms"),
    ("pipeline.task.prepare_ms", "ms"),
    ("pipeline.task.fragment_ms", "ms"),
    ("pipeline.task.train_ms", "ms"),
    ("pipeline.task.test_ms", "ms"),
    ("pipeline.task.assess_ms", "ms"),
    ("ml.importance_ms", "ms"),
    ("alloc.count_per_study_turn", "count"),
    ("alloc.bytes_per_study_turn", "bytes"),
    ("self.session_study_ms", "ms"),
    // daemon_fleet
    ("daemon.round_trip_us", "us"),
    ("daemon.reply.latency_ms", "ms"),
    ("daemon.wire.codec_us", "us"),
    ("daemon.wire.request_bytes", "bytes"),
    ("daemon.wire.reply_bytes", "bytes"),
    ("daemon.scheduler.turn_ms", "ms"),
    ("daemon.scheduler.ticks_per_turn", "count"),
    ("daemon.manager.turn_ms", "ms"),
    ("core.session.step_store_ms", "ms"),
    ("core.session.step_ms", "ms"),
    ("telemetry.journal.cost_us", "us"),
    ("telemetry.spans.cost_us", "us"),
    ("self.wire_conn_us", "us"),
    ("self.queue_wait_us", "us"),
    ("self.scheduler_us", "us"),
    ("self.manager_us", "us"),
    ("self.sessionstore_us", "us"),
    ("self.session_us", "us"),
    // hybrid_design
    ("core.session.autonomous_ms", "ms"),
    ("creativity.search_ms", "ms"),
    ("creativity.evaluations", "count"),
    ("creativity.evals_per_s", "1/s"),
    ("creativity.failed_ratio", "ratio"),
    ("creativity.eval_ms", "ms"),
    ("pipeline.final_report_ms", "ms"),
    ("self.platform_ms", "ms"),
    // restore_replay
    ("core.sessionstore.load_ms", "ms"),
    ("core.sessionstore.log_bytes", "bytes"),
    ("core.sessionstore.records", "count"),
    ("core.session.replay_ms", "ms"),
    ("provenance.digest_us", "us"),
    ("alloc.count_per_restore", "count"),
    // every workload
    ("trace_overhead_pct", "%"),
    ("host.calibration_us", "us"),
];

/// Every per-layer metric, `(name, unit)`: [`LAYERS`] plus three per
/// profile phase — calls, self time and allocations, each per op.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        LAYERS.iter().map(|(n, u)| (n.to_string(), *u)).collect();
    for phase in PHASES {
        out.push((format!("phase.{phase}.calls"), "count"));
        out.push((format!("phase.{phase}.self_ms"), "ms"));
        out.push((format!("phase.{phase}.allocs"), "count"));
    }
    out
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (one of [`END_TO_END`] or [`per_layer`]).
    pub name: String,
    /// Unit, as listed with the name.
    pub unit: String,
    /// The measured value.
    pub value: f64,
    /// Samples the value summarises (1 for a single measurement).
    pub samples: usize,
    /// What the value is over, e.g. `p95`; may be empty.
    pub note: String,
}

/// One output check.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub passed: bool,
    /// Evidence, shown on failure.
    pub detail: String,
}

/// Everything one workload run reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// Measured metrics.
    pub metrics: Vec<Metric>,
    /// Output checks.
    pub checks: Vec<Check>,
    /// Operations issued in timed phases.
    pub attempted: u64,
    /// Operations that failed, were refused, or failed a check.
    pub failed: u64,
    /// The traced run's section of `layers.md`.
    pub markdown: Vec<String>,
}

impl Outcome {
    /// Record a metric.
    pub fn metric(&mut self, name: &str, unit: &str, value: f64, samples: usize, note: &str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            value,
            samples,
            note: note.to_string(),
        });
    }

    /// Record a check.
    pub fn check(&mut self, name: &str, passed: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.to_string(),
            passed,
            detail: detail.into(),
        });
    }

    /// Whether every check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.passed)
    }

    /// The metric `name`, if reported.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Make the metric set exactly `expected`: names the workload did not
    /// report are added as 0 (a layer it never passes through), and a name
    /// outside the list fails a check: `BENCHMARK.json` lists exactly these.
    pub fn conform(&mut self, expected: &[(String, &'static str)]) {
        let unknown: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| !expected.iter().any(|(n, _)| *n == m.name))
            .map(|m| m.name.clone())
            .collect();
        if !unknown.is_empty() {
            self.check(
                "metric names are listed",
                false,
                format!("unlisted: {}", unknown.join(", ")),
            );
        }
        let mut out = Vec::with_capacity(expected.len());
        for (name, unit) in expected {
            match self.metrics.iter().find(|m| m.name == *name) {
                Some(m) => out.push(m.clone()),
                None => out.push(Metric {
                    name: name.clone(),
                    unit: unit.to_string(),
                    value: 0.0,
                    samples: 0,
                    note: "not on this workload's path".to_string(),
                }),
            }
        }
        self.metrics = out;
        let bad: Vec<&str> = self
            .metrics
            .iter()
            .filter(|m| !m.value.is_finite())
            .map(|m| m.name.as_str())
            .collect();
        if !bad.is_empty() {
            let detail = format!("non-finite: {}", bad.join(", "));
            self.check("metric values are finite", false, detail);
        }
    }

    /// Encode as the child→parent line protocol (tab-separated; fields
    /// never contain tabs or newlines).
    pub fn encode(&self) -> String {
        let clean = |s: &str| s.replace(['\t', '\n', '\r'], " ");
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "metric\t{}\t{}\t{}\t{}\t{}",
                m.name,
                m.unit,
                m.value,
                m.samples,
                clean(&m.note)
            );
        }
        for c in &self.checks {
            let verdict = if c.passed { "pass" } else { "fail" };
            let _ = writeln!(
                out,
                "check\t{}\t{verdict}\t{}",
                clean(&c.name),
                clean(&c.detail)
            );
        }
        let _ = writeln!(out, "ops\t{}\t{}", self.attempted, self.failed);
        for line in &self.markdown {
            let _ = writeln!(out, "md\t{}", clean(line));
        }
        out
    }

    /// Decode [`Outcome::encode`] output; lines of any other shape (a
    /// child's incidental prints) are ignored.
    pub fn decode(text: &str) -> Self {
        let mut out = Outcome::default();
        for line in text.lines() {
            let f: Vec<&str> = line.split('\t').collect();
            match f.as_slice() {
                ["metric", name, unit, value, samples, note] => {
                    if let (Ok(value), Ok(samples)) = (value.parse(), samples.parse()) {
                        out.metric(name, unit, value, samples, note);
                    }
                }
                ["check", name, verdict, detail] => {
                    out.check(name, *verdict == "pass", *detail);
                }
                ["ops", attempted, failed] => {
                    out.attempted = attempted.parse().unwrap_or(0);
                    out.failed = failed.parse().unwrap_or(1);
                }
                ["md", rest @ ..] => out.markdown.push(rest.join("\t")),
                _ => {}
            }
        }
        out
    }
}

/// The final result line: one JSON object with exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            body.push_str(", ");
        }
        // Non-finite values are not JSON; `conform` already failed a check.
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            body,
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{body}}}}}",
        attempted.max(1)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut all: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        all.extend(per_layer().into_iter().map(|(n, _)| n));
        for name in &all {
            assert!(valid_name(name), "{name}");
        }
        let mut dedup = all.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len(), "a metric name is used twice");
        assert!(per_layer().len() <= 128);
    }

    // `"name": "x", "unit": "y"` pairs of one top-level list of
    // BENCHMARK.json, in order.
    fn listed(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("list present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("list closes")];
        let field = |obj: &str, f: &str| -> String {
            let at = obj.find(&format!("\"{f}\"")).expect("field") + f.len() + 2;
            let rest = &obj[at..];
            let open = rest.find('"').expect("value opens") + 1;
            let close = open + rest[open..].find('"').expect("value closes");
            rest[open..close].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let json = include_str!("../../../../../../BENCHMARK.json");
        let end_to_end: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed(json, "end_to_end"), end_to_end);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(listed(json, "per_layer"), layers);
    }

    #[test]
    fn protocol_round_trips() {
        let mut o = Outcome {
            attempted: 12,
            failed: 1,
            markdown: vec!["| a | b |".into(), String::new()],
            ..Outcome::default()
        };
        o.metric("p50_ms", "ms", 1.234_567_890_123, 300, "median; p95 2.5 ms");
        o.check("digest", false, "got 1\texpected 2");
        let back = Outcome::decode(&format!("noise line\n{}", o.encode()));
        assert_eq!(back.metrics, o.metrics);
        assert_eq!(back.attempted, 12);
        assert_eq!(back.failed, 1);
        assert_eq!(back.markdown, o.markdown);
        assert!(!back.checks[0].passed);
        assert_eq!(back.checks[0].detail, "got 1 expected 2");
    }

    #[test]
    fn conform_fills_absent_layers_and_flags_unlisted_names() {
        let expected = vec![("a".to_string(), "ms"), ("b".to_string(), "us")];
        let mut o = Outcome::default();
        o.metric("b", "us", 2.0, 3, "");
        o.conform(&expected);
        assert_eq!(o.metrics.len(), 2);
        assert_eq!(o.metrics[0].value, 0.0);
        assert_eq!(o.metrics[1].value, 2.0);
        assert!(o.correct());
        o.metric("zzz", "ms", f64::NAN, 1, "");
        o.conform(&expected);
        assert!(!o.correct());
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let m = Metric {
            name: "p50_ms".into(),
            unit: "ms".into(),
            value: 1.5,
            samples: 3,
            note: String::new(),
        };
        assert_eq!(
            result_json(true, 10, 0, &[m]),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \
             \"metrics\": {\"p50_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
    }
}
