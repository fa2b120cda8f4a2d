//! `converse_inproc`: whole conversations in one thread, store and journal
//! off. Each conversation parses a CSV upload, opens a `DesignSession` and
//! runs a fixed script with two pipeline runs and one drivers question.
//! Every set-up generates its own upload and a few session seeds (the
//! *groups*), and runs one untimed conversation per group, whose
//! provenance digest every timed conversation of that group must then
//! reproduce (same name, seed and upload). Each timed pass holds one
//! conversation per set-up and group, so each study turn is repeated once
//! per pass.
//!
//! Why: data, ml and pipeline work dominate here (a study turn costs tens
//! of milliseconds, an acknowledgement microseconds), and no daemon,
//! store, journal or creative search runs — the workload that moves when
//! the kernels under a study turn move, and stays put when only the
//! serving layers do.

use std::time::{Duration, Instant};

use matilda_conversation::UserProfile;
use matilda_core::config::PlatformConfig;
use matilda_core::session::DesignSession;
use matilda_data::prelude::*;
use matilda_datagen::prelude::*;
use matilda_pipeline::prelude::*;
use matilda_telemetry::profile::AllocScope;

use super::{md, op_key, Phases, RunConfig, Timing, SETUPS};
use crate::report::Outcome;
use crate::trace::Tracer;

/// The user's script: a goal, five decisions, a run, a drivers question,
/// a creative idea that is declined, a second run, goodbye. Adopting the
/// idea would add a preparation step drawn at random — a cubic polynomial
/// expansion triples the second run's features — so the second run's cost,
/// and the study-turn tail with it, would follow the seed's draw instead of
/// the code.
pub const SCRIPT: [&str; 12] = [
    "I want to predict 'label'",
    "yes",
    "no",
    "yes",
    "yes",
    "no",
    "run it",
    DRIVERS,
    "surprise me",
    "no",
    "run it",
    "done",
];
const DRIVERS: &str = "what matters most?";
/// Timed passes of an untraced run; every study turn is repeated this
/// often, and counts with its fastest repeat.
const REPEATS: usize = 5;
const QUESTION: &str = "can the measurements tell the three groups apart?";
/// Nominal conversations per second on the reference machine.
const CONVERSATIONS_PER_S: f64 = 4.5;
/// Conversations whose study turns the traced run re-runs layer by layer.
const PROBED: usize = 8;

/// A set-up's generated upload, the session config of each group, and the
/// digest each group's untimed conversation ended in.
pub struct Upload {
    csv: String,
    configs: Vec<PlatformConfig>,
    user: UserProfile,
    digests: Vec<u64>,
}

/// Generate set-up `setup`'s upload: `rows` rows of three blobs with three
/// noise columns and 5% of values missing completely at random, and
/// `groups` session seeds.
pub fn upload(cfg: &RunConfig, setup: usize, rows: usize, groups: usize) -> Upload {
    let frame = blobs_with_noise(
        &BlobsConfig {
            n_rows: rows,
            n_classes: 3,
            n_features: 2,
            separation: 4.0,
            spread: 1.5,
            seed: cfg.derive(&format!("converse.blobs.{setup}")),
        },
        3,
    );
    let mcar = cfg.derive(&format!("converse.mcar.{setup}"));
    let frame = inject_mcar(&frame, 0.05, &["label"], mcar);
    Upload {
        csv: write_csv_str(&frame, ','),
        configs: (0..groups)
            .map(|g| PlatformConfig {
                seed: cfg.derive(&format!("converse.session.{setup}.{g}")),
                ..PlatformConfig::default()
            })
            .collect(),
        user: UserProfile::novice("Ada", "urbanism"),
        digests: Vec::new(),
    }
}

/// What one conversation did.
struct Conversation {
    /// Study-turn latencies (pipeline runs and drivers answers), ms.
    study_ms: Vec<f64>,
    /// Open (parse + session) and every step, summed.
    wall: Duration,
    digest: u64,
    executed: usize,
    closed: bool,
}

/// What the traced passes collect besides spans.
#[derive(Default)]
struct Capture {
    /// (study-turn allocations, bytes, turns).
    allocs: (u64, u64, u64),
    /// Inputs captured for the layer probes.
    runs: Vec<(PipelineSpec, DataFrame)>,
    drivers: Vec<(PipelineSpec, DataFrame, u64)>,
}

/// One conversation of `group`; `None` when a turn failed (recorded in
/// `out`). `capture` collects probe inputs when given.
fn converse(
    up: &Upload,
    group: usize,
    op: u64,
    tracer: &mut Tracer,
    mut capture: Option<&mut Capture>,
    out: &mut Outcome,
) -> Option<Conversation> {
    let traced = tracer.enabled();
    let (user, config) = (up.user.clone(), up.configs[group].clone());
    let seed = config.seed;
    out.attempted += 1;
    let start = Instant::now();
    let frame = match read_csv_str(&up.csv, &CsvOptions::default()) {
        Ok(frame) => frame,
        Err(e) => {
            out.failed += 1;
            out.check("upload parses", false, e.to_string());
            return None;
        }
    };
    let read = start.elapsed();
    let probe_frame = capture.as_ref().map(|_| frame.clone());
    let started = Instant::now();
    let name = format!("converse-{group}");
    let mut session = DesignSession::new(name, QUESTION, frame, user, config);
    let new = started.elapsed();
    let open = start.elapsed();
    tracer.record("data.csv.read", op, start, read);
    tracer.record("core.session.new", op, started, new);
    tracer.record("converse.open", op, start, open);
    let mut conv = Conversation {
        study_ms: Vec::new(),
        wall: open,
        digest: 0,
        executed: 0,
        closed: false,
    };
    for utterance in SCRIPT {
        out.attempted += 1;
        let alloc = traced.then(AllocScope::begin);
        let started = Instant::now();
        let result = session.step(utterance);
        let took = started.elapsed();
        conv.wall += took;
        let outcome = match result {
            Ok(outcome) => outcome,
            Err(e) => {
                out.failed += 1;
                out.check("every turn succeeds", false, format!("{utterance:?}: {e}"));
                return None;
            }
        };
        let study = outcome.executed.is_some() || utterance == DRIVERS;
        let kind = match (&outcome.executed, utterance == DRIVERS) {
            (Some(_), _) => "core.session.run_step",
            (None, true) => "core.session.drivers_step",
            (None, false) => "core.session.ack_step",
        };
        tracer.record(kind, op, started, took);
        if !study {
            continue;
        }
        conv.study_ms.push(took.as_secs_f64() * 1e3);
        if let Some(capture) = capture.as_deref_mut() {
            if let Some(scope) = alloc {
                let delta = scope.end();
                capture.allocs.0 += delta.allocs;
                capture.allocs.1 += delta.bytes;
                capture.allocs.2 += 1;
            }
            if let Some(frame) = &probe_frame {
                if let Some(design) = &outcome.executed {
                    capture.runs.push((design.spec.clone(), frame.clone()));
                } else if let Some(best) = session.best() {
                    capture
                        .drivers
                        .push((best.spec.clone(), frame.clone(), seed));
                }
            }
        }
    }
    conv.executed = session.executed().len();
    conv.closed = session.is_closed();
    conv.digest = session.provenance_digest();
    Some(conv)
}

/// Set-up `setup`: generate the upload, then run each group's conversation
/// once, untimed, and keep its digest as the group's reference.
fn setup(cfg: &RunConfig, setup: usize, groups: usize, out: &mut Outcome) -> Upload {
    let mut up = upload(cfg, setup, 2_000, groups);
    for group in 0..groups {
        let conv = converse(&up, group, 0, &mut Tracer::new(false), None, out);
        let digest = match conv {
            Some(c) if c.executed == 2 && c.closed => c.digest,
            Some(c) => {
                out.failed += 1;
                out.check(
                    "a conversation closes with two executed designs",
                    false,
                    format!("executed {}, closed {}", c.executed, c.closed),
                );
                c.digest
            }
            None => 0,
        };
        up.digests.push(digest);
        super::quiesce();
    }
    up
}

/// One timed pass: one conversation per set-up and group, each checked
/// against its group's reference digest.
fn pass(
    uploads: &[Upload],
    timing: &mut Timing,
    tracer: &mut Tracer,
    mut capture: Option<&mut Capture>,
    out: &mut Outcome,
) -> usize {
    let mut wall = Duration::ZERO;
    let mut ops = 0;
    for (s, up) in uploads.iter().enumerate() {
        for group in 0..up.configs.len() {
            let n = s * up.configs.len() + group;
            let probe = capture.as_deref_mut().filter(|_| n < PROBED);
            let Some(conv) = converse(up, group, n as u64, tracer, probe, out) else {
                continue;
            };
            if !(conv.executed == 2 && conv.closed && conv.digest == up.digests[group]) {
                out.failed += 1;
                out.check(
                    "conversation closes with two executed designs and its group's digest",
                    false,
                    format!(
                        "set-up {s} group {group}: executed {}, closed {}, digest {:#x} vs {:#x}",
                        conv.executed, conv.closed, conv.digest, up.digests[group]
                    ),
                );
            }
            for (k, ms) in conv.study_ms.iter().enumerate() {
                timing.record(op_key(s, group * SCRIPT.len() + k), *ms);
            }
            wall += conv.wall;
            ops += conv.study_ms.len();
            super::quiesce();
        }
    }
    timing.pass(ops, wall);
    ops
}

/// Run the workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let passes = if cfg.traced { 4 } else { REPEATS };
    let groups = (cfg.work(CONVERSATIONS_PER_S) / (passes * cfg.setups(SETUPS))).max(1);
    let mut setups = Vec::new();
    let mut uploads = Vec::new();
    for s in 0..cfg.setups(SETUPS) {
        let start = Instant::now();
        uploads.push(setup(cfg, s, groups, &mut out));
        setups.push(start.elapsed());
    }
    let mut untraced = Timing::default();
    let mut traced = Timing::default();
    let mut tracer = Tracer::new(true);
    let mut capture = Capture::default();
    let mut phases = Phases::default();
    for p in 0..passes {
        if cfg.traces(p) {
            phases.begin();
            // Probe inputs and allocations come from the first traced pass.
            let capture = (p == 1).then_some(&mut capture);
            let ops = pass(&uploads, &mut traced, &mut tracer, capture, &mut out);
            phases.end(ops);
        } else {
            let mut off = Tracer::new(false);
            pass(&uploads, &mut untraced, &mut off, None, &mut out);
        }
    }
    if cfg.traced {
        phases.report(&mut out);
        layers(cfg, &mut out, &untraced, &traced, &capture, tracer);
    } else {
        super::end_to_end(&mut out, &setups, std::slice::from_ref(&untraced));
    }
    out
}

/// The traced run's per-layer metrics and `layers.md` section.
fn layers(
    cfg: &RunConfig,
    out: &mut Outcome,
    base: &Timing,
    t: &Timing,
    cap: &Capture,
    mut tracer: Tracer,
) {
    // Layer probes: the calls a study turn makes, re-run from outside on
    // the captured inputs.
    let mut task_ms: std::collections::BTreeMap<&'static str, f64> = Default::default();
    for (i, (spec, frame)) in cap.runs.iter().enumerate() {
        let op = i as u64;
        tracer.time("pipeline.validate", op, || {
            std::hint::black_box(validate(spec, frame))
        });
        let (report, _) = tracer.time("pipeline.run", op, || {
            run_with_ctx(spec, frame, &ExecContext::unbounded())
        });
        match report {
            Ok(PipelineOutcome::Completed(report)) => {
                for (task, took) in &report.timings {
                    let key = match task.as_str() {
                        "explore" => "explore",
                        "fragment" => "fragment",
                        "train" => "train",
                        "test" => "test",
                        "assess" => "assess",
                        _ => "prepare",
                    };
                    *task_ms.entry(key).or_default() += took.as_secs_f64() * 1e3;
                }
            }
            other => {
                out.check("probe run completes", false, format!("{other:?}"));
            }
        }
    }
    for (i, (spec, frame, seed)) in cap.drivers.iter().enumerate() {
        let target = spec.task.target().to_string();
        // The drivers answer re-applies the design's preparation and ranks
        // features by permutation importance; only the ranking is timed.
        let mut prepared = frame.clone();
        for op in &spec.prep {
            if let Ok(next) = op.apply(&prepared, &target) {
                prepared = next;
            }
        }
        let features: Vec<String> = prepared
            .schema()
            .numeric_names()
            .iter()
            .filter(|n| **n != target)
            .map(|s| s.to_string())
            .collect();
        let refs: Vec<&str> = features.iter().map(String::as_str).collect();
        match matilda_ml::Dataset::classification(&prepared, &refs, &target) {
            Ok(data) => {
                let (ranked, _) = tracer.time("ml.importance", i as u64, || {
                    matilda_ml::importance::permutation_importance(&spec.model, &data, 3, *seed)
                });
                if let Err(e) = ranked {
                    out.check("drivers probe ranks features", false, e.to_string());
                }
            }
            Err(e) => {
                out.check("drivers probe dataset builds", false, e.to_string());
            }
        }
    }

    let runs = cap.runs.len().max(1) as f64;
    let n_run = tracer.count("core.session.run_step") as f64;
    let n_drivers = tracer.count("core.session.drivers_step") as f64;
    let n_study = n_run + n_drivers;
    let study_mean = (tracer.total_ms("core.session.run_step")
        + tracer.total_ms("core.session.drivers_step"))
        / n_study.max(1.0);
    let share = |calls: f64| calls / n_study.max(1.0);
    let validate_ms = tracer.mean_ms("pipeline.validate");
    let run_ms = tracer.mean_ms("pipeline.run");
    let importance_ms = tracer.mean_ms("ml.importance");
    let validate_part = validate_ms * share(n_run);
    let run_part = run_ms * share(n_run);
    let importance_part = importance_ms * share(n_drivers);
    let remainder = study_mean - validate_part - run_part - importance_part;
    let read_ms = tracer.mean_ms("data.csv.read");
    let new_ms = tracer.mean_ms("core.session.new");
    let open_ms = tracer.mean_ms("converse.open");
    let n = n_study as usize;

    out.metric(
        "data.csv.read_ms",
        "ms",
        read_ms,
        tracer.count("data.csv.read") as usize,
        "mean",
    );
    out.metric(
        "core.session.new_ms",
        "ms",
        new_ms,
        tracer.count("core.session.new") as usize,
        "mean",
    );
    out.metric(
        "core.session.ack_step_us",
        "us",
        tracer.mean_ms("core.session.ack_step") * 1e3,
        tracer.count("core.session.ack_step") as usize,
        "mean",
    );
    out.metric(
        "core.session.run_step_ms",
        "ms",
        tracer.mean_ms("core.session.run_step"),
        n_run as usize,
        "mean",
    );
    out.metric(
        "core.session.drivers_step_ms",
        "ms",
        tracer.mean_ms("core.session.drivers_step"),
        n_drivers as usize,
        "mean",
    );
    out.metric(
        "pipeline.validate_us",
        "us",
        validate_ms * 1e3,
        cap.runs.len(),
        "mean, probe",
    );
    out.metric(
        "pipeline.run_ms",
        "ms",
        run_ms,
        cap.runs.len(),
        "mean, probe",
    );
    for task in ["explore", "prepare", "fragment", "train", "test", "assess"] {
        let v = task_ms.get(task).copied().unwrap_or(0.0) / runs;
        out.metric(
            &format!("pipeline.task.{task}_ms"),
            "ms",
            v,
            cap.runs.len(),
            "mean per run, probe",
        );
    }
    out.metric(
        "ml.importance_ms",
        "ms",
        importance_ms,
        cap.drivers.len(),
        "mean, probe",
    );
    let turns = cap.allocs.2.max(1) as f64;
    out.metric(
        "alloc.count_per_study_turn",
        "count",
        cap.allocs.0 as f64 / turns,
        cap.allocs.2 as usize,
        "mean",
    );
    out.metric(
        "alloc.bytes_per_study_turn",
        "bytes",
        cap.allocs.1 as f64 / turns,
        cap.allocs.2 as usize,
        "mean",
    );
    out.metric(
        "self.session_study_ms",
        "ms",
        remainder,
        n,
        "unmeasured: study mean minus probed layers",
    );
    super::trace_overhead(out, base, t);

    let m = &mut out.markdown;
    m.push("## converse_inproc".to_string());
    m.push(String::new());
    m.push(format!(
        "Traced passes: {n} study turns (mean {} ms); layer calls re-run on the inputs of \
         the first {PROBED} conversations of the first traced pass. Fastest repeats: traced \
         {} ms, untraced {} ms.",
        md::f(study_mean),
        md::f(t.mean()),
        md::f(base.mean()),
    ));
    m.push(String::new());
    md::header(
        m,
        "Open (upload parse + session), means over the traced passes",
        &["layer", "mean ms", "share"],
    );
    md::row(
        m,
        &[
            "data.csv.read".into(),
            md::f(read_ms),
            md::pct(read_ms, open_ms),
        ],
    );
    md::row(
        m,
        &[
            "core.session.new".into(),
            md::f(new_ms),
            md::pct(new_ms, open_ms),
        ],
    );
    let residual = open_ms - read_ms - new_ms;
    md::row(
        m,
        &[
            "residual (unmeasured)".into(),
            md::f(residual),
            md::pct(residual, open_ms),
        ],
    );
    md::row(m, &["**open mean**".into(), md::f(open_ms), "100%".into()]);
    m.push(String::new());
    md::header(
        m,
        "Study turn (per study turn; runs and drivers answers weighted by their share)",
        &["layer", "ms per study turn", "share", "moves"],
    );
    let moves = "p50_ms, tail_ms, ops_per_s";
    md::row(
        m,
        &[
            "pipeline.validate".into(),
            md::f(validate_part),
            md::pct(validate_part, study_mean),
            moves.into(),
        ],
    );
    let mut task_sum = 0.0;
    for task in ["explore", "prepare", "fragment", "train", "test", "assess"] {
        let v = task_ms.get(task).copied().unwrap_or(0.0) / runs * share(n_run);
        task_sum += v;
        md::row(
            m,
            &[
                format!("pipeline.task.{task}"),
                md::f(v),
                md::pct(v, study_mean),
                moves.into(),
            ],
        );
    }
    let pipeline_self = run_part - task_sum;
    md::row(
        m,
        &[
            "pipeline.run outside its tasks".into(),
            md::f(pipeline_self),
            md::pct(pipeline_self, study_mean),
            moves.into(),
        ],
    );
    md::row(
        m,
        &[
            "ml.importance".into(),
            md::f(importance_part),
            md::pct(importance_part, study_mean),
            moves.into(),
        ],
    );
    md::row(
        m,
        &[
            "residual (unmeasured: the session's own work, and probes re-running on warm \
             caches)"
                .into(),
            md::f(remainder),
            md::pct(remainder, study_mean),
            String::new(),
        ],
    );
    md::row(
        m,
        &[
            "**study turn mean**".into(),
            md::f(study_mean),
            "100%".into(),
            String::new(),
        ],
    );
    m.push(String::new());
    m.push(format!(
        "Allocations per study turn: {:.0} ({:.0} bytes). Acknowledgement turns: {} µs mean.",
        cap.allocs.0 as f64 / turns,
        cap.allocs.1 as f64 / turns,
        md::f(tracer.mean_ms("core.session.ack_step") * 1e3)
    ));
    m.push(String::new());
    let path = cfg.results.join("trace_converse_inproc.json");
    if let Err(e) = tracer.write_json(&path, "converse_inproc") {
        out.check("trace JSON written", false, e.to_string());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{testenv, Workload};

    #[test]
    fn a_tampered_expected_digest_fails_the_conversation() {
        let _env = testenv::pin(Some(Workload::ConverseInproc), &std::env::temp_dir());
        let cfg = RunConfig {
            seed: 5,
            seconds: 1.0,
            traced: false,
            scratch: std::env::temp_dir(),
            results: std::env::temp_dir(),
        };
        let mut out = Outcome::default();
        let mut up = setup(&cfg, 0, 1, &mut out);
        let mut timing = Timing::default();
        let mut off = Tracer::new(false);
        pass(
            std::slice::from_ref(&up),
            &mut timing,
            &mut off,
            None,
            &mut out,
        );
        assert!(out.correct(), "{:?}", out.checks);
        up.digests[0] ^= 1;
        pass(
            std::slice::from_ref(&up),
            &mut timing,
            &mut off,
            None,
            &mut out,
        );
        assert_eq!(out.failed, 1);
        assert!(!out.correct());
    }
}
