//! `hybrid_design`: `Matilda::design_hybrid` with the default platform
//! config (population 10, 5 generations, 3 folds), round-robin over four
//! kinds of generated dataset.
//!
//! Why: only this workload runs the creative search, its per-generation
//! `evaluate_batch` worker spawns and the evaluator cache — the "known
//! feeds unknown" flow of the paper's Figure 1. The dataset mix varies
//! categoricals, missing values and class balance. One design's cost
//! swings with the models its search happens to try, so every call gets
//! its own dataset instance, persona seed and search seed, and a run
//! averages over dozens of independent designs. Each timed pass makes
//! every call once; a repeated call must repeat its design.

use std::time::{Duration, Instant};

use matilda_core::config::PlatformConfig;
use matilda_core::persona::Persona;
use matilda_core::platform::Matilda;
use matilda_core::session::DesignSession;
use matilda_creativity::search::search;
use matilda_creativity::value::Evaluator;
use matilda_data::DataFrame;
use matilda_datagen::prelude::*;
use matilda_pipeline::fingerprint::fingerprint;
use matilda_pipeline::prelude::*;

use super::{md, op_key, Phases, RunConfig, Timing, SETUPS};
use crate::report::Outcome;
use crate::trace::Tracer;

const QUESTION: &str = "what best predicts the outcome?";
/// Dataset kinds, visited round-robin: (name, target, designed by a picky
/// expert rather than a trusting novice). The picky expert never gets the
/// questionnaire: rejecting its imputation step can leave a session
/// without any executed design, and every call here must succeed.
const KINDS: [(&str, &str, bool); 4] = [
    ("blobs", "label", false),
    ("moons", "moon", true),
    ("imbalanced", "outcome", true),
    ("questionnaire", "satisfaction", false),
];
/// Timed passes of an untraced run; every call is repeated this often, and
/// counts with its fastest repeat. One design's cost varies by half with
/// its seed, so the median over a run's designs steadies with their number;
/// but the search runs on two worker threads, which a busy neighbour on
/// either vCPU slows, so a call also needs a repeat seconds apart. With
/// three passes the run-to-run spread of the median over ten seeds was
/// 0.18 of it, with two (half again as many designs) 0.04.
const REPEATS: usize = 2;
/// The seed of the warm-up calls, the same in every run: the warm-up only
/// settles the process, so its cost must not follow `--seed`.
const WARM_SEED: u64 = 0x5eed;
/// Nominal designs per second on the reference machine.
const DESIGNS_PER_S: f64 = 7.5;

/// Everything one call designs over.
pub struct Call {
    kind: usize,
    frame: DataFrame,
    persona_seed: u64,
    platform: PlatformConfig,
}

impl Call {
    fn name(&self) -> &'static str {
        KINDS[self.kind].0
    }

    fn persona(&self) -> Persona {
        let (_, target, expert) = KINDS[self.kind];
        if expert {
            Persona::picky_expert(target, self.persona_seed)
        } else {
            Persona::trusting_novice(target, self.persona_seed)
        }
    }
}

/// Call `call` of set-up `setup` under master seed `master`: a blobs,
/// moons, imbalanced or questionnaire (categorical answers, 5% missing)
/// dataset of 180–200 rows.
pub fn call(master: u64, setup: usize, call: usize) -> Call {
    let kind = call % KINDS.len();
    let seed = |what: &str| super::derive(master, &format!("hybrid.{what}.{setup}.{call}"));
    let frame = match kind {
        0 => blobs_with_noise(
            &BlobsConfig {
                n_rows: 180,
                n_classes: 3,
                n_features: 2,
                separation: 3.5,
                spread: 1.2,
                seed: seed("data"),
            },
            2,
        ),
        1 => moons(&MoonsConfig {
            n_rows: 180,
            noise: 0.2,
            seed: seed("data"),
        }),
        2 => imbalanced(&ImbalanceConfig {
            n_rows: 200,
            minority_fraction: 0.15,
            separation: 2.5,
            seed: seed("data"),
        }),
        _ => inject_mcar(
            &questionnaire(&QuestionnaireConfig {
                n_respondents: 180,
                n_items: 6,
                noise: 0.5,
                seed: seed("data"),
            }),
            0.05,
            &["satisfaction"],
            seed("mcar"),
        ),
    };
    Call {
        kind,
        frame,
        persona_seed: seed("persona"),
        platform: PlatformConfig {
            seed: seed("platform"),
            ..PlatformConfig::default()
        },
    }
}

/// A set-up's calls and the design fingerprint each must repeat (known
/// once the call has run).
struct Batch {
    calls: Vec<Call>,
    fingerprints: Vec<Option<u64>>,
}

/// One `design_hybrid` call, checked; returns its latency (ms) and final
/// fingerprint, or `None` when it failed (recorded in `out`).
fn design(c: &Call, op: u64, tracer: &mut Tracer, out: &mut Outcome) -> Option<(f64, u64)> {
    let platform = Matilda::new(c.platform.clone());
    let mut persona = c.persona();
    out.attempted += 1;
    let start = Instant::now();
    let result = platform.design_hybrid(&c.frame, &mut persona, QUESTION);
    let took = start.elapsed();
    tracer.record("platform.design_hybrid", op, start, took);
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            out.failed += 1;
            out.check("every design succeeds", false, format!("{}: {e}", c.name()));
            return None;
        }
    };
    let scores = [
        outcome.report.test_score,
        outcome.report.train_score,
        outcome.assessment.quality,
        outcome.assessment.novelty,
        outcome.assessment.surprise,
    ];
    if !scores.iter().all(|s| s.is_finite()) {
        out.failed += 1;
        out.check(
            "design scores are finite",
            false,
            format!("{}: {scores:?}", c.name()),
        );
    }
    Some((took.as_secs_f64() * 1e3, fingerprint(&outcome.spec)))
}

/// Compare a call's fingerprint with the one it made before, or keep it
/// as the reference on its first run.
fn repeats(batch: &mut Batch, i: usize, fp: u64, out: &mut Outcome) {
    match batch.fingerprints[i] {
        None => batch.fingerprints[i] = Some(fp),
        Some(first) if first == fp => {}
        Some(first) => {
            out.failed += 1;
            out.check(
                "a repeated call repeats its design",
                false,
                format!(
                    "{} call {i}: first {first:#x}, now {fp:#x}",
                    batch.calls[i].name()
                ),
            );
        }
    }
}

/// Set-up `setup`: generate the calls, then design one fixed call of each
/// dataset kind untimed, so worker threads, lazy statics and allocator
/// pools settle before timing.
fn setup(cfg: &RunConfig, setup: usize, calls: usize, out: &mut Outcome) -> Batch {
    let batch = Batch {
        calls: (0..calls).map(|i| call(cfg.seed, setup, i)).collect(),
        fingerprints: vec![None; calls],
    };
    for k in 0..KINDS.len() {
        design(&call(WARM_SEED, 0, k), 0, &mut Tracer::new(false), out);
        super::quiesce();
    }
    batch
}

/// One timed pass: every call of every set-up once.
fn pass(
    batches: &mut [Batch],
    timing: &mut Timing,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> usize {
    let mut wall = Duration::ZERO;
    let mut ops = 0;
    for (s, batch) in batches.iter_mut().enumerate() {
        for i in 0..batch.calls.len() {
            let key = op_key(s, i);
            if let Some((ms, fp)) = design(&batch.calls[i], key, tracer, out) {
                timing.record(key, ms);
                wall += Duration::from_secs_f64(ms / 1e3);
                ops += 1;
                repeats(batch, i, fp, out);
            }
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
    let calls = cfg
        .work(DESIGNS_PER_S)
        .div_ceil(passes * cfg.setups(SETUPS));
    let mut setups = Vec::new();
    let mut batches = Vec::new();
    for s in 0..cfg.setups(SETUPS) {
        let start = Instant::now();
        batches.push(setup(cfg, s, calls, &mut out));
        setups.push(start.elapsed());
    }
    let mut untraced = Timing::default();
    let mut traced = Timing::default();
    let mut tracer = Tracer::new(true);
    let mut phases = Phases::default();
    for p in 0..passes {
        if cfg.traces(p) {
            phases.begin();
            let ops = pass(&mut batches, &mut traced, &mut tracer, &mut out);
            phases.end(ops);
        } else {
            let mut off = Tracer::new(false);
            pass(&mut batches, &mut untraced, &mut off, &mut out);
        }
    }
    if cfg.traced {
        phases.report(&mut out);
        layers(cfg, &mut out, &batches[0], &untraced, &traced, tracer);
    } else {
        super::end_to_end(&mut out, &setups, std::slice::from_ref(&untraced));
    }
    out
}

/// `design_hybrid`'s steps for one call, each timed through its public
/// entry point: the autonomous conversation, the seeded search with the
/// config `design_hybrid` builds, a fresh evaluation of the final design and
/// its final report. Returns `(evaluations, failed candidates, final
/// fingerprint)`.
fn probe_call(
    c: &Call,
    op: u64,
    tracer: &mut Tracer,
) -> std::result::Result<(usize, usize, u64), String> {
    let config = &c.platform;
    let mut persona = c.persona();
    let (session, _) = tracer.time("core.session.autonomous", op, || {
        let mut session = DesignSession::new(
            format!("hybrid:{}", persona.profile.name),
            QUESTION,
            c.frame.clone(),
            persona.profile.clone(),
            config.clone(),
        );
        session.run_autonomous(&mut persona).map(|_| session)
    });
    let session = session.map_err(|e| format!("probe session: {e}"))?;
    let seed = session
        .best()
        .cloned()
        .ok_or("probe session executes no design")?;
    let mut search_config = config.search_config(persona.profile.exploration_weight());
    search_config.seeds = vec![seed.spec.clone()];
    search_config.breakers = Some(session.breaker_registry());
    let (outcome, _) = tracer.time("creativity.search", op, || {
        search(&seed.spec.task, &c.frame, &search_config)
    });
    let outcome = outcome.map_err(|e| format!("probe search: {e}"))?;
    let final_spec = match outcome.best() {
        Some(best) if best.fingerprint != seed.fingerprint => best.spec.clone(),
        _ => seed.spec.clone(),
    };
    tracer.time("creativity.eval", op, || {
        Evaluator::new(c.frame.clone(), config.k_folds).value(&final_spec)
    });
    let (report, _) = tracer.time("pipeline.final_report", op, || {
        run_with_ctx(&final_spec, &c.frame, &ExecContext::unbounded())
    });
    if !matches!(report, Ok(PipelineOutcome::Completed(_))) {
        return Err(format!("probe final report: {report:?}"));
    }
    Ok((
        outcome.evaluations(),
        outcome.failed_candidates(),
        fingerprint(&final_spec),
    ))
}

/// The traced run's per-layer metrics and `layers.md` section: every call
/// re-run step by step through public entry points, next to one more whole
/// `design_hybrid` of the same call, so the steps and the whole they are
/// compared with run at the same moment of the host. Which of the two runs
/// first alternates, so neither always finds the caches warm.
fn layers(
    cfg: &RunConfig,
    out: &mut Outcome,
    batch: &Batch,
    base: &Timing,
    t: &Timing,
    mut tracer: Tracer,
) {
    let mut evaluations = 0usize;
    let mut failed = 0usize;
    let probes = batch.calls.len();
    for (call, c) in batch.calls.iter().enumerate() {
        let op = call as u64;
        let whole = |tracer: &mut Tracer, out: &mut Outcome| {
            let start = Instant::now();
            if let Some((ms, _)) = design(c, op, &mut Tracer::new(false), out) {
                let took = Duration::from_secs_f64(ms / 1e3);
                tracer.record("platform.design_hybrid.paired", op, start, took);
            }
        };
        if call % 2 == 0 {
            whole(&mut tracer, out);
        }
        let probed = probe_call(c, op, &mut tracer);
        if call % 2 == 1 {
            whole(&mut tracer, out);
        }
        match probed {
            Ok((evals, fails, fp)) => {
                evaluations += evals;
                failed += fails;
                if batch.fingerprints[call] != Some(fp) {
                    out.check(
                        "the probe path reproduces the platform's design",
                        false,
                        format!(
                            "{} call {call}: probe {fp:x}, platform {:x?}",
                            c.name(),
                            batch.fingerprints[call]
                        ),
                    );
                }
            }
            Err(e) => out.check("layer probes run", false, format!("{}: {e}", c.name())),
        }
        super::quiesce();
    }
    let design_ms = tracer.mean_ms("platform.design_hybrid.paired");
    let autonomous = tracer.mean_ms("core.session.autonomous");
    let search_ms = tracer.mean_ms("creativity.search");
    let report_ms = tracer.mean_ms("pipeline.final_report");
    let remainder = design_ms - autonomous - search_ms - report_ms;
    let n = t.samples();
    out.metric(
        "core.session.autonomous_ms",
        "ms",
        autonomous,
        probes,
        "mean, probe",
    );
    out.metric(
        "creativity.search_ms",
        "ms",
        search_ms,
        probes,
        "mean, probe",
    );
    out.metric(
        "creativity.evaluations",
        "count",
        evaluations as f64 / probes as f64,
        probes,
        "per search",
    );
    out.metric(
        "creativity.evals_per_s",
        "1/s",
        evaluations as f64 / (tracer.total_ms("creativity.search") / 1e3),
        probes,
        "over search time",
    );
    out.metric(
        "creativity.failed_ratio",
        "ratio",
        failed as f64 / evaluations.max(1) as f64,
        evaluations,
        "failed / evaluated candidates",
    );
    out.metric(
        "creativity.eval_ms",
        "ms",
        tracer.mean_ms("creativity.eval"),
        probes,
        "fresh Evaluator::value",
    );
    out.metric(
        "pipeline.final_report_ms",
        "ms",
        report_ms,
        probes,
        "mean, probe",
    );
    out.metric(
        "self.platform_ms",
        "ms",
        remainder,
        probes,
        "unmeasured: paired design mean minus probed layers",
    );
    super::trace_overhead(out, base, t);

    let m = &mut out.markdown;
    m.push("## hybrid_design".to_string());
    m.push(String::new());
    m.push(format!(
        "Traced passes: {n} `design_hybrid` calls round-robin over {} dataset kinds, each \
         with its own data, persona and search seed (mean {} ms). Fastest repeats: traced {} \
         ms, untraced {} ms. Then each of the {probes} calls ran once more whole and once step \
         by step, back to back; the table compares those two.",
        KINDS.len(),
        md::f(tracer.mean_ms("platform.design_hybrid")),
        md::f(t.mean()),
        md::f(base.mean()),
    ));
    m.push(String::new());
    md::header(
        m,
        "design_hybrid, per call (means over the paired re-runs)",
        &["layer", "mean ms", "share", "moves"],
    );
    let moves = "p50_ms, tail_ms, ops_per_s";
    let rows = [
        ("core.session.autonomous (conversation)", autonomous),
        ("creativity.search (seeded refinement)", search_ms),
        ("pipeline.final_report", report_ms),
    ];
    for (layer, v) in rows {
        md::row(
            m,
            &[layer.into(), md::f(v), md::pct(v, design_ms), moves.into()],
        );
    }
    md::row(
        m,
        &[
            "residual (unmeasured: the platform's own work, and probes re-running on warm \
             caches)"
                .into(),
            md::f(remainder),
            md::pct(remainder, design_ms),
            String::new(),
        ],
    );
    md::row(
        m,
        &[
            "**design mean**".into(),
            md::f(design_ms),
            "100%".into(),
            String::new(),
        ],
    );
    m.push(String::new());
    m.push(format!(
        "Search: {:.1} evaluations per search, {:.0} evaluations/s, failed ratio {:.3}; \
         one fresh evaluation of the final design {} ms.",
        evaluations as f64 / probes as f64,
        evaluations as f64 / (tracer.total_ms("creativity.search") / 1e3),
        failed as f64 / evaluations.max(1) as f64,
        md::f(tracer.mean_ms("creativity.eval")),
    ));
    m.push(String::new());
    let path = cfg.results.join("trace_hybrid_design.json");
    if let Err(e) = tracer.write_json(&path, "hybrid_design") {
        out.check("trace JSON written", false, e.to_string());
    }
}
