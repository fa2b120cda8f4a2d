//! `restore_replay`: each set-up writes durable session logs of 22-turn
//! demo conversations; the timed phase makes passes of
//! `SessionStore::load` plus `DesignSession::restore` over the logs, so
//! each log is restored once per pass.
//!
//! Why: this is the read side of the store `daemon_fleet` writes (crash
//! recovery and daemon restart pay it per session), and it writes nothing,
//! so repeated passes see identical inputs and do not drift. Every set-up
//! writes logs under its own session seeds.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use matilda_conversation::UserProfile;
use matilda_core::config::PlatformConfig;
use matilda_core::session::DesignSession;
use matilda_core::sessionstore::{SessionStore, StoreConfig};
use matilda_daemon::catalog;
use matilda_data::DataFrame;
use matilda_telemetry::profile::AllocScope;

use super::{md, op_key, Phases, RunConfig, Timing};
use crate::report::Outcome;
use crate::trace::Tracer;

/// Logs each set-up writes. The store syncs a log once per turn, and on a
/// volume mounted with `discard` each synced file costs 80–100 ms to
/// delete again, so the corpus stays small and passes repeat over it.
pub const LOGS: usize = 12;
/// Set-ups per untraced run. Writing a corpus takes about 20 ms, three
/// quarters of it in the store's write path (a sync per turn), whose
/// latency on a shared volume jumps for seconds at a time; the fastest of
/// many small set-ups seconds apart is the one such a stretch misses.
const SETUPS: usize = 9;
/// One block of the script; a log holds the goal plus three blocks. A
/// fourth adopted creative idea would earn the agent the rung where it may
/// swap the whole model, and the replay cost of a log would then vary
/// twenty-fold with which model it drew.
const BLOCK: [&str; 7] = [
    "yes",
    "no",
    "yes",
    "surprise me",
    "yes",
    "run it",
    "what matters most?",
];
const BLOCKS: usize = 3;
const GOAL: &str = "I want to predict 'label'";
const QUESTION: &str = "what separates the two halves?";
/// Nominal restores per second on the reference machine.
const RESTORES_PER_S: f64 = 2_200.0;

/// The 22-turn script every log records.
pub fn script() -> Vec<&'static str> {
    let mut turns = vec![GOAL];
    for _ in 0..BLOCKS {
        turns.extend(BLOCK);
    }
    turns
}

/// One written log: its id, the config it ran under, and the digest
/// recorded when it was written.
struct Log {
    id: String,
    config: PlatformConfig,
    digest: u64,
}

struct Corpus {
    dir: PathBuf,
    store: SessionStore,
    frame: DataFrame,
    logs: Vec<Log>,
}

fn setup(cfg: &RunConfig, setup: usize) -> Result<Corpus, String> {
    let dir = cfg.scratch.join(format!("restore-{setup}"));
    let store = SessionStore::open(StoreConfig::new(&dir)).map_err(|e| e.to_string())?;
    let frame = catalog::resolve(catalog::DEFAULT_DATASET).ok_or("demo dataset missing")?;
    let turns = script();
    let mut logs = Vec::with_capacity(LOGS);
    for i in 0..LOGS {
        let id = format!("log{i:03}");
        let config = PlatformConfig {
            seed: cfg.derive(&format!("restore.{setup}.{i}")),
            ..PlatformConfig::quick()
        };
        let mut session = DesignSession::new(
            id.clone(),
            QUESTION,
            frame.clone(),
            UserProfile::novice("Ada", "urbanism"),
            config.clone(),
        );
        session.attach_store(&store).map_err(|e| e.to_string())?;
        for text in &turns {
            session.step(text).map_err(|e| format!("{id}: {e}"))?;
        }
        logs.push(Log {
            id,
            config,
            digest: session.provenance_digest(),
        });
    }
    Ok(Corpus {
        dir,
        store,
        frame,
        logs,
    })
}

/// One pass: load and restore every log of every corpus, checking each
/// digest; returns the ops it ran.
fn pass(
    corpora: &[Corpus],
    timing: &mut Timing,
    tracer: &mut Tracer,
    allocs: &mut u64,
    out: &mut Outcome,
) -> usize {
    let expected_turns = script().len();
    let mut wall = Duration::ZERO;
    let mut ops = 0;
    for (c, corpus) in corpora.iter().enumerate() {
        for (i, log) in corpus.logs.iter().enumerate() {
            let key = op_key(c, i);
            let frame = corpus.frame.clone();
            let config = log.config.clone();
            out.attempted += 1;
            let alloc = tracer.enabled().then(AllocScope::begin);
            let start = Instant::now();
            let data = corpus.store.load(&log.id);
            let loaded = start.elapsed();
            let restored = data.as_ref().map_err(|e| e.to_string()).and_then(|data| {
                DesignSession::restore(frame, config, data).map_err(|e| e.to_string())
            });
            let took = start.elapsed();
            if let Some(scope) = alloc {
                *allocs += scope.end().allocs;
            }
            tracer.record("core.sessionstore.load", key, start, loaded);
            tracer.record("core.session.replay", key, start + loaded, took - loaded);
            tracer.record("restore", key, start, took);
            wall += took;
            ops += 1;
            timing.record(key, took.as_secs_f64() * 1e3);
            match restored {
                Ok((session, report))
                    if report.digest == log.digest && report.turns_replayed == expected_turns =>
                {
                    if tracer.enabled() {
                        tracer.time("provenance.digest", key, || session.provenance_digest());
                    }
                }
                Ok((_, report)) => {
                    out.failed += 1;
                    out.check(
                        "restored digest equals the digest recorded at write time",
                        false,
                        format!(
                            "{}: {:#x} vs {:#x}, {} turns",
                            log.id, report.digest, log.digest, report.turns_replayed
                        ),
                    );
                }
                Err(e) => {
                    out.failed += 1;
                    out.check("every log restores", false, format!("{}: {e}", log.id));
                }
            }
            super::quiesce();
        }
    }
    timing.pass(ops, wall);
    ops
}

/// Run the workload. Set-ups are spread over the first half of the timed
/// work: after each set-up, passes run over every corpus written so far,
/// so the set-ups fall seconds apart (a slow stretch of the host's volume
/// cannot cover them all) and every log's repeats still span most of the
/// run.
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let setups_n = cfg.setups(SETUPS);
    let work = cfg.work(RESTORES_PER_S);
    // Half the restores between set-ups (pass i after set-up s covers s + 1
    // corpora), half over the whole corpus at the end.
    let gap = (work / (LOGS * setups_n * (setups_n + 1))).max(1);
    let rest = (work / (2 * setups_n * LOGS)).max(1);
    let mut setups = Vec::new();
    let mut corpora = Vec::new();
    let mut untraced = Timing::default();
    let mut traced = Timing::default();
    let mut tracer = Tracer::new(true);
    let mut phases = Phases::default();
    let mut allocs = 0;
    let mut passes = 0;
    let mut run_pass = |corpora: &[Corpus], out: &mut Outcome| {
        if cfg.traces(passes) {
            phases.begin();
            let ops = pass(corpora, &mut traced, &mut tracer, &mut allocs, out);
            phases.end(ops);
        } else {
            pass(
                corpora,
                &mut untraced,
                &mut Tracer::new(false),
                &mut allocs,
                out,
            );
        }
        passes += 1;
    };
    for s in 0..setups_n {
        let start = Instant::now();
        match setup(cfg, s) {
            Ok(corpus) => corpora.push(corpus),
            Err(e) => {
                out.failed += 1;
                out.check("log corpus written", false, e);
                break;
            }
        }
        setups.push(start.elapsed());
        super::quiesce();
        for _ in 0..gap {
            run_pass(&corpora, &mut out);
        }
    }
    for _ in 0..rest {
        run_pass(&corpora, &mut out);
    }
    if cfg.traced {
        let sizes = corpora.first().map_or((0, 0), corpus_size);
        phases.report(&mut out);
        layers(cfg, &mut out, &untraced, &traced, tracer, allocs, sizes);
    } else if setups.len() == setups_n {
        super::end_to_end(&mut out, &setups, std::slice::from_ref(&untraced));
    }
    super::remove_all(&corpora.iter().map(|c| c.dir.clone()).collect::<Vec<_>>());
    out
}

/// `(bytes, journal records)` of a corpus, read outside timing.
fn corpus_size(corpus: &Corpus) -> (u64, usize) {
    let mut bytes = 0;
    let mut records = 0;
    for log in &corpus.logs {
        let dir = corpus.store.session_dir(&log.id);
        if let Ok(paths) = matilda_telemetry::journal::segment_paths(&dir) {
            bytes += paths
                .iter()
                .filter_map(|p| std::fs::metadata(p).ok())
                .map(|m| m.len())
                .sum::<u64>();
        }
        records += matilda_telemetry::journal::replay(&dir).map_or(0, |r| r.len());
    }
    (bytes, records)
}

/// The traced run's per-layer metrics and `layers.md` section.
fn layers(
    cfg: &RunConfig,
    out: &mut Outcome,
    base: &Timing,
    t: &Timing,
    tracer: Tracer,
    allocs: u64,
    (bytes, records): (u64, usize),
) {
    let n = t.samples();
    let restore = tracer.mean_ms("restore");
    let load = tracer.mean_ms("core.sessionstore.load");
    let replay = tracer.mean_ms("core.session.replay");
    let digest_us = tracer.mean_ms("provenance.digest") * 1e3;
    out.metric("core.sessionstore.load_ms", "ms", load, n, "mean");
    out.metric(
        "core.sessionstore.log_bytes",
        "bytes",
        bytes as f64 / LOGS as f64,
        LOGS,
        "mean per log",
    );
    out.metric(
        "core.sessionstore.records",
        "count",
        records as f64 / LOGS as f64,
        LOGS,
        "mean per log",
    );
    out.metric("core.session.replay_ms", "ms", replay, n, "mean");
    out.metric("provenance.digest_us", "us", digest_us, n, "mean, probe");
    out.metric(
        "alloc.count_per_restore",
        "count",
        allocs as f64 / n.max(1) as f64,
        n,
        "mean",
    );
    super::trace_overhead(out, base, t);

    let m = &mut out.markdown;
    m.push("## restore_replay".to_string());
    m.push(String::new());
    m.push(format!(
        "Traced passes: {n} restores of {LOGS} logs of {} turns ({:.0} bytes, {:.0} records \
         per log); mean {} ms. Fastest repeats: traced {} ms, untraced {} ms.",
        script().len(),
        bytes as f64 / LOGS as f64,
        records as f64 / LOGS as f64,
        md::f(restore),
        md::f(t.mean()),
        md::f(base.mean()),
    ));
    m.push(String::new());
    md::header(
        m,
        "Load + restore, per log (means over the traced passes)",
        &["layer", "mean ms", "share", "moves"],
    );
    let moves = "p50_ms, tail_ms, ops_per_s";
    md::row(
        m,
        &[
            "core.sessionstore.load (read + parse)".into(),
            md::f(load),
            md::pct(load, restore),
            moves.into(),
        ],
    );
    md::row(
        m,
        &[
            "core.session.replay (re-step every turn)".into(),
            md::f(replay),
            md::pct(replay, restore),
            moves.into(),
        ],
    );
    let residual = restore - load - replay;
    md::row(
        m,
        &[
            "residual (the two calls are timed back to back)".into(),
            md::f(residual),
            md::pct(residual, restore),
            String::new(),
        ],
    );
    md::row(
        m,
        &[
            "**restore mean**".into(),
            md::f(restore),
            "100%".into(),
            String::new(),
        ],
    );
    m.push(String::new());
    m.push(format!(
        "One provenance digest of a restored session: {} µs (replay computes one). \
         Allocations per restore: {:.0}.",
        md::f(digest_us),
        allocs as f64 / n.max(1) as f64
    ));
    m.push(String::new());
    let path = cfg.results.join("trace_restore_replay.json");
    if let Err(e) = tracer.write_json(&path, "restore_replay") {
        out.check("trace JSON written", false, e.to_string());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{testenv, Workload};

    #[test]
    fn a_tampered_expected_digest_fails_the_restore() {
        let scratch = std::env::temp_dir().join(format!("e2e-bench-tamper-{}", std::process::id()));
        let _env = testenv::pin(Some(Workload::RestoreReplay), &scratch);
        let cfg = RunConfig {
            seed: 5,
            seconds: 1.0,
            traced: false,
            scratch: scratch.clone(),
            results: scratch.clone(),
        };
        let mut corpora = vec![setup(&cfg, 0).expect("corpus written")];
        let mut out = Outcome::default();
        let mut timing = Timing::default();
        let mut off = Tracer::new(false);
        pass(&corpora, &mut timing, &mut off, &mut 0, &mut out);
        assert!(out.correct(), "{:?}", out.checks);
        corpora[0].logs[3].digest ^= 1;
        pass(&corpora, &mut timing, &mut off, &mut 0, &mut out);
        assert_eq!(out.failed, 1);
        assert!(!out.correct());
        let _ = std::fs::remove_dir_all(&scratch);
    }
}
