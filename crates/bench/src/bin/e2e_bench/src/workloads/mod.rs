//! The four workloads and what they share: seeding, fixed work sizing,
//! repeated passes, the end-to-end metric set and the phase snapshot.
//!
//! Every workload has the same shape. Set-up runs [`SETUPS`] times, each
//! time with its own seeded inputs of one size and script, and `setup_s` is
//! the fastest. The timed phase then makes passes over the same ops, so
//! every op is repeated, and an op counts with its fastest repeat: on a
//! shared host each vCPU runs 1.6× slower for seconds at a time while a
//! neighbour is busy, and the fastest repeat of identical work is the
//! number that stays put between runs and hours.

pub mod converse;
pub mod fleet;
pub mod hybrid;
pub mod restore;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

use matilda_telemetry as telemetry;

use crate::report::{Outcome, PHASES};
use crate::stats;

/// Set-ups per untraced run unless a workload needs more; `setup_s` is
/// the fastest of them.
pub const SETUPS: usize = 3;

/// How one child run is parameterised.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Master seed; every generated input derives from it.
    pub seed: u64,
    /// Work scale: each workload converts it into a fixed operation count
    /// at its nominal rate, so a faster build does the same work sooner.
    pub seconds: f64,
    /// Traced run: one set-up whose passes mix untraced and traced ones
    /// ([`RunConfig::traces`]), then layer probes.
    pub traced: bool,
    /// Private scratch directory (the child's working directory); store,
    /// journal and socket files live here and are removed on exit.
    pub scratch: PathBuf,
    /// Where the trace JSON is written.
    pub results: PathBuf,
}

impl RunConfig {
    /// Operations of the whole timed phase at `per_second` nominal
    /// operations per second (at least one).
    pub fn work(&self, per_second: f64) -> usize {
        (self.seconds * per_second).ceil().max(1.0) as usize
    }

    /// Set-ups this run makes: `untraced` of them, or one in a traced run.
    pub fn setups(&self, untraced: usize) -> usize {
        if self.traced {
            1
        } else {
            untraced
        }
    }

    /// Whether timed pass `pass` records spans. A traced run's passes go
    /// untraced, traced, traced, untraced and again, so the untraced ones
    /// are the baseline of `trace_overhead_pct` over identical work, and a
    /// cost that grows from pass to pass falls on both alike.
    pub fn traces(&self, pass: usize) -> bool {
        self.traced && matches!(pass % 4, 1 | 2)
    }

    /// A seed for the input named `tag`, derived from the master seed.
    pub fn derive(&self, tag: &str) -> u64 {
        derive(self.seed, tag)
    }
}

/// SplitMix64 over `seed ^ fnv1a(tag)`: independent, reproducible streams
/// for every generated input.
pub fn derive(seed: u64, tag: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in tag.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut z = (seed ^ h).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A key naming op `index` of set-up `setup`, stable across passes.
pub fn op_key(setup: usize, index: usize) -> u64 {
    ((setup as u64) << 32) | index as u64
}

/// The workloads, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// In-process conversations over a CSV upload.
    ConverseInproc,
    /// A resident daemon driven over its Unix socket.
    DaemonFleet,
    /// `Matilda::design_hybrid` over four generated datasets.
    HybridDesign,
    /// Load and replay of durable session logs.
    RestoreReplay,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::ConverseInproc,
        Workload::DaemonFleet,
        Workload::HybridDesign,
        Workload::RestoreReplay,
    ];

    /// Stable name (the `--workload` argument).
    pub fn name(self) -> &'static str {
        match self {
            Workload::ConverseInproc => "converse_inproc",
            Workload::DaemonFleet => "daemon_fleet",
            Workload::HybridDesign => "hybrid_design",
            Workload::RestoreReplay => "restore_replay",
        }
    }

    /// Parse a `--workload` argument.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The op the end-to-end latencies are over.
    pub fn op(self) -> &'static str {
        match self {
            Workload::ConverseInproc => "study turn",
            Workload::DaemonFleet => "turn round trip",
            Workload::HybridDesign => "design_hybrid call",
            Workload::RestoreReplay => "load + restore",
        }
    }

    /// Environment pinned for this workload's child, relative to its
    /// scratch directory (the child's working directory). Every other
    /// `MATILDA_*` variable is removed.
    pub fn env(self) -> Vec<(&'static str, &'static str)> {
        match self {
            // Only the daemon runs with the flight-recorder journal, and its
            // per-connection frame limit sits far above the closed loop's
            // offered load (the default of 50 frames/s would strike it).
            Workload::DaemonFleet => vec![
                ("MATILDA_JOURNAL_DIR", "journal"),
                ("MATILDA_INCIDENT_DIR", "incidents"),
                ("MATILDA_DAEMON_FRAMES_PER_SEC", "1000000"),
            ],
            _ => vec![("MATILDA_INCIDENT_DIR", "incidents")],
        }
    }

    /// Run the workload in this process.
    pub fn run(self, cfg: &RunConfig) -> Outcome {
        match self {
            Workload::ConverseInproc => converse::run(cfg),
            Workload::DaemonFleet => fleet::run(cfg),
            Workload::HybridDesign => hybrid::run(cfg),
            Workload::RestoreReplay => restore::run(cfg),
        }
    }
}

/// Drop the spans the program retained in its process-wide collector, and
/// sample the host's clock ([`crate::host`]). Called between operations,
/// never inside a timed region: the collector is bounded per thread, and a
/// full one silently stops recording, which would change what every later
/// operation costs.
pub fn quiesce() {
    drop(telemetry::span::global().drain());
    crate::host::sample();
}

/// Remove the directories a run wrote, once its measurements are done:
/// on a volume mounted with `discard`, freeing extents can take tens of
/// milliseconds, which must not overlap a later set-up or timed phase.
pub fn remove_all(dirs: &[PathBuf]) {
    for dir in dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Spans the program's collector dropped so far (sampling or full shard).
pub fn spans_dropped() -> u64 {
    telemetry::span::global().dropped()
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The timed phase: each op's fastest repeat, and each pass's wall time.
#[derive(Debug, Clone, Default)]
pub struct Timing {
    /// Fastest latency of each op, ms, by op key.
    best: BTreeMap<u64, f64>,
    /// Ops and timed wall time of each pass.
    passes: Vec<(usize, Duration)>,
    /// Latencies recorded, repeats included.
    samples: usize,
    /// Their sum, ms.
    total_ms: f64,
}

impl Timing {
    /// Record one repeat of op `key`.
    pub fn record(&mut self, key: u64, ms: f64) {
        let best = self.best.entry(key).or_insert(f64::INFINITY);
        *best = best.min(ms);
        self.samples += 1;
        self.total_ms += ms;
    }

    /// Record one pass: `ops` ops completed in `wall` of timed time.
    pub fn pass(&mut self, ops: usize, wall: Duration) {
        self.passes.push((ops, wall));
    }

    /// Each op's fastest repeat, ms.
    pub fn bests(&self) -> Vec<f64> {
        self.best.values().copied().collect()
    }

    /// Distinct ops.
    pub fn ops(&self) -> usize {
        self.best.len()
    }

    /// Latencies recorded, repeats included.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Mean over ops of each op's fastest repeat, ms.
    pub fn mean(&self) -> f64 {
        stats::mean(&self.bests())
    }

    /// Mean of every recorded latency, repeats included, ms.
    pub fn mean_all(&self) -> f64 {
        self.total_ms / self.samples as f64
    }

    /// Ops per second of the fastest pass.
    pub fn best_rate(&self) -> f64 {
        self.passes
            .iter()
            .filter(|(_, wall)| !wall.is_zero())
            .map(|(ops, wall)| *ops as f64 / wall.as_secs_f64())
            .fold(f64::NAN, f64::max)
    }

    /// `(percentile, ms)` of the tail over ops: the highest of p95, p90,
    /// p80, p75 and p50 that leaves at least ten ops beyond it, or the
    /// slowest op when there are too few ops for any.
    pub fn tail(&self) -> (f64, f64) {
        let bests = self.bests();
        let slowest = bests.iter().copied().fold(f64::NAN, f64::max);
        stats::tail(&bests).unwrap_or((100.0, slowest))
    }
}

/// Record the end-to-end metric set: the fastest set-up (set-ups differ
/// only in their seeds, so they are repeats of one piece of work, and a
/// slow stretch of the host moves all of one run's set-ups, which a median
/// over them does not undo; see the README); the median and the tail
/// ([`Timing::tail`]) over ops of each op's fastest repeat; the ops per
/// second of the fastest pass; and the peak RSS of the whole run. With
/// several `parts` (independent groups of ops, each with its own repeats)
/// each timing is the median of the parts' own values, so a host
/// disturbance as long as one part moves nothing. Times and rates are
/// taken to the reference clock ([`crate::host::scale`]); each note gives
/// the factor and the value as read.
pub fn end_to_end(out: &mut Outcome, setups: &[Duration], parts: &[Timing]) {
    let scale = crate::host::scale();
    let clock =
        |raw: f64, unit: &str| format!("×{scale:.4} to the reference clock, read {raw:.6} {unit}");
    let raw = setups
        .iter()
        .map(Duration::as_secs_f64)
        .fold(f64::NAN, f64::min);
    out.metric(
        "setup_s",
        "s",
        raw * scale,
        setups.len(),
        &format!("fastest of {} set-ups; {}", setups.len(), clock(raw, "s")),
    );
    let each = |value: &dyn Fn(&Timing) -> f64| {
        stats::median(&parts.iter().map(value).collect::<Vec<f64>>())
    };
    let over = match parts.len() {
        1 => String::new(),
        n => format!(", median of {n} parts"),
    };
    let n: usize = parts.iter().map(Timing::ops).sum();
    let repeats = parts.iter().map(Timing::samples).sum::<usize>() as f64 / n.max(1) as f64;
    let raw = each(&|t| stats::median(&t.bests()));
    out.metric(
        "p50_ms",
        "ms",
        raw * scale,
        n,
        &format!(
            "median over ops of each op's fastest of {repeats:.1} repeats{over}; {}",
            clock(raw, "ms")
        ),
    );
    let p = parts.first().map_or(f64::NAN, |t| t.tail().0);
    let raw = each(&|t| t.tail().1);
    out.metric(
        "tail_ms",
        "ms",
        raw * scale,
        n,
        &format!(
            "p{p} over ops of each op's fastest repeat{over}; {}",
            clock(raw, "ms")
        ),
    );
    let raw = each(&Timing::best_rate);
    out.metric(
        "ops_per_s",
        "1/s",
        raw / scale,
        parts.iter().map(|t| t.passes.len()).sum(),
        &format!("fastest pass{over}; {}", clock(raw, "1/s")),
    );
    out.metric("peak_rss_mb", "MB", peak_rss_mb(), 1, "VmHWM");
}

/// The program's own profile phases (`telemetry::profile`) summed over the
/// traced passes: `(calls, self ns, allocations)` by phase.
#[derive(Debug, Default)]
pub struct Phases {
    sums: BTreeMap<String, (u64, u64, u64)>,
    ops: usize,
}

impl Phases {
    /// Clear the registry and turn its allocation columns on, so the
    /// snapshot [`Phases::end`] takes covers exactly one traced pass.
    pub fn begin(&self) {
        telemetry::profile::set_alloc_profiling(true);
        telemetry::profile::global().reset();
    }

    /// Add the registry's counts since [`Phases::begin`], over `ops` ops.
    pub fn end(&mut self, ops: usize) {
        telemetry::profile::set_alloc_profiling(false);
        for p in telemetry::profile::global().snapshot() {
            let sum = self.sums.entry(p.name).or_default();
            sum.0 += p.calls;
            sum.1 += p.self_ns;
            sum.2 += p.allocs;
        }
        self.ops += ops;
    }

    /// Record every listed phase, per op.
    pub fn report(&self, out: &mut Outcome) {
        let ops = self.ops;
        let per_op = |v: f64| v / ops.max(1) as f64;
        for name in PHASES {
            let (calls, self_ns, allocs) = self.sums.get(name).copied().unwrap_or_default();
            out.metric(
                &format!("phase.{name}.calls"),
                "count",
                per_op(calls as f64),
                ops,
                "per op",
            );
            out.metric(
                &format!("phase.{name}.self_ms"),
                "ms",
                per_op(self_ns as f64 / 1e6),
                ops,
                "per op",
            );
            out.metric(
                &format!("phase.{name}.allocs"),
                "count",
                per_op(allocs as f64),
                ops,
                "per op",
            );
        }
    }
}

/// `trace_overhead_pct`: the traced passes' mean latency against the
/// untraced passes', every repeat of identical work counted. Fastest
/// repeats would not do here: a daemon session's turns cost more as its
/// history grows, so the fastest repeat is always the earliest pass, an
/// untraced one; with passes untraced, traced, traced, untraced, a cost
/// that grows from pass to pass weighs on both means alike.
pub fn trace_overhead(out: &mut Outcome, untraced: &Timing, traced: &Timing) {
    let pct = (traced.mean_all() / untraced.mean_all() - 1.0) * 100.0;
    out.metric(
        "trace_overhead_pct",
        "%",
        pct,
        traced.samples(),
        "traced vs untraced passes, mean of every repeat",
    );
}

/// Markdown helpers for a workload's `layers.md` section.
pub mod md {
    /// A table header.
    pub fn header(out: &mut Vec<String>, title: &str, cols: &[&str]) {
        out.push(format!("### {title}"));
        out.push(String::new());
        out.push(format!("| {} |", cols.join(" | ")));
        out.push(format!("|{}", "---|".repeat(cols.len())));
    }

    /// A table row.
    pub fn row(out: &mut Vec<String>, cells: &[String]) {
        out.push(format!("| {} |", cells.join(" | ")));
    }

    /// A number with three decimals.
    pub fn f(v: f64) -> String {
        format!("{v:.3}")
    }

    /// `part` as a percentage of `whole`.
    pub fn pct(part: f64, whole: f64) -> String {
        format!("{:.1}%", part / whole * 100.0)
    }
}

/// Test support: the process environment as the parent pins it for a
/// child, and a lock that keeps tests running workload code apart (the
/// program reads its `MATILDA_*` variables and keeps process-wide
/// telemetry).
#[cfg(test)]
pub mod testenv {
    use std::path::Path;
    use std::sync::{Mutex, MutexGuard};

    static LOCK: Mutex<()> = Mutex::new(());

    fn ours(key: &str) -> bool {
        key.starts_with("MATILDA_") || key.starts_with("CHAOS_")
    }

    /// On drop, puts the environment back as it was (and releases the
    /// lock, if it holds it).
    pub struct Pinned {
        saved: Vec<(String, String)>,
        _lock: Option<MutexGuard<'static, ()>>,
    }

    /// The lock every test running workload code holds.
    pub fn lock() -> MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Take the lock and make the environment exactly `workload`'s child
    /// environment, its directories under `scratch`: every other
    /// `MATILDA_*` and `CHAOS_*` variable is removed.
    pub fn pin(workload: Option<super::Workload>, scratch: &Path) -> Pinned {
        let lock = lock();
        Pinned {
            saved: apply(workload, scratch),
            _lock: Some(lock),
        }
    }

    /// [`pin`] for a caller already holding [`lock`].
    pub fn pin_locked(workload: Option<super::Workload>, scratch: &Path) -> Pinned {
        Pinned {
            saved: apply(workload, scratch),
            _lock: None,
        }
    }

    /// Pin the environment; returns the variables it removed.
    fn apply(workload: Option<super::Workload>, scratch: &Path) -> Vec<(String, String)> {
        let saved: Vec<(String, String)> = std::env::vars().filter(|(k, _)| ours(k)).collect();
        for (key, _) in &saved {
            std::env::remove_var(key);
        }
        for (key, value) in workload.map(super::Workload::env).unwrap_or_default() {
            if key.ends_with("_DIR") {
                std::env::set_var(key, scratch.join(value));
            } else {
                std::env::set_var(key, value);
            }
        }
        saved
    }

    impl Drop for Pinned {
        fn drop(&mut self) {
            let set: Vec<String> = std::env::vars()
                .map(|(k, _)| k)
                .filter(|k| ours(k))
                .collect();
            for key in set {
                std::env::remove_var(key);
            }
            for (key, value) in &self.saved {
                std::env::set_var(key, value);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_are_stable_and_distinct() {
        assert_eq!(derive(7, "blobs"), derive(7, "blobs"));
        assert_ne!(derive(7, "blobs"), derive(8, "blobs"));
        assert_ne!(derive(7, "blobs"), derive(7, "moons"));
    }

    #[test]
    fn work_is_fixed_by_seconds_not_by_speed() {
        let cfg = RunConfig {
            seed: 1,
            seconds: 10.0,
            traced: false,
            scratch: PathBuf::new(),
            results: PathBuf::new(),
        };
        assert_eq!(cfg.work(6.0), 60);
        assert_eq!((cfg.setups(SETUPS), cfg.traces(1)), (SETUPS, false));
        let tiny = RunConfig {
            seconds: 0.001,
            traced: true,
            ..cfg
        };
        assert_eq!(tiny.work(6.0), 1);
        assert_eq!(tiny.setups(5), 1);
        let traced: Vec<bool> = (0..8).map(|p| tiny.traces(p)).collect();
        assert_eq!(traced, [false, true, true, false, false, true, true, false]);
    }

    #[test]
    fn each_op_counts_with_its_fastest_repeat() {
        let mut t = Timing::default();
        for (key, ms) in [(1, 5.0), (2, 9.0), (1, 3.0), (2, 12.0), (1, 4.0)] {
            t.record(key, ms);
        }
        t.pass(2, Duration::from_millis(20));
        t.pass(2, Duration::from_millis(10));
        assert_eq!(t.bests(), vec![3.0, 9.0]);
        assert_eq!((t.ops(), t.samples()), (2, 5));
        assert_eq!(t.mean(), 6.0);
        assert_eq!(t.mean_all(), 33.0 / 5.0);
        assert!((t.best_rate() - 200.0).abs() < 1e-9);
    }

    /// Every workload, untraced then traced, at the smallest size that
    /// still supports a tail percentile, each in the environment the
    /// parent pins for its child. Sequential on purpose: workloads share
    /// the program's process-wide telemetry.
    #[test]
    fn every_workload_passes_its_checks_at_smoke_size() {
        let root = std::env::temp_dir().join(format!("e2e-bench-smoke-{}", std::process::id()));
        let end_to_end: Vec<(String, &'static str)> = crate::report::END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect();
        for traced in [false, true] {
            for w in Workload::ALL {
                let scratch = root.join(format!("{}-{traced}", w.name()));
                std::fs::create_dir_all(&scratch).unwrap();
                let _env = testenv::pin(Some(w), &scratch);
                let cfg = RunConfig {
                    seed: 11,
                    seconds: 1.5,
                    traced,
                    scratch,
                    results: root.join("results"),
                };
                let mut out = w.run(&cfg);
                let expected = if traced {
                    crate::report::per_layer()
                } else {
                    end_to_end.clone()
                };
                out.conform(&expected);
                let failed: Vec<_> = out.checks.iter().filter(|c| !c.passed).collect();
                assert!(out.correct(), "{} traced={traced}: {failed:?}", w.name());
                assert!(out.attempted > 0);
                if !traced {
                    for m in &out.metrics {
                        assert!(m.value > 0.0 && m.samples > 0, "{}: {m:?}", w.name());
                    }
                } else {
                    assert!(out.markdown.iter().any(|l| l.starts_with("## ")));
                    let trace = cfg.results.join(format!("trace_{}.json", w.name()));
                    assert!(trace.is_file(), "{}", trace.display());
                }
                if traced && w == Workload::DaemonFleet {
                    daemon_layers_account_for_the_round_trip(&out);
                }
            }
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    /// The daemon's measured layers must explain its client round trip:
    /// each is measured on its own (a ping, both clients' send and reply
    /// times, probes on replica fleets), so nothing forces their sum, and
    /// a layer that went unmeasured or was counted twice shows as a
    /// residual beyond the tolerance. The tolerance is wide because the
    /// probes run at another moment than the turns, on a shared host.
    fn daemon_layers_account_for_the_round_trip(out: &Outcome) {
        let value = |name: &str| out.get(name).map(|m| m.value).unwrap();
        let rtt = value("daemon.round_trip_us");
        let layers: f64 = [
            "self.wire_conn_us",
            "self.queue_wait_us",
            "self.scheduler_us",
            "self.manager_us",
            "self.session_us",
        ]
        .iter()
        .map(|name| value(name))
        .sum();
        assert!(rtt > 0.0 && value("self.queue_wait_us") > 0.0);
        assert!(
            (rtt - layers).abs() < 0.5 * rtt,
            "layers {layers:.1} µs vs round trip {rtt:.1} µs"
        );
    }

    #[test]
    fn pinned_environment_is_the_childs_and_is_put_back() {
        let scratch = std::env::temp_dir();
        let _lock = testenv::lock();
        std::env::set_var("MATILDA_BENCH_PROBE", "outer");
        {
            let _env = testenv::pin_locked(Some(Workload::DaemonFleet), &scratch);
            assert!(std::env::var("MATILDA_BENCH_PROBE").is_err());
            assert_eq!(
                std::env::var("MATILDA_DAEMON_FRAMES_PER_SEC").as_deref(),
                Ok("1000000")
            );
            assert_eq!(
                std::env::var("MATILDA_JOURNAL_DIR").map(PathBuf::from),
                Ok(scratch.join("journal"))
            );
        }
        assert_eq!(std::env::var("MATILDA_BENCH_PROBE").as_deref(), Ok("outer"));
        assert!(std::env::var("MATILDA_JOURNAL_DIR").is_err());
        assert!(std::env::var("MATILDA_DAEMON_FRAMES_PER_SEC").is_err());
        std::env::remove_var("MATILDA_BENCH_PROBE");
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
