//! `daemon_fleet`: a resident in-process `Daemon` with the flight-recorder
//! journal on, driven closed-loop by two client connections over its Unix
//! socket.
//!
//! Set-up starts the daemon and leaves [`CLOSED`] complete conversations
//! resident and closed, then opens [`ACTIVE`] sessions with a goal. The
//! timed phase runs rounds: in each round each client round-robins over its
//! half of the active sessions once per utterance of [`CYCLE`], the two
//! starting each utterance together. A turn is named by its session and its
//! place in the cycle, so each round repeats every turn once.
//!
//! Why: the 60-row catalog frame makes compute tiny, so wire, connection
//! threads, queue, tick scheduler, manager and journal dominate — the
//! workload that moves when the serving path moves and stays put when only
//! data or ml kernels do. The 1,280-session fleet makes the per-tick costs
//! that grow with the fleet (the rotation scan, every session's breaker
//! states, the per-reply digest) a large part of every turn.
//!
//! The session store is off here. It syncs every session's log once per
//! turn, and on a volume mounted with `discard` each synced file then
//! costs about 80 ms to delete: a run's three fleets leave 3,840 logs,
//! minutes of clean-up, longer than a run may take. The store's cost per
//! turn comes from the traced run's paired probe
//! (`core.session.step_store_ms`, `self.sessionstore_us`), and
//! `restore_replay` writes and reads the store end to end.

use std::collections::BTreeMap;
use std::io::Cursor;
use std::path::{Path, PathBuf};
use std::sync::mpsc::channel;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use matilda_conversation::{Expertise, UserProfile};
use matilda_core::config::PlatformConfig;
use matilda_core::session::DesignSession;
use matilda_core::sessionstore::{SessionStore, StoreConfig};
use matilda_daemon::prelude::*;
use matilda_daemon::scheduler::names;
use matilda_provenance::json::{parse_flat_object, FlatValue};
use matilda_telemetry as telemetry;

use super::{converse, md, op_key, Phases, RunConfig, Timing, SETUPS};
use crate::report::Outcome;
use crate::trace::Tracer;

/// Complete conversations left resident and closed by set-up.
pub const CLOSED: usize = 1_024;
/// Sessions the timed phase talks to (half per client).
pub const ACTIVE: usize = 256;
/// Client connections (and load threads).
pub const CLIENTS: usize = 2;
/// What every active session hears once per round. The round opens by
/// declining the creative idea the previous round's "surprise me" left
/// pending: adopted ideas would grow each session's design and, once the
/// agent earns the rung, swap its model, so turn costs would drift apart
/// between sessions and seeds.
pub const CYCLE: [&str; 8] = [
    "no",
    "no",
    "yes",
    "yes",
    "no",
    "run it",
    "what matters most?",
    "surprise me",
];
const GOAL: &str = "I want to predict 'label'";
const QUESTION: &str = "what separates the two halves?";
/// Nominal turns per second on the reference machine.
const TURNS_PER_S: f64 = 1_400.0;
/// Rounds of a traced run: untraced, traced, traced, untraced; the layer
/// probes replay every round on replica fleets.
const TRACED_ROUNDS: usize = 4;
/// Every n-th active session is checked against an in-process reference.
const REFERENCE_EVERY: usize = 32;
/// Every n-th active session also steps with a store in the traced run's
/// session probe.
const STORE_PROBE_EVERY: usize = 8;
/// Pings per client after a traced run's rounds: the wire and
/// connection-thread cost with no scheduler work behind it.
const PINGS: usize = 1_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Variant {
    Normal,
    JournalOff,
    SpansNever,
}

fn user() -> UserProfile {
    UserProfile::new("user", Expertise::Novice, "general", 0.3)
}

fn open_request(id: &str) -> Request {
    Request::Open {
        session: id.to_string(),
        question: QUESTION.to_string(),
        user_name: "user".to_string(),
        expertise: "novice".to_string(),
        domain: "general".to_string(),
        openness: 0.3,
        dataset: None,
    }
}

/// Set-up `rep`'s daemon config: each set-up seeds its fleet afresh, so a
/// run averages over three fleets' worth of creative detours.
fn platform(cfg: &RunConfig, rep: usize) -> PlatformConfig {
    PlatformConfig {
        seed: cfg.derive(&format!("fleet.daemon.{rep}")),
        ..PlatformConfig::quick()
    }
}

fn closed_id(i: usize) -> String {
    format!("c{i:04}")
}

fn active_id(i: usize) -> String {
    format!("a{i:04}")
}

/// A turn's key: its set-up, session and place in the cycle.
fn turn_key(rep: usize, session: usize, utterance: usize) -> u64 {
    op_key(rep, session * CYCLE.len() + utterance)
}

/// A reply's flat fields, or an error naming the reply.
fn fields(reply: &str) -> Result<Vec<(String, FlatValue)>, String> {
    parse_flat_object(reply).ok_or_else(|| format!("unparseable reply: {reply}"))
}

fn field<'a>(fields: &'a [(String, FlatValue)], key: &str) -> Option<&'a FlatValue> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn ok(reply: &str) -> Result<(), String> {
    match field(&fields(reply)?, "ok") {
        Some(FlatValue::Bool(true)) => Ok(()),
        _ => Err(format!("refused: {reply}")),
    }
}

/// A running fleet.
struct Fleet {
    daemon: Daemon,
    socket: PathBuf,
}

/// Start a daemon and warm its fleet over the socket.
fn setup(cfg: &RunConfig, rep: usize) -> Result<Fleet, String> {
    let socket = cfg.scratch.join(format!("fleet-{rep}.sock"));
    let daemon = Daemon::start(DaemonConfig {
        socket: socket.clone(),
        http: None,
        dataset: DEFAULT_DATASET.to_string(),
        platform: platform(cfg, rep),
        store_dir: None,
        tcp: None,
        token: None,
    })
    .map_err(|e| format!("daemon start: {e}"))?;
    std::thread::scope(|scope| {
        let warmers: Vec<_> = (0..CLIENTS)
            .map(|k| {
                let socket = &socket;
                scope.spawn(move || -> Result<(), String> {
                    let mut client =
                        DaemonClient::connect(socket).map_err(|e| format!("connect: {e}"))?;
                    let mut ask = |request: Request| -> Result<(), String> {
                        let reply = client.request(&request).map_err(|e| e.to_string())?;
                        ok(&reply)
                    };
                    for (n, id) in (k..CLOSED).step_by(CLIENTS).map(closed_id).enumerate() {
                        ask(open_request(&id))?;
                        for text in converse::SCRIPT {
                            ask(Request::Turn {
                                session: id.clone(),
                                text: text.to_string(),
                            })?;
                        }
                        // The warm-up alone would fill the scheduler thread's
                        // span shard; draining keeps every set-up alike.
                        if k == 0 && n % 64 == 63 {
                            super::quiesce();
                        }
                        crate::host::sample();
                    }
                    for id in (k..ACTIVE).step_by(CLIENTS).map(active_id) {
                        ask(open_request(&id))?;
                        ask(Request::Turn {
                            session: id,
                            text: GOAL.to_string(),
                        })?;
                    }
                    Ok(())
                })
            })
            .collect();
        warmers
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("warm-up thread panicked".into()))
            })
            .collect::<Result<Vec<()>, String>>()
    })?;
    super::quiesce();
    Ok(Fleet { daemon, socket })
}

/// One client's view of a timed phase.
#[derive(Default)]
struct Client {
    /// Round trip per turn, ms, by turn key, with the round it ran in.
    rtt_ms: Vec<(usize, u64, f64)>,
    /// Timed wall time of each round.
    round_walls: Vec<Duration>,
    failures: Vec<String>,
    /// Captured `(request, reply)` payloads (traced rounds).
    payloads: Vec<(String, String)>,
    /// When each turn of a traced round was sent, and its round trip.
    sent: Vec<(Instant, Duration)>,
    tracer: Option<Tracer>,
}

/// One client thread: `rounds` rounds over its sessions of set-up `rep`,
/// then `pings` pings. Rounds for which `traced` holds record spans.
fn client(
    socket: &Path,
    (rep, k): (usize, usize),
    rounds: usize,
    pings: usize,
    barrier: &Barrier,
    traced: &(dyn Fn(usize) -> bool + Sync),
) -> Client {
    let mut me = Client {
        tracer: (0..rounds).any(traced).then(|| Tracer::new(true)),
        ..Client::default()
    };
    let mut conn = DaemonClient::connect(socket)
        .map_err(|e| me.failures.push(format!("connect: {e}")))
        .ok();
    let sessions: Vec<usize> = (k..ACTIVE).step_by(CLIENTS).collect();
    // The goal was turn 1 of every session.
    let mut expect: BTreeMap<usize, u64> = sessions.iter().map(|&i| (i, 2)).collect();
    for round in 0..rounds {
        let traced = traced(round);
        // Round boundary: no turn is in flight anywhere, so the leader can
        // drop the program's retained spans without touching a timed turn.
        barrier.wait();
        if k == 0 {
            super::quiesce();
        }
        barrier.wait();
        let started = Instant::now();
        for (u, text) in CYCLE.iter().enumerate() {
            // Both connections start each utterance together, so a turn
            // meets the same turn of the other connection every round and
            // its repeats differ only by the host, not by which turns
            // happened to overlap.
            barrier.wait();
            for &i in &sessions {
                let Some(conn) = conn.as_mut() else {
                    break;
                };
                let request = Request::Turn {
                    session: active_id(i),
                    text: text.to_string(),
                };
                let t0 = Instant::now();
                let reply = conn.request(&request);
                let rtt = t0.elapsed();
                let checked = reply.map_err(|e| e.to_string()).and_then(|reply| {
                    check_turn(&reply, expect.get_mut(&i)).map(|latency| (reply, latency))
                });
                let (reply, latency_ms) = match checked {
                    Ok(ok) => ok,
                    Err(e) => {
                        me.failures.push(format!("{}: {e}", active_id(i)));
                        continue;
                    }
                };
                let key = turn_key(rep, i, u);
                if let Some(tracer) = me.tracer.as_mut().filter(|_| traced) {
                    tracer.record("daemon.turn", key, t0, rtt);
                    let latency = Duration::from_secs_f64(latency_ms / 1e3);
                    tracer.record("daemon.reply.latency", key, t0, latency);
                    me.payloads.push((request.to_json(), reply));
                    me.sent.push((t0, rtt));
                }
                me.rtt_ms.push((round, key, rtt.as_secs_f64() * 1e3));
            }
        }
        barrier.wait();
        me.round_walls.push(started.elapsed());
    }
    barrier.wait();
    for i in 0..pings {
        let Some(conn) = conn.as_mut() else {
            break;
        };
        let t0 = Instant::now();
        let reply = conn.ping();
        let rtt = t0.elapsed();
        match reply.map_err(|e| e.to_string()).and_then(|r| ok(&r)) {
            Ok(()) => {
                if let Some(tracer) = me.tracer.as_mut() {
                    tracer.record("daemon.ping", i as u64, t0, rtt);
                }
            }
            Err(e) => me.failures.push(format!("ping: {e}")),
        }
    }
    me
}

/// Drive `rounds` rounds of set-up `rep` from [`CLIENTS`] concurrent
/// connections.
fn drive(
    fleet: &Fleet,
    rep: usize,
    rounds: usize,
    pings: usize,
    traced: &(dyn Fn(usize) -> bool + Sync),
) -> Vec<Client> {
    let barrier = Barrier::new(CLIENTS);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|k| {
                let (barrier, socket) = (&barrier, &fleet.socket);
                scope.spawn(move || client(socket, (rep, k), rounds, pings, barrier, traced))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| Client {
                    failures: vec!["client thread panicked".into()],
                    ..Client::default()
                })
            })
            .collect()
    })
}

/// Check one turn reply: ok, the session's next turn number, no brownout
/// notice. Returns the daemon-side latency in ms.
fn check_turn(reply: &str, expect: Option<&mut u64>) -> Result<f64, String> {
    let f = fields(reply)?;
    if !matches!(field(&f, "ok"), Some(FlatValue::Bool(true))) {
        return Err(format!("refused: {reply}"));
    }
    if field(&f, "notice").is_some() {
        return Err(format!("brownout notice: {reply}"));
    }
    let turn: u64 = match field(&f, "turn") {
        Some(FlatValue::Num(n)) => n.parse().map_err(|_| format!("bad turn: {reply}"))?,
        _ => return Err(format!("no turn number: {reply}")),
    };
    let expect = expect.ok_or("reply for a session this client does not own")?;
    if turn != *expect {
        return Err(format!("turn {turn}, expected {expect}"));
    }
    *expect += 1;
    match field(&f, "latency_s") {
        Some(FlatValue::Num(n)) => n
            .parse::<f64>()
            .map(|s| s * 1e3)
            .map_err(|_| format!("bad latency: {reply}")),
        _ => Err(format!("no latency: {reply}")),
    }
}

/// After timing: every [`REFERENCE_EVERY`]-th active session's digest must
/// equal a reference replayed in-process under `SessionManager::config_for`.
fn check_references(
    cfg: &RunConfig,
    rep: usize,
    fleet: &Fleet,
    rounds: usize,
    out: &mut Outcome,
) -> u64 {
    let mut failed = 0;
    let mut client = match DaemonClient::connect(&fleet.socket) {
        Ok(c) => c,
        Err(e) => {
            out.check("reference digests", false, format!("connect: {e}"));
            return 1;
        }
    };
    let mut reference = SessionManager::new(platform(cfg, rep), None, DEFAULT_DATASET);
    for id in (0..ACTIVE).step_by(REFERENCE_EVERY).map(active_id) {
        let served = client
            .inspect(&id)
            .ok()
            .and_then(|r| reply_field(&r, "digest"))
            .and_then(|d| d.parse::<u64>().ok());
        let replayed = (|| {
            reference.open(&id, QUESTION, user(), None).ok()?;
            reference.turn(&id, GOAL).ok()?;
            for _ in 0..rounds {
                for text in CYCLE {
                    reference.turn(&id, text).ok()?;
                }
            }
            reference.inspect(&id).map(|r| r.digest)
        })();
        if served.is_none() || served != replayed {
            failed += 1;
            out.check(
                "served digest equals the in-process reference",
                false,
                format!("{id}: served {served:?}, reference {replayed:?}"),
            );
        }
    }
    failed
}

/// Run the workload. Each set-up's fleet is timed on its own and its
/// turns are a part of the end-to-end timings ([`super::end_to_end`]): a
/// fleet's rounds follow each other within seconds, so a host disturbance
/// can cover all of one fleet's repeats.
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let per_round = ACTIVE * CYCLE.len();
    let rounds = if cfg.traced {
        TRACED_ROUNDS
    } else {
        (cfg.work(TURNS_PER_S) / (per_round * cfg.setups(SETUPS))).max(1)
    };
    let mut setups = Vec::new();
    let mut parts = Vec::new();
    let mut traced_timing = Timing::default();
    let mut layered = None;
    for rep in 0..cfg.setups(SETUPS) {
        let mut timing = Timing::default();
        let start = Instant::now();
        let fleet = match setup(cfg, rep) {
            Ok(fleet) => fleet,
            Err(e) => {
                out.failed += 1;
                out.check("fleet set-up", false, e);
                break;
            }
        };
        setups.push(start.elapsed());
        let metrics = telemetry::metrics::process_global();
        let before = metrics.snapshot();
        let dropped = super::spans_dropped();
        let mut phases = Phases::default();
        if cfg.traced {
            phases.begin();
        }
        let pings = if cfg.traced { PINGS } else { 0 };
        let clients = drive(&fleet, rep, rounds, pings, &|round| cfg.traces(round));
        let after = metrics.snapshot();
        out.check(
            "span collector never full during timing",
            super::spans_dropped() == dropped,
            format!("{} spans dropped", super::spans_dropped() - dropped),
        );
        for client in &clients {
            out.attempted += (client.rtt_ms.len() + client.failures.len()) as u64;
            out.failed += client.failures.len() as u64;
            for failure in client.failures.iter().take(3) {
                out.check(
                    "every turn ok, in order, without notice",
                    false,
                    failure.clone(),
                );
            }
            for &(round, key, ms) in &client.rtt_ms {
                if cfg.traces(round) {
                    traced_timing.record(key, ms);
                } else {
                    timing.record(key, ms);
                }
            }
        }
        // A round ends when its slower client does.
        for round in 0..rounds {
            let wall = clients
                .iter()
                .filter_map(|c| c.round_walls.get(round))
                .max()
                .copied()
                .unwrap_or_default();
            let turns = clients
                .iter()
                .map(|c| c.rtt_ms.iter().filter(|r| r.0 == round).count())
                .sum();
            if cfg.traces(round) {
                traced_timing.pass(turns, wall);
            } else {
                timing.pass(turns, wall);
            }
        }
        out.failed += check_references(cfg, rep, &fleet, rounds, &mut out);
        let level = after.gauge(telemetry::metrics::names::DAEMON_LOAD_LEVEL);
        out.check(
            "load level stays nominal",
            level == Some(0.0),
            format!("load level gauge {level:?}"),
        );
        if cfg.traced {
            phases.end(traced_timing.samples() + timing.samples());
            phases.report(&mut out);
            let ticks = after.counter(names::TICKS) - before.counter(names::TICKS);
            let turns =
                after.counter(names::TURNS_ADMITTED) - before.counter(names::TURNS_ADMITTED);
            layered = Some((clients, ticks as f64 / turns.max(1) as f64));
        }
        fleet.daemon.shutdown();
        super::quiesce();
        let _ = std::fs::remove_file(&fleet.socket);
        parts.push(timing);
    }
    match layered {
        Some((clients, ticks_per_turn)) => layers(
            cfg,
            &mut out,
            clients,
            rounds,
            ticks_per_turn,
            (&parts[0], &traced_timing),
        ),
        None if cfg.traced => {}
        None => super::end_to_end(&mut out, &setups, &parts),
    }
    out
}

/// One step of the fleet's scripted life.
enum Act<'a> {
    Open(&'a str),
    Turn(&'a str, &'a str),
}

/// Build the set-up fleet through `act`; `closed` adds the closed
/// conversations (only the per-tick scans need them).
fn warm(closed: bool, act: &mut dyn FnMut(Act) -> Result<(), String>) -> Result<(), String> {
    for id in (0..if closed { CLOSED } else { 0 }).map(closed_id) {
        act(Act::Open(&id))?;
        for text in converse::SCRIPT {
            act(Act::Turn(&id, text))?;
        }
        super::quiesce();
    }
    for id in (0..ACTIVE).map(active_id) {
        act(Act::Open(&id))?;
        act(Act::Turn(&id, GOAL))?;
    }
    Ok(())
}

/// Walk `rounds` rounds of the timed turn sequence, in the clients'
/// order, handing each turn to `each` with its round and key.
fn replay_with(
    rounds: usize,
    each: &mut dyn FnMut(usize, u64, Act) -> Result<(), String>,
) -> Result<(), String> {
    for round in 0..rounds {
        for (u, text) in CYCLE.iter().enumerate() {
            for i in 0..ACTIVE {
                each(round, turn_key(0, i, u), Act::Turn(&active_id(i), text))?;
                super::quiesce();
            }
        }
    }
    Ok(())
}

/// Replay `rounds` rounds of the timed turn sequence through `act`,
/// recording each turn of a traced round as span `name`.
fn replay(
    cfg: &RunConfig,
    tracer: &mut Tracer,
    name: &'static str,
    rounds: usize,
    act: &mut dyn FnMut(Act) -> Result<(), String>,
) -> Result<(), String> {
    replay_with(rounds, &mut |round, key, turn| {
        let start = Instant::now();
        act(turn)?;
        if cfg.traces(round) {
            tracer.record(name, key, start, start.elapsed());
        }
        Ok(())
    })
}

/// Switch the process-wide telemetry into `variant`. `parked` holds the
/// journal taken out for journal-off turns.
fn apply(variant: Variant, parked: &mut Option<Arc<telemetry::journal::Journal>>) {
    use telemetry::span::SpanSampling;
    if variant != Variant::JournalOff {
        if let Some(journal) = parked.take() {
            telemetry::journal::install(journal);
        }
    }
    if variant == Variant::JournalOff && parked.is_none() {
        *parked = telemetry::journal::uninstall();
    }
    let sampling = match variant {
        Variant::SpansNever => SpanSampling::Never,
        _ => SpanSampling::Always,
    };
    telemetry::span::global().set_sampling(sampling);
}

/// A tick scheduler over a store-less manager, ticked by this thread until
/// each command's reply arrives: no socket, no connection threads, no other
/// client to wait for.
struct Ticked {
    queue: Arc<CommandQueue>,
    sched: TickScheduler,
}

impl Ticked {
    fn new(cfg: &RunConfig) -> Self {
        let queue = Arc::new(CommandQueue::new());
        let manager = SessionManager::new(platform(cfg, 0), None, DEFAULT_DATASET);
        let sched = TickScheduler::new(manager, Arc::clone(&queue));
        Self { queue, sched }
    }

    fn act(&mut self, act: &Act) -> Result<(), String> {
        let (tx, rx) = channel();
        let command = match act {
            Act::Open(id) => Command::Open {
                session: id.to_string(),
                question: QUESTION.to_string(),
                user: user(),
                dataset: None,
                reply: tx,
            },
            Act::Turn(id, text) => Command::turn(*id, *text, tx),
        };
        if self.queue.push(command).is_err() {
            return Err("probe scheduler refused a command".to_string());
        }
        for _ in 0..1_000 {
            self.sched.tick();
            if let Ok(reply) = rx.try_recv() {
                return ok(&reply);
            }
        }
        Err("probe scheduler never replied".to_string())
    }
}

/// Frame codec and request parsing on the captured payloads, in memory.
fn probe_codec(tracer: &mut Tracer, payloads: &[(String, String)]) -> Result<(), String> {
    for (i, (request, reply)) in payloads.iter().enumerate() {
        let start = Instant::now();
        let mut buf = Vec::with_capacity(request.len() + 4);
        write_frame(&mut buf, request).map_err(|e| e.to_string())?;
        let decoded = read_frame(&mut Cursor::new(&buf)).map_err(|e| e.to_string())?;
        Request::parse(&decoded.unwrap_or_default()).map_err(|e| e.to_string())?;
        let mut buf = Vec::with_capacity(reply.len() + 4);
        write_frame(&mut buf, reply).map_err(|e| e.to_string())?;
        std::hint::black_box(read_frame(&mut Cursor::new(&buf)).map_err(|e| e.to_string())?);
        tracer.record("daemon.wire.codec", i as u64, start, start.elapsed());
    }
    Ok(())
}

/// The tick scheduler on the whole fleet, replaying the timed turns.
fn probe_scheduler(cfg: &RunConfig, tracer: &mut Tracer, rounds: usize) -> Result<(), String> {
    let mut fleet = Ticked::new(cfg);
    warm(true, &mut |act| fleet.act(&act))?;
    replay(cfg, tracer, "daemon.scheduler.turn", rounds, &mut |act| {
        fleet.act(&act)
    })
}

/// What the journal and span recording cost a turn. Three identical
/// fleets of the active sessions replay the same turns side by side —
/// normal, journal off, span sampling `Never` — so each cost is a paired
/// difference over identical work. The order within each triple rotates,
/// so no variant always runs on warm caches.
fn probe_telemetry(cfg: &RunConfig, tracer: &mut Tracer, rounds: usize) -> Result<(), String> {
    let variants = [
        (Variant::Normal, "variant.normal"),
        (Variant::JournalOff, "variant.journal_off"),
        (Variant::SpansNever, "variant.spans_never"),
    ];
    let mut fleets: Vec<Ticked> = variants.iter().map(|_| Ticked::new(cfg)).collect();
    warm(false, &mut |act| {
        fleets.iter_mut().try_for_each(|f| f.act(&act))
    })?;
    let mut parked = None;
    let mut turn = 0usize;
    let result = replay_with(rounds, &mut |round, key, act| {
        for k in 0..variants.len() {
            let i = (turn + k) % variants.len();
            let (variant, name) = variants[i];
            apply(variant, &mut parked);
            let start = Instant::now();
            fleets[i].act(&act)?;
            if cfg.traces(round) {
                tracer.record(name, key, start, start.elapsed());
            }
        }
        apply(Variant::Normal, &mut parked);
        turn += 1;
        Ok(())
    });
    apply(Variant::Normal, &mut parked);
    result
}

/// `SessionManager::turn` plus the `inspect` digest every reply carries.
fn probe_manager(cfg: &RunConfig, tracer: &mut Tracer, rounds: usize) -> Result<(), String> {
    let mut manager = SessionManager::new(platform(cfg, 0), None, DEFAULT_DATASET);
    let mut act = |act: Act| -> Result<(), String> {
        match act {
            Act::Open(id) => manager
                .open(id, QUESTION, user(), None)
                .map(|_| ())
                .map_err(|e| format!("{e:?}")),
            Act::Turn(id, text) => {
                manager.turn(id, text).map_err(|e| format!("{e:?}"))?;
                manager
                    .inspect(id)
                    .map(|_| ())
                    .ok_or_else(|| format!("{id} vanished"))
            }
        }
    };
    warm(false, &mut act)?;
    replay(cfg, tracer, "daemon.manager.turn", rounds, &mut act)
}

/// `DesignSession::step` on the active sessions; every
/// [`STORE_PROBE_EVERY`]-th also steps a twin attached to a store.
fn probe_sessions(cfg: &RunConfig, tracer: &mut Tracer, rounds: usize) -> Result<(), String> {
    let configs = SessionManager::new(platform(cfg, 0), None, DEFAULT_DATASET);
    let frame = catalog::resolve(DEFAULT_DATASET).ok_or("demo dataset missing")?;
    let dir = cfg.scratch.join("probe-store");
    let store = SessionStore::open(StoreConfig::new(&dir)).map_err(|e| e.to_string())?;
    let result = (|| {
        let mut sessions = BTreeMap::new();
        for (i, id) in (0..ACTIVE).map(active_id).enumerate() {
            let open = || {
                let mut s = DesignSession::new(
                    id.clone(),
                    QUESTION,
                    frame.clone(),
                    user(),
                    configs.config_for(&id),
                );
                s.set_dataset_label(DEFAULT_DATASET);
                s
            };
            let mut plain = open();
            plain.step(GOAL).map_err(|e| e.to_string())?;
            let stored = if i % STORE_PROBE_EVERY == 0 {
                let mut s = open();
                s.attach_store(&store).map_err(|e| e.to_string())?;
                s.step(GOAL).map_err(|e| e.to_string())?;
                Some(s)
            } else {
                None
            };
            sessions.insert(id, (plain, stored));
        }
        replay_with(rounds, &mut |round, key, act| {
            let Act::Turn(id, text) = act else {
                return Ok(());
            };
            let (plain, stored) = sessions.get_mut(id).ok_or("unknown probe session")?;
            let step = |s: &mut DesignSession| {
                let start = Instant::now();
                s.step(text).map_err(|e| e.to_string())?;
                Ok::<_, String>((start, start.elapsed()))
            };
            let (start, took) = step(plain)?;
            let (stored_start, stored_took) = match stored {
                Some(stored) => {
                    let (start, took) = step(stored)?;
                    (Some(start), took)
                }
                None => (None, Duration::ZERO),
            };
            if cfg.traces(round) {
                tracer.record("core.session.step", key, start, took);
                if let Some(stored_start) = stored_start {
                    // The store's cost pairs each stored step with its
                    // plain twin's step of the same turn.
                    tracer.record("core.session.step_twin", key, start, took);
                    tracer.record("core.session.step_store", key, stored_start, stored_took);
                }
            }
            Ok(())
        })
    })();
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// Per turn of `mine` (sorted by send time), how long after it was sent
/// the other connection's turn then in flight still took to answer, in
/// µs: on the daemon's single scheduler thread, the time this turn waited
/// behind the other connection's.
fn waits_behind(mine: &[(Instant, Duration)], other: &[(Instant, Duration)]) -> Vec<f64> {
    let mut j = 0;
    mine.iter()
        .map(|&(sent, rtt)| {
            while j < other.len() && other[j].0 + other[j].1 <= sent {
                j += 1;
            }
            match other.get(j) {
                Some(&(o_sent, o_rtt)) if o_sent <= sent => {
                    let end = (o_sent + o_rtt).min(sent + rtt);
                    end.saturating_duration_since(sent).as_secs_f64() * 1e6
                }
                _ => 0.0,
            }
        })
        .collect()
}

/// The daemon's round trip as measured layers, in µs: the wire and
/// connection thread (a ping under the same two connections), the wait
/// behind the other connection's turn (from both clients' send and reply
/// times), and the scheduler's own work on the turn split by telescoping
/// probes (scheduler turn − manager turn − session step). Whatever the
/// layers leave of the round trip is the residual.
fn self_times(
    ping: f64,
    wait: f64,
    sched: f64,
    manager: f64,
    step: f64,
) -> [(&'static str, f64); 5] {
    [
        ("self.wire_conn_us", ping),
        ("self.queue_wait_us", wait),
        ("self.scheduler_us", sched - manager),
        ("self.manager_us", manager - step),
        ("self.session_us", step),
    ]
}

/// The traced run's per-layer metrics and `layers.md` section.
fn layers(
    cfg: &RunConfig,
    out: &mut Outcome,
    clients: Vec<Client>,
    rounds: usize,
    ticks_per_turn: f64,
    (base, traced): (&Timing, &Timing),
) {
    let mut tracer = Tracer::new(true);
    let mut payloads = Vec::new();
    let mut waits = Vec::new();
    for (k, client) in clients.iter().enumerate() {
        for other in clients.iter().skip(k + 1).chain(clients.iter().take(k)) {
            waits.extend(waits_behind(&client.sent, &other.sent));
        }
    }
    for client in clients {
        payloads.extend(client.payloads);
        if let Some(t) = client.tracer {
            tracer.absorb(t);
        }
    }
    let probed = probe_codec(&mut tracer, &payloads)
        .and_then(|()| probe_scheduler(cfg, &mut tracer, rounds))
        .and_then(|()| probe_telemetry(cfg, &mut tracer, rounds))
        .and_then(|()| probe_manager(cfg, &mut tracer, rounds))
        .and_then(|()| probe_sessions(cfg, &mut tracer, rounds));
    if let Err(e) = probed {
        out.failed += 1;
        out.check("layer probes run", false, e);
    }
    let us = |name: &str| tracer.mean_ms(name) * 1e3;
    let count = |name: &str| tracer.count(name) as usize;
    let rtt = us("daemon.turn");
    let ping = us("daemon.ping");
    let wait = crate::stats::mean(&waits);
    let latency = us("daemon.reply.latency");
    let sched = us("daemon.scheduler.turn");
    let manager = us("daemon.manager.turn");
    let step = us("core.session.step");
    let step_store = us("core.session.step_store");
    let codec = us("daemon.wire.codec");
    let journal = us("variant.normal") - us("variant.journal_off");
    let spans = us("variant.normal") - us("variant.spans_never");
    let store = step_store - us("core.session.step_twin");
    let parts = self_times(ping, wait, sched, manager, step);
    let residual = rtt - parts.iter().map(|(_, v)| v).sum::<f64>();
    let n = count("daemon.turn");
    let bytes = |pick: fn(&(String, String)) -> usize| {
        payloads.iter().map(|p| pick(p) + 4).sum::<usize>() as f64 / payloads.len().max(1) as f64
    };

    out.metric(
        "daemon.round_trip_us",
        "us",
        rtt,
        n,
        "mean client round trip, traced rounds",
    );
    out.metric(
        "daemon.reply.latency_ms",
        "ms",
        latency / 1e3,
        n,
        "mean of reply latency_s",
    );
    out.metric(
        "daemon.wire.codec_us",
        "us",
        codec,
        payloads.len(),
        "mean, probe",
    );
    out.metric(
        "daemon.wire.request_bytes",
        "bytes",
        bytes(|p| p.0.len()),
        payloads.len(),
        "mean frame",
    );
    out.metric(
        "daemon.wire.reply_bytes",
        "bytes",
        bytes(|p| p.1.len()),
        payloads.len(),
        "mean frame",
    );
    out.metric(
        "daemon.scheduler.turn_ms",
        "ms",
        sched / 1e3,
        count("daemon.scheduler.turn"),
        "mean, probe",
    );
    out.metric(
        "daemon.scheduler.ticks_per_turn",
        "count",
        ticks_per_turn,
        n,
        "daemon counters",
    );
    out.metric(
        "daemon.manager.turn_ms",
        "ms",
        manager / 1e3,
        count("daemon.manager.turn"),
        "mean, probe",
    );
    out.metric(
        "core.session.step_store_ms",
        "ms",
        step_store / 1e3,
        count("core.session.step_store"),
        "mean, probe",
    );
    out.metric(
        "core.session.step_ms",
        "ms",
        step / 1e3,
        count("core.session.step"),
        "mean, probe",
    );
    out.metric(
        "telemetry.journal.cost_us",
        "us",
        journal,
        count("variant.journal_off"),
        "paired probe, on minus off",
    );
    out.metric(
        "telemetry.spans.cost_us",
        "us",
        spans,
        count("variant.spans_never"),
        "paired probe, Always minus Never",
    );
    for (name, v) in parts {
        out.metric(name, "us", v, n, "self time per turn");
    }
    out.metric(
        "self.sessionstore_us",
        "us",
        store,
        count("core.session.step_store"),
        "paired probe, store on minus off",
    );
    super::trace_overhead(out, base, traced);

    let m = &mut out.markdown;
    m.push("## daemon_fleet".to_string());
    m.push(String::new());
    m.push(format!(
        "Traced run: {CLOSED} closed + {ACTIVE} active sessions, {CLIENTS} connections, \
         {rounds} rounds (untraced, traced, traced, untraced), journal on, store off; {n} traced \
         turns, round trip mean {} µs. Fastest repeats: traced {} µs, untraced {} µs. \
         Every row is measured: the wire row is a ping under the same two connections, the \
         wait row comes from both clients' send and reply times, and the scheduler, manager \
         and session rows are their public entry points timed on replica fleets replaying \
         the same turns, each minus the next layer in.",
        md::f(rtt),
        md::f(traced.mean() * 1e3),
        md::f(base.mean() * 1e3),
    ));
    m.push(String::new());
    md::header(
        m,
        "Turn round trip, per turn (means over the traced rounds)",
        &["layer", "µs", "share", "feature", "moves"],
    );
    let moves = "p50_ms, tail_ms, ops_per_s";
    let rows = [
        (
            "wire + connection thread (ping)",
            "daemon wire protocol and connection handling",
        ),
        (
            "waiting behind the other connection's turn",
            "one scheduler thread serves both connections",
        ),
        (
            "tick scheduler",
            "daemon tick scheduler: per-tick fleet scans, reply body",
        ),
        (
            "session manager",
            "daemon manager: turn bookkeeping, inspect digest",
        ),
        (
            "session step",
            "core session: dialogue, pipeline, provenance, journal",
        ),
    ];
    for ((layer, feature), (_, v)) in rows.into_iter().zip(parts) {
        md::row(
            m,
            &[
                layer.into(),
                md::f(v),
                md::pct(v, rtt),
                feature.into(),
                moves.into(),
            ],
        );
    }
    md::row(
        m,
        &[
            "residual (unmeasured: thread wake-ups, replica vs live fleet)".into(),
            md::f(residual),
            md::pct(residual, rtt),
            String::new(),
            String::new(),
        ],
    );
    md::row(
        m,
        &[
            "**round trip mean**".into(),
            md::f(rtt),
            "100%".into(),
            String::new(),
            String::new(),
        ],
    );
    m.push(String::new());
    md::header(
        m,
        "Costs inside or beside the rows above (probes)",
        &["cost", "µs per turn", "share of round trip"],
    );
    md::row(
        m,
        &[
            "session store, on minus off (paired; off in this round trip)".into(),
            md::f(store),
            md::pct(store, rtt),
        ],
    );
    md::row(
        m,
        &[
            "flight-recorder journal, on minus off (paired)".into(),
            md::f(journal),
            md::pct(journal, rtt),
        ],
    );
    md::row(
        m,
        &[
            "span recording, Always minus Never (paired)".into(),
            md::f(spans),
            md::pct(spans, rtt),
        ],
    );
    md::row(
        m,
        &[
            "frame codec + request parse (in memory)".into(),
            md::f(codec),
            md::pct(codec, rtt),
        ],
    );
    m.push(String::new());
    m.push(format!(
        "Daemon-side reply latency (mailbox wait + turn) {} µs; scheduler ticks per turn \
         {ticks_per_turn:.2}; frames {:.0} B request, {:.0} B reply.",
        md::f(latency),
        bytes(|p| p.0.len()),
        bytes(|p| p.1.len()),
    ));
    m.push(String::new());
    let path = cfg.results.join("trace_daemon_fleet.json");
    if let Err(e) = tracer.write_json(&path, "daemon_fleet") {
        out.check("trace JSON written", false, e.to_string());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waits_behind_the_other_connection_are_measured_from_send_and_reply_times() {
        let t = Instant::now();
        let at = |us: u64| t + Duration::from_micros(us);
        let dur = Duration::from_micros;
        // The other connection's turns: [0, 500) and [600, 1100).
        let other = [(at(0), dur(500)), (at(600), dur(500))];
        let mine = [
            // Sent while the first was in flight: waits 300 µs of it.
            (at(200), dur(900)),
            // Sent between the two: nothing in flight.
            (at(550), dur(40)),
            // Sent during the second, answered before it ends: the wait is
            // capped by its own round trip.
            (at(700), dur(100)),
            // Sent after both.
            (at(2_000), dur(500)),
        ];
        let waits = waits_behind(&mine, &other);
        assert_eq!(waits.len(), mine.len());
        for (got, want) in waits.iter().zip([300.0, 0.0, 100.0, 0.0]) {
            assert!((got - want).abs() < 1e-6, "{waits:?}");
        }
    }

    #[test]
    fn daemon_self_times_are_the_measured_layers() {
        let parts = self_times(10.0, 500.0, 450.0, 60.0, 25.0);
        assert_eq!(
            parts,
            [
                ("self.wire_conn_us", 10.0),
                ("self.queue_wait_us", 500.0),
                ("self.scheduler_us", 390.0),
                ("self.manager_us", 35.0),
                ("self.session_us", 25.0),
            ]
        );
    }

    #[test]
    fn turn_replies_are_checked_for_order_and_notices() {
        let mut expect = 2;
        let ok = "{\"ok\":true,\"turn\":2,\"latency_s\":0.0005,\"reply\":\"x\"}";
        assert_eq!(check_turn(ok, Some(&mut expect)), Ok(0.5));
        assert_eq!(expect, 3);
        assert!(
            check_turn(ok, Some(&mut expect)).is_err(),
            "a repeated turn number"
        );
        let notice = "{\"ok\":true,\"turn\":3,\"latency_s\":0.1,\"notice\":\"slow\"}";
        assert!(check_turn(notice, Some(&mut expect)).is_err());
        let bounced = "{\"ok\":false,\"code\":\"overloaded\",\"retry_after_ms\":5}";
        assert!(check_turn(bounced, Some(&mut expect)).is_err());
    }
}
