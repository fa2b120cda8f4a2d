//! `e2e_bench` — the system benchmark: conversational turns in process,
//! a daemon fleet over its socket, hybrid design, and session restore.
//!
//! ```text
//! cargo run --release --manifest-path crates/bench/src/bin/e2e_bench/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--repeat N]
//! ```
//!
//! Every workload runs in its own child process (this binary re-executes
//! itself), so the program's process-wide registries start empty and peak
//! RSS is the workload's own. Without `--workload` all four run. The run
//! prints every metric with its unit and sample count; with exactly one
//! workload the last line of standard output is the JSON result object.
//! Any failed output check makes the exit code non-zero. See README.md.

mod host;
mod report;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use report::{Metric, Outcome};
use workloads::{RunConfig, Workload};

// The counting allocator, so traced runs can attribute allocations; it
// costs one relaxed load per allocation while no scope is open.
#[global_allocator]
static ALLOC: matilda_telemetry::profile::CountingAlloc =
    matilda_telemetry::profile::CountingAlloc::new();

const USAGE: &str = "usage: e2e_bench [--workload NAME] [--seed N] [--seconds S] \
                     [--trace [0|1]] [--repeat N]";

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    /// Internal: run this workload in-process and print the line protocol.
    child: Option<Workload>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 7,
        seconds: 20.0,
        trace: false,
        repeat: 1,
        child: None,
    };
    let mut i = 0;
    let value = |i: usize| {
        args.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{} needs a value", args[i]))
    };
    let workload = |name: &str| Workload::parse(name).ok_or(format!("unknown workload `{name}`"));
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => out.workload = Some(workload(&value(i)?)?),
            "--child" => out.child = Some(workload(&value(i)?)?),
            "--seed" => out.seed = value(i)?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                out.seconds = value(i)?.parse().map_err(|_| "bad --seconds")?;
                if !(out.seconds > 0.0 && out.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--repeat" => {
                out.repeat = value(i)?.parse().map_err(|_| "bad --repeat")?;
                if out.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => out.trace = false,
                Some("1") => out.trace = true,
                _ => {
                    out.trace = true;
                    i += 1;
                    continue;
                }
            },
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 2;
    }
    Ok(out)
}

/// The repository root this binary was built from.
fn repo_root() -> PathBuf {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../../../..");
    std::fs::canonicalize(&root).unwrap_or(root)
}

fn results_dir() -> PathBuf {
    repo_root().join("results/e2e_bench")
}

/// Child scratch directories live next to the executable, in the build
/// output directory.
fn scratch_root() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|d| d.join("e2e-scratch")))
        .unwrap_or_else(|| PathBuf::from("e2e-scratch"))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2e_bench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Some(workload) = args.child {
        std::process::exit(child(workload, &args));
    }
    std::process::exit(parent(&args));
}

/// Child: run one workload in this process, print the line protocol.
fn child(workload: Workload, args: &Args) -> i32 {
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace,
        // The parent made the scratch directory this process's working
        // directory, which keeps socket paths short.
        scratch: PathBuf::from("."),
        results: results_dir(),
    };
    let mut outcome = workload.run(&cfg);
    if args.trace {
        outcome.metric(
            "host.calibration_us",
            "us",
            host::floor_us(),
            host::samples() as usize,
            "fastest run of the clock kernel",
        );
    }
    let expected: Vec<(String, &'static str)> = if args.trace {
        report::per_layer()
    } else {
        report::END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect()
    };
    outcome.conform(&expected);
    print!("{}", outcome.encode());
    if outcome.correct() {
        0
    } else {
        1
    }
}

/// Spawn one child for `workload` under `seed` and collect its outcome.
fn spawn(workload: Workload, args: &Args, seed: u64) -> Outcome {
    let scratch = scratch_root().join(format!("{}-{}", workload.name(), std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        return failed(&format!("scratch directory {}: {e}", scratch.display()));
    }
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return failed(&format!("own executable: {e}")),
    };
    let mut cmd = Command::new(exe);
    cmd.args(["--child", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .current_dir(&scratch)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    for (key, _) in std::env::vars() {
        if key.starts_with("MATILDA_") || key.starts_with("CHAOS_") {
            cmd.env_remove(key);
        }
    }
    for (key, value) in workload.env() {
        cmd.env(key, value);
    }
    let result = cmd.output();
    let _ = std::fs::remove_dir_all(&scratch);
    let output = match result {
        Ok(output) => output,
        Err(e) => return failed(&format!("spawn: {e}")),
    };
    let mut outcome = Outcome::decode(&String::from_utf8_lossy(&output.stdout));
    if !output.status.success() && outcome.correct() {
        outcome.check(
            "workload child exits cleanly",
            false,
            output.status.to_string(),
        );
    }
    outcome
}

fn failed(detail: &str) -> Outcome {
    let mut out = Outcome {
        attempted: 1,
        failed: 1,
        ..Outcome::default()
    };
    out.check("workload child runs", false, detail);
    out
}

/// Parent: run the selected workloads (each `--repeat` times) in child
/// processes, print their metrics, and for a single workload the JSON
/// result line.
fn parent(args: &Args) -> i32 {
    let selected: Vec<Workload> = match args.workload {
        Some(w) => vec![w],
        None => Workload::ALL.to_vec(),
    };
    let header = run_header(args, &selected);
    for line in &header {
        println!("# {line}");
    }
    let mut all_correct = true;
    let mut runs: Vec<(Workload, Vec<Outcome>)> = Vec::new();
    for &workload in &selected {
        let mut outcomes = Vec::new();
        for r in 0..args.repeat {
            eprintln!(
                "e2e_bench: {} run {}/{} seed {}{}",
                workload.name(),
                r + 1,
                args.repeat,
                args.seed + r as u64,
                if args.trace { " (traced)" } else { "" }
            );
            // Repeats take consecutive seeds: their spread covers input
            // variation as well as timing noise.
            let outcome = spawn(workload, args, args.seed + r as u64);
            print_outcome(workload, &outcome);
            all_correct &= outcome.correct();
            outcomes.push(outcome);
        }
        if args.repeat > 1 {
            print_spread(workload, &outcomes);
        }
        runs.push((workload, outcomes));
    }
    if args.trace && selected.len() == Workload::ALL.len() && all_correct {
        let path = results_dir().join("layers.md");
        match write_layers(&path, &header, &runs) {
            Ok(()) => println!("# wrote {}", path.display()),
            Err(e) => {
                eprintln!("e2e_bench: writing {}: {e}", path.display());
                all_correct = false;
            }
        }
    }
    if let [(_, outcomes)] = runs.as_slice() {
        let metrics = median_metrics(outcomes);
        let attempted = outcomes.iter().map(|o| o.attempted).sum();
        let failed = outcomes.iter().map(|o| o.failed).sum();
        println!(
            "{}",
            report::result_json(all_correct, attempted, failed, &metrics)
        );
    }
    if all_correct {
        0
    } else {
        1
    }
}

fn print_outcome(workload: Workload, o: &Outcome) {
    println!(
        "## {} — op: {}; {} ops, {} failed, fail_ratio {}",
        workload.name(),
        workload.op(),
        o.attempted,
        o.failed,
        o.failed as f64 / o.attempted.max(1) as f64
    );
    // Layers this workload never passes through read 0; the JSON line
    // carries them, the table does not.
    for m in o.metrics.iter().filter(|m| m.samples > 0) {
        println!(
            "{:<36} {:>16.6} {:<6} n={:<7} {}",
            m.name, m.value, m.unit, m.samples, m.note
        );
    }
    for c in o.checks.iter().filter(|c| !c.passed) {
        println!("CHECK FAILED: {} — {}", c.name, c.detail);
    }
}

/// Per metric: median, quartiles and min–max over the repeats.
fn print_spread(workload: Workload, outcomes: &[Outcome]) {
    println!(
        "## {} over {} runs (consecutive seeds): median [q1, q3] (min–max), iqr/median",
        workload.name(),
        outcomes.len()
    );
    for m in &outcomes[0].metrics {
        let values: Vec<f64> = outcomes
            .iter()
            .filter_map(|o| o.get(&m.name).map(|x| x.value))
            .collect();
        if let Some(s) = stats::Spread::of(&values) {
            println!(
                "{:<36} {:.6} [{:.6}, {:.6}] ({:.6}–{:.6}) {:.4} {}",
                m.name,
                s.median,
                s.q1,
                s.q3,
                s.min,
                s.max,
                s.iqr_share(),
                m.unit
            );
        }
    }
}

/// The metric list of the first run with each value replaced by its median
/// over all runs.
fn median_metrics(outcomes: &[Outcome]) -> Vec<Metric> {
    let Some(first) = outcomes.first() else {
        return Vec::new();
    };
    first
        .metrics
        .iter()
        .map(|m| {
            let values: Vec<f64> = outcomes
                .iter()
                .filter_map(|o| o.get(&m.name).map(|x| x.value))
                .collect();
            Metric {
                value: stats::Spread::of(&values).map_or(m.value, |s| s.median),
                ..m.clone()
            }
        })
        .collect()
}

/// The run header: what a reader needs to compare two runs.
fn run_header(args: &Args, selected: &[Workload]) -> Vec<String> {
    let run = |program: &str, argv: &[&str]| {
        Command::new(program)
            .args(argv)
            .current_dir(repo_root())
            .stdin(Stdio::null())
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    let parallelism = std::thread::available_parallelism().map_or(0, |p| p.get());
    let online = std::fs::read_to_string("/sys/devices/system/cpu/online")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let mut env = String::new();
    for w in selected {
        let vars: Vec<String> = w.env().iter().map(|(k, v)| format!("{k}={v}")).collect();
        let _ = write!(env, "{}: {}; ", w.name(), vars.join(" "));
    }
    vec![
        format!(
            "e2e_bench seed={} seconds={} trace={} repeat={}",
            args.seed, args.seconds, args.trace, args.repeat
        ),
        // Only a git checkout has a commit; elsewhere git would report an
        // enclosing repository's.
        format!(
            "commit: {}",
            if repo_root().join(".git").exists() {
                run("git", &["rev-parse", "--short", "HEAD"])
            } else {
                "unknown (not a git checkout)".to_string()
            }
        ),
        format!("cpus online: {online}; available_parallelism: {parallelism}"),
        format!("rustc: {}", run("rustc", &["--version"])),
        format!(
            "build profile: {}",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release (codegen-units=1, lto=thin)"
            }
        ),
        format!(
            "counting allocator: {}",
            if matilda_telemetry::profile::counting_allocator_installed() {
                "installed (counts only while a scope is open; the daemon scheduler keeps one open)"
            } else {
                "absent"
            }
        ),
        format!("store file system: {}", file_system(&scratch_root())),
        format!(
            "child env (all other MATILDA_* removed): {}",
            env.trim_end()
        ),
    ]
}

/// File system type and options of the mount holding `path`.
fn file_system(path: &Path) -> String {
    let _ = std::fs::create_dir_all(path);
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mounts") else {
        return "unknown".into();
    };
    mounts
        .lines()
        .filter_map(|line| {
            let f: Vec<&str> = line.split_whitespace().collect();
            (f.len() >= 4 && path.starts_with(f[1]))
                .then(|| (f[1].len(), format!("{} ({})", f[2], f[3])))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// `layers.md`: the header, then each workload's traced section.
fn write_layers(
    path: &Path,
    header: &[String],
    runs: &[(Workload, Vec<Outcome>)],
) -> std::io::Result<()> {
    let mut doc = String::from("# e2e_bench per-layer report\n\n");
    doc.push_str(
        "Generated by a traced run of all four workloads (`--trace`). Layer calls are timed \
         from outside the program through public entry points; self times are additive \
         differences of means over the traced passes, and each table ends with what the \
         measured rows leave unexplained as its residual (probes re-run calls on warm \
         caches, so a residual can dip below zero). A traced run's timed passes run \
         untraced, traced, traced, untraced over the same inputs; `trace_overhead_pct` \
         compares the two kinds' mean latencies, every repeat counted.\n\n",
    );
    for line in header {
        let _ = writeln!(doc, "    {line}");
    }
    doc.push('\n');
    doc.push_str("| workload | trace_overhead_pct |\n|---|---|\n");
    for (w, outcomes) in runs {
        if let Some(m) = outcomes.last().and_then(|o| o.get("trace_overhead_pct")) {
            let _ = writeln!(doc, "| {} | {:.1}% |", w.name(), m.value);
        }
    }
    doc.push('\n');
    for (_, outcomes) in runs {
        if let Some(o) = outcomes.last() {
            for line in &o.markdown {
                doc.push_str(line);
                doc.push('\n');
            }
        }
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn harness_and_human_argument_forms_parse() {
        let a = args(&[
            "--workload",
            "daemon_fleet",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Some(Workload::DaemonFleet));
        assert_eq!((a.seed, a.seconds, a.trace), (3, 10.0, true));
        let a = args(&["--trace", "0"]).unwrap();
        assert!(!a.trace);
        let a = args(&["--trace", "--repeat", "5"]).unwrap();
        assert!(a.trace);
        assert_eq!(a.repeat, 5);
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--repeat"]).is_err());
        assert!(args(&["--bogus"]).is_err());
    }
}
