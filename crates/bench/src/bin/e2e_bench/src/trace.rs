//! The benchmark's own spans, recorded around calls into each layer's
//! public entry points from outside the program.
//!
//! Spans stay in memory (bounded by [`MAX_SPANS`]) and are written once,
//! when the run ends. A span names the layer call and the operation
//! (request) that caused it, which all of that request's spans share; a
//! layer's self time is its mean minus the means of the layers it is made
//! of, which the workloads compute from [`Tracer::mean_ms`].

use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Spans retained per run; later spans are counted, not stored, so a long
/// run cannot grow memory without bound (the means stay exact).
pub const MAX_SPANS: usize = 200_000;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `pipeline.run`.
    pub name: &'static str,
    /// Operation the span belongs to; spans of one request share it.
    pub op: u64,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct Sum {
    count: u64,
    total_ns: u128,
}

/// An in-memory span recorder. A disabled tracer records nothing and costs
/// one branch per call, so untraced runs can share the traced code path.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    sums: std::collections::BTreeMap<&'static str, Sum>,
    dropped: u64,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            sums: Default::default(),
            dropped: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Record a span that ran from `start` for `dur` (nothing when
    /// disabled).
    pub fn record(&mut self, name: &'static str, op: u64, start: Instant, dur: Duration) {
        if !self.enabled {
            return;
        }
        let sum = self.sums.entry(name).or_default();
        sum.count += 1;
        sum.total_ns += dur.as_nanos();
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return;
        }
        self.spans.push(Span {
            name,
            op,
            start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
            dur_ns: dur.as_nanos() as u64,
        });
    }

    /// Time `f` as span `name`.
    pub fn time<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> (T, Duration) {
        let start = Instant::now();
        let out = f();
        let dur = start.elapsed();
        self.record(name, op, start, dur);
        (out, dur)
    }

    /// Fold another tracer's spans in (e.g. one per client thread),
    /// re-basing their start times onto this tracer's epoch.
    pub fn absorb(&mut self, other: Tracer) {
        let shift = other.epoch.saturating_duration_since(self.epoch).as_nanos() as u64;
        for (name, sum) in other.sums {
            let mine = self.sums.entry(name).or_default();
            mine.count += sum.count;
            mine.total_ns += sum.total_ns;
        }
        self.dropped += other.dropped;
        for mut span in other.spans {
            if self.spans.len() >= MAX_SPANS {
                self.dropped += 1;
                continue;
            }
            span.start_ns += shift;
            self.spans.push(span);
        }
    }

    /// Spans recorded under `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.sums.get(name).map_or(0, |s| s.count)
    }

    /// Mean duration of spans named `name`, in milliseconds (0 when none).
    pub fn mean_ms(&self, name: &str) -> f64 {
        match self.sums.get(name) {
            Some(s) if s.count > 0 => s.total_ns as f64 / s.count as f64 / 1e6,
            _ => 0.0,
        }
    }

    /// Total duration of spans named `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.sums.get(name).map_or(0.0, |s| s.total_ns as f64 / 1e6)
    }

    /// Write every retained span as one JSON document.
    pub fn write_json(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96 + 128);
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"dropped\":{},\"spans\":[",
            self.dropped
        );
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"start_ns\":{},\"dur_ns\":{}}}",
                s.name, s.op, s.start_ns, s.dur_ns
            );
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let (v, _) = t.time("x", 1, || 7);
        assert_eq!(v, 7);
        assert_eq!(t.count("x"), 0);
        assert_eq!(t.mean_ms("x"), 0.0);
    }

    #[test]
    fn means_survive_absorb() {
        let mut a = Tracer::new(true);
        let start = Instant::now();
        a.record("op", 1, start, Duration::from_millis(4));
        a.record("layer", 1, start, Duration::from_millis(1));
        let mut b = Tracer::new(true);
        b.record("op", 2, start, Duration::from_millis(2));
        b.record("layer", 2, start, Duration::from_millis(3));
        a.absorb(b);
        assert_eq!(a.count("op"), 2);
        assert!((a.mean_ms("op") - 3.0).abs() < 1e-9);
        assert!((a.total_ms("layer") - 4.0).abs() < 1e-9);
        assert_eq!(a.spans[3].op, 2);
    }
}
