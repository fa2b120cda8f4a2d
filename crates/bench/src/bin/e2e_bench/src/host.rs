//! The host's clock, measured while a run goes on, so end-to-end times
//! can be reported at the reference machine's clock.
//!
//! On a shared host a core's clock drifts by 10–15% over minutes as the
//! machine around it gets busier or quieter, and every time a run reads
//! drifts with it. Between operations, outside timed regions, the workloads
//! run a fixed kernel (the benchmark's own code: a sort, a float loop and a
//! multiply chain over a stack array, with no allocation and no program
//! code), at most once per [`EVERY`] per thread, and keep its fastest warm
//! time.
//! A time scaled by [`REFERENCE_NS`] over that floor reads what it would on
//! the reference machine at its usual clock: a slower host clock cancels
//! out, while a change to the program moves the result as much as before,
//! since the kernel does not run the program.

use std::cell::Cell;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The kernel's fastest time on the reference machine (2 vCPUs), ns.
pub const REFERENCE_NS: f64 = 15_000.0;
/// Least time between two kernel runs on one thread.
pub const EVERY: Duration = Duration::from_millis(20);

static FLOOR_NS: AtomicU64 = AtomicU64::new(u64::MAX);
static SAMPLES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static LAST: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// The fixed work: sort 2,048 pseudo-random words, a square-root loop over
/// them, and a multiply chain.
fn kernel() -> u64 {
    let mut words = [0u64; 2_048];
    let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
    for w in words.iter_mut() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *w = x;
    }
    words.sort_unstable();
    let mut acc = 0.0f64;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (i, w) in words.iter().enumerate() {
        acc += ((w >> 11) as f64 * 1e-12 + i as f64).sqrt();
        h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }
    black_box(acc.to_bits() ^ h)
}

/// Time the kernel once, unless this thread did within [`EVERY`]. The
/// kernel runs once untimed first, so the timed run finds its code and
/// data in cache whatever the operation before it evicted.
pub fn sample() {
    let due = LAST.with(|last| last.get().is_none_or(|t| t.elapsed() >= EVERY));
    if !due {
        return;
    }
    black_box(kernel());
    let start = Instant::now();
    black_box(kernel());
    let ns = start.elapsed().as_nanos().min(u128::from(u64::MAX - 1)) as u64;
    FLOOR_NS.fetch_min(ns, Ordering::Relaxed);
    SAMPLES.fetch_add(1, Ordering::Relaxed);
    LAST.with(|last| last.set(Some(Instant::now())));
}

/// The kernel's fastest time so far, µs (NaN before the first sample).
pub fn floor_us() -> f64 {
    match FLOOR_NS.load(Ordering::Relaxed) {
        u64::MAX => f64::NAN,
        ns => ns as f64 / 1e3,
    }
}

/// Kernel runs so far.
pub fn samples() -> u64 {
    SAMPLES.load(Ordering::Relaxed)
}

/// The factor that takes a time measured on this host to the reference
/// clock: the reference kernel time over this run's fastest. Before any
/// sample it is 1.
pub fn scale() -> f64 {
    let floor = floor_us() * 1e3;
    if floor.is_finite() && floor > 0.0 {
        REFERENCE_NS / floor
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_deterministic_and_sampling_keeps_the_fastest() {
        assert_eq!(kernel(), kernel());
        sample();
        let floor = floor_us();
        assert!(floor > 0.0 && floor.is_finite());
        // Within `EVERY` of the last run this thread does not run again.
        let n = samples();
        sample();
        assert_eq!(samples(), n);
        assert!(scale() > 0.0 && scale().is_finite());
        assert!(floor_us() <= floor);
    }
}
