//! A minimal, dependency-free stand-in for the [`criterion`] crate.
//!
//! The build environment for this workspace has no access to a crate
//! registry, so the real `criterion` cannot be downloaded. This shim
//! implements the subset of the API the workspace's benches use —
//! [`Criterion::bench_function`], `Bencher::iter`, and the
//! `criterion_group!` / `criterion_main!` macros — measuring wall time
//! with `std::time::Instant` and printing a `name  time/iter` line per
//! benchmark.
//!
//! Behaviour:
//!
//! * Under `cargo bench` (or any invocation without `--test`), every
//!   benchmark runs a short calibration pass and then enough
//!   iterations to fill a 2 s measurement budget, reporting mean
//!   ns/iter.
//! * Under `cargo test` (cargo passes `--test` to `harness = false`
//!   bench targets), every benchmark body runs **once** as a smoke
//!   test, matching real criterion's test-mode behaviour.
//!
//! [`criterion`]: https://docs.rs/criterion

use std::time::{Duration, Instant};

/// How benchmarks execute (full measurement vs. one-shot smoke test).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    Measure,
    TestOnce,
}

fn mode_from_args() -> Mode {
    if std::env::args().any(|a| a == "--test") {
        Mode::TestOnce
    } else {
        Mode::Measure
    }
}

/// Runs timed closures for one benchmark.
pub struct Bencher {
    mode: Mode,
    measurement_time: Duration,
    /// Mean nanoseconds per iteration, filled by `iter`.
    mean_ns: f64,
    iters: u64,
}

impl Bencher {
    /// Times `f`, storing the mean cost per call.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        if self.mode == Mode::TestOnce {
            std::hint::black_box(f());
            self.mean_ns = 0.0;
            self.iters = 1;
            return;
        }
        // Calibrate: find an iteration count that takes ~10 ms.
        let mut n: u64 = 1;
        let per_iter_ns = loop {
            let start = Instant::now();
            for _ in 0..n {
                std::hint::black_box(f());
            }
            let elapsed = start.elapsed();
            if elapsed >= Duration::from_millis(10) || n >= 1 << 30 {
                break (elapsed.as_nanos() as f64 / n as f64).max(0.1);
            }
            n *= 4;
        };
        // Measure: as many iterations as fit the measurement budget.
        let budget = self.measurement_time.as_nanos() as f64;
        let total = ((budget / per_iter_ns) as u64).max(1);
        let start = Instant::now();
        for _ in 0..total {
            std::hint::black_box(f());
        }
        let elapsed = start.elapsed();
        self.mean_ns = elapsed.as_nanos() as f64 / total as f64;
        self.iters = total;
    }
}

fn report(name: &str, b: &Bencher) {
    if b.mode == Mode::TestOnce {
        println!("bench {name}: ok (test mode, 1 iteration)");
        return;
    }
    let ns = b.mean_ns;
    let pretty = if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    };
    println!("bench {name}: {pretty}/iter ({} iterations)", b.iters);
}

/// The benchmark driver.
pub struct Criterion {
    mode: Mode,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { mode: mode_from_args() }
    }
}

impl Criterion {
    /// Runs one named benchmark with default settings.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = Bencher {
            mode: self.mode,
            measurement_time: Duration::from_secs(2),
            mean_ns: 0.0,
            iters: 0,
        };
        f(&mut b);
        report(name, &b);
        self
    }
}

/// Declares a group of benchmark functions, mirroring criterion's
/// macro of the same name.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Declares `main` running one or more benchmark groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

/// Re-export of `std::hint::black_box`, which real criterion provides.
pub use std::hint::black_box;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_measures_something() {
        let mut b = Bencher {
            mode: Mode::Measure,
            measurement_time: Duration::from_millis(30),
            mean_ns: 0.0,
            iters: 0,
        };
        b.iter(|| std::hint::black_box(41u64) + 1);
        assert!(b.mean_ns > 0.0);
        assert!(b.iters >= 1);
    }
}
