//! The profiler is observation-pure: turning it on changes nothing.
//!
//! The kernel profiler reads the wall clock, so its timing section can
//! never be deterministic — but everything the simulation *observes*
//! must be byte-identical whether profiling is on or off, and the
//! deterministic section of the prof document (counts + histograms)
//! must reproduce across reruns. [`purity_check`] enforces all of it:
//!
//! 1. metrics equality on vs off,
//! 2. byte-identical trace and series JSONL on vs off,
//! 3. a prof document present iff profiling is on,
//! 4. rerun byte-determinism of the prof count/hist section.
//!
//! Exercised for every paper protocol on both paper scenarios (smoke
//! durations).

use ldr_bench::profiling::purity_check;
use ldr_bench::scenario::{Protocol, Scenario};

/// The paper's two scenarios, cut down to smoke size.
fn smoke_scenarios() -> Vec<(Scenario, u64)> {
    let mut a = Scenario::n50(10, 30);
    a.duration_secs = 8;
    a.trials = 1;
    let mut b = Scenario::n100(30, 30);
    b.duration_secs = 5;
    b.trials = 1;
    vec![(a, 7001), (b, 7002)]
}

#[test]
fn profiling_is_observation_pure_on_the_sequential_kernel() {
    for (scenario, seed) in smoke_scenarios() {
        for proto in [Protocol::Ldr, Protocol::Aodv, Protocol::Dsr, Protocol::Olsr] {
            if let Err(e) = purity_check(proto, &scenario, seed) {
                panic!("sequential purity violated: {e}");
            }
        }
    }
}
