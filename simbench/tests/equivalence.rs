//! The benchmark must time the simulation it claims to time: the traced
//! run (profiler plus timing wrappers) and the sliced run must both
//! reproduce the plain run exactly, and the benchmark must build the
//! same world as the repository's own trial runner.
//!
//! Runs are kept short; use `cargo test --release`.

use ldr_bench::runner::{build_world, build_world_telemetry, trial_fault_plan};
use manet_sim::prof::{phase_name, ProfSnapshot};
use manet_sim::telemetry::{JsonlTrace, TelemetryConfig};
use simbench::pinned;
use simbench::workload::{self, round_seed, Mode, Workload, NAMES};

const SECS: u64 = 12;

fn short(name: &str) -> Workload {
    Workload::named(name).expect("known workload").with_secs(SECS)
}

fn phase_count(snap: &ProfSnapshot, name: &str) -> u64 {
    (0..snap.counts.len()).find(|&i| phase_name(i) == name).map_or(0, |i| snap.counts[i])
}

#[test]
fn traced_and_profiled_runs_match_the_bare_run() {
    for name in NAMES {
        let w = short(name);
        for &p in w.protocols {
            let seed = round_seed(7, 0);
            let run = |mode| workload::run(workload::build(&w, p, seed, mode), &w);
            let bare = run(Mode::Bare);
            let profiled = run(Mode::Profiled);
            let traced = run(Mode::Traced);
            let label = format!("{name}/{}", p.name());
            assert!(bare.metrics.data_originated > 0, "{label}: no traffic");
            for (other, what) in [(&profiled, "profiled"), (&traced, "traced")] {
                assert_eq!(bare.metrics, other.metrics, "{label}: {what} Metrics");
                assert_eq!(bare.events, other.events, "{label}: {what} events");
                let (b, o) = (bare.export.as_ref(), other.export.as_ref());
                assert_eq!(b.map(|x| x.trace_bytes), o.map(|x| x.trace_bytes), "{label}: {what}");
                assert_eq!(b.map(|x| x.samples), o.map(|x| x.samples), "{label}: {what}");
            }
            assert!(bare.prof.is_none(), "{label}: bare run was profiled");
            let ps = profiled.prof.as_ref().expect("profiled snapshot");
            let ts = traced.prof.as_ref().expect("traced snapshot");
            assert_eq!(ps.dispatch_counts, ts.dispatch_counts, "{label}: dispatch counts");
            assert_eq!(ts.events_executed, bare.events, "{label}");
            assert_eq!(phase_count(ts, "neighbor_linear"), 0, "{label}: linear scan used");
            assert!(phase_count(ts, "neighbor_grid") > 0, "{label}: grid unused");
        }
    }
}

#[test]
fn sliced_runs_match_world_run() {
    for name in NAMES {
        let w = short(name);
        for &p in w.protocols {
            let seed = round_seed(3, 1);
            let whole = workload::build(&w, p, seed, Mode::Bare).into_world().run();
            let sliced = workload::run(workload::build(&w, p, seed, Mode::Bare), &w);
            assert_eq!(whole, sliced.metrics, "{name}/{}", p.name());
            assert_eq!(sliced.slice_ns.len() as u64, SECS);
        }
    }
}

#[test]
fn benchmark_builds_the_runners_world() {
    for name in NAMES {
        let w = short(name);
        for &p in w.protocols {
            let seed = round_seed(5, 2);
            let ours = workload::build(&w, p, seed, Mode::Bare).into_world().run();
            let plan = w.fault_level.map(|level| trial_fault_plan(&w.scenario, seed, level));
            let theirs = if w.observe {
                let mut world = build_world_telemetry(
                    p,
                    &w.scenario,
                    seed,
                    plan,
                    Some(TelemetryConfig::default()),
                );
                world.set_trace(Box::new(JsonlTrace::shared(seed, w.scenario.n_nodes)));
                world.run()
            } else {
                build_world(p, &w.scenario, seed, plan).run()
            };
            assert_eq!(ours, theirs, "{name}/{}", p.name());
        }
    }
}

#[test]
fn output_checks_pass_and_catch_a_wrong_run() {
    let w = short("static-traced");
    let p = w.protocols[0];
    let mut out = workload::run(workload::build(&w, p, round_seed(9, 0), Mode::Bare), &w);
    assert_eq!(workload::check(&w, &out), Ok(()));
    if let Some(x) = out.export.as_mut() {
        x.samples -= 1;
    }
    assert!(workload::check(&w, &out).is_err(), "a missing series sample must fail");
}

#[test]
fn every_workload_protocol_has_pinned_digests() {
    for name in NAMES {
        let w = Workload::named(name).expect("known workload");
        for &p in w.protocols {
            let seed = pinned::DEFAULT_SEED;
            assert!(pinned::lookup(name, &p.name(), seed, 0).is_some(), "{name}/{}", p.name());
            assert!(pinned::lookup(name, &p.name(), seed + 1, 0).is_none());
        }
    }
}
