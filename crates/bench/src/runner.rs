//! Executes scenarios: one deterministic run per `(protocol, scenario,
//! trial)`, with trials parallelised across the bounded
//! [work-stealing pool](crate::workpool) — never one OS thread per
//! trial, and never more than the host's cores even when each trial's
//! kernel itself runs multi-worker.

use crate::report::Summary;
use crate::scenario::{Protocol, Scenario};
use crate::workpool::{self, PoolStats};
use manet_sim::config::SimConfig;
use manet_sim::faults::{FaultIntensity, FaultPlan};
use manet_sim::metrics::Metrics;
use manet_sim::mobility::RandomWaypoint;
use manet_sim::rng::SimRng;
use manet_sim::telemetry::TelemetryConfig;
use manet_sim::time::SimDuration;
use manet_sim::traffic::TrafficConfig;
use manet_sim::world::World;

/// Runs one trial and returns its metrics. Fully deterministic in
/// `(protocol, scenario, seed)`.
pub fn run_once(protocol: Protocol, scenario: &Scenario, seed: u64) -> Metrics {
    run_once_faulted(protocol, scenario, seed, None)
}

/// Runs one trial under an optional deterministic fault schedule.
/// Fully deterministic in `(protocol, scenario, seed, plan)`.
pub fn run_once_faulted(
    protocol: Protocol,
    scenario: &Scenario,
    seed: u64,
    plan: Option<FaultPlan>,
) -> Metrics {
    build_world(protocol, scenario, seed, plan).run()
}

/// Builds the fully-configured (but not yet run) world for one trial —
/// shared by [`run_once_faulted`], the profiler and callers that need
/// the world alive after the run (to read [`World::events_executed`],
/// say).
pub fn build_world(
    protocol: Protocol,
    scenario: &Scenario,
    seed: u64,
    plan: Option<FaultPlan>,
) -> World {
    build_world_telemetry(protocol, scenario, seed, plan, None)
}

/// Like [`build_world`], with the observation-pure telemetry layer
/// (flight recorder + time-series sampler) configured. Attaching a
/// trace sink is the caller's job ([`World::set_trace`]).
///
/// [`World::set_trace`]: manet_sim::world::World::set_trace
pub fn build_world_telemetry(
    protocol: Protocol,
    scenario: &Scenario,
    seed: u64,
    plan: Option<FaultPlan>,
    telemetry: Option<TelemetryConfig>,
) -> World {
    let cfg = SimConfig {
        phy: scenario.flavor.phy(),
        duration: SimDuration::from_secs(scenario.duration_secs),
        seed,
        audit_interval: scenario.audit.then(|| SimDuration::from_secs(1)),
        invariant_audit: false,
        fault_plan: plan,
        spatial_grid: scenario.spatial_grid,
        telemetry,
        workers: 1,
        recycle_pools: scenario.recycle_pools,
        profile: scenario.profile,
    };
    let mobility = RandomWaypoint::new(
        scenario.n_nodes,
        scenario.terrain(),
        SimDuration::from_secs(scenario.pause_secs),
        1.0,
        20.0,
        SimRng::stream(seed, "mobility"),
    );
    let mut factory = protocol.factory();
    let mut world = World::new(cfg, Box::new(mobility), |id, n| factory(id, n));
    world.with_cbr(TrafficConfig::paper(scenario.n_flows));
    world
}

/// The fault schedule trial `seed` runs at intensity `level`: random,
/// but a pure function of `(scenario, seed, level)`, and shared across
/// protocols so the comparison is apples-to-apples.
pub fn trial_fault_plan(scenario: &Scenario, seed: u64, level: u32) -> FaultPlan {
    let intensity = FaultIntensity::level(
        scenario.n_nodes as u16,
        SimDuration::from_secs(scenario.duration_secs),
        level,
    );
    FaultPlan::random(&mut SimRng::stream(seed, "faultbench-plan"), &intensity)
}

/// The seed trial `k` of a scenario runs at: `seed_base` advanced by
/// `k` with **wrapping** arithmetic. The pre-PR-9 `seed_base + k`
/// overflowed (a debug-build abort, and UB-adjacent silent wrap in
/// release) when `seed_base` sat near `u64::MAX`; wrapping is the
/// intended modular semantics, and distinct trials always get distinct
/// seeds because the offsets `0..trials` are distinct modulo 2⁶⁴.
pub fn trial_seed(seed_base: u64, k: u32) -> u64 {
    seed_base.wrapping_add(u64::from(k))
}

/// All trial seeds for a scenario, with an explicit collision check —
/// if a future seed-derivation change ever maps two trials to one
/// seed, the sweep must refuse to silently run duplicate cells.
pub fn trial_seeds(scenario: &Scenario) -> Vec<u64> {
    let seeds: Vec<u64> = (0..scenario.trials).map(|k| trial_seed(scenario.seed_base, k)).collect();
    let mut sorted = seeds.clone();
    sorted.sort_unstable();
    let before = sorted.len();
    sorted.dedup();
    assert_eq!(sorted.len(), before, "trial seed collision: seed_base={}", scenario.seed_base);
    seeds
}

/// Shared trial loop: derives the seeds, fans `run(k, seed)` out over
/// the bounded pool, folds successes into the summary, and records a
/// panicking trial as a [`crate::report::TrialFailure`] instead of
/// aborting the batch.
fn run_trials_core(
    protocol: Protocol,
    scenario: &Scenario,
    run: &(dyn Fn(u32, u64) -> Metrics + Sync),
) -> (Summary, PoolStats) {
    let seeds = trial_seeds(scenario);
    let jobs: Vec<_> =
        seeds.iter().enumerate().map(|(i, &seed)| move || run(i as u32, seed)).collect();
    let (results, stats) = workpool::run_jobs(workpool::host_cores(), jobs);
    let mut summary = Summary::new(protocol.name());
    for (i, r) in results.into_iter().enumerate() {
        match r {
            Ok(m) => summary.add(&m),
            Err(panic_msg) => summary.record_failure(seeds[i], panic_msg),
        }
    }
    (summary, stats)
}

/// Runs all trials of a scenario at a fault-intensity level (across
/// the bounded worker pool) and aggregates them into a [`Summary`].
/// A panicking trial is recorded in [`Summary::failed`]; the remaining
/// trials still run.
pub fn run_fault_trials(protocol: Protocol, scenario: &Scenario, level: u32) -> Summary {
    run_trials_core(protocol, scenario, &|_k, seed| {
        let plan = trial_fault_plan(scenario, seed, level);
        run_once_faulted(protocol, scenario, seed, Some(plan))
    })
    .0
}

/// Runs all trials of a scenario (across the bounded worker pool) and
/// aggregates them into a [`Summary`]. A panicking trial is recorded
/// in [`Summary::failed`]; the remaining trials still run.
pub fn run_trials(protocol: Protocol, scenario: &Scenario) -> Summary {
    run_trials_core(protocol, scenario, &|_k, seed| run_once(protocol, scenario, seed)).0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(protocol: Protocol) -> Metrics {
        let scenario = Scenario {
            n_nodes: 20,
            terrain: (800.0, 300.0),
            n_flows: 4,
            pause_secs: 30,
            duration_secs: 60,
            trials: 1,
            seed_base: 7,
            flavor: crate::scenario::SimFlavor::Default,
            audit: true,
            spatial_grid: true,
            workers: 1,
            recycle_pools: true,
            profile: false,
        };
        run_once(protocol, &scenario, 7)
    }

    #[test]
    fn every_protocol_delivers_in_a_small_mobile_network() {
        for p in Protocol::PAPER_SET {
            let m = tiny(p);
            assert!(m.data_originated > 100, "{}: no traffic originated", p.name());
            assert!(
                m.delivery_ratio() > 0.5,
                "{} delivered only {:.1}% ({} of {})",
                p.name(),
                m.delivery_ratio() * 100.0,
                m.data_delivered,
                m.data_originated
            );
        }
    }

    #[test]
    fn ldr_runs_loop_free() {
        let m = tiny(Protocol::Ldr);
        assert_eq!(m.loop_violations, 0, "LDR must be loop-free at every audit");
    }

    #[test]
    fn runs_are_deterministic() {
        let scenario = Scenario { duration_secs: 30, trials: 1, ..Scenario::n50(4, 0) };
        let a = run_once(Protocol::Ldr, &scenario, 3);
        let b = run_once(Protocol::Ldr, &scenario, 3);
        assert_eq!(a.data_delivered, b.data_delivered);
        assert_eq!(a.total_control_tx(), b.total_control_tx());
        assert_eq!(a.collisions, b.collisions);
    }

    #[test]
    fn trials_aggregate_into_summary() {
        let scenario = Scenario {
            n_nodes: 15,
            terrain: (700.0, 300.0),
            n_flows: 3,
            pause_secs: 0,
            duration_secs: 40,
            trials: 3,
            seed_base: 100,
            flavor: crate::scenario::SimFlavor::Default,
            audit: false,
            spatial_grid: true,
            workers: 1,
            recycle_pools: true,
            profile: false,
        };
        let s = run_trials(Protocol::Aodv, &scenario);
        assert_eq!(s.trials(), 3);
        assert!(s.delivery.mean() > 0.0);
    }

    #[test]
    fn fault_level_zero_is_empty_and_matches_fault_free_trials() {
        let scenario = Scenario {
            n_nodes: 15,
            terrain: (700.0, 300.0),
            n_flows: 3,
            pause_secs: 0,
            duration_secs: 40,
            trials: 2,
            seed_base: 100,
            flavor: crate::scenario::SimFlavor::Default,
            audit: true,
            spatial_grid: true,
            workers: 1,
            recycle_pools: true,
            profile: false,
        };
        assert!(trial_fault_plan(&scenario, scenario.seed_base, 0).is_empty());
        let faulted = run_fault_trials(Protocol::Ldr, &scenario, 0);
        let plain = run_trials(Protocol::Ldr, &scenario);
        assert_eq!(faulted.faults_injected, 0);
        assert_eq!(faulted.node_restarts, 0);
        assert_eq!(faulted.delivery.mean(), plain.delivery.mean());
        assert_eq!(faulted.latency.mean(), plain.latency.mean());
        assert_eq!(faulted.loop_violations, plain.loop_violations);
    }

    #[test]
    fn fault_trials_are_deterministic_and_protocol_agnostic() {
        let scenario = Scenario {
            n_nodes: 15,
            terrain: (700.0, 300.0),
            n_flows: 3,
            pause_secs: 0,
            duration_secs: 40,
            trials: 2,
            seed_base: 100,
            flavor: crate::scenario::SimFlavor::Default,
            audit: true,
            spatial_grid: true,
            workers: 1,
            recycle_pools: true,
            profile: false,
        };
        // The per-trial plan depends only on (scenario, seed, level),
        // never the protocol, so every row faces the same schedule.
        let p1 = trial_fault_plan(&scenario, 107, 2);
        let p2 = trial_fault_plan(&scenario, 107, 2);
        assert!(!p1.is_empty());
        assert_eq!(p1.entries(), p2.entries());
        let a = run_fault_trials(Protocol::Aodv, &scenario, 2);
        let b = run_fault_trials(Protocol::Aodv, &scenario, 2);
        assert!(a.faults_injected > 0, "level 2 must actually inject faults");
        assert_eq!(a.faults_injected, b.faults_injected);
        assert_eq!(a.node_restarts, b.node_restarts);
        assert_eq!(a.delivery.mean(), b.delivery.mean());
        assert_eq!(a.latency.mean(), b.latency.mean());
    }

    #[test]
    fn threaded_trials_equal_sequential_aggregation() {
        let scenario = Scenario {
            n_nodes: 15,
            terrain: (700.0, 300.0),
            n_flows: 3,
            pause_secs: 0,
            duration_secs: 40,
            trials: 3,
            seed_base: 100,
            flavor: crate::scenario::SimFlavor::Default,
            audit: true,
            spatial_grid: true,
            workers: 1,
            recycle_pools: true,
            profile: false,
        };
        let threaded = run_trials(Protocol::Ldr, &scenario);
        let mut sequential = Summary::new(Protocol::Ldr.name());
        for k in 0..scenario.trials {
            let m = run_once(Protocol::Ldr, &scenario, trial_seed(scenario.seed_base, k));
            sequential.add(&m);
        }
        assert_eq!(threaded.trials(), sequential.trials());
        assert!(threaded.failed.is_empty());
        assert_eq!(threaded.delivery.mean(), sequential.delivery.mean());
        assert_eq!(threaded.latency.mean(), sequential.latency.mean());
        assert_eq!(threaded.net_load.mean(), sequential.net_load.mean());
        assert_eq!(threaded.rreq_tx.mean(), sequential.rreq_tx.mean());
        assert_eq!(threaded.loop_violations, sequential.loop_violations);
    }

    #[test]
    fn seeds_near_u64_max_wrap_without_panicking_or_colliding() {
        // The pre-PR-9 derivation `seed_base + k` aborted here in
        // debug builds and silently wrapped in release. Wrapping is
        // now the contract, and the seeds must stay pairwise distinct
        // across the boundary.
        let scenario = Scenario { seed_base: u64::MAX - 1, trials: 4, ..Scenario::n50(4, 0) };
        let seeds = trial_seeds(&scenario);
        assert_eq!(seeds, vec![u64::MAX - 1, u64::MAX, 0, 1]);
        assert_eq!(trial_seed(u64::MAX, 1), 0);
    }

    #[test]
    fn a_panicking_trial_is_recorded_and_the_rest_survive() {
        let scenario = Scenario {
            n_nodes: 15,
            terrain: (700.0, 300.0),
            n_flows: 3,
            pause_secs: 0,
            duration_secs: 30,
            trials: 3,
            seed_base: 100,
            flavor: crate::scenario::SimFlavor::Default,
            audit: false,
            spatial_grid: true,
            workers: 1,
            recycle_pools: true,
            profile: false,
        };
        let (summary, _) = run_trials_core(Protocol::Ldr, &scenario, &|k, seed| {
            if k == 1 {
                panic!("injected fault in trial {k}");
            }
            run_once(Protocol::Ldr, &scenario, seed)
        });
        assert_eq!(summary.trials(), 2, "the two healthy trials must complete");
        assert_eq!(summary.failed.len(), 1);
        assert_eq!(summary.failed[0].seed, trial_seed(scenario.seed_base, 1));
        assert!(summary.failed[0].panic_msg.contains("injected fault in trial 1"));
    }

    #[test]
    fn trial_pool_is_bounded_by_host_cores_not_trials_times_workers() {
        // More trials than this host has cores: an unbounded runner
        // would run all of them at once, one OS thread each.
        let scenario = Scenario {
            n_nodes: 15,
            terrain: (700.0, 300.0),
            n_flows: 3,
            pause_secs: 0,
            duration_secs: 30,
            trials: 5,
            seed_base: 100,
            flavor: crate::scenario::SimFlavor::Default,
            audit: false,
            spatial_grid: true,
            workers: 1,
            recycle_pools: true,
            profile: false,
        };
        let cores = crate::workpool::host_cores();
        let (summary, stats) = run_trials_core(Protocol::Aodv, &scenario, &|_k, seed| {
            run_once(Protocol::Aodv, &scenario, seed)
        });
        assert_eq!(summary.trials(), 5);
        assert!(
            stats.peak_live_workers <= cores,
            "peak live trial threads {} exceeded the host's {cores} cores",
            stats.peak_live_workers
        );
    }
}
