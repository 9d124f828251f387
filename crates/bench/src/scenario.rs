//! Scenario and protocol definitions matching §4 of the paper.

use ldr::{Ldr, LdrConfig};
use manet_baselines::{Aodv, AodvConfig, Dsr, DsrConfig, Olsr, OlsrConfig};
use manet_sim::config::PhyConfig;
use manet_sim::geometry::Terrain;
use manet_sim::packet::NodeId;
use manet_sim::protocol::RoutingProtocol;

/// Which simulator parameterisation to emulate: the GloMoSim-style
/// default or the Qualnet-style alternate (Fig. 6 cross-check).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimFlavor {
    /// Default PHY/MAC timing.
    Default,
    /// Alternate contention timing ("a different simulator").
    Alt,
}

impl SimFlavor {
    /// The PHY configuration for this flavour.
    pub fn phy(self) -> PhyConfig {
        match self {
            SimFlavor::Default => PhyConfig::default(),
            SimFlavor::Alt => PhyConfig::alt_flavor(),
        }
    }
}

/// A protocol under evaluation (including ablation variants).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Protocol {
    /// LDR with all §4 optimisations (the paper's configuration).
    Ldr,
    /// LDR with every optimisation disabled (ablation baseline).
    LdrNoOpts,
    /// LDR with one optimisation disabled (ablation).
    LdrWithout(Ablation),
    /// AODV (draft 10).
    Aodv,
    /// AODV with §6.9 hello messages instead of pure link-layer
    /// feedback.
    AodvHello,
    /// DSR draft 3 (the GloMoSim runs).
    Dsr,
    /// DSR draft 7 flavour (the Qualnet cross-check).
    Dsr7,
    /// OLSR draft 6 with the paper's FIFO jitter queue.
    Olsr,
    /// OLSR without the jitter-queue fix (the "base OLSR").
    OlsrNoJitter,
}

/// One LDR optimisation to disable for ablation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ablation {
    /// Multiple RREPs per computation.
    MultipleRreps,
    /// Request-as-error.
    RequestAsError,
    /// Reduced (0.8×) answering distance.
    ReducedDistance,
    /// Minimum reply lifetime.
    MinimumLifetime,
    /// Optimal initial TTL.
    OptimalTtl,
}

impl Protocol {
    /// Display name.
    pub fn name(self) -> String {
        match self {
            Protocol::Ldr => "LDR".into(),
            Protocol::LdrNoOpts => "LDR-noopt".into(),
            Protocol::LdrWithout(a) => format!("LDR-{a:?}"),
            Protocol::Aodv => "AODV".into(),
            Protocol::AodvHello => "AODV-hello".into(),
            Protocol::Dsr => "DSR".into(),
            Protocol::Dsr7 => "DSR-d7".into(),
            Protocol::Olsr => "OLSR".into(),
            Protocol::OlsrNoJitter => "OLSR-nojit".into(),
        }
    }

    /// The four protocols of the paper's main comparison.
    pub const PAPER_SET: [Protocol; 4] =
        [Protocol::Ldr, Protocol::Aodv, Protocol::Dsr, Protocol::Olsr];

    /// A per-node factory for [`manet_sim::world::World::new`].
    pub fn factory(self) -> Box<dyn FnMut(NodeId, usize) -> Box<dyn RoutingProtocol>> {
        match self {
            Protocol::Ldr => Box::new(Ldr::factory(LdrConfig::default())),
            Protocol::LdrNoOpts => Box::new(Ldr::factory(LdrConfig::without_optimizations())),
            Protocol::LdrWithout(a) => {
                let mut cfg = LdrConfig::default();
                match a {
                    Ablation::MultipleRreps => cfg.opt_multiple_rreps = false,
                    Ablation::RequestAsError => cfg.opt_request_as_error = false,
                    Ablation::ReducedDistance => cfg.opt_reduced_distance = None,
                    Ablation::MinimumLifetime => cfg.opt_minimum_lifetime = false,
                    Ablation::OptimalTtl => cfg.opt_optimal_ttl = false,
                }
                Box::new(Ldr::factory(cfg))
            }
            Protocol::Aodv => Box::new(Aodv::factory(AodvConfig::default())),
            Protocol::AodvHello => {
                let cfg = AodvConfig {
                    hello_interval: Some(manet_sim::time::SimDuration::from_secs(1)),
                    ..AodvConfig::default()
                };
                Box::new(Aodv::factory(cfg))
            }
            Protocol::Dsr => Box::new(Dsr::factory(DsrConfig::draft3())),
            Protocol::Dsr7 => Box::new(Dsr::factory(DsrConfig::draft7())),
            Protocol::Olsr => Box::new(Olsr::factory(OlsrConfig::default())),
            Protocol::OlsrNoJitter => Box::new(Olsr::factory(OlsrConfig::without_jitter_queue())),
        }
    }
}

/// One evaluation configuration (a point on a figure's x axis).
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Number of nodes (50 or 100 in the paper).
    pub n_nodes: usize,
    /// Terrain in metres (1500×300 or 2200×600).
    pub terrain: (f64, f64),
    /// Concurrent CBR flows (10 or 30).
    pub n_flows: usize,
    /// Random-waypoint pause time in seconds.
    pub pause_secs: u64,
    /// Run length in seconds (900 in the paper).
    pub duration_secs: u64,
    /// Trials per configuration (10 in the paper).
    pub trials: u32,
    /// Base seed; trial `k` uses `seed_base.wrapping_add(k)`
    /// ([`crate::runner::trial_seed`]).
    pub seed_base: u64,
    /// Simulator flavour.
    pub flavor: SimFlavor,
    /// Run the loop auditor during the run (records violations).
    pub audit: bool,
    /// Serve range queries from the spatial neighbor grid
    /// ([`manet_sim::spatial`]). Byte-identical to the linear scan —
    /// only faster — so it defaults to on; perfbench flips it off to
    /// time the reference baseline.
    pub spatial_grid: bool,
    /// Ignored: the simulator has one sequential event loop. Kept only
    /// so the frozen `simbench/` harness, which copies it into
    /// [`manet_sim::config::SimConfig::workers`], still compiles; it
    /// goes when `simbench/` is next revised.
    pub workers: usize,
    /// Recycle hot-path buffers through the kernel's free lists
    /// ([`manet_sim::pool`]). Byte-identical to allocate-per-event —
    /// only faster — so it defaults to on; the pool differential tests
    /// flip it off to diff against the reference path.
    pub recycle_pools: bool,
    /// Attach the deterministic kernel profiler
    /// ([`manet_sim::prof`]): per-phase wall-time attribution plus
    /// deterministic counts and histograms, exported as `manet-prof`
    /// JSONL by [`crate::telemetry_export`]. Strictly observational —
    /// metrics, trace and series are byte-identical with this on or
    /// off (enforced by the prof purity tests) — and off by default.
    pub profile: bool,
}

impl Scenario {
    /// The paper's 50-node scenario: 1500 m × 300 m.
    pub fn n50(n_flows: usize, pause_secs: u64) -> Self {
        Scenario {
            n_nodes: 50,
            terrain: (1500.0, 300.0),
            n_flows,
            pause_secs,
            duration_secs: 900,
            trials: 10,
            seed_base: 1000,
            flavor: SimFlavor::Default,
            audit: false,
            spatial_grid: true,
            workers: 1,
            recycle_pools: true,
            profile: false,
        }
    }

    /// The paper's 100-node scenario: 2200 m × 600 m.
    pub fn n100(n_flows: usize, pause_secs: u64) -> Self {
        Scenario { n_nodes: 100, terrain: (2200.0, 600.0), ..Scenario::n50(n_flows, pause_secs) }
    }

    /// Scales the scenario down for quick/CI runs: shorter runs, fewer
    /// trials.
    pub fn quick(mut self) -> Self {
        self.duration_secs = 200;
        self.trials = 3;
        self
    }

    /// The terrain as a [`Terrain`].
    pub fn terrain(&self) -> Terrain {
        Terrain::new(self.terrain.0, self.terrain.1)
    }

    /// A stable label for file names and prof headers
    /// (`n<nodes>-f<flows>-p<pause>`), matching the perfbench case
    /// names.
    pub fn label(&self) -> String {
        format!("n{}-f{}-p{}", self.n_nodes, self.n_flows, self.pause_secs)
    }

    /// The paper's pause-time sweep.
    pub const PAUSE_SWEEP: [u64; 7] = [0, 30, 60, 120, 300, 600, 900];

    /// Reduced sweep for quick runs.
    pub const PAUSE_SWEEP_QUICK: [u64; 3] = [0, 120, 600];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scenarios_match_section4() {
        let s = Scenario::n50(10, 30);
        assert_eq!((s.n_nodes, s.n_flows, s.pause_secs), (50, 10, 30));
        assert_eq!(s.terrain, (1500.0, 300.0));
        assert_eq!((s.duration_secs, s.trials), (900, 10));
        let b = Scenario::n100(30, 0);
        assert_eq!(b.terrain, (2200.0, 600.0));
        assert_eq!(b.n_nodes, 100);
    }

    #[test]
    fn quick_scales_down() {
        let s = Scenario::n50(10, 0).quick();
        assert!(s.duration_secs < 900 && s.trials < 10);
        assert_eq!(s.n_nodes, 50, "topology untouched");
    }

    #[test]
    fn protocol_names_unique() {
        let names: Vec<String> = Protocol::PAPER_SET.iter().map(|p| p.name()).collect();
        let mut dedup = names.clone();
        dedup.dedup();
        assert_eq!(names, dedup);
    }

    #[test]
    fn factories_produce_correctly_named_protocols() {
        for (p, expect) in [
            (Protocol::Ldr, "LDR"),
            (Protocol::Aodv, "AODV"),
            (Protocol::Dsr, "DSR"),
            (Protocol::Olsr, "OLSR"),
        ] {
            let mut f = p.factory();
            assert_eq!(f(NodeId(0), 2).name(), expect);
        }
    }
}
