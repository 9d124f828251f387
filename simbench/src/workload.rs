//! The three workloads and how one run of them is built, executed and
//! checked.
//!
//! A run is built exactly as `ldr_bench::runner::build_world_telemetry`
//! builds a trial (same config, mobility and traffic), except that in
//! [`Mode::Traced`] the mobility model, every protocol instance and the
//! trace sink are wrapped in the timing spans of [`crate::spans`] and the
//! kernel profiler is switched on. The run advances in 1-simulated-second
//! `World::run_until` slices, each timed.

use crate::spans::{TimedMobility, TimedRouting, TimedSink};
use ldr_bench::runner::trial_fault_plan;
use ldr_bench::scenario::{Protocol, Scenario};
use manet_sim::config::SimConfig;
use manet_sim::metrics::Metrics;
use manet_sim::mobility::{MobilityModel, RandomWaypoint};
use manet_sim::prof::ProfSnapshot;
use manet_sim::rng::SimRng;
use manet_sim::telemetry::{series_to_jsonl, JsonlTrace, TelemetryConfig};
use manet_sim::time::{SimDuration, SimTime};
use manet_sim::traffic::TrafficConfig;
use manet_sim::world::World;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Workload names, in report order.
pub const NAMES: [&str; 3] = ["mobile-dense", "proactive-olsr", "static-traced"];

/// One named workload.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Name given on the command line.
    pub name: &'static str,
    /// Scenario of every run; `duration_secs` is the run length.
    pub scenario: Scenario,
    /// Protocols run back to back in each round, one run each.
    pub protocols: &'static [Protocol],
    /// Fault intensity of `trial_fault_plan`, if the runs are faulted.
    pub fault_level: Option<u32>,
    /// Attach a JSONL trace sink and default telemetry, and render the
    /// trace and series documents after the run.
    pub observe: bool,
    /// Host seconds one round took on the reference host (2-core x86-64
    /// VM); sizes the fixed number of rounds a run measures.
    pub round_s: f64,
}

impl Workload {
    /// The workload called `name`.
    pub fn named(name: &str) -> Option<Workload> {
        let w = match name {
            // The paper's heaviest cell: every node always moving, 30
            // flows; event queue, PHY and MAC dominate.
            "mobile-dense" => Workload {
                name: "mobile-dense",
                scenario: Scenario { duration_secs: 60, ..Scenario::n100(30, 0) },
                protocols: &[Protocol::Ldr, Protocol::Aodv, Protocol::Dsr],
                fault_level: None,
                observe: false,
                round_s: 3.0,
            },
            // Proactive routing: MPR and route recomputation dominate.
            "proactive-olsr" => Workload {
                name: "proactive-olsr",
                scenario: Scenario { duration_secs: 300, ..Scenario::n50(10, 0) },
                protocols: &[Protocol::Olsr],
                fault_level: None,
                observe: false,
                round_s: 0.8,
            },
            // Stationary nodes under faults with the forensic export on;
            // observability does a large share of the work.
            "static-traced" => {
                let secs = 300;
                Workload {
                    name: "static-traced",
                    scenario: Scenario { duration_secs: secs, ..Scenario::n50(10, secs) },
                    protocols: &[Protocol::Ldr, Protocol::Aodv],
                    fault_level: Some(1),
                    observe: true,
                    round_s: 0.6,
                }
            }
            _ => return None,
        };
        Some(w)
    }

    /// Simulated seconds of one run.
    pub fn secs(&self) -> u64 {
        self.scenario.duration_secs
    }

    /// Rounds that take about `seconds` on the reference host (at least
    /// one). The count depends on `seconds` alone, never on how fast
    /// this host or this build happens to be, so two builds measured at
    /// one seed always do the same work.
    pub fn rounds_for(&self, seconds: f64) -> u32 {
        (seconds / self.round_s).ceil().max(1.0) as u32
    }

    /// The same workload with runs of `secs` simulated seconds (tests).
    pub fn with_secs(mut self, secs: u64) -> Workload {
        self.scenario.duration_secs = secs;
        if self.scenario.pause_secs > 0 {
            self.scenario.pause_secs = secs;
        }
        self
    }
}

/// How a run is instrumented.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// No benchmark spans and no profiler: what the end-to-end metrics
    /// time.
    Bare,
    /// The kernel profiler alone (lets tests separate the profiler from
    /// the wrappers).
    Profiled,
    /// Profiler plus the timing wrappers: what the per-layer metrics
    /// read.
    Traced,
}

/// The seed of round `round` of a benchmark run started with `seed`.
pub fn round_seed(seed: u64, round: u32) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(u64::from(round))
}

/// A built, not yet run, world.
pub struct Built {
    world: World,
    sink: Option<Arc<Mutex<JsonlTrace>>>,
    seed: u64,
}

/// Builds one run: mobility, `World::new`, CBR traffic, fault plan and
/// trace sink. This is what `setup_s` times.
pub fn build(w: &Workload, protocol: Protocol, seed: u64, mode: Mode) -> Built {
    let s = &w.scenario;
    let cfg = SimConfig {
        phy: s.flavor.phy(),
        duration: SimDuration::from_secs(s.duration_secs),
        seed,
        fault_plan: w.fault_level.map(|level| trial_fault_plan(s, seed, level)),
        spatial_grid: s.spatial_grid,
        telemetry: w.observe.then(TelemetryConfig::default),
        workers: s.workers,
        recycle_pools: s.recycle_pools,
        profile: mode != Mode::Bare,
        ..SimConfig::default()
    };
    let rwp = RandomWaypoint::new(
        s.n_nodes,
        s.terrain(),
        SimDuration::from_secs(s.pause_secs),
        1.0,
        20.0,
        SimRng::stream(seed, "mobility"),
    );
    let traced = mode == Mode::Traced;
    let mobility: Box<dyn MobilityModel> =
        if traced { Box::new(TimedMobility(Box::new(rwp))) } else { Box::new(rwp) };
    let mut factory = protocol.factory();
    let mut world = World::new(cfg, mobility, |id, n| {
        let p = factory(id, n);
        if traced {
            Box::new(TimedRouting(p))
        } else {
            p
        }
    });
    world.with_cbr(TrafficConfig::paper(s.n_flows));
    let sink = w.observe.then(|| {
        let sink = JsonlTrace::shared(seed, s.n_nodes);
        let boxed = Box::new(sink.clone());
        world.set_trace(if traced { Box::new(TimedSink(boxed)) } else { boxed });
        sink
    });
    Built { world, sink, seed }
}

impl Built {
    /// The configured world, for callers that run it themselves.
    pub fn into_world(self) -> World {
        self.world
    }
}

/// What one run produced.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// The run's metrics.
    pub metrics: Metrics,
    /// `World::events_executed`.
    pub events: u64,
    /// The kernel profiler's snapshot, when the profiler was on.
    pub prof: Option<ProfSnapshot>,
    /// Host nanoseconds of each 1-simulated-second slice.
    pub slice_ns: Vec<u64>,
    /// Host nanoseconds of the whole run after set-up: slices,
    /// finalisation and, when observed, rendering the documents.
    pub run_ns: u64,
    /// Observed runs only: the rendered export and its checks.
    pub export: Option<Export>,
}

/// The forensic export of an observed run.
#[derive(Clone, Debug)]
pub struct Export {
    /// Nanoseconds spent rendering the series document.
    pub series_ns: u64,
    /// `World::trace_events`: protocol trace events emitted.
    pub trace_events: u64,
    /// Event lines the trace sink wrote (`JsonlTrace::lines`).
    pub trace_lines: u64,
    /// Event lines counted in the copied trace document.
    pub trace_doc_lines: u64,
    /// Bytes of the trace document.
    pub trace_bytes: u64,
    /// Samples the sampler took.
    pub samples: u64,
    /// Sample lines counted in the rendered series document.
    pub series_doc_lines: u64,
    /// The configured sampling interval.
    pub interval: SimDuration,
}

/// Runs a built world to the end of the workload in 1-second slices.
pub fn run(built: Built, w: &Workload) -> Outcome {
    let Built { mut world, sink, seed } = built;
    let secs = w.secs();
    let mut slice_ns = Vec::with_capacity(secs as usize);
    let t_run = Instant::now();
    for s in 1..=secs {
        let t0 = Instant::now();
        world.run_until(SimTime::from_secs(s));
        slice_ns.push(t0.elapsed().as_nanos() as u64);
    }
    world.finalize();
    let export = sink.map(|sink| {
        let t0 = Instant::now();
        let interval = world.sample_interval().unwrap_or(SimDuration::from_secs(1));
        let series = series_to_jsonl(seed, interval, world.telemetry_series());
        let series_ns = t0.elapsed().as_nanos() as u64;
        let (trace, trace_lines) = match sink.lock() {
            Ok(g) => (g.contents().to_string(), g.lines()),
            Err(poisoned) => {
                let g = poisoned.into_inner();
                (g.contents().to_string(), g.lines())
            }
        };
        Export {
            series_ns,
            trace_events: world.trace_events(),
            trace_lines,
            trace_doc_lines: count_lines(&trace).saturating_sub(1),
            trace_bytes: trace.len() as u64,
            samples: world.telemetry_series().len() as u64,
            series_doc_lines: count_lines(&series).saturating_sub(1),
            interval,
        }
    });
    let run_ns = t_run.elapsed().as_nanos() as u64;
    Outcome {
        metrics: world.metrics().clone(),
        events: world.events_executed(),
        prof: world.prof_snapshot(),
        slice_ns,
        run_ns,
        export,
    }
}

fn count_lines(doc: &str) -> u64 {
    doc.bytes().filter(|&b| b == b'\n').count() as u64
}

/// Checks that do not need a second run: the run covered the whole
/// workload, moved traffic, and (when observed) exported consistent
/// documents. Returns the first failed check.
pub fn check(w: &Workload, out: &Outcome) -> Result<(), String> {
    let m = &out.metrics;
    let secs = w.secs();
    if m.sim_seconds != secs as f64 {
        return Err(format!("ran {} simulated seconds, expected {secs}", m.sim_seconds));
    }
    if m.data_originated == 0 || m.data_delivered == 0 {
        return Err("no traffic was originated or delivered".into());
    }
    if m.data_delivered > m.data_originated {
        return Err("delivered more packets than were originated".into());
    }
    if out.events == 0 {
        return Err("kernel executed no events".into());
    }
    if out.slice_ns.len() as u64 != secs {
        return Err(format!("timed {} slices, expected {secs}", out.slice_ns.len()));
    }
    match (&out.export, w.observe) {
        (None, false) => Ok(()),
        (None, true) => Err("observed workload produced no export".into()),
        (Some(_), false) => Err("unobserved workload produced an export".into()),
        (Some(x), true) => check_export(secs, x),
    }
}

fn check_export(secs: u64, x: &Export) -> Result<(), String> {
    if x.trace_doc_lines != x.trace_lines {
        return Err(format!(
            "trace document holds {} event lines, sink wrote {}",
            x.trace_doc_lines, x.trace_lines
        ));
    }
    // The sink also receives the kernel's packet-lifecycle events, so
    // protocol trace events are a subset of its lines.
    if x.trace_lines < x.trace_events || x.trace_lines == 0 {
        return Err(format!(
            "trace holds {} lines for {} protocol trace events",
            x.trace_lines, x.trace_events
        ));
    }
    let expect = SimDuration::from_secs(secs).as_nanos() / x.interval.as_nanos().max(1);
    if x.samples != expect || x.series_doc_lines != expect {
        return Err(format!(
            "series has {} samples ({} lines), expected {expect}",
            x.samples, x.series_doc_lines
        ));
    }
    Ok(())
}

/// A canonical 64-bit digest of every public `Metrics` field (FNV-1a
/// over a fixed rendering; maps in key order), for pinned references.
pub fn digest(m: &Metrics) -> u64 {
    fn sorted<K: std::fmt::Debug>(map: impl Iterator<Item = (K, u64)>) -> String {
        let mut v: Vec<String> = map.map(|(k, n)| format!("{k:?}={n}")).collect();
        v.sort();
        v.join(",")
    }
    let text = format!(
        "{} {} {} {} {:x} [{}] [{}] [{}] [{}] {} {} {} {} {} {} {} {} {:x} {:x}",
        m.data_originated,
        m.data_delivered,
        m.duplicate_deliveries,
        m.data_tx_hops,
        m.latency_sum_s.to_bits(),
        sorted(m.control_tx.iter().map(|(k, v)| (k, *v))),
        sorted(m.control_init.iter().map(|(k, v)| (k, *v))),
        sorted(m.drops.iter().map(|(k, v)| (k, *v))),
        sorted(m.proto.iter().map(|(k, v)| (k, *v))),
        m.ifq_drops,
        m.mac_retry_failures,
        m.collisions,
        m.loop_violations,
        m.invariant_checks,
        m.invariant_breaches,
        m.faults_injected,
        m.node_restarts,
        m.mean_own_seqno.to_bits(),
        m.sim_seconds.to_bits(),
    );
    text.bytes()
        .fold(0xcbf2_9ce4_8422_2325_u64, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}
