//! Per-layer metrics of the traced run: the kernel profiler's phases
//! mapped to the repository's layers by name, plus the spans measured
//! from outside ([`crate::spans`]) and the allocation counts.

use crate::alloc::Counts;
use crate::report::Metric;
use crate::spans::{self, Span, ROUTING_SPANS};
use manet_sim::metrics::Metrics;
use manet_sim::prof::{phase_name, ProfSnapshot, HIST_FEL_DEPTH};

/// A layer of the simulator that profiler time is charged to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// Future event list (`event`).
    Event,
    /// Radio: neighbour queries and the receive path (`spatial`).
    Phy,
    /// CSMA/CA MAC (`mac`).
    Mac,
    /// Routing protocol callbacks and timers (`ldr`, `manet_baselines`).
    Routing,
    /// Trace emission and telemetry sampling (`trace`, `telemetry`).
    Observability,
    /// The rest of `world`: traffic, faults, the parallel kernel.
    World,
    /// The kernel loop's own residue (loop control, FEL peeks); not a
    /// named layer.
    Residue,
    /// A phase this table does not know; counted, never dropped.
    Other,
}

/// Layers in report order, with their metric names.
pub const LAYERS: [(Layer, &str); 8] = [
    (Layer::Event, "event"),
    (Layer::Phy, "phy"),
    (Layer::Mac, "mac"),
    (Layer::Routing, "routing"),
    (Layer::Observability, "observability"),
    (Layer::World, "world"),
    (Layer::Residue, "residue"),
    (Layer::Other, "other"),
];

/// Profiler phase name → layer. Phases absent from the running
/// simulator are simply never looked up.
const PHASE_LAYERS: [(&str, Layer); 26] = [
    ("fel_push", Layer::Event),
    ("fel_pop", Layer::Event),
    ("neighbor_grid", Layer::Phy),
    ("neighbor_linear", Layer::Phy),
    ("protocol_callback", Layer::Routing),
    ("trace_emit", Layer::Observability),
    ("telemetry_sample", Layer::Observability),
    ("par_plan", Layer::World),
    ("par_build", Layer::World),
    ("par_execute", Layer::World),
    ("par_replay", Layer::World),
    ("kern_loop", Layer::Residue),
    ("dispatch_mac_kick", Layer::Mac),
    ("dispatch_tx_end", Layer::Mac),
    ("dispatch_rx_end", Layer::Phy),
    ("dispatch_rx_end_batch", Layer::Phy),
    ("dispatch_ack_timeout", Layer::Mac),
    ("dispatch_protocol_timer", Layer::Routing),
    ("dispatch_flow_packet", Layer::World),
    ("dispatch_flow_end", Layer::World),
    ("dispatch_app_send", Layer::World),
    ("dispatch_reboot", Layer::World),
    ("dispatch_fault", Layer::World),
    ("dispatch_fault_restart", Layer::World),
    ("dispatch_audit", Layer::World),
    ("dispatch_telemetry_sample", Layer::Observability),
];

/// The layer a profiler phase belongs to; unknown phases are `Other`.
pub fn layer_of(phase: &str) -> Layer {
    PHASE_LAYERS.iter().find(|(name, _)| *name == phase).map_or(Layer::Other, |&(_, l)| l)
}

/// Profiler snapshots of several runs, summed phase by phase.
#[derive(Clone, Debug, Default)]
pub struct Profile {
    nanos: Vec<(String, u64)>,
    counts: Vec<u64>,
    fel_depth: Vec<u64>,
    pool_hits: u64,
    pool_misses: u64,
}

impl Profile {
    /// Adds one run's snapshot.
    pub fn add(&mut self, snap: &ProfSnapshot) {
        if self.nanos.is_empty() {
            self.nanos = (0..snap.nanos.len()).map(|i| (phase_name(i), 0)).collect();
            self.counts = vec![0; snap.counts.len()];
        }
        for (acc, v) in self.nanos.iter_mut().zip(snap.nanos.iter()) {
            acc.1 += v;
        }
        for (acc, v) in self.counts.iter_mut().zip(snap.counts.iter()) {
            *acc += v;
        }
        let depth = &snap.hists[HIST_FEL_DEPTH];
        self.fel_depth.resize(self.fel_depth.len().max(depth.len()), 0);
        for (acc, v) in self.fel_depth.iter_mut().zip(depth.iter()) {
            *acc += v;
        }
        self.pool_hits += snap.pool_hits;
        self.pool_misses += snap.pool_misses;
    }

    fn phase(&self, name: &str) -> (u64, u64) {
        match self.nanos.iter().position(|(n, _)| n == name) {
            Some(i) => (self.counts[i], self.nanos[i].1),
            None => (0, 0),
        }
    }

    fn phases(&self, names: &[&str]) -> (u64, u64) {
        names.iter().map(|n| self.phase(n)).fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
    }

    /// Self nanoseconds per layer, in [`LAYERS`] order.
    pub fn layer_nanos(&self) -> [u64; LAYERS.len()] {
        let mut out = [0; LAYERS.len()];
        for (name, ns) in &self.nanos {
            let layer = layer_of(name);
            if let Some(i) = LAYERS.iter().position(|(l, _)| *l == layer) {
                out[i] += ns;
            }
        }
        out
    }

    /// Upper bound of the log2 FEL-depth bucket holding quantile `q`.
    fn fel_depth_quantile(&self, q: f64) -> u64 {
        let total: u64 = self.fel_depth.iter().sum();
        let rank = ((q * total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (bucket, &n) in self.fel_depth.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return if bucket == 0 { 0 } else { (1u64 << bucket) - 1 };
            }
        }
        0
    }
}

/// Everything the traced run gathered, beyond the profiler.
#[derive(Clone, Debug, Default)]
pub struct Traced {
    /// Summed profile of the traced runs.
    pub profile: Profile,
    /// Median set-up nanoseconds of one round.
    pub setup_ns: f64,
    /// Events executed by the traced runs.
    pub events: u64,
    /// Host nanoseconds of the bare runs of the same rounds.
    pub bare_ns: u64,
    /// Host nanoseconds of the traced runs.
    pub traced_ns: u64,
    /// Allocations made by the traced runs (`allocs` and `bytes`).
    pub alloc: Counts,
    /// Summed `Metrics` counters of the traced runs.
    pub retry_failures: u64,
    /// Summed interface-queue drops.
    pub ifq_drops: u64,
    /// Summed control transmissions.
    pub control_tx: u64,
    /// Summed deliveries.
    pub delivered: u64,
    /// Summed trace-document bytes.
    pub trace_bytes: u64,
    /// Summed telemetry samples.
    pub samples: u64,
    /// Summed series-rendering nanoseconds.
    pub series_ns: u64,
}

impl Traced {
    /// Adds one traced run's metric counters.
    pub fn add_metrics(&mut self, m: &Metrics) {
        self.retry_failures += m.mac_retry_failures;
        self.ifq_drops += m.ifq_drops;
        self.control_tx += m.total_control_tx();
        self.delivered += m.data_delivered;
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// The per-layer metrics. The wrapper spans ([`spans::tally`]) are read
/// from this thread's tallies, which must cover exactly the traced runs.
pub fn metrics(t: &Traced) -> Vec<Metric> {
    let p = &t.profile;
    let mut out = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        out.push(Metric { name: name.to_string(), value, unit });
    };
    let count = |n: u64| n as f64;

    put("world.setup_ns", t.setup_ns, "ns");
    put("world.events", count(t.events), "count");
    put("world.ns_per_event", ratio(t.bare_ns, t.events), "ns");

    let (push_n, push_ns) = p.phase("fel_push");
    let (pop_n, pop_ns) = p.phase("fel_pop");
    put("event.push.count", count(push_n), "count");
    put("event.push.ns", count(push_ns), "ns");
    put("event.pop.count", count(pop_n), "count");
    put("event.pop.ns", count(pop_ns), "ns");
    put("event.fel_depth.p50", count(p.fel_depth_quantile(0.50)), "count");
    put("event.fel_depth.p99", count(p.fel_depth_quantile(0.99)), "count");

    let (rx_n, rx_ns) = p.phases(&["dispatch_rx_end_batch", "dispatch_rx_end"]);
    let (nq_n, nq_ns) = p.phases(&["neighbor_grid", "neighbor_linear"]);
    put("phy.rx_batch.count", count(rx_n), "count");
    put("phy.rx_batch.ns", count(rx_ns), "ns");
    put("phy.neighbor_query.count", count(nq_n), "count");
    put("phy.neighbor_query.ns", count(nq_ns), "ns");
    put("phy.neighbor_linear.count", count(p.phase("neighbor_linear").0), "count");

    let (kick_n, kick_ns) = p.phase("dispatch_mac_kick");
    let (txe_n, txe_ns) = p.phase("dispatch_tx_end");
    let (ack_n, ack_ns) = p.phase("dispatch_ack_timeout");
    put("mac.kick.count", count(kick_n), "count");
    put("mac.kick.ns", count(kick_ns), "ns");
    put("mac.tx_end.count", count(txe_n), "count");
    put("mac.tx_end.ns", count(txe_ns), "ns");
    put("mac.ack_timeout.count", count(ack_n), "count");
    put("mac.ack_timeout.ns", count(ack_ns), "ns");
    put("mac.kicks_per_tx", ratio(kick_n, txe_n), "ratio");
    put("mac.retry_failures", count(t.retry_failures), "count");
    put("mac.ifq_drops", count(t.ifq_drops), "count");

    let mob = spans::tally(Span::Mobility);
    put("mobility.calls", count(mob.calls), "count");
    put("mobility.ns", count(mob.ns), "ns");

    for (span, name) in ROUTING_SPANS {
        let s = spans::tally(span);
        put(&format!("routing.{name}.calls"), count(s.calls), "count");
        put(&format!("routing.{name}.ns"), count(s.ns), "ns");
    }
    put("routing.control_tx", count(t.control_tx), "count");
    put("routing.control_tx_per_delivered", ratio(t.control_tx, t.delivered), "ratio");

    let rec = spans::tally(Span::TraceRecord);
    let (_, sample_ns) = p.phases(&["telemetry_sample", "dispatch_telemetry_sample"]);
    put("trace.records", count(rec.calls), "count");
    put("trace.record_ns", count(rec.ns), "ns");
    put("trace.emit.ns", count(p.phase("trace_emit").1), "ns");
    put("trace.bytes", count(t.trace_bytes), "B");
    put("telemetry.samples", count(t.samples), "count");
    put("telemetry.sample.ns", count(sample_ns), "ns");
    put("export.series_ns", count(t.series_ns), "ns");

    put("pool.hit_ratio", ratio(p.pool_hits, p.pool_hits + p.pool_misses), "ratio");
    put("alloc.per_event", ratio(t.alloc.allocs, t.events), "1/event");
    put("alloc.bytes_per_event", ratio(t.alloc.bytes, t.events), "B/event");

    let layers = p.layer_nanos();
    for ((_, name), ns) in LAYERS.iter().zip(layers) {
        put(&format!("layer.{name}.ns"), count(ns), "ns");
    }
    let named: u64 = LAYERS
        .iter()
        .zip(layers)
        .filter(|((l, _), _)| !matches!(l, Layer::Residue | Layer::Other))
        .map(|(_, ns)| ns)
        .sum();
    put("traced.overhead_frac", ratio(t.traced_ns, t.bare_ns) - 1.0, "frac");
    put("traced.attributed_frac", ratio(named + t.series_ns, t.traced_ns), "frac");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_sim::prof::N_PHASES;

    #[test]
    fn every_profiler_phase_has_a_layer() {
        for i in 0..N_PHASES {
            let name = phase_name(i);
            assert_ne!(layer_of(&name), Layer::Other, "{name} is unmapped");
        }
    }

    #[test]
    fn unknown_phases_count_as_other() {
        assert_eq!(layer_of("calendar_queue"), Layer::Other);
        let p = Profile {
            nanos: vec![("calendar_queue".into(), 7), ("fel_pop".into(), 5)],
            counts: vec![1, 1],
            ..Profile::default()
        };
        let by_layer = p.layer_nanos();
        assert_eq!(by_layer[0], 5);
        assert_eq!(by_layer[LAYERS.len() - 1], 7);
    }

    #[test]
    fn fel_depth_quantiles_read_bucket_bounds() {
        let p = Profile { fel_depth: vec![0, 10, 0, 80, 10], ..Profile::default() };
        assert_eq!(p.fel_depth_quantile(0.05), 1);
        assert_eq!(p.fel_depth_quantile(0.50), 7);
        assert_eq!(p.fel_depth_quantile(0.99), 15);
    }
}
