//! Simulator configuration.

use crate::faults::FaultPlan;
use crate::telemetry::TelemetryConfig;
use crate::time::SimDuration;

/// Physical- and link-layer parameters (an IEEE 802.11-DCF-style radio,
/// matching the evaluation's 275 m transmission range and 2 Mbit/s rate).
#[derive(Clone, Debug, PartialEq)]
pub struct PhyConfig {
    /// Transmission/carrier-sense range in metres (unit-disk).
    pub range_m: f64,
    /// Channel bit rate in bits per second.
    pub bandwidth_bps: u64,
    /// Backoff slot time.
    pub slot: SimDuration,
    /// Short inter-frame space (before ACKs).
    pub sifs: SimDuration,
    /// Distributed inter-frame space (before data/backoff).
    pub difs: SimDuration,
    /// Minimum contention window (slots, inclusive upper bound `cw`).
    pub cw_min: u32,
    /// Maximum contention window.
    pub cw_max: u32,
    /// Maximum transmission attempts for a unicast frame before the MAC
    /// declares the link broken.
    pub retry_limit: u32,
    /// Interface (transmit) queue capacity in frames.
    pub ifq_cap: usize,
    /// PLCP preamble + header airtime prepended to every frame.
    pub preamble: SimDuration,
    /// One-way propagation delay (constant; ≤ 275 m is under 1 µs).
    pub prop_delay: SimDuration,
    /// MAC framing overhead added to every payload frame, bytes.
    pub mac_header_bytes: usize,
    /// Size of an ACK frame, bytes.
    pub ack_bytes: usize,
    /// Physical capture: when two frames overlap at a receiver, the
    /// earlier frame survives if its transmitter is at least this
    /// factor closer than the interferer (≈ the SNR capture threshold
    /// of real radios and of GloMoSim's PHY). `None` disables capture:
    /// any overlap corrupts both frames.
    pub capture_distance_ratio: Option<f64>,
}

impl Default for PhyConfig {
    fn default() -> Self {
        PhyConfig {
            range_m: 275.0,
            bandwidth_bps: 2_000_000,
            slot: SimDuration::from_micros(20),
            sifs: SimDuration::from_micros(10),
            difs: SimDuration::from_micros(50),
            cw_min: 31,
            cw_max: 1023,
            retry_limit: 7,
            ifq_cap: 50,
            preamble: SimDuration::from_micros(192),
            prop_delay: SimDuration::from_micros(1),
            mac_header_bytes: 34,
            ack_bytes: 14,
            // Off by default: the recorded experiment results were
            // produced with overlap-corrupts-both physics. Enable for
            // more forgiving (capture-capable) radios.
            capture_distance_ratio: None,
        }
    }
}

impl PhyConfig {
    /// Airtime of a frame whose network-layer size is `bytes`
    /// (preamble + MAC framing + payload at the channel rate).
    pub fn tx_duration(&self, bytes: usize) -> SimDuration {
        let total_bits = (bytes + self.mac_header_bytes) as u64 * 8;
        let ns = total_bits * 1_000_000_000 / self.bandwidth_bps;
        self.preamble + SimDuration::from_nanos(ns)
    }

    /// Airtime of an ACK frame.
    pub fn ack_duration(&self) -> SimDuration {
        let ns = (self.ack_bytes as u64 * 8) * 1_000_000_000 / self.bandwidth_bps;
        self.preamble + SimDuration::from_nanos(ns)
    }

    /// How long a unicast sender waits for an ACK after its transmission
    /// ends before counting a failed attempt.
    pub fn ack_timeout(&self) -> SimDuration {
        self.sifs
            + self.ack_duration()
            + self.prop_delay.saturating_mul(2)
            + SimDuration::from_micros(5)
    }

    /// An alternate parameterisation used by the Fig. 6 cross-check
    /// (the paper re-ran one scenario in Qualnet 3.5.2; we emulate
    /// "a different simulator" with different contention timing).
    pub fn alt_flavor() -> Self {
        PhyConfig {
            cw_min: 15,
            cw_max: 1023,
            retry_limit: 6,
            preamble: SimDuration::from_micros(96),
            ..PhyConfig::default()
        }
    }
}

/// Whole-run configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct SimConfig {
    /// Radio/MAC parameters.
    pub phy: PhyConfig,
    /// Simulated run length (900 s in the paper).
    pub duration: SimDuration,
    /// Master seed; all randomness derives from it.
    pub seed: u64,
    /// If set, run the routing-loop auditor every interval (and record
    /// violations in the metrics).
    pub audit_interval: Option<SimDuration>,
    /// Audit after *every* protocol event (expensive; for tests).
    pub audit_every_event: bool,
    /// Run the every-mutation invariant auditor
    /// ([`crate::audit::InvariantAuditor`]): after each protocol
    /// callback, check fd-monotonicity-per-seqno and successor-graph
    /// acyclicity, and capture a forensic dump on the first violation.
    /// Much more expensive than `audit_every_event` alone; for tests
    /// and protocol debugging.
    pub invariant_audit: bool,
    /// Deterministic fault schedule executed by the event kernel
    /// ([`crate::faults`]). `None` runs fault-free.
    pub fault_plan: Option<FaultPlan>,
    /// Serve radio range queries from the spatial neighbor index
    /// ([`crate::spatial`]) instead of the O(N) all-nodes scan, and let
    /// the MAC elide provably no-op wake-up events. Grid-backed runs are
    /// byte-identical (metrics and trace) to linear-scan runs — the
    /// toggle only changes how fast the same answer is computed — so it
    /// defaults to on. Set `false` to force the reference linear scan
    /// (used by the differential tests and as the perfbench baseline).
    /// The grid also silently falls back to the linear scan when the
    /// mobility model cannot promise a finite speed bound
    /// ([`crate::mobility::MobilityModel::max_speed_mps`]).
    pub spatial_grid: bool,
    /// Observability layer ([`crate::telemetry`]): flight recorder and
    /// time-series sampler. `None` runs with telemetry fully off.
    /// Telemetry is observation-pure — enabling it may not change one
    /// observable bit of the run (metrics and trace are byte-identical
    /// either way; enforced by test).
    pub telemetry: Option<TelemetryConfig>,
    /// Ignored. The simulator has one sequential event loop; this
    /// field once sized a parallel kernel whose output was
    /// byte-identical for every worker count, so ignoring it changes
    /// nothing. It is kept only so the frozen `simbench/` harness,
    /// which sets it, still compiles, and goes when `simbench/` is
    /// next revised.
    pub workers: usize,
    /// Recycle hot-path buffers (protocol action lists, receiver
    /// batches) through [`crate::pool::VecPool`] free lists instead of
    /// allocating per event. Pooled runs are byte-identical (metrics,
    /// trace and telemetry) to unpooled runs — a recycled buffer is
    /// always handed out empty — so this defaults to on; the
    /// differential tests flip it off to diff against the
    /// allocate-per-event reference.
    pub recycle_pools: bool,
    /// Attach the deterministic kernel profiler ([`crate::prof`]):
    /// per-phase wall-time attribution, phase counts and a FEL-depth
    /// histogram, exported as `manet-prof` JSONL. The profiler is
    /// strictly observational — its wall-clock readings never feed
    /// simulation state, so a profiled run is byte-identical (metrics,
    /// trace and telemetry) to an unprofiled one (enforced by
    /// differential tests). Off by default; when off, no wall clock is
    /// ever read.
    pub profile: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            phy: PhyConfig::default(),
            duration: SimDuration::from_secs(900),
            seed: 1,
            audit_interval: None,
            audit_every_event: false,
            invariant_audit: false,
            fault_plan: None,
            spatial_grid: true,
            telemetry: None,
            workers: 1,
            recycle_pools: true,
            profile: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx_duration_scales_with_size() {
        let phy = PhyConfig::default();
        // 532-byte packet + 34-byte MAC header = 566 B = 4528 bits at
        // 2 Mb/s = 2264 µs, plus 192 µs preamble.
        let d = phy.tx_duration(532);
        assert_eq!(d.as_micros(), 2264 + 192);
        assert!(phy.tx_duration(100) < phy.tx_duration(500));
    }

    #[test]
    fn ack_shorter_than_data() {
        let phy = PhyConfig::default();
        assert!(phy.ack_duration() < phy.tx_duration(532));
        assert!(phy.ack_timeout() > phy.ack_duration());
    }

    #[test]
    fn default_matches_paper_parameters() {
        let phy = PhyConfig::default();
        assert_eq!(phy.range_m, 275.0);
        assert_eq!(phy.bandwidth_bps, 2_000_000);
        assert_eq!(phy.ifq_cap, 50);
        let cfg = SimConfig::default();
        assert_eq!(cfg.duration.as_secs_f64(), 900.0);
    }

    #[test]
    fn alt_flavor_differs() {
        assert_ne!(PhyConfig::alt_flavor(), PhyConfig::default());
    }
}
