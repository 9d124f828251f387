//! Aggregation and table formatting for the paper's six metrics.

use manet_sim::metrics::Metrics;
use manet_sim::stats::Accumulator;

/// The scoreboard's throughput figure: kernel events per *simulated*
/// second per core. Both inputs are deterministic (the kernel's event
/// counter and the cell's configuration), so — unlike a wall-clock
/// rate — the column reproduces byte-exactly on reruns and can live
/// in committed artifacts like `BENCH_6.json`-derived tables. The
/// kernel is one sequential event loop, so "per core" is per run.
pub fn events_per_simsec_core(events: u64, sim_secs: u64) -> f64 {
    if sim_secs == 0 {
        0.0
    } else {
        events as f64 / sim_secs as f64
    }
}

/// One trial that panicked instead of producing metrics. The runner
/// catches the unwind, records the cell here, and keeps the sweep
/// going — a single bad trial no longer discards every completed cell.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TrialFailure {
    /// The trial's seed, for exact reproduction with `run_once`.
    pub seed: u64,
    /// The panic payload, stringified.
    pub panic_msg: String,
}

/// Per-protocol aggregate over trials: the six §4 metrics plus the
/// Fig. 7 sequence-number measure and loop-audit results.
#[derive(Clone, Debug)]
pub struct Summary {
    /// Protocol display name.
    pub protocol: String,
    /// Packet delivery ratio.
    pub delivery: Accumulator,
    /// Mean data latency (seconds).
    pub latency: Accumulator,
    /// Control packets transmitted per received data packet.
    pub net_load: Accumulator,
    /// RREQs transmitted per received data packet.
    pub rreq_load: Accumulator,
    /// RREPs initiated per RREQ initiated.
    pub rrep_init: Accumulator,
    /// Usable RREPs received per RREQ initiated.
    pub rrep_recv: Accumulator,
    /// Mean own destination sequence number at run end (Fig. 7).
    pub mean_seqno: Accumulator,
    /// Hop-wise RREQ transmissions per run.
    pub rreq_tx: Accumulator,
    /// Total routing-loop audit violations across trials.
    pub loop_violations: u64,
    /// Total every-mutation invariant checks performed across trials.
    pub invariant_checks: u64,
    /// Total invariant breaches (fd regressions + loops) found across
    /// trials.
    pub invariant_breaches: u64,
    /// Total fault-plan actions the kernel fired across trials.
    pub faults_injected: u64,
    /// Total crash/restart recoveries across trials.
    pub node_restarts: u64,
    /// Trials that panicked; excluded from every accumulator above.
    pub failed: Vec<TrialFailure>,
}

impl Summary {
    /// An empty summary for a protocol.
    pub fn new(protocol: impl Into<String>) -> Self {
        Summary {
            protocol: protocol.into(),
            delivery: Accumulator::new(),
            latency: Accumulator::new(),
            net_load: Accumulator::new(),
            rreq_load: Accumulator::new(),
            rrep_init: Accumulator::new(),
            rrep_recv: Accumulator::new(),
            mean_seqno: Accumulator::new(),
            rreq_tx: Accumulator::new(),
            loop_violations: 0,
            invariant_checks: 0,
            invariant_breaches: 0,
            faults_injected: 0,
            node_restarts: 0,
            failed: Vec::new(),
        }
    }

    /// Records a panicked trial (does not touch the metric
    /// accumulators — a failed trial produced none).
    pub fn record_failure(&mut self, seed: u64, panic_msg: String) {
        self.failed.push(TrialFailure { seed, panic_msg });
    }

    /// Folds one trial's metrics in.
    pub fn add(&mut self, m: &Metrics) {
        self.delivery.push(m.delivery_ratio());
        self.latency.push(m.mean_latency_s());
        self.net_load.push(m.network_load());
        self.rreq_load.push(m.rreq_load());
        self.rrep_init.push(m.rrep_init_per_rreq());
        self.rrep_recv.push(m.rrep_recv_per_rreq());
        self.mean_seqno.push(m.mean_own_seqno);
        self.rreq_tx.push(m.rreq_tx() as f64);
        self.loop_violations += m.loop_violations;
        self.invariant_checks += m.invariant_checks;
        self.invariant_breaches += m.invariant_breaches;
        self.faults_injected += m.faults_injected;
        self.node_restarts += m.node_restarts;
    }

    /// Merges another summary of the same protocol (e.g. across pause
    /// times, as Table 1 averages "over all pause times and both
    /// 50-node and 100-node scenarios").
    pub fn merge(&mut self, other: &Summary) {
        fn fold(into: &mut Accumulator, from: &Accumulator) {
            // Accumulators don't retain samples; re-add the mean per
            // trial to preserve weighting by trial count.
            for _ in 0..from.count() {
                into.push(from.mean());
            }
        }
        fold(&mut self.delivery, &other.delivery);
        fold(&mut self.latency, &other.latency);
        fold(&mut self.net_load, &other.net_load);
        fold(&mut self.rreq_load, &other.rreq_load);
        fold(&mut self.rrep_init, &other.rrep_init);
        fold(&mut self.rrep_recv, &other.rrep_recv);
        fold(&mut self.mean_seqno, &other.mean_seqno);
        fold(&mut self.rreq_tx, &other.rreq_tx);
        self.loop_violations += other.loop_violations;
        self.invariant_checks += other.invariant_checks;
        self.invariant_breaches += other.invariant_breaches;
        self.faults_injected += other.faults_injected;
        self.node_restarts += other.node_restarts;
        self.failed.extend(other.failed.iter().cloned());
    }

    /// Number of trials folded in.
    pub fn trials(&self) -> u64 {
        self.delivery.count()
    }

    /// One formatted row of the Table-1-style report.
    pub fn table_row(&self) -> String {
        format!(
            "{:<12} {:>16} {:>16} {:>16} {:>16} {:>14} {:>14}",
            self.protocol,
            self.delivery.display(3),
            self.latency.display(3),
            self.net_load.display(2),
            self.rreq_load.display(2),
            self.rrep_init.display(2),
            self.rrep_recv.display(2),
        )
    }
}

/// Prints a Table-1-style block (header plus one row per summary).
pub fn print_table(title: &str, rows: &[Summary]) {
    println!("\n=== {title} ===");
    println!(
        "{:<12} {:>16} {:>16} {:>16} {:>16} {:>14} {:>14}",
        "protocol", "delivery", "latency(s)", "net load", "RREQ load", "RREP init", "RREP recv"
    );
    for r in rows {
        println!("{}", r.table_row());
    }
}

/// Prints a figure-style series: `x` (pause time) against a metric
/// column per protocol, with CI half-widths.
pub fn print_series(
    title: &str,
    xlabel: &str,
    xs: &[u64],
    protocols: &[String],
    cells: &[Vec<(f64, f64)>],
) {
    println!("\n=== {title} ===");
    print!("{xlabel:>10}");
    for p in protocols {
        print!(" {p:>22}");
    }
    println!();
    for (i, x) in xs.iter().enumerate() {
        print!("{x:>10}");
        for cell in cells {
            let (mean, ci) = cell[i];
            print!(" {:>13.4} ±{:>6.4}", mean, ci);
        }
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_sim::time::SimDuration;

    fn metrics(delivered: u64, originated: u64) -> Metrics {
        let mut m = Metrics::new();
        m.data_originated = originated;
        for i in 0..delivered {
            m.record_delivery(1, i as u32, SimDuration::from_millis(20));
        }
        m
    }

    #[test]
    fn add_accumulates_ratios() {
        let mut s = Summary::new("X");
        s.add(&metrics(90, 100));
        s.add(&metrics(80, 100));
        assert_eq!(s.trials(), 2);
        assert!((s.delivery.mean() - 0.85).abs() < 1e-12);
    }

    #[test]
    fn merge_preserves_trial_weighting() {
        let mut a = Summary::new("X");
        a.add(&metrics(100, 100));
        let mut b = Summary::new("X");
        b.add(&metrics(50, 100));
        b.add(&metrics(50, 100));
        a.merge(&b);
        assert_eq!(a.trials(), 3);
        // (1.0 + 0.5 + 0.5) / 3
        assert!((a.delivery.mean() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn audit_counters_accumulate_and_merge() {
        let mut m = metrics(10, 10);
        m.invariant_checks = 5;
        m.invariant_breaches = 1;
        let mut a = Summary::new("X");
        a.add(&m);
        a.add(&m);
        assert_eq!(a.invariant_checks, 10);
        assert_eq!(a.invariant_breaches, 2);
        let mut b = Summary::new("X");
        b.add(&m);
        a.merge(&b);
        assert_eq!(a.invariant_checks, 15);
        assert_eq!(a.invariant_breaches, 3);
    }

    #[test]
    fn failures_are_recorded_without_skewing_accumulators() {
        let mut a = Summary::new("X");
        a.add(&metrics(90, 100));
        a.record_failure(41, "index out of bounds".to_string());
        assert_eq!(a.trials(), 1, "a failed trial contributes no samples");
        assert_eq!(a.failed.len(), 1);
        let mut b = Summary::new("X");
        b.record_failure(77, "boom".to_string());
        a.merge(&b);
        assert_eq!(a.failed.len(), 2);
        assert_eq!(a.failed[1], TrialFailure { seed: 77, panic_msg: "boom".to_string() });
    }

    #[test]
    fn table_row_contains_protocol_and_ci() {
        let mut s = Summary::new("LDR");
        s.add(&metrics(90, 100));
        s.add(&metrics(95, 100));
        let row = s.table_row();
        assert!(row.starts_with("LDR"));
        assert!(row.contains('±'));
    }
}
