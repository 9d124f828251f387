//! Deterministic kernel profiler: per-phase wall-time attribution,
//! counts and histograms, exported as schema-versioned `manet-prof`
//! JSONL.
//!
//! Enabled by [`SimConfig::profile`](crate::config::SimConfig::profile)
//! (off by default). The profiler is *strictly observational*: its
//! wall-clock readings never feed simulation state, so runs with
//! profiling on are byte-identical (metrics, trace, telemetry) to runs
//! with it off — enforced by the on-vs-off differential tests in
//! `crates/bench/tests/prof_purity.rs`. When the flag is off every
//! hook is a single `Option` check; no `Instant` is ever read.
//!
//! # Attribution model
//!
//! The profiler keeps a span *stack*. [`Profiler::enter`] pushes a
//! phase, [`Profiler::exit`] pops it, and the wall time between any
//! two stack transitions accrues to the phase on top of the stack at
//! that moment — i.e. every phase is charged its **self time**
//! (exclusive of nested spans), so the per-phase nanoseconds sum to
//! exactly the measured total and nothing is double-counted. The
//! kernel run loop sits at the bottom of the stack as the
//! [`PHASE_KERN_LOOP`] frame; its self time is the only unnamed
//! residue (loop control, FEL peeks), and
//! [`ProfSnapshot::attribution`] reports the fraction of measured
//! time that landed in any *other* (named) phase.
//!
//! # Determinism contract
//!
//! The JSONL document has two sections:
//!
//! * `count` and `hist` lines are **deterministic**: they derive from
//!   hook-site counters and simulation quantities (FEL depth) only,
//!   so a rerun of the same
//!   `(config, seed)` reproduces them byte-for-byte
//!   ([`deterministic_section`] extracts exactly these lines, and the
//!   rerun-determinism test pins them);
//! * `timing` lines carry raw wall nanoseconds and are **not**
//!   byte-gated — two runs of the same configuration report different
//!   timings, which is the whole point.

use crate::event::Event;
use std::fmt::Write as _;
// xtask:allow(determinism): the profiler is the one sanctioned wall-clock reader in this crate; readings are observational only and never feed simulation state
use std::time::Instant;

/// Schema identifier of the profiler JSONL file.
pub const PROF_SCHEMA: &str = "manet-prof";
/// Schema version stamped into the header; bump on any field change.
/// Version 2 dropped the parallel-kernel phases, histograms and
/// counter, and the header's `workers` field.
pub const PROF_VERSION: u32 = 2;

/// FEL insertion (`EventQueue::schedule`).
pub const PHASE_FEL_PUSH: u16 = 0;
/// FEL extraction (`EventQueue::pop`), including the sift-down.
pub const PHASE_FEL_POP: u16 = 1;
/// Neighbor range query answered by the spatial grid.
pub const PHASE_NEIGHBOR_GRID: u16 = 2;
/// Neighbor range query answered by the linear all-nodes scan.
pub const PHASE_NEIGHBOR_LINEAR: u16 = 3;
/// Routing-protocol callback (`RoutingProtocol` handler execution).
pub const PHASE_PROTOCOL: u16 = 4;
/// Trace emission fan-out (flight recorder, auditor, trace sink).
pub const PHASE_TRACE_EMIT: u16 = 5;
/// Telemetry time-series sampling (`World::take_sample`).
pub const PHASE_TELEMETRY_SAMPLE: u16 = 6;
/// The kernel run loop itself — the bottom stack frame. Its self time
/// (loop control, FEL peeks) is the only *unattributed* residue; see
/// [`ProfSnapshot::attribution`].
pub const PHASE_KERN_LOOP: u16 = 7;
/// First per-event-kind dispatch phase; kind `k` is phase
/// `DISPATCH_BASE + k` (order of [`Event::KIND_NAMES`]).
pub const DISPATCH_BASE: u16 = 8;
/// Total number of phases (fixed phases plus one dispatch phase per
/// event kind).
pub const N_PHASES: usize = DISPATCH_BASE as usize + Event::KIND_COUNT;

/// Names of the fixed (non-dispatch) phases, in phase-id order.
pub const FIXED_PHASE_NAMES: [&str; DISPATCH_BASE as usize] = [
    "fel_push",
    "fel_pop",
    "neighbor_grid",
    "neighbor_linear",
    "protocol_callback",
    "trace_emit",
    "telemetry_sample",
    "kern_loop",
];

/// Stable wire name of a phase id.
pub fn phase_name(phase: usize) -> String {
    if phase < DISPATCH_BASE as usize {
        FIXED_PHASE_NAMES[phase].to_string()
    } else {
        let kind = (phase - DISPATCH_BASE as usize).min(Event::KIND_COUNT - 1);
        format!("dispatch_{}", Event::KIND_NAMES[kind])
    }
}

/// Number of log2 histogram buckets (enough for any u64 value).
pub const HIST_BUCKETS: usize = 32;

/// FEL-depth histogram index (depth observed at every pop).
pub const HIST_FEL_DEPTH: usize = 0;
/// Number of histograms.
pub const N_HISTS: usize = 1;

/// Names of the histograms, in index order.
pub const HIST_NAMES: [&str; N_HISTS] = ["fel_depth"];

/// A power-of-two histogram: bucket `i` counts values needing `i`
/// significant bits — bucket 0 holds `v == 0`, bucket `i` holds
/// `2^(i-1) ..= 2^i - 1` (bucket 1 is `1`, bucket 2 is `2..=3`, …) —
/// clamped into the last bucket.
fn hist_bucket(v: u64) -> usize {
    let b = (64 - v.leading_zeros()) as usize;
    b.min(HIST_BUCKETS - 1)
}

/// The live profiler attached to a `World` when
/// [`SimConfig::profile`](crate::config::SimConfig::profile) is on.
#[derive(Debug)]
pub struct Profiler {
    /// Wall-clock instant of the last stack transition.
    last: Instant,
    /// Active span stack (phase ids); self time accrues to the top.
    stack: Vec<u16>,
    nanos: [u64; N_PHASES],
    counts: [u64; N_PHASES],
    pool_hits: u64,
    pool_misses: u64,
    hists: [[u64; HIST_BUCKETS]; N_HISTS],
}

/// The single `Instant::now` read, centralized so the justified
/// determinism-lint allow covers exactly one call site.
#[inline]
fn read_wall_clock() -> Instant {
    // xtask:allow(determinism): sole wall-clock read of the profiler; the value is accumulated into observation-only counters and never compared against simulated time
    Instant::now()
}

impl Default for Profiler {
    fn default() -> Self {
        Profiler::new()
    }
}

impl Profiler {
    /// A fresh profiler with an empty span stack.
    pub fn new() -> Self {
        Profiler {
            last: read_wall_clock(),
            stack: Vec::with_capacity(8),
            nanos: [0; N_PHASES],
            counts: [0; N_PHASES],
            pool_hits: 0,
            pool_misses: 0,
            hists: [[0; HIST_BUCKETS]; N_HISTS],
        }
    }

    /// Accrues the time since the last transition to the current
    /// top-of-stack phase (discarded while the stack is empty — the
    /// kernel is not running then) and restarts the clock.
    #[inline]
    fn flush(&mut self) {
        let now = read_wall_clock();
        if let Some(&top) = self.stack.last() {
            self.nanos[top as usize] += (now - self.last).as_nanos() as u64;
        }
        self.last = now;
    }

    /// Opens a span: subsequent time accrues to `phase` until a nested
    /// span opens or this one exits. Also counts one entry.
    #[inline]
    pub fn enter(&mut self, phase: u16) {
        self.flush();
        self.stack.push(phase);
        self.counts[phase as usize] += 1;
    }

    /// Closes the innermost span.
    #[inline]
    pub fn exit(&mut self) {
        self.flush();
        self.stack.pop();
    }

    /// Retargets the innermost span to `phase` in a single flush: the
    /// sibling span opens exactly where the previous one closed, so —
    /// unlike an `exit` + `enter` pair — no parent-attributed gap is
    /// left between them. Used to fuse the kernel's per-event
    /// `fel_pop` → dispatch sequence.
    #[inline]
    pub fn switch(&mut self, phase: u16) {
        self.flush();
        match self.stack.last_mut() {
            Some(top) => *top = phase,
            None => self.stack.push(phase),
        }
        self.counts[phase as usize] += 1;
    }

    /// Counts one pool take: `hit` when the free list had a spare
    /// buffer to recycle, miss when the take allocated.
    #[inline]
    pub fn pool_event(&mut self, hit: bool) {
        if hit {
            self.pool_hits += 1;
        } else {
            self.pool_misses += 1;
        }
    }

    /// Records `v` into histogram `which` (see the `HIST_*` indices).
    #[inline]
    pub fn record_hist(&mut self, which: usize, v: u64) {
        if let Some(h) = self.hists.get_mut(which) {
            h[hist_bucket(v)] += 1;
        }
    }

    /// A copyable snapshot of everything accumulated so far. The
    /// caller supplies the kernel's own dispatch counters.
    pub fn snapshot(
        &self,
        dispatch_counts: [u64; Event::KIND_COUNT],
        events_executed: u64,
    ) -> ProfSnapshot {
        ProfSnapshot {
            nanos: self.nanos,
            counts: self.counts,
            pool_hits: self.pool_hits,
            pool_misses: self.pool_misses,
            hists: self.hists,
            dispatch_counts,
            events_executed,
        }
    }
}

/// An immutable snapshot of one run's profile, renderable as
/// `manet-prof` JSONL via [`prof_to_jsonl`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProfSnapshot {
    /// Self-time nanoseconds per phase (phase-id order).
    pub nanos: [u64; N_PHASES],
    /// Span entries per phase (phase-id order).
    pub counts: [u64; N_PHASES],
    /// Pool takes served from a recycled buffer.
    pub pool_hits: u64,
    /// Pool takes that allocated (including pools disabled).
    pub pool_misses: u64,
    /// The log2 histograms ([`HIST_NAMES`] order).
    pub hists: [[u64; HIST_BUCKETS]; N_HISTS],
    /// Kernel dispatch counters by event kind.
    pub dispatch_counts: [u64; Event::KIND_COUNT],
    /// Total events the kernel executed.
    pub events_executed: u64,
}

impl ProfSnapshot {
    /// Total measured kernel wall time: the sum of every phase's self
    /// time (self times are exclusive, so this is exact).
    pub fn total_nanos(&self) -> u64 {
        self.nanos.iter().sum()
    }

    /// Nanoseconds attributed to a *named* phase — everything except
    /// the [`PHASE_KERN_LOOP`] bottom-frame residue.
    pub fn attributed_nanos(&self) -> u64 {
        self.total_nanos() - self.nanos[PHASE_KERN_LOOP as usize]
    }

    /// Fraction of measured kernel wall time attributed to named
    /// phases (1.0 when nothing was measured). The acceptance gate
    /// requires ≥ 0.95 on the paper scenarios.
    pub fn attribution(&self) -> f64 {
        let total = self.total_nanos();
        if total == 0 {
            1.0
        } else {
            self.attributed_nanos() as f64 / total as f64
        }
    }
}

/// The prof file's header line.
pub fn prof_header(seed: u64, nodes: usize, protocol: &str, scenario: &str) -> String {
    format!(
        "{{\"schema\":\"{PROF_SCHEMA}\",\"version\":{PROF_VERSION},\"seed\":{seed},\"nodes\":{nodes},\"protocol\":\"{}\",\"scenario\":\"{}\"}}",
        crate::telemetry::json_escape(protocol),
        crate::telemetry::json_escape(scenario),
    )
}

/// Renders a snapshot as a `manet-prof/2` JSONL document: header,
/// then the deterministic `count` and `hist` sections, then the
/// non-gated `timing` section (see the module docs for the contract).
pub fn prof_to_jsonl(
    seed: u64,
    nodes: usize,
    protocol: &str,
    scenario: &str,
    snap: &ProfSnapshot,
) -> String {
    let mut out = prof_header(seed, nodes, protocol, scenario);
    out.push('\n');
    let mut i = 0u64;
    let count_line = |out: &mut String, i: &mut u64, name: &str, count: u64| {
        let _ =
            writeln!(out, "{{\"i\":{i},\"sect\":\"count\",\"name\":\"{name}\",\"count\":{count}}}");
        *i += 1;
    };
    for (p, name) in FIXED_PHASE_NAMES.iter().enumerate().take(DISPATCH_BASE as usize) {
        count_line(&mut out, &mut i, name, snap.counts[p]);
    }
    // Dispatch counts come from the kernel's own counters, which are
    // kept whether or not the profiler is attached.
    for (k, name) in Event::KIND_NAMES.iter().enumerate() {
        count_line(&mut out, &mut i, &format!("dispatch_{name}"), snap.dispatch_counts[k]);
    }
    count_line(&mut out, &mut i, "pool_hit", snap.pool_hits);
    count_line(&mut out, &mut i, "pool_miss", snap.pool_misses);
    count_line(&mut out, &mut i, "events_executed", snap.events_executed);
    for (h, name) in HIST_NAMES.iter().enumerate() {
        let buckets = &snap.hists[h];
        let last = buckets.iter().rposition(|&b| b > 0).map_or(0, |p| p + 1);
        let _ = write!(out, "{{\"i\":{i},\"sect\":\"hist\",\"name\":\"{name}\",\"buckets\":[");
        for (k, b) in buckets[..last].iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            let _ = write!(out, "{b}");
        }
        out.push_str("]}\n");
        i += 1;
    }
    let total = snap.total_nanos();
    for p in 0..N_PHASES {
        let _ = writeln!(
            out,
            "{{\"i\":{i},\"sect\":\"timing\",\"name\":\"{}\",\"nanos\":{}}}",
            phase_name(p),
            snap.nanos[p]
        );
        i += 1;
    }
    let _ = writeln!(out, "{{\"i\":{i},\"sect\":\"timing\",\"name\":\"total\",\"nanos\":{total}}}");
    out
}

/// The byte-gated part of a `manet-prof` document: the header plus
/// every `count` and `hist` line, with the wall-clock `timing` lines
/// stripped. Two runs of the same `(config, seed)` produce identical
/// deterministic sections (pinned by test); their timing sections
/// differ freely.
pub fn deterministic_section(doc: &str) -> String {
    let mut out = String::with_capacity(doc.len());
    for line in doc.lines() {
        if !line.contains("\"sect\":\"timing\"") {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled_snapshot() -> ProfSnapshot {
        let mut prof = Profiler::new();
        prof.enter(PHASE_KERN_LOOP);
        prof.enter(PHASE_FEL_POP);
        prof.exit();
        prof.enter(DISPATCH_BASE + 2);
        prof.enter(PHASE_PROTOCOL);
        prof.exit();
        prof.exit();
        prof.exit();
        prof.pool_event(true);
        prof.pool_event(false);
        prof.record_hist(HIST_FEL_DEPTH, 0);
        prof.record_hist(HIST_FEL_DEPTH, 5);
        let mut dispatch = [0u64; Event::KIND_COUNT];
        dispatch[2] = 1;
        prof.snapshot(dispatch, 1)
    }

    #[test]
    fn phase_names_are_unique_and_total() {
        let names: Vec<String> = (0..N_PHASES).map(phase_name).collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), N_PHASES, "duplicate phase names: {names:?}");
        assert_eq!(phase_name(PHASE_KERN_LOOP as usize), "kern_loop");
        assert_eq!(phase_name(DISPATCH_BASE as usize), "dispatch_mac_kick");
    }

    #[test]
    fn hist_buckets_follow_log2_of_v_plus_one() {
        assert_eq!(hist_bucket(0), 0);
        assert_eq!(hist_bucket(1), 1);
        assert_eq!(hist_bucket(2), 2);
        assert_eq!(hist_bucket(3), 2);
        assert_eq!(hist_bucket(4), 3);
        assert_eq!(hist_bucket(1023), 10);
        assert_eq!(hist_bucket(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn self_time_sums_to_total_and_counts_track_entries() {
        let snap = filled_snapshot();
        assert_eq!(snap.counts[PHASE_KERN_LOOP as usize], 1);
        assert_eq!(snap.counts[PHASE_FEL_POP as usize], 1);
        assert_eq!(snap.counts[PHASE_PROTOCOL as usize], 1);
        assert_eq!(snap.total_nanos(), snap.nanos.iter().sum::<u64>());
        assert!(snap.attribution() <= 1.0 && snap.attribution() >= 0.0);
        assert_eq!(snap.pool_hits, 1);
        assert_eq!(snap.pool_misses, 1);
    }

    #[test]
    fn jsonl_document_is_schema_versioned_and_sectioned() {
        let snap = filled_snapshot();
        let doc = prof_to_jsonl(42, 50, "LDR", "n50-f10-p0", &snap);
        let mut lines = doc.lines();
        let head = lines.next().expect("header");
        assert_eq!(
            head,
            "{\"schema\":\"manet-prof\",\"version\":2,\"seed\":42,\"nodes\":50,\"protocol\":\"LDR\",\"scenario\":\"n50-f10-p0\"}"
        );
        assert!(doc.contains("\"sect\":\"count\",\"name\":\"fel_push\""));
        assert!(doc.contains("\"sect\":\"count\",\"name\":\"dispatch_rx_end\",\"count\":1"));
        assert!(doc.contains("\"sect\":\"count\",\"name\":\"pool_hit\",\"count\":1"));
        assert!(doc.contains("\"sect\":\"hist\",\"name\":\"fel_depth\",\"buckets\":[1,0,0,1]"));
        assert!(doc.contains("\"sect\":\"timing\",\"name\":\"total\""));
        for line in doc.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert_eq!(line.matches('{').count(), line.matches('}').count(), "{line}");
        }
    }

    #[test]
    fn deterministic_section_strips_exactly_the_timing_lines() {
        let snap = filled_snapshot();
        let doc = prof_to_jsonl(42, 50, "LDR", "n50-f10-p0", &snap);
        let det = deterministic_section(&doc);
        assert!(!det.contains("\"sect\":\"timing\""));
        assert!(det.contains("\"schema\":\"manet-prof\""));
        assert!(det.contains("\"sect\":\"count\""));
        assert!(det.contains("\"sect\":\"hist\""));
        let stripped = doc.lines().count() - det.lines().count();
        assert_eq!(stripped, N_PHASES + 1, "one timing line per phase plus the total");
    }

    #[test]
    fn reruns_of_the_same_span_sequence_agree_on_the_deterministic_section() {
        let a = filled_snapshot();
        let b = filled_snapshot();
        let da = deterministic_section(&prof_to_jsonl(1, 2, "p", "s", &a));
        let db = deterministic_section(&prof_to_jsonl(1, 2, "p", "s", &b));
        assert_eq!(da, db, "counts and histograms must not depend on wall time");
    }
}
