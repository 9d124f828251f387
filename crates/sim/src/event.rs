//! The future event list (FEL) of the discrete-event kernel.

use crate::packet::NodeId;
use crate::time::SimTime;

/// A scheduled occurrence in the simulator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// Re-evaluate a node's MAC state machine (backoff expiry, queue
    /// service, medium re-check).
    MacKick(NodeId),
    /// A node's transmission finishes.
    TxEnd {
        /// Transmitting node.
        node: NodeId,
        /// Transmission id.
        tx_id: u64,
    },
    /// A frame finishes arriving at a receiver.
    RxEnd {
        /// Receiving node.
        node: NodeId,
        /// Transmission id.
        tx_id: u64,
    },
    /// A frame finishes arriving at *every* receiver of one
    /// transmission (fast-path form of `RxEnd`; see
    /// `World::propagate`). All of a transmission's receptions end at
    /// the same instant and were scheduled back to back, so replacing
    /// the per-receiver events with one batch — processed in the same
    /// ascending receiver order — is observation-equivalent and spares
    /// the event queue its largest event class.
    RxEndBatch {
        /// Transmission id.
        tx_id: u64,
    },
    /// A unicast sender's ACK wait expires.
    AckTimeout {
        /// Waiting sender.
        node: NodeId,
        /// Transmission id awaited.
        tx_id: u64,
    },
    /// A routing-protocol timer fires.
    ProtocolTimer {
        /// Owning node.
        node: NodeId,
        /// Protocol-chosen token.
        token: u64,
    },
    /// A CBR flow emits its next packet.
    FlowPacket {
        /// Flow slot index.
        flow: u32,
    },
    /// A CBR flow ends and is replaced.
    FlowEnd {
        /// Flow slot index.
        flow: u32,
    },
    /// A manually scheduled application packet (tests/examples).
    AppSend {
        /// Index into the manual packet list.
        idx: u32,
    },
    /// A node crashes and restarts, losing volatile protocol state.
    Reboot {
        /// The rebooting node.
        node: NodeId,
    },
    /// A scheduled fault-plan action fires
    /// (see [`crate::faults::FaultPlan`]).
    Fault {
        /// Index into the plan's entry list.
        idx: u32,
    },
    /// A crashed node comes back up with total state loss (scheduled by
    /// [`crate::faults::FaultAction::CrashRestart`]).
    FaultRestart {
        /// The restarting node.
        node: NodeId,
    },
    /// Periodic audit hook (loop checking, sampling).
    Audit,
    /// Periodic time-series telemetry sample
    /// (see [`crate::telemetry`]). The handler only snapshots kernel
    /// state and schedules its own successor — it draws no randomness
    /// and mutates nothing observable, so attaching the sampler cannot
    /// change a run's metrics or trace.
    TelemetrySample,
}

impl Event {
    /// Number of event kinds (for fixed-size per-kind counters).
    pub const KIND_COUNT: usize = 14;

    /// Stable wire names of the event kinds, indexed by
    /// [`Event::kind_index`]. Order is the enum's declaration order;
    /// appending a variant appends a name (telemetry schema stability).
    pub const KIND_NAMES: [&'static str; Self::KIND_COUNT] = [
        "mac_kick",
        "tx_end",
        "rx_end",
        "rx_end_batch",
        "ack_timeout",
        "protocol_timer",
        "flow_packet",
        "flow_end",
        "app_send",
        "reboot",
        "fault",
        "fault_restart",
        "audit",
        "telemetry_sample",
    ];

    /// Index of this event's kind into [`Event::KIND_NAMES`].
    pub fn kind_index(&self) -> usize {
        match self {
            Event::MacKick(_) => 0,
            Event::TxEnd { .. } => 1,
            Event::RxEnd { .. } => 2,
            Event::RxEndBatch { .. } => 3,
            Event::AckTimeout { .. } => 4,
            Event::ProtocolTimer { .. } => 5,
            Event::FlowPacket { .. } => 6,
            Event::FlowEnd { .. } => 7,
            Event::AppSend { .. } => 8,
            Event::Reboot { .. } => 9,
            Event::Fault { .. } => 10,
            Event::FaultRestart { .. } => 11,
            Event::Audit => 12,
            Event::TelemetrySample => 13,
        }
    }
}

/// FEL entry: ordered by time, then by insertion sequence (FIFO among
/// simultaneous events, which keeps runs deterministic).
#[derive(Clone, Debug)]
struct Scheduled {
    at: SimTime,
    seq: u64,
    event: Event,
}

/// A time-ordered queue of future events.
///
/// ```
/// use manet_sim::event::{Event, EventQueue};
/// use manet_sim::packet::NodeId;
/// use manet_sim::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_secs(2), Event::Audit);
/// q.schedule(SimTime::from_secs(1), Event::MacKick(NodeId(0)));
/// let (t, e) = q.pop().unwrap();
/// assert_eq!(t, SimTime::from_secs(1));
/// assert_eq!(e, Event::MacKick(NodeId(0)));
/// ```
#[derive(Debug, Default)]
pub struct EventQueue {
    /// 4-ary min-heap on `(at, seq)`. The FEL's pop order is a unique
    /// total order (every entry has a distinct `seq`), so any correct
    /// priority queue yields the identical event sequence; a 4-ary
    /// layout halves the tree height vs the binary `BinaryHeap` and
    /// measurably cuts pop cost, the kernel's hottest operation at
    /// paper scale.
    heap: Vec<Scheduled>,
    next_seq: u64,
}

/// Heap arity. Four children per node: shallower sift-downs, and the
/// children of node `i` (`4i+1 .. 4i+4`) share a cache line.
const HEAP_ARITY: usize = 4;

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn before(a: &Scheduled, b: &Scheduled) -> bool {
        (a.at, a.seq) < (b.at, b.seq)
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / HEAP_ARITY;
            if Self::before(&self.heap[i], &self.heap[parent]) {
                self.heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let len = self.heap.len();
        loop {
            let first_child = i * HEAP_ARITY + 1;
            if first_child >= len {
                break;
            }
            let last_child = (first_child + HEAP_ARITY).min(len);
            let mut best = first_child;
            for c in first_child + 1..last_child {
                if Self::before(&self.heap[c], &self.heap[best]) {
                    best = c;
                }
            }
            if Self::before(&self.heap[best], &self.heap[i]) {
                self.heap.swap(i, best);
                i = best;
            } else {
                break;
            }
        }
    }

    /// Schedules `event` to occur at absolute time `at`.
    pub fn schedule(&mut self, at: SimTime, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { at, seq, event });
        self.sift_up(self.heap.len() - 1);
    }

    /// Removes and returns the earliest event, if any. Events scheduled
    /// for the same instant come out in insertion order.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        let last = self.heap.len().checked_sub(1)?;
        self.heap.swap(0, last);
        let s = self.heap.pop()?;
        if !self.heap.is_empty() {
            self.sift_down(0);
        }
        Some((s.at, s.event))
    }

    /// The time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.first().map(|s| s.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), Event::Audit);
        q.schedule(SimTime::from_secs(1), Event::FlowPacket { flow: 1 });
        q.schedule(SimTime::from_secs(2), Event::FlowEnd { flow: 1 });
        let times: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(t, _)| t.as_nanos()).collect();
        assert_eq!(times, vec![1_000_000_000, 2_000_000_000, 3_000_000_000]);
    }

    #[test]
    fn fifo_among_simultaneous_events() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for flow in 0..100 {
            q.schedule(t, Event::FlowPacket { flow });
        }
        for expect in 0..100 {
            match q.pop().unwrap().1 {
                Event::FlowPacket { flow } => assert_eq!(flow, expect),
                other => panic!("unexpected event {other:?}"),
            }
        }
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime::from_secs(9), Event::Audit);
        q.schedule(SimTime::from_secs(4), Event::Audit);
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(4)));
        q.pop();
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn heap_stress_matches_reference_queue() {
        // Pseudo-random schedule/pop interleaving; every pop must return
        // the (time, insertion-order) minimum of what is pending, which
        // is checked against a naive reference queue step by step.
        let mut q = EventQueue::new();
        let mut pending: Vec<(u64, u32)> = Vec::new();
        let mut lcg: u64 = 0x1234_5678_9abc_def0;
        let mut next = || {
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            lcg >> 33
        };
        let check_pop = |q: &mut EventQueue, pending: &mut Vec<(u64, u32)>| {
            let Some((at, ev)) = q.pop() else {
                assert!(pending.is_empty());
                return;
            };
            let flow = match ev {
                Event::FlowPacket { flow } => flow,
                other => panic!("unexpected event {other:?}"),
            };
            let min_idx = (0..pending.len())
                .min_by_key(|&i| pending[i])
                .expect("reference queue empty but heap was not");
            assert_eq!((at.as_nanos() / 1_000_000, flow), pending[min_idx]);
            pending.remove(min_idx);
        };
        for i in 0..2000u32 {
            let t = next() % 50;
            pending.push((t, i));
            q.schedule(SimTime::from_millis(t), Event::FlowPacket { flow: i });
            if next() % 3 == 0 {
                check_pop(&mut q, &mut pending);
            }
        }
        while !q.is_empty() {
            check_pop(&mut q, &mut pending);
        }
        assert!(pending.is_empty());
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10), Event::Audit);
        q.schedule(SimTime::from_secs(5), Event::Audit);
        let (t1, _) = q.pop().unwrap();
        assert_eq!(t1, SimTime::from_secs(5));
        q.schedule(SimTime::from_secs(7), Event::Audit);
        q.schedule(SimTime::from_secs(6), Event::Audit);
        let (t2, _) = q.pop().unwrap();
        assert_eq!(t2, SimTime::from_secs(6));
        let (t3, _) = q.pop().unwrap();
        assert_eq!(t3, SimTime::from_secs(7));
        let (t4, _) = q.pop().unwrap();
        assert_eq!(t4, SimTime::from_secs(10));
    }
}
