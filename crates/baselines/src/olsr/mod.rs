//! OLSR — Optimized Link State Routing
//! (draft-ietf-manet-olsr-06, the paper's proactive baseline).
//!
//! Periodic HELLOs perform link sensing and signal each node's chosen
//! *multipoint relays* (MPRs — the minimal neighbour subset covering
//! the two-hop neighbourhood); only MPRs forward topology-control (TC)
//! floods, and only MPR-selector links are advertised. Routes are
//! recomputed by breadth-first search over the learned topology. Both
//! recomputations run on compact bitsets (DESIGN.md §19).
//!
//! The paper found the INRIA OLSR code suffered packet-jitter problems
//! and added "a new FIFO jitter queue … a uniformly chosen inter-packet
//! jitter between 0 and 15 ms" that "performs substantially better than
//! the base OLSR" — reproduced here as [`Olsr`]'s outgoing control
//! queue (enabled by default, switchable for ablation).

pub mod messages;

use manet_sim::hash::FxBuild;
use manet_sim::packet::{ControlKind, ControlPacket, DataPacket, NodeId, Packet, PacketBody};
use manet_sim::protocol::{Ctx, DropReason, RouteDump, RouteTelemetry, RoutingProtocol};
use manet_sim::time::{SimDuration, SimTime};
use manet_sim::trace::{InvalidateCause, InvariantSnapshot, TraceEvent};
use messages::{Hello, Tc};
use std::collections::{HashMap, HashSet, VecDeque};

/// Protocol state maps use the deterministic Fx hasher: every iteration
/// over them is order-insensitive (sorted or commutative afterwards),
/// and SipHash was a measurable slice of OLSR's per-hello and
/// per-recompute cost at paper scale.
type FxMap<K, V> = HashMap<K, V, FxBuild>;
type FxSet<K> = HashSet<K, FxBuild>;

const HELLO_TOKEN: u64 = 1;
const TC_TOKEN: u64 = 2;
const JITTER_TOKEN: u64 = 3;
const CLEANUP_TOKEN: u64 = u64::MAX;

/// OLSR parameters (draft defaults).
#[derive(Clone, Debug, PartialEq)]
pub struct OlsrConfig {
    /// HELLO_INTERVAL.
    pub hello_interval: SimDuration,
    /// TC_INTERVAL.
    pub tc_interval: SimDuration,
    /// NEIGHB_HOLD_TIME.
    pub neighbor_hold: SimDuration,
    /// TOP_HOLD_TIME.
    pub topology_hold: SimDuration,
    /// Duplicate-set hold time.
    pub duplicate_hold: SimDuration,
    /// The paper's FIFO jitter queue: uniform inter-packet spacing in
    /// `[0, jitter_max]`; `None` disables the queue (base OLSR).
    pub jitter_max: Option<SimDuration>,
    /// Treat MAC retry exhaustion as link loss (link-layer feedback).
    pub link_layer_feedback: bool,
    /// TC flood TTL.
    pub tc_ttl: u8,
}

impl Default for OlsrConfig {
    fn default() -> Self {
        OlsrConfig {
            hello_interval: SimDuration::from_secs(2),
            tc_interval: SimDuration::from_secs(5),
            neighbor_hold: SimDuration::from_secs(6),
            topology_hold: SimDuration::from_secs(15),
            duplicate_hold: SimDuration::from_secs(30),
            jitter_max: Some(SimDuration::from_millis(15)),
            link_layer_feedback: true,
            tc_ttl: 32,
        }
    }
}

impl OlsrConfig {
    /// The un-fixed variant the paper compares against (no FIFO jitter
    /// queue).
    pub fn without_jitter_queue() -> Self {
        OlsrConfig { jitter_max: None, ..OlsrConfig::default() }
    }
}

#[derive(Clone, Copy, Debug)]
struct LinkState {
    sym: bool,
    expires: SimTime,
}

/// An OLSR node.
#[derive(Clone)]
pub struct Olsr {
    id: NodeId,
    cfg: OlsrConfig,
    links: FxMap<NodeId, LinkState>,
    /// neighbour → (its symmetric neighbours, expiry).
    two_hop: FxMap<NodeId, (Vec<NodeId>, SimTime)>,
    mpr_set: FxSet<NodeId>,
    mpr_selectors: FxMap<NodeId, SimTime>,
    /// Topology set keyed by originator: its advertised selectors,
    /// sorted by id, never empty.
    topology: FxMap<NodeId, Vec<TopoEntry>>,
    /// TC duplicate set: (originator, seq) → expiry.
    dup: FxMap<(NodeId, u16), SimTime>,
    table: FxMap<NodeId, (NodeId, u32)>,
    dirty: bool,
    ansn: u16,
    tc_seq: u16,
    /// Outgoing control queue (the paper's FIFO jitter fix).
    outq: VecDeque<(ControlKind, Vec<u8>, bool)>,
    drain_scheduled: bool,
    clock: SimTime,
    /// Reusable buffers for [`Olsr::recompute_mprs`] and
    /// [`Olsr::recompute_routes`] (no protocol state — purely an
    /// allocation cache).
    scratch: Scratch,
}

/// One advertised link of a TC originator.
#[derive(Clone, Copy, Debug)]
struct TopoEntry {
    sel: NodeId,
    ansn: u16,
    expires: SimTime,
}

/// Scratch space reused across MPR and route recomputations. Buffer
/// sizes depend on how many distinct ids are live (the adjacency rows
/// on its square / 64), never on the largest id value.
#[derive(Clone, Debug, Default)]
struct Scratch {
    /// Live symmetric one-hop neighbours, sorted by id.
    n1: Vec<NodeId>,
    /// MPR selection: the sole provider of each compacted id, if any.
    sole: Vec<u32>,
    /// MPR selection: one coverage bitset over the compacted
    /// neighbourhood per one-hop neighbour.
    cov: Vec<u64>,
    /// MPR selection: this node and its one-hop set, which are never
    /// strict two-hop nodes.
    excluded: Vec<u64>,
    uncovered: Vec<u64>,
    chosen: Vec<bool>,
    /// The id compaction of the current recomputation.
    ix: Compaction,
    /// Route computation: the distinct live ids, ascending; a node's
    /// index here is its bit position, so bit order is id order.
    ids: Vec<NodeId>,
    /// Route computation: one adjacency bitset per live id.
    rows: Vec<u64>,
    visited: Vec<u64>,
    /// Route computation: BFS FIFO of (index, hops, first hop).
    queue: Vec<(u32, u32, NodeId)>,
}

/// Words in a bitset over `n` items.
fn words(n: usize) -> usize {
    n.div_ceil(64)
}

fn set_bit(row: &mut [u64], i: usize) {
    row[i / 64] |= 1 << (i % 64);
}

/// Sets every bit from `bits` in `row` (at least one word long). Bits
/// in one word are gathered in a register before they are stored, so a
/// sorted id list costs one store per word rather than one dependent
/// load–store per bit.
fn set_bits(row: &mut [u64], bits: impl IntoIterator<Item = usize>) {
    let (mut at, mut acc) = (0, 0u64);
    for i in bits {
        if i / 64 != at {
            row[at] |= acc;
            (at, acc) = (i / 64, 0);
        }
        acc |= 1 << (i % 64);
    }
    row[at] |= acc;
}

fn or_into(dst: &mut [u64], src: &[u64]) {
    dst.iter_mut().zip(src).for_each(|(d, s)| *d |= s);
}

fn clear_from(dst: &mut [u64], src: &[u64]) {
    dst.iter_mut().zip(src).for_each(|(d, s)| *d &= !s);
}

/// A monotone id → index compaction: the i-th smallest id present gets
/// index i, so index order is id order. Ids are grouped in blocks of
/// 64 consecutive values; each occupied block keeps a presence word and
/// the count of ids in lower blocks, so a lookup is a search over the
/// occupied blocks (one or two in a paper-scale run) plus a popcount.
/// Memory is O(occupied blocks), never O(largest id).
#[derive(Clone, Debug, Default)]
struct Compaction {
    /// Occupied blocks, sorted by `base`.
    blocks: Vec<Block>,
}

#[derive(Clone, Copy, Debug)]
struct Block {
    /// `id / 64` of every id in the block.
    base: u16,
    present: u64,
    /// Ids in lower blocks (set by [`Compaction::seal`]).
    rank: u32,
}

impl Compaction {
    fn clear(&mut self) {
        self.blocks.clear();
    }

    /// Adds ids. Runs within one block (the common case for sorted id
    /// lists) are gathered in a register and merged once.
    fn insert(&mut self, ids: impl IntoIterator<Item = NodeId>) {
        let mut run: Option<(u16, u64)> = None;
        for id in ids {
            let (base, bit) = (id.0 / 64, 1u64 << (id.0 % 64));
            match &mut run {
                Some((b, acc)) if *b == base => *acc |= bit,
                _ => {
                    if let Some((b, acc)) = run {
                        self.merge(b, acc);
                    }
                    run = Some((base, bit));
                }
            }
        }
        if let Some((b, acc)) = run {
            self.merge(b, acc);
        }
    }

    fn merge(&mut self, base: u16, bits: u64) {
        match self.blocks.binary_search_by_key(&base, |b| b.base) {
            Ok(i) => self.blocks[i].present |= bits,
            Err(i) => self.blocks.insert(i, Block { base, present: bits, rank: 0 }),
        }
    }

    /// Fixes the ranks once every id is inserted; returns the id count.
    fn seal(&mut self) -> usize {
        let mut n = 0;
        for b in &mut self.blocks {
            b.rank = n;
            n += b.present.count_ones();
        }
        n as usize
    }

    /// Index of an inserted id (after [`Compaction::seal`]).
    fn index(&self, id: NodeId) -> usize {
        let i = self.blocks.partition_point(|b| b.base < id.0 / 64);
        self.blocks
            .get(i)
            .map_or(0, |b| (b.rank + (b.present & ((1 << (id.0 % 64)) - 1)).count_ones()) as usize)
    }

    /// The ids present, ascending (index order).
    fn ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.blocks.iter().flat_map(|b| {
            let mut bits = b.present;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let at = bits.trailing_zeros() as u16;
                    bits &= bits - 1;
                    NodeId(b.base * 64 + at)
                })
            })
        })
    }
}

impl Olsr {
    /// A new node.
    pub fn new(id: NodeId, cfg: OlsrConfig) -> Self {
        Olsr {
            id,
            cfg,
            links: FxMap::default(),
            two_hop: FxMap::default(),
            mpr_set: FxSet::default(),
            mpr_selectors: FxMap::default(),
            topology: FxMap::default(),
            // Pre-sized: one insert per flooded TC received; the
            // periodic retain keeps capacity, so reserving once
            // removes every growth rehash from the hot path.
            dup: FxMap::with_capacity_and_hasher(256, Default::default()),
            table: FxMap::default(),
            dirty: false,
            ansn: 0,
            tc_seq: 0,
            outq: VecDeque::new(),
            drain_scheduled: false,
            clock: SimTime::ZERO,
            scratch: Scratch::default(),
        }
    }

    /// A factory closure for [`manet_sim::world::World::new`].
    pub fn factory(cfg: OlsrConfig) -> impl FnMut(NodeId, usize) -> Box<dyn RoutingProtocol> {
        move |id, _| Box::new(Olsr::new(id, cfg.clone()))
    }

    /// Currently selected multipoint relays.
    pub fn mprs(&self) -> &HashSet<NodeId, FxBuild> {
        &self.mpr_set
    }

    /// The computed routing table: destination → (next hop, hops).
    pub fn table(&self) -> &HashMap<NodeId, (NodeId, u32), FxBuild> {
        &self.table
    }

    // ----- verification hooks ----------------------------------------------
    //
    // Counterparts of the `ldr::Ldr` hooks, used by `crates/modelcheck`
    // to drive OLSR through the same exhaustive event interleavings.

    /// Forces the link-state soft state behind the route towards `dest`
    /// to time out — the model checker's soft-state-expiry transition
    /// (NEIGHB_HOLD_TIME / TOP_HOLD_TIME lapsing, collapsed to an
    /// instant). The derived routing table is left to the next
    /// recomputation, exactly as with a natural timeout. Returns
    /// whether any state existed to expire.
    pub fn force_expire(&mut self, dest: NodeId) -> bool {
        let mut removed = self.links.remove(&dest).is_some();
        removed |= self.two_hop.remove(&dest).is_some();
        let before = self.topology_len();
        self.topology.remove(&dest);
        self.topology.retain(|_, sels| {
            sels.retain(|e| e.sel != dest);
            !sels.is_empty()
        });
        removed |= self.topology_len() != before;
        if removed {
            self.dirty = true;
        }
        removed
    }

    /// Recomputes the routing table immediately if the topology is
    /// dirty — the model checker's way of observing the table a node
    /// *would* forward with, outside any callback.
    pub fn force_recompute(&mut self) {
        if self.dirty {
            self.recompute_routes(self.clock);
        }
    }

    /// Appends a canonical byte encoding of the complete protocol state
    /// to `out` (sorted iteration everywhere; see
    /// `ldr::Ldr::verification_digest` for the contract). The
    /// allocation scratch is excluded — it carries no protocol state.
    pub fn verification_digest(&self, out: &mut Vec<u8>) {
        fn push_u64(out: &mut Vec<u8>, v: u64) {
            out.extend_from_slice(&v.to_le_bytes());
        }
        fn push_id(out: &mut Vec<u8>, n: NodeId) {
            out.extend_from_slice(&n.0.to_le_bytes());
        }
        let mut links: Vec<(&NodeId, &LinkState)> = self.links.iter().collect();
        links.sort_unstable_by_key(|(n, _)| n.0);
        push_u64(out, links.len() as u64);
        for (n, l) in links {
            push_id(out, *n);
            out.push(u8::from(l.sym));
            push_u64(out, l.expires.as_nanos());
        }
        let mut two_hop: Vec<(&NodeId, &(Vec<NodeId>, SimTime))> = self.two_hop.iter().collect();
        two_hop.sort_unstable_by_key(|(n, _)| n.0);
        push_u64(out, two_hop.len() as u64);
        for (n, (twos, exp)) in two_hop {
            push_id(out, *n);
            push_u64(out, twos.len() as u64);
            for t in twos {
                push_id(out, *t);
            }
            push_u64(out, exp.as_nanos());
        }
        let mut mprs: Vec<NodeId> = self.mpr_set.iter().copied().collect();
        mprs.sort_unstable_by_key(|n| n.0);
        push_u64(out, mprs.len() as u64);
        for n in mprs {
            push_id(out, n);
        }
        let mut selectors: Vec<(&NodeId, &SimTime)> = self.mpr_selectors.iter().collect();
        selectors.sort_unstable_by_key(|(n, _)| n.0);
        push_u64(out, selectors.len() as u64);
        for (n, exp) in selectors {
            push_id(out, *n);
            push_u64(out, exp.as_nanos());
        }
        let mut topology: Vec<(&NodeId, &Vec<TopoEntry>)> = self.topology.iter().collect();
        topology.sort_unstable_by_key(|(o, _)| o.0);
        push_u64(out, self.topology_len() as u64);
        for (orig, sels) in topology {
            for e in sels {
                push_id(out, *orig);
                push_id(out, e.sel);
                out.extend_from_slice(&e.ansn.to_le_bytes());
                push_u64(out, e.expires.as_nanos());
            }
        }
        let mut dup: Vec<(&(NodeId, u16), &SimTime)> = self.dup.iter().collect();
        dup.sort_unstable_by_key(|((o, s), _)| (o.0, *s));
        push_u64(out, dup.len() as u64);
        for ((orig, seq), exp) in dup {
            push_id(out, *orig);
            out.extend_from_slice(&seq.to_le_bytes());
            push_u64(out, exp.as_nanos());
        }
        let mut table: Vec<(&NodeId, &(NodeId, u32))> = self.table.iter().collect();
        table.sort_unstable_by_key(|(d, _)| d.0);
        push_u64(out, table.len() as u64);
        for (dest, (next, hops)) in table {
            push_id(out, *dest);
            push_id(out, *next);
            out.extend_from_slice(&hops.to_le_bytes());
        }
        out.push(u8::from(self.dirty));
        out.extend_from_slice(&self.ansn.to_le_bytes());
        out.extend_from_slice(&self.tc_seq.to_le_bytes());
        push_u64(out, self.outq.len() as u64);
        for (kind, bytes, initiated) in &self.outq {
            out.push(*kind as u8);
            push_u64(out, bytes.len() as u64);
            out.extend_from_slice(bytes);
            out.push(u8::from(*initiated));
        }
        out.push(u8::from(self.drain_scheduled));
        push_u64(out, self.clock.as_nanos());
    }

    /// Number of (originator, selector) entries in the topology set,
    /// expired-but-uncleaned ones included.
    fn topology_len(&self) -> usize {
        self.topology.values().map(Vec::len).sum()
    }

    /// Writes the live symmetric neighbours, sorted by id, into `out`.
    fn collect_sym(&self, now: SimTime, out: &mut Vec<NodeId>) {
        out.clear();
        out.extend(self.links.iter().filter(|(_, l)| l.sym && l.expires > now).map(|(&n, _)| n));
        out.sort_unstable_by_key(|n| n.0);
    }

    fn sym_neighbors(&self, now: SimTime) -> Vec<NodeId> {
        let mut v = Vec::new();
        self.collect_sym(now, &mut v);
        v
    }

    fn heard_neighbors(&self, now: SimTime) -> Vec<NodeId> {
        let mut v: Vec<NodeId> =
            self.links.iter().filter(|(_, l)| !l.sym && l.expires > now).map(|(&n, _)| n).collect();
        v.sort_unstable_by_key(|n| n.0);
        v
    }

    /// Greedy MPR selection: cover every strict two-hop neighbour.
    ///
    /// Every id in the one- and two-hop neighbourhood is compacted to a
    /// bit position, and each one-hop neighbour gets a coverage bitset
    /// over those positions, so a candidate's gain is
    /// `popcount(cov[n] & uncovered)`. Candidates are scanned in id
    /// order and only a strictly larger gain replaces the best, so ties
    /// go to the smallest id.
    pub fn recompute_mprs(&mut self, now: SimTime) {
        let mut scr = std::mem::take(&mut self.scratch);
        self.collect_sym(now, &mut scr.n1);
        let n1 = &scr.n1;
        let live = |n: &NodeId| self.two_hop.get(n).filter(|(_, exp)| *exp > now);
        let ix = &mut scr.ix;
        ix.clear();
        ix.insert([self.id]);
        ix.insert(n1.iter().copied());
        for n in n1 {
            ix.insert(live(n).into_iter().flat_map(|(twos, _)| twos.iter().copied()));
        }
        let k = ix.seal();
        let w = words(k);
        let excluded = &mut scr.excluded;
        excluded.clear();
        excluded.resize(w, 0);
        set_bit(excluded, ix.index(self.id));
        n1.iter().for_each(|&n| set_bit(excluded, ix.index(n)));
        // sole[j]: 0 = no provider yet, i + 1 = one listing by n1[i],
        // MANY = two or more listings. Listings are counted, not
        // distinct providers: a hello that lists `t` twice leaves `t`
        // with no sole provider.
        const MANY: u32 = u32::MAX;
        scr.sole.clear();
        scr.sole.resize(k, 0);
        scr.cov.clear();
        scr.cov.resize(n1.len() * w, 0);
        for (i, n) in n1.iter().enumerate() {
            let sole = &mut scr.sole;
            let strict = live(n)
                .into_iter()
                .flat_map(|(twos, _)| twos)
                .map(|&t| ix.index(t))
                .filter(|&j| excluded[j / 64] & (1 << (j % 64)) == 0)
                .inspect(|&j| sole[j] = if sole[j] == 0 { i as u32 + 1 } else { MANY });
            set_bits(&mut scr.cov[i * w..][..w], strict);
        }
        // Every node some neighbour reaches starts uncovered; sole
        // providers are mandatory, taken in two-hop id order.
        scr.uncovered.clear();
        scr.uncovered.resize(w, 0);
        scr.cov.chunks_exact(w).for_each(|c| or_into(&mut scr.uncovered, c));
        scr.chosen.clear();
        scr.chosen.resize(n1.len(), false);
        self.mpr_set.clear();
        for &p in &scr.sole {
            if p != 0 && p != MANY {
                let i = p as usize - 1;
                scr.chosen[i] = true;
                self.mpr_set.insert(n1[i]);
            }
        }
        for (cov, _) in scr.cov.chunks_exact(w).zip(&scr.chosen).filter(|(_, &c)| c) {
            clear_from(&mut scr.uncovered, cov);
        }
        while scr.uncovered.iter().any(|&u| u != 0) {
            let mut best: Option<(u32, usize)> = None;
            for (i, cov) in scr.cov.chunks_exact(w).enumerate() {
                if scr.chosen[i] {
                    continue;
                }
                let covers: u32 =
                    cov.iter().zip(&scr.uncovered).map(|(c, u)| (c & u).count_ones()).sum();
                if covers > best.map_or(0, |(bc, _)| bc) {
                    best = Some((covers, i));
                }
            }
            // Every uncovered node has a provider that is not chosen
            // yet, so there is always a candidate; stop defensively.
            let Some((_, i)) = best else { break };
            scr.chosen[i] = true;
            self.mpr_set.insert(n1[i]);
            clear_from(&mut scr.uncovered, &scr.cov[i * w..][..w]);
        }
        self.scratch = scr;
    }

    /// Breadth-first route computation over links + topology.
    ///
    /// Runs once per forwarding decision after a topology change, so it
    /// is the hottest code in the protocol at paper scale. The live ids
    /// are compacted to `0..V` in id order and the graph is held as one
    /// adjacency bitset per node. The BFS starts from the sorted
    /// one-hop set, drains a FIFO and takes each row's unvisited bits
    /// in ascending order — exactly the visit order of sorted,
    /// deduplicated adjacency lists, so every first hop and hop count
    /// is the same.
    pub fn recompute_routes(&mut self, now: SimTime) {
        self.dirty = false;
        let mut scr = std::mem::take(&mut self.scratch);
        self.collect_sym(now, &mut scr.n1);
        let ix = &mut scr.ix;
        ix.clear();
        ix.insert([self.id]);
        ix.insert(scr.n1.iter().copied());
        for (&n, (twos, exp)) in &self.two_hop {
            if *exp > now {
                ix.insert([n]);
                ix.insert(twos.iter().copied());
            }
        }
        for (&orig, sels) in &self.topology {
            let mut live = sels.iter().filter(|e| e.expires > now).map(|e| e.sel).peekable();
            if live.peek().is_some() {
                ix.insert([orig]);
                ix.insert(live);
            }
        }
        let w = words(ix.seal());
        scr.ids.clear();
        scr.ids.extend(ix.ids());
        let ids = &scr.ids;
        let rows = &mut scr.rows;
        rows.clear();
        rows.resize(ids.len() * w, 0);
        // The node's own row is never read: it is the BFS root, and the
        // BFS seeds from the one-hop set directly.
        for (&n, (twos, exp)) in &self.two_hop {
            if *exp > now {
                set_bits(&mut rows[ix.index(n) * w..][..w], twos.iter().map(|&t| ix.index(t)));
            }
        }
        for (&orig, sels) in &self.topology {
            let o = ix.index(orig);
            for e in sels.iter().filter(|e| e.expires > now) {
                let s = ix.index(e.sel);
                set_bit(&mut rows[o * w..][..w], s);
                set_bit(&mut rows[s * w..][..w], o);
            }
        }
        let visited = &mut scr.visited;
        visited.clear();
        visited.resize(w, 0);
        set_bit(visited, ix.index(self.id));
        let queue = &mut scr.queue;
        queue.clear();
        self.table.clear();
        for &n in &scr.n1 {
            let i = ix.index(n);
            if visited[i / 64] & (1 << (i % 64)) == 0 {
                set_bit(visited, i);
                self.table.insert(n, (n, 1));
                queue.push((i as u32, 1, n));
            }
        }
        let mut head = 0;
        while let Some(&(u, du, fh)) = queue.get(head) {
            head += 1;
            let row = &rows[u as usize * w..][..w];
            for (x, (&r, seen)) in row.iter().zip(visited.iter_mut()).enumerate() {
                let mut fresh = r & !*seen;
                *seen |= fresh;
                while fresh != 0 {
                    let v = x * 64 + fresh.trailing_zeros() as usize;
                    fresh &= fresh - 1;
                    self.table.insert(ids[v], (fh, du + 1));
                    queue.push((v as u32, du + 1, fh));
                }
            }
        }
        self.scratch = scr;
    }

    /// Recomputes routes if the topology is dirty, emitting
    /// [`TraceEvent::RouteInstall`] / [`TraceEvent::RouteInvalidate`]
    /// diffs against the previous table when tracing is on. OLSR has no
    /// `(sn, d, fd)` machinery, so installs scalarise as `d = fd =`
    /// hop count with no sequence number.
    fn recompute_traced(&mut self, ctx: &mut Ctx) {
        if !self.dirty {
            return;
        }
        if !ctx.trace_enabled() {
            self.recompute_routes(ctx.now());
            return;
        }
        let snapshot = |table: &FxMap<NodeId, (NodeId, u32)>| {
            let mut v: Vec<(NodeId, (NodeId, u32))> = table.iter().map(|(&d, &e)| (d, e)).collect();
            v.sort_unstable_by_key(|(d, _)| d.0);
            v
        };
        let before = snapshot(&self.table);
        self.recompute_routes(ctx.now());
        let after = snapshot(&self.table);
        let node = self.id;
        // Destinations that dropped out of the shortest-path tree.
        for &(dest, _) in &before {
            if after.binary_search_by_key(&dest.0, |&(d, _)| d.0).is_err() {
                ctx.trace(|| TraceEvent::RouteInvalidate {
                    node,
                    dest,
                    seqno: None,
                    cause: InvalidateCause::LinkFailure,
                });
            }
        }
        // New or changed entries.
        for &(dest, (next, hops)) in &after {
            let prev =
                before.binary_search_by_key(&dest.0, |&(d, _)| d.0).ok().map(|i| before[i].1);
            if prev != Some((next, hops)) {
                let before_snap = prev.map(|(_, h)| InvariantSnapshot { sn: None, d: h, fd: h });
                ctx.trace(|| TraceEvent::RouteInstall {
                    node,
                    dest,
                    next,
                    before: before_snap,
                    after: InvariantSnapshot { sn: None, d: hops, fd: hops },
                });
            }
        }
    }

    fn enqueue_control(
        &mut self,
        ctx: &mut Ctx,
        kind: ControlKind,
        bytes: Vec<u8>,
        initiated: bool,
    ) {
        match self.cfg.jitter_max {
            None => ctx.broadcast(kind, bytes, initiated),
            Some(maxj) => {
                self.outq.push_back((kind, bytes, initiated));
                if !self.drain_scheduled {
                    self.drain_scheduled = true;
                    let j = SimDuration::from_nanos(ctx.rng().below(maxj.as_nanos().max(1)));
                    ctx.set_timer(j, JITTER_TOKEN);
                }
            }
        }
    }

    fn drain_one(&mut self, ctx: &mut Ctx) {
        self.drain_scheduled = false;
        if let Some((kind, bytes, initiated)) = self.outq.pop_front() {
            ctx.broadcast(kind, bytes, initiated);
        }
        if !self.outq.is_empty() {
            self.drain_scheduled = true;
            let maxj = self.cfg.jitter_max.unwrap_or(SimDuration::from_millis(1));
            let j = SimDuration::from_nanos(ctx.rng().below(maxj.as_nanos().max(1)));
            ctx.set_timer(j, JITTER_TOKEN);
        }
    }

    fn send_hello(&mut self, ctx: &mut Ctx) {
        let now = ctx.now();
        self.recompute_mprs(now);
        let mut mpr: Vec<NodeId> = self.mpr_set.iter().copied().collect();
        mpr.sort_unstable_by_key(|n| n.0);
        let hello = Hello { sym: self.sym_neighbors(now), heard: self.heard_neighbors(now), mpr };
        self.enqueue_control(ctx, ControlKind::Hello, hello.encode(), true);
    }

    fn send_tc(&mut self, ctx: &mut Ctx) {
        let now = ctx.now();
        self.mpr_selectors.retain(|_, &mut e| e > now);
        if self.mpr_selectors.is_empty() {
            return;
        }
        self.ansn = self.ansn.wrapping_add(1);
        self.tc_seq = self.tc_seq.wrapping_add(1);
        let mut selectors: Vec<NodeId> = self.mpr_selectors.keys().copied().collect();
        selectors.sort_unstable_by_key(|n| n.0);
        let tc = Tc {
            originator: self.id,
            ansn: self.ansn,
            seq: self.tc_seq,
            ttl: self.cfg.tc_ttl,
            selectors,
        };
        self.enqueue_control(ctx, ControlKind::Tc, tc.encode(), true);
    }

    fn handle_hello(&mut self, ctx: &mut Ctx, prev: NodeId, h: Hello) {
        let now = ctx.now();
        let hold = self.cfg.neighbor_hold;
        // Link sensing: symmetric once the neighbour lists us.
        let hears_us = h.sym.contains(&self.id) || h.heard.contains(&self.id);
        let entry = self.links.entry(prev).or_insert(LinkState { sym: false, expires: now + hold });
        entry.sym = hears_us;
        entry.expires = now + hold;
        // MPR selector set.
        if h.mpr.contains(&self.id) {
            self.mpr_selectors.insert(prev, now + hold);
        } else {
            self.mpr_selectors.remove(&prev);
        }
        // Two-hop set (only via symmetric links).
        self.two_hop.insert(prev, (h.sym, now + hold));
        self.dirty = true;
    }

    fn handle_tc(&mut self, ctx: &mut Ctx, prev: NodeId, tc: Tc) {
        let now = ctx.now();
        if tc.originator == self.id {
            return;
        }
        let dkey = (tc.originator, tc.seq);
        let seen = self.dup.get(&dkey).is_some_and(|&e| e > now);
        if !seen {
            self.dup.insert(dkey, now + self.cfg.duplicate_hold);
            // ANSN logic: ignore stale sets; replace older ones. The
            // current ANSN is the numeric maximum over the originator's
            // entries, expired-but-uncleaned ones included.
            let sels = self.topology.entry(tc.originator).or_default();
            let current = sels.iter().map(|e| e.ansn).max();
            let stale = current.is_some_and(|a| ansn_newer(a, tc.ansn));
            if !stale {
                if current.is_some_and(|a| ansn_newer(tc.ansn, a)) {
                    sels.clear();
                }
                let expires = now + self.cfg.topology_hold;
                for &sel in &tc.selectors {
                    let e = TopoEntry { sel, ansn: tc.ansn, expires };
                    match sels.binary_search_by_key(&sel.0, |e| e.sel.0) {
                        Ok(i) => sels[i] = e,
                        Err(i) => sels.insert(i, e),
                    }
                }
                self.dirty = true;
            }
            if sels.is_empty() {
                self.topology.remove(&tc.originator);
            }
            // Default forwarding: retransmit only if the sender selected
            // us as an MPR.
            let from_selector = self.mpr_selectors.get(&prev).is_some_and(|&e| e > now);
            if from_selector && tc.ttl > 1 {
                let fwd = Tc { ttl: tc.ttl - 1, ..tc };
                self.enqueue_control(ctx, ControlKind::Tc, fwd.encode(), false);
            }
        }
    }
}

/// Sequence-number comparison with wraparound (RFC 3626 §19).
fn ansn_newer(a: u16, b: u16) -> bool {
    a != b && ((a > b && a - b <= 32768) || (b > a && b - a > 32768))
}

impl RoutingProtocol for Olsr {
    fn name(&self) -> &'static str {
        "OLSR"
    }

    fn start(&mut self, ctx: &mut Ctx) {
        self.clock = ctx.now();
        // Stagger the first hello across the interval to avoid
        // network-wide synchronisation.
        let h = ctx.rng().below(self.cfg.hello_interval.as_nanos().max(1));
        ctx.set_timer(SimDuration::from_nanos(h), HELLO_TOKEN);
        let t = ctx.rng().below(self.cfg.tc_interval.as_nanos().max(1));
        ctx.set_timer(SimDuration::from_nanos(t), TC_TOKEN);
        ctx.set_timer(SimDuration::from_secs(30), CLEANUP_TOKEN);
    }

    fn handle_reboot(&mut self, ctx: &mut Ctx) {
        // Link-state soft state is all volatile; neighbours age the
        // crashed incarnation's TCs out on their own timers.
        self.links.clear();
        self.two_hop.clear();
        self.mpr_set.clear();
        self.mpr_selectors.clear();
        self.topology.clear();
        self.dup.clear();
        self.table.clear();
        self.dirty = false;
        self.ansn = 0;
        self.tc_seq = 0;
        self.outq.clear();
        self.drain_scheduled = false;
        self.start(ctx);
    }

    fn handle_data_origination(&mut self, ctx: &mut Ctx, data: DataPacket) {
        self.clock = ctx.now();
        if data.dst == self.id {
            ctx.deliver(data);
            return;
        }
        self.recompute_traced(ctx);
        match self.table.get(&data.dst) {
            Some(&(next, _)) => ctx.send_data(next, data),
            None => ctx.drop_data(data, DropReason::NoRoute),
        }
    }

    fn handle_data_packet(&mut self, ctx: &mut Ctx, _prev_hop: NodeId, mut data: DataPacket) {
        self.clock = ctx.now();
        if data.dst == self.id {
            ctx.deliver(data);
            return;
        }
        if data.ttl == 0 {
            ctx.drop_data(data, DropReason::TtlExpired);
            return;
        }
        data.ttl -= 1;
        self.recompute_traced(ctx);
        match self.table.get(&data.dst) {
            Some(&(next, _)) => ctx.send_data(next, data),
            None => ctx.drop_data(data, DropReason::NoRoute),
        }
    }

    fn handle_control(
        &mut self,
        ctx: &mut Ctx,
        prev_hop: NodeId,
        ctrl: ControlPacket,
        _was_broadcast: bool,
    ) {
        self.clock = ctx.now();
        match ctrl.kind {
            ControlKind::Hello => match Hello::decode(&ctrl.bytes) {
                Some(h) => self.handle_hello(ctx, prev_hop, h),
                None => ctx.drop_malformed(ControlKind::Hello),
            },
            ControlKind::Tc => match Tc::decode(&ctrl.bytes) {
                Some(t) => self.handle_tc(ctx, prev_hop, t),
                None => ctx.drop_malformed(ControlKind::Tc),
            },
            _ => {}
        }
    }

    fn handle_timer(&mut self, ctx: &mut Ctx, token: u64) {
        self.clock = ctx.now();
        match token {
            HELLO_TOKEN => {
                self.send_hello(ctx);
                ctx.set_timer(self.cfg.hello_interval, HELLO_TOKEN);
            }
            TC_TOKEN => {
                self.send_tc(ctx);
                ctx.set_timer(self.cfg.tc_interval, TC_TOKEN);
            }
            JITTER_TOKEN => self.drain_one(ctx),
            CLEANUP_TOKEN => {
                let now = ctx.now();
                self.dup.retain(|_, &mut e| e > now);
                self.topology.retain(|_, sels| {
                    sels.retain(|e| e.expires > now);
                    !sels.is_empty()
                });
                self.links.retain(|_, l| l.expires > now);
                self.two_hop.retain(|_, (_, e)| *e > now);
                self.dirty = true;
                ctx.set_timer(SimDuration::from_secs(30), CLEANUP_TOKEN);
            }
            _ => {}
        }
    }

    fn handle_unicast_failure(&mut self, ctx: &mut Ctx, next_hop: NodeId, packet: Packet) {
        self.clock = ctx.now();
        if self.cfg.link_layer_feedback {
            self.links.remove(&next_hop);
            self.two_hop.remove(&next_hop);
            self.dirty = true;
        }
        if let PacketBody::Data(data) = packet.body {
            // Try once more over the recomputed topology.
            self.recompute_traced(ctx);
            match self.table.get(&data.dst) {
                Some(&(next, _)) if next != next_hop => ctx.send_data(next, data),
                _ => ctx.drop_data(data, DropReason::NoRoute),
            }
        }
    }

    fn route_successors(&self) -> Vec<(NodeId, NodeId)> {
        let mut v: Vec<(NodeId, NodeId)> = self.table.iter().map(|(&d, &(n, _))| (d, n)).collect();
        v.sort_unstable_by_key(|(d, _)| d.0);
        v
    }

    fn route_table_dump(&self) -> Vec<RouteDump> {
        let mut v: Vec<RouteDump> = self
            .table
            .iter()
            .map(|(&dest, &(next, hops))| RouteDump {
                dest,
                next,
                dist: hops,
                feasible_dist: None,
                seqno: None,
                valid: true,
            })
            .collect();
        v.sort_unstable_by_key(|r| r.dest.0);
        v
    }

    fn telemetry_snapshot(&self) -> RouteTelemetry {
        // Every BFS-computed entry is usable until the next recompute,
        // so entries and valid coincide.
        let n = self.table.len() as u64;
        RouteTelemetry { entries: n, valid: n }
    }
}

#[cfg(test)]
mod tests;
