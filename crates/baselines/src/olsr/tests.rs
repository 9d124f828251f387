//! OLSR unit tests.

use super::*;
use manet_sim::protocol::Action;
use manet_sim::rng::SimRng;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

struct Node {
    olsr: Olsr,
    rng: SimRng,
    now: SimTime,
}

impl Node {
    fn new(id: u16) -> Self {
        Self::with_cfg(id, OlsrConfig::default())
    }

    fn with_cfg(id: u16, cfg: OlsrConfig) -> Self {
        Node {
            olsr: Olsr::new(NodeId(id), cfg),
            rng: SimRng::from_seed(u64::from(id)),
            now: SimTime::from_secs(1),
        }
    }

    fn call<F: FnOnce(&mut Olsr, &mut Ctx)>(&mut self, f: F) -> Vec<Action> {
        let mut actions = Vec::new();
        let mut ctx = Ctx::new(self.now, self.olsr.id, 50, &mut self.rng, &mut actions);
        f(&mut self.olsr, &mut ctx);
        actions
    }

    fn hello_from(&mut self, prev: u16, h: Hello) -> Vec<Action> {
        self.call(|o, ctx| o.handle_hello(ctx, NodeId(prev), h))
    }

    fn tc_from(&mut self, prev: u16, t: Tc) -> Vec<Action> {
        self.call(|o, ctx| o.handle_tc(ctx, NodeId(prev), t))
    }
}

fn ids(v: &[u16]) -> Vec<NodeId> {
    v.iter().map(|&i| NodeId(i)).collect()
}

fn hello(sym: &[u16], heard: &[u16], mpr: &[u16]) -> Hello {
    Hello { sym: ids(sym), heard: ids(heard), mpr: ids(mpr) }
}

/// Whether the topology set holds the advertised link `orig -> sel`.
fn has_link(o: &Olsr, orig: u16, sel: u16) -> bool {
    o.topology.get(&NodeId(orig)).is_some_and(|s| s.iter().any(|e| e.sel == NodeId(sel)))
}

fn data(src: u16, dst: u16) -> DataPacket {
    DataPacket {
        src: NodeId(src),
        dst: NodeId(dst),
        flow: 1,
        seq: 0,
        created: SimTime::from_secs(1),
        payload_len: 512,
        ttl: 64,
        ext: vec![],
    }
}

fn broadcasts(actions: &[Action], kind: ControlKind) -> usize {
    actions
        .iter()
        .filter(|a| matches!(a, Action::Broadcast { ctrl, .. } if ctrl.kind == kind))
        .count()
}

#[test]
fn link_sensing_two_phase() {
    let mut n = Node::new(0);
    // Neighbour 2 hellos without listing us: asymmetric.
    n.hello_from(2, hello(&[], &[], &[]));
    assert_eq!(n.olsr.sym_neighbors(n.now), vec![]);
    assert_eq!(n.olsr.heard_neighbors(n.now), ids(&[2]));
    // Once it lists us: symmetric.
    n.hello_from(2, hello(&[], &[0], &[]));
    assert_eq!(n.olsr.sym_neighbors(n.now), ids(&[2]));
}

#[test]
fn links_expire_after_hold_time() {
    let mut n = Node::new(0);
    n.hello_from(2, hello(&[0], &[], &[]));
    assert_eq!(n.olsr.sym_neighbors(n.now), ids(&[2]));
    n.now = SimTime::from_secs(8); // hold is 6 s from t=1
    assert_eq!(n.olsr.sym_neighbors(n.now), vec![]);
}

#[test]
fn mpr_selection_covers_two_hop_neighbourhood() {
    let mut n = Node::new(0);
    // Neighbours 1 and 2; 1 reaches {3, 4}, 2 reaches {4}.
    n.hello_from(1, hello(&[0, 3, 4], &[], &[]));
    n.hello_from(2, hello(&[0, 4], &[], &[]));
    n.olsr.recompute_mprs(n.now);
    // 1 alone covers everything; greedy picks it.
    assert!(n.olsr.mprs().contains(&NodeId(1)));
    assert!(!n.olsr.mprs().contains(&NodeId(2)), "2 adds no coverage");
}

#[test]
fn sole_provider_is_mandatory_mpr() {
    let mut n = Node::new(0);
    n.hello_from(1, hello(&[0, 3], &[], &[]));
    n.hello_from(2, hello(&[0, 3, 4], &[], &[]));
    n.olsr.recompute_mprs(n.now);
    // Only 2 reaches 4 — it must be selected.
    assert!(n.olsr.mprs().contains(&NodeId(2)));
}

#[test]
fn sole_provider_counts_listings_not_providers() {
    let mut n = Node::new(0);
    // 1 lists 10 twice, so 10 has two listings and no sole provider:
    // greedy takes 3 (three uncovered) and then 1 for 10. Were 1
    // mandatory, it would cover 11 first and the 2-vs-3 tie would go
    // to 2.
    n.hello_from(1, hello(&[0, 10, 10, 11], &[], &[]));
    n.hello_from(2, hello(&[0, 12, 13], &[], &[]));
    n.hello_from(3, hello(&[0, 11, 12, 13], &[], &[]));
    n.olsr.recompute_mprs(n.now);
    let mprs: BTreeSet<NodeId> = n.olsr.mprs().iter().copied().collect();
    assert_eq!(mprs, ids(&[1, 3]).into_iter().collect());
    assert_eq!(mprs, reference_mprs(&n.olsr, n.now));
}

#[test]
fn hello_advertises_mprs_and_selector_set_updates() {
    let mut n = Node::new(0);
    n.hello_from(1, hello(&[0, 3], &[], &[0]));
    assert!(n.olsr.mpr_selectors.contains_key(&NodeId(1)), "1 selected us");
    n.hello_from(1, hello(&[0, 3], &[], &[]));
    assert!(!n.olsr.mpr_selectors.contains_key(&NodeId(1)), "deselected");
}

#[test]
fn tc_only_generated_by_selected_relays() {
    let mut n = Node::new(0);
    let acts = n.call(|o, ctx| o.send_tc(ctx));
    assert!(acts.is_empty(), "no selectors: no TC");
    n.hello_from(1, hello(&[0], &[], &[0]));
    let acts = n.call(|o, ctx| o.send_tc(ctx));
    // With the jitter queue, the TC lands in the queue + a timer.
    assert!(acts.iter().any(|a| matches!(a, Action::SetTimer { .. })));
    let acts = n.call(|o, ctx| o.drain_one(ctx));
    assert_eq!(broadcasts(&acts, ControlKind::Tc), 1);
}

#[test]
fn tc_forwarded_only_by_mprs_of_the_sender() {
    let cfg = OlsrConfig { jitter_max: None, ..OlsrConfig::default() };
    let mut n = Node::with_cfg(0, cfg.clone());
    // Node 5 selected us as MPR.
    n.hello_from(5, hello(&[0], &[], &[0]));
    let tc = Tc { originator: NodeId(9), ansn: 1, seq: 1, ttl: 10, selectors: ids(&[4]) };
    let acts = n.tc_from(5, tc.clone());
    assert_eq!(broadcasts(&acts, ControlKind::Tc), 1, "selector's TC is relayed");
    // Duplicate suppressed.
    let acts = n.tc_from(5, tc.clone());
    assert_eq!(broadcasts(&acts, ControlKind::Tc), 0);
    // From a node that did NOT select us: processed but not relayed.
    let mut m = Node::with_cfg(0, cfg);
    m.hello_from(5, hello(&[0], &[], &[]));
    let acts = m.tc_from(5, tc);
    assert_eq!(broadcasts(&acts, ControlKind::Tc), 0);
    assert!(has_link(&m.olsr, 9, 4), "still learned");
}

#[test]
fn stale_ansn_ignored_newer_replaces() {
    let mut n = Node::new(0);
    let tc1 = Tc { originator: NodeId(9), ansn: 5, seq: 1, ttl: 10, selectors: ids(&[4]) };
    n.tc_from(5, tc1);
    // Older ANSN (different seq so it passes dup check): ignored.
    let old = Tc { originator: NodeId(9), ansn: 4, seq: 2, ttl: 10, selectors: ids(&[6]) };
    n.tc_from(5, old);
    assert!(has_link(&n.olsr, 9, 4));
    assert!(!has_link(&n.olsr, 9, 6));
    // Newer ANSN replaces the set.
    let new = Tc { originator: NodeId(9), ansn: 6, seq: 3, ttl: 10, selectors: ids(&[7]) };
    n.tc_from(5, new);
    assert!(!has_link(&n.olsr, 9, 4));
    assert!(has_link(&n.olsr, 9, 7));
}

#[test]
fn routes_computed_over_links_and_topology() {
    let mut n = Node::new(0);
    // Sym neighbour 1, which reaches 2; TC says 2 reaches 3.
    n.hello_from(1, hello(&[0, 2], &[], &[]));
    let tc = Tc { originator: NodeId(2), ansn: 1, seq: 1, ttl: 10, selectors: ids(&[3]) };
    n.tc_from(1, tc);
    n.olsr.recompute_routes(n.now);
    let t = n.olsr.table();
    assert_eq!(t.get(&NodeId(1)), Some(&(NodeId(1), 1)));
    assert_eq!(t.get(&NodeId(2)), Some(&(NodeId(1), 2)));
    assert_eq!(t.get(&NodeId(3)), Some(&(NodeId(1), 3)));
}

#[test]
fn data_forwarded_by_table_or_dropped() {
    let mut n = Node::new(0);
    n.hello_from(1, hello(&[0, 9], &[], &[]));
    let acts = n.call(|o, ctx| o.handle_data_origination(ctx, data(0, 9)));
    assert!(acts.iter().any(|a| matches!(a, Action::SendData { next, .. } if *next == NodeId(1))));
    let acts = n.call(|o, ctx| o.handle_data_origination(ctx, data(0, 33)));
    assert!(acts.iter().any(|a| matches!(a, Action::DropData { reason: DropReason::NoRoute, .. })));
}

#[test]
fn jitter_queue_preserves_fifo_order() {
    let mut n = Node::new(0);
    n.call(|o, ctx| {
        o.enqueue_control(ctx, ControlKind::Hello, vec![1], true);
        o.enqueue_control(ctx, ControlKind::Tc, vec![2], true);
        o.enqueue_control(ctx, ControlKind::Hello, vec![3], true);
    });
    let mut order = Vec::new();
    for _ in 0..3 {
        let acts = n.call(|o, ctx| o.drain_one(ctx));
        for a in &acts {
            if let Action::Broadcast { ctrl, .. } = a {
                order.push(ctrl.bytes[0]);
            }
        }
    }
    assert_eq!(order, vec![1, 2, 3], "FIFO preserved across jitter");
}

#[test]
fn jitter_disabled_broadcasts_immediately() {
    let mut n = Node::with_cfg(0, OlsrConfig::without_jitter_queue());
    let acts = n.call(|o, ctx| {
        o.enqueue_control(ctx, ControlKind::Hello, vec![1], true);
    });
    assert_eq!(broadcasts(&acts, ControlKind::Hello), 1);
}

#[test]
fn link_layer_feedback_reroutes_or_drops() {
    let mut n = Node::new(0);
    n.hello_from(1, hello(&[0, 9], &[], &[]));
    n.hello_from(2, hello(&[0, 9], &[], &[]));
    n.olsr.recompute_routes(n.now);
    let next = n.olsr.table()[&NodeId(9)].0;
    let other = if next == NodeId(1) { NodeId(2) } else { NodeId(1) };
    let p = Packet { uid: 1, origin: NodeId(0), body: PacketBody::Data(data(0, 9)) };
    let acts = n.call(|o, ctx| o.handle_unicast_failure(ctx, next, p));
    assert!(
        acts.iter().any(|a| matches!(a, Action::SendData { next: nn, .. } if *nn == other)),
        "rerouted around the dead link"
    );
}

#[test]
fn ansn_wraparound_comparison() {
    assert!(ansn_newer(1, 0));
    assert!(!ansn_newer(0, 1));
    assert!(ansn_newer(0, 65535), "wrap");
    assert!(!ansn_newer(65535, 0));
    assert!(!ansn_newer(5, 5));
}

#[test]
fn start_schedules_periodic_timers() {
    let mut n = Node::new(0);
    let acts = n.call(|o, ctx| o.start(ctx));
    let timers = acts.iter().filter(|a| matches!(a, Action::SetTimer { .. })).count();
    assert!(timers >= 3, "hello, tc and cleanup timers");
}

#[test]
fn corrupt_id_does_not_inflate_scratch() {
    fn scratch_capacity(s: &Scratch) -> usize {
        s.n1.capacity()
            + s.sole.capacity()
            + s.cov.capacity()
            + s.excluded.capacity()
            + s.uncovered.capacity()
            + s.chosen.capacity()
            + s.ix.blocks.capacity()
            + s.ids.capacity()
            + s.rows.capacity()
            + s.visited.capacity()
            + s.queue.capacity()
    }
    let mut n = Node::new(0);
    n.hello_from(1, hello(&[0, 2], &[], &[]));
    // A corrupted TC naming the largest possible id.
    let tc = Tc { originator: NodeId(2), ansn: 1, seq: 1, ttl: 10, selectors: ids(&[u16::MAX]) };
    n.tc_from(1, tc);
    n.olsr.recompute_mprs(n.now);
    n.olsr.recompute_routes(n.now);
    assert_eq!(n.olsr.table().get(&NodeId(u16::MAX)), Some(&(NodeId(1), 3)));
    assert!(scratch_capacity(&n.olsr.scratch) <= 64, "sized by 4 distinct ids, not by id 65535");
    // The TC expires (15 s hold); the neighbour keeps saying hello.
    n.now = SimTime::from_secs(20);
    n.hello_from(1, hello(&[0, 2], &[], &[]));
    n.olsr.recompute_mprs(n.now);
    n.olsr.recompute_routes(n.now);
    assert_eq!(n.olsr.table().get(&NodeId(u16::MAX)), None);
    assert!(scratch_capacity(&n.olsr.scratch) <= 64);
}

// ----- differential oracle -------------------------------------------------
//
// The map-based MPR selection and route computation this module ran
// before the bitset rewrite, and its TC processing over a flat
// (originator, selector) map. The bitset code must agree with them on
// every state, including ones no well-behaved neighbour would produce.

/// The old topology layout: (originator, selector) → (ansn, expiry).
type FlatTopology = BTreeMap<(NodeId, NodeId), (u16, SimTime)>;

fn flat_topology(o: &Olsr) -> FlatTopology {
    let mut flat = FlatTopology::new();
    for (&orig, sels) in &o.topology {
        for e in sels {
            flat.insert((orig, e.sel), (e.ansn, e.expires));
        }
    }
    flat
}

fn reference_mprs(o: &Olsr, now: SimTime) -> BTreeSet<NodeId> {
    let n1: Vec<NodeId> = o.sym_neighbors(now);
    let n1_set: BTreeSet<NodeId> = n1.iter().copied().collect();
    let mut coverage: BTreeMap<NodeId, Vec<NodeId>> = BTreeMap::new();
    for &n in &n1 {
        if let Some((twos, exp)) = o.two_hop.get(&n) {
            if *exp > now {
                for &t in twos {
                    if t != o.id && !n1_set.contains(&t) {
                        coverage.entry(t).or_default().push(n);
                    }
                }
            }
        }
    }
    let mut mprs: BTreeSet<NodeId> = BTreeSet::new();
    let mut uncovered: BTreeSet<NodeId> = coverage.keys().copied().collect();
    // Mandatory: sole providers.
    for providers in coverage.values() {
        if providers.len() == 1 {
            mprs.insert(providers[0]);
        }
    }
    uncovered.retain(|t| !coverage[t].iter().any(|p| mprs.contains(p)));
    // Greedy: max coverage, ties by smallest id.
    while !uncovered.is_empty() {
        let mut best: Option<(usize, NodeId)> = None;
        for &n in &n1 {
            if mprs.contains(&n) {
                continue;
            }
            let covers = uncovered.iter().filter(|t| coverage[t].contains(&n)).count();
            if covers > 0 {
                let cand = (covers, n);
                best = Some(match best {
                    None => cand,
                    Some((bc, bn)) => {
                        if covers > bc || (covers == bc && n.0 < bn.0) {
                            cand
                        } else {
                            (bc, bn)
                        }
                    }
                });
            }
        }
        match best {
            Some((_, n)) => {
                mprs.insert(n);
                uncovered.retain(|t| !coverage[t].contains(&n));
            }
            None => break,
        }
    }
    mprs
}

fn reference_routes(o: &Olsr, now: SimTime) -> BTreeMap<NodeId, (NodeId, u32)> {
    let topology = flat_topology(o);
    let n1 = o.sym_neighbors(now);
    let mut max_id = o.id.0;
    for &n in &n1 {
        max_id = max_id.max(n.0);
    }
    for (&n, (twos, exp)) in &o.two_hop {
        if *exp > now {
            max_id = max_id.max(n.0);
            for &t in twos {
                max_id = max_id.max(t.0);
            }
        }
    }
    for (&(orig, sel), &(_, exp)) in &topology {
        if exp > now {
            max_id = max_id.max(orig.0).max(sel.0);
        }
    }
    let size = max_id as usize + 1;
    let mut edges: Vec<Vec<NodeId>> = vec![Vec::new(); size];
    edges[o.id.index()].extend_from_slice(&n1);
    for (&n, (twos, exp)) in &o.two_hop {
        if *exp > now {
            edges[n.index()].extend(twos.iter().copied());
        }
    }
    for (&(orig, sel), &(_, exp)) in &topology {
        if exp > now {
            edges[orig.index()].push(sel);
            edges[sel.index()].push(orig);
        }
    }
    for v in &mut edges {
        v.sort_unstable_by_key(|n| n.0);
        v.dedup();
    }
    const UNSET: u32 = u32::MAX;
    let mut dist = vec![UNSET; size];
    let mut first_hop = vec![NodeId(0); size];
    let mut queue = VecDeque::new();
    let mut table = BTreeMap::new();
    dist[o.id.index()] = 0;
    for &n in &n1 {
        if dist[n.index()] == UNSET {
            dist[n.index()] = 1;
            first_hop[n.index()] = n;
            table.insert(n, (n, 1));
            queue.push_back(n);
        }
    }
    while let Some(u) = queue.pop_front() {
        let du = dist[u.index()];
        let fh = first_hop[u.index()];
        for &v in &edges[u.index()] {
            if dist[v.index()] == UNSET {
                dist[v.index()] = du + 1;
                first_hop[v.index()] = fh;
                table.insert(v, (fh, du + 1));
                queue.push_back(v);
            }
        }
    }
    table
}

/// The ANSN logic of TC processing on the flat layout.
fn reference_tc(flat: &mut FlatTopology, me: NodeId, tc: &Tc, expires: SimTime) {
    if tc.originator == me {
        return;
    }
    let current = flat.iter().filter(|((o, _), _)| *o == tc.originator).map(|(_, &(a, _))| a).max();
    if current.is_some_and(|a| ansn_newer(a, tc.ansn)) {
        return;
    }
    if current.is_some_and(|a| ansn_newer(tc.ansn, a)) {
        flat.retain(|(o, _), _| *o != tc.originator);
    }
    for &sel in &tc.selectors {
        flat.insert((tc.originator, sel), (tc.ansn, expires));
    }
}

/// Ids that collide often, straddle the first 64-id block edge and
/// reach `u16::MAX`.
fn arb_id() -> impl Strategy<Value = NodeId> {
    (0u8..8, 0u16..12, any::<u16>()).prop_map(|(k, small, wide)| {
        NodeId(match k {
            0..=3 => small,
            4 => 58 + small,
            5 => u16::MAX - small % 3,
            6 => 1000 + small,
            _ => wide,
        })
    })
}

/// Expiry offsets around `NOW`: expired, expiring exactly now (not
/// live), barely live, live.
fn arb_expiry() -> impl Strategy<Value = SimTime> {
    prop::sample::select(vec![-1_000_000_000i64, 0, 1, 5_000_000_000, 5_000_000_000])
        .prop_map(|off| SimTime::from_nanos(NOW.as_nanos().saturating_add_signed(off)))
}

/// ANSNs that include pairs exactly 32768 apart.
fn arb_ansn() -> impl Strategy<Value = u16> {
    prop::sample::select(vec![0u16, 1, 2, 32767, 32768, 32769, 65535])
}

const NOW: SimTime = SimTime::from_secs(10);

/// Topology section of `verification_digest`, encoded from the flat
/// layout in (originator, selector) order.
fn reference_topology_digest(flat: &FlatTopology) -> Vec<u8> {
    let mut out = (flat.len() as u64).to_le_bytes().to_vec();
    for ((orig, sel), (ansn, exp)) in flat {
        out.extend_from_slice(&orig.0.to_le_bytes());
        out.extend_from_slice(&sel.0.to_le_bytes());
        out.extend_from_slice(&ansn.to_le_bytes());
        out.extend_from_slice(&exp.as_nanos().to_le_bytes());
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn bitset_recomputation_matches_map_reference(
        me in arb_id(),
        // Neighbours with the sym list of their last hello, which may
        // repeat ids and usually names this node.
        neighbours in prop::collection::vec(
            (
                arb_id(),
                prop::bool::ANY,
                arb_expiry(),
                prop::collection::vec(arb_id(), 0..10),
                arb_expiry(),
                prop::bool::ANY,
            ),
            0..12,
        ),
        // Two-hop entries of nodes that are no (live) neighbour.
        stray in prop::collection::vec(
            (arb_id(), prop::collection::vec(arb_id(), 0..10), arb_expiry()),
            0..4,
        ),
        topology in prop::collection::vec((arb_id(), arb_id(), arb_ansn(), arb_expiry()), 0..30),
        tcs in prop::collection::vec(
            (arb_id(), arb_ansn(), prop::collection::vec(arb_id(), 0..6)),
            0..8,
        ),
    ) {
        let mut n = Node::new(me.0);
        n.now = NOW;
        for (id, sym, expires, mut twos, twos_expire, lists_me) in neighbours {
            n.olsr.links.insert(id, LinkState { sym, expires });
            if lists_me {
                twos.insert(twos.len() / 2, me);
            }
            n.olsr.two_hop.insert(id, (twos, twos_expire));
        }
        for (id, twos, expires) in stray {
            n.olsr.two_hop.insert(id, (twos, expires));
        }
        // Mixed ANSNs within one originator, expired-but-present entries.
        let mut flat = FlatTopology::new();
        for (orig, sel, ansn, expires) in topology {
            flat.insert((orig, sel), (ansn, expires));
        }
        for (&(orig, sel), &(ansn, expires)) in &flat {
            n.olsr.topology.entry(orig).or_default().push(TopoEntry { sel, ansn, expires });
        }
        for round in 0..2 {
            n.olsr.recompute_mprs(NOW);
            let mprs: BTreeSet<NodeId> = n.olsr.mprs().iter().copied().collect();
            prop_assert_eq!(mprs, reference_mprs(&n.olsr, NOW), "MPR set, round {}", round);
            n.olsr.recompute_routes(NOW);
            let table: BTreeMap<NodeId, (NodeId, u32)> =
                n.olsr.table().iter().map(|(&d, &e)| (d, e)).collect();
            prop_assert_eq!(table, reference_routes(&n.olsr, NOW), "table, round {}", round);
            // Round two reuses the scratch on a state changed by TCs.
            for (i, (orig, ansn, selectors)) in tcs.iter().cloned().enumerate() {
                let seq = (round * tcs.len() + i) as u16;
                let tc = Tc { originator: orig, ansn, seq, ttl: 1, selectors };
                reference_tc(&mut flat, me, &tc, NOW + OlsrConfig::default().topology_hold);
                n.tc_from(0, tc);
                prop_assert_eq!(flat_topology(&n.olsr), flat.clone(), "after TC {}", seq);
            }
        }
        // The digest's topology section is byte-identical to the flat
        // layout's. With links, two-hop, MPR and selector sets empty,
        // it starts after their four zero counts.
        let mut bare = Olsr::new(me, OlsrConfig::default());
        bare.topology = n.olsr.topology.clone();
        let mut digest = Vec::new();
        bare.verification_digest(&mut digest);
        let expected = reference_topology_digest(&flat);
        prop_assert_eq!(&digest[32..32 + expected.len()], &expected[..]);
    }
}
