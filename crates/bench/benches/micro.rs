//! Micro-benchmarks of the hot paths: the loop-freedom conditions, the
//! routing table (Procedure 3), message codecs, the event queue, the
//! RNG and OLSR's MPR and route recomputation. These bound the
//! per-event cost of the simulator and the per-packet cost of a node.

use criterion::{criterion_group, criterion_main, Criterion};
use ldr::invariants::{fdc_violated, ndc_accepts, sdc_allows, strengthen, Invariants, Solicited};
use ldr::messages::{Rrep, Rreq};
use ldr::route_table::RouteTable;
use ldr::seqno::SeqNo;
use manet_sim::event::{Event, EventQueue};
use manet_sim::packet::NodeId;
use manet_sim::rng::SimRng;
use manet_sim::time::SimTime;
use std::hint::black_box;

fn sn(c: u32) -> SeqNo {
    SeqNo { epoch: 1, counter: c }
}

fn bench_invariants(c: &mut Criterion) {
    let mine = Invariants { sn: Some(sn(5)), d: 4, fd: 3 };
    let sol = Solicited { sn: Some(sn(5)), fd: 4, rr: false };
    c.bench_function("invariants/ndc", |b| {
        b.iter(|| ndc_accepts(black_box(mine), black_box(sn(5)), black_box(2)))
    });
    c.bench_function("invariants/fdc", |b| {
        b.iter(|| fdc_violated(black_box(mine), black_box(sol)))
    });
    c.bench_function("invariants/sdc", |b| b.iter(|| sdc_allows(black_box(mine), black_box(sol))));
    c.bench_function("invariants/strengthen", |b| {
        b.iter(|| strengthen(black_box(mine), black_box(sol)))
    });
}

fn bench_route_table(c: &mut Criterion) {
    c.bench_function("route_table/advertise_100_dests", |b| {
        b.iter(|| {
            let mut rt = RouteTable::new();
            let now = SimTime::from_secs(1);
            let exp = SimTime::from_secs(10);
            for i in 0..100u16 {
                rt.consider_advertisement(
                    NodeId(i),
                    sn(u32::from(i % 4)),
                    u32::from(i % 7),
                    NodeId(i % 10),
                    now,
                    exp,
                );
            }
            black_box(rt.len())
        })
    });
    let mut rt = RouteTable::new();
    for i in 0..100u16 {
        rt.consider_advertisement(
            NodeId(i),
            sn(1),
            2,
            NodeId(i % 10),
            SimTime::from_secs(1),
            SimTime::from_secs(10),
        );
    }
    c.bench_function("route_table/successor_snapshot", |b| {
        b.iter(|| black_box(rt.successors(SimTime::from_secs(2))))
    });
}

fn bench_messages(c: &mut Criterion) {
    let rreq = Rreq {
        dst: NodeId(7),
        sn_dst: Some(sn(9)),
        rreqid: 42,
        src: NodeId(3),
        sn_src: sn(4),
        fd: 5,
        dist: 2,
        ttl: 7,
        t_bit: true,
        n_bit: false,
        d_bit: false,
    };
    let bytes = rreq.encode();
    c.bench_function("messages/rreq_encode", |b| b.iter(|| black_box(rreq.encode())));
    c.bench_function("messages/rreq_decode", |b| b.iter(|| black_box(Rreq::decode(&bytes))));
    let rrep = Rrep {
        dst: NodeId(7),
        sn_dst: sn(9),
        src: NodeId(3),
        rreqid: 42,
        dist: 2,
        lifetime_ms: 3000,
        n_bit: false,
    };
    c.bench_function("messages/rrep_encode", |b| b.iter(|| black_box(rrep.encode())));
}

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue/schedule_pop_1000", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            let mut rng = SimRng::from_seed(1);
            for _ in 0..1000 {
                q.schedule(
                    SimTime::from_nanos(rng.below(1_000_000_000)),
                    Event::MacKick(NodeId(0)),
                );
            }
            let mut count = 0;
            while q.pop().is_some() {
                count += 1;
            }
            black_box(count)
        })
    });
}

fn bench_rng(c: &mut Criterion) {
    let mut rng = SimRng::from_seed(7);
    c.bench_function("rng/next_u64", |b| b.iter(|| black_box(rng.next_u64())));
    c.bench_function("rng/exponential", |b| b.iter(|| black_box(rng.exponential(100.0))));
}

/// End-to-end LDR runs with the trace layer off versus on. With no
/// sink attached the `Ctx::trace` closures are never evaluated, so the
/// disabled run bounds the layer's cost at zero-sink configurations.
fn bench_trace_overhead(c: &mut Criterion) {
    use ldr::{Ldr, LdrConfig};
    use manet_sim::config::SimConfig;
    use manet_sim::mobility::StaticMobility;
    use manet_sim::time::SimDuration;
    use manet_sim::trace::MemoryTrace;
    use manet_sim::world::World;

    fn build() -> World {
        let cfg =
            SimConfig { duration: SimDuration::from_secs(10), seed: 21, ..SimConfig::default() };
        let mut factory = Ldr::factory(LdrConfig::default());
        let mut w =
            World::new(cfg, Box::new(StaticMobility::line(6, 200.0)), |id, n| factory(id, n));
        for i in 0..20u64 {
            w.schedule_app_packet(SimTime::from_millis(500 + i * 200), NodeId(0), NodeId(5), 512);
        }
        w
    }

    c.bench_function("trace/run_disabled", |b| {
        b.iter(|| {
            let w = build();
            black_box(w.run().data_delivered)
        })
    });
    c.bench_function("trace/run_memory_sink", |b| {
        b.iter(|| {
            let mut w = build();
            w.set_trace(Box::new(MemoryTrace::new()));
            black_box(w.run().data_delivered)
        })
    });
}

/// One OLSR node's view of a fixed 50-node field (the paper's
/// 1500 m x 300 m, 275 m range): a hello from every current neighbour,
/// a TC from every other node, and hellos from former neighbours that
/// expired but are not cleaned up yet. Built through the public
/// callbacks, so it holds exactly what a running node would.
fn olsr_n50_state() -> (manet_baselines::olsr::Olsr, SimTime) {
    use manet_baselines::olsr::messages::{Hello, Tc};
    use manet_baselines::olsr::{Olsr, OlsrConfig};
    use manet_sim::packet::{ControlKind, ControlPacket};
    use manet_sim::protocol::{Ctx, RoutingProtocol};

    const N: usize = 50;
    let mut rng = SimRng::from_seed(50);
    let pos: Vec<(f64, f64)> =
        (0..N).map(|_| (rng.below(1500) as f64, rng.below(300) as f64)).collect();
    let within = |a: usize, b: usize, r: f64| {
        let (dx, dy) = (pos[a].0 - pos[b].0, pos[a].1 - pos[b].1);
        a != b && dx * dx + dy * dy <= r * r
    };
    let ids = |f: &dyn Fn(usize) -> bool| -> Vec<NodeId> {
        (0..N).filter(|&j| f(j)).map(|j| NodeId(j as u16)).collect()
    };
    // The viewer is the node nearest the middle of the field.
    let me = (0..N)
        .min_by_key(|&i| ((pos[i].0 - 750.0).abs() + (pos[i].1 - 150.0).abs()) as u64)
        .unwrap_or(0);
    let mut olsr = Olsr::new(NodeId(me as u16), OlsrConfig::default());
    let mut deliver = |olsr: &mut Olsr, at: SimTime, prev: usize, kind, bytes| {
        let mut actions = Vec::new();
        let mut ctx = Ctx::new(at, NodeId(me as u16), N, &mut rng, &mut actions);
        olsr.handle_control(&mut ctx, NodeId(prev as u16), ControlPacket { kind, bytes }, true);
    };
    let (then, now) = (SimTime::from_secs(1), SimTime::from_secs(10));
    for j in (0..N).filter(|&j| !within(me, j, 275.0) && within(me, j, 400.0)) {
        let h = Hello { sym: ids(&|k| within(j, k, 275.0)), heard: vec![], mpr: vec![] };
        deliver(&mut olsr, then, j, ControlKind::Hello, h.encode());
    }
    let first = (0..N).find(|&j| within(me, j, 275.0)).unwrap_or(0);
    for o in (0..N).filter(|&o| o != me) {
        let selectors = ids(&|k| k > o && within(o, k, 275.0));
        let tc = Tc { originator: NodeId(o as u16), ansn: 1, seq: 1, ttl: 32, selectors };
        deliver(&mut olsr, now, first, ControlKind::Tc, tc.encode());
    }
    for j in (0..N).filter(|&j| within(me, j, 275.0)) {
        let h = Hello { sym: ids(&|k| within(j, k, 275.0)), heard: vec![], mpr: vec![] };
        deliver(&mut olsr, now, j, ControlKind::Hello, h.encode());
    }
    (olsr, now)
}

/// Per-call cost of OLSR's two recomputations, without the simulator.
fn bench_olsr(c: &mut Criterion) {
    let (mut olsr, now) = olsr_n50_state();
    c.bench_function("olsr/recompute_mprs_n50", |b| {
        b.iter(|| {
            olsr.recompute_mprs(now);
            black_box(olsr.mprs().len())
        })
    });
    c.bench_function("olsr/recompute_routes_n50", |b| {
        b.iter(|| {
            olsr.recompute_routes(now);
            black_box(olsr.table().len())
        })
    });
}

criterion_group!(
    benches,
    bench_invariants,
    bench_route_table,
    bench_messages,
    bench_event_queue,
    bench_rng,
    bench_trace_overhead,
    bench_olsr
);
criterion_main!(benches);
