//! Spans measured from outside the simulator: wrappers around the
//! public `MobilityModel`, `RoutingProtocol` and `TraceSink` traits that
//! time every call and forward it unchanged.
//!
//! Every trait method is forwarded, defaulted ones included — dropping
//! `MobilityModel::max_speed_mps`, for one, would silently turn the
//! neighbour grid off and change what is measured. The tallies live in
//! a thread-local table (the benchmark is single-threaded and the traits
//! require `Send`, so the wrappers hold no shared handle). Wrapper spans
//! never nest in one another: protocol callbacks see no mobility model,
//! and trace records are emitted by the kernel after a callback returns.

use manet_sim::geometry::Position;
use manet_sim::mobility::{MobilityModel, MotionLeg};
use manet_sim::packet::{ControlPacket, DataPacket, NodeId, Packet};
use manet_sim::protocol::{Ctx, RouteDump, RouteTelemetry, RoutingProtocol};
use manet_sim::time::SimTime;
use manet_sim::trace::{TraceEvent, TraceSink};
use std::cell::Cell;
use std::time::Instant;

/// One timed call site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Span {
    /// Any position query on the mobility model.
    Mobility,
    /// `RoutingProtocol::handle_control`.
    Control,
    /// `RoutingProtocol::handle_data_packet`.
    Data,
    /// `RoutingProtocol::handle_data_origination`.
    Originate,
    /// `RoutingProtocol::handle_timer`.
    Timer,
    /// `RoutingProtocol::handle_unicast_failure`.
    LinkFail,
    /// `RoutingProtocol::handle_reboot`.
    Reboot,
    /// `TraceSink::record`.
    TraceRecord,
}

/// The routing spans with their metric names, in report order.
pub const ROUTING_SPANS: [(Span, &str); 6] = [
    (Span::Control, "control"),
    (Span::Data, "data"),
    (Span::Originate, "originate"),
    (Span::Timer, "timer"),
    (Span::LinkFail, "link_fail"),
    (Span::Reboot, "reboot"),
];

const N_SPANS: usize = 8;

/// Calls and busy nanoseconds of one span.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Calls made.
    pub calls: u64,
    /// Wall nanoseconds spent inside the calls.
    pub ns: u64,
}

thread_local! {
    static TALLIES: [Cell<Tally>; N_SPANS] =
        const { [const { Cell::new(Tally { calls: 0, ns: 0 }) }; N_SPANS] };
}

/// Zeroes every tally on this thread.
pub fn reset() {
    TALLIES.with(|t| t.iter().for_each(|c| c.set(Tally::default())));
}

/// The tally of `span` on this thread.
pub fn tally(span: Span) -> Tally {
    TALLIES.with(|t| t[span as usize].get())
}

#[inline]
fn timed<R>(span: Span, f: impl FnOnce() -> R) -> R {
    let t0 = Instant::now();
    let out = f();
    let ns = t0.elapsed().as_nanos() as u64;
    TALLIES.with(|t| {
        let c = &t[span as usize];
        let v = c.get();
        c.set(Tally { calls: v.calls + 1, ns: v.ns + ns });
    });
    out
}

/// Times every position query of the wrapped model.
pub struct TimedMobility(pub Box<dyn MobilityModel>);

impl MobilityModel for TimedMobility {
    fn position(&self, node: NodeId, t: SimTime) -> Position {
        timed(Span::Mobility, || self.0.position(node, t))
    }
    fn len(&self) -> usize {
        self.0.len()
    }
    fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
    fn position_hold(&self, node: NodeId, t: SimTime) -> (Position, SimTime) {
        timed(Span::Mobility, || self.0.position_hold(node, t))
    }
    fn motion_leg(&self, node: NodeId, t: SimTime) -> MotionLeg {
        timed(Span::Mobility, || self.0.motion_leg(node, t))
    }
    fn max_speed_mps(&self) -> Option<f64> {
        self.0.max_speed_mps()
    }
}

/// Times every event callback of the wrapped protocol instance.
pub struct TimedRouting(pub Box<dyn RoutingProtocol>);

impl RoutingProtocol for TimedRouting {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn start(&mut self, ctx: &mut Ctx) {
        self.0.start(ctx)
    }
    fn handle_data_origination(&mut self, ctx: &mut Ctx, data: DataPacket) {
        timed(Span::Originate, || self.0.handle_data_origination(ctx, data))
    }
    fn handle_data_packet(&mut self, ctx: &mut Ctx, prev_hop: NodeId, data: DataPacket) {
        timed(Span::Data, || self.0.handle_data_packet(ctx, prev_hop, data))
    }
    fn handle_control(
        &mut self,
        ctx: &mut Ctx,
        prev_hop: NodeId,
        ctrl: ControlPacket,
        was_broadcast: bool,
    ) {
        timed(Span::Control, || self.0.handle_control(ctx, prev_hop, ctrl, was_broadcast))
    }
    fn handle_timer(&mut self, ctx: &mut Ctx, token: u64) {
        timed(Span::Timer, || self.0.handle_timer(ctx, token))
    }
    fn handle_unicast_failure(&mut self, ctx: &mut Ctx, next_hop: NodeId, packet: Packet) {
        timed(Span::LinkFail, || self.0.handle_unicast_failure(ctx, next_hop, packet))
    }
    fn handle_reboot(&mut self, ctx: &mut Ctx) {
        timed(Span::Reboot, || self.0.handle_reboot(ctx))
    }
    fn route_successors(&self) -> Vec<(NodeId, NodeId)> {
        self.0.route_successors()
    }
    fn route_table_dump(&self) -> Vec<RouteDump> {
        self.0.route_table_dump()
    }
    fn own_seqno_value(&self) -> Option<f64> {
        self.0.own_seqno_value()
    }
    fn telemetry_snapshot(&self) -> RouteTelemetry {
        self.0.telemetry_snapshot()
    }
}

/// Times every record handed to the wrapped trace sink.
pub struct TimedSink(pub Box<dyn TraceSink>);

impl TraceSink for TimedSink {
    fn record(&mut self, t: SimTime, event: TraceEvent) {
        timed(Span::TraceRecord, || self.0.record(t, event))
    }
}
