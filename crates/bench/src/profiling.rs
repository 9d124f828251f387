//! The profbench engine and `manet-prof` report renderer.
//!
//! Runs profiled trials ([`run_profiled`]), parses exported
//! `manet-prof` JSONL back into a [`ProfView`] (the shape `tracegrep
//! --prof` consumes), renders the attribution report — top-K phases
//! and the per-protocol cost table — and hosts
//! the on-vs-off purity differential ([`purity_check`]) that CI's
//! prof-smoke job asserts.

use crate::forensics::Json;
use crate::runner::build_world_telemetry;
use crate::scenario::{Protocol, Scenario};
use crate::telemetry_export::render_run;
use manet_sim::prof::{deterministic_section, prof_to_jsonl, PROF_SCHEMA, PROF_VERSION};
use manet_sim::telemetry::TelemetryConfig;
use manet_sim::time::{SimDuration, SimTime};
use std::fmt::Write as _;

/// A parsed profile of one run — everything the report renderer
/// needs, whether the document was just rendered from a live
/// [`manet_sim::prof::ProfSnapshot`] or read from a `manet-prof` JSONL
/// file on disk.
#[derive(Clone, Debug)]
pub struct ProfView {
    /// Protocol name from the header.
    pub protocol: String,
    /// Scenario label from the header.
    pub scenario: String,
    /// Deterministic counters, in document order (phase counts, pool
    /// hit/miss, `events_executed`).
    pub counts: Vec<(String, u64)>,
    /// Histograms: name → per-bucket counts (power-of-two buckets).
    pub hists: Vec<(String, Vec<u64>)>,
    /// Wall self-time per phase, nanoseconds.
    pub timings: Vec<(String, u64)>,
    /// Total measured kernel wall time (the `total` timing line).
    pub total_nanos: u64,
}

impl ProfView {
    /// Parses one `manet-prof` JSONL document of the current
    /// [`PROF_VERSION`].
    pub fn parse(doc: &str) -> Result<ProfView, String> {
        let mut lines = doc.lines();
        let head = lines.next().ok_or("empty prof document")?;
        let head = Json::parse(head).ok_or_else(|| format!("unparseable header: {head}"))?;
        if head.str_field("schema") != Some(PROF_SCHEMA) {
            return Err(format!("not a manet-prof file (schema {:?})", head.str_field("schema")));
        }
        if head.u64_field("version") != Some(u64::from(PROF_VERSION)) {
            return Err(format!("unsupported manet-prof version {:?}", head.u64_field("version")));
        }
        let mut view = ProfView {
            protocol: head.str_field("protocol").unwrap_or("?").to_string(),
            scenario: head.str_field("scenario").unwrap_or("?").to_string(),
            counts: Vec::new(),
            hists: Vec::new(),
            timings: Vec::new(),
            total_nanos: 0,
        };
        for (lineno, line) in lines.enumerate() {
            let v = Json::parse(line)
                .ok_or_else(|| format!("line {}: unparseable: {line}", lineno + 2))?;
            let name =
                v.str_field("name").ok_or_else(|| format!("line {}: no name", lineno + 2))?;
            match v.str_field("sect") {
                Some("count") => {
                    let c = v.u64_field("count").unwrap_or(0);
                    view.counts.push((name.to_string(), c));
                }
                Some("hist") => {
                    let buckets = match v.get("buckets") {
                        Some(Json::Arr(items)) => {
                            items.iter().map(|b| b.as_u64().unwrap_or(0)).collect()
                        }
                        _ => Vec::new(),
                    };
                    view.hists.push((name.to_string(), buckets));
                }
                Some("timing") => {
                    let ns = v.u64_field("nanos").unwrap_or(0);
                    if name == "total" {
                        view.total_nanos = ns;
                    } else {
                        view.timings.push((name.to_string(), ns));
                    }
                }
                other => return Err(format!("line {}: unknown sect {other:?}", lineno + 2)),
            }
        }
        Ok(view)
    }

    /// A deterministic counter by name.
    pub fn count(&self, name: &str) -> u64 {
        self.counts.iter().find(|(n, _)| n == name).map_or(0, |(_, c)| *c)
    }

    /// A phase's wall self-time by name, nanoseconds.
    pub fn timing(&self, name: &str) -> u64 {
        self.timings.iter().find(|(n, _)| n == name).map_or(0, |(_, ns)| *ns)
    }

    /// Fraction of measured kernel wall time attributed to named
    /// phases (everything except the `kern_loop` bottom-frame
    /// residue); 1.0 when nothing was measured.
    pub fn attribution(&self) -> f64 {
        if self.total_nanos == 0 {
            1.0
        } else {
            let named = self.total_nanos - self.timing("kern_loop");
            named as f64 / self.total_nanos as f64
        }
    }

    /// Kernel events per wall second (0 when no time was measured).
    pub fn events_per_sec(&self) -> f64 {
        if self.total_nanos == 0 {
            0.0
        } else {
            self.count("events_executed") as f64 / (self.total_nanos as f64 / 1e9)
        }
    }

    /// The `timings` sorted descending, excluding zero phases.
    pub fn top_phases(&self) -> Vec<(String, u64)> {
        let mut v: Vec<(String, u64)> =
            self.timings.iter().filter(|(_, ns)| *ns > 0).cloned().collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        v
    }
}

/// One profiled trial: the live snapshot view plus the exportable
/// JSONL document and the run's headline numbers.
#[derive(Clone, Debug)]
pub struct ProfRun {
    /// The parsed profile.
    pub view: ProfView,
    /// The full `manet-prof` JSONL document (exportable as-is).
    pub doc: String,
    /// Events the kernel executed.
    pub events: u64,
}

/// Runs one trial with the profiler (and default telemetry) attached
/// and returns its profile. Deterministic in `(protocol, scenario,
/// seed)` up to the non-gated wall-time section.
pub fn run_profiled(protocol: Protocol, scenario: &Scenario, seed: u64) -> ProfRun {
    let profiled = Scenario { profile: true, ..scenario.clone() };
    let mut world =
        build_world_telemetry(protocol, &profiled, seed, None, Some(TelemetryConfig::default()));
    world.run_until(SimTime::ZERO + SimDuration::from_secs(profiled.duration_secs));
    world.finalize();
    let events = world.events_executed();
    let snap = match world.prof_snapshot() {
        Some(s) => s,
        None => unreachable!("profile was just enabled"),
    };
    let doc = prof_to_jsonl(seed, profiled.n_nodes, &protocol.name(), &profiled.label(), &snap);
    // Round-trip through the renderer: one code path defines the
    // document, the parser is its single consumer.
    let view = match ProfView::parse(&doc) {
        Ok(v) => v,
        Err(e) => unreachable!("self-rendered prof document must parse: {e}"),
    };
    ProfRun { view, doc, events }
}

fn pct(part: u64, total: u64) -> f64 {
    if total == 0 {
        0.0
    } else {
        100.0 * part as f64 / total as f64
    }
}

/// Renders the attribution report for a set of profiles: per-run
/// top-K phase tables and the per-protocol cost table.
pub fn render_report(views: &[ProfView], top_k: usize) -> String {
    let mut out = String::new();
    for v in views {
        let _ = writeln!(
            out,
            "== {} · {} ==  total {:.3} ms, attribution {:.2}%",
            v.protocol,
            v.scenario,
            v.total_nanos as f64 / 1e6,
            100.0 * v.attribution(),
        );
        let _ = writeln!(out, "{:<26} {:>12} {:>8} {:>14}", "phase", "self ns", "%", "count");
        for (name, ns) in v.top_phases().into_iter().take(top_k) {
            let _ = writeln!(
                out,
                "{:<26} {:>12} {:>7.2}% {:>14}",
                name,
                ns,
                pct(ns, v.total_nanos),
                v.count(&name),
            );
        }
        out.push('\n');
    }

    let _ = writeln!(out, "-- per-protocol cost --");
    let _ = writeln!(
        out,
        "{:<12} {:<14} {:>12} {:>11} {:>9} {:>12} {:>7}",
        "protocol", "scenario", "events", "wall ms", "ns/event", "events/s", "attr%"
    );
    for v in views {
        let events = v.count("events_executed");
        let ns_per_event = if events == 0 { 0.0 } else { v.total_nanos as f64 / events as f64 };
        let _ = writeln!(
            out,
            "{:<12} {:<14} {:>12} {:>11.3} {:>9.1} {:>12.0} {:>6.2}%",
            v.protocol,
            v.scenario,
            events,
            v.total_nanos as f64 / 1e6,
            ns_per_event,
            v.events_per_sec(),
            100.0 * v.attribution(),
        );
    }
    out
}

/// The smallest attribution across a set of profiles (1.0 for an
/// empty set). The acceptance gate requires ≥ 0.95 on the paper
/// scenarios.
pub fn min_attribution(views: &[ProfView]) -> f64 {
    views.iter().map(ProfView::attribution).fold(1.0, f64::min)
}

/// The on-vs-off purity differential: runs `(protocol, scenario,
/// seed)` once with profiling off and once with it on, and demands
/// metrics, trace and series stay byte-identical. Returns a
/// description of the first divergence, if any.
pub fn purity_check(protocol: Protocol, scenario: &Scenario, seed: u64) -> Result<(), String> {
    let off = render_run(protocol, &Scenario { profile: false, ..scenario.clone() }, seed, None);
    let on = render_run(protocol, &Scenario { profile: true, ..scenario.clone() }, seed, None);
    if off.metrics != on.metrics {
        return Err(format!(
            "metrics diverged with profiling on ({} {} seed {seed})",
            protocol.name(),
            scenario.label()
        ));
    }
    if off.trace != on.trace {
        return Err(format!(
            "trace JSONL diverged with profiling on ({} {} seed {seed})",
            protocol.name(),
            scenario.label()
        ));
    }
    if off.series != on.series {
        return Err(format!(
            "series JSONL diverged with profiling on ({} {} seed {seed})",
            protocol.name(),
            scenario.label()
        ));
    }
    if off.prof.is_some() {
        return Err("unprofiled run rendered a prof document".to_string());
    }
    match &on.prof {
        None => return Err("profiled run rendered no prof document".to_string()),
        Some(doc) => {
            // The deterministic section must reproduce on a rerun.
            let rerun =
                render_run(protocol, &Scenario { profile: true, ..scenario.clone() }, seed, None);
            let a = deterministic_section(doc);
            let b = rerun.prof.as_deref().map(deterministic_section).unwrap_or_default();
            if a != b {
                return Err(format!(
                    "prof count/hist section not rerun-deterministic ({} {} seed {seed})",
                    protocol.name(),
                    scenario.label()
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_sim::event::Event;

    fn tiny() -> Scenario {
        Scenario { duration_secs: 12, trials: 1, ..Scenario::n50(3, 0) }
    }

    #[test]
    fn profiled_run_attributes_and_round_trips() {
        let run = run_profiled(Protocol::Ldr, &tiny(), 5);
        assert!(run.events > 0);
        assert_eq!(run.view.count("events_executed"), run.events);
        assert!(run.view.total_nanos > 0, "a real run measures time");
        let reparsed = ProfView::parse(&run.doc).expect("export parses");
        assert_eq!(reparsed.counts, run.view.counts);
        assert_eq!(reparsed.timings, run.view.timings);
        assert_eq!(reparsed.total_nanos, run.view.total_nanos);
        // Self times are exclusive, so the phase lines sum to total.
        let sum: u64 = run.view.timings.iter().map(|(_, ns)| ns).sum();
        assert_eq!(sum, run.view.total_nanos);
    }

    #[test]
    fn report_renders_all_sections() {
        let ldr = run_profiled(Protocol::Ldr, &tiny(), 5);
        let aodv = run_profiled(Protocol::Aodv, &tiny(), 5);
        let report = render_report(&[ldr.view, aodv.view], 8);
        assert!(report.contains("== LDR · n50-f3-p0 =="));
        assert!(report.contains("== AODV · n50-f3-p0 =="));
        assert!(report.contains("-- per-protocol cost --"));
    }

    #[test]
    fn rendered_document_parses_at_the_current_version() {
        let snap = manet_sim::prof::Profiler::new().snapshot([0; Event::KIND_COUNT], 0);
        let doc = prof_to_jsonl(1, 2, "LDR", "s", &snap);
        let view = ProfView::parse(&doc).expect("a freshly rendered document must parse");
        assert_eq!((view.protocol.as_str(), view.scenario.as_str()), ("LDR", "s"));
        assert_eq!(view.count("events_executed"), 0);
        assert_eq!(view.hists.len(), manet_sim::prof::N_HISTS);
    }

    #[test]
    fn purity_holds_on_a_small_run() {
        purity_check(Protocol::Ldr, &tiny(), 5).expect("profiling must be observation-pure");
    }

    #[test]
    fn parse_rejects_foreign_documents() {
        assert!(ProfView::parse("").is_err());
        assert!(ProfView::parse("{\"schema\":\"manet-trace\",\"version\":1}").is_err());
        assert!(ProfView::parse("{\"schema\":\"manet-prof\",\"version\":1}").is_err());
        let next = format!("{{\"schema\":\"manet-prof\",\"version\":{}}}", PROF_VERSION + 1);
        assert!(ProfView::parse(&next).is_err());
    }
}
