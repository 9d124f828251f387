//! Wall-clock performance benchmark ("perfbench"): times the
//! paper-scale 50- and 100-node scenarios under every paper protocol,
//! once with the spatial neighbor grid ([`manet_sim::spatial`]) and
//! once with the linear-scan reference, on identical fixed seeds.
//!
//! Because grid-backed runs are byte-identical to linear-scan runs,
//! the pair measures exactly one thing — how fast the same answer is
//! computed — and the benchmark double-checks that premise by
//! comparing the two runs' [`Metrics`] with `==` on every trial.
//!
//! Results go to a machine-readable `BENCH_4.json` (schema documented
//! in `DESIGN.md` §12) and a human-readable table
//! (`results/perfbench.txt`).

use crate::runner::build_world;
use crate::scenario::{Protocol, Scenario};
use manet_sim::metrics::Metrics;
use manet_sim::time::{SimDuration, SimTime};
use std::fmt::Write as _;
use std::time::Instant;

/// One timed simulation run.
#[derive(Clone, Debug)]
pub struct TrialTiming {
    /// Wall-clock seconds the run took.
    pub wall_s: f64,
    /// Events the kernel executed.
    pub events: u64,
    /// The run's metrics (for the identity cross-check).
    pub metrics: Metrics,
}

/// Runs one trial and times it. Identical world construction to
/// [`crate::runner::run_once`]; kept separate so the world survives the
/// run and [`manet_sim::world::World::events_executed`] is readable.
pub fn run_timed(protocol: Protocol, scenario: &Scenario, seed: u64) -> TrialTiming {
    let mut world = build_world(protocol, scenario, seed, None);
    let start = Instant::now();
    world.run_until(SimTime::ZERO + SimDuration::from_secs(scenario.duration_secs));
    world.finalize();
    let wall_s = start.elapsed().as_secs_f64();
    TrialTiming { wall_s, events: world.events_executed(), metrics: world.metrics().clone() }
}

/// Aggregated timings of one `(scenario, protocol)` cell: grid and
/// linear trials on the same seeds, plus the derived comparison.
#[derive(Clone, Debug)]
pub struct Comparison {
    /// Protocol display name.
    pub protocol: String,
    /// Per-trial wall-clock seconds, grid-backed.
    pub grid_wall_s: Vec<f64>,
    /// Per-trial wall-clock seconds, linear-scan reference.
    pub linear_wall_s: Vec<f64>,
    /// Kernel events executed per grid trial.
    pub grid_events: Vec<u64>,
    /// Kernel events executed per linear trial.
    pub linear_events: Vec<u64>,
    /// Whether every trial's grid metrics equalled its linear metrics.
    pub metrics_identical: bool,
}

impl Comparison {
    /// Mean grid wall-clock seconds per trial.
    pub fn grid_mean_s(&self) -> f64 {
        mean(&self.grid_wall_s)
    }
    /// Mean linear wall-clock seconds per trial.
    pub fn linear_mean_s(&self) -> f64 {
        mean(&self.linear_wall_s)
    }
    /// Linear wall-clock over grid wall-clock (higher = grid faster).
    pub fn speedup(&self) -> f64 {
        let g = self.grid_mean_s();
        if g > 0.0 {
            self.linear_mean_s() / g
        } else {
            f64::INFINITY
        }
    }
    /// Events per wall-clock second in the grid-backed runs.
    pub fn grid_events_per_sec(&self) -> f64 {
        let wall: f64 = self.grid_wall_s.iter().sum();
        if wall > 0.0 {
            self.grid_events.iter().sum::<u64>() as f64 / wall
        } else {
            0.0
        }
    }
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// One benchmark scenario's results across protocols.
#[derive(Clone, Debug)]
pub struct ScenarioReport {
    /// Short scenario label (e.g. `n100-f30-p0`).
    pub name: String,
    /// The scenario timed (with `spatial_grid` as configured per run).
    pub scenario: Scenario,
    /// One comparison per protocol.
    pub rows: Vec<Comparison>,
}

impl ScenarioReport {
    /// Aggregate scenario speedup: total linear wall-clock across every
    /// protocol and trial divided by total grid wall-clock. This is the
    /// "speedup on that scenario" number the acceptance gate reads.
    pub fn speedup(&self) -> f64 {
        let lin: f64 = self.rows.iter().flat_map(|r| r.linear_wall_s.iter()).sum();
        let grid: f64 = self.rows.iter().flat_map(|r| r.grid_wall_s.iter()).sum();
        if grid > 0.0 {
            lin / grid
        } else {
            f64::INFINITY
        }
    }
}

/// The full perfbench report.
#[derive(Clone, Debug)]
pub struct PerfReport {
    /// `"smoke"` or `"full"`.
    pub mode: String,
    /// All scenario blocks.
    pub scenarios: Vec<ScenarioReport>,
}

/// The two paper-scale benchmark scenarios: 50 nodes / 10 flows and
/// 100 nodes / 30 flows, both at pause 0 (continuous motion — the
/// worst case for a position cache, hence the honest one to time).
pub fn paper_cases(duration_secs: u64, trials: u32) -> Vec<(String, Scenario)> {
    let mut n50 = Scenario::n50(10, 0);
    n50.duration_secs = duration_secs;
    n50.trials = trials;
    let mut n100 = Scenario::n100(30, 0);
    n100.duration_secs = duration_secs;
    n100.trials = trials;
    vec![("n50-f10-p0".to_string(), n50), ("n100-f30-p0".to_string(), n100)]
}

/// Times every `(scenario, protocol, trial)` cell, grid vs linear, on
/// seeds `seed_base + k`. Prints one progress line per cell to stderr.
pub fn run_perfbench(cases: &[(String, Scenario)], mode: &str) -> PerfReport {
    run_perfbench_filtered(cases, mode, None)
}

/// Like [`run_perfbench`] but restricted to one protocol when `only` is
/// set (case-insensitive name match; used by `perfbench --only` for
/// targeted profiling).
pub fn run_perfbench_filtered(
    cases: &[(String, Scenario)],
    mode: &str,
    only: Option<&str>,
) -> PerfReport {
    let mut scenarios = Vec::new();
    for (name, scenario) in cases {
        let mut rows = Vec::new();
        for protocol in Protocol::PAPER_SET {
            if let Some(want) = only {
                if !protocol.name().eq_ignore_ascii_case(want) {
                    continue;
                }
            }
            let mut cmp = Comparison {
                protocol: protocol.name(),
                grid_wall_s: Vec::new(),
                linear_wall_s: Vec::new(),
                grid_events: Vec::new(),
                linear_events: Vec::new(),
                metrics_identical: true,
            };
            for k in 0..scenario.trials {
                let seed = crate::runner::trial_seed(scenario.seed_base, k);
                let mut grid_sc = scenario.clone();
                grid_sc.spatial_grid = true;
                let g = run_timed(protocol, &grid_sc, seed);
                let mut lin_sc = scenario.clone();
                lin_sc.spatial_grid = false;
                let l = run_timed(protocol, &lin_sc, seed);
                cmp.metrics_identical &= g.metrics == l.metrics;
                cmp.grid_wall_s.push(g.wall_s);
                cmp.linear_wall_s.push(l.wall_s);
                cmp.grid_events.push(g.events);
                cmp.linear_events.push(l.events);
            }
            eprintln!(
                "perfbench {name} {:<10} grid {:.3}s linear {:.3}s speedup {:.2}x identical={}",
                cmp.protocol,
                cmp.grid_mean_s(),
                cmp.linear_mean_s(),
                cmp.speedup(),
                cmp.metrics_identical,
            );
            rows.push(cmp);
        }
        scenarios.push(ScenarioReport { name: name.clone(), scenario: scenario.clone(), rows });
    }
    PerfReport { mode: mode.to_string(), scenarios }
}

fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.6}")
    } else {
        "null".to_string()
    }
}

impl PerfReport {
    /// Renders the report as `BENCH_4.json` (hand-rolled, stable key
    /// order; schema in `DESIGN.md` §12).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"bench\": \"perfbench\",\n");
        s.push_str("  \"schema\": 1,\n");
        let _ = writeln!(s, "  \"mode\": \"{}\",", self.mode);
        s.push_str("  \"scenarios\": [\n");
        for (i, sc) in self.scenarios.iter().enumerate() {
            s.push_str("    {\n");
            let _ = writeln!(s, "      \"name\": \"{}\",", sc.name);
            let _ = writeln!(s, "      \"n_nodes\": {},", sc.scenario.n_nodes);
            let _ = writeln!(s, "      \"n_flows\": {},", sc.scenario.n_flows);
            let _ = writeln!(s, "      \"pause_secs\": {},", sc.scenario.pause_secs);
            let _ = writeln!(s, "      \"duration_secs\": {},", sc.scenario.duration_secs);
            let _ = writeln!(s, "      \"trials\": {},", sc.scenario.trials);
            let _ = writeln!(s, "      \"seed_base\": {},", sc.scenario.seed_base);
            s.push_str("      \"protocols\": [\n");
            for (j, row) in sc.rows.iter().enumerate() {
                s.push_str("        {\n");
                let _ = writeln!(s, "          \"protocol\": \"{}\",", row.protocol);
                let _ = writeln!(
                    s,
                    "          \"grid_wall_s\": [{}],",
                    row.grid_wall_s.iter().map(|&x| json_f64(x)).collect::<Vec<_>>().join(", ")
                );
                let _ = writeln!(
                    s,
                    "          \"linear_wall_s\": [{}],",
                    row.linear_wall_s.iter().map(|&x| json_f64(x)).collect::<Vec<_>>().join(", ")
                );
                let _ = writeln!(
                    s,
                    "          \"grid_events\": [{}],",
                    row.grid_events.iter().map(|e| e.to_string()).collect::<Vec<_>>().join(", ")
                );
                let _ = writeln!(
                    s,
                    "          \"linear_events\": [{}],",
                    row.linear_events.iter().map(|e| e.to_string()).collect::<Vec<_>>().join(", ")
                );
                let _ =
                    writeln!(s, "          \"grid_mean_wall_s\": {},", json_f64(row.grid_mean_s()));
                let _ = writeln!(
                    s,
                    "          \"linear_mean_wall_s\": {},",
                    json_f64(row.linear_mean_s())
                );
                let _ = writeln!(
                    s,
                    "          \"grid_events_per_sec\": {},",
                    json_f64(row.grid_events_per_sec())
                );
                let _ = writeln!(s, "          \"speedup\": {},", json_f64(row.speedup()));
                let _ = writeln!(s, "          \"metrics_identical\": {}", row.metrics_identical);
                s.push_str(if j + 1 < sc.rows.len() { "        },\n" } else { "        }\n" });
            }
            s.push_str("      ],\n");
            let _ = writeln!(s, "      \"scenario_speedup\": {}", json_f64(sc.speedup()));
            s.push_str(if i + 1 < self.scenarios.len() { "    },\n" } else { "    }\n" });
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Renders the human-readable table (`results/perfbench.txt`).
    pub fn to_table(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "perfbench ({} mode): spatial grid vs linear scan, identical seeds",
            self.mode
        );
        for sc in &self.scenarios {
            let _ = writeln!(
                s,
                "\n{} — {} nodes, {} flows, pause {} s, {} s simulated, {} trial(s)",
                sc.name,
                sc.scenario.n_nodes,
                sc.scenario.n_flows,
                sc.scenario.pause_secs,
                sc.scenario.duration_secs,
                sc.scenario.trials
            );
            let _ = writeln!(
                s,
                "{:<12} {:>14} {:>14} {:>9} {:>14} {:>10}",
                "protocol",
                "linear s/trial",
                "grid s/trial",
                "speedup",
                "grid events/s",
                "identical"
            );
            for row in &sc.rows {
                let _ = writeln!(
                    s,
                    "{:<12} {:>14.3} {:>14.3} {:>8.2}x {:>14.0} {:>10}",
                    row.protocol,
                    row.linear_mean_s(),
                    row.grid_mean_s(),
                    row.speedup(),
                    row.grid_events_per_sec(),
                    if row.metrics_identical { "yes" } else { "NO" }
                );
            }
            let _ = writeln!(s, "{:<12} {:>14} {:>14} {:>8.2}x", "aggregate", "", "", sc.speedup());
        }
        s
    }

    /// The minimum speedup across every `(scenario, protocol)` cell —
    /// what the acceptance gate checks.
    pub fn min_speedup(&self) -> f64 {
        self.scenarios
            .iter()
            .flat_map(|sc| sc.rows.iter())
            .map(Comparison::speedup)
            .fold(f64::INFINITY, f64::min)
    }

    /// Whether any trial's grid metrics differed from its linear twin.
    pub fn any_mismatch(&self) -> bool {
        self.scenarios.iter().flat_map(|sc| sc.rows.iter()).any(|r| !r.metrics_identical)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_case() -> Vec<(String, Scenario)> {
        let mut sc = Scenario::n50(3, 0);
        sc.n_nodes = 12;
        sc.terrain = (700.0, 300.0);
        sc.duration_secs = 10;
        sc.trials = 1;
        vec![("tiny".to_string(), sc)]
    }

    #[test]
    fn grid_and_linear_metrics_agree_and_report_renders() {
        let cases = tiny_case();
        let report = run_perfbench(&cases, "test");
        assert!(!report.any_mismatch(), "grid run diverged from linear run");
        assert!(report.min_speedup().is_finite());
        let json = report.to_json();
        for key in [
            "\"bench\": \"perfbench\"",
            "\"schema\": 1",
            "\"speedup\"",
            "\"metrics_identical\": true",
            "\"grid_events_per_sec\"",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count(), "unbalanced JSON");
        assert_eq!(json.matches('[').count(), json.matches(']').count(), "unbalanced JSON");
        let table = report.to_table();
        assert!(table.contains("LDR") && table.contains("speedup"), "table:\n{table}");
    }

    #[test]
    fn timed_run_reports_events_and_metrics() {
        let (_, sc) = &tiny_case()[0];
        let t = run_timed(Protocol::Ldr, sc, 42);
        assert!(t.events > 0, "kernel executed no events");
        assert!(t.metrics.data_originated > 0, "no traffic originated");
        assert!(t.wall_s >= 0.0);
    }

    #[test]
    fn paper_cases_match_the_paper_topologies() {
        let cases = paper_cases(900, 3);
        assert_eq!(cases.len(), 2);
        assert_eq!(cases[0].1.n_nodes, 50);
        assert_eq!(cases[0].1.terrain, (1500.0, 300.0));
        assert_eq!(cases[1].1.n_nodes, 100);
        assert_eq!(cases[1].1.terrain, (2200.0, 600.0));
        for (_, sc) in &cases {
            assert_eq!(sc.pause_secs, 0, "bench at max mobility");
            assert_eq!(sc.trials, 3);
        }
    }
}
