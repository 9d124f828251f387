//! Kernel profiling bench: per-phase wall-time attribution on the
//! paper scenarios, rendered as the profbench report and exportable
//! as `manet-prof` JSONL.
//!
//! ```text
//! cargo run --release -p ldr-bench --bin profbench -- --smoke
//! cargo run --release -p ldr-bench --bin profbench -- --smoke --check-purity \
//!     --out-dir telemetry-prof --table results/profbench.txt
//! ```
//!
//! Profiles every paper protocol on both paper scenarios, asserts
//! that at least `--min-attribution` percent of measured
//! kernel wall time lands in named phases, and — with
//! `--check-purity` — asserts the on-vs-off byte-identity
//! differential (metrics/trace/series unchanged by profiling, prof
//! count/hist section rerun-deterministic). Exits non-zero when
//! either gate fails.

use ldr_bench::profiling::{min_attribution, purity_check, render_report, run_profiled, ProfView};
use ldr_bench::scenario::{Protocol, Scenario};

fn main() {
    let mut full = false;
    let mut duration: Option<u64> = None;
    let mut only: Option<String> = None;
    let mut scenario_filter: Option<String> = None;
    let mut out_dir: Option<String> = None;
    let mut table: Option<String> = None;
    let mut check_purity = false;
    let mut min_attr_pct = 95.0f64;
    let mut top_k = 10usize;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => full = false,
            "--full" => full = true,
            "--duration" => {
                duration =
                    Some(it.next().expect("--duration needs a value").parse().expect("seconds"))
            }
            "--only" => only = Some(it.next().expect("--only needs a protocol name")),
            "--scenario" => {
                scenario_filter =
                    Some(it.next().expect("--scenario needs a label (e.g. n100-f30-p0)"))
            }
            "--out-dir" => out_dir = Some(it.next().expect("--out-dir needs a directory")),
            "--table" => table = Some(it.next().expect("--table needs a path")),
            "--check-purity" => check_purity = true,
            "--min-attribution" => {
                min_attr_pct = it
                    .next()
                    .expect("--min-attribution needs a percentage")
                    .parse()
                    .expect("percentage")
            }
            "--top" => top_k = it.next().expect("--top needs a value").parse().expect("integer"),
            other => {
                eprintln!(
                    "unknown flag {other}; supported: --smoke --full --duration SECS \
                     --only PROTO --scenario LABEL --out-dir DIR --table PATH \
                     --check-purity --min-attribution PCT --top K"
                );
                std::process::exit(2);
            }
        }
    }
    let duration = duration.unwrap_or(if full { 900 } else { 60 });

    let mut scenarios = vec![Scenario::n50(10, 0), Scenario::n100(30, 0)];
    for s in &mut scenarios {
        s.duration_secs = duration;
    }
    if let Some(f) = &scenario_filter {
        scenarios.retain(|s| &s.label() == f);
        if scenarios.is_empty() {
            eprintln!("--scenario {f} matches no paper scenario (n50-f10-p0, n100-f30-p0)");
            std::process::exit(2);
        }
    }
    let protocols: Vec<Protocol> = Protocol::PAPER_SET
        .into_iter()
        .filter(|p| only.as_deref().is_none_or(|o| p.name().eq_ignore_ascii_case(o)))
        .collect();
    if protocols.is_empty() {
        eprintln!("--only {:?} matches no paper protocol (LDR, AODV, DSR, OLSR)", only);
        std::process::exit(2);
    }

    let mut views: Vec<ProfView> = Vec::new();
    let mut docs: Vec<(String, String)> = Vec::new();
    for scenario in &scenarios {
        for &protocol in &protocols {
            eprintln!("profbench: {} on {} ({duration} s) ...", protocol.name(), scenario.label());
            let run = run_profiled(protocol, scenario, scenario.seed_base);
            docs.push((
                format!("prof-{}-{}.jsonl", scenario.label(), protocol.name().to_lowercase()),
                run.doc,
            ));
            views.push(run.view);
        }
    }

    let report = render_report(&views, top_k);
    print!("{report}");

    if let Some(dir) = &out_dir {
        let dir = std::path::Path::new(dir);
        std::fs::create_dir_all(dir).expect("create --out-dir");
        for (name, doc) in &docs {
            std::fs::write(dir.join(name), doc).expect("write prof jsonl");
        }
        println!("wrote {} prof file(s) to {}", docs.len(), dir.display());
    }
    if let Some(path) = &table {
        if let Some(dir) = std::path::Path::new(path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        std::fs::write(path, &report).expect("write profbench table");
        println!("wrote {path}");
    }

    let mut failed = false;
    let min_attr = 100.0 * min_attribution(&views);
    if min_attr < min_attr_pct {
        eprintln!(
            "ATTRIBUTION GATE FAILED: {min_attr:.2}% of kernel wall time attributed \
             (< {min_attr_pct:.2}% required)"
        );
        failed = true;
    } else {
        println!("attribution OK: ≥ {min_attr:.2}% of kernel wall time in named phases");
    }

    if check_purity {
        // The purity differential reruns each case three times; a
        // shorter slice is plenty to flush out an impure hook.
        for scenario in &scenarios {
            let short = Scenario { duration_secs: duration.min(30), ..scenario.clone() };
            for &protocol in &protocols {
                match purity_check(protocol, &short, short.seed_base) {
                    Ok(()) => eprintln!("purity OK: {} {}", protocol.name(), short.label()),
                    Err(e) => {
                        eprintln!("PURITY FAILED: {e}");
                        failed = true;
                    }
                }
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
