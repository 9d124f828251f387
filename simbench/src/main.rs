//! `simbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload in a closed loop on one thread: rounds of one run
//! per protocol, each run starting when the previous one ends. The
//! number of rounds is fixed by `--seconds` (see `Workload::rounds_for`),
//! so a seed always names the same work. With `--trace 0` it prints the
//! end-to-end metrics of bare runs; with `--trace 1` it runs the rounds
//! bare, replays them traced, and prints the per-layer metrics. The last
//! line of standard output is the JSON result.
//!
//! `--digests <rounds>` prints the `Metrics` digests of the first rounds
//! instead, in the format of `src/pinned.rs`.

use simbench::layers::{self, Traced};
use simbench::report::{self, median, percentile, Metric};
use simbench::spans::{self, Span};
use simbench::workload::{self, round_seed, Mode, Outcome, Workload};
use simbench::{alloc, pinned};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

const MB: f64 = 1024.0 * 1024.0;

/// Share of `--seconds` the traced invocation spends on bare runs; the
/// traced replay of the same rounds takes the rest.
const TRACE_BARE_SHARE: f64 = 0.35;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    digests: Option<u32>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: pinned::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        digests: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--digests" => args.digests = Some(value.parse().map_err(|e| bad(&e))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|e| {
        e.downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| e.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic".into())
    })
}

/// Counts runs and failures, and says why each failure happened.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            eprintln!("simbench: FAILED {what}: {why}");
        }
    }
}

/// One run with every check that needs no second run.
fn checked_run(w: &Workload, p: &str, seed: u64, round: u32, out: &Outcome) -> Result<(), String> {
    workload::check(w, out)?;
    match pinned::lookup(w.name, p, seed, round) {
        Some(want) if want != workload::digest(&out.metrics) => Err(format!(
            "digest {:#x} differs from the pinned {want:#x}",
            workload::digest(&out.metrics)
        )),
        _ => Ok(()),
    }
}

/// A traced run must reproduce its bare twin exactly.
fn same_run(bare: &Outcome, traced: &Outcome) -> Result<(), String> {
    if bare.metrics != traced.metrics {
        return Err("traced Metrics differ from the bare run".into());
    }
    if bare.events != traced.events {
        return Err(format!("traced run executed {} events, bare {}", traced.events, bare.events));
    }
    Ok(())
}

fn vm_hwm_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The bare runs of an invocation.
struct BareRuns {
    /// Each run's outcome as `(round, protocol index, outcome)`.
    runs: Vec<(u32, usize, Outcome)>,
    /// Each round's live-heap high-water mark above the bytes live when
    /// it started (so outcomes the harness keeps do not count).
    round_heap_peaks: Vec<f64>,
    /// Each round's set-up nanoseconds, summed over its runs.
    round_setup_ns: Vec<f64>,
}

/// `rounds` bare rounds.
fn bare_rounds(w: &Workload, seed: u64, rounds: u32, tally: &mut Tally) -> BareRuns {
    let mut runs = Vec::new();
    let mut round_heap_peaks = Vec::new();
    let mut round_setup_ns = Vec::new();
    for round in 0..rounds {
        let rs = round_seed(seed, round);
        let live_before = alloc::counts().live;
        alloc::reset_peak();
        let mut setup_ns = 0.0;
        for (i, &p) in w.protocols.iter().enumerate() {
            let name = p.name();
            let what = format!("{} {name} round {round}", w.name);
            let outcome = guarded(|| {
                let t0 = Instant::now();
                let built = workload::build(w, p, rs, Mode::Bare);
                setup_ns += t0.elapsed().as_nanos() as f64;
                workload::run(built, w)
            });
            match outcome {
                Ok(out) => {
                    eprintln!(
                        "simbench: {what}: {:.1} ms, {} events",
                        out.run_ns as f64 / 1e6,
                        out.events
                    );
                    tally.record(&what, checked_run(w, &name, seed, round, &out));
                    runs.push((round, i, out));
                }
                Err(why) => tally.record(&what, Err(format!("panicked: {why}"))),
            }
        }
        let heap_peak = alloc::counts().peak - live_before;
        eprintln!("simbench: {} round {round}: heap peak {:.1} MB", w.name, heap_peak as f64 / MB);
        round_heap_peaks.push(heap_peak as f64);
        round_setup_ns.push(setup_ns);
    }
    BareRuns { runs, round_heap_peaks, round_setup_ns }
}

fn name_of(w: &Workload, i: usize) -> String {
    w.protocols[i].name()
}

/// A traced run, with the allocations it made.
fn traced_run(
    w: &Workload,
    round: u32,
    i: usize,
    seed: u64,
) -> Result<(Outcome, alloc::Counts), String> {
    let built = workload::build(w, w.protocols[i], round_seed(seed, round), Mode::Traced);
    let before = alloc::counts();
    let out = guarded(|| workload::run(built, w))?;
    let after = alloc::counts();
    Ok((
        out,
        alloc::Counts {
            allocs: after.allocs - before.allocs,
            bytes: after.bytes - before.bytes,
            ..after
        },
    ))
}

fn end_to_end(w: &Workload, seed: u64, seconds: f64, tally: &mut Tally) -> Vec<Metric> {
    let BareRuns { runs, round_heap_peaks, round_setup_ns } =
        bare_rounds(w, seed, w.rounds_for(seconds), tally);
    // Traced replay of the first round: the wrappers and the profiler
    // must not change the simulation (untimed).
    for (round, i, bare) in runs.iter().filter(|(r, ..)| *r == 0) {
        let what = format!("{} {} round {round} traced replay", w.name, name_of(w, *i));
        let result = traced_run(w, *round, *i, seed).and_then(|(t, _)| same_run(bare, &t));
        tally.record(&what, result);
    }
    let mut slices: Vec<u64> = runs.iter().flat_map(|(.., o)| o.slice_ns.iter().copied()).collect();
    slices.sort_unstable();
    let host_s: f64 = runs.iter().map(|(.., o)| o.run_ns as f64 / 1e9).sum();
    let sim_s: f64 = runs.iter().map(|(.., o)| o.metrics.sim_seconds).sum();
    let rounds = runs.iter().map(|(r, ..)| r + 1).max().unwrap_or(0);
    println!(
        "simbench: workload={} seed={seed} rounds={rounds} runs={} slices={} vm_hwm_mb={:.1} \
         failed={}/{}",
        w.name,
        runs.len(),
        slices.len(),
        vm_hwm_mb(),
        tally.failed,
        tally.attempted
    );
    vec![
        Metric { name: "setup_s".into(), value: median(&round_setup_ns) / 1e9, unit: "s" },
        Metric {
            name: "sim_s_per_host_s".into(),
            value: if host_s > 0.0 { sim_s / host_s } else { 0.0 },
            unit: "1/s",
        },
        Metric {
            name: "slice_ms_p50".into(),
            value: percentile(&slices, 0.50) as f64 / 1e6,
            unit: "ms",
        },
        Metric {
            name: "slice_ms_p99".into(),
            value: percentile(&slices, 0.99) as f64 / 1e6,
            unit: "ms",
        },
        Metric {
            name: "heap_peak_mb".into(),
            value: round_heap_peaks.iter().sum::<f64>() / round_heap_peaks.len().max(1) as f64 / MB,
            unit: "MB",
        },
    ]
}

fn per_layer(w: &Workload, seed: u64, seconds: f64, tally: &mut Tally) -> Vec<Metric> {
    let bare = bare_rounds(w, seed, w.rounds_for(seconds * TRACE_BARE_SHARE), tally);
    let runs = bare.runs;
    let mut t = Traced { setup_ns: median(&bare.round_setup_ns), ..Traced::default() };
    spans::reset();
    for (round, i, bare) in &runs {
        let what = format!("{} {} round {round} traced", w.name, name_of(w, *i));
        let records_before = spans::tally(Span::TraceRecord).calls;
        let result = traced_run(w, *round, *i, seed).and_then(|(out, allocs)| {
            same_run(bare, &out)?;
            let records = spans::tally(Span::TraceRecord).calls - records_before;
            let lines = out.export.as_ref().map_or(0, |x| x.trace_lines);
            if records != lines {
                return Err(format!("sink received {records} records but wrote {lines} lines"));
            }
            let snap = out.prof.as_ref().ok_or("traced run has no profile")?;
            t.profile.add(snap);
            t.events += out.events;
            t.bare_ns += bare.run_ns;
            t.traced_ns += out.run_ns;
            t.alloc.allocs += allocs.allocs;
            t.alloc.bytes += allocs.bytes;
            t.add_metrics(&out.metrics);
            if let Some(x) = &out.export {
                t.trace_bytes += x.trace_bytes;
                t.samples += x.samples;
                t.series_ns += x.series_ns;
            }
            Ok(())
        });
        tally.record(&what, result);
    }
    println!(
        "simbench: workload={} seed={seed} traced runs={} failed={}/{}",
        w.name,
        runs.len(),
        tally.failed,
        tally.attempted
    );
    layers::metrics(&t)
}

fn print_digests(w: &Workload, seed: u64, rounds: u32) {
    for round in 0..rounds {
        for (i, &p) in w.protocols.iter().enumerate() {
            let out = workload::run(workload::build(w, p, round_seed(seed, round), Mode::Bare), w);
            println!(
                "    (\"{}\", \"{}\", {round}, {:#018x}),",
                w.name,
                name_of(w, i),
                workload::digest(&out.metrics)
            );
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = Workload::named(&args.workload) else {
        eprintln!("simbench: unknown workload {:?} (one of {:?})", args.workload, workload::NAMES);
        return ExitCode::from(2);
    };
    if let Some(rounds) = args.digests {
        print_digests(&w, args.seed, rounds);
        return ExitCode::SUCCESS;
    }
    let mut tally = Tally::default();
    let metrics = if args.trace {
        per_layer(&w, args.seed, args.seconds, &mut tally)
    } else {
        end_to_end(&w, args.seed, args.seconds, &mut tally)
    };
    let line = report::result_line(tally.failed == 0, tally.attempted, tally.failed, &metrics);
    println!("{line}");
    ExitCode::SUCCESS
}
