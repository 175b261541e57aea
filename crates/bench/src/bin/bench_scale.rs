//! Scaling benchmark for the delta-driven call-graph fixpoint: generated
//! programs far beyond the paper suite's 31 functions (up to ~131k), with
//! deep virtual hierarchies and long call ladders that force the fixpoint
//! through dozens of park/release rounds.
//!
//! For each size the driver times summary extraction plus call-graph
//! replay at one worker and at eight, checks the graph and the
//! delta-worklist telemetry (rounds, per-round delta sizes, worklist pops,
//! readied-site drains) against the sequential walk reference once
//! (untimed), and fits the scaling exponent between consecutive sizes:
//! `ln(t2/t1) / ln(n2/n1)`. A full-set round sweep is
//! Θ(rounds × n); the delta worklist pops each function once and the
//! interned dense hot loops do no per-pop hashing, so the exponent stays
//! near 1.
//!
//! The ladder grows by adding *chains* (independent hierarchies) at a
//! fixed depth and rung count, so per-chain work is constant and the
//! ideal exponent is exactly 1 — any superlinearity is the engine's own.
//!
//! ```text
//! bench_scale [--json] [--samples N] [--smoke] [--emit PATH]
//! ```
//!
//! `--json` writes `BENCH_scale.json`. `--smoke` runs the two smallest
//! sizes with one sample and fails on a wall-clock ceiling, a scaling
//! exponent above [`SMOKE_EXPONENT_CEILING`], or an eight-worker run
//! slower than one worker beyond noise — the CI gates. `--emit PATH`
//! writes the smallest size's generated source to `PATH` so the CI
//! trace gate has a program big enough for summary extraction to shard
//! eight ways.

use ddm_bench::{effective_jobs, host_meta_json, timing};
use ddm_benchmarks::generator::{generate_scale, scale_function_count, ScaleConfig};
use ddm_callgraph::{Algorithm, CallGraph, CallGraphOptions};
use ddm_hierarchy::{MemberLookup, Program, ProgramSummary};
use ddm_telemetry::Telemetry;
use std::time::{Duration, Instant};

/// Wall-clock ceiling for `--smoke` (generation + parse + the summary
/// engine at both worker counts + one reference walk, two sizes).
const SMOKE_CEILING: Duration = Duration::from_secs(30);

/// `--smoke` fails if any adjacent-size scaling exponent exceeds this.
/// The committed full sweep stays under 1.25; 1.4 leaves headroom for
/// small-size noise while still catching a quadratic regression (~2)
/// immediately.
const SMOKE_EXPONENT_CEILING: f64 = 1.4;

/// `--smoke` fails if an eight-worker run is slower than one worker by
/// more than this factor. Sharding must pay for itself (or, clamped to
/// one worker on a single-CPU host, be the identical schedule), so
/// anything past noise is a regression.
const SMOKE_JOBS_TOLERANCE: f64 = 1.15;

struct SizeResult {
    name: &'static str,
    config: ScaleConfig,
    functions: usize,
    summary_cg: Duration,
    summary_cg_j8: Duration,
    rounds: u64,
    worklist_pops: u64,
    ready_drains: u64,
    deltas: Vec<u64>,
}

/// The ladder sizes: chains quadruple while depth, methods, and rungs
/// stay fixed, so function count quadruples with per-chain work held
/// constant. `huge` crosses 100k functions.
fn sizes(smoke: bool) -> Vec<(&'static str, ScaleConfig)> {
    let at = |chains| ScaleConfig {
        chains,
        depth: 16,
        methods_per_class: 4,
        members_per_class: 3,
        rungs: 64,
    };
    let mut v = vec![("small", at(16)), ("medium", at(64))];
    if !smoke {
        v.push(("large", at(256)));
        v.push(("huge", at(1024)));
    }
    v
}

fn measure(name: &'static str, config: ScaleConfig, samples: usize) -> SizeResult {
    let src = generate_scale(&config, 42);
    let tu = ddm_cppfront::parse(&src).expect("scale program parses");
    let program = Program::build(&tu).expect("scale program resolves");
    assert_eq!(program.function_count(), scale_function_count(&config));
    let options = CallGraphOptions {
        algorithm: Algorithm::Rta,
        ..Default::default()
    };
    let jobs8 = effective_jobs(8);

    let quiet = Telemetry::disabled();
    let (summary_cg, _) = timing::time(samples, || {
        let summary = ProgramSummary::build(&program, false, 1);
        CallGraph::build_from_summary_schedule(&program, &summary, &options, &quiet).unwrap()
    });
    let (summary_cg_j8, _) = timing::time(samples, || {
        let summary = ProgramSummary::build(&program, false, jobs8);
        CallGraph::build_from_summary_schedule(&program, &summary, &options, &quiet).unwrap()
    });

    // Deterministic worklist telemetry, checked once against the walk
    // reference: the delta schedule is shared, so the graph, pops,
    // drains, and per-round delta sizes must be identical.
    let walk_tel = Telemetry::enabled();
    let lookup = MemberLookup::new(&program);
    let walked = CallGraph::build_with(&program, &lookup, &options, &walk_tel).unwrap();
    let summary_tel = Telemetry::enabled();
    let summary = ProgramSummary::build(&program, false, jobs8);
    let (replayed, _) =
        CallGraph::build_from_summary_schedule(&program, &summary, &options, &summary_tel)
            .unwrap();
    assert_eq!(walked, replayed, "{name}: summary graph diverged from the walk reference");
    let wc = walk_tel.counters();
    let sc = summary_tel.counters();
    assert_eq!(
        (wc.cg_worklist_pops, wc.cg_ready_drains),
        (sc.cg_worklist_pops, sc.cg_ready_drains),
        "{name}: worklist counters diverged from the walk reference"
    );
    let ss = summary_tel.stats();
    assert_eq!(
        walk_tel.stats().cg_round_deltas,
        ss.cg_round_deltas,
        "{name}: per-round delta sizes diverged from the walk reference"
    );

    SizeResult {
        name,
        config,
        functions: program.function_count(),
        summary_cg,
        summary_cg_j8,
        rounds: ss.callgraph_rounds,
        worklist_pops: sc.cg_worklist_pops,
        ready_drains: sc.cg_ready_drains,
        deltas: ss.cg_round_deltas,
    }
}

/// log(t2/t1) / log(n2/n1): the empirical scaling exponent between two
/// measurements.
fn exponent(small: (usize, Duration), large: (usize, Duration)) -> f64 {
    let dt = (large.1.as_secs_f64() / small.1.as_secs_f64().max(f64::EPSILON)).ln();
    let dn = (large.0 as f64 / small.0 as f64).ln();
    dt / dn
}

fn render_json(results: &[SizeResult], samples: usize) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"suite\": \"ddm-benchmarks scale generator\",\n");
    out.push_str("  \"algorithm\": \"rta\",\n");
    out.push_str(&format!("  \"samples\": {samples},\n"));
    out.push_str(&format!("  \"jobs8_effective\": {},\n", effective_jobs(8)));
    out.push_str(&format!("  \"host\": {},\n", host_meta_json()));
    out.push_str("  \"sizes\": [\n");
    for (i, r) in results.iter().enumerate() {
        let c = &r.config;
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"functions\": {}, \"config\": {{\"chains\": {}, \"depth\": {}, \"methods_per_class\": {}, \"members_per_class\": {}, \"rungs\": {}}},\n",
            r.name, r.functions, c.chains, c.depth, c.methods_per_class, c.members_per_class, c.rungs
        ));
        out.push_str(&format!(
            "     \"summary_callgraph_ns\": {}, \"summary_callgraph_jobs8_ns\": {},\n",
            r.summary_cg.as_nanos(),
            r.summary_cg_j8.as_nanos()
        ));
        let max_delta = r.deltas.iter().copied().max().unwrap_or(0);
        let sum_delta: u64 = r.deltas.iter().sum();
        out.push_str(&format!(
            "     \"rounds\": {}, \"worklist_pops\": {}, \"ready_drains\": {}, \"delta_sum\": {sum_delta}, \"delta_max\": {max_delta}}}",
            r.rounds, r.worklist_pops, r.ready_drains
        ));
        out.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]");
    if results.len() >= 2 {
        out.push_str(",\n  \"scaling_exponents\": [\n");
        for w in results.windows(2) {
            let summary = exponent(
                (w[0].functions, w[0].summary_cg),
                (w[1].functions, w[1].summary_cg),
            );
            let summary_j8 = exponent(
                (w[0].functions, w[0].summary_cg_j8),
                (w[1].functions, w[1].summary_cg_j8),
            );
            out.push_str(&format!(
                "    {{\"from\": \"{}\", \"to\": \"{}\", \"summary\": {summary:.3}, \"summary_jobs8\": {summary_j8:.3}}}{}",
                w[0].name,
                w[1].name,
                if w[1].name == results.last().unwrap().name { "\n" } else { ",\n" }
            ));
        }
        out.push_str("  ]\n");
    } else {
        out.push('\n');
    }
    out.push_str("}\n");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let smoke = args.iter().any(|a| a == "--smoke");
    let emit = args
        .iter()
        .position(|a| a == "--emit")
        .map(|i| args.get(i + 1).cloned().unwrap_or_else(|| {
            eprintln!("error: --emit needs a path");
            std::process::exit(2);
        }));
    let samples = args
        .iter()
        .position(|a| a == "--samples")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(if smoke { 1 } else { 3 });

    if let Some(path) = &emit {
        let (_, config) = sizes(true).remove(0);
        std::fs::write(path, generate_scale(&config, 42)).expect("write emitted source");
        println!(
            "emitted {path} ({} functions)",
            scale_function_count(&config)
        );
        if !json && !smoke {
            return; // emit-only invocation: no measurement requested
        }
    }

    let started = Instant::now();
    let results: Vec<SizeResult> = sizes(smoke)
        .into_iter()
        .map(|(name, config)| measure(name, config, samples))
        .collect();

    println!(
        "{:<8} {:>8} {:>8} {:>12} {:>12} {:>9} {:>9}",
        "size", "funcs", "rounds", "summary", "summary j8", "pops", "drains"
    );
    for r in &results {
        println!(
            "{:<8} {:>8} {:>8} {:>12.1?} {:>12.1?} {:>9} {:>9}",
            r.name,
            r.functions,
            r.rounds,
            r.summary_cg,
            r.summary_cg_j8,
            r.worklist_pops,
            r.ready_drains
        );
    }
    let mut worst_exponent: f64 = 0.0;
    for w in results.windows(2) {
        let summary = exponent(
            (w[0].functions, w[0].summary_cg),
            (w[1].functions, w[1].summary_cg),
        );
        worst_exponent = worst_exponent.max(summary);
        println!(
            "exponent {} -> {}: summary {summary:.3}  (full-sweep baseline ~2)",
            w[0].name, w[1].name,
        );
    }

    if json {
        // The smoke run measures the two smallest sizes only — keep it
        // away from the committed full-sweep BENCH_scale.json.
        let path = if smoke {
            "BENCH_scale_smoke.json"
        } else {
            "BENCH_scale.json"
        };
        std::fs::write(path, render_json(&results, samples)).expect("write scale JSON");
        println!("wrote {path}");
    }

    if smoke {
        let elapsed = started.elapsed();
        assert!(
            elapsed < SMOKE_CEILING,
            "scale smoke exceeded its wall-clock ceiling: {elapsed:.1?} >= {SMOKE_CEILING:?}"
        );
        assert!(
            worst_exponent <= SMOKE_EXPONENT_CEILING,
            "scaling exponent regressed: {worst_exponent:.3} > {SMOKE_EXPONENT_CEILING}"
        );
        for r in &results {
            let (j1, j8) = (r.summary_cg, r.summary_cg_j8);
            assert!(
                j8 <= j1.mul_f64(SMOKE_JOBS_TOLERANCE),
                "{} summary: jobs=8 ({j8:.1?}) slower than jobs=1 ({j1:.1?}) beyond {SMOKE_JOBS_TOLERANCE}x",
                r.name
            );
        }
        println!(
            "smoke OK in {elapsed:.1?} (ceiling {SMOKE_CEILING:?}, worst exponent {worst_exponent:.3})"
        );
    }
}
