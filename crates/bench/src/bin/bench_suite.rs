//! Per-program wall time over the whole benchmark suite for call-graph
//! construction and the liveness analysis, at 1 and 8 workers.
//!
//! The call-graph phase is summary extraction (the only AST traversal of
//! the run) + worklist replay, so extraction is charged where it
//! actually happens; the analysis phase is the liveness replay.
//!
//! ```text
//! bench_suite [--json] [--samples N]
//! ```
//!
//! `--json` additionally writes `BENCH_suite.json` (machine-readable,
//! consumed by `ci.sh` as a smoke check). Timings are minima over `N`
//! samples (default 9) — the least noisy estimator for deterministic
//! CPU-bound work.

use ddm_bench::{capture_counters, effective_jobs, host_meta_json, suite_analysis_config, timing};
use ddm_callgraph::{Algorithm, CallGraph, CallGraphOptions};
use ddm_core::DeadMemberAnalysis;
use ddm_hierarchy::{Program, ProgramSummary};
use ddm_telemetry::{Counters, Telemetry};
use std::time::Duration;

struct Cell {
    callgraph: Duration,
    analysis: Duration,
}

impl Cell {
    fn total(&self) -> Duration {
        self.callgraph + self.analysis
    }
}

struct Row {
    name: &'static str,
    functions: usize,
    /// One cell per entry of [`JOBS`].
    cells: [Cell; 2],
    /// Deterministic analysis counters — identical for every jobs value,
    /// so one capture per program is exact, not sampled.
    counters: Counters,
}

const JOBS: [usize; 2] = [1, 8];

fn measure(program: &Program, samples: usize) -> [Cell; 2] {
    let options = CallGraphOptions {
        algorithm: Algorithm::Rta,
        ..Default::default()
    };
    let quiet = Telemetry::disabled();
    // Worker counts are clamped to the machine's parallelism: the
    // "jobs8" column measures the sharded schedule, not thread
    // oversubscription on a smaller host (the artifacts are identical
    // either way).
    JOBS.map(|jobs| {
        let jobs = effective_jobs(jobs);
        let build = || {
            let summary = ProgramSummary::build(program, false, jobs);
            let (graph, _) =
                CallGraph::build_from_summary_schedule(program, &summary, &options, &quiet)
                    .unwrap();
            (summary, graph)
        };
        let (callgraph, _) = timing::time(samples, build);
        let (summary, graph) = build();
        let analysis = DeadMemberAnalysis::new(program, suite_analysis_config());
        let (liveness, _) = timing::time(samples, || {
            analysis.run_summary_counted(&summary, &graph, &quiet).unwrap()
        });
        Cell {
            callgraph,
            analysis: liveness,
        }
    })
}

fn total_for(rows: &[Row], jobs_ix: usize) -> Duration {
    rows.iter().map(|r| r.cells[jobs_ix].total()).sum()
}

fn json_escape_free(name: &str) -> &str {
    // Benchmark names are ASCII identifiers; assert rather than escape.
    assert!(
        name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-'),
        "benchmark name {name:?} needs JSON escaping"
    );
    name
}

fn render_json(rows: &[Row], samples: usize) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"suite\": \"ddm-benchmarks\",\n");
    out.push_str("  \"algorithm\": \"rta\",\n");
    out.push_str(&format!("  \"samples\": {samples},\n"));
    out.push_str(&format!("  \"jobs8_effective\": {},\n", effective_jobs(8)));
    out.push_str(&format!("  \"host\": {},\n", host_meta_json()));
    out.push_str("  \"programs\": [\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"functions\": {}, ",
            json_escape_free(row.name),
            row.functions
        ));
        for (c, jobs) in row.cells.iter().zip(JOBS) {
            out.push_str(&format!(
                "\"jobs{jobs}\": {{\"callgraph_ns\": {}, \"analysis_ns\": {}, \"total_ns\": {}}}, ",
                c.callgraph.as_nanos(),
                c.analysis.as_nanos(),
                c.total().as_nanos()
            ));
        }
        out.push_str("\"counters\": {");
        let counter_rows = row.counters.rows();
        for (k, (key, value)) in counter_rows.iter().enumerate() {
            out.push_str(&format!("\"{key}\": {value}"));
            if k + 1 < counter_rows.len() {
                out.push_str(", ");
            }
        }
        out.push_str("}}");
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
    out.push_str("  \"totals\": {\n");
    for (j, jobs) in JOBS.iter().enumerate() {
        out.push_str(&format!(
            "    \"summary_jobs{jobs}_ns\": {}",
            total_for(rows, j).as_nanos()
        ));
        out.push_str(if j + 1 < JOBS.len() { ",\n" } else { "\n" });
    }
    out.push_str("  }\n}\n");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let samples = args
        .iter()
        .position(|a| a == "--samples")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(9);

    let mut rows = Vec::new();
    for b in ddm_benchmarks::suite() {
        let tu = ddm_cppfront::parse(b.source).unwrap();
        let program = Program::build(&tu).unwrap();
        let cells = measure(&program, samples);
        rows.push(Row {
            name: b.name,
            functions: program.functions().count(),
            cells,
            counters: capture_counters(b.source),
        });
    }

    println!(
        "{:<12} {:>6}  {:>18}  {:>18}",
        "program", "funcs", "cg+analysis (j1)", "cg+analysis (j8)"
    );
    for row in &rows {
        println!(
            "{:<12} {:>6}  {:>18.1?}  {:>18.1?}",
            row.name,
            row.functions,
            row.cells[0].total(),
            row.cells[1].total()
        );
    }
    for (j, jobs) in JOBS.iter().enumerate() {
        println!("total (jobs={jobs}): {:.1?}", total_for(&rows, j));
    }

    if json {
        let path = "BENCH_suite.json";
        std::fs::write(path, render_json(&rows, samples)).expect("write BENCH_suite.json");
        println!("wrote {path}");
    }
}
