//! End-to-end benchmarks over the paper's suite: whole-pipeline analysis
//! time per benchmark, and the cost of the three call-graph builders
//! (the §3.1 ablation's time dimension).

use ddm_bench::timing;
use ddm_callgraph::{Algorithm, CallGraph, CallGraphOptions};
use ddm_bench::suite_analysis_config;
use ddm_core::DeadMemberAnalysis;
use ddm_hierarchy::{Program, ProgramSummary};
use ddm_telemetry::Telemetry;

fn bench_suite_analysis() {
    for b in ddm_benchmarks::suite() {
        let tu = ddm_cppfront::parse(b.source).unwrap();
        let program = Program::build(&tu).unwrap();
        let quiet = Telemetry::disabled();
        timing::report("suite/analysis", b.name, 15, || {
            let summary = ProgramSummary::build(&program, false, 1);
            let options = CallGraphOptions::default();
            let (graph, _) =
                CallGraph::build_from_summary_schedule(&program, &summary, &options, &quiet)
                    .unwrap();
            DeadMemberAnalysis::new(&program, suite_analysis_config())
                .run_summary_counted(&summary, &graph, &quiet)
                .unwrap()
        });
    }
}

fn bench_callgraph_builders() {
    let b = ddm_benchmarks::by_name("deltablue").unwrap();
    let tu = ddm_cppfront::parse(b.source).unwrap();
    let program = Program::build(&tu).unwrap();
    let summary = ProgramSummary::build(&program, false, 1);
    let quiet = Telemetry::disabled();
    for algorithm in [Algorithm::Everything, Algorithm::Cha, Algorithm::Rta] {
        let options = CallGraphOptions {
            algorithm,
            ..Default::default()
        };
        timing::report("suite/callgraph", &algorithm.to_string(), 15, || {
            CallGraph::build_from_summary_schedule(&program, &summary, &options, &quiet).unwrap()
        });
    }
}

fn bench_parse() {
    for name in ["richards", "deltablue", "sched"] {
        let b = ddm_benchmarks::by_name(name).unwrap();
        timing::report("suite/parse", name, 15, || {
            ddm_cppfront::parse(b.source).unwrap()
        });
    }
}

fn main() {
    bench_suite_analysis();
    bench_callgraph_builders();
    bench_parse();
}
