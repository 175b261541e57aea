//! §3.4 complexity benchmarks.
//!
//! The paper claims the algorithm costs `O(N + C×M)` after the call
//! graph and member lookups are available, where `N` is the number of
//! expressions, `C` the number of classes, and `M` the number of
//! distinct member names. These benches sweep the two terms
//! independently with the seeded program generator:
//!
//! * `analysis/N` — classes fixed, statements per method swept: time
//!   should grow roughly linearly in program size;
//! * `analysis/CxM` — statements fixed, class count swept (members per
//!   class constant, so `C×M` grows linearly in the class count);
//! * `extraction/jobs` — summary extraction, the one sharded analysis
//!   phase, swept over worker counts on a large generated program;
//! * `lookup/depth` — member lookup along an inheritance chain, the
//!   precomputation the paper delegates to Ramalingam & Srinivasan.

use ddm_bench::timing;
use ddm_benchmarks::generator::{generate, GeneratorConfig};
use ddm_callgraph::{CallGraph, CallGraphOptions};
use ddm_core::{AnalysisConfig, DeadMemberAnalysis};
use ddm_hierarchy::{MemberLookup, Program, ProgramSummary};
use ddm_telemetry::Telemetry;

fn prepared(config: &GeneratorConfig, seed: u64) -> Program {
    let src = generate(config, seed);
    let tu = ddm_cppfront::parse(&src).expect("generated programs parse");
    Program::build(&tu).expect("generated programs check")
}

/// Times the liveness replay alone: summaries and the call graph are
/// built once, outside the timed closure.
fn report_analysis(group: &str, id: &str, program: &Program) {
    let quiet = Telemetry::disabled();
    let summary = ProgramSummary::build(program, false, 1);
    let (graph, _) = CallGraph::build_from_summary_schedule(
        program,
        &summary,
        &CallGraphOptions::default(),
        &quiet,
    )
    .unwrap();
    timing::report(group, id, 20, || {
        let analysis = DeadMemberAnalysis::new(program, AnalysisConfig::default());
        analysis.run_summary_counted(&summary, &graph, &quiet).unwrap()
    });
}

fn bench_sweep_n() {
    for stmts in [2usize, 8, 32, 128] {
        let config = GeneratorConfig {
            classes: 8,
            stmts_per_method: stmts,
            ..Default::default()
        };
        let program = prepared(&config, 11);
        report_analysis("analysis/N", &stmts.to_string(), &program);
    }
}

fn bench_sweep_cxm() {
    for classes in [4usize, 16, 64] {
        // Scale the exercised objects with the class count so the
        // reachable-code portion actually covers the C×M growth (a main
        // that touches a constant number of classes would leave the rest
        // unreachable and the analysis cost flat).
        let config = GeneratorConfig {
            classes,
            objects_in_main: classes * 2,
            ..Default::default()
        };
        let program = prepared(&config, 13);
        report_analysis("analysis/CxM", &classes.to_string(), &program);
    }
}

fn bench_jobs_sweep() {
    // A program large enough that sharding summary extraction pays for
    // the thread spawns.
    let config = GeneratorConfig {
        classes: 96,
        members_per_class: 5,
        methods_per_class: 4,
        stmts_per_method: 24,
        objects_in_main: 192,
    };
    let program = prepared(&config, 17);
    for jobs in [1usize, 2, 4, 8] {
        timing::report("extraction/jobs", &jobs.to_string(), 10, || {
            ProgramSummary::build(&program, false, jobs)
        });
    }
}

fn bench_lookup_depth() {
    for depth in [2usize, 8, 32] {
        // A straight inheritance chain; the member lives at the top.
        let mut src = String::from("class C0 { public: int target; };\n");
        for i in 1..depth {
            src.push_str(&format!(
                "class C{i} : public C{} {{ public: int f{i}; }};\n",
                i - 1
            ));
        }
        src.push_str(&format!(
            "int main() {{ C{} obj; return obj.target; }}",
            depth - 1
        ));
        let tu = ddm_cppfront::parse(&src).unwrap();
        let program = Program::build(&tu).unwrap();
        let leaf = program.class_by_name(&format!("C{}", depth - 1)).unwrap();
        timing::report("lookup/depth", &depth.to_string(), 20, || {
            // Fresh service each iteration so the subobject-tree cache
            // does not amortize the work away.
            let lookup = MemberLookup::new(&program);
            lookup.data_member(leaf, "target").unwrap()
        });
    }
}

fn main() {
    bench_sweep_n();
    bench_sweep_cxm();
    bench_jobs_sweep();
    bench_lookup_depth();
}
