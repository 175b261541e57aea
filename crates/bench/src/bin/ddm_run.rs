//! Ad-hoc driver: runs the full pipeline (analysis + interpretation +
//! profiling) on one source file and prints a compact summary line.
//! Used throughout development to calibrate the benchmark suite; the
//! user-facing equivalent with more options is the `ddm` binary in the
//! facade crate.

fn main() {
    let mut path = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--jobs" {
            args.next(); // value re-parsed by jobs_from_args
        } else if !a.starts_with('-') && path.is_none() {
            path = Some(a);
        }
    }
    let path = path.expect("usage: ddm_run <file.cpp> [--jobs N]");
    let jobs = ddm_bench::jobs_from_args();
    let src = std::fs::read_to_string(&path).expect("readable input file");
    let t0 = std::time::Instant::now();
    let run = match ddm_core::AnalysisPipeline::with_config_telemetry(
        &src,
        Default::default(),
        ddm_callgraph::Algorithm::Rta,
        jobs,
        &ddm_telemetry::Telemetry::disabled(),
    ) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("PIPELINE ERROR: {e}");
            std::process::exit(1);
        }
    };
    let report = run.report();
    println!(
        "classes={} used={} members={} dead={} ({:.1}%)",
        report.class_count(),
        report.used_class_count(),
        report.members_in_used_classes(),
        report.dead_members_in_used_classes(),
        report.dead_percentage()
    );
    for n in report.dead_member_names() {
        println!("  DEAD {n}");
    }
    let exec = match ddm_dynamic::Interpreter::new(run.program())
        .run(&ddm_dynamic::RunConfig::default())
    {
        Ok(e) => e,
        Err(e) => {
            eprintln!("RUNTIME ERROR: {e}");
            std::process::exit(1);
        }
    };
    print!("{}", exec.output);
    let p = ddm_dynamic::profile_trace(run.program(), &exec.trace, run.liveness());
    println!("exit={} steps={} objs={} space={} dead_space={} hwm={} hwm_wo={} ({:.1}% dead space, {:.1}% hwm reduction) [{:?}]",
        exec.exit_code, exec.steps, p.objects_allocated, p.object_space, p.dead_member_space,
        p.high_water_mark, p.high_water_mark_without_dead,
        p.dead_space_percentage(), p.high_water_mark_reduction(), t0.elapsed());
}
