//! The telemetry layer's core contract: deterministic counters are
//! bit-identical across worker counts and equal to the sequential walk
//! reference's, enabling telemetry changes no analysis output, and
//! `--explain` renders the same witness text whether the summary engine
//! or the walk reference produced the liveness.

use dead_data_members::prelude::*;

/// Every `.cpp` program bundled with the benchmark suite, in sorted order.
fn bundled_programs() -> Vec<(String, String)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/crates/benchmarks/programs");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("benchmark programs directory")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "cpp"))
        .collect();
    paths.sort();
    assert!(
        paths.len() >= 11,
        "expected the paper's eleven programs, found {}",
        paths.len()
    );
    paths
        .into_iter()
        .map(|p| {
            let name = p.file_stem().unwrap().to_string_lossy().into_owned();
            let source = std::fs::read_to_string(&p).expect("read benchmark program");
            (name, source)
        })
        .collect()
}

fn run_counters(source: &str, jobs: usize) -> Counters {
    let telemetry = Telemetry::enabled();
    AnalysisPipeline::with_config_telemetry(
        source,
        AnalysisConfig::default(),
        Algorithm::Rta,
        jobs,
        &telemetry,
    )
    .expect("pipeline");
    telemetry.counters()
}

/// The sequential walk reference over `source`, its counters recorded
/// on `telemetry`.
fn walk_reference(source: &str, telemetry: &Telemetry) -> EpochSnapshot {
    ddm_bench::reference::analyze(source, &AnalysisConfig::default(), Algorithm::Rta, telemetry)
        .expect("walk reference")
}

#[test]
fn counters_identical_across_jobs_and_engines() {
    for (name, source) in bundled_programs() {
        let telemetry = Telemetry::enabled();
        walk_reference(&source, &telemetry);
        let reference = telemetry.counters();
        for jobs in [1, 2, 8] {
            let counters = run_counters(&source, jobs);
            assert_eq!(
                counters, reference,
                "{name}: counters diverged from the walk reference at jobs={jobs}"
            );
        }
    }
}

#[test]
fn enabling_telemetry_changes_no_analysis_output() {
    for (name, source) in bundled_programs() {
        let plain = AnalysisPipeline::with_config_telemetry(
            &source,
            AnalysisConfig::default(),
            Algorithm::Rta,
            2,
            &Telemetry::disabled(),
        )
        .expect("pipeline");
        let telemetry = Telemetry::enabled();
        let observed = AnalysisPipeline::with_config_telemetry(
            &source,
            AnalysisConfig::default(),
            Algorithm::Rta,
            2,
            &telemetry,
        )
        .expect("pipeline");
        assert_eq!(
            plain.report().to_string(),
            observed.report().to_string(),
            "{name}: telemetry changed the report"
        );
        assert_eq!(
            plain.liveness(),
            observed.liveness(),
            "{name}: telemetry changed the liveness"
        );
    }
}

#[test]
fn explain_is_byte_identical_across_engines() {
    for (name, source) in bundled_programs() {
        let walk = walk_reference(&source, &Telemetry::disabled());
        let summary = AnalysisPipeline::with_config_telemetry(
            &source,
            AnalysisConfig::default(),
            Algorithm::Rta,
            1,
            &Telemetry::disabled(),
        )
        .expect("summary pipeline");
        for (_, class) in walk.program().classes() {
            for member in &class.members {
                let spec = format!("{}::{}", class.name, member.name);
                let from_walk =
                    explain(walk.program(), walk.callgraph(), walk.liveness(), &spec)
                        .expect("known member");
                let from_summary = explain(
                    summary.program(),
                    summary.callgraph(),
                    summary.liveness(),
                    &spec,
                )
                .expect("known member");
                assert_eq!(
                    from_walk, from_summary,
                    "{name}: explanation of {spec} diverged between engines"
                );
            }
        }
    }
}

#[test]
fn stats_record_jobs_and_body_walks() {
    let (_, source) = &bundled_programs()[0];
    let telemetry = Telemetry::enabled();
    AnalysisPipeline::with_config_telemetry(
        source,
        AnalysisConfig::default(),
        Algorithm::Rta,
        8,
        &telemetry,
    )
    .expect("pipeline");
    let stats = telemetry.stats();
    assert_eq!(stats.jobs, 8);
    assert_eq!(stats.scan_rounds, 1);
    assert!(stats.bodies_walked > 0);
}
