//! Differential test harness: the sharded analysis engine must be
//! bit-identical to the sequential reference.
//!
//! For every program bundled under `crates/benchmarks/programs/`, running
//! the pipeline with 1, 2, and 8 workers must yield the same [`Liveness`]
//! (live set, unclassifiable set, and recorded reasons) and byte-identical
//! rendered [`Report`] text. Batch mode (`run_suite`) must likewise be
//! invariant in its own worker count.

use dead_data_members::prelude::*;

/// Every `.cpp` program shipped with the benchmark suite, in a fixed
/// (sorted) order, read from the source tree.
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
            let source = std::fs::read_to_string(&p).expect("readable program");
            (name, source)
        })
        .collect()
}

/// The suite's analysis configuration (down-casts verified safe,
/// `sizeof` ignorable — matching `Benchmark::analyze`).
fn suite_config() -> AnalysisConfig {
    AnalysisConfig {
        assume_safe_downcasts: true,
        sizeof_policy: SizeofPolicy::Ignore,
        ..Default::default()
    }
}

#[test]
fn parallel_liveness_and_report_are_bit_identical_for_all_programs() {
    for (name, source) in bundled_programs() {
        let sequential = AnalysisPipeline::with_config_telemetry(
            &source,
            suite_config(),
            Algorithm::Rta,
            1,
            &Telemetry::disabled(),
        )
        .unwrap_or_else(|e| panic!("{name}: {e}"));
        let report_1 = sequential.report().to_string();
        for jobs in [2usize, 8] {
            let parallel = AnalysisPipeline::with_config_telemetry(
                &source,
                suite_config(),
                Algorithm::Rta,
                jobs,
                &Telemetry::disabled(),
            )
            .unwrap_or_else(|e| panic!("{name} jobs={jobs}: {e}"));
            assert_eq!(
                sequential.liveness(),
                parallel.liveness(),
                "{name}: liveness diverged at jobs={jobs}"
            );
            assert_eq!(
                report_1,
                parallel.report().to_string(),
                "{name}: rendered report diverged at jobs={jobs}"
            );
        }
    }
}

#[test]
fn parallel_determinism_holds_for_every_callgraph_algorithm() {
    // Shard boundaries depend on the reachable set, which differs per
    // call-graph builder; each must stay deterministic.
    for algorithm in [
        Algorithm::Everything,
        Algorithm::Cha,
        Algorithm::Rta,
        Algorithm::Pta,
    ] {
        for (name, source) in bundled_programs() {
            let sequential = AnalysisPipeline::with_config_telemetry(
                &source,
                suite_config(),
                algorithm,
                1,
                &Telemetry::disabled(),
            )
            .unwrap_or_else(|e| panic!("{name}: {e}"));
            let parallel = AnalysisPipeline::with_config_telemetry(
                &source,
                suite_config(),
                algorithm,
                8,
                &Telemetry::disabled(),
            )
            .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(
                sequential.liveness(),
                parallel.liveness(),
                "{name}: {algorithm} diverged under sharding"
            );
        }
    }
}

#[test]
fn repeated_parallel_runs_are_self_consistent() {
    // Thread scheduling must not leak into results: three runs at the
    // same worker count render identical reports.
    let (name, source) = &bundled_programs()[0];
    let runs: Vec<String> = (0..3)
        .map(|_| {
            AnalysisPipeline::with_config_telemetry(
                source,
                suite_config(),
                Algorithm::Rta,
                8,
                &Telemetry::disabled(),
            )
            .unwrap_or_else(|e| panic!("{name}: {e}"))
            .report()
            .to_string()
        })
        .collect();
    assert_eq!(runs[0], runs[1]);
    assert_eq!(runs[1], runs[2]);
}

#[test]
fn batch_suite_is_invariant_in_its_worker_count() {
    let inputs = bundled_programs();
    let render = |jobs: usize| -> Vec<(String, String)> {
        AnalysisPipeline::run_suite(&inputs, &suite_config(), Algorithm::Rta, jobs)
            .into_iter()
            .map(|(name, run)| {
                let run = run.unwrap_or_else(|e| panic!("{name}: {e}"));
                (name, run.report().to_string())
            })
            .collect()
    };
    let one = render(1);
    assert_eq!(one, render(2));
    assert_eq!(one, render(8));
    // And the batch answers agree with individually constructed runs.
    for (name, report) in &one {
        let source = &inputs.iter().find(|(n, _)| n == name).unwrap().1;
        let solo = AnalysisPipeline::with_config_telemetry(
            source,
            suite_config(),
            Algorithm::Rta,
            1,
            &Telemetry::disabled(),
        )
        .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(&solo.report().to_string(), report, "{name}");
    }
}
