//! Capped in-process differential fuzz sweep — the `cargo test -q`
//! slice of the `bench_fuzz` corpus. Sweeps 200+ seeds across the full
//! adversarial shape matrix, asserting that the walk reference, the
//! summary engine at jobs 1/8, and the persistent cache
//! (cold/warm/1-changed, on every third seed) agree byte-for-byte on
//! report, `--explain` output, and deterministic counters. A failure shrinks the divergence and prints
//! the minimal repro.

use ddm_bench::fuzz::{
    case_for_seed, chunk_top_level, function_definition_count, run_case, shrink_config,
    shrink_divergence, shrink_inputs, CaseResult, FuzzCase,
};
use ddm_benchmarks::generator::{generate_fuzz, FuzzConfig, FuzzShape, GeneratorConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Seeds swept by the capped in-process run (≥ 200 per the safety-net
/// requirement; 203 = 29 full cycles of the 7-shape matrix).
const SWEEP_SEEDS: u64 = 203;

/// The cached half of the matrix runs on every `FULL_EVERY`th seed.
const FULL_EVERY: u64 = 3;

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ddm-dfuzz-{tag}-{}", std::process::id()))
}

#[test]
fn capped_sweep_agrees_on_every_cell() {
    let scratch = scratch("sweep");
    let next = AtomicU64::new(0);
    let swept = AtomicUsize::new(0);
    let diverged: Mutex<Option<FuzzCase>> = Mutex::new(None);

    std::thread::scope(|scope| {
        for _ in 0..8 {
            scope.spawn(|| loop {
                let seed = next.fetch_add(1, Ordering::Relaxed);
                if seed >= SWEEP_SEEDS || diverged.lock().unwrap().is_some() {
                    break;
                }
                let case = case_for_seed(seed);
                match run_case(&case, &scratch, seed % FULL_EVERY == 0) {
                    CaseResult::Agree { error_outcome } => {
                        // The deliberate ODR-conflict shape must be
                        // *rejected* identically everywhere; every other
                        // shape must analyze cleanly.
                        assert_eq!(
                            error_outcome,
                            case.config.shape == FuzzShape::OdrConflict,
                            "seed {seed} shape {}: unexpected outcome kind",
                            case.config.shape.name()
                        );
                        swept.fetch_add(1, Ordering::Relaxed);
                    }
                    CaseResult::Diverged(_) => {
                        diverged.lock().unwrap().get_or_insert(case);
                        break;
                    }
                }
            });
        }
    });

    if let Some(case) = diverged.lock().unwrap().take() {
        let repro = shrink_divergence(&case, &scratch);
        let _ = std::fs::remove_dir_all(&scratch);
        panic!("differential divergence:\n{}", repro.render());
    }
    let _ = std::fs::remove_dir_all(&scratch);
    assert_eq!(swept.load(Ordering::Relaxed) as u64, SWEEP_SEEDS);
}

/// The shrinker must reduce a seeded synthetic divergence to ≤ 2
/// function definitions. The "divergence" here is a predicate chosen
/// to need only a heap allocation and a matching delete — exactly the
/// kind of small core a real divergence has — over a config
/// big enough that the raw program carries dozens of functions.
#[test]
fn shrinker_reduces_synthetic_divergence_to_two_functions() {
    let config = FuzzConfig {
        base: GeneratorConfig {
            classes: 7,
            members_per_class: 4,
            methods_per_class: 3,
            stmts_per_method: 4,
            objects_in_main: 6,
        },
        shape: FuzzShape::DeadCodeHeavy,
        tus: 3,
    };
    let seed = 41;

    // "Interesting" = still parses + analyzes, and main still heap-
    // allocates and deletes. Analyzability keeps the shrinker honest:
    // it cannot cheat by dropping a chunk some kept chunk depends on.
    let interesting = |inputs: &[(String, String)]| {
        let text: String = inputs.iter().map(|(_, s)| s.as_str()).collect();
        if !text.contains("new K") || !text.contains("delete ") {
            return false;
        }
        !ddm_bench::fuzz::oracle_artifact(inputs, ddm_callgraph::Algorithm::Rta, 1, None)
            .starts_with("error:")
    };

    // Config bisection first, exactly as shrink_divergence does.
    let small = shrink_config(&config, |cfg| interesting(&generate_fuzz(cfg, seed)));
    assert!(small.tus <= config.tus && small.base.classes <= config.base.classes);

    let start = generate_fuzz(&small, seed);
    let before = function_definition_count(&start);
    let minimal = shrink_inputs(&start, interesting);
    let after = function_definition_count(&minimal);
    assert!(
        after <= 2,
        "shrinker left {after} function definitions (started from {before}):\n{}",
        minimal
            .iter()
            .map(|(f, s)| format!("--- {f}\n{s}"))
            .collect::<String>()
    );
    assert!(interesting(&minimal), "shrunk repro lost the divergence");
    assert!(
        minimal.iter().map(|(_, s)| s.len()).sum::<usize>()
            < start.iter().map(|(_, s)| s.len()).sum::<usize>(),
        "shrinker made no progress"
    );
}

/// Chunking must exactly partition every generated adversarial program:
/// concatenating the chunks reproduces the TU byte-for-byte.
#[test]
fn chunker_partitions_generated_programs_exactly() {
    for seed in 0..14 {
        let case = case_for_seed(seed);
        for (file, source) in generate_fuzz(&case.config, seed) {
            assert_eq!(
                chunk_top_level(&source).concat(),
                source,
                "seed {seed} {file}: chunks do not concatenate to the source"
            );
        }
    }
}
