//! End-to-end convenience pipeline: source → parse → model → call graph →
//! dead-member analysis → report.

use crate::analysis::{AnalysisConfig, DeadMemberAnalysis};
use crate::epoch::EpochSnapshot;
use crate::liveness::Liveness;
use ddm_callgraph::{Algorithm, CallGraph, CallGraphOptions, CgSchedule};
use ddm_cppfront::{parse, ParseError};
use ddm_hierarchy::{body_walk_count, Program, ProgramSummary, SemaError, TypeError};
use ddm_telemetry::{Counters, Telemetry, LANE_MAIN};
use std::error::Error;
use std::fmt;
use std::ops::Deref;
use std::time::Instant;

/// The analysis engine. There is one: the walk-once summary engine, in
/// which each function body is traversed exactly once to extract a
/// summary, and call-graph construction and the liveness scan then
/// propagate over summaries. The sequential walk reference it is tested
/// against ([`DeadMemberAnalysis::run_with`]) is not selectable.
///
/// Only [`ProjectPipeline::run`](crate::ProjectPipeline::run) still takes
/// an `Engine`, so that existing callers keep compiling; the argument is
/// ignored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Engine {
    /// The walk-once summary engine.
    #[default]
    Summary,
}

/// Any error the pipeline can produce.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// Lexing/parsing failed.
    Parse(ParseError),
    /// Semantic model construction failed.
    Sema(SemaError),
    /// Type resolution inside a body failed.
    Type(TypeError),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Parse(e) => write!(f, "parse error: {e}"),
            PipelineError::Sema(e) => write!(f, "semantic error: {e}"),
            PipelineError::Type(e) => write!(f, "type error: {e}"),
        }
    }
}

impl Error for PipelineError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PipelineError::Parse(e) => Some(e),
            PipelineError::Sema(e) => Some(e),
            PipelineError::Type(e) => Some(e),
        }
    }
}

impl From<ParseError> for PipelineError {
    fn from(e: ParseError) -> Self {
        PipelineError::Parse(e)
    }
}

impl From<SemaError> for PipelineError {
    fn from(e: SemaError) -> Self {
        PipelineError::Sema(e)
    }
}

impl From<TypeError> for PipelineError {
    fn from(e: TypeError) -> Self {
        PipelineError::Type(e)
    }
}

/// A completed single-file analysis: the parsed translation unit (kept
/// for `--run`, `--profile` and `--eliminate`) and the analysis result,
/// which the pipeline dereferences to.
///
/// Single-file mode does not link: a 1-TU project run would emit the
/// det `link_done` event and the `link/*`, `cache/*` and `frontend/*`
/// metrics, which a plain `ddm x.cpp` run does not.
///
/// # Examples
///
/// ```
/// use ddm_core::AnalysisPipeline;
///
/// let run = AnalysisPipeline::from_source(
///     "class A { public: int live; int dead; };\n\
///      int main() { A a; a.dead = 1; return a.live; }",
/// )?;
/// assert_eq!(run.report().dead_member_names(), vec!["A::dead"]);
/// # Ok::<(), ddm_core::PipelineError>(())
/// ```
#[derive(Debug)]
pub struct AnalysisPipeline {
    tu: ddm_cppfront::TranslationUnit,
    analysis: EpochSnapshot,
}

impl Deref for AnalysisPipeline {
    type Target = EpochSnapshot;

    fn deref(&self) -> &EpochSnapshot {
        &self.analysis
    }
}

impl AnalysisPipeline {
    /// Runs the full pipeline with the default configuration (RTA call
    /// graph, conservative `sizeof`, conservative down-casts).
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError`] for parse, semantic, or type failures.
    pub fn from_source(source: &str) -> Result<AnalysisPipeline, PipelineError> {
        Self::with_config_telemetry(
            source,
            AnalysisConfig::default(),
            Algorithm::Rta,
            1,
            &Telemetry::disabled(),
        )
    }

    /// Runs the full pipeline with an explicit configuration and
    /// call-graph algorithm, sharding summary extraction across `jobs`
    /// worker threads. Every pipeline phase is spanned on the main lane
    /// (workers record their own lanes), the deterministic counters are
    /// accumulated, and the execution-stats snapshot is filled in.
    ///
    /// Neither `jobs` nor telemetry steers the run: the analysis is
    /// byte-identical for every worker count, and whether the collector
    /// is enabled or disabled.
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError`] for parse, semantic, or type failures.
    pub fn with_config_telemetry(
        source: &str,
        config: AnalysisConfig,
        algorithm: Algorithm,
        jobs: usize,
        telemetry: &Telemetry,
    ) -> Result<AnalysisPipeline, PipelineError> {
        let walks_before = body_walk_count();

        let parse_span = telemetry.span(LANE_MAIN, || format!("parse ({} bytes)", source.len()));
        let tu = parse(source)?;
        drop(parse_span);

        let sema_span = telemetry.span(LANE_MAIN, || "program model".to_string());
        let program = Program::build(&tu)?;
        drop(sema_span);

        // Walk once: extract summaries (sharded across `jobs` workers),
        // then every downstream phase propagates over them without
        // touching an AST again.
        let summary =
            ProgramSummary::build_with(&program, algorithm == Algorithm::Pta, jobs, telemetry);
        let solved = solve(&program, &summary, &config, algorithm, telemetry)?;
        let used_span = telemetry.span(LANE_MAIN, || "used classes".to_string());
        let used = summary.used_classes(&program)?;
        drop(used_span);

        telemetry.update_stats(|s| {
            s.jobs = jobs as u64;
            s.bodies_walked += body_walk_count() - walks_before;
        });
        let analysis =
            EpochSnapshot::new(0, program, solved.callgraph, solved.liveness, used, telemetry);
        Ok(AnalysisPipeline { tu, analysis })
    }

    /// Analyses a batch of named sources concurrently on `jobs` worker
    /// threads (each source runs the full sequential pipeline; the
    /// parallelism is across programs, so worker threads are never
    /// oversubscribed).
    ///
    /// Results are returned **in input order**, independent of which
    /// worker finished first — batch mode is as deterministic as a
    /// `for` loop over [`AnalysisPipeline::with_config_telemetry`].
    pub fn run_suite(
        inputs: &[(String, String)],
        config: &AnalysisConfig,
        algorithm: Algorithm,
        jobs: usize,
    ) -> Vec<(String, Result<AnalysisPipeline, PipelineError>)> {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Mutex;

        let jobs = jobs.max(1).min(inputs.len().max(1));
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<Result<AnalysisPipeline, PipelineError>>>> =
            inputs.iter().map(|_| Mutex::new(None)).collect();
        let quiet = Telemetry::disabled();

        std::thread::scope(|scope| {
            for _ in 0..jobs {
                ddm_hierarchy::analysis_thread()
                    .spawn_scoped(scope, || loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some((_, source)) = inputs.get(i) else {
                            break;
                        };
                        let result =
                            Self::with_config_telemetry(source, config.clone(), algorithm, 1, &quiet);
                        *slots[i].lock().expect("suite slot poisoned") = Some(result);
                    })
                    .expect("spawn suite worker");
            }
        });

        inputs
            .iter()
            .zip(slots)
            .map(|((name, _), slot)| {
                let result = slot
                    .into_inner()
                    .expect("suite slot poisoned")
                    .expect("every input is analysed exactly once");
                (name.clone(), result)
            })
            .collect()
    }

    /// The parsed translation unit the analysis ran on.
    pub fn translation_unit(&self) -> &ddm_cppfront::TranslationUnit {
        &self.tu
    }
}

/// The summary-engine fixpoint over one program: the call graph with its
/// converged schedule, then the liveness scan with its counters, each
/// phase's wall time alongside.
pub(crate) struct Solved {
    pub callgraph: CallGraph,
    pub schedule: CgSchedule,
    pub liveness: Liveness,
    pub scan_counters: Counters,
    pub callgraph_ns: u64,
    pub liveness_ns: u64,
}

/// Builds the call graph and liveness from `summary` — the one solve the
/// single-file pipeline, the project's fresh path, and its debug replay
/// cross-check share.
pub(crate) fn solve(
    program: &Program,
    summary: &ProgramSummary,
    config: &AnalysisConfig,
    algorithm: Algorithm,
    telemetry: &Telemetry,
) -> Result<Solved, TypeError> {
    let options = CallGraphOptions {
        algorithm,
        library_classes: config
            .library_classes
            .iter()
            .filter_map(|n| program.class_by_name(n))
            .collect(),
        ..Default::default()
    };
    let cg_start = Instant::now();
    let cg_span = telemetry.span(LANE_MAIN, || "callgraph".to_string());
    let (callgraph, schedule) =
        CallGraph::build_from_summary_schedule(program, summary, &options, telemetry)?;
    drop(cg_span);
    let callgraph_ns = cg_start.elapsed().as_nanos() as u64;
    let live_start = Instant::now();
    let (liveness, scan_counters) = DeadMemberAnalysis::new(program, config.clone())
        .run_summary_counted(summary, &callgraph, telemetry)?;
    Ok(Solved {
        callgraph,
        schedule,
        liveness,
        scan_counters,
        callgraph_ns,
        liveness_ns: live_start.elapsed().as_nanos() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_end_to_end() {
        let run = AnalysisPipeline::from_source(
            "class A { public: int live; int dead; };\n\
             int main() { A a; return a.live; }",
        )
        .unwrap();
        let report = run.report();
        assert_eq!(report.dead_member_names(), vec!["A::dead"]);
        assert!(run.callgraph().reachable_count() >= 1);
        assert_eq!(run.used().len(), 1);
    }

    #[test]
    fn run_suite_keeps_input_order_and_matches_single_runs() {
        let inputs: Vec<(String, String)> = (0..6)
            .map(|i| {
                (
                    format!("prog{i}"),
                    format!(
                        "class A{i} {{ public: int live; int dead{i}; }};\n\
                         int main() {{ A{i} a; return a.live; }}"
                    ),
                )
            })
            .collect();
        for jobs in [1, 3, 8] {
            let results = AnalysisPipeline::run_suite(
                &inputs,
                &AnalysisConfig::default(),
                Algorithm::Rta,
                jobs,
            );
            assert_eq!(results.len(), inputs.len());
            for (i, (name, run)) in results.iter().enumerate() {
                assert_eq!(name, &format!("prog{i}"), "jobs={jobs} reordered output");
                let run = run.as_ref().expect("pipeline ok");
                assert_eq!(
                    run.report().dead_member_names(),
                    vec![format!("A{i}::dead{i}")]
                );
            }
        }
    }

    #[test]
    fn run_suite_surfaces_per_input_errors() {
        let inputs = vec![
            ("good".to_string(), "int main() { return 0; }".to_string()),
            ("bad".to_string(), "class {".to_string()),
        ];
        let results =
            AnalysisPipeline::run_suite(&inputs, &AnalysisConfig::default(), Algorithm::Rta, 4);
        assert!(results[0].1.is_ok());
        assert!(matches!(results[1].1, Err(PipelineError::Parse(_))));
    }

    #[test]
    fn parse_errors_propagate() {
        let err = AnalysisPipeline::from_source("class {").unwrap_err();
        assert!(matches!(err, PipelineError::Parse(_)));
        assert!(err.to_string().contains("parse error"));
    }

    #[test]
    fn sema_errors_propagate() {
        let err = AnalysisPipeline::from_source(
            "class A { public: int x; int x; }; int main() { return 0; }",
        )
        .unwrap_err();
        assert!(matches!(err, PipelineError::Sema(_)));
    }

    #[test]
    fn type_errors_propagate() {
        let err = AnalysisPipeline::from_source("int main() { return mystery; }").unwrap_err();
        assert!(matches!(err, PipelineError::Type(_)));
        assert!(err.source().is_some());
    }
}
