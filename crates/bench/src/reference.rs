//! The sequential walk reference: the whole analysis computed by walking
//! ASTs, on one thread, with the AST-walking call-graph builder
//! ([`CallGraph::build_with`]), the walking liveness scan
//! ([`DeadMemberAnalysis::run_with`]), and the walking used-class
//! computation ([`used_classes`]).
//!
//! The product has one engine: walk-once summaries. This module is the
//! independent implementation that engine is tested against. The
//! equivalence suites and `bench_fuzz` compare every artifact — report,
//! `--explain` text, deterministic counters, the det event stream, and
//! metrics — against it byte for byte, so it emits the same telemetry as
//! the product pipelines (minus spans and execution stats, which are
//! observational).

use ddm_callgraph::{Algorithm, CallGraph, CallGraphOptions};
use ddm_core::{
    AnalysisConfig, DeadMemberAnalysis, EpochSnapshot, Liveness, PipelineError, ProjectError,
};
use ddm_cppfront::{parse, SourceMap};
use ddm_hierarchy::{
    link_with, used_classes, ClassId, MemberLookup, Program, ProgramSummary, TuModule, TypeError,
};
use ddm_telemetry::Telemetry;
use std::collections::HashSet;

/// The single-TU reference: what
/// [`AnalysisPipeline::with_config_telemetry`](ddm_core::AnalysisPipeline::with_config_telemetry)
/// must reproduce.
///
/// # Errors
///
/// Parse, semantic, or type failures, exactly as the pipeline reports
/// them.
pub fn analyze(
    source: &str,
    config: &AnalysisConfig,
    algorithm: Algorithm,
    telemetry: &Telemetry,
) -> Result<EpochSnapshot, PipelineError> {
    let program = Program::build(&parse(source)?)?;
    let (callgraph, liveness, used) = walk(&program, config, algorithm, telemetry)?;
    Ok(EpochSnapshot::new(0, program, callgraph, liveness, used, telemetry))
}

/// The multi-TU reference: what a cacheless
/// [`ProjectPipeline::run`](ddm_core::ProjectPipeline::run) must
/// reproduce. Every TU is parsed, so the linked program carries every
/// body for the walk.
///
/// # Errors
///
/// The first failing TU in input order, a link conflict, or a type
/// error attributed to the TU whose body produced it — exactly as the
/// project pipeline reports them.
pub fn analyze_project(
    inputs: &[(String, String)],
    config: &AnalysisConfig,
    algorithm: Algorithm,
    telemetry: &Telemetry,
) -> Result<EpochSnapshot, ProjectError> {
    let mut modules = Vec::with_capacity(inputs.len());
    let mut parsed = Vec::with_capacity(inputs.len());
    for (file, source) in inputs {
        let front_end = || -> Result<(TuModule, Program), PipelineError> {
            let unit = parse(source)?;
            let program = Program::build(&unit)?;
            let summary = ProgramSummary::build(&program, algorithm == Algorithm::Pta, 1);
            let map = SourceMap::new(file.clone(), source.clone());
            Ok((TuModule::extract(&unit, &program, &summary, &map), program))
        };
        let (module, program) = front_end().map_err(|error| ProjectError::Tu {
            file: file.clone(),
            error,
        })?;
        modules.push(module);
        parsed.push(Some(program));
    }
    let linked = link_with(&modules, &parsed, telemetry).map_err(ProjectError::Link)?;
    match walk(linked.program(), config, algorithm, telemetry) {
        Ok((callgraph, liveness, used)) => Ok(EpochSnapshot::new(
            0,
            linked.into_program(),
            callgraph,
            liveness,
            used,
            telemetry,
        )),
        Err(e) => Err(ProjectError::Tu {
            file: linked
                .locate_error(&e)
                .map(|t| modules[t].file.clone())
                .unwrap_or_else(|| "<linked program>".to_string()),
            error: PipelineError::Type(e),
        }),
    }
}

/// The whole-program phases, walked: call graph, liveness, used classes.
/// The callers finish through the pipelines' shared tail,
/// [`EpochSnapshot::new`].
fn walk(
    program: &Program,
    config: &AnalysisConfig,
    algorithm: Algorithm,
    telemetry: &Telemetry,
) -> Result<(CallGraph, Liveness, HashSet<ClassId>), TypeError> {
    let lookup = MemberLookup::new(program);
    let options = CallGraphOptions {
        algorithm,
        library_classes: config
            .library_classes
            .iter()
            .filter_map(|n| program.class_by_name(n))
            .collect(),
        ..Default::default()
    };
    let callgraph = CallGraph::build_with(program, &lookup, &options, telemetry)?;
    let liveness =
        DeadMemberAnalysis::new(program, config.clone()).run_with(&callgraph, telemetry)?;
    let used = used_classes(program, &lookup)?;
    Ok((callgraph, liveness, used))
}
