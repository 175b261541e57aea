//! The per-layer pass: every public layer call, timed one by one on the
//! workload's own inputs. Run once untraced and once traced per round;
//! the traced pass yields each layer's self time, the pair yields the
//! tracing overhead.

use crate::stats::median;
use crate::trace::Tracer;
use ddm_bench::suite_analysis_config;
use ddm_callgraph::{Algorithm, CallGraph, CallGraphOptions};
use ddm_core::{
    config_fingerprint, render_analysis, snapshot_fingerprint, AnalysisSnapshot,
    DeadMemberAnalysis, Engine, ProjectPipeline, Report,
};
use ddm_cppfront::{lexer::tokenize, parse, SourceMap};
use ddm_dynamic::{profile_trace, HeapProfile, Interpreter, RunConfig};
use ddm_hierarchy::{
    decode_modules, encode_modules, fnv1a64, link, link_delta, ByteReader, ByteWriter, Program,
    ProgramSummary, TuModule,
};
use ddm_telemetry::Telemetry;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// One analysed program: a single TU, or a whole project.
pub struct Prog {
    pub name: String,
    pub tus: Vec<(String, String)>,
    /// The member the `core.epoch_explain` step explains.
    pub explain: String,
}

/// The edits replayed through the incremental project path after the
/// cold run, with the oracle each resulting epoch is checked against.
pub trait EditScript {
    /// The next step's inputs, and whether it edits a single TU (`true`)
    /// or every editable TU; `None` when the script is done.
    fn step(&mut self) -> Option<(bool, Vec<(String, String)>)>;
    /// Checks the report of the epoch the last step produced; `before`
    /// is the program's report before any edit.
    fn check(&self, report: &str, before: &str) -> Result<(), String>;
}

/// Edits a single-TU program by rewriting a fixed-width revision stamp
/// on its first line: one 1-TU step and one all-TU step (the same thing
/// for one TU). The analysis is unchanged, so every epoch must render
/// the report the program had before the edits.
pub struct StampEdits {
    file: String,
    source: String,
    step: u32,
}

impl StampEdits {
    pub fn new(prog: &Prog) -> StampEdits {
        let (file, source) = prog.tus[0].clone();
        StampEdits {
            file,
            source,
            step: 0,
        }
    }
}

impl EditScript for StampEdits {
    fn step(&mut self) -> Option<(bool, Vec<(String, String)>)> {
        self.step += 1;
        let text = format!("// rev {:07}\n{}", self.step, self.source);
        (self.step <= 2).then(|| (self.step == 1, vec![(self.file.clone(), text)]))
    }

    fn check(&self, report: &str, before: &str) -> Result<(), String> {
        if report == before {
            Ok(())
        } else {
            Err(format!(
                "{}: report changed under a comment-only edit",
                self.file
            ))
        }
    }
}

/// What one program's pass produced, for the workload's oracles.
pub struct ProgOut {
    /// `render_analysis` of the linked program — the one-shot report.
    pub report: String,
    pub profile: HeapProfile,
}

/// Work counts of one pass, and the per-run times of the steps that run
/// more than once per program.
#[derive(Default)]
pub struct Counts {
    pub tokens: u64,
    pub source_bytes: u64,
    pub functions: u64,
    pub json_bytes: u64,
    pub binmod_bytes: u64,
    pub report_bytes: u64,
    pub snapshot_bytes: u64,
    pub pops: u64,
    pub rounds: u64,
    pub steps: u64,
    pub allocations: u64,
    pub hits: u64,
    pub probes: u64,
    /// Per-run step times summed over programs, each program's runs
    /// reduced to their median first.
    pub per_run_ms: BTreeMap<&'static str, f64>,
}

fn fail<E: std::fmt::Display>(what: &str) -> impl Fn(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Runs every layer call on `prog` under `tr`, replays `script` through
/// the project pipeline in `cache`, and adds the work done to `counts`.
pub fn program_pass(
    tr: &mut Tracer,
    prog: &Prog,
    jobs: usize,
    cache: &Path,
    script: &mut dyn EditScript,
    counts: &mut Counts,
) -> Result<ProgOut, String> {
    tr.span("program", |tr| {
        program_pass_inner(tr, prog, jobs, cache, script, counts)
    })
}

fn program_pass_inner(
    tr: &mut Tracer,
    prog: &Prog,
    jobs: usize,
    cache: &Path,
    script: &mut dyn EditScript,
    counts: &mut Counts,
) -> Result<ProgOut, String> {
    let config = suite_analysis_config();
    let fingerprint = config_fingerprint(Algorithm::Rta);

    // --- Per-TU front end, each layer on its own.
    let mut modules = Vec::with_capacity(prog.tus.len());
    let mut parsed = Vec::with_capacity(prog.tus.len());
    let mut json_lens = Vec::with_capacity(prog.tus.len());
    for (file, src) in &prog.tus {
        let tokens = tr
            .span("cppfront.lex", |_| tokenize(src))
            .map_err(fail(file))?;
        counts.tokens += tokens.len() as u64;
        counts.source_bytes += src.len() as u64;
        let unit = tr
            .span("cppfront.parse", |_| parse(src))
            .map_err(fail(file))?;
        let program = tr
            .span("hierarchy.model", |_| Program::build(&unit))
            .map_err(fail(file))?;
        let summary = tr.span("hierarchy.summary", |_| {
            ProgramSummary::build(&program, false, 1)
        });
        let summary_par = tr.span("hierarchy.summary_par", |_| {
            ProgramSummary::build(&program, false, jobs)
        });
        std::hint::black_box(summary_par);
        counts.functions += program.function_count() as u64;
        let map = SourceMap::new(file.clone(), src.clone());
        let module = tr.span("hierarchy.module_extract", |_| {
            TuModule::extract(&unit, &program, &summary, &map)
        });
        let doc = tr.span("hierarchy.module_json_encode", |_| {
            module.to_json(&fingerprint)
        });
        counts.json_bytes += doc.len() as u64;
        json_lens.push(doc.len() as u64);
        let back = tr
            .span("hierarchy.module_json_decode", |_| {
                TuModule::from_json(&doc, &fingerprint, fnv1a64(src.as_bytes()))
            })
            .map_err(fail(file))?;
        if back != module {
            return Err(format!("{file}: module JSON round trip changed the module"));
        }
        modules.push(module);
        parsed.push(Some(program));
    }

    // --- Module codec and link.
    let mut w = ByteWriter::new();
    tr.span("hierarchy.binmod_encode", |_| {
        encode_modules(&modules, &mut w)
    });
    let bytes = w.into_bytes();
    counts.binmod_bytes += bytes.len() as u64;
    let decoded = tr
        .span("hierarchy.binmod_decode", |_| {
            decode_modules(&mut ByteReader::new(&bytes))
        })
        .map_err(fail("binmod decode"))?;
    let linked = tr
        .span("hierarchy.link", |_| link(&modules, &parsed))
        .map_err(fail("link"))?;
    // The diff of the module list against its binmod round trip: every
    // TU is compared and none may differ.
    let delta = tr.span("hierarchy.link_delta", |_| link_delta(&modules, &decoded));
    if !delta.is_empty() {
        return Err("binmod round trip changed the module list".to_string());
    }

    // --- Whole-program layers on the linked model.
    let program = linked.program();
    let summary = linked.summary();
    let options = |jobs| CallGraphOptions {
        algorithm: Algorithm::Rta,
        library_classes: Default::default(),
        jobs,
    };
    let quiet = Telemetry::disabled();
    let (callgraph, schedule) = tr
        .span("callgraph.build", |_| {
            CallGraph::build_from_summary_schedule(program, summary, &options(1), &quiet)
        })
        .map_err(fail("callgraph"))?;
    counts.pops += schedule.pops;
    counts.rounds += schedule.rounds.len() as u64;
    let (callgraph_par, _) = tr
        .span("callgraph.build_par", |_| {
            CallGraph::build_from_summary_schedule(program, summary, &options(jobs), &quiet)
        })
        .map_err(fail("callgraph"))?;
    if callgraph_par != callgraph {
        return Err(format!("call graph differs at --jobs {jobs}"));
    }
    let (liveness, scan_counters) = tr
        .span("core.liveness", |_| {
            DeadMemberAnalysis::new(program, config.clone())
                .run_summary_counted(summary, &callgraph, &quiet)
        })
        .map_err(fail("liveness"))?;
    let used = summary
        .used_classes(program)
        .map_err(fail("used classes"))?;
    let report = tr.span("core.report", |_| {
        let report = Report::new(program, &liveness, &used);
        render_analysis(program, &callgraph, &liveness, &report, false)
    });
    counts.report_bytes += report.len() as u64;

    let snapshot = AnalysisSnapshot {
        fingerprint: snapshot_fingerprint(&config, Algorithm::Rta),
        source_hashes: prog
            .tus
            .iter()
            .map(|(_, s)| fnv1a64(s.as_bytes()))
            .collect(),
        summary_bytes: json_lens,
        modules,
        reachable_names: callgraph
            .reachable()
            .map(|f| (f.index() as u32, program.func_display_name(f)))
            .collect(),
        class_count: program.class_count() as u32,
        function_count: program.function_count() as u32,
        callgraph: callgraph.to_parts(),
        schedule,
        liveness: liveness.to_parts(),
        liveness_counters: scan_counters,
    };
    let image = tr.span("core.snapshot_encode", |_| snapshot.encode());
    counts.snapshot_bytes += image.len() as u64;
    let back = tr
        .span("core.snapshot_decode", |_| AnalysisSnapshot::decode(&image))
        .map_err(fail("snapshot decode"))?;
    if back != snapshot {
        return Err("snapshot round trip changed the snapshot".to_string());
    }

    // --- Dynamic layers: execute, then profile the heap trace.
    let exec = tr
        .span("dynamic.interp", |_| {
            Interpreter::new(program).run(&RunConfig::default())
        })
        .map_err(fail("interpreter"))?;
    counts.steps += exec.steps;
    counts.allocations += exec.trace.allocation_count() as u64;
    let profile = tr.span("dynamic.profile", |_| {
        profile_trace(program, &exec.trace, &liveness)
    });

    // --- The project pipeline as a whole: cold into an empty cache,
    // then the edit script through the incremental path.
    let _ = std::fs::remove_dir_all(cache);
    let run =
        |tr: &mut Tracer, name: &'static str, inputs: &[(String, String)], tel: &Telemetry| {
            tr.span(name, |_| {
                ProjectPipeline::run(
                    inputs,
                    config.clone(),
                    Algorithm::Rta,
                    jobs,
                    Engine::Summary,
                    Some(cache),
                    tel,
                )
            })
            .map_err(fail(name))
        };
    let cold = run(tr, "core.project_cold", &prog.tus, &Telemetry::enabled())?;
    if cold.snapshot().render_report(false) != report {
        return Err("project pipeline report differs from the layer-by-layer report".into());
    }
    let mut per_run: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut timed = |name: &'static str, start: Instant| {
        per_run
            .entry(name)
            .or_default()
            .push(start.elapsed().as_secs_f64() * 1e3);
    };
    while let Some((one, inputs)) = script.step() {
        let name = if one {
            "core.project_one_changed"
        } else {
            "core.project_all_changed"
        };
        let tel = Telemetry::enabled();
        let start = Instant::now();
        let pipeline = run(tr, name, &inputs, &tel)?;
        timed(name, start);
        let stats = tel.stats();
        counts.hits += stats.tu_cache_hits;
        counts.probes += stats.tu_modules;
        let epoch = pipeline.snapshot();
        let start = Instant::now();
        let rendered = tr.span("core.epoch_report", |_| epoch.render_report(false));
        timed("core.epoch_report", start);
        script.check(&rendered, &report)?;
        let start = Instant::now();
        tr.span("core.epoch_explain", |_| {
            epoch.render_explain(&prog.explain)
        })
        .map_err(|e| format!("explain {}: {}", prog.explain, e.message()))?;
        timed("core.epoch_explain", start);
    }
    for (name, runs) in per_run {
        *counts.per_run_ms.entry(name).or_insert(0.0) += median(&runs).unwrap_or(0.0);
    }
    Ok(ProgOut { report, profile })
}

/// The per-layer metrics of one traced pass, from its span self times
/// and work counts, in the order BENCHMARK.json lists them.
pub fn layer_metrics(
    self_ms: &BTreeMap<&'static str, f64>,
    c: &Counts,
) -> Vec<(&'static str, &'static str, f64)> {
    let ms = |name: &str| self_ms.get(name).copied().unwrap_or(0.0);
    let per_s = |work: u64, name: &str| work as f64 / (ms(name) / 1e3).max(1e-9);
    let run_ms = |name: &str| c.per_run_ms.get(name).copied().unwrap_or(0.0);
    vec![
        ("cppfront.lex_ms", "ms", ms("cppfront.lex")),
        (
            "cppfront.tokens_per_s",
            "1/s",
            per_s(c.tokens, "cppfront.lex"),
        ),
        ("cppfront.parse_ms", "ms", ms("cppfront.parse")),
        (
            "cppfront.parse_mb_s",
            "MB/s",
            per_s(c.source_bytes, "cppfront.parse") / 1e6,
        ),
        ("hierarchy.model_ms", "ms", ms("hierarchy.model")),
        ("hierarchy.summary_ms", "ms", ms("hierarchy.summary")),
        (
            "hierarchy.summary_par_ms",
            "ms",
            ms("hierarchy.summary_par"),
        ),
        (
            "hierarchy.summary_fns_per_s",
            "1/s",
            per_s(c.functions, "hierarchy.summary"),
        ),
        (
            "hierarchy.module_extract_ms",
            "ms",
            ms("hierarchy.module_extract"),
        ),
        (
            "hierarchy.module_json_encode_ms",
            "ms",
            ms("hierarchy.module_json_encode"),
        ),
        (
            "hierarchy.module_json_decode_ms",
            "ms",
            ms("hierarchy.module_json_decode"),
        ),
        ("hierarchy.module_json_bytes", "bytes", c.json_bytes as f64),
        (
            "hierarchy.binmod_encode_ms",
            "ms",
            ms("hierarchy.binmod_encode"),
        ),
        (
            "hierarchy.binmod_decode_ms",
            "ms",
            ms("hierarchy.binmod_decode"),
        ),
        ("hierarchy.binmod_bytes", "bytes", c.binmod_bytes as f64),
        ("hierarchy.link_ms", "ms", ms("hierarchy.link")),
        ("hierarchy.link_delta_ms", "ms", ms("hierarchy.link_delta")),
        ("callgraph.build_ms", "ms", ms("callgraph.build")),
        ("callgraph.build_par_ms", "ms", ms("callgraph.build_par")),
        ("callgraph.worklist_pops", "count", c.pops as f64),
        ("callgraph.rounds", "count", c.rounds as f64),
        ("core.liveness_ms", "ms", ms("core.liveness")),
        ("core.report_ms", "ms", ms("core.report")),
        ("core.report_bytes", "bytes", c.report_bytes as f64),
        ("core.snapshot_encode_ms", "ms", ms("core.snapshot_encode")),
        ("core.snapshot_decode_ms", "ms", ms("core.snapshot_decode")),
        ("core.snapshot_bytes", "bytes", c.snapshot_bytes as f64),
        ("core.project_cold_ms", "ms", ms("core.project_cold")),
        (
            "core.project_one_changed_ms",
            "ms",
            run_ms("core.project_one_changed"),
        ),
        (
            "core.project_all_changed_ms",
            "ms",
            run_ms("core.project_all_changed"),
        ),
        (
            "core.cache_hit_ratio",
            "ratio",
            c.hits as f64 / (c.probes as f64).max(1.0),
        ),
        ("core.epoch_report_ms", "ms", run_ms("core.epoch_report")),
        ("core.epoch_explain_ms", "ms", run_ms("core.epoch_explain")),
        ("dynamic.interp_ms", "ms", ms("dynamic.interp")),
        ("dynamic.interp_steps", "count", c.steps as f64),
        ("dynamic.allocations", "count", c.allocations as f64),
        ("dynamic.profile_ms", "ms", ms("dynamic.profile")),
    ]
}

/// The layer calls a cold project run makes (parse includes lexing),
/// whose self times add up to the attributed part of
/// `core.project_cold_ms`.
pub const COLD_PARTS: [&str; 9] = [
    "cppfront.parse",
    "hierarchy.model",
    "hierarchy.summary",
    "hierarchy.module_extract",
    "hierarchy.module_json_encode",
    "hierarchy.link",
    "callgraph.build",
    "core.liveness",
    "core.snapshot_encode",
];
