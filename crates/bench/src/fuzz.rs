//! Corpus-scale differential fuzzing rig.
//!
//! The reproduction has two independent implementations — the summary
//! engine and the sequential walk reference ([`crate::reference`]) — a
//! deterministic generator, and byte-identical artifacts across worker
//! counts and cache states: a ready-made differential-testing oracle.
//! This module sweeps seeded adversarial generator configurations
//! ([`ddm_benchmarks::generator::generate_fuzz`]) through the full
//! oracle matrix, every cell compared against the walk reference:
//!
//! * the summary engine at jobs `{1, 8}`, cacheless;
//! * the summary engine against a persistent cache: cold, warm, and
//!   1-changed (one TU's content perturbed), each at jobs `{1, 8}`;
//! * a multi-step edit script: three further random single-TU edits
//!   replayed against one warm cache directory, each step compared to
//!   a cacheless run over the same inputs;
//!
//! byte-comparing the rendered report, the `--explain` text of every
//! member, and the deterministic counters. A program the pipeline
//! *rejects* (e.g. the deliberate ODR-conflict shape) must be rejected
//! with the byte-identical diagnostic in every cell — error
//! determinism is part of the oracle.
//!
//! Any divergence (or panic) is shrunk to a minimal repro: config
//! bisection first (halving every generator knob while the divergence
//! persists), then greedy delta-debugging over the generated TUs at
//! top-level-declaration granularity, and the result is emitted as
//! self-contained `.cpp` files plus the exact `ddm` invocations that
//! disagree.

use ddm_benchmarks::generator::{
    generate_fuzz, FuzzConfig, FuzzShape, GeneratorConfig, FUZZ_SHAPES,
};
use ddm_benchmarks::rng::Rng;
use ddm_callgraph::Algorithm;
use ddm_callgraph::CallGraph;
use ddm_core::{explain, AnalysisConfig, Engine, Liveness, ProjectPipeline, Report};
use ddm_hierarchy::Program;
use ddm_telemetry::Telemetry;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Explanations compared per cell (every member, capped so pathological
/// configs cannot dominate the sweep).
const EXPLAIN_CAP: usize = 64;

/// One point of the fuzz corpus: a generator configuration, its seed,
/// and the call-graph algorithm the whole matrix runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuzzCase {
    /// Program seed (also selects the shape in [`case_for_seed`]).
    pub seed: u64,
    /// Generator shape and sizes.
    pub config: FuzzConfig,
    /// Call-graph algorithm for every cell of this case's matrix.
    pub algorithm: Algorithm,
}

/// Derives the case for `seed`, cycling shapes through [`FUZZ_SHAPES`].
pub fn case_for_seed(seed: u64) -> FuzzCase {
    case_for_seed_in(seed, &FUZZ_SHAPES)
}

/// Derives the case for `seed` with the shape drawn from `shapes`
/// (round-robin). Sizes and algorithm come from a seed-derived stream,
/// so equal seeds always produce equal cases.
pub fn case_for_seed_in(seed: u64, shapes: &[FuzzShape]) -> FuzzCase {
    assert!(!shapes.is_empty(), "shape list must be non-empty");
    let shape = shapes[(seed % shapes.len() as u64) as usize];
    let mut rng = Rng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1));
    let config = FuzzConfig {
        base: GeneratorConfig {
            classes: rng.gen_range(2..8),
            members_per_class: rng.gen_range(1..5),
            methods_per_class: rng.gen_range(1..4),
            stmts_per_method: rng.gen_range(0..5),
            objects_in_main: rng.gen_range(1..6),
        },
        shape,
        tus: rng.gen_range(1..4),
    };
    let algorithm = match rng.gen_range(0..4) {
        0 => Algorithm::Rta,
        1 => Algorithm::Pta,
        2 => Algorithm::Cha,
        _ => Algorithm::Everything,
    };
    FuzzCase {
        seed,
        config,
        algorithm,
    }
}

/// The `--callgraph` spelling of `algorithm` (for repro CLI lines).
pub fn algorithm_flag(algorithm: Algorithm) -> &'static str {
    match algorithm {
        Algorithm::Rta => "rta",
        Algorithm::Pta => "pta",
        Algorithm::Cha => "cha",
        Algorithm::Everything => "everything",
    }
}

/// One executed oracle cell: its human label, the equivalent `ddm`
/// invocation, and the canonical artifact text it produced.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// e.g. `summary jobs=8 cache=warm`.
    pub label: String,
    /// `ddm <files> --callgraph ... --jobs ...` suffix. The walk
    /// reference has no CLI: its cell shows the jobs=1 command, whose
    /// output must equal the reference.
    pub cli: String,
    /// Report + explains + counters, or `error: ...` for rejections.
    pub artifact: String,
}

/// A pair of oracle cells that disagreed on the same inputs.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// The reference cell (the walk reference — or the cacheless
    /// summary baseline over edited inputs for 1-changed cells).
    pub baseline: CellOutcome,
    /// The disagreeing cell.
    pub other: CellOutcome,
    /// The inputs both cells analysed.
    pub inputs: Vec<(String, String)>,
}

impl Divergence {
    /// First line at which the two artifacts differ, for quick triage.
    pub fn first_difference(&self) -> String {
        let a: Vec<&str> = self.baseline.artifact.lines().collect();
        let b: Vec<&str> = self.other.artifact.lines().collect();
        for i in 0..a.len().max(b.len()) {
            let la = a.get(i).copied().unwrap_or("<eof>");
            let lb = b.get(i).copied().unwrap_or("<eof>");
            if la != lb {
                return format!("line {}: `{la}` vs `{lb}`", i + 1);
            }
        }
        "artifacts differ only in length".to_string()
    }
}

/// The outcome of one case's matrix.
#[derive(Debug)]
pub enum CaseResult {
    /// Every cell agreed byte-for-byte.
    Agree {
        /// The agreed outcome was a rejection (`error: ...`) — true for
        /// the ODR-conflict shape, whose oracle covers diagnostics.
        error_outcome: bool,
    },
    /// Two cells disagreed.
    Diverged(Box<Divergence>),
}

/// Runs one summary-engine oracle cell and renders its canonical
/// artifact: the report, the `--explain` text of every member (capped at
/// [`EXPLAIN_CAP`]), and the deterministic counters — or the error text
/// for rejected programs. Every byte of this artifact is pinned to be
/// identical across worker counts and cache states, and to the walk
/// reference's ([`reference_artifact`]).
pub fn oracle_artifact(
    inputs: &[(String, String)],
    algorithm: Algorithm,
    jobs: usize,
    cache: Option<&Path>,
) -> String {
    let telemetry = Telemetry::enabled();
    match ProjectPipeline::run(
        inputs,
        AnalysisConfig::default(),
        algorithm,
        jobs,
        Engine::Summary,
        cache,
        &telemetry,
    ) {
        Ok(p) => render_artifact(p.program(), p.callgraph(), p.liveness(), &p.report(), &telemetry),
        Err(e) => format!("error: {e}\n"),
    }
}

/// The walk reference's artifact over `inputs`, in the format of
/// [`oracle_artifact`].
pub fn reference_artifact(inputs: &[(String, String)], algorithm: Algorithm) -> String {
    let telemetry = Telemetry::enabled();
    match crate::reference::analyze_project(
        inputs,
        &AnalysisConfig::default(),
        algorithm,
        &telemetry,
    ) {
        Ok(r) => render_artifact(r.program(), r.callgraph(), r.liveness(), &r.report(), &telemetry),
        Err(e) => format!("error: {e}\n"),
    }
}

fn render_artifact(
    program: &Program,
    callgraph: &CallGraph,
    liveness: &Liveness,
    report: &Report,
    telemetry: &Telemetry,
) -> String {
    let mut out = report.to_string();
    let mut specs = Vec::new();
    'classes: for (_, class) in program.classes() {
        for member in &class.members {
            if specs.len() >= EXPLAIN_CAP {
                break 'classes;
            }
            specs.push(format!("{}::{}", class.name, member.name));
        }
    }
    for spec in &specs {
        match explain(program, callgraph, liveness, spec) {
            Ok(text) => out.push_str(&text),
            Err(e) => {
                let _ = writeln!(out, "explain {spec}: error: {e}");
            }
        }
    }
    let _ = writeln!(out, "counters: {:?}", telemetry.counters().rows());
    out
}

/// Serial number for scratch cache directories, so concurrent sweep
/// workers (and repeated shrink probes) never share one.
static SCRATCH_SERIAL: AtomicU64 = AtomicU64::new(0);

fn fresh_dir(scratch_root: &Path, tag: &str) -> PathBuf {
    let n = SCRATCH_SERIAL.fetch_add(1, Ordering::Relaxed);
    scratch_root.join(format!("{tag}-{n}"))
}

fn cli_for(algorithm: Algorithm, jobs: usize, cache: Option<&str>) -> String {
    let mut cli = format!("--callgraph {} --jobs {jobs}", algorithm_flag(algorithm));
    if let Some(state) = cache {
        let _ = write!(cli, " --cache-dir <{state} dir>");
    }
    cli
}

/// Runs the oracle matrix over `inputs` and compares every cell to the
/// walk reference; with `full`, also exercises the persistent
/// cache (cold, warm, and 1-changed at jobs 1 and 8, where the
/// 1-changed cells are compared against a cacheless baseline over the
/// same edited inputs), then replays a three-step random single-TU
/// edit script against the jobs=1 directory, comparing every step to
/// its own cacheless baseline. Returns the first divergence found.
///
/// Scratch cache directories are created under `scratch_root` and
/// removed before returning.
pub fn check_inputs(
    inputs: &[(String, String)],
    algorithm: Algorithm,
    scratch_root: &Path,
    full: bool,
) -> Option<Box<Divergence>> {
    let run = |jobs: usize, cache: Option<&Path>, state: Option<&str>| CellOutcome {
        label: match state {
            Some(s) => format!("summary jobs={jobs} cache={s}"),
            None => format!("summary jobs={jobs}"),
        },
        cli: cli_for(algorithm, jobs, state),
        artifact: oracle_artifact(inputs, algorithm, jobs, cache),
    };
    let baseline = CellOutcome {
        label: "walk reference (in-process)".to_string(),
        cli: cli_for(algorithm, 1, None),
        artifact: reference_artifact(inputs, algorithm),
    };
    let check = |other: CellOutcome| -> Option<Box<Divergence>> {
        if other.artifact != baseline.artifact {
            Some(Box::new(Divergence {
                baseline: baseline.clone(),
                other,
                inputs: inputs.to_vec(),
            }))
        } else {
            None
        }
    };

    for jobs in [1, 8] {
        if let Some(d) = check(run(jobs, None, None)) {
            return Some(d);
        }
    }

    if !full {
        return None;
    }

    // Cached cells: each jobs level gets its own directory so both see a
    // genuine cold start; the warm run then replays entirely from cache.
    let mut dirs = Vec::new();
    let mut found = None;
    'matrix: for jobs in [1usize, 8] {
        let dir = fresh_dir(scratch_root, "cache");
        dirs.push(dir.clone());
        for state in ["cold", "warm"] {
            let cell = run(jobs, Some(&dir), Some(state));
            if let Some(d) = check(cell) {
                found = Some(d);
                break 'matrix;
            }
        }
    }

    // 1-changed: perturb the last TU with an unreachable function, then
    // the cached run over the now-stale directory must match a
    // cacheless run over the same edited inputs.
    let mut edited = inputs.to_vec();
    if let Some(last) = edited.last_mut() {
        last.1.push_str("int fuzz_pad_edit() { return 1; }\n");
    }
    if found.is_none() {
        let edited_baseline = CellOutcome {
            label: "summary jobs=1 (edited, cacheless)".to_string(),
            cli: cli_for(algorithm, 1, None),
            artifact: oracle_artifact(&edited, algorithm, 1, None),
        };
        for (jobs, dir) in [1usize, 8].iter().zip(&dirs) {
            let cell = CellOutcome {
                label: format!("summary jobs={jobs} cache=1-changed"),
                cli: cli_for(algorithm, *jobs, Some("1-changed")),
                artifact: oracle_artifact(&edited, algorithm, *jobs, Some(dir)),
            };
            if cell.artifact != edited_baseline.artifact {
                found = Some(Box::new(Divergence {
                    baseline: edited_baseline.clone(),
                    other: cell,
                    inputs: edited.clone(),
                }));
                break;
            }
        }
    }

    // Multi-step edit script: three further random single-TU edits
    // replayed in sequence against the jobs=1 cache directory (already
    // warm and one edit deep at this point). Every step must be
    // byte-identical to a cacheless run over the same inputs — no state
    // from any earlier edition (summary entries, analysis snapshot) may
    // leak into a later one.
    if found.is_none() {
        let mut rng = Rng::seed_from_u64(
            edited
                .iter()
                .flat_map(|(_, s)| s.as_bytes())
                .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                    (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
                }),
        );
        let dir = &dirs[0];
        let mut current = edited.clone();
        for step in 1..=3usize {
            let t = rng.gen_range(0..current.len());
            let _ = writeln!(
                current[t].1,
                "int fuzz_step{step}_edit() {{ return {step}; }}"
            );
            let step_baseline = CellOutcome {
                label: format!("summary jobs=1 (edit step {step}, cacheless)"),
                cli: cli_for(algorithm, 1, None),
                artifact: oracle_artifact(&current, algorithm, 1, None),
            };
            let cell = CellOutcome {
                label: format!("summary jobs=1 cache=edit-step-{step}"),
                cli: cli_for(algorithm, 1, Some("edit script")),
                artifact: oracle_artifact(&current, algorithm, 1, Some(dir)),
            };
            if cell.artifact != step_baseline.artifact {
                found = Some(Box::new(Divergence {
                    baseline: step_baseline,
                    other: cell,
                    inputs: current.clone(),
                }));
                break;
            }
        }
    }

    for dir in dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
    found
}

/// Generates `case`'s program and runs its full matrix.
pub fn run_case(case: &FuzzCase, scratch_root: &Path, full: bool) -> CaseResult {
    let inputs = generate_fuzz(&case.config, case.seed);
    match check_inputs(&inputs, case.algorithm, scratch_root, full) {
        Some(d) => CaseResult::Diverged(d),
        None => CaseResult::Agree {
            error_outcome: oracle_artifact(&inputs, case.algorithm, 1, None).starts_with("error:"),
        },
    }
}

// --- Shrinking -----------------------------------------------------------

/// Splits a TU into top-level chunks: classes, unions, enums, free
/// functions, prototypes, globals — each chunk a run of lines that
/// opens at brace depth 0 and closes back to it. Comment and blank
/// lines attach to the chunk that follows them. Concatenating the
/// chunks reproduces the source exactly.
pub fn chunk_top_level(source: &str) -> Vec<String> {
    let mut chunks = Vec::new();
    let mut current = String::new();
    let mut depth: i64 = 0;
    for line in source.lines() {
        let code = line.split("//").next().unwrap_or("");
        let opens = code.matches('{').count() as i64;
        let closes = code.matches('}').count() as i64;
        current.push_str(line);
        current.push('\n');
        depth += opens - closes;
        // A chunk closes at depth 0 on a line that carried any code:
        // a `};`/`}` closer, a one-line prototype, or a blank/comment
        // separator flushes only if something real is pending.
        let has_code = !code.trim().is_empty();
        if depth == 0 && has_code {
            chunks.push(std::mem::take(&mut current));
        }
    }
    if !current.is_empty() {
        chunks.push(current);
    }
    chunks
}

/// Counts chunks that define a function (contain a body and are not a
/// class/union/enum definition) across all TUs — the "repro is ≤ N
/// functions" metric.
pub fn function_definition_count(inputs: &[(String, String)]) -> usize {
    inputs
        .iter()
        .flat_map(|(_, source)| chunk_top_level(source))
        .filter(|chunk| {
            let first_code = chunk
                .lines()
                .map(|l| l.split("//").next().unwrap_or("").trim())
                .find(|l| !l.is_empty())
                .unwrap_or("");
            !first_code.is_empty()
                && !first_code.starts_with("class ")
                && !first_code.starts_with("struct ")
                && !first_code.starts_with("union ")
                && !first_code.starts_with("enum ")
                && chunk.contains('{')
        })
        .count()
}

/// Greedy delta-debugging over the generated TUs: repeatedly tries
/// dropping whole TUs, then single top-level chunks (never the chunk
/// holding `main`), then single brace-free statement lines — so a call
/// site inside `main` can go first, unblocking the chunk drop of its
/// now-unreferenced callee — keeping every drop under which
/// `interesting` still holds, until a fixpoint. `interesting` must hold
/// for `inputs`.
pub fn shrink_inputs(
    inputs: &[(String, String)],
    interesting: impl Fn(&[(String, String)]) -> bool,
) -> Vec<(String, String)> {
    assert!(
        interesting(inputs),
        "shrink_inputs: the starting inputs must be interesting"
    );
    let mut cur = inputs.to_vec();
    loop {
        let mut progressed = false;

        // Whole-TU drops first — they remove the most at once.
        let mut t = 0;
        while t < cur.len() {
            if cur.len() > 1 && !cur[t].1.contains("int main(") {
                let mut cand = cur.clone();
                cand.remove(t);
                if interesting(&cand) {
                    cur = cand;
                    progressed = true;
                    continue; // same index now names the next TU
                }
            }
            t += 1;
        }

        // Chunk drops, last-to-first so dependents go before their
        // definitions get a chance.
        for t in 0..cur.len() {
            let mut c = chunk_top_level(&cur[t].1).len();
            while c > 0 {
                c -= 1;
                let chunks = chunk_top_level(&cur[t].1);
                let Some(chunk) = chunks.get(c) else { continue };
                if chunk.contains("int main(") {
                    continue;
                }
                let rebuilt: String = chunks
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != c)
                    .map(|(_, s)| s.as_str())
                    .collect();
                let mut cand = cur.clone();
                cand[t].1 = rebuilt;
                if interesting(&cand) {
                    cur = cand;
                    progressed = true;
                }
            }
        }

        // Single-line drops: any line that carries code but no brace can
        // go without changing the chunk structure (statements, member
        // declarations, prototypes).
        for t in 0..cur.len() {
            let mut l = cur[t].1.lines().count();
            while l > 0 {
                l -= 1;
                let lines: Vec<&str> = cur[t].1.lines().collect();
                let Some(line) = lines.get(l) else { continue };
                let code = line.split("//").next().unwrap_or("").trim();
                if code.is_empty() || code.contains('{') || code.contains('}') {
                    continue;
                }
                let rebuilt: String = lines
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != l)
                    .map(|(_, s)| format!("{s}\n"))
                    .collect();
                let mut cand = cur.clone();
                cand[t].1 = rebuilt;
                if interesting(&cand) {
                    cur = cand;
                    progressed = true;
                }
            }
        }

        if !progressed {
            return cur;
        }
    }
}

/// Halves one knob toward `min`; returns false when already minimal.
fn shrink_field(v: &mut usize, min: usize) -> bool {
    if *v <= min {
        return false;
    }
    let half = min.max(*v / 2);
    *v = if half == *v { *v - 1 } else { half };
    true
}

/// Config bisection: repeatedly halves every generator knob (TUs,
/// classes, members, methods, statements, objects) toward its floor,
/// keeping each reduction under which `interesting` still holds.
/// `interesting` must hold for `config`.
pub fn shrink_config(
    config: &FuzzConfig,
    interesting: impl Fn(&FuzzConfig) -> bool,
) -> FuzzConfig {
    assert!(
        interesting(config),
        "shrink_config: the starting config must be interesting"
    );
    let mut cur = *config;
    loop {
        let mut progressed = false;
        for knob in 0..6 {
            loop {
                let mut cand = cur;
                let moved = match knob {
                    0 => shrink_field(&mut cand.tus, 1),
                    1 => shrink_field(&mut cand.base.classes, 1),
                    2 => shrink_field(&mut cand.base.members_per_class, 1),
                    3 => shrink_field(&mut cand.base.methods_per_class, 0),
                    4 => shrink_field(&mut cand.base.stmts_per_method, 0),
                    _ => shrink_field(&mut cand.base.objects_in_main, 0),
                };
                if !moved || !interesting(&cand) {
                    break;
                }
                cur = cand;
                progressed = true;
            }
        }
        if !progressed {
            return cur;
        }
    }
}

/// A shrunk divergence: the minimal inputs still showing it, the config
/// bisection's end point, and the original case.
#[derive(Debug)]
pub struct ShrunkRepro {
    /// The original case.
    pub case: FuzzCase,
    /// Minimal generator config still diverging (bisection result).
    pub config: FuzzConfig,
    /// Minimal inputs still diverging (delta-debugging result).
    pub inputs: Vec<(String, String)>,
    /// The divergence the minimal inputs exhibit.
    pub divergence: Box<Divergence>,
}

/// Shrinks a diverging case: config bisection over regenerated
/// programs, then chunk-level delta-debugging over the winning
/// program's TUs. The returned repro is guaranteed to still diverge.
pub fn shrink_divergence(case: &FuzzCase, scratch_root: &Path) -> ShrunkRepro {
    let diverges_cfg = |cfg: &FuzzConfig| {
        let inputs = generate_fuzz(cfg, case.seed);
        check_inputs(&inputs, case.algorithm, scratch_root, true).is_some()
    };
    let config = shrink_config(&case.config, diverges_cfg);
    let inputs = generate_fuzz(&config, case.seed);
    let diverges =
        |inp: &[(String, String)]| check_inputs(inp, case.algorithm, scratch_root, true).is_some();
    let inputs = shrink_inputs(&inputs, diverges);
    let divergence = check_inputs(&inputs, case.algorithm, scratch_root, true)
        .expect("shrunk inputs must still diverge");
    ShrunkRepro {
        case: *case,
        config,
        inputs,
        divergence,
    }
}

impl ShrunkRepro {
    /// Writes the repro under `dir`: one self-contained `.cpp` per TU
    /// (`<stem>.cpp` or `<stem>-tu<N>.cpp`) plus `<stem>.txt` holding
    /// the disagreeing cells, their exact `ddm` invocations, and the
    /// first differing artifact line. Returns the `.txt` path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors creating `dir` or writing files.
    pub fn write(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let stem = format!(
            "repro-seed{}-{}",
            self.case.seed,
            self.case.config.shape.name()
        );
        let mut files = Vec::new();
        for (i, (_, source)) in self.inputs.iter().enumerate() {
            let name = if self.inputs.len() == 1 {
                format!("{stem}.cpp")
            } else {
                format!("{stem}-tu{i}.cpp")
            };
            std::fs::write(dir.join(&name), source)?;
            files.push(name);
        }
        let files = files.join(" ");
        let mut note = String::new();
        let _ = writeln!(note, "# differential fuzz repro");
        let _ = writeln!(
            note,
            "# seed={} shape={} algorithm={} (shrunk from {:?})",
            self.case.seed,
            self.case.config.shape.name(),
            algorithm_flag(self.case.algorithm),
            self.case.config,
        );
        let _ = writeln!(note, "# minimal config: {:?}", self.config);
        let _ = writeln!(
            note,
            "# function definitions in repro: {}",
            function_definition_count(&self.inputs)
        );
        let _ = writeln!(note, "# first difference: {}", self.divergence.first_difference());
        let _ = writeln!(note, "# disagreeing cells:");
        let _ = writeln!(
            note,
            "ddm {files} {}   # {}",
            self.divergence.baseline.cli, self.divergence.baseline.label
        );
        let _ = writeln!(
            note,
            "ddm {files} {}   # {}",
            self.divergence.other.cli, self.divergence.other.label
        );
        let path = dir.join(format!("{stem}.txt"));
        std::fs::write(&path, note)?;
        Ok(path)
    }

    /// The repro rendered for a panic message or log.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "shrunk repro (seed={} shape={} algorithm={}, {} function defs):",
            self.case.seed,
            self.case.config.shape.name(),
            algorithm_flag(self.case.algorithm),
            function_definition_count(&self.inputs)
        );
        let _ = writeln!(
            out,
            "cells: `{}` vs `{}`",
            self.divergence.baseline.label, self.divergence.other.label
        );
        let _ = writeln!(out, "first difference: {}", self.divergence.first_difference());
        for (file, source) in &self.inputs {
            let _ = writeln!(out, "--- {file}\n{source}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_are_deterministic_and_cycle_shapes() {
        assert_eq!(case_for_seed(11), case_for_seed(11));
        let shapes: Vec<FuzzShape> = (0..FUZZ_SHAPES.len() as u64)
            .map(|s| case_for_seed(s).config.shape)
            .collect();
        assert_eq!(shapes, FUZZ_SHAPES.to_vec());
    }

    #[test]
    fn chunking_round_trips_and_isolates_top_level_items() {
        let src = "// header\nclass A {\npublic:\n    int x;\n};\n\nint f();\nint g() {\n    return 1;\n}\nint main() {\n    return g();\n}\n";
        let chunks = chunk_top_level(src);
        assert_eq!(chunks.concat(), src, "chunks must concatenate to the source");
        assert!(chunks.iter().any(|c| c.contains("class A")));
        assert!(chunks.iter().any(|c| c.trim_end().ends_with("int f();")));
        assert_eq!(function_definition_count(&[("a".into(), src.into())]), 2);
    }

    #[test]
    fn shrink_field_halves_toward_the_floor() {
        let mut v = 9;
        assert!(shrink_field(&mut v, 1));
        assert_eq!(v, 4);
        assert!(shrink_field(&mut v, 1));
        assert_eq!(v, 2);
        assert!(shrink_field(&mut v, 1));
        assert_eq!(v, 1);
        assert!(!shrink_field(&mut v, 1));
    }

    #[test]
    fn a_benign_case_passes_its_full_matrix() {
        let scratch = std::env::temp_dir().join(format!("ddm-fuzz-unit-{}", std::process::id()));
        let case = case_for_seed(0);
        assert_eq!(case.config.shape, FuzzShape::Benign);
        match run_case(&case, &scratch, true) {
            CaseResult::Agree { error_outcome } => assert!(!error_outcome),
            CaseResult::Diverged(d) => panic!(
                "benign seed 0 diverged: {} vs {}\n{}",
                d.baseline.label,
                d.other.label,
                d.first_difference()
            ),
        }
        let _ = std::fs::remove_dir_all(scratch);
    }
}
