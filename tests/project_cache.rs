//! Cache round-trip guarantees for the multi-TU project pipeline.
//!
//! The contract under test: a cached run — cold, fully warm, or warm
//! with one modified TU — produces the byte-identical report, the
//! byte-identical `--explain` text, and the byte-identical deterministic
//! counters as a cacheless run over the same sources — and as the
//! sequential walk reference — at any worker count. The cache may only change *wall-clock*, never
//! *output*. Damaged or version-skewed cache entries are detected,
//! discarded, recomputed, and overwritten.

use dead_data_members::analysis::{
    config_fingerprint, decode_tu_entry, encode_tu_entry, explain, AnalysisConfig, Engine,
    Liveness, ProjectPipeline, Report,
};
use dead_data_members::callgraph::{Algorithm, CallGraph};
use dead_data_members::hierarchy::{fnv1a64, Program};
use dead_data_members::telemetry::{EventClass, Telemetry};
use std::path::{Path, PathBuf};

const HEADER: &str = "\
enum ShapeKind { KindCircle, KindRect };

class Shape {
public:
    Shape(int k) : kind(k), tag(0) { }
    virtual ~Shape() { }
    virtual int area() { return 0; }
    int kind;
    int tag;
};

class Circle : public Shape {
public:
    Circle(int r) : Shape(KindCircle), radius(r), cached(0) { }
    virtual int area() { return 3 * radius * radius; }
    int radius;
    int cached;
};
";

fn inputs() -> Vec<(String, String)> {
    vec![
        (
            "main.cpp".to_string(),
            format!(
                "{HEADER}int total_area(Shape* a, Shape* b);\nint classify(Shape* s);\n\
                 int main() {{\n    Shape* c = new Circle(2);\n    Shape* s = new Shape(1);\n\
                 \x20   int r = total_area(c, s) + classify(c);\n    delete c;\n    delete s;\n\
                 \x20   return r;\n}}"
            ),
        ),
        (
            "geom.cpp".to_string(),
            format!("{HEADER}int total_area(Shape* a, Shape* b) {{ return a->area() + b->area(); }}"),
        ),
        (
            "stats.cpp".to_string(),
            format!("{HEADER}int classify(Shape* s) {{ s->tag = 1; return s->kind; }}"),
        ),
    ]
}

/// A unique scratch cache directory per test, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(test: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("ddm-cache-{}-{test}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }
    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(
    inputs: &[(String, String)],
    jobs: usize,
    cache: Option<&Path>,
    telemetry: &Telemetry,
) -> ProjectPipeline {
    ProjectPipeline::run(
        inputs,
        AnalysisConfig::default(),
        Algorithm::Rta,
        jobs,
        Engine::Summary,
        cache,
        telemetry,
    )
    .expect("project run")
}

/// Every observable artifact of a run, as rendered text.
fn artifacts(p: &ProjectPipeline, telemetry: &Telemetry) -> (String, String, String) {
    render(p.program(), p.callgraph(), p.liveness(), &p.report(), telemetry)
}

fn render(
    program: &Program,
    callgraph: &CallGraph,
    liveness: &Liveness,
    report: &Report,
    telemetry: &Telemetry,
) -> (String, String, String) {
    let mut explained = String::new();
    for spec in ["Shape::kind", "Shape::tag", "Circle::radius", "Circle::cached"] {
        explained.push_str(&explain(program, callgraph, liveness, spec).unwrap());
    }
    let counters = format!("{:?}", telemetry.counters().rows());
    (report.to_string(), explained, counters)
}

#[test]
fn cached_runs_match_cacheless_runs_for_every_engine_and_worker_count() {
    let inputs = inputs();
    let walk_tel = Telemetry::enabled();
    let config = AnalysisConfig::default();
    let walked = ddm_bench::reference::analyze_project(&inputs, &config, Algorithm::Rta, &walk_tel)
        .expect("walk reference");
    let reference = render(
        walked.program(),
        walked.callgraph(),
        walked.liveness(),
        &walked.report(),
        &walk_tel,
    );
    for jobs in [1usize, 8] {
        let scratch = Scratch::new(&format!("matrix-{jobs}"));

        let bare_tel = Telemetry::enabled();
        let bare = run(&inputs, jobs, None, &bare_tel);
        assert_eq!(
            artifacts(&bare, &bare_tel),
            reference,
            "cacheless vs walk reference: jobs={jobs}"
        );

        let cold_tel = Telemetry::enabled();
        let cold = run(&inputs, jobs, Some(scratch.path()), &cold_tel);
        assert_eq!(
            artifacts(&cold, &cold_tel),
            reference,
            "cold cached vs walk reference: jobs={jobs}"
        );

        let warm_tel = Telemetry::enabled();
        let warm = run(&inputs, jobs, Some(scratch.path()), &warm_tel);
        assert_eq!(
            artifacts(&warm, &warm_tel),
            reference,
            "warm cached vs walk reference: jobs={jobs}"
        );
        assert_eq!(warm_tel.stats().tu_cache_hits, 3);
        assert_eq!(warm_tel.stats().tus_summarized, 0);
    }
}

#[test]
fn one_changed_tu_reanalyzes_exactly_that_tu() {
    let scratch = Scratch::new("one-changed");
    let inputs = inputs();
    run(
        &inputs,
        8,
        Some(scratch.path()),
        &Telemetry::enabled(),
    );

    // Edit one TU: classify now also reads `tag`, livening it.
    let mut edited = inputs.clone();
    edited[2].1 = format!("{HEADER}int classify(Shape* s) {{ s->tag = 1; return s->kind + s->tag; }}");

    let warm_tel = Telemetry::enabled();
    let warm = run(&edited, 8, Some(scratch.path()), &warm_tel);
    let stats = warm_tel.stats();
    assert_eq!(stats.tu_cache_hits, 2, "unchanged TUs must hit");
    assert_eq!(stats.tu_cache_misses, 1, "the edited TU must miss");
    assert_eq!(stats.tus_parsed, 1, "only the edited TU is re-parsed");
    assert_eq!(stats.tus_summarized, 1, "only the edited TU is re-summarized");

    // The warm partial recomputation must be indistinguishable from a
    // from-scratch cacheless run over the edited sources.
    let fresh_tel = Telemetry::enabled();
    let fresh = run(&edited, 8, None, &fresh_tel);
    assert_eq!(artifacts(&warm, &warm_tel), artifacts(&fresh, &fresh_tel));
    assert!(warm.report().to_string().contains("live tag"));
}

#[test]
fn renamed_file_with_identical_content_still_hits() {
    let scratch = Scratch::new("renamed");
    let inputs = inputs();
    run(
        &inputs,
        1,
        Some(scratch.path()),
        &Telemetry::enabled(),
    );

    let mut renamed = inputs.clone();
    renamed[1].0 = "geometry_v2.cpp".to_string();
    let tel = Telemetry::enabled();
    run(&renamed, 1, Some(scratch.path()), &tel);
    assert_eq!(tel.stats().tu_cache_hits, 3, "cache keys are content, not paths");
}

/// The `reason` of every `tu_cache_invalidated` event a run recorded.
fn invalidation_reasons(telemetry: &Telemetry) -> Vec<String> {
    telemetry
        .events_ndjson(Some(EventClass::Observational))
        .lines()
        .filter(|l| l.contains("\"event\":\"tu_cache_invalidated\""))
        .map(|l| {
            let value = dead_data_members::telemetry::json::parse(l).expect("NDJSON line");
            value.get("reason").and_then(|r| r.as_str()).expect("reason").to_string()
        })
        .collect()
}

/// Replaces every summary cache entry with `damage(entries, i)`, where
/// `entries` holds every entry's bytes in file-name order, then asserts
/// that a warm run detects the damage with `reason`, recomputes all
/// TUs, and leaves valid entries behind.
fn damaged_entries_are_recovered(
    test: &str,
    reason: &str,
    damage: impl Fn(&[Vec<u8>], usize) -> Vec<u8>,
) {
    let scratch = Scratch::new(test);
    let inputs = inputs();
    let cold_tel = Telemetry::enabled();
    let cold = run(&inputs, 1, Some(scratch.path()), &cold_tel);
    let cold_art = artifacts(&cold, &cold_tel);

    // Damage the per-TU summary entries and drop the analysis snapshot:
    // this test proves the entry probe's detect-and-recompute path,
    // which a surviving snapshot would otherwise short-circuit (snapshot
    // damage has its own torture tests).
    let _ = std::fs::remove_file(scratch.path().join("analysis.snap"));
    let mut paths: Vec<PathBuf> = std::fs::read_dir(scratch.path())
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.to_string_lossy().ends_with(".mod"))
        .collect();
    paths.sort();
    assert_eq!(paths.len(), 3);
    let entries: Vec<Vec<u8>> = paths.iter().map(|p| std::fs::read(p).unwrap()).collect();
    for (i, path) in paths.iter().enumerate() {
        std::fs::write(path, damage(&entries, i)).unwrap();
    }

    let warm_tel = Telemetry::recording();
    let warm = run(&inputs, 1, Some(scratch.path()), &warm_tel);
    let stats = warm_tel.stats();
    assert_eq!(stats.tu_cache_hits, 0, "damaged entries must not hit");
    assert_eq!(stats.tu_cache_invalidations, 3);
    assert_eq!(stats.tus_summarized, 3, "every TU is recomputed");
    assert_eq!(invalidation_reasons(&warm_tel), vec![reason; 3]);
    assert_eq!(artifacts(&warm, &warm_tel), cold_art);

    // The damaged entries were overwritten with valid ones.
    let again_tel = Telemetry::enabled();
    run(&inputs, 1, Some(scratch.path()), &again_tel);
    assert_eq!(again_tel.stats().tu_cache_hits, 3);
    assert_eq!(again_tel.stats().tu_cache_invalidations, 0);
}

/// Byte offset of the format version in every sealed cache file (after
/// the 8-byte magic).
const VERSION_AT: std::ops::Range<usize> = 8..12;

#[test]
fn corrupted_cache_entries_are_discarded_and_recomputed() {
    damaged_entries_are_recovered("corrupt", "corrupt", |_, _| b"{]".to_vec());
}

#[test]
fn truncated_cache_entries_are_discarded_and_recomputed() {
    damaged_entries_are_recovered("truncate", "corrupt", |entries, i| {
        entries[i][..entries[i].len() / 2].to_vec()
    });
}

#[test]
fn version_mismatched_cache_entries_are_discarded_and_recomputed() {
    damaged_entries_are_recovered("version", "version_skew", |entries, i| {
        let mut skewed = entries[i].clone();
        let version = u32::from_le_bytes(skewed[VERSION_AT].try_into().unwrap());
        skewed[VERSION_AT].copy_from_slice(&(version + 1).to_le_bytes());
        skewed
    });
}

#[test]
fn a_flipped_payload_byte_fails_the_checksum() {
    damaged_entries_are_recovered("checksum", "corrupt", |entries, i| {
        let mut flipped = entries[i].clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x20;
        flipped
    });
}

#[test]
fn an_entry_copied_over_another_hash_is_rejected() {
    // Each entry gets the next one's (intact) bytes.
    damaged_entries_are_recovered("swapped", "source_hash", |entries, i| {
        entries[(i + 1) % entries.len()].clone()
    });
}

#[test]
fn a_checksum_valid_entry_with_a_dangling_reference_is_rejected() {
    // Re-encode each entry through the real codec with a base-class
    // reference to a class the module does not define: the envelope and
    // checksum are intact, so only `TuModule::validate` can catch it.
    let fingerprint = config_fingerprint(Algorithm::Rta);
    let hashes: Vec<u64> = inputs()
        .iter()
        .map(|(_, src)| fnv1a64(src.as_bytes()))
        .collect();
    damaged_entries_are_recovered("dangling", "corrupt", |entries, i| {
        let mut module = hashes
            .iter()
            .find_map(|&h| decode_tu_entry(&entries[i], &fingerprint, h).ok())
            .expect("every entry belongs to an input");
        std::sync::Arc::make_mut(&mut module.classes[0])
            .bases
            .push(("Ghost".to_string(), false));
        encode_tu_entry(&module, &fingerprint)
    });
}

#[test]
fn fingerprint_changes_invalidate_cached_entries() {
    let scratch = Scratch::new("fingerprint");
    let inputs = inputs();
    run(
        &inputs,
        1,
        Some(scratch.path()),
        &Telemetry::enabled(),
    );

    // PTA refinement changes what per-TU summaries contain, so its
    // fingerprint must not accept RTA-era entries.
    let tel = Telemetry::recording();
    ProjectPipeline::run(
        &inputs,
        AnalysisConfig::default(),
        Algorithm::Pta,
        1,
        Engine::Summary,
        Some(scratch.path()),
        &tel,
    )
    .expect("pta project run");
    assert_eq!(tel.stats().tu_cache_hits, 0);
    assert_eq!(tel.stats().tu_cache_invalidations, 3);
    assert_eq!(invalidation_reasons(&tel), vec!["config_fingerprint"; 3]);
}
