//! Robustness: the front end must reject malformed input with an error —
//! never a panic — and the whole stack must be deterministic.

use dead_data_members::dynamic::{Interpreter, RunConfig};
use dead_data_members::prelude::*;

#[test]
fn truncated_sources_never_panic_the_parser() {
    let full = dead_data_members::benchmarks::by_name("richards")
        .unwrap()
        .source;
    // Truncate at many byte positions (snapped to char boundaries); each
    // prefix must either parse or produce a ParseError — no panics.
    let mut parsed = 0;
    let mut rejected = 0;
    for cut in (0..full.len()).step_by(61) {
        let mut end = cut;
        while !full.is_char_boundary(end) {
            end += 1;
        }
        match parse(&full[..end]) {
            Ok(_) => parsed += 1,
            Err(_) => rejected += 1,
        }
    }
    assert!(rejected > 0, "most prefixes are malformed");
    assert!(parsed >= 1, "the empty prefix parses");
}

#[test]
fn mutated_sources_never_panic_the_pipeline() {
    let full = dead_data_members::benchmarks::by_name("taldict")
        .unwrap()
        .source;
    // Delete one line at a time: the result must parse+analyze or fail
    // with a structured error.
    let lines: Vec<&str> = full.lines().collect();
    for skip in (0..lines.len()).step_by(7) {
        let mutated: String = lines
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != skip)
            .map(|(_, l)| format!("{l}\n"))
            .collect();
        let _ = AnalysisPipeline::from_source(&mutated); // must not panic
    }
}

#[test]
fn garbage_bytes_are_rejected_cleanly() {
    for src in [
        "",
        ";;;;",
        "class",
        "class A",
        "class A {",
        "int main() { return",
        "int main() { return 0; } }",
        "\u{0}\u{1}\u{2}",
        "class A : : { };",
        "int main() { 1 ++++ 2; }",
        "union U : public V { };",
    ] {
        let _ = parse(src); // Ok or Err, never a panic
    }
}

#[test]
fn execution_is_deterministic_across_runs() {
    for b in dead_data_members::benchmarks::suite() {
        let run = b.analyze().unwrap();
        let e1 = Interpreter::new(run.program())
            .run(&RunConfig::default())
            .unwrap();
        let e2 = Interpreter::new(run.program())
            .run(&RunConfig::default())
            .unwrap();
        assert_eq!(e1.output, e2.output, "{}", b.name);
        assert_eq!(e1.exit_code, e2.exit_code, "{}", b.name);
        assert_eq!(e1.steps, e2.steps, "{}", b.name);
        assert_eq!(
            e1.trace.events().len(),
            e2.trace.events().len(),
            "{}",
            b.name
        );
    }
}

#[test]
fn analysis_is_deterministic_across_runs() {
    for b in dead_data_members::benchmarks::suite() {
        let r1 = b.analyze().unwrap().report().dead_member_names();
        let r2 = b.analyze().unwrap().report().dead_member_names();
        assert_eq!(r1, r2, "{}", b.name);
    }
}

/// A source nested 3000 parentheses deep (300 in debug builds), plus a
/// trivial second TU: the
/// parser and body walkers recurse once per level, so this only passes
/// if every thread that parses or walks (TU front-end workers, summary
/// extraction shards, the serve builder) runs on the main thread's
/// stack size rather than the 2 MiB spawn default.
#[test]
fn deep_nesting_analyses_on_every_analysis_thread() {
    use dead_data_members::telemetry::json;
    use std::io::Write as _;
    use std::process::{Command, Stdio};

    let dir = std::env::temp_dir().join(format!("ddm-deep-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let deep = dir.join("deep.cpp");
    let other = dir.join("other.cpp");
    // Debug frames are far larger: 300 levels already overflow a 2 MiB
    // stack there, while 500 overflow even the main thread's 8 MiB.
    let n = if cfg!(debug_assertions) { 300 } else { 3000 };
    let nested = format!("{}1{}", "(".repeat(n), ")".repeat(n));
    std::fs::write(&deep, format!("int main() {{ return {nested}; }}\n")).expect("write deep");
    std::fs::write(&other, "int other() { return 2; }\n").expect("write other");
    let files = [deep.to_string_lossy().into_owned(), other.to_string_lossy().into_owned()];

    let ddm = || Command::new(env!("CARGO_BIN_EXE_ddm"));
    let mut two_file_report = None;
    for jobs in ["1", "2"] {
        for count in [1, 2] {
            let out = ddm()
                .args(&files[..count])
                .args(["--jobs", jobs])
                .output()
                .expect("run ddm");
            assert!(out.status.success(), "{count} file(s), --jobs {jobs}: {out:?}");
            if count == 2 {
                let report = String::from_utf8(out.stdout).expect("utf8 report");
                if let Some(first) = &two_file_report {
                    assert_eq!(first, &report, "--jobs {jobs} changed the report");
                }
                two_file_report = Some(report);
            }
        }
    }

    let mut daemon = ddm()
        .arg("serve")
        .args(["--jobs", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn ddm serve");
    let file_list = files
        .iter()
        .map(|f| format!("\"{}\"", json::escape(f)))
        .collect::<Vec<_>>()
        .join(",");
    let requests = format!(
        "{{\"cmd\":\"analyze\",\"files\":[{file_list}]}}\n{{\"cmd\":\"report\"}}\n{{\"cmd\":\"shutdown\"}}\n"
    );
    daemon
        .stdin
        .take()
        .expect("daemon stdin")
        .write_all(requests.as_bytes())
        .expect("send requests");
    let out = daemon.wait_with_output().expect("daemon exits");
    assert!(out.status.success(), "serve: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf8 responses");
    let responses: Vec<json::Value> =
        stdout.lines().map(|l| json::parse(l).expect("response JSON")).collect();
    assert_eq!(responses.len(), 3, "{stdout}");
    assert_eq!(responses[0].get("ok").and_then(json::Value::as_bool), Some(true), "{stdout}");
    assert_eq!(
        responses[1].get("output").and_then(json::Value::as_str),
        two_file_report.as_deref(),
        "serve report differs from the one-shot report"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
