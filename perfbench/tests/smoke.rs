//! Tiny-size pass of every workload, untraced and traced: every oracle
//! runs, no operation fails, and the result object carries exactly the
//! metric names BENCHMARK.json lists, each with the unit it lists.

use ddm_telemetry::json::{self, Value};
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root")
        .to_path_buf()
}

/// Builds the `ddm` CLI the way `run.py` does and returns its path.
fn ddm_binary() -> PathBuf {
    let root = repo_root();
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .map(|t| if t.is_absolute() { t } else { root.join(t) })
        .unwrap_or_else(|| root.join("target"));
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "-q", "--bin", "ddm"])
        .env("CARGO_TARGET_DIR", &target)
        .current_dir(&root)
        .status()
        .expect("cargo runs");
    assert!(status.success(), "building ddm failed");
    target.join("release").join("ddm")
}

fn unit_of(metric: &Value) -> String {
    metric
        .get("unit")
        .and_then(Value::as_str)
        .expect("a unit")
        .to_string()
}

/// `(name, unit)` of every metric BENCHMARK.json lists under `key`.
fn listed(bench: &Value, key: &str) -> Vec<(String, String)> {
    bench
        .get(key)
        .and_then(Value::as_arr)
        .expect("BENCHMARK.json lists the metrics")
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str).expect("a name");
            (name.to_string(), unit_of(m))
        })
        .collect()
}

fn single_cpu() -> bool {
    std::thread::available_parallelism().map_or(true, |n| n.get() == 1)
}

#[test]
fn every_workload_passes_its_oracles_at_tiny_size() {
    let root = repo_root();
    let bench = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
    let bench = json::parse_lenient(&bench).expect("BENCHMARK.json parses");
    let ddm = ddm_binary();
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke");
    std::fs::create_dir_all(&out).expect("smoke output dir");

    for workload in [
        "scale_oneshot",
        "paper_suite",
        "project_serve",
        "project_oneshot",
    ] {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let run = Command::new(env!("CARGO_BIN_EXE_ddm-perfbench"))
                .args(["--workload", workload, "--seed", "5", "--seconds", "0.2"])
                .args(["--trace", trace, "--size", "tiny"])
                .arg("--ddm")
                .arg(&ddm)
                .arg("--out")
                .arg(&out)
                .current_dir(&root)
                .output()
                .expect("the benchmark runs");
            let stdout = String::from_utf8_lossy(&run.stdout);
            let stderr = String::from_utf8_lossy(&run.stderr);
            assert!(run.status.success(), "{workload} trace {trace}: {stderr}");
            let last = stdout.lines().last().expect("a result line");
            let result = json::parse_lenient(last).expect("the result line is JSON");
            let field = |k: &str| result.get(k).unwrap_or_else(|| panic!("no `{k}`"));
            assert_eq!(
                field("correct").as_bool(),
                Some(true),
                "{workload}: {stderr}"
            );
            assert_eq!(field("failed").as_int(), Some(0), "{workload}: {stderr}");
            assert!(field("attempted").as_int().unwrap_or(0) >= 1);
            let metrics: Vec<(String, String)> = field("metrics")
                .as_obj()
                .expect("metrics object")
                .iter()
                .map(|(name, m)| {
                    let value = m.get("value").and_then(Value::as_f64);
                    assert!(
                        value.is_some_and(f64::is_finite),
                        "{workload}: {name} = {value:?}"
                    );
                    (name.clone(), unit_of(m))
                })
                .collect();
            let mut expected = listed(&bench, key);
            if workload == "scale_oneshot" && trace == "0" && single_cpu() {
                // `--jobs nproc` is not applicable on one CPU.
                expected.retain(|(n, _)| n != "secondary_ms");
            }
            assert_eq!(metrics, expected, "{workload} trace {trace}");
        }
    }
}
