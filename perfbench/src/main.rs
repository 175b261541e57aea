//! The repository benchmark: four seeded workloads that drive the
//! shipped `ddm` binary and the public entry points the paper-table
//! drivers call, check every output against a reference the timed run
//! did not produce, and print each metric by name and unit. The last
//! stdout line is the result object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! ddm-perfbench --workload <scale_oneshot|paper_suite|project_serve|project_oneshot>
//!     --seed <n> --seconds <s> --trace <0|1> --ddm <path> --out <dir>
//!     [--size <full|tiny>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` runs the
//! per-layer pass and reports the per-layer metrics. `perfbench/run.py`
//! builds both binaries and fills in `--ddm` and `--out`. README.md in
//! this directory lists why each workload exists, which two of them
//! BENCHMARK.json gates and why, and which layer metric should move which
//! end-to-end metric.

mod inputs;
mod layers;
mod proc;
mod stats;
mod trace;
mod workloads;

use inputs::Size;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ScaleOneshot,
    PaperSuite,
    ProjectServe,
    ProjectOneshot,
}

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::ScaleOneshot => "scale_oneshot",
            Workload::PaperSuite => "paper_suite",
            Workload::ProjectServe => "project_serve",
            Workload::ProjectOneshot => "project_oneshot",
        }
    }
}

/// Checked command-line arguments.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub ddm: PathBuf,
    /// Where run artifacts (scratch inputs, traces, result stamps) go.
    pub out: PathBuf,
    pub size: Size,
}

const USAGE: &str =
    "usage: ddm-perfbench --workload <scale_oneshot|paper_suite|project_serve|project_oneshot> \
--seed <n> --seconds <s> --trace <0|1> --ddm <path> --out <dir> [--size <full|tiny>]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut ddm = None;
    let mut out = None;
    let mut size = Size::Full;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "scale_oneshot" => Workload::ScaleOneshot,
                    "paper_suite" => Workload::PaperSuite,
                    "project_serve" => Workload::ProjectServe,
                    "project_oneshot" => Workload::ProjectOneshot,
                    _ => return Err(format!("unknown workload `{value}`")),
                })
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds needs a number")?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--ddm" => ddm = Some(PathBuf::from(value)),
            "--out" => out = Some(PathBuf::from(value)),
            "--size" => {
                size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err("--size takes full or tiny".into()),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let missing = |name: &str| format!("{name} is required");
    Ok(Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
        ddm: ddm.ok_or_else(|| missing("--ddm"))?,
        out: out.ok_or_else(|| missing("--out"))?,
        size,
    })
}

/// A reported figure: name, unit, value.
pub type Figure = (String, &'static str, f64);

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The metrics the result object carries.
    pub metrics: Vec<Figure>,
    /// Further figures printed by name (the names of the
    /// workload's operations, tails, derived figures), not part of the
    /// result object.
    pub notes: Vec<Figure>,
    /// Raw timing samples in the order taken, by name, for the result
    /// file only.
    pub samples: Vec<(String, Vec<f64>)>,
}

impl Outcome {
    /// Counts one checked operation; a failure is reported on stderr.
    pub fn check<T>(&mut self, what: &str, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                if self.failed <= 20 {
                    eprintln!("FAIL {what}: {e}");
                }
                None
            }
        }
    }

    pub fn metric(&mut self, name: &str, unit: &'static str, value: f64) {
        self.metrics.push((name.to_string(), unit, value));
    }

    pub fn note(&mut self, name: &str, unit: &'static str, value: f64) {
        self.notes.push((name.to_string(), unit, value));
    }

    pub fn samples(&mut self, name: &str, values: &[f64]) {
        self.samples.push((name.to_string(), values.to_vec()));
    }
}

/// The provenance stamp every result carries: host CPUs, the `--jobs`
/// the run used, rustc, and the commit when the checkout knows it.
fn provenance(jobs: usize) -> String {
    // Git must not look above the checkout for a repository.
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(|p| p.as_os_str().to_owned()))
        .unwrap_or_default();
    let tool = |cmd: &str, args: &[&str]| {
        std::process::Command::new(cmd)
            .args(args)
            .env("GIT_CEILING_DIRECTORIES", &ceiling)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    format!(
        "{{\"host\": {}, \"jobs\": {jobs}, \"rustc\": \"{}\", \"commit\": \"{}\"}}",
        ddm_bench::host_meta_json(),
        tool("rustc", &["--version"]),
        tool("git", &["rev-parse", "HEAD"])
    )
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if !args.ddm.is_file() {
        eprintln!("error: no ddm binary at {}", args.ddm.display());
        return ExitCode::from(2);
    }
    let jobs = ddm_bench::host_cpus();
    let stamp = provenance(jobs);
    let outcome = match workloads::run(&args, jobs) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mode = if args.trace {
        "per-layer (traced)"
    } else {
        "end-to-end"
    };
    println!(
        "# {} seed {} — {mode}, size {:?}",
        args.workload.name(),
        args.seed,
        args.size
    );
    println!("# provenance {stamp}");
    for (name, unit, value) in outcome.metrics.iter().chain(&outcome.notes) {
        println!("{name:<36} {value:>16.4} {unit}");
    }
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    let mut metrics = String::new();
    for (i, (name, unit, value)) in outcome.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        );
    }
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.attempted.max(1),
        outcome.failed
    );
    let record = args.out.join(format!(
        "result-{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    let notes: Vec<String> = outcome
        .notes
        .iter()
        .map(|(n, u, v)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_number(*v)
            )
        })
        .collect();
    let samples: Vec<String> = outcome
        .samples
        .iter()
        .map(|(n, v)| {
            let v: Vec<String> = v.iter().map(|x| json_number(*x)).collect();
            format!("\"{n}\": [{}]", v.join(", "))
        })
        .collect();
    let full = format!(
        "{{\"provenance\": {stamp}, \"result\": {result}, \"notes\": {{{}}}, \"samples\": {{{}}}}}\n",
        notes.join(", "),
        samples.join(", ")
    );
    if let Err(e) = std::fs::write(&record, full) {
        eprintln!("warning: cannot write {}: {e}", record.display());
    }
    println!("{result}");
    ExitCode::SUCCESS
}
