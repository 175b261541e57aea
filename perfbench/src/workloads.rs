//! The four workloads, end to end (`--trace 0`) and layer by layer
//! (`--trace 1`). All inputs come from this one client process, which
//! runs at most `nproc` analysis threads in a closed loop: one operation
//! outstanding. A serve set-up's fresh daemon runs beside the idle main
//! one.

use crate::inputs::{self, Edit, Project, LEDGER};
use crate::layers::{self, Counts, EditScript, Prog, ProgOut, StampEdits};
use crate::proc::{run_ddm, Daemon, Run};
use crate::stats::{fastest, median, tail};
use crate::trace::Tracer;
use crate::{Args, Outcome, Workload};
use ddm_benchmarks::rng::Rng;
use ddm_hierarchy::fnv1a64;
use ddm_telemetry::json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Cold set-ups per `project_serve` run, spread evenly over it;
/// `setup_s` is their median.
const SERVE_SETUPS: usize = 16;
/// Warm-cache `--explain` runs per `scale_oneshot` round.
const SCALE_QUERIES: usize = 3;
/// Static analyses of each paper program per pass.
const STATIC_REPS: usize = 5;
/// Edit-script steps the traced project pass replays in-process.
const REPLAY_STEPS: usize = 2 * inputs::ALL_EVERY;

pub fn run(args: &Args, jobs: usize) -> Result<Outcome, String> {
    let work = args.out.join(format!(
        "work-{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let result = match (args.workload, args.trace) {
        (Workload::ScaleOneshot, false) => scale_oneshot(args, jobs, &work),
        (Workload::PaperSuite, false) => paper_suite(args, &work),
        (Workload::ProjectServe, false) => project_serve(args, jobs, &work),
        (Workload::ProjectOneshot, false) => project_oneshot(args, jobs, &work),
        (_, true) => traced(args, jobs, &work),
    };
    let _ = std::fs::remove_dir_all(&work);
    result
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn med(samples: &[f64]) -> f64 {
    median(samples).unwrap_or(f64::NAN)
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

fn path_arg(path: &Path) -> String {
    path.to_string_lossy().into_owned()
}

/// Adds `<name>_tail_ms` (and its percentile and sample count) to the
/// notes when the samples allow one.
fn note_tail(out: &mut Outcome, name: &str, samples: &[f64]) {
    out.note(&format!("{name}_samples"), "count", samples.len() as f64);
    if let Some((pct, value)) = tail(samples) {
        out.note(&format!("{name}_tail_ms"), "ms", value);
        out.note(&format!("{name}_tail_percentile"), "%", pct);
    }
}

fn note_fail_ratio(out: &mut Outcome) {
    let ratio = out.failed as f64 / (out.attempted as f64).max(1.0);
    out.note("op_fail_ratio", "ratio", ratio);
}

// ------------------------------------------------------- scale_oneshot

fn scale_oneshot(args: &Args, jobs: usize, work: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let file = work.join("scale.cpp");
    let (gen_seed, source, member) = inputs::scale_input(args.size, args.seed);
    write(&file, &source)?;
    let pin = inputs::scale_pin(args.size, gen_seed);
    let file = path_arg(&file);
    let report = |jobs: usize| vec![file.clone(), "--jobs".into(), jobs.to_string()];
    // Set-up: a cold one-shot into an empty cache dir, which analyzes the
    // TU and writes its summary module and the analysis snapshot. The
    // query then asks about one member with that cache warm.
    let cache = work.join("cache");
    let cache_args = ["--cache-dir".to_string(), path_arg(&cache)];
    let mut cold = report(1);
    cold.extend(cache_args.clone());
    let mut explain = vec![file.clone(), "--explain".into(), member.clone()];
    explain.extend(cache_args);
    let check_report = |run: Run| -> Result<Run, String> {
        let digest = fnv1a64(run.stdout.as_bytes());
        if digest != pin.report_fnv {
            return Err(format!(
                "report digest {digest:016x}, pinned {:016x}",
                pin.report_fnv
            ));
        }
        match inputs::report_counts(&run.stdout) {
            Some((dead, members)) if dead == pin.dead && members == pin.members => Ok(run),
            other => Err(format!(
                "report counts {other:?}, pinned ({}, {})",
                pin.dead, pin.members
            )),
        }
    };

    let mut setups = Vec::new();
    let (mut seq, mut par, mut query) = (Vec::new(), Vec::new(), Vec::new());
    let mut rss_kib = 0u64;
    let deadline = Instant::now() + args.seconds;
    loop {
        let _ = std::fs::remove_dir_all(&cache);
        let run = run_ddm(&args.ddm, &cold).and_then(check_report);
        if let Some(run) = out.check("ddm --cache-dir <empty>", run) {
            setups.push(run.wall.as_secs_f64());
            rss_kib = rss_kib.max(run.rss_kib);
        }
        let run = run_ddm(&args.ddm, &report(1)).and_then(check_report);
        if let Some(run) = out.check("ddm --jobs 1", run) {
            seq.push(ms(run.wall));
            rss_kib = rss_kib.max(run.rss_kib);
        }
        if jobs > 1 {
            let run = run_ddm(&args.ddm, &report(jobs)).and_then(check_report);
            if let Some(run) = out.check(&format!("ddm --jobs {jobs}"), run) {
                par.push(ms(run.wall));
                rss_kib = rss_kib.max(run.rss_kib);
            }
        }
        for _ in 0..SCALE_QUERIES {
            let run = run_ddm(&args.ddm, &explain).and_then(|run| {
                let digest = fnv1a64(run.stdout.as_bytes());
                if digest == pin.explain_fnv {
                    Ok(run)
                } else {
                    Err(format!(
                        "explain {member} digest {digest:016x}, pinned {:016x}",
                        pin.explain_fnv
                    ))
                }
            });
            if let Some(run) = out.check("ddm --explain (warm cache)", run) {
                query.push(ms(run.wall));
                rss_kib = rss_kib.max(run.rss_kib);
            }
        }
        if Instant::now() >= deadline {
            break;
        }
    }

    out.metric("setup_s", "s", med(&setups));
    out.metric("primary_ms", "ms", med(&seq));
    if jobs > 1 {
        out.metric("secondary_ms", "ms", med(&par));
    } else {
        eprintln!("note: secondary_ms (analyze_par_s) is not applicable on a 1-CPU host");
    }
    out.metric("query_ms", "ms", med(&query));
    out.metric("peak_rss_mb", "MB", rss_kib as f64 / 1024.0);
    out.note("analyze_s", "s", med(&seq) / 1e3);
    if jobs > 1 {
        out.note("analyze_par_s", "s", med(&par) / 1e3);
    }
    out.note("explain_warm_s", "s", med(&query) / 1e3);
    out.note("runs_per_kind", "count", seq.len() as f64);
    out.note("scale_generator_seed", "seed", gen_seed as f64);
    out.samples("setup_s", &setups);
    out.samples("analyze_ms", &seq);
    out.samples("analyze_par_ms", &par);
    out.samples("explain_warm_ms", &query);
    note_fail_ratio(&mut out);
    Ok(out)
}

// --------------------------------------------------------- paper_suite

/// Checks one program's Table 1 / Figure 3 counts against the ledger.
fn check_table1(row: &inputs::LedgerRow, report: &ddm_core::Report) -> Result<(), String> {
    let got = (
        report.used_class_count(),
        report.members_in_used_classes(),
        report.dead_members_in_used_classes(),
    );
    if got == (row.used_classes, row.members, row.dead) {
        Ok(())
    } else {
        Err(format!(
            "{}: (used classes, members, dead) = {got:?}, ledger ({}, {}, {})",
            row.name, row.used_classes, row.members, row.dead
        ))
    }
}

/// Checks one program's Table 2 byte counts against the ledger.
fn check_table2(row: &inputs::LedgerRow, p: &ddm_dynamic::HeapProfile) -> Result<(), String> {
    let got = [
        p.object_space,
        p.dead_member_space,
        p.high_water_mark,
        p.high_water_mark_without_dead,
    ];
    let want = [
        row.object_space,
        row.dead_space,
        row.high_water_mark,
        row.high_water_mark_without_dead,
    ];
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{}: Table 2 bytes {got:?}, ledger {want:?}",
            row.name
        ))
    }
}

/// The peak resident set of this process, from `/proc/self/status`.
fn self_peak_rss_kib() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn paper_suite(args: &Args, work: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let suite = ddm_benchmarks::suite();
    if suite.len() != LEDGER.len() || suite.iter().zip(&LEDGER).any(|(b, r)| b.name != r.name) {
        return Err("the suite and the ledger disagree on the programs".into());
    }
    // Set-up: a cold one-shot `ddm` on each program, the CLI's whole path
    // (process start, read, analyze, render) that the in-process passes
    // below skip. Its report counts must match the ledger.
    let mut programs = Vec::with_capacity(suite.len());
    for b in &suite {
        let path = work.join(format!("{}.cpp", b.name));
        write(&path, b.source)?;
        programs.push(path_arg(&path));
    }
    let setup = |out: &mut Outcome| -> f64 {
        let mut total = 0.0;
        for (program, row) in programs.iter().zip(&LEDGER) {
            let run = run_ddm(&args.ddm, std::slice::from_ref(program)).and_then(|run| {
                match inputs::report_counts(&run.stdout) {
                    Some((dead, members)) if (dead, members) == (row.dead, row.members) => Ok(run),
                    other => Err(format!(
                        "{}: one-shot report counts {other:?}, ledger ({}, {})",
                        row.name, row.dead, row.members
                    )),
                }
            });
            if let Some(run) = out.check(&format!("one-shot {}", row.name), run) {
                total += run.wall.as_secs_f64();
            }
        }
        total
    };
    let mut setups = Vec::new();

    let mut rng = Rng::seed_from_u64(args.seed);
    // Per-program samples. A gated pass time is the sum of each program's
    // fastest sample: other tenants' load only ever adds time, and it
    // can hold the host's slow state for most of a run, which moves a
    // median with it (see README, "Host noise").
    let mut statics = vec![Vec::new(); suite.len()];
    let mut dynamics = vec![Vec::new(); suite.len()];
    // Per-program explain batches (every member once), and every single
    // explain for the median and tail notes.
    let mut batches = vec![Vec::new(); suite.len()];
    let mut queries = Vec::new();
    let mut explained = 0usize;
    let mut passes = 0usize;
    let deadline = Instant::now() + args.seconds;
    loop {
        passes += 1;
        setups.push(setup(&mut out));
        // Static pass: Table 1 / Figure 3. Each program is analyzed
        // `STATIC_REPS` times, as it costs well under a millisecond.
        let mut runs = Vec::with_capacity(suite.len());
        for ((b, row), samples) in suite.iter().zip(&LEDGER).zip(&mut statics) {
            let mut run = None;
            for _ in 0..STATIC_REPS {
                let start = Instant::now();
                let analyzed = b.analyze();
                samples.push(ms(start.elapsed()));
                run = Some(analyzed.map_err(|e| format!("{}: {e}", row.name)));
            }
            let run = run.expect("at least one static rep");
            runs.push(out.check(&format!("static {}", row.name), run));
        }

        // Dynamic pass: execute and heap-profile, Table 2 / Figure 4.
        let mut profiles = Vec::with_capacity(suite.len());
        for (run, samples) in runs.iter().zip(&mut dynamics) {
            let Some(run) = run else {
                profiles.push(None);
                continue;
            };
            let start = Instant::now();
            let profile = ddm_dynamic::Interpreter::new(run.program())
                .run(&ddm_dynamic::RunConfig::default())
                .map(|exec| ddm_dynamic::profile_trace(run.program(), &exec.trace, run.liveness()));
            samples.push(ms(start.elapsed()));
            profiles.push(Some(profile));
        }

        for (((run, profile), row), batch) in
            runs.iter().zip(profiles).zip(&LEDGER).zip(&mut batches)
        {
            let (Some(run), Some(profile)) = (run, profile) else {
                continue;
            };
            let checked = profile
                .map_err(|e| format!("{}: {e}", row.name))
                .and_then(|p| check_table1(row, &run.report()).and(check_table2(row, &p)));
            out.check(&format!("ledger {}", row.name), checked);

            // An `--explain` query on every member, in seed-shuffled
            // order; each verdict must match the (ledger-checked) report.
            let mut members = inputs::report_members(&run.report().to_string());
            for i in (1..members.len()).rev() {
                members.swap(i, rng.gen_range(0..i + 1));
            }
            if passes == 1 {
                explained += members.len();
            }
            let mut batch_ms = 0.0;
            for (spec, dead) in &members {
                let start = Instant::now();
                let text = ddm_core::explain(run.program(), run.callgraph(), run.liveness(), spec);
                let took = ms(start.elapsed());
                batch_ms += took;
                queries.push(took);
                let verdict = text
                    .map_err(|e| format!("explain {spec}: {}", e.message()))
                    .and_then(|t| inputs::explain_says_dead(&t, spec))
                    .and_then(|says| {
                        if says == *dead {
                            Ok(())
                        } else {
                            Err(format!("explain {spec} disagrees with the report"))
                        }
                    });
                out.check(&format!("explain {}", row.name), verdict);
            }
            batch.push(batch_ms);
        }
        if Instant::now() >= deadline {
            break;
        }
    }

    let pass_ms = |per_program: &[Vec<f64>], of: fn(&[f64]) -> f64| {
        per_program.iter().map(|s| of(s)).sum::<f64>()
    };
    let fastest_ms = |per_program: &[Vec<f64>]| pass_ms(per_program, fastest);
    let median_ms = |per_program: &[Vec<f64>]| pass_ms(per_program, med);
    let explain_ms = fastest_ms(&batches) / explained.max(1) as f64;
    out.metric("setup_s", "s", med(&setups));
    out.metric("primary_ms", "ms", fastest_ms(&dynamics));
    out.metric("secondary_ms", "ms", fastest_ms(&statics));
    out.metric("query_ms", "ms", explain_ms);
    let rss = out.check("peak rss", self_peak_rss_kib()).unwrap_or(0);
    out.metric("peak_rss_mb", "MB", rss as f64 / 1024.0);
    out.note("dynamic_s", "s", fastest_ms(&dynamics) / 1e3);
    out.note("dynamic_p50_s", "s", median_ms(&dynamics) / 1e3);
    out.note("static_ms", "ms", fastest_ms(&statics));
    out.note("static_p50_ms", "ms", median_ms(&statics));
    out.note("explain_mean_ms", "ms", explain_ms);
    out.note("explain_p50_ms", "ms", med(&queries));
    note_tail(&mut out, "explain", &queries);
    out.note("explained_members", "count", explained as f64);
    out.note("passes", "count", passes as f64);
    out.samples("setup_s", &setups);
    for (i, row) in LEDGER.iter().enumerate() {
        out.samples(&format!("dynamic_ms.{}", row.name), &dynamics[i]);
        out.samples(&format!("static_ms.{}", row.name), &statics[i]);
        out.samples(&format!("explain_batch_ms.{}", row.name), &batches[i]);
    }
    note_fail_ratio(&mut out);
    Ok(out)
}

// ------------------------------------------------------- project_serve

fn parse_response(line: &str) -> Result<json::Value, String> {
    let v = json::parse_lenient(line.trim_end()).map_err(|e| format!("bad response: {e}"))?;
    if v.get("ok").and_then(json::Value::as_bool) == Some(true) {
        Ok(v)
    } else {
        Err(format!("error response: {}", line.trim_end()))
    }
}

fn expect_epoch(line: &str, epoch: i64) -> Result<(), String> {
    let got = parse_response(line)?
        .get("epoch")
        .and_then(json::Value::as_int);
    if got == Some(epoch) {
        Ok(())
    } else {
        Err(format!("epoch {got:?}, expected {epoch}"))
    }
}

fn output_of(line: &str) -> Result<String, String> {
    parse_response(line)?
        .get("output")
        .and_then(json::Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| "response has no output".to_string())
}

fn files_json(files: &[String]) -> String {
    let quoted: Vec<String> = files
        .iter()
        .map(|f| format!("\"{}\"", json::escape(f)))
        .collect();
    format!("[{}]", quoted.join(","))
}

fn check_dead(report: &str, project: &Project) -> Result<(), String> {
    let got = inputs::report_dead_members(report);
    let want = project.expected_dead();
    if got == want {
        Ok(())
    } else {
        Err(format!("dead members {got:?}, expected {want:?}"))
    }
}

/// Writes every TU of `project` into `work` and returns their paths.
fn write_project(project: &Project, work: &Path) -> Result<Vec<PathBuf>, String> {
    std::fs::create_dir_all(work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let paths: Vec<PathBuf> = (0..project.tus())
        .map(|t| work.join(Project::file_name(t)))
        .collect();
    for (t, path) in paths.iter().enumerate() {
        write(path, &project.text(t))?;
    }
    Ok(paths)
}

/// The reference report: a cacheless one-shot `ddm --jobs 1` over
/// `files`, whose dead set must be the one the edit script implies.
fn cacheless_report(ddm: &Path, files: &[String], project: &Project) -> Result<String, String> {
    let mut argv = files.to_vec();
    argv.extend(["--jobs".to_string(), "1".to_string()]);
    let run = run_ddm(ddm, &argv)?;
    check_dead(&run.stdout, project)?;
    Ok(run.stdout)
}

/// Whether the next of `setups` cold set-ups spread evenly over a loop
/// of `seconds` is due, `done` of them having run.
fn setup_due(start: Instant, seconds: Duration, done: usize, setups: usize) -> bool {
    done < setups && start.elapsed() >= seconds * done as u32 / setups as u32
}

/// What one daemon session measured.
#[derive(Default)]
struct Session {
    setups: Vec<f64>,
    edit_one: Vec<f64>,
    edit_all: Vec<f64>,
    reports: Vec<f64>,
    explains_dead: Vec<f64>,
    explains_live: Vec<f64>,
    rss_kib: u64,
}

impl Session {
    /// The query round trip: the sum of the report, dead-explain and
    /// live-explain medians, so a change to any kind moves it.
    fn query_ms(&self) -> f64 {
        med(&self.reports) + med(&self.explains_dead) + med(&self.explains_live)
    }

    fn all_queries(&self) -> Vec<f64> {
        [&self.reports, &self.explains_dead, &self.explains_live]
            .into_iter()
            .flatten()
            .copied()
            .collect()
    }
}

/// Spawns `ddm serve` on `cache` and times its cold `analyze` of
/// `files`, which must publish epoch 1.
fn cold_daemon(
    args: &Args,
    jobs: usize,
    cache: &Path,
    files: &[String],
    out: &mut Outcome,
) -> Result<(Daemon, Option<f64>), String> {
    let mut d = Daemon::spawn(
        &args.ddm,
        &[
            "--cache-dir".into(),
            path_arg(cache),
            "--jobs".into(),
            jobs.to_string(),
        ],
    )?;
    let start = Instant::now();
    let response = d.request(&format!(
        "{{\"cmd\":\"analyze\",\"files\":{}}}",
        files_json(files)
    ));
    let took = start.elapsed().as_secs_f64();
    let ok = out.check("analyze", response.and_then(|r| expect_epoch(&r, 1)));
    Ok((d, ok.map(|()| took)))
}

/// A `ddm serve` session over the generated project: a cold analysis,
/// then the seeded edit script in a closed loop for `seconds` (and until
/// both edit kinds ran), each edit followed by one report, one explain
/// of a dead member and one of a live member. `setups` cold analyses in
/// all, each by a fresh daemon into an empty cache dir, are spread
/// evenly over the loop, so their median sees the same host as the
/// edits do.
fn serve_session(
    args: &Args,
    jobs: usize,
    work: &Path,
    setups: usize,
    seconds: Duration,
    out: &mut Outcome,
) -> Result<Session, String> {
    let mut project = Project::new(args.size, args.seed);
    let paths = write_project(&project, work)?;
    let files: Vec<String> = paths.iter().map(|p| path_arg(p)).collect();
    let first_reference = out.check(
        "one-shot reference",
        cacheless_report(&args.ddm, &files, &project),
    );

    let mut s = Session::default();
    let (mut d, took) = cold_daemon(args, jobs, &work.join("cache"), &files, out)?;
    s.setups.extend(took);
    let report_line = "{\"cmd\":\"report\"}";
    if let Some(reference) = first_reference {
        let same = d
            .request(report_line)
            .and_then(|r| output_of(&r))
            .and_then(|o| {
                if o == reference {
                    Ok(())
                } else {
                    Err("first epoch's report differs from the one-shot run".into())
                }
            });
        out.check("report == one-shot (first epoch)", same);
    }

    let mut epoch = 1i64;
    let start = Instant::now();
    let deadline = start + seconds;
    let mut setups_done = 1;
    loop {
        // The next cold set-up, when its share of the run has passed.
        if setup_due(start, seconds, setups_done, setups) {
            let cache = work.join(format!("cache-setup{setups_done}"));
            let (side, took) = cold_daemon(args, jobs, &cache, &files, out)?;
            s.setups.extend(took);
            out.check("shutdown", side.shutdown().map(|_| ()));
            let _ = std::fs::remove_dir_all(&cache);
            setups_done += 1;
        }

        let (edit, changed) = project.next_edit();
        for &t in &changed {
            write(&paths[t], &project.text(t))?;
        }
        let changed_files: Vec<String> = changed.iter().map(|&t| files[t].clone()).collect();
        let line = format!(
            "{{\"cmd\":\"notify\",\"changed\":{},\"wait\":1}}",
            files_json(&changed_files)
        );
        let start = Instant::now();
        let response = d.request(&line);
        let took = ms(start.elapsed());
        epoch += 1;
        if out
            .check("notify", response.and_then(|r| expect_epoch(&r, epoch)))
            .is_some()
        {
            match edit {
                Edit::One(_) => s.edit_one.push(took),
                Edit::All => s.edit_all.push(took),
            }
        } else {
            // A failed rebuild publishes no epoch; resynchronize.
            epoch -= 1;
        }

        let start = Instant::now();
        let response = d.request(report_line);
        s.reports.push(ms(start.elapsed()));
        let checked = response
            .and_then(|r| output_of(&r))
            .and_then(|o| check_dead(&o, &project));
        out.check("report", checked);
        for dead in [true, false] {
            let member = project.query_member(dead);
            let line = format!("{{\"cmd\":\"explain\",\"member\":\"{member}\"}}");
            let start = Instant::now();
            let response = d.request(&line);
            let took = ms(start.elapsed());
            if dead {
                s.explains_dead.push(took);
            } else {
                s.explains_live.push(took);
            }
            let checked = response
                .and_then(|r| output_of(&r))
                .and_then(|o| inputs::explain_says_dead(&o, &member))
                .and_then(|says| {
                    if says == project.is_dead(&member) {
                        Ok(())
                    } else {
                        Err(format!(
                            "explain {member}: verdict disagrees with the script"
                        ))
                    }
                });
            out.check("explain", checked);
        }
        // Run on past the deadline until both edit kinds have a sample,
        // but never past twice the run length.
        let both_kinds = !s.edit_one.is_empty() && !s.edit_all.is_empty();
        let now = Instant::now();
        if now >= deadline && (both_kinds || now >= deadline + seconds) {
            break;
        }
    }

    // The last epoch's report must match a fresh one-shot run too.
    let last = d.request(report_line).and_then(|r| output_of(&r));
    let same = last.and_then(|o| {
        let reference = cacheless_report(&args.ddm, &files, &project)?;
        if o == reference {
            Ok(())
        } else {
            Err("last epoch's report differs from the one-shot run".into())
        }
    });
    out.check("report == one-shot (last epoch)", same);
    if let Some(rss) = out.check("shutdown", d.shutdown()) {
        s.rss_kib = rss;
    }
    Ok(s)
}

fn project_serve(args: &Args, jobs: usize, work: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let s = serve_session(args, jobs, work, SERVE_SETUPS, args.seconds, &mut out)?;
    out.metric("setup_s", "s", med(&s.setups));
    out.metric("primary_ms", "ms", med(&s.edit_one));
    out.metric("secondary_ms", "ms", med(&s.edit_all));
    out.metric("query_ms", "ms", s.query_ms());
    out.metric("peak_rss_mb", "MB", s.rss_kib as f64 / 1024.0);
    out.note("setup_samples", "count", s.setups.len() as f64);
    out.note("edit_one_p50_ms", "ms", med(&s.edit_one));
    note_tail(&mut out, "edit_one", &s.edit_one);
    out.note("edit_all_p50_ms", "ms", med(&s.edit_all));
    out.note("edit_all_samples", "count", s.edit_all.len() as f64);
    out.note("report_p50_ms", "ms", med(&s.reports));
    out.note("explain_dead_p50_ms", "ms", med(&s.explains_dead));
    out.note("explain_live_p50_ms", "ms", med(&s.explains_live));
    let queries = s.all_queries();
    out.note("query_p50_ms", "ms", med(&queries));
    note_tail(&mut out, "query", &queries);
    out.samples("setup_s", &s.setups);
    out.samples("edit_one_ms", &s.edit_one);
    out.samples("edit_all_ms", &s.edit_all);
    out.samples("report_ms", &s.reports);
    out.samples("explain_dead_ms", &s.explains_dead);
    out.samples("explain_live_ms", &s.explains_live);
    note_fail_ratio(&mut out);
    Ok(out)
}

// ----------------------------------------------------- project_oneshot

/// Cold set-ups per `project_oneshot` run, spread evenly over it;
/// `setup_s` is their median.
const ONESHOT_SETUPS: usize = 16;

/// What one `project_oneshot` run measured.
#[derive(Default)]
struct Oneshots {
    setups: Vec<f64>,
    edit_one: Vec<f64>,
    edit_all: Vec<f64>,
    explains_dead: Vec<f64>,
    explains_live: Vec<f64>,
    rss_kib: u64,
}

/// The project through one-shot `ddm` runs, as a CI job runs it: after
/// each edit of the seeded script, `ddm <every TU> --cache-dir <dir>
/// --jobs nproc` re-analyzes the project against the cache the earlier
/// runs left, then two `--explain` runs (a dead and a live member) read
/// that cache. Cold runs into an empty cache dir are spread evenly over
/// the loop.
fn project_oneshot(args: &Args, jobs: usize, work: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut project = Project::new(args.size, args.seed);
    let paths = write_project(&project, work)?;
    let files: Vec<String> = paths.iter().map(|p| path_arg(p)).collect();
    let argv = |cache: &Path, extra: &[String]| -> Vec<String> {
        let mut a = files.clone();
        a.extend(["--jobs".to_string(), jobs.to_string()]);
        a.extend(["--cache-dir".to_string(), path_arg(cache)]);
        a.extend_from_slice(extra);
        a
    };
    let mut s = Oneshots::default();
    let cache = work.join("cache");
    let first = out.check(
        "one-shot reference",
        cacheless_report(&args.ddm, &files, &project),
    );
    // The first cold run fills the cache the loop then uses.
    let run = run_ddm(&args.ddm, &argv(&cache, &[])).and_then(|run| match &first {
        Some(r) if *r != run.stdout => {
            Err("cold run's report differs from the cacheless one-shot run".into())
        }
        _ => Ok(run),
    });
    if let Some(run) = out.check("cold one-shot", run) {
        s.setups.push(run.wall.as_secs_f64());
        s.rss_kib = s.rss_kib.max(run.rss_kib);
    }

    let start = Instant::now();
    let deadline = start + args.seconds;
    let mut setups_done = 1;
    let mut last = None;
    loop {
        if setup_due(start, args.seconds, setups_done, ONESHOT_SETUPS) {
            let fresh = work.join(format!("cache-setup{setups_done}"));
            let run = run_ddm(&args.ddm, &argv(&fresh, &[]))
                .and_then(|r| check_dead(&r.stdout, &project).map(|()| r));
            if let Some(run) = out.check("cold one-shot", run) {
                s.setups.push(run.wall.as_secs_f64());
                s.rss_kib = s.rss_kib.max(run.rss_kib);
            }
            let _ = std::fs::remove_dir_all(&fresh);
            setups_done += 1;
        }

        let (edit, changed) = project.next_edit();
        for &t in &changed {
            write(&paths[t], &project.text(t))?;
        }
        let run = run_ddm(&args.ddm, &argv(&cache, &[]))
            .and_then(|r| check_dead(&r.stdout, &project).map(|()| r));
        if let Some(run) = out.check("one-shot after an edit", run) {
            match edit {
                Edit::One(_) => s.edit_one.push(ms(run.wall)),
                Edit::All => s.edit_all.push(ms(run.wall)),
            }
            s.rss_kib = s.rss_kib.max(run.rss_kib);
            last = Some(run.stdout);
        }

        for dead in [true, false] {
            let member = project.query_member(dead);
            let run = run_ddm(
                &args.ddm,
                &argv(&cache, &["--explain".to_string(), member.clone()]),
            )
            .and_then(|run| {
                let says = inputs::explain_says_dead(&run.stdout, &member)?;
                if says == project.is_dead(&member) {
                    Ok(run)
                } else {
                    Err(format!(
                        "explain {member}: verdict disagrees with the script"
                    ))
                }
            });
            if let Some(run) = out.check("one-shot --explain", run) {
                if dead {
                    s.explains_dead.push(ms(run.wall));
                } else {
                    s.explains_live.push(ms(run.wall));
                }
                s.rss_kib = s.rss_kib.max(run.rss_kib);
            }
        }
        let both_kinds = !s.edit_one.is_empty() && !s.edit_all.is_empty();
        let now = Instant::now();
        if now >= deadline && (both_kinds || now >= deadline + args.seconds) {
            break;
        }
    }
    // The last cached run's report must match a fresh cacheless run.
    if let Some(last) = last {
        let same = cacheless_report(&args.ddm, &files, &project).and_then(|r| {
            if r == last {
                Ok(())
            } else {
                Err("last cached run's report differs from the cacheless one-shot run".into())
            }
        });
        out.check("report == cacheless one-shot (last edit)", same);
    }

    // Each gated time is the run's fastest sample of its kind: the fresh
    // processes' times follow the host's slow phases, which hold for
    // tens of seconds, and the share of them in a run moves a median by
    // up to a quarter (see README, "Host noise"). Medians are noted.
    let query_ms = fastest(&s.explains_dead) + fastest(&s.explains_live);
    out.metric("setup_s", "s", med(&s.setups));
    out.metric("primary_ms", "ms", fastest(&s.edit_one));
    out.metric("secondary_ms", "ms", fastest(&s.edit_all));
    out.metric("query_ms", "ms", query_ms);
    out.metric("peak_rss_mb", "MB", s.rss_kib as f64 / 1024.0);
    out.note("setup_samples", "count", s.setups.len() as f64);
    out.note("oneshot_one_fastest_ms", "ms", fastest(&s.edit_one));
    out.note("oneshot_one_p50_ms", "ms", med(&s.edit_one));
    note_tail(&mut out, "oneshot_one", &s.edit_one);
    out.note("oneshot_all_fastest_ms", "ms", fastest(&s.edit_all));
    out.note("oneshot_all_p50_ms", "ms", med(&s.edit_all));
    out.note("oneshot_all_samples", "count", s.edit_all.len() as f64);
    out.note("explain_dead_p50_ms", "ms", med(&s.explains_dead));
    out.note("explain_live_p50_ms", "ms", med(&s.explains_live));
    note_fail_ratio(&mut out);
    out.samples("setup_s", &s.setups);
    out.samples("oneshot_one_ms", &s.edit_one);
    out.samples("oneshot_all_ms", &s.edit_all);
    out.samples("explain_dead_ms", &s.explains_dead);
    out.samples("explain_live_ms", &s.explains_live);
    Ok(out)
}

// ------------------------------------------------------------ traced

/// Replays the project's seeded edit script in-process; each epoch's
/// dead set must be the one the script implies.
struct ProjectEdits {
    project: Project,
    left: usize,
}

impl EditScript for ProjectEdits {
    fn step(&mut self) -> Option<(bool, Vec<(String, String)>)> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let (edit, _) = self.project.next_edit();
        Some((matches!(edit, Edit::One(_)), self.project.sources()))
    }

    fn check(&self, report: &str, _before: &str) -> Result<(), String> {
        check_dead(report, &self.project)
    }
}

/// Makes a program's edit script for one pass.
type ScriptFor = Box<dyn Fn(&Prog) -> Box<dyn EditScript>>;
/// Checks the `i`-th program's pass output.
type Oracle = Box<dyn Fn(usize, &ProgOut) -> Result<(), String>>;

/// The workload's programs for the layer pass, with the oracle its
/// outputs are checked against.
struct Traced {
    progs: Vec<Prog>,
    script: ScriptFor,
    oracle: Oracle,
}

fn traced_inputs(args: &Args) -> Result<Traced, String> {
    let stamp: ScriptFor = Box::new(|p: &Prog| Box::new(StampEdits::new(p)) as Box<dyn EditScript>);
    Ok(match args.workload {
        Workload::ScaleOneshot => {
            let (gen_seed, source, member) = inputs::scale_input(args.size, args.seed);
            let pin = inputs::scale_pin(args.size, gen_seed);
            Traced {
                progs: vec![Prog {
                    name: "scale".into(),
                    tus: vec![("scale.cpp".into(), source)],
                    explain: member,
                }],
                script: stamp,
                oracle: Box::new(move |_, o: &ProgOut| {
                    let digest = fnv1a64(o.report.as_bytes());
                    if digest == pin.report_fnv {
                        Ok(())
                    } else {
                        Err(format!(
                            "report digest {digest:016x}, pinned {:016x}",
                            pin.report_fnv
                        ))
                    }
                }),
            }
        }
        Workload::PaperSuite => {
            let mut rng = Rng::seed_from_u64(args.seed);
            let mut progs = Vec::new();
            for b in ddm_benchmarks::suite() {
                let report = b
                    .analyze()
                    .map_err(|e| format!("{}: {e}", b.name))?
                    .report();
                let members = inputs::report_members(&report.to_string());
                let explain = members
                    .get(rng.gen_range(0..members.len().max(1)))
                    .map(|(m, _)| m.clone())
                    .ok_or_else(|| format!("{}: no members", b.name))?;
                progs.push(Prog {
                    name: b.name.into(),
                    tus: vec![(format!("{}.cpp", b.name), b.source.to_string())],
                    explain,
                });
            }
            Traced {
                progs,
                script: stamp,
                oracle: Box::new(|i, o: &ProgOut| {
                    let row = &LEDGER[i];
                    let counts = inputs::report_counts(&o.report);
                    if counts != Some((row.dead, row.members)) {
                        return Err(format!(
                            "{}: report counts {counts:?}, ledger ({}, {})",
                            row.name, row.dead, row.members
                        ));
                    }
                    check_table2(row, &o.profile)
                }),
            }
        }
        Workload::ProjectServe | Workload::ProjectOneshot => {
            let project = Project::new(args.size, args.seed);
            let (size, seed) = (args.size, args.seed);
            Traced {
                progs: vec![Prog {
                    name: "project".into(),
                    tus: project.sources(),
                    explain: "C0::d0".into(),
                }],
                script: Box::new(move |_| {
                    Box::new(ProjectEdits {
                        project: Project::new(size, seed),
                        left: REPLAY_STEPS,
                    }) as Box<dyn EditScript>
                }),
                oracle: Box::new(move |_, o: &ProgOut| check_dead(&o.report, &project)),
            }
        }
    })
}

fn traced(args: &Args, jobs: usize, work: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let inputs = traced_inputs(args)?;
    let cache = work.join("cache");
    let mut tracer = Tracer::new(true);
    let mut rounds: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut unattributed = Vec::new();

    // One pass over every program; `None` if any program failed.
    let pass = |tr: &mut Tracer, counts: &mut Counts, out: &mut Outcome| -> Option<f64> {
        let start = Instant::now();
        let mut ok = true;
        for (i, prog) in inputs.progs.iter().enumerate() {
            let mut script = (inputs.script)(prog);
            let result = layers::program_pass(tr, prog, jobs, &cache, script.as_mut(), counts)
                .and_then(|o| (inputs.oracle)(i, &o));
            ok &= out
                .check(&format!("layer pass {}", prog.name), result)
                .is_some();
        }
        ok.then(|| start.elapsed().as_secs_f64())
    };

    let deadline = Instant::now() + args.seconds;
    loop {
        let untraced = pass(&mut Tracer::new(false), &mut Counts::default(), &mut out);
        let mark = tracer.mark();
        let mut counts = Counts::default();
        let traced = pass(&mut tracer, &mut counts, &mut out);
        if let (Some(untraced), Some(traced)) = (untraced, traced) {
            let self_ms = tracer.self_ms(mark);
            for (name, _, value) in layers::layer_metrics(&self_ms, &counts) {
                rounds.entry(name).or_default().push(value);
            }
            rounds
                .entry("trace.overhead_ratio")
                .or_default()
                .push(traced / untraced);
            let attributed: f64 = layers::COLD_PARTS
                .iter()
                .map(|p| self_ms.get(p).copied().unwrap_or(0.0))
                .sum();
            let cold = self_ms.get("core.project_cold").copied().unwrap_or(0.0);
            unattributed.push(cold - attributed);
        }
        if Instant::now() >= deadline {
            break;
        }
    }

    let names = layers::layer_metrics(&BTreeMap::new(), &Counts::default())
        .into_iter()
        .map(|(name, unit, _)| (name, unit))
        .chain([("trace.overhead_ratio", "ratio")]);
    for (name, unit) in names {
        let value = rounds.get(name).map_or(f64::NAN, |v| med(v));
        out.metric(name, unit, value);
    }
    out.note(
        "core.project_cold_unattributed_ms",
        "ms",
        med(&unattributed),
    );
    out.note(
        "traced_rounds",
        "count",
        rounds.get("trace.overhead_ratio").map_or(0, Vec::len) as f64,
    );

    if args.workload == Workload::ProjectServe {
        // The daemon's own cost per 1-TU edit beyond the pipeline run it
        // triggers (`edit_one_p50_ms − core.project_one_changed_ms`),
        // from a short untraced daemon session.
        let session = serve_session(
            args,
            jobs,
            &work.join("serve"),
            1,
            Duration::from_secs(2),
            &mut out,
        );
        let edit_one = session.map(|s| med(&s.edit_one)).unwrap_or(f64::NAN);
        let in_process = rounds
            .get("core.project_one_changed_ms")
            .map_or(f64::NAN, |v| med(v));
        out.note("edit_one_p50_ms", "ms", edit_one);
        out.note("core.serve_overhead_ms", "ms", edit_one - in_process);
    }
    note_fail_ratio(&mut out);

    let trace_file = args.out.join(format!(
        "trace-{}-seed{}.ndjson",
        args.workload.name(),
        args.seed
    ));
    let run_id = format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    );
    match tracer.write(&trace_file, args.workload.name(), &run_id) {
        Ok(()) => eprintln!("spans written to {}", trace_file.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", trace_file.display()),
    }
    Ok(out)
}
