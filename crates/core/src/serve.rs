//! `ddm serve` — the long-running analysis daemon.
//!
//! Speaks line-delimited JSON over a reader/writer pair (the CLI wires
//! up stdin/stdout): one request per line, one response line per
//! request, responses in request order. Requests:
//!
//! | request | effect |
//! |---|---|
//! | `{"cmd":"analyze","files":[...]}` | set the file list, build epoch 1 (synchronous) |
//! | `{"cmd":"notify","changed":[...]}` | rebuild in the background; add `"wait":1` to block until published |
//! | `{"cmd":"report"}` | the analysis report + call-graph line |
//! | `{"cmd":"explain","member":"C::m"}` | the provenance text for one member |
//! | `{"cmd":"stats"}` | the deterministic-counters section of `--stats` |
//! | `{"cmd":"epoch"}` | current epoch id, rebuild status, last build timings |
//! | `{"cmd":"shutdown"}` | acknowledge and exit cleanly (EOF works too) |
//!
//! A request line longer than [`MAX_REQUEST_BYTES`], or one that is not
//! UTF-8 or not a JSON object with a string `cmd`, is answered with a
//! `bad_request` error in sequence, and the daemon keeps serving.
//!
//! Every `report`/`explain`/`stats` response is **byte-identical to a
//! fresh one-shot `ddm` invocation over the same file state** — the
//! queries render through the exact functions the CLI prints through
//! ([`render_report`](crate::EpochSnapshot::render_report),
//! [`render_explain`](crate::EpochSnapshot::render_explain),
//! [`render_counters`](crate::EpochSnapshot::render_counters)), so the
//! oracle holds by
//! construction. Every response carries the epoch id it was answered
//! from; a query that lands during a background rebuild is served from
//! the previous epoch and tagged with that epoch's id.
//!
//! Threading: N reader threads answer queries from the current
//! [`EpochSnapshot`](crate::EpochSnapshot) via the [`EpochCell`] swap
//! cell (the only shared
//! mutable point, locked for a refcount bump only); one builder thread
//! consumes change notifications, re-reads the files, runs the
//! incremental [`ProjectPipeline`] path (snapshot probe → link delta →
//! fixpoint replay or re-solve) with a **fresh telemetry handle per
//! epoch**, and publishes the next epoch atomically. Readers are never
//! blocked by a rebuild. A writer thread reorders responses by request
//! sequence number so concurrent readers cannot interleave output.
//!
//! Each epoch's flight-recorder events are drained to `--log-out`
//! (appended, with an `epoch_published` marker per epoch) when the
//! build finishes, so the bounded event log is a per-epoch bound, not a
//! process-lifetime one, and any overflow ends that epoch's stream with
//! an explicit `log_truncated` record.

use crate::analysis::AnalysisConfig;
use crate::epoch::EpochCell;
use crate::project::ProjectPipeline;
use ddm_callgraph::Algorithm;
use ddm_telemetry::{json, EventClass, Telemetry};
use std::collections::BTreeMap;
use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Configuration for one [`serve`] session (the analysis knobs the CLI
/// would otherwise pass per invocation, fixed for the daemon's life).
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Analysis configuration (§3.2/§3.3 policies, library classes).
    pub config: AnalysisConfig,
    /// Call-graph builder.
    pub algorithm: Algorithm,
    /// Worker count: sizes the analysis pool *and* the query reader
    /// pool.
    pub jobs: usize,
    /// Persistent cache directory; enables the PR-9 incremental path
    /// (per-TU summary cache + `analysis.snap` warm starts).
    pub cache_dir: Option<PathBuf>,
    /// Flight-recorder NDJSON sink, drained once per epoch (appended;
    /// truncated when the session starts).
    pub log_out: Option<PathBuf>,
    /// Event-class filter for `log_out` (`None` = both classes).
    pub log_filter: Option<EventClass>,
}

/// A query answerable from the published snapshot alone.
enum Query {
    Report,
    Explain(String),
    Stats,
}

impl Query {
    fn cmd(&self) -> &'static str {
        match self {
            Query::Report => "report",
            Query::Explain(_) => "explain",
            Query::Stats => "stats",
        }
    }
}

/// One rebuild request for the builder thread. `done` is present for
/// synchronous requests (`analyze`, `notify` with `wait`): the main
/// loop blocks on it so the response carries the new epoch.
struct BuildJob {
    files: Vec<String>,
    done: Option<Sender<Result<u64, String>>>,
}

/// Observational facts about the most recent build, surfaced by the
/// `epoch` query.
#[derive(Debug, Default, Clone)]
struct BuildInfo {
    build_ns: u64,
    snapshot_warm_starts: u64,
    events_dropped: u64,
    error: Option<String>,
}

/// State shared between the main loop, the reader pool, and the
/// builder.
struct Shared {
    cell: EpochCell,
    /// Last published epoch id (0 = nothing published).
    epoch: AtomicU64,
    /// Builds queued or running; `> 0` renders as `"building":true`.
    pending_builds: AtomicU64,
    last_build: Mutex<BuildInfo>,
}

const NO_EPOCH_MSG: &str = "no analysis epoch published yet; send analyze first";

/// The longest request line the daemon buffers (1 MiB, newline
/// excluded). A longer line is answered with `bad_request` and the rest
/// of it is discarded unread into memory, so a hostile line costs the
/// daemon at most this much.
pub const MAX_REQUEST_BYTES: usize = 1 << 20;

/// Reads the next request line, buffering at most [`MAX_REQUEST_BYTES`]
/// of it. `None` at end of input; `Some(Err(message))` for a line that
/// is too long or not UTF-8.
fn read_request(input: &mut impl BufRead) -> std::io::Result<Option<Result<String, String>>> {
    let mut line = Vec::new();
    let mut too_long = false;
    loop {
        let chunk = match input.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            if line.is_empty() && !too_long {
                return Ok(None);
            }
            break;
        }
        let newline = chunk.iter().position(|&b| b == b'\n');
        let part = &chunk[..newline.unwrap_or(chunk.len())];
        too_long |= line.len() + part.len() > MAX_REQUEST_BYTES;
        if too_long {
            line = Vec::new();
        } else {
            line.extend_from_slice(part);
        }
        let used = newline.map_or(chunk.len(), |i| i + 1);
        input.consume(used);
        if newline.is_some() {
            break;
        }
    }
    Ok(Some(if too_long {
        Err(format!("request line longer than {MAX_REQUEST_BYTES} bytes"))
    } else {
        String::from_utf8(line).map_err(|_| "request line is not valid UTF-8".to_string())
    }))
}

fn ok_output(cmd: &str, epoch: u64, output: &str) -> String {
    format!(
        "{{\"ok\":true,\"cmd\":\"{cmd}\",\"epoch\":{epoch},\"output\":\"{}\"}}",
        json::escape(output)
    )
}

fn error_line(cmd: &str, kind: &str, message: &str) -> String {
    format!(
        "{{\"ok\":false,\"cmd\":\"{cmd}\",\"error\":\"{kind}\",\"message\":\"{}\"}}",
        json::escape(message)
    )
}

/// Answers one query against the currently published epoch.
fn answer_query(shared: &Shared, query: &Query) -> String {
    let Some(snap) = shared.cell.load() else {
        return error_line(query.cmd(), "no_epoch", NO_EPOCH_MSG);
    };
    let epoch = snap.epoch();
    match query {
        Query::Report => ok_output("report", epoch, &snap.render_report(false)),
        Query::Stats => ok_output("stats", epoch, &snap.render_counters()),
        Query::Explain(spec) => match snap.render_explain(spec) {
            Ok(text) => ok_output("explain", epoch, &text),
            Err(e) => format!(
                "{{\"ok\":false,\"cmd\":\"explain\",\"epoch\":{epoch},\"error\":\"{}\",\"message\":\"{}\"}}",
                e.kind(),
                json::escape(e.message())
            ),
        },
    }
}

fn epoch_response(shared: &Shared) -> String {
    let epoch = shared.epoch.load(Ordering::SeqCst);
    let building = shared.pending_builds.load(Ordering::SeqCst) > 0;
    let info = shared.last_build.lock().expect("build info poisoned").clone();
    let mut out = format!(
        "{{\"ok\":true,\"cmd\":\"epoch\",\"epoch\":{epoch},\"building\":{building},\
         \"build_ns\":{},\"snapshot_warm_starts\":{},\"events_dropped\":{}",
        info.build_ns, info.snapshot_warm_starts, info.events_dropped
    );
    if let Some(err) = &info.error {
        out.push_str(&format!(",\"last_error\":\"{}\"", json::escape(err)));
    }
    out.push('}');
    out
}

/// Reads the files, runs one epoch build with a fresh telemetry handle,
/// drains the epoch's events to the log sink, and publishes the result.
fn run_build(opts: &ServeOptions, files: &[String], shared: &Shared) -> Result<u64, String> {
    let mut inputs = Vec::with_capacity(files.len());
    for file in files {
        let source =
            std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
        inputs.push((file.clone(), source));
    }
    let telemetry = Telemetry::configured(opts.log_out.is_some(), false);
    let epoch = shared.epoch.load(Ordering::SeqCst) + 1;
    let started = Instant::now();
    let snap = ProjectPipeline::run_epoch(
        &inputs,
        opts.config.clone(),
        opts.algorithm,
        opts.jobs.max(1),
        opts.cache_dir.as_deref(),
        &telemetry,
        epoch,
    )
    .map_err(|e| e.to_string())?;
    let build_ns = started.elapsed().as_nanos() as u64;
    telemetry.event(EventClass::Observational, "epoch_published", || {
        vec![("epoch", epoch.into()), ("build_ns", build_ns.into())]
    });
    // Drain before reading the stats so any drop count this epoch
    // produced is already folded into `events_dropped`.
    let drained = opts
        .log_out
        .as_ref()
        .map(|_| telemetry.drain_events_ndjson(opts.log_filter));
    let stats = telemetry.stats();
    if let (Some(path), Some(payload)) = (&opts.log_out, drained) {
        let appended = std::fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(path)
            .and_then(|mut f| f.write_all(payload.as_bytes()));
        if let Err(e) = appended {
            eprintln!("error: cannot append to {}: {e}", path.display());
        }
    }
    shared.cell.store(snap);
    shared.epoch.store(epoch, Ordering::SeqCst);
    let mut info = shared.last_build.lock().expect("build info poisoned");
    info.build_ns = build_ns;
    info.snapshot_warm_starts = stats.snapshot_warm_starts;
    info.events_dropped += stats.events_dropped;
    info.error = None;
    Ok(epoch)
}

/// Whether a request's `wait` field asks for a synchronous rebuild
/// (`"wait":1` and `"wait":true` both count).
fn wants_wait(request: &json::Value) -> bool {
    match request.get("wait") {
        Some(v) => v.as_bool() == Some(true) || v.as_int().is_some_and(|i| i != 0),
        None => false,
    }
}

/// Runs the daemon until `shutdown` or EOF on `input`. See the module
/// docs for the protocol.
///
/// # Errors
///
/// Only transport failures (a read error on `input`, every response
/// consumer gone) — protocol-level problems are answered as
/// `{"ok":false,...}` response lines, and build failures leave the
/// previous epoch published.
pub fn serve(
    opts: &ServeOptions,
    mut input: impl BufRead,
    output: impl Write + Send,
) -> Result<(), String> {
    if let Some(path) = &opts.log_out {
        // The session log is append-per-epoch; start it empty.
        std::fs::write(path, "").map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    let shared = Shared {
        cell: EpochCell::new(),
        epoch: AtomicU64::new(0),
        pending_builds: AtomicU64::new(0),
        last_build: Mutex::new(BuildInfo::default()),
    };
    let shared = &shared;

    let (write_tx, write_rx) = channel::<(u64, String)>();
    let (query_tx, query_rx) = channel::<(u64, Query)>();
    let (build_tx, build_rx) = channel::<BuildJob>();
    let query_rx = Arc::new(Mutex::new(query_rx));

    std::thread::scope(|scope| -> Result<(), String> {
        // Writer: reorders responses by sequence number so the output
        // order is the request order no matter which reader finished
        // first.
        scope.spawn(move || {
            let mut output = output;
            let mut next = 0u64;
            let mut pending: BTreeMap<u64, String> = BTreeMap::new();
            while let Ok((seq, line)) = write_rx.recv() {
                pending.insert(seq, line);
                let mut wrote = false;
                while let Some(line) = pending.remove(&next) {
                    let _ = output.write_all(line.as_bytes());
                    let _ = output.write_all(b"\n");
                    next += 1;
                    wrote = true;
                }
                if wrote {
                    let _ = output.flush();
                }
            }
            let _ = output.flush();
        });

        // Reader pool: pull queries off the shared channel, answer from
        // the published snapshot, never touch the builder.
        for _ in 0..opts.jobs.max(1) {
            let query_rx = Arc::clone(&query_rx);
            let write_tx = write_tx.clone();
            scope.spawn(move || loop {
                let job = query_rx.lock().expect("query channel poisoned").recv();
                let Ok((seq, query)) = job else {
                    break;
                };
                if write_tx.send((seq, answer_query(shared, &query))).is_err() {
                    break;
                }
            });
        }

        // Builder: the only thread that runs the pipeline or stores the
        // cell. Processes jobs in order; each success publishes the
        // next epoch. It parses, so it gets the analysis stack.
        ddm_hierarchy::analysis_thread()
            .spawn_scoped(scope, move || {
                while let Ok(job) = build_rx.recv() {
                    let result = run_build(opts, &job.files, shared);
                    if let Err(e) = &result {
                        shared.last_build.lock().expect("build info poisoned").error =
                            Some(e.clone());
                    }
                    shared.pending_builds.fetch_sub(1, Ordering::SeqCst);
                    if let Some(done) = job.done {
                        let _ = done.send(result);
                    }
                }
            })
            .expect("spawn serve builder thread");

        let mut seq = 0u64;
        let mut files: Vec<String> = Vec::new();
        let respond = |seq: u64, line: String| -> Result<(), String> {
            write_tx
                .send((seq, line))
                .map_err(|_| "response writer gone".to_string())
        };
        let build = |files: Vec<String>| -> Result<Result<u64, String>, String> {
            let (done_tx, done_rx) = channel();
            shared.pending_builds.fetch_add(1, Ordering::SeqCst);
            build_tx
                .send(BuildJob {
                    files,
                    done: Some(done_tx),
                })
                .map_err(|_| "builder gone".to_string())?;
            done_rx.recv().map_err(|_| "builder gone".to_string())
        };

        while let Some(line) =
            read_request(&mut input).map_err(|e| format!("request read failed: {e}"))?
        {
            let line = match line {
                Ok(line) => line,
                Err(message) => {
                    respond(seq, error_line("?", "bad_request", &message))?;
                    seq += 1;
                    continue;
                }
            };
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            let this_seq = seq;
            seq += 1;
            let request = match json::parse(trimmed) {
                Ok(v) => v,
                Err(e) => {
                    respond(
                        this_seq,
                        error_line("?", "bad_request", &format!("invalid request JSON: {e}")),
                    )?;
                    continue;
                }
            };
            let Some(cmd) = request.get("cmd").and_then(json::Value::as_str) else {
                respond(
                    this_seq,
                    error_line("?", "bad_request", "request needs a string cmd field"),
                )?;
                continue;
            };
            match cmd {
                "analyze" => {
                    let listed: Option<Vec<String>> =
                        request.get("files").and_then(json::Value::as_arr).map(|arr| {
                            arr.iter()
                                .filter_map(|v| v.as_str().map(str::to_string))
                                .collect()
                        });
                    let new_files = match listed {
                        Some(f) if !f.is_empty() => f,
                        _ => {
                            respond(
                                this_seq,
                                error_line(
                                    "analyze",
                                    "bad_request",
                                    "analyze needs a non-empty files array of strings",
                                ),
                            )?;
                            continue;
                        }
                    };
                    files = new_files;
                    let response = match build(files.clone())? {
                        Ok(epoch) => format!(
                            "{{\"ok\":true,\"cmd\":\"analyze\",\"epoch\":{epoch},\"tus\":{}}}",
                            files.len()
                        ),
                        Err(msg) => error_line("analyze", "analysis", &msg),
                    };
                    respond(this_seq, response)?;
                }
                "notify" => {
                    if shared.epoch.load(Ordering::SeqCst) == 0 {
                        respond(this_seq, error_line("notify", "no_epoch", NO_EPOCH_MSG))?;
                        continue;
                    }
                    let Some(changed) = request.get("changed").and_then(json::Value::as_arr)
                    else {
                        respond(
                            this_seq,
                            error_line("notify", "bad_request", "notify needs a changed array"),
                        )?;
                        continue;
                    };
                    let unknown = changed.iter().find_map(|v| match v.as_str() {
                        Some(name) if files.iter().any(|f| f == name) => None,
                        Some(name) => Some(name.to_string()),
                        None => Some("<non-string entry>".to_string()),
                    });
                    if let Some(name) = unknown {
                        respond(
                            this_seq,
                            error_line(
                                "notify",
                                "bad_request",
                                &format!("changed file '{name}' is not part of the analyzed set"),
                            ),
                        )?;
                        continue;
                    }
                    if wants_wait(&request) {
                        let response = match build(files.clone())? {
                            Ok(epoch) => format!(
                                "{{\"ok\":true,\"cmd\":\"notify\",\"epoch\":{epoch},\"building\":false}}"
                            ),
                            Err(msg) => error_line("notify", "analysis", &msg),
                        };
                        respond(this_seq, response)?;
                    } else {
                        shared.pending_builds.fetch_add(1, Ordering::SeqCst);
                        build_tx
                            .send(BuildJob {
                                files: files.clone(),
                                done: None,
                            })
                            .map_err(|_| "builder gone".to_string())?;
                        let epoch = shared.epoch.load(Ordering::SeqCst);
                        respond(
                            this_seq,
                            format!(
                                "{{\"ok\":true,\"cmd\":\"notify\",\"epoch\":{epoch},\"building\":true}}"
                            ),
                        )?;
                    }
                }
                "report" => {
                    query_tx
                        .send((this_seq, Query::Report))
                        .map_err(|_| "reader pool gone".to_string())?;
                }
                "explain" => {
                    let Some(member) = request.get("member").and_then(json::Value::as_str) else {
                        respond(
                            this_seq,
                            error_line(
                                "explain",
                                "bad_request",
                                "explain needs a member field (\"Class::member\")",
                            ),
                        )?;
                        continue;
                    };
                    query_tx
                        .send((this_seq, Query::Explain(member.to_string())))
                        .map_err(|_| "reader pool gone".to_string())?;
                }
                "stats" => {
                    query_tx
                        .send((this_seq, Query::Stats))
                        .map_err(|_| "reader pool gone".to_string())?;
                }
                "epoch" => {
                    respond(this_seq, epoch_response(shared))?;
                }
                "shutdown" => {
                    let epoch = shared.epoch.load(Ordering::SeqCst);
                    respond(
                        this_seq,
                        format!("{{\"ok\":true,\"cmd\":\"shutdown\",\"epoch\":{epoch}}}"),
                    )?;
                    break;
                }
                other => {
                    respond(
                        this_seq,
                        error_line(other, "bad_request", &format!("unknown cmd '{other}'")),
                    )?;
                }
            }
        }

        // Closing the channels retires the pool, the builder, and then
        // the writer (whose last sender is a reader's clone); the scope
        // joins them all before returning.
        drop(query_tx);
        drop(build_tx);
        drop(write_tx);
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Engine;
    use std::io::Cursor;

    fn temp_project(tag: &str) -> (std::path::PathBuf, Vec<String>) {
        let dir = std::env::temp_dir().join(format!("ddm-serve-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let main = dir.join("main.cpp");
        let lib = dir.join("lib.cpp");
        std::fs::write(
            &main,
            "class Gauge { public: Gauge(int v) : value(v), spare(0) { } \
             int get() { return value; } int value; int spare; };\n\
             int reading();\nint main() { return reading(); }\n",
        )
        .expect("write main");
        std::fs::write(
            &lib,
            "class Gauge { public: Gauge(int v) : value(v), spare(0) { } \
             int get() { return value; } int value; int spare; };\n\
             int reading() { Gauge g(7); return g.get(); }\n",
        )
        .expect("write lib");
        let files = vec![
            main.to_string_lossy().into_owned(),
            lib.to_string_lossy().into_owned(),
        ];
        (dir, files)
    }

    fn default_opts() -> ServeOptions {
        ServeOptions {
            config: AnalysisConfig::default(),
            algorithm: Algorithm::Rta,
            jobs: 2,
            cache_dir: None,
            log_out: None,
            log_filter: None,
        }
    }

    fn drive(opts: &ServeOptions, requests: &[String]) -> Vec<json::Value> {
        drive_bytes(opts, (requests.join("\n") + "\n").into_bytes())
    }

    fn drive_bytes(opts: &ServeOptions, input: Vec<u8>) -> Vec<json::Value> {
        let mut out: Vec<u8> = Vec::new();
        serve(opts, Cursor::new(input), &mut out).expect("serve");
        let text = String::from_utf8(out).expect("utf8");
        text.lines().map(|l| json::parse(l).expect("response json")).collect()
    }

    fn field<'v>(v: &'v json::Value, key: &str) -> &'v json::Value {
        v.get(key).unwrap_or_else(|| panic!("missing {key}"))
    }

    #[test]
    fn protocol_round_trip_matches_the_pipeline_byte_for_byte() {
        let (dir, files) = temp_project("roundtrip");
        let opts = default_opts();
        let file_list = files
            .iter()
            .map(|f| format!("\"{}\"", json::escape(f)))
            .collect::<Vec<_>>()
            .join(",");
        let responses = drive(
            &opts,
            &[
                format!("{{\"cmd\":\"analyze\",\"files\":[{file_list}]}}"),
                "{\"cmd\":\"report\"}".to_string(),
                "{\"cmd\":\"explain\",\"member\":\"Gauge::value\"}".to_string(),
                "{\"cmd\":\"stats\"}".to_string(),
                "{\"cmd\":\"epoch\"}".to_string(),
                "{\"cmd\":\"shutdown\"}".to_string(),
            ],
        );
        assert_eq!(responses.len(), 6);
        for r in &responses {
            assert_eq!(field(r, "ok").as_bool(), Some(true), "{}", r.render());
        }

        // The oracle: a fresh one-shot run over the same files.
        let inputs: Vec<(String, String)> = files
            .iter()
            .map(|f| (f.clone(), std::fs::read_to_string(f).expect("read")))
            .collect();
        let telemetry = Telemetry::enabled();
        let oracle = ProjectPipeline::run(
            &inputs,
            AnalysisConfig::default(),
            Algorithm::Rta,
            2,
            Engine::Summary,
            None,
            &telemetry,
        )
        .expect("oracle run")
        .snapshot();

        assert_eq!(
            field(&responses[1], "output").as_str().expect("report output"),
            oracle.render_report(false)
        );
        assert_eq!(
            field(&responses[2], "output").as_str().expect("explain output"),
            oracle.render_explain("Gauge::value").expect("explain")
        );
        assert_eq!(
            field(&responses[3], "output").as_str().expect("stats output"),
            format!(
                "== deterministic counters ==\n{}",
                telemetry.counters().render_table()
            )
        );
        for r in &responses[1..4] {
            assert_eq!(field(r, "epoch").as_int(), Some(1));
        }
        assert_eq!(field(&responses[4], "epoch").as_int(), Some(1));
        assert_eq!(field(&responses[4], "building").as_bool(), Some(false));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_deeply_nested_request_line_is_a_bad_request_not_a_crash() {
        let responses = drive(
            &default_opts(),
            &["[".repeat(100_000), "{\"cmd\":\"shutdown\"}".to_string()],
        );
        assert_eq!(responses.len(), 2);
        assert_eq!(field(&responses[0], "error").as_str(), Some("bad_request"));
        assert!(
            field(&responses[0], "message")
                .as_str()
                .expect("message")
                .contains("nesting deeper than 128"),
            "{}",
            responses[0].render()
        );
        assert_eq!(field(&responses[1], "ok").as_bool(), Some(true));
        assert_eq!(field(&responses[1], "cmd").as_str(), Some("shutdown"));
    }

    /// `responses` answer a bad line, then `epoch`, then `shutdown`.
    fn assert_bad_line_then_served(responses: &[json::Value], message: &str) {
        assert_eq!(responses.len(), 3);
        assert_eq!(field(&responses[0], "error").as_str(), Some("bad_request"));
        assert_eq!(field(&responses[0], "message").as_str(), Some(message));
        assert_eq!(field(&responses[1], "cmd").as_str(), Some("epoch"));
        assert_eq!(field(&responses[2], "ok").as_bool(), Some(true));
        assert_eq!(field(&responses[2], "cmd").as_str(), Some("shutdown"));
    }

    #[test]
    fn an_over_long_request_line_is_a_bad_request_and_serving_continues() {
        let mut input = vec![b'['; MAX_REQUEST_BYTES + 1];
        input.extend_from_slice(b"\n{\"cmd\":\"epoch\"}\n{\"cmd\":\"shutdown\"}\n");
        let message = format!("request line longer than {MAX_REQUEST_BYTES} bytes");
        assert_bad_line_then_served(&drive_bytes(&default_opts(), input), &message);
        // A line of exactly the cap is read whole.
        let mut at_cap = b"{\"cmd\":\"epoch\"}".to_vec();
        at_cap.resize(MAX_REQUEST_BYTES, b' ');
        at_cap.extend_from_slice(b"\n{\"cmd\":\"shutdown\"}\n");
        let responses = drive_bytes(&default_opts(), at_cap);
        assert_eq!(field(&responses[0], "cmd").as_str(), Some("epoch"));
        assert_eq!(field(&responses[1], "cmd").as_str(), Some("shutdown"));
    }

    #[test]
    fn a_non_utf8_request_line_is_a_bad_request_and_serving_continues() {
        let input = b"\xff\n{\"cmd\":\"epoch\"}\n{\"cmd\":\"shutdown\"}\n".to_vec();
        let responses = drive_bytes(&default_opts(), input);
        assert_bad_line_then_served(&responses, "request line is not valid UTF-8");
    }

    #[test]
    fn queries_before_analyze_and_bad_requests_are_typed_errors() {
        let (dir, files) = temp_project("errors");
        let opts = default_opts();
        let file_list = files
            .iter()
            .map(|f| format!("\"{}\"", json::escape(f)))
            .collect::<Vec<_>>()
            .join(",");
        let responses = drive(
            &opts,
            &[
                "{\"cmd\":\"report\"}".to_string(),
                "not json".to_string(),
                "{\"cmd\":\"frobnicate\"}".to_string(),
                "{\"cmd\":\"notify\",\"changed\":[]}".to_string(),
                format!("{{\"cmd\":\"analyze\",\"files\":[{file_list}]}}"),
                "{\"cmd\":\"explain\",\"member\":\"plain\"}".to_string(),
                "{\"cmd\":\"explain\",\"member\":\"Gauge::nope\"}".to_string(),
                format!(
                    "{{\"cmd\":\"notify\",\"changed\":[\"unrelated.cpp\"],\"wait\":1}}"
                ),
                "{\"cmd\":\"shutdown\"}".to_string(),
            ],
        );
        assert_eq!(responses.len(), 9);
        let error_of = |i: usize| field(&responses[i], "error").as_str().expect("error kind");
        assert_eq!(error_of(0), "no_epoch");
        assert_eq!(error_of(1), "bad_request");
        assert_eq!(error_of(2), "bad_request");
        assert_eq!(error_of(3), "no_epoch", "notify before analyze");
        assert_eq!(field(&responses[4], "ok").as_bool(), Some(true));
        assert_eq!(error_of(5), "bad_request", "malformed explain spec");
        assert!(
            field(&responses[5], "message")
                .as_str()
                .expect("message")
                .contains("expected Class::member")
        );
        assert_eq!(error_of(6), "not_found", "unknown member");
        assert!(
            field(&responses[6], "message")
                .as_str()
                .expect("message")
                .contains("no data member")
        );
        assert_eq!(error_of(7), "bad_request", "unknown changed file");
        assert_eq!(field(&responses[8], "ok").as_bool(), Some(true));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn notify_wait_republishes_and_bumps_the_epoch() {
        let (dir, files) = temp_project("notify");
        let cache = dir.join("cache");
        let mut opts = default_opts();
        opts.cache_dir = Some(cache);
        let file_list = files
            .iter()
            .map(|f| format!("\"{}\"", json::escape(f)))
            .collect::<Vec<_>>()
            .join(",");
        // The file edit has to happen between requests; with a static
        // request script the second build sees the same bytes, which is
        // still a legitimate epoch bump (same content, new epoch id).
        let responses = drive(
            &opts,
            &[
                format!("{{\"cmd\":\"analyze\",\"files\":[{file_list}]}}"),
                format!(
                    "{{\"cmd\":\"notify\",\"changed\":[\"{}\"],\"wait\":1}}",
                    json::escape(&files[0])
                ),
                "{\"cmd\":\"report\"}".to_string(),
                "{\"cmd\":\"epoch\"}".to_string(),
            ],
        );
        assert_eq!(responses.len(), 4, "EOF shuts down cleanly without a shutdown cmd");
        assert_eq!(field(&responses[0], "epoch").as_int(), Some(1));
        assert_eq!(field(&responses[1], "epoch").as_int(), Some(2));
        assert_eq!(field(&responses[1], "building").as_bool(), Some(false));
        assert_eq!(field(&responses[2], "epoch").as_int(), Some(2));
        assert_eq!(
            field(&responses[3], "snapshot_warm_starts").as_int(),
            Some(1),
            "the rebuild must warm-start from the analysis snapshot"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
