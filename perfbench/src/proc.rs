//! Driving the shipped `ddm` binary: one-shot runs and a `ddm serve`
//! connection, each reaped with `wait4` so the child's own peak RSS
//! (`ru_maxrss`) is read exactly.

use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads child rusage through Linux wait4 on a 64-bit target");

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then 14 longs of
/// which `ru_maxrss` (KiB) is the first.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Waits for `child` and returns its exit code (`Err` for a signal) and
/// peak RSS in KiB. The child must not have been waited for already.
fn reap(child: &Child) -> Result<(i32, u64), String> {
    let pid = i32::try_from(child.id()).map_err(|_| "pid out of range".to_string())?;
    let mut status = 0i32;
    let mut usage = Rusage::default();
    // SAFETY: `pid` is our own unreaped child, and both out-pointers are
    // valid, exclusively borrowed locals of the layout 64-bit Linux uses
    // (`int` status, `struct rusage`), checked by the compile_error gate.
    let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
    if r != pid {
        return Err(format!(
            "wait4({pid}) failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    let rss_kib = u64::try_from(usage.maxrss).unwrap_or(0);
    if status & 0x7f != 0 {
        return Err(format!("killed by signal {}", status & 0x7f));
    }
    Ok(((status >> 8) & 0xff, rss_kib))
}

/// One completed one-shot run.
pub struct Run {
    pub stdout: String,
    /// Spawn to exit, with stdout fully read.
    pub wall: Duration,
    pub rss_kib: u64,
}

/// Runs `ddm <args>` to completion. A nonzero exit or a signal is an
/// error; stderr passes through to ours.
pub fn run_ddm(ddm: &Path, args: &[String]) -> Result<Run, String> {
    let start = Instant::now();
    let mut child = Command::new(ddm)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", ddm.display()))?;
    let mut stdout = String::new();
    let read = child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_string(&mut stdout);
    let (code, rss_kib) = reap(&child)?;
    let wall = start.elapsed();
    read.map_err(|e| format!("read ddm stdout: {e}"))?;
    if code != 0 {
        return Err(format!("ddm {} exited {code}", args.join(" ")));
    }
    Ok(Run {
        stdout,
        wall,
        rss_kib,
    })
}

/// A `ddm serve` child with one request outstanding at a time.
pub struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    reaped: bool,
}

impl Daemon {
    pub fn spawn(ddm: &Path, args: &[String]) -> Result<Daemon, String> {
        let mut child = Command::new(ddm)
            .arg("serve")
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {} serve: {e}", ddm.display()))?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(Daemon {
            child,
            stdin,
            stdout,
            reaped: false,
        })
    }

    /// Sends one request line and returns the response line.
    pub fn request(&mut self, line: &str) -> Result<String, String> {
        let stdin = self.stdin.as_mut().expect("stdin is open until shutdown");
        stdin
            .write_all(line.as_bytes())
            .and_then(|()| stdin.write_all(b"\n"))
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("write to daemon: {e}"))?;
        let mut response = String::new();
        match self.stdout.read_line(&mut response) {
            Ok(0) => Err("daemon closed its output".to_string()),
            Ok(_) => Ok(response),
            Err(e) => Err(format!("read from daemon: {e}")),
        }
    }

    /// Asks the daemon to exit, waits for it, and returns its peak RSS
    /// in KiB.
    pub fn shutdown(mut self) -> Result<u64, String> {
        let ack = self.request("{\"cmd\":\"shutdown\"}");
        drop(self.stdin.take());
        self.reaped = true;
        let (code, rss_kib) = reap(&self.child)?;
        ack?;
        if code != 0 {
            return Err(format!("ddm serve exited {code}"));
        }
        Ok(rss_kib)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if !self.reaped {
            drop(self.stdin.take());
            let _ = self.child.kill();
            let _ = reap(&self.child);
        }
    }
}
