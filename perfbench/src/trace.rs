//! In-memory span recorder for the traced run. Spans are recorded only
//! in the benchmark's own code, around calls into each crate's public
//! functions, and written out once when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Records nested spans while enabled; a disabled tracer only runs the
/// closures, so the untraced pass pays nothing but a branch.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// The number of spans recorded so far (a mark for [`Self::self_ms`]).
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Self time in milliseconds per span name, over the spans recorded
    /// since `mark`: each span's duration minus the part its child spans
    /// cover (children nest inside their parent and never overlap).
    pub fn self_ms(&self, mark: usize) -> BTreeMap<&'static str, f64> {
        let spans = &self.spans[mark..];
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent.filter(|&p| p >= mark) {
                child_ns[p - mark] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, covered) in spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(covered);
            *out.entry(s.name).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// Writes every span as one NDJSON line: name, workload, run id,
    /// start and end (ns since the run's trace epoch), and the parent's
    /// line index (`null` at the root).
    pub fn write(&self, path: &Path, workload: &str, run_id: &str) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"workload\":\"{workload}\",\"run\":\"{run_id}\",\
                 \"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.span("outer", |t| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let ms = t.self_ms(0);
        let outer_ns = t.spans[0].end_ns - t.spans[0].start_ns;
        assert!(ms["inner"] >= 5.0 && ms["outer"] >= 2.0);
        assert!((ms["outer"] + ms["inner"] - outer_ns as f64 / 1e6).abs() < 1e-6);
        assert_eq!(t.spans[1].parent, Some(0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |_| 7), 7);
        assert_eq!(t.mark(), 0);
    }
}
