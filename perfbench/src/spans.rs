//! In-memory span recording around calls into the crates' public
//! functions. Spans are written out once, when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// The span that caused this one (`None` for a root).
    pub parent: Option<u64>,
    /// Shared by every span of one program (analysis workloads) or one
    /// request (`serve-mix`).
    pub trace: u64,
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Collects spans; ids are assigned in opening order.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder::with_origin(Instant::now())
    }

    /// A recorder whose clock starts at `origin`, so spans of recorders
    /// sharing it line up on one time axis.
    pub fn with_origin(origin: Instant) -> Recorder {
        Recorder { origin, spans: Vec::new() }
    }

    /// Appends another recorder's spans, renumbering their ids.
    pub fn absorb(&mut self, other: Recorder) {
        let offset = self.spans.len() as u64;
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            id: s.id + offset,
            parent: s.parent.map(|p| p + offset),
            ..s
        }));
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, trace: u64, parent: Option<u64>) -> u64 {
        let id = self.spans.len() as u64;
        let start_ns = self.now_ns();
        self.spans.push(Span { id, parent, trace, name, start_ns, end_ns: start_ns });
        id
    }

    /// Closes span `id` and returns its duration in seconds.
    pub fn close(&mut self, id: u64) -> f64 {
        let end = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = end;
        span.secs()
    }

    /// Runs `f` inside a span; returns its result and duration in seconds.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        trace: u64,
        parent: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, trace, parent);
        let out = std::hint::black_box(f());
        (out, self.close(id))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total seconds per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_insert(0.0) += s.secs();
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"trace\": {}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.trace, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorbed_spans_keep_their_parents() {
        let origin = Instant::now();
        let mut a = Recorder::with_origin(origin);
        let root = a.open("root", 0, None);
        let (_, child) = a.time("child", 0, Some(root), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        assert!(a.close(root) >= child && child >= 0.002);
        let mut b = Recorder::with_origin(origin);
        b.time("other", 1, None, || ());
        b.absorb(a);
        let spans = b.spans();
        assert_eq!(spans.iter().map(|s| s.id).collect::<Vec<_>>(), [0, 1, 2]);
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(b.totals().len(), 3);
    }
}
