//! The benchmark's own spans, recorded from its own files around each
//! client op and each per-layer call: name, start, end, parent and op
//! id. They stay in memory and are written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    /// The client op or probe pause the span belongs to.
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn offset_ns(&self, at: Instant) -> u64 {
        crate::stats::ns(at.saturating_duration_since(self.epoch))
    }

    /// Reserve a span id before the span ends, so children can name it
    /// as their parent.
    pub fn open(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub fn close(&self, id: u64, parent: u64, op: u64, name: &'static str, start: Instant) {
        let end = Instant::now();
        let span = SpanRecord {
            id,
            parent,
            op,
            name,
            start_ns: self.offset_ns(start),
            end_ns: self.offset_ns(end),
        };
        self.spans.lock().expect("span buffer poisoned").push(span);
    }

    /// Run `f` inside a leaf span.
    pub fn time<R>(&self, name: &'static str, parent: u64, op: u64, f: impl FnOnce() -> R) -> R {
        let id = self.open();
        let start = Instant::now();
        let out = f();
        self.close(id, parent, op, name, start);
        out
    }

    /// Self time of every span in milliseconds, grouped by span name: a
    /// span's duration minus the part of it its children cover.
    pub fn self_times_ms(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let spans = self.spans.lock().expect("span buffer poisoned");
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for s in spans.iter() {
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            let mut kids = children.get(&s.id).cloned().unwrap_or_default();
            kids.sort_unstable();
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let self_ns = (s.end_ns - s.start_ns).saturating_sub(covered);
            out.entry(s.name).or_default().push(self_ns as f64 / 1e6);
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<usize> {
        let spans = self.spans.lock().expect("span buffer poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()?;
        Ok(spans.len())
    }
}
