//! In-memory span recorder for the traced run.
//!
//! A span is recorded around each call the benchmark makes into a layer:
//! name, start, end, the span that caused it and the request it belongs
//! to. Spans stay in memory until the run ends and are then written out
//! as JSON lines; per-layer metrics are derived from them.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id within the run.
    pub id: u32,
    /// The enclosing span, if any.
    pub parent: Option<u32>,
    /// The request (job) the span belongs to.
    pub request: u32,
    /// Layer call name, `<layer>.<call>`.
    pub name: &'static str,
    /// Start, relative to the recorder's creation.
    pub start: Duration,
    /// End, relative to the recorder's creation.
    pub end: Duration,
}

impl Span {
    /// Wall time of the span in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// Collects spans and per-request counts from any thread.
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
    counts: Mutex<BTreeMap<&'static str, Vec<f64>>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
            counts: Mutex::new(BTreeMap::new()),
        }
    }
}

/// A span that has started and not yet ended. Child spans are opened
/// through it; closing it records it.
pub struct Open<'r> {
    rec: &'r Recorder,
    id: u32,
    parent: Option<u32>,
    request: u32,
    name: &'static str,
    start: Duration,
}

impl Recorder {
    /// Opens a span.
    pub fn open(&self, name: &'static str, request: u32, parent: Option<u32>) -> Open<'_> {
        Open {
            rec: self,
            // Relaxed: the id is a unique label and publishes no data.
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            request,
            name,
            start: self.epoch.elapsed(),
        }
    }

    /// Records one sample of a per-request count (work done, outcomes).
    pub fn count(&self, name: &'static str, value: f64) {
        self.counts
            .lock()
            .expect("no thread panics while holding the counts lock")
            .entry(name)
            .or_default()
            .push(value);
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("no thread panics while holding the spans lock")
            .clone()
    }

    /// All samples of one count.
    pub fn counts(&self, name: &str) -> Vec<f64> {
        self.counts
            .lock()
            .expect("no thread panics while holding the counts lock")
            .get(name)
            .cloned()
            .unwrap_or_default()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                r#"{{"id":{},"parent":{},"request":{},"name":"{}","start_ns":{},"end_ns":{}}}"#,
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.request,
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos()
            )?;
        }
        out.flush()
    }
}

impl<'r> Open<'r> {
    /// Runs `f` inside a child span named `name`.
    pub fn child<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let span = self.rec.open(name, self.request, Some(self.id));
        let r = f();
        span.close();
        r
    }

    /// Opens a child span the caller closes.
    pub fn start_child(&self, name: &'static str) -> Open<'r> {
        self.rec.open(name, self.request, Some(self.id))
    }

    /// Ends the span, records it and returns its duration.
    pub fn close(self) -> Duration {
        let end = self.rec.epoch.elapsed();
        self.rec
            .spans
            .lock()
            .expect("no thread panics while holding the spans lock")
            .push(Span {
                id: self.id,
                parent: self.parent,
                request: self.request,
                name: self.name,
                start: self.start,
                end,
            });
        end - self.start
    }
}

/// Durations in milliseconds of every span named `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::ms)
        .collect()
}

/// Per request, the milliseconds covered by spans whose name starts with
/// `prefix` and whose parent is a root span, keyed by request id. Spans
/// that overlap (layer calls on parallel workers) count once.
pub fn layer_ms_by_request(spans: &[Span], prefix: &str) -> BTreeMap<u32, f64> {
    let roots: std::collections::HashSet<u32> = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.id)
        .collect();
    let mut intervals: BTreeMap<u32, Vec<(Duration, Duration)>> = BTreeMap::new();
    for s in spans {
        if s.name.starts_with(prefix) && s.parent.is_some_and(|p| roots.contains(&p)) {
            intervals
                .entry(s.request)
                .or_default()
                .push((s.start, s.end));
        }
    }
    intervals
        .into_iter()
        .map(|(req, mut iv)| {
            iv.sort();
            let mut covered = Duration::ZERO;
            let mut reach = Duration::ZERO;
            for (start, end) in iv {
                let from = start.max(reach);
                if end > from {
                    covered += end - from;
                }
                reach = reach.max(end);
            }
            (req, covered.as_secs_f64() * 1e3)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_link_to_their_parent_and_request() {
        let rec = Recorder::default();
        let root = rec.open("job", 7, None);
        let x = root.child("layer.a", || 41 + 1);
        root.child("layer.b", || ());
        root.close();
        assert_eq!(x, 42);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        let root = spans.iter().find(|s| s.name == "job").unwrap();
        for s in spans.iter().filter(|s| s.name.starts_with("layer.")) {
            assert_eq!(s.parent, Some(root.id));
            assert_eq!(s.request, 7);
            assert!(s.start >= root.start && s.end <= root.end);
        }
        assert_eq!(layer_ms_by_request(&spans, "layer.").len(), 1);
        // Overlapping children count once.
        let at = |ms: u64| Duration::from_millis(ms);
        let span = |id, parent, start, end| Span {
            id,
            parent,
            request: 1,
            name: "layer.x",
            start: at(start),
            end: at(end),
        };
        let overlapping = vec![
            Span {
                name: "job",
                ..span(0, None, 0, 100)
            },
            span(1, Some(0), 10, 50),
            span(2, Some(0), 30, 60),
            span(3, Some(0), 70, 80),
        ];
        assert_eq!(layer_ms_by_request(&overlapping, "layer.")[&1], 60.0);
        rec.count("n", 2.0);
        rec.count("n", 4.0);
        assert_eq!(rec.counts("n"), vec![2.0, 4.0]);
    }
}
