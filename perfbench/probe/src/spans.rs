//! In-memory span recorder. Spans are kept in a `Vec` while the probe runs
//! and serialized once at the end, so recording costs two clock reads and a
//! push per span.

use hotnoc_scenario::json::Json;
use std::time::Instant;

/// One timed interval: a call into a layer, or a replay of an inner call.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u64,
}

/// Span storage; times are nanoseconds since the recorder was created.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans::with_origin(Instant::now())
    }

    /// A recorder sharing `origin` with others, e.g. one per thread.
    pub fn with_origin(origin: Instant) -> Spans {
        Spans {
            origin,
            spans: Vec::new(),
        }
    }

    /// Moves `other`'s spans (recorded against the same origin) into `self`.
    pub fn append(&mut self, other: Spans) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under `parent` for workload operation `op`; returns its id.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, op: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, op);
        let out = f();
        self.close(id);
        out
    }

    /// Elapsed time since creation: the traced wall time.
    pub fn elapsed_ns(&self) -> u64 {
        self.now_ns()
    }

    pub fn to_json(&self) -> Json {
        Json::Array(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::object(vec![
                        ("id", Json::int(id as u64)),
                        ("name", Json::str(s.name)),
                        ("start_ns", Json::int(s.start_ns)),
                        ("end_ns", Json::int(s.end_ns)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::int(p as u64)),
                        ),
                        ("op", Json::int(s.op)),
                    ])
                })
                .collect(),
        )
    }
}
