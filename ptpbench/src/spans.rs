//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions, written out once at exit.
//!
//! Hot inner calls (one simulated scenario takes microseconds) are
//! recorded as one aggregate child span per parent: its `count` says how
//! many calls it covers and its duration is their summed time.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span.
pub struct Span {
    /// Span id (1-based; 0 means "no parent").
    pub id: u32,
    /// The span that caused this one.
    pub parent: u32,
    /// Layer boundary, e.g. `shard.run`.
    pub name: &'static str,
    /// Start, relative to the recorder's creation.
    pub start: Duration,
    /// Duration (summed over `count` calls for aggregates).
    pub dur: Duration,
    /// Calls covered.
    pub count: u64,
}

/// The span recorder. Disabled recorders keep nothing.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// A recorder; `enabled = false` is the untraced run.
    pub fn new(enabled: bool) -> Spans {
        Spans { enabled, origin: Instant::now(), spans: Vec::new() }
    }

    /// Times `f` as span `name` under `parent`; returns its result and id.
    pub fn time<T>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> T) -> (T, u32) {
        if !self.enabled {
            return (f(), 0);
        }
        let started = Instant::now();
        let out = f();
        let dur = started.elapsed();
        (out, self.push(name, parent, started, dur, 1))
    }

    /// Opens span `name` under `parent`; [`Spans::close`] sets its end.
    pub fn open(&mut self, name: &'static str, parent: u32) -> u32 {
        if !self.enabled {
            return 0;
        }
        self.push(name, parent, Instant::now(), Duration::ZERO, 1)
    }

    /// Closes span `id` (a no-op for disabled recorders).
    pub fn close(&mut self, id: u32) {
        if let Some(s) = id.checked_sub(1).and_then(|i| self.spans.get_mut(i as usize)) {
            s.dur = (self.origin + s.start).elapsed();
        }
    }

    /// Records an aggregate of `count` calls totalling `dur`, which began
    /// at `started`.
    pub fn aggregate(
        &mut self,
        name: &'static str,
        parent: u32,
        started: Instant,
        dur: Duration,
        count: u64,
    ) {
        if self.enabled {
            self.push(name, parent, started, dur, count);
        }
    }

    fn push(
        &mut self,
        name: &'static str,
        parent: u32,
        started: Instant,
        dur: Duration,
        count: u64,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        let start = started.saturating_duration_since(self.origin);
        self.spans.push(Span { id, parent, name, start, dur, count });
        id
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_us\": {}, \
                 \"dur_us\": {}, \"count\": {}}}",
                s.id,
                s.parent,
                s.name,
                s.start.as_micros(),
                s.dur.as_micros(),
                s.count
            );
        }
        out
    }
}
