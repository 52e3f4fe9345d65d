//! Benchmark-side tracing: spans recorded in memory around calls into
//! each crate's public functions, for a 1-in-[`SAMPLE_EVERY`] sample of
//! client operations, and folded into per-layer numbers when the run
//! ends.
//!
//! Where an operation is a sequence of public calls (transaction build,
//! commit, `add_tags`, …) the spans wrap the calls the operation makes
//! anyway. Where the layers nest inside the program (`Hfad::lookup` →
//! `Query::evaluate` → `IndexRegistry::lookup`) the sampled operation is
//! followed by a *ladder*: each level is called again with the same
//! input, and a level's self time is its span minus its child spans. The
//! ladder is extra work; its total is kept so the run can state what
//! tracing cost.

use std::collections::HashMap;
use std::time::Instant;

use crate::stats::median;

/// One sampled operation in this many is traced.
pub const SAMPLE_EVERY: u64 = 16;

/// One timed interval at a layer boundary. Spans of one client operation
/// share `op`; `parent` names the span that caused this one.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A client thread's span buffer.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    /// Distinguishes this client's operation ids from other clients'.
    client: u64,
    seen: u64,
    spans: Vec<Span>,
    /// Time spent in ladder re-executions: work an untraced run skips.
    ladder_ns: u64,
}

/// A tracer that records nothing: what a client holds outside a timed
/// region.
impl Default for Tracer {
    fn default() -> Self {
        Tracer::new(false, Instant::now(), 0)
    }
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant, client: u64) -> Self {
        Tracer {
            enabled,
            origin,
            client,
            seen: 0,
            spans: Vec::new(),
            ladder_ns: 0,
        }
    }

    /// Counts one client operation; returns its id if it is to be traced.
    pub fn sample(&mut self) -> Option<u64> {
        if !self.enabled {
            return None;
        }
        self.seen += 1;
        self.seen
            .is_multiple_of(SAMPLE_EVERY)
            .then_some(self.client << 48 | self.seen)
    }

    /// Runs `f`, recording it as a span when `op` is traced.
    pub fn span<T>(
        &mut self,
        op: Option<u64>,
        name: &'static str,
        parent: Option<&'static str>,
        f: impl FnOnce() -> T,
    ) -> T {
        let Some(op) = op else {
            return f();
        };
        let start = Instant::now();
        let out = f();
        self.record(op, name, parent, start, Instant::now());
        out
    }

    pub fn record(
        &mut self,
        op: u64,
        name: &'static str,
        parent: Option<&'static str>,
        start: Instant,
        end: Instant,
    ) {
        self.spans.push(Span {
            name,
            parent,
            op,
            start_ns: (start - self.origin).as_nanos() as u64,
            end_ns: (end - self.origin).as_nanos() as u64,
        });
    }

    /// Runs a ladder (re-executions of one traced operation) and charges
    /// its wall time to tracing overhead.
    pub fn ladder(&mut self, f: impl FnOnce(&mut Tracer)) {
        let start = Instant::now();
        f(self);
        self.ladder_ns += start.elapsed().as_nanos() as u64;
    }

    pub fn finish(self) -> (Vec<Span>, u64) {
        (self.spans, self.ladder_ns)
    }

    /// Folds the clients' spans into per-layer numbers; also returns
    /// the time their ladders took in all.
    pub fn collect(tracers: impl IntoIterator<Item = Tracer>) -> (Layers, u64) {
        let mut spans = Vec::new();
        let mut ladder_ns = 0;
        for tracer in tracers {
            let (s, l) = tracer.finish();
            spans.extend(s);
            ladder_ns += l;
        }
        (Layers::from_spans(&spans), ladder_ns)
    }
}

/// Span durations and self times by span name, in microseconds.
#[derive(Default)]
pub struct Layers {
    durations: HashMap<&'static str, Vec<f64>>,
    selves: HashMap<&'static str, Vec<f64>>,
}

impl Layers {
    pub fn from_spans(spans: &[Span]) -> Self {
        // Time covered by the children of (operation, span name).
        let mut covered: HashMap<(u64, &'static str), u64> = HashMap::new();
        for span in spans {
            if let Some(parent) = span.parent {
                *covered.entry((span.op, parent)).or_default() += span.end_ns - span.start_ns;
            }
        }
        let mut layers = Layers::default();
        for span in spans {
            let duration = span.end_ns - span.start_ns;
            let children = covered.get(&(span.op, span.name)).copied().unwrap_or(0);
            layers
                .durations
                .entry(span.name)
                .or_default()
                .push(duration as f64 / 1000.0);
            layers
                .selves
                .entry(span.name)
                .or_default()
                .push(duration.saturating_sub(children) as f64 / 1000.0);
        }
        layers
    }

    /// Median duration of the spans named `name`; 0 if there are none.
    pub fn median_us(&self, name: &str) -> f64 {
        self.durations.get(name).map_or(0.0, |v| median(v))
    }

    /// Median self time (duration minus child spans) of the spans named
    /// `name`; 0 if there are none.
    pub fn self_median_us(&self, name: &str) -> f64 {
        self.selves.get(name).map_or(0.0, |v| median(v))
    }

    #[cfg(test)]
    pub fn count(&self, name: &str) -> usize {
        self.durations.get(name).map_or(0, Vec::len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn untraced_runs_record_nothing() {
        let mut tracer = Tracer::new(false, Instant::now(), 0);
        for _ in 0..100 {
            let op = tracer.sample();
            assert!(op.is_none());
            assert_eq!(tracer.span(op, "x", None, || 5), 5);
        }
        let (spans, ladder) = tracer.finish();
        assert!(spans.is_empty());
        assert_eq!(ladder, 0);
    }

    #[test]
    fn one_operation_in_sixteen_is_sampled() {
        let mut tracer = Tracer::new(true, Instant::now(), 3);
        let sampled: Vec<u64> = (0..64).filter_map(|_| tracer.sample()).collect();
        assert_eq!(sampled.len(), 4);
        assert!(sampled.iter().all(|op| op >> 48 == 3));
    }

    #[test]
    fn self_time_is_duration_minus_children_of_the_same_operation() {
        let origin = Instant::now();
        let at = |us: u64| origin + Duration::from_micros(us);
        let mut tracer = Tracer::new(true, origin, 0);
        // Operation 1: parent 100 µs, two children of 30 µs and 20 µs.
        tracer.record(1, "core.lookup", None, at(0), at(100));
        tracer.record(1, "index.evaluate", Some("core.lookup"), at(10), at(40));
        tracer.record(1, "index.evaluate", Some("core.lookup"), at(50), at(70));
        // Operation 2: another parent, whose child must not be charged
        // to operation 1.
        tracer.record(2, "core.lookup", None, at(200), at(260));
        tracer.record(2, "index.evaluate", Some("core.lookup"), at(200), at(250));
        let (spans, _) = tracer.finish();
        let layers = Layers::from_spans(&spans);
        assert_eq!(layers.count("core.lookup"), 2);
        assert_eq!(layers.median_us("core.lookup"), 80.0);
        // Selves: 100 − 50 = 50 and 60 − 50 = 10.
        assert_eq!(layers.self_median_us("core.lookup"), 30.0);
        assert_eq!(layers.median_us("index.evaluate"), 30.0);
        assert_eq!(layers.self_median_us("index.evaluate"), 30.0);
        assert_eq!(layers.median_us("absent"), 0.0);
    }
}
