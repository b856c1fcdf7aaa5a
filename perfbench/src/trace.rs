//! In-memory spans for the traced run.
//!
//! Coarse boundaries (build, run and validate of a point, each figure
//! command, each serve request stage) record one span each: name, start,
//! end, parent and the point or request id. Hot hooks (`run_task`, mapper
//! calls) would drown in spans, so they attach one aggregate — a call count
//! and total nanoseconds — to the span they ran under. A span's self time is
//! its duration minus its child spans and aggregates.

use std::sync::OnceLock;
use std::time::Instant;

use swarm_serve::Value;

/// Count and total host nanoseconds of one hot hook.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Agg {
    /// Calls made.
    pub calls: u64,
    /// Host nanoseconds spent inside them.
    pub ns: u64,
}

impl Agg {
    /// Add one call of `ns` nanoseconds.
    pub fn add(&mut self, ns: u64) {
        self.calls += 1;
        self.ns += ns;
    }
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary, e.g. `sim.run`.
    pub name: &'static str,
    /// The point or request the span belongs to.
    pub id: String,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the process-wide trace epoch.
    pub start_ns: u64,
    /// Nanoseconds since the process-wide trace epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Nanoseconds since the trace epoch (shared by every thread, so spans
/// recorded on client and server threads line up).
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A span recorder.
#[derive(Debug, Default, Clone)]
pub struct Tracer {
    spans: Vec<Span>,
    /// `(span index, hook name, aggregate)`.
    aggs: Vec<(usize, &'static str, Agg)>,
}

impl Tracer {
    /// Open a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, id: &str, parent: Option<usize>) -> usize {
        let now = now_ns();
        self.record(name, id, parent, now, now)
    }

    /// Close span `index` now.
    pub fn close(&mut self, index: usize) {
        self.spans[index].end_ns = now_ns();
    }

    /// Record a finished span.
    pub fn record(
        &mut self,
        name: &'static str,
        id: &str,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span { name, id: id.to_string(), parent, start_ns, end_ns });
        self.spans.len() - 1
    }

    /// Attach a hot-hook aggregate to span `index`.
    pub fn aggregate(&mut self, index: usize, name: &'static str, agg: Agg) {
        if agg.calls > 0 {
            self.aggs.push((index, name, agg));
        }
    }

    /// Total nanoseconds of every span named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).map(Span::ns).sum()
    }

    /// Every span named `name`, as durations in nanoseconds.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::ns).collect()
    }

    /// Sum of every aggregate named `name`.
    pub fn agg(&self, name: &str) -> Agg {
        let mut total = Agg::default();
        for (_, n, a) in &self.aggs {
            if *n == name {
                total.calls += a.calls;
                total.ns += a.ns;
            }
        }
        total
    }

    /// Total self time of the spans named `name`: their durations minus
    /// their child spans and aggregates.
    pub fn self_ns(&self, name: &str) -> u64 {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.ns();
            }
        }
        for (i, _, a) in &self.aggs {
            child[*i] += a.ns;
        }
        self.spans
            .iter()
            .zip(&child)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| s.ns().saturating_sub(*c))
            .sum()
    }

    /// Move `other`'s spans into this tracer, keeping parent links intact.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        self.aggs.extend(other.aggs.into_iter().map(|(i, n, a)| (i + base, n, a)));
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The spans and aggregates as one JSON document.
    pub fn to_json(&self) -> String {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Value::Obj(vec![
                    ("name".to_string(), Value::str(s.name)),
                    ("id".to_string(), Value::str(&s.id)),
                    ("parent".to_string(), s.parent.map_or(Value::Null, |p| Value::UInt(p as u64))),
                    ("start_ns".to_string(), Value::UInt(s.start_ns)),
                    ("end_ns".to_string(), Value::UInt(s.end_ns)),
                ])
            })
            .collect();
        let aggs = self
            .aggs
            .iter()
            .map(|(i, n, a)| {
                Value::Obj(vec![
                    ("span".to_string(), Value::UInt(*i as u64)),
                    ("name".to_string(), Value::str(*n)),
                    ("calls".to_string(), Value::UInt(a.calls)),
                    ("ns".to_string(), Value::UInt(a.ns)),
                ])
            })
            .collect();
        Value::Obj(vec![
            ("spans".to_string(), Value::Arr(spans)),
            ("aggregates".to_string(), Value::Arr(aggs)),
        ])
        .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_aggregates() {
        let mut t = Tracer::default();
        let run = t.record("sim.run", "p", None, 0, 100);
        t.record("apps.validate", "p", Some(run), 80, 95);
        t.aggregate(run, "apps.run_task", Agg { calls: 3, ns: 40 });
        assert_eq!(t.self_ns("sim.run"), 45);
        assert_eq!(t.total_ns("sim.run"), 100);
        assert_eq!(t.agg("apps.run_task"), Agg { calls: 3, ns: 40 });

        let mut merged = Tracer::default();
        merged.record("root", "q", None, 0, 10);
        merged.absorb(t);
        assert_eq!(merged.self_ns("sim.run"), 45, "parents survive a merge");
    }
}
