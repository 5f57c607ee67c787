//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end, the span that caused it and the
//! round it belongs to. Spans are kept in memory and written out once,
//! when the run ends ([`Tracer::to_json`]). A layer's *self time* is its
//! span's duration minus the part its child spans cover, so the self
//! times of one round add up to the `round` span.
//!
//! The tracer lives on the benchmark's main thread; everything it times
//! is a call made from that thread.

use crate::json::Json;
use std::cell::RefCell;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer was made.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary name, e.g. `chip.measure`.
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time (0 while the span is open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<u32>,
    /// Round the span belongs to.
    pub round: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        self.ns() as f64 / 1e6
    }
}

#[derive(Debug)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<u32>,
    round: u32,
}

/// Records spans; shared by reference between the round loop and the
/// traced executor.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    inner: RefCell<Inner>,
}

/// Closes its span when dropped.
#[derive(Debug)]
pub struct SpanGuard<'t> {
    tracer: &'t Tracer,
    id: u32,
}

impl SpanGuard<'_> {
    /// Index of the guarded span in [`Tracer::spans`].
    pub fn id(&self) -> u32 {
        self.id
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let now = self.tracer.now_ns();
        let mut inner = self.tracer.inner.borrow_mut();
        inner.spans[self.id as usize].end_ns = now;
        // Guards drop in reverse order of creation, also during a
        // point's unwinding, so the closed span is the innermost one.
        inner.open.retain(|&open| open != self.id);
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer; its clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            inner: RefCell::new(Inner {
                spans: Vec::new(),
                open: Vec::new(),
                round: 0,
            }),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Sets the round that spans opened from now on belong to.
    pub fn set_round(&self, round: u32) {
        self.inner.borrow_mut().round = round;
    }

    /// Opens a span under the innermost open one; it closes when the
    /// guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        let start_ns = self.now_ns();
        let mut inner = self.inner.borrow_mut();
        let id = inner.spans.len() as u32;
        let parent = inner.open.last().copied();
        let round = inner.round;
        inner.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            round,
        });
        inner.open.push(id);
        SpanGuard { tracer: self, id }
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.inner.borrow().spans.len()
    }

    /// Whether no span was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A copy of every span, in the order they were opened.
    pub fn spans(&self) -> Vec<Span> {
        self.inner.borrow().spans.clone()
    }

    /// The spans as a JSON array (`id` is the array index).
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.inner
                .borrow()
                .spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::obj([
                        ("id", Json::Num(id as f64)),
                        ("name", Json::str(s.name)),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                        ),
                        ("round", Json::Num(f64::from(s.round))),
                    ])
                })
                .collect(),
        )
    }
}

/// Largest relative difference, over rounds, between a `round` span's
/// duration and the self times of the spans under it. A span's self time
/// is its duration minus its children's, so for properly nested spans
/// the difference is 0.
pub fn worst_round_gap(spans: &[Span]) -> f64 {
    let mut self_ns: Vec<u64> = spans.iter().map(Span::ns).collect();
    // The root of each span. Parents are opened first, so a parent's
    // root is final when its children are reached.
    let mut root: Vec<usize> = (0..spans.len()).collect();
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            let p = p as usize;
            self_ns[p] = self_ns[p].saturating_sub(s.ns());
            root[i] = root[p];
        }
    }
    let mut under_root = vec![0u64; spans.len()];
    for (i, ns) in self_ns.iter().enumerate() {
        under_root[root[i]] += ns;
    }
    spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "round" && s.parent.is_none() && s.ns() > 0)
        .map(|(i, s)| (under_root[i] as f64 - s.ns() as f64).abs() / s.ns() as f64)
        .fold(0.0, f64::max)
}

/// Durations in milliseconds of every span called `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::ms)
        .collect()
}

/// Total duration in nanoseconds of every span called `name`.
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans.iter().filter(|s| s.name == name).map(Span::ns).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_add_up_to_the_round() {
        let t = Tracer::new();
        for round in 0..2 {
            t.set_round(round);
            let _r = t.span("round");
            let _a = t.span("campaign.run");
            {
                let _b = t.span("executor.execute");
                for _ in 0..3 {
                    let _p = t.span("runner.point");
                    std::hint::black_box((0..1000u64).sum::<u64>());
                }
            }
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 2 * 6);
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(2));
        assert_eq!(spans[6].parent, None);
        assert_eq!(spans[7].round, 1);
        assert!(worst_round_gap(&spans) < 1e-9);
        assert_eq!(durations_ms(&spans, "runner.point").len(), 6);
        assert_eq!(t.to_json().elements().len(), 12);
    }
}
