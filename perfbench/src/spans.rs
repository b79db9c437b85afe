//! In-memory span recorder for the traced run.
//!
//! A span is recorded around each call the benchmark makes into a layer: its name, start,
//! end, parent span and the id of the operation it belongs to. Spans stay in memory and
//! are written out once, when the benchmark ends. A layer's self time is its span's
//! duration minus the part of that interval its child spans cover; the operation's root
//! span keeps what no layer call covers, which is the ledger's residual.
//!
//! The recorder is single-threaded on purpose: every layer call the benchmark makes
//! comes from its own driver thread, so spans nest strictly and never overlap.

use crate::common::ratio;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Name of the root span [`Tracer::op`] opens around one operation.
pub const OP: &str = "op";

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call this span wraps.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Operation id shared by every span of one operation.
    pub op: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when on; a plain pass-through when off.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    next_op: Cell<u64>,
    /// Self-test hook: sleep this long inside every span with this name.
    delay: Option<(&'static str, Duration)>,
}

impl Tracer {
    /// A recorder that records nothing (the untraced runs).
    pub fn off() -> Self {
        Self::new(false)
    }

    /// A recorder that keeps every span.
    pub fn on() -> Self {
        Self::new(true)
    }

    fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            next_op: Cell::new(0),
            delay: None,
        }
    }

    /// Inject a sleep of `by` inside every span named `name` (benchmark self-test only).
    pub fn with_delay(mut self, name: &'static str, by: Duration) -> Self {
        self.delay = Some((name, by));
        self
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` as one operation: a fresh operation id and a root span named [`OP`].
    pub fn op<R>(&self, f: impl FnOnce() -> R) -> R {
        self.next_op.set(self.next_op.get() + 1);
        self.span(OP, f)
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let delay = self.delay.filter(|(n, _)| *n == name).map(|(_, d)| d);
        if !self.on {
            if let Some(d) = delay {
                std::thread::sleep(d);
            }
            return f();
        }
        let index = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
                op: self.next_op.get(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        if let Some(d) = delay {
            std::thread::sleep(d);
        }
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[index].end_ns = self.now_ns();
        out
    }

    /// Aggregate the recorded spans into a ledger.
    pub fn ledger(&self) -> Ledger {
        Ledger::from_spans(&self.spans.borrow())
    }

    /// The spans as a JSON document (one object per span).
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .borrow()
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}",
                    s.name, s.start_ns, s.end_ns, parent, s.op
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
}

/// Per-layer self times, summed over every recorded operation.
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    /// Operations recorded.
    pub ops: u64,
    /// Total duration of the operations' root spans, ns.
    pub op_ns: u64,
    /// Self time of the root spans: time inside an operation no layer call covers, ns.
    pub residual_ns: u64,
    /// Self time per layer span name, ns (root spans excluded).
    pub self_ns: BTreeMap<&'static str, u64>,
}

impl Ledger {
    /// Aggregate `spans` (as recorded by a [`Tracer`]).
    pub fn from_spans(spans: &[Span]) -> Ledger {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut ledger = Ledger::default();
        for (s, covered) in spans.iter().zip(child_ns) {
            let own = s.dur_ns().saturating_sub(covered);
            if s.name == OP && s.parent.is_none() {
                ledger.ops += 1;
                ledger.op_ns += s.dur_ns();
                ledger.residual_ns += own;
            } else {
                *ledger.self_ns.entry(s.name).or_default() += own;
            }
        }
        ledger
    }

    /// Mean self time of `name` per operation, ms.
    pub fn self_ms_per_op(&self, name: &str) -> f64 {
        match (self.self_ns.get(name), self.ops) {
            (Some(&ns), ops) if ops > 0 => ns as f64 / ops as f64 / 1e6,
            _ => 0.0,
        }
    }

    /// Share of operation time that no layer span covers.
    pub fn residual_frac(&self) -> f64 {
        ratio(self.residual_ns, self.op_ns)
    }

    /// Human-readable ledger lines: each layer's self time per operation next to the
    /// operation's median wall, and the residual.
    pub fn lines(&self, workload: &str, run_ms_p50: f64) -> Vec<String> {
        let mut out = vec![format!(
            "ledger {workload}: {} traced ops, run_ms_p50 {run_ms_p50:.3} ms (traced mean {:.3} ms)",
            self.ops,
            if self.ops > 0 { self.op_ns as f64 / self.ops as f64 / 1e6 } else { 0.0 }
        )];
        for name in self.self_ns.keys() {
            out.push(format!("  {name:<28} self {:>10.4} ms/op", self.self_ms_per_op(name)));
        }
        out.push(format!("  {:<28} residual_frac {:.4}", "(benchmark glue)", self.residual_frac()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_residual_is_the_root_remainder() {
        let t = Tracer::on();
        t.op(|| {
            t.span("outer", || {
                t.span("inner", || std::thread::sleep(Duration::from_millis(4)));
                std::thread::sleep(Duration::from_millis(2));
            })
        });
        let l = t.ledger();
        assert_eq!(l.ops, 1);
        assert!(l.self_ns["inner"] >= 4_000_000);
        assert!(l.self_ns["outer"] >= 2_000_000 && l.self_ns["outer"] < 4_000_000);
        assert!(l.residual_frac() < 0.2, "root did nothing of its own");
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let t = Tracer::off();
        assert_eq!(t.op(|| t.span("x", || 7)), 7);
        assert_eq!(t.ledger().ops, 0);
        assert!(t.ledger().self_ns.is_empty());
    }
}
