//! In-memory spans recorded around calls into each layer's public
//! functions, and the self-time arithmetic the per-layer split rests on.
//!
//! A span is `(name, start, end, parent, item)`: `item` is the cell or
//! unit the call worked on, `parent` the span that caused it (on the same
//! thread unless given explicitly, as the sweep driver does for the units
//! its worker threads run). Counts ([`Work`]) are recorded on the same
//! span. Spans stay in memory until the pass ends; a disabled tracer
//! records nothing and only runs the wrapped closure.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Work counted at a span's boundary.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Work {
    /// Simulated rounds.
    pub rounds: u64,
    /// Agent moves: every agent (or walker) moves once per round.
    pub moves: u64,
    /// Agent count of a kernel call (for the per-`k` split).
    pub k: u64,
    /// Graph edges built.
    pub edges: u64,
    /// §2.2 domain samples recorded.
    pub samples: u64,
    /// Cells that covered within their budget.
    pub covered: u64,
    /// Cells attempted.
    pub cells: u64,
    /// Work units planned.
    pub units: u64,
    /// Bytes rendered.
    pub bytes: u64,
}

/// One recorded span; times are nanoseconds since the tracer was made.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.engine`.
    pub name: &'static str,
    /// Unique id within the tracer.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// The cell or unit index the call worked on.
    pub item: u64,
    /// Small integer naming the thread that ran the span.
    pub thread: u64,
    /// Start, ns since the tracer's epoch.
    pub start: u64,
    /// End, ns since the tracer's epoch.
    pub end: u64,
    /// Counts recorded at the boundary.
    pub work: Work,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// What a traced closure sees: its span's id (to parent spans it causes on
/// other threads) and the counts to record on it.
pub struct Ctx {
    /// This span's id (0 when tracing is off).
    pub id: u64,
    /// Counts recorded when the closure returns.
    pub work: Work,
}

/// Span recorder shared by every thread of a pass.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

impl Tracer {
    /// A tracer that records spans when `on`, and otherwise only runs the
    /// closures it is handed.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span whose parent is the innermost open span on
    /// this thread.
    pub fn span<R>(&self, name: &'static str, item: u64, f: impl FnOnce(&mut Ctx) -> R) -> R {
        let parent = if self.on {
            OPEN.with(|open| open.borrow().last().copied())
        } else {
            None
        };
        self.span_in(parent, name, item, f)
    }

    /// Runs `f` inside a span with an explicit parent (a span opened on
    /// another thread).
    pub fn span_in<R>(
        &self,
        parent: Option<u64>,
        name: &'static str,
        item: u64,
        f: impl FnOnce(&mut Ctx) -> R,
    ) -> R {
        if !self.on {
            return f(&mut Ctx {
                id: 0,
                work: Work::default(),
            });
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let mut ctx = Ctx {
            id,
            work: Work::default(),
        };
        OPEN.with(|open| open.borrow_mut().push(id));
        let start = self.now();
        let out = f(&mut ctx);
        let end = self.now();
        OPEN.with(|open| open.borrow_mut().pop());
        let span = Span {
            name,
            id,
            parent,
            item,
            thread: THREAD.with(|t| *t),
            start,
            end,
            work: ctx.work,
        };
        self.spans
            .lock()
            .expect("a thread panicked while appending a span")
            .push(span);
        out
    }

    /// Every span recorded so far, leaving the tracer empty.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span buffer poisoned"))
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("a pass lasts under 584 years")
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its children cover (children on several threads may overlap; the
/// union counts once). Aligned with `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get_mut(&s.id) else {
                return s.duration();
            };
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start: u64, end: u64) -> Span {
        Span {
            name: "t",
            id,
            parent,
            item: 0,
            thread: 0,
            start,
            end,
            work: Work::default(),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, None, 0, 100),
            // two overlapping children on different threads: [10, 60)
            span(2, Some(1), 10, 50),
            span(3, Some(1), 30, 60),
            // a disjoint child: [70, 80)
            span(4, Some(1), 70, 80),
            // a grandchild counts against its parent only
            span(5, Some(2), 20, 40),
        ];
        assert_eq!(self_times(&spans), vec![100 - 60, 40 - 20, 30, 10, 20]);
    }

    #[test]
    fn children_are_clipped_to_the_parent_interval() {
        let spans = [span(1, None, 10, 20), span(2, Some(1), 5, 15)];
        assert_eq!(self_times(&spans), vec![5, 10]);
    }

    #[test]
    fn nested_spans_record_their_parent_and_counts() {
        let tracer = Tracer::new(true);
        let v = tracer.span("outer", 7, |outer| {
            outer.work.cells = 1;
            tracer.span("inner", 8, |inner| {
                inner.work.rounds = 3;
                5
            })
        });
        assert_eq!(v, 5);
        let spans = tracer.take();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!((outer.item, outer.work.cells), (7, 1));
        assert_eq!((inner.item, inner.work.rounds), (8, 3));
        assert!(outer.start <= inner.start && inner.end <= outer.end);
        let off = Tracer::new(false);
        assert_eq!(off.span("x", 0, |_| 1), 1);
        assert!(off.take().is_empty());
    }
}
