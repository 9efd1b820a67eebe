//! Benchmark-side spans: recorded around the benchmark's own calls into the
//! program's layers, kept in memory and written out when the run ends.
//!
//! A span has a name, a start, an end and the span that caused it; every
//! span of one job carries the same job id. The self time of a span is its
//! duration minus the part of that interval its children cover.

use std::cell::RefCell;
use std::sync::Mutex;
use std::time::Instant;

/// One closed (or still open) span; times are ns since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call or stage name.
    pub name: &'static str,
    /// Job (or request) the span belongs to.
    pub job: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
}

impl Span {
    /// Duration, ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

thread_local! {
    /// Open spans on this thread, innermost last: the parent of a new span.
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// In-memory span recorder. When off, [`Tracer::span`] only calls through.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder that records when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Run `f` inside a span named `name` of job `job`. Spans opened by `f`
    /// on the same thread become its children.
    pub fn span<R>(&self, name: &'static str, job: u64, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let parent = OPEN.with(|o| o.borrow().last().copied());
        let start_ns = self.now_ns();
        let id = {
            let mut spans = self.spans.lock().expect("span list lock poisoned");
            spans.push(Span {
                name,
                job,
                parent,
                start_ns,
                end_ns: start_ns,
            });
            spans.len() - 1
        };
        OPEN.with(|o| o.borrow_mut().push(id));
        let out = f();
        OPEN.with(|o| o.borrow_mut().pop());
        let end_ns = self.now_ns();
        self.spans.lock().expect("span list lock poisoned")[id].end_ns = end_ns;
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock poisoned").clone()
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals, clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Spans as a JSON array (for the per-run span file).
pub fn to_json(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let rows: Vec<String> = spans
        .iter()
        .zip(selfs)
        .map(|(s, self_ns)| {
            format!(
                "{{\"name\":\"{}\",\"job\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.name,
                s.job,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.start_ns,
                s.end_ns,
                self_ns
            )
        })
        .collect();
    format!("[\n{}\n]\n", rows.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build a random tree of sequentially nested spans with gaps, from a
    /// tiny LCG so the test needs no dependencies.
    fn random_tree(seed: u64) -> Vec<Span> {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = move |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        let mut spans = Vec::new();
        fn grow(
            spans: &mut Vec<Span>,
            parent: Option<usize>,
            start: u64,
            end: u64,
            depth: u32,
            next: &mut dyn FnMut(u64) -> u64,
        ) {
            let id = spans.len();
            spans.push(Span {
                name: "s",
                job: 7,
                parent,
                start_ns: start,
                end_ns: end,
            });
            if depth == 0 || end - start < 4 {
                return;
            }
            let mut t = start + next(3);
            for _ in 0..next(4) {
                if t >= end {
                    break;
                }
                let len = 1 + next((end - t).max(1));
                let stop = (t + len).min(end);
                grow(spans, Some(id), t, stop, depth - 1, next);
                t = stop + next(3);
            }
        }
        grow(&mut spans, None, 100, 100 + 1000 + next(5000), 4, &mut next);
        spans
    }

    #[test]
    fn self_time_partitions_each_tree_exactly() {
        let mut nested = 0;
        for seed in 0..200 {
            let spans = random_tree(seed);
            let selfs = self_times(&spans);
            let total: u64 = selfs.iter().sum();
            assert_eq!(
                total,
                spans[0].dur_ns(),
                "seed {seed}: {} spans",
                spans.len()
            );
            nested += usize::from(spans.iter().any(|s| s.parent.is_some_and(|p| p > 0)));
        }
        assert!(nested > 100, "only {nested} trees deeper than two levels");
    }

    #[test]
    fn recorded_spans_nest_and_partition() {
        let t = Tracer::new(true);
        t.span("job", 3, || {
            t.span("setup", 3, || std::hint::black_box((0..1000).sum::<u64>()));
            t.span("scf", 3, || {
                t.span("eigen", 3, || std::hint::black_box((0..1000).sum::<u64>()))
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert!(spans.iter().all(|s| s.job == 3 && s.end_ns >= s.start_ns));
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, spans[0].dur_ns());
    }

    #[test]
    fn off_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", 0, || 5), 5);
        assert!(t.spans().is_empty());
    }
}
