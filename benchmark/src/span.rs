//! The benchmark's own span recorder.
//!
//! Spans are recorded from the benchmark's files, around each call into
//! a layer of the simulator; nothing inside the simulator is
//! instrumented. A span is `(name, start, end, parent, id)` where `id`
//! is the simulated cycle or the batch number it belongs to. Calls that
//! happen once per request (millions per run) are not stored one by one:
//! they accumulate into a counter, a total and a fixed-bucket histogram
//! attached to the span name that contains them.
//!
//! A name's *self time* is the time inside its spans that no child span
//! and no accumulated child call covers.

use std::time::Instant;

use serde::Serialize;

/// Index of an interned span or accumulator name.
pub type NameId = u16;

/// "No parent": the span is a root.
pub const NO_PARENT: u32 = u32::MAX;

/// Histogram buckets: bucket `i` counts durations in `[2^i, 2^(i+1))` ns
/// (bucket 0 also takes 0 ns; the last bucket is open-ended).
pub const HIST_BUCKETS: usize = 24;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Interned name.
    pub name: NameId,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// Start, nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// Simulated cycle or batch number the span belongs to.
    pub id: u64,
}

/// Per-call accumulator for calls too frequent to store as spans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Accum {
    /// Interned name.
    pub name: NameId,
    /// Name of the span kind these calls happen inside.
    pub parent: NameId,
    /// Calls recorded.
    pub count: u64,
    /// Total duration.
    pub total_ns: u64,
    /// Fixed power-of-two histogram of call durations.
    pub hist: [u64; HIST_BUCKETS],
}

/// Per-name totals derived from a finished recording.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct NameSummary {
    /// Span or accumulator name.
    pub name: String,
    /// Name of the enclosing span kind (empty for roots).
    pub parent: String,
    /// Spans (or accumulated calls) recorded under the name.
    pub count: u64,
    /// Total duration in nanoseconds.
    pub total_ns: u64,
    /// Duration not covered by children, in nanoseconds.
    pub self_ns: u64,
    /// Power-of-two duration histogram (accumulators only; empty for
    /// stored spans).
    pub hist: Vec<u64>,
}

/// In-memory span store for one thread of the traced run.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    names: Vec<&'static str>,
    spans: Vec<Span>,
    accums: Vec<Accum>,
    open: Vec<u32>,
}

impl Recorder {
    /// A recorder whose clock starts at `origin` (threads of one run
    /// share an origin so their spans line up).
    pub fn new(origin: Instant) -> Self {
        Recorder {
            origin,
            names: Vec::new(),
            spans: Vec::new(),
            accums: Vec::new(),
            open: Vec::new(),
        }
    }

    /// The instant this recorder's clock starts at.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Intern `name`.
    pub fn name(&mut self, name: &'static str) -> NameId {
        if let Some(i) = self.names.iter().position(|n| *n == name) {
            return i as NameId;
        }
        self.names.push(name);
        (self.names.len() - 1) as NameId
    }

    /// Declare a per-call accumulator living inside spans named `parent`
    /// (declaring the same pair again returns the same accumulator).
    pub fn accumulator(&mut self, name: &'static str, parent: &'static str) -> usize {
        let name = self.name(name);
        let parent = self.name(parent);
        if let Some(i) = self
            .accums
            .iter()
            .position(|a| (a.name, a.parent) == (name, parent))
        {
            return i;
        }
        self.accums.push(Accum {
            name,
            parent,
            count: 0,
            total_ns: 0,
            hist: [0; HIST_BUCKETS],
        });
        self.accums.len() - 1
    }

    /// Nanoseconds since the origin.
    #[inline]
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span inside the innermost open span.
    #[inline]
    pub fn open(&mut self, name: NameId, id: u64) -> u32 {
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let idx = self.spans.len() as u32;
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
            id,
        });
        self.open.push(idx);
        idx
    }

    /// Close the innermost open span, which must be `idx`.
    #[inline]
    pub fn close(&mut self, idx: u32) {
        let end_ns = self.now();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(idx), "spans close innermost-first");
        self.spans[idx as usize].end_ns = end_ns;
    }

    /// Add one call of `ns` nanoseconds to accumulator `acc`.
    #[inline]
    pub fn add(&mut self, acc: usize, ns: u64) {
        let a = &mut self.accums[acc];
        a.count += 1;
        a.total_ns += ns;
        a.hist[(63 - ns.max(1).leading_zeros() as usize).min(HIST_BUCKETS - 1)] += 1;
    }

    /// The recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The text of an interned name.
    pub fn name_of(&self, id: NameId) -> &'static str {
        self.names[id as usize]
    }

    /// Append another thread's recording (same origin), keeping parent
    /// links valid.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len() as u32;
        let map: Vec<NameId> = other.names.iter().map(|n| self.name(n)).collect();
        for s in &other.spans {
            self.spans.push(Span {
                name: map[s.name as usize],
                parent: if s.parent == NO_PARENT {
                    NO_PARENT
                } else {
                    s.parent + base
                },
                ..*s
            });
        }
        for a in other.accums {
            let (name, parent) = (map[a.name as usize], map[a.parent as usize]);
            match self
                .accums
                .iter_mut()
                .find(|m| m.name == name && m.parent == parent)
            {
                Some(m) => {
                    m.count += a.count;
                    m.total_ns += a.total_ns;
                    for (d, s) in m.hist.iter_mut().zip(a.hist) {
                        *d += s;
                    }
                }
                None => self.accums.push(Accum { name, parent, ..a }),
            }
        }
    }

    /// Per-name count, total and self time.
    ///
    /// A span's children are the spans whose `parent` is its index; the
    /// part of the span they cover is the union of their intervals
    /// clipped to the span (children of one thread never overlap, but
    /// the union keeps the arithmetic right if they touch or a clock
    /// step makes them appear to). Accumulated calls are subtracted from
    /// the name they declared as parent.
    pub fn summary(&self) -> Vec<NameSummary> {
        let n = self.names.len();
        let mut count = vec![0u64; n];
        let mut total = vec![0u64; n];
        let mut covered = vec![0u64; n];
        let mut parent_name = vec![None::<NameId>; n];

        // Children arrive in opening order, so each parent's child list
        // is already sorted by start time.
        let mut cursor = vec![0u64; self.spans.len()];
        for s in &self.spans {
            count[s.name as usize] += 1;
            total[s.name as usize] += s.end_ns - s.start_ns;
            if s.parent != NO_PARENT {
                let p = self.spans[s.parent as usize];
                parent_name[s.name as usize] = Some(p.name);
                let from = s.start_ns.max(p.start_ns).max(cursor[s.parent as usize]);
                let to = s.end_ns.min(p.end_ns);
                if to > from {
                    covered[p.name as usize] += to - from;
                    cursor[s.parent as usize] = to;
                }
            }
        }
        for a in &self.accums {
            covered[a.parent as usize] += a.total_ns;
        }

        let mut out: Vec<NameSummary> = (0..n)
            .filter(|&i| count[i] > 0)
            .map(|i| NameSummary {
                name: self.names[i].to_string(),
                parent: parent_name[i].map_or(String::new(), |p| self.names[p as usize].into()),
                count: count[i],
                total_ns: total[i],
                self_ns: total[i].saturating_sub(covered[i]),
                hist: Vec::new(),
            })
            .collect();
        out.extend(
            self.accums
                .iter()
                .filter(|a| a.count > 0)
                .map(|a| NameSummary {
                    name: self.names[a.name as usize].to_string(),
                    parent: self.names[a.parent as usize].to_string(),
                    count: a.count,
                    total_ns: a.total_ns,
                    self_ns: a.total_ns,
                    hist: a.hist.to_vec(),
                }),
        );
        out
    }
}

/// A recorder that may be absent: the benchmark-owned driver loops are
/// written once against a `Probe`, and run untraced (every call a
/// not-taken branch, no clock reads) when it is off.
#[derive(Debug)]
pub struct Probe<'a>(Option<&'a mut Recorder>);

impl<'a> Probe<'a> {
    /// Wrap an optional recorder.
    pub fn new(rec: Option<&'a mut Recorder>) -> Self {
        Probe(rec)
    }

    /// Intern a span name (0 when off).
    pub fn name(&mut self, name: &'static str) -> NameId {
        self.0.as_mut().map_or(0, |r| r.name(name))
    }

    /// Declare an accumulator (0 when off).
    pub fn accumulator(&mut self, name: &'static str, parent: &'static str) -> usize {
        self.0.as_mut().map_or(0, |r| r.accumulator(name, parent))
    }

    /// Open a span (0 when off).
    #[inline]
    pub fn open(&mut self, name: NameId, id: u64) -> u32 {
        self.0.as_mut().map_or(0, |r| r.open(name, id))
    }

    /// Close a span opened by [`Probe::open`].
    #[inline]
    pub fn close(&mut self, idx: u32) {
        if let Some(r) = self.0.as_mut() {
            r.close(idx);
        }
    }

    /// Nanoseconds since the origin (0 when off).
    #[inline]
    pub fn now(&self) -> u64 {
        self.0.as_ref().map_or(0, |r| r.now())
    }

    /// Add the time since `start` to accumulator `acc`.
    #[inline]
    pub fn add_since(&mut self, acc: usize, start: u64) {
        if let Some(r) = self.0.as_mut() {
            let ns = r.now() - start;
            r.add(acc, ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build a recorder with hand-placed spans (bypassing the clock).
    fn with_spans(spans: &[(&'static str, u32, u64, u64)]) -> Recorder {
        let mut r = Recorder::new(Instant::now());
        for &(name, parent, start_ns, end_ns) in spans {
            let name = r.name(name);
            r.spans.push(Span {
                name,
                parent,
                start_ns,
                end_ns,
                id: 0,
            });
        }
        r
    }

    fn self_ns(r: &Recorder, name: &str) -> u64 {
        r.summary().iter().find(|s| s.name == name).unwrap().self_ns
    }

    #[test]
    fn self_time_subtracts_nested_children_one_level_at_a_time() {
        // run [0,100) > inject [10,60) > issue [20,30); run > clock [60,90)
        let r = with_spans(&[
            ("run", NO_PARENT, 0, 100),
            ("inject", 0, 10, 60),
            ("issue", 1, 20, 30),
            ("clock", 0, 60, 90),
        ]);
        assert_eq!(self_ns(&r, "run"), 100 - 50 - 30);
        assert_eq!(self_ns(&r, "inject"), 50 - 10, "only its own child");
        assert_eq!(self_ns(&r, "issue"), 10);
        assert_eq!(self_ns(&r, "clock"), 30);
        let total: u64 = r.summary().iter().map(|s| s.self_ns).sum();
        assert_eq!(total, 100, "self times partition the root");
    }

    #[test]
    fn adjacent_and_touching_children_are_not_double_counted() {
        // Children back to back, one overlapping its elder by 5 ns (a
        // clock step), one poking past the parent's end.
        let r = with_spans(&[
            ("run", NO_PARENT, 0, 100),
            ("a", 0, 0, 40),
            ("a", 0, 40, 70),
            ("b", 0, 65, 90),
            ("b", 0, 95, 120),
        ]);
        // Covered: [0,40) + [40,70) + [70,90) + [95,100) = 95.
        assert_eq!(self_ns(&r, "run"), 5);
    }

    #[test]
    fn accumulated_calls_come_out_of_their_parent_name() {
        let mut r = with_spans(&[("run", NO_PARENT, 0, 1_000), ("inject", 0, 0, 600)]);
        let acc = r.accumulator("try_issue", "inject");
        assert_eq!(r.accumulator("try_issue", "inject"), acc, "declared once");
        r.add(acc, 100);
        r.add(acc, 300);
        r.add(acc, 0);
        let s = r.summary();
        let issue = s.iter().find(|s| s.name == "try_issue").unwrap();
        assert_eq!((issue.count, issue.total_ns), (3, 400));
        assert_eq!(issue.hist[0], 1, "0 ns lands in the first bucket");
        assert_eq!(issue.hist[6], 1, "100 ns is in [64,128)");
        assert_eq!(issue.hist[8], 1, "300 ns is in [256,512)");
        assert_eq!(self_ns(&r, "inject"), 200);
        assert_eq!(self_ns(&r, "run"), 400);
    }

    #[test]
    fn live_recording_nests_by_open_order() {
        let mut r = Recorder::new(Instant::now());
        let (run, step) = (r.name("run"), r.name("step"));
        let root = r.open(run, 0);
        for cycle in 0..3 {
            let s = r.open(step, cycle);
            r.close(s);
        }
        r.close(root);
        assert_eq!(r.spans().len(), 4);
        assert!(r.spans()[1..].iter().all(|s| s.parent == root));
        assert_eq!(r.spans()[3].id, 2);
        let s = r.summary();
        let run = s.iter().find(|s| s.name == "run").unwrap();
        assert!(run.self_ns <= run.total_ns);
    }

    #[test]
    fn absorbing_a_second_thread_keeps_parent_links() {
        let mut a = with_spans(&[("batch", NO_PARENT, 0, 50), ("poll", 0, 10, 30)]);
        let b = with_spans(&[("batch", NO_PARENT, 5, 45), ("submit", 0, 5, 15)]);
        a.absorb(b);
        assert_eq!(a.spans().len(), 4);
        assert_eq!(a.spans()[3].parent, 2);
        assert_eq!(self_ns(&a, "batch"), (50 - 20) + (40 - 10));
    }
}
