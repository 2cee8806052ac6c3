//! The traced run's span recorder.
//!
//! Spans are recorded by the benchmark's own code around its calls into
//! each layer's public functions — nothing inside the program is
//! instrumented. Each span has a name, start and end (nanoseconds since
//! the run's epoch), a parent and a request id; spans are kept in
//! memory per thread and written out when the run ends. A layer's
//! *self time* is its span's duration minus the part of that interval
//! its child spans cover ([`self_time_by_span`]).
//!
//! A disabled [`Tracer`] records nothing and reads no clock, so the
//! end-to-end runs pay one branch per span site.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique across threads (thread index in the top 16 bits).
    pub id: u64,
    /// Enclosing span, `0` for a root.
    pub parent: u64,
    /// Request the span belongs to (session, upload, query or batch).
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Calls into the layer the span covers (a span may wrap a loop of
    /// per-frame calls; per-call cost is duration ÷ count).
    pub count: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span.
#[must_use = "close the span with Tracer::end"]
pub struct Open(Option<usize>);

/// Per-thread span recorder.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    thread: u64,
    next: u64,
    open: Vec<Span>,
    done: Vec<Span>,
}

impl Tracer {
    /// A recorder for thread `thread`; `on == false` records nothing.
    pub fn new(on: bool, epoch: Instant, thread: u64) -> Tracer {
        Tracer {
            on,
            epoch,
            thread,
            next: 1,
            open: Vec::new(),
            done: Vec::new(),
        }
    }

    /// A recorder for another thread sharing this one's epoch, whose
    /// roots hang under `self`'s innermost open span.
    pub fn fork(&self, thread: u64) -> Tracer {
        let mut t = Tracer::new(self.on, self.epoch, thread);
        if let Some(parent) = self.open.last() {
            t.open.push(Span {
                end_ns: u64::MAX,
                ..*parent
            });
        }
        t
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, req: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = (self.thread << 48) | self.next;
        self.next += 1;
        let parent = self.open.last().map_or(0, |s| s.id);
        let start_ns = self.now_ns();
        self.open.push(Span {
            id,
            parent,
            req,
            name,
            start_ns,
            end_ns: 0,
            count: 1,
        });
        Open(Some(self.open.len() - 1))
    }

    /// Closes a span opened by [`Self::begin`] (innermost first).
    pub fn end(&mut self, open: Open) {
        self.end_n(open, 1);
    }

    /// Closes a span that covered `count` calls.
    pub fn end_n(&mut self, open: Open, count: u64) {
        let Some(depth) = open.0 else { return };
        debug_assert_eq!(depth + 1, self.open.len(), "spans close innermost first");
        let mut span = self.open.pop().expect("an open span to close");
        span.end_ns = self.now_ns();
        span.count = count;
        self.done.push(span);
    }

    /// Times `f` as one span.
    pub fn wrap<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name, req);
        let r = f();
        self.end(open);
        r
    }

    /// Moves another thread's closed spans into this recorder.
    pub fn absorb(&mut self, other: Tracer) {
        self.done.extend(other.done);
    }

    pub fn spans(&self) -> &[Span] {
        &self.done
    }

    /// Writes every closed span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.done {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"count\":{}}}",
                s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns, s.count
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time per span: its duration minus the union of its children's
/// intervals inside it (children on other threads may overlap).
pub fn self_time_by_span(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children
                .get_mut(&s.id)
                .map_or(0, |k| covered(s.start_ns, s.end_ns, k));
            (s.id, s.dur_ns() - kids.min(s.dur_ns()))
        })
        .collect()
}

/// Ids of `root` and every span below it.
pub fn subtree(spans: &[Span], root: u64) -> std::collections::BTreeSet<u64> {
    let mut kids: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for s in spans {
        kids.entry(s.parent).or_default().push(s.id);
    }
    let mut out = std::collections::BTreeSet::new();
    let mut stack = vec![root];
    while let Some(id) = stack.pop() {
        if out.insert(id) {
            stack.extend(kids.get(&id).into_iter().flatten());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            req: 0,
            name,
            start_ns,
            end_ns,
            count: 1,
        }
    }

    #[test]
    fn self_time_of_hand_built_tree() {
        // phase [0,100): upload [10,40) with decode [10,15) and ingest
        // [15,38); two overlapping queries on another thread [30,60)
        // and [50,70); nothing else.
        let spans = [
            span(1, 0, "phase", 0, 100),
            span(2, 1, "upload", 10, 40),
            span(3, 2, "decode", 10, 15),
            span(4, 2, "ingest", 15, 38),
            span(5, 1, "query", 30, 60),
            span(6, 1, "query", 50, 70),
        ];
        let own = self_time_by_span(&spans);
        // Children of the phase cover [10,70) once despite the overlap.
        assert_eq!(own[&1], 40);
        assert_eq!(own[&2], 2);
        assert_eq!(own[&3], 5);
        assert_eq!(own[&4], 23);
        assert_eq!(own[&5] + own[&6], 50);
        // The phase, upload, decode and ingest self times add up to the
        // phase's duration minus the 30 ns only the queries cover.
        let one_thread: u64 = [1, 2, 3, 4].iter().map(|id| own[id]).sum();
        assert_eq!(one_thread, 70);
        assert_eq!(subtree(&spans, 2).len(), 3);
    }

    #[test]
    fn child_outside_parent_is_clipped() {
        let spans = [span(1, 0, "p", 10, 20), span(2, 1, "c", 0, 15)];
        assert_eq!(self_time_by_span(&spans)[&1], 5);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now(), 0);
        let o = t.begin("x", 1);
        t.end(o);
        assert!(t.spans().is_empty());
        let mut t = Tracer::new(true, Instant::now(), 1);
        let outer = t.begin("outer", 1);
        let mut worker = t.fork(2);
        worker.wrap("inner", 2, || ());
        t.end(outer);
        t.absorb(worker);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        let outer = s.iter().find(|s| s.name == "outer").unwrap();
        let inner = s.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_ne!(inner.id, outer.id);
    }
}
