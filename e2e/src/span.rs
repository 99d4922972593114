//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Nothing here touches the system under test: a traced client stamps the
//! clock between consecutive calls, so each span ends where the next one
//! starts and the spans of one transaction add up to the time between its
//! first call and its last. What is left of the transaction's own span is
//! the generator's time (drawing keys, recording) — the root's self time.

use std::io::Write;
use std::time::Instant;

/// Where a span was recorded. Names are the repo's modules.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum Kind {
    /// One whole transaction: previous acknowledgement to this one.
    Tx,
    /// `TxManager::begin`.
    Begin,
    /// `Tx::child`.
    Child,
    /// `Tx::read`.
    Read,
    /// `Tx::write`.
    Write,
    /// `Tx::commit` on a child (lock inheritance).
    CommitChild,
    /// `Tx::commit` at top level (publish).
    CommitTop,
    /// `Tx::abort` on a child.
    Abort,
    /// `Tx::read_async`, future created to resolved.
    ReadAsync,
    /// `Tx::write_async`, future created to resolved.
    WriteAsync,
    /// `Tx::write_async` on an object no other session touches: never waits.
    /// Kept apart so that it does not drown the contended writes' median.
    WriteAsyncOwn,
    /// A session gave up its worker with a lock held and was polled again.
    Yield,
    /// `Client::send`: encode and socket write.
    ClientWrite,
    /// `Client::read_response`: blocked until the frame is decoded.
    ClientWait,
    /// Round trip of a `BEGIN` frame.
    RttBegin,
    /// Round trip of a `CHILD` frame.
    RttChild,
    /// Round trip of a read `ACCESS` frame.
    RttAccessR,
    /// Round trip of a write `ACCESS` frame.
    RttAccessW,
    /// Round trip of a child's `COMMIT` frame.
    RttCommitChild,
    /// Round trip of the top-level `COMMIT` frame.
    RttCommitTop,
    /// Round trip of an `ABORT` frame.
    RttAbort,
    /// A pipelined transaction: first byte sent to last response decoded.
    RttBurst,
}

impl Kind {
    /// Number of kinds; a per-kind table has this many rows.
    pub const COUNT: usize = Kind::RttBurst as usize + 1;

    /// The six frame kinds of `N1` over the wire, in transaction order, then
    /// `ABORT`.
    pub const FRAMES: [Kind; 7] = [
        Kind::RttBegin,
        Kind::RttChild,
        Kind::RttAccessR,
        Kind::RttAccessW,
        Kind::RttCommitChild,
        Kind::RttCommitTop,
        Kind::RttAbort,
    ];

    /// Span name as written to the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Tx => "tx",
            Kind::Begin => "manager.begin",
            Kind::Child => "tx.child",
            Kind::Read => "tx.read",
            Kind::Write => "tx.write",
            Kind::CommitChild => "manager.commit_child",
            Kind::CommitTop => "manager.commit_top",
            Kind::Abort => "manager.abort",
            Kind::ReadAsync => "tx.read_async",
            Kind::WriteAsync => "tx.write_async",
            Kind::WriteAsyncOwn => "tx.write_async_own",
            Kind::Yield => "executor.yield",
            Kind::ClientWrite => "client.write",
            Kind::ClientWait => "client.wait",
            Kind::RttBegin => "client.rtt_begin",
            Kind::RttChild => "client.rtt_child",
            Kind::RttAccessR => "client.rtt_access_r",
            Kind::RttAccessW => "client.rtt_access_w",
            Kind::RttCommitChild => "client.rtt_commit_child",
            Kind::RttCommitTop => "client.rtt_commit_top",
            Kind::RttAbort => "client.rtt_abort",
            Kind::RttBurst => "client.rtt_burst",
        }
    }
}

/// Nanoseconds since the process started; one clock for every thread.
#[derive(Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    /// A clock whose zero is now.
    pub fn start() -> Clock {
        Clock(Instant::now())
    }

    /// Nanoseconds since [`Clock::start`].
    #[inline]
    pub fn now(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// One recorded span. `parent` indexes the same list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// What was called.
    pub kind: Kind,
    /// Start, ns since process start.
    pub start: u64,
    /// End, ns since process start.
    pub end: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// Transaction the span belongs to (client index and sequence number).
    pub tx: u64,
}

/// The clock stamps of one transaction attempt, taken between calls.
pub struct Stamps {
    clock: Clock,
    start: u64,
    len: usize,
    at: [u64; Stamps::CAP],
    kind: [Kind; Stamps::CAP],
}

impl Stamps {
    /// Enough for the longest attempt: ten frames, two stamps each.
    const CAP: usize = 24;

    /// An empty set of stamps reading `clock`.
    pub fn new(clock: Clock) -> Stamps {
        Stamps {
            clock,
            start: 0,
            len: 0,
            at: [0; Stamps::CAP],
            kind: [Kind::Tx; Stamps::CAP],
        }
    }

    /// Forget the previous attempt and stamp the start of a new one.
    #[inline]
    pub fn restart<const TRACE: bool>(&mut self) {
        if TRACE {
            self.len = 0;
            self.start = self.clock.now();
        }
    }

    /// The call of kind `kind` has just returned.
    #[inline]
    pub fn mark<const TRACE: bool>(&mut self, kind: Kind) {
        if TRACE {
            self.at[self.len] = self.clock.now();
            self.kind[self.len] = kind;
            self.len += 1;
        }
    }

    /// `(kind, start, end)` of each call of the last attempt, in order.
    pub fn calls(&self) -> impl Iterator<Item = (Kind, u64, u64)> + '_ {
        (0..self.len).map(|i| {
            let start = if i == 0 { self.start } else { self.at[i - 1] };
            (self.kind[i], start, self.at[i])
        })
    }
}

/// Self time of every span: its duration minus the part of it that its child
/// spans cover. Children may overlap each other and may stick out of the
/// parent; only covered time inside the parent is subtracted.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let (start, end) = (s.start.max(parent.start), s.end.min(parent.end));
            if start < end {
                children[p as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut upto) = (0, s.start);
            for &(start, end) in kids.iter() {
                if end > upto {
                    covered += end - start.max(upto);
                    upto = end;
                }
            }
            (s.end - s.start) - covered
        })
        .collect()
}

/// Write spans as JSON lines: `id`, `name`, `start`, `end`, `parent`, `tx`,
/// plus the span's self time. Ids are offset by `base` so that several
/// clients' lists can share one file.
pub fn write_jsonl(out: &mut impl Write, base: usize, spans: &[Span]) -> std::io::Result<()> {
    for ((i, s), own) in spans.iter().enumerate().zip(self_times(spans)) {
        let parent = match s.parent {
            Some(p) => (base + p as usize).to_string(),
            None => "null".to_string(),
        };
        writeln!(
            out,
            "{{\"id\":{},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{},\"tx\":{},\"self\":{}}}",
            base + i,
            s.kind.name(),
            s.start,
            s.end,
            parent,
            s.tx,
            own
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            kind: Kind::Tx,
            start,
            end,
            parent,
            tx: 0,
        }
    }

    #[test]
    fn self_time_is_parent_minus_covered_children() {
        let spans = [
            span(0, 100, None),    // root: children cover 10..30 and 40..75
            span(10, 30, Some(0)), // has a child of its own
            span(40, 60, Some(0)), // overlaps the next one
            span(50, 75, Some(0)),
            span(12, 20, Some(1)),
            span(80, 110, None),
            span(90, 120, Some(5)), // sticks out of its parent by 10
        ];
        assert_eq!(self_times(&spans), [45, 12, 20, 25, 8, 10, 30]);
    }

    #[test]
    fn chained_stamps_leave_no_gap() {
        let mut st = Stamps::new(Clock::start());
        st.restart::<true>();
        st.mark::<true>(Kind::Begin);
        st.mark::<true>(Kind::Child);
        st.mark::<false>(Kind::Read);
        let calls: Vec<_> = st.calls().collect();
        assert_eq!(calls.len(), 2);
        assert_eq!((calls[0].0, calls[1].0), (Kind::Begin, Kind::Child));
        assert_eq!(
            calls[0].2, calls[1].1,
            "one stamp ends a span and starts the next"
        );
        assert!(calls[0].1 <= calls[0].2 && calls[1].1 <= calls[1].2);
    }

    #[test]
    fn jsonl_has_one_line_per_span_with_offset_ids() {
        let spans = [span(0, 10, None), span(2, 6, Some(0))];
        let mut out = Vec::new();
        write_jsonl(&mut out, 100, &spans).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0]
            .starts_with("{\"id\":100,\"name\":\"tx\",\"start\":0,\"end\":10,\"parent\":null"));
        assert!(lines[0].ends_with("\"self\":6}"));
        assert!(lines[1].contains("\"parent\":100"));
    }
}
