//! What one closed-loop client remembers about its run.
//!
//! A client goes through two phases with the same loop: a warm-up of a fixed
//! number of transactions, which belongs to set-up, and the timed phase of
//! back-to-back slices. Latencies go into one preallocated histogram per
//! slice, so the generator's memory does not grow with the run.
//!
//! In a traced run the even slices are traced and the odd ones are not, so
//! that one process yields both the spans and what recording them costs.

use crate::hist::Hist;
use crate::span::{Clock, Kind, Span, Stamps};

/// Transactions per traced slice and client whose spans are kept one by one
/// for the trace file; every traced transaction feeds the span histograms.
const RAW_TX_PER_SLICE: u32 = 100;

/// Span histograms and kept spans of a traced client.
pub struct Trace {
    /// One histogram per [`Kind`], over the traced slices.
    pub kinds: Vec<Hist>,
    /// Spans kept for the trace file.
    pub raw: Vec<Span>,
    raw_slice: u64,
    raw_left: u32,
}

/// Per-client record of warm-up and timed phase.
pub struct Recorder {
    clock: Clock,
    client: usize,
    warmup_left: u64,
    t0: u64,
    slice_ns: u64,
    /// Latency of committed transactions, by the slice they ended in.
    pub slices: Vec<Hist>,
    /// Transactions committed since the client started, warm-up and the one
    /// that ran over the end included: what the counters must add up to.
    pub committed: u64,
    /// Transactions that ended inside the timed phase.
    pub attempted: u64,
    /// Of those, given up after the last retry.
    pub failed: u64,
    /// Retries spent on transactions of the timed phase.
    pub retries: u64,
    /// Present in a traced run.
    pub trace: Option<Trace>,
}

impl Recorder {
    /// A recorder for client `client` with `slices` timed slices.
    pub fn new(clock: Clock, client: usize, slices: usize, traced: bool) -> Recorder {
        Recorder {
            clock,
            client,
            warmup_left: 0,
            t0: 0,
            slice_ns: 1,
            slices: (0..slices).map(|_| Hist::new()).collect(),
            committed: 0,
            attempted: 0,
            failed: 0,
            retries: 0,
            trace: traced.then(|| Trace {
                kinds: (0..Kind::COUNT).map(|_| Hist::new()).collect(),
                raw: Vec::with_capacity(slices.div_ceil(2) * RAW_TX_PER_SLICE as usize * 12),
                raw_slice: u64::MAX,
                raw_left: 0,
            }),
        }
    }

    /// The clock this recorder stamps with.
    pub fn clock(&self) -> Clock {
        self.clock
    }

    /// Enter the warm-up: [`Recorder::end_tx`] says stop after `n` calls.
    pub fn start_warmup(&mut self, n: u64) {
        self.warmup_left = n;
    }

    /// Enter the timed phase, which started at `t0`.
    pub fn start_timed(&mut self, t0: u64, slice_ns: u64) {
        self.warmup_left = 0;
        self.t0 = t0;
        self.slice_ns = slice_ns;
    }

    /// Whether the transaction that starts at `t_prev` is to be traced.
    #[inline]
    pub fn traces(&self, t_prev: u64) -> bool {
        self.trace.is_some()
            && self.warmup_left == 0
            && ((t_prev - self.t0) / self.slice_ns).is_multiple_of(2)
    }

    /// A transaction has ended, committed (`ok`) or given up. `t_prev` is
    /// when the client's previous one ended and is moved to now. Returns
    /// whether the client should start another.
    #[inline]
    pub fn end_tx(
        &mut self,
        t_prev: &mut u64,
        ok: bool,
        retries: u32,
        st: Option<&Stamps>,
    ) -> bool {
        self.committed += u64::from(ok);
        if self.warmup_left > 0 {
            self.warmup_left -= 1;
            return self.warmup_left > 0;
        }
        let now = self.clock.now();
        let slice = (now - self.t0) / self.slice_ns;
        if slice >= self.slices.len() as u64 {
            return false;
        }
        self.attempted += 1;
        self.retries += u64::from(retries);
        if ok {
            self.slices[slice as usize].record(now - *t_prev);
            if let Some(st) = st {
                self.record_spans(*t_prev, now, slice, st);
            }
        } else {
            self.failed += 1;
        }
        *t_prev = now;
        true
    }

    /// Turn the stamps of a committed transaction into spans. A stamp of a
    /// frame kind closes a round trip that the preceding `ClientWrite` stamp
    /// opened: the write and the wait become children of the round trip.
    fn record_spans(&mut self, t_prev: u64, now: u64, slice: u64, st: &Stamps) {
        let tx = (self.client as u64) << 48 | self.attempted;
        let trace = self
            .trace
            .as_mut()
            .expect("stamps are only taken when tracing");
        if trace.raw_slice != slice {
            trace.raw_slice = slice;
            trace.raw_left = RAW_TX_PER_SLICE;
        }
        let keep = trace.raw_left > 0;
        trace.raw_left = trace.raw_left.saturating_sub(1);
        // Returns the new span's index, for its children to point at.
        let push = |raw: &mut Vec<Span>, kind, start, end, parent| {
            keep.then(|| {
                raw.push(Span {
                    kind,
                    start,
                    end,
                    parent,
                    tx,
                });
                (raw.len() - 1) as u32
            })
        };
        trace.kinds[Kind::Tx as usize].record(now - t_prev);
        let root = push(&mut trace.raw, Kind::Tx, t_prev, now, None);
        let mut write_start = 0;
        for (kind, start, end) in st.calls() {
            if kind == Kind::ClientWrite {
                trace.kinds[kind as usize].record(end - start);
                write_start = start;
            } else if kind as usize >= Kind::RttBegin as usize {
                // `start` is where the write ended and the wait began.
                trace.kinds[Kind::ClientWait as usize].record(end - start);
                trace.kinds[kind as usize].record(end - write_start);
                let rtt = push(&mut trace.raw, kind, write_start, end, root);
                push(&mut trace.raw, Kind::ClientWrite, write_start, start, rtt);
                push(&mut trace.raw, Kind::ClientWait, start, end, rtt);
            } else {
                trace.kinds[kind as usize].record(end - start);
                push(&mut trace.raw, kind, start, end, root);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warmup_counts_then_slices_fill() {
        let clock = Clock::start();
        let mut rec = Recorder::new(clock, 0, 2, false);
        rec.start_warmup(3);
        let mut t_prev = 0;
        assert!(rec.end_tx(&mut t_prev, true, 0, None));
        assert!(rec.end_tx(&mut t_prev, true, 0, None));
        assert!(
            !rec.end_tx(&mut t_prev, true, 0, None),
            "third ends warm-up"
        );
        assert_eq!((rec.committed, rec.attempted), (3, 0));

        let t0 = clock.now();
        rec.start_timed(t0, 3_600_000_000_000);
        t_prev = t0;
        assert!(rec.end_tx(&mut t_prev, true, 2, None));
        assert!(rec.end_tx(&mut t_prev, false, 8, None));
        assert_eq!(
            (rec.committed, rec.attempted, rec.failed, rec.retries),
            (4, 2, 1, 10)
        );
        assert_eq!(
            rec.slices[0].count(),
            1,
            "a failed transaction has no latency"
        );

        // A transaction that ends after the last slice still committed.
        rec.start_timed(t0, 1);
        assert!(!rec.end_tx(&mut t_prev, true, 0, None));
        assert_eq!((rec.committed, rec.attempted), (5, 2));
    }

    #[test]
    fn wire_stamps_become_round_trips_with_write_and_wait_children() {
        let clock = Clock::start();
        let mut rec = Recorder::new(clock, 1, 2, true);
        let t0 = clock.now();
        rec.start_timed(t0, 3_600_000_000_000);
        assert!(rec.traces(t0));
        let mut st = Stamps::new(clock);
        st.restart::<true>();
        st.mark::<true>(Kind::ClientWrite);
        st.mark::<true>(Kind::RttBegin);
        st.mark::<true>(Kind::ClientWrite);
        st.mark::<true>(Kind::RttCommitTop);
        let mut t_prev = t0;
        assert!(rec.end_tx(&mut t_prev, true, 0, Some(&st)));
        let trace = rec.trace.as_ref().unwrap();
        let kinds: Vec<_> = trace.raw.iter().map(|s| (s.kind, s.parent)).collect();
        assert_eq!(
            kinds,
            [
                (Kind::Tx, None),
                (Kind::RttBegin, Some(0)),
                (Kind::ClientWrite, Some(1)),
                (Kind::ClientWait, Some(1)),
                (Kind::RttCommitTop, Some(0)),
                (Kind::ClientWrite, Some(4)),
                (Kind::ClientWait, Some(4)),
            ]
        );
        let (rtt, write, wait) = (trace.raw[1], trace.raw[2], trace.raw[3]);
        assert_eq!((rtt.start, rtt.end), (write.start, wait.end));
        assert_eq!(write.end, wait.start);
        assert_eq!(trace.kinds[Kind::ClientWait as usize].count(), 2);
        assert_eq!(trace.kinds[Kind::ClientWrite as usize].count(), 2);
        assert_eq!(trace.kinds[Kind::Tx as usize].count(), 1);
    }
}
