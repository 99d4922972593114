//! Totally ordered runtime action traces.
//!
//! A [`TraceRecorder`] plugged into [`crate::RtConfig::trace`] logs every
//! lock grant, version install, inheritance, commit, abort, rollback and
//! injected fault in one global sequence. Events touching an object are
//! recorded while the object's mutex is held, so conflicting events are
//! stamped in their real order; the log is a valid linearisation of the
//! execution — the runtime-side counterpart of the model's schedules.
//!
//! The recorder itself is **sharded**: a global atomic sequence counter
//! stamps each event, and the stamped event is appended to a per-thread
//! stripe buffer. Recording therefore never takes a lock shared with other
//! threads (the stripe mutex is effectively thread-private), yet
//! [`TraceRecorder::events`] still yields the totally ordered log the
//! conformance layer requires, by merging the stripes on their stamps. The
//! stamp is the linearisation point: it is drawn while the same object
//! mutex is held that the pre-shard recorder serialised on, so order
//! between causally related events is exactly what a single global buffer
//! would have recorded.
//!
//! Two uses drive the design:
//!
//! * **replay checking** — [`TraceRecorder::render`] produces one line per
//!   event in a stable textual form, so two runs of the same seeded,
//!   single-threaded scenario can be compared byte for byte;
//! * **certification** — [`TraceRecorder::events`] feeds the Theorem 34
//!   conformance check, and [`TraceRecorder::stamped_events`] keeps each
//!   event's stamp and recording thread for the happens-before certifier.
//!
//! When [`crate::RtConfig::trace`] is `None` every hook is a single branch
//! on an `Option`; nothing is allocated or locked.

use crate::sync::atomic::{AtomicU64, Ordering};
use std::fmt::Write as _;

use crate::sync::Mutex;

use crate::fault::FaultAction;
use crate::shard::{thread_index, CachePadded};

/// Number of trace buffer stripes (power of two).
const TRACE_SHARDS: usize = 16;

/// One recorded runtime action.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RtEvent {
    /// A transaction began (`parent == None` for top level).
    Begin {
        /// New transaction id.
        tx: u64,
        /// Parent id, if nested.
        parent: Option<u64>,
    },
    /// A read lock was granted (or re-confirmed) to `tx` on `obj`.
    ReadGrant {
        /// Lock owner (the effective owner under the configured mode).
        tx: u64,
        /// Object index.
        obj: usize,
    },
    /// A write lock was granted to `tx` on `obj`.
    WriteGrant {
        /// Lock owner.
        tx: u64,
        /// Object index.
        obj: usize,
    },
    /// A fresh uncommitted version owned by `tx` was pushed on `obj`'s
    /// chain (omitted when a write reuses the owner's existing version).
    VersionInstall {
        /// Version owner.
        tx: u64,
        /// Object index.
        obj: usize,
    },
    /// A lock request by `tx` on `obj` blocked at least once.
    Wait {
        /// Blocked requester.
        tx: u64,
        /// Object index.
        obj: usize,
        /// Whether a write lock was requested.
        write: bool,
    },
    /// A releasing thread delivered one batched grant *wave* on `obj`:
    /// it dequeued `readers + writers` compatible waiters, installed all
    /// their lock state, and woke them. Immediately followed by the
    /// per-waiter [`RtEvent::ReadGrant`]/[`RtEvent::WriteGrant`] events of
    /// the wave, all stamped contiguously under the same object mutex (see
    /// [`TraceRecorder::publish_batch`]). Never appears in single-threaded
    /// runs: a lone thread is granted inline or fails fast, it cannot be
    /// handed to.
    HandoffWave {
        /// Object index.
        obj: usize,
        /// Read grants in the wave.
        readers: usize,
        /// Write grants in the wave (0 or 1: a write grant latches the
        /// object until applied, ending the wave).
        writers: usize,
    },
    /// `tx` committed (`top` marks a top-level, publishing commit).
    /// Recorded after the state transition, before lock inheritance.
    Commit {
        /// Committing transaction.
        tx: u64,
        /// `true` for a top-level commit.
        top: bool,
    },
    /// Commit-time inheritance moved `tx`'s lock/version on `obj` to
    /// `heir` (`None` = published as the committed state).
    Inherit {
        /// The committed holder.
        tx: u64,
        /// The inheriting parent, if any.
        heir: Option<u64>,
        /// Object index.
        obj: usize,
    },
    /// `tx` transitioned to aborted (one event per subtree node).
    Abort {
        /// Aborted transaction.
        tx: u64,
    },
    /// Abort-time rollback on `obj`: versions and read locks held by the
    /// subtree rooted at `tx` were discarded.
    Rollback {
        /// Subtree root of the abort.
        tx: u64,
        /// Object index.
        obj: usize,
        /// Versions discarded.
        versions: usize,
        /// Read locks discarded.
        readers: usize,
    },
    /// A committed version was published to `obj`'s snapshot chain at
    /// commit timestamp `ts` (top-level commit inheritance; stamped under
    /// the object mutex, so it orders against grants on the same object).
    Publish {
        /// The committing top-level transaction.
        tx: u64,
        /// Object index.
        obj: usize,
        /// The commit timestamp of the published version.
        ts: u64,
    },
    /// A lock-free snapshot read on `obj` was served at snapshot
    /// timestamp `ts` (`tx == 0` for reads through a detached
    /// [`crate::Snapshot`] handle rather than a transaction).
    SnapRead {
        /// The reading transaction, or 0 for a detached snapshot handle.
        tx: u64,
        /// Object index.
        obj: usize,
        /// The snapshot timestamp the read was served at.
        ts: u64,
    },
    /// A deadlock cycle was detected; `victim` was chosen to die.
    Deadlock {
        /// The requester whose wait closed the cycle.
        waiter: u64,
        /// The top-level transaction chosen as victim.
        victim: u64,
        /// Number of top-level transactions in the cycle.
        cycle_len: usize,
    },
    /// An injected fault fired (recorded only when the action is applied).
    Fault {
        /// Transaction at the yield point.
        tx: u64,
        /// Object index, if the point was a lock request.
        obj: Option<usize>,
        /// The applied action (never [`FaultAction::Continue`]).
        action: FaultAction,
    },
    /// A committing transaction's `Commit` record reached the write-ahead
    /// log (appended inside the turnstile window at commit timestamp `ts`).
    WalAppend {
        /// The committing top-level transaction.
        tx: u64,
        /// Its commit timestamp.
        ts: u64,
        /// Durable objects in the record (one entry each).
        objects: usize,
    },
    /// The WAL rotated to a fresh segment headed by a full snapshot of all
    /// durable objects.
    Checkpoint {
        /// Cut timestamp of the snapshot.
        ts: u64,
        /// Durable objects captured.
        objects: usize,
    },
    /// A crash-recovery pass rebuilt committed state from the log.
    Recovered {
        /// Committed transactions redone.
        commits: u64,
        /// The clock value restored (highest recovered commit timestamp).
        ts: u64,
    },
    /// A queued waiter observed its grant and resumed: recorded under the
    /// object mutex when the woken requester re-enters the slot and applies
    /// (write) or confirms (read) the lock state a releaser installed for
    /// it. Pairs a preceding [`RtEvent::Wait`] with the grant that resolved
    /// it — the HB certifier's wake edge.
    Resume {
        /// The formerly blocked requester.
        tx: u64,
        /// Object index.
        obj: usize,
        /// Whether the resolved request was a write.
        write: bool,
    },
    /// A queued waiter was withdrawn by its own side (async drop, or its
    /// deadline passing and the withdrawal winning the state CAS) instead
    /// of being granted. Exactly one
    /// of {grant, withdraw, cancel} may resolve any single wait.
    Withdraw {
        /// The withdrawn requester.
        tx: u64,
        /// Object index.
        obj: usize,
    },
    /// A queued waiter was cancelled by the *releasing* side because its
    /// transaction was already doomed (fault injection or deadlock victim):
    /// the doom-resolution counterpart of [`RtEvent::Withdraw`].
    CancelWaiter {
        /// The cancelled requester.
        tx: u64,
        /// Object index.
        obj: usize,
    },
    /// The commit turnstile advanced: the ticket holder for commit
    /// timestamp `ts` finished publishing and stored the new clock.
    /// Recorded by the ticket's drop, after every `Publish` of that commit
    /// and before any ticket with a later timestamp can pass — the total
    /// order the HB certifier checks for density and publish containment.
    TsAdvance {
        /// The commit timestamp the turnstile advanced to.
        ts: u64,
    },
}

impl RtEvent {
    /// The event's one-line stable textual form, without the trailing
    /// newline — the same text [`TraceRecorder::render`] emits. Public so
    /// diagnostic consumers (the `ntx-hb` certifier's counterexample
    /// slices) can speak the trace language instead of `Debug` output.
    pub fn render_line(&self) -> String {
        let mut s = String::new();
        self.render_into(&mut s);
        s.pop();
        s
    }

    fn render_into(&self, out: &mut String) {
        match *self {
            RtEvent::Begin { tx, parent } => match parent {
                Some(p) => _ = writeln!(out, "BEGIN tx={tx} parent={p}"),
                None => _ = writeln!(out, "BEGIN tx={tx} parent=-"),
            },
            RtEvent::ReadGrant { tx, obj } => _ = writeln!(out, "RGRANT tx={tx} obj={obj}"),
            RtEvent::WriteGrant { tx, obj } => _ = writeln!(out, "WGRANT tx={tx} obj={obj}"),
            RtEvent::VersionInstall { tx, obj } => {
                _ = writeln!(out, "VERSION tx={tx} obj={obj}");
            }
            RtEvent::Wait { tx, obj, write } => {
                _ = writeln!(out, "WAIT tx={tx} obj={obj} write={write}");
            }
            RtEvent::HandoffWave {
                obj,
                readers,
                writers,
            } => {
                _ = writeln!(out, "WAVE obj={obj} readers={readers} writers={writers}");
            }
            RtEvent::Commit { tx, top } => _ = writeln!(out, "COMMIT tx={tx} top={top}"),
            RtEvent::Inherit { tx, heir, obj } => match heir {
                Some(h) => _ = writeln!(out, "INHERIT tx={tx} heir={h} obj={obj}"),
                None => _ = writeln!(out, "INHERIT tx={tx} heir=base obj={obj}"),
            },
            RtEvent::Abort { tx } => _ = writeln!(out, "ABORT tx={tx}"),
            RtEvent::Publish { tx, obj, ts } => {
                _ = writeln!(out, "PUBLISH tx={tx} obj={obj} ts={ts}");
            }
            RtEvent::SnapRead { tx, obj, ts } => {
                _ = writeln!(out, "SNAPREAD tx={tx} obj={obj} ts={ts}");
            }
            RtEvent::Rollback {
                tx,
                obj,
                versions,
                readers,
            } => {
                _ = writeln!(
                    out,
                    "ROLLBACK tx={tx} obj={obj} versions={versions} readers={readers}"
                );
            }
            RtEvent::Deadlock {
                waiter,
                victim,
                cycle_len,
            } => {
                _ = writeln!(
                    out,
                    "DEADLOCK waiter={waiter} victim={victim} cycle={cycle_len}"
                );
            }
            RtEvent::Fault { tx, obj, action } => match obj {
                Some(o) => _ = writeln!(out, "FAULT tx={tx} obj={o} action={action}"),
                None => _ = writeln!(out, "FAULT tx={tx} obj=- action={action}"),
            },
            RtEvent::WalAppend { tx, ts, objects } => {
                _ = writeln!(out, "WALAPPEND tx={tx} ts={ts} objects={objects}");
            }
            RtEvent::Checkpoint { ts, objects } => {
                _ = writeln!(out, "CHECKPOINT ts={ts} objects={objects}");
            }
            RtEvent::Recovered { commits, ts } => {
                _ = writeln!(out, "RECOVERED commits={commits} ts={ts}");
            }
            RtEvent::Resume { tx, obj, write } => {
                _ = writeln!(out, "RESUME tx={tx} obj={obj} write={write}");
            }
            RtEvent::Withdraw { tx, obj } => _ = writeln!(out, "WITHDRAW tx={tx} obj={obj}"),
            RtEvent::CancelWaiter { tx, obj } => _ = writeln!(out, "CANCEL tx={tx} obj={obj}"),
            RtEvent::TsAdvance { ts } => _ = writeln!(out, "TSADV ts={ts}"),
        }
    }
}

/// One recorded event together with its provenance: the global sequence
/// stamp (linearisation order) and the recording thread's stable index
/// (program order within a thread). This is the record the happens-before
/// certifier consumes; [`TraceRecorder::events`] strips it back down to the
/// plain event stream.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Stamped {
    /// Global sequence stamp: the event's position in the total order.
    pub stamp: u64,
    /// Stable index of the thread that recorded the event (from the same
    /// per-thread counter that picks the stripe), i.e. task provenance.
    pub tid: u64,
    /// The event itself.
    pub ev: RtEvent,
}

/// One shard's buffer: events paired with their global sequence stamps
/// and the recording thread's index.
type StampedBuf = Mutex<Vec<Stamped>>;

/// Thread-safe, sharded accumulator for [`RtEvent`]s (see module docs).
#[derive(Default)]
pub struct TraceRecorder {
    seq: CachePadded<AtomicU64>,
    shards: [CachePadded<StampedBuf>; TRACE_SHARDS],
}

impl TraceRecorder {
    /// A fresh, empty recorder.
    pub fn new() -> TraceRecorder {
        TraceRecorder::default()
    }

    /// Append one event. The sequence stamp is drawn here — under whatever
    /// locks the caller already holds — so it is the event's linearisation
    /// point; the buffer append itself only touches the calling thread's
    /// stripe.
    pub fn record(&self, ev: RtEvent) {
        // relaxed(trace-stamp): `fetch_add` is an atomic RMW, so stamps are
        // unique and totally ordered even relaxed; the merge in `events()`
        // sorts by stamp and runs at quiescence.
        let stamp = self.seq.0.fetch_add(1, Ordering::Relaxed);
        let tid = thread_index();
        self.shards[tid % TRACE_SHARDS].0.lock().push(Stamped {
            stamp,
            tid: tid as u64,
            ev,
        });
    }

    /// Append a contiguous batch of events with **one** sequence-stamp
    /// reservation and one stripe append: event `i` of the batch gets stamp
    /// `base + i`, so the whole batch occupies a gap-free stamp range and
    /// appears in [`TraceRecorder::events`]' total order exactly in program
    /// order, with no foreign event interleaved. Used by the grant-wave
    /// path to publish `HANDOFF_WAVE` plus the wave's per-waiter grants at
    /// the cost of a single atomic RMW instead of one per event.
    pub fn publish_batch(&self, evs: &[RtEvent]) {
        if evs.is_empty() {
            return;
        }
        // relaxed(trace-stamp): same argument as `record` — the RMW makes
        // the reserved range unique and totally ordered; `events()` sorts
        // by stamp at quiescence.
        let base = self.seq.0.fetch_add(evs.len() as u64, Ordering::Relaxed);
        let tid = thread_index();
        let mut buf = self.shards[tid % TRACE_SHARDS].0.lock();
        buf.reserve(evs.len());
        for (i, ev) in evs.iter().enumerate() {
            buf.push(Stamped {
                stamp: base + i as u64,
                tid: tid as u64,
                ev: *ev,
            });
        }
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.0.lock().len()).sum()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the event log, merged into stamp (= linearisation)
    /// order. Call at quiescence for a complete log; concurrent recorders
    /// may have drawn stamps they have not yet published.
    pub fn events(&self) -> Vec<RtEvent> {
        self.stamped_events().into_iter().map(|s| s.ev).collect()
    }

    /// Snapshot of the event log with full provenance — sequence stamp and
    /// recording-thread index — merged into stamp order. Same quiescence
    /// caveat as [`TraceRecorder::events`]. This is the input the
    /// `ntx-hb` happens-before certifier replays.
    pub fn stamped_events(&self) -> Vec<Stamped> {
        let mut stamped: Vec<Stamped> = Vec::with_capacity(self.len());
        for shard in &self.shards {
            stamped.extend(shard.0.lock().iter().copied());
        }
        stamped.sort_unstable_by_key(|s| s.stamp);
        stamped
    }

    /// Render the log one line per event, in a form stable across runs —
    /// two identical executions produce byte-identical output.
    pub fn render(&self) -> String {
        let events = self.events();
        let mut out = String::with_capacity(events.len() * 24);
        for ev in &events {
            ev.render_into(&mut out);
        }
        out
    }
}

impl std::fmt::Debug for TraceRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TraceRecorder({} events)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_is_stable_and_complete() {
        let t = TraceRecorder::new();
        t.record(RtEvent::Begin {
            tx: 1,
            parent: None,
        });
        t.record(RtEvent::WriteGrant { tx: 1, obj: 0 });
        t.record(RtEvent::VersionInstall { tx: 1, obj: 0 });
        t.record(RtEvent::Commit { tx: 1, top: true });
        t.record(RtEvent::Inherit {
            tx: 1,
            heir: None,
            obj: 0,
        });
        let s = t.render();
        assert_eq!(
            s,
            "BEGIN tx=1 parent=-\nWGRANT tx=1 obj=0\nVERSION tx=1 obj=0\n\
             COMMIT tx=1 top=true\nINHERIT tx=1 heir=base obj=0\n"
        );
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn new_async_era_events_render_stably() {
        let t = TraceRecorder::new();
        t.record(RtEvent::Wait {
            tx: 7,
            obj: 2,
            write: true,
        });
        t.record(RtEvent::Resume {
            tx: 7,
            obj: 2,
            write: true,
        });
        t.record(RtEvent::Withdraw { tx: 8, obj: 2 });
        t.record(RtEvent::CancelWaiter { tx: 9, obj: 2 });
        t.record(RtEvent::TsAdvance { ts: 4 });
        assert_eq!(
            t.render(),
            "WAIT tx=7 obj=2 write=true\nRESUME tx=7 obj=2 write=true\n\
             WITHDRAW tx=8 obj=2\nCANCEL tx=9 obj=2\nTSADV ts=4\n"
        );
    }

    #[test]
    fn stamped_events_carry_thread_provenance() {
        let t = std::sync::Arc::new(TraceRecorder::new());
        t.record(RtEvent::Begin {
            tx: 1,
            parent: None,
        });
        let t2 = t.clone();
        std::thread::spawn(move || {
            t2.record(RtEvent::Begin {
                tx: 2,
                parent: None,
            });
        })
        .join()
        .unwrap();
        let st = t.stamped_events();
        assert_eq!(st.len(), 2);
        // Stamps are the merge key and stay unique.
        assert!(st[0].stamp < st[1].stamp);
        // The two events came from different threads.
        assert_ne!(st[0].tid, st[1].tid);
        // events() is the projection of stamped_events().
        assert_eq!(t.events(), st.iter().map(|s| s.ev).collect::<Vec<_>>());
    }

    #[test]
    fn events_snapshot_round_trips() {
        let t = TraceRecorder::new();
        let ev = RtEvent::Rollback {
            tx: 3,
            obj: 1,
            versions: 2,
            readers: 1,
        };
        t.record(ev);
        assert_eq!(t.events(), vec![ev]);
        assert!(t
            .render()
            .contains("ROLLBACK tx=3 obj=1 versions=2 readers=1"));
    }

    #[test]
    fn publish_batch_stamps_stay_unique_and_program_ordered() {
        // Many threads interleave batches and singles; afterwards every
        // batch must appear contiguously (no foreign event inside it) and
        // in its internal program order, and all stamps must be unique.
        let t = std::sync::Arc::new(TraceRecorder::new());
        let handles: Vec<_> = (0..4u64)
            .map(|tid| {
                let t = t.clone();
                std::thread::spawn(move || {
                    for i in 0..50u64 {
                        let wave = [
                            RtEvent::HandoffWave {
                                obj: tid as usize,
                                readers: 2,
                                writers: 0,
                            },
                            RtEvent::ReadGrant {
                                tx: tid * 1000 + i,
                                obj: tid as usize,
                            },
                            RtEvent::ReadGrant {
                                tx: tid * 1000 + i,
                                obj: tid as usize + 100,
                            },
                        ];
                        t.publish_batch(&wave);
                        t.record(RtEvent::Commit {
                            tx: tid * 1000 + i,
                            top: false,
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Unique stamps: the merged log is complete and duplicate-free.
        let evs = t.events();
        assert_eq!(evs.len(), 4 * 50 * 4);
        // Every HandoffWave is immediately followed by its own two grants.
        for (i, ev) in evs.iter().enumerate() {
            if let RtEvent::HandoffWave { obj, .. } = *ev {
                match (evs[i + 1], evs[i + 2]) {
                    (
                        RtEvent::ReadGrant { tx: a, obj: o1 },
                        RtEvent::ReadGrant { tx: b, obj: o2 },
                    ) => {
                        assert_eq!(a, b, "batch interleaved at {i}");
                        assert_eq!(o1, obj, "wave's first grant out of order");
                        assert_eq!(o2, obj + 100, "wave's grants out of program order");
                    }
                    other => panic!("foreign event inside a batch at {i}: {other:?}"),
                }
            }
        }
        // Empty batches are a no-op.
        let before = t.len();
        t.publish_batch(&[]);
        assert_eq!(t.len(), before);
    }

    #[test]
    fn cross_thread_events_merge_in_stamp_order() {
        let t = std::sync::Arc::new(TraceRecorder::new());
        let handles: Vec<_> = (0..4u64)
            .map(|tid| {
                let t = t.clone();
                std::thread::spawn(move || {
                    for i in 0..100 {
                        t.record(RtEvent::ReadGrant {
                            tx: tid,
                            obj: i as usize,
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let evs = t.events();
        assert_eq!(evs.len(), 400);
        // Each thread's events appear in its program order after the merge.
        for tid in 0..4u64 {
            let objs: Vec<usize> = evs
                .iter()
                .filter_map(|e| match *e {
                    RtEvent::ReadGrant { tx, obj } if tx == tid => Some(obj),
                    _ => None,
                })
                .collect();
            assert_eq!(objs, (0..100).collect::<Vec<_>>());
        }
    }
}
