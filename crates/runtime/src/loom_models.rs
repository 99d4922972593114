//! Loom models of the runtime's lock-free and handoff-critical paths.
//!
//! Compiled only under `RUSTFLAGS="--cfg loom"` and run with
//! `cargo test -p ntx-runtime --lib loom_` — every test explores all thread
//! interleavings reachable within the checker's preemption bound (see
//! `vendor/loom`). The models drive the *real* runtime code — `Slab::push`
//! / `Slab::get`, `ManagerInner::enqueue_waiter` / `timeout_withdraw` /
//! `sweep_slot` / `release_scan` / `abort_subtree` / `commit_child`, the request state
//! machine and its blocking driver (`Access::poll_with` / `drive`),
//! `Stats`, `TraceRecorder` — with hand-built transaction nodes, so every
//! interleaving of the actual grant/cancel/withdraw state machine is
//! checked, not a re-derivation of it.
//!
//! What each model proves is spelled out per test and summarised in
//! `DESIGN.md` ("Concurrency correctness tooling").

use std::task::{Poll, Wake, Waker};
use std::time::{Duration, Instant};

use std::num::NonZeroU64;

use crate::config::RtConfig;
use crate::deadlock::Cycle;
use crate::error::TxError;
use crate::future::{Access, Parker};
use crate::manager::{top_edge, ManagerInner};
use crate::mvcc::{Detached, SnapshotCell, Version};
use crate::node::TxNode;
use crate::object::{
    ObjectInner, ObjectSlot, StateRef, Waiter, W_CANCELLED, W_GRANTED, W_TIMEDOUT, W_WAITING,
};
use crate::slab::Slab;
use crate::stats::{Ctr, Stats};
use crate::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use crate::sync::Arc;
use crate::trace::{RtEvent, TraceRecorder};

/// A bare manager (no `TxManager` wrapper) so models can reach the
/// `pub(crate)` waiter-path entry points directly.
fn mk_mgr() -> Arc<ManagerInner> {
    Arc::new(ManagerInner {
        config: RtConfig {
            wait_timeout: Duration::from_millis(50),
            ..RtConfig::default()
        },
        objects: Slab::new(),
        names: crate::sync::Mutex::new(crate::object::Names::default()),
        next_tx_id: AtomicU64::new(1),
        stats: Stats::default(),
        ts_alloc: AtomicU64::new(0),
        commit_ts: AtomicU64::new(0),
        live_snapshots: crate::sync::Mutex::new(std::collections::BTreeMap::new()),
        snapshots_open: AtomicUsize::new(0),
        wal: None,
        sweeper: crate::sweeper::Sweeper::new(crate::sync::Weak::new(), Duration::from_millis(50)),
    })
}

/// A sweep instant past every deadline the models' 50 ms timeout can
/// produce: whatever is queued when the step runs has expired.
fn all_expired() -> Instant {
    Instant::now() + Duration::from_secs(3600)
}

/// Register one object and give `holder` a write lock on it, returning the
/// object index.
fn obj_with_write_holder(mgr: &ManagerInner, holder: &Arc<TxNode>) -> usize {
    let obj = mgr.objects.push(ObjectSlot::new(Version::new(0i64), None));
    let slot = mgr.slot(obj);
    let _ = slot
        .inner
        .lock()
        .writable_state(holder, &slot.snap, &mut Detached::default());
    holder.touch(obj);
    obj
}

/// Enqueue a request of `tx` on `obj` the way `access_attempt` does: the
/// object touched first, so an abort of `tx` reaches the request.
fn enqueue(
    mgr: &ManagerInner,
    g: &mut ObjectInner,
    tx: &Arc<TxNode>,
    obj: usize,
    write: bool,
    waker: &Waker,
) -> (Arc<Waiter>, Option<Cycle>) {
    tx.touch(obj);
    mgr.enqueue_waiter(g, tx, obj, write, Instant::now(), waker)
}

/// The `i64` version a write request was granted.
fn granted_i64(st: StateRef<'_>) -> &mut i64 {
    let StateRef::Write(st) = st else {
        unreachable!("a write request is granted its own version")
    };
    st.as_any_mut().downcast_mut().unwrap()
}

/// A waker that does nothing: for waiters whose wakes the model does not
/// follow (it reads their state directly).
fn noop_waker() -> Waker {
    Waker::noop().clone()
}

/// Counts the wakes of the waker [`counting`] builds, then forwards each.
struct Counting {
    wakes: AtomicUsize,
    inner: Waker,
}

impl Wake for Counting {
    fn wake(self: Arc<Self>) {
        self.wakes.fetch_add(1, Ordering::SeqCst);
        self.inner.wake_by_ref();
    }
}

/// A waker that counts its wakes before passing them to `inner`.
fn counting(inner: Waker) -> (Arc<Counting>, Waker) {
    let c = Arc::new(Counting {
        wakes: AtomicUsize::new(0),
        inner,
    });
    (c.clone(), Waker::from(c))
}

/// Spin (cooperatively) until `w` leaves `W_WAITING`.
fn await_transition(w: &Arc<Waiter>) -> u8 {
    loop {
        let st = w.state();
        if st != W_WAITING {
            return st;
        }
        loom::thread::yield_now();
    }
}

/// **Slab publication**: a concurrent reader that observes `len() == n`
/// must be able to read every slot `< n` fully constructed — no torn or
/// unpublished entry is ever reachable through a completed `push`.
#[test]
fn loom_slab_publish_never_torn() {
    loom::model(|| {
        let slab: Arc<Slab<usize>> = Arc::new(Slab::new());
        let s2 = slab.clone();
        let t = loom::thread::spawn(move || {
            s2.push(10);
            s2.push(11);
        });
        let n = slab.len();
        for i in 0..n {
            // get() would spin forever on an unpublished entry; the len
            // store is ordered after the entry publish, so it never does.
            assert_eq!(*slab.get(i), 10 + i, "torn slab entry at {i}");
        }
        t.join().unwrap();
    });
}

/// **Timeout withdrawal vs concurrent grant**: a waiter whose expiry —
/// the real sweeper step, `sweep_slot` — races the releaser's grant
/// resolves to *exactly one* of {granted, withdrawn}, its wake slot fires
/// exactly once either way (the releaser's `wake()` on a grant, the
/// sweep's on a withdrawal — never both), and the queue and write-pending
/// latch end consistent with whichever side won the CAS.
#[test]
fn loom_timeout_withdraw_vs_grant() {
    loom::model(|| {
        let mgr = mk_mgr();
        let holder = TxNode::top_level(1);
        let waiter_tx = TxNode::top_level(2);
        let obj = obj_with_write_holder(&mgr, &holder);
        let (count, waker) = counting(noop_waker());
        let w = {
            let mut g = mgr.slot(obj).inner.lock();
            enqueue(&mgr, &mut g, &waiter_tx, obj, true, &waker).0
        };
        let (m2, h2) = (mgr.clone(), holder.clone());
        // The releaser: aborting the holder discards its lock and runs the
        // real release scan, which may grant `w` and fire its wake.
        let releaser = loom::thread::spawn(move || {
            m2.abort_subtree(&h2);
        });
        // The sweeper's step, with the waiter's deadline behind it.
        mgr.sweep_slot(obj, all_expired());
        releaser.join().unwrap();

        let st = w.state();
        let withdrawn = st == W_TIMEDOUT;
        if !withdrawn {
            assert_eq!(st, W_GRANTED, "non-withdrawn waiter must hold the grant");
        }
        assert_eq!(
            mgr.stats.snapshot().timeouts,
            withdrawn as u64,
            "a sweep withdrawal is a timeout, a lost race is not"
        );
        assert_eq!(
            count.wakes.load(Ordering::SeqCst),
            1,
            "the wake slot must fire exactly once"
        );
        let g = mgr.slot(obj).inner.lock();
        assert!(g.queue.is_empty(), "waiter leaked in queue");
        if withdrawn {
            assert!(
                g.write_pending.is_none(),
                "latch set with no granted writer"
            );
            assert!(g.chain.is_empty(), "lock state left behind by a withdrawal");
        } else {
            assert_eq!(
                g.write_pending,
                NonZeroU64::new(2),
                "granted writer must hold the latch"
            );
            assert_eq!(g.chain.len(), 1, "granted writer must own the top version");
            assert_eq!(g.chain[0].owner.id, 2);
        }
    });
}

/// **Doom delivery vs concurrent grant**: when an abort of the waiting
/// transaction races the releaser's handoff, the waiter ends either
/// cancelled (doom won the CAS — no lock state for it may exist) or
/// granted-then-rolled-back (grant won — the abort reclaims the installed
/// state). A cancelled waiter is never granted, and no lock state or latch
/// entry for the aborted transaction survives.
#[test]
fn loom_doomed_waiter_never_granted() {
    loom::model(|| {
        let mgr = mk_mgr();
        let holder = TxNode::top_level(1);
        let waiter_tx = TxNode::top_level(2);
        let obj = obj_with_write_holder(&mgr, &holder);
        let w = {
            let mut g = mgr.slot(obj).inner.lock();
            enqueue(&mgr, &mut g, &waiter_tx, obj, true, &noop_waker()).0
        };
        let (m2, h2) = (mgr.clone(), holder.clone());
        let releaser = loom::thread::spawn(move || {
            m2.abort_subtree(&h2);
        });
        // Concurrently, tx 2 is aborted — doom must reach its queue node
        // (if still queued) or reclaim its grant (if the handoff won).
        mgr.abort_subtree(&waiter_tx);
        releaser.join().unwrap();

        let st = w.state();
        assert_ne!(st, W_WAITING, "waiter neither granted nor cancelled");
        let g = mgr.slot(obj).inner.lock();
        assert!(g.queue.is_empty(), "waiter leaked in queue");
        assert!(
            !g.chain.iter().any(|e| e.owner.id == 2),
            "aborted transaction still owns a version"
        );
        assert!(g.readers.iter().all(|r| r.id != 2));
        assert!(
            g.write_pending.is_none(),
            "latch wedged by an aborted writer"
        );
        if st == W_CANCELLED {
            assert!(g.chain.is_empty(), "cancelled waiter left lock state");
        }
    });
}

/// **Mid-queue doom vs release**: A, B and C (tops 2, 3, 4) queue for
/// writes behind holder H (top 1). B's top aborts while H releases, and
/// this thread plays A: it waits for A's grant, then ends A, which hands
/// the lock on. Doom is the aborting side's transition, so B is resolved
/// by the time its abort returns — cancelled in place, or granted first
/// and then rolled back — and no release scan has to look for it. Every
/// waiter ends in exactly one terminal state and is woken exactly once,
/// nothing of B's lock state or latch survives, and the queue, the head's
/// edges and every top's waiter and edge counts are exact (all empty: C
/// holds the lock). An abort that leaves its queued waiters to some later
/// scan fails the first check.
#[test]
fn loom_mid_queue_doom_vs_release() {
    loom::model(|| {
        let mgr = mk_mgr();
        let holder = TxNode::top_level(1);
        let (a_tx, b_tx, c_tx) = (
            TxNode::top_level(2),
            TxNode::top_level(3),
            TxNode::top_level(4),
        );
        let obj = obj_with_write_holder(&mgr, &holder);
        let (a_woken, a_waker) = counting(noop_waker());
        let (b_woken, b_waker) = counting(noop_waker());
        let (c_woken, c_waker) = counting(noop_waker());
        let (a, b, c) = {
            let mut g = mgr.slot(obj).inner.lock();
            let mut enqueue = |tx: &Arc<TxNode>, waker: &Waker| {
                let (w, cycle) = enqueue(&mgr, &mut g, tx, obj, true, waker);
                assert!(cycle.is_none());
                w
            };
            (
                enqueue(&a_tx, &a_waker),
                enqueue(&b_tx, &b_waker),
                enqueue(&c_tx, &c_waker),
            )
        };
        let (m2, b2, bw) = (mgr.clone(), b_tx.clone(), b.clone());
        let aborter = loom::thread::spawn(move || {
            m2.abort_subtree(&b2);
            assert_ne!(bw.state(), W_WAITING, "the abort left B's wait queued");
        });
        let (m3, h3) = (mgr.clone(), holder.clone());
        let releaser = loom::thread::spawn(move || {
            m3.abort_subtree(&h3);
        });
        assert_eq!(await_transition(&a), W_GRANTED, "the head is granted");
        mgr.abort_subtree(&a_tx);
        aborter.join().unwrap();
        releaser.join().unwrap();

        let b_st = b.state();
        assert!(b_st == W_CANCELLED || b_st == W_GRANTED, "B unresolved");
        assert_eq!(c.state(), W_GRANTED, "C is granted once A and B are gone");
        for (who, woken) in [("A", &a_woken), ("B", &b_woken), ("C", &c_woken)] {
            let n = woken.wakes.load(Ordering::SeqCst);
            assert_eq!(n, 1, "{who} woken {n} times");
        }
        assert_eq!(
            mgr.stats.snapshot().cancelled_waiters,
            u64::from(b_st == W_CANCELLED)
        );
        let g = mgr.slot(obj).inner.lock();
        assert!(g.queue.is_empty() && g.head_edges.is_empty());
        assert!(g.readers.is_empty());
        let held: Vec<u64> = g.chain.iter().map(|e| e.owner.id).collect();
        assert_eq!(held, vec![4], "C alone holds x; B's version is gone");
        assert_eq!(g.write_pending, NonZeroU64::new(4), "C's latch, never B's");
        for top in [&holder, &a_tx, &b_tx, &c_tx] {
            assert!(top.wait.is_empty(), "top {} kept wait-for state", top.id);
        }
    });
}

/// **Write-pending latch**: after a write handoff, no compatible waiter
/// behind the writer may be granted — by any scan, however spurious —
/// until the woken writer applies its closure and clears the latch.
#[test]
fn loom_write_pending_latch_blocks_until_apply() {
    loom::model(|| {
        let mgr = mk_mgr();
        let holder = TxNode::top_level(1);
        let writer_tx = TxNode::top_level(2);
        // A descendant of the writer: compatible with the writer's lock
        // (Moss' ancestor rule), so the *latch* is the only thing that may
        // hold it back while the writer's update is still unapplied.
        let reader_tx = TxNode::child_of(&writer_tx, 3);
        let obj = obj_with_write_holder(&mgr, &holder);
        let (w2, w3) = {
            let mut g = mgr.slot(obj).inner.lock();
            (
                enqueue(&mgr, &mut g, &writer_tx, obj, true, &noop_waker()).0,
                enqueue(&mgr, &mut g, &reader_tx, obj, false, &noop_waker()).0,
            )
        };
        let (m2, h2, w3b) = (mgr.clone(), holder.clone(), w3.clone());
        let releaser = loom::thread::spawn(move || {
            m2.abort_subtree(&h2);
            // A spurious extra scan — must still respect the latch.
            let wake = {
                let mut g = m2.slot(obj).inner.lock();
                let wake = m2.release_scan(obj, &mut g);
                if w3b.state() == W_GRANTED {
                    assert!(
                        g.write_pending.is_none(),
                        "reader granted while the write latch was set"
                    );
                }
                wake
            };
            wake.run(&m2);
        });
        // This thread plays the woken writer: wait for the handoff, then
        // apply under the slot mutex exactly as `finish_after_wait` does.
        let st = await_transition(&w2);
        assert_eq!(st, W_GRANTED);
        {
            let slot = mgr.slot(obj);
            let mut g = slot.inner.lock();
            assert_eq!(g.write_pending, NonZeroU64::new(2));
            assert_eq!(
                w3.state(),
                W_WAITING,
                "reader granted before the writer applied"
            );
            let _ = g.write_target(&writer_tx, &slot.snap, &mut Detached::default());
            g.write_pending = None;
            let wake = mgr.release_scan(obj, &mut g);
            drop(g);
            wake.run(&mgr);
        }
        releaser.join().unwrap();
        assert_eq!(
            w3.state(),
            W_GRANTED,
            "reader not granted after the latch cleared"
        );
    });
}

/// **Single write handoff**: with two queued writers, concurrent release
/// scans (the releaser's own plus a spurious one) grant exactly the head —
/// the second writer stays queued behind the latch. A double write grant
/// would let two uncommitted versions race.
#[test]
fn loom_no_double_write_grant() {
    loom::model(|| {
        let mgr = mk_mgr();
        let holder = TxNode::top_level(1);
        let wa_tx = TxNode::top_level(2);
        let wb_tx = TxNode::top_level(3);
        let obj = obj_with_write_holder(&mgr, &holder);
        let (wa, wb) = {
            let mut g = mgr.slot(obj).inner.lock();
            (
                enqueue(&mgr, &mut g, &wa_tx, obj, true, &noop_waker()).0,
                enqueue(&mgr, &mut g, &wb_tx, obj, true, &noop_waker()).0,
            )
        };
        let (m2, h2) = (mgr.clone(), holder.clone());
        let releaser = loom::thread::spawn(move || {
            m2.abort_subtree(&h2);
        });
        // Spurious concurrent scan.
        let wake = {
            let mut g = mgr.slot(obj).inner.lock();
            mgr.release_scan(obj, &mut g)
        };
        wake.run(&mgr);
        releaser.join().unwrap();

        assert_eq!(
            wa.state(),
            W_GRANTED,
            "head writer must receive the handoff"
        );
        assert_eq!(wb.state(), W_WAITING, "second writer granted concurrently");
        let g = mgr.slot(obj).inner.lock();
        assert_eq!(g.write_pending, NonZeroU64::new(2));
        assert_eq!(g.queue.len(), 1, "second writer must stay queued");
    });
}

/// **Batched wave vs concurrent cancellation**: a release scan that
/// coalesces two compatible readers into one grant wave races a timeout
/// withdrawal of the first reader. Every waiter must resolve to *exactly
/// one* of {granted, withdrawn} — the wave never grants a waiter whose
/// cancellation won the CAS, never loses the other reader, and the reader
/// set plus the aggregated wave stats record exactly the granted waiters.
#[test]
fn loom_wave_grant_vs_timeout_withdraw_exactly_one_winner() {
    loom::model(|| {
        let mgr = mk_mgr();
        let holder = TxNode::top_level(1);
        let r2_tx = TxNode::top_level(2);
        let r3_tx = TxNode::top_level(3);
        let obj = obj_with_write_holder(&mgr, &holder);
        let (r2, r3) = {
            let mut g = mgr.slot(obj).inner.lock();
            (
                enqueue(&mgr, &mut g, &r2_tx, obj, false, &noop_waker()).0,
                enqueue(&mgr, &mut g, &r3_tx, obj, false, &noop_waker()).0,
            )
        };
        let (m2, h2) = (mgr.clone(), holder.clone());
        // The releaser: aborting the holder frees the write lock and the
        // scan wave-grants every compatible queued reader.
        let releaser = loom::thread::spawn(move || {
            m2.abort_subtree(&h2);
        });
        // Concurrently the first reader times out and withdraws in place.
        let withdrawn = mgr.timeout_withdraw(obj, &r2);
        releaser.join().unwrap();

        if withdrawn {
            assert_eq!(
                r2.state(),
                W_TIMEDOUT,
                "withdrawn reader must stay timed out"
            );
        } else {
            assert_eq!(
                r2.state(),
                W_GRANTED,
                "non-withdrawn reader must hold its grant"
            );
        }
        assert_eq!(r3.state(), W_GRANTED, "untouched reader lost its grant");
        let g = mgr.slot(obj).inner.lock();
        assert!(g.queue.is_empty(), "waiter leaked in queue");
        assert!(g.chain.is_empty() && g.write_pending.is_none());
        let mut ids: Vec<u64> = g.readers.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        let expect: Vec<u64> = if withdrawn { vec![3] } else { vec![2, 3] };
        assert_eq!(ids, expect, "reader set inconsistent with grant outcomes");
        drop(g);
        let snap = mgr.stats.snapshot();
        assert_eq!(snap.read_grants, expect.len() as u64);
        assert_eq!(snap.wave_grants, expect.len() as u64);
        assert_eq!(snap.handoffs, 1, "the grants must form one wave");
    });
}

/// **Striped stats**: concurrent increments across thread stripes fold to
/// the exact ground-truth total — relaxed per-stripe counters lose nothing.
#[test]
fn loom_stats_fold_equals_ground_truth() {
    loom::model(|| {
        let stats = Arc::new(Stats::default());
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let s = stats.clone();
                loom::thread::spawn(move || {
                    s.bump(Ctr::ReadGrants);
                    s.add(Ctr::ReadGrants, 2);
                })
            })
            .collect();
        stats.bump(Ctr::ReadGrants);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(stats.total(Ctr::ReadGrants), 7);
    });
}

/// **Snapshot publish turnstile**: a top-level commit publishes its
/// versions on *every* object before the commit clock advances over its
/// ticket. A lock-free reader that picks `S = commit_ts` therefore sees
/// the commit on all objects or on none — never a torn multi-object
/// snapshot, never a timestamp inversion (a version with `ts <= S` missing
/// from a chain), never a torn chain node. Advancing the clock before the
/// last publish is exactly the bug this model exists to catch.
#[test]
fn loom_snapshot_publish_turnstile() {
    loom::model(|| {
        let x = Arc::new(SnapshotCell::new(Version::new(0i64)));
        let y = Arc::new(SnapshotCell::new(Version::new(0i64)));
        let clock = Arc::new(AtomicU64::new(0));
        let (x2, y2, c2) = (x.clone(), y.clone(), clock.clone());
        // The committer: publish both objects at ticket 1, then advance
        // the clock — the order `inherit_locks` guarantees.
        let committer = loom::thread::spawn(move || {
            x2.publish(1, Version::new(10i64));
            y2.publish(1, Version::new(20i64));
            c2.store(1, Ordering::SeqCst);
        });
        // The reader: fix S from the clock, then read both objects
        // lock-free at S.
        let s = clock.load(Ordering::SeqCst);
        let (tx_x, vx) = x.read(|| s, |st| *st.downcast_ref::<i64>().unwrap());
        let (tx_y, vy) = y.read(|| s, |st| *st.downcast_ref::<i64>().unwrap());
        committer.join().unwrap();
        if s == 0 {
            assert_eq!(
                (tx_x, vx, tx_y, vy),
                (0, 0, 0, 0),
                "snapshot saw ahead of S"
            );
        } else {
            assert_eq!(
                (tx_x, vx, tx_y, vy),
                (1, 10, 1, 20),
                "commit <= S missing from a chain (timestamp inversion)"
            );
        }
    });
}

/// **Snapshot GC vs lock-free reader**: an ephemeral reader pins the
/// chain *before* choosing `S` from the clock; the collector checks the
/// pin count (after its watermark is fixed) and skips the cell while any
/// reader is inside. Whichever way the race resolves, the reader lands on
/// the version its S designates — never on freed memory, never on a
/// too-old version — and once the reader is gone the chain collapses to
/// the single version at the watermark.
#[test]
fn loom_snapshot_gc_vs_reader() {
    loom::model(|| {
        let x = Arc::new(SnapshotCell::new(Version::new(0i64)));
        x.publish(1, Version::new(10i64));
        let clock = Arc::new(AtomicU64::new(1));
        let (x2, c2) = (x.clone(), clock.clone());
        // The writer: publish ts=2, advance the clock, then collect at
        // the new watermark — the incremental GC a publish performs.
        let writer = loom::thread::spawn(move || {
            x2.publish(2, Version::new(20i64));
            c2.store(2, Ordering::SeqCst);
            x2.collect(c2.load(Ordering::SeqCst)).free()
        });
        // The reader: ephemeral snapshot read, S chosen after pinning.
        let (ts, v) = x.read(
            || clock.load(Ordering::SeqCst),
            |st| *st.downcast_ref::<i64>().unwrap(),
        );
        writer.join().unwrap();
        assert!(
            (ts, v) == (1, 10) || (ts, v) == (2, 20),
            "reader saw a version its snapshot does not designate: ts={ts} v={v}"
        );
        // Quiescent collection reclaims everything below the newest
        // version; the genesis-and-older tail is gone.
        x.collect(2).free();
        assert_eq!(x.chain_len(), 1, "chain not bounded after GC");
    });
}

/// **Sweep step vs grant wave vs future drop** on a two-waiter queue: a
/// real, polled-once `AccessFuture` (writer A, the head) and a queued
/// writer B behind it, both past their deadline. The releaser frees the
/// holder, the sweeper step runs, and A's future is dropped — all
/// concurrently. Each node has exactly one winner (A: grant, sweep or
/// drop; B: grant or sweep), B's wake slot fires exactly once, and B is
/// never left waiting: if the head was granted just before (or while) the
/// sweep ran, the expired waiter behind it is still reached.
#[test]
fn loom_sweep_vs_grant_wave_vs_future_drop() {
    loom::model(|| {
        let mgr = mk_mgr();
        let holder = TxNode::top_level(1);
        let a_tx = TxNode::top_of(mgr.clone(), 2);
        let b_tx = TxNode::top_level(3);
        let obj = obj_with_write_holder(&mgr, &holder);
        let mut fut =
            crate::future::AccessFuture::new(a_tx.clone(), obj, true, Ok(Box::new(|_| ())));
        {
            let waker = noop_waker();
            let mut cx = std::task::Context::from_waker(&waker);
            // SAFETY: `fut` lives on this stack frame and is not moved
            // between this pin and its drop below.
            let pinned = unsafe { std::pin::Pin::new_unchecked(&mut fut) };
            assert!(std::future::Future::poll(pinned, &mut cx).is_pending());
        }
        let (b_woken, b_waker) = counting(noop_waker());
        let (a, b) = {
            let mut g = mgr.slot(obj).inner.lock();
            let a = g.queue[0].clone();
            let b = enqueue(&mgr, &mut g, &b_tx, obj, true, &b_waker).0;
            (a, b)
        };
        let (m2, h2) = (mgr.clone(), holder.clone());
        let releaser = loom::thread::spawn(move || {
            m2.abort_subtree(&h2);
        });
        let m3 = mgr.clone();
        let sweeper = loom::thread::spawn(move || {
            m3.sweep_slot(obj, all_expired());
        });
        drop(fut); // races both
        releaser.join().unwrap();
        sweeper.join().unwrap();

        let (a_st, b_st) = (a.state(), b.state());
        assert!(a_st == W_GRANTED || a_st == W_TIMEDOUT, "head unresolved");
        assert!(
            b_st == W_GRANTED || b_st == W_TIMEDOUT,
            "expired waiter behind the head was never reached"
        );
        if a_st == W_GRANTED {
            // A holds the write lock until its transaction ends, so B can
            // only have left through the sweep.
            assert_eq!(b_st, W_TIMEDOUT, "B granted beside a write holder");
        }
        assert_eq!(
            b_woken.wakes.load(Ordering::SeqCst),
            1,
            "B's wake slot must fire exactly once"
        );
        let snap = mgr.stats.snapshot();
        let gone = (a_st == W_TIMEDOUT) as u64 + (b_st == W_TIMEDOUT) as u64;
        assert_eq!(snap.cancelled_waiters, gone, "one withdrawal per node");
        // B leaves only through the sweep; A through the sweep or its drop.
        assert!(snap.timeouts <= gone && snap.timeouts >= (b_st == W_TIMEDOUT) as u64);
        {
            let g = mgr.slot(obj).inner.lock();
            assert!(g.queue.is_empty(), "waiter leaked in queue");
            let holders: Vec<u64> = g.chain.iter().map(|e| e.owner.id).collect();
            let expect: Vec<u64> = match (a_st, b_st) {
                (W_GRANTED, _) => vec![2],
                (_, W_GRANTED) => vec![3],
                _ => vec![],
            };
            assert_eq!(holders, expect, "lock state inconsistent with outcomes");
            // A's drop lifted its latch; B, granted, never applied.
            assert_eq!(
                g.write_pending,
                NonZeroU64::new(3).filter(|_| b_st == W_GRANTED)
            );
        }
        mgr.abort_subtree(&a_tx);
        mgr.abort_subtree(&b_tx);
        let g = mgr.slot(obj).inner.lock();
        assert!(g.chain.is_empty() && g.write_pending.is_none());
    });
}

/// **Future drop never leaks a queue slot**: dropping a real, polled-once,
/// unresolved `AccessFuture` while a releaser concurrently frees the lock
/// ends with `queued_waiters() == 0` and a consistent object, whichever
/// side wins the state CAS. If the grant won, the lock is held by the
/// transaction (exactly as if the access returned unobserved) with the
/// unapplied-write latch lifted; aborting the transaction must then leave
/// the object completely free.
#[test]
fn loom_future_drop_leaks_no_queue_slot() {
    loom::model(|| {
        let mgr = mk_mgr();
        let holder = TxNode::top_level(1);
        let waiter_tx = TxNode::top_of(mgr.clone(), 2);
        let obj = obj_with_write_holder(&mgr, &holder);
        let mut fut =
            crate::future::AccessFuture::new(waiter_tx.clone(), obj, true, Ok(Box::new(|_| ())));
        {
            let waker = noop_waker();
            let mut cx = std::task::Context::from_waker(&waker);
            // SAFETY: `fut` lives on this stack frame and is not moved
            // between this pin and its drop below.
            let pinned = unsafe { std::pin::Pin::new_unchecked(&mut fut) };
            assert!(
                std::future::Future::poll(pinned, &mut cx).is_pending(),
                "future must queue behind the write holder"
            );
        }
        let (m2, h2) = (mgr.clone(), holder.clone());
        let releaser = loom::thread::spawn(move || {
            m2.abort_subtree(&h2);
        });
        drop(fut); // races the releaser's grant
        releaser.join().unwrap();

        {
            let g = mgr.slot(obj).inner.lock();
            assert!(g.queue.is_empty(), "dropped future leaked a queue slot");
            assert!(
                g.write_pending.is_none(),
                "dropped future left the write latch wedged"
            );
        }
        // If the grant beat the drop, tx 2 now holds the lock; ending the
        // transaction must free the object entirely.
        mgr.abort_subtree(&waiter_tx);
        let g = mgr.slot(obj).inner.lock();
        assert!(g.queue.is_empty());
        assert!(g.chain.is_empty(), "lock state survived the abort");
        assert!(g.write_pending.is_none());
    });
}

/// **Blocking driver: spin-to-park vs grant wave vs sweep**: a writer
/// queued behind a holder is driven by the real blocking driver
/// (`Access::drive`: poll, spin, arm the parker, re-check, park) while a
/// releaser's grant wave and the sweeper's expiry race for its node, and
/// so for the driver's move from spin to park. Whichever wins the state
/// CAS, the wake slot fires exactly once, no wakeup is lost (a driver left
/// parked is a deadlock the checker reports), and the driver returns what
/// the CAS chose: `Ok` with its write applied and the latch lifted on a
/// grant, `Timeout` with nothing held on a withdrawal.
#[test]
fn loom_blocking_driver_vs_grant_and_sweep() {
    loom::model(|| {
        let mgr = mk_mgr();
        let holder = TxNode::top_level(1);
        let waiter_tx = TxNode::top_of(mgr.clone(), 2);
        let obj = obj_with_write_holder(&mgr, &holder);
        let parker = Parker::new();
        let (count, waker) = counting(parker.waker.clone());
        let mut access = Access::new(&waiter_tx, obj, true, |st| *granted_i64(st) = 7);
        assert!(
            access.poll_with(&waker).is_pending(),
            "the writer must queue behind the holder"
        );
        let w = mgr.slot(obj).inner.lock().queue[0].clone();
        let (m2, h2) = (mgr.clone(), holder.clone());
        let releaser = loom::thread::spawn(move || {
            m2.abort_subtree(&h2);
        });
        let m3 = mgr.clone();
        let sweeper = loom::thread::spawn(move || {
            m3.sweep_slot(obj, all_expired());
        });
        let r = access.drive(&waker, &parker);
        releaser.join().unwrap();
        sweeper.join().unwrap();

        let granted = match r {
            Ok(()) => true,
            Err(TxError::Timeout) => false,
            Err(e) => panic!("driver resolved to {e:?}"),
        };
        let want = if granted { W_GRANTED } else { W_TIMEDOUT };
        assert_eq!(w.state(), want, "the driver must report the CAS winner");
        assert_eq!(
            count.wakes.load(Ordering::SeqCst),
            1,
            "the wake slot must fire exactly once"
        );
        let g = mgr.slot(obj).inner.lock();
        assert!(g.queue.is_empty(), "waiter leaked in queue");
        assert!(g.write_pending.is_none(), "the driver left the latch set");
        let held: Vec<(u64, i64)> = g
            .chain
            .iter()
            .map(|e| {
                (
                    e.owner.id,
                    *e.version.state().as_any().downcast_ref::<i64>().unwrap(),
                )
            })
            .collect();
        let expect = if granted { vec![(2, 7)] } else { vec![] };
        assert_eq!(held, expect, "lock state inconsistent with the outcome");
        drop(g);
        // Release what the requester holds: its node holds the manager.
        mgr.abort_subtree(&waiter_tx);
    });
}

/// **Parker: a wake against every step of a park**: the blocking
/// driver's loop (park until the node resolves) on the real [`Parker`],
/// while a resolver resolves the node and wakes the parker, and a stale
/// token — the wake of an earlier wait, arriving late — wakes it too. Each
/// wake is one swap that may land before the arm, between the arm and the
/// re-check, between the re-check and the EMPTY → PARKED CAS, or after
/// the owner sleeps. The driver returns once the node has resolved, parks
/// at most twice (the stale token can end one park early, never more),
/// and never sleeps past a wake: a lost wake leaves it parked with both
/// wakers finished, a deadlock the checker reports.
#[test]
fn loom_parker_never_loses_a_wake() {
    loom::model(|| {
        let parker = Parker::new();
        let resolved = Arc::new(AtomicBool::new(false));
        let stale = parker.waker.clone();
        let stale = loom::thread::spawn(move || stale.wake());
        let (r2, waker) = (resolved.clone(), parker.waker.clone());
        let resolver = loom::thread::spawn(move || {
            r2.store(true, Ordering::SeqCst);
            waker.wake();
        });
        let mut parks = 0;
        while !resolved.load(Ordering::SeqCst) {
            parks += 1;
            parker.park(|| resolved.load(Ordering::SeqCst));
        }
        assert!(parks <= 2, "the driver parked {parks} times");
        stale.join().unwrap();
        resolver.join().unwrap();
    });
}

/// **Lazy child commit vs a same-top enqueue**: a child's commit moves no
/// lock and takes no slot mutex unless its top has a queued request, so
/// the one grant it can enable — a sibling's, queued behind the child's
/// write lock — rests on a Dekker pair: the enqueue counts its request in
/// the top's record before its self-scan reads the holder's state, and
/// the commit changes that state before it reads the count. Either the
/// commit sees the request and rescans, or the self-scan sees the commit.
/// Driven by the real `commit_child` and the real blocking driver (a
/// request left parked is a deadlock the checker reports): the sibling's
/// write lands exactly once, on a version stacked above the one its parent
/// adopted, and nothing is left queued or counted.
#[test]
fn loom_lazy_child_commit_vs_same_top_enqueue() {
    loom::model(|| {
        let mgr = mk_mgr();
        let top = TxNode::top_of(mgr.clone(), 1);
        let c1 = TxNode::child_of(&top, 2);
        let c2 = TxNode::child_of(&top, 3);
        let obj = obj_with_write_holder(&mgr, &c1);
        let (m2, n2) = (mgr.clone(), c1.clone());
        let committer = loom::thread::spawn(move || {
            assert!(m2.commit_child(&n2));
        });
        let parker = Parker::new();
        let (count, waker) = counting(parker.waker.clone());
        let r = Access::new(&c2, obj, true, |st| *granted_i64(st) = 7).drive(&waker, &parker);
        committer.join().unwrap();

        assert_eq!(r, Ok(()), "the sibling's write must be granted");
        let stats = mgr.stats.snapshot();
        assert_eq!(stats.write_grants, 1, "granted exactly once");
        assert_eq!(
            count.wakes.load(Ordering::SeqCst) as u64,
            stats.handoffs,
            "a queued grant wakes its waiter once; an inline one never"
        );
        let g = mgr.slot(obj).inner.lock();
        assert!(g.queue.is_empty() && g.write_pending.is_none());
        assert!(!top.wait.has_waiters(), "a request left counted");
        let held: Vec<(u64, i64)> = g
            .chain
            .iter()
            .map(|e| {
                (
                    e.owner.id,
                    *e.version.state().as_any().downcast_ref::<i64>().unwrap(),
                )
            })
            .collect();
        assert_eq!(
            held,
            vec![(1, 0), (3, 7)],
            "c1's version adopted by the top"
        );
        drop(g);
        // Release the tree's locks: its top holds the manager.
        mgr.abort_subtree(&top);
    });
}

/// Every node queued on `obj` is counted in its top's wait-for record
/// with exactly the edges a fresh computation from its place in the queue
/// gives (each top in these models has one waiter, so its out-edges are
/// that waiter's, each counted once).
fn assert_edges_fresh(mgr: &ManagerInner, obj: usize) {
    let g = mgr.slot(obj).inner.lock();
    for (i, w) in g.queue.iter().enumerate() {
        let fresh: Vec<u64> = match i.checked_sub(1) {
            None => g.holder_tops(&w.node, w.write).to_vec(),
            Some(ahead) => top_edge(&g.queue[ahead], w).into_iter().collect(),
        };
        let published: Vec<(u64, usize)> = fresh.iter().map(|&t| (t, 1)).collect();
        assert_eq!(
            w.node.top().wait.out_edges(),
            published,
            "top {} at queue index {i}",
            w.node.id
        );
    }
}

/// Every edge pointing at one of `tops` is counted in its `inbound`: the
/// tops' out-edges, summed per target.
fn assert_inbound_exact(tops: &[&Arc<TxNode>]) {
    for t in tops {
        let into: usize = tops
            .iter()
            .flat_map(|s| s.wait.out_edges())
            .filter(|e| e.0 == t.id)
            .map(|e| e.1)
            .sum();
        assert_eq!(t.wait.inbound(), into, "edges into top {}", t.id);
    }
}

/// **Leave vs grant wave vs enqueue search, on the wait-for edges**: A
/// (top 2) heads x's queue behind holder H (top 1), B (top 3) waits behind
/// A. A's timeout withdrawal races the releaser's wave (H aborts: the wave
/// promotes A, or B when A has left), and a third waiter D (top 4, which
/// holds y, where E waits — so an edge points at 4 and D's enqueue
/// searches) enters x's queue and walks the graph while the other two
/// threads rewrite it. Each node has exactly one winner; every queued
/// node's edges, B's included, equal a fresh computation from its queue
/// and the tops that left keep none; every record counts exactly its
/// top's queued nodes, and every `inbound` count is exact. A dequeue that
/// skips its successor's edge move leaves B pointing at A's top (or at it
/// twice) and fails here.
#[test]
fn loom_withdraw_vs_wave_vs_enqueue_search_keeps_edges_exact() {
    loom::model(|| {
        let mgr = mk_mgr();
        let holder = TxNode::top_level(1);
        let (a_tx, b_tx) = (TxNode::top_level(2), TxNode::top_level(3));
        let (d_tx, e_tx) = (TxNode::top_level(4), TxNode::top_level(5));
        let x = obj_with_write_holder(&mgr, &holder);
        let y = obj_with_write_holder(&mgr, &d_tx);
        let (a, b, e) = {
            let mut g = mgr.slot(x).inner.lock();
            let a = enqueue(&mgr, &mut g, &a_tx, x, true, &noop_waker());
            let b = enqueue(&mgr, &mut g, &b_tx, x, true, &noop_waker());
            drop(g);
            let mut g = mgr.slot(y).inner.lock();
            let e = enqueue(&mgr, &mut g, &e_tx, y, true, &noop_waker());
            assert!(a.1.is_none() && b.1.is_none() && e.1.is_none());
            (a.0, b.0, e.0)
        };
        let (m2, h2) = (mgr.clone(), holder.clone());
        let releaser = loom::thread::spawn(move || {
            m2.abort_subtree(&h2);
        });
        let (m3, a3) = (mgr.clone(), a.clone());
        let withdrawer = loom::thread::spawn(move || m3.timeout_withdraw(x, &a3));
        let (d, cycle) = {
            let mut g = mgr.slot(x).inner.lock();
            enqueue(&mgr, &mut g, &d_tx, x, true, &noop_waker())
        };
        assert!(cycle.is_none(), "nothing on x waits for top 4");
        releaser.join().unwrap();
        let withdrawn = withdrawer.join().unwrap();

        // Exactly one winner per node: A by withdrawal or grant, B granted
        // exactly when A left first, D and E still waiting.
        assert_eq!(a.state(), if withdrawn { W_TIMEDOUT } else { W_GRANTED });
        assert_eq!(b.state(), if withdrawn { W_GRANTED } else { W_WAITING });
        assert_eq!((d.state(), e.state()), (W_WAITING, W_WAITING));
        assert_edges_fresh(&mgr, x);
        assert_edges_fresh(&mgr, y);
        for top in [&holder, &a_tx] {
            assert!(top.wait.out_edges().is_empty(), "top {} left", top.id);
        }
        if withdrawn {
            assert!(b_tx.wait.out_edges().is_empty(), "B left");
        }
        // A record's waiter count is its top's queue membership.
        for w in [&a, &b, &d, &e] {
            let queued = [x, y].iter().any(|&o| {
                let g = mgr.slot(o).inner.lock();
                g.queue.iter().any(|q| Arc::ptr_eq(q, w))
            });
            assert_eq!(w.node.wait.waiters(), usize::from(queued));
        }
        assert_inbound_exact(&[&holder, &a_tx, &b_tx, &d_tx, &e_tx]);
    });
}

/// A write request of `node` on `obj`, polled once with a no-op waker:
/// the real `access_attempt` path, search and claim included.
type Request = Access<Arc<TxNode>, crate::future::BoxedAccessFn<()>>;

fn request(node: &Arc<TxNode>, obj: usize) -> Request {
    let bump: crate::future::BoxedAccessFn<()> = Box::new(|st| *granted_i64(st) += 1);
    Access::new(node.clone(), obj, true, bump)
}

/// **Two edges close one cycle at once**: A (top 1) holds x and B (top 2)
/// holds y; A requests y while B requests x. Each enqueue adds its edge and
/// then reads its own top's `inbound` before searching, so in every
/// interleaving at least one search sees the other's edge: exactly one
/// deadlock is noted, B's (the younger), nothing times out, and A's
/// request is granted or still queued. Either B died at its own enqueue
/// (it took its request back out and still holds y, so A waits on), or A's
/// search claimed B and aborted it (y is A's). The records and `inbound`
/// counts are exact afterwards. A search that reads its own `inbound`
/// before bumping its target's lets both searches skip, and fails here.
#[test]
fn loom_crossed_enqueues_note_one_deadlock() {
    loom::model(|| {
        let mgr = mk_mgr();
        let (a, b) = (
            TxNode::top_of(mgr.clone(), 1),
            TxNode::top_of(mgr.clone(), 2),
        );
        let x = obj_with_write_holder(&mgr, &a);
        let y = obj_with_write_holder(&mgr, &b);
        let b2 = b.clone();
        let b_side = loom::thread::spawn(move || {
            let mut r = request(&b2, x);
            let first = r.poll_with(&noop_waker());
            (r, first)
        });
        let mut ra = request(&a, y);
        let first_a = ra.poll_with(&noop_waker());
        let (mut rb, first_b) = b_side.join().unwrap();

        let snap = mgr.stats.snapshot();
        assert_eq!((snap.deadlocks, snap.timeouts), (1, 0), "one claim");
        let a_claimed_b = b.deadlock_victim.load(Ordering::SeqCst);
        let b_result = match first_b {
            Poll::Ready(r) => r,
            Poll::Pending => {
                assert!(a_claimed_b, "only A's claim leaves B's request queued");
                match rb.poll_with(&noop_waker()) {
                    Poll::Ready(r) => r,
                    Poll::Pending => panic!("the claim cancelled B's wait"),
                }
            }
        };
        assert_eq!(b_result, Err(TxError::Deadlock));
        let waiting = mgr.slot(y).inner.lock().queue.len();
        if a_claimed_b {
            assert_eq!(waiting, 0, "B's abort handed y to A");
            let a_result = match first_a {
                Poll::Ready(r) => r,
                Poll::Pending => match ra.poll_with(&noop_waker()) {
                    Poll::Ready(r) => r,
                    Poll::Pending => panic!("A's grant resolved its wait"),
                },
            };
            assert_eq!(a_result, Ok(()));
            assert!(a.wait.is_empty());
        } else {
            assert!(first_a.is_pending(), "A stays queued behind B's lock");
            assert_eq!(waiting, 1);
            assert_eq!(a.wait.out_edges(), vec![(2, 1)]);
            assert_eq!(a.wait.waiters(), 1);
        }
        assert!(b.wait.out_edges().is_empty() && b.wait.waiters() == 0);
        assert_inbound_exact(&[&a, &b]);
        assert!(
            mgr.slot(x).inner.lock().queue.is_empty(),
            "B left x's queue"
        );
        // Release both tops' locks: each holds the manager.
        drop((ra, rb));
        mgr.abort_subtree(&a);
        mgr.abort_subtree(&b);
    });
}

/// **A search races the leave that breaks its cycle**: A (top 1) holds x,
/// B (top 2) holds y and waits on x. A requests y — its edge closes the
/// cycle and its search walks it — while B's wait times out and leaves,
/// taking the edge B → A along. A wait withdrawn before any claim ends the
/// story: a timeout, no victim ever, A queued behind B's lock. Otherwise B
/// was claimed while its edge stood: one deadlock, B aborted and y handed
/// to A, and the withdrawal either finds the wait cancelled or beats the
/// abort's cancel to it (then a timeout too). A claim that skips the check
/// under the members' locks kills B for a cycle that is gone — flagged
/// after its wait was withdrawn unflagged — and fails here.
#[test]
fn loom_search_vs_leave_claims_no_broken_cycle() {
    loom::model(|| {
        let mgr = mk_mgr();
        let (a, b) = (
            TxNode::top_of(mgr.clone(), 1),
            TxNode::top_of(mgr.clone(), 2),
        );
        let x = obj_with_write_holder(&mgr, &a);
        let y = obj_with_write_holder(&mgr, &b);
        let (bw, cycle) = {
            let mut g = mgr.slot(x).inner.lock();
            enqueue(&mgr, &mut g, &b, x, true, &noop_waker())
        };
        assert!(cycle.is_none(), "nothing waits for B yet");
        let (m2, b2, bw2) = (mgr.clone(), b.clone(), bw.clone());
        let leaver = loom::thread::spawn(move || {
            let withdrawn = m2.timeout_withdraw(x, &bw2);
            (withdrawn, b2.deadlock_victim.load(Ordering::SeqCst))
        });
        let mut ra = request(&a, y);
        let first_a = ra.poll_with(&noop_waker());
        let (withdrawn, claimed_first) = leaver.join().unwrap();

        let snap = mgr.stats.snapshot();
        assert!(
            !matches!(first_a, Poll::Ready(Err(_))),
            "A is never the victim"
        );
        if withdrawn && !claimed_first {
            assert_eq!((snap.deadlocks, snap.timeouts), (0, 1));
            assert!(!b.deadlock_victim.load(Ordering::SeqCst), "no victim");
            assert!(first_a.is_pending());
            assert_eq!(a.wait.out_edges(), vec![(2, 1)], "A waits on B's lock");
        } else {
            let timeouts = u64::from(withdrawn);
            assert_eq!((snap.deadlocks, snap.timeouts), (1, timeouts));
            assert!(b.deadlock_victim.load(Ordering::SeqCst));
            if !withdrawn {
                assert_eq!(bw.state(), W_CANCELLED);
            }
            assert!(a.wait.is_empty(), "B's abort handed y to A");
        }
        assert!(b.wait.out_edges().is_empty() && b.wait.waiters() == 0);
        assert_inbound_exact(&[&a, &b]);
        // Release both tops' locks: each holds the manager.
        drop(ra);
        mgr.abort_subtree(&a);
        mgr.abort_subtree(&b);
    });
}

/// **Trace stamps**: concurrent recorders draw unique, gap-free sequence
/// stamps (the relaxed `fetch_add` RMW still totally orders stamps), so a
/// quiescent merge is a complete linearisation.
#[test]
fn loom_trace_stamps_unique_and_complete() {
    loom::model(|| {
        let tr = Arc::new(TraceRecorder::new());
        let t2 = tr.clone();
        let h = loom::thread::spawn(move || {
            t2.record(RtEvent::Begin {
                tx: 2,
                parent: None,
            });
            t2.record(RtEvent::Abort { tx: 2 });
        });
        tr.record(RtEvent::Begin {
            tx: 1,
            parent: None,
        });
        h.join().unwrap();
        let events = tr.events();
        assert_eq!(events.len(), 3, "lost trace event");
        // Per-thread program order must survive the merge: tx 2's Begin
        // precedes its Abort.
        let begin2 = events
            .iter()
            .position(|e| matches!(e, RtEvent::Begin { tx: 2, .. }))
            .expect("tx 2 begin");
        let abort2 = events
            .iter()
            .position(|e| matches!(e, RtEvent::Abort { tx: 2 }))
            .expect("tx 2 abort");
        assert!(begin2 < abort2, "stamp order broke program order");
    });
}
