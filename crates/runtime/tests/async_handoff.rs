//! The handoff suite, replayed through `AccessFuture`: the request state
//! machine, polled instead of driven on a thread, must keep every property
//! tests/handoff.rs pins down for blocked threads — FIFO grant order,
//! in-place timeout withdrawal, doom delivery to queued waiters — plus
//! the future-specific obligations:
//! dropping an unresolved future leaks no queue node and never wedges the
//! unapplied-write latch, whichever way the drop/grant race falls.
//!
//! Futures are driven by a minimal thread-parking `block_on` (poll, park,
//! re-poll on wake): the releaser-side wakeup path under test is exactly
//! the one a real executor would use, without depending on one.

use std::future::Future;
use std::pin::pin;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::task::{Context, Poll, Wake, Waker};
use std::time::{Duration, Instant};

use ntx_runtime::{RtConfig, TxError, TxManager};

struct ThreadWaker(std::thread::Thread);

impl Wake for ThreadWaker {
    fn wake(self: Arc<Self>) {
        self.0.unpark();
    }
}

/// Drive a future to completion on the current thread: poll, park until
/// woken (by the lock releaser or the sweeper), re-poll.
fn block_on<F: Future>(fut: F) -> F::Output {
    let waker = Waker::from(Arc::new(ThreadWaker(std::thread::current())));
    let mut cx = Context::from_waker(&waker);
    let mut fut = pin!(fut);
    loop {
        match fut.as_mut().poll(&mut cx) {
            Poll::Ready(v) => return v,
            Poll::Pending => std::thread::park(),
        }
    }
}

/// Spin until `mgr` shows at least `n` queued waiters (enqueue-order
/// control for the FIFO tests).
fn await_queued(mgr: &TxManager, n: usize) {
    let start = Instant::now();
    while mgr.queued_waiters() < n {
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "waiter {n} never enqueued"
        );
        std::thread::yield_now();
    }
}

/// Mirror of `handoff_order_is_fifo`: async writers enqueue one at a time
/// and the committed append order must equal enqueue order.
#[test]
fn async_handoff_order_is_fifo() {
    for depth in 2..=6usize {
        let mgr = TxManager::new(RtConfig {
            wait_timeout: Duration::from_secs(10),
            ..Default::default()
        });
        let hot = mgr.register("hot", Vec::<usize>::new());
        let holder = mgr.begin();
        holder.write(&hot, |_| {}).unwrap();
        let handles: Vec<_> = (0..depth)
            .map(|i| {
                let tmgr = mgr.clone();
                let h = std::thread::spawn(move || {
                    let tx = tmgr.begin();
                    block_on(tx.write_async(&hot, move |v| v.push(i))).unwrap();
                    tx.commit().unwrap();
                });
                await_queued(&mgr, i + 1);
                h
            })
            .collect();
        holder.commit().unwrap();
        for h in handles {
            h.join().unwrap();
        }
        let order = mgr.read_committed(&hot, |v| v.clone());
        assert_eq!(
            order,
            (0..depth).collect::<Vec<_>>(),
            "async handoff order broke FIFO at depth {depth}"
        );
        assert_eq!(mgr.queued_waiters(), 0);
        let snap = mgr.stats();
        assert_eq!(
            snap.handoffs, depth as u64,
            "every queued async writer handed off"
        );
    }
}

/// Sync and async waiters interleaved in one queue keep wave order: R0
/// (async), R1 (sync), W2 (async), R3 (sync) behind a write holder grant
/// as R0+R1 wave, then W2, then R3 — the releaser cannot tell the two
/// waiter representations apart.
#[test]
fn mixed_sync_async_queue_preserves_wave_order() {
    let mgr = TxManager::new(RtConfig {
        wait_timeout: Duration::from_secs(10),
        ..Default::default()
    });
    let hot = mgr.register("hot", 0i64);
    let holder = mgr.begin();
    holder.write(&hot, |v| *v = 1).unwrap();
    let mut handles = Vec::new();
    for i in 0..4usize {
        let tmgr = mgr.clone();
        let h = std::thread::spawn(move || {
            let tx = tmgr.begin();
            let seen = match i {
                0 => block_on(tx.read_async(&hot, |v| *v)).unwrap(),
                1 => tx.read(&hot, |v| *v).unwrap(),
                2 => {
                    block_on(tx.write_async(&hot, |v| *v = 2)).unwrap();
                    -1
                }
                _ => tx.read(&hot, |v| *v).unwrap(),
            };
            tx.commit().unwrap();
            seen
        });
        await_queued(&mgr, i + 1);
        handles.push(h);
    }
    holder.commit().unwrap();
    let seen: Vec<i64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert_eq!(
        seen,
        vec![1, 1, -1, 2],
        "mixed-representation queue broke wave order"
    );
    assert_eq!(mgr.read_committed(&hot, |v| *v), 2);
    assert_eq!(mgr.queued_waiters(), 0);
    let snap = mgr.stats();
    assert_eq!(snap.wave_grants, 4);
    assert_eq!(
        snap.handoffs, 3,
        "R0+R1 coalesce into one wave regardless of representation"
    );
}

/// Mirror of `timed_out_waiters_withdraw_in_place`: with a long-held write
/// lock and a tiny wait budget, queued futures are timed out by the
/// sweeper and their queue nodes are withdrawn in place — the queue is
/// empty while the holder still holds.
#[test]
fn async_timed_out_waiters_withdraw_in_place() {
    const THREADS: usize = 8;
    let mgr = TxManager::new(RtConfig {
        wait_timeout: Duration::from_millis(40),
        ..Default::default()
    });
    let hot = mgr.register("hot", 0i64);
    let holder = mgr.begin();
    holder.write(&hot, |v| *v = 1).unwrap();
    let barrier = Arc::new(Barrier::new(THREADS));
    let timed_out = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let mgr = mgr.clone();
            let barrier = barrier.clone();
            let timed_out = timed_out.clone();
            std::thread::spawn(move || {
                barrier.wait();
                let tx = mgr.begin();
                match block_on(tx.write_async(&hot, |v| *v += 1)) {
                    Err(TxError::Timeout) => {
                        timed_out.fetch_add(1, Ordering::Relaxed);
                    }
                    other => panic!("expected timeout, got {other:?}"),
                }
                tx.abort();
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(
        mgr.queued_waiters(),
        0,
        "timed-out futures left queue nodes"
    );
    assert_eq!(timed_out.load(Ordering::Relaxed), THREADS);
    let snap = mgr.stats();
    assert_eq!(snap.timeouts, THREADS as u64);
    assert!(
        snap.cancelled_waiters >= 1,
        "at least one future must have queued and withdrawn: {snap:?}"
    );
    holder.commit().unwrap();
    let tx = mgr.begin();
    tx.write(&hot, |v| *v += 1).unwrap();
    tx.commit().unwrap();
    assert_eq!(mgr.read_committed(&hot, |v| *v), 2);
}

/// Mirror of `timeout_withdrawal_races_concurrent_release` for a
/// future: a future whose deadline passes while the holder
/// releases resolves to exactly one of {granted, timed out}, with no leaked queue
/// node and no wedged latch either way.
#[test]
fn async_timeout_withdrawal_races_concurrent_release() {
    const ITERS: usize = 120;
    let mut granted = 0usize;
    let mut timed_out = 0usize;
    for i in 0..ITERS {
        let mgr = TxManager::new(RtConfig {
            wait_timeout: Duration::from_millis(2),
            ..Default::default()
        });
        let hot = mgr.register("hot", 0i64);
        let holder = mgr.begin();
        holder.write(&hot, |v| *v = 1).unwrap();
        let waiter = {
            let mgr = mgr.clone();
            std::thread::spawn(move || {
                let tx = mgr.begin();
                match block_on(tx.write_async(&hot, |v| *v = 10)) {
                    Ok(()) => {
                        tx.commit().unwrap();
                        Ok(())
                    }
                    Err(e) => {
                        tx.abort();
                        Err(e)
                    }
                }
            })
        };
        let start = Instant::now();
        while mgr.queued_waiters() == 0 && !waiter.is_finished() {
            assert!(
                start.elapsed() < Duration::from_secs(5),
                "future never enqueued"
            );
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_micros((i as u64 % 9) * 500));
        holder.abort();
        match waiter.join().unwrap() {
            Ok(()) => {
                granted += 1;
                assert_eq!(mgr.read_committed(&hot, |v| *v), 10);
            }
            Err(TxError::Timeout) => {
                timed_out += 1;
                assert_eq!(mgr.read_committed(&hot, |v| *v), 0);
            }
            Err(other) => panic!("iteration {i}: expected grant or timeout, got {other:?}"),
        }
        assert_eq!(mgr.queued_waiters(), 0, "iteration {i}: queue node leaked");
        let probe = mgr.begin();
        probe.write(&hot, |v| *v += 100).unwrap();
        probe.commit().unwrap();
    }
    assert_eq!(granted + timed_out, ITERS);
    assert!(
        granted > 0 && timed_out > 0,
        "race never exercised both arms: granted={granted} timed_out={timed_out}"
    );
}

/// Doom delivery to a queued future: a child enqueues behind a stranger's
/// write lock, its parent aborts, and the future must resolve `Doomed`
/// with the queue node cancelled in place.
#[test]
fn aborting_parent_dooms_queued_future() {
    let mgr = TxManager::new(RtConfig {
        wait_timeout: Duration::from_secs(10),
        ..Default::default()
    });
    let hot = mgr.register("hot", 0i64);
    let stranger = mgr.begin();
    stranger.write(&hot, |v| *v = 1).unwrap();
    let parent = mgr.begin();
    let child = parent.child().unwrap();
    let waiter = {
        std::thread::spawn(move || {
            let r = block_on(child.write_async(&hot, |v| *v = 2));
            child.abort();
            r
        })
    };
    await_queued(&mgr, 1);
    parent.abort();
    assert_eq!(
        waiter.join().unwrap(),
        Err(TxError::Doomed),
        "queued future must observe the ancestor abort"
    );
    assert_eq!(mgr.queued_waiters(), 0, "cancelled future leaked its node");
    stranger.commit().unwrap();
    assert_eq!(mgr.read_committed(&hot, |v| *v), 1);
}

/// Dropping an unresolved future withdraws its queue node in place — the
/// queue is empty immediately, while the holder still holds the lock —
/// and the drop is not counted as a timeout.
#[test]
fn dropping_pending_future_leaves_no_queue_node() {
    let mgr = TxManager::new(RtConfig {
        wait_timeout: Duration::from_secs(10),
        ..Default::default()
    });
    let hot = mgr.register("hot", 0i64);
    let holder = mgr.begin();
    holder.write(&hot, |v| *v = 1).unwrap();
    let tx = mgr.begin();
    {
        let fut = tx.write_async(&hot, |v| *v += 1);
        let waker = Waker::from(Arc::new(ThreadWaker(std::thread::current())));
        let mut cx = Context::from_waker(&waker);
        let mut fut = pin!(fut);
        assert!(
            fut.as_mut().poll(&mut cx).is_pending(),
            "future must queue behind the holder"
        );
        assert_eq!(mgr.queued_waiters(), 1);
        // `fut` dropped here, unresolved.
    }
    assert_eq!(
        mgr.queued_waiters(),
        0,
        "dropped future left its queue node"
    );
    assert_eq!(mgr.stats().timeouts, 0, "a dropped future is not a timeout");
    tx.abort();
    holder.commit().unwrap();
    let probe = mgr.begin();
    probe.write(&hot, |v| *v += 1).unwrap();
    probe.commit().unwrap();
    assert_eq!(mgr.read_committed(&hot, |v| *v), 2);
}

/// Drop racing a concurrent grant: whichever side wins the state CAS, the
/// object must end consistent — if the grant won, the lock is simply held
/// by the transaction until abort (as if the access returned unobserved)
/// and the unapplied-write latch must have been lifted so later writers
/// proceed the moment the transaction ends.
#[test]
// The explicit `drop(fut)` is the point of the test (racing the release's
// grant); AccessFuture's cleanup lives in its fields' Drop impls, which
// trips clippy's drop_non_drop on the wrapper.
#[allow(clippy::drop_non_drop)]
fn dropping_future_races_concurrent_grant() {
    const ITERS: usize = 120;
    for i in 0..ITERS {
        let mgr = TxManager::new(RtConfig {
            wait_timeout: Duration::from_secs(10),
            ..Default::default()
        });
        let hot = mgr.register("hot", 0i64);
        let holder = mgr.begin();
        holder.write(&hot, |v| *v = 1).unwrap();
        let tx = mgr.begin();
        let fut = tx.write_async(&hot, |v| *v = 50);
        {
            let waker = Waker::from(Arc::new(ThreadWaker(std::thread::current())));
            let mut cx = Context::from_waker(&waker);
            let mut fut = pin!(fut);
            assert!(fut.as_mut().poll(&mut cx).is_pending());
            // Holder releases on another thread while we drop the pending
            // future here; the staggered sleep sweeps the race window.
            let h = std::thread::spawn(move || holder.abort());
            if i % 3 == 0 {
                std::thread::sleep(Duration::from_micros((i as u64 % 7) * 100));
            }
            // `fut` dropped here, racing the release's grant.
            drop(fut);
            h.join().unwrap();
        }
        assert_eq!(mgr.queued_waiters(), 0, "iteration {i}: queue node leaked");
        tx.abort();
        // Whichever way the race fell, the object must now be free.
        let probe = mgr.begin();
        probe.write(&hot, |v| *v += 100).unwrap();
        probe.commit().unwrap();
        assert_eq!(mgr.read_committed(&hot, |v| *v), 100);
    }
}

/// Wakes recorded as `(future index, when)`: lets one thread queue several
/// futures and read back the order and time the sweeper resolved them.
struct StampWaker(usize, Arc<Mutex<Vec<(usize, Instant)>>>);

impl Wake for StampWaker {
    fn wake(self: Arc<Self>) {
        self.1.lock().unwrap().push((self.0, Instant::now()));
    }
}

/// Scheduling allowance on top of the one tick a timeout may be late by:
/// the sweeper is an ordinary thread on a shared host.
const LATE_SLACK: Duration = Duration::from_millis(60);

/// One future's timeout as [`queue_and_await_timeouts`] saw it.
struct TimedOut {
    /// Position in the `futs` argument (the order they were polled in).
    index: usize,
    /// Clock reads just before and just after the poll that queued it:
    /// its deadline is one `wait_timeout` after some instant in between.
    enqueued: (Instant, Instant),
    woke: Instant,
}

/// Poll each of `futs` (expected to queue) `gap` apart, wait for the
/// sweeper to time all of them out, and report them in wake order.
fn queue_and_await_timeouts<F: Future<Output = Result<(), TxError>>>(
    futs: Vec<F>,
    gap: Duration,
) -> Vec<TimedOut> {
    let wakes = Arc::new(Mutex::new(Vec::new()));
    let mut futs: Vec<_> = futs.into_iter().map(Box::pin).collect();
    let mut enqueued = Vec::new();
    for (i, fut) in futs.iter_mut().enumerate() {
        if i > 0 {
            std::thread::sleep(gap);
        }
        let waker = Waker::from(Arc::new(StampWaker(i, wakes.clone())));
        let before = Instant::now();
        assert!(fut
            .as_mut()
            .poll(&mut Context::from_waker(&waker))
            .is_pending());
        enqueued.push((before, Instant::now()));
    }
    let start = Instant::now();
    while wakes.lock().unwrap().len() < futs.len() {
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "a timeout never fired"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let waker = Waker::from(Arc::new(StampWaker(usize::MAX, wakes.clone())));
    for fut in futs.iter_mut() {
        let resolved = fut.as_mut().poll(&mut Context::from_waker(&waker));
        assert!(matches!(resolved, Poll::Ready(Err(TxError::Timeout))));
    }
    let wakes = wakes.lock().unwrap();
    wakes
        .iter()
        .map(|&(index, woke)| TimedOut {
            index,
            enqueued: enqueued[index],
            woke,
        })
        .collect()
}

/// The deadline lives in the queue node and FIFO order is deadline order:
/// three futures queued 30 ms apart behind one holder time out in queue
/// order, none before its own deadline and each within one sweeper tick
/// (`wait_timeout / 8`) after it.
#[test]
fn async_timeouts_fire_in_queue_order_never_early_at_most_a_tick_late() {
    let timeout = Duration::from_millis(80);
    let mgr = TxManager::new(RtConfig {
        wait_timeout: timeout,
        ..Default::default()
    });
    let hot = mgr.register("hot", 0i64);
    let holder = mgr.begin();
    holder.write(&hot, |v| *v = 1).unwrap();
    let txs: Vec<_> = (0..3).map(|_| mgr.begin()).collect();
    let futs = txs.iter().map(|tx| tx.write_async(&hot, |v| *v += 1));
    let fired = queue_and_await_timeouts(futs.collect(), Duration::from_millis(30));

    let order: Vec<usize> = fired.iter().map(|t| t.index).collect();
    assert_eq!(order, vec![0, 1, 2], "timeouts must fire in queue order");
    for t in &fired {
        let (i, (before, after)) = (t.index, t.enqueued);
        assert!(t.woke >= before + timeout, "future {i} timed out early");
        let late = t.woke.saturating_duration_since(after + timeout);
        assert!(
            late <= timeout / 8 + LATE_SLACK,
            "future {i} timed out {late:?} late"
        );
    }
    assert_eq!(mgr.queued_waiters(), 0);
    assert_eq!(mgr.stats().timeouts, 3);
    holder.commit().unwrap();
    assert_eq!(mgr.read_committed(&hot, |v| *v), 1);
}

/// A sweeper that has gone to sleep (its passes met an empty queue) must
/// come back for the next async waiter: the second future queues long
/// after the first timed out and is still timed out on schedule.
#[test]
fn idle_sweeper_wakes_for_a_later_waiter() {
    let timeout = Duration::from_millis(40);
    let mgr = TxManager::new(RtConfig {
        wait_timeout: timeout,
        ..Default::default()
    });
    let hot = mgr.register("hot", 0i64);
    let holder = mgr.begin();
    holder.write(&hot, |v| *v = 1).unwrap();
    for round in 0..2 {
        let tx = mgr.begin();
        let fired = queue_and_await_timeouts(vec![tx.write_async(&hot, |v| *v += 1)], timeout);
        let late = fired[0]
            .woke
            .saturating_duration_since(fired[0].enqueued.1 + timeout);
        assert!(
            late <= timeout / 8 + LATE_SLACK,
            "round {round}: timed out {late:?} late"
        );
        // Twenty ticks with nothing queued: the sweeper is asleep by now.
        std::thread::sleep(Duration::from_millis(100));
    }
    assert_eq!(mgr.queued_waiters(), 0);
    assert_eq!(mgr.stats().timeouts, 2);
}
