//! A user closure that panics while it holds a fresh lock grant must not
//! wedge the object.
//!
//! A handed-off write leaves the object's write latch set until the woken
//! writer applies its closure; nothing else is grantable meanwhile. If the
//! closure unwinds, the latch must still lift and the queue must still be
//! scanned — on the blocking path and the polled one alike — or every
//! later request on the object waits out its whole timeout, for good. An
//! inline grant sets no latch; its case is here for coverage.
//!
//! Each case panics inside a child's access, commits the child and its top
//! anyway, and then requires an empty queue and a later writer granted at
//! once.

use std::future::Future;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::pin;
use std::sync::mpsc;
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::time::{Duration, Instant};

use ntx_runtime::{ObjRef, RtConfig, Tx, TxManager};

struct ChannelWaker(mpsc::Sender<()>);

impl Wake for ChannelWaker {
    fn wake(self: Arc<Self>) {
        let _ = self.0.send(());
    }
}

/// How the panicking write reaches its lock.
#[derive(Clone, Copy, Debug)]
enum Case {
    /// `Tx::write` queued behind a holder, granted by the holder's commit.
    SyncHandoff,
    /// `Tx::write_async` queued behind a holder, granted the same way.
    AsyncHandoff,
    /// `Tx::write` on a free object, granted inline.
    Inline,
}

/// Run the panicking write of `case` in `child`, behind `holder`'s write
/// lock on `x` for the handoff cases; returns once it has unwound.
fn panic_in_write(mgr: &TxManager, x: ObjRef<i64>, holder: Tx, child: &Tx, case: Case) {
    let boom = |_: &mut i64| -> () { panic!("user closure panics") };
    match case {
        Case::Inline => {
            holder.commit().unwrap();
            let r = catch_unwind(AssertUnwindSafe(|| child.write(&x, boom)));
            assert!(r.is_err(), "the closure's panic must reach the caller");
        }
        Case::SyncHandoff => std::thread::scope(|s| {
            let h = s.spawn(|| catch_unwind(AssertUnwindSafe(|| child.write(&x, boom))));
            let start = Instant::now();
            while mgr.queued_waiters() == 0 {
                assert!(start.elapsed() < Duration::from_secs(5), "never queued");
                std::thread::yield_now();
            }
            holder.commit().unwrap();
            assert!(
                h.join().unwrap().is_err(),
                "the closure's panic must reach the caller"
            );
        }),
        Case::AsyncHandoff => {
            let (send, recv) = mpsc::channel();
            let waker = Waker::from(Arc::new(ChannelWaker(send)));
            let mut cx = Context::from_waker(&waker);
            let mut fut = pin!(child.write_async(&x, boom));
            assert!(matches!(fut.as_mut().poll(&mut cx), Poll::Pending));
            holder.commit().unwrap();
            recv.recv_timeout(Duration::from_secs(5))
                .expect("the grant wakes the future");
            let r = catch_unwind(AssertUnwindSafe(|| fut.as_mut().poll(&mut cx)));
            assert!(r.is_err(), "the closure's panic must reach the poller");
        }
    }
}

fn panicking_write_leaves_the_object_usable(case: Case) {
    let mgr = TxManager::new(RtConfig {
        wait_timeout: Duration::from_secs(2),
        ..Default::default()
    });
    let x = mgr.register("x", 0i64);
    let holder = mgr.begin();
    holder.write(&x, |v| *v = 1).unwrap();
    let top = mgr.begin();
    let child = top.child().unwrap();
    panic_in_write(&mgr, x, holder, &child, case);
    child.commit().unwrap();
    top.commit().unwrap();
    assert_eq!(mgr.queued_waiters(), 0, "{case:?}: a queue node leaked");

    // A later writer is granted at once, not after its whole timeout.
    let later = mgr.begin();
    let start = Instant::now();
    later
        .write(&x, |v| *v += 10)
        .unwrap_or_else(|e| panic!("{case:?}: later writer failed with {e:?}"));
    assert!(
        start.elapsed() < Duration::from_secs(1),
        "{case:?}: later writer waited {:?}",
        start.elapsed()
    );
    later.commit().unwrap();
    assert_eq!(mgr.queued_waiters(), 0);
}

#[test]
fn panicking_handed_off_sync_write_lifts_the_latch() {
    panicking_write_leaves_the_object_usable(Case::SyncHandoff);
}

#[test]
fn panicking_handed_off_async_write_lifts_the_latch() {
    panicking_write_leaves_the_object_usable(Case::AsyncHandoff);
}

#[test]
fn panicking_inline_write_leaves_the_object_free() {
    panicking_write_leaves_the_object_usable(Case::Inline);
}
