//! No per-wait residue: a wait that was granted leaves nothing behind.
//!
//! A wait's deadline lives in its queue node, which dies with the wait, so
//! a manager that has granted 200k async waits — every one long before its
//! deadline — is no bigger than it was. The timeout service this replaces
//! kept a heap entry per wait until the *deadline* passed (~140 B each:
//! 25 MB here, 60 MB on the `async_deep` benchmark). Alone in its file so
//! no other test's allocations land in the measurement.

use std::future::Future;
use std::pin::pin;
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::time::Duration;

use ntx_runtime::{RtConfig, TxManager};

/// Resident set size in bytes (Linux procfs, 4 KiB pages assumed; other
/// platforms report zero and the assertion degrades to trivial).
fn rss_bytes() -> usize {
    std::fs::read_to_string("/proc/self/statm")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse::<usize>().ok())
        .map_or(0, |pages| pages * 4096)
}

struct NoopWaker;

impl Wake for NoopWaker {
    fn wake(self: Arc<Self>) {}
}

/// One async write that queues behind a holder and is granted when the
/// holder commits.
fn granted_async_wait(mgr: &TxManager, hot: &ntx_runtime::ObjRef<i64>, cx: &mut Context<'_>) {
    let holder = mgr.begin();
    holder.write(hot, |v| *v += 1).unwrap();
    let tx = mgr.begin();
    {
        let mut fut = pin!(tx.write_async(hot, |v| *v += 1));
        assert!(fut.as_mut().poll(cx).is_pending());
        holder.commit().unwrap();
        assert!(matches!(fut.as_mut().poll(cx), Poll::Ready(Ok(()))));
    }
    tx.commit().unwrap();
}

#[test]
fn granted_async_waits_leave_no_residue() {
    const WAITS: usize = 200_000;
    let mgr = TxManager::new(RtConfig {
        // No deadline comes due during the test.
        wait_timeout: Duration::from_secs(600),
        ..Default::default()
    });
    let hot = mgr.register("hot", 0i64);
    let waker = Waker::from(Arc::new(NoopWaker));
    let mut cx = Context::from_waker(&waker);
    // Warm the allocator and the sweeper thread before the first reading.
    for _ in 0..10_000 {
        granted_async_wait(&mgr, &hot, &mut cx);
    }
    let before = rss_bytes();
    for _ in 0..WAITS {
        granted_async_wait(&mgr, &hot, &mut cx);
    }
    let grown = rss_bytes().saturating_sub(before);
    assert!(
        grown < 8 << 20,
        "{WAITS} granted waits grew RSS by {} KiB",
        grown >> 10
    );
    assert_eq!(mgr.queued_waiters(), 0);
    assert_eq!(mgr.stats().timeouts, 0);
    assert_eq!(
        mgr.read_committed(&hot, |v| *v),
        2 * (WAITS as i64 + 10_000)
    );
}
