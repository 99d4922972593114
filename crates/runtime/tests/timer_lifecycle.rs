//! Timer-thread lifecycle: the per-manager timer service must not outlive
//! its manager.
//!
//! The original service was a process-wide `OnceLock` whose thread never
//! exited and whose lazily-cancelled heap entries kept their callbacks —
//! and the `Arc<ManagerInner>` chains inside them — alive until the
//! deadline passed. This test pins the fixed contract: dropping the last
//! manager handle joins the timer thread, so no `ntx-timer` thread
//! survives. It lives alone in this file so concurrent tests cannot
//! contribute stray timer threads to the count.

use std::future::Future;
use std::pin::pin;
use std::sync::mpsc;
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::time::{Duration, Instant};

use ntx_runtime::{RtConfig, TxManager};

/// Count live threads of this process named `ntx-timer` (Linux procfs;
/// other platforms report zero and the assertions degrade to trivial).
fn timer_threads() -> usize {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .filter_map(|e| e.ok())
        .filter(|e| {
            std::fs::read_to_string(e.path().join("comm")).is_ok_and(|c| c.trim() == "ntx-timer")
        })
        .count()
}

/// [`timer_threads`] once it reads `want`, or after 5 s whatever it reads.
/// procfs trails both ends of a thread's life: a spawned thread names
/// itself after the spawn returns, and a joined thread's task entry
/// outlives the futex wake that `join` waits for.
fn settled_timer_threads(want: usize) -> usize {
    let give_up = Instant::now() + Duration::from_secs(5);
    while timer_threads() != want && Instant::now() < give_up {
        std::thread::yield_now();
    }
    timer_threads()
}

struct ChannelWaker(mpsc::Sender<()>);

impl Wake for ChannelWaker {
    fn wake(self: Arc<Self>) {
        let _ = self.0.send(());
    }
}

/// Queue one async writer behind a holder on `mgr` (arming the timeout
/// timer and lazily spawning the manager's timer thread), then resolve the
/// wait by releasing the holder and drive the future to completion.
fn run_contended_async_write(mgr: &TxManager) {
    let hot = mgr.register("hot", 0i64);
    let holder = mgr.begin();
    holder.write(&hot, |v| *v = 1).unwrap();
    let tx = mgr.begin();
    {
        let mut fut = pin!(tx.write_async(&hot, |v| *v = 2));
        let (send, recv) = mpsc::channel();
        let waker = Waker::from(Arc::new(ChannelWaker(send)));
        let mut cx = Context::from_waker(&waker);
        assert!(
            matches!(fut.as_mut().poll(&mut cx), Poll::Pending),
            "writer must queue behind the holder"
        );
        assert_eq!(
            settled_timer_threads(1),
            1,
            "queued future spawns the timer thread"
        );
        holder.commit().unwrap();
        recv.recv_timeout(Duration::from_secs(5))
            .expect("grant wakes the future");
        assert!(matches!(fut.as_mut().poll(&mut cx), Poll::Ready(Ok(()))));
    }
    tx.commit().unwrap();
}

#[test]
fn manager_drop_joins_its_timer_thread() {
    assert_eq!(timer_threads(), 0, "clean slate");

    let mgr = TxManager::new(RtConfig {
        wait_timeout: Duration::from_secs(600),
        ..Default::default()
    });
    run_contended_async_write(&mgr);
    drop(mgr);
    assert_eq!(
        settled_timer_threads(0),
        0,
        "dropping the last manager handle must join its timer thread"
    );

    // A second manager gets a fresh thread of its own, proving the
    // lifecycle is per-manager rather than revived process-wide state.
    let mgr2 = TxManager::new(RtConfig {
        wait_timeout: Duration::from_secs(600),
        ..Default::default()
    });
    run_contended_async_write(&mgr2);
    drop(mgr2);
    assert_eq!(
        settled_timer_threads(0),
        0,
        "the second manager's thread joins too"
    );
}
