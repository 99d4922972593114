//! Sweeper-thread lifecycle: the thread that times out every wait must
//! not outlive its manager, and must not exist before it is needed.
//!
//! The first timeout service was a process-wide `OnceLock` whose thread
//! never exited; its per-manager successor kept a heap entry per wait.
//! Today a wait's deadline lives in its queue node and one per-manager
//! sweeper reads it from there, for a blocked thread and a suspended
//! future alike. This test pins the thread's contract: no `ntx-sweeper`
//! thread before the first queued waiter of either kind, one per manager
//! after, none once the last manager handle is dropped. It lives alone in
//! this file so concurrent tests cannot contribute stray threads to the
//! count.

use std::future::Future;
use std::pin::pin;
use std::sync::mpsc;
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::time::{Duration, Instant};

use ntx_runtime::{RtConfig, TxManager};

/// Count live threads of this process named `ntx-sweeper` (Linux procfs;
/// other platforms report zero and the assertions degrade to trivial).
fn sweeper_threads() -> usize {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .filter_map(|e| e.ok())
        .filter(|e| {
            std::fs::read_to_string(e.path().join("comm")).is_ok_and(|c| c.trim() == "ntx-sweeper")
        })
        .count()
}

/// [`sweeper_threads`] once it reads `want`, or after 5 s whatever it reads.
/// procfs trails both ends of a thread's life: a spawned thread names
/// itself after the spawn returns, and a joined thread's task entry
/// outlives the futex wake that `join` waits for.
fn settled_sweeper_threads(want: usize) -> usize {
    let give_up = Instant::now() + Duration::from_secs(5);
    while sweeper_threads() != want && Instant::now() < give_up {
        std::thread::yield_now();
    }
    sweeper_threads()
}

struct ChannelWaker(mpsc::Sender<()>);

impl Wake for ChannelWaker {
    fn wake(self: Arc<Self>) {
        let _ = self.0.send(());
    }
}

/// Queue a blocked sync reader and then an async writer behind a holder
/// on `mgr`, then resolve both waits by releasing the holder. Before the
/// first waiter queues — an async access granted inline included — the
/// manager has no thread; the first queued waiter, of either kind, spawns
/// its one sweeper.
fn run_contended_waits(mgr: &TxManager) {
    let hot = mgr.register("hot", 0i64);
    let cold = mgr.register("cold", 0i64);
    let holder = mgr.begin();
    holder.write(&hot, |v| *v = 1).unwrap();
    let (send, recv) = mpsc::channel();
    let waker = Waker::from(Arc::new(ChannelWaker(send)));
    let mut cx = Context::from_waker(&waker);

    let tx = mgr.begin();
    let inline = pin!(tx.write_async(&cold, |v| *v = 1))
        .as_mut()
        .poll(&mut cx);
    assert!(matches!(inline, Poll::Ready(Ok(()))));
    assert_eq!(
        sweeper_threads(),
        0,
        "nothing has queued: the manager must have no thread"
    );
    let blocked = {
        let mgr = mgr.clone();
        std::thread::spawn(move || {
            let tx = mgr.begin();
            tx.read(&hot, |v| *v).unwrap()
        })
    };
    while mgr.queued_waiters() < 1 {
        std::thread::yield_now();
    }
    assert_eq!(
        settled_sweeper_threads(1),
        1,
        "a queued sync waiter spawns the sweeper thread"
    );
    {
        let mut fut = pin!(tx.write_async(&hot, |v| *v = 2));
        assert!(
            matches!(fut.as_mut().poll(&mut cx), Poll::Pending),
            "writer must queue behind the holder"
        );
        assert_eq!(
            settled_sweeper_threads(1),
            1,
            "a queued future finds the manager's one sweeper"
        );
        holder.commit().unwrap();
        assert_eq!(blocked.join().unwrap(), 1);
        recv.recv_timeout(Duration::from_secs(5))
            .expect("grant wakes the future");
        assert!(matches!(fut.as_mut().poll(&mut cx), Poll::Ready(Ok(()))));
    }
    tx.commit().unwrap();
    assert_eq!(mgr.queued_waiters(), 0);
}

#[test]
fn manager_drop_joins_its_timer_thread() {
    assert_eq!(sweeper_threads(), 0, "clean slate");

    let mgr = TxManager::new(RtConfig {
        wait_timeout: Duration::from_secs(600),
        ..Default::default()
    });
    run_contended_waits(&mgr);
    drop(mgr);
    assert_eq!(
        settled_sweeper_threads(0),
        0,
        "dropping the last manager handle must join its sweeper thread"
    );

    // A second manager gets a fresh thread of its own, proving the
    // lifecycle is per-manager rather than revived process-wide state.
    let mgr2 = TxManager::new(RtConfig {
        wait_timeout: Duration::from_secs(600),
        ..Default::default()
    });
    run_contended_waits(&mgr2);
    drop(mgr2);
    assert_eq!(
        settled_sweeper_threads(0),
        0,
        "the second manager's thread joins too"
    );
}
