//! A child's commit leaves its locks where they are: they belong to its
//! nearest uncommitted ancestor from then on, resolved wherever a lock is
//! looked at. These are the paths that resolution must get right and that
//! the seeded fuzzer, which never queues a request, cannot reach: a
//! sibling or the top queued behind a child's lock, and aborts above
//! lazily committed descendants.

use std::thread;
use std::time::{Duration, Instant};

use ntx_runtime::{ObjRef, RtConfig, Tx, TxError, TxManager};

fn manager() -> TxManager {
    TxManager::new(RtConfig {
        wait_timeout: Duration::from_secs(10),
        ..RtConfig::default()
    })
}

fn await_queued(mgr: &TxManager, n: usize) {
    let start = Instant::now();
    while mgr.queued_waiters() < n {
        assert!(start.elapsed() < Duration::from_secs(10), "nothing queued");
        thread::yield_now();
    }
}

/// A sibling queued behind its sibling's write lock is granted when that
/// sibling commits — a commit that moves no lock, so only its rescan (the
/// top has a queued request) can hand the lock over.
#[test]
fn a_sibling_queued_behind_its_sibling_is_granted_at_that_commit() {
    let mgr = manager();
    let x = mgr.register("x", 0i64);
    let top = mgr.begin();
    let (c1, c2) = (top.child().unwrap(), top.child().unwrap());
    c1.write(&x, |v| *v = 1).unwrap();
    thread::scope(|s| {
        let queued = s.spawn(|| {
            c2.write(&x, |v| {
                *v = *v * 10 + 2;
                *v
            })
        });
        await_queued(&mgr, 1);
        c1.commit().unwrap();
        assert_eq!(queued.join().unwrap(), Ok(12), "c2 saw c1's version");
    });
    assert_eq!(mgr.queued_waiters(), 0);
    c2.commit().unwrap();
    assert_eq!(top.read(&x, |v| *v).unwrap(), 12);
    top.commit().unwrap();
    assert_eq!(mgr.read_committed(&x, |v| *v), 12);
}

/// A queued request of the top itself, blocked by its own child's lock,
/// is granted when the child commits.
#[test]
fn a_top_queued_behind_its_child_is_granted_at_the_childs_commit() {
    let mgr = manager();
    let x = mgr.register("x", 0i64);
    let top = mgr.begin();
    let child = top.child().unwrap();
    child.write(&x, |v| *v = 3).unwrap();
    let queued = top.write_async(&x, |v| {
        *v += 1;
        *v
    });
    thread::scope(|s| {
        let waiting = s.spawn(|| block_on(queued));
        await_queued(&mgr, 1);
        child.commit().unwrap();
        assert_eq!(waiting.join().unwrap(), Ok(4));
    });
    top.commit().unwrap();
    assert_eq!(mgr.read_committed(&x, |v| *v), 4);
}

/// Drive a future on this thread.
fn block_on<F: std::future::Future>(f: F) -> F::Output {
    use std::sync::Arc;
    use std::task::{Context, Poll, Wake, Waker};
    struct Unpark(thread::Thread);
    impl Wake for Unpark {
        fn wake(self: Arc<Self>) {
            self.0.unpark();
        }
    }
    let waker = Waker::from(Arc::new(Unpark(thread::current())));
    let mut cx = Context::from_waker(&waker);
    let mut f = std::pin::pin!(f);
    loop {
        if let Poll::Ready(r) = f.as_mut().poll(&mut cx) {
            return r;
        }
        thread::park();
    }
}

/// The value `x` holds after `depths`' writes on top of the top's 9: each
/// level appends its depth as a digit.
fn digits(depths: impl IntoIterator<Item = i64>) -> i64 {
    depths.into_iter().fold(9, |v, d| v * 10 + d)
}

/// A depth-4 chain under a top, every level writing `x` (and the deepest
/// also `y`); the levels below `level` commit lazily, then `level` aborts.
/// The abort must roll back every lazily committed descendant with it, so
/// its parent reads the version from before `level`, and a stranger stays
/// nothing is published until the top commits what is left.
#[test]
fn a_depth_four_chain_rolls_back_lazily_committed_descendants_at_each_level() {
    for level in 1..=4usize {
        let mgr = manager();
        let x = mgr.register("x", 0i64);
        let y = mgr.register("y", 0i64);
        let top = mgr.begin();
        top.write(&x, |v| *v = 9).unwrap();
        let mut chain: Vec<Tx> = Vec::new();
        for d in 1..=4i64 {
            let c = chain.last().unwrap_or(&top).child().unwrap();
            c.write(&x, |v| *v = *v * 10 + d).unwrap();
            chain.push(c);
        }
        chain[3].write(&y, |v| *v = 1).unwrap();
        assert_eq!(chain[3].read(&x, |v| *v).unwrap(), digits(1..=4));
        // Commit the levels below `level`, deepest first, then abort it.
        while chain.len() > level {
            chain.pop().unwrap().commit().unwrap();
        }
        let parent_sees = |chain: &[Tx], top: &Tx, obj: &ObjRef<i64>| {
            chain.last().unwrap_or(top).read(obj, |v| *v).unwrap()
        };
        assert_eq!(parent_sees(&chain[..level], &top, &x), digits(1..=4));
        chain.pop().unwrap().abort();
        let survivor = digits(1..level as i64);
        assert_eq!(parent_sees(&chain, &top, &x), survivor, "level {level}");
        assert_eq!(
            parent_sees(&chain, &top, &y),
            0,
            "level {level}: y rolled back"
        );
        // The rest commits lazily; nothing is published before the top.
        while let Some(c) = chain.pop() {
            c.commit().unwrap();
        }
        assert_eq!(mgr.read_committed(&x, |v| *v), 0);
        let stranger = mgr.begin();
        top.commit().unwrap();
        assert_eq!(mgr.read_committed(&x, |v| *v), survivor, "level {level}");
        assert_eq!(mgr.read_committed(&y, |v| *v), 0);
        assert_eq!(stranger.write(&x, |v| *v).unwrap(), survivor);
        assert_eq!(stranger.write(&y, |v| *v).unwrap(), 0);
        stranger.commit().unwrap();
        assert_eq!(mgr.queued_waiters(), 0);
    }
}

/// A stranger's request meets the lock of a lazily committed child: it
/// belongs to the top now, and the stranger waits for the top.
#[test]
fn a_lazily_committed_childs_lock_still_blocks_strangers() {
    let mgr = TxManager::new(RtConfig {
        wait_timeout: Duration::from_millis(50),
        ..RtConfig::default()
    });
    let x = mgr.register("x", 0i64);
    let top = mgr.begin();
    top.run_child(|c| c.write(&x, |v| *v = 1)).unwrap();
    let stranger = mgr.begin();
    assert_eq!(stranger.read(&x, |v| *v), Err(TxError::Timeout));
    stranger.abort();
    assert_eq!(
        top.snapshot_read(&x, |v| *v).unwrap(),
        1,
        "the top reads its child's version"
    );
    top.commit().unwrap();
    assert_eq!(mgr.read_committed(&x, |v| *v), 1);
}
