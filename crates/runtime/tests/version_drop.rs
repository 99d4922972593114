//! A version's `Drop` is user code, and it runs with no slot mutex held.
//! Garbage collection detaches the versions no snapshot can reach while it
//! holds the object's mutex; an abort, a top-level commit and a write over
//! a committed child's version take uncommitted versions off the object's
//! lock table the same way. Each hands them back, to be freed once the
//! mutex is down. A `Drop` that asks the manager about its own object must
//! therefore complete. Were a version freed under the mutex, it would wait
//! for that mutex on its own thread forever, so each scenario runs on a
//! thread of its own under a watchdog, and a hang fails the test.

use std::cell::{Cell, RefCell};
use std::sync::mpsc;
use std::time::Duration;

use ntx_runtime::{ObjRef, RtConfig, TxManager};

thread_local! {
    /// The manager and object a [`Probe`] dropped on this thread asks
    /// about (none while unset: a scenario clears it before its manager
    /// goes).
    static HOOK: RefCell<Option<(TxManager, ObjRef<Probe>)>> = const { RefCell::new(None) };
    /// Drops on this thread of a [`Probe`] that asked the manager about its
    /// own object.
    static ASKED: Cell<usize> = const { Cell::new(0) };
}

#[derive(Clone)]
struct Probe(u64);

impl Drop for Probe {
    fn drop(&mut self) {
        let hook = HOOK.with(|h| h.borrow().clone());
        if let Some((mgr, obj)) = hook {
            assert!(mgr.version_chain_len(&obj) >= 1);
            ASKED.with(|n| n.set(n.get() + 1));
        }
    }
}

/// Run `scenario` on a thread of its own, on a fresh manager with one
/// `Probe` object whose drops ask the manager about it, and return what it
/// returns with the number of drops that asked. Fails if a drop never
/// returns.
fn watched<R: Send + 'static>(
    scenario: impl FnOnce(&TxManager, &ObjRef<Probe>) -> R + Send + 'static,
) -> (R, usize) {
    let (done, finished) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        let mgr = TxManager::new(RtConfig::default());
        let obj = mgr.register("probe", Probe(0));
        HOOK.with(|h| *h.borrow_mut() = Some((mgr.clone(), obj)));
        let r = scenario(&mgr, &obj);
        let hook = HOOK.with(|h| h.borrow_mut().take());
        drop(hook);
        done.send((r, ASKED.with(Cell::get))).unwrap();
    });
    match finished.recv_timeout(Duration::from_secs(20)) {
        Ok(seen) => seen,
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("a version's Drop never returned: it ran under its object's mutex")
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => match runner.join() {
            Err(panic) => std::panic::resume_unwind(panic),
            Ok(()) => unreachable!("the scenario sends before it returns"),
        },
    }
}

#[test]
fn a_collected_versions_drop_may_take_its_objects_mutex() {
    let ((at_commits, collected, chain), asked) = watched(|mgr, obj| {
        // Each commit collects the versions below the previous one: the
        // second frees genesis, the third the first commit's version.
        for _ in 0..3 {
            let tx = mgr.begin();
            tx.write(obj, |p| p.0 += 1).unwrap();
            tx.commit().unwrap();
        }
        let at_commits = ASKED.with(Cell::get);
        // With no snapshot open, an explicit pass frees all but the head.
        let collected = mgr.collect_garbage();
        (at_commits, collected, mgr.version_chain_len(obj))
    });
    assert_eq!(at_commits, 2, "two versions collected at commit");
    assert_eq!(collected, 1, "one more collected by the explicit pass");
    assert_eq!(asked, 3);
    assert_eq!(chain, 1);
}

/// An abort discards the version its write made.
#[test]
fn an_aborted_writes_version_drop_may_take_its_objects_mutex() {
    let (value, asked) = watched(|mgr, obj| {
        let tx = mgr.begin();
        tx.write(obj, |p| p.0 += 1).unwrap();
        tx.abort();
        mgr.read_committed(obj, |p| p.0)
    });
    assert_eq!(value, 0, "the abort restored the committed state");
    assert_eq!(asked, 1, "the discarded version was dropped");
}

/// A top-level commit publishes the deepest version its tree wrote — a
/// committed child's — and discards the top's own version below it.
#[test]
fn a_nested_write_discarded_at_the_top_commit_may_take_its_objects_mutex() {
    let (value, asked) = watched(|mgr, obj| {
        let top = mgr.begin();
        top.write(obj, |p| p.0 += 1).unwrap();
        let child = top.child().unwrap();
        child.write(obj, |p| p.0 += 10).unwrap();
        child.commit().unwrap();
        top.commit().unwrap();
        mgr.read_committed(obj, |p| p.0)
    });
    assert_eq!(value, 11, "the child's version was published");
    assert_eq!(asked, 1, "the top's own version was discarded");
}

/// A parent's write after its child committed adopts the child's version
/// and lets its own, shallower one go.
#[test]
fn a_version_a_parent_adopts_over_may_take_its_objects_mutex() {
    let (value, asked) = watched(|mgr, obj| {
        let top = mgr.begin();
        top.write(obj, |p| p.0 += 1).unwrap();
        let child = top.child().unwrap();
        child.write(obj, |p| p.0 += 10).unwrap();
        child.commit().unwrap();
        top.write(obj, |p| p.0 += 100).unwrap();
        let asked_at_write = ASKED.with(Cell::get);
        top.commit().unwrap();
        (mgr.read_committed(obj, |p| p.0), asked_at_write)
    });
    assert_eq!(value, (111, 1), "the parent's write merged the child's");
    assert_eq!(asked, 1, "nothing more to discard at the commit");
}
