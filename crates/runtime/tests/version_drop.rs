//! A version's `Drop` is user code, and it runs with no slot mutex held:
//! garbage collection detaches the versions no snapshot can reach while
//! it holds the object's mutex, and frees them once the mutex is down. A
//! `Drop` that asks the manager about its own object must therefore
//! complete. Were the versions freed under the mutex, it would wait for
//! that mutex on its own thread forever, so the scenario runs on a thread
//! of its own under a watchdog, and a hang fails the test.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::Duration;

use ntx_runtime::{ObjRef, RtConfig, TxManager};

/// The manager and object a dropped [`Probe`] asks about (none while
/// unset: the test clears it before the manager goes).
static HOOK: Mutex<Option<(TxManager, ObjRef<Probe>)>> = Mutex::new(None);

/// Drops of a [`Probe`] that asked the manager about its own object.
static ASKED: AtomicUsize = AtomicUsize::new(0);

#[derive(Clone)]
struct Probe(u64);

impl Drop for Probe {
    fn drop(&mut self) {
        let hook = HOOK.lock().unwrap().clone();
        if let Some((mgr, obj)) = hook {
            assert!(mgr.version_chain_len(&obj) >= 1);
            ASKED.fetch_add(1, Ordering::SeqCst);
        }
    }
}

#[test]
fn a_collected_versions_drop_may_take_its_objects_mutex() {
    let (done, finished) = mpsc::channel();
    let scenario = std::thread::spawn(move || {
        let mgr = TxManager::new(RtConfig::default());
        let obj = mgr.register("probe", Probe(0));
        *HOOK.lock().unwrap() = Some((mgr.clone(), obj));
        // Each commit collects the versions below the previous one: the
        // second frees genesis, the third the first commit's version.
        for _ in 0..3 {
            let tx = mgr.begin();
            tx.write(&obj, |p| p.0 += 1).unwrap();
            tx.commit().unwrap();
        }
        let at_commits = ASKED.load(Ordering::SeqCst);
        // With no snapshot open, an explicit pass frees all but the head.
        let collected = mgr.collect_garbage();
        let hook = HOOK.lock().unwrap().take();
        drop(hook);
        let chain = mgr.version_chain_len(&obj);
        done.send((at_commits, collected, chain)).unwrap();
    });
    let (at_commits, collected, chain) = match finished.recv_timeout(Duration::from_secs(20)) {
        Ok(seen) => seen,
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("a version's Drop never returned: it ran under its object's mutex")
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => match scenario.join() {
            Err(panic) => std::panic::resume_unwind(panic),
            Ok(()) => unreachable!("the scenario sends before it returns"),
        },
    };
    assert_eq!(at_commits, 2, "two versions collected at commit");
    assert_eq!(collected, 1, "one more collected by the explicit pass");
    assert_eq!(ASKED.load(Ordering::SeqCst), 3);
    assert_eq!(chain, 1);
}
