//! Both oracles on the deadlock path: a traced, threaded run whose
//! concurrent siblings close real wait-for cycles. The fuzz runs with a
//! zero wait budget, so no fuzzed request ever queues; here every round
//! queues two siblings of the older transaction behind the younger one and
//! lets two siblings of the younger close a cycle each.
//!
//! The runtime trace must certify under `ntx_hb` — every wait, the two
//! that died on a cycle included, has exactly one resolution and every
//! wake its grant edge — and the linearised access log must replay as a
//! schedule of Moss' R/W Locking system and pass Theorem 34 under
//! `ntx_conform`. The log is linearised by construction: an access is
//! recorded inside its closure (under the object's slot mutex, so in lock
//! order), a begin after it returns, a commit or abort before it is
//! issued; a request refused as a deadlock victim records nothing, like a
//! timed-out one. The younger transaction is the victim of every cycle and
//! always the requester, so no transaction is aborted behind the log's
//! back.

use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use ntx_conform::{check_trace, Trace, TraceEvent, TranslateOptions};
use ntx_runtime::{ObjRef, RtConfig, TraceRecorder, Tx, TxError, TxManager};

const OBJECTS: usize = 4;
const ROUNDS: usize = 12;
const BUDGET: Duration = Duration::from_secs(20);

/// The linearised access log and the objects it names.
struct Log {
    events: Mutex<Vec<TraceEvent>>,
    objs: Vec<ObjRef<i64>>,
}

impl Log {
    fn push(&self, ev: TraceEvent) {
        self.events.lock().unwrap().push(ev);
    }

    fn begin(&self, parent: Option<&Tx>, mgr: &TxManager) -> Tx {
        let tx = match parent {
            Some(p) => p.child().unwrap(),
            None => mgr.begin(),
        };
        self.push(TraceEvent::Begin {
            tx: tx.id(),
            parent: parent.map(Tx::id),
        });
        tx
    }

    fn add(&self, tx: &Tx, obj: usize, delta: i64) -> Result<i64, TxError> {
        tx.write(&self.objs[obj], |v| {
            *v += delta;
            self.push(TraceEvent::Add {
                tx: tx.id(),
                obj,
                delta,
                value: *v,
            });
            *v
        })
    }

    fn read(&self, tx: &Tx, obj: usize) -> Result<i64, TxError> {
        tx.read(&self.objs[obj], |v| {
            self.push(TraceEvent::Read {
                tx: tx.id(),
                obj,
                value: *v,
            });
            *v
        })
    }

    fn commit(&self, tx: &Tx) {
        self.push(TraceEvent::Commit { tx: tx.id() });
        tx.commit().unwrap();
    }

    fn abort(&self, tx: &Tx) {
        self.push(TraceEvent::Abort { tx: tx.id() });
        tx.abort();
    }
}

fn await_queued(mgr: &TxManager, n: usize) {
    let start = Instant::now();
    while mgr.queued_waiters() < n {
        assert!(
            start.elapsed() < BUDGET,
            "only {} queued",
            mgr.queued_waiters()
        );
        thread::yield_now();
    }
}

/// One round on objects `o` (a rotation of the four): A's children a1, a2
/// and B's children b1, b2 each hold one object; a1 and a2 then queue at
/// once on B's two; b1 and b2 then ask for A's two at once, and each
/// closes a cycle A → B → A that B, the younger, dies on. The dead
/// children abort, A's siblings get through, and B retries in a fresh
/// child behind A's commit. On odd rounds a1 reads instead of writing.
fn round(mgr: &TxManager, log: &Log, o: [usize; 4], read: bool) {
    let a = log.begin(None, mgr);
    let b = log.begin(None, mgr);
    let (a1, a2) = (log.begin(Some(&a), mgr), log.begin(Some(&a), mgr));
    let (b1, b2) = (log.begin(Some(&b), mgr), log.begin(Some(&b), mgr));
    log.add(&b1, o[0], 1).unwrap();
    log.add(&b2, o[1], 1).unwrap();
    log.add(&a1, o[2], 10).unwrap();
    log.add(&a2, o[3], 10).unwrap();
    thread::scope(|s| {
        let on_b1 = s.spawn(|| {
            if read {
                log.read(&a1, o[0])
            } else {
                log.add(&a1, o[0], 10)
            }
        });
        let on_b2 = s.spawn(|| log.add(&a2, o[1], 10));
        await_queued(mgr, 2);
        let closing: Vec<_> = [(&b1, o[2]), (&b2, o[3])]
            .map(|(t, obj)| s.spawn(move || log.add(t, obj, 1)))
            .into_iter()
            .collect();
        for c in closing {
            assert_eq!(c.join().unwrap(), Err(TxError::Deadlock));
        }
        log.abort(&b1);
        log.abort(&b2);
        assert!(on_b1.join().unwrap().is_ok());
        assert!(on_b2.join().unwrap().is_ok());
    });
    log.commit(&a1);
    log.commit(&a2);
    let b3 = log.begin(Some(&b), mgr);
    thread::scope(|s| {
        let retry = s.spawn(|| log.add(&b3, o[2], 1));
        await_queued(mgr, 1);
        log.commit(&a);
        assert!(retry.join().unwrap().is_ok());
    });
    log.commit(&b3);
    log.commit(&b);
}

#[test]
fn threaded_cycles_between_siblings_certify_and_conform() {
    let rec = Arc::new(TraceRecorder::new());
    let mgr = TxManager::new(RtConfig {
        wait_timeout: BUDGET,
        trace: Some(rec.clone()),
        ..Default::default()
    });
    let log = Log {
        events: Mutex::new(Vec::new()),
        objs: (0..OBJECTS)
            .map(|i| mgr.register(format!("c{i}"), 0i64))
            .collect(),
    };
    for r in 0..ROUNDS {
        let o = [0, 1, 2, 3].map(|k| (k + r) % OBJECTS);
        round(&mgr, &log, o, r % 2 == 1);
    }
    let stats = mgr.stats();
    assert_eq!(stats.deadlocks, 2 * ROUNDS as u64, "{stats:?}");
    assert_eq!(stats.timeouts, 0, "{stats:?}");
    assert_eq!(mgr.queued_waiters(), 0);

    let hb = ntx_hb::certify(&rec.stamped_events());
    assert!(hb.ok(), "{}", hb.render_violations());
    assert_eq!(hb.waits, 5 * ROUNDS, "four queued per round plus B's retry");
    assert_eq!(hb.waits, hb.waits_resolved);

    let trace = Trace {
        events: log.events.into_inner().unwrap(),
        objects: OBJECTS,
    };
    let report = check_trace(&trace, TranslateOptions::default());
    assert!(report.ok(), "{report:?}");
}
