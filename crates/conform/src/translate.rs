//! Trace → model translation and the conformance check itself.

use std::collections::HashMap;
use std::sync::Arc;

use ntx_model::correctness::check_serial_correctness;
use ntx_model::wellformed::check_concurrent_sequence;
use ntx_model::{Action, StdSemantics, SystemSpec, Value};
use ntx_tree::{AccessKind, ObjectId, TxId, TxTree, TxTreeBuilder};

use crate::session::{Trace, TraceEvent};

/// Options for [`trace_to_model`] / [`check_trace`].
#[derive(Clone, Copy, Debug, Default)]
pub struct TranslateOptions {
    /// Treat reads as writes in the model's lock objects: the Lynch–Merritt
    /// exclusive-locking object of the paper's §4.3 remark. The runtime has
    /// no such mode; a caller gets it by issuing every access as a write.
    pub exclusive: bool,
    /// Enable the footnote-8 optimisation (drop a read lock its holder's
    /// write lock subsumes) in the model's lock objects. The runtime keeps
    /// both locks; footnote 8 changes no grant decision, so a default
    /// runtime's traces conform with the flag on or off.
    pub footnote8: bool,
}

/// Rebuild the paper's world from a trace: the system type whose access
/// leaves are the observed operations, and the operation sequence that the
/// runtime's execution corresponds to.
///
/// Mapping: each traced transaction is an internal node; each observed
/// read/add is an access leaf under its transaction that is created,
/// responds with the *observed* value, commits and is informed at its
/// object immediately (the runtime grants locks directly to transactions,
/// which is `M(X)` after the access's inform). Transaction commits/aborts
/// become `COMMIT`/`ABORT` plus the corresponding informs.
pub fn trace_to_model(
    trace: &Trace,
    options: TranslateOptions,
) -> (SystemSpec<StdSemantics>, Vec<Action>) {
    // Pass 1: the tree.
    let mut b = TxTreeBuilder::new();
    let objects: Vec<ObjectId> = (0..trace.objects)
        .map(|i| b.object(format!("c{i}")))
        .collect();
    let mut node_of: HashMap<u64, TxId> = HashMap::new();
    let mut leaf_of_event: Vec<Option<TxId>> = Vec::with_capacity(trace.events.len());
    let mut snap_of_event: HashMap<usize, (TxId, TxId)> = HashMap::new();
    for (i, ev) in trace.events.iter().enumerate() {
        match *ev {
            TraceEvent::Begin { tx, parent } => {
                let p = parent.map_or(TxTree::ROOT, |p| node_of[&p]);
                let node = b.internal(p, format!("tx{tx}"));
                node_of.insert(tx, node);
                leaf_of_event.push(None);
            }
            TraceEvent::Read { tx, obj, .. } => {
                let leaf = b.access(
                    node_of[&tx],
                    format!("r{i}"),
                    objects[obj],
                    AccessKind::Read,
                    0,
                    0,
                );
                leaf_of_event.push(Some(leaf));
            }
            TraceEvent::Add { tx, obj, delta, .. } => {
                let leaf = b.access(
                    node_of[&tx],
                    format!("w{i}"),
                    objects[obj],
                    AccessKind::Write,
                    0,
                    delta,
                );
                leaf_of_event.push(Some(leaf));
            }
            TraceEvent::SnapshotRead { obj, .. } => {
                // A snapshot read becomes a synthetic top-level read-only
                // transaction: one internal node with a single read leaf.
                // Pass 2 splices its whole lifetime at the point of the
                // last top-level commit that published `obj` — the paper's
                // §4 justification for returning committed state without a
                // lock is exactly that the read is serializable *there*.
                let s_top = b.internal(TxTree::ROOT, format!("snap{i}"));
                let leaf = b.access(
                    s_top,
                    format!("sr{i}"),
                    objects[obj],
                    AccessKind::Read,
                    0,
                    0,
                );
                snap_of_event.insert(i, (s_top, leaf));
                leaf_of_event.push(None);
            }
            _ => leaf_of_event.push(None),
        }
    }
    let tree = Arc::new(b.build());

    // Pass 2: the operation sequence. Alongside it, track which objects
    // each transaction has (transitively, via committed children) written,
    // and where in the action sequence each object's last *top-level
    // publishing* commit landed — the splice points for snapshot reads.
    let mut actions = vec![Action::Create(TxTree::ROOT)];
    let mut parent_of: HashMap<u64, Option<u64>> = HashMap::new();
    let mut writes: HashMap<u64, Vec<usize>> = HashMap::new();
    // Position just after the last top-level commit that published each
    // object; position 1 (right after `Create(ROOT)`) when never
    // published, where the object still has its initial value.
    let mut last_pub: Vec<usize> = vec![1; trace.objects];
    for (i, ev) in trace.events.iter().enumerate() {
        match *ev {
            TraceEvent::Begin { tx, parent } => {
                let node = node_of[&tx];
                parent_of.insert(tx, parent);
                actions.push(Action::RequestCreate(node));
                actions.push(Action::Create(node));
            }
            TraceEvent::Read { tx, obj, value } | TraceEvent::Add { tx, obj, value, .. } => {
                let leaf = leaf_of_event[i].expect("access events have leaves");
                let x = objects[obj];
                actions.push(Action::RequestCreate(leaf));
                actions.push(Action::Create(leaf));
                actions.push(Action::RequestCommit(leaf, Value(value)));
                actions.push(Action::Commit(leaf));
                actions.push(Action::InformCommit(x, leaf));
                actions.push(Action::ReportCommit(leaf, Value(value)));
                if matches!(ev, TraceEvent::Add { .. }) {
                    let w = writes.entry(tx).or_default();
                    if !w.contains(&obj) {
                        w.push(obj);
                    }
                }
            }
            TraceEvent::Commit { tx } => {
                let node = node_of[&tx];
                actions.push(Action::RequestCommit(node, Value(0)));
                actions.push(Action::Commit(node));
                for &x in &objects {
                    actions.push(Action::InformCommit(x, node));
                }
                actions.push(Action::ReportCommit(node, Value(0)));
                let written = writes.remove(&tx).unwrap_or_default();
                match parent_of.get(&tx).copied().flatten() {
                    // A subtransaction's writes become the parent's
                    // (version inheritance): they publish when the
                    // top-level ancestor eventually commits.
                    Some(p) => {
                        let pw = writes.entry(p).or_default();
                        for obj in written {
                            if !pw.contains(&obj) {
                                pw.push(obj);
                            }
                        }
                    }
                    // Top-level commit: these objects are now published
                    // here — snapshot reads of them splice after this
                    // commit block.
                    None => {
                        for obj in written {
                            last_pub[obj] = actions.len();
                        }
                    }
                }
            }
            TraceEvent::SnapshotRead { obj, value } => {
                // Splice the synthetic reader's entire lifetime at the
                // last publication point of `obj`. The write lock there is
                // just released (or never taken); only compatible read
                // locks can be held, so the replay grants the read, and
                // the counter semantics check `value` against the
                // committed state at that point — a stale or uncommitted
                // value fails the schedule replay.
                let (s_top, leaf) = snap_of_event[&i];
                let x = objects[obj];
                let mut block = vec![
                    Action::RequestCreate(s_top),
                    Action::Create(s_top),
                    Action::RequestCreate(leaf),
                    Action::Create(leaf),
                    Action::RequestCommit(leaf, Value(value)),
                    Action::Commit(leaf),
                    Action::InformCommit(x, leaf),
                    Action::ReportCommit(leaf, Value(value)),
                    Action::RequestCommit(s_top, Value(0)),
                    Action::Commit(s_top),
                ];
                for &o in &objects {
                    block.push(Action::InformCommit(o, s_top));
                }
                block.push(Action::ReportCommit(s_top, Value(0)));
                let pos = last_pub[obj];
                let len = block.len();
                actions.splice(pos..pos, block);
                // Later splice points recorded at or after `pos` moved.
                for p in last_pub.iter_mut() {
                    if *p >= pos {
                        *p += len;
                    }
                }
            }
            TraceEvent::Abort { tx } => {
                let node = node_of[&tx];
                actions.push(Action::Abort(node));
                for &x in &objects {
                    actions.push(Action::InformAbort(x, node));
                }
                actions.push(Action::ReportAbort(node));
                writes.remove(&tx);
            }
        }
    }

    let semantics = vec![StdSemantics::counter(0); trace.objects];
    let mut spec = SystemSpec::new(tree, semantics).with_blackbox_transactions();
    spec.lock_config.treat_reads_as_writes = options.exclusive;
    spec.lock_config.drop_read_lock_when_write_held = options.footnote8;
    (spec, actions)
}

/// The conformance verdict for one trace.
#[derive(Clone, Debug)]
pub struct ConformanceReport {
    /// Translated operation count.
    pub actions: usize,
    /// `None` = the trace replays as a schedule of the R/W Locking system;
    /// `Some(msg)` = the replay was refused (lock discipline or value
    /// mismatch between runtime and model).
    pub schedule_error: Option<String>,
    /// `None` = the translated sequence is well-formed (§3.1/§3.2/§5.1);
    /// `Some(msg)` = a well-formedness violation with its action index.
    pub wellformed_error: Option<String>,
    /// Theorem 34 violations found on the translated schedule.
    pub correctness_violations: Vec<String>,
}

impl ConformanceReport {
    /// `true` when the trace fully conforms.
    pub fn ok(&self) -> bool {
        self.schedule_error.is_none()
            && self.wellformed_error.is_none()
            && self.correctness_violations.is_empty()
    }
}

/// Check a runtime trace against the formal model (see crate docs).
pub fn check_trace(trace: &Trace, options: TranslateOptions) -> ConformanceReport {
    let (spec, actions) = trace_to_model(trace, options);
    let schedule_error = spec
        .is_concurrent_schedule(&actions)
        .err()
        .map(|e| format!("{e} — action {:?}", actions.get(e.index)));
    let wellformed_error = check_concurrent_sequence(&actions, &spec.tree)
        .err()
        .map(|(i, v)| format!("{v} — action {i} {:?}", actions.get(i)));
    let report = check_serial_correctness(&spec, &actions);
    ConformanceReport {
        actions: actions.len(),
        schedule_error,
        wellformed_error,
        correctness_violations: report.violations.iter().map(|v| v.to_string()).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::ConformanceSession;
    use ntx_runtime::{RtConfig, TxManager};
    use std::time::Duration;

    fn session(objects: usize) -> ConformanceSession {
        let mgr = TxManager::new(RtConfig {
            wait_timeout: Duration::from_millis(20),
            ..Default::default()
        });
        ConformanceSession::new(mgr, objects)
    }

    #[test]
    fn simple_nested_trace_conforms() {
        let s = session(2);
        let t = s.begin();
        s.add(&t, 0, 5).unwrap();
        let c = s.child(&t).unwrap();
        assert_eq!(s.read(&c, 0).unwrap(), 5);
        s.add(&c, 1, 2).unwrap();
        s.commit(&c).unwrap();
        s.commit(&t).unwrap();
        let report = check_trace(&s.finish(), Default::default());
        assert!(report.ok(), "{report:?}");
    }

    #[test]
    fn interleaved_top_level_trace_conforms() {
        let s = session(2);
        let t1 = s.begin();
        let t2 = s.begin();
        s.add(&t1, 0, 1).unwrap();
        s.add(&t2, 1, 10).unwrap();
        assert_eq!(s.read(&t1, 0).unwrap(), 1);
        s.commit(&t1).unwrap();
        // Now t2 can touch object 0 (t1 published).
        assert_eq!(s.add(&t2, 0, 1).unwrap(), 2);
        s.commit(&t2).unwrap();
        let report = check_trace(&s.finish(), Default::default());
        assert!(report.ok(), "{report:?}");
    }

    #[test]
    fn aborted_subtree_trace_conforms() {
        let s = session(1);
        let t = s.begin();
        s.add(&t, 0, 3).unwrap();
        let c = s.child(&t).unwrap();
        s.add(&c, 0, 100).unwrap();
        s.abort(&c);
        // The parent sees its own value again.
        assert_eq!(s.read(&t, 0).unwrap(), 3);
        s.commit(&t).unwrap();
        let report = check_trace(&s.finish(), Default::default());
        assert!(report.ok(), "{report:?}");
    }

    #[test]
    fn snapshot_reads_splice_and_conform() {
        let s = session(2);
        // Snapshot before anything commits: sees initial state.
        assert_eq!(s.snapshot_read(0), 0);
        let t1 = s.begin();
        s.add(&t1, 0, 5).unwrap();
        // Uncommitted write must be invisible to a snapshot.
        assert_eq!(s.snapshot_read(0), 0);
        s.commit(&t1).unwrap();
        // Published now.
        assert_eq!(s.snapshot_read(0), 5);
        // A nested writer publishes through its top-level ancestor.
        let t2 = s.begin();
        let c = s.child(&t2).unwrap();
        s.add(&c, 1, 7).unwrap();
        s.commit(&c).unwrap();
        assert_eq!(s.snapshot_read(1), 0, "child commit does not publish");
        s.commit(&t2).unwrap();
        assert_eq!(s.snapshot_read(1), 7);
        let report = check_trace(&s.finish(), Default::default());
        assert!(report.ok(), "{report:?}");
    }

    #[test]
    fn forged_value_is_rejected() {
        // Hand-build a trace whose read observed a value the locking
        // discipline cannot produce: the conformance check must refuse it.
        let trace = Trace {
            objects: 1,
            events: vec![
                TraceEvent::Begin {
                    tx: 1,
                    parent: None,
                },
                TraceEvent::Read {
                    tx: 1,
                    obj: 0,
                    value: 42,
                }, // counter is 0!
                TraceEvent::Commit { tx: 1 },
            ],
        };
        let report = check_trace(&trace, Default::default());
        assert!(!report.ok());
        assert!(report.schedule_error.is_some());
    }

    #[test]
    fn forged_lock_violation_is_rejected() {
        // A trace where a second top-level transaction reads a value that
        // was never committed to the top: violates Moss' grant rule.
        let trace = Trace {
            objects: 1,
            events: vec![
                TraceEvent::Begin {
                    tx: 1,
                    parent: None,
                },
                TraceEvent::Add {
                    tx: 1,
                    obj: 0,
                    delta: 7,
                    value: 7,
                },
                TraceEvent::Begin {
                    tx: 2,
                    parent: None,
                },
                // t1 still holds the write lock: the model must refuse.
                TraceEvent::Read {
                    tx: 2,
                    obj: 0,
                    value: 7,
                },
                TraceEvent::Commit { tx: 1 },
                TraceEvent::Commit { tx: 2 },
            ],
        };
        let report = check_trace(&trace, Default::default());
        assert!(!report.ok(), "dirty read accepted: {report:?}");
    }

    /// The model with footnote 8 accepts a default runtime's trace: the
    /// runtime keeping the redundant read lock decides no grant
    /// differently from a model that drops it.
    #[test]
    fn footnote8_trace_conforms_with_flag() {
        let s = session(1);
        let t = s.begin();
        let c = s.child(&t).unwrap();
        assert_eq!(s.read(&c, 0).unwrap(), 0);
        s.commit(&c).unwrap(); // read lock inherited by t ...
        let c2 = s.child(&t).unwrap();
        s.add(&c2, 0, 4).unwrap();
        s.commit(&c2).unwrap(); // ... write lock inherited: the model drops the read lock
        let c3 = s.child(&t).unwrap();
        assert_eq!(s.read(&c3, 0).unwrap(), 4);
        s.commit(&c3).unwrap();
        s.commit(&t).unwrap();
        let report = check_trace(
            &s.finish(),
            TranslateOptions {
                exclusive: false,
                footnote8: true,
            },
        );
        assert!(report.ok(), "{report:?}");
    }

    /// Exclusive locking as a caller runs it: every "read" is an add of 0,
    /// a write whose effect only reads. The model with reads-as-writes
    /// accepts the trace.
    #[test]
    fn exclusive_mode_trace_conforms_with_flag() {
        let s = session(1);
        let t1 = s.begin();
        assert_eq!(s.add(&t1, 0, 0).unwrap(), 0);
        // A second reader must NOT get through in exclusive mode.
        let t2 = s.begin();
        assert!(
            s.add(&t2, 0, 0).is_err(),
            "exclusive read should block/timeout"
        );
        s.commit(&t1).unwrap();
        assert_eq!(s.add(&t2, 0, 0).unwrap(), 0);
        s.commit(&t2).unwrap();
        let report = check_trace(
            &s.finish(),
            TranslateOptions {
                exclusive: true,
                footnote8: false,
            },
        );
        assert!(report.ok(), "{report:?}");
    }
}
