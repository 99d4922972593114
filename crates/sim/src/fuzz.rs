//! Schedule fuzzing with fault injection, differentially checked against
//! the model.
//!
//! [`fuzz_run`] drives a single-threaded, fully seeded random workload
//! against a real [`TxManager`]: a mix of begins, nested children, reads,
//! adds, commits and aborts, with a [`SeededFaults`] injector killing
//! transactions at the runtime's yield points. Every operation is recorded
//! through `ntx-conform`'s [`ConformanceSession`], and the resulting trace
//! is replayed through the paper's R/W Locking automaton and the Theorem 34
//! serial-correctness checker. Whatever the faults did to the execution,
//! the surviving trace must still be a correct nested-transaction history —
//! that is the differential claim the fuzzer checks.
//!
//! Determinism: one thread, a [`StdRng`] op picker, a counter-keyed
//! injector and a zero wait budget (every blocked request fails immediately
//! instead of parking) make the whole run — including the runtime's own
//! [`TraceRecorder`] log — a pure function of [`FuzzConfig::seed`].

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use ntx_conform::{
    check_trace, ConformanceReport, ConformanceSession, Trace, TracedTx, TranslateOptions,
};
use ntx_hb::HbReport;
use ntx_runtime::{
    FsyncPolicy, LockMode, RtConfig, RtEvent, StatsSnapshot, TraceRecorder, TxError, TxManager,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::fault::{CrashPlan, FaultPlan, SeededFaults};

/// Parameters of one fuzz run.
#[derive(Clone, Copy, Debug)]
pub struct FuzzConfig {
    /// Master seed: op sequence and fault decisions both derive from it.
    pub seed: u64,
    /// Number of driver steps (each step attempts one operation).
    pub steps: usize,
    /// Number of counter objects.
    pub objects: usize,
    /// Maximum concurrently open top-level transactions.
    pub top_level: usize,
    /// Maximum nesting depth (0 = top level only).
    pub max_depth: usize,
    /// Fault probabilities.
    pub plan: FaultPlan,
    /// Run the runtime in [`LockMode::Exclusive`] and tell the checker.
    pub exclusive: bool,
    /// Enable the footnote-8 optimisation on both sides.
    pub footnote8: bool,
    /// Mix lock-free snapshot reads into the workload (checked against
    /// the model as synthetic read-only transactions at the publication
    /// point — see `ntx-conform`'s translation).
    pub snapshot_ops: bool,
    /// Route a seeded half of all reads/adds through the future driver
    /// (`Tx::read_async`/`Tx::write_async` polled inline), so one seed
    /// exercises *both* drivers of the request state machine — blocking
    /// and polled — against the same fault schedule. Guarded by the flag so
    /// legacy seeds replay unchanged.
    pub async_ops: bool,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 0,
            steps: 80,
            objects: 3,
            top_level: 3,
            max_depth: 3,
            plan: FaultPlan::light(),
            exclusive: false,
            footnote8: false,
            snapshot_ops: false,
            async_ops: false,
        }
    }
}

/// Everything one fuzz run produced.
pub struct FuzzOutcome {
    /// The seed that produced this outcome.
    pub seed: u64,
    /// The conformance-session trace (model-facing events).
    pub trace: Trace,
    /// The differential verdict.
    pub report: ConformanceReport,
    /// The happens-before certification of the runtime's own event stream
    /// (`ntx-hb`): synchronization invariants checked on this execution in
    /// the same pass as the Theorem 34 checker.
    pub hb: HbReport,
    /// The runtime's own action log, rendered (byte-stable per seed).
    pub log: String,
    /// Injector consultations during the run.
    pub fault_calls: u64,
    /// Faults actually applied (from the runtime log).
    pub faults_applied: usize,
    /// Runtime counters at the end of the run.
    pub stats: StatsSnapshot,
}

impl FuzzOutcome {
    /// `true` when the trace conformed to the model *and* its
    /// synchronization was happens-before certified.
    pub fn ok(&self) -> bool {
        self.report.ok() && self.hb.ok()
    }
}

struct Node {
    t: TracedTx,
    parent: Option<usize>,
    depth: usize,
    finished: bool,
}

fn is_descendant(slots: &[Node], anc: usize, mut i: usize) -> bool {
    loop {
        if i == anc {
            return true;
        }
        match slots[i].parent {
            Some(p) => i = p,
            None => return false,
        }
    }
}

/// Mark `root` and every unfinished descendant finished (their runtime
/// state is already settled; this is driver bookkeeping only).
fn close_subtree(slots: &mut [Node], root: usize) {
    for i in root..slots.len() {
        if !slots[i].finished && is_descendant(slots, root, i) {
            slots[i].finished = true;
        }
    }
}

/// Record aborts for transactions doomed from outside the driver's own
/// calls (injected faults, crash-of-subtree): the *maximal* doomed nodes
/// get a session abort — their descendants are covered by the subtree
/// abort, exactly as the runtime treats them.
fn sweep_doomed(session: &ConformanceSession, slots: &mut [Node]) {
    for i in 0..slots.len() {
        if slots[i].finished || !slots[i].t.is_doomed() {
            continue;
        }
        let parent_doomed = slots[i]
            .parent
            .is_some_and(|p| !slots[p].finished && slots[p].t.is_doomed());
        if !parent_doomed {
            session.abort(&slots[i].t);
            close_subtree(slots, i);
        }
    }
}

fn open_top_count(slots: &[Node]) -> usize {
    slots
        .iter()
        .filter(|n| !n.finished && n.parent.is_none())
        .count()
}

fn has_open_child(slots: &[Node], i: usize) -> bool {
    slots.iter().any(|n| !n.finished && n.parent == Some(i))
}

fn pick<'a>(rng: &mut StdRng, alive: &'a [usize]) -> Option<&'a usize> {
    if alive.is_empty() {
        None
    } else {
        alive.get(rng.gen_range(0..alive.len()))
    }
}

/// Run one seeded fuzz scenario end to end and check it against the model.
pub fn fuzz_run(cfg: &FuzzConfig) -> FuzzOutcome {
    let recorder = Arc::new(TraceRecorder::new());
    let injector = Arc::new(SeededFaults::new(cfg.seed ^ 0xF417, cfg.plan));
    let rt = RtConfig {
        mode: if cfg.exclusive {
            LockMode::Exclusive
        } else {
            LockMode::MossRW
        },
        // Zero budget: a blocked request fails deterministically on its
        // first pass instead of parking on the condition variable.
        wait_timeout: Duration::ZERO,
        drop_read_lock_when_write_held: cfg.footnote8,
        fault: Some(injector.clone()),
        trace: Some(recorder.clone()),
        ..Default::default()
    };
    let mgr = TxManager::new(rt);
    let session = ConformanceSession::new(mgr.clone(), cfg.objects.max(1));
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut slots: Vec<Node> = Vec::new();

    for _ in 0..cfg.steps {
        let alive: Vec<usize> = (0..slots.len()).filter(|&i| !slots[i].finished).collect();
        let roll = rng.gen_range(0u32..100);
        match roll {
            // Open a new top-level transaction.
            _ if roll < 10 || alive.is_empty() => {
                if open_top_count(&slots) < cfg.top_level {
                    let t = session.begin();
                    slots.push(Node {
                        t,
                        parent: None,
                        depth: 0,
                        finished: false,
                    });
                }
            }
            // Open a child under a random live transaction.
            _ if roll < 20 => {
                let candidates: Vec<usize> = alive
                    .iter()
                    .copied()
                    .filter(|&i| slots[i].depth < cfg.max_depth)
                    .collect();
                if let Some(&i) = pick(&mut rng, &candidates) {
                    if let Ok(c) = session.child(&slots[i].t) {
                        let depth = slots[i].depth + 1;
                        slots.push(Node {
                            t: c,
                            parent: Some(i),
                            depth,
                            finished: false,
                        });
                    }
                }
            }
            // Lock-free snapshot read (no transaction, never blocks).
            // Guarded by the flag so legacy seeds replay unchanged.
            _ if cfg.snapshot_ops && (42..47).contains(&roll) => {
                let obj = rng.gen_range(0..cfg.objects.max(1));
                session.snapshot_read(obj);
            }
            // Read a random object (seeded coin: blocking or polled
            // driver; the draw happens only when
            // async_ops is on, so legacy seeds replay unchanged).
            _ if roll < 52 => {
                if let Some(&i) = pick(&mut rng, &alive) {
                    let obj = rng.gen_range(0..cfg.objects.max(1));
                    let res = if cfg.async_ops && rng.gen_bool(0.5) {
                        session.read_async(&slots[i].t, obj)
                    } else {
                        session.read(&slots[i].t, obj)
                    };
                    match res {
                        Ok(_) | Err(TxError::Timeout) => {}
                        Err(TxError::Deadlock) => {
                            // Chosen as victim: give up the whole subtree.
                            session.abort(&slots[i].t);
                            close_subtree(&mut slots, i);
                        }
                        Err(_) => {} // doomed: the sweep below records it
                    }
                }
            }
            // Add to a random object (same seeded variant coin as reads).
            _ if roll < 82 => {
                if let Some(&i) = pick(&mut rng, &alive) {
                    let obj = rng.gen_range(0..cfg.objects.max(1));
                    let delta = rng.gen_range(1i64..10);
                    let res = if cfg.async_ops && rng.gen_bool(0.5) {
                        session.add_async(&slots[i].t, obj, delta)
                    } else {
                        session.add(&slots[i].t, obj, delta)
                    };
                    match res {
                        Ok(_) | Err(TxError::Timeout) => {}
                        Err(TxError::Deadlock) => {
                            session.abort(&slots[i].t);
                            close_subtree(&mut slots, i);
                        }
                        Err(_) => {}
                    }
                }
            }
            // Commit a transaction with no open children.
            _ if roll < 93 => {
                let candidates: Vec<usize> = alive
                    .iter()
                    .copied()
                    .filter(|&i| !has_open_child(&slots, i))
                    .collect();
                if let Some(&i) = pick(&mut rng, &candidates) {
                    match session.commit(&slots[i].t) {
                        Ok(()) => slots[i].finished = true,
                        Err(_) => {
                            // Commit-time fault or external doom: the
                            // runtime aborted the subtree; record it.
                            session.abort(&slots[i].t);
                            close_subtree(&mut slots, i);
                        }
                    }
                }
            }
            // Abort a random transaction.
            _ => {
                if let Some(&i) = pick(&mut rng, &alive) {
                    session.abort(&slots[i].t);
                    close_subtree(&mut slots, i);
                }
            }
        }
        sweep_doomed(&session, &mut slots);
    }

    // Close-out: children before parents (creation order reversed), so no
    // commit can fail on live children.
    sweep_doomed(&session, &mut slots);
    for i in (0..slots.len()).rev() {
        if slots[i].finished {
            continue;
        }
        match session.commit(&slots[i].t) {
            Ok(()) => slots[i].finished = true,
            Err(_) => {
                session.abort(&slots[i].t);
                close_subtree(&mut slots, i);
            }
        }
    }

    let fault_calls = injector.calls();
    let stats = mgr.stats();
    let faults_applied = recorder
        .events()
        .iter()
        .filter(|e| matches!(e, RtEvent::Fault { .. }))
        .count();
    let log = recorder.render();
    let hb = ntx_hb::certify(&recorder.stamped_events());
    let trace = session.finish();
    let report = check_trace(
        &trace,
        TranslateOptions {
            exclusive: cfg.exclusive,
            footnote8: cfg.footnote8,
        },
    );
    FuzzOutcome {
        seed: cfg.seed,
        trace,
        report,
        hb,
        log,
        fault_calls,
        faults_applied,
        stats,
    }
}

// ---------------------------------------------------------------------------
// Kill-and-recover fuzzing
// ---------------------------------------------------------------------------

/// Parameters of one kill-and-recover fuzz run ([`fuzz_crash_run`]).
#[derive(Clone, Debug)]
pub struct CrashFuzzConfig {
    /// Master seed (ops, fault draws, crash draws, torn-tail length).
    pub seed: u64,
    /// Driver steps before a clean shutdown (a crash usually cuts this
    /// short).
    pub steps: usize,
    /// Number of durable counter objects.
    pub objects: usize,
    /// Maximum concurrently open top-level transactions.
    pub top_level: usize,
    /// Maximum nesting depth.
    pub max_depth: usize,
    /// Ordinary fault probabilities (aborts, timeouts, victims).
    pub plan: FaultPlan,
    /// Process-kill probabilities at the WAL yield points.
    pub crash: CrashPlan,
    /// Directory for the log segments. `wal-*.log` files in it are wiped
    /// at the start of every run, so runs may share a directory
    /// sequentially (never concurrently).
    pub wal_dir: PathBuf,
    /// Fsync policy for the run.
    pub fsync: FsyncPolicy,
    /// Checkpoint cadence (0 = never), so crashes can land mid-checkpoint.
    pub checkpoint_every: u64,
    /// After the kill, chop the unsynced log tail at a seeded byte offset
    /// (usually mid-record) instead of letting every written byte survive.
    pub torn_tail: bool,
}

impl CrashFuzzConfig {
    /// A config that exercises every durability path: light ordinary
    /// faults, a kill chance at every WAL yield point, group commit and
    /// periodic checkpoints.
    pub fn new(seed: u64, wal_dir: PathBuf) -> CrashFuzzConfig {
        CrashFuzzConfig {
            seed,
            steps: 160,
            objects: 3,
            top_level: 3,
            max_depth: 2,
            plan: FaultPlan::light(),
            crash: CrashPlan::all(60),
            wal_dir,
            fsync: FsyncPolicy::Group(3, Duration::from_millis(50)),
            checkpoint_every: 6,
            torn_tail: true,
        }
    }
}

/// Everything one kill-and-recover run produced.
pub struct CrashFuzzOutcome {
    /// The seed that produced this outcome.
    pub seed: u64,
    /// Whether the injector actually killed the process (a run may finish
    /// all its steps without drawing a crash — still checked end to end).
    pub crashed: bool,
    /// Commit clock of the pre-crash manager after winding down.
    pub crash_clock: u64,
    /// Highest commit timestamp the WAL had promised durable pre-crash.
    pub durable_ts: u64,
    /// Commit clock the recovered manager rebuilt to.
    pub recovered_ts: u64,
    /// Committed write sets the recovery pass redid.
    pub redone: u64,
    /// Differential verdict of the surviving pre-crash trace against the
    /// paper's automaton.
    pub report: ConformanceReport,
    /// Happens-before certification of the pre-crash event stream: crash
    /// seeds get the same synchronization audit as ordinary fuzz seeds.
    pub hb: HbReport,
    /// The pre-crash runtime's rendered action log (byte-stable per seed).
    pub log: String,
    /// Every violated durability invariant (empty on success).
    pub failures: Vec<String>,
}

impl CrashFuzzOutcome {
    /// `true` when every durability invariant held, the pre-crash trace
    /// conformed to the model, *and* its synchronization was HB-certified.
    pub fn ok(&self) -> bool {
        self.failures.is_empty() && self.report.ok() && self.hb.ok()
    }
}

/// Run one seeded kill-and-recover scenario end to end.
///
/// The run drives a random durable workload until the injector kills the
/// process at a WAL yield point (or the step budget ends), simulates the
/// power cut ([`TxManager::wal_crash_teardown`]), reopens the log in a
/// fresh manager, recovers, and checks:
///
/// 1. **Durable floor / volatile ceiling** — `durable_ts <= recovered_ts
///    <= crash_clock`: everything fsynced survives, nothing that never
///    committed appears.
/// 2. **Prefix value equality** — every object's recovered committed value
///    equals the value the pre-crash version history held at
///    `recovered_ts`: recovery lands exactly *on* the pre-crash timeline,
///    never beside it.
/// 3. **No resurrection** — every redone transaction committed pre-crash,
///    and none of them aborted.
/// 4. **Recovery is one-shot** — a second `recover()` on the same manager
///    is rejected.
/// 5. **Model conformance** — the surviving pre-crash trace still passes
///    the R/W Locking automaton and the Theorem 34 checker.
pub fn fuzz_crash_run(cfg: &CrashFuzzConfig) -> CrashFuzzOutcome {
    let mut failures: Vec<String> = Vec::new();

    // Fresh log directory (wipe segments from a previous run of this dir).
    if let Err(e) = std::fs::create_dir_all(&cfg.wal_dir) {
        failures.push(format!("cannot create {}: {e}", cfg.wal_dir.display()));
    }
    if let Ok(entries) = std::fs::read_dir(&cfg.wal_dir) {
        for ent in entries.flatten() {
            let name = ent.file_name();
            let name = name.to_string_lossy();
            if name.starts_with("wal-") && name.ends_with(".log") {
                let _ = std::fs::remove_file(ent.path());
            }
        }
    }

    let recorder = Arc::new(TraceRecorder::new());
    let injector = Arc::new(SeededFaults::with_crash(
        cfg.seed ^ 0xF417,
        cfg.plan,
        cfg.crash,
    ));
    let rt = RtConfig {
        wait_timeout: Duration::ZERO,
        fault: Some(injector.clone()),
        trace: Some(recorder.clone()),
        wal_dir: Some(cfg.wal_dir.clone()),
        fsync_policy: cfg.fsync,
        checkpoint_every: cfg.checkpoint_every,
        ..Default::default()
    };
    let mgr = TxManager::new(rt);
    let session = ConformanceSession::new_durable(mgr.clone(), cfg.objects.max(1));
    // Pin a snapshot at ts 0 for the whole run: GC cannot reclaim any
    // version, so the full pre-crash history is available for the prefix
    // value check no matter where the crash lands.
    let pin = mgr.snapshot();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut slots: Vec<Node> = Vec::new();
    let mut committed_ok: Vec<bool> = Vec::new();

    for _ in 0..cfg.steps {
        let alive: Vec<usize> = (0..slots.len()).filter(|&i| !slots[i].finished).collect();
        let roll = rng.gen_range(0u32..100);
        match roll {
            _ if roll < 12 || alive.is_empty() => {
                if open_top_count(&slots) < cfg.top_level {
                    let t = session.begin();
                    slots.push(Node {
                        t,
                        parent: None,
                        depth: 0,
                        finished: false,
                    });
                    committed_ok.push(false);
                }
            }
            _ if roll < 22 => {
                let candidates: Vec<usize> = alive
                    .iter()
                    .copied()
                    .filter(|&i| slots[i].depth < cfg.max_depth)
                    .collect();
                if let Some(&i) = pick(&mut rng, &candidates) {
                    if let Ok(c) = session.child(&slots[i].t) {
                        let depth = slots[i].depth + 1;
                        slots.push(Node {
                            t: c,
                            parent: Some(i),
                            depth,
                            finished: false,
                        });
                        committed_ok.push(false);
                    }
                }
            }
            _ if roll < 50 => {
                if let Some(&i) = pick(&mut rng, &alive) {
                    let obj = rng.gen_range(0..cfg.objects.max(1));
                    match session.read(&slots[i].t, obj) {
                        Ok(_) | Err(TxError::Timeout) => {}
                        Err(TxError::Deadlock) => {
                            session.abort(&slots[i].t);
                            close_subtree(&mut slots, i);
                        }
                        Err(_) => {}
                    }
                }
            }
            _ if roll < 82 => {
                if let Some(&i) = pick(&mut rng, &alive) {
                    let obj = rng.gen_range(0..cfg.objects.max(1));
                    let delta = rng.gen_range(1i64..10);
                    match session.add(&slots[i].t, obj, delta) {
                        Ok(_) | Err(TxError::Timeout) => {}
                        Err(TxError::Deadlock) => {
                            session.abort(&slots[i].t);
                            close_subtree(&mut slots, i);
                        }
                        Err(_) => {}
                    }
                }
            }
            _ if roll < 94 => {
                let candidates: Vec<usize> = alive
                    .iter()
                    .copied()
                    .filter(|&i| !has_open_child(&slots, i))
                    .collect();
                if let Some(&i) = pick(&mut rng, &candidates) {
                    match session.commit(&slots[i].t) {
                        Ok(()) => {
                            slots[i].finished = true;
                            committed_ok[i] = true;
                        }
                        Err(_) => {
                            session.abort(&slots[i].t);
                            close_subtree(&mut slots, i);
                        }
                    }
                }
            }
            _ => {
                if let Some(&i) = pick(&mut rng, &alive) {
                    session.abort(&slots[i].t);
                    close_subtree(&mut slots, i);
                }
            }
        }
        sweep_doomed(&session, &mut slots);
        if mgr.wal_frozen() {
            // The simulated process is dead: stop issuing work. The open
            // transactions below are wound down commit-or-abort so the
            // *trace* is well formed; none of it can reach the dead log.
            break;
        }
    }

    sweep_doomed(&session, &mut slots);
    for i in (0..slots.len()).rev() {
        if slots[i].finished {
            continue;
        }
        match session.commit(&slots[i].t) {
            Ok(()) => {
                slots[i].finished = true;
                committed_ok[i] = true;
            }
            Err(_) => {
                session.abort(&slots[i].t);
                close_subtree(&mut slots, i);
            }
        }
    }

    // Pre-crash ground truth.
    let crashed = mgr.wal_frozen();
    let crash_clock = mgr.commit_clock();
    let durable_ts = mgr.wal_durable_ts();
    let mut committed_tops: Vec<u64> = Vec::new();
    let mut aborted_tops: Vec<u64> = Vec::new();
    for (i, n) in slots.iter().enumerate() {
        if n.parent.is_none() {
            if committed_ok[i] {
                committed_tops.push(n.t.runtime_id());
            } else {
                aborted_tops.push(n.t.runtime_id());
            }
        }
    }
    let histories: Vec<Vec<(u64, i64)>> = (0..cfg.objects.max(1))
        .map(|i| mgr.version_history(&session.object(i)))
        .collect();

    // Power cut: freeze the log and maybe tear the unsynced tail at a
    // seeded (usually mid-record) byte offset.
    let keep = if cfg.torn_tail {
        rng.gen_range(0..=mgr.wal_unsynced_bytes())
    } else {
        u64::MAX
    };
    if let Err(e) = mgr.wal_crash_teardown(keep) {
        failures.push(format!("crash teardown failed: {e}"));
    }

    let log = recorder.render();
    let hb = ntx_hb::certify(&recorder.stamped_events());
    let trace = session.finish();
    let report = check_trace(
        &trace,
        TranslateOptions {
            exclusive: false,
            footnote8: false,
        },
    );
    drop(pin);
    drop(mgr);

    // Reopen from the log in a fresh manager, mirroring the registration
    // order, and recover.
    let mgr2 = TxManager::new(RtConfig {
        wal_dir: Some(cfg.wal_dir.clone()),
        fsync_policy: cfg.fsync,
        checkpoint_every: cfg.checkpoint_every,
        ..Default::default()
    });
    let objs2: Vec<_> = (0..cfg.objects.max(1))
        .map(|i| mgr2.register_durable(format!("c{i}"), 0i64))
        .collect();
    let (recovered_ts, redone) = match mgr2.recover() {
        Err(e) => {
            failures.push(format!("recovery failed: {e}"));
            (0, 0)
        }
        Ok(rec) => {
            // 1. Durable floor, volatile ceiling.
            if rec.recovered_ts < durable_ts {
                failures.push(format!(
                    "recovered_ts {} lost durable commits (durable_ts {durable_ts})",
                    rec.recovered_ts
                ));
            }
            if rec.recovered_ts > crash_clock {
                failures.push(format!(
                    "recovered_ts {} beyond the pre-crash clock {crash_clock}",
                    rec.recovered_ts
                ));
            }
            // 2. Recovered state equals the pre-crash committed value at
            //    the recovered timestamp, object by object.
            for (i, hist) in histories.iter().enumerate() {
                let expect = hist
                    .iter()
                    .rev()
                    .find(|(ts, _)| *ts <= rec.recovered_ts)
                    .map_or(0, |(_, v)| *v);
                let got = mgr2.read_committed(&objs2[i], |v| *v);
                if got != expect {
                    failures.push(format!(
                        "object {i}: recovered value {got} != pre-crash value {expect} \
                         at ts {}",
                        rec.recovered_ts
                    ));
                }
            }
            // 3. No resurrection: redone ⊆ committed, redone ∩ aborted = ∅.
            for top in &rec.redone_tops {
                if !committed_tops.contains(top) {
                    failures.push(format!("redone top {top} never committed pre-crash"));
                }
                if aborted_tops.contains(top) {
                    failures.push(format!("redone top {top} aborted pre-crash"));
                }
            }
            // 4. Recovery is one-shot (only observable once it replayed
            //    history; an empty log leaves the manager fresh).
            if rec.recovered_ts > 0 && mgr2.recover().is_ok() {
                failures.push("second recover() on a recovered manager succeeded".into());
            }
            (rec.recovered_ts, rec.commits_redone)
        }
    };

    CrashFuzzOutcome {
        seed: cfg.seed,
        crashed,
        crash_clock,
        durable_ts,
        recovered_ts,
        redone,
        report,
        hb,
        log,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_run_conforms_and_is_deterministic() {
        let cfg = FuzzConfig {
            seed: 1,
            ..Default::default()
        };
        let a = fuzz_run(&cfg);
        let b = fuzz_run(&cfg);
        assert!(a.ok(), "{:?}", a.report);
        assert_eq!(a.log, b.log, "same seed must replay byte-identically");
        assert_eq!(a.fault_calls, b.fault_calls);
    }

    #[test]
    fn no_faults_when_plan_is_none() {
        let cfg = FuzzConfig {
            seed: 5,
            plan: FaultPlan::none(),
            ..Default::default()
        };
        let out = fuzz_run(&cfg);
        assert!(out.ok(), "{:?}", out.report);
        assert_eq!(out.faults_applied, 0);
        assert!(out.fault_calls > 0, "injector must still be consulted");
    }

    #[test]
    fn heavy_faults_still_conform() {
        for seed in 0..8 {
            let cfg = FuzzConfig {
                seed,
                plan: FaultPlan::heavy(),
                ..Default::default()
            };
            let out = fuzz_run(&cfg);
            assert!(out.ok(), "seed {seed}: {:?}", out.report);
        }
    }

    #[test]
    fn snapshot_ops_conform_and_replay_deterministically() {
        let cfg = FuzzConfig {
            seed: 2,
            snapshot_ops: true,
            ..Default::default()
        };
        let a = fuzz_run(&cfg);
        let b = fuzz_run(&cfg);
        assert!(a.ok(), "{:?}", a.report);
        assert_eq!(a.log, b.log, "same seed must replay byte-identically");
        assert!(
            a.log.contains("SNAPREAD"),
            "no snapshot reads exercised:\n{}",
            a.log
        );
        assert!(a.stats.snapshot_reads > 0);
    }

    #[test]
    fn snapshot_ops_with_heavy_faults_conform() {
        for seed in 0..8 {
            let cfg = FuzzConfig {
                seed,
                snapshot_ops: true,
                plan: FaultPlan::heavy(),
                ..Default::default()
            };
            let out = fuzz_run(&cfg);
            assert!(out.ok(), "seed {seed}: {:?}", out.report);
        }
    }

    #[test]
    fn async_ops_conform_and_replay_deterministically() {
        let cfg = FuzzConfig {
            seed: 3,
            async_ops: true,
            ..Default::default()
        };
        let a = fuzz_run(&cfg);
        let b = fuzz_run(&cfg);
        assert!(a.ok(), "{:?}", a.report);
        assert_eq!(a.log, b.log, "same seed must replay byte-identically");
        assert_eq!(a.fault_calls, b.fault_calls);
    }

    #[test]
    fn async_ops_with_heavy_faults_conform() {
        // Both waiter representations face the same counter-keyed fault
        // schedule; whatever the injector kills, the surviving trace must
        // still conform.
        for seed in 0..8 {
            let cfg = FuzzConfig {
                seed,
                async_ops: true,
                snapshot_ops: true,
                plan: FaultPlan::heavy(),
                ..Default::default()
            };
            let out = fuzz_run(&cfg);
            assert!(out.ok(), "seed {seed}: {:?}", out.report);
        }
    }

    #[test]
    fn async_ops_flag_off_preserves_legacy_seeds() {
        // The variant coin is drawn only when the flag is on: a flag-off
        // run must be byte-identical to the historical default.
        let legacy = fuzz_run(&FuzzConfig {
            seed: 1,
            ..Default::default()
        });
        let explicit_off = fuzz_run(&FuzzConfig {
            seed: 1,
            async_ops: false,
            ..Default::default()
        });
        assert_eq!(legacy.log, explicit_off.log);
    }

    #[test]
    fn exclusive_mode_runs_conform() {
        for seed in 0..4 {
            let cfg = FuzzConfig {
                seed,
                exclusive: true,
                ..Default::default()
            };
            let out = fuzz_run(&cfg);
            assert!(out.ok(), "seed {seed}: {:?}", out.report);
        }
    }

    fn crash_dir(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ntx-crashfuzz-{}-{name}", std::process::id()))
    }

    #[test]
    fn crash_runs_recover_correctly_across_seeds() {
        let dir = crash_dir("seeds");
        let mut crashes = 0;
        for seed in 0..24 {
            let out = fuzz_crash_run(&CrashFuzzConfig::new(seed, dir.clone()));
            assert!(
                out.ok(),
                "seed {seed}: failures {:?}\nreport {:?}",
                out.failures,
                out.report
            );
            crashes += u32::from(out.crashed);
        }
        assert!(crashes > 0, "no seed ever drew a crash");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_crash_point_recovers_alone() {
        use ntx_runtime::FaultPoint;
        for (name, point) in [
            ("pre", FaultPoint::WalPreAppend),
            ("mid", FaultPoint::WalMidCommit),
            ("post", FaultPoint::WalPostAppend),
            ("ckpt", FaultPoint::WalCheckpoint),
        ] {
            let dir = crash_dir(name);
            let mut crashes = 0;
            for seed in 0..12 {
                let cfg = CrashFuzzConfig {
                    crash: CrashPlan::at(point, 200),
                    ..CrashFuzzConfig::new(seed, dir.clone())
                };
                let out = fuzz_crash_run(&cfg);
                assert!(out.ok(), "{name} seed {seed}: failures {:?}", out.failures);
                crashes += u32::from(out.crashed);
            }
            assert!(crashes > 0, "{name}: no seed ever crashed");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn crash_run_is_deterministic_per_seed() {
        let dir = crash_dir("det");
        let cfg = CrashFuzzConfig {
            // `Always` keeps fsync timing out of the decision path, so the
            // whole run (including the runtime log) replays byte for byte.
            fsync: FsyncPolicy::Always,
            ..CrashFuzzConfig::new(9, dir.clone())
        };
        let a = fuzz_crash_run(&cfg);
        let b = fuzz_crash_run(&cfg);
        assert!(a.ok(), "failures {:?}", a.failures);
        assert_eq!(a.log, b.log, "same seed must replay byte-identically");
        assert_eq!(a.crashed, b.crashed);
        assert_eq!(a.recovered_ts, b.recovered_ts);
        assert_eq!(a.redone, b.redone);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn clean_shutdown_recovers_everything() {
        let dir = crash_dir("clean");
        let cfg = CrashFuzzConfig {
            crash: CrashPlan::none(),
            torn_tail: false,
            fsync: FsyncPolicy::Always,
            ..CrashFuzzConfig::new(3, dir.clone())
        };
        let out = fuzz_crash_run(&cfg);
        assert!(out.ok(), "failures {:?}", out.failures);
        assert!(!out.crashed);
        assert_eq!(
            out.recovered_ts, out.crash_clock,
            "no crash: recovery must rebuild the full history"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
