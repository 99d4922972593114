//! The three workloads that call the synchronous `Tx` API from two threads:
//! `inproc_uniform`, `inproc_hot` and `inproc_durable`. They differ only in
//! the objects, the key distribution and whether a write-ahead log is on.

use super::{
    at_slice_boundaries, out_dir, peak_rss_mb, secs, stats_delta, Durable, Opts, Outcome, Setup,
    StartLine, Workload, CLIENTS, MAX_RETRIES,
};
use crate::gen::{Keys, Plan, Rng};
use crate::probes::Probes;
use crate::record::Recorder;
use crate::span::{Kind, Stamps};
use ntx_runtime::{FsyncPolicy, ObjRef, RtConfig, TxError, TxManager};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Transactions the recovery stage commits and `recover()` replays.
const RECOVERY_TXS: u64 = 300_000;
/// Objects of `inproc_uniform` and `inproc_durable`, as many as `ntx-serve`
/// registers in the wire workloads. The working set fits the core's own
/// cache: with 65 536 objects it lives in the last-level cache the sandbox
/// shares with its neighbours, and throughput follows their load.
const OBJECTS: usize = 4096;
/// Objects of `inproc_hot`.
const HOT_OBJECTS: usize = 4;

/// One `N1` transaction through the sync API. Any error drops the handles,
/// which aborts the transaction at top level.
pub fn n1<const TRACE: bool>(
    mgr: &TxManager,
    objs: &[ObjRef<i64>],
    plan: Plan,
    st: &mut Stamps,
) -> Result<(), TxError> {
    st.restart::<TRACE>();
    let top = mgr.begin();
    st.mark::<TRACE>(Kind::Begin);
    let mut abort_first = plan.abort_first;
    loop {
        let child = top.child()?;
        st.mark::<TRACE>(Kind::Child);
        black_box(child.read(&objs[plan.a], |v| *v)?);
        st.mark::<TRACE>(Kind::Read);
        child.write(&objs[plan.b], |v| *v += 1)?;
        st.mark::<TRACE>(Kind::Write);
        if abort_first {
            child.abort();
            drop(child);
            st.mark::<TRACE>(Kind::Abort);
            abort_first = false;
            continue;
        }
        child.commit()?;
        drop(child);
        st.mark::<TRACE>(Kind::CommitChild);
        break;
    }
    top.commit()?;
    drop(top);
    st.mark::<TRACE>(Kind::CommitTop);
    Ok(())
}

/// The closed loop of one client: draw, run with retries, record; until the
/// recorder says the phase is over.
pub fn client_loop(
    mgr: &TxManager,
    objs: &[ObjRef<i64>],
    keys: &Keys,
    rng: &mut Rng,
    rec: &mut Recorder,
    t_prev: &mut u64,
) {
    let mut st = Stamps::new(rec.clock());
    loop {
        let plan = Plan::draw(keys, rng);
        let traced = rec.traces(*t_prev);
        let mut retries = 0;
        let ok = loop {
            let run = if traced {
                n1::<true>(mgr, objs, plan, &mut st)
            } else {
                n1::<false>(mgr, objs, plan, &mut st)
            };
            match run {
                Ok(()) => break true,
                Err(TxError::Deadlock | TxError::Timeout) if retries < MAX_RETRIES => retries += 1,
                Err(TxError::Deadlock | TxError::Timeout) => break false,
                Err(e) => panic!("N1 through the sync API cannot fail with {e}"),
            }
        };
        if !rec.end_tx(t_prev, ok, retries, traced.then_some(&st)) {
            return;
        }
    }
}

fn register(mgr: &TxManager, n: usize, durable: bool) -> Vec<ObjRef<i64>> {
    (0..n)
        .map(|i| {
            if durable {
                mgr.register_durable(format!("o{i}"), 0i64)
            } else {
                mgr.register(format!("o{i}"), 0i64)
            }
        })
        .collect()
}

fn committed_sum(mgr: &TxManager, objs: &[ObjRef<i64>]) -> i64 {
    objs.iter().map(|o| mgr.read_committed(o, |v| *v)).sum()
}

/// A fresh, empty directory under `e2e/out` for a write-ahead log.
fn fresh_wal_dir(tag: &str) -> PathBuf {
    let dir = out_dir().join(format!("wal-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the log directory under e2e/out");
    dir
}

/// The log may only live inside the checkout, on whatever disk that is on, so
/// a flush costs what the neighbours leave: with `Group(64, 2 ms)` a third of
/// the run was spent in `fdatasync` and throughput followed the disk. A batch
/// of 1024 keeps group commit at work and the device at a few percent.
fn durable_config(dir: &Path, checkpoint_every: u64) -> RtConfig {
    RtConfig {
        wal_dir: Some(dir.to_path_buf()),
        fsync_policy: FsyncPolicy::Group(1024, Duration::from_millis(20)),
        checkpoint_every,
        ..RtConfig::default()
    }
}

/// File system type of the mount `path` is on, from `/proc/mounts`.
fn fs_type_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, mount, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount).then_some((mount.len(), fs))
        })
        .max_by_key(|&(len, _)| len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs.to_string())
}

/// Run `inproc_uniform`, `inproc_hot` or `inproc_durable`.
pub fn run(opts: &Opts) -> Outcome {
    let clock = opts.clock;
    let durable = opts.workload == Workload::InprocDurable;
    // `inproc_uniform` has one client: nothing to conflict with, and nobody
    // to wait for at the commit turnstile either. With two, throughput holds
    // but their tails fall in and out of step for seconds at a time and the
    // 99th percentile moves by a third from run to run.
    let (clients, objects, keys) = match opts.workload {
        Workload::InprocUniform => (1, OBJECTS, Keys::Uniform(OBJECTS)),
        // Four objects, not the sixteen first planned. With sixteen, parked
        // waits and deadlock retries together are 0.6% of the transactions,
        // so the 99th percentile sits on the edge between waits that a spin
        // resolves (6 us) and the slow ones (20 us and up) and moves by a
        // third from run to run. With four they are 1.5% (0.6% parked, 0.9%
        // retried) and the percentile lies among the slow ones. Two objects
        // would be steadier still, but then every pair of transactions
        // conflicts and nothing but a serialised pair is measured.
        // README.md has the runs of all the counts tried.
        Workload::InprocHot => (CLIENTS, HOT_OBJECTS, Keys::zipf(HOT_OBJECTS, 0.99)),
        Workload::InprocDurable => (CLIENTS, OBJECTS, Keys::Uniform(OBJECTS)),
        other => unreachable!("{} is not a sync in-process workload", other.name()),
    };

    let t_start = clock.now();
    let wal_dir = durable.then(|| fresh_wal_dir("timed"));
    let mgr = TxManager::new(match &wal_dir {
        Some(dir) => durable_config(dir, 50_000),
        None => RtConfig::default(),
    });
    let objs = register(&mgr, objects, durable);
    let t_registered = clock.now();

    let line = StartLine::new(clients);
    let mut before = mgr.stats();
    let (mut t0, mut queued_max, mut chain_max) = (0, 0, 0);
    let recs: Vec<Recorder> = std::thread::scope(|s| {
        let threads: Vec<_> = (0..clients)
            .map(|c| {
                let (mgr, objs, keys, line) = (&mgr, &objs[..], &keys, &line);
                s.spawn(move || {
                    let mut rng = Rng::for_client(opts.seed, c);
                    let mut rec = Recorder::new(clock, c, opts.slices(), opts.trace);
                    rec.start_warmup(opts.warmup_share(c, clients));
                    client_loop(mgr, objs, keys, &mut rng, &mut rec, &mut 0);
                    let mut t_prev = line.ready();
                    rec.start_timed(t_prev, opts.slice_ns());
                    client_loop(mgr, objs, keys, &mut rng, &mut rec, &mut t_prev);
                    rec
                })
            })
            .collect();
        t0 = line.start(clock, || before = mgr.stats());
        // Rank 0 is the hottest object under Zipf and as good as any other
        // under uniform keys.
        at_slice_boundaries(opts, t0, || {
            queued_max = queued_max.max(mgr.queued_waiters());
            chain_max = chain_max.max(mgr.version_chain_len(&objs[0]));
        });
        threads
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let stats = stats_delta(&mgr.stats(), &before);
    let rss_mb = peak_rss_mb();

    let mut out = Outcome {
        setup: Setup::new(opts, t_start, t_registered, t_registered, t0),
        recs,
        stats,
        queued_waiters_max: queued_max,
        chain_len_max: chain_max,
        peak_in_flight: 0,
        rss_mb,
        probes: Probes::default(),
        durable: None,
        errors: Vec::new(),
    };

    let committed: u64 = out.recs.iter().map(|r| r.committed).sum();
    let sum = committed_sum(&mgr, &objs);
    out.check(sum == committed as i64, || {
        format!("counters add up to {sum}, {committed} transactions committed")
    });
    let queued = mgr.queued_waiters();
    out.check(queued == 0, || format!("{queued} waiters still queued"));
    let all = mgr.stats();
    match opts.workload {
        Workload::InprocUniform => out.check(all.waits == 0, || {
            format!("{} lock waits on the no-conflict workload", all.waits)
        }),
        Workload::InprocDurable => out.check(all.wal_appends > 0, || {
            "the durable workload appended nothing to its log".to_string()
        }),
        _ => {}
    }
    if !durable {
        out.check(all.wal_appends == 0, || {
            format!("{} log appends without a log", all.wal_appends)
        });
    }
    drop(mgr);

    if opts.trace {
        out.probes.reference_ns = crate::probes::inproc_reference(opts);
    }
    if let Some(dir) = wal_dir {
        let fs = fs_type_of(&dir);
        let _ = std::fs::remove_dir_all(&dir);
        if !opts.rehearsal {
            out.durable = Some(recovery_stage(opts, fs, &mut out.errors));
        }
    }
    out
}

/// One thread commits a fixed number of `N1` transactions to a fresh log and
/// closes it cleanly; a fresh manager then recovers from it. A single client
/// and no timers make the log's size repeat exactly.
fn recovery_stage(opts: &Opts, wal_fs: String, errors: &mut Vec<String>) -> Durable {
    let txs = opts.scaled(RECOVERY_TXS);
    let dir = fresh_wal_dir("recover");
    let keys = Keys::Uniform(OBJECTS);
    {
        let mgr = TxManager::new(durable_config(&dir, 0));
        let objs = register(&mgr, OBJECTS, true);
        let mut rng = Rng::for_client(opts.seed, CLIENTS);
        let mut st = Stamps::new(opts.clock);
        for _ in 0..txs {
            n1::<false>(&mgr, &objs, Plan::draw(&keys, &mut rng), &mut st)
                .expect("a single client meets no conflict");
        }
    }
    let wal_bytes: u64 = std::fs::read_dir(&dir)
        .expect("list the log directory")
        .filter_map(|e| e.ok()?.metadata().ok())
        .map(|m| m.len())
        .sum();

    let t = opts.clock.now();
    let mgr = TxManager::new(durable_config(&dir, 0));
    let objs = register(&mgr, OBJECTS, true);
    let report = mgr.recover();
    let recover_s = secs(t, opts.clock.now());

    let mut checkpoint_ts = 0;
    match report {
        Ok(r) => {
            checkpoint_ts = r.checkpoint_ts;
            if r.commits_redone != txs || r.torn_bytes != 0 {
                errors.push(format!(
                    "recovery redid {} of {txs} commits and found {} torn bytes",
                    r.commits_redone, r.torn_bytes
                ));
            }
            let sum = committed_sum(&mgr, &objs);
            if sum != txs as i64 {
                errors.push(format!("recovered counters add up to {sum}, not {txs}"));
            }
        }
        Err(e) => errors.push(format!("recover() failed: {e}")),
    }
    drop(mgr);
    let _ = std::fs::remove_dir_all(&dir);
    Durable {
        recover_s,
        wal_bytes_per_tx: wal_bytes as f64 / txs as f64,
        replayed: txs,
        checkpoint_ts,
        wal_fs,
    }
}
