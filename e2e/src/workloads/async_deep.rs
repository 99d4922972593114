//! `async_deep`: 256 session futures on a two-worker executor.
//!
//! Session `i` contends on hot object `i % 16`, so each of the 16 hot objects
//! has 16 sessions after it. Each transaction reads or increments it, yields once
//! with that lock held — as a session of `ntx-serve` does between two frames —
//! and increments an object only its session uses. While it is away the other
//! sessions of its worker run into the lock and queue. A session waits on at
//! most one contended object at a time, so there are no cycles; what there is,
//! is a waiter queue about 16 deep on every hot object, read waves, and the
//! wait-for refresh that the default deadlock policy runs at every release.
//!
//! The hot object is fixed per session and not drawn per transaction: with a
//! random choice the queues are uneven, the refresh cost grows with the square
//! of the longest one, and throughput and median latency wander by a factor of
//! ten between slices of one run. Fixed, both repeat within a few percent.

use super::{at_slice_boundaries, peak_rss_mb, stats_delta, Opts, Outcome, Setup, MAX_RETRIES};
use crate::gen::Rng;
use crate::probes::Probes;
use crate::record::Recorder;
use crate::span::{Kind, Stamps};
use ntx_runtime::{ObjRef, RtConfig, TxError, TxManager};
use ntx_serve::Executor;
use std::future::Future;
use std::hint::black_box;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll};
use std::time::Duration;

const SESSIONS: usize = 256;
const HOT: usize = 16;
const WORKERS: usize = 2;
/// How long a queued access may wait before it is refused.
const WAIT_TIMEOUT: Duration = Duration::from_millis(500);

/// What the generator decided for one transaction.
#[derive(Clone, Copy)]
struct Plan {
    write_hot: bool,
    abort_first: bool,
}

impl Plan {
    fn draw(rng: &mut Rng) -> Plan {
        let bits = rng.next_u64();
        Plan {
            write_hot: bits & 1 == 0,
            abort_first: (bits >> 1) & 15 == 0,
        }
    }
}

/// Go to the back of the worker's run queue once.
struct YieldNow(bool);

impl Future for YieldNow {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.0 {
            return Poll::Ready(());
        }
        self.0 = true;
        cx.waker().wake_by_ref();
        Poll::Pending
    }
}

/// State shared by every session.
struct Shared {
    mgr: TxManager,
    hot: Vec<ObjRef<i64>>,
    /// One recorder per executor worker. A task stays on the worker it was
    /// spawned on and spawning is round-robin, so session `i` only ever meets
    /// sessions of the same parity at its recorder and the lock is free.
    recs: Vec<Mutex<Recorder>>,
    /// Increments that committed, warm-up included: one per transaction for
    /// the session's own object, one more where the hot object was written.
    increments: AtomicU64,
}

/// `N1` through the async API: the hot object plays `a`, the session's own
/// object plays `b`.
async fn n1<const TRACE: bool>(
    sh: &Shared,
    hot: ObjRef<i64>,
    own: ObjRef<i64>,
    plan: Plan,
    st: &mut Stamps,
) -> Result<(), TxError> {
    st.restart::<TRACE>();
    let top = sh.mgr.begin();
    st.mark::<TRACE>(Kind::Begin);
    let mut abort_first = plan.abort_first;
    loop {
        let child = top.child()?;
        st.mark::<TRACE>(Kind::Child);
        if plan.write_hot {
            child.write_async(&hot, |v| *v += 1).await?;
            st.mark::<TRACE>(Kind::WriteAsync);
        } else {
            black_box(child.read_async(&hot, |v| *v).await?);
            st.mark::<TRACE>(Kind::ReadAsync);
        }
        YieldNow(false).await;
        st.mark::<TRACE>(Kind::Yield);
        child.write_async(&own, |v| *v += 1).await?;
        st.mark::<TRACE>(Kind::WriteAsyncOwn);
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

/// One session's closed loop, for the warm-up or the timed phase, whichever
/// its recorder is in.
async fn session(sh: Arc<Shared>, idx: usize, own: ObjRef<i64>, mut rng: Rng, mut t_prev: u64) {
    let rec = &sh.recs[idx % WORKERS];
    let hot = sh.hot[idx % HOT];
    let mut st = Stamps::new(rec.lock().expect("recorder lock").clock());
    loop {
        let plan = Plan::draw(&mut rng);
        let traced = rec.lock().expect("recorder lock").traces(t_prev);
        let mut retries = 0;
        let ok = loop {
            let run = if traced {
                n1::<true>(&sh, hot, own, plan, &mut st).await
            } else {
                n1::<false>(&sh, hot, own, plan, &mut st).await
            };
            match run {
                Ok(()) => break true,
                Err(TxError::Deadlock | TxError::Timeout) if retries < MAX_RETRIES => retries += 1,
                Err(TxError::Deadlock | TxError::Timeout) => break false,
                Err(e) => panic!("N1 through the async API cannot fail with {e}"),
            }
        };
        if ok {
            // relaxed: a plain tally, read after the executor has drained.
            sh.increments
                .fetch_add(1 + u64::from(plan.write_hot), Ordering::Relaxed);
        }
        let mut guard = rec.lock().expect("recorder lock");
        if !guard.end_tx(&mut t_prev, ok, retries, traced.then_some(&st)) {
            return;
        }
    }
}

/// Run `async_deep`.
pub fn run(opts: &Opts) -> Outcome {
    let clock = opts.clock;
    let t_start = clock.now();
    // A granted wait leaves its cancelled timer in the heap until the
    // deadline, and the timer thread then pops it: 45 000 dead entries a
    // second here, one per transaction. With the default `wait_timeout` of 10 s none is due
    // before the tenth second, so a run of 15 s is two regimes, six slices
    // without the timer thread at work and four with it (46.8k tx/s falling
    // to 37.7k over a minute, p99 12.6 ms rising to 20.1 ms, 60 MB of dead
    // entries), and the slice median sits on the line between them. With
    // half a second, seven times the longest transaction seen, the heap is
    // in its steady state before the warm-up ends.
    let mgr = TxManager::new(RtConfig {
        wait_timeout: WAIT_TIMEOUT,
        ..RtConfig::default()
    });
    let hot: Vec<ObjRef<i64>> = (0..HOT)
        .map(|i| mgr.register(format!("hot{i}"), 0i64))
        .collect();
    let own: Vec<ObjRef<i64>> = (0..SESSIONS)
        .map(|i| mgr.register(format!("own{i}"), 0i64))
        .collect();
    let sh = Arc::new(Shared {
        mgr: mgr.clone(),
        hot,
        recs: (0..WORKERS)
            .map(|w| Mutex::new(Recorder::new(clock, w, opts.slices(), opts.trace)))
            .collect(),
        increments: AtomicU64::new(0),
    });
    let t_registered = clock.now();
    let exec = Executor::new(WORKERS);
    let t_connected = clock.now();

    // The recorders count the warm-up down per worker; every session of a
    // worker stops when its worker's share is done.
    let spawn_all = |t_prev: u64, stream: usize| {
        for (i, &own) in own.iter().enumerate() {
            let rng = Rng::for_client(opts.seed, stream * SESSIONS + i);
            exec.spawn(session(sh.clone(), i, own, rng, t_prev));
        }
    };
    for (w, rec) in sh.recs.iter().enumerate() {
        let share = opts.warmup_share(w, WORKERS);
        rec.lock().expect("recorder lock").start_warmup(share);
    }
    spawn_all(0, 0);
    exec.drain();

    let before = mgr.stats();
    let t0 = clock.now();
    for rec in &sh.recs {
        rec.lock()
            .expect("recorder lock")
            .start_timed(t0, opts.slice_ns());
    }
    spawn_all(t0, 1);
    let (mut queued_max, mut chain_max) = (0, 0);
    at_slice_boundaries(opts, t0, || {
        queued_max = queued_max.max(mgr.queued_waiters());
        chain_max = chain_max.max(mgr.version_chain_len(&sh.hot[0]));
    });
    exec.drain();
    let stats = stats_delta(&mgr.stats(), &before);
    let rss_mb = peak_rss_mb();
    let peak_in_flight = exec.peak_in_flight();
    exec.shutdown();

    let sh = Arc::into_inner(sh).expect("every session has ended");
    let recs: Vec<Recorder> = sh
        .recs
        .into_iter()
        .map(|m| m.into_inner().expect("recorder lock"))
        .collect();
    let mut out = Outcome {
        setup: Setup::new(opts, t_start, t_registered, t_connected, t0),
        recs,
        stats,
        queued_waiters_max: queued_max,
        chain_len_max: chain_max,
        peak_in_flight,
        rss_mb,
        probes: Probes::default(),
        durable: None,
        errors: Vec::new(),
    };

    let increments = sh.increments.into_inner();
    let sum: i64 = sh
        .hot
        .iter()
        .chain(own.iter())
        .map(|o| mgr.read_committed(o, |v| *v))
        .sum();
    out.check(sum == increments as i64, || {
        format!("counters add up to {sum}, {increments} increments committed")
    });
    let queued = mgr.queued_waiters();
    out.check(queued == 0, || format!("{queued} waiters still queued"));
    let all = mgr.stats();
    out.check(all.deadlocks == 0, || {
        format!(
            "{} deadlock victims where no cycle is possible",
            all.deadlocks
        )
    });
    out.check(all.wal_appends == 0, || {
        format!("{} log appends without a log", all.wal_appends)
    });

    if opts.trace {
        out.probes = crate::probes::executor_probes(opts);
    }
    out
}
