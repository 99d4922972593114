//! The six workloads and what they share: options, the result of a run, the
//! start line of the timed phase, and the helpers every output check uses.

pub mod async_deep;
pub mod inproc;
pub mod wire;

use crate::probes::Probes;
use crate::record::Recorder;
use crate::span::Clock;
use ntx_runtime::StatsSnapshot;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Duration;

/// Slices in the timed phase; every timing metric is the median of the
/// per-slice values.
pub const SLICES: usize = 10;
/// How often a run sets the workload up. `setup_s` is the median over the
/// passes; the last pass goes on into the timed phase.
pub const SETUPS: usize = 5;
/// A refused transaction is retried this often before it counts as failed.
pub const MAX_RETRIES: u32 = 8;
/// Generator threads (or connections) of the thread-driven workloads: the
/// reference host has two cores.
pub const CLIENTS: usize = 2;

/// The workloads, by the names `BENCHMARK.json` fixes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// Six round trips per transaction through `ntx-serve`.
    WirePingpong,
    /// One burst and one round trip per transaction through `ntx-serve`.
    WirePipelined,
    /// Sync API, no conflicts: the lock manager's fast path.
    InprocUniform,
    /// Sync API, 4 Zipf objects: the synchronous waiter path.
    InprocHot,
    /// 256 session futures on two executor workers: deep waiter queues.
    AsyncDeep,
    /// Sync API with the write-ahead log, then a recovery stage.
    InprocDurable,
}

impl Workload {
    /// Every workload, in the order the suite runs them.
    pub const ALL: [Workload; 6] = [
        Workload::WirePingpong,
        Workload::WirePipelined,
        Workload::InprocUniform,
        Workload::InprocHot,
        Workload::AsyncDeep,
        Workload::InprocDurable,
    ];

    /// Name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WirePingpong => "wire_pingpong",
            Workload::WirePipelined => "wire_pipelined",
            Workload::InprocUniform => "inproc_uniform",
            Workload::InprocHot => "inproc_hot",
            Workload::AsyncDeep => "async_deep",
            Workload::InprocDurable => "inproc_durable",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Transactions of the warm-up. A fixed count, so that one set-up is
    /// most of a second of the same work in every run and grows if work
    /// moves into it.
    pub fn warmup(self) -> u64 {
        match self {
            Workload::WirePingpong => 800,
            Workload::WirePipelined => 3_000,
            Workload::InprocUniform => 700_000,
            Workload::InprocHot => 300_000,
            Workload::AsyncDeep => 36_000,
            Workload::InprocDurable => 240_000,
        }
    }
}

/// How to run one workload.
#[derive(Clone, Copy)]
pub struct Opts {
    /// Which one.
    pub workload: Workload,
    /// Seed of every client's key stream.
    pub seed: u64,
    /// Length of one of the [`SLICES`] slices, seconds.
    pub slice_s: f64,
    /// Scales every fixed count (warm-up, probes, recovery stage); 1 in a
    /// measured run, small in the smoke test.
    pub scale: f64,
    /// Record spans and run the isolation probes.
    pub trace: bool,
    /// Set the workload up, check its outputs and stop: no timed phase, no
    /// probes, no recovery stage.
    pub rehearsal: bool,
    /// Clock reading when this pass began; 0, the start of the process, for
    /// the first.
    pub origin: u64,
    /// Started when the process did.
    pub clock: Clock,
}

impl Opts {
    /// `n` scaled by [`Opts::scale`], at least 1.
    pub fn scaled(&self, n: u64) -> u64 {
        ((n as f64 * self.scale) as u64).max(1)
    }

    /// Slice length in nanoseconds.
    pub fn slice_ns(&self) -> u64 {
        (self.slice_s * 1e9) as u64
    }

    /// Slices of the timed phase: none in a rehearsal, whose clients stop at
    /// their first transaction past the start line.
    pub fn slices(&self) -> usize {
        if self.rehearsal {
            0
        } else {
            SLICES
        }
    }

    /// This client's share of the warm-up.
    pub fn warmup_share(&self, client: usize, clients: usize) -> u64 {
        let n = self.scaled(self.workload.warmup());
        (n / clients as u64 + u64::from((client as u64) < n % clients as u64)).max(1)
    }
}

/// Where the set-up time of one pass went.
#[derive(Clone, Copy)]
pub struct Setup {
    /// Building the manager or server and registering objects, seconds.
    pub register_s: f64,
    /// Connecting clients or starting the executor, seconds.
    pub connect_s: f64,
    /// From there to the start of the timed phase, seconds: the fixed-count
    /// warm-up and whatever separates its end from the first timed
    /// transaction.
    pub warmup_s: f64,
    /// Start of the pass (of the process, for the first) to first timed
    /// transaction, seconds.
    pub total_s: f64,
}

impl Setup {
    /// A pass that began registering at `start`, had registered by
    /// `registered` and connected by `connected`, and whose timed phase
    /// started at `t0` (clock readings).
    pub fn new(opts: &Opts, start: u64, registered: u64, connected: u64, t0: u64) -> Setup {
        Setup {
            register_s: secs(start, registered),
            connect_s: secs(registered, connected),
            warmup_s: secs(connected, t0),
            total_s: secs(opts.origin, t0),
        }
    }
}

/// What the recovery stage of `inproc_durable` measured.
pub struct Durable {
    /// Fresh manager, re-registration and `recover()`, seconds.
    pub recover_s: f64,
    /// Log bytes on disk per committed transaction of the stage.
    pub wal_bytes_per_tx: f64,
    /// Transactions the stage committed and recovery replayed.
    pub replayed: u64,
    /// `RecoveryReport::checkpoint_ts`.
    pub checkpoint_ts: u64,
    /// File system the log directory is on.
    pub wal_fs: String,
}

/// Everything one run produced; `report` turns it into metrics.
pub struct Outcome {
    /// One recorder per client (per executor worker for `async_deep`).
    pub recs: Vec<Recorder>,
    /// Set-up times.
    pub setup: Setup,
    /// Manager counters, difference over the timed phase.
    pub stats: StatsSnapshot,
    /// Largest `queued_waiters()` seen at a slice boundary (traced runs).
    pub queued_waiters_max: usize,
    /// Longest version chain of the hottest object at a slice boundary.
    pub chain_len_max: usize,
    /// Executor tasks in flight: the executor's own watermark where the
    /// benchmark owns it, live sessions at slice boundaries over the wire.
    pub peak_in_flight: usize,
    /// `VmHWM` at the end of the timed phase, MB.
    pub rss_mb: f64,
    /// Isolation probes (traced runs).
    pub probes: Probes,
    /// Recovery stage (`inproc_durable`).
    pub durable: Option<Durable>,
    /// Output checks that did not hold; empty means the run is correct.
    pub errors: Vec<String>,
}

impl Outcome {
    /// Record a failed output check.
    pub fn check(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            self.errors.push(what());
        }
    }
}

/// The line between warm-up and timed phase. Clients arrive when their
/// warm-up is done; the main thread then fixes `t0` and lets everyone go.
pub struct StartLine {
    barrier: Barrier,
    t0: AtomicU64,
}

impl StartLine {
    /// A start line for `clients` client threads and the main thread.
    pub fn new(clients: usize) -> StartLine {
        StartLine {
            barrier: Barrier::new(clients + 1),
            t0: AtomicU64::new(0),
        }
    }

    /// Client side: wait for the start, returning `t0`.
    pub fn ready(&self) -> u64 {
        self.barrier.wait();
        self.barrier.wait();
        // The second barrier orders this load after the main thread's store.
        self.t0.load(Ordering::Relaxed)
    }

    /// Main side: wait until every client is warm, run `before` (stats
    /// snapshots belong here), then start the timed phase and return `t0`.
    pub fn start(&self, clock: Clock, before: impl FnOnce()) -> u64 {
        self.barrier.wait();
        before();
        let t0 = clock.now();
        self.t0.store(t0, Ordering::Relaxed);
        self.barrier.wait();
        t0
    }
}

/// In a traced run, wake at every slice boundary and call `sample`; the main
/// thread has nothing else to do while the clients run.
pub fn at_slice_boundaries(opts: &Opts, t0: u64, mut sample: impl FnMut()) {
    if !opts.trace {
        return;
    }
    for k in 1..=opts.slices() as u64 {
        let due = t0 + k * opts.slice_ns();
        std::thread::sleep(Duration::from_nanos(due.saturating_sub(opts.clock.now())));
        sample();
    }
}

/// Counters of `after` minus those of `before`, for the fields the report
/// reads; the batch watermark is a maximum and is taken from `after`.
pub fn stats_delta(after: &StatsSnapshot, before: &StatsSnapshot) -> StatsSnapshot {
    StatsSnapshot {
        waits: after.waits - before.waits,
        total_wait: after.total_wait - before.total_wait,
        deadlocks: after.deadlocks - before.deadlocks,
        timeouts: after.timeouts - before.timeouts,
        top_level_commits: after.top_level_commits - before.top_level_commits,
        aborts: after.aborts - before.aborts,
        handoffs: after.handoffs - before.handoffs,
        wave_grants: after.wave_grants - before.wave_grants,
        spin_grants: after.spin_grants - before.spin_grants,
        cancelled_waiters: after.cancelled_waiters - before.cancelled_waiters,
        versions_published: after.versions_published - before.versions_published,
        versions_collected: after.versions_collected - before.versions_collected,
        wal_appends: after.wal_appends - before.wal_appends,
        wal_fsyncs: after.wal_fsyncs - before.wal_fsyncs,
        ..*after
    }
}

extern "C" {
    /// `sched_setaffinity(2)` from the C library that `std` already links.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Which CPUs the calling thread, and the threads it starts from now on, may
/// run on: the last one, or all but the last.
///
/// The wire workloads keep the load generator and the server apart with it.
/// Left to the scheduler, a blocking client sometimes lands on the reactor's
/// CPU; its wake-up then preempts the reactor, its next frame is on the
/// socket before the reactor looks again, and a frame costs one of the
/// reactor's 200 µs sleeps where it otherwise costs two. Which of the two it
/// is holds for a whole run and changes between runs. With fewer than two
/// CPUs, or where the call fails, nothing is pinned and that is all.
pub fn run_on_last_cpu(last: bool) {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    if !(2..=64).contains(&cpus) {
        return;
    }
    let top = 1u64 << (cpus - 1);
    let mask = [if last { top } else { top - 1 }];
    // SAFETY: `mask` is a live array of `size_of_val(&mask)` bytes for the
    // whole call, pid 0 names the calling thread, and the kernel only reads
    // through the pointer.
    unsafe {
        sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr());
    }
}

/// Peak resident set of this process so far, MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `e2e/out`, where trace files and log directories go; inside the checkout,
/// because the benchmark may write nowhere else.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Seconds between two clock readings.
pub fn secs(from: u64, to: u64) -> f64 {
    (to - from) as f64 / 1e9
}
