//! Runtime counters, striped to keep the hot path off shared cache lines.
//!
//! A single block of atomics is a real contention point at high thread
//! counts: every grant bumps a counter, so every core keeps stealing the
//! same cache line. Counters are therefore split into [`STAT_STRIPES`]
//! cache-line-padded stripes; each thread increments its own stripe
//! (round-robin by [`crate::shard::thread_index`]) and [`Stats::snapshot`]
//! folds the stripes into totals.

use crate::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::shard::{thread_index, CachePadded};

/// Number of counter stripes (power of two; ≥ typical core counts).
pub(crate) const STAT_STRIPES: usize = 16;

/// The individual counters tracked per stripe.
#[derive(Clone, Copy, Debug)]
#[repr(usize)]
pub(crate) enum Ctr {
    ReadGrants = 0,
    WriteGrants,
    Waits,
    WaitNanos,
    Deadlocks,
    Timeouts,
    Commits,
    TopCommits,
    Aborts,
    Begun,
    Handoffs,
    WaveGrants,
    SpinGrants,
    CancelledWaiters,
    SnapshotsOpened,
    SnapshotReads,
    VersionsPublished,
    VersionsCollected,
    WalAppends,
    WalFsyncs,
    Recoveries,
}

const NCTR: usize = 21;

#[derive(Default)]
struct Stripe {
    counters: [AtomicU64; NCTR],
}

/// Striped atomic counters (one instance per manager).
#[derive(Default)]
pub(crate) struct Stats {
    stripes: [CachePadded<Stripe>; STAT_STRIPES],
}

impl Stats {
    /// Add `n` to counter `c` on the calling thread's stripe.
    #[inline]
    pub fn add(&self, c: Ctr, n: u64) {
        // relaxed(stats-add): pure counter RMW — atomicity alone keeps the
        // count exact; no other memory is published through it.
        self.stripes[thread_index() % STAT_STRIPES].0.counters[c as usize]
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Increment counter `c` by one.
    #[inline]
    pub fn bump(&self, c: Ctr) {
        self.add(c, 1);
    }

    /// Sum of counter `c` across stripes.
    pub fn total(&self, c: Ctr) -> u64 {
        // relaxed(stats-fold): a statistical snapshot — each stripe's load
        // is atomic, and callers that need exactness (tests) read at
        // quiescence, where every increment already happened-before via
        // thread join.
        self.stripes
            .iter()
            .map(|s| s.0.counters[c as usize].load(Ordering::Relaxed))
            .sum()
    }

    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            read_grants: self.total(Ctr::ReadGrants),
            write_grants: self.total(Ctr::WriteGrants),
            waits: self.total(Ctr::Waits),
            total_wait: Duration::from_nanos(self.total(Ctr::WaitNanos)),
            deadlocks: self.total(Ctr::Deadlocks),
            timeouts: self.total(Ctr::Timeouts),
            commits: self.total(Ctr::Commits),
            top_level_commits: self.total(Ctr::TopCommits),
            aborts: self.total(Ctr::Aborts),
            transactions_begun: self.total(Ctr::Begun),
            handoffs: self.total(Ctr::Handoffs),
            wave_grants: self.total(Ctr::WaveGrants),
            spin_grants: self.total(Ctr::SpinGrants),
            cancelled_waiters: self.total(Ctr::CancelledWaiters),
            snapshots_opened: self.total(Ctr::SnapshotsOpened),
            snapshot_reads: self.total(Ctr::SnapshotReads),
            versions_published: self.total(Ctr::VersionsPublished),
            versions_collected: self.total(Ctr::VersionsCollected),
            wal_appends: self.total(Ctr::WalAppends),
            wal_fsyncs: self.total(Ctr::WalFsyncs),
            recoveries: self.total(Ctr::Recoveries),
            // Tracked inside the WAL (a cold-path `fetch_max` watermark, not
            // a striped counter); `TxManager::stats` merges it in.
            group_commit_batch_max: 0,
        }
    }
}

/// A point-in-time copy of a manager's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Read locks granted.
    pub read_grants: u64,
    /// Write locks granted (versions created or reused).
    pub write_grants: u64,
    /// Lock requests that had to block at least once.
    pub waits: u64,
    /// Total time spent blocked across all lock requests.
    pub total_wait: Duration,
    /// Requests refused as deadlock victims.
    pub deadlocks: u64,
    /// Requests that exhausted their wait budget.
    pub timeouts: u64,
    /// Commits at any level.
    pub commits: u64,
    /// Top-level commits (published to the store).
    pub top_level_commits: u64,
    /// Aborts at any level (explicit or via doom).
    pub aborts: u64,
    /// Transactions ever begun (any level).
    pub transactions_begun: u64,
    /// Grant *waves* delivered by direct handoff: one releasing thread's
    /// scan that dequeued at least one waiter and installed its lock state
    /// before waking it. A wave may grant several compatible waiters — see
    /// [`StatsSnapshot::wave_grants`] for the per-waiter count (before wave
    /// coalescing the two were equal by construction).
    pub handoffs: u64,
    /// Waiters granted by direct handoff, summed across all waves.
    pub wave_grants: u64,
    /// Handed-off grants that arrived during the brief pre-park spin, so
    /// the waiter never paid for a park/unpark round trip.
    pub spin_grants: u64,
    /// Queued waiters withdrawn without a grant (doomed or timed out) —
    /// cancelled in place rather than woken to re-poll.
    pub cancelled_waiters: u64,
    /// Snapshot handles opened ([`crate::TxManager::snapshot`]).
    pub snapshots_opened: u64,
    /// Lock-free reads served from a version chain (snapshot handles and
    /// `Tx::snapshot_read`'s committed path).
    pub snapshot_reads: u64,
    /// Committed versions published to snapshot chains at top-level commit.
    pub versions_published: u64,
    /// Published versions reclaimed by the version garbage collector.
    pub versions_collected: u64,
    /// Appends to the write-ahead log: one per commit record or
    /// checkpoint.
    pub wal_appends: u64,
    /// Device flushes issued by the WAL (commit-path fsyncs plus the two
    /// fsyncs bracketing each checkpoint).
    pub wal_fsyncs: u64,
    /// Crash-recovery passes completed ([`crate::TxManager::recover`]).
    pub recoveries: u64,
    /// Largest commits-per-fsync batch the group-commit policy achieved
    /// (0 when the WAL is off or no fsync has run).
    pub group_commit_batch_max: u64,
}

impl StatsSnapshot {
    /// Mean blocked time per waiting request.
    pub fn mean_wait(&self) -> Duration {
        if self.waits == 0 {
            Duration::ZERO
        } else {
            self.total_wait / u32::try_from(self.waits.min(u64::from(u32::MAX))).unwrap_or(1)
        }
    }

    /// Mean number of waiters granted per handoff wave (0.0 when no wave
    /// has been delivered). 1.0 means no coalescing happened.
    pub fn mean_wave_size(&self) -> f64 {
        if self.handoffs == 0 {
            0.0
        } else {
            self.wave_grants as f64 / self.handoffs as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reads_counters() {
        let s = Stats::default();
        s.add(Ctr::Commits, 3);
        s.add(Ctr::Waits, 2);
        s.add(Ctr::WaitNanos, 1_000_000);
        let snap = s.snapshot();
        assert_eq!(snap.commits, 3);
        assert_eq!(snap.waits, 2);
        assert_eq!(snap.mean_wait(), Duration::from_nanos(500_000));
    }

    #[test]
    fn mean_wait_zero_when_no_waits() {
        assert_eq!(StatsSnapshot::default().mean_wait(), Duration::ZERO);
    }

    #[test]
    fn wave_counters_and_mean_size() {
        let s = Stats::default();
        assert_eq!(s.snapshot().mean_wave_size(), 0.0, "no waves yet");
        // Two waves: one single grant, one triple.
        s.bump(Ctr::Handoffs);
        s.add(Ctr::WaveGrants, 1);
        s.bump(Ctr::Handoffs);
        s.add(Ctr::WaveGrants, 3);
        let snap = s.snapshot();
        assert_eq!(snap.handoffs, 2);
        assert_eq!(snap.wave_grants, 4);
        assert!((snap.mean_wave_size() - 2.0).abs() < f64::EPSILON);
    }

    #[test]
    fn totals_fold_across_thread_stripes() {
        let s = std::sync::Arc::new(Stats::default());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let s = s.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        s.bump(Ctr::ReadGrants);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.total(Ctr::ReadGrants), 8000);
        assert_eq!(s.snapshot().read_grants, 8000);
    }
}
