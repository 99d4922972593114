//! Segmented write-ahead log behind the commit turnstile.
//!
//! The paper's model (§2) treats a committed top-level transaction's effects
//! as permanent. This module makes that literally true under process death:
//! every top-level commit appends CRC-framed `Publish` records (one per
//! durable object written) followed by a `Commit` record, *inside* the
//! commit-timestamp turnstile window of `manager.rs` — exactly one committer
//! is between the turnstile wait and the `commit_ts` store at a time, so the
//! append order of `Commit` records equals the dense ticket order, which is
//! the order snapshot readers observe. Durable order = published MVCC order
//! by construction, not by a separate locking protocol.
//!
//! ## Frame and record format
//!
//! Every record is framed as `[len: u32 LE][crc32(payload): u32 LE][payload]`.
//! The first payload byte is a record tag:
//!
//! | tag | record     | payload after the tag                                |
//! |-----|------------|------------------------------------------------------|
//! | 1   | (reserved) | `top: u64` — legacy `Begin`, skipped                 |
//! | 2   | Publish    | `ts: u64, top: u64, obj: u32, len: u32, data`        |
//! | 3   | Commit     | `ts: u64, top: u64`                                  |
//! | 4   | (reserved) | `top: u64` — legacy `Abort`, skipped                 |
//! | 5   | Checkpoint | `ts: u64, n: u32, n × (obj: u32, len: u32, data)`    |
//!
//! Older segments may hold tag 1 and 4 frames; readers skip them
//! ([`is_retired`]) instead of taking them for a torn tail.
//!
//! Segments are `wal-NNNNNN.log` files in `RtConfig::wal_dir`; a checkpoint
//! rotates to a fresh segment whose *first* record is the `Checkpoint`
//! snapshot, then deletes the superseded segments. Recovery (`recovery.rs`)
//! prefers the newest segment that starts with a valid checkpoint and
//! replays forward from it.
//!
//! ## Staging
//!
//! No record reaches the kernel on its own. Every record is framed into one
//! user-space staging buffer owned by the log (under its leaf mutex): a
//! commit's `Publish`/`Commit` frames arrive as one pre-encoded block
//! (framed and checksummed by the committer *before* its turnstile wait)
//! and cost one `memcpy` inside the window. The log holds only redo, so
//! this is the one time a transaction touches it: nothing at begin or
//! abort. The **logical log is `file bytes ++ staged bytes`**; `appended`,
//! `unsynced_bytes()` and `crash_teardown(keep)` all speak about that
//! logical tail. The stage reaches the file with a single `write_all` when
//!
//! 1. the policy says an fsync is due (`Always`: every commit; `Group`: the
//!    batch is full or its deadline passed) — flush, then `fdatasync`;
//! 2. it passes [`STAGE_FLUSH_BYTES`] (64 KiB) — flush only, no fsync, no
//!    `durable_ts` promotion (this is how a long `Group` batch reaches the OS);
//! 3. a checkpoint rotates the segment — flush + fsync of the old segment,
//!    then the `Checkpoint` record itself is framed into the emptied stage
//!    and flushed as the new segment's first bytes;
//! 4. the log is dropped cleanly — flush + fsync;
//! 5. `crash_teardown(keep)` materialises the kept part of the staged tail.
//!
//! Staged bytes are appended in turnstile order and flushed in buffer order,
//! so the file is always a commit-ordered prefix of the logical log and the
//! ordering argument above is untouched: the stage is one more volatile
//! layer above the page cache, and the crash model treats the two alike. A
//! failed flush freezes the log exactly as a failed fsync does; `durable_ts`
//! is never promoted past it.
//!
//! ## Group commit
//!
//! `FsyncPolicy::Group(n, d)` acks a commit as soon as its records are
//! staged and defers the flush + fsync until `n` commits are pending or the
//! oldest pending commit is older than `d`. The next commit checks both,
//! and the commit that opens a batch wakes the manager's sweeper, which
//! fsyncs it at `d` if no commit did.
//! The durable prefix (`durable_ts`) then trails the published clock —
//! recovery returns some prefix in `[durable_ts, crash clock]`, and the
//! kill-and-recover fuzz (`ntx-sim::fuzz_crash_run`) checks exactly that
//! containment.
//!
//! ## Crash simulation
//!
//! `freeze()` models the process dying at a WAL yield point: nothing is
//! staged, flushed or fsynced again (appends become silent no-ops) while the
//! in-memory manager stays alive so the test driver can wind down; the bytes
//! staged before the freeze are kept for teardown. `crash_teardown(keep)`
//! additionally cuts the logical log to the synced prefix plus `keep` bytes
//! of unsynced tail — writing out the kept part of the stage, then
//! truncating — a torn final record, the shape real power loss leaves behind.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read as _, Seek, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::object::AnyState;
use crate::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use crate::sync::Mutex;

/// When the WAL flushes appended records to stable storage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Fsync on every commit before it is acknowledged. Durable-on-return,
    /// but the device flush serialises the commit path (see bench B7).
    Always,
    /// Group commit: acknowledge after append, fsync once this many commits
    /// are pending or the oldest pending commit has waited this long — the
    /// next commit or else the manager's sweeper thread sees to it, late by
    /// at most a wait tick; [`crate::TxManager::wal_durable_ts`] is the
    /// only durability promise.
    /// Commits become durable as a batch; recovery may lose an
    /// acknowledged-but-unsynced suffix (a documented durable-prefix
    /// guarantee, never a torn or reordered state).
    ///
    /// `Group(usize::MAX, Duration::MAX)` never fsyncs while running:
    /// records reach the OS in 64 KiB chunks and are fsynced once on clean
    /// close only (append cost without device cost).
    Group(usize, Duration),
}

/// State types that can live in a durable object
/// (`TxManager::register_durable`). The encoding is the module's stability
/// boundary: bytes written by `encode_wal` must remain decodable by
/// `decode_wal` across restarts.
pub trait WalState: std::any::Any + Clone + Send + Sync {
    /// Append this value's canonical byte encoding to `out`.
    fn encode_wal(&self, out: &mut Vec<u8>);
    /// Rebuild a value from bytes produced by [`WalState::encode_wal`].
    /// `None` marks a corrupt or truncated payload.
    fn decode_wal(bytes: &[u8]) -> Option<Self>
    where
        Self: Sized;
}

macro_rules! wal_state_int {
    ($($t:ty),* $(,)?) => {$(
        impl WalState for $t {
            fn encode_wal(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn decode_wal(bytes: &[u8]) -> Option<Self> {
                Some(<$t>::from_le_bytes(bytes.try_into().ok()?))
            }
        }
    )*};
}

wal_state_int!(i8, i16, i32, i64, u8, u16, u32, u64);

impl WalState for bool {
    fn encode_wal(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn decode_wal(bytes: &[u8]) -> Option<Self> {
        match bytes {
            [0] => Some(false),
            [1] => Some(true),
            _ => None,
        }
    }
}

impl WalState for String {
    fn encode_wal(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.as_bytes());
    }
    fn decode_wal(bytes: &[u8]) -> Option<Self> {
        String::from_utf8(bytes.to_vec()).ok()
    }
}

impl WalState for Vec<u8> {
    fn encode_wal(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self);
    }
    fn decode_wal(bytes: &[u8]) -> Option<Self> {
        Some(bytes.to_vec())
    }
}

/// Type-erased state encoder: downcasts to the registered concrete type and
/// appends its wire form.
pub(crate) type EncodeFn = Box<dyn Fn(&dyn std::any::Any, &mut Vec<u8>) + Send + Sync>;
/// Type-erased state decoder; `None` on corrupt input.
pub(crate) type DecodeFn = Box<dyn Fn(&[u8]) -> Option<Box<dyn AnyState>> + Send + Sync>;

/// Type-erased encode/decode pair stored on a durable `ObjectSlot`. Built
/// once per `register_durable` call; the closures capture only the concrete
/// type, so encode is a downcast plus the typed encoder.
pub(crate) struct WalCodec {
    /// Encode a state value (must be the registered concrete type).
    pub(crate) encode: EncodeFn,
    /// Decode bytes back into a boxed state, `None` on corrupt input.
    pub(crate) decode: DecodeFn,
}

impl WalCodec {
    /// The codec for a concrete durable state type.
    pub(crate) fn of<T: WalState>() -> WalCodec {
        WalCodec {
            encode: Box::new(|any, out| {
                any.downcast_ref::<T>()
                    .expect("durable object state type mismatch")
                    .encode_wal(out);
            }),
            decode: Box::new(|bytes| {
                T::decode_wal(bytes).map(|v| Box::new(v) as Box<dyn AnyState>)
            }),
        }
    }
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3 polynomial) — hand-rolled, the workspace vendors no
// checksum crate. Const-built table, standard reflected algorithm.
// ---------------------------------------------------------------------------

const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// IEEE CRC32 of `bytes` (the framing checksum).
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------------
// Record encode / decode
// ---------------------------------------------------------------------------

const TAG_PUBLISH: u8 = 2;
const TAG_COMMIT: u8 = 3;
const TAG_CHECKPOINT: u8 = 5;
/// Legacy `Begin` and `Abort { top: u64 }`, skipped by [`is_retired`].
const TAG_RETIRED: [u8; 2] = [1, 4];

/// Upper bound on a single record payload; anything larger in a length
/// header is treated as tail corruption rather than attempted allocation.
const MAX_RECORD: u32 = 16 << 20;

/// A decoded log record (recovery-side view; the append side writes
/// payloads directly without building this enum).
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum WalRecord {
    /// One durable object's new state, published at commit timestamp `ts`.
    Publish {
        /// Commit timestamp (dense turnstile ticket).
        ts: u64,
        /// Committing top-level transaction id.
        top: u64,
        /// Slab index of the durable object.
        obj: u32,
        /// Encoded state bytes.
        data: Vec<u8>,
    },
    /// Commit fence: every `Publish` for (`ts`, `top`) precedes it, so its
    /// presence makes the whole write set redo-eligible.
    Commit {
        /// Commit timestamp.
        ts: u64,
        /// Committing top-level transaction id.
        top: u64,
    },
    /// Segment-leading snapshot of all durable objects at `ts`; supersedes
    /// every earlier segment.
    Checkpoint {
        /// Cut timestamp of the snapshot.
        ts: u64,
        /// `(object slab index, encoded state)` for every durable object.
        entries: Vec<(u32, Vec<u8>)>,
    },
}

// Payload writers append one record's payload (tag first) to `p`; [`frame`]
// wraps any of them in the `[len][crc]` header without an intermediate copy.

/// Fill in a `u32` placeholder reserved at `at` once its value is known.
fn patch_u32(out: &mut [u8], at: usize, v: u32) {
    out[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

/// One object's `(obj: u32, len: u32, data)` — the tail of a `Publish` and
/// the unit of a `Checkpoint`. `state` appends the encoded object state;
/// its length is patched in after.
pub(crate) fn put_entry(p: &mut Vec<u8>, obj: u32, state: impl FnOnce(&mut Vec<u8>)) {
    p.extend_from_slice(&obj.to_le_bytes());
    let len_at = p.len();
    p.extend_from_slice(&[0; 4]);
    state(p);
    let len = (p.len() - len_at - 4) as u32;
    patch_u32(p, len_at, len);
}

fn put_publish(p: &mut Vec<u8>, ts: u64, top: u64, obj: u32, state: impl FnOnce(&mut Vec<u8>)) {
    p.push(TAG_PUBLISH);
    p.extend_from_slice(&ts.to_le_bytes());
    p.extend_from_slice(&top.to_le_bytes());
    put_entry(p, obj, state);
}

fn put_commit(p: &mut Vec<u8>, ts: u64, top: u64) {
    p.push(TAG_COMMIT);
    p.extend_from_slice(&ts.to_le_bytes());
    p.extend_from_slice(&top.to_le_bytes());
}

/// Frame one record at the end of `out`: reserve the header, let `payload`
/// write the body in place, then patch in its length and CRC.
fn frame(out: &mut Vec<u8>, payload: impl FnOnce(&mut Vec<u8>)) {
    let at = out.len();
    out.extend_from_slice(&[0; 8]);
    payload(out);
    let body = &out[at + 8..];
    let (len, crc) = (body.len() as u32, crc32(body));
    patch_u32(out, at, len);
    patch_u32(out, at + 4, crc);
}

/// Append a framed `Publish` record to a committer's frame block; `state`
/// writes the object's encoded state straight into the frame.
pub(crate) fn frame_publish(
    block: &mut Vec<u8>,
    ts: u64,
    top: u64,
    obj: u32,
    state: impl FnOnce(&mut Vec<u8>),
) {
    // Room for this frame with a small state and for the fence, so a
    // typical commit grows its block once instead of by doubling from 8.
    block.reserve(96);
    frame(block, |p| put_publish(p, ts, top, obj, state));
}

/// Append the framed commit fence for (`ts`, `top`) to a frame block.
#[cfg_attr(loom, allow(dead_code))]
pub(crate) fn frame_commit(block: &mut Vec<u8>, ts: u64, top: u64) {
    frame(block, |p| put_commit(p, ts, top));
}

/// Frame the `Checkpoint` record for the cut at `ts` at the end of `out`:
/// `entries` writes one [`put_entry`] per durable object straight into the
/// record and returns how many it wrote.
fn frame_checkpoint(out: &mut Vec<u8>, ts: u64, entries: impl FnOnce(&mut Vec<u8>) -> u32) {
    frame(out, |p| {
        p.push(TAG_CHECKPOINT);
        p.extend_from_slice(&ts.to_le_bytes());
        let n_at = p.len();
        p.extend_from_slice(&[0; 4]);
        let n = entries(p);
        patch_u32(p, n_at, n);
    });
}

/// Bounds-checked little-endian cursor over a record payload.
struct Cur<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Cur<'a> {
    fn u32(&mut self) -> Option<u32> {
        let s = self.b.get(self.i..self.i + 4)?;
        self.i += 4;
        Some(u32::from_le_bytes(s.try_into().ok()?))
    }
    fn u64(&mut self) -> Option<u64> {
        let s = self.b.get(self.i..self.i + 8)?;
        self.i += 8;
        Some(u64::from_le_bytes(s.try_into().ok()?))
    }
    fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        let s = self.b.get(self.i..self.i + n)?;
        self.i += n;
        Some(s)
    }
    fn done(&self) -> bool {
        self.i == self.b.len()
    }
}

/// Decode one CRC-verified payload; `None` marks an unknown tag or a
/// malformed body (both treated as tail corruption by the caller).
pub(crate) fn decode_record(payload: &[u8]) -> Option<WalRecord> {
    let (&tag, rest) = payload.split_first()?;
    let mut c = Cur { b: rest, i: 0 };
    let rec = match tag {
        TAG_PUBLISH => {
            let ts = c.u64()?;
            let top = c.u64()?;
            let obj = c.u32()?;
            let len = c.u32()? as usize;
            WalRecord::Publish {
                ts,
                top,
                obj,
                data: c.bytes(len)?.to_vec(),
            }
        }
        TAG_COMMIT => WalRecord::Commit {
            ts: c.u64()?,
            top: c.u64()?,
        },
        TAG_CHECKPOINT => {
            let ts = c.u64()?;
            let n = c.u32()?;
            let mut entries = Vec::with_capacity(n.min(4096) as usize);
            for _ in 0..n {
                let obj = c.u32()?;
                let len = c.u32()? as usize;
                entries.push((obj, c.bytes(len)?.to_vec()));
            }
            WalRecord::Checkpoint { ts, entries }
        }
        _ => return None,
    };
    c.done().then_some(rec)
}

/// Walk a segment's valid frame prefix without allocating: every payload
/// whose length header fits and whose CRC matches is handed to `visit`,
/// which returns `false` if it cannot accept the payload. Returns the byte
/// length of the valid prefix; anything past it — a short header, an
/// oversized length, a CRC mismatch, or a payload `visit` rejected — is a
/// torn tail to be discarded.
pub(crate) fn walk_frames(bytes: &[u8], mut visit: impl FnMut(&[u8]) -> bool) -> usize {
    let mut i = 0usize;
    while let Some(header) = bytes.get(i..i + 8) {
        let len = u32::from_le_bytes(header[..4].try_into().expect("4-byte slice"));
        let crc = u32::from_le_bytes(header[4..].try_into().expect("4-byte slice"));
        if len > MAX_RECORD {
            break;
        }
        let Some(payload) = bytes.get(i + 8..i + 8 + len as usize) else {
            break;
        };
        if crc32(payload) != crc || !visit(payload) {
            break;
        }
        i += 8 + len as usize;
    }
    i
}

/// A legacy `Begin`/`Abort` payload, which readers skip; anything else
/// under those tags is corrupt.
fn is_retired(payload: &[u8]) -> bool {
    payload.len() == 9 && TAG_RETIRED.contains(&payload[0])
}

/// Split a segment's bytes into its valid record prefix: the decoded
/// records and the byte length they span (see [`walk_frames`]; an
/// undecodable payload ends the prefix, a retired one is skipped).
pub(crate) fn parse_frames(bytes: &[u8]) -> (Vec<WalRecord>, usize) {
    let mut recs = Vec::new();
    let valid = walk_frames(bytes, |payload| {
        is_retired(payload) || decode_record(payload).map(|rec| recs.push(rec)).is_some()
    });
    (recs, valid)
}

/// What [`Wal::open`] needs from a payload, without building a
/// [`WalRecord`]: `None` exactly when [`parse_frames`] would reject it,
/// otherwise the commit timestamp it makes durable (0 for records that
/// carry none). Only a `Checkpoint` — at most one per segment — allocates.
fn durable_ts_of(payload: &[u8]) -> Option<u64> {
    let le = |at: usize, n: usize| payload.get(at..at + n);
    match (*payload.first()?, payload.len()) {
        _ if is_retired(payload) => Some(0),
        (TAG_COMMIT, 17) => Some(u64::from_le_bytes(le(1, 8)?.try_into().ok()?)),
        (TAG_PUBLISH, n) => {
            let data_len = u32::from_le_bytes(le(21, 4)?.try_into().ok()?);
            (n - 25 == data_len as usize).then_some(0)
        }
        (TAG_CHECKPOINT, _) => match decode_record(payload)? {
            WalRecord::Checkpoint { ts, .. } => Some(ts),
            _ => None,
        },
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Segment files
// ---------------------------------------------------------------------------

fn seg_path(dir: &Path, idx: u64) -> PathBuf {
    dir.join(format!("wal-{idx:06}.log"))
}

/// All `wal-NNNNNN.log` segments in `dir`, sorted by index.
pub(crate) fn list_segments(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut v = Vec::new();
    for ent in fs::read_dir(dir)? {
        let ent = ent?;
        let name = ent.file_name();
        let name = name.to_string_lossy();
        if let Some(idx) = name
            .strip_prefix("wal-")
            .and_then(|s| s.strip_suffix(".log"))
        {
            if let Ok(n) = idx.parse::<u64>() {
                v.push((n, ent.path()));
            }
        }
    }
    v.sort();
    Ok(v)
}

// ---------------------------------------------------------------------------
// The log itself
// ---------------------------------------------------------------------------

/// The stage is written out (without an fsync) once it holds this many
/// bytes, so a long `Group` batch neither grows the buffer without bound
/// nor hands the kernel one record at a time.
const STAGE_FLUSH_BYTES: usize = 64 << 10;

/// Mutable log state; the mutex is a leaf in the crate lock order (neither
/// the turnstile window nor the sweeper holds a slot mutex when taking it).
struct WalInner {
    file: File,
    /// Index of the live (append) segment.
    seg: u64,
    /// Lowest segment index that may still be on disk; everything from
    /// here up to `seg` is deleted when the next checkpoint completes.
    oldest_seg: u64,
    /// Framed records appended but not yet written to `file`: the volatile
    /// tail of the logical log (`file bytes ++ stage`).
    stage: Vec<u8>,
    /// Logical length of the live segment (file bytes plus staged bytes).
    appended: u64,
    /// Bytes of the live segment known to be on stable storage.
    synced: u64,
    /// Commit records appended since the last fsync.
    pending: u64,
    /// When the oldest pending commit was appended (group-commit deadline).
    pending_since: Option<Instant>,
    /// Commit records since the last checkpoint rotation.
    commits_since_checkpoint: u64,
    /// Highest commit timestamp appended (promoted to `durable_ts` at sync).
    appended_commit_ts: u64,
}

impl WalInner {
    /// Bytes of the live segment that have been written to the file.
    fn file_len(&self) -> u64 {
        self.appended - self.stage.len() as u64
    }

    /// Hand the staged bytes to the OS with one `write`. On error the stage
    /// is kept (the caller freezes the log) so teardown still knows the
    /// logical tail.
    fn flush(&mut self) -> io::Result<()> {
        if !self.stage.is_empty() {
            self.file.write_all(&self.stage)?;
            self.stage.clear();
        }
        Ok(())
    }
}

/// What the policy wants done after a commit block was appended; the caller
/// (still inside its turnstile window) acts on it with [`Wal::sync`] and a
/// checkpoint.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct CommitDue {
    /// An fsync is due (`Always`, a full `Group` batch, or its deadline).
    pub(crate) sync: bool,
    /// `checkpoint_every` commits have accumulated in this segment.
    pub(crate) checkpoint: bool,
    /// A `Group` batch opened with a deadline to keep: wake the sweeper.
    pub(crate) opened_batch: bool,
}

/// A segmented append-only write-ahead log. See the module docs for the
/// format and the ordering argument.
pub(crate) struct Wal {
    dir: PathBuf,
    policy: FsyncPolicy,
    checkpoint_every: u64,
    /// Set when the simulated process died (or on an io error): every
    /// subsequent append/fsync is a silent no-op.
    frozen: AtomicBool,
    /// Highest commit timestamp guaranteed on stable storage.
    durable_ts: AtomicU64,
    /// Largest group-commit fsync batch observed (commits per fsync).
    batch_max: AtomicU64,
    /// A `Group` batch with a deadline is pending (read by the sweeper).
    batch_open: AtomicBool,
    /// Torn-tail bytes truncated while opening (recovery reports them).
    repaired: u64,
    inner: Mutex<WalInner>,
}

impl Wal {
    /// Open (or create) the log in `dir`, repairing a torn tail: the last
    /// segment is truncated to its valid frame prefix, which is exactly the
    /// state a mid-write power cut leaves behind.
    pub(crate) fn open(dir: &Path, policy: FsyncPolicy, checkpoint_every: u64) -> io::Result<Wal> {
        fs::create_dir_all(dir)?;
        let segs = list_segments(dir)?;
        let (seg, path) = match segs.last() {
            Some((n, p)) => (*n, p.clone()),
            None => (0, seg_path(dir, 0)),
        };
        let oldest_seg = segs.first().map_or(seg, |(n, _)| *n);
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        // Everything already on disk is durable; seed the bookkeeping with
        // its highest commit timestamp so a later fsync with no fresh
        // commits cannot regress `durable_ts`.
        let mut max_ts = 0u64;
        let valid = walk_frames(&bytes, |payload| {
            durable_ts_of(payload)
                .map(|ts| max_ts = max_ts.max(ts))
                .is_some()
        }) as u64;
        if valid < bytes.len() as u64 {
            file.set_len(valid)?;
        }
        file.seek(SeekFrom::Start(valid))?;
        Ok(Wal {
            dir: dir.to_path_buf(),
            policy,
            checkpoint_every,
            frozen: AtomicBool::new(false),
            durable_ts: AtomicU64::new(max_ts),
            batch_max: AtomicU64::new(0),
            batch_open: AtomicBool::new(false),
            repaired: bytes.len() as u64 - valid,
            inner: Mutex::new(WalInner {
                file,
                seg,
                oldest_seg,
                // Headroom for the block that crosses the threshold, so
                // ordinary commits never regrow the buffer.
                stage: Vec::with_capacity(STAGE_FLUSH_BYTES + 4096),
                appended: valid,
                synced: valid,
                pending: 0,
                pending_since: None,
                commits_since_checkpoint: 0,
                appended_commit_ts: max_ts,
            }),
        })
    }

    /// Directory holding the segment files (recovery scans it).
    pub(crate) fn dir(&self) -> &Path {
        &self.dir
    }

    /// The one append path: copy pre-framed records into the stage under
    /// the log mutex. With `commit_ts` they end in that commit's fence, and
    /// the result says what the policy now wants. `None` when nothing was
    /// appended (frozen log, or the 64 KiB flush failed).
    fn append(&self, frames: &[u8], commit_ts: Option<u64>) -> Option<CommitDue> {
        if self.frozen.load(Ordering::SeqCst) {
            return None;
        }
        let mut inner = self.inner.lock();
        inner.stage.extend_from_slice(frames);
        inner.appended += frames.len() as u64;
        let mut due = CommitDue::default();
        if let Some(ts) = commit_ts {
            inner.pending += 1;
            inner.commits_since_checkpoint += 1;
            inner.appended_commit_ts = ts;
            due.sync = match self.policy {
                FsyncPolicy::Always => true,
                FsyncPolicy::Group(n, d) => {
                    let opens = inner.pending_since.is_none();
                    let since = *inner.pending_since.get_or_insert_with(Instant::now);
                    let sync = inner.pending >= n as u64 || since.elapsed() >= d;
                    // `Duration::MAX` sets no deadline to keep.
                    due.opened_batch = opens && !sync && since.checked_add(d).is_some();
                    if due.opened_batch {
                        self.batch_open.store(true, Ordering::SeqCst);
                    }
                    sync
                }
            };
            due.checkpoint = self.checkpoint_every > 0
                && inner.commits_since_checkpoint >= self.checkpoint_every;
        }
        // A due sync flushes anyway; otherwise keep the stage bounded.
        if !due.sync && inner.stage.len() >= STAGE_FLUSH_BYTES && inner.flush().is_err() {
            self.freeze();
            return None;
        }
        Some(due)
    }

    /// Append pre-framed records that do not complete a commit (the
    /// `Publish` half of a commit block torn at its `WalMidCommit` point).
    pub(crate) fn append_frames(&self, frames: &[u8]) -> bool {
        self.append(frames, None).is_some()
    }

    /// Append a whole commit — its `Publish` frames followed by the commit
    /// fence for `ts`, pre-framed by the committer — with one copy, and
    /// report what is due. `None` when the log is frozen.
    pub(crate) fn append_commit_block(&self, block: &[u8], ts: u64) -> Option<CommitDue> {
        self.append(block, Some(ts))
    }

    /// Flush the stage and fsync the live segment, promoting every appended
    /// commit to durable. Freezes the log and returns `false` on an io
    /// error, leaving `durable_ts` where it was.
    fn make_durable(&self, inner: &mut WalInner) -> bool {
        if inner.flush().and_then(|()| inner.file.sync_data()).is_err() {
            self.freeze();
            return false;
        }
        self.batch_max.fetch_max(inner.pending, Ordering::SeqCst);
        inner.pending = 0;
        inner.pending_since = None;
        self.batch_open.store(false, Ordering::SeqCst);
        inner.synced = inner.appended;
        self.durable_ts
            .store(inner.appended_commit_ts, Ordering::SeqCst);
        true
    }

    /// Flush and fsync the live segment, promoting every appended commit to
    /// durable. Returns whether a device flush actually ran.
    pub(crate) fn sync(&self) -> bool {
        // Under the mutex: a sweeper's sync must not follow a teardown.
        let mut inner = self.inner.lock();
        if self.is_frozen() || (inner.synced == inner.appended && inner.pending == 0) {
            return false;
        }
        self.make_durable(&mut inner)
    }

    /// When the pending `Group` batch falls due; no mutex while none is.
    pub(crate) fn batch_deadline(&self) -> Option<Instant> {
        match self.policy {
            FsyncPolicy::Group(_, d) if self.batch_open.load(Ordering::SeqCst) => {
                self.inner.lock().pending_since?.checked_add(d)
            }
            _ => None,
        }
    }

    /// First half of a checkpoint: make the old segment fully durable, then
    /// rotate to a fresh segment whose first record snapshots every durable
    /// object at `ts` — `entries` writes one [`put_entry`] per object and
    /// returns how many. The record is framed straight into the (just
    /// emptied) stage and written out as the new segment's first bytes;
    /// `entries` runs under the log mutex and must not call back into the
    /// log. Old segments are deleted only by [`Wal::finish_checkpoint`], so
    /// a crash between the two halves leaves the log fully recoverable (the
    /// torn checkpoint segment is discarded and recovery falls back to the
    /// intact earlier segments).
    pub(crate) fn begin_checkpoint(
        &self,
        ts: u64,
        entries: impl FnOnce(&mut Vec<u8>) -> u32,
    ) -> bool {
        if self.frozen.load(Ordering::SeqCst) {
            return false;
        }
        let mut inner = self.inner.lock();
        if !self.make_durable(&mut inner) {
            return false;
        }
        let next = inner.seg + 1;
        let file = OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(true)
            .open(seg_path(&self.dir, next));
        let Ok(file) = file else {
            self.freeze();
            return false;
        };
        inner.file = file;
        inner.seg = next;
        inner.appended = 0;
        inner.synced = 0;
        inner.commits_since_checkpoint = 0;
        frame_checkpoint(&mut inner.stage, ts, entries);
        inner.appended = inner.stage.len() as u64;
        if inner.flush().is_err() {
            self.freeze();
            return false;
        }
        true
    }

    /// Second half of a checkpoint: fsync the new segment and delete the
    /// superseded ones. Returns how many old segments were removed.
    pub(crate) fn finish_checkpoint(&self) -> usize {
        if self.frozen.load(Ordering::SeqCst) {
            return 0;
        }
        let mut inner = self.inner.lock();
        if !self.make_durable(&mut inner) {
            return 0;
        }
        // By name, not by listing the directory: checkpoints run on client
        // threads, and a `read_dir` buffer per checkpoint is exactly the
        // kind of large transient allocation this log no longer makes.
        let superseded = inner.oldest_seg..inner.seg;
        inner.oldest_seg = inner.seg;
        superseded
            .filter(|&n| fs::remove_file(seg_path(&self.dir, n)).is_ok())
            .count()
    }

    /// Simulate the process dying at this instant: no further bytes are
    /// ever appended, flushed or fsynced. What is already staged stays in
    /// memory so [`Wal::crash_teardown`] can decide how much of it "made
    /// it". Idempotent; the in-memory manager stays usable so a test driver
    /// can wind down its open transactions. An io error freezes the log the
    /// same way: the tail is in an unknown state, so stop acknowledging
    /// commits we cannot persist.
    pub(crate) fn freeze(&self) {
        self.frozen.store(true, Ordering::SeqCst);
    }

    /// Whether a simulated crash (or an io error) has frozen the log.
    pub(crate) fn is_frozen(&self) -> bool {
        self.frozen.load(Ordering::SeqCst)
    }

    /// Simulate power loss: freeze, then cut the live segment to its synced
    /// prefix plus `keep_unsynced` bytes of the *logical* unsynced tail
    /// (written-but-unsynced file bytes, then staged bytes). Passing a
    /// value that lands mid-record produces a torn final record for
    /// recovery's tail repair to discard.
    pub(crate) fn crash_teardown(&self, keep_unsynced: u64) -> io::Result<()> {
        self.freeze();
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let target = inner.synced + keep_unsynced.min(inner.appended - inner.synced);
        let file_len = inner.file_len();
        if target > file_len {
            // The cut falls inside the stage: those bytes "reached the
            // disk" in this crash, so materialise them. Seek explicitly —
            // a failed flush may have left the cursor anywhere.
            inner.file.seek(SeekFrom::Start(file_len))?;
            inner
                .file
                .write_all(&inner.stage[..(target - file_len) as usize])?;
        }
        inner.file.set_len(target)
    }

    /// Bytes appended to the live segment (written or still staged) but not
    /// yet fsynced.
    pub(crate) fn unsynced_bytes(&self) -> u64 {
        let inner = self.inner.lock();
        inner.appended - inner.synced
    }

    /// Highest commit timestamp guaranteed to survive a crash.
    pub(crate) fn durable_ts(&self) -> u64 {
        self.durable_ts.load(Ordering::SeqCst)
    }

    /// Largest commits-per-fsync batch observed (group-commit win metric).
    pub(crate) fn batch_max(&self) -> u64 {
        self.batch_max.load(Ordering::SeqCst)
    }

    /// Torn-tail bytes [`Wal::open`] truncated from the last segment (the
    /// wreckage of a mid-write crash, already repaired).
    pub(crate) fn repaired_bytes(&self) -> u64 {
        self.repaired
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        // Clean close: write out and fsync whatever the policy left staged
        // or pending so a `Group` tail survives an orderly shutdown. A
        // frozen log is simulating a dead process and must not touch the
        // file.
        if !self.frozen.load(Ordering::SeqCst) {
            let mut inner = self.inner.lock();
            let _ = inner.flush().and_then(|()| inner.file.sync_data());
        }
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    /// Append cost only: no fsync until clean close.
    const NO_FSYNC: FsyncPolicy = FsyncPolicy::Group(usize::MAX, Duration::MAX);

    fn tmp(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("ntx-wal-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    /// A standalone payload (the writers append in place).
    fn payload(put: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut p = Vec::new();
        put(&mut p);
        p
    }

    fn payload_publish(ts: u64, top: u64, obj: u32, data: &[u8]) -> Vec<u8> {
        payload(|p| put_publish(p, ts, top, obj, |d| d.extend_from_slice(data)))
    }

    fn push_frame(out: &mut Vec<u8>, payload: &[u8]) {
        frame(out, |p| p.extend_from_slice(payload));
    }

    /// Append a lone `Publish` record, as a torn commit block would.
    fn append_publish(wal: &Wal, ts: u64, top: u64, obj: u32, data: &[u8]) -> bool {
        let mut block = Vec::new();
        frame_publish(&mut block, ts, top, obj, |d| d.extend_from_slice(data));
        wal.append_frames(&block)
    }

    /// Append a commit block holding just the fence for (`ts`, `top`).
    fn append_commit(wal: &Wal, ts: u64, top: u64) -> Option<CommitDue> {
        let mut block = Vec::new();
        frame_commit(&mut block, ts, top);
        wal.append_commit_block(&block, ts)
    }

    fn live_segment_len(dir: &Path) -> u64 {
        let seg = list_segments(dir).unwrap().pop().unwrap().1;
        fs::metadata(seg).unwrap().len()
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The canonical IEEE CRC32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    /// A legacy `Begin` (tag 1) or `Abort` (tag 4) payload.
    fn payload_retired(tag: u8, top: u64) -> Vec<u8> {
        payload(|p| {
            p.push(tag);
            p.extend_from_slice(&top.to_le_bytes());
        })
    }

    /// Whether [`parse_frames`] accepts `payload` as one whole frame.
    fn accepted(payload: &[u8]) -> bool {
        let mut bytes = Vec::new();
        push_frame(&mut bytes, payload);
        parse_frames(&bytes).1 == bytes.len()
    }

    #[test]
    fn records_round_trip() {
        let cases = [
            payload_publish(3, 7, 2, &42i64.to_le_bytes()),
            payload(|p| put_commit(p, 3, 7)),
            payload(|p| {
                frame_checkpoint(p, 5, |p| {
                    put_entry(p, 0, |d| d.extend_from_slice(&[1, 2, 3]));
                    put_entry(p, 4, |_| {});
                    2
                })
            })[8..]
                .to_vec(),
        ];
        let expect = vec![
            WalRecord::Publish {
                ts: 3,
                top: 7,
                obj: 2,
                data: 42i64.to_le_bytes().to_vec(),
            },
            WalRecord::Commit { ts: 3, top: 7 },
            WalRecord::Checkpoint {
                ts: 5,
                entries: vec![(0, vec![1, 2, 3]), (4, vec![])],
            },
        ];
        for (payload, want) in cases.iter().zip(&expect) {
            assert_eq!(decode_record(payload).as_ref(), Some(want));
            // The allocation-free check `Wal::open` uses accepts the same
            // payloads and rejects the same truncations.
            let ts = match want {
                WalRecord::Commit { ts, .. } | WalRecord::Checkpoint { ts, .. } => *ts,
                _ => 0,
            };
            assert_eq!(durable_ts_of(payload), Some(ts));
            for cut in 0..payload.len() {
                assert_eq!(
                    durable_ts_of(&payload[..cut]).is_some(),
                    decode_record(&payload[..cut]).is_some()
                );
                assert_eq!(
                    durable_ts_of(&payload[..cut]).is_some(),
                    accepted(&payload[..cut])
                );
            }
        }
        // Legacy metadata in an old segment: accepted and skipped whole,
        // carrying no timestamp; any truncation is a torn tail.
        for tag in TAG_RETIRED {
            let legacy = payload_retired(tag, 9);
            assert_eq!(decode_record(&legacy), None, "no record to build");
            assert_eq!(durable_ts_of(&legacy), Some(0));
            assert!(accepted(&legacy));
            let mut bytes = Vec::new();
            push_frame(&mut bytes, &legacy);
            assert_eq!(parse_frames(&bytes), (vec![], bytes.len()));
            for cut in 0..legacy.len() {
                assert_eq!(durable_ts_of(&legacy[..cut]), None);
                assert!(!accepted(&legacy[..cut]));
            }
        }
    }

    #[test]
    fn parse_stops_at_torn_tail() {
        let mut bytes = Vec::new();
        push_frame(&mut bytes, &payload_publish(1, 1, 0, &[7]));
        push_frame(&mut bytes, &payload(|p| put_commit(p, 1, 1)));
        let valid = bytes.len();
        // A torn third record: header promises more bytes than exist.
        push_frame(&mut bytes, &payload(|p| put_commit(p, 2, 2)));
        bytes.truncate(valid + 5);
        let (recs, n) = parse_frames(&bytes);
        assert_eq!(n, valid);
        assert_eq!(recs.len(), 2);

        // A bit-flipped payload fails the CRC and also stops the parse.
        let mut flipped = Vec::new();
        push_frame(&mut flipped, &payload(|p| put_commit(p, 1, 1)));
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        assert_eq!(parse_frames(&flipped), (vec![], 0));
    }

    #[test]
    fn open_repairs_torn_tail_and_preserves_prefix() {
        let dir = tmp("repair");
        {
            let wal = Wal::open(&dir, FsyncPolicy::Always, 0).unwrap();
            assert!(append_publish(&wal, 1, 1, 1, &6i64.to_le_bytes()));
            assert!(append_publish(&wal, 1, 1, 0, &5i64.to_le_bytes()));
            assert!(append_commit(&wal, 1, 1).is_some());
            assert!(wal.sync());
            assert_eq!(wal.durable_ts(), 1);
        }
        // Tear 3 bytes into the file by hand.
        let seg = list_segments(&dir).unwrap().pop().unwrap().1;
        let mut f = OpenOptions::new().append(true).open(&seg).unwrap();
        f.write_all(&[0xAB, 0xCD, 0xEF]).unwrap();
        drop(f);

        let wal = Wal::open(&dir, FsyncPolicy::Always, 0).unwrap();
        assert_eq!(wal.durable_ts(), 1);
        // Appending after repair yields a cleanly parseable log.
        assert!(append_commit(&wal, 2, 2).is_some());
        drop(wal);
        let bytes = fs::read(&seg).unwrap();
        let (recs, n) = parse_frames(&bytes);
        assert_eq!(n, bytes.len());
        assert_eq!(recs.len(), 4);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn frozen_log_drops_appends_and_teardown_truncates() {
        let dir = tmp("freeze");
        let wal = Wal::open(&dir, NO_FSYNC, 0).unwrap();
        assert!(append_commit(&wal, 1, 1).is_some());
        assert!(wal.sync()); // manual sync still works with no policy fsync
        assert!(append_commit(&wal, 2, 2).is_some());
        let unsynced = wal.unsynced_bytes();
        assert!(unsynced > 0);
        wal.crash_teardown(unsynced - 3).unwrap();
        assert!(wal.is_frozen());
        assert!(append_commit(&wal, 3, 3).is_none());
        assert!(!wal.sync());
        drop(wal);

        let wal = Wal::open(&dir, NO_FSYNC, 0).unwrap();
        // Commit 1 survived; commit 2's torn record was repaired away.
        assert_eq!(wal.durable_ts(), 1);
        drop(wal);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn group_policy_defers_until_batch_size() {
        let dir = tmp("group");
        let wal = Wal::open(&dir, FsyncPolicy::Group(3, Duration::from_secs(3600)), 0).unwrap();
        assert!(!append_commit(&wal, 1, 1).unwrap().sync);
        assert!(!append_commit(&wal, 2, 2).unwrap().sync);
        assert!(append_commit(&wal, 3, 3).unwrap().sync);
        assert!(wal.sync());
        assert_eq!(wal.batch_max(), 3);
        assert_eq!(wal.durable_ts(), 3);
        drop(wal);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_rotates_and_prunes_segments() {
        let dir = tmp("ckpt");
        let wal = Wal::open(&dir, FsyncPolicy::Always, 0).unwrap();
        for ts in 1..=4u64 {
            assert!(append_publish(&wal, ts, ts, 0, &(ts as i64).to_le_bytes()));
            assert!(append_commit(&wal, ts, ts).is_some());
            assert!(wal.sync());
        }
        assert!(wal.begin_checkpoint(4, |p| {
            put_entry(p, 0, |d| d.extend_from_slice(&4i64.to_le_bytes()));
            1
        }));
        assert_eq!(wal.finish_checkpoint(), 1);
        let segs = list_segments(&dir).unwrap();
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].0, 1);
        let (recs, _) = parse_frames(&fs::read(&segs[0].1).unwrap());
        assert!(matches!(recs[0], WalRecord::Checkpoint { ts: 4, .. }));
        drop(wal);
        let _ = fs::remove_dir_all(&dir);
    }

    const NEVER_SYNCS: FsyncPolicy = FsyncPolicy::Group(1000, Duration::from_secs(3600));

    #[test]
    fn group_commits_stay_staged_until_a_sync_is_due() {
        let dir = tmp("staged");
        let wal = Wal::open(&dir, NEVER_SYNCS, 0).unwrap();
        assert!(append_commit(&wal, 1, 1).is_some());
        assert!(wal.sync());
        let synced = live_segment_len(&dir);
        let mut framed = 0u64;
        for ts in 2..=6u64 {
            assert!(append_publish(&wal, ts, ts, 0, &7i64.to_le_bytes()));
            assert!(append_publish(&wal, ts, ts, 1, &8i64.to_le_bytes()));
            assert!(append_commit(&wal, ts, ts).is_some());
            framed += 2 * (8 + 25 + 8) + (8 + 17);
        }
        assert_eq!(live_segment_len(&dir), synced, "nothing reached the file");
        assert_eq!(wal.unsynced_bytes(), framed);
        assert_eq!(wal.durable_ts(), 1);
        drop(wal);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_full_stage_is_written_without_fsync_or_promotion() {
        let dir = tmp("chunk");
        let wal = Wal::open(&dir, NO_FSYNC, 0).unwrap();
        let mut ts = 0u64;
        while live_segment_len(&dir) == 0 {
            ts += 1;
            assert!(!append_commit(&wal, ts, ts).unwrap().sync);
            assert!(ts < 10_000, "the stage never reached the file");
        }
        // Exactly the stage that crossed the threshold was written, as one
        // chunk ending on a record boundary; it is still unsynced.
        let written = live_segment_len(&dir);
        assert_eq!(written, ts * 25);
        assert!((STAGE_FLUSH_BYTES as u64..STAGE_FLUSH_BYTES as u64 + 25).contains(&written));
        assert_eq!(wal.unsynced_bytes(), written);
        assert_eq!(wal.durable_ts(), 0);
        assert_eq!(wal.batch_max(), 0);
        drop(wal);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn teardown_cuts_the_logical_tail_at_any_offset() {
        // Two synced commits, then two staged ones (25 bytes each).
        for keep in [0u64, 7, 25, 30, 50, u64::MAX] {
            let dir = tmp("cut");
            let wal = Wal::open(&dir, NEVER_SYNCS, 0).unwrap();
            for ts in 1..=2u64 {
                assert!(append_commit(&wal, ts, ts).is_some());
            }
            assert!(wal.sync());
            for ts in 3..=4u64 {
                assert!(append_commit(&wal, ts, ts).is_some());
            }
            wal.crash_teardown(keep).unwrap();
            drop(wal);
            let kept = keep.min(50);
            assert_eq!(live_segment_len(&dir), 50 + kept);
            let seg = list_segments(&dir).unwrap().pop().unwrap().1;
            let (recs, valid) = parse_frames(&fs::read(seg).unwrap());
            assert_eq!(valid as u64, 50 + kept / 25 * 25);
            assert_eq!(recs.len() as u64, 2 + kept / 25);
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn appends_after_a_freeze_never_surface() {
        let dir = tmp("postfreeze");
        let wal = Wal::open(&dir, NEVER_SYNCS, 0).unwrap();
        assert!(append_commit(&wal, 1, 1).is_some());
        wal.freeze();
        let at_freeze = wal.unsynced_bytes();
        assert!(!append_publish(&wal, 2, 2, 0, &[1]));
        assert!(append_commit(&wal, 2, 2).is_none());
        assert_eq!(wal.unsynced_bytes(), at_freeze);
        wal.crash_teardown(u64::MAX).unwrap();
        drop(wal);
        // The staged pre-freeze commit was materialised; nothing else.
        assert_eq!(live_segment_len(&dir), at_freeze);
        let wal = Wal::open(&dir, NEVER_SYNCS, 0).unwrap();
        assert_eq!((wal.durable_ts(), wal.repaired_bytes()), (1, 0));
        drop(wal);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_and_clean_drop_write_the_stage_out() {
        let dir = tmp("flushes");
        let wal = Wal::open(&dir, NEVER_SYNCS, 0).unwrap();
        for ts in 1..=3u64 {
            assert!(append_commit(&wal, ts, ts).is_some());
        }
        let old = list_segments(&dir).unwrap().pop().unwrap().1;
        assert_eq!(fs::metadata(&old).unwrap().len(), 0);
        assert!(wal.begin_checkpoint(3, |_| 0));
        // The old segment was completed and made durable before rotating.
        assert_eq!(fs::metadata(&old).unwrap().len(), 75);
        assert_eq!(wal.durable_ts(), 3);
        assert_eq!(wal.finish_checkpoint(), 1);
        assert!(append_publish(&wal, 4, 4, 0, &4i64.to_le_bytes()));
        assert!(append_commit(&wal, 4, 4).is_some());
        let appended = wal.unsynced_bytes() + live_segment_len(&dir);
        drop(wal);
        assert_eq!(live_segment_len(&dir), appended, "clean drop loses nothing");
        let wal = Wal::open(&dir, NEVER_SYNCS, 0).unwrap();
        assert_eq!((wal.durable_ts(), wal.repaired_bytes()), (4, 0));
        drop(wal);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopened_log_prunes_segments_a_crash_left_behind() {
        let dir = tmp("leftover");
        {
            let wal = Wal::open(&dir, FsyncPolicy::Always, 0).unwrap();
            assert!(append_commit(&wal, 1, 1).is_some());
            // Died between the two halves: segment 0 is never deleted.
            assert!(wal.begin_checkpoint(1, |_| 0));
            wal.crash_teardown(u64::MAX).unwrap();
        }
        let wal = Wal::open(&dir, FsyncPolicy::Always, 0).unwrap();
        assert_eq!(list_segments(&dir).unwrap().len(), 2);
        assert!(append_commit(&wal, 2, 2).is_some());
        assert!(wal.begin_checkpoint(2, |_| 0));
        assert_eq!(wal.finish_checkpoint(), 2, "both superseded segments go");
        assert_eq!(list_segments(&dir).unwrap()[0].0, 2);
        drop(wal);
        let _ = fs::remove_dir_all(&dir);
    }
}
