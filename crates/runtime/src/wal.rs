//! Segmented write-ahead log behind the commit turnstile.
//!
//! The paper's model (§2) treats a committed top-level transaction's effects
//! as permanent, and its `COMMIT(T)` is one atomic step (§5.2). This module
//! makes both literally true under process death: every top-level commit
//! that changed a durable object appends **one** CRC-framed `Commit` record
//! holding its whole write set, *inside* the commit-timestamp turnstile
//! window of `manager.rs` — exactly one committer is between the turnstile
//! wait and the `commit_ts` store at a time, so the append order of `Commit`
//! records equals the dense ticket order, which is the order snapshot
//! readers observe. Durable order = published MVCC order by construction,
//! not by a separate locking protocol.
//!
//! ## Frame and record format
//!
//! Every record is framed as `[len: u32 LE][crc32(payload): u32 LE][payload]`.
//! The first payload byte is a record tag:
//!
//! | tag | record     | payload after the tag                                       |
//! |-----|------------|-------------------------------------------------------------|
//! | 1–4 | (refused)  | per-object `Publish`, its fence, `Begin`, `Abort` of older logs |
//! | 5   | Checkpoint | `ts: u64, n: u32, n × (obj: u32, len: u32, data)`           |
//! | 6   | Commit     | `ts: u64, top: u64, n: u32, n × (obj: u32, len: u32, data)` |
//!
//! Both records share one entry layout ([`put_entry`]) and one writer
//! ([`OpenRecord`]). The CRC makes a frame atomic, so a commit is on disk
//! whole or not at all: a torn record is a torn tail and nothing else.
//! Every reader goes through [`walk_records`] and its one decoder,
//! [`decode_record`], which borrows the payload. A frame whose CRC holds but
//! which does not decode — an unknown tag, the tags of older logs among
//! them — is damage no crash leaves behind, so the log is refused
//! ([`BadFrame`]) rather than cut short there.
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
//! commit's record arrives pre-encoded (built and checksummed by the
//! committer *before* its turnstile wait) and costs one `memcpy` inside the
//! window. The log holds only redo, so this is the one time a transaction
//! touches it: nothing at begin or abort. The **logical log is
//! `file bytes ++ staged bytes`**; `appended`, `unsynced_bytes()` and
//! `crash_teardown(keep)` all speak about that logical tail. The stage
//! reaches the file with a single `write_all` when
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
//! `FsyncPolicy::Group(n, d)` acks a commit as soon as its record is
//! staged and defers the flush + fsync until `n` commits are pending or the
//! oldest pending commit is older than `d`. The next commit checks both,
//! and the commit that opens a batch wakes the manager's sweeper, which
//! fsyncs it at `d` if no commit did. The commit that makes a batch due
//! claims it ([`SyncClaim`]): it writes the stage out under the log mutex,
//! and runs the `fdatasync` after its turnstile window, on a duplicated
//! descriptor, with no mutex held — so a device flush stalls neither the
//! log nor the commits behind it. `durable_ts` is promoted (a `fetch_max`)
//! once the flush returned, under the log mutex and only while the log is
//! not frozen. `Always` runs the same claim inside the window, before the
//! commit is visible or acknowledged.
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

use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read as _, Seek, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::object::AnyState;
use crate::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use crate::sync::{Arc, Mutex};

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

const TAG_CHECKPOINT: u8 = 5;
const TAG_COMMIT: u8 = 6;

/// A decoded log record. It borrows the payload it was read from, so
/// decoding allocates nothing; the append side builds payloads in place
/// ([`OpenRecord`]) without this enum.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum WalRecord<'a> {
    /// A top-level commit's whole durable write set, published at `ts`.
    Commit {
        /// Commit timestamp (dense turnstile ticket).
        ts: u64,
        /// Committing top-level transaction id.
        top: u64,
        /// One entry per durable object the commit wrote.
        entries: Entries<'a>,
    },
    /// Segment-leading snapshot of all durable objects at `ts`; supersedes
    /// every earlier segment.
    Checkpoint {
        /// Cut timestamp of the snapshot.
        ts: u64,
        /// One entry per durable object.
        entries: Entries<'a>,
    },
}

impl WalRecord<'_> {
    /// The commit timestamp this record makes durable.
    pub(crate) fn ts(&self) -> u64 {
        match *self {
            WalRecord::Commit { ts, .. } | WalRecord::Checkpoint { ts, .. } => ts,
        }
    }
}

/// A record's `(object slab index, encoded state)` entries, bounds-checked
/// by [`decode_record`], so iterating them cannot fail.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Entries<'a>(&'a [u8]);

impl<'a> Iterator for Entries<'a> {
    type Item = (u32, &'a [u8]);

    fn next(&mut self) -> Option<(u32, &'a [u8])> {
        let mut c = Cur { b: self.0, i: 0 };
        let obj = c.u32()?;
        let len = c.u32()? as usize;
        let data = c.bytes(len)?;
        self.0 = &self.0[c.i..];
        Some((obj, data))
    }
}

/// Fill in a `u32` placeholder reserved at `at` once its value is known.
fn patch_u32(out: &mut [u8], at: usize, v: u32) {
    out[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

/// One object's `(obj: u32, len: u32, data)` — the unit of both records.
/// `state` appends the encoded object state; its length is patched in after.
pub(crate) fn put_entry(p: &mut Vec<u8>, obj: u32, state: impl FnOnce(&mut Vec<u8>)) {
    p.extend_from_slice(&obj.to_le_bytes());
    let len_at = p.len();
    p.extend_from_slice(&[0; 4]);
    state(p);
    let len = (p.len() - len_at - 4) as u32;
    patch_u32(p, len_at, len);
}

/// A record being built in place at the end of a buffer: a commit in its
/// committer's block, a checkpoint in the stage. Opening it writes room for
/// the frame header, the tag, `ts`, a commit's `top` and a placeholder for
/// the entry count; [`OpenRecord::entry`] appends entries and
/// [`OpenRecord::close`] patches the count, the length and the CRC.
pub(crate) struct OpenRecord {
    /// Offset of the frame header.
    at: usize,
    /// Offset of the entry count.
    n_at: usize,
    /// Entries appended so far.
    n: u32,
}

impl OpenRecord {
    fn open(out: &mut Vec<u8>, tag: u8, ts: u64, top: Option<u64>) -> OpenRecord {
        let at = out.len();
        out.extend_from_slice(&[0; 8]);
        out.push(tag);
        out.extend_from_slice(&ts.to_le_bytes());
        if let Some(top) = top {
            out.extend_from_slice(&top.to_le_bytes());
        }
        let n_at = out.len();
        out.extend_from_slice(&[0; 4]);
        OpenRecord { at, n_at, n: 0 }
    }

    /// Open the `Commit` record of (`ts`, `top`) at the end of `out`.
    pub(crate) fn commit(out: &mut Vec<u8>, ts: u64, top: u64) -> OpenRecord {
        // Room for the record of a few small objects, so a typical commit
        // grows its block once instead of by doubling from 8.
        out.reserve(96);
        OpenRecord::open(out, TAG_COMMIT, ts, Some(top))
    }

    /// Append one object's entry ([`put_entry`]) to the record.
    pub(crate) fn entry(&mut self, out: &mut Vec<u8>, obj: u32, state: impl FnOnce(&mut Vec<u8>)) {
        put_entry(out, obj, state);
        self.n += 1;
    }

    /// Finish the record, which must end `out`: patch in the entry count,
    /// the frame length and the CRC. Returns the entry count.
    pub(crate) fn close(self, out: &mut [u8]) -> u32 {
        patch_u32(out, self.n_at, self.n);
        let body = &out[self.at + 8..];
        let (len, crc) = (body.len() as u32, crc32(body));
        patch_u32(out, self.at, len);
        patch_u32(out, self.at + 4, crc);
        self.n
    }
}

/// Frame the `Checkpoint` record for the cut at `ts` at the end of `out`:
/// `entries` writes one [`put_entry`] per durable object straight into the
/// record and returns how many it wrote.
fn frame_checkpoint(out: &mut Vec<u8>, ts: u64, entries: impl FnOnce(&mut Vec<u8>) -> u32) {
    let mut rec = OpenRecord::open(out, TAG_CHECKPOINT, ts, None);
    rec.n = entries(out);
    rec.close(out);
}

/// Bounds-checked little-endian cursor over a record payload.
struct Cur<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Cur<'a> {
    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.bytes(4)?.try_into().ok()?))
    }
    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.bytes(8)?.try_into().ok()?))
    }
    fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        let s = self.b.get(self.i..self.i.checked_add(n)?)?;
        self.i += n;
        Some(s)
    }
}

/// Decode one CRC-verified payload in place; `None` marks an unknown tag or
/// a malformed body. The only decoder: [`Wal::open`] and recovery both read
/// through it (via [`walk_records`]).
fn decode_record(payload: &[u8]) -> Option<WalRecord<'_>> {
    let (&tag, rest) = payload.split_first()?;
    let mut c = Cur { b: rest, i: 0 };
    let ts = c.u64()?;
    let top = match tag {
        TAG_COMMIT => Some(c.u64()?),
        TAG_CHECKPOINT => None,
        _ => return None,
    };
    let n = c.u32()?;
    let entries = Entries(&rest[c.i..]);
    // Exactly `n` whole entries, and nothing after them.
    let mut check = entries;
    for _ in 0..n {
        check.next()?;
    }
    if !check.0.is_empty() {
        return None;
    }
    Some(match top {
        Some(top) => WalRecord::Commit { ts, top, entries },
        None => WalRecord::Checkpoint { ts, entries },
    })
}

/// A frame whose CRC holds but whose payload does not decode. No crash
/// leaves one — a torn frame fails its CRC — so it is a damaged log or one
/// this build does not read (tags 1–4 of older builds), and readers stop
/// with it instead of discarding it and everything after it as a torn tail.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct BadFrame {
    /// Byte offset of the frame header in its segment.
    pub(crate) offset: usize,
    /// The payload's tag byte.
    pub(crate) tag: u8,
}

impl fmt::Display for BadFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "checksummed frame at byte {} (tag {}) does not decode: \
             the log is damaged or from a build that wrote another format",
            self.offset, self.tag
        )
    }
}

/// Walk a segment's records in order without allocating, handing each to
/// `visit`, and return the byte length of the valid prefix. Past it lies a
/// torn tail for the caller to discard: a short header, a payload that runs
/// past the end, a CRC mismatch, or a zero length (the all-zero header of a
/// tail the filesystem extended but never wrote; no record is empty). A
/// checksummed frame that does not decode is a [`BadFrame`] instead.
pub(crate) fn walk_records<'a>(
    bytes: &'a [u8],
    mut visit: impl FnMut(WalRecord<'a>),
) -> Result<usize, BadFrame> {
    let mut i = 0usize;
    while let Some(header) = bytes.get(i..i + 8) {
        let len = u32::from_le_bytes(header[..4].try_into().expect("4-byte slice")) as usize;
        let crc = u32::from_le_bytes(header[4..].try_into().expect("4-byte slice"));
        let end = (i + 8).checked_add(len);
        let Some(payload) = end.and_then(|end| bytes.get(i + 8..end)) else {
            break;
        };
        if len == 0 || crc32(payload) != crc {
            break;
        }
        let tag = payload[0];
        visit(decode_record(payload).ok_or(BadFrame { offset: i, tag })?);
        i += 8 + len;
    }
    Ok(i)
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
    /// A duplicate of `file`'s descriptor, for fsyncs run with no mutex
    /// held ([`SyncClaim`]).
    sync_file: Arc<File>,
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

/// What the policy wants done after a commit record was appended; the caller
/// acts on it with [`Wal::sync_claimed`] and, inside its turnstile window,
/// a checkpoint.
#[derive(Debug)]
pub(crate) struct CommitDue {
    /// An fsync is due (`Always`, a full `Group` batch, or its deadline),
    /// and this commit claimed it.
    pub(crate) sync: Option<SyncClaim>,
    /// `checkpoint_every` commits have accumulated in this segment.
    pub(crate) checkpoint: bool,
    /// A `Group` batch opened with a deadline to keep: wake the sweeper.
    pub(crate) opened_batch: bool,
}

/// A batch written out to its segment whose `fdatasync` is its claimer's
/// to run ([`Wal::sync_claimed`]), with no mutex held.
#[derive(Debug)]
pub(crate) struct SyncClaim {
    file: Arc<File>,
    /// The segment and the logical length the flush makes durable.
    seg: u64,
    upto: u64,
    /// The highest commit timestamp in the batch.
    ts: u64,
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
    /// state a mid-write power cut leaves behind. A checksummed frame that
    /// does not decode ([`BadFrame`]) is no torn tail: the open fails with
    /// [`io::ErrorKind::InvalidData`] and leaves the file as it was.
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
        let valid = walk_records(&bytes, |rec| max_ts = max_ts.max(rec.ts())).map_err(|bad| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: {bad}", path.display()),
            )
        })? as u64;
        if valid < bytes.len() as u64 {
            file.set_len(valid)?;
        }
        file.seek(SeekFrom::Start(valid))?;
        let sync_file = Arc::new(file.try_clone()?);
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
                sync_file,
                seg,
                oldest_seg,
                // Headroom for the record that crosses the threshold, so
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

    /// The one append path: copy the framed `Commit` record of `ts` into the
    /// stage under the log mutex, and say what the policy now wants. `None`
    /// when nothing was appended (frozen log, or the 64 KiB flush failed).
    pub(crate) fn append(&self, record: &[u8], ts: u64) -> Option<CommitDue> {
        if self.frozen.load(Ordering::SeqCst) {
            return None;
        }
        let mut inner = self.inner.lock();
        inner.stage.extend_from_slice(record);
        inner.appended += record.len() as u64;
        inner.pending += 1;
        inner.commits_since_checkpoint += 1;
        inner.appended_commit_ts = ts;
        let mut opened_batch = false;
        let sync = match self.policy {
            FsyncPolicy::Always => true,
            FsyncPolicy::Group(n, d) => {
                let opens = inner.pending_since.is_none();
                let since = *inner.pending_since.get_or_insert_with(Instant::now);
                let sync = inner.pending >= n as u64 || since.elapsed() >= d;
                // `Duration::MAX` sets no deadline to keep.
                opened_batch = opens && !sync && since.checked_add(d).is_some();
                if opened_batch {
                    self.batch_open.store(true, Ordering::SeqCst);
                }
                sync
            }
        };
        let checkpoint =
            self.checkpoint_every > 0 && inner.commits_since_checkpoint >= self.checkpoint_every;
        let sync = if sync {
            Some(self.claim(&mut inner)?)
        } else {
            // Keep the stage bounded.
            if inner.stage.len() >= STAGE_FLUSH_BYTES && inner.flush().is_err() {
                self.freeze();
                return None;
            }
            None
        };
        Some(CommitDue {
            sync,
            checkpoint,
            opened_batch,
        })
    }

    /// Write the stage out and take the pending batch: its fsync is now
    /// the caller's ([`Wal::sync_claimed`]). `None` (and a frozen log) if
    /// the write fails.
    fn claim(&self, inner: &mut WalInner) -> Option<SyncClaim> {
        if inner.flush().is_err() {
            self.freeze();
            return None;
        }
        self.batch_max.fetch_max(inner.pending, Ordering::SeqCst);
        inner.pending = 0;
        inner.pending_since = None;
        self.batch_open.store(false, Ordering::SeqCst);
        Some(SyncClaim {
            file: inner.sync_file.clone(),
            seg: inner.seg,
            upto: inner.appended,
            ts: inner.appended_commit_ts,
        })
    }

    /// Run a claimed batch's `fdatasync`, with no mutex held, then promote
    /// it to durable — unless the log froze meanwhile: a crash teardown
    /// may have cut the batch. Returns whether a device flush ran.
    pub(crate) fn sync_claimed(&self, claim: SyncClaim) -> bool {
        if self.is_frozen() {
            return false;
        }
        if claim.file.sync_data().is_err() {
            self.freeze();
            return false;
        }
        let mut inner = self.inner.lock();
        if self.is_frozen() {
            return true;
        }
        if inner.seg == claim.seg {
            inner.synced = inner.synced.max(claim.upto);
        }
        self.durable_ts.fetch_max(claim.ts, Ordering::SeqCst);
        true
    }

    /// Flush the stage and fsync the live segment under the log mutex,
    /// promoting every appended commit to durable (a checkpoint's cut).
    /// Freezes the log and returns `false` on an io error, leaving
    /// `durable_ts` where it was.
    fn make_durable(&self, inner: &mut WalInner) -> bool {
        let Some(claim) = self.claim(inner) else {
            return false;
        };
        if inner.file.sync_data().is_err() {
            self.freeze();
            return false;
        }
        inner.synced = inner.appended;
        self.durable_ts.fetch_max(claim.ts, Ordering::SeqCst);
        true
    }

    /// Flush and fsync the live segment, promoting every appended commit to
    /// durable; the fsync runs with no mutex held. Returns whether a device
    /// flush actually ran.
    pub(crate) fn sync(&self) -> bool {
        let claim = {
            // Under the mutex: a sweeper's sync must not follow a teardown.
            let mut inner = self.inner.lock();
            if self.is_frozen() || (inner.synced == inner.appended && inner.pending == 0) {
                return false;
            }
            self.claim(&mut inner)
        };
        claim.is_some_and(|c| self.sync_claimed(c))
    }

    /// Whether a commit's fsync must run before the commit is visible and
    /// acknowledged (`Always`), not after its turnstile window.
    pub(crate) fn syncs_before_ack(&self) -> bool {
        self.policy == FsyncPolicy::Always
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
        let Some((file, sync_file)) = file.ok().and_then(|f| Some((f.try_clone().ok()?, f))) else {
            self.freeze();
            return false;
        };
        inner.file = file;
        inner.sync_file = Arc::new(sync_file);
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

    /// Frame header, tag, `ts`, `top` and the entry count: a `Commit`
    /// record with no entries.
    const COMMIT_HEAD: u64 = 4 + 4 + 1 + 8 + 8 + 4;
    /// One entry holding an `i64`: `obj`, `len`, 8 bytes of state.
    const I64_ENTRY: u64 = 4 + 4 + 8;

    fn tmp(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("ntx-wal-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    /// The framed `Commit` record of (`ts`, `top`) over `writes`.
    fn commit_record(ts: u64, top: u64, writes: &[(u32, &[u8])]) -> Vec<u8> {
        let mut out = Vec::new();
        let mut rec = OpenRecord::commit(&mut out, ts, top);
        for &(obj, data) in writes {
            rec.entry(&mut out, obj, |d| d.extend_from_slice(data));
        }
        rec.close(&mut out);
        out
    }

    /// Append the commit of (`ts`, `top`) over `writes`, as a committer does.
    fn append_commit(wal: &Wal, ts: u64, top: u64, writes: &[(u32, &[u8])]) -> Option<CommitDue> {
        wal.append(&commit_record(ts, top, writes), ts)
    }

    /// Frame an arbitrary payload, checksum and all.
    fn frame_of(payload: &[u8]) -> Vec<u8> {
        let mut out = (payload.len() as u32).to_le_bytes().to_vec();
        out.extend_from_slice(&crc32(payload).to_le_bytes());
        out.extend_from_slice(payload);
        out
    }

    /// The records of a segment's valid prefix, and the prefix's length.
    fn records(bytes: &[u8]) -> (Vec<WalRecord<'_>>, usize) {
        let mut recs = Vec::new();
        let valid = walk_records(bytes, |rec| recs.push(rec)).expect("no undecodable frame");
        (recs, valid)
    }

    fn live_segment(dir: &Path) -> PathBuf {
        list_segments(dir).unwrap().pop().unwrap().1
    }

    fn live_segment_len(dir: &Path) -> u64 {
        fs::metadata(live_segment(dir)).unwrap().len()
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The canonical IEEE CRC32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn records_round_trip() {
        let state = 42i64.to_le_bytes();
        let commit = commit_record(3, 7, &[(2, &state), (5, &[])]);
        assert_eq!(commit.len() as u64, COMMIT_HEAD + I64_ENTRY + 8);
        let mut checkpoint = Vec::new();
        frame_checkpoint(&mut checkpoint, 5, |p| {
            put_entry(p, 0, |d| d.extend_from_slice(&[1, 2, 3]));
            put_entry(p, 4, |_| {});
            2
        });
        let state_of = |frame: &[u8]| {
            let (recs, valid) = records(frame);
            assert_eq!((recs.len(), valid), (1, frame.len()));
            match recs[0] {
                WalRecord::Commit { ts, top, entries } => (ts, Some(top), entries.count()),
                WalRecord::Checkpoint { ts, entries } => (ts, None, entries.count()),
            }
        };
        assert_eq!(state_of(&commit), (3, Some(7), 2));
        assert_eq!(state_of(&checkpoint), (5, None, 2));
        let (recs, _) = records(&commit);
        let WalRecord::Commit { entries, .. } = recs[0] else {
            unreachable!("a commit decodes as one")
        };
        assert!(entries.eq([(2, &state[..]), (5, &[][..])]));
        let (recs, _) = records(&checkpoint);
        let WalRecord::Checkpoint { entries, .. } = recs[0] else {
            unreachable!("a checkpoint decodes as one")
        };
        assert!(entries.eq([(0, &[1, 2, 3][..]), (4, &[][..])]));
        for frame in [&commit, &checkpoint] {
            // Every checksummed truncation, and a byte too many, is refused
            // by name: no crash writes such a frame.
            let payload = &frame[8..];
            let mut long = payload.to_vec();
            long.push(0);
            for bad in (1..payload.len())
                .map(|cut| &payload[..cut])
                .chain([&long[..]])
            {
                assert_eq!(decode_record(bad), None);
                let err = walk_records(&frame_of(bad), |_| {}).unwrap_err();
                let tag = payload[0];
                assert_eq!(err, BadFrame { offset: 0, tag });
            }
        }
    }

    #[test]
    fn parse_stops_at_torn_tail() {
        let mut bytes = commit_record(1, 1, &[(0, &[7])]);
        bytes.extend(commit_record(2, 2, &[]));
        let valid = bytes.len();
        // A torn third record: header promises more bytes than exist.
        bytes.extend(commit_record(3, 3, &[]));
        bytes.truncate(valid + 5);
        let (recs, n) = records(&bytes);
        assert_eq!(n, valid);
        assert_eq!(recs.len(), 2);

        // A bit-flipped payload fails the CRC and also stops the parse.
        let mut flipped = commit_record(1, 1, &[]);
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        assert_eq!(records(&flipped), (vec![], 0));

        // So does a tail of zeros: its header checksums an empty payload,
        // and no record is empty.
        let mut zeroed = commit_record(1, 1, &[]);
        let valid = zeroed.len();
        zeroed.extend([0; 24]);
        assert_eq!(records(&zeroed).1, valid);
    }

    #[test]
    fn open_repairs_torn_tail_and_preserves_prefix() {
        let dir = tmp("repair");
        {
            let wal = Wal::open(&dir, FsyncPolicy::Always, 0).unwrap();
            let writes: [(u32, &[u8]); 2] = [(1, &6i64.to_le_bytes()), (0, &5i64.to_le_bytes())];
            assert!(append_commit(&wal, 1, 1, &writes).is_some());
            assert!(wal.sync());
            assert_eq!(wal.durable_ts(), 1);
        }
        // Tear 3 bytes into the file by hand.
        let seg = live_segment(&dir);
        let mut f = OpenOptions::new().append(true).open(&seg).unwrap();
        f.write_all(&[0xAB, 0xCD, 0xEF]).unwrap();
        drop(f);

        let wal = Wal::open(&dir, FsyncPolicy::Always, 0).unwrap();
        assert_eq!((wal.durable_ts(), wal.repaired_bytes()), (1, 3));
        // Appending after repair yields a cleanly parseable log.
        assert!(append_commit(&wal, 2, 2, &[]).is_some());
        drop(wal);
        let bytes = fs::read(&seg).unwrap();
        let (recs, n) = records(&bytes);
        assert_eq!(n, bytes.len());
        assert_eq!(recs.len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A checksummed frame that does not decode between two commits is no
    /// torn tail: the open fails naming the segment, the offset and the tag,
    /// and leaves every byte in place, the fsynced commit after it included.
    /// Tags 1–4 (the records of older logs) are refused the same way.
    #[test]
    fn open_refuses_a_checksummed_frame_that_does_not_decode() {
        for tag in [9u8, 1, 2, 3, 4] {
            let dir = tmp(&format!("bad-{tag}"));
            fs::create_dir_all(&dir).unwrap();
            let t1 = commit_record(1, 1, &[(0, &1i64.to_le_bytes())]);
            let mut bad = vec![tag];
            bad.extend_from_slice(&7u64.to_le_bytes());
            let mut bytes = t1.clone();
            bytes.extend(frame_of(&bad));
            bytes.extend(commit_record(2, 2, &[(0, &2i64.to_le_bytes())]));
            let seg = dir.join("wal-000000.log");
            fs::write(&seg, &bytes).unwrap();

            let err = Wal::open(&dir, FsyncPolicy::Always, 0)
                .err()
                .expect("refused");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            let msg = err.to_string();
            let at = format!("byte {} (tag {tag})", t1.len());
            assert!(msg.contains("wal-000000.log") && msg.contains(&at), "{msg}");
            assert_eq!(fs::read(&seg).unwrap(), bytes, "the file is untouched");
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn frozen_log_drops_appends_and_teardown_truncates() {
        let dir = tmp("freeze");
        let wal = Wal::open(&dir, NO_FSYNC, 0).unwrap();
        assert!(append_commit(&wal, 1, 1, &[]).is_some());
        assert!(wal.sync()); // manual sync still works with no policy fsync
        assert!(append_commit(&wal, 2, 2, &[]).is_some());
        let unsynced = wal.unsynced_bytes();
        assert!(unsynced > 0);
        wal.crash_teardown(unsynced - 3).unwrap();
        assert!(wal.is_frozen());
        assert!(append_commit(&wal, 3, 3, &[]).is_none());
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
        assert!(append_commit(&wal, 1, 1, &[]).unwrap().sync.is_none());
        assert!(append_commit(&wal, 2, 2, &[]).unwrap().sync.is_none());
        let claim = append_commit(&wal, 3, 3, &[]).unwrap().sync.unwrap();
        assert_eq!(wal.durable_ts(), 0, "claimed, not yet synced");
        assert!(wal.sync_claimed(claim));
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
            let state = (ts as i64).to_le_bytes();
            assert!(append_commit(&wal, ts, ts, &[(0, &state)]).is_some());
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
        let bytes = fs::read(&segs[0].1).unwrap();
        let (recs, _) = records(&bytes);
        assert!(matches!(recs[0], WalRecord::Checkpoint { ts: 4, .. }));
        drop(wal);
        let _ = fs::remove_dir_all(&dir);
    }

    const NEVER_SYNCS: FsyncPolicy = FsyncPolicy::Group(1000, Duration::from_secs(3600));

    #[test]
    fn group_commits_stay_staged_until_a_sync_is_due() {
        let dir = tmp("staged");
        let wal = Wal::open(&dir, NEVER_SYNCS, 0).unwrap();
        assert!(append_commit(&wal, 1, 1, &[]).is_some());
        assert!(wal.sync());
        let synced = live_segment_len(&dir);
        let mut framed = 0u64;
        for ts in 2..=6u64 {
            let writes: [(u32, &[u8]); 2] = [(0, &7i64.to_le_bytes()), (1, &8i64.to_le_bytes())];
            assert!(append_commit(&wal, ts, ts, &writes).is_some());
            framed += COMMIT_HEAD + 2 * I64_ENTRY;
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
            assert!(append_commit(&wal, ts, ts, &[]).unwrap().sync.is_none());
            assert!(ts < 10_000, "the stage never reached the file");
        }
        // Exactly the stage that crossed the threshold was written, as one
        // chunk ending on a record boundary; it is still unsynced.
        let written = live_segment_len(&dir);
        assert_eq!(written, ts * COMMIT_HEAD);
        let threshold = STAGE_FLUSH_BYTES as u64;
        assert!((threshold..threshold + COMMIT_HEAD).contains(&written));
        assert_eq!(wal.unsynced_bytes(), written);
        assert_eq!(wal.durable_ts(), 0);
        assert_eq!(wal.batch_max(), 0);
        drop(wal);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn teardown_cuts_the_logical_tail_at_any_offset() {
        // Two synced commits, then two staged ones, `COMMIT_HEAD` bytes each.
        const C: u64 = COMMIT_HEAD;
        for keep in [0u64, 7, C, C + 5, 2 * C, u64::MAX] {
            let dir = tmp("cut");
            let wal = Wal::open(&dir, NEVER_SYNCS, 0).unwrap();
            for ts in 1..=2u64 {
                assert!(append_commit(&wal, ts, ts, &[]).is_some());
            }
            assert!(wal.sync());
            for ts in 3..=4u64 {
                assert!(append_commit(&wal, ts, ts, &[]).is_some());
            }
            wal.crash_teardown(keep).unwrap();
            drop(wal);
            let kept = keep.min(2 * C);
            assert_eq!(live_segment_len(&dir), 2 * C + kept);
            let bytes = fs::read(live_segment(&dir)).unwrap();
            let (recs, valid) = records(&bytes);
            assert_eq!(valid as u64, 2 * C + kept / C * C);
            assert_eq!(recs.len() as u64, 2 + kept / C);
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn appends_after_a_freeze_never_surface() {
        let dir = tmp("postfreeze");
        let wal = Wal::open(&dir, NEVER_SYNCS, 0).unwrap();
        assert!(append_commit(&wal, 1, 1, &[]).is_some());
        wal.freeze();
        let at_freeze = wal.unsynced_bytes();
        assert!(append_commit(&wal, 2, 2, &[(0, &[1])]).is_none());
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
            assert!(append_commit(&wal, ts, ts, &[]).is_some());
        }
        let old = live_segment(&dir);
        assert_eq!(fs::metadata(&old).unwrap().len(), 0);
        assert!(wal.begin_checkpoint(3, |_| 0));
        // The old segment was completed and made durable before rotating.
        assert_eq!(fs::metadata(&old).unwrap().len(), 3 * COMMIT_HEAD);
        assert_eq!(wal.durable_ts(), 3);
        assert_eq!(wal.finish_checkpoint(), 1);
        assert!(append_commit(&wal, 4, 4, &[(0, &4i64.to_le_bytes())]).is_some());
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
            assert!(append_commit(&wal, 1, 1, &[]).is_some());
            // Died between the two halves: segment 0 is never deleted.
            assert!(wal.begin_checkpoint(1, |_| 0));
            wal.crash_teardown(u64::MAX).unwrap();
        }
        let wal = Wal::open(&dir, FsyncPolicy::Always, 0).unwrap();
        assert_eq!(list_segments(&dir).unwrap().len(), 2);
        assert!(append_commit(&wal, 2, 2, &[]).is_some());
        assert!(wal.begin_checkpoint(2, |_| 0));
        assert_eq!(wal.finish_checkpoint(), 2, "both superseded segments go");
        assert_eq!(list_segments(&dir).unwrap()[0].0, 2);
        drop(wal);
        let _ = fs::remove_dir_all(&dir);
    }
}
