//! Crash tolerance for the sharded streaming pipeline: per-shard checkpoints,
//! a sequenced changeset log, and restore-and-replay.
//!
//! PR 5 taught the staged pipeline to *detect* a dead shard worker
//! ([`crate::pipeline::EngineError::TruncatedRun`]); this module is what turns
//! detection into survival. The design is the classic checkpoint/replay
//! discipline of streaming engines, specialised to the invariants this
//! codebase already maintains:
//!
//! * **Checkpoints** ([`ShardCheckpoint`]): every [`RecoveryConfig::checkpoint_every`]
//!   applied batches, a shard's [`Lane`](crate::lane::Lane) serialises its
//!   mirror [`SocialNetwork`] — the same replayable per-shard state the
//!   rebalancer shrinks and rebuilds from (DESIGN.md §5.9) — plus its current
//!   candidate list, tagged with `applied_through` (the number
//!   of batches folded in, i.e. the next sequence number the shard expects).
//!   The codec is a deterministic little-endian binary format with a trailing
//!   checksum: the same state always encodes to the same bytes, and a
//!   truncated or corrupted snapshot fails with a named [`CheckpointError`]
//!   instead of a panic.
//! * **Changeset log** ([`ChangesetLog`]): the routed per-shard changesets are
//!   already sequenced (`datagen::stream::SequencedBatch` stamps them at
//!   ingest), so the log is a plain append-only queue, pruned below the latest
//!   checkpoint's `applied_through` — its length is bounded by the checkpoint
//!   interval plus the pipeline's queue lag.
//! * **Restore** ([`Lane::restore`](crate::lane::Lane::restore)): build a
//!   fresh evaluator from the checkpointed network via the run's
//!   [`ShardFactory`](crate::shard::ShardFactory) — evaluator state is a
//!   deterministic function of the sub-network, the same property the
//!   rebalancer's donor rebuild leans on — then replay the log through the
//!   ordinary [`Lane::step`](crate::lane::Lane::step) path. The replayed outcomes are byte-identical to the ones
//!   the dead worker would have produced, which is what lets the replacement
//!   rejoin the watermark merge with no visible gap
//!   (`tests/recovery_differential.rs` proves per-batch byte-identity under
//!   kills at arbitrary sequence numbers).
//!
//! The store ([`CheckpointStore`]) is an in-process stand-in for durable
//! storage: checkpoints cross it only as encoded bytes, so the codec is on the
//! real recovery path, not just under test.

use std::collections::{HashSet, VecDeque};
use std::fmt;
use std::path::PathBuf;
use std::time::Instant;

// Sync primitives come from the `crate::sync` facade so the store can be
// model-checked together with the pipeline (std re-exports in normal builds).
use crate::sync::{Arc, Mutex, MutexGuard};

use datagen::partition::Partitioner;
use datagen::{ChangeSet, Comment, Post, SocialNetwork, User};

use crate::shard::ShardRouter;
use crate::top_k::RankedEntry;

// ---------------------------------------------------------------------------
// Configuration and counters
// ---------------------------------------------------------------------------

/// Configuration of the pipeline's crash-recovery path
/// ([`crate::pipeline::PipelineConfig::recovery`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoveryConfig {
    /// A checkpoint is published after every `checkpoint_every` applied batches
    /// (clamped to ≥ 1). Smaller values bound the changeset log (and so replay
    /// time after a crash) tighter at the cost of serialising the mirror more
    /// often.
    pub checkpoint_every: u64,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            checkpoint_every: 8,
        }
    }
}

/// Recovery counters of one pipelined run, surfaced through
/// [`crate::pipeline::PipelineStats::recovery`] and the `stream_throughput`
/// report's `recovery` block.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RecoveryStats {
    /// Shard-worker deaths observed (kill injection or a caught panic).
    pub crashes: u64,
    /// Successful restores (one per crash when recovery is enabled).
    pub restores: u64,
    /// Changeset-log entries replayed across all restores.
    pub replayed_batches: u64,
    /// Checkpoints published (the initial per-shard checkpoints included).
    pub checkpoints: u64,
    /// Total encoded size of all published checkpoints, in bytes.
    pub checkpoint_bytes: u64,
    /// Worst restore latency (checkpoint load + rebuild + replay), in seconds.
    pub max_restore_secs: f64,
}

// ---------------------------------------------------------------------------
// Checkpoint codec
// ---------------------------------------------------------------------------

/// Why a checkpoint snapshot failed to decode. Every variant is a named,
/// recoverable error: feeding the codec truncated or corrupted bytes must
/// never panic — a recovery path that dies on bad input is not a recovery
/// path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// The buffer ends before the encoded fields do.
    Truncated {
        /// Bytes the decoder needed to make progress.
        needed: usize,
        /// Bytes actually available.
        len: usize,
    },
    /// The buffer does not start with the checkpoint magic.
    BadMagic,
    /// The format version is newer than this decoder understands.
    UnsupportedVersion(u32),
    /// The trailing checksum does not match the body — the snapshot was
    /// corrupted at rest or in transit.
    ChecksumMismatch,
    /// All fields decoded but bytes remain — the snapshot was produced by a
    /// different (longer) schema.
    TrailingBytes(usize),
    /// A user name is not valid UTF-8.
    InvalidUtf8,
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Truncated { needed, len } => {
                write!(f, "checkpoint truncated: needed {needed} bytes, have {len}")
            }
            CheckpointError::BadMagic => write!(f, "not a checkpoint (bad magic)"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint version {v}")
            }
            CheckpointError::ChecksumMismatch => write!(f, "checkpoint checksum mismatch"),
            CheckpointError::TrailingBytes(n) => {
                write!(f, "checkpoint has {n} trailing bytes after the last field")
            }
            CheckpointError::InvalidUtf8 => write!(f, "checkpoint user name is not valid UTF-8"),
        }
    }
}

impl std::error::Error for CheckpointError {}

const MAGIC: &[u8; 4] = b"TTCK";
const VERSION: u32 = 1;

/// FNV-1a over `bytes` — cheap, dependency-free corruption detection (not
/// authentication; a checkpoint store is trusted, disks and truncated writes
/// are not).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn put_u64(buf: &mut Vec<u8>, value: u64) {
    buf.extend_from_slice(&value.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, value: &str) {
    put_u64(buf, value.len() as u64);
    buf.extend_from_slice(value.as_bytes());
}

/// Bounds-checked little-endian reader over the checkpoint body.
struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self.at.checked_add(n).ok_or(CheckpointError::Truncated {
            needed: usize::MAX,
            len: self.buf.len(),
        })?;
        if end > self.buf.len() {
            return Err(CheckpointError::Truncated {
                needed: end,
                len: self.buf.len(),
            });
        }
        let slice = &self.buf[self.at..end]; // lint: allow(index) — end was bounds-checked against buf.len() just above
        self.at = end;
        Ok(slice)
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        let bytes = self.take(4)?;
        Ok(u32::from_le_bytes(bytes.try_into().expect("4 bytes"))) // lint: allow(panic) — take(4) returned exactly 4 bytes
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        let bytes = self.take(8)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes"))) // lint: allow(panic) — take(8) returned exactly 8 bytes
    }

    fn string(&mut self) -> Result<String, CheckpointError> {
        let len = self.u64()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CheckpointError::InvalidUtf8)
    }

    /// Element count of a variable-length section, with the allocation clamped
    /// by what the remaining bytes could possibly hold (`min_elem_bytes` per
    /// element) so a corrupted count cannot drive an absurd reservation.
    fn count(&mut self, min_elem_bytes: usize) -> Result<(usize, usize), CheckpointError> {
        let count = self.u64()? as usize;
        let cap = count.min((self.buf.len() - self.at) / min_elem_bytes.max(1));
        Ok((count, cap))
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }
}

/// One shard's recoverable state: the mirror sub-network its evaluator is a
/// deterministic function of, the candidate list at snapshot time (restore
/// verifies the rebuilt evaluator reproduces it), and the number of batches
/// folded in.
///
/// The encoding is canonical — the same value always encodes to the same
/// bytes — so `snapshot → restore → snapshot` round-trips to identical bytes,
/// which is how the codec tests pin down that a restore loses nothing.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardCheckpoint {
    /// Batches applied when the snapshot was taken; equivalently, the first
    /// sequence number *not* covered by this checkpoint (replay starts here).
    pub applied_through: u64,
    /// The shard's mirror sub-network: initial partition plus every routed
    /// changeset through `applied_through` batches.
    pub network: SocialNetwork,
    /// The shard's top-k candidates at snapshot time, best first.
    pub candidates: Vec<RankedEntry>,
}

impl ShardCheckpoint {
    /// Serialise to the canonical binary form (magic, version, fields,
    /// trailing FNV-1a checksum).
    pub fn encode(&self) -> Vec<u8> {
        Self::encode_parts(self.applied_through, &self.network, &self.candidates)
    }

    /// [`ShardCheckpoint::encode`] over borrowed parts — what
    /// [`Lane::checkpoint`](crate::lane::Lane::checkpoint) calls, so
    /// publishing never clones the mirror network.
    pub fn encode_parts(
        applied_through: u64,
        network: &SocialNetwork,
        candidates: &[RankedEntry],
    ) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        put_u64(&mut buf, applied_through);
        let n = network;
        put_u64(&mut buf, n.users.len() as u64);
        for user in &n.users {
            put_u64(&mut buf, user.id);
            put_str(&mut buf, &user.name);
        }
        put_u64(&mut buf, n.posts.len() as u64);
        for post in &n.posts {
            put_u64(&mut buf, post.id);
            put_u64(&mut buf, post.timestamp);
            put_u64(&mut buf, post.author);
        }
        put_u64(&mut buf, n.comments.len() as u64);
        for comment in &n.comments {
            put_u64(&mut buf, comment.id);
            put_u64(&mut buf, comment.timestamp);
            put_u64(&mut buf, comment.author);
            put_u64(&mut buf, comment.parent);
            put_u64(&mut buf, comment.root_post);
        }
        put_u64(&mut buf, n.friendships.len() as u64);
        for &(a, b) in &n.friendships {
            put_u64(&mut buf, a);
            put_u64(&mut buf, b);
        }
        put_u64(&mut buf, n.likes.len() as u64);
        for &(user, comment) in &n.likes {
            put_u64(&mut buf, user);
            put_u64(&mut buf, comment);
        }
        put_u64(&mut buf, candidates.len() as u64);
        for entry in candidates {
            put_u64(&mut buf, entry.score);
            put_u64(&mut buf, entry.timestamp);
            put_u64(&mut buf, entry.id);
        }
        let checksum = fnv1a(&buf);
        put_u64(&mut buf, checksum);
        buf
    }

    /// Verify a snapshot's seal and header — checksum, magic, version —
    /// without parsing its sections: a reader positioned at the first
    /// section, and the snapshot's `applied_through`.
    fn open(bytes: &[u8]) -> Result<(Reader<'_>, u64), CheckpointError> {
        // The checksum guards everything else, so verify it first: a corrupted
        // length field must not be trusted even transiently.
        let body_len = bytes
            .len()
            .checked_sub(8)
            .ok_or(CheckpointError::Truncated {
                needed: MAGIC.len() + 4 + 8,
                len: bytes.len(),
            })?;
        let (body, tail) = bytes.split_at(body_len);
        let stored = u64::from_le_bytes(tail.try_into().expect("8 bytes")); // lint: allow(panic) — split_at left exactly the 8-byte checksum in tail (length checked above)
        if fnv1a(body) != stored {
            // distinguish the common truncation case for operators: a body too
            // short to even hold the header is truncation, not bit rot
            if body.len() < MAGIC.len() + 4 + 8 {
                return Err(CheckpointError::Truncated {
                    needed: MAGIC.len() + 4 + 8 + 8,
                    len: bytes.len(),
                });
            }
            return Err(CheckpointError::ChecksumMismatch);
        }
        let mut r = Reader { buf: body, at: 0 };
        if r.take(MAGIC.len())? != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = r.u32()?;
        if version != VERSION {
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        let applied_through = r.u64()?;
        Ok((r, applied_through))
    }

    /// Decode a snapshot produced by [`ShardCheckpoint::encode`]. Never
    /// panics: truncation, corruption, and schema drift all surface as a
    /// named [`CheckpointError`].
    pub fn decode(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let (mut r, applied_through) = Self::open(bytes)?;
        let (count, cap) = r.count(16)?;
        let mut users = Vec::with_capacity(cap);
        for _ in 0..count {
            let id = r.u64()?;
            let name = r.string()?;
            users.push(User { id, name });
        }
        let (count, cap) = r.count(24)?;
        let mut posts = Vec::with_capacity(cap);
        for _ in 0..count {
            posts.push(Post {
                id: r.u64()?,
                timestamp: r.u64()?,
                author: r.u64()?,
            });
        }
        let (count, cap) = r.count(40)?;
        let mut comments = Vec::with_capacity(cap);
        for _ in 0..count {
            comments.push(Comment {
                id: r.u64()?,
                timestamp: r.u64()?,
                author: r.u64()?,
                parent: r.u64()?,
                root_post: r.u64()?,
            });
        }
        let (count, cap) = r.count(16)?;
        let mut friendships = Vec::with_capacity(cap);
        for _ in 0..count {
            friendships.push((r.u64()?, r.u64()?));
        }
        let (count, cap) = r.count(16)?;
        let mut likes = Vec::with_capacity(cap);
        for _ in 0..count {
            likes.push((r.u64()?, r.u64()?));
        }
        let (count, cap) = r.count(24)?;
        let mut candidates = Vec::with_capacity(cap);
        for _ in 0..count {
            candidates.push(RankedEntry {
                score: r.u64()?,
                timestamp: r.u64()?,
                id: r.u64()?,
            });
        }
        if r.remaining() != 0 {
            return Err(CheckpointError::TrailingBytes(r.remaining()));
        }
        Ok(ShardCheckpoint {
            applied_through,
            network: SocialNetwork {
                users,
                posts,
                comments,
                friendships,
                likes,
            },
            candidates,
        })
    }

    /// Re-partition this checkpoint over a new topology: one checkpoint per
    /// shard of `partitioner` (whose count must be `new_count`).
    ///
    /// This is the §5.6 donor-rebuild path applied wholesale — a fresh
    /// [`ShardRouter`] over the mirror network re-derives sticky ownership and
    /// the presence-tracked friendship replicas ("edge in shard iff both
    /// endpoints present"), so an evaluator built from each part is exact by
    /// the same argument as the initial load. The candidate lists are routed
    /// to their new owners, which keeps every entry exact but may leave a
    /// part's list short of its true top-k (a submission ranked below the
    /// donor's k can enter a narrower shard's top-k): callers that publish
    /// these checkpoints re-stamp the lists from the rebuilt evaluators.
    pub fn split(&self, partitioner: &dyn Partitioner, new_count: usize) -> Vec<ShardCheckpoint> {
        debug_assert_eq!(
            partitioner.shard_count(),
            new_count,
            "split must be driven by an already-resized policy"
        );
        let router = ShardRouter::with_partitioner(&self.network, partitioner.clone_box());
        let parts = router.split_initial(&self.network);
        let mut candidates: Vec<Vec<RankedEntry>> = vec![Vec::new(); new_count];
        for entry in &self.candidates {
            // Q2 ranks comments, Q1 ranks posts; either way the owner is the
            // shard of the submission's discussion tree.
            let owner = router
                .shard_of_comment(entry.id)
                .or_else(|| router.shard_of_post(entry.id));
            if let Some(list) = owner.and_then(|shard| candidates.get_mut(shard)) {
                list.push(*entry);
            }
        }
        parts
            .into_iter()
            .zip(candidates)
            .map(|(network, candidates)| ShardCheckpoint {
                applied_through: self.applied_through,
                network,
                candidates,
            })
            .collect()
    }

    /// Union the per-shard checkpoints of one drained topology back into a
    /// single checkpoint (the first half of a reshard: merge, then
    /// [`ShardCheckpoint::split`] under the new policy).
    ///
    /// Ownership is a partition, so posts, comments, and likes concatenate
    /// disjointly in shard order; the broadcast-replicated user registries and
    /// the friendship replicas are deduplicated (first occurrence wins, which
    /// keeps the merge deterministic). The checkpoints must all be drained to
    /// the same `applied_through`.
    ///
    /// **The merged friendship set under-approximates the live graph**: an
    /// edge whose endpoints were never co-present on any shard exists in no
    /// mirror, only in the live router's global adjacency. A caller resharding
    /// a live stream must overwrite `network.friendships` with
    /// [`ShardRouter::live_friendships`] before splitting, or later presence
    /// backfills would miss those edges (DESIGN.md §5.8).
    pub fn merge(checkpoints: Vec<Self>) -> Self {
        let applied_through = checkpoints
            .iter()
            .map(|c| c.applied_through)
            .max()
            .unwrap_or(0);
        debug_assert!(
            checkpoints
                .iter()
                .all(|c| c.applied_through == applied_through),
            "merged checkpoints must be drained to one applied_through"
        );
        let mut network = SocialNetwork::default();
        let mut candidates = Vec::new();
        let mut seen_users = HashSet::new();
        let mut seen_edges = HashSet::new();
        for checkpoint in checkpoints {
            for user in checkpoint.network.users {
                if seen_users.insert(user.id) {
                    network.users.push(user);
                }
            }
            network.posts.extend(checkpoint.network.posts);
            network.comments.extend(checkpoint.network.comments);
            for (a, b) in checkpoint.network.friendships {
                if seen_edges.insert((a.min(b), a.max(b))) {
                    network.friendships.push((a, b));
                }
            }
            network.likes.extend(checkpoint.network.likes);
            candidates.extend(checkpoint.candidates);
        }
        ShardCheckpoint {
            applied_through,
            network,
            candidates,
        }
    }
}

// ---------------------------------------------------------------------------
// Checkpoint store
// ---------------------------------------------------------------------------

/// The shared per-shard checkpoint store: an in-process stand-in for durable
/// storage. Workers publish encoded snapshots as they stream; the supervisor
/// loads the latest one when a worker dies. Snapshots cross the store only as
/// bytes, so every restore exercises the full codec.
///
/// Clones share state (`Arc`), which is how one store serves every stage
/// thread of a run.
#[derive(Clone, Debug)]
pub struct CheckpointStore {
    slots: Arc<Mutex<Vec<Option<StoredCheckpoint>>>>,
}

#[derive(Debug)]
struct StoredCheckpoint {
    applied_through: u64,
    bytes: Vec<u8>,
}

impl CheckpointStore {
    /// Create an empty store with one slot per shard.
    pub fn new(shards: usize) -> Self {
        CheckpointStore {
            slots: Arc::new(Mutex::new((0..shards).map(|_| None).collect())),
        }
    }

    /// Poisoning policy: **recover the guard**. A panicking worker (a crashed
    /// evaluator unwinding through `publish`) poisons this mutex, but every
    /// write is a whole-slot replacement guarded by the monotone
    /// `applied_through` check, so the data is never left half-updated — and
    /// propagating the poison would cascade one shard's crash into failed
    /// restores of *unrelated* shards, exactly when recovery is needed most.
    fn slots(&self) -> MutexGuard<'_, Vec<Option<StoredCheckpoint>>> {
        match self.slots.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

// ---------------------------------------------------------------------------
// Store trait and the file-backed store
// ---------------------------------------------------------------------------

/// What the pipeline requires of a checkpoint store. [`CheckpointStore`] is
/// the in-process implementation every test and default run uses;
/// [`FileCheckpointStore`] persists the same encoded snapshots to a directory
/// (`stream_throughput --checkpoint-dir`). Snapshots cross every
/// implementation as encoded bytes only, so the codec — checksum included —
/// is always on the restore path.
pub trait CheckpointStorage: Send + Sync + fmt::Debug {
    /// Publish `bytes` as `shard`'s snapshot covering `applied_through`
    /// batches. Implementations must be monotone per shard: a stale publish
    /// (older than what is already stored) is ignored.
    fn publish(&self, shard: usize, applied_through: u64, bytes: Vec<u8>);

    /// `applied_through` of `shard`'s latest verifiable snapshot, if any —
    /// what the changeset log prunes against.
    fn applied_through(&self, shard: usize) -> Option<u64>;

    /// Load `shard`'s latest snapshot as `(applied_through, bytes)`. A
    /// snapshot that fails verification must not be served (`None`, never a
    /// panic): the caller treats a missing snapshot as "rebuild from the
    /// initial partition and replay".
    fn load(&self, shard: usize) -> Option<(u64, Vec<u8>)>;

    /// Adjust to a new shard count during an elastic reshard. Shards `>=
    /// shards` will never be addressed again.
    fn resize(&self, shards: usize);
}

impl CheckpointStorage for CheckpointStore {
    /// Stale publishes come from a replay that re-crossed an old checkpoint
    /// boundary.
    fn publish(&self, shard: usize, applied_through: u64, bytes: Vec<u8>) {
        let mut slots = self.slots();
        let slot = &mut slots[shard]; // lint: allow(index) — shard ids come from the supervisor, which sized the store over 0..shards
        if slot
            .as_ref()
            .is_none_or(|stored| stored.applied_through <= applied_through)
        {
            *slot = Some(StoredCheckpoint {
                applied_through,
                bytes,
            });
        }
    }

    fn applied_through(&self, shard: usize) -> Option<u64> {
        let slots = self.slots();
        slots[shard].as_ref().map(|stored| stored.applied_through) // lint: allow(index) — shard < shards as above
    }

    fn load(&self, shard: usize) -> Option<(u64, Vec<u8>)> {
        let slots = self.slots();
        slots[shard] // lint: allow(index) — shard < shards as above
            .as_ref()
            .map(|stored| (stored.applied_through, stored.bytes.clone()))
    }

    /// Surviving slots keep their snapshots, which the monotone publish rule
    /// supersedes as the post-reshard checkpoints land.
    fn resize(&self, shards: usize) {
        let mut slots = self.slots();
        slots.resize_with(shards, || None);
    }
}

/// Durable checkpoints: one `shard-N.ttck` file per shard under a directory,
/// written via a temp-file rename so a crash mid-write never clobbers the
/// previous good snapshot, and **verified before parse** on every read — the
/// trailing FNV-1a checksum and the TTCK header are checked before any length
/// field is trusted, so a corrupted or truncated file degrades to "no
/// checkpoint" instead of a panic or a garbage restore.
#[derive(Clone, Debug)]
pub struct FileCheckpointStore {
    dir: PathBuf,
}

impl FileCheckpointStore {
    /// Open (creating if needed) a store rooted at `dir`. Snapshots already
    /// present — a previous run's — are served as-is, which is what makes the
    /// store durable across processes.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(FileCheckpointStore { dir })
    }

    fn path(&self, shard: usize) -> PathBuf {
        self.dir.join(format!("shard-{shard}.ttck"))
    }

    fn read_verified(&self, shard: usize) -> Option<(u64, Vec<u8>)> {
        let bytes = std::fs::read(self.path(shard)).ok()?;
        let (_, applied_through) = ShardCheckpoint::open(&bytes).ok()?;
        Some((applied_through, bytes))
    }
}

impl CheckpointStorage for FileCheckpointStore {
    fn publish(&self, shard: usize, applied_through: u64, bytes: Vec<u8>) {
        if CheckpointStorage::applied_through(self, shard)
            .is_some_and(|have| have > applied_through)
        {
            return; // monotone per shard, like the in-process store
        }
        let tmp = self.dir.join(format!("shard-{shard}.ttck.tmp"));
        if let Err(err) = std::fs::write(&tmp, &bytes) {
            eprintln!("checkpoint publish failed for shard {shard}: {err}");
            return;
        }
        if let Err(err) = std::fs::rename(&tmp, self.path(shard)) {
            eprintln!("checkpoint publish failed for shard {shard}: {err}");
        }
    }

    fn applied_through(&self, shard: usize) -> Option<u64> {
        self.read_verified(shard)
            .map(|(applied_through, _)| applied_through)
    }

    fn load(&self, shard: usize) -> Option<(u64, Vec<u8>)> {
        self.read_verified(shard)
    }

    fn resize(&self, shards: usize) {
        // drop the files of shards that no longer exist so a later process
        // restart cannot resurrect a pre-reshard topology
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let stale = name
                .to_str()
                .and_then(|name| name.strip_prefix("shard-"))
                .and_then(|rest| rest.strip_suffix(".ttck"))
                .and_then(|index| index.parse::<usize>().ok())
                .is_some_and(|index| index >= shards);
            if stale {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Changeset log
// ---------------------------------------------------------------------------

/// One routed changeset retained for replay, with the ingest-enqueue instant
/// the pipeline's end-to-end latency accounting needs when the outcome is
/// re-delivered by a replay.
#[derive(Clone, Debug)]
pub struct LogEntry {
    /// Ingest sequence number of the batch this changeset was routed from.
    pub seq: u64,
    /// When the originating batch entered the pipeline.
    pub enqueued: Instant,
    /// The shard's slice of the (coalesced) batch.
    pub ops: ChangeSet,
}

/// The append-only sequenced changeset log of one shard: every changeset
/// routed to the shard since its latest checkpoint. Bounded by the checkpoint
/// interval — entries below the latest snapshot's `applied_through` are pruned
/// as the stream advances.
#[derive(Debug, Default)]
pub struct ChangesetLog {
    entries: VecDeque<LogEntry>,
}

impl ChangesetLog {
    /// Append one routed changeset. Sequence numbers must be appended in
    /// order (the route stage is the single writer).
    pub fn append(&mut self, entry: LogEntry) {
        debug_assert!(
            self.entries.back().is_none_or(|last| last.seq < entry.seq),
            "changeset log appended out of order"
        );
        self.entries.push_back(entry);
    }

    /// Drop every entry covered by a checkpoint with the given
    /// `applied_through` (i.e. entries with `seq < applied_through`).
    pub fn prune_through(&mut self, applied_through: u64) {
        while self
            .entries
            .front()
            .is_some_and(|entry| entry.seq < applied_through)
        {
            self.entries.pop_front();
        }
    }

    /// The entries a restore must replay: sequence numbers in
    /// `[from, through]` (inclusive on both ends).
    pub fn replay_range(&self, from: u64, through: u64) -> impl Iterator<Item = &LogEntry> {
        self.entries
            .iter()
            .filter(move |entry| entry.seq >= from && entry.seq <= through)
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the log holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::ChangeOperation;

    fn sample_network() -> SocialNetwork {
        SocialNetwork {
            users: vec![
                User {
                    id: 1,
                    name: "alice".to_string(),
                },
                User {
                    id: 2,
                    name: "bób".to_string(), // non-ASCII survives the codec
                },
            ],
            posts: vec![Post {
                id: 10,
                timestamp: 100,
                author: 1,
            }],
            comments: vec![Comment {
                id: 20,
                timestamp: 101,
                author: 2,
                parent: 10,
                root_post: 10,
            }],
            friendships: vec![(1, 2)],
            likes: vec![(1, 20), (2, 20)],
        }
    }

    fn sample_checkpoint() -> ShardCheckpoint {
        ShardCheckpoint {
            applied_through: 7,
            network: sample_network(),
            candidates: vec![
                RankedEntry {
                    score: 42,
                    timestamp: 101,
                    id: 20,
                },
                RankedEntry {
                    score: 1,
                    timestamp: 100,
                    id: 10,
                },
            ],
        }
    }

    #[test]
    fn encode_decode_round_trips_to_identical_bytes() {
        let checkpoint = sample_checkpoint();
        let bytes = checkpoint.encode();
        let decoded = ShardCheckpoint::decode(&bytes).expect("well-formed snapshot");
        assert_eq!(decoded, checkpoint);
        assert_eq!(decoded.encode(), bytes, "the encoding is canonical");
    }

    #[test]
    fn empty_state_round_trips() {
        let checkpoint = ShardCheckpoint {
            applied_through: 0,
            network: SocialNetwork::default(),
            candidates: Vec::new(),
        };
        let bytes = checkpoint.encode();
        assert_eq!(
            ShardCheckpoint::decode(&bytes).expect("empty is well-formed"),
            checkpoint
        );
    }

    #[test]
    fn every_truncation_is_a_named_error_not_a_panic() {
        let bytes = sample_checkpoint().encode();
        for cut in 0..bytes.len() {
            let err = ShardCheckpoint::decode(&bytes[..cut])
                .expect_err("a strict prefix must never decode");
            assert!(
                matches!(
                    err,
                    CheckpointError::Truncated { .. } | CheckpointError::ChecksumMismatch
                ),
                "cut at {cut}: unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn corruption_is_detected_by_the_checksum() {
        let bytes = sample_checkpoint().encode();
        // flip one bit in a handful of positions across the buffer, the
        // trailing checksum itself included
        for at in [0, 4, 12, bytes.len() / 2, bytes.len() - 1] {
            let mut corrupt = bytes.clone();
            corrupt[at] ^= 0x01;
            let err = ShardCheckpoint::decode(&corrupt).expect_err("corruption must not decode");
            assert_eq!(err, CheckpointError::ChecksumMismatch, "byte {at}");
        }
    }

    #[test]
    fn bad_magic_and_versions_are_named() {
        let mut bytes = sample_checkpoint().encode();
        // valid checksum over a wrong magic: re-seal after tampering
        bytes[0] = b'X';
        let body_len = bytes.len() - 8;
        let checksum = fnv1a(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&checksum.to_le_bytes());
        assert_eq!(
            ShardCheckpoint::decode(&bytes),
            Err(CheckpointError::BadMagic)
        );

        let mut bytes = sample_checkpoint().encode();
        bytes[4] = 99; // version field
        let body_len = bytes.len() - 8;
        let checksum = fnv1a(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&checksum.to_le_bytes());
        assert_eq!(
            ShardCheckpoint::decode(&bytes),
            Err(CheckpointError::UnsupportedVersion(99))
        );
    }

    #[test]
    fn resealed_trailing_bytes_are_named() {
        // a schema-drifted (longer) snapshot with a *valid* checksum must be
        // rejected by the field parser, not silently half-read
        let mut bytes = sample_checkpoint().encode();
        bytes.truncate(bytes.len() - 8);
        bytes.extend_from_slice(&[0xAB, 0xCD, 0xEF]);
        let checksum = fnv1a(&bytes);
        bytes.extend_from_slice(&checksum.to_le_bytes());
        assert_eq!(
            ShardCheckpoint::decode(&bytes),
            Err(CheckpointError::TrailingBytes(3))
        );
    }

    #[test]
    fn errors_render_for_operators() {
        let rendered = CheckpointError::Truncated { needed: 10, len: 3 }.to_string();
        assert!(rendered.contains("truncated"), "{rendered}");
        assert!(CheckpointError::ChecksumMismatch
            .to_string()
            .contains("checksum"),);
    }

    #[test]
    fn store_is_monotone_per_shard() {
        let store = CheckpointStore::new(2);
        assert_eq!(store.applied_through(0), None);
        assert_eq!(store.load(1), None);
        store.publish(0, 8, vec![1]);
        store.publish(0, 16, vec![2]);
        assert_eq!(store.load(0), Some((16, vec![2])));
        // a stale publish (replay re-crossing an old boundary) is ignored
        store.publish(0, 8, vec![3]);
        assert_eq!(store.load(0), Some((16, vec![2])));
        // equal applied_through re-publishes (idempotent replay) are accepted
        store.publish(0, 16, vec![4]);
        assert_eq!(store.applied_through(0), Some(16));
        assert_eq!(store.applied_through(1), None, "slots are per shard");
        // clones share state
        let clone = store.clone();
        clone.publish(1, 4, vec![9]);
        assert_eq!(store.load(1), Some((4, vec![9])));
    }

    #[test]
    fn log_prunes_below_checkpoints_and_replays_ranges() {
        let mut log = ChangesetLog::default();
        assert!(log.is_empty());
        let now = Instant::now();
        for seq in 0..10u64 {
            log.append(LogEntry {
                seq,
                enqueued: now,
                ops: ChangeSet {
                    operations: vec![ChangeOperation::AddFriendship { a: seq, b: seq + 1 }],
                },
            });
        }
        assert_eq!(log.len(), 10);
        log.prune_through(4); // a checkpoint covering seqs 0..=3 landed
        assert_eq!(log.len(), 6);
        let replayed: Vec<u64> = log.replay_range(4, 7).map(|e| e.seq).collect();
        assert_eq!(replayed, vec![4, 5, 6, 7]);
        let tail: Vec<u64> = log.replay_range(8, 100).map(|e| e.seq).collect();
        assert_eq!(
            tail,
            vec![8, 9],
            "an open-ended tail replay is bounded by the log"
        );
        log.prune_through(100);
        assert!(log.is_empty());
    }

    #[test]
    fn default_recovery_config_bounds_the_log() {
        let config = RecoveryConfig::default();
        assert_eq!(config.checkpoint_every, 8);
        let stats = RecoveryStats::default();
        assert_eq!(stats.crashes, 0);
        assert_eq!(stats.max_restore_secs, 0.0);
    }

    #[test]
    fn a_poisoned_store_still_serves_every_shard() {
        // regression: the store used to `.expect("checkpoint store poisoned")`
        // on every lock, so one thread panicking while holding the slots lock
        // cascaded into failed restores of *unrelated* shards. The store's
        // monotone whole-slot publishes mean a poisoned lock never guards
        // half-written data — `slots()` recovers the guard via `into_inner`.
        use crate::sync::panic::{catch_unwind, AssertUnwindSafe};
        let store = CheckpointStore::new(2);
        store.publish(0, 8, vec![1, 2, 3]);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let _guard = store.slots();
            panic!("injected panic while holding the slots lock");
        }));
        assert!(result.is_err(), "the injected panic must propagate");
        // publishes and restores of a *different* shard keep working...
        store.publish(1, 4, vec![9]);
        assert_eq!(store.load(1), Some((4, vec![9])));
        // ...and the shard published before the poison is still intact
        assert_eq!(store.load(0), Some((8, vec![1, 2, 3])));
        store.publish(0, 16, vec![4]);
        assert_eq!(store.applied_through(0), Some(16));
    }

    #[test]
    fn store_resize_drops_vanished_shards_and_opens_new_slots() {
        let store = CheckpointStore::new(4);
        store.publish(0, 8, vec![1]);
        store.publish(3, 8, vec![3]);
        store.resize(2);
        assert_eq!(store.load(0), Some((8, vec![1])), "surviving slot kept");
        store.resize(4);
        assert_eq!(store.load(3), None, "re-grown slot starts empty");
        store.publish(3, 2, vec![9]);
        assert_eq!(store.load(3), Some((2, vec![9])));
    }

    fn edge_set(network: &SocialNetwork) -> HashSet<(u64, u64)> {
        network
            .friendships
            .iter()
            .map(|&(a, b)| (a.min(b), a.max(b)))
            .collect()
    }

    #[test]
    fn split_re_partitions_and_merge_reassembles() {
        use datagen::{generate_workload, GeneratorConfig};
        let network = generate_workload(&GeneratorConfig::tiny(19)).initial;
        let candidates: Vec<RankedEntry> = network
            .comments
            .iter()
            .take(4)
            .map(|c| RankedEntry {
                score: 5,
                timestamp: c.timestamp,
                id: c.id,
            })
            .collect();
        let whole = ShardCheckpoint {
            applied_through: 12,
            network: network.clone(),
            candidates: candidates.clone(),
        };

        use datagen::partition::ModuloPartitioner;
        let policy = ModuloPartitioner::new(3);
        let parts = whole.split(&policy, 3);
        assert_eq!(parts.len(), 3);
        // the split is the initial-load partition: payload partitioned,
        // registries replicated, every part at the same applied_through
        assert_eq!(
            parts.iter().map(|p| p.network.posts.len()).sum::<usize>(),
            network.posts.len()
        );
        assert_eq!(
            parts.iter().map(|p| p.network.likes.len()).sum::<usize>(),
            network.likes.len()
        );
        for part in &parts {
            assert_eq!(part.applied_through, 12);
            assert_eq!(part.network.users.len(), network.users.len());
            assert!(edge_set(&part.network).is_subset(&edge_set(&network)));
        }
        // every candidate landed on exactly one part
        let routed: usize = parts.iter().map(|p| p.candidates.len()).sum();
        assert_eq!(routed, candidates.len());

        // merge(split(x)) holds the same payload as x, up to concatenation
        // order and the replica under-approximation of friendships
        let merged = ShardCheckpoint::merge(parts);
        assert_eq!(merged.applied_through, 12);
        assert_eq!(merged.network.posts.len(), network.posts.len());
        assert_eq!(merged.network.comments.len(), network.comments.len());
        assert_eq!(merged.network.likes.len(), network.likes.len());
        assert_eq!(merged.network.users.len(), network.users.len());
        assert!(edge_set(&merged.network).is_subset(&edge_set(&network)));
        let merged_candidates: HashSet<u64> = merged.candidates.iter().map(|c| c.id).collect();
        let original: HashSet<u64> = candidates.iter().map(|c| c.id).collect();
        assert_eq!(merged_candidates, original);
    }

    #[test]
    fn merge_of_nothing_is_the_empty_checkpoint() {
        let merged = ShardCheckpoint::merge(Vec::new());
        assert_eq!(merged.applied_through, 0);
        assert_eq!(merged.network, SocialNetwork::default());
        assert!(merged.candidates.is_empty());
    }

    fn temp_store_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ttck-store-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn file_store_round_trips_through_a_directory() {
        let dir = temp_store_dir("roundtrip");
        let store = FileCheckpointStore::open(&dir).expect("temp dir is writable");
        let checkpoint = sample_checkpoint();
        let bytes = checkpoint.encode();
        CheckpointStorage::publish(&store, 0, checkpoint.applied_through, bytes.clone());
        assert_eq!(
            CheckpointStorage::applied_through(&store, 0),
            Some(checkpoint.applied_through)
        );
        let (applied_through, loaded) =
            CheckpointStorage::load(&store, 0).expect("published snapshot loads");
        assert_eq!(applied_through, checkpoint.applied_through);
        assert_eq!(
            ShardCheckpoint::decode(&loaded).expect("loaded bytes decode"),
            checkpoint
        );
        // stale publishes are ignored, like the in-process store
        CheckpointStorage::publish(&store, 0, 1, vec![0; 16]);
        assert_eq!(CheckpointStorage::load(&store, 0), Some((7, bytes.clone())));
        // durability: a second store over the same directory serves the snapshot
        let reopened = FileCheckpointStore::open(&dir).expect("reopen");
        assert_eq!(CheckpointStorage::load(&reopened, 0), Some((7, bytes)));
        assert_eq!(CheckpointStorage::load(&reopened, 1), None, "per shard");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_store_refuses_corrupted_and_truncated_snapshots() {
        let dir = temp_store_dir("corruption");
        let store = FileCheckpointStore::open(&dir).expect("temp dir is writable");
        let bytes = sample_checkpoint().encode();
        CheckpointStorage::publish(&store, 0, 7, bytes.clone());
        let path = dir.join("shard-0.ttck");

        // flip one byte mid-file: verify-before-parse must reject it
        let mut corrupt = bytes.clone();
        corrupt[bytes.len() / 2] ^= 0x40;
        std::fs::write(&path, &corrupt).expect("rewrite");
        assert_eq!(CheckpointStorage::load(&store, 0), None);
        assert_eq!(CheckpointStorage::applied_through(&store, 0), None);

        // truncate: same refusal, and a later good publish recovers the slot
        std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("rewrite");
        assert_eq!(CheckpointStorage::load(&store, 0), None);
        CheckpointStorage::publish(&store, 0, 7, bytes.clone());
        assert_eq!(CheckpointStorage::load(&store, 0), Some((7, bytes)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_store_resize_drops_stale_shard_files() {
        let dir = temp_store_dir("resize");
        let store = FileCheckpointStore::open(&dir).expect("temp dir is writable");
        let bytes = sample_checkpoint().encode();
        for shard in 0..4 {
            CheckpointStorage::publish(&store, shard, 7, bytes.clone());
        }
        CheckpointStorage::resize(&store, 2);
        assert!(CheckpointStorage::load(&store, 0).is_some());
        assert!(CheckpointStorage::load(&store, 1).is_some());
        assert_eq!(CheckpointStorage::load(&store, 2), None);
        assert_eq!(CheckpointStorage::load(&store, 3), None);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
