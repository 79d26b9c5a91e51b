//! Crash-safe persistence for the online engine, and the write-ahead log
//! it shares with the fleet's membership journal.
//!
//! `symbiod` must survive a SIGKILL without forgetting its vote windows
//! or hysteresis state: a restarted daemon that re-elects from scratch
//! would thrash mappings exactly when the machine is least stable. This
//! module gives the engine an **append-only journal** of explicit state
//! transitions plus periodic full-state **snapshots** (checkpoints), so
//! recovery is a bounded replay: find the last checkpoint, apply the tail.
//!
//! ## Frame format
//!
//! One record per line, each line independently checksummed:
//!
//! ```text
//! <crc32-lower-hex(8)> <externally-tagged JSON record>\n
//! ```
//!
//! The CRC is over the JSON bytes only. Replay stops at the first frame
//! that fails the checksum, fails to parse, or is missing — a torn write
//! from a crash mid-append therefore loses at most the unacknowledged
//! tail, never corrupts the prefix. A final line whose checksum passes
//! but whose newline is missing is accepted (the crash landed between
//! the payload and the terminator). [`Wal::open`] truncates the file back
//! to this valid prefix before appending anything new, so a recovered
//! process's fresh frames are never stranded behind garbage.
//!
//! [`Wal`] is that framing, replay and repair, generic over the
//! [`Record`] type: [`JournalWriter`] is a `Wal<JournalRecord>` plus the
//! checkpoint schedule, and `symbio-fleet`'s membership journal is a
//! `Wal` of membership transitions, so both recover from a crash the
//! same way.
//!
//! ## Cost per decision
//!
//! A checkpoint is written once at least `snapshot_every` records **and**
//! at least as many bytes as the previous checkpoint took have been
//! appended since it. The journal therefore grows by at most twice the
//! transition records alone, and the tail after the last checkpoint is at
//! most one checkpoint long, however many groups the engine holds: the
//! cadence follows the state size instead of being tuned against it.
//! Recovery ([`Recovery::load`], [`Wal::open`]) checks every line's CRC
//! but JSON-decodes only `Meta` lines and the frames from the last
//! checkpoint on. [`Wal::append`] only stages a frame; [`Wal::commit`]
//! writes everything staged with one `write_all`, so a caller may
//! acknowledge a whole batch of decisions behind a single write
//! (write-ahead-of-ack holds per commit).
//!
//! ## Why transitions, not snapshots of inputs
//!
//! Records describe what the engine *did* (`cleared`, `dropped`,
//! `committed`, `Trip`, `Recovered`), not what it would decide again.
//! Replay applies them with [`EngineState::apply`] without invoking the
//! allocation policy, so a recovered daemon reaches the exact pre-crash
//! state even if its configuration (hysteresis, drift threshold) changed
//! between runs — the journal is a log of history, not a program to
//! re-execute.

use crate::ring::PartitionKey;
use serde::{Deserialize, Serialize};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::marker::PhantomData;
use std::ops::RangeInclusive;
use std::path::{Path, PathBuf};
use symbio_machine::Mapping;

/// On-disk format version this build writes, stamped in a
/// [`JournalRecord::Meta`] line. Version 2 added [`JournalRecord::Group`];
/// version 1 journals replay unchanged.
pub const JOURNAL_VERSION: u32 = 2;

/// Lookup tables for [`crc32`], slicing-by-8: `CRC_TABLES[k][b]` is the
/// CRC register after byte `b` and then `k` zero bytes, so eight input
/// bytes fold into the running value with eight independent lookups.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// IEEE CRC-32 (reflected, polynomial `0xEDB88320`) — the checksum
/// guarding each journal frame. Table-driven: the daemon checksums every
/// acknowledged decision and every checkpoint, and recovery checksums
/// every line of the file.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][(lo >> 8 & 0xFF) as usize]
            ^ t[5][(lo >> 16 & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][(hi >> 8 & 0xFF) as usize]
            ^ t[1][(hi >> 16 & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// One retained vote in a serialized window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpochRecord {
    /// Stream sequence number of the snapshot that produced the vote.
    pub seq: u64,
    /// The allocator's proposed mapping for that epoch.
    pub vote: Mapping,
    /// Core count of the machine the vote was computed for (needed to
    /// re-derive the partition key on restore).
    pub cores: usize,
    /// Mean thread occupancy of the snapshot (phase-change signal).
    pub occupancy: f64,
}

impl EpochRecord {
    /// The partition identity this vote tallies under.
    pub fn key(&self) -> PartitionKey {
        self.vote.partition_key(self.cores)
    }
}

/// Serialized per-group engine state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct GroupRecord {
    /// Group name (the stream routing key).
    pub name: String,
    /// Retained vote window, oldest first.
    pub window: Vec<EpochRecord>,
    /// The committed mapping, if warmup completed.
    pub current: Option<Mapping>,
    /// Epochs acknowledged for this group.
    pub epochs: u64,
    /// Remaps committed for this group.
    pub remaps: u64,
    /// Highest acknowledged sequence number (duplicate-suppression
    /// watermark: a retried request at or below this is answered
    /// idempotently, never re-tallied).
    pub last_seq: Option<u64>,
    /// Outstanding invalid-snapshot strikes (decays one per valid epoch).
    pub strikes: u32,
    /// Whether the group is quarantined (serving `current` as last-good,
    /// tallying nothing).
    pub quarantined: bool,
    /// Consecutive clean epochs observed while quarantined.
    pub clean: u32,
}

/// The engine's full recoverable state: every group, sorted by name so
/// serialization is deterministic and snapshots diff cleanly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct EngineState {
    /// Per-group records, name order.
    pub groups: Vec<GroupRecord>,
}

/// One journal frame: an explicit state transition the engine performed,
/// or a full-state snapshot bounding replay length.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JournalRecord {
    /// Leading header: format version of everything that follows.
    Meta {
        /// Must be in `1..=`[`JOURNAL_VERSION`] for this build to replay
        /// it.
        version: u32,
    },
    /// A valid snapshot was ingested and tallied.
    Epoch {
        /// Group the snapshot belonged to.
        group: String,
        /// Acknowledged sequence number.
        seq: u64,
        /// The allocator's vote this epoch.
        vote: Mapping,
        /// Core count the vote was computed for.
        cores: usize,
        /// Mean thread occupancy of the snapshot.
        occupancy: f64,
        /// The vote window was cleared *before* this push (occupancy
        /// drift or population change).
        cleared: bool,
        /// The committed mapping was dropped before this push (thread
        /// population changed; it could no longer be applied).
        dropped: bool,
        /// A mapping adopted this epoch (`Initial` or `Remap`), if any.
        committed: Option<Mapping>,
    },
    /// An invalid snapshot arrived (strike, or clean-count reset while
    /// quarantined).
    Strike {
        /// Offending group.
        group: String,
    },
    /// The strike threshold tripped the group into quarantine.
    Trip {
        /// Quarantined group.
        group: String,
    },
    /// A valid epoch was observed while quarantined (served last-good,
    /// not tallied).
    Clean {
        /// Quarantined group.
        group: String,
        /// Acknowledged sequence number.
        seq: u64,
    },
    /// The group completed its clean streak and left quarantine.
    Recovered {
        /// Recovered group.
        group: String,
    },
    /// Periodic full-state checkpoint: replay restarts from the latest
    /// one of these, bounding recovery time and journal relevance.
    Snapshot(EngineState),
    /// One group's state was installed from a fleet handoff: this group's
    /// state := the record, replacing whatever was held under the name.
    Group(GroupRecord),
}

impl EngineState {
    fn group_mut(&mut self, name: &str) -> &mut GroupRecord {
        match self.position(name) {
            Ok(i) => &mut self.groups[i],
            Err(i) => {
                self.groups.insert(
                    i,
                    GroupRecord {
                        name: name.to_string(),
                        ..GroupRecord::default()
                    },
                );
                &mut self.groups[i]
            }
        }
    }

    /// Where `name` sits, or belongs, in the name-sorted group vector
    /// (the order makes equal states serialize identically).
    fn position(&self, name: &str) -> Result<usize, usize> {
        self.groups.binary_search_by(|g| g.name.as_str().cmp(name))
    }

    /// Apply one journal record, mirroring exactly the mutation the live
    /// engine performed when it wrote the record. `window` caps retained
    /// votes per group (the engine's ring capacity).
    pub fn apply(&mut self, record: &JournalRecord, window: usize) {
        match record {
            JournalRecord::Meta { .. } => {}
            JournalRecord::Snapshot(state) => *self = state.clone(),
            JournalRecord::Group(record) => {
                let mut record = record.clone();
                // The importing engine's ring kept only the newest votes.
                let excess = record.window.len().saturating_sub(window.max(1));
                record.window.drain(..excess);
                match self.position(&record.name) {
                    Ok(i) => self.groups[i] = record,
                    Err(i) => self.groups.insert(i, record),
                }
            }
            JournalRecord::Epoch {
                group,
                seq,
                vote,
                cores,
                occupancy,
                cleared,
                dropped,
                committed,
            } => {
                let g = self.group_mut(group);
                if *dropped {
                    g.current = None;
                }
                if *cleared {
                    g.window.clear();
                }
                g.window.push(EpochRecord {
                    seq: *seq,
                    vote: vote.clone(),
                    cores: *cores,
                    occupancy: *occupancy,
                });
                if g.window.len() > window.max(1) {
                    g.window.remove(0);
                }
                g.epochs += 1;
                g.last_seq = Some(*seq);
                g.strikes = g.strikes.saturating_sub(1);
                if let Some(mapping) = committed {
                    if g.current.is_some() {
                        g.remaps += 1;
                    }
                    g.current = Some(mapping.clone());
                }
            }
            JournalRecord::Strike { group } => {
                let g = self.group_mut(group);
                if g.quarantined {
                    g.clean = 0;
                } else {
                    g.strikes += 1;
                }
            }
            JournalRecord::Trip { group } => {
                let g = self.group_mut(group);
                g.strikes = 0;
                g.window.clear();
                g.quarantined = true;
                g.clean = 0;
            }
            JournalRecord::Clean { group, seq } => {
                let g = self.group_mut(group);
                g.clean += 1;
                g.epochs += 1;
                g.last_seq = Some(*seq);
            }
            JournalRecord::Recovered { group } => {
                let g = self.group_mut(group);
                g.quarantined = false;
                g.clean = 0;
            }
        }
    }
}

/// A record type a [`Wal`] frames, replays and repairs. It must have a
/// `Meta { version: u32 }` variant: the log writes that line itself, with
/// the same bytes whatever the record type.
pub trait Record: Serialize + Deserialize {
    /// Format versions this build replays; a log is stamped with the
    /// highest.
    const VERSIONS: RangeInclusive<u32>;
    /// JSON prefix of the full-state checkpoint variant, if the type has
    /// one: replay decodes from the last checkpoint on.
    const CHECKPOINT: Option<&'static str>;
    /// Fault-injection site checked by every [`Wal::commit`] that writes.
    const FAULT_SITE: &'static str;
}

/// The `Meta` line as every [`Record`] type spells it.
#[derive(Serialize, Deserialize)]
enum Header {
    Meta { version: u32 },
}

impl Record for JournalRecord {
    const VERSIONS: RangeInclusive<u32> = 1..=JOURNAL_VERSION;
    const CHECKPOINT: Option<&'static str> = Some("{\"Snapshot\"");
    const FAULT_SITE: &'static str = "journal_write";
}

/// Outcome of replaying a log: the state its records fold into (by
/// default the engine's).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Recovery<S = EngineState> {
    /// The reconstructed state.
    pub state: S,
    /// Intact frames in the replayed prefix.
    pub frames: u64,
    /// Bytes of valid journal consumed.
    pub bytes: u64,
    /// Whether replay stopped early at a torn or corrupt frame (the
    /// crash tail; everything before it was recovered).
    pub truncated: bool,
}

impl Recovery {
    /// An empty recovery (no journal on disk: fresh start).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Replay the journal at `path` into an [`EngineState`], tolerating
    /// a torn final frame. `window` is the engine's ring capacity (vote
    /// retention bound during replay). A missing file is a fresh start,
    /// not an error; an unsupported format version is.
    pub fn load(path: &Path, window: usize) -> io::Result<Recovery> {
        match std::fs::read(path) {
            Ok(data) => Ok(replay(&data, engine_fold(window))?.recovery),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Recovery::empty()),
            Err(e) => Err(e),
        }
    }
}

/// How engine replay folds a record: [`EngineState::apply`] with the
/// engine's ring capacity.
fn engine_fold(window: usize) -> impl FnMut(&mut EngineState, &JournalRecord) {
    move |state, record| state.apply(record, window)
}

/// Append `record` to `buf` as one checksummed line (with its trailing
/// `\n`); returns the line's byte length.
fn push_frame(buf: &mut Vec<u8>, record: &impl Serialize) -> io::Result<u64> {
    let json = serde_json::to_string(record)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let start = buf.len();
    write!(buf, "{:08x} ", crc32(json.as_bytes()))?;
    buf.extend_from_slice(json.as_bytes());
    buf.push(b'\n');
    Ok((buf.len() - start) as u64)
}

/// The JSON payload of one journal line (no trailing `\n`). `None` on
/// bad UTF-8, a malformed header or a checksum mismatch.
fn checked_json(line: &[u8]) -> Option<&str> {
    let text = std::str::from_utf8(line).ok()?;
    let (crc_hex, json) = text.split_once(' ')?;
    if crc_hex.len() != 8 {
        return None;
    }
    let want = u32::from_str_radix(crc_hex, 16).ok()?;
    (crc32(json.as_bytes()) == want).then_some(json)
}

/// Decode one journal line (no trailing `\n`). `None` on any fault:
/// bad UTF-8, malformed header, checksum mismatch, unparsable JSON.
pub fn decode_frame<T: Deserialize>(line: &[u8]) -> Option<T> {
    serde_json::from_str(checked_json(line)?).ok()
}

/// The lines of `data` as `(offset, line without its newline, whether the
/// newline was there)`.
fn lines(data: &[u8]) -> impl Iterator<Item = (usize, &[u8], bool)> {
    let mut pos = 0usize;
    std::iter::from_fn(move || {
        let start = pos;
        let rest = data.get(start..).filter(|rest| !rest.is_empty())?;
        Some(match rest.iter().position(|&b| b == b'\n') {
            Some(i) => {
                pos = start + i + 1;
                (start, &rest[..i], true)
            }
            None => {
                pos = data.len();
                (start, rest, false)
            }
        })
    })
}

/// What one pass over a log's bytes establishes: the replayed state,
/// and where and how a writer resumes appending.
struct Replay<S> {
    recovery: Recovery<S>,
    /// Length of the prefix replay reached. Everything past it is
    /// unreachable by any later replay and safe to truncate.
    valid: usize,
    /// The prefix's final frame is missing its terminating newline.
    needs_newline: bool,
    /// Version of the last `Meta` line in the prefix.
    version: Option<u32>,
    /// Byte length of the last checkpoint line in the prefix (0: none).
    checkpoint_bytes: u64,
}

/// Replay raw log bytes, stopping at the first frame that fails its
/// checksum or does not decode, folding each record into a fresh `S`.
/// Every line is checksummed, but only `Meta` lines and the frames from
/// the last checkpoint on are JSON-decoded: a checkpoint replaces the
/// state, so what precedes it cannot change the outcome.
fn replay<R: Record, S: Default>(
    data: &[u8],
    mut fold: impl FnMut(&mut S, &R),
) -> io::Result<Replay<S>> {
    let mut end = data.len();
    let mut truncated = false;
    loop {
        // Checksum pass: the valid prefix and its last checkpoint line.
        let (mut valid, mut needs_newline, mut version) = (0usize, false, None);
        let (mut frames, mut bytes) = (0u64, 0u64);
        // Where decoding starts, the frame totals up to there, and the
        // checkpoint line's length.
        let (mut tail, mut skipped, mut checkpoint_bytes) = (0usize, (0u64, 0u64), 0u64);
        for (at, line, terminated) in lines(&data[..end]) {
            if line.is_empty() {
                valid = at + 1;
                continue;
            }
            let Some(json) = checked_json(line) else {
                truncated = true;
                break;
            };
            if json.starts_with("{\"Meta\"") {
                let Ok(Header::Meta { version: v }) = serde_json::from_str(json) else {
                    truncated = true;
                    break;
                };
                if !R::VERSIONS.contains(&v) {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "journal format version {v} (this build replays {:?})",
                            R::VERSIONS
                        ),
                    ));
                }
                version = Some(v);
            } else if R::CHECKPOINT.is_some_and(|prefix| json.starts_with(prefix)) {
                tail = at;
                skipped = (frames, bytes);
                checkpoint_bytes = line.len() as u64 + 1;
            }
            frames += 1;
            bytes += (line.len() + usize::from(terminated)) as u64;
            valid = at + line.len() + usize::from(terminated);
            needs_newline = !terminated;
        }

        // Decode pass, from the last checkpoint (or the start) on.
        let mut state = S::default();
        (frames, bytes) = skipped;
        let mut undecodable = None;
        for (at, line, terminated) in lines(&data[tail..valid]) {
            if line.is_empty() {
                continue;
            }
            let Some(record) = decode_frame(line) else {
                undecodable = Some(tail + at);
                break;
            };
            fold(&mut state, &record);
            frames += 1;
            bytes += (line.len() + usize::from(terminated)) as u64;
        }
        match undecodable {
            // A frame with a good checksum that is not a record: replay
            // ends there, exactly as at a torn frame. (Never written by
            // this module; re-scanning the shorter prefix keeps the
            // checkpoint search honest if the frame was the checkpoint.)
            Some(at) => {
                end = at;
                truncated = true;
            }
            None => {
                return Ok(Replay {
                    recovery: Recovery {
                        state,
                        frames,
                        bytes,
                        truncated,
                    },
                    valid,
                    needs_newline,
                    version,
                    checkpoint_bytes,
                })
            }
        }
    }
}

/// An append-only log of checksummed `R` frames with group commit.
///
/// [`Wal::append`] stages frames in memory and [`Wal::commit`] writes
/// them; a caller commits before it acts on or acknowledges what the
/// frames record, so an acknowledged transition is always recoverable
/// (the OS page cache survives a SIGKILL of the process; only a kernel
/// crash can lose it, which is outside this failure model).
#[derive(Debug)]
pub struct Wal<R> {
    file: File,
    path: PathBuf,
    /// Frames staged by `append` that `commit` has not written yet. The
    /// buffer is reused, so steady-state appends allocate nothing here.
    staged: Vec<u8>,
    bytes: u64,
    /// Records and bytes staged since the last checkpoint frame.
    since_checkpoint: (u64, u64),
    /// Byte length of the last checkpoint frame (0 until one is known).
    checkpoint_bytes: u64,
    record: PhantomData<fn(&R)>,
}

impl<R: Record> Wal<R> {
    /// Open (or create) the log at `path` for appending, and replay it:
    /// every record from the last checkpoint on is folded into a
    /// `S::default()`. A torn or corrupt tail left by a crash is truncated
    /// away (replay could never reach past it, so frames appended after it
    /// would be stranded), a valid-but-unterminated final frame gets its
    /// missing newline, and a file that does not already say so is stamped
    /// with a `Meta` line of this build's version (a fresh file as its
    /// header; an older log so that an older build refuses it instead of
    /// truncating records it cannot decode).
    pub fn open<S: Default>(
        path: impl Into<PathBuf>,
        fold: impl FnMut(&mut S, &R),
    ) -> io::Result<(Self, Recovery<S>)> {
        let path = path.into();
        // Append mode: every write lands at the end, also after `set_len`.
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .read(true)
            .open(&path)?;
        let mut data = Vec::new();
        file.read_to_end(&mut data)?;
        let replay = replay(&data, fold)?;
        if replay.valid < data.len() {
            file.set_len(replay.valid as u64)?;
        }
        let mut wal = Wal {
            file,
            path,
            staged: Vec::new(),
            bytes: 0,
            since_checkpoint: (0, 0),
            checkpoint_bytes: replay.checkpoint_bytes,
            record: PhantomData,
        };
        if replay.needs_newline {
            wal.staged.push(b'\n');
        }
        let version = *R::VERSIONS.end();
        if replay.version != Some(version) {
            wal.stage(&Header::Meta { version })?;
        }
        wal.commit()?;
        Ok((wal, replay.recovery))
    }

    /// Path the log writes to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Bytes written by this writer (not the file's total size).
    pub fn bytes_written(&self) -> u64 {
        self.bytes
    }

    /// Stage one checksummed frame for the next [`Wal::commit`]. Returns
    /// the frame's byte length.
    pub fn append(&mut self, record: &R) -> io::Result<u64> {
        self.stage(record)
    }

    fn stage(&mut self, record: &impl Serialize) -> io::Result<u64> {
        let start = self.staged.len();
        let n = push_frame(&mut self.staged, record)?;
        let json = &self.staged[start + 9..];
        if R::CHECKPOINT.is_some_and(|prefix| json.starts_with(prefix.as_bytes())) {
            self.since_checkpoint = (0, 0);
            self.checkpoint_bytes = n;
        } else {
            self.since_checkpoint.0 += 1;
            self.since_checkpoint.1 += n;
        }
        Ok(n)
    }

    /// Write every staged frame with one `write_all` and return the byte
    /// count (0, and no write, when nothing is staged). On failure the
    /// frames stay staged, so the next commit writes them, in order.
    pub fn commit(&mut self) -> io::Result<u64> {
        if self.staged.is_empty() {
            return Ok(0);
        }
        if let Some(e) = symbio::obs::fault::check(R::FAULT_SITE) {
            return Err(e);
        }
        self.file.write_all(&self.staged)?;
        let n = self.staged.len() as u64;
        self.staged.clear();
        self.bytes += n;
        Ok(n)
    }
}

/// The engine's journal: a [`Wal`] of [`JournalRecord`]s plus the
/// checkpoint schedule. The engine commits before it acknowledges the
/// decisions the frames record.
#[derive(Debug)]
pub struct JournalWriter {
    wal: Wal<JournalRecord>,
    snapshot_every: u64,
}

impl JournalWriter {
    /// Open (or create) the journal at `path` for appending, repaired as
    /// [`Wal::open`] describes.
    ///
    /// A checkpoint is scheduled once at least `snapshot_every` records
    /// (min 1) and at least as many bytes as the previous checkpoint took
    /// (the file's last one, after a reopen) have been appended since it.
    pub fn open(path: impl Into<PathBuf>, snapshot_every: u64) -> io::Result<Self> {
        // The replayed state is dropped, so its retention bound is moot.
        Ok(Self::recover(path, snapshot_every, 1)?.0)
    }

    /// [`JournalWriter::open`] and [`Recovery::load`] in one read of the
    /// file: the writer, and what the journal replayed to (`window` is
    /// the engine's ring capacity).
    pub fn recover(
        path: impl Into<PathBuf>,
        snapshot_every: u64,
        window: usize,
    ) -> io::Result<(Self, Recovery)> {
        let (wal, recovery) = Wal::open(path, engine_fold(window))?;
        let snapshot_every = snapshot_every.max(1);
        Ok((
            JournalWriter {
                wal,
                snapshot_every,
            },
            recovery,
        ))
    }

    /// Path the journal writes to.
    pub fn path(&self) -> &Path {
        self.wal.path()
    }

    /// Bytes written by this writer (not the file's total size).
    pub fn bytes_written(&self) -> u64 {
        self.wal.bytes_written()
    }

    /// Stage one frame: [`Wal::append`].
    pub fn append(&mut self, record: &JournalRecord) -> io::Result<u64> {
        self.wal.append(record)
    }

    /// Write everything staged: [`Wal::commit`].
    pub fn commit(&mut self) -> io::Result<u64> {
        self.wal.commit()
    }

    /// Whether the engine should append a full-state checkpoint now: at
    /// least `snapshot_every` records and at least one checkpoint's worth
    /// of bytes since the last one. The byte rule bounds both the
    /// journal's growth (≤ 2× the transition records) and the replay
    /// tail (≤ 1× the state) at any group count.
    pub fn snapshot_due(&self) -> bool {
        let (records, bytes) = self.wal.since_checkpoint;
        records >= self.snapshot_every && bytes >= self.wal.checkpoint_bytes
    }

    /// Stage a [`JournalRecord::Snapshot`] of `state`, which restarts the
    /// schedule.
    pub fn write_snapshot(&mut self, state: EngineState) -> io::Result<u64> {
        self.append(&JournalRecord::Snapshot(state))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("symbio-journal-{name}-{}", std::process::id()));
        p
    }

    fn encode_frame(record: &JournalRecord) -> String {
        let mut buf = Vec::new();
        push_frame(&mut buf, record).unwrap();
        String::from_utf8(buf).unwrap()
    }

    fn epoch(group: &str, seq: u64, cores: Vec<usize>, committed: bool) -> JournalRecord {
        let vote = Mapping::new(cores);
        JournalRecord::Epoch {
            group: group.to_string(),
            seq,
            vote: vote.clone(),
            cores: 2,
            occupancy: 10.0,
            cleared: false,
            dropped: false,
            committed: committed.then_some(vote),
        }
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frames_roundtrip_and_reject_corruption() {
        let rec = epoch("mix", 3, vec![0, 1, 0, 1], true);
        let frame = encode_frame(&rec);
        assert!(frame.ends_with('\n'));
        let line = frame.trim_end_matches('\n').as_bytes();
        assert_eq!(decode_frame(line), Some(rec));
        // Flip one payload byte: the checksum must catch it.
        let mut bad = line.to_vec();
        let k = bad.len() - 2;
        bad[k] ^= 0x01;
        assert_eq!(decode_frame::<JournalRecord>(&bad), None);
        assert_eq!(decode_frame::<JournalRecord>(b"not a frame"), None);
        assert_eq!(decode_frame::<JournalRecord>(b"zzzzzzzz {}"), None);
    }

    #[test]
    fn replay_mirrors_engine_transitions() {
        let mut s = EngineState::default();
        let w = 4;
        s.apply(&epoch("mix", 1, vec![0, 1, 0, 1], false), w);
        s.apply(&epoch("mix", 2, vec![0, 1, 0, 1], true), w);
        let g = &s.groups[0];
        assert_eq!(g.epochs, 2);
        assert_eq!(g.last_seq, Some(2));
        assert_eq!(g.remaps, 0, "first commit is Initial, not a remap");
        assert_eq!(g.current, Some(Mapping::new(vec![0, 1, 0, 1])));
        // A later commit over an existing mapping counts as a remap.
        let other = Mapping::new(vec![0, 0, 1, 1]);
        s.apply(
            &JournalRecord::Epoch {
                group: "mix".into(),
                seq: 3,
                vote: other.clone(),
                cores: 2,
                occupancy: 10.0,
                cleared: false,
                dropped: false,
                committed: Some(other.clone()),
            },
            w,
        );
        assert_eq!(s.groups[0].remaps, 1);
        assert_eq!(s.groups[0].current, Some(other));
        // Strikes accumulate, trip clears the window and quarantines,
        // clean epochs count, recovery resets.
        s.apply(
            &JournalRecord::Strike {
                group: "mix".into(),
            },
            w,
        );
        s.apply(
            &JournalRecord::Strike {
                group: "mix".into(),
            },
            w,
        );
        assert_eq!(s.groups[0].strikes, 2);
        s.apply(
            &JournalRecord::Trip {
                group: "mix".into(),
            },
            w,
        );
        let g = &s.groups[0];
        assert!(g.quarantined);
        assert_eq!(g.strikes, 0);
        assert!(g.window.is_empty());
        assert!(g.current.is_some(), "last-good mapping survives the trip");
        s.apply(
            &JournalRecord::Clean {
                group: "mix".into(),
                seq: 4,
            },
            w,
        );
        assert_eq!(s.groups[0].clean, 1);
        s.apply(
            &JournalRecord::Strike {
                group: "mix".into(),
            },
            w,
        );
        assert_eq!(s.groups[0].clean, 0, "invalid epoch resets the streak");
        assert_eq!(s.groups[0].strikes, 0, "no double-punishment in quarantine");
        s.apply(
            &JournalRecord::Recovered {
                group: "mix".into(),
            },
            w,
        );
        assert!(!s.groups[0].quarantined);
    }

    #[test]
    fn replay_caps_the_window_and_restarts_at_snapshots() {
        let mut s = EngineState::default();
        for seq in 0..10 {
            s.apply(&epoch("mix", seq, vec![0, 1, 0, 1], false), 3);
        }
        assert_eq!(s.groups[0].window.len(), 3);
        assert_eq!(s.groups[0].window[0].seq, 7, "oldest votes evicted");
        let checkpoint = EngineState {
            groups: vec![GroupRecord {
                name: "other".into(),
                epochs: 42,
                ..GroupRecord::default()
            }],
        };
        s.apply(&JournalRecord::Snapshot(checkpoint.clone()), 3);
        assert_eq!(s, checkpoint, "snapshot replaces accumulated state");
    }

    #[test]
    fn torn_and_corrupt_tails_are_dropped_not_fatal() {
        let path = tmp("torn");
        let _ = std::fs::remove_file(&path);
        {
            let mut w = JournalWriter::open(&path, 1000).unwrap();
            w.append(&epoch("mix", 1, vec![0, 1, 0, 1], true)).unwrap();
            w.append(&epoch("mix", 2, vec![0, 1, 0, 1], false)).unwrap();
            w.commit().unwrap();
        }
        // Simulate a crash mid-append: half a frame, no newline.
        let good = std::fs::read(&path).unwrap();
        let mut torn = good.clone();
        let tail = encode_frame(&epoch("mix", 3, vec![0, 1, 0, 1], false));
        torn.extend_from_slice(&tail.as_bytes()[..tail.len() / 2]);
        std::fs::write(&path, &torn).unwrap();
        let rec = Recovery::load(&path, 8).unwrap();
        assert!(rec.truncated);
        assert_eq!(rec.frames, 3, "meta + two epochs survive");
        assert_eq!(rec.bytes, good.len() as u64);
        assert_eq!(rec.state.groups[0].last_seq, Some(2));
        // Reopening truncates the torn tail so new appends are not
        // stranded behind garbage replay can never cross.
        {
            let mut w = JournalWriter::open(&path, 1000).unwrap();
            w.append(&epoch("mix", 3, vec![0, 1, 0, 1], false)).unwrap();
            w.commit().unwrap();
        }
        let rec = Recovery::load(&path, 8).unwrap();
        assert!(!rec.truncated, "tail was repaired on reopen");
        assert_eq!(rec.frames, 4);
        assert_eq!(rec.state.groups[0].last_seq, Some(3));
        // A valid final frame that lost only its newline is kept: the
        // reopen terminates it rather than dropping the epoch.
        let mut unterminated = std::fs::read(&path).unwrap();
        assert_eq!(unterminated.pop(), Some(b'\n'));
        std::fs::write(&path, &unterminated).unwrap();
        {
            let mut w = JournalWriter::open(&path, 1000).unwrap();
            w.append(&epoch("mix", 4, vec![0, 1, 0, 1], false)).unwrap();
            w.commit().unwrap();
        }
        let rec = Recovery::load(&path, 8).unwrap();
        assert!(!rec.truncated);
        assert_eq!(rec.frames, 5);
        assert_eq!(rec.state.groups[0].last_seq, Some(4));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_journal_is_a_fresh_start() {
        let rec = Recovery::load(Path::new("/nonexistent/symbio.journal"), 8).unwrap();
        assert_eq!(rec, Recovery::empty());
    }

    #[test]
    fn snapshot_scheduling_counts_records() {
        let path = tmp("sched");
        let _ = std::fs::remove_file(&path);
        let mut w = JournalWriter::open(&path, 3).unwrap();
        assert!(!w.snapshot_due(), "meta alone should not force a snapshot");
        w.append(&epoch("mix", 1, vec![0, 1], false)).unwrap();
        w.append(&epoch("mix", 2, vec![0, 1], false)).unwrap();
        assert!(w.snapshot_due());
        w.write_snapshot(EngineState::default()).unwrap();
        assert!(!w.snapshot_due());
        w.commit().unwrap();
        assert!(w.bytes_written() > 0);
        let rec = Recovery::load(&path, 8).unwrap();
        assert!(!rec.truncated);
        assert_eq!(rec.frames, 4);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpoints_wait_for_a_checkpoints_worth_of_bytes() {
        let path = tmp("sized");
        let _ = std::fs::remove_file(&path);
        // A state far larger than `snapshot_every` transition records.
        let big = EngineState {
            groups: (0..64)
                .map(|i| GroupRecord {
                    name: format!("group-{i:03}"),
                    current: Some(Mapping::new(vec![0, 1, 0, 1])),
                    ..GroupRecord::default()
                })
                .collect(),
        };
        let mut w = JournalWriter::open(&path, 2).unwrap();
        w.append(&epoch("mix", 1, vec![0, 1], false)).unwrap();
        assert!(
            w.snapshot_due(),
            "the first checkpoint goes by record count"
        );
        let checkpoint = w.write_snapshot(big).unwrap();
        let mut appended = 0;
        let mut records = 0;
        while !w.snapshot_due() {
            appended += w
                .append(&epoch("mix", 2 + records, vec![0, 1], false))
                .unwrap();
            records += 1;
        }
        assert!(records > 2, "the record count alone would have fired");
        assert!(
            appended >= checkpoint,
            "{appended} B since a {checkpoint} B checkpoint"
        );
        w.commit().unwrap();
        drop(w);
        // A reopened writer takes the size from the file's last checkpoint.
        let mut w = JournalWriter::open(&path, 2).unwrap();
        w.append(&epoch("mix", 100, vec![0, 1], false)).unwrap();
        w.append(&epoch("mix", 101, vec![0, 1], false)).unwrap();
        assert!(
            !w.snapshot_due(),
            "two records are not a checkpoint's worth"
        );
        let _ = std::fs::remove_file(&path);
    }
}
