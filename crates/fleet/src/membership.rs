//! Durable fleet membership (DESIGN.md §14): a write-ahead log of
//! membership transitions plus the flap detector that guards eviction.
//!
//! The coordinator's membership — which backends exist, in which epoch —
//! used to live only in memory: a restarted `fleetd` forgot every
//! eviction and drain and came back routing to dead peers. This module
//! makes the membership survivable with the engine journal's own log,
//! [`symbio_online::journal::Wal`]: each transition is one line,
//! `{crc32:08x} {json}\n`, committed before the transition takes effect,
//! and reopening repairs a crash tail exactly as engine recovery does (a
//! torn final line is truncated, a valid one that lost only its newline
//! is kept). Because rendezvous routing is a pure function of the
//! membership, replaying the journal reconstructs a byte-identical
//! routing view — same owners, same epoch.
//!
//! The flap detector de-bounces eviction: one failed probe is a *flap*
//! until the same backend fails [`FlapDetector`]'s threshold within its
//! sliding window. Suppressed flaps are counted
//! (`fleet_flaps_suppressed`) and retried; only a proven-dead backend is
//! evicted and journaled.

use crate::assign::Membership;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::ops::RangeInclusive;
use std::path::Path;
use symbio_online::journal::{Record, Wal};

/// Format version stamped as the journal's first record. Bump on any
/// incompatible change to [`MemberRecord`] or the framing.
pub const MEMBER_JOURNAL_VERSION: u32 = 1;

/// One durable membership transition. Append-ordered; replay folds the
/// sequence into a [`Membership`] whose epoch counter advances exactly
/// as the live coordinator's did.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum MemberRecord {
    /// Leading header: format version of everything that follows.
    Meta {
        /// Must equal [`MEMBER_JOURNAL_VERSION`] for this build to
        /// replay it.
        version: u32,
    },
    /// The initial membership a fresh coordinator was seeded with.
    Seed {
        /// Backend addresses at seed time.
        backends: Vec<String>,
    },
    /// A backend joined (or rejoined) via the `Assign`/Join handshake.
    Join {
        /// The joining backend's address.
        addr: String,
    },
    /// A backend was evicted after the flap detector proved it dead.
    Evict {
        /// The evicted backend's address.
        addr: String,
    },
    /// A backend was drained on purpose (operator `Assign { remove }`).
    Drain {
        /// The drained backend's address.
        addr: String,
    },
}

impl Record for MemberRecord {
    const VERSIONS: RangeInclusive<u32> = 1..=MEMBER_JOURNAL_VERSION;
    const CHECKPOINT: Option<&'static str> = None;
    const FAULT_SITE: &'static str = "membership_write";
}

/// Outcome of replaying a membership journal.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MemberReplay {
    /// The reconstructed membership — `None` when the journal held no
    /// `Seed` yet (a fresh coordinator seeds from its command line and
    /// journals that seed).
    pub membership: Option<Membership>,
    /// Epoch-bearing records (seed/join/evict/drain) replayed.
    pub epochs: u64,
    /// Whether replay stopped at a torn or corrupt tail (which
    /// [`MemberJournal::open`] then truncated).
    pub truncated: bool,
}

/// Fold one record into the replay. Mirrors exactly the mutation the
/// live coordinator performs when it writes the record.
fn apply_member(replay: &mut MemberReplay, record: &MemberRecord) {
    let membership = &mut replay.membership;
    match record {
        MemberRecord::Meta { .. } => return,
        MemberRecord::Seed { backends } => {
            *membership = Some(Membership::new(backends.iter().cloned()));
        }
        MemberRecord::Join { addr } => {
            let m = membership.get_or_insert_with(Membership::default);
            m.apply(std::slice::from_ref(addr), &[]);
        }
        MemberRecord::Evict { addr } | MemberRecord::Drain { addr } => {
            let m = membership.get_or_insert_with(Membership::default);
            m.apply(&[], std::slice::from_ref(addr));
        }
    }
    replay.epochs += 1;
}

/// The append-side handle to a membership journal: a [`Wal`] of
/// [`MemberRecord`]s. [`MemberJournal::open`] replays (and repairs) the
/// file; [`MemberJournal::append`] commits one record per transition,
/// *before* the transition takes effect in memory.
#[derive(Debug)]
pub struct MemberJournal {
    wal: Wal<MemberRecord>,
}

impl MemberJournal {
    /// Open (or create) the journal at `path`, repaired as [`Wal::open`]
    /// describes, and replay it. A non-empty journal must carry a
    /// compatible version.
    pub fn open(path: &Path) -> symbio::Result<(MemberJournal, MemberReplay)> {
        let (wal, recovery) = Wal::open(path, apply_member)?;
        let replay = MemberReplay {
            truncated: recovery.truncated,
            ..recovery.state
        };
        Ok((MemberJournal { wal }, replay))
    }

    /// Frame and write one record. Write-ahead: call this before
    /// mutating the in-memory membership, so a crash between the two
    /// replays to the *post*-transition state, never an unjournaled one.
    /// A failed write leaves the frame staged, and the next append writes
    /// it first.
    pub fn append(&mut self, record: &MemberRecord) -> symbio::Result<()> {
        self.wal.append(record)?;
        self.wal.commit()?;
        Ok(())
    }
}

/// De-bounces eviction: a backend must fail `threshold` probes within a
/// sliding `window` (seconds) before [`FlapDetector::strike`] votes to
/// evict it. Everything below threshold is a suppressed flap — the
/// caller retries instead of evicting.
#[derive(Debug)]
pub struct FlapDetector {
    threshold: usize,
    window: f64,
    strikes: HashMap<String, Vec<f64>>,
}

impl FlapDetector {
    /// `threshold` failed probes (floored at 1) within `window` seconds
    /// trip eviction.
    pub fn new(threshold: u32, window: f64) -> FlapDetector {
        FlapDetector {
            threshold: threshold.max(1) as usize,
            window: window.max(0.0),
            strikes: HashMap::new(),
        }
    }

    /// Record one failed probe against `addr` at time `now`. Returns
    /// `true` when the backend crossed the threshold inside the window
    /// (evict it now); the addr's strike history resets on a trip.
    pub fn strike(&mut self, addr: &str, now: f64) -> bool {
        let hits = self.strikes.entry(addr.to_string()).or_default();
        hits.retain(|&t| now - t <= self.window);
        hits.push(now);
        if hits.len() >= self.threshold {
            self.strikes.remove(addr);
            true
        } else {
            false
        }
    }

    /// Forget `addr`'s strike history (a probe succeeded, or the
    /// backend left the membership).
    pub fn clear(&mut self, addr: &str) {
        self.strikes.remove(addr);
    }

    /// Strikes currently held against `addr` (test/observability hook).
    pub fn pending(&self, addr: &str) -> usize {
        self.strikes.get(addr).map_or(0, Vec::len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use symbio_online::journal::decode_frame;

    fn temp_path(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("symbio-members-{tag}-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn write(path: &Path, records: &[MemberRecord]) -> Vec<u8> {
        let (mut j, _) = MemberJournal::open(path).unwrap();
        for r in records {
            j.append(r).unwrap();
        }
        std::fs::read(path).unwrap()
    }

    #[test]
    fn frames_round_trip() {
        let path = temp_path("frames");
        let records = [
            MemberRecord::Seed {
                backends: vec!["a:1".into(), "b:2".into()],
            },
            MemberRecord::Join { addr: "c:3".into() },
            MemberRecord::Evict { addr: "a:1".into() },
            MemberRecord::Drain { addr: "b:2".into() },
        ];
        let raw = write(&path, &records);
        // Pinned bytes: every build must read every other build's journal.
        assert_eq!(
            String::from_utf8(raw.clone()).unwrap(),
            concat!(
                "f98fc3e0 {\"Meta\":{\"version\":1}}\n",
                "2c38df3b {\"Seed\":{\"backends\":[\"a:1\",\"b:2\"]}}\n",
                "80b6286d {\"Join\":{\"addr\":\"c:3\"}}\n",
                "0d29dde8 {\"Evict\":{\"addr\":\"a:1\"}}\n",
                "40313482 {\"Drain\":{\"addr\":\"b:2\"}}\n",
            )
        );
        let decoded: Vec<MemberRecord> = raw
            .split(|&b| b == b'\n')
            .filter(|line| !line.is_empty())
            .map(|line| decode_frame(line).expect("intact frame"))
            .collect();
        let meta = MemberRecord::Meta {
            version: MEMBER_JOURNAL_VERSION,
        };
        assert_eq!(decoded[0], meta);
        assert_eq!(decoded[1..], records);
        // A flipped byte fails the checksum, not the parser.
        let mut line = raw[..raw.iter().position(|&b| b == b'\n').unwrap()].to_vec();
        let last = line.len() - 1;
        line[last] ^= 0x20;
        assert_eq!(decode_frame::<MemberRecord>(&line), None);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn journal_replays_to_the_same_membership() {
        let path = temp_path("replay");
        let seed = vec!["127.0.0.1:7001".to_string(), "127.0.0.1:7002".to_string()];
        let mut live = Membership::new(seed.iter().cloned());
        {
            let (mut j, replay) = MemberJournal::open(&path).expect("open fresh");
            assert_eq!(replay.membership, None);
            assert!(!replay.truncated);
            j.append(&MemberRecord::Seed {
                backends: seed.clone(),
            })
            .unwrap();
            j.append(&MemberRecord::Join {
                addr: "127.0.0.1:7003".into(),
            })
            .unwrap();
            j.append(&MemberRecord::Evict {
                addr: "127.0.0.1:7001".into(),
            })
            .unwrap();
        }
        live.apply(&["127.0.0.1:7003".to_string()], &[]);
        live.apply(&[], &["127.0.0.1:7001".to_string()]);

        let (_, replay) = MemberJournal::open(&path).expect("reopen");
        let replayed = replay.membership.expect("seeded");
        assert_eq!(replayed, live);
        assert_eq!(replayed.epoch(), live.epoch());
        assert_eq!(replay.epochs, 3);
        assert!(!replay.truncated);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_truncated_and_replay_matches_the_prefix() {
        let path = temp_path("torn");
        {
            let (mut j, _) = MemberJournal::open(&path).unwrap();
            j.append(&MemberRecord::Seed {
                backends: vec!["a:1".into(), "b:2".into()],
            })
            .unwrap();
            j.append(&MemberRecord::Join { addr: "c:3".into() })
                .unwrap();
        }
        // Capture the replay of the intact file, then tear the tail:
        // append half a frame, as a crash mid-write would.
        let (_, intact) = MemberJournal::open(&path).unwrap();
        let mut raw = std::fs::read(&path).unwrap();
        let last_line = raw[..raw.len() - 1]
            .iter()
            .rposition(|&b| b == b'\n')
            .unwrap()
            + 1;
        let torn = raw[last_line..].to_vec();
        raw.extend_from_slice(&torn[..torn.len() / 2]);
        std::fs::write(&path, &raw).unwrap();

        let (j, replay) = MemberJournal::open(&path).unwrap();
        assert!(replay.truncated);
        assert_eq!(replay.membership, intact.membership);
        assert_eq!(replay.epochs, intact.epochs);
        // The repair is durable: a third open sees a clean file.
        drop(j);
        let (_, again) = MemberJournal::open(&path).unwrap();
        assert!(!again.truncated);
        assert_eq!(again.membership, intact.membership);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_valid_final_frame_missing_its_newline_is_kept() {
        let path = temp_path("newline");
        let mut raw = write(
            &path,
            &[
                MemberRecord::Seed {
                    backends: vec!["a:1".into()],
                },
                MemberRecord::Join { addr: "b:2".into() },
            ],
        );
        let intact = raw.clone();
        assert_eq!(raw.pop(), Some(b'\n'));
        std::fs::write(&path, &raw).unwrap();

        let (j, replay) = MemberJournal::open(&path).unwrap();
        assert!(!replay.truncated);
        assert_eq!(replay.epochs, 2);
        let members = replay.membership.expect("seeded").addrs();
        assert_eq!(members, ["a:1", "b:2"]);
        drop(j);
        assert_eq!(
            std::fs::read(&path).unwrap(),
            intact,
            "the newline is restored"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bytes_written_counts_this_writers_bytes() {
        let path = temp_path("bytes");
        let before = write(&path, &[MemberRecord::Join { addr: "a:1".into() }]);
        let (mut j, _) = MemberJournal::open(&path).unwrap();
        assert_eq!(j.wal.bytes_written(), 0, "replaying wrote nothing");
        j.append(&MemberRecord::Join { addr: "b:2".into() })
            .unwrap();
        let after = std::fs::read(&path).unwrap();
        assert_eq!(j.wal.bytes_written(), (after.len() - before.len()) as u64);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn flap_detector_needs_threshold_strikes_inside_the_window() {
        let mut flaps = FlapDetector::new(3, 1.0);
        assert!(!flaps.strike("a:1", 0.0));
        assert!(!flaps.strike("a:1", 0.1));
        assert!(flaps.strike("a:1", 0.2), "third strike in window trips");
        // History resets after a trip.
        assert!(!flaps.strike("a:1", 0.3));

        // Strikes spread wider than the window never trip.
        let mut slow = FlapDetector::new(3, 1.0);
        assert!(!slow.strike("b:2", 0.0));
        assert!(!slow.strike("b:2", 2.0));
        assert!(!slow.strike("b:2", 4.0));
        assert_eq!(slow.pending("b:2"), 1);

        // A success clears the slate.
        let mut cleared = FlapDetector::new(2, 10.0);
        assert!(!cleared.strike("c:3", 0.0));
        cleared.clear("c:3");
        assert!(!cleared.strike("c:3", 0.1));
    }
}
