//! Property pins for the journal's two shortcuts:
//!
//! (a) **recovery equivalence** — [`Recovery::load`] checksums every line
//!     but decodes only `Meta` lines and the frames from the last
//!     checkpoint on. On any journal a writer can leave behind — 0..n
//!     checkpoints, `Group` records, either format version, cut short or
//!     bit-flipped anywhere (before, inside or after the last checkpoint
//!     line) — it must equal the decode-everything replay it replaced,
//!     kept here as the reference, in state, frame count, byte count and
//!     truncation flag; and reopening the file for appending must leave
//!     exactly that prefix behind.
//! (b) **checksum equivalence** — the table-driven [`crc32`] equals the
//!     bitwise definition it replaced, on every length and content.
//!
//! Values fan out from one `u64` seed via a local xorshift generator,
//! the same idiom as the fleet crate's lifecycle properties (the vendored
//! proptest surface is deliberately small).

use proptest::prelude::*;
use std::io;
use symbio_machine::Mapping;
use symbio_online::journal::{crc32, decode_frame, JOURNAL_VERSION};
use symbio_online::{
    EngineState, EpochRecord, GroupRecord, JournalRecord, JournalWriter, OnlineConfig,
    OnlineEngine, Recovery,
};

// -------------------------------------------------------- references

/// The bitwise IEEE CRC-32 the journal shipped with.
fn bitwise_crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// The replay `Recovery::load` shipped with: decode and apply every
/// frame from the first byte on, stop at the first that does not decode.
fn reference_replay(data: &[u8], window: usize) -> io::Result<Recovery> {
    let mut rec = Recovery::empty();
    let mut pos = 0usize;
    while pos < data.len() {
        let (line, next, terminated) = match data[pos..].iter().position(|&b| b == b'\n') {
            Some(i) => (&data[pos..pos + i], pos + i + 1, true),
            None => (&data[pos..], data.len(), false),
        };
        if line.is_empty() {
            pos = next;
            continue;
        }
        let record = match decode_frame(line) {
            Some(r) => r,
            None => {
                rec.truncated = true;
                break;
            }
        };
        if let JournalRecord::Meta { version } = record {
            if !(1..=JOURNAL_VERSION).contains(&version) {
                return Err(io::Error::new(io::ErrorKind::InvalidData, "version"));
            }
        }
        rec.state.apply(&record, window);
        rec.frames += 1;
        rec.bytes += (line.len() + usize::from(terminated)) as u64;
        pos = next;
    }
    Ok(rec)
}

// --------------------------------------------------------- generator

/// Deterministic value generator (xorshift64*), seeded per case.
struct Gen(u64);

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn mapping(&mut self) -> Mapping {
        Mapping::new((0..4).map(|_| self.below(2) as usize).collect())
    }

    /// A group name; some carry bytes a bit flip can turn into a newline
    /// or a quote, and multibyte characters.
    fn group(&mut self) -> String {
        ["g", "J*group", "h\u{e9}", "mix-3"][self.below(4) as usize].to_string()
    }

    fn group_record(&mut self) -> GroupRecord {
        GroupRecord {
            name: self.group(),
            window: (0..self.below(6))
                .map(|seq| EpochRecord {
                    seq,
                    vote: self.mapping(),
                    cores: 2,
                    occupancy: self.below(90) as f64 + 0.5,
                })
                .collect(),
            current: (self.below(2) == 0).then(|| self.mapping()),
            epochs: self.below(1000),
            remaps: self.below(10),
            last_seq: (self.below(4) != 0).then(|| self.below(1000)),
            strikes: self.below(3) as u32,
            quarantined: self.below(4) == 0,
            clean: self.below(3) as u32,
        }
    }

    /// One transition record (never `Meta`, never `Snapshot`).
    fn transition(&mut self, seq: u64) -> JournalRecord {
        let group = self.group();
        match self.below(10) {
            0 => JournalRecord::Strike { group },
            1 => JournalRecord::Trip { group },
            2 => JournalRecord::Clean { group, seq },
            3 => JournalRecord::Recovered { group },
            4 => JournalRecord::Group(self.group_record()),
            _ => {
                let vote = self.mapping();
                JournalRecord::Epoch {
                    group,
                    seq,
                    committed: (self.below(3) == 0).then(|| vote.clone()),
                    vote,
                    cores: 2,
                    occupancy: self.below(90) as f64 + 0.25,
                    cleared: self.below(8) == 0,
                    dropped: self.below(16) == 0,
                }
            }
        }
    }
}

/// One journal line, framed independently of the writer under test.
fn frame(record: &JournalRecord) -> Vec<u8> {
    let json = serde_json::to_string(record).unwrap();
    format!("{:08x} {json}\n", bitwise_crc32(json.as_bytes())).into_bytes()
}

/// A well-formed journal of either version with 0..=3 checkpoints, and
/// the byte span of its last checkpoint line (if any).
fn journal(gen: &mut Gen, window: usize) -> (Vec<u8>, Option<(usize, usize)>) {
    let mut data = frame(&JournalRecord::Meta {
        version: 1 + gen.below(JOURNAL_VERSION as u64) as u32,
    });
    let mut state = EngineState::default();
    let mut last_checkpoint = None;
    let checkpoints = gen.below(4);
    for segment in 0..=checkpoints {
        for seq in 0..gen.below(12) {
            let record = gen.transition(segment * 100 + seq);
            state.apply(&record, window);
            data.extend(frame(&record));
        }
        if segment < checkpoints {
            let line = frame(&JournalRecord::Snapshot(state.clone()));
            last_checkpoint = Some((data.len(), data.len() + line.len()));
            data.extend(line);
        }
    }
    (data, last_checkpoint)
}

/// Damage `data` the way a crash or a bad sector would: cut it short,
/// flip one bit, or both — anywhere, or aimed before / inside / after
/// the last checkpoint line.
fn damage(gen: &mut Gen, data: &mut Vec<u8>, last_checkpoint: Option<(usize, usize)>) {
    let len = data.len();
    let position = |gen: &mut Gen| -> usize {
        let (lo, hi) = match (gen.below(4), last_checkpoint) {
            (1, Some((start, _))) => (0, start),
            (2, Some((start, end))) => (start, end),
            (3, Some((_, end))) => (end, len),
            _ => (0, len),
        };
        lo + gen.below((hi - lo) as u64) as usize
    };
    let how = gen.below(4);
    if how & 1 != 0 {
        let at = position(gen).min(len - 1);
        data[at] ^= 1 << gen.below(8);
    }
    if how & 2 != 0 {
        let at = position(gen);
        data.truncate(at);
    }
}

fn temp_path(tag: &str, seed: u64) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "symbio-journal-prop-{tag}-{}-{seed:016x}.journal",
        std::process::id()
    ));
    p
}

// -------------------------------------------------------- properties

proptest! {
    #[test]
    fn recovery_equals_the_decode_everything_replay(seed in any::<u64>()) {
        let mut gen = Gen::new(seed);
        let window = 1 + gen.below(8) as usize;
        let (intact, last_checkpoint) = journal(&mut gen, window);
        let path = temp_path("equiv", seed);
        // The journal as written, then several ways of damaging it.
        for variant in 0..8 {
            let mut data = intact.clone();
            if variant > 0 {
                damage(&mut gen, &mut data, last_checkpoint);
            }
            std::fs::write(&path, &data).expect("write journal");

            let expect = reference_replay(&data, window).expect("generated versions replay");
            let got = Recovery::load(&path, window).expect("load");
            prop_assert_eq!(&got, &expect);

            // Reopening for append keeps exactly the replayable prefix
            // (plus the newline a cut may have taken, plus a version
            // stamp if the file was written by an older build or lost
            // its header), so the same state comes back with nothing
            // unreachable behind it.
            drop(JournalWriter::open(&path, 256).expect("reopen"));
            let reopened = Recovery::load(&path, window).expect("load reopened");
            prop_assert!(!reopened.truncated, "reopen left an unreachable tail");
            prop_assert_eq!(&reopened.state, &expect.state);
            prop_assert!(
                reopened.frames - expect.frames <= 1,
                "at most a version stamp is added"
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn table_crc32_equals_the_bitwise_definition(seed in any::<u64>()) {
        let mut gen = Gen::new(seed);
        let len = gen.below(300) as usize;
        let data: Vec<u8> = (0..len).map(|_| gen.next() as u8).collect();
        prop_assert_eq!(crc32(&data), bitwise_crc32(&data));
        // Every split point: the 8-byte stride and its remainder loop.
        let tail = &data[len.min(gen.below(9) as usize)..];
        prop_assert_eq!(crc32(tail), bitwise_crc32(tail));
    }
}

#[test]
fn crc32_of_nothing_is_zero_in_both_definitions() {
    assert_eq!(crc32(b""), 0);
    assert_eq!(bitwise_crc32(b""), 0);
}

/// A journal written by the commit before this format change (version 1,
/// a checkpoint every 256 records whatever its size): three interleaved
/// streams through remaps, a quarantine trip and its recovery, 333
/// records, one checkpoint. The new reader must land on the state the
/// old full-decode replay lands on, and the new writer must be able to
/// carry the same file on.
#[test]
fn a_version_1_journal_replays_to_the_same_state_and_can_be_continued() {
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/v1.journal");
    let data = std::fs::read(fixture).expect("fixture");
    let window = OnlineConfig::default().window;
    assert!(data.starts_with(b"f98fc3e0 {\"Meta\":{\"version\":1}}\n"));
    let checkpoints = data
        .split(|&b| b == b'\n')
        .filter(|l| l.len() > 9 && l[9..].starts_with(b"{\"Snapshot\""))
        .count();
    assert_eq!(checkpoints, 1, "the old cadence: one per 256 records");

    let expect = reference_replay(&data, window).unwrap();
    assert!(!expect.truncated);
    assert_eq!(expect.state.groups.len(), 3);
    let path = temp_path("v1", 0);
    std::fs::write(&path, &data).unwrap();
    assert_eq!(Recovery::load(&path, window).unwrap(), expect);

    // Continue it: the engine recovers, stamps the new version (so the
    // old build refuses the file rather than truncating `Group` records
    // it cannot decode), journals an import, and replays to its state.
    let mut engine = OnlineEngine::new(
        Box::new(symbio_allocator::WeightSortPolicy),
        OnlineConfig::default(),
    )
    .unwrap();
    let recovery = engine.recover_journaled(&path, 256).unwrap();
    assert_eq!(recovery, expect);
    assert_eq!(engine.state(), expect.state);
    let mut moved = expect.state.groups[0].clone();
    moved.name = "moved-in".to_string();
    engine.import_group(&moved);
    let after = Recovery::load(&path, window).unwrap();
    assert_eq!(after.state, engine.state());
    assert_eq!(
        after.frames,
        expect.frames + 2,
        "version stamp + group record"
    );
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.contains(&format!("{{\"Meta\":{{\"version\":{JOURNAL_VERSION}}}}}")));
    let _ = std::fs::remove_file(&path);
}
