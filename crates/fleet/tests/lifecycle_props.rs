//! Property pins for the fleet lifecycle machinery (ISSUE 9):
//!
//! (a) **handoff liveness** — under *any* interleaving of export
//!     timeouts, import failures, owner deaths and stray events, the
//!     per-group handoff machine settles back in `Settled`, reports at
//!     most one outcome per `Begin`, and only reports `Warm` for a
//!     begin→export→import run that stayed inside its budget;
//! (b) **single ownership** — whatever the handoff machinery does, the
//!     route itself stays a pure function of the membership: at every
//!     epoch each group has exactly one owner;
//! (c) **journal replay equivalence** — a membership journal with an
//!     arbitrarily torn tail replays to exactly the membership of its
//!     valid prefix (truncation loses at most the torn record, never
//!     corrupts);
//! (d) **batch fan-out** (ISSUE 14) — the pure half of the coordinator's
//!     `IngestBatch` path: for any owner per item, `partition` followed
//!     by `scatter` puts every item back in its own slot, each owner
//!     sees its items in input order, and no frame exceeds its owner's
//!     `batch_max`.
//!
//! Values fan out from one `u64` seed via a local xorshift generator,
//! the same idiom as the serve crate's codec properties (the vendored
//! proptest surface is deliberately small).

use proptest::prelude::*;
use symbio_fleet::coordinator::{partition, scatter};
use symbio_fleet::membership::{decode_member_frame, MemberJournal, MemberRecord};
use symbio_fleet::{Handoff, HandoffEvent, HandoffOutcome, HandoffState, Membership};

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

    fn event(&mut self) -> HandoffEvent {
        match self.below(6) {
            0 => HandoffEvent::Begin,
            1 => HandoffEvent::Exported,
            2 => HandoffEvent::ExportFailed,
            3 => HandoffEvent::Imported,
            4 => HandoffEvent::ImportFailed,
            _ => HandoffEvent::OwnerDied,
        }
    }
}

proptest! {
    #[test]
    fn any_interleaving_settles_with_at_most_one_outcome_per_begin(seed in any::<u64>()) {
        let mut gen = Gen::new(seed);
        let timeout = (1.0 + gen.below(1000) as f64) / 1000.0;
        let mut machine = Handoff::new(timeout);
        let mut now = 0.0;
        let mut begins = 0u32;
        let mut outcomes = 0u32;
        // Warm requires the exact Begin → Exported → Imported path with
        // no failure in between; track it as a tiny reference model.
        let mut warm_legal = false;
        let steps = 1 + gen.below(64);
        for _ in 0..steps {
            now += gen.below(2000) as f64 / 1000.0;
            let ev = gen.event();
            let before = machine.state();
            let out = machine.step(ev, now);
            // A Begin opens a new attempt when the machine was settled —
            // or when it settled a timed-out attempt in this same step
            // (out is Some) and restarted.
            if ev == HandoffEvent::Begin
                && (before == HandoffState::Settled || out.is_some())
            {
                begins += 1;
                warm_legal = false;
            }
            if before == HandoffState::Exporting && ev == HandoffEvent::Exported {
                warm_legal = true;
            }
            if let Some(o) = out {
                outcomes += 1;
                if o == HandoffOutcome::Warm {
                    // A warm settle must come from a legal run that the
                    // machine itself still considered in flight.
                    prop_assert!(warm_legal, "warm without an in-budget export");
                }
                warm_legal = false;
            }
            // An outcome always means the attempt it closed is settled
            // (a same-step Begin may already have opened the next one).
            if out.is_some() && ev != HandoffEvent::Begin {
                prop_assert_eq!(machine.state(), HandoffState::Settled);
            }
        }
        // Owner death always lands the machine in Settled, and the
        // books balance: no attempt yields more than one outcome.
        let final_out = machine.step(HandoffEvent::OwnerDied, now + 1.0);
        outcomes += u32::from(final_out.is_some());
        prop_assert_eq!(machine.state(), HandoffState::Settled);
        prop_assert!(outcomes <= begins, "{} outcomes from {} begins", outcomes, begins);
    }

    #[test]
    fn every_epoch_has_exactly_one_owner_per_group(seed in any::<u64>()) {
        let mut gen = Gen::new(seed);
        let n = 1 + gen.below(5) as usize;
        let group_count = 1 + gen.below(40) as usize;
        let mut membership = Membership::new(
            (0..n).map(|i| format!("10.9.0.{i}:74")),
        );
        let groups: Vec<String> = (0..group_count).map(|i| format!("t/g-{i}")).collect();
        // At the initial epoch and after every membership change, each
        // group resolves to exactly one live owner — double-ownership
        // is unrepresentable in the route.
        for step in 0..(1 + gen.below(4)) {
            if step > 0 {
                let addrs = membership.addrs();
                if addrs.len() <= 1 {
                    break;
                }
                let victim = addrs[gen.below(addrs.len() as u64) as usize].clone();
                membership.apply(&[], &[victim]);
            }
            let addrs = membership.addrs();
            for g in &groups {
                let owner = membership.owner_of(g).expect("nonempty membership");
                prop_assert_eq!(addrs.iter().filter(|a| **a == owner).count(), 1);
            }
        }
    }

    #[test]
    fn torn_tails_replay_to_the_valid_prefix(seed in any::<u64>()) {
        let mut gen = Gen::new(seed);
        let path = {
            let mut p = std::env::temp_dir();
            p.push(format!(
                "symbio-members-prop-{}-{seed:016x}.jsonl",
                std::process::id(),
            ));
            p
        };
        let _ = std::fs::remove_file(&path);
        let addr = |i: u64| format!("10.8.0.{i}:74");
        let records: Vec<MemberRecord> = (0..1 + gen.below(11))
            .map(|_| match gen.below(4) {
                0 => MemberRecord::Seed {
                    backends: (0..=gen.below(3)).map(addr).collect(),
                },
                1 => MemberRecord::Join { addr: addr(gen.below(8)) },
                2 => MemberRecord::Evict { addr: addr(gen.below(8)) },
                _ => MemberRecord::Drain { addr: addr(gen.below(8)) },
            })
            .collect();
        {
            let (mut journal, _) = MemberJournal::open(&path).expect("open");
            for r in &records {
                journal.append(r).expect("append");
            }
        }
        let intact = std::fs::read(&path).expect("read back");

        // Tear the file at an arbitrary byte, then glue on garbage that
        // can't checksum: replay must reconstruct exactly the membership
        // of the longest whole-frame prefix.
        let cut_at = gen.below(intact.len() as u64 + 1) as usize;
        let mut torn = intact[..cut_at].to_vec();
        torn.extend_from_slice(b"ffffffff {\"torn\":");
        std::fs::write(&path, &torn).expect("tear");

        let whole_frames = intact[..cut_at]
            .split_inclusive(|&b| b == b'\n')
            .filter(|line| line.ends_with(b"\n"))
            .map(|line| &line[..line.len() - 1]);
        let mut expect: Option<Membership> = None;
        for line in whole_frames {
            match decode_member_frame(line) {
                Some(MemberRecord::Meta { .. }) | None => {}
                Some(MemberRecord::Seed { backends }) => {
                    expect = Some(Membership::new(backends));
                }
                Some(MemberRecord::Join { addr }) => {
                    expect
                        .get_or_insert_with(Membership::default)
                        .apply(&[addr], &[]);
                }
                Some(MemberRecord::Evict { addr }) | Some(MemberRecord::Drain { addr }) => {
                    expect
                        .get_or_insert_with(Membership::default)
                        .apply(&[], &[addr]);
                }
            }
        }

        let (_, replay) = MemberJournal::open(&path).expect("reopen torn");
        prop_assert!(replay.truncated, "the glued garbage is always a torn tail");
        prop_assert_eq!(replay.membership, expect);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn scatter_undoes_partition_in_owner_order_within_batch_max(seed in any::<u64>()) {
        let mut gen = Gen::new(seed);
        let backends = 1 + gen.below(5) as usize;
        let caps: Vec<usize> = (0..backends).map(|_| 1 + gen.below(9) as usize).collect();
        // `None` is an item answered without a backend (refused, moved).
        let owners: Vec<Option<usize>> = (0..gen.below(65))
            .map(|_| (gen.below(5) > 0).then(|| gen.below(backends as u64) as usize))
            .collect();

        let subs = partition(&owners, |owner| caps[owner]);

        // Carry each slot's own index through a frame and back.
        let mut back: Vec<Option<usize>> = vec![None; owners.len()];
        for sub in &subs {
            prop_assert!(!sub.slots.is_empty(), "an empty frame was emitted");
            prop_assert!(sub.slots.len() <= caps[sub.owner], "{:?} exceeds {:?}", sub, caps);
            scatter(sub, sub.slots.clone(), &mut back);
        }
        for (slot, owner) in owners.iter().enumerate() {
            prop_assert_eq!(back[slot], owner.map(|_| slot));
        }

        // Frames of one owner, in the order they are sent, carry its
        // slots in input order — and only its slots.
        for owner in 0..backends {
            let seen: Vec<usize> = subs
                .iter()
                .filter(|sub| sub.owner == owner)
                .flat_map(|sub| sub.slots.iter().copied())
                .collect();
            let expected: Vec<usize> = (0..owners.len())
                .filter(|&slot| owners[slot] == Some(owner))
                .collect();
            prop_assert_eq!(seen, expected);
        }
    }
}
