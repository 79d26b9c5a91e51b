//! A failed membership-journal write is retried, in order, by the next
//! append. This lives in its own test binary because fault arming is
//! process-global: any other test journaling concurrently in the same
//! process would trip too.

use symbio::obs::fault;
use symbio_fleet::membership::{MemberJournal, MemberRecord};
use symbio_online::journal::decode_frame;

#[test]
fn a_failed_membership_write_stays_staged_for_the_next_append() {
    let path =
        std::env::temp_dir().join(format!("symbio-members-fault-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let (mut journal, _) = MemberJournal::open(&path).unwrap();
    journal
        .append(&MemberRecord::Seed {
            backends: vec!["a:1".into(), "b:2".into()],
        })
        .unwrap();
    let before = std::fs::read(&path).unwrap();

    fault::arm("membership_write=1.0", 7).unwrap();
    let join = MemberRecord::Join { addr: "c:3".into() };
    assert!(journal.append(&join).is_err());
    assert_eq!(fault::trips("membership_write"), 1);
    fault::disarm();
    assert_eq!(std::fs::read(&path).unwrap(), before, "nothing written");

    let evict = MemberRecord::Evict { addr: "a:1".into() };
    journal.append(&evict).unwrap();
    drop(journal);
    let records: Vec<MemberRecord> = std::fs::read(&path)
        .unwrap()
        .split(|&b| b == b'\n')
        .filter(|line| !line.is_empty())
        .map(|line| decode_frame(line).expect("intact frame"))
        .collect();
    assert_eq!(records[2..], [join, evict], "the retried frame comes first");

    let (_, replay) = MemberJournal::open(&path).unwrap();
    assert!(!replay.truncated);
    assert_eq!(replay.epochs, 3);
    assert_eq!(replay.membership.unwrap().addrs(), ["b:2", "c:3"]);
    let _ = std::fs::remove_file(&path);
}
