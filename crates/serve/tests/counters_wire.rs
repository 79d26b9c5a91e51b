//! Wire pin for the counter table: a `Metrics` and a `FleetMetrics`
//! reply whose snapshot holds a distinct value in every field must
//! encode to these exact v2 bytes and v1 JSON lines. The expected
//! strings were produced by the hand-written codec that preceded the
//! `counters!` table, so reordering, renaming or re-kinding a table line
//! fails here before a released client can notice.

use symbio::obs::CounterSnapshot;
use symbio_serve::proto::{BackendStat, FleetSnapshot, FrameCodec, Response, V1Codec, V2Codec};

/// Scalars 1..=31 in declaration order; `domain_remaps` `[101, 0, 103]`.
fn distinct() -> CounterSnapshot {
    CounterSnapshot {
        profile_runs: 1,
        sim_runs: 2,
        sim_cycles: 3,
        l2_accesses: 4,
        l2_misses: 5,
        memo_hits: 6,
        memo_misses: 7,
        mixes_done: 8,
        online_epochs: 9,
        online_remaps: 10,
        serve_requests: 11,
        serve_errors: 12,
        serve_batches: 13,
        recovery_replays: 14,
        quarantine_trips: 15,
        degraded_replies: 16,
        journal_bytes: 17,
        domain_remaps: vec![101, 0, 103],
        par_domain_steps: 18,
        step_threads: 19,
        quantum_step_ns: 20,
        fleet_routes: 21,
        fleet_rebalance_moves: 22,
        tenant_sheds: 23,
        fleet_backend_errors: 24,
        fleet_warm_handoffs: 25,
        fleet_cold_fallbacks: 26,
        fleet_flaps_suppressed: 27,
        membership_epochs: 28,
        whatif_requests: 29,
        stream_events: 30,
        explanations_emitted: 31,
    }
}

/// The 31 scalars as little-endian `u64`s, then the `domain_remaps`
/// count and slots — shared tail of both v2 frames.
const COUNTERS_HEX: &str = concat!(
    "0100000000000000020000000000000003000000000000000400000000000000",
    "0500000000000000060000000000000007000000000000000800000000000000",
    "09000000000000000a000000000000000b000000000000000c00000000000000",
    "0d000000000000000e000000000000000f000000000000001000000000000000",
    "1100000000000000120000000000000013000000000000001400000000000000",
    "1500000000000000160000000000000017000000000000001800000000000000",
    "19000000000000001a000000000000001b000000000000001c00000000000000",
    "1d000000000000001e000000000000001f00000000000000",
    "03000000",
    "650000000000000000000000000000006700000000000000",
);

const COUNTERS_JSON: &str = concat!(
    r#"{"profile_runs":1,"sim_runs":2,"sim_cycles":3,"l2_accesses":4,"l2_misses":5,"#,
    r#""memo_hits":6,"memo_misses":7,"mixes_done":8,"online_epochs":9,"online_remaps":10,"#,
    r#""serve_requests":11,"serve_errors":12,"serve_batches":13,"recovery_replays":14,"#,
    r#""quarantine_trips":15,"degraded_replies":16,"journal_bytes":17,"#,
    r#""domain_remaps":[101,0,103],"par_domain_steps":18,"step_threads":19,"#,
    r#""quantum_step_ns":20,"fleet_routes":21,"fleet_rebalance_moves":22,"#,
    r#""tenant_sheds":23,"fleet_backend_errors":24,"fleet_warm_handoffs":25,"#,
    r#""fleet_cold_fallbacks":26,"fleet_flaps_suppressed":27,"membership_epochs":28,"#,
    r#""whatif_requests":29,"stream_events":30,"explanations_emitted":31}"#,
);

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn encoded(codec: &dyn FrameCodec, reply: &Response) -> Vec<u8> {
    let mut out = Vec::new();
    codec.encode_reply(reply, &mut out).expect("encode");
    out
}

fn decoded(codec: &dyn FrameCodec, bytes: &[u8]) -> Response {
    let (consumed, payload) = codec
        .split_frame(bytes)
        .expect("framing")
        .expect("a whole frame");
    assert_eq!(consumed, bytes.len());
    codec.decode_reply(payload).expect("decode")
}

#[test]
fn metrics_reply_bytes_are_pinned() {
    let reply = Response::Metrics(distinct());

    // 277-byte payload, then the `Metrics` tag.
    let v2 = encoded(&V2Codec, &reply);
    assert_eq!(hex(&v2), format!("1501000005{COUNTERS_HEX}"));
    match decoded(&V2Codec, &v2) {
        Response::Metrics(back) => assert_eq!(back, distinct()),
        other => panic!("decoded {other:?}"),
    }

    let v1 = encoded(&V1Codec, &reply);
    assert_eq!(
        String::from_utf8(v1).unwrap(),
        format!("{{\"Metrics\":{COUNTERS_JSON}}}\n")
    );
}

#[test]
fn fleet_metrics_reply_bytes_are_pinned() {
    let reply = Response::FleetMetrics(FleetSnapshot {
        epoch: 7,
        backends: vec![BackendStat {
            addr: "127.0.0.1:7411".into(),
            healthy: true,
            groups: 3,
            proxied: 4,
            errors: 5,
        }],
        aggregate: distinct(),
    });

    let v2 = encoded(&V2Codec, &reply);
    assert_eq!(
        hex(&v2),
        format!(
            "4c0100000c{}{}{}{}{COUNTERS_HEX}",
            "0700000000000000",                                 // epoch
            "01000000",                                         // one backend
            "0e0000003132372e302e302e313a3734313101",           // addr, healthy
            "030000000000000004000000000000000500000000000000", // groups, proxied, errors
        )
    );
    match decoded(&V2Codec, &v2) {
        Response::FleetMetrics(back) => assert_eq!(back.aggregate, distinct()),
        other => panic!("decoded {other:?}"),
    }

    let v1 = encoded(&V1Codec, &reply);
    assert_eq!(
        String::from_utf8(v1).unwrap(),
        format!(
            "{{\"FleetMetrics\":{{\"epoch\":7,\"backends\":[{{\"addr\":\"127.0.0.1:7411\",\
             \"healthy\":true,\"groups\":3,\"proxied\":4,\"errors\":5}}],\
             \"aggregate\":{COUNTERS_JSON}}}}}\n"
        )
    );
}
