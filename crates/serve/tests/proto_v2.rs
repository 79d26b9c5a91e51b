//! Property round-trip for the v2 binary codec: every request and reply
//! the protocol can express must survive encode → split → decode →
//! re-encode with byte-identical framing (the encoding is canonical),
//! and every strict prefix of a frame must be reported incomplete
//! rather than misparsed.
//!
//! Values are drawn from a seeded generator rather than per-field
//! strategies: one `u64` seed from the harness fans out into a full
//! protocol value, which keeps the vendored proptest surface small.

use proptest::prelude::*;
use symbio::obs::CounterSnapshot;
use symbio_machine::{Mapping, ProcView, SigSnapshot, ThreadView};
use symbio_online::journal::{EpochRecord, GroupRecord};
use symbio_online::{ComponentGain, Decision, DecisionReason, Explanation};
use symbio_serve::proto::v2::V2Codec;
use symbio_serve::proto::{
    BackendStat, FleetSnapshot, FleetView, FrameCodec, Hello, Request, Response, Welcome,
};

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

    fn chance(&mut self) -> bool {
        self.next() & 1 == 0
    }

    fn f64(&mut self) -> f64 {
        match self.below(8) {
            0 => 0.0,
            1 => -0.0,
            2 => f64::INFINITY,
            3 => f64::MIN_POSITIVE,
            _ => (self.next() as i64 as f64) / 1e6,
        }
    }

    fn string(&mut self) -> String {
        let pool = [
            "",
            "g",
            "load-0",
            "päre",
            "名前",
            "a b\tc",
            "{\"json\":1}\n",
        ];
        pool[self.below(pool.len() as u64) as usize].to_string()
    }

    fn f64s(&mut self, max: u64) -> Vec<f64> {
        (0..self.below(max + 1)).map(|_| self.f64()).collect()
    }

    fn mapping(&mut self) -> Mapping {
        let threads = self.below(5) as usize;
        let cores = 1 + self.below(4) as usize;
        Mapping::new(
            (0..threads)
                .map(|_| self.below(cores as u64) as usize)
                .collect(),
        )
    }

    fn thread(&mut self) -> ThreadView {
        ThreadView {
            tid: self.below(64) as usize,
            pid: self.below(64) as usize,
            name: self.string(),
            occupancy: self.f64(),
            symbiosis: self.f64s(3),
            overlap: self.f64s(3),
            last_occupancy: self.below(1 << 20) as u32,
            last_core: if self.chance() {
                Some(self.below(8) as usize)
            } else {
                None
            },
            samples: self.below(1 << 16),
            filter_len: self.below(1 << 10) as usize,
            l2_miss_rate: self.f64(),
            l2_misses: self.next(),
            retired: self.next(),
        }
    }

    fn snapshot(&mut self) -> SigSnapshot {
        SigSnapshot {
            group: self.string(),
            seq: self.next(),
            now_cycles: self.next(),
            cores: self.below(16) as usize,
            domains: (0..self.below(4)).map(|_| self.below(8) as usize).collect(),
            procs: (0..self.below(3))
                .map(|pid| ProcView {
                    pid: pid as usize,
                    name: self.string(),
                    threads: (0..self.below(3)).map(|_| self.thread()).collect(),
                })
                .collect(),
        }
    }

    fn decision(&mut self) -> Decision {
        let reasons = [
            DecisionReason::Warmup,
            DecisionReason::Initial,
            DecisionReason::Held,
            DecisionReason::Remap,
            DecisionReason::PhaseChange,
            DecisionReason::Quarantined,
            DecisionReason::Duplicate,
        ];
        Decision {
            group: self.string(),
            seq: self.next(),
            mapping: if self.chance() {
                Some(self.mapping())
            } else {
                None
            },
            changed: self.chance(),
            reason: reasons[self.below(reasons.len() as u64) as usize],
            gain: self.f64(),
            votes: self.below(64) as u32,
            window: self.below(64) as u32,
            domains_changed: (0..self.below(3)).map(|_| self.below(8) as usize).collect(),
        }
    }

    fn counters(&mut self) -> CounterSnapshot {
        let scalars = std::array::from_fn(|_| self.next());
        CounterSnapshot::from_scalars(scalars, (0..self.below(4)).map(|_| self.next()).collect())
    }

    fn explanation(&mut self) -> Explanation {
        Explanation {
            seq: self.next(),
            reason: self.string(),
            votes: self.below(64) as u32,
            window: self.below(64) as u32,
            gain: self.f64(),
            switch_cost: self.f64(),
            margin: self.f64(),
            components: (0..self.below(3))
                .map(|_| ComponentGain {
                    domains: (0..self.below(3)).map(|_| self.below(8) as usize).collect(),
                    gain: self.f64(),
                    committed: self.chance(),
                })
                .collect(),
            domains_changed: (0..self.below(3)).map(|_| self.below(8) as usize).collect(),
        }
    }

    fn group_record(&mut self) -> GroupRecord {
        GroupRecord {
            name: self.string(),
            window: (0..self.below(4))
                .map(|_| EpochRecord {
                    seq: self.next(),
                    vote: self.mapping(),
                    cores: self.below(16) as usize,
                    occupancy: self.f64(),
                })
                .collect(),
            current: if self.chance() {
                Some(self.mapping())
            } else {
                None
            },
            epochs: self.next(),
            remaps: self.next(),
            last_seq: if self.chance() {
                Some(self.next())
            } else {
                None
            },
            strikes: self.below(8) as u32,
            quarantined: self.chance(),
            clean: self.below(8) as u32,
        }
    }

    fn strings(&mut self, max: u64) -> Vec<String> {
        (0..self.below(max + 1)).map(|_| self.string()).collect()
    }

    fn backend_stat(&mut self) -> BackendStat {
        BackendStat {
            addr: self.string(),
            healthy: self.chance(),
            groups: self.next(),
            proxied: self.next(),
            errors: self.next(),
        }
    }

    fn request(&mut self) -> Request {
        match self.below(14) {
            0 => Request::Hello(Hello {
                versions: (0..self.below(4)).map(|_| self.below(16) as u32).collect(),
                encodings: (0..self.below(4)).map(|_| self.string()).collect(),
            }),
            1 => Request::Ingest(self.snapshot()),
            2 => Request::IngestBatch((0..self.below(4)).map(|_| self.snapshot()).collect()),
            3 => Request::Map {
                group: self.string(),
            },
            4 => Request::Metrics,
            5 => Request::Route {
                group: self.string(),
            },
            6 => Request::Assign {
                add: self.strings(3),
                remove: self.strings(3),
            },
            7 => Request::FleetMetrics,
            8 => Request::ExportGroup {
                group: self.string(),
            },
            9 => Request::ImportGroup(self.group_record()),
            10 => Request::WhatIf(self.snapshot()),
            11 => Request::Subscribe,
            12 => Request::Explain {
                group: self.string(),
            },
            _ => Request::Shutdown,
        }
    }

    /// A reply without nesting (what a `Batch` may carry).
    fn flat_reply(&mut self) -> Response {
        match self.below(15) {
            0 => Response::Welcome(Welcome {
                version: self.below(16) as u32,
                encoding: self.string(),
                batch_max: self.next(),
            }),
            1 => Response::Decision(self.decision()),
            2 => Response::Map {
                group: self.string(),
                mapping: if self.chance() {
                    Some(self.mapping())
                } else {
                    None
                },
                epochs: self.next(),
                remaps: self.next(),
            },
            3 => Response::Metrics(self.counters()),
            4 => Response::Degraded {
                group: self.string(),
                mapping: if self.chance() {
                    Some(self.mapping())
                } else {
                    None
                },
                message: self.string(),
            },
            5 => Response::Recovering {
                group: self.string(),
                seq: self.next(),
                mapping: if self.chance() {
                    Some(self.mapping())
                } else {
                    None
                },
            },
            6 => Response::Ok,
            7 => Response::Route {
                group: self.string(),
                backend: self.string(),
                epoch: self.next(),
            },
            8 => Response::FleetView(FleetView {
                epoch: self.next(),
                backends: self.strings(3),
                moved: self.next(),
            }),
            9 => Response::FleetMetrics(FleetSnapshot {
                epoch: self.next(),
                backends: (0..self.below(3)).map(|_| self.backend_stat()).collect(),
                aggregate: self.counters(),
            }),
            10 => Response::GroupState {
                group: self.string(),
                record: if self.chance() {
                    Some(self.group_record())
                } else {
                    None
                },
            },
            11 => Response::WhatIf {
                group: self.string(),
                mapping: self.mapping(),
                delta: self.f64(),
                held: self.chance(),
                memo_hit: self.chance(),
            },
            12 => Response::Event {
                decision: self.decision(),
                epochs: self.next(),
                remaps: self.next(),
            },
            13 => Response::Explained {
                group: self.string(),
                explanation: if self.chance() {
                    Some(self.explanation())
                } else {
                    None
                },
            },
            _ => Response::Error {
                kind: self.string(),
                code: self.string(),
                message: self.string(),
                retryable: self.chance(),
            },
        }
    }

    fn reply(&mut self) -> Response {
        if self.below(4) == 0 {
            Response::Batch((0..self.below(4)).map(|_| self.flat_reply()).collect())
        } else {
            self.flat_reply()
        }
    }
}

proptest! {
    #[test]
    fn v2_request_frames_round_trip_canonically(seed in any::<u64>()) {
        let mut gen = Gen::new(seed);
        let request = gen.request();
        let codec = V2Codec;
        let mut bytes = Vec::new();
        codec.encode_request(&request, &mut bytes).expect("encode");
        let (consumed, decoded) = {
            let (consumed, payload) = codec
                .split_frame(&bytes)
                .expect("framing")
                .expect("a whole frame was written");
            (consumed, codec.decode_request(payload).expect("decode"))
        };
        prop_assert_eq!(consumed, bytes.len());
        let mut again = Vec::new();
        codec.encode_request(&decoded, &mut again).expect("re-encode");
        prop_assert_eq!(&bytes, &again);

        // Every strict prefix is incomplete, never misparsed.
        let cut = gen.below(bytes.len() as u64) as usize;
        prop_assert!(codec.split_frame(&bytes[..cut]).expect("prefix framing").is_none());
    }

    #[test]
    fn v2_reply_frames_round_trip_canonically(seed in any::<u64>()) {
        let mut gen = Gen::new(seed);
        let reply = gen.reply();
        let codec = V2Codec;
        let mut bytes = Vec::new();
        codec.encode_reply(&reply, &mut bytes).expect("encode");
        let (consumed, decoded) = {
            let (consumed, payload) = codec
                .split_frame(&bytes)
                .expect("framing")
                .expect("a whole frame was written");
            (consumed, codec.decode_reply(payload).expect("decode"))
        };
        prop_assert_eq!(consumed, bytes.len());
        let mut again = Vec::new();
        codec.encode_reply(&decoded, &mut again).expect("re-encode");
        prop_assert_eq!(&bytes, &again);

        let cut = gen.below(bytes.len() as u64) as usize;
        prop_assert!(codec.split_frame(&bytes[..cut]).expect("prefix framing").is_none());
    }
}
