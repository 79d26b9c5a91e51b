//! Shard threads: each owns one [`OnlineEngine`] (epoch rings,
//! quarantine state, journal segment) outright — no lock, no sharing.
//!
//! A shard round-robins its per-reactor job rings. Each contiguous run
//! of `Ingest` jobs in a ring is one **group commit**: the snapshots are
//! ingested with their journal records only staged, the engine commits
//! them with a single write, and only then are the run's replies pushed
//! into the submitting reactor's completion ring and that reactor's wake
//! pipe nudged — once per run, so write-ahead-of-ack holds per batch. Any
//! other job ends the run first, which keeps per-ring FIFO order; a run
//! is whatever the ring held when its drain began (one job under light
//! load). When every ring is empty the shard parks on its
//! [`ShardSignal`] with a short timeout.
//!
//! Drain: each reactor ends its stream with one [`Job::Barrier`]. SPSC
//! rings are FIFO, so once the shard has collected a barrier from every
//! reactor it has necessarily processed — and journaled — every job
//! enqueued before the drain began (a barrier, like any job that is not
//! an `Ingest`, ends the run before it). It then reports drained and
//! exits.

use super::queue::{Consumer, Producer};
use super::{Completion, Job, ShardSignal, Shared, Token, EVENT_ITEM};
use crate::proto::Response;
use std::collections::HashMap;
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::time::Duration;
use symbio::obs::Counters;
use symbio_online::{DecisionReason, OnlineEngine};

/// Entries a shard's what-if memo may hold before it is cleared whole
/// (bounds hostile clients; real control-plane traffic is tiny).
const WHATIF_MEMO_CAP: usize = 1024;

fn decode_gate() -> symbio::Result<()> {
    symbio::faultpoint!("snapshot_decode");
    Ok(())
}

/// Run one snapshot through the engine, mirroring the reply shape of the
/// pre-sharded daemon: quarantined groups answer `recovering`, engine
/// errors become typed error replies. Journal records are only staged:
/// the reply may be released after the run's commit ([`release_run`]).
fn ingest_one(
    engine: &mut OnlineEngine,
    snapshot: &symbio_machine::SigSnapshot,
    shared: &Shared,
) -> Response {
    if let Err(e) = decode_gate() {
        Counters::add(&shared.counters.serve_errors, 1);
        return Response::from_error(&e);
    }
    match engine.ingest_staged(snapshot) {
        Ok(decision) => {
            if decision.reason == DecisionReason::Quarantined {
                Counters::add(&shared.counters.degraded_replies, 1);
                Response::Recovering {
                    group: decision.group,
                    seq: decision.seq,
                    mapping: decision.mapping,
                }
            } else {
                Response::Decision(decision)
            }
        }
        Err(e) => {
            Counters::add(&shared.counters.serve_errors, 1);
            Response::from_error(&e)
        }
    }
}

/// The shard's way back to the reactors: one completion ring and one
/// wake pipe per reactor, and which reactors hold completions they have
/// not been woken for yet.
struct Outbox {
    completions: Vec<Producer<Completion>>,
    wakes: Vec<UnixStream>,
    unwoken: Vec<bool>,
}

impl Outbox {
    /// Push one completion to reactor `ri`, spinning briefly if its ring
    /// is momentarily full (the reactor drains completions every loop, so
    /// this cannot stall for long).
    fn push(&mut self, ri: usize, mut completion: Completion) {
        while let Err(back) = self.completions[ri].push(completion) {
            completion = back;
            let _ = self.wakes[ri].write(&[1]);
            std::thread::yield_now();
        }
        self.unwoken[ri] = true;
    }

    /// Nudge the wake pipe of every reactor pushed to since the last
    /// call, once each.
    fn wake(&mut self) {
        for (wake, unwoken) in self.wakes.iter_mut().zip(&mut self.unwoken) {
            if std::mem::take(unwoken) {
                // A full pipe just means a wake is already pending.
                let _ = wake.write(&[1]);
            }
        }
    }

    /// Answer one job that is not part of a run.
    fn reply(&mut self, ri: usize, token: Token, reply: Response) {
        self.push(ri, Completion { token, reply });
        self.wake();
    }

    /// Push one decision event to every subscribed session, lossy: a full
    /// completion ring drops the event rather than stalling the shard
    /// (the watcher missed a frame; the next decision catches it up).
    /// Successful pushes count in `stream_events`.
    fn fan_out_event(&mut self, shared: &Shared, event: &Response) {
        for (ri, session) in shared.subscriber_list() {
            if ri >= self.completions.len() {
                continue;
            }
            let completion = Completion {
                token: Token {
                    session,
                    serial: 0,
                    item: Some(EVENT_ITEM),
                },
                reply: event.clone(),
            };
            if self.completions[ri].push(completion).is_ok() {
                Counters::add(&shared.counters.stream_events, 1);
                self.unwoken[ri] = true;
            }
        }
    }
}

/// One ingested snapshot whose journal records are staged but not yet
/// committed: its reply, and the decision event it raised if anyone is
/// subscribed.
type StagedAck = (Completion, Option<Response>);

/// End reactor `ri`'s run of ingests: commit what they staged with one
/// journal write, and only then release their replies — refreshing the
/// last-good cache and fanning out each decision's event right behind
/// its reply, as an unbatched ingest would — and wake each reactor once.
fn release_run(
    engine: &mut OnlineEngine,
    run: &mut Vec<StagedAck>,
    ri: usize,
    out: &mut Outbox,
    shared: &Shared,
) {
    if run.is_empty() {
        return;
    }
    engine.commit();
    for (completion, event) in run.drain(..) {
        match &completion.reply {
            Response::Decision(symbio_online::Decision {
                group,
                mapping: Some(m),
                ..
            })
            | Response::Recovering {
                group,
                mapping: Some(m),
                ..
            } => shared.remember(group, m),
            _ => {}
        }
        out.push(ri, completion);
        if let Some(event) = event {
            out.fan_out_event(shared, &event);
        }
    }
    out.wake();
}

/// Answer one what-if query, consulting `memo` first. The memo key is
/// the snapshot's canonical JSON — collision-proof, and cheap next to
/// the evaluation it saves. Any engine mutation clears the memo (the
/// caller does), so a hit is always computed against current state.
fn what_if_one(
    engine: &mut OnlineEngine,
    memo: &mut HashMap<String, Response>,
    snapshot: &symbio_machine::SigSnapshot,
    shared: &Shared,
) -> Response {
    Counters::add(&shared.counters.whatif_requests, 1);
    let key = serde_json::to_string(snapshot).unwrap_or_default();
    if !key.is_empty() {
        if let Some(hit) = memo.get(&key) {
            Counters::add(&shared.counters.memo_hits, 1);
            if let Response::WhatIf {
                group,
                mapping,
                delta,
                held,
                ..
            } = hit
            {
                return Response::WhatIf {
                    group: group.clone(),
                    mapping: mapping.clone(),
                    delta: *delta,
                    held: *held,
                    memo_hit: true,
                };
            }
            return hit.clone();
        }
    }
    Counters::add(&shared.counters.memo_misses, 1);
    let reply = match engine.what_if(snapshot) {
        Ok(answer) => Response::WhatIf {
            group: answer.group,
            mapping: answer.mapping,
            delta: answer.delta,
            held: answer.held,
            memo_hit: false,
        },
        Err(e) => {
            Counters::add(&shared.counters.serve_errors, 1);
            Response::from_error(&e)
        }
    };
    if !key.is_empty() {
        if memo.len() >= WHATIF_MEMO_CAP {
            memo.clear();
        }
        memo.insert(key, reply.clone());
    }
    reply
}

/// The shard thread body.
pub(crate) fn shard_loop(
    mut engine: OnlineEngine,
    mut jobs: Vec<Consumer<Job>>,
    completions: Vec<Producer<Completion>>,
    wakes: Vec<UnixStream>,
    signal: &ShardSignal,
    shared: &Shared,
) {
    let reactors = jobs.len();
    let mut barriers = 0usize;
    let mut out = Outbox {
        unwoken: vec![false; wakes.len()],
        completions,
        wakes,
    };
    let mut run: Vec<StagedAck> = Vec::new();
    // What-if answers memoized against the engine state they were
    // computed under; cleared on every mutation (ingest/import).
    let mut whatif_memo: HashMap<String, Response> = HashMap::new();
    loop {
        let mut progressed = false;
        for (ri, queue) in jobs.iter_mut().enumerate() {
            // Take what the ring holds now, not what arrives meanwhile: a
            // reactor that keeps its ring non-empty must not be able to
            // postpone the run's commit and acks indefinitely.
            for _ in 0..queue.len() {
                let Some(job) = queue.pop() else {
                    break;
                };
                progressed = true;
                if !matches!(job, Job::Ingest { .. }) {
                    release_run(&mut engine, &mut run, ri, &mut out, shared);
                }
                match job {
                    Job::Ingest { token, snapshot } => {
                        whatif_memo.clear();
                        let reply = ingest_one(&mut engine, &snapshot, shared);
                        let event = match &reply {
                            Response::Decision(d) if shared.has_subscribers() => {
                                Some(Response::Event {
                                    epochs: engine.epochs(&d.group),
                                    remaps: engine.remaps(&d.group),
                                    decision: d.clone(),
                                })
                            }
                            _ => None,
                        };
                        run.push((Completion { token, reply }, event));
                    }
                    Job::Map { token, group } => {
                        let reply = Response::Map {
                            mapping: engine.mapping(&group).cloned(),
                            epochs: engine.epochs(&group),
                            remaps: engine.remaps(&group),
                            group,
                        };
                        out.reply(ri, token, reply);
                    }
                    Job::ExportGroup { token, group } => {
                        // The exporter keeps its copy: the coordinator
                        // flips the route after the import lands, and
                        // duplicate suppression makes any stale-owner
                        // replay idempotent.
                        let reply = Response::GroupState {
                            record: engine.export_group(&group),
                            group,
                        };
                        out.reply(ri, token, reply);
                    }
                    Job::WhatIf { token, snapshot } => {
                        let reply = what_if_one(&mut engine, &mut whatif_memo, &snapshot, shared);
                        out.reply(ri, token, reply);
                    }
                    Job::Explain { token, group } => {
                        let reply = Response::Explained {
                            explanation: engine.explanation(&group).cloned(),
                            group,
                        };
                        out.reply(ri, token, reply);
                    }
                    Job::ImportGroup { token, record } => {
                        whatif_memo.clear();
                        // Journaled before it returns, so before the ack.
                        engine.import_group(&record);
                        if let Some(m) = &record.current {
                            shared.remember(&record.name, m);
                        }
                        out.reply(ri, token, Response::Ok);
                    }
                    Job::Barrier => barriers += 1,
                }
            }
            release_run(&mut engine, &mut run, ri, &mut out, shared);
        }
        if barriers == reactors {
            // Every reactor's stream is closed and fully processed: the
            // journal holds everything enqueued before the drain.
            shared.note_shard_drained();
            // Make sure every reactor wakes to observe the drain state.
            for w in &mut out.wakes {
                let _ = w.write(&[1]);
            }
            return;
        }
        if !progressed {
            signal.wait(Duration::from_millis(5));
        }
    }
}
