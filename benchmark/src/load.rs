//! The load generator: wire connections, frame construction, and the
//! closed-loop and open-loop drivers.
//!
//! One process generates all load with at most `nproc` threads. Closed
//! loop: one thread per connection, the next frame goes out when the
//! previous reply is in. Open loop: one pacing thread sends on a fixed
//! schedule over both connections while one receiving thread collects
//! replies; latency is timed from each request's *due* time, and how
//! late the pacer itself ran is reported beside it.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use symbio_machine::SigSnapshot;
use symbio_serve::proto::Hello;
use symbio_serve::server::codec::{Chunk, FrameBuffer};
use symbio_serve::{Encoding, Request, Response};

use crate::inputs::{GroupInput, MixedOp, ServeInputs, TRACE_EPOCHS};
use crate::util::{poll_readable, PollFd, POLLIN};

/// Connect/read/write deadline on every benchmark socket: far above any
/// healthy reply time, so hitting it is a failure, not a measurement.
const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// One negotiated connection to a daemon. `symbio_serve::WireClient`
/// does the same for a closed loop, but hides its socket; the open loop
/// needs the descriptor to poll and a second handle to write from the
/// pacing thread.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    rx: FrameBuffer,
    encoding: Encoding,
    out: Vec<u8>,
}

impl Conn {
    /// Connect and negotiate `encoding` with a `Hello`.
    pub fn connect(addr: SocketAddr, encoding: Encoding) -> Result<Conn, String> {
        let stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)
            .map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(IO_TIMEOUT))
            .map_err(|e| e.to_string())?;
        stream
            .set_write_timeout(Some(IO_TIMEOUT))
            .map_err(|e| e.to_string())?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let mut conn = Conn {
            stream,
            rx: FrameBuffer::new(),
            encoding: Encoding::JsonLines,
            out: Vec::new(),
        };
        match conn.exchange(&Request::Hello(Hello::preferring(encoding)))? {
            Response::Welcome(w) if w.encoding == encoding.name() => conn.encoding = encoding,
            other => {
                return Err(format!(
                    "negotiating {} with {addr}: got {other:?}",
                    encoding.name()
                ))
            }
        }
        Ok(conn)
    }

    /// Encode and send one request frame.
    pub fn send(&mut self, request: &Request) -> Result<(), String> {
        self.out.clear();
        self.encoding
            .codec()
            .encode_request(request, &mut self.out)
            .map_err(|e| e.to_string())?;
        self.stream
            .write_all(&self.out)
            .map_err(|e| format!("send: {e}"))
    }

    /// A frame already buffered, if a whole one is.
    fn buffered(&mut self) -> Result<Option<Response>, String> {
        match self
            .rx
            .next_reply(self.encoding)
            .map_err(|e| e.to_string())?
        {
            Chunk::Frame(reply) => Ok(Some(reply)),
            Chunk::Malformed(e) => Err(format!("reply did not decode: {e}")),
            Chunk::Incomplete => Ok(None),
        }
    }

    /// One `read` from the socket into the frame buffer.
    fn fill(&mut self) -> Result<(), String> {
        let mut buf = [0u8; 64 * 1024];
        match self.stream.read(&mut buf) {
            Ok(0) => Err("daemon closed the connection".to_string()),
            Ok(n) => {
                self.rx.extend(&buf[..n]);
                Ok(())
            }
            Err(e) => Err(format!("recv: {e}")),
        }
    }

    /// Receive one reply frame (blocking up to the I/O timeout).
    pub fn recv(&mut self) -> Result<Response, String> {
        loop {
            if let Some(reply) = self.buffered()? {
                return Ok(reply);
            }
            self.fill()?;
        }
    }

    /// One request/reply round trip.
    pub fn exchange(&mut self, request: &Request) -> Result<Response, String> {
        self.send(request)?;
        self.recv()
    }
}

/// A group's position in its stream.
#[derive(Debug, Clone)]
pub struct Cursor {
    /// The group.
    pub group: GroupInput,
    /// Epochs acknowledged so far; the next frame starts at this seq.
    pub sent: u64,
    /// Whether every epoch sent so far was acknowledged, i.e. whether an
    /// engine fed `0..sent` reproduces the daemon's state for the group.
    /// The open loop clears it for a group whose request was shed or
    /// lost at a rate past capacity.
    pub reproducible: bool,
}

/// Prebuilt ingest requests: per trace, one request per distinct batch
/// position, stamped with the group and sequence numbers just before
/// each send, so the timed loop clones nothing.
#[derive(Debug)]
pub struct IngestFrames {
    batch: usize,
    /// `[trace][variant]`.
    templates: Vec<Vec<Request>>,
}

impl IngestFrames {
    /// Frames of `batch` epochs over `traces` (`batch` divides
    /// [`TRACE_EPOCHS`] or is a multiple of it).
    pub fn new(traces: &[Vec<SigSnapshot>], batch: usize) -> IngestFrames {
        assert!(
            batch >= 1
                && (TRACE_EPOCHS.is_multiple_of(batch) || batch.is_multiple_of(TRACE_EPOCHS)),
            "batch {batch} does not tile a {TRACE_EPOCHS}-epoch trace"
        );
        let variants = (TRACE_EPOCHS / batch).max(1);
        let templates = traces
            .iter()
            .map(|trace| {
                (0..variants)
                    .map(|v| {
                        let snaps: Vec<SigSnapshot> = (0..batch)
                            .map(|k| trace[(v * batch + k) % TRACE_EPOCHS].clone())
                            .collect();
                        match batch {
                            1 => Request::Ingest(snaps.into_iter().next().expect("batch >= 1")),
                            _ => Request::IngestBatch(snaps),
                        }
                    })
                    .collect()
            })
            .collect();
        IngestFrames { batch, templates }
    }

    /// Epochs per frame.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// The group's next frame, stamped with its name and sequence
    /// numbers.
    pub fn stamp(&mut self, cursor: &Cursor) -> &Request {
        let variants = self.templates[cursor.group.trace].len();
        let variant = (cursor.sent as usize / self.batch) % variants;
        let request = &mut self.templates[cursor.group.trace][variant];
        let snaps: &mut [SigSnapshot] = match request {
            Request::Ingest(snap) => std::slice::from_mut(snap),
            Request::IngestBatch(snaps) => snaps,
            _ => unreachable!("templates hold only ingest requests"),
        };
        for (k, snap) in snaps.iter_mut().enumerate() {
            snap.group.clone_from(&cursor.group.name);
            snap.seq = cursor.sent + k as u64;
        }
        request
    }
}

/// The snapshot a group's stream carries at epoch `seq` — what the
/// reference engine is fed.
pub fn stream_snapshot(inputs: &ServeInputs, group: &GroupInput, seq: u64) -> SigSnapshot {
    let mut snap = inputs.traces[group.trace][seq as usize % TRACE_EPOCHS].clone();
    snap.group.clone_from(&group.name);
    snap.seq = seq;
    snap
}

/// Whether every item of an ingest reply is a fresh decision for the
/// expected group and sequence numbers. Shed (`Degraded`), quarantined
/// and error items all count as failures.
fn ingest_acknowledged(reply: &Response, cursor: &Cursor, batch: usize) -> bool {
    let decided = |item: &Response, seq: u64| matches!(item, Response::Decision(d) if d.group == cursor.group.name && d.seq == seq);
    match reply {
        Response::Batch(items) => {
            items.len() == batch
                && items
                    .iter()
                    .enumerate()
                    .all(|(k, item)| decided(item, cursor.sent + k as u64))
        }
        single => batch == 1 && decided(single, cursor.sent),
    }
}

/// What one closed-loop connection observed.
#[derive(Debug, Default)]
pub struct ConnStats {
    /// Round-trip time of every frame, microseconds.
    pub frame_us: Vec<f64>,
    /// Round-trip time of the read frames alone, microseconds.
    pub read_us: Vec<f64>,
    /// Acknowledged ingest decisions per timed repetition.
    pub decisions: Vec<u64>,
    /// Frames sent.
    pub frames: u64,
    /// Frames whose reply was missing, shed, refused or wrong.
    pub failed: u64,
    /// `WhatIf` replies that were repeats, and how many of those came
    /// from the shard's memo.
    pub whatif_repeats: u64,
    /// See [`ConnStats::whatif_repeats`].
    pub whatif_memo_hits: u64,
    /// What the first failed frame got back, for the run's notes.
    pub first_failure: Option<String>,
}

/// A reply (or transport error), cut short for a note.
fn brief<T: std::fmt::Debug>(what: &T) -> String {
    let mut text = format!("{what:?}");
    if text.len() > 240 {
        text.truncate(text.floor_char_boundary(240));
        text.push('…');
    }
    text
}

/// The timed window every closed-loop connection shares: `reps`
/// repetitions of `rep`, back to back from `start`.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// When repetition 0 begins.
    pub start: Instant,
    /// Length of one repetition.
    pub rep: Duration,
    /// Repetitions.
    pub reps: usize,
}

/// One closed-loop connection: frames back to back over its groups in
/// turn until each repetition's deadline, following `schedule` (empty =
/// all ingests). `cursors` carry on from the warm-up and are left where
/// the stream stopped, for the reference check.
pub fn closed_loop(
    conn: &mut Conn,
    frames: &mut IngestFrames,
    cursors: &mut [Cursor],
    schedule: &[MixedOp],
    inputs: &ServeInputs,
    window: Window,
) -> ConnStats {
    let mut stats = ConnStats::default();
    let batch = frames.batch();
    let (mut turn, mut tick) = (0usize, 0usize);
    let mut fresh_seq = 1u64 << 40;
    let mut last_whatif: Option<Request> = None;
    for r in 0..window.reps {
        let deadline = window.start + window.rep * (r as u32 + 1);
        let mut decisions = 0u64;
        while Instant::now() < deadline {
            let op = schedule
                .get(tick % schedule.len().max(1))
                .copied()
                .unwrap_or(MixedOp::Ingest);
            tick += 1;
            let cursor = &mut cursors[turn % cursors.len()];
            let t0 = Instant::now();
            // `Err(text)` describes a failed frame.
            let outcome: Result<(), String> = match op {
                MixedOp::Ingest => {
                    turn += 1;
                    match conn.exchange(frames.stamp(cursor)) {
                        Ok(reply) if ingest_acknowledged(&reply, cursor, batch) => {
                            cursor.sent += batch as u64;
                            decisions += batch as u64;
                            Ok(())
                        }
                        other => Err(brief(&other)),
                    }
                }
                MixedOp::Map => match conn.exchange(&Request::Map {
                    group: cursor.group.name.clone(),
                }) {
                    Ok(Response::Map { .. }) => Ok(()),
                    other => Err(brief(&other)),
                },
                MixedOp::Explain => match conn.exchange(&Request::Explain {
                    group: cursor.group.name.clone(),
                }) {
                    Ok(Response::Explained { .. }) => Ok(()),
                    other => Err(brief(&other)),
                },
                MixedOp::Metrics => match conn.exchange(&Request::Metrics) {
                    Ok(Response::Metrics(_)) => Ok(()),
                    other => Err(brief(&other)),
                },
                MixedOp::WhatIfFresh => {
                    // A sequence number the shard has never seen makes
                    // the snapshot bytes, and so the memo key, new.
                    fresh_seq += 1;
                    let request =
                        Request::WhatIf(stream_snapshot(inputs, &cursor.group, fresh_seq));
                    let outcome = match conn.exchange(&request) {
                        Ok(Response::WhatIf { .. }) => Ok(()),
                        other => Err(brief(&other)),
                    };
                    last_whatif = Some(request);
                    outcome
                }
                MixedOp::WhatIfRepeat => match &last_whatif {
                    Some(request) => match conn.exchange(request) {
                        Ok(Response::WhatIf { memo_hit, .. }) => {
                            stats.whatif_repeats += 1;
                            stats.whatif_memo_hits += u64::from(memo_hit);
                            Ok(())
                        }
                        other => Err(brief(&other)),
                    },
                    None => Ok(()),
                },
            };
            let us = t0.elapsed().as_secs_f64() * 1e6;
            stats.frame_us.push(us);
            if op != MixedOp::Ingest {
                stats.read_us.push(us);
            }
            stats.frames += 1;
            if let Err(text) = outcome {
                stats.failed += 1;
                stats
                    .first_failure
                    .get_or_insert(format!("{op:?} -> {text}"));
            }
        }
        stats.decisions.push(decisions);
    }
    stats
}

/// One step of the open-loop ladder.
#[derive(Debug, Clone)]
pub struct RateStep {
    /// Offered rate, requests per second over all connections.
    pub rate: u32,
    /// Latency from due time of every acknowledged request, µs.
    pub latency_us: Vec<f64>,
    /// Requests sent.
    pub sent: u64,
    /// Requests lost, shed or wrongly answered.
    pub failed: u64,
    /// Requests still unanswered when the step's schedule ended.
    pub backlog_at_end: u64,
}

/// What the open-loop run observed.
#[derive(Debug)]
pub struct OpenLoopStats {
    /// One entry per (pass, rate), in send order.
    pub steps: Vec<RateStep>,
    /// How late after its due time each request was actually sent, µs.
    pub gen_late_us: Vec<f64>,
    /// What the first wrongly answered request got back.
    pub first_failure: Option<String>,
}

/// Per answered request: its ladder step and its latency from due time
/// in µs, or what came back instead of its decision.
type Seen = Vec<(usize, Result<f64, String>)>;

/// `(connection, group index)` of a cursor.
type GroupAt = (usize, usize);

/// What the pacer tells the receiver about each request it sends.
struct Sent {
    due: Instant,
    step: usize,
    group: GroupAt,
    seq: u64,
}

/// Sleep until shortly before `due`, then spin: even with a tight timer
/// slack a sleep overshoots by several microseconds, and a pure spin
/// would steal a core from the daemon for the whole run.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(25);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Drive `schedule` — steps of (mean requests per second, duration) —
/// open loop over `conns`, single `Ingest` frames, groups in turn, with
/// Poisson arrivals drawn from `arrival_seed`. Between
/// steps the pacer waits for the in-flight requests to drain (bounded),
/// so one step's backlog is not charged to the next.
pub fn open_loop(
    conns: Vec<Conn>,
    frames: &mut IngestFrames,
    cursors: &mut [Vec<Cursor>],
    schedule: &[(u32, Duration)],
    arrival_seed: u64,
) -> Result<OpenLoopStats, String> {
    assert_eq!(
        frames.batch(),
        1,
        "the open loop sends single-ingest frames"
    );
    let n = conns.len();
    let mut writers = Vec::new();
    let mut readers = Vec::new();
    let mut channels = Vec::new();
    for conn in conns {
        let write_half = conn.stream.try_clone().map_err(|e| e.to_string())?;
        let (tx, rx) = mpsc::channel::<Sent>();
        writers.push((write_half, tx));
        readers.push(conn);
        channels.push(rx);
    }
    let in_flight = std::sync::atomic::AtomicI64::new(0);
    let pacer_done = std::sync::atomic::AtomicBool::new(false);
    use std::sync::atomic::Ordering::SeqCst;

    let mut steps: Vec<RateStep> = schedule
        .iter()
        .map(|&(rate, _)| RateStep {
            rate,
            latency_us: Vec::new(),
            sent: 0,
            failed: 0,
            backlog_at_end: 0,
        })
        .collect();
    let mut gen_late_us = Vec::new();
    let encoding = readers[0].encoding;

    let (seen, unacknowledged) =
        std::thread::scope(|scope| -> Result<(Seen, Vec<GroupAt>), String> {
            let (in_flight, pacer_done) = (&in_flight, &pacer_done);
            let receiver = scope.spawn(move || -> Result<(Seen, Vec<GroupAt>), String> {
                let mut seen: Seen = Vec::new();
                let mut unacknowledged: Vec<GroupAt> = Vec::new();
                let mut pending: Vec<VecDeque<Sent>> = (0..n).map(|_| VecDeque::new()).collect();
                let mut fds: Vec<PollFd> = readers
                    .iter()
                    .map(|c| PollFd {
                        fd: c.stream.as_raw_fd(),
                        events: POLLIN,
                        revents: 0,
                    })
                    .collect();
                let mut quiet_since: Option<Instant> = None;
                loop {
                    let ready = poll_readable(&mut fds, 20).map_err(|e| format!("poll: {e}"))?;
                    for c in 0..n {
                        if fds[c].revents == 0 {
                            continue;
                        }
                        fds[c].revents = 0;
                        readers[c].fill()?;
                        while let Some(reply) = readers[c].buffered()? {
                            let now = Instant::now();
                            while let Ok(sent) = channels[c].try_recv() {
                                pending[c].push_back(sent);
                            }
                            let sent = pending[c]
                                .pop_front()
                                .ok_or("a reply arrived with no request outstanding")?;
                            let acknowledged =
                                matches!(&reply, Response::Decision(d) if d.seq == sent.seq);
                            seen.push((
                                sent.step,
                                if acknowledged {
                                    Ok((now - sent.due).as_secs_f64() * 1e6)
                                } else {
                                    unacknowledged.push(sent.group);
                                    Err(brief(&reply))
                                },
                            ));
                            in_flight.fetch_sub(1, SeqCst);
                        }
                    }
                    if pacer_done.load(SeqCst) {
                        // Replies still owed get two quiet seconds; what is
                        // outstanding after that was lost.
                        let drained = in_flight.load(SeqCst) <= 0;
                        if ready > 0 {
                            quiet_since = None;
                        }
                        let gave_up = !drained
                            && ready == 0
                            && quiet_since.get_or_insert_with(Instant::now).elapsed()
                                > Duration::from_secs(2);
                        if drained || gave_up {
                            for c in 0..n {
                                unacknowledged.extend(pending[c].iter().map(|s| s.group));
                                unacknowledged.extend(channels[c].try_iter().map(|s| s.group));
                            }
                            return Ok((seen, unacknowledged));
                        }
                    }
                }
            });

            // The pacer runs on this thread.
            crate::util::tighten_timer_slack();
            let mut turn = 0usize;
            let mut arrivals = symbio_workloads::SplitMix64::new(arrival_seed);
            let mut pace = || -> Result<(), String> {
                for (i, step_stats) in steps.iter_mut().enumerate() {
                    let mean_gap = 1.0 / f64::from(step_stats.rate);
                    let mut offset = 0.0f64;
                    let count =
                        (schedule[i].1.as_secs_f64() * f64::from(step_stats.rate)).round() as u64;
                    let t0 = Instant::now() + Duration::from_millis(1);
                    let mut out = Vec::with_capacity(2048);
                    for _ in 0..count {
                        // Build the frame first, so the wait ends at the write.
                        let c = turn % n;
                        let g = (turn / n) % cursors[c].len();
                        turn += 1;
                        let cursor = &mut cursors[c][g];
                        out.clear();
                        encoding
                            .codec()
                            .encode_request(frames.stamp(cursor), &mut out)
                            .map_err(|e| e.to_string())?;
                        // Poisson arrivals (independent users): exponential
                        // gaps with the step's mean, drawn from the seed.
                        offset += -mean_gap * (1.0 - arrivals.f64()).ln();
                        let due = t0 + Duration::from_secs_f64(offset);
                        wait_until(due);
                        let (stream, tx) = &mut writers[c];
                        tx.send(Sent {
                            due,
                            step: i,
                            group: (c, g),
                            seq: cursor.sent,
                        })
                        .map_err(|_| "receiver thread is gone".to_string())?;
                        in_flight.fetch_add(1, SeqCst);
                        gen_late_us.push((Instant::now() - due).as_secs_f64() * 1e6);
                        stream.write_all(&out).map_err(|e| format!("send: {e}"))?;
                        cursor.sent += 1;
                        step_stats.sent += 1;
                    }
                    step_stats.backlog_at_end = in_flight.load(SeqCst).max(0) as u64;
                    let drain_until = Instant::now() + Duration::from_millis(500);
                    while in_flight.load(SeqCst) > 0 && Instant::now() < drain_until {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
                Ok(())
            };
            let paced = pace();
            pacer_done.store(true, SeqCst);
            let received = receiver
                .join()
                .map_err(|_| "receiver thread panicked".to_string())?;
            paced?;
            received
        })?;
    for (c, g) in unacknowledged {
        cursors[c][g].reproducible = false;
    }

    let mut first_failure = None;
    for (step, latency) in seen {
        match latency {
            Ok(us) => steps[step].latency_us.push(us),
            Err(text) => {
                steps[step].failed += 1;
                first_failure.get_or_insert(format!("at {} req/s -> {text}", steps[step].rate));
            }
        }
    }
    for s in &mut steps {
        // Sent but never answered.
        s.failed += s.sent - (s.latency_us.len() as u64 + s.failed).min(s.sent);
    }
    Ok(OpenLoopStats {
        steps,
        gen_late_us,
        first_failure,
    })
}
