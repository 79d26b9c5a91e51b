//! Proto v2: length-prefixed binary frames.
//!
//! Framing is `[u32 LE payload length][payload]`; the payload's first
//! byte is a tag selecting the [`Request`]/[`Response`] variant, and the
//! rest is hand-packed little-endian fields (no self-description — both
//! ends build the same layout from this module). Compared to
//! json-lines, a binary ingest frame is ~3–4× smaller and decodes
//! without a JSON parse on the hot path, and `IngestBatch` carries many
//! epochs per read.
//!
//! Primitive layouts:
//!
//! * integers: `u8` raw, `u32`/`u64` little-endian, `usize` as `u32`
//!   (every on-wire count — cores, tids, domains — is small by
//!   construction; an overflow is a protocol error, not a truncation);
//! * `f64`: IEEE-754 bits, little-endian;
//! * `bool`: one byte, `0`/`1`;
//! * `String`: `u32` byte length + UTF-8 bytes;
//! * `Option<T>`: one presence byte + `T` when present;
//! * `Vec<T>`: `u32` element count + elements.
//!
//! A frame whose length prefix exceeds [`MAX_FRAME`] cannot be
//! resynchronized (the daemon closes the connection); a well-framed
//! payload with a bad tag or torn field is a per-frame protocol error
//! and the connection stays usable. The committed round-trip property
//! test (`tests/proto_v2.rs`) pins frame → decode → encode → frame
//! stability.

use super::{
    BackendStat, Encoding, FleetSnapshot, FleetView, FrameCodec, Hello, Request, Response, Welcome,
};
use symbio::obs::CounterSnapshot;
use symbio::Error;
use symbio_machine::{Mapping, ProcView, SigSnapshot, ThreadView};
use symbio_online::journal::{EpochRecord, GroupRecord};
use symbio_online::{ComponentGain, Decision, DecisionReason, Explanation};

/// Hard cap on one frame's payload bytes (framing error past this — the
/// stream cannot be trusted to resynchronize).
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

// Request payload tags.
const REQ_HELLO: u8 = 1;
const REQ_INGEST: u8 = 2;
const REQ_INGEST_BATCH: u8 = 3;
const REQ_MAP: u8 = 4;
const REQ_METRICS: u8 = 5;
const REQ_SHUTDOWN: u8 = 6;
const REQ_ROUTE: u8 = 7;
const REQ_ASSIGN: u8 = 8;
const REQ_FLEET_METRICS: u8 = 9;
const REQ_EXPORT_GROUP: u8 = 10;
const REQ_IMPORT_GROUP: u8 = 11;
const REQ_WHAT_IF: u8 = 12;
const REQ_SUBSCRIBE: u8 = 13;
const REQ_EXPLAIN: u8 = 14;

// Response payload tags.
const RSP_WELCOME: u8 = 1;
const RSP_DECISION: u8 = 2;
const RSP_BATCH: u8 = 3;
const RSP_MAP: u8 = 4;
const RSP_METRICS: u8 = 5;
const RSP_DEGRADED: u8 = 6;
const RSP_RECOVERING: u8 = 7;
const RSP_OK: u8 = 8;
const RSP_ERROR: u8 = 9;
const RSP_ROUTE: u8 = 10;
const RSP_FLEET_VIEW: u8 = 11;
const RSP_FLEET_METRICS: u8 = 12;
const RSP_GROUP_STATE: u8 = 13;
const RSP_WHAT_IF: u8 = 14;
const RSP_EVENT: u8 = 15;
const RSP_EXPLAINED: u8 = 16;

/// The binary codec (proto v2). Stateless; [`Encoding::Binary`] hands
/// out a shared instance via [`Encoding::codec`].
#[derive(Debug, Clone, Copy, Default)]
pub struct V2Codec;

impl FrameCodec for V2Codec {
    fn encoding(&self) -> Encoding {
        Encoding::Binary
    }

    fn split_frame<'a>(&self, buf: &'a [u8]) -> symbio::Result<Option<(usize, &'a [u8])>> {
        if buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
        if len > MAX_FRAME {
            return Err(Error::Protocol(format!(
                "binary frame length {len} exceeds {MAX_FRAME}"
            )));
        }
        if buf.len() < 4 + len {
            return Ok(None);
        }
        Ok(Some((4 + len, &buf[4..4 + len])))
    }

    fn decode_request(&self, frame: &[u8]) -> symbio::Result<Request> {
        let mut r = Reader::new(frame);
        let request = match r.u8()? {
            REQ_HELLO => Request::Hello(decode_hello(&mut r)?),
            REQ_INGEST => Request::Ingest(decode_snapshot(&mut r)?),
            REQ_INGEST_BATCH => Request::IngestBatch(r.vec(decode_snapshot)?),
            REQ_MAP => Request::Map { group: r.string()? },
            REQ_METRICS => Request::Metrics,
            REQ_SHUTDOWN => Request::Shutdown,
            REQ_ROUTE => Request::Route { group: r.string()? },
            REQ_ASSIGN => Request::Assign {
                add: r.vec(|r| r.string())?,
                remove: r.vec(|r| r.string())?,
            },
            REQ_FLEET_METRICS => Request::FleetMetrics,
            REQ_EXPORT_GROUP => Request::ExportGroup { group: r.string()? },
            REQ_IMPORT_GROUP => Request::ImportGroup(decode_group_record(&mut r)?),
            REQ_WHAT_IF => Request::WhatIf(decode_snapshot(&mut r)?),
            REQ_SUBSCRIBE => Request::Subscribe,
            REQ_EXPLAIN => Request::Explain { group: r.string()? },
            tag => return Err(Error::Protocol(format!("unknown request tag {tag}"))),
        };
        r.finish()?;
        Ok(request)
    }

    fn decode_reply(&self, frame: &[u8]) -> symbio::Result<Response> {
        let mut r = Reader::new(frame);
        let reply = decode_reply_inner(&mut r)?;
        r.finish()?;
        Ok(reply)
    }

    fn encode_request(&self, request: &Request, out: &mut Vec<u8>) -> symbio::Result<()> {
        frame(out, |p| {
            match request {
                Request::Hello(h) => {
                    p.push(REQ_HELLO);
                    put_hello(p, h);
                }
                Request::Ingest(s) => {
                    p.push(REQ_INGEST);
                    put_snapshot(p, s)?;
                }
                Request::IngestBatch(batch) => {
                    p.push(REQ_INGEST_BATCH);
                    put_count(p, batch.len())?;
                    for s in batch {
                        put_snapshot(p, s)?;
                    }
                }
                Request::Map { group } => {
                    p.push(REQ_MAP);
                    put_str(p, group)?;
                }
                Request::Metrics => p.push(REQ_METRICS),
                Request::Shutdown => p.push(REQ_SHUTDOWN),
                Request::Route { group } => {
                    p.push(REQ_ROUTE);
                    put_str(p, group)?;
                }
                Request::Assign { add, remove } => {
                    p.push(REQ_ASSIGN);
                    put_count(p, add.len())?;
                    for a in add {
                        put_str(p, a)?;
                    }
                    put_count(p, remove.len())?;
                    for a in remove {
                        put_str(p, a)?;
                    }
                }
                Request::FleetMetrics => p.push(REQ_FLEET_METRICS),
                Request::ExportGroup { group } => {
                    p.push(REQ_EXPORT_GROUP);
                    put_str(p, group)?;
                }
                Request::ImportGroup(record) => {
                    p.push(REQ_IMPORT_GROUP);
                    put_group_record(p, record)?;
                }
                Request::WhatIf(s) => {
                    p.push(REQ_WHAT_IF);
                    put_snapshot(p, s)?;
                }
                Request::Subscribe => p.push(REQ_SUBSCRIBE),
                Request::Explain { group } => {
                    p.push(REQ_EXPLAIN);
                    put_str(p, group)?;
                }
            }
            Ok(())
        })
    }

    fn encode_reply(&self, reply: &Response, out: &mut Vec<u8>) -> symbio::Result<()> {
        frame(out, |p| put_reply(p, reply))
    }
}

// ------------------------------------------------------------ encoding

/// Reserve the 4-byte length slot, build the payload, then backfill the
/// real length.
fn frame(
    out: &mut Vec<u8>,
    build: impl FnOnce(&mut Vec<u8>) -> symbio::Result<()>,
) -> symbio::Result<()> {
    let start = out.len();
    out.extend_from_slice(&[0u8; 4]);
    build(out)?;
    let len = out.len() - start - 4;
    if len > MAX_FRAME {
        out.truncate(start);
        return Err(Error::Protocol(format!(
            "encoded frame length {len} exceeds {MAX_FRAME}"
        )));
    }
    out[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
    Ok(())
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

/// A `usize` count/index narrowed to `u32` (overflow is a protocol
/// error: nothing legitimate carries four billion elements).
fn put_count(out: &mut Vec<u8>, v: usize) -> symbio::Result<()> {
    let v = u32::try_from(v)
        .map_err(|_| Error::Protocol(format!("count {v} does not fit the wire format")))?;
    put_u32(out, v);
    Ok(())
}

fn put_str(out: &mut Vec<u8>, s: &str) -> symbio::Result<()> {
    put_count(out, s.len())?;
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

fn put_opt<T>(
    out: &mut Vec<u8>,
    v: &Option<T>,
    put: impl FnOnce(&mut Vec<u8>, &T) -> symbio::Result<()>,
) -> symbio::Result<()> {
    match v {
        Some(inner) => {
            out.push(1);
            put(out, inner)
        }
        None => {
            out.push(0);
            Ok(())
        }
    }
}

fn put_f64s(out: &mut Vec<u8>, vs: &[f64]) -> symbio::Result<()> {
    put_count(out, vs.len())?;
    for v in vs {
        put_f64(out, *v);
    }
    Ok(())
}

fn put_hello(out: &mut Vec<u8>, h: &Hello) {
    // Versions and encoding tokens are tiny by construction.
    put_u32(out, h.versions.len() as u32);
    for v in &h.versions {
        put_u32(out, *v);
    }
    put_u32(out, h.encodings.len() as u32);
    for e in &h.encodings {
        let _ = put_str(out, e);
    }
}

fn put_welcome(out: &mut Vec<u8>, w: &Welcome) -> symbio::Result<()> {
    put_u32(out, w.version);
    put_str(out, &w.encoding)?;
    put_u64(out, w.batch_max);
    Ok(())
}

fn put_mapping(out: &mut Vec<u8>, m: &Mapping) -> symbio::Result<()> {
    put_count(out, m.len())?;
    for tid in 0..m.len() {
        put_count(out, m.core_of(tid))?;
    }
    Ok(())
}

fn put_thread(out: &mut Vec<u8>, t: &ThreadView) -> symbio::Result<()> {
    put_count(out, t.tid)?;
    put_count(out, t.pid)?;
    put_str(out, &t.name)?;
    put_f64(out, t.occupancy);
    put_f64s(out, &t.symbiosis)?;
    put_f64s(out, &t.overlap)?;
    put_u32(out, t.last_occupancy);
    put_opt(out, &t.last_core, |o, c| put_count(o, *c))?;
    put_u64(out, t.samples);
    put_count(out, t.filter_len)?;
    put_f64(out, t.l2_miss_rate);
    put_u64(out, t.l2_misses);
    put_u64(out, t.retired);
    Ok(())
}

fn put_snapshot(out: &mut Vec<u8>, s: &SigSnapshot) -> symbio::Result<()> {
    put_str(out, &s.group)?;
    put_u64(out, s.seq);
    put_u64(out, s.now_cycles);
    put_count(out, s.cores)?;
    put_count(out, s.domains.len())?;
    for d in &s.domains {
        put_count(out, *d)?;
    }
    put_count(out, s.procs.len())?;
    for p in &s.procs {
        put_count(out, p.pid)?;
        put_str(out, &p.name)?;
        put_count(out, p.threads.len())?;
        for t in &p.threads {
            put_thread(out, t)?;
        }
    }
    Ok(())
}

fn reason_tag(reason: DecisionReason) -> u8 {
    match reason {
        DecisionReason::Warmup => 0,
        DecisionReason::Initial => 1,
        DecisionReason::Held => 2,
        DecisionReason::Remap => 3,
        DecisionReason::PhaseChange => 4,
        DecisionReason::Quarantined => 5,
        DecisionReason::Duplicate => 6,
    }
}

fn put_decision(out: &mut Vec<u8>, d: &Decision) -> symbio::Result<()> {
    put_str(out, &d.group)?;
    put_u64(out, d.seq);
    put_opt(out, &d.mapping, put_mapping)?;
    put_bool(out, d.changed);
    out.push(reason_tag(d.reason));
    put_f64(out, d.gain);
    put_u32(out, d.votes);
    put_u32(out, d.window);
    put_count(out, d.domains_changed.len())?;
    for dom in &d.domains_changed {
        put_count(out, *dom)?;
    }
    Ok(())
}

fn put_epoch_record(out: &mut Vec<u8>, e: &EpochRecord) -> symbio::Result<()> {
    put_u64(out, e.seq);
    put_mapping(out, &e.vote)?;
    put_count(out, e.cores)?;
    put_f64(out, e.occupancy);
    Ok(())
}

fn put_group_record(out: &mut Vec<u8>, g: &GroupRecord) -> symbio::Result<()> {
    put_str(out, &g.name)?;
    put_count(out, g.window.len())?;
    for e in &g.window {
        put_epoch_record(out, e)?;
    }
    put_opt(out, &g.current, put_mapping)?;
    put_u64(out, g.epochs);
    put_u64(out, g.remaps);
    put_opt(out, &g.last_seq, |o, s| {
        put_u64(o, *s);
        Ok(())
    })?;
    put_u32(out, g.strikes);
    put_bool(out, g.quarantined);
    put_u32(out, g.clean);
    Ok(())
}

fn put_component_gain(out: &mut Vec<u8>, g: &ComponentGain) -> symbio::Result<()> {
    put_count(out, g.domains.len())?;
    for d in &g.domains {
        put_count(out, *d)?;
    }
    put_f64(out, g.gain);
    put_bool(out, g.committed);
    Ok(())
}

fn put_explanation(out: &mut Vec<u8>, e: &Explanation) -> symbio::Result<()> {
    put_u64(out, e.seq);
    put_str(out, &e.reason)?;
    put_u32(out, e.votes);
    put_u32(out, e.window);
    put_f64(out, e.gain);
    put_f64(out, e.switch_cost);
    put_f64(out, e.margin);
    put_count(out, e.components.len())?;
    for c in &e.components {
        put_component_gain(out, c)?;
    }
    put_count(out, e.domains_changed.len())?;
    for d in &e.domains_changed {
        put_count(out, *d)?;
    }
    Ok(())
}

fn put_counters(out: &mut Vec<u8>, c: &CounterSnapshot) -> symbio::Result<()> {
    for v in c.scalars() {
        put_u64(out, v);
    }
    put_count(out, c.domain_remaps.len())?;
    for v in &c.domain_remaps {
        put_u64(out, *v);
    }
    Ok(())
}

fn put_fleet_view(out: &mut Vec<u8>, v: &FleetView) -> symbio::Result<()> {
    put_u64(out, v.epoch);
    put_count(out, v.backends.len())?;
    for b in &v.backends {
        put_str(out, b)?;
    }
    put_u64(out, v.moved);
    Ok(())
}

fn put_backend_stat(out: &mut Vec<u8>, s: &BackendStat) -> symbio::Result<()> {
    put_str(out, &s.addr)?;
    put_bool(out, s.healthy);
    put_u64(out, s.groups);
    put_u64(out, s.proxied);
    put_u64(out, s.errors);
    Ok(())
}

fn put_fleet_snapshot(out: &mut Vec<u8>, s: &FleetSnapshot) -> symbio::Result<()> {
    put_u64(out, s.epoch);
    put_count(out, s.backends.len())?;
    for b in &s.backends {
        put_backend_stat(out, b)?;
    }
    put_counters(out, &s.aggregate)
}

fn put_reply(out: &mut Vec<u8>, reply: &Response) -> symbio::Result<()> {
    match reply {
        Response::Welcome(w) => {
            out.push(RSP_WELCOME);
            put_welcome(out, w)
        }
        Response::Decision(d) => {
            out.push(RSP_DECISION);
            put_decision(out, d)
        }
        Response::Batch(items) => {
            out.push(RSP_BATCH);
            put_count(out, items.len())?;
            for item in items {
                put_reply(out, item)?;
            }
            Ok(())
        }
        Response::Map {
            group,
            mapping,
            epochs,
            remaps,
        } => {
            out.push(RSP_MAP);
            put_str(out, group)?;
            put_opt(out, mapping, put_mapping)?;
            put_u64(out, *epochs);
            put_u64(out, *remaps);
            Ok(())
        }
        Response::Metrics(c) => {
            out.push(RSP_METRICS);
            put_counters(out, c)
        }
        Response::Degraded {
            group,
            mapping,
            message,
        } => {
            out.push(RSP_DEGRADED);
            put_str(out, group)?;
            put_opt(out, mapping, put_mapping)?;
            put_str(out, message)
        }
        Response::Recovering {
            group,
            seq,
            mapping,
        } => {
            out.push(RSP_RECOVERING);
            put_str(out, group)?;
            put_u64(out, *seq);
            put_opt(out, mapping, put_mapping)
        }
        Response::Ok => {
            out.push(RSP_OK);
            Ok(())
        }
        Response::Route {
            group,
            backend,
            epoch,
        } => {
            out.push(RSP_ROUTE);
            put_str(out, group)?;
            put_str(out, backend)?;
            put_u64(out, *epoch);
            Ok(())
        }
        Response::FleetView(v) => {
            out.push(RSP_FLEET_VIEW);
            put_fleet_view(out, v)
        }
        Response::FleetMetrics(s) => {
            out.push(RSP_FLEET_METRICS);
            put_fleet_snapshot(out, s)
        }
        Response::GroupState { group, record } => {
            out.push(RSP_GROUP_STATE);
            put_str(out, group)?;
            put_opt(out, record, put_group_record)
        }
        Response::WhatIf {
            group,
            mapping,
            delta,
            held,
            memo_hit,
        } => {
            out.push(RSP_WHAT_IF);
            put_str(out, group)?;
            put_mapping(out, mapping)?;
            put_f64(out, *delta);
            put_bool(out, *held);
            put_bool(out, *memo_hit);
            Ok(())
        }
        Response::Event {
            decision,
            epochs,
            remaps,
        } => {
            out.push(RSP_EVENT);
            put_decision(out, decision)?;
            put_u64(out, *epochs);
            put_u64(out, *remaps);
            Ok(())
        }
        Response::Explained { group, explanation } => {
            out.push(RSP_EXPLAINED);
            put_str(out, group)?;
            put_opt(out, explanation, put_explanation)
        }
        Response::Error {
            kind,
            code,
            message,
            retryable,
        } => {
            out.push(RSP_ERROR);
            put_str(out, kind)?;
            put_str(out, code)?;
            put_str(out, message)?;
            put_bool(out, *retryable);
            Ok(())
        }
    }
}

// ------------------------------------------------------------ decoding

/// Bounds-checked little-endian payload reader.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> symbio::Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(Error::Protocol(format!(
                "torn binary frame: need {n} bytes, have {}",
                self.remaining()
            )));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> symbio::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> symbio::Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> symbio::Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn f64(&mut self) -> symbio::Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn boolean(&mut self) -> symbio::Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(Error::Protocol(format!("invalid bool byte {b}"))),
        }
    }

    fn count(&mut self) -> symbio::Result<usize> {
        Ok(self.u32()? as usize)
    }

    /// An element count that must be coverable by the bytes left (≥ 1
    /// byte per element) — rejects hostile lengths before allocating.
    fn bounded_count(&mut self, min_elem_bytes: usize) -> symbio::Result<usize> {
        let n = self.count()?;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(Error::Protocol(format!(
                "count {n} exceeds remaining frame bytes"
            )));
        }
        Ok(n)
    }

    fn string(&mut self) -> symbio::Result<String> {
        let len = self.bounded_count(1)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| Error::Protocol("string field is not UTF-8".to_string()))
    }

    fn opt<T>(
        &mut self,
        read: impl FnOnce(&mut Reader<'a>) -> symbio::Result<T>,
    ) -> symbio::Result<Option<T>> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(read(self)?)),
            b => Err(Error::Protocol(format!("invalid option byte {b}"))),
        }
    }

    fn vec<T>(
        &mut self,
        mut read: impl FnMut(&mut Reader<'a>) -> symbio::Result<T>,
    ) -> symbio::Result<Vec<T>> {
        let n = self.bounded_count(1)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(read(self)?);
        }
        Ok(out)
    }

    fn f64s(&mut self) -> symbio::Result<Vec<f64>> {
        let n = self.bounded_count(8)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.f64()?);
        }
        Ok(out)
    }

    fn counts(&mut self) -> symbio::Result<Vec<usize>> {
        let n = self.bounded_count(4)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.count()?);
        }
        Ok(out)
    }

    /// Trailing garbage after a decoded payload is a protocol error —
    /// it means the two ends disagree about the layout.
    fn finish(&self) -> symbio::Result<()> {
        if self.remaining() != 0 {
            return Err(Error::Protocol(format!(
                "{} trailing bytes after frame payload",
                self.remaining()
            )));
        }
        Ok(())
    }
}

fn decode_hello(r: &mut Reader) -> symbio::Result<Hello> {
    let nv = r.bounded_count(4)?;
    let mut versions = Vec::with_capacity(nv);
    for _ in 0..nv {
        versions.push(r.u32()?);
    }
    let encodings = r.vec(|r| r.string())?;
    Ok(Hello {
        versions,
        encodings,
    })
}

fn decode_welcome(r: &mut Reader) -> symbio::Result<Welcome> {
    Ok(Welcome {
        version: r.u32()?,
        encoding: r.string()?,
        batch_max: r.u64()?,
    })
}

fn decode_mapping(r: &mut Reader) -> symbio::Result<Mapping> {
    Ok(Mapping::new(r.counts()?))
}

fn decode_thread(r: &mut Reader) -> symbio::Result<ThreadView> {
    Ok(ThreadView {
        tid: r.count()?,
        pid: r.count()?,
        name: r.string()?,
        occupancy: r.f64()?,
        symbiosis: r.f64s()?,
        overlap: r.f64s()?,
        last_occupancy: r.u32()?,
        last_core: r.opt(|r| r.count())?,
        samples: r.u64()?,
        filter_len: r.count()?,
        l2_miss_rate: r.f64()?,
        l2_misses: r.u64()?,
        retired: r.u64()?,
    })
}

fn decode_snapshot(r: &mut Reader) -> symbio::Result<SigSnapshot> {
    Ok(SigSnapshot {
        group: r.string()?,
        seq: r.u64()?,
        now_cycles: r.u64()?,
        cores: r.count()?,
        domains: r.counts()?,
        procs: r.vec(|r| {
            Ok(ProcView {
                pid: r.count()?,
                name: r.string()?,
                threads: r.vec(decode_thread)?,
            })
        })?,
    })
}

fn decode_reason(r: &mut Reader) -> symbio::Result<DecisionReason> {
    Ok(match r.u8()? {
        0 => DecisionReason::Warmup,
        1 => DecisionReason::Initial,
        2 => DecisionReason::Held,
        3 => DecisionReason::Remap,
        4 => DecisionReason::PhaseChange,
        5 => DecisionReason::Quarantined,
        6 => DecisionReason::Duplicate,
        tag => return Err(Error::Protocol(format!("unknown decision reason {tag}"))),
    })
}

fn decode_decision(r: &mut Reader) -> symbio::Result<Decision> {
    Ok(Decision {
        group: r.string()?,
        seq: r.u64()?,
        mapping: r.opt(decode_mapping)?,
        changed: r.boolean()?,
        reason: decode_reason(r)?,
        gain: r.f64()?,
        votes: r.u32()?,
        window: r.u32()?,
        domains_changed: r.counts()?,
    })
}

fn decode_counters(r: &mut Reader) -> symbio::Result<CounterSnapshot> {
    let mut scalars = [0; CounterSnapshot::SCALARS];
    for v in &mut scalars {
        *v = r.u64()?;
    }
    let n = r.bounded_count(8)?;
    let mut domain_remaps = Vec::with_capacity(n);
    for _ in 0..n {
        domain_remaps.push(r.u64()?);
    }
    Ok(CounterSnapshot::from_scalars(scalars, domain_remaps))
}

fn decode_component_gain(r: &mut Reader) -> symbio::Result<ComponentGain> {
    Ok(ComponentGain {
        domains: r.counts()?,
        gain: r.f64()?,
        committed: r.boolean()?,
    })
}

fn decode_explanation(r: &mut Reader) -> symbio::Result<Explanation> {
    Ok(Explanation {
        seq: r.u64()?,
        reason: r.string()?,
        votes: r.u32()?,
        window: r.u32()?,
        gain: r.f64()?,
        switch_cost: r.f64()?,
        margin: r.f64()?,
        components: r.vec(decode_component_gain)?,
        domains_changed: r.counts()?,
    })
}

fn decode_fleet_view(r: &mut Reader) -> symbio::Result<FleetView> {
    Ok(FleetView {
        epoch: r.u64()?,
        backends: r.vec(|r| r.string())?,
        moved: r.u64()?,
    })
}

fn decode_fleet_snapshot(r: &mut Reader) -> symbio::Result<FleetSnapshot> {
    Ok(FleetSnapshot {
        epoch: r.u64()?,
        backends: r.vec(|r| {
            Ok(BackendStat {
                addr: r.string()?,
                healthy: r.boolean()?,
                groups: r.u64()?,
                proxied: r.u64()?,
                errors: r.u64()?,
            })
        })?,
        aggregate: decode_counters(r)?,
    })
}

fn decode_epoch_record(r: &mut Reader) -> symbio::Result<EpochRecord> {
    Ok(EpochRecord {
        seq: r.u64()?,
        vote: decode_mapping(r)?,
        cores: r.count()?,
        occupancy: r.f64()?,
    })
}

fn decode_group_record(r: &mut Reader) -> symbio::Result<GroupRecord> {
    Ok(GroupRecord {
        name: r.string()?,
        window: r.vec(decode_epoch_record)?,
        current: r.opt(decode_mapping)?,
        epochs: r.u64()?,
        remaps: r.u64()?,
        last_seq: r.opt(|r| r.u64())?,
        strikes: r.u32()?,
        quarantined: r.boolean()?,
        clean: r.u32()?,
    })
}

fn decode_reply_inner(r: &mut Reader) -> symbio::Result<Response> {
    Ok(match r.u8()? {
        RSP_WELCOME => Response::Welcome(decode_welcome(r)?),
        RSP_DECISION => Response::Decision(decode_decision(r)?),
        RSP_BATCH => Response::Batch(r.vec(decode_reply_inner)?),
        RSP_MAP => Response::Map {
            group: r.string()?,
            mapping: r.opt(decode_mapping)?,
            epochs: r.u64()?,
            remaps: r.u64()?,
        },
        RSP_METRICS => Response::Metrics(decode_counters(r)?),
        RSP_DEGRADED => Response::Degraded {
            group: r.string()?,
            mapping: r.opt(decode_mapping)?,
            message: r.string()?,
        },
        RSP_RECOVERING => Response::Recovering {
            group: r.string()?,
            seq: r.u64()?,
            mapping: r.opt(decode_mapping)?,
        },
        RSP_OK => Response::Ok,
        RSP_ROUTE => Response::Route {
            group: r.string()?,
            backend: r.string()?,
            epoch: r.u64()?,
        },
        RSP_FLEET_VIEW => Response::FleetView(decode_fleet_view(r)?),
        RSP_FLEET_METRICS => Response::FleetMetrics(decode_fleet_snapshot(r)?),
        RSP_GROUP_STATE => Response::GroupState {
            group: r.string()?,
            record: r.opt(decode_group_record)?,
        },
        RSP_WHAT_IF => Response::WhatIf {
            group: r.string()?,
            mapping: decode_mapping(r)?,
            delta: r.f64()?,
            held: r.boolean()?,
            memo_hit: r.boolean()?,
        },
        RSP_EVENT => Response::Event {
            decision: decode_decision(r)?,
            epochs: r.u64()?,
            remaps: r.u64()?,
        },
        RSP_EXPLAINED => Response::Explained {
            group: r.string()?,
            explanation: r.opt(decode_explanation)?,
        },
        RSP_ERROR => Response::Error {
            kind: r.string()?,
            code: r.string()?,
            message: r.string()?,
            retryable: r.boolean()?,
        },
        tag => return Err(Error::Protocol(format!("unknown reply tag {tag}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn framing_is_length_prefixed_and_incremental() {
        let codec = V2Codec;
        let mut buf = Vec::new();
        codec.encode_request(&Request::Metrics, &mut buf).unwrap();
        codec.encode_request(&Request::Shutdown, &mut buf).unwrap();
        // Header alone: incomplete.
        assert!(codec.split_frame(&buf[..3]).unwrap().is_none());
        assert!(codec.split_frame(&buf[..4]).unwrap().is_none());
        let (consumed, payload) = codec.split_frame(&buf).unwrap().expect("first frame");
        assert_eq!(payload, &[REQ_METRICS]);
        let rest = &buf[consumed..];
        let (consumed2, payload2) = codec.split_frame(rest).unwrap().expect("second frame");
        assert_eq!(consumed + consumed2, buf.len());
        assert!(matches!(
            codec.decode_request(payload2).unwrap(),
            Request::Shutdown
        ));
    }

    #[test]
    fn oversized_length_prefix_is_a_framing_error() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
        buf.push(0);
        assert!(V2Codec.split_frame(&buf).is_err());
    }

    #[test]
    fn torn_payloads_and_bad_tags_are_per_frame_errors() {
        let codec = V2Codec;
        // Unknown tag.
        assert!(codec.decode_request(&[200]).is_err());
        // Map without its group string.
        assert!(codec.decode_request(&[REQ_MAP]).is_err());
        // Trailing garbage after a complete payload.
        assert!(codec.decode_request(&[REQ_SHUTDOWN, 0]).is_err());
        // Hostile element count can't make us allocate.
        let mut evil = vec![REQ_INGEST_BATCH];
        evil.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(codec.decode_request(&evil).is_err());
    }
}
