//! The coordinator's downstream side: one lazily-connected
//! [`WireClient`] per backend, negotiated up to the binary envelope,
//! with per-backend health and traffic accounting.
//!
//! A round trip is split into [`BackendPool::send`] and
//! [`BackendPool::recv`] so the coordinator can write a frame to every
//! owning backend before it waits for any reply; replies on one
//! connection come back in the order the frames were sent.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::Duration;
use symbio::Error;
use symbio_serve::proto::{BackendStat, Encoding, Request, Response, DEFAULT_BATCH_MAX};
use symbio_serve::WireClient;

/// One backend's live connection state and counters.
#[derive(Debug, Default)]
struct Slot {
    /// The open connection and the most snapshots its `Welcome` said the
    /// backend takes in one `IngestBatch` frame.
    conn: Option<(WireClient, usize)>,
    healthy: bool,
    /// Decisions proxied: a `Batch` reply counts one per item.
    proxied: u64,
    errors: u64,
}

impl Slot {
    /// A transport failure: half a round trip may have landed, so the
    /// stream can't be trusted for framing any more.
    fn fail<T>(&mut self, e: Error) -> symbio::Result<T> {
        self.conn = None;
        self.healthy = false;
        self.errors += 1;
        Err(e)
    }
}

/// A pool of downstream connections keyed by backend address.
#[derive(Debug)]
pub struct BackendPool {
    slots: HashMap<String, Slot>,
    timeout: Duration,
}

impl BackendPool {
    /// An empty pool dialing with `timeout` as the connect/read/write
    /// deadline.
    pub fn new(timeout: Duration) -> BackendPool {
        BackendPool {
            slots: HashMap::new(),
            timeout,
        }
    }

    /// Connect and negotiate; returns the connection and the backend's
    /// advertised `batch_max`.
    fn dial(addr: &str, timeout: Duration) -> symbio::Result<(WireClient, usize)> {
        let sock: SocketAddr = addr
            .parse()
            .map_err(|e| Error::InvalidConfig(format!("backend addr {addr:?}: {e}")))?;
        let mut conn = WireClient::connect(sock, timeout)?;
        // The proxy path wants the compact encoding; a backend that
        // refuses binary still works on json-lines.
        let batch_max = match conn.hello(Encoding::Binary) {
            Ok(welcome) => usize::try_from(welcome.batch_max).unwrap_or(usize::MAX),
            Err(_) => DEFAULT_BATCH_MAX,
        };
        Ok((conn, batch_max.max(1)))
    }

    /// The slot for `addr` with a live connection in it, dialing (or
    /// redialing) as needed.
    fn connected(&mut self, addr: &str) -> symbio::Result<&mut Slot> {
        if !self.slots.contains_key(addr) {
            self.slots.insert(addr.to_string(), Slot::default());
        }
        let slot = self.slots.get_mut(addr).expect("inserted above");
        if slot.conn.is_none() {
            match Self::dial(addr, self.timeout) {
                Ok(conn) => {
                    slot.conn = Some(conn);
                    slot.healthy = true;
                }
                Err(e) => return slot.fail(e),
            }
        }
        Ok(slot)
    }

    /// Make sure a connection to `addr` is open and return the most
    /// snapshots the backend's `Welcome` said it takes in one
    /// `IngestBatch` frame.
    pub fn connect(&mut self, addr: &str) -> symbio::Result<usize> {
        let slot = self.connected(addr)?;
        Ok(slot.conn.as_ref().expect("connected").1)
    }

    /// Write one request frame to `addr`, dialing first when no
    /// connection is open. A transport failure tears the cached
    /// connection down and marks the backend unhealthy; the caller
    /// decides whether to evict it from the membership.
    pub fn send(&mut self, addr: &str, request: &Request) -> symbio::Result<()> {
        let slot = self.connected(addr)?;
        let (conn, _) = slot.conn.as_mut().expect("connected");
        match conn.send(request) {
            Ok(()) => Ok(()),
            Err(e) => slot.fail(e),
        }
    }

    /// Read the reply to the oldest unanswered [`BackendPool::send`] to
    /// `addr`. Fails the same way `send` does.
    pub fn recv(&mut self, addr: &str) -> symbio::Result<Response> {
        let not_connected = || Error::Protocol(format!("no open connection to backend {addr}"));
        let slot = self.slots.get_mut(addr).ok_or_else(not_connected)?;
        let (conn, _) = slot.conn.as_mut().ok_or_else(not_connected)?;
        match conn.recv() {
            Ok(reply) => {
                slot.proxied += match &reply {
                    Response::Batch(items) => items.len() as u64,
                    _ => 1,
                };
                Ok(reply)
            }
            Err(e) => slot.fail(e),
        }
    }

    /// One request/reply round trip against `addr`.
    pub fn exchange(&mut self, addr: &str, request: &Request) -> symbio::Result<Response> {
        self.send(addr, request)?;
        self.recv(addr)
    }

    /// Drop any cached connection to `addr` (the backend left the
    /// membership).
    pub fn forget(&mut self, addr: &str) {
        self.slots.remove(addr);
    }

    /// Whether the pool currently holds a working connection to `addr`.
    pub fn healthy(&self, addr: &str) -> bool {
        self.slots
            .get(addr)
            .is_some_and(|s| s.healthy && s.conn.is_some())
    }

    /// The pool's view of `addr` as a wire-ready [`BackendStat`]
    /// (`groups` is the routing table's to fill in).
    pub fn stat(&self, addr: &str) -> BackendStat {
        let slot = self.slots.get(addr);
        BackendStat {
            addr: addr.to_string(),
            healthy: slot.is_some_and(|s| s.healthy && s.conn.is_some()),
            groups: 0,
            proxied: slot.map_or(0, |s| s.proxied),
            errors: slot.map_or(0, |s| s.errors),
        }
    }
}
