//! Blocking wire client for the `symbiod` envelope protocol.
//!
//! Used by `loadgen`, the integration tests, and anything else that
//! wants to speak to the daemon without hand-rolling negotiation: a
//! [`WireClient`] connects in proto v1 (json-lines), optionally sends
//! [`Hello`] to upgrade, and from then on encodes/decodes through
//! whichever codec was negotiated.

use crate::proto::{Encoding, Hello, Request, Response, Welcome};
use crate::server::codec::{Chunk, FrameBuffer};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;
use symbio::Error;

/// Bytes asked of the socket per `read`.
const READ_CHUNK: usize = 16 * 1024;

/// A blocking request/reply client over one daemon connection.
#[derive(Debug)]
pub struct WireClient {
    stream: TcpStream,
    rx: FrameBuffer,
    encoding: Encoding,
    /// Encode buffer, reused across [`WireClient::send`] calls.
    tx: Vec<u8>,
    /// Socket read buffer, reused across [`WireClient::recv`] calls.
    rd: Box<[u8]>,
}

impl WireClient {
    /// Connect to `addr` with `timeout` armed as the connect/read/write
    /// deadline. The connection starts in json-lines (proto v1); call
    /// [`WireClient::hello`] to negotiate an upgrade.
    pub fn connect(addr: SocketAddr, timeout: Duration) -> std::io::Result<WireClient> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        Ok(WireClient {
            stream,
            rx: FrameBuffer::new(),
            encoding: Encoding::JsonLines,
            tx: Vec::new(),
            rd: vec![0u8; READ_CHUNK].into_boxed_slice(),
        })
    }

    /// The encoding currently in force.
    pub fn encoding(&self) -> Encoding {
        self.encoding
    }

    /// Negotiate: send a [`Hello`] preferring `preferred` and adopt
    /// whatever the daemon picks. Returns the daemon's [`Welcome`]; an
    /// error reply (no common version/encoding) surfaces as
    /// [`Error::Protocol`] and the connection stays on its current
    /// encoding.
    pub fn hello(&mut self, preferred: Encoding) -> symbio::Result<Welcome> {
        let reply = self.exchange(&Request::Hello(Hello::preferring(preferred)))?;
        match reply {
            Response::Welcome(welcome) => {
                self.encoding = Encoding::by_name(&welcome.encoding).ok_or_else(|| {
                    Error::Protocol(format!(
                        "daemon picked unknown encoding {:?}",
                        welcome.encoding
                    ))
                })?;
                Ok(welcome)
            }
            Response::Error { code, message, .. } => Err(Error::Protocol(format!(
                "negotiation failed ({code}): {message}"
            ))),
            other => Err(Error::Protocol(format!("expected Welcome, got {other:?}"))),
        }
    }

    /// Send one request frame in the current encoding.
    pub fn send(&mut self, request: &Request) -> symbio::Result<()> {
        self.tx.clear();
        self.encoding
            .codec()
            .encode_request(request, &mut self.tx)?;
        self.stream.write_all(&self.tx)?;
        Ok(())
    }

    /// Receive one reply frame (blocking up to the read timeout).
    pub fn recv(&mut self) -> symbio::Result<Response> {
        loop {
            match self.rx.next_reply(self.encoding)? {
                Chunk::Frame(reply) => return Ok(reply),
                Chunk::Malformed(e) => return Err(e),
                Chunk::Incomplete => {}
            }
            let n = self.stream.read(&mut self.rd)?;
            if n == 0 {
                return Err(Error::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "daemon closed the connection mid-reply",
                )));
            }
            self.rx.extend(&self.rd[..n]);
        }
    }

    /// One request/reply round trip.
    pub fn exchange(&mut self, request: &Request) -> symbio::Result<Response> {
        self.send(request)?;
        self.recv()
    }
}
