//! Incremental frame extraction over a growable byte buffer.
//!
//! Both sides of the wire read sockets in arbitrary-sized chunks;
//! [`FrameBuffer`] accumulates those chunks and peels whole frames off
//! the front using whichever [`Encoding`] is currently negotiated — the
//! encoding is passed per call because a `Hello` can switch it while
//! later frames are already buffered.
//!
//! Error discipline mirrors the protocol contract: a frame that decodes
//! badly is *consumed* before being reported as [`Chunk::Malformed`]
//! (the stream stays synchronized and the connection can keep going),
//! while a framing error from `split_frame` returns `Err` with the
//! buffer untouched — the stream can no longer be trusted and the
//! caller must close.

use crate::proto::{Encoding, Request, Response};

/// Outcome of trying to peel one frame off the buffer.
#[derive(Debug)]
pub enum Chunk<T> {
    /// More bytes are needed for a whole frame.
    Incomplete,
    /// A whole frame decoded.
    Frame(T),
    /// A whole frame was consumed but did not decode; the connection
    /// stays usable (reply with the error, keep reading).
    Malformed(symbio::Error),
}

/// A growable receive buffer that yields whole protocol frames.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
}

impl FrameBuffer {
    /// Fresh empty buffer.
    pub fn new() -> FrameBuffer {
        FrameBuffer::default()
    }

    /// Append raw bytes read from the socket.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Whether nothing is buffered.
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    fn next_frame<T>(
        &mut self,
        enc: Encoding,
        decode: impl FnOnce(&dyn crate::proto::FrameCodec, &[u8]) -> symbio::Result<T>,
    ) -> symbio::Result<Chunk<T>> {
        let codec = enc.codec();
        let (consumed, decoded) = match codec.split_frame(&self.buf)? {
            None => return Ok(Chunk::Incomplete),
            Some((consumed, payload)) => (consumed, decode(codec, payload)),
        };
        self.buf.drain(..consumed);
        Ok(match decoded {
            Ok(frame) => Chunk::Frame(frame),
            Err(e) => Chunk::Malformed(e),
        })
    }

    /// Pop the next buffered request frame. `Err` means the stream can
    /// no longer be framed and the connection must close.
    pub fn next_request(&mut self, enc: Encoding) -> symbio::Result<Chunk<Request>> {
        self.next_frame(enc, |codec, payload| codec.decode_request(payload))
    }

    /// Pop the next buffered reply frame. `Err` means the stream can no
    /// longer be framed and the connection must close.
    pub fn next_reply(&mut self, enc: Encoding) -> symbio::Result<Chunk<Response>> {
        self.next_frame(enc, |codec, payload| codec.decode_reply(payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_arrive_in_arbitrary_chunks() {
        let mut encoded = Vec::new();
        Encoding::Binary
            .codec()
            .encode_request(&Request::Metrics, &mut encoded)
            .unwrap();
        Encoding::Binary
            .codec()
            .encode_request(&Request::Shutdown, &mut encoded)
            .unwrap();
        let mut fb = FrameBuffer::new();
        for chunk in encoded.chunks(3) {
            fb.extend(chunk);
            // Partial tail: at most the prefix frames are available.
        }
        assert!(matches!(
            fb.next_request(Encoding::Binary).unwrap(),
            Chunk::Frame(Request::Metrics)
        ));
        assert!(matches!(
            fb.next_request(Encoding::Binary).unwrap(),
            Chunk::Frame(Request::Shutdown)
        ));
        assert!(matches!(
            fb.next_request(Encoding::Binary).unwrap(),
            Chunk::Incomplete
        ));
        assert!(fb.is_empty());
    }

    #[test]
    fn encoding_can_switch_between_buffered_frames() {
        let mut bytes = Vec::new();
        Encoding::JsonLines
            .codec()
            .encode_request(&Request::Metrics, &mut bytes)
            .unwrap();
        Encoding::Binary
            .codec()
            .encode_request(&Request::Shutdown, &mut bytes)
            .unwrap();
        let mut fb = FrameBuffer::new();
        fb.extend(&bytes);
        assert!(matches!(
            fb.next_request(Encoding::JsonLines).unwrap(),
            Chunk::Frame(Request::Metrics)
        ));
        assert!(matches!(
            fb.next_request(Encoding::Binary).unwrap(),
            Chunk::Frame(Request::Shutdown)
        ));
    }

    #[test]
    fn bad_frame_is_consumed_but_reported() {
        let mut fb = FrameBuffer::new();
        fb.extend(b"{\"Nonsense\":1}\n");
        let mut good = Vec::new();
        Encoding::JsonLines
            .codec()
            .encode_request(&Request::Metrics, &mut good)
            .unwrap();
        fb.extend(&good);
        assert!(matches!(
            fb.next_request(Encoding::JsonLines).unwrap(),
            Chunk::Malformed(_)
        ));
        // The malformed line is gone; the next frame still parses.
        assert!(matches!(
            fb.next_request(Encoding::JsonLines).unwrap(),
            Chunk::Frame(Request::Metrics)
        ));
    }

    #[test]
    fn unframeable_stream_is_fatal_and_untouched() {
        let mut fb = FrameBuffer::new();
        let mut bytes = (u32::MAX).to_le_bytes().to_vec();
        bytes.push(0);
        fb.extend(&bytes);
        assert!(fb.next_request(Encoding::Binary).is_err());
        // Buffer untouched: the caller decides to close.
        assert!(!fb.is_empty());
    }
}
