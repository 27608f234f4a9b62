//! Length-prefixed, crc-framed envelopes — the wire format every TCP
//! link in the [`crate`] speaks.
//!
//! A frame is `len (u32 LE) | crc32 (u32 LE) | payload`, with the crc —
//! the shared [`psmr_common::crc::crc32`], the same checksum the WAL
//! record frames use — computed over the payload alone. TCP already
//! guarantees ordered delivery, so the codec's job is narrower than a
//! datagram protocol's: delimit messages across arbitrary `read()`
//! boundaries and refuse to hand corrupt bytes upward.
//!
//! The failure model mirrors the WAL's torn-tail contract: a stream that
//! ends mid-frame (peer died between writes) yields the exact prefix of
//! complete frames and then simply stops; a frame whose crc does not
//! match (bit rot, a desynchronized peer) surfaces a typed error and
//! **poisons the decoder** — there is no resynchronization heuristic, the
//! connection is torn down and re-established instead, which the
//! transport's sequence numbers make safe (see [`crate::tcp`]).

use psmr_common::crc::crc32;
use std::fmt;

/// Bytes of framing before the payload: length + crc.
pub const HEADER_LEN: usize = 8;

/// Upper bound on a single frame's payload. Anything larger is treated
/// as corruption (a flipped length byte would otherwise make the decoder
/// wait forever for petabytes that never come).
pub const MAX_FRAME: usize = 64 << 20;

/// Why a frame stream is unusable from some point on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// A frame header announced a payload longer than [`MAX_FRAME`].
    TooLarge {
        /// The announced payload length.
        len: usize,
    },
    /// A complete frame arrived whose payload fails its crc.
    Corrupt,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::TooLarge { len } => {
                write!(f, "frame announces {len} payload bytes (cap {MAX_FRAME})")
            }
            FrameError::Corrupt => write!(f, "frame payload fails its crc"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Encodes one payload as a single wire frame.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&[0; HEADER_LEN]);
    out.extend_from_slice(payload);
    seal_frame(&mut out);
    out
}

/// Fills in the header of a frame built in place: `frame` is
/// [`HEADER_LEN`] bytes of room followed by the payload. The result is
/// byte for byte what [`encode_frame`] returns for that payload, without
/// a second copy of the payload.
///
/// # Panics
///
/// When the payload is longer than [`MAX_FRAME`].
pub fn seal_frame(frame: &mut [u8]) {
    let len = frame.len() - HEADER_LEN;
    assert!(len <= MAX_FRAME, "frame payload over MAX_FRAME");
    let crc = crc32(&frame[HEADER_LEN..]);
    frame[..4].copy_from_slice(&(len as u32).to_le_bytes());
    frame[4..HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
}

/// Incremental frame decoder: feed it whatever `read()` returned, pull
/// complete frames out.
///
/// # Example
///
/// ```
/// use psmr_net::frame::{encode_frame, FrameDecoder};
///
/// let mut dec = FrameDecoder::new();
/// let wire = encode_frame(b"hello");
/// dec.push(&wire[..3]); // arbitrary split
/// assert_eq!(dec.next().unwrap(), None); // torn: not an error
/// dec.push(&wire[3..]);
/// assert_eq!(dec.next().unwrap(), Some(b"hello".to_vec()));
/// assert_eq!(dec.next().unwrap(), None);
/// ```
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Offset of the first undecoded byte in `buf` (consumed bytes are
    /// compacted away lazily).
    start: usize,
    poisoned: Option<FrameError>,
}

impl FrameDecoder {
    /// A decoder with an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw stream bytes to the buffer.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet returned as frames (the torn tail, if
    /// the stream ended here).
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// The next complete frame's payload; `Ok(None)` when the buffered
    /// bytes end mid-frame (push more and retry).
    ///
    /// # Errors
    ///
    /// [`FrameError`] when the buffered bytes cannot be a valid frame
    /// stream; the decoder stays poisoned and every later call returns
    /// the same error — tear the connection down.
    #[allow(clippy::should_implement_trait)] // fallible, not an Iterator
    pub fn next(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        if let Some(err) = self.poisoned {
            return Err(err);
        }
        let avail = &self.buf[self.start..];
        if avail.len() < HEADER_LEN {
            return Ok(None);
        }
        let len = u32::from_le_bytes(avail[0..4].try_into().unwrap()) as usize;
        if len > MAX_FRAME {
            self.poisoned = Some(FrameError::TooLarge { len });
            return Err(FrameError::TooLarge { len });
        }
        let crc = u32::from_le_bytes(avail[4..8].try_into().unwrap());
        if avail.len() < HEADER_LEN + len {
            return Ok(None);
        }
        let payload = &avail[HEADER_LEN..HEADER_LEN + len];
        if crc32(payload) != crc {
            self.poisoned = Some(FrameError::Corrupt);
            return Err(FrameError::Corrupt);
        }
        let frame = payload.to_vec();
        self.start += HEADER_LEN + len;
        // Compact lazily: only when the dead prefix dominates the buffer.
        if self.start > 4096 && self.start * 2 > self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        Ok(Some(frame))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_and_delimits_back_to_back_frames() {
        let mut wire = Vec::new();
        for i in 0..5u8 {
            wire.extend_from_slice(&encode_frame(&vec![i; i as usize * 7]));
        }
        let mut dec = FrameDecoder::new();
        dec.push(&wire);
        for i in 0..5u8 {
            assert_eq!(dec.next().unwrap(), Some(vec![i; i as usize * 7]));
        }
        assert_eq!(dec.next().unwrap(), None);
        assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn empty_payload_is_a_valid_frame() {
        let mut dec = FrameDecoder::new();
        dec.push(&encode_frame(b""));
        assert_eq!(dec.next().unwrap(), Some(Vec::new()));
    }

    #[test]
    fn oversize_header_poisons() {
        let mut dec = FrameDecoder::new();
        let mut bad = ((MAX_FRAME + 1) as u32).to_le_bytes().to_vec();
        bad.extend_from_slice(&[0; 4]);
        dec.push(&bad);
        assert!(matches!(dec.next(), Err(FrameError::TooLarge { .. })));
        // Poisoned: the same error again, even after more bytes.
        dec.push(&encode_frame(b"later"));
        assert!(matches!(dec.next(), Err(FrameError::TooLarge { .. })));
    }

    #[test]
    fn crc_mismatch_poisons() {
        let mut wire = encode_frame(b"payload");
        let last = wire.len() - 1;
        wire[last] ^= 0x10;
        let mut dec = FrameDecoder::new();
        dec.push(&wire);
        assert_eq!(dec.next(), Err(FrameError::Corrupt));
        assert_eq!(dec.next(), Err(FrameError::Corrupt));
    }
}
