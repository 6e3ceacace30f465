//! The flat event wire format.
//!
//! Every event that goes onto a link — between federation nodes (over
//! TCP, or the in-process transport that stands in for it), or over a
//! reliable control channel — travels as one contiguous frame: a
//! fixed-offset binary header followed by the topic string and the raw
//! payload. Between the brokers of one process (the sharded runtime's
//! ring, the in-process oracle) an event stays an `Arc<Event>` and is
//! never encoded. The layout (DESIGN.md §11) is chosen so the receiving
//! side never walks a field-by-field decoder on the hot path:
//! [`WireEvent::parse`] validates the frame once, and every accessor
//! afterwards is an infallible
//! fixed-offset read borrowing from the frame. The payload is returned
//! as a `&[u8]` sub-slice — or, via [`decode_shared`], as a zero-copy
//! [`Bytes`] slice that keeps the (pooled) frame storage alive.
//!
//! Encoding goes through the thread-local buffer pool
//! ([`mmcs_util::pool`]): [`encode`] checks a size-classed scratch buffer
//! out, writes the frame, and the storage returns to the pool when the
//! frame (or its last [`Bytes`] clone) drops.
//!
//! # Examples
//!
//! ```
//! use mmcs_broker::event::{Event, EventClass};
//! use mmcs_broker::topic::Topic;
//! use mmcs_broker::wire;
//! use bytes::Bytes;
//! use mmcs_util::id::ClientId;
//!
//! let event = Event::new(
//!     Topic::parse("session/7/audio")?,
//!     ClientId::from_raw(3),
//!     42,
//!     EventClass::Rtp,
//!     Bytes::from_static(b"frame"),
//! );
//! let frame = wire::encode(&event).freeze();
//! let view = wire::WireEvent::parse(&frame)?;
//! assert_eq!(view.seq(), 42);
//! assert_eq!(view.topic_str(), "session/7/audio");
//! assert_eq!(view.payload(), b"frame");
//! assert_eq!(wire::decode_shared(&frame)?, event);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use core::fmt;

use bytes::{BufMut, Bytes};
use mmcs_util::id::ClientId;
use mmcs_util::pool::{self, PooledBuf};
use mmcs_util::time::SimTime;

use crate::event::{Event, EventClass};
use crate::topic::Topic;

/// Version byte carried in every frame. Bump on any layout change; a
/// receiver rejects versions it does not speak instead of misparsing.
pub const WIRE_VERSION: u8 = 1;

/// Fixed binary header length. The topic string starts here.
pub const WIRE_HEADER_LEN: usize = 32;

// Fixed header offsets (all integers big-endian; see DESIGN.md §11).
const OFF_VERSION: usize = 0;
const OFF_CLASS: usize = 1;
const OFF_TOPIC_LEN: usize = 2; // u16
const OFF_PAYLOAD_LEN: usize = 4; // u32
const OFF_SOURCE: usize = 8; // u64
const OFF_SEQ: usize = 16; // u64
const OFF_PUBLISHED_AT: usize = 24; // u64 nanoseconds

fn class_byte(class: EventClass) -> u8 {
    match class {
        EventClass::Control => 0,
        EventClass::Data => 1,
        EventClass::Rtp => 2,
    }
}

fn class_from_byte(byte: u8) -> Option<EventClass> {
    match byte {
        0 => Some(EventClass::Control),
        1 => Some(EventClass::Data),
        2 => Some(EventClass::Rtp),
        _ => None,
    }
}

/// Bytes of the `/`-joined topic path, without allocating the string.
fn topic_byte_len(topic: &Topic) -> usize {
    let segments = topic.segments();
    let seps = segments.len().saturating_sub(1);
    segments.iter().map(|s| s.len()).sum::<usize>() + seps
}

/// Exact frame size [`encode_into`] will write for `event`.
pub fn encoded_len(event: &Event) -> usize {
    WIRE_HEADER_LEN + topic_byte_len(&event.topic) + event.payload.len()
}

/// Writes the frame for `event` into any [`BufMut`] — a pooled buffer,
/// a `BytesMut`, or a plain `Vec<u8>`. Exactly [`encoded_len`] bytes.
///
/// # Panics
///
/// Panics if the topic path exceeds `u16::MAX` bytes or the payload
/// exceeds `u32::MAX` bytes (neither occurs in this workspace; both are
/// stated frame-format limits, not runtime conditions).
#[inline]
pub fn encode_into(event: &Event, buf: &mut impl BufMut) {
    let topic_len = topic_byte_len(&event.topic);
    assert!(topic_len <= u16::MAX as usize, "topic exceeds wire limit");
    assert!(
        event.payload.len() <= u32::MAX as usize,
        "payload exceeds wire limit"
    );
    // Assemble the fixed header on the stack and write it in one call:
    // seven field-sized puts would pay a length/reserve check each.
    let mut header = [0u8; WIRE_HEADER_LEN];
    header[OFF_VERSION] = WIRE_VERSION;
    header[OFF_CLASS] = class_byte(event.class);
    header[OFF_TOPIC_LEN..OFF_TOPIC_LEN + 2].copy_from_slice(&(topic_len as u16).to_be_bytes());
    header[OFF_PAYLOAD_LEN..OFF_PAYLOAD_LEN + 4]
        .copy_from_slice(&(event.payload.len() as u32).to_be_bytes());
    header[OFF_SOURCE..OFF_SOURCE + 8].copy_from_slice(&event.source.value().to_be_bytes());
    header[OFF_SEQ..OFF_SEQ + 8].copy_from_slice(&event.seq.to_be_bytes());
    header[OFF_PUBLISHED_AT..OFF_PUBLISHED_AT + 8]
        .copy_from_slice(&event.published_at.as_nanos().to_be_bytes());
    buf.put_slice(&header);
    let mut first = true;
    for segment in event.topic.segments() {
        if !first {
            buf.put_u8(b'/');
        }
        first = false;
        buf.put_slice(segment.as_bytes());
    }
    buf.put_slice(&event.payload);
}

/// Encodes `event` into a buffer checked out of the thread-local pool.
/// Drop the buffer to return the storage, or [`PooledBuf::freeze`] it
/// into a shared [`Bytes`] frame (the last clone returns the storage).
pub fn encode(event: &Event) -> PooledBuf {
    let mut buf = pool::acquire(encoded_len(event));
    encode_into(event, &mut buf);
    buf
}

/// A zero-copy view over an encoded event frame.
///
/// [`WireEvent::parse`] validates the whole frame once — length prefix
/// consistency, version, class, topic well-formedness — so every
/// accessor is an infallible fixed-offset read into the borrowed bytes.
#[derive(Debug, Clone, Copy)]
pub struct WireEvent<'a> {
    buf: &'a [u8],
    /// End of the topic string; the payload starts here.
    topic_end: usize,
}

impl<'a> WireEvent<'a> {
    /// Validates `frame` and returns the borrow-parsed view.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeEventError`] on truncation, an unknown version or
    /// class byte, a length prefix that disagrees with the frame size,
    /// or a malformed topic (empty, empty segment, wildcard, not UTF-8).
    pub fn parse(frame: &'a [u8]) -> Result<WireEvent<'a>, DecodeEventError> {
        if frame.len() < WIRE_HEADER_LEN {
            return Err(DecodeEventError::Truncated {
                needed: WIRE_HEADER_LEN,
                got: frame.len(),
            });
        }
        let version = frame[OFF_VERSION];
        if version != WIRE_VERSION {
            return Err(DecodeEventError::BadVersion(version));
        }
        if class_from_byte(frame[OFF_CLASS]).is_none() {
            return Err(DecodeEventError::BadClass(frame[OFF_CLASS]));
        }
        let topic_len = u16::from_be_bytes([frame[OFF_TOPIC_LEN], frame[OFF_TOPIC_LEN + 1]])
            as usize;
        let payload_len = u32::from_be_bytes([
            frame[OFF_PAYLOAD_LEN],
            frame[OFF_PAYLOAD_LEN + 1],
            frame[OFF_PAYLOAD_LEN + 2],
            frame[OFF_PAYLOAD_LEN + 3],
        ]) as usize;
        let expected = WIRE_HEADER_LEN + topic_len + payload_len;
        if frame.len() < expected {
            return Err(DecodeEventError::Truncated {
                needed: expected,
                got: frame.len(),
            });
        }
        if frame.len() > expected {
            return Err(DecodeEventError::TrailingBytes {
                expected,
                got: frame.len(),
            });
        }
        let topic_end = WIRE_HEADER_LEN + topic_len;
        // In range by the length check above; `get` keeps the decoder
        // panic-free even if that invariant ever regresses.
        let Some(topic) = frame.get(WIRE_HEADER_LEN..topic_end) else {
            return Err(DecodeEventError::Truncated {
                needed: topic_end,
                got: frame.len(),
            });
        };
        if !topic_is_well_formed(topic) {
            return Err(DecodeEventError::BadTopic);
        }
        Ok(WireEvent { buf: frame, topic_end })
    }

    /// The event's priority class.
    pub fn class(&self) -> EventClass {
        // The byte was validated by `parse`; treat corruption of the
        // borrowed frame as unreachable rather than panicking.
        class_from_byte(self.buf[OFF_CLASS]).unwrap_or(EventClass::Data)
    }

    /// The publishing client.
    pub fn source(&self) -> ClientId {
        ClientId::from_raw(read_u64(self.buf, OFF_SOURCE))
    }

    /// Per-source sequence number.
    pub fn seq(&self) -> u64 {
        read_u64(self.buf, OFF_SEQ)
    }

    /// Publish timestamp (virtual time).
    pub fn published_at(&self) -> SimTime {
        SimTime::from_nanos(read_u64(self.buf, OFF_PUBLISHED_AT))
    }

    /// The `/`-joined topic path, borrowed from the frame.
    pub fn topic_str(&self) -> &'a str {
        // Range and UTF-8 validity were checked by `parse`.
        self.buf
            .get(WIRE_HEADER_LEN..self.topic_end)
            .and_then(|topic| std::str::from_utf8(topic).ok())
            .unwrap_or("")
    }

    /// Parses the topic into an owned [`Topic`] (allocates segments).
    pub fn topic(&self) -> Result<Topic, DecodeEventError> {
        Topic::parse(self.topic_str()).map_err(|_| DecodeEventError::BadTopic)
    }

    /// The payload: a sub-slice of the frame, nothing copied.
    pub fn payload(&self) -> &'a [u8] {
        // `topic_end <= buf.len()` was established by `parse`.
        self.buf.get(self.topic_end..).unwrap_or(&[])
    }

    /// Byte range of the payload within the frame (for carving a
    /// zero-copy [`Bytes::slice`] out of a shared frame).
    pub fn payload_range(&self) -> core::ops::Range<usize> {
        self.topic_end..self.buf.len()
    }
}

/// Non-empty, no empty segments, no wildcard segments, valid UTF-8 —
/// i.e. exactly what [`Topic::parse`] accepts, checked without
/// allocating.
fn topic_is_well_formed(topic: &[u8]) -> bool {
    let Ok(path) = std::str::from_utf8(topic) else {
        return false;
    };
    if path.is_empty() {
        return false;
    }
    path.split('/')
        .all(|segment| !segment.is_empty() && segment != "*" && segment != "#")
}

fn read_u64(buf: &[u8], offset: usize) -> u64 {
    // Every caller passes a header offset inside the validated frame;
    // a short read (impossible after `parse`) yields 0 rather than a
    // panic on the decode path.
    let mut bytes = [0u8; 8];
    if let Some(src) = buf.get(offset..offset + 8) {
        bytes.copy_from_slice(src);
    }
    u64::from_be_bytes(bytes)
}

/// Decodes a frame living in a shared [`Bytes`]; the payload is a
/// zero-copy slice keeping the frame storage (e.g. a pooled buffer)
/// alive until the last reference drops.
///
/// # Errors
///
/// Same matrix as [`WireEvent::parse`].
pub fn decode_shared(frame: &Bytes) -> Result<Event, DecodeEventError> {
    let view = WireEvent::parse(frame)?;
    let payload = frame.slice(view.payload_range());
    Ok(Event {
        topic: view.topic()?,
        source: view.source(),
        seq: view.seq(),
        class: view.class(),
        payload,
        published_at: view.published_at(),
    })
}

/// Error decoding an event frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeEventError {
    /// Frame shorter than its header (or length prefixes) demand.
    Truncated {
        /// Bytes required.
        needed: usize,
        /// Bytes available.
        got: usize,
    },
    /// Frame longer than its length prefixes account for.
    TrailingBytes {
        /// Bytes the prefixes account for.
        expected: usize,
        /// Bytes present.
        got: usize,
    },
    /// Version byte is not [`WIRE_VERSION`].
    BadVersion(u8),
    /// Unknown event class byte.
    BadClass(u8),
    /// Topic bytes are not a valid wildcard-free topic path.
    BadTopic,
}

impl fmt::Display for DecodeEventError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeEventError::Truncated { needed, got } => {
                write!(f, "truncated event frame: need {needed} bytes, got {got}")
            }
            DecodeEventError::TrailingBytes { expected, got } => {
                write!(f, "oversized event frame: expected {expected} bytes, got {got}")
            }
            DecodeEventError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            DecodeEventError::BadClass(c) => write!(f, "unknown event class byte {c}"),
            DecodeEventError::BadTopic => write!(f, "malformed topic in event frame"),
        }
    }
}

impl std::error::Error for DecodeEventError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(payload: &'static [u8]) -> Event {
        Event::new(
            Topic::parse("conf/9/video").unwrap(),
            ClientId::from_raw(0xABCD_EF01_2345_6789),
            77,
            EventClass::Rtp,
            Bytes::from_static(payload),
        )
        .with_published_at(SimTime::from_nanos(123_456_789))
    }

    #[test]
    fn layout_is_fixed_offset() {
        let event = sample(b"xyz");
        let frame = encode(&event).freeze();
        assert_eq!(frame.len(), encoded_len(&event));
        assert_eq!(frame[OFF_VERSION], WIRE_VERSION);
        assert_eq!(frame[OFF_CLASS], 2); // Rtp
        assert_eq!(u16::from_be_bytes([frame[2], frame[3]]), 12); // "conf/9/video"
        assert_eq!(u32::from_be_bytes([frame[4], frame[5], frame[6], frame[7]]), 3);
        assert_eq!(read_u64(&frame, OFF_SOURCE), 0xABCD_EF01_2345_6789);
        assert_eq!(read_u64(&frame, OFF_SEQ), 77);
        assert_eq!(read_u64(&frame, OFF_PUBLISHED_AT), 123_456_789);
        assert_eq!(&frame[WIRE_HEADER_LEN..WIRE_HEADER_LEN + 12], b"conf/9/video");
        assert_eq!(&frame[WIRE_HEADER_LEN + 12..], b"xyz");
    }

    #[test]
    fn view_reads_without_copying() {
        let event = sample(b"payload-bytes");
        let frame = encode(&event).freeze();
        let view = WireEvent::parse(&frame).unwrap();
        assert_eq!(view.class(), EventClass::Rtp);
        assert_eq!(view.source(), event.source);
        assert_eq!(view.seq(), 77);
        assert_eq!(view.published_at(), event.published_at);
        assert_eq!(view.topic_str(), "conf/9/video");
        assert_eq!(view.payload(), b"payload-bytes");
        // The payload slice points into the frame.
        assert_eq!(view.payload().as_ptr(), frame[WIRE_HEADER_LEN + 12..].as_ptr());
    }

    #[test]
    fn decode_round_trips_zero_copy() {
        let event = sample(b"abc");
        let frame = encode(&event).freeze();
        let shared = decode_shared(&frame).unwrap();
        assert_eq!(shared, event);
        // Shared decode borrows the frame's storage.
        assert_eq!(
            shared.payload.as_ptr(),
            frame[WIRE_HEADER_LEN + 12..].as_ptr()
        );
    }

    #[test]
    fn empty_payload_round_trips() {
        let event = Event::new(
            Topic::parse("t").unwrap(),
            ClientId::from_raw(1),
            0,
            EventClass::Control,
            Bytes::new(),
        );
        let frame = encode(&event).freeze();
        assert_eq!(decode_shared(&frame).unwrap(), event);
        assert!(WireEvent::parse(&frame).unwrap().payload().is_empty());
    }

    #[test]
    fn every_truncation_is_rejected() {
        let frame = encode(&sample(b"0123456789")).freeze();
        for len in 0..frame.len() {
            assert!(
                WireEvent::parse(&frame[..len]).is_err(),
                "truncation to {len} bytes must not parse"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut long = encode(&sample(b"x")).freeze().to_vec();
        long.push(0);
        assert!(matches!(
            WireEvent::parse(&long),
            Err(DecodeEventError::TrailingBytes { .. })
        ));
    }

    #[test]
    fn bad_version_class_and_topic_are_rejected() {
        let frame = encode(&sample(b"x")).freeze();
        let corrupt = |at: usize, byte: u8| {
            let mut bad = frame.to_vec();
            bad[at] = byte;
            decode_shared(&Bytes::from(bad))
        };
        assert_eq!(corrupt(OFF_VERSION, 9), Err(DecodeEventError::BadVersion(9)));
        assert_eq!(corrupt(OFF_CLASS, 3), Err(DecodeEventError::BadClass(3)));
        // "conf/*/video": wildcard segment
        assert_eq!(corrupt(WIRE_HEADER_LEN + 5, b'*'), Err(DecodeEventError::BadTopic));
        // invalid UTF-8
        assert_eq!(corrupt(WIRE_HEADER_LEN + 4, 0xFF), Err(DecodeEventError::BadTopic));
        // "conf///video": empty segment
        assert_eq!(corrupt(WIRE_HEADER_LEN + 5, b'/'), Err(DecodeEventError::BadTopic));
    }

    #[test]
    fn pooled_encode_reuses_storage() {
        let event = sample(b"warm");
        let first = encode(&event);
        let ptr = first.as_slice().as_ptr();
        drop(first);
        let second = encode(&event);
        assert_eq!(second.as_slice().as_ptr(), ptr, "pool served the same buffer");
    }
}
