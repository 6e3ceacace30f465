//! The RTP fixed header and packet (RFC 3550 §5.1), real wire format.
//!
//! Two read paths exist: [`RtpPacket::decode`] materialises an owned
//! packet (copying the payload), while [`WireRtp`] is a borrow-parsed
//! view over the wire bytes — header fields read at fixed offsets,
//! payload returned as a slice into the frame, nothing copied. The two
//! are validated against the same malformed-input matrix; prefer the
//! view (or [`RtpPacket::decode_shared`], which keeps the payload as a
//! zero-copy [`Bytes`] slice) on hot paths.

use bytes::{BufMut, Bytes};
use core::fmt;
use mmcs_util::pool;

/// The RTP protocol version implemented (the only one deployed).
pub const RTP_VERSION: u8 = 2;

/// Size in bytes of the fixed header without CSRC entries.
pub const FIXED_HEADER_LEN: usize = 12;

/// The RTP fixed header.
///
/// # Examples
///
/// ```
/// use mmcs_rtp::packet::RtpHeader;
///
/// let h = RtpHeader::new(0, 100, 160 * 100, 0xcafe);
/// assert_eq!(h.payload_type, 0); // PCMU
/// assert_eq!(h.wire_len(), 12);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RtpHeader {
    /// Padding flag.
    pub padding: bool,
    /// Extension flag (extensions are not parsed; packets carrying one
    /// fail to decode).
    pub extension: bool,
    /// Marker bit: for video, set on the last packet of a frame; for
    /// audio, set on the first packet after silence.
    pub marker: bool,
    /// Payload type (7 bits), e.g. 0 = PCMU, 3 = GSM, 34 = H.263.
    pub payload_type: u8,
    /// Sequence number, increments by one per packet, wraps at 2^16.
    pub sequence_number: u16,
    /// Media timestamp in clock-rate units (8 kHz audio, 90 kHz video).
    pub timestamp: u32,
    /// Synchronization source identifier.
    pub ssrc: u32,
    /// Contributing sources (used by mixers; at most 15).
    pub csrc: Vec<u32>,
}

impl RtpHeader {
    /// Creates a header with the given payload type, sequence number,
    /// timestamp and SSRC; flags clear, no CSRC list.
    ///
    /// # Panics
    ///
    /// Panics if `payload_type` does not fit in 7 bits.
    pub fn new(payload_type: u8, sequence_number: u16, timestamp: u32, ssrc: u32) -> Self {
        assert!(payload_type < 128, "payload type must fit in 7 bits");
        Self {
            padding: false,
            extension: false,
            marker: false,
            payload_type,
            sequence_number,
            timestamp,
            ssrc,
            csrc: Vec::new(),
        }
    }

    /// Header length on the wire, including CSRC entries.
    pub fn wire_len(&self) -> usize {
        FIXED_HEADER_LEN + 4 * self.csrc.len()
    }

    /// Writes the header in wire format to any [`BufMut`] — a
    /// [`BytesMut`](bytes::BytesMut), a plain `Vec<u8>` or a pooled buffer.
    pub fn encode_into(&self, buf: &mut impl BufMut) {
        let b0 = (RTP_VERSION << 6)
            | ((self.padding as u8) << 5)
            | ((self.extension as u8) << 4)
            | (self.csrc.len() as u8);
        let b1 = ((self.marker as u8) << 7) | self.payload_type;
        buf.put_u8(b0);
        buf.put_u8(b1);
        buf.put_u16(self.sequence_number);
        buf.put_u32(self.timestamp);
        buf.put_u32(self.ssrc);
        for csrc in &self.csrc {
            buf.put_u32(*csrc);
        }
    }
}

/// An RTP packet: header plus opaque payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RtpPacket {
    /// The fixed header.
    pub header: RtpHeader,
    /// The media payload.
    pub payload: Bytes,
}

impl RtpPacket {
    /// Creates a packet from a header and payload.
    ///
    /// # Panics
    ///
    /// Panics if the header carries more than 15 CSRC entries (the field
    /// is 4 bits on the wire).
    pub fn new(header: RtpHeader, payload: Bytes) -> Self {
        assert!(header.csrc.len() <= 15, "at most 15 CSRC entries");
        Self { header, payload }
    }

    /// Total size on the wire.
    pub fn wire_len(&self) -> usize {
        self.header.wire_len() + self.payload.len()
    }

    /// Encodes the packet into RFC 3550 wire format. The scratch buffer
    /// comes from the thread-local [`pool`]; the returned [`Bytes`] hands
    /// it back when the last clone drops.
    pub fn encode(&self) -> Bytes {
        let mut buf = pool::acquire(self.wire_len());
        self.encode_into(&mut buf);
        buf.freeze()
    }

    /// Writes the packet in wire format to any [`BufMut`].
    pub fn encode_into(&self, buf: &mut impl BufMut) {
        self.header.encode_into(buf);
        buf.put_slice(&self.payload);
    }

    /// Decodes a packet from wire format, copying the payload.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeRtpError`] when the buffer is truncated, the
    /// version is not 2, or the packet carries a header extension (not
    /// supported by the 2003-era A/V tools this models, nor by us).
    pub fn decode(wire: &[u8]) -> Result<RtpPacket, DecodeRtpError> {
        let view = WireRtp::parse(wire)?;
        Ok(RtpPacket {
            header: view.header_owned(),
            payload: Bytes::copy_from_slice(view.payload()),
        })
    }

    /// Decodes a packet whose wire bytes live in a shared [`Bytes`],
    /// keeping the payload as a zero-copy slice of the frame.
    ///
    /// # Errors
    ///
    /// Same failure matrix as [`RtpPacket::decode`].
    pub fn decode_shared(frame: &Bytes) -> Result<RtpPacket, DecodeRtpError> {
        let view = WireRtp::parse(frame)?;
        let start = view.header_len();
        let end = start + view.payload().len();
        Ok(RtpPacket {
            header: view.header_owned(),
            payload: frame.slice(start..end),
        })
    }
}

/// A zero-copy view over an RTP packet's wire bytes.
///
/// [`WireRtp::parse`] runs the full validation matrix (truncation —
/// including inside the CSRC area — version, extension, padding
/// consistency) once; every accessor afterwards is an infallible
/// fixed-offset read into the borrowed frame. Nothing is copied: the
/// payload comes back as a sub-slice with padding already stripped.
///
/// # Examples
///
/// ```
/// use bytes::Bytes;
/// use mmcs_rtp::packet::{RtpHeader, RtpPacket, WireRtp};
///
/// let wire = RtpPacket::new(RtpHeader::new(0, 7, 1120, 0xabcd), Bytes::from_static(b"pcm"))
///     .encode();
/// let view = WireRtp::parse(&wire).unwrap();
/// assert_eq!(view.sequence_number(), 7);
/// assert_eq!(view.payload(), b"pcm");
/// ```
#[derive(Debug, Clone, Copy)]
pub struct WireRtp<'a> {
    buf: &'a [u8],
    header_len: usize,
    /// End of the logical payload (wire length minus any padding).
    payload_end: usize,
}

impl<'a> WireRtp<'a> {
    /// Validates `wire` and returns the borrow-parsed view.
    ///
    /// # Errors
    ///
    /// The same matrix as [`RtpPacket::decode`]: truncation (fixed
    /// header or CSRC area), bad version, header extension, inconsistent
    /// padding.
    pub fn parse(wire: &'a [u8]) -> Result<WireRtp<'a>, DecodeRtpError> {
        if wire.len() < FIXED_HEADER_LEN {
            return Err(DecodeRtpError::Truncated {
                needed: FIXED_HEADER_LEN,
                got: wire.len(),
            });
        }
        let version = wire[0] >> 6;
        if version != RTP_VERSION {
            return Err(DecodeRtpError::BadVersion(version));
        }
        if wire[0] & 0b0001_0000 != 0 {
            return Err(DecodeRtpError::ExtensionUnsupported);
        }
        let csrc_count = (wire[0] & 0b0000_1111) as usize;
        let header_len = FIXED_HEADER_LEN + 4 * csrc_count;
        if wire.len() < header_len {
            return Err(DecodeRtpError::Truncated {
                needed: header_len,
                got: wire.len(),
            });
        }
        let mut payload_end = wire.len();
        if wire[0] & 0b0010_0000 != 0 {
            // `header_len` is within `wire` (checked above).
            let payload = wire.get(header_len..).unwrap_or_default();
            let Some(&pad_len) = payload.last() else {
                return Err(DecodeRtpError::BadPadding);
            };
            let pad_len = pad_len as usize;
            if pad_len == 0 || pad_len > payload.len() {
                return Err(DecodeRtpError::BadPadding);
            }
            payload_end -= pad_len;
        }
        Ok(WireRtp {
            buf: wire,
            header_len,
            payload_end,
        })
    }

    /// Whether the wire packet carried padding (already stripped from
    /// [`WireRtp::payload`]).
    pub fn padding(&self) -> bool {
        self.buf[0] & 0b0010_0000 != 0
    }

    /// Marker bit.
    pub fn marker(&self) -> bool {
        self.buf[1] & 0b1000_0000 != 0
    }

    /// Payload type (7 bits).
    pub fn payload_type(&self) -> u8 {
        self.buf[1] & 0b0111_1111
    }

    /// Sequence number.
    pub fn sequence_number(&self) -> u16 {
        u16::from_be_bytes([self.buf[2], self.buf[3]])
    }

    /// Media timestamp.
    pub fn timestamp(&self) -> u32 {
        u32::from_be_bytes([self.buf[4], self.buf[5], self.buf[6], self.buf[7]])
    }

    /// Synchronization source.
    pub fn ssrc(&self) -> u32 {
        u32::from_be_bytes([self.buf[8], self.buf[9], self.buf[10], self.buf[11]])
    }

    /// Number of CSRC entries.
    pub fn csrc_count(&self) -> usize {
        (self.buf[0] & 0b0000_1111) as usize
    }

    /// Iterates the CSRC entries without building a `Vec`.
    pub fn csrc(&self) -> impl Iterator<Item = u32> + 'a {
        self.buf[FIXED_HEADER_LEN..self.header_len]
            .chunks_exact(4)
            .map(|c| u32::from_be_bytes([c[0], c[1], c[2], c[3]]))
    }

    /// Header length on the wire (fixed header plus CSRC entries).
    pub fn header_len(&self) -> usize {
        self.header_len
    }

    /// The logical payload: a slice into the frame, padding stripped.
    pub fn payload(&self) -> &'a [u8] {
        // `parse` validated `header_len <= payload_end <= buf.len()`; the
        // fallback keeps the hot decode path free of panicking indexing.
        self.buf.get(self.header_len..self.payload_end).unwrap_or(&[])
    }

    /// Materialises an owned [`RtpHeader`] (allocates the CSRC list).
    /// Padding was consumed by [`WireRtp::parse`], so the owned header
    /// reports the logical packet: `padding: false`.
    pub fn header_owned(&self) -> RtpHeader {
        RtpHeader {
            padding: false,
            extension: false,
            marker: self.marker(),
            payload_type: self.payload_type(),
            sequence_number: self.sequence_number(),
            timestamp: self.timestamp(),
            ssrc: self.ssrc(),
            csrc: self.csrc().collect(),
        }
    }
}

/// Error decoding an RTP packet from the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeRtpError {
    /// Buffer shorter than the header demands.
    Truncated {
        /// Bytes required.
        needed: usize,
        /// Bytes available.
        got: usize,
    },
    /// Version field was not 2.
    BadVersion(u8),
    /// Header extensions are not supported.
    ExtensionUnsupported,
    /// Padding flag set but the padding length is inconsistent.
    BadPadding,
}

impl fmt::Display for DecodeRtpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeRtpError::Truncated { needed, got } => {
                write!(f, "truncated rtp packet: need {needed} bytes, got {got}")
            }
            DecodeRtpError::BadVersion(v) => write!(f, "unsupported rtp version {v}"),
            DecodeRtpError::ExtensionUnsupported => write!(f, "rtp header extension unsupported"),
            DecodeRtpError::BadPadding => write!(f, "inconsistent rtp padding"),
        }
    }
}

impl std::error::Error for DecodeRtpError {}

/// Well-known payload types used across the workspace.
pub mod payload_type {
    /// PCMU (G.711 µ-law) audio, 8 kHz.
    pub const PCMU: u8 = 0;
    /// GSM full-rate audio, 8 kHz.
    pub const GSM: u8 = 3;
    /// H.261 video, 90 kHz.
    pub const H261: u8 = 31;
    /// H.263 video, 90 kHz.
    pub const H263: u8 = 34;

    /// The RTP clock rate for a payload type.
    pub fn clock_rate(pt: u8) -> u32 {
        match pt {
            PCMU | GSM => 8_000,
            H261 | H263 => 90_000,
            // Dynamic types in this workspace are video.
            _ => 90_000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    fn sample() -> RtpPacket {
        let mut header = RtpHeader::new(34, 4660, 0x0102_0304, 0xdead_beef);
        header.marker = true;
        header.csrc = vec![1, 2, 3];
        RtpPacket::new(header, Bytes::from_static(b"hello media"))
    }

    #[test]
    fn encode_decode_round_trip() {
        let packet = sample();
        let wire = packet.encode();
        assert_eq!(wire.len(), packet.wire_len());
        assert_eq!(RtpPacket::decode(&wire).unwrap(), packet);
    }

    #[test]
    fn wire_layout_matches_rfc3550() {
        let packet = RtpPacket::new(RtpHeader::new(0, 0x1234, 0xAABBCCDD, 0x11223344), Bytes::new());
        let wire = packet.encode();
        assert_eq!(wire[0], 0x80); // V=2, P=0, X=0, CC=0
        assert_eq!(wire[1], 0x00); // M=0, PT=0
        assert_eq!(&wire[2..4], &[0x12, 0x34]);
        assert_eq!(&wire[4..8], &[0xAA, 0xBB, 0xCC, 0xDD]);
        assert_eq!(&wire[8..12], &[0x11, 0x22, 0x33, 0x44]);
    }

    #[test]
    fn marker_and_payload_type_share_a_byte() {
        let mut header = RtpHeader::new(96, 1, 1, 1);
        header.marker = true;
        let wire = RtpPacket::new(header, Bytes::new()).encode();
        assert_eq!(wire[1], 0x80 | 96);
    }

    #[test]
    fn truncated_input_errors() {
        let packet = sample();
        let wire = packet.encode();
        assert!(matches!(
            RtpPacket::decode(&wire[..8]),
            Err(DecodeRtpError::Truncated { .. })
        ));
        // Truncated inside the CSRC list.
        assert!(matches!(
            RtpPacket::decode(&wire[..14]),
            Err(DecodeRtpError::Truncated { .. })
        ));
    }

    #[test]
    fn bad_version_errors() {
        let mut wire = sample().encode().to_vec();
        wire[0] = (1 << 6) | (wire[0] & 0x3F);
        assert_eq!(RtpPacket::decode(&wire), Err(DecodeRtpError::BadVersion(1)));
    }

    #[test]
    fn extension_flag_rejected() {
        let mut wire = sample().encode().to_vec();
        wire[0] |= 0b0001_0000;
        assert_eq!(
            RtpPacket::decode(&wire),
            Err(DecodeRtpError::ExtensionUnsupported)
        );
    }

    #[test]
    fn padding_is_stripped() {
        let header = RtpHeader::new(0, 1, 1, 1);
        let mut wire = BytesMut::new();
        let mut h = header.clone();
        h.padding = true;
        h.encode_into(&mut wire);
        wire.put_slice(b"abcd");
        wire.put_slice(&[0, 0, 3]); // 3 bytes of padding incl. the count
        let decoded = RtpPacket::decode(&wire).unwrap();
        assert_eq!(&decoded.payload[..], b"abcd");
        assert!(!decoded.header.padding);
    }

    #[test]
    fn bad_padding_errors() {
        let mut h = RtpHeader::new(0, 1, 1, 1);
        h.padding = true;
        let mut wire = BytesMut::new();
        h.encode_into(&mut wire);
        wire.put_slice(&[9]); // claims 9 bytes of padding, only 1 present
        assert_eq!(RtpPacket::decode(&wire), Err(DecodeRtpError::BadPadding));
    }

    #[test]
    #[should_panic(expected = "7 bits")]
    fn oversized_payload_type_panics() {
        let _ = RtpHeader::new(128, 0, 0, 0);
    }

    #[test]
    #[should_panic(expected = "15 CSRC")]
    fn too_many_csrc_panics() {
        let mut header = RtpHeader::new(0, 0, 0, 0);
        header.csrc = vec![0; 16];
        let _ = RtpPacket::new(header, Bytes::new());
    }

    #[test]
    fn clock_rates() {
        assert_eq!(payload_type::clock_rate(payload_type::PCMU), 8_000);
        assert_eq!(payload_type::clock_rate(payload_type::GSM), 8_000);
        assert_eq!(payload_type::clock_rate(payload_type::H263), 90_000);
        assert_eq!(payload_type::clock_rate(97), 90_000);
    }
}
