//! The inter-node frame codec: a 16-byte fixed-offset envelope around
//! an opaque body (for [`FrameKind::Event`], a [`crate::wire`] event
//! frame). [`ClusterFrame::parse`] validates once and rejects
//! malformed input with a typed [`DecodeClusterError`]; nothing here
//! panics on bytes off a socket.

use bytes::BufMut;
use mmcs_util::pool::{self, PooledBuf};

use crate::event::Event;
use crate::gossip::NodeId;
use crate::wire;

/// Cluster frame format version.
pub const CLUSTER_VERSION: u8 = 1;
/// Fixed envelope length prepended to every inter-node frame.
pub const CLUSTER_HEADER_LEN: usize = 16;
/// Hard bound on links an event frame may traverse. Any relay that
/// would push a frame past this is dropped (and counted), so even a
/// corrupted route table cannot loop a frame forever.
pub const MAX_HOPS: u8 = 8;

/// Byte offset of the version field.
pub const OFF_VERSION: usize = 0;
/// Byte offset of the frame kind.
pub const OFF_KIND: usize = 1;
/// Byte offset of the origin node id (`u16` BE).
pub const OFF_ORIGIN: usize = 2;
/// Byte offset of the destination node id (`u16` BE).
pub const OFF_DEST: usize = 4;
/// Byte offset of the hop count.
pub const OFF_HOPS: usize = 6;
/// Byte offset of the reserved byte (must be zero).
pub const OFF_RESERVED: usize = 7;
/// Byte offset of the interest generation (`u64` BE).
pub const OFF_GENERATION: usize = 8;

/// What a [`ClusterFrame`] carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// A routed event: the body is a [`crate::wire`] event frame.
    Event = 0,
    /// A gossip digest (version vector); body per
    /// [`gossip::encode_digest_into`].
    GossipDigest = 1,
    /// Gossip entries; body per [`gossip::encode_entries_into`].
    GossipEntries = 2,
    /// A TCP link-level cumulative ack; the generation field holds the
    /// acked link sequence and the body is empty. Produced and consumed
    /// by the TCP transport's socket readers — it never enters a node
    /// worker.
    Ack = 3,
    /// A TCP link flush: a sequenced record the peer's socket reader
    /// answers with a [`FrameKind::FlushAck`] once it has injected or
    /// relayed everything the link released before it. The generation
    /// field holds the sender's flush token and the body is empty. Link
    /// control like `Ack`: built by the link sender, consumed by the
    /// socket reader.
    Flush = 4,
    /// The answer to a [`FrameKind::Flush`], echoing its token; sent
    /// sequenced on the reverse link.
    FlushAck = 5,
}

impl FrameKind {
    fn from_byte(b: u8) -> Option<Self> {
        match b {
            0 => Some(Self::Event),
            1 => Some(Self::GossipDigest),
            2 => Some(Self::GossipEntries),
            3 => Some(Self::Ack),
            4 => Some(Self::Flush),
            5 => Some(Self::FlushAck),
            _ => None,
        }
    }
}

/// Typed errors rejecting a malformed cluster frame. Every variant is
/// reachable from bytes off a socket; none of them panic the ingress
/// loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeClusterError {
    /// Shorter than the fixed envelope.
    Truncated,
    /// Unknown format version.
    BadVersion(u8),
    /// Unknown frame kind byte.
    BadKind(u8),
    /// Hop count above [`MAX_HOPS`] — a frame that must have looped.
    HopLimit(u8),
    /// Reserved byte not zero.
    BadReserved(u8),
    /// An `Event` frame whose embedded wire event is malformed.
    BadEvent(wire::DecodeEventError),
    /// A link-control frame (`Ack`, `Flush`, `FlushAck`) carrying a
    /// body.
    BadBody,
}

impl std::fmt::Display for DecodeClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Truncated => write!(f, "cluster frame truncated"),
            Self::BadVersion(v) => write!(f, "unsupported cluster frame version {v}"),
            Self::BadKind(k) => write!(f, "unknown cluster frame kind {k}"),
            Self::HopLimit(h) => write!(f, "hop count {h} exceeds bound {MAX_HOPS}"),
            Self::BadReserved(b) => write!(f, "reserved byte is {b}, expected 0"),
            Self::BadEvent(err) => write!(f, "embedded event frame invalid: {err}"),
            Self::BadBody => write!(f, "link-control frame carries a body"),
        }
    }
}

impl std::error::Error for DecodeClusterError {}

/// A validated view over an encoded cluster frame. [`parse`] checks
/// everything once (including the embedded event frame for
/// [`FrameKind::Event`]); the accessors are then infallible.
///
/// [`parse`]: ClusterFrame::parse
#[derive(Debug, Clone, Copy)]
pub struct ClusterFrame<'a> {
    raw: &'a [u8],
    kind: FrameKind,
}

impl<'a> ClusterFrame<'a> {
    /// Validates `raw` as a cluster frame.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeClusterError`] naming the first malformation.
    pub fn parse(raw: &'a [u8]) -> Result<ClusterFrame<'a>, DecodeClusterError> {
        if raw.len() < CLUSTER_HEADER_LEN {
            return Err(DecodeClusterError::Truncated);
        }
        let version = read_u8(raw, OFF_VERSION);
        if version != CLUSTER_VERSION {
            return Err(DecodeClusterError::BadVersion(version));
        }
        let kind_byte = read_u8(raw, OFF_KIND);
        let kind = FrameKind::from_byte(kind_byte).ok_or(DecodeClusterError::BadKind(kind_byte))?;
        let hops = read_u8(raw, OFF_HOPS);
        if hops > MAX_HOPS {
            return Err(DecodeClusterError::HopLimit(hops));
        }
        let reserved = read_u8(raw, OFF_RESERVED);
        if reserved != 0 {
            return Err(DecodeClusterError::BadReserved(reserved));
        }
        let frame = ClusterFrame { raw, kind };
        match kind {
            FrameKind::Event => {
                wire::WireEvent::parse(frame.body()).map_err(DecodeClusterError::BadEvent)?;
            }
            FrameKind::Ack | FrameKind::Flush | FrameKind::FlushAck => {
                if !frame.body().is_empty() {
                    return Err(DecodeClusterError::BadBody);
                }
            }
            FrameKind::GossipDigest | FrameKind::GossipEntries => {}
        }
        Ok(frame)
    }

    /// Views a frame that has already passed [`parse`] — a sequenced
    /// record the TCP reader held back for reordering — without walking
    /// it again; `None` if its kind byte is not a kind at all.
    ///
    /// [`parse`]: ClusterFrame::parse
    pub(super) fn trusted(raw: &'a [u8]) -> Option<ClusterFrame<'a>> {
        let kind = FrameKind::from_byte(read_u8(raw, OFF_KIND))?;
        Some(ClusterFrame { raw, kind })
    }

    /// The frame kind.
    pub fn kind(&self) -> FrameKind {
        self.kind
    }

    /// The node that built this frame.
    pub fn origin(&self) -> NodeId {
        read_u16(self.raw, OFF_ORIGIN)
    }

    /// The node this frame is addressed to.
    pub fn dest(&self) -> NodeId {
        read_u16(self.raw, OFF_DEST)
    }

    /// Links traversed so far (bumped by each relay).
    pub fn hops(&self) -> u8 {
        read_u8(self.raw, OFF_HOPS)
    }

    /// The interest generation stamped at routing time (for acks: the
    /// acked link sequence; for flushes and their answers: the token).
    pub fn generation(&self) -> u64 {
        read_u64(self.raw, OFF_GENERATION)
    }

    /// The frame body after the fixed envelope.
    pub fn body(&self) -> &'a [u8] {
        self.raw.get(CLUSTER_HEADER_LEN..).unwrap_or(&[])
    }
}

fn read_u8(raw: &[u8], off: usize) -> u8 {
    raw.get(off).copied().unwrap_or(0)
}

fn read_u16(raw: &[u8], off: usize) -> u16 {
    match raw.get(off..off + 2) {
        Some(b) => u16::from_be_bytes([b[0], b[1]]),
        None => 0,
    }
}

/// The big-endian `u64` at `off` (0 if `raw` is too short).
pub(super) fn read_u64(raw: &[u8], off: usize) -> u64 {
    let word = raw.get(off..off + 8).and_then(|b| b.try_into().ok());
    word.map_or(0, u64::from_be_bytes)
}

/// Writes the fixed envelope into `buf`.
pub fn encode_header_into(
    kind: FrameKind,
    origin: NodeId,
    dest: NodeId,
    hops: u8,
    generation: u64,
    buf: &mut impl BufMut,
) {
    let mut header = [0u8; CLUSTER_HEADER_LEN];
    header[OFF_VERSION] = CLUSTER_VERSION;
    header[OFF_KIND] = kind as u8;
    header[OFF_ORIGIN..OFF_ORIGIN + 2].copy_from_slice(&origin.to_be_bytes());
    header[OFF_DEST..OFF_DEST + 2].copy_from_slice(&dest.to_be_bytes());
    header[OFF_HOPS] = hops;
    header[OFF_RESERVED] = 0;
    header[OFF_GENERATION..OFF_GENERATION + 8].copy_from_slice(&generation.to_be_bytes());
    buf.put_slice(&header);
}

/// Encodes a frame with an opaque body into a pooled buffer.
pub fn encode_frame(
    kind: FrameKind,
    origin: NodeId,
    dest: NodeId,
    hops: u8,
    generation: u64,
    body: &[u8],
) -> PooledBuf {
    let mut buf = pool::acquire(CLUSTER_HEADER_LEN + body.len());
    encode_header_into(kind, origin, dest, hops, generation, &mut buf);
    buf.put_slice(body);
    buf
}

/// Encodes an [`FrameKind::Event`] frame: envelope plus the zero-copy
/// wire encoding of `event`, in one pooled buffer.
pub fn encode_event_frame(
    origin: NodeId,
    dest: NodeId,
    hops: u8,
    generation: u64,
    event: &Event,
) -> PooledBuf {
    let mut buf = pool::acquire(CLUSTER_HEADER_LEN + wire::encoded_len(event));
    encode_header_into(FrameKind::Event, origin, dest, hops, generation, &mut buf);
    wire::encode_into(event, &mut buf);
    buf
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventClass;
    use crate::topic::Topic;
    use bytes::Bytes;
    use mmcs_util::id::ClientId;

    fn sample_event() -> Event {
        Event::new(
            Topic::parse("session/7/video").expect("valid topic"),
            ClientId::from_raw(42),
            3,
            EventClass::Data,
            Bytes::from_static(b"frame"),
        )
    }

    #[test]
    fn frame_roundtrip_preserves_header_fields() {
        let event = sample_event();
        let buf = encode_event_frame(2, 5, 1, 9, &event);
        let parsed = ClusterFrame::parse(&buf).expect("valid frame");
        assert_eq!(parsed.kind(), FrameKind::Event);
        assert_eq!(parsed.origin(), 2);
        assert_eq!(parsed.dest(), 5);
        assert_eq!(parsed.hops(), 1);
        assert_eq!(parsed.generation(), 9);
        let wire = wire::WireEvent::parse(parsed.body()).expect("valid body");
        assert_eq!(wire.topic_str(), "session/7/video");
        assert_eq!(wire.seq(), 3);
    }

    #[test]
    fn parse_rejects_each_malformation_with_its_own_error() {
        let event = sample_event();
        let good = encode_event_frame(0, 1, 0, 0, &event);

        for cut in 0..CLUSTER_HEADER_LEN {
            assert_eq!(
                ClusterFrame::parse(&good[..cut]).unwrap_err(),
                DecodeClusterError::Truncated,
                "prefix of {cut} bytes"
            );
        }

        let mut bad = good.to_vec();
        bad[OFF_VERSION] = 9;
        assert_eq!(
            ClusterFrame::parse(&bad).unwrap_err(),
            DecodeClusterError::BadVersion(9)
        );

        let mut bad = good.to_vec();
        bad[OFF_KIND] = 200;
        assert_eq!(
            ClusterFrame::parse(&bad).unwrap_err(),
            DecodeClusterError::BadKind(200)
        );

        let mut bad = good.to_vec();
        bad[OFF_HOPS] = MAX_HOPS + 1;
        assert_eq!(
            ClusterFrame::parse(&bad).unwrap_err(),
            DecodeClusterError::HopLimit(MAX_HOPS + 1)
        );

        let mut bad = good.to_vec();
        bad[OFF_RESERVED] = 1;
        assert_eq!(
            ClusterFrame::parse(&bad).unwrap_err(),
            DecodeClusterError::BadReserved(1)
        );

        // Event frame whose embedded wire event is cut short.
        let truncated_body = &good[..good.len() - 1];
        assert!(matches!(
            ClusterFrame::parse(truncated_body).unwrap_err(),
            DecodeClusterError::BadEvent(_)
        ));

        // Link-control frames must have an empty body.
        for kind in [FrameKind::Ack, FrameKind::Flush, FrameKind::FlushAck] {
            let bad = encode_frame(kind, 0, 1, 0, 7, b"junk");
            assert_eq!(
                ClusterFrame::parse(&bad).unwrap_err(),
                DecodeClusterError::BadBody,
                "{kind:?}"
            );
            let good = encode_frame(kind, 0, 1, 0, 7, &[]);
            let parsed = ClusterFrame::parse(&good).expect("valid control frame");
            assert_eq!((parsed.kind(), parsed.generation()), (kind, 7));
        }
    }
}
