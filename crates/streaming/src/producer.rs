//! The RealProducer: RTP in, "Real format" chunks out.
//!
//! The paper's producer was "enhanced with customer input plug in" to
//! accept RTP from the network instead of a capture card. Ours does the
//! same: feed it decoded [`RtpPacket`]s; it groups video packets into
//! frames (marker bit), recodes them into [`RealChunk`]s at a
//! configurable compression ratio, and hands them to whatever sink is
//! attached (normally [`crate::helix::HelixServer`]).

use std::sync::Arc;

use bytes::{BufMut, Bytes};
use mmcs_rtp::packet::{payload_type, RtpPacket};
use mmcs_util::pool;
use mmcs_util::time::SimTime;

/// The media class of a chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChunkKind {
    /// Audio chunk.
    Audio,
    /// Video chunk (one encoded frame).
    Video,
}

/// One "Real format" chunk — a tagged, length-delimited container
/// (substitute for the proprietary format; see `DESIGN.md` §2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RealChunk {
    /// The stream this chunk belongs to. An `Arc<str>`: every chunk of a
    /// stream (and every delivery of a chunk) shares one name
    /// allocation instead of cloning a `String` per hop.
    pub stream: Arc<str>,
    /// Monotonic chunk sequence within the stream.
    pub seq: u64,
    /// Media timestamp in milliseconds from stream start.
    pub timestamp_ms: u64,
    /// Audio or video.
    pub kind: ChunkKind,
    /// The encoded payload.
    pub data: Bytes,
}

impl RealChunk {
    /// Total size for transport accounting (header + payload).
    pub fn wire_len(&self) -> usize {
        32 + self.stream.len() + self.data.len()
    }
}

/// The producer for one stream.
#[derive(Debug)]
pub struct RealProducer {
    stream: Arc<str>,
    /// Output bytes per input byte (Real encodes tighter than raw RTP).
    compression: f64,
    seq: u64,
    started_at: Option<SimTime>,
    /// Video packets of the in-progress frame.
    pending_frame: Vec<Bytes>,
    produced: Vec<RealChunk>,
}

impl RealProducer {
    /// Creates a producer feeding the named stream at the default 0.85
    /// compression ratio.
    pub fn new(stream: impl Into<Arc<str>>) -> Self {
        Self {
            stream: stream.into(),
            compression: 0.85,
            seq: 0,
            started_at: None,
            pending_frame: Vec::new(),
            produced: Vec::new(),
        }
    }

    /// Overrides the compression ratio, builder style.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < ratio <= 1`.
    pub fn with_compression(mut self, ratio: f64) -> Self {
        assert!(ratio > 0.0 && ratio <= 1.0, "compression ratio out of range");
        self.compression = ratio;
        self
    }

    /// The stream name.
    pub fn stream(&self) -> &str {
        &self.stream
    }

    /// Chunks produced and not yet drained.
    pub fn drain(&mut self) -> Vec<RealChunk> {
        std::mem::take(&mut self.produced)
    }

    /// Feeds one RTP packet observed at `now`. Audio packets become one
    /// chunk each; video packets accumulate until the marker bit closes
    /// the frame.
    pub fn ingest(&mut self, packet: &RtpPacket, now: SimTime) {
        let started = *self.started_at.get_or_insert(now);
        let timestamp_ms = now.saturating_duration_since(started).as_millis();
        match packet.header.payload_type {
            payload_type::PCMU | payload_type::GSM => {
                let data = self.encode(std::slice::from_ref(&packet.payload));
                self.push(ChunkKind::Audio, timestamp_ms, data);
            }
            _ => {
                self.pending_frame.push(packet.payload.clone());
                if packet.header.marker {
                    let parts = std::mem::take(&mut self.pending_frame);
                    let data = self.encode(&parts);
                    self.push(ChunkKind::Video, timestamp_ms, data);
                }
            }
        }
    }

    fn encode(&self, parts: &[Bytes]) -> Bytes {
        let total: usize = parts.iter().map(Bytes::len).sum();
        let out_len = (((total as f64) * self.compression).ceil() as usize).max(4);
        // The simulated codec: size changes, content is a tag + fill.
        // Encoded through the buffer pool, so a steady-state producer
        // recycles the same few chunk buffers instead of allocating one
        // per chunk.
        let mut data = pool::acquire(out_len);
        data.put_slice(b"REAL");
        data.put_bytes(0, out_len - 4);
        data.freeze()
    }

    fn push(&mut self, kind: ChunkKind, timestamp_ms: u64, data: Bytes) {
        self.produced.push(RealChunk {
            stream: Arc::clone(&self.stream),
            seq: self.seq,
            timestamp_ms,
            kind,
            data,
        });
        self.seq += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmcs_rtp::packet::RtpHeader;
    use mmcs_util::time::SimDuration;

    fn audio_packet(seq: u16) -> RtpPacket {
        RtpPacket::new(
            RtpHeader::new(payload_type::PCMU, seq, seq as u32 * 160, 1),
            Bytes::from(vec![0u8; 160]),
        )
    }

    fn video_packet(seq: u16, marker: bool, len: usize) -> RtpPacket {
        let mut header = RtpHeader::new(payload_type::H263, seq, 0, 2);
        header.marker = marker;
        RtpPacket::new(header, Bytes::from(vec![0u8; len]))
    }

    #[test]
    fn audio_packets_become_chunks_immediately() {
        let mut producer = RealProducer::new("session-1/audio");
        let t0 = SimTime::ZERO;
        producer.ingest(&audio_packet(0), t0);
        producer.ingest(&audio_packet(1), t0 + SimDuration::from_millis(20));
        let chunks = producer.drain();
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[0].kind, ChunkKind::Audio);
        assert_eq!(chunks[0].seq, 0);
        assert_eq!(chunks[1].seq, 1);
        assert_eq!(chunks[1].timestamp_ms, 20);
        // 0.85 compression of 160 bytes.
        assert_eq!(chunks[0].data.len(), 136);
        assert!(chunks[0].data.starts_with(b"REAL"));
    }

    #[test]
    fn video_frames_close_on_marker() {
        let mut producer = RealProducer::new("session-1/video");
        let t0 = SimTime::ZERO;
        producer.ingest(&video_packet(0, false, 1000), t0);
        producer.ingest(&video_packet(1, false, 1000), t0);
        assert!(producer.drain().is_empty(), "frame still open");
        producer.ingest(&video_packet(2, true, 500), t0);
        let chunks = producer.drain();
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].kind, ChunkKind::Video);
        // 2500 bytes compressed at 0.85.
        assert_eq!(chunks[0].data.len(), 2125);
    }

    #[test]
    fn custom_compression_applies() {
        let mut producer = RealProducer::new("s").with_compression(0.5);
        producer.ingest(&audio_packet(0), SimTime::ZERO);
        assert_eq!(producer.drain()[0].data.len(), 80);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_compression_panics() {
        let _ = RealProducer::new("s").with_compression(0.0);
    }

    #[test]
    fn wire_len_accounts_header_and_name() {
        let chunk = RealChunk {
            stream: "abc".into(),
            seq: 0,
            timestamp_ms: 0,
            kind: ChunkKind::Audio,
            data: Bytes::from_static(&[0; 100]),
        };
        assert_eq!(chunk.wire_len(), 32 + 3 + 100);
    }
}
