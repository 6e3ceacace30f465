//! Per-source receiver statistics.
//!
//! [`ReceiverStats`] is what each measured client in the Figure 3
//! experiment keeps: per-packet one-way delay (send→arrival in virtual
//! time, the quantity the paper plots, measurable because the 12 measured
//! clients share the sender's clock), RFC 3550 smoothed jitter, and the
//! loss estimate — and it can emit the matching RTCP report block.

use mmcs_util::stats::{OnlineStats, SampleSeries};
use mmcs_util::time::SimTime;

use crate::jitter::JitterEstimator;
use crate::packet::{payload_type, RtpHeader, WireRtp};
use crate::rtcp::ReportBlock;
use crate::seq::SequenceTracker;

/// Statistics for one received RTP source.
#[derive(Debug, Clone)]
pub struct ReceiverStats {
    ssrc: u32,
    tracker: Option<SequenceTracker>,
    jitter: JitterEstimator,
    delay_ms: OnlineStats,
    delay_series: Option<SampleSeries>,
    jitter_series: Option<SampleSeries>,
}

impl ReceiverStats {
    /// Creates statistics for a source with the given SSRC and payload
    /// type (which determines the RTP clock rate).
    pub fn new(ssrc: u32, pt: u8) -> Self {
        Self {
            ssrc,
            tracker: None,
            jitter: JitterEstimator::new(payload_type::clock_rate(pt)),
            delay_ms: OnlineStats::new(),
            delay_series: None,
            jitter_series: None,
        }
    }

    /// Enables per-packet series capture (needed to plot Figure 3's
    /// per-packet curves; off by default to keep 400-client runs lean).
    pub fn with_series_capture(mut self) -> Self {
        self.delay_series = Some(SampleSeries::new());
        self.jitter_series = Some(SampleSeries::new());
        self
    }

    /// Records a received packet.
    ///
    /// `sent_at` is when the sender emitted it (known in simulation; on
    /// the paper's testbed, known for the co-located clients).
    pub fn record(&mut self, header: &RtpHeader, sent_at: SimTime, arrival: SimTime) {
        self.record_fields(header.sequence_number, header.timestamp, sent_at, arrival);
    }

    /// [`ReceiverStats::record`] for a packet still in wire format: reads
    /// the two header fields it needs from the borrowed view, so a
    /// receiver that only measures never copies the payload.
    pub fn record_wire(&mut self, rtp: &WireRtp<'_>, sent_at: SimTime, arrival: SimTime) {
        self.record_fields(rtp.sequence_number(), rtp.timestamp(), sent_at, arrival);
    }

    fn record_fields(&mut self, sequence_number: u16, timestamp: u32, sent_at: SimTime, arrival: SimTime) {
        match &mut self.tracker {
            Some(tracker) => {
                tracker.record(sequence_number);
            }
            None => self.tracker = Some(SequenceTracker::new(sequence_number)),
        }
        let delay = arrival.saturating_duration_since(sent_at).as_millis_f64();
        self.delay_ms.record(delay);
        self.jitter.record(arrival, timestamp);
        if let Some(series) = &mut self.delay_series {
            series.record(delay);
        }
        if let Some(series) = &mut self.jitter_series {
            series.record(self.jitter.jitter_ms());
        }
    }

    /// The source's SSRC.
    pub fn ssrc(&self) -> u32 {
        self.ssrc
    }

    /// Packets received so far.
    pub fn received(&self) -> u64 {
        self.tracker.as_ref().map_or(0, SequenceTracker::received)
    }

    /// Estimated packets lost so far.
    pub fn lost(&self) -> u64 {
        self.tracker.as_ref().map_or(0, SequenceTracker::lost)
    }

    /// Loss fraction in `[0, 1]`.
    pub fn loss_fraction(&self) -> f64 {
        self.tracker
            .as_ref()
            .map_or(0.0, SequenceTracker::loss_fraction)
    }

    /// One-way delay statistics in milliseconds.
    pub fn delay_ms(&self) -> &OnlineStats {
        &self.delay_ms
    }

    /// Current smoothed jitter in milliseconds.
    pub fn jitter_ms(&self) -> f64 {
        self.jitter.jitter_ms()
    }

    /// Per-packet delay series, if capture was enabled.
    pub fn delay_series(&self) -> Option<&SampleSeries> {
        self.delay_series.as_ref()
    }

    /// Per-packet smoothed-jitter series, if capture was enabled.
    pub fn jitter_series(&self) -> Option<&SampleSeries> {
        self.jitter_series.as_ref()
    }

    /// Builds the RTCP report block for this source.
    pub fn report_block(&self) -> ReportBlock {
        let (highest, lost) = match &self.tracker {
            Some(t) => (t.extended_max() as u32, t.lost()),
            None => (0, 0),
        };
        ReportBlock {
            ssrc: self.ssrc,
            fraction_lost: (self.loss_fraction() * 256.0).min(255.0) as u8,
            cumulative_lost: lost.min(u32::MAX as u64) as u32,
            highest_seq: highest,
            jitter: self.jitter.jitter_rtp_units(),
            last_sr: 0,
            delay_since_last_sr: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::RtpHeader;
    use mmcs_util::time::SimDuration;

    fn header(seq: u16, ts: u32) -> RtpHeader {
        RtpHeader::new(payload_type::H263, seq, ts, 77)
    }

    #[test]
    fn records_delay_and_counts() {
        let mut stats = ReceiverStats::new(77, payload_type::H263);
        let mut sent = SimTime::ZERO;
        for i in 0..10u16 {
            let arrival = sent + SimDuration::from_millis(5);
            stats.record(&header(i, i as u32 * 3600), sent, arrival);
            sent += SimDuration::from_millis(40);
        }
        assert_eq!(stats.received(), 10);
        assert_eq!(stats.lost(), 0);
        assert!((stats.delay_ms().mean() - 5.0).abs() < 1e-9);
        assert!(stats.jitter_ms() < 1e-9);
    }

    #[test]
    fn detects_loss() {
        let mut stats = ReceiverStats::new(77, payload_type::H263);
        stats.record(&header(0, 0), SimTime::ZERO, SimTime::from_millis(1));
        stats.record(&header(4, 100), SimTime::ZERO, SimTime::from_millis(2));
        assert_eq!(stats.lost(), 3);
        assert!(stats.loss_fraction() > 0.5);
    }

    #[test]
    fn series_capture_is_optional() {
        let plain = ReceiverStats::new(1, payload_type::PCMU);
        assert!(plain.delay_series().is_none());
        let mut capturing = ReceiverStats::new(1, payload_type::PCMU).with_series_capture();
        capturing.record(&header(0, 0), SimTime::ZERO, SimTime::from_millis(3));
        assert_eq!(capturing.delay_series().unwrap().len(), 1);
        assert_eq!(capturing.delay_series().unwrap().samples()[0], 3.0);
        assert_eq!(capturing.jitter_series().unwrap().len(), 1);
    }

    #[test]
    fn report_block_reflects_state() {
        let mut stats = ReceiverStats::new(9, payload_type::PCMU);
        stats.record(&header(0, 0), SimTime::ZERO, SimTime::from_millis(1));
        stats.record(&header(3, 480), SimTime::ZERO, SimTime::from_millis(25));
        let block = stats.report_block();
        assert_eq!(block.ssrc, 9);
        assert_eq!(block.cumulative_lost, 2);
        assert_eq!(block.highest_seq, 3);
        assert!(block.fraction_lost > 0);
    }

    #[test]
    fn empty_stats_report_zeroes() {
        let stats = ReceiverStats::new(5, payload_type::PCMU);
        let block = stats.report_block();
        assert_eq!(block.cumulative_lost, 0);
        assert_eq!(block.highest_seq, 0);
        assert_eq!(stats.received(), 0);
    }
}
