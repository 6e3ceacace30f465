//! Property tests on the RTP bookkeeping: the sequence tracker's loss
//! arithmetic and the jitter estimator's bounds.

use proptest::prelude::*;

use mmcs::rtp::jitter::JitterEstimator;
use mmcs::rtp::seq::SequenceTracker;
use mmcs_util::time::SimTime;

proptest! {
    /// Delivering a sorted, deduplicated subset of a contiguous range:
    /// expected == span, received == subset size, lost == difference.
    #[test]
    fn tracker_loss_arithmetic(
        start: u16,
        mut offsets in prop::collection::btree_set(0u16..500, 1..100),
    ) {
        let offsets: Vec<u16> = std::mem::take(&mut offsets).into_iter().collect();
        let first = start.wrapping_add(offsets[0]);
        let mut tracker = SequenceTracker::new(first);
        for offset in &offsets[1..] {
            tracker.record(start.wrapping_add(*offset));
        }
        let span = (offsets[offsets.len() - 1] - offsets[0]) as u64 + 1;
        prop_assert_eq!(tracker.expected(), span);
        prop_assert_eq!(tracker.received(), offsets.len() as u64);
        prop_assert_eq!(tracker.lost(), span - offsets.len() as u64);
        prop_assert!(tracker.loss_fraction() >= 0.0 && tracker.loss_fraction() < 1.0);
    }

    /// The smoothed jitter is always non-negative and never exceeds the
    /// largest instantaneous |D| observed.
    #[test]
    fn jitter_is_bounded_by_max_displacement(
        arrivals in prop::collection::vec(0u64..5_000, 2..50),
    ) {
        let mut sorted = arrivals.clone();
        sorted.sort_unstable();
        let mut estimator = JitterEstimator::new(8_000);
        let mut max_d: f64 = 0.0;
        for (i, at_ms) in sorted.iter().enumerate() {
            // Timestamps advance one 20 ms frame per packet.
            let d = estimator.record(SimTime::from_millis(*at_ms), i as u32 * 160);
            max_d = max_d.max(d);
        }
        prop_assert!(estimator.jitter_ms() >= 0.0);
        prop_assert!(
            estimator.jitter_ms() <= max_d + 1e-9,
            "J {} > max |D| {}",
            estimator.jitter_ms(),
            max_d
        );
    }
}
