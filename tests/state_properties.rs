//! Property tests on the stateful cores: the ordered-delivery
//! reassembler, floor control, the calendar's conflict detection, and
//! the A/V switch.

use proptest::prelude::*;

use bytes::Bytes;
use mmcs::broker::event::{Event, EventClass};
use mmcs::broker::ordering::Reassembler;
use mmcs::broker::topic::Topic;
use mmcs::global_mmcs::avs::MediaSwitch;
use mmcs::xgsp::calendar::Calendar;
use mmcs::xgsp::floor::Floor;
use mmcs_util::id::{ClientId, SessionId};
use mmcs_util::time::{SimDuration, SimTime};

fn event(seq: u64) -> std::sync::Arc<Event> {
    Event::new(
        Topic::parse("t").unwrap(),
        ClientId::from_raw(1),
        seq,
        EventClass::Data,
        Bytes::new(),
    )
    .into_shared()
}

proptest! {
    /// Any permutation of a window-bounded burst is released in exact
    /// sequence order with nothing lost.
    #[test]
    fn reassembler_sorts_any_window_bounded_permutation(
        len in 1usize..24,
        seed: u64,
    ) {
        let mut order: Vec<u64> = (0..len as u64).collect();
        let mut rng = mmcs_util::rng::DetRng::new(seed);
        rng.shuffle(&mut order);
        // Window >= len: nothing may be skipped.
        let mut reassembler = Reassembler::new(len as u64 + 1);
        let mut released = Vec::new();
        for seq in order {
            released.extend(reassembler.offer(event(seq)).iter().map(|e| e.seq));
        }
        prop_assert_eq!(released, (0..len as u64).collect::<Vec<_>>());
        prop_assert_eq!(reassembler.skipped(ClientId::from_raw(1)), 0);
        prop_assert_eq!(reassembler.buffered(), 0);
    }

    /// Whatever arrives, output sequence numbers are strictly increasing
    /// per source and every offered event is delivered at most once.
    #[test]
    fn reassembler_output_is_strictly_increasing(
        seqs in prop::collection::vec(0u64..40, 1..60),
        window in 1u64..8,
    ) {
        let mut reassembler = Reassembler::new(window);
        let mut out = Vec::new();
        for seq in seqs {
            out.extend(reassembler.offer(event(seq)).iter().map(|e| e.seq));
        }
        for pair in out.windows(2) {
            prop_assert!(pair[0] < pair[1], "out of order: {:?}", out);
        }
        let mut deduped = out.clone();
        deduped.dedup();
        prop_assert_eq!(deduped.len(), out.len(), "duplicate release");
    }

    /// Floor invariants under arbitrary operation sequences: at most one
    /// holder; the queue never contains the holder or duplicates.
    #[test]
    fn floor_invariants_hold(
        ops in prop::collection::vec((0u8..4, 0usize..4), 0..40),
    ) {
        let users = ["a", "b", "c", "d"];
        let mut floor = Floor::new();
        for (op, user_index) in ops {
            let user = users[user_index];
            match op {
                0 => { floor.request(user.to_owned()); }
                1 => { floor.grant_next(); }
                2 => { floor.release(user); }
                _ => { floor.remove_member(user); }
            }
            let queue: Vec<&str> = floor.queue().collect();
            if let Some(holder) = floor.holder() {
                prop_assert!(!queue.contains(&holder), "holder also queued");
            }
            let mut deduped = queue.clone();
            deduped.sort_unstable();
            deduped.dedup();
            prop_assert_eq!(deduped.len(), queue.len(), "queue has duplicates");
        }
    }

    /// Calendar conflict detection: bookings accepted for one room never
    /// overlap pairwise; rejected bookings always overlap something.
    #[test]
    fn calendar_accepts_exactly_nonoverlapping(
        slots in prop::collection::vec((0u64..100, 1u64..20), 1..20),
    ) {
        let mut calendar = Calendar::new();
        let mut accepted: Vec<(u64, u64)> = Vec::new();
        for (start, len) in slots {
            let result = calendar.book(
                "room",
                "user",
                vec![],
                SimTime::from_secs(start),
                SimDuration::from_secs(len),
                "t",
            );
            let overlaps_existing = accepted
                .iter()
                .any(|(s, l)| start < s + l && *s < start + len);
            prop_assert_eq!(
                result.is_err(),
                overlaps_existing,
                "slot ({}, {}) vs {:?}",
                start,
                len,
                accepted
            );
            if result.is_ok() {
                accepted.push((start, len));
            }
        }
        prop_assert_eq!(calendar.len(), accepted.len());
    }

    /// The A/V switch always selects someone who actually reported audio,
    /// and never switches while a pin is set.
    #[test]
    fn media_switch_selects_reporters_only(
        reports in prop::collection::vec((0usize..4, 0.0f64..1.0, 0u64..10_000), 1..40),
        pin_at in prop::option::of(0usize..20),
    ) {
        let users = ["a", "b", "c", "d"];
        let session = SessionId::from_raw(1);
        let mut switch = MediaSwitch::new();
        let mut reported: Vec<&str> = Vec::new();
        for (i, (user_index, level, at_ms)) in reports.iter().enumerate() {
            if pin_at == Some(i) {
                switch.pin(session, Some("pinned"));
            }
            let user = users[*user_index];
            reported.push(user);
            switch.report_audio(session, user, *level, SimTime::from_millis(*at_ms));
            if let Some(selected) = switch.selected(session) {
                if pin_at.is_some_and(|p| p <= i) {
                    prop_assert_eq!(selected, "pinned");
                } else {
                    prop_assert!(reported.contains(&selected), "phantom selection");
                }
            }
        }
    }
}

proptest! {
    /// OnlineStats::merge is associative-enough: merging arbitrary
    /// partitions of a sample set matches the sequential accumulation.
    #[test]
    fn online_stats_merge_matches_sequential(
        samples in prop::collection::vec(-1e6f64..1e6, 1..200),
        cut in 0usize..200,
    ) {
        use mmcs_util::stats::OnlineStats;
        let cut = cut.min(samples.len());
        let mut whole = OnlineStats::new();
        for &x in &samples {
            whole.record(x);
        }
        let mut left = OnlineStats::new();
        let mut right = OnlineStats::new();
        for &x in &samples[..cut] {
            left.record(x);
        }
        for &x in &samples[cut..] {
            right.record(x);
        }
        left.merge(&right);
        prop_assert_eq!(left.count(), whole.count());
        prop_assert!((left.mean() - whole.mean()).abs() <= 1e-6 * whole.mean().abs().max(1.0));
        prop_assert!(
            (left.variance() - whole.variance()).abs()
                <= 1e-6 * whole.variance().abs().max(1.0)
        );
        prop_assert_eq!(left.min(), whole.min());
        prop_assert_eq!(left.max(), whole.max());
    }
}

proptest! {
    /// The token bucket never goes negative and never exceeds its burst;
    /// conforming traffic over a long window respects the average rate.
    #[test]
    fn token_bucket_respects_rate(
        arrivals in prop::collection::vec((1u64..200, 1usize..500), 1..80),
    ) {
        use mmcs_util::rate::{Bandwidth, TokenBucket};
        use mmcs_util::time::{SimDuration, SimTime};
        let rate = Bandwidth::from_kbps(80); // 10_000 bytes/s
        let burst = 2_000u64;
        let mut bucket = TokenBucket::new(rate, burst, SimTime::ZERO);
        let mut now = SimTime::ZERO;
        let mut accepted_bytes = 0u64;
        for (gap_ms, bytes) in arrivals {
            now += SimDuration::from_millis(gap_ms);
            prop_assert!(bucket.available(now) <= burst);
            if bucket.try_consume(bytes, now) {
                accepted_bytes += bytes as u64;
            }
        }
        // Everything accepted fits within burst + rate x elapsed.
        let budget = burst + rate.bytes_in(now.saturating_duration_since(SimTime::ZERO));
        prop_assert!(
            accepted_bytes <= budget,
            "accepted {} > budget {}",
            accepted_bytes,
            budget
        );
    }
}
