//! Property tests on the reliable channel: a [`ReliableSender`] and
//! [`ReliableReceiver`] connected through an adversarial channel model
//! (per-frame loss, reordering, duplication, ack loss) must still
//! deliver exactly the offered events, in order, without duplicates,
//! while never exceeding the in-flight window.
//!
//! The channel is generic over its payload. The federation's TCP link
//! sender runs it over its link frames — encoded `Bytes`, or an
//! `Arc<Event>` the link encodes on every transmission — and the reader
//! over `Bytes` records, so the emission-discipline property at the
//! bottom is instantiated for both of those payload types: it is what
//! rules out writing a frame twice when the send that queued it is also
//! the one that reconnects.

use std::sync::Arc;

use proptest::prelude::*;

use bytes::Bytes;
use mmcs::broker::event::{Event, EventClass};
use mmcs::broker::reliable::{Ack, ReliableFrame, ReliableReceiver, ReliableSender};
use mmcs::broker::topic::Topic;
use mmcs_util::id::ClientId;
use mmcs_util::rng::DetRng;
use mmcs_util::time::{SimDuration, SimTime};

fn event(i: u64) -> Arc<Event> {
    Event::new(
        Topic::parse("rel/prop").unwrap(),
        ClientId::from_raw(1),
        i,
        EventClass::Control,
        Bytes::from(i.to_be_bytes().to_vec()),
    )
    .into_shared()
}

/// The adversarial channel: each direction is a bag of frames the RNG
/// may drop, duplicate, or deliver in random order.
struct Channel {
    rng: DetRng,
    loss: f64,
    duplicate: f64,
    data: Vec<ReliableFrame>,
    acks: Vec<Ack>,
}

impl Channel {
    fn offer_frames(&mut self, frames: Vec<ReliableFrame>) {
        for frame in frames {
            if self.rng.chance(self.loss) {
                continue;
            }
            if self.rng.chance(self.duplicate) {
                self.data.push(frame.clone());
            }
            self.data.push(frame);
        }
    }

    fn offer_ack(&mut self, ack: Ack) {
        if !self.rng.chance(self.loss) {
            self.acks.push(ack);
        }
    }

    /// Removes a random in-flight frame (reordering: the channel hands
    /// frames back in arbitrary order, not arrival order).
    fn pop_frame(&mut self) -> Option<ReliableFrame> {
        if self.data.is_empty() {
            return None;
        }
        let i = self.rng.range_usize(0, self.data.len());
        Some(self.data.swap_remove(i))
    }

    fn pop_ack(&mut self) -> Option<Ack> {
        if self.acks.is_empty() {
            return None;
        }
        let i = self.rng.range_usize(0, self.acks.len());
        Some(self.acks.swap_remove(i))
    }
}

/// Drives sender → channel → receiver → channel → sender until the
/// stream completes, returning the delivered payload indices and the
/// max in-flight count ever observed.
fn drive(seed: u64, total: u64, window: usize, loss: f64, duplicate: f64) -> (Vec<u64>, usize) {
    let rto = SimDuration::from_millis(50);
    let mut sender = ReliableSender::new(window, rto);
    let mut receiver = ReliableReceiver::new();
    let mut channel = Channel {
        rng: DetRng::new(seed),
        loss,
        duplicate,
        data: Vec::new(),
        acks: Vec::new(),
    };
    let mut delivered: Vec<u64> = Vec::new();
    let mut max_in_flight = 0usize;
    let mut now = SimTime::ZERO;
    let mut offered = 0u64;
    // Each iteration is one 10 ms step: maybe offer an event, shuttle a
    // few frames/acks across the adversarial channel, tick the RTO.
    // 20k steps bounds the run; exactly-once must hold well before.
    for step in 0..20_000u64 {
        now = SimTime::from_millis(step * 10);
        if offered < total {
            channel.offer_frames(sender.send(event(offered), now));
            offered += 1;
        }
        max_in_flight = max_in_flight.max(sender.in_flight());
        for _ in 0..4 {
            if let Some(frame) = channel.pop_frame() {
                let (events, ack) = receiver.on_frame(frame);
                for e in events {
                    delivered.push(e.seq);
                }
                channel.offer_ack(ack);
            }
            if let Some(ack) = channel.pop_ack() {
                channel.offer_frames(sender.on_ack(ack, now));
            }
        }
        channel.offer_frames(sender.on_tick(now));
        max_in_flight = max_in_flight.max(sender.in_flight());
        if sender.is_idle() && offered == total && channel.data.is_empty() {
            break;
        }
    }
    let _ = now;
    (delivered, max_in_flight)
}

/// Runs one sender/receiver pair under a seeded schedule of sends,
/// frame drops, ack drops and clock advances, asserting the emission
/// discipline at every step:
///
/// * `send` and `on_ack` emit only sequence numbers never emitted
///   before, consecutively — each exactly once;
/// * `on_tick` emits only sequence numbers emitted before, and never
///   sooner than the RTO after that number's last emission;
/// * the receiver releases every payload exactly once, in offer order.
///
/// `make` builds payload `i`; `index` reads `i` back out of it.
fn check_emission_discipline<P: Clone>(
    seed: u64,
    total: u64,
    window: usize,
    loss: f64,
    make: impl Fn(u64) -> P,
    index: impl Fn(&P) -> u64,
) -> Result<(), TestCaseError> {
    let rto = SimDuration::from_millis(50);
    let mut rng = DetRng::new(seed);
    let mut sender = ReliableSender::<P>::new(window, rto);
    let mut receiver = ReliableReceiver::<P>::new();
    let mut now = SimTime::ZERO;
    let mut offered = 0u64;
    // Per sequence number: when it was last emitted.
    let mut last_emitted: Vec<SimTime> = Vec::new();
    let mut released: Vec<u64> = Vec::new();
    let mut wire: Vec<ReliableFrame<P>> = Vec::new();
    let mut acks: Vec<Ack> = Vec::new();

    // A random phase, then a lossless round-robin tail (whole batches,
    // one RTO per tick) so the stream completes.
    for step in 0..6_000u64 {
        let healing = step >= 3_000;
        let loss = if healing { 0.0 } else { loss };
        let action = if healing { step % 4 } else { rng.range_u64(0, 4) };
        let mut fresh = Vec::new();
        let mut due = Vec::new();
        match action {
            0 if offered < total => {
                offered += 1;
                fresh = sender.send(make(offered - 1), now);
            }
            1 => {
                for _ in 0..if healing { acks.len() } else { acks.len().min(1) } {
                    let ack = acks.swap_remove(rng.range_usize(0, acks.len()));
                    if !rng.chance(loss) {
                        fresh.extend(sender.on_ack(ack, now));
                    }
                }
            }
            2 => {
                for _ in 0..if healing { wire.len() } else { wire.len().min(1) } {
                    let frame = wire.swap_remove(rng.range_usize(0, wire.len()));
                    if !rng.chance(loss) {
                        let (payloads, ack) = receiver.on_frame(frame);
                        released.extend(payloads.iter().map(&index));
                        acks.push(ack);
                    }
                }
            }
            _ => {
                now += SimDuration::from_millis(if healing { 50 } else { rng.range_u64(0, 40) });
                due = sender.on_tick(now);
            }
        }
        for frame in &fresh {
            prop_assert_eq!(
                frame.seq,
                last_emitted.len() as u64,
                "send/on_ack emitted a sequence number out of turn"
            );
            prop_assert_eq!(index(&frame.event), frame.seq, "payload rides its own seq");
            last_emitted.push(now);
        }
        for frame in &due {
            let Some(last) = last_emitted.get_mut(frame.seq as usize) else {
                return Err(TestCaseError::fail(format!(
                    "on_tick emitted {} before send/on_ack did",
                    frame.seq
                )));
            };
            prop_assert!(
                now.saturating_duration_since(*last) >= rto,
                "seq {} re-emitted {:?} after its last emission, RTO is {:?}",
                frame.seq,
                now.saturating_duration_since(*last),
                rto
            );
            *last = now;
        }
        wire.extend(fresh);
        wire.extend(due);
        if healing && offered == total && sender.is_idle() {
            break;
        }
    }
    prop_assert!(sender.is_idle(), "stream did not complete");
    prop_assert_eq!(released, (0..total).collect::<Vec<_>>());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The emission discipline over the default payload, `Arc<Event>`.
    #[test]
    fn every_seq_is_emitted_once_then_only_by_the_rto_events(
        seed in any::<u64>(),
        total in 1u64..120,
        window in 1usize..12,
        loss in 0.0f64..0.45,
    ) {
        check_emission_discipline(seed, total, window, loss, event, |e: &Arc<Event>| e.seq)?;
    }

    /// The same over `Bytes`, the other payload shape a federation TCP
    /// link carries.
    #[test]
    fn every_seq_is_emitted_once_then_only_by_the_rto_bytes(
        seed in any::<u64>(),
        total in 1u64..120,
        window in 1usize..12,
        loss in 0.0f64..0.45,
    ) {
        check_emission_discipline(
            seed,
            total,
            window,
            loss,
            |i| Bytes::from(i.to_be_bytes().to_vec()),
            |b: &Bytes| u64::from_be_bytes(b[..8].try_into().expect("8 bytes")),
        )?;
    }

    /// Exactly-once, in-order delivery under loss + reorder + duplication:
    /// whatever the channel does, the receiver surfaces exactly the
    /// offered stream and the sender never exceeds its window.
    #[test]
    fn delivered_equals_sent_in_order(
        seed in any::<u64>(),
        total in 1u64..120,
        window in 1usize..12,
        loss in 0.0f64..0.45,
        duplicate in 0.0f64..0.3,
    ) {
        let (delivered, max_in_flight) = drive(seed, total, window, loss, duplicate);
        let expected: Vec<u64> = (0..total).collect();
        prop_assert_eq!(
            &delivered, &expected,
            "stream broken: {} delivered of {} offered", delivered.len(), total
        );
        prop_assert!(
            max_in_flight <= window,
            "window exceeded: {max_in_flight} > {window}"
        );
    }

    /// A lossless, ordered channel never retransmits and the receiver
    /// never reports duplicates.
    #[test]
    fn clean_channel_is_silent(
        seed in any::<u64>(),
        total in 1u64..80,
        window in 1usize..12,
    ) {
        let rto = SimDuration::from_millis(50);
        let mut sender = ReliableSender::new(window, rto);
        let mut receiver = ReliableReceiver::new();
        let mut delivered = Vec::new();
        let mut now = SimTime::ZERO;
        let mut pending: Vec<ReliableFrame> = Vec::new();
        for i in 0..total {
            now = SimTime::from_millis(i * 10);
            pending.extend(sender.send(event(i), now));
            // Deliver promptly in order; ack immediately. Acks can
            // release backlogged frames, so keep draining until quiet.
            while !pending.is_empty() {
                let frame = pending.remove(0);
                let (events, ack) = receiver.on_frame(frame);
                delivered.extend(events.iter().map(|e| e.seq));
                pending.extend(sender.on_ack(ack, now));
            }
        }
        let _ = (seed, now);
        prop_assert_eq!(delivered, (0..total).collect::<Vec<_>>());
        prop_assert_eq!(sender.retransmissions(), 0);
        prop_assert_eq!(receiver.duplicates(), 0);
        prop_assert!(sender.is_idle());
    }
}
