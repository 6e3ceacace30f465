//! Reliable delivery.
//!
//! The NaradaBrokering the paper builds on ("The Narada Event Brokering
//! System", PDPTA'02) guarantees event delivery for control-plane
//! traffic: XGSP signaling and shared-application events must survive a
//! lossy hop even though RTP media rides best-effort. [`ReliableSender`]
//! and [`ReliableReceiver`] implement the classic positive-ack protocol
//! sans-IO: sequence numbers, cumulative acks, timeout-driven
//! retransmission with a bounded in-flight window, and duplicate
//! suppression on the receiving side.
//!
//! Both halves are generic over their payload: `Arc<Event>` (the
//! default) is the control-plane channel above, and the federation's
//! TCP links ([`crate::cluster`]) run the same state machines — the
//! sender over the link's frames (encoded bytes, or an event's `Arc`
//! that the link encodes on every transmission), the receiver over
//! `Bytes` records — so this file is the workspace's one reliability
//! layer.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use bytes::{BufMut, Bytes};
use mmcs_util::pool;
use mmcs_util::time::{SimDuration, SimTime};

use crate::event::Event;
use crate::wire;

/// A sequenced frame on the reliable channel.
#[derive(Debug, Clone)]
pub struct ReliableFrame<P = Arc<Event>> {
    /// Channel sequence number.
    pub seq: u64,
    /// The payload carried (an event on the default channel).
    pub event: P,
}

impl ReliableFrame {
    /// Serializes the frame into a pooled buffer: an 8-byte big-endian
    /// channel sequence number followed by the event's [`wire`] frame.
    pub fn encode(&self) -> Bytes {
        let mut buf = pool::acquire(8 + wire::encoded_len(&self.event));
        buf.put_u64(self.seq);
        wire::encode_into(&self.event, &mut buf);
        buf.freeze()
    }

    /// Deserializes a frame produced by [`ReliableFrame::encode`]. The
    /// event payload stays a zero-copy slice of `frame`.
    ///
    /// # Errors
    ///
    /// Returns [`wire::DecodeEventError`] if the sequence prefix is
    /// truncated or the embedded event frame is malformed.
    pub fn decode(frame: &Bytes) -> Result<ReliableFrame, wire::DecodeEventError> {
        if frame.len() < 8 {
            return Err(wire::DecodeEventError::Truncated {
                needed: 8,
                got: frame.len(),
            });
        }
        let mut seq_bytes = [0u8; 8];
        seq_bytes.copy_from_slice(&frame[..8]);
        let event = wire::decode_shared(&frame.slice(8..))?.into_shared();
        Ok(ReliableFrame {
            seq: u64::from_be_bytes(seq_bytes),
            event,
        })
    }
}

/// A cumulative acknowledgement: everything below `next_expected` has
/// been received.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ack {
    /// The receiver's next expected sequence number.
    pub next_expected: u64,
}

/// Sender half of the reliable channel.
#[derive(Debug)]
pub struct ReliableSender<P = Arc<Event>> {
    next_seq: u64,
    /// Unacked payloads with their last transmission time: always the
    /// contiguous sequence range ending at `next_seq - 1`, oldest first.
    in_flight: VecDeque<(P, SimTime)>,
    window: usize,
    retransmit_after: SimDuration,
    /// Payloads accepted but not yet transmitted (window full). A deque:
    /// `pump` drains from the front, so draining a backlog of n events
    /// is O(n) rather than the O(n²) a `Vec::remove(0)` would cost.
    backlog: VecDeque<P>,
    retransmissions: u64,
}

impl<P: Clone> ReliableSender<P> {
    /// Creates a sender with the given in-flight window and
    /// retransmission timeout.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: usize, retransmit_after: SimDuration) -> Self {
        assert!(window > 0, "window must be positive");
        Self {
            next_seq: 0,
            in_flight: VecDeque::new(),
            window,
            retransmit_after,
            backlog: VecDeque::new(),
            retransmissions: 0,
        }
    }

    /// Offers an event for transmission; returns the frames to put on
    /// the wire now (possibly none if the window is full).
    pub fn send(&mut self, event: P, now: SimTime) -> Vec<ReliableFrame<P>> {
        self.backlog.push_back(event);
        self.pump(now)
    }

    /// Processes an ack; returns frames newly released by the window.
    pub fn on_ack(&mut self, ack: Ack, now: SimTime) -> Vec<ReliableFrame<P>> {
        let acked = ack.next_expected.saturating_sub(self.resume_seq()) as usize;
        self.in_flight.drain(..acked.min(self.in_flight.len()));
        self.pump(now)
    }

    /// Timer tick: returns frames due for retransmission.
    pub fn on_tick(&mut self, now: SimTime) -> Vec<ReliableFrame<P>> {
        let mut out = Vec::new();
        let oldest = self.resume_seq();
        for (seq, (event, last_sent)) in (oldest..).zip(self.in_flight.iter_mut()) {
            if now.saturating_duration_since(*last_sent) >= self.retransmit_after {
                *last_sent = now;
                self.retransmissions += 1;
                out.push(ReliableFrame {
                    seq,
                    event: event.clone(),
                });
            }
        }
        out
    }

    /// The sequence number a receiver needs next from this sender: the
    /// oldest unacked one, or the next one assigned if none is unacked.
    /// Every lower sequence number was acked or shed.
    pub fn resume_seq(&self) -> u64 {
        self.next_seq - self.in_flight.len() as u64
    }

    /// Gives up on everything unacked or untransmitted — the peer is
    /// dead — and returns how many payloads that was. Sequence numbers
    /// carry on where they were: a receiver moves past the gap with
    /// [`ReliableReceiver::skip_to`] at [`ReliableSender::resume_seq`].
    pub fn shed(&mut self) -> usize {
        let shed = self.in_flight.len() + self.backlog.len();
        self.in_flight.clear();
        self.backlog.clear();
        shed
    }

    fn pump(&mut self, now: SimTime) -> Vec<ReliableFrame<P>> {
        let mut out = Vec::new();
        while self.in_flight.len() < self.window {
            let Some(event) = self.backlog.pop_front() else {
                break;
            };
            let seq = self.next_seq;
            self.next_seq += 1;
            self.in_flight.push_back((event.clone(), now));
            out.push(ReliableFrame { seq, event });
        }
        out
    }

    /// Frames currently awaiting acknowledgement.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Events accepted but not yet transmitted.
    pub fn backlogged(&self) -> usize {
        self.backlog.len()
    }

    /// Total retransmissions performed.
    pub fn retransmissions(&self) -> u64 {
        self.retransmissions
    }

    /// Whether everything offered has been delivered and acked.
    pub fn is_idle(&self) -> bool {
        self.in_flight.is_empty() && self.backlog.is_empty()
    }
}

/// Receiver half of the reliable channel.
#[derive(Debug)]
pub struct ReliableReceiver<P = Arc<Event>> {
    next_expected: u64,
    /// Out-of-order frames waiting for the gap to fill.
    pending: BTreeMap<u64, P>,
    duplicates: u64,
}

impl<P> Default for ReliableReceiver<P> {
    fn default() -> Self {
        Self {
            next_expected: 0,
            pending: BTreeMap::new(),
            duplicates: 0,
        }
    }
}

impl<P> ReliableReceiver<P> {
    /// Creates a receiver expecting sequence 0 first.
    pub fn new() -> Self {
        Self::default()
    }

    /// Processes a frame; returns `(deliverable events in order, ack)`.
    pub fn on_frame(&mut self, frame: ReliableFrame<P>) -> (Vec<P>, Ack) {
        let mut out = Vec::new();
        let ack = self.on_frame_with(frame, |event| out.push(event));
        (out, ack)
    }

    /// Processes a frame, handing each payload it makes deliverable to
    /// `deliver`, in order; returns the ack. The in-order frame of a
    /// receiver with nothing pending — the common case — is handed on
    /// directly, and allocates nothing.
    pub fn on_frame_with(&mut self, frame: ReliableFrame<P>, mut deliver: impl FnMut(P)) -> Ack {
        if frame.seq == self.next_expected && self.pending.is_empty() {
            self.next_expected += 1;
            deliver(frame.event);
        } else if frame.seq < self.next_expected || self.pending.contains_key(&frame.seq) {
            self.duplicates += 1;
        } else {
            self.pending.insert(frame.seq, frame.event);
            while let Some(event) = self.pending.remove(&self.next_expected) {
                self.next_expected += 1;
                deliver(event);
            }
        }
        Ack {
            next_expected: self.next_expected,
        }
    }

    /// Moves past a gap its sender shed: everything below `seq` counts
    /// as received. Payloads waiting above the gap that are now in order
    /// go to `deliver`. A `seq` at or below the next expected one changes
    /// nothing.
    pub fn skip_to(&mut self, seq: u64, mut deliver: impl FnMut(P)) {
        if seq <= self.next_expected {
            return;
        }
        self.pending = self.pending.split_off(&seq);
        self.next_expected = seq;
        while let Some(event) = self.pending.remove(&self.next_expected) {
            self.next_expected += 1;
            deliver(event);
        }
    }

    /// Duplicate frames suppressed so far.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// The next sequence number the receiver needs.
    pub fn next_expected(&self) -> u64 {
        self.next_expected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventClass;
    use crate::topic::Topic;
    use bytes::Bytes;
    use mmcs_util::id::ClientId;
    use mmcs_util::rng::DetRng;

    fn event(n: u64) -> Arc<Event> {
        Event::new(
            Topic::parse("ctl").unwrap(),
            ClientId::from_raw(1),
            n,
            EventClass::Data,
            Bytes::from(n.to_be_bytes().to_vec()),
        )
        .into_shared()
    }

    fn rto() -> SimDuration {
        SimDuration::from_millis(100)
    }

    #[test]
    fn lossless_channel_delivers_in_order() {
        let mut sender = ReliableSender::new(4, rto());
        let mut receiver = ReliableReceiver::new();
        let mut delivered = Vec::new();
        for n in 0..10 {
            for frame in sender.send(event(n), SimTime::ZERO) {
                let (events, ack) = receiver.on_frame(frame);
                delivered.extend(events.iter().map(|e| e.seq));
                sender.on_ack(ack, SimTime::ZERO);
            }
        }
        assert_eq!(delivered, (0..10).collect::<Vec<_>>());
        assert!(sender.is_idle());
        assert_eq!(sender.retransmissions(), 0);
        assert_eq!(receiver.duplicates(), 0);
    }

    #[test]
    fn window_limits_in_flight_and_backlogs_excess() {
        let mut sender = ReliableSender::new(2, rto());
        let f1 = sender.send(event(0), SimTime::ZERO);
        let f2 = sender.send(event(1), SimTime::ZERO);
        let f3 = sender.send(event(2), SimTime::ZERO);
        assert_eq!(f1.len() + f2.len() + f3.len(), 2, "window of 2");
        assert_eq!(sender.backlogged(), 1);
        // Acking the first releases the third.
        let released = sender.on_ack(Ack { next_expected: 1 }, SimTime::ZERO);
        assert_eq!(released.len(), 1);
        assert_eq!(released[0].seq, 2);
    }

    #[test]
    fn lost_frame_is_retransmitted_and_recovered() {
        let mut sender = ReliableSender::new(8, rto());
        let mut receiver = ReliableReceiver::new();
        let frames = [
            sender.send(event(0), SimTime::ZERO),
            sender.send(event(1), SimTime::ZERO),
            sender.send(event(2), SimTime::ZERO),
        ]
        .concat();
        // Frame 1 is lost; 0 and 2 arrive.
        let (d0, a0) = receiver.on_frame(frames[0].clone());
        assert_eq!(d0.len(), 1);
        let (d2, a2) = receiver.on_frame(frames[2].clone());
        assert!(d2.is_empty(), "gap holds delivery");
        assert_eq!(a2.next_expected, 1);
        sender.on_ack(a0, SimTime::ZERO);
        sender.on_ack(a2, SimTime::ZERO);
        // Nothing due before the timeout…
        assert!(sender.on_tick(SimTime::from_millis(50)).is_empty());
        // …then 1 and 2 retransmit (2 is also unacked).
        let retx = sender.on_tick(SimTime::from_millis(120));
        assert_eq!(retx.len(), 2);
        let (delivered, ack) = receiver.on_frame(
            retx.into_iter().find(|f| f.seq == 1).expect("frame 1"),
        );
        assert_eq!(delivered.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(ack.next_expected, 3);
        sender.on_ack(ack, SimTime::from_millis(120));
        assert!(sender.is_idle());
        assert!(sender.retransmissions() >= 1);
    }

    #[test]
    fn duplicates_are_suppressed() {
        let mut sender = ReliableSender::new(4, rto());
        let mut receiver = ReliableReceiver::new();
        let frames = sender.send(event(0), SimTime::ZERO);
        receiver.on_frame(frames[0].clone());
        let (dup_delivery, ack) = receiver.on_frame(frames[0].clone());
        assert!(dup_delivery.is_empty());
        assert_eq!(ack.next_expected, 1);
        assert_eq!(receiver.duplicates(), 1);
    }

    /// Regression for the `Vec::remove(0)` → `VecDeque::pop_front`
    /// backlog fix: a deep backlog drained under backpressure must come
    /// out in exactly the order the events were offered, with sequence
    /// numbers assigned in that same order.
    #[test]
    fn deep_backlog_drains_in_offer_order() {
        let mut sender = ReliableSender::new(3, rto());
        let mut transmitted = Vec::new();
        for n in 0..200 {
            transmitted.extend(sender.send(event(n), SimTime::ZERO));
        }
        assert_eq!(sender.backlogged(), 197, "window of 3 holds the rest");
        // Ack whatever is outstanding, a few frames at a time, until the
        // backlog is fully drained.
        while !sender.is_idle() {
            let acked = transmitted.last().map_or(0, |f: &ReliableFrame| f.seq + 1);
            transmitted.extend(sender.on_ack(Ack { next_expected: acked }, SimTime::ZERO));
        }
        let seqs: Vec<u64> = transmitted.iter().map(|f| f.seq).collect();
        assert_eq!(seqs, (0..200).collect::<Vec<_>>(), "wire order == offer order");
        let payload_order: Vec<u64> = transmitted.iter().map(|f| f.event.seq).collect();
        assert_eq!(payload_order, (0..200).collect::<Vec<_>>());
        assert_eq!(sender.retransmissions(), 0);
    }

    /// Randomized adversarial channel: drop and reorder frames freely;
    /// with retransmission every offered event is eventually delivered
    /// exactly once, in order.
    #[test]
    fn survives_random_loss_and_reordering() {
        let mut rng = DetRng::new(2024);
        for _trial in 0..20 {
            let mut sender = ReliableSender::new(4, rto());
            let mut receiver = ReliableReceiver::new();
            let total = rng.range_u64(5, 40);
            let mut delivered: Vec<u64> = Vec::new();
            let mut now = SimTime::ZERO;
            let mut offered = 0u64;
            let mut wire: Vec<ReliableFrame> = Vec::new();
            let mut acks: Vec<Ack> = Vec::new();
            let mut steps = 0;
            while (delivered.len() as u64) < total {
                steps += 1;
                assert!(steps < 10_000, "protocol failed to converge");
                if offered < total {
                    wire.extend(sender.send(event(offered), now));
                    offered += 1;
                }
                rng.shuffle(&mut wire);
                // Deliver some frames, drop ~30%.
                let mut kept = Vec::new();
                for frame in wire.drain(..) {
                    if rng.chance(0.3) {
                        continue; // lost
                    }
                    if rng.chance(0.3) {
                        kept.push(frame); // delayed to a later step
                        continue;
                    }
                    let (events, ack) = receiver.on_frame(frame);
                    delivered.extend(events.iter().map(|e| e.seq));
                    acks.push(ack);
                }
                wire = kept;
                for ack in acks.drain(..) {
                    if rng.chance(0.8) {
                        wire.extend(
                            sender
                                .on_ack(ack, now)
                                .into_iter()
                                .collect::<Vec<_>>(),
                        );
                    } // else the ack itself is lost
                }
                now += SimDuration::from_millis(40);
                wire.extend(sender.on_tick(now));
            }
            assert_eq!(delivered, (0..total).collect::<Vec<_>>());
        }
    }

    #[test]
    fn frame_encode_decode_round_trips() {
        let frame = ReliableFrame {
            seq: 0xDEAD_BEEF_0000_0042,
            event: event(9),
        };
        let wire = frame.encode();
        let back = ReliableFrame::decode(&wire).unwrap();
        assert_eq!(back.seq, frame.seq);
        assert_eq!(*back.event, *frame.event);
        // The decoded payload borrows the encoded frame's storage.
        assert_eq!(back.event.payload.as_ptr(), wire[8 + 32 + 3..].as_ptr());
    }

    #[test]
    fn truncated_frames_are_rejected() {
        let wire = ReliableFrame { seq: 3, event: event(1) }.encode();
        for len in 0..wire.len() {
            assert!(
                ReliableFrame::decode(&wire.slice(..len)).is_err(),
                "truncation to {len} bytes must not decode"
            );
        }
    }

    /// A sender that sheds its window keeps numbering where it was; the
    /// receiver skips the gap at the announced resume point and takes
    /// what follows exactly once, in order.
    #[test]
    fn a_shed_window_is_skipped_not_waited_for() {
        let mut sender = ReliableSender::new(2, rto());
        let mut receiver = ReliableReceiver::new();
        let first = sender.send(event(0), SimTime::ZERO);
        let (delivered, ack) = receiver.on_frame(first[0].clone());
        assert_eq!(delivered.len(), 1);
        assert!(sender.on_ack(ack, SimTime::ZERO).is_empty());
        for n in 1..5 {
            sender.send(event(n), SimTime::ZERO); // lost: the peer is dead
        }
        assert_eq!(sender.shed(), 4, "two in flight, two backlogged");
        assert!(sender.is_idle());
        assert_eq!(sender.resume_seq(), 3);
        let mut skipped = Vec::new();
        receiver.skip_to(sender.resume_seq(), |event| skipped.push(event));
        assert!(skipped.is_empty());
        receiver.skip_to(1, |_| panic!("a lower resume point changes nothing"));
        let next = sender.send(event(9), SimTime::ZERO);
        assert_eq!(next[0].seq, 3);
        let (delivered, ack) = receiver.on_frame(next[0].clone());
        assert_eq!(delivered.iter().map(|e| e.seq).collect::<Vec<_>>(), [9]);
        assert_eq!(ack.next_expected, 4);
        assert_eq!(receiver.duplicates(), 0);
    }
}
