//! The load thread: one loop that publishes, drains and verifies.
//!
//! All live workloads drive the system from **one** thread that both
//! publishes and drains, so with a one-shard broker two threads are
//! busy on the host's two cores. A separate collector thread was tried
//! while sizing the benchmark and its tail simply reported the
//! scheduler's timeslice.
//!
//! Every publish carries the time it was *due* (monotonic ns) in the
//! first 8 bytes of its RTP payload and a checksum in the last 8;
//! latency is `drain time − due time`, so generator lateness is charged
//! to the system, and the lateness itself is reported. Each subscriber
//! checks every delivery: expected source, exact per-source sequence
//! order, payload length and stamp checksum, and the whole body on one
//! delivery in [`FULL_CHECK_EVERY`]. A delivery still owed after the
//! drain deadline is missing.

use std::sync::Arc;
use std::sync::OnceLock;
use std::time::Instant;

use bytes::Bytes;
use mmcs_broker::cluster::ClusterClient;
use mmcs_broker::event::{Event, EventClass};
use mmcs_broker::sharded::ShardedClient;
use mmcs_broker::topic::Topic;
use mmcs_telemetry::Gauge;
use mmcs_util::id::ClientId;

use crate::stats::{LogHist, Slices};
use crate::trace::{Name, Tracer, NO_PARENT, SAMPLE};

/// Offset of the due stamp: right after the fixed 12-byte RTP header.
const STAMP_AT: usize = 12;
/// The body checksum is recomputed on one delivery in this many per
/// subscriber; the stamp checksum is checked on every one.
const FULL_CHECK_EVERY: u32 = 16;
/// Publishes per loop turn before the subscribers are swept again.
const PUBLISH_RUN: usize = 32;
/// How long a phase waits for owed deliveries before they are missing.
pub const DRAIN_DEADLINE_NS: u64 = 5_000_000_000;

/// Monotonic nanoseconds since the first call in this process.
#[inline]
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// What the load loop needs from a client handle of either runtime.
pub trait Endpoint {
    fn id(&self) -> ClientId;
    fn publish(&self, topic: Topic, payload: Bytes);
    fn drain(&self, sink: &mut Vec<Arc<Event>>) -> usize;
}

impl Endpoint for ShardedClient {
    fn id(&self) -> ClientId {
        ShardedClient::id(self)
    }
    #[inline]
    fn publish(&self, topic: Topic, payload: Bytes) {
        self.publish_class(topic, EventClass::Rtp, payload);
    }
    #[inline]
    fn drain(&self, sink: &mut Vec<Arc<Event>>) -> usize {
        self.drain_into(sink)
    }
}

impl Endpoint for ClusterClient {
    fn id(&self) -> ClientId {
        ClusterClient::id(self)
    }
    #[inline]
    fn publish(&self, topic: Topic, payload: Bytes) {
        self.publish_class(topic, EventClass::Rtp, payload);
    }
    #[inline]
    fn drain(&self, sink: &mut Vec<Arc<Event>>) -> usize {
        self.drain_into(sink)
    }
}

/// A pre-built RTP packet and the checksum of its body (everything but
/// the two 8-byte stamps).
pub struct Template {
    bytes: Vec<u8>,
    body_sum: u64,
}

impl Template {
    /// # Panics
    ///
    /// Panics if the packet is too short to carry both stamps.
    pub fn new(packet: &[u8]) -> Self {
        assert!(packet.len() >= STAMP_AT + 16, "packet too short to stamp");
        let mut bytes = packet.to_vec();
        bytes[STAMP_AT..STAMP_AT + 8].fill(0);
        let end = bytes.len();
        bytes[end - 8..].fill(0);
        let body_sum = body_sum(&bytes);
        Self { bytes, body_sum }
    }

    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// A fresh payload stamped with `due_ns`.
    #[inline]
    fn stamped(&self, due_ns: u64) -> Bytes {
        let mut bytes = self.bytes.clone();
        bytes[STAMP_AT..STAMP_AT + 8].copy_from_slice(&due_ns.to_le_bytes());
        let end = bytes.len();
        bytes[end - 8..].copy_from_slice(&(self.body_sum ^ due_ns).to_le_bytes());
        Bytes::from(bytes)
    }
}

fn word(bytes: &[u8]) -> u64 {
    let mut w = [0u8; 8];
    w[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(w)
}

/// Order-sensitive sum over the packet with both stamps skipped.
fn body_sum(packet: &[u8]) -> u64 {
    let end = packet.len() - 8;
    let mut sum = 0xcbf2_9ce4_8422_2325u64;
    for chunk in packet[..STAMP_AT]
        .chunks(8)
        .chain(packet[STAMP_AT + 8..end].chunks(8))
    {
        sum = (sum ^ word(chunk))
            .wrapping_mul(0x0000_0100_0000_01b3)
            .rotate_left(29);
    }
    sum
}

/// One publishing source: a client handle, its topic, and who hears it.
pub struct Publisher {
    pub endpoint: usize,
    pub topic: Topic,
    /// Subscriber indices that receive each publish.
    pub audience: Vec<u32>,
    /// `count` templates starting at `first`, used round-robin by seq.
    pub first_template: usize,
    pub templates: usize,
    next_seq: u64,
    /// Span indices of the last few sampled publishes, by `seq / SAMPLE`.
    sampled: [(u64, u32); 4],
}

impl Publisher {
    pub fn new(endpoint: usize, topic: Topic, first_template: usize, templates: usize) -> Self {
        Self {
            endpoint,
            topic,
            audience: Vec::new(),
            first_template,
            templates,
            next_seq: 0,
            sampled: [(u64::MAX, NO_PARENT); 4],
        }
    }
}

/// One subscribing client and what it still expects.
pub struct Subscriber {
    pub endpoint: usize,
    /// 0 = same node as the publisher, 1 = another federation node.
    pub class: usize,
    /// It hears publishers `first_source .. first_source + next_seq.len()`.
    first_source: u32,
    next_seq: Vec<u64>,
    owed: u32,
    tick: u32,
}

impl Subscriber {
    pub fn new(endpoint: usize, class: usize, first_source: u32, sources: usize) -> Self {
        Self {
            endpoint,
            class,
            first_source,
            next_seq: vec![0; sources],
            owed: 0,
            tick: 0,
        }
    }
}

/// Deliveries attempted and the ways one can fail.
#[derive(Default, Clone, Copy, Debug)]
pub struct Tally {
    pub attempted: u64,
    pub delivered: u64,
    pub missing: u64,
    pub unexpected: u64,
    pub out_of_order: u64,
    pub corrupt: u64,
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.missing + self.unexpected + self.out_of_order + self.corrupt
    }
}

#[derive(Clone, Copy)]
pub enum Mode {
    /// Open loop: `visits_per_s` publisher visits a second on a fixed
    /// schedule, whatever the system does.
    Paced { visits_per_s: f64 },
    /// Closed loop: at most `window` publishes outstanding.
    Closed { window: u64 },
}

/// What one phase measured.
pub struct Phase {
    pub mode: Mode,
    pub seconds: f64,
    pub slices: Slices,
    /// Latency by subscriber class, pooled over the phase.
    pub by_class: [LogHist; 2],
    /// How late each paced publish left the generator.
    pub late: LogHist,
    pub published: u64,
    pub delivered: u64,
    pub drains: u64,
    pub empty_drains: u64,
}

impl Phase {
    /// An empty phase of `duration_ns` starting at `start`.
    pub fn new(mode: Mode, start: u64, duration_ns: u64) -> Self {
        Self {
            mode,
            seconds: duration_ns as f64 / 1e9,
            slices: Slices::over(start, duration_ns),
            by_class: [LogHist::new(), LogHist::new()],
            late: LogHist::new(),
            published: 0,
            delivered: 0,
            drains: 0,
            empty_drains: 0,
        }
    }
}

/// The load generator's whole state.
pub struct Load<E> {
    pub endpoints: Vec<E>,
    pub publishers: Vec<Publisher>,
    pub subscribers: Vec<Subscriber>,
    pub templates: Vec<Template>,
    /// Seeded order in which publishers are visited.
    pub order: Vec<u32>,
    /// Packets published per visit (6 for an I-frame-like burst).
    pub burst: usize,
    pub tracer: Tracer,
    /// The broker's ingress depth gauge, sampled after each publish when
    /// the metrics bundle is installed.
    pub depth: Option<Arc<Gauge>>,
    pub depth_max: i64,
    pub tally: Tally,
    source_of: Vec<u32>,
    /// The class whose latency the slices keep: the subscribers farthest
    /// from their publisher (those on another node, if there are any).
    /// Mixing near and far would put the median between two modes.
    far_class: usize,
    cursor: usize,
    owed_total: u64,
    sink: Vec<Arc<Event>>,
    phases: u64,
}

impl<E: Endpoint> Load<E> {
    pub fn new(
        endpoints: Vec<E>,
        publishers: Vec<Publisher>,
        subscribers: Vec<Subscriber>,
        templates: Vec<Template>,
        order: Vec<u32>,
        burst: usize,
        tracer: Tracer,
    ) -> Self {
        let far_class = subscribers.iter().map(|s| s.class).max().unwrap_or(0);
        let mut load = Self {
            endpoints,
            publishers,
            subscribers,
            templates,
            order,
            burst,
            tracer,
            depth: None,
            depth_max: 0,
            tally: Tally::default(),
            source_of: Vec::new(),
            far_class,
            cursor: 0,
            owed_total: 0,
            sink: Vec::with_capacity(1024),
            phases: 0,
        };
        for index in 0..load.publishers.len() {
            let id = load.endpoints[load.publishers[index].endpoint].id();
            load.map_source(id, index as u32);
        }
        load
    }

    fn map_source(&mut self, id: ClientId, publisher: u32) {
        let raw = id.value() as usize;
        if self.source_of.len() <= raw {
            self.source_of.resize(raw + 1, u32::MAX);
        }
        self.source_of[raw] = publisher;
    }

    /// Publishes the next packet of `publisher`, due at `due_ns`.
    #[inline]
    pub fn publish(&mut self, publisher: usize, due_ns: u64) {
        let p = &mut self.publishers[publisher];
        let seq = p.next_seq;
        p.next_seq += 1;
        let template = &self.templates[p.first_template + (seq as usize % p.templates)];
        let payload = template.stamped(due_ns);
        let topic = p.topic.clone();
        let endpoint = &self.endpoints[p.endpoint];
        if self.tracer.on {
            let start = now_ns();
            endpoint.publish(topic, payload);
            let end = now_ns();
            let keep = seq.is_multiple_of(SAMPLE);
            let id = (endpoint.id().value() << 32) | (seq & 0xffff_ffff);
            let span = self.tracer.span(Name::Publish, start, end, id, keep);
            if keep {
                p.sampled[(seq / SAMPLE) as usize % 4] = (seq, span);
            }
        } else {
            endpoint.publish(topic, payload);
        }
        if let Some(depth) = &self.depth {
            self.depth_max = self.depth_max.max(depth.get());
        }
        for &s in &p.audience {
            self.subscribers[s as usize].owed += 1;
        }
        let fanout = p.audience.len() as u64;
        self.owed_total += fanout;
        self.tally.attempted += fanout;
    }

    /// Drains every subscriber that is owed something; returns how many
    /// events arrived.
    pub fn sweep(&mut self, phase: &mut Phase) -> u64 {
        let mut arrived = 0;
        for s in 0..self.subscribers.len() {
            if self.subscribers[s].owed == 0 {
                continue;
            }
            let endpoint = &self.endpoints[self.subscribers[s].endpoint];
            let start = if self.tracer.on { now_ns() } else { 0 };
            let n = endpoint.drain(&mut self.sink);
            let t = now_ns();
            phase.drains += 1;
            self.tracer.span(
                Name::Drain,
                start,
                t,
                self.phases,
                phase.drains.is_multiple_of(SAMPLE),
            );
            if n == 0 {
                phase.empty_drains += 1;
                continue;
            }
            arrived += n as u64;
            let slot = phase.slices.slot(t);
            if let Some(slot) = slot {
                phase.slices.counts[slot] += n as u64;
            }
            let mut sink = std::mem::take(&mut self.sink);
            for event in sink.drain(..) {
                if let Some(latency) = self.check(s, &event, t) {
                    let class = self.subscribers[s].class;
                    phase.by_class[class].record(latency);
                    if let (Some(slot), true) = (slot, class == self.far_class) {
                        phase.slices.hists[slot].record(latency);
                    }
                }
            }
            self.sink = sink;
        }
        phase.delivered += arrived;
        arrived
    }

    /// Verifies one delivery at subscriber `s`, drained at `t`; returns
    /// its latency when it is the delivery that was expected.
    #[inline]
    fn check(&mut self, s: usize, event: &Event, t: u64) -> Option<u64> {
        let sub = &mut self.subscribers[s];
        let source = self
            .source_of
            .get(event.source.value() as usize)
            .copied()
            .unwrap_or(u32::MAX);
        let heard = source.wrapping_sub(sub.first_source) as usize;
        if sub.owed == 0 || heard >= sub.next_seq.len() {
            self.tally.unexpected += 1;
            return None;
        }
        sub.owed -= 1;
        self.owed_total -= 1;
        let expected = sub.next_seq[heard];
        if event.seq != expected {
            // Ahead: something was skipped (it is still owed and will be
            // counted missing, or arrives later and lands here again).
            // Behind: a duplicate or a reordered delivery.
            self.tally.out_of_order += 1;
            if event.seq < expected {
                return None;
            }
        }
        sub.next_seq[heard] = event.seq + 1;
        let p = &self.publishers[source as usize];
        let template = &self.templates[p.first_template + (event.seq as usize % p.templates)];
        let payload = event.payload.as_slice();
        if payload.len() != template.len() {
            self.tally.corrupt += 1;
            return None;
        }
        let due = word(&payload[STAMP_AT..STAMP_AT + 8]);
        let check = word(&payload[payload.len() - 8..]);
        sub.tick = sub.tick.wrapping_add(1);
        let full = sub.tick.is_multiple_of(FULL_CHECK_EVERY);
        if check ^ due != template.body_sum || (full && body_sum(payload) != template.body_sum) {
            self.tally.corrupt += 1;
            return None;
        }
        self.tally.delivered += 1;
        if self.tracer.on && event.seq.is_multiple_of(SAMPLE) {
            let (seq, parent) = p.sampled[(event.seq / SAMPLE) as usize % 4];
            if seq == event.seq {
                let id = (event.source.value() << 32) | (event.seq & 0xffff_ffff);
                self.tracer.flight(due, t, parent, id);
            }
        }
        Some(t.saturating_sub(due))
    }

    fn next_publisher(&mut self) -> usize {
        let p = self.order[self.cursor % self.order.len()];
        self.cursor += 1;
        p as usize
    }

    /// Runs one phase for `duration_ns`, then waits (up to the drain
    /// deadline) for what is still owed; what never arrives is missing.
    pub fn run_phase(&mut self, mode: Mode, duration_ns: u64) -> Phase {
        let start = now_ns();
        let end = start + duration_ns;
        let mut phase = Phase::new(mode, start, duration_ns);
        self.phases += 1;
        self.tracer.begin_phase(start, self.phases);
        let mut visits = 0u64;
        loop {
            let now = now_ns();
            if now >= end {
                break;
            }
            let mut run = 0;
            match mode {
                Mode::Paced { visits_per_s } => {
                    let interval = 1e9 / visits_per_s;
                    loop {
                        let due = start + (visits as f64 * interval) as u64;
                        if due > now || run >= PUBLISH_RUN {
                            break;
                        }
                        let p = self.next_publisher();
                        for _ in 0..self.burst {
                            self.publish(p, due);
                        }
                        phase.late.record_n(now - due, self.burst as u64);
                        visits += 1;
                        run += self.burst;
                    }
                }
                Mode::Closed { window } => {
                    while run < PUBLISH_RUN {
                        let p = self.order[self.cursor % self.order.len()] as usize;
                        let fanout = self.publishers[p].audience.len() as u64;
                        if self.owed_total + fanout > window * fanout {
                            break;
                        }
                        self.cursor += 1;
                        self.publish(p, now);
                        run += 1;
                    }
                }
            }
            phase.published += run as u64;
            if self.sweep(&mut phase) == 0 && run == 0 {
                std::thread::yield_now();
            }
        }
        self.settle(&mut phase);
        self.tracer.end_phase(now_ns());
        phase
    }

    /// Drains until nothing is owed or the deadline passes; the rest is
    /// counted missing and forgotten.
    pub fn settle(&mut self, phase: &mut Phase) {
        let deadline = now_ns() + DRAIN_DEADLINE_NS;
        while self.owed_total > 0 && now_ns() < deadline {
            if self.sweep(phase) == 0 {
                std::thread::yield_now();
            }
        }
        if self.owed_total > 0 {
            self.tally.missing += self.owed_total;
            self.owed_total = 0;
            for sub in &mut self.subscribers {
                sub.owed = 0;
            }
        }
    }
}
