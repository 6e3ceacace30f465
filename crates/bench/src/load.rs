//! Simulated A/V clients: the load the experiments put on the broker.
//!
//! Every client here is a simulator [`Process`] that talks to a
//! [`BrokerProcess`](mmcs_broker::simdrv::BrokerProcess) through
//! [`BrokerMsg`] and receives [`ClientMsg::Deliver`]:
//!
//! * [`Publisher`] — a paced media source that attaches, then publishes
//!   each RTP packet as a broker event. A [`Source::Video`] tick yields
//!   one frame of packets back to back (the paper's bursty 600 Kbps
//!   stream); a [`Source::Audio`] tick yields one packet every 20 ms.
//! * [`RtpReceiver`] — attaches, subscribes, decodes arriving RTP and
//!   maintains [`ReceiverStats`] (delay from `Event::published_at`,
//!   RFC 3550 jitter, loss).
//! * [`MulticastRelay`] — one broker delivery per client machine, fanned
//!   out locally (ablation A3).
//! * [`ClientBundle`] — one delivery standing in for many co-located
//!   clients (the capacity frontier's million-subscriber scenarios).
//!
//! Wiring protocol: clients [`join`] at simulation start (attach, and
//! subscribe if they receive); media flows after a configurable start
//! delay, by which point subscriptions have settled.

use std::sync::Arc;

use mmcs_broker::event::{Event, EventClass};
use mmcs_broker::profile::TransportProfile;
use mmcs_broker::simdrv::{join, BrokerMsg, ClientMsg};
use mmcs_broker::topic::{Topic, TopicFilter};
use mmcs_rtp::packet::{RtpPacket, WireRtp};
use mmcs_rtp::recv::ReceiverStats;
use mmcs_rtp::source::{AudioSource, VideoSource};
use mmcs_sim::{Context, CounterId, Packet, Process, ProcessId};
use mmcs_telemetry::Histogram;
use mmcs_util::id::ClientId;
use mmcs_util::time::SimDuration;

/// Shared pacing/publishing configuration for media publishers.
#[derive(Debug, Clone)]
pub struct PublisherConfig {
    /// The broker process to publish through.
    pub broker: ProcessId,
    /// This client's id.
    pub client: ClientId,
    /// Topic to publish to.
    pub topic: Topic,
    /// Transport profile.
    pub profile: TransportProfile,
    /// Media starts flowing this long after simulation start (lets
    /// subscriptions settle).
    pub start_delay: SimDuration,
    /// Stop after this many RTP packets (`u64::MAX` = unlimited).
    pub max_packets: u64,
    /// Client-side CPU cost to emit one packet.
    pub send_cpu: SimDuration,
}

impl PublisherConfig {
    /// A sensible default: 100 ms start delay, unlimited packets, 5 µs
    /// send cost.
    pub fn new(broker: ProcessId, client: ClientId, topic: Topic) -> Self {
        Self {
            broker,
            client,
            topic,
            profile: TransportProfile::Udp,
            start_delay: SimDuration::from_millis(100),
            max_packets: u64::MAX,
            send_cpu: SimDuration::from_micros(5),
        }
    }
}

/// What a [`Publisher`] paces.
#[derive(Debug, Clone)]
pub enum Source {
    /// One frame of packets per tick.
    Video(VideoSource),
    /// One packet per tick.
    Audio(AudioSource),
}

impl From<VideoSource> for Source {
    fn from(source: VideoSource) -> Self {
        Source::Video(source)
    }
}

impl From<AudioSource> for Source {
    fn from(source: AudioSource) -> Self {
        Source::Audio(source)
    }
}

/// A paced media publisher: every tick publishes what its [`Source`]
/// yields, one broker event per RTP packet.
pub struct Publisher {
    config: PublisherConfig,
    source: Source,
    /// Packets published so far, and the next event's sequence number.
    sent: u64,
    /// `publisher.rtp_sent`, resolved on the first publish.
    sent_counter: Option<CounterId>,
}

impl Publisher {
    /// Creates a publisher of a [`VideoSource`] or an [`AudioSource`].
    pub fn new(config: PublisherConfig, source: impl Into<Source>) -> Self {
        Self {
            config,
            source: source.into(),
            sent: 0,
            sent_counter: None,
        }
    }

    fn publish_packet(&mut self, ctx: &mut Context<'_>, rtp: RtpPacket) {
        ctx.spend_cpu(self.config.send_cpu);
        let event = Event::new(
            self.config.topic.clone(),
            self.config.client,
            self.sent,
            EventClass::Rtp,
            rtp.encode(),
        )
        .with_published_at(ctx.now())
        .into_shared();
        let wire = event.wire_len() + self.config.profile.overhead_bytes();
        let client = self.config.client;
        ctx.send(
            self.config.broker,
            BrokerMsg::Publish { client, event },
            wire,
        );
        self.sent += 1;
        let sent = *self
            .sent_counter
            .get_or_insert_with(|| ctx.counter_id("publisher.rtp_sent"));
        ctx.bump(sent, 1);
    }
}

impl Process for Publisher {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        join(
            ctx,
            self.config.broker,
            self.config.client,
            self.config.profile,
            None,
        );
        ctx.set_timer(self.config.start_delay, 0);
    }

    fn on_packet(&mut self, _ctx: &mut Context<'_>, _packet: Packet) {}

    fn on_timer(&mut self, ctx: &mut Context<'_>, _token: u64) {
        if self.sent >= self.config.max_packets {
            return;
        }
        let interval = match &mut self.source {
            Source::Video(video) => {
                let interval = video.frame_interval();
                for rtp in video.next_frame() {
                    if self.sent >= self.config.max_packets {
                        break;
                    }
                    self.publish_packet(ctx, rtp);
                }
                interval
            }
            Source::Audio(audio) => {
                let interval = audio.frame_interval();
                let rtp = audio.next_packet();
                self.publish_packet(ctx, rtp);
                interval
            }
        };
        ctx.set_timer(interval, 0);
    }
}

/// An RTP-subscribing client measuring delivery quality.
pub struct RtpReceiver {
    broker: ProcessId,
    client: ClientId,
    filter: TopicFilter,
    profile: TransportProfile,
    recv_cpu: SimDuration,
    stats: ReceiverStats,
    /// `receiver.rtp_received`, `receiver.rtp_decode_error` and
    /// `receiver.bad_payload`, resolved on the first delivery (see
    /// [`Context::counter_id`]).
    counters: Option<(CounterId, CounterId, CounterId)>,
}

impl RtpReceiver {
    /// Creates a receiver that subscribes to `filter` on start.
    ///
    /// `payload_type` selects the RTP clock for jitter computation;
    /// `recv_cpu` is the per-packet processing cost at the client (this
    /// is what makes co-located receivers perturb each other).
    pub fn new(
        broker: ProcessId,
        client: ClientId,
        filter: TopicFilter,
        payload_type: u8,
        recv_cpu: SimDuration,
    ) -> Self {
        Self {
            broker,
            client,
            filter,
            profile: TransportProfile::Udp,
            recv_cpu,
            stats: ReceiverStats::new(0, payload_type),
            counters: None,
        }
    }

    /// Enables per-packet series capture (Figure 3 plotting).
    pub fn with_series_capture(mut self) -> Self {
        self.stats = self.stats.with_series_capture();
        self
    }

    /// Overrides the transport profile (default UDP), builder style.
    pub fn with_profile(mut self, profile: TransportProfile) -> Self {
        self.profile = profile;
        self
    }

    /// The receiver's quality statistics.
    pub fn stats(&self) -> &ReceiverStats {
        &self.stats
    }
}

impl Process for RtpReceiver {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        join(
            ctx,
            self.broker,
            self.client,
            self.profile,
            Some(&self.filter),
        );
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, packet: Packet) {
        let (received, decode_error, bad_payload) = *self.counters.get_or_insert_with(|| {
            (
                ctx.counter_id("receiver.rtp_received"),
                ctx.counter_id("receiver.rtp_decode_error"),
                ctx.counter_id("receiver.bad_payload"),
            )
        });
        let Some(ClientMsg::Deliver(event)) = packet.payload::<ClientMsg>() else {
            ctx.bump(bad_payload, 1);
            return;
        };
        let arrival = ctx.now();
        match WireRtp::parse(&event.payload) {
            Ok(rtp) => {
                self.stats.record_wire(&rtp, event.published_at, arrival);
                ctx.bump(received, 1);
            }
            Err(_) => ctx.bump(decode_error, 1),
        }
        ctx.spend_cpu(self.recv_cpu);
    }
}

/// A multicast relay: the broker delivers one copy per *machine*, and
/// the relay fans it out locally over the loopback — NaradaBrokering's
/// multicast transport ("one NIC transmission reaches every group
/// member on the same segment"). The relay attaches to the broker as a
/// single [`TransportProfile::Multicast`] client; its local receivers
/// get the event without touching the broker or its NIC again.
pub struct MulticastRelay {
    broker: ProcessId,
    client: ClientId,
    filter: TopicFilter,
    local_receivers: Vec<ProcessId>,
    relay_cpu: SimDuration,
    /// `mcast.relayed`, resolved on the first relayed event.
    relayed_counter: Option<CounterId>,
}

impl MulticastRelay {
    /// Creates a relay subscribing to `filter` on `broker` as `client`.
    pub fn new(broker: ProcessId, client: ClientId, filter: TopicFilter) -> Self {
        Self {
            broker,
            client,
            filter,
            local_receivers: Vec::new(),
            relay_cpu: SimDuration::from_micros(4),
            relayed_counter: None,
        }
    }

    /// Adds a receiver on this relay's machine (must live on the same
    /// simulated host for the loopback model to hold).
    pub fn add_local_receiver(&mut self, receiver: ProcessId) {
        self.local_receivers.push(receiver);
    }
}

impl Process for MulticastRelay {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let profile = TransportProfile::Multicast;
        join(ctx, self.broker, self.client, profile, Some(&self.filter));
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, packet: Packet) {
        let Some(ClientMsg::Deliver(event)) = packet.payload::<ClientMsg>() else {
            return;
        };
        ctx.spend_cpu(self.relay_cpu);
        let wire = event.wire_len();
        for receiver in &self.local_receivers {
            // Loopback delivery: same host, no NIC serialization, and
            // the message the broker delivered, passed on as it is.
            ctx.send_shared(*receiver, packet.payload_handle(), wire);
        }
        let relayed = *self
            .relayed_counter
            .get_or_insert_with(|| ctx.counter_id("mcast.relayed"));
        ctx.bump(relayed, 1);
    }
}

/// A weighted receiver standing in for `weight` co-located clients — the
/// simulation-side analogue of [`MulticastRelay`]: the broker performs
/// one delivery per bundle (a [`TransportProfile::Multicast`] client when
/// `weight > 1`), and the bundle accounts for all `weight` clients behind
/// it — recording the delivery delay `weight` times into a shared
/// histogram pool and charging `weight ×` the per-client receive CPU.
///
/// This is what makes million-subscriber scenarios simulable: broker work
/// and simulator events scale with the number of *bundles*, while the
/// delay histogram and CPU accounting still reflect every individual
/// client. With `weight == 1` the bundle degenerates to an honest unicast
/// receiver (UDP profile, one delivery per client) for knee sweeps where
/// per-client broker cost must stay real.
///
/// The histogram pool is shared (`Arc`) so one pool per home shard can
/// absorb deliveries from thousands of bundles without per-receiver
/// snapshot merging — the "histogram pooling across shards" used by the
/// capacity-frontier harness.
pub struct ClientBundle {
    broker: ProcessId,
    client: ClientId,
    filter: TopicFilter,
    weight: u64,
    recv_cpu: SimDuration,
    delay_pool: Arc<Histogram>,
    received: u64,
    /// `bundle.delivered_clients` and `bundle.bad_payload`, resolved on
    /// the first delivery.
    counters: Option<(CounterId, CounterId)>,
}

impl ClientBundle {
    /// Creates a bundle of `weight` clients behind one delivery, homed at
    /// `broker`, subscribing to `filter` on start, pooling delay samples
    /// (one per represented client) into `delay_pool`.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is zero.
    pub fn new(
        broker: ProcessId,
        client: ClientId,
        filter: TopicFilter,
        weight: u64,
        recv_cpu: SimDuration,
        delay_pool: Arc<Histogram>,
    ) -> Self {
        assert!(weight > 0, "a bundle must represent at least one client");
        Self {
            broker,
            client,
            filter,
            weight,
            recv_cpu,
            delay_pool,
            received: 0,
            counters: None,
        }
    }

    /// Broker deliveries received (events, not per-client copies).
    pub fn received(&self) -> u64 {
        self.received
    }
}

impl Process for ClientBundle {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let profile = if self.weight > 1 {
            TransportProfile::Multicast
        } else {
            TransportProfile::Udp
        };
        join(ctx, self.broker, self.client, profile, Some(&self.filter));
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, packet: Packet) {
        let (delivered_clients, bad_payload) = *self.counters.get_or_insert_with(|| {
            (
                ctx.counter_id("bundle.delivered_clients"),
                ctx.counter_id("bundle.bad_payload"),
            )
        });
        let Some(ClientMsg::Deliver(event)) = packet.payload::<ClientMsg>() else {
            ctx.bump(bad_payload, 1);
            return;
        };
        let delay = ctx.now().saturating_duration_since(event.published_at);
        self.delay_pool.record_n(delay.as_nanos(), self.weight);
        self.received += 1;
        ctx.bump(delivered_clients, self.weight);
        ctx.spend_cpu(self.recv_cpu * self.weight);
    }
}
