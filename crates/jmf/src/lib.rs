//! The JMF-reflector baseline.
//!
//! The paper compares NaradaBrokering against "a JMF reflector program
//! written in Java": a single process that receives each RTP packet and
//! retransmits it to every receiver over unicast, one send at a time,
//! with no transmission optimizations — running on a JVM that
//! periodically stops the world to collect garbage. This crate models
//! exactly those mechanisms:
//!
//! * [`ReflectorProcess`] — serial per-receiver fan-out with a
//!   configurable (higher) per-send CPU cost and **no batching**.
//! * [`GcModel`] — stop-the-world pauses with exponential spacing and
//!   normally distributed length, injected as CPU time on the reflector's
//!   host.
//! * [`RtpDirectSender`] / [`RtpDirectSink`] — media endpoints that talk
//!   raw RTP to the reflector (no broker event framing), mirroring how
//!   the paper's JMF clients worked.
//!
//! The `fig3` benchmark runs this reflector and the broker side by side
//! on identical workloads; `EXPERIMENTS.md` records how the calibrated
//! constants (`ReflectorCost::jmf`, `GcModel::java_1_4`) were chosen.
//!
//! # Examples
//!
//! ```
//! use mmcs_jmf::{ReflectorCost, GcModel};
//!
//! let cost = ReflectorCost::jmf();
//! // The JMF reflector's marginal per-send cost exceeds the optimized
//! // broker's batched marginal cost for the same packet.
//! let broker = mmcs_broker::batch::CostModel::narada();
//! assert!(cost.send_cost(1060) > broker.send_cost(1, 1060));
//! assert!(GcModel::java_1_4().mean_interval.as_millis() > 0);
//! ```

use bytes::Bytes;
use mmcs_rtp::packet::{RtpPacket, WireRtp};
use mmcs_rtp::recv::ReceiverStats;
use mmcs_rtp::source::{AudioSource, VideoSource};
use mmcs_sim::{Context, CounterId, Packet, Process, ProcessId};
use mmcs_util::time::{SimDuration, SimTime};

/// CPU cost profile of the reflector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReflectorCost {
    /// Fixed cost to receive and classify one packet.
    pub routing: SimDuration,
    /// Cost of each unicast retransmission (paid in full for every
    /// receiver — the JMF reflector has no batching).
    pub per_send: SimDuration,
    /// Additional cost per kilobyte copied (Java buffer churn).
    pub per_kilobyte: SimDuration,
}

impl ReflectorCost {
    /// The calibrated JMF profile (see `EXPERIMENTS.md`): roughly 3× the
    /// optimized broker's per-send cost, as the paper's 229 ms vs 81 ms
    /// averages imply.
    pub fn jmf() -> Self {
        Self {
            routing: SimDuration::from_micros(40),
            per_send: SimDuration::from_nanos(20_300),
            per_kilobyte: SimDuration::from_micros(9),
        }
    }

    /// Cost of one retransmission of `bytes`.
    pub fn send_cost(&self, bytes: usize) -> SimDuration {
        self.per_send + self.per_kilobyte * (bytes as f64 / 1024.0)
    }
}

/// Stop-the-world garbage-collection pause model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GcModel {
    /// Mean spacing between pauses (exponentially distributed).
    pub mean_interval: SimDuration,
    /// Mean pause length.
    pub pause_mean: SimDuration,
    /// Pause length standard deviation.
    pub pause_std: SimDuration,
}

impl GcModel {
    /// A 2003-era JVM under allocation pressure from packet buffers:
    /// a full-heap pause every ~2.5 s averaging ~120 ms.
    pub fn java_1_4() -> Self {
        Self {
            mean_interval: SimDuration::from_millis(2500),
            pause_mean: SimDuration::from_millis(120),
            pause_std: SimDuration::from_millis(40),
        }
    }

    /// No pauses at all (for ablations).
    pub fn none() -> Self {
        Self {
            mean_interval: SimDuration::from_secs(u64::MAX / 2_000_000_000),
            pause_mean: SimDuration::ZERO,
            pause_std: SimDuration::ZERO,
        }
    }
}

/// A raw RTP packet in flight between JMF endpoints, stamped with its
/// original send time so sinks can measure end-to-end delay.
#[derive(Debug, Clone)]
pub struct RawRtp {
    /// Encoded RTP packet.
    pub bytes: Bytes,
    /// When the original sender emitted it.
    pub sent_at: SimTime,
}

/// Messages understood by the reflector.
#[derive(Debug, Clone)]
pub enum ReflectorMsg {
    /// A receiver registers for the reflected stream.
    Register(ProcessId),
    /// An RTP packet to reflect.
    Rtp(RawRtp),
}

/// UDP/IP framing bytes per reflected packet.
const UDP_OVERHEAD: usize = 28;

/// The serial unicast reflector. See the [crate docs](crate).
pub struct ReflectorProcess {
    cost: ReflectorCost,
    gc: GcModel,
    receivers: Vec<ProcessId>,
    reflected: u64,
    /// `reflector.reflected` and `reflector.bad_payload`, resolved on the
    /// first packet (see [`Context::counter_id`]).
    counters: Option<(CounterId, CounterId)>,
}

impl ReflectorProcess {
    /// Creates a reflector with the given cost and GC profiles.
    pub fn new(cost: ReflectorCost, gc: GcModel) -> Self {
        Self {
            cost,
            gc,
            receivers: Vec::new(),
            reflected: 0,
            counters: None,
        }
    }

    /// Pre-registers a receiver (the bench harness uses this instead of
    /// `Register` messages when the topology is static).
    pub fn add_receiver(&mut self, receiver: ProcessId) {
        self.receivers.push(receiver);
    }

    /// Packets reflected so far (each counted once regardless of fan-out).
    pub fn reflected(&self) -> u64 {
        self.reflected
    }

    fn schedule_gc(&mut self, ctx: &mut Context<'_>) {
        let interval = {
            let mean = self.gc.mean_interval;
            ctx.rng().exp_duration(mean)
        };
        ctx.set_timer(interval, 1);
    }
}

impl Process for ReflectorProcess {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        if self.gc.pause_mean > SimDuration::ZERO {
            self.schedule_gc(ctx);
        }
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, packet: Packet) {
        let (reflected, bad_payload) = *self.counters.get_or_insert_with(|| {
            (
                ctx.counter_id("reflector.reflected"),
                ctx.counter_id("reflector.bad_payload"),
            )
        });
        let Some(msg) = packet.payload::<ReflectorMsg>() else {
            ctx.bump(bad_payload, 1);
            return;
        };
        match msg {
            ReflectorMsg::Register(receiver) => {
                self.receivers.push(*receiver);
            }
            ReflectorMsg::Rtp(raw) => {
                ctx.spend_cpu(self.cost.routing);
                let wire = raw.bytes.len() + UDP_OVERHEAD;
                let shared = packet.payload_handle();
                for receiver in &self.receivers {
                    // Serial unicast: every receiver pays the full cost.
                    ctx.spend_cpu(self.cost.send_cost(wire));
                    ctx.send_shared(*receiver, std::sync::Arc::clone(&shared), wire);
                }
                self.reflected += 1;
                ctx.bump(reflected, 1);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, _token: u64) {
        // Stop-the-world: burn CPU so every queued packet waits.
        let pause_secs = ctx
            .rng()
            .normal_f64(
                self.gc.pause_mean.as_secs_f64(),
                self.gc.pause_std.as_secs_f64(),
            )
            .max(0.0);
        ctx.spend_cpu(SimDuration::from_secs_f64(pause_secs));
        ctx.count("reflector.gc_pauses", 1);
        ctx.observe("reflector.gc_pause_ms", pause_secs * 1e3);
        self.schedule_gc(ctx);
    }
}

/// Media the direct sender produces.
pub enum DirectMedia {
    /// Bursty video frames.
    Video(VideoSource),
    /// Constant-rate audio.
    Audio(AudioSource),
}

/// A media sender feeding the reflector with raw RTP.
pub struct RtpDirectSender {
    reflector: ProcessId,
    media: DirectMedia,
    start_delay: SimDuration,
    max_packets: u64,
    send_cpu: SimDuration,
    sent: u64,
    /// `jmf.rtp_sent`, resolved on the first packet.
    sent_counter: Option<CounterId>,
}

impl RtpDirectSender {
    /// Creates a sender; media starts after `start_delay` and stops after
    /// `max_packets`.
    pub fn new(
        reflector: ProcessId,
        media: DirectMedia,
        start_delay: SimDuration,
        max_packets: u64,
    ) -> Self {
        Self {
            reflector,
            media,
            start_delay,
            max_packets,
            send_cpu: SimDuration::from_micros(5),
            sent: 0,
            sent_counter: None,
        }
    }

    /// Packets sent so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    fn emit(&mut self, ctx: &mut Context<'_>, rtp: RtpPacket) {
        ctx.spend_cpu(self.send_cpu);
        let bytes = rtp.encode();
        let wire = bytes.len() + UDP_OVERHEAD;
        ctx.send(
            self.reflector,
            ReflectorMsg::Rtp(RawRtp {
                bytes,
                sent_at: ctx.now(),
            }),
            wire,
        );
        self.sent += 1;
        let sent = *self
            .sent_counter
            .get_or_insert_with(|| ctx.counter_id("jmf.rtp_sent"));
        ctx.bump(sent, 1);
    }
}

impl Process for RtpDirectSender {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(self.start_delay, 0);
    }

    fn on_packet(&mut self, _ctx: &mut Context<'_>, _packet: Packet) {}

    fn on_timer(&mut self, ctx: &mut Context<'_>, _token: u64) {
        if self.sent >= self.max_packets {
            return;
        }
        let (packets, interval) = match &mut self.media {
            DirectMedia::Video(source) => (source.next_frame(), source.frame_interval()),
            DirectMedia::Audio(source) => (vec![source.next_packet()], source.frame_interval()),
        };
        for rtp in packets {
            if self.sent >= self.max_packets {
                break;
            }
            self.emit(ctx, rtp);
        }
        ctx.set_timer(interval, 0);
    }
}

/// A receiver of reflected RTP, measuring quality.
pub struct RtpDirectSink {
    recv_cpu: SimDuration,
    stats: ReceiverStats,
    /// `jmf.rtp_received`, `jmf.rtp_decode_error` and
    /// `jmf.sink_bad_payload`, resolved on the first packet.
    counters: Option<(CounterId, CounterId, CounterId)>,
}

impl RtpDirectSink {
    /// Creates a sink; `payload_type` selects the jitter clock rate.
    pub fn new(payload_type: u8, recv_cpu: SimDuration) -> Self {
        Self {
            recv_cpu,
            stats: ReceiverStats::new(0, payload_type),
            counters: None,
        }
    }

    /// Enables per-packet series capture.
    pub fn with_series_capture(mut self) -> Self {
        self.stats = self.stats.with_series_capture();
        self
    }

    /// This sink's quality statistics.
    pub fn stats(&self) -> &ReceiverStats {
        &self.stats
    }
}

impl Process for RtpDirectSink {
    fn on_packet(&mut self, ctx: &mut Context<'_>, packet: Packet) {
        let (received, decode_error, bad_payload) = *self.counters.get_or_insert_with(|| {
            (
                ctx.counter_id("jmf.rtp_received"),
                ctx.counter_id("jmf.rtp_decode_error"),
                ctx.counter_id("jmf.sink_bad_payload"),
            )
        });
        let Some(ReflectorMsg::Rtp(raw)) = packet.payload::<ReflectorMsg>() else {
            ctx.bump(bad_payload, 1);
            return;
        };
        let arrival = ctx.now();
        match WireRtp::parse(&raw.bytes) {
            Ok(rtp) => {
                self.stats.record_wire(&rtp, raw.sent_at, arrival);
                ctx.bump(received, 1);
            }
            Err(_) => ctx.bump(decode_error, 1),
        }
        ctx.spend_cpu(self.recv_cpu);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmcs_rtp::packet::payload_type;
    use mmcs_rtp::source::{AudioCodec, VideoSourceConfig};
    use mmcs_sim::net::NicConfig;
    use mmcs_sim::Simulation;
    use mmcs_util::rng::DetRng;

    fn build(seed: u64, receivers: usize, gc: GcModel) -> (Simulation, Vec<ProcessId>) {
        let mut sim = Simulation::new(seed);
        let sender_host = sim.add_host("sender", NicConfig::default());
        let reflector_host = sim.add_host("reflector", NicConfig::default());
        let client_host = sim.add_host("clients", NicConfig::default());

        let mut reflector = ReflectorProcess::new(ReflectorCost::jmf(), gc);
        let mut sink_ids = Vec::new();
        // Registering receivers needs their process ids, so create sinks
        // first using a placeholder loop, then the reflector.
        let reflector_id_placeholder = ProcessId(0);
        let _ = reflector_id_placeholder;
        let mut sinks = Vec::new();
        for _ in 0..receivers {
            sinks.push(RtpDirectSink::new(
                payload_type::H263,
                SimDuration::from_micros(30),
            ));
        }
        for sink in sinks {
            sink_ids.push(sim.add_typed_process(client_host, sink));
        }
        for id in &sink_ids {
            reflector.add_receiver(*id);
        }
        let reflector_id = sim.add_typed_process(reflector_host, reflector);
        let source = VideoSource::new(VideoSourceConfig::default(), 1, DetRng::new(seed));
        sim.add_typed_process(
            sender_host,
            RtpDirectSender::new(
                reflector_id,
                DirectMedia::Video(source),
                SimDuration::from_millis(100),
                200,
            ),
        );
        (sim, sink_ids)
    }

    #[test]
    fn reflector_reaches_every_receiver() {
        let (mut sim, sinks) = build(7, 5, GcModel::none());
        sim.run_until(SimTime::from_secs(20));
        assert_eq!(sim.counter("jmf.rtp_sent"), 200);
        for sink in &sinks {
            let stats = sim.process_ref::<RtpDirectSink>(*sink).unwrap().stats();
            assert_eq!(stats.received(), 200);
            assert_eq!(stats.lost(), 0);
        }
    }

    #[test]
    fn gc_pauses_add_delay() {
        let (mut quiet_sim, quiet_sinks) = build(8, 5, GcModel::none());
        quiet_sim.run_until(SimTime::from_secs(20));
        let (mut gc_sim, gc_sinks) = build(8, 5, GcModel::java_1_4());
        gc_sim.run_until(SimTime::from_secs(20));
        let quiet: f64 = quiet_sinks
            .iter()
            .map(|s| quiet_sim.process_ref::<RtpDirectSink>(*s).unwrap().stats().delay_ms().mean())
            .sum();
        let paused: f64 = gc_sinks
            .iter()
            .map(|s| gc_sim.process_ref::<RtpDirectSink>(*s).unwrap().stats().delay_ms().mean())
            .sum();
        assert!(gc_sim.counter("reflector.gc_pauses") > 0);
        assert!(paused > quiet, "gc {paused} vs quiet {quiet}");
    }

    #[test]
    fn audio_reflection_works() {
        let mut sim = Simulation::new(1);
        let host = sim.add_host("all", NicConfig::default());
        let sink_id = sim.add_typed_process(
            host,
            RtpDirectSink::new(payload_type::PCMU, SimDuration::from_micros(10)),
        );
        let mut reflector = ReflectorProcess::new(ReflectorCost::jmf(), GcModel::none());
        reflector.add_receiver(sink_id);
        let reflector_id = sim.add_typed_process(host, reflector);
        sim.add_typed_process(
            host,
            RtpDirectSender::new(
                reflector_id,
                DirectMedia::Audio(AudioSource::new(AudioCodec::Pcmu, 5)),
                SimDuration::from_millis(10),
                25,
            ),
        );
        sim.run_until(SimTime::from_secs(2));
        let stats = sim.process_ref::<RtpDirectSink>(sink_id).unwrap().stats();
        assert_eq!(stats.received(), 25);
    }

    #[test]
    fn dynamic_registration_via_message() {
        struct Registrar {
            reflector: ProcessId,
            me_registered: bool,
        }
        impl Process for Registrar {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.send(self.reflector, ReflectorMsg::Register(ctx.me()), 64);
                self.me_registered = true;
            }
            fn on_packet(&mut self, ctx: &mut Context<'_>, _packet: Packet) {
                ctx.count("registrar.got_packet", 1);
            }
        }
        let mut sim = Simulation::new(1);
        let host = sim.add_host("all", NicConfig::default());
        let reflector_id = sim.add_typed_process(
            host,
            ReflectorProcess::new(ReflectorCost::jmf(), GcModel::none()),
        );
        sim.add_typed_process(
            host,
            Registrar {
                reflector: reflector_id,
                me_registered: false,
            },
        );
        sim.add_typed_process(
            host,
            RtpDirectSender::new(
                reflector_id,
                DirectMedia::Audio(AudioSource::new(AudioCodec::Pcmu, 5)),
                SimDuration::from_millis(50),
                3,
            ),
        );
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.counter("registrar.got_packet"), 3);
    }

    #[test]
    fn serial_fanout_is_slower_per_receiver_than_batched_broker() {
        // Pure cost-model check: reflecting to 400 receivers costs more
        // CPU than the batched broker fanning out the same packet.
        let jmf = ReflectorCost::jmf();
        let broker = mmcs_broker::batch::CostModel::narada();
        let bytes = 1060;
        let jmf_total: SimDuration =
            (0..400).map(|_| jmf.send_cost(bytes)).fold(SimDuration::ZERO, |a, b| a + b);
        let broker_total = broker.fanout_cost(400, bytes);
        assert!(jmf_total > broker_total * 1.5);
    }
}
