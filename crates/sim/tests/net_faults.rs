//! Property tests for the network fault paths in `net.rs`/`engine.rs`:
//! jitter bounds, duplication ordering, and hard partitions.
//!
//! Each property drives a two-host simulation — one paced sender, one
//! recording receiver — under a randomized [`LinkConfig`] and checks
//! the delivery schedule the engine actually produced.

use proptest::prelude::*;

use mmcs_sim::net::NicConfig;
use mmcs_sim::{Context, LinkConfig, Packet, Process, ProcessId, Simulation};
use mmcs_util::time::{SimDuration, SimTime};

/// Paced sender: one `wire_bytes`-sized packet per tick, payload = the
/// packet's sequence number.
struct Pacer {
    dst: ProcessId,
    interval: SimDuration,
    remaining: u64,
    seq: u64,
    wire_bytes: usize,
}

impl Process for Pacer {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(self.interval, 0);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, _token: u64) {
        if self.remaining == 0 {
            return;
        }
        self.remaining -= 1;
        ctx.send(self.dst, self.seq, self.wire_bytes);
        self.seq += 1;
        ctx.set_timer(self.interval, 0);
    }

    fn on_packet(&mut self, _ctx: &mut Context<'_>, _packet: Packet) {}
}

/// Burst sender: all packets handed to the NIC in one handler, so the
/// base (latency-only) delivery order is exactly the send order.
struct Burst {
    dst: ProcessId,
    count: u64,
    wire_bytes: usize,
}

impl Process for Burst {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        for seq in 0..self.count {
            ctx.send(self.dst, seq, self.wire_bytes);
        }
    }

    fn on_packet(&mut self, _ctx: &mut Context<'_>, _packet: Packet) {}
}

/// Records every arrival as `(seq, sent_at, arrived_at)`.
#[derive(Default)]
struct Recorder {
    arrivals: Vec<(u64, SimTime, SimTime)>,
}

impl Process for Recorder {
    fn on_packet(&mut self, ctx: &mut Context<'_>, packet: Packet) {
        let seq = *packet.payload::<u64>().expect("u64 payload");
        self.arrivals.push((seq, packet.sent_at, ctx.now()));
    }
}

fn two_host_sim(seed: u64, link: LinkConfig) -> (Simulation, mmcs_sim::net::HostId, mmcs_sim::net::HostId) {
    let mut sim = Simulation::new(seed);
    let a = sim.add_host("sender", NicConfig::default());
    let b = sim.add_host("receiver", NicConfig::default());
    sim.set_link(a, b, link);
    (sim, a, b)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Jitter adds at most `jitter` delay: every delivery arrives in
    /// `[sent + tx + latency, sent + tx + latency + jitter]`, where tx
    /// is the NIC serialization time of one packet (sends are paced
    /// far apart, so packets never queue behind each other).
    #[test]
    fn jitter_stays_within_bound(
        seed in 0u64..10_000,
        latency_us in 50u64..5_000,
        jitter_us in 0u64..20_000,
        packets in 1u64..40,
    ) {
        let latency = SimDuration::from_micros(latency_us);
        let jitter = SimDuration::from_micros(jitter_us);
        let link = LinkConfig { latency, jitter, ..LinkConfig::default() };
        let (mut sim, sender, receiver) = two_host_sim(seed, link);
        let wire_bytes = 200usize;
        // 1 Gbps NIC: 8 ns per byte.
        let tx = SimDuration::from_nanos(8 * wire_bytes as u64);
        let recorder = {
            let recorder = sim.add_typed_process(receiver, Recorder::default());
            sim.add_typed_process(
                sender,
                Pacer {
                    dst: recorder,
                    // Paced far beyond jitter so copies cannot queue.
                    interval: SimDuration::from_micros(25_000),
                    remaining: packets,
                    seq: 0,
                    wire_bytes,
                },
            );
            recorder
        };
        sim.run_to_completion();
        let arrivals = &sim.process_ref::<Recorder>(recorder).expect("recorder").arrivals;
        prop_assert_eq!(arrivals.len() as u64, packets, "lossless link delivers all");
        for (seq, sent_at, arrived_at) in arrivals {
            let delay = *arrived_at - *sent_at;
            prop_assert!(
                delay >= latency + tx,
                "packet {} arrived after {:?}, below latency+tx {:?}",
                seq, delay, latency + tx
            );
            prop_assert!(
                delay <= latency + tx + jitter,
                "packet {} arrived after {:?}, above latency+tx+jitter {:?}",
                seq, delay, latency + tx + jitter
            );
        }
    }

    /// `duplicate = 1.0` with zero jitter delivers every packet exactly
    /// twice and never reorders the FIFO base-latency order: arrivals
    /// are 0,0,1,1,2,2,… even for a single back-to-back burst.
    #[test]
    fn duplicates_preserve_fifo_order(
        seed in 0u64..10_000,
        latency_us in 50u64..5_000,
        packets in 1u64..60,
    ) {
        let link = LinkConfig {
            latency: SimDuration::from_micros(latency_us),
            duplicate: 1.0,
            ..LinkConfig::default()
        };
        let (mut sim, sender, receiver) = two_host_sim(seed, link);
        let recorder = {
            let recorder = sim.add_typed_process(receiver, Recorder::default());
            sim.add_typed_process(
                sender,
                Burst {
                    dst: recorder,
                    count: packets,
                    wire_bytes: 300,
                },
            );
            recorder
        };
        sim.run_to_completion();
        let arrivals = &sim.process_ref::<Recorder>(recorder).expect("recorder").arrivals;
        prop_assert_eq!(
            arrivals.len() as u64,
            packets * 2,
            "every packet is delivered exactly twice"
        );
        prop_assert_eq!(sim.counter("net.duplicated"), packets);
        let seqs: Vec<u64> = arrivals.iter().map(|(seq, ..)| *seq).collect();
        let expected: Vec<u64> = (0..packets).flat_map(|seq| [seq, seq]).collect();
        prop_assert_eq!(seqs, expected, "duplicates must not reorder FIFO delivery");
        // Arrival times never go backwards (FIFO in time, not just seq).
        for pair in arrivals.windows(2) {
            prop_assert!(pair[0].2 <= pair[1].2);
        }
    }

    /// A `down` link delivers nothing and accounts every packet as
    /// `net.dropped.linkdown`.
    #[test]
    fn down_links_deliver_nothing(
        seed in 0u64..10_000,
        packets in 1u64..50,
    ) {
        let link = LinkConfig { down: true, ..LinkConfig::default() };
        let (mut sim, sender, receiver) = two_host_sim(seed, link);
        let recorder = {
            let recorder = sim.add_typed_process(receiver, Recorder::default());
            sim.add_typed_process(
                sender,
                Pacer {
                    dst: recorder,
                    interval: SimDuration::from_micros(500),
                    remaining: packets,
                    seq: 0,
                    wire_bytes: 100,
                },
            );
            recorder
        };
        sim.run_until(SimTime::from_secs(2));
        let arrivals = &sim.process_ref::<Recorder>(recorder).expect("recorder").arrivals;
        prop_assert!(arrivals.is_empty(), "a hard partition must stay dark");
        prop_assert_eq!(sim.counter("net.dropped.linkdown"), packets);
        prop_assert_eq!(sim.counter("net.delivered"), 0);
    }
}
