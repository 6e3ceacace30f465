//! A deterministic discrete-event network simulator.
//!
//! The paper's evaluation ran on two 2003-era lab machines; this crate is
//! the substitution substrate (see `DESIGN.md` §2): it models exactly the
//! first-order effects that produced the paper's Figure 3 —
//!
//! * **CPU contention** — each host has one serial CPU; packet handling
//!   costs declared with [`Context::spend_cpu`] queue up behind each
//!   other, which is how a slow reflector falls behind a 600 Kbps fan-out
//!   and how 12 co-located receivers perturb the sender machine.
//! * **NIC serialization** — every egress packet occupies the NIC for
//!   `bytes × 8 / bandwidth`; back-to-back fan-out to 400 receivers queues
//!   behind itself. Queues are drop-tail with a byte limit.
//! * **Link propagation and loss** — per-pair latency and loss
//!   probability.
//!
//! Components are actor-style [`Process`]es exchanging [`Packet`]s; all
//! scheduling is virtual-time ([`SimTime`](mmcs_util::time::SimTime)), all
//! randomness is seeded per host, so runs are bit-reproducible. There is
//! one engine, and it is single-threaded (see `DESIGN.md` §2 "One
//! engine").
//!
//! # Examples
//!
//! ```
//! use mmcs_sim::{Context, Packet, Process, Simulation};
//! use mmcs_sim::net::NicConfig;
//! use mmcs_util::time::{SimDuration, SimTime};
//!
//! struct Ping;
//! struct Pong;
//!
//! impl Process for Ping {
//!     fn on_start(&mut self, ctx: &mut Context<'_>) {
//!         // Process ids are handed out in registration order, starting
//!         // at 1; the Pong below is process 2.
//!         ctx.send(2.into(), "ping", 100);
//!     }
//!     fn on_packet(&mut self, _ctx: &mut Context<'_>, _packet: Packet) {}
//! }
//!
//! impl Process for Pong {
//!     fn on_packet(&mut self, ctx: &mut Context<'_>, packet: Packet) {
//!         assert_eq!(packet.payload::<&str>(), Some(&"ping"));
//!         ctx.send(packet.src, "pong", 100);
//!     }
//! }
//!
//! let mut sim = Simulation::new(1);
//! let a = sim.add_host("a", NicConfig::default());
//! let b = sim.add_host("b", NicConfig::default());
//! sim.set_default_latency(SimDuration::from_millis(1));
//! sim.add_process(a, Box::new(Ping));
//! sim.add_process(b, Box::new(Pong));
//! sim.run_until(SimTime::from_secs(1));
//! assert!(sim.counter("net.delivered") >= 2);
//! ```

pub mod engine;
pub mod net;
pub mod process;
mod queue;

pub use engine::{CounterId, Simulation};
pub use net::{LinkConfig, NicConfig};
pub use process::{Context, Packet, Process, ProcessId};
