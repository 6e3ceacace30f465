//! Shared utilities for the Global-MMCS reproduction.
//!
//! This crate holds the small building blocks every other crate in the
//! workspace uses:
//!
//! * [`id`] — strongly-typed numeric identifiers ([`id::UserId`],
//!   [`id::SessionId`], …) so a user id can never be confused with a
//!   terminal id at compile time.
//! * [`time`] — virtual time ([`time::SimTime`], [`time::SimDuration`])
//!   used by the discrete-event simulator and by every sans-IO protocol
//!   core. Nanosecond resolution, purely arithmetic, no OS clocks.
//! * [`rng`] — a small deterministic PRNG ([`rng::DetRng`], SplitMix64)
//!   so whole-system simulations are bit-reproducible from a seed.
//! * [`xml`] — a minimal XML document model, writer and parser. XGSP,
//!   SOAP and the IM stanzas are XML protocols and no XML crate is on the
//!   allowed offline dependency list, so we carry our own.
//! * [`stats`] — online statistics and time-series capture
//!   used by the benchmark harnesses.
//! * [`rate`] — bandwidth/serialization arithmetic and a token bucket.
//! * [`pool`] — thread-local size-classed buffer pools backing the
//!   zero-copy wire path (the one module with a dependency: the vendored
//!   `bytes` shim, so pooled frames can escape as shared [`bytes::Bytes`]).
//!
//! # Examples
//!
//! ```
//! use mmcs_util::time::{SimDuration, SimTime};
//!
//! let t = SimTime::ZERO + SimDuration::from_millis(20);
//! assert_eq!(t.as_millis_f64(), 20.0);
//! ```

pub mod id;
pub mod pool;
pub mod rate;
pub mod rng;
pub mod stats;
pub mod time;
pub mod xml;
