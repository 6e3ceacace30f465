//! Experiment harnesses reproducing the Global-MMCS evaluation.
//!
//! Each module builds one experiment from `EXPERIMENTS.md` on top of the
//! deterministic simulator and returns structured results; the
//! `harness = false` bench targets (`benches/fig3.rs`,
//! `benches/capacity.rs`, `benches/ablation.rs`) print the paper's
//! rows/series and write CSVs to `bench_results/`, while reduced-scale
//! versions run as ordinary tests to guard the experiment *shape* in CI.
//!
//! * [`fig3`] — Figure 3: delay and jitter per packet for 12 measured
//!   (of 400) video receivers, NaradaBrokering vs the JMF reflector.
//! * [`capacity`] — the in-text capacity claims: > 1000 audio clients,
//!   > 400 video clients per broker with good quality.
//! * [`ablation`] — A1 (send batching on/off) and A2 (a star of 1–4
//!   brokers with the publisher at the hub).
//! * [`load`] — the simulated A/V clients every experiment drives the
//!   broker with: paced publishers, measuring receivers, multicast
//!   relays and weighted client bundles.
//! * [`frontier`] — the capacity frontier on the *sharded* runtime:
//!   clients × shards × fan-out swept to the knee, the
//!   million-subscriber broadcast, and the `BENCH_capacity.json`
//!   artifact CI diffs against its baseline.
//! * [`json`] — dependency-free JSON parse/render used by the frontier
//!   baseline comparison and the golden schema tests.
//! * [`report`] — CSV/table helpers shared by the bench targets.

pub mod ablation;
pub mod capacity;
pub mod fig3;
pub mod frontier;
pub mod json;
pub mod load;
pub mod report;
