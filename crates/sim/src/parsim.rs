//! Conservative-parallel execution of a [`Simulation`].
//!
//! [`Simulation::run_parallel_until`] shards the simulation by host
//! across worker threads and advances them in bulk-synchronous
//! conservative windows:
//!
//! 1. each worker drains its inbox of cross-worker deliveries, then
//!    publishes a lower bound on its next local event time (publishing
//!    `u64::MAX` when idle is the null message that keeps an idle shard
//!    from stalling the watermark);
//! 2. a barrier; every worker computes the same global watermark `T` =
//!    the minimum published bound;
//! 3. if `T` passes the deadline (or everyone is idle), all workers
//!    break — otherwise each executes its local events in the window
//!    `[T, T + lookahead)`, capped at the deadline;
//! 4. a second barrier, so the next round's publishes cannot race the
//!    current round's reads.
//!
//! The window is safe because a cross-host packet sent at time `t`
//! arrives no earlier than `t + lookahead`: delivery time is
//! `tx_done + link latency + jitter` with `tx_done >= t` and
//! `jitter >= 0`, and `lookahead` is the minimum configured link
//! latency (`down` links deliver nothing at all). Events generated
//! inside the window therefore land strictly after it, and are picked
//! up by the receiving worker's next drain before the next watermark is
//! computed.
//!
//! Determinism is inherited from the engine's `(time, origin, seq)`
//! event keys: a host's events execute in the same relative order on
//! any worker, so every key — and every per-host trace, counter, and
//! fingerprint — is bit-identical to the sequential engine at any
//! worker count (`tests/parsim_equivalence.rs` proves it at 1/2/4/8).
//! See DESIGN.md §14 for the full protocol and argument.
//!
//! Known divergence: [`Context::stop`](crate::Context::stop) takes
//! effect at window granularity — other workers finish their current
//! window before halting — so post-stop clock position can differ from
//! the sequential engine. Fault injection (`set_link`, crash/restart)
//! happens between runs and is unaffected.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;

use mmcs_util::time::{SimDuration, SimTime};

use crate::engine::{AnyProcess, CrossLinks, EngineCore, Event, Simulation};
use crate::net::{HostState, NetworkState};
use crate::queue::EventQueue;

/// Cumulative statistics about parallel runs, kept outside the metric
/// counters so chaos fingerprints stay engine-independent.
#[derive(Debug, Clone, Default)]
pub struct ParsimStats {
    /// Parallel runs that actually fanned out to worker threads.
    pub parallel_runs: u64,
    /// Runs that fell back to the sequential engine (one worker, fewer
    /// than two hosts, or a zero-latency link leaving no lookahead).
    pub sequential_fallbacks: u64,
    /// Synchronization rounds (watermark advances), summed over runs.
    pub rounds: u64,
    /// Events executed per worker, indexed by worker.
    pub worker_events: Vec<u64>,
    /// Watermark stalls per worker: rounds where the worker had no event
    /// inside the safe window and only republished its bound (its null
    /// message still advanced the watermark for everyone else).
    pub worker_stalls: Vec<u64>,
}

impl ParsimStats {
    fn ensure_workers(&mut self, n: usize) {
        if self.worker_events.len() < n {
            self.worker_events.resize(n, 0);
            self.worker_stalls.resize(n, 0);
        }
    }
}

/// A sense-reversing spin barrier.
///
/// Windows are typically microseconds of work, so parking threads in the
/// kernel (as `std::sync::Barrier`'s mutex + condvar does) would dominate
/// the run. Spinning with `spin_loop` plus a periodic `yield_now` keeps
/// the barrier in the tens-of-nanoseconds range when all workers are
/// runnable and stays polite when they are not.
struct SpinBarrier {
    parties: usize,
    arrived: AtomicUsize,
    generation: AtomicUsize,
    /// Set when a worker panics; waiters return `false` immediately so
    /// the run aborts instead of spinning forever on a dead peer.
    poisoned: AtomicBool,
}

impl SpinBarrier {
    fn new(parties: usize) -> Self {
        Self {
            parties,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
        }
    }

    fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
    }

    /// Waits for all parties. Returns `false` if the barrier was
    /// poisoned (a peer panicked) and the caller should abandon the run.
    fn wait(&self) -> bool {
        if self.poisoned.load(Ordering::Acquire) {
            return false;
        }
        let generation = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.parties {
            self.arrived.store(0, Ordering::Release);
            self.generation
                .store(generation.wrapping_add(1), Ordering::Release);
            return true;
        }
        let mut spins: u32 = 0;
        while self.generation.load(Ordering::Acquire) == generation {
            if self.poisoned.load(Ordering::Acquire) {
                return false;
            }
            spins = spins.saturating_add(1);
            // Short pure-spin burst (covers the common all-runnable
            // case), then yield on every iteration: when workers
            // outnumber cores the peer we are waiting on needs our
            // timeslice, and burning it spinning inverts the priority.
            if spins > 256 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
        true
    }
}

/// Coordination state shared by every worker of one parallel run.
struct SharedSync {
    barrier: SpinBarrier,
    /// Per-worker published lower bound on its next event time (nanos);
    /// `u64::MAX` = idle (the null message).
    next_time: Vec<AtomicU64>,
    /// Set when any worker's simulation requests a stop.
    stop: AtomicBool,
}

/// What a worker hands back when its run completes.
pub(crate) struct WorkerOutcome {
    sim: Simulation,
    /// Virtual time of the last event this worker executed.
    last_exec: SimTime,
    executed: u64,
    stalls: u64,
    rounds: u64,
}

/// One worker of a parallel run: a full-width `Simulation` whose host
/// and process tables are populated only at the slots this worker owns
/// (the rest are inert placeholders), plus the coordination handles.
pub(crate) struct SimWorker {
    sim: Simulation,
    me: usize,
    deadline: SimTime,
    /// Minimum cross-host link propagation delay: events a worker
    /// executes in `[T, T + lookahead)` cannot affect any other worker
    /// inside that same window.
    lookahead: SimDuration,
    inbox: Receiver<Event>,
    shared: Arc<SharedSync>,
}

impl SimWorker {
    /// The conservative worker loop; see the module docs for the
    /// protocol and its safety argument.
    pub(crate) fn run(mut self) -> WorkerOutcome {
        let mut last_exec = self.sim.core.now;
        let mut executed_total: u64 = 0;
        let mut stalls: u64 = 0;
        let mut rounds: u64 = 0;
        loop {
            self.drain_inbox();
            let bound = match self.sim.core.queue.peek_key() {
                Some(key) => key.at.as_nanos(),
                None => u64::MAX,
            };
            self.publish(bound);
            if !self.shared.barrier.wait() {
                break;
            }
            // Between the two barriers `next_time` is frozen, so every
            // worker computes the same watermark and makes the same
            // break/continue decision — the loop stays in lockstep.
            if self.shared.stop.load(Ordering::Acquire) {
                break;
            }
            let watermark = self.agreed_watermark();
            if watermark == SimTime::MAX || watermark > self.deadline {
                break;
            }
            let limit = window_limit(watermark, self.lookahead, self.deadline);
            let ran = self.execute(limit, &mut last_exec);
            executed_total += ran;
            if ran == 0 {
                stalls += 1;
            }
            rounds += 1;
            if self.sim.core.stop_requested {
                self.shared.stop.store(true, Ordering::Release);
            }
            if !self.shared.barrier.wait() {
                break;
            }
        }
        // Every cross-worker send of the final round happened before the
        // barrier above, so one last drain empties the channel for the
        // merge.
        self.drain_inbox();
        WorkerOutcome {
            sim: self.sim,
            last_exec,
            executed: executed_total,
            stalls,
            rounds,
        }
    }

    fn drain_inbox(&mut self) {
        while let Ok(event) = self.inbox.try_recv() {
            self.sim.core.queue.push(event);
        }
    }

    fn publish(&self, bound: u64) {
        if let Some(slot) = self.shared.next_time.get(self.me) {
            slot.store(bound, Ordering::Release);
        }
    }

    fn agreed_watermark(&self) -> SimTime {
        let mut min = u64::MAX;
        for slot in &self.shared.next_time {
            min = min.min(slot.load(Ordering::Acquire));
        }
        SimTime::from_nanos(min)
    }

    /// Executes every local event with `at <= limit`, in key order.
    fn execute(&mut self, limit: SimTime, last_exec: &mut SimTime) -> u64 {
        let mut ran: u64 = 0;
        loop {
            match self.sim.core.queue.peek_key() {
                Some(key) if key.at <= limit => {
                    let at = key.at;
                    if !self.sim.step() {
                        break;
                    }
                    *last_exec = at;
                    ran += 1;
                }
                _ => break,
            }
        }
        ran
    }
}

/// Inclusive per-round execution limit: `min(T + lookahead - 1 ns,
/// deadline)`. Saturating arithmetic keeps a `SimTime::MAX` deadline or
/// a far-future watermark from wrapping (see the overflow regressions
/// in `mmcs_util::time`).
fn window_limit(watermark: SimTime, lookahead: SimDuration, deadline: SimTime) -> SimTime {
    let span = lookahead.saturating_sub(SimDuration::from_nanos(1));
    let end = watermark.saturating_add(span);
    if end > deadline {
        deadline
    } else {
        end
    }
}

impl Simulation {
    /// Runs until `deadline` on `workers` threads, sharding hosts
    /// round-robin across workers. Behaves exactly like
    /// [`Simulation::run_until`]: same event order per host, same
    /// counters, same traces, same fingerprints — at any worker count
    /// (`tests/parsim_equivalence.rs` is the proof).
    ///
    /// Falls back to the sequential engine (recorded in
    /// [`Simulation::parallel_stats`]) when `workers <= 1`, the topology
    /// has fewer than two hosts, or some link has zero latency (no
    /// lookahead to parallelize under).
    pub fn run_parallel_until(&mut self, deadline: SimTime, workers: usize) -> SimTime {
        self.ensure_started();
        let host_count = self.core.net.hosts.len();
        let workers = workers.min(host_count.max(1)).max(1);
        let lookahead = self.cross_lookahead();
        if workers <= 1 || host_count < 2 || lookahead == SimDuration::ZERO {
            self.par_stats.sequential_fallbacks += 1;
            return self.run_until(deadline);
        }
        self.par_stats.parallel_runs += 1;
        self.par_stats.ensure_workers(workers);

        let owner: Arc<Vec<usize>> = Arc::new((0..host_count).map(|h| h % workers).collect());

        // Partition pending events by the worker owning their target host.
        let mut queues: Vec<EventQueue> = (0..workers).map(|_| EventQueue::default()).collect();
        while let Some(event) = self.core.queue.pop() {
            let worker = self
                .core
                .target_host(&event.kind)
                .and_then(|h| owner.get(h.0 as usize).copied())
                .unwrap_or(0);
            queues[worker].push(event);
        }

        let mut txs = Vec::with_capacity(workers);
        let mut rxs = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (tx, rx) = channel();
            txs.push(tx);
            rxs.push(rx);
        }

        let shared = Arc::new(SharedSync {
            barrier: SpinBarrier::new(workers),
            next_time: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            stop: AtomicBool::new(false),
        });

        // Move every host's state and process to its owning worker;
        // non-owned slots get inert placeholders so indices stay global.
        let mut host_slots: Vec<Option<HostState>> = std::mem::take(&mut self.core.net.hosts)
            .into_iter()
            .map(Some)
            .collect();
        let mut proc_slots: Vec<Option<Box<dyn AnyProcess>>> = std::mem::take(&mut self.processes);
        let proc_count = proc_slots.len();

        let mut worker_sims: Vec<SimWorker> = Vec::with_capacity(workers);
        for (w, rx) in rxs.into_iter().enumerate() {
            let hosts: Vec<HostState> = (0..host_count)
                .map(|h| {
                    if owner[h] == w {
                        host_slots[h].take().unwrap_or_else(HostState::placeholder)
                    } else {
                        HostState::placeholder()
                    }
                })
                .collect();
            let procs: Vec<Option<Box<dyn AnyProcess>>> = (0..proc_count)
                .map(|p| {
                    let h = self.core.proc_hosts.get(p).map(|h| h.0 as usize);
                    if h.and_then(|h| owner.get(h).copied()) == Some(w) {
                        proc_slots[p].take()
                    } else {
                        None
                    }
                })
                .collect();
            let core = EngineCore {
                net: NetworkState {
                    hosts,
                    default_link: self.core.net.default_link,
                    link_overrides: self.core.net.link_overrides.clone(),
                },
                now: self.core.now,
                master_seed: self.core.master_seed,
                control_seq: self.core.control_seq,
                queue: std::mem::take(&mut queues[w]),
                counters: HashMap::new(),
                observations: HashMap::new(),
                proc_hosts: self.core.proc_hosts.clone(),
                proc_crashed: self.core.proc_crashed.clone(),
                proc_incarnation: self.core.proc_incarnation.clone(),
                stop_requested: false,
                trace_on: self.core.trace_on,
                cross: Some(CrossLinks {
                    me: w,
                    owner: Arc::clone(&owner),
                    txs: txs.clone(),
                }),
            };
            let sim = Simulation {
                core,
                processes: procs,
                started: true,
                send_buf: Vec::new(),
                par_stats: ParsimStats::default(),
            };
            worker_sims.push(SimWorker {
                sim,
                me: w,
                deadline,
                lookahead,
                inbox: rx,
                shared: Arc::clone(&shared),
            });
        }
        drop(txs);

        let outcomes: Vec<WorkerOutcome> = std::thread::scope(|scope| {
            let handles: Vec<_> = worker_sims
                .into_iter()
                .map(|worker| {
                    let shared = Arc::clone(&shared);
                    scope.spawn(move || {
                        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(
                            || worker.run(),
                        ));
                        match result {
                            Ok(outcome) => outcome,
                            Err(payload) => {
                                // Unblock peers before re-raising, else
                                // they spin on the barrier forever.
                                shared.barrier.poison();
                                std::panic::resume_unwind(payload);
                            }
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().expect("sim worker thread panicked"))
                .collect()
        });

        // Merge everything back into the flat sequential representation.
        let mut host_back: Vec<Option<HostState>> = (0..host_count).map(|_| None).collect();
        let mut procs_back: Vec<Option<Box<dyn AnyProcess>>> =
            (0..proc_count).map(|_| None).collect();
        let mut merged_queue = EventQueue::default();
        let mut last_exec = self.core.now;
        let mut stopped = false;
        let mut rounds: u64 = 0;
        for (w, outcome) in outcomes.into_iter().enumerate() {
            let mut wsim = outcome.sim;
            while let Some(event) = wsim.core.queue.pop() {
                merged_queue.push(event);
            }
            for (h, state) in wsim.core.net.hosts.into_iter().enumerate() {
                if owner.get(h).copied() == Some(w) {
                    host_back[h] = Some(state);
                }
            }
            for (p, slot) in wsim.processes.into_iter().enumerate() {
                if let Some(process) = slot {
                    procs_back[p] = Some(process);
                }
            }
            for (name, value) in wsim.core.counters {
                *self.core.counters.entry(name).or_insert(0) += value;
            }
            for (name, stats) in wsim.core.observations {
                self.core.observations.entry(name).or_default().merge(&stats);
            }
            stopped |= wsim.core.stop_requested;
            if outcome.last_exec > last_exec {
                last_exec = outcome.last_exec;
            }
            rounds = rounds.max(outcome.rounds);
            if let Some(slot) = self.par_stats.worker_events.get_mut(w) {
                *slot += outcome.executed;
            }
            if let Some(slot) = self.par_stats.worker_stalls.get_mut(w) {
                *slot += outcome.stalls;
            }
        }
        self.par_stats.rounds += rounds;
        self.core.net.hosts = host_back
            .into_iter()
            .map(|slot| slot.unwrap_or_else(HostState::placeholder))
            .collect();
        self.processes = procs_back;
        self.core.queue = merged_queue;
        self.core.stop_requested = stopped;

        // Clock semantics mirror `run_until` exactly: advance to the
        // deadline only when no events remain past it.
        self.core.now = last_exec;
        if self.core.now < deadline && !self.core.queue.is_empty() {
            // Events remain (stop request or post-deadline work); the
            // clock stays at the last executed event.
        } else if self.core.now < deadline {
            self.core.now = deadline;
        }
        self.core.now
    }

    /// Parallel counterpart of [`Simulation::run_for`].
    pub fn run_parallel_for(&mut self, span: SimDuration, workers: usize) -> SimTime {
        let deadline = self.core.now.saturating_add(span);
        self.run_parallel_until(deadline, workers)
    }

    /// Parallel counterpart of [`Simulation::run_to_completion`]: runs
    /// on `workers` threads until every queue drains. (An event at
    /// exactly `SimTime::MAX` is indistinguishable from "idle" and never
    /// executes; `MAX` is the engine's far-future sentinel.)
    pub fn run_parallel(&mut self, workers: usize) -> SimTime {
        self.run_parallel_until(SimTime::MAX, workers)
    }

    /// Cumulative statistics from parallel runs of this simulation.
    pub fn parallel_stats(&self) -> &ParsimStats {
        &self.par_stats
    }

    /// The conservative cross-worker lookahead: the minimum link
    /// propagation delay over the default link and every override.
    /// Recomputed per run, so mid-run `set_link` fault injection between
    /// runs keeps the window sound.
    fn cross_lookahead(&self) -> SimDuration {
        let net = &self.core.net;
        let mut lookahead = net.default_link.latency;
        for link in net.link_overrides.values() {
            lookahead = lookahead.min(link.latency);
        }
        lookahead
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::NicConfig;
    use crate::process::{Context, Packet, Process, ProcessId};

    /// Sends `count` packets to `dst` at start, 10 ms apart via timers.
    struct Pinger {
        dst: ProcessId,
        count: u64,
        sent: u64,
    }

    impl Process for Pinger {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.set_timer(SimDuration::from_millis(10), 0);
        }
        fn on_packet(&mut self, _ctx: &mut Context<'_>, _p: Packet) {}
        fn on_timer(&mut self, ctx: &mut Context<'_>, _token: u64) {
            if self.sent < self.count {
                self.sent += 1;
                ctx.send(self.dst, self.sent, 200);
                ctx.set_timer(SimDuration::from_millis(10), 0);
            }
        }
    }

    /// Echoes every packet back to its sender.
    struct Echo;

    impl Process for Echo {
        fn on_packet(&mut self, ctx: &mut Context<'_>, packet: Packet) {
            let value = packet.payload::<u64>().copied().unwrap_or(0);
            ctx.send(packet.src, value, 100);
            ctx.count("echoed", 1);
        }
    }

    fn build(seed: u64) -> Simulation {
        let mut sim = Simulation::new(seed);
        let mut procs = Vec::new();
        for i in 0..4 {
            let host = sim.add_host(&format!("h{i}"), NicConfig::default());
            procs.push((host, i));
        }
        let echo_host = procs[0].0;
        let echo = sim.add_typed_process(echo_host, Echo);
        for &(host, _) in &procs[1..] {
            sim.add_typed_process(
                host,
                Pinger {
                    dst: echo,
                    count: 20,
                    sent: 0,
                },
            );
        }
        sim.set_trace_enabled(true);
        sim
    }

    #[test]
    fn parallel_matches_sequential_simple_topology() {
        let mut seq = build(11);
        seq.run_until(SimTime::from_secs(1));
        let mut par = build(11);
        par.run_parallel_until(SimTime::from_secs(1), 4);
        assert_eq!(par.now(), seq.now());
        assert_eq!(par.counter("echoed"), seq.counter("echoed"));
        assert_eq!(par.counter("net.delivered"), seq.counter("net.delivered"));
        assert_eq!(par.trace_fingerprint(), seq.trace_fingerprint());
        assert_eq!(par.take_traces(), seq.take_traces());
        assert!(par.parallel_stats().parallel_runs >= 1);
    }

    #[test]
    fn one_worker_falls_back_to_sequential() {
        let mut sim = build(3);
        sim.run_parallel_until(SimTime::from_millis(50), 1);
        assert_eq!(sim.parallel_stats().sequential_fallbacks, 1);
        assert_eq!(sim.parallel_stats().parallel_runs, 0);
    }

    #[test]
    fn zero_latency_link_falls_back_to_sequential() {
        let mut sim = build(3);
        sim.set_default_latency(SimDuration::ZERO);
        sim.run_parallel_until(SimTime::from_millis(50), 4);
        assert_eq!(sim.parallel_stats().sequential_fallbacks, 1);
    }

    #[test]
    fn repeated_parallel_runs_resume_consistently() {
        let mut seq = build(9);
        let mut par = build(9);
        for ms in [100u64, 250, 400, 1000] {
            seq.run_until(SimTime::from_millis(ms));
            par.run_parallel_until(SimTime::from_millis(ms), 3);
            assert_eq!(par.now(), seq.now(), "clocks agree at {ms} ms");
        }
        assert_eq!(par.trace_fingerprint(), seq.trace_fingerprint());
        assert_eq!(par.take_traces(), seq.take_traces());
    }

    #[test]
    fn window_limit_saturates_at_far_future() {
        let limit = window_limit(
            SimTime::MAX,
            SimDuration::from_micros(200),
            SimTime::MAX,
        );
        assert_eq!(limit, SimTime::MAX);
        let capped = window_limit(
            SimTime::from_nanos(u64::MAX - 10),
            SimDuration::from_secs(5),
            SimTime::MAX,
        );
        assert_eq!(capped, SimTime::MAX);
    }
}
