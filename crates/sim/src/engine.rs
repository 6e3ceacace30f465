//! The discrete-event engine: event queue, CPU gating, NIC serialization.
//!
//! Events are totally ordered by a deterministic `(time, origin, seq)`
//! key ([`EventKey`]): `origin` names the host whose execution produced
//! the event (0 for control pushes — process registration and restarts —
//! which happen identically in every run), and `seq` is that origin's
//! private push counter. A host's pushes happen only while its own
//! events execute, so a key depends on what its origin did and never on
//! the order in which events of *other* hosts at the same instant were
//! dispatched — the keys, and therefore the entire run, are a function
//! of the seed and the registered processes alone.

use std::any::Any;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

use mmcs_util::rng::DetRng;
use mmcs_util::stats::OnlineStats;
use mmcs_util::time::{SimDuration, SimTime};

use crate::net::{HostId, LinkConfig, NetworkState, NicConfig};
use crate::process::{Context, Packet, Process, ProcessId};
use crate::queue::EventQueue;

/// A packet send requested during a callback, not yet routed.
pub(crate) struct PendingSend {
    pub src: ProcessId,
    pub dst: ProcessId,
    pub wire_bytes: usize,
    pub at: SimTime,
    pub payload: Arc<dyn Any + Send + Sync>,
}

/// An event body; deferred ones sit in a host's pending queue while its
/// CPU is busy.
#[derive(Debug)]
pub(crate) enum EventKind {
    Start(ProcessId),
    Deliver(Packet),
    /// A timer stamped with the incarnation of the process that armed
    /// it: timers armed before a crash never fire after the restart.
    Timer(ProcessId, u64, u64),
    /// Re-initialize a process after [`Simulation::restart_process`].
    Restart(ProcessId),
    /// Pop and run the next pending event on a host.
    Drain(HostId),
}

/// Alias used by the network module for the per-host pending queue.
pub(crate) type DeferredEvent = EventKind;

/// The deterministic total-order key for events.
///
/// `origin` is 0 for control pushes (start-of-simulation and restarts,
/// which are issued by the harness in a fixed order) and `host id + 1`
/// for events produced while that host executed. `seq` is the origin's
/// private push counter. Two events never share a key, and the key a
/// given event receives depends only on its origin's own execution —
/// the backbone of run-to-run determinism.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct EventKey {
    pub at: SimTime,
    pub origin: u64,
    pub seq: u64,
}

pub(crate) struct Event {
    pub key: EventKey,
    pub kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the smallest key pops first.
        other.key.cmp(&self.key)
    }
}

/// Execution-trace record tags. Each trace record is
/// [`TRACE_WORDS`] consecutive `u64`s:
/// `(time ns, process id, tag, a, b, c)`.
pub(crate) const TRACE_START: u64 = 0;
pub(crate) const TRACE_TIMER: u64 = 1;
pub(crate) const TRACE_RESTART: u64 = 2;
pub(crate) const TRACE_DELIVER: u64 = 3;
/// Words per trace record.
pub const TRACE_WORDS: usize = 6;

/// A counter name resolved once, through
/// [`Context::counter_id`](crate::Context::counter_id): bumping it with
/// [`Context::bump`](crate::Context::bump) costs one vector index where
/// bumping by name costs a string hash and compare. Valid only in the
/// simulation that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(u32);

const NET_DELIVERED: CounterId = CounterId(0);
const NET_NOROUTE: CounterId = CounterId(1);
const NET_QUEUE: CounterId = CounterId(2);
const NET_LINKDOWN: CounterId = CounterId(3);
const NET_LOSS: CounterId = CounterId(4);
const NET_DUPLICATED: CounterId = CounterId(5);
const NET_CRASHED: CounterId = CounterId(6);
const EVENT_CRASHED: CounterId = CounterId(7);
const TIMER_STALE: CounterId = CounterId(8);
const CRASHES: CounterId = CounterId(9);
const RESTARTS: CounterId = CounterId(10);

/// The counters the engine bumps itself, interned first and in this
/// order so that each one's id is the constant beside it.
const ENGINE_COUNTERS: [(&str, CounterId); 11] = [
    ("net.delivered", NET_DELIVERED),
    ("net.dropped.noroute", NET_NOROUTE),
    ("net.dropped.queue", NET_QUEUE),
    ("net.dropped.linkdown", NET_LINKDOWN),
    ("net.dropped.loss", NET_LOSS),
    ("net.duplicated", NET_DUPLICATED),
    ("net.dropped.crashed", NET_CRASHED),
    ("sim.event.crashed", EVENT_CRASHED),
    ("sim.timer.stale", TIMER_STALE),
    ("sim.crashes", CRASHES),
    ("sim.restarts", RESTARTS),
];

/// Every named counter and observation of a run. A name is interned once
/// and its id indexes `counts` and `stats`; names are read only when
/// reporting. A slot stays `None` — absent from every report — until its
/// first bump (even a zero one) or observation, so resolving an id has no
/// visible effect.
#[derive(Default)]
pub(crate) struct MetricTable {
    ids: HashMap<String, CounterId>,
    counts: Vec<Option<u64>>,
    stats: Vec<Option<OnlineStats>>,
}

impl MetricTable {
    fn with_engine_counters() -> Self {
        let mut table = Self::default();
        for (name, id) in ENGINE_COUNTERS {
            let interned = table.intern(name);
            debug_assert_eq!(interned, id, "engine counters intern in declaration order");
        }
        table
    }

    pub(crate) fn intern(&mut self, name: &str) -> CounterId {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = CounterId(self.counts.len() as u32);
        self.ids.insert(name.to_owned(), id);
        self.counts.push(None);
        self.stats.push(None);
        id
    }

    pub(crate) fn bump(&mut self, id: CounterId, delta: u64) {
        if let Some(slot) = self.counts.get_mut(id.0 as usize) {
            *slot.get_or_insert(0) += delta;
        }
    }

    fn observe(&mut self, id: CounterId, value: f64) {
        if let Some(slot) = self.stats.get_mut(id.0 as usize) {
            slot.get_or_insert_with(OnlineStats::default).record(value);
        }
    }

    fn count_of(&self, id: CounterId) -> Option<u64> {
        self.counts.get(id.0 as usize).copied().flatten()
    }

    fn counter(&self, name: &str) -> u64 {
        self.ids.get(name).and_then(|&id| self.count_of(id)).unwrap_or(0)
    }

    fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.ids
            .iter()
            .filter_map(|(name, &id)| Some((name.as_str(), self.count_of(id)?)))
    }

    fn stat(&self, name: &str) -> Option<&OnlineStats> {
        let id = self.ids.get(name)?;
        self.stats.get(id.0 as usize)?.as_ref()
    }
}

/// Engine state shared with [`Context`]: network, clock, metrics.
pub struct EngineCore {
    pub(crate) net: NetworkState,
    pub(crate) now: SimTime,
    /// Master seed; per-host RNG streams derive from it.
    pub(crate) master_seed: u64,
    /// Push counter for control-origin events (origin 0).
    pub(crate) control_seq: u64,
    pub(crate) queue: EventQueue,
    pub(crate) metrics: MetricTable,
    pub(crate) proc_hosts: Vec<HostId>,
    /// Whether each process is currently crashed (deliveries dropped).
    pub(crate) proc_crashed: Vec<bool>,
    /// Bumped on every crash; timers armed under an older incarnation
    /// are discarded when they fire.
    pub(crate) proc_incarnation: Vec<u64>,
    pub(crate) stop_requested: bool,
    /// Whether dispatches append to the per-host execution traces.
    pub(crate) trace_on: bool,
}

impl EngineCore {
    /// Pushes a control-origin event (registration order / restarts).
    pub(crate) fn push_control(&mut self, at: SimTime, kind: EventKind) {
        self.control_seq += 1;
        let key = EventKey {
            at,
            origin: 0,
            seq: self.control_seq,
        };
        self.queue.push(Event { key, kind });
    }

    /// Pushes an event attributed to `origin`, minting its key from that
    /// host's push counter.
    pub(crate) fn push_from(&mut self, origin: HostId, at: SimTime, kind: EventKind) {
        let host = self.net.host_mut(origin);
        host.push_seq += 1;
        let key = EventKey {
            at,
            origin: origin.0 + 1,
            seq: host.push_seq,
        };
        self.queue.push(Event { key, kind });
    }

    pub(crate) fn schedule_timer(
        &mut self,
        process: ProcessId,
        origin: HostId,
        at: SimTime,
        token: u64,
    ) {
        let incarnation = self
            .proc_incarnation
            .get(process.0.saturating_sub(1) as usize)
            .copied()
            .unwrap_or(0);
        self.push_from(origin, at, EventKind::Timer(process, token, incarnation));
    }

    pub(crate) fn host_of(&self, process: ProcessId) -> Option<HostId> {
        let idx = process.0.checked_sub(1)? as usize;
        self.proc_hosts.get(idx).copied()
    }

    /// The named host's private deterministic RNG stream.
    pub(crate) fn host_rng(&mut self, host: HostId) -> &mut DetRng {
        &mut self.net.host_mut(host).rng
    }

    /// Bumps a counter by name: the cold-path form of
    /// [`MetricTable::bump`], interning the name on first use.
    pub(crate) fn count(&mut self, name: &str, delta: u64) {
        let id = self.metrics.intern(name);
        self.metrics.bump(id, delta);
    }

    pub(crate) fn observe(&mut self, name: &str, value: f64) {
        let id = self.metrics.intern(name);
        self.metrics.observe(id, value);
    }

    pub(crate) fn request_stop(&mut self) {
        self.stop_requested = true;
    }

    /// Routes one send through loopback or the NIC + link model.
    ///
    /// All probabilistic draws (loss, duplication, jitter) come from the
    /// *sending* host's private RNG stream, so they depend only on that
    /// host's own execution order.
    fn route(&mut self, send: PendingSend) {
        let Some(src_host) = self.host_of(send.src) else {
            self.metrics.bump(NET_NOROUTE, 1);
            return;
        };
        let Some(dst_host) = self.host_of(send.dst) else {
            self.metrics.bump(NET_NOROUTE, 1);
            return;
        };

        let packet = Packet::new(send.src, send.dst, send.wire_bytes, send.at, send.payload);

        if src_host == dst_host {
            let latency = self.net.host(src_host).nic.loopback_latency;
            let at = send.at.saturating_add(latency);
            self.push_from(src_host, at, EventKind::Deliver(packet));
            return;
        }

        // Egress NIC: serialization behind the current backlog, drop-tail
        // when the backlog exceeds the queue limit.
        let nic: NicConfig = self.net.host(src_host).nic;
        let nic_free_at = self.net.host(src_host).nic_free_at;
        let backlog = nic
            .bandwidth
            .bytes_in(nic_free_at.saturating_duration_since(send.at));
        if backlog + send.wire_bytes as u64 > nic.queue_bytes {
            self.metrics.bump(NET_QUEUE, 1);
            return;
        }
        let start = if nic_free_at > send.at {
            nic_free_at
        } else {
            send.at
        };
        let tx_done = start.saturating_add(nic.bandwidth.transmit_time(send.wire_bytes));
        self.net.host_mut(src_host).nic_free_at = tx_done;

        let link: LinkConfig = self.net.link(src_host, dst_host);
        if link.down {
            self.metrics.bump(NET_LINKDOWN, 1);
            return;
        }
        if link.loss > 0.0 && self.host_rng(src_host).chance(link.loss) {
            self.metrics.bump(NET_LOSS, 1);
            return;
        }
        // Network-level duplication delivers a second, independently
        // jittered copy; the duplicate costs no extra NIC time (it is
        // created inside the network, not at the sender).
        if link.duplicate > 0.0 && self.host_rng(src_host).chance(link.duplicate) {
            self.metrics.bump(NET_DUPLICATED, 1);
            let at = self.jittered_arrival(src_host, tx_done, &link);
            self.push_from(src_host, at, EventKind::Deliver(packet.clone()));
        }
        let at = self.jittered_arrival(src_host, tx_done, &link);
        self.push_from(src_host, at, EventKind::Deliver(packet));
    }

    /// Arrival time of one copy leaving the NIC at `tx_done`: link
    /// latency plus this copy's own jitter draw.
    fn jittered_arrival(&mut self, src_host: HostId, tx_done: SimTime, link: &LinkConfig) -> SimTime {
        let extra = if link.jitter > SimDuration::ZERO {
            let bound = link.jitter.as_nanos().saturating_add(1);
            SimDuration::from_nanos(self.host_rng(src_host).range_u64(0, bound))
        } else {
            SimDuration::ZERO
        };
        tx_done.saturating_add(link.latency).saturating_add(extra)
    }
}

/// Trait-object adapter so process state can be inspected after a run.
///
/// `Send` is a supertrait so that a whole [`Simulation`] is `Send`: the
/// benchmark and the frontier tests build and run theirs on spawned
/// threads.
trait AnyProcess: Process + Send {
    fn as_any(&self) -> &dyn Any;
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<T: Process + Send + 'static> AnyProcess for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A deterministic discrete-event simulation.
///
/// See the [crate documentation](crate) for the model and an example.
pub struct Simulation {
    core: EngineCore,
    processes: Vec<Option<Box<dyn AnyProcess>>>,
    started: bool,
    /// The buffer lent to each callback's [`Context`] for its sends, so
    /// a 400-way fan-out grows it once per run, not once per publish.
    send_buf: Vec<PendingSend>,
}

impl Simulation {
    /// Creates an empty simulation seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            core: EngineCore {
                net: NetworkState::default(),
                now: SimTime::ZERO,
                master_seed: seed,
                control_seq: 0,
                queue: EventQueue::default(),
                metrics: MetricTable::with_engine_counters(),
                proc_hosts: Vec::new(),
                proc_crashed: Vec::new(),
                proc_incarnation: Vec::new(),
                stop_requested: false,
                trace_on: false,
            },
            processes: Vec::new(),
            started: false,
            send_buf: Vec::new(),
        }
    }

    /// Adds a host (machine) with the given NIC configuration.
    pub fn add_host(&mut self, name: &str, nic: NicConfig) -> HostId {
        let master_seed = self.core.master_seed;
        self.core.net.add_host(name, nic, master_seed)
    }

    /// Registers a process on `host`. Ids are sequential starting at 1.
    ///
    /// Processes must be `Send` so that the simulation itself is: callers
    /// build and run one on a spawned thread.
    ///
    /// # Panics
    ///
    /// Panics if the simulation has already started running or if `host`
    /// does not exist.
    pub fn add_process(
        &mut self,
        host: HostId,
        process: Box<dyn Process + Send + 'static>,
    ) -> ProcessId {
        assert!(
            !self.started,
            "processes must be registered before the simulation runs"
        );
        assert!(
            (host.0 as usize) < self.core.net.hosts.len(),
            "unknown host {host}"
        );
        // Re-box through a concrete wrapper is unnecessary: Box<dyn Process>
        // does not implement Process itself, so wrap it.
        struct BoxedProcess(Box<dyn Process + Send>);
        impl Process for BoxedProcess {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                self.0.on_start(ctx);
            }
            fn on_packet(&mut self, ctx: &mut Context<'_>, packet: Packet) {
                self.0.on_packet(ctx, packet);
            }
            fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
                self.0.on_timer(ctx, token);
            }
            fn on_restart(&mut self, ctx: &mut Context<'_>) {
                self.0.on_restart(ctx);
            }
        }
        let id = ProcessId(self.processes.len() as u64 + 1);
        self.processes.push(Some(Box::new(BoxedProcess(process))));
        self.core.proc_hosts.push(host);
        self.core.proc_crashed.push(false);
        self.core.proc_incarnation.push(0);
        id
    }

    /// Registers a concrete process so it can be inspected later with
    /// [`Simulation::process_ref`].
    ///
    /// # Panics
    ///
    /// Same conditions as [`Simulation::add_process`].
    pub fn add_typed_process<T: Process + Send + 'static>(
        &mut self,
        host: HostId,
        process: T,
    ) -> ProcessId {
        assert!(
            !self.started,
            "processes must be registered before the simulation runs"
        );
        assert!(
            (host.0 as usize) < self.core.net.hosts.len(),
            "unknown host {host}"
        );
        let id = ProcessId(self.processes.len() as u64 + 1);
        self.processes.push(Some(Box::new(process)));
        self.core.proc_hosts.push(host);
        self.core.proc_crashed.push(false);
        self.core.proc_incarnation.push(0);
        id
    }

    /// Sets the default one-way latency between distinct hosts.
    pub fn set_default_latency(&mut self, latency: SimDuration) {
        self.core.net.default_link.latency = latency;
    }

    /// Sets the default link configuration between distinct hosts.
    pub fn set_default_link(&mut self, link: LinkConfig) {
        self.core.net.default_link = link;
    }

    /// Overrides the link between a specific pair of hosts (symmetric).
    ///
    /// May be called mid-run (between [`Simulation::step`] /
    /// [`Simulation::run_until`] calls) — this is the fault-injection
    /// hook chaos harnesses use to partition, degrade, and heal links.
    pub fn set_link(&mut self, a: HostId, b: HostId, link: LinkConfig) {
        self.core.net.set_link(a, b, link);
    }

    /// The effective link configuration between two hosts right now.
    pub fn link_config(&self, a: HostId, b: HostId) -> LinkConfig {
        self.core.net.link(a, b)
    }

    /// Crashes a process: until [`Simulation::restart_process`], every
    /// packet addressed to it is dropped (counted as
    /// `net.dropped.crashed`) and its armed timers are permanently
    /// invalidated (a restart begins a new incarnation). The process's
    /// in-memory state is retained; what state survives the crash is the
    /// process's own `on_restart` policy. Idempotent.
    pub fn crash_process(&mut self, process: ProcessId) {
        let Some(idx) = process.0.checked_sub(1).map(|i| i as usize) else {
            return;
        };
        if idx >= self.core.proc_crashed.len() || self.core.proc_crashed[idx] {
            return;
        }
        self.core.proc_crashed[idx] = true;
        self.core.proc_incarnation[idx] += 1;
        self.core.metrics.bump(CRASHES, 1);
    }

    /// Restarts a crashed process: deliveries resume and
    /// [`Process::on_restart`] runs (at the current virtual time) so the
    /// process can re-initialize and re-arm its timers. No-op if the
    /// process is not crashed.
    pub fn restart_process(&mut self, process: ProcessId) {
        let Some(idx) = process.0.checked_sub(1).map(|i| i as usize) else {
            return;
        };
        if idx >= self.core.proc_crashed.len() || !self.core.proc_crashed[idx] {
            return;
        }
        self.core.proc_crashed[idx] = false;
        self.core.metrics.bump(RESTARTS, 1);
        let now = self.core.now;
        self.core.push_control(now, EventKind::Restart(process));
    }

    /// Whether a process is currently crashed.
    pub fn is_crashed(&self, process: ProcessId) -> bool {
        process
            .0
            .checked_sub(1)
            .and_then(|i| self.core.proc_crashed.get(i as usize).copied())
            .unwrap_or(false)
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// The label a host was registered with.
    ///
    /// # Panics
    ///
    /// Panics if `host` is unknown.
    pub fn host_name(&self, host: crate::net::HostId) -> &str {
        &self.core.net.host(host).name
    }

    /// Reads a metric counter (0 if never bumped).
    pub fn counter(&self, name: &str) -> u64 {
        self.core.metrics.counter(name)
    }

    /// All counters bumped at least once, in no particular order, for
    /// reporting.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.core.metrics.counters()
    }

    /// Reads an observation accumulator recorded via
    /// [`Context::observe`](crate::Context::observe).
    pub fn stat(&self, name: &str) -> Option<&OnlineStats> {
        self.core.metrics.stat(name)
    }

    /// Enables recording a per-host execution trace: every dispatched
    /// event appends a fixed-width record ([`TRACE_WORDS`] `u64`s) to its
    /// host's trace. Traces are the strongest equivalence witness the
    /// engine offers — identical traces mean identical event sequences
    /// per host, which two runs of one seed must reproduce exactly.
    pub fn set_trace_enabled(&mut self, on: bool) {
        self.core.trace_on = on;
    }

    /// Drains and returns the per-host execution traces, indexed by host.
    pub fn take_traces(&mut self) -> Vec<Vec<u64>> {
        self.core
            .net
            .hosts
            .iter_mut()
            .map(|h| std::mem::take(&mut h.trace))
            .collect()
    }

    /// FNV-1a fingerprint over every host's execution trace, in host
    /// order. Equal fingerprints (with tracing enabled for the whole
    /// run) certify byte-identical per-host event sequences.
    pub fn trace_fingerprint(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |value: u64| {
            for byte in value.to_be_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for (idx, host) in self.core.net.hosts.iter().enumerate() {
            eat(idx as u64);
            eat(host.trace.len() as u64);
            for &word in &host.trace {
                eat(word);
            }
        }
        hash
    }

    /// Borrows a process's state, downcast to its concrete type.
    ///
    /// Only processes registered with [`Simulation::add_typed_process`]
    /// preserve their concrete type.
    pub fn process_ref<T: 'static>(&self, id: ProcessId) -> Option<&T> {
        self.processes
            .get(id.0.checked_sub(1)? as usize)?
            .as_deref()?
            .as_any()
            .downcast_ref::<T>()
    }

    /// Mutably borrows a process's state, downcast to its concrete type.
    pub fn process_mut<T: 'static>(&mut self, id: ProcessId) -> Option<&mut T> {
        self.processes
            .get_mut(id.0.checked_sub(1)? as usize)?
            .as_deref_mut()?
            .as_any_mut()
            .downcast_mut::<T>()
    }

    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.processes.len() {
            let pid = ProcessId(i as u64 + 1);
            self.core.push_control(SimTime::ZERO, EventKind::Start(pid));
        }
    }

    /// Executes the next event. Returns `false` when the queue is empty or
    /// a process requested a stop.
    pub fn step(&mut self) -> bool {
        self.ensure_started();
        if self.core.stop_requested {
            return false;
        }
        let Some(event) = self.core.queue.pop() else {
            return false;
        };
        debug_assert!(event.key.at >= self.core.now, "time ran backwards");
        self.core.now = event.key.at;
        let now = event.key.at;

        let kind = match event.kind {
            EventKind::Drain(host) => {
                let host_state = self.core.net.host_mut(host);
                host_state.drain_scheduled = false;
                let Some(kind) = host_state.pending.pop_front() else {
                    return true;
                };
                self.dispatch(kind, now);
                self.schedule_drain_for(host, now);
                return true;
            }
            other => other,
        };

        let pid = match &kind {
            EventKind::Start(p) => *p,
            EventKind::Timer(p, _, _) => *p,
            EventKind::Restart(p) => *p,
            EventKind::Deliver(pkt) => pkt.dst,
            EventKind::Drain(_) => {
                // Consumed by the match above; stated as an assert so
                // the dispatch path carries no reachable panic.
                debug_assert!(false, "Drain is handled before pid extraction");
                return true;
            }
        };
        let Some(host) = self.core.host_of(pid) else {
            // Destination process never existed; count and move on.
            self.core.metrics.bump(NET_NOROUTE, 1);
            return true;
        };

        // CPU gating: if the host CPU is busy (or older work is already
        // queued behind it), the event joins the host's FIFO backlog.
        let host_state = self.core.net.host_mut(host);
        if host_state.cpu_free_at > now || !host_state.pending.is_empty() {
            let resume_at = if host_state.cpu_free_at > now {
                host_state.cpu_free_at
            } else {
                now
            };
            host_state.pending.push_back(kind);
            if !host_state.drain_scheduled {
                host_state.drain_scheduled = true;
                self.core.push_from(host, resume_at, EventKind::Drain(host));
            }
            return true;
        }

        self.dispatch(kind, now);
        self.schedule_drain_for(host, now);
        true
    }

    /// Runs one event body to completion at `now`.
    fn dispatch(&mut self, kind: EventKind, now: SimTime) {
        let (pid, is_delivery) = match &kind {
            EventKind::Start(p) => (*p, false),
            EventKind::Timer(p, _, _) => (*p, false),
            EventKind::Restart(p) => (*p, false),
            EventKind::Deliver(pkt) => (pkt.dst, true),
            EventKind::Drain(_) => return,
        };
        let Some(host) = self.core.host_of(pid) else {
            self.core.metrics.bump(NET_NOROUTE, 1);
            return;
        };
        if self.core.trace_on {
            let record: [u64; TRACE_WORDS] = match &kind {
                EventKind::Start(p) => [now.as_nanos(), p.0, TRACE_START, 0, 0, 0],
                EventKind::Timer(p, token, inc) => {
                    [now.as_nanos(), p.0, TRACE_TIMER, *token, *inc, 0]
                }
                EventKind::Restart(p) => [now.as_nanos(), p.0, TRACE_RESTART, 0, 0, 0],
                EventKind::Deliver(pkt) => [
                    now.as_nanos(),
                    pkt.dst.0,
                    TRACE_DELIVER,
                    pkt.src.0,
                    pkt.sent_at.as_nanos(),
                    pkt.wire_bytes as u64,
                ],
                EventKind::Drain(_) => return,
            };
            self.core.net.host_mut(host).trace.extend_from_slice(&record);
        }
        let Some(idx) = pid.0.checked_sub(1).map(|i| i as usize) else {
            return;
        };
        if self.core.proc_crashed.get(idx).copied().unwrap_or(false) {
            // A dead process neither receives nor computes; what was in
            // flight toward it is lost.
            match kind {
                EventKind::Deliver(_) => self.core.metrics.bump(NET_CRASHED, 1),
                _ => self.core.metrics.bump(EVENT_CRASHED, 1),
            }
            return;
        }
        if let EventKind::Timer(_, _, incarnation) = &kind {
            let current = self.core.proc_incarnation.get(idx).copied().unwrap_or(0);
            if *incarnation != current {
                // Armed by a previous incarnation; the crash killed it.
                self.core.metrics.bump(TIMER_STALE, 1);
                return;
            }
        }
        let Some(mut process) = self.processes.get_mut(idx).and_then(Option::take) else {
            return;
        };

        let mut ctx = Context {
            core: &mut self.core,
            me: pid,
            host,
            started_at: now,
            elapsed: SimDuration::ZERO,
            sends: std::mem::take(&mut self.send_buf),
        };
        match kind {
            EventKind::Start(_) => process.on_start(&mut ctx),
            EventKind::Timer(_, token, _) => process.on_timer(&mut ctx, token),
            EventKind::Restart(_) => process.on_restart(&mut ctx),
            EventKind::Deliver(packet) => {
                ctx.core.metrics.bump(NET_DELIVERED, 1);
                process.on_packet(&mut ctx, packet);
            }
            EventKind::Drain(_) => {}
        }
        let elapsed = ctx.elapsed;
        let mut sends = std::mem::take(&mut ctx.sends);
        drop(ctx);
        if let Some(slot) = self.processes.get_mut(idx) {
            *slot = Some(process);
        }

        if is_delivery || elapsed > SimDuration::ZERO {
            let busy_until = now.saturating_add(elapsed);
            let host_state = self.core.net.host_mut(host);
            if busy_until > host_state.cpu_free_at {
                host_state.cpu_free_at = busy_until;
            }
        }
        for send in sends.drain(..) {
            self.core.route(send);
        }
        self.send_buf = sends;
    }

    /// After a dispatch on `host`, arms its drain timer if work is still
    /// pending (each drain event processes exactly one deferred event, so
    /// a backlog of K drains in K events instead of K^2 heap churn).
    fn schedule_drain_for(&mut self, host: HostId, now: SimTime) {
        let host_state = self.core.net.host_mut(host);
        if !host_state.pending.is_empty() && !host_state.drain_scheduled {
            host_state.drain_scheduled = true;
            let at = if host_state.cpu_free_at > now {
                host_state.cpu_free_at
            } else {
                now
            };
            self.core.push_from(host, at, EventKind::Drain(host));
        }
    }

    /// Runs until the event queue drains, a stop is requested, or virtual
    /// time would pass `deadline`. Returns the reached time.
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime {
        self.ensure_started();
        loop {
            match self.core.queue.peek_key() {
                Some(key) if key.at <= deadline => {
                    if !self.step() {
                        break;
                    }
                }
                _ => break,
            }
        }
        if self.core.now < deadline && !self.core.queue.is_empty() {
            // Stopped early by request; clock stays where it was.
        } else if self.core.now < deadline {
            self.core.now = deadline;
        }
        self.core.now
    }

    /// Runs for `span` of virtual time from the current instant
    /// (saturating at the far future).
    pub fn run_for(&mut self, span: SimDuration) -> SimTime {
        let deadline = self.core.now.saturating_add(span);
        self.run_until(deadline)
    }

    /// Runs until the event queue is exhausted or a stop is requested.
    pub fn run_to_completion(&mut self) -> SimTime {
        self.ensure_started();
        while self.step() {}
        self.core.now
    }
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.core.now)
            .field("hosts", &self.core.net.hosts.len())
            .field("processes", &self.processes.len())
            .field("pending_events", &self.core.queue.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmcs_util::rate::Bandwidth;

    /// Sends `count` packets of `bytes` each to `dst` at start.
    struct Blaster {
        dst: ProcessId,
        count: usize,
        bytes: usize,
    }

    impl Process for Blaster {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            for i in 0..self.count {
                ctx.send(self.dst, i as u64, self.bytes);
            }
        }
        fn on_packet(&mut self, _ctx: &mut Context<'_>, _packet: Packet) {}
    }

    /// Records arrival times and per-packet CPU cost.
    #[derive(Default)]
    struct Sink {
        arrivals: Vec<SimTime>,
        cpu_cost: SimDuration,
    }

    impl Process for Sink {
        fn on_packet(&mut self, ctx: &mut Context<'_>, _packet: Packet) {
            ctx.spend_cpu(self.cpu_cost);
            self.arrivals.push(ctx.now());
        }
    }

    fn two_host_sim(bandwidth: Bandwidth) -> (Simulation, HostId, HostId) {
        let mut sim = Simulation::new(42);
        let a = sim.add_host(
            "a",
            NicConfig {
                bandwidth,
                ..NicConfig::default()
            },
        );
        let b = sim.add_host("b", NicConfig::default());
        (sim, a, b)
    }

    #[test]
    fn nic_serialization_spaces_out_packets() {
        // 1 Mbps NIC, 1250-byte packets -> 10 ms serialization each.
        let (mut sim, a, b) = two_host_sim(Bandwidth::from_mbps(1));
        sim.set_default_latency(SimDuration::from_millis(1));
        let sink = sim.add_typed_process(b, Sink::default());
        sim.add_process(
            a,
            Box::new(Blaster {
                dst: sink,
                count: 3,
                bytes: 1250,
            }),
        );
        sim.run_until(SimTime::from_secs(1));
        let sink_state: &Sink = sim.process_ref(sink).unwrap();
        let at: Vec<u64> = sink_state.arrivals.iter().map(|t| t.as_millis()).collect();
        // Arrivals at 11, 21, 31 ms (serialization 10 ms each + 1 ms latency).
        assert_eq!(at, vec![11, 21, 31]);
    }

    #[test]
    fn queue_limit_drops_excess() {
        let (mut sim, a, b) = two_host_sim(Bandwidth::from_mbps(1));
        // Queue only fits 2 packets' worth of backlog.
        {
            let host = sim.core.net.host_mut(a);
            host.nic.queue_bytes = 2600;
        }
        let sink = sim.add_typed_process(b, Sink::default());
        sim.add_process(
            a,
            Box::new(Blaster {
                dst: sink,
                count: 10,
                bytes: 1250,
            }),
        );
        sim.run_until(SimTime::from_secs(1));
        assert!(sim.counter("net.dropped.queue") > 0);
        let delivered = sim.counter("net.delivered");
        assert!(delivered < 10);
        assert_eq!(delivered + sim.counter("net.dropped.queue"), 10);
    }

    #[test]
    fn link_loss_drops_probabilistically() {
        let (mut sim, a, b) = two_host_sim(Bandwidth::from_gbps(1));
        sim.set_link(
            a,
            b,
            LinkConfig {
                latency: SimDuration::from_micros(100),
                loss: 0.5,
                ..LinkConfig::default()
            },
        );
        let sink = sim.add_typed_process(b, Sink::default());
        sim.add_process(
            a,
            Box::new(Blaster {
                dst: sink,
                count: 1000,
                bytes: 100,
            }),
        );
        sim.run_until(SimTime::from_secs(5));
        let lost = sim.counter("net.dropped.loss");
        assert!((300..700).contains(&lost), "lost={lost}");
        assert_eq!(lost + sim.counter("net.delivered"), 1000);
    }

    #[test]
    fn cpu_cost_serializes_handling_on_one_host() {
        // Two sinks on one host, each spending 10 ms per packet: the
        // second delivery must wait for the first handler to finish.
        let mut sim = Simulation::new(7);
        let a = sim.add_host("a", NicConfig::default());
        let b = sim.add_host("b", NicConfig::default());
        sim.set_default_latency(SimDuration::from_micros(100));
        let s1 = sim.add_typed_process(
            b,
            Sink {
                arrivals: Vec::new(),
                cpu_cost: SimDuration::from_millis(10),
            },
        );
        let s2 = sim.add_typed_process(
            b,
            Sink {
                arrivals: Vec::new(),
                cpu_cost: SimDuration::from_millis(10),
            },
        );
        struct DualSend(ProcessId, ProcessId);
        impl Process for DualSend {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.send(self.0, (), 100);
                ctx.send(self.1, (), 100);
            }
            fn on_packet(&mut self, _ctx: &mut Context<'_>, _p: Packet) {}
        }
        sim.add_process(a, Box::new(DualSend(s1, s2)));
        sim.run_until(SimTime::from_secs(1));
        let t1 = sim.process_ref::<Sink>(s1).unwrap().arrivals[0];
        let t2 = sim.process_ref::<Sink>(s2).unwrap().arrivals[0];
        // Handler 2 starts only after handler 1's 10 ms of CPU.
        assert!(t2.saturating_duration_since(t1) >= SimDuration::from_millis(9));
    }

    #[test]
    fn loopback_bypasses_nic() {
        // Tiny NIC bandwidth, but same-host traffic must still be fast.
        let mut sim = Simulation::new(1);
        let a = sim.add_host(
            "a",
            NicConfig {
                bandwidth: Bandwidth::from_kbps(1),
                ..NicConfig::default()
            },
        );
        let sink = sim.add_typed_process(a, Sink::default());
        sim.add_process(
            a,
            Box::new(Blaster {
                dst: sink,
                count: 5,
                bytes: 10_000,
            }),
        );
        sim.run_until(SimTime::from_secs(1));
        let sink_state: &Sink = sim.process_ref(sink).unwrap();
        assert_eq!(sink_state.arrivals.len(), 5);
        assert!(sink_state.arrivals[4] < SimTime::from_millis(1));
    }

    #[test]
    fn timers_fire_in_order() {
        #[derive(Default)]
        struct TimerProc {
            fired: Vec<u64>,
        }
        impl Process for TimerProc {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.set_timer(SimDuration::from_millis(30), 3);
                ctx.set_timer(SimDuration::from_millis(10), 1);
                ctx.set_timer(SimDuration::from_millis(20), 2);
            }
            fn on_packet(&mut self, _ctx: &mut Context<'_>, _p: Packet) {}
            fn on_timer(&mut self, _ctx: &mut Context<'_>, token: u64) {
                self.fired.push(token);
            }
        }
        let mut sim = Simulation::new(1);
        let a = sim.add_host("a", NicConfig::default());
        let p = sim.add_typed_process(a, TimerProc::default());
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.process_ref::<TimerProc>(p).unwrap().fired, vec![1, 2, 3]);
    }

    #[test]
    fn identical_seeds_reproduce_identical_runs() {
        fn run() -> (u64, u64) {
            let (mut sim, a, b) = two_host_sim(Bandwidth::from_mbps(10));
            sim.set_link(
                a,
                b,
                LinkConfig {
                    latency: SimDuration::from_micros(500),
                    loss: 0.2,
                    ..LinkConfig::default()
                },
            );
            let sink = sim.add_typed_process(b, Sink::default());
            sim.add_process(
                a,
                Box::new(Blaster {
                    dst: sink,
                    count: 500,
                    bytes: 500,
                }),
            );
            sim.run_until(SimTime::from_secs(2));
            (sim.counter("net.delivered"), sim.counter("net.dropped.loss"))
        }
        assert_eq!(run(), run());
    }

    #[test]
    fn run_until_advances_clock_to_deadline() {
        let mut sim = Simulation::new(1);
        sim.add_host("a", NicConfig::default());
        let end = sim.run_until(SimTime::from_secs(3));
        assert_eq!(end, SimTime::from_secs(3));
        assert_eq!(sim.now(), SimTime::from_secs(3));
    }

    #[test]
    fn stop_request_halts_run() {
        struct Stopper;
        impl Process for Stopper {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.set_timer(SimDuration::from_millis(5), 0);
            }
            fn on_packet(&mut self, _ctx: &mut Context<'_>, _p: Packet) {}
            fn on_timer(&mut self, ctx: &mut Context<'_>, _token: u64) {
                ctx.stop();
                ctx.set_timer(SimDuration::from_millis(5), 0);
            }
        }
        let mut sim = Simulation::new(1);
        let a = sim.add_host("a", NicConfig::default());
        sim.add_process(a, Box::new(Stopper));
        sim.run_until(SimTime::from_secs(10));
        assert_eq!(sim.now(), SimTime::from_millis(5));
    }

    #[test]
    fn observe_records_stats() {
        struct Observer;
        impl Process for Observer {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.observe("x", 1.0);
                ctx.observe("x", 3.0);
            }
            fn on_packet(&mut self, _ctx: &mut Context<'_>, _p: Packet) {}
        }
        let mut sim = Simulation::new(1);
        let a = sim.add_host("a", NicConfig::default());
        sim.add_process(a, Box::new(Observer));
        sim.run_until(SimTime::from_secs(1));
        let stats = sim.stat("x").unwrap();
        assert_eq!(stats.count(), 2);
        assert_eq!(stats.mean(), 2.0);
    }

    /// Counters are created by their first bump (even a zero one), by
    /// name or by id, and read back under the name they were bumped
    /// with; a bump by name and one by id land in one entry; resolving
    /// an id creates nothing; and a link override set in one order is
    /// read in either.
    #[test]
    fn counters_and_link_overrides_read_back_exactly() {
        struct Meter;
        impl Process for Meter {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.count("meter.twice", 2);
                let twice = ctx.counter_id("meter.twice");
                ctx.bump(twice, 3);
                ctx.count("meter.zero", 0);
                let zero_by_id = ctx.counter_id("meter.zero_by_id");
                ctx.bump(zero_by_id, 0);
                ctx.counter_id("meter.resolved_only");
                ctx.observe("meter.seen", 4.0);
            }
            fn on_packet(&mut self, _ctx: &mut Context<'_>, _p: Packet) {}
        }
        let mut sim = Simulation::new(1);
        let a = sim.add_host("a", NicConfig::default());
        let b = sim.add_host("b", NicConfig::default());
        sim.add_process(a, Box::new(Meter));
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.counter("meter.twice"), 5);
        assert_eq!(sim.counter("meter.never"), 0);
        assert_eq!(sim.counter("meter.resolved_only"), 0);
        // The engine's own counters are interned but never fired here,
        // so, like the resolved-only name, they are absent.
        let mut counters: Vec<(&str, u64)> = sim.counters().collect();
        counters.sort_unstable();
        assert_eq!(
            counters,
            vec![("meter.twice", 5), ("meter.zero", 0), ("meter.zero_by_id", 0)]
        );
        assert_eq!(sim.stat("meter.seen").map(OnlineStats::count), Some(1));
        assert!(sim.stat("meter.twice").is_none());
        assert!(sim.stat("meter.resolved_only").is_none());

        let slow = LinkConfig {
            latency: SimDuration::from_millis(7),
            ..LinkConfig::default()
        };
        sim.set_link(b, a, slow);
        assert_eq!(sim.link_config(a, b), slow);
        assert_eq!(sim.link_config(b, a), slow);
        sim.set_link(a, b, LinkConfig::default());
        assert_eq!(sim.link_config(b, a), LinkConfig::default());
    }

    #[test]
    #[should_panic(expected = "unknown host")]
    fn adding_process_to_missing_host_panics() {
        let mut sim = Simulation::new(1);
        sim.add_process(HostId(5), Box::new(Sink::default()));
    }
}

#[cfg(test)]
mod drain_tests {
    use super::*;
    use crate::net::NicConfig;
    use crate::process::{Context, Packet, Process, ProcessId};
    use mmcs_util::time::{SimDuration, SimTime};

    /// Records the order stimuli are handled in while burning CPU.
    #[derive(Default)]
    struct BusyRecorder {
        log: Vec<(u64, SimTime)>,
        cpu: SimDuration,
    }

    impl Process for BusyRecorder {
        fn on_packet(&mut self, ctx: &mut Context<'_>, packet: Packet) {
            let tag = *packet.payload::<u64>().expect("tagged payload");
            self.log.push((tag, ctx.now()));
            ctx.spend_cpu(self.cpu);
        }
        fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
            self.log.push((1000 + token, ctx.now()));
            ctx.spend_cpu(self.cpu);
        }
    }

    struct Burst {
        dst: ProcessId,
    }

    impl Process for Burst {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            for tag in 0..5u64 {
                ctx.send(self.dst, tag, 100);
            }
        }
        fn on_packet(&mut self, _ctx: &mut Context<'_>, _packet: Packet) {}
    }

    /// A CPU backlog drains in FIFO arrival order, and a timer that
    /// fires mid-backlog waits its turn behind earlier arrivals.
    #[test]
    fn backlog_drains_fifo_with_timers_interleaved() {
        let mut sim = Simulation::new(1);
        let a = sim.add_host("a", NicConfig::default());
        let b = sim.add_host("b", NicConfig::default());
        let recorder = sim.add_typed_process(
            b,
            BusyRecorder {
                log: Vec::new(),
                cpu: SimDuration::from_millis(10),
            },
        );
        sim.add_typed_process(a, Burst { dst: recorder });
        // A sibling process on the same busy host arms a 15 ms timer;
        // its firing must wait behind the recorder's CPU backlog.
        struct TimerArm {
            target_cpu: SimDuration,
        }
        impl Process for TimerArm {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.set_timer(SimDuration::from_millis(15), 7);
            }
            fn on_packet(&mut self, _ctx: &mut Context<'_>, _p: Packet) {}
            fn on_timer(&mut self, ctx: &mut Context<'_>, _token: u64) {
                // Runs on host b too: must have waited for the backlog.
                ctx.observe("timer.fired_at_ms", ctx.now().as_millis_f64());
                let _ = self.target_cpu;
            }
        }
        sim.add_typed_process(
            b,
            TimerArm {
                target_cpu: SimDuration::ZERO,
            },
        );
        sim.run_until(SimTime::from_secs(1));

        let log = &sim.process_ref::<BusyRecorder>(recorder).unwrap().log;
        let tags: Vec<u64> = log.iter().map(|(tag, _)| *tag).collect();
        assert_eq!(tags, vec![0, 1, 2, 3, 4], "FIFO drain order");
        // Five handlers x 10 ms CPU: the last starts at >= 40 ms.
        assert!(log[4].1 >= SimTime::from_millis(40));
        // The sibling's 15 ms timer waited for the CPU backlog (fires
        // after the ~50 ms of recorder work, not at 15 ms).
        let fired = sim.stat("timer.fired_at_ms").unwrap().mean();
        assert!(fired >= 40.0, "timer fired at {fired} ms");
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::net::NicConfig;
    use crate::process::{Context, Packet, Process, ProcessId};
    use mmcs_util::time::{SimDuration, SimTime};

    /// Counts packets and records restart notifications.
    #[derive(Default)]
    struct Tally {
        packets: u64,
        restarts: u64,
        timer_fires: Vec<u64>,
    }

    impl Process for Tally {
        fn on_packet(&mut self, _ctx: &mut Context<'_>, _packet: Packet) {
            self.packets += 1;
        }
        fn on_timer(&mut self, _ctx: &mut Context<'_>, token: u64) {
            self.timer_fires.push(token);
        }
        fn on_restart(&mut self, ctx: &mut Context<'_>) {
            self.restarts += 1;
            ctx.set_timer(SimDuration::from_millis(10), 99);
        }
    }

    /// Sends one packet to `dst` every 10 ms.
    struct Ticker {
        dst: ProcessId,
    }

    impl Process for Ticker {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.set_timer(SimDuration::from_millis(10), 0);
        }
        fn on_packet(&mut self, _ctx: &mut Context<'_>, _p: Packet) {}
        fn on_timer(&mut self, ctx: &mut Context<'_>, _token: u64) {
            ctx.send(self.dst, (), 100);
            ctx.set_timer(SimDuration::from_millis(10), 0);
        }
    }

    #[test]
    fn link_down_partitions_and_heals() {
        let mut sim = Simulation::new(1);
        let a = sim.add_host("a", NicConfig::default());
        let b = sim.add_host("b", NicConfig::default());
        let sink = sim.add_typed_process(b, Tally::default());
        sim.add_typed_process(a, Ticker { dst: sink });
        sim.run_until(SimTime::from_millis(100));
        let before = sim.process_ref::<Tally>(sink).unwrap().packets;
        assert!(before > 0);

        sim.set_link(
            a,
            b,
            LinkConfig {
                down: true,
                ..LinkConfig::default()
            },
        );
        // One packet may already be in flight when the link drops; let it
        // land, then assert the partition is absolute.
        sim.run_until(SimTime::from_millis(120));
        let during = sim.process_ref::<Tally>(sink).unwrap().packets;
        sim.run_until(SimTime::from_millis(200));
        assert_eq!(sim.process_ref::<Tally>(sink).unwrap().packets, during);
        assert!(sim.counter("net.dropped.linkdown") > 0);

        sim.set_link(a, b, LinkConfig::default());
        sim.run_until(SimTime::from_millis(300));
        assert!(sim.process_ref::<Tally>(sink).unwrap().packets > during);
    }

    #[test]
    fn duplicate_probability_delivers_copies() {
        struct Blast {
            dst: ProcessId,
        }
        impl Process for Blast {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                for _ in 0..10 {
                    ctx.send(self.dst, (), 100);
                }
            }
            fn on_packet(&mut self, _ctx: &mut Context<'_>, _p: Packet) {}
        }
        let mut sim = Simulation::new(3);
        let a = sim.add_host("a", NicConfig::default());
        let b = sim.add_host("b", NicConfig::default());
        sim.set_link(
            a,
            b,
            LinkConfig {
                duplicate: 1.0,
                ..LinkConfig::default()
            },
        );
        let sink = sim.add_typed_process(b, Tally::default());
        sim.add_typed_process(a, Blast { dst: sink });
        sim.run_until(SimTime::from_secs(1));
        let got = sim.process_ref::<Tally>(sink).unwrap().packets;
        assert_eq!(sim.counter("net.duplicated"), 10);
        assert_eq!(got, 20, "every packet delivered exactly twice");
    }

    #[test]
    fn jitter_reorders_back_to_back_packets() {
        // Two packets sent back to back with jitter far exceeding their
        // spacing: under seed 7 at least one pair arrives out of order.
        #[derive(Default)]
        struct SeqSink {
            seen: Vec<u64>,
        }
        impl Process for SeqSink {
            fn on_packet(&mut self, _ctx: &mut Context<'_>, packet: Packet) {
                self.seen.push(*packet.payload::<u64>().unwrap());
            }
        }
        struct SeqBlast {
            dst: ProcessId,
        }
        impl Process for SeqBlast {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                for i in 0..50u64 {
                    ctx.send(self.dst, i, 100);
                }
            }
            fn on_packet(&mut self, _ctx: &mut Context<'_>, _p: Packet) {}
        }
        let mut sim = Simulation::new(7);
        let a = sim.add_host("a", NicConfig::default());
        let b = sim.add_host("b", NicConfig::default());
        sim.set_link(
            a,
            b,
            LinkConfig {
                jitter: SimDuration::from_millis(50),
                ..LinkConfig::default()
            },
        );
        let sink = sim.add_typed_process(b, SeqSink::default());
        sim.add_typed_process(a, SeqBlast { dst: sink });
        sim.run_until(SimTime::from_secs(1));
        let seen = &sim.process_ref::<SeqSink>(sink).unwrap().seen;
        assert_eq!(seen.len(), 50, "jitter must not lose packets");
        assert!(
            seen.windows(2).any(|w| w[0] > w[1]),
            "expected at least one reordering: {seen:?}"
        );
    }

    #[test]
    fn crash_drops_deliveries_and_restart_resumes() {
        let mut sim = Simulation::new(2);
        let a = sim.add_host("a", NicConfig::default());
        let b = sim.add_host("b", NicConfig::default());
        let sink = sim.add_typed_process(b, Tally::default());
        sim.add_typed_process(a, Ticker { dst: sink });
        sim.run_until(SimTime::from_millis(100));
        let before = sim.process_ref::<Tally>(sink).unwrap().packets;

        sim.crash_process(sink);
        assert!(sim.is_crashed(sink));
        sim.run_until(SimTime::from_millis(200));
        assert_eq!(sim.process_ref::<Tally>(sink).unwrap().packets, before);
        assert!(sim.counter("net.dropped.crashed") > 0);

        sim.restart_process(sink);
        assert!(!sim.is_crashed(sink));
        sim.run_until(SimTime::from_millis(300));
        let state = sim.process_ref::<Tally>(sink).unwrap();
        assert!(state.packets > before, "deliveries resume after restart");
        assert_eq!(state.restarts, 1, "on_restart ran once");
        assert_eq!(sim.counter("sim.crashes"), 1);
        assert_eq!(sim.counter("sim.restarts"), 1);
    }

    #[test]
    fn timers_from_before_a_crash_never_fire_after_restart() {
        struct SlowTimer;
        #[derive(Default)]
        struct Victim {
            fires: Vec<u64>,
        }
        impl Process for Victim {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                // Armed pre-crash, due at 500 ms — after the restart.
                ctx.set_timer(SimDuration::from_millis(500), 1);
            }
            fn on_packet(&mut self, _ctx: &mut Context<'_>, _p: Packet) {}
            fn on_timer(&mut self, _ctx: &mut Context<'_>, token: u64) {
                self.fires.push(token);
            }
            fn on_restart(&mut self, ctx: &mut Context<'_>) {
                ctx.set_timer(SimDuration::from_millis(100), 2);
            }
        }
        let _ = SlowTimer;
        let mut sim = Simulation::new(4);
        let a = sim.add_host("a", NicConfig::default());
        let victim = sim.add_typed_process(a, Victim::default());
        sim.run_until(SimTime::from_millis(50));
        sim.crash_process(victim);
        sim.run_until(SimTime::from_millis(60));
        sim.restart_process(victim);
        sim.run_until(SimTime::from_secs(1));
        let fires = &sim.process_ref::<Victim>(victim).unwrap().fires;
        // Only the post-restart timer (token 2) fired; the pre-crash
        // token-1 timer was invalidated by the incarnation bump.
        assert_eq!(fires, &vec![2]);
        assert_eq!(sim.counter("sim.timer.stale"), 1);
    }

    #[test]
    fn crash_and_restart_are_idempotent() {
        let mut sim = Simulation::new(5);
        let a = sim.add_host("a", NicConfig::default());
        let p = sim.add_typed_process(a, Tally::default());
        sim.restart_process(p); // not crashed: no-op
        sim.crash_process(p);
        sim.crash_process(p); // already crashed: no-op
        assert_eq!(sim.counter("sim.crashes"), 1);
        sim.restart_process(p);
        sim.restart_process(p); // already alive: no-op
        sim.run_until(SimTime::from_millis(50));
        assert_eq!(sim.counter("sim.restarts"), 1);
        assert_eq!(sim.process_ref::<Tally>(p).unwrap().restarts, 1);
    }

    /// Overflow regression: a timer delay near `u64::MAX` nanoseconds
    /// must saturate to the far future (effectively "never"), not wrap
    /// around to the past and fire immediately — and `run_for` from a
    /// late `now` must clamp its deadline the same way.
    #[test]
    fn far_future_timer_saturates_instead_of_wrapping() {
        struct FarFuture;
        impl Process for FarFuture {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.set_timer(SimDuration::from_nanos(u64::MAX), 7);
                ctx.set_timer(SimDuration::from_millis(1), 1);
            }
            fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
                ctx.count(if token == 7 { "timer.far" } else { "timer.near" }, 1);
            }
            fn on_packet(&mut self, _ctx: &mut Context<'_>, _packet: Packet) {}
        }
        let mut sim = Simulation::new(9);
        let a = sim.add_host("a", NicConfig::default());
        sim.add_typed_process(a, FarFuture);
        sim.run_until(SimTime::from_secs(1));
        // The near timer fired; the saturated one stays pending forever.
        assert_eq!(sim.counter("timer.near"), 1);
        assert_eq!(sim.counter("timer.far"), 0);
        // The saturated timer is still pending, so `now` holds at the
        // last executed event rather than jumping to the deadline.
        assert_eq!(sim.now(), SimTime::from_millis(1));
        // run_for with an overflowing span clamps to the far future
        // rather than wrapping the deadline into the past.
        sim.run_for(SimDuration::from_nanos(u64::MAX - 1));
        assert_eq!(sim.counter("timer.far"), 1);
        assert_eq!(sim.now(), SimTime::MAX);
    }
}
