//! The discrete-event engine: event queue, CPU gating, NIC serialization.
//!
//! Events are totally ordered by a deterministic `(time, origin, seq)`
//! key (`EventKey`): `origin` names the host whose execution produced
//! the event (0 for control pushes — process start-up — which happen
//! identically in every run), and `seq` is that origin's private push
//! counter. A host's pushes happen only while its own events execute,
//! so a key depends on what its origin did and never on the order in
//! which events of *other* hosts at the same instant were dispatched —
//! the keys, and therefore the entire run, are a function of the seed
//! and the registered processes alone.
//!
//! A host's CPU serves its work in arrival order, so work that finds
//! the CPU busy behind an empty backlog starts when the CPU frees,
//! whatever pops after it. [`Simulation::run_until`] runs such work in
//! the call that pops it when that start is no later than its
//! deadline; the rest waits in the host's backlog for a drain event. A
//! callback reads and writes only its own host (and summed counters),
//! and every push keeps its key order, so this is the run
//! [`Simulation::step`] gives one event at a time.

use std::any::Any;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

use mmcs_util::rng::DetRng;
use mmcs_util::time::{SimDuration, SimTime};

use crate::net::{HostId, LinkConfig, NetworkState, NicConfig};
use crate::process::{Context, Packet, Process, ProcessId};
use crate::queue::EventQueue;

/// A packet payload as the engine holds it: shared, and `Send + Sync`
/// so that a [`Simulation`] with packets in flight stays `Send`.
pub type Payload = Arc<dyn Any + Send + Sync>;

/// A packet on its way: requested by a callback, then queued. The
/// payload stays in the engine's [`PayloadSlots`]; the delivery names
/// its slot.
#[derive(Debug)]
pub(crate) struct Delivery {
    pub src: ProcessId,
    pub dst: ProcessId,
    pub wire_bytes: usize,
    pub sent_at: SimTime,
    pub slot: u32,
}

/// The payloads of sent packets, each with the number of deliveries
/// still naming it. Sends of one handle in a row from one callback
/// share an entry, so a 400-way fan-out costs one `Arc` clone and one
/// drop, not a locked refcount increment and decrement per delivery.
/// A delivery's callback borrows the payload out of its entry; the
/// last delivery dispatched or dropped frees it.
#[derive(Default)]
pub(crate) struct PayloadSlots {
    entries: Vec<(Option<Payload>, u32)>,
    free: Vec<u32>,
}

impl PayloadSlots {
    /// Holds `payload` for one delivery; returns its slot.
    pub(crate) fn hold(&mut self, payload: Payload) -> u32 {
        let slot = self.free.pop().unwrap_or(self.entries.len() as u32);
        match self.entries.get_mut(slot as usize) {
            Some(entry) => *entry = (Some(payload), 1),
            None => self.entries.push((Some(payload), 1)),
        }
        slot
    }

    /// Adds one delivery to `slot` if it holds `payload` itself.
    pub(crate) fn join(&mut self, slot: u32, payload: &Payload) -> bool {
        match self.entries.get_mut(slot as usize) {
            Some((Some(held), refs)) if Arc::ptr_eq(held, payload) => {
                *refs += 1;
                true
            }
            _ => false,
        }
    }

    /// Takes `slot`'s payload out for a delivery's callback to borrow.
    fn lend(&mut self, slot: u32) -> Option<Payload> {
        self.entries.get_mut(slot as usize)?.0.take()
    }

    /// Ends one delivery from `slot`, putting back what [`Self::lend`]
    /// took. The last delivery drops the payload and frees the slot.
    fn release(&mut self, slot: u32, lent: Option<Payload>) {
        let Some((held, refs)) = self.entries.get_mut(slot as usize) else {
            return;
        };
        if *refs > 1 {
            *refs -= 1;
            *held = held.take().or(lent);
        } else if *refs == 1 {
            (*held, *refs) = (None, 0);
            self.free.push(slot);
        }
    }
}

/// An event body; deferred ones sit in a host's pending queue while its
/// CPU is busy.
#[derive(Debug)]
pub(crate) enum EventKind {
    Start(ProcessId),
    Deliver(Delivery),
    /// A timer armed by a process, with the token it chose.
    Timer(ProcessId, u64),
    /// Pop and run the next pending event on a host.
    Drain(HostId),
}

/// Alias used by the network module for the per-host pending queue.
pub(crate) type DeferredEvent = EventKind;

/// The deterministic total-order key for events.
///
/// `origin` is 0 for control pushes (start-of-simulation, issued in
/// registration order) and `host id + 1` for events produced while that
/// host executed. `seq` is the origin's private push counter. Two events
/// never share a key, and the key a given event receives depends only on
/// its origin's own execution — the backbone of run-to-run determinism.
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
/// `(time ns, process id, tag, a, b, c)`. Tag 2 is unused and a timer
/// record's `b` word is always 0: both held process restarts, which the
/// engine no longer models, and keeping the shapes keeps every run's
/// [`Simulation::trace_fingerprint`] what it was.
pub(crate) const TRACE_START: u64 = 0;
pub(crate) const TRACE_TIMER: u64 = 1;
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
const NET_LOSS: CounterId = CounterId(3);

/// The counters the engine bumps itself, interned first and in this
/// order so that each one's id is the constant beside it.
const ENGINE_COUNTERS: [(&str, CounterId); 4] = [
    ("net.delivered", NET_DELIVERED),
    ("net.dropped.noroute", NET_NOROUTE),
    ("net.dropped.queue", NET_QUEUE),
    ("net.dropped.loss", NET_LOSS),
];

/// Every named counter of a run. A name is interned once and its id
/// indexes `counts`; names are read only when reporting. A slot stays
/// `None` — absent from every report — until its first bump (even a zero
/// one), so resolving an id has no visible effect.
#[derive(Default)]
pub(crate) struct MetricTable {
    ids: HashMap<String, CounterId>,
    counts: Vec<Option<u64>>,
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
        id
    }

    pub(crate) fn bump(&mut self, id: CounterId, delta: u64) {
        if let Some(slot) = self.counts.get_mut(id.0 as usize) {
            *slot.get_or_insert(0) += delta;
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
    pub(crate) slots: PayloadSlots,
    pub(crate) proc_hosts: Vec<HostId>,
    /// Whether dispatches append to the per-host execution traces.
    pub(crate) trace_on: bool,
}

impl EngineCore {
    /// Pushes a control-origin event (start-up, in registration order).
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
        self.push_from(origin, at, EventKind::Timer(process, token));
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

    /// Counts a send the network dropped, ending its hold on its slot.
    fn drop_send(&mut self, counter: CounterId, send: Delivery) {
        self.metrics.bump(counter, 1);
        self.slots.release(send.slot, None);
    }

    /// Counts an event for a process that does not exist.
    fn unroutable(&mut self, kind: EventKind) {
        match kind {
            EventKind::Deliver(delivery) => self.drop_send(NET_NOROUTE, delivery),
            _ => self.metrics.bump(NET_NOROUTE, 1),
        }
    }

    /// Routes one send through loopback or the NIC + link model.
    ///
    /// The loss draw comes from the *sending* host's private RNG stream,
    /// so it depends only on that host's own execution order.
    fn route(&mut self, send: Delivery) {
        let (Some(src_host), Some(dst_host)) = (self.host_of(send.src), self.host_of(send.dst)) else {
            return self.drop_send(NET_NOROUTE, send);
        };

        if src_host == dst_host {
            let latency = self.net.host(src_host).nic.loopback_latency;
            let at = send.sent_at.saturating_add(latency);
            self.push_from(src_host, at, EventKind::Deliver(send));
            return;
        }

        // Egress NIC: serialization behind the current backlog, drop-tail
        // when the backlog exceeds the queue limit.
        let nic: NicConfig = self.net.host(src_host).nic;
        let nic_free_at = self.net.host(src_host).nic_free_at;
        let backlog = nic
            .bandwidth
            .bytes_in(nic_free_at.saturating_duration_since(send.sent_at));
        if backlog + send.wire_bytes as u64 > nic.queue_bytes {
            return self.drop_send(NET_QUEUE, send);
        }
        let start = if nic_free_at > send.sent_at {
            nic_free_at
        } else {
            send.sent_at
        };
        let tx_done = start.saturating_add(nic.bandwidth.transmit_time(send.wire_bytes));
        self.net.host_mut(src_host).nic_free_at = tx_done;

        let link = self.net.link(src_host, dst_host);
        if link.loss > 0.0 && self.host_rng(src_host).chance(link.loss) {
            return self.drop_send(NET_LOSS, send);
        }
        let at = tx_done.saturating_add(link.latency);
        self.push_from(src_host, at, EventKind::Deliver(send));
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
    processes: Vec<Box<dyn AnyProcess>>,
    started: bool,
    /// The buffer lent to each callback's [`Context`] for its sends, so
    /// a 400-way fan-out grows it once per run, not once per publish.
    send_buf: Vec<Delivery>,
    /// Events popped, and of them drain events: [`Simulation::event_pops`].
    pops: (u64, u64),
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
                slots: PayloadSlots::default(),
                proc_hosts: Vec::new(),
                trace_on: false,
            },
            processes: Vec::new(),
            started: false,
            send_buf: Vec::new(),
            pops: (0, 0),
        }
    }

    /// Adds a host (machine) with the given NIC configuration.
    pub fn add_host(&mut self, name: &str, nic: NicConfig) -> HostId {
        let master_seed = self.core.master_seed;
        self.core.net.add_host(name, nic, master_seed)
    }

    /// Registers a process on `host`, where
    /// [`Simulation::process_ref`] can inspect it later. Ids are
    /// sequential starting at 1.
    ///
    /// Processes must be `Send` so that the simulation itself is: callers
    /// build and run one on a spawned thread.
    ///
    /// # Panics
    ///
    /// Panics if the simulation has already started running or if `host`
    /// does not exist.
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
        self.processes.push(Box::new(process));
        self.core.proc_hosts.push(host);
        id
    }

    /// Sets the default one-way latency between distinct hosts.
    pub fn set_default_latency(&mut self, latency: SimDuration) {
        self.core.net.default_link.latency = latency;
    }

    /// Overrides the link between a specific pair of hosts (symmetric).
    ///
    /// May be called mid-run (between [`Simulation::step`] /
    /// [`Simulation::run_until`] calls): packets sent from then on see
    /// the new latency and loss; packets already in flight keep theirs.
    pub fn set_link(&mut self, a: HostId, b: HostId, link: LinkConfig) {
        self.core.net.set_link(a, b, link);
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

    /// Events popped so far, and how many of them were drains running a
    /// busy host's backlog: the engine's work, not the model's, so not
    /// in [`Simulation::counters`] (`step` and `run_until` differ here).
    pub fn event_pops(&self) -> (u64, u64) {
        self.pops
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
            .as_any()
            .downcast_ref::<T>()
    }

    /// Mutably borrows a process's state, downcast to its concrete type.
    pub fn process_mut<T: 'static>(&mut self, id: ProcessId) -> Option<&mut T> {
        self.processes
            .get_mut(id.0.checked_sub(1)? as usize)?
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

    /// Executes the next event, and nothing else: work that finds its
    /// host's CPU busy joins the host's backlog and runs when the drain
    /// event armed for it pops, so a delivery to a busy host is two
    /// calls. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        self.ensure_started();
        let Some(key) = self.core.queue.peek_key() else {
            return false;
        };
        self.pop_and_serve(key.at);
        true
    }

    /// Pops the next event and runs it, or parks it in its host's
    /// backlog. Work that finds the CPU busy behind an empty backlog
    /// runs at once, starting when the CPU frees, if that is no later
    /// than `horizon`: the CPU serves its host in arrival order, so
    /// nothing popped later can start before it, and the callback reads
    /// and writes only its own host. Returns the virtual time the work
    /// ran at.
    fn pop_and_serve(&mut self, horizon: SimTime) -> SimTime {
        let Some(event) = self.core.queue.pop() else {
            return self.core.now;
        };
        self.pops.0 += 1;
        debug_assert!(event.key.at >= self.core.now, "time ran backwards");
        self.core.now = event.key.at;
        let now = event.key.at;

        let pid = match &event.kind {
            EventKind::Start(p) | EventKind::Timer(p, _) => *p,
            EventKind::Deliver(delivery) => delivery.dst,
            EventKind::Drain(host) => {
                self.pops.1 += 1;
                // Run the backlog from its head while the next item can
                // start by the horizon (nothing popped later can start
                // ahead of a backlog item; under `step()` the horizon is
                // the drain's own time, so that is the head alone unless
                // it took no CPU), then arm one drain for the rest, so a
                // backlog of K drains in at most K events instead of K^2
                // heap churn.
                let host = *host;
                let mut ran = now;
                while let Some(kind) = self.core.net.host_mut(host).pending.pop_front() {
                    ran = self.core.net.host_mut(host).cpu_free_at.max(now);
                    self.dispatch(kind, host, ran);
                    let host_state = self.core.net.host_mut(host);
                    if host_state.pending.is_empty() {
                        break;
                    }
                    if host_state.cpu_free_at > horizon {
                        let at = host_state.cpu_free_at.max(now);
                        self.core.push_from(host, at, EventKind::Drain(host));
                        break;
                    }
                }
                return ran;
            }
        };
        let Some(host) = self.core.host_of(pid) else {
            // Destination process never existed; count and move on.
            self.core.unroutable(event.kind);
            return now;
        };

        // CPU gating: older work already queued, or a CPU busy past the
        // horizon, puts the event at the back of the host's FIFO backlog.
        let host_state = self.core.net.host_mut(host);
        let start = host_state.cpu_free_at.max(now);
        let backlog_empty = host_state.pending.is_empty();
        if !backlog_empty || host_state.cpu_free_at > horizon {
            host_state.pending.push_back(event.kind);
            if backlog_empty {
                self.core.push_from(host, start, EventKind::Drain(host));
            }
            return now;
        }
        self.dispatch(event.kind, host, start);
        start
    }

    /// Runs one event body to completion at `now` on `host`, where its
    /// process lives.
    fn dispatch(&mut self, kind: EventKind, host: HostId, now: SimTime) {
        let (pid, is_delivery) = match &kind {
            EventKind::Start(p) => (*p, false),
            EventKind::Timer(p, _) => (*p, false),
            EventKind::Deliver(delivery) => (delivery.dst, true),
            EventKind::Drain(_) => return,
        };
        let Some(process) = pid.0.checked_sub(1).and_then(|idx| self.processes.get_mut(idx as usize)) else {
            return self.core.unroutable(kind);
        };
        if self.core.trace_on {
            let record: [u64; TRACE_WORDS] = match &kind {
                EventKind::Start(p) => [now.as_nanos(), p.0, TRACE_START, 0, 0, 0],
                EventKind::Timer(p, token) => [now.as_nanos(), p.0, TRACE_TIMER, *token, 0, 0],
                EventKind::Deliver(delivery) => [
                    now.as_nanos(),
                    delivery.dst.0,
                    TRACE_DELIVER,
                    delivery.src.0,
                    delivery.sent_at.as_nanos(),
                    delivery.wire_bytes as u64,
                ],
                EventKind::Drain(_) => return,
            };
            self.core.net.host_mut(host).trace.extend_from_slice(&record);
        }

        let mut ctx = Context {
            core: &mut self.core,
            me: pid,
            host,
            started_at: now,
            elapsed: SimDuration::ZERO,
            sends: &mut self.send_buf,
        };
        match kind {
            EventKind::Start(_) => process.on_start(&mut ctx),
            EventKind::Timer(_, token) => process.on_timer(&mut ctx, token),
            EventKind::Deliver(delivery) => {
                ctx.core.metrics.bump(NET_DELIVERED, 1);
                // The callback borrows the payload out of its slot, so
                // no delivery touches the payload's refcount.
                let lent = ctx.core.slots.lend(delivery.slot);
                if let Some(payload) = &lent {
                    process.on_packet(&mut ctx, Packet::new(&delivery, payload));
                }
                ctx.core.slots.release(delivery.slot, lent);
            }
            EventKind::Drain(_) => {}
        }
        let elapsed = ctx.elapsed;

        if is_delivery || elapsed > SimDuration::ZERO {
            let busy_until = now.saturating_add(elapsed);
            let host_state = self.core.net.host_mut(host);
            if busy_until > host_state.cpu_free_at {
                host_state.cpu_free_at = busy_until;
            }
        }
        for send in self.send_buf.drain(..) {
            self.core.route(send);
        }
    }

    /// Runs every event due at or before `deadline` and returns the
    /// reached time: `deadline` if the queue ran dry, else the latest
    /// virtual time at which work ran — the clock does not move on while
    /// an event is still pending.
    ///
    /// Work that finds its host's CPU busy behind an empty backlog runs
    /// in the call that pops it, at the time the CPU frees, when that is
    /// no later than `deadline`, and a drain event serves its backlog in
    /// order up to the first item that cannot start by then; only that
    /// work waits for a next drain event. Every host runs the same
    /// callbacks at the same virtual times, in the same order, as under
    /// [`Simulation::step`]; a [`Simulation::set_link`] between two
    /// calls reaches every send stamped after the first call's deadline.
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime {
        self.ensure_started();
        let mut reached = self.core.now;
        while self.core.queue.peek_key().is_some_and(|key| key.at <= deadline) {
            reached = reached.max(self.pop_and_serve(deadline));
        }
        self.core.now = if self.core.queue.is_empty() {
            reached.max(deadline)
        } else {
            reached
        };
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
        sim.add_typed_process(
            a,
            Blaster {
                dst: sink,
                count: 3,
                bytes: 1250,
            },
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
        sim.add_typed_process(
            a,
            Blaster {
                dst: sink,
                count: 10,
                bytes: 1250,
            },
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
            },
        );
        let sink = sim.add_typed_process(b, Sink::default());
        sim.add_typed_process(
            a,
            Blaster {
                dst: sink,
                count: 1000,
                bytes: 100,
            },
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
        sim.add_typed_process(a, DualSend(s1, s2));
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
        sim.add_typed_process(
            a,
            Blaster {
                dst: sink,
                count: 5,
                bytes: 10_000,
            },
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
                },
            );
            let sink = sim.add_typed_process(b, Sink::default());
            sim.add_typed_process(
                a,
                Blaster {
                    dst: sink,
                    count: 500,
                    bytes: 500,
                },
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

    /// Counters are created by their first bump (even a zero one), by
    /// name or by id, and read back under the name they were bumped
    /// with; a bump by name and one by id land in one entry; and
    /// resolving an id creates nothing.
    #[test]
    fn counters_read_back_exactly() {
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
            }
            fn on_packet(&mut self, _ctx: &mut Context<'_>, _p: Packet) {}
        }
        let mut sim = Simulation::new(1);
        let a = sim.add_host("a", NicConfig::default());
        sim.add_typed_process(a, Meter);
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
    }

    /// A timer delay near `u64::MAX` nanoseconds saturates to the far
    /// future (effectively "never") instead of wrapping around to the
    /// past and firing at once.
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
        // The near timer fired; the saturated one stays pending.
        assert_eq!(sim.counter("timer.near"), 1);
        assert_eq!(sim.counter("timer.far"), 0);
        // The saturated timer is still pending, so `now` holds at the
        // last executed event rather than jumping to the deadline.
        assert_eq!(sim.now(), SimTime::from_millis(1));
        // It fires at the end of time.
        sim.run_until(SimTime::MAX);
        assert_eq!(sim.counter("timer.far"), 1);
        assert_eq!(sim.now(), SimTime::MAX);
    }

    #[test]
    #[should_panic(expected = "unknown host")]
    fn adding_process_to_missing_host_panics() {
        let mut sim = Simulation::new(1);
        sim.add_typed_process(HostId(5), Sink::default());
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
        #[derive(Default)]
        struct TimerArm {
            fired_at: Vec<SimTime>,
        }
        impl Process for TimerArm {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.set_timer(SimDuration::from_millis(15), 7);
            }
            fn on_packet(&mut self, _ctx: &mut Context<'_>, _p: Packet) {}
            fn on_timer(&mut self, ctx: &mut Context<'_>, _token: u64) {
                self.fired_at.push(ctx.now());
            }
        }
        let arm = sim.add_typed_process(b, TimerArm::default());
        sim.run_until(SimTime::from_secs(1));

        let log = &sim.process_ref::<BusyRecorder>(recorder).unwrap().log;
        let tags: Vec<u64> = log.iter().map(|(tag, _)| *tag).collect();
        assert_eq!(tags, vec![0, 1, 2, 3, 4], "FIFO drain order");
        // Five handlers x 10 ms CPU: the last starts at >= 40 ms.
        assert!(log[4].1 >= SimTime::from_millis(40));
        // The sibling's 15 ms timer waited for the CPU backlog (fires
        // after the ~50 ms of recorder work, not at 15 ms).
        let fired = &sim.process_ref::<TimerArm>(arm).unwrap().fired_at;
        assert_eq!(fired.len(), 1);
        assert!(fired[0] >= SimTime::from_millis(40), "timer fired at {:?}", fired[0]);
    }
}
