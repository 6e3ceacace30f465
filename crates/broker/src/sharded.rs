//! Sharded multi-worker broker runtime.
//!
//! [`ShardedBroker`] partitions the topic space across N worker shards.
//! Each shard runs its own [`BrokerNode`] slice on a dedicated OS
//! thread — with its own generation-stamped route cache. Both ends of
//! the hand-off are a buffer behind one short lock, moved whole: a
//! publish is a push onto the owner shard's bounded ingress queue, the
//! worker takes everything queued in one swap, and each client's
//! deliveries are appended to its mailbox once per processed batch.
//! A peer is woken only when it is actually asleep, and a worker that
//! runs out of commands watches its queue for a millisecond before it
//! sleeps, so a closed publish → deliver → publish loop never pays a
//! wake-up per turn.
//!
//! # Topology
//!
//! * **Topic ownership**: a publish to topic `t` enters exactly one
//!   *owner* shard, chosen by a stable FNV-1a hash of `t`'s **first
//!   segment**. A session's control and media topics share a first
//!   segment (`session/42/…`), so they colocate on one shard and their
//!   relative order is preserved end-to-end.
//! * **Client homing**: every client has a *home* shard (hash of its
//!   id). All of the client's subscriptions live as **local**
//!   subscriptions only on its home shard's node, so overlapping
//!   filters dedup in one place and each event is delivered at most
//!   once.
//! * **Cross-shard forwarding ring**: shards link to each other as
//!   peers at startup. When a client's filter can match topics owned by
//!   another shard, the router registers refcounted *remote* interest
//!   there (peer id = the client's home shard). A publish then touches
//!   at most the owner shard plus the subscriber home shards: the owner
//!   routes, the event's `Arc` hops once over the ring to every
//!   interested home shard, and the home shard delivers from its own
//!   route plan without re-forwarding.
//! * **Fan-out straight from the plan**: a worker asks its node for the
//!   cached route plan ([`BrokerNode::publish_plan`], which also counts
//!   the publish) and walks it — a staged delivery per local subscriber,
//!   found in a multiply-hashed slot map, and an `Arc` clone per remote
//!   shard. Publishes, ring hops and injected events take that one path;
//!   no `Action` is built for any of them, and no event is encoded: the
//!   wire codec is for bytes that go onto a link.
//!
//! # Consistency model
//!
//! Control operations (attach/detach/subscribe/unsubscribe) are
//! broadcast to all shards and become visible shard-by-shard; data
//! routing is exact between control epochs. Commands from one thread
//! stay FIFO per shard queue, so the classic "subscribe, then publish"
//! sequence from a single thread is reliably delivered. Tests settle
//! in-flight traffic with [`ShardedBroker::quiesce`].
//!
//! # Backpressure
//!
//! The ingress queue's own length is the bound
//! ([`ShardedBrokerBuilder::capacity`]): a client publish (or
//! [`ShardedBroker::inject`]) that finds the owner shard's queue full
//! sleeps until the worker has taken it, or until
//! [`ShardedBroker::shutdown`] releases it. Control commands and
//! worker-originated sends (forwards, barriers) never wait, so the ring
//! cannot deadlock. The worker takes the whole queue at once, so up to
//! one more queue-full of commands can be in its hands while the next
//! fills. A client's mailbox is unbounded: a subscriber that never
//! drains costs memory, not broker progress.
//!
//! # Examples
//!
//! ```
//! use mmcs_broker::sharded::ShardedBroker;
//! use mmcs_broker::topic::{Topic, TopicFilter};
//! use bytes::Bytes;
//! use std::time::Duration;
//!
//! let broker = ShardedBroker::spawn(4);
//! let publisher = broker.attach();
//! let subscriber = broker.attach();
//! subscriber.subscribe(TopicFilter::parse("news/#")?);
//!
//! publisher.publish(Topic::parse("news/tech")?, Bytes::from_static(b"hello"));
//! let event = subscriber.recv_timeout(Duration::from_secs(1)).unwrap();
//! assert_eq!(&event.payload[..], b"hello");
//! broker.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use mmcs_telemetry::Gauge;
use mmcs_util::id::{BrokerId, ClientId, IdMap};
use mmcs_util::time::{monotonic_now, SimDuration};
use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::event::{Event, EventClass};
use crate::metrics::{BrokerMetrics, ShardedBrokerMetrics};
use crate::node::{Action, BrokerNode, Input, Origin};
use crate::profile::TransportProfile;
use crate::topic::{Topic, TopicFilter};

/// Most commands a shard worker processes between two delivery flushes.
const SHARD_BATCH_MAX: usize = 64;
/// Payload-byte budget between two delivery flushes.
const SHARD_BATCH_BYTES: usize = 256 * 1024;
/// Default per-shard ingress capacity (publishes wait past this).
const DEFAULT_SHARD_CAPACITY: usize = 65_536;
/// How long a worker that finds its ingress empty keeps watching it
/// (yielding its core each turn) before it sleeps. A closed loop —
/// publish, wait for the deliveries, publish again — leaves the worker
/// idle for 50–500 µs a turn; sleeping through each gap costs a futex
/// wake plus however long the host takes to put the worker back on a
/// core, which is a quarter of such a turn on a quiet host and varies
/// with the neighbours. An idle broker pays this once per burst.
const IDLE_POLL: SimDuration = SimDuration::from_millis(1);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a_bytes(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Stable owner shard for a topic first segment: FNV-1a of the segment
/// bytes modulo the shard count. Public so other shard layouts — the
/// simulator bridge in [`crate::simtopo`], capacity harnesses — place
/// topics exactly where the live runtime would.
pub fn owner_shard(head: &str, shards: usize) -> usize {
    (fnv1a_bytes(head.as_bytes()) % shards as u64) as usize
}

/// Stable home shard for a client id: FNV-1a of the id's little-endian
/// bytes modulo the shard count. Public for the same reason as
/// [`owner_shard`] — one placement function, every deployment shape.
pub fn home_shard(client: ClientId, shards: usize) -> usize {
    (fnv1a_bytes(&client.value().to_le_bytes()) % shards as u64) as usize
}

/// The owner shard for a whole topic (hash of its first segment; empty
/// topics fall back to shard 0, mirroring [`ShardedClient::publish_class`]).
pub fn owner_shard_of_topic(topic: &Topic, shards: usize) -> usize {
    match topic.segments().first() {
        Some(head) => owner_shard(head, shards),
        None => 0,
    }
}

/// Whether shard `index` can own topics matching `filter`. A literal
/// head pins the filter to one shard; a wildcard head (`*` or bare `#`)
/// can match topics on every shard.
fn shard_may_own(filter: &TopicFilter, index: usize, shards: usize) -> bool {
    match filter.first_literal() {
        Some(head) => owner_shard(head, shards) == index,
        None => true,
    }
}

enum ShardCmd {
    Attach {
        client: ClientId,
        profile: TransportProfile,
        /// `Some` only on the client's home shard.
        delivery: Option<MailboxWriter>,
    },
    Detach(ClientId),
    Subscribe(ClientId, TopicFilter),
    Unsubscribe(ClientId, TopicFilter),
    Event(Inbound),
    /// Flush everything queued ahead of this command, then ack.
    Barrier(BarrierAck),
    /// Sleep the worker (chaos/backpressure testing).
    Stall(Duration),
    Shutdown,
}

/// A data event entering a shard. Where it comes from decides who
/// counts it and whether it may still hop the ring.
enum Inbound {
    /// A client's publish, at the topic's owner shard.
    Publish(ClientId, Arc<Event>),
    /// An event hopping the ring from its owner shard to a subscriber's
    /// home shard: the owner's own `Arc`, so every target shard delivers
    /// the one allocation. Delivered from the receiving shard's route
    /// plan and never re-forwarded.
    Forward(Arc<Event>),
    /// An event arriving from *outside* this broker — another cluster
    /// node forwarded it over the federation wire, and the cluster layer
    /// decoded it. It enters at the topic's owner shard and fans out
    /// exactly like a local publish (local deliveries plus one ring hop
    /// to subscriber home shards). It is never sent back to the cluster:
    /// inter-node routing happens a layer above, in [`crate::cluster`].
    Inject(Arc<Event>),
}

fn cmd_bytes(cmd: &ShardCmd) -> usize {
    match cmd {
        ShardCmd::Event(
            Inbound::Publish(_, event) | Inbound::Forward(event) | Inbound::Inject(event),
        ) => event.payload.len(),
        _ => 0,
    }
}

/// One shard's ingress: a bounded multi-producer queue the worker takes
/// whole. `capacity` binds client publishes and injects; everything
/// else is always accepted.
struct Ingress {
    queue: Mutex<IngressQueue>,
    /// The worker sleeps here while the queue is empty.
    work: Condvar,
    /// Bounded producers sleep here while the queue is full.
    room: Condvar,
    capacity: usize,
    /// Mirrors the queue's length: the `queue_depth` instrument.
    depth: Arc<Gauge>,
}

#[derive(Default)]
struct IngressQueue {
    commands: Vec<ShardCmd>,
    /// The worker is asleep on `work` and nobody has woken it yet: the
    /// only state in which a producer issues a wake.
    parked: bool,
    /// Producers asleep on `room`.
    waiting: usize,
    /// Shutdown was requested or the worker is gone: nothing more is
    /// accepted, and what is refused is dropped.
    closed: bool,
}

impl Ingress {
    fn new(capacity: usize, depth: Arc<Gauge>) -> Self {
        Self {
            queue: Mutex::new(IngressQueue::default()),
            work: Condvar::new(),
            room: Condvar::new(),
            capacity,
            depth,
        }
    }

    /// Enqueues without waiting, whatever the queue's length.
    fn push(&self, cmd: ShardCmd) {
        self.enqueue(self.queue.lock(), cmd);
    }

    /// Enqueues a client publish, sleeping while the queue is at
    /// capacity. Closing the queue releases the sleeper and drops the
    /// command, so publishers can never hang on a dead broker — and a
    /// publish that happens-after [`ShardedBroker::shutdown`] returned
    /// finds the queue closed under the same lock that closed it.
    fn push_bounded(&self, cmd: ShardCmd) {
        let mut queue = self.queue.lock();
        while queue.commands.len() >= self.capacity && !queue.closed {
            queue.waiting += 1;
            self.room.wait(&mut queue);
            queue.waiting -= 1;
        }
        self.enqueue(queue, cmd);
    }

    fn enqueue(&self, mut queue: MutexGuard<'_, IngressQueue>, cmd: ShardCmd) {
        if queue.closed {
            drop(queue);
            return; // `cmd` is dropped unqueued, outside the lock
        }
        queue.commands.push(cmd);
        self.depth.set(queue.commands.len() as i64);
        self.unlock_and_wake(queue);
    }

    /// Unlocks, then wakes the worker if it was asleep and nobody has
    /// woken it since.
    fn unlock_and_wake(&self, mut queue: MutexGuard<'_, IngressQueue>) {
        let wake = std::mem::take(&mut queue.parked);
        drop(queue);
        if wake {
            self.work.notify_one();
        }
    }

    /// Moves everything queued into `taken` (which must be empty; its
    /// capacity becomes the queue's), waiting first if there is
    /// nothing. This is the worker's one sanctioned park point.
    fn take_all(&self, taken: &mut Vec<ShardCmd>) {
        let mut queue = self.queue.lock();
        if queue.commands.is_empty() {
            // Gone idle: watch the length for `IDLE_POLL`, offering the
            // core to any runnable thread each turn, before sleeping.
            drop(queue);
            let give_up = monotonic_now().saturating_add(IDLE_POLL);
            while self.depth.get() == 0 && monotonic_now() < give_up {
                std::thread::yield_now();
            }
            queue = self.queue.lock();
        }
        while queue.commands.is_empty() {
            queue.parked = true;
            self.work.wait(&mut queue);
        }
        std::mem::swap(&mut queue.commands, taken);
        self.depth.set(0);
        let waiting = queue.waiting;
        drop(queue);
        if waiting > 0 {
            self.room.notify_all();
        }
    }

    /// Shutdown: `last` is the final command this queue accepts, and
    /// every sleeping producer is released. Idempotent.
    fn close(&self, last: ShardCmd) {
        let mut queue = self.queue.lock();
        if queue.closed {
            return;
        }
        queue.closed = true;
        queue.commands.push(last);
        self.depth.set(queue.commands.len() as i64);
        self.unlock_and_wake(queue);
        self.room.notify_all();
    }

    /// The consumer is gone: nothing more is accepted, and what is
    /// still queued is dropped (which acks any barrier in it).
    fn abandon(&self) {
        let mut queue = self.queue.lock();
        queue.closed = true;
        let dropped = std::mem::take(&mut queue.commands);
        self.depth.set(0);
        drop(queue);
        self.room.notify_all();
        drop(dropped);
    }
}

/// What [`ShardedBroker::quiesce`] waits on: barrier acks still owed.
struct Latch {
    owed: Mutex<usize>,
    settled: Condvar,
}

/// One shard's share of a barrier; dropping it is the ack, so a
/// barrier that a closed ingress refuses, or that dies with its queue,
/// still counts down.
struct BarrierAck(Arc<Latch>);

impl Drop for BarrierAck {
    fn drop(&mut self) {
        let mut owed = self.0.owed.lock();
        *owed = owed.saturating_sub(1);
        if *owed == 0 {
            self.0.settled.notify_all();
        }
    }
}

/// One client's egress: the buffer its home worker appends to and the
/// client handle drains, shared by both.
pub(crate) struct Mailbox {
    /// Mirrors the buffer's length (written under the lock), so a drain
    /// that would find nothing returns without taking it.
    len: AtomicUsize,
    inbox: Mutex<Inbox>,
    /// Receivers sleep here while the buffer is empty.
    ready: Condvar,
}

#[derive(Default)]
struct Inbox {
    events: VecDeque<Arc<Event>>,
    /// Receivers asleep on `ready`: the worker wakes only these.
    waiting: usize,
    /// The worker-side handle is gone: nothing more will arrive.
    closed: bool,
}

impl Mailbox {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            len: AtomicUsize::new(0),
            inbox: Mutex::new(Inbox::default()),
            ready: Condvar::new(),
        })
    }

    /// Worker side: moves `staged` in, leaving it empty with its
    /// capacity.
    fn append(&self, staged: &mut Vec<Arc<Event>>) {
        let mut inbox = self.inbox.lock();
        inbox.events.extend(staged.drain(..));
        self.len.store(inbox.events.len(), Ordering::Release);
        self.unlock_and_wake(inbox);
    }

    /// Unlocks, then wakes the receivers that are actually asleep.
    fn unlock_and_wake(&self, inbox: MutexGuard<'_, Inbox>) {
        let wake = inbox.waiting > 0;
        drop(inbox);
        if wake {
            self.ready.notify_all();
        }
    }

    fn drain_into(&self, sink: &mut Vec<Arc<Event>>) -> usize {
        // Pairs with the `Release` stores under the lock: an append that
        // happens-before this call (a barrier ack, say) is seen here.
        if self.len.load(Ordering::Acquire) == 0 {
            return 0;
        }
        let mut inbox = self.inbox.lock();
        let drained = inbox.events.len();
        sink.extend(inbox.events.drain(..));
        self.len.store(0, Ordering::Release);
        drained
    }

    fn try_recv(&self) -> Option<Arc<Event>> {
        if self.len.load(Ordering::Acquire) == 0 {
            return None;
        }
        let mut inbox = self.inbox.lock();
        let event = inbox.events.pop_front();
        self.len.store(inbox.events.len(), Ordering::Release);
        event
    }

    /// Pops the next event, sleeping up to `timeout` for one. A closed
    /// mailbox hands out what it still holds, then `None` at once.
    pub(crate) fn recv_timeout(&self, timeout: Duration) -> Option<Arc<Event>> {
        let nanos = u64::try_from(timeout.as_nanos()).unwrap_or(u64::MAX);
        let deadline = monotonic_now().saturating_add(SimDuration::from_nanos(nanos));
        let mut inbox = self.inbox.lock();
        loop {
            if let Some(event) = inbox.events.pop_front() {
                self.len.store(inbox.events.len(), Ordering::Release);
                return Some(event);
            }
            let left = deadline.saturating_duration_since(monotonic_now());
            if inbox.closed || left == SimDuration::ZERO {
                return None;
            }
            inbox.waiting += 1;
            self.ready.wait_for(&mut inbox, Duration::from_nanos(left.as_nanos()));
            inbox.waiting -= 1;
        }
    }
}

/// The home worker's end of a [`Mailbox`]; dropping it (detach, worker
/// exit) closes the mailbox and wakes its receivers.
struct MailboxWriter(Arc<Mailbox>);

impl Drop for MailboxWriter {
    fn drop(&mut self) {
        let mut inbox = self.0.inbox.lock();
        inbox.closed = true;
        self.0.unlock_and_wake(inbox);
    }
}

/// Shared command-routing state between the broker handle, its clients,
/// and (read-only) the workers.
struct Router {
    shards: Vec<Arc<Ingress>>,
    next_client: AtomicU64,
}

impl Router {
    fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn broadcast(&self, mut make: impl FnMut() -> ShardCmd) {
        for ingress in &self.shards {
            ingress.push(make());
        }
    }

    /// Client-publish enqueue, bounded by the owner shard's capacity.
    fn publish_to(&self, shard: usize, cmd: ShardCmd) {
        // Shard indices come from `owner_shard(_, self.shard_count())`, so
        // this lookup cannot miss; `get` keeps the hot path panic-free.
        if let Some(ingress) = self.shards.get(shard) {
            ingress.push_bounded(cmd);
        }
    }
}

/// Configures a [`ShardedBroker`] before spawning it.
#[derive(Default)]
pub struct ShardedBrokerBuilder {
    shards: usize,
    capacity: usize,
    metrics: Option<Arc<ShardedBrokerMetrics>>,
}

impl ShardedBrokerBuilder {
    /// Per-shard ingress capacity; a client publish waits while the
    /// owner shard's queue holds this many commands. Defaults to 65 536.
    pub fn capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }

    /// Installs per-shard telemetry. The bundle's shard count must
    /// match the builder's.
    pub fn metrics(mut self, metrics: Arc<ShardedBrokerMetrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Spawns the worker threads.
    ///
    /// # Panics
    ///
    /// Panics if the shard count or capacity is zero, or if an installed
    /// metrics bundle was registered for a different shard count.
    pub fn spawn(self) -> ShardedBroker {
        assert!(self.shards > 0, "shard count must be positive");
        assert!(self.capacity > 0, "shard capacity must be positive");
        if let Some(m) = &self.metrics {
            assert!(
                m.shard_count() == self.shards,
                "metrics bundle has {} shards, broker has {}",
                m.shard_count(),
                self.shards
            );
        }
        ShardedBroker::spawn_inner(self.shards, self.capacity, self.metrics)
    }
}

/// A broker runtime spread across N worker shards. See the
/// [module docs](self) for the topology.
pub struct ShardedBroker {
    router: Arc<Router>,
    handles: Vec<JoinHandle<()>>,
}

impl ShardedBroker {
    /// Spawns `shards` worker threads with default capacity and no
    /// telemetry.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn spawn(shards: usize) -> Self {
        Self::builder(shards).spawn()
    }

    /// Spawns one worker per bundle shard with telemetry installed:
    /// each shard's node reports the hot-path instruments, the ingress
    /// gauges double as `queue_depth`, batch sizes land in
    /// `batch_size`, and ring sends in `cross_shard_forwards`.
    ///
    /// # Panics
    ///
    /// Panics if the bundle has zero shards.
    pub fn spawn_with_metrics(metrics: Arc<ShardedBrokerMetrics>) -> Self {
        Self::builder(metrics.shard_count()).metrics(metrics).spawn()
    }

    /// Starts configuring a broker with `shards` worker shards.
    pub fn builder(shards: usize) -> ShardedBrokerBuilder {
        ShardedBrokerBuilder {
            shards,
            capacity: DEFAULT_SHARD_CAPACITY,
            metrics: None,
        }
    }

    fn spawn_inner(
        shards: usize,
        capacity: usize,
        metrics: Option<Arc<ShardedBrokerMetrics>>,
    ) -> Self {
        let links: Vec<Arc<Ingress>> = (0..shards)
            .map(|index| {
                let depth = match &metrics {
                    Some(m) => Arc::clone(&m.shard(index).queue_depth),
                    None => Arc::new(Gauge::new()),
                };
                Arc::new(Ingress::new(capacity, depth))
            })
            .collect();
        let mut handles = Vec::with_capacity(shards);
        for index in 0..shards {
            let worker = ShardWorker::new(
                index,
                links.clone(),
                metrics.as_ref().map(|m| Arc::clone(m.shard(index))),
            );
            let handle = std::thread::Builder::new()
                .name(format!("mmcs-shard{index}"))
                .spawn(move || worker.run())
                .expect("spawn shard worker thread");
            handles.push(handle);
        }
        Self {
            router: Arc::new(Router {
                shards: links,
                next_client: AtomicU64::new(1),
            }),
            handles,
        }
    }

    /// Number of worker shards.
    pub fn shard_count(&self) -> usize {
        self.router.shard_count()
    }

    /// The shard that owns publishes to `topic` (hash of its first
    /// segment).
    pub fn shard_for_topic(&self, topic: &Topic) -> usize {
        owner_shard_of_topic(topic, self.shard_count())
    }

    /// The shard holding `client`'s subscriptions and delivery queue.
    pub fn home_shard(&self, client: ClientId) -> usize {
        home_shard(client, self.shard_count())
    }

    /// Attaches a client with the default (TCP) profile.
    pub fn attach(&self) -> ShardedClient {
        self.attach_with(TransportProfile::default())
    }

    /// Attaches a client with an explicit transport profile. The client
    /// is attached on every shard (publish validation is local to the
    /// owner shard) but homed — subscriptions and deliveries — on one.
    pub fn attach_with(&self, profile: TransportProfile) -> ShardedClient {
        let id = ClientId::from_raw(self.router.next_client.fetch_add(1, Ordering::Relaxed));
        self.attach_as_with(id, profile)
    }

    /// Attaches a client under a caller-chosen id with the default
    /// profile. See [`ShardedBroker::attach_as_with`].
    pub fn attach_as(&self, id: ClientId) -> ShardedClient {
        self.attach_as_with(id, TransportProfile::default())
    }

    /// Attaches a client under a caller-chosen id. The federation layer
    /// ([`crate::cluster`]) allocates client ids at cluster scope so
    /// they stay globally unique across nodes and survive a client
    /// moving between zone gateways. The caller owns uniqueness: a
    /// duplicate id is rejected shard-side and the returned handle
    /// receives nothing.
    pub fn attach_as_with(&self, id: ClientId, profile: TransportProfile) -> ShardedClient {
        let home = self.home_shard(id);
        let mailbox = Mailbox::new();
        for (index, ingress) in self.router.shards.iter().enumerate() {
            ingress.push(ShardCmd::Attach {
                client: id,
                profile,
                delivery: (index == home).then(|| MailboxWriter(Arc::clone(&mailbox))),
            });
        }
        ShardedClient {
            id,
            home,
            router: Arc::clone(&self.router),
            mailbox,
            seq: AtomicU64::new(0),
        }
    }

    /// Injects an externally-routed event into this broker as if it had
    /// been published locally: it is enqueued at its topic's owner shard
    /// (bounded by its capacity like a client publish), delivered to
    /// local subscribers and ring-forwarded to subscriber home shards.
    /// The event is **not** re-advertised or routed back out — the
    /// caller (the cluster layer) owns inter-node routing, and decodes
    /// what arrives off a link before handing it here.
    pub fn inject(&self, event: Arc<Event>) {
        let shard = owner_shard_of_topic(&event.topic, self.shard_count());
        self.router
            .publish_to(shard, ShardCmd::Event(Inbound::Inject(event)));
    }

    /// Waits until every command enqueued before this call — including
    /// cross-shard forwards those commands generate — has been
    /// processed and its deliveries appended to their mailboxes, where
    /// the next `drain_into` sees them. Two barrier rounds suffice
    /// because forwarding is one-hop: round one drains direct publishes
    /// (enqueueing their forwards), round two drains the forwards. A
    /// shard that has shut down acks by refusing the barrier.
    pub fn quiesce(&self) {
        for _ in 0..2 {
            let latch = Arc::new(Latch {
                owed: Mutex::new(self.shard_count()),
                settled: Condvar::new(),
            });
            for ingress in &self.router.shards {
                ingress.push(ShardCmd::Barrier(BarrierAck(Arc::clone(&latch))));
            }
            let mut owed = latch.owed.lock();
            while *owed > 0 {
                latch.settled.wait(&mut owed);
            }
        }
    }

    /// Sleeps shard `index`'s worker for `duration` once it reaches
    /// this command — a deterministic way to pile up its ingress queue
    /// for backpressure and chaos tests.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn stall_shard(&self, index: usize, duration: Duration) {
        self.router.shards[index].push(ShardCmd::Stall(duration));
    }

    /// Stops all worker shards (idempotent, asynchronous: the workers
    /// exit on their own threads and are joined on drop).
    ///
    /// The contract: a publish (or [`ShardedBroker::inject`]) that
    /// happens-after `shutdown()` returns is dropped — it is neither
    /// enqueued nor delivered — and a publisher waiting at the ingress
    /// bound is released. `Shutdown` is the last command each ingress
    /// ever accepts: what was enqueued ahead of it is still routed and
    /// flushed, then the worker exits, which closes its clients'
    /// mailboxes.
    pub fn shutdown(&self) {
        for ingress in &self.router.shards {
            ingress.close(ShardCmd::Shutdown);
        }
    }
}

impl Drop for ShardedBroker {
    fn drop(&mut self) {
        self.shutdown();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for ShardedBroker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedBroker")
            .field("shards", &self.shard_count())
            .finish_non_exhaustive()
    }
}

/// A client handle bound to a [`ShardedBroker`]. Deliveries arrive in
/// the client's mailbox, appended by its home worker once per processed
/// batch, and are taken one at a time or all at once.
pub struct ShardedClient {
    id: ClientId,
    home: usize,
    router: Arc<Router>,
    mailbox: Arc<Mailbox>,
    seq: AtomicU64,
}

impl ShardedClient {
    /// This client's id.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// This client's home shard index.
    pub fn home_shard(&self) -> usize {
        self.home
    }

    /// The receiving end, for a wrapper that must wait on it without
    /// holding whatever guards this handle.
    pub(crate) fn mailbox(&self) -> Arc<Mailbox> {
        Arc::clone(&self.mailbox)
    }

    /// Subscribes to a filter. The subscription is broadcast to all
    /// shards; the home shard records it locally and topic-owning
    /// shards gain refcounted remote interest pointing home.
    pub fn subscribe(&self, filter: TopicFilter) {
        self.router
            .broadcast(|| ShardCmd::Subscribe(self.id, filter.clone()));
    }

    /// Removes one subscription.
    pub fn unsubscribe(&self, filter: TopicFilter) {
        self.router
            .broadcast(|| ShardCmd::Unsubscribe(self.id, filter.clone()));
    }

    /// Publishes a data event to its owner shard, waiting while that
    /// shard's queue is at capacity.
    pub fn publish(&self, topic: Topic, payload: bytes::Bytes) {
        self.publish_class(topic, EventClass::Data, payload);
    }

    /// Publishes an event with an explicit class.
    pub fn publish_class(&self, topic: Topic, class: EventClass, payload: bytes::Bytes) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let shard = owner_shard_of_topic(&topic, self.router.shard_count());
        let event = Event::new(topic, self.id, seq, class, payload).into_shared();
        self.router
            .publish_to(shard, ShardCmd::Event(Inbound::Publish(self.id, event)));
    }

    /// Publishes an event built by the caller as this client's publish
    /// (its `source` should be this client). The federation layer
    /// numbers a client's events across zone moves itself, and shares
    /// the one `Arc` with the frames it sends to other nodes.
    pub(crate) fn publish_shared(&self, event: Arc<Event>) {
        let shard = owner_shard_of_topic(&event.topic, self.router.shard_count());
        self.router
            .publish_to(shard, ShardCmd::Event(Inbound::Publish(self.id, event)));
    }

    /// Receives the next delivered event, waiting up to `timeout` for
    /// one. Once the home worker has let go of this client (detach,
    /// shutdown) what was already delivered is still handed out, then
    /// `None` at once.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Arc<Event>> {
        self.mailbox.recv_timeout(timeout)
    }

    /// Drains everything currently delivered into `sink` without
    /// blocking, returning how many events were appended: a length
    /// check when there is nothing, otherwise one lock and one move of
    /// the whole buffer — per-event cost is a pointer move.
    pub fn drain_into(&self, sink: &mut Vec<Arc<Event>>) -> usize {
        self.mailbox.drain_into(sink)
    }

    /// Receives without blocking.
    pub fn try_recv(&self) -> Option<Arc<Event>> {
        self.mailbox.try_recv()
    }

    /// Detaches this client everywhere (also done on drop).
    pub fn detach(&self) {
        self.router.broadcast(|| ShardCmd::Detach(self.id));
    }
}

impl Drop for ShardedClient {
    fn drop(&mut self) {
        self.detach();
    }
}

impl std::fmt::Debug for ShardedClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedClient")
            .field("id", &self.id)
            .field("home", &self.home)
            .finish_non_exhaustive()
    }
}

/// A homed client as its worker sees it: the mailbox and the deliveries
/// staged for it since the last flush.
struct Slot {
    mailbox: MailboxWriter,
    staged: Vec<Arc<Event>>,
}

/// The worker's side of client egress: one multiply-hashed lookup per
/// delivery, and a flush that touches only the clients something was
/// staged for.
#[derive(Default)]
struct Egress {
    /// The clients homed on this shard.
    slots: IdMap<ClientId, Slot>,
    /// Clients with staged deliveries, in first-staged order.
    dirty: Vec<ClientId>,
}

impl Egress {
    /// Stages `event` for `client` if it is homed here.
    fn stage(&mut self, client: ClientId, event: &Arc<Event>) -> bool {
        let Some(slot) = self.slots.get_mut(&client) else {
            return false;
        };
        if slot.staged.is_empty() {
            self.dirty.push(client);
        }
        slot.staged.push(Arc::clone(event));
        true
    }

    /// Appends every staged delivery to its client's mailbox.
    fn flush(&mut self) {
        for client in self.dirty.drain(..) {
            // A client detached since it was staged for has no slot.
            if let Some(slot) = self.slots.get_mut(&client) {
                slot.mailbox.0.append(&mut slot.staged);
            }
        }
    }
}

/// Per-worker state: one node slice plus the driver-level subscription
/// ownership map.
struct ShardWorker {
    index: usize,
    shards: usize,
    /// Every shard's ingress, this worker's own at `index`.
    links: Vec<Arc<Ingress>>,
    metrics: Option<Arc<BrokerMetrics>>,
    node: BrokerNode,
    egress: Egress,
    /// Every client's filter list (all shards track all clients, so
    /// duplicate subscribes dedup identically everywhere).
    filters: HashMap<ClientId, Vec<TopicFilter>>,
    /// Refcounts for remote interest this shard holds on behalf of
    /// other shards' clients, keyed by (home shard, filter).
    remote_refs: HashMap<(usize, TopicFilter), usize>,
    /// Barrier acks owed after the current batch's flush.
    acks: Vec<BarrierAck>,
    /// Scratch buffer for the actions control inputs emit.
    actions: Vec<Action>,
}

impl Drop for ShardWorker {
    /// However the worker ends, producers must not wait on a queue
    /// nobody takes from any more.
    fn drop(&mut self) {
        if let Some(ingress) = self.links.get(self.index) {
            ingress.abandon();
        }
    }
}

impl ShardWorker {
    /// Worker `index` of the `links.len()` shards reachable over `links`.
    fn new(index: usize, links: Vec<Arc<Ingress>>, metrics: Option<Arc<BrokerMetrics>>) -> Self {
        Self {
            index,
            shards: links.len(),
            links,
            metrics,
            node: BrokerNode::new(BrokerId::from_raw(index as u64)),
            egress: Egress::default(),
            filters: HashMap::new(),
            remote_refs: HashMap::new(),
            acks: Vec::new(),
            actions: Vec::new(),
        }
    }

    fn run(mut self) {
        if let Some(m) = &self.metrics {
            self.node.set_metrics(Arc::clone(m));
        }
        // Ring setup: every other shard is a peer.
        for peer in 0..self.shards {
            if peer == self.index {
                continue;
            }
            self.apply_control(Input::LinkUp {
                peer: BrokerId::from_raw(peer as u64),
            });
        }
        let Some(ingress) = self.links.get(self.index).map(Arc::clone) else {
            return;
        };
        let mut taken = Vec::new();
        loop {
            ingress.take_all(&mut taken);
            let mut commands = taken.drain(..);
            while commands.len() > 0 {
                if !self.process_batch(&mut commands) {
                    return;
                }
            }
        }
    }

    /// Processes commands up to the flush cadence, then hands the
    /// staged deliveries over and acks; returns `false` on shutdown.
    fn process_batch(&mut self, commands: &mut std::vec::Drain<'_, ShardCmd>) -> bool {
        let (mut count, mut bytes) = (0, 0);
        let mut running = true;
        while count < SHARD_BATCH_MAX && bytes < SHARD_BATCH_BYTES {
            let Some(cmd) = commands.next() else {
                break;
            };
            count += 1;
            bytes += cmd_bytes(&cmd);
            match cmd {
                ShardCmd::Attach {
                    client,
                    profile,
                    delivery,
                } => {
                    if let Some(mailbox) = delivery {
                        let slot = Slot {
                            mailbox,
                            staged: Vec::new(),
                        };
                        self.egress.slots.insert(client, slot);
                    }
                    self.apply_control(Input::AttachClient { client, profile });
                }
                ShardCmd::Detach(client) => self.detach(client),
                ShardCmd::Subscribe(client, filter) => self.subscribe(client, filter),
                ShardCmd::Unsubscribe(client, filter) => self.unsubscribe(client, filter),
                ShardCmd::Event(inbound) => self.fan_out(inbound),
                ShardCmd::Barrier(ack) => self.acks.push(ack),
                ShardCmd::Stall(duration) => std::thread::sleep(duration),
                ShardCmd::Shutdown => {
                    // Stop here, not at the end of the batch: commands
                    // taken behind the shutdown are dropped unrouted.
                    running = false;
                    break;
                }
            }
        }
        if let Some(m) = &self.metrics {
            m.batch_size.record(count as u64);
        }
        self.egress.flush();
        // Acked only now: everything staged ahead of a barrier is in
        // its mailbox before the barrier's waiter wakes.
        self.acks.clear();
        running
    }

    /// Applies a control input to the node. Its advert actions are
    /// discarded — interest is driven by the router's explicit
    /// subscription broadcast, not the node's advert gossip — and so are
    /// its errors: a rejected input leaves the node unchanged.
    fn apply_control(&mut self, input: Input) {
        let _ = self.node.handle_into(input, &mut self.actions);
        self.actions.clear();
    }

    fn subscribe(&mut self, client: ClientId, filter: TopicFilter) {
        let known = self
            .filters
            .get(&client)
            .is_some_and(|fs| fs.contains(&filter));
        if known {
            return; // duplicate subscribe: no-op, same as the node.
        }
        self.filters
            .entry(client)
            .or_default()
            .push(filter.clone());
        let home = home_shard(client, self.shards);
        if home == self.index {
            self.apply_control(Input::Subscribe { client, filter });
        } else if shard_may_own(&filter, self.index, self.shards) {
            self.add_remote_ref(home, filter);
        }
    }

    fn unsubscribe(&mut self, client: ClientId, filter: TopicFilter) {
        let removed = match self.filters.get_mut(&client) {
            Some(fs) => match fs.iter().position(|f| *f == filter) {
                Some(pos) => {
                    fs.remove(pos);
                    true
                }
                None => false,
            },
            None => false,
        };
        if !removed {
            return;
        }
        let home = home_shard(client, self.shards);
        if home == self.index {
            self.apply_control(Input::Unsubscribe { client, filter });
        } else if shard_may_own(&filter, self.index, self.shards) {
            self.drop_remote_ref(home, filter);
        }
    }

    fn detach(&mut self, client: ClientId) {
        self.egress.slots.remove(&client);
        let home = home_shard(client, self.shards);
        if let Some(filters) = self.filters.remove(&client) {
            if home != self.index {
                for filter in filters {
                    if shard_may_own(&filter, self.index, self.shards) {
                        self.drop_remote_ref(home, filter);
                    }
                }
            }
            // Home-shard local subscriptions fall with DetachClient.
        }
        self.apply_control(Input::DetachClient { client });
    }

    fn add_remote_ref(&mut self, home: usize, filter: TopicFilter) {
        let refs = self.remote_refs.entry((home, filter.clone())).or_insert(0);
        *refs += 1;
        if *refs == 1 {
            self.apply_control(Input::RemoteSubscribe {
                peer: BrokerId::from_raw(home as u64),
                filter,
            });
        }
    }

    fn drop_remote_ref(&mut self, home: usize, filter: TopicFilter) {
        let gone = match self.remote_refs.get_mut(&(home, filter.clone())) {
            Some(refs) => {
                *refs = refs.saturating_sub(1);
                *refs == 0
            }
            None => false,
        };
        if gone {
            self.remote_refs.remove(&(home, filter.clone()));
            self.apply_control(Input::RemoteUnsubscribe {
                peer: BrokerId::from_raw(home as u64),
                filter,
            });
        }
    }

    /// The one data path, for all three ways an event enters a shard:
    /// stage a delivery for every `plan.local` client, then — unless the
    /// event already crossed the ring — hand a clone of its `Arc` to
    /// every `plan.remote` shard. No `Action` is built.
    // Out of line on purpose: inlined into `process_batch`'s command
    // loop it measured 9 % slower on the `session_churn` benchmark,
    // where control commands interleave with publishes (2-core x86-64
    // guest, 15 alternating 20 s pairs, none ahead).
    #[inline(never)]
    fn fan_out(&mut self, inbound: Inbound) {
        let (publisher, event, hop) = match inbound {
            Inbound::Publish(client, event) => (Some(client), event, true),
            Inbound::Inject(event) => (None, event, true),
            Inbound::Forward(event) => (None, event, false),
        };
        let plan = match publisher {
            // The node validates the publisher and counts the publish.
            Some(client) => match self.node.publish_plan(Origin::Client(client), &event.topic) {
                Ok(plan) => plan,
                // A racing detach invalidated this publish; skip it.
                Err(_) => return,
            },
            None => self.node.plan_for(&event.topic),
        };
        let mut delivered = 0;
        for &(client, _) in &plan.local {
            delivered += u64::from(self.egress.stage(client, &event));
        }
        let mut hops = 0;
        if hop {
            for peer in &plan.remote {
                // Peer ids come from the router's own shard plan, so the
                // index is always in range; `get` keeps a corrupted plan
                // from panicking the worker.
                let Some(link) = self.links.get(peer.value() as usize) else {
                    continue;
                };
                link.push(ShardCmd::Event(Inbound::Forward(Arc::clone(&event))));
                hops += 1;
            }
        }
        if let Some(m) = &self.metrics {
            m.cross_shard_forwards.add(hops);
            if publisher.is_none() {
                // The node never saw this event: count it here the way
                // the node counts a publish, by what this shard did.
                m.events_in.inc();
                m.deliveries.add(delivered);
                m.fanout.record(delivered);
                if delivered == 0 && hops == 0 {
                    m.unroutable.inc();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn topic(s: &str) -> Topic {
        Topic::parse(s).unwrap()
    }

    fn filter(s: &str) -> TopicFilter {
        TopicFilter::parse(s).unwrap()
    }

    const RECV: Duration = Duration::from_secs(2);

    /// Orders this thread's earlier control commands before its next
    /// publish. Several shards need a barrier for that; one shard — the
    /// plain single-loop broker — is one FIFO queue and needs nothing.
    fn settle(broker: &ShardedBroker) {
        if broker.shard_count() > 1 {
            broker.quiesce();
        }
    }

    #[test]
    fn injected_event_delivers_like_a_publish() {
        let broker = ShardedBroker::spawn(4);
        let subscriber = broker.attach();
        subscriber.subscribe(filter("remote/#"));
        broker.quiesce();
        let event = Event::new(
            topic("remote/video"),
            ClientId::from_raw(9001), // a publisher on another node
            7,
            EventClass::Data,
            Bytes::from_static(b"frame"),
        );
        broker.inject(event.into_shared());
        let got = subscriber.recv_timeout(RECV).unwrap();
        assert_eq!(got.source, ClientId::from_raw(9001));
        assert_eq!(got.seq, 7);
        assert_eq!(&got.payload[..], b"frame");
        // Exactly once: nothing else arrives.
        assert!(subscriber.try_recv().is_none());
    }

    #[test]
    fn a_ring_hop_delivers_the_owner_shards_arc() {
        let broker = ShardedBroker::spawn(2);
        let owner = broker.shard_for_topic(&topic("ring/x"));
        // One subscriber homed on the owner shard, one off it.
        let mut on_owner = None;
        let mut off_owner = None;
        while on_owner.is_none() || off_owner.is_none() {
            let client = broker.attach();
            let side = if client.home_shard() == owner {
                &mut on_owner
            } else {
                &mut off_owner
            };
            side.get_or_insert(client);
        }
        let (on_owner, off_owner) = (on_owner.unwrap(), off_owner.unwrap());
        on_owner.subscribe(filter("ring/#"));
        off_owner.subscribe(filter("ring/#"));
        broker.quiesce();
        let publisher = broker.attach();
        publisher.publish(topic("ring/x"), Bytes::from_static(b"once"));
        broker.quiesce();
        let local = on_owner.try_recv().unwrap();
        let hopped = off_owner.try_recv().unwrap();
        assert!(
            Arc::ptr_eq(&local, &hopped),
            "the ring moves the pointer, not a copy"
        );
    }

    #[test]
    fn attach_as_preserves_caller_ids() {
        let broker = ShardedBroker::spawn(2);
        let client = broker.attach_as(ClientId::from_raw(4242));
        assert_eq!(client.id(), ClientId::from_raw(4242));
        client.subscribe(filter("news/#"));
        client.publish(topic("news/x"), Bytes::from_static(b"1"));
        let event = client.recv_timeout(RECV).unwrap();
        assert_eq!(event.source, ClientId::from_raw(4242));
    }

    #[test]
    fn pub_sub_across_shards() {
        for shards in [1, 4] {
            let broker = ShardedBroker::spawn(shards);
            let publisher = broker.attach();
            let subscriber = broker.attach();
            subscriber.subscribe(filter("news/#"));
            publisher.publish(topic("news/tech"), Bytes::from_static(b"1"));
            let event = subscriber.recv_timeout(RECV).unwrap();
            assert_eq!(&event.payload[..], b"1");
            assert_eq!(event.source, publisher.id());
        }
    }

    #[test]
    fn same_first_segment_colocates() {
        let broker = ShardedBroker::spawn(4);
        let control = topic("session/42/control");
        let video = topic("session/42/video/ssrc/9");
        assert_eq!(broker.shard_for_topic(&control), broker.shard_for_topic(&video));
    }

    #[test]
    fn overlapping_filters_deliver_exactly_once() {
        let broker = ShardedBroker::spawn(4);
        let publisher = broker.attach();
        let subscriber = broker.attach();
        // Wildcard-head and literal-head filters both match; the home
        // shard's plan dedups them into one delivery.
        subscriber.subscribe(filter("#"));
        subscriber.subscribe(filter("a/#"));
        publisher.publish(topic("a/b"), Bytes::from_static(b"x"));
        broker.quiesce();
        assert!(subscriber.recv_timeout(RECV).is_some());
        assert!(subscriber.try_recv().is_none());
    }

    #[test]
    fn wildcard_head_filter_sees_every_shard() {
        let broker = ShardedBroker::spawn(4);
        let publisher = broker.attach();
        let subscriber = broker.attach();
        subscriber.subscribe(filter("#"));
        // First segments chosen to spread across shards.
        let topics = ["alpha/x", "bravo/x", "charlie/x", "delta/x", "echo/x"];
        for t in &topics {
            publisher.publish(topic(t), Bytes::new());
        }
        let mut got = 0;
        while subscriber.recv_timeout(RECV).is_some() {
            got += 1;
            if got == topics.len() {
                break;
            }
        }
        assert_eq!(got, topics.len());
    }

    #[test]
    fn per_topic_order_is_preserved() {
        let broker = ShardedBroker::spawn(4);
        let publisher = broker.attach();
        let subscriber = broker.attach();
        subscriber.subscribe(filter("ord/#"));
        for i in 0..100u64 {
            publisher.publish(topic("ord/t"), Bytes::from(i.to_le_bytes().to_vec()));
        }
        for i in 0..100u64 {
            let event = subscriber.recv_timeout(RECV).unwrap();
            assert_eq!(event.seq, i);
        }
    }

    #[test]
    fn drain_into_interleaves_with_single_recv() {
        let broker = ShardedBroker::spawn(2);
        let publisher = broker.attach();
        let subscriber = broker.attach();
        subscriber.subscribe(filter("d/#"));
        broker.quiesce();
        for i in 0..50u64 {
            publisher.publish(topic("d/t"), Bytes::from(i.to_le_bytes().to_vec()));
        }
        broker.quiesce();
        // Pop one event, then take the rest whole: both read the same
        // mailbox, so nothing is lost, duplicated or reordered.
        let first = subscriber.recv_timeout(RECV).unwrap();
        assert_eq!(first.seq, 0);
        let mut rest = Vec::new();
        assert_eq!(subscriber.drain_into(&mut rest), 49);
        for (i, event) in rest.iter().enumerate() {
            assert_eq!(event.seq, i as u64 + 1);
        }
        assert_eq!(subscriber.drain_into(&mut rest), 0);
        assert!(subscriber.try_recv().is_none());
    }

    #[test]
    fn unsubscribe_stops_flow_once_settled() {
        for shards in [1, 4] {
            let broker = ShardedBroker::spawn(shards);
            let publisher = broker.attach();
            let subscriber = broker.attach();
            subscriber.subscribe(filter("u/x"));
            publisher.publish(topic("u/x"), Bytes::new());
            assert!(subscriber.recv_timeout(RECV).is_some());
            subscriber.unsubscribe(filter("u/x"));
            settle(&broker);
            publisher.publish(topic("u/x"), Bytes::new());
            broker.quiesce();
            assert!(subscriber.try_recv().is_none());
        }
    }

    #[test]
    fn detach_stops_delivery_and_fresh_client_works() {
        for shards in [1, 2] {
            let broker = ShardedBroker::spawn(shards);
            let publisher = broker.attach();
            {
                let subscriber = broker.attach();
                subscriber.subscribe(filter("d/#"));
            } // dropped -> detach broadcast
            settle(&broker);
            publisher.publish(topic("d/x"), Bytes::new());
            let fresh = broker.attach();
            fresh.subscribe(filter("d/#"));
            settle(&broker);
            publisher.publish(topic("d/x"), Bytes::new());
            assert!(fresh.recv_timeout(RECV).is_some());
            assert!(fresh.try_recv().is_none());
        }
    }

    #[test]
    fn metrics_identities_hold_after_quiesce() {
        for shards in [1, 4] {
            metrics_identities_hold(shards);
        }
    }

    fn metrics_identities_hold(shards: usize) {
        let metrics = ShardedBrokerMetrics::detached(shards);
        let broker = ShardedBroker::spawn_with_metrics(Arc::clone(&metrics));
        let publisher = broker.attach();
        let sub_a = broker.attach();
        let sub_b = broker.attach();
        sub_a.subscribe(filter("#"));
        sub_b.subscribe(filter("m/#"));
        broker.quiesce();
        let publishes = 40u64;
        for i in 0..publishes {
            publisher.publish(topic(&format!("m/{}", i % 4)), Bytes::new());
        }
        broker.quiesce();
        // Both subscribers match every publish.
        assert_eq!(metrics.total(|s| s.deliveries.get()), publishes * 2);
        // Every event enters its owner shard once plus once per ring hop
        // (one shard has no ring), and records its fan-out where it enters.
        let forwards = metrics.total(|s| s.cross_shard_forwards.get());
        assert!(shards > 1 || forwards == 0);
        assert_eq!(metrics.total(|s| s.events_in.get()), publishes + forwards);
        assert_eq!(metrics.total(|s| s.fanout.count()), publishes + forwards);
        // Quiesced: nothing left in any ingress queue.
        for shard in metrics.shards() {
            assert_eq!(shard.queue_depth.get(), 0);
        }
        // The batch-size histogram saw every drain.
        assert!(metrics.total(|s| s.batch_size.count()) > 0);
        // Drain both subscribers fully.
        let mut got = 0;
        while sub_a.try_recv().is_some() || sub_b.try_recv().is_some() {
            got += 1;
        }
        assert_eq!(got, (publishes * 2) as usize);
    }

    #[test]
    fn backpressure_waits_then_delivers_everything() {
        let broker = ShardedBroker::builder(2).capacity(4).spawn();
        let publisher = broker.attach();
        let subscriber = broker.attach();
        subscriber.subscribe(filter("bp/#"));
        broker.quiesce();
        // Stall the owner shard so its queue fills to capacity and the
        // publisher has to wait.
        let owner = broker.shard_for_topic(&topic("bp/x"));
        broker.stall_shard(owner, Duration::from_millis(50));
        for _ in 0..64 {
            publisher.publish(topic("bp/x"), Bytes::new());
        }
        let mut got = 0;
        while subscriber.recv_timeout(RECV).is_some() {
            got += 1;
            if got == 64 {
                break;
            }
        }
        assert_eq!(got, 64);
    }

    #[test]
    fn shutdown_is_idempotent_and_unblocks_publishers() {
        let broker = ShardedBroker::builder(2).capacity(2).spawn();
        let publisher = broker.attach();
        let subscriber = broker.attach();
        subscriber.subscribe(filter("s/#"));
        broker.shutdown();
        broker.shutdown();
        // Publishes after shutdown go nowhere but must not hang even
        // with a tiny capacity.
        for _ in 0..16 {
            publisher.publish(topic("s/x"), Bytes::new());
        }
        assert!(subscriber.recv_timeout(Duration::from_millis(200)).is_none());
    }

    #[test]
    fn shutdown_drops_publishes_that_happen_after_it() {
        let metrics = ShardedBrokerMetrics::detached(1);
        let broker = ShardedBroker::builder(1)
            .capacity(4)
            .metrics(Arc::clone(&metrics))
            .spawn();
        let subscriber = broker.attach();
        let publisher = broker.attach();
        let racer = broker.attach();
        subscriber.subscribe(filter("s/#"));
        broker.quiesce();
        // Hold the worker mid-batch: once the gauge reads empty it has
        // dequeued the stall and sleeps inside `process_batch`.
        broker.stall_shard(0, Duration::from_millis(250));
        while metrics.shard(0).queue_depth.get() != 0 {
            std::thread::yield_now();
        }
        // Fill the queue to its capacity ahead of the shutdown.
        for _ in 0..4 {
            publisher.publish(topic("s/x"), Bytes::from_static(b"before"));
        }
        std::thread::scope(|scope| {
            // A racing publisher blocks on backpressure until shutdown
            // releases it; the scope joining proves it never hangs.
            scope.spawn(move || {
                for _ in 0..16 {
                    racer.publish(topic("s/x"), Bytes::from_static(b"racing"));
                }
            });
            broker.shutdown();
            broker.shutdown();
        });
        // These happen-after `shutdown()` returned: dropped, never
        // enqueued behind the worker's `Shutdown` command.
        for _ in 0..16 {
            publisher.publish(topic("s/x"), Bytes::from_static(b"after"));
        }
        // The worker wakes, routes what was queued ahead of the
        // shutdown, flushes it and exits (which closes the mailbox).
        let mut payloads = Vec::new();
        while let Some(event) = subscriber.recv_timeout(RECV) {
            payloads.push(event.payload.clone());
        }
        assert!(payloads.len() >= 4, "{payloads:?}");
        assert!(payloads[..4].iter().all(|p| &p[..] == b"before"), "{payloads:?}");
        assert!(payloads.iter().all(|p| &p[..] != b"after"), "{payloads:?}");
    }

    #[test]
    fn worker_stops_at_the_shutdown_command_not_at_end_of_batch() {
        let links = vec![Arc::new(Ingress::new(4, Arc::new(Gauge::new())))];
        let mut worker = ShardWorker::new(0, links, None);
        let inbox = Mailbox::new();
        let (subscriber, publisher) = (ClientId::from_raw(1), ClientId::from_raw(2));
        let publish = |seq| {
            let event = Event::new(topic("s/x"), publisher, seq, EventClass::Data, Bytes::new());
            ShardCmd::Event(Inbound::Publish(publisher, event.into_shared()))
        };
        let attach = |client, delivery| ShardCmd::Attach {
            client,
            profile: TransportProfile::default(),
            delivery,
        };
        let mut commands = vec![
            attach(subscriber, Some(MailboxWriter(Arc::clone(&inbox)))),
            attach(publisher, None),
            ShardCmd::Subscribe(subscriber, filter("s/#")),
            publish(0),
            ShardCmd::Shutdown,
            publish(1),
        ];
        let running = worker.process_batch(&mut commands.drain(..));
        assert!(!running);
        // What was taken ahead of the shutdown is routed and flushed;
        // what was taken behind it is dropped.
        let mut flushed = Vec::new();
        assert_eq!(inbox.drain_into(&mut flushed), 1);
        assert_eq!(flushed[0].seq, 0);
        // The worker going away closes the mailbox and its ingress.
        let ingress = Arc::clone(&worker.links[0]);
        drop(worker);
        assert!(inbox.recv_timeout(RECV).is_none());
        ingress.push_bounded(publish(2));
        assert_eq!(ingress.depth.get(), 0);
    }
}
