//! Sharded multi-worker broker runtime.
//!
//! [`ShardedBroker`] partitions the topic space across N worker shards.
//! Each shard runs its own [`BrokerNode`] slice on a dedicated OS
//! thread — with its own route cache, from which a subscription change
//! evicts only the plans its filter matches. Both ends of the hand-off
//! are a buffer behind one short lock, moved whole: a publish is a push
//! onto the owner shard's bounded ingress queue, the worker takes
//! everything queued in one swap, and each client's
//! deliveries are appended to its mailbox once per processed batch.
//! A peer is woken only when it is actually asleep, and a worker that
//! runs out of commands watches its queue for a millisecond before it
//! sleeps, so a closed publish → deliver → publish loop never pays a
//! wake-up per turn. The ingress queue and its barrier latch are the
//! crate's one hand-off (the private `handoff` module), which the
//! federation's TCP link senders wait on too.
//!
//! # Topology
//!
//! * **Topic ownership**: a publish to topic `t` enters exactly one
//!   *owner* shard, chosen by a stable FNV-1a hash of `t`'s **first
//!   segment**. A session's control and media topics share a first
//!   segment (`session/42/…`), so they colocate on one shard and their
//!   relative order is preserved end-to-end.
//! * **Client homing**: every client has a *home* shard (hash of its
//!   id) and is attached there alone: its local subscriptions and its
//!   mailbox live there, so overlapping filters dedup in one place and
//!   each event is delivered at most once. Its filter list lives once,
//!   in its [`ShardedClient`] handle; no shard keeps a copy.
//! * **Cross-shard forwarding ring**: a shard's peers are the other
//!   shards, each known to its node only as a peer id (the shard index).
//!   A shard that may own a topic a client's filter matches counts one
//!   *remote* subscription for it, pointing at the client's home shard.
//!   A publish then touches at most the owner shard plus the subscriber
//!   home shards: the owner routes by topic alone, the event's `Arc`
//!   hops once over the ring to every interested home shard, and the
//!   home shard delivers from its own route plan without re-forwarding.
//! * **Fan-out straight from the plan**: a worker walks its node's
//!   cached route plan ([`BrokerNode::plan_for`]) — a staged delivery
//!   per local subscriber, found in a multiply-hashed slot map, and an
//!   `Arc` clone per remote shard — and counts the arrival itself.
//!   Publishes, injected events and ring hops take that one path; no
//!   `Action` is built and no event is encoded: the wire codec is for
//!   bytes that go onto a link.
//!
//! # Consistency model
//!
//! A client's commands go only to the shards that act on them: an
//! attach to home; a subscribe or unsubscribe to home and to the shards
//! that may own a matching topic (the owner of a literal first segment,
//! every shard for a wildcard head); a detach as one unsubscribe per
//! held filter to those shards and one detach to home. The handle drops
//! a duplicate subscribe or an unknown unsubscribe and sends a change
//! while it holds its list, so every shard sees one client's changes in
//! order; after a detach it ignores control operations and drops its
//! own publishes. Changes become visible shard by shard; data routing
//! is exact between control epochs. Commands from one thread stay FIFO
//! per shard queue, so "subscribe, then publish" from a single thread
//! is reliably delivered. Tests settle in-flight traffic with
//! [`ShardedBroker::quiesce`].
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

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use mmcs_telemetry::Gauge;
use mmcs_util::id::{BrokerId, ClientId, IdMap};
use mmcs_util::time::{monotonic_now, SimDuration};
use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::event::{Event, EventClass};
use crate::handoff::{BarrierAck, Handoff, Latch};
use crate::metrics::{BrokerMetrics, ShardedBrokerMetrics};
use crate::node::{BrokerNode, Input};
use crate::profile::TransportProfile;
use crate::topic::{Topic, TopicFilter};

/// Most commands a shard worker processes between two delivery flushes.
const SHARD_BATCH_MAX: usize = 64;
/// Payload-byte budget between two delivery flushes.
const SHARD_BATCH_BYTES: usize = 256 * 1024;
/// Default per-shard ingress capacity (publishes wait past this).
const DEFAULT_SHARD_CAPACITY: usize = 65_536;
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

/// A command on a shard's ingress. `Attach` and `Detach` go to the
/// client's home shard alone, a (un)subscribe to home and to the
/// shards that may own a topic its filter matches.
enum ShardCmd {
    Attach(ClientId, MailboxWriter),
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

/// A data event entering a shard; the two differ only in whether the
/// event may still hop the ring.
enum Inbound {
    /// An event entering at its topic's owner shard — a client's
    /// publish or [`ShardedBroker::inject`] — routed by topic alone:
    /// local deliveries plus one ring hop per subscriber home shard.
    Publish(Arc<Event>),
    /// An event hopping the ring from its owner shard to a subscriber's
    /// home shard: the owner's own `Arc`, so every target shard delivers
    /// the one allocation. Delivered from the receiving shard's route
    /// plan and never re-forwarded.
    Forward(Arc<Event>),
}

fn cmd_bytes(cmd: &ShardCmd) -> usize {
    match cmd {
        ShardCmd::Event(Inbound::Publish(event) | Inbound::Forward(event)) => event.payload.len(),
        _ => 0,
    }
}

/// One client's egress: the buffer its home worker appends to and the
/// client handle drains, shared by both.
struct Mailbox {
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
    fn recv_timeout(&self, timeout: Duration) -> Option<Arc<Event>> {
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
    shards: Vec<Arc<Handoff<ShardCmd>>>,
    next_client: AtomicU64,
}

impl Router {
    fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Control enqueue: never waits.
    fn push(&self, shard: usize, cmd: ShardCmd) {
        if let Some(ingress) = self.shards.get(shard) {
            ingress.push(cmd);
        }
    }

    /// Enqueues `event` at its topic's owner shard, bounded by that
    /// shard's capacity.
    fn publish(&self, event: Arc<Event>) {
        let owner = owner_shard_of_topic(&event.topic, self.shard_count());
        // `owner` is below the shard count, so this lookup cannot miss;
        // `get` keeps the hot path panic-free.
        if let Some(ingress) = self.shards.get(owner) {
            ingress.push_bounded(ShardCmd::Event(Inbound::Publish(event)));
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
        let (shards, metrics) = (self.shards, self.metrics);
        let links: Vec<Arc<Handoff<ShardCmd>>> = (0..shards)
            .map(|index| {
                let depth = match &metrics {
                    Some(m) => Arc::clone(&m.shard(index).queue_depth),
                    None => Arc::new(Gauge::new()),
                };
                Arc::new(Handoff::new(self.capacity, depth))
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
        ShardedBroker {
            router: Arc::new(Router {
                shards: links,
                next_client: AtomicU64::new(1),
            }),
            handles,
        }
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
    /// each shard reports the hot-path instruments, the ingress
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

    /// Attaches a client, on its home shard alone.
    pub fn attach(&self) -> ShardedClient {
        let id = ClientId::from_raw(self.router.next_client.fetch_add(1, Ordering::Relaxed));
        self.attach_as(id)
    }

    /// Attaches a client under a caller-chosen id, which must not be
    /// attached already: the federation layer ([`crate::cluster`])
    /// allocates its ids at cluster scope, so they are unique across
    /// nodes. The home shard refuses a duplicate's mailbox, so the
    /// first client keeps its deliveries, but the duplicate handle's
    /// subscriptions and detach still act on the first client.
    pub(crate) fn attach_as(&self, id: ClientId) -> ShardedClient {
        let home = self.home_shard(id);
        let mailbox = Mailbox::new();
        self.router
            .push(home, ShardCmd::Attach(id, MailboxWriter(Arc::clone(&mailbox))));
        ShardedClient {
            id,
            home,
            router: Arc::clone(&self.router),
            mailbox,
            seq: AtomicU64::new(0),
            filters: Mutex::new(Some(Vec::new())),
            detached: AtomicBool::new(false),
        }
    }

    /// Injects an externally-routed event into this broker as if it had
    /// been published locally: it is enqueued at its topic's owner shard
    /// (bounded by its capacity like a client publish), delivered to
    /// local subscribers and ring-forwarded to subscriber home shards.
    /// The event never leaves this broker — the caller (the cluster
    /// layer) owns inter-node routing, and decodes what arrives off a
    /// link before handing it here.
    pub fn inject(&self, event: Arc<Event>) {
        self.router.publish(event);
    }

    /// Waits until every command enqueued before this call — including
    /// cross-shard forwards those commands generate — has been
    /// processed and its deliveries appended to their mailboxes, where
    /// the next `drain_into` sees them. Two barrier rounds suffice
    /// because forwarding is one-hop: round one drains direct publishes
    /// (enqueueing their forwards), round two drains the forwards. A
    /// shard that has shut down acks by refusing the barrier.
    pub fn quiesce(&self) {
        quiesce_all(std::iter::once(self));
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

/// [`ShardedBroker::quiesce`] for several brokers at once: each of the
/// two barrier rounds puts one barrier on every shard of every broker,
/// all acking one latch, so the brokers settle side by side instead of
/// one after another. The federation settles its nodes this way.
pub(crate) fn quiesce_all<'a>(brokers: impl Iterator<Item = &'a ShardedBroker> + Clone) {
    for _ in 0..2 {
        let latch = Latch::new();
        for ingress in brokers.clone().flat_map(|broker| &broker.router.shards) {
            ingress.push(ShardCmd::Barrier(latch.ack()));
        }
        latch.wait_settled();
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
/// batch, and are taken one at a time or all at once. The handle holds
/// the client's filter list; only subscribe, unsubscribe and detach
/// lock it.
pub struct ShardedClient {
    id: ClientId,
    home: usize,
    router: Arc<Router>,
    mailbox: Arc<Mailbox>,
    seq: AtomicU64,
    /// The client's filters, `None` once it has detached.
    filters: Mutex<Option<Vec<TopicFilter>>>,
    /// Set by detach, for the publish path.
    detached: AtomicBool,
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

    /// Subscribes to a filter. The home shard records it locally, and
    /// every other shard that may own a matching topic counts one remote
    /// interest pointing home. A filter the client already holds, or a
    /// detached client, changes nothing.
    pub fn subscribe(&self, filter: TopicFilter) {
        self.change_filter(filter, true);
    }

    /// Removes one subscription; a filter the client does not hold is a
    /// no-op.
    pub fn unsubscribe(&self, filter: TopicFilter) {
        self.change_filter(filter, false);
    }

    /// Adds (`subscribe`) or removes `filter` and tells the shards that
    /// act on it, if that changes the client's list; returns whether it
    /// did. The sends run under the list's lock, so concurrent changes
    /// reach every shard in the order the list took them.
    pub(crate) fn change_filter(&self, filter: TopicFilter, subscribe: bool) -> bool {
        let mut filters = self.filters.lock();
        let Some(list) = filters.as_mut() else {
            return false;
        };
        let held = list.iter().position(|f| *f == filter);
        let cmd: fn(ClientId, TopicFilter) -> ShardCmd = match (held, subscribe) {
            (None, true) => ShardCmd::Subscribe,
            (Some(pos), false) => {
                list.remove(pos);
                ShardCmd::Unsubscribe
            }
            _ => return false,
        };
        self.router.push(self.home, cmd(self.id, filter.clone()));
        for shard in self.owners(&filter).filter(|&shard| shard != self.home) {
            self.router.push(shard, cmd(self.id, filter.clone()));
        }
        if subscribe {
            list.push(filter);
        }
        true
    }

    /// The shards that may own a topic `filter` matches: the owner of a
    /// literal head, every shard for a wildcard head.
    fn owners(&self, filter: &TopicFilter) -> Range<usize> {
        let shards = self.router.shard_count();
        match filter.first_literal() {
            Some(head) => {
                let owner = owner_shard(head, shards);
                owner..owner + 1
            }
            None => 0..shards,
        }
    }

    /// Publishes a data event to its owner shard, waiting while that
    /// shard's queue is at capacity.
    pub fn publish(&self, topic: Topic, payload: bytes::Bytes) {
        self.publish_class(topic, EventClass::Data, payload);
    }

    /// Publishes an event with an explicit class.
    pub fn publish_class(&self, topic: Topic, class: EventClass, payload: bytes::Bytes) {
        self.publish_shared(self.next_event(topic, class, payload));
    }

    /// This client's next event, numbered by this handle.
    pub(crate) fn next_event(&self, topic: Topic, class: EventClass, payload: bytes::Bytes) -> Arc<Event> {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        Event::new(topic, self.id, seq, class, payload).into_shared()
    }

    /// Publishes an event from [`ShardedClient::next_event`]; a detached
    /// client's goes nowhere. The federation layer shares the one `Arc`
    /// with the frames it sends to other nodes.
    pub(crate) fn publish_shared(&self, event: Arc<Event>) {
        if !self.detached.load(Ordering::Relaxed) {
            self.router.publish(event);
        }
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

    /// Detaches this client (also done on drop): each shard besides
    /// home that counted remote interest for a held filter gets an
    /// unsubscribe, and home the detach. Later control operations and
    /// publishes are ignored.
    pub fn detach(&self) {
        self.detach_filters();
    }

    /// [`ShardedClient::detach`], handing back the filters the client
    /// held (none after an earlier detach).
    pub(crate) fn detach_filters(&self) -> Vec<TopicFilter> {
        let Some(filters) = self.filters.lock().take() else {
            return Vec::new();
        };
        self.detached.store(true, Ordering::Relaxed);
        for filter in &filters {
            for shard in self.owners(filter).filter(|&shard| shard != self.home) {
                self.router
                    .push(shard, ShardCmd::Unsubscribe(self.id, filter.clone()));
            }
        }
        self.router.push(self.home, ShardCmd::Detach(self.id));
        filters
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

/// Per-worker state: one node slice and the egress of its homed clients.
struct ShardWorker {
    index: usize,
    /// Every shard's ingress, this worker's own at `index`.
    links: Vec<Arc<Handoff<ShardCmd>>>,
    metrics: Option<Arc<BrokerMetrics>>,
    node: BrokerNode,
    egress: Egress,
    /// Barrier acks owed after the current batch's flush.
    acks: Vec<BarrierAck>,
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
    fn new(index: usize, links: Vec<Arc<Handoff<ShardCmd>>>, metrics: Option<Arc<BrokerMetrics>>) -> Self {
        Self {
            index,
            links,
            metrics,
            node: BrokerNode::new(BrokerId::from_raw(index as u64)),
            egress: Egress::default(),
            acks: Vec::new(),
        }
    }

    fn run(mut self) {
        if let Some(m) = &self.metrics {
            self.node.set_metrics(Arc::clone(m));
        }
        let Some(ingress) = self.links.get(self.index).map(Arc::clone) else {
            return;
        };
        let mut taken = Vec::new();
        loop {
            ingress.take_all(&mut taken, None);
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
                ShardCmd::Attach(client, mailbox) => {
                    // A duplicate id keeps the first client's slot; its
                    // own mailbox closes as the writer drops here.
                    let profile = TransportProfile::default();
                    if self.apply_control(Input::AttachClient { client, profile }) {
                        let staged = Vec::new();
                        self.egress.slots.insert(client, Slot { mailbox, staged });
                    }
                }
                ShardCmd::Detach(client) => {
                    self.egress.slots.remove(&client);
                    self.apply_control(Input::DetachClient { client });
                }
                ShardCmd::Subscribe(client, filter) => self.interest(client, filter, true),
                ShardCmd::Unsubscribe(client, filter) => self.interest(client, filter, false),
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

    /// Applies a control input to the node, which emits no action for
    /// one (so the empty buffer never allocates); returns whether the
    /// node accepted it (a rejected input leaves the node unchanged).
    fn apply_control(&mut self, input: Input) -> bool {
        self.node.handle_into(input, &mut Vec::new()).is_ok()
    }

    /// Feeds the node one change of a client's subscriptions, as its
    /// handle sent it: the subscription itself at home, one remote
    /// interest pointing home anywhere else.
    fn interest(&mut self, client: ClientId, filter: TopicFilter, subscribe: bool) {
        let home = home_shard(client, self.links.len());
        let peer = BrokerId::from_raw(home as u64);
        let input = match (home == self.index, subscribe) {
            (true, true) => Input::Subscribe { client, filter },
            (true, false) => Input::Unsubscribe { client, filter },
            (false, true) => Input::RemoteSubscribe { peer, filter },
            (false, false) => Input::RemoteUnsubscribe { peer, filter },
        };
        self.apply_control(input);
    }

    /// The one data path, for both ways an event enters a shard: stage
    /// a delivery for every `plan.local` client, then — unless the event
    /// already crossed the ring — hand a clone of its `Arc` to every
    /// `plan.remote` shard, and count the arrival the way the node
    /// counts a publish. No `Action` is built.
    // Out of line on purpose: inlined into `process_batch`'s command
    // loop it measured 9 % slower on the `session_churn` benchmark,
    // where control commands interleave with publishes (2-core x86-64
    // guest, 15 alternating 20 s pairs, none ahead).
    #[inline(never)]
    fn fan_out(&mut self, inbound: Inbound) {
        let (event, hop) = match inbound {
            Inbound::Publish(event) => (event, true),
            Inbound::Forward(event) => (event, false),
        };
        let plan = self.node.plan_for(&event.topic);
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
            m.events_in.inc();
            m.deliveries.add(delivered);
            m.forwards.add(hops);
            m.cross_shard_forwards.add(hops);
            m.fanout.record(delivered + hops);
            if delivered + hops == 0 {
                m.unroutable.inc();
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

    /// A client of `broker` homed on any shard but `shard`.
    fn homed_off(broker: &ShardedBroker, shard: usize) -> ShardedClient {
        loop {
            let client = broker.attach();
            if client.home_shard() != shard {
                return client;
            }
        }
    }

    #[test]
    fn detach_withdraws_remote_interest() {
        for shards in [2, 4] {
            let metrics = ShardedBrokerMetrics::detached(shards);
            let broker = ShardedBroker::spawn_with_metrics(Arc::clone(&metrics));
            let owner = broker.shard_for_topic(&topic("w/x"));
            let publisher = broker.attach();
            let forwards = || metrics.total(|s| s.cross_shard_forwards.get());
            let publish = |count| {
                for _ in 0..count {
                    publisher.publish(topic("w/x"), Bytes::new());
                }
                broker.quiesce();
            };
            let subscriber = homed_off(&broker, owner);
            subscriber.subscribe(filter("w/#"));
            broker.quiesce();
            publish(1);
            assert_eq!(forwards(), 1, "{shards} shards: one hop to the subscriber's home");
            assert!(subscriber.try_recv().is_some());
            subscriber.detach();
            broker.quiesce();
            publish(10);
            assert_eq!(forwards(), 1, "{shards} shards: the owner still routes to a detached client");
            // A duplicate subscribe is one subscription: one unsubscribe
            // ends it, on the owner shard too.
            let flapper = homed_off(&broker, owner);
            flapper.subscribe(filter("w/#"));
            flapper.subscribe(filter("w/#"));
            flapper.unsubscribe(filter("w/#"));
            broker.quiesce();
            publish(10);
            assert_eq!(forwards(), 1, "{shards} shards: an unsubscribed filter still routes");
            assert!(flapper.try_recv().is_none());
        }
    }

    #[test]
    fn a_detached_client_ignores_control_operations() {
        for shards in [2, 4] {
            let metrics = ShardedBrokerMetrics::detached(shards);
            let broker = ShardedBroker::spawn_with_metrics(Arc::clone(&metrics));
            let owner = broker.shard_for_topic(&topic("w/x"));
            let publisher = broker.attach();
            let subscriber = homed_off(&broker, owner);
            subscriber.detach();
            subscriber.subscribe(filter("w/#"));
            broker.quiesce();
            for _ in 0..10 {
                publisher.publish(topic("w/x"), Bytes::new());
            }
            broker.quiesce();
            assert_eq!(metrics.total(|s| s.cross_shard_forwards.get()), 0, "{shards} shards");
            assert!(subscriber.try_recv().is_none());
        }
    }

    #[test]
    fn client_commands_reach_only_the_shards_that_act_on_them() {
        for shards in [2, 4] {
            let metrics = ShardedBrokerMetrics::detached(shards);
            let broker = ShardedBroker::spawn_with_metrics(Arc::clone(&metrics));
            // Commands each shard has processed, read after a quiesce.
            let processed = || {
                broker.quiesce();
                let sums = metrics.shards().map(|s| s.batch_size.snapshot().sum());
                sums.collect::<Vec<_>>()
            };
            // Commands each shard processed since `before`, less the
            // two barriers of the quiesce that read them.
            let since = |before: Vec<u64>| {
                let after = processed();
                after.iter().zip(before).map(|(a, b)| a - b - 2).collect::<Vec<_>>()
            };
            // One command per shard named, on each shard named.
            let to = |named: &[usize]| {
                let count = |i| named.iter().filter(|&&s| s == i).count() as u64;
                (0..shards).map(count).collect::<Vec<_>>()
            };
            let every: Vec<usize> = (0..shards).collect();

            let before = processed();
            let client = broker.attach();
            assert_eq!(since(before), to(&[client.home_shard()]), "{shards} shards: attach");
            let before = processed();
            client.detach();
            assert_eq!(since(before), to(&[client.home_shard()]), "{shards} shards: detach");

            let owner = broker.shard_for_topic(&topic("w/x"));
            let client = homed_off(&broker, owner);
            let home = client.home_shard();
            let before = processed();
            client.subscribe(filter("w/#"));
            assert_eq!(since(before), to(&[home, owner]), "{shards} shards: literal head");
            let before = processed();
            client.subscribe(filter("#"));
            assert_eq!(since(before), to(&every), "{shards} shards: wildcard head");
            // An unsubscribe per held filter where it counted remote
            // interest, then the detach at home.
            let before = processed();
            client.detach();
            let owners: Vec<usize> = every.iter().copied().chain([owner]).collect();
            assert_eq!(since(before), to(&owners), "{shards} shards: detach");
        }
    }

    #[test]
    fn a_duplicate_attach_leaves_the_first_client_its_deliveries() {
        for shards in [1, 2] {
            let broker = ShardedBroker::spawn(shards);
            let original = broker.attach_as(ClientId::from_raw(4242));
            original.subscribe(filter("d/#"));
            let duplicate = broker.attach_as(ClientId::from_raw(4242));
            let publisher = broker.attach();
            broker.quiesce();
            publisher.publish(topic("d/x"), Bytes::new());
            broker.quiesce();
            assert!(original.try_recv().is_some(), "{shards} shards: the duplicate took it");
            // The home shard refused the duplicate's mailbox: it is closed.
            assert!(duplicate.recv_timeout(RECV).is_none(), "{shards} shards");
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
        let depth = Arc::new(Gauge::new());
        let links = vec![Arc::new(Handoff::new(4, Arc::clone(&depth)))];
        let mut worker = ShardWorker::new(0, links, None);
        let inbox = Mailbox::new();
        let (subscriber, publisher) = (ClientId::from_raw(1), ClientId::from_raw(2));
        let publish = |seq| {
            let event = Event::new(topic("s/x"), publisher, seq, EventClass::Data, Bytes::new());
            ShardCmd::Event(Inbound::Publish(event.into_shared()))
        };
        let mut commands = vec![
            ShardCmd::Attach(subscriber, MailboxWriter(Arc::clone(&inbox))),
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
        assert_eq!(depth.get(), 0);
    }
}
