//! The one hand-off for every runtime thread that waits on a queue: a
//! shard worker's ingress ([`crate::sharded`]) and a TCP link sender's
//! queue (`cluster/tcp.rs`).
//!
//! A [`Handoff`] is a `Vec` behind one short lock. Producers push onto
//! it; the one taker swaps it out whole for its own emptied `Vec`, so the
//! two buffers alternate and keep their capacity. A producer wakes the
//! taker only when it is really asleep, and a taker that finds the queue
//! empty watches it for [`IDLE_POLL`] before it sleeps, so a closed loop
//! — push, take, push again — never pays a wake-up per turn.
//!
//! A [`Latch`] counts the [`BarrierAck`]s handed out for it; dropping an
//! ack is the ack. A barrier travels through a queue as one of its items:
//! a shard's `Barrier` command, a link's `Flush`. A queue that refuses it
//! or is dropped with it still counts it down, so a waiter on a dead
//! queue returns.

use std::sync::Arc;
use std::time::Duration;

use mmcs_telemetry::Gauge;
use mmcs_util::time::{monotonic_now, SimDuration, SimTime};
use parking_lot::{Condvar, Mutex, MutexGuard};

/// How long a taker that finds its queue empty keeps watching it
/// (yielding its core each turn) before it sleeps. A closed loop —
/// publish, wait for the deliveries, publish again — leaves a shard
/// worker idle for 50–500 µs a turn, and a link sender for less between
/// a publisher's bursts; sleeping through each gap costs a futex wake
/// plus however long the host takes to put the taker back on a core,
/// which is a quarter of such a turn on a quiet host and varies with the
/// neighbours. An idle taker pays this once per burst.
const IDLE_POLL: SimDuration = SimDuration::from_millis(1);

/// A multi-producer queue one taker empties whole. `capacity` binds
/// [`Handoff::push_bounded`]; [`Handoff::push`] is always accepted.
pub(crate) struct Handoff<T> {
    queue: Mutex<Queue<T>>,
    /// The taker sleeps here while the queue is empty.
    work: Condvar,
    /// Bounded producers sleep here while the queue is full.
    room: Condvar,
    capacity: usize,
    /// Mirrors the queue's length (written under the lock): what an idle
    /// taker watches, and a shard's `queue_depth` instrument.
    depth: Arc<Gauge>,
}

struct Queue<T> {
    items: Vec<T>,
    /// The taker is asleep on `work` and nobody has woken it yet: the
    /// only state in which a producer issues a wake.
    parked: bool,
    /// Producers asleep on `room`.
    waiting: usize,
    /// The queue was closed or its taker is gone: nothing more is
    /// accepted, and what is refused is dropped.
    closed: bool,
}

impl<T> Handoff<T> {
    /// A queue whose bounded pushes wait at `capacity` items, mirroring
    /// its length into `depth`.
    pub(crate) fn new(capacity: usize, depth: Arc<Gauge>) -> Self {
        Self {
            queue: Mutex::new(Queue {
                items: Vec::new(),
                parked: false,
                waiting: 0,
                closed: false,
            }),
            work: Condvar::new(),
            room: Condvar::new(),
            capacity,
            depth,
        }
    }

    /// A queue with no bound and a private length mirror.
    pub(crate) fn unbounded() -> Self {
        Self::new(usize::MAX, Arc::default())
    }

    /// Enqueues without waiting, whatever the queue's length.
    pub(crate) fn push(&self, item: T) {
        self.enqueue(self.queue.lock(), item);
    }

    /// Enqueues, sleeping while the queue is at capacity. Closing the
    /// queue releases the sleeper and drops the item, so a producer can
    /// never hang on a dead taker — and a push that happens-after
    /// [`Handoff::close`] returned finds the queue closed under the same
    /// lock that closed it.
    pub(crate) fn push_bounded(&self, item: T) {
        let mut queue = self.queue.lock();
        while queue.items.len() >= self.capacity && !queue.closed {
            queue.waiting += 1;
            self.room.wait(&mut queue);
            queue.waiting -= 1;
        }
        self.enqueue(queue, item);
    }

    fn enqueue(&self, mut queue: MutexGuard<'_, Queue<T>>, item: T) {
        if queue.closed {
            drop(queue);
            return; // `item` is dropped unqueued, outside the lock
        }
        queue.items.push(item);
        self.depth.set(queue.items.len() as i64);
        self.unlock_and_wake(queue);
    }

    /// Unlocks, then wakes the taker if it was asleep and nobody has
    /// woken it since.
    fn unlock_and_wake(&self, mut queue: MutexGuard<'_, Queue<T>>) {
        let wake = std::mem::take(&mut queue.parked);
        drop(queue);
        if wake {
            self.work.notify_one();
        }
    }

    /// Moves everything queued into `taken` (which must be empty; its
    /// capacity becomes the queue's). If there is nothing, it watches the
    /// queue for [`IDLE_POLL`] and then sleeps until something arrives —
    /// or, given a `deadline`, until then at the latest, and returns with
    /// `taken` empty. This is the taker's one sanctioned park point.
    pub(crate) fn take_all(&self, taken: &mut Vec<T>, deadline: Option<SimTime>) {
        let mut queue = self.queue.lock();
        if queue.items.is_empty() {
            // Gone idle: watch the length, offering the core to any
            // runnable thread each turn, before sleeping.
            drop(queue);
            let watch = monotonic_now().saturating_add(IDLE_POLL);
            let give_up = deadline.map_or(watch, |deadline| deadline.min(watch));
            while self.depth.get() == 0 && monotonic_now() < give_up {
                std::thread::yield_now();
            }
            queue = self.queue.lock();
        }
        while queue.items.is_empty() {
            queue.parked = true;
            let Some(deadline) = deadline else {
                self.work.wait(&mut queue);
                continue;
            };
            let left = deadline.saturating_duration_since(monotonic_now());
            if left == SimDuration::ZERO {
                queue.parked = false;
                return;
            }
            self.work
                .wait_for(&mut queue, Duration::from_nanos(left.as_nanos()));
        }
        // A timed wait can end with nobody having cleared the flag.
        queue.parked = false;
        std::mem::swap(&mut queue.items, taken);
        self.depth.set(0);
        let waiting = queue.waiting;
        drop(queue);
        if waiting > 0 {
            self.room.notify_all();
        }
    }

    /// `last` is the final item this queue accepts, and every sleeping
    /// producer is released. Idempotent.
    pub(crate) fn close(&self, last: T) {
        let mut queue = self.queue.lock();
        if queue.closed {
            return;
        }
        queue.closed = true;
        queue.items.push(last);
        self.depth.set(queue.items.len() as i64);
        self.unlock_and_wake(queue);
        self.room.notify_all();
    }

    /// The taker is gone: nothing more is accepted, and what is still
    /// queued is dropped (which acks any barrier in it).
    pub(crate) fn abandon(&self) {
        let mut queue = self.queue.lock();
        queue.closed = true;
        let dropped = std::mem::take(&mut queue.items);
        self.depth.set(0);
        drop(queue);
        self.room.notify_all();
        drop(dropped);
    }
}

/// What a barrier's waiter sleeps on: the acks still owed.
pub(crate) struct Latch {
    owed: Mutex<usize>,
    settled: Condvar,
}

impl Latch {
    /// A latch that owes nothing yet.
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Self {
            owed: Mutex::new(0),
            settled: Condvar::new(),
        })
    }

    /// One more ack owed; the handle pays it when dropped.
    pub(crate) fn ack(self: &Arc<Self>) -> BarrierAck {
        *self.owed.lock() += 1;
        BarrierAck(Arc::clone(self))
    }

    /// Waits until every ack handed out has been dropped. (Not named
    /// `wait`: the analyzer resolves method calls by name, and a taker's
    /// condvar wait must not seem to reach a barrier's waiter.)
    pub(crate) fn wait_settled(&self) {
        let mut owed = self.owed.lock();
        while *owed > 0 {
            self.settled.wait(&mut owed);
        }
    }

    /// Whether every ack handed out is dropped within `wait`.
    #[cfg(test)]
    pub(crate) fn settled_within(&self, wait: Duration) -> bool {
        let deadline = std::time::Instant::now() + wait;
        let mut owed = self.owed.lock();
        while *owed > 0 {
            let now = std::time::Instant::now();
            if now >= deadline {
                return false;
            }
            self.settled.wait_for(&mut owed, deadline - now);
        }
        true
    }
}

/// One share of a barrier; dropping it is the ack, so a barrier that a
/// closed queue refuses, or that dies with its queue, still counts down.
pub(crate) struct BarrierAck(Arc<Latch>);

impl Drop for BarrierAck {
    fn drop(&mut self) {
        let mut owed = self.0.owed.lock();
        *owed = owed.saturating_sub(1);
        if *owed == 0 {
            self.0.settled.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn a_take_with_a_deadline_returns_empty_at_its_deadline() {
        let queue = Handoff::<u32>::unbounded();
        let mut taken = Vec::new();
        let wait = SimDuration::from_millis(30);
        let start = Instant::now();
        queue.take_all(&mut taken, Some(monotonic_now().saturating_add(wait)));
        let took = start.elapsed();
        assert!(taken.is_empty());
        assert!(took >= Duration::from_millis(30), "returned early: {took:?}");
        assert!(took < Duration::from_secs(2), "overslept: {took:?}");
        // A deadline already past does not wait at all, and what is
        // queued is taken whatever the deadline.
        queue.take_all(&mut taken, Some(SimTime::ZERO));
        assert!(taken.is_empty());
        queue.push(7);
        queue.take_all(&mut taken, Some(SimTime::ZERO));
        assert_eq!(taken, [7]);
    }

    /// The taker is past its watch and asleep with no deadline when the
    /// push arrives: only the producer's wake can end that park.
    #[test]
    fn a_push_to_a_parked_taker_wakes_it() {
        let queue = Arc::new(Handoff::<u32>::unbounded());
        for round in 0..20 {
            let taker = {
                let queue = Arc::clone(&queue);
                std::thread::spawn(move || {
                    let mut taken = Vec::new();
                    queue.take_all(&mut taken, None);
                    taken
                })
            };
            // Wait until the taker has parked.
            let start = Instant::now();
            while !queue.queue.lock().parked {
                assert!(start.elapsed() < Duration::from_secs(5), "round {round}: never parked");
                std::thread::yield_now();
            }
            queue.push(round);
            assert_eq!(taker.join().expect("taker"), [round], "round {round}");
            assert!(!queue.queue.lock().parked, "round {round}: the wake cleared the flag");
        }
    }

    #[test]
    fn a_closed_queue_takes_its_last_item_and_refuses_the_rest() {
        let depth = Arc::new(Gauge::new());
        let queue = Handoff::new(1, Arc::clone(&depth));
        queue.push(1);
        queue.close(2);
        queue.close(3);
        queue.push(4);
        queue.push_bounded(5); // would wait if the queue were open
        let mut taken = Vec::new();
        queue.take_all(&mut taken, None);
        assert_eq!(taken, [1, 2]);
        assert_eq!(depth.get(), 0);
    }

    #[test]
    fn an_abandoned_queue_drops_what_it_holds_which_acks_its_barriers() {
        let queue = Handoff::unbounded();
        let latch = Latch::new();
        queue.push(latch.ack());
        queue.push(latch.ack());
        assert!(!latch.settled_within(Duration::ZERO));
        queue.abandon();
        assert!(latch.settled_within(Duration::ZERO));
        // Refused from now on, and counted down at once.
        queue.push(latch.ack());
        latch.wait_settled();
    }
}
