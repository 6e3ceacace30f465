//! The event queue: a FIFO run of deliveries beside a heap of the rest.
//!
//! A NIC serialises what its host sends, so the deliveries of a fan-out
//! are pushed in ascending key order — Figure 3 keeps ~5,900 of them in
//! flight. Sifting each through a binary heap cost twelve levels on the
//! way out, and every [`EventKind::Drain`] armed for a busy host then
//! sifted past all of them in both directions. A delivery whose key
//! exceeds the last one queued is appended to `run` instead and leaves
//! from its front; only deliveries that arrive out of order (a second
//! sender, a jittered link) and the other kinds — timers and drains,
//! which are armed for any time — go to the heap, which stays a handful
//! of entries deep whenever one sender dominates.
//!
//! The order is [`EventKey`]'s `(time, origin, seq)` and nothing else:
//! both parts are sorted and a pop takes the smaller head, so the pop
//! sequence is the one a single heap would give.

use std::collections::{BinaryHeap, VecDeque};

use crate::engine::{Event, EventKey, EventKind};

/// Pending events in `(time, origin, seq)` order.
#[derive(Default)]
pub(crate) struct EventQueue {
    /// Deliveries pushed in ascending key order.
    run: VecDeque<Event>,
    /// Everything else, smallest key on top ([`Event`]'s `Ord` is inverted).
    heap: BinaryHeap<Event>,
}

impl EventQueue {
    pub(crate) fn push(&mut self, event: Event) {
        let ascending = self.run.back().is_none_or(|last| last.key < event.key);
        if ascending && matches!(event.kind, EventKind::Deliver(_)) {
            self.run.push_back(event);
        } else {
            self.heap.push(event);
        }
    }

    /// Removes and returns the event with the smallest key.
    pub(crate) fn pop(&mut self) -> Option<Event> {
        let heap_first = match (self.run.front(), self.heap.peek()) {
            (Some(run), Some(heap)) => heap.key < run.key,
            (run, _) => run.is_none(),
        };
        if heap_first {
            self.heap.pop()
        } else {
            self.run.pop_front()
        }
    }

    /// The smallest pending key.
    pub(crate) fn peek_key(&self) -> Option<EventKey> {
        let run = self.run.front().map(|event| event.key);
        let heap = self.heap.peek().map(|event| event.key);
        match (run, heap) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.run.len() + self.heap.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.run.is_empty() && self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::HostId;
    use crate::process::{Packet, ProcessId};
    use mmcs_util::time::SimTime;
    use std::sync::Arc;

    fn key(at: u64, origin: u64, seq: u64) -> EventKey {
        EventKey {
            at: SimTime::from_nanos(at),
            origin,
            seq,
        }
    }

    fn deliver(key: EventKey) -> Event {
        let packet = Packet::new(ProcessId(1), ProcessId(2), 100, key.at, Arc::new(key.seq));
        Event {
            key,
            kind: EventKind::Deliver(packet),
        }
    }

    /// A fan-out's ascending deliveries take the run, late ones and the
    /// other kinds take the heap, and the pops interleave both in
    /// `(time, origin, seq)` order with each key's own body attached.
    #[test]
    fn pops_in_key_order_whichever_part_holds_the_event() {
        let mut queue = EventQueue::default();
        assert!(queue.is_empty());
        assert_eq!(queue.peek_key(), None);
        for at in [10, 20, 30, 40] {
            queue.push(deliver(key(at, 1, at)));
        }
        queue.push(deliver(key(25, 2, 1))); // out of order: a second sender
        queue.push(deliver(key(30, 1, 7))); // same instant, lower seq
        queue.push(Event {
            key: key(15, 3, 1),
            kind: EventKind::Drain(HostId(2)),
        });
        queue.push(Event {
            key: key(99, 0, 1),
            kind: EventKind::Timer(ProcessId(1), 0, 0),
        });
        queue.push(deliver(key(50, 1, 50))); // a far timer does not end the run
        assert_eq!((queue.run.len(), queue.heap.len(), queue.len()), (5, 4, 9));
        assert_eq!(queue.peek_key(), Some(key(10, 1, 10)));

        let mut order = Vec::new();
        while let Some(event) = queue.pop() {
            if let EventKind::Deliver(packet) = &event.kind {
                assert_eq!(packet.payload::<u64>(), Some(&event.key.seq));
            }
            order.push((event.key.at.as_nanos(), event.key.origin, event.key.seq));
            assert_eq!(queue.peek_key().is_none(), queue.is_empty());
        }
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(order, sorted);
        assert_eq!(order.len(), 9);
        assert_eq!(order[2], (20, 1, 20));
        assert_eq!(order[4], (30, 1, 7));
    }
}
