//! The single-loop oracle every live harness is checked against: one
//! [`BrokerNode`] state machine, fed attach, detach, subscribe,
//! unsubscribe and publish in order, answers with the sorted delivery
//! multiset one broker would produce. The sharded and federation chaos
//! harnesses and the oracle-equivalence suites all call it.

use std::collections::HashMap;

use bytes::Bytes;
use mmcs_broker::event::{Event, EventClass};
use mmcs_broker::node::{Action, BrokerNode, Input, Origin};
use mmcs_broker::topic::{Topic, TopicFilter};
use mmcs_util::id::{BrokerId, ClientId};

/// One delivery in sortable form: (receiver, topic, source, seq).
pub type Delivery = (u64, String, u64, u64);

/// The delivery of `event` to `receiver`, in sortable form.
pub fn delivery(receiver: ClientId, event: &Event) -> Delivery {
    (
        receiver.value(),
        event.topic.to_string(),
        event.source.value(),
        event.seq,
    )
}

/// FNV-1a over a sorted delivery list: a run's fingerprint.
pub fn fingerprint(deliveries: &[Delivery]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (receiver, topic, source, seq) in deliveries {
        mix(&receiver.to_le_bytes());
        mix(topic.as_bytes());
        mix(&source.to_le_bytes());
        mix(&seq.to_le_bytes());
    }
    hash
}

/// One broker in one loop. Client `index` is `ClientId` `index + 1`, in
/// attach order — the ids a live broker or cluster hands out — and its
/// publishes are numbered from 0, one per attempt, as a live client's
/// are.
pub struct Oracle {
    node: BrokerNode,
    seqs: Vec<u64>,
    deliveries: Vec<Delivery>,
}

impl Oracle {
    /// An oracle with `clients` clients attached.
    pub fn new(clients: usize) -> Self {
        let mut oracle = Self {
            node: BrokerNode::new(BrokerId::from_raw(9999)),
            seqs: Vec::new(),
            deliveries: Vec::new(),
        };
        for _ in 0..clients {
            oracle.attach_next();
        }
        oracle
    }

    fn id(index: usize) -> ClientId {
        ClientId::from_raw(index as u64 + 1)
    }

    /// Attaches the next client; returns its index.
    pub fn attach_next(&mut self) -> usize {
        let index = self.seqs.len();
        self.seqs.push(0);
        let _ = self.node.handle(Input::AttachClient {
            client: Self::id(index),
            profile: Default::default(),
        });
        index
    }

    /// Detaches client `index`; its later operations are refused.
    pub fn detach_client(&mut self, index: usize) {
        let _ = self.node.handle(Input::DetachClient {
            client: Self::id(index),
        });
    }

    /// Client `index` subscribes to `filter`.
    pub fn add_filter(&mut self, index: usize, filter: TopicFilter) {
        let _ = self.node.handle(Input::Subscribe {
            client: Self::id(index),
            filter,
        });
    }

    /// Client `index` drops `filter`.
    pub fn drop_filter(&mut self, index: usize, filter: TopicFilter) {
        let _ = self.node.handle(Input::Unsubscribe {
            client: Self::id(index),
            filter,
        });
    }

    /// Client `index` publishes on `topic` with its next sequence number;
    /// returns whether the broker accepted it (a detached client's is
    /// refused, and still uses up its number).
    pub fn publish_next(&mut self, index: usize, topic: Topic) -> bool {
        let seq = self.seqs[index];
        self.seqs[index] += 1;
        let event =
            Event::new(topic, Self::id(index), seq, EventClass::Data, Bytes::new()).into_shared();
        let Ok(actions) = self.node.handle(Input::Publish {
            origin: Origin::Client(Self::id(index)),
            event,
        }) else {
            return false;
        };
        for action in actions {
            if let Action::Deliver { client, event, .. } = action {
                self.deliveries.push(delivery(client, &event));
            }
        }
        true
    }

    /// The deliveries since the last call, sorted.
    pub fn take_deliveries(&mut self) -> Vec<Delivery> {
        let mut deliveries = std::mem::take(&mut self.deliveries);
        deliveries.sort_unstable();
        deliveries
    }
}

/// Collects what live clients drain, in arrival order, counting every
/// event that does not come after the previous one of its (receiver,
/// source, topic).
#[derive(Default)]
pub struct Recorder {
    last_seq: HashMap<(u64, u64, String), u64>,
    /// Arrivals out of per-(receiver, source, topic) order.
    pub order_violations: u64,
}

impl Recorder {
    /// Records `event`'s arrival at `receiver`.
    pub fn arrival(&mut self, receiver: ClientId, event: &Event) -> Delivery {
        let delivery = delivery(receiver, event);
        let key = (delivery.0, delivery.2, delivery.1.clone());
        if self.last_seq.insert(key, event.seq).is_some_and(|prev| event.seq <= prev) {
            self.order_violations += 1;
        }
        delivery
    }
}
