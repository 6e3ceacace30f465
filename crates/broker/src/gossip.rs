//! Anti-entropy gossip of per-node subscription interest.
//!
//! Every federation node keeps a [`GossipState`]: its own **interest
//! truth** (the deduplicated set of filters its local clients hold,
//! stamped with a monotonically increasing *generation*) plus a **view**
//! of every other node's truth learned through gossip. The vector of
//! `(node, generation)` pairs — the **digest** — is a version vector:
//! node A is strictly behind node B on entry `n` exactly when A's
//! generation for `n` is lower.
//!
//! Rounds are push-pull over direct links only:
//!
//! 1. on its gossip tick a node sends its digest to each live peer;
//! 2. a peer receiving a digest replies with the **entries** the sender
//!    is missing (every node for which the receiver's known generation
//!    is higher) — the *push* half;
//! 3. if the incoming digest shows the receiver itself is behind
//!    anywhere, it answers with its own digest too — the *pull* half.
//!    That reply can only fire while strictly behind, so the exchange
//!    terminates instead of ping-ponging.
//!
//! Applying an entry is idempotent and monotone (`apply` takes an entry
//! only if its generation is strictly newer), so lost or duplicated
//! gossip frames are harmless — anti-entropy re-heals on the next
//! round. Interest spreads one link-hop per round; a connected graph of
//! diameter *d* converges in at most *d* rounds.
//!
//! The publish hot path asks [`GossipState::targets_for`] which nodes
//! hold matching interest. Matches are answered from a per-topic cache
//! stamped with the table version, so a warm publish costs a hash
//! lookup plus an `Arc` clone — no allocation. Unlike the
//! [`crate::node::BrokerNode`] route cache, which evicts only the plans
//! a changed filter matches, this one is invalidated whole: a gossip
//! apply replaces a node's entire filter list, so there is no single
//! filter to evict by, and no workload churns the view. It is bounded
//! at the same size as the route cache.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::BufMut;

use crate::node::PLAN_CACHE_MAX;
use crate::topic::{SubscriptionTable, Topic, TopicFilter};

/// Index of a node inside one federation cluster. Node ids are dense
/// (`0..nodes`) and appear on the wire as `u16` in [`crate::cluster`]
/// frame headers and gossip bodies.
pub type NodeId = u16;

/// One node's interest truth as carried by gossip: a generation plus
/// the deduplicated, deterministically ordered filter set.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct InterestEntry {
    /// Version of this node's interest; bumped on every change.
    pub generation: u64,
    /// The node's filters, sorted by their canonical string form so
    /// encodings (and fingerprints over them) are deterministic.
    pub filters: Vec<TopicFilter>,
}

/// Cached match result for one topic, stamped with the interest
/// generation it was computed under.
struct CachedTargets {
    stamp: u64,
    targets: Arc<Vec<NodeId>>,
}

/// Per-node gossip state: local interest truth, the learned view of
/// every peer, and the compiled match table for the publish hot path.
pub struct GossipState {
    me: NodeId,
    /// `view[n]` is what this node believes node `n`'s truth to be;
    /// `view[me]` *is* the truth.
    view: Vec<InterestEntry>,
    /// Refcounts behind the local truth — two clients sharing a filter
    /// keep it advertised until both unsubscribe.
    local_refs: HashMap<TopicFilter, usize>,
    /// Filter → interested nodes: updated in place when the local truth
    /// changes, rebuilt when gossip or a restart replaces other entries.
    table: SubscriptionTable<NodeId>,
    /// Bumped on every view change; stamps `cache` entries.
    table_stamp: u64,
    cache: HashMap<Topic, CachedTargets>,
    scratch: Vec<NodeId>,
}

impl GossipState {
    /// Creates the state for node `me` in a cluster of `nodes` nodes.
    /// Every entry starts at generation 0 with no filters — which is
    /// also every node's initial truth, so a fresh cluster is already
    /// converged.
    ///
    /// # Panics
    ///
    /// Panics if `me` is out of range.
    pub fn new(me: NodeId, nodes: usize) -> Self {
        assert!((me as usize) < nodes, "node id {me} out of range ({nodes} nodes)");
        Self {
            me,
            view: vec![InterestEntry::default(); nodes],
            local_refs: HashMap::new(),
            table: SubscriptionTable::new(),
            table_stamp: 0,
            cache: HashMap::new(),
            scratch: Vec::new(),
        }
    }

    /// This node's id.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// Number of nodes tracked.
    pub fn node_count(&self) -> usize {
        self.view.len()
    }

    /// This node's own interest generation.
    pub fn local_generation(&self) -> u64 {
        self.entry(self.me).generation
    }

    /// What this node believes node `n`'s interest to be (for `n == me`,
    /// the local truth). Out-of-range ids read as an empty entry.
    pub fn entry(&self, node: NodeId) -> &InterestEntry {
        static EMPTY: InterestEntry = InterestEntry {
            generation: 0,
            filters: Vec::new(),
        };
        self.view.get(node as usize).unwrap_or(&EMPTY)
    }

    /// Total `(node, filter)` interest entries currently known — the
    /// value exported as the `interest_entries` gauge.
    pub fn interest_entries(&self) -> usize {
        self.view.iter().map(|e| e.filters.len()).sum()
    }

    /// Adds one local subscription reference. Returns `true` when the
    /// truth changed (first reference to this filter).
    pub fn subscribe(&mut self, filter: &TopicFilter) -> bool {
        let refs = self.local_refs.entry(filter.clone()).or_insert(0);
        *refs += 1;
        if *refs > 1 {
            return false;
        }
        if let Some(entry) = self.view.get_mut(self.me as usize) {
            let pos = entry
                .filters
                .binary_search_by(|f| f.cmp_text(filter))
                .unwrap_or_else(|insert_at| insert_at);
            entry.filters.insert(pos, filter.clone());
            entry.generation += 1;
        }
        self.table.subscribe(filter, self.me);
        self.table_stamp += 1;
        true
    }

    /// Drops one local subscription reference. Returns `true` when the
    /// truth changed (last reference gone).
    pub fn unsubscribe(&mut self, filter: &TopicFilter) -> bool {
        let gone = match self.local_refs.get_mut(filter) {
            Some(refs) => {
                *refs = refs.saturating_sub(1);
                *refs == 0
            }
            None => false,
        };
        if !gone {
            return false;
        }
        self.local_refs.remove(filter);
        if let Some(entry) = self.view.get_mut(self.me as usize) {
            if let Some(pos) = entry.filters.iter().position(|f| f == filter) {
                entry.filters.remove(pos);
            }
            entry.generation += 1;
        }
        self.table.unsubscribe(filter, &self.me);
        self.table_stamp += 1;
        true
    }

    /// Writes this node's digest — the full version vector — into `out`.
    pub fn digest_into(&self, out: &mut Vec<(NodeId, u64)>) {
        out.clear();
        for (node, entry) in self.view.iter().enumerate() {
            out.push((node as NodeId, entry.generation));
        }
    }

    /// The entries a peer reporting `digest` is missing: every node for
    /// which our known generation is strictly higher. Nodes absent from
    /// the digest count as generation 0.
    pub fn entries_newer_than(&self, digest: &[(NodeId, u64)]) -> Vec<(NodeId, InterestEntry)> {
        let mut fresh = Vec::new();
        for (node, entry) in self.view.iter().enumerate() {
            let theirs = digest
                .iter()
                .find(|(n, _)| *n as usize == node)
                .map(|(_, generation)| *generation)
                .unwrap_or(0);
            if entry.generation > theirs {
                fresh.push((node as NodeId, entry.clone()));
            }
        }
        fresh
    }

    /// Whether `digest` shows knowledge strictly newer than ours
    /// anywhere — the condition for sending the pull half (our own
    /// digest) back to the peer.
    pub fn behind(&self, digest: &[(NodeId, u64)]) -> bool {
        digest
            .iter()
            .any(|(node, generation)| *generation > self.entry(*node).generation)
    }

    /// Merges gossip entries into the view. Entries about ourselves are
    /// ignored (local truth always wins) and an entry is taken only if
    /// strictly newer, so `apply` is idempotent and monotone. Returns
    /// how many entries were applied.
    pub fn apply(&mut self, entries: &[(NodeId, InterestEntry)]) -> usize {
        let mut applied = 0;
        for (node, entry) in entries {
            if *node == self.me {
                continue;
            }
            let Some(known) = self.view.get_mut(*node as usize) else {
                continue;
            };
            if entry.generation > known.generation {
                *known = entry.clone();
                applied += 1;
            }
        }
        if applied > 0 {
            self.rebuild();
        }
        applied
    }

    /// Forgets everything learned about other nodes (back to the
    /// generation-0 empty view) while keeping the local truth — the
    /// state of a gateway daemon that restarted with its clients still
    /// attached. Anti-entropy refills the view on the next rounds.
    pub fn restart(&mut self) {
        let me = self.me as usize;
        for (node, entry) in self.view.iter_mut().enumerate() {
            if node != me {
                *entry = InterestEntry::default();
            }
        }
        self.rebuild();
    }

    /// Wipes the local truth too — generation back to 0, filters and
    /// refcounts gone — modelling a restart that lost its durable
    /// interest store. Peers holding the higher pre-crash generation
    /// will now never accept the empty set: the cluster cannot
    /// re-converge. Exists so the chaos harness can inject exactly that
    /// bug and prove its invariants catch it.
    pub fn wipe_local(&mut self) {
        self.local_refs.clear();
        let me = self.me as usize;
        if let Some(entry) = self.view.get_mut(me) {
            *entry = InterestEntry::default();
        }
        self.rebuild();
    }

    /// The nodes whose interest matches `topic`, including ourselves if
    /// we match (callers exclude `me` when fanning out). Warm topics are
    /// answered from a generation-stamped cache: a hash lookup and an
    /// `Arc` clone, no allocation.
    pub fn targets_for(&mut self, topic: &Topic) -> Arc<Vec<NodeId>> {
        if let Some(cached) = self.cache.get(topic) {
            if cached.stamp == self.table_stamp {
                return Arc::clone(&cached.targets);
            }
        }
        self.scratch.clear();
        self.table.matches_into(topic, &mut self.scratch);
        self.scratch.sort_unstable();
        self.scratch.dedup();
        let targets = Arc::new(self.scratch.clone());
        if self.cache.len() >= PLAN_CACHE_MAX {
            // Drop stale entries first; if the cache is full of live
            // answers, start over rather than grow without bound.
            let stamp = self.table_stamp;
            self.cache.retain(|_, cached| cached.stamp == stamp);
            if self.cache.len() >= PLAN_CACHE_MAX {
                self.cache.clear();
            }
        }
        self.cache.insert(
            topic.clone(),
            CachedTargets {
                stamp: self.table_stamp,
                targets: Arc::clone(&targets),
            },
        );
        targets
    }

    fn rebuild(&mut self) {
        self.table = SubscriptionTable::new();
        for (node, entry) in self.view.iter().enumerate() {
            for filter in &entry.filters {
                self.table.subscribe(filter, node as NodeId);
            }
        }
        self.table_stamp += 1;
    }
}

impl std::fmt::Debug for GossipState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GossipState")
            .field("me", &self.me)
            .field("nodes", &self.view.len())
            .field("local_generation", &self.local_generation())
            .field("interest_entries", &self.interest_entries())
            .finish()
    }
}

/// Typed errors decoding gossip bodies. Mirrors
/// [`crate::wire::DecodeEventError`]: malformed input is reported, never
/// panicked on, so a byte off the socket cannot take a worker down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeGossipError {
    /// The body ended before a declared field.
    Truncated,
    /// Bytes remained after the declared content.
    TrailingBytes,
    /// A filter string failed to parse.
    BadFilter,
    /// A declared count exceeds the sanity bound.
    TooLarge,
}

impl std::fmt::Display for DecodeGossipError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Truncated => write!(f, "gossip body truncated"),
            Self::TrailingBytes => write!(f, "gossip body has trailing bytes"),
            Self::BadFilter => write!(f, "gossip body carries an invalid filter"),
            Self::TooLarge => write!(f, "gossip body declares an oversized count"),
        }
    }
}

impl std::error::Error for DecodeGossipError {}

/// Sanity bound on counts in gossip bodies; real clusters are a few
/// dozen nodes with a few hundred filters.
const MAX_GOSSIP_ITEMS: usize = 65_535;

/// Encodes a digest body: `u16` count, then `(u16 node, u64 generation)`
/// per entry, all big-endian.
pub fn encode_digest_into(digest: &[(NodeId, u64)], buf: &mut impl BufMut) {
    let count = digest.len().min(MAX_GOSSIP_ITEMS);
    buf.put_u16(count as u16);
    for (node, generation) in digest.iter().take(count) {
        buf.put_u16(*node);
        buf.put_u64(*generation);
    }
}

/// Decodes a digest body. See [`encode_digest_into`] for the layout.
///
/// # Errors
///
/// Returns a [`DecodeGossipError`] describing the first malformation.
pub fn decode_digest(body: &[u8]) -> Result<Vec<(NodeId, u64)>, DecodeGossipError> {
    let mut cursor = Cursor::new(body);
    let count = cursor.u16()? as usize;
    let mut digest = Vec::with_capacity(count.min(64));
    for _ in 0..count {
        let node = cursor.u16()?;
        let generation = cursor.u64()?;
        digest.push((node, generation));
    }
    cursor.finish()?;
    Ok(digest)
}

/// Encodes an entries body: `u16` count, then per entry `u16` node,
/// `u64` generation, `u16` filter count, and each filter as a
/// `u16`-length-prefixed UTF-8 pattern.
pub fn encode_entries_into(entries: &[(NodeId, InterestEntry)], buf: &mut impl BufMut) {
    let count = entries.len().min(MAX_GOSSIP_ITEMS);
    buf.put_u16(count as u16);
    for (node, entry) in entries.iter().take(count) {
        buf.put_u16(*node);
        buf.put_u64(entry.generation);
        let filters = entry.filters.len().min(MAX_GOSSIP_ITEMS);
        buf.put_u16(filters as u16);
        for filter in entry.filters.iter().take(filters) {
            let pattern = filter.to_string();
            let bytes = pattern.as_bytes();
            let len = bytes.len().min(MAX_GOSSIP_ITEMS);
            buf.put_u16(len as u16);
            if let Some(head) = bytes.get(..len) {
                buf.put_slice(head);
            }
        }
    }
}

/// Decodes an entries body. See [`encode_entries_into`] for the layout.
///
/// # Errors
///
/// Returns a [`DecodeGossipError`] describing the first malformation.
pub fn decode_entries(body: &[u8]) -> Result<Vec<(NodeId, InterestEntry)>, DecodeGossipError> {
    let mut cursor = Cursor::new(body);
    let count = cursor.u16()? as usize;
    let mut entries = Vec::with_capacity(count.min(64));
    for _ in 0..count {
        let node = cursor.u16()?;
        let generation = cursor.u64()?;
        let nfilters = cursor.u16()? as usize;
        let mut filters = Vec::with_capacity(nfilters.min(64));
        for _ in 0..nfilters {
            let len = cursor.u16()? as usize;
            let raw = cursor.bytes(len)?;
            let text = std::str::from_utf8(raw).map_err(|_| DecodeGossipError::BadFilter)?;
            let filter = TopicFilter::parse(text).map_err(|_| DecodeGossipError::BadFilter)?;
            filters.push(filter);
        }
        entries.push((node, InterestEntry { generation, filters }));
    }
    cursor.finish()?;
    Ok(entries)
}

/// Bounds-checked big-endian reader over a gossip body; every read is
/// explicit so truncation surfaces as an error, never a panic.
struct Cursor<'a> {
    body: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(body: &'a [u8]) -> Self {
        Self { body, at: 0 }
    }

    fn bytes(&mut self, len: usize) -> Result<&'a [u8], DecodeGossipError> {
        let end = self.at.checked_add(len).ok_or(DecodeGossipError::Truncated)?;
        let slice = self
            .body
            .get(self.at..end)
            .ok_or(DecodeGossipError::Truncated)?;
        self.at = end;
        Ok(slice)
    }

    fn u16(&mut self) -> Result<u16, DecodeGossipError> {
        let raw = self.bytes(2)?;
        Ok(u16::from_be_bytes([raw[0], raw[1]]))
    }

    fn u64(&mut self) -> Result<u64, DecodeGossipError> {
        let raw = self.bytes(8)?;
        let mut word = [0u8; 8];
        word.copy_from_slice(raw);
        Ok(u64::from_be_bytes(word))
    }

    fn finish(&self) -> Result<(), DecodeGossipError> {
        if self.at == self.body.len() {
            Ok(())
        } else {
            Err(DecodeGossipError::TrailingBytes)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn filter(s: &str) -> TopicFilter {
        TopicFilter::parse(s).unwrap()
    }

    fn topic(s: &str) -> Topic {
        Topic::parse(s).unwrap()
    }

    #[test]
    fn subscribe_bumps_generation_once_per_distinct_filter() {
        let mut state = GossipState::new(0, 2);
        assert!(state.subscribe(&filter("a/#")));
        assert!(!state.subscribe(&filter("a/#"))); // refcounted
        assert_eq!(state.local_generation(), 1);
        assert!(!state.unsubscribe(&filter("a/#")));
        assert!(state.unsubscribe(&filter("a/#")));
        assert_eq!(state.local_generation(), 2);
        assert!(state.entry(0).filters.is_empty());
    }

    #[test]
    fn push_pull_converges_both_directions() {
        let mut a = GossipState::new(0, 2);
        let mut b = GossipState::new(1, 2);
        a.subscribe(&filter("audio/#"));
        b.subscribe(&filter("video/#"));

        // A ticks: digest to B; B pushes what A lacks and pulls back.
        let mut digest = Vec::new();
        a.digest_into(&mut digest);
        let push = b.entries_newer_than(&digest);
        assert_eq!(a.apply(&push), 1);
        assert!(b.behind(&digest));
        let mut reply = Vec::new();
        b.digest_into(&mut reply);
        let pull = a.entries_newer_than(&reply);
        assert_eq!(b.apply(&pull), 1);

        assert_eq!(a.entry(1), b.entry(1));
        assert_eq!(b.entry(0), a.entry(0));
        assert!(!a.behind(&reply));
    }

    #[test]
    fn apply_is_idempotent_and_ignores_self_and_stale() {
        let mut a = GossipState::new(0, 3);
        a.subscribe(&filter("x/#"));
        let entries = vec![
            (
                1,
                InterestEntry {
                    generation: 5,
                    filters: vec![filter("y/#")],
                },
            ),
            (
                0, // about ourselves: local truth wins
                InterestEntry {
                    generation: 99,
                    filters: vec![filter("z/#")],
                },
            ),
        ];
        assert_eq!(a.apply(&entries), 1);
        assert_eq!(a.apply(&entries), 0); // same generation: no-op
        assert_eq!(a.local_generation(), 1);
        assert_eq!(a.entry(1).generation, 5);
        let stale = vec![(
            1,
            InterestEntry {
                generation: 3,
                filters: vec![],
            },
        )];
        assert_eq!(a.apply(&stale), 0);
    }

    #[test]
    fn targets_for_matches_across_the_view_and_caches() {
        let mut a = GossipState::new(0, 3);
        a.subscribe(&filter("media/#"));
        a.apply(&[(
            2,
            InterestEntry {
                generation: 1,
                filters: vec![filter("media/42/*")],
            },
        )]);
        let t = topic("media/42/video");
        let first = a.targets_for(&t);
        assert_eq!(first.as_slice(), &[0, 2]);
        let warm = a.targets_for(&t);
        assert!(Arc::ptr_eq(&first, &warm));
        // Interest change invalidates the cache.
        a.apply(&[(
            1,
            InterestEntry {
                generation: 4,
                filters: vec![filter("media/#")],
            },
        )]);
        assert_eq!(a.targets_for(&t).as_slice(), &[0, 1, 2]);
    }

    #[test]
    fn target_cache_stays_bounded_and_right() {
        let mut a = GossipState::new(0, 3);
        a.subscribe(&filter("media/#"));
        // Even topics match the local filter, odd ones match nothing.
        let name = |i: usize| {
            let head = if i.is_multiple_of(2) { "media" } else { "quiet" };
            topic(&format!("{head}/{i}"))
        };
        let expected = |i: usize| -> &'static [NodeId] { if i.is_multiple_of(2) { &[0] } else { &[] } };
        for i in 0..PLAN_CACHE_MAX + 100 {
            assert_eq!(a.targets_for(&name(i)).as_slice(), expected(i), "topic {i}");
            assert!(a.cache.len() <= PLAN_CACHE_MAX);
        }
        // Evicted and surviving topics alike still answer right.
        for i in 0..PLAN_CACHE_MAX + 100 {
            assert_eq!(a.targets_for(&name(i)).as_slice(), expected(i), "topic {i}");
        }
        assert!(a.cache.len() <= PLAN_CACHE_MAX);
    }

    #[test]
    fn restart_forgets_peers_but_keeps_truth() {
        let mut a = GossipState::new(0, 2);
        a.subscribe(&filter("keep/#"));
        a.apply(&[(
            1,
            InterestEntry {
                generation: 7,
                filters: vec![filter("peer/#")],
            },
        )]);
        a.restart();
        assert_eq!(a.local_generation(), 1);
        assert_eq!(a.entry(1).generation, 0);
        assert!(a.entry(1).filters.is_empty());
    }

    /// One step of a gossip state's life.
    #[derive(Debug, Clone)]
    enum Op {
        Subscribe(TopicFilter),
        Unsubscribe(TopicFilter),
        Apply(NodeId, InterestEntry),
    }

    /// Filters over segments whose texts overlap (`a` is a prefix of
    /// `ab`, and `*` and `/` sort below letters), so the text order of
    /// the local truth is exercised.
    fn filter_strategy() -> impl Strategy<Value = TopicFilter> {
        (
            prop::collection::vec(prop::sample::select(vec!["a", "ab", "b", "*"]), 0..=3),
            any::<bool>(),
        )
            .prop_map(|(mut segments, tail)| {
                if tail || segments.is_empty() {
                    segments.push("#");
                }
                filter(&segments.join("/"))
            })
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            3 => filter_strategy().prop_map(Op::Subscribe),
            2 => filter_strategy().prop_map(Op::Unsubscribe),
            2 => (0u16..3, 0u64..8, prop::collection::vec(filter_strategy(), 0..3)).prop_map(
                |(node, generation, filters)| Op::Apply(node, InterestEntry { generation, filters })
            ),
        ]
    }

    /// Every topic of one to three segments over the filters' alphabet.
    fn probe_topics() -> Vec<Topic> {
        let mut topics: Vec<Vec<&str>> = vec![vec![]];
        let mut out = Vec::new();
        for _ in 0..3 {
            topics = topics
                .iter()
                .flat_map(|prefix| {
                    ["a", "ab", "b"].map(|segment| [prefix.as_slice(), &[segment]].concat())
                })
                .collect();
            out.extend(topics.iter().map(|segments| topic(&segments.join("/"))));
        }
        out
    }

    proptest! {
        /// Updating the table in place on a local (un)subscribe answers
        /// exactly as a table rebuilt from the whole view does, and the
        /// local truth lists its filters in text order, refcounted.
        #[test]
        fn in_place_updates_match_a_rebuilt_state(
            ops in prop::collection::vec(op_strategy(), 1..40),
        ) {
            let mut state = GossipState::new(0, 3);
            let mut refs: std::collections::BTreeMap<String, usize> = Default::default();
            let mut generation = 0;
            let mut peers = vec![InterestEntry::default(); 3];
            let probes = probe_topics();
            for op in &ops {
                match op {
                    Op::Subscribe(f) => {
                        let count = refs.entry(f.to_string()).or_insert(0);
                        *count += 1;
                        generation += u64::from(*count == 1);
                        prop_assert_eq!(state.subscribe(f), *count == 1);
                    }
                    Op::Unsubscribe(f) => {
                        let gone = match refs.get_mut(&f.to_string()) {
                            Some(count) => {
                                *count -= 1;
                                *count == 0
                            }
                            None => false,
                        };
                        if gone {
                            refs.remove(&f.to_string());
                            generation += 1;
                        }
                        prop_assert_eq!(state.unsubscribe(f), gone);
                    }
                    Op::Apply(node, entry) => {
                        let known = &mut peers[*node as usize];
                        let newer = *node != 0 && entry.generation > known.generation;
                        if newer {
                            *known = entry.clone();
                        }
                        prop_assert_eq!(state.apply(&[(*node, entry.clone())]), usize::from(newer));
                    }
                }
                prop_assert_eq!(&state.view[1..], &peers[1..]);
                let truth: Vec<String> = state.entry(0).filters.iter().map(ToString::to_string).collect();
                prop_assert_eq!(truth, refs.keys().cloned().collect::<Vec<_>>());
                prop_assert_eq!(state.local_generation(), generation);
                let mut rebuilt = GossipState::new(0, 3);
                rebuilt.view = state.view.clone();
                rebuilt.rebuild();
                for probe in &probes {
                    prop_assert_eq!(state.targets_for(probe), rebuilt.targets_for(probe), "{}", probe);
                }
            }
        }
    }

    #[test]
    fn digest_roundtrip() {
        let digest = vec![(0u16, 0u64), (1, 42), (7, u64::MAX)];
        let mut buf = Vec::new();
        encode_digest_into(&digest, &mut buf);
        assert_eq!(decode_digest(&buf).unwrap(), digest);
        for cut in 0..buf.len() {
            assert!(
                matches!(decode_digest(&buf[..cut]), Err(DecodeGossipError::Truncated)),
                "prefix {cut} must be truncated"
            );
        }
        let mut extra = buf.clone();
        extra.push(0);
        assert_eq!(decode_digest(&extra), Err(DecodeGossipError::TrailingBytes));
    }

    #[test]
    fn entries_roundtrip_and_reject_bad_filters() {
        let entries = vec![
            (
                5u16,
                InterestEntry {
                    generation: 1,
                    filters: vec![],
                },
            ),
            (
                3,
                InterestEntry {
                    generation: 9,
                    filters: vec![filter("a/#"), filter("b/*/c")],
                },
            ),
        ];
        let mut buf = Vec::new();
        encode_entries_into(&entries, &mut buf);
        assert_eq!(decode_entries(&buf).unwrap(), entries);
        for cut in 0..buf.len() {
            assert!(
                decode_entries(&buf[..cut]).is_err(),
                "prefix {cut} must fail"
            );
        }
        // Corrupt a filter byte into an invalid pattern character.
        let mut bad = buf.clone();
        let pos = bad.len() - 1; // last byte of "b/*/c"
        bad[pos] = b'\xff';
        assert_eq!(decode_entries(&bad), Err(DecodeGossipError::BadFilter));
    }
}
