//! The static geography of a cluster: which node pairs are directly
//! linked and at what latency ([`LatencyMap`]), and the all-pairs
//! shortest paths over the links no failure detector suspects
//! ([`RouteTable`]).

use std::sync::atomic::{AtomicU16, AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::gossip::NodeId;

/// The static latency geography of a cluster: which node pairs have a
/// direct link (and its one-way latency), plus per-zone latency rows
/// used to home clients to their nearest gateway.
#[derive(Debug, Clone)]
pub struct LatencyMap {
    nodes: usize,
    links: Vec<Option<u32>>,
    zones: Vec<Vec<u32>>,
}

impl LatencyMap {
    /// A map with `nodes` nodes and no links yet.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero or exceeds the `u16` id space.
    pub fn new(nodes: usize) -> Self {
        assert!(nodes > 0, "cluster needs at least one node");
        assert!(nodes <= u16::MAX as usize, "node ids are u16");
        Self {
            nodes,
            links: vec![None; nodes * nodes],
            zones: Vec::new(),
        }
    }

    /// Every pair directly linked at `latency_ms`.
    pub fn full_mesh(nodes: usize, latency_ms: u32) -> Self {
        let mut map = Self::new(nodes);
        for a in 0..nodes {
            for b in (a + 1)..nodes {
                map.set_link(a as NodeId, b as NodeId, latency_ms);
            }
        }
        map
    }

    /// Nodes linked in a line (`0–1–2–…`) at `latency_ms` per segment —
    /// the smallest topology that exercises multi-hop relaying.
    pub fn chain(nodes: usize, latency_ms: u32) -> Self {
        let mut map = Self::new(nodes);
        for a in 1..nodes {
            map.set_link((a - 1) as NodeId, a as NodeId, latency_ms);
        }
        map
    }

    /// Sets the symmetric direct link `a ↔ b`.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range or `a == b`.
    pub fn set_link(&mut self, a: NodeId, b: NodeId, latency_ms: u32) {
        let (a, b) = (a as usize, b as usize);
        assert!(a < self.nodes && b < self.nodes, "node id out of range");
        assert!(a != b, "no self links");
        self.links[a * self.nodes + b] = Some(latency_ms);
        self.links[b * self.nodes + a] = Some(latency_ms);
    }

    /// Appends a zone given its latency to every node; the zone homes
    /// to the argmin (ties break to the lowest node id).
    ///
    /// # Panics
    ///
    /// Panics if the row length differs from the node count.
    pub fn with_zone(mut self, latencies_ms: Vec<u32>) -> Self {
        assert_eq!(latencies_ms.len(), self.nodes, "one latency per node");
        self.zones.push(latencies_ms);
        self
    }

    /// Direct link latency between `a` and `b`, if linked.
    pub fn link(&self, a: NodeId, b: NodeId) -> Option<u32> {
        self.links
            .get(a as usize * self.nodes + b as usize)
            .copied()
            .flatten()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Number of zones. Without explicit zones every node is its own
    /// zone.
    pub fn zone_count(&self) -> usize {
        if self.zones.is_empty() {
            self.nodes
        } else {
            self.zones.len()
        }
    }

    /// The gateway node clients of `zone` home to: the node with the
    /// lowest static latency from that zone (lowest id wins ties).
    /// Zones wrap modulo the zone count, and without explicit zone
    /// rows zone `z` homes to node `z % nodes`.
    pub fn home_node(&self, zone: usize) -> NodeId {
        if self.zones.is_empty() {
            return (zone % self.nodes) as NodeId;
        }
        let row = &self.zones[zone % self.zones.len()];
        let mut best = 0usize;
        for (node, latency) in row.iter().enumerate() {
            if *latency < row[best] {
                best = node;
            }
        }
        best as NodeId
    }
}

const ROUTE_INF: u64 = u64::MAX / 4;
/// The `next` entry of a pair with no next hop.
const NO_HOP: u16 = u16::MAX;

/// All-pairs latency-weighted shortest paths over a [`LatencyMap`]
/// (Floyd–Warshall), answering "which direct neighbour do I hand a
/// frame for `dest` to". A link either end's failure detector suspects
/// is left out: a verdict recomputes the paths and rewrites the table in
/// place, entry by entry, so a frame's [`RouteTable::next_hop`] read
/// stays one relaxed load and takes no lock.
#[derive(Debug)]
pub struct RouteTable {
    map: LatencyMap,
    dist: Vec<AtomicU64>,
    /// `next[from * nodes + to]`, [`NO_HOP`] for none.
    next: Vec<AtomicU16>,
    /// `suspects[a * nodes + b]`: `a`'s detector suspects `b`. Held
    /// across a rewrite, so rewrites apply one at a time.
    suspects: Mutex<Vec<bool>>,
}

impl RouteTable {
    /// Builds the table from the map's direct links.
    pub fn new(map: &LatencyMap) -> Self {
        let n = map.node_count();
        let (dist, next) = shortest_paths(map, |_, _| true);
        Self {
            map: map.clone(),
            dist: dist.into_iter().map(AtomicU64::new).collect(),
            next: next.into_iter().map(AtomicU16::new).collect(),
            suspects: Mutex::new(vec![false; n * n]),
        }
    }

    /// Records that `from`'s detector suspects (or no longer suspects)
    /// its direct peer `peer`, for each entry of `changes`, then
    /// recomputes every path over the links neither end suspects.
    pub(super) fn set_suspected(&self, changes: &[(NodeId, NodeId, bool)]) {
        let n = self.map.node_count();
        let mut suspects = self.suspects.lock();
        for &(from, peer, suspected) in changes {
            if let Some(flag) = suspects.get_mut(from as usize * n + peer as usize) {
                *flag = suspected;
            }
        }
        let (dist, next) = shortest_paths(&self.map, |a, b| {
            !suspects[a * n + b] && !suspects[b * n + a]
        });
        for (slot, d) in self.dist.iter().zip(dist) {
            slot.store(d, Ordering::Relaxed);
        }
        for (slot, hop) in self.next.iter().zip(next) {
            slot.store(hop, Ordering::Relaxed);
        }
    }

    /// The direct neighbour on the shortest path from `from` to `to`
    /// (`None` for self or unreachable destinations).
    pub fn next_hop(&self, from: NodeId, to: NodeId) -> Option<NodeId> {
        let n = self.map.node_count();
        let hop = self.next.get(from as usize * n + to as usize)?;
        Some(hop.load(Ordering::Relaxed)).filter(|&hop| hop != NO_HOP && from != to)
    }

    /// Total path latency, if reachable.
    pub fn distance(&self, from: NodeId, to: NodeId) -> Option<u64> {
        let n = self.map.node_count();
        let d = self.dist.get(from as usize * n + to as usize)?;
        Some(d.load(Ordering::Relaxed)).filter(|&d| d < ROUTE_INF)
    }

    /// Links on the shortest path, if reachable (0 for self).
    pub fn hops(&self, from: NodeId, to: NodeId) -> Option<usize> {
        if from == to {
            return Some(0);
        }
        let mut at = from;
        for hop in 1..=self.map.node_count() {
            at = self.next_hop(at, to)?;
            if at == to {
                return Some(hop);
            }
        }
        None
    }
}

/// Floyd–Warshall over the map's links that `usable` admits: the
/// all-pairs distances and next hops, row-major.
fn shortest_paths(map: &LatencyMap, usable: impl Fn(usize, usize) -> bool) -> (Vec<u64>, Vec<u16>) {
    let n = map.node_count();
    let mut dist = vec![ROUTE_INF; n * n];
    let mut next = vec![NO_HOP; n * n];
    for a in 0..n {
        dist[a * n + a] = 0;
        for b in 0..n {
            if let Some(ms) = map.link(a as NodeId, b as NodeId).filter(|_| usable(a, b)) {
                dist[a * n + b] = u64::from(ms);
                next[a * n + b] = b as NodeId;
            }
        }
    }
    for c in 0..n {
        for a in 0..n {
            for b in 0..n {
                let via = dist[a * n + c].saturating_add(dist[c * n + b]);
                if via < dist[a * n + b] {
                    dist[a * n + b] = via;
                    next[a * n + b] = next[a * n + c];
                }
            }
        }
    }
    (dist, next)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zones_home_to_their_lowest_latency_node() {
        let map = LatencyMap::full_mesh(3, 5)
            .with_zone(vec![1, 10, 10])
            .with_zone(vec![10, 1, 10])
            .with_zone(vec![7, 7, 7]);
        assert_eq!(map.home_node(0), 0);
        assert_eq!(map.home_node(1), 1);
        // Ties break to the lowest node id.
        assert_eq!(map.home_node(2), 0);
        // Zones wrap.
        assert_eq!(map.home_node(4), 1);
    }

    #[test]
    fn route_table_walks_the_chain() {
        let map = LatencyMap::chain(4, 10);
        let routes = RouteTable::new(&map);
        assert_eq!(routes.next_hop(0, 3), Some(1));
        assert_eq!(routes.next_hop(1, 3), Some(2));
        assert_eq!(routes.hops(0, 3), Some(3));
        assert_eq!(routes.distance(0, 3), Some(30));
        assert_eq!(routes.next_hop(2, 2), None);
        assert_eq!(routes.hops(2, 2), Some(0));
    }

    #[test]
    fn route_table_prefers_lower_latency_detours() {
        // Direct 0-2 link is expensive; 0-1-2 is cheaper.
        let mut map = LatencyMap::new(3);
        map.set_link(0, 2, 100);
        map.set_link(0, 1, 10);
        map.set_link(1, 2, 10);
        let routes = RouteTable::new(&map);
        assert_eq!(routes.next_hop(0, 2), Some(1));
        assert_eq!(routes.distance(0, 2), Some(20));
    }

    /// Chain `0–1–2–3` at 5 ms with a 20 ms chord `1–3`: the shortest
    /// path to 3 runs through 2 until a detector suspects a link of it,
    /// and comes back once nobody does.
    #[test]
    fn a_suspected_link_is_routed_around_until_both_ends_trust_it() {
        let mut map = LatencyMap::chain(4, 5);
        map.set_link(1, 3, 20);
        let routes = RouteTable::new(&map);
        assert_eq!((routes.next_hop(0, 3), routes.next_hop(1, 3)), (Some(1), Some(2)));
        routes.set_suspected(&[(1, 2, true), (2, 1, true)]);
        assert_eq!(routes.next_hop(1, 3), Some(3));
        assert_eq!((routes.hops(0, 3), routes.distance(0, 3)), (Some(2), Some(25)));
        assert_eq!(routes.next_hop(3, 2), Some(2), "2–3 is still trusted");
        routes.set_suspected(&[(1, 2, false)]);
        assert_eq!(routes.next_hop(1, 3), Some(3), "2 still suspects 1");
        routes.set_suspected(&[(2, 1, false)]);
        assert_eq!(routes.next_hop(1, 3), Some(2));
        routes.set_suspected(&[(1, 0, true)]);
        assert_eq!((routes.next_hop(0, 3), routes.distance(3, 0)), (None, None));
    }
}
