//! The static geography of a cluster: which node pairs are directly
//! linked and at what latency ([`LatencyMap`]), and the all-pairs
//! shortest paths over it ([`RouteTable`]).

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

/// All-pairs latency-weighted shortest paths over a [`LatencyMap`]
/// (Floyd–Warshall), answering "which direct neighbour do I hand a
/// frame for `dest` to". Routes are static: runtime faults drop frames
/// on the affected links instead of recomputing paths, which keeps
/// chaos runs deterministic.
#[derive(Debug)]
pub struct RouteTable {
    nodes: usize,
    dist: Vec<u64>,
    next: Vec<Option<NodeId>>,
}

impl RouteTable {
    /// Builds the table from the map's direct links.
    pub fn new(map: &LatencyMap) -> Self {
        let n = map.node_count();
        let mut dist = vec![ROUTE_INF; n * n];
        let mut next: Vec<Option<NodeId>> = vec![None; n * n];
        for a in 0..n {
            dist[a * n + a] = 0;
            for b in 0..n {
                if let Some(ms) = map.link(a as NodeId, b as NodeId) {
                    dist[a * n + b] = u64::from(ms);
                    next[a * n + b] = Some(b as NodeId);
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
        Self { nodes: n, dist, next }
    }

    /// The direct neighbour on the shortest path from `from` to `to`
    /// (`None` for self or unreachable destinations).
    pub fn next_hop(&self, from: NodeId, to: NodeId) -> Option<NodeId> {
        if from == to {
            return None;
        }
        self.next
            .get(from as usize * self.nodes + to as usize)
            .copied()
            .flatten()
    }

    /// Total path latency, if reachable.
    pub fn distance(&self, from: NodeId, to: NodeId) -> Option<u64> {
        let d = self
            .dist
            .get(from as usize * self.nodes + to as usize)
            .copied()?;
        (d < ROUTE_INF).then_some(d)
    }

    /// Links on the shortest path, if reachable (0 for self).
    pub fn hops(&self, from: NodeId, to: NodeId) -> Option<usize> {
        if from == to {
            return Some(0);
        }
        let mut at = from;
        for hop in 1..=self.nodes {
            at = self.next_hop(at, to)?;
            if at == to {
                return Some(hop);
            }
        }
        None
    }
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
}
