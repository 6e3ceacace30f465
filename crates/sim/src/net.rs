//! The network model: hosts, NICs and links.
//!
//! Each host owns one egress NIC with finite [`Bandwidth`] and a drop-tail
//! byte-limited queue, and one serial CPU (managed by the engine). Pairs
//! of hosts communicate over implicit duplex links configured by a default
//! [`LinkConfig`] plus per-pair overrides. Same-host traffic bypasses the
//! NIC and pays only a small loopback latency.

use std::collections::HashMap;

use mmcs_util::rate::Bandwidth;
use mmcs_util::rng::DetRng;
use mmcs_util::time::{SimDuration, SimTime};

/// Identifies a simulated host (machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct HostId(pub u64);

impl std::fmt::Display for HostId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "host-{}", self.0)
    }
}

/// Egress NIC configuration for a host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NicConfig {
    /// Egress capacity. Default: 1 Gbps.
    pub bandwidth: Bandwidth,
    /// Drop-tail limit on bytes backlogged behind the NIC.
    /// Default: 4 MiB (a few hundred ms at typical rates).
    pub queue_bytes: u64,
    /// Latency applied to same-host (loopback) deliveries. Default: 20 µs.
    pub loopback_latency: SimDuration,
}

impl Default for NicConfig {
    fn default() -> Self {
        Self {
            bandwidth: Bandwidth::from_gbps(1),
            queue_bytes: 4 * 1024 * 1024,
            loopback_latency: SimDuration::from_micros(20),
        }
    }
}

/// Properties of the path between two hosts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// One-way propagation delay. Default: 200 µs (a campus LAN).
    pub latency: SimDuration,
    /// Independent per-packet loss probability in `[0, 1]`. Default: 0.
    pub loss: f64,
}

impl Default for LinkConfig {
    fn default() -> Self {
        Self {
            latency: SimDuration::from_micros(200),
            loss: 0.0,
        }
    }
}

#[derive(Debug)]
pub(crate) struct HostState {
    /// Human-readable label, surfaced via `Simulation::host_name`.
    pub name: String,
    pub nic: NicConfig,
    /// When the egress NIC finishes its current backlog.
    pub nic_free_at: SimTime,
    /// When the host CPU finishes its current work.
    pub cpu_free_at: SimTime,
    /// Events waiting for the CPU, in arrival order. Kept per host (not
    /// in the global heap) so a long backlog drains in O(1) per event
    /// instead of re-sorting the whole backlog after every handler. One
    /// drain event is armed for the host exactly while it is non-empty.
    pub pending: std::collections::VecDeque<crate::engine::DeferredEvent>,
    /// Deterministic RNG stream private to this host. Every random draw
    /// attributable to the host (its processes' `ctx.rng()`, plus the
    /// loss draw on packets it sends) comes from here, so the draw
    /// sequence depends only on the host's own execution order, not on
    /// how its events interleave with other hosts'.
    pub rng: DetRng,
    /// Private counter for event keys minted with this host as origin.
    /// See `engine::EventKey` for the total-order argument.
    pub push_seq: u64,
    /// Execution trace (fixed-width records, see `engine` trace tags);
    /// only appended to while `Simulation::set_trace_enabled(true)`.
    pub trace: Vec<u64>,
}

/// Derives a host's private RNG seed from the simulation master seed.
/// The odd multiplier (the 64-bit golden ratio) spreads consecutive host
/// ids across the seed space so stream prefixes don't correlate.
pub(crate) fn host_stream_seed(master_seed: u64, id: u64) -> u64 {
    master_seed ^ (id + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Host and link state shared by the engine.
#[derive(Debug, Default)]
pub(crate) struct NetworkState {
    pub hosts: Vec<HostState>,
    pub default_link: LinkConfig,
    /// Per-pair overrides, keyed `(lower id, higher id)`: links are
    /// symmetric, so one normalised key makes a lookup one probe.
    pub link_overrides: HashMap<(HostId, HostId), LinkConfig>,
}

fn link_key(a: HostId, b: HostId) -> (HostId, HostId) {
    (a.min(b), a.max(b))
}

impl NetworkState {
    pub fn add_host(&mut self, name: &str, nic: NicConfig, master_seed: u64) -> HostId {
        let id = HostId(self.hosts.len() as u64);
        self.hosts.push(HostState {
            name: name.to_owned(),
            nic,
            nic_free_at: SimTime::ZERO,
            cpu_free_at: SimTime::ZERO,
            pending: std::collections::VecDeque::new(),
            rng: DetRng::new(host_stream_seed(master_seed, id.0)),
            push_seq: 0,
            trace: Vec::new(),
        });
        id
    }

    pub fn host(&self, id: HostId) -> &HostState {
        &self.hosts[id.0 as usize]
    }

    pub fn host_mut(&mut self, id: HostId) -> &mut HostState {
        &mut self.hosts[id.0 as usize]
    }

    /// Overrides the link between `a` and `b`, in both directions.
    pub fn set_link(&mut self, a: HostId, b: HostId, link: LinkConfig) {
        self.link_overrides.insert(link_key(a, b), link);
    }

    /// Link configuration between two hosts, in either order. Most runs
    /// override nothing, and then a send hashes nothing.
    pub fn link(&self, a: HostId, b: HostId) -> LinkConfig {
        if self.link_overrides.is_empty() {
            return self.default_link;
        }
        self.link_overrides
            .get(&link_key(a, b))
            .copied()
            .unwrap_or(self.default_link)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let nic = NicConfig::default();
        assert_eq!(nic.bandwidth, Bandwidth::from_gbps(1));
        assert!(nic.queue_bytes > 0);
        let link = LinkConfig::default();
        assert_eq!(link.loss, 0.0);
        assert!(link.latency > SimDuration::ZERO);
    }

    #[test]
    fn link_override_is_symmetric() {
        let mut net = NetworkState::default();
        let a = net.add_host("a", NicConfig::default(), 1);
        let b = net.add_host("b", NicConfig::default(), 1);
        let cfg = LinkConfig {
            latency: SimDuration::from_millis(5),
            loss: 0.25,
        };
        net.set_link(b, a, cfg);
        assert_eq!(net.link(a, b).latency, cfg.latency);
        assert_eq!(net.link(b, a).latency, cfg.latency);
        // Both orders are one key: re-setting replaces, it does not add.
        net.set_link(a, b, cfg);
        assert_eq!(net.link_overrides.len(), 1);
        let c = net.add_host("c", NicConfig::default(), 1);
        assert_eq!(net.link(a, c), LinkConfig::default());
    }

    #[test]
    fn host_ids_are_sequential() {
        let mut net = NetworkState::default();
        assert_eq!(net.add_host("x", NicConfig::default(), 1), HostId(0));
        assert_eq!(net.add_host("y", NicConfig::default(), 1), HostId(1));
        assert_eq!(net.host(HostId(1)).name, "y");
        assert_eq!(HostId(1).to_string(), "host-1");
    }
}
