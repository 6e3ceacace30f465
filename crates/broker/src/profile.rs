//! Transport profiles.
//!
//! NaradaBrokering exposed pluggable transports — TCP, UDP, IP multicast,
//! SSL and a raw-RTP mode for legacy A/V clients — and selected one per
//! client connection. The profile determines per-packet framing overhead
//! and the relative CPU cost of moving a packet through that stack.

use mmcs_util::time::SimDuration;

/// A client↔broker transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TransportProfile {
    /// Plain TCP framing (the JMS-like default).
    #[default]
    Tcp,
    /// UDP datagrams; lossy links drop instead of retrying.
    Udp,
    /// IP multicast; one NIC transmission reaches every group member on
    /// the same segment.
    Multicast,
    /// TLS over TCP; highest per-packet CPU cost.
    Ssl,
    /// Raw RTP passthrough for legacy A/V endpoints that cannot speak the
    /// event protocol; an RTP proxy (the rendezvous agent of `global-mmcs`)
    /// bridges them.
    RawRtp,
}

impl TransportProfile {
    /// Framing bytes this transport adds per packet beyond the event
    /// itself (IP/transport/TLS headers).
    pub fn overhead_bytes(self) -> usize {
        match self {
            TransportProfile::Tcp => 40,      // IP + TCP
            TransportProfile::Udp => 28,      // IP + UDP
            TransportProfile::Multicast => 28,
            TransportProfile::Ssl => 69,      // IP + TCP + TLS record
            TransportProfile::RawRtp => 28,   // IP + UDP, RTP is the payload
        }
    }

    /// Relative CPU cost multiplier of pushing one packet through this
    /// stack (UDP = 1.0).
    pub fn cpu_factor(self) -> f64 {
        match self {
            TransportProfile::Udp | TransportProfile::RawRtp => 1.0,
            TransportProfile::Multicast => 1.0,
            TransportProfile::Tcp => 1.3,
            TransportProfile::Ssl => 2.5,
        }
    }

    /// Scales a base per-packet CPU cost by this profile's factor.
    pub fn scale_cost(self, base: SimDuration) -> SimDuration {
        base * self.cpu_factor()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overheads_are_ordered_sensibly() {
        assert!(
            TransportProfile::Udp.overhead_bytes() < TransportProfile::Tcp.overhead_bytes()
        );
        assert!(
            TransportProfile::Tcp.overhead_bytes() < TransportProfile::Ssl.overhead_bytes()
        );
        assert_eq!(
            TransportProfile::RawRtp.overhead_bytes(),
            TransportProfile::Udp.overhead_bytes()
        );
    }

    #[test]
    fn ssl_costs_most_cpu() {
        let base = SimDuration::from_micros(10);
        assert!(TransportProfile::Ssl.scale_cost(base) > TransportProfile::Tcp.scale_cost(base));
        assert_eq!(TransportProfile::Udp.scale_cost(base), base);
    }

    #[test]
    fn default_is_tcp() {
        assert_eq!(TransportProfile::default(), TransportProfile::Tcp);
    }
}
