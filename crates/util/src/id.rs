//! Strongly-typed numeric identifiers.
//!
//! Every entity in Global-MMCS (users, terminals, sessions, communities,
//! brokers, simulated hosts, …) is identified by a `u64` wrapped in a
//! dedicated newtype, following the C-NEWTYPE guideline: a
//! [`UserId`] can never be passed where a [`TerminalId`] is expected.
//!
//! Ids are allocated by [`IdAllocator`], a simple monotonically increasing
//! counter that each directory/server owns. Maps keyed by them on a
//! per-packet path hash with [`IdHasher`] ([`IdMap`]).
//!
//! # Examples
//!
//! ```
//! use mmcs_util::id::{IdAllocator, UserId};
//!
//! let mut alloc = IdAllocator::new();
//! let a: UserId = alloc.next();
//! let b: UserId = alloc.next();
//! assert_ne!(a, b);
//! assert_eq!(a.value() + 1, b.value());
//! ```

use core::fmt;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::marker::PhantomData;

/// Implements a `u64`-backed identifier newtype with the common traits.
macro_rules! define_id {
    ($(#[$meta:meta])* $name:ident, $prefix:expr) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(u64);

        impl $name {
            /// Wraps a raw `u64` value.
            pub const fn from_raw(raw: u64) -> Self {
                Self(raw)
            }

            /// Returns the underlying `u64` value.
            pub const fn value(self) -> u64 {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}-{}", $prefix, self.0)
            }
        }

        impl From<$name> for u64 {
            fn from(id: $name) -> u64 {
                id.0
            }
        }

        impl From<u64> for $name {
            fn from(raw: u64) -> $name {
                $name(raw)
            }
        }
    };
}

define_id!(
    /// Identifies a registered user account in the user directory.
    UserId,
    "user"
);
define_id!(
    /// Identifies a media terminal (an H.323 endpoint, SIP UA, Admire
    /// client, player, …) bound to a user.
    TerminalId,
    "term"
);
define_id!(
    /// Identifies an XGSP collaboration session (a meeting).
    SessionId,
    "session"
);
define_id!(
    /// Identifies an autonomous collaboration community (e.g. the Admire
    /// deployment in China, an H.323 administrative domain).
    CommunityId,
    "community"
);
define_id!(
    /// Identifies one broker node in the NaradaBrokering-style network.
    BrokerId,
    "broker"
);
define_id!(
    /// Identifies a client connection attached to a broker.
    ClientId,
    "client"
);
define_id!(
    /// Identifies a host (machine) in the simulated network.
    HostId,
    "host"
);
define_id!(
    /// Identifies a collaboration server registered through WSDL-CI
    /// (an MCU, an Admire server, a Helix server, …).
    ServerId,
    "server"
);
define_id!(
    /// Identifies a media stream within a session (one RTP source).
    StreamId,
    "stream"
);
define_id!(
    /// Identifies a scheduled reservation in the meeting calendar.
    ReservationId,
    "reservation"
);

/// Monotonic allocator for one id type.
///
/// Each directory owns its own allocator; ids are unique within that
/// directory, not globally.
///
/// # Examples
///
/// ```
/// use mmcs_util::id::{IdAllocator, SessionId};
///
/// let mut alloc: IdAllocator<SessionId> = IdAllocator::new();
/// assert_eq!(alloc.next().value(), 1);
/// assert_eq!(alloc.next().value(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct IdAllocator<T> {
    next: u64,
    _marker: PhantomData<fn() -> T>,
}

impl<T: From<u64>> IdAllocator<T> {
    /// Creates an allocator whose first id has value 1.
    ///
    /// Value 0 is reserved so that `Default`-constructed ids are
    /// recognizably "unset".
    pub fn new() -> Self {
        Self {
            next: 1,
            _marker: PhantomData,
        }
    }

    /// Returns the next id, advancing the counter.
    // Not an Iterator: allocation never ends and needs &mut discipline.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> T {
        let id = T::from(self.next);
        self.next += 1;
        id
    }

    /// Returns how many ids have been handed out so far.
    pub fn allocated(&self) -> u64 {
        self.next - 1
    }
}

impl<T: From<u64>> Default for IdAllocator<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// A `HashMap` keyed by ids, hashed with [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// Hashes ids with one multiply by 2^64/φ (Fibonacci hashing), for maps
/// looked up once per packet: the ids are not chosen by an adversary,
/// so SipHash buys nothing there.
///
/// The product's high bits depend on every bit of the id, its low bits
/// only on the id's low bits, and `HashMap` picks a bucket from the low
/// bits of the hash. `finish` therefore folds the high bits into the
/// low ones by reversing the word, so the bucket is read from the top
/// of the product whatever the table size: ids strided by 2^k spread
/// like sequential ones instead of sharing one bucket group.
///
/// # Examples
///
/// ```
/// use mmcs_util::id::{ClientId, IdMap};
///
/// let mut homed: IdMap<ClientId, &str> = IdMap::default();
/// homed.insert(ClientId::from_raw(1 << 20), "strided");
/// assert_eq!(homed.get(&ClientId::from_raw(1 << 20)), Some(&"strided"));
/// ```
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0.reverse_bits()
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_display_with_prefix() {
        assert_eq!(UserId::from_raw(7).to_string(), "user-7");
        assert_eq!(SessionId::from_raw(3).to_string(), "session-3");
        assert_eq!(BrokerId::from_raw(0).to_string(), "broker-0");
    }

    #[test]
    fn ids_round_trip_through_u64() {
        let id = TerminalId::from_raw(42);
        let raw: u64 = id.into();
        assert_eq!(TerminalId::from(raw), id);
    }

    #[test]
    fn allocator_is_monotonic_and_starts_at_one() {
        let mut alloc: IdAllocator<HostId> = IdAllocator::new();
        let first = alloc.next();
        assert_eq!(first.value(), 1);
        let mut prev = first;
        for _ in 0..100 {
            let next = alloc.next();
            assert!(next > prev);
            prev = next;
        }
        assert_eq!(alloc.allocated(), 101);
    }

    #[test]
    fn default_id_is_zero_and_distinct_from_allocated() {
        let mut alloc: IdAllocator<ClientId> = IdAllocator::new();
        assert_ne!(ClientId::default(), alloc.next());
    }

    #[test]
    fn ids_are_ordered_by_value() {
        assert!(StreamId::from_raw(1) < StreamId::from_raw(2));
    }
}
