//! The id hasher spreads ids over buckets whatever their spacing.
//!
//! `IdHasher` keys the per-delivery maps (the shard workers' egress
//! slots, the simulated broker's client table). `HashMap` picks a bucket
//! from the low bits of the hash, and a bare multiply leaves ids strided
//! by 2^k with k zero low bits — all in one bucket group. `finish` folds
//! the product's high bits down; these tests pin the spread it buys for
//! the two id shapes the runtime sees: sequential ids (`attach`) and
//! caller-chosen ids with a large stride (`attach_as`).

use std::collections::HashSet;
use std::hash::{BuildHasher, BuildHasherDefault};

use mmcs_util::id::{ClientId, IdHasher};

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// How many of the 1,024 buckets a table of that size would use.
fn buckets_used(ids: impl Iterator<Item = u64>) -> usize {
    let hasher = BuildHasherDefault::<IdHasher>::default();
    ids.map(|id| hasher.hash_one(ClientId::from_raw(id)) & 1023)
        .collect::<HashSet<_>>()
        .len()
}

/// Reads a bucket from the bottom of the product, the way a table would
/// without the fold.
fn buckets_used_unfolded(ids: impl Iterator<Item = u64>) -> usize {
    ids.map(|id| id.wrapping_mul(GOLDEN) & 1023)
        .collect::<HashSet<_>>()
        .len()
}

// A random hash would use about 1 − 1/e of the buckets (≈ 647);
// Fibonacci hashing of 1,024 consecutive keys uses 898.
const AT_LEAST: usize = 896;

#[test]
fn sequential_ids_fill_the_buckets() {
    let used = buckets_used(1..=1024);
    assert!(
        used >= AT_LEAST,
        "1,024 sequential ids took {used} of 1,024 buckets"
    );
}

#[test]
fn ids_strided_by_a_power_of_two_fill_the_buckets() {
    let strided = || (1..=1024u64).map(|k| k << 20);
    let used = buckets_used(strided());
    assert!(
        used >= AT_LEAST,
        "1,024 ids strided by 2^20 took {used} of 1,024 buckets"
    );
    // Without the fold they would all share one bucket.
    assert_eq!(buckets_used_unfolded(strided()), 1);
}
