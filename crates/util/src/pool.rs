//! Thread-local size-classed buffer pools for the hot wire path.
//!
//! Encoding an event or RTP packet needs a scratch buffer for a few
//! microseconds; allocating one per packet puts the allocator on the
//! per-packet cost path the paper's capacity claims depend on. This
//! module keeps small free lists of fixed-capacity `Vec<u8>` buffers in
//! thread-local storage, checked out as [`PooledBuf`] and returned
//! automatically on drop — including after the bytes have escaped as a
//! shared [`Bytes`] via [`PooledBuf::freeze`], in which case the last
//! surviving clone performs the return.
//!
//! A buffer always returns to the free list of the thread that drops it,
//! which need not be the thread that acquired it. Reuse therefore only
//! happens where one thread both acquires and drops. When buffers
//! cross threads, the acquiring thread's list never refills, so every
//! acquisition there misses and allocates. Meanwhile, the dropping
//! thread's list fills to [`PER_CLASS_CAP`] and frees the rest.
//!
//! The live runtime acquires nothing. The sharded broker's cross-shard
//! ring hands `Arc<Event>`s between shard threads, and the federation —
//! the cross-thread case above, where a pool never hits — encodes each
//! frame into an exact-size buffer or straight into a link's socket
//! buffer; a traced `federation_tcp` run of the wall-clock benchmark
//! reports 0 `pool.acquisitions`. The users are `ReliableFrame::encode`,
//! `RtpPacket::encode`, the streaming producer and `wire::encode`.
//!
//! Four size classes cover the workspace's traffic shapes: control
//! events and audio RTP (≤ 256 B), video RTP and typical events (≤ 2 KiB),
//! jumbo events (≤ 16 KiB) and streaming chunks (≤ 128 KiB). Requests
//! larger than the top class fall back to plain heap allocation and are
//! counted, not pooled.
//!
//! # Examples
//!
//! ```
//! use bytes::BufMut;
//! use mmcs_util::pool;
//!
//! let mut buf = pool::acquire(64);
//! buf.put_slice(b"frame");
//! assert_eq!(buf.as_slice(), b"frame");
//! drop(buf); // returned to this thread's free list
//! let again = pool::acquire(64);
//! assert!(again.capacity() >= 64);
//! ```

use std::cell::RefCell;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};

use bytes::Bytes;

/// Buffer capacities of the four pool classes, ascending.
pub const SIZE_CLASSES: [usize; 4] = [256, 2_048, 16_384, 131_072];

/// Free-list depth cap per class per thread; buffers returned beyond the
/// cap are simply freed so an idle thread cannot hoard memory.
pub const PER_CLASS_CAP: usize = 64;

thread_local! {
    static FREE: [RefCell<Vec<Vec<u8>>>; 4] = const {
        [
            RefCell::new(Vec::new()),
            RefCell::new(Vec::new()),
            RefCell::new(Vec::new()),
            RefCell::new(Vec::new()),
        ]
    };
}

// Process-wide telemetry. The pool lives below the telemetry crate in the
// dependency graph, so it carries its own relaxed atomics; the telemetry
// registry snapshots them via [`stats`].
// `outstanding` is derived in [`stats`] as acquisitions minus returns
// rather than maintained as a fifth counter: every acquire and every
// release already bump exactly one counter below, and adding a second
// RMW to each would put a measurable cost on the per-frame hot path.
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static OVERSIZE: AtomicU64 = AtomicU64::new(0);
static RETURNS: AtomicU64 = AtomicU64::new(0);

/// A snapshot of the pool counters (process-wide, cumulative).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Acquisitions served from a free list.
    pub hits: u64,
    /// Acquisitions that had to allocate a fresh class-sized buffer.
    pub misses: u64,
    /// Acquisitions larger than the top class (unpooled fallback).
    pub oversize: u64,
    /// Buffers handed back (by `PooledBuf` drop or frozen-`Bytes` drop).
    pub returns: u64,
    /// Buffers currently checked out (acquired minus returned).
    pub outstanding: i64,
}

/// Snapshots the process-wide pool counters.
pub fn stats() -> PoolStats {
    let hits = HITS.load(Ordering::Relaxed);
    let misses = MISSES.load(Ordering::Relaxed);
    let oversize = OVERSIZE.load(Ordering::Relaxed);
    let returns = RETURNS.load(Ordering::Relaxed);
    PoolStats {
        hits,
        misses,
        oversize,
        returns,
        outstanding: (hits + misses + oversize) as i64 - returns as i64,
    }
}

#[inline]
fn class_for(min_capacity: usize) -> Option<usize> {
    SIZE_CLASSES.iter().position(|&c| c >= min_capacity)
}

/// Checks out an empty buffer with at least `min_capacity` bytes of
/// capacity. Warm requests within the size classes touch no allocator;
/// oversize requests fall back to a plain heap allocation.
#[inline]
pub fn acquire(min_capacity: usize) -> PooledBuf {
    let Some(idx) = class_for(min_capacity) else {
        OVERSIZE.fetch_add(1, Ordering::Relaxed);
        return PooledBuf {
            buf: Vec::with_capacity(min_capacity),
            class: None,
            armed: true,
        };
    };
    // `class_for` returned `position`, so `idx < SIZE_CLASSES.len()`; the
    // `get` forms keep acquire panic-free on the hot path.
    let reused = FREE.with(|lists| lists.get(idx).and_then(|list| list.borrow_mut().pop()));
    let buf = match reused {
        Some(mut buf) => {
            HITS.fetch_add(1, Ordering::Relaxed);
            buf.clear();
            buf
        }
        None => {
            MISSES.fetch_add(1, Ordering::Relaxed);
            let cap = SIZE_CLASSES.get(idx).copied().unwrap_or(min_capacity);
            Vec::with_capacity(cap)
        }
    };
    PooledBuf {
        buf,
        class: Some(idx),
        armed: true,
    }
}

#[inline]
fn release(buf: Vec<u8>, class: Option<usize>) {
    RETURNS.fetch_add(1, Ordering::Relaxed);
    if let Some(idx) = class {
        // `try_with` so returns during TLS teardown degrade to a free.
        let _ = FREE.try_with(|lists| {
            let Some(slot) = lists.get(idx) else {
                return;
            };
            let mut list = slot.borrow_mut();
            if list.len() < PER_CLASS_CAP {
                list.push(buf);
            }
        });
    }
}

/// A checked-out pool buffer. Write through [`bytes::BufMut`]; read via
/// [`Deref`]/[`PooledBuf::as_slice`]. Dropping it returns the backing
/// storage to the dropping thread's free list.
#[derive(Debug)]
pub struct PooledBuf {
    buf: Vec<u8>,
    /// Pool class index, or `None` for an oversize (unpooled) buffer.
    class: Option<usize>,
    /// Cleared by `freeze`, which transfers the return duty to the
    /// `Bytes` owner.
    armed: bool,
}

impl PooledBuf {
    /// The bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Number of bytes written.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Usable capacity without reallocating.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Discards the written bytes, keeping the capacity.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Converts the written bytes into a shared [`Bytes`] without
    /// copying. The pool buffer rides along as the owner: when the last
    /// clone of the returned `Bytes` drops, the storage goes back to a
    /// free list. (The `Bytes` handle itself costs one small `Arc`
    /// allocation — use plain drop, not freeze, where the proof of zero
    /// allocations matters.)
    pub fn freeze(mut self) -> Bytes {
        let buf = std::mem::take(&mut self.buf);
        let class = self.class;
        self.armed = false;
        Bytes::from_owner(Reclaim { buf, class })
    }
}

impl Deref for PooledBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl AsRef<[u8]> for PooledBuf {
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

impl bytes::BufMut for PooledBuf {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.buf.extend_from_slice(src);
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        if self.armed {
            release(std::mem::take(&mut self.buf), self.class);
        }
    }
}

/// The owner installed behind a frozen pooled buffer: keeps the storage
/// alive for the `Bytes` views and returns it to the pool on final drop.
struct Reclaim {
    buf: Vec<u8>,
    class: Option<usize>,
}

impl AsRef<[u8]> for Reclaim {
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

impl Drop for Reclaim {
    fn drop(&mut self) {
        release(std::mem::take(&mut self.buf), self.class);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BufMut;

    #[test]
    fn class_selection_rounds_up() {
        assert_eq!(class_for(0), Some(0));
        assert_eq!(class_for(256), Some(0));
        assert_eq!(class_for(257), Some(1));
        assert_eq!(class_for(131_072), Some(3));
        assert_eq!(class_for(131_073), None);
    }

    #[test]
    fn acquire_reuses_returned_buffer() {
        let mut first = acquire(1_000);
        first.put_slice(b"warm");
        let ptr = first.as_slice().as_ptr();
        assert!(first.capacity() >= 2_048, "rounded up to the class size");
        drop(first);
        let second = acquire(1_000);
        assert_eq!(second.as_slice().as_ptr(), ptr, "same storage came back");
        assert!(second.is_empty(), "reused buffer is cleared");
    }

    /// This thread's free-list depth for pool class `idx`. Test threads
    /// never share a list, so assertions on it cannot race with sibling
    /// tests the way the process-wide [`stats`] counters do (those are
    /// checked exactly in `tests/pool_counters.rs`, alone in a process).
    fn free_depth(idx: usize) -> usize {
        FREE.with(|lists| lists[idx].borrow().len())
    }

    #[test]
    fn freeze_returns_storage_when_last_view_drops() {
        let mut buf = acquire(100);
        buf.put_slice(b"0123456789");
        let ptr = buf.as_slice().as_ptr();
        let checked_out = free_depth(0);
        let frozen = buf.freeze();
        let view = frozen.slice(2..6);
        drop(frozen);
        assert_eq!(&view[..], b"2345", "view outlives the original handle");
        assert_eq!(free_depth(0), checked_out, "a live view keeps the storage out");
        drop(view);
        assert_eq!(free_depth(0), checked_out + 1, "exactly one return");
        // The storage is back on this thread's free list.
        let again = acquire(100);
        assert_eq!(again.as_slice().as_ptr(), ptr);
    }

    #[test]
    fn oversize_requests_fall_back_to_heap() {
        let depths = || [free_depth(0), free_depth(1), free_depth(2), free_depth(3)];
        let before = depths();
        let huge = acquire(200_000);
        assert!(huge.capacity() >= 200_000);
        assert_eq!(huge.class, None, "above the top class: unpooled");
        drop(huge);
        assert_eq!(depths(), before, "an oversize buffer is freed, never pooled");
    }

    #[test]
    fn free_list_depth_is_capped() {
        // Fill the smallest class past the cap; the extras must be freed,
        // not hoarded.
        let held: Vec<PooledBuf> = (0..PER_CLASS_CAP + 8).map(|_| acquire(1)).collect();
        drop(held);
        let depth = FREE.with(|lists| lists[0].borrow().len());
        assert!(depth <= PER_CLASS_CAP);
    }
}
