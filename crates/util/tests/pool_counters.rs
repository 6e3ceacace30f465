//! Exact deltas of the process-wide [`pool::stats`] counters.
//!
//! The counters are global atomics, so an exact delta is only
//! meaningful while nothing else in the process touches the pool. Unit
//! tests share their process with every sibling test thread, which is
//! why `pool::tests` asserts on the thread-local free list instead;
//! this file holds ONE test so that its process has one thread using
//! the pool. Keep it that way: add steps to the function below, not a
//! second `#[test]`.

use bytes::BufMut;
use mmcs_util::pool::{self, acquire};

#[test]
fn counters_move_by_exactly_what_this_thread_did() {
    // Two checkouts raise `outstanding` by two; returning them undoes it.
    let before = pool::stats();
    let a = acquire(10);
    let b = acquire(10);
    assert_eq!(pool::stats().outstanding - before.outstanding, 2);
    drop(a);
    drop(b);
    let after = pool::stats();
    assert_eq!(after.outstanding, before.outstanding);
    assert_eq!(after.returns - before.returns, 2);
    assert_eq!(
        (after.hits + after.misses) - (before.hits + before.misses),
        2,
        "in-class requests are hits or misses, never oversize"
    );
    assert_eq!(after.oversize, before.oversize);

    // A frozen buffer is returned once, by the last view to drop.
    let before = pool::stats();
    let mut buf = acquire(100);
    buf.put_slice(b"0123456789");
    let frozen = buf.freeze();
    let view = frozen.slice(2..6);
    drop(frozen);
    assert_eq!(pool::stats().returns, before.returns, "a live view holds it");
    drop(view);
    assert_eq!(pool::stats().returns - before.returns, 1, "exactly one return");

    // An oversize request is counted as such, and its drop as a return.
    let before = pool::stats();
    drop(acquire(200_000));
    let after = pool::stats();
    assert_eq!(after.oversize - before.oversize, 1);
    assert_eq!(after.returns - before.returns, 1);
    assert_eq!(after.outstanding, before.outstanding);
}
