//! End-to-end tests for the instrumented `parking_lot` shim's lock-order
//! deadlock detector and hold-time watchdog.
//!
//! Everything lives in one `#[test]` because the detector's order graph
//! is process-global: sequencing the scenarios in a single function
//! keeps `edge_count`/`reset` assertions deterministic no matter how the
//! harness schedules tests. The whole file is compiled out in release
//! mode (the detector only exists under `cfg(debug_assertions)`).
#![cfg(debug_assertions)]

use std::sync::Arc;
use std::time::Duration;

use parking_lot::deadlock::{self, LongHold};
use parking_lot::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

#[test]
fn detector_end_to_end() {
    assert!(deadlock::is_active(), "debug builds must have the detector");
    deadlock::reset();

    consistent_order_is_silent();
    seeded_mutex_inversion_panics();
    seeded_rwlock_inversion_panics();
    try_lock_records_no_order_edge();
    watchdog_flags_long_holds();
    runtime_edges_are_subset_of_static_graph();

    deadlock::reset();
    assert_eq!(deadlock::edge_count(), 0, "reset clears the order graph");
}

/// Nesting the same pair of locks in one consistent order, repeatedly
/// and from several threads, records edges but never panics.
fn consistent_order_is_silent() {
    let outer = Arc::new(Mutex::new(0u32));
    let inner = Arc::new(RwLock::new(0u32));
    let before = deadlock::edge_count();
    let mut handles = Vec::new();
    for _ in 0..4 {
        let outer = Arc::clone(&outer);
        let inner = Arc::clone(&inner);
        handles.push(std::thread::spawn(move || {
            for _ in 0..10 {
                let guard: MutexGuard<'_, u32> = outer.lock();
                let read: RwLockReadGuard<'_, u32> = inner.read();
                assert_eq!(*guard, *read);
            }
        }));
    }
    for handle in handles {
        handle.join().expect("consistent order must not panic");
    }
    assert!(
        deadlock::edge_count() > before,
        "nested acquisitions must be observed by the detector"
    );
}

/// The seeded inversion from the issue: two mutexes acquired A→B on one
/// thread and B→A on another. The second thread must panic (potential
/// deadlock) even though the threads never actually contend — the
/// detector works off acquisition *order*, not luck.
fn seeded_mutex_inversion_panics() {
    let a = Arc::new(Mutex::new("a"));
    let b = Arc::new(Mutex::new("b"));

    let (a1, b1) = (Arc::clone(&a), Arc::clone(&b));
    std::thread::Builder::new()
        .name("order-ab".into())
        .spawn(move || {
            let _ga = a1.lock();
            let _gb = b1.lock();
        })
        .expect("spawn")
        .join()
        .expect("A then B is the first order seen; it must pass");

    let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
    let inverted = std::thread::Builder::new()
        .name("order-ba".into())
        .spawn(move || {
            let _gb = b2.lock();
            let _ga = a2.lock(); // closes the cycle: must panic here
        })
        .expect("spawn")
        .join();
    assert!(
        inverted.is_err(),
        "B then A contradicts the recorded order and must panic"
    );
}

/// The same inversion through RwLock read/write acquisitions.
fn seeded_rwlock_inversion_panics() {
    let a = Arc::new(RwLock::new(0u32));
    let b = Arc::new(RwLock::new(0u32));

    let (a1, b1) = (Arc::clone(&a), Arc::clone(&b));
    std::thread::spawn(move || {
        let _ga: RwLockWriteGuard<'_, u32> = a1.write();
        let _gb = b1.read();
    })
    .join()
    .expect("first order must pass");

    let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
    let inverted = std::thread::spawn(move || {
        let _gb = b2.write();
        let _ga = a2.read();
    })
    .join();
    assert!(inverted.is_err(), "reader/writer inversion must panic too");
}

/// `try_lock` cannot block, so it must not contribute order edges: an
/// opposite blocking order established afterwards is legal.
fn try_lock_records_no_order_edge() {
    let a = Mutex::new(());
    let b = Mutex::new(());
    {
        let _gb = b.lock();
        let _ga = a.try_lock().expect("uncontended try_lock succeeds");
        // (b -> a, but via try_lock: no edge recorded)
    }
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ga = a.lock();
        let _gb = b.lock();
    }));
    assert!(
        result.is_ok(),
        "a -> b must be fine: the earlier try_lock order is not an edge"
    );
}

/// Every acquisition-order edge the runtime detector observed in this
/// process must also exist in the static lock-order graph that
/// `mmcs-analyze` builds from this very source file. The static pass is
/// an over-approximation (it simulates every path, the runtime only
/// sees executed interleavings), so runtime ⊆ static is the soundness
/// contract — a runtime edge missing statically would mean the lexer,
/// parser, or lock-class discovery lost an acquisition site.
fn runtime_edges_are_subset_of_static_graph() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/lock_order_inversion.rs");
    let content = std::fs::read_to_string(path).expect("read own source");
    let files = vec![mmcs_analyze::parse::parse_file("tests/lock_order_inversion.rs", &content)];
    let call_graph = mmcs_analyze::callgraph::CallGraph::build(&files, |_, _| true);
    let lock_graph = mmcs_analyze::passes::lock_order::build(&files, &call_graph);

    // Compare by construction-site line number: the runtime renders
    // `Location::file()` exactly as rustc was invoked, the static side
    // renders the path the file was parsed under; lines are the stable
    // common coordinate.
    fn site_line(site: &str) -> Option<u32> {
        let (file, line) = site.rsplit_once(':')?;
        if !file.ends_with("lock_order_inversion.rs") {
            return None;
        }
        line.parse().ok()
    }
    let static_lines: std::collections::BTreeSet<(u32, u32)> = lock_graph
        .site_edges(&files)
        .iter()
        .filter_map(|(from, to)| Some((site_line(from)?, site_line(to)?)))
        .collect();
    assert!(!static_lines.is_empty(), "static graph must see this file's locks");

    let runtime = deadlock::edges();
    assert!(
        !runtime.is_empty(),
        "the scenarios above must have recorded runtime edges"
    );
    let mut checked = 0usize;
    for (from, to) in runtime {
        let (Some(from_line), Some(to_line)) = (site_line(&from), site_line(&to)) else {
            continue; // a lock constructed outside this file: out of scope
        };
        assert!(
            static_lines.contains(&(from_line, to_line)),
            "runtime edge {from} -> {to} is missing from the static \
             lock-order graph {static_lines:?}"
        );
        checked += 1;
    }
    assert!(checked > 0, "subset check must cover at least one edge");
}

/// Holding a lock past the watchdog threshold is recorded (and the
/// record names this file as the lock's site).
fn watchdog_flags_long_holds() {
    deadlock::set_hold_threshold(Duration::from_millis(5));
    let slow = Mutex::new(());
    {
        let _guard = slow.lock();
        std::thread::sleep(Duration::from_millis(30));
    }
    deadlock::set_hold_threshold(Duration::from_millis(200));
    let holds: Vec<LongHold> = deadlock::long_holds();
    let hit = holds
        .iter()
        .find(|h| h.site.contains("lock_order_inversion.rs"))
        .expect("the slow hold must be recorded");
    assert!(hit.held >= Duration::from_millis(5));
    assert!(!hit.thread.is_empty());
    // The sub-threshold locks taken by the other scenarios must not
    // appear: a watchdog that cries on every acquisition is useless.
    assert_eq!(
        holds
            .iter()
            .filter(|h| h.site.contains("lock_order_inversion.rs"))
            .count(),
        1
    );
    assert_eq!(Mutex::new(7u32).into_inner(), 7);
}
