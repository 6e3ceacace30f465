//! Lock-order deadlock detection and hold-time watchdog.
//!
//! Active only under `cfg(debug_assertions)` (release builds compile the
//! same API down to no-ops). Every [`Mutex`](crate::Mutex) /
//! [`RwLock`](crate::RwLock) carries a **site id** — the `file:line` of
//! its `new()` call, captured via `#[track_caller]` — so every lock
//! created at one source location is one node in a global *acquisition
//! order graph*:
//!
//! * A thread-local stack records which sites the current thread holds.
//! * A blocking acquisition of site `B` while holding site `A` records
//!   the edge `A → B` (with the acquiring thread's name, held stack, and
//!   a captured backtrace, the first time the edge appears).
//! * Before the edge is inserted, the graph is searched for a path
//!   `B → … → A`. Finding one means two lock orders exist that can
//!   deadlock under the right interleaving — the detector **panics
//!   immediately**, before the program can actually wedge, printing both
//!   acquisition stacks.
//!
//! Non-blocking acquisitions (`try_lock`) register the held site (later
//! blocking acquisitions on top of it still form edges) but add no edge
//! themselves: a `try_lock` never blocks, so it cannot close a wait
//! cycle, and flagging it would punish legitimate try-and-fallback
//! patterns. Acquisitions of a site while the *same* site is already
//! held are also skipped — sibling locks created at one line (e.g. a pool
//! of per-client mutexes) are ordered by the caller, not by site.
//!
//! The watchdog side stamps every acquisition and records a
//! [`LongHold`] whenever a guard outlives the configured threshold
//! ([`set_hold_threshold`], default 200 ms) — the broker's hot loop
//! should hold its locks for microseconds, so a long hold is a stall in
//! disguise even when no inversion exists.

use std::time::Duration;

#[cfg(debug_assertions)]
use std::cell::RefCell;
#[cfg(debug_assertions)]
use std::collections::HashMap;
#[cfg(debug_assertions)]
use std::panic::Location;
#[cfg(debug_assertions)]
use std::sync::atomic::{AtomicU64, Ordering};
#[cfg(debug_assertions)]
use std::time::Instant;

/// A recorded over-threshold lock hold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LongHold {
    /// `file:line` of the lock's construction site.
    pub site: String,
    /// How long the guard lived.
    pub held: Duration,
    /// Name of the holding thread (`?` if unnamed).
    pub thread: String,
}

/// Whether the detector is compiled in (true in debug builds).
pub const fn is_active() -> bool {
    cfg!(debug_assertions)
}

// ---------------------------------------------------------------------
// Debug-build implementation.
// ---------------------------------------------------------------------

#[cfg(debug_assertions)]
mod imp {
    use super::*;
    use std::sync::{Mutex as StdMutex, OnceLock};

    /// Stable identity of a lock construction site.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub(crate) struct SiteKey {
        file: &'static str,
        line: u32,
        column: u32,
    }

    impl SiteKey {
        pub(crate) fn of(site: &'static Location<'static>) -> SiteKey {
            SiteKey {
                file: site.file(),
                line: site.line(),
                column: site.column(),
            }
        }

        fn render(&self) -> String {
            format!("{}:{}", self.file, self.line)
        }
    }

    /// Context captured the first time an acquisition edge is seen.
    struct EdgeInfo {
        thread: String,
        held: Vec<SiteKey>,
        backtrace: String,
    }

    #[derive(Default)]
    struct Graph {
        edges: HashMap<SiteKey, HashMap<SiteKey, EdgeInfo>>,
        edge_count: usize,
    }

    fn graph() -> &'static StdMutex<Graph> {
        static GRAPH: OnceLock<StdMutex<Graph>> = OnceLock::new();
        GRAPH.get_or_init(|| StdMutex::new(Graph::default()))
    }

    fn long_holds_store() -> &'static StdMutex<Vec<LongHold>> {
        static HOLDS: OnceLock<StdMutex<Vec<LongHold>>> = OnceLock::new();
        HOLDS.get_or_init(|| StdMutex::new(Vec::new()))
    }

    /// Nanoseconds; 0 means "use default".
    static HOLD_THRESHOLD_NS: AtomicU64 = AtomicU64::new(0);
    const DEFAULT_HOLD_THRESHOLD: Duration = Duration::from_millis(200);
    /// Cap so a pathological run cannot grow the record without bound.
    const MAX_LONG_HOLDS: usize = 1024;

    thread_local! {
        /// Sites currently held by this thread, in acquisition order.
        static HELD: RefCell<Vec<SiteKey>> = const { RefCell::new(Vec::new()) };
    }

    fn lock_ignore_poison<T>(m: &StdMutex<T>) -> std::sync::MutexGuard<'_, T> {
        m.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub(crate) fn threshold() -> Duration {
        let ns = HOLD_THRESHOLD_NS.load(Ordering::Relaxed);
        if ns == 0 {
            DEFAULT_HOLD_THRESHOLD
        } else {
            Duration::from_nanos(ns)
        }
    }

    pub(crate) fn set_threshold(d: Duration) {
        HOLD_THRESHOLD_NS.store(d.as_nanos().min(u64::MAX as u128) as u64, Ordering::Relaxed);
    }

    /// Registers a blocking acquisition: records order edges from every
    /// currently held site and panics if any edge closes a cycle.
    pub(crate) fn on_blocking_acquire(site: &'static Location<'static>) {
        let new = SiteKey::of(site);
        // Borrowed, not cloned: a nested acquisition on a warm path must
        // not allocate just because the detector looked at it.
        HELD.with(|h| {
            let held = h.borrow();
            if !held.is_empty() {
                let mut g = lock_ignore_poison(graph());
                for &from in held.iter() {
                    if from == new {
                        continue; // sibling locks from one construction site
                    }
                    record_edge(&mut g, from, new, &held);
                }
            }
        });
        HELD.with(|h| h.borrow_mut().push(new));
    }

    /// Registers a successful non-blocking acquisition (no order edges).
    pub(crate) fn on_try_acquire(site: &'static Location<'static>) {
        HELD.with(|h| h.borrow_mut().push(SiteKey::of(site)));
    }

    /// Registers a release and feeds the hold-time watchdog.
    pub(crate) fn on_release(site: &'static Location<'static>, acquired: Instant) {
        let key = SiteKey::of(site);
        HELD.with(|h| {
            let mut held = h.borrow_mut();
            if let Some(pos) = held.iter().rposition(|s| *s == key) {
                held.remove(pos);
            }
        });
        let elapsed = acquired.elapsed();
        if elapsed > threshold() {
            let mut holds = lock_ignore_poison(long_holds_store());
            if holds.len() < MAX_LONG_HOLDS {
                let record = LongHold {
                    site: key.render(),
                    held: elapsed,
                    thread: thread_name(),
                };
                eprintln!(
                    "parking_lot watchdog: lock {} held {:?} (> {:?}) on thread {}",
                    record.site,
                    record.held,
                    threshold(),
                    record.thread
                );
                holds.push(record);
            }
        }
    }

    fn record_edge(g: &mut Graph, from: SiteKey, to: SiteKey, held: &[SiteKey]) {
        if g.edges
            .get(&from)
            .is_some_and(|succ| succ.contains_key(&to))
        {
            return; // known-safe order, nothing to do
        }
        // Inserting from -> to creates a cycle iff `from` is already
        // reachable from `to`.
        if let Some(path) = path_between(g, to, from) {
            panic_with_cycle(g, from, to, held, &path);
        }
        g.edges.entry(from).or_default().insert(
            to,
            EdgeInfo {
                thread: thread_name(),
                held: held.to_vec(),
                backtrace: format!("{}", std::backtrace::Backtrace::force_capture()),
            },
        );
        g.edge_count += 1;
    }

    /// DFS from `start` to `goal`; returns the site path including both
    /// endpoints.
    fn path_between(g: &Graph, start: SiteKey, goal: SiteKey) -> Option<Vec<SiteKey>> {
        let mut stack = vec![vec![start]];
        let mut seen = vec![start];
        while let Some(path) = stack.pop() {
            let last = *path.last().expect("paths are never empty");
            if last == goal {
                return Some(path);
            }
            if let Some(succ) = g.edges.get(&last) {
                for &next in succ.keys() {
                    if !seen.contains(&next) {
                        seen.push(next);
                        let mut longer = path.clone();
                        longer.push(next);
                        stack.push(longer);
                    }
                }
            }
        }
        None
    }

    fn panic_with_cycle(
        g: &Graph,
        from: SiteKey,
        to: SiteKey,
        held: &[SiteKey],
        reverse_path: &[SiteKey],
    ) -> ! {
        let mut msg = String::new();
        msg.push_str("lock-order inversion detected (potential deadlock)\n");
        msg.push_str(&format!(
            "  this thread ({}) is acquiring {} while holding [{}]\n",
            thread_name(),
            to.render(),
            held.iter().map(SiteKey::render).collect::<Vec<_>>().join(", "),
        ));
        msg.push_str(&format!(
            "  but the opposite order {} -> {} was recorded earlier:\n",
            to.render(),
            from.render()
        ));
        for pair in reverse_path.windows(2) {
            if let Some(info) = g.edges.get(&pair[0]).and_then(|s| s.get(&pair[1])) {
                msg.push_str(&format!(
                    "    edge {} -> {} on thread {} (held [{}]) at:\n",
                    pair[0].render(),
                    pair[1].render(),
                    info.thread,
                    info.held
                        .iter()
                        .map(SiteKey::render)
                        .collect::<Vec<_>>()
                        .join(", "),
                ));
                for line in info.backtrace.lines().take(20) {
                    msg.push_str("      ");
                    msg.push_str(line.trim_end());
                    msg.push('\n');
                }
            }
        }
        msg.push_str("  current acquisition at:\n");
        for line in format!("{}", std::backtrace::Backtrace::force_capture())
            .lines()
            .take(20)
        {
            msg.push_str("      ");
            msg.push_str(line.trim_end());
            msg.push('\n');
        }
        panic!("{msg}");
    }

    fn thread_name() -> String {
        std::thread::current()
            .name()
            .unwrap_or("?")
            .to_owned()
    }

    pub(crate) fn edge_count() -> usize {
        lock_ignore_poison(graph()).edge_count
    }

    pub(crate) fn edges() -> Vec<(String, String)> {
        let g = lock_ignore_poison(graph());
        let mut out: Vec<(String, String)> = g
            .edges
            .iter()
            .flat_map(|(from, succ)| {
                succ.keys().map(|to| (from.render(), to.render()))
            })
            .collect();
        out.sort();
        out
    }

    pub(crate) fn long_holds() -> Vec<LongHold> {
        lock_ignore_poison(long_holds_store()).clone()
    }

    pub(crate) fn reset() {
        let mut g = lock_ignore_poison(graph());
        g.edges.clear();
        g.edge_count = 0;
        drop(g);
        lock_ignore_poison(long_holds_store()).clear();
    }
}

#[cfg(debug_assertions)]
pub(crate) use imp::{on_blocking_acquire, on_release, on_try_acquire};

// ---------------------------------------------------------------------
// Public API (no-ops in release builds).
// ---------------------------------------------------------------------

/// Number of distinct acquisition-order edges recorded so far. Zero in
/// release builds. A stress test asserting `edge_count() > 0` proves the
/// detector actually observed nested acquisitions.
pub fn edge_count() -> usize {
    #[cfg(debug_assertions)]
    {
        imp::edge_count()
    }
    #[cfg(not(debug_assertions))]
    {
        0
    }
}

/// The recorded acquisition-order edges as sorted `(from, to)` pairs of
/// `file:line` construction sites. Empty in release builds. The static
/// lock-order pass cross-checks this against its own graph: every edge
/// the runtime detector observes must also exist in the static
/// over-approximation.
pub fn edges() -> Vec<(String, String)> {
    #[cfg(debug_assertions)]
    {
        imp::edges()
    }
    #[cfg(not(debug_assertions))]
    {
        Vec::new()
    }
}

/// All over-threshold holds recorded so far (empty in release builds).
pub fn long_holds() -> Vec<LongHold> {
    #[cfg(debug_assertions)]
    {
        imp::long_holds()
    }
    #[cfg(not(debug_assertions))]
    {
        Vec::new()
    }
}

/// Sets the hold-time watchdog threshold (default 200 ms). No-op in
/// release builds.
pub fn set_hold_threshold(threshold: Duration) {
    #[cfg(debug_assertions)]
    imp::set_threshold(threshold);
    #[cfg(not(debug_assertions))]
    let _ = threshold;
}

/// Clears the order graph and the long-hold record. For tests that need
/// a pristine detector; production code never calls this.
pub fn reset() {
    #[cfg(debug_assertions)]
    imp::reset();
}

/// The guard-side bookkeeping token: stamps the acquisition and reports
/// the release. Zero-sized in release builds.
#[derive(Debug)]
pub(crate) struct Tracked {
    #[cfg(debug_assertions)]
    site: &'static Location<'static>,
    #[cfg(debug_assertions)]
    acquired: Instant,
}

impl Tracked {
    #[cfg(debug_assertions)]
    pub(crate) fn new(site: &'static Location<'static>) -> Tracked {
        Tracked {
            site,
            acquired: Instant::now(),
        }
    }

    #[cfg(not(debug_assertions))]
    pub(crate) fn new() -> Tracked {
        Tracked {}
    }

    /// The lock is given up for a condvar wait: report the release so
    /// the watchdog does not count the sleep as a hold.
    pub(crate) fn released(&mut self) {
        #[cfg(debug_assertions)]
        on_release(self.site, self.acquired);
    }

    /// The wait re-locked: a fresh blocking acquisition, ordered
    /// against everything the thread still holds.
    pub(crate) fn reacquired(&mut self) {
        #[cfg(debug_assertions)]
        {
            on_blocking_acquire(self.site);
            self.acquired = Instant::now();
        }
    }
}

#[cfg(debug_assertions)]
impl Drop for Tracked {
    fn drop(&mut self) {
        on_release(self.site, self.acquired);
    }
}
