//! Hand-off blocking fixture, linted as `handoff.rs` beside
//! `blocking_worker.rs`: both waits in `Handoff::take_all` — until woken,
//! and until a deadline — are the sanctioned park point.

use std::time::Duration;

struct Handoff {
    work: Condvar,
}

impl Handoff {
    fn take_all(&self, taken: &mut u32, deadline: Option<Duration>) {
        match deadline {
            None => self.work.wait(taken),
            Some(left) => self.work.wait_for(taken, left),
        }
    }

    fn recv_timeout(&self, _wait: Duration) -> Result<u32, ()> {
        Err(())
    }
}
