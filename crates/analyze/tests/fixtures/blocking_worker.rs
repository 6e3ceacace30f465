//! Shard-worker blocking fixture: the condvar wait in
//! `Ingress::take_all` is the sanctioned park point; every other
//! blocking construct reachable from the loop — a second wait inside
//! the mailbox append included — is a finding, and blocking code the
//! loop cannot reach stays silent.

use std::time::Duration;

struct Condvar;

impl Condvar {
    fn wait(&self, _guard: &mut u32) {}
}

struct Ingress {
    work: Condvar,
}

impl Ingress {
    fn take_all(&self, taken: &mut u32) {
        self.work.wait(taken);
    }
    fn recv_timeout(&self, _wait: Duration) -> Result<u32, ()> {
        Err(())
    }
}

struct Mailbox {
    ready: Condvar,
}

impl Mailbox {
    fn append(&self, staged: &mut u32) {
        self.ready.wait(staged);
    }
}

struct ShardWorker {
    ingress: Ingress,
    mailbox: Mailbox,
}

impl ShardWorker {
    fn run(&self) {
        let mut taken = 0;
        loop {
            self.ingress.take_all(&mut taken);
            self.step(taken);
        }
    }

    fn step(&self, mut cmd: u32) {
        if cmd == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        self.mailbox.append(&mut cmd);
        drain_side_channel(&self.ingress);
    }
}

fn drain_side_channel(rx: &Ingress) {
    while rx.recv_timeout(Duration::from_millis(0)).is_ok() {}
}

fn cold_join(handle: std::thread::JoinHandle<()>) {
    handle.join().ok();
}
