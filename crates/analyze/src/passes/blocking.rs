//! `blocking-in-shard-worker`: blocking operations reachable from a
//! shard-worker loop.
//!
//! A shard worker owns a slice of the topic space; anything that parks
//! its thread — a blocking channel receive, `thread::sleep`, a join, a
//! condvar wait, file IO — stalls every topic on the shard and shows up
//! as tail latency in the Figure-3 curves. The only sanctioned blocking
//! points are the ingress queues' own ([`PARK_POINTS`], named by
//! `(self type, fn)` like the roots): where a worker sleeps on its
//! empty queue, and where a producer is held at a full one. Everything
//! else reachable from a loop body is a finding.

use crate::lexer::TokKind;
use crate::lints::Violation;

use super::Workspace;

/// The lint name this pass reports under.
pub const LINT: &str = "blocking-in-shard-worker";

/// The worker-loop roots: `(path suffix, self type, fn name)`.
pub const ROOTS: &[(&str, &str, &str)] = &[
    ("crates/broker/src/sharded.rs", "ShardWorker", "run"),
];

/// The sanctioned park points, `(path suffix, self type, fn name)`: a
/// condvar `.wait(..)` inside one of these is the design, not a stall.
pub const PARK_POINTS: &[(&str, &str, &str)] = &[
    // The shard worker asleep on its empty ingress queue.
    ("crates/broker/src/sharded.rs", "Ingress", "take_all"),
    // A producer held at the ingress bound: a client publish, or a
    // federation data plane's `inject` on a socket reader or publishing
    // thread. Backpressure from a full shard is what the bound is for,
    // and `shutdown` releases it.
    ("crates/broker/src/sharded.rs", "Ingress", "push_bounded"),
];

/// The check pass: BFS from the worker loop, scan every reachable body
/// for blocking constructs, and skip the sanctioned park points.
pub fn check(ws: &Workspace, out: &mut Vec<Violation>) {
    let named_in = |id: usize, table: &[(&str, &str, &str)]| {
        let n = &ws.graph.nodes[id];
        let f = &ws.files[n.file];
        let d = &f.fns[n.def];
        table.iter().any(|&(path, ty, name)| {
            f.src.path.ends_with(path) && d.name == name && d.self_type.as_deref() == Some(ty)
        })
    };
    let roots: Vec<usize> = (0..ws.graph.nodes.len())
        .filter(|&id| named_in(id, ROOTS))
        .collect();
    let parent = ws.graph.reach(&roots);
    let mut ids: Vec<_> = parent.keys().copied().collect();
    ids.sort_unstable();
    for id in ids {
        let node = &ws.graph.nodes[id];
        let file = &ws.files[node.file];
        let def = &file.fns[node.def];
        let is_park_point = named_in(id, PARK_POINTS);
        let toks = &file.toks;
        for i in def.body.clone() {
            let t = &toks[i];
            if t.kind != TokKind::Ident {
                continue;
            }
            let prev_dot = i >= 1 && toks[i - 1].is_punct(".");
            let prev_path = i >= 1 && toks[i - 1].is_punct("::");
            let next_open = toks.get(i + 1).is_some_and(|n| n.is_punct("("));
            let empty_args = next_open && toks.get(i + 2).is_some_and(|n| n.is_punct(")"));
            let what: Option<&str> = match t.text.as_str() {
                "recv" if prev_dot && empty_args => Some("a blocking channel `.recv()`"),
                "recv_timeout" if prev_dot && next_open => {
                    Some("a blocking `.recv_timeout(..)`")
                }
                "sleep"
                    if prev_path && i >= 2 && toks[i - 2].is_ident("thread") =>
                {
                    Some("`thread::sleep`")
                }
                "join" if prev_dot && empty_args => Some("a thread `.join()`"),
                "wait" if prev_dot && next_open => {
                    if is_park_point {
                        None
                    } else {
                        Some("a condvar `.wait(..)`")
                    }
                }
                "wait_for" if prev_dot && next_open => Some("a condvar `.wait_for(..)`"),
                "fs" if toks.get(i + 1).is_some_and(|n| n.is_punct("::")) => {
                    Some("file IO (`fs::..`)")
                }
                _ => None,
            };
            if let Some(what) = what {
                out.push(Violation::new(
                    LINT,
                    &file.src,
                    t.line as usize - 1,
                    format!(
                        "{} reachable from the shard-worker loop: {} — a stalled \
                         worker stalls every topic on its shard",
                        what,
                        ws.graph.chain(&ws.files, &parent, id)
                    ),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::SourceFile;

    fn run(srcs: &[(&str, &str)]) -> Vec<usize> {
        let files: Vec<SourceFile> = srcs.iter().map(|(p, s)| SourceFile::parse(p, s)).collect();
        let ws = Workspace::build(&files);
        let mut out = Vec::new();
        check(&ws, &mut out);
        out.into_iter().map(|v| v.line).collect()
    }

    #[test]
    fn the_ingress_park_is_sanctioned_by_type_and_fn_not_by_token() {
        // `Ingress::take_all` may wait; the same `.wait(..)` in a
        // method of another type, or of another name, may not.
        let hits = run(&[(
            "crates/broker/src/sharded.rs",
            "struct ShardWorker;\nimpl ShardWorker {\n    fn run(&self) {\n        self.ingress.take_all();\n        self.egress.flush();\n    }\n}\nstruct Ingress;\nimpl Ingress {\n    fn take_all(&self) {\n        self.work.wait(&mut queue);\n    }\n}\nstruct Egress;\nimpl Egress {\n    fn flush(&self) {\n        self.ready.wait(&mut inbox);\n        self.ready.wait_for(&mut inbox, left);\n    }\n}\n",
        )]);
        assert_eq!(hits, vec![17, 18]);
    }

    #[test]
    fn sleep_reachable_from_the_loop_is_flagged() {
        let hits = run(&[(
            "crates/broker/src/sharded.rs",
            "struct ShardWorker;\nimpl ShardWorker {\n    fn run(&self) {\n        self.step();\n    }\n    fn step(&self) {\n        std::thread::sleep(std::time::Duration::from_millis(1));\n    }\n}\n",
        )]);
        assert_eq!(hits, vec![7]);
    }

    #[test]
    fn recv_outside_the_root_is_flagged() {
        let hits = run(&[(
            "crates/broker/src/sharded.rs",
            "struct ShardWorker;\nimpl ShardWorker {\n    fn run(&self) {\n        self.drain();\n    }\n    fn drain(&self) {\n        self.ingress.recv();\n    }\n}\n",
        )]);
        assert_eq!(hits, vec![7]);
    }

    #[test]
    fn unreachable_blocking_code_is_silent() {
        let hits = run(&[(
            "crates/broker/src/sharded.rs",
            "struct ShardWorker;\nimpl ShardWorker {\n    fn run(&self) {}\n}\nfn shutdown(h: std::thread::JoinHandle<()>) {\n    h.join();\n}\n",
        )]);
        assert!(hits.is_empty(), "{hits:?}");
    }
}
