//! The federation over real loopback TCP sockets.
//!
//! Three node data planes linked by `TcpLink` senders (length-prefixed
//! records, each frame encoded into the sender's socket buffer, capped
//! exponential backoff) and per-node listener/reader threads. Properties the simulator cannot prove:
//!
//! * **the barrier is a barrier** — `quiesce()` returns because every
//!   hop has carried and processed what was published before it, so one
//!   drain right after it finds everything, with no timeout to tune,
//!   though it stops at its first quiet round, even at the far end of a
//!   four-hop relay chain; a
//!   dropped listener makes it skip that node's links, not hang; stray
//!   or malformed flush records are counted and complete nothing;
//! * **mid-stream kill** — dropping a node's listener (and shutting
//!   every accepted connection) while events stream must not lose or
//!   duplicate anything: publishes issued during the outage stay in
//!   flight in the link's `ReliableSender`, the RTO re-offers them, the
//!   sender reconnects with backoff once the listener is rebound, and
//!   the receiver's per-peer `ReliableReceiver` keeps delivery
//!   exactly-once and in order;
//! * **garbage at the socket edge** — a malformed `ClusterFrame` body
//!   on an otherwise intact framing layer is rejected with a typed
//!   decode error, counted in telemetry, and the connection keeps
//!   working; so is a valid event frame sent unsequenced, which would
//!   skip the dedup; an unframeable length prefix is counted and ends
//!   only that connection, never the node;
//! * **an idle link wakes** — a link that has parked with nothing
//!   unacked sends the next frame as soon as it is handed one;
//! * **prompt shutdown** — dropping a cluster joins every thread it
//!   spawned within a bound that does not depend on how much traffic
//!   is still queued toward peers that are already gone.

use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use bytes::Bytes;

use mmcs::broker::cluster::{
    encode_event_frame, encode_frame, Cluster, ClusterClient, FrameKind, LatencyMap,
    CLUSTER_HEADER_LEN,
};
use mmcs::broker::event::{Event, EventClass};
use mmcs::broker::topic::{Topic, TopicFilter};
use mmcs_util::id::ClientId;

/// Drains until `want` events arrived or `deadline` passed.
fn collect(client: &ClusterClient, want: usize, deadline: Duration) -> Vec<std::sync::Arc<Event>> {
    let start = Instant::now();
    let mut got = Vec::new();
    while got.len() < want && start.elapsed() < deadline {
        if let Some(event) = client.recv_timeout(Duration::from_millis(100)) {
            got.push(event);
        }
    }
    got
}

/// Kill a gateway's listener mid-stream: everything published during
/// the outage arrives after the rebind, exactly once and in order.
#[test]
fn listener_kill_mid_stream_reconnects_without_loss_or_duplication() {
    let mut cluster = Cluster::builder(LatencyMap::full_mesh(3, 2)).tcp().spawn();
    let publisher = cluster.attach(0);
    let subscriber = cluster.attach(2);
    subscriber.subscribe(TopicFilter::parse("s/#").expect("filter"));
    assert!(cluster.converge(8), "interest gossip converged");
    assert_ne!(
        publisher.node(),
        subscriber.node(),
        "publisher and subscriber must sit on different gateways"
    );

    let topic = Topic::parse("s/tcp").expect("topic");
    for _ in 0..10 {
        publisher.publish(topic.clone(), Bytes::new());
    }
    let before = collect(&subscriber, 10, Duration::from_secs(15));
    assert_eq!(before.len(), 10, "clean-link stream fully delivered");
    assert_eq!(
        cluster.metrics().total(|m| m.duplicate_frames.get()),
        0,
        "a healthy link writes every frame exactly once"
    );

    // Mid-stream kill: listener gone, accepted connections shut. The
    // next ten publishes hit a dead or refusing socket and stay in
    // flight, unacked.
    cluster.drop_listener(subscriber.node() as usize);
    for _ in 0..10 {
        publisher.publish(topic.clone(), Bytes::new());
        std::thread::sleep(Duration::from_millis(5));
    }
    // Let the sender discover the dead socket and start its capped
    // backoff loop against the closed port.
    std::thread::sleep(Duration::from_millis(100));
    cluster.restore_listener(subscriber.node() as usize);

    let after = collect(&subscriber, 10, Duration::from_secs(30));
    assert_eq!(after.len(), 10, "outage-window events retransmitted");
    let mut seqs: Vec<u64> = before.iter().chain(after.iter()).map(|e| e.seq).collect();
    let sorted = {
        let mut s = seqs.clone();
        s.sort_unstable();
        s
    };
    assert_eq!(seqs, sorted, "per-source order survived the reconnect");
    seqs.dedup();
    assert_eq!(seqs.len(), 20, "exactly-once across the kill: no duplicates");
    assert_eq!(seqs, (0..20).collect::<Vec<u64>>(), "nothing lost");

    let reconnects = cluster.metrics().total(|m| m.reconnects.get());
    assert!(reconnects >= 1, "the link reconnected at least once");
    cluster.quiesce();
    assert!(subscriber.try_recv().is_none(), "no stragglers after settle");
}

/// Garbage at the socket edge: typed rejection, telemetry, and the
/// node keeps serving real traffic.
#[test]
fn malformed_frames_are_counted_and_do_not_poison_the_node() {
    let cluster = Cluster::builder(LatencyMap::full_mesh(2, 2)).tcp().spawn();
    let subscriber = cluster.attach(0);
    subscriber.subscribe(TopicFilter::parse("edge/#").expect("filter"));
    cluster.quiesce();
    let addr = cluster.listener_addr(0).expect("tcp listener address");
    let node0 = || cluster.metrics().node(0).decode_errors.get();
    let baseline = node0();

    // One connection, three records at link seq 0: a frame body with a
    // bogus version (BadVersion), a truncated envelope (Truncated), and a
    // valid event frame, which is refused too — an event travels
    // sequenced only, or a replay of it would skip the per-peer dedup.
    // Framing stays intact across the rejects.
    let mut stream = TcpStream::connect(addr).expect("connect to node 0");
    stream.write_all(&preamble(1)).expect("peer preamble");
    let mut bad_version = encode_frame(FrameKind::Ack, 1, 0, 0, 0, &[]).freeze().to_vec();
    bad_version[0] = 9;
    let truncated = vec![0u8; CLUSTER_HEADER_LEN - 4];
    let event = Event::new(
        Topic::parse("edge/ok").expect("topic"),
        ClientId::from_raw(424242),
        0,
        EventClass::Data,
        Bytes::new(),
    );
    let valid = encode_event_frame(1, 0, 0, 0, &event).freeze().to_vec();
    for frame in [&bad_version, &truncated, &valid] {
        let total = (frame.len() + 8) as u32;
        stream.write_all(&total.to_be_bytes()).expect("len prefix");
        stream.write_all(&0u64.to_be_bytes()).expect("link seq");
        stream.write_all(frame).expect("frame body");
    }
    stream.flush().expect("flush");
    await_count("all three refused", baseline + 3, node0);

    // The same event frame sequenced still lands. It claims a peer id no
    // node uses, so its receiver starts at the first sequence number:
    // node 0's receiver for peer 1 has used some on the quiesce flushes.
    let _sequenced = inject(addr, 7, 1, &valid);
    let delivered = collect(&subscriber, 1, Duration::from_secs(10));
    assert_eq!(delivered.len(), 1, "valid frame after garbage still lands");
    assert_eq!(delivered[0].topic.to_string(), "edge/ok");
    cluster.quiesce();
    assert!(
        subscriber.try_recv().is_none(),
        "the unsequenced copy is never delivered"
    );
    assert_eq!(
        node0() - baseline,
        3,
        "both malformed frames and the unsequenced event counted once each"
    );

    // A garbage length prefix cannot be resynced: it is counted and
    // ends that connection only.
    let desync = node0();
    let mut evil = TcpStream::connect(addr).expect("second connection");
    evil.write_all(&preamble(1)).expect("peer preamble");
    evil.write_all(&3u32.to_be_bytes()).expect("impossible length");
    evil.write_all(&0u64.to_be_bytes()).expect("seq");
    evil.flush().expect("flush");
    let deadline = Instant::now() + Duration::from_secs(10);
    while node0() == desync && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(node0() - desync, 1, "bad length counted once");

    // The node is unharmed: a real cross-gateway publish still flows.
    let publisher = cluster.attach(1);
    assert!(cluster.converge(6), "gossip still converges");
    publisher.publish(Topic::parse("edge/after").expect("topic"), Bytes::new());
    let tail = collect(&subscriber, 1, Duration::from_secs(10));
    assert_eq!(tail.len(), 1, "node still serves real traffic");
    assert_eq!(tail[0].topic.to_string(), "edge/after");
}

/// Dropping a TCP cluster must not take longer the more it has queued.
///
/// A link sender that sleeps its reconnect backoff (up to 250 ms)
/// inline, once per queued frame, and notices the shutdown only after
/// draining its queue, blocks a drop for 30–60 s when a few hundred
/// frames are still queued toward an already-closed listener. Fifty
/// passes, each dropped with its publishes still in flight.
#[test]
fn drop_with_traffic_in_flight_is_prompt() {
    let topic = Topic::parse("s/drop").expect("topic");
    for pass in 0..50 {
        let cluster = Cluster::builder(LatencyMap::full_mesh(3, 2)).tcp().spawn();
        let clients: Vec<_> = (0..3).map(|zone| cluster.attach(zone)).collect();
        for client in &clients {
            client.subscribe(TopicFilter::parse("s/#").expect("filter"));
        }
        assert!(cluster.converge(8), "pass {pass}: interest gossip converged");
        for i in 0..200 {
            clients[i % 3].publish(topic.clone(), Bytes::new());
        }
        let start = Instant::now();
        drop(clients);
        drop(cluster);
        let took = start.elapsed();
        assert!(took < Duration::from_secs(2), "pass {pass}: drop took {took:?}");
    }
}

/// One `drain_into`: what has been delivered by now, and nothing more.
fn drain(client: &ClusterClient) -> Vec<std::sync::Arc<Event>> {
    let mut sink = Vec::new();
    client.drain_into(&mut sink);
    sink
}

/// `quiesce()` is the only thing between the last publish and the one
/// drain per subscriber: no timeout, no sleep. On the mesh every frame
/// crosses one socket; on the chain the end nodes publish, so frames are
/// relayed over up to three, and the 3 000 that share the first link
/// overrun its 1 024-frame window — the flush waits behind the backlog.
#[test]
fn quiesce_over_tcp_flushes_every_hop() {
    let topic = Topic::parse("hop/x").expect("topic");
    for latency in [LatencyMap::full_mesh(3, 2), LatencyMap::chain(4, 2)] {
        let nodes = latency.node_count();
        let cluster = Cluster::builder(latency).tcp().spawn();
        let clients: Vec<_> = (0..nodes).map(|zone| cluster.attach(zone)).collect();
        for client in &clients {
            client.subscribe(TopicFilter::parse("hop/#").expect("filter"));
        }
        assert!(cluster.converge(nodes + 2), "interest gossip converged");
        for iteration in 0..20 {
            for i in 0..2000 {
                clients[(i % 2) * (nodes - 1)].publish(topic.clone(), Bytes::new());
            }
            cluster.quiesce();
            for client in &clients {
                let got = drain(client).len();
                assert_eq!(
                    got, 2000,
                    "{nodes} nodes, iteration {iteration}: {client:?}"
                );
            }
        }
        // The liveness probe a flush makes must never drop a healthy
        // connection.
        assert_eq!(cluster.metrics().total(|m| m.reconnects.get()), 0);
    }
}

/// `quiesce()` returns at its first quiet round, so what it must not do
/// is stop early on a long relay: 20 000 publishes at one end of a
/// five-node chain cross four links to the subscriber at the other end,
/// and the one drain right after one `quiesce()` must find every one of
/// them, in per-source order, five times over — over TCP, where each
/// hop is a flush exchange, and in process. A settle that stopped after
/// its first round leaves some of them still on the links.
#[test]
fn one_quiesce_settles_a_five_node_relay_chain() {
    const PUBLISHES: u64 = 20_000;
    let topic = Topic::parse("chain/x").expect("topic");
    for tcp in [true, false] {
        let builder = Cluster::builder(LatencyMap::chain(5, 5));
        let cluster = if tcp { builder.tcp() } else { builder }.spawn();
        let publisher = cluster.attach(0);
        let subscriber = cluster.attach(4);
        assert_eq!((publisher.node(), subscriber.node()), (0, 4));
        subscriber.subscribe(TopicFilter::parse("chain/#").expect("filter"));
        assert!(cluster.converge(8), "tcp {tcp}: interest gossip converged");
        for iteration in 0..5 {
            for _ in 0..PUBLISHES {
                publisher.publish(topic.clone(), Bytes::new());
            }
            cluster.quiesce();
            let seqs: Vec<u64> = drain(&subscriber).iter().map(|e| e.seq).collect();
            let first = iteration * PUBLISHES;
            assert!(
                seqs.iter().copied().eq(first..first + PUBLISHES),
                "tcp {tcp}, iteration {iteration}: {} of {PUBLISHES} arrived, or out of order",
                seqs.len()
            );
        }
    }
}

/// A dropped listener takes its node's links out of the flush in both
/// directions — toward it nothing is connected, from it no answer could
/// be heard — so `quiesce()` returns promptly and still settles the
/// rest of the mesh. What was published toward the dead node stays
/// parked in the link and arrives, once and in order, after the
/// listener is back and the link has reconnected by its own backoff.
#[test]
fn quiesce_with_a_dropped_listener_is_bounded() {
    let mut cluster = Cluster::builder(LatencyMap::full_mesh(3, 2)).tcp().spawn();
    let publisher = cluster.attach(0);
    let near = cluster.attach(1);
    let far = cluster.attach(2);
    for client in [&near, &far] {
        client.subscribe(TopicFilter::parse("s/#").expect("filter"));
    }
    assert!(cluster.converge(8), "interest gossip converged");
    let topic = Topic::parse("s/tcp").expect("topic");
    let publish = |count: usize| {
        for _ in 0..count {
            publisher.publish(topic.clone(), Bytes::new());
        }
    };
    publish(10);
    cluster.quiesce();
    let mut seqs: Vec<u64> = drain(&far).iter().map(|e| e.seq).collect();
    assert_eq!((drain(&near).len(), seqs.len()), (10, 10), "clean links");

    cluster.drop_listener(far.node() as usize);
    publish(50);
    let start = Instant::now();
    cluster.quiesce();
    let took = start.elapsed();
    assert!(took < Duration::from_secs(1), "quiesce took {took:?}");
    assert_eq!(drain(&near).len(), 50, "the live link was flushed");
    assert_eq!(drain(&far).len(), 0, "the dead one delivers nothing");

    cluster.restore_listener(far.node() as usize);
    let deadline = Instant::now() + Duration::from_secs(30);
    while seqs.len() < 60 && Instant::now() < deadline {
        cluster.quiesce();
        seqs.extend(drain(&far).iter().map(|e| e.seq));
    }
    assert_eq!(
        seqs,
        (0..60).collect::<Vec<u64>>(),
        "exactly once, in order"
    );
    cluster.quiesce();
    assert!(
        drain(&far).is_empty() && drain(&near).is_empty(),
        "no stragglers"
    );
}

/// After `shutdown()` the brokers are closed but the links are not:
/// the socket readers still answer every flush and a closed broker
/// quiesces at once, so `quiesce()` returns instead of waiting.
#[test]
fn quiesce_after_shutdown_returns() {
    let cluster = Cluster::builder(LatencyMap::full_mesh(3, 2)).tcp().spawn();
    assert!(cluster.converge(8), "links connected");
    cluster.shutdown();
    cluster.quiesce();
}

/// A link with nothing unacked watches its queue for a moment and then
/// parks with no deadline: only the producer's wake can move the next
/// frame. Each round settles the mesh, sleeps until every link has
/// parked, and then publishes one event, which every remote subscriber
/// must receive promptly — a push that fails to wake a parked link
/// leaves its subscriber waiting for ever.
#[test]
fn an_idle_link_wakes_for_the_next_frame() {
    let cluster = Cluster::builder(LatencyMap::full_mesh(3, 2)).tcp().spawn();
    let clients: Vec<_> = (0..3).map(|zone| cluster.attach(zone)).collect();
    for client in &clients {
        client.subscribe(TopicFilter::parse("idle/#").expect("filter"));
    }
    assert!(cluster.converge(8), "interest gossip converged");
    let topic = Topic::parse("idle/x").expect("topic");
    for round in 0..50 {
        clients[0].publish(topic.clone(), Bytes::new());
        cluster.quiesce();
        for client in &clients {
            assert_eq!(drain(client).len(), 1, "round {round}: {client:?}");
        }
        // Long past the idle watch: every link with nothing unacked is
        // asleep until woken.
        std::thread::sleep(Duration::from_millis(5));
        clients[0].publish(topic.clone(), Bytes::new());
        for client in &clients[1..] {
            assert!(
                client.recv_timeout(Duration::from_millis(200)).is_some(),
                "round {round}: a parked link was not woken for {client:?}"
            );
        }
        assert!(clients[0].recv_timeout(Duration::from_secs(2)).is_some());
    }
}

/// What a link opens a connection with: the node it claims to be, and
/// the sequence number it resumes at (0: nothing was ever sent).
fn preamble(claim: u16) -> [u8; 10] {
    let mut preamble = [0u8; 10];
    preamble[..2].copy_from_slice(&claim.to_be_bytes());
    preamble
}

/// Writes one raw record on a fresh connection that claims to be node
/// `claim`, and leaves the connection open.
fn inject(addr: std::net::SocketAddr, claim: u16, seq: u64, frame: &[u8]) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut record = preamble(claim).to_vec();
    record.extend_from_slice(&((frame.len() + 8) as u32).to_be_bytes());
    record.extend_from_slice(&seq.to_be_bytes());
    record.extend_from_slice(frame);
    stream.write_all(&record).expect("write record");
    stream
}

/// Spins until `count()` reaches `want`.
fn await_count(what: &str, want: u64, count: impl Fn() -> u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while count() < want && Instant::now() < deadline {
        std::thread::yield_now();
    }
    assert_eq!(count(), want, "{what}");
}

/// Flush records that are not what a link sender would write: each is
/// counted as a decode error, none panics a thread or answers a flush,
/// and the node's real links still flush.
#[test]
fn stray_flush_records_are_counted_and_complete_nothing() {
    let control = |kind, origin, dest, token| {
        let frame = encode_frame(kind, origin, dest, 0, token, &[]);
        frame.freeze().to_vec()
    };
    // A chain, so node 0 has a link to node 1 and none to node 2.
    let cluster = Cluster::builder(LatencyMap::chain(3, 2)).tcp().spawn();
    let clients: Vec<_> = (0..3).map(|zone| cluster.attach(zone)).collect();
    clients[0].subscribe(TopicFilter::parse("edge/#").expect("filter"));
    assert!(cluster.converge(6), "interest gossip converged");
    let addr = cluster.listener_addr(0).expect("tcp listener address");
    let errors = || cluster.metrics().node(0).decode_errors.get();
    let cases: [(&str, u16, u64, Vec<u8>); 6] = [
        (
            "unsequenced flush",
            1,
            0,
            control(FrameKind::Flush, 1, 0, 0),
        ),
        (
            "unsequenced answer",
            1,
            0,
            control(FrameKind::FlushAck, 1, 0, 0),
        ),
        (
            "flush from another origin than the connection's",
            1,
            900,
            control(FrameKind::Flush, 2, 0, 0),
        ),
        (
            "flush addressed to another node",
            1,
            901,
            control(FrameKind::Flush, 1, 2, 0),
        ),
        (
            "answer from a node this one has no link to",
            2,
            1,
            control(FrameKind::FlushAck, 2, 0, 0),
        ),
        (
            "flush with a body",
            1,
            902,
            encode_frame(FrameKind::Flush, 1, 0, 0, 0, b"x")
                .freeze()
                .to_vec(),
        ),
    ];
    let mut open = Vec::new();
    for (done, (what, claim, seq, frame)) in cases.iter().enumerate() {
        open.push(inject(addr, *claim, *seq, frame));
        await_count(what, done as u64 + 1, errors);
    }
    clients[2].publish(Topic::parse("edge/ok").expect("topic"), Bytes::new());
    cluster.quiesce();
    assert_eq!(drain(&clients[0]).len(), 1, "the real links still flush");
    assert_eq!(errors(), cases.len() as u64, "and counted nothing else");

    // A well-formed answer on the right link to a flush that link never
    // sent. This needs the peer's next sequence number, so the cluster
    // is a fresh one whose links have sent nothing — and is not used
    // afterwards, since the forgery has taken node 1's first number.
    let fresh = Cluster::builder(LatencyMap::full_mesh(2, 2)).tcp().spawn();
    let addr = fresh.listener_addr(0).expect("tcp listener address");
    open.push(inject(addr, 1, 1, &control(FrameKind::FlushAck, 1, 0, 99)));
    await_count("answer to a flush never sent", 1, || {
        fresh.metrics().node(0).decode_errors.get()
    });
}
