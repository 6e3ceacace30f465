//! The loopback-TCP link fabric: one sender thread per directed link,
//! one listener (accept loop plus a reader thread per connection) per
//! node. Everything on a socket is a `[u32 len][u64 seq][frame]` record.
//!
//! Event frames are sequenced by [`crate::reliable`]: the link sender
//! is a thin IO shell around a [`ReliableSender<Bytes>`], the readers
//! keep one [`ReliableReceiver<Bytes>`] per claimed peer, and `seq` is
//! the reliable sequence plus one (`0` = unsequenced: gossip, acks). A
//! dead connection is a lossy channel — the RTO re-offers what was
//! written into it, and the next write reconnects. Acks stop at the
//! socket edge: the reader hands a [`FrameKind::Ack`] to the local
//! link sender for that peer, never to the node worker. Both loops are
//! panic-reachability roots of the analyzer.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use mmcs_util::time::{monotonic_now, SimDuration, SimTime};
use parking_lot::Mutex;

use super::frame::{encode_frame, read_u64, ClusterFrame, FrameKind, OFF_KIND};
use super::route::LatencyMap;
use super::worker::{Link, NodeCmd};
use crate::gossip::NodeId;
use crate::metrics::{ClusterMetrics, ClusterNodeMetrics};
use crate::reliable::{Ack, ReliableFrame, ReliableReceiver, ReliableSender};

/// Sequenced frames one link keeps in flight before backlogging.
const LINK_WINDOW: usize = 1024;
/// How long a sequenced frame waits for its ack before it is re-sent.
const LINK_RTO: SimDuration = SimDuration::from_millis(250);
/// How often an idle link sender wakes to check the RTO.
const LINK_TICK: SimDuration = SimDuration::from_millis(20);
/// Reconnect backoff: doubles from `MIN` per failed attempt, to `MAX`.
const BACKOFF_MIN: SimDuration = SimDuration::from_millis(5);
const BACKOFF_MAX: SimDuration = SimDuration::from_millis(250);
/// Upper bound on one record's `len` (sequence + envelope + wire event).
const MAX_TCP_FRAME: usize = 8 * 1024 * 1024;

/// What a link sender thread is asked to do.
enum LinkOp {
    /// Put a frame on the wire (sequenced if it is an event frame).
    Send(Bytes),
    /// The peer's cumulative ack for this link, off a socket reader.
    Ack(Ack),
    /// Exit, whoever else still holds the queue.
    Close,
}

/// The queue into one directed link's sender thread ([`run_link`]).
type TcpLink = Sender<LinkOp>;

/// The link sender loop: feeds the queue through the reliable sender
/// and writes whatever that releases. It never sleeps, so a queue of
/// any depth drains (and `Close` is reached) promptly even while the
/// peer is down.
fn run_link(me: NodeId, peer: SocketAddr, ops: &Receiver<LinkOp>, metrics: &ClusterNodeMetrics) {
    let mut reliable = ReliableSender::<Bytes>::new(LINK_WINDOW, LINK_RTO);
    let mut socket = LinkSocket {
        me,
        peer,
        metrics,
        stream: None,
        retry_at: SimTime::ZERO,
        backoff: BACKOFF_MIN,
        connects: 0,
    };
    let mut next_tick = SimTime::ZERO;
    loop {
        let op = ops.recv_timeout(Duration::from_nanos(LINK_TICK.as_nanos()));
        let now = monotonic_now();
        let mut due = match op {
            // Never queue something the peer will reject outright.
            Ok(LinkOp::Send(frame)) if frame.len() + 8 > MAX_TCP_FRAME => Vec::new(),
            Ok(LinkOp::Send(frame)) if frame.get(OFF_KIND) == Some(&(FrameKind::Event as u8)) => {
                reliable.send(frame, now)
            }
            Ok(LinkOp::Send(frame)) => {
                socket.write(now, 0, &frame);
                Vec::new()
            }
            Ok(LinkOp::Ack(ack)) => reliable.on_ack(ack, now),
            Err(RecvTimeoutError::Timeout) => Vec::new(),
            Ok(LinkOp::Close) | Err(RecvTimeoutError::Disconnected) => break,
        };
        if now >= next_tick {
            due.extend(reliable.on_tick(now));
            next_tick = now + LINK_TICK;
        }
        for frame in due {
            socket.write(now, frame.seq + 1, &frame.event);
        }
    }
}

/// The socket under one link sender. Connects lazily, announces `me`
/// in a two-byte preamble (the accept side keys its per-peer receiver
/// on it), and after a failed attempt does not try again until the
/// backoff has elapsed. Records offered while it is down are dropped.
struct LinkSocket<'a> {
    me: NodeId,
    peer: SocketAddr,
    metrics: &'a ClusterNodeMetrics,
    stream: Option<TcpStream>,
    retry_at: SimTime,
    backoff: SimDuration,
    connects: u64,
}

impl LinkSocket<'_> {
    /// Writes one record, connecting first if need be; any IO error
    /// tears the connection down.
    fn write(&mut self, now: SimTime, seq: u64, frame: &[u8]) {
        if self.stream.is_none() && now >= self.retry_at {
            self.connect(now);
        }
        let Some(stream) = self.stream.as_mut() else {
            return;
        };
        let mut header = [0u8; 12];
        header[..4].copy_from_slice(&((frame.len() + 8) as u32).to_be_bytes());
        header[4..].copy_from_slice(&seq.to_be_bytes());
        if stream.write_all(&header).is_err() || stream.write_all(frame).is_err() {
            self.stream = None;
        }
    }

    fn connect(&mut self, now: SimTime) {
        let connected = TcpStream::connect(self.peer).and_then(|mut stream| {
            let _ = stream.set_nodelay(true);
            stream.write_all(&self.me.to_be_bytes())?;
            Ok(stream)
        });
        match connected {
            Ok(stream) => {
                if self.connects > 0 {
                    self.metrics.reconnects.inc();
                }
                self.connects += 1;
                self.backoff = BACKOFF_MIN;
                self.stream = Some(stream);
            }
            Err(_) => {
                self.retry_at = now + self.backoff;
                self.backoff = (self.backoff * 2).min(BACKOFF_MAX);
            }
        }
    }
}

/// An accepted connection: a clone of its stream, through which
/// [`TcpNode::stop`] wakes the reader, and the reader thread.
type Conn = (TcpStream, JoinHandle<()>);

/// Everything a reader thread of one node needs; shared by all of the
/// node's connections, across listener restarts.
#[derive(Clone)]
struct ReaderCtx {
    me: NodeId,
    ingress: Sender<NodeCmd>,
    /// This node's outbound links: acks for a peer's frames go out on
    /// them, and a peer's acks for ours are handed in to them.
    links: Arc<[Option<TcpLink>]>,
    /// One reliable receiver per claimed peer id. It outlives any one
    /// connection, which is what keeps retransmits after a reconnect
    /// exactly-once.
    receivers: Arc<Mutex<HashMap<NodeId, ReliableReceiver<Bytes>>>>,
    conns: Arc<Mutex<Vec<Conn>>>,
    metrics: Arc<ClusterNodeMetrics>,
}

impl ReaderCtx {
    fn tell_link(&self, peer: NodeId, op: LinkOp) {
        if let Some(Some(link)) = self.links.get(peer as usize) {
            let _ = link.send(op);
        }
    }
}

/// Reads records off one accepted connection until it ends. Malformed
/// input is counted and either skipped (bad frame — framing still
/// intact) or ends the connection (bad length — cannot resync).
fn run_reader(mut stream: TcpStream, ctx: &ReaderCtx) {
    let mut peer_bytes = [0u8; 2];
    if stream.read_exact(&mut peer_bytes).is_err() {
        return;
    }
    let peer = NodeId::from_be_bytes(peer_bytes);
    let mut header = [0u8; 12];
    loop {
        if stream.read_exact(&mut header).is_err() {
            return;
        }
        let total = u32::from_be_bytes([header[0], header[1], header[2], header[3]]) as usize;
        let seq = read_u64(&header, 4);
        if !(8..=MAX_TCP_FRAME).contains(&total) {
            // A garbage length desynchronizes the stream: count it and
            // drop the connection; the sender reconnects and
            // retransmits.
            ctx.metrics.decode_errors.inc();
            return;
        }
        let mut raw = vec![0u8; total - 8];
        if stream.read_exact(&mut raw).is_err() {
            return;
        }
        // Validate at the socket edge so garbage is charged to the
        // connection that sent it, then once more (free) in the worker.
        let Ok(parsed) = ClusterFrame::parse(&raw) else {
            ctx.metrics.decode_errors.inc();
            continue;
        };
        if parsed.kind() == FrameKind::Ack {
            let next_expected = parsed.generation();
            ctx.tell_link(peer, LinkOp::Ack(Ack { next_expected }));
            continue;
        }
        let frame = Bytes::from_owner(raw);
        if seq == 0 {
            let _ = ctx.ingress.send(NodeCmd::Frame(frame));
            continue;
        }
        let ack = {
            // Held across the hand-off so an old and a new connection
            // of the same peer cannot reorder their releases.
            let mut receivers = ctx.receivers.lock();
            let receiver = receivers.entry(peer).or_default();
            let duplicates = receiver.duplicates();
            let (released, ack) = receiver.on_frame(ReliableFrame {
                seq: seq - 1,
                event: frame,
            });
            if receiver.duplicates() > duplicates {
                ctx.metrics.duplicate_frames.inc();
            }
            for frame in released {
                let _ = ctx.ingress.send(NodeCmd::Frame(frame));
            }
            ack
        };
        let ack = encode_frame(FrameKind::Ack, ctx.me, peer, 0, ack.next_expected, &[]);
        ctx.tell_link(peer, LinkOp::Send(ack.freeze()));
    }
}

/// Accept loop for one listener. Exits when `accepting` clears (woken
/// by a dummy connection from [`TcpNode::stop`]).
fn run_accept(socket: &TcpListener, accepting: &AtomicBool, ctx: &ReaderCtx) {
    for stream in socket.incoming() {
        if !accepting.load(Ordering::Relaxed) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // A connection whose reader cannot be woken could never be
        // joined, so one that cannot be cloned is refused.
        let Ok(waker) = stream.try_clone() else {
            continue;
        };
        let reader_ctx = ctx.clone();
        let reader = std::thread::Builder::new()
            .name(format!("mmcs-accept{}", ctx.me))
            .spawn(move || run_reader(stream, &reader_ctx));
        if let Ok(reader) = reader {
            ctx.conns.lock().push((waker, reader));
        }
    }
}

/// One node's receiving side.
pub(super) struct TcpNode {
    pub(super) addr: SocketAddr,
    ctx: ReaderCtx,
    /// The accept thread and the flag that stops it, while listening.
    accept: Option<(Arc<AtomicBool>, JoinHandle<()>)>,
}

impl TcpNode {
    /// Starts accepting on `socket` (bound to `self.addr`).
    fn listen(&mut self, socket: TcpListener) {
        let accepting = Arc::new(AtomicBool::new(true));
        let (flag, ctx) = (Arc::clone(&accepting), self.ctx.clone());
        let thread = std::thread::Builder::new()
            .name(format!("mmcs-listen{}", ctx.me))
            .spawn(move || run_accept(&socket, &flag, &ctx))
            .expect("spawn cluster listener thread");
        self.accept = Some((accepting, thread));
    }

    /// Stops accepting (releasing the port), shuts every accepted
    /// connection and joins its reader. Idempotent.
    pub(super) fn stop(&mut self) {
        let Some((accepting, thread)) = self.accept.take() else {
            return;
        };
        accepting.store(false, Ordering::Relaxed);
        // Wake the accept loop so it observes the flag and exits.
        let _ = TcpStream::connect(self.addr);
        let _ = thread.join();
        for (stream, reader) in self.ctx.conns.lock().drain(..) {
            let _ = stream.shutdown(Shutdown::Both);
            let _ = reader.join();
        }
    }

    /// Rebinds the original address (panicking if it stays taken) and
    /// resumes accepting.
    pub(super) fn restore(&mut self) {
        self.stop();
        let socket = (0..200)
            .find_map(|_| {
                TcpListener::bind(self.addr)
                    .map_err(|_| std::thread::sleep(Duration::from_millis(10)))
                    .ok()
            })
            .expect("rebind cluster listener");
        self.listen(socket);
    }
}

/// The whole TCP fabric of one cluster. Dropping it stops every
/// listener, closes every link and joins every thread it spawned.
pub(super) struct TcpFabric {
    pub(super) nodes: Vec<TcpNode>,
    link_threads: Vec<JoinHandle<()>>,
}

impl TcpFabric {
    /// Binds one listener per node on 127.0.0.1, spawns a link sender
    /// per direct link of `latency`, and starts accepting. Panics if a
    /// listener cannot bind or a thread cannot spawn.
    pub(super) fn spawn(
        latency: &LatencyMap,
        ingress: &[Sender<NodeCmd>],
        metrics: &ClusterMetrics,
    ) -> TcpFabric {
        let n = ingress.len();
        let sockets: Vec<TcpListener> = (0..n)
            .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind cluster listener"))
            .collect();
        let addrs: Vec<SocketAddr> = sockets
            .iter()
            .map(|l| l.local_addr().expect("listener addr"))
            .collect();
        let mut link_threads = Vec::new();
        let mut nodes = Vec::with_capacity(n);
        for (me, socket) in sockets.into_iter().enumerate() {
            let node_metrics = metrics.node(me);
            let mut spawn_link = |peer: usize| {
                let (ops, rx) = unbounded();
                let (addr, metrics) = (addrs[peer], Arc::clone(node_metrics));
                let thread = std::thread::Builder::new()
                    .name(format!("mmcs-link{me}"))
                    .spawn(move || run_link(me as NodeId, addr, &rx, &metrics))
                    .expect("spawn tcp link thread");
                link_threads.push(thread);
                ops
            };
            let links = (0..n)
                .map(|peer| {
                    latency
                        .link(me as NodeId, peer as NodeId)
                        .map(|_| spawn_link(peer))
                })
                .collect();
            let mut node = TcpNode {
                addr: addrs[me],
                ctx: ReaderCtx {
                    me: me as NodeId,
                    ingress: ingress[me].clone(),
                    links,
                    receivers: Arc::default(),
                    conns: Arc::default(),
                    metrics: Arc::clone(node_metrics),
                },
                accept: None,
            };
            node.listen(socket);
            nodes.push(node);
        }
        TcpFabric {
            nodes,
            link_threads,
        }
    }

    /// Node `me`'s outbound links, as its worker sends on them.
    pub(super) fn links(&self, me: usize) -> Vec<Option<Link>> {
        let links = self.nodes[me].ctx.links.iter();
        links
            .map(|link| {
                let ops = link.clone()?;
                Some(Box::new(move |frame| {
                    let _ = ops.send(LinkOp::Send(frame));
                }) as Link)
            })
            .collect()
    }
}

impl Drop for TcpFabric {
    fn drop(&mut self) {
        for node in &mut self.nodes {
            node.stop();
        }
        // Closed explicitly: workers and readers hold clones of a link's
        // queue, so waiting for it to disconnect would make these joins
        // depend on their drop order.
        for link in self
            .nodes
            .iter()
            .flat_map(|node| node.ctx.links.iter().flatten())
        {
            let _ = link.send(LinkOp::Close);
        }
        for thread in self.link_threads.drain(..) {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::encode_event_frame;
    use crate::event::{Event, EventClass};
    use crate::topic::Topic;
    use mmcs_util::id::ClientId;
    use std::time::Instant;

    fn event_frame(n: u64) -> Bytes {
        let event = Event::new(
            Topic::parse("link/test").expect("topic"),
            ClientId::from_raw(1),
            n,
            EventClass::Data,
            Bytes::new(),
        );
        encode_event_frame(7, 9, 0, 0, &event).freeze()
    }

    /// The test plays the peer of one link sender and never acks, so
    /// everything the sender writes is visible: a sequenced record may
    /// appear again only once its RTO has run out. The second frame is
    /// offered by the very `Send` that (re)connects — the case a
    /// connect-time flush of a retransmit queue gets wrong, by writing
    /// the frame in the flush and then once more.
    #[test]
    fn a_sequenced_record_is_rewritten_only_after_its_rto() {
        let reserved = TcpListener::bind("127.0.0.1:0").expect("reserve a port");
        let addr = reserved.local_addr().expect("addr");
        drop(reserved);
        let (link, ops) = unbounded();
        let metrics = ClusterNodeMetrics::detached();
        let thread = std::thread::spawn(move || run_link(7, addr, &ops, &metrics));
        let send = |frame| assert!(link.send(LinkOp::Send(frame)).is_ok());
        send(event_frame(0)); // peer down: lost, stays in flight
        std::thread::sleep(Duration::from_millis(30)); // let the backoff lapse
        let listener = TcpListener::bind(addr).expect("bind the reserved port");
        send(event_frame(1)); // this send connects

        let (mut stream, _) = listener.accept().expect("link connects");
        let mut preamble = [0u8; 2];
        stream.read_exact(&mut preamble).expect("preamble");
        assert_eq!(NodeId::from_be_bytes(preamble), 7);
        stream
            .set_read_timeout(Some(Duration::from_millis(25)))
            .expect("read timeout");
        let rto = Duration::from_nanos(LINK_RTO.as_nanos());
        let start = Instant::now();
        let mut seen: Vec<(u64, Duration)> = Vec::new();
        let mut header = [0u8; 12];
        while start.elapsed() < rto * 2 {
            if stream.read_exact(&mut header).is_err() {
                continue; // read timeout: nothing on the wire right now
            }
            let len = u32::from_be_bytes([header[0], header[1], header[2], header[3]]) as usize;
            let mut seq = [0u8; 8];
            seq.copy_from_slice(&header[4..]);
            let mut frame = vec![0u8; len - 8];
            stream.read_exact(&mut frame).expect("record body");
            seen.push((u64::from_be_bytes(seq), start.elapsed()));
        }
        assert!(link.send(LinkOp::Close).is_ok());
        thread.join().expect("link thread exits on close");

        for seq in [1u64, 2] {
            let at: Vec<Duration> = seen.iter().filter(|r| r.0 == seq).map(|r| r.1).collect();
            assert!(
                at.len() >= 2,
                "seq {seq} written and retransmitted: {seen:?}"
            );
            for pair in at.windows(2) {
                assert!(
                    pair[1] - pair[0] >= rto / 2,
                    "seq {seq} rewritten before its RTO: {seen:?}"
                );
            }
        }
        assert!(seen.iter().all(|r| r.0 == 1 || r.0 == 2), "{seen:?}");
    }
}
