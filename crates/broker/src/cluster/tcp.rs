//! The loopback-TCP link fabric: one sender thread per directed link,
//! one listener (accept loop plus a reader thread per connection) per
//! node. Everything on a socket is a `[u32 len][u64 seq][frame]` record.
//!
//! Record kinds, by how they travel:
//!
//! * **sequenced** (`seq` = reliable sequence + 1) — `Event`, `Flush`
//!   and `FlushAck` frames ride [`crate::reliable`]: the link sender is
//!   a thin IO shell around a [`ReliableSender<Bytes>`], the readers
//!   keep one [`ReliableReceiver<Bytes>`] per claimed peer, and a dead
//!   connection is a lossy channel — the RTO re-offers what was written
//!   into it, and the next write reconnects;
//! * **unsequenced** (`seq` 0) — gossip, which tolerates loss, and
//!   `Ack`, which the next ack supersedes.
//!
//! The reader validates each frame once and hands every data frame
//! straight to its node's [`DataPlane`] on its own thread: an event for
//! this node is injected into the node's broker, one for another node
//! is relayed onto the next link, a gossip digest is answered onto the
//! reverse link and gossip entries are applied. Link control stops at
//! the socket edge: the reader hands
//! an `Ack` or a `FlushAck` to the local link sender for that peer, and
//! answers a released `Flush` itself; none of the three reaches the data
//! plane.
//!
//! **Flush.** [`TcpFabric::flush_links`] returns once every frame handed
//! to a connected link before the call has been handled by the peer's
//! reader — injected into its broker, handed to its next link, or gossip
//! answered or applied: the `Flush` record
//! is sequenced, so it cannot overtake backlogged or retransmitted
//! events, and the peer's reader answers it only after releasing, in
//! order, everything ahead of it. A link with nothing connected — its
//! socket is down and inside the reconnect backoff, or goes down with
//! the flush unanswered — completes at once instead: what is parked
//! behind a dead connection stays in flight until the link reconnects by
//! itself.
//!
//! **Backpressure.** A reader can block in the inject while the peer
//! shard's ingress is at capacity; the socket then stops being read,
//! which is TCP's own backpressure. Shutting the broker down closes the
//! ingress and releases it.
//!
//! The sender gathers what is queued into one socket write and the
//! reader takes records out of one buffered read, answering a read's
//! worth of sequenced records with a single cumulative ack. Both loops
//! are panic-reachability roots of the analyzer.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use bytes::Bytes;
use mmcs_util::time::{monotonic_now, SimDuration, SimTime};
use parking_lot::Mutex;

use super::frame::{encode_frame, read_u64, ClusterFrame, FrameKind, OFF_KIND};
use super::route::LatencyMap;
use super::plane::{DataPlane, Link};
use crate::gossip::NodeId;
use crate::metrics::ClusterNodeMetrics;
use crate::reliable::{Ack, ReliableFrame, ReliableReceiver, ReliableSender};

/// Sequenced frames one link keeps in flight before backlogging.
const LINK_WINDOW: usize = 1024;
/// How long a sequenced frame waits for its ack before it is re-sent.
const LINK_RTO: SimDuration = SimDuration::from_millis(250);
/// How often a link sender with unacked frames wakes to check the RTO.
const LINK_TICK: SimDuration = SimDuration::from_millis(20);
/// Reconnect backoff: doubles from `MIN` per failed attempt, to `MAX`.
const BACKOFF_MIN: SimDuration = SimDuration::from_millis(5);
const BACKOFF_MAX: SimDuration = SimDuration::from_millis(250);
/// Upper bound on one record's `len` (sequence + envelope + wire event).
const MAX_TCP_FRAME: usize = 8 * 1024 * 1024;
/// The `[u32 len][u64 seq]` in front of every frame.
const RECORD_HEADER: usize = 12;
/// Bytes a link sender gathers before it writes, and a reader's buffer.
const IO_BATCH: usize = 64 * 1024;

/// What a link sender thread is asked to do.
enum LinkOp {
    /// Put a frame on the wire (sequenced if it is an event frame or a
    /// flush answer).
    Send(Bytes),
    /// The peer's cumulative ack for this link, off a socket reader.
    Ack(Ack),
    /// Put a `Flush` record behind everything sent so far. The handle is
    /// dropped when the peer has answered, or at once if nothing is
    /// connected.
    Flush(Sender<()>),
    /// The peer's answer to the flush with this token, off a reader.
    FlushAck(u64),
    /// Exit, whoever else still holds the queue.
    Close,
}

/// The queue into one directed link's sender thread ([`run_link`]).
type TcpLink = Sender<LinkOp>;

/// The link sender loop: feeds the queue through the reliable sender
/// and writes whatever that releases, one socket write per drained
/// queue. It never sleeps, so a queue of any depth drains (and `Close`
/// is reached) promptly even while the peer is down; with nothing
/// unacked it parks on the queue.
fn run_link(
    me: NodeId,
    peer: NodeId,
    addr: SocketAddr,
    ops: &Receiver<LinkOp>,
    metrics: &ClusterNodeMetrics,
) {
    let mut reliable = ReliableSender::<Bytes>::new(LINK_WINDOW, LINK_RTO);
    let mut socket = LinkSocket {
        me,
        addr,
        metrics,
        stream: None,
        retry_at: SimTime::ZERO,
        backoff: BACKOFF_MIN,
        connects: 0,
        out: Vec::with_capacity(IO_BATCH),
    };
    // Flushes written and not yet answered. Tokens count up from zero,
    // so an answer to one this link never sent is recognisable.
    let mut flushes: Vec<(u64, Sender<()>)> = Vec::new();
    let mut next_token = 0u64;
    let mut next_tick = SimTime::ZERO;
    loop {
        let first = if reliable.is_idle() {
            ops.recv().map_err(|_| RecvTimeoutError::Disconnected)
        } else {
            ops.recv_timeout(Duration::from_nanos(LINK_TICK.as_nanos()))
        };
        let now = monotonic_now();
        let mut next = match first {
            Ok(op) => Some(op),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => return,
        };
        while let Some(op) = next {
            let due = match op {
                // Never queue something the peer will reject outright.
                LinkOp::Send(frame) if frame.len() + 8 > MAX_TCP_FRAME => {
                    metrics.link_drops.inc();
                    Vec::new()
                }
                LinkOp::Send(frame) => match frame.get(OFF_KIND) {
                    Some(&kind) if kind == FrameKind::Event as u8 => reliable.send(frame, now),
                    Some(&kind) if kind == FrameKind::FlushAck as u8 => {
                        // The peer is waiting on this one: notice a
                        // closed connection now, not an RTO from now.
                        socket.connected(now);
                        reliable.send(frame, now)
                    }
                    _ => {
                        socket.queue(0, &frame);
                        Vec::new()
                    }
                },
                LinkOp::Ack(ack) => reliable.on_ack(ack, now),
                LinkOp::Flush(done) if socket.connected(now) => {
                    let flush = encode_frame(FrameKind::Flush, me, peer, 0, next_token, &[]);
                    flushes.push((next_token, done));
                    next_token += 1;
                    reliable.send(flush.freeze(), now)
                }
                // Nothing connected: dropping the handle completes it.
                LinkOp::Flush(_) => Vec::new(),
                LinkOp::FlushAck(token) if token < next_token => {
                    flushes.retain(|(pending, _)| *pending != token);
                    Vec::new()
                }
                LinkOp::FlushAck(_) => {
                    metrics.decode_errors.inc();
                    Vec::new()
                }
                LinkOp::Close => return,
            };
            for frame in due {
                socket.queue(frame.seq + 1, &frame.event);
            }
            next = if socket.out.len() < IO_BATCH {
                ops.try_recv().ok()
            } else {
                None
            };
        }
        if now >= next_tick {
            for frame in reliable.on_tick(now) {
                socket.queue(frame.seq + 1, &frame.event);
            }
            next_tick = now + LINK_TICK;
        }
        socket.write(now);
        if socket.stream.is_none() {
            flushes.clear();
        }
    }
}

/// The socket under one link sender. Connects lazily, announces `me`
/// in a two-byte preamble (the accept side keys its per-peer receiver
/// on it), and after a failed attempt does not try again until the
/// backoff has elapsed. Records written while it is down are dropped.
struct LinkSocket<'a> {
    me: NodeId,
    addr: SocketAddr,
    metrics: &'a ClusterNodeMetrics,
    stream: Option<TcpStream>,
    retry_at: SimTime,
    backoff: SimDuration,
    connects: u64,
    /// Records gathered for the next write.
    out: Vec<u8>,
}

impl LinkSocket<'_> {
    /// Adds one record to the next write.
    fn queue(&mut self, seq: u64, frame: &[u8]) {
        self.out
            .extend_from_slice(&((frame.len() + 8) as u32).to_be_bytes());
        self.out.extend_from_slice(&seq.to_be_bytes());
        self.out.extend_from_slice(frame);
    }

    /// Writes the gathered records in one call, connecting first if
    /// need be (what is offered while down is dropped); any IO error
    /// tears the connection down.
    fn write(&mut self, now: SimTime) {
        if self.out.is_empty() {
            return;
        }
        self.connect(now);
        if let Some(stream) = self.stream.as_mut() {
            if stream.write_all(&self.out).is_err() {
                self.stream = None;
            }
        }
        self.out.clear();
    }

    /// Whether a record written now goes into a live connection. The
    /// peer never writes on this socket, so anything but "no data yet"
    /// from a non-blocking read means it has closed its end; such a
    /// stream is dropped, and a missing one is connected unless the
    /// backoff forbids.
    fn connected(&mut self, now: SimTime) -> bool {
        let live = self.stream.as_ref().is_some_and(|stream| {
            let probe = stream
                .set_nonblocking(true)
                .and_then(|()| stream.peek(&mut [0u8; 1]));
            let would_block = matches!(&probe, Err(e) if e.kind() == io::ErrorKind::WouldBlock);
            would_block && stream.set_nonblocking(false).is_ok()
        });
        if !live {
            self.stream = None;
        }
        self.connect(now);
        self.stream.is_some()
    }

    /// Connects, unless connected or inside the backoff.
    fn connect(&mut self, now: SimTime) {
        if self.stream.is_some() || now < self.retry_at {
            return;
        }
        let connected = TcpStream::connect(self.addr).and_then(|mut stream| {
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
    /// The node these connections arrive at.
    plane: Arc<DataPlane>,
    /// This node's outbound links: acks for a peer's frames go out on
    /// them, and a peer's acks for ours are handed in to them.
    links: Arc<[Option<TcpLink>]>,
    /// One reliable receiver per claimed peer id. It outlives any one
    /// connection, which is what keeps retransmits after a reconnect
    /// exactly-once.
    receivers: Arc<Mutex<HashMap<NodeId, ReliableReceiver<Bytes>>>>,
    conns: Arc<Mutex<Vec<Conn>>>,
}

impl ReaderCtx {
    fn link(&self, peer: NodeId) -> Option<&TcpLink> {
        self.links.get(peer as usize)?.as_ref()
    }

    /// Handles one record off `peer`'s connection; `ack` collects the
    /// cumulative ack its sequenced records are owed. A malformed frame
    /// is counted and skipped — the framing around it is still intact.
    fn on_record(&self, peer: NodeId, seq: u64, raw: &[u8], ack: &mut Option<Ack>) {
        // The one validation, at the socket edge, so garbage is charged
        // to the connection that sent it.
        let Ok(parsed) = ClusterFrame::parse(raw) else {
            self.plane.metrics.decode_errors.inc();
            return;
        };
        let kind = parsed.kind();
        if kind == FrameKind::Ack {
            if let Some(link) = self.link(peer) {
                let next_expected = parsed.generation();
                let _ = link.send(LinkOp::Ack(Ack { next_expected }));
            }
            return;
        }
        // A flush (or its answer) is one only on the link it names, and
        // only sequenced: unsequenced it could overtake what it flushes.
        if matches!(kind, FrameKind::Flush | FrameKind::FlushAck)
            && (seq == 0
                || parsed.origin() != peer
                || parsed.dest() != self.plane.me
                || self.link(peer).is_none())
        {
            self.plane.metrics.decode_errors.inc();
            return;
        }
        let frame = Bytes::copy_from_slice(raw);
        if seq == 0 {
            self.plane.on_frame(&frame, &parsed);
            return;
        }
        // Held across the hand-off so an old and a new connection of
        // the same peer cannot reorder their releases.
        let mut receivers = self.receivers.lock();
        let receiver = receivers.entry(peer).or_default();
        let duplicates = receiver.duplicates();
        let (released, owed) = receiver.on_frame(ReliableFrame {
            seq: seq - 1,
            event: frame,
        });
        if receiver.duplicates() > duplicates {
            self.plane.metrics.duplicate_frames.inc();
        }
        *ack = Some(owed);
        for frame in released {
            self.release(peer, &frame);
        }
    }

    /// Hands on one sequenced frame, in its turn. A flush is answered
    /// here: everything `peer`'s link released before it has been
    /// injected or relayed by now. The answer is control, not data, so
    /// the fault plane does not apply.
    fn release(&self, peer: NodeId, frame: &Bytes) {
        let Some(parsed) = ClusterFrame::trusted(frame) else {
            return;
        };
        let token = parsed.generation();
        match parsed.kind() {
            FrameKind::Flush => {
                if let Some(link) = self.link(peer) {
                    let answer =
                        encode_frame(FrameKind::FlushAck, self.plane.me, peer, 0, token, &[]);
                    let _ = link.send(LinkOp::Send(answer.freeze()));
                }
            }
            FrameKind::FlushAck => {
                if let Some(link) = self.link(peer) {
                    let _ = link.send(LinkOp::FlushAck(token));
                }
            }
            _ => self.plane.on_frame(frame, &parsed),
        }
    }
}

/// A record length no record can have: the stream cannot be resynced.
struct BadLength;

/// A socket reader's buffer: `bytes[start..end]` is read and not yet
/// handed on.
struct RecordBuf {
    bytes: Vec<u8>,
    start: usize,
    end: usize,
}

impl RecordBuf {
    /// The next whole record as `(seq, frame)`, or `None` if it has not
    /// all been read yet.
    fn next_record(&mut self) -> Result<Option<(u64, &[u8])>, BadLength> {
        let unread = self.bytes.get(self.start..self.end);
        let Some(header) = unread.and_then(|unread| unread.get(..RECORD_HEADER)) else {
            return Ok(None);
        };
        let total = u32::from_be_bytes([header[0], header[1], header[2], header[3]]) as usize;
        if !(8..=MAX_TCP_FRAME).contains(&total) {
            return Err(BadLength);
        }
        let seq = read_u64(header, 4);
        let (body, next) = (self.start + RECORD_HEADER, self.start + 4 + total);
        if next > self.end {
            // Room for the rest, once `fill` has moved it to the front.
            if self.bytes.len() < 4 + total {
                self.bytes.resize(4 + total, 0);
            }
            return Ok(None);
        }
        self.start = next;
        Ok(self.bytes.get(body..next).map(|frame| (seq, frame)))
    }

    /// Moves the unread bytes to the front and reads more behind them.
    fn fill(&mut self, stream: &mut TcpStream) -> io::Result<()> {
        self.bytes.copy_within(self.start..self.end, 0);
        self.end -= self.start;
        self.start = 0;
        let read = stream.read(self.bytes.get_mut(self.end..).unwrap_or_default())?;
        if read == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        self.end += read;
        Ok(())
    }
}

/// Reads records off one accepted connection until it ends, a buffer
/// at a time; each buffer's sequenced records are answered with one
/// cumulative ack. A bad length is counted and ends the connection (the
/// sender reconnects and retransmits).
fn run_reader(mut stream: TcpStream, ctx: &ReaderCtx) {
    let mut peer_bytes = [0u8; 2];
    if stream.read_exact(&mut peer_bytes).is_err() {
        return;
    }
    let peer = NodeId::from_be_bytes(peer_bytes);
    let mut buf = RecordBuf {
        bytes: vec![0u8; IO_BATCH],
        start: 0,
        end: 0,
    };
    loop {
        let mut ack = None;
        loop {
            match buf.next_record() {
                Ok(Some((seq, raw))) => ctx.on_record(peer, seq, raw, &mut ack),
                Ok(None) => break,
                Err(BadLength) => {
                    ctx.plane.metrics.decode_errors.inc();
                    return;
                }
            }
        }
        if let (Some(Ack { next_expected }), Some(link)) = (ack, ctx.link(peer)) {
            let ack = encode_frame(FrameKind::Ack, ctx.plane.me, peer, 0, next_expected, &[]);
            let _ = link.send(LinkOp::Send(ack.freeze()));
        }
        if buf.fill(&mut stream).is_err() {
            return;
        }
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
            .name(format!("mmcs-accept{}", ctx.plane.me))
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
            .name(format!("mmcs-listen{}", ctx.plane.me))
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
    /// per direct link of `latency`, installs each node's links in its
    /// data plane, and starts accepting. Panics if a listener cannot
    /// bind or a thread cannot spawn.
    pub(super) fn spawn(latency: &LatencyMap, planes: &[Arc<DataPlane>]) -> TcpFabric {
        let n = planes.len();
        let sockets: Vec<TcpListener> = (0..n)
            .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind cluster listener"))
            .collect();
        let addrs: Vec<SocketAddr> = sockets
            .iter()
            .map(|l| l.local_addr().expect("listener addr"))
            .collect();
        let mut link_threads = Vec::new();
        let mut nodes = Vec::with_capacity(n);
        for ((me, socket), plane) in sockets.into_iter().enumerate().zip(planes) {
            let mut spawn_link = |peer: usize| {
                let (ops, rx) = channel();
                let (addr, metrics) = (addrs[peer], Arc::clone(&plane.metrics));
                let thread = std::thread::Builder::new()
                    .name(format!("mmcs-link{me}"))
                    .spawn(move || run_link(me as NodeId, peer as NodeId, addr, &rx, &metrics))
                    .expect("spawn tcp link thread");
                link_threads.push(thread);
                ops
            };
            let links: Arc<[Option<TcpLink>]> = (0..n)
                .map(|peer| {
                    latency
                        .link(me as NodeId, peer as NodeId)
                        .map(|_| spawn_link(peer))
                })
                .collect();
            plane.set_links(
                links
                    .iter()
                    .map(|link| {
                        let ops = link.clone()?;
                        Some(Box::new(move |frame| {
                            let _ = ops.send(LinkOp::Send(frame));
                        }) as Link)
                    })
                    .collect(),
            );
            let mut node = TcpNode {
                addr: addrs[me],
                ctx: ReaderCtx {
                    plane: Arc::clone(plane),
                    links,
                    receivers: Arc::default(),
                    conns: Arc::default(),
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

    /// Flushes every directed link (see the module docs) and waits for
    /// the answers. A node that is not listening cannot hear one, so its
    /// outbound links count as not connected.
    pub(super) fn flush_links(&self) {
        let (done, answered) = channel();
        for node in self.nodes.iter().filter(|node| node.accept.is_some()) {
            for link in node.ctx.links.iter().flatten() {
                let _ = link.send(LinkOp::Flush(done.clone()));
            }
        }
        drop(done);
        // Ends when the last link has dropped its handle.
        while answered.recv().is_ok() {}
    }
}

impl Drop for TcpFabric {
    fn drop(&mut self) {
        for node in &mut self.nodes {
            node.stop();
        }
        // Closed explicitly: data planes and readers hold clones of a link's
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
    use crate::cluster::{encode_event_frame, OFF_GENERATION};
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
        let (link, ops) = channel();
        let metrics = ClusterNodeMetrics::detached();
        let thread = std::thread::spawn(move || run_link(7, 9, addr, &ops, &metrics));
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

    /// A port nothing listens on.
    fn closed_port() -> SocketAddr {
        let reserved = TcpListener::bind("127.0.0.1:0").expect("reserve a port");
        reserved.local_addr().expect("addr")
    }

    #[test]
    fn an_oversize_frame_is_counted_as_a_link_drop() {
        let (link, ops) = channel();
        let metrics = ClusterNodeMetrics::detached();
        let seen = Arc::clone(&metrics);
        let addr = closed_port();
        let thread = std::thread::spawn(move || run_link(7, 9, addr, &ops, &metrics));
        for len in [MAX_TCP_FRAME - 7, MAX_TCP_FRAME - 8] {
            assert!(link.send(LinkOp::Send(Bytes::from(vec![0u8; len]))).is_ok());
        }
        assert!(link.send(LinkOp::Close).is_ok());
        thread.join().expect("link thread exits on close");
        assert_eq!(seen.link_drops.get(), 1, "only the frame over the bound");
    }

    /// Reads one record off a link sender's connection.
    fn read_record(stream: &mut TcpStream) -> (u64, Vec<u8>) {
        let mut header = [0u8; RECORD_HEADER];
        stream.read_exact(&mut header).expect("record header");
        let len = u32::from_be_bytes([header[0], header[1], header[2], header[3]]) as usize;
        let mut frame = vec![0u8; len - 8];
        stream.read_exact(&mut frame).expect("record body");
        (read_u64(&header, 4), frame)
    }

    /// Whether the link lets go of the flush `answered` waits on within
    /// `wait`.
    fn completes(answered: &Receiver<()>, wait: Duration) -> bool {
        answered.recv_timeout(wait) == Err(RecvTimeoutError::Disconnected)
    }

    /// The test plays the peer of one link sender. A flush goes out as a
    /// sequenced record and stays pending until its own token comes
    /// back: an answer to a flush the link never sent is counted and
    /// completes nothing. When the peer goes away, pending and new
    /// flushes complete at once — nothing is connected.
    #[test]
    fn a_flush_completes_on_its_own_answer_or_when_nothing_is_connected() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let (link, ops) = channel();
        let metrics = ClusterNodeMetrics::detached();
        let seen = Arc::clone(&metrics);
        let thread = std::thread::spawn(move || run_link(7, 9, addr, &ops, &metrics));
        let flush = || {
            let (done, answered) = channel();
            assert!(link.send(LinkOp::Flush(done)).is_ok());
            answered
        };

        let first = flush();
        let (mut stream, _) = listener.accept().expect("the flush connects");
        let mut preamble = [0u8; 2];
        stream.read_exact(&mut preamble).expect("preamble");
        let (seq, frame) = read_record(&mut stream);
        let parsed = ClusterFrame::parse(&frame).expect("a valid frame");
        assert_eq!(seq, 1, "sequenced, so it cannot overtake an event");
        assert_eq!(
            (
                parsed.kind(),
                parsed.origin(),
                parsed.dest(),
                parsed.generation()
            ),
            (FrameKind::Flush, 7, 9, 0)
        );

        // An answer to token 5, which was never sent. The second flush
        // is read back only to know the link has got that far.
        assert!(link.send(LinkOp::FlushAck(5)).is_ok());
        let second = flush();
        let (seq, frame) = read_record(&mut stream);
        assert_eq!((seq, read_u64(&frame, OFF_GENERATION)), (2, 1));
        assert_eq!(seen.decode_errors.get(), 1, "the stray answer is counted");
        let (now, soon) = (Duration::ZERO, Duration::from_secs(5));
        assert!(!completes(&first, now) && !completes(&second, now));

        assert!(link.send(LinkOp::FlushAck(0)).is_ok());
        assert!(completes(&first, soon), "its own answer completes it");
        assert!(!completes(&second, now), "and nothing else");

        drop(stream);
        drop(listener);
        let third = flush();
        assert!(completes(&third, soon), "peer gone: completes at once");
        assert!(completes(&second, soon), "and so does the pending one");

        assert!(link.send(LinkOp::Close).is_ok());
        thread.join().expect("link thread exits on close");
        assert_eq!(seen.decode_errors.get(), 1);
    }
}
