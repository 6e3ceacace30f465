//! The loopback-TCP link fabric: one sender thread per directed link,
//! one listener (accept loop plus a reader thread per connection) per
//! node. Everything on a socket is a `[u32 len][u64 seq][frame]` record.
//!
//! Record kinds, by how they travel:
//!
//! * **sequenced** (`seq` = reliable sequence + 1) — `Event`, `Flush`
//!   and `FlushAck` frames ride [`crate::reliable`]: the link sender is
//!   a thin IO shell around a [`ReliableSender`] of [`LinkFrame`]s, the
//!   readers keep one [`ReliableReceiver<Bytes>`] per claimed peer, and
//!   a dead connection is a lossy channel — the RTO re-offers what was
//!   written into it, and the next write reconnects;
//! * **unsequenced** (`seq` 0) — gossip, which tolerates loss, and
//!   `Ack`, which the next ack supersedes. These three kinds only: a
//!   reader counts any other unsequenced frame in `decode_errors` and
//!   drops it — an `Event` would skip the per-peer receiver's dedup,
//!   and a flush could overtake what it flushes.
//!
//! The link thread encodes every record into the buffer of its next
//! socket write. A local publish reaches it as a [`LinkFrame::Event`],
//! the event's `Arc`: the window keeps the `Arc`, and a retransmit
//! encodes it again, into the same bytes.
//!
//! The reader validates each frame once and hands every data frame
//! straight to its node's [`DataPlane`] on its own thread: an event for
//! this node is injected into the node's broker, one for another node
//! is relayed onto the next link, a gossip digest is answered onto the
//! reverse link and gossip entries are applied. Link control stops at
//! the socket edge: the reader hands
//! an `Ack` or a `FlushAck` to the local link sender for that peer, and
//! answers a released `Flush` itself; none of the three reaches the data
//! plane, and none marks the peer heard — only a gossip record or a
//! released event does, as only a data frame does in process.
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
//! itself. A link the fault plane has severed is not flushed at all: it
//! carries no data frame, and a flush answered across it would be the
//! only traffic on it.
//!
//! **Backpressure.** A reader can block in the inject while the peer
//! shard's ingress is at capacity; the socket then stops being read,
//! which is TCP's own backpressure. Shutting the broker down closes the
//! ingress and releases it.
//!
//! **The link queue** is the crate's one hand-off, the swap-whole queue
//! a shard worker takes its ingress from: a publisher's `Send`, a
//! reader's `Ack` and a flush are each a push, and a producer wakes the
//! link thread only if it is asleep. The thread takes its whole queue per
//! turn and gathers it into socket writes of at most about [`IO_BATCH`];
//! with the queue empty it watches it for a millisecond before it parks —
//! until woken if nothing is unacked, until the next RTO tick otherwise —
//! so a publisher's bursts do not wake it once each. The reader takes
//! records out of one buffered read, answering a read's worth of
//! sequenced records with a single cumulative ack. The reader
//! copies a read once; every record it hands on is a `Bytes` slice of
//! that copy, so a decoded event's payload keeps the copy alive until
//! its last subscriber drops it. Both loops are panic-reachability
//! roots of the analyzer.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use bytes::{BufMut, Bytes};
use mmcs_util::time::{monotonic_now, SimDuration, SimTime};
use parking_lot::Mutex;

use super::frame::{encode_frame, read_u64, ClusterFrame, FrameKind, LinkFrame};
use super::route::LatencyMap;
use super::plane::{DataPlane, Link};
use crate::gossip::NodeId;
use crate::handoff::{BarrierAck, Handoff, Latch};
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
/// The `[u16 node][u64 resume seq]` a link opens each connection with.
const PREAMBLE: usize = 10;
/// Bytes a link sender gathers before it writes, and a reader's buffer.
const IO_BATCH: usize = 64 * 1024;

/// What a link sender thread is asked to do.
enum LinkOp {
    /// Put a frame on the wire (sequenced if it is an event frame or a
    /// flush answer).
    Send(LinkFrame),
    /// The peer's cumulative ack for this link, off a socket reader.
    Ack(Ack),
    /// Put a `Flush` record behind everything sent so far. The ack is
    /// dropped when the peer has answered, or at once if nothing is
    /// connected.
    Flush(BarrierAck),
    /// The peer's answer to the flush with this token, off a reader.
    FlushAck(u64),
    /// The peer is suspected dead: shed every unacked or queued frame,
    /// drop the connection and what was gathered for it, so the next one
    /// announces where the sequence resumes.
    Shed,
    /// Exit, whoever else still holds the queue.
    Close,
}

/// The queue into one directed link's sender thread ([`run_link`]).
type TcpLink = Arc<Handoff<LinkOp>>;

/// The link thread's hold on its queue: however the thread ends, the
/// queue stops accepting and drops what it holds, which completes every
/// flush in it.
struct Taker<'a>(&'a Handoff<LinkOp>);

impl Drop for Taker<'_> {
    fn drop(&mut self) {
        self.0.abandon();
    }
}

/// The link sender loop: takes its whole queue per turn, feeds it
/// through the reliable sender and writes whatever that releases, in
/// socket writes of at most about [`IO_BATCH`]. It never sleeps in a
/// turn, so a queue of any depth drains (and `Close` is reached)
/// promptly even while the peer is down. With the queue empty it
/// watches it briefly, as a shard worker does, and then parks: until
/// woken with nothing unacked, until the next RTO tick otherwise.
fn run_link(
    me: NodeId,
    peer: NodeId,
    addr: SocketAddr,
    ops: &Handoff<LinkOp>,
    metrics: &ClusterNodeMetrics,
) {
    let _taker = Taker(ops);
    let mut reliable = ReliableSender::<LinkFrame>::new(LINK_WINDOW, LINK_RTO);
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
    let mut flushes: Vec<(u64, BarrierAck)> = Vec::new();
    let mut next_token = 0u64;
    let mut next_tick = SimTime::ZERO;
    let mut taken = Vec::new();
    loop {
        ops.take_all(&mut taken, (!reliable.is_idle()).then_some(next_tick));
        let mut now = monotonic_now();
        for op in taken.drain(..) {
            let due = match op {
                // Never queue something the peer will reject outright.
                LinkOp::Send(frame) if frame.len() + 8 > MAX_TCP_FRAME => {
                    metrics.link_drops.inc();
                    Vec::new()
                }
                LinkOp::Send(frame) => match frame.kind() {
                    Some(FrameKind::Event) => reliable.send(frame, now),
                    Some(FrameKind::FlushAck) => {
                        // The peer is waiting on this one: notice a
                        // closed connection now, not an RTO from now.
                        socket.connected(now, reliable.resume_seq());
                        reliable.send(frame, now)
                    }
                    _ => {
                        socket.queue(0, &frame);
                        Vec::new()
                    }
                },
                LinkOp::Ack(ack) => reliable.on_ack(ack, now),
                LinkOp::Flush(done) if socket.connected(now, reliable.resume_seq()) => {
                    let flush = encode_frame(FrameKind::Flush, me, peer, 0, next_token, &[]);
                    flushes.push((next_token, done));
                    next_token += 1;
                    reliable.send(LinkFrame::Encoded(flush.freeze()), now)
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
                LinkOp::Shed => {
                    metrics.frames_shed.add(reliable.shed() as u64);
                    socket.stream = None;
                    socket.out.clear();
                    Vec::new()
                }
                LinkOp::Close => return,
            };
            for frame in due {
                socket.queue(frame.seq + 1, &frame.event);
            }
            if socket.out.len() >= IO_BATCH {
                write_out(&mut socket, &mut flushes, now, reliable.resume_seq());
                now = monotonic_now();
            }
        }
        if now >= next_tick {
            for frame in reliable.on_tick(now) {
                socket.queue(frame.seq + 1, &frame.event);
            }
            next_tick = now + LINK_TICK;
        }
        write_out(&mut socket, &mut flushes, now, reliable.resume_seq());
    }
}

/// Writes what the link has gathered; a link left with nothing connected
/// completes every flush it holds.
fn write_out(
    socket: &mut LinkSocket<'_>,
    flushes: &mut Vec<(u64, BarrierAck)>,
    now: SimTime,
    resume: u64,
) {
    socket.write(now, resume);
    if socket.stream.is_none() {
        flushes.clear();
    }
}

/// The socket under one link sender. Connects lazily, and after a
/// failed attempt does not try again until the backoff has elapsed.
/// Records written while it is down are dropped. A connection opens with
/// a [`PREAMBLE`]-byte preamble: `me` (the accept side keys its per-peer
/// receiver on it) and the sequence number the link resumes at, below
/// which the receiver is owed nothing — everything lower was acked, or
/// shed when the peer was suspected.
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
    /// Adds one record to the next write, encoding the frame into it.
    fn queue(&mut self, seq: u64, frame: &LinkFrame) {
        self.out.put_u32((frame.len() + 8) as u32);
        self.out.put_u64(seq);
        frame.encode_into(&mut self.out);
    }

    /// Writes the gathered records in one call, connecting first if
    /// need be (what is offered while down is dropped); any IO error
    /// tears the connection down.
    fn write(&mut self, now: SimTime, resume: u64) {
        if self.out.is_empty() {
            return;
        }
        self.connect(now, resume);
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
    fn connected(&mut self, now: SimTime, resume: u64) -> bool {
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
        self.connect(now, resume);
        self.stream.is_some()
    }

    /// Connects, unless connected or inside the backoff, announcing
    /// that the link resumes at `resume`.
    fn connect(&mut self, now: SimTime, resume: u64) {
        if self.stream.is_some() || now < self.retry_at {
            return;
        }
        let connected = TcpStream::connect(self.addr).and_then(|mut stream| {
            let _ = stream.set_nodelay(true);
            let mut preamble = [0u8; PREAMBLE];
            preamble[..2].copy_from_slice(&self.me.to_be_bytes());
            preamble[2..].copy_from_slice(&resume.to_be_bytes());
            stream.write_all(&preamble)?;
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

    /// Opens a connection from `peer` whose link resumes at `resume`:
    /// the receiver moves past whatever the link shed below it.
    fn on_connect(&self, peer: NodeId, resume: u64) {
        let mut receivers = self.receivers.lock();
        let receiver = receivers.entry(peer).or_default();
        receiver.skip_to(resume, |frame| self.release(peer, &frame));
    }

    /// Handles one record off `peer`'s connection; `ack` collects the
    /// cumulative ack its sequenced records are owed. A malformed frame
    /// is counted and skipped — the framing around it is still intact.
    fn on_record(&self, peer: NodeId, seq: u64, frame: Bytes, ack: &mut Option<Ack>) {
        // The one validation, at the socket edge, so garbage is charged
        // to the connection that sent it.
        let Ok(parsed) = ClusterFrame::parse(&frame) else {
            self.plane.metrics.decode_errors.inc();
            return;
        };
        let kind = parsed.kind();
        if kind == FrameKind::Ack {
            if let Some(link) = self.link(peer) {
                let next_expected = parsed.generation();
                link.push(LinkOp::Ack(Ack { next_expected }));
            }
            return;
        }
        // Only gossip may travel unsequenced: an event would skip the
        // per-peer dedup, and a flush (or its answer) could overtake what
        // it flushes. A flush is one only on the link it names.
        let gossip = matches!(kind, FrameKind::GossipDigest | FrameKind::GossipEntries);
        let stray_flush = matches!(kind, FrameKind::Flush | FrameKind::FlushAck)
            && (parsed.origin() != peer
                || parsed.dest() != self.plane.me
                || self.link(peer).is_none());
        if (seq == 0 && !gossip) || stray_flush {
            self.plane.metrics.decode_errors.inc();
            return;
        }
        if seq == 0 {
            self.plane.heard(peer);
            self.plane.on_frame(&frame, &parsed);
            return;
        }
        // Held across the hand-off so an old and a new connection of
        // the same peer cannot reorder their releases.
        let mut receivers = self.receivers.lock();
        let receiver = receivers.entry(peer).or_default();
        let duplicates = receiver.duplicates();
        let owed = receiver.on_frame_with(
            ReliableFrame {
                seq: seq - 1,
                event: frame,
            },
            |frame| self.release(peer, &frame),
        );
        if receiver.duplicates() > duplicates {
            self.plane.metrics.duplicate_frames.inc();
        }
        *ack = Some(owed);
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
                    link.push(LinkOp::Send(LinkFrame::Encoded(answer.freeze())));
                }
            }
            FrameKind::FlushAck => {
                if let Some(link) = self.link(peer) {
                    link.push(LinkOp::FlushAck(token));
                }
            }
            _ => {
                self.plane.heard(peer);
                self.plane.on_frame(frame, &parsed);
            }
        }
    }
}

/// A record length no record can have: the stream cannot be resynced.
struct BadLength;

/// A socket reader's buffer: `bytes[start..end]` is read and not yet
/// handed on. Each read is copied once, into `read`, when its first whole
/// record is handed on, and every record of that read is a slice of the
/// copy; a read that completes no record (part of a long one) is not
/// copied, so a long record costs one copy however many reads it takes.
struct RecordBuf {
    bytes: Vec<u8>,
    start: usize,
    end: usize,
    /// The shared copy of `bytes[..end]`, once a record of the latest
    /// read has been handed on.
    read: Option<Bytes>,
}

impl RecordBuf {
    fn new() -> Self {
        Self {
            bytes: vec![0u8; IO_BATCH],
            start: 0,
            end: 0,
            read: None,
        }
    }

    /// The `len` field of the record at `start`, once its header is in.
    fn front_len(&self) -> Option<usize> {
        let unread = self.bytes.get(self.start..self.end)?;
        let header = unread.get(..RECORD_HEADER)?;
        Some(u32::from_be_bytes([header[0], header[1], header[2], header[3]]) as usize)
    }

    /// The next whole record as `(seq, frame)`, or `None` if it has not
    /// all been read yet.
    fn next_record(&mut self) -> Result<Option<(u64, Bytes)>, BadLength> {
        let Some(total) = self.front_len() else {
            return Ok(None);
        };
        if !(8..=MAX_TCP_FRAME).contains(&total) {
            return Err(BadLength);
        }
        let (body, next) = (self.start + RECORD_HEADER, self.start + 4 + total);
        if next > self.end {
            return Ok(None);
        }
        let seq = read_u64(&self.bytes, self.start + 4);
        let (bytes, end) = (&self.bytes, self.end);
        let read = self
            .read
            .get_or_insert_with(|| Bytes::copy_from_slice(bytes.get(..end).unwrap_or_default()));
        self.start = next;
        Ok(Some((seq, read.slice(body..next))))
    }

    /// Moves the unread bytes to the front, sizes the buffer for the
    /// record they begin — `IO_BATCH`, or that record's length if it is
    /// longer, so a long record's memory is given back once it has been
    /// handed on — and reads more behind them.
    fn fill(&mut self, stream: &mut impl Read) -> io::Result<()> {
        if self.start > 0 {
            self.bytes.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        let need = (self.front_len())
            .filter(|&total| total <= MAX_TCP_FRAME)
            .map_or(IO_BATCH, |total| (4 + total).max(IO_BATCH));
        if self.bytes.len() != need {
            self.bytes.resize(need, 0);
            self.bytes.shrink_to_fit();
        }
        self.read = None;
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
    let mut preamble = [0u8; PREAMBLE];
    if stream.read_exact(&mut preamble).is_err() {
        return;
    }
    let peer = NodeId::from_be_bytes([preamble[0], preamble[1]]);
    ctx.on_connect(peer, read_u64(&preamble, 2));
    let mut buf = RecordBuf::new();
    loop {
        let mut ack = None;
        loop {
            match buf.next_record() {
                Ok(Some((seq, frame))) => ctx.on_record(peer, seq, frame, &mut ack),
                Ok(None) => break,
                Err(BadLength) => {
                    ctx.plane.metrics.decode_errors.inc();
                    return;
                }
            }
        }
        if let (Some(Ack { next_expected }), Some(link)) = (ack, ctx.link(peer)) {
            let ack = encode_frame(FrameKind::Ack, ctx.plane.me, peer, 0, next_expected, &[]);
            link.push(LinkOp::Send(LinkFrame::Encoded(ack.freeze())));
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
                let ops: TcpLink = Arc::new(Handoff::unbounded());
                let (addr, metrics) = (addrs[peer], Arc::clone(&plane.metrics));
                let queue = Arc::clone(&ops);
                let thread = std::thread::Builder::new()
                    .name(format!("mmcs-link{me}"))
                    .spawn(move || run_link(me as NodeId, peer as NodeId, addr, &queue, &metrics))
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
                        Some(Box::new(move |frame| ops.push(LinkOp::Send(frame))) as Link)
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

    /// Sheds the window of `node`'s link to `peer` (see [`LinkOp::Shed`]).
    pub(super) fn shed_link(&self, node: NodeId, peer: NodeId) {
        let link = self.nodes.get(node as usize).and_then(|n| n.ctx.link(peer));
        if let Some(link) = link {
            link.push(LinkOp::Shed);
        }
    }

    /// Flushes every directed link (see the module docs) and waits for
    /// the answers, on one latch as a shard barrier does. A node that is
    /// not listening cannot hear one, so its outbound links count as not
    /// connected; a link the fault plane has severed carries nothing, so
    /// it is not flushed either.
    pub(super) fn flush_links(&self) {
        let latch = Latch::new();
        for node in self.nodes.iter().filter(|node| node.accept.is_some()) {
            for (peer, link) in node.ctx.links.iter().enumerate() {
                if node.ctx.plane.link_down(peer as NodeId) {
                    continue;
                }
                if let Some(link) = link {
                    link.push(LinkOp::Flush(latch.ack()));
                }
            }
        }
        // Settles when the last link has dropped its ack.
        latch.wait_settled();
    }
}

impl Drop for TcpFabric {
    fn drop(&mut self) {
        for node in &mut self.nodes {
            node.stop();
        }
        // Closed explicitly: data planes and readers hold clones of a link's
        // queue, so nothing else ends its thread.
        for link in self
            .nodes
            .iter()
            .flat_map(|node| node.ctx.links.iter().flatten())
        {
            link.close(LinkOp::Close);
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

    fn event(n: u64) -> Arc<Event> {
        Event::new(
            Topic::parse("link/test").expect("topic"),
            ClientId::from_raw(1),
            n,
            EventClass::Data,
            Bytes::from_static(b"payload"),
        )
        .into_shared()
    }

    /// A link queue and the link thread's handle on it.
    fn queue() -> (TcpLink, TcpLink) {
        let link: TcpLink = Arc::new(Handoff::unbounded());
        (Arc::clone(&link), link)
    }

    fn event_frame(n: u64) -> LinkFrame {
        LinkFrame::Encoded(encode_event_frame(7, 9, 0, 0, &event(n)).freeze())
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
        let (link, ops) = queue();
        let metrics = ClusterNodeMetrics::detached();
        let thread = std::thread::spawn(move || run_link(7, 9, addr, &ops, &metrics));
        let send = |frame| link.push(LinkOp::Send(frame));
        send(event_frame(0)); // peer down: lost, stays in flight
        std::thread::sleep(Duration::from_millis(30)); // let the backoff lapse
        let listener = TcpListener::bind(addr).expect("bind the reserved port");
        send(event_frame(1)); // this send connects

        let (mut stream, _) = listener.accept().expect("link connects");
        let mut preamble = [0u8; PREAMBLE];
        stream.read_exact(&mut preamble).expect("preamble");
        assert_eq!(preamble[..2], 7u16.to_be_bytes());
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
        link.close(LinkOp::Close);
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

    /// The test plays a silent peer of one link sender, which is offered
    /// a local publish's event. The record it writes, and the one it
    /// rewrites once the RTO lapses, are both the frame
    /// `encode_event_frame` builds: the link encodes with the one encoder,
    /// on every transmission.
    #[test]
    fn a_retransmitted_event_record_matches_the_first_byte_for_byte() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let (link, ops) = queue();
        let metrics = ClusterNodeMetrics::detached();
        let thread = std::thread::spawn(move || run_link(7, 9, addr, &ops, &metrics));
        let event = event(3);
        let frame = LinkFrame::Event {
            origin: 7,
            dest: 9,
            generation: 5,
            event: Arc::clone(&event),
        };
        link.push(LinkOp::Send(frame));

        let (mut stream, _) = listener.accept().expect("link connects");
        let mut preamble = [0u8; PREAMBLE];
        stream.read_exact(&mut preamble).expect("preamble");
        let first = read_record(&mut stream);
        let again = read_record(&mut stream);
        link.close(LinkOp::Close);
        thread.join().expect("link thread exits on close");

        assert_eq!(first, again, "the retransmit is the same record");
        assert_eq!(first.0, 1, "an event record is sequenced");
        assert_eq!(first.1, encode_event_frame(7, 9, 0, 5, &event).to_vec());
    }

    /// A reader that hands out `data` in pieces: `cuts` are the offsets
    /// at which one read ends, and a read never crosses one.
    struct ShortReads {
        data: Vec<u8>,
        at: usize,
        cuts: Vec<usize>,
    }

    impl Read for ShortReads {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let stop = (self.cuts.iter().copied())
                .find(|&cut| cut > self.at)
                .unwrap_or(self.data.len());
            let n = (stop - self.at).min(out.len());
            out[..n].copy_from_slice(&self.data[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    /// One record of `body_len` bytes as it goes on the wire.
    fn record(seq: u64, body_len: usize) -> (Vec<u8>, Vec<u8>) {
        let body: Vec<u8> = (0..body_len).map(|i| (i * 7 + seq as usize) as u8).collect();
        let mut wire = ((body.len() + 8) as u32).to_be_bytes().to_vec();
        wire.extend_from_slice(&seq.to_be_bytes());
        wire.extend_from_slice(&body);
        (wire, body)
    }

    /// Reads `input` to its end; returns every record handed out.
    fn read_all(buf: &mut RecordBuf, input: &mut ShortReads) -> Vec<(u64, Bytes)> {
        let mut out = Vec::new();
        while buf.fill(input).is_ok() {
            while let Ok(Some(record)) = buf.next_record() {
                out.push(record);
            }
        }
        out
    }

    #[test]
    fn a_record_split_anywhere_in_its_header_or_body_comes_out_whole() {
        let (first, body) = record(1, 40);
        let (second, next_body) = record(2, 3);
        let stream = [first.clone(), second].concat();
        for cut in 1..first.len() {
            let mut input = ShortReads {
                data: stream.clone(),
                at: 0,
                cuts: vec![cut],
            };
            let got = read_all(&mut RecordBuf::new(), &mut input);
            assert_eq!(got.len(), 2, "cut at {cut}");
            assert_eq!((got[0].0, &got[0].1[..]), (1, &body[..]), "cut at {cut}");
            assert_eq!((got[1].0, &got[1].1[..]), (2, &next_body[..]), "cut at {cut}");
        }
    }

    #[test]
    fn a_record_longer_than_a_read_buffer_comes_out_whole_and_gives_its_memory_back() {
        let (long, body) = record(1, 3 * IO_BATCH + 5);
        let (short, short_body) = record(2, 10);
        let mut input = ShortReads {
            cuts: (1..long.len() / 1000).map(|k| k * 1000).collect(),
            data: [long, short].concat(),
            at: 0,
        };
        let mut buf = RecordBuf::new();
        let got = read_all(&mut buf, &mut input);
        assert_eq!(got.len(), 2);
        assert_eq!((got[0].0, &got[0].1[..]), (1, &body[..]));
        assert_eq!((got[1].0, &got[1].1[..]), (2, &short_body[..]));
        assert_eq!(buf.bytes.len(), IO_BATCH);
        assert_eq!(buf.bytes.capacity(), IO_BATCH, "the long record's memory is freed");
    }

    #[test]
    fn records_of_one_read_share_its_copy_and_an_unread_tail_is_never_handed_out() {
        let (first, _) = record(1, 20);
        let (second, _) = record(2, 30);
        let (third, _) = record(3, 50);
        let mut input = ShortReads {
            data: [first.clone(), second, third[..30].to_vec()].concat(),
            at: 0,
            cuts: Vec::new(),
        };
        let mut buf = RecordBuf::new();
        assert!(buf.fill(&mut input).is_ok());
        let (_, a) = buf.next_record().ok().flatten().expect("first record");
        let (_, b) = buf.next_record().ok().flatten().expect("second record");
        let a_end = a.as_ptr() as usize + a.len();
        assert_eq!(a_end + RECORD_HEADER, b.as_ptr() as usize, "one allocation");
        assert!(buf.next_record().ok().flatten().is_none(), "the tail is held back");
        assert!(buf.fill(&mut input).is_err(), "the stream ends mid-record");
        assert!(buf.next_record().ok().flatten().is_none());
        // Down to a header's worth, and then less.
        for cut in [RECORD_HEADER, RECORD_HEADER - 1] {
            let mut input = ShortReads {
                data: [first.clone(), third[..cut].to_vec()].concat(),
                at: 0,
                cuts: Vec::new(),
            };
            let mut buf = RecordBuf::new();
            assert!(buf.fill(&mut input).is_ok());
            assert!(buf.next_record().ok().flatten().is_some());
            assert!(buf.next_record().ok().flatten().is_none(), "{cut} bytes of a header");
        }
    }

    /// A port nothing listens on.
    fn closed_port() -> SocketAddr {
        let reserved = TcpListener::bind("127.0.0.1:0").expect("reserve a port");
        reserved.local_addr().expect("addr")
    }

    #[test]
    fn an_oversize_frame_is_counted_as_a_link_drop() {
        let (link, ops) = queue();
        let metrics = ClusterNodeMetrics::detached();
        let seen = Arc::clone(&metrics);
        let addr = closed_port();
        let thread = std::thread::spawn(move || run_link(7, 9, addr, &ops, &metrics));
        for len in [MAX_TCP_FRAME - 7, MAX_TCP_FRAME - 8] {
            let frame = LinkFrame::Encoded(Bytes::from(vec![0u8; len]));
            link.push(LinkOp::Send(frame));
        }
        link.close(LinkOp::Close);
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
    fn completes(answered: &Latch, wait: Duration) -> bool {
        answered.settled_within(wait)
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
        let (link, ops) = queue();
        let metrics = ClusterNodeMetrics::detached();
        let seen = Arc::clone(&metrics);
        let thread = std::thread::spawn(move || run_link(7, 9, addr, &ops, &metrics));
        let flush = || {
            let answered = Latch::new();
            link.push(LinkOp::Flush(answered.ack()));
            answered
        };

        let first = flush();
        let (mut stream, _) = listener.accept().expect("the flush connects");
        let mut preamble = [0u8; PREAMBLE];
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
        link.push(LinkOp::FlushAck(5));
        let second = flush();
        let (seq, frame) = read_record(&mut stream);
        assert_eq!((seq, read_u64(&frame, OFF_GENERATION)), (2, 1));
        assert_eq!(seen.decode_errors.get(), 1, "the stray answer is counted");
        let (now, soon) = (Duration::ZERO, Duration::from_secs(5));
        assert!(!completes(&first, now) && !completes(&second, now));

        link.push(LinkOp::FlushAck(0));
        assert!(completes(&first, soon), "its own answer completes it");
        assert!(!completes(&second, now), "and nothing else");

        drop(stream);
        drop(listener);
        let third = flush();
        assert!(completes(&third, soon), "peer gone: completes at once");
        assert!(completes(&second, soon), "and so does the pending one");

        link.close(LinkOp::Close);
        thread.join().expect("link thread exits on close");
        assert_eq!(seen.decode_errors.get(), 1);
    }
}
