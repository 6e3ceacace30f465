//! The Helix-style streaming server.
//!
//! Holds named streams fed by [`RealProducer`](crate::producer::RealProducer)
//! instances, serves RTSP control
//! (per-client session state machines) and fans chunks out to playing
//! clients. Chunk delivery is pull-shaped (`take_deliveries`) so any
//! driver — tests, the simulator, the threaded runtime — can move the
//! bytes.

use std::collections::HashMap;
use std::sync::Arc;

use crate::producer::RealChunk;
use crate::rtsp::{RtspMethod, RtspRequest, RtspResponse, RtspSessionState, SessionState};

/// A pending chunk delivery to a client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// The RTSP session id of the receiving client.
    pub session_id: String,
    /// The chunk.
    pub chunk: RealChunk,
}

#[derive(Debug, Default)]
struct Stream {
    /// Ring of recent chunks (description/recovery).
    recent: Vec<RealChunk>,
    fed: u64,
}

#[derive(Debug)]
struct ClientSession {
    state: RtspSessionState,
    /// Interned stream name, shared with the `streams` map key.
    stream: Option<Arc<str>>,
}

/// The streaming server. See the [module docs](self).
#[derive(Debug, Default)]
pub struct HelixServer {
    /// Keyed by interned name: feeding a chunk re-uses the chunk's own
    /// `Arc<str>` instead of cloning a `String` per chunk.
    streams: HashMap<Arc<str>, Stream>,
    clients: HashMap<String, ClientSession>,
    deliveries: Vec<Delivery>,
    next_session: u64,
    /// Recent-chunk retention per stream.
    retain: usize,
}

impl HelixServer {
    /// Creates a server retaining the last 64 chunks per stream.
    pub fn new() -> Self {
        Self {
            retain: 64,
            ..Self::default()
        }
    }

    /// Declares a stream (producers may also feed undeclared streams,
    /// which auto-create).
    pub fn add_stream(&mut self, name: impl Into<Arc<str>>) {
        self.streams.entry(name.into()).or_default();
    }

    /// Drops a stream and the chunks it retains; returns whether it
    /// existed. A client session set up on it stays until it is torn
    /// down, but a PLAY on it is answered 404, as for a stream that never
    /// existed. A later chunk for the name starts a new stream.
    pub fn remove_stream(&mut self, name: &str) -> bool {
        self.streams.remove(name).is_some()
    }

    /// Names of live streams, sorted.
    pub fn stream_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.streams.keys().map(|k| &**k).collect();
        names.sort_unstable();
        names
    }

    /// Feeds one chunk from a producer; playing clients get deliveries.
    pub fn feed(&mut self, chunk: RealChunk) {
        let stream = self.streams.entry(Arc::clone(&chunk.stream)).or_default();
        stream.fed += 1;
        stream.recent.push(chunk.clone());
        let retain = self.retain;
        if stream.recent.len() > retain {
            let excess = stream.recent.len() - retain;
            stream.recent.drain(..excess);
        }
        for (session_id, client) in &self.clients {
            if client.state.state() == SessionState::Playing
                && client.stream.as_deref() == Some(&*chunk.stream)
            {
                self.deliveries.push(Delivery {
                    session_id: session_id.clone(),
                    chunk: chunk.clone(),
                });
            }
        }
    }

    /// Takes all pending deliveries.
    pub fn take_deliveries(&mut self) -> Vec<Delivery> {
        std::mem::take(&mut self.deliveries)
    }

    /// Total chunks fed to a stream.
    pub fn fed_count(&self, stream: &str) -> u64 {
        self.streams.get(stream).map_or(0, |s| s.fed)
    }

    /// Number of live client sessions.
    pub fn client_count(&self) -> usize {
        self.clients.len()
    }

    /// Handles one RTSP request.
    pub fn handle_rtsp(&mut self, request: &RtspRequest) -> RtspResponse {
        match request.method {
            RtspMethod::Options => RtspResponse::to_request(request, 200, "OK")
                .with_header("Public", "OPTIONS, DESCRIBE, SETUP, PLAY, PAUSE, TEARDOWN"),
            RtspMethod::Describe => {
                let Some(stream) = self.stream_of_url(&request.url) else {
                    return RtspResponse::to_request(request, 404, "Stream Not Found");
                };
                let sdp = format!(
                    "v=0\r\no=helix 1 1 IN IP4 helix.mmcs\r\ns={stream}\r\nm=application 0 REAL 0\r\n"
                );
                RtspResponse::to_request(request, 200, "OK").with_body("application/sdp", sdp)
            }
            RtspMethod::Setup => {
                // Intern against the map key so the session shares the
                // stream's existing name allocation.
                let Some(stream) = self
                    .stream_of_url(&request.url)
                    .and_then(|s| self.streams.get_key_value(s))
                    .map(|(key, _)| Arc::clone(key))
                else {
                    return RtspResponse::to_request(request, 404, "Stream Not Found");
                };
                self.next_session += 1;
                let session_id = format!("helix-{}", self.next_session);
                let mut state = RtspSessionState::new();
                state.apply(RtspMethod::Setup).expect("Init allows SETUP");
                self.clients.insert(
                    session_id.clone(),
                    ClientSession {
                        state,
                        stream: Some(stream),
                    },
                );
                RtspResponse::to_request(request, 200, "OK")
                    .with_header("Session", session_id)
                    .with_header("Transport", "REAL/TCP;interleaved")
            }
            RtspMethod::Play | RtspMethod::Pause | RtspMethod::Teardown => {
                let Some(session_id) = request.header("Session").map(str::to_owned) else {
                    return RtspResponse::to_request(request, 454, "Session Not Found");
                };
                let Some(client) = self.clients.get_mut(&session_id) else {
                    return RtspResponse::to_request(request, 454, "Session Not Found");
                };
                let live = (client.stream.as_deref())
                    .is_some_and(|name| self.streams.contains_key(name));
                if request.method == RtspMethod::Play && !live {
                    return RtspResponse::to_request(request, 404, "Stream Not Found");
                }
                match client.state.apply(request.method) {
                    Ok(()) => {
                        if request.method == RtspMethod::Teardown {
                            self.clients.remove(&session_id);
                        }
                        RtspResponse::to_request(request, 200, "OK")
                            .with_header("Session", session_id)
                    }
                    Err(code) => RtspResponse::to_request(
                        request,
                        code,
                        "Method Not Valid in This State",
                    ),
                }
            }
        }
    }

    /// Extracts the stream path from `rtsp://host/<stream...>`, requiring
    /// the stream to exist.
    fn stream_of_url<'a>(&'a self, url: &'a str) -> Option<&'a str> {
        let path = url.strip_prefix("rtsp://")?;
        let (_, stream) = path.split_once('/')?;
        self.streams.get(stream).map(|_| stream)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::producer::ChunkKind;
    use bytes::Bytes;

    fn chunk(stream: &str, seq: u64) -> RealChunk {
        RealChunk {
            stream: stream.into(),
            seq,
            timestamp_ms: seq * 40,
            kind: ChunkKind::Video,
            data: Bytes::from_static(b"REALxxxx"),
        }
    }

    fn setup_playing_client(server: &mut HelixServer, stream: &str) -> String {
        let setup = RtspRequest::new(RtspMethod::Setup, format!("rtsp://helix/{stream}"), 1);
        let response = server.handle_rtsp(&setup);
        assert_eq!(response.code, 200, "{response:?}");
        let session = response.header("Session").unwrap().to_owned();
        let play = RtspRequest::new(RtspMethod::Play, format!("rtsp://helix/{stream}"), 2)
            .with_header("Session", &session);
        assert_eq!(server.handle_rtsp(&play).code, 200);
        session
    }

    #[test]
    fn describe_lists_the_stream() {
        let mut server = HelixServer::new();
        server.add_stream("session-7/video");
        let describe =
            RtspRequest::new(RtspMethod::Describe, "rtsp://helix/session-7/video", 1);
        let response = server.handle_rtsp(&describe);
        assert_eq!(response.code, 200);
        assert!(response.body.contains("s=session-7/video"));
        // Unknown stream 404s.
        let missing = RtspRequest::new(RtspMethod::Describe, "rtsp://helix/nope", 2);
        assert_eq!(server.handle_rtsp(&missing).code, 404);
    }

    #[test]
    fn playing_clients_receive_fed_chunks() {
        let mut server = HelixServer::new();
        server.add_stream("s1");
        server.add_stream("s2");
        let session = setup_playing_client(&mut server, "s1");
        server.feed(chunk("s1", 0));
        server.feed(chunk("s2", 0)); // different stream: not delivered
        server.feed(chunk("s1", 1));
        let deliveries = server.take_deliveries();
        assert_eq!(deliveries.len(), 2);
        assert!(deliveries.iter().all(|d| d.session_id == session));
        assert_eq!(deliveries[1].chunk.seq, 1);
        assert_eq!(server.fed_count("s1"), 2);
    }

    #[test]
    fn paused_clients_receive_nothing() {
        let mut server = HelixServer::new();
        server.add_stream("s1");
        let session = setup_playing_client(&mut server, "s1");
        let pause = RtspRequest::new(RtspMethod::Pause, "rtsp://helix/s1", 3)
            .with_header("Session", &session);
        assert_eq!(server.handle_rtsp(&pause).code, 200);
        server.feed(chunk("s1", 0));
        assert!(server.take_deliveries().is_empty());
    }

    #[test]
    fn teardown_removes_session() {
        let mut server = HelixServer::new();
        server.add_stream("s1");
        let session = setup_playing_client(&mut server, "s1");
        assert_eq!(server.client_count(), 1);
        let teardown = RtspRequest::new(RtspMethod::Teardown, "rtsp://helix/s1", 4)
            .with_header("Session", &session);
        assert_eq!(server.handle_rtsp(&teardown).code, 200);
        assert_eq!(server.client_count(), 0);
        // Further PLAY on the dead session 454s.
        let play = RtspRequest::new(RtspMethod::Play, "rtsp://helix/s1", 5)
            .with_header("Session", &session);
        assert_eq!(server.handle_rtsp(&play).code, 454);
    }

    #[test]
    fn play_without_setup_rejected() {
        let mut server = HelixServer::new();
        server.add_stream("s1");
        let play = RtspRequest::new(RtspMethod::Play, "rtsp://helix/s1", 1);
        assert_eq!(server.handle_rtsp(&play).code, 454); // no session header
    }

    #[test]
    fn a_removed_stream_is_gone_and_its_sessions_cannot_play() {
        let mut server = HelixServer::new();
        server.add_stream("s1");
        server.add_stream("s2");
        let session = setup_playing_client(&mut server, "s1");
        server.feed(chunk("s1", 0));
        assert_eq!(server.take_deliveries().len(), 1);

        assert!(server.remove_stream("s1"));
        assert!(!server.remove_stream("s1"));
        assert_eq!(server.stream_names(), ["s2"]);
        assert_eq!(server.fed_count("s1"), 0);
        let request = |method, cseq| {
            RtspRequest::new(method, "rtsp://helix/s1", cseq).with_header("Session", &session)
        };
        assert_eq!(server.handle_rtsp(&request(RtspMethod::Pause, 3)).code, 200);
        let play = server.handle_rtsp(&request(RtspMethod::Play, 4));
        assert_eq!((play.code, play.reason.as_str()), (404, "Stream Not Found"));
        let describe = RtspRequest::new(RtspMethod::Describe, "rtsp://helix/s1", 5);
        assert_eq!(server.handle_rtsp(&describe).code, 404);
        let setup = RtspRequest::new(RtspMethod::Setup, "rtsp://helix/s1", 6);
        assert_eq!(server.handle_rtsp(&setup).code, 404);
        assert_eq!(server.handle_rtsp(&request(RtspMethod::Teardown, 7)).code, 200);
        assert_eq!(server.client_count(), 0);
    }

    #[test]
    fn retention_is_bounded() {
        let mut server = HelixServer::new();
        server.add_stream("s1");
        for seq in 0..200 {
            server.feed(chunk("s1", seq));
        }
        assert!(server.streams["s1"].recent.len() <= 64);
        assert_eq!(server.fed_count("s1"), 200);
    }
}
