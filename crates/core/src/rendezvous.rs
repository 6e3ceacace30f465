//! The rendezvous agent: Global-MMCS's side of a community bridge.
//!
//! "XGSP Web Server invokes the web-services of Admire to notify the
//! address of the rendezvous point. And Admire responds with its
//! rendezvous point in SOAP reply. After that, both sides will create
//! RTP agents on this rendezvous" (§3.2). The door runs that exchange
//! with every bridged community when a session is created (see
//! [`GlobalMmcs::bridge`](crate::GlobalMmcs::bridge)) and stands up one
//! [`RendezvousAgent`] per community that answers. The agent is the
//! paper's RTP proxy ("any RTP client … can publish its RTP messages
//! through RTP Proxies in the NaradaBrokering system"): a raw-RTP client
//! of the system's broker, subscribed to every topic of its session.
//!
//! * Inbound, each datagram from the community is checked with
//!   [`WireRtp::parse`] before it enters the broker, so a malformed
//!   frame never fans out, and is published as [`EventClass::Rtp`] on
//!   the session topic of its media kind: an 8 kHz payload type is
//!   audio, any other is video.
//! * Outbound, the agent drains its own handle and hands back the raw
//!   RTP every other source published on the session, skipping what it
//!   published itself (no hairpin).

use bytes::Bytes;
use mmcs_broker::event::EventClass;
use mmcs_broker::sharded::{ShardedBroker, ShardedClient};
use mmcs_broker::topic::{Topic, TopicFilter};
use mmcs_rtp::packet::{payload_type, DecodeRtpError, WireRtp};
use mmcs_util::id::SessionId;

/// One community's RTP agent for one session. See the [module docs](self).
#[derive(Debug)]
pub struct RendezvousAgent {
    remote: String,
    audio: Topic,
    video: Topic,
    client: ShardedClient,
}

impl RendezvousAgent {
    /// Attaches the agent for `session` to `broker`; `remote` is the
    /// rendezvous address the community answered with.
    pub(crate) fn new(broker: &ShardedBroker, session: SessionId, remote: String) -> Self {
        let prefix = format!("globalmmcs/session-{}", session.value());
        let parse = |kind: &str| Topic::parse(&format!("{prefix}/{kind}")).expect("session topic");
        let client = broker.attach();
        client.subscribe(TopicFilter::parse(&format!("{prefix}/#")).expect("session filter"));
        Self {
            remote,
            audio: parse("audio"),
            video: parse("video"),
            client,
        }
    }

    /// The rendezvous address the community answered with.
    pub fn remote(&self) -> &str {
        &self.remote
    }

    /// Publishes one datagram the community sent to the rendezvous.
    ///
    /// # Errors
    ///
    /// The [`DecodeRtpError`] of a datagram that is not RTP; nothing is
    /// published.
    pub fn inbound(&self, datagram: Bytes) -> Result<(), DecodeRtpError> {
        let rtp = WireRtp::parse(&datagram)?;
        let topic = match payload_type::clock_rate(rtp.payload_type()) {
            8_000 => &self.audio,
            _ => &self.video,
        };
        self.client.publish_class(topic.clone(), EventClass::Rtp, datagram);
        Ok(())
    }

    /// Appends to `out` the raw RTP delivered to the agent since the last
    /// call, in delivery order, except what the agent published itself.
    pub fn outbound(&self, out: &mut Vec<Bytes>) {
        let mut events = Vec::new();
        self.client.drain_into(&mut events);
        let own = self.client.id();
        out.extend(
            events
                .iter()
                .filter(|event| event.source != own && event.class == EventClass::Rtp)
                .map(|event| event.payload.clone()),
        );
    }
}
