//! Global-MMCS: the Global Multimedia Collaboration System.
//!
//! This crate is the paper's headline artifact: the integration layer
//! that makes one conference span H.323 endpoints, SIP endpoints,
//! IM-born ad-hoc groups, the Admire community and streaming players —
//! all over a NaradaBrokering-style event broker, coordinated by the
//! XGSP session server and described/driven through web services.
//!
//! * [`system`] — [`system::GlobalMmcs`]: owns every server (XGSP
//!   session server, directories, calendar, gatekeeper, gateways, IM,
//!   presence, Helix, archive, the broker) and routes each protocol's
//!   messages through its gateway into the one door of the session
//!   server, which applies every output once and returns the resulting
//!   notifications as egress toward the right endpoints.
//! * [`web`] — the XGSP web server on the same system: the SOAP facade
//!   (`createSession`, `join`, `schedule`, …) and the calendar-driven
//!   opening of scheduled meetings.
//! * [`avs`] — the A/V service: active-speaker selection and video
//!   switching over the session's media streams.
//! * [`rendezvous`] — the RTP agent a bridged community gets at each
//!   session's rendezvous: a raw-RTP broker client that splices the
//!   community's media into the session topics and back. A community is
//!   bridged with [`system::GlobalMmcs::bridge`], and the door mirrors
//!   every session into it.
//! * [`hearme`] — the HearMe audio-only VoIP community service the
//!   paper reports having wrapped in web services.
//! * [`accessgrid`] — the Access Grid community: venues bound to
//!   multicast groups, bridged through multicast relays.
//! * [`quality`] — RTCP-driven conference quality monitoring.
//!
//! # Examples
//!
//! ```
//! use global_mmcs::system::{Egress, GlobalMmcs};
//! use mmcs_xgsp::media::{MediaDescription, MediaKind};
//! use mmcs_xgsp::message::{SessionMode, XgspMessage};
//!
//! let mut mmcs = GlobalMmcs::new();
//! let egress = mmcs.handle_xgsp(
//!     Some("alice"),
//!     XgspMessage::CreateSession {
//!         name: "quickstart".into(),
//!         mode: SessionMode::AdHoc,
//!         media: vec![MediaDescription::new(MediaKind::Audio, "PCMU")],
//!     },
//! );
//! // The requester's reply comes first; the session's audio topic now
//! // feeds a streaming tap.
//! assert!(matches!(&egress[0], Egress::Xgsp(XgspMessage::SessionCreated { .. })));
//! assert_eq!(mmcs.helix().stream_names().len(), 1);
//! ```

pub mod accessgrid;
pub mod avs;
pub mod hearme;
pub mod quality;
pub mod rendezvous;
pub mod system;
pub mod web;

pub use system::GlobalMmcs;
