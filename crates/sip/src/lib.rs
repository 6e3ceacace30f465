//! SIP (RFC 3261 subset) and SDP for Global-MMCS.
//!
//! The SIP servers in the paper — a proxy, a registrar and a gateway
//! translating SIP signaling into XGSP — give SIP endpoints (and
//! Windows-Messenger-class IM clients, via `MESSAGE` and
//! `SUBSCRIBE`/`NOTIFY`) access to Global-MMCS conferences. This crate
//! implements:
//!
//! * [`message`] — the SIP text codec: requests, responses, the headers
//!   the system needs (Via/From/To/Call-ID/CSeq/Contact/Expires/…).
//! * [`sdp`] — a small SDP codec for offer/answer bodies.
//! * [`registrar`] — location service binding AoRs to contacts with
//!   expiry.
//! * [`proxy`] — a stateless forwarding proxy using the registrar.
//! * [`gateway`] — SIP ⇄ XGSP translation: INVITE joins a session, BYE
//!   leaves, MESSAGE becomes session chat/app-data.
//! * [`presence`] — SUBSCRIBE/NOTIFY presence for the IM service.

pub mod gateway;
pub mod message;
pub mod presence;
pub mod proxy;
pub mod registrar;
pub mod sdp;

pub use message::{SipMessage, SipMethod};
