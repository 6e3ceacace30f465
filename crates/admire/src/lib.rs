//! A simulated Admire community.
//!
//! Admire is the Chinese partner system the paper integrates: a
//! videoconferencing environment from Beihang's NSDE lab, "deployed in
//! over 20 sites in NSFCNET, CERNET China", with its own conference
//! management — and, for Global-MMCS, a web-services facade. The paper
//! specifies the integration contract precisely (§3.2): "XGSP Web
//! Server invokes the web-services of Admire to notify the address of
//! the rendezvous point. And Admire responds with its rendezvous point
//! in SOAP reply. After that, both sides will create RTP agents on this
//! rendezvous."
//!
//! The real Admire is closed source; per `DESIGN.md` §2 this crate
//! builds an independent conference server with the same observable
//! surface:
//!
//! * [`conference`] — Admire's own conference management (sites,
//!   conferences, member state) in its native message style.
//! * [`service`] — the SOAP/WSDL-CI facade: implements
//!   [`mmcs_xgsp::wsdl_ci::CollaborationServer`] and answers the
//!   `rendezvous` control operation with the address of Admire's side.
//!   Global-MMCS's side of the rendezvous, the RTP agent on its broker,
//!   lives in `global-mmcs`.

pub mod conference;
pub mod service;

pub use service::AdmireService;
