//! The Admire web-services facade.
//!
//! [`AdmireService`] implements the WSDL-CI
//! [`CollaborationServer`] contract around the native
//! [`AdmireServer`] type, and exposes the
//! `rendezvous` control operation the paper describes: Global-MMCS
//! proposes a rendezvous address, Admire answers with its own, and both
//! sides stand up RTP agents there. The service keeps the address it
//! answered per session. A [`AdmireService::soap_server`] binding
//! publishes the same operations over SOAP for the XGSP web server.

use std::collections::HashMap;

use mmcs_soap::envelope::SoapFault;
use mmcs_soap::service::SoapServer;
use mmcs_util::id::{SessionId, TerminalId};
use mmcs_xgsp::wsdl_ci::{CiError, CollaborationServer, OperationDescriptor, ServiceDescriptor};

use crate::conference::AdmireServer;

/// The Admire community service. See the [module docs](self).
#[derive(Debug)]
pub struct AdmireService {
    community: String,
    endpoint: String,
    server: AdmireServer,
    /// XGSP session -> Admire conference name.
    sessions: HashMap<SessionId, String>,
    /// XGSP session -> the rendezvous address Admire answered with.
    rendezvous: HashMap<SessionId, String>,
    /// Base address Admire allocates rendezvous ports from.
    rendezvous_host: String,
    next_port: u16,
}

impl AdmireService {
    /// Creates the service for a community (e.g. `admire.cn`).
    pub fn new(community: impl Into<String>, rendezvous_host: impl Into<String>) -> Self {
        let community = community.into();
        Self {
            endpoint: format!("http://{community}/soap"),
            community,
            server: AdmireServer::new(),
            sessions: HashMap::new(),
            rendezvous: HashMap::new(),
            rendezvous_host: rendezvous_host.into(),
            next_port: 9000,
        }
    }

    /// The native Admire server (for site-level assertions in tests).
    pub fn server(&self) -> &AdmireServer {
        &self.server
    }

    /// Admire's rendezvous address for a mirrored session, once the
    /// rendezvous exchange completed.
    pub fn rendezvous(&self, session: SessionId) -> Option<&str> {
        self.rendezvous.get(&session).map(String::as_str)
    }

    fn conference_name(session: SessionId) -> String {
        format!("xgsp-session-{}", session.value())
    }

    /// Builds a SOAP server exposing this service's operations. The
    /// service value is consumed and owned by the handlers (mirroring
    /// how Axis instantiated one service object per deployment).
    pub fn soap_server(self) -> SoapServer {
        let service = std::rc::Rc::new(std::cell::RefCell::new(self));
        let mut soap = SoapServer::new();

        let part = |parts: &[(String, String)], name: &str| -> Result<String, SoapFault> {
            parts
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v.clone())
                .ok_or_else(|| SoapFault {
                    code: "Client".into(),
                    reason: format!("missing part {name:?}"),
                })
        };
        let session_part = move |parts: &[(String, String)]| -> Result<SessionId, SoapFault> {
            let raw = part(parts, "sessionId")?;
            raw.parse::<u64>()
                .map(SessionId::from_raw)
                .map_err(|_| SoapFault {
                    code: "Client".into(),
                    reason: format!("bad sessionId {raw:?}"),
                })
        };
        let ci_fault = |err: CiError| SoapFault {
            code: "Server".into(),
            reason: err.to_string(),
        };

        {
            let service = service.clone();
            soap.register("establishSession", move |parts| {
                let session = session_part(parts)?;
                let name = part(parts, "name")?;
                service
                    .borrow_mut()
                    .establish_session(session, &name)
                    .map_err(ci_fault)?;
                Ok(vec![("status".into(), "ok".into())])
            });
        }
        {
            let service = service.clone();
            soap.register("addMember", move |parts| {
                let session = session_part(parts)?;
                let user = part(parts, "user")?;
                let terminal: u64 = part(parts, "terminal")?.parse().unwrap_or(0);
                service
                    .borrow_mut()
                    .add_member(session, &user, TerminalId::from_raw(terminal))
                    .map_err(ci_fault)?;
                Ok(vec![("status".into(), "ok".into())])
            });
        }
        {
            let service = service.clone();
            soap.register("removeMember", move |parts| {
                let session = session_part(parts)?;
                let user = part(parts, "user")?;
                service
                    .borrow_mut()
                    .remove_member(session, &user)
                    .map_err(ci_fault)?;
                Ok(vec![("status".into(), "ok".into())])
            });
        }
        {
            let service = service.clone();
            soap.register("control", move |parts| {
                let session = session_part(parts)?;
                let operation = part(parts, "operation")?;
                let args: Vec<(String, String)> = parts
                    .iter()
                    .filter(|(n, _)| n != "sessionId" && n != "operation")
                    .cloned()
                    .collect();
                service
                    .borrow_mut()
                    .control(session, &operation, &args)
                    .map_err(ci_fault)
            });
        }
        {
            let service = service.clone();
            soap.register("teardownSession", move |parts| {
                let session = session_part(parts)?;
                service
                    .borrow_mut()
                    .teardown_session(session)
                    .map_err(ci_fault)?;
                Ok(vec![("status".into(), "ok".into())])
            });
        }
        soap
    }
}

impl CollaborationServer for AdmireService {
    fn descriptor(&self) -> ServiceDescriptor {
        ServiceDescriptor {
            service: "AdmireConferenceService".into(),
            community: self.community.clone(),
            endpoint: self.endpoint.clone(),
            operations: vec![OperationDescriptor {
                name: "rendezvous".into(),
                inputs: vec!["sessionId".into(), "proposedAddress".into()],
                outputs: vec!["admireAddress".into()],
            }],
        }
    }

    fn establish_session(&mut self, session: SessionId, name: &str) -> Result<(), CiError> {
        let conference = Self::conference_name(session);
        self.server.create_conference(&conference, name);
        self.sessions.insert(session, conference);
        Ok(())
    }

    fn add_member(
        &mut self,
        session: SessionId,
        user: &str,
        _terminal: TerminalId,
    ) -> Result<(), CiError> {
        let conference = self
            .sessions
            .get(&session)
            .ok_or(CiError::UnknownSession(session))?;
        self.server
            .join(conference, "globalmmcs", user)
            .map_err(|e| CiError::Refused(e.to_string()))
    }

    fn remove_member(&mut self, session: SessionId, user: &str) -> Result<(), CiError> {
        let conference = self
            .sessions
            .get(&session)
            .ok_or(CiError::UnknownSession(session))?;
        self.server
            .leave(conference, user)
            .map_err(|_| CiError::UnknownMember(user.to_owned()))
    }

    fn control(
        &mut self,
        session: SessionId,
        operation: &str,
        args: &[(String, String)],
    ) -> Result<Vec<(String, String)>, CiError> {
        if !self.sessions.contains_key(&session) {
            return Err(CiError::UnknownSession(session));
        }
        match operation {
            // The paper's integration flow: Global-MMCS proposes a
            // rendezvous, Admire answers with its own, and both sides
            // create RTP agents there.
            "rendezvous" => {
                let address = format!("{}:{}", self.rendezvous_host, self.next_port);
                self.next_port += 2; // RTP + RTCP port pair
                self.rendezvous.insert(session, address.clone());
                Ok(vec![("admireAddress".into(), address)])
            }
            "archive" => {
                let on = args
                    .iter()
                    .any(|(n, v)| n == "enabled" && v == "true");
                let conference = &self.sessions[&session];
                self.server
                    .set_archiving(conference, on)
                    .map_err(|e| CiError::Refused(e.to_string()))?;
                Ok(vec![("status".into(), "ok".into())])
            }
            other => Err(CiError::UnsupportedOperation(other.to_owned())),
        }
    }

    fn teardown_session(&mut self, session: SessionId) -> Result<(), CiError> {
        let conference = self
            .sessions
            .remove(&session)
            .ok_or(CiError::UnknownSession(session))?;
        self.server.end_conference(&conference);
        self.rendezvous.remove(&session);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmcs_soap::service::SoapClient;

    fn session() -> SessionId {
        SessionId::from_raw(7)
    }

    #[test]
    fn wsdl_ci_lifecycle_with_rendezvous() {
        let mut service = AdmireService::new("admire.cn", "rdv.admire.cn");
        service.establish_session(session(), "joint seminar").unwrap();
        service
            .add_member(session(), "alice", TerminalId::from_raw(1))
            .unwrap();
        assert_eq!(
            service
                .server()
                .conference("xgsp-session-7")
                .unwrap()
                .member_count(),
            1
        );

        let result = service
            .control(
                session(),
                "rendezvous",
                &[("proposedAddress".into(), "rdv.mmcs:8000".into())],
            )
            .unwrap();
        assert_eq!(result[0].0, "admireAddress");
        assert!(result[0].1.starts_with("rdv.admire.cn:"));
        assert_eq!(service.rendezvous(session()), Some(result[0].1.as_str()));

        service.remove_member(session(), "alice").unwrap();
        service.teardown_session(session()).unwrap();
        assert!(service.rendezvous(session()).is_none());
        assert_eq!(service.server().conference_count(), 0);
    }

    #[test]
    fn consecutive_rendezvous_allocate_distinct_ports() {
        let mut service = AdmireService::new("admire.cn", "rdv");
        service.establish_session(SessionId::from_raw(1), "a").unwrap();
        service.establish_session(SessionId::from_raw(2), "b").unwrap();
        let a = service
            .control(SessionId::from_raw(1), "rendezvous", &[])
            .unwrap()[0]
            .1
            .clone();
        let b = service
            .control(SessionId::from_raw(2), "rendezvous", &[])
            .unwrap()[0]
            .1
            .clone();
        assert_ne!(a, b);
    }

    #[test]
    fn unknown_sessions_and_operations_error() {
        let mut service = AdmireService::new("admire.cn", "rdv");
        assert_eq!(
            service.add_member(session(), "x", TerminalId::from_raw(1)),
            Err(CiError::UnknownSession(session()))
        );
        assert_eq!(
            service.teardown_session(session()),
            Err(CiError::UnknownSession(session()))
        );
        service.establish_session(session(), "s").unwrap();
        assert_eq!(
            service.control(session(), "levitate", &[]),
            Err(CiError::UnsupportedOperation("levitate".into()))
        );
    }

    #[test]
    fn archive_control_toggles_native_flag() {
        let mut service = AdmireService::new("admire.cn", "rdv");
        service.establish_session(session(), "s").unwrap();
        service
            .control(session(), "archive", &[("enabled".into(), "true".into())])
            .unwrap();
        assert!(service.server().conference("xgsp-session-7").unwrap().archiving);
    }

    #[test]
    fn descriptor_includes_rendezvous_operation() {
        let service = AdmireService::new("admire.cn", "rdv");
        let descriptor = service.descriptor();
        assert_eq!(descriptor.service, "AdmireConferenceService");
        assert!(descriptor.operations.iter().any(|o| o.name == "rendezvous"));
        let wsdl = descriptor.to_wsdl();
        assert!(wsdl.to_xml().contains("rendezvous"));
    }

    #[test]
    fn soap_binding_round_trip() {
        let service = AdmireService::new("admire.cn", "rdv.admire.cn");
        let mut soap = service.soap_server();
        // establishSession over SOAP.
        let request = SoapClient::request(
            "establishSession",
            &[("sessionId", "7"), ("name", "joint seminar")],
        );
        let response = soap.handle(&request);
        let parts = SoapClient::decode_response("establishSession", &response).unwrap();
        assert_eq!(parts[0], ("status".into(), "ok".into()));
        // rendezvous over SOAP (the paper's exact exchange).
        let request = SoapClient::request(
            "control",
            &[
                ("sessionId", "7"),
                ("operation", "rendezvous"),
                ("proposedAddress", "rdv.mmcs:8000"),
            ],
        );
        let response = soap.handle(&request);
        let parts = SoapClient::decode_response("control", &response).unwrap();
        assert_eq!(parts[0].0, "admireAddress");
        assert!(parts[0].1.starts_with("rdv.admire.cn:"));
        // Errors fault.
        let request = SoapClient::request("addMember", &[("sessionId", "99"), ("user", "x"), ("terminal", "1")]);
        let response = soap.handle(&request);
        assert!(SoapClient::decode_response("addMember", &response).is_err());
    }
}
