//! SOAP service dispatch.
//!
//! [`respond`] answers one request document with one handler's result;
//! [`SoapServer`] holds named operation handlers and dispatches each
//! request to its own. Either way the reply is a response document (a
//! `...Response` payload or a fault). [`SoapClient`] builds matching request documents and decodes
//! responses. Both ends speak strings — the simulated HTTP POST body —
//! so any transport (in-process, the simulator, the broker) can carry
//! them.

use std::collections::HashMap;

use crate::envelope::{Envelope, SoapFault};
use crate::rpc::RpcCall;

/// An operation handler: parts in, parts out (or a fault).
pub type Handler = Box<dyn FnMut(&[(String, String)]) -> Result<Vec<(String, String)>, SoapFault>>;

/// A SOAP endpoint dispatching RPC calls to handlers.
#[derive(Default)]
pub struct SoapServer {
    handlers: HashMap<String, Handler>,
}

impl SoapServer {
    /// Creates an empty server.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) an operation handler.
    pub fn register<F>(&mut self, operation: impl Into<String>, handler: F)
    where
        F: FnMut(&[(String, String)]) -> Result<Vec<(String, String)>, SoapFault> + 'static,
    {
        self.handlers.insert(operation.into(), Box::new(handler));
    }

    /// Registered operation names.
    pub fn operations(&self) -> impl Iterator<Item = &str> {
        self.handlers.keys().map(String::as_str)
    }

    /// Handles one request document; always returns a response document
    /// (faults included).
    pub fn handle(&mut self, request_xml: &str) -> String {
        respond(request_xml, |call| match self.handlers.get_mut(&call.operation) {
            Some(handler) => handler(&call.parts),
            None => Err(SoapFault {
                code: "Client".into(),
                reason: format!("unknown operation {:?}", call.operation),
            }),
        })
    }
}

/// Answers one request document with `handler`'s result for its call:
/// the parts as a `...Response` payload, or the fault. An unparseable
/// request or a fault envelope is answered with a `Client` fault without
/// calling `handler`.
pub fn respond(
    request_xml: &str,
    handler: impl FnOnce(&RpcCall) -> Result<Vec<(String, String)>, SoapFault>,
) -> String {
    let envelope = match Envelope::parse(request_xml) {
        Ok(envelope) => envelope,
        Err(err) => return Envelope::fault("Client", err.to_string()).to_xml(),
    };
    let Some(call) = RpcCall::from_envelope(&envelope) else {
        return Envelope::fault("Client", "request is a fault envelope").to_xml();
    };
    match handler(&call) {
        Ok(parts) => {
            let mut response = RpcCall::new(call.response_name());
            response.parts = parts;
            response.to_envelope().to_xml()
        }
        Err(fault) => Envelope::fault(fault.code, fault.reason).to_xml(),
    }
}

impl std::fmt::Debug for SoapServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SoapServer")
            .field("operations", &self.handlers.len())
            .finish()
    }
}

/// Client-side helpers for RPC exchanges.
#[derive(Debug, Clone, Copy, Default)]
pub struct SoapClient;

impl SoapClient {
    /// Builds a request document.
    pub fn request(operation: &str, parts: &[(&str, &str)]) -> String {
        let mut call = RpcCall::new(operation);
        for (name, value) in parts {
            call = call.with_part(*name, *value);
        }
        call.to_envelope().to_xml()
    }

    /// Decodes a response document into result parts.
    ///
    /// # Errors
    ///
    /// Returns the [`SoapFault`] when the response is a fault, and a
    /// synthesized `Client` fault when it is unparseable or mismatched.
    pub fn decode_response(
        operation: &str,
        response_xml: &str,
    ) -> Result<Vec<(String, String)>, SoapFault> {
        let envelope = Envelope::parse(response_xml).map_err(|e| SoapFault {
            code: "Client".into(),
            reason: format!("bad response: {e}"),
        })?;
        if let Some(fault) = envelope.fault {
            return Err(fault);
        }
        let call = RpcCall::from_envelope(&envelope).ok_or_else(|| SoapFault {
            code: "Client".into(),
            reason: "empty response".into(),
        })?;
        if call.operation != format!("{operation}Response") {
            return Err(SoapFault {
                code: "Client".into(),
                reason: format!(
                    "response {:?} does not match operation {operation:?}",
                    call.operation
                ),
            });
        }
        Ok(call.parts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn echo_server() -> SoapServer {
        let mut server = SoapServer::new();
        server.register("echo", |parts| Ok(parts.to_vec()));
        server.register("fail", |_| {
            Err(SoapFault {
                code: "Server".into(),
                reason: "deliberate".into(),
            })
        });
        server
    }

    #[test]
    fn request_response_cycle() {
        let mut server = echo_server();
        let request = SoapClient::request("echo", &[("a", "1"), ("b", "two")]);
        let response = server.handle(&request);
        let parts = SoapClient::decode_response("echo", &response).unwrap();
        assert_eq!(
            parts,
            vec![("a".to_owned(), "1".to_owned()), ("b".to_owned(), "two".to_owned())]
        );
    }

    #[test]
    fn handler_fault_propagates() {
        let mut server = echo_server();
        let response = server.handle(&SoapClient::request("fail", &[]));
        let err = SoapClient::decode_response("fail", &response).unwrap_err();
        assert_eq!(err.code, "Server");
        assert_eq!(err.reason, "deliberate");
    }

    #[test]
    fn unknown_operation_faults() {
        let mut server = echo_server();
        let response = server.handle(&SoapClient::request("levitate", &[]));
        let err = SoapClient::decode_response("levitate", &response).unwrap_err();
        assert!(err.reason.contains("unknown operation"));
    }

    #[test]
    fn malformed_request_faults() {
        let mut server = echo_server();
        let response = server.handle("not xml");
        assert!(Envelope::parse(&response).unwrap().is_fault());
    }

    #[test]
    fn mismatched_response_name_detected() {
        let mut server = echo_server();
        let response = server.handle(&SoapClient::request("echo", &[]));
        let err = SoapClient::decode_response("other", &response).unwrap_err();
        assert!(err.reason.contains("does not match"));
    }

    #[test]
    fn stateful_handlers_work() {
        let mut server = SoapServer::new();
        let mut counter = 0u32;
        server.register("count", move |_| {
            counter += 1;
            Ok(vec![("n".to_owned(), counter.to_string())])
        });
        let r1 = server.handle(&SoapClient::request("count", &[]));
        let r2 = server.handle(&SoapClient::request("count", &[]));
        assert_eq!(
            SoapClient::decode_response("count", &r1).unwrap()[0].1,
            "1"
        );
        assert_eq!(
            SoapClient::decode_response("count", &r2).unwrap()[0].1,
            "2"
        );
        assert_eq!(server.operations().count(), 1);
    }
}
