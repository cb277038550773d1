//! The newline-delimited JSON wire protocol.
//!
//! One request per line in, one response per line out (responses carry
//! the request's `id`, so a client can correlate even when rejections
//! interleave with batched results). Verbs:
//!
//! | verb | request fields | result |
//! |---|---|---|
//! | `compile` | `loop` (textual IR), `machine` *or* `machine_spec`, `strategy`, knobs | canonical compile result |
//! | `batch` | `requests`: array of compile bodies | array of per-request results |
//! | `machines` | — | the machine registry: names, canonical hashes, sources |
//! | `stats` | — | cache/queue counters |
//! | `metrics` | — | queue depth, batch occupancy, ledger size, cache counters and hit rate, fault counters, per-phase latency percentiles |
//! | `shutdown` | — | ack; server drains and exits |
//!
//! A compile body names a registered machine (`machine`) or carries an
//! inline spec text (`machine_spec`, the `sv_machine::spec` grammar) —
//! never both. Because the cache key is built from the machine's
//! canonical encoding, an inline spec equal to a registered machine
//! produces byte-identical responses to the named request.
//!
//! Compile responses embed [`sv_core::cache::render_result`]'s canonical
//! rendering verbatim, so identical requests get byte-identical `result`
//! objects whether compiled, served from memory, or served from disk.

use crate::json::{self, Value};
use sv_core::{CompileError, DriverConfig, SelectiveConfig, Strategy};
use sv_machine::{MachineConfig, MachineRegistry};
use std::fmt;
use std::time::Duration;

/// A typed service-level failure (distinct from a compile failure, which
/// carries its own taxonomy from the driver).
#[derive(Debug)]
pub enum ServeError {
    /// The bounded request queue (or the caller's fair share of it) is
    /// full; the client should back off.
    Overloaded {
        /// The configured queue capacity that was exceeded.
        cap: usize,
        /// Server-computed backoff hint from live queue depth: roughly
        /// how long until the queued work ahead has drained. Clients
        /// honor it in place of blind exponential backoff.
        retry_after_ms: u64,
    },
    /// No healthy backend could take the request (router mode: the keyed
    /// shard and every failover candidate are down).
    Unavailable {
        /// What was tried.
        message: String,
    },
    /// The request's deadline passed before a worker picked it up.
    DeadlineExceeded {
        /// The deadline the client asked for.
        timeout_ms: u64,
    },
    /// The request line was not valid JSON.
    Parse {
        /// The reader's complaint.
        message: String,
    },
    /// The request was well-formed JSON but semantically invalid
    /// (unknown verb/machine/strategy, missing field, bad loop text).
    BadRequest {
        /// What was wrong.
        message: String,
    },
    /// The server is draining after a `shutdown` request.
    ShuttingDown,
    /// The compilation itself failed (typed driver taxonomy). A compile
    /// the request's deadline stopped has kind `deadline`.
    Compile(Box<CompileError>),
    /// A server-side defect (an isolated panic, a dead drainer) answered
    /// this one request; the daemon itself stays up.
    Internal {
        /// What went wrong.
        message: String,
    },
}

impl ServeError {
    /// Stable machine-readable discriminator used on the wire.
    pub fn kind(&self) -> &'static str {
        match self {
            ServeError::Overloaded { .. } => "overloaded",
            ServeError::Unavailable { .. } => "unavailable",
            ServeError::DeadlineExceeded { .. } => "deadline",
            ServeError::Parse { .. } => "parse",
            ServeError::BadRequest { .. } => "bad_request",
            ServeError::ShuttingDown => "shutting_down",
            ServeError::Compile(e) if matches!(**e, CompileError::DeadlineExceeded { .. }) => {
                "deadline"
            }
            ServeError::Compile(_) => "compile",
            ServeError::Internal { .. } => "internal",
        }
    }

    /// Whether a client should retry this error (after backoff): the
    /// condition is transient and a later attempt can succeed.
    pub fn retryable(&self) -> bool {
        matches!(self, ServeError::Overloaded { .. } | ServeError::Unavailable { .. })
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded { cap, retry_after_ms } => {
                write!(f, "queue full (capacity {cap}); retry in {retry_after_ms} ms")
            }
            ServeError::Unavailable { message } => {
                write!(f, "no healthy backend: {message}")
            }
            ServeError::DeadlineExceeded { timeout_ms } => {
                write!(f, "deadline of {timeout_ms} ms passed before execution")
            }
            ServeError::Parse { message } => write!(f, "bad request line: {message}"),
            ServeError::BadRequest { message } => write!(f, "bad request: {message}"),
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::Compile(e) => write!(f, "{e}"),
            ServeError::Internal { message } => write!(f, "internal server error: {message}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// One compile request, decoded from the wire (or built directly by an
/// in-process client like `loadgen`).
#[derive(Debug, Clone, PartialEq)]
pub struct CompileRequest {
    /// The loop, in the textual IR format (`sv_ir::parse_loop`'s grammar).
    pub loop_text: String,
    /// Registered machine name (default `"paper"`, Table 1). Resolved
    /// against the server's [`MachineRegistry`]; ignored when
    /// [`CompileRequest::machine_spec`] is present.
    pub machine: String,
    /// Inline machine description in the `sv_machine::spec` grammar.
    /// Mutually exclusive with naming a registered machine on the wire.
    pub machine_spec: Option<String>,
    /// Strategy name (default `"selective"`).
    pub strategy: Strategy,
    /// `SelectiveConfig::account_communication`.
    pub account_comm: bool,
    /// `SelectiveConfig::squares_tiebreak`.
    pub squares_tiebreak: bool,
    /// `DriverConfig::verify_boundaries`.
    pub verify_boundaries: bool,
    /// `DriverConfig::degrade`.
    pub degrade: bool,
    /// Optional per-request deadline, measured from submission.
    pub timeout: Option<Duration>,
}

impl Default for CompileRequest {
    fn default() -> CompileRequest {
        CompileRequest {
            loop_text: String::new(),
            machine: "paper".into(),
            machine_spec: None,
            strategy: Strategy::Selective,
            account_comm: true,
            squares_tiebreak: true,
            verify_boundaries: true,
            degrade: true,
            timeout: None,
        }
    }
}

impl CompileRequest {
    /// Resolve the machine this request compiles for: parse the inline
    /// [`CompileRequest::machine_spec`] when present, otherwise look the
    /// name up in `registry`.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] for a malformed inline spec, or for a
    /// name absent from the registry — the error lists what the registry
    /// actually holds, so it stays correct as machines are added.
    pub fn machine_config(&self, registry: &MachineRegistry) -> Result<MachineConfig, ServeError> {
        if let Some(spec) = &self.machine_spec {
            return MachineConfig::from_spec(spec).map_err(|e| ServeError::BadRequest {
                message: format!("bad machine_spec: {e}"),
            });
        }
        registry.get(&self.machine).cloned().ok_or_else(|| ServeError::BadRequest {
            message: format!(
                "unknown machine `{}` (registry has: {})",
                self.machine,
                registry.names().join(", ")
            ),
        })
    }

    /// The driver configuration this request asks for.
    pub fn driver_config(&self) -> DriverConfig {
        DriverConfig {
            strategy: self.strategy,
            selective: SelectiveConfig {
                account_communication: self.account_comm,
                squares_tiebreak: self.squares_tiebreak,
                ..SelectiveConfig::default()
            },
            verify_boundaries: self.verify_boundaries,
            degrade: self.degrade,
            ..DriverConfig::default()
        }
    }

    /// Render this request as one wire line (used by `loadgen`'s trace
    /// emitter; the server never writes requests). Emits `machine_spec`
    /// when the request carries an inline spec, the machine name
    /// otherwise — matching the wire's mutual-exclusion rule.
    pub fn to_wire(&self, id: u64) -> String {
        let machine_field = match &self.machine_spec {
            Some(spec) => format!("\"machine_spec\":\"{}\"", json::escape(spec)),
            None => format!("\"machine\":\"{}\"", json::escape(&self.machine)),
        };
        format!(
            "{{\"verb\":\"compile\",\"id\":{id},{machine_field},\"strategy\":\"{}\",\
             \"loop\":\"{}\"}}",
            self.strategy.canonical_name(),
            json::escape(&self.loop_text),
        )
    }
}

/// A decoded request line.
#[derive(Debug)]
pub enum Request {
    /// Compile one loop.
    Compile {
        /// Client correlation id.
        id: u64,
        /// The request body.
        req: Box<CompileRequest>,
    },
    /// Compile several loops as one unit; the response carries results in
    /// request order.
    Batch {
        /// Client correlation id.
        id: u64,
        /// The sub-requests.
        reqs: Vec<CompileRequest>,
    },
    /// List the server's machine registry: names, canonical hashes,
    /// sources.
    Machines {
        /// Client correlation id.
        id: u64,
    },
    /// Report cache and queue counters.
    Stats {
        /// Client correlation id.
        id: u64,
    },
    /// Report live serving metrics: queue depth, batch occupancy, ledger
    /// size, cache counters and hit rate, fault counters, per-phase
    /// latency percentiles.
    Metrics {
        /// Client correlation id.
        id: u64,
    },
    /// Drain pending work and exit.
    Shutdown {
        /// Client correlation id.
        id: u64,
    },
}

impl Request {
    /// The client correlation id carried by every verb.
    pub fn id(&self) -> u64 {
        match self {
            Request::Compile { id, .. }
            | Request::Batch { id, .. }
            | Request::Machines { id }
            | Request::Stats { id }
            | Request::Metrics { id }
            | Request::Shutdown { id } => *id,
        }
    }
}

fn bad(message: impl Into<String>) -> ServeError {
    ServeError::BadRequest { message: message.into() }
}

fn compile_body(v: &Value) -> Result<CompileRequest, ServeError> {
    let mut req = CompileRequest {
        loop_text: v
            .get("loop")
            .and_then(Value::as_str)
            .ok_or_else(|| bad("missing string field `loop`"))?
            .to_string(),
        ..CompileRequest::default()
    };
    if v.get("machine").is_some() && v.get("machine_spec").is_some() {
        return Err(bad("`machine` and `machine_spec` are mutually exclusive"));
    }
    if let Some(m) = v.get("machine") {
        req.machine = m.as_str().ok_or_else(|| bad("`machine` must be a string"))?.to_string();
    }
    if let Some(s) = v.get("machine_spec") {
        req.machine_spec =
            Some(s.as_str().ok_or_else(|| bad("`machine_spec` must be a string"))?.to_string());
    }
    if let Some(s) = v.get("strategy") {
        req.strategy =
            s.as_str().ok_or_else(|| bad("`strategy` must be a string"))?.parse().map_err(bad)?;
    }
    let flag = |key: &str, slot: &mut bool| -> Result<(), ServeError> {
        if let Some(b) = v.get(key) {
            *slot = b.as_bool().ok_or_else(|| bad(format!("`{key}` must be a boolean")))?;
        }
        Ok(())
    };
    flag("account_comm", &mut req.account_comm)?;
    flag("squares_tiebreak", &mut req.squares_tiebreak)?;
    flag("verify_boundaries", &mut req.verify_boundaries)?;
    flag("degrade", &mut req.degrade)?;
    if let Some(t) = v.get("timeout_ms") {
        let ms = t.as_u64().ok_or_else(|| bad("`timeout_ms` must be a non-negative integer"))?;
        req.timeout = Some(Duration::from_millis(ms));
    }
    Ok(req)
}

/// Decode one request line. On failure, the error is paired with the
/// request id when one could still be extracted, so the error response
/// can be correlated.
///
/// # Errors
///
/// [`ServeError::Parse`] for malformed JSON, [`ServeError::BadRequest`]
/// for structural problems.
pub fn parse_request(line: &str) -> Result<Request, (u64, ServeError)> {
    let v = json::parse(line).map_err(|message| (0, ServeError::Parse { message }))?;
    let id = v.get("id").and_then(Value::as_u64).unwrap_or(0);
    let fail = |e: ServeError| (id, e);
    let verb = v
        .get("verb")
        .and_then(Value::as_str)
        .ok_or_else(|| fail(bad("missing string field `verb`")))?;
    match verb {
        "compile" => Ok(Request::Compile { id, req: Box::new(compile_body(&v).map_err(fail)?) }),
        "batch" => {
            let arr = v
                .get("requests")
                .and_then(Value::as_arr)
                .ok_or_else(|| fail(bad("`batch` needs an array field `requests`")))?;
            let mut reqs = Vec::with_capacity(arr.len());
            for (i, sub) in arr.iter().enumerate() {
                reqs.push(
                    compile_body(sub)
                        .map_err(|e| fail(bad(format!("requests[{i}]: {e}"))))?,
                );
            }
            Ok(Request::Batch { id, reqs })
        }
        "machines" => Ok(Request::Machines { id }),
        "stats" => Ok(Request::Stats { id }),
        "metrics" => Ok(Request::Metrics { id }),
        "shutdown" => Ok(Request::Shutdown { id }),
        other => Err(fail(bad(format!(
            "unknown verb `{other}` (want compile, batch, machines, stats, metrics or shutdown)"
        )))),
    }
}

/// Render a success response around an already-rendered result object.
pub fn ok_response(id: u64, result_object: &str) -> String {
    format!("{{\"id\":{id},\"ok\":true,\"result\":{result_object}}}")
}

/// Render a batch success response around per-request element objects
/// (each either a result object or an inline error object).
pub fn batch_response(id: u64, elements: &[String]) -> String {
    format!("{{\"id\":{id},\"ok\":true,\"results\":[{}]}}", elements.join(","))
}

/// Render an error response.
pub fn error_response(id: u64, e: &ServeError) -> String {
    format!("{{\"id\":{id},\"ok\":false,\"error\":{}}}", error_object(e))
}

/// Render an error as a bare JSON object (used inline in batch results).
pub fn error_object(e: &ServeError) -> String {
    match e {
        ServeError::Compile(ce) => format!(
            "{{\"kind\":\"{}\",\"pass\":\"{}\",\"loop\":\"{}\",\"message\":\"{}\"}}",
            e.kind(),
            ce.pass(),
            json::escape(ce.loop_name()),
            json::escape(&ce.to_string())
        ),
        ServeError::Overloaded { retry_after_ms, .. } => format!(
            "{{\"kind\":\"overloaded\",\"retry_after_ms\":{retry_after_ms},\"message\":\"{}\"}}",
            json::escape(&e.to_string())
        ),
        other => format!(
            "{{\"kind\":\"{}\",\"message\":\"{}\"}}",
            other.kind(),
            json::escape(&other.to_string())
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_compile() {
        let r = parse_request(r#"{"verb":"compile","id":7,"loop":"loop x (trip 4 x1 invocations, scale 1)"}"#)
            .unwrap();
        match r {
            Request::Compile { id, req } => {
                assert_eq!(id, 7);
                assert_eq!(req.machine, "paper");
                assert_eq!(req.strategy, Strategy::Selective);
                assert!(req.timeout.is_none());
            }
            other => panic!("wrong request: {other:?}"),
        }
    }

    #[test]
    fn parses_knobs_and_timeout() {
        let r = parse_request(
            r#"{"verb":"compile","id":1,"loop":"l","machine":"figure1","strategy":"full",
                "account_comm":false,"verify_boundaries":false,"timeout_ms":250}"#,
        )
        .unwrap();
        let Request::Compile { req, .. } = r else { panic!() };
        assert_eq!(req.machine, "figure1");
        assert_eq!(req.strategy, Strategy::Full);
        assert!(!req.account_comm);
        assert!(!req.verify_boundaries);
        assert_eq!(req.timeout, Some(Duration::from_millis(250)));
        let cfg = req.driver_config();
        assert!(!cfg.selective.account_communication);
        assert!(!cfg.verify_boundaries);
    }

    #[test]
    fn parses_inline_machine_spec_and_rejects_ambiguity() {
        let r = parse_request(
            r#"{"verb":"compile","id":2,"loop":"l","machine_spec":"vector_length = 4\n"}"#,
        )
        .unwrap();
        let Request::Compile { req, .. } = r else { panic!() };
        assert_eq!(req.machine_spec.as_deref(), Some("vector_length = 4\n"));
        let m = req.machine_config(&MachineRegistry::builtin()).unwrap();
        assert_eq!(m.vector_length, 4);

        let (_, e) = parse_request(
            r#"{"verb":"compile","id":2,"loop":"l","machine":"paper","machine_spec":"x"}"#,
        )
        .unwrap_err();
        assert!(e.to_string().contains("mutually exclusive"), "{e}");
    }

    #[test]
    fn unknown_machine_error_lists_registry_contents() {
        let req = CompileRequest { machine: "toaster".into(), ..CompileRequest::default() };
        let e = req.machine_config(&MachineRegistry::builtin()).unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("unknown machine `toaster`"), "{msg}");
        assert!(msg.contains("figure1, paper"), "error must list the live registry: {msg}");

        let mut reg = MachineRegistry::builtin();
        let mut extra = MachineConfig::paper_default();
        extra.name = "wide".into();
        reg.register("wide", extra, sv_machine::RegistrySource::Builtin).unwrap();
        let msg = req.machine_config(&reg).unwrap_err().to_string();
        assert!(msg.contains("figure1, paper, wide"), "error must track additions: {msg}");
    }

    #[test]
    fn machines_verb_parses() {
        let r = parse_request(r#"{"verb":"machines","id":12}"#).unwrap();
        assert!(matches!(r, Request::Machines { id: 12 }));
    }

    #[test]
    fn metrics_verb_parses() {
        let r = parse_request(r#"{"verb":"metrics","id":13}"#).unwrap();
        assert!(matches!(r, Request::Metrics { id: 13 }));
    }

    #[test]
    fn overload_hint_is_typed_and_on_the_wire() {
        let e = ServeError::Overloaded { cap: 4, retry_after_ms: 30 };
        assert!(e.retryable());
        assert_eq!(crate::client::retry_after_ms(&error_response(1, &e)), Some(30));
        let u = ServeError::Unavailable { message: "2 shards down".into() };
        assert!(u.retryable());
        assert_eq!(crate::client::retry_after_ms(&error_response(1, &u)), None);
        assert_eq!(u.kind(), "unavailable");
    }

    #[test]
    fn inline_spec_round_trips_through_wire() {
        let req = CompileRequest {
            loop_text: "loop t (trip 4 x1 invocations, scale 1)".into(),
            machine_spec: Some(MachineConfig::figure1().to_spec()),
            ..CompileRequest::default()
        };
        let Request::Compile { req: back, .. } = parse_request(&req.to_wire(5)).unwrap() else {
            panic!()
        };
        assert_eq!(*back, req);
        let m = back.machine_config(&MachineRegistry::empty()).unwrap();
        assert_eq!(m, MachineConfig::figure1());
    }

    #[test]
    fn strategy_names_round_trip() {
        for strategy in Strategy::ALL {
            let line = CompileRequest { strategy, ..CompileRequest::default() }.to_wire(1);
            let Ok(Request::Compile { req, .. }) = parse_request(&line) else { panic!("{line}") };
            assert_eq!(req.strategy, strategy);
        }
        let line = r#"{"verb":"compile","id":4,"loop":"l","strategy":"bogus"}"#;
        let (id, e) = parse_request(line).unwrap_err();
        assert_eq!((id, e.kind()), (4, "bad_request"));
        assert!(e.to_string().contains("want one of: modulo-no-unroll, modulo,"), "{e}");
    }

    #[test]
    fn errors_keep_ids_when_extractable() {
        let (id, e) = parse_request(r#"{"verb":"nope","id":9}"#).unwrap_err();
        assert_eq!(id, 9);
        assert_eq!(e.kind(), "bad_request");
        let (id, e) = parse_request("not json").unwrap_err();
        assert_eq!(id, 0);
        assert_eq!(e.kind(), "parse");
    }

    #[test]
    fn batch_parses_subrequests() {
        let r = parse_request(
            r#"{"verb":"batch","id":3,"requests":[{"loop":"a"},{"loop":"b","strategy":"modulo"}]}"#,
        )
        .unwrap();
        let Request::Batch { id, reqs } = r else { panic!() };
        assert_eq!(id, 3);
        assert_eq!(reqs.len(), 2);
        assert_eq!(reqs[1].strategy, Strategy::ModuloOnly);
    }

    #[test]
    fn responses_are_single_lines() {
        let ok = ok_response(4, "{\"x\":1}");
        assert_eq!(ok, "{\"id\":4,\"ok\":true,\"result\":{\"x\":1}}");
        let err =
            error_response(5, &ServeError::Overloaded { cap: 8, retry_after_ms: 12 });
        assert!(err.contains("\"kind\":\"overloaded\""), "{err}");
        assert!(err.contains("\"retry_after_ms\":12"), "{err}");
        assert!(!err.contains('\n'));
    }

    #[test]
    fn wire_round_trip() {
        let req = CompileRequest {
            loop_text: "loop t (trip 4 x1 invocations, scale 1)\n  %0 = add.i64 iv*1+0, #1"
                .into(),
            ..CompileRequest::default()
        };
        let line = req.to_wire(11);
        let Request::Compile { id, req: back } = parse_request(&line).unwrap() else { panic!() };
        assert_eq!(id, 11);
        assert_eq!(*back, req);
    }
}
