//! A retrying client for the wire protocol.
//!
//! `svc --server` and `loadgen` talk to a server through a
//! [`RetryClient`]: one request line in, one response line out, with
//! retries on the *transient* failures — an `overloaded` or
//! `unavailable` rejection and a dropped connection. Every other
//! outcome, including typed errors like `deadline` or `compile`, is
//! final and returned to the caller as-is: retrying a request the server
//! has already judged would only waste its deadline budget.
//!
//! Backoff is **server-hinted first**: an `overloaded` rejection carries
//! `retry_after_ms` — the server's own estimate of when queue space
//! reappears, computed from live queue depth (see
//! `crate::batch`) — and the client sleeps exactly that hint scaled by
//! jitter in `[1.0, 1.5)`. Blind exponential backoff (jitter
//! `[0.5, 1.5)`) remains the fallback for failures that carry no hint,
//! such as dropped connections. Hinted waits are counted separately in
//! [`RetryStats::hinted`].
//!
//! The client is deadline-aware: it never sleeps past the caller's
//! deadline — when the next backoff would land beyond it, the client
//! gives up immediately with [`ClientError::GiveUp`] so the caller
//! learns the outcome while it still matters. Give-ups and retries are
//! counted in [`RetryStats`]; `loadgen` reports them per phase and
//! `--check` bounds the give-up rate.
//!
//! Two transports are provided: [`TcpTransport`] (reconnects on retry)
//! for real servers, and [`InProcess`] (a [`Batcher`] behind a one-shot
//! sink, with optional injected connection drops) for benchmarks and the
//! chaos soak.

use crate::batch::{Batcher, Sink};
use crate::faults::FaultPlan;
use crate::json;
use crate::proto::{error_response, parse_request};
use crate::wire::Upstream;
use std::io::Write;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};
use sv_workloads::SmallRng;

/// How a [`RetryClient`] paces its retries.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Retries after the first attempt (so `max_retries + 1` attempts
    /// total).
    pub max_retries: u32,
    /// First backoff; each retry doubles it.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Seed for the jitter stream (deterministic per client).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 4,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(100),
            seed: 0,
        }
    }
}

/// Counters a client accumulates across calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Transport round trips attempted (first tries and retries).
    pub attempts: u64,
    /// Retries performed (after a transient failure, before success).
    pub retries: u64,
    /// Retries whose wait was paced by a server `retry_after_ms` hint
    /// rather than blind exponential backoff.
    pub hinted: u64,
    /// Calls abandoned: retries exhausted or deadline budget spent.
    pub give_ups: u64,
}

/// Why a [`RetryClient::call`] gave no response line.
#[derive(Debug)]
pub enum ClientError {
    /// Transient failures persisted past the retry budget or the
    /// caller's deadline.
    GiveUp {
        /// Attempts made before giving up.
        attempts: u32,
        /// The last transient failure, for the log.
        last: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ClientError::GiveUp { attempts, last } = self;
        write!(f, "gave up after {attempts} attempts (last: {last})")
    }
}

impl std::error::Error for ClientError {}

/// One request/response round trip over some medium.
pub trait Transport {
    /// Send one request line, receive one response line (no trailing
    /// newline).
    ///
    /// # Errors
    ///
    /// Why the connection dropped (or the response was lost); a fresh
    /// attempt may succeed, so the retry client retries it.
    fn call(&mut self, line: &str) -> Result<String, String>;
}

/// Whether a response line is a server-side *transient* rejection the
/// client should retry (the `overloaded` and `unavailable` kinds,
/// matching [`crate::proto::ServeError::retryable`]).
pub fn retryable_response(line: &str) -> bool {
    let Ok(v) = json::parse(line) else { return false };
    if v.get("ok").and_then(json::Value::as_bool) != Some(false) {
        return false;
    }
    matches!(
        v.get("error").and_then(|e| e.get("kind")).and_then(json::Value::as_str),
        Some("overloaded" | "unavailable")
    )
}

/// The server's `retry_after_ms` backpressure hint from an error
/// response line, when present.
pub fn retry_after_ms(line: &str) -> Option<u64> {
    let v = json::parse(line).ok()?;
    v.get("error")?.get("retry_after_ms")?.as_u64()
}

/// A transport wrapped in retry/backoff/deadline logic.
pub struct RetryClient<T> {
    transport: T,
    policy: RetryPolicy,
    rng: SmallRng,
    stats: RetryStats,
}

impl<T: Transport> RetryClient<T> {
    /// Wrap a transport.
    pub fn new(transport: T, policy: RetryPolicy) -> RetryClient<T> {
        let rng = SmallRng::seed_from_u64(policy.seed ^ 0xc11e_4a77);
        RetryClient { transport, policy, rng, stats: RetryStats::default() }
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> RetryStats {
        self.stats
    }

    /// Send one request line, retrying transient failures — paced by the
    /// server's `retry_after_ms` hint when the rejection carries one,
    /// by capped exponential backoff with jitter otherwise — never
    /// sleeping past `deadline`. A response line — even one carrying a
    /// non-retryable typed error — is a success at this layer and is
    /// returned to the caller.
    ///
    /// # Errors
    ///
    /// [`ClientError::GiveUp`] when transient failures outlast the retry
    /// budget or the deadline.
    pub fn call(
        &mut self,
        line: &str,
        deadline: Option<Instant>,
    ) -> Result<String, ClientError> {
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            self.stats.attempts += 1;
            let (transient, hint) = match self.transport.call(line) {
                Ok(response) if retryable_response(&response) => {
                    let hint = retry_after_ms(&response);
                    (format!("server overloaded: {response}"), hint)
                }
                Ok(response) => return Ok(response),
                Err(m) => (format!("connection dropped: {m}"), None),
            };
            if attempts > self.policy.max_retries {
                self.stats.give_ups += 1;
                return Err(ClientError::GiveUp { attempts, last: transient });
            }
            let delay = match hint {
                // The server said when queue space should reappear:
                // sleep exactly that, scaled by jitter in [1.0, 1.5) so
                // hinted clients still fan out instead of stampeding
                // back in lockstep.
                Some(ms) => {
                    let jitter =
                        1.0 + (self.rng.next_u64() >> 11) as f64 / (1u64 << 54) as f64;
                    Duration::from_millis(ms.max(1)).mul_f64(jitter)
                }
                // No hint (dropped connection): capped exponential
                // backoff, jitter in [0.5, 1.5) to desynchronize
                // clients that all failed at the same instant.
                None => {
                    let exp = self
                        .policy
                        .base_backoff
                        .saturating_mul(1u32 << (attempts - 1).min(16))
                        .min(self.policy.max_backoff);
                    let jitter =
                        0.5 + (self.rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                    exp.mul_f64(jitter)
                }
            };
            if let Some(d) = deadline {
                // Sleeping past the deadline guarantees a useless
                // attempt; give up now so the caller learns in time.
                if Instant::now() + delay >= d {
                    self.stats.give_ups += 1;
                    return Err(ClientError::GiveUp {
                        attempts,
                        last: format!("{transient} (deadline budget exhausted)"),
                    });
                }
            }
            std::thread::sleep(delay);
            self.stats.retries += 1;
            if hint.is_some() {
                self.stats.hinted += 1;
            }
        }
    }
}

/// A line-oriented TCP transport on the line transport's upstream
/// connection: opened lazily and dropped on any I/O error, so the next
/// attempt reconnects — exactly what the retry client's retry needs.
pub struct TcpTransport(Upstream);

impl TcpTransport {
    /// A transport for `host:port` (connects on first call).
    pub fn new(addr: impl Into<String>) -> TcpTransport {
        TcpTransport(Upstream::new(addr))
    }
}

impl Transport for TcpTransport {
    fn call(&mut self, line: &str) -> Result<String, String> {
        self.0.call(line).map_err(|e| e.to_string())
    }
}

/// The state behind a [`OneShotSink`]: response bytes plus a condvar to
/// wake the waiting client the moment a full line has been written.
#[derive(Debug, Default)]
struct OneShotBuf {
    buf: Vec<u8>,
    cv: Arc<Condvar>,
}

impl Write for OneShotBuf {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.buf.extend_from_slice(data);
        if self.buf.contains(&b'\n') {
            self.cv.notify_all();
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A single-response sink: hand [`OneShotSink::sink`] to the batcher,
/// then [`OneShotSink::wait`] for the drainer to write the line.
struct OneShotSink {
    state: Arc<Mutex<OneShotBuf>>,
    cv: Arc<Condvar>,
}

impl OneShotSink {
    fn new() -> OneShotSink {
        let cv = Arc::new(Condvar::new());
        let state =
            Arc::new(Mutex::new(OneShotBuf { buf: Vec::new(), cv: Arc::clone(&cv) }));
        OneShotSink { state, cv }
    }

    /// The handle to submit with (same mutex, unsized to the sink type).
    fn sink(&self) -> Sink {
        Arc::clone(&self.state) as Sink
    }

    /// Block until one full response line has been written, then take it.
    fn wait(&self) -> String {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        while !state.buf.contains(&b'\n') {
            state = self.cv.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
        let text = String::from_utf8_lossy(&state.buf);
        text.lines().next().unwrap_or_default().to_string()
    }
}

/// An in-process transport: requests go straight into a [`Batcher`],
/// responses come back through a one-shot sink. Admission rejections
/// (`overloaded`, `deadline`, `shutting_down`) surface as error-response
/// lines — exactly what a remote server would send — so the retry logic
/// treats local and remote servers identically. An optional
/// [`FaultPlan`] injects connection drops: the response is discarded
/// after the server has done the work, as a real broken pipe would.
pub struct InProcess {
    batcher: Arc<Batcher>,
    faults: Option<Arc<FaultPlan>>,
}

impl InProcess {
    /// A transport over an in-process batcher.
    pub fn new(batcher: Arc<Batcher>) -> InProcess {
        InProcess { batcher, faults: None }
    }

    /// [`InProcess::new`] plus injected connection drops from a chaos
    /// fault plan.
    pub fn with_faults(batcher: Arc<Batcher>, faults: Arc<FaultPlan>) -> InProcess {
        InProcess { batcher, faults: Some(faults) }
    }
}

impl Transport for InProcess {
    fn call(&mut self, line: &str) -> Result<String, String> {
        let request = match parse_request(line) {
            Ok(r) => r,
            Err((id, e)) => return Ok(error_response(id, &e)),
        };
        let id = request.id();
        let sink = OneShotSink::new();
        if let Err(e) = self.batcher.submit(request, sink.sink()) {
            return Ok(error_response(id, &e));
        }
        let response = sink.wait();
        if self.faults.as_ref().is_some_and(|p| p.drop_response()) {
            return Err("injected connection drop".into());
        }
        Ok(response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchConfig;
    use crate::faults::FaultConfig;
    use crate::proto::CompileRequest;
    use crate::service::ServeService;
    use std::cell::Cell;
    use std::rc::Rc;
    use sv_workloads::benchmark;

    /// Replays `responses` in order, counting calls into a counter the
    /// test keeps a handle to.
    #[derive(Default)]
    struct Scripted {
        responses: Vec<Result<String, String>>,
        calls: Rc<Cell<u32>>,
    }

    impl Transport for Scripted {
        fn call(&mut self, _line: &str) -> Result<String, String> {
            self.calls.set(self.calls.get() + 1);
            self.responses.remove(0)
        }
    }

    fn fast_policy() -> RetryPolicy {
        RetryPolicy {
            max_retries: 3,
            base_backoff: Duration::from_micros(50),
            max_backoff: Duration::from_micros(200),
            seed: 1,
        }
    }

    #[test]
    fn retries_overloaded_then_returns_success() {
        let overloaded = r#"{"id":1,"ok":false,"error":{"kind":"overloaded","message":"q"}}"#;
        let calls = Rc::new(Cell::new(0));
        let mut c = RetryClient::new(
            Scripted {
                responses: vec![
                    Ok(overloaded.into()),
                    Err("reset".into()),
                    Ok(r#"{"id":1,"ok":true,"result":{}}"#.into()),
                ],
                calls: Rc::clone(&calls),
            },
            fast_policy(),
        );
        let out = c.call("{}", None).unwrap();
        assert!(out.contains("\"ok\":true"));
        let s = c.stats();
        assert_eq!(s.attempts, 3);
        assert_eq!(s.retries, 2);
        assert_eq!(s.give_ups, 0);
        assert_eq!(calls.get(), 3);
    }

    #[test]
    fn typed_errors_are_final_not_retried() {
        let deadline = r#"{"id":1,"ok":false,"error":{"kind":"deadline","message":"late"}}"#;
        let mut c = RetryClient::new(
            Scripted { responses: vec![Ok(deadline.into())], ..Scripted::default() },
            fast_policy(),
        );
        let out = c.call("{}", None).unwrap();
        assert!(out.contains("\"kind\":\"deadline\""));
        assert_eq!(c.stats().retries, 0);
    }

    #[test]
    fn gives_up_after_retry_budget() {
        let overloaded = r#"{"id":1,"ok":false,"error":{"kind":"overloaded","message":"q"}}"#;
        let mut c = RetryClient::new(
            Scripted {
                responses: (0..4).map(|_| Ok(overloaded.into())).collect(),
                ..Scripted::default()
            },
            fast_policy(),
        );
        let e = c.call("{}", None).unwrap_err();
        assert!(matches!(e, ClientError::GiveUp { attempts: 4, .. }), "{e}");
        assert_eq!(c.stats().give_ups, 1);
    }

    #[test]
    fn never_sleeps_past_the_deadline() {
        let overloaded = r#"{"id":1,"ok":false,"error":{"kind":"overloaded","message":"q"}}"#;
        let mut c = RetryClient::new(
            Scripted {
                responses: (0..100).map(|_| Ok(overloaded.into())).collect(),
                ..Scripted::default()
            },
            RetryPolicy {
                max_retries: 100,
                base_backoff: Duration::from_secs(1),
                max_backoff: Duration::from_secs(1),
                seed: 2,
            },
        );
        let start = Instant::now();
        let e = c.call("{}", Some(start + Duration::from_millis(5))).unwrap_err();
        assert!(start.elapsed() < Duration::from_millis(500), "must not sleep 1s");
        let ClientError::GiveUp { last, .. } = e;
        assert!(last.contains("deadline budget"), "{last}");
    }

    #[test]
    fn server_hint_paces_the_retry_and_is_counted() {
        let hinted = r#"{"id":1,"ok":false,"error":{"kind":"overloaded","cap":4,"retry_after_ms":1,"message":"q"}}"#;
        let mut c = RetryClient::new(
            Scripted {
                responses: vec![
                    Ok(hinted.into()),
                    Ok(r#"{"id":1,"ok":true,"result":{}}"#.into()),
                ],
                ..Scripted::default()
            },
            // A blind exponential retry here would sleep ~1s; the 1 ms
            // hint must be used instead.
            RetryPolicy {
                max_retries: 3,
                base_backoff: Duration::from_secs(1),
                max_backoff: Duration::from_secs(1),
                seed: 3,
            },
        );
        let start = Instant::now();
        let out = c.call("{}", None).unwrap();
        assert!(out.contains("\"ok\":true"));
        assert!(start.elapsed() < Duration::from_millis(500), "hint must override backoff");
        let s = c.stats();
        assert_eq!(s.retries, 1);
        assert_eq!(s.hinted, 1);
    }

    #[test]
    fn oversized_hint_still_respects_the_deadline() {
        let hinted = r#"{"id":1,"ok":false,"error":{"kind":"overloaded","cap":4,"retry_after_ms":60000,"message":"q"}}"#;
        let mut c = RetryClient::new(
            Scripted { responses: vec![Ok(hinted.into())], ..Scripted::default() },
            fast_policy(),
        );
        let start = Instant::now();
        let e = c.call("{}", Some(start + Duration::from_millis(5))).unwrap_err();
        assert!(start.elapsed() < Duration::from_millis(500), "must not sleep 60s");
        let ClientError::GiveUp { last, .. } = e;
        assert!(last.contains("deadline budget"), "{last}");
        assert_eq!(c.stats().hinted, 0, "the hinted sleep never happened");
    }

    #[test]
    fn unavailable_is_transient_and_retried() {
        let unavailable =
            r#"{"id":1,"ok":false,"error":{"kind":"unavailable","message":"no backend"}}"#;
        let mut c = RetryClient::new(
            Scripted {
                responses: vec![
                    Ok(unavailable.into()),
                    Ok(r#"{"id":1,"ok":true,"result":{}}"#.into()),
                ],
                ..Scripted::default()
            },
            fast_policy(),
        );
        let out = c.call("{}", None).unwrap();
        assert!(out.contains("\"ok\":true"));
        assert_eq!(c.stats().retries, 1);
    }

    #[test]
    fn in_process_round_trip_with_injected_drops() {
        let svc = Arc::new(ServeService::in_memory());
        let b = Arc::new(Batcher::new(svc, BatchConfig::default()));
        let plan = Arc::new(FaultPlan::new(
            9,
            FaultConfig { conn_drop: 0.4, ..FaultConfig::default() },
        ));
        let mut c = RetryClient::new(
            InProcess::with_faults(Arc::clone(&b), plan),
            RetryPolicy { max_retries: 40, ..fast_policy() },
        );
        let suite = benchmark("swim").unwrap();
        for i in 0..10u64 {
            let req = CompileRequest {
                loop_text: suite.loops[i as usize % suite.loops.len()].to_string(),
                ..CompileRequest::default()
            };
            let out = c.call(&req.to_wire(i), None).unwrap();
            assert!(out.contains(&format!("\"id\":{i},")), "{out}");
            assert!(out.contains("\"ok\":true"), "{out}");
        }
        assert!(c.stats().retries > 0, "40% drops over 10 calls must retry");
        assert_eq!(c.stats().give_ups, 0);
        drop(c); // release the transport's Arc<Batcher> clone
        Arc::try_unwrap(b).ok().expect("sole owner").join().unwrap();
    }
}
