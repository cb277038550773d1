//! The `batch` verb end to end through the [`Batcher`]: request line in,
//! response line out.
//!
//! * A batch answers its members in order, each element byte-equal to
//!   the body a single `compile` of the same member returns; a member
//!   with bad loop text becomes an inline error object while its
//!   siblings still succeed.
//! * A batch heavier than the whole queue (`queue_cap`) can never be
//!   admitted, so it is refused as a typed, non-retryable `bad_request`
//!   naming `queue_cap` — a retrying client gives up after one attempt
//!   instead of backing off against a queue that can never take it.
//! * A lone connection's quota is the whole queue: the idle default
//!   client takes no share, so a batch heavier than half the queue is
//!   admitted rather than bounced with an `overloaded` no wait can cure.

use std::sync::{Arc, Mutex};
use sv_serve::json::escape;
use sv_serve::{
    parse_request, BatchConfig, Batcher, InProcess, RetryClient, RetryPolicy, ServeService,
    Sink,
};

/// A sink that keeps its bytes readable after the drainer writes them.
fn line_sink() -> (Arc<Mutex<Vec<u8>>>, Sink) {
    let buf: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
    (Arc::clone(&buf), buf.clone() as Sink)
}

/// The first `n` loops of the swim suite as JSON-escaped loop text.
fn member_loops(n: usize) -> Vec<String> {
    let suite = sv_workloads::benchmark("swim").expect("suite");
    suite.loops.iter().take(n).map(|l| escape(&l.to_string())).collect()
}

fn batch_line(id: u64, loops: &[String]) -> String {
    let members: Vec<String> = loops.iter().map(|l| format!("{{\"loop\":\"{l}\"}}")).collect();
    format!("{{\"verb\":\"batch\",\"id\":{id},\"requests\":[{}]}}", members.join(","))
}

/// Submit every line to one batcher as the default client and return
/// the response lines, in order.
fn serve(lines: &[String], cfg: BatchConfig) -> Vec<String> {
    let b = Batcher::new(Arc::new(ServeService::in_memory()), cfg);
    let (buf, sink) = line_sink();
    for line in lines {
        let req = parse_request(line).unwrap_or_else(|(_, e)| panic!("{line}: {e}"));
        b.submit(req, Arc::clone(&sink)).unwrap_or_else(|e| panic!("{line}: {e}"));
    }
    b.join().expect("drain");
    let bytes = buf.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    String::from_utf8_lossy(&bytes).lines().map(str::to_string).collect()
}

/// The payload of a single-request response: its `result` object, or
/// its `error` object.
fn payload(line: &str, id: u64) -> &str {
    let body = line
        .strip_prefix(&format!("{{\"id\":{id},\"ok\":true,\"result\":"))
        .or_else(|| line.strip_prefix(&format!("{{\"id\":{id},\"ok\":false,\"error\":")))
        .unwrap_or_else(|| panic!("not a response to request {id}: {line}"));
    body.strip_suffix('}').expect("response closes its object")
}

#[test]
fn batch_elements_match_single_compiles_in_order() {
    let mut loops = member_loops(3);
    // The middle member's loop text does not parse.
    loops.insert(1, escape("loop broken (this is not loop text"));
    // The batch runs first, against a cold cache; the single compiles of
    // the same members follow and are served warm.
    let mut lines = vec![batch_line(100, &loops)];
    for (i, l) in loops.iter().enumerate() {
        lines.push(format!("{{\"verb\":\"compile\",\"id\":{i},\"loop\":\"{l}\"}}"));
    }
    let out = serve(&lines, BatchConfig::default());
    assert_eq!(out.len(), lines.len(), "one response per request: {out:?}");

    let singles: Vec<&str> =
        out[1..].iter().enumerate().map(|(i, line)| payload(line, i as u64)).collect();
    assert!(out[2].contains("\"ok\":false"), "bad loop text must fail alone: {}", out[2]);
    assert!(singles[1].contains("\"kind\":\"bad_request\""), "{}", singles[1]);
    for i in [0, 2, 3] {
        assert!(out[1 + i].contains("\"ok\":true"), "member {i} must compile: {}", out[1 + i]);
    }
    let expected = format!("{{\"id\":100,\"ok\":true,\"results\":[{}]}}", singles.join(","));
    assert_eq!(out[0], expected, "batch elements must be the single-compile bodies, in order");
}

#[test]
fn batch_heavier_than_the_queue_is_a_bad_request_not_a_retry() {
    let cfg = BatchConfig { queue_cap: 2, ..BatchConfig::default() };
    let line = batch_line(7, &member_loops(3));

    let b = Batcher::new(Arc::new(ServeService::in_memory()), cfg.clone());
    let (_buf, sink) = line_sink();
    let req = parse_request(&line).expect("well-formed batch");
    let e = b.submit(req, sink).expect_err("a 3-member batch cannot fit a 2-slot queue");
    assert_eq!(e.kind(), "bad_request", "{e}");
    assert!(!e.retryable(), "an unadmittable batch must not invite retries: {e}");
    assert!(e.to_string().contains("queue_cap 2"), "the error must name the bound: {e}");
    b.join().expect("drain");

    // Through the retrying client: answered once, never retried.
    let b = Arc::new(Batcher::new(Arc::new(ServeService::in_memory()), cfg.clone()));
    let mut client = RetryClient::new(InProcess::new(Arc::clone(&b)), RetryPolicy::default());
    let response = client.call(&line, None).expect("a typed answer, not a give-up");
    assert!(response.starts_with("{\"id\":7,\"ok\":false,"), "{response}");
    assert!(response.contains("\"kind\":\"bad_request\""), "{response}");
    assert!(response.contains("queue_cap 2"), "{response}");
    let stats = client.stats();
    assert_eq!((stats.attempts, stats.retries), (1, 0), "{stats:?}");
    drop(client);
    Arc::try_unwrap(b).ok().expect("sole owner").join().expect("drain");

    // A batch exactly as heavy as the queue is still admitted.
    let out = serve(&[batch_line(8, &member_loops(2))], cfg);
    assert!(out[0].starts_with("{\"id\":8,\"ok\":true,\"results\":["), "{}", out[0]);
}

#[test]
fn lone_registered_client_is_quota_bound_only_by_the_queue() {
    let cfg = BatchConfig { queue_cap: 4, ..BatchConfig::default() };
    let b = Batcher::new(Arc::new(ServeService::in_memory()), cfg);
    // One TCP connection's identity; the default client stays idle.
    let client = b.register_client();
    let (buf, sink) = line_sink();
    // Weight queue_cap/2 + 1: over the share an idle default client
    // would claim, within the whole queue.
    let req = parse_request(&batch_line(9, &member_loops(3))).expect("well-formed batch");
    b.submit_for(client, req, sink).unwrap_or_else(|e| panic!("batch refused: {e}"));
    b.join().expect("drain");
    let bytes = buf.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let out = String::from_utf8_lossy(&bytes);
    assert!(out.starts_with("{\"id\":9,\"ok\":true,\"results\":["), "{out}");
}
