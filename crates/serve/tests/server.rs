//! End-to-end TCP serving:
//!
//! * the accept loop **survives a client disconnect** — the
//!   pre-multi-tenant daemon exited on the first EOF, so a second
//!   sequential connection is the regression test;
//! * concurrent connections each get their own fair-share identity and
//!   all complete;
//! * a connection past `--max-clients` is refused with one typed
//!   `overloaded` line carrying a `retry_after_ms` hint — and the slot
//!   is reusable once the earlier client leaves;
//! * a request line over `MAX_LINE_BYTES` is answered with one typed
//!   `bad_request` naming the limit and its connection is closed, while a
//!   line of exactly the limit is served;
//! * a client that pipelines requests and never reads the responses
//!   holds the drainer for one write timeout at most: other clients are
//!   still answered within 1 s, and its connection is shut down;
//! * the `metrics` verb answers over TCP, and its rendering is pinned by
//!   a golden snapshot (all numbers masked — the *shape* is the
//!   contract). Re-bless intentional changes with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p sv-serve --test server
//! ```

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;
use sv_serve::{BatchConfig, Batcher, CompileRequest, Server, DEFAULT_MAX_CLIENTS, MAX_LINE_BYTES};

mod common;
use common::{assert_closed_by_daemon, call_within, stall_a_reader};

fn start(
    max_clients: usize,
) -> (SocketAddr, Arc<Batcher>, std::thread::JoinHandle<std::io::Result<()>>) {
    let svc = Arc::new(sv_serve::ServeService::in_memory());
    let batcher = Arc::new(Batcher::new(svc, BatchConfig::default()));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    let addr = listener.local_addr().expect("local addr");
    let b = Arc::clone(&batcher);
    let h = std::thread::spawn(move || Server::new(b, max_clients).serve(listener));
    (addr, batcher, h)
}

fn connect(addr: SocketAddr) -> BufReader<TcpStream> {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    BufReader::new(stream)
}

/// One request line in, one response line out.
fn call(conn: &mut BufReader<TcpStream>, line: &str) -> String {
    writeln!(conn.get_ref(), "{line}").expect("send");
    let mut resp = String::new();
    conn.read_line(&mut resp).expect("response");
    assert!(!resp.is_empty(), "server hung up instead of answering {line}");
    resp.trim_end().to_string()
}

fn compile_line(id: u64) -> String {
    let suite = sv_workloads::benchmark("swim").expect("suite");
    CompileRequest {
        loop_text: suite.loops[0].to_string(),
        ..CompileRequest::default()
    }
    .to_wire(id)
}

/// Shut the server down via a fresh connection and join everything.
fn shutdown(addr: SocketAddr, batcher: Arc<Batcher>, h: std::thread::JoinHandle<std::io::Result<()>>) {
    let mut conn = connect(addr);
    let ack = call(&mut conn, "{\"verb\":\"shutdown\",\"id\":99}");
    assert!(ack.contains("\"ok\":true"), "{ack}");
    h.join().expect("server thread").expect("serve");
    Arc::try_unwrap(batcher).ok().expect("all conns joined").join().expect("drain");
}

#[test]
fn accept_loop_survives_client_disconnect() {
    let (addr, batcher, h) = start(DEFAULT_MAX_CLIENTS);
    let first = {
        let mut conn = connect(addr);
        call(&mut conn, &compile_line(1))
        // `conn` drops here: EOF at the server.
    };
    assert!(first.contains("\"ok\":true"), "{first}");
    // The regression: a second, *sequential* connection must be served
    // (the old single-client loop exited with the first client).
    let mut conn = connect(addr);
    let second = call(&mut conn, &compile_line(1));
    assert_eq!(first, second, "same request, same bytes — now cache-warm");
    drop(conn);
    shutdown(addr, batcher, h);
}

#[test]
fn concurrent_clients_all_complete() {
    let (addr, batcher, h) = start(DEFAULT_MAX_CLIENTS);
    let workers: Vec<_> = (0..4u64)
        .map(|k| {
            std::thread::spawn(move || {
                let mut conn = connect(addr);
                let mut out = Vec::new();
                for i in 0..5u64 {
                    out.push(call(&mut conn, &compile_line(k * 100 + i)));
                }
                out
            })
        })
        .collect();
    let all: Vec<Vec<String>> = workers.into_iter().map(|w| w.join().expect("client")).collect();
    for (k, responses) in all.iter().enumerate() {
        for (i, r) in responses.iter().enumerate() {
            assert!(r.contains("\"ok\":true"), "client {k} response {i}: {r}");
            // Per-connection response order is submission order.
            assert!(
                r.contains(&format!("\"id\":{}", k as u64 * 100 + i as u64)),
                "client {k} got out-of-order response {i}: {r}"
            );
        }
    }
    shutdown(addr, batcher, h);
}

#[test]
fn connection_past_max_clients_is_refused_then_slot_reopens() {
    let (addr, batcher, h) = start(1);
    let mut first = connect(addr);
    // A served round trip guarantees the first connection occupies the
    // one slot before the second one knocks.
    let ok = call(&mut first, "{\"verb\":\"stats\",\"id\":1}");
    assert!(ok.contains("\"ok\":true"), "{ok}");
    let mut refused = connect(addr);
    let mut line = String::new();
    refused.read_line(&mut line).expect("refusal line");
    assert!(line.contains("\"kind\":\"overloaded\""), "{line}");
    assert!(line.contains("\"retry_after_ms\":"), "refusal must carry the hint: {line}");
    drop(refused);
    drop(first);
    // Once the first client leaves, its slot must become available again
    // (the accept loop reaps finished connection threads lazily).
    let mut served = false;
    for _ in 0..50 {
        let mut retry = connect(addr);
        let mut resp = String::new();
        writeln!(retry.get_ref(), "{{\"verb\":\"stats\",\"id\":2}}").expect("send");
        retry.read_line(&mut resp).expect("line");
        if resp.contains("\"ok\":true") {
            served = true;
            break;
        }
        assert!(resp.contains("\"overloaded\""), "unexpected refusal shape: {resp}");
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(served, "slot never reopened after the first client left");
    shutdown(addr, batcher, h);
}

#[test]
fn a_refused_client_that_writes_first_still_reads_the_typed_line() {
    let (addr, batcher, h) = start(1);
    let mut first = connect(addr);
    let ok = call(&mut first, "{\"verb\":\"stats\",\"id\":1}");
    assert!(ok.contains("\"ok\":true"), "{ok}");
    // A request still unread when the server closes would reset the
    // connection, failing the client's next write or read.
    for i in 0..200 {
        let mut conn = connect(addr);
        writeln!(conn.get_ref(), "{}", compile_line(i)).expect("send");
        std::thread::sleep(Duration::from_millis(1));
        let refusal = call(&mut conn, &compile_line(i));
        assert!(refusal.contains("\"kind\":\"overloaded\""), "try {i}: {refusal}");
    }
    let ack = call(&mut first, "{\"verb\":\"shutdown\",\"id\":99}");
    assert!(ack.contains("\"ok\":true"), "{ack}");
    drop(first);
    h.join().expect("server thread").expect("serve");
    Arc::try_unwrap(batcher).ok().expect("all conns joined").join().expect("drain");
}

#[test]
fn a_client_that_never_reads_stalls_only_itself() {
    let (addr, batcher, h) = start(DEFAULT_MAX_CLIENTS);
    let unread = stall_a_reader(addr);
    // Responses to other clients wait at most one write timeout.
    let second = Duration::from_secs(1);
    let stats = call_within(addr, "{\"verb\":\"stats\",\"id\":1}", second);
    assert!(stats.contains("\"ok\":true"), "{stats}");
    let compiled = call_within(addr, &compile_line(2), second);
    assert!(compiled.contains("\"ok\":true"), "{compiled}");
    // The failed write shut the unread connection down.
    assert_closed_by_daemon(unread);
    shutdown(addr, batcher, h);
}

/// A `stats` request padded with spaces to exactly `len` bytes.
fn padded_stats(id: u64, len: usize) -> String {
    let mut line = format!("{{\"verb\":\"stats\",\"id\":{id}}}");
    line.push_str(&" ".repeat(len - line.len()));
    line
}

#[test]
fn over_long_request_line_is_refused_and_closes_the_connection() {
    let (addr, batcher, h) = start(DEFAULT_MAX_CLIENTS);
    let mut conn = connect(addr);
    let at_limit = call(&mut conn, &padded_stats(1, MAX_LINE_BYTES));
    assert!(at_limit.contains("\"ok\":true"), "a line of exactly the limit is served: {at_limit}");
    let refusal = call(&mut conn, &padded_stats(2, MAX_LINE_BYTES + 1));
    assert!(refusal.contains("\"kind\":\"bad_request\""), "{refusal}");
    assert!(refusal.contains(&MAX_LINE_BYTES.to_string()), "must name the limit: {refusal}");
    let mut rest = String::new();
    assert_eq!(conn.read_line(&mut rest).expect("eof"), 0, "connection must close: {rest}");
    drop(conn);
    // Only that connection is lost.
    let mut other = connect(addr);
    let ok = call(&mut other, "{\"verb\":\"stats\",\"id\":3}");
    assert!(ok.contains("\"ok\":true"), "{ok}");
    drop(other);
    shutdown(addr, batcher, h);
}

/// Replace every number (integer or decimal) with `N`: the metrics
/// object's *shape* — keys, nesting, ordering — is the wire contract;
/// the gauges are free-running.
fn mask_numbers(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        if c.is_ascii_digit() {
            while chars.peek().is_some_and(|n| n.is_ascii_digit() || *n == '.') {
                chars.next();
            }
            out.push('N');
        } else {
            out.push(c);
        }
    }
    out
}

#[test]
fn metrics_over_tcp_matches_golden_shape() {
    let (addr, batcher, h) = start(DEFAULT_MAX_CLIENTS);
    let mut conn = connect(addr);
    // Touch every phase so the latency histograms are non-trivially
    // populated (values are masked; presence is what's pinned).
    for i in 0..3u64 {
        let r = call(&mut conn, &compile_line(i));
        assert!(r.contains("\"ok\":true"), "{r}");
    }
    let metrics = call(&mut conn, "{\"verb\":\"metrics\",\"id\":7}");
    assert!(metrics.contains("\"ok\":true"), "{metrics}");
    let fresh = format!("{}\n", mask_numbers(&metrics));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let path = format!("{}/tests/golden/metrics.txt", env!("CARGO_MANIFEST_DIR"));
        std::fs::create_dir_all(format!("{}/tests/golden", env!("CARGO_MANIFEST_DIR")))
            .expect("golden dir");
        std::fs::write(&path, &fresh).expect("write golden");
    } else {
        assert_eq!(
            fresh,
            include_str!("golden/metrics.txt"),
            "metrics shape drifted; if intentional, re-bless with \
             UPDATE_GOLDEN=1 cargo test -p sv-serve --test server"
        );
    }
    drop(conn);
    shutdown(addr, batcher, h);
}
