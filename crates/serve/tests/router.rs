//! Router mode end to end: in-process `Server` shards behind a `Router`,
//! all on ephemeral ports.
//!
//! * a routed compile answers with the bytes of a direct compile on its
//!   keyed shard, and with the keyed shard down the other shard answers
//!   with the same bytes;
//! * with every shard down the client gets a typed `unavailable`;
//! * a routed `shutdown` reports `shards_acked` equal to the number of
//!   live shards;
//! * a connection past `max_clients` is refused with one typed
//!   `overloaded` line;
//! * a request line over `MAX_LINE_BYTES` is answered with one typed
//!   `bad_request` naming the limit and its connection is closed;
//! * a client that pipelines requests and never reads the responses
//!   stalls only its own connection, which is closed after one write
//!   timeout, while other clients are answered within 1 s.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use sv_machine::MachineRegistry;
use sv_serve::{
    BatchConfig, Batcher, CompileRequest, Request, Router, ServeService, Server,
    DEFAULT_MAX_CLIENTS, MAX_LINE_BYTES,
};

mod common;
use common::{assert_closed_by_daemon, call_within, stall_a_reader};

/// One in-process `svd --tcp` shard.
struct Shard {
    addr: SocketAddr,
    batcher: Arc<Batcher>,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Shard {
    fn start() -> Shard {
        let svc = Arc::new(ServeService::in_memory());
        let batcher = Arc::new(Batcher::new(svc, BatchConfig::default()));
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
        let addr = listener.local_addr().expect("local addr");
        let b = Arc::clone(&batcher);
        let thread =
            std::thread::spawn(move || Server::new(b, DEFAULT_MAX_CLIENTS).serve(listener));
        Shard { addr, batcher, thread }
    }

    /// Take the shard down: close its queue, join its accept loop (its
    /// listener is gone when this returns) and drain it.
    fn stop(self) {
        self.batcher.close();
        self.join();
    }

    /// Join a shard that a routed `shutdown` has closed.
    fn join(self) {
        self.thread.join().expect("shard thread").expect("serve");
        Arc::try_unwrap(self.batcher).ok().expect("all conns joined").join().expect("drain");
    }
}

/// A router over `shards` serving on an ephemeral port.
fn start_router(
    shards: Vec<String>,
    max_clients: usize,
) -> (SocketAddr, Arc<Router>, JoinHandle<std::io::Result<()>>) {
    let router = Arc::new(Router::new(shards, MachineRegistry::builtin(), max_clients));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    let addr = listener.local_addr().expect("local addr");
    let r = Arc::clone(&router);
    (addr, router, std::thread::spawn(move || r.serve(listener)))
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
    assert!(!resp.is_empty(), "hung up instead of answering");
    resp.trim_end().to_string()
}

/// An address nothing listens on.
fn dead_addr() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    listener.local_addr().expect("local addr").to_string()
}

fn compile_line(id: u64) -> String {
    let suite = sv_workloads::benchmark("swim").expect("suite");
    CompileRequest { loop_text: suite.loops[0].to_string(), ..CompileRequest::default() }
        .to_wire(id)
}

fn routed_shutdown(addr: SocketAddr, router: JoinHandle<std::io::Result<()>>) -> String {
    let ack = call(&mut connect(addr), "{\"verb\":\"shutdown\",\"id\":99}");
    router.join().expect("router thread").expect("serve");
    ack
}

#[test]
fn routed_bytes_match_the_keyed_shard_and_survive_its_failure() {
    let mut shards = vec![Shard::start(), Shard::start()];
    let addrs: Vec<String> = shards.iter().map(|s| s.addr.to_string()).collect();
    let (addr, router, handle) = start_router(addrs, DEFAULT_MAX_CLIENTS);
    let line = compile_line(1);
    let Ok(Request::Compile { req, .. }) = sv_serve::parse_request(&line) else {
        panic!("compile line parses")
    };
    let keyed = router.shard_for(&req);

    let direct = call(&mut connect(shards[keyed].addr), &line);
    assert!(direct.contains("\"ok\":true"), "{direct}");
    let routed = call(&mut connect(addr), &line);
    assert_eq!(routed, direct, "routing must not change a byte");

    shards.remove(keyed).stop();
    let failover = call(&mut connect(addr), &line);
    assert_eq!(failover, direct, "the other shard must answer with the same bytes");

    let ack = routed_shutdown(addr, handle);
    assert!(ack.contains("\"shards_acked\":1,\"shards\":2"), "one live shard of two: {ack}");
    shards.pop().expect("the live shard").join();
}

#[test]
fn every_shard_down_is_a_typed_unavailable() {
    let (addr, _router, handle) = start_router(vec![dead_addr(), dead_addr()], DEFAULT_MAX_CLIENTS);
    let resp = call(&mut connect(addr), &compile_line(5));
    assert!(resp.starts_with("{\"id\":5,\"ok\":false"), "{resp}");
    assert!(resp.contains("\"kind\":\"unavailable\""), "{resp}");
    let ack = routed_shutdown(addr, handle);
    assert!(ack.contains("\"shards_acked\":0,\"shards\":2"), "no live shard: {ack}");
}

#[test]
fn shutdown_acks_every_live_shard() {
    let shards = vec![Shard::start(), Shard::start()];
    let addrs = shards.iter().map(|s| s.addr.to_string()).collect();
    let (addr, _router, handle) = start_router(addrs, DEFAULT_MAX_CLIENTS);
    let ack = routed_shutdown(addr, handle);
    assert!(ack.contains("\"shutdown\":true,\"shards_acked\":2,\"shards\":2"), "{ack}");
    for s in shards {
        s.join(); // each shard closed on the broadcast shutdown
    }
}

#[test]
fn connection_past_max_clients_is_refused() {
    let (addr, _router, handle) = start_router(vec![dead_addr()], 1);
    let mut first = connect(addr);
    // Answered by the router itself, so the first connection surely holds
    // the one slot before the second one knocks.
    let bad = call(&mut first, "{\"id\":1}");
    assert!(bad.contains("\"kind\":\"bad_request\""), "{bad}");
    let mut refused = connect(addr);
    let mut line = String::new();
    refused.read_line(&mut line).expect("refusal line");
    assert!(line.contains("\"kind\":\"overloaded\""), "{line}");
    assert!(line.contains("\"retry_after_ms\":"), "refusal must carry the hint: {line}");
    drop(refused);
    drop(first);
    // The first client's slot reopens once it has left.
    let mut ack = String::new();
    for _ in 0..50 {
        ack = call(&mut connect(addr), "{\"verb\":\"shutdown\",\"id\":2}");
        if !ack.contains("\"overloaded\"") {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(ack.contains("\"shutdown\":true"), "slot never reopened: {ack}");
    handle.join().expect("router thread").expect("serve");
}

#[test]
fn a_refused_client_that_writes_first_still_reads_the_typed_line() {
    let (addr, _router, handle) = start_router(vec![dead_addr()], 1);
    let mut first = connect(addr);
    let bad = call(&mut first, "{\"id\":1}");
    assert!(bad.contains("\"kind\":\"bad_request\""), "{bad}");
    // A request still unread when the router closes would reset the
    // connection, failing the client's next write or read.
    for i in 0..200 {
        let mut conn = connect(addr);
        writeln!(conn.get_ref(), "{}", compile_line(i)).expect("send");
        std::thread::sleep(Duration::from_millis(1));
        let refusal = call(&mut conn, &compile_line(i));
        assert!(refusal.contains("\"kind\":\"overloaded\""), "try {i}: {refusal}");
    }
    let ack = call(&mut first, "{\"verb\":\"shutdown\",\"id\":2}");
    assert!(ack.contains("\"shutdown\":true"), "{ack}");
    drop(first);
    handle.join().expect("router thread").expect("serve");
}

#[test]
fn over_long_request_line_is_refused_and_closes_the_connection() {
    let (addr, _router, handle) = start_router(vec![dead_addr()], DEFAULT_MAX_CLIENTS);
    let mut conn = connect(addr);
    let mut line = "{\"id\":1}".to_string();
    line.push_str(&" ".repeat(MAX_LINE_BYTES + 1 - line.len()));
    let refusal = call(&mut conn, &line);
    assert!(refusal.contains("\"kind\":\"bad_request\""), "{refusal}");
    assert!(refusal.contains(&MAX_LINE_BYTES.to_string()), "must name the limit: {refusal}");
    let mut rest = String::new();
    assert_eq!(conn.read_line(&mut rest).expect("eof"), 0, "connection must close: {rest}");
    drop(conn);
    let ack = routed_shutdown(addr, handle);
    assert!(ack.contains("\"shutdown\":true"), "{ack}");
}

#[test]
fn a_client_that_never_reads_stalls_only_itself() {
    let shard = Shard::start();
    let (addr, _router, handle) = start_router(vec![shard.addr.to_string()], DEFAULT_MAX_CLIENTS);
    let unread = stall_a_reader(addr);
    let second = Duration::from_secs(1);
    let stats = call_within(addr, "{\"verb\":\"stats\",\"id\":1}", second);
    assert!(stats.contains("\"ok\":true"), "{stats}");
    let compiled = call_within(addr, &compile_line(2), second);
    assert!(compiled.contains("\"ok\":true"), "{compiled}");
    // The failed write ended the unread connection.
    assert_closed_by_daemon(unread);
    let ack = routed_shutdown(addr, handle);
    assert!(ack.contains("\"shards_acked\":1"), "{ack}");
    shard.join();
}
