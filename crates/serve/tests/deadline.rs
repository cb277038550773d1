//! A request's `timeout_ms` stops a running optimal-II search.
//!
//! `tomcatv.residual` on `vl4` under the `optimal` strategy with
//! unpriced communication (`account_comm:false`) is a branch-and-bound
//! search that runs for minutes. Sent with `timeout_ms:2000`, it must be
//! answered with a typed `deadline` error within 3 s of submission. The
//! daemon has one drainer, so a `stats` request on a second connection,
//! sent 0.5 s later, waits behind that compile: it too must be answered
//! within the same 3 s. The daemon then serves an ordinary compile.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};
use sv_core::{CacheConfig, Strategy};
use sv_machine::MachineRegistry;
use sv_serve::{
    BatchConfig, Batcher, CompileRequest, Server, ServeService, DEFAULT_MAX_CLIENTS,
};

fn connect(addr: SocketAddr, read_timeout: Duration) -> BufReader<TcpStream> {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(read_timeout)).expect("timeout");
    BufReader::new(stream)
}

fn send(conn: &BufReader<TcpStream>, line: &str) {
    writeln!(conn.get_ref(), "{line}").expect("send");
}

fn recv(conn: &mut BufReader<TcpStream>, what: &str) -> String {
    let mut resp = String::new();
    conn.read_line(&mut resp).unwrap_or_else(|e| panic!("no answer to {what}: {e}"));
    assert!(!resp.is_empty(), "server hung up instead of answering {what}");
    resp.trim_end().to_string()
}

fn suite_loop(name: &str) -> String {
    let suites = sv_workloads::all_benchmarks();
    let l = suites.iter().flat_map(|s| &s.loops).find(|l| l.name == name);
    l.expect("suite loop exists").to_string()
}

#[test]
fn request_deadline_stops_a_running_search_and_frees_the_drainer() {
    let mut registry = MachineRegistry::builtin();
    let dir = format!("{}/../../examples/machines", env!("CARGO_MANIFEST_DIR"));
    registry.load_dir(std::path::Path::new(&dir)).expect("registry specs load");
    let svc = ServeService::with_registry(CacheConfig::default(), registry).expect("in memory");
    let svc = Arc::new(svc);
    let cfg = BatchConfig { jobs: 2, ..BatchConfig::default() };
    let batcher = Arc::new(Batcher::new(svc, cfg));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    let addr = listener.local_addr().expect("local addr");
    let b = Arc::clone(&batcher);
    let server = std::thread::spawn(move || Server::new(b, DEFAULT_MAX_CLIENTS).serve(listener));

    let slow = CompileRequest {
        loop_text: suite_loop("tomcatv.residual"),
        machine: "vl4".into(),
        strategy: Strategy::Optimal,
        ..CompileRequest::default()
    }
    .to_wire(1)
    .replacen(
        "{\"verb\":\"compile\",",
        "{\"verb\":\"compile\",\"account_comm\":false,\"timeout_ms\":2000,",
        1,
    );

    // Read timeouts stop the test, rather than hang it, if an answer
    // never comes.
    let window = Duration::from_secs(3);
    let start = Instant::now();
    let mut first = connect(addr, window);
    send(&first, &slow);
    std::thread::sleep(Duration::from_millis(500));
    let mut second = connect(addr, window.saturating_sub(start.elapsed()));
    send(&second, "{\"verb\":\"stats\",\"id\":2}");

    let answer = recv(&mut first, "the deadline-bound optimal compile");
    let answered = start.elapsed();
    let kind = "{\"id\":1,\"ok\":false,\"error\":{\"kind\":\"deadline\",";
    assert!(answer.starts_with(kind), "{answer}");
    assert!(answer.contains("\"pass\":\"search\""), "{answer}");
    assert!(answered < window, "deadline answer took {answered:?}");
    let stats = recv(&mut second, "stats on a second connection");
    let answered = start.elapsed();
    assert!(stats.starts_with("{\"id\":2,\"ok\":true,"), "{stats}");
    assert!(answered < window, "stats answer took {answered:?}");

    // The same daemon still compiles, and the stopped search left
    // nothing in its cache.
    let ordinary = CompileRequest {
        loop_text: sv_workloads::benchmark("swim").expect("suite").loops[0].to_string(),
        ..CompileRequest::default()
    }
    .to_wire(3);
    let mut third = connect(addr, Duration::from_secs(30));
    send(&third, &ordinary);
    let ok = recv(&mut third, "an ordinary compile");
    assert!(ok.starts_with("{\"id\":3,\"ok\":true,"), "{ok}");
    send(&third, "{\"verb\":\"stats\",\"id\":4}");
    let after = recv(&mut third, "stats after the compile");
    assert!(after.contains("\"misses\":2,"), "{after}");
    assert!(after.contains("\"entries\":1,"), "{after}");

    send(&third, "{\"verb\":\"shutdown\",\"id\":5}");
    assert!(recv(&mut third, "shutdown").contains("\"ok\":true"));
    drop((first, second, third));
    server.join().expect("server thread").expect("serve");
    Arc::try_unwrap(batcher).ok().expect("all conns joined").join().expect("drain");
}
