//! Helpers shared by the server and router tests: a client that
//! pipelines requests and never reads, and the checks around it.

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Most `metrics` lines [`stall_a_reader`] pipelines: their responses
/// are many times what the socket buffers between daemon and client hold.
const STALL_LINES: usize = 30_000;

/// Open a connection that pipelines `metrics` requests and never reads a
/// response. A helper thread writes lines until its sends stop making
/// progress (a write fails or stalls for 250 ms) or [`STALL_LINES`] are
/// out; then the caller waits two read polls, so the responses have
/// backed up into the daemon's writes.
pub fn stall_a_reader(addr: SocketAddr) -> TcpStream {
    let unread = TcpStream::connect(addr).expect("connect");
    unread.set_write_timeout(Some(Duration::from_millis(250))).expect("timeout");
    let writer = unread.try_clone().expect("clone");
    std::thread::spawn(move || {
        (0..STALL_LINES)
            .take_while(|i| writeln!(&writer, "{{\"verb\":\"metrics\",\"id\":{i}}}").is_ok())
            .count()
    })
    .join()
    .expect("helper");
    std::thread::sleep(Duration::from_millis(400));
    unread
}

/// One request line in on a fresh connection, its response line out
/// within `limit`.
pub fn call_within(addr: SocketAddr, line: &str, limit: Duration) -> String {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(limit)).expect("timeout");
    let start = Instant::now();
    writeln!(&stream, "{line}").expect("send");
    let mut resp = String::new();
    let read = BufReader::new(stream).read_line(&mut resp);
    assert!(
        read.is_ok_and(|n| n > 0) && start.elapsed() < limit,
        "no answer to {line} within {limit:?}"
    );
    resp.trim_end().to_string()
}

/// Keep sending `metrics` lines on `conn` until the daemon has closed it
/// (a send fails with a broken pipe or a reset); fails if it is still
/// open after 10 s. Sends that only stall do not count as closed.
pub fn assert_closed_by_daemon(mut conn: TcpStream) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        match writeln!(conn, "{{\"verb\":\"metrics\",\"id\":0}}") {
            Err(e) if matches!(e.kind(), ErrorKind::BrokenPipe | ErrorKind::ConnectionReset) => {
                return;
            }
            _ => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    panic!("a client that never reads was left connected for 10 s");
}
