//! The line transport: the one place `svd` frames newline-delimited JSON.
//! Stdio, [`crate::Server`], [`crate::Router`] and [`crate::TcpTransport`]
//! all read, write, accept and connect through it.

use crate::proto::{error_response, ServeError};
use std::io::{self, BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// Longest request line a reader accepts, its newline not counted. The
/// largest lines the repository sends are about 1.6 KB (one suite loop);
/// 1 MiB leaves room for wire batches of hundreds of loops while
/// bounding what one connection can make the daemon buffer.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// How often a blocked connection read wakes to check whether the daemon
/// has closed, so an idle client cannot hold its thread past shutdown.
pub(crate) const POLL: Duration = Duration::from_millis(200);

/// Write one line: the body, then `\n`, then flush.
///
/// The two writes are deliberate. Without `TCP_NODELAY`, Nagle holds the
/// lone `\n` segment until the peer's delayed ACK, which is most of
/// svbench `warm_hits`' 44 ms round trip. But one write per line measured
/// worse on a 2-core host (svbench `mixed`, 5 alternating pairs): p50 a
/// median +15% and p90 +23%, and `TCP_NODELAY` did not recover it, while
/// `warm_hits` p50 fell to 2.2 ms. That trade needs its own measured
/// change; this is the one place to make it.
pub(crate) fn write_line<W: Write + ?Sized>(w: &mut W, body: &str) -> io::Result<()> {
    w.write_all(body.as_bytes())?;
    w.write_all(b"\n")?;
    w.flush()
}

/// A read that may succeed if tried again after checking `closed()`.
fn timed_out(e: &io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted)
}

/// Hand each line of `input` to `on_line`, without its `\n` or `\r\n`,
/// until end of input, a read error, a line that is not UTF-8, `on_line`
/// breaking, or a timed-out read finding `closed()`.
///
/// # Errors
///
/// The typed `bad_request` answer for a line over [`MAX_LINE_BYTES`],
/// which stops the reader before it buffers more.
pub(crate) fn read_lines(
    input: impl Read,
    closed: impl Fn() -> bool,
    mut on_line: impl FnMut(&str) -> ControlFlow<()>,
) -> Result<(), String> {
    let mut reader = BufReader::new(input);
    let mut buf = Vec::new();
    loop {
        let room = (MAX_LINE_BYTES + 1 - buf.len()) as u64;
        match (&mut reader).take(room).read_until(b'\n', &mut buf) {
            Ok(0) => return Ok(()),
            Ok(_) => {
                let body = match buf.strip_suffix(b"\n") {
                    Some(body) => body.strip_suffix(b"\r").unwrap_or(body),
                    None if buf.len() > MAX_LINE_BYTES => {
                        let message = format!("request line longer than {MAX_LINE_BYTES} bytes");
                        return Err(error_response(0, &ServeError::BadRequest { message }));
                    }
                    None => &buf, // the last line, ended by end of input
                };
                let Ok(line) = std::str::from_utf8(body) else { return Ok(()) };
                if on_line(line).is_break() {
                    return Ok(());
                }
                buf.clear();
            }
            Err(e) if timed_out(&e) && !closed() => {}
            Err(_) => return Ok(()),
        }
    }
}

/// Serve one accepted connection's lines with [`read_lines`], its reads
/// timing out every [`POLL`]. An over-long line is answered through
/// `reply` and the connection closed: the write side is shut, then input
/// is discarded until the client hangs up or the daemon closes, because
/// closing with unread input would reset the connection and could lose
/// the reply.
pub(crate) fn serve_conn(
    stream: &TcpStream,
    closed: impl Fn() -> bool,
    on_line: impl FnMut(&str) -> ControlFlow<()>,
    reply: impl FnOnce(&str),
) {
    let _ = stream.set_read_timeout(Some(POLL));
    let Err(refusal) = read_lines(stream, &closed, on_line) else { return };
    reply(&refusal);
    let _ = stream.shutdown(Shutdown::Write);
    while let Err(e) = io::copy(&mut &*stream, &mut io::sink()) {
        if !timed_out(&e) || closed() {
            return;
        }
    }
}

/// Accept connections until `closed()`, serving each with `serve` on a
/// thread of its own, at most `max_clients` live at once: the next gets
/// one typed `overloaded` line and is closed. A failed accept or a
/// panicking connection costs only that connection. Returns once every
/// connection has finished.
///
/// # Errors
///
/// Only for listener set-up failure (`set_nonblocking`).
pub(crate) fn accept_loop(
    listener: TcpListener,
    max_clients: usize,
    closed: impl Fn() -> bool,
    retry_after_ms: impl Fn() -> u64,
    serve: impl Fn(TcpStream) + Sync,
) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let serve = &serve;
    std::thread::scope(|scope| {
        let mut conns = Vec::new();
        while !closed() {
            let Ok((stream, peer)) = listener.accept() else {
                std::thread::sleep(Duration::from_millis(5));
                continue;
            };
            conns.retain(|h: &std::thread::ScopedJoinHandle<'_, ()>| !h.is_finished());
            if conns.len() >= max_clients {
                let e =
                    ServeError::Overloaded { cap: max_clients, retry_after_ms: retry_after_ms() };
                let _ = write_line(&mut &stream, &error_response(0, &e));
                continue;
            }
            let conn = move || {
                let _ = catch_unwind(AssertUnwindSafe(|| serve(stream)));
            };
            let name = format!("sv-serve-conn-{peer}");
            conns.extend(std::thread::Builder::new().name(name).spawn_scoped(scope, conn));
        }
        drop(listener); // refuse new connections while the live ones finish
    });
    Ok(())
}

/// One persistent line connection to another daemon, opened on first
/// use and dropped on any I/O error, so the next call reconnects.
pub(crate) struct Upstream {
    addr: String,
    conn: Option<BufReader<TcpStream>>,
}

impl Upstream {
    /// A connection to `host:port`, opened by the first call.
    pub(crate) fn new(addr: impl Into<String>) -> Upstream {
        Upstream { addr: addr.into(), conn: None }
    }

    /// Whether a connection is open (it may still turn out stale).
    pub(crate) fn is_open(&self) -> bool {
        self.conn.is_some()
    }

    /// Send one request line and read its response line, without the
    /// newline. A connect may take 1 s per resolved address, a response
    /// 30 s: compiles can be slow, this only bounds a dead peer.
    pub(crate) fn call(&mut self, line: &str) -> io::Result<String> {
        let conn = match &mut self.conn {
            Some(conn) => conn,
            None => self.conn.insert(connect(&self.addr)?),
        };
        let mut response = String::new();
        match write_line(&mut conn.get_ref(), line).and_then(|()| conn.read_line(&mut response)) {
            Ok(n) if n > 0 => Ok(response.trim_end_matches(['\n', '\r']).to_string()),
            failed => {
                self.conn = None; // reconnect on the next call
                Err(failed.err().unwrap_or_else(|| ErrorKind::UnexpectedEof.into()))
            }
        }
    }
}

fn connect(addr: &str) -> io::Result<BufReader<TcpStream>> {
    let mut last = io::Error::other(format!("`{addr}` resolves to no address"));
    for sock in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&sock, Duration::from_secs(1)) {
            Ok(stream) => {
                stream.set_read_timeout(Some(Duration::from_secs(30)))?;
                return Ok(BufReader::new(stream));
            }
            Err(e) => last = io::Error::new(e.kind(), format!("connect {addr}: {e}")),
        }
    }
    Err(last)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines_of(input: &[u8]) -> (Vec<String>, Result<(), String>) {
        let mut seen = Vec::new();
        let read = read_lines(
            input,
            || false,
            |line| {
                seen.push(line.to_string());
                ControlFlow::Continue(())
            },
        );
        (seen, read)
    }

    #[test]
    fn strips_line_ends_and_keeps_an_unterminated_last_line() {
        let (seen, read) = lines_of(b"a\r\nb\n\nc");
        assert!(read.is_ok());
        assert_eq!(seen, ["a", "b", "", "c"]);
    }

    #[test]
    fn a_line_at_the_limit_is_read_and_one_byte_longer_stops_the_reader() {
        let mut input = vec![b'x'; MAX_LINE_BYTES];
        input.push(b'\n');
        input.extend(vec![b'y'; MAX_LINE_BYTES + 1]);
        input.extend(b"\nnever read\n");
        let (seen, read) = lines_of(&input);
        assert!(read.is_err());
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].len(), MAX_LINE_BYTES);
    }
}
