//! The multi-client TCP front door.
//!
//! Each accepted connection registers its own client identity with the
//! batcher (fair admission, round-robin service — see
//! [`crate::batch`]) and gets a dedicated reader thread; responses are
//! written back by the drainer through the connection's sink, in that
//! connection's submission order. The accept loop and line reader are
//! the line transport's (`wire`), shared with the router:
//!
//! * at most `max_clients` connections are served — one past the bound
//!   gets one typed `overloaded` line (with the live `retry_after_ms`
//!   hint) and is closed, never queued invisibly;
//! * client misbehavior — a disconnect, EOF mid-line, a failed accept
//!   handshake, a request line over [`crate::MAX_LINE_BYTES`], a client
//!   that stops reading its responses — costs only that connection; the
//!   daemon keeps serving;
//! * the loop winds down when the batcher closes (a `shutdown` verb from
//!   any client, or [`crate::Batcher::close`]): connection threads notice
//!   through a finite read timeout and exit even when their client keeps
//!   an idle connection open.

use crate::batch::{Batcher, Sink, DEFAULT_CLIENT};
use crate::proto::{error_response, parse_request};
use crate::wire;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::ops::ControlFlow;
use std::sync::{Arc, Mutex, PoisonError};

/// Connections a [`Server`] or [`crate::Router`] serves at once unless
/// told otherwise (`svd --max-clients`).
pub const DEFAULT_MAX_CLIENTS: usize = 64;

/// Write one line on a shared sink (a dead sink loses only that line).
fn respond(sink: &Sink, line: &str) {
    let _ = wire::write_line(&mut *sink.lock().unwrap_or_else(PoisonError::into_inner), line);
}

/// A connection's response writer. Its first failed write (say, none of
/// it sent within [`wire::serve_conn`]'s write timeout) shuts the socket
/// down, so later responses fail at once instead of each holding the
/// drainer for another timeout, and the reader sees end of input.
struct ConnSink(TcpStream);

impl Write for ConnSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.write(buf).inspect_err(|e| {
            if e.kind() != ErrorKind::Interrupted {
                let _ = self.0.shutdown(Shutdown::Both);
            }
        })
    }

    fn flush(&mut self) -> io::Result<()> {
        self.0.flush()
    }
}

/// Parse one request line and submit it on behalf of `client`; admission
/// failures (parse, overload, shutdown) are answered immediately on
/// `sink` without occupying the queue.
fn handle_line(batcher: &Batcher, client: u64, line: &str, sink: &Sink) -> ControlFlow<()> {
    if line.trim().is_empty() {
        return ControlFlow::Continue(());
    }
    let outcome = match parse_request(line) {
        Ok(req) => {
            let id = req.id();
            batcher.submit_for(client, req, Arc::clone(sink)).err().map(|e| (id, e))
        }
        Err((id, e)) => Some((id, e)),
    };
    if let Some((id, e)) = outcome {
        respond(sink, &error_response(id, &e));
    }
    ControlFlow::Continue(())
}

/// Read request lines from `input` as the always-registered
/// [`DEFAULT_CLIENT`], submitting each to the batcher — the stdio
/// front-end (`svd` without `--tcp`) and the test harnesses. A line over
/// [`crate::MAX_LINE_BYTES`] is answered with a typed `bad_request` and
/// ends the input.
pub fn serve_lines(input: impl Read, batcher: &Batcher, sink: &Sink) {
    let read = wire::read_lines(
        input,
        || batcher.is_closed(),
        |line| handle_line(batcher, DEFAULT_CLIENT, line, sink),
    );
    if let Err(refusal) = read {
        respond(sink, &refusal);
    }
}

/// The accept loop around a shared [`Batcher`].
pub struct Server {
    batcher: Arc<Batcher>,
    max_clients: usize,
}

impl Server {
    /// Wrap a batcher in an accept loop serving at most `max_clients`
    /// connections at once; the next is refused with a typed
    /// `overloaded` line.
    pub fn new(batcher: Arc<Batcher>, max_clients: usize) -> Server {
        Server { batcher, max_clients }
    }

    /// Accept and serve connections until the batcher closes (a
    /// `shutdown` verb or [`Batcher::close`]), then join every
    /// connection thread. The queue itself is *not* joined here — the
    /// caller still owns that (and the final drain).
    ///
    /// # Errors
    ///
    /// Only for listener-level setup failure (`set_nonblocking`);
    /// per-connection errors are contained.
    pub fn serve(&self, listener: TcpListener) -> std::io::Result<()> {
        let b = &*self.batcher;
        wire::accept_loop(
            listener,
            self.max_clients,
            || b.is_closed(),
            || b.retry_after_hint(),
            |stream| {
                // The drainer writes responses through the sink's clone;
                // a failed clone drops this client only.
                let Ok(writer) = stream.try_clone() else { return };
                let sink: Sink = Arc::new(Mutex::new(ConnSink(writer)));
                let client = b.register_client();
                wire::serve_conn(
                    &stream,
                    || b.is_closed(),
                    |line| handle_line(b, client, line, &sink),
                    |line| respond(&sink, line),
                );
                b.deregister_client(client);
            },
        )
    }
}
