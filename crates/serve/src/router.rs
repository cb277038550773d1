//! Shard-by-canonical-hash multi-process mode.
//!
//! A router is a lightweight front process over N independent `svd`
//! instances ("shards"). Every compile request is forwarded to the shard
//! selected by its **v2 canonical request key** —
//! [`sv_core::request_key`], the pure hash of (canonical loop, canonical
//! machine encoding, canonical driver config) that already keys the
//! compile cache. Two consequences fall out of the key being a pure
//! function of the request:
//!
//! * **routing is only cache locality** — any shard computes the
//!   byte-identical response for any request, so failover to a different
//!   shard is always *correct*, it merely costs a cold compile;
//! * **repeat traffic concentrates** — identical requests always land on
//!   the same shard, so each shard's two-tier cache sees the full repeat
//!   rate of its slice of the keyspace.
//!
//! Per-shard health is tracked from live forwarding outcomes plus
//! explicit [`Router::health_check`] probes (a `stats` round-trip).
//! A request whose keyed shard fails is failed over through the
//! remaining shards in ring order; only when every shard refuses does
//! the client see a typed `unavailable` error. `shutdown` is broadcast
//! to all shards, acked to the client, and then shuts the router down.

use crate::json::escape;
use crate::proto::{
    error_response, ok_response, parse_request, CompileRequest, Request, ServeError,
};
use crate::wire::{self, Upstream};
use std::net::{TcpListener, TcpStream};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, Ordering};
use sv_machine::MachineRegistry;

struct Shard {
    addr: String,
    healthy: AtomicBool,
}

/// The routing front process: pure-hash shard selection, health
/// tracking, typed failover.
pub struct Router {
    shards: Vec<Shard>,
    registry: MachineRegistry,
    max_clients: usize,
    closed: AtomicBool,
}

impl Router {
    /// Build a router over shard addresses (each a running `svd --tcp`).
    /// The registry must resolve the same machine names the shards do,
    /// so named requests key identically on both sides. At most
    /// `max_clients` client connections are served at once, as by a
    /// [`crate::Server`].
    pub fn new(addrs: Vec<String>, registry: MachineRegistry, max_clients: usize) -> Router {
        assert!(!addrs.is_empty(), "a router needs at least one shard");
        Router {
            shards: addrs
                .into_iter()
                .map(|addr| Shard { addr, healthy: AtomicBool::new(true) })
                .collect(),
            registry,
            max_clients,
            closed: AtomicBool::new(false),
        }
    }

    /// The shard index a compile request keys to: its v2 canonical
    /// request key modulo the shard count. Requests the router cannot
    /// resolve (unparseable loop, unknown machine) go to shard 0 —
    /// every shard renders the identical typed error, so the fallback
    /// only needs to be deterministic.
    pub fn shard_for(&self, req: &CompileRequest) -> usize {
        let n = self.shards.len() as u128;
        let Ok(looop) = sv_ir::parse_loop(&req.loop_text) else { return 0 };
        let Ok(machine) = req.machine_config(&self.registry) else { return 0 };
        let key = sv_core::request_key(&looop, &machine, &req.driver_config());
        (key.0 % n) as usize
    }

    /// Probe every shard with a `stats` round-trip, updating and
    /// returning the per-shard health flags.
    pub fn health_check(&self) -> Vec<bool> {
        self.shards
            .iter()
            .map(|s| {
                let up = Upstream::new(s.addr.as_str())
                    .call("{\"verb\":\"stats\",\"id\":0}")
                    .map(|resp| resp.contains("\"ok\":true"))
                    .unwrap_or(false);
                s.healthy.store(up, Ordering::Relaxed);
                up
            })
            .collect()
    }

    /// Whether the router has been shut down (a routed `shutdown` verb).
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Relaxed)
    }

    /// Forward `line` starting at shard `target`, failing over through
    /// the remaining shards in ring order. Health flags are updated from
    /// the outcomes.
    ///
    /// # Errors
    ///
    /// [`ServeError::Unavailable`] when every shard fails.
    fn forward(
        &self,
        conns: &mut [Upstream],
        target: usize,
        line: &str,
    ) -> Result<String, ServeError> {
        let n = self.shards.len();
        for k in 0..n {
            let i = (target + k) % n;
            match try_shard(&mut conns[i], line) {
                Ok(resp) => {
                    self.shards[i].healthy.store(true, Ordering::Relaxed);
                    return Ok(resp);
                }
                Err(_) => self.shards[i].healthy.store(false, Ordering::Relaxed),
            }
        }
        Err(ServeError::Unavailable {
            message: format!("all {n} shard(s) failed for this request"),
        })
    }

    /// The first shard currently marked healthy (stateless verbs), or
    /// shard 0 when none is.
    fn any_healthy(&self) -> usize {
        self.shards
            .iter()
            .position(|s| s.healthy.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Serve one client connection: route each line, write each response.
    fn handle_conn(&self, stream: TcpStream) {
        let mut conns: Vec<Upstream> =
            self.shards.iter().map(|s| Upstream::new(s.addr.as_str())).collect();
        wire::serve_conn(
            &stream,
            || self.is_closed(),
            |line| {
                let out = self.route_line(&mut conns, line.trim_end());
                let written = out.is_none_or(|out| wire::write_line(&mut &stream, &out).is_ok());
                if written && !self.is_closed() {
                    ControlFlow::Continue(())
                } else {
                    ControlFlow::Break(())
                }
            },
            |line| {
                let _ = wire::write_line(&mut &stream, line);
            },
        );
    }

    /// Route one request line; `None` for blank lines.
    fn route_line(&self, conns: &mut [Upstream], line: &str) -> Option<String> {
        if line.trim().is_empty() {
            return None;
        }
        let req = match parse_request(line) {
            Ok(req) => req,
            Err((id, e)) => return Some(error_response(id, &e)),
        };
        let id = req.id();
        let target = match &req {
            Request::Compile { req, .. } => self.shard_for(req),
            // A wire batch is one unit: it rides to its first member's
            // shard (an empty batch is stateless — any shard).
            Request::Batch { reqs, .. } => {
                reqs.first().map(|r| self.shard_for(r)).unwrap_or_else(|| self.any_healthy())
            }
            Request::Machines { .. } | Request::Stats { .. } | Request::Metrics { .. } => {
                self.any_healthy()
            }
            Request::Shutdown { .. } => {
                return Some(self.broadcast_shutdown(conns, line, id));
            }
        };
        Some(match self.forward(conns, target, line) {
            Ok(resp) => resp,
            Err(e) => error_response(id, &e),
        })
    }

    /// Forward `shutdown` to every shard (best effort), ack the client,
    /// and close the router.
    fn broadcast_shutdown(&self, conns: &mut [Upstream], line: &str, id: u64) -> String {
        let acked = conns.iter_mut().map(|c| try_shard(c, line)).filter(Result::is_ok).count();
        self.closed.store(true, Ordering::Relaxed);
        ok_response(
            id,
            &format!(
                "{{\"shutdown\":true,\"shards_acked\":{acked},\"shards\":{}}}",
                self.shards.len()
            ),
        )
    }

    /// Accept and route client connections until a `shutdown` is routed,
    /// on the server's accept loop.
    ///
    /// # Errors
    ///
    /// Only for listener-level setup failure.
    pub fn serve(&self, listener: TcpListener) -> std::io::Result<()> {
        wire::accept_loop(
            listener,
            self.max_clients,
            || self.is_closed(),
            // A router queues nothing to estimate a wait from: it hints
            // one reader poll interval.
            || wire::POLL.as_millis() as u64,
            |stream| self.handle_conn(stream),
        )
    }

    /// Render the router's own health view as one JSON line (logged at
    /// startup and probed by operators via `health_check`).
    pub fn health_object(&self) -> String {
        let entries: Vec<String> = self
            .shards
            .iter()
            .map(|s| {
                format!(
                    "{{\"addr\":\"{}\",\"healthy\":{}}}",
                    escape(&s.addr),
                    s.healthy.load(Ordering::Relaxed)
                )
            })
            .collect();
        format!("{{\"shards\":[{}]}}", entries.join(","))
    }
}

/// One shard attempt: a stale open connection (shard restarted, idle
/// drop) is replaced once before the shard counts as failed.
fn try_shard(conn: &mut Upstream, line: &str) -> std::io::Result<String> {
    let reused = conn.is_open();
    match conn.call(line) {
        Err(_) if reused => conn.call(line),
        result => result,
    }
}
