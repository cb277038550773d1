//! # sv-serve — a cache-fronted batched compilation service
//!
//! Autotuners and design-space explorers call the selective-vectorization
//! pipeline as a *service*: thousands of `(loop, machine, config)`
//! requests, heavily repeated, latency-sensitive. This crate wraps
//! [`sv_core`]'s cache-fronted driver in a newline-delimited JSON
//! protocol served by the `svd` binary over stdin/stdout or TCP:
//!
//! * [`json`] — a dependency-free JSON reader/writer for the wire;
//! * [`proto`] — request/response types, the typed [`proto::ServeError`]
//!   taxonomy, and the wire renderings;
//! * [`service`] — decode → [`sv_core::compile_cached`] → canonical body;
//! * [`batch`] — the bounded multi-tenant queue and its *supervised*
//!   batching drainer: per-client fair admission, round-robin
//!   drain, per-entry panic isolation, exactly-once response accounting
//!   across drainer deaths;
//! * [`server`] — the multi-client TCP front door: per-connection
//!   client identities, `--max-clients` bounding, EOF-survival;
//! * [`router`] — the shard-by-canonical-hash front process for
//!   multi-instance mode: pure-hash routing on the v2 request key,
//!   per-shard health checks, typed failover;
//! * `wire` (private) — the one line transport of both and of the client;
//! * [`metrics`] — lock-free latency histograms and the `metrics` verb's
//!   canonical rendering;
//! * [`faults`] — seeded, deterministic fault injection (disk I/O errors,
//!   torn writes, compile panics, drainer deaths, stalls, connection
//!   drops, greedy-client bursts) driving the `chaos` soak in `sv-bench`;
//! * [`client`] — a retrying client (server-hinted `retry_after_ms`
//!   backoff when offered, capped exponential backoff with jitter
//!   otherwise, deadline-budget aware) used by `svc --server` and
//!   `loadgen`.
//!
//! The load-generator client (`loadgen`) and the `chaos` soak live in
//! `sv-bench`, next to the other measurement binaries.
//!
//! ## Guarantees
//!
//! * **Byte-determinism** — identical requests produce byte-identical
//!   result objects: cold, from memory, from disk, at any `--jobs`.
//! * **Bounded memory** — the queue rejects (`overloaded`) instead of
//!   buffering without limit; the cache's memory tier is LRU-bounded by
//!   entries and bytes.
//! * **Graceful degradation** — a corrupt disk-cache entry quarantines
//!   and recompiles; a compile failure answers one request, not the
//!   process.

pub mod batch;
pub mod client;
pub mod faults;
pub mod json;
pub mod metrics;
pub mod proto;
pub mod router;
pub mod server;
pub mod service;
mod wire;

pub use batch::{BatchConfig, Batcher, QueueStats, Sink, DEFAULT_CLIENT};
pub use client::{ClientError, InProcess, RetryClient, RetryPolicy, RetryStats, TcpTransport};
pub use faults::{CompileFault, FaultConfig, FaultCounters, FaultPlan};
pub use metrics::{LatencyHistogram, PhaseLatencies};
pub use proto::{parse_request, CompileRequest, Request, ServeError};
pub use router::Router;
pub use server::{serve_lines, Server, DEFAULT_MAX_CLIENTS};
pub use service::ServeService;
pub use wire::MAX_LINE_BYTES;
