//! The traced view of the TCP workloads: requests replayed in-process
//! through the same public functions `svd` calls, in the same order, one
//! span per call, plus the batcher's wait measured in-process.

use crate::metrics::Report;
use crate::stats::median;
use crate::trace::Tracer;
use std::io::Write;
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use sv_core::cache::render_result;
use sv_core::{compile_checked, request_key, CacheConfig, CompileCache};
use sv_machine::MachineRegistry;
use sv_serve::proto::ok_response;
use sv_serve::{parse_request, BatchConfig, Batcher, CompileRequest, Request, ServeService, Sink};

/// One request of the seeded plan with the exact line `svd` answered it with.
pub struct Replayed<'a> {
    pub id: u64,
    pub req: &'a CompileRequest,
    pub expected: String,
    /// Whether the request repeats a warm one (a cache hit in `svd`).
    pub hit: bool,
}

/// The path a compile request takes through `svd` once its line is read:
/// decode, then `ServeService::compile_body` (loop parse, machine
/// resolution, cache key, lookup, on a miss compile, render and insert),
/// then the response encoding.
fn serve_path(
    t: &mut Tracer,
    cache: &CompileCache,
    registry: &MachineRegistry,
    id: u64,
    wire: &str,
) -> Result<String, String> {
    t.span("serve.request", id, |t| {
        let req = match t.span("serve.proto.decode", id, |_| parse_request(wire)) {
            Ok(Request::Compile { req, .. }) => req,
            Ok(other) => return Err(format!("request {id} decoded as {other:?}")),
            Err((_, e)) => return Err(format!("request {id}: {e}")),
        };
        let l = t
            .span("ir.parse", id, |_| sv_ir::parse_loop(&req.loop_text))
            .map_err(|e| format!("request {id}: {e}"))?;
        let m = t
            .span("machine.resolve", id, |_| req.machine_config(registry))
            .map_err(|e| e.to_string())?;
        let cfg = req.driver_config();
        let key = t.span("core.cache.key", id, |_| request_key(&l, &m, &cfg));
        let body = match t.span("core.cache.lookup", id, |_| cache.lookup(key)) {
            Some((body, _)) => body,
            None => {
                let (c, rep) = t
                    .span("core.compile", id, |_| compile_checked(&l, &m, &cfg))
                    .map_err(|e| format!("request {id}: {e}"))?;
                let body: Arc<str> = t.span("core.cache.render", id, |_| {
                    render_result(key, &m, &c, &rep).into()
                });
                t.span("core.cache.insert", id, |_| {
                    cache.insert(key, Arc::clone(&body))
                });
                body
            }
        };
        Ok(t.span("serve.proto.encode", id, |_| ok_response(id, &body)))
    })
}

/// Replay `plan` in-process after warming a fresh cache with `warm`,
/// checking every response against the bytes `svd` sent. Records the
/// per-call medians and returns the median in-process path time (µs).
pub fn replay(
    report: &mut Report,
    t: &mut Tracer,
    registry: &MachineRegistry,
    warm: &[CompileRequest],
    plan: &[Replayed],
) -> Result<f64, String> {
    let cache = CompileCache::in_memory();
    let mut scratch = Tracer::new();
    for (i, r) in warm.iter().enumerate() {
        serve_path(
            &mut scratch,
            &cache,
            registry,
            i as u64,
            &r.to_wire(i as u64),
        )?;
    }
    for r in plan {
        let wire = r.req.to_wire(r.id);
        let line = serve_path(t, &cache, registry, r.id, &wire)?;
        if line != r.expected {
            report.mismatch(format!(
                "in-process replay of request {} differs from svd's bytes",
                r.id
            ));
        }
    }
    let layers = t.layers();
    for (span, metric) in [
        ("serve.proto.decode", "serve.proto.decode_us"),
        ("serve.proto.encode", "serve.proto.encode_us"),
        ("machine.resolve", "machine.resolve_us"),
        ("ir.parse", "ir.parse_us"),
        ("core.cache.key", "core.cache.key_us"),
        ("core.cache.lookup", "core.cache.lookup_us"),
        ("core.cache.render", "core.cache.render_us"),
        ("core.cache.insert", "core.cache.insert_us"),
    ] {
        report.set(metric, layers.get(span).map_or(0.0, |l| l.median_us()));
    }
    let paths: Vec<f64> = t
        .spans()
        .iter()
        .filter(|s| s.name == "serve.request")
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
        .collect();
    Ok(if paths.is_empty() {
        0.0
    } else {
        median(&paths)
    })
}

/// A sink that reports each completed response line on a channel.
struct LineSink {
    pending: Vec<u8>,
    done: Sender<()>,
}

impl Write for LineSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.pending.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        if self.pending.ends_with(b"\n") {
            self.pending.clear();
            let _ = self.done.send(());
        }
        Ok(())
    }
}

/// The batcher's own wait: median time from `Batcher::submit` to the
/// response reaching its sink, one request at a time through a batcher
/// configured like `svd`'s, minus the median service time of the same
/// (cache-hit) requests called directly.
pub fn batch_wait_us(registry: &MachineRegistry, hits: &[&CompileRequest]) -> Result<f64, String> {
    let svc = Arc::new(
        ServeService::with_registry(CacheConfig::default(), registry.clone())
            .map_err(|e| e.to_string())?,
    );
    let mut service = Vec::with_capacity(hits.len());
    for pass in 0..2 {
        for r in hits {
            let t0 = Instant::now();
            svc.compile_body(r).map_err(|e| e.to_string())?;
            if pass == 1 {
                service.push(t0.elapsed().as_nanos() as f64 / 1e3);
            }
        }
    }
    let batcher = Batcher::new(
        Arc::clone(&svc),
        BatchConfig {
            jobs: 1,
            ..BatchConfig::default()
        },
    );
    let (tx, rx) = channel();
    let sink: Sink = Arc::new(Mutex::new(LineSink {
        pending: Vec::new(),
        done: tx,
    }));
    let mut waits = Vec::with_capacity(hits.len());
    for (i, r) in hits.iter().enumerate() {
        let req = parse_request(&r.to_wire(i as u64)).map_err(|(_, e)| e.to_string())?;
        let t0 = Instant::now();
        batcher
            .submit(req, Arc::clone(&sink))
            .map_err(|e| e.to_string())?;
        rx.recv()
            .map_err(|_| "the batcher dropped a response".to_string())?;
        waits.push(t0.elapsed().as_nanos() as f64 / 1e3);
    }
    batcher.join().map_err(|e| e.to_string())?;
    Ok(median(&waits) - median(&service))
}
