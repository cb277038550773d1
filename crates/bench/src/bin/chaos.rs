//! `chaos` — seeded fault-injection soak for the serving stack.
//!
//! For every seed in `--seeds A..B`, builds a disk-backed serving stack
//! (cache + service + supervised batcher) with the full
//! [`FaultConfig::soak`] mix armed — injected disk I/O errors, torn
//! writes, orphaned temporaries, compile panics, slow compiles, drainer
//! deaths, queue stalls, connection drops, greedy client bursts — pushes
//! cold and warm request waves (with a `batch` and a `stats` request
//! interleaved), a retrying-client wave, and a multi-client burst wave
//! (several registered fair-share identities submitting concurrently,
//! with injected bursts) through it, and asserts the invariants the
//! chaos-hardening work guarantees:
//!
//! * **exactly-once** — every submitted request gets exactly one
//!   response, none lost, none duplicated, in each client's submission
//!   order — including across concurrently submitting clients whose
//!   items interleave in the round-robin drain and in post-crash
//!   requeues;
//! * **byte-identity** — every `ok` compile response and every `ok`
//!   element of a `batch` response is byte-identical to the fault-free
//!   control run's bytes (faults may fail a request with a typed error,
//!   but may never change what a success looks like); `stats` is exempt,
//!   its counters legitimately differ;
//! * **liveness** — the daemon finishes alive: `join()` returns `Ok`,
//!   the supervisor never hit its fruitless-restart bound;
//! * **recovery** — a faultless reopen over the same disk directory
//!   quarantines every torn write and orphaned temporary at open, and
//!   then serves only byte-exact entries;
//! * **coverage** — across the soak, every fault class actually fired
//!   (otherwise the run proved nothing about that class).
//!
//! Any violation panics with the offending seed, so a failure replays
//! with `--seeds S..S+1`.
//!
//! ```text
//! cargo run --release -p sv-bench --bin chaos -- --seeds 0..200
//! cargo run --release -p sv-bench --bin chaos -- --seeds 17..18 --distinct 8
//! ```

use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use sv_core::{panic_message, CacheConfig, CompileCache};
use sv_serve::json::{self, Value};
use sv_serve::proto::{batch_response, ok_response};
use sv_serve::{
    BatchConfig, Batcher, CompileRequest, FaultConfig, FaultCounters, FaultPlan, InProcess,
    Request, RetryClient, RetryPolicy, ServeService, Sink,
};
use sv_workloads::all_benchmarks;

struct Opts {
    seeds: std::ops::Range<u64>,
    distinct: usize,
    jobs: usize,
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts { seeds: 0..25, distinct: 10, jobs: 2 };
    let mut args = std::env::args().skip(1);
    let next = |name: &str, args: &mut dyn Iterator<Item = String>| {
        args.next().ok_or(format!("{name} needs a value"))
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seeds" => {
                let v = next("--seeds", &mut args)?;
                let (a, b) =
                    v.split_once("..").ok_or(format!("--seeds wants A..B, got `{v}`"))?;
                let lo: u64 = a.parse().map_err(|e| format!("bad --seeds `{v}`: {e}"))?;
                let hi: u64 = b.parse().map_err(|e| format!("bad --seeds `{v}`: {e}"))?;
                if lo >= hi {
                    return Err(format!("--seeds wants a non-empty range, got `{v}`"));
                }
                opts.seeds = lo..hi;
            }
            "--distinct" => {
                let v = next("--distinct", &mut args)?;
                opts.distinct = v.parse().map_err(|e| format!("bad --distinct `{v}`: {e}"))?;
            }
            "--jobs" => {
                let v = next("--jobs", &mut args)?;
                opts.jobs = v.parse().map_err(|e| format!("bad --jobs `{v}`: {e}"))?;
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

/// The distinct request set: the first `n` suite loops (the same corpus
/// `loadgen` drives, truncated so one seed stays fast).
fn requests(n: usize) -> Vec<CompileRequest> {
    let mut out = Vec::new();
    for suite in all_benchmarks() {
        for l in &suite.loops {
            if out.len() == n {
                return out;
            }
            out.push(CompileRequest { loop_text: l.to_string(), ..CompileRequest::default() });
        }
    }
    out
}

/// One capture sink per client stream: a buffer the drainer writes the
/// response lines into, inspected after join.
fn capture() -> (Sink, Arc<Mutex<Vec<u8>>>) {
    let buf = Arc::new(Mutex::new(Vec::new()));
    (buf.clone() as Sink, buf)
}

/// One request of a client stream, in submission order.
enum Sent {
    /// A compile of distinct request `i`.
    Compile { id: u64, i: usize },
    /// A `batch` of every distinct request, in order.
    Batch { id: u64 },
    /// A `stats` request.
    Stats { id: u64 },
}

/// Per-stream tallies of compile outcomes (batch elements included).
#[derive(Default)]
struct Tally {
    ok: u64,
    internal: u64,
}

/// Check one client stream's captured output: exactly one line per sent
/// request, in submission order, each held to its verb's bar.
fn check_stream(
    seed: u64,
    who: &str,
    buf: &Arc<Mutex<Vec<u8>>>,
    sent: &[Sent],
    control: &[String],
    tally: &mut Tally,
) {
    let out = String::from_utf8_lossy(&buf.lock().unwrap()).to_string();
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(
        lines.len(),
        sent.len(),
        "seed {seed}: {who} sent {} requests and got {} responses (exactly-once violated)",
        sent.len(),
        lines.len()
    );
    for (line, req) in lines.iter().zip(sent) {
        let id = match *req {
            Sent::Compile { id, .. } | Sent::Batch { id } | Sent::Stats { id } => id,
        };
        assert!(
            line.starts_with(&format!("{{\"id\":{id},")),
            "seed {seed}: {who} expected the response to request {id} next (per-client \
             order or exactly-once violated): {line}"
        );
        match *req {
            Sent::Compile { i, .. } => check_compile(seed, id, line, &control[i], tally),
            Sent::Batch { .. } => check_batch(seed, id, line, control, tally),
            Sent::Stats { .. } => assert!(
                line.starts_with(&format!("{{\"id\":{id},\"ok\":true,\"result\":{{\"cache\":")),
                "seed {seed}: stats request {id} was not answered with stats: {line}"
            ),
        }
    }
}

/// A compile response: `ok` and byte-identical to the fault-free
/// rendering, or a typed `internal` error (an injected compile panic).
fn check_compile(seed: u64, id: u64, line: &str, control: &str, tally: &mut Tally) {
    if line.contains("\"ok\":true") {
        assert_eq!(
            line,
            ok_response(id, control),
            "seed {seed}: ok bytes for request {id} diverged from the fault-free control"
        );
        tally.ok += 1;
    } else {
        assert!(
            line.contains("\"kind\":\"internal\""),
            "seed {seed}: request {id} failed with an unexpected kind (only injected \
             compile panics may fail requests here): {line}"
        );
        tally.internal += 1;
    }
}

/// A `batch` response over every distinct request: each element is the
/// control body byte for byte, or an inline typed `internal` error (an
/// injected compile panic). The expected line is re-rendered with the
/// protocol's own renderer and compared whole.
fn check_batch(seed: u64, id: u64, line: &str, control: &[String], tally: &mut Tally) {
    let v = json::parse(line).unwrap_or_else(|e| panic!("seed {seed}: batch {id}: {e}: {line}"));
    let results = v
        .get("results")
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("seed {seed}: batch {id} is not an ok batch: {line}"));
    assert_eq!(results.len(), control.len(), "seed {seed}: batch {id} element count: {line}");
    let elements: Vec<String> = results
        .iter()
        .zip(control)
        .map(|(r, body)| match r.get("kind").and_then(Value::as_str) {
            None => {
                tally.ok += 1;
                body.clone()
            }
            Some("internal") => {
                tally.internal += 1;
                let message = r.get("message").and_then(Value::as_str).unwrap_or_default();
                format!("{{\"kind\":\"internal\",\"message\":\"{}\"}}", json::escape(message))
            }
            Some(kind) => panic!("seed {seed}: batch {id} has an unexpected `{kind}` element"),
        })
        .collect();
    assert_eq!(
        line,
        batch_response(id, &elements),
        "seed {seed}: ok batch elements of {id} diverged from the fault-free control"
    );
}

/// Ids of the interleaved `batch` and `stats` requests, far above every
/// compile wave's ids.
const BATCH_ID: u64 = 1 << 40;
const STATS_ID: u64 = BATCH_ID + 1;

struct SeedOutcome {
    injected: FaultCounters,
    ok: u64,
    internal: u64,
    client_ok: u64,
    client_give_ups: u64,
    client_retries: u64,
    burst_admitted: u64,
    burst_rejected: u64,
}

/// How many concurrent fair-share identities the burst wave registers.
const BURST_CLIENTS: u64 = 3;

/// Run one fully-faulted seed and check every invariant.
fn run_seed(seed: u64, reqs: &[CompileRequest], control: &[String], jobs: usize) -> SeedOutcome {
    let dir = std::env::temp_dir().join(format!("sv-chaos-{}-{seed}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let plan = Arc::new(FaultPlan::new(seed, FaultConfig::soak()));
    let cache_cfg = CacheConfig {
        disk_dir: Some(dir.clone()),
        faults: Some(plan.clone()),
        ..CacheConfig::default()
    };
    let mut svc = ServeService::new(cache_cfg).expect("open faulted cache");
    svc.set_faults(Arc::clone(&plan));
    let batcher = Arc::new(Batcher::with_faults(
        Arc::new(svc),
        BatchConfig { jobs, ..BatchConfig::default() },
        Some(Arc::clone(&plan)),
    ));

    let n = reqs.len() as u64;
    // Cold + warm direct waves as the default client: compile ids 0..n
    // and n..2n, a `batch` of every request halfway through the cold
    // wave and a `stats` halfway through the warm one. One capture sink
    // for the whole stream, so exactly-once and submission order are
    // both checkable.
    let (direct_sink, direct_buf) = capture();
    let mut direct = Vec::new();
    let mut submit = |request: Request, sent: Sent| {
        let id = request.id();
        batcher
            .submit(request, Arc::clone(&direct_sink))
            .unwrap_or_else(|e| panic!("seed {seed}: admission rejected id {id}: {e}"));
        direct.push(sent);
    };
    for wave in 0..2u64 {
        for (i, r) in reqs.iter().enumerate() {
            if i == reqs.len() / 2 {
                if wave == 0 {
                    let batch = Request::Batch { id: BATCH_ID, reqs: reqs.to_vec() };
                    submit(batch, Sent::Batch { id: BATCH_ID });
                } else {
                    submit(Request::Stats { id: STATS_ID }, Sent::Stats { id: STATS_ID });
                }
            }
            let id = wave * n + i as u64;
            submit(Request::Compile { id, req: Box::new(r.clone()) }, Sent::Compile { id, i });
        }
    }

    // Client wave: the retrying client over an in-process transport with
    // injected connection drops — ids 2n.., retried transparently.
    let mut client = RetryClient::new(
        InProcess::with_faults(Arc::clone(&batcher), Arc::clone(&plan)),
        RetryPolicy { seed, ..RetryPolicy::default() },
    );
    let mut client_ok = 0u64;
    for (i, r) in reqs.iter().enumerate() {
        let id = 2 * n + i as u64;
        match client.call(&r.to_wire(id), None) {
            Ok(line) => {
                if line.contains("\"ok\":true") {
                    assert_eq!(
                        line,
                        ok_response(id, &control[i]),
                        "seed {seed}: client ok bytes for id {id} diverged from control"
                    );
                    client_ok += 1;
                } else {
                    assert!(
                        line.contains("\"kind\":\"internal\""),
                        "seed {seed}: client id {id} unexpected error: {line}"
                    );
                }
            }
            Err(e) => panic!(
                "seed {seed}: client id {id} exhausted {} retries: {e}",
                RetryPolicy::default().max_retries
            ),
        }
    }
    let client_stats = client.stats();
    drop(client);

    // Burst wave: several registered fair-share identities submitting
    // concurrently, with the plan occasionally turning one submission
    // into a greedy back-to-back burst. Quota rejections are legal (and
    // must be the typed overloaded error); every *admitted* submission
    // is held to the same exactly-once, in-order and byte-identity bar
    // as the direct waves, through one sink per client. Ids 3n.. are
    // partitioned per thread so a duplicate or cross-wiring is
    // unmistakable.
    let mut burst_admitted = 0u64;
    let mut burst_rejected = 0u64;
    let threads: Vec<_> = (0..BURST_CLIENTS)
        .map(|t| {
            let b = Arc::clone(&batcher);
            let plan = Arc::clone(&plan);
            let reqs = reqs.to_vec();
            std::thread::spawn(move || {
                let cid = b.register_client();
                let (sink, buf) = capture();
                let mut admitted = Vec::new();
                let mut rejected = 0u64;
                let mut seq = 0u64;
                for (i, r) in reqs.iter().enumerate() {
                    let copies = plan.client_burst().max(1);
                    for _ in 0..copies {
                        let id = 3 * n + t * 100_000 + seq;
                        seq += 1;
                        match b.submit_for(
                            cid,
                            Request::Compile { id, req: Box::new(r.clone()) },
                            Arc::clone(&sink),
                        ) {
                            Ok(()) => admitted.push(Sent::Compile { id, i }),
                            Err(sv_serve::ServeError::Overloaded { .. }) => rejected += 1,
                            Err(e) => panic!(
                                "seed {seed}: burst client {t} id {id} rejected with an \
                                 untyped error: {e}"
                            ),
                        }
                    }
                }
                b.deregister_client(cid);
                (admitted, buf, rejected)
            })
        })
        .collect();
    let mut bursts = Vec::new();
    for th in threads {
        let (admitted, buf, rejected) = th.join().expect("burst client thread");
        burst_admitted += admitted.len() as u64;
        burst_rejected += rejected;
        bursts.push((admitted, buf));
    }

    // Liveness: the daemon must finish alive — a typed Err here means
    // the supervisor hit its fruitless-restart bound, which the soak mix
    // must never cause.
    Arc::try_unwrap(batcher)
        .ok()
        .expect("sole batcher owner")
        .join()
        .unwrap_or_else(|e| panic!("seed {seed}: daemon died: {e}"));

    // Exactly-once, per-client order and byte-identity for the direct
    // stream and every burst client's stream.
    let mut tally = Tally::default();
    check_stream(seed, "the direct stream", &direct_buf, &direct, control, &mut tally);
    for (t, (admitted, buf)) in bursts.iter().enumerate() {
        check_stream(seed, &format!("burst client {t}"), buf, admitted, control, &mut tally);
    }

    // Crash-safe recovery: a faultless reopen sweeps the directory —
    // every torn write and orphaned temporary is moved aside — and then
    // serves only byte-exact entries.
    let clean = CompileCache::new(CacheConfig { disk_dir: Some(dir.clone()), ..CacheConfig::default() })
        .expect("faultless reopen");
    let report = clean.recovery();
    let injected = plan.injected();
    assert!(
        report.orphans <= injected.orphan_tmps,
        "seed {seed}: recovery found more orphans ({}) than were injected ({})",
        report.orphans,
        injected.orphan_tmps
    );
    for entry in std::fs::read_dir(&dir).unwrap_or_else(|e| panic!("seed {seed}: {e}")) {
        let path = entry.unwrap().path();
        let name = path.to_string_lossy().to_string();
        assert!(
            !name.contains(".svc.tmp") || name.ends_with(".quarantined"),
            "seed {seed}: live tmp file survived recovery: {name}"
        );
    }
    drop(clean);
    let svc = ServeService::new(CacheConfig {
        disk_dir: Some(dir.clone()),
        ..CacheConfig::default()
    })
    .expect("faultless service");
    for (i, r) in reqs.iter().enumerate() {
        let (body, _) = svc
            .compile_body(r)
            .unwrap_or_else(|e| panic!("seed {seed}: post-recovery compile failed: {e}"));
        assert_eq!(
            body.as_ref(),
            control[i],
            "seed {seed}: post-recovery bytes for request {i} diverged (a torn write \
             survived the sweep)"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);

    SeedOutcome {
        injected,
        ok: tally.ok,
        internal: tally.internal,
        client_ok,
        client_give_ups: client_stats.give_ups,
        client_retries: client_stats.retries,
        burst_admitted,
        burst_rejected,
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("chaos: {e}");
            eprintln!("usage: chaos [--seeds A..B] [--distinct N] [--jobs N]");
            return ExitCode::from(2);
        }
    };
    // Injected panics are expected traffic here: silence their default
    // backtrace spam, but keep real (un-injected) panics loud.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if !panic_message(info.payload()).contains("injected") {
            default_hook(info);
        }
    }));

    let reqs = requests(opts.distinct);
    // The fault-free control: canonical bodies, independent of any seed.
    let control_svc = ServeService::in_memory();
    let control: Vec<String> = reqs
        .iter()
        .map(|r| control_svc.compile_body(r).expect("control compile").0.to_string())
        .collect();

    let mut total = FaultCounters::default();
    let (mut ok, mut internal, mut client_ok, mut give_ups, mut retries) = (0, 0, 0, 0, 0);
    let (mut burst_admitted, mut burst_rejected) = (0u64, 0u64);
    let seeds = opts.seeds.clone();
    for seed in seeds {
        let o = run_seed(seed, &reqs, &control, opts.jobs);
        total.disk_reads += o.injected.disk_reads;
        total.disk_writes += o.injected.disk_writes;
        total.torn_writes += o.injected.torn_writes;
        total.orphan_tmps += o.injected.orphan_tmps;
        total.compile_panics += o.injected.compile_panics;
        total.slow_compiles += o.injected.slow_compiles;
        total.drainer_panics += o.injected.drainer_panics;
        total.queue_stalls += o.injected.queue_stalls;
        total.conn_drops += o.injected.conn_drops;
        total.client_bursts += o.injected.client_bursts;
        ok += o.ok;
        internal += o.internal;
        client_ok += o.client_ok;
        give_ups += o.client_give_ups;
        retries += o.client_retries;
        burst_admitted += o.burst_admitted;
        burst_rejected += o.burst_rejected;
    }
    let n_seeds = opts.seeds.end - opts.seeds.start;
    println!(
        "chaos: {n_seeds} seeds × {} compiles + 1 batch + 1 stats: {ok} ok + {internal} \
         typed-internal compile results (direct, batch elements and concurrent clients; \
         exactly-once and per-client order held), {client_ok} client oks ({retries} retries, \
         {give_ups} give-ups), {burst_admitted} concurrent-client admissions \
         ({burst_rejected} typed quota rejections), {} faults injected",
        reqs.len() * 2,
        total.total()
    );
    println!(
        "chaos: injected per class: disk_reads={} disk_writes={} torn={} orphans={} \
         compile_panics={} slow={} drainer_panics={} stalls={} conn_drops={} bursts={}",
        total.disk_reads,
        total.disk_writes,
        total.torn_writes,
        total.orphan_tmps,
        total.compile_panics,
        total.slow_compiles,
        total.drainer_panics,
        total.queue_stalls,
        total.conn_drops,
        total.client_bursts
    );
    // Coverage: a class that never fired proved nothing. Require a
    // reasonably sized soak before enforcing (a 1-seed repro run is for
    // debugging one seed, not coverage).
    if n_seeds >= 20 {
        assert!(total.disk_reads > 0, "soak never injected a disk read fault");
        assert!(total.disk_writes > 0, "soak never injected a disk write error");
        assert!(total.torn_writes > 0, "soak never injected a torn write");
        assert!(total.orphan_tmps > 0, "soak never injected an orphaned tmp");
        assert!(total.compile_panics > 0, "soak never injected a compile panic");
        assert!(total.slow_compiles > 0, "soak never injected a slow compile");
        assert!(total.drainer_panics > 0, "soak never injected a drainer panic");
        assert!(total.queue_stalls > 0, "soak never injected a queue stall");
        assert!(total.conn_drops > 0, "soak never injected a connection drop");
        assert!(total.client_bursts > 0, "soak never injected a client burst");
    }
    println!("chaos: all invariants held (exactly-once, byte-identity, liveness, recovery)");
    ExitCode::SUCCESS
}
