//! `chaos` — seeded fault-injection soak for the serving stack.
//!
//! For every seed in `--seeds A..B`, builds a disk-backed serving stack
//! (cache + service + supervised batcher) with the full
//! [`FaultConfig::soak`] mix armed — injected disk I/O errors, torn
//! writes, orphaned temporaries, compile panics, slow compiles, drainer
//! deaths, queue stalls, connection drops, greedy client bursts — pushes
//! cold and warm request waves, a retrying-client wave, and a
//! multi-client burst wave (several registered fair-share identities
//! submitting concurrently, with injected bursts) through it, and
//! asserts the invariants the chaos-hardening work guarantees:
//!
//! * **exactly-once** — every submitted request gets exactly one
//!   response, none lost, none duplicated, in-order per sink — including
//!   across concurrently submitting clients whose items interleave in
//!   the round-robin drain and in post-crash requeues;
//! * **byte-identity** — every `ok` response is byte-identical to the
//!   fault-free control run's bytes (faults may fail a request with a
//!   typed error, but may never change what a success looks like);
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
use sv_core::{CacheConfig, CompileCache};
use sv_serve::proto::ok_response;
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

/// One capture sink per request: a buffer the drainer writes the
/// response line(s) into, inspected after join.
fn capture() -> (Sink, Arc<Mutex<Vec<u8>>>) {
    let buf = Arc::new(Mutex::new(Vec::new()));
    (buf.clone() as Sink, buf)
}

/// The per-sink response lines (exactly one, if exactly-once holds).
fn lines_of(buf: &Arc<Mutex<Vec<u8>>>) -> Vec<String> {
    String::from_utf8_lossy(&buf.lock().unwrap())
        .lines()
        .map(str::to_string)
        .collect()
}

/// Check one captured response against the control body: exactly one
/// line, correct id, and — when `ok` — byte-identical to the fault-free
/// rendering. Returns whether it was an `ok`.
fn check_response(seed: u64, id: u64, buf: &Arc<Mutex<Vec<u8>>>, control: &str) -> bool {
    let lines = lines_of(buf);
    assert_eq!(
        lines.len(),
        1,
        "seed {seed}: request {id} got {} responses (exactly-once violated): {lines:?}",
        lines.len()
    );
    let line = &lines[0];
    assert!(
        line.starts_with(&format!("{{\"id\":{id},")),
        "seed {seed}: response id mismatch for request {id}: {line}"
    );
    if line.contains("\"ok\":true") {
        assert_eq!(
            line,
            &ok_response(id, control),
            "seed {seed}: ok bytes for request {id} diverged from the fault-free control"
        );
        true
    } else {
        assert!(
            line.contains("\"kind\":\"internal\""),
            "seed {seed}: request {id} failed with an unexpected kind (only injected \
             compile panics may fail requests here): {line}"
        );
        false
    }
}

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
    // Cold + warm direct waves: ids 0..n and n..2n, one capture sink
    // per request so exactly-once is checkable per request.
    let mut sinks = Vec::new();
    for wave in 0..2u64 {
        for (i, r) in reqs.iter().enumerate() {
            let id = wave * n + i as u64;
            let (sink, buf) = capture();
            batcher
                .submit(Request::Compile { id, req: Box::new(r.clone()) }, sink)
                .unwrap_or_else(|e| panic!("seed {seed}: admission rejected id {id}: {e}"));
            sinks.push((id, i, buf));
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
    // is held to the same exactly-once + byte-identity bar as the
    // direct waves. Ids 3n.. are partitioned per thread so a duplicate
    // or cross-wiring is unmistakable.
    let mut burst_admitted = 0u64;
    let mut burst_rejected = 0u64;
    let threads: Vec<_> = (0..BURST_CLIENTS)
        .map(|t| {
            let b = Arc::clone(&batcher);
            let plan = Arc::clone(&plan);
            let reqs = reqs.to_vec();
            std::thread::spawn(move || {
                let cid = b.register_client();
                let mut admitted = Vec::new();
                let mut rejected = 0u64;
                let mut seq = 0u64;
                for (i, r) in reqs.iter().enumerate() {
                    let copies = plan.client_burst().max(1);
                    for _ in 0..copies {
                        let id = 3 * n + t * 100_000 + seq;
                        seq += 1;
                        let (sink, buf) = capture();
                        match b.submit_for(
                            cid,
                            Request::Compile { id, req: Box::new(r.clone()) },
                            sink,
                        ) {
                            Ok(()) => admitted.push((id, i, buf)),
                            Err(sv_serve::ServeError::Overloaded { .. }) => rejected += 1,
                            Err(e) => panic!(
                                "seed {seed}: burst client {t} id {id} rejected with an \
                                 untyped error: {e}"
                            ),
                        }
                    }
                }
                b.deregister_client(cid);
                (admitted, rejected)
            })
        })
        .collect();
    for th in threads {
        let (admitted, rejected) = th.join().expect("burst client thread");
        burst_admitted += admitted.len() as u64;
        burst_rejected += rejected;
        sinks.extend(admitted);
    }

    // Liveness: the daemon must finish alive — a typed Err here means
    // the supervisor hit its fruitless-restart bound, which the soak mix
    // must never cause.
    Arc::try_unwrap(batcher)
        .ok()
        .expect("sole batcher owner")
        .join()
        .unwrap_or_else(|e| panic!("seed {seed}: daemon died: {e}"));

    // Exactly-once + byte-identity for the direct waves.
    let mut ok = 0u64;
    let mut internal = 0u64;
    for (id, i, buf) in &sinks {
        if check_response(seed, *id, buf, &control[*i]) {
            ok += 1;
        } else {
            internal += 1;
        }
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
        ok,
        internal,
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
        let msg = info.payload().downcast_ref::<&str>().map(|s| s.to_string()).or_else(|| {
            info.payload().downcast_ref::<String>().cloned()
        });
        if !msg.as_deref().is_some_and(|m| m.contains("injected")) {
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
        "chaos: {n_seeds} seeds × {} requests: {ok} ok + {internal} typed-internal direct \
         responses (exactly-once held), {client_ok} client oks ({retries} retries, \
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
