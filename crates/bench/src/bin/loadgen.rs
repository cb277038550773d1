//! Closed-loop load generator for the `sv-serve` compilation service.
//!
//! Builds a distinct request set — every loop of every benchmark suite
//! plus seeded broad synthetic loops — and drives the service core
//! ([`ServeService`], the same cache-fronted path `svd` serves) in three
//! phases:
//!
//! * **cold** — each distinct request once (every one a cache miss);
//! * **warm** — `--requests` seeded samples over the same set (cache
//!   hits), asserting every warm body is byte-identical to its cold one;
//! * **overload** — several closed-loop client threads drive the
//!   supervised batcher through [`RetryClient`]s while the admission
//!   queue is deliberately undersized and seeded queue stalls slow the
//!   drainer: `overloaded` rejections are real, the server-hinted
//!   retry/backoff path is exercised for every run, and every response
//!   that does land must still be byte-identical to its cold bytes.
//!
//! Reports throughput, latency percentiles, cache hit rate and retry
//! counters per phase, and writes the benchmark trajectory file
//! `BENCH_serve.json` (schema `sv-serve-bench/v4`). The phases time
//! `compile_body` in-process, so their absolute req/s and µs are
//! diagnostics of the host's load, not of what a TCP client sees (that
//! is svbench's `warm_hits`). `--check BASELINE` is the CI gate, and it
//! compares numbers one run measures against each other: the fresh
//! warm-over-cold speedup must reach [`SPEEDUP_FLOOR`] of the baseline's
//! own in-run speedup, the warm hit rate must be ≥ 0.99, the overload
//! phase must retry at least once and give up on at most half its
//! requests.
//!
//! ```text
//! cargo run --release -p sv-bench --bin loadgen                  # writes BENCH_serve.json
//! cargo run --release -p sv-bench --bin loadgen -- --check BENCH_serve.json
//! cargo run --release -p sv-bench --bin loadgen -- --emit-trace trace.jsonl
//! cargo run --release -p sv-bench --bin loadgen -- --replay trace.jsonl --server 127.0.0.1:7199
//! cargo run --release -p sv-bench --bin loadgen -- --machine-spec m.spec --disk DIR
//! ```
//!
//! `--emit-trace` skips measurement and writes the distinct requests as
//! `svd` wire lines (plus `stats` and `shutdown`) for replay tests.
//! `--replay FILE --server ADDR` sends a trace file line-by-line over
//! TCP (through the retrying client) and prints each response line to
//! stdout — the ci.sh sharding gate replays one trace through a
//! single `svd` and through a 2-shard router and diffs the bytes.
//!
//! Machine selection routes through the registry, like every other
//! layer: `--machine NAME` picks a registered machine (builtins plus
//! `--machines DIR`), `--machine-spec FILE` sends the file's text inline
//! with every request. `--disk DIR` adds a disk cache tier;
//! `--min-cold-hits F` then gates the *cold* phase's hit rate — against
//! a cache warmed by an earlier run of an equal machine, it proves
//! request-key stability end to end (the ci.sh named-vs-inline gate).
//! `--emit-machine-spec PATH` writes the resolved machine's canonical
//! spec for such a second run to mangle and replay.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use sv_core::CacheConfig;
use sv_machine::MachineRegistry;
use sv_serve::json::{self, Value};
use sv_serve::proto::ok_response;
use sv_serve::{
    BatchConfig, Batcher, CompileRequest, FaultConfig, FaultPlan, InProcess, RetryClient,
    RetryPolicy, ServeService, TcpTransport,
};
use sv_workloads::{all_benchmarks, synth_loop, SmallRng, SynthProfile};

struct Opts {
    out: String,
    check_baseline: Option<String>,
    emit_trace: Option<String>,
    replay: Option<String>,
    server: Option<String>,
    /// Warm-phase request count; 0 = 20× the distinct set.
    requests: usize,
    synth: usize,
    seed: u64,
    machine: Option<String>,
    machine_spec: Option<String>,
    machines_dir: Option<String>,
    disk: Option<String>,
    min_cold_hits: Option<f64>,
    emit_machine_spec: Option<String>,
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        out: "BENCH_serve.json".into(),
        check_baseline: None,
        emit_trace: None,
        replay: None,
        server: None,
        requests: 0,
        synth: 16,
        seed: 1,
        machine: None,
        machine_spec: None,
        machines_dir: None,
        disk: None,
        min_cold_hits: None,
        emit_machine_spec: None,
    };
    let mut args = std::env::args().skip(1);
    let next = |name: &str, args: &mut dyn Iterator<Item = String>| {
        args.next().ok_or(format!("{name} needs a value"))
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => opts.out = next("--out", &mut args)?,
            "--check" => opts.check_baseline = Some(next("--check", &mut args)?),
            "--emit-trace" => opts.emit_trace = Some(next("--emit-trace", &mut args)?),
            "--replay" => opts.replay = Some(next("--replay", &mut args)?),
            "--server" => opts.server = Some(next("--server", &mut args)?),
            "--machine" => opts.machine = Some(next("--machine", &mut args)?),
            "--machine-spec" => opts.machine_spec = Some(next("--machine-spec", &mut args)?),
            "--machines" => opts.machines_dir = Some(next("--machines", &mut args)?),
            "--disk" => opts.disk = Some(next("--disk", &mut args)?),
            "--emit-machine-spec" => {
                opts.emit_machine_spec = Some(next("--emit-machine-spec", &mut args)?);
            }
            "--min-cold-hits" => {
                let v = next("--min-cold-hits", &mut args)?;
                opts.min_cold_hits =
                    Some(v.parse().map_err(|e| format!("bad --min-cold-hits `{v}`: {e}"))?);
            }
            "--requests" => {
                let v = next("--requests", &mut args)?;
                opts.requests = v.parse().map_err(|e| format!("bad --requests `{v}`: {e}"))?;
            }
            "--synth" => {
                let v = next("--synth", &mut args)?;
                opts.synth = v.parse().map_err(|e| format!("bad --synth `{v}`: {e}"))?;
            }
            "--seed" => {
                let v = next("--seed", &mut args)?;
                opts.seed = v.parse().map_err(|e| format!("bad --seed `{v}`: {e}"))?;
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

/// The distinct request set: every suite loop (hand-written kernels and
/// `.synth` fillers alike — both are real autotuner traffic) plus
/// `synth_n` extra seeded broad synthetic loops, each carrying the
/// run's machine selection (registered name or inline spec text).
fn distinct_requests(synth_n: usize, template: &CompileRequest) -> Vec<CompileRequest> {
    let mut out = Vec::new();
    for suite in all_benchmarks() {
        for l in &suite.loops {
            out.push(CompileRequest { loop_text: l.to_string(), ..template.clone() });
        }
    }
    let profile = SynthProfile::broad();
    for seed in 0..synth_n as u64 {
        let l = synth_loop(&format!("loadgen.synth.{seed}"), &profile, seed);
        out.push(CompileRequest { loop_text: l.to_string(), ..template.clone() });
    }
    out
}

/// One measured phase of `BENCH_serve.json`.
struct Phase {
    name: &'static str,
    reqs: usize,
    rps: f64,
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
    hit_rate: f64,
    /// Client retries performed (0 for the direct cold/warm phases).
    retries: u64,
    /// Requests abandoned after the retry budget (0 for direct phases).
    give_ups: u64,
}

/// Percentile by nearest-rank over a sorted sample vector.
fn percentile(sorted_us: &[f64], p: f64) -> f64 {
    assert!(!sorted_us.is_empty());
    let rank = ((p / 100.0) * sorted_us.len() as f64).ceil() as usize;
    sorted_us[rank.clamp(1, sorted_us.len()) - 1]
}

/// Drive `svc` with `plan` (indices into `reqs`), recording latency per
/// request. Returns the phase summary and, when `record` is set, the
/// response bodies by distinct index (the cold pass records; the warm
/// pass checks against them).
fn run_phase(
    name: &'static str,
    svc: &ServeService,
    reqs: &[CompileRequest],
    plan: &[usize],
    expected: Option<&[String]>,
) -> (Phase, Vec<String>) {
    let hits_before = svc.cache().stats().hits();
    let mut bodies: Vec<String> = vec![String::new(); reqs.len()];
    let mut lat_us: Vec<f64> = Vec::with_capacity(plan.len());
    let wall = Instant::now();
    for &idx in plan {
        let t = Instant::now();
        let (body, _) = svc.compile_body(&reqs[idx]).unwrap_or_else(|e| {
            panic!("loadgen: request {idx} failed: {e}");
        });
        lat_us.push(t.elapsed().as_nanos() as f64 / 1e3);
        if let Some(cold) = expected {
            assert_eq!(
                *body, *cold[idx],
                "warm response for request {idx} diverged from its cold bytes"
            );
        } else {
            bodies[idx] = body.to_string();
        }
    }
    let total = wall.elapsed().as_secs_f64();
    let hits = svc.cache().stats().hits() - hits_before;
    lat_us.sort_by(|a, b| a.partial_cmp(b).expect("no NaN latencies"));
    let phase = Phase {
        name,
        reqs: plan.len(),
        rps: plan.len() as f64 / total.max(1e-9),
        p50_us: percentile(&lat_us, 50.0),
        p95_us: percentile(&lat_us, 95.0),
        p99_us: percentile(&lat_us, 99.0),
        hit_rate: hits as f64 / plan.len() as f64,
        retries: 0,
        give_ups: 0,
    };
    (phase, bodies)
}

/// How hard the overload phase leans on the batcher: the queue is
/// undersized relative to the client threads, so admission rejections
/// (and therefore retries) are guaranteed under the closed loop, and
/// seeded stalls make the drainer a genuine bottleneck.
const OVERLOAD_THREADS: usize = 4;
const OVERLOAD_QUEUE_CAP: usize = 2;
const OVERLOAD_PER_THREAD: usize = 50;

/// The committed-overload phase: `OVERLOAD_THREADS` closed-loop clients,
/// each behind its own seeded [`RetryClient`], against a batcher whose
/// queue holds only `OVERLOAD_QUEUE_CAP` requests and whose drainer is
/// slowed by injected queue stalls. All traffic is warm (the cold phase
/// already populated the cache), so every landed `ok` must match its
/// cold bytes exactly; rejected submissions surface as `overloaded` and
/// are retried with backoff, give-ups are counted, and the daemon must
/// finish alive.
fn run_overload(svc: Arc<ServeService>, reqs: &[CompileRequest], bodies: &[String], seed: u64) -> Phase {
    let plan = Arc::new(FaultPlan::new(
        seed,
        FaultConfig { queue_stall: 0.3, stall_ms: 1, ..FaultConfig::default() },
    ));
    let hits_before = svc.cache().stats().hits();
    let batcher = Arc::new(Batcher::with_faults(
        svc.clone(),
        BatchConfig { queue_cap: OVERLOAD_QUEUE_CAP, ..BatchConfig::default() },
        Some(plan),
    ));
    let wall = Instant::now();
    let mut lat_us: Vec<f64> = Vec::new();
    let (mut landed, mut retries, mut give_ups) = (0usize, 0u64, 0u64);
    std::thread::scope(|scope| {
        let mut workers = Vec::new();
        for tid in 0..OVERLOAD_THREADS {
            let batcher = Arc::clone(&batcher);
            workers.push(scope.spawn(move || {
                let mut client = RetryClient::new(
                    InProcess::new(batcher),
                    RetryPolicy { seed: seed ^ tid as u64, ..RetryPolicy::default() },
                );
                let mut rng = SmallRng::seed_from_u64(seed + 101 + tid as u64);
                let mut lat = Vec::with_capacity(OVERLOAD_PER_THREAD);
                for k in 0..OVERLOAD_PER_THREAD {
                    let idx = rng.index(reqs.len());
                    let id = (tid * 1_000_000 + k) as u64;
                    let t = Instant::now();
                    match client.call(&reqs[idx].to_wire(id), None) {
                        Ok(line) => {
                            lat.push(t.elapsed().as_nanos() as f64 / 1e3);
                            assert_eq!(
                                line,
                                ok_response(id, &bodies[idx]),
                                "overload response for id {id} diverged from its cold bytes"
                            );
                        }
                        Err(e) => {
                            // Give-ups are the bounded, expected outcome of
                            // committed overload; anything fatal is a bug.
                            assert!(
                                matches!(e, sv_serve::ClientError::GiveUp { .. }),
                                "overload client failed fatally: {e}"
                            );
                        }
                    }
                }
                (lat, client.stats())
            }));
        }
        for w in workers {
            let (lat, stats) = w.join().expect("overload client thread panicked");
            landed += lat.len();
            lat_us.extend(lat);
            retries += stats.retries;
            give_ups += stats.give_ups;
        }
    });
    let total = wall.elapsed().as_secs_f64();
    Arc::try_unwrap(batcher)
        .ok()
        .expect("sole batcher owner after the client threads exit")
        .join()
        .expect("the overloaded daemon must finish alive");
    let hits = svc.cache().stats().hits() - hits_before;
    assert!(!lat_us.is_empty(), "overload phase landed zero responses — every client gave up");
    lat_us.sort_by(|a, b| a.partial_cmp(b).expect("no NaN latencies"));
    Phase {
        name: "overload",
        reqs: OVERLOAD_THREADS * OVERLOAD_PER_THREAD,
        rps: landed as f64 / total.max(1e-9),
        p50_us: percentile(&lat_us, 50.0),
        p95_us: percentile(&lat_us, 95.0),
        p99_us: percentile(&lat_us, 99.0),
        hit_rate: hits as f64 / landed.max(1) as f64,
        retries,
        give_ups,
    }
}

/// The fraction of the baseline's warm-over-cold speedup a `--check` run
/// must reach. Over 15 runs of unchanged code on a loaded 2-core host the
/// speedup stayed within 0.84–1.19x of its median; a 2.5x slower warm
/// path lands at 0.4x, so the floor sits between the two.
const SPEEDUP_FLOOR: f64 = 0.6;

/// The in-run comparisons of one measurement: what `BENCH_serve.json`'s
/// summary records and `--check` gates.
struct Summary {
    distinct: usize,
    /// Warm throughput over cold throughput.
    speedup: f64,
    warm_hit_rate: f64,
    overload_retries: u64,
    overload_give_up_rate: f64,
}

impl Summary {
    fn new(distinct: usize, cold: &Phase, warm: &Phase, overload: &Phase) -> Summary {
        Summary {
            distinct,
            speedup: warm.rps / cold.rps,
            warm_hit_rate: warm.hit_rate,
            overload_retries: overload.retries,
            overload_give_up_rate: overload.give_ups as f64 / overload.reqs.max(1) as f64,
        }
    }

    /// The `--check` decision against the baseline's speedup: `Ok` names
    /// the bounds held, `Err` the first one missed.
    fn gate(&self, base_speedup: f64) -> Result<String, String> {
        let floor = base_speedup * SPEEDUP_FLOOR;
        if self.speedup < floor {
            return Err(format!(
                "warm/cold speedup {:.2}x below {floor:.2}x ({SPEEDUP_FLOOR} of the \
                 baseline's {base_speedup:.2}x) — the warm path slowed against the cold one",
                self.speedup
            ));
        }
        if self.warm_hit_rate < 0.99 {
            return Err(format!(
                "warm hit rate {:.4} below 0.99 — repeated requests are missing the cache",
                self.warm_hit_rate
            ));
        }
        if self.overload_retries == 0 {
            return Err("the overload phase performed zero retries — the committed-overload \
                        setup no longer exercises the retry path"
                .into());
        }
        if self.overload_give_up_rate > 0.5 {
            return Err(format!(
                "overload give-up rate {:.4} above 0.50 — backoff is no longer absorbing \
                 transient rejections",
                self.overload_give_up_rate
            ));
        }
        Ok(format!(
            "speedup {:.1}x ≥ {floor:.1}x, hit rate ≥ 0.99, retries > 0, give-up rate ≤ 0.50",
            self.speedup
        ))
    }
}

/// Render `BENCH_serve.json`: one row per phase, then the summary.
fn render(phases: &[Phase], summary: &Summary) -> String {
    let mut s = String::from("{\"schema\":\"sv-serve-bench/v4\",\"rows\":[\n");
    for (i, p) in phases.iter().enumerate() {
        let sep = if i + 1 == phases.len() { "" } else { "," };
        s.push_str(&format!(
            "{{\"phase\":\"{}\",\"reqs\":{},\"rps\":{:.1},\"p50_us\":{:.1},\
             \"p95_us\":{:.1},\"p99_us\":{:.1},\"hit_rate\":{:.4},\
             \"retries\":{},\"give_ups\":{}}}{sep}\n",
            p.name, p.reqs, p.rps, p.p50_us, p.p95_us, p.p99_us, p.hit_rate,
            p.retries, p.give_ups
        ));
    }
    s.push_str(&format!(
        "],\"summary\":{{\"distinct\":{},\"warm_over_cold_speedup\":{:.2},\
         \"warm_hit_rate\":{:.4},\"overload_retries\":{},\
         \"overload_give_up_rate\":{:.4}}}}}\n",
        summary.distinct,
        summary.speedup,
        summary.warm_hit_rate,
        summary.overload_retries,
        summary.overload_give_up_rate
    ));
    s
}

/// A numeric field of the `summary` object of a `sv-serve-bench/v4` file.
fn summary_field(text: &str, key: &str) -> Result<f64, String> {
    let doc = json::parse(text)?;
    if doc.get("schema").and_then(Value::as_str) != Some("sv-serve-bench/v4") {
        return Err("not a sv-serve-bench/v4 file".into());
    }
    match doc.get("summary").and_then(|s| s.get(key)) {
        Some(&Value::Num(x)) => Ok(x),
        _ => Err(format!("no numeric summary field {key}")),
    }
}

/// Replay a trace file over TCP through the retrying client, printing
/// each response line to stdout (the sharding-gate workhorse: the same
/// trace through one `svd` and through a router must print identical
/// compile-response bytes).
fn run_replay(path: &str, server: &str, seed: u64) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("loadgen: cannot read trace {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut client = RetryClient::new(
        TcpTransport::new(server),
        RetryPolicy { seed, ..RetryPolicy::default() },
    );
    let mut n = 0usize;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        match client.call(line, None) {
            Ok(resp) => {
                println!("{resp}");
                n += 1;
            }
            Err(e) => {
                eprintln!("loadgen: replay line {} failed: {e}", n + 1);
                return ExitCode::FAILURE;
            }
        }
    }
    let stats = client.stats();
    eprintln!(
        "loadgen: replayed {n} lines against {server} ({} retries, {} hinted)",
        stats.retries, stats.hinted
    );
    ExitCode::SUCCESS
}

fn emit_trace(path: &str, reqs: &[CompileRequest]) -> std::io::Result<()> {
    let mut out = String::new();
    for (i, r) in reqs.iter().enumerate() {
        out.push_str(&r.to_wire(i as u64));
        out.push('\n');
    }
    out.push_str(&format!("{{\"verb\":\"stats\",\"id\":{}}}\n", 1_000_000));
    out.push_str(&format!("{{\"verb\":\"shutdown\",\"id\":{}}}\n", 1_000_001));
    std::fs::write(path, out)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("loadgen: {e}");
            eprintln!(
                "usage: loadgen [--out PATH] [--check BASELINE] [--emit-trace PATH] \
                 [--replay FILE --server ADDR] \
                 [--requests N] [--synth K] [--seed S] \
                 [--machine NAME] [--machine-spec FILE] [--machines DIR] \
                 [--disk DIR] [--min-cold-hits F] [--emit-machine-spec PATH]"
            );
            return ExitCode::from(2);
        }
    };

    if let Some(trace) = &opts.replay {
        let Some(server) = &opts.server else {
            eprintln!("loadgen: --replay needs --server ADDR");
            return ExitCode::from(2);
        };
        return run_replay(trace, server, opts.seed);
    }

    if opts.machine.is_some() && opts.machine_spec.is_some() {
        eprintln!("loadgen: --machine and --machine-spec are mutually exclusive");
        return ExitCode::from(2);
    }
    let mut registry = MachineRegistry::builtin();
    if let Some(dir) = &opts.machines_dir {
        if let Err(e) = registry.load_dir(std::path::Path::new(dir)) {
            eprintln!("loadgen: cannot load machines: {e}");
            return ExitCode::FAILURE;
        }
    }
    // Resolve the run's machine up front: requests carry the name or the
    // inline spec text, and the resolved config backs --emit-machine-spec.
    let mut template = CompileRequest::default();
    let resolved = match &opts.machine_spec {
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("loadgen: cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            template.machine_spec = Some(text);
            match template.machine_config(&registry) {
                Ok(m) => m,
                Err(e) => {
                    eprintln!("loadgen: {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => {
            if let Some(name) = &opts.machine {
                template.machine = name.clone();
            }
            match template.machine_config(&registry) {
                Ok(m) => m,
                Err(e) => {
                    eprintln!("loadgen: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    };
    if let Some(path) = &opts.emit_machine_spec {
        if let Err(e) = std::fs::write(path, resolved.to_spec()) {
            eprintln!("loadgen: cannot write machine spec {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("loadgen: wrote canonical spec of `{}` to {path}", resolved.name);
    }

    let reqs = distinct_requests(opts.synth, &template);
    if let Some(path) = &opts.emit_trace {
        return match emit_trace(path, &reqs) {
            Ok(()) => {
                println!("loadgen: wrote {} request lines to {path}", reqs.len() + 2);
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("loadgen: cannot write trace {path}: {e}");
                ExitCode::FAILURE
            }
        };
    }

    // Read the baseline before measuring so a bad path fails fast.
    let base_speedup = match &opts.check_baseline {
        None => None,
        Some(path) => match std::fs::read_to_string(path) {
            Ok(text) => match summary_field(&text, "warm_over_cold_speedup") {
                Ok(x) => Some(x),
                Err(e) => {
                    eprintln!("loadgen: bad baseline {path}: {e}");
                    return ExitCode::FAILURE;
                }
            },
            Err(e) => {
                eprintln!("loadgen: cannot read baseline {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
    };

    let cache_cfg = CacheConfig {
        disk_dir: opts.disk.as_ref().map(PathBuf::from),
        ..CacheConfig::default()
    };
    let svc = match ServeService::with_registry(cache_cfg, registry) {
        Ok(s) => Arc::new(s),
        Err(e) => {
            eprintln!("loadgen: cannot open cache: {e}");
            return ExitCode::FAILURE;
        }
    };
    let cold_plan: Vec<usize> = (0..reqs.len()).collect();
    let (cold, bodies) = run_phase("cold", &svc, &reqs, &cold_plan, None);
    if let Some(floor) = opts.min_cold_hits {
        if cold.hit_rate < floor {
            eprintln!(
                "loadgen: REGRESSION: cold-phase hit rate {:.4} below the {floor:.2} \
                 floor — request keys did not survive the machine re-encoding",
                cold.hit_rate
            );
            return ExitCode::FAILURE;
        }
        println!(
            "loadgen: cold-phase hit rate {:.4} ≥ {floor:.2} (key-stability gate)",
            cold.hit_rate
        );
    }

    let warm_n = if opts.requests == 0 { reqs.len() * 20 } else { opts.requests };
    let mut rng = SmallRng::seed_from_u64(opts.seed);
    let warm_plan: Vec<usize> = (0..warm_n).map(|_| rng.index(reqs.len())).collect();
    let (warm, _) = run_phase("warm", &svc, &reqs, &warm_plan, Some(&bodies));
    let overload = run_overload(Arc::clone(&svc), &reqs, &bodies, opts.seed);

    let summary = Summary::new(reqs.len(), &cold, &warm, &overload);
    println!(
        "loadgen: {} distinct; cold {:.1} req/s (p95 {:.0} µs), warm {:.1} req/s \
         (p95 {:.1} µs, hit rate {:.2}%) → {:.1}x",
        reqs.len(),
        cold.rps,
        cold.p95_us,
        warm.rps,
        warm.p95_us,
        summary.warm_hit_rate * 100.0,
        summary.speedup
    );
    println!(
        "loadgen: overload {} reqs over {OVERLOAD_THREADS} clients (queue cap \
         {OVERLOAD_QUEUE_CAP}): {:.1} req/s, p95 {:.1} µs, {} retries, \
         {} give-ups ({:.1}%)",
        overload.reqs,
        overload.rps,
        overload.p95_us,
        summary.overload_retries,
        overload.give_ups,
        summary.overload_give_up_rate * 100.0
    );
    let text = render(&[cold, warm, overload], &summary);
    if let Err(e) = std::fs::write(&opts.out, &text) {
        eprintln!("loadgen: cannot write {}: {e}", opts.out);
        return ExitCode::FAILURE;
    }

    let Some(base_speedup) = base_speedup else {
        return ExitCode::SUCCESS;
    };
    match summary.gate(base_speedup) {
        Ok(held) => {
            println!("loadgen: gate passed ({held})");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("loadgen: REGRESSION: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 95.0), 95.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    fn phase(name: &'static str, rps: f64, hit_rate: f64, retries: u64, give_ups: u64) -> Phase {
        Phase {
            name,
            reqs: 200,
            rps,
            p50_us: 9.0,
            p95_us: 20.0,
            p99_us: 30.0,
            hit_rate,
            retries,
            give_ups,
        }
    }

    /// A run whose warm phase is 50x its cold one and whose overload
    /// phase retried `retries` times and gave up on 2 of 200 requests.
    fn summary(warm_rps: f64, retries: u64) -> Summary {
        Summary::new(
            200,
            &phase("cold", 100.0, 0.0, 0, 0),
            &phase("warm", warm_rps, 1.0, 0, 0),
            &phase("overload", 800.0, 1.0, retries, 2),
        )
    }

    #[test]
    fn render_exposes_summary_fields() {
        let phases =
            [phase("cold", 100.0, 0.0, 0, 0), phase("warm", 5000.0, 1.0, 0, 0), phase("overload", 800.0, 1.0, 37, 2)];
        let text = render(&phases, &Summary::new(200, &phases[0], &phases[1], &phases[2]));
        assert!(text.contains("\"schema\":\"sv-serve-bench/v4\""));
        assert_eq!(summary_field(&text, "warm_over_cold_speedup"), Ok(50.0));
        assert_eq!(summary_field(&text, "warm_hit_rate"), Ok(1.0));
        assert_eq!(summary_field(&text, "overload_retries"), Ok(37.0));
        assert_eq!(summary_field(&text, "overload_give_up_rate"), Ok(0.01));
        // Per-row fields are not summary fields.
        assert!(summary_field(&text, "p50_us").is_err());
        assert!(summary_field(&text.replace("/v4", "/v3"), "warm_hit_rate").is_err());
        assert!(text.contains("\"phase\":\"cold\""));
        assert!(text.contains("\"retries\":37,\"give_ups\":2"));
    }

    #[test]
    fn gate_compares_the_speedup_with_the_baselines() {
        assert!(summary(5000.0, 37).gate(50.0).is_ok());
        assert!(summary(5000.0 * 0.7, 37).gate(50.0).is_ok(), "0.7x of the baseline's speedup");
        let e = summary(5000.0 / 2.5, 37).gate(50.0).unwrap_err();
        assert!(e.contains("speedup 20.00x below 30.00x"), "{e}");
    }

    #[test]
    fn gate_fails_without_overload_retries() {
        let e = summary(5000.0, 0).gate(50.0).unwrap_err();
        assert!(e.contains("zero retries"), "{e}");
    }

    #[test]
    fn trace_lines_parse_back() {
        let reqs = distinct_requests(2, &CompileRequest::default());
        assert!(reqs.len() > 2);
        for (i, r) in reqs.iter().enumerate().take(3) {
            let line = r.to_wire(i as u64);
            let parsed = sv_serve::parse_request(&line).expect("trace line parses");
            assert_eq!(parsed.id(), i as u64);
        }
    }

    #[test]
    fn template_machine_selection_propagates() {
        let template = CompileRequest {
            machine_spec: Some("vector_length = 4\n".into()),
            ..CompileRequest::default()
        };
        let reqs = distinct_requests(1, &template);
        assert!(reqs.iter().all(|r| r.machine_spec.as_deref() == Some("vector_length = 4\n")));
    }
}
