//! The TCP workloads. `svd` runs as a child process with its defaults and
//! the benchmark drives it over loopback with its own plain client.

use crate::metrics::Report;
use crate::replay::{self, Replayed};
use crate::stats::{self, percentile, sorted, Step, MISSED_MS};
use crate::svd::{self, num, Conn, ProcSample, Svd, TICK_US};
use crate::trace::Tracer;
use crate::{inputs, set_up_repeatedly, Run};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use sv_core::CacheConfig;
use sv_machine::MachineRegistry;
use sv_serve::json::{self, Value};
use sv_serve::proto::ok_response;
use sv_serve::{CompileRequest, ServeService};
use sv_workloads::SmallRng;

/// Closed-loop connections of `warm_hits`, one client thread each.
const CONNECTIONS: u64 = 2;
/// Offered rates of the `mixed` ladder, requests per second.
const RATES: [u32; 3] = [250, 1000, 4000];
/// The rung whose latency `mixed` reports.
const REPORTED_RATE: u32 = 1000;
/// The p90 limit a rung must meet for `max_rate_rps`.
const LIMIT_MS: f64 = 10.0;
/// Share of `mixed` requests that repeat a warm request.
const HIT_SHARE: f64 = 0.9;
/// Most requests a pipelined connection leaves unanswered at once. While
/// `svd` keeps up, the `mixed` ladder has a few dozen in flight; the cap
/// stays below the connection's share of `svd`'s queue (512 of 1024, or
/// 341 while a `stats` connection is still open), so a stall of the
/// machine holds the sender back instead of overflowing the queue into
/// refusals. In `mixed` the hold is still charged, because latency is
/// timed from each request's due time.
const WINDOW: usize = 256;
/// Requests the traced run replays in-process.
const REPLAY: usize = 2000;
/// Cache-hit requests pushed one at a time through an in-process batcher.
const BATCH_PROBE: usize = 300;
/// Generator lateness metric of each rung of [`RATES`].
const GEN_LATE: [&str; 3] = [
    "bench.gen_late_p99_ms.r250",
    "bench.gen_late_p99_ms.r1000",
    "bench.gen_late_p99_ms.r4000",
];

/// How `svd` answered one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Answer {
    /// `ok` with exactly the expected bytes.
    Same,
    /// A typed error: refused or failed.
    Failed,
    /// Anything else: a wrong answer.
    Wrong,
}

fn judge(line: &str, expected: &str) -> Answer {
    if line == expected {
        Answer::Same
    } else if line.contains(",\"ok\":false,\"error\":{") {
        Answer::Failed
    } else {
        Answer::Wrong
    }
}

/// The id and result object of an `ok` response line.
fn ok_body(line: &str) -> Option<(u64, &str)> {
    let (id, rest) = line.strip_prefix("{\"id\":")?.split_once(',')?;
    let body = rest
        .strip_prefix("\"ok\":true,\"result\":")?
        .strip_suffix('}')?;
    Some((id.parse().ok()?, body))
}

/// The id a response line answers.
fn line_id(line: &str) -> Option<u64> {
    let rest = line.strip_prefix("{\"id\":")?;
    rest[..rest.find(',')?].parse().ok()
}

/// The start of a line, for error messages.
fn clip(line: &str) -> &str {
    line.char_indices()
        .nth(160)
        .map_or(line, |(i, _)| &line[..i])
}

/// Wait until request `k` may go out: until fewer than [`WINDOW`] of the
/// requests before it are unanswered. The receiving side counts answers
/// in `answered` (a `Release` add paired with this `Acquire` load; the
/// count publishes no other data) and sets it to `usize::MAX` when it
/// stops, so a sender is never held by a receiver that has given up.
fn hold(k: usize, answered: &AtomicUsize) {
    while answered.load(Ordering::Acquire).saturating_add(WINDOW) <= k {
        std::thread::sleep(Duration::from_micros(100));
    }
}

fn wire_lines(reqs: &[CompileRequest]) -> Vec<String> {
    reqs.iter()
        .enumerate()
        .map(|(i, r)| r.to_wire(i as u64) + "\n")
        .collect()
}

/// A daemon after set-up: started, answering `stats`, every warm request
/// compiled into its cache, and the result bytes it answered them with.
struct Warmed {
    svd: Svd,
    bodies: Vec<String>,
}

fn warm_up(bin: &Path, dir: &Path, warm_lines: &[String]) -> Result<Warmed, String> {
    let svd = Svd::start(bin, dir)?;
    svd.verb("stats")?;
    let (mut w, mut r) = Conn::open(svd.addr())
        .and_then(Conn::split)
        .map_err(|e| format!("connect: {e}"))?;
    let answered = AtomicUsize::new(0);
    let bodies = std::thread::scope(|s| {
        let answered = &answered;
        let reader = s.spawn(move || {
            let mut line = String::new();
            let mut bodies = Vec::with_capacity(warm_lines.len());
            let mut read = || {
                for i in 0..warm_lines.len() as u64 {
                    r.recv(&mut line)
                        .map_err(|e| format!("warm-up reply {i}: {e}"))?;
                    answered.fetch_add(1, Ordering::Release);
                    match ok_body(&line) {
                        Some((id, body)) if id == i => bodies.push(body.to_string()),
                        _ => return Err(format!("warm-up request {i} answered `{}`", clip(&line))),
                    }
                }
                Ok(())
            };
            let done = read();
            answered.store(usize::MAX, Ordering::Release);
            done.map(|()| bodies)
        });
        for (k, l) in warm_lines.iter().enumerate() {
            hold(k, answered);
            w.write_all(l.as_bytes())
                .map_err(|e| format!("warm-up send: {e}"))?;
        }
        reader
            .join()
            .map_err(|_| "warm-up reader panicked".to_string())?
    })?;
    Ok(Warmed { svd, bodies })
}

/// Set up in fresh daemons, keeping the last (see [`set_up_repeatedly`]).
fn set_up(
    bin: &Path,
    run: &Run,
    workload: &str,
    warm_lines: &[String],
) -> Result<(Warmed, f64), String> {
    set_up_repeatedly(|k| {
        warm_up(
            bin,
            &run.dir.join(format!("svd-{workload}-{k}")),
            warm_lines,
        )
    })
}

/// Counters sampled on both sides of the measured part.
struct Counters {
    stats: Value,
    svd: ProcSample,
    me: ProcSample,
}

impl Counters {
    fn take(svd: &Svd) -> Result<Counters, String> {
        Ok(Counters {
            stats: svd.verb("stats")?,
            svd: svd.sample()?,
            me: ProcSample::of("self")?,
        })
    }
}

/// Check the warm-up bytes against the in-process service.
fn check_warm(
    report: &mut Report,
    svc: &ServeService,
    warm: &[CompileRequest],
    bodies: &[String],
) -> Result<(), String> {
    for (i, (r, body)) in warm.iter().zip(bodies).enumerate() {
        let (want, _) = svc
            .compile_body(r)
            .map_err(|e| format!("in-process warm request {i}: {e}"))?;
        if *want != **body {
            report.mismatch(format!(
                "svd's warm-up body for request {i} differs from compile_body"
            ));
        }
    }
    Ok(())
}

/// Modelled cycles summed over the warm set's results.
fn warm_cycles(bodies: &[String]) -> Result<f64, String> {
    bodies.iter().try_fold(0.0, |sum, b| {
        let v = json::parse(b).map_err(|e| format!("result object: {e}"))?;
        Ok(sum + num(&v, &["cycles"])?)
    })
}

fn service(registry: &MachineRegistry) -> Result<ServeService, String> {
    ServeService::with_registry(CacheConfig::default(), registry.clone()).map_err(|e| e.to_string())
}

/// `svd`'s own per-layer counters: `stats` deltas and `/proc` samples
/// around the measured part, and the `metrics` reply after it.
fn daemon_layers(
    report: &mut Report,
    before: &Counters,
    after: &Counters,
    metrics: &Value,
    requests: u64,
) -> Result<(), String> {
    let delta = |path: &[&str]| -> Result<f64, String> {
        Ok(num(&after.stats, path)? - num(&before.stats, path)?)
    };
    let per_req = |b: &ProcSample, a: &ProcSample| {
        (a.cpu_ticks - b.cpu_ticks) as f64 * TICK_US / requests.max(1) as f64
    };
    report.set(
        "serve.batch.occupancy",
        delta(&["queue", "compiles"])? / delta(&["queue", "flushes"])?.max(1.0),
    );
    report.set("serve.batch.rejected", delta(&["queue", "rejected"])?);
    report.set("serve.svd.cpu_us_per_req", per_req(&before.svd, &after.svd));
    report.set(
        "bench.client.cpu_us_per_req",
        per_req(&before.me, &after.me),
    );
    let hits = delta(&["cache", "mem_hits"])? + delta(&["cache", "disk_hits"])?;
    report.set(
        "core.cache.hit_ratio",
        hits / (hits + delta(&["cache", "misses"])?).max(1.0),
    );
    report.set(
        "serve.batch.queue_wait_p50_us",
        num(metrics, &["latency", "queue_wait", "p50_us"])?,
    );
    report.set(
        "serve.batch.execute_p50_us",
        num(metrics, &["latency", "execute", "p50_us"])?,
    );
    Ok(())
}

/// The request path's per-layer metrics: the in-process replay, the
/// batcher probe, and the transport residual no layer accounts for.
fn path_layers(
    report: &mut Report,
    run: &Run,
    workload: &str,
    registry: &MachineRegistry,
    warm: &[CompileRequest],
    plan: &[Replayed],
    client_p50_ms: f64,
) -> Result<(), String> {
    let mut t = Tracer::new();
    let path_us = replay::replay(report, &mut t, registry, warm, plan)?;
    let hits: Vec<&CompileRequest> = plan
        .iter()
        .filter(|r| r.hit)
        .map(|r| r.req)
        .take(BATCH_PROBE)
        .collect();
    let wait_us = replay::batch_wait_us(registry, &hits)?;
    report.set("serve.batch.wait_us", wait_us);
    report.set(
        "serve.transport.residual_us",
        client_p50_ms * 1e3 - path_us - wait_us,
    );
    report.diag("serve.path_p50_us", path_us, "us");
    t.write_jsonl(&run.dir.join(format!("trace-{workload}.jsonl")))
        .map_err(|e| format!("trace file: {e}"))
}

/// Requests one closed-loop connection sent, with what came back.
#[derive(Default)]
struct Closed {
    lat_ms: Vec<f64>,
    failed: u64,
    wrong: Vec<String>,
}

fn conn_rng(seed: u64, conn: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ (0xc105_ed00 + conn))
}

fn conn_id(conn: u64, k: u64) -> u64 {
    (conn + 1) * 1_000_000_000 + k
}

/// One connection's closed loop: send a seeded warm request, wait for its
/// answer, repeat until `deadline`.
fn closed_loop(
    addr: SocketAddr,
    conn: u64,
    seed: u64,
    warm: &[CompileRequest],
    bodies: &[String],
    deadline: Instant,
) -> Result<Closed, String> {
    let mut c = Conn::open(addr).map_err(|e| format!("connect: {e}"))?;
    let mut rng = conn_rng(seed, conn);
    let mut out = Closed::default();
    let mut line = String::new();
    for k in 0.. {
        if Instant::now() >= deadline {
            break;
        }
        let idx = rng.index(warm.len());
        let id = conn_id(conn, k);
        let wire = warm[idx].to_wire(id) + "\n";
        let t0 = Instant::now();
        c.send(&wire)
            .and_then(|()| c.recv(&mut line))
            .map_err(|e| format!("request {id}: {e}"))?;
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        match judge(&line, &ok_response(id, &bodies[idx])) {
            Answer::Same => out.lat_ms.push(ms),
            Answer::Failed => {
                out.failed += 1;
                out.lat_ms.push(MISSED_MS);
            }
            Answer::Wrong => {
                out.lat_ms.push(ms);
                out.wrong
                    .push(format!("request {id} answered `{}`", clip(&line)));
            }
        }
    }
    Ok(out)
}

/// `warm_hits`: two closed-loop connections of warm requests, every one a
/// cache hit.
pub fn warm_hits(run: &Run) -> Result<Report, String> {
    let bin = svd::build()?;
    let registry = inputs::registry()?;
    let warm = inputs::warm_requests(run.seed);
    let (warmed, setup_s) = set_up(&bin, run, "warm_hits", &wire_lines(&warm))?;
    let before = Counters::take(&warmed.svd)?;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(run.seconds);
    let addr = warmed.svd.addr();
    let conns: Vec<Closed> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let (warm, bodies) = (&warm, &warmed.bodies);
                s.spawn(move || closed_loop(addr, c, run.seed, warm, bodies, deadline))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| "client thread panicked".to_string())
                    .and_then(|r| r)
            })
            .collect::<Result<Vec<Closed>, String>>()
    })?;
    let elapsed = start.elapsed().as_secs_f64();
    let after = Counters::take(&warmed.svd)?;
    let metrics = warmed.svd.verb("metrics")?;

    let mut report = Report::default();
    let lat = sorted(
        conns
            .iter()
            .flat_map(|c| c.lat_ms.iter().copied())
            .collect(),
    );
    report.attempted = lat.len() as u64;
    report.failed = conns.iter().map(|c| c.failed).sum();
    for w in conns.iter().flat_map(|c| &c.wrong) {
        report.mismatch(w.clone());
    }
    report.set("setup_s", setup_s);
    report.set("p50_ms", percentile(&lat, 50.0));
    report.set("p90_ms", percentile(&lat, 90.0));
    report.set("throughput_per_s", lat.len() as f64 / elapsed);
    report.set("peak_rss_mb", after.svd.peak_mb());
    report.set("code_cycles", warm_cycles(&warmed.bodies)?);
    report.diag("p99_ms", percentile(&lat, 99.0), "ms");
    report.diag("samples", lat.len() as f64, "count");
    report.diag(
        "error_rate",
        report.failed as f64 / lat.len() as f64,
        "fraction",
    );
    check_warm(&mut report, &service(&registry)?, &warm, &warmed.bodies)?;

    if run.traced {
        // The same seeded plan the connections drew from, first come first.
        let mut plan = Vec::with_capacity(REPLAY);
        for c in 0..CONNECTIONS {
            let mut rng = conn_rng(run.seed, c);
            for k in 0..REPLAY as u64 / CONNECTIONS {
                let idx = rng.index(warm.len());
                let id = conn_id(c, k);
                plan.push(Replayed {
                    id,
                    req: &warm[idx],
                    expected: ok_response(id, &warmed.bodies[idx]),
                    hit: true,
                });
            }
        }
        daemon_layers(&mut report, &before, &after, &metrics, lat.len() as u64)?;
        path_layers(
            &mut report,
            run,
            "warm_hits",
            &registry,
            &warm,
            &plan,
            percentile(&lat, 50.0),
        )?;
    }
    Ok(report)
}

/// Which request a planned slot sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// A warm request, by index into the warm set.
    Hit(usize),
    /// A never-seen request, by index into the misses.
    Miss(usize),
}

/// One request of the open-loop plan.
#[derive(Debug, Clone, Copy)]
struct Planned {
    due_ns: u64,
    step: usize,
    kind: Kind,
}

/// The seeded open-loop plan: each rung of [`RATES`] for an equal share of
/// the run, requests evenly spaced, [`HIT_SHARE`] of them warm hits and
/// the rest never-seen misses, numbered in plan order.
fn ladder_plan(seed: u64, seconds: f64, warm_len: usize) -> Vec<Planned> {
    let step_s = seconds / RATES.len() as f64;
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x0b3e_7100);
    let mut misses = 0;
    let mut plan = Vec::new();
    for (step, &rate) in RATES.iter().enumerate() {
        let n = (f64::from(rate) * step_s).round() as u64;
        for k in 0..n {
            let due_ns = (step as f64 * step_s * 1e9) as u64 + k * 1_000_000_000 / u64::from(rate);
            let kind = if rng.chance(HIT_SHARE) {
                Kind::Hit(rng.index(warm_len))
            } else {
                misses += 1;
                Kind::Miss(misses - 1)
            };
            plan.push(Planned { due_ns, step, kind });
        }
    }
    plan
}

/// When and how one planned request was answered.
#[derive(Debug, Clone)]
struct Got {
    done_ns: u64,
    answer: Answer,
    /// A miss's `ok` line, kept for the in-process check.
    miss_line: Option<String>,
}

/// Read one answer per planned request, judging hits on the spot and
/// keeping the `ok` lines of misses for the in-process check. Counts the
/// answers in `answered`.
fn receive(
    mut r: Conn,
    plan: &[Planned],
    bodies: &[String],
    start: Instant,
    answered: &AtomicUsize,
) -> Result<Vec<Option<Got>>, String> {
    let mut got = vec![None; plan.len()];
    let mut line = String::new();
    for _ in 0..plan.len() {
        r.recv(&mut line).map_err(|e| format!("receive: {e}"))?;
        let done_ns = start.elapsed().as_nanos() as u64;
        answered.fetch_add(1, Ordering::Release);
        let i = line_id(&line)
            .map(|i| i as usize)
            .filter(|&i| i < plan.len())
            .ok_or_else(|| format!("unexpected answer `{}`", clip(&line)))?;
        let (answer, miss_line) = match plan[i].kind {
            Kind::Hit(w) => (judge(&line, &ok_response(i as u64, &bodies[w])), None),
            Kind::Miss(_) if ok_body(&line).is_some() => (Answer::Same, Some(line.clone())),
            Kind::Miss(_) => (judge(&line, ""), None),
        };
        got[i] = Some(Got {
            done_ns,
            answer,
            miss_line,
        });
    }
    Ok(got)
}

/// Send every planned line at its due time, but never more than [`WINDOW`]
/// ahead of the `answered` count; returns each send time.
fn send(
    mut w: TcpStream,
    lines: &[String],
    plan: &[Planned],
    start: Instant,
    answered: &AtomicUsize,
) -> Result<Vec<u64>, String> {
    let mut sent = Vec::with_capacity(plan.len());
    for (k, (line, p)) in lines.iter().zip(plan).enumerate() {
        let now = start.elapsed().as_nanos() as u64;
        if p.due_ns > now {
            std::thread::sleep(Duration::from_nanos(p.due_ns - now));
        }
        hold(k, answered);
        sent.push(start.elapsed().as_nanos() as u64);
        w.write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
    }
    Ok(sent)
}

/// `mixed`: one pipelined connection, open loop up a ladder of rates, 90%
/// warm hits and 10% misses never seen before.
pub fn mixed(run: &Run) -> Result<Report, String> {
    let bin = svd::build()?;
    let registry = inputs::registry()?;
    let warm = inputs::warm_requests(run.seed);
    let plan = ladder_plan(run.seed, run.seconds, warm.len());
    let miss_count = plan
        .iter()
        .filter(|p| matches!(p.kind, Kind::Miss(_)))
        .count();
    let misses = inputs::miss_requests(run.seed, &registry, miss_count)?;
    let request = |p: &Planned| match p.kind {
        Kind::Hit(w) => &warm[w],
        Kind::Miss(m) => &misses[m],
    };
    let lines: Vec<String> = plan
        .iter()
        .enumerate()
        .map(|(i, p)| request(p).to_wire(i as u64) + "\n")
        .collect();
    let (warmed, setup_s) = set_up(&bin, run, "mixed", &wire_lines(&warm))?;
    let before = Counters::take(&warmed.svd)?;
    let (w, r) = Conn::open(warmed.svd.addr())
        .and_then(Conn::split)
        .map_err(|e| format!("connect: {e}"))?;
    let answered = AtomicUsize::new(0);
    let start = Instant::now();
    let (sent, received) = std::thread::scope(|s| {
        let (plan, bodies, answered) = (&plan, &warmed.bodies, &answered);
        let receiver = s.spawn(move || {
            let got = receive(r, plan, bodies, start, answered);
            answered.store(usize::MAX, Ordering::Release);
            got
        });
        let sent = send(w, &lines, plan, start, answered);
        (
            sent,
            receiver
                .join()
                .map_err(|_| "receiver thread panicked".to_string()),
        )
    });
    let (sent, got) = (sent?, received??);
    let after = Counters::take(&warmed.svd)?;
    let metrics = warmed.svd.verb("metrics")?;

    let mut report = Report::default();
    report.attempted = plan.len() as u64;
    let answer = |i: usize| got[i].as_ref().map(|g| g.answer);
    for i in 0..plan.len() {
        match answer(i) {
            Some(Answer::Failed) => report.failed += 1,
            Some(Answer::Wrong) => {
                report.mismatch(format!("request {i} answered with the wrong bytes"))
            }
            _ => {}
        }
    }
    let due: Vec<u64> = plan.iter().map(|p| p.due_ns).collect();
    let done: Vec<Option<u64>> = (0..plan.len())
        .map(|i| {
            got[i]
                .as_ref()
                .filter(|g| g.answer != Answer::Failed)
                .map(|g| g.done_ns)
        })
        .collect();
    let lat = stats::due_latencies_ms(&due, &done);
    let mut steps = Vec::new();
    let mut reported_p50_ms = 0.0;
    for (si, &rate) in RATES.iter().enumerate() {
        let in_step: Vec<usize> = (0..plan.len()).filter(|&i| plan[i].step == si).collect();
        let step_lat = sorted(in_step.iter().map(|&i| lat[i]).collect());
        let refused = in_step
            .iter()
            .filter(|&&i| answer(i) != Some(Answer::Same))
            .count() as u64;
        let late: Vec<f64> = in_step
            .iter()
            .map(|&i| sent[i].saturating_sub(due[i]) as f64 / 1e6)
            .collect();
        let step = Step {
            rate,
            p90_ms: percentile(&step_lat, 90.0),
            refused,
        };
        report.set(GEN_LATE[si], percentile(&sorted(late), 99.0));
        report.diag(format!("r{rate}.p50_ms"), percentile(&step_lat, 50.0), "ms");
        report.diag(format!("r{rate}.p90_ms"), step.p90_ms, "ms");
        report.diag(format!("r{rate}.p99_ms"), percentile(&step_lat, 99.0), "ms");
        report.diag(format!("r{rate}.samples"), step_lat.len() as f64, "count");
        report.diag(format!("r{rate}.refused"), refused as f64, "count");
        if rate == REPORTED_RATE {
            let is_hit = |i: &&usize| matches!(plan[**i].kind, Kind::Hit(_));
            let hits = sorted(in_step.iter().filter(is_hit).map(|&i| lat[i]).collect());
            reported_p50_ms = percentile(&step_lat, 50.0);
            report.set("p50_ms", reported_p50_ms);
            report.set("p90_ms", step.p90_ms);
            report.diag("hit_p90_ms", percentile(&hits, 90.0), "ms");
        }
        if si + 1 == RATES.len() {
            // Delivered rate on the top rung: its answers over the time
            // from its first due request to its last answer.
            let first_due = due[in_step[0]];
            let last_done = in_step
                .iter()
                .filter_map(|&i| done[i])
                .max()
                .unwrap_or(first_due);
            let answered = (in_step.len() as u64 - refused) as f64;
            report.set(
                "throughput_per_s",
                answered / ((last_done - first_due) as f64 / 1e9).max(1e-9),
            );
        }
        steps.push(step);
    }
    report.diag(
        "max_rate_rps",
        f64::from(stats::max_rate(&steps, LIMIT_MS)),
        "req/s",
    );
    report.diag(
        "error_rate",
        report.failed as f64 / plan.len() as f64,
        "fraction",
    );
    report.set("setup_s", setup_s);
    report.set("peak_rss_mb", after.svd.peak_mb());
    report.set("code_cycles", warm_cycles(&warmed.bodies)?);

    let svc = service(&registry)?;
    check_warm(&mut report, &svc, &warm, &warmed.bodies)?;
    let miss_line = |i: usize| got[i].as_ref().and_then(|g| g.miss_line.as_ref());
    for (i, p) in plan.iter().enumerate() {
        if let Some(line) = miss_line(i) {
            let (body, _) = svc
                .compile_body(request(p))
                .map_err(|e| format!("in-process miss {i}: {e}"))?;
            if *line != ok_response(i as u64, &body) {
                report.mismatch(format!("miss {i}: svd's bytes differ from compile_body"));
            }
        }
    }

    if run.traced {
        let replay_plan: Vec<Replayed> = plan
            .iter()
            .enumerate()
            .take(REPLAY)
            .filter_map(|(i, p)| {
                let expected = match p.kind {
                    Kind::Hit(w) => ok_response(i as u64, &warmed.bodies[w]),
                    Kind::Miss(_) => miss_line(i)?.clone(),
                };
                let hit = matches!(p.kind, Kind::Hit(_));
                Some(Replayed {
                    id: i as u64,
                    req: request(p),
                    expected,
                    hit,
                })
            })
            .collect();
        daemon_layers(&mut report, &before, &after, &metrics, plan.len() as u64)?;
        path_layers(
            &mut report,
            run,
            "mixed",
            &registry,
            &warm,
            &replay_plan,
            reported_p50_ms,
        )?;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_lines_split_into_id_and_body() {
        let line = ok_response(42, "{\"cycles\":7}");
        assert_eq!(ok_body(&line), Some((42, "{\"cycles\":7}")));
        assert_eq!(line_id(&line), Some(42));
        let err = "{\"id\":9,\"ok\":false,\"error\":{\"kind\":\"overloaded\"}}";
        assert_eq!(ok_body(err), None);
        assert_eq!(line_id(err), Some(9));
        assert_eq!(judge(err, &line), Answer::Failed);
        assert_eq!(judge(&line, &line), Answer::Same);
        assert_eq!(
            judge("{\"id\":42,\"ok\":true,\"result\":{}}", &line),
            Answer::Wrong
        );
    }

    #[test]
    fn hold_releases_a_request_once_fewer_than_the_window_are_unanswered() {
        // Request k waits until at most WINDOW - 1 of requests 0..k are
        // unanswered; a second thread answers one at a time.
        let k = WINDOW + 3;
        let answered = AtomicUsize::new(3);
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        std::thread::scope(|s| {
            let answered = &answered;
            s.spawn(move || {
                for () in rx {
                    answered.fetch_add(1, Ordering::Release);
                }
            });
            tx.send(()).unwrap();
            hold(k, answered);
            assert_eq!(answered.load(Ordering::Acquire), 4);
            drop(tx);
        });
        // Nothing holds a sender once the receiver has stopped.
        hold(usize::MAX - 1, &AtomicUsize::new(usize::MAX));
    }

    #[test]
    fn ladder_plan_is_seeded_and_paced() {
        let plan = ladder_plan(7, 3.0, 393);
        assert_eq!(plan.len(), 250 + 1000 + 4000);
        let again = ladder_plan(7, 3.0, 393);
        assert!(plan
            .iter()
            .zip(&again)
            .all(|(a, b)| a.kind == b.kind && a.due_ns == b.due_ns));
        assert!(plan.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        let ids: Vec<usize> = plan
            .iter()
            .filter_map(|p| match p.kind {
                Kind::Miss(m) => Some(m),
                Kind::Hit(_) => None,
            })
            .collect();
        assert!(
            (ids.len() as f64 / plan.len() as f64 - 0.1).abs() < 0.02,
            "{}",
            ids.len()
        );
        // Misses are numbered densely in plan order.
        assert_eq!(ids, (0..ids.len()).collect::<Vec<_>>());
    }
}
