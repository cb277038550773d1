//! `svd` — the selective-vectorization compilation daemon.
//!
//! Serves the newline-delimited JSON protocol (see `sv_serve::proto`)
//! over stdin/stdout by default, or over TCP with `--tcp ADDR` (a
//! multi-client accept loop: every connection gets its own fair-share
//! client identity, bounded by `--max-clients`). Every request flows
//! through the bounded batching queue onto the deterministic worker
//! pool, fronted by the two-tier compilation cache. The queue's drainer
//! takes whatever is queued the moment it is free, up to `--batch-max`
//! compiles at once; it never waits for companions. A request line over
//! `sv_serve::MAX_LINE_BYTES` (1 MiB) gets a typed `bad_request` and ends
//! its connection (on stdio, the input).
//!
//! ```text
//! svd [--tcp ADDR] [--max-clients N] [--port-file PATH]
//!     [--route ADDR,ADDR,...] [--jobs N] [--batch-max N] [--queue-cap N]
//!     [--mem-entries N] [--mem-bytes N] [--disk DIR] [--machines DIR]
//!     [--faults SPEC] [--fault-seed N]
//! ```
//!
//! `--route A,B,...` turns this process into a **router** over N running
//! `svd --tcp` shards instead of a compile server: each request is
//! forwarded to the shard keyed by its v2 canonical request key, with
//! per-shard health checks and typed failover (`--tcp` required;
//! `--max-clients` bounds the router's client connections as it does a
//! server's; the cache/queue flags are ignored in router mode).
//!
//! `--port-file PATH` writes the bound address (e.g. `127.0.0.1:40213`)
//! to `PATH` after listening starts — ephemeral-port scripting for ci.
//!
//! `--machines DIR` loads every `*.spec`/`*.mspec` file in `DIR` into
//! the machine registry next to the builtin `paper`/`figure1` entries;
//! each registers under the `name` its spec declares, and name
//! collisions abort startup. The `machines` verb lists the live
//! registry with canonical hashes.
//!
//! `--faults SPEC` arms seeded chaos fault injection (for soak testing a
//! deployment-shaped daemon, never production): `SPEC` is the
//! `key=value,...` grammar of `sv_serve::faults::FaultConfig::parse`,
//! e.g. `--faults soak` or `--faults disk_read=0.1,drainer_panic=0.05`.
//! One [`sv_serve::FaultPlan`] seeded by `--fault-seed` (default 0)
//! drives the cache, the compile path and the drainer, so a failing run
//! replays from its seed.
//!
//! Examples:
//!
//! ```text
//! $ echo '{"verb":"compile","id":1,"loop":"..."}' | svd --disk /tmp/svc
//! $ svd --tcp 127.0.0.1:7199 --jobs 8 --machines examples/machines &
//! $ svd --tcp 127.0.0.1:7200 --route 127.0.0.1:7199,127.0.0.1:7198 &
//! ```
//!
//! Exit is triggered by the `shutdown` verb or stdin EOF; either way the
//! queue drains fully before the process ends.

use std::net::TcpListener;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use sv_core::CacheConfig;
use sv_machine::MachineRegistry;
use sv_serve::{
    serve_lines, BatchConfig, Batcher, FaultConfig, FaultPlan, Router, ServeService, Server, Sink,
    DEFAULT_MAX_CLIENTS,
};

struct Options {
    tcp: Option<String>,
    route: Option<Vec<String>>,
    port_file: Option<PathBuf>,
    max_clients: usize,
    batch: BatchConfig,
    cache: CacheConfig,
    machines_dir: Option<PathBuf>,
    faults: Option<FaultConfig>,
    fault_seed: u64,
}

fn usage() -> ! {
    eprintln!(
        "usage: svd [--tcp ADDR] [--max-clients N] [--port-file PATH] \
         [--route ADDR,ADDR,...] [--jobs N] [--batch-max N] [--queue-cap N] \
         [--mem-entries N] [--mem-bytes N] [--disk DIR] [--machines DIR] \
         [--faults SPEC] [--fault-seed N]\n\
         --route makes a router over the listed shards; --max-clients bounds \
         client connections in both modes"
    );
    std::process::exit(2)
}

fn parse_args() -> Options {
    let mut opts = Options {
        tcp: None,
        route: None,
        port_file: None,
        max_clients: DEFAULT_MAX_CLIENTS,
        batch: BatchConfig { jobs: sv_core::parallel::default_jobs(), ..BatchConfig::default() },
        cache: CacheConfig::default(),
        machines_dir: None,
        faults: None,
        fault_seed: 0,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = |name: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("svd: {name} needs a value");
                usage()
            })
        };
        let num = |name: &str, v: String| -> usize {
            v.parse().unwrap_or_else(|_| {
                eprintln!("svd: {name} wants an unsigned integer, got `{v}`");
                usage()
            })
        };
        match a.as_str() {
            "--tcp" => opts.tcp = Some(val("--tcp")),
            "--route" => {
                opts.route = Some(
                    val("--route").split(',').map(|s| s.trim().to_string()).collect(),
                )
            }
            "--port-file" => opts.port_file = Some(PathBuf::from(val("--port-file"))),
            "--max-clients" => opts.max_clients = num("--max-clients", val("--max-clients")).max(1),
            "--jobs" => opts.batch.jobs = num("--jobs", val("--jobs")).max(1),
            "--batch-max" => opts.batch.batch_max = num("--batch-max", val("--batch-max")).max(1),
            "--queue-cap" => opts.batch.queue_cap = num("--queue-cap", val("--queue-cap")).max(1),
            "--mem-entries" => opts.cache.mem_entries = num("--mem-entries", val("--mem-entries")),
            "--mem-bytes" => opts.cache.mem_bytes = num("--mem-bytes", val("--mem-bytes")),
            "--disk" => opts.cache.disk_dir = Some(PathBuf::from(val("--disk"))),
            "--machines" => opts.machines_dir = Some(PathBuf::from(val("--machines"))),
            "--faults" => {
                let spec = val("--faults");
                opts.faults = Some(FaultConfig::parse(&spec).unwrap_or_else(|e| {
                    eprintln!("svd: bad --faults spec: {e}");
                    usage()
                }));
            }
            "--fault-seed" => {
                opts.fault_seed = num("--fault-seed", val("--fault-seed")) as u64
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("svd: unknown flag `{other}`");
                usage()
            }
        }
    }
    opts
}

/// Bind, announce, and record the listening address for scripts.
fn bind_and_announce(addr: &str, port_file: Option<&PathBuf>) -> std::io::Result<TcpListener> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    eprintln!("svd: listening on {local}");
    if let Some(path) = port_file {
        std::fs::write(path, format!("{local}\n"))?;
    }
    Ok(listener)
}

fn serve_stdio(batcher: Batcher) -> Result<(), sv_serve::ServeError> {
    let sink: Sink = Arc::new(Mutex::new(std::io::stdout()));
    serve_lines(std::io::stdin().lock(), &batcher, &sink);
    batcher.close();
    batcher.join()
}

fn serve_tcp(
    addr: &str,
    port_file: Option<&PathBuf>,
    max_clients: usize,
    batcher: Batcher,
) -> std::io::Result<()> {
    let listener = bind_and_announce(addr, port_file)?;
    let batcher = Arc::new(batcher);
    Server::new(Arc::clone(&batcher), max_clients).serve(listener)?;
    match Arc::try_unwrap(batcher) {
        Ok(b) => b.join().map_err(|e| std::io::Error::other(e.to_string())),
        Err(_) => unreachable!("all connection threads joined"),
    }
}

fn serve_router(
    addr: &str,
    port_file: Option<&PathBuf>,
    shards: Vec<String>,
    registry: MachineRegistry,
    max_clients: usize,
) -> std::io::Result<()> {
    let listener = bind_and_announce(addr, port_file)?;
    let router = Router::new(shards, registry, max_clients);
    let up = router.health_check();
    eprintln!(
        "svd: routing to {} shard(s), {} healthy: {}",
        up.len(),
        up.iter().filter(|&&h| h).count(),
        router.health_object()
    );
    router.serve(listener)
}

fn main() -> ExitCode {
    let mut opts = parse_args();
    let mut registry = MachineRegistry::builtin();
    if let Some(dir) = &opts.machines_dir {
        match registry.load_dir(dir) {
            Ok(n) => eprintln!("svd: loaded {n} machine(s) from {}", dir.display()),
            Err(e) => {
                eprintln!("svd: cannot load machines: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(shards) = opts.route.take() {
        let Some(addr) = opts.tcp.as_deref() else {
            eprintln!("svd: --route needs --tcp ADDR to listen on");
            return ExitCode::FAILURE;
        };
        return match serve_router(addr, opts.port_file.as_ref(), shards, registry, opts.max_clients)
        {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("svd: router failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    // One seeded plan drives every layer, so a chaos run replays exactly.
    let plan = opts.faults.take().map(|cfg| {
        eprintln!("svd: chaos fault injection armed (seed {})", opts.fault_seed);
        Arc::new(FaultPlan::new(opts.fault_seed, cfg))
    });
    if let Some(p) = &plan {
        opts.cache.faults = Some(Arc::clone(p) as _);
    }
    let svc = match ServeService::with_registry(opts.cache, registry) {
        Ok(mut s) => {
            if let Some(p) = &plan {
                s.set_faults(Arc::clone(p));
            }
            Arc::new(s)
        }
        Err(e) => {
            eprintln!("svd: cannot open cache: {e}");
            return ExitCode::FAILURE;
        }
    };
    let batcher = Batcher::with_faults(svc, opts.batch, plan);
    let outcome = match opts.tcp {
        None => serve_stdio(batcher).map_err(|e| std::io::Error::other(e.to_string())),
        Some(addr) => serve_tcp(&addr, opts.port_file.as_ref(), opts.max_clients, batcher),
    };
    if let Err(e) = outcome {
        eprintln!("svd: server failed: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
