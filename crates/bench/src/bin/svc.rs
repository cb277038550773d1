//! `svc` — the selective-vectorization compiler driver.
//!
//! Compiles a loop written in the textual IR format (what `Loop`'s
//! `Display` prints and `sv_ir::parse_loop` reads) under any strategy and
//! reports the schedule, optionally dumping the flat prologue / kernel /
//! epilogue listing and functionally executing the result.
//!
//! ```text
//! svc LOOP.svl|LOOP.sl [--machines DIR] [--machine NAME] [--machine-file SPEC]
//!              [--strategy selective|full|...]
//!              [--vl N] [--aligned] [--free-comm] [--emit] [--run] [--executed]
//! svc --workload tomcatv.residual [...same options]
//! svc --server HOST:PORT [--retries N] [...same selection options]
//! ```
//!
//! `--machine` resolves against the machine registry: the builtin
//! `paper`/`figure1` presets plus every spec file loaded by a preceding
//! `--machines DIR`. `--machine-file` compiles against one spec file
//! without registering it.
//!
//! `--run` executes the compiled plan functionally and checks it against
//! the source loop; `--executed` replays it through the cycle-accurate
//! VLIW executor ([`sv_sim::compile_executed`]) and prints each piece's
//! measured steady-state cycles/iteration next to its scheduled II — a
//! mismatch (or any interlock stall) fails the compile like any other
//! pass error.
//!
//! With no `--strategy`, all techniques are compared side by side. The
//! `--workload` form compiles a named loop from the built-in SPEC-FP
//! substitute suites (`BENCH.LOOP`, e.g. `swim.calc1`).
//!
//! `--server HOST:PORT` compiles remotely against a running `svd`
//! instead of in-process: the resolved machine travels as an inline
//! canonical spec (so the server needs no matching registry entry), and
//! the request goes through the retrying client — `overloaded`
//! rejections and dropped connections are retried with capped
//! exponential backoff (`--retries` bounds them) before giving up with a
//! typed error.

use std::process::ExitCode;
use sv_core::{compile, compile_checked, CompiledLoop, DriverConfig, Strategy};
use sv_ir::{parse_loop, Loop};
use sv_machine::{AlignmentPolicy, CommModel, MachineConfig, MachineRegistry};
use sv_modsched::emit_flat;
use sv_serve::{CompileRequest, RetryClient, RetryPolicy, TcpTransport};
use sv_sim::{assert_equivalent, compile_executed, run_compiled, ExecutedPiece};

struct Options {
    path: String,
    workload: Option<String>,
    machine: MachineConfig,
    strategy: Option<Strategy>,
    emit: bool,
    run: bool,
    executed: bool,
    stats: bool,
    server: Option<String>,
    retries: u32,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: svc LOOP.svl [--machines DIR] [--machine NAME] [--machine-file SPEC]\n\
         \x20          [--strategy NAME] [--vl N] [--aligned] [--free-comm]\n\
         \x20          [--emit] [--run] [--executed] [--stats]\n\
         \x20     svc --workload BENCH.LOOP [...same options]\n\
         \x20     svc --server HOST:PORT [--retries N] [...same selection options]\n\
         strategies: modulo-no-unroll, modulo, traditional, full, selective, widened,\n\
         \x20 optimal\n\
         --machine resolves against the registry (builtins paper, figure1, plus\n\
         \x20 any --machines DIR given before it)\n\
         --stats prints per-pass timings/counters and one JSON line per compilation\n\
         --executed replays the plan on the cycle-accurate executor and proves\n\
         \x20 measured steady-state II == scheduled II (state checked bit-exactly)\n\
         --server compiles remotely over the retrying wire client (inline machine spec)"
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Options, ExitCode> {
    let mut args = std::env::args().skip(1);
    let mut path = None;
    let mut workload = None;
    let mut registry = MachineRegistry::builtin();
    let mut machine = MachineConfig::paper_default();
    let mut strategy = None;
    let mut emit = false;
    let mut run = false;
    let mut executed = false;
    let mut stats = false;
    let mut server = None;
    let mut retries = 4u32;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--machines" => {
                let dir = args.next().ok_or_else(usage)?;
                registry.load_dir(std::path::Path::new(&dir)).map_err(|e| {
                    eprintln!("svc: cannot load machines: {e}");
                    ExitCode::FAILURE
                })?;
            }
            "--machine" => {
                let name = args.next().ok_or_else(usage)?;
                machine = registry.get(&name).cloned().ok_or_else(|| {
                    eprintln!(
                        "svc: unknown machine `{name}` (registry has: {})",
                        registry.names().join(", ")
                    );
                    ExitCode::FAILURE
                })?;
            }
            "--strategy" => {
                let name = args.next().ok_or_else(usage)?;
                strategy = Some(name.parse().map_err(|e| {
                    eprintln!("svc: {e}");
                    usage()
                })?)
            }
            "--vl" => {
                machine.vector_length = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&v| v >= 2)
                    .ok_or_else(usage)?
            }
            "--workload" => workload = Some(args.next().ok_or_else(usage)?),
            "--machine-file" => {
                let p = args.next().ok_or_else(usage)?;
                let text = std::fs::read_to_string(&p).map_err(|e| {
                    eprintln!("svc: cannot read {p}: {e}");
                    ExitCode::FAILURE
                })?;
                machine = MachineConfig::from_spec(&text).map_err(|e| {
                    eprintln!("svc: {p}: {e}");
                    ExitCode::FAILURE
                })?;
            }
            "--server" => server = Some(args.next().ok_or_else(usage)?),
            "--retries" => {
                retries = args.next().and_then(|v| v.parse().ok()).ok_or_else(usage)?
            }
            "--aligned" => machine.alignment = AlignmentPolicy::AssumeAligned,
            "--free-comm" => machine.comm = CommModel::Free,
            "--emit" => emit = true,
            "--run" => run = true,
            "--executed" => executed = true,
            "--stats" => stats = true,
            "--help" | "-h" => return Err(usage()),
            other if path.is_none() && !other.starts_with('-') => {
                path = Some(other.to_string())
            }
            _ => return Err(usage()),
        }
    }
    if path.is_none() && workload.is_none() {
        return Err(usage());
    }
    Ok(Options {
        path: path.unwrap_or_default(),
        workload,
        machine,
        strategy,
        emit,
        run,
        executed,
        stats,
        server,
        retries,
    })
}

/// Remote mode: one wire request per strategy through the retrying
/// client. The resolved machine travels inline as its canonical spec, so
/// the daemon compiles against exactly what `svc` resolved locally.
fn compile_remote(
    addr: &str,
    retries: u32,
    looop: &Loop,
    machine: &MachineConfig,
    strategies: &[Strategy],
) -> ExitCode {
    let policy = RetryPolicy { max_retries: retries, ..RetryPolicy::default() };
    let mut client = RetryClient::new(TcpTransport::new(addr), policy);
    let mut failed = false;
    for (i, &s) in strategies.iter().enumerate() {
        let req = CompileRequest {
            loop_text: looop.to_string(),
            machine_spec: Some(machine.to_spec()),
            strategy: s,
            ..CompileRequest::default()
        };
        match client.call(&req.to_wire(i as u64 + 1), None) {
            Ok(line) => println!("{line}"),
            Err(e) => {
                eprintln!("svc: {s}: {e}");
                failed = true;
            }
        }
    }
    let st = client.stats();
    if st.retries > 0 || st.give_ups > 0 {
        eprintln!(
            "svc: client retried {} time(s), gave up {} time(s)",
            st.retries, st.give_ups
        );
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Print each piece's executed cycle accounting next to its schedule.
fn report_executed(pieces: &[ExecutedPiece]) {
    for p in pieces {
        let measured = p
            .report
            .measured_ii()
            .map_or_else(|| "   -".into(), |ii| format!("{ii:>4.1}"));
        println!(
            "  executed {:<24} measured II {measured}  scheduled II {:>3}  \
             ({} iterations, {} cycles, {} stalls)",
            p.piece, p.scheduled_ii, p.iterations, p.report.total_cycles, p.report.stall_cycles
        );
    }
    println!("  executed check: state matches the reference engine at the scheduled II");
}

fn report(l: &Loop, m: &MachineConfig, c: &CompiledLoop, emit: bool, run: bool) {
    println!(
        "{:<20} II/iter {:>6.2}  cycles {:>10}",
        c.strategy.to_string(),
        c.ii_per_original_iteration(),
        c.total_cycles(m)
    );
    for seg in &c.segments {
        let regs = seg
            .registers
            .as_ref()
            .map(|r| format!("{}/{}/{}/{}", r.used[0], r.used[1], r.used[2], r.used[3]))
            .unwrap_or_else(|| "spill!".into());
        println!(
            "  segment {:<24} II {:>3} (ResMII {:>3}, RecMII {:>3})  stages {:>2}  MVE {:>2}  regs {regs}",
            seg.looop.name,
            seg.schedule.ii,
            seg.schedule.resmii,
            seg.schedule.recmii,
            seg.schedule.stage_count,
            seg.schedule.mve_factor
        );
        if emit {
            print!("{}", emit_flat(&seg.looop, &seg.schedule));
        }
    }
    if run {
        assert_equivalent(l, c);
        let r = run_compiled(c);
        for (name, v) in &r.live_outs {
            println!("  liveout {name} = {:?}", v.as_f64());
        }
        println!("  functional check: matches the source loop");
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(code) => return code,
    };
    let looop = if let Some(spec) = &opts.workload {
        let (bench, loop_name) = spec.split_once('.').unwrap_or((spec.as_str(), ""));
        let suite = match sv_workloads::benchmark(bench) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("svc: {e}");
                return ExitCode::FAILURE;
            }
        };
        let Some(l) = suite
            .loops
            .iter()
            .find(|l| l.name.ends_with(loop_name) || l.name == *spec)
        else {
            eprintln!("svc: no loop matching `{spec}` in {}; available:", suite.name);
            for l in &suite.loops {
                eprintln!("  {}", l.name);
            }
            return ExitCode::FAILURE;
        };
        l.clone()
    } else {
        let text = match std::fs::read_to_string(&opts.path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("svc: cannot read {}: {e}", opts.path);
                return ExitCode::FAILURE;
            }
        };
        // Two accepted syntaxes: the low-level IR text (header contains
        // "(trip ...)") and the expression frontend.
        let low_level = text
            .lines()
            .find(|l| !l.trim().is_empty() && !l.trim_start().starts_with('#'))
            .is_some_and(|l| l.contains("(trip"));
        let parsed = if low_level {
            parse_loop(&text)
        } else {
            sv_ir::loop_from_source(&text)
        };
        match parsed {
            Ok(l) => l,
            Err(e) => {
                eprintln!("svc: {}: {e}", opts.path);
                return ExitCode::FAILURE;
            }
        }
    };
    let strategies: Vec<Strategy> = match opts.strategy {
        Some(s) => vec![s],
        None => Strategy::ALL.to_vec(),
    };
    if let Some(addr) = &opts.server {
        return compile_remote(addr, opts.retries, &looop, &opts.machine, &strategies);
    }
    println!("{looop}");
    for s in strategies {
        if opts.stats {
            // The hardened driver records PassStats; print them under the
            // schedule summary plus the machine-readable JSON line.
            let dcfg = DriverConfig::for_strategy(s);
            match compile_checked(&looop, &opts.machine, &dcfg) {
                Ok((c, rep)) => {
                    report(&looop, &opts.machine, &c, opts.emit, opts.run);
                    if !rep.clean() {
                        println!("  degraded to {} ({} fallbacks)", rep.delivered, rep.fallbacks.len());
                    }
                    for line in rep.stats.to_string().lines() {
                        println!("  {line}");
                    }
                    println!("{}", rep.stats_json_line(&looop.name, &opts.machine.name));
                }
                Err(e) => {
                    eprintln!("svc: {e}");
                    return ExitCode::FAILURE;
                }
            }
        } else if opts.executed {
            // The executed gate rides the hardened driver: compile, then
            // replay on the cycle-accurate executor and fail like any
            // other pass error if the schedule misses its own II.
            let dcfg = DriverConfig::for_strategy(s);
            match compile_executed(&looop, &opts.machine, &dcfg) {
                Ok((c, _rep, pieces)) => {
                    report(&looop, &opts.machine, &c, opts.emit, opts.run);
                    report_executed(&pieces);
                }
                Err(e) => {
                    eprintln!("svc: {e}");
                    return ExitCode::FAILURE;
                }
            }
        } else {
            match compile(&looop, &opts.machine, s) {
                Ok(c) => report(&looop, &opts.machine, &c, opts.emit, opts.run),
                Err(e) => {
                    eprintln!("svc: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    ExitCode::SUCCESS
}
