//! `execute`: the simulator in-process over compiled plans.

use crate::metrics::Report;
use crate::svd::ProcSample;
use crate::trace::{Overhead, Tracer};
use crate::{inputs, set_up_repeatedly, Run};
use std::time::Instant;
use sv_core::{compile_checked, CompiledLoop, DriverConfig, Strategy};
use sv_machine::MachineConfig;
use sv_modsched::emit_flat_for;
use sv_sim::{
    executed_selfcheck, has_register_state_across_cleanup, reference, run_compiled_executed,
};
use sv_workloads::{SmallRng, SynthProfile};

/// Seeded broad synthetic loops executed next to the suite.
const SYNTH: usize = 16;

struct Plan {
    compiled: CompiledLoop,
    machine: usize,
}

/// Compile every suite loop and the seeded synthetic loops for `paper`
/// and `vl4` under selective and modulo-only scheduling.
fn plans(seed: u64) -> Result<(Vec<MachineConfig>, Vec<Plan>), String> {
    let registry = inputs::registry()?;
    let machines = vec![
        inputs::machine(&registry, "paper")?,
        inputs::machine(&registry, "vl4")?,
    ];
    let mut loops = inputs::suite_loops();
    for mut l in inputs::synth_loops("exec", &SynthProfile::broad(), SYNTH, seed) {
        // As simbench does: one invocation, and no remainder where
        // register state would have to cross into the cleanup loop.
        l.invocations = 1;
        if has_register_state_across_cleanup(&l) {
            l.trip.count = (l.trip.count & !3).max(4);
        }
        loops.push(l);
    }
    let mut plans = Vec::new();
    for l in &loops {
        for (machine, m) in machines.iter().enumerate() {
            for s in [Strategy::Selective, Strategy::ModuloOnly] {
                let (compiled, _) = compile_checked(l, m, &DriverConfig::for_strategy(s))
                    .map_err(|e| format!("compiling {}: {e}", l.name))?;
                plans.push(Plan { compiled, machine });
            }
        }
    }
    Ok((machines, plans))
}

pub fn execute(run: &Run) -> Result<Report, String> {
    let ((machines, plans), setup_s) = set_up_repeatedly(|_| plans(run.seed))?;
    let mut order: Vec<usize> = (0..plans.len()).collect();
    inputs::shuffle(&mut order, &mut SmallRng::seed_from_u64(run.seed));

    let mut report = Report::default();
    let mut lat = Vec::new();
    let mut passes = 0;
    let mut iterations = 0u64;
    let start = Instant::now();
    while passes == 0 || start.elapsed().as_secs_f64() < run.seconds {
        for &i in &order {
            let p = &plans[i];
            let t0 = Instant::now();
            let r = executed_selfcheck(&p.compiled, &machines[p.machine]);
            lat.push(t0.elapsed().as_secs_f64() * 1e3);
            match r {
                Ok(pieces) => {
                    iterations += pieces.iter().map(|x| x.iterations).sum::<u64>();
                    if let Some(x) = pieces.iter().find(|x| x.report.stall_cycles > 0) {
                        report.mismatch(format!(
                            "{}: {} stall cycles",
                            x.piece, x.report.stall_cycles
                        ));
                    }
                }
                Err(e) => report.mismatch(format!("{}: {e}", p.compiled.source.name)),
            }
        }
        passes += 1;
    }
    let elapsed = start.elapsed().as_secs_f64();
    let me = ProcSample::of("self")?;
    report.attempted = lat.len() as u64;
    report.set_pass_timings(&lat, plans.len(), elapsed);
    report.set("setup_s", setup_s);
    report.set("peak_rss_mb", me.peak_mb());
    let cycles: u64 = plans
        .iter()
        .map(|p| p.compiled.total_cycles(&machines[p.machine]))
        .sum();
    report.set("code_cycles", cycles as f64);
    report.diag(
        "ns_per_iter",
        elapsed * 1e9 / iterations.max(1) as f64,
        "ns",
    );
    report.diag("plans", plans.len() as f64, "count");

    if run.traced {
        let mut t = Tracer::new();
        let mut overhead = Overhead::default();
        let (mut iters, mut stalls) = (0u64, 0u64);
        for (k, &i) in order.iter().enumerate() {
            let (id, c, m) = (i as u64, &plans[i].compiled, &machines[plans[i].machine]);
            // The self-check, then its parts, one span each.
            let _ = overhead.call(&mut t, k, "sim.selfcheck", id, || executed_selfcheck(c, m));
            for seg in &c.segments {
                let n = seg.looop.executed_iterations();
                t.span("modsched.emit", id, |_| {
                    emit_flat_for(&seg.looop, &seg.schedule, n)
                });
                let r = seg.looop.remainder_iterations();
                if let (true, Some((cl, cs))) = (r > 0, &seg.cleanup) {
                    t.span("modsched.emit", id, |_| emit_flat_for(cl, cs, r));
                }
            }
            let executed = t.span("sim.sched_exec", id, |_| run_compiled_executed(c, m));
            let (_, pieces) = executed.map_err(|e| format!("{}: {e}", c.source.name))?;
            iters += pieces.iter().map(|x| x.iterations).sum::<u64>();
            stalls += pieces.iter().map(|x| x.report.stall_cycles).sum::<u64>();
            t.span("sim.reference", id, |_| reference::run_compiled(c));
        }
        report.set("bench.trace_overhead", overhead.ratio());
        let layers = t.layers();
        let total = |name: &str| layers.get(name).map_or(0, |l| l.total_ns) as f64;
        let n = order.len() as f64;
        report.set(
            "modsched.emit_us",
            layers.get("modsched.emit").map_or(0.0, |l| l.mean_us()),
        );
        report.set(
            "sim.sched_exec_ns_per_iter",
            (total("sim.sched_exec") - total("modsched.emit")) / iters.max(1) as f64,
        );
        report.set(
            "sim.reference_ns_per_iter",
            total("sim.reference") / iters.max(1) as f64,
        );
        report.set(
            "sim.check_us",
            (total("sim.selfcheck") - total("sim.sched_exec") - total("sim.reference")) / n / 1e3,
        );
        report.set("sim.stall_cycles", stalls as f64);
        t.write_jsonl(&run.dir.join("trace-execute.jsonl"))
            .map_err(|e| format!("trace file: {e}"))?;
    }
    Ok(report)
}
