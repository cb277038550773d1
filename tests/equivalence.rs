//! Integration test: every workload loop, compiled under every technique
//! on both machines, computes the same memory state and live-outs as the
//! scalar source loop, and every produced schedule validates.

use selvec::analysis::DepGraph;
use selvec::core::parallel::{default_jobs, run_ordered};
use selvec::core::{compile, Strategy};
use selvec::machine::MachineConfig;
use selvec::modsched::{emit_flat_for, validate_schedule};
use selvec::sim::{
    assert_equivalent, execute_loop, execute_schedule, executed_selfcheck,
    has_register_state_across_cleanup, Memory,
};
use selvec::workloads::all_benchmarks;

/// Cap simulated work: equivalence runs one invocation, so only the trip
/// count matters; clamp huge-trip loops to keep the suite fast.
fn clamped(l: &selvec::ir::Loop) -> selvec::ir::Loop {
    let mut l = l.clone();
    if l.trip.count > 512 {
        l.trip.count = 509; // odd: exercises the cleanup path
    }
    l.invocations = 1;
    l
}

/// Every workload loop, clamped — the independent unit the sweep tests
/// fan out over the work pool (an assertion failure in a worker
/// propagates as the usual test panic).
fn all_clamped_loops() -> Vec<selvec::ir::Loop> {
    all_benchmarks()
        .iter()
        .flat_map(|s| s.loops.iter().map(clamped))
        .collect()
}

#[test]
fn all_workloads_equivalent_under_all_strategies() {
    let machines = [MachineConfig::paper_default(), MachineConfig::figure1()];
    let loops = all_clamped_loops();
    let counts = run_ordered(&loops, default_jobs(), |_, src| {
        let mut l = src.clone();
        // Register-carried state does not flow into cleanup loops in
        // this simulator (see sv-sim docs); use a remainder-free trip
        // for those loops.
        if has_register_state_across_cleanup(&l) {
            l.trip.count &= !3; // multiple of 4 covers VL 2 (and 4)
            if l.trip.count == 0 {
                l.trip.count = 4;
            }
        }
        let mut checked = 0u32;
        for machine in &machines {
            for strategy in Strategy::ALL {
                let compiled = compile(&l, machine, strategy)
                    .unwrap_or_else(|e| panic!("{}: {e}", l.name));
                assert_equivalent(&l, &compiled);
                checked += 1;
            }
        }
        checked
    });
    // 377 loops (Table 3 counts summed) × 2 machines × 7 strategies.
    assert_eq!(counts.iter().sum::<u32>(), 377 * 2 * 7);
}

#[test]
fn all_workload_schedules_validate() {
    let machine = MachineConfig::paper_default();
    let loops = all_clamped_loops();
    run_ordered(&loops, default_jobs(), |_, l| {
        for strategy in Strategy::ALL {
            let compiled = compile(l, &machine, strategy).unwrap();
            for seg in &compiled.segments {
                let g = DepGraph::build(&seg.looop);
                validate_schedule(&seg.looop, &g, &machine, &seg.schedule)
                    .unwrap_or_else(|e| {
                        panic!("{} under {strategy}: {e}", seg.looop.name)
                    });
                if let Some((cl, cs)) = &seg.cleanup {
                    let g = DepGraph::build(cl);
                    validate_schedule(cl, &g, &machine, cs)
                        .unwrap_or_else(|e| panic!("{}: {e}", cl.name));
                }
            }
        }
    });
}

/// Execute every modulo-only and selective plan *as scheduled code* on
/// the cycle-accurate executor (each row in its cycle, registers renamed
/// per iteration, memory touched in pipeline order) and require the
/// reference engine's result bit for bit at the scheduled II. This
/// catches scheduler reorderings that structural validation alone would
/// miss.
#[test]
fn pipelined_execution_matches_in_order_execution() {
    let machine = MachineConfig::paper_default();
    let loops = all_clamped_loops();
    let counts = run_ordered(&loops, default_jobs(), |_, src| {
        let mut l = src.clone();
        l.trip.count = l.trip.count.clamp(8, 64);
        let mut checked = 0u32;
        for strategy in [Strategy::ModuloOnly, Strategy::Selective] {
            let compiled = compile(&l, &machine, strategy).unwrap();
            executed_selfcheck(&compiled, &machine)
                .unwrap_or_else(|e| panic!("{} under {strategy}: {e}", l.name));
            checked += 1;
        }
        checked
    });
    // 377 loops × 2 strategies.
    assert_eq!(counts.iter().sum::<u32>(), 377 * 2);
}

/// The emitted flat prologue/kernel/epilogue layout, executed as written,
/// computes the same result as in-order execution for a sample of
/// workload loops.
#[test]
fn flat_layouts_execute_correctly() {
    let machine = MachineConfig::paper_default();
    for suite in all_benchmarks().iter().take(4) {
        for src in suite.loops.iter().take(6) {
            let l = clamped(src);
            let compiled = compile(&l, &machine, Strategy::Selective).unwrap();
            for seg in &compiled.segments {
                let n = u64::from(seg.schedule.stage_count) + 13;
                let flat = emit_flat_for(&seg.looop, &seg.schedule, n);
                let mut mem_a = Memory::for_arrays(&seg.looop.arrays);
                let mut mem_b = mem_a.clone();
                execute_loop(&seg.looop, &mut mem_a, 0..n);
                let (_, report) =
                    execute_schedule(&seg.looop, &machine, &flat, &mut mem_b, 0..n)
                        .unwrap_or_else(|e| panic!("{}: {e}", seg.looop.name));
                assert!(report.steady_state_ok(seg.schedule.ii), "{}", seg.looop.name);
                for i in 0..seg.looop.arrays.len() as u32 {
                    for (e, (va, vb)) in
                        mem_a.array(i).iter().zip(mem_b.array(i)).enumerate()
                    {
                        assert!(va.approx_eq(*vb), "{}: array {i}[{e}]", seg.looop.name);
                    }
                }
            }
        }
    }
}

#[test]
fn schedules_meet_their_lower_bounds() {
    let machine = MachineConfig::paper_default();
    let loops = all_clamped_loops();
    let tallies = run_ordered(&loops, default_jobs(), |_, l| {
        let mut at_mii = 0usize;
        let mut total = 0usize;
        let compiled = compile(l, &machine, Strategy::Selective).unwrap();
        for seg in &compiled.segments {
            let s = &seg.schedule;
            assert!(s.ii >= s.resmii.max(s.recmii));
            total += 1;
            if s.ii == s.resmii.max(s.recmii) {
                at_mii += 1;
            }
        }
        (at_mii, total)
    });
    let at_mii: usize = tallies.iter().map(|t| t.0).sum();
    let total: usize = tallies.iter().map(|t| t.1).sum();
    // Iterative modulo scheduling reaches MII nearly always (Rau reports
    // > 96%); require a strong majority here.
    assert!(
        at_mii * 100 >= total * 90,
        "only {at_mii}/{total} schedules met MII"
    );
}
