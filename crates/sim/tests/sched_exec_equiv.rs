//! Differential tests for the slot-accurate schedule executor.
//!
//! Every compiled plan must satisfy two gates when replayed through
//! [`sv_sim::execute_schedule`]:
//!
//! 1. **state** — final memory and live-outs bit-identical
//!    ([`sv_sim::Scalar::identical`]) to the retained reference engine
//!    running the same plan;
//! 2. **timing** — zero interlock stalls, and measured steady-state
//!    cycles/iteration exactly the scheduled II for every piece whose
//!    kernel runs.
//!
//! Two hundred seeded random loops sweep the generator's distribution
//! profiles across all seven strategies and three registry machines; the
//! benchmark suites pin the hand-written kernels; a separate property
//! test holds the executor's measured total cycles to the timing model —
//! exactly `(n − 1)·II + length`, with the analytic `(n + SC − 1)·II`
//! within one II of it — over the whole machine registry.

use std::path::Path;
use sv_core::{DriverConfig, Strategy};
use sv_machine::{MachineConfig, MachineRegistry};
use sv_sim::{compile_executed, execute_schedule, executed_selfcheck, Memory};
use sv_workloads::{synth_loop, SynthProfile};

/// The builtin pair plus one spec-file machine: scheduling behaviour
/// differs across all three (issue width, vector lanes, communication
/// cost), so the sweep exercises genuinely different schedules.
fn registry_machines() -> Vec<(String, MachineConfig)> {
    let mut reg = MachineRegistry::builtin();
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/machines");
    reg.load_dir(&dir).expect("examples/machines must parse");
    let mut out = Vec::new();
    for name in ["paper", "figure1", "vl4"] {
        let m = reg.get(name).unwrap_or_else(|| panic!("machine {name} missing"));
        out.push((name.to_string(), m.clone()));
    }
    out
}

/// The generator profiles the sweep cycles through — the same shapes the
/// differential fuzzer stresses (broad mix, reductions, recurrence
/// chains, tiny trips).
fn profile_for(seed: u64) -> SynthProfile {
    let broad = SynthProfile::broad();
    match seed % 4 {
        0 => broad,
        1 => SynthProfile { reduction_prob: 0.85, reassoc: true, ..broad },
        2 => SynthProfile {
            recurrence_prob: 0.6,
            carried_prob: 0.35,
            nonunit_prob: 0.3,
            ..broad
        },
        _ => SynthProfile { loads: (1, 2), arith: (1, 3), trip: (1, 9), ..broad },
    }
}

/// Compile under every strategy and hold the executed plan to both
/// gates. Returns how many strategies produced a plan (compilation
/// failures are legitimate for pathological loops; executed failures
/// never are).
fn check_executed(l: &sv_ir::Loop, mname: &str, m: &MachineConfig) -> u32 {
    let mut compiled = 0;
    for s in Strategy::ALL {
        let cfg = DriverConfig { strategy: s, ..DriverConfig::default() };
        match compile_executed(l, m, &cfg) {
            Ok((_, _, pieces)) => {
                compiled += 1;
                assert!(!pieces.is_empty(), "{}/{s}/{mname}: no pieces ran", l.name);
            }
            Err(sv_core::CompileError::Execution { detail, .. }) => {
                panic!("{}/{s}/{mname}: executed gate failed: {detail}", l.name)
            }
            Err(_) => {}
        }
    }
    compiled
}

#[test]
fn two_hundred_random_loops_execute_at_scheduled_ii() {
    let machines = registry_machines();
    let mut compiled = 0u32;
    for seed in 0..200u64 {
        let mut l = synth_loop(&format!("sx{seed}"), &profile_for(seed), seed);
        l.invocations = 1;
        let (name, m) = &machines[(seed % 3) as usize];
        compiled += check_executed(&l, name, m);
    }
    // The sweep must actually exercise the executor across strategies,
    // not just trip on compile failures.
    assert!(compiled >= 900, "only {compiled}/1200 cases compiled");
}

#[test]
fn short_trip_loops_execute_truncated_layouts() {
    // Trips below the stage count take the truncated prologue-only
    // layout; the executor must still match the reference engine and
    // report a vacuously-satisfied timing gate (kernel never runs).
    let machines = registry_machines();
    for seed in 0..40u64 {
        let mut l = synth_loop(&format!("st{seed}"), &profile_for(seed), seed);
        l.invocations = 1;
        l.trip.count = seed % 4; // 0..=3 iterations: below most stage counts
        let (name, m) = &machines[(seed % 3) as usize];
        check_executed(&l, name, m);
    }
}

#[test]
fn suite_kernels_execute_at_scheduled_ii() {
    // The hand-written benchmark kernels (plus a slice of each suite's
    // synthetic fill) through the full gate on the paper machine.
    let m = MachineConfig::paper_default();
    for suite in sv_workloads::all_benchmarks() {
        for l in suite.loops.iter().take(8) {
            let mut l = l.clone();
            l.invocations = 1;
            check_executed(&l, "paper", &m);
        }
    }
}

#[test]
fn predicated_kernels_hold_every_gate_everywhere() {
    // The four if-converted suite kernels (clip, threshold-accumulate,
    // argmax max+select, conditional saxpy) × every strategy × the
    // registry machines — including the select-capacity sweep pair
    // (`selcheap`/`selslow`). `compile_executed` holds each plan to the
    // full gate stack: bit-identical state vs the reference engine, zero
    // stalls, measured steady-state II == scheduled II, and observed
    // register pressure within MaxLive.
    let mut reg = MachineRegistry::builtin();
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/machines");
    reg.load_dir(&dir).expect("examples/machines must parse");
    let machines: Vec<(String, MachineConfig)> =
        ["paper", "figure1", "vl4", "selcheap", "selslow"]
            .iter()
            .map(|n| (n.to_string(), reg.get(n).unwrap_or_else(|| panic!("{n} missing")).clone()))
            .collect();
    for (suite, pat) in [
        ("hydro2d", "slopeclip"),
        ("apsi", "excess"),
        ("swim", "wetdry"),
        ("wave5", "fieldmax"),
    ] {
        let s = sv_workloads::benchmark(suite).expect("suite exists");
        let mut l = s
            .loops
            .iter()
            .find(|l| l.name.ends_with(pat))
            .unwrap_or_else(|| panic!("{pat} missing from {suite}"))
            .clone();
        l.invocations = 1;
        for (name, m) in &machines {
            let compiled = check_executed(&l, name, m);
            assert!(compiled >= 6, "{pat}/{name}: only {compiled}/7 strategies compiled");
        }
    }
}

#[test]
fn observed_register_pressure_is_real_and_bounded() {
    // The executor's live-value probe must (a) see the pressure a
    // pipelined copy loop provably has — at II = 1 the loaded value
    // lives for the 3-cycle load latency, so ≥ 3 fp registers are
    // simultaneously live — and (b) never exceed the scheduler's
    // MaxLive estimate (the `executed_selfcheck` gate).
    let mut b = sv_ir::LoopBuilder::new("copy");
    b.trip(64);
    let x = b.array("x", sv_ir::ScalarType::F64, 80);
    let y = b.array("y", sv_ir::ScalarType::F64, 80);
    let lx = b.load(x, 1, 0);
    b.store(y, 1, 0, lx);
    let l = b.finish();
    let m = MachineConfig::paper_default();
    let cfg = DriverConfig { strategy: Strategy::ModuloNoUnroll, ..DriverConfig::default() };
    let (_, _, pieces) = compile_executed(&l, &m, &cfg).expect("copy compiles");
    let main = &pieces[0];
    assert_eq!(main.scheduled_ii, 1);
    let fp = main.report.observed_max_live[1];
    assert!(fp >= 3, "observed fp pressure {fp} misses the load latency");
    assert!(fp <= main.max_live[1], "probe exceeds the scheduler estimate");
    // Nothing here touches the other classes' registers.
    assert_eq!(main.report.observed_max_live[2], 0, "no vector-int values");
    assert_eq!(main.report.observed_max_live[3], 0, "no vector-fp values");
}

#[test]
fn suite_pressure_never_exceeds_maxlive_across_registry() {
    // Register-pressure slice of the executed gate across machines: every
    // suite kernel that compiles under every strategy must replay within
    // the scheduler's MaxLive on each registry machine (the assertion
    // itself lives inside `executed_selfcheck`; this sweep pins the
    // suite × strategy × registry coverage).
    let machines = registry_machines();
    let mut checked = 0u32;
    for (mi, suite) in sv_workloads::all_benchmarks().iter().enumerate() {
        let (name, m) = &machines[mi % machines.len()];
        for l in suite.loops.iter().take(4) {
            let mut l = l.clone();
            l.invocations = 1;
            checked += check_executed(&l, name, m);
        }
    }
    assert!(checked >= 100, "only {checked} suite × strategy × machine points checked");
}

#[test]
fn analytic_cycles_within_one_ii_over_registry() {
    // The executed total must be exactly `(n − 1)·II + length`, and the
    // analytic model `(n + SC − 1)·II` always within one II of it. Hold
    // both over every registry machine × a spread of suite loops and
    // trips.
    let machines = registry_machines();
    let suites = sv_workloads::all_benchmarks();
    let mut checked = 0u32;
    for (mname, m) in &machines {
        for suite in &suites {
            for l in suite.loops.iter().take(4) {
                let g = sv_analysis::DepGraph::build(l);
                let Ok(s) = sv_modsched::modulo_schedule(l, &g, m) else { continue };
                for n in [1u64, 2, u64::from(s.stage_count), l.trip.count.max(1)] {
                    let flat = sv_modsched::emit_flat_for(l, &s, n);
                    let mut mem = Memory::for_arrays(&l.arrays);
                    let (_, r) = execute_schedule(l, m, &flat, &mut mem, 0..n)
                        .unwrap_or_else(|e| panic!("{}/{mname}: {e}", l.name));
                    let ii = u64::from(s.ii);
                    assert_eq!(
                        r.total_cycles,
                        (n - 1) * ii + u64::from(s.length),
                        "{}/{mname} n={n}: executed total vs (n-1)·II + length",
                        l.name
                    );
                    let analytic = (n + u64::from(s.stage_count) - 1) * ii;
                    assert!(
                        analytic >= r.total_cycles,
                        "{}/{mname} n={n}: analytic {analytic} < exact {}",
                        l.name,
                        r.total_cycles
                    );
                    assert!(
                        analytic - r.total_cycles < ii,
                        "{}/{mname} n={n}: analytic {analytic} drifts a full II from exact {} (II {ii})",
                        l.name,
                        r.total_cycles
                    );
                    checked += 1;
                }
            }
        }
    }
    assert!(checked >= 200, "only {checked} (machine, loop, trip) points checked");
}

#[test]
fn private_comm_slots_survive_overlapped_iterations() {
    // Regression for the first real bugs this executor caught. Selective
    // vectorization communicates scalar↔vector values through
    // `iteration_private` comm arrays with invariant addressing
    // (`@a[0·i+k]`); the dependence graph carries no cross-iteration
    // edges on them, so on the wider-vector machines the scheduler
    // overlaps iteration `j+1`'s comm store past iteration `j`'s comm
    // load (su2cor.gaugemul on `vl4`: store at t=19, load at t=35 with
    // II 13). Before the executors renamed private arrays per in-flight
    // iteration (`sim/src/privrot.rs`), the overlapped replay silently
    // corrupted the slot and the executed state diverged from the
    // reference engine.
    let mut reg = MachineRegistry::builtin();
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/machines");
    reg.load_dir(&dir).expect("examples/machines must parse");
    for (mname, suite, kernel) in
        [("vl4", "su2cor", "gaugemul"), ("mem4", "mgrid", "psinv")]
    {
        let m = reg.get(mname).unwrap_or_else(|| panic!("machine {mname} missing"));
        let suite = sv_workloads::benchmark(suite).expect("suite exists");
        let mut l = suite
            .loops
            .iter()
            .find(|l| l.name.ends_with(kernel))
            .unwrap_or_else(|| panic!("{kernel} missing from suite"))
            .clone();
        l.invocations = 1;
        let cfg = DriverConfig { strategy: Strategy::Selective, ..DriverConfig::default() };
        let (_, _, pieces) = compile_executed(&l, m, &cfg)
            .unwrap_or_else(|e| panic!("{kernel}/{mname}: {e}"));
        // The overlapped pieces must also hold the timing gate.
        for p in &pieces {
            assert_eq!(p.report.stall_cycles, 0, "{}/{mname}", p.piece);
        }
    }
}

#[test]
fn executed_selfcheck_reports_both_gates() {
    // The combined gate used by `--executed-selfcheck`: state and timing
    // in one call, on a kernel with a cleanup piece (non-multiple trip).
    let m = MachineConfig::paper_default();
    let mut l = synth_loop("gate", &SynthProfile::broad(), 7);
    l.invocations = 1;
    l.trip.count = 37;
    for s in Strategy::ALL {
        let Ok(c) = sv_core::compile(&l, &m, s) else { continue };
        let pieces = executed_selfcheck(&c, &m)
            .unwrap_or_else(|e| panic!("{s}: {e}"));
        for p in &pieces {
            assert_eq!(p.report.stall_cycles, 0, "{s}/{}", p.piece);
        }
    }
}
