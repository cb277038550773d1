//! Deterministic differential fuzzer for the compilation pipeline.
//!
//! Drives the seeded synthetic-loop generator across several distribution
//! profiles, compiles every loop under **all** strategies through the
//! hardened [`compile_checked`] driver, and functionally executes both the
//! source loop and the compiled plan, reporting any divergence. Failures
//! are shrunk to a minimal textual repro (greedy op removal + trip-count
//! reduction, re-validated through `parse_loop` round-trips) before being
//! printed.
//!
//! ```text
//! cargo run --release -p sv-bench --bin fuzz -- --seeds 0..500
//! cargo run --release -p sv-bench --bin fuzz -- --seeds 0..200 --fail-fast
//! cargo run --release -p sv-bench --bin fuzz -- --seeds 0..500 --jobs 8
//! cargo run --release -p sv-bench --bin fuzz -- --seeds 0..100 --executed-selfcheck
//! cargo run --release -p sv-bench --bin fuzz -- --seeds 0..100 --optimal-selfcheck
//! ```
//!
//! `--executed-selfcheck` runs both engine comparisons on every compiled
//! case. It executes the source loop and the plan in order on both the
//! pre-decoded fast engine and the retained reference interpreter
//! ([`sv_sim::oracle_selfcheck`]), and it replays the plan through the
//! cycle-accurate VLIW executor ([`sv_sim::executed_selfcheck`]). It
//! fails on any bit-level disagreement with the reference, or when any
//! piece's measured steady-state cycles/iteration misses its scheduled
//! II — the schedule itself is what gets fuzzed. Divergences shrink like
//! any other failure.
//!
//! `--optimal-selfcheck` cross-checks the optimal-II oracle on every
//! selective case: the exact search ([`sv_core::optimal_search`]) must
//! close its proof within the default budget, never prove an II above
//! the heuristic's, agree with what the `optimal`-strategy driver
//! delivers, and the delivered plan must sustain the proved II on the
//! cycle-accurate executor. Divergences shrink like any other failure.
//!
//! Everything is pure function of the seed range: a reported seed
//! reproduces exactly, on any machine. `--jobs N` shards the seeds over N
//! worker threads in 100-seed blocks, merging results back in seed order,
//! so the output (failures, progress lines, summary) is byte-identical to
//! the serial run for any worker count.

use std::process::ExitCode;
use sv_core::parallel::{default_jobs, parse_jobs, run_ordered};
use sv_core::{compile_checked, DriverConfig, Strategy};
use sv_ir::{parse_loop, Loop, OpId, Operand};
use sv_machine::{MachineConfig, MachineRegistry};
use sv_sim::{check_equivalent, has_register_state_across_cleanup, oracle_selfcheck};
use sv_workloads::{synth_loop, SynthProfile};

/// One divergence or compile failure, before shrinking.
struct Failure {
    seed: u64,
    profile: &'static str,
    machine: String,
    strategy: Strategy,
    what: String,
}

/// The generator profiles the fuzzer sweeps — each stresses a different
/// part of the pipeline.
fn profiles() -> Vec<(&'static str, SynthProfile)> {
    let broad = SynthProfile::broad();
    vec![
        ("broad", broad.clone()),
        (
            // Reduction-heavy with reassociation licensed: vector partial
            // sums and horizontal combines.
            "reduce",
            SynthProfile { reduction_prob: 0.85, reassoc: true, ..broad.clone() },
        ),
        (
            // Sequential chains and carried uses: recurrences pin ops
            // scalar and stress partition communication.
            "sequential",
            SynthProfile {
                recurrence_prob: 0.6,
                carried_prob: 0.35,
                nonunit_prob: 0.3,
                ..broad.clone()
            },
        ),
        (
            // Small loops with tiny trips: cleanup-loop and remainder
            // handling.
            "tiny",
            SynthProfile { loads: (1, 2), arith: (1, 3), trip: (1, 9), ..broad.clone() },
        ),
        (
            // If-converted control flow: dense cmp+select chains, some
            // with carried (latched) else-arms, mixed with reductions —
            // the predicated path through every layer.
            "predicated",
            SynthProfile {
                cmp_select_prob: 0.4,
                arith: (3, 12),
                carried_prob: 0.15,
                reduction_prob: 0.4,
                ..broad
            },
        ),
    ]
}

/// The machine sweep: the builtin registry plus any `--machines DIR`
/// spec files, flattened to (registered name, machine) pairs in sorted
/// name order — the same resolution path every other layer uses.
fn machines(extra_dir: Option<&str>) -> Result<Vec<(String, MachineConfig)>, String> {
    let mut registry = MachineRegistry::builtin();
    if let Some(dir) = extra_dir {
        registry
            .load_dir(std::path::Path::new(dir))
            .map_err(|e| format!("cannot load machines: {e}"))?;
    }
    Ok(registry.iter().map(|(n, m, _)| (n.to_string(), m.clone())).collect())
}

/// Clamp a generated loop the same way the property tests do: one
/// invocation, and a remainder-free trip when carried register state
/// cannot cross the main→cleanup boundary.
fn fuzz_loop(name: &str, profile: &SynthProfile, seed: u64) -> Loop {
    let mut l = synth_loop(name, profile, seed);
    l.invocations = 1;
    if has_register_state_across_cleanup(&l) {
        l.trip.count = (l.trip.count & !3).max(4);
    }
    l
}

/// Which optional self-checks a fuzz case runs on top of the
/// source-vs-compiled differential execution.
#[derive(Clone, Copy, Default)]
struct Checks {
    /// Fast in-order engine and cycle-accurate executor, each vs the
    /// retained reference interpreter, plus the measured II gate.
    executed: bool,
    /// Optimal-II oracle vs heuristic vs driver vs executed II.
    optimal: bool,
}

/// Compile + differentially execute one (loop, machine, strategy) case.
/// `checks.executed` additionally runs the fast in-order engine against
/// the retained reference interpreter ([`oracle_selfcheck`]) and replays
/// the plan through the cycle-accurate executor, holding it to the
/// state + measured-II gates ([`sv_sim::executed_selfcheck`]). Returns a
/// description of the failure, if any.
fn run_case(l: &Loop, m: &MachineConfig, strategy: Strategy, checks: Checks) -> Option<String> {
    let cfg = DriverConfig::for_strategy(strategy);
    match compile_checked(l, m, &cfg) {
        Err(e) => Some(format!("compile error: {e}")),
        Ok((compiled, report)) => {
            let mut prefix = String::new();
            if !report.clean() {
                prefix = format!("(degraded to {}) ", report.delivered);
            }
            if let Err(e) = check_equivalent(l, &compiled) {
                return Some(format!("{prefix}divergence: {e}"));
            }
            if checks.executed {
                if let Err(e) = oracle_selfcheck(l, &compiled) {
                    return Some(format!("{prefix}engine self-check divergence: {e}"));
                }
                if let Err(e) = sv_sim::executed_selfcheck(&compiled, m) {
                    return Some(format!("{prefix}executed self-check failure: {e}"));
                }
            }
            if checks.optimal && strategy == Strategy::Selective && report.clean() {
                if let Err(e) = optimal_selfcheck(l, m, &compiled) {
                    return Some(format!("{prefix}optimal self-check failure: {e}"));
                }
            }
            None
        }
    }
}

/// Cross-check the optimal-II oracle against the heuristic result it was
/// seeded with: the proof must close, never land above the heuristic,
/// agree with the `optimal`-strategy driver's delivery, and the
/// delivered plan must sustain the proved II on the cycle-accurate
/// executor.
fn optimal_selfcheck(
    l: &Loop,
    m: &MachineConfig,
    selective: &sv_core::CompiledLoop,
) -> Result<(), String> {
    use sv_core::{optimal_search, OptimalConfig, OptimalOutcome};
    let seed =
        selective.partition.as_ref().ok_or("selective delivery lost its partition")?;
    let heur_ii = selective.segments[0].schedule.ii;
    let report = optimal_search(l, m, &seed.partition, heur_ii, &OptimalConfig::default());
    let proved = match report.outcome {
        OptimalOutcome::BudgetExhausted { best_found } => {
            return Err(format!(
                "oracle budget exhausted on a fuzz-sized loop ({} nodes, {} probe \
                 units, best witnessed II {best_found})",
                report.stats.nodes, report.probe_spent
            ));
        }
        OptimalOutcome::Proved(ii) => ii,
    };
    if proved > heur_ii {
        return Err(format!("oracle proved II {proved} above the heuristic's {heur_ii}"));
    }
    if let Some(w) = &report.witness {
        if w.schedule.ii != proved {
            return Err(format!(
                "witness schedule II {} disagrees with the proved minimum {proved}",
                w.schedule.ii
            ));
        }
    }
    let (delivered, dreport) =
        compile_checked(l, m, &DriverConfig::for_strategy(Strategy::Optimal))
            .map_err(|e| format!("optimal strategy failed to compile: {e}"))?;
    if !dreport.clean() {
        return Err(format!(
            "driver lost the proof the direct search closed: {:?}",
            dreport.fallbacks
        ));
    }
    let driver_ii = delivered.segments[0].schedule.ii;
    if driver_ii != proved {
        return Err(format!(
            "driver delivered II {driver_ii}, direct search proved {proved}"
        ));
    }
    let pieces = sv_sim::executed_selfcheck(&delivered, m)
        .map_err(|e| format!("proved schedule failed the executed gate: {e}"))?;
    let main = &pieces[0];
    if main.report.kernel_executions > 0
        && main.report.measured_ii() != Some(f64::from(proved))
    {
        return Err(format!(
            "executed steady-state II {:?} misses the proved II {proved}",
            main.report.measured_ii()
        ));
    }
    Ok(())
}

/// Remove op `i` from the loop if nothing references it, renumbering every
/// later op. Returns `None` when the op is referenced or removal breaks
/// verification.
fn remove_op(l: &Loop, i: usize) -> Option<Loop> {
    let victim = OpId(i as u32);
    let referenced = l
        .ops
        .iter()
        .enumerate()
        .any(|(j, op)| {
            j != i
                && op.operands.iter().any(|o| matches!(o, Operand::Def { op, .. } if *op == victim))
        })
        || l.live_outs.iter().any(|lo| lo.op == victim);
    if referenced {
        return None;
    }
    let remap = |id: OpId| -> OpId {
        if id.index() > i {
            OpId(id.0 - 1)
        } else {
            id
        }
    };
    let mut out = l.clone();
    out.ops.remove(i);
    for (j, op) in out.ops.iter_mut().enumerate() {
        op.id = OpId(j as u32);
        for o in op.operands.iter_mut() {
            if let Operand::Def { op: p, .. } = o {
                *p = remap(*p);
            }
        }
    }
    for lo in out.live_outs.iter_mut() {
        lo.op = remap(lo.op);
    }
    out.verify().ok()?;
    Some(out)
}

/// Greedily shrink a failing loop: drop unreferenced ops, then reduce the
/// trip count, keeping every step that still fails the same
/// (machine, strategy) case. Each accepted step is round-tripped through
/// the textual format so the printed repro is guaranteed to reproduce.
fn shrink(l: &Loop, m: &MachineConfig, strategy: Strategy, checks: Checks) -> Loop {
    let keeps_failing = |cand: &Loop| -> bool {
        // Round-trip through text: the repro we print must parse back and
        // still fail.
        let Ok(reparsed) = parse_loop(&cand.to_string()) else {
            return false;
        };
        run_case(&reparsed, m, strategy, checks).is_some()
    };

    let mut best = l.clone();
    let mut budget = 400u32; // deterministic cap on shrink attempts
    loop {
        let mut improved = false;

        // Op removal, last to first (later ops are most often leaves).
        let mut i = best.ops.len();
        while i > 0 && budget > 0 {
            i -= 1;
            budget -= 1;
            if let Some(cand) = remove_op(&best, i) {
                if keeps_failing(&cand) {
                    best = cand;
                    improved = true;
                }
            }
        }

        // Trip-count reduction: try small values first, then halving.
        let aligned = has_register_state_across_cleanup(&best);
        let floor = if aligned { 4 } else { 1 };
        let mut trips: Vec<u64> = vec![floor, floor * 2];
        let mut t = best.trip.count;
        while t / 2 > floor {
            t /= 2;
            trips.push(if aligned { (t & !3).max(4) } else { t });
        }
        for cand_trip in trips {
            if budget == 0 || cand_trip >= best.trip.count {
                continue;
            }
            budget -= 1;
            let mut cand = best.clone();
            cand.trip.count = cand_trip;
            if keeps_failing(&cand) {
                best = cand;
                improved = true;
                break;
            }
        }

        if !improved || budget == 0 {
            break;
        }
    }
    best
}

struct Opts {
    start: u64,
    end: u64,
    fail_fast: bool,
    jobs: usize,
    checks: Checks,
    machines_dir: Option<String>,
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        start: 0,
        end: 200,
        fail_fast: false,
        jobs: default_jobs(),
        checks: Checks::default(),
        machines_dir: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seeds" => {
                let v = args.next().ok_or("--seeds needs a RANGE like 0..500")?;
                let (lo, hi) = v
                    .split_once("..")
                    .ok_or_else(|| format!("bad --seeds `{v}`: expected A..B"))?;
                opts.start = lo.parse().map_err(|e| format!("bad seed start `{lo}`: {e}"))?;
                opts.end = hi.parse().map_err(|e| format!("bad seed end `{hi}`: {e}"))?;
            }
            "--fail-fast" => opts.fail_fast = true,
            "--executed-selfcheck" => opts.checks.executed = true,
            "--optimal-selfcheck" => opts.checks.optimal = true,
            "--jobs" => {
                let v = args.next().ok_or("--jobs needs a positive worker count")?;
                opts.jobs = parse_jobs(&v).map_err(|e| format!("--jobs: {e}"))?;
            }
            "--machines" => {
                opts.machines_dir = Some(args.next().ok_or("--machines needs a directory")?);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if opts.start >= opts.end {
        return Err(format!("empty seed range {}..{}", opts.start, opts.end));
    }
    Ok(opts)
}

fn report_failure(f: &Failure, l: &Loop, m: &MachineConfig, checks: Checks) {
    println!("=== FAILURE seed={} profile={} machine={} strategy={} ===", f.seed, f.profile, f.machine, f.strategy);
    println!("{}", f.what);
    let small = shrink(l, m, f.strategy, checks);
    let text = small.to_string();
    println!(
        "minimal repro ({} ops, trip {}; shrunk from {} ops, trip {}):",
        small.ops.len(),
        small.trip.count,
        l.ops.len(),
        l.trip.count
    );
    println!("{text}");
    match parse_loop(&text) {
        Ok(_) => println!("repro round-trips through `parse_loop`."),
        Err(e) => println!("WARNING: repro failed to reparse: {e}"),
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("fuzz: {e}");
            eprintln!(
                "usage: fuzz [--seeds A..B] [--fail-fast] [--jobs N] [--executed-selfcheck] \
                 [--optimal-selfcheck] [--machines DIR]"
            );
            return ExitCode::from(2);
        }
    };

    let profiles = profiles();
    let machines = match machines(opts.machines_dir.as_deref()) {
        Ok(ms) => ms,
        Err(e) => {
            eprintln!("fuzz: {e}");
            return ExitCode::from(2);
        }
    };
    let per_seed = (profiles.len() * machines.len() * Strategy::ALL.len()) as u64;
    let mut cases = 0u64;
    let mut failures = 0u64;

    // Shard seeds across workers in 100-seed blocks (the progress cadence)
    // and merge each block back in seed order: every printed byte — the
    // failure reports, their order, the progress lines — is identical to
    // the serial run. Shrinking happens on the merge (main) thread.
    let seeds: Vec<u64> = (opts.start..opts.end).collect();
    for block in seeds.chunks(100) {
        let block_failures: Vec<Vec<(Failure, Loop)>> =
            run_ordered(block, opts.jobs, |_, &seed| {
                let mut found = Vec::new();
                for (pname, profile) in &profiles {
                    let l = fuzz_loop(&format!("fuzz.{pname}.{seed}"), profile, seed);
                    for (mname, m) in &machines {
                        for strategy in Strategy::ALL {
                            if let Some(what) = run_case(&l, m, strategy, opts.checks) {
                                found.push((
                                    Failure {
                                        seed,
                                        profile: pname,
                                        machine: mname.clone(),
                                        strategy,
                                        what,
                                    },
                                    l.clone(),
                                ));
                            }
                        }
                    }
                }
                found
            });
        for (seed, fs) in block.iter().zip(block_failures) {
            cases += per_seed;
            for (f, l) in &fs {
                failures += 1;
                let m = &machines.iter().find(|(n, _)| *n == f.machine).expect("known machine").1;
                report_failure(f, l, m, opts.checks);
                if opts.fail_fast {
                    println!("fuzz: stopping at first failure (--fail-fast)");
                    return ExitCode::FAILURE;
                }
            }
            let done = seed - opts.start + 1;
            if done % 100 == 0 {
                println!(
                    "fuzz: {done}/{} seeds, {cases} cases, {failures} failures",
                    opts.end - opts.start
                );
            }
        }
    }

    println!(
        "fuzz: done — {} seeds, {cases} cases ({} profiles × {} machines × {} strategies), {failures} failures",
        opts.end - opts.start,
        profiles.len(),
        machines.len(),
        Strategy::ALL.len()
    );
    if failures > 0 {
        ExitCode::FAILURE
    } else {
        println!("zero divergences.");
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sv_ir::{LoopBuilder, ScalarType};

    #[test]
    fn remove_op_drops_unreferenced_and_renumbers() {
        let mut b = LoopBuilder::new("t");
        b.trip(8);
        let x = b.array("x", ScalarType::F64, 64);
        let lx = b.load(x, 1, 0);
        let _unused = b.load(x, 1, 1);
        let m2 = b.fmul(lx, lx);
        b.reduce_add(m2);
        let l = b.finish();
        // lx is referenced; the second load is dead.
        assert!(remove_op(&l, lx.index()).is_none());
        let smaller = remove_op(&l, 1).expect("dead load is removable");
        assert_eq!(smaller.ops.len(), l.ops.len() - 1);
        smaller.verify().expect("renumbered loop verifies");
        // The repro path the shrinker relies on: text round-trips.
        let reparsed = parse_loop(&smaller.to_string()).expect("round-trips");
        assert_eq!(reparsed.ops.len(), smaller.ops.len());
    }

    #[test]
    fn fuzz_loops_are_deterministic_across_calls() {
        let p = SynthProfile::broad();
        let a = fuzz_loop("t", &p, 7);
        let b = fuzz_loop("t", &p, 7);
        assert_eq!(a.to_string(), b.to_string());
    }

    #[test]
    fn shrink_returns_input_when_nothing_fails() {
        // A healthy loop never satisfies keeps_failing, so shrinking is
        // the identity — the shrinker must not "improve" a non-failure.
        let l = fuzz_loop("t", &SynthProfile::broad(), 3);
        let m = MachineConfig::paper_default();
        assert!(run_case(&l, &m, Strategy::Selective, Checks::default()).is_none());
        let s = shrink(&l, &m, Strategy::Selective, Checks::default());
        assert_eq!(s.to_string(), l.to_string());
    }

    #[test]
    fn executed_selfcheck_passes_on_seeded_cases() {
        // The fast engine and the cycle-accurate executor must match the
        // reference engine bit for bit, and the executor sustain the
        // scheduled II, on healthy cases under every strategy — the same
        // predicate `--executed-selfcheck` sweeps.
        let m = MachineConfig::paper_default();
        for seed in [11, 13] {
            let l = fuzz_loop("t", &SynthProfile::broad(), seed);
            for strategy in Strategy::ALL {
                let checks = Checks { executed: true, ..Checks::default() };
                assert!(run_case(&l, &m, strategy, checks).is_none(), "seed {seed} {strategy}");
            }
        }
    }

    #[test]
    fn predicated_profile_emits_selects_and_passes_selfchecks() {
        // The predicated profile must actually produce cmp/select chains,
        // and those chains must hold the same engine + executed gates the
        // CI sweeps enforce.
        let (_, profile) = profiles().into_iter().find(|(n, _)| *n == "predicated").unwrap();
        let m = MachineConfig::paper_default();
        let mut saw_select = false;
        for seed in 0..8 {
            let l = fuzz_loop(&format!("t{seed}"), &profile, seed);
            saw_select |= l.ops.iter().any(|o| o.opcode.kind == sv_ir::OpKind::Select);
            for strategy in Strategy::ALL {
                let checks = Checks { executed: true, ..Checks::default() };
                assert!(run_case(&l, &m, strategy, checks).is_none(), "seed {seed} {strategy}");
            }
        }
        assert!(saw_select, "predicated profile never emitted a select in 8 seeds");
    }

    #[test]
    fn optimal_selfcheck_passes_on_seeded_cases() {
        // The oracle must close its proof at or below the heuristic's II,
        // agree with the driver's delivery, and sustain the proved II in
        // execution — the same predicate `--optimal-selfcheck` sweeps.
        let l = fuzz_loop("t", &SynthProfile::broad(), 17);
        let m = MachineConfig::paper_default();
        let checks = Checks { optimal: true, ..Checks::default() };
        assert!(run_case(&l, &m, Strategy::Selective, checks).is_none());
    }
}
