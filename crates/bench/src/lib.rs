//! # sv-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation:
//!
//! | target | paper artifact |
//! |---|---|
//! | `cargo run -p sv-bench --bin figure1` | Figure 1 (dot-product IIs) |
//! | `cargo run -p sv-bench --bin table2` | Table 2 (speedup vs modulo scheduling) |
//! | `cargo run -p sv-bench --bin table3` | Table 3 (per-loop ResMII/II wins) |
//! | `cargo run -p sv-bench --bin table4` | Table 4 (communication ablation) |
//! | `cargo run -p sv-bench --bin table5` | Table 5 (alignment ablation) |
//! | `cargo run -p sv-bench --bin table_ablation` | §3.2 tie-break ablation (extension) |
//! | `cargo bench -p sv-bench` | partitioner/scheduler micro-benchmarks |
//!
//! The harness compiles each workload loop under every technique, prices
//! it with the standard software-pipeline timing model, and aggregates
//! cycle-weighted speedups exactly as the paper does (whole-benchmark
//! cycles relative to the unrolled modulo-scheduling baseline).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use sv_core::parallel::{default_jobs, parse_jobs, run_ordered};
use sv_core::{
    compile_checked, CompilationReport, CompiledLoop, DriverConfig, SelectiveConfig, Strategy,
};
use sv_ir::Loop;
use sv_machine::{MachineConfig, MachineRegistry};
use sv_workloads::{all_benchmarks, BenchmarkSuite};

/// One technique's result on one loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StrategyOutcome {
    /// Total cycles over the loop's whole program contribution.
    pub cycles: u64,
    /// Kernel II per original iteration.
    pub ii_per_orig: f64,
    /// ResMII per original iteration.
    pub resmii_per_orig: f64,
}

/// All techniques' results on one loop.
#[derive(Debug, Clone)]
pub struct LoopReport {
    /// Loop name.
    pub name: String,
    /// True when the baseline II is resource-constrained rather than
    /// recurrence-constrained (Table 3 only counts these).
    pub resource_limited: bool,
    /// Outcome per strategy.
    pub outcomes: BTreeMap<&'static str, StrategyOutcome>,
    /// The driver's [`CompilationReport`] per strategy — fallback
    /// provenance and [`sv_core::PassStats`] (the `--stats` dumps).
    pub reports: BTreeMap<&'static str, CompilationReport>,
}

/// The strategies evaluated by the tables, with stable keys.
pub const EVALUATED: [(Strategy, &str); 4] = [
    (Strategy::ModuloOnly, "modulo"),
    (Strategy::Traditional, "traditional"),
    (Strategy::Full, "full"),
    (Strategy::Selective, "selective"),
];

/// A whole benchmark's evaluation.
#[derive(Debug, Clone)]
pub struct SuiteReport {
    /// Benchmark name.
    pub name: &'static str,
    /// Per-loop results.
    pub loops: Vec<LoopReport>,
}

fn outcome(c: &CompiledLoop, m: &MachineConfig) -> StrategyOutcome {
    StrategyOutcome {
        cycles: c.total_cycles(m),
        ii_per_orig: c.ii_per_original_iteration(),
        resmii_per_orig: c.resmii_per_original_iteration(),
    }
}

/// A workload loop that failed to compile under one of the evaluated
/// techniques.
#[derive(Debug)]
pub struct EvalError {
    /// The loop's name.
    pub looop: String,
    /// The technique that failed.
    pub strategy: Strategy,
    /// The driver's diagnosis (boxed: `CompileError` carries loop dumps).
    pub error: Box<sv_core::CompileError>,
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} failed under {}: {}", self.looop, self.strategy, self.error)
    }
}

impl std::error::Error for EvalError {}

/// Compile one (loop, strategy) job through the hardened driver — the
/// unit of work the parallel harness shards. Returns the priced outcome,
/// the driver's report, and whether the produced baseline schedule was
/// resource-limited (meaningful for [`Strategy::ModuloOnly`] only).
fn compile_job(
    l: &Loop,
    m: &MachineConfig,
    cfg: &SelectiveConfig,
    s: Strategy,
) -> Result<(StrategyOutcome, CompilationReport, bool), EvalError> {
    let dcfg = DriverConfig { strategy: s, selective: cfg.clone(), ..DriverConfig::default() };
    let (c, report) = compile_checked(l, m, &dcfg).map_err(|error| EvalError {
        looop: l.name.clone(),
        strategy: s,
        error: Box::new(error),
    })?;
    let sched = &c.segments[0].schedule;
    let resource_limited = sched.resmii >= sched.recmii;
    Ok((outcome(&c, m), report, resource_limited))
}

/// Evaluate a whole suite on `jobs` worker threads.
///
/// The job list is the flattened (loop × strategy) cross product in the
/// exact order the serial path visits it, fanned out through
/// [`run_ordered`] and merged back in job order — so the report (and the
/// first error, if any) is identical for every `jobs` value, including
/// `jobs == 1` (which runs inline on the calling thread).
///
/// # Errors
///
/// Returns the first job's [`EvalError`] (in serial visit order) if any
/// compilation fails.
pub fn evaluate_suite(
    suite: &BenchmarkSuite,
    m: &MachineConfig,
    cfg: &SelectiveConfig,
    jobs: usize,
) -> Result<SuiteReport, EvalError> {
    let job_list: Vec<(usize, Strategy)> = suite
        .loops
        .iter()
        .enumerate()
        .flat_map(|(li, _)| EVALUATED.iter().map(move |&(s, _)| (li, s)))
        .collect();
    let results = run_ordered(&job_list, jobs, |_, &(li, s)| {
        compile_job(&suite.loops[li], m, cfg, s)
    });

    let mut results = results.into_iter();
    let mut loops = Vec::with_capacity(suite.loops.len());
    for l in &suite.loops {
        let mut outcomes = BTreeMap::new();
        let mut reports = BTreeMap::new();
        let mut resource_limited = true;
        for (s, key) in EVALUATED {
            let (o, report, rl) = results.next().expect("one result per job")?;
            if s == Strategy::ModuloOnly {
                resource_limited = rl;
            }
            outcomes.insert(key, o);
            reports.insert(key, report);
        }
        loops.push(LoopReport { name: l.name.clone(), resource_limited, outcomes, reports });
    }
    Ok(SuiteReport { name: suite.name, loops })
}

/// [`evaluate_suite`], printing the error and exiting on failure — the
/// shared unhappy path of the table binaries.
pub fn evaluate_suite_or_exit(
    suite: &BenchmarkSuite,
    m: &MachineConfig,
    cfg: &SelectiveConfig,
    jobs: usize,
) -> SuiteReport {
    match evaluate_suite(suite, m, cfg, jobs) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("sv-bench: {e}");
            std::process::exit(1);
        }
    }
}

/// Extract a `--jobs N` flag from a pre-collected argv (mutating it), or
/// fall back to [`default_jobs`] (the `SV_JOBS` environment variable, then
/// the machine's available parallelism). Exits with status 2 on a
/// malformed value — the shared flag handling of every table binary.
pub fn take_jobs_flag(args: &mut Vec<String>) -> usize {
    let Some(i) = args.iter().position(|a| a == "--jobs") else {
        return default_jobs();
    };
    if i + 1 >= args.len() {
        eprintln!("sv-bench: --jobs needs a positive worker count");
        std::process::exit(2);
    }
    match parse_jobs(&args[i + 1]) {
        Ok(n) => {
            args.drain(i..=i + 1);
            n
        }
        Err(e) => {
            eprintln!("sv-bench: --jobs: {e}");
            std::process::exit(2);
        }
    }
}

impl SuiteReport {
    /// Whole-benchmark speedup of `strategy` over the modulo-scheduling
    /// baseline: `Σ baseline cycles / Σ strategy cycles`.
    pub fn speedup(&self, strategy: &str) -> f64 {
        let base: u64 = self.loops.iter().map(|l| l.outcomes["modulo"].cycles).sum();
        let s: u64 = self.loops.iter().map(|l| l.outcomes[strategy].cycles).sum();
        base as f64 / s as f64
    }

    /// Table 3 counts: over resource-limited loops, how often selective
    /// vectorization's bound/II is better than, equal to, or worse than the
    /// best competing technique. `metric` selects ResMII or final II.
    pub fn table3_counts(&self, metric: Table3Metric) -> Counts {
        let mut c = Counts::default();
        for l in &self.loops {
            if !l.resource_limited {
                continue;
            }
            let get = |key: &str| -> f64 {
                let o = &l.outcomes[key];
                match metric {
                    Table3Metric::ResMii => o.resmii_per_orig,
                    Table3Metric::Ii => o.ii_per_orig,
                }
            };
            let sel = get("selective");
            let best_other = get("modulo").min(get("traditional")).min(get("full"));
            const EPS: f64 = 1e-9;
            if sel + EPS < best_other {
                c.better += 1;
            } else if sel > best_other + EPS {
                c.worse += 1;
            } else {
                c.equal += 1;
            }
        }
        c
    }

    /// Number of resource-limited loops.
    pub fn resource_limited_loops(&self) -> usize {
        self.loops.iter().filter(|l| l.resource_limited).count()
    }
}

/// Which metric a Table 3 comparison uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Table3Metric {
    /// The resource-constrained lower bound.
    ResMii,
    /// The achieved initiation interval.
    Ii,
}

/// Better/equal/worse tallies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Strictly better loops.
    pub better: usize,
    /// Ties.
    pub equal: usize,
    /// Strictly worse loops.
    pub worse: usize,
}

impl Counts {
    /// Total loops tallied.
    pub fn total(&self) -> usize {
        self.better + self.equal + self.worse
    }
}

/// The paper's Table 1 (the machine description used for a run), one
/// trailing-newline-terminated block.
pub fn machine_text(m: &MachineConfig) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "machine `{}`:", m.name);
    let _ = writeln!(
        out,
        "  issue {} | int {} | fp {} | mem {} | branch {} | vector {} | merge {} | VL {}",
        m.issue_width,
        m.int_units,
        m.fp_units,
        m.mem_units,
        m.branch_units,
        m.vector_units,
        m.merge_units,
        m.vector_length
    );
    let _ = writeln!(
        out,
        "  latencies: int {}/{}/{} fp {}/{}/{} load {} branch {}",
        m.lat.int_alu,
        m.lat.int_mul,
        m.lat.int_div,
        m.lat.fp_alu,
        m.lat.fp_mul,
        m.lat.fp_div,
        m.lat.load,
        m.lat.branch
    );
    let _ = writeln!(out, "  comm {:?} | alignment {:?}", m.comm, m.alignment);
    out
}

/// Print the paper's Table 1 (the machine description used for a run).
pub fn print_machine(m: &MachineConfig) {
    print!("{}", machine_text(m));
}

/// The paper's measured Table 2 speedups, printed alongside ours.
pub const TABLE2_PAPER: [(&str, f64, f64, f64); 9] = [
    ("093.nasa7", 0.18, 0.76, 1.04),
    ("101.tomcatv", 0.71, 0.99, 1.38),
    ("103.su2cor", 0.63, 0.94, 1.15),
    ("104.hydro2d", 0.94, 1.00, 1.03),
    ("125.turb3d", 0.38, 0.93, 0.95),
    ("146.wave5", 0.76, 0.96, 1.03),
    ("171.swim", 1.01, 1.00, 1.17),
    ("172.mgrid", 0.53, 0.99, 1.26),
    ("301.apsi", 0.51, 0.97, 1.02),
];

/// Render the paper's Table 2 (whole-suite speedups vs modulo scheduling
/// on the Table 1 machine) as the exact text the `table2` binary prints.
///
/// The output is a pure function of the workloads and the machine model —
/// `jobs` only shards the compilations, so every worker count produces
/// byte-identical text (the determinism contract of the harness, asserted
/// by the `table2_determinism` integration test and `ci.sh`).
pub fn table2_text(jobs: usize) -> String {
    let m = MachineConfig::paper_default();
    let cfg = SelectiveConfig::default();
    let mut out = machine_text(&m);
    out.push('\n');
    out.push_str("Table 2: speedup vs modulo scheduling (paper values in parentheses)\n");
    let _ = writeln!(
        out,
        "{:<14} {:>18} {:>18} {:>18}",
        "benchmark", "traditional", "full", "selective"
    );
    let mut sel_product = 1.0f64;
    let mut sel_max: f64 = 0.0;
    let suites = all_benchmarks();
    for suite in &suites {
        let r = evaluate_suite_or_exit(suite, &m, &cfg, jobs);
        let (t, f, s) =
            (r.speedup("traditional"), r.speedup("full"), r.speedup("selective"));
        let paper = TABLE2_PAPER.iter().find(|p| p.0 == suite.name).expect("known suite");
        let _ = writeln!(
            out,
            "{:<14} {:>9.2} ({:>5.2}) {:>10.2} ({:>4.2}) {:>10.2} ({:>4.2})",
            suite.name, t, paper.1, f, paper.2, s, paper.3
        );
        sel_product *= s;
        sel_max = sel_max.max(s);
    }
    let geo = sel_product.powf(1.0 / suites.len() as f64);
    out.push('\n');
    let _ = writeln!(
        out,
        "selective: geometric-mean speedup {geo:.2} (paper arithmetic mean 1.11), max {sel_max:.2} (paper 1.38)"
    );
    out
}

/// Render the executed-schedule report (the `table_executed` binary's
/// output): every registry machine × benchmark suite, a slice of each
/// suite's loops compiled under the evaluated techniques and **replayed
/// on the cycle-accurate VLIW executor** ([`sv_sim::executed_selfcheck`]).
/// Each row tallies the executed pieces, how many kernels sustained
/// exactly their scheduled II, how many were short-trip (kernel never
/// filled), and the interlock stall total — any gate violation (state
/// divergence from the reference engine, measured II above scheduled, a
/// stall) is printed inline and fails the golden snapshot.
///
/// Like the other tables, the output is a pure function of the workloads
/// and the registry: `jobs` only shards the (loop × strategy) cases.
pub fn table_executed_text(registry: &MachineRegistry, jobs: usize) -> String {
    /// Loops executed per suite — enough to cover the hand kernels plus
    /// synthetic fill without making the snapshot rebuild minutes long.
    const LOOPS_PER_SUITE: usize = 3;

    struct CaseTally {
        pieces: u64,
        at_ii: u64,
        short: u64,
        stalls: u64,
    }

    let suites = all_benchmarks();
    let machines: Vec<(String, MachineConfig)> =
        registry.iter().map(|(n, m, _)| (n.to_string(), m.clone())).collect();
    let job_list: Vec<(usize, usize, usize, Strategy)> = machines
        .iter()
        .enumerate()
        .flat_map(|(mi, _)| {
            suites.iter().enumerate().flat_map(move |(si, suite)| {
                suite
                    .loops
                    .iter()
                    .take(LOOPS_PER_SUITE)
                    .enumerate()
                    .flat_map(move |(li, _)| {
                        EVALUATED.iter().map(move |&(s, _)| (mi, si, li, s))
                    })
            })
        })
        .collect();
    let results = run_ordered(&job_list, jobs, |_, &(mi, si, li, s)| {
        let m = &machines[mi].1;
        let mut l = suites[si].loops[li].clone();
        l.invocations = 1; // execute one invocation; the gate is per-piece
        let dcfg = DriverConfig::for_strategy(s);
        match sv_sim::compile_executed(&l, m, &dcfg) {
            Ok((_, _, pieces)) => {
                let mut t = CaseTally { pieces: 0, at_ii: 0, short: 0, stalls: 0 };
                for p in &pieces {
                    t.pieces += 1;
                    t.stalls += p.report.stall_cycles;
                    if p.report.kernel_executions == 0 {
                        t.short += 1;
                    } else if p.report.measured_ii() == Some(f64::from(p.scheduled_ii)) {
                        t.at_ii += 1;
                    }
                }
                Ok(t)
            }
            Err(e) => Err(format!("{}/{s}: {e}", l.name)),
        }
    });

    let mut out = String::new();
    out.push_str("Executed schedules: measured steady-state II vs scheduled II\n");
    out.push_str(&format!(
        "(first {LOOPS_PER_SUITE} loops per suite x {} techniques, one invocation each)\n",
        EVALUATED.len()
    ));
    let _ = writeln!(
        out,
        "{:<16} {:<14} {:>6} {:>7} {:>6} {:>6} {:>7}",
        "machine", "suite", "cases", "pieces", "at-II", "short", "stalls"
    );
    let mut violations = Vec::new();
    let mut results = results.into_iter();
    for (mname, _) in &machines {
        for suite in &suites {
            let cases = suite.loops.len().min(LOOPS_PER_SUITE) * EVALUATED.len();
            let mut row = CaseTally { pieces: 0, at_ii: 0, short: 0, stalls: 0 };
            for _ in 0..cases {
                match results.next().expect("one result per job") {
                    Ok(t) => {
                        row.pieces += t.pieces;
                        row.at_ii += t.at_ii;
                        row.short += t.short;
                        row.stalls += t.stalls;
                    }
                    Err(e) => violations.push(format!("{mname}/{}: {e}", suite.name)),
                }
            }
            let _ = writeln!(
                out,
                "{mname:<16} {:<14} {cases:>6} {:>7} {:>6} {:>6} {:>7}",
                suite.name, row.pieces, row.at_ii, row.short, row.stalls
            );
        }
    }
    out.push('\n');
    if violations.is_empty() {
        out.push_str(
            "every piece: state bit-identical to the reference engine, \
             measured steady-state II == scheduled II, zero stalls\n",
        );
    } else {
        for v in &violations {
            let _ = writeln!(out, "VIOLATION: {v}");
        }
    }
    out
}

/// Render the optimality report (the `table_optimality` binary's
/// output): every suite loop on the named registry machines, compiled
/// with the Kernighan–Lin heuristic ([`Strategy::Selective`]) and with
/// the exact branch-and-bound oracle ([`Strategy::Optimal`]), the proved
/// kernel IIs compared, and **every proved schedule replayed on the
/// cycle-accurate executor** ([`sv_sim::compile_executed`]) so the
/// certificate is not just structural: state bit-identical to the
/// reference engine, measured steady-state II equal to the proved II,
/// zero interlock stalls.
///
/// Loops the oracle cannot prove within the default budget degrade to
/// the heuristic and are tallied in the `exhausted` column; every
/// strict improvement is listed at the bottom — that list is the
/// committed gap table the CI optimality gate checks for drift.
///
/// Like the other tables, the output is a pure function of the
/// workloads and the registry (the oracle's budgets are deterministic
/// node/probe counts): `jobs` only shards the (loop × machine) cases.
///
/// # Panics
///
/// Panics when a requested machine name is not in the registry.
pub fn table_optimality_text(
    registry: &MachineRegistry,
    machine_names: &[&str],
    jobs: usize,
) -> String {
    struct Case {
        heur_ii: u32,
        opt_ii: u32,
        proved: bool,
        executed_at_ii: bool,
        short_trip: bool,
    }

    let suites = all_benchmarks();
    let machines: Vec<(String, MachineConfig)> = machine_names
        .iter()
        .map(|n| {
            let m = registry
                .get(n)
                .unwrap_or_else(|| panic!("machine `{n}` not in the registry"));
            ((*n).to_string(), m.clone())
        })
        .collect();
    let job_list: Vec<(usize, usize, usize)> = machines
        .iter()
        .enumerate()
        .flat_map(|(mi, _)| {
            suites.iter().enumerate().flat_map(move |(si, suite)| {
                (0..suite.loops.len()).map(move |li| (mi, si, li))
            })
        })
        .collect();
    let results = run_ordered(&job_list, jobs, |_, &(mi, si, li)| {
        let m = &machines[mi].1;
        let mut l = suites[si].loops[li].clone();
        // One invocation with a clamped trip keeps the executed replay
        // cheap; the schedule (and so the proved II) does not depend on
        // the trip count. Register-carried state does not flow into
        // cleanup loops in this simulator, so those loops execute a
        // remainder-free trip (as in the equivalence suite).
        l.invocations = 1;
        if l.trip.count > 512 {
            l.trip.count = 509;
        }
        if sv_sim::has_register_state_across_cleanup(&l) {
            l.trip.count &= !3;
            if l.trip.count == 0 {
                l.trip.count = 4;
            }
        }
        let heur = compile_checked(&l, m, &DriverConfig::for_strategy(Strategy::Selective))
            .map_err(|e| format!("{}/selective: {e}", l.name))?;
        let dcfg = DriverConfig::for_strategy(Strategy::Optimal);
        let (c, report, pieces) = sv_sim::compile_executed(&l, m, &dcfg)
            .map_err(|e| format!("{}/optimal: {e}", l.name))?;
        let main = &pieces[0];
        Ok::<Case, String>(Case {
            heur_ii: heur.0.segments[0].schedule.ii,
            opt_ii: c.segments[0].schedule.ii,
            proved: report.delivered == Strategy::Optimal,
            executed_at_ii: main.report.measured_ii()
                == Some(f64::from(main.scheduled_ii)),
            short_trip: main.report.kernel_executions == 0,
        })
    });

    let mut out = String::new();
    out.push_str("Optimal-II oracle vs the Kernighan-Lin heuristic\n");
    out.push_str(
        "(every suite loop; proved schedules replayed on the cycle-accurate executor)\n",
    );
    let _ = writeln!(
        out,
        "{:<10} {:<14} {:>5} {:>7} {:>9} {:>5} {:>8} {:>7} {:>6}",
        "machine", "suite", "loops", "proved", "exhausted", "gaps", "heur-II", "opt-II", "short"
    );
    let mut gaps: Vec<String> = Vec::new();
    let mut violations: Vec<String> = Vec::new();
    let mut total = 0usize;
    let mut total_proved = 0usize;
    let mut total_gaps = 0usize;
    let mut uncertified = 0usize;
    let mut results = results.into_iter();
    for (mname, _) in &machines {
        for suite in &suites {
            let (mut proved, mut exhausted, mut gap) = (0usize, 0usize, 0usize);
            let (mut heur_sum, mut opt_sum) = (0u64, 0u64);
            let mut short = 0usize;
            for l in &suite.loops {
                total += 1;
                match results.next().expect("one result per job") {
                    Ok(case) => {
                        heur_sum += u64::from(case.heur_ii);
                        opt_sum += u64::from(case.opt_ii);
                        if case.proved {
                            proved += 1;
                            if case.short_trip {
                                short += 1;
                            } else if !case.executed_at_ii {
                                uncertified += 1;
                                violations.push(format!(
                                    "{mname}/{}: executed II above proved II",
                                    l.name
                                ));
                            }
                            if case.opt_ii < case.heur_ii {
                                gap += 1;
                                gaps.push(format!(
                                    "  {mname:<10} {:<24} {} -> {}",
                                    l.name, case.heur_ii, case.opt_ii
                                ));
                            }
                        } else {
                            exhausted += 1;
                        }
                    }
                    Err(e) => violations.push(format!("{mname}/{e}")),
                }
            }
            total_proved += proved;
            total_gaps += gap;
            let _ = writeln!(
                out,
                "{mname:<10} {:<14} {:>5} {proved:>7} {exhausted:>9} {gap:>5} {heur_sum:>8} \
                 {opt_sum:>7} {short:>6}",
                suite.name,
                suite.loops.len()
            );
        }
    }
    out.push('\n');
    if gaps.is_empty() {
        out.push_str("no strict improvements: the heuristic is optimal everywhere\n");
    } else {
        out.push_str("gap cases (heuristic II -> proved optimal II):\n");
        for g in &gaps {
            out.push_str(g);
            out.push('\n');
        }
    }
    out.push('\n');
    let _ = writeln!(
        out,
        "summary: {total} cases, {total_proved} proved, {} exhausted, {total_gaps} gaps",
        total - total_proved
    );
    if violations.is_empty() && uncertified == 0 {
        out.push_str(
            "every proved schedule: state bit-identical to the reference engine, \
             measured steady-state II == proved II, zero stalls\n",
        );
    } else {
        for v in &violations {
            let _ = writeln!(out, "VIOLATION: {v}");
        }
    }
    out
}

/// Render the architectural sweep (the `table_arch` binary's output):
/// whole-suite geometric-mean speedups of full and selective
/// vectorization over the modulo-scheduling baseline, one row per
/// registered machine in sorted name order.
///
/// The sweep set is the machine registry — builtins plus whatever spec
/// directory the caller loaded (`examples/machines/` by default in the
/// binary), so adding a spec file adds a row without touching code. Like
/// [`table2_text`], the output is a pure function of the workloads and
/// the registry: `jobs` only shards the compilations, and the golden
/// snapshot test pins the bytes.
pub fn table_arch_text(registry: &MachineRegistry, jobs: usize) -> String {
    fn geo_mean(xs: &[f64]) -> f64 {
        xs.iter().product::<f64>().powf(1.0 / xs.len() as f64)
    }
    let cfg = SelectiveConfig::default();
    let mut out = String::new();
    out.push_str("Whole-suite geometric-mean speedup vs modulo scheduling\n");
    let _ = writeln!(
        out,
        "{:<16} {:<18} {:>8} {:>11}",
        "machine", "(description)", "full", "selective"
    );
    for (name, m, _source) in registry.iter() {
        let mut full = Vec::new();
        let mut sel = Vec::new();
        for suite in all_benchmarks() {
            let r = evaluate_suite_or_exit(&suite, m, &cfg, jobs);
            full.push(r.speedup("full"));
            sel.push(r.speedup("selective"));
        }
        let _ = writeln!(
            out,
            "{name:<16} {:<18} {:>7.2}x {:>10.2}x",
            m.name,
            geo_mean(&full),
            geo_mean(&sel)
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sv_workloads::benchmark;

    #[test]
    fn tomcatv_selective_beats_baseline() {
        let m = MachineConfig::paper_default();
        let r = evaluate_suite(&benchmark("tomcatv").unwrap(), &m, &SelectiveConfig::default(), 1)
            .unwrap();
        let sel = r.speedup("selective");
        let full = r.speedup("full");
        let trad = r.speedup("traditional");
        assert!(sel > 1.05, "selective speedup {sel}");
        assert!(sel > full, "selective {sel} vs full {full}");
        assert!(sel > trad, "selective {sel} vs traditional {trad}");
    }

    #[test]
    fn predicated_kernel_vectorizes_profitably() {
        // swim.wetdry: an FP-bound conditional saxpy (cubic drag, mask
        // compare, select). The cmp/select chain vectorizes like any
        // elementwise op, so the partitioner can split the chain across
        // the scalar FP units and the vector unit — selective must beat
        // the unrolled scalar baseline, traditional vectorization, and
        // all-or-nothing full vectorization on the paper machine.
        let m = MachineConfig::paper_default();
        let suite = evaluate_suite(&benchmark("swim").unwrap(), &m, &SelectiveConfig::default(), 2)
            .unwrap();
        let r = suite
            .loops
            .iter()
            .find(|l| l.name.ends_with("wetdry"))
            .expect("swim.wetdry in suite");
        let sel = r.outcomes["selective"].cycles;
        let trad = r.outcomes["traditional"].cycles;
        let full = r.outcomes["full"].cycles;
        let base = r.outcomes["modulo"].cycles;
        assert!(sel < trad, "selective {sel} vs traditional {trad}");
        assert!(sel < full, "selective {sel} vs full {full}");
        assert!(sel < base, "selective {sel} vs modulo baseline {base}");
    }

    #[test]
    fn table3_counts_add_up() {
        let m = MachineConfig::paper_default();
        let r = evaluate_suite(&benchmark("tomcatv").unwrap(), &m, &SelectiveConfig::default(), 1)
            .unwrap();
        let c = r.table3_counts(Table3Metric::ResMii);
        assert_eq!(c.total(), r.resource_limited_loops());
    }

    #[test]
    fn parallel_suite_report_matches_serial() {
        let m = MachineConfig::paper_default();
        let suite = benchmark("swim").unwrap();
        let cfg = SelectiveConfig::default();
        let serial = evaluate_suite(&suite, &m, &cfg, 1).unwrap();
        for jobs in [2, 4, 8] {
            let par = evaluate_suite(&suite, &m, &cfg, jobs).unwrap();
            assert_eq!(par.loops.len(), serial.loops.len());
            for (a, b) in serial.loops.iter().zip(&par.loops) {
                assert_eq!(a.name, b.name);
                assert_eq!(a.resource_limited, b.resource_limited);
                assert_eq!(a.outcomes, b.outcomes, "jobs={jobs} loop={}", a.name);
            }
        }
    }

    #[test]
    fn loop_reports_carry_pass_stats() {
        let m = MachineConfig::paper_default();
        let suite = benchmark("swim").unwrap();
        let r = evaluate_suite(&suite, &m, &SelectiveConfig::default(), 2).unwrap();
        let l = &r.loops[0];
        let sel = &l.reports["selective"];
        assert!(sel.stats.schedules > 0);
        assert!(sel.stats.kl_probes > 0, "selective report carries KL effort");
        assert_eq!(l.reports["modulo"].stats.kl_probes, 0);
    }

    #[test]
    fn take_jobs_flag_extracts_and_defaults() {
        let mut args = vec!["--jobs".to_string(), "3".to_string(), "x".to_string()];
        assert_eq!(take_jobs_flag(&mut args), 3);
        assert_eq!(args, vec!["x".to_string()]);
        let mut none = vec!["y".to_string()];
        assert!(take_jobs_flag(&mut none) >= 1);
        assert_eq!(none, vec!["y".to_string()]);
    }
}
