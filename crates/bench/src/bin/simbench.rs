//! Micro-benchmark for the `sv-sim` oracle execution engines.
//!
//! Times one full differential-oracle pass (`run_source` +
//! `run_compiled`) per case on both the pre-decoded fast engine and the
//! retained reference interpreters, plus one cycle-accurate executed
//! pass (`run_compiled_executed` — the `sched` engine) per case, over
//! the hand-written kernels of the benchmark suites plus a set of
//! seeded synthetic loops. Criterion-free and offline:
//! `std::time::Instant`, fixed seeds, median-of-K samples with
//! deterministic rep-doubling calibration.
//!
//! ```text
//! cargo run --release -p sv-bench --bin simbench                 # writes BENCH_sim.json
//! cargo run --release -p sv-bench --bin simbench -- --out b.json
//! cargo run --release -p sv-bench --bin simbench -- --check BENCH_sim.json
//! ```
//!
//! The output is the repo's benchmark trajectory file `BENCH_sim.json`:
//! one row per (case, engine) with `ns_per_iter` = wall time per executed
//! loop iteration, plus a summary with per-engine medians and the
//! fast-over-reference speedup (overall and kernel-suite-only). The
//! absolute ns/iter are diagnostics: they move with the host's load.
//!
//! `--check BASELINE` re-runs the measurement and gates what one run can
//! compare with itself. Per case it takes the `sched/reference` and
//! `fast/reference` ratios, divides each by the baseline's ratio for the
//! same case, and fails when the median of those quotients leaves
//! `1 ± RATIO_BOUND` for either ratio, or when the fresh case list differs
//! from the baseline's. A load change that slows every engine alike moves
//! no ratio; a 2x slowdown of any one engine moves one by 2x (or, for the
//! reference engine, both by 0.5x).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;
use sv_core::{compile_checked, CompiledLoop, DriverConfig, Strategy};
use sv_ir::Loop;
use sv_machine::MachineConfig;
use sv_serve::json::{self, Value};
use sv_sim::{
    has_register_state_across_cleanup, reference, run_compiled, run_compiled_executed,
    run_source,
};
use sv_workloads::{all_benchmarks, synth_loop, SynthProfile};

/// Seeds for the synthetic-loop portion of the case list.
const SYNTH_SEEDS: std::ops::Range<u64> = 0..8;

/// How far the median fresh-over-baseline quotient of an engine ratio may
/// drift from 1 before `--check` fails. On a loaded 2-core host, runs of
/// unchanged code drifted by at most 0.10, also against a baseline recorded
/// on another day; a 2x slowdown of one engine moved a ratio by 0.46–1.0.
const RATIO_BOUND: f64 = 0.25;

/// One measured row of `BENCH_sim.json`.
struct Row {
    case: String,
    /// Loop iterations executed per oracle pass (source + compiled).
    iters: u64,
    ns_per_iter: f64,
    engine: &'static str,
}

/// A compiled benchmark case, ready to execute repeatedly.
struct Case {
    name: String,
    looop: Loop,
    compiled: CompiledLoop,
}

/// The benchmark case list: every hand-written suite kernel (loop names
/// without the `.synth` filler marker) plus [`SYNTH_SEEDS`] seeded broad
/// synthetic loops, each compiled once (Selective, paper machine) outside
/// the timed region. Cases that fail to compile are reported and skipped.
fn cases() -> Vec<Case> {
    let m = MachineConfig::paper_default();
    let cfg = DriverConfig::for_strategy(Strategy::Selective);
    let mut out = Vec::new();
    let mut skipped = 0usize;
    let mut push = |name: String, l: Loop| match compile_checked(&l, &m, &cfg) {
        Ok((compiled, _)) => out.push(Case { name, looop: l, compiled }),
        Err(e) => {
            eprintln!("simbench: skipping {name}: {e}");
            skipped += 1;
        }
    };
    for suite in all_benchmarks() {
        for l in suite.loops {
            if !l.name.contains(".synth") {
                push(l.name.clone(), l);
            }
        }
    }
    let profile = SynthProfile::broad();
    for seed in SYNTH_SEEDS {
        let mut l = synth_loop(&format!("synth.{seed}"), &profile, seed);
        l.invocations = 1;
        if has_register_state_across_cleanup(&l) {
            l.trip.count = (l.trip.count & !3).max(4);
        }
        push(l.name.clone(), l);
    }
    if skipped > 0 {
        eprintln!("simbench: {skipped} case(s) skipped (not silently dropped from coverage)");
    }
    out
}

/// Median of a sample set (f64, by value).
fn median(mut xs: Vec<f64>) -> f64 {
    assert!(!xs.is_empty(), "median of empty sample set");
    xs.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Time `f` as the median of `runs` samples, each sample looping `f`
/// enough times (rep-doubling calibration) to take ≥ 2 ms. Returns
/// nanoseconds per single call of `f`.
fn time_median_ns(runs: usize, mut f: impl FnMut()) -> f64 {
    let mut reps = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..reps {
            f();
        }
        if t.elapsed().as_nanos() >= 2_000_000 || reps >= 1 << 20 {
            break;
        }
        reps *= 2;
    }
    let samples = (0..runs)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..reps {
                f();
            }
            t.elapsed().as_nanos() as f64 / reps as f64
        })
        .collect();
    median(samples)
}

/// Measure one case on all three engines, appending three rows: the two
/// functional oracle engines (one source + one compiled pass each) and
/// the cycle-accurate schedule executor (`sched`, one executed compiled
/// pass — interlock, unit reservations and cycle accounting included).
fn measure(case: &Case, m: &MachineConfig, runs: usize, rows: &mut Vec<Row>) {
    // One oracle pass executes the source loop and the compiled plan, each
    // covering the full trip count once.
    let iters = 2 * case.looop.trip.count.max(1);
    let fast_ns = time_median_ns(runs, || {
        black_box(run_source(black_box(&case.looop)));
        black_box(run_compiled(black_box(&case.compiled)));
    });
    let ref_ns = time_median_ns(runs, || {
        black_box(reference::run_source(black_box(&case.looop)));
        black_box(reference::run_compiled(black_box(&case.compiled)));
    });
    let sched_iters = case.looop.trip.count.max(1);
    let sched_ns = time_median_ns(runs, || {
        black_box(
            run_compiled_executed(black_box(&case.compiled), black_box(m))
                .expect("executed gate holds for compiled cases"),
        );
    });
    rows.push(Row {
        case: case.name.clone(),
        iters,
        ns_per_iter: fast_ns / iters as f64,
        engine: "fast",
    });
    rows.push(Row {
        case: case.name.clone(),
        iters,
        ns_per_iter: ref_ns / iters as f64,
        engine: "reference",
    });
    rows.push(Row {
        case: case.name.clone(),
        iters: sched_iters,
        ns_per_iter: sched_ns / sched_iters as f64,
        engine: "sched",
    });
}

/// Median `ns_per_iter` of rows matching `engine`, restricted to kernel
/// cases when `kernel_only` (case names not starting with `synth.`).
fn engine_median(rows: &[Row], engine: &str, kernel_only: bool) -> f64 {
    let xs: Vec<f64> = rows
        .iter()
        .filter(|r| r.engine == engine && (!kernel_only || !r.case.starts_with("synth.")))
        .map(|r| r.ns_per_iter)
        .collect();
    median(xs)
}

/// Render `BENCH_sim.json`: one row per line for greppability, then a
/// summary object.
fn render(rows: &[Row]) -> String {
    let mut s = String::from("{\"schema\":\"sv-simbench/v1\",\"rows\":[\n");
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        s.push_str(&format!(
            "{{\"case\":\"{}\",\"iters\":{},\"ns_per_iter\":{:.3},\"engine\":\"{}\"}}{sep}\n",
            json::escape(&r.case), r.iters, r.ns_per_iter, r.engine
        ));
    }
    let fast = engine_median(rows, "fast", false);
    let reference = engine_median(rows, "reference", false);
    let sched = engine_median(rows, "sched", false);
    let kfast = engine_median(rows, "fast", true);
    let kref = engine_median(rows, "reference", true);
    s.push_str(&format!(
        "],\"summary\":{{\"cases\":{},\"fast_median_ns_per_iter\":{fast:.3},\
         \"reference_median_ns_per_iter\":{reference:.3},\"speedup\":{:.2},\
         \"sched_median_ns_per_iter\":{sched:.3},\"sched_overhead\":{:.2},\
         \"kernel_fast_median_ns_per_iter\":{kfast:.3},\
         \"kernel_reference_median_ns_per_iter\":{kref:.3},\"kernel_speedup\":{:.2}}}}}\n",
        rows.len() / 3,
        reference / fast,
        sched / fast,
        kref / kfast
    ));
    s
}

/// Read the rows of a `sv-simbench/v1` file for `--check`.
fn parse_rows(text: &str) -> Result<Vec<Row>, String> {
    let doc = json::parse(text)?;
    if doc.get("schema").and_then(Value::as_str) != Some("sv-simbench/v1") {
        return Err("not a sv-simbench/v1 file".into());
    }
    let rows = doc.get("rows").and_then(Value::as_arr).ok_or("no rows array")?;
    let rows = rows
        .iter()
        .map(|row| {
            let field = |key: &str| row.get(key).ok_or(format!("row missing {key}"));
            let case = field("case")?.as_str().ok_or("case is not a string")?.to_string();
            let engine = match field("engine")?.as_str() {
                Some("fast") => "fast",
                Some("reference") => "reference",
                Some("sched") => "sched",
                other => return Err(format!("unknown engine {other:?}")),
            };
            let iters = field("iters")?.as_u64().ok_or("bad iters")?;
            let Value::Num(ns_per_iter) = *field("ns_per_iter")? else {
                return Err("bad ns_per_iter".into());
            };
            Ok(Row { case, iters, ns_per_iter, engine })
        })
        .collect::<Result<Vec<Row>, String>>()?;
    if rows.is_empty() {
        return Err("no rows found".into());
    }
    Ok(rows)
}

/// Per-case engine ratios `[sched/reference, fast/reference]`, keyed by
/// case name. A case missing one of the three engines is an error.
fn case_ratios(rows: &[Row]) -> Result<BTreeMap<&str, [f64; 2]>, String> {
    let mut ns: BTreeMap<&str, [Option<f64>; 3]> = BTreeMap::new();
    for r in rows {
        let slot = match r.engine {
            "sched" => 0,
            "fast" => 1,
            _ => 2,
        };
        ns.entry(&r.case).or_default()[slot] = Some(r.ns_per_iter);
    }
    ns.into_iter()
        .map(|(case, e)| match e {
            [Some(sched), Some(fast), Some(reference)] => {
                Ok((case, [sched / reference, fast / reference]))
            }
            _ => Err(format!("case {case} lacks a row for one of the three engines")),
        })
        .collect()
}

/// Compare a fresh measurement against a baseline file: both must cover
/// the same cases, and for each engine ratio the median over cases of
/// fresh ratio / baseline ratio must lie within `1 ± RATIO_BOUND`.
fn check(fresh: &[Row], baseline: &[Row]) -> Result<(), String> {
    let fresh = case_ratios(fresh)?;
    let baseline = case_ratios(baseline)?;
    let missing: Vec<&str> = baseline.keys().filter(|c| !fresh.contains_key(*c)).copied().collect();
    let added: Vec<&str> = fresh.keys().filter(|c| !baseline.contains_key(*c)).copied().collect();
    if !missing.is_empty() || !added.is_empty() {
        return Err(format!(
            "case list differs from the baseline: missing [{}], not in baseline [{}]",
            missing.join(", "),
            added.join(", ")
        ));
    }
    let mut failed = Vec::new();
    for (k, name) in ["sched/reference", "fast/reference"].into_iter().enumerate() {
        let drift = median(baseline.iter().map(|(case, b)| fresh[case][k] / b[k]).collect());
        println!("simbench: median {name} ratio is {drift:.3}x the baseline's");
        if (drift - 1.0).abs() > RATIO_BOUND {
            failed.push(format!("{name} ratio moved {drift:.3}x (bound 1 ± {RATIO_BOUND})"));
        }
    }
    if failed.is_empty() {
        Ok(())
    } else {
        Err(failed.join("; "))
    }
}

struct Opts {
    out: String,
    check_baseline: Option<String>,
    runs: usize,
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        out: "BENCH_sim.json".into(),
        check_baseline: None,
        runs: 5,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => opts.out = args.next().ok_or("--out needs a path")?,
            "--check" => {
                opts.check_baseline = Some(args.next().ok_or("--check needs a baseline path")?);
            }
            "--runs" => {
                let v = args.next().ok_or("--runs needs a count")?;
                opts.runs = v.parse().map_err(|e| format!("bad --runs `{v}`: {e}"))?;
                if opts.runs == 0 {
                    return Err("--runs must be positive".into());
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("simbench: {e}");
            eprintln!("usage: simbench [--out PATH] [--check BASELINE] [--runs K]");
            return ExitCode::from(2);
        }
    };

    // Read and parse the baseline *before* the (minutes-long) measurement
    // so a bad path or file fails immediately.
    let baseline = match &opts.check_baseline {
        None => None,
        Some(path) => match std::fs::read_to_string(path) {
            Err(e) => {
                eprintln!("simbench: cannot read baseline {path}: {e}");
                return ExitCode::FAILURE;
            }
            Ok(text) => match parse_rows(&text) {
                Err(e) => {
                    eprintln!("simbench: bad baseline {path}: {e}");
                    return ExitCode::FAILURE;
                }
                Ok(rows) => Some(rows),
            },
        },
    };

    let cases = cases();
    let m = MachineConfig::paper_default();
    let mut rows = Vec::with_capacity(cases.len() * 3);
    for case in &cases {
        measure(case, &m, opts.runs, &mut rows);
    }
    if let Err(e) = std::fs::write(&opts.out, render(&rows)) {
        eprintln!("simbench: cannot write {}: {e}", opts.out);
        return ExitCode::FAILURE;
    }
    let fast = engine_median(&rows, "fast", false);
    let reference = engine_median(&rows, "reference", false);
    let kfast = engine_median(&rows, "fast", true);
    let kref = engine_median(&rows, "reference", true);
    println!(
        "simbench: {} cases → {}; fast {fast:.1} vs reference {reference:.1} ns/iter \
         ({:.2}x overall, {:.2}x kernel suite)",
        cases.len(),
        opts.out,
        reference / fast,
        kref / kfast
    );
    let Some(baseline) = baseline else {
        return ExitCode::SUCCESS;
    };
    match check(&rows, &baseline) {
        Ok(()) => {
            println!("simbench: engine ratios within 1 ± {RATIO_BOUND} of the baseline's");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("simbench: REGRESSION: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn render_round_trips_through_parse_rows() {
        let rows = vec![
            Row { case: "093.nasa7.mxm".into(), iters: 200, ns_per_iter: 12.345, engine: "fast" },
            Row {
                case: "093.nasa7.mxm".into(),
                iters: 200,
                ns_per_iter: 47.5,
                engine: "reference",
            },
            Row { case: "synth.0".into(), iters: 64, ns_per_iter: 31.25, engine: "fast" },
            Row { case: "synth.0".into(), iters: 64, ns_per_iter: 99.5, engine: "reference" },
            Row { case: "synth.0".into(), iters: 32, ns_per_iter: 250.0, engine: "sched" },
            Row { case: "a \"b\", c".into(), iters: 8, ns_per_iter: 1.5, engine: "sched" },
        ];
        let text = render(&rows);
        let parsed = parse_rows(&text).expect("round-trips");
        assert_eq!(parsed.len(), 6);
        assert_eq!(parsed[0].case, "093.nasa7.mxm");
        assert_eq!(parsed[0].iters, 200);
        assert_eq!(parsed[1].engine, "reference");
        assert!((parsed[3].ns_per_iter - 99.5).abs() < 1e-9);
        assert_eq!(parsed[4].engine, "sched");
        assert_eq!(parsed[5].case, "a \"b\", c");
        assert_eq!(parsed[5].iters, 8);
    }

    /// One row per engine for each case, the engines' ns/iter scaled by
    /// `scale` (`[fast, reference, sched]`).
    fn synthetic(cases: &[&str], scale: [f64; 3]) -> Vec<Row> {
        let mut rows = Vec::new();
        for (i, case) in cases.iter().enumerate() {
            let base = 100.0 + 37.0 * i as f64;
            for (k, (engine, ns)) in
                [("fast", base), ("reference", 2.3 * base), ("sched", 9.1 * base)].into_iter().enumerate()
            {
                rows.push(Row { case: (*case).into(), iters: 64, ns_per_iter: ns * scale[k], engine });
            }
        }
        rows
    }

    const CASES: [&str; 3] = ["a", "b", "c"];

    #[test]
    fn check_passes_a_uniform_slowdown() {
        let base = synthetic(&CASES, [1.0; 3]);
        assert!(check(&synthetic(&CASES, [1.8; 3]), &base).is_ok());
    }

    #[test]
    fn check_fails_a_2x_slowdown_of_any_one_engine() {
        let base = synthetic(&CASES, [1.0; 3]);
        for k in 0..3 {
            let mut scale = [1.0; 3];
            scale[k] = 2.0;
            assert!(check(&synthetic(&CASES, scale), &base).is_err(), "engine {k} slowed 2x");
        }
    }

    #[test]
    fn check_fails_and_names_a_changed_case_list() {
        let base = synthetic(&CASES, [1.0; 3]);
        let e = check(&synthetic(&["a", "b"], [1.0; 3]), &base).unwrap_err();
        assert!(e.contains("missing [c]"), "{e}");
        let e = check(&synthetic(&["a", "b", "c", "d"], [1.0; 3]), &base).unwrap_err();
        assert!(e.contains("not in baseline [d]"), "{e}");
        let mut partial = synthetic(&CASES, [1.0; 3]);
        partial.pop();
        assert!(check(&partial, &base).unwrap_err().contains("case c lacks"));
    }
}
