//! Micro-benchmarks of the compilation algorithms themselves, checking the
//! paper's §3.2 claim that partitioning time is small next to modulo
//! scheduling — per synthetic loop size and as one suite-wide ratio —
//! plus an ablation of the sum-of-squares tie-break.
//!
//! Dependency-free harness (`harness = false`): each case is warmed up,
//! then timed over enough iterations to smooth scheduler noise, reporting
//! the per-iteration median of several batches. Run with
//! `cargo bench -p sv-bench`.

use std::time::Instant;
use sv_analysis::DepGraph;
use sv_core::{partition_ops, SelectiveConfig};
use sv_machine::MachineConfig;
use sv_modsched::modulo_schedule;
use sv_vectorize::try_transform;
use sv_workloads::{all_benchmarks, synth_loop, SynthProfile};

fn sized_profile(loads: u32, arith: u32) -> SynthProfile {
    SynthProfile {
        loads: (loads, loads),
        arith: (arith, arith),
        stores: (2, 2),
        nonunit_prob: 0.1,
        reduction_prob: 0.3,
        reassoc: false,
        recurrence_prob: 0.1,
        div_prob: 0.02,
        carried_prob: 0.05,
        cmp_select_prob: 0.0,
        trip: (128, 128),
        invocations: (1, 1),
    }
}

/// The fastest of 5 timed calls of `f`, in seconds.
fn fastest<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::MAX;
    let mut out = None;
    for _ in 0..5 {
        let t = Instant::now();
        out = Some(std::hint::black_box(f()));
        best = best.min(t.elapsed().as_secs_f64());
    }
    (best, out.expect("five calls"))
}

/// Time `f` and print a per-call figure: 3 warmup calls, then the median
/// of 5 batches sized to take roughly 50ms each.
fn bench(group: &str, name: &str, mut f: impl FnMut()) {
    for _ in 0..3 {
        f();
    }
    // Size a batch from a single timed probe.
    let probe = Instant::now();
    f();
    let per_call = probe.elapsed().max(std::time::Duration::from_nanos(50));
    let batch = (50_000_000u128 / per_call.as_nanos()).clamp(1, 100_000) as u32;
    let mut per_iter: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                f();
            }
            t.elapsed().as_secs_f64() / f64::from(batch)
        })
        .collect();
    per_iter.sort_by(f64::total_cmp);
    let median = per_iter[per_iter.len() / 2];
    println!("{group}/{name:<18} {:>12.2} µs/iter  ({batch} iters/batch)", median * 1e6);
}

fn main() {
    let m = MachineConfig::paper_default();

    for (loads, arith) in [(4u32, 6u32), (8, 16), (12, 32)] {
        let l = synth_loop("bench", &sized_profile(loads, arith), 7);
        let g = DepGraph::build(&l);
        let n = l.ops.len();
        bench("partitioner", &format!("{n}_ops"), || {
            let _ = partition_ops(&l, &g, &m, &SelectiveConfig::default());
        });
    }

    for (loads, arith) in [(4u32, 6u32), (8, 16), (12, 32)] {
        let l = synth_loop("bench", &sized_profile(loads, arith), 7);
        // Schedule the transformed (unrolled) loop, as the pipeline does.
        let t = try_transform(&l, &m, &vec![false; l.ops.len()]).unwrap();
        let g = DepGraph::build(&t.looop);
        let n = t.looop.ops.len();
        bench("modulo_scheduler", &format!("{n}_ops"), || {
            let _ = modulo_schedule(&t.looop, &g, &m).unwrap();
        });
    }

    // §3.2 over the whole suite: the mean time to partition a loop
    // against the mean time to modulo schedule the loop its partition
    // transforms it into, each loop at its fastest of 5 calls.
    let (mut partition_s, mut schedule_s, mut loops) = (0.0, 0.0, 0u32);
    for l in all_benchmarks().iter().flat_map(|s| &s.loops) {
        let g = DepGraph::build(l);
        let (t, r) = fastest(|| partition_ops(l, &g, &m, &SelectiveConfig::default()));
        partition_s += t;
        let tl = try_transform(l, &m, &r.partition).unwrap().looop;
        let tg = DepGraph::build(&tl);
        schedule_s += fastest(|| modulo_schedule(&tl, &tg, &m).unwrap()).0;
        loops += 1;
    }
    let (p, s) = (partition_s / f64::from(loops), schedule_s / f64::from(loops));
    println!(
        "suite_3_2/paper  partition_ops {:.1} µs  modulo_schedule {:.1} µs  \
         ratio {:.2}  ({loops} loops)",
        p * 1e6,
        s * 1e6,
        p / s
    );

    for (loads, arith) in [(8u32, 16u32), (12, 32)] {
        let l = synth_loop("bench", &sized_profile(loads, arith), 7);
        let n = l.ops.len();
        bench("dependence_analysis", &format!("{n}_ops"), || {
            let _ = DepGraph::build(&l);
        });
    }

    let l = synth_loop("bench", &sized_profile(8, 16), 11);
    let g = DepGraph::build(&l);
    for (name, squares) in [("with_squares", true), ("without_squares", false)] {
        let cfg = SelectiveConfig { squares_tiebreak: squares, ..Default::default() };
        bench("ablation_squares_tiebreak", name, || {
            let _ = partition_ops(&l, &g, &m, &cfg);
        });
    }
}
