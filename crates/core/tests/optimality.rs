//! Heuristic quality: compare the Kernighan–Lin partitioner against the
//! exhaustively optimal partition on small loops. The paper argues KL is
//! "an intuitive match" for the two-partition problem; these tests measure
//! how closely it tracks the true optimum of its own cost function.

use sv_analysis::{vectorizable_ops, DepGraph};
use sv_core::{compile, partition_ops, SelectiveConfig, Strategy};
use sv_ir::Loop;
use sv_machine::MachineConfig;
use sv_workloads::{synth_loop, SynthProfile};

/// The greedy-bin-pack cost of an explicit partition, computed through the
/// public pipeline (transform → scheduler ResMII) so the oracle and the
/// partitioner share one cost definition.
fn cost_of(l: &Loop, m: &MachineConfig, part: &[bool]) -> u32 {
    let t = sv_vectorize::try_transform(l, m, part).expect("legal partition");
    sv_modsched::compute_resmii(&t.looop, m)
}

fn optimal_cost(l: &Loop, m: &MachineConfig) -> u32 {
    let g = DepGraph::build(l);
    let legal: Vec<usize> = vectorizable_ops(l, &g, m.vector_length)
        .iter()
        .enumerate()
        .filter(|(_, s)| s.is_vectorizable())
        .map(|(i, _)| i)
        .collect();
    assert!(legal.len() <= 12, "exhaustive search bound");
    let mut best = u32::MAX;
    for mask in 0u32..(1 << legal.len()) {
        let mut part = vec![false; l.ops.len()];
        for (bit, &op) in legal.iter().enumerate() {
            part[op] = mask & (1 << bit) != 0;
        }
        best = best.min(cost_of(l, m, &part));
    }
    best
}

#[test]
fn kl_matches_the_exhaustive_optimum_on_small_loops() {
    let m = MachineConfig::paper_default();
    let profile = SynthProfile {
        loads: (2, 4),
        arith: (1, 5),
        stores: (1, 2),
        nonunit_prob: 0.2,
        reduction_prob: 0.3,
        reassoc: false,
        recurrence_prob: 0.2,
        div_prob: 0.05,
        carried_prob: 0.1,
        cmp_select_prob: 0.1,
        trip: (64, 64),
        invocations: (1, 1),
    };
    let mut optimal_hits = 0;
    let mut total = 0;
    let mut worst_gap = 0i64;
    for seed in 0..40u64 {
        let l = synth_loop("opt", &profile, seed);
        let g = DepGraph::build(&l);
        let legal = vectorizable_ops(&l, &g, m.vector_length);
        if legal.iter().filter(|s| s.is_vectorizable()).count() > 12 {
            continue;
        }
        let kl = partition_ops(&l, &g, &m, &SelectiveConfig::default());
        let opt = optimal_cost(&l, &m);
        assert!(
            kl.cost >= opt,
            "seed {seed}: KL {} below the optimum {opt}?!",
            kl.cost
        );
        worst_gap = worst_gap.max(i64::from(kl.cost) - i64::from(opt));
        total += 1;
        if kl.cost == opt {
            optimal_hits += 1;
        }
    }
    assert!(total >= 25, "too few exhaustively-checkable loops: {total}");
    // KL should find the true optimum almost always on loops this small,
    // and never be far off.
    assert!(
        optimal_hits * 10 >= total * 9,
        "KL optimal on only {optimal_hits}/{total} loops"
    );
    assert!(worst_gap <= 2, "worst KL gap {worst_gap} cycles");
}

#[test]
fn figure1_partition_is_globally_optimal() {
    let m = MachineConfig::figure1();
    let l = sv_workloads::figure1_dot_product();
    let g = DepGraph::build(&l);
    let kl = partition_ops(&l, &g, &m, &SelectiveConfig::default());
    assert_eq!(kl.cost, optimal_cost(&l, &m));
    // And the scheduler achieves it.
    let c = compile(&l, &m, Strategy::Selective).unwrap();
    assert_eq!(f64::from(kl.cost), 2.0 * c.ii_per_original_iteration());
}
