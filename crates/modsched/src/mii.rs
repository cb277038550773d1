//! Minimum initiation interval bounds: ResMII and RecMII.

use crate::binpack::Bins;
use crate::sched::ScheduleError;
use sv_analysis::{DepEdge, DepGraph, DepKind};
use sv_ir::Loop;
use sv_machine::{MachineConfig, Reservation};

/// The scheduling delay a dependence edge imposes:
/// `σ(dst) + II·distance ≥ σ(src) + delay`.
///
/// Register flow edges carry the producer's latency. Memory flow edges
/// carry the store latency (the load may issue once the store completes);
/// anti edges carry 0 (a write may issue in the cycle its reader issues);
/// output edges carry 1 (stores to the same location stay ordered).
pub fn edge_delay(e: &DepEdge, l: &Loop, m: &MachineConfig) -> i64 {
    if !e.is_mem {
        return i64::from(m.latency(l.op(e.src).opcode));
    }
    match e.kind {
        DepKind::Flow => i64::from(m.latency(l.op(e.src).opcode)),
        DepKind::Anti => 0,
        DepKind::Output => 1,
    }
}

/// Check that machine `m` has at least one unit of every class loop `l`
/// and its loop control overhead reserve. [`compute_resmii`] and the
/// partitioner's bin packer assume so; a machine spec from outside the
/// program may set any unit count to zero, so the scheduler and the
/// partitioner check here first.
///
/// # Errors
///
/// [`ScheduleError::NoUnits`] naming the first missing class and what
/// needs it.
pub fn check_units(l: &Loop, m: &MachineConfig) -> Result<(), ScheduleError> {
    if !m.lacks_a_unit() {
        return Ok(());
    }
    let pool = m.resource_pool();
    let missing =
        |reqs: &[Reservation]| reqs.iter().map(|r| r.class).find(|&c| pool.capacity(c) == 0);
    for reqs in m.loop_overhead() {
        if let Some(class) = missing(&reqs) {
            return Err(ScheduleError::NoUnits { class, needed_by: "loop control".into() });
        }
    }
    for op in &l.ops {
        if let Some(class) = missing(&m.requirements(op.opcode)) {
            return Err(ScheduleError::NoUnits { class, needed_by: op.opcode.to_string() });
        }
    }
    Ok(())
}

/// Resource-constrained minimum II of a loop on machine `m`, by the ordered
/// greedy bin-packing of the paper's Figure 2: operations with the fewest
/// scheduling alternatives are placed first, each on the least-used
/// alternative; the high-water mark over all bins is the bound. Loop
/// control overhead is included when the machine charges it.
pub fn compute_resmii(l: &Loop, m: &MachineConfig) -> u32 {
    let pool = m.resource_pool();
    let mut bins = Bins::new(&pool);
    for reqs in m.loop_overhead() {
        bins.reserve(&reqs);
    }
    let mut order: Vec<usize> = (0..l.ops.len()).collect();
    order.sort_by_key(|&i| (m.alternatives_count_in(&pool, l.ops[i].opcode), i));
    for i in order {
        bins.reserve(&m.requirements(l.ops[i].opcode));
    }
    bins.high_water_mark()
}

/// Recurrence-constrained minimum II: the maximum over dependence cycles of
/// `⌈Σ delay / Σ distance⌉`. [`recurrence_bound`] at scale 1.
pub fn compute_recmii(l: &Loop, g: &DepGraph, m: &MachineConfig) -> u32 {
    recurrence_bound(l, g, m, 1)
}

/// The recurrence bound with every dependence delay multiplied by
/// `scale`: the maximum over dependence cycles of
/// `⌈scale·Σ delay / Σ distance⌉`, computed by binary-searching the
/// smallest II for which the graph has no positive-weight cycle under edge
/// weights `scale·delay − II·distance` (Bellman–Ford from a virtual
/// source). Scale 1 is RecMII; scale `k` bounds a loop transformed to
/// cover `k` source iterations per kernel iteration, whatever its
/// partition (the optimal-II oracle's recurrence bound).
pub fn recurrence_bound(l: &Loop, g: &DepGraph, m: &MachineConfig, scale: u32) -> u32 {
    let scale = i64::from(scale);
    let edges: Vec<(usize, usize, i64, i64)> = g
        .edges()
        .iter()
        .map(|e| {
            let delay = scale * edge_delay(e, l, m);
            (e.src.index(), e.dst.index(), delay, i64::from(e.distance))
        })
        .collect();
    let max_delay: i64 = edges.iter().map(|e| e.2.max(0)).sum();
    if max_delay == 0 {
        return 1;
    }
    let (mut lo, mut hi) = (1i64, max_delay);
    // Invariant: hi admits no positive cycle; lo-1 untested/lo may fail.
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if has_positive_cycle(g.op_count(), &edges, mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    u32::try_from(lo).unwrap_or(u32::MAX)
}

/// The final MII: `max(ResMII, RecMII)` (and at least 1).
pub fn compute_mii(l: &Loop, g: &DepGraph, m: &MachineConfig) -> u32 {
    compute_resmii(l, m).max(compute_recmii(l, g, m)).max(1)
}

/// Bellman–Ford longest-path relaxation over `(src, dst, delay, distance)`
/// edges; reports whether any cycle has positive total weight
/// `Σ(delay − II·distance)`.
fn has_positive_cycle(n: usize, edges: &[(usize, usize, i64, i64)], ii: i64) -> bool {
    let mut dist = vec![0i64; n];
    for _ in 0..n {
        let mut changed = false;
        for &(src, dst, delay, distance) in edges {
            let cand = dist[src] + delay - ii * distance;
            if cand > dist[dst] {
                dist[dst] = cand;
                changed = true;
            }
        }
        if !changed {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use sv_ir::{LoopBuilder, ScalarType};
    use sv_machine::MachineConfig;

    fn dep_graph(l: &Loop) -> DepGraph {
        DepGraph::build(l)
    }

    #[test]
    fn resmii_counts_memory_pressure() {
        // 4 loads + 1 store on 2 mem units ⇒ ResMII ≥ 3 (5 mem ops / 2).
        let mut b = LoopBuilder::new("t");
        let x = b.array("x", ScalarType::F64, 64);
        let y = b.array("y", ScalarType::F64, 64);
        let l0 = b.load(x, 1, 0);
        let l1 = b.load(x, 1, 1);
        let l2 = b.load(x, 1, 2);
        let l3 = b.load(x, 1, 3);
        let s0 = b.fadd(l0, l1);
        let s1 = b.fadd(l2, l3);
        let s2 = b.fadd(s0, s1);
        b.store(y, 1, 0, s2);
        let l = b.finish();
        let m = MachineConfig::paper_default();
        assert_eq!(compute_resmii(&l, &m), 3);
    }

    #[test]
    fn resmii_includes_loop_overhead() {
        // One fp add alone: without overhead II bound would be 1; the branch
        // and IV update occupy other units so it stays 1 on the big machine.
        let mut b = LoopBuilder::new("t");
        let x = b.array("x", ScalarType::F64, 64);
        let lx = b.load(x, 1, 0);
        b.store(x, 1, 32, lx);
        let l = b.finish();
        let m = MachineConfig::paper_default();
        assert_eq!(compute_resmii(&l, &m), 1);
        // With a single-issue machine the overhead dominates: 2 mem ops +
        // branch + IV update on 1 issue slot = 4.
        let mut narrow = m.clone();
        narrow.issue_width = 1;
        assert_eq!(compute_resmii(&l, &narrow), 4);
    }

    #[test]
    fn recmii_of_reduction_is_fp_latency() {
        let mut b = LoopBuilder::new("t");
        let x = b.array("x", ScalarType::F64, 64);
        let lx = b.load(x, 1, 0);
        b.reduce_add(lx);
        let l = b.finish();
        let m = MachineConfig::paper_default();
        // s = s + x: self edge distance 1, delay = fp_alu = 4.
        assert_eq!(compute_recmii(&l, &dep_graph(&l), &m), 4);
    }

    #[test]
    fn recmii_of_straight_line_is_one() {
        let mut b = LoopBuilder::new("t");
        let x = b.array("x", ScalarType::F64, 64);
        let y = b.array("y", ScalarType::F64, 64);
        let lx = b.load(x, 1, 0);
        let n = b.fneg(lx);
        b.store(y, 1, 0, n);
        let l = b.finish();
        let m = MachineConfig::paper_default();
        assert_eq!(compute_recmii(&l, &dep_graph(&l), &m), 1);
    }

    #[test]
    fn recmii_memory_recurrence_divides_by_distance() {
        // a[i+2] = -a[i]: cycle delay = load(3)→neg(4 over fp)... delay sum:
        // load latency 3 (load→neg) + fp 4 (neg→store) + store 1
        // (store→load), distance sum 2 ⇒ RecMII = ceil(8/2) = 4.
        let mut b = LoopBuilder::new("t");
        let a = b.array("a", ScalarType::F64, 64);
        let la = b.load(a, 1, 0);
        let n = b.fneg(la);
        b.store(a, 1, 2, n);
        let l = b.finish();
        let m = MachineConfig::paper_default();
        assert_eq!(compute_recmii(&l, &dep_graph(&l), &m), 4);
    }

    #[test]
    fn mii_is_max_of_bounds() {
        let mut b = LoopBuilder::new("t");
        let x = b.array("x", ScalarType::F64, 64);
        let lx = b.load(x, 1, 0);
        b.reduce_add(lx);
        let l = b.finish();
        let m = MachineConfig::paper_default();
        let g = dep_graph(&l);
        assert_eq!(compute_mii(&l, &g, &m), 4); // RecMII dominates ResMII=1
    }

    #[test]
    fn figure1_machine_unit_latency_reduction() {
        let mut b = LoopBuilder::new("t");
        let x = b.array("x", ScalarType::F64, 64);
        let lx = b.load(x, 1, 0);
        b.reduce_add(lx);
        let l = b.finish();
        let m = MachineConfig::figure1();
        assert_eq!(compute_recmii(&l, &dep_graph(&l), &m), 1);
    }
}
