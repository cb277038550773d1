//! The selective-vectorization partitioner (paper Figure 2).
//!
//! A Kernighan–Lin two-cluster heuristic divides the loop's operations
//! between a scalar and a vector partition, minimizing the
//! resource-constrained minimum initiation interval (the high-water mark of
//! the resource bins). Each scalar operation is binned `k` times to match
//! the work output of one `k`-wide vector operation; vector memory
//! operations charge merge-unit realignment when misaligned; and explicit
//! transfer instructions are charged for every operand whose producer and
//! consumers sit in different partitions (at most once per operand).
//!
//! The algorithm is iterative: every pass repositions each vectorizable
//! operation exactly once — even when a move temporarily increases the cost
//! — keeping the best configuration seen; passes repeat until one fails to
//! improve. Candidate moves are costed *incrementally*, as the paper
//! describes: a probe snapshots the bins into a reused buffer, releases
//! only the resources the move affects (logged per op by the last
//! bin-packing), re-reserves them for the flipped op without recording
//! anything, reads the cost, and restores the snapshot. The committed move
//! is followed by a fresh bin-packing, done in place. Nothing in a probe
//! allocates.

use std::ops::Range;
use sv_analysis::{vectorizable_ops, DepGraph};
use sv_ir::{Loop, OpId, OpKind, Opcode, VectorForm};
use sv_machine::{CommModel, MachineConfig, Reservation, TransferDirection};
use sv_modsched::Bins;

/// Tuning knobs for the partitioner, mirroring the paper's ablations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelectiveConfig {
    /// Charge explicit transfer operations during cost analysis (Table 4's
    /// "considered" column). When `false`, transfers are ignored by the
    /// partitioner but still inserted by the transformer, reproducing the
    /// paper's "ignored" ablation.
    pub account_communication: bool,
    /// Use the sum-of-squared-bin-weights tie-break when choosing resource
    /// alternatives and candidate moves (the balance optimization of §3.2).
    pub squares_tiebreak: bool,
    /// Cap on Kernighan–Lin passes (`None` = run to convergence; the paper
    /// notes a few passes suffice and the cap exists for compile-time
    /// control).
    pub max_iterations: Option<u32>,
    /// Hard deterministic budget on candidate-move probes across the whole
    /// partitioning call (`None` = unlimited). Exhausting it abandons the
    /// descent with the best configuration seen so far and flags
    /// [`PartitionResult::budget_exhausted`], which the compilation driver
    /// treats as grounds for strategy degradation.
    pub max_moves: Option<u64>,
}

impl Default for SelectiveConfig {
    fn default() -> SelectiveConfig {
        SelectiveConfig {
            account_communication: true,
            squares_tiebreak: true,
            max_iterations: None,
            max_moves: None,
        }
    }
}

/// The partitioner's output.
#[derive(Debug, Clone)]
pub struct PartitionResult {
    /// `true` = vector partition, per source operation.
    pub partition: Vec<bool>,
    /// Cost of the chosen configuration: the bin high-water mark, i.e. the
    /// estimated ResMII of the transformed loop (which covers
    /// `vector_length` original iterations).
    pub cost: u32,
    /// Kernighan–Lin passes executed.
    pub iterations: u32,
    /// Candidate moves costed (incremental probes).
    pub moves_evaluated: u64,
    /// Moves actually committed (an op flipped and locked).
    pub moves_committed: u64,
    /// Complete bin-packings performed (initial packs, post-commit packs
    /// and per-pass restarts — the probes are incremental and not
    /// counted here).
    pub bin_packs: u64,
    /// The [`SelectiveConfig::max_moves`] budget ran out before the
    /// descent converged; the partition is the best seen, not a local
    /// minimum.
    pub budget_exhausted: bool,
}

/// The price list of one loop on one machine: what each source operation
/// costs in either partition, and which operations may take the vector
/// one. Built once per loop, it is the single source the KL partitioner's
/// bin-packing, its legality screen and the optimal-II oracle's footprints
/// all read, so the heuristic and the exact search price a split alike.
pub(crate) struct Prices {
    /// Register-dataflow consumers of each op (excluding self-loops).
    pub(crate) consumers: Vec<Vec<OpId>>,
    /// Distinct producers of each op's operands (excluding self).
    pub(crate) producers: Vec<Vec<OpId>>,
    /// Each op's scalar opcode, once (a scalar op is billed `k` times).
    pub(crate) scalar: Vec<Vec<Reservation>>,
    /// Each op's vector opcode, with the realignment merge appended when
    /// the op is a memory reference the machine deems misaligned
    /// ([`MachineConfig::misaligned`]).
    pub(crate) vector: Vec<Vec<Reservation>>,
    /// The transfer sequences for each op's value, per direction
    /// (`[scalar→vector, vector→scalar]`).
    pub(crate) comm: Vec<[Vec<Reservation>; 2]>,
    /// The legality screen: which ops may be assigned to the vector
    /// partition. An op is movable when it is legally vectorizable and
    /// the machine can execute its vector price — its vector form and the
    /// realignment merge it would need. So a machine without vector or
    /// merge units pins everything scalar instead of panicking in the bin
    /// packer, while a merge-less machine under `AssumeAligned` (or with
    /// statically aligned refs) still vectorizes its memory operations.
    pub(crate) movable: Vec<bool>,
}

impl Prices {
    pub(crate) fn new(l: &Loop, g: &DepGraph, m: &MachineConfig) -> Prices {
        let n = l.ops.len();
        let mut consumers = vec![Vec::new(); n];
        let mut producers = vec![Vec::new(); n];
        for e in g.edges() {
            if e.is_mem || e.src == e.dst {
                continue;
            }
            if !consumers[e.src.index()].contains(&e.dst) {
                consumers[e.src.index()].push(e.dst);
            }
            if !producers[e.dst.index()].contains(&e.src) {
                producers[e.dst.index()].push(e.src);
            }
        }
        let scalar = l.ops.iter().map(|o| m.requirements(o.opcode)).collect();
        let vector: Vec<Vec<Reservation>> = l
            .ops
            .iter()
            .map(|o| {
                let mut reqs = m.requirements(o.opcode.with_form(VectorForm::Vector));
                let misaligned = o.opcode.kind.is_mem()
                    && o.mem.as_ref().is_some_and(|r| m.misaligned(&l.arrays, r));
                if misaligned {
                    reqs.extend(m.requirements(Opcode::vector(OpKind::Merge, o.opcode.ty)));
                }
                reqs
            })
            .collect();
        let comm = l
            .ops
            .iter()
            .map(|o| {
                let seq = |dir| -> Vec<Reservation> {
                    m.comm
                        .transfer_opcodes(dir, o.opcode.ty, m.vector_length)
                        .iter()
                        .flat_map(|opc| m.requirements(*opc))
                        .collect()
                };
                [
                    seq(TransferDirection::ScalarToVector),
                    seq(TransferDirection::VectorToScalar),
                ]
            })
            .collect();
        let pool = m.resource_pool();
        let movable = vectorizable_ops(l, g, m.vector_length)
            .iter()
            .zip(&vector)
            .map(|(s, reqs)| {
                s.is_vectorizable() && reqs.iter().all(|r| pool.capacity(r.class) > 0)
            })
            .collect();
        Prices { consumers, producers, scalar, vector, comm, movable }
    }
}

/// The KL partitioner's view of a price list: what it bills for one
/// operation in one partition, and the order it bin-packs them in.
struct CostModel<'a> {
    l: &'a Loop,
    m: &'a MachineConfig,
    cfg: &'a SelectiveConfig,
    prices: &'a Prices,
    k: u32,
    /// Bin-packing order: most-constrained opcodes first, fixed up front
    /// (partition flips barely move the ordering).
    pack_order: Vec<usize>,
    /// Empty bins over the machine's pool with the loop overhead
    /// reserved: where every bin-packing starts.
    overhead: Bins,
}

impl<'a> CostModel<'a> {
    fn new(
        l: &'a Loop,
        m: &'a MachineConfig,
        cfg: &'a SelectiveConfig,
        prices: &'a Prices,
    ) -> CostModel<'a> {
        let pool = m.resource_pool();
        let mut pack_order: Vec<usize> = (0..l.ops.len()).collect();
        pack_order.sort_by_key(|&i| (m.alternatives_count_in(&pool, l.ops[i].opcode), i));
        let mut overhead = Bins::new(&pool);
        for reqs in m.loop_overhead() {
            overhead.reserve(&reqs);
        }
        CostModel { l, m, cfg, prices, k: m.vector_length, pack_order, overhead }
    }

    /// The op's own execution resources (lines 38–45 of Figure 2) and how
    /// many times to reserve them: `k` scalar issues, or one vector issue
    /// plus realignment merges.
    fn own(&self, i: usize, vector: bool) -> (&'a [Reservation], u32) {
        if vector {
            (&self.prices.vector[i], 1)
        } else {
            (&self.prices.scalar[i], self.k)
        }
    }

    /// The transfer instructions for op `i`'s *value* under the given
    /// partition assignment (lines 46–48): nothing when the op's value
    /// stays within its partition, otherwise the through-memory
    /// store/load sequence, charged once regardless of consumer count.
    fn comm(&self, i: usize, part: &[bool]) -> &'a [Reservation] {
        if !self.cfg.account_communication
            || self.m.comm != CommModel::ThroughMemory
            || !self.l.ops[i].defines_value()
        {
            return &[];
        }
        let produces_vector = part[i];
        let needs = self.prices.consumers[i]
            .iter()
            .any(|c| part[c.index()] != produces_vector);
        if !needs {
            return &[];
        }
        &self.prices.comm[i][usize::from(produces_vector)]
    }
}

/// A complete bin-packing of one configuration (Figure 2, BIN-PACK) and
/// what each op reserved in it, kept in one flat `(bin, cycles)` arena so
/// a cost probe can release exactly an op's share. Repacked in place; one
/// per partitioning call, shared by both descents.
struct Packed {
    bins: Bins,
    /// The probe's snapshot of `bins`, restored after each probe.
    saved: Bins,
    arena: Vec<(usize, u32)>,
    /// Each op's own reservations: a range of `arena`.
    own: Vec<Range<usize>>,
    /// The reservations for the transfers of each op's value.
    comm: Vec<Range<usize>>,
}

impl Packed {
    fn new(model: &CostModel<'_>) -> Packed {
        let n = model.l.ops.len();
        Packed {
            bins: model.overhead.clone(),
            saved: model.overhead.clone(),
            arena: Vec::new(),
            own: vec![0..0; n],
            comm: vec![0..0; n],
        }
    }

    /// Bin-pack `part` from scratch: loop overhead first, then every
    /// operation in most-constrained-first order, then the required
    /// transfers.
    fn repack(&mut self, model: &CostModel<'_>, part: &[bool]) {
        self.bins.copy_from(&model.overhead);
        self.arena.clear();
        for &i in &model.pack_order {
            let start = self.arena.len();
            let (reqs, times) = model.own(i, part[i]);
            for _ in 0..times {
                self.bins.reserve_logged(reqs, &mut self.arena);
            }
            self.own[i] = start..self.arena.len();
        }
        for i in 0..part.len() {
            let start = self.arena.len();
            self.bins.reserve_logged(model.comm(i, part), &mut self.arena);
            self.comm[i] = start..self.arena.len();
        }
    }
}

/// Run the partitioner on `l` for machine `m`.
///
/// Operations that are not legally vectorizable (per `sv-analysis`) are
/// pinned to the scalar partition. When the machine has no vector units or
/// free communication turns into through-memory chaos, the all-scalar
/// configuration remains a valid answer — the algorithm never returns a
/// configuration worse than it.
///
/// ```
/// use sv_analysis::DepGraph;
/// use sv_core::{partition_ops, SelectiveConfig};
/// use sv_ir::{LoopBuilder, ScalarType};
/// use sv_machine::MachineConfig;
///
/// // The paper's Figure 1 dot product on the Figure 1 machine.
/// let mut b = LoopBuilder::new("dot");
/// let x = b.array("x", ScalarType::F64, 64);
/// let y = b.array("y", ScalarType::F64, 64);
/// let lx = b.load(x, 1, 0);
/// let ly = b.load(y, 1, 0);
/// let mu = b.fmul(lx, ly);
/// b.reduce_add(mu);
/// let l = b.finish();
///
/// let m = MachineConfig::figure1();
/// let g = DepGraph::build(&l);
/// let r = partition_ops(&l, &g, &m, &SelectiveConfig::default());
/// assert_eq!(r.cost, 2); // II 1.0 per original iteration — Figure 1(f)
/// ```
pub fn partition_ops(
    l: &Loop,
    g: &DepGraph,
    m: &MachineConfig,
    cfg: &SelectiveConfig,
) -> PartitionResult {
    kl_partition(l, m, &Prices::new(l, g, m), cfg)
}

/// [`partition_ops`] over a price list the caller already built (the
/// compile driver keeps it for the optimal-II oracle).
pub(crate) fn kl_partition(
    l: &Loop,
    m: &MachineConfig,
    prices: &Prices,
    cfg: &SelectiveConfig,
) -> PartitionResult {
    let movable = &prices.movable;
    let model = CostModel::new(l, m, cfg, prices);
    let mut packed = Packed::new(&model);

    // Kernighan–Lin is a local search; seed it from both extremes — the
    // paper's all-scalar start and the legal all-vector (full) partition —
    // and keep the cheaper result. The second start removes the rare local
    // minimum where full vectorization would beat the all-scalar descent.
    let scalar_start = vec![false; l.ops.len()];
    let mut best = kl_descend(&model, &mut packed, movable, scalar_start, cfg.max_moves);
    if movable.iter().any(|&v| v) {
        // The second descent spends whatever the first left of the budget.
        let remaining = cfg.max_moves.map(|cap| cap.saturating_sub(best.moves_evaluated));
        let full_start = movable.clone();
        let alt = kl_descend(&model, &mut packed, movable, full_start, remaining);
        let budget_exhausted = best.budget_exhausted || alt.budget_exhausted;
        let iterations = best.iterations + alt.iterations;
        let moves_evaluated = best.moves_evaluated + alt.moves_evaluated;
        let moves_committed = best.moves_committed + alt.moves_committed;
        let bin_packs = best.bin_packs + alt.bin_packs;
        let winner = if (alt.cost, alt.partition.iter().filter(|&&v| v).count())
            < (best.cost, best.partition.iter().filter(|&&v| v).count())
        {
            alt
        } else {
            best
        };
        best = PartitionResult {
            iterations,
            moves_evaluated,
            moves_committed,
            bin_packs,
            budget_exhausted,
            ..winner
        };
    }
    best
}

/// One full Kernighan–Lin descent (Figure 2 lines 1–20) from `start`,
/// probing at most `move_cap` candidate moves. `packed` is scratch: its
/// contents on entry do not matter.
fn kl_descend(
    model: &CostModel<'_>,
    packed: &mut Packed,
    movable: &[bool],
    start: Vec<bool>,
    move_cap: Option<u64>,
) -> PartitionResult {
    let cfg = model.cfg;
    let n = movable.len();
    let movable_count = movable.iter().filter(|&&v| v).count();
    let mut moves_evaluated = 0u64;
    let mut moves_committed = 0u64;
    let mut bin_packs = 1u64;
    let mut budget_exhausted = false;
    let mut part = start;
    packed.repack(model, &part);
    let mut best_part = part.clone();
    let mut best_cost = packed.bins.high_water_mark();
    let mut locked = vec![false; n];

    let mut iterations = 0u32;
    let mut last_cost = u32::MAX;
    'passes: while last_cost != best_cost {
        if let Some(cap) = cfg.max_iterations {
            if iterations >= cap {
                break;
            }
        }
        last_cost = best_cost;
        iterations += 1;
        locked.fill(false);

        // Lines 10–18: reposition every movable op exactly once.
        for _ in 0..movable_count {
            // FIND-OP-TO-SWITCH: probe each unlocked candidate.
            let mut best_probe: Option<((u32, u64), usize)> = None;
            for i in 0..n {
                if !movable[i] || locked[i] {
                    continue;
                }
                if move_cap.is_some_and(|cap| moves_evaluated >= cap) {
                    budget_exhausted = true;
                    break 'passes;
                }
                moves_evaluated += 1;
                let cost = probe_switch(model, packed, &mut part, i);
                let key = if cfg.squares_tiebreak { cost } else { (cost.0, 0) };
                if best_probe.is_none_or(|(bc, bi)| key < bc || (key == bc && i < bi)) {
                    best_probe = Some((key, i));
                }
            }
            let Some((_, op)) = best_probe else { break };

            // SWITCH-OP + fresh BIN-PACK (lines 12–14).
            part[op] = !part[op];
            locked[op] = true;
            moves_committed += 1;
            bin_packs += 1;
            packed.repack(model, &part);
            let cost = packed.bins.high_water_mark();
            if cost < best_cost {
                best_cost = cost;
                best_part.copy_from_slice(&part);
            }
        }

        // Line 19: restart from the best configuration.
        part.copy_from_slice(&best_part);
        bin_packs += 1;
        packed.repack(model, &part);
    }

    PartitionResult {
        partition: best_part,
        cost: best_cost,
        iterations,
        moves_evaluated,
        moves_committed,
        bin_packs,
        budget_exhausted,
    }
}

/// TEST-REPARTITION (lines 29–32): snapshot the bins, release the op's
/// own resources plus the transfers of its value and its producers'
/// values, flip, re-reserve, read the cost, and restore the snapshot.
fn probe_switch(
    model: &CostModel<'_>,
    packed: &mut Packed,
    part: &mut [bool],
    i: usize,
) -> (u32, u64) {
    let producers = &model.prices.producers[i];
    let Packed { bins, saved, arena, own, comm } = packed;
    saved.copy_from(bins);

    bins.release(&arena[own[i].clone()]);
    bins.release(&arena[comm[i].clone()]);
    for p in producers {
        bins.release(&arena[comm[p.index()].clone()]);
    }

    part[i] = !part[i];
    let (reqs, times) = model.own(i, part[i]);
    for _ in 0..times {
        bins.reserve(reqs);
    }
    bins.reserve(model.comm(i, part));
    for p in producers {
        bins.reserve(model.comm(p.index(), part));
    }
    let cost = (bins.high_water_mark(), bins.sum_squares());
    part[i] = !part[i];
    bins.copy_from(saved);
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use sv_ir::{LoopBuilder, ScalarType};
    use sv_machine::AlignmentPolicy;

    fn run(l: &Loop, m: &MachineConfig) -> PartitionResult {
        let g = DepGraph::build(l);
        partition_ops(l, &g, m, &SelectiveConfig::default())
    }

    /// The bin-packed cost of the all-scalar configuration.
    fn pack_cost(model: &CostModel<'_>, l: &Loop) -> u32 {
        let mut packed = Packed::new(model);
        packed.repack(model, &vec![false; l.ops.len()]);
        packed.bins.high_water_mark()
    }

    fn figure1_dot() -> Loop {
        let mut b = LoopBuilder::new("dot");
        let x = b.array("x", ScalarType::F64, 64);
        let y = b.array("y", ScalarType::F64, 64);
        let lx = b.load(x, 1, 0);
        let ly = b.load(y, 1, 0);
        let mu = b.fmul(lx, ly);
        b.reduce_add(mu);
        b.finish()
    }

    #[test]
    fn figure1_reaches_cost_two() {
        // The paper's headline example: II = 1.0 per original iteration,
        // i.e. bin high-water mark 2 for the 2-wide transformed loop.
        let l = figure1_dot();
        let m = MachineConfig::figure1();
        let r = run(&l, &m);
        assert_eq!(r.cost, 2, "partition: {:?}", r.partition);
        // The reduction must stay scalar.
        assert!(!r.partition[3]);
        // Exactly one load and the multiply are vectorized (cost 2 needs
        // 6 issue slots over 2 rows and ≤ 2 vector ops).
        let vec_count = r.partition.iter().filter(|&&v| v).count();
        assert_eq!(vec_count, 2, "partition: {:?}", r.partition);
        assert!(r.partition[2], "the multiply should vectorize");
    }

    #[test]
    fn never_worse_than_all_scalar() {
        let l = figure1_dot();
        let m = MachineConfig::figure1();
        let g = DepGraph::build(&l);
        let model_cfg = SelectiveConfig::default();
        let r = partition_ops(&l, &g, &m, &model_cfg);
        let prices = Prices::new(&l, &g, &m);
        let all_scalar = pack_cost(&CostModel::new(&l, &m, &model_cfg, &prices), &l);
        assert!(r.cost <= all_scalar);
    }

    #[test]
    fn non_vectorizable_ops_stay_scalar() {
        let mut b = LoopBuilder::new("t");
        let a = b.array("a", ScalarType::F64, 64);
        let la = b.load(a, 1, 0);
        let n = b.fneg(la);
        b.store(a, 1, 1, n); // distance-1 recurrence: nothing vectorizable
        let l = b.finish();
        let r = run(&l, &MachineConfig::paper_default());
        assert!(r.partition.iter().all(|&v| !v));
    }

    #[test]
    fn expensive_communication_inhibits_vectorization() {
        // A single chain load→neg→store on the paper machine: vectorizing
        // everything is profitable; but if only the neg could vectorize,
        // the transfers would cost more than the gain. Construct that by
        // making the loads/stores non-unit-stride.
        let mut b = LoopBuilder::new("t");
        let x = b.array("x", ScalarType::F64, 256);
        let y = b.array("y", ScalarType::F64, 256);
        let lx = b.load(x, 2, 0);
        let n = b.fneg(lx);
        b.store(y, 2, 0, n);
        let l = b.finish();
        let r = run(&l, &MachineConfig::paper_default());
        // Vectorizing the neg alone needs 2 stores + vload + vstore + 2
        // loads on the memory units — strictly worse. Must stay scalar.
        assert!(!r.partition[n.index()], "cost {}", r.cost);
    }

    #[test]
    fn mem_bound_loop_offloads_to_vector_units() {
        // Heavy fp arithmetic on 2 fp units: vector unit takes some load.
        let mut b = LoopBuilder::new("t");
        let x = b.array("x", ScalarType::F64, 256);
        let y = b.array("y", ScalarType::F64, 256);
        let lx = b.load(x, 1, 0);
        let mut v = lx;
        for _ in 0..6 {
            v = b.fmul(v, lx);
        }
        b.store(y, 1, 0, v);
        let l = b.finish();
        let m = MachineConfig::paper_default();
        let g = DepGraph::build(&l);
        let r = partition_ops(&l, &g, &m, &SelectiveConfig::default());
        let prices = Prices::new(&l, &g, &m);
        let cfg = SelectiveConfig::default();
        let scalar_cost = pack_cost(&CostModel::new(&l, &m, &cfg, &prices), &l);
        assert!(
            r.cost < scalar_cost,
            "selective ({}) should beat all-scalar ({})",
            r.cost,
            scalar_cost
        );
        assert!(r.partition.iter().any(|&v| v));
    }

    #[test]
    fn mergeless_machine_vectorizes_aligned_memory() {
        // Regression: the legality screen used to charge vector-Merge
        // capability for *every* memory op, so a machine with vector
        // units but no merge unit pinned all loads/stores scalar even
        // under AssumeAligned, where the transformer never emits a
        // merge. Mem-bound loop: 5 memory ops on 2 memory units.
        let mut b = LoopBuilder::new("memsum");
        let x = b.array("x", ScalarType::F64, 256);
        let y = b.array("y", ScalarType::F64, 256);
        let z = b.array("z", ScalarType::F64, 256);
        let w = b.array("w", ScalarType::F64, 256);
        let lx = b.load(x, 1, 0);
        let ly = b.load(y, 1, 0);
        let lz = b.load(z, 1, 0);
        let lw = b.load(w, 1, 0);
        let s1 = b.fadd(lx, ly);
        let s2 = b.fadd(lz, lw);
        let s3 = b.fadd(s1, s2);
        b.store(x, 1, 0, s3);
        let l = b.finish();

        let mut m = MachineConfig::paper_default();
        m.merge_units = 0;
        m.alignment = AlignmentPolicy::AssumeAligned;
        let r = run(&l, &m);
        let vectorized_mem = l
            .ops
            .iter()
            .enumerate()
            .filter(|(i, op)| op.opcode.kind.is_mem() && r.partition[*i])
            .count();
        assert!(
            vectorized_mem > 0,
            "no memory op vectorized on the merge-less aligned machine: {:?} (cost {})",
            r.partition,
            r.cost
        );

        // The guard the old over-restriction was protecting still holds:
        // when merges *are* required (assume-misaligned) and there is no
        // merge unit, memory ops must stay scalar.
        let mut mm = MachineConfig::paper_default();
        mm.merge_units = 0;
        mm.alignment = AlignmentPolicy::AssumeMisaligned;
        let rm = run(&l, &mm);
        for (i, op) in l.ops.iter().enumerate() {
            if op.opcode.kind.is_mem() {
                assert!(
                    !rm.partition[i],
                    "memory op {i} vectorized without a merge unit under AssumeMisaligned"
                );
            }
        }
    }

    #[test]
    fn price_list_merges_match_the_transformer() {
        // The price list charges a realignment merge exactly where the
        // transformer emits one: for every suite loop, the merges in the
        // transformed loop equal the vector memory ops whose vector price
        // carries the merge surcharge, under every alignment policy.
        let spec = |name: &str| {
            let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/machines");
            let text = std::fs::read_to_string(format!("{dir}/{name}.spec")).unwrap();
            MachineConfig::from_spec(&text).unwrap()
        };
        let mut statik = MachineConfig::paper_default();
        statik.alignment = AlignmentPolicy::UseStatic;
        let machines = [MachineConfig::paper_default(), spec("vl4"), spec("aligned"), statik];
        let (mut merged, mut plain) = (0, 0);
        for m in &machines {
            for suite in sv_workloads::all_benchmarks() {
                for l in &suite.loops {
                    let g = DepGraph::build(l);
                    let prices = Prices::new(l, &g, m);
                    let kl = kl_partition(l, m, &prices, &SelectiveConfig::default());
                    for part in [&kl.partition, &prices.movable] {
                        let t = sv_vectorize::try_transform(l, m, part).unwrap();
                        let vector_mem: Vec<usize> = (0..l.ops.len())
                            .filter(|&i| part[i] && l.ops[i].opcode.kind.is_mem())
                            .collect();
                        let priced = vector_mem
                            .iter()
                            .filter(|&&i| {
                                let vopc = l.ops[i].opcode.with_form(VectorForm::Vector);
                                prices.vector[i].len() > m.requirements(vopc).len()
                            })
                            .count();
                        assert_eq!(t.merge_ops, priced, "{} on {}", l.name, m.name);
                        if m.alignment == AlignmentPolicy::UseStatic {
                            merged += priced;
                            plain += vector_mem.len() - priced;
                        }
                    }
                }
            }
        }
        // The static policy exercises both sides of the rule.
        assert!(merged > 0 && plain > 0, "merged {merged}, plain {plain}");
    }

    #[test]
    fn iteration_count_is_small() {
        let l = figure1_dot();
        let r = run(&l, &MachineConfig::figure1());
        assert!(r.iterations <= 4, "iterations = {}", r.iterations);
    }

    #[test]
    fn max_iterations_caps_work() {
        let l = figure1_dot();
        let g = DepGraph::build(&l);
        let cfg = SelectiveConfig { max_iterations: Some(1), ..Default::default() };
        let r = partition_ops(&l, &g, &MachineConfig::figure1(), &cfg);
        // One pass per start (all-scalar and all-vector seeds).
        assert!(r.iterations <= 2, "iterations = {}", r.iterations);
    }
}
