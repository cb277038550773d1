//! The optimal-II oracle: certified minimum kernel initiation interval
//! over every legal scalar/vector partition.
//!
//! The Kernighan–Lin partitioner in [`crate::partition`] is a heuristic:
//! it minimizes an *estimated* ResMII and hands the winner to an
//! *iterative* (incomplete) modulo scheduler. This module answers the
//! question the heuristic cannot: what is the true minimum II any
//! partition of this loop can achieve on this machine — and does the
//! heuristic reach it?
//!
//! The search is a depth-first branch and bound over per-op
//! scalar/vector assignments. Each node branches on one undecided op,
//! trying the incumbent's assignment first, so the first dive reaches the
//! heuristic's own leaf; a node whose lower bound reaches the incumbent
//! is pruned.
//!
//! * **Nodes** are partial assignments over the movable ops. The oracle
//!   prices a split from the same per-op price list as the KL
//!   partitioner ([`crate::partition`]'s `Prices`: reservations,
//!   realignment merges, transfers and the legality screen), so both
//!   searches cover the same space at the same prices. Non-movable ops
//!   are pinned scalar.
//! * **Lower bound** — the maximum of two sound, partition-independent-or
//!   monotone bounds:
//!   1. a *filtered-choice resource bound*: the smallest II where every
//!      op has at least one assignment whose own reservations fit the II
//!      alone, and — for every modelled resource *group* (each single
//!      class, plus unions like `{fp, vector}` that couple the classes
//!      an op's two assignments split across) — the totals of each op's
//!      cheapest surviving assignment *within that group* (decided ops
//!      contribute exactly their decided assignment, including any
//!      scalar↔vector transfer already forced by a decided
//!      producer/consumer pair) fit `II × group capacity`. Grouping is
//!      what gives the bound teeth: the component-wise min of a scalar
//!      assignment (fp cycles) and a vector assignment (vector cycles)
//!      is zero in both classes, but their `{fp, vector}` group sum is
//!      not;
//!   2. a *global recurrence bound*: any source dependence cycle with
//!      delay `L` and distance `D` forces the transformed loop (which
//!      covers `k` original iterations) to an II of at least
//!      `⌈k·L/D⌉` in **every** partition, because vector latencies equal
//!      scalar latencies and the cycle's dataflow survives both unrolling
//!      and vectorization. It is `sv_modsched`'s RecMII computation with
//!      every delay scaled by `k` ([`sv_modsched::recurrence_bound`]).
//! * **Leaves** are complete partitions: the real transformer
//!   ([`sv_vectorize::try_transform`]) builds the transformed loop, and
//!   the exact modulo-schedule feasibility probe
//!   ([`sv_modsched::exact_schedule`]) decides each candidate II from the
//!   transformed loop's MII upward — ascending, sequentially, because
//!   modulo-schedule feasibility is not monotone in II.
//!
//! Every improvement is a *witness*: the transformed loop plus a complete,
//! validated [`Schedule`] at the improved II. Two [`Budget`]s meter the
//! work: one unit per tree node, and one per residue attempt shared by
//! every exact probe. [`OptimalOutcome::Proved`] is only returned when
//! the tree closed within the node budget and every leaf probe was
//! decisive; a single exhausted probe degrades the run to
//! [`OptimalOutcome::BudgetExhausted`] carrying the best witnessed value.
//! Partitions the transformer rejects are excluded from the minimum — the
//! oracle certifies the best *deliverable* II, the same space the driver
//! can actually compile. A deadline, when the caller sets one, is polled
//! by both budgets as they spend units; once it passes the search stops
//! with no verdict at all.

use crate::partition::Prices;
use std::time::Instant;
use sv_analysis::DepGraph;
use sv_ir::Loop;
use sv_machine::{MachineConfig, Reservation, ResourceClass};
use sv_modsched::{
    compute_mii, exact_schedule, recurrence_bound, Budget, ExactOutcome, Schedule, Stop,
};
use sv_vectorize::try_transform;

/// Final verdict of one oracle run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptimalOutcome {
    /// The search closed: this is the exact minimum II.
    Proved(u32),
    /// The node budget ran out (or a leaf probe was undecided) before the
    /// tree closed; the true optimum may be smaller than `best_found`.
    BudgetExhausted {
        /// Best witnessed II when the search stopped.
        best_found: u32,
    },
}

/// Deterministic search effort counters, reported alongside the outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Tree nodes expanded (bound computed).
    pub nodes: u64,
    /// Nodes pruned by the lower bound.
    pub pruned: u64,
    /// Leaves evaluated exactly.
    pub leaves: u64,
    /// Leaf evaluations that improved the incumbent.
    pub improved: u64,
}

/// Deterministic effort limits for one oracle run.
#[derive(Debug, Clone)]
pub struct OptimalConfig {
    /// Branch-and-bound tree nodes the search may expand.
    pub max_nodes: u64,
    /// Residue-placement attempts shared by every exact schedule probe
    /// across the whole search (the expensive inner work).
    pub probe_budget: u64,
}

impl Default for OptimalConfig {
    fn default() -> OptimalConfig {
        OptimalConfig { max_nodes: 1_000_000, probe_budget: 20_000_000 }
    }
}

/// A certified improvement over the incumbent: the partition, its
/// transformed loop and a complete exact schedule at the improved II.
#[derive(Debug, Clone)]
pub struct OptimalWitness {
    /// `true` = vector, per source operation.
    pub partition: Vec<bool>,
    /// The transformed loop (covers `vector_length` original iterations).
    pub looop: Loop,
    /// The witnessing schedule; its `ii` is the proved value.
    pub schedule: Schedule,
}

/// Everything one oracle run concluded.
#[derive(Debug, Clone)]
pub struct OptimalReport {
    /// Proved minimum or budget-limited best.
    pub outcome: OptimalOutcome,
    /// Search-tree effort.
    pub stats: SearchStats,
    /// Exact-probe effort actually spent.
    pub probe_spent: u64,
    /// The root lower bound (every partition's II is at least this).
    pub root_lower_bound: u32,
    /// Witness for the best value when it improved on the incumbent;
    /// `None` when the incumbent partition already attains the outcome.
    pub witness: Option<OptimalWitness>,
}

/// Number of modelled resource classes (`ResourceClass::ALL`).
const NC: usize = 9;

/// Number of resource groups the bound aggregates over.
const NG: usize = 13;

/// Resource groups as bitmasks over `ResourceClass::ALL` slots: every
/// singleton class, plus the unions that couple the classes an op's two
/// assignments split across (scalar work lands on int/fp, vector work on
/// the vector unit, and both consume issue-like slots). Any union of
/// classes yields a sound aggregate bound — total demand within the union
/// cannot exceed `II × summed capacity` — and these four are the ones the
/// scalar/vector choice actually trades between.
const GROUPS: [u16; NG] = [
    0b0000_0001, // issue
    0b0000_0010, // int
    0b0000_0100, // fp
    0b0000_1000, // mem
    0b0001_0000, // branch
    0b0010_0000, // vector
    0b0100_0000, // merge
    0b1000_0000, // vissue
    0b1_0000_0000, // select (shared by scalar and vector selects — no union)
    0b0010_0100, // fp + vector
    0b0010_0010, // int + vector
    0b0010_0110, // int + fp + vector
    0b1000_0001, // issue + vissue
];

/// Per-group sums of a per-class cycle vector.
fn group_sums(fp: &[u64; NC]) -> [u64; NG] {
    let mut out = [0u64; NG];
    for (g, &mask) in GROUPS.iter().enumerate() {
        for (slot, &c) in fp.iter().enumerate() {
            if mask & (1 << slot) != 0 {
                out[g] += c;
            }
        }
    }
    out
}

/// Total reserved cycles per resource class for one reservation list.
fn class_cycles(reqs: &[Reservation]) -> [u64; NC] {
    let mut out = [0u64; NC];
    for r in reqs {
        let slot = ResourceClass::ALL
            .iter()
            .position(|&c| c == r.class)
            .expect("every reservation class is in ALL");
        out[slot] += u64::from(r.cycles);
    }
    out
}

/// The search over one loop × machine: the bound's precomputed
/// footprints, the branch order, both budgets and the best witness.
struct Oracle<'a> {
    l: &'a Loop,
    m: &'a MachineConfig,
    /// Summed capacity per resource group.
    group_caps: [u64; NG],
    overhead: [u64; NG],
    /// Movable op indices in branch order (largest footprint spread first).
    order: Vec<usize>,
    /// The incumbent's assignment, used as each node's first child so the
    /// dive reaches the heuristic leaf before anything else.
    guide: Vec<bool>,
    /// The loop's price list; the footprints below are its reservations
    /// summed per resource group.
    prices: &'a Prices,
    /// Scalar-assignment footprint: `k` copies' cycles, per group.
    scalar_fp: Vec<[u64; NG]>,
    /// Vector-assignment footprint (with realignment merge), movable only.
    vector_fp: Vec<Option<[u64; NG]>>,
    /// Transfer footprints for this op's value: `[scalar→vector,
    /// vector→scalar]`, charged once at the producer.
    comm_fp: Vec<[[u64; NG]; 2]>,
    /// The global recurrence bound, computed once — partition-independent.
    rec_lb: u32,
    /// One unit per tree node.
    nodes: Budget,
    /// One unit per residue attempt, shared by every exact probe.
    probe: Budget,
    witness: Option<OptimalWitness>,
}

impl<'a> Oracle<'a> {
    fn new(
        l: &'a Loop,
        m: &'a MachineConfig,
        g: &DepGraph,
        prices: &'a Prices,
        guide: Vec<bool>,
        cfg: &OptimalConfig,
        deadline: Option<Instant>,
    ) -> Oracle<'a> {
        let pool = m.resource_pool();
        let k = u64::from(m.vector_length);
        let caps: [u64; NC] = {
            let mut caps = [0u64; NC];
            for (slot, &c) in ResourceClass::ALL.iter().enumerate() {
                caps[slot] = u64::from(pool.capacity(c));
            }
            caps
        };
        let group_caps = group_sums(&caps);
        let mut overhead_classes = [0u64; NC];
        for reqs in m.loop_overhead() {
            for (t, c) in overhead_classes.iter_mut().zip(class_cycles(&reqs)) {
                *t += c;
            }
        }
        let overhead = group_sums(&overhead_classes);
        let scalar_fp: Vec<[u64; NG]> = prices
            .scalar
            .iter()
            .map(|reqs| group_sums(&class_cycles(reqs).map(|c| c * k)))
            .collect();
        let vector_fp: Vec<Option<[u64; NG]>> = prices
            .vector
            .iter()
            .zip(&prices.movable)
            .map(|(reqs, &mv)| mv.then(|| group_sums(&class_cycles(reqs))))
            .collect();
        let comm_fp = prices
            .comm
            .iter()
            .map(|dirs| dirs.each_ref().map(|reqs| group_sums(&class_cycles(reqs))))
            .collect();
        // Branch order: decide the ops whose two assignments differ most
        // first — they move the bound furthest, so mistakes prune early.
        let mut order: Vec<usize> = (0..l.ops.len()).filter(|&i| prices.movable[i]).collect();
        let spread = |i: usize| -> u64 {
            let v = vector_fp[i].expect("movable op has a vector footprint");
            scalar_fp[i].iter().zip(&v).map(|(&s, &vc)| s.abs_diff(vc)).sum()
        };
        order.sort_by_key(|&i| (std::cmp::Reverse(spread(i)), i));

        Oracle {
            l,
            m,
            prices,
            group_caps,
            overhead,
            order,
            guide,
            scalar_fp,
            vector_fp,
            comm_fp,
            rec_lb: recurrence_bound(l, g, m, m.vector_length),
            nodes: Budget::new(cfg.max_nodes, deadline),
            probe: Budget::new(cfg.probe_budget, deadline),
            witness: None,
        }
    }

    /// Whether one assignment's reservations `reqs` (footprint `fp`) can
    /// fit an II at all, on their own: no single reservation wraps the
    /// reservation table onto itself, and no group needs more than
    /// `II × capacity` cycles.
    fn fits_alone(&self, fp: &[u64; NG], reqs: &[Reservation], ii: u64) -> bool {
        reqs.iter().all(|r| u64::from(r.cycles) <= ii)
            && fp.iter().zip(&self.group_caps).all(|(&c, &cap)| {
                if cap == 0 {
                    c == 0
                } else {
                    c.div_ceil(cap) <= ii
                }
            })
    }

    /// The filtered-choice resource relaxation at one II: `false` means no
    /// completion of `node` can schedule at `ii`.
    fn resources_feasible(&self, node: &[Option<bool>], ii: u64) -> bool {
        let mut totals = self.overhead;
        for i in 0..self.l.ops.len() {
            let defines = self.l.ops[i].defines_value();
            // Transfers already forced by decided producer/consumer pairs
            // are part of the producer's assignment footprint.
            let consumer_decided = |want: bool| {
                defines && self.prices.consumers[i].iter().any(|&c| node[c.index()] == Some(want))
            };
            let scalar = |fp: &mut [u64; NG]| {
                *fp = self.scalar_fp[i];
                if consumer_decided(true) {
                    for (t, c) in fp.iter_mut().zip(&self.comm_fp[i][0]) {
                        *t += c;
                    }
                }
            };
            let vector = |fp: &mut [u64; NG]| -> bool {
                let Some(v) = &self.vector_fp[i] else { return false };
                *fp = *v;
                if consumer_decided(false) {
                    for (t, c) in fp.iter_mut().zip(&self.comm_fp[i][1]) {
                        *t += c;
                    }
                }
                true
            };
            let mut sfp = [0u64; NG];
            let mut vfp = [0u64; NG];
            match node[i] {
                Some(false) => {
                    scalar(&mut sfp);
                    if !self.fits_alone(&sfp, &self.prices.scalar[i], ii) {
                        return false;
                    }
                    for (t, c) in totals.iter_mut().zip(&sfp) {
                        *t += c;
                    }
                }
                Some(true) => {
                    if !vector(&mut vfp) {
                        return false;
                    }
                    if !self.fits_alone(&vfp, &self.prices.vector[i], ii) {
                        return false;
                    }
                    for (t, c) in totals.iter_mut().zip(&vfp) {
                        *t += c;
                    }
                }
                None => {
                    scalar(&mut sfp);
                    let s_ok = self.fits_alone(&sfp, &self.prices.scalar[i], ii);
                    let v_ok = vector(&mut vfp)
                        && self.fits_alone(&vfp, &self.prices.vector[i], ii);
                    match (s_ok, v_ok) {
                        (false, false) => return false,
                        (true, false) => {
                            for (t, c) in totals.iter_mut().zip(&sfp) {
                                *t += c;
                            }
                        }
                        (false, true) => {
                            for (t, c) in totals.iter_mut().zip(&vfp) {
                                *t += c;
                            }
                        }
                        (true, true) => {
                            for ((t, s), v) in totals.iter_mut().zip(&sfp).zip(&vfp) {
                                *t += (*s).min(*v);
                            }
                        }
                    }
                }
            }
        }
        totals.iter().zip(&self.group_caps).all(|(&t, &cap)| {
            if cap == 0 {
                t == 0
            } else {
                t.div_ceil(cap) <= ii
            }
        })
    }

    /// Smallest II the resource relaxation admits (monotone in II, so a
    /// binary search is exact).
    fn resource_lb(&self, node: &[Option<bool>]) -> u32 {
        const CEILING: u64 = 1 << 20;
        let mut hi = 1u64;
        while !self.resources_feasible(node, hi) {
            hi *= 2;
            if hi > CEILING {
                return u32::MAX;
            }
        }
        let mut lo = 1u64;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.resources_feasible(node, mid) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo as u32
    }

    /// A sound lower bound on every completion of `node`.
    fn lower_bound(&self, node: &[Option<bool>]) -> u32 {
        self.rec_lb.max(self.resource_lb(node)).max(1)
    }

    /// Depth-first branch and bound from `root` against a witnessed
    /// upper bound `incumbent`: returns the best II found and the effort
    /// spent. A node whose bound reaches the best so far is pruned. The
    /// search stops early when either budget refuses a unit; the caller
    /// reads their [`Budget::stop`] for the verdict.
    fn run(&mut self, root: Vec<Option<bool>>, incumbent: u32) -> (u32, SearchStats) {
        let mut stats = SearchStats::default();
        let mut best = incumbent;
        let mut stack = vec![root];
        while let Some(node) = stack.pop() {
            if !self.nodes.step() {
                break;
            }
            stats.nodes += 1;
            if self.lower_bound(&node) >= best {
                stats.pruned += 1;
                continue;
            }
            // Branch on the first undecided op in branch order, diving
            // toward the incumbent's assignment first: the heuristic
            // leaf is evaluated before anything else, so the incumbent
            // tightens (or is confirmed) as early as possible.
            if let Some(&i) = self.order.iter().find(|&&i| node[i].is_none()) {
                let mut first = node.clone();
                let mut second = node;
                first[i] = Some(self.guide[i]);
                second[i] = Some(!self.guide[i]);
                stack.push(second);
                stack.push(first);
                continue;
            }
            stats.leaves += 1;
            if let Some(ii) = self.evaluate_leaf(&node, best) {
                best = ii;
                stats.improved += 1;
            }
            if self.probe.stop() == Some(Stop::Expired) {
                break;
            }
        }
        (best, stats)
    }

    /// Exactly evaluate a complete assignment: the first II below
    /// `incumbent` the exact probe finds feasible, with its witness
    /// recorded, or `None` when no II below it is. A probe that runs out
    /// of units decides nothing and also yields `None`; the probe
    /// budget's stop records it.
    fn evaluate_leaf(&mut self, node: &[Option<bool>], incumbent: u32) -> Option<u32> {
        let part: Vec<bool> = node.iter().map(|d| d.unwrap_or(false)).collect();
        // A partition the transformer rejects is not deliverable; it
        // cannot witness a minimum.
        let t = try_transform(self.l, self.m, &part).ok()?;
        let g = DepGraph::build(&t.looop);
        let mii = compute_mii(&t.looop, &g, self.m);
        // Feasibility is not monotone in II: probe each candidate in
        // ascending order and take the first feasible one.
        for ii in mii..incumbent {
            match exact_schedule(&t.looop, &g, self.m, ii, &mut self.probe) {
                ExactOutcome::Feasible(s) => {
                    self.witness = Some(OptimalWitness {
                        partition: part,
                        looop: t.looop,
                        schedule: *s,
                    });
                    return Some(ii);
                }
                ExactOutcome::Infeasible => {}
                ExactOutcome::Budget => return None,
            }
        }
        None
    }
}

/// Run the oracle for `l` on `m`, starting from a witnessed incumbent (the
/// heuristic's partition and the kernel II the driver actually scheduled
/// for it). Returns the certified outcome; when the best value improves on
/// `incumbent_ii` the report carries a full witness.
///
/// `incumbent_partition` must assign `true` only to legally movable ops —
/// any partition the KL partitioner produces qualifies.
pub fn optimal_search(
    l: &Loop,
    m: &MachineConfig,
    incumbent_partition: &[bool],
    incumbent_ii: u32,
    cfg: &OptimalConfig,
) -> OptimalReport {
    let g = DepGraph::build(l);
    let prices = Prices::new(l, &g, m);
    search(l, m, &g, &prices, (incumbent_partition, incumbent_ii), cfg, None)
        .expect("without a deadline the search always reaches a verdict")
}

/// [`optimal_search`] over the dependence graph and price list the caller
/// already built (the compile driver's partition step), stopping once
/// `deadline` passes. `None` when it did: the search reached no verdict.
pub(crate) fn search(
    l: &Loop,
    m: &MachineConfig,
    g: &DepGraph,
    prices: &Prices,
    (incumbent_partition, incumbent_ii): (&[bool], u32),
    cfg: &OptimalConfig,
    deadline: Option<Instant>,
) -> Option<OptimalReport> {
    let movable = &prices.movable;
    let guide: Vec<bool> = incumbent_partition
        .iter()
        .zip(movable)
        .map(|(&p, &mv)| p && mv)
        .collect();
    let mut oracle = Oracle::new(l, m, g, prices, guide, cfg, deadline);
    let root: Vec<Option<bool>> = movable
        .iter()
        .map(|&mv| if mv { None } else { Some(false) })
        .collect();
    let root_lower_bound = oracle.lower_bound(&root);
    let (best, stats) = oracle.run(root, incumbent_ii);
    let stops = [oracle.nodes.stop(), oracle.probe.stop()];
    if stops.contains(&Some(Stop::Expired)) {
        return None;
    }
    let outcome = if stops == [None, None] {
        OptimalOutcome::Proved(best)
    } else {
        OptimalOutcome::BudgetExhausted { best_found: best }
    };
    Some(OptimalReport {
        outcome,
        stats,
        probe_spent: oracle.probe.spent(),
        root_lower_bound,
        witness: oracle.witness,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{partition_ops, SelectiveConfig};
    use crate::{compile, Strategy};
    use sv_ir::{LoopBuilder, ScalarType};

    fn figure1_dot() -> Loop {
        let mut b = LoopBuilder::new("dot");
        b.trip(1000);
        let x = b.array("x", ScalarType::F64, 1024);
        let y = b.array("y", ScalarType::F64, 1024);
        let lx = b.load(x, 1, 0);
        let ly = b.load(y, 1, 0);
        let mu = b.fmul(lx, ly);
        b.reduce_add(mu);
        b.finish()
    }

    fn incumbent(l: &Loop, m: &MachineConfig) -> (Vec<bool>, u32) {
        let c = compile(l, m, Strategy::Selective).unwrap();
        let ii = c.segments[0].schedule.ii;
        let g = DepGraph::build(l);
        let p = partition_ops(l, &g, m, &SelectiveConfig::default());
        (p.partition, ii)
    }

    #[test]
    fn proves_figure1_selective_is_optimal() {
        let l = figure1_dot();
        let m = MachineConfig::figure1();
        let (part, ii) = incumbent(&l, &m);
        assert_eq!(ii, 2); // II 1.0 per original iteration at k = 2.
        let r = optimal_search(&l, &m, &part, ii, &OptimalConfig::default());
        assert_eq!(r.outcome, OptimalOutcome::Proved(2));
        assert!(r.witness.is_none(), "the heuristic already attains the optimum");
        assert!(r.root_lower_bound <= 2);
    }

    #[test]
    fn proves_on_the_paper_machine() {
        let l = figure1_dot();
        let m = MachineConfig::paper_default();
        let (part, ii) = incumbent(&l, &m);
        let r = optimal_search(&l, &m, &part, ii, &OptimalConfig::default());
        let OptimalOutcome::Proved(best) = r.outcome else { panic!("{:?}", r.outcome) };
        assert!(best <= ii && best >= r.root_lower_bound);
    }

    #[test]
    fn witness_schedule_matches_the_proved_ii() {
        // Loose incumbent: the oracle must beat it and hand back a witness
        // whose schedule II equals the proved value.
        let l = figure1_dot();
        let m = MachineConfig::figure1();
        let (part, ii) = incumbent(&l, &m);
        let r = optimal_search(&l, &m, &part, ii + 3, &OptimalConfig::default());
        assert_eq!(r.outcome, OptimalOutcome::Proved(2));
        let w = r.witness.expect("improved on the loose incumbent");
        assert_eq!(w.schedule.ii, 2);
        assert_eq!(w.partition.len(), l.ops.len());
        // The witness schedule is structurally valid for its loop.
        let g = DepGraph::build(&w.looop);
        sv_modsched::validate_schedule(&w.looop, &g, &m, &w.schedule).unwrap();
    }

    #[test]
    fn tiny_node_budget_degrades() {
        // A loose incumbent keeps the root from pruning; one node is then
        // never enough to close a tree with movable ops.
        let l = figure1_dot();
        let m = MachineConfig::paper_default();
        let (part, ii) = incumbent(&l, &m);
        let cfg = OptimalConfig { max_nodes: 1, probe_budget: 0 };
        let r = optimal_search(&l, &m, &part, ii + 10, &cfg);
        assert_eq!(r.outcome, OptimalOutcome::BudgetExhausted { best_found: ii + 10 });
    }

    #[test]
    fn undecided_leaf_poisons_the_proof() {
        // Ample nodes, but no probe units: the first leaf's exact probe
        // decides nothing, so the closed tree proves nothing either.
        let l = figure1_dot();
        let m = MachineConfig::paper_default();
        let (part, ii) = incumbent(&l, &m);
        let cfg = OptimalConfig { max_nodes: 1_000_000, probe_budget: 0 };
        let r = optimal_search(&l, &m, &part, ii + 10, &cfg);
        assert_eq!(r.outcome, OptimalOutcome::BudgetExhausted { best_found: ii + 10 });
        assert!(r.stats.leaves >= 1);
        assert_eq!((r.probe_spent, r.stats.improved), (0, 0));
        assert!(r.witness.is_none());
    }

    #[test]
    fn root_is_pruned_at_the_incumbent() {
        // An incumbent already at the root bound closes the proof with
        // one pruned node and no leaf.
        let l = figure1_dot();
        let m = MachineConfig::paper_default();
        let (part, ii) = incumbent(&l, &m);
        let lb = optimal_search(&l, &m, &part, ii, &OptimalConfig::default()).root_lower_bound;
        let r = optimal_search(&l, &m, &part, lb, &OptimalConfig::default());
        assert_eq!(r.outcome, OptimalOutcome::Proved(lb));
        assert_eq!(r.stats, SearchStats { nodes: 1, pruned: 1, leaves: 0, improved: 0 });
    }

    #[test]
    fn passed_deadline_stops_with_no_verdict() {
        let l = figure1_dot();
        let m = MachineConfig::paper_default();
        let (part, ii) = incumbent(&l, &m);
        let g = DepGraph::build(&l);
        let prices = Prices::new(&l, &g, &m);
        let cfg = OptimalConfig::default();
        let late = Some(Instant::now());
        assert!(search(&l, &m, &g, &prices, (&part, ii + 10), &cfg, late).is_none());
        let far = Some(Instant::now() + std::time::Duration::from_secs(3600));
        let r = search(&l, &m, &g, &prices, (&part, ii + 10), &cfg, far).expect("in time");
        assert_eq!(r.outcome, optimal_search(&l, &m, &part, ii + 10, &cfg).outcome);
    }

    #[test]
    fn all_ops_pinned_is_a_single_exact_probe() {
        // A loop with nothing movable: the tree is one leaf; the oracle
        // still certifies the scalar loop's exact minimum.
        let mut b = LoopBuilder::new("seq");
        let x = b.array("x", ScalarType::F64, 64);
        let lx = b.load(x, 1, 0);
        let a = b.fadd(lx, lx);
        b.store(x, 1, 1, a); // distance-1 carried cycle pins everything
        let l = b.finish();
        let m = MachineConfig::paper_default();
        let (part, ii) = incumbent(&l, &m);
        let r = optimal_search(&l, &m, &part, ii, &OptimalConfig::default());
        let OptimalOutcome::Proved(best) = r.outcome else { panic!("{:?}", r.outcome) };
        assert!(best <= ii);
    }
}
