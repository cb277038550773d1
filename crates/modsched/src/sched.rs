//! Rau's iterative modulo scheduling.

use crate::mii::{check_units, compute_recmii, compute_resmii, edge_delay};
use crate::pressure::{max_live, mve_factor};
use sv_analysis::DepGraph;
use sv_ir::{Loop, RegClass};
use sv_machine::{MachineConfig, ResourceClass, ResourceInstance};
use std::fmt;

/// Budget of scheduling steps per operation before giving up on an II
/// (Rau recommends a small multiple of the operation count).
const BUDGET_RATIO: usize = 16;

/// How far past MII the scheduler escalates before failing.
const MAX_II_SLACK: u32 = 256;

/// Deterministic work budgets for the scheduler's II search, exposed so a
/// driver can bound compile time per loop (and degrade to a cheaper
/// strategy on exhaustion) instead of inheriting the generous built-in
/// limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleConfig {
    /// Scheduling steps per operation before one II attempt is abandoned.
    pub budget_ratio: usize,
    /// How far past MII the II search escalates before failing with
    /// [`ScheduleError::BudgetExhausted`].
    pub max_ii_slack: u32,
}

impl Default for ScheduleConfig {
    fn default() -> ScheduleConfig {
        ScheduleConfig { budget_ratio: BUDGET_RATIO, max_ii_slack: MAX_II_SLACK }
    }
}

/// A modulo schedule for one loop.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Achieved initiation interval.
    pub ii: u32,
    /// Resource-constrained bound that was computed for the loop.
    pub resmii: u32,
    /// Recurrence-constrained bound.
    pub recmii: u32,
    /// Flat issue cycle of each operation (index = op id).
    pub times: Vec<u32>,
    /// Resource instances each operation occupies, with reservation length;
    /// the occupied MRT rows are `(times[op] + j) mod ii` for
    /// `j < cycles`.
    pub assignments: Vec<Vec<(ResourceInstance, u32)>>,
    /// Schedule length: `max(times) + 1`.
    pub length: u32,
    /// Number of pipeline stages: `⌊max(times)/ii⌋ + 1`.
    pub stage_count: u32,
    /// MaxLive register-pressure estimate per register class, in
    /// [`RegClass::ALL`] order.
    pub max_live: [u32; 4],
    /// Kernel copies modulo variable expansion would need on a machine
    /// without rotating registers (`max ⌈lifetime/II⌉`); 1 means the
    /// kernel needs no unrolling.
    pub mve_factor: u32,
    /// Whether the pressure estimate fits the machine's register files.
    pub register_pressure_ok: bool,
    /// Every II value the search attempted (in order, successful last) —
    /// the search-effort counter surfaced by the driver's `PassStats`.
    pub iis_tried: Vec<u32>,
}

impl Schedule {
    /// A schedule from a feasible placement at `ii`, with the derived
    /// fields both schedulers (iterative and exact) report: the loop's
    /// ResMII and RecMII (computed once by the caller), length, stage
    /// count, MaxLive, the MVE factor and the register-pressure verdict.
    pub(crate) fn finish(
        l: &Loop,
        g: &DepGraph,
        m: &MachineConfig,
        (resmii, recmii): (u32, u32),
        ii: u32,
        (times, assignments): (Vec<u32>, Assignments),
        iis_tried: Vec<u32>,
    ) -> Schedule {
        let length = times.iter().copied().max().unwrap_or(0) + 1;
        let stage_count = (length - 1) / ii + 1;
        let max_live = max_live(l, g, m, &times, ii);
        let mve_factor = mve_factor(l, g, m, &times, ii);
        let register_pressure_ok = RegClass::ALL
            .iter()
            .enumerate()
            .all(|(i, &c)| max_live[i] <= m.regs.size(c))
            // One rotating stage predicate per pipeline stage (the
            // kernel-only code schema the paper's machine supports).
            && stage_count <= m.regs.predicates;
        Schedule {
            ii,
            resmii,
            recmii,
            times,
            assignments,
            length,
            stage_count,
            max_live,
            mve_factor,
            register_pressure_ok,
            iis_tried,
        }
    }

    /// II per *original* iteration: `ii / iter_scale` of the scheduled loop.
    pub fn ii_per_original(&self, iter_scale: u32) -> f64 {
        f64::from(self.ii) / f64::from(iter_scale)
    }
}

/// Scheduling failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// No schedule found up to `mii + MAX_II_SLACK`; pathological input.
    BudgetExhausted {
        /// The minimum II that was computed.
        mii: u32,
        /// The last II attempted.
        tried_up_to: u32,
    },
    /// The machine has no unit of a class the loop needs, so no II
    /// admits a schedule (see [`check_units`]).
    NoUnits {
        /// The missing class.
        class: ResourceClass,
        /// What needs it: an opcode, or the loop control overhead.
        needed_by: String,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::BudgetExhausted { mii, tried_up_to } => write!(
                f,
                "no modulo schedule found between II={mii} and II={tried_up_to}"
            ),
            ScheduleError::NoUnits { class, needed_by } => {
                write!(f, "the machine has no {class} unit, which {needed_by} needs")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

/// Modulo-schedule `l` for machine `m` using dependence graph `g`.
///
/// Escalates the II from MII until a schedule fits, then retries a few
/// extra IIs if the MaxLive estimate exceeds a register file (the paper's
/// machine has deep files, so this is rare); if pressure still does not
/// fit, the schedule is returned with
/// [`Schedule::register_pressure_ok`] `== false`.
///
/// # Errors
///
/// Returns [`ScheduleError::BudgetExhausted`] when no II within the slack
/// window admits a schedule, which does not happen for structurally valid
/// loops on machines that can execute every opcode.
pub fn modulo_schedule(
    l: &Loop,
    g: &DepGraph,
    m: &MachineConfig,
) -> Result<Schedule, ScheduleError> {
    modulo_schedule_with(l, g, m, &ScheduleConfig::default())
}

/// [`modulo_schedule`] under explicit [`ScheduleConfig`] work budgets.
///
/// # Errors
///
/// Returns [`ScheduleError::NoUnits`] when the machine lacks a class the
/// loop needs, and [`ScheduleError::BudgetExhausted`] when no II within
/// `mii + cfg.max_ii_slack` admits a schedule under `cfg.budget_ratio`
/// steps per operation.
pub fn modulo_schedule_with(
    l: &Loop,
    g: &DepGraph,
    m: &MachineConfig,
    cfg: &ScheduleConfig,
) -> Result<Schedule, ScheduleError> {
    check_units(l, m)?;
    // ResMII and RecMII once per call: they seed the II search here and
    // are reported on whichever schedule is returned.
    let (resmii, recmii) = (compute_resmii(l, m), compute_recmii(l, g, m));
    let mii = resmii.max(recmii).max(1);
    let mut first_fit: Option<Schedule> = None;
    let mut pressure_retries = 0u32;
    let mut iis_tried: Vec<u32> = Vec::new();

    for ii in mii..=mii.saturating_add(cfg.max_ii_slack) {
        iis_tried.push(ii);
        let Some(placement) = try_ii(l, g, m, ii, cfg.budget_ratio) else {
            continue;
        };
        let sched = Schedule::finish(l, g, m, (resmii, recmii), ii, placement, iis_tried.clone());
        if sched.register_pressure_ok {
            return Ok(sched);
        }
        if first_fit.is_none() {
            first_fit = Some(sched);
        }
        pressure_retries += 1;
        if pressure_retries > 4 {
            break;
        }
    }
    first_fit
        .map(|mut s| {
            s.iis_tried = iis_tried;
            s
        })
        .ok_or(ScheduleError::BudgetExhausted {
            mii,
            tried_up_to: mii.saturating_add(cfg.max_ii_slack),
        })
}

/// Cell occupancy in the modulo reservation table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cell {
    Free,
    /// Loop-control overhead; never evicted.
    Overhead,
    /// Occupied by op index.
    Op(u32),
}

struct Mrt {
    ii: usize,
    width: usize,
    cells: Vec<Cell>, // row-major [row][instance]
}

impl Mrt {
    fn new(ii: u32, width: usize) -> Mrt {
        Mrt {
            ii: ii as usize,
            width,
            cells: vec![Cell::Free; ii as usize * width],
        }
    }

    #[inline]
    fn at(&self, row: usize, inst: usize) -> Cell {
        self.cells[row * self.width + inst]
    }

    #[inline]
    fn set(&mut self, row: usize, inst: usize, c: Cell) {
        self.cells[row * self.width + inst] = c;
    }

    /// Is `inst` free at rows `(t + j) mod ii` for `j < cycles`?
    fn inst_free(&self, inst: usize, t: u32, cycles: u32) -> bool {
        if cycles as usize > self.ii {
            return false;
        }
        (0..cycles).all(|j| {
            self.at(((t + j) as usize) % self.ii, inst) == Cell::Free
        })
    }

    fn occupy(&mut self, inst: usize, t: u32, cycles: u32, c: Cell) {
        for j in 0..cycles {
            self.set(((t + j) as usize) % self.ii, inst, c);
        }
    }
}

pub(crate) type Assignments = Vec<Vec<(ResourceInstance, u32)>>;

fn try_ii(
    l: &Loop,
    g: &DepGraph,
    m: &MachineConfig,
    ii: u32,
    budget_ratio: usize,
) -> Option<(Vec<u32>, Assignments)> {
    let n = l.ops.len();
    let pool = m.resource_pool();
    let mut mrt = Mrt::new(ii, pool.len());

    // Pre-reserve loop-control overhead: the back branch in the kernel's
    // last row, the induction update in row 0.
    let overhead = m.loop_overhead();
    for (idx, reqs) in overhead.iter().enumerate() {
        let row = if idx == 0 { ii - 1 } else { 0 };
        for r in reqs {
            let inst = pool
                .alternatives(r.class)
                .iter()
                .find(|i| mrt.inst_free(pool.dense_id(**i), row, r.cycles))?;
            mrt.occupy(pool.dense_id(*inst), row, r.cycles, Cell::Overhead);
        }
    }

    let heights = compute_heights(l, g, m, ii);
    // Operations on dependence cycles have no scheduling slack to spare:
    // placing them after resource-hungry independent ops wedges the MRT and
    // causes displacement thrashing. Schedule recurrence members first
    // (Lam's SCC-first ordering), then the rest by height.
    let sccs = sv_analysis::strongly_connected_components(g);
    let on_cycle: Vec<bool> = (0..n)
        .map(|i| sccs.in_cycle(sv_ir::OpId(i as u32), g))
        .collect();
    let mut sched: Vec<Option<u32>> = vec![None; n];
    let mut prev: Vec<Option<u32>> = vec![None; n];
    let mut assignments: Assignments = vec![Vec::new(); n];
    let mut budget = budget_ratio * n.max(4);

    while let Some(op) = (0..n)
        .filter(|&i| sched[i].is_none())
        .max_by_key(|&i| (on_cycle[i], heights[i], std::cmp::Reverse(i)))
    {
        // `op` is the highest-priority unscheduled op: recurrence members
        // first, then height, then earlier program order.
        if budget == 0 {
            return None;
        }
        budget -= 1;

        // Earliest start from scheduled predecessors.
        let mut estart = 0i64;
        for e in g.pred_edges(sv_ir::OpId(op as u32)) {
            if e.src.index() == op {
                continue; // self cycles are honored by II >= RecMII
            }
            if let Some(ts) = sched[e.src.index()] {
                let lb = i64::from(ts) + edge_delay(e, l, m)
                    - i64::from(ii) * i64::from(e.distance);
                estart = estart.max(lb);
            }
        }
        let estart = u32::try_from(estart.max(0)).expect("estart fits u32");

        // Latest start honoring already-scheduled successors (the slack
        // bound). Searching past it can never produce a valid schedule for
        // an op on a recurrence — it would only displace the successor one
        // stage later, forever. When the window closes we *force* a
        // placement and evict, which attacks the resource conflict instead.
        let mut lstart = i64::from(estart) + i64::from(ii) - 1;
        for e in g.succ_edges(sv_ir::OpId(op as u32)) {
            if e.dst.index() == op {
                continue;
            }
            if let Some(td) = sched[e.dst.index()] {
                let ub = i64::from(td) + i64::from(ii) * i64::from(e.distance)
                    - edge_delay(e, l, m);
                lstart = lstart.min(ub);
            }
        }

        let reqs = m.requirements(l.ops[op].opcode);
        let slot = if lstart >= i64::from(estart) {
            (estart..=u32::try_from(lstart).expect("lstart fits u32"))
                .find(|&t| fits(&mrt, &pool, &reqs, t))
        } else {
            None
        };
        let t = match slot {
            Some(t) => t,
            None => match prev[op] {
                Some(p) => estart.max(p + 1),
                None => estart,
            },
        };

        // Evict whatever resource conflicts remain at t (no-ops when the
        // slot search succeeded).
        let mut placement = Vec::with_capacity(reqs.len());
        for r in &reqs {
            let alts = pool.alternatives(r.class);
            debug_assert!(!alts.is_empty());
            // Prefer a free instance; otherwise evict from the instance
            // with the fewest occupying ops (sentinels block).
            let chosen = alts
                .iter()
                .map(|i| pool.dense_id(*i))
                .find(|&i| mrt.inst_free(i, t, r.cycles))
                .or_else(|| {
                    alts.iter()
                        .map(|i| pool.dense_id(*i))
                        .filter(|&i| {
                            (0..r.cycles).all(|j| {
                                mrt.at(((t + j) as usize) % mrt.ii, i) != Cell::Overhead
                            })
                        })
                        .min_by_key(|&i| {
                            (0..r.cycles)
                                .filter(|&j| {
                                    matches!(
                                        mrt.at(((t + j) as usize) % mrt.ii, i),
                                        Cell::Op(_)
                                    )
                                })
                                .count()
                        })
                })?;
            // Evict occupants (an op reserving several consecutive rows,
            // e.g. a non-pipelined divide, appears once per row — dedup).
            let mut evicted = Vec::new();
            for j in 0..r.cycles {
                if let Cell::Op(v) = mrt.at(((t + j) as usize) % mrt.ii, chosen) {
                    if !evicted.contains(&(v as usize)) {
                        evicted.push(v as usize);
                    }
                }
            }
            for v in evicted {
                unschedule(v, &mut sched, &mut prev, &mut assignments, &mut mrt, &pool);
            }
            mrt.occupy(chosen, t, r.cycles, Cell::Op(op as u32));
            placement.push((pool.instances()[chosen], r.cycles));
        }
        sched[op] = Some(t);
        prev[op] = Some(t);
        assignments[op] = placement;

        // Displace scheduled successors whose dependence is now violated.
        let succ_fixups: Vec<usize> = g
            .succ_edges(sv_ir::OpId(op as u32))
            .filter(|e| e.dst.index() != op)
            .filter_map(|e| {
                let td = sched[e.dst.index()]?;
                let need = i64::from(t) + edge_delay(e, l, m)
                    - i64::from(ii) * i64::from(e.distance);
                (i64::from(td) < need).then_some(e.dst.index())
            })
            .collect();
        for v in succ_fixups {
            if sched[v].is_some() {
                unschedule(v, &mut sched, &mut prev, &mut assignments, &mut mrt, &pool);
            }
        }
    }

    let times: Vec<u32> = sched.into_iter().map(|t| t.expect("all scheduled")).collect();
    Some((times, assignments))
}

fn fits(mrt: &Mrt, pool: &sv_machine::ResourcePool, reqs: &[sv_machine::Reservation], t: u32) -> bool {
    // Check each reservation greedily; reservations of one op are for
    // distinct classes, so independent checks suffice.
    reqs.iter().all(|r| {
        pool.alternatives(r.class)
            .iter()
            .any(|i| mrt.inst_free(pool.dense_id(*i), t, r.cycles))
    })
}

fn unschedule(
    op: usize,
    sched: &mut [Option<u32>],
    prev: &mut [Option<u32>],
    assignments: &mut Assignments,
    mrt: &mut Mrt,
    pool: &sv_machine::ResourcePool,
) {
    let t = sched[op].expect("unscheduling an unscheduled op");
    for (inst, cycles) in assignments[op].drain(..) {
        let id = pool.dense_id(inst);
        for j in 0..cycles {
            debug_assert_eq!(mrt.at(((t + j) as usize) % mrt.ii, id), Cell::Op(op as u32));
            mrt.set(((t + j) as usize) % mrt.ii, id, Cell::Free);
        }
    }
    sched[op] = None;
    prev[op] = Some(t);
}

/// Height-based priority: the longest `delay − II·distance` path from each
/// op to any sink, computed by relaxation (no positive cycles exist at
/// II ≥ RecMII, so this converges). Shared with the exact feasibility
/// probe in [`crate::exact`], which orders its search the same way.
pub(crate) fn compute_heights(l: &Loop, g: &DepGraph, m: &MachineConfig, ii: u32) -> Vec<i64> {
    let n = l.ops.len();
    let mut h = vec![0i64; n];
    for _ in 0..=n {
        let mut changed = false;
        for e in g.edges() {
            if e.src == e.dst {
                continue;
            }
            let w = edge_delay(e, l, m) - i64::from(ii) * i64::from(e.distance);
            let cand = h[e.dst.index()] + w;
            if cand > h[e.src.index()] {
                h[e.src.index()] = cand;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use sv_ir::{LoopBuilder, ScalarType};

    fn sched(l: &Loop, m: &MachineConfig) -> Schedule {
        let g = DepGraph::build(l);
        modulo_schedule(l, &g, m).expect("schedulable")
    }

    /// Every dependence must hold: σ(dst) + II·d ≥ σ(src) + delay.
    fn assert_valid(l: &Loop, m: &MachineConfig, s: &Schedule) {
        let g = DepGraph::build(l);
        for e in g.edges() {
            if e.src == e.dst {
                continue;
            }
            let lhs = i64::from(s.times[e.dst.index()])
                + i64::from(s.ii) * i64::from(e.distance);
            let rhs = i64::from(s.times[e.src.index()]) + edge_delay(e, l, m);
            assert!(lhs >= rhs, "violated {e:?} in {}", l.name);
        }
        // Resource usage per modulo row never exceeds capacity.
        let pool = m.resource_pool();
        let mut usage = vec![vec![0u32; pool.len()]; s.ii as usize];
        for (op, placement) in s.assignments.iter().enumerate() {
            for (inst, cycles) in placement {
                for j in 0..*cycles {
                    let row = ((s.times[op] + j) % s.ii) as usize;
                    usage[row][pool.dense_id(*inst)] += 1;
                }
            }
        }
        for row in &usage {
            for (i, &u) in row.iter().enumerate() {
                assert!(u <= 1, "instance {i} multiply reserved");
            }
        }
    }

    #[test]
    fn copy_loop_achieves_ii_one() {
        let mut b = LoopBuilder::new("copy");
        let x = b.array("x", ScalarType::F64, 64);
        let y = b.array("y", ScalarType::F64, 64);
        let lx = b.load(x, 1, 0);
        b.store(y, 1, 0, lx);
        let l = b.finish();
        let m = MachineConfig::paper_default();
        let s = sched(&l, &m);
        assert_eq!(s.ii, 1);
        assert_valid(&l, &m, &s);
        // Load latency 3 ⇒ the store sits ≥ 3 cycles later ⇒ ≥ 4 stages.
        assert!(s.stage_count >= 4, "stage_count = {}", s.stage_count);
    }

    #[test]
    fn reduction_loop_hits_recmii() {
        let mut b = LoopBuilder::new("red");
        let x = b.array("x", ScalarType::F64, 64);
        let lx = b.load(x, 1, 0);
        b.reduce_add(lx);
        let l = b.finish();
        let m = MachineConfig::paper_default();
        let s = sched(&l, &m);
        assert_eq!(s.ii, 4);
        assert_eq!(s.recmii, 4);
        assert_valid(&l, &m, &s);
    }

    #[test]
    fn mem_bound_loop_hits_resmii() {
        let mut b = LoopBuilder::new("mem");
        let x = b.array("x", ScalarType::F64, 256);
        let y = b.array("y", ScalarType::F64, 256);
        let mut acc = Vec::new();
        for o in 0..5 {
            acc.push(b.load(x, 1, o));
        }
        let mut s = acc[0];
        for &a in &acc[1..] {
            s = b.fadd(s, a);
        }
        b.store(y, 1, 0, s);
        let l = b.finish();
        let m = MachineConfig::paper_default();
        let sc = sched(&l, &m);
        assert_eq!(sc.resmii, 3); // 6 mem ops / 2 units
        assert_eq!(sc.ii, 3);
        assert_valid(&l, &m, &sc);
    }

    #[test]
    fn divide_loop_respects_non_pipelined_unit() {
        let mut b = LoopBuilder::new("div");
        let x = b.array("x", ScalarType::F64, 64);
        let y = b.array("y", ScalarType::F64, 64);
        let lx = b.load(x, 1, 0);
        let ly = b.load(y, 1, 0);
        let d = b.fdiv(lx, ly);
        b.store(y, 1, 0, d);
        let l = b.finish();
        let m = MachineConfig::paper_default();
        let s = sched(&l, &m);
        // One divide occupying an FP unit 32 cycles, 2 FP units ⇒ ResMII 32
        // (bin packing puts the 32-cycle reservation on one unit).
        assert_eq!(s.resmii, 32);
        assert_valid(&l, &m, &s);
    }

    #[test]
    fn figure1_baseline_modulo_schedule() {
        // The paper's Figure 1(c): dot product, 3 slots, unit latency,
        // II = 2 (4 ops / 3 slots, reduction cycle gives RecMII 1).
        let mut b = LoopBuilder::new("dot");
        let x = b.array("x", ScalarType::F64, 64);
        let y = b.array("y", ScalarType::F64, 64);
        let lx = b.load(x, 1, 0);
        let ly = b.load(y, 1, 0);
        let mu = b.fmul(lx, ly);
        b.reduce_add(mu);
        let l = b.finish();
        let m = MachineConfig::figure1();
        let s = sched(&l, &m);
        assert_eq!(s.resmii, 2);
        assert_eq!(s.ii, 2);
        assert_valid(&l, &m, &s);
    }

    #[test]
    fn memory_recurrence_schedules_at_recmii() {
        let mut b = LoopBuilder::new("rec");
        let a = b.array("a", ScalarType::F64, 64);
        let la = b.load(a, 1, 0);
        let n = b.fneg(la);
        b.store(a, 1, 2, n);
        let l = b.finish();
        let m = MachineConfig::paper_default();
        let s = sched(&l, &m);
        assert_eq!(s.ii, 4);
        assert_valid(&l, &m, &s);
    }

    #[test]
    fn big_loop_schedules_and_validates() {
        let mut b = LoopBuilder::new("big");
        let x = b.array("x", ScalarType::F64, 4096);
        let y = b.array("y", ScalarType::F64, 4096);
        let z = b.array("z", ScalarType::F64, 4096);
        let mut vals = Vec::new();
        for o in 0..6 {
            let lx = b.load(x, 1, o);
            let ly = b.load(y, 1, o);
            let m1 = b.fmul(lx, ly);
            let a1 = b.fadd(m1, lx);
            vals.push(a1);
        }
        for (o, v) in vals.iter().enumerate() {
            b.store(z, 1, o as i64, *v);
        }
        let l = b.finish();
        let m = MachineConfig::paper_default();
        let s = sched(&l, &m);
        assert_valid(&l, &m, &s);
        assert_eq!(s.ii, 9); // 18 mem ops on 2 units
    }

    #[test]
    fn ii_per_original_scales() {
        let mut b = LoopBuilder::new("copy");
        let x = b.array("x", ScalarType::F64, 64);
        let y = b.array("y", ScalarType::F64, 64);
        let lx = b.load(x, 1, 0);
        b.store(y, 1, 0, lx);
        let l = b.finish();
        let m = MachineConfig::paper_default();
        let s = sched(&l, &m);
        assert_eq!(s.ii_per_original(2), 0.5);
    }
}
