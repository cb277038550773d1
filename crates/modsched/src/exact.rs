//! Exact modulo-schedule feasibility: a complete decision procedure for
//! "does loop `l` admit a modulo schedule at initiation interval `ii` on
//! machine `m`?" — the primitive under the optimal-II oracle.
//!
//! The search exploits the classic decomposition of a modulo schedule into
//! *residues* and *stages*: an issue time `t = s·II + r` with `r ∈ [0, II)`.
//! Resource legality depends only on the residues (the modulo reservation
//! table repeats every II cycles), while dependence legality, with residues
//! fixed, reduces to integer difference constraints on the stages
//! `s_v − s_u ≥ ⌈(delay − II·dist − (r_v − r_u)) / II⌉`, decidable by
//! positive-cycle detection. The DFS therefore enumerates residues (plus
//! explicit unit choices only for classes that carry multi-cycle
//! reservations, e.g. a non-pipelined divide), prunes partial assignments
//! whose constraint subgraph already contains a positive cycle, and on
//! success recovers concrete times by a longest-path stage solve. Unit
//! symmetry is broken by trying only one instance per distinct occupancy
//! pattern, which keeps the procedure complete.
//!
//! Feasibility here is *structural* — dependences and resources under the
//! emitter's loop-overhead convention (back branch pinned to the kernel's
//! last row, induction update to row 0), exactly what [`crate::sched`]
//! enforces. Register pressure is reported on the returned [`Schedule`] but
//! never gates feasibility, mirroring the driver, which accepts
//! over-pressure schedules rather than failing compilation.

use crate::mii::{compute_recmii, compute_resmii, edge_delay};
use crate::sched::{compute_heights, Assignments, Schedule};
use std::time::Instant;
use sv_analysis::{strongly_connected_components, DepGraph};
use sv_ir::{Loop, OpId};
use sv_machine::{MachineConfig, ResourceClass, ResourcePool};

/// Result of one exact feasibility probe at a fixed II.
#[derive(Debug, Clone)]
pub enum ExactOutcome {
    /// A schedule exists; here is a witness.
    Feasible(Box<Schedule>),
    /// No schedule exists at this II (complete search closed).
    Infeasible,
    /// The [`Budget`] refused a residue attempt before the search closed; undecided.
    Budget,
}

/// Why a [`Budget`] stopped granting units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stop {
    /// Every unit was spent: a deterministic verdict.
    Exhausted,
    /// The wall-clock deadline passed first.
    Expired,
}

/// A deterministic work meter (one unit per residue attempt here, per
/// tree node in the optimal-II oracle) with an optional deadline, read
/// only when a unit is asked for. Once a unit is refused the budget
/// stays stopped, and [`Budget::stop`] says why.
#[derive(Debug, Clone)]
pub struct Budget {
    left: u64,
    spent: u64,
    deadline: Option<Instant>,
    stop: Option<Stop>,
    clock: fn() -> Instant,
}

impl Budget {
    /// A budget of `units`, stopping early once `deadline` has passed.
    pub fn new(units: u64, deadline: Option<Instant>) -> Budget {
        Budget { left: units, spent: 0, deadline, stop: None, clock: Instant::now }
    }

    /// Spend one unit; `false` once the units are gone or the deadline
    /// has passed.
    pub fn step(&mut self) -> bool {
        if self.stop.is_none() {
            if self.left == 0 {
                self.stop = Some(Stop::Exhausted);
            } else if self.deadline.is_some_and(|d| (self.clock)() >= d) {
                self.stop = Some(Stop::Expired);
            } else {
                self.left -= 1;
                self.spent += 1;
                return true;
            }
        }
        false
    }

    /// Units spent since construction.
    pub fn spent(&self) -> u64 {
        self.spent
    }

    /// Why a unit was refused, or `None` while none has been.
    pub fn stop(&self) -> Option<Stop> {
        self.stop
    }
}

/// How a resource class is modelled during the search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ClassMode {
    /// Only 1-cycle reservations touch this class: instances are fully
    /// interchangeable, so per-row counting is exact.
    Counting,
    /// Some reservation holds an instance for several consecutive rows
    /// (non-pipelined divide): instances need identity and windows.
    Tracked,
}

struct Edge {
    src: usize,
    dst: usize,
    delay: i64,
    dist: i64,
}

struct Search<'a> {
    ii: u32,
    pool: &'a ResourcePool,
    caps: Vec<u32>,
    mode: Vec<ClassMode>,
    /// Scheduling order (recurrence members first, then height).
    order: Vec<usize>,
    /// Per-op reservation lists.
    reqs: Vec<Vec<sv_machine::Reservation>>,
    /// All non-self dependence edges.
    edges: Vec<Edge>,
    /// Counting classes: occupancy count per (class slot, row).
    counts: Vec<Vec<u32>>,
    /// Tracked classes: per instance (dense id), occupied rows.
    occ: Vec<Vec<u8>>,
    /// Chosen residue per op (`u32::MAX` = unassigned).
    residue: Vec<u32>,
    /// Tracked-class instance picks per op: `(dense id, cycles)`.
    picks: Vec<Vec<(usize, u32)>>,
    /// Per-op tracked-class demand `(class slot, cycles)`, for the
    /// fragmentation prune.
    tracked_sizes: Vec<Vec<(usize, u32)>>,
    /// Symmetry group per op, for ops not on any dependence cycle. Such
    /// ops are pure resource tokens (a stage absorbs any residue), so ops
    /// with identical reservation signatures are interchangeable: the
    /// search only enumerates non-decreasing residue sequences per group.
    sym_group: Vec<Option<usize>>,
    /// Current residue floor per symmetry group.
    group_floor: Vec<u32>,
    /// Member ops per symmetry group.
    group_members: Vec<Vec<usize>>,
}

const UNASSIGNED: u32 = u32::MAX;

/// Decide whether `l` admits a modulo schedule at exactly `ii` on `m`.
///
/// Complete and sound within `budget`: [`ExactOutcome::Infeasible`] is a
/// proof, [`ExactOutcome::Feasible`] carries a validated witness schedule,
/// and [`ExactOutcome::Budget`] means the search was cut short and decided
/// nothing.
pub fn exact_schedule(
    l: &Loop,
    g: &DepGraph,
    m: &MachineConfig,
    ii: u32,
    budget: &mut Budget,
) -> ExactOutcome {
    let n = l.ops.len();
    // Self-edges are honored purely by the II (they constrain no residue):
    // delay − II·distance must be ≤ 0 or no schedule exists at this II.
    for e in g.edges() {
        if e.src == e.dst && edge_delay(e, l, m) - i64::from(ii) * i64::from(e.distance) > 0 {
            return ExactOutcome::Infeasible;
        }
    }

    let pool = m.resource_pool();
    let reqs: Vec<Vec<sv_machine::Reservation>> =
        l.ops.iter().map(|o| m.requirements(o.opcode)).collect();
    let overhead = m.loop_overhead();

    // Classify classes: tracked when any reservation (op or overhead)
    // holds an instance for more than one cycle.
    let mut mode = vec![ClassMode::Counting; ResourceClass::ALL.len()];
    for rs in reqs.iter().chain(overhead.iter()) {
        for r in rs {
            if r.cycles > 1 {
                mode[class_slot(r.class)] = ClassMode::Tracked;
            }
        }
    }

    let caps: Vec<u32> = ResourceClass::ALL.iter().map(|&c| pool.capacity(c)).collect();
    let mut counts = vec![vec![0u32; ii as usize]; ResourceClass::ALL.len()];
    let mut occ = vec![vec![0u8; ii as usize]; pool.len()];

    // Pre-reserve the loop-control overhead exactly as the iterative
    // scheduler does: back branch in the kernel's last row, induction
    // update in row 0. Overhead reservations are all single-cycle today,
    // but route tracked classes through instance occupancy regardless.
    for (idx, rs) in overhead.iter().enumerate() {
        let row = if idx == 0 { ii - 1 } else { 0 };
        for r in rs {
            let slot = class_slot(r.class);
            if caps[slot] == 0 {
                return ExactOutcome::Infeasible;
            }
            match mode[slot] {
                ClassMode::Counting => {
                    if counts[slot][row as usize] >= caps[slot] {
                        return ExactOutcome::Infeasible;
                    }
                    counts[slot][row as usize] += 1;
                }
                ClassMode::Tracked => {
                    let Some(inst) = pool
                        .alternatives(r.class)
                        .iter()
                        .map(|i| pool.dense_id(*i))
                        .find(|&i| window_free(&occ[i], row, r.cycles, ii))
                    else {
                        return ExactOutcome::Infeasible;
                    };
                    occupy(&mut occ[inst], row, r.cycles, ii, 1);
                }
            }
        }
    }

    // Any op whose reservations cannot fit this II at all (zero capacity,
    // or a window longer than the II) makes the probe trivially infeasible.
    for rs in &reqs {
        for r in rs {
            if caps[class_slot(r.class)] == 0 || r.cycles > ii {
                return ExactOutcome::Infeasible;
            }
        }
    }

    // Order: every op that touches a tracked class first (their mutual
    // packing conflicts must surface before loosely-constrained counting
    // ops interleave — otherwise the search rediscovers the same
    // tracked-class conflict once per placement of the irrelevant ops in
    // between), rigid multi-cycle reservations before single-cycle ones,
    // then recurrence members, then height — the most constrained ops
    // bind the search early so dead branches die fast.
    let heights = compute_heights(l, g, m, ii);
    let sccs = strongly_connected_components(g);
    let max_cycles =
        |i: usize| reqs[i].iter().map(|r| r.cycles).max().unwrap_or(0);
    let touches_tracked = |i: usize| {
        reqs[i].iter().any(|r| mode[class_slot(r.class)] == ClassMode::Tracked)
    };
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| {
        (
            std::cmp::Reverse(touches_tracked(i)),
            std::cmp::Reverse(max_cycles(i)),
            std::cmp::Reverse(sccs.in_cycle(OpId(i as u32), g)),
            std::cmp::Reverse(heights[i]),
            i,
        )
    });

    let tracked_sizes: Vec<Vec<(usize, u32)>> = reqs
        .iter()
        .map(|rs| {
            rs.iter()
                .filter(|r| mode[class_slot(r.class)] == ClassMode::Tracked)
                .map(|r| (class_slot(r.class), r.cycles))
                .collect()
        })
        .collect();

    // Symmetry groups: non-cycle ops with identical reservation
    // signatures (the k-unrolled scalar copies, for instance) are
    // interchangeable, so canonical non-decreasing residue order per
    // group is complete.
    let mut signatures: Vec<Vec<(usize, u32)>> = Vec::new();
    let mut sym_group: Vec<Option<usize>> = vec![None; n];
    for i in 0..n {
        if sccs.in_cycle(OpId(i as u32), g) {
            continue;
        }
        let sig: Vec<(usize, u32)> =
            reqs[i].iter().map(|r| (class_slot(r.class), r.cycles)).collect();
        let gid = match signatures.iter().position(|s| *s == sig) {
            Some(gid) => gid,
            None => {
                signatures.push(sig);
                signatures.len() - 1
            }
        };
        sym_group[i] = Some(gid);
    }
    let group_floor = vec![0u32; signatures.len()];
    let mut group_members: Vec<Vec<usize>> = vec![Vec::new(); signatures.len()];
    for (i, gid) in sym_group.iter().enumerate() {
        if let Some(gid) = gid {
            group_members[*gid].push(i);
        }
    }

    let edges: Vec<Edge> = g
        .edges()
        .iter()
        .filter(|e| e.src != e.dst)
        .map(|e| Edge {
            src: e.src.index(),
            dst: e.dst.index(),
            delay: edge_delay(e, l, m),
            dist: i64::from(e.distance),
        })
        .collect();
    let mut search = Search {
        ii,
        pool: &pool,
        caps,
        mode,
        order,
        reqs,
        edges,
        counts,
        occ,
        residue: vec![UNASSIGNED; n],
        picks: vec![Vec::new(); n],
        tracked_sizes,
        sym_group,
        group_floor,
        group_members,
    };

    // The overhead rows may already make the remaining tracked demand
    // unpackable.
    for slot in 0..ResourceClass::ALL.len() {
        if search.mode[slot] == ClassMode::Tracked && !search.frag_ok(slot, usize::MAX, 0) {
            return ExactOutcome::Infeasible;
        }
    }

    match search.place(0, budget) {
        Place::Found => {
            let times = search.solve_times();
            ExactOutcome::Feasible(Box::new(build_schedule(
                l, g, m, ii, times, &search,
            )))
        }
        Place::Exhausted => ExactOutcome::Infeasible,
        Place::Budget => ExactOutcome::Budget,
    }
}

enum Place {
    Found,
    Exhausted,
    Budget,
}

impl Search<'_> {
    fn place(&mut self, oi: usize, budget: &mut Budget) -> Place {
        if oi == self.order.len() {
            return Place::Found;
        }
        let op = self.order[oi];
        // Interchangeable ops only ever take residues at or above their
        // group's floor (canonical order over identical tokens).
        let start = self.sym_group[op].map_or(0, |gid| self.group_floor[gid]);
        for r in start..self.ii {
            if !budget.step() {
                return Place::Budget;
            }
            // Raising the floor to `r` confines every unplaced member of
            // the group to rows `r..ii`; if their demand no longer fits
            // the free capacity there, no larger `r` can fit it either.
            if !self.group_tail_ok(op, r) {
                break;
            }
            let saved = self.sym_group[op].map(|gid| {
                let old = self.group_floor[gid];
                self.group_floor[gid] = r;
                (gid, old)
            });
            let out = self.assign(op, r, 0, oi, budget);
            if let Some((gid, old)) = saved {
                if matches!(out, Place::Exhausted) {
                    self.group_floor[gid] = old;
                }
            }
            match out {
                Place::Found => return Place::Found,
                Place::Budget => return Place::Budget,
                Place::Exhausted => {}
            }
        }
        Place::Exhausted
    }

    /// Reserve `op`'s resources at residue `r`, one reservation at a time
    /// (tracked classes branch over distinct-occupancy instances), then
    /// check dependence consistency and recurse to the next op.
    fn assign(
        &mut self,
        op: usize,
        r: u32,
        res_idx: usize,
        oi: usize,
        budget: &mut Budget,
    ) -> Place {
        if res_idx == self.reqs[op].len() {
            self.residue[op] = r;
            let out = if self.consistent() {
                self.place(oi + 1, budget)
            } else {
                Place::Exhausted
            };
            if matches!(out, Place::Exhausted) {
                self.residue[op] = UNASSIGNED;
            }
            return out;
        }
        let req = self.reqs[op][res_idx];
        let slot = class_slot(req.class);
        match self.mode[slot] {
            ClassMode::Counting => {
                if self.counts[slot][r as usize] >= self.caps[slot] {
                    return Place::Exhausted;
                }
                self.counts[slot][r as usize] += 1;
                let out = self.assign(op, r, res_idx + 1, oi, budget);
                if matches!(out, Place::Exhausted) {
                    self.counts[slot][r as usize] -= 1;
                }
                out
            }
            ClassMode::Tracked => {
                // Identical machines: trying one instance per distinct
                // occupancy pattern preserves completeness.
                let alts: Vec<usize> = self
                    .pool
                    .alternatives(req.class)
                    .iter()
                    .map(|i| self.pool.dense_id(*i))
                    .collect();
                let mut tried: Vec<usize> = Vec::with_capacity(alts.len());
                for inst in alts {
                    if !window_free(&self.occ[inst], r, req.cycles, self.ii) {
                        continue;
                    }
                    if tried.iter().any(|&t| self.occ[t] == self.occ[inst]) {
                        continue;
                    }
                    tried.push(inst);
                    occupy(&mut self.occ[inst], r, req.cycles, self.ii, 1);
                    self.picks[op].push((inst, req.cycles));
                    // Fragmentation prune: the placement just carved the
                    // class's free windows; bail out if what is left can no
                    // longer hold the remaining demand.
                    let out = if self.frag_ok(slot, op, res_idx + 1) {
                        self.assign(op, r, res_idx + 1, oi, budget)
                    } else {
                        Place::Exhausted
                    };
                    if matches!(out, Place::Exhausted) {
                        self.picks[op].pop();
                        occupy(&mut self.occ[inst], r, req.cycles, self.ii, 0);
                    } else {
                        return out;
                    }
                }
                Place::Exhausted
            }
        }
    }

    /// Pigeonhole-with-fragmentation prune for one tracked class: every
    /// unplaced reservation of `cycles` ≥ `c` needs a free window of at
    /// least `c` consecutive rows on some instance, and a maximal free run
    /// of length `g` holds at most `⌊g/c⌋` such windows. If, for any
    /// demand size `c`, the reservations of size ≥ `c` outnumber the
    /// windows available, no completion of this partial assignment exists.
    ///
    /// `cur_op`'s reservations before `next_res` are already placed; ops
    /// with an assigned residue are fully placed.
    fn frag_ok(&self, slot: usize, cur_op: usize, next_res: usize) -> bool {
        // Remaining demand sizes for this class.
        let mut sizes: Vec<u32> = Vec::new();
        for op in 0..self.residue.len() {
            if op == cur_op {
                for (ri, req) in self.reqs[op].iter().enumerate() {
                    if class_slot(req.class) == slot && ri >= next_res {
                        sizes.push(req.cycles);
                    }
                }
            } else if self.residue[op] == UNASSIGNED {
                for &(s, c) in &self.tracked_sizes[op] {
                    if s == slot {
                        sizes.push(c);
                    }
                }
            }
        }
        if sizes.is_empty() {
            return true;
        }
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        // Maximal cyclic free runs across this class's instances.
        let mut runs: Vec<u32> = Vec::new();
        let class = ResourceClass::ALL[slot];
        for inst in self.pool.alternatives(class) {
            let occ = &self.occ[self.pool.dense_id(*inst)];
            let ii = self.ii as usize;
            if occ.iter().all(|&o| o == 0) {
                runs.push(self.ii);
                continue;
            }
            // Walk from some occupied row so cyclic runs do not split.
            let start = occ.iter().position(|&o| o != 0).expect("not all free");
            let mut len = 0u32;
            for j in 0..ii {
                if occ[(start + j) % ii] == 0 {
                    len += 1;
                } else if len > 0 {
                    runs.push(len);
                    len = 0;
                }
            }
            if len > 0 {
                runs.push(len);
            }
        }
        // For each distinct size `c` (descending), all demand of size ≥ c
        // — the full prefix of equal-or-larger entries — must fit the
        // windows of width c.
        let mut i = 0;
        while i < sizes.len() {
            let c = sizes[i];
            let mut j = i + 1;
            while j < sizes.len() && sizes[j] == c {
                j += 1;
            }
            let windows: u64 = runs.iter().map(|&g| u64::from(g / c)).sum();
            if (j as u64) > windows {
                return false;
            }
            i = j;
        }
        true
    }

    /// Canonical-order pigeonhole for one symmetry group: placing `op` at
    /// residue `r` raises the group's floor to `r`, so every still-unplaced
    /// member (`op` included) must start in rows `r..ii`. Per resource
    /// class, each start claims at least one free cell at its own row —
    /// exactly one per single-cycle reservation — so the group's remaining
    /// starts cannot exceed the free capacity of the region. Multi-cycle
    /// reservations may wrap below the floor, so only their starting cell
    /// is counted (the fragmentation prune covers the rest of their bulk).
    fn group_tail_ok(&self, op: usize, r: u32) -> bool {
        let Some(gid) = self.sym_group[op] else {
            return true;
        };
        let unplaced = self.group_members[gid]
            .iter()
            .filter(|&&o| self.residue[o] == UNASSIGNED)
            .count() as u64;
        // Distinct class slots in the signature, with reservation counts.
        let mut slots: Vec<(usize, u64)> = Vec::with_capacity(self.reqs[op].len());
        for req in &self.reqs[op] {
            let slot = class_slot(req.class);
            match slots.iter_mut().find(|(s, _)| *s == slot) {
                Some((_, c)) => *c += 1,
                None => slots.push((slot, 1)),
            }
        }
        for (slot, per_member) in slots {
            let free: u64 = match self.mode[slot] {
                ClassMode::Counting => (r..self.ii)
                    .map(|row| {
                        u64::from(self.caps[slot] - self.counts[slot][row as usize])
                    })
                    .sum(),
                ClassMode::Tracked => {
                    let class = ResourceClass::ALL[slot];
                    self.pool
                        .alternatives(class)
                        .iter()
                        .map(|i| {
                            let occ = &self.occ[self.pool.dense_id(*i)];
                            (r..self.ii).filter(|&row| occ[row as usize] == 0).count()
                                as u64
                        })
                        .sum()
                }
            };
            if unplaced * per_member > free {
                return false;
            }
        }
        true
    }

    /// Stage difference constraints among assigned ops admit a solution iff
    /// their constraint graph has no positive-weight cycle (longest-path
    /// relaxation converges).
    fn consistent(&self) -> bool {
        let n = self.residue.len();
        let ii = i64::from(self.ii);
        let mut dist = vec![0i64; n];
        for _ in 0..=n {
            let mut changed = false;
            for e in &self.edges {
                if self.residue[e.src] == UNASSIGNED || self.residue[e.dst] == UNASSIGNED {
                    continue;
                }
                let w = stage_weight(e, &self.residue, ii);
                if dist[e.src] + w > dist[e.dst] {
                    dist[e.dst] = dist[e.src] + w;
                    changed = true;
                }
            }
            if !changed {
                return true;
            }
        }
        false
    }

    /// Longest-path stage solve over the full assignment, then
    /// `t = stage·II + residue`.
    fn solve_times(&self) -> Vec<u32> {
        let n = self.residue.len();
        let ii = i64::from(self.ii);
        let mut stage = vec![0i64; n];
        loop {
            let mut changed = false;
            for e in &self.edges {
                let w = stage_weight(e, &self.residue, ii);
                if stage[e.src] + w > stage[e.dst] {
                    stage[e.dst] = stage[e.src] + w;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        (0..n)
            .map(|i| u32::try_from(stage[i] * ii + i64::from(self.residue[i])).expect("time fits"))
            .collect()
    }
}

/// The stage-difference constraint one edge imposes once residues are
/// fixed: `s_dst − s_src ≥ ⌈(delay − II·dist − (r_dst − r_src)) / II⌉`.
fn stage_weight(e: &Edge, residue: &[u32], ii: i64) -> i64 {
    let dr = i64::from(residue[e.dst]) - i64::from(residue[e.src]);
    let num = e.delay - ii * e.dist - dr;
    // Ceiling division for any sign of the numerator (ii > 0).
    (num + ii - 1).div_euclid(ii)
}

fn class_slot(c: ResourceClass) -> usize {
    ResourceClass::ALL.iter().position(|&x| x == c).expect("known class")
}

fn window_free(occ: &[u8], t: u32, cycles: u32, ii: u32) -> bool {
    if cycles > ii {
        return false;
    }
    (0..cycles).all(|j| occ[((t + j) % ii) as usize] == 0)
}

fn occupy(occ: &mut [u8], t: u32, cycles: u32, ii: u32, v: u8) {
    for j in 0..cycles {
        occ[((t + j) % ii) as usize] = v;
    }
}

/// Materialize a full [`Schedule`] from the witness: concrete per-op
/// resource instances (counting classes get a deterministic per-row
/// assignment; tracked classes keep the DFS picks), finished with the
/// iterative scheduler's derived metrics.
fn build_schedule(
    l: &Loop,
    g: &DepGraph,
    m: &MachineConfig,
    ii: u32,
    times: Vec<u32>,
    search: &Search<'_>,
) -> Schedule {
    let n = l.ops.len();
    let pool = m.resource_pool();
    // Per (instance, row) usage map for materializing counting classes;
    // seed it with the overhead rows and the tracked picks.
    let mut used = vec![vec![false; ii as usize]; pool.len()];
    let overhead = m.loop_overhead();
    for (idx, rs) in overhead.iter().enumerate() {
        let row = if idx == 0 { ii - 1 } else { 0 };
        for r in rs {
            let inst = pool
                .alternatives(r.class)
                .iter()
                .map(|i| pool.dense_id(*i))
                .find(|&i| (0..r.cycles).all(|j| !used[i][((row + j) % ii) as usize]))
                .expect("overhead fit was verified during the search");
            for j in 0..r.cycles {
                used[inst][((row + j) % ii) as usize] = true;
            }
        }
    }

    let mut assignments: Assignments = vec![Vec::new(); n];
    // Tracked picks first (their instances are fixed), then counting
    // reservations in op order, each on the first instance free at the row.
    for op in 0..n {
        let row = times[op] % ii;
        let mut tracked_iter = search.picks[op].iter();
        for req in &search.reqs[op] {
            let slot = class_slot(req.class);
            match search.mode[slot] {
                ClassMode::Tracked => {
                    let &(inst, cycles) = tracked_iter.next().expect("pick per tracked req");
                    for j in 0..cycles {
                        used[inst][((row + j) % ii) as usize] = true;
                    }
                    assignments[op].push((pool.instances()[inst], cycles));
                }
                ClassMode::Counting => {
                    let inst = pool
                        .alternatives(req.class)
                        .iter()
                        .map(|i| pool.dense_id(*i))
                        .find(|&i| !used[i][row as usize])
                        .expect("counting capacity was verified during the search");
                    used[inst][row as usize] = true;
                    assignments[op].push((pool.instances()[inst], req.cycles));
                }
            }
        }
    }

    let bounds = (compute_resmii(l, m), compute_recmii(l, g, m));
    Schedule::finish(l, g, m, bounds, ii, (times, assignments), vec![ii])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modulo_schedule;
    use crate::validate::validate_schedule;
    use sv_ir::{LoopBuilder, ScalarType};

    fn probe(l: &Loop, m: &MachineConfig, ii: u32) -> ExactOutcome {
        let g = DepGraph::build(l);
        let mut b = Budget::new(5_000_000, None);
        exact_schedule(l, &g, m, ii, &mut b)
    }

    fn copy_loop() -> Loop {
        let mut b = LoopBuilder::new("copy");
        let x = b.array("x", ScalarType::F64, 64);
        let y = b.array("y", ScalarType::F64, 64);
        let lx = b.load(x, 1, 0);
        b.store(y, 1, 0, lx);
        b.finish()
    }

    #[test]
    fn copy_loop_feasible_at_one() {
        let l = copy_loop();
        let m = MachineConfig::paper_default();
        let ExactOutcome::Feasible(s) = probe(&l, &m, 1) else {
            panic!("copy loop must schedule at II=1");
        };
        assert_eq!(s.ii, 1);
        let g = DepGraph::build(&l);
        validate_schedule(&l, &g, &m, &s).expect("witness validates");
    }

    #[test]
    fn reduction_infeasible_below_recmii() {
        let mut b = LoopBuilder::new("red");
        let x = b.array("x", ScalarType::F64, 64);
        let lx = b.load(x, 1, 0);
        b.reduce_add(lx);
        let l = b.finish();
        let m = MachineConfig::paper_default();
        // RecMII = 4 (self edge, fp latency 4): II 3 must be proven out.
        assert!(matches!(probe(&l, &m, 3), ExactOutcome::Infeasible));
        assert!(matches!(probe(&l, &m, 4), ExactOutcome::Feasible(_)));
    }

    #[test]
    fn mem_bound_infeasible_below_resmii() {
        // 5 loads + 1 store on 2 mem units: ResMII 3 is tight.
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
        assert!(matches!(probe(&l, &m, 2), ExactOutcome::Infeasible));
        let ExactOutcome::Feasible(s) = probe(&l, &m, 3) else {
            panic!("must schedule at ResMII");
        };
        let g = DepGraph::build(&l);
        validate_schedule(&l, &g, &m, &s).expect("witness validates");
    }

    #[test]
    fn non_pipelined_divide_tracked_instances() {
        // Two independent divides on 2 fp units: each blocks its unit for
        // 32 cycles; II=32 works only if they take different units — the
        // tracked-instance branching must find that.
        let mut b = LoopBuilder::new("div2");
        let x = b.array("x", ScalarType::F64, 64);
        let y = b.array("y", ScalarType::F64, 64);
        let z = b.array("z", ScalarType::F64, 64);
        let lx = b.load(x, 1, 0);
        let ly = b.load(y, 1, 0);
        let d1 = b.fdiv(lx, ly);
        let d2 = b.fdiv(ly, lx);
        b.store(z, 1, 0, d1);
        b.store(z, 1, 1, d2);
        let l = b.finish();
        let m = MachineConfig::paper_default();
        let ExactOutcome::Feasible(s) = probe(&l, &m, 32) else {
            panic!("two divides fit two units at II=32");
        };
        let g = DepGraph::build(&l);
        validate_schedule(&l, &g, &m, &s).expect("witness validates");
        assert!(matches!(probe(&l, &m, 31), ExactOutcome::Infeasible));
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let l = copy_loop();
        let m = MachineConfig::paper_default();
        let g = DepGraph::build(&l);
        let mut b = Budget::new(0, None);
        assert!(matches!(
            exact_schedule(&l, &g, &m, 1, &mut b),
            ExactOutcome::Budget
        ));
    }

    #[test]
    fn budget_tells_exhaustion_from_an_expired_deadline() {
        let mut b = Budget::new(2, None);
        assert!(b.step() && b.step());
        assert!(!b.step());
        assert_eq!((b.spent(), b.stop()), (2, Some(Stop::Exhausted)));
        let past = Instant::now() - std::time::Duration::from_millis(1);
        let mut b = Budget::new(2, Some(past));
        assert!(!b.step());
        assert_eq!((b.spent(), b.stop()), (0, Some(Stop::Expired)));
        // A spent budget stays stopped for exhaustion, deadline or not.
        let mut b = Budget::new(0, Some(past));
        assert!(!b.step());
        assert_eq!(b.stop(), Some(Stop::Exhausted));
    }

    #[test]
    fn budget_without_deadline_never_reads_the_clock() {
        fn no_clock() -> Instant {
            panic!("the clock was read without a deadline")
        }
        let mut b = Budget { clock: no_clock, ..Budget::new(1_000, None) };
        while b.step() {}
        assert_eq!((b.spent(), b.stop()), (1_000, Some(Stop::Exhausted)));
        // The same meter with a deadline reads it on every unit.
        let far = Instant::now() + std::time::Duration::from_secs(3600);
        let mut b = Budget { clock: no_clock, ..Budget::new(1, Some(far)) };
        let read = std::panic::catch_unwind(move || b.step());
        assert!(read.is_err(), "a deadline must be polled where units are spent");
    }

    #[test]
    fn expired_deadline_leaves_the_probe_undecided() {
        let l = copy_loop();
        let m = MachineConfig::paper_default();
        let g = DepGraph::build(&l);
        let mut b = Budget::new(5_000_000, Some(Instant::now()));
        assert!(matches!(exact_schedule(&l, &g, &m, 1, &mut b), ExactOutcome::Budget));
        assert_eq!(b.stop(), Some(Stop::Expired));
    }

    #[test]
    fn agrees_with_iterative_scheduler_on_suite_shapes() {
        // Wherever the iterative scheduler achieves an II, the exact probe
        // must agree that II is feasible (soundness cross-check).
        let mut b = LoopBuilder::new("mix");
        let x = b.array("x", ScalarType::F64, 256);
        let y = b.array("y", ScalarType::F64, 256);
        let lx = b.load(x, 1, 0);
        let ly = b.load(y, 1, 1);
        let mu = b.fmul(lx, ly);
        let ad = b.fadd(mu, lx);
        b.store(y, 1, 0, ad);
        let l = b.finish();
        let m = MachineConfig::paper_default();
        let g = DepGraph::build(&l);
        let s = modulo_schedule(&l, &g, &m).expect("schedulable");
        let ExactOutcome::Feasible(e) = probe(&l, &m, s.ii) else {
            panic!("probe must confirm the iterative scheduler's II");
        };
        assert_eq!(e.ii, s.ii);
    }
}
