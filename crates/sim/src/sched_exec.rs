//! The cycle-accurate VLIW executor: run the *scheduled code*, not just
//! the loop semantics.
//!
//! The in-order executors in this crate answer "does the transformed
//! loop compute the right values?". This one — the crate's only schedule
//! executor — also answers the question the paper's tables hinge on:
//! **does the scheduled code actually sustain the initiation interval the
//! scheduler claims?** It consumes the flat
//! prologue / kernel / epilogue layout ([`sv_modsched::emit_flat_for`])
//! and executes it the way the VLIW machine would:
//!
//! * **per-cycle issue** — every operation instance in a row issues in
//!   the same cycle, one row per cycle;
//! * **interlock semantics** — a row only issues when every operand is
//!   *delivered* (producer issued ≥ `latency` cycles earlier; latency-0
//!   producers forward within the row) and every required unit is free;
//!   otherwise the machine stalls for a cycle and the stall is counted.
//!   A correct schedule never stalls — a nonzero stall count or a
//!   measured steady-state above II is a scheduler/emitter bug made
//!   visible;
//! * **end-of-cycle writes** — reads in cycle `t` observe values as of
//!   the start of `t`: loads execute before same-cycle arithmetic, stores
//!   commit last, and a result with latency `L` issued at cycle `c` is
//!   readable from cycle `c + L` on;
//! * **unit reservations** — each instance occupies one unit of every
//!   class its opcode requires ([`sv_machine::MachineConfig`]'s
//!   `requirements`), for `latency` consecutive cycles when the unit is
//!   non-pipelined (divide/sqrt), and the kernel's loop-control overhead
//!   (back branch in row `II−1`, counter update in row 0) is charged
//!   exactly as the scheduler reserved it;
//! * **modulo variable expansion** — loop-carried values are renamed per
//!   iteration in ring buffers whose depths are measured from the actual
//!   launch order in one linear prescan, so the three sections' different
//!   `iteration_offset` encodings all resolve to the right register copy.
//!
//! The measured steady state is reported per section:
//! [`ExecReport::kernel_cycles`] over [`ExecReport::kernel_executions`]
//! is the **measured II**, compared against the scheduled II by
//! [`ExecReport::steady_state_ok`].

use crate::decoded::{collect_liveouts, exec_op, DClass, DecodedLoop, DOperand};
use crate::interp::LiveOutValue;
use crate::memory::{Memory, Scalar};
use std::fmt;
use sv_machine::{MachineConfig, ResourceClass};
use sv_modsched::FlatListing;

/// Cycle accounting of one scheduled execution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecReport {
    /// Total cycles from the first issue row to the last, inclusive —
    /// rows plus stalls (trailing all-empty epilogue rows are not
    /// walked; in-flight latency past the last issue row is not counted,
    /// matching the `(n−1)·II + length` timing-model convention).
    pub total_cycles: u64,
    /// Cycles the interlock inserted because an operand was not yet
    /// delivered or a unit was still busy. Zero for a correct schedule.
    pub stall_cycles: u64,
    /// Cycles spent in the kernel section (including any stalls there).
    pub kernel_cycles: u64,
    /// How many times the kernel's `II` rows were executed.
    pub kernel_executions: u64,
    /// The largest number of simultaneously live values observed in any
    /// cycle, per register class in [`sv_ir::RegClass::ALL`] order. A
    /// value is live from its issue cycle to its last read (half-open:
    /// a register read and overwritten in the same cycle counts once,
    /// matching the scheduler's `⌈lifetime/II⌉` model); values no row
    /// reads hold their register for the producer latency, and a
    /// live-out's final instance stays live to the end of the run. Must
    /// never exceed the scheduler's `MaxLive` estimate — an excess is an
    /// under-allocation bug surfaced by [`crate::executed_selfcheck`].
    pub observed_max_live: [u32; 4],
}

impl ExecReport {
    /// Measured steady-state cycles per kernel execution, when the
    /// kernel ran at all (`None` for short trips that never fill the
    /// pipeline).
    pub fn measured_ii(&self) -> Option<f64> {
        (self.kernel_executions > 0)
            .then(|| self.kernel_cycles as f64 / self.kernel_executions as f64)
    }

    /// Whether the execution sustained the scheduled II: no stalls
    /// anywhere, and the kernel section took exactly
    /// `kernel_executions · II` cycles. Vacuously true when the kernel
    /// never ran (short trips).
    pub fn steady_state_ok(&self, scheduled_ii: u32) -> bool {
        self.stall_cycles == 0
            && self.kernel_cycles == self.kernel_executions * u64::from(scheduled_ii)
    }
}

/// A defect the executor found in the scheduled code. Stalls are *not*
/// errors (they are reported); these are violations no amount of
/// stalling can repair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// An instance reads a value that no earlier row produces — the
    /// layout launches instances out of dependence order.
    ReadBeforeWrite {
        /// Loop name.
        looop: String,
        /// Consuming op index.
        op: usize,
        /// Consuming instance's iteration.
        iteration: u64,
        /// Issue cycle of the consuming row.
        cycle: u64,
    },
    /// A consumer shares its producer's issue cycle but the producer has
    /// nonzero latency — stalling delays both, so the read can never
    /// become legal.
    SameCycleLatency {
        /// Loop name.
        looop: String,
        /// Producing op index.
        producer: usize,
        /// Consuming op index.
        consumer: usize,
        /// The shared issue cycle.
        cycle: u64,
        /// The producer's result latency.
        latency: u32,
    },
    /// The interlock stalled past any bound a finite-latency machine can
    /// justify (defensive: unreachable for well-formed layouts).
    Wedged {
        /// Loop name.
        looop: String,
        /// Cycle the executor gave up at.
        cycle: u64,
        /// The last stall reason observed.
        detail: String,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::ReadBeforeWrite { looop, op, iteration, cycle } => write!(
                f,
                "{looop}: op{op} iteration {iteration} at cycle {cycle} reads a value no earlier row produces"
            ),
            ExecError::SameCycleLatency { looop, producer, consumer, cycle, latency } => {
                write!(
                    f,
                    "{looop}: op{consumer} issues with its producer op{producer} at cycle {cycle}, but the producer's latency is {latency}"
                )
            }
            ExecError::Wedged { looop, cycle, detail } => {
                write!(f, "{looop}: executor wedged at cycle {cycle}: {detail}")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Which of the three layout sections a row belongs to.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Sect {
    Prologue,
    Kernel,
    Epilogue,
}

/// One planned issue row: its section, its row index within the kernel
/// (for loop-control overhead), and the `(op, local iteration)`
/// instances it launches.
struct PlanRow {
    sect: Sect,
    krow: u32,
    ops: Vec<(usize, u64)>,
}

/// Decode a flat layout into the full row-per-cycle issue plan for `n`
/// local iterations, resolving each section's `iteration_offset`
/// encoding to plain iteration numbers.
fn build_plan(flat: &FlatListing, n: u64) -> Vec<PlanRow> {
    let sc = u64::from(flat.stage_count);
    let kernel_execs = flat.kernel_executions(n);
    let mut plan: Vec<PlanRow> = Vec::new();
    for row in &flat.prologue {
        plan.push(PlanRow {
            sect: Sect::Prologue,
            krow: 0,
            ops: row.iter().map(|&(op, j)| (op.index(), j)).collect(),
        });
    }
    for t in 0..kernel_execs {
        for (k, row) in flat.kernel.iter().enumerate() {
            plan.push(PlanRow {
                sect: Sect::Kernel,
                krow: k as u32,
                ops: row
                    .iter()
                    .map(|&(op, stage)| (op.index(), t + (sc - 1) - stage))
                    .collect(),
            });
        }
    }
    for row in &flat.epilogue {
        plan.push(PlanRow {
            sect: Sect::Epilogue,
            krow: 0,
            ops: row.iter().map(|&(op, back)| (op.index(), n - 1 - back)).collect(),
        });
    }
    // The epilogue array spans `(SC−1)·II` rows regardless of where its
    // last instance sits; a real code generator emits nothing past it.
    while matches!(plan.last(), Some(r) if r.sect == Sect::Epilogue && r.ops.is_empty()) {
        plan.pop();
    }
    plan
}

/// Execute iterations `iters` of `l` through the scheduled layout `flat`
/// on machine `m`, mutating `mem`; returns the live-outs and the cycle
/// accounting. The layout's local iteration `j` is absolute iteration
/// `iters.start + j` for memory addressing and induction variables
/// (cleanup loops run subranges), and `flat` must have been emitted for
/// exactly `iters.len()` iterations when truncated.
///
/// # Errors
///
/// Returns an [`ExecError`] when the layout violates dependence order or
/// latency in a way no stall can repair. Capacity conflicts and undeli-
/// vered operands that *can* resolve are handled by stalling and show up
/// in [`ExecReport::stall_cycles`] instead.
///
/// # Panics
///
/// Panics when `flat` does not fit `l` or the trip count: a general
/// layout needs at least `stage_count` iterations, and a truncated one
/// ([`sv_modsched::emit_flat_for`] with `n < SC`) exactly the trip it was
/// emitted for.
pub fn execute_schedule(
    l: &sv_ir::Loop,
    m: &MachineConfig,
    flat: &FlatListing,
    mem: &mut Memory,
    iters: std::ops::Range<u64>,
) -> Result<(Vec<LiveOutValue>, ExecReport), ExecError> {
    let n = iters.end.saturating_sub(iters.start);
    let d = DecodedLoop::new(l);
    let plan = build_plan(flat, n);
    let nops = d.ops.len();

    // Per-op machine model: result latency and unit requirements.
    let lat: Vec<u64> = l.ops.iter().map(|op| u64::from(m.latency(op.opcode))).collect();
    let reqs: Vec<Vec<sv_machine::Reservation>> =
        l.ops.iter().map(|op| m.requirements(op.opcode)).collect();
    let overhead = m.loop_overhead();
    let pool = m.resource_pool();
    let n_classes = ResourceClass::ALL.len();

    // Ring depths measured from the actual launch order: for every read
    // of `(p, j − dist)` the producer's depth must cover the newest
    // `p`-iteration already launched, so carried state is renamed (modulo
    // variable expansion) exactly deep enough for this layout.
    let mut depth = vec![1u64; nops];
    {
        let mut latest = vec![i64::MIN; nops];
        for row in &plan {
            // Writes first: within a row this executor's phase order
            // (loads, forwarded arithmetic, stores) is not op order, so a
            // read of an older iteration must survive *any* same-row
            // overwrite — treat every write as landing before the row's
            // reads. (A read of the row's own iteration still shares the
            // slot: `latest > need` is strict, and the forwarding pass
            // guarantees the producer runs first.)
            for &(oi, j) in &row.ops {
                if d.ops[oi].defines {
                    if latest[oi] != i64::MIN && (j as i64) <= latest[oi] {
                        depth[oi] = depth[oi].max((latest[oi] - j as i64 + 2) as u64);
                    }
                    latest[oi] = latest[oi].max(j as i64);
                }
            }
            for &(oi, j) in &row.ops {
                let op = &d.ops[oi];
                for o in &d.operands[op.o_start as usize..op.o_end as usize] {
                    if let DOperand::Def { op: p, distance } = *o {
                        let p = p as usize;
                        let need = j as i64 - i64::from(distance);
                        if need >= 0 && latest[p] > need {
                            depth[p] = depth[p].max((latest[p] - need + 1) as u64);
                        }
                    }
                }
            }
        }
    }
    // `iteration_private` arrays rename per in-flight iteration, same as
    // the register rings (the dependence graph carries no cross-iteration
    // edges on them — see `crate::privrot`). The access order for the
    // prescan is the executor's phase order: a row's loads all fire
    // before its stores.
    let pr = crate::privrot::PrivRot::for_accesses(
        l,
        plan.iter().flat_map(|row| {
            let mem_of = |&(oi, j): &(usize, u64)| {
                l.ops[oi].mem.as_ref().map(|r| (j, r.array.0, !d.ops[oi].defines))
            };
            let loads = row.ops.iter().filter(|&&(oi, _)| d.ops[oi].class == DClass::Load);
            let stores = row.ops.iter().filter(|&&(oi, _)| d.ops[oi].class == DClass::Store);
            loads.filter_map(mem_of).chain(stores.filter_map(mem_of)).collect::<Vec<_>>()
        }),
    );
    pr.widen(mem);

    let mut bases = vec![0usize; nops];
    let mut ready_bases = vec![0usize; nops];
    let (mut ring_len, mut ready_len) = (0usize, 0usize);
    for (i, op) in d.ops.iter().enumerate() {
        bases[i] = ring_len;
        ready_bases[i] = ready_len;
        if op.defines {
            ring_len += depth[i] as usize * op.lanes as usize;
            ready_len += depth[i] as usize;
        }
    }

    let mut ring = vec![Scalar::I(0); ring_len];
    // Delivery cycle of the value currently held by each ring slot.
    let mut ready = vec![0u64; ready_len];
    // Register-pressure probe: the [`sv_ir::RegClass::ALL`] index of each
    // defining op's result, the lifetime of the instance each ring slot
    // currently holds, and the committed lifetime intervals swept at the
    // end for the observed per-class maxima.
    let reg_slot: Vec<usize> = l
        .ops
        .iter()
        .map(|op| {
            if !op.defines_value() {
                return 0;
            }
            let c = op.opcode.def_class();
            sv_ir::RegClass::ALL.iter().position(|&x| x == c).expect("class indexed")
        })
        .collect();
    let mut slot_birth = vec![0u64; ready_len];
    let mut slot_death = vec![0u64; ready_len];
    let mut slot_iter = vec![i64::MIN; ready_len];
    // Committed lifetimes land in per-cycle delta buckets (+1 at birth,
    // −1 at death) and a single prefix sweep at the end recovers the
    // per-class maxima — O(1) per interval and O(cycles) total, never a
    // sort over every instance.
    let mut press_delta: Vec<[i32; 4]> = Vec::new();
    let commit_span = |delta: &mut Vec<[i32; 4]>, b: u64, dth: u64, c: usize| {
        if dth <= b {
            return;
        }
        let end = dth as usize;
        if delta.len() <= end {
            delta.resize(end + 1, [0i32; 4]);
        }
        delta[b as usize][c] += 1;
        delta[end][c] -= 1;
    };
    let mut scratch = vec![Scalar::I(0); d.max_lanes];
    let mut produced_up_to = vec![i64::MIN; nops];
    // One unit-busy horizon per pool instance (non-pipelined reservations
    // hold their unit for `latency` cycles).
    let mut busy_until = vec![0u64; pool.len()];

    let max_lat = lat.iter().copied().max().unwrap_or(0);
    let stall_bound =
        u64::from(flat.ii) * u64::from(flat.stage_count) + max_lat + 64;

    let mut cycle = 0u64;
    let mut report = ExecReport::default();
    let mut class_need = vec![0u32; n_classes];
    let mut in_row_done: Vec<bool> = Vec::new();

    for row in &plan {
        // --- interlock: stall until the row can issue -------------------
        let mut stalled_here = 0u64;
        'issue: loop {
            let mut stall_reason: Option<String> = None;
            // Operand delivery. A read of (p, need) must name either the
            // carried init, a delivered earlier result, or a latency-0
            // producer in this very row.
            'check: for &(oi, j) in &row.ops {
                let op = &d.ops[oi];
                for o in &d.operands[op.o_start as usize..op.o_end as usize] {
                    let DOperand::Def { op: p, distance } = *o else { continue };
                    let p = p as usize;
                    if u64::from(distance) > j {
                        continue; // reads the carried init
                    }
                    let need = j - u64::from(distance);
                    if row.ops.iter().any(|&(ri, rj)| ri == p && rj == need) {
                        if lat[p] == 0 {
                            continue; // same-row forwarding
                        }
                        return Err(ExecError::SameCycleLatency {
                            looop: l.name.clone(),
                            producer: p,
                            consumer: oi,
                            cycle,
                            latency: lat[p] as u32,
                        });
                    }
                    if produced_up_to[p] < need as i64 {
                        // Rows issue in order: a producer not yet issued
                        // and not in this row can only be in a later row.
                        return Err(ExecError::ReadBeforeWrite {
                            looop: l.name.clone(),
                            op: oi,
                            iteration: j,
                            cycle,
                        });
                    }
                    let rot = (need % depth[p]) as usize;
                    let at = ready_bases[p] + rot;
                    if ready[at] > cycle {
                        stall_reason = Some(format!(
                            "op{oi} iter {j} waits for op{p} iter {need} (ready at {})",
                            ready[at]
                        ));
                        break 'check;
                    }
                }
            }
            // Unit capacity: per class, requested units must not exceed
            // the units free this cycle.
            if stall_reason.is_none() {
                class_need.iter_mut().for_each(|c| *c = 0);
                for &(oi, _) in &row.ops {
                    for r in &reqs[oi] {
                        class_need[r.class as usize] += 1;
                    }
                }
                if row.sect == Sect::Kernel {
                    // Loop-control overhead where the scheduler reserved
                    // it: back branch in row II−1, counter update in row 0.
                    for (idx, oh) in overhead.iter().enumerate() {
                        let at = if idx == 0 { flat.ii - 1 } else { 0 };
                        if row.krow == at {
                            for r in oh {
                                class_need[r.class as usize] += 1;
                            }
                        }
                    }
                }
                for (ci, &needed) in class_need.iter().enumerate() {
                    if needed == 0 {
                        continue;
                    }
                    let range = pool.alternative_range(ResourceClass::ALL[ci]);
                    let free =
                        busy_until[range].iter().filter(|&&b| b <= cycle).count() as u32;
                    if needed > free {
                        stall_reason = Some(format!(
                            "{needed} {:?} unit(s) requested, {free} free",
                            ResourceClass::ALL[ci]
                        ));
                        break;
                    }
                }
            }
            match stall_reason {
                None => break 'issue,
                Some(reason) => {
                    stalled_here += 1;
                    if stalled_here > stall_bound {
                        return Err(ExecError::Wedged {
                            looop: l.name.clone(),
                            cycle,
                            detail: reason,
                        });
                    }
                    report.stall_cycles += 1;
                    if row.sect == Sect::Kernel {
                        report.kernel_cycles += 1;
                    }
                    cycle += 1;
                }
            }
        }

        // --- issue: reserve units ---------------------------------------
        let reserve = |busy_until: &mut [u64], rs: &[sv_machine::Reservation]| {
            for r in rs {
                let range = pool.alternative_range(r.class);
                let slot = busy_until[range]
                    .iter()
                    .position(|&b| b <= cycle)
                    .expect("capacity was just checked");
                busy_until[pool.alternative_range(r.class).start + slot] =
                    cycle + u64::from(r.cycles);
            }
        };
        for &(oi, _) in &row.ops {
            reserve(&mut busy_until, &reqs[oi]);
        }
        if row.sect == Sect::Kernel {
            for (idx, oh) in overhead.iter().enumerate() {
                let at = if idx == 0 { flat.ii - 1 } else { 0 };
                if row.krow == at {
                    reserve(&mut busy_until, oh);
                }
            }
        }

        // --- execute: loads, then forwarding-ordered arithmetic, then
        // stores — reads in this cycle observe start-of-cycle memory and
        // only delivered (or latency-0 same-row) register values.
        in_row_done.clear();
        in_row_done.resize(row.ops.len(), false);
        let finish =
            |oi: usize,
             j: u64,
             ring: &mut Vec<Scalar>,
             ready: &mut Vec<u64>,
             mem: &mut Memory,
             scratch: &mut Vec<Scalar>,
             produced_up_to: &mut Vec<i64>| {
                let op = &d.ops[oi];
                let abs = (iters.start + j) as i64;
                let resolve = |p: usize, dist: u32| -> Option<usize> {
                    if u64::from(dist) > j {
                        return None;
                    }
                    let need = j - u64::from(dist);
                    let rot = if depth[p] == 1 { 0 } else { (need % depth[p]) as usize };
                    Some(bases[p] + rot * d.ops[p].lanes as usize)
                };
                if exec_op(&d, op, abs, mem, ring, scratch, resolve, |a| pr.offset(a, j)) {
                    let ln = op.lanes as usize;
                    let rot = (j % depth[oi]) as usize;
                    let slot = bases[oi] + rot * ln;
                    if ln == 1 {
                        ring[slot] = scratch[0];
                    } else {
                        ring[slot..slot + ln].copy_from_slice(&scratch[..ln]);
                    }
                    ready[ready_bases[oi] + rot] = cycle + lat[oi];
                    produced_up_to[oi] = produced_up_to[oi].max(j as i64);
                }
            };
        for (ri, &(oi, j)) in row.ops.iter().enumerate() {
            if d.ops[oi].class == DClass::Load {
                finish(oi, j, &mut ring, &mut ready, mem, &mut scratch, &mut produced_up_to);
                in_row_done[ri] = true;
            }
        }
        loop {
            let mut progressed = false;
            let mut remaining = false;
            for (ri, &(oi, j)) in row.ops.iter().enumerate() {
                if in_row_done[ri] || matches!(d.ops[oi].class, DClass::Store) {
                    continue;
                }
                let op = &d.ops[oi];
                let deps_met = d.operands[op.o_start as usize..op.o_end as usize]
                    .iter()
                    .all(|o| {
                        let DOperand::Def { op: p, distance } = *o else { return true };
                        let p = p as usize;
                        if u64::from(distance) > j {
                            return true;
                        }
                        let need = j - u64::from(distance);
                        // Only a same-row producer can be pending here.
                        match row.ops.iter().position(|&(ri2, rj)| {
                            ri2 == p && rj == need
                        }) {
                            Some(pri) => in_row_done[pri],
                            None => true,
                        }
                    });
                if deps_met {
                    finish(
                        oi,
                        j,
                        &mut ring,
                        &mut ready,
                        mem,
                        &mut scratch,
                        &mut produced_up_to,
                    );
                    in_row_done[ri] = true;
                    progressed = true;
                } else {
                    remaining = true;
                }
            }
            if !remaining {
                break;
            }
            if !progressed {
                return Err(ExecError::Wedged {
                    looop: l.name.clone(),
                    cycle,
                    detail: "same-row latency-0 forwarding cycle".into(),
                });
            }
        }
        for (ri, &(oi, j)) in row.ops.iter().enumerate() {
            if !in_row_done[ri] {
                debug_assert!(matches!(d.ops[oi].class, DClass::Store));
                finish(oi, j, &mut ring, &mut ready, mem, &mut scratch, &mut produced_up_to);
            }
        }

        // --- register-pressure probe: this row's births and reads -------
        // Births first (committing each slot's previous occupant), then
        // reads extend the occupant's lifetime to this cycle — half-open,
        // so a value whose last read shares a cycle with a birth frees
        // its register for that birth, matching the scheduler's
        // `⌈lifetime/II⌉` counting.
        for &(oi, j) in &row.ops {
            if !d.ops[oi].defines {
                continue;
            }
            let rot = if depth[oi] == 1 { 0 } else { (j % depth[oi]) as usize };
            let at = ready_bases[oi] + rot;
            if slot_iter[at] != i64::MIN {
                commit_span(&mut press_delta, slot_birth[at], slot_death[at], reg_slot[oi]);
            }
            slot_birth[at] = cycle;
            slot_death[at] = cycle + lat[oi];
            slot_iter[at] = j as i64;
        }
        for &(oi, j) in &row.ops {
            let op = &d.ops[oi];
            for o in &d.operands[op.o_start as usize..op.o_end as usize] {
                let DOperand::Def { op: p, distance } = *o else { continue };
                let p = p as usize;
                if u64::from(distance) > j {
                    continue;
                }
                let need = j - u64::from(distance);
                let rot = if depth[p] == 1 { 0 } else { (need % depth[p]) as usize };
                let at = ready_bases[p] + rot;
                if slot_iter[at] == need as i64 {
                    slot_death[at] = slot_death[at].max(cycle);
                }
            }
        }

        report.total_cycles += stalled_here + 1;
        if row.sect == Sect::Kernel {
            report.kernel_cycles += 1;
        }
        cycle += 1;
    }
    report.kernel_executions = flat.kernel_executions(n);
    // Live-out values survive to the end of the run; commit every
    // interval still open and sweep for the observed per-class maxima
    // (deaths sort before tied births: half-open intervals).
    if n > 0 {
        for lo in &l.live_outs {
            let p = lo.op.index();
            let need = n - 1;
            let at = ready_bases[p] + (need % depth[p]) as usize;
            if slot_iter[at] == need as i64 {
                slot_death[at] = slot_death[at].max(cycle);
            }
        }
    }
    for (i, op) in d.ops.iter().enumerate() {
        if !op.defines {
            continue;
        }
        for rot in 0..depth[i] as usize {
            let at = ready_bases[i] + rot;
            if slot_iter[at] != i64::MIN {
                commit_span(&mut press_delta, slot_birth[at], slot_death[at], reg_slot[i]);
            }
        }
    }
    let mut cur = [0i64; 4];
    for deltas in &press_delta {
        for (c, &dlt) in deltas.iter().enumerate() {
            cur[c] += i64::from(dlt);
            report.observed_max_live[c] = report.observed_max_live[c].max(cur[c].max(0) as u32);
        }
    }
    pr.restore(mem, n);

    let outs = collect_liveouts(l, &d, |p, lane| {
        let pop = &d.ops[p];
        if n == 0 {
            return pop.init;
        }
        let need = n - 1;
        assert!(
            produced_up_to[p] >= need as i64,
            "live-out read before write: emission bug"
        );
        let slot = bases[p] + (need % depth[p]) as usize * pop.lanes as usize;
        ring[slot + if pop.lanes == 1 { 0 } else { lane }]
    });
    Ok((outs, report))
}
