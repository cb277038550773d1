//! The pre-decoded fast execution engine.
//!
//! The executors of this crate used to interpret [`Loop`]s directly:
//! operands were re-resolved on every read, loop-carried values lived in
//! unbounded per-op history vectors, and each lane read cloned a fresh
//! `Vec<Scalar>`. That made the oracle — which the differential fuzzer
//! runs tens of thousands of times per CI pass — the dominant cost of
//! verification.
//!
//! [`DecodedLoop`] lowers a loop **once**:
//!
//! * every operand becomes a dense [`DOperand`] — def uses carry the
//!   producer's index, live-ins (pure functions of their name) and
//!   constants fold to immediate [`Scalar`]s, induction-variable operands
//!   precompute their per-lane step;
//! * every op precomputes its produced lane count, its carried-init
//!   scalar, and its in-order ring-buffer *depth* — `1 + max
//!   loop-carried distance` over all uses of its value (the schedule
//!   executor in [`crate::sched_exec`] measures its own depths from the
//!   launch order);
//! * run-time state is one flat `Vec<Scalar>` ring arena (op `p`'s value
//!   for iteration `t` lives at `base[p] + (t mod depth[p])·lanes[p]`)
//!   plus a single reusable lane scratch buffer — the hot loop performs
//!   no allocation and no hashing.
//!
//! The **ring invariant**: a slot is only ever read at iteration
//! distances `d < depth`, so the producer's iteration `t` value is intact
//! until iteration `t + depth` overwrites it — by construction of the
//! depths above. The original interpreter survives verbatim in
//! [`crate::reference`]; `crates/sim/tests/engine_equiv.rs` and the
//! fuzzer's `--executed-selfcheck` mode prove both engines byte-identical.

use crate::interp::{apply_binary, apply_select, apply_unary, init_scalar, LiveOutValue};
use crate::memory::{Memory, Scalar};
use sv_ir::{Loop, OpKind, Operand, ScalarType, VectorForm};

/// A fully resolved operand: no name, live-in or def lookups remain.
pub(crate) enum DOperand {
    /// Value of op `op` (dense index), `distance` iterations ago.
    Def { op: u32, distance: u32 },
    /// Immediate (constants and live-ins fold here at decode time).
    Const(Scalar),
    /// Affine induction-variable function; `step` is the per-lane
    /// increment `scale / iter_scale`, precomputed.
    Iv { scale: i64, offset: i64, step: i64 },
}

/// Decoded memory reference.
pub(crate) struct DMem {
    array: u32,
    stride: i64,
    offset: i64,
    width: u32,
}

/// Fused execution class: the single hot-loop dispatch discriminant
/// (replaces re-deriving `OpKind::arity()` per op instance).
#[derive(Clone, Copy, PartialEq)]
pub(crate) enum DClass {
    Load,
    Store,
    Pack,
    Extract,
    Binary,
    Unary,
    Select,
}

/// One decoded operation.
pub(crate) struct DOp {
    pub(crate) kind: OpKind,
    pub(crate) class: DClass,
    pub(crate) ty: ScalarType,
    /// Whether the op *executes* in vector form (drives lane iteration).
    pub(crate) vector: bool,
    /// Whether the produced value is a vector (`Pack` always is, `Extract`
    /// never is, everything else follows its form).
    pub(crate) vec_value: bool,
    /// Produced lane count: 1 for scalar values, the memory width for
    /// vector loads, the operand count for `Pack`, `k` otherwise.
    pub(crate) lanes: u32,
    /// Operand range in the [`DecodedLoop::operands`] arena.
    pub(crate) o_start: u32,
    pub(crate) o_end: u32,
    pub(crate) mem: Option<DMem>,
    /// Pre-resolved carried-init scalar.
    pub(crate) init: Scalar,
    /// True when the op defines a value (everything but stores).
    pub(crate) defines: bool,
    /// In-order ring depth: `1 + max carried distance` over uses.
    pub(crate) depth: u32,
    /// In-order ring base offset into the flat arena.
    pub(crate) base: u32,
}

/// A loop lowered for fast execution. Construction is `O(ops + operands)`
/// and performed once per execution call; everything at run time is dense
/// indexing.
pub(crate) struct DecodedLoop {
    pub(crate) ops: Vec<DOp>,
    pub(crate) operands: Vec<DOperand>,
    /// The loop's vector width (`max(1)`); IV lane evaluation needs it.
    k: u32,
    /// Largest produced lane count (scratch buffer size).
    pub(crate) max_lanes: usize,
    /// Flat ring arena length for in-order execution.
    ring_len: usize,
}

impl DecodedLoop {
    pub(crate) fn new(l: &Loop) -> DecodedLoop {
        let k = l.vector_width.max(1);
        let n = l.ops.len();
        let mut depth = vec![1u32; n];
        for op in &l.ops {
            for (p, d) in op.def_uses() {
                depth[p.index()] = depth[p.index()].max(d + 1);
            }
        }
        let mut operands = Vec::new();
        let mut ops = Vec::with_capacity(n);
        let mut base = 0u32;
        let mut max_lanes = 1usize;
        for op in &l.ops {
            let vector = op.opcode.form == VectorForm::Vector;
            let o_start = operands.len() as u32;
            for o in &op.operands {
                operands.push(match *o {
                    Operand::Def { op, distance } => DOperand::Def { op: op.0, distance },
                    Operand::LiveIn(id) => {
                        let li = &l.live_ins[id.0 as usize];
                        DOperand::Const(Memory::live_in_value(&li.name, li.ty))
                    }
                    Operand::ConstI(v) => DOperand::Const(Scalar::I(v)),
                    Operand::ConstF(v) => DOperand::Const(Scalar::F(v)),
                    Operand::Iv { scale, offset } => DOperand::Iv {
                        scale,
                        offset,
                        step: scale / i64::from(l.iter_scale),
                    },
                });
            }
            let mem = op.mem.as_ref().map(|r| DMem {
                array: r.array.0,
                stride: r.stride,
                offset: r.offset,
                width: r.width,
            });
            let kind = op.opcode.kind;
            let class = match kind {
                OpKind::Load => DClass::Load,
                OpKind::Store => DClass::Store,
                OpKind::Pack => DClass::Pack,
                OpKind::Extract => DClass::Extract,
                OpKind::Select => DClass::Select,
                k if k.arity() == 2 => DClass::Binary,
                _ => DClass::Unary,
            };
            let vec_value = match kind {
                OpKind::Pack => true,
                OpKind::Extract => false,
                _ => vector,
            };
            let lanes = if !vec_value {
                1
            } else {
                match kind {
                    OpKind::Load => mem.as_ref().map_or(k, |m| m.width),
                    OpKind::Pack => op.operands.len() as u32,
                    _ => k,
                }
            };
            max_lanes = max_lanes.max(lanes as usize);
            let defines = kind.defines_value();
            let d = depth[op.id.index()];
            ops.push(DOp {
                kind,
                class,
                ty: op.opcode.ty,
                vector,
                vec_value,
                lanes,
                o_start,
                o_end: operands.len() as u32,
                mem,
                init: init_scalar(op.carried_init, op.opcode.ty),
                defines,
                depth: d,
                base,
            });
            if defines {
                base += d * lanes;
            }
        }
        DecodedLoop { ops, operands, k, max_lanes, ring_len: base as usize }
    }
}

/// An operand resolved *once per op instance* — ring slots, guard checks
/// and init fallbacks are all decided here, so per-lane reads inside the
/// op body are plain indexed loads.
#[derive(Clone, Copy)]
enum Src {
    /// Immediate: constants, live-ins and carried-init fallbacks.
    Imm(Scalar),
    /// Live ring value. `at` is lane 0's slot, `last` the final lane's
    /// (`at == last` ⟺ scalar value ⟹ lane reads broadcast).
    Slot { at: usize, last: usize },
    /// Induction variable: lane `j` is `base + min(j, last)·step`;
    /// `last` is 0 for scalar consumers (the broadcast rule) and
    /// `k − 1` for vector consumers (`.scalar()` reads the last lane).
    Iv { base: i64, step: i64, last: i64 },
}

/// Execute one decoded op instance. `resolve(p, dist)` maps a def read to
/// its producer's lane-0 ring slot (or `None` when the read predates the
/// run and observes the carried init); `abs` is the absolute iteration
/// for memory addressing and IV values; `rot(array)` is the extra
/// element offset renaming this instance's `iteration_private` accesses
/// into their per-iteration copy ([`crate::privrot::PrivRot::offset`] —
/// identically zero for in-order execution). The result is left in
/// `scratch[..lanes]`. Returns whether a result was produced (everything
/// but stores).
#[inline]
#[allow(clippy::too_many_arguments)] // internal hot-path dispatch: every arg is a distinct execution context piece
pub(crate) fn exec_op(
    d: &DecodedLoop,
    op: &DOp,
    abs: i64,
    mem: &mut Memory,
    ring: &[Scalar],
    scratch: &mut [Scalar],
    resolve: impl Fn(usize, u32) -> Option<usize>,
    rot: impl Fn(u32) -> i64,
) -> bool {
    let os = &d.operands[op.o_start as usize..op.o_end as usize];
    // IV operands evaluate per-lane only when the *consumer* is a vector
    // op (the reference interpreter's broadcast rule).
    let iv_last = if op.vector { i64::from(d.k) - 1 } else { 0 };
    let src_of = |o: &DOperand| -> Src {
        match *o {
            DOperand::Def { op: p, distance } => {
                let p = p as usize;
                match resolve(p, distance) {
                    Some(at) => Src::Slot { at, last: at + d.ops[p].lanes as usize - 1 },
                    None => Src::Imm(d.ops[p].init),
                }
            }
            DOperand::Const(s) => Src::Imm(s),
            DOperand::Iv { scale, offset, step } => {
                Src::Iv { base: scale * abs + offset, step, last: iv_last }
            }
        }
    };
    let lane_of = |s: Src, lane: usize| -> Scalar {
        match s {
            Src::Imm(v) => v,
            Src::Slot { at, last } => ring[if at == last { at } else { at + lane }],
            Src::Iv { base, step, last } => Scalar::I(base + (lane as i64).min(last) * step),
        }
    };
    let scalar_of = |s: Src| -> Scalar {
        match s {
            Src::Imm(v) => v,
            Src::Slot { last, .. } => ring[last],
            Src::Iv { base, step, last } => Scalar::I(base + last * step),
        }
    };
    match op.class {
        DClass::Load => {
            let m = op.mem.as_ref().expect("load has a memory ref");
            let b = m.stride * abs + m.offset + rot(m.array);
            if op.vec_value {
                for (j, s) in scratch.iter_mut().enumerate().take(m.width as usize) {
                    *s = mem.read(m.array, b + j as i64).coerce(op.ty);
                }
            } else {
                scratch[0] = mem.read(m.array, b).coerce(op.ty);
            }
            true
        }
        DClass::Store => {
            let m = op.mem.as_ref().expect("store has a memory ref");
            let b = m.stride * abs + m.offset + rot(m.array);
            let s0 = src_of(&os[0]);
            if op.vector {
                for j in 0..m.width as usize {
                    mem.write(m.array, b + j as i64, lane_of(s0, j));
                }
            } else {
                mem.write(m.array, b, scalar_of(s0));
            }
            false
        }
        DClass::Pack => {
            for (j, o) in os.iter().enumerate() {
                scratch[j] = scalar_of(src_of(o)).coerce(op.ty);
            }
            true
        }
        DClass::Extract => {
            let lane = scalar_of(src_of(&os[1])).as_i64() as usize;
            scratch[0] = lane_of(src_of(&os[0]), lane);
            true
        }
        DClass::Binary => {
            let s0 = src_of(&os[0]);
            let s1 = src_of(&os[1]);
            if op.vector {
                for (j, s) in scratch.iter_mut().enumerate().take(op.lanes as usize) {
                    *s = apply_binary(op.kind, op.ty, lane_of(s0, j), lane_of(s1, j));
                }
            } else {
                scratch[0] = apply_binary(op.kind, op.ty, scalar_of(s0), scalar_of(s1));
            }
            true
        }
        DClass::Unary => {
            let s0 = src_of(&os[0]);
            if op.vector {
                for (j, s) in scratch.iter_mut().enumerate().take(op.lanes as usize) {
                    *s = apply_unary(op.kind, op.ty, lane_of(s0, j));
                }
            } else {
                scratch[0] = apply_unary(op.kind, op.ty, scalar_of(s0));
            }
            true
        }
        DClass::Select => {
            let s0 = src_of(&os[0]);
            let s1 = src_of(&os[1]);
            let s2 = src_of(&os[2]);
            if op.vector {
                for (j, s) in scratch.iter_mut().enumerate().take(op.lanes as usize) {
                    *s = apply_select(op.ty, lane_of(s0, j), lane_of(s1, j), lane_of(s2, j));
                }
            } else {
                scratch[0] = apply_select(op.ty, scalar_of(s0), scalar_of(s1), scalar_of(s2));
            }
            true
        }
    }
}

/// Build the final [`LiveOutValue`]s from per-lane reads of each
/// live-out op's last value (`get_lane(op, lane)`).
pub(crate) fn collect_liveouts(
    l: &Loop,
    d: &DecodedLoop,
    get_lane: impl Fn(usize, usize) -> Scalar,
) -> Vec<LiveOutValue> {
    l.live_outs
        .iter()
        .map(|lo| {
            let p = lo.op.index();
            let pop = &d.ops[p];
            let value = if pop.vec_value {
                if let Some(kind) = lo.horizontal {
                    (1..pop.lanes as usize)
                        .fold(get_lane(p, 0), |a, j| apply_binary(kind, pop.ty, a, get_lane(p, j)))
                } else {
                    get_lane(p, pop.lanes as usize - 1)
                }
            } else {
                get_lane(p, 0)
            };
            LiveOutValue { name: lo.name.clone(), value, combine: lo.combine }
        })
        .collect()
}

/// Fast in-order execution: iterations `iters` of `l` against `mem`,
/// program order within each iteration. Semantically identical to
/// [`crate::reference::execute_loop`].
pub(crate) fn run_inorder(
    l: &Loop,
    mem: &mut Memory,
    iters: std::ops::Range<u64>,
) -> Vec<LiveOutValue> {
    let d = DecodedLoop::new(l);
    let mut ring = vec![Scalar::I(0); d.ring_len];
    let mut scratch = vec![Scalar::I(0); d.max_lanes];
    let count = iters.end.saturating_sub(iters.start);
    // Slot arithmetic: depth 1 (the overwhelmingly common case — no
    // carried use beyond the current iteration) skips the modulo.
    let slot_at = |pop: &DOp, t: u64| -> usize {
        let rot = if pop.depth == 1 { 0 } else { (t % u64::from(pop.depth)) as usize };
        pop.base as usize + rot * pop.lanes as usize
    };
    for local in 0..count {
        let abs = (iters.start + local) as i64;
        for op in &d.ops {
            let resolve = |p: usize, dist: u32| -> Option<usize> {
                if u64::from(dist) > local {
                    return None;
                }
                Some(slot_at(&d.ops[p], local - u64::from(dist)))
            };
            if exec_op(&d, op, abs, mem, &ring, &mut scratch, resolve, |_| 0) {
                let slot = slot_at(op, local);
                if op.lanes == 1 {
                    ring[slot] = scratch[0];
                } else {
                    let ln = op.lanes as usize;
                    ring[slot..slot + ln].copy_from_slice(&scratch[..ln]);
                }
            }
        }
    }
    collect_liveouts(l, &d, |p, lane| {
        let pop = &d.ops[p];
        if count == 0 {
            return pop.init; // carried read past the start observes init
        }
        let slot = pop.base as usize
            + ((count - 1) % u64::from(pop.depth)) as usize * pop.lanes as usize;
        ring[slot + if pop.lanes == 1 { 0 } else { lane }]
    })
}
