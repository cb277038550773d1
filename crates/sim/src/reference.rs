//! The original (slow) in-order interpreter, retained verbatim as the
//! reference semantics for the pre-decoded fast engine in
//! [`crate::decoded`] and for the cycle-accurate schedule executor.
//!
//! | reference        | checked against                                           |
//! |------------------|-----------------------------------------------------------|
//! | [`execute_loop`] | [`crate::execute_loop`], [`crate::execute_schedule`]      |
//! | [`run_source`]   | [`crate::run_source`]                                     |
//! | [`run_compiled`] | [`crate::run_compiled`], [`crate::run_compiled_executed`] |
//!
//! These paths are *not* dead weight: `crates/sim/tests/engine_equiv.rs`
//! and the fuzzer's `--executed-selfcheck` mode (see
//! [`crate::oracle_selfcheck`] and [`crate::executed_selfcheck`]) execute
//! both sides on every case and demand bit-identical live-outs and
//! memory. Keep changes to this module semantic-free.

use crate::interp::{apply_binary, apply_select, apply_unary, init_scalar, LiveOutValue, Value};
use crate::memory::{Memory, Scalar};
use crate::run::RunResult;
use sv_core::CompiledLoop;
use sv_ir::{Loop, OpKind, Operand, Operation, VectorForm};

struct Interp<'a> {
    l: &'a Loop,
    /// Per-op value history; `history[op][local_iter % depth]`.
    history: Vec<Vec<Value>>,
    depth: Vec<usize>,
    k: u32,
}

impl<'a> Interp<'a> {
    fn new(l: &'a Loop) -> Interp<'a> {
        let n = l.ops.len();
        let mut depth = vec![1usize; n];
        for op in &l.ops {
            for (p, d) in op.def_uses() {
                let need = d as usize + 1;
                if depth[p.index()] < need {
                    depth[p.index()] = need;
                }
            }
        }
        let history = depth.iter().map(|&d| Vec::with_capacity(d)).collect();
        Interp { l, history, depth, k: l.vector_width.max(1) }
    }

    /// The value `op` defined `dist` iterations before local iteration
    /// `local`, or its init value when that predates the run.
    fn read_def(&self, op: usize, dist: u32, local: u64) -> Value {
        if u64::from(dist) > local {
            let o = &self.l.ops[op];
            let init = init_scalar(o.carried_init, o.opcode.ty);
            return match o.opcode.form {
                VectorForm::Scalar => Value::S(init),
                VectorForm::Vector => Value::V(vec![init; self.k as usize]),
            };
        }
        let idx = ((local - u64::from(dist)) % self.depth[op] as u64) as usize;
        self.history[op][idx].clone()
    }

    fn eval_operand(&self, o: &Operand, consumer: &Operation, local: u64, abs_iter: u64) -> Value {
        match *o {
            Operand::Def { op, distance } => self.read_def(op.index(), distance, local),
            Operand::LiveIn(id) => {
                let li = &self.l.live_ins[id.0 as usize];
                Value::S(Memory::live_in_value(&li.name, li.ty))
            }
            Operand::ConstI(v) => Value::S(Scalar::I(v)),
            Operand::ConstF(v) => Value::S(Scalar::F(v)),
            Operand::Iv { scale, offset } => {
                if consumer.opcode.form == VectorForm::Vector {
                    // One lane advances one *original* iteration, i.e.
                    // scale / iter_scale elements of the affine function.
                    let step = scale / i64::from(self.l.iter_scale);
                    Value::V(
                        (0..self.k as i64)
                            .map(|lane| {
                                Scalar::I(scale * abs_iter as i64 + offset + lane * step)
                            })
                            .collect(),
                    )
                } else {
                    Value::S(Scalar::I(scale * abs_iter as i64 + offset))
                }
            }
        }
    }

    fn exec_op(&mut self, op: &Operation, mem: &mut Memory, local: u64, abs_iter: u64) {
        let ty = op.opcode.ty;
        let vector = op.opcode.form == VectorForm::Vector;
        let operands: Vec<Value> = op
            .operands
            .iter()
            .map(|o| self.eval_operand(o, op, local, abs_iter))
            .collect();
        let result: Option<Value> = match op.opcode.kind {
            OpKind::Load => {
                let r = op.mem_ref();
                let base = r.stride * abs_iter as i64 + r.offset;
                if vector {
                    let lanes = (0..r.width as i64)
                        .map(|j| mem.read(r.array.0, base + j).coerce(ty))
                        .collect();
                    Some(Value::V(lanes))
                } else {
                    Some(Value::S(mem.read(r.array.0, base).coerce(ty)))
                }
            }
            OpKind::Store => {
                let r = op.mem_ref();
                let base = r.stride * abs_iter as i64 + r.offset;
                if vector {
                    let lanes = operands[0].lanes(r.width as usize);
                    for (j, v) in lanes.into_iter().enumerate() {
                        mem.write(r.array.0, base + j as i64, v);
                    }
                } else {
                    mem.write(r.array.0, base, operands[0].scalar());
                }
                None
            }
            OpKind::Pack => {
                let lanes = operands.iter().map(|v| v.scalar().coerce(ty)).collect();
                Some(Value::V(lanes))
            }
            OpKind::Extract => {
                let lane = operands[1].scalar().as_i64() as usize;
                let lanes = operands[0].lanes(self.k as usize);
                Some(Value::S(lanes[lane]))
            }
            OpKind::Select => {
                if vector {
                    let c = operands[0].lanes(self.k as usize);
                    let a = operands[1].lanes(self.k as usize);
                    let b = operands[2].lanes(self.k as usize);
                    Some(Value::V(
                        (0..self.k as usize)
                            .map(|j| apply_select(ty, c[j], a[j], b[j]))
                            .collect(),
                    ))
                } else {
                    Some(Value::S(apply_select(
                        ty,
                        operands[0].scalar(),
                        operands[1].scalar(),
                        operands[2].scalar(),
                    )))
                }
            }
            kind if kind.arity() == 2 => {
                if vector {
                    let a = operands[0].lanes(self.k as usize);
                    let b = operands[1].lanes(self.k as usize);
                    Some(Value::V(
                        a.into_iter()
                            .zip(b)
                            .map(|(x, y)| apply_binary(kind, ty, x, y))
                            .collect(),
                    ))
                } else {
                    Some(Value::S(apply_binary(
                        kind,
                        ty,
                        operands[0].scalar(),
                        operands[1].scalar(),
                    )))
                }
            }
            kind => {
                if vector {
                    let a = operands[0].lanes(self.k as usize);
                    Some(Value::V(
                        a.into_iter().map(|x| apply_unary(kind, ty, x)).collect(),
                    ))
                } else {
                    Some(Value::S(apply_unary(kind, ty, operands[0].scalar())))
                }
            }
        };
        let slot = (local % self.depth[op.id.index()] as u64) as usize;
        let value = result.unwrap_or(Value::S(Scalar::I(0)));
        let hist = &mut self.history[op.id.index()];
        if hist.len() <= slot {
            hist.resize(slot + 1, value.clone());
        }
        hist[slot] = value;
    }
}

/// Reference in-order execution of iterations `iters` of `l` against
/// `mem` — the original history-vector interpreter behind
/// [`crate::execute_loop`].
pub fn execute_loop(
    l: &Loop,
    mem: &mut Memory,
    iters: std::ops::Range<u64>,
) -> Vec<LiveOutValue> {
    let mut interp = Interp::new(l);
    let count = iters.end.saturating_sub(iters.start);
    for local in 0..count {
        let abs = iters.start + local;
        for op in &l.ops {
            interp.exec_op(op, mem, local, abs);
        }
    }
    l.live_outs
        .iter()
        .map(|lo| {
            let v = if count == 0 {
                interp.read_def(lo.op.index(), 1, 0)
            } else {
                interp.read_def(lo.op.index(), 0, count - 1)
            };
            let ty = l.ops[lo.op.index()].opcode.ty;
            let value = match (&v, lo.horizontal) {
                (Value::V(lanes), Some(kind)) => lanes
                    .iter()
                    .copied()
                    .reduce(|a, b| apply_binary(kind, ty, a, b))
                    .expect("non-empty lanes"),
                (Value::V(lanes), None) => *lanes.last().expect("non-empty lanes"),
                (Value::S(s), _) => *s,
            };
            LiveOutValue { name: lo.name.clone(), value, combine: lo.combine }
        })
        .collect()
}

/// Reference twin of [`crate::run_source`].
pub fn run_source(l: &Loop) -> RunResult {
    crate::run::run_source_with(l, execute_loop)
}

/// Reference twin of [`crate::run_compiled`].
pub fn run_compiled(c: &CompiledLoop) -> RunResult {
    crate::run::run_compiled_with(c, execute_loop)
}
