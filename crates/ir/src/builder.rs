//! Ergonomic construction of loops.

use crate::mem::{ArrayDecl, ArrayId, MemRef};
use crate::op::{CarriedInit, CmpPred, OpId, OpKind, Opcode, Operand, Operation, VectorForm};
use crate::program::{LiveIn, LiveInId, LiveOut, Loop, TripCount};
use crate::types::ScalarType;
use crate::verify::VerifyError;

/// Builder for [`Loop`]s in scalar source form.
///
/// The builder emits operations in program order and wires operands by the
/// [`OpId`]s it returns. Every arithmetic helper has an `f`-prefixed `f64`
/// variant and an `i`-prefixed `i64` variant; `op` is the fully general
/// entry point.
///
/// ```
/// use sv_ir::{LoopBuilder, ScalarType};
///
/// // y[i] = a * x[i] + y[i]  (daxpy)
/// let mut b = LoopBuilder::new("daxpy");
/// let x = b.array("x", ScalarType::F64, 1000);
/// let y = b.array("y", ScalarType::F64, 1000);
/// let a = b.live_in("a", ScalarType::F64);
/// let lx = b.load(x, 1, 0);
/// let ly = b.load(y, 1, 0);
/// let ax = b.fmul_li(a, lx);
/// let s = b.fadd(ax, ly);
/// b.store(y, 1, 0, s);
/// let l = b.finish();
/// assert!(l.verify().is_ok());
/// ```
#[derive(Debug)]
pub struct LoopBuilder {
    looop: Loop,
}

impl LoopBuilder {
    /// Start building a loop with the given name.
    pub fn new(name: impl Into<String>) -> LoopBuilder {
        LoopBuilder { looop: Loop::new(name) }
    }

    /// Set the trip count (runtime-known by default).
    pub fn trip(&mut self, count: u64) -> &mut Self {
        self.looop.trip = TripCount::runtime(count);
        self
    }

    /// Set a compile-time-known trip count.
    pub fn trip_known(&mut self, count: u64) -> &mut Self {
        self.looop.trip = TripCount::known(count);
        self
    }

    /// Set how many times the loop is invoked over the program run.
    pub fn invocations(&mut self, n: u64) -> &mut Self {
        self.looop.invocations = n;
        self
    }

    /// Allow floating-point reassociation (vectorizable reductions).
    pub fn allow_reassoc(&mut self, yes: bool) -> &mut Self {
        self.looop.allow_reassoc = yes;
        self
    }

    /// Declare an array of `len` elements.
    pub fn array(&mut self, name: impl Into<String>, ty: ScalarType, len: u64) -> ArrayId {
        self.looop.push_array(ArrayDecl::plain(name, ty, len))
    }

    /// Declare an array whose base is *not* vector aligned (base offset of
    /// one element), for modeling statically misaligned streams.
    pub fn array_misaligned(
        &mut self,
        name: impl Into<String>,
        ty: ScalarType,
        len: u64,
    ) -> ArrayId {
        let mut d = ArrayDecl::plain(name, ty, len);
        d.base_align = ty.size_bytes();
        self.looop.push_array(d)
    }

    /// Declare a loop-invariant live-in value.
    pub fn live_in(&mut self, name: impl Into<String>, ty: ScalarType) -> LiveInId {
        self.looop.push_live_in(LiveIn { name: name.into(), ty })
    }

    /// Emit a scalar load `array[stride*i + offset]`.
    pub fn load(&mut self, array: ArrayId, stride: i64, offset: i64) -> OpId {
        let ty = self.looop.array(array).ty;
        self.push(
            Opcode::scalar(OpKind::Load, ty),
            vec![],
            Some(MemRef::scalar(array, stride, offset)),
            false,
        )
    }

    /// Emit a scalar store `array[stride*i + offset] = value`.
    pub fn store(&mut self, array: ArrayId, stride: i64, offset: i64, value: OpId) -> OpId {
        let ty = self.looop.array(array).ty;
        self.push(
            Opcode::scalar(OpKind::Store, ty),
            vec![Operand::def(value)],
            Some(MemRef::scalar(array, stride, offset)),
            false,
        )
    }

    /// Emit a binary f64 operation.
    pub fn fbin(&mut self, kind: OpKind, a: OpId, b: OpId) -> OpId {
        self.bin(kind, ScalarType::F64, Operand::def(a), Operand::def(b))
    }

    /// Emit a binary i64 operation.
    pub fn ibin(&mut self, kind: OpKind, a: OpId, b: OpId) -> OpId {
        self.bin(kind, ScalarType::I64, Operand::def(a), Operand::def(b))
    }

    /// `a + b` on f64.
    pub fn fadd(&mut self, a: OpId, b: OpId) -> OpId {
        self.fbin(OpKind::Add, a, b)
    }

    /// `a - b` on f64.
    pub fn fsub(&mut self, a: OpId, b: OpId) -> OpId {
        self.fbin(OpKind::Sub, a, b)
    }

    /// `a * b` on f64.
    pub fn fmul(&mut self, a: OpId, b: OpId) -> OpId {
        self.fbin(OpKind::Mul, a, b)
    }

    /// `a / b` on f64.
    pub fn fdiv(&mut self, a: OpId, b: OpId) -> OpId {
        self.fbin(OpKind::Div, a, b)
    }

    /// `-a` on f64.
    pub fn fneg(&mut self, a: OpId) -> OpId {
        self.unary(OpKind::Neg, ScalarType::F64, a)
    }

    /// `|a|` on f64.
    pub fn fabs(&mut self, a: OpId) -> OpId {
        self.unary(OpKind::Abs, ScalarType::F64, a)
    }

    /// `sqrt(a)` on f64.
    pub fn fsqrt(&mut self, a: OpId) -> OpId {
        self.unary(OpKind::Sqrt, ScalarType::F64, a)
    }

    /// `a * b` on i64.
    pub fn imul(&mut self, a: OpId, b: OpId) -> OpId {
        self.ibin(OpKind::Mul, a, b)
    }

    /// Live-in × def binary op on the live-in's type.
    pub fn fmul_li(&mut self, a: LiveInId, b: OpId) -> OpId {
        let ty = self.looop.live_ins[a.0 as usize].ty;
        self.bin(OpKind::Mul, ty, Operand::LiveIn(a), Operand::def(b))
    }

    /// Binary op with fully general operands.
    pub fn bin(&mut self, kind: OpKind, ty: ScalarType, a: Operand, b: Operand) -> OpId {
        debug_assert_eq!(kind.arity(), 2);
        self.push(Opcode::scalar(kind, ty), vec![a, b], None, false)
    }

    /// Unary op.
    pub fn unary(&mut self, kind: OpKind, ty: ScalarType, a: OpId) -> OpId {
        debug_assert_eq!(kind.arity(), 1);
        self.push(Opcode::scalar(kind, ty), vec![Operand::def(a)], None, false)
    }

    /// Emit an ordered comparison `a <pred> b` producing 0/1 in `ty`.
    pub fn cmp(&mut self, pred: CmpPred, ty: ScalarType, a: Operand, b: Operand) -> OpId {
        self.bin(OpKind::Cmp(pred), ty, a, b)
    }

    /// `a < b` on two defs, producing a 0/1 value of their type.
    pub fn fcmplt(&mut self, a: OpId, b: OpId) -> OpId {
        self.cmp(CmpPred::Lt, ScalarType::F64, Operand::def(a), Operand::def(b))
    }

    /// Emit a conditional move `cond != 0 ? a : b` in `ty`.
    pub fn select(&mut self, ty: ScalarType, cond: Operand, a: Operand, b: Operand) -> OpId {
        self.push(
            Opcode::scalar(OpKind::Select, ty),
            vec![cond, a, b],
            None,
            false,
        )
    }

    /// Select over three defs on f64.
    pub fn fselect(&mut self, cond: OpId, a: OpId, b: OpId) -> OpId {
        self.select(
            ScalarType::F64,
            Operand::def(cond),
            Operand::def(a),
            Operand::def(b),
        )
    }

    /// `r = cond ? value : r@1` — a select-carried first-order recurrence
    /// (argmax-style index tracking: the carried value survives until the
    /// condition next fires). Starts at zero.
    pub fn select_recurrence(&mut self, ty: ScalarType, cond: Operand, value: Operand) -> OpId {
        let id = OpId(self.looop.ops.len() as u32);
        let op = Operation {
            id,
            opcode: Opcode::scalar(OpKind::Select, ty),
            operands: vec![cond, value, Operand::carried(id, 1)],
            mem: None,
            is_reduction: false,
            carried_init: CarriedInit::Zero,
        };
        self.looop.push_op(op)
    }

    /// Emit the accumulation op of a reduction `s = s ⊕ value` (f64 sum by
    /// default via [`LoopBuilder::reduce_add`]) and register `s` as a
    /// live-out named after the op.
    pub fn reduce(&mut self, kind: OpKind, ty: ScalarType, value: OpId) -> OpId {
        assert!(kind.is_reduction_kind(), "{kind:?} is not a reduction kind");
        let id = OpId(self.looop.ops.len() as u32);
        let op = Operation {
            id,
            opcode: Opcode::scalar(kind, ty),
            operands: vec![Operand::carried(id, 1), Operand::def(value)],
            mem: None,
            is_reduction: true,
            carried_init: CarriedInit::identity_for(kind),
        };
        let id = self.looop.push_op(op);
        self.looop.live_outs.push(LiveOut {
            name: format!("red{}", id.0),
            op: id,
            horizontal: None,
            combine: Some(kind),
        });
        id
    }

    /// `s += value` reduction on f64.
    pub fn reduce_add(&mut self, value: OpId) -> OpId {
        self.reduce(OpKind::Add, ScalarType::F64, value)
    }

    /// Emit a first-order recurrence `t = f(t@-1, value)`; such ops sit on a
    /// distance-1 dependence cycle and are never vectorizable. Returns the
    /// op id. `kind` need not be associative (e.g. `Sub`, `Div`, `Mul`).
    /// The carried value starts at the kind's identity (1 for `Mul`, 0
    /// otherwise) so multiplicative chains are not degenerate.
    pub fn recurrence(&mut self, kind: OpKind, ty: ScalarType, value: OpId) -> OpId {
        debug_assert_eq!(kind.arity(), 2);
        let id = OpId(self.looop.ops.len() as u32);
        let op = Operation {
            id,
            opcode: Opcode::scalar(kind, ty),
            operands: vec![Operand::carried(id, 1), Operand::def(value)],
            mem: None,
            is_reduction: false,
            carried_init: CarriedInit::identity_for(kind),
        };
        self.looop.push_op(op)
    }

    /// Fully general push. `opcode.form` may be vector for use by the
    /// transformation passes.
    pub fn push(
        &mut self,
        opcode: Opcode,
        operands: Vec<Operand>,
        mem: Option<MemRef>,
        is_reduction: bool,
    ) -> OpId {
        debug_assert!(
            opcode.form == VectorForm::Scalar || mem.is_none() || mem.unwrap().width > 0
        );
        self.looop.push_op(Operation {
            id: OpId(0),
            opcode,
            operands,
            mem,
            is_reduction,
            carried_init: if is_reduction {
                CarriedInit::identity_for(opcode.kind)
            } else {
                CarriedInit::Zero
            },
        })
    }

    /// Register a value as a live-out under `name`.
    pub fn live_out(&mut self, name: impl Into<String>, op: OpId) -> &mut Self {
        self.looop.live_outs.push(LiveOut {
            name: name.into(),
            op,
            horizontal: None,
            combine: None,
        });
        self
    }

    /// Finish, returning the loop.
    ///
    /// # Panics
    ///
    /// Panics if the built loop fails verification — a builder bug in the
    /// caller. [`LoopBuilder::try_finish`] reports the same condition as
    /// an error.
    pub fn finish(self) -> Loop {
        let name = self.looop.name.clone();
        match self.try_finish() {
            Ok(l) => l,
            Err(e) => panic!("LoopBuilder produced an invalid loop `{name}`: {e}"),
        }
    }

    /// Finish, verifying the loop and returning the verifier's complaint
    /// instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns the first [`VerifyError`] in the built loop.
    pub fn try_finish(self) -> Result<Loop, VerifyError> {
        self.looop.verify()?;
        Ok(self.looop)
    }

    /// Finish without verifying — for callers that patch operands
    /// afterwards (e.g. the expression frontend's carried-read holes) and
    /// run [`Loop::verify`] themselves.
    pub fn finish_unchecked(self) -> Loop {
        self.looop
    }

    /// Access the loop under construction without verifying.
    pub fn as_loop(&self) -> &Loop {
        &self.looop
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_dot_product() {
        let mut b = LoopBuilder::new("dot");
        let x = b.array("x", ScalarType::F64, 64);
        let y = b.array("y", ScalarType::F64, 64);
        let lx = b.load(x, 1, 0);
        let ly = b.load(y, 1, 0);
        let m = b.fmul(lx, ly);
        let s = b.reduce_add(m);
        let l = b.finish();
        assert_eq!(l.ops.len(), 4);
        assert!(l.ops[s.index()].is_reduction);
        assert_eq!(l.live_outs.len(), 1);
        assert_eq!(l.live_outs[0].op, s);
    }

    #[test]
    fn recurrence_is_not_reduction() {
        let mut b = LoopBuilder::new("rec");
        let x = b.array("x", ScalarType::F64, 64);
        let lx = b.load(x, 1, 0);
        let r = b.recurrence(OpKind::Sub, ScalarType::F64, lx);
        b.store(x, 1, 0, r);
        let l = b.finish();
        assert!(!l.ops[r.index()].is_reduction);
        assert_eq!(l.ops[r.index()].operands[0].def_op(), Some((r, 1)));
    }

    #[test]
    #[should_panic(expected = "not a reduction kind")]
    fn reduce_rejects_nonassociative_kind() {
        let mut b = LoopBuilder::new("bad");
        let x = b.array("x", ScalarType::F64, 64);
        let lx = b.load(x, 1, 0);
        b.reduce(OpKind::Sub, ScalarType::F64, lx);
    }

    #[test]
    fn misaligned_array_base() {
        let mut b = LoopBuilder::new("mis");
        let x = b.array_misaligned("x", ScalarType::F64, 64);
        assert_eq!(b.as_loop().array(x).base_align, 8);
    }

    #[test]
    fn trip_and_invocations() {
        let mut b = LoopBuilder::new("meta");
        b.trip_known(128).invocations(7);
        let x = b.array("x", ScalarType::F64, 128);
        let lx = b.load(x, 1, 0);
        b.store(x, 1, 0, lx);
        let l = b.finish();
        assert_eq!(l.trip, TripCount::known(128));
        assert_eq!(l.invocations, 7);
    }
}
