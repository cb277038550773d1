//! Widened scheduling windows — the paper's §6 future-work extension.
//!
//! Instead of unrolling by exactly the vector length and splitting
//! *operations* between partitions, unroll by a larger factor `u` and
//! assign *whole iterations*: iterations `u·i .. u·i+k` execute as one
//! vector instance, iterations `u·i+k .. u·i+u` as scalar lanes. Because
//! each original iteration runs entirely on one set of resources, **no
//! scalar↔vector communication is ever needed** — the extension's selling
//! point. The drawback the paper calls out is alignment: with `u` not a
//! multiple of `k`, the vector references alternate alignment from
//! iteration to iteration and must always be treated as misaligned.
//!
//! The transformation applies only to loops with no loop-carried
//! dependences shorter than the window (the paper's "in the absence of
//! loop-carried dependences"): every operation legally vectorizable, no
//! carried register operands, and no carried memory dependence of
//! distance < `u`.

use crate::error::TransformError;
use sv_analysis::{vectorizable_ops, DepGraph};
use sv_ir::{
    CarriedInit, Loop, MemRef, OpId, OpKind, Opcode, Operand, Operation, VectorForm,
};
use sv_machine::MachineConfig;

/// The widened-window transform of `src` with unroll factor `unroll`
/// (`unroll > vector_length`): `Ok(None)` when the loop is ineligible.
///
/// The result covers `unroll` original iterations per loop iteration:
/// one vector instance of every operation (iterations `0..k` of the
/// window) followed by `unroll − k` scalar instances, with no transfer
/// operations. Vector memory references are lowered as misaligned (merge
/// on the merge unit) because the window size breaks alignment, per the
/// paper's analysis.
///
/// # Errors
///
/// Returns [`TransformError::InvalidOutput`] if the transformed loop does
/// not verify.
pub fn try_widened_window_transform(
    src: &Loop,
    m: &MachineConfig,
    unroll: u32,
) -> Result<Option<Loop>, TransformError> {
    let k = m.vector_length;
    assert!(unroll > k, "window must exceed the vector length");
    let g = DepGraph::build(src);

    // Eligibility: fully data parallel at window granularity.
    let statuses = vectorizable_ops(src, &g, k);
    if !statuses.iter().all(|s| s.is_vectorizable()) {
        return Ok(None);
    }
    for op in &src.ops {
        if op.def_uses().any(|(_, d)| d >= 1) {
            return Ok(None); // carried register state crosses window lanes
        }
    }
    if g.edges().iter().any(|e| e.is_mem && (e.star || (1..unroll).contains(&e.distance))) {
        return Ok(None); // a carried memory dependence shorter than the window
    }

    let mut out = Loop::new(format!("{}.w{unroll}", src.name));
    out.arrays = src.arrays.clone();
    out.live_ins = src.live_ins.clone();
    out.trip = src.trip;
    out.invocations = src.invocations;
    out.allow_reassoc = src.allow_reassoc;
    out.iter_scale = src.iter_scale * unroll;
    out.vector_width = k;

    // Vector instances first (window lanes 0..k), in program order.
    let mut vec_id = vec![OpId(0); src.ops.len()];
    for op in &src.ops {
        let mut mem = None;
        let mut merged_value: Option<OpId> = None;
        if let Some(r) = &op.mem {
            debug_assert_eq!(r.stride, 1, "vectorizable refs are unit stride");
            mem = Some(MemRef {
                array: r.array,
                stride: i64::from(unroll),
                offset: r.offset,
                width: k,
            });
        }
        let vopc = op.opcode.with_form(VectorForm::Vector);
        match op.opcode.kind {
            OpKind::Load => {
                let load = out.push_op(Operation {
                    id: OpId(0),
                    opcode: vopc,
                    operands: vec![],
                    mem,
                    is_reduction: false,
                    carried_init: op.carried_init,
                });
                // Misaligned by construction: realign on the merge unit.
                let merge = out.push_op(Operation {
                    id: OpId(0),
                    opcode: Opcode::vector(OpKind::Merge, op.opcode.ty),
                    operands: vec![Operand::def(load)],
                    mem: None,
                    is_reduction: false,
                    carried_init: op.carried_init,
                });
                merged_value = Some(merge);
            }
            OpKind::Store => {
                let value = map_vec(&op.operands[0], &vec_id);
                let merge = out.push_op(Operation {
                    id: OpId(0),
                    opcode: Opcode::vector(OpKind::Merge, op.opcode.ty),
                    operands: vec![value],
                    mem: None,
                    is_reduction: false,
                    carried_init: CarriedInit::Zero,
                });
                out.push_op(Operation {
                    id: OpId(0),
                    opcode: vopc,
                    operands: vec![Operand::def(merge)],
                    mem,
                    is_reduction: false,
                    carried_init: CarriedInit::Zero,
                });
            }
            _ => {
                let operands = op
                    .operands
                    .iter()
                    .map(|o| map_vec_iv(o, &vec_id, unroll, 0))
                    .collect();
                let id = out.push_op(Operation {
                    id: OpId(0),
                    opcode: vopc,
                    operands,
                    mem: None,
                    is_reduction: false,
                    carried_init: op.carried_init,
                });
                merged_value = Some(id);
            }
        }
        if let Some(v) = merged_value {
            vec_id[op.id.index()] = v;
        }
    }

    // Scalar instances for window lanes k..unroll, iteration-major.
    let mut lane_id = vec![vec![OpId(0); src.ops.len()]; (unroll - k) as usize];
    for lane in k..unroll {
        let li = (lane - k) as usize;
        for op in &src.ops {
            let mem = op.mem.as_ref().map(|r| MemRef {
                array: r.array,
                stride: r.stride * i64::from(unroll),
                offset: r.offset + r.stride * i64::from(lane),
                width: 1,
            });
            let operands = op
                .operands
                .iter()
                .map(|o| match *o {
                    Operand::Def { op: p, distance } => {
                        debug_assert_eq!(distance, 0);
                        Operand::def(lane_id[li][p.index()])
                    }
                    Operand::Iv { scale, offset } => Operand::Iv {
                        scale: scale * i64::from(unroll),
                        offset: offset + scale * i64::from(lane),
                    },
                    other => other,
                })
                .collect();
            let id = out.push_op(Operation {
                id: OpId(0),
                opcode: op.opcode,
                operands,
                mem,
                is_reduction: false,
                carried_init: op.carried_init,
            });
            if op.defines_value() {
                lane_id[li][op.id.index()] = id;
            }
        }
    }

    for lo in &src.live_outs {
        out.live_outs.push(sv_ir::LiveOut {
            name: lo.name.clone(),
            op: lane_id[(unroll - k - 1) as usize][lo.op.index()],
            horizontal: None,
            combine: lo.combine,
        });
    }

    if let Err(e) = out.verify() {
        return Err(TransformError::InvalidOutput {
            transform: "widened-window",
            error: e,
            dump: out.to_string(),
        });
    }
    Ok(Some(out))
}

fn map_vec(o: &Operand, vec_id: &[OpId]) -> Operand {
    match *o {
        Operand::Def { op, distance } => {
            debug_assert_eq!(distance, 0);
            Operand::def(vec_id[op.index()])
        }
        other => other,
    }
}

fn map_vec_iv(o: &Operand, vec_id: &[OpId], unroll: u32, lane_base: i64) -> Operand {
    match *o {
        Operand::Def { .. } => map_vec(o, vec_id),
        Operand::Iv { scale, offset } => Operand::Iv {
            scale: scale * i64::from(unroll),
            offset: offset + scale * lane_base,
        },
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sv_ir::{LoopBuilder, ScalarType};

    fn axpy() -> Loop {
        let mut b = LoopBuilder::new("axpy");
        b.trip(99);
        let x = b.array("x", ScalarType::F64, 512);
        let y = b.array("y", ScalarType::F64, 512);
        let a = b.live_in("a", ScalarType::F64);
        let lx = b.load(x, 1, 0);
        let ly = b.load(y, 1, 0);
        let ax = b.fmul_li(a, lx);
        let s = b.fadd(ax, ly);
        b.store(y, 1, 0, s);
        b.finish()
    }

    #[test]
    fn widened_axpy_structure() {
        let m = MachineConfig::paper_default();
        let w = try_widened_window_transform(&axpy(), &m, 3).unwrap().expect("eligible");
        assert_eq!(w.iter_scale, 3);
        // Vector instances: 2 vloads + 2 merges + vmul + vadd + merge +
        // vstore = 8; scalar lane: 5 ops × 1 lane = 5.
        assert_eq!(w.ops.len(), 13);
        // No communication ops: every load/store addresses a program array.
        assert!(w.arrays.iter().all(|a| !a.iteration_private));
        // Vector refs advance 3 elements per iteration, cover 2.
        let vload = w.ops.iter().find(|o| o.opcode.is_vector() && o.mem.is_some()).unwrap();
        assert_eq!((vload.mem_ref().stride, vload.mem_ref().width), (3, 2));
        // Scalar lane refs sit at window offset 2.
        let slload = w
            .ops
            .iter()
            .find(|o| !o.opcode.is_vector() && o.opcode.kind == OpKind::Load)
            .unwrap();
        assert_eq!(slload.mem_ref().offset, 2);
    }

    #[test]
    fn reductions_are_ineligible() {
        let mut b = LoopBuilder::new("dot");
        let x = b.array("x", ScalarType::F64, 64);
        let lx = b.load(x, 1, 0);
        b.reduce_add(lx);
        let l = b.finish();
        let m = MachineConfig::paper_default();
        assert!(try_widened_window_transform(&l, &m, 3).unwrap().is_none());
    }

    #[test]
    fn short_memory_recurrences_are_ineligible() {
        let mut b = LoopBuilder::new("rec");
        let a = b.array("a", ScalarType::F64, 64);
        let la = b.load(a, 1, 0);
        let n = b.fneg(la);
        b.store(a, 1, 2, n); // distance 2 < window 3
        let l = b.finish();
        let m = MachineConfig::paper_default();
        assert!(try_widened_window_transform(&l, &m, 3).unwrap().is_none());
        // Distance ≥ the window is fine.
        let mut b = LoopBuilder::new("rec4");
        let a = b.array("a", ScalarType::F64, 64);
        let la = b.load(a, 1, 0);
        let n = b.fneg(la);
        b.store(a, 1, 4, n);
        let l = b.finish();
        assert!(try_widened_window_transform(&l, &m, 3).unwrap().is_some());
    }
}
