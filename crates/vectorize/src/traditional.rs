//! Traditional (Allen–Kennedy) vectorization: loop distribution with typed
//! fusion and scalar expansion (paper §4.1, the "traditional" technique).
//!
//! The loop's dependence-graph condensation is walked in topological order;
//! each strongly connected component is *vector* (every member legal and
//! profitable) or *scalar*, and components are greedily fused into the
//! earliest compatible loop — the loop-fusion mitigation the paper applies
//! to keep the number of distributed loops down. Values flowing between
//! distributed loops are scalar-expanded through memory temporaries; the
//! extra stores and loads compete for the machine's memory units, which is
//! a large part of why distribution loses on ILP machines.

use crate::error::TransformError;
use crate::neighbor::apply_neighbor_rule;
use crate::transform::try_transform;
use sv_analysis::{strongly_connected_components, vectorizable_ops, DepGraph};
use sv_ir::{
    ArrayDecl, ArrayFill, ArrayId, CarriedInit, Loop, MemRef, OpId, OpKind, Opcode,
    Operand, Operation,
};
use sv_machine::MachineConfig;
use std::collections::HashMap;

/// One distributed loop: its scalar form and, for vector loops, the
/// vectorized form (the scalar form doubles as the remainder/cleanup loop).
#[derive(Debug, Clone)]
pub struct DistLoop {
    /// The distributed loop before vectorization (`iter_scale == 1`).
    pub scalar_form: Loop,
    /// The vectorized loop (`iter_scale == vl`) for vector-typed loops.
    pub vectorized: Option<Loop>,
}

impl DistLoop {
    /// The loop that actually executes the bulk iterations.
    pub fn main_loop(&self) -> &Loop {
        self.vectorized.as_ref().unwrap_or(&self.scalar_form)
    }

    /// True for vector loops.
    pub fn is_vector(&self) -> bool {
        self.vectorized.is_some()
    }
}

/// The output of the traditional vectorizer: a sequence of loops executed
/// back to back per invocation of the original loop.
#[derive(Debug, Clone)]
pub struct DistributedLoops {
    /// The distributed loops in execution order.
    pub loops: Vec<DistLoop>,
    /// Number of scalar-expansion temporaries created.
    pub expansion_arrays: usize,
}

/// Distribute and vectorize `src` in the classic style.
///
/// ```
/// use sv_ir::{LoopBuilder, ScalarType};
/// use sv_machine::MachineConfig;
/// use sv_vectorize::try_traditional_vectorize;
///
/// // Mixed loop: vectorizable multiply feeding a sequential reduction.
/// let mut b = LoopBuilder::new("dot");
/// let x = b.array("x", ScalarType::F64, 64);
/// let lx = b.load(x, 1, 0);
/// let sq = b.fmul(lx, lx);
/// b.reduce_add(sq);
/// let l = b.finish();
///
/// let d = try_traditional_vectorize(&l, &MachineConfig::paper_default()).unwrap();
/// // Distribution: a vector loop and a scalar reduction loop, linked by
/// // a scalar-expansion temporary.
/// assert_eq!(d.loops.len(), 2);
/// assert!(d.loops[0].is_vector());
/// assert_eq!(d.expansion_arrays, 1);
/// ```
///
/// # Errors
///
/// Returns an error when a distributed loop fails IR verification or the
/// per-loop vectorization of a vector loop fails (both internal bugs,
/// reported with a dump of the offending loop).
pub fn try_traditional_vectorize(
    src: &Loop,
    m: &MachineConfig,
) -> Result<DistributedLoops, TransformError> {
    let g = DepGraph::build(src);
    let sccs = strongly_connected_components(&g);
    let statuses = vectorizable_ops(src, &g, m.vector_length);
    let part = apply_neighbor_rule(src, &g, &statuses);

    let comps = sccs.components();
    let n_comps = comps.len();
    let comp_vector: Vec<bool> = comps
        .iter()
        .map(|c| c.iter().all(|op| part[op.index()]))
        .collect();

    // Typed greedy fusion: place each component (topological order) in the
    // earliest loop of its type that is not earlier than any loop holding a
    // predecessor component.
    let mut loop_of_comp = vec![usize::MAX; n_comps];
    let mut loop_types: Vec<bool> = Vec::new();
    for c in 0..n_comps {
        let mut minpos = 0usize;
        for op in &comps[c] {
            for e in g.pred_edges(*op) {
                let pc = sccs.component_of(e.src) as usize;
                if pc != c {
                    minpos = minpos.max(loop_of_comp[pc]);
                }
            }
        }
        let slot = (minpos..loop_types.len()).find(|&i| loop_types[i] == comp_vector[c]);
        let idx = match slot {
            Some(i) => i,
            None => {
                loop_types.push(comp_vector[c]);
                loop_types.len() - 1
            }
        };
        loop_of_comp[c] = idx;
    }
    let n_loops = loop_types.len();
    let loop_of_op =
        |op: OpId| -> usize { loop_of_comp[sccs.component_of(op) as usize] };

    // Crossing register-dataflow uses need scalar expansion. Collect the
    // producers and the maximum carried distance each is read at.
    let mut expansion: HashMap<u32, u32> = HashMap::new(); // producer -> max d
    for op in &src.ops {
        for (p, d) in op.def_uses() {
            if p != op.id && loop_of_op(p) != loop_of_op(op.id) {
                let e = expansion.entry(p.0).or_insert(0);
                *e = (*e).max(d);
            }
        }
    }
    let mut producers: Vec<u32> = expansion.keys().copied().collect();
    producers.sort_unstable();

    // Extended array table shared by every distributed loop.
    let mut arrays = src.arrays.clone();
    let mut temp_array: HashMap<u32, (ArrayId, i64)> = HashMap::new(); // producer -> (array, pad)
    for &p in &producers {
        let op = &src.ops[p as usize];
        let pad = i64::from(expansion[&p]) + i64::from(m.vector_length);
        let fill = match op.carried_init {
            CarriedInit::Zero => ArrayFill::Zero,
            CarriedInit::One => ArrayFill::One,
            CarriedInit::PosInf => ArrayFill::PosInf,
            CarriedInit::NegInf => ArrayFill::NegInf,
        };
        let id = ArrayId(arrays.len() as u32);
        arrays.push(ArrayDecl {
            name: format!("expand{p}"),
            ty: op.opcode.ty,
            len: src.trip.count + pad as u64 + u64::from(m.vector_length),
            base_align: u64::from(m.vector_length) * op.opcode.ty.size_bytes(),
            iteration_private: false,
            fill,
        });
        temp_array.insert(p, (id, pad));
    }

    // Build each distributed loop.
    let mut out_loops = Vec::with_capacity(n_loops);
    for li in 0..n_loops {
        let members: Vec<usize> = (0..src.ops.len())
            .filter(|&i| loop_of_op(OpId(i as u32)) == li)
            .collect();
        let mut l = Loop::new(format!("{}.d{li}", src.name));
        l.arrays = arrays.clone();
        l.live_ins = src.live_ins.clone();
        l.trip = src.trip;
        l.invocations = src.invocations;
        l.allow_reassoc = src.allow_reassoc;

        // Loads for values produced in earlier loops, one per (producer,
        // distance) used here.
        let mut incoming: Vec<(u32, u32)> = Vec::new();
        for &i in &members {
            for (p, d) in src.ops[i].def_uses() {
                if p.index() != i && loop_of_op(p) != li && !incoming.contains(&(p.0, d)) {
                    incoming.push((p.0, d));
                }
            }
        }
        incoming.sort_unstable();
        let mut load_id: HashMap<(u32, u32), OpId> = HashMap::new();
        for &(p, d) in &incoming {
            let (arr, pad) = temp_array[&p];
            let id = l.push_op(Operation {
                id: OpId(0),
                opcode: Opcode::scalar(OpKind::Load, src.ops[p as usize].opcode.ty),
                operands: vec![],
                mem: Some(MemRef::scalar(arr, 1, pad - i64::from(d))),
                is_reduction: false,
                carried_init: CarriedInit::Zero,
            });
            load_id.insert((p, d), id);
        }

        // The member operations, with operands remapped. Ids are known up
        // front (loads first, then members in order) so carried *forward*
        // references within a recurrence component resolve too.
        let mut new_id: HashMap<u32, OpId> = HashMap::new();
        for (pos, &i) in members.iter().enumerate() {
            new_id.insert(i as u32, OpId((l.ops.len() + pos) as u32));
        }
        for &i in &members {
            let op = &src.ops[i];
            let operands: Vec<Operand> = op
                .operands
                .iter()
                .map(|o| match *o {
                    Operand::Def { op: p, distance } => {
                        if p.index() == i || loop_of_op(p) == li {
                            Operand::Def { op: new_id[&p.0], distance }
                        } else {
                            Operand::def(load_id[&(p.0, distance)])
                        }
                    }
                    other => other,
                })
                .collect();
            l.push_op(Operation {
                id: OpId(0),
                opcode: op.opcode,
                operands,
                mem: op.mem,
                is_reduction: op.is_reduction,
                carried_init: op.carried_init,
            });
        }

        // Stores of values consumed by later loops.
        for &p in &producers {
            if loop_of_op(OpId(p)) != li {
                continue;
            }
            let (arr, pad) = temp_array[&p];
            l.push_op(Operation {
                id: OpId(0),
                opcode: Opcode::scalar(OpKind::Store, src.ops[p as usize].opcode.ty),
                operands: vec![Operand::def(new_id[&p])],
                mem: Some(MemRef::scalar(arr, 1, pad)),
                is_reduction: false,
                carried_init: CarriedInit::Zero,
            });
        }

        // Live-outs whose producer lives here.
        for lo in &src.live_outs {
            if loop_of_op(lo.op) == li {
                l.live_outs.push(sv_ir::LiveOut {
                    name: lo.name.clone(),
                    op: new_id[&lo.op.0],
                    horizontal: lo.horizontal,
                    combine: lo.combine,
                });
            }
        }

        if let Err(e) = l.verify() {
            return Err(TransformError::InvalidOutput {
                transform: "traditional",
                error: e,
                dump: l.to_string(),
            });
        }
        out_loops.push(l);
    }

    // Vectorize the vector loops, keeping the scalar form for cleanup.
    let mut loops: Vec<DistLoop> = Vec::with_capacity(out_loops.len());
    for (li, l) in out_loops.into_iter().enumerate() {
        let vectorized = if loop_types[li] {
            let all = vec![true; l.ops.len()];
            Some(try_transform(&l, m, &all)?.looop)
        } else {
            None
        };
        loops.push(DistLoop { scalar_form: l, vectorized });
    }

    Ok(DistributedLoops { loops, expansion_arrays: producers.len() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sv_ir::{LoopBuilder, ScalarType, VectorForm};
    use sv_machine::AlignmentPolicy;

    fn machine() -> MachineConfig {
        let mut m = MachineConfig::paper_default();
        m.alignment = AlignmentPolicy::AssumeAligned;
        m
    }

    fn dot_product() -> Loop {
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
    fn dot_product_distributes_into_vector_and_scalar() {
        let d = try_traditional_vectorize(&dot_product(), &machine()).unwrap();
        assert_eq!(d.loops.len(), 2);
        assert!(d.loops[0].is_vector());
        assert!(!d.loops[1].is_vector());
        assert_eq!(d.expansion_arrays, 1);
        // Vector loop: 2 vloads + vmul + vstore(T) = 4 vector ops.
        let v = d.loops[0].main_loop();
        assert_eq!(v.iter_scale, 2);
        assert_eq!(v.ops.len(), 4);
        assert!(v.ops.iter().all(|o| o.opcode.form == VectorForm::Vector));
        // Scalar loop: load(T) + reduce.
        let s = d.loops[1].main_loop();
        assert_eq!(s.iter_scale, 1);
        assert_eq!(s.ops.len(), 2);
        assert_eq!(s.live_outs.len(), 1);
    }

    #[test]
    fn fully_vectorizable_loop_stays_single() {
        let mut b = LoopBuilder::new("axpy");
        let x = b.array("x", ScalarType::F64, 64);
        let y = b.array("y", ScalarType::F64, 64);
        let a = b.live_in("a", ScalarType::F64);
        let lx = b.load(x, 1, 0);
        let ax = b.fmul_li(a, lx);
        let ly = b.load(y, 1, 0);
        let s = b.fadd(ax, ly);
        b.store(y, 1, 0, s);
        let l = b.finish();
        let d = try_traditional_vectorize(&l, &machine()).unwrap();
        assert_eq!(d.loops.len(), 1);
        assert!(d.loops[0].is_vector());
        assert_eq!(d.expansion_arrays, 0);
    }

    #[test]
    fn fully_sequential_loop_stays_single_scalar() {
        let mut b = LoopBuilder::new("seq");
        let a = b.array("a", ScalarType::F64, 64);
        let la = b.load(a, 1, 0);
        let n = b.fneg(la);
        b.store(a, 1, 1, n);
        let l = b.finish();
        let d = try_traditional_vectorize(&l, &machine()).unwrap();
        assert_eq!(d.loops.len(), 1);
        assert!(!d.loops[0].is_vector());
        assert_eq!(d.loops[0].main_loop().iter_scale, 1);
        assert_eq!(d.loops[0].main_loop().ops.len(), 3);
    }

    #[test]
    fn fusion_groups_compatible_components() {
        // Two independent vectorizable chains + one recurrence: should fuse
        // into one vector loop and one scalar loop.
        let mut b = LoopBuilder::new("fuse");
        let x = b.array("x", ScalarType::F64, 64);
        let y = b.array("y", ScalarType::F64, 64);
        let z = b.array("z", ScalarType::F64, 64);
        let w = b.array("w", ScalarType::F64, 64);
        let lx = b.load(x, 1, 0);
        let nx = b.fneg(lx);
        b.store(y, 1, 0, nx);
        let lz = b.load(z, 1, 0);
        let nz = b.fabs(lz);
        b.store(w, 1, 0, nz);
        let la = b.load(x, 1, 32);
        b.recurrence(OpKind::Mul, ScalarType::F64, la);
        let l = b.finish();
        let d = try_traditional_vectorize(&l, &machine()).unwrap();
        assert_eq!(d.loops.len(), 2);
    }

    #[test]
    fn carried_forward_reference_within_one_loop() {
        // A recurrence whose carried read appears *before* the producer in
        // program order (as the expression frontend emits for
        // `t = 0.9*t + u`): remapping must resolve the forward id.
        let mut b = LoopBuilder::new("iir");
        let x = b.array("x", ScalarType::F64, 128);
        let y = b.array("y", ScalarType::F64, 128);
        let lx = b.load(x, 1, 0);
        // Hole-style carried read: a copy of the (later) add's value.
        let hole = OpId(b.as_loop().ops().len() as u32 + 2);
        let carried = b.push(
            Opcode::scalar(OpKind::Copy, ScalarType::F64),
            vec![Operand::carried(hole, 1)],
            None,
            false,
        );
        let scaled = b.fmul(lx, carried);
        let t = b.fadd(scaled, lx);
        assert_eq!(t, hole);
        b.store(y, 1, 0, t);
        let l = b.finish();
        let d = try_traditional_vectorize(&l, &machine()).unwrap();
        // The whole recurrence lands in one scalar loop; it must simply
        // not panic and must verify (checked inside the vectorizer).
        assert!(d.loops.iter().any(|dl| !dl.is_vector()));
    }

    #[test]
    fn expansion_load_offset_respects_distance() {
        // Consumer reads the producer's value from 2 iterations back,
        // across the distribution boundary.
        let mut b = LoopBuilder::new("carry");
        let x = b.array("x", ScalarType::F64, 64);
        let y = b.array("y", ScalarType::F64, 64);
        let lx = b.load(x, 1, 0);
        let v = b.fneg(lx);
        // A sequential consumer: recurrence mixing v from 2 back.
        let id = OpId(b.as_loop().ops.len() as u32);
        b.push(
            Opcode::scalar(OpKind::Add, ScalarType::F64),
            vec![Operand::carried(id, 1), Operand::carried(v, 2)],
            None,
            false,
        );
        let r = id;
        b.store(y, 1, 0, r);
        let l = b.finish();
        let d = try_traditional_vectorize(&l, &machine()).unwrap();
        assert!(d.expansion_arrays >= 1);
        // Find the expansion load in a scalar loop and check its offset is
        // pad - 2 with pad = 2 + vl.
        let scalar_loop = d
            .loops
            .iter()
            .find(|dl| !dl.is_vector())
            .map(|dl| dl.main_loop())
            .unwrap();
        let load = scalar_loop
            .ops
            .iter()
            .find(|o| {
                o.opcode.kind == OpKind::Load
                    && scalar_loop.arrays[o.mem_ref().array.0 as usize]
                        .name
                        .starts_with("expand")
            })
            .expect("expansion load");
        assert_eq!(load.mem_ref().offset, 2); // pad 4 - distance 2
    }
}
