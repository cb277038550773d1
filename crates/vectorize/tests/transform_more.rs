//! Additional loop-transformer behaviour tests, including vector length 4.

use sv_ir::{Loop, LoopBuilder, OpKind, Operand, ScalarType, VectorForm};
use sv_machine::{AlignmentPolicy, MachineConfig};
use sv_vectorize::{full_vectorization_partition, try_traditional_vectorize, try_transform};

fn aligned_machine(vl: u32) -> MachineConfig {
    let mut m = MachineConfig::paper_default();
    m.alignment = AlignmentPolicy::AssumeAligned;
    m.vector_length = vl;
    m
}

fn daxpy() -> Loop {
    let mut b = LoopBuilder::new("daxpy");
    let x = b.array("x", ScalarType::F64, 128);
    let y = b.array("y", ScalarType::F64, 128);
    let a = b.live_in("a", ScalarType::F64);
    let lx = b.load(x, 1, 0);
    let ly = b.load(y, 1, 0);
    let ax = b.fmul_li(a, lx);
    let s = b.fadd(ax, ly);
    b.store(y, 1, 0, s);
    b.finish()
}

#[test]
fn vl4_unroll_produces_four_lanes() {
    let l = daxpy();
    let m = aligned_machine(4);
    let t = try_transform(&l, &m, &vec![false; l.ops.len()]).unwrap();
    assert_eq!(t.looop.iter_scale, 4);
    assert_eq!(t.looop.ops.len(), l.ops.len() * 4);
    // Lane 3 loads x[4i+3].
    let lanes = &t.scalar_copies[0];
    assert_eq!(lanes.len(), 4);
    let last = &t.looop.ops[lanes[3].index()];
    assert_eq!((last.mem_ref().stride, last.mem_ref().offset), (4, 3));
}

#[test]
fn vl4_vectorization_widens_refs() {
    let l = daxpy();
    let m = aligned_machine(4);
    let t = try_transform(&l, &m, &vec![true; l.ops.len()]).unwrap();
    assert_eq!(t.looop.ops.len(), l.ops.len());
    let vload = &t.looop.ops[0];
    assert_eq!((vload.mem_ref().stride, vload.mem_ref().width), (4, 4));
}

#[test]
fn vl4_transfers_have_four_lane_stores() {
    let l = daxpy();
    let mut m = aligned_machine(4);
    m.alignment = AlignmentPolicy::AssumeAligned;
    // Vectorize only the multiply: its scalar operand (load x) needs an
    // S→V transfer of 4 stores + 1 vload; its consumer (add) a V→S
    // transfer of 1 vstore + 4 loads.
    let mut part = vec![false; l.ops.len()];
    part[2] = true;
    let t = try_transform(&l, &m, &part).unwrap();
    assert_eq!(t.transfer_ops, (4 + 1) * 2);
    let comm = t.looop.arrays.iter().filter(|a| a.iteration_private).count();
    assert_eq!(comm, 2);
}

#[test]
fn misaligned_store_chains_merge_before_store() {
    let l = daxpy();
    let m = MachineConfig::paper_default(); // AssumeMisaligned
    let t = try_transform(&l, &m, &vec![true; l.ops.len()]).unwrap();
    let vstore = t
        .looop
        .ops
        .iter()
        .find(|o| o.opcode.kind == OpKind::Store)
        .expect("vector store");
    // The store's value operand is a merge.
    let (src, _) = vstore.operands[0].def_op().unwrap();
    assert_eq!(t.looop.ops[src.index()].opcode.kind, OpKind::Merge);
}

#[test]
fn carried_distance_two_vector_consumer() {
    // u[i] = x[i] * x-value-from-2-back: distance 2 == VL, so the consumer
    // can be vectorized reading the producer's previous vector.
    let mut b = LoopBuilder::new("carry2");
    let x = b.array("x", ScalarType::F64, 128);
    let u = b.array("u", ScalarType::F64, 128);
    let lx = b.load(x, 1, 0);
    let mu = b.bin(
        OpKind::Mul,
        ScalarType::F64,
        Operand::def(lx),
        Operand::carried(lx, 2),
    );
    b.store(u, 1, 0, mu);
    let l = b.finish();
    let m = aligned_machine(2);
    let t = try_transform(&l, &m, &vec![true; l.ops.len()]).unwrap();
    let vmul = t.vector_value_of[mu.index()].unwrap();
    let op = &t.looop.ops[vmul.index()];
    // The carried operand becomes distance 1 in transformed iterations.
    assert!(op
        .operands
        .iter()
        .any(|o| matches!(o.def_op(), Some((_, 1)))));
}

#[test]
fn traditional_expansion_array_matches_producer_init() {
    // A multiplicative recurrence's value crossing a distribution boundary
    // must pre-fill its expansion array with ones, not zeros.
    let mut b = LoopBuilder::new("mulrec");
    let x = b.array("x", ScalarType::F64, 128);
    let y = b.array("y", ScalarType::F64, 128);
    let lx = b.load(x, 1, 0);
    let r = b.recurrence(OpKind::Mul, ScalarType::F64, lx);
    // A parallel consumer reads r from 1 iteration back, forcing expansion
    // once the loop distributes.
    let c = b.bin(
        OpKind::Add,
        ScalarType::F64,
        Operand::def(lx),
        Operand::carried(r, 2),
    );
    b.store(y, 1, 0, c);
    let l = b.finish();
    let m = aligned_machine(2);
    let d = try_traditional_vectorize(&l, &m).unwrap();
    // The recurrence is op %1, so its temporary is named `expand1`; the
    // load's temporary (if any) keeps the additive zero fill.
    let expand = d
        .loops
        .iter()
        .flat_map(|dl| dl.scalar_form.arrays.iter())
        .find(|a| a.name == "expand1")
        .expect("expansion array for the recurrence");
    assert_eq!(expand.fill, sv_ir::ArrayFill::One);
}

#[test]
fn full_partition_respects_neighbor_rule_transitively() {
    // load → recurrence → store: the load's only consumer is sequential,
    // the store's only producer is sequential ⇒ nothing vectorizes, and
    // full == baseline structure.
    let mut b = LoopBuilder::new("isolated");
    let x = b.array("x", ScalarType::F64, 64);
    let y = b.array("y", ScalarType::F64, 64);
    let lx = b.load(x, 1, 0);
    let r = b.recurrence(OpKind::Add, ScalarType::F64, lx);
    b.store(y, 1, 0, r);
    let l = b.finish();
    let g = sv_analysis::DepGraph::build(&l);
    let part = full_vectorization_partition(&l, &g, 2);
    assert!(part.iter().all(|&v| !v));
    let m = aligned_machine(2);
    let t = try_transform(&l, &m, &part).unwrap();
    assert!(t.looop.ops.iter().all(|o| o.opcode.form == VectorForm::Scalar));
}

#[test]
fn transform_preserves_trip_metadata() {
    let mut l = daxpy();
    l.trip = sv_ir::TripCount::known(96);
    l.invocations = 7;
    l.allow_reassoc = true;
    let m = aligned_machine(2);
    let t = try_transform(&l, &m, &vec![true; l.ops.len()]).unwrap();
    assert_eq!(t.looop.trip, l.trip);
    assert_eq!(t.looop.invocations, 7);
    assert!(t.looop.allow_reassoc);
    assert_eq!(t.looop.executed_iterations(), 48);
    assert_eq!(t.looop.remainder_iterations(), 0);
}
