//! Additional simulator behaviour tests.

use sv_core::{compile, Strategy};
use sv_ir::{LoopBuilder, OpKind, Operand, ScalarType};
use sv_machine::MachineConfig;
use sv_sim::{
    execute_loop, execute_schedule, run_compiled, run_source, Memory, Scalar,
};

#[test]
fn run_source_reports_live_outs_by_name() {
    let mut b = LoopBuilder::new("two_reds");
    b.trip(16);
    let x = b.array("x", ScalarType::F64, 32);
    let lx = b.load(x, 1, 0);
    let s = b.reduce_add(lx);
    let n = b.fneg(lx);
    let p = b.reduce(OpKind::Max, ScalarType::F64, n);
    let r = run_source(&b.finish());
    let _ = (s, p);
    assert_eq!(r.live_outs.len(), 2);
    assert!(r.live_outs.keys().all(|k| k.starts_with("red")));
    // The max of negated positive data is negative; the sum is positive.
    let vals: Vec<f64> = r.live_outs.values().map(|v| v.as_f64()).collect();
    assert!(vals.iter().any(|&v| v > 0.0));
    assert!(vals.iter().any(|&v| v < 0.0));
}

#[test]
fn invariant_refs_read_and_write_one_cell() {
    // s[0] accumulates through memory: load s[0], add, store s[0].
    let mut b = LoopBuilder::new("memacc");
    b.trip(10);
    let x = b.array("x", ScalarType::F64, 16);
    let s = b.array("s", ScalarType::F64, 4);
    let lx = b.load(x, 1, 0);
    let ls = b.load(s, 0, 0);
    let sum = b.fadd(ls, lx);
    b.store(s, 0, 0, sum);
    let l = b.finish();
    let mut mem = Memory::for_arrays(&l.arrays);
    // Array `s` has Data fill; capture its initial cell.
    let init = mem.read(1, 0).as_f64();
    let expect: f64 = (0..10).map(|e| mem.read(0, e).as_f64()).sum::<f64>() + init;
    execute_loop(&l, &mut mem, 0..10);
    assert!(mem.read(1, 0).approx_eq(Scalar::F(expect)));
}

#[test]
fn min_reduction_starts_at_identity() {
    let mut b = LoopBuilder::new("minred");
    b.trip(12);
    let x = b.array("x", ScalarType::F64, 16);
    let lx = b.load(x, 1, 0);
    b.reduce(OpKind::Min, ScalarType::F64, lx);
    let l = b.finish();
    let r = run_source(&l);
    let mem = Memory::for_arrays(&l.arrays);
    let expect = (0..12).map(|e| mem.read(0, e).as_f64()).fold(f64::INFINITY, f64::min);
    assert!(r.live_outs.values().next().unwrap().approx_eq(Scalar::F(expect)));
}

#[test]
fn integer_loops_execute_exactly() {
    let mut b = LoopBuilder::new("ints");
    b.trip(20);
    let x = b.array("ix", ScalarType::I64, 32);
    let y = b.array("iy", ScalarType::I64, 32);
    let lx = b.load(x, 1, 0);
    let sq = b.imul(lx, lx);
    let inc = b.bin(OpKind::Add, ScalarType::I64, Operand::def(sq), Operand::iv());
    b.store(y, 1, 0, inc);
    let l = b.finish();
    let mut mem = Memory::for_arrays(&l.arrays);
    execute_loop(&l, &mut mem, 0..20);
    for i in 0..20i64 {
        let v = mem.read(0, i).as_i64();
        assert_eq!(mem.read(1, i), Scalar::I(v * v + i));
    }
    // And the compiled versions agree.
    let m = MachineConfig::paper_default();
    for s in Strategy::ALL {
        let c = compile(&l, &m, s).unwrap();
        let rc = run_compiled(&c);
        for i in 0..20 {
            assert_eq!(rc.memory.array(1)[i], mem.array(1)[i], "under {s}");
        }
    }
}

#[test]
fn deep_pipeline_runs_in_timing_model_cycles() {
    // Long-latency chain ⇒ many stages ⇒ many iterations in flight; the
    // executed total still follows `(n − 1)·II + length`.
    let mut b = LoopBuilder::new("deep");
    let x = b.array("x", ScalarType::F64, 512);
    let y = b.array("y", ScalarType::F64, 512);
    let lx = b.load(x, 1, 0);
    let d = b.fdiv(lx, lx);
    let e = b.fmul(d, d);
    b.store(y, 1, 0, e);
    let l = b.finish();
    let m = MachineConfig::paper_default();
    let g = sv_analysis::DepGraph::build(&l);
    let s = sv_modsched::modulo_schedule(&l, &g, &m).unwrap();
    let flat = sv_modsched::emit_flat_for(&l, &s, 500);
    let mut mem = Memory::for_arrays(&l.arrays);
    let (_, r) = execute_schedule(&l, &m, &flat, &mut mem, 0..500).unwrap();
    assert!(s.stage_count > 1, "the chain must pipeline across stages");
    assert_eq!(r.stall_cycles, 0);
    assert_eq!(r.total_cycles, 499 * u64::from(s.ii) + u64::from(s.length));
}

#[test]
fn multi_segment_compiled_runs_share_expansion_state() {
    // Traditional distribution on a mixed loop: the reduction's input
    // flows through an expansion array between the two loops; the final
    // live-out must equal the source's.
    let mut b = LoopBuilder::new("mixed");
    b.trip(40);
    let x = b.array("x", ScalarType::F64, 64);
    let y = b.array("y", ScalarType::F64, 64);
    let lx = b.load(x, 1, 0);
    let sc = b.fmul(lx, lx);
    b.store(y, 1, 0, sc);
    b.reduce_add(sc);
    let l = b.finish();
    let m = MachineConfig::paper_default();
    let c = compile(&l, &m, Strategy::Traditional).unwrap();
    assert!(c.segments.len() >= 2, "distribution expected");
    let a = run_source(&l);
    let bb = run_compiled(&c);
    for (k, v) in &a.live_outs {
        assert!(v.approx_eq(bb.live_outs[k]), "live-out {k}");
    }
}
