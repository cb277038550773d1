//! Failure injection: deliberately corrupt intermediate artifacts and
//! assert the checking layers catch them. A validator that never fires is
//! indistinguishable from no validator.

use selvec::analysis::DepGraph;
use selvec::core::{
    compile, compile_checked, CompileError, DriverConfig, Pass, SelectiveConfig, Strategy,
};
use selvec::ir::{LoopBuilder, OpKind, Operand, ScalarType};
use selvec::machine::MachineConfig;
use selvec::modsched::{validate_schedule, ValidationError};
use selvec::sim::{execute_loop, execute_schedule, ExecError, Memory};
use selvec::vectorize::{try_transform, TransformError};

fn sample() -> selvec::ir::Loop {
    let mut b = LoopBuilder::new("sample");
    b.trip(40);
    let x = b.array("x", ScalarType::F64, 64);
    let y = b.array("y", ScalarType::F64, 64);
    let lx = b.load(x, 1, 0);
    let m = b.fmul(lx, lx);
    let a = b.fadd(m, lx);
    b.store(y, 1, 0, a);
    b.finish()
}

#[test]
fn shifting_a_consumer_breaks_validation() {
    let l = sample();
    let m = MachineConfig::paper_default();
    let c = compile(&l, &m, Strategy::ModuloOnly).unwrap();
    let seg = &c.segments[0];
    let g = DepGraph::build(&seg.looop);
    let mut s = seg.schedule.clone();
    // Pull every op to cycle 0: the multiply now issues before its load
    // completes.
    for t in s.times.iter_mut() {
        *t = 0;
    }
    assert!(matches!(
        validate_schedule(&seg.looop, &g, &m, &s),
        Err(ValidationError::DependenceViolated { .. })
            | Err(ValidationError::ResourceConflict { .. })
    ));
}

#[test]
fn duplicating_an_assignment_breaks_validation() {
    let l = sample();
    let m = MachineConfig::paper_default();
    let c = compile(&l, &m, Strategy::ModuloOnly).unwrap();
    let seg = &c.segments[0];
    let g = DepGraph::build(&seg.looop);
    let mut s = seg.schedule.clone();
    // Give op 1 op 0's functional units and time: double booking.
    s.assignments[1] = s.assignments[0].clone();
    s.times[1] = s.times[0];
    assert!(validate_schedule(&seg.looop, &g, &m, &s).is_err());
}

/// A loop whose only legal form keeps the carried-use consumer scalar:
/// vectorizing everything is a corrupted partition.
fn misaligned_carried() -> selvec::ir::Loop {
    let mut b = LoopBuilder::new("carried");
    let x = b.array("x", ScalarType::F64, 64);
    let lx = b.load(x, 1, 0);
    let u = b.bin(
        OpKind::Add,
        ScalarType::F64,
        Operand::def(lx),
        Operand::carried(lx, 1),
    );
    b.store(x, 1, 8, u);
    b.finish()
}

#[test]
fn illegal_partition_is_rejected_by_the_transformer() {
    // Vector consumer of a carried use at distance 1 (not a multiple of
    // VL): the transformer must diagnose it as a typed error.
    let l2 = misaligned_carried();
    let m = MachineConfig::paper_default();
    let err = try_transform(&l2, &m, &vec![true; l2.ops().len()])
        .expect_err("misaligned carried use must be rejected");
    assert!(
        matches!(err, TransformError::MisalignedCarriedUse { distance: 1, .. }),
        "{err}"
    );
}

#[test]
fn non_unit_stride_vector_mem_is_rejected() {
    let mut b = LoopBuilder::new("strided");
    let x = b.array("x", ScalarType::F64, 64);
    let y = b.array("y", ScalarType::F64, 64);
    let lx = b.load(x, 2, 0);
    b.store(y, 1, 0, lx);
    let l = b.finish();
    let m = MachineConfig::paper_default();
    let err = try_transform(&l, &m, &vec![true; l.ops().len()])
        .expect_err("strided vector memory must be rejected");
    assert!(matches!(err, TransformError::NotUnitStride { stride: 2, .. }), "{err}");
}

#[test]
fn kl_budget_exhaustion_falls_back_selective_to_full() {
    // A one-probe KL budget cannot cover sample()'s movable ops: the
    // driver must abandon Selective, record why, and deliver Full.
    let l = sample();
    let m = MachineConfig::paper_default();
    let cfg = DriverConfig {
        strategy: Strategy::Selective,
        selective: SelectiveConfig { max_moves: Some(1), ..SelectiveConfig::default() },
        ..DriverConfig::default()
    };
    let (compiled, report) = compile_checked(&l, &m, &cfg).expect("degradation must succeed");
    assert!(!report.clean());
    assert_eq!(report.requested, Strategy::Selective);
    assert_eq!(report.delivered, Strategy::Full);
    assert_eq!(compiled.strategy, Strategy::Full);
    let fb = &report.fallbacks[0];
    assert_eq!(fb.from, Strategy::Selective);
    assert_eq!(fb.to, Strategy::Full);
    assert!(
        matches!(
            fb.reason,
            CompileError::BudgetExhausted { pass: Pass::Partition, strategy: Strategy::Selective, .. }
        ),
        "{}",
        fb.reason
    );
    assert_eq!(fb.reason.pass(), Pass::Partition);
    assert_eq!(fb.reason.loop_name(), "sample");
    assert!(fb.reason.to_string().contains("budget exhausted"), "{}", fb.reason);
}

#[test]
fn degradation_disabled_returns_the_budget_error_directly() {
    let l = sample();
    let m = MachineConfig::paper_default();
    let cfg = DriverConfig {
        strategy: Strategy::Selective,
        selective: SelectiveConfig { max_moves: Some(1), ..SelectiveConfig::default() },
        degrade: false,
        ..DriverConfig::default()
    };
    let err = compile_checked(&l, &m, &cfg).expect_err("no ladder, so the error surfaces");
    assert_eq!(err.pass(), Pass::Partition);
    // Provenance is part of the rendered message: strategy/pass prefix.
    assert!(err.to_string().starts_with("[selective/partition]"), "{err}");
}

#[test]
fn corrupted_loop_surfaces_typed_error_with_input_provenance() {
    // Corrupt the IR the way a buggy upstream pass would (a forward
    // intra-iteration reference) and push it through the hardened driver:
    // a typed CompileError with provenance and a dump, not a panic.
    let mut bad = sample();
    bad.ops[1].operands[0] = Operand::def(selvec::ir::OpId(3));
    let m = MachineConfig::paper_default();
    let err = compile_checked(&bad, &m, &DriverConfig::default())
        .expect_err("corrupted IR must be rejected");
    assert_eq!(err.pass(), Pass::Input);
    assert_eq!(err.loop_name(), "sample");
    let CompileError::InvalidInput { dump, .. } = &err else {
        panic!("expected InvalidInput, got {err}");
    };
    assert!(dump.contains("sample"), "dump names the loop:\n{dump}");
}

#[test]
fn corrupted_operand_changes_the_functional_result() {
    // Swap the add's operands for a subtract: the interpreter must compute
    // a different y — the equivalence harness is sensitive to real bugs.
    let l = sample();
    let mut broken = l.clone();
    broken.ops[2].opcode.kind = OpKind::Sub;
    let mut mem_good = Memory::for_arrays(&l.arrays);
    let mut mem_bad = mem_good.clone();
    execute_loop(&l, &mut mem_good, 0..40);
    execute_loop(&broken, &mut mem_bad, 0..40);
    let differs = (0..40).any(|e| !mem_good.array(1)[e].approx_eq(mem_bad.array(1)[e]));
    assert!(differs);
}

#[test]
fn pipelined_executor_detects_premature_reads() {
    // Corrupt a schedule so the store issues in cycle 0, before the value
    // it stores exists: the schedule executor returns a typed error rather
    // than fabricating a value.
    let m = MachineConfig::paper_default();
    let mut b = LoopBuilder::new("carrybreak");
    let x = b.array("x", ScalarType::F64, 64);
    let lx = b.load(x, 1, 0);
    let add = b.bin(
        OpKind::Add,
        ScalarType::F64,
        Operand::def(lx),
        Operand::carried(lx, 2),
    );
    let st = b.store(x, 1, 16, add);
    let l2 = b.finish();
    let g2 = DepGraph::build(&l2);
    let sched = selvec::modsched::modulo_schedule(&l2, &g2, &m).unwrap();
    assert!(sched.times[add.index()] > 0, "the add waits for the load");
    let mut sched_wrong = sched.clone();
    sched_wrong.times[st.index()] = 0;
    let flat = selvec::modsched::emit_flat_for(&l2, &sched_wrong, 16);
    let mut mem = Memory::for_arrays(&l2.arrays);
    let result = execute_schedule(&l2, &m, &flat, &mut mem, 0..16);
    assert!(
        matches!(
            result,
            Err(ExecError::ReadBeforeWrite { op: 2, iteration: 0, cycle: 0, .. })
        ),
        "premature read must be a typed error, got {result:?}"
    );
}

#[test]
fn a_machine_missing_a_unit_class_is_a_typed_error_never_a_panic() {
    use selvec::modsched::ScheduleError;
    let no_units = |e: &CompileError| match e {
        CompileError::Schedule { error: ScheduleError::NoUnits { class, .. }, .. } => {
            Some(class.to_string())
        }
        _ => None,
    };
    for (key, class) in [
        ("mem_units", "mem"),
        ("issue_width", "issue"),
        ("int_units", "int"),
        ("fp_units", "fp"),
        ("branch_units", "branch"),
        ("vector_units", "vector"),
        ("merge_units", "merge"),
        ("vector_issue_limit", "vissue"),
    ] {
        let m = MachineConfig::from_spec(&format!("{key} = 0\n")).unwrap();
        for strategy in Strategy::ALL {
            let cfg = DriverConfig { strategy, ..DriverConfig::default() };
            match compile_checked(&sample(), &m, &cfg) {
                // A strategy that needs the class falls back, for a typed
                // reason that names it.
                Ok((_, report)) => {
                    for fb in &report.fallbacks {
                        assert_eq!(no_units(&fb.reason).as_deref(), Some(class), "{key}: {fb:?}");
                    }
                }
                // A class the scalar loop needs leaves nothing to fall
                // back to.
                Err(e) => assert_eq!(no_units(&e).as_deref(), Some(class), "{key} {strategy}: {e}"),
            }
        }
    }
}

#[test]
fn verifier_rejects_mutated_loops() {
    use selvec::ir::VerifyError;
    let l = sample();
    // Forward intra-iteration reference.
    let mut bad = l.clone();
    bad.ops[1].operands[0] = Operand::def(selvec::ir::OpId(3));
    assert!(matches!(bad.verify(), Err(VerifyError::UseOfNonValue { .. })));
    // Dangling array.
    let mut bad = l.clone();
    bad.arrays.pop();
    assert!(matches!(bad.verify(), Err(VerifyError::DanglingArray { .. })));
}
