//! Differential property tests against the retained reference
//! interpreter.
//!
//! The pre-decoded fast engine behind [`sv_sim::execute_loop`] and the
//! cycle-accurate schedule executor [`sv_sim::execute_schedule`] must be
//! **bit-identical** to [`sv_sim::reference::execute_loop`] — same final
//! memories and live-outs under [`Scalar::identical`], NaN payloads and
//! signed zeros included — and the executor must run every modulo
//! schedule without a single interlock stall. Two hundred seeded random
//! loops sweep the generator's distribution profiles; dedicated cases pin
//! the corners a sweep can miss (zero-trip loops, maximum loop-carried
//! distance, integer reductions).

use sv_analysis::DepGraph;
use sv_ir::{Loop, LoopBuilder, Opcode, OpId, OpKind, Operand, ScalarType};
use sv_machine::MachineConfig;
use sv_modsched::{emit_flat_for, modulo_schedule};
use sv_sim::reference;
use sv_sim::{execute_loop, execute_schedule, LiveOutValue, Memory};
use sv_workloads::{synth_loop, SynthProfile};

fn assert_outs_identical(l: &Loop, what: &str, got: &[LiveOutValue], refr: &[LiveOutValue]) {
    assert_eq!(got.len(), refr.len(), "{}: {what}: live-out count", l.name);
    for (f, r) in got.iter().zip(refr) {
        assert_eq!(f.name, r.name, "{}: {what}: live-out order", l.name);
        assert_eq!(f.combine, r.combine, "{}: {what}: combine kind of {}", l.name, f.name);
        assert!(
            f.value.identical(r.value),
            "{}: {what}: live-out {}: {:?} != reference {:?}",
            l.name,
            f.name,
            f.value,
            r.value
        );
    }
}

fn assert_mem_identical(l: &Loop, what: &str, got: &Memory, refr: &Memory) {
    for a in 0..l.arrays.len() as u32 {
        for (i, (f, r)) in got.array(a).iter().zip(refr.array(a)).enumerate() {
            assert!(
                f.identical(*r),
                "{}: {what}: array {}[{i}]: {f:?} != reference {r:?}",
                l.name,
                l.arrays[a as usize].name
            );
        }
    }
}

/// Run one loop through both engines against the reference. In-order
/// execution always runs (full range plus an offset subrange); the
/// schedule executor runs the emitted layout for the full trip
/// (truncated when the trip never fills the pipeline) when the scalar
/// loop modulo-schedules. Returns whether it scheduled, so callers can
/// assert coverage.
fn check_engines(l: &Loop, m: &MachineConfig) -> bool {
    let n = l.trip.count;
    for range in [0..n, n / 3..n] {
        let mut mf = Memory::for_arrays(&l.arrays);
        let mut mr = mf.clone();
        let of = execute_loop(l, &mut mf, range.clone());
        let or = reference::execute_loop(l, &mut mr, range.clone());
        let what = format!("fast in-order {range:?}");
        assert_outs_identical(l, &what, &of, &or);
        assert_mem_identical(l, &what, &mf, &mr);
    }

    let g = DepGraph::build(l);
    let Ok(s) = modulo_schedule(l, &g, m) else {
        return false;
    };
    let flat = emit_flat_for(l, &s, n);
    let mut mf = Memory::for_arrays(&l.arrays);
    let mut mr = mf.clone();
    let (of, report) = execute_schedule(l, m, &flat, &mut mf, 0..n)
        .unwrap_or_else(|e| panic!("{}: executed: {e}", l.name));
    let or = reference::execute_loop(l, &mut mr, 0..n);
    assert_outs_identical(l, "executed", &of, &or);
    assert_mem_identical(l, "executed", &mf, &mr);
    assert_eq!(report.stall_cycles, 0, "{}: executed schedule stalled", l.name);
    true
}

/// The generator profiles the sweep cycles through — the same shapes the
/// differential fuzzer stresses (broad mix, reductions, recurrence
/// chains, tiny trips).
fn profile_for(seed: u64) -> SynthProfile {
    let broad = SynthProfile::broad();
    match seed % 4 {
        0 => broad,
        1 => SynthProfile { reduction_prob: 0.85, reassoc: true, ..broad },
        2 => SynthProfile {
            recurrence_prob: 0.6,
            carried_prob: 0.35,
            nonunit_prob: 0.3,
            ..broad
        },
        _ => SynthProfile { loads: (1, 2), arith: (1, 3), trip: (1, 9), ..broad },
    }
}

#[test]
fn two_hundred_random_loops_match_reference() {
    let machines = [MachineConfig::paper_default(), MachineConfig::figure1()];
    let mut scheduled = 0u32;
    for seed in 0..200u64 {
        let mut l = synth_loop(&format!("equiv{seed}"), &profile_for(seed), seed);
        l.invocations = 1;
        scheduled += u32::from(check_engines(&l, &machines[(seed % 2) as usize]));
    }
    // The sweep must actually exercise the schedule executor, not just
    // the in-order path.
    assert!(scheduled >= 150, "only {scheduled}/200 loops scheduled");
}

#[test]
fn zero_trip_loops_match_reference() {
    let m = MachineConfig::paper_default();
    for seed in 0..20u64 {
        let mut l = synth_loop(&format!("zt{seed}"), &profile_for(seed), seed);
        l.invocations = 1;
        l.trip.count = 0;
        // In-order over an empty range and a truncated layout launching
        // zero instances must both fall back to carried-init live-outs.
        check_engines(&l, &m);
    }
}

#[test]
fn max_carried_distance_matches_reference() {
    // A distance-7 self-recurrence plus a distance-7 cross-op use: reads
    // straddle the full ring window, and the first 7 iterations observe
    // carried-init values.
    let m = MachineConfig::paper_default();
    for trip in [1u64, 6, 7, 8, 40] {
        let mut b = LoopBuilder::new(format!("dist7x{trip}"));
        b.trip(trip);
        let x = b.array("x", ScalarType::F64, 64);
        let y = b.array("y", ScalarType::F64, 64);
        let lx = b.load(x, 1, 0);
        let far = b.bin(
            OpKind::Add,
            ScalarType::F64,
            Operand::def(lx),
            Operand::Def { op: lx, distance: 7 },
        );
        // A recurrence whose carried use also reaches back 7 iterations.
        let rec_id = OpId(b.as_loop().ops.len() as u32);
        let rec = b.push(
            Opcode::scalar(OpKind::Add, ScalarType::F64),
            vec![Operand::carried(rec_id, 7), Operand::def(far)],
            None,
            false,
        );
        assert_eq!(rec, rec_id);
        b.store(y, 1, 0, rec);
        b.live_out("rec", rec);
        let l = b.finish();
        check_engines(&l, &m);
    }
}

#[test]
fn integer_reductions_match_reference() {
    let m = MachineConfig::paper_default();
    for kind in [OpKind::Add, OpKind::Mul, OpKind::Min, OpKind::Max] {
        let mut b = LoopBuilder::new(format!("ired-{kind:?}"));
        b.trip(37);
        let x = b.array("x", ScalarType::I64, 64);
        let lx = b.load(x, 1, 0);
        b.reduce(kind, ScalarType::I64, lx);
        let l = b.finish();
        assert!(check_engines(&l, &m), "integer reduction failed to schedule");
    }
}

/// Append one of the hand-written shapes `hand_written_shapes_match_reference`
/// sweeps to `b`.
fn build_shape(name: &str, b: &mut LoopBuilder) {
    match name {
        "copy" => {
            let x = b.array("x", ScalarType::F64, 64);
            let y = b.array("y", ScalarType::F64, 64);
            let lx = b.load(x, 1, 0);
            b.store(y, 1, 0, lx);
        }
        "memrec" => {
            let a = b.array("a", ScalarType::F64, 64);
            let la = b.load(a, 1, 0);
            let m = b.bin(OpKind::Mul, ScalarType::F64, Operand::def(la), Operand::ConstF(2.0));
            b.store(a, 1, 2, m);
        }
        "dot" => {
            let x = b.array("x", ScalarType::F64, 64);
            let y = b.array("y", ScalarType::F64, 64);
            let lx = b.load(x, 1, 0);
            let ly = b.load(y, 1, 0);
            let mu = b.fmul(lx, ly);
            b.reduce_add(mu);
        }
        "update" => {
            let x = b.array("x", ScalarType::F64, 64);
            let r = b.array("r", ScalarType::F64, 64);
            let lx = b.load(x, 1, 0);
            let lr = b.load(r, 1, 0);
            let s = b.fadd(lx, lr);
            b.store(x, 1, 0, s);
        }
        "chain" => {
            let a = b.array("a", ScalarType::F64, 64);
            let la = b.load(a, 1, 0);
            let sq = b.fmul(la, la);
            let s = b.fadd(sq, la);
            let n = b.fabs(s);
            b.store(a, 1, 4, n);
        }
        other => panic!("unknown shape {other}"),
    }
}

#[test]
fn hand_written_shapes_match_reference() {
    // The shapes the sweep may miss, each at trips below, at and past the
    // stage count: a plain copy, a distance-2 flow through memory
    // (a[i+2] = 2·a[i]), a reduction, an in-place update whose load and
    // store of the same cell are in flight together, and a long-latency
    // chain feeding a distance-4 memory recurrence.
    let m = MachineConfig::paper_default();
    for name in ["copy", "memrec", "dot", "update", "chain"] {
        for trip in (0..=8).chain([40]) {
            let mut b = LoopBuilder::new(format!("{name}x{trip}"));
            b.trip(trip);
            build_shape(name, &mut b);
            assert!(check_engines(&b.finish(), &m), "{name} failed to schedule");
        }
    }
}
