//! Integration tests for the §6 extensions: widened scheduling windows
//! and modulo variable expansion.

use selvec::core::{compile, Strategy};
use selvec::ir::{LoopBuilder, ScalarType};
use selvec::machine::MachineConfig;
use selvec::sim::assert_equivalent;

fn triad(trip: u64) -> selvec::ir::Loop {
    let mut b = LoopBuilder::new("triad");
    b.trip(trip);
    let x = b.array("x", ScalarType::F64, trip + 16);
    let y = b.array("y", ScalarType::F64, trip + 16);
    let z = b.array("z", ScalarType::F64, trip + 16);
    let a = b.live_in("a", ScalarType::F64);
    let lx = b.load(x, 1, 0);
    let ly = b.load(y, 1, 0);
    let ax = b.fmul_li(a, lx);
    let s = b.fadd(ax, ly);
    b.store(z, 1, 0, s);
    b.finish()
}

#[test]
fn widened_window_beats_selective_on_memory_bound_triad() {
    let l = triad(3000);
    let m = MachineConfig::paper_default();
    let sel = compile(&l, &m, Strategy::Selective).unwrap();
    let wid = compile(&l, &m, Strategy::Widened).unwrap();
    assert_equivalent(&l, &wid);
    // Zero communication lets the window reach II 1.0 where the
    // within-iteration partition is stuck at the memory bound.
    assert!(wid.ii_per_original_iteration() < sel.ii_per_original_iteration());
    assert_eq!(wid.segments[0].looop.iter_scale, m.vector_length + 1);
}

#[test]
fn widened_window_covers_remainders() {
    // Trip 3001 over a window of 3 leaves one remainder iteration.
    let l = triad(3001);
    let m = MachineConfig::paper_default();
    let wid = compile(&l, &m, Strategy::Widened).unwrap();
    assert_eq!(wid.segments[0].looop.remainder_iterations(), 1);
    assert!(wid.segments[0].cleanup.is_some());
    assert_equivalent(&l, &wid);
}

#[test]
fn widened_window_falls_back_on_reductions() {
    let mut b = LoopBuilder::new("dot");
    b.trip(100);
    let x = b.array("x", ScalarType::F64, 128);
    let lx = b.load(x, 1, 0);
    b.reduce_add(lx);
    let l = b.finish();
    let m = MachineConfig::paper_default();
    let wid = compile(&l, &m, Strategy::Widened).unwrap();
    let base = compile(&l, &m, Strategy::ModuloOnly).unwrap();
    // Ineligible: identical to the unrolled baseline.
    assert_eq!(
        wid.ii_per_original_iteration(),
        base.ii_per_original_iteration()
    );
    assert_equivalent(&l, &wid);
}

#[test]
fn mve_factor_reported_on_all_schedules() {
    let l = triad(1000);
    let m = MachineConfig::paper_default();
    for strategy in Strategy::ALL {
        let c = compile(&l, &m, strategy).unwrap();
        for seg in &c.segments {
            assert!(seg.schedule.mve_factor >= 1);
            // MVE never needs more copies than there are stages.
            assert!(
                seg.schedule.mve_factor <= seg.schedule.stage_count,
                "{strategy}: mve {} > stages {}",
                seg.schedule.mve_factor,
                seg.schedule.stage_count
            );
        }
    }
}

#[test]
fn vector_length_four_machine_works_end_to_end() {
    let mut m = MachineConfig::paper_default();
    m.vector_length = 4;
    let l = triad(1003); // remainder 3 under ×4 unroll
    for strategy in Strategy::ALL {
        let c = compile(&l, &m, strategy).unwrap();
        assert_equivalent(&l, &c);
    }
    // Longer vectors shift the balance toward fuller vectorization.
    let full = compile(&l, &m, Strategy::Full).unwrap();
    let base = compile(&l, &m, Strategy::ModuloOnly).unwrap();
    assert!(full.total_cycles(&m) < base.total_cycles(&m));
}

#[test]
fn reversed_copy_loop_compiles_and_matches() {
    // y[i] = x[N-1-i]: the negative-stride load stays scalar (no gather),
    // everything still works end to end.
    let n = 50i64;
    let mut b = LoopBuilder::new("reverse");
    b.trip(n as u64);
    let x = b.array("x", ScalarType::F64, 64);
    let y = b.array("y", ScalarType::F64, 64);
    let lx = b.load(x, -1, n - 1);
    b.store(y, 1, 0, lx);
    let l = b.finish();
    let m = MachineConfig::paper_default();
    for strategy in Strategy::ALL {
        let c = compile(&l, &m, strategy).unwrap();
        assert_equivalent(&l, &c);
    }
}

#[test]
fn tiny_trip_counts_run_entirely_in_cleanup() {
    // trip 1 with VL 2: the main transformed loop executes zero
    // iterations; the cleanup loop does all the work.
    let l = triad(1);
    let m = MachineConfig::paper_default();
    for strategy in Strategy::ALL {
        let c = compile(&l, &m, strategy).unwrap();
        assert_equivalent(&l, &c);
        // Timing stays sane (no underflow): at least the cleanup runs.
        assert!(c.total_cycles(&m) > 0);
    }
}
