//! # sv-sim — functional and cycle-level simulation
//!
//! The execution substrate standing in for Trimaran's cycle-accurate
//! simulator:
//!
//! * [`execute_loop`] — a functional interpreter for loops in any form
//!   (source, unrolled, vectorized, distributed) over a shared [`Memory`]
//!   of named arrays, used to prove that every transformation preserves
//!   semantics;
//! * [`run_source`] / [`run_compiled`] — whole-plan execution producing
//!   final memory and live-out values, plus [`assert_equivalent`] which
//!   compares a compiled plan against its source loop;
//! * [`execute_schedule`] — the cycle-accurate VLIW executor and the
//!   crate's one schedule oracle: runs the emitted prologue/kernel/epilogue
//!   layout with interlock stalls, per-class unit reservations and
//!   latency-tracked delivery, measuring total cycles and the real
//!   steady-state cycles per iteration
//!   ([`run_compiled_executed`] / [`executed_selfcheck`] /
//!   [`compile_executed`] run whole compiled plans through it and prove
//!   measured II == scheduled II against the reference engine);
//! * [`reference`] — the original in-order interpreter, kept as the
//!   bit-exact semantic baseline for the fast engine and the executor.
//!
//! ```
//! use sv_sim::{assert_equivalent, run_source};
//! use sv_core::{compile, Strategy};
//! use sv_machine::MachineConfig;
//! use sv_ir::{LoopBuilder, ScalarType};
//!
//! let mut b = LoopBuilder::new("dot");
//! b.trip(100);
//! let x = b.array("x", ScalarType::F64, 128);
//! let y = b.array("y", ScalarType::F64, 128);
//! let lx = b.load(x, 1, 0);
//! let ly = b.load(y, 1, 0);
//! let m = b.fmul(lx, ly);
//! b.reduce_add(m);
//! let l = b.finish();
//!
//! let machine = MachineConfig::figure1();
//! let compiled = compile(&l, &machine, Strategy::Selective).unwrap();
//! assert_equivalent(&l, &compiled); // same memory and live-outs
//! let _ = run_source(&l);
//! ```

mod decoded;
mod interp;
mod memory;
mod privrot;
pub mod reference;
mod run;
mod sched_exec;

pub use interp::{execute_loop, LiveOutValue};
pub use memory::{Memory, Scalar};
pub use sched_exec::{execute_schedule, ExecError, ExecReport};
pub use run::{
    assert_equivalent, check_equivalent, compile_executed, executed_selfcheck,
    has_register_state_across_cleanup, oracle_selfcheck, run_compiled,
    run_compiled_executed, run_source, EquivalenceError, ExecutedPiece, RunResult,
};
