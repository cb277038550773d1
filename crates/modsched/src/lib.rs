//! # sv-modsched — iterative modulo scheduling
//!
//! A from-scratch implementation of Rau's iterative modulo scheduling
//! (HPL-94-115), the software pipeliner the paper layers selective
//! vectorization under:
//!
//! * **ResMII** — the resource-constrained lower bound on the initiation
//!   interval, computed by the ordered greedy bin-packing of the paper's
//!   Figure 2 (most-constrained operations first, least-used alternative
//!   chosen by high-water mark with a sum-of-squares tie-break). The
//!   [`Bins`] type is shared with the selective-vectorization
//!   partitioner in `sv-core`, which costs its candidate moves against
//!   the same bins by releasing and re-reserving only what a move
//!   touches.
//! * **RecMII** — the recurrence-constrained lower bound, from the maximum
//!   cycle ratio of the dependence graph (binary search + Bellman-Ford
//!   positive-cycle detection on `delay − II·distance` weights).
//! * **Scheduling** — height-priority list scheduling into a modulo
//!   reservation table with Rau's force-place-and-evict backtracking and a
//!   scheduling budget, escalating II on failure; stage count, schedule
//!   length and a MaxLive register-pressure estimate come out the other
//!   end.
//!
//! ```
//! use sv_modsched::modulo_schedule;
//! use sv_machine::MachineConfig;
//! use sv_analysis::DepGraph;
//! use sv_ir::{LoopBuilder, ScalarType};
//!
//! let mut b = LoopBuilder::new("copy");
//! let x = b.array("x", ScalarType::F64, 64);
//! let y = b.array("y", ScalarType::F64, 64);
//! let lx = b.load(x, 1, 0);
//! b.store(y, 1, 0, lx);
//! let l = b.finish();
//! let m = MachineConfig::paper_default();
//! let g = DepGraph::build(&l);
//! let s = modulo_schedule(&l, &g, &m).unwrap();
//! // Two memory ops on two load/store units: II = 1.
//! assert_eq!(s.ii, 1);
//! ```

mod binpack;
mod emit;
mod exact;
mod mii;
mod pressure;
mod regalloc;
mod sched;
mod validate;

pub use binpack::Bins;
pub use emit::{emit_flat, emit_flat_for, FlatListing, Row};
pub use exact::{exact_schedule, Budget, ExactOutcome, Stop};
pub use mii::{
    check_units, compute_mii, compute_recmii, compute_resmii, edge_delay, recurrence_bound,
};
pub use pressure::{max_live, mve_factor};
pub use regalloc::{allocate_rotating, validate_assignment, AllocError, RegisterAssignment};
pub use sched::{modulo_schedule, modulo_schedule_with, Schedule, ScheduleConfig, ScheduleError};
pub use validate::{validate_schedule, ValidationError};
