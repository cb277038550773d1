//! # sv-core — selective vectorization for software pipelined loops
//!
//! The primary contribution of *Exploiting Vector Parallelism in Software
//! Pipelined Loops* (MICRO 2005): a Kernighan–Lin partitioner that divides
//! a loop's operations between scalar and vector resources to minimize the
//! resource-constrained initiation interval of the subsequent modulo
//! schedule — including the cost of explicit scalar↔vector operand
//! transfers and of misaligned-access realignment — plus the end-to-end
//! [`compile`] pipeline covering all four techniques the paper compares.
//!
//! ```
//! use sv_core::{compile, Strategy};
//! use sv_machine::MachineConfig;
//! use sv_ir::{LoopBuilder, ScalarType};
//!
//! // The paper's Figure 1 dot product on the Figure 1 toy machine.
//! let mut b = LoopBuilder::new("dot");
//! let x = b.array("x", ScalarType::F64, 1024);
//! let y = b.array("y", ScalarType::F64, 1024);
//! let lx = b.load(x, 1, 0);
//! let ly = b.load(y, 1, 0);
//! let m = b.fmul(lx, ly);
//! b.reduce_add(m);
//! let looop = b.finish();
//!
//! let machine = MachineConfig::figure1();
//! let sel = compile(&looop, &machine, Strategy::Selective).unwrap();
//! assert_eq!(sel.ii_per_original_iteration(), 1.0); // Figure 1(f)
//! ```

pub mod cache;
mod driver;
pub mod optimal;
pub mod parallel;
mod partition;
mod pipeline;

pub use cache::{
    compile_cached, request_key, CacheConfig, CacheOutcome, CacheStats, CompileCache,
    DiskFaults, RecoveryReport, WriteFault,
};
pub use driver::{
    compile_checked, json_escape, panic_message, CompilationReport, CompileError, DriverConfig,
    Fallback, Pass, PassStats,
};
pub use optimal::{
    optimal_search, OptimalConfig, OptimalOutcome, OptimalReport, OptimalWitness, SearchStats,
};
pub use partition::{partition_ops, PartitionResult, SelectiveConfig};
pub use pipeline::{compile, compile_with, CompiledLoop, Segment, Strategy};
