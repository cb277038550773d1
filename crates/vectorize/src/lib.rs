//! # sv-vectorize — vectorizing loop transformations
//!
//! The code-generation side of the paper: given a *partition* of a loop's
//! operations between scalar and vector resources, [`try_transform`] produces
//! the transformed loop —
//!
//! * operations in the vector partition become vector opcodes over `k`
//!   original iterations;
//! * scalar operations are emitted `k` times (one per lane) so their work
//!   output matches the vector operations;
//! * explicit scalar↔vector **transfer operations** (stores and loads
//!   through iteration-private communication slots) are generated for every
//!   dataflow edge that crosses the partition, one transfer per operand
//!   regardless of its consumer count;
//! * misaligned vector memory operations are lowered with **merge**
//!   operations on the dedicated merge unit (one per access in steady
//!   state, modeling previous-iteration reuse);
//! * operations are emitted in a dependence-respecting order (the
//!   topological SCC order the paper describes);
//! * the loop's iteration scale is multiplied by `k`; remainder iterations
//!   fall to a cleanup loop built by the pipeline.
//!
//! On top of the transformer, the crate implements the two baseline
//! vectorizers the paper compares against:
//!
//! * [`full_vectorization_partition`] — vectorize *every* legal operation
//!   (subject to the has-a-vectorizable-neighbour profitability rule the
//!   paper applies), keeping the loop intact;
//! * [`try_traditional_vectorize`] — Allen–Kennedy loop distribution with
//!   typed greedy fusion and scalar expansion through memory.

//!
//! Each transformation reports an illegal input or an invalid output as a
//! [`TransformError`], which the `sv-core` compilation driver uses to
//! degrade gracefully.

mod error;
mod full;
mod neighbor;
mod traditional;
mod transform;
mod widened;

pub use error::TransformError;
pub use full::full_vectorization_partition;
pub use neighbor::apply_neighbor_rule;
pub use traditional::{try_traditional_vectorize, DistributedLoops};
pub use transform::{try_transform, Transformed};
pub use widened::try_widened_window_transform;
