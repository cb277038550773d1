//! # sv-analysis — loop dependence analysis and vectorizability
//!
//! Implements the analysis side of the paper's compilation flow: array
//! dependence testing on affine subscripts, construction of the loop's data
//! dependence graph (register and memory edges with iteration distances),
//! Tarjan's strongly-connected-components pass to find dependence cycles,
//! and the vectorizability legality rules of classic vectorization
//! ("operations in a dependence cycle must execute sequentially; the rest
//! can be vectorized", Allen & Kennedy), including the paper's
//! vector-length exception for long-distance cycles and reduction handling.
//!
//! ```
//! use sv_analysis::{DepGraph, vectorizable_ops, VecStatus};
//! use sv_ir::{LoopBuilder, ScalarType};
//!
//! let mut b = LoopBuilder::new("dot");
//! let x = b.array("x", ScalarType::F64, 64);
//! let y = b.array("y", ScalarType::F64, 64);
//! let lx = b.load(x, 1, 0);
//! let ly = b.load(y, 1, 0);
//! let m = b.fmul(lx, ly);
//! let s = b.reduce_add(m);
//! let l = b.finish();
//!
//! let g = DepGraph::build(&l);
//! let v = vectorizable_ops(&l, &g, 2);
//! assert_eq!(v[m.index()], VecStatus::Vectorizable);
//! // FP reduction without reassociation stays sequential.
//! assert_eq!(v[s.index()], VecStatus::ReductionNeedsReassoc);
//! ```

mod brute;
mod graph;
mod legality;
mod scc;
mod subscript;

pub use brute::brute_force_mem_deps;
pub use graph::{DepEdge, DepGraph, DepKind};
pub use legality::{vectorizable_ops, VecStatus};
pub use scc::{strongly_connected_components, Sccs};
pub use subscript::{mem_dependences, Distance, FAR_BOUND};
