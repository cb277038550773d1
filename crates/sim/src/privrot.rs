//! Per-iteration renaming of `iteration_private` arrays — modulo
//! variable expansion for *memory*.
//!
//! The dependence graph deliberately omits loop-carried edges on
//! iteration-private arrays (the scalar↔vector communication slots the
//! selective vectorizer introduces): their cells carry no values between
//! iterations, so a code generator renames them per pipeline stage and
//! the scheduler is free to overlap iterations that reuse the same slot
//! (see `sv_analysis::DepGraph`). Executors that interleave iterations
//! must therefore implement that renaming, or iteration `j+1`'s store
//! lands in the slot before iteration `j`'s load reads it — exactly the
//! class of silent corruption the cycle-accurate executor surfaced on
//! the wider-vector machines.
//!
//! [`PrivRot`] is the register-ring prescan transplanted to arrays: one
//! linear pass over the memory-access order measures, per private array,
//! the widest window of iterations simultaneously in flight, and the
//! array is temporarily widened to that many back-to-back copies (copy
//! `j mod depth` serves iteration `j`). After the run the copy written
//! by the final iteration is collapsed back into place, so the final
//! memory image is bit-identical to in-order execution. Arrays that are
//! not private — or private arrays whose accesses never overlap — keep
//! depth 1 and the whole mechanism is a no-op.

use crate::memory::Memory;
use sv_ir::Loop;

/// Measured renaming windows for one launch order of one loop.
pub(crate) struct PrivRot {
    /// Per-array copy count; 1 ⇒ identity (not private, or no overlap).
    depth: Vec<u64>,
    /// Per-array declared element count (the size of one copy).
    size: Vec<i64>,
    /// Any array with depth > 1 (fast bail-out for the common case).
    active: bool,
}

impl PrivRot {
    /// Measure renaming depths from an explicit memory-access order:
    /// `(iteration, array, is_store)` triples in execution order. An
    /// access to iteration `j` after a store for iteration `latest > j`
    /// needs copies `j ..= latest` distinct, so `depth ≥ latest − j + 1`.
    pub(crate) fn for_accesses(
        l: &Loop,
        accesses: impl Iterator<Item = (u64, u32, bool)>,
    ) -> PrivRot {
        let na = l.arrays.len();
        let mut depth = vec![1u64; na];
        let mut latest = vec![i64::MIN; na];
        for (j, a, is_store) in accesses {
            let a = a as usize;
            if !l.arrays[a].iteration_private {
                continue;
            }
            if latest[a] > j as i64 {
                depth[a] = depth[a].max((latest[a] - j as i64 + 1) as u64);
            }
            if is_store {
                latest[a] = latest[a].max(j as i64);
            }
        }
        let size = l.arrays.iter().map(|d| d.len as i64).collect();
        let active = depth.iter().any(|&d| d > 1);
        PrivRot { depth, size, active }
    }

    /// Extra element offset renaming an access to `array` at iteration
    /// `j` into its copy. Zero for depth-1 arrays.
    #[inline]
    pub(crate) fn offset(&self, array: u32, j: u64) -> i64 {
        let d = self.depth[array as usize];
        if d <= 1 {
            0
        } else {
            (j % d) as i64 * self.size[array as usize]
        }
    }

    /// Widen every renamed array to its copy count, each copy starting
    /// from the array's pre-run contents (an iteration that reads a cell
    /// it never wrote observes the fill value, as in-order would).
    pub(crate) fn widen(&self, mem: &mut Memory) {
        if !self.active {
            return;
        }
        for (a, &d) in self.depth.iter().enumerate() {
            if d > 1 {
                mem.widen_array(a as u32, d);
            }
        }
    }

    /// Undo [`PrivRot::widen`]: keep the copy the final iteration wrote,
    /// restoring the in-order final memory image.
    pub(crate) fn restore(&self, mem: &mut Memory, iterations: u64) {
        if !self.active {
            return;
        }
        for (a, &d) in self.depth.iter().enumerate() {
            if d > 1 {
                let keep = if iterations == 0 { 0 } else { (iterations - 1) % d };
                mem.collapse_array(a as u32, self.size[a] as usize, keep);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::Memory;
    use sv_ir::{LoopBuilder, ScalarType};

    /// data[i] → comm[0] → data[i+8], with `comm` iteration-private: the
    /// canonical scalar↔vector communication shape.
    fn comm_loop() -> Loop {
        let mut b = LoopBuilder::new("comm");
        b.trip(16);
        let data = b.array("data", ScalarType::F64, 32);
        let comm = b.array("comm", ScalarType::F64, 4);
        let ld = b.load(data, 1, 0);
        b.store(comm, 0, 0, ld);
        let lc = b.load(comm, 0, 0);
        b.store(data, 1, 8, lc);
        let mut l = b.finish();
        l.arrays[comm.0 as usize].iteration_private = true;
        l
    }

    /// Two iterations overlapped: iteration 1's comm store fires before
    /// iteration 0's comm load — the overlap the scheduler is allowed to
    /// create. `(iteration, array, is_store)` in execution order.
    const OVERLAPPED: [(u64, u32, bool); 8] = [
        (0, 0, false),
        (0, 1, true),
        (1, 0, false),
        (1, 1, true),
        (0, 1, false),
        (0, 0, true),
        (1, 1, false),
        (1, 0, true),
    ];

    #[test]
    fn overlapped_accesses_measure_a_window() {
        let l = comm_loop();
        let pr = PrivRot::for_accesses(&l, OVERLAPPED.into_iter());
        assert_eq!(pr.offset(0, 5), 0, "non-private array never renames");
        assert_eq!(pr.offset(1, 0), 0);
        assert_eq!(pr.offset(1, 1), 4, "iteration 1 gets its own copy");
        assert_eq!(pr.offset(1, 2), 0, "window wraps");
    }

    #[test]
    fn in_order_accesses_are_identity() {
        let l = comm_loop();
        let pr = PrivRot::for_accesses(
            &l,
            (0..4).flat_map(|j| [(j, 0, false), (j, 1, true), (j, 1, false), (j, 0, true)]),
        );
        assert!(!pr.active);
        assert_eq!(pr.offset(1, 3), 0);
    }

    #[test]
    fn widen_restore_roundtrip_keeps_final_copy() {
        let l = comm_loop();
        let pr = PrivRot::for_accesses(&l, OVERLAPPED.into_iter());
        let mut mem = Memory::for_arrays(&l.arrays);
        pr.widen(&mut mem);
        assert_eq!(mem.array(1).len(), 8);
        // Iteration 0 writes its copy, iteration 1 writes its copy.
        mem.write(1, 0, crate::memory::Scalar::F(10.0));
        mem.write(1, 4, crate::memory::Scalar::F(11.0));
        pr.restore(&mut mem, 2);
        assert_eq!(mem.array(1).len(), 4);
        assert_eq!(mem.read(1, 0).as_f64(), 11.0, "final iteration's copy survives");
    }
}
