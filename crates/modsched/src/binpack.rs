//! Greedy resource bin-packing (paper Figure 2, lines 33–66).
//!
//! A bin is associated with each compiler-visible resource *instance*; an
//! operation reserves one instance of each resource class it requires,
//! choosing the alternative that minimizes the weight of the most heavily
//! used resource, with ties broken by the sum of squared bin weights. The
//! squared-sum tie-break keeps the bins balanced so the partitioner's
//! incremental release/reserve cost probes stay accurate — exactly the
//! optimization the paper describes in §3.2.
//!
//! Adding `c > 0` cycles to a heavier bin never lowers either key, so
//! that rule always picks a least-used instance (the lowest dense id among
//! equals); with `c = 0` every choice leaves the weights as they were.
//! [`Bins`] therefore places by weight alone and keeps the high-water mark
//! and the sum of squares up to date as it goes, so a reservation costs
//! one pass over its class's instances and no allocation.

use sv_machine::{Reservation, ResourceClass, ResourcePool};

/// Resource usage bins over a machine's resource pool.
#[derive(Debug, Clone)]
pub struct Bins {
    /// Dense-id range of each class's instances, indexed by
    /// `ResourceClass as usize` (empty for an absent class).
    ranges: [(usize, usize); ResourceClass::ALL.len()],
    weights: Vec<u32>,
    /// Σ weight², exact.
    squares: u64,
    /// The largest weight, unless `high_stale`.
    high: u32,
    /// A release lowered a bin that held the high-water mark; the next
    /// [`Bins::high_water_mark`] rescans.
    high_stale: bool,
}

impl Bins {
    /// Empty bins over `pool`.
    pub fn new(pool: &ResourcePool) -> Bins {
        let mut ranges = [(0, 0); ResourceClass::ALL.len()];
        for class in ResourceClass::ALL {
            let r = pool.alternative_range(class);
            ranges[class as usize] = (r.start, r.end);
        }
        Bins { ranges, weights: vec![0; pool.len()], squares: 0, high: 0, high_stale: false }
    }

    /// Weight (reserved cycles) of each instance, dense-id indexed.
    pub fn weights(&self) -> &[u32] {
        &self.weights
    }

    /// The weight of the most heavily used resource — the configuration
    /// cost, i.e. the resource-constrained minimum initiation interval.
    pub fn high_water_mark(&self) -> u32 {
        if self.high_stale {
            self.weights.iter().copied().max().unwrap_or(0)
        } else {
            self.high
        }
    }

    /// Sum of squared bin weights; the balance-sensitive secondary cost.
    pub fn sum_squares(&self) -> u64 {
        self.squares
    }

    /// Reserve one least-used instance of each required class
    /// (RESERVE-LEAST-USED), recording nothing.
    ///
    /// # Panics
    ///
    /// Panics when a required class has no instances in the pool — a
    /// machine/opcode mismatch.
    pub fn reserve(&mut self, reqs: &[Reservation]) {
        for r in reqs {
            self.place(r);
        }
    }

    /// [`Bins::reserve`], appending each `(dense instance id, cycles)`
    /// it reserved to `log` so the caller can [`Bins::release`] them.
    ///
    /// # Panics
    ///
    /// As [`Bins::reserve`].
    pub fn reserve_logged(&mut self, reqs: &[Reservation], log: &mut Vec<(usize, u32)>) {
        for r in reqs {
            let id = self.place(r);
            log.push((id, r.cycles));
        }
    }

    /// Add `r.cycles` to the first least-used instance of `r.class`;
    /// returns its dense id.
    fn place(&mut self, r: &Reservation) -> usize {
        let (start, end) = self.ranges[r.class as usize];
        assert!(start < end, "opcode requires {} but the machine has none", r.class);
        let mut id = start;
        for cand in start + 1..end {
            if self.weights[cand] < self.weights[id] {
                id = cand;
            }
        }
        let w_old = self.weights[id];
        let w_new = w_old + r.cycles;
        self.weights[id] = w_new;
        self.squares += u64::from(w_new) * u64::from(w_new) - u64::from(w_old) * u64::from(w_old);
        self.high = self.high.max(w_new);
        id
    }

    /// Release `(dense instance id, cycles)` reservations logged by
    /// [`Bins::reserve_logged`] (the partitioner's RELEASE-RESOURCES).
    ///
    /// # Panics
    ///
    /// Panics when an entry was not actually reserved (weights would go
    /// negative) — a caller bookkeeping bug.
    pub fn release(&mut self, entries: &[(usize, u32)]) {
        for &(id, cycles) in entries {
            let w_old = self.weights[id];
            assert!(w_old >= cycles, "releasing more cycles than reserved on bin {id}");
            let w_new = w_old - cycles;
            self.weights[id] = w_new;
            self.squares -=
                u64::from(w_old) * u64::from(w_old) - u64::from(w_new) * u64::from(w_new);
            if w_old == self.high && cycles > 0 {
                self.high_stale = true;
            }
        }
    }

    /// Overwrite this state with `other`'s, without allocating: the
    /// partitioner's snapshot before a cost probe and its restore after.
    ///
    /// # Panics
    ///
    /// Panics when `other` covers a pool of another size.
    pub fn copy_from(&mut self, other: &Bins) {
        assert_eq!(self.weights.len(), other.weights.len(), "snapshot pool mismatch");
        self.weights.copy_from_slice(&other.weights);
        self.squares = other.squares;
        self.high = other.high;
        self.high_stale = other.high_stale;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sv_ir::{OpKind, Opcode, ScalarType};
    use sv_machine::{MachineConfig, ResourceClass};

    fn paper_bins() -> (MachineConfig, Bins) {
        let m = MachineConfig::paper_default();
        let b = Bins::new(&m.resource_pool());
        (m, b)
    }

    #[test]
    fn empty_bins_cost_zero() {
        let (_, b) = paper_bins();
        assert_eq!(b.high_water_mark(), 0);
        assert_eq!(b.sum_squares(), 0);
    }

    #[test]
    fn spreads_across_alternatives() {
        let (m, mut b) = paper_bins();
        let load = Opcode::scalar(OpKind::Load, ScalarType::F64);
        // Two loads on two mem units: high-water mark stays 1.
        b.reserve(&m.requirements(load));
        b.reserve(&m.requirements(load));
        assert_eq!(b.high_water_mark(), 1);
        // A third must stack.
        b.reserve(&m.requirements(load));
        assert_eq!(b.high_water_mark(), 2);
    }

    #[test]
    fn release_restores_exactly() {
        let (m, mut b) = paper_bins();
        let before = b.weights().to_vec();
        let fmul = Opcode::scalar(OpKind::Mul, ScalarType::F64);
        let mut log = Vec::new();
        b.reserve_logged(&m.requirements(fmul), &mut log);
        assert_ne!(b.weights(), before);
        b.release(&log);
        assert_eq!(b.weights(), before);
        assert_eq!((b.high_water_mark(), b.sum_squares()), (0, 0));
    }

    #[test]
    fn divide_reserves_full_latency() {
        let (m, mut b) = paper_bins();
        let fdiv = Opcode::scalar(OpKind::Div, ScalarType::F64);
        let mut log = Vec::new();
        b.reserve_logged(&m.requirements(fdiv), &mut log);
        assert_eq!(b.high_water_mark(), 32);
        // 32 on the FP unit + 1 issue slot.
        assert_eq!(log.iter().map(|&(_, c)| c).sum::<u32>(), 33);
    }

    #[test]
    fn sum_squares_balances_issue_slots() {
        let (m, mut b) = paper_bins();
        let fadd = Opcode::scalar(OpKind::Add, ScalarType::F64);
        // Six fp adds: 2 fp units (3 each), and issue slots should spread
        // 1 each over the 6 slots rather than stacking.
        for _ in 0..6 {
            b.reserve(&m.requirements(fadd));
        }
        let issue = m.resource_pool().alternative_range(ResourceClass::Issue);
        assert_eq!(b.weights()[issue], [1; 6]);
        assert_eq!(b.high_water_mark(), 3);
    }

    #[test]
    #[should_panic(expected = "the machine has none")]
    fn missing_class_panics() {
        let mut m = MachineConfig::paper_default();
        m.merge_units = 0;
        let mut b = Bins::new(&m.resource_pool());
        let merge = Opcode::vector(OpKind::Merge, ScalarType::F64);
        b.reserve(&m.requirements(merge));
    }

    #[test]
    #[should_panic(expected = "releasing more cycles")]
    fn over_release_panics() {
        let (m, mut b) = paper_bins();
        let load = Opcode::scalar(OpKind::Load, ScalarType::F64);
        let mut log = Vec::new();
        b.reserve_logged(&m.requirements(load), &mut log);
        b.release(&log);
        b.release(&log);
    }

    #[test]
    #[should_panic(expected = "snapshot pool mismatch")]
    fn copy_from_another_pool_panics() {
        let (_, mut b) = paper_bins();
        b.copy_from(&Bins::new(&MachineConfig::figure1().resource_pool()));
    }
}
