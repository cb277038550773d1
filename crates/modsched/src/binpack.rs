//! Greedy resource bin-packing (paper Figure 2, lines 33–66).
//!
//! A bin is associated with each compiler-visible resource *instance*; an
//! operation reserves one instance of each resource class it requires,
//! choosing the alternative that minimizes the weight of the most heavily
//! used resource, with ties broken by the sum of squared bin weights. The
//! squared-sum tie-break keeps the bins balanced so the partitioner's
//! incremental release/reserve cost probes stay accurate — exactly the
//! optimization the paper describes in §3.2.

use sv_machine::{Reservation, ResourcePool};

/// The reservations one logical operation made, so they can be released
/// later (the partitioner's checkpoint/release/reserve probe).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Placement {
    /// `(dense instance id, cycles)` pairs.
    entries: Vec<(usize, u32)>,
}

impl Placement {
    /// The reserved `(dense instance id, cycles)` pairs.
    pub fn entries(&self) -> &[(usize, u32)] {
        &self.entries
    }

    /// Absorb another placement's reservations (so one logical item can
    /// bundle several `reserve` calls and release them together).
    pub fn extend(&mut self, other: Placement) {
        self.entries.extend(other.entries);
    }

    /// Total cycles reserved across all instances.
    pub fn total_cycles(&self) -> u64 {
        self.entries.iter().map(|&(_, c)| u64::from(c)).sum()
    }
}

/// Resource usage bins over a machine's resource pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bins {
    pool: ResourcePool,
    weights: Vec<u32>,
}

impl Bins {
    /// Empty bins over `pool`.
    pub fn new(pool: ResourcePool) -> Bins {
        let weights = vec![0; pool.len()];
        Bins { pool, weights }
    }

    /// The underlying pool.
    pub fn pool(&self) -> &ResourcePool {
        &self.pool
    }

    /// Weight (reserved cycles) of each instance, dense-id indexed.
    pub fn weights(&self) -> &[u32] {
        &self.weights
    }

    /// The weight of the most heavily used resource — the configuration
    /// cost, i.e. the resource-constrained minimum initiation interval.
    pub fn high_water_mark(&self) -> u32 {
        self.weights.iter().copied().max().unwrap_or(0)
    }

    /// Sum of squared bin weights; the balance-sensitive secondary cost.
    pub fn sum_squares(&self) -> u64 {
        self.weights.iter().map(|&w| u64::from(w) * u64::from(w)).sum()
    }

    /// Reserve one least-used instance of each required class
    /// (RESERVE-LEAST-USED): among a class's alternatives pick the one
    /// that, after adding the reservation, minimizes the high-water mark,
    /// breaking ties by the sum of squares. Returns the placement for later
    /// release.
    ///
    /// # Panics
    ///
    /// Panics when a required class has no instances in the pool — a
    /// machine/opcode mismatch.
    pub fn reserve(&mut self, reqs: &[Reservation]) -> Placement {
        let mut placement = Placement::default();
        placement.entries.reserve(reqs.len());
        for r in reqs {
            let alts = self.pool.alternative_range(r.class);
            assert!(
                !alts.is_empty(),
                "opcode requires {} but the machine has none",
                r.class
            );
            // Precompute current high and sum of squares once; candidates
            // only change one bin.
            let cur_high = self.high_water_mark();
            let cur_sq = self.sum_squares();
            let mut best: Option<(u32, u64, usize)> = None;
            for id in alts {
                let w_old = self.weights[id];
                let w_new = w_old + r.cycles;
                let high = cur_high.max(w_new);
                let sq = cur_sq - u64::from(w_old) * u64::from(w_old)
                    + u64::from(w_new) * u64::from(w_new);
                let cand = (high, sq, id);
                if best.is_none_or(|b| (cand.0, cand.1) < (b.0, b.1)) {
                    best = Some(cand);
                }
            }
            let (_, _, id) = best.expect("non-empty alternatives");
            self.weights[id] += r.cycles;
            placement.entries.push((id, r.cycles));
        }
        placement
    }

    /// Snapshot the current weights (cheap checkpoint for cost probes).
    pub fn checkpoint(&self) -> Vec<u32> {
        self.weights.clone()
    }

    /// Restore weights saved by [`Bins::checkpoint`].
    ///
    /// # Panics
    ///
    /// Panics when the snapshot came from a different pool (length
    /// mismatch).
    pub fn restore(&mut self, snapshot: &[u32]) {
        assert_eq!(snapshot.len(), self.weights.len(), "snapshot pool mismatch");
        self.weights.copy_from_slice(snapshot);
    }

    /// Release a previous placement (the partitioner's RELEASE-RESOURCES).
    ///
    /// # Panics
    ///
    /// Panics when the placement was not actually reserved (weights would
    /// go negative) — a caller bookkeeping bug.
    pub fn release(&mut self, placement: &Placement) {
        for &(id, cycles) in &placement.entries {
            assert!(
                self.weights[id] >= cycles,
                "releasing more cycles than reserved on bin {id}"
            );
            self.weights[id] -= cycles;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sv_machine::{MachineConfig, ResourceClass};
    use sv_ir::{OpKind, Opcode, ScalarType};

    fn paper_bins() -> (MachineConfig, Bins) {
        let m = MachineConfig::paper_default();
        let b = Bins::new(m.resource_pool());
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
        let snapshot = b.clone();
        let fmul = Opcode::scalar(OpKind::Mul, ScalarType::F64);
        let p = b.reserve(&m.requirements(fmul));
        assert_ne!(b, snapshot);
        b.release(&p);
        assert_eq!(b, snapshot);
    }

    #[test]
    fn divide_reserves_full_latency() {
        let (m, mut b) = paper_bins();
        let fdiv = Opcode::scalar(OpKind::Div, ScalarType::F64);
        let p = b.reserve(&m.requirements(fdiv));
        assert_eq!(b.high_water_mark(), 32);
        assert_eq!(p.total_cycles(), 33); // 32 on the FP unit + 1 issue slot
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
        let pool = b.pool().clone();
        let issue_weights: Vec<u32> = pool
            .alternatives(ResourceClass::Issue)
            .iter()
            .map(|i| b.weights()[pool.dense_id(*i)])
            .collect();
        assert_eq!(issue_weights, vec![1; 6]);
        assert_eq!(b.high_water_mark(), 3);
    }

    #[test]
    #[should_panic(expected = "the machine has none")]
    fn missing_class_panics() {
        let mut m = MachineConfig::paper_default();
        m.merge_units = 0;
        let mut b = Bins::new(m.resource_pool());
        let merge = Opcode::vector(OpKind::Merge, ScalarType::F64);
        b.reserve(&m.requirements(merge));
    }

    #[test]
    #[should_panic(expected = "releasing more cycles")]
    fn over_release_panics() {
        let (m, mut b) = paper_bins();
        let load = Opcode::scalar(OpKind::Load, ScalarType::F64);
        let p = b.reserve(&m.requirements(load));
        b.release(&p);
        b.release(&p);
    }
}
