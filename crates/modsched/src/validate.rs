//! Structural validation of modulo schedules.
//!
//! Lives in `sv-modsched` (rather than the simulator) so the compilation
//! driver in `sv-core` can validate every schedule at the pass boundary
//! that produced it, without a dependency cycle through `sv-sim`. The
//! simulator re-exports these names for back-compatibility.

use crate::mii::edge_delay;
use crate::sched::Schedule;
use std::collections::HashMap;
use std::fmt;
use sv_analysis::DepGraph;
use sv_ir::{Loop, OpId};
use sv_machine::{MachineConfig, ResourceClass};

/// A schedule defect found by [`validate_schedule`].
#[derive(Debug, Clone, PartialEq)]
pub enum ValidationError {
    /// A dependence `src → dst` is not satisfied by the issue times.
    DependenceViolated {
        /// Producer.
        src: OpId,
        /// Consumer.
        dst: OpId,
        /// Required separation in cycles.
        needed: i64,
        /// Actual separation.
        actual: i64,
    },
    /// A resource instance is reserved by two operations in the same
    /// kernel row.
    ResourceConflict {
        /// Human-readable instance name.
        instance: String,
        /// Kernel row (cycle mod II).
        row: u32,
    },
    /// An operation's assignment does not cover its resource requirements.
    AssignmentMismatch {
        /// The offending operation.
        op: OpId,
    },
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::DependenceViolated { src, dst, needed, actual } => write!(
                f,
                "dependence {src}→{dst} violated: needs {needed} cycles, has {actual}"
            ),
            ValidationError::ResourceConflict { instance, row } => {
                write!(f, "resource {instance} doubly reserved in kernel row {row}")
            }
            ValidationError::AssignmentMismatch { op } => {
                write!(f, "{op} assignment does not match its requirements")
            }
        }
    }
}

impl std::error::Error for ValidationError {}

/// Check that a modulo schedule respects every dependence edge
/// (`σ(dst) + II·distance ≥ σ(src) + delay`) and never oversubscribes a
/// resource instance in any kernel row, and that each operation's
/// functional-unit assignment covers exactly its opcode's requirements.
///
/// # Errors
///
/// Returns the first defect found.
pub fn validate_schedule(
    l: &Loop,
    g: &DepGraph,
    m: &MachineConfig,
    s: &Schedule,
) -> Result<(), ValidationError> {
    for e in g.edges() {
        if e.src == e.dst {
            continue;
        }
        let needed = edge_delay(e, l, m);
        let actual = i64::from(s.times[e.dst.index()])
            + i64::from(s.ii) * i64::from(e.distance)
            - i64::from(s.times[e.src.index()]);
        if actual < needed {
            return Err(ValidationError::DependenceViolated {
                src: e.src,
                dst: e.dst,
                needed,
                actual,
            });
        }
    }

    // Per-(row, instance) occupancy.
    let pool = m.resource_pool();
    let mut used: HashMap<(u32, usize), OpId> = HashMap::new();
    for (i, placement) in s.assignments.iter().enumerate() {
        let op = OpId(i as u32);
        // The multiset of classes must match the requirements.
        let mut required: Vec<(ResourceClass, u32)> = m
            .requirements(l.ops[i].opcode)
            .iter()
            .map(|r| (r.class, r.cycles))
            .collect();
        for (inst, cycles) in placement {
            let pos = required
                .iter()
                .position(|&(c, cy)| c == inst.class && cy == *cycles)
                .ok_or(ValidationError::AssignmentMismatch { op })?;
            required.swap_remove(pos);
            for j in 0..*cycles {
                let row = (s.times[i] + j) % s.ii;
                let key = (row, pool.dense_id(*inst));
                if used.insert(key, op).is_some() {
                    return Err(ValidationError::ResourceConflict {
                        instance: inst.to_string(),
                        row,
                    });
                }
            }
        }
        if !required.is_empty() {
            return Err(ValidationError::AssignmentMismatch { op });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modulo_schedule;
    use sv_ir::{LoopBuilder, ScalarType};

    fn compile_one(l: &Loop, m: &MachineConfig) -> (DepGraph, Schedule) {
        let g = DepGraph::build(l);
        let s = modulo_schedule(l, &g, m).unwrap();
        (g, s)
    }

    fn sample_loop() -> Loop {
        let mut b = LoopBuilder::new("sample");
        let x = b.array("x", ScalarType::F64, 128);
        let y = b.array("y", ScalarType::F64, 128);
        let lx = b.load(x, 1, 0);
        let ly = b.load(y, 1, 0);
        let mu = b.fmul(lx, ly);
        let s = b.fadd(mu, lx);
        b.store(y, 1, 0, s);
        b.finish()
    }

    #[test]
    fn valid_schedules_validate() {
        let l = sample_loop();
        let m = MachineConfig::paper_default();
        let (g, s) = compile_one(&l, &m);
        validate_schedule(&l, &g, &m, &s).unwrap();
    }

    #[test]
    fn corrupted_time_is_caught() {
        let l = sample_loop();
        let m = MachineConfig::paper_default();
        let (g, mut s) = compile_one(&l, &m);
        // Put the store before its producer.
        s.times[4] = 0;
        let r = validate_schedule(&l, &g, &m, &s);
        assert!(matches!(r, Err(ValidationError::DependenceViolated { .. })), "{r:?}");
    }

    #[test]
    fn corrupted_assignment_is_caught() {
        let l = sample_loop();
        let m = MachineConfig::paper_default();
        let (g, mut s) = compile_one(&l, &m);
        s.assignments[0].clear();
        let r = validate_schedule(&l, &g, &m, &s);
        assert!(matches!(r, Err(ValidationError::AssignmentMismatch { .. })));
    }

    #[test]
    fn duplicated_reservation_is_caught() {
        let l = sample_loop();
        let m = MachineConfig::paper_default();
        let (g, mut s) = compile_one(&l, &m);
        // Double-book an op's first reservation: the same resource
        // instance now claimed twice in the same cycle.
        let dup = s.assignments[0][0];
        s.assignments[0].push(dup);
        let r = validate_schedule(&l, &g, &m, &s);
        assert_eq!(r, Err(ValidationError::AssignmentMismatch { op: OpId(0) }));
    }
}
