//! Machine configuration: Table 1 of the paper, plus the Figure 1 toy.

use crate::comm::CommModel;
use crate::resources::{Reservation, ResourceClass, ResourcePool};
use sv_ir::{ArrayDecl, MemRef, OpKind, Opcode, RegClass, ScalarType, VectorForm};

/// Operation latencies in cycles (paper Table 1; stores, merges and copies
/// are single-cycle, the convention in Trimaran's HPL-PD descriptions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Latencies {
    /// Integer ALU (add/sub/min/max/neg/abs/copy).
    pub int_alu: u32,
    /// Integer multiply.
    pub int_mul: u32,
    /// Integer divide.
    pub int_div: u32,
    /// Floating-point ALU.
    pub fp_alu: u32,
    /// Floating-point multiply.
    pub fp_mul: u32,
    /// Floating-point divide (and square root).
    pub fp_div: u32,
    /// Load.
    pub load: u32,
    /// Store (cycles until a subsequent load can observe the value).
    pub store: u32,
    /// Branch.
    pub branch: u32,
    /// Vector merge (realignment).
    pub merge: u32,
    /// Select (conditional move). Pass-through data movement like a copy
    /// or merge, so single-cycle on the paper machine.
    pub select: u32,
}

impl Latencies {
    /// Paper Table 1 latencies.
    pub fn paper() -> Latencies {
        Latencies {
            int_alu: 1,
            int_mul: 3,
            int_div: 36,
            fp_alu: 4,
            fp_mul: 4,
            fp_div: 32,
            load: 3,
            store: 1,
            branch: 1,
            merge: 1,
            select: 1,
        }
    }

    /// All-ones latencies (the Figure 1 toy machine: "single-cycle
    /// latencies for all operations").
    pub fn unit() -> Latencies {
        Latencies {
            int_alu: 1,
            int_mul: 1,
            int_div: 1,
            fp_alu: 1,
            fp_mul: 1,
            fp_div: 1,
            load: 1,
            store: 1,
            branch: 1,
            merge: 1,
            select: 1,
        }
    }
}

/// Register-file sizes (paper Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegFiles {
    /// Scalar integer registers.
    pub scalar_int: u32,
    /// Scalar floating-point registers.
    pub scalar_fp: u32,
    /// Vector integer registers.
    pub vector_int: u32,
    /// Vector floating-point registers.
    pub vector_fp: u32,
    /// Predicate registers (one rotating predicate per pipeline stage
    /// guards the kernel-only code schema).
    pub predicates: u32,
}

impl RegFiles {
    /// Paper Table 1 register files.
    pub fn paper() -> RegFiles {
        RegFiles {
            scalar_int: 128,
            scalar_fp: 128,
            vector_int: 64,
            vector_fp: 64,
            predicates: 64,
        }
    }

    /// Size of the file for a register class.
    pub fn size(&self, class: RegClass) -> u32 {
        match class {
            RegClass::ScalarInt => self.scalar_int,
            RegClass::ScalarFp => self.scalar_fp,
            RegClass::VectorInt => self.vector_int,
            RegClass::VectorFp => self.vector_fp,
        }
    }
}

/// How the machine exposes functional units to the compiler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResourceModel {
    /// Full Table-1 model: every operation needs an issue slot plus its
    /// functional unit; vector memory ops share the load/store units.
    Full,
    /// Figure-1 toy model: issue slots are the only compiler-visible
    /// resources, plus a global one-vector-instruction-per-cycle limit.
    SlotsOnly,
}

/// Compile-time alignment knowledge for vector memory operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlignmentPolicy {
    /// All vector memory operations are assumed misaligned (the paper's
    /// main evaluation: "we do not employ any techniques that provide
    /// alignment information").
    AssumeMisaligned,
    /// All vector memory operations are assumed aligned (paper Table 5's
    /// best case).
    AssumeAligned,
    /// Use static information from array base alignment and constant
    /// offsets; unknown cases count as misaligned.
    UseStatic,
}

/// A complete machine description.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Name used in reports.
    pub name: String,
    /// Issue width (instructions per cycle).
    pub issue_width: u32,
    /// Scalar integer units.
    pub int_units: u32,
    /// Scalar floating-point units.
    pub fp_units: u32,
    /// Load/store units (shared scalar/vector).
    pub mem_units: u32,
    /// Branch units.
    pub branch_units: u32,
    /// Vector arithmetic units (shared int/fp).
    pub vector_units: u32,
    /// Vector merge units.
    pub merge_units: u32,
    /// Select (conditional move) units, shared between scalar and vector
    /// selects the way the load/store units are shared.
    pub select_units: u32,
    /// Optional global cap on vector instructions per cycle.
    pub vector_issue_limit: Option<u32>,
    /// Elements per vector register (paper: 128-bit vectors of 64-bit data,
    /// so 2).
    pub vector_length: u32,
    /// Latency table.
    pub lat: Latencies,
    /// Register files.
    pub regs: RegFiles,
    /// Scalar↔vector communication cost model.
    pub comm: CommModel,
    /// Alignment knowledge.
    pub alignment: AlignmentPolicy,
    /// Resource exposure model.
    pub model: ResourceModel,
    /// Charge loop control overhead (one branch + one induction update per
    /// transformed iteration). Disabled on the toy machine, which the paper
    /// draws without loop overhead.
    pub count_loop_overhead: bool,
    /// Divides/square-roots occupy their functional unit for their full
    /// latency (non-pipelined), the HPL-PD convention.
    pub non_pipelined_divide: bool,
    /// Fixed per-invocation cycles for entering a software-pipelined loop
    /// (live-in setup, predicate/rotation initialization). Amortized over
    /// the trip count, it matters only for low-trip-count loops.
    pub loop_setup_cycles: u64,
}

impl MachineConfig {
    /// The paper's simulated processor (Table 1).
    pub fn paper_default() -> MachineConfig {
        MachineConfig {
            name: "micro05-table1".into(),
            issue_width: 6,
            int_units: 4,
            fp_units: 2,
            mem_units: 2,
            branch_units: 1,
            vector_units: 1,
            merge_units: 1,
            select_units: 1,
            vector_issue_limit: None,
            vector_length: 2,
            lat: Latencies::paper(),
            regs: RegFiles::paper(),
            comm: CommModel::ThroughMemory,
            alignment: AlignmentPolicy::AssumeMisaligned,
            model: ResourceModel::Full,
            count_loop_overhead: true,
            non_pipelined_divide: true,
            loop_setup_cycles: 8,
        }
    }

    /// The Figure 1 toy machine: three issue slots as the only
    /// compiler-visible resources, one vector instruction per cycle,
    /// unit latencies, vectors of length two, free scalar↔vector
    /// communication and no loop overhead accounting.
    pub fn figure1() -> MachineConfig {
        MachineConfig {
            name: "micro05-figure1".into(),
            issue_width: 3,
            int_units: 3,
            fp_units: 3,
            mem_units: 3,
            branch_units: 1,
            vector_units: 1,
            merge_units: 1,
            select_units: 1,
            vector_issue_limit: Some(1),
            vector_length: 2,
            lat: Latencies::unit(),
            regs: RegFiles::paper(),
            comm: CommModel::Free,
            alignment: AlignmentPolicy::AssumeAligned,
            model: ResourceModel::SlotsOnly,
            count_loop_overhead: false,
            non_pipelined_divide: false,
            loop_setup_cycles: 0,
        }
    }

    /// Whether some class an opcode may reserve has no unit (a spec may
    /// declare zero of any). Cheap, so a per-op check can be skipped on a
    /// machine where this is false.
    pub fn lacks_a_unit(&self) -> bool {
        let units = [
            self.issue_width,
            self.int_units,
            self.fp_units,
            self.mem_units,
            self.branch_units,
            self.vector_units,
            self.merge_units,
            self.select_units,
        ];
        units.contains(&0) || self.vector_issue_limit == Some(0)
    }

    /// The resource pool (instances of every nonzero class).
    pub fn resource_pool(&self) -> ResourcePool {
        ResourcePool::new([
            (ResourceClass::Issue, self.issue_width),
            (ResourceClass::Int, self.int_units),
            (ResourceClass::Fp, self.fp_units),
            (ResourceClass::Mem, self.mem_units),
            (ResourceClass::Branch, self.branch_units),
            (ResourceClass::Vector, self.vector_units),
            (ResourceClass::Merge, self.merge_units),
            (ResourceClass::VectorIssue, self.vector_issue_limit.unwrap_or(0)),
            (ResourceClass::Select, self.select_units),
        ])
    }

    /// Whether the vector form of memory reference `r` (into `arrays`)
    /// needs realignment merges under the active alignment policy — the
    /// single misalignment rule, shared by the partitioner's price list
    /// and the transformer that emits the merges.
    pub fn misaligned(&self, arrays: &[ArrayDecl], r: &MemRef) -> bool {
        match self.alignment {
            AlignmentPolicy::AssumeAligned => false,
            AlignmentPolicy::AssumeMisaligned => true,
            AlignmentPolicy::UseStatic => {
                let a = &arrays[r.array.0 as usize];
                let vec_bytes = u64::from(self.vector_length) * a.ty.size_bytes();
                !(a.base_align.is_multiple_of(vec_bytes)
                    && r.offset.rem_euclid(i64::from(self.vector_length)) == 0)
            }
        }
    }

    /// Result latency of an opcode in cycles. Vector operations have the
    /// same latency as their scalar counterparts (paper §4).
    pub fn latency(&self, opcode: Opcode) -> u32 {
        let l = &self.lat;
        match opcode.kind {
            OpKind::Load => l.load,
            OpKind::Store => l.store,
            OpKind::Merge => l.merge,
            // Idealized free communication: no latency, no resources.
            OpKind::Pack | OpKind::Extract => 0,
            OpKind::Div | OpKind::Sqrt => {
                if opcode.ty.is_float() {
                    l.fp_div
                } else {
                    l.int_div
                }
            }
            OpKind::Mul => {
                if opcode.ty.is_float() {
                    l.fp_mul
                } else {
                    l.int_mul
                }
            }
            OpKind::Select => l.select,
            OpKind::Add | OpKind::Sub | OpKind::Min | OpKind::Max | OpKind::Neg
            | OpKind::Abs | OpKind::Copy | OpKind::Cmp(_) => {
                if opcode.ty.is_float() {
                    l.fp_alu
                } else {
                    l.int_alu
                }
            }
        }
    }

    /// The reservations an opcode needs: one instance per listed class, for
    /// the listed number of consecutive cycles.
    pub fn requirements(&self, opcode: Opcode) -> Vec<Reservation> {
        if matches!(opcode.kind, OpKind::Pack | OpKind::Extract) {
            // Free-communication pseudo-ops occupy nothing.
            return Vec::new();
        }
        let mut out = vec![Reservation::one(ResourceClass::Issue)];
        let vector = opcode.form == VectorForm::Vector;
        if vector && self.vector_issue_limit.is_some() {
            out.push(Reservation::one(ResourceClass::VectorIssue));
        }
        if self.model == ResourceModel::SlotsOnly {
            return out;
        }
        let fu_cycles = if matches!(opcode.kind, OpKind::Div | OpKind::Sqrt)
            && self.non_pipelined_divide
        {
            self.latency(opcode)
        } else {
            1
        };
        let fu = match opcode.kind {
            OpKind::Load | OpKind::Store => ResourceClass::Mem,
            OpKind::Merge => ResourceClass::Merge,
            // Selects run on the dedicated select unit in both forms
            // (shared scalar/vector, like the load/store units); compares
            // are ordinary ALU work and fall through below.
            OpKind::Select => ResourceClass::Select,
            _ if vector => ResourceClass::Vector,
            _ if opcode.ty == ScalarType::F64 => ResourceClass::Fp,
            _ => ResourceClass::Int,
        };
        out.push(Reservation { class: fu, cycles: fu_cycles });
        out
    }

    /// Reservations of the per-iteration loop control overhead (one branch
    /// plus one induction-variable update), or empty when
    /// [`MachineConfig::count_loop_overhead`] is off.
    pub fn loop_overhead(&self) -> Vec<Vec<Reservation>> {
        if !self.count_loop_overhead {
            return Vec::new();
        }
        vec![
            vec![
                Reservation::one(ResourceClass::Issue),
                Reservation::one(ResourceClass::Branch),
            ],
            vec![
                Reservation::one(ResourceClass::Issue),
                Reservation::one(ResourceClass::Int),
            ],
        ]
    }

    /// Number of scheduling alternatives an opcode has (product of class
    /// capacities over its requirements); used to order bin-packing so the
    /// most constrained operations are placed first, as in Rau's original
    /// formulation.
    pub fn alternatives_count(&self, opcode: Opcode) -> u64 {
        self.alternatives_count_in(&self.resource_pool(), opcode)
    }

    /// [`MachineConfig::alternatives_count`] against an existing pool
    /// (hot paths build the pool once).
    pub fn alternatives_count_in(&self, pool: &ResourcePool, opcode: Opcode) -> u64 {
        self.requirements(opcode)
            .iter()
            .map(|r| u64::from(pool.capacity(r.class)).max(1))
            .product()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fop(kind: OpKind) -> Opcode {
        Opcode::scalar(kind, ScalarType::F64)
    }

    #[test]
    fn paper_latencies_match_table1() {
        let m = MachineConfig::paper_default();
        assert_eq!(m.latency(fop(OpKind::Add)), 4);
        assert_eq!(m.latency(fop(OpKind::Mul)), 4);
        assert_eq!(m.latency(fop(OpKind::Div)), 32);
        assert_eq!(m.latency(Opcode::scalar(OpKind::Add, ScalarType::I64)), 1);
        assert_eq!(m.latency(Opcode::scalar(OpKind::Mul, ScalarType::I64)), 3);
        assert_eq!(m.latency(Opcode::scalar(OpKind::Div, ScalarType::I64)), 36);
        assert_eq!(m.latency(fop(OpKind::Load)), 3);
    }

    #[test]
    fn vector_latency_equals_scalar() {
        let m = MachineConfig::paper_default();
        for kind in [OpKind::Add, OpKind::Mul, OpKind::Load, OpKind::Store] {
            assert_eq!(
                m.latency(Opcode::vector(kind, ScalarType::F64)),
                m.latency(Opcode::scalar(kind, ScalarType::F64))
            );
        }
    }

    #[test]
    fn vector_memory_shares_mem_units() {
        let m = MachineConfig::paper_default();
        let reqs = m.requirements(Opcode::vector(OpKind::Load, ScalarType::F64));
        assert!(reqs.iter().any(|r| r.class == ResourceClass::Mem));
        assert!(!reqs.iter().any(|r| r.class == ResourceClass::Vector));
    }

    #[test]
    fn vector_arith_uses_vector_unit() {
        let m = MachineConfig::paper_default();
        let reqs = m.requirements(Opcode::vector(OpKind::Mul, ScalarType::F64));
        assert!(reqs.iter().any(|r| r.class == ResourceClass::Vector));
        assert!(!reqs.iter().any(|r| r.class == ResourceClass::Fp));
    }

    #[test]
    fn merge_uses_merge_unit() {
        let m = MachineConfig::paper_default();
        let reqs = m.requirements(Opcode::vector(OpKind::Merge, ScalarType::F64));
        assert!(reqs.iter().any(|r| r.class == ResourceClass::Merge));
    }

    #[test]
    fn divide_is_non_pipelined() {
        let m = MachineConfig::paper_default();
        let reqs = m.requirements(fop(OpKind::Div));
        let fp = reqs.iter().find(|r| r.class == ResourceClass::Fp).unwrap();
        assert_eq!(fp.cycles, 32);
        // Issue slot is still held for a single cycle.
        let issue = reqs.iter().find(|r| r.class == ResourceClass::Issue).unwrap();
        assert_eq!(issue.cycles, 1);
    }

    #[test]
    fn figure1_is_slots_only() {
        let m = MachineConfig::figure1();
        let scalar = m.requirements(fop(OpKind::Mul));
        assert_eq!(scalar.len(), 1);
        assert_eq!(scalar[0].class, ResourceClass::Issue);
        let vector = m.requirements(Opcode::vector(OpKind::Mul, ScalarType::F64));
        assert!(vector.iter().any(|r| r.class == ResourceClass::VectorIssue));
        assert_eq!(m.resource_pool().capacity(ResourceClass::VectorIssue), 1);
        assert_eq!(m.resource_pool().capacity(ResourceClass::Issue), 3);
    }

    #[test]
    fn cmp_is_alu_select_is_select_unit() {
        use sv_ir::CmpPred;
        let m = MachineConfig::paper_default();
        assert_eq!(m.latency(fop(OpKind::Cmp(CmpPred::Lt))), 4);
        assert_eq!(m.latency(Opcode::scalar(OpKind::Cmp(CmpPred::Eq), ScalarType::I64)), 1);
        assert_eq!(m.latency(fop(OpKind::Select)), 1);
        let cmp = m.requirements(fop(OpKind::Cmp(CmpPred::Lt)));
        assert!(cmp.iter().any(|r| r.class == ResourceClass::Fp));
        let vcmp = m.requirements(Opcode::vector(OpKind::Cmp(CmpPred::Lt), ScalarType::F64));
        assert!(vcmp.iter().any(|r| r.class == ResourceClass::Vector));
        // Selects occupy the shared select unit in both forms.
        for op in [fop(OpKind::Select), Opcode::vector(OpKind::Select, ScalarType::F64)] {
            let reqs = m.requirements(op);
            assert!(reqs.iter().any(|r| r.class == ResourceClass::Select), "{op}");
            assert!(!reqs.iter().any(|r| r.class == ResourceClass::Vector));
        }
        assert_eq!(m.resource_pool().capacity(ResourceClass::Select), 1);
    }

    #[test]
    fn loop_overhead_toggles() {
        assert!(MachineConfig::figure1().loop_overhead().is_empty());
        let oh = MachineConfig::paper_default().loop_overhead();
        assert_eq!(oh.len(), 2);
    }

    #[test]
    fn reg_files_by_class() {
        let r = RegFiles::paper();
        assert_eq!(r.size(RegClass::ScalarInt), 128);
        assert_eq!(r.size(RegClass::VectorFp), 64);
    }

    #[test]
    fn alternatives_counts_ordering() {
        let m = MachineConfig::paper_default();
        // A branch-free fp op has 6 issue × 2 fp = 12 alternatives; a memory
        // op 6 × 2 = 12; a vector arith op 6 × 1 = 6 — more constrained.
        assert!(
            m.alternatives_count(Opcode::vector(OpKind::Mul, ScalarType::F64))
                < m.alternatives_count(fop(OpKind::Mul))
        );
    }
}
