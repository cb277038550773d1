//! Partition-driven loop transformation (paper §3.3).

use crate::error::TransformError;
use std::collections::{BTreeSet, HashMap};
use sv_ir::{
    ArrayDecl, CarriedInit, Loop, MemRef, OpId, OpKind, Opcode, Operand, Operation,
    ScalarType, VectorForm,
};
use sv_machine::{CommModel, MachineConfig};

/// The result of transforming a loop under a scalar/vector partition.
#[derive(Debug, Clone)]
pub struct Transformed {
    /// The transformed loop (`iter_scale` multiplied by the vector length).
    pub looop: Loop,
    /// For each source op in the vector partition: the op that carries its
    /// *value* in the transformed loop (the merge for misaligned vector
    /// loads, else the vector op itself). `None` for stores and scalar ops.
    pub vector_value_of: Vec<Option<OpId>>,
    /// For each source op in the scalar partition: its `k` lane copies.
    pub scalar_copies: Vec<Vec<OpId>>,
    /// Number of transfer operations (communication through memory).
    pub transfer_ops: usize,
    /// Number of merge operations inserted for misaligned vector refs.
    pub merge_ops: usize,
}

/// Symbolic identity of a transformed-loop operation before ids exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Key {
    /// Vector version of source op.
    Vec(u32),
    /// Realignment merge after a misaligned vector load.
    MergeLoad(u32),
    /// Realignment merge before a misaligned vector store.
    MergeStore(u32),
    /// Scalar copy `(op, lane)`.
    Lane(u32, u32),
    /// Scalar→vector transfer: store of `(producer, lane)`.
    TStore(u32, u32),
    /// Scalar→vector transfer: the vector load of `producer`'s lanes.
    TVLoad(u32),
    /// Vector→scalar transfer: the vector store of `producer`'s value.
    TVStore(u32),
    /// Vector→scalar transfer: scalar load of `(producer, lane)`.
    TLoad(u32, u32),
    /// Free-communication gather of `producer`'s lanes into a vector.
    Pack(u32),
    /// Free-communication extraction of `(producer, lane)`.
    Extract(u32, u32),
}

impl Key {
    /// Deterministic emission preference (used to break ties in the
    /// topological sort): roughly program order of the source op, with
    /// merges-before-stores and transfers after their producers.
    fn sort_key(self) -> (u32, u8, u32) {
        match self {
            Key::MergeStore(i) => (i, 0, 0),
            Key::Vec(i) => (i, 1, 0),
            Key::Lane(i, j) => (i, 1, j),
            Key::MergeLoad(i) => (i, 2, 0),
            Key::TStore(p, j) => (p, 3, j),
            Key::TVStore(p) => (p, 3, 0),
            Key::Pack(p) => (p, 3, 0),
            Key::TVLoad(p) => (p, 4, 0),
            Key::TLoad(p, j) => (p, 4, j),
            Key::Extract(p, j) => (p, 4, j),
        }
    }
}

#[derive(Debug, Clone)]
enum NOperand {
    Key { key: Key, distance: u32 },
    Plain(Operand),
}

#[derive(Debug, Clone)]
struct Node {
    key: Key,
    opcode: Opcode,
    operands: Vec<NOperand>,
    mem: Option<MemRef>,
    is_reduction: bool,
    carried_init: CarriedInit,
}

struct Builder<'a> {
    src: &'a Loop,
    m: &'a MachineConfig,
    part: &'a [bool],
    k: u32,
    nodes: Vec<Node>,
    index: HashMap<Key, usize>,
    arrays: Vec<ArrayDecl>,
    comm_array: HashMap<u32, sv_ir::ArrayId>,
    /// Value-carrying key per vector-partition source op.
    value_key: Vec<Option<Key>>,
    /// Extra intra-iteration ordering constraints (communication slots:
    /// the stores feeding a transfer load must precede it).
    order_edges: Vec<(Key, Key)>,
}

/// Structural preconditions mirroring the transformer's internal
/// invariants, checked up front so an illegal partition surfaces as a
/// typed error rather than an unwind.
fn check_partition(src: &Loop, m: &MachineConfig, part: &[bool]) -> Result<(), TransformError> {
    if part.len() != src.ops.len() {
        return Err(TransformError::PartitionMismatch {
            expected: src.ops.len(),
            got: part.len(),
        });
    }
    let k = m.vector_length;
    if k < 2 {
        return Err(TransformError::VectorLengthTooSmall { vl: k });
    }
    for (i, op) in src.ops.iter().enumerate() {
        if !part[i] {
            continue;
        }
        if let Some(r) = &op.mem {
            if r.stride != 1 {
                return Err(TransformError::NotUnitStride { op: op.id, stride: r.stride });
            }
        }
        for (slot, o) in op.operands.iter().enumerate() {
            if let Operand::Def { op: p, distance: d } = *o {
                // A reduction's accumulator self-reference becomes the
                // vector partial-sum recurrence; everything else must keep
                // whole vector iterations apart.
                if p.index() == i && op.is_reduction && slot == 0 {
                    continue;
                }
                if d % k != 0 {
                    return Err(TransformError::MisalignedCarriedUse {
                        consumer: op.id,
                        producer: p,
                        distance: d,
                        vl: k,
                    });
                }
            }
        }
    }
    Ok(())
}

/// Transform `src` for machine `m` under `part` (`true` = vector
/// partition). Non-vectorizable operations must be `false`; memory
/// operations in the vector partition must be unit-stride and vector
/// consumers' carried uses must be multiples of the vector length (both
/// guaranteed by `sv-analysis` legality, checked here).
///
/// Passing an all-`false` partition produces the paper's *baseline*: the
/// loop unrolled by the vector length with base+offset addressing.
///
/// ```
/// use sv_ir::{LoopBuilder, ScalarType};
/// use sv_machine::MachineConfig;
/// use sv_vectorize::try_transform;
///
/// let mut b = LoopBuilder::new("copy");
/// let x = b.array("x", ScalarType::F64, 64);
/// let y = b.array("y", ScalarType::F64, 64);
/// let lx = b.load(x, 1, 0);
/// b.store(y, 1, 0, lx);
/// let l = b.finish();
///
/// let m = MachineConfig::paper_default();
/// // Vectorize everything: one vector load + merge + merge + vector store.
/// let t = try_transform(&l, &m, &[true, true]).unwrap();
/// assert_eq!(t.looop.iter_scale, 2);
/// assert_eq!(t.merge_ops, 2); // misaligned by default on the paper machine
/// ```
///
/// # Errors
///
/// Returns an error when the partition does not match the loop, violates
/// a legality invariant (stride, carried-use alignment), or the emitted
/// loop fails IR verification (an internal bug, reported with a dump).
pub fn try_transform(
    src: &Loop,
    m: &MachineConfig,
    part: &[bool],
) -> Result<Transformed, TransformError> {
    check_partition(src, m, part)?;
    let k = m.vector_length;

    let mut b = Builder {
        src,
        m,
        part,
        k,
        nodes: Vec::new(),
        index: HashMap::new(),
        arrays: src.arrays.clone(),
        comm_array: HashMap::new(),
        value_key: vec![None; src.ops.len()],
        order_edges: Vec::new(),
    };

    b.create_source_nodes();
    b.fill_operands();
    let (looop, id_of, transfer_ops, merge_ops) = b.emit()?;

    let vector_value_of = (0..src.ops.len())
        .map(|i| {
            if part[i] {
                b_value_key(&looop, &id_of, &b_value(&b, i))
            } else {
                None
            }
        })
        .collect();
    let scalar_copies = (0..src.ops.len())
        .map(|i| {
            if part[i] {
                Vec::new()
            } else {
                (0..k).map(|j| id_of[&Key::Lane(i as u32, j)]).collect()
            }
        })
        .collect();

    Ok(Transformed { looop, vector_value_of, scalar_copies, transfer_ops, merge_ops })
}

fn b_value(b: &Builder<'_>, i: usize) -> Option<Key> {
    b.value_key[i]
}

fn b_value_key(
    _l: &Loop,
    id_of: &HashMap<Key, OpId>,
    key: &Option<Key>,
) -> Option<OpId> {
    key.as_ref().map(|k| id_of[k])
}

impl<'a> Builder<'a> {
    fn push_node(&mut self, node: Node) {
        let prev = self.index.insert(node.key, self.nodes.len());
        debug_assert!(prev.is_none(), "duplicate node {:?}", node.key);
        self.nodes.push(node);
    }

    /// The transformed memory ref of a source ref at lane `j` (scalar) or
    /// widened over `k` lanes (vector, requires unit stride).
    fn lane_ref(&self, r: &MemRef, j: u32) -> MemRef {
        MemRef {
            array: r.array,
            stride: r.stride * i64::from(self.k),
            offset: r.offset + r.stride * i64::from(j),
            width: 1,
        }
    }

    fn wide_ref(&self, r: &MemRef) -> MemRef {
        assert_eq!(r.stride, 1, "vector memory op must be unit stride");
        MemRef {
            array: r.array,
            stride: i64::from(self.k),
            offset: r.offset,
            width: self.k,
        }
    }

    fn create_source_nodes(&mut self) {
        for (i, op) in self.src.ops.iter().enumerate() {
            let iu = i as u32;
            if self.part[i] {
                let vopc = op.opcode.with_form(VectorForm::Vector);
                match op.opcode.kind {
                    OpKind::Load => {
                        let r = self.wide_ref(op.mem_ref());
                        let mis = self.m.misaligned(&self.src.arrays, op.mem_ref());
                        self.push_node(Node {
                            key: Key::Vec(iu),
                            opcode: vopc,
                            operands: vec![],
                            mem: Some(r),
                            is_reduction: false,
                            carried_init: op.carried_init,
                        });
                        if mis {
                            self.push_node(Node {
                                key: Key::MergeLoad(iu),
                                opcode: Opcode::vector(OpKind::Merge, op.opcode.ty),
                                operands: vec![NOperand::Key {
                                    key: Key::Vec(iu),
                                    distance: 0,
                                }],
                                mem: None,
                                is_reduction: false,
                                carried_init: op.carried_init,
                            });
                            self.value_key[i] = Some(Key::MergeLoad(iu));
                        } else {
                            self.value_key[i] = Some(Key::Vec(iu));
                        }
                    }
                    OpKind::Store => {
                        let r = self.wide_ref(op.mem_ref());
                        let mis = self.m.misaligned(&self.src.arrays, op.mem_ref());
                        if mis {
                            self.push_node(Node {
                                key: Key::MergeStore(iu),
                                opcode: Opcode::vector(OpKind::Merge, op.opcode.ty),
                                operands: vec![], // filled in pass 2
                                mem: None,
                                is_reduction: false,
                                carried_init: CarriedInit::Zero,
                            });
                        }
                        self.push_node(Node {
                            key: Key::Vec(iu),
                            opcode: vopc,
                            operands: vec![], // filled in pass 2
                            mem: Some(r),
                            is_reduction: false,
                            carried_init: CarriedInit::Zero,
                        });
                    }
                    _ => {
                        self.push_node(Node {
                            key: Key::Vec(iu),
                            opcode: vopc,
                            operands: vec![],
                            mem: None,
                            is_reduction: op.is_reduction,
                            carried_init: op.carried_init,
                        });
                        self.value_key[i] = Some(Key::Vec(iu));
                    }
                }
            } else {
                for j in 0..self.k {
                    let mem = op.mem.as_ref().map(|r| self.lane_ref(r, j));
                    self.push_node(Node {
                        key: Key::Lane(iu, j),
                        opcode: op.opcode,
                        operands: vec![],
                        mem,
                        is_reduction: false,
                        carried_init: op.carried_init,
                    });
                }
            }
        }
    }

    fn comm_array_for(&mut self, p: u32, ty: ScalarType) -> sv_ir::ArrayId {
        if let Some(&a) = self.comm_array.get(&p) {
            return a;
        }
        let id = sv_ir::ArrayId(self.arrays.len() as u32);
        self.arrays.push(ArrayDecl {
            name: format!("comm{p}"),
            ty,
            len: u64::from(self.k),
            base_align: u64::from(self.k) * ty.size_bytes(),
            iteration_private: true,
            fill: sv_ir::ArrayFill::Zero,
        });
        self.comm_array.insert(p, id);
        id
    }

    /// Zero-cost pack of `p`'s lanes (free communication model).
    fn ensure_pack(&mut self, p: u32) -> Key {
        if self.index.contains_key(&Key::Pack(p)) {
            return Key::Pack(p);
        }
        let src_op = &self.src.ops[p as usize];
        self.push_node(Node {
            key: Key::Pack(p),
            opcode: Opcode::vector(OpKind::Pack, src_op.opcode.ty),
            operands: (0..self.k)
                .map(|j| NOperand::Key { key: Key::Lane(p, j), distance: 0 })
                .collect(),
            mem: None,
            is_reduction: false,
            carried_init: src_op.carried_init,
        });
        Key::Pack(p)
    }

    /// Zero-cost lane extraction of `p`'s vector value (free model).
    fn ensure_extract(&mut self, p: u32, lane: u32) -> Key {
        if self.index.contains_key(&Key::Extract(p, lane)) {
            return Key::Extract(p, lane);
        }
        let src_op = &self.src.ops[p as usize];
        let vkey = self.value_key[p as usize].expect("vector producer has a value");
        self.push_node(Node {
            key: Key::Extract(p, lane),
            opcode: Opcode::scalar(OpKind::Extract, src_op.opcode.ty),
            operands: vec![
                NOperand::Key { key: vkey, distance: 0 },
                NOperand::Plain(Operand::ConstI(i64::from(lane))),
            ],
            mem: None,
            is_reduction: false,
            carried_init: src_op.carried_init,
        });
        Key::Extract(p, lane)
    }

    /// Scalar→vector transfer of producer `p`'s lanes; returns the key of
    /// the vector load carrying the transferred value.
    fn ensure_s2v(&mut self, p: u32) -> Key {
        assert_eq!(
            self.m.comm,
            CommModel::ThroughMemory,
            "explicit transfers exist only under the through-memory model"
        );
        if self.index.contains_key(&Key::TVLoad(p)) {
            return Key::TVLoad(p);
        }
        let src_op = &self.src.ops[p as usize];
        let ty = src_op.opcode.ty;
        let init = src_op.carried_init;
        let arr = self.comm_array_for(p, ty);
        for j in 0..self.k {
            self.push_node(Node {
                key: Key::TStore(p, j),
                opcode: Opcode::scalar(OpKind::Store, ty),
                operands: vec![NOperand::Key { key: Key::Lane(p, j), distance: 0 }],
                mem: Some(MemRef { array: arr, stride: 0, offset: i64::from(j), width: 1 }),
                is_reduction: false,
                carried_init: CarriedInit::Zero,
            });
        }
        self.push_node(Node {
            key: Key::TVLoad(p),
            opcode: Opcode::vector(OpKind::Load, ty),
            operands: vec![],
            mem: Some(MemRef { array: arr, stride: 0, offset: 0, width: self.k }),
            is_reduction: false,
            carried_init: init,
        });
        for j in 0..self.k {
            self.order_edges.push((Key::TStore(p, j), Key::TVLoad(p)));
        }
        Key::TVLoad(p)
    }

    /// Vector→scalar transfer; returns nothing (lane loads are addressed
    /// directly as `Key::TLoad(p, lane)`).
    fn ensure_v2s(&mut self, p: u32) {
        assert_eq!(
            self.m.comm,
            CommModel::ThroughMemory,
            "explicit transfers exist only under the through-memory model"
        );
        if self.index.contains_key(&Key::TVStore(p)) {
            return;
        }
        let src_op = &self.src.ops[p as usize];
        let ty = src_op.opcode.ty;
        let init = src_op.carried_init;
        let arr = self.comm_array_for(p, ty);
        let vkey = self.value_key[p as usize].expect("vector producer has a value");
        self.push_node(Node {
            key: Key::TVStore(p),
            opcode: Opcode::vector(OpKind::Store, ty),
            operands: vec![NOperand::Key { key: vkey, distance: 0 }],
            mem: Some(MemRef { array: arr, stride: 0, offset: 0, width: self.k }),
            is_reduction: false,
            carried_init: CarriedInit::Zero,
        });
        for j in 0..self.k {
            self.push_node(Node {
                key: Key::TLoad(p, j),
                opcode: Opcode::scalar(OpKind::Load, ty),
                operands: vec![],
                mem: Some(MemRef { array: arr, stride: 0, offset: i64::from(j), width: 1 }),
                is_reduction: false,
                carried_init: init,
            });
            self.order_edges.push((Key::TVStore(p), Key::TLoad(p, j)));
        }
    }

    fn map_operand_vector(&mut self, consumer: usize, slot: usize, o: &Operand) -> NOperand {
        let op = &self.src.ops[consumer];
        match *o {
            Operand::Def { op: p, distance: d } => {
                if p.index() == consumer && op.is_reduction && slot == 0 {
                    // Vector partial sums: self-reference at distance 1.
                    return NOperand::Key { key: Key::Vec(consumer as u32), distance: 1 };
                }
                if self.part[p.index()] {
                    assert_eq!(
                        d % self.k,
                        0,
                        "vector consumer carried use must align with vl"
                    );
                    let key = self.value_key[p.index()].expect("producer value");
                    NOperand::Key { key, distance: d / self.k }
                } else if self.m.comm == CommModel::Free {
                    // Idealized machine: operands move between register
                    // files without instructions (Figure 1's assumption);
                    // a zero-cost pack carries the lanes.
                    assert_eq!(d % self.k, 0, "carried use must align with vl");
                    let key = self.ensure_pack(p.0);
                    NOperand::Key { key, distance: d / self.k }
                } else {
                    assert_eq!(d % self.k, 0, "carried use must align with vl");
                    let key = self.ensure_s2v(p.0);
                    NOperand::Key { key, distance: d / self.k }
                }
            }
            Operand::Iv { scale, offset } => NOperand::Plain(Operand::Iv {
                scale: scale * i64::from(self.k),
                offset,
            }),
            other => NOperand::Plain(other),
        }
    }

    fn map_operand_scalar(&mut self, _consumer: usize, j: u32, o: &Operand) -> NOperand {
        match *o {
            Operand::Def { op: p, distance: d } => {
                let k = i64::from(self.k);
                let jp = (i64::from(j) - i64::from(d)).rem_euclid(k) as u32;
                let dd = (i64::from(d) - i64::from(j) + i64::from(jp)) / k;
                let dd = u32::try_from(dd).expect("non-negative transformed distance");
                if self.part[p.index()] {
                    if self.m.comm == CommModel::Free {
                        // Idealized: a zero-cost extract reads lane `jp`.
                        let key = self.ensure_extract(p.0, jp);
                        NOperand::Key { key, distance: dd }
                    } else {
                        self.ensure_v2s(p.0);
                        NOperand::Key { key: Key::TLoad(p.0, jp), distance: dd }
                    }
                } else {
                    NOperand::Key { key: Key::Lane(p.0, jp), distance: dd }
                }
            }
            Operand::Iv { scale, offset } => NOperand::Plain(Operand::Iv {
                scale: scale * i64::from(self.k),
                offset: offset + scale * i64::from(j),
            }),
            other => NOperand::Plain(other),
        }
    }

    fn fill_operands(&mut self) {
        for i in 0..self.src.ops.len() {
            let op = self.src.ops[i].clone();
            let iu = i as u32;
            if self.part[i] {
                let mapped: Vec<NOperand> = op
                    .operands
                    .iter()
                    .enumerate()
                    .map(|(slot, o)| self.map_operand_vector(i, slot, o))
                    .collect();
                if op.opcode.kind == OpKind::Store {
                    if self.index.contains_key(&Key::MergeStore(iu)) {
                        let mi = self.index[&Key::MergeStore(iu)];
                        self.nodes[mi].operands = mapped;
                        let vi = self.index[&Key::Vec(iu)];
                        self.nodes[vi].operands =
                            vec![NOperand::Key { key: Key::MergeStore(iu), distance: 0 }];
                    } else {
                        let vi = self.index[&Key::Vec(iu)];
                        self.nodes[vi].operands = mapped;
                    }
                } else if op.opcode.kind != OpKind::Load {
                    let vi = self.index[&Key::Vec(iu)];
                    self.nodes[vi].operands = mapped;
                }
            } else {
                for j in 0..self.k {
                    let mapped: Vec<NOperand> = op
                        .operands
                        .iter()
                        .map(|o| self.map_operand_scalar(i, j, o))
                        .collect();
                    let li = self.index[&Key::Lane(iu, j)];
                    self.nodes[li].operands = mapped;
                }
            }
        }
    }

    /// The original iteration in which `node` accesses memory relative to
    /// its lane structure, as a pairwise ordering aid. Scalar lanes order
    /// by `(lane, source op index)` — exactly the original execution
    /// order; anything involving a vector access (unit stride by
    /// legality) orders by `(−original offset, source op index)`, the
    /// original time of the conflicting element.
    fn mem_order_before(&self, a: usize, b: usize) -> bool {
        let (na, nb) = (&self.nodes[a], &self.nodes[b]);
        let lane_of = |k: Key| match k {
            Key::Lane(i, j) => Some((j, i)),
            _ => None,
        };
        let orig_of = |k: Key| match k {
            Key::Lane(i, _) | Key::Vec(i) => i,
            Key::TStore(p, _) | Key::TVLoad(p) | Key::TVStore(p) | Key::TLoad(p, _) => p,
            Key::MergeLoad(i) | Key::MergeStore(i) | Key::Pack(i) | Key::Extract(i, _) => i,
        };
        match (lane_of(na.key), lane_of(nb.key)) {
            (Some(ka), Some(kb)) => ka < kb,
            _ => {
                let off = |k: Key| {
                    let op = &self.src.ops[orig_of(k) as usize];
                    op.mem_ref().offset
                };
                let (oa, ob) = (off(na.key), off(nb.key));
                // Larger original offset touches the conflicting element
                // in an earlier original iteration.
                (std::cmp::Reverse(oa), orig_of(na.key))
                    < (std::cmp::Reverse(ob), orig_of(nb.key))
            }
        }
    }

    /// Kahn topological sort on distance-0 edges — register dataflow plus
    /// intra-iteration memory dependences — then emit the loop.
    fn emit(&self) -> Result<(Loop, HashMap<Key, OpId>, usize, usize), TransformError> {
        let n = self.nodes.len();
        let mut indegree = vec![0usize; n];
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        let add_edge = |succs: &mut Vec<Vec<usize>>, indegree: &mut Vec<usize>, p: usize, i: usize| {
            if p != i && !succs[p].contains(&i) {
                succs[p].push(i);
                indegree[i] += 1;
            }
        };
        for (i, node) in self.nodes.iter().enumerate() {
            for o in &node.operands {
                if let NOperand::Key { key, distance: 0 } = o {
                    let p = self.index[key];
                    add_edge(&mut succs, &mut indegree, p, i);
                }
            }
        }
        for (from, to) in &self.order_edges {
            add_edge(&mut succs, &mut indegree, self.index[from], self.index[to]);
        }
        // Intra-iteration memory dependences between lanes/vectors of the
        // transformed loop: conflicting same-cycle accesses must keep the
        // original access order, or unrolled recurrences read stale data.
        let mem_nodes: Vec<usize> = (0..n)
            .filter(|&i| {
                self.nodes[i].mem.is_some()
                    && !self.arrays[self.nodes[i].mem.unwrap().array.0 as usize]
                        .iteration_private
            })
            .collect();
        for (xi, &a) in mem_nodes.iter().enumerate() {
            for &b in &mem_nodes[xi + 1..] {
                let (ra, rb) = (self.nodes[a].mem.unwrap(), self.nodes[b].mem.unwrap());
                if ra.array != rb.array {
                    continue;
                }
                let a_store = self.nodes[a].opcode.kind == OpKind::Store;
                let b_store = self.nodes[b].opcode.kind == OpKind::Store;
                if !a_store && !b_store {
                    continue;
                }
                let conflicts_now = sv_analysis::mem_dependences(&ra, &rb, 4)
                    .iter()
                    .chain(sv_analysis::mem_dependences(&rb, &ra, 4).iter())
                    .any(|d| matches!(d, sv_analysis::Distance::Exact(0))
                        || matches!(d, sv_analysis::Distance::Star));
                if !conflicts_now {
                    continue;
                }
                if self.mem_order_before(a, b) {
                    add_edge(&mut succs, &mut indegree, a, b);
                } else {
                    add_edge(&mut succs, &mut indegree, b, a);
                }
            }
        }
        let mut ready: BTreeSet<((u32, u8, u32), usize)> = (0..n)
            .filter(|&i| indegree[i] == 0)
            .map(|i| (self.nodes[i].key.sort_key(), i))
            .collect();
        let mut order = Vec::with_capacity(n);
        while let Some(&(sk, i)) = ready.iter().next() {
            ready.remove(&(sk, i));
            order.push(i);
            for &s in &succs[i] {
                indegree[s] -= 1;
                if indegree[s] == 0 {
                    ready.insert((self.nodes[s].key.sort_key(), s));
                }
            }
        }
        if order.len() != n {
            return Err(TransformError::DependenceCycle);
        }

        let mut looop = Loop::new(format!("{}.x{}", self.src.name, self.k));
        looop.arrays = self.arrays.clone();
        looop.live_ins = self.src.live_ins.clone();
        looop.trip = self.src.trip;
        looop.invocations = self.src.invocations;
        looop.allow_reassoc = self.src.allow_reassoc;
        looop.iter_scale = self.src.iter_scale * self.k;
        looop.vector_width = self.k;

        let mut id_of: HashMap<Key, OpId> = HashMap::with_capacity(n);
        for &i in &order {
            id_of.insert(self.nodes[i].key, OpId(looop.ops.len() as u32));
            // Operands resolved in a second pass once every id exists
            // (carried refs may point forward).
            looop.push_op(Operation {
                id: OpId(0),
                opcode: self.nodes[i].opcode,
                operands: Vec::new(),
                mem: self.nodes[i].mem,
                is_reduction: self.nodes[i].is_reduction,
                carried_init: self.nodes[i].carried_init,
            });
        }
        for (pos, &i) in order.iter().enumerate() {
            let ops: Vec<Operand> = self.nodes[i]
                .operands
                .iter()
                .map(|o| match o {
                    NOperand::Key { key, distance } => Operand::Def {
                        op: id_of[key],
                        distance: *distance,
                    },
                    NOperand::Plain(p) => *p,
                })
                .collect();
            looop.ops[pos].operands = ops;
        }

        // Live-outs.
        for lo in &self.src.live_outs {
            let p = lo.op;
            let new = if self.part[p.index()] {
                let key = self.value_key[p.index()].expect("live-out producer");
                let horizontal = if self.src.ops[p.index()].is_reduction {
                    Some(self.src.ops[p.index()].opcode.kind)
                } else {
                    None
                };
                sv_ir::LiveOut {
                    name: lo.name.clone(),
                    op: id_of[&key],
                    horizontal,
                    combine: lo.combine,
                }
            } else {
                sv_ir::LiveOut {
                    name: lo.name.clone(),
                    op: id_of[&Key::Lane(p.0, self.k - 1)],
                    horizontal: None,
                    combine: lo.combine,
                }
            };
            looop.live_outs.push(new);
        }

        if let Err(e) = looop.verify() {
            return Err(TransformError::InvalidOutput {
                transform: "selective",
                error: e,
                dump: looop.to_string(),
            });
        }

        let transfer_ops = self
            .nodes
            .iter()
            .filter(|nd| {
                matches!(
                    nd.key,
                    Key::TStore(..) | Key::TVLoad(_) | Key::TVStore(_) | Key::TLoad(..)
                )
            })
            .count();
        let merge_ops = self
            .nodes
            .iter()
            .filter(|nd| matches!(nd.key, Key::MergeLoad(_) | Key::MergeStore(_)))
            .count();
        Ok((looop, id_of, transfer_ops, merge_ops))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sv_ir::LoopBuilder;
    use sv_machine::AlignmentPolicy;

    fn daxpy() -> Loop {
        let mut b = LoopBuilder::new("daxpy");
        let x = b.array("x", ScalarType::F64, 64);
        let y = b.array("y", ScalarType::F64, 64);
        let a = b.live_in("a", ScalarType::F64);
        let lx = b.load(x, 1, 0);
        let ly = b.load(y, 1, 0);
        let ax = b.fmul_li(a, lx);
        let s = b.fadd(ax, ly);
        b.store(y, 1, 0, s);
        b.finish()
    }

    #[test]
    fn all_scalar_partition_unrolls() {
        let l = daxpy();
        let mut m = MachineConfig::paper_default();
        m.alignment = AlignmentPolicy::AssumeAligned;
        let t = try_transform(&l, &m, &vec![false; l.ops.len()]).unwrap();
        assert_eq!(t.looop.ops.len(), l.ops.len() * 2);
        assert_eq!(t.looop.iter_scale, 2);
        assert_eq!(t.transfer_ops, 0);
        assert_eq!(t.merge_ops, 0);
        assert!(t.looop.ops.iter().all(|o| o.opcode.form == VectorForm::Scalar));
        // Lane 1's loads address offset 1.
        let lane1_loads: Vec<_> = t
            .looop
            .ops
            .iter()
            .filter(|o| o.opcode.kind == OpKind::Load && o.mem_ref().offset == 1)
            .collect();
        assert_eq!(lane1_loads.len(), 2);
        assert!(lane1_loads.iter().all(|o| o.mem_ref().stride == 2));
    }

    #[test]
    fn all_vector_partition_aligned() {
        let l = daxpy();
        let mut m = MachineConfig::paper_default();
        m.alignment = AlignmentPolicy::AssumeAligned;
        let t = try_transform(&l, &m, &vec![true; l.ops.len()]).unwrap();
        assert_eq!(t.looop.ops.len(), l.ops.len());
        assert!(t.looop.ops.iter().all(|o| o.opcode.form == VectorForm::Vector));
        assert_eq!(t.transfer_ops, 0);
        let wide = t.looop.ops[0].mem_ref();
        assert_eq!((wide.stride, wide.width), (2, 2));
    }

    #[test]
    fn misaligned_policy_inserts_merges() {
        let l = daxpy();
        let m = MachineConfig::paper_default(); // AssumeMisaligned
        let t = try_transform(&l, &m, &vec![true; l.ops.len()]).unwrap();
        // 2 loads + 1 store, all misaligned ⇒ 3 merges.
        assert_eq!(t.merge_ops, 3);
        assert_eq!(
            t.looop.ops.iter().filter(|o| o.opcode.kind == OpKind::Merge).count(),
            3
        );
    }

    #[test]
    fn static_alignment_distinguishes_offsets() {
        let mut b = LoopBuilder::new("t");
        let x = b.array("x", ScalarType::F64, 64);
        let y = b.array("y", ScalarType::F64, 64);
        let l0 = b.load(x, 1, 0); // aligned (base 16, offset 0)
        let l1 = b.load(y, 1, 1); // misaligned offset
        let s = b.fadd(l0, l1);
        b.store(x, 1, 2, s); // offset 2 is aligned for vl=2
        let l = b.finish();
        let mut m = MachineConfig::paper_default();
        m.alignment = AlignmentPolicy::UseStatic;
        let t = try_transform(&l, &m, &vec![true; l.ops.len()]).unwrap();
        assert_eq!(t.merge_ops, 1);
    }

    #[test]
    fn cross_partition_transfers_are_shared() {
        // One vector producer feeding two scalar consumers: one transfer.
        let mut b = LoopBuilder::new("t");
        let x = b.array("x", ScalarType::F64, 64);
        let y = b.array("y", ScalarType::F64, 64);
        let z = b.array("z", ScalarType::F64, 64);
        let lx = b.load(x, 1, 0);
        let n = b.fneg(lx);
        let a = b.fabs(lx);
        b.store(y, 1, 0, n);
        b.store(z, 1, 0, a);
        let l = b.finish();
        let mut m = MachineConfig::paper_default();
        m.alignment = AlignmentPolicy::AssumeAligned;
        // Load vector; everything else scalar.
        let mut part = vec![false; l.ops.len()];
        part[lx.index()] = true;
        let t = try_transform(&l, &m, &part).unwrap();
        // V→S transfer: 1 vstore + 2 loads = 3 ops, shared by both readers.
        assert_eq!(t.transfer_ops, 3);
        // 1 vload + 3 transfer + (4 scalar ops × 2 lanes) = 12.
        assert_eq!(t.looop.ops.len(), 12);
    }

    #[test]
    fn scalar_to_vector_transfer() {
        let mut b = LoopBuilder::new("t");
        let x = b.array("x", ScalarType::F64, 64);
        let y = b.array("y", ScalarType::F64, 64);
        let lx = b.load(x, 2, 0); // non-unit stride: must stay scalar
        let n = b.fneg(lx);
        b.store(y, 1, 0, n);
        let l = b.finish();
        let mut m = MachineConfig::paper_default();
        m.alignment = AlignmentPolicy::AssumeAligned;
        let mut part = vec![false; l.ops.len()];
        part[n.index()] = true;
        part[2] = true; // the store
        let t = try_transform(&l, &m, &part).unwrap();
        // S→V: 2 stores + 1 vload.
        assert_eq!(t.transfer_ops, 3);
        let comm = t.looop.arrays.iter().find(|a| a.iteration_private).unwrap();
        assert_eq!(comm.len, 2);
    }

    #[test]
    fn scalar_reduction_forms_lane_chain() {
        let mut b = LoopBuilder::new("dot");
        let x = b.array("x", ScalarType::F64, 64);
        let lx = b.load(x, 1, 0);
        let s = b.reduce_add(lx);
        let l = b.finish();
        let mut m = MachineConfig::paper_default();
        m.alignment = AlignmentPolicy::AssumeAligned;
        let t = try_transform(&l, &m, &vec![false; l.ops.len()]).unwrap();
        let lanes = &t.scalar_copies[s.index()];
        assert_eq!(lanes.len(), 2);
        // Lane 1 reads lane 0 intra-iteration; lane 0 reads lane 1 carried.
        let l0 = &t.looop.ops[lanes[0].index()];
        let l1 = &t.looop.ops[lanes[1].index()];
        assert_eq!(l0.operands[0], Operand::carried(*lanes.last().unwrap(), 1));
        assert_eq!(l1.operands[0], Operand::def(lanes[0]));
        // Live-out maps to the last lane.
        assert_eq!(t.looop.live_outs[0].op, lanes[1]);
        assert_eq!(t.looop.live_outs[0].horizontal, None);
    }

    #[test]
    fn vector_reduction_gets_horizontal_liveout() {
        let mut b = LoopBuilder::new("dot");
        b.allow_reassoc(true);
        let x = b.array("x", ScalarType::F64, 64);
        let lx = b.load(x, 1, 0);
        let s = b.reduce_add(lx);
        let l = b.finish();
        let mut m = MachineConfig::paper_default();
        m.alignment = AlignmentPolicy::AssumeAligned;
        let t = try_transform(&l, &m, &vec![true; l.ops.len()]).unwrap();
        let lo = &t.looop.live_outs[0];
        assert_eq!(lo.horizontal, Some(OpKind::Add));
        assert_eq!(lo.op, t.vector_value_of[s.index()].unwrap());
        let red = &t.looop.ops[lo.op.index()];
        assert!(red.is_reduction);
        assert_eq!(red.operands[0], Operand::carried(lo.op, 1));
    }

    #[test]
    fn free_comm_produces_no_transfer_ops() {
        let l = daxpy();
        let m = MachineConfig::figure1();
        let mut part = vec![false; l.ops.len()];
        part[0] = true; // one load vectorized, consumers scalar
        let t = try_transform(&l, &m, &part).unwrap();
        assert_eq!(t.transfer_ops, 0);
    }

    #[test]
    fn iv_operands_rescale_per_lane() {
        let mut b = LoopBuilder::new("iv");
        let x = b.array("x", ScalarType::I64, 64);
        let iv = b.bin(
            OpKind::Add,
            ScalarType::I64,
            Operand::iv(),
            Operand::ConstI(10),
        );
        b.store(x, 1, 0, iv);
        let l = b.finish();
        let mut m = MachineConfig::paper_default();
        m.alignment = AlignmentPolicy::AssumeAligned;
        let t = try_transform(&l, &m, &vec![false; l.ops.len()]).unwrap();
        let lanes = &t.scalar_copies[iv.index()];
        let o0 = &t.looop.ops[lanes[0].index()].operands[0];
        let o1 = &t.looop.ops[lanes[1].index()].operands[0];
        assert_eq!(*o0, Operand::Iv { scale: 2, offset: 0 });
        assert_eq!(*o1, Operand::Iv { scale: 2, offset: 1 });
    }

    #[test]
    fn carried_scalar_use_crosses_lanes() {
        // y[i] = x[i] - x[i-1]-value (register-carried, distance 1), all
        // scalar.
        let mut b = LoopBuilder::new("diff");
        let x = b.array("x", ScalarType::F64, 64);
        let y = b.array("y", ScalarType::F64, 64);
        let lx = b.load(x, 1, 0);
        let d = b.bin(
            OpKind::Sub,
            ScalarType::F64,
            Operand::def(lx),
            Operand::carried(lx, 1),
        );
        b.store(y, 1, 0, d);
        let l = b.finish();
        let mut m = MachineConfig::paper_default();
        m.alignment = AlignmentPolicy::AssumeAligned;
        let t = try_transform(&l, &m, &vec![false; l.ops.len()]).unwrap();
        let load_lanes = &t.scalar_copies[lx.index()];
        let sub_lanes = &t.scalar_copies[d.index()];
        // Lane 0's carried operand: lane k-1 at distance 1.
        let s0 = &t.looop.ops[sub_lanes[0].index()];
        assert_eq!(s0.operands[1], Operand::carried(load_lanes[1], 1));
        // Lane 1's carried operand: lane 0 of the same iteration.
        let s1 = &t.looop.ops[sub_lanes[1].index()];
        assert_eq!(s1.operands[1], Operand::def(load_lanes[0]));
    }
}
