//! Whole-plan functional execution and equivalence checking.

use crate::interp::{apply_binary, execute_loop, LiveOutValue};
use crate::memory::{Memory, Scalar};
use crate::sched_exec::{execute_schedule, ExecError, ExecReport};
use std::collections::BTreeMap;
use sv_core::{compile_checked, CompilationReport, CompileError, CompiledLoop, DriverConfig};
use sv_ir::{Loop, OpKind, ScalarType};
use sv_machine::MachineConfig;
use sv_modsched::{emit_flat_for, Schedule};

/// Final state after functionally executing one invocation of a loop (or
/// of a compiled plan).
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Memory restricted to the *shared* arrays (the source loop's array
    /// table), which is what transformed versions must preserve.
    pub memory: Memory,
    /// Combined live-out values by name.
    pub live_outs: BTreeMap<String, Scalar>,
}

fn combine_liveouts(acc: &mut BTreeMap<String, Scalar>, outs: Vec<LiveOutValue>, ran: bool) {
    for o in outs {
        match (acc.get(&o.name).copied(), o.combine) {
            (Some(prev), Some(kind)) => {
                let merged = match kind {
                    OpKind::Add | OpKind::Mul | OpKind::Min | OpKind::Max => {
                        // Merge in the value's own scalar type: an
                        // integer-typed reduction split across segments
                        // and cleanups must not be coerced to float.
                        let ty = match (prev, o.value) {
                            (Scalar::I(_), Scalar::I(_)) => ScalarType::I64,
                            _ => ScalarType::F64,
                        };
                        apply_binary(kind, ty, prev, o.value)
                    }
                    _ => o.value,
                };
                acc.insert(o.name, merged);
            }
            _ => {
                // Non-reductions: only a piece that actually ran may
                // overwrite (a zero-trip cleanup observes nothing).
                if ran || !acc.contains_key(&o.name) {
                    acc.insert(o.name, o.value);
                }
            }
        }
    }
}

/// The signature shared by the fast and reference in-order executors —
/// lets the whole-plan runners below execute on either engine.
pub(crate) type ExecLoopFn =
    fn(&Loop, &mut Memory, std::ops::Range<u64>) -> Vec<LiveOutValue>;

/// [`run_source`] parameterized by the in-order executor.
pub(crate) fn run_source_with(l: &Loop, exec: ExecLoopFn) -> RunResult {
    let mut mem = Memory::for_arrays(&l.arrays);
    let outs = exec(l, &mut mem, 0..l.trip.count);
    let mut live_outs = BTreeMap::new();
    combine_liveouts(&mut live_outs, outs, l.trip.count > 0);
    RunResult { memory: mem, live_outs }
}

/// Execute one invocation of the source loop.
pub fn run_source(l: &Loop) -> RunResult {
    run_source_with(l, execute_loop)
}

/// Execute one invocation of a compiled plan: every segment in order, its
/// main loop for the bulk iterations and its cleanup loop for the
/// remainder, with the source-level arrays threaded through all pieces.
pub fn run_compiled(c: &CompiledLoop) -> RunResult {
    run_compiled_with(c, execute_loop)
}

/// The memory threaded through every piece of a compiled plan: the
/// maximal shared array prefix. Every piece's table extends a common base
/// (source arrays plus any scalar-expansion temporaries); only
/// transform-private communication slots sit past the prefix, and those
/// are dead across pieces. Returns the prefix length and its memory.
fn shared_memory(c: &CompiledLoop) -> (usize, Memory) {
    let pieces_min = c
        .segments
        .iter()
        .flat_map(|s| {
            std::iter::once(s.looop.arrays.len())
                .chain(s.cleanup.iter().map(|(cl, _)| cl.arrays.len()))
        })
        .min()
        .unwrap_or(c.source.arrays.len());
    let base_len = pieces_min.max(c.source.arrays.len());
    let base_decls: Vec<sv_ir::ArrayDecl> = c
        .segments
        .iter()
        .flat_map(|s| std::iter::once(&s.looop).chain(s.cleanup.iter().map(|(cl, _)| cl)))
        .find(|l| l.arrays.len() >= base_len)
        .map(|l| l.arrays[..base_len].to_vec())
        .unwrap_or_else(|| c.source.arrays.clone());
    (base_len, Memory::for_arrays(&base_decls))
}

/// The walk every whole-plan runner shares: each segment's main loop for
/// its bulk iterations, then its cleanup loop for the remainder, each
/// piece run by `run_piece` on a memory seeded from the shared arrays,
/// which are copied back and threaded into the next piece.
fn walk_plan<E>(
    c: &CompiledLoop,
    mut run_piece: impl FnMut(
        &Loop,
        &Schedule,
        &mut Memory,
        std::ops::Range<u64>,
    ) -> Result<Vec<LiveOutValue>, E>,
) -> Result<RunResult, E> {
    let (base_len, mut global) = shared_memory(c);
    let mut live_outs = BTreeMap::new();
    for seg in &c.segments {
        let n = seg.looop.executed_iterations();
        let r = seg.looop.remainder_iterations();
        let cleanup = (r > 0).then(|| {
            let (cl, cs) = seg
                .cleanup
                .as_ref()
                .expect("remainder iterations require a cleanup loop");
            let start = n * u64::from(seg.looop.iter_scale);
            (cl, cs, start..start + r)
        });
        for (l, s, iters) in std::iter::once((&seg.looop, &seg.schedule, 0..n)).chain(cleanup) {
            debug_assert!(l.arrays.len() >= base_len);
            let mut mem = Memory::for_arrays(&l.arrays);
            for i in 0..base_len as u32 {
                mem.copy_array_from(&global, i);
            }
            let ran = iters.end > iters.start;
            let outs = run_piece(l, s, &mut mem, iters)?;
            for i in 0..base_len as u32 {
                global.copy_array_from(&mem, i);
            }
            combine_liveouts(&mut live_outs, outs, ran);
        }
    }
    Ok(RunResult { memory: global, live_outs })
}

/// [`run_compiled`] parameterized by the in-order executor.
pub(crate) fn run_compiled_with(c: &CompiledLoop, exec: ExecLoopFn) -> RunResult {
    walk_plan(c, |l, _, mem, iters| Ok::<_, std::convert::Infallible>(exec(l, mem, iters)))
        .unwrap_or_else(|never| match never {})
}

/// One piece (segment main loop or cleanup) of a compiled plan as run by
/// the cycle-accurate executor, with its measured cycle accounting.
#[derive(Debug, Clone)]
pub struct ExecutedPiece {
    /// The piece's loop name.
    pub piece: String,
    /// The II its modulo schedule claims.
    pub scheduled_ii: u32,
    /// The schedule's stage count.
    pub stage_count: u32,
    /// Iterations the piece ran.
    pub iterations: u64,
    /// The schedule's MaxLive register-pressure estimate, per class in
    /// [`sv_ir::RegClass::ALL`] order.
    pub max_live: [u32; 4],
    /// The executor's cycle accounting.
    pub report: ExecReport,
}

/// Execute one invocation of a compiled plan through the cycle-accurate
/// VLIW executor ([`crate::execute_schedule`]): every piece runs its
/// emitted flat layout on machine `m` — truncated layouts for pieces
/// whose trip never fills the pipeline — with the source-level arrays
/// threaded through exactly as [`run_compiled`] threads them. Returns
/// the functional result plus per-piece cycle accounting.
///
/// # Errors
///
/// Returns the first [`ExecError`] (dependence-order or latency
/// violation in a layout) encountered.
pub fn run_compiled_executed(
    c: &CompiledLoop,
    m: &MachineConfig,
) -> Result<(RunResult, Vec<ExecutedPiece>), ExecError> {
    let mut pieces: Vec<ExecutedPiece> = Vec::new();
    let run = walk_plan(c, |l, s, mem, iters| {
        let n = iters.end - iters.start;
        let flat = emit_flat_for(l, s, n);
        let (outs, report) = execute_schedule(l, m, &flat, mem, iters)?;
        pieces.push(ExecutedPiece {
            piece: l.name.clone(),
            scheduled_ii: s.ii,
            stage_count: s.stage_count,
            iterations: n,
            max_live: s.max_live,
            report,
        });
        Ok(outs)
    })?;
    Ok((run, pieces))
}

/// Run a compiled plan through the cycle-accurate executor and hold it to
/// both gates at once:
///
/// 1. **state** — executed memory and live-outs bit-identical
///    ([`Scalar::identical`]) to the reference engine's
///    [`crate::reference::run_compiled`];
/// 2. **timing** — zero interlock stalls and measured steady-state
///    cycles/iteration exactly the scheduled II, for every piece whose
///    kernel runs ([`ExecReport::steady_state_ok`]);
/// 3. **register pressure** — the executor's observed per-class live
///    maximum ([`ExecReport::observed_max_live`]) never exceeds the
///    scheduler's `MaxLive` estimate: an excess means the scheduler
///    would under-allocate registers for this pipeline.
///
/// Returns the per-piece accounting on success.
///
/// # Errors
///
/// Returns a description of the first violated gate.
pub fn executed_selfcheck(
    c: &CompiledLoop,
    m: &MachineConfig,
) -> Result<Vec<ExecutedPiece>, String> {
    let (executed, pieces) =
        run_compiled_executed(c, m).map_err(|e| format!("executed: {e}"))?;
    check_identical_runs("executed", &executed, &crate::reference::run_compiled(c))?;
    for p in &pieces {
        if !p.report.steady_state_ok(p.scheduled_ii) {
            return Err(format!(
                "{}: measured steady state {} != scheduled II {} \
                 (kernel {} cycles / {} executions, {} stall cycles over {} total)",
                p.piece,
                p.report
                    .measured_ii()
                    .map_or_else(|| "-".into(), |ii| format!("{ii:.2}")),
                p.scheduled_ii,
                p.report.kernel_cycles,
                p.report.kernel_executions,
                p.report.stall_cycles,
                p.report.total_cycles,
            ));
        }
        for (ci, &cls) in sv_ir::RegClass::ALL.iter().enumerate() {
            if p.report.observed_max_live[ci] > p.max_live[ci] {
                return Err(format!(
                    "{}: observed {cls:?} register pressure {} exceeds the \
                     scheduler's MaxLive estimate {} (II {}, {} iterations)",
                    p.piece,
                    p.report.observed_max_live[ci],
                    p.max_live[ci],
                    p.scheduled_ii,
                    p.iterations,
                ));
            }
        }
    }
    Ok(pieces)
}

/// [`sv_core::compile_checked`] with executed verification: after the
/// driver compiles (and possibly degrades), the plan is run through the
/// cycle-accurate executor and held to the [`executed_selfcheck`] gates.
/// A violation surfaces as [`CompileError::Execution`] with full detail —
/// the `--executed` mode of the `svc` driver and the fuzzer's
/// `--executed-selfcheck` both route through here.
///
/// # Errors
///
/// Returns the driver's own [`CompileError`] when compilation fails, or
/// [`CompileError::Execution`] when the compiled plan fails an executed
/// gate.
pub fn compile_executed(
    l: &Loop,
    m: &MachineConfig,
    cfg: &DriverConfig,
) -> Result<(CompiledLoop, CompilationReport, Vec<ExecutedPiece>), CompileError> {
    let (c, rep) = compile_checked(l, m, cfg)?;
    match executed_selfcheck(&c, m) {
        Ok(pieces) => Ok((c, rep, pieces)),
        Err(detail) => Err(CompileError::Execution {
            strategy: c.strategy,
            looop: l.name.clone(),
            detail,
        }),
    }
}

/// True when carried *register* state would have to flow from a pipelined
/// loop into its cleanup loop: a carried register use that is not a
/// reduction accumulation. Reductions transfer through the live-out
/// combine; other carried register values are not threaded across the
/// main→cleanup boundary by this simulator (real code generation wires
/// them through pipeline live-outs), so equivalence checks should use
/// remainder-free trip counts for such loops.
pub fn has_register_state_across_cleanup(l: &Loop) -> bool {
    l.ops.iter().any(|op| {
        op.def_uses()
            .any(|(p, d)| d >= 1 && !(op.is_reduction && p == op.id))
    })
}

/// A semantic divergence between a source loop and its compiled plan,
/// found by [`check_equivalent`].
#[derive(Debug, Clone, PartialEq)]
pub enum EquivalenceError {
    /// A shared array differs elementwise (or in length).
    ArrayMismatch {
        /// Array name.
        array: String,
        /// First differing element (`usize::MAX` for a length mismatch).
        element: usize,
        /// The source loop's value, `Debug`-rendered.
        source: String,
        /// The compiled plan's value, `Debug`-rendered.
        compiled: String,
    },
    /// The two executions produced different live-out name sets.
    LiveOutSetMismatch {
        /// The source's live-out names.
        source: Vec<String>,
        /// The compiled plan's live-out names.
        compiled: Vec<String>,
    },
    /// A live-out value differs.
    LiveOutMismatch {
        /// Live-out name.
        name: String,
        /// The source loop's value, `Debug`-rendered.
        source: String,
        /// The compiled plan's value, `Debug`-rendered.
        compiled: String,
    },
}

impl std::fmt::Display for EquivalenceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EquivalenceError::ArrayMismatch { array, element, source, compiled } => {
                if *element == usize::MAX {
                    write!(f, "array {array} length mismatch: {source} vs {compiled}")
                } else {
                    write!(
                        f,
                        "array {array}[{element}] mismatch: source {source} vs compiled {compiled}"
                    )
                }
            }
            EquivalenceError::LiveOutSetMismatch { source, compiled } => {
                write!(f, "live-out sets differ: source {source:?} vs compiled {compiled:?}")
            }
            EquivalenceError::LiveOutMismatch { name, source, compiled } => {
                write!(f, "live-out {name} mismatch: source {source} vs compiled {compiled}")
            }
        }
    }
}

impl std::error::Error for EquivalenceError {}

/// Functionally execute `src` and `compiled` and check they agree on
/// every shared array (elementwise, with reassociation-tolerant float
/// comparison) and on every live-out value.
///
/// # Errors
///
/// Returns the first divergence found.
pub fn check_equivalent(src: &Loop, compiled: &CompiledLoop) -> Result<(), EquivalenceError> {
    let a = run_source(src);
    let b = run_compiled(compiled);
    for (idx, decl) in src.arrays.iter().enumerate() {
        let (xa, xb) = (a.memory.array(idx as u32), b.memory.array(idx as u32));
        if xa.len() != xb.len() {
            return Err(EquivalenceError::ArrayMismatch {
                array: decl.name.clone(),
                element: usize::MAX,
                source: xa.len().to_string(),
                compiled: xb.len().to_string(),
            });
        }
        for (e, (va, vb)) in xa.iter().zip(xb).enumerate() {
            if !va.approx_eq(*vb) {
                return Err(EquivalenceError::ArrayMismatch {
                    array: decl.name.clone(),
                    element: e,
                    source: format!("{va:?}"),
                    compiled: format!("{vb:?}"),
                });
            }
        }
    }
    if a.live_outs.keys().ne(b.live_outs.keys()) {
        return Err(EquivalenceError::LiveOutSetMismatch {
            source: a.live_outs.keys().cloned().collect(),
            compiled: b.live_outs.keys().cloned().collect(),
        });
    }
    for (name, va) in &a.live_outs {
        let vb = b.live_outs[name];
        if !va.approx_eq(vb) {
            return Err(EquivalenceError::LiveOutMismatch {
                name: name.clone(),
                source: format!("{va:?}"),
                compiled: format!("{vb:?}"),
            });
        }
    }
    Ok(())
}

/// [`check_equivalent`], panicking on the first mismatch — the historical
/// test-harness entry point.
///
/// # Panics
///
/// Panics with a descriptive message on the first divergence.
pub fn assert_equivalent(src: &Loop, compiled: &CompiledLoop) {
    if let Err(e) = check_equivalent(src, compiled) {
        std::panic::panic_any(format!("{e} under {}", compiled.strategy));
    }
}

/// Compare two executions that claim identical semantics: every array
/// element and every live-out must be [`Scalar::identical`] (bit-exact,
/// NaN-aware) — no reassociation tolerance between two implementations of
/// the same engine contract. `label` names the side checked against the
/// reference in every message.
fn check_identical_runs(label: &str, got: &RunResult, reference: &RunResult) -> Result<(), String> {
    if got.memory.array_count() != reference.memory.array_count() {
        return Err(format!(
            "{label}: array count {} vs reference {}",
            got.memory.array_count(),
            reference.memory.array_count()
        ));
    }
    for i in 0..got.memory.array_count() as u32 {
        let (xa, xb) = (got.memory.array(i), reference.memory.array(i));
        if xa.len() != xb.len() {
            return Err(format!(
                "{label}: array {i} length {} vs reference {}",
                xa.len(),
                xb.len()
            ));
        }
        for (e, (va, vb)) in xa.iter().zip(xb).enumerate() {
            if !va.identical(*vb) {
                return Err(format!("{label}: array {i}[{e}] {va:?} vs reference {vb:?}"));
            }
        }
    }
    if got.live_outs.keys().ne(reference.live_outs.keys()) {
        return Err(format!(
            "{label}: live-out sets {:?} vs reference {:?}",
            got.live_outs.keys().collect::<Vec<_>>(),
            reference.live_outs.keys().collect::<Vec<_>>()
        ));
    }
    for (name, va) in &got.live_outs {
        let vb = reference.live_outs[name];
        if !va.identical(vb) {
            return Err(format!("{label}: live-out {name} {va:?} vs reference {vb:?}"));
        }
    }
    Ok(())
}

/// Differential self-check of the pre-decoded fast engine against the
/// retained [`crate::reference`] interpreter, over both in-order
/// execution modes a compiled plan exercises:
///
/// 1. whole-run source execution ([`run_source`] both engines),
/// 2. whole-plan compiled execution ([`run_compiled`] both engines).
///
/// Comparison is bit-exact ([`Scalar::identical`]) — the two engines
/// implement the same semantics, so even last-bit float drift is a bug.
/// The schedules themselves are checked against the same reference by
/// [`executed_selfcheck`]; the fuzzer's `--executed-selfcheck` mode runs
/// both.
///
/// # Errors
///
/// Returns a description of the first divergence found.
pub fn oracle_selfcheck(src: &Loop, compiled: &CompiledLoop) -> Result<(), String> {
    check_identical_runs(
        "fast run_source",
        &run_source(src),
        &crate::reference::run_source(src),
    )?;
    check_identical_runs(
        "fast run_compiled",
        &run_compiled(compiled),
        &crate::reference::run_compiled(compiled),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sv_core::{compile, Strategy};
    use sv_ir::LoopBuilder;
    use sv_machine::MachineConfig;

    fn daxpy(trip: u64) -> Loop {
        let mut b = LoopBuilder::new("daxpy");
        b.trip(trip);
        let x = b.array("x", ScalarType::F64, trip + 8);
        let y = b.array("y", ScalarType::F64, trip + 8);
        let a = b.live_in("a", ScalarType::F64);
        let lx = b.load(x, 1, 0);
        let ly = b.load(y, 1, 0);
        let ax = b.fmul_li(a, lx);
        let s = b.fadd(ax, ly);
        b.store(y, 1, 0, s);
        b.finish()
    }

    #[test]
    fn daxpy_equivalent_under_all_strategies() {
        let l = daxpy(101); // odd trip exercises the cleanup loop
        for machine in [MachineConfig::paper_default(), MachineConfig::figure1()] {
            for s in Strategy::ALL {
                let c = compile(&l, &machine, s).unwrap();
                assert_equivalent(&l, &c);
            }
        }
    }

    #[test]
    fn dot_product_equivalent_under_all_strategies() {
        let mut b = LoopBuilder::new("dot");
        b.trip(97);
        let x = b.array("x", ScalarType::F64, 128);
        let y = b.array("y", ScalarType::F64, 128);
        let lx = b.load(x, 1, 0);
        let ly = b.load(y, 1, 0);
        let m = b.fmul(lx, ly);
        b.reduce_add(m);
        let l = b.finish();
        for machine in [MachineConfig::paper_default(), MachineConfig::figure1()] {
            for s in Strategy::ALL {
                let c = compile(&l, &machine, s).unwrap();
                assert_equivalent(&l, &c);
            }
        }
    }

    #[test]
    fn reassociated_reduction_equivalent() {
        let mut b = LoopBuilder::new("dotr");
        b.trip(64).allow_reassoc(true);
        let x = b.array("x", ScalarType::F64, 80);
        let lx = b.load(x, 1, 0);
        b.reduce_add(lx);
        let l = b.finish();
        let m = MachineConfig::paper_default();
        for s in Strategy::ALL {
            let c = compile(&l, &m, s).unwrap();
            assert_equivalent(&l, &c);
        }
    }

    #[test]
    fn recurrence_loop_equivalent() {
        // Sequential part + parallel part: exercises distribution and
        // selective partitioning with a non-vectorizable component.
        let mut b = LoopBuilder::new("mixed");
        b.trip(60);
        let x = b.array("x", ScalarType::F64, 80);
        let y = b.array("y", ScalarType::F64, 80);
        let z = b.array("z", ScalarType::F64, 80);
        let lx = b.load(x, 1, 0);
        let n = b.fneg(lx);
        b.store(y, 1, 0, n);
        let la = b.load(z, 1, 0);
        let r = b.recurrence(OpKind::Mul, ScalarType::F64, la);
        b.store(z, 1, 1, r);
        let l = b.finish();
        // Carried register state crosses the cleanup boundary only through
        // memory here (z), which is safe; trip 60 is even anyway.
        let m = MachineConfig::paper_default();
        for s in Strategy::ALL {
            let c = compile(&l, &m, s).unwrap();
            assert_equivalent(&l, &c);
        }
    }

    #[test]
    fn integer_reduction_keeps_integer_type_across_segments() {
        // Regression: combine_liveouts used to rebuild every merged
        // reduction as Scalar::F, silently coercing integer-typed
        // reductions to float whenever a plan had several pieces (main
        // segment + cleanup). The odd trip forces exactly that split.
        let mut b = LoopBuilder::new("isum");
        b.trip(101);
        let x = b.array("x", ScalarType::I64, 128);
        let lx = b.load(x, 1, 0);
        b.reduce(OpKind::Add, ScalarType::I64, lx);
        let l = b.finish();
        let src = run_source(&l);
        let (name, v) = src.live_outs.iter().next().expect("one live-out");
        assert!(matches!(v, Scalar::I(_)), "source live-out {v:?}");
        let m = MachineConfig::paper_default();
        for s in Strategy::ALL {
            let c = compile(&l, &m, s).unwrap();
            let r = run_compiled(&c);
            let rv = r.live_outs[name];
            assert!(
                matches!(rv, Scalar::I(_)),
                "{s}: integer reduction coerced to {rv:?}"
            );
            assert_eq!(rv.as_i64(), v.as_i64(), "{s}: wrong sum");
            assert_equivalent(&l, &c);
        }
    }

    #[test]
    fn integer_min_max_mul_reductions_keep_type() {
        for kind in [OpKind::Min, OpKind::Max, OpKind::Mul] {
            let mut b = LoopBuilder::new("ired");
            b.trip(33); // odd: main + cleanup pieces must merge
            let x = b.array("x", ScalarType::I64, 64);
            let lx = b.load(x, 1, 0);
            b.reduce(kind, ScalarType::I64, lx);
            let l = b.finish();
            let src = run_source(&l);
            let (name, v) = src.live_outs.iter().next().expect("one live-out");
            let m = MachineConfig::paper_default();
            let c = compile(&l, &m, Strategy::Selective).unwrap();
            let r = run_compiled(&c);
            let rv = r.live_outs[name];
            assert!(matches!(rv, Scalar::I(_)), "{kind:?}: got {rv:?}");
            assert_eq!(rv.as_i64(), v.as_i64(), "{kind:?}");
        }
    }

    #[test]
    fn register_state_predicate() {
        let l = daxpy(10);
        assert!(!has_register_state_across_cleanup(&l));
        let mut b = LoopBuilder::new("c");
        let x = b.array("x", ScalarType::F64, 16);
        let lx = b.load(x, 1, 0);
        let s = b.bin(
            OpKind::Add,
            ScalarType::F64,
            sv_ir::Operand::def(lx),
            sv_ir::Operand::carried(lx, 1),
        );
        b.store(x, 1, 8, s);
        let l2 = b.finish();
        assert!(has_register_state_across_cleanup(&l2));
        // Reductions alone do not count.
        let mut b = LoopBuilder::new("r");
        let x = b.array("x", ScalarType::F64, 16);
        let lx = b.load(x, 1, 0);
        b.reduce_add(lx);
        assert!(!has_register_state_across_cleanup(&b.finish()));
    }
}
