//! The hardened compilation driver.
//!
//! [`compile_checked`] runs the partition → transform → modulo-schedule
//! pipeline with every internal failure mode surfaced as a typed
//! [`CompileError`] carrying pass provenance (which pass, which loop, a
//! re-parseable dump of the offending artifact) instead of an unwind.
//! Every strategy is assembled from the same three steps, so each pass is
//! timed, counted and checked in exactly one place:
//!
//! * **partition** — the Kernighan–Lin selective partitioner, under its
//!   deterministic move budget ([`SelectiveConfig::max_moves`]);
//! * **transform** — the vectorizing unroll of a partition, with the
//!   product IR-verified at the pass boundary when
//!   [`DriverConfig::verify_boundaries`] is set;
//! * **segment** — one dependence graph per main loop, on which the loop
//!   is modulo scheduled under [`ScheduleConfig`] (or takes the oracle's
//!   witness schedule), validated (dependences, resource occupancy,
//!   assignment coverage) and given rotating registers; a cleanup loop
//!   covers remainder iterations.
//!
//! On budget exhaustion or pass failure the driver degrades gracefully —
//! Selective → Full → Traditional → ModuloOnly — recording each
//! [`Fallback`] and its reason in the [`CompilationReport`]. A panic in
//! any pass is always contained with `catch_unwind` and reported as
//! [`CompileError::Internal`].
//!
//! The historical [`crate::compile`] / [`crate::compile_with`] entry
//! points are thin wrappers over this driver with default settings.

use crate::optimal::{search, OptimalConfig, OptimalOutcome};
use crate::partition::{kl_partition, PartitionResult, Prices, SelectiveConfig};
use crate::pipeline::{CompiledLoop, Segment, Strategy};
use std::fmt;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use sv_analysis::DepGraph;
use sv_ir::{Loop, VerifyError};
use sv_machine::MachineConfig;
use sv_modsched::{
    allocate_rotating, check_units, modulo_schedule_with, validate_schedule, Schedule,
    ScheduleConfig, ScheduleError, ValidationError,
};
use sv_vectorize::{
    full_vectorization_partition, try_traditional_vectorize, try_transform,
    try_widened_window_transform, TransformError,
};

/// The pipeline pass a [`CompileError`] originated in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// Input verification, before any pass ran.
    Input,
    /// The Kernighan–Lin selective partitioner.
    Partition,
    /// A vectorizing loop transformation.
    Transform,
    /// The iterative modulo scheduler.
    Schedule,
    /// The optimal-II oracle's branch-and-bound search.
    Search,
    /// Pass-boundary verification/validation of a produced artifact.
    Boundary,
    /// Post-compilation executed verification (the cycle-accurate
    /// executor in `sv-sim` running the emitted layout).
    Execute,
}

impl fmt::Display for Pass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Pass::Input => "input",
            Pass::Partition => "partition",
            Pass::Transform => "transform",
            Pass::Schedule => "schedule",
            Pass::Search => "search",
            Pass::Boundary => "boundary",
            Pass::Execute => "execute",
        };
        write!(f, "{s}")
    }
}

/// A typed compilation failure with pass provenance.
#[derive(Debug, Clone)]
pub enum CompileError {
    /// The source loop failed IR verification before compilation started.
    InvalidInput {
        /// Loop name.
        looop: String,
        /// The verifier's complaint.
        error: VerifyError,
        /// `Display` dump of the loop (re-parseable).
        dump: String,
    },
    /// A vectorizing transformation rejected its input or emitted an
    /// invalid loop.
    Transform {
        /// The strategy being attempted.
        strategy: Strategy,
        /// Loop name.
        looop: String,
        /// The transformation's diagnosis (carries its own dump when the
        /// output was invalid).
        error: TransformError,
    },
    /// The modulo scheduler exhausted its II search window.
    Schedule {
        /// The strategy being attempted.
        strategy: Strategy,
        /// The loop (segment) that would not schedule.
        looop: String,
        /// The scheduler's diagnosis.
        error: ScheduleError,
    },
    /// A deterministic step budget ran out before a pass converged.
    BudgetExhausted {
        /// The strategy being attempted.
        strategy: Strategy,
        /// The pass whose budget ran out.
        pass: Pass,
        /// Loop name.
        looop: String,
        /// Human-readable accounting (what budget, how much was spent).
        detail: String,
    },
    /// The caller's deadline passed while a pass ran; no fallback is tried.
    DeadlineExceeded {
        /// The strategy being attempted.
        strategy: Strategy,
        /// The pass that was stopped.
        pass: Pass,
        /// Loop name.
        looop: String,
    },
    /// A pass produced a loop the IR verifier rejects — caught at the
    /// pass boundary.
    BoundaryVerify {
        /// The strategy being attempted.
        strategy: Strategy,
        /// The pass that produced the artifact.
        pass: Pass,
        /// Loop name.
        looop: String,
        /// The verifier's complaint.
        error: VerifyError,
        /// `Display` dump of the rejected loop (re-parseable).
        dump: String,
    },
    /// A schedule failed structural validation (dependence latencies,
    /// resource occupancy, assignment coverage) at the pass boundary.
    BoundaryValidate {
        /// The strategy being attempted.
        strategy: Strategy,
        /// The loop whose schedule is defective.
        looop: String,
        /// The validator's complaint.
        error: ValidationError,
        /// `Display` dump of the scheduled loop (re-parseable).
        dump: String,
    },
    /// A compiled plan failed **executed** verification: the
    /// cycle-accurate executor (in `sv-sim`) found the emitted layout's
    /// final state diverging from the reference engine, or the measured
    /// steady-state cycles/iteration above the scheduled II.
    Execution {
        /// The strategy that produced the failing plan.
        strategy: Strategy,
        /// Loop name.
        looop: String,
        /// What the executor measured or found.
        detail: String,
    },
    /// A pass panicked; the unwind was contained and its payload
    /// preserved.
    Internal {
        /// The strategy being attempted.
        strategy: Strategy,
        /// Loop name.
        looop: String,
        /// The panic payload, if it was a string.
        payload: String,
        /// `Display` dump of the input loop (re-parseable).
        dump: String,
    },
}

impl CompileError {
    /// The pass the error originated in.
    pub fn pass(&self) -> Pass {
        match self {
            CompileError::InvalidInput { .. } => Pass::Input,
            CompileError::Transform { .. } => Pass::Transform,
            CompileError::Schedule { .. } => Pass::Schedule,
            CompileError::BudgetExhausted { pass, .. }
            | CompileError::DeadlineExceeded { pass, .. } => *pass,
            CompileError::BoundaryVerify { .. } | CompileError::BoundaryValidate { .. } => {
                Pass::Boundary
            }
            CompileError::Execution { .. } => Pass::Execute,
            CompileError::Internal { .. } => Pass::Boundary,
        }
    }

    /// The name of the loop the error is about.
    pub fn loop_name(&self) -> &str {
        match self {
            CompileError::InvalidInput { looop, .. }
            | CompileError::Transform { looop, .. }
            | CompileError::Schedule { looop, .. }
            | CompileError::BudgetExhausted { looop, .. }
            | CompileError::DeadlineExceeded { looop, .. }
            | CompileError::BoundaryVerify { looop, .. }
            | CompileError::BoundaryValidate { looop, .. }
            | CompileError::Execution { looop, .. }
            | CompileError::Internal { looop, .. } => looop,
        }
    }
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::InvalidInput { looop, error, dump } => {
                write!(f, "invalid input loop `{looop}`: {error}\n{dump}")
            }
            CompileError::Transform { strategy, looop, error } => {
                write!(f, "[{strategy}/transform] `{looop}`: {error}")
            }
            CompileError::Schedule { strategy, looop, error } => {
                write!(f, "[{strategy}/schedule] failed to compile `{looop}`: {error}")
            }
            CompileError::BudgetExhausted { strategy, pass, looop, detail } => {
                write!(f, "[{strategy}/{pass}] `{looop}`: budget exhausted: {detail}")
            }
            CompileError::DeadlineExceeded { strategy, pass, looop } => {
                write!(f, "[{strategy}/{pass}] `{looop}`: deadline passed")
            }
            CompileError::BoundaryVerify { strategy, pass, looop, error, dump } => write!(
                f,
                "[{strategy}/{pass}] `{looop}` failed boundary verification: {error}\n{dump}"
            ),
            CompileError::BoundaryValidate { strategy, looop, error, dump } => write!(
                f,
                "[{strategy}/schedule] `{looop}` schedule failed validation: {error}\n{dump}"
            ),
            CompileError::Execution { strategy, looop, detail } => {
                write!(f, "[{strategy}/execute] `{looop}` failed executed verification: {detail}")
            }
            CompileError::Internal { strategy, looop, payload, dump } => {
                write!(f, "[{strategy}] internal error compiling `{looop}`: {payload}\n{dump}")
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// Settings for the hardened driver.
#[derive(Debug, Clone)]
pub struct DriverConfig {
    /// The technique to attempt first.
    pub strategy: Strategy,
    /// Selective-partitioner settings, including its move budget.
    pub selective: SelectiveConfig,
    /// Modulo-scheduler budgets (per-II operation budget, II slack).
    pub schedule: ScheduleConfig,
    /// Re-verify every transformed loop and validate every schedule at
    /// the pass boundary that produced it.
    pub verify_boundaries: bool,
    /// Degrade Selective → Full → Traditional → ModuloOnly (and
    /// Widened → ModuloOnly) when an attempt fails, instead of returning
    /// its error.
    pub degrade: bool,
}

impl Default for DriverConfig {
    fn default() -> DriverConfig {
        DriverConfig {
            strategy: Strategy::Selective,
            selective: SelectiveConfig::default(),
            schedule: ScheduleConfig::default(),
            verify_boundaries: true,
            degrade: true,
        }
    }
}

impl DriverConfig {
    /// A config attempting `strategy` first, defaults elsewhere.
    pub fn for_strategy(strategy: Strategy) -> DriverConfig {
        DriverConfig { strategy, ..DriverConfig::default() }
    }

    /// A canonical `key = value` encoding of every knob, in fixed order —
    /// the configuration's contribution to content-addressed cache keys.
    /// Unlike a `Debug` fingerprint, it is stable under derive churn
    /// (reordering, renaming or reformatting a `Debug` impl cannot
    /// silently invalidate every cached result); any *behavioural* knob
    /// added later must be appended here, and the cache schema tag bumped.
    pub fn canonical_encoding(&self) -> String {
        let opt = |v: Option<u64>| match v {
            Some(n) => n.to_string(),
            None => "none".into(),
        };
        // `selective.pressure_aware = false` and `catch_panics = true` are
        // literals: pressure-aware partitioning and panic containment were
        // once knobs (the first never changed a partition and was retired,
        // the second is now unconditional). The lines stay so every
        // request key, and with it every deployed v3 disk tier, stays
        // byte-identical without a `KEY_SCHEMA` bump.
        format!(
            "strategy = {}\n\
             selective.account_communication = {}\n\
             selective.squares_tiebreak = {}\n\
             selective.max_iterations = {}\n\
             selective.max_moves = {}\n\
             selective.pressure_aware = false\n\
             schedule.budget_ratio = {}\n\
             schedule.max_ii_slack = {}\n\
             verify_boundaries = {}\n\
             degrade = {}\n\
             catch_panics = true\n",
            self.strategy.canonical_name(),
            self.selective.account_communication,
            self.selective.squares_tiebreak,
            opt(self.selective.max_iterations.map(u64::from)),
            opt(self.selective.max_moves),
            self.schedule.budget_ratio,
            self.schedule.max_ii_slack,
            self.verify_boundaries,
            self.degrade,
        )
    }
}

/// One graceful degradation step the driver took.
#[derive(Debug, Clone)]
pub struct Fallback {
    /// The strategy abandoned.
    pub from: Strategy,
    /// The strategy tried next.
    pub to: Strategy,
    /// Why `from` was abandoned.
    pub reason: CompileError,
}

impl fmt::Display for Fallback {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -> {}: {}", self.from, self.to, self.reason)
    }
}

/// Pass-level statistics collected while producing the delivered code:
/// wall time per pass, the Kernighan–Lin partitioner's search effort, the
/// modulo scheduler's II search trace, and the register-pressure
/// high-water marks. Carried on every [`CompilationReport`] and dumped as
/// one JSON line per compilation by
/// [`CompilationReport::stats_json_line`] for perf-trajectory tracking.
///
/// Counters are exact and deterministic; the `*_ns` wall times are, of
/// course, whatever the clock said.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PassStats {
    /// Wall time in the Kernighan–Lin partitioner (nanoseconds).
    pub partition_ns: u64,
    /// Wall time in the vectorizing loop transformation (nanoseconds).
    pub transform_ns: u64,
    /// Wall time in modulo scheduling, schedule validation and rotating
    /// register allocation (nanoseconds).
    pub schedule_ns: u64,
    /// Wall time of the whole delivered attempt (nanoseconds).
    pub total_ns: u64,
    /// Kernighan–Lin passes executed.
    pub kl_passes: u32,
    /// Candidate-move probes costed incrementally by the partitioner.
    pub kl_probes: u64,
    /// Moves the partitioner committed (op flipped and locked).
    pub kl_moves: u64,
    /// Complete bin-packings the partitioner performed.
    pub bin_packs: u64,
    /// Modulo schedules produced (main loops + cleanup loops).
    pub schedules: u32,
    /// Every II value the scheduler attempted, across all schedules, in
    /// order — the length is the total II search effort.
    pub iis_tried: Vec<u32>,
    /// Element-wise maximum MaxLive over all produced schedules, per
    /// register class in `RegClass::ALL` order.
    pub max_live: [u32; 4],
    /// Wall time in the optimal-II oracle's branch-and-bound search
    /// (nanoseconds; zero for every strategy but `optimal`).
    pub search_ns: u64,
    /// Branch-and-bound nodes the oracle expanded.
    pub search_nodes: u64,
    /// Exact-scheduler probe budget the oracle spent.
    pub search_probe: u64,
}

impl fmt::Display for PassStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ms = |ns: u64| ns as f64 / 1.0e6;
        writeln!(
            f,
            "partition {:>8.3} ms  (KL passes {}, probes {}, moves {}, bin-packs {})",
            ms(self.partition_ns),
            self.kl_passes,
            self.kl_probes,
            self.kl_moves,
            self.bin_packs
        )?;
        if self.search_ns > 0 || self.search_nodes > 0 {
            writeln!(
                f,
                "search    {:>8.3} ms  ({} nodes, {} probe units)",
                ms(self.search_ns),
                self.search_nodes,
                self.search_probe
            )?;
        }
        writeln!(f, "transform {:>8.3} ms", ms(self.transform_ns))?;
        writeln!(
            f,
            "schedule  {:>8.3} ms  ({} schedules, IIs tried {:?}, max-live {}/{}/{}/{})",
            ms(self.schedule_ns),
            self.schedules,
            self.iis_tried,
            self.max_live[0],
            self.max_live[1],
            self.max_live[2],
            self.max_live[3]
        )?;
        write!(f, "total     {:>8.3} ms", ms(self.total_ns))
    }
}

/// What the driver did to produce a [`CompiledLoop`].
#[derive(Debug, Clone)]
pub struct CompilationReport {
    /// The strategy the caller asked for.
    pub requested: Strategy,
    /// The strategy that produced the delivered code (differs from
    /// `requested` exactly when `fallbacks` is non-empty).
    pub delivered: Strategy,
    /// Every degradation step taken, in order.
    pub fallbacks: Vec<Fallback>,
    /// Pass-boundary checks run (IR verifications + schedule validations)
    /// across all attempts.
    pub boundary_checks: u32,
    /// Pass-level statistics of the delivered attempt.
    pub stats: PassStats,
}

/// Minimal JSON string escape (quotes, backslashes, control characters)
/// — the one the cache's result renderer and the serving layer's writers
/// share.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render a caught panic payload (a `&str` or `String` message) for typed
/// errors and event logs — the one the driver's and the serving layer's
/// panic containment share.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl CompilationReport {
    /// True when the delivered code came from the requested strategy.
    pub fn clean(&self) -> bool {
        self.fallbacks.is_empty()
    }

    /// Render this compilation's statistics as one self-contained JSON
    /// line (the `--stats` dump format): identification, fallback
    /// provenance, and every [`PassStats`] counter.
    pub fn stats_json_line(&self, looop: &str, machine: &str) -> String {
        let s = &self.stats;
        let mut out = format!(
            "{{\"loop\":\"{}\",\"machine\":\"{}\",\"requested\":\"{}\",\"delivered\":\"{}\",\
             \"fallbacks\":",
            json_escape(looop),
            json_escape(machine),
            self.requested,
            self.delivered,
        );
        write_fallbacks(&mut out, &self.fallbacks);
        let iis: Vec<String> = s.iis_tried.iter().map(|ii| ii.to_string()).collect();
        let _ = write!(
            out,
            ",\"boundary_checks\":{},\"partition_ns\":{},\"transform_ns\":{},\
             \"schedule_ns\":{},\"total_ns\":{},\"kl_passes\":{},\"kl_probes\":{},\
             \"kl_moves\":{},\"bin_packs\":{},\"schedules\":{},\"iis_tried\":[{}],\
             \"max_live\":[{},{},{},{}],\"search_ns\":{},\"search_nodes\":{},\
             \"search_probe\":{}}}",
            self.boundary_checks,
            s.partition_ns,
            s.transform_ns,
            s.schedule_ns,
            s.total_ns,
            s.kl_passes,
            s.kl_probes,
            s.kl_moves,
            s.bin_packs,
            s.schedules,
            iis.join(","),
            s.max_live[0],
            s.max_live[1],
            s.max_live[2],
            s.max_live[3],
            s.search_ns,
            s.search_nodes,
            s.search_probe,
        );
        out
    }
}

/// Append `fallbacks` to `out` as a JSON list of `{"from","to","pass"}`
/// objects: the one rendering the cached result and the stats line share.
/// Strategy and pass names are fixed identifiers, so nothing needs escaping.
pub(crate) fn write_fallbacks(out: &mut String, fallbacks: &[Fallback]) {
    out.push('[');
    for (i, fb) in fallbacks.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}{{\"from\":\"{}\",\"to\":\"{}\",\"pass\":\"{}\"}}",
            fb.from,
            fb.to,
            fb.reason.pass()
        );
    }
    out.push(']');
}

/// The degradation ladder: the strategy itself, then everything it may
/// fall back to, in order.
fn fallback_chain(s: Strategy) -> &'static [Strategy] {
    match s {
        Strategy::Optimal => &[
            Strategy::Optimal,
            Strategy::Selective,
            Strategy::Full,
            Strategy::Traditional,
            Strategy::ModuloOnly,
        ],
        Strategy::Selective => &[
            Strategy::Selective,
            Strategy::Full,
            Strategy::Traditional,
            Strategy::ModuloOnly,
        ],
        Strategy::Full => &[Strategy::Full, Strategy::Traditional, Strategy::ModuloOnly],
        Strategy::Traditional => &[Strategy::Traditional, Strategy::ModuloOnly],
        Strategy::Widened => &[Strategy::Widened, Strategy::ModuloOnly],
        Strategy::ModuloOnly => &[Strategy::ModuloOnly],
        Strategy::ModuloNoUnroll => &[Strategy::ModuloNoUnroll],
    }
}

/// One strategy attempt with its boundary-check accounting and pass-level
/// statistics. Every strategy is built from the same three steps —
/// [`Attempt::partition`], [`Attempt::transform`] and [`Attempt::segment`]
/// — so each pass is timed, counted and boundary-checked in one place.
struct Attempt<'a> {
    m: &'a MachineConfig,
    cfg: &'a DriverConfig,
    strategy: Strategy,
    boundary_checks: u32,
    stats: PassStats,
}

impl Attempt<'_> {
    /// Verify a pass-produced loop at the boundary.
    fn verify_boundary(&mut self, looop: &Loop, pass: Pass) -> Result<(), CompileError> {
        if !self.cfg.verify_boundaries {
            return Ok(());
        }
        self.boundary_checks += 1;
        looop.verify().map_err(|error| CompileError::BoundaryVerify {
            strategy: self.strategy,
            pass,
            looop: looop.name.clone(),
            error,
            dump: looop.to_string(),
        })
    }

    fn transform_err(&self, l: &Loop, error: TransformError) -> CompileError {
        CompileError::Transform {
            strategy: self.strategy,
            looop: l.name.clone(),
            error,
        }
    }

    /// The Kernighan–Lin selective partition of `l`, timed, with the
    /// partitioner's search effort recorded and its move budget enforced.
    /// Also returns the dependence graph and price list it was built on,
    /// which the oracle's search reuses. The partitioner prices `l`'s
    /// scalar forms before anything is scheduled, so a machine missing a
    /// class they need is reported here, as the scheduler would.
    fn partition(&mut self, l: &Loop) -> Result<(PartitionResult, DepGraph, Prices), CompileError> {
        check_units(l, self.m).map_err(|error| CompileError::Schedule {
            strategy: self.strategy,
            looop: l.name.clone(),
            error,
        })?;
        let t0 = std::time::Instant::now();
        let g = DepGraph::build(l);
        let prices = Prices::new(l, &g, self.m);
        let r = kl_partition(l, self.m, &prices, &self.cfg.selective);
        self.stats.partition_ns += t0.elapsed().as_nanos() as u64;
        self.stats.kl_passes = r.iterations;
        self.stats.kl_probes = r.moves_evaluated;
        self.stats.kl_moves = r.moves_committed;
        self.stats.bin_packs = r.bin_packs;
        if r.budget_exhausted {
            return Err(CompileError::BudgetExhausted {
                strategy: self.strategy,
                pass: Pass::Partition,
                looop: l.name.clone(),
                detail: format!(
                    "KL move budget {:?} spent after {} probes in {} passes",
                    self.cfg.selective.max_moves, r.moves_evaluated, r.iterations
                ),
            });
        }
        Ok((r, g, prices))
    }

    /// Unroll `l` and vectorize the ops `part` selects, timed, with the
    /// product verified at the boundary.
    fn transform(&mut self, l: &Loop, part: &[bool]) -> Result<Loop, CompileError> {
        let t0 = std::time::Instant::now();
        let tr = try_transform(l, self.m, part);
        self.stats.transform_ns += t0.elapsed().as_nanos() as u64;
        let t = tr.map_err(|e| self.transform_err(l, e))?;
        self.verify_boundary(&t.looop, Pass::Transform)?;
        Ok(t.looop)
    }

    /// Build a segment from a main loop and the scalar form covering its
    /// remainder iterations. The main loop is modulo scheduled — or takes
    /// the oracle's `witness` schedule, which passes the same validation —
    /// and gets rotating registers from the same dependence graph.
    fn segment(
        &mut self,
        main: Loop,
        witness: Option<Schedule>,
        scalar_form: &Loop,
    ) -> Result<Segment, CompileError> {
        let t0 = std::time::Instant::now();
        let g = DepGraph::build(&main);
        let schedule = self.schedule(&main, &g, witness)?;
        let registers = allocate_rotating(&main, &g, self.m, &schedule).ok();
        self.stats.schedule_ns += t0.elapsed().as_nanos() as u64;
        let cleanup = if needs_cleanup(&main) {
            let mut c = scalar_form.clone();
            c.name = format!("{}.cleanup", scalar_form.name);
            let t0 = std::time::Instant::now();
            let cs = self.schedule(&c, &DepGraph::build(&c), None)?;
            self.stats.schedule_ns += t0.elapsed().as_nanos() as u64;
            Some((c, cs))
        } else {
            None
        };
        Ok(Segment { looop: main, schedule, registers, cleanup })
    }

    /// Schedule one loop under the budget (or accept `witness`), validate
    /// the result at the boundary and record the scheduler's search
    /// effort and register pressure.
    fn schedule(
        &mut self,
        looop: &Loop,
        g: &DepGraph,
        witness: Option<Schedule>,
    ) -> Result<Schedule, CompileError> {
        let s = match witness {
            Some(s) => s,
            None => modulo_schedule_with(looop, g, self.m, &self.cfg.schedule).map_err(
                |error| CompileError::Schedule {
                    strategy: self.strategy,
                    looop: looop.name.clone(),
                    error,
                },
            )?,
        };
        if self.cfg.verify_boundaries {
            self.boundary_checks += 1;
            validate_schedule(looop, g, self.m, &s).map_err(|error| {
                CompileError::BoundaryValidate {
                    strategy: self.strategy,
                    looop: looop.name.clone(),
                    error,
                    dump: looop.to_string(),
                }
            })?;
        }
        self.stats.schedules += 1;
        self.stats.iis_tried.extend_from_slice(&s.iis_tried);
        for (slot, &ml) in s.max_live.iter().enumerate() {
            self.stats.max_live[slot] = self.stats.max_live[slot].max(ml);
        }
        Ok(s)
    }

    /// Run the whole attempt for this strategy.
    fn run(&mut self, l: &Loop, deadline: Option<Instant>) -> Result<CompiledLoop, CompileError> {
        let m = self.m;
        let mut partition = None;
        let segments = match self.strategy {
            Strategy::ModuloNoUnroll => vec![self.segment(l.clone(), None, l)?],
            Strategy::ModuloOnly | Strategy::Widened => {
                let widened = if self.strategy == Strategy::Widened {
                    let t0 = std::time::Instant::now();
                    let w = try_widened_window_transform(l, m, m.vector_length + 1);
                    self.stats.transform_ns += t0.elapsed().as_nanos() as u64;
                    w.map_err(|e| self.transform_err(l, e))?
                } else {
                    None
                };
                let main = match widened {
                    Some(w) => {
                        self.verify_boundary(&w, Pass::Transform)?;
                        w
                    }
                    // Modulo-only, and loops the widened window cannot
                    // take: the unrolled all-scalar baseline.
                    None => self.transform(l, &vec![false; l.ops.len()])?,
                };
                vec![self.segment(main, None, l)?]
            }
            Strategy::Full => {
                let t0 = std::time::Instant::now();
                let part = full_vectorization_partition(l, &DepGraph::build(l), m.vector_length);
                self.stats.transform_ns += t0.elapsed().as_nanos() as u64;
                let main = self.transform(l, &part)?;
                vec![self.segment(main, None, l)?]
            }
            Strategy::Selective | Strategy::Optimal => {
                let (r, g, prices) = self.partition(l)?;
                let main = self.transform(l, &r.partition)?;
                let incumbent = self.segment(main, None, l)?;
                if self.strategy == Strategy::Selective {
                    partition = Some(r);
                    vec![incumbent]
                } else {
                    // The selective result seeds the oracle as the
                    // incumbent and remains the delivered code when the
                    // proof closes on the incumbent itself.
                    let (seg, p) = self.search(l, &g, &prices, r, incumbent, deadline)?;
                    partition = Some(p);
                    vec![seg]
                }
            }
            Strategy::Traditional => {
                let t0 = std::time::Instant::now();
                let d = try_traditional_vectorize(l, m);
                self.stats.transform_ns += t0.elapsed().as_nanos() as u64;
                let d = d.map_err(|e| self.transform_err(l, e))?;
                let mut segs = Vec::with_capacity(d.loops.len());
                for dl in d.loops {
                    let scalar_form = dl.scalar_form;
                    let main = dl.vectorized.unwrap_or_else(|| scalar_form.clone());
                    self.verify_boundary(&main, Pass::Transform)?;
                    segs.push(self.segment(main, None, &scalar_form)?);
                }
                segs
            }
        };
        Ok(CompiledLoop { strategy: self.strategy, source: l.clone(), segments, partition })
    }

    /// The complete branch-and-bound, seeded with the selective
    /// incumbent's achieved II as the bound and stopped at `deadline`.
    /// Delivers the oracle's witness partition and schedule when it beats
    /// the incumbent, else the incumbent, which the proof has then
    /// certified optimal.
    fn search(
        &mut self,
        l: &Loop,
        g: &DepGraph,
        prices: &Prices,
        r: PartitionResult,
        incumbent: Segment,
        deadline: Option<Instant>,
    ) -> Result<(Segment, PartitionResult), CompileError> {
        let t0 = std::time::Instant::now();
        let ii = incumbent.schedule.ii;
        let cfg = OptimalConfig::default();
        let report = search(l, self.m, g, prices, (&r.partition, ii), &cfg, deadline);
        self.stats.search_ns += t0.elapsed().as_nanos() as u64;
        let Some(report) = report else {
            return Err(CompileError::DeadlineExceeded {
                strategy: self.strategy,
                pass: Pass::Search,
                looop: l.name.clone(),
            });
        };
        self.stats.search_nodes = report.stats.nodes;
        self.stats.search_probe = report.probe_spent;
        if let OptimalOutcome::BudgetExhausted { best_found } = report.outcome {
            return Err(CompileError::BudgetExhausted {
                strategy: self.strategy,
                pass: Pass::Search,
                looop: l.name.clone(),
                detail: format!(
                    "oracle budget spent ({} nodes, {} probe units) before \
                     the proof closed; best witnessed II {best_found}",
                    report.stats.nodes, report.probe_spent
                ),
            });
        }
        let Some(w) = report.witness else {
            return Ok((incumbent, r));
        };
        self.verify_boundary(&w.looop, Pass::Transform)?;
        let seg = self.segment(w.looop, Some(w.schedule), l)?;
        let p = PartitionResult { partition: w.partition, cost: seg.schedule.resmii, ..r };
        Ok((seg, p))
    }
}

fn needs_cleanup(looop: &Loop) -> bool {
    looop.iter_scale > 1
        && !(looop.trip.compile_time_known
            && looop.trip.count.is_multiple_of(u64::from(looop.iter_scale)))
}

/// Compile `l` for machine `m` under the hardened driver: typed errors,
/// pass-boundary verification, deterministic budgets and graceful strategy
/// degradation per [`DriverConfig`], and unconditional panic containment.
///
/// The returned [`CompilationReport`] carries the [`PassStats`] of the
/// delivered attempt: per-pass wall time, partitioner search effort,
/// scheduler II trace and register-pressure high-water marks.
///
/// # Errors
///
/// Returns the *last* attempt's [`CompileError`] when every strategy on
/// the degradation ladder fails (or the first attempt's, when
/// [`DriverConfig::degrade`] is off). Earlier failures are preserved as
/// [`Fallback`] records — the driver never silently discards a reason.
pub fn compile_checked(
    l: &Loop,
    m: &MachineConfig,
    cfg: &DriverConfig,
) -> Result<(CompiledLoop, CompilationReport), CompileError> {
    compile_until(l, m, cfg, None)
}

/// [`compile_checked`] with a `deadline` that stops the optimal-II
/// search; the error it causes skips the degradation ladder.
pub(crate) fn compile_until(
    l: &Loop,
    m: &MachineConfig,
    cfg: &DriverConfig,
    deadline: Option<Instant>,
) -> Result<(CompiledLoop, CompilationReport), CompileError> {
    if let Err(error) = l.verify() {
        return Err(CompileError::InvalidInput {
            looop: l.name.clone(),
            error,
            dump: l.to_string(),
        });
    }

    let mut report = CompilationReport {
        requested: cfg.strategy,
        delivered: cfg.strategy,
        fallbacks: Vec::new(),
        boundary_checks: 0,
        stats: PassStats::default(),
    };

    let chain = fallback_chain(cfg.strategy);
    let mut last_err: Option<CompileError> = None;
    for (i, &strategy) in chain.iter().enumerate() {
        if i > 0 && !cfg.degrade {
            break;
        }
        let mut attempt =
            Attempt { m, cfg, strategy, boundary_checks: 0, stats: PassStats::default() };
        let attempt_start = std::time::Instant::now();
        let result = match catch_unwind(AssertUnwindSafe(|| attempt.run(l, deadline))) {
            Ok(r) => r,
            Err(payload) => Err(CompileError::Internal {
                strategy,
                looop: l.name.clone(),
                payload: panic_message(payload.as_ref()),
                dump: l.to_string(),
            }),
        };
        report.boundary_checks += attempt.boundary_checks;
        match result {
            Ok(compiled) => {
                report.delivered = strategy;
                attempt.stats.total_ns = attempt_start.elapsed().as_nanos() as u64;
                report.stats = attempt.stats;
                return Ok((compiled, report));
            }
            Err(e @ CompileError::DeadlineExceeded { .. }) => return Err(e),
            Err(e) => {
                if cfg.degrade {
                    if let Some(&next) = chain.get(i + 1) {
                        report.fallbacks.push(Fallback {
                            from: strategy,
                            to: next,
                            reason: e.clone(),
                        });
                    }
                }
                last_err = Some(e);
            }
        }
    }
    Err(last_err.expect("chain is never empty"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sv_ir::{LoopBuilder, ScalarType};

    fn figure1_dot() -> Loop {
        let mut b = LoopBuilder::new("dot");
        b.trip(100);
        let x = b.array("x", ScalarType::F64, 128);
        let y = b.array("y", ScalarType::F64, 128);
        let lx = b.load(x, 1, 0);
        let ly = b.load(y, 1, 0);
        let mu = b.fmul(lx, ly);
        b.reduce_add(mu);
        b.finish()
    }

    #[test]
    fn pass_stats_populated_for_selective() {
        let l = figure1_dot();
        let m = MachineConfig::figure1();
        let (c, report) = compile_checked(&l, &m, &DriverConfig::default()).unwrap();
        let s = &report.stats;
        // Partitioner counters: the KL descent probed and packed.
        assert!(s.kl_passes > 0, "kl_passes = {}", s.kl_passes);
        assert!(s.kl_probes > 0, "kl_probes = {}", s.kl_probes);
        assert!(s.bin_packs > 0, "bin_packs = {}", s.bin_packs);
        // Scheduler counters: every segment (main + cleanup) scheduled,
        // and the achieved II appears in the II search trace.
        let pieces: u32 = c
            .segments
            .iter()
            .map(|seg| 1 + u32::from(seg.cleanup.is_some()))
            .sum();
        assert_eq!(s.schedules, pieces);
        assert!(s.iis_tried.contains(&c.segments[0].schedule.ii));
        assert!(s.max_live.iter().any(|&x| x > 0), "max_live = {:?}", s.max_live);
        // Per-pass wall times were measured.
        assert!(s.total_ns > 0);
        assert!(s.total_ns >= s.partition_ns);
        // The counters mirror the recorded partition exactly.
        let p = c.partition.as_ref().expect("selective records a partition");
        assert_eq!(s.kl_passes, p.iterations);
        assert_eq!(s.kl_probes, p.moves_evaluated);
        assert_eq!(s.kl_moves, p.moves_committed);
        assert_eq!(s.bin_packs, p.bin_packs);
    }

    #[test]
    fn fallbacks_render_as_one_json_list() {
        let fb = |from, to, pass| Fallback {
            from,
            to,
            reason: CompileError::BudgetExhausted {
                strategy: from,
                pass,
                looop: "l".into(),
                detail: String::new(),
            },
        };
        let mut report = CompilationReport {
            requested: Strategy::Selective,
            delivered: Strategy::Traditional,
            fallbacks: vec![
                fb(Strategy::Selective, Strategy::Full, Pass::Partition),
                fb(Strategy::Full, Strategy::Traditional, Pass::Schedule),
            ],
            boundary_checks: 0,
            stats: PassStats::default(),
        };
        let list = "[{\"from\":\"selective\",\"to\":\"full\",\"pass\":\"partition\"},\
                    {\"from\":\"full\",\"to\":\"traditional\",\"pass\":\"schedule\"}]";
        let mut out = String::new();
        write_fallbacks(&mut out, &report.fallbacks);
        assert_eq!(out, list);
        let line = report.stats_json_line("l", "paper");
        assert!(line.contains(&format!("\"fallbacks\":{list},\"boundary_checks\":0,")), "{line}");
        report.fallbacks.clear();
        assert!(report.stats_json_line("l", "paper").contains("\"fallbacks\":[],"));
    }

    #[test]
    fn stats_json_line_is_one_well_formed_line() {
        let l = figure1_dot();
        let m = MachineConfig::figure1();
        let (_, report) = compile_checked(&l, &m, &DriverConfig::default()).unwrap();
        let j = report.stats_json_line("fig1.dot", "figure1");
        assert!(j.starts_with('{') && j.ends_with('}'), "{j}");
        assert!(!j.contains('\n'), "stats line must be a single line: {j}");
        for key in [
            "\"loop\":\"fig1.dot\"",
            "\"machine\":\"figure1\"",
            "\"requested\":\"selective\"",
            "\"delivered\":\"selective\"",
            "\"fallbacks\":[]",
            "\"kl_probes\":",
            "\"bin_packs\":",
            "\"iis_tried\":[",
            "\"max_live\":[",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
        // Balanced braces/brackets (cheap well-formedness check without a
        // JSON parser in the workspace).
        let braces =
            j.chars().filter(|&c| c == '{').count() - j.chars().filter(|&c| c == '}').count();
        assert_eq!(braces, 0);
    }

    #[test]
    fn json_escape_controls_and_quotes() {
        let j = json_escape("a\"b\\c\nd\u{1}");
        assert_eq!(j, "a\\\"b\\\\c\\nd\\u0001");
    }

    #[test]
    fn optimal_strategy_delivers_certified_minimum() {
        let l = figure1_dot();
        let m = MachineConfig::figure1();
        let cfg = DriverConfig::for_strategy(Strategy::Optimal);
        let (c, report) = compile_checked(&l, &m, &cfg).unwrap();
        // The oracle must close the proof on Figure 1's dot product and
        // deliver the paper's II of 2 for 2 original iterations.
        assert!(report.clean(), "fallbacks: {:?}", report.fallbacks);
        assert_eq!(report.delivered, Strategy::Optimal);
        assert_eq!(c.ii_per_original_iteration(), 1.0);
        assert!(c.partition.is_some(), "optimal records its partition");
        // The search pass ran and was accounted.
        assert!(report.stats.search_nodes > 0 || report.stats.search_probe > 0);
        let j = report.stats_json_line("fig1.dot", "figure1");
        assert!(j.contains("\"requested\":\"optimal\""), "{j}");
        assert!(j.contains("\"search_nodes\":"), "{j}");
    }

    #[test]
    fn optimal_matches_selective_or_better_on_figure1_machines() {
        let l = figure1_dot();
        for m in [MachineConfig::figure1(), MachineConfig::paper_default()] {
            let sel = crate::pipeline::compile(&l, &m, Strategy::Selective).unwrap();
            let opt = crate::pipeline::compile(&l, &m, Strategy::Optimal).unwrap();
            assert!(
                opt.ii_per_original_iteration() <= sel.ii_per_original_iteration(),
                "machine {}: optimal {} > selective {}",
                m.name,
                opt.ii_per_original_iteration(),
                sel.ii_per_original_iteration()
            );
        }
    }

    #[test]
    fn modulo_only_has_no_partition_stats() {
        let l = figure1_dot();
        let m = MachineConfig::figure1();
        let cfg = DriverConfig::for_strategy(Strategy::ModuloOnly);
        let (_, report) = compile_checked(&l, &m, &cfg).unwrap();
        assert_eq!(report.stats.kl_probes, 0);
        assert_eq!(report.stats.partition_ns, 0);
        assert!(report.stats.schedules > 0);
    }
}
