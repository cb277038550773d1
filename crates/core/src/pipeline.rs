//! End-to-end compilation pipeline: partition → transform → modulo
//! schedule, for all four techniques the paper compares.

use crate::driver::{compile_checked, CompileError, DriverConfig};
use crate::partition::{PartitionResult, SelectiveConfig};
use sv_ir::Loop;
use sv_machine::MachineConfig;
use sv_modsched::{RegisterAssignment, Schedule};
use std::fmt;

/// The parallelization technique applied before modulo scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Modulo scheduling of the loop exactly as written (Figure 1(c)).
    ModuloNoUnroll,
    /// The paper's evaluation baseline: unroll by the vector length (to
    /// amortize loop overhead and match vector memory addressing), then
    /// modulo schedule. No vector instructions.
    ModuloOnly,
    /// Traditional Allen–Kennedy vectorization: loop distribution with
    /// fusion and scalar expansion; every distributed loop is modulo
    /// scheduled.
    Traditional,
    /// Full vectorization: vectorize every legal operation, keep the loop
    /// intact, unroll the scalar remainder ops.
    Full,
    /// The paper's contribution: cost-driven selective vectorization.
    Selective,
    /// The paper's §6 future-work extension: a widened scheduling window
    /// of `vector_length + 1` iterations, vectorizing whole iterations
    /// with zero communication. Falls back to the unrolled baseline for
    /// loops the window cannot cover (any loop-carried dependence).
    Widened,
    /// The optimal-II oracle: certified-minimum selective vectorization.
    /// Runs the selective pipeline for an incumbent, then a complete
    /// branch-and-bound over every legal partition with an exact
    /// modulo-schedule probe ([`crate::optimal_search`]); delivers either
    /// the proved-optimal witness schedule or the (proved-optimal)
    /// incumbent. Degrades to [`Strategy::Selective`] when the search
    /// budget is exhausted before the proof closes.
    Optimal,
}

impl Strategy {
    /// All strategies in the paper's comparison order, plus the widened
    /// window extension and the optimal-II oracle.
    pub const ALL: [Strategy; 7] = [
        Strategy::ModuloNoUnroll,
        Strategy::ModuloOnly,
        Strategy::Traditional,
        Strategy::Full,
        Strategy::Selective,
        Strategy::Widened,
        Strategy::Optimal,
    ];

    /// The strategy's canonical machine-readable spelling — stable across
    /// releases, used in wire protocols and cache-key encodings (distinct
    /// from `Display`, which uses presentation forms like
    /// `modulo(no-unroll)`).
    pub fn canonical_name(self) -> &'static str {
        match self {
            Strategy::ModuloNoUnroll => "modulo-no-unroll",
            Strategy::ModuloOnly => "modulo",
            Strategy::Traditional => "traditional",
            Strategy::Full => "full",
            Strategy::Selective => "selective",
            Strategy::Widened => "widened",
            Strategy::Optimal => "optimal",
        }
    }
}

impl std::str::FromStr for Strategy {
    type Err = String;

    /// The strategy whose [`Strategy::canonical_name`] is `name`; the
    /// error lists the accepted names.
    fn from_str(name: &str) -> Result<Strategy, String> {
        Strategy::ALL.into_iter().find(|s| s.canonical_name() == name).ok_or_else(|| {
            format!(
                "unknown strategy `{name}` (want one of: {})",
                Strategy::ALL.map(Strategy::canonical_name).join(", ")
            )
        })
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Strategy::ModuloNoUnroll => "modulo(no-unroll)",
            Strategy::ModuloOnly => "modulo",
            Strategy::Traditional => "traditional",
            Strategy::Full => "full",
            Strategy::Selective => "selective",
            Strategy::Widened => "widened",
            Strategy::Optimal => "optimal",
        };
        write!(f, "{s}")
    }
}

/// One scheduled loop plus its remainder handling.
#[derive(Debug, Clone)]
pub struct Segment {
    /// The loop that executes the bulk iterations.
    pub looop: Loop,
    /// Its modulo schedule.
    pub schedule: Schedule,
    /// Rotating-register assignment for the schedule; `None` when a
    /// register file was too small (which
    /// [`Schedule::register_pressure_ok`] also flags).
    pub registers: Option<RegisterAssignment>,
    /// Scalar remainder loop and schedule, present when the segment covers
    /// more than one original iteration per loop iteration and the trip
    /// count may leave a remainder.
    pub cleanup: Option<(Loop, Schedule)>,
}

impl Segment {
    /// Cycles one invocation of this segment takes, by the standard
    /// software-pipeline timing model `(n + SC − 1) · II` plus the fixed
    /// loop-setup overhead, with the cleanup loop appended when the trip
    /// count leaves remainder iterations.
    pub fn cycles_per_invocation(&self, setup: u64) -> u64 {
        let n = self.looop.executed_iterations();
        let mut total = 0;
        if n > 0 {
            total += (n + u64::from(self.schedule.stage_count) - 1)
                * u64::from(self.schedule.ii)
                + setup;
        }
        let r = self.looop.remainder_iterations();
        if r > 0 {
            let (_, cs) = self
                .cleanup
                .as_ref()
                .expect("remainder iterations without a cleanup loop");
            total += (r + u64::from(cs.stage_count) - 1) * u64::from(cs.ii) + setup;
        }
        total
    }
}

/// A fully compiled loop: the segments executed per invocation, in order.
#[derive(Debug, Clone)]
pub struct CompiledLoop {
    /// The technique that produced this code.
    pub strategy: Strategy,
    /// The source loop.
    pub source: Loop,
    /// Scheduled segments in execution order.
    pub segments: Vec<Segment>,
    /// The partition the selective partitioner chose (selective only).
    pub partition: Option<PartitionResult>,
}

impl CompiledLoop {
    /// Kernel throughput in cycles per *original* iteration:
    /// `Σ II_s / iter_scale_s` over the segments — the number the paper's
    /// II comparisons (Figure 1, Table 3) use.
    pub fn ii_per_original_iteration(&self) -> f64 {
        self.segments
            .iter()
            .map(|s| f64::from(s.schedule.ii) / f64::from(s.looop.iter_scale))
            .sum()
    }

    /// ResMII per original iteration, analogous to
    /// [`CompiledLoop::ii_per_original_iteration`].
    pub fn resmii_per_original_iteration(&self) -> f64 {
        self.segments
            .iter()
            .map(|s| f64::from(s.schedule.resmii) / f64::from(s.looop.iter_scale))
            .sum()
    }

    /// Total cycles for the loop's whole program contribution
    /// (`invocations × per-invocation cycles`), using the machine's
    /// loop-setup overhead.
    pub fn total_cycles(&self, m: &MachineConfig) -> u64 {
        let per_invocation: u64 = self
            .segments
            .iter()
            .map(|s| s.cycles_per_invocation(m.loop_setup_cycles))
            .sum();
        self.source.invocations * per_invocation
    }
}

/// Compile `l` for machine `m` with the given strategy, using default
/// selective-vectorization settings.
///
/// A thin wrapper over [`compile_checked`] with a default
/// [`DriverConfig`]: boundary verification, budgets, graceful strategy
/// degradation and panic containment are all active; only the
/// [`crate::CompilationReport`] is discarded.
///
/// # Errors
///
/// Returns [`CompileError`] when the loop cannot be compiled by the
/// requested strategy or anything on its degradation ladder
/// (pathological inputs only).
pub fn compile(
    l: &Loop,
    m: &MachineConfig,
    strategy: Strategy,
) -> Result<CompiledLoop, CompileError> {
    compile_with(l, m, strategy, &SelectiveConfig::default())
}

/// [`compile`] with explicit selective-vectorization settings (Table 4's
/// communication ablation, the tie-break ablation, iteration caps).
///
/// # Errors
///
/// As [`compile`].
pub fn compile_with(
    l: &Loop,
    m: &MachineConfig,
    strategy: Strategy,
    cfg: &SelectiveConfig,
) -> Result<CompiledLoop, CompileError> {
    let dcfg = DriverConfig {
        strategy,
        selective: cfg.clone(),
        ..DriverConfig::default()
    };
    compile_checked(l, m, &dcfg).map(|(compiled, _report)| compiled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sv_ir::{LoopBuilder, ScalarType};

    #[test]
    fn canonical_names_parse_back() {
        for s in Strategy::ALL {
            assert_eq!(s.canonical_name().parse::<Strategy>(), Ok(s));
        }
        let e = "modulo(no-unroll)".parse::<Strategy>().unwrap_err();
        assert!(e.contains("want one of: modulo-no-unroll, modulo, traditional"), "{e}");
    }

    fn figure1_dot() -> Loop {
        let mut b = LoopBuilder::new("dot");
        b.trip(1000);
        let x = b.array("x", ScalarType::F64, 1024);
        let y = b.array("y", ScalarType::F64, 1024);
        let lx = b.load(x, 1, 0);
        let ly = b.load(y, 1, 0);
        let mu = b.fmul(lx, ly);
        b.reduce_add(mu);
        b.finish()
    }

    #[test]
    fn figure1_all_four_iis() {
        let l = figure1_dot();
        let m = MachineConfig::figure1();
        let base = compile(&l, &m, Strategy::ModuloNoUnroll).unwrap();
        let trad = compile(&l, &m, Strategy::Traditional).unwrap();
        let full = compile(&l, &m, Strategy::Full).unwrap();
        let sel = compile(&l, &m, Strategy::Selective).unwrap();
        assert_eq!(base.ii_per_original_iteration(), 2.0);
        assert_eq!(trad.ii_per_original_iteration(), 3.0);
        assert_eq!(full.ii_per_original_iteration(), 1.5);
        assert_eq!(sel.ii_per_original_iteration(), 1.0);
    }

    #[test]
    fn cleanup_generated_for_unknown_trips() {
        let l = figure1_dot(); // runtime trip 1000
        let m = MachineConfig::figure1();
        let c = compile(&l, &m, Strategy::Selective).unwrap();
        assert!(c.segments[0].cleanup.is_some());
        // Known multiple-of-2 trips skip cleanup.
        let mut l2 = l.clone();
        l2.trip = sv_ir::TripCount::known(1000);
        let c2 = compile(&l2, &m, Strategy::Selective).unwrap();
        assert!(c2.segments[0].cleanup.is_none());
    }

    #[test]
    fn total_cycles_ordering_matches_ii() {
        let l = figure1_dot();
        let m = MachineConfig::figure1();
        let cycles: Vec<u64> = [
            Strategy::ModuloNoUnroll,
            Strategy::Traditional,
            Strategy::Full,
            Strategy::Selective,
        ]
        .iter()
        .map(|&s| compile(&l, &m, s).unwrap().total_cycles(&m))
        .collect();
        // selective < full < baseline < traditional at trip 1000.
        assert!(cycles[3] < cycles[2], "{cycles:?}");
        assert!(cycles[2] < cycles[0], "{cycles:?}");
        assert!(cycles[0] < cycles[1], "{cycles:?}");
    }

    #[test]
    fn selective_records_partition() {
        let l = figure1_dot();
        let m = MachineConfig::figure1();
        let c = compile(&l, &m, Strategy::Selective).unwrap();
        let p = c.partition.expect("partition recorded");
        assert_eq!(p.cost, 2);
    }

    #[test]
    fn low_trip_counts_penalize_deep_pipelines() {
        // The turb3d effect: with tiny trip counts the prologue/epilogue
        // dominates and a deeper pipeline with a smaller II can lose.
        let mut l = figure1_dot();
        l.trip = sv_ir::TripCount::runtime(4);
        let m = MachineConfig::figure1();
        let base = compile(&l, &m, Strategy::ModuloNoUnroll).unwrap();
        let sel = compile(&l, &m, Strategy::Selective).unwrap();
        let ratio = base.total_cycles(&m) as f64 / sel.total_cycles(&m) as f64;
        // Selective's kernel advantage (2×) must shrink below 2 at trip 4.
        assert!(ratio < 2.0, "ratio {ratio}");
    }
}
