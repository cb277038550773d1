//! `compile_suite`: the compiler in-process, and its traced replica that
//! rebuilds each strategy from the crates' public calls.

use crate::metrics::Report;
use crate::svd::ProcSample;
use crate::trace::{Overhead, Tracer};
use crate::{inputs, set_up_repeatedly, Run};
use std::time::Instant;
use sv_analysis::DepGraph;
use sv_core::{compile_checked, partition_ops, CompiledLoop, DriverConfig, Strategy};
use sv_ir::Loop;
use sv_machine::MachineConfig;
use sv_modsched::{allocate_rotating, modulo_schedule_with, validate_schedule};
use sv_vectorize::{full_vectorization_partition, try_traditional_vectorize, try_transform};
use sv_workloads::SynthProfile;

/// Synthetic loops of each profile added to the suite. Few enough that
/// the seed moves a pass's compile time by a few percent only: 16 broad
/// and 16 predicated loops took 88 to 194 ms per pass depending on the
/// seed, beside 904 ms for the suite.
const SYNTH_PER_PROFILE: usize = 8;

/// One compile: a loop, a machine and the driver settings for a strategy.
struct Case {
    looop: usize,
    machine: usize,
    cfg: DriverConfig,
}

/// What a run compiles, and the modelled cycles of each case's code
/// (`None` where the compile failed) from an untimed warm-up pass.
struct Inputs {
    loops: Vec<Loop>,
    machines: Vec<MachineConfig>,
    cases: Vec<Case>,
    cycles: Vec<Option<u64>>,
}

impl Inputs {
    /// Every suite loop plus seeded broad and predicated synthetic loops,
    /// each for `paper` and `vl4` under the four strategies, compiled once.
    fn set_up(seed: u64) -> Result<Inputs, String> {
        let registry = inputs::registry()?;
        let machines = vec![
            inputs::machine(&registry, "paper")?,
            inputs::machine(&registry, "vl4")?,
        ];
        let mut loops = inputs::suite_loops();
        loops.extend(inputs::synth_loops(
            "broad",
            &SynthProfile::broad(),
            SYNTH_PER_PROFILE,
            seed,
        ));
        let predicated = inputs::predicated_profile();
        loops.extend(inputs::synth_loops(
            "predicated",
            &predicated,
            SYNTH_PER_PROFILE,
            seed ^ 0x9e3,
        ));
        let mut cases = Vec::new();
        for looop in 0..loops.len() {
            for machine in 0..machines.len() {
                for strategy in inputs::STRATEGIES {
                    cases.push(Case {
                        looop,
                        machine,
                        cfg: DriverConfig::for_strategy(strategy),
                    });
                }
            }
        }
        let mut inputs = Inputs {
            loops,
            machines,
            cases,
            cycles: Vec::new(),
        };
        inputs.cycles = (0..inputs.cases.len()).map(|i| inputs.compile(i)).collect();
        Ok(inputs)
    }

    /// Compile case `i`; the modelled cycles of its code.
    fn compile(&self, i: usize) -> Option<u64> {
        let c = &self.cases[i];
        let m = &self.machines[c.machine];
        let (compiled, _) = compile_checked(&self.loops[c.looop], m, &c.cfg).ok()?;
        Some(compiled.total_cycles(m))
    }
}

/// The IIs of a compiled loop: each segment's main and cleanup schedule.
fn segment_iis(c: &CompiledLoop) -> Vec<(u32, Option<u32>)> {
    c.segments
        .iter()
        .map(|s| (s.schedule.ii, s.cleanup.as_ref().map(|(_, cs)| cs.ii)))
        .collect()
}

pub fn compile_suite(run: &Run) -> Result<Report, String> {
    let (inputs, setup_s) = set_up_repeatedly(|_| Inputs::set_up(run.seed))?;
    let n = inputs.cases.len();

    let mut report = Report::default();
    let mut lat = Vec::new();
    let mut passes = 0;
    let start = Instant::now();
    while passes == 0 || start.elapsed().as_secs_f64() < run.seconds {
        let mut cycles = Vec::with_capacity(n);
        for i in 0..n {
            let t0 = Instant::now();
            cycles.push(inputs.compile(i));
            lat.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        passes += 1;
        report.failed += cycles.iter().filter(|c| c.is_none()).count() as u64;
        if cycles != inputs.cycles {
            report.mismatch(format!(
                "code cycles of pass {passes} differ from the warm-up pass"
            ));
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    let me = ProcSample::of("self")?;
    report.attempted = lat.len() as u64;
    report.set_pass_timings(&lat, n, elapsed);
    report.set("setup_s", setup_s);
    report.set("peak_rss_mb", me.peak_mb());
    report.set(
        "code_cycles",
        inputs.cycles.iter().flatten().sum::<u64>() as f64,
    );
    report.diag("compiles_per_pass", n as f64, "count");

    if run.traced {
        let mut t = Tracer::new();
        // Each case compiled untraced and traced (the tracing overhead),
        // then rebuilt by the replica.
        let (mut counts, mut overhead) = (Counts::default(), Overhead::default());
        let mut fallbacks = 0;
        for (i, c) in inputs.cases.iter().enumerate() {
            let (id, cfg) = (i as u64, &c.cfg);
            let (l, m) = (&inputs.loops[c.looop], &inputs.machines[c.machine]);
            let checked = overhead.call(&mut t, i, "core.compile_checked", id, || {
                compile_checked(l, m, cfg)
            });
            let replica = t.span("replica.compile", id, |t| {
                Replica {
                    t,
                    id,
                    m,
                    cfg,
                    counts: &mut counts,
                }
                .run(l)
            });
            if let Ok((compiled, rep)) = &checked {
                fallbacks += rep.fallbacks.len();
                if rep.clean() && replica.as_ref().ok() != Some(&segment_iis(compiled)) {
                    report.mismatch(format!(
                        "replica of {} / {} / {} scheduled {replica:?}, compile_checked {:?}",
                        l.name,
                        m.name,
                        cfg.strategy,
                        segment_iis(compiled)
                    ));
                }
            }
        }
        report.set("bench.trace_overhead", overhead.ratio());
        report.set("core.driver.fallbacks", fallbacks as f64);
        let layers = t.layers();
        let total = |name: &str| layers.get(name).map_or(0, |l| l.total_ns) as f64;
        for (span, metric) in [
            ("analysis.depgraph", "analysis.depgraph_us"),
            ("core.partition", "core.partition_us"),
            ("vectorize.transform", "vectorize.transform_us"),
            ("vectorize.full", "vectorize.full_us"),
            ("vectorize.traditional", "vectorize.traditional_us"),
            ("modsched.schedule", "modsched.schedule_us"),
            ("modsched.validate", "modsched.validate_us"),
            ("modsched.regalloc", "modsched.regalloc_us"),
            ("ir.verify", "ir.verify_us"),
        ] {
            report.set(metric, layers.get(span).map_or(0.0, |l| l.mean_us()));
        }
        let depgraphs = layers.get("analysis.depgraph").map_or(0, |l| l.calls);
        report.set(
            "analysis.depgraph.calls_per_compile",
            depgraphs as f64 / n as f64,
        );
        report.set("core.partition.kl_probes", counts.kl_probes as f64);
        report.set("core.partition.bin_packs", counts.bin_packs as f64);
        report.set("modsched.iis_tried", counts.iis_tried as f64);
        report.set(
            "core.driver.residual_us",
            (total("core.compile_checked") - total("replica.compile")) / n as f64 / 1e3,
        );
        t.write_jsonl(&run.dir.join("trace-compile_suite.jsonl"))
            .map_err(|e| format!("trace file: {e}"))?;
    }
    Ok(report)
}

/// Exact work counts the replica accumulates.
#[derive(Default)]
struct Counts {
    kl_probes: u64,
    bin_packs: u64,
    iis_tried: u64,
}

/// Whether a main loop needs a scalar cleanup loop for its remainder
/// iterations (the driver's rule).
fn needs_cleanup(l: &Loop) -> bool {
    l.iter_scale > 1
        && !(l.trip.compile_time_known && l.trip.count.is_multiple_of(u64::from(l.iter_scale)))
}

/// The driver's attempt at one strategy, rebuilt from the crates' public
/// calls with one span per call.
struct Replica<'a> {
    t: &'a mut Tracer,
    id: u64,
    m: &'a MachineConfig,
    cfg: &'a DriverConfig,
    counts: &'a mut Counts,
}

impl Replica<'_> {
    /// Pass-boundary verification of a produced loop.
    fn verify(&mut self, l: &Loop) -> Result<(), String> {
        if self.cfg.verify_boundaries {
            self.t
                .span("ir.verify", self.id, |_| l.verify())
                .map_err(|e| e.to_string())?;
        }
        Ok(())
    }

    /// Schedule, validate and register-allocate one loop; its II.
    fn schedule(&mut self, l: &Loop) -> Result<u32, String> {
        let (id, m, cfg) = (self.id, self.m, self.cfg);
        let g = self.t.span("analysis.depgraph", id, |_| DepGraph::build(l));
        let s = self
            .t
            .span("modsched.schedule", id, |_| {
                modulo_schedule_with(l, &g, m, &cfg.schedule)
            })
            .map_err(|e| e.to_string())?;
        self.counts.iis_tried += s.iis_tried.len() as u64;
        if cfg.verify_boundaries {
            self.t
                .span("modsched.validate", id, |_| validate_schedule(l, &g, m, &s))
                .map_err(|e| e.to_string())?;
        }
        let g = self.t.span("analysis.depgraph", id, |_| DepGraph::build(l));
        // As in the driver, a register file too small only leaves the
        // segment without an assignment.
        let _ = self
            .t
            .span("modsched.regalloc", id, |_| allocate_rotating(l, &g, m, &s));
        Ok(s.ii)
    }

    /// A segment: the main loop plus, when the trip may leave a
    /// remainder, the scalar cleanup loop.
    fn segment(&mut self, main: &Loop, scalar_form: &Loop) -> Result<(u32, Option<u32>), String> {
        let ii = self.schedule(main)?;
        if !needs_cleanup(main) {
            return Ok((ii, None));
        }
        let mut c = scalar_form.clone();
        c.name = format!("{}.cleanup", scalar_form.name);
        Ok((ii, Some(self.schedule(&c)?)))
    }

    /// Transform by `part`, verify, and schedule the one segment.
    fn transformed(&mut self, l: &Loop, part: &[bool]) -> Result<Vec<(u32, Option<u32>)>, String> {
        let m = self.m;
        let tr = self
            .t
            .span("vectorize.transform", self.id, |_| {
                try_transform(l, m, part)
            })
            .map_err(|e| e.to_string())?;
        self.verify(&tr.looop)?;
        Ok(vec![self.segment(&tr.looop, l)?])
    }

    /// Run the attempt and return its segment IIs. An attempt the driver
    /// would abandon for a fallback returns `Err`.
    fn run(&mut self, l: &Loop) -> Result<Vec<(u32, Option<u32>)>, String> {
        let (id, m) = (self.id, self.m);
        self.t
            .span("ir.verify", id, |_| l.verify())
            .map_err(|e| e.to_string())?;
        match self.cfg.strategy {
            Strategy::ModuloOnly => self.transformed(l, &vec![false; l.ops.len()]),
            Strategy::Full => {
                let g = self.t.span("analysis.depgraph", id, |_| DepGraph::build(l));
                let part = self.t.span("vectorize.full", id, |_| {
                    full_vectorization_partition(l, &g, m.vector_length)
                });
                self.transformed(l, &part)
            }
            Strategy::Selective => {
                let g = self.t.span("analysis.depgraph", id, |_| DepGraph::build(l));
                let selective = &self.cfg.selective;
                let r = self
                    .t
                    .span("core.partition", id, |_| partition_ops(l, &g, m, selective));
                self.counts.kl_probes += r.moves_evaluated;
                self.counts.bin_packs += r.bin_packs;
                if r.budget_exhausted {
                    return Err("KL budget exhausted".into());
                }
                self.transformed(l, &r.partition)
            }
            Strategy::Traditional => {
                let d = self
                    .t
                    .span("vectorize.traditional", id, |_| {
                        try_traditional_vectorize(l, m)
                    })
                    .map_err(|e| e.to_string())?;
                let mut iis = Vec::with_capacity(d.loops.len());
                for dl in &d.loops {
                    self.verify(dl.main_loop())?;
                    iis.push(self.segment(dl.main_loop(), &dl.scalar_form)?);
                }
                Ok(iis)
            }
            other => Err(format!("the replica does not model {other}")),
        }
    }
}
