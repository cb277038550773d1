//! Optimality properties of the branch-and-bound oracle, exercised over
//! the whole workload suite, plus the committed strict-gap regressions.
//!
//! The oracle ([`sv_core::optimal_search`]) claims two things for every
//! loop it proves: no legal partition schedules below the delivered II,
//! and the delivered II never exceeds the Kernighan–Lin heuristic's. This
//! suite checks both claims across every suite loop on the two CI-gate
//! machines, and pins the known strict improvements — the loops where the
//! exact search beats the paper's heuristic — as named regressions so a
//! search change that loses one fails by name.

use sv_core::parallel::{default_jobs, run_ordered};
use sv_core::{
    compile_checked, optimal_search, DriverConfig, OptimalConfig, Strategy,
};
use sv_machine::{MachineConfig, MachineRegistry};
use sv_workloads::all_benchmarks;

/// The committed `examples/machines/` registry (builtins + specs).
fn registry() -> MachineRegistry {
    let mut r = MachineRegistry::builtin();
    let dir = format!("{}/../../examples/machines", env!("CARGO_MANIFEST_DIR"));
    r.load_dir(std::path::Path::new(&dir)).expect("sweep specs load");
    r
}

fn suite_loop(name: &str) -> sv_ir::Loop {
    all_benchmarks()
        .iter()
        .flat_map(|s| s.loops.clone())
        .find(|l| l.name == name)
        .unwrap_or_else(|| panic!("no suite loop named `{name}`"))
}

/// Run the full pipeline both ways and return
/// `(heuristic_ii, optimal_ii, resmii, recmii)` for one case, asserting
/// the oracle closed its proof (no degradation in the driver report).
fn both_iis(l: &sv_ir::Loop, m: &MachineConfig) -> (u32, u32, u32, u32) {
    let (heur, _) = compile_checked(l, m, &DriverConfig::for_strategy(Strategy::Selective))
        .unwrap_or_else(|e| panic!("{}: selective: {e}", l.name));
    let (opt, report) = compile_checked(l, m, &DriverConfig::for_strategy(Strategy::Optimal))
        .unwrap_or_else(|e| panic!("{}: optimal: {e}", l.name));
    assert!(
        report.clean(),
        "{} on {}: oracle degraded: {:?}",
        l.name,
        m.name,
        report.fallbacks
    );
    let s = &opt.segments[0].schedule;
    (heur.segments[0].schedule.ii, s.ii, s.resmii, s.recmii)
}

/// Debug builds stride the sweep and skip the heaviest regressions so
/// `cargo test` stays quick; ci.sh runs this suite with `--release`,
/// where the full 754-case sweep closes in well under a minute.
fn debug_stride() -> usize {
    if cfg!(debug_assertions) {
        7
    } else {
        1
    }
}

/// Every suite loop on both CI-gate machines: the oracle proves within
/// the default budget, never above the heuristic, never below the
/// delivered schedule's own lower bounds.
#[test]
fn oracle_bounds_hold_on_every_suite_loop() {
    let registry = registry();
    let machines: Vec<(String, MachineConfig)> = ["paper", "vl4"]
        .iter()
        .map(|n| ((*n).to_string(), registry.get(n).unwrap().clone()))
        .collect();
    let loops: Vec<sv_ir::Loop> =
        all_benchmarks().iter().flat_map(|s| s.loops.clone()).collect();
    let cases: Vec<(usize, usize)> = (0..machines.len())
        .flat_map(|mi| (0..loops.len()).map(move |li| (mi, li)))
        .step_by(debug_stride())
        .collect();
    let checked = run_ordered(&cases, default_jobs(), |_, &(mi, li)| {
        let (mname, m) = &machines[mi];
        let l = &loops[li];
        let (heur_ii, opt_ii, resmii, recmii) = both_iis(l, m);
        assert!(
            opt_ii <= heur_ii,
            "{} on {mname}: proved optimal II {opt_ii} above heuristic II {heur_ii}",
            l.name
        );
        assert!(
            opt_ii >= resmii.max(recmii),
            "{} on {mname}: proved II {opt_ii} below its own MII {}",
            l.name,
            resmii.max(recmii)
        );
        1u32
    });
    assert_eq!(checked.iter().sum::<u32>() as usize, cases.len());
}

/// One strict-gap case, driven through the oracle directly so the proof
/// artifacts (outcome, witness, root bound) are themselves checked.
fn assert_gap(machine: &str, looop: &str, heur_ii: u32, opt_ii: u32) {
    use sv_core::OptimalOutcome;
    let registry = registry();
    let m = registry.get(machine).unwrap().clone();
    let l = suite_loop(looop);
    let (heur, _) = compile_checked(&l, &m, &DriverConfig::for_strategy(Strategy::Selective))
        .unwrap();
    let seed = heur.partition.as_ref().expect("selective records a partition");
    let seed_ii = heur.segments[0].schedule.ii;
    assert_eq!(seed_ii, heur_ii, "{looop} on {machine}: heuristic II moved");
    let report =
        optimal_search(&l, &m, &seed.partition, seed_ii, &OptimalConfig::default());
    assert_eq!(
        report.outcome,
        OptimalOutcome::Proved(opt_ii),
        "{looop} on {machine}: proof lost (stats {:?})",
        report.stats
    );
    let w = report.witness.as_ref().expect("a strict improvement carries a witness");
    assert_eq!(w.schedule.ii, opt_ii);
    assert!(
        report.root_lower_bound <= opt_ii,
        "root bound {} above the proved minimum {opt_ii}",
        report.root_lower_bound
    );
}

// The committed strict-gap regressions: loops where the exact search
// beats the Kernighan–Lin heuristic. The full gap table lives in the
// `table_optimality.txt` golden snapshot; these name the structurally
// distinct cases (tracked divides, exact vector packing, deep
// recurrences, long-II vl4 loops) so a pruning or ordering change that
// loses one fails with a readable name.

#[test]
fn gap_paper_nasa7_synth5() {
    assert_gap("paper", "093.nasa7.synth5", 8, 7);
}

#[test]
fn gap_paper_tomcatv_residual() {
    if cfg!(debug_assertions) {
        return; // deepest search tree (418k nodes); release-only, see ci.sh
    }
    assert_gap("paper", "tomcatv.residual", 19, 17);
}

#[test]
fn gap_paper_su2cor_synth9() {
    assert_gap("paper", "103.su2cor.synth9", 10, 9);
}

#[test]
fn gap_vl4_nasa7_gmtry() {
    if cfg!(debug_assertions) {
        return; // tracked-divide packing at II 66; release-only, see ci.sh
    }
    assert_gap("vl4", "nasa7.gmtry", 70, 66);
}

#[test]
fn gap_vl4_su2cor_synth0() {
    if cfg!(debug_assertions) {
        return; // largest gap (77 -> 66), heaviest probes; release-only, see ci.sh
    }
    assert_gap("vl4", "103.su2cor.synth0", 77, 66);
}

#[test]
fn gap_vl4_swim_synth2() {
    assert_gap("vl4", "171.swim.synth2", 11, 9);
}

#[test]
fn gap_vl4_apsi_synth23() {
    if cfg!(debug_assertions) {
        return; // long-II exact probes; release-only, see ci.sh
    }
    assert_gap("vl4", "301.apsi.synth23", 69, 66);
}
