//! The inputs every workload draws from, all generated from `--seed`.

use std::path::Path;
use sv_core::Strategy;
use sv_ir::Loop;
use sv_machine::{MachineConfig, MachineRegistry};
use sv_serve::CompileRequest;
use sv_workloads::{all_benchmarks, synth_loop, SmallRng, SynthProfile};

/// Machine specs the registry loads next to the builtins (11 machines).
pub const MACHINES_DIR: &str = "examples/machines";

/// The strategies the compile workloads and the TCP misses use.
pub const STRATEGIES: [Strategy; 4] = [
    Strategy::Selective,
    Strategy::Full,
    Strategy::Traditional,
    Strategy::ModuloOnly,
];

/// The builtin machines plus every spec under [`MACHINES_DIR`], exactly
/// the registry `svd --machines examples/machines` serves.
pub fn registry() -> Result<MachineRegistry, String> {
    let mut r = MachineRegistry::builtin();
    r.load_dir(Path::new(MACHINES_DIR))
        .map_err(|e| format!("cannot load {MACHINES_DIR}: {e}"))?;
    Ok(r)
}

/// A registered machine by name.
pub fn machine(registry: &MachineRegistry, name: &str) -> Result<MachineConfig, String> {
    registry
        .get(name)
        .cloned()
        .ok_or_else(|| format!("machine `{name}` is not registered"))
}

/// Every loop of the nine benchmark suites (377 loops), in suite order.
pub fn suite_loops() -> Vec<Loop> {
    all_benchmarks().into_iter().flat_map(|s| s.loops).collect()
}

/// `n` synthetic loops of `profile`, their generator seeds drawn from `seed`.
pub fn synth_loops(tag: &str, profile: &SynthProfile, n: usize, seed: u64) -> Vec<Loop> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|i| synth_loop(&format!("svbench.{tag}.{i}"), profile, rng.next_u64()))
        .collect()
}

/// The fuzzer's if-converted profile: dense cmp/select chains, some with
/// carried else-arms, mixed with reductions.
pub fn predicated_profile() -> SynthProfile {
    SynthProfile {
        cmp_select_prob: 0.4,
        arith: (3, 12),
        carried_prob: 0.15,
        reduction_prob: 0.4,
        ..SynthProfile::broad()
    }
}

/// Fisher–Yates shuffle driven by the seeded generator.
pub fn shuffle<T>(xs: &mut [T], rng: &mut SmallRng) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, rng.index(i + 1));
    }
}

/// The warm request set of the TCP workloads, shaped like loadgen's: every
/// suite loop plus 16 broad synthetic loops, all `paper`/`selective`
/// (393 requests).
pub fn warm_requests(seed: u64) -> Vec<CompileRequest> {
    let synth = synth_loops("warm", &SynthProfile::broad(), 16, seed ^ 0x5741_524d);
    suite_loops()
        .iter()
        .chain(&synth)
        .map(|l| CompileRequest {
            loop_text: l.to_string(),
            ..CompileRequest::default()
        })
        .collect()
}

/// `n` distinct requests the warm set does not contain: a seeded draw
/// without replacement from suite loop × registry machine × strategy.
pub fn miss_requests(
    seed: u64,
    registry: &MachineRegistry,
    n: usize,
) -> Result<Vec<CompileRequest>, String> {
    let loops: Vec<String> = suite_loops().iter().map(Loop::to_string).collect();
    let names = registry.names();
    let mut pool: Vec<(usize, usize, Strategy)> = Vec::new();
    for l in 0..loops.len() {
        for (m, &name) in names.iter().enumerate() {
            for s in STRATEGIES {
                if !(name == "paper" && s == Strategy::Selective) {
                    pool.push((l, m, s));
                }
            }
        }
    }
    if pool.len() < n {
        return Err(format!(
            "only {} distinct misses exist, {n} wanted",
            pool.len()
        ));
    }
    shuffle(&mut pool, &mut SmallRng::seed_from_u64(seed ^ 0x4d49_5353));
    Ok(pool[..n]
        .iter()
        .map(|&(l, m, strategy)| CompileRequest {
            loop_text: loops[l].clone(),
            machine: names[m].to_string(),
            strategy,
            ..CompileRequest::default()
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        assert_eq!(warm_requests(3), warm_requests(3));
        assert_ne!(warm_requests(3), warm_requests(4));
        assert_eq!(warm_requests(1).len(), 393);
        let a = synth_loops("t", &predicated_profile(), 4, 9);
        let b = synth_loops("t", &predicated_profile(), 4, 9);
        assert_eq!(
            a.iter().map(Loop::to_string).collect::<Vec<_>>(),
            b.iter().map(Loop::to_string).collect::<Vec<_>>()
        );
    }

    #[test]
    fn misses_are_distinct_and_never_warm() {
        let mut registry = MachineRegistry::builtin();
        registry
            .load_dir(Path::new(concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/../examples/machines"
            )))
            .unwrap();
        assert_eq!(registry.names().len(), 11);
        let misses = miss_requests(5, &registry, 3000).unwrap();
        let mut keys: Vec<String> = misses
            .iter()
            .map(|r| {
                format!(
                    "{} {} {:?}",
                    r.machine,
                    r.strategy.canonical_name(),
                    r.loop_text
                )
            })
            .collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 3000);
        assert!(misses
            .iter()
            .all(|r| !(r.machine == "paper" && r.strategy == Strategy::Selective)));
        assert_eq!(
            miss_requests(5, &registry, 10).unwrap(),
            misses[..10].to_vec()
        );
    }
}
