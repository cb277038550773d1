//! Suite-wide partition identity golden.
//!
//! Pins the Kernighan–Lin partitioner's complete output for every suite
//! loop on `paper` and `vl4`: the chosen partition, its cost, and the
//! work counters (passes, probes, committed moves, bin-packs). A change
//! to how candidate moves are costed must leave every line unchanged; a
//! change meant to alter the algorithm re-blesses the snapshot with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test partition_identity
//! ```

use selvec::analysis::DepGraph;
use selvec::core::parallel::{default_jobs, run_ordered};
use selvec::core::{partition_ops, SelectiveConfig};
use selvec::machine::MachineConfig;
use selvec::workloads::all_benchmarks;

fn vl4() -> MachineConfig {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/machines/vl4.spec");
    MachineConfig::from_spec(&std::fs::read_to_string(path).expect("vl4 spec"))
        .expect("vl4 parses")
}

/// One line per (machine, loop): name, partition as a `0`/`1` string
/// (`1` = vector), then the cost and the counters.
fn snapshot() -> String {
    let loops: Vec<(String, selvec::ir::Loop)> = all_benchmarks()
        .into_iter()
        .flat_map(|s| s.loops.into_iter().map(move |l| (s.name.to_string(), l)))
        .collect();
    assert_eq!(loops.len(), 377, "the suite's loop count changed");
    let mut out = String::new();
    for (name, m) in [("paper", MachineConfig::paper_default()), ("vl4", vl4())] {
        let lines = run_ordered(&loops, default_jobs(), |_, (suite, l)| {
            let g = DepGraph::build(l);
            let r = partition_ops(l, &g, &m, &SelectiveConfig::default());
            let bits: String = r.partition.iter().map(|&v| if v { '1' } else { '0' }).collect();
            format!(
                "{name} {suite}/{} {bits} cost={} passes={} probes={} moves={} packs={}{}\n",
                l.name,
                r.cost,
                r.iterations,
                r.moves_evaluated,
                r.moves_committed,
                r.bin_packs,
                if r.budget_exhausted { " exhausted" } else { "" },
            )
        });
        out.extend(lines);
    }
    out
}

#[test]
fn suite_partitions_match_golden() {
    let fresh = snapshot();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/partition_identity.txt");
        std::fs::write(path, &fresh).expect("write golden");
        return;
    }
    let committed = include_str!("golden/partition_identity.txt");
    if fresh != committed {
        let first = fresh
            .lines()
            .zip(committed.lines())
            .find(|(a, b)| a != b)
            .map_or_else(|| "line counts differ".to_string(), |(a, b)| format!("{b}\n  now {a}"));
        panic!(
            "partition identity golden drifted at:\n  was {first}\nif intentional, re-bless \
             with UPDATE_GOLDEN=1 cargo test --test partition_identity"
        );
    }
}
