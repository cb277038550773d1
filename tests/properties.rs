//! Property-based tests: random loops through the whole pipeline.
//!
//! Implemented over the workspace's own seeded generator
//! ([`selvec::workloads::synth_loop`] + [`selvec::workloads::SmallRng`])
//! rather than `proptest`, so the suite builds and runs in offline /
//! vendored environments with no registry access. Every case is fully
//! deterministic; a failing seed is printed in the assertion message and
//! reproduces directly.

use selvec::analysis::{brute_force_mem_deps, mem_dependences, DepGraph, Distance};
use selvec::core::{compile, partition_ops, SelectiveConfig, Strategy};
use selvec::ir::{ArrayId, MemRef};
use selvec::machine::MachineConfig;
use selvec::modsched::{allocate_rotating, validate_assignment, validate_schedule};
use selvec::sim::{assert_equivalent, has_register_state_across_cleanup};
use selvec::workloads::{synth_loop, SmallRng, SynthProfile};

const CASES: u64 = 48;

fn random_loop(seed: u64) -> selvec::ir::Loop {
    let mut l = synth_loop("prop", &SynthProfile::broad(), seed);
    l.invocations = 1;
    if has_register_state_across_cleanup(&l) {
        l.trip.count = (l.trip.count & !3).max(4);
    }
    l
}

/// Derived 64-bit case seeds, mirroring proptest's `any::<u64>()` input.
fn case_seeds(stream: u64) -> impl Iterator<Item = u64> {
    let mut rng = SmallRng::seed_from_u64(0xca5e_0000 ^ stream);
    (0..CASES).map(move |_| rng.next_u64())
}

/// Every strategy preserves the source loop's semantics.
#[test]
fn transforms_preserve_semantics() {
    let machine = MachineConfig::paper_default();
    for seed in case_seeds(1) {
        let l = random_loop(seed);
        for strategy in Strategy::ALL {
            let compiled = compile(&l, &machine, strategy)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert_equivalent(&l, &compiled);
        }
    }
}

/// Every schedule respects dependences and resources, and II is never
/// below its lower bounds.
#[test]
fn schedules_are_valid() {
    let machine = MachineConfig::paper_default();
    for seed in case_seeds(2) {
        let l = random_loop(seed);
        for strategy in Strategy::ALL {
            let compiled = compile(&l, &machine, strategy).unwrap();
            for seg in &compiled.segments {
                let g = DepGraph::build(&seg.looop);
                validate_schedule(&seg.looop, &g, &machine, &seg.schedule)
                    .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
                assert!(
                    seg.schedule.ii >= seg.schedule.resmii.max(seg.schedule.recmii),
                    "seed {seed}"
                );
            }
        }
    }
}

/// The partitioner never returns a configuration costlier than either of
/// its seeds (all-scalar or full vectorization), and its cost predicts the
/// scheduled loop's ResMII.
#[test]
fn partitioner_cost_is_sane() {
    let machine = MachineConfig::paper_default();
    for seed in case_seeds(3) {
        let l = random_loop(seed);
        let g = DepGraph::build(&l);
        let r = partition_ops(&l, &g, &machine, &SelectiveConfig::default());
        let sel = compile(&l, &machine, Strategy::Selective).unwrap();
        let base = compile(&l, &machine, Strategy::ModuloOnly).unwrap();
        let full = compile(&l, &machine, Strategy::Full).unwrap();
        // The partitioner's bin high-water mark IS the transformed loop's
        // greedy ResMII.
        assert_eq!(r.cost, sel.segments[0].schedule.resmii, "seed {seed}");
        assert!(
            sel.segments[0].schedule.resmii <= base.segments[0].schedule.resmii,
            "seed {seed}"
        );
        assert!(
            sel.segments[0].schedule.resmii <= full.segments[0].schedule.resmii,
            "seed {seed}"
        );
    }
}

/// Subscript dependence testing agrees with brute-force enumeration of the
/// iteration space — exhaustively over the whole small-parameter grid the
/// proptest version only sampled.
#[test]
fn dependence_tests_match_oracle() {
    let params: Vec<(i64, i64, u32)> = (-3..=3)
        .flat_map(|s| (-4..=4).flat_map(move |o| [1u32, 2].map(|w| (s, o, w))))
        .collect();
    for &(s1, o1, w1) in &params {
        for &(s2, o2, w2) in &params {
            let a = MemRef { array: ArrayId(0), stride: s1, offset: o1, width: w1 };
            let b = MemRef { array: ArrayId(0), stride: s2, offset: o2, width: w2 };
            let oracle = brute_force_mem_deps(&a, &b, 20);
            let analytic = mem_dependences(&a, &b, 1 << 20);
            let star = analytic.contains(&Distance::Star);
            let exact: std::collections::BTreeSet<u32> = analytic
                .iter()
                .filter_map(|d| match d {
                    Distance::Exact(e) => Some(*e),
                    Distance::Far | Distance::Star => None,
                })
                .collect();
            if star {
                // Conservative answers may over-approximate, never miss.
                assert!(oracle.iter().all(|d| *d < 20));
            } else {
                // Every oracle hit must be reported exactly (the window 20
                // is below FAR_BOUND, so Far never hides a short distance);
                // the analysis may additionally see dependences whose
                // witness iteration lies outside the oracle's window.
                let exact_in: std::collections::BTreeSet<u32> =
                    exact.into_iter().filter(|&d| d < 20).collect();
                assert!(
                    oracle.is_subset(&exact_in),
                    "({s1},{o1},{w1})x({s2},{o2},{w2}) missed: oracle {oracle:?} vs exact {exact_in:?}",
                );
                // And for same strides the answers are exactly the oracle.
                if s1 == s2 {
                    assert_eq!(exact_in, oracle, "({s1},{o1},{w1})x({s2},{o2},{w2})");
                }
            }
        }
    }
}

/// The textual format round-trips every loop shape the pipeline can
/// produce: random sources, their unrolled/vectorized forms, and the
/// distributed loops with their expansion temporaries.
#[test]
fn text_format_round_trips() {
    let machine = MachineConfig::paper_default();
    for seed in case_seeds(4) {
        let l = random_loop(seed);
        let reparsed = selvec::ir::parse_loop(&l.to_string()).unwrap();
        assert_eq!(l, reparsed, "seed {seed}");
        for strategy in Strategy::ALL {
            let compiled = compile(&l, &machine, strategy).unwrap();
            for seg in &compiled.segments {
                let text = seg.looop.to_string();
                let reparsed = selvec::ir::parse_loop(&text)
                    .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{text}"));
                assert_eq!(seg.looop, reparsed, "seed {seed}");
            }
        }
    }
}

/// Rotating-register allocation succeeds on the paper machine for every
/// random loop and never aliases two live values.
#[test]
fn register_allocation_is_conflict_free() {
    let machine = MachineConfig::paper_default();
    for seed in case_seeds(5) {
        let l = random_loop(seed);
        for strategy in [Strategy::ModuloOnly, Strategy::Selective] {
            let compiled = compile(&l, &machine, strategy).unwrap();
            for seg in &compiled.segments {
                let g = DepGraph::build(&seg.looop);
                let a = allocate_rotating(&seg.looop, &g, &machine, &seg.schedule)
                    .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
                assert_eq!(
                    validate_assignment(&seg.looop, &g, &machine, &seg.schedule, &a),
                    None,
                    "seed {seed}"
                );
                // Usage respects the files.
                for (slot, &class) in selvec::ir::RegClass::ALL.iter().enumerate() {
                    assert!(a.used[slot] <= machine.regs.size(class), "seed {seed}");
                }
            }
        }
    }
}

/// Random text of the given length alphabet-weighted toward the tokens the
/// loop format uses, so mutations reach deep parser states.
fn random_text(rng: &mut SmallRng, max_len: usize) -> String {
    const ALPHABET: &[u8] =
        b"loop arysticenv01234567890.:=+-*/[]{}()<>#@\n\t \"\\fxq";
    let len = rng.index(max_len + 1);
    (0..len).map(|_| ALPHABET[rng.index(ALPHABET.len())] as char).collect()
}

/// The loop parser never panics, whatever the input: it returns a
/// structured error instead.
#[test]
fn loop_parser_never_panics() {
    let mut rng = SmallRng::seed_from_u64(0xf00d);
    for _ in 0..400 {
        let text = random_text(&mut rng, 400);
        let _ = selvec::ir::parse_loop(&text);
    }
}

/// Mutations of valid loop text also never panic (they hit deeper parser
/// states than fully random text).
#[test]
fn mutated_loop_text_never_panics() {
    let mut rng = SmallRng::seed_from_u64(0xbead);
    for seed in case_seeds(6) {
        let l = random_loop(seed);
        let mut text = l.to_string();
        let pos = rng.index(500).min(text.len());
        while !text.is_char_boundary(pos.min(text.len())) && !text.is_empty() {
            text.pop();
        }
        let pos = pos.min(text.len());
        let insert = random_text(&mut rng, 12);
        text.insert_str(pos, &insert);
        let _ = selvec::ir::parse_loop(&text);
    }
}

/// The machine-spec parser never panics either.
#[test]
fn machine_spec_parser_never_panics() {
    let mut rng = SmallRng::seed_from_u64(0x5bec);
    for _ in 0..300 {
        let text = random_text(&mut rng, 300);
        let _ = MachineConfig::from_spec(&text);
    }
}

/// Compilation is deterministic.
#[test]
fn pipeline_is_deterministic() {
    let machine = MachineConfig::paper_default();
    for seed in case_seeds(7) {
        let l = random_loop(seed);
        let a = compile(&l, &machine, Strategy::Selective).unwrap();
        let b = compile(&l, &machine, Strategy::Selective).unwrap();
        assert_eq!(
            a.partition.unwrap().partition,
            b.partition.unwrap().partition,
            "seed {seed}"
        );
        assert_eq!(a.segments[0].schedule.times, b.segments[0].schedule.times, "seed {seed}");
    }
}
