//! Property tests for the cache key ([`sv_core::request_key`] over
//! [`sv_ir::CanonicalHash`]):
//!
//! * **round-trip stability** — the key is invariant under display →
//!   parse → display normalization for every suite loop and a seeded
//!   population of synthetic loops (the cache must hit when a client
//!   re-sends a loop it previously received as text);
//! * **sensitivity** — the key changes when the machine description or
//!   any [`DriverConfig`] knob changes (the cache must never serve a
//!   result computed under different settings).

use sv_core::{request_key, DriverConfig, SelectiveConfig, Strategy};
use sv_ir::{parse_loop, Loop};
use sv_machine::MachineConfig;
use sv_workloads::{all_benchmarks, synth_loop, SynthProfile};

/// Suite loops plus 100 seeded broad synthetic loops.
fn population() -> Vec<Loop> {
    let mut out: Vec<Loop> =
        all_benchmarks().into_iter().flat_map(|s| s.loops).collect();
    let profile = SynthProfile::broad();
    for seed in 0..100 {
        out.push(synth_loop(&format!("hashprop.{seed}"), &profile, seed));
    }
    out
}

#[test]
fn canonical_hash_survives_display_parse_round_trip() {
    let m = MachineConfig::paper_default();
    let cfg = DriverConfig::default();
    for l in population() {
        let text = l.to_string();
        let reparsed = parse_loop(&text)
            .unwrap_or_else(|e| panic!("{}: display form must re-parse: {e}", l.name));
        assert_eq!(
            request_key(&l, &m, &cfg),
            request_key(&reparsed, &m, &cfg),
            "{}: key must be invariant under display→parse round trip",
            l.name
        );
        // And a second round trip is a fixed point.
        let again = parse_loop(&reparsed.to_string()).expect("second round trip");
        assert_eq!(request_key(&reparsed, &m, &cfg), request_key(&again, &m, &cfg));
    }
}

#[test]
fn canonical_hash_distinguishes_loops() {
    let m = MachineConfig::paper_default();
    let cfg = DriverConfig::default();
    let pop = population();
    let mut keys = std::collections::HashSet::new();
    for l in &pop {
        keys.insert(request_key(l, &m, &cfg).0);
    }
    // Synthetic seeds can collide structurally, but the overwhelming
    // majority of a 400+ loop population must hash distinctly.
    assert!(
        keys.len() as f64 >= pop.len() as f64 * 0.95,
        "only {} distinct keys over {} loops",
        keys.len(),
        pop.len()
    );
}

#[test]
fn key_is_invariant_under_spec_reformatting() {
    // Two spec texts that differ in whitespace, comments and key order but
    // parse to equal machines must produce byte-identical request keys for
    // every loop in the population — the invariance the v2 key schema
    // exists to guarantee (and that ci.sh's named-vs-inline loadgen gate
    // checks end to end through the disk cache).
    let tidy = MachineConfig::paper_default().to_spec();
    let mut lines: Vec<String> = tidy
        .lines()
        .map(|l| format!("\t{}   # same value, uglier line", l.replace(" = ", "=")))
        .collect();
    lines.reverse();
    let ugly = format!("# reformatted copy of the paper machine\n\n{}\n", lines.join("\n\n"));
    let m1 = MachineConfig::from_spec(&tidy).expect("canonical spec parses");
    let m2 = MachineConfig::from_spec(&ugly).expect("reformatted spec parses");
    assert_eq!(m1, m2);
    let cfg = DriverConfig::default();
    for l in population() {
        assert_eq!(
            request_key(&l, &m1, &cfg),
            request_key(&l, &m2, &cfg),
            "{}: equal machines from differently formatted specs must share a key",
            l.name
        );
    }
}

#[test]
fn key_changes_with_machine_and_every_driver_knob() {
    let l = &all_benchmarks()[0].loops[0];
    let base_m = MachineConfig::paper_default();
    let base = DriverConfig::default();
    let base_key = request_key(l, &base_m, &base);

    assert_ne!(
        base_key,
        request_key(l, &MachineConfig::figure1(), &base),
        "machine spec must be part of the key"
    );

    // Every DriverConfig knob, flipped one at a time off the default.
    let variants: Vec<(&str, DriverConfig)> = vec![
        ("strategy", DriverConfig { strategy: Strategy::Full, ..base.clone() }),
        (
            "selective.account_communication",
            DriverConfig {
                selective: SelectiveConfig {
                    account_communication: !base.selective.account_communication,
                    ..base.selective.clone()
                },
                ..base.clone()
            },
        ),
        (
            "selective.squares_tiebreak",
            DriverConfig {
                selective: SelectiveConfig {
                    squares_tiebreak: !base.selective.squares_tiebreak,
                    ..base.selective.clone()
                },
                ..base.clone()
            },
        ),
        (
            "selective.max_iterations",
            DriverConfig {
                selective: SelectiveConfig {
                    max_iterations: Some(base.selective.max_iterations.unwrap_or(100) + 1),
                    ..base.selective.clone()
                },
                ..base.clone()
            },
        ),
        (
            "selective.max_moves",
            DriverConfig {
                selective: SelectiveConfig {
                    max_moves: Some(base.selective.max_moves.unwrap_or(1000) + 1),
                    ..base.selective.clone()
                },
                ..base.clone()
            },
        ),
        ("schedule.budget_ratio", {
            let mut c = base.clone();
            c.schedule.budget_ratio += 1;
            c
        }),
        ("schedule.max_ii_slack", {
            let mut c = base.clone();
            c.schedule.max_ii_slack += 1;
            c
        }),
        (
            "verify_boundaries",
            DriverConfig { verify_boundaries: !base.verify_boundaries, ..base.clone() },
        ),
        ("degrade", DriverConfig { degrade: !base.degrade, ..base.clone() }),
    ];
    for (knob, cfg) in variants {
        assert_ne!(
            base_key,
            request_key(l, &base_m, &cfg),
            "flipping `{knob}` must change the cache key"
        );
    }
}

/// The key of one fixed (loop, machine, config) triple, pinned as hex.
/// Deployed disk tiers are addressed by these keys, so any change to the
/// loop's canonical form, the machine spec or the config encoding that
/// moves them must bump `KEY_SCHEMA` deliberately, never by accident.
#[test]
fn request_key_is_pinned_across_versions() {
    let l = parse_loop(
        "loop dot (trip 1000? x1 invocations, scale 1)
  array @0 x : f64[1024] align 16
  array @1 y : f64[1024] align 16
  %0 = load.f64 @0[1*i+0]
  %1 = load.f64 @1[1*i+0]
  %2 = mul.f64 %0, %1
  %3 = add.f64 [red] %3@-1, %2
  liveout s = %3 (combine add)
",
    )
    .expect("pinned loop parses");
    let key = request_key(&l, &MachineConfig::paper_default(), &DriverConfig::default());
    assert_eq!(key.to_string(), "5edbe1fbfcbdc5cd79b2de400f430dbb");
}
