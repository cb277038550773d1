//! Seeded property test for [`Bins`]: on every registry machine's pool,
//! random sequences of reserve, release, snapshot and restore keep the
//! incremental high-water mark and sum of squares equal to a recount, and
//! keep the weights equal to a reference packer that applies the paper's
//! placement rule literally (least high-water mark after the reservation,
//! then least sum of squares, then lowest dense id).

use sv_machine::{MachineConfig, MachineRegistry, Reservation, ResourceClass, ResourcePool};
use sv_modsched::Bins;
use sv_workloads::SmallRng;

fn registry() -> MachineRegistry {
    let mut r = MachineRegistry::builtin();
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/machines");
    r.load_dir(std::path::Path::new(dir)).expect("machine specs load");
    r
}

/// The paper's RESERVE-LEAST-USED, scanning every bin for each key.
fn reference_reserve(pool: &ResourcePool, weights: &mut [u32], reqs: &[Reservation]) {
    for r in reqs {
        let high = weights.iter().copied().max().unwrap_or(0);
        let sq: u64 = weights.iter().map(|&w| u64::from(w) * u64::from(w)).sum();
        let mut best: Option<(u32, u64, usize)> = None;
        for id in pool.alternative_range(r.class) {
            let (w_old, w_new) = (weights[id], weights[id] + r.cycles);
            let key = (
                high.max(w_new),
                sq - u64::from(w_old) * u64::from(w_old) + u64::from(w_new) * u64::from(w_new),
            );
            if best.is_none_or(|b| key < (b.0, b.1)) {
                best = Some((key.0, key.1, id));
            }
        }
        weights[best.expect("class present").2] += r.cycles;
    }
}

fn check(bins: &Bins, reference: &[u32], what: &str) {
    let w = bins.weights();
    assert_eq!(w, reference, "weights after {what}");
    let sq: u64 = w.iter().map(|&x| u64::from(x) * u64::from(x)).sum();
    assert_eq!(bins.sum_squares(), sq, "sum of squares after {what}");
    assert_eq!(bins.high_water_mark(), w.iter().copied().max().unwrap_or(0), "high after {what}");
}

fn run(m: &MachineConfig, seed: u64) {
    let pool = m.resource_pool();
    let classes: Vec<ResourceClass> =
        ResourceClass::ALL.into_iter().filter(|&c| pool.capacity(c) > 0).collect();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut bins = Bins::new(&pool);
    let mut reference = vec![0u32; pool.len()];
    // Logged reservations still held, released in random order.
    let mut held: Vec<Vec<(usize, u32)>> = Vec::new();
    let mut snap = Bins::new(&pool);
    let mut snap_state = (reference.clone(), held.clone());

    for step in 0..600 {
        let what = match rng.index(10) {
            0..=4 => {
                let reqs: Vec<Reservation> = (0..rng.range_u32(1, 3))
                    .map(|_| Reservation {
                        class: classes[rng.index(classes.len())],
                        cycles: if rng.chance(0.1) { 0 } else { rng.range_u32(1, 36) },
                    })
                    .collect();
                reference_reserve(&pool, &mut reference, &reqs);
                if rng.chance(0.8) {
                    let mut log = Vec::new();
                    bins.reserve_logged(&reqs, &mut log);
                    assert_eq!(log.len(), reqs.len());
                    held.push(log);
                    "reserve_logged"
                } else {
                    bins.reserve(&reqs);
                    "reserve"
                }
            }
            5..=7 if !held.is_empty() => {
                let log = held.swap_remove(rng.index(held.len()));
                for &(id, cycles) in &log {
                    reference[id] -= cycles;
                }
                bins.release(&log);
                "release"
            }
            8 => {
                snap.copy_from(&bins);
                snap_state = (reference.clone(), held.clone());
                "snapshot"
            }
            _ => {
                bins.copy_from(&snap);
                (reference, held) = snap_state.clone();
                "restore"
            }
        };
        check(&bins, &reference, &format!("{what} (step {step}, seed {seed}, {})", m.name));
    }
}

#[test]
fn incremental_costs_match_a_recount_on_every_registry_pool() {
    let registry = registry();
    assert!(registry.len() >= 10, "expected the builtins and examples/machines");
    for (_, m, _) in registry.iter() {
        for seed in 0..8 {
            run(m, seed);
        }
    }
}
