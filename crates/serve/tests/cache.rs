//! End-to-end cache correctness:
//!
//! * a warm-cache suite sweep (every kernel × several strategies, the
//!   shape of `sv-bench`'s table evaluation) returns byte-identical
//!   bodies to the cold run;
//! * the disk tier survives a process "restart" (write, drop the cache,
//!   reopen over the same directory, hit);
//! * a corrupted disk entry is quarantined and recompiled, never served
//!   and never an error;
//! * injected disk faults (torn writes, orphaned temporaries, read
//!   errors) are absorbed by read validation and the open-time
//!   [`CompileCache::recover`] sweep: wrong bytes are never served,
//!   recovery quarantines every torn write, and recompilation restores
//!   good entries.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use sv_core::{
    compile_cached, CacheConfig, CacheOutcome, CompileCache, DriverConfig, Strategy,
};
use sv_machine::MachineConfig;
use sv_serve::{FaultConfig, FaultPlan};
use sv_workloads::all_benchmarks;

/// A unique scratch directory under the system temp dir (no external
/// temp-dir crate; unique per test via pid + counter).
fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "sv-serve-cache-test-{}-{}-{tag}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The sweep: every hand-written suite kernel under the three
/// interesting strategies on the paper machine.
fn sweep(cache: &CompileCache) -> Vec<(String, Result<String, String>)> {
    let m = MachineConfig::paper_default();
    let mut out = Vec::new();
    for suite in all_benchmarks() {
        for l in &suite.loops {
            if l.name.contains(".synth") {
                continue;
            }
            for strategy in [Strategy::ModuloOnly, Strategy::Full, Strategy::Selective] {
                let cfg = DriverConfig::for_strategy(strategy);
                let body = compile_cached(l, &m, &cfg, cache, None)
                    .map(|(b, _)| b.to_string())
                    .map_err(|e| e.to_string());
                out.push((format!("{}/{strategy}", l.name), body));
            }
        }
    }
    out
}

#[test]
fn warm_sweep_is_byte_identical_to_cold() {
    let cache = CompileCache::in_memory();
    let cold = sweep(&cache);
    let misses_after_cold = cache.stats().misses;
    let warm = sweep(&cache);
    assert_eq!(cold.len(), warm.len());
    for ((name, c), (_, w)) in cold.iter().zip(&warm) {
        assert_eq!(c, w, "{name}: warm body diverged from cold");
    }
    // Successes are cached; failures recompile by design, so the warm
    // sweep may only miss once per failing case.
    let failures = cold.iter().filter(|(_, r)| r.is_err()).count() as u64;
    let st = cache.stats();
    assert_eq!(st.misses, misses_after_cold + failures);
    assert!(st.mem_hits > 0);
}

#[test]
fn disk_tier_survives_process_restart() {
    let dir = scratch("restart");
    let cfg = CacheConfig { disk_dir: Some(dir.clone()), ..CacheConfig::default() };
    let m = MachineConfig::paper_default();
    let dcfg = DriverConfig::default();
    let l = &all_benchmarks()[0].loops[0];

    // "Process 1": compile and write through to disk, then drop.
    let first = CompileCache::new(cfg.clone()).unwrap();
    let (cold, outcome) = compile_cached(l, &m, &dcfg, &first, None).unwrap();
    assert_eq!(outcome, CacheOutcome::Compiled);
    drop(first);

    // "Process 2": a fresh cache over the same directory hits disk with
    // byte-identical content, and promotes it to memory.
    let second = CompileCache::new(cfg).unwrap();
    let (warm, outcome) = compile_cached(l, &m, &dcfg, &second, None).unwrap();
    assert_eq!(outcome, CacheOutcome::Disk, "restart must hit the disk tier");
    assert_eq!(cold, warm, "disk round trip must preserve bytes");
    let (mem, outcome) = compile_cached(l, &m, &dcfg, &second, None).unwrap();
    assert_eq!(outcome, CacheOutcome::Memory, "disk hit must promote to memory");
    assert_eq!(cold, mem);

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupt_disk_entry_quarantines_and_recompiles() {
    let dir = scratch("corrupt");
    let cfg = CacheConfig { disk_dir: Some(dir.clone()), ..CacheConfig::default() };
    let m = MachineConfig::paper_default();
    let dcfg = DriverConfig::default();
    let l = &all_benchmarks()[0].loops[0];

    let first = CompileCache::new(cfg.clone()).unwrap();
    let (cold, _) = compile_cached(l, &m, &dcfg, &first, None).unwrap();
    drop(first);

    // Flip bytes in the middle of every entry body.
    let mut corrupted = 0;
    for e in std::fs::read_dir(&dir).unwrap() {
        let path = e.unwrap().path();
        if path.extension().is_some_and(|x| x == "svc") {
            let mut bytes = std::fs::read(&path).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xff;
            std::fs::write(&path, bytes).unwrap();
            corrupted += 1;
        }
    }
    assert_eq!(corrupted, 1);

    // A fresh cache must detect the corruption, quarantine, recompile and
    // still return the right bytes — not an error, not the bad entry.
    let second = CompileCache::new(cfg).unwrap();
    let (body, outcome) = compile_cached(l, &m, &dcfg, &second, None).unwrap();
    assert_eq!(outcome, CacheOutcome::Compiled, "corrupt entry must not be served");
    assert_eq!(cold, body);
    let st = second.stats();
    assert_eq!(st.disk_errors, 1, "the quarantine must be counted");
    let quarantined = std::fs::read_dir(&dir)
        .unwrap()
        .filter(|e| {
            e.as_ref().unwrap().path().to_string_lossy().ends_with(".svc.quarantined")
        })
        .count();
    assert_eq!(quarantined, 1, "the bad entry must be moved aside");

    std::fs::remove_dir_all(&dir).unwrap();
}

/// Compile the first few suite loops through `cache`, returning bodies.
fn compile_some(cache: &CompileCache, n: usize) -> Vec<String> {
    let m = MachineConfig::paper_default();
    let dcfg = DriverConfig::default();
    all_benchmarks()
        .iter()
        .flat_map(|s| s.loops.iter())
        .filter(|l| !l.name.contains(".synth"))
        .take(n)
        .map(|l| compile_cached(l, &m, &dcfg, cache, None).unwrap().0.to_string())
        .collect()
}

#[test]
fn every_torn_write_is_quarantined_by_recovery() {
    let dir = scratch("torn");
    // Tear EVERY write: only corrupt prefixes reach the final paths.
    let plan = Arc::new(FaultPlan::new(
        21,
        FaultConfig { torn_write: 1.0, ..FaultConfig::default() },
    ));
    let cfg = CacheConfig { disk_dir: Some(dir.clone()), ..CacheConfig::default() };
    let faulty = CompileCache::new(CacheConfig { faults: Some(plan.clone()), ..cfg.clone() })
        .unwrap();
    let n = 4;
    let bodies = compile_some(&faulty, n);
    assert_eq!(plan.injected().torn_writes as usize, n);
    drop(faulty);

    // "Reboot" without faults: the open-time sweep must quarantine every
    // torn entry — none may survive to be served.
    let clean = CompileCache::new(cfg).unwrap();
    let report = clean.recovery();
    assert_eq!(report.scanned as usize, n);
    assert_eq!(
        report.quarantined as usize, n,
        "recovery must quarantine every torn write: {report:?}"
    );
    let again = compile_some(&clean, n);
    assert_eq!(bodies, again, "recompiled bodies must match the originals");
    assert_eq!(clean.stats().disk_hits, 0, "no torn entry may ever be served");

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn orphaned_tmp_files_are_swept_at_open() {
    let dir = scratch("orphan");
    let plan = Arc::new(FaultPlan::new(
        22,
        FaultConfig { orphan_tmp: 1.0, ..FaultConfig::default() },
    ));
    let cfg = CacheConfig { disk_dir: Some(dir.clone()), ..CacheConfig::default() };
    let faulty =
        CompileCache::new(CacheConfig { faults: Some(plan), ..cfg.clone() }).unwrap();
    let n = 3;
    compile_some(&faulty, n);
    drop(faulty);
    let tmps = std::fs::read_dir(&dir)
        .unwrap()
        .filter(|e| e.as_ref().unwrap().path().to_string_lossy().contains(".svc.tmp"))
        .count();
    assert_eq!(tmps, n, "every write must have left an orphaned tmp file");

    let clean = CompileCache::new(cfg).unwrap();
    let report = clean.recovery();
    assert_eq!(report.orphans as usize, n);
    assert_eq!(report.quarantined, 0, "orphans are cleanup, not corruption");
    assert_eq!(clean.stats().disk_errors, 0, "orphan sweep must not count as errors");
    let left = std::fs::read_dir(&dir)
        .unwrap()
        .filter(|e| {
            let p = e.as_ref().unwrap().path();
            let s = p.to_string_lossy().to_string();
            s.contains(".svc.tmp") && !s.ends_with(".quarantined")
        })
        .count();
    assert_eq!(left, 0, "no live tmp files may survive the sweep");

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn injected_read_faults_recompile_and_restore_the_entry() {
    let dir = scratch("readfault");
    let cfg = CacheConfig { disk_dir: Some(dir.clone()), ..CacheConfig::default() };
    let first = CompileCache::new(cfg.clone()).unwrap();
    let bodies = compile_some(&first, 1);
    drop(first);

    // Fail the first disk read; the entry quarantines, the request
    // recompiles, and the write-through restores a good copy.
    let plan = Arc::new(FaultPlan::new(
        23,
        FaultConfig { disk_read: 1.0, ..FaultConfig::default() },
    ));
    let faulty =
        CompileCache::new(CacheConfig { faults: Some(plan), ..cfg.clone() }).unwrap();
    let m = MachineConfig::paper_default();
    let dcfg = DriverConfig::default();
    let suites = all_benchmarks();
    let l = suites
        .iter()
        .flat_map(|s| s.loops.iter())
        .find(|l| !l.name.contains(".synth"))
        .unwrap();
    let (body, outcome) = compile_cached(l, &m, &dcfg, &faulty, None).unwrap();
    assert_eq!(outcome, CacheOutcome::Compiled, "a failed read must recompile");
    assert_eq!(body.to_string(), bodies[0]);
    drop(faulty);

    // The restored copy is valid: a faultless reopen serves it from disk.
    let clean = CompileCache::new(cfg).unwrap();
    let (body, outcome) = compile_cached(l, &m, &dcfg, &clean, None).unwrap();
    assert_eq!(outcome, CacheOutcome::Disk, "the write-through must have restored it");
    assert_eq!(body.to_string(), bodies[0]);

    std::fs::remove_dir_all(&dir).unwrap();
}
