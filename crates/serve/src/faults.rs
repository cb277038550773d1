//! Seeded, deterministic fault injection for the serving layer.
//!
//! A [`FaultPlan`] is a probability table plus one in-repo SplitMix64
//! stream ([`sv_workloads::SmallRng`]) per injection *site*, so the same
//! `(seed, probabilities)` pair replays the same fault sequence at each
//! site regardless of what the other sites drew — the property the
//! `chaos` soak and the ci.sh chaos gate rely on to make failures
//! reproducible by seed. Sites:
//!
//! | site | injected fault | absorbed by |
//! |---|---|---|
//! | disk read | I/O error on a cache read | quarantine + recompile |
//! | disk write | write error / torn write / orphaned tmp | read validation, [`sv_core::CompileCache::recover`] |
//! | compile | panic or artificial slowness per batch entry | per-entry `catch_unwind` → typed `internal` |
//! | drainer | panic before/mid-run, or before/after a single non-compile request | supervisor respawn + exactly-once re-queue |
//! | stall | drainer sleeps before an action | deadline verdicts, `overloaded` backpressure |
//! | connection | response dropped on the client path | retrying client ([`crate::client`]) |
//! | burst | one client floods a burst of extra submissions | fair admission, typed `overloaded` + `retry_after_ms` |
//!
//! Probabilities default to zero: a default plan injects nothing, and a
//! plan-free server pays only an `Option` check per site.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;
use sv_core::{DiskFaults, WriteFault};
use sv_ir::CanonicalHash;
use sv_workloads::SmallRng;

/// Per-site fault probabilities and shaping knobs. All probabilities are
/// per *event* at their site (one disk read, one batch entry, one
/// flushed run, ...) and clamp to `[0, 1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Injected I/O error per disk-cache read.
    pub disk_read: f64,
    /// Injected I/O error per disk-cache write.
    pub disk_write: f64,
    /// Torn (partial, non-atomic) write per disk-cache write; the cut
    /// point is drawn uniformly over the serialized entry.
    pub torn_write: f64,
    /// Orphaned temporary (crash between write and rename) per write.
    pub orphan_tmp: f64,
    /// Panic per batch-entry compile.
    pub compile_panic: f64,
    /// Artificial slowness per batch-entry compile.
    pub slow_compile: f64,
    /// How slow a slow compile is.
    pub slow_compile_ms: u64,
    /// Drainer panic per flushed compile run or answered non-compile
    /// request (the panic point — before execute or after k responses —
    /// is drawn uniformly).
    pub drainer_panic: f64,
    /// Queue stall per drainer action.
    pub queue_stall: f64,
    /// How long a queue stall lasts.
    pub stall_ms: u64,
    /// Dropped response per client call (simulated connection drop).
    pub conn_drop: f64,
    /// Burst of extra submissions from a greedy client, per chaos wave
    /// (multi-connection site: floods one client's fair share so
    /// admission must reject with typed `overloaded` while other
    /// clients keep completing).
    pub client_burst: f64,
    /// How many extra submissions one burst injects.
    pub burst_len: u64,
}

impl Default for FaultConfig {
    fn default() -> FaultConfig {
        FaultConfig {
            disk_read: 0.0,
            disk_write: 0.0,
            torn_write: 0.0,
            orphan_tmp: 0.0,
            compile_panic: 0.0,
            slow_compile: 0.0,
            slow_compile_ms: 2,
            drainer_panic: 0.0,
            queue_stall: 0.0,
            stall_ms: 2,
            conn_drop: 0.0,
            client_burst: 0.0,
            burst_len: 8,
        }
    }
}

impl FaultConfig {
    /// The standard chaos-soak mix: every fault class enabled at rates
    /// that exercise all recovery paths in a few dozen requests while
    /// leaving most requests to succeed (so warm-byte comparisons have
    /// material).
    pub fn soak() -> FaultConfig {
        FaultConfig {
            disk_read: 0.10,
            disk_write: 0.05,
            torn_write: 0.15,
            orphan_tmp: 0.10,
            compile_panic: 0.08,
            slow_compile: 0.05,
            slow_compile_ms: 1,
            drainer_panic: 0.12,
            queue_stall: 0.05,
            stall_ms: 1,
            conn_drop: 0.10,
            client_burst: 0.25,
            burst_len: 8,
        }
    }

    /// Parse a `key=value,key=value` spec (the `--faults` flag syntax),
    /// starting from the all-zero default. Keys are the field names
    /// (`disk_read`, `torn_write`, `drainer_panic`, ...); `soak` as the
    /// first element starts from [`FaultConfig::soak`] instead.
    ///
    /// # Errors
    ///
    /// A message naming the offending key or value.
    pub fn parse(spec: &str) -> Result<FaultConfig, String> {
        let mut cfg = FaultConfig::default();
        for (i, part) in spec.split(',').enumerate() {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            if part == "soak" {
                if i != 0 {
                    return Err("`soak` must be the first element of a fault spec".into());
                }
                cfg = FaultConfig::soak();
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault spec element `{part}` is not key=value"))?;
            let p = || -> Result<f64, String> {
                let v: f64 =
                    value.parse().map_err(|e| format!("bad value for `{key}`: {e}"))?;
                if !(0.0..=1.0).contains(&v) {
                    return Err(format!("`{key}` wants a probability in [0,1], got {v}"));
                }
                Ok(v)
            };
            let ms = || -> Result<u64, String> {
                value.parse().map_err(|e| format!("bad value for `{key}`: {e}"))
            };
            match key.trim() {
                "disk_read" => cfg.disk_read = p()?,
                "disk_write" => cfg.disk_write = p()?,
                "torn_write" => cfg.torn_write = p()?,
                "orphan_tmp" => cfg.orphan_tmp = p()?,
                "compile_panic" => cfg.compile_panic = p()?,
                "slow_compile" => cfg.slow_compile = p()?,
                "slow_compile_ms" => cfg.slow_compile_ms = ms()?,
                "drainer_panic" => cfg.drainer_panic = p()?,
                "queue_stall" => cfg.queue_stall = p()?,
                "stall_ms" => cfg.stall_ms = ms()?,
                "conn_drop" => cfg.conn_drop = p()?,
                "client_burst" => cfg.client_burst = p()?,
                "burst_len" => cfg.burst_len = ms()?,
                other => return Err(format!("unknown fault knob `{other}`")),
            }
        }
        Ok(cfg)
    }
}

/// Injection sites, each with its own independent RNG stream.
#[derive(Debug, Clone, Copy)]
enum Site {
    DiskRead = 0,
    DiskWrite = 1,
    Compile = 2,
    Drainer = 3,
    Stall = 4,
    Conn = 5,
    Burst = 6,
}

const SITES: usize = 7;

/// What the plan dictates for one batch-entry compile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompileFault {
    /// Compile normally.
    None,
    /// Panic (to be caught by the per-entry isolation).
    Panic,
    /// Sleep this long first (trips deadlines / backs the queue up).
    Slow(Duration),
}

/// Counters of faults actually injected, for reports and gates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Disk reads failed.
    pub disk_reads: u64,
    /// Disk writes failed outright.
    pub disk_writes: u64,
    /// Torn writes placed.
    pub torn_writes: u64,
    /// Orphaned temporaries placed.
    pub orphan_tmps: u64,
    /// Compile panics injected.
    pub compile_panics: u64,
    /// Compiles slowed.
    pub slow_compiles: u64,
    /// Drainer panics injected.
    pub drainer_panics: u64,
    /// Queue stalls injected.
    pub queue_stalls: u64,
    /// Responses dropped on the client path.
    pub conn_drops: u64,
    /// Greedy-client bursts injected.
    pub client_bursts: u64,
}

impl FaultCounters {
    /// Total faults injected across every class.
    pub fn total(&self) -> u64 {
        self.disk_reads
            + self.disk_writes
            + self.torn_writes
            + self.orphan_tmps
            + self.compile_panics
            + self.slow_compiles
            + self.drainer_panics
            + self.queue_stalls
            + self.conn_drops
            + self.client_bursts
    }
}

/// A seeded fault plan: deterministic per-site decision streams plus
/// injection counters. Shared (`Arc`) between the cache, the service,
/// the batcher and the client transports of one chaos run.
#[derive(Debug)]
pub struct FaultPlan {
    cfg: FaultConfig,
    sites: Vec<Mutex<SmallRng>>,
    injected: [AtomicU64; 10],
}

impl FaultPlan {
    /// Build a plan. Each site's stream is seeded from `seed` and the
    /// site's index, so sites never share draws.
    pub fn new(seed: u64, cfg: FaultConfig) -> FaultPlan {
        FaultPlan {
            cfg,
            sites: (0..SITES as u64)
                // Offset the per-site seed by a large odd constant so
                // site streams are uncorrelated with each other and with
                // workload generators using nearby seeds.
                .map(|i| Mutex::new(SmallRng::seed_from_u64(seed ^ (0x5eed_fa17 + i * 0x9e37))))
                .collect(),
            injected: Default::default(),
        }
    }

    /// The plan's probability table.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    fn draw(&self, site: Site, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        self.sites[site as usize].lock().expect("fault site poisoned").chance(p)
    }

    fn draw_index(&self, site: Site, n: usize) -> usize {
        self.sites[site as usize].lock().expect("fault site poisoned").index(n)
    }

    fn count(&self, idx: usize) {
        self.injected[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// What should happen to one batch-entry compile.
    pub fn compile_fault(&self) -> CompileFault {
        if self.draw(Site::Compile, self.cfg.compile_panic) {
            self.count(4);
            return CompileFault::Panic;
        }
        if self.draw(Site::Compile, self.cfg.slow_compile) {
            self.count(5);
            return CompileFault::Slow(Duration::from_millis(self.cfg.slow_compile_ms));
        }
        CompileFault::None
    }

    /// Whether (and where) the drainer should panic while handling a run
    /// of `batch_len` entries (1 for a single non-compile request):
    /// `Some(0)` panics before execution, `Some(k)` after the `k`-th
    /// response has been written.
    pub fn drainer_panic_point(&self, batch_len: usize) -> Option<usize> {
        if !self.draw(Site::Drainer, self.cfg.drainer_panic) {
            return None;
        }
        self.count(6);
        Some(self.draw_index(Site::Drainer, batch_len + 1))
    }

    /// How long the drainer should stall before its next action.
    pub fn stall(&self) -> Option<Duration> {
        if self.draw(Site::Stall, self.cfg.queue_stall) {
            self.count(7);
            Some(Duration::from_millis(self.cfg.stall_ms))
        } else {
            None
        }
    }

    /// Whether the response to one client call should be dropped
    /// (simulated connection drop; the client retries).
    pub fn drop_response(&self) -> bool {
        if self.draw(Site::Conn, self.cfg.conn_drop) {
            self.count(8);
            true
        } else {
            false
        }
    }

    /// How many extra submissions a greedy client should flood into the
    /// queue right now (`0` = no burst this wave). The burst targets one
    /// client's fair share, so the admission path must answer the excess
    /// with typed `overloaded` while other clients keep completing.
    pub fn client_burst(&self) -> u64 {
        if self.draw(Site::Burst, self.cfg.client_burst) {
            self.count(9);
            self.cfg.burst_len
        } else {
            0
        }
    }

    /// Faults injected so far.
    pub fn injected(&self) -> FaultCounters {
        let c = |i: usize| self.injected[i].load(Ordering::Relaxed);
        FaultCounters {
            disk_reads: c(0),
            disk_writes: c(1),
            torn_writes: c(2),
            orphan_tmps: c(3),
            compile_panics: c(4),
            slow_compiles: c(5),
            drainer_panics: c(6),
            queue_stalls: c(7),
            conn_drops: c(8),
            client_bursts: c(9),
        }
    }
}

impl DiskFaults for FaultPlan {
    fn read_fault(&self, _key: CanonicalHash) -> bool {
        if self.draw(Site::DiskRead, self.cfg.disk_read) {
            self.count(0);
            true
        } else {
            false
        }
    }

    fn write_fault(&self, _key: CanonicalHash, len: usize) -> WriteFault {
        if self.draw(Site::DiskWrite, self.cfg.disk_write) {
            self.count(1);
            return WriteFault::Error;
        }
        if self.draw(Site::DiskWrite, self.cfg.torn_write) {
            self.count(2);
            // Uniform kill point over the serialized entry, including a
            // cut before the first byte (empty file) — `len` itself
            // would be a complete write, which the `None` arm covers.
            return WriteFault::Torn { keep: self.draw_index(Site::DiskWrite, len.max(1)) };
        }
        if self.draw(Site::DiskWrite, self.cfg.orphan_tmp) {
            self.count(3);
            return WriteFault::OrphanTmp;
        }
        WriteFault::None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_injects_nothing() {
        let plan = FaultPlan::new(1, FaultConfig::default());
        for _ in 0..200 {
            assert!(!plan.read_fault(CanonicalHash(1)));
            assert_eq!(plan.write_fault(CanonicalHash(1), 100), WriteFault::None);
            assert_eq!(plan.compile_fault(), CompileFault::None);
            assert_eq!(plan.drainer_panic_point(8), None);
            assert_eq!(plan.stall(), None);
            assert!(!plan.drop_response());
            assert_eq!(plan.client_burst(), 0);
        }
        assert_eq!(plan.injected().total(), 0);
    }

    #[test]
    fn same_seed_same_stream_per_site() {
        let mk = || FaultPlan::new(42, FaultConfig::soak());
        let (a, b) = (mk(), mk());
        // Interleave sites differently on `b`: per-site streams must not
        // be perturbed by draws at other sites.
        let reads_a: Vec<bool> = (0..100).map(|_| a.read_fault(CanonicalHash(9))).collect();
        for _ in 0..100 {
            let _ = b.compile_fault();
            let _ = b.drainer_panic_point(4);
        }
        let reads_b: Vec<bool> = (0..100).map(|_| b.read_fault(CanonicalHash(9))).collect();
        assert_eq!(reads_a, reads_b);
        assert!(reads_a.iter().any(|&x| x), "10% over 100 draws should fire");
    }

    #[test]
    fn soak_rates_fire_every_class() {
        let plan = FaultPlan::new(7, FaultConfig::soak());
        for _ in 0..500 {
            let _ = plan.read_fault(CanonicalHash(3));
            let _ = plan.write_fault(CanonicalHash(3), 256);
            let _ = plan.compile_fault();
            let _ = plan.drainer_panic_point(6);
            let _ = plan.stall();
            let _ = plan.drop_response();
            let _ = plan.client_burst();
        }
        let c = plan.injected();
        assert!(c.disk_reads > 0, "{c:?}");
        assert!(c.disk_writes > 0, "{c:?}");
        assert!(c.torn_writes > 0, "{c:?}");
        assert!(c.orphan_tmps > 0, "{c:?}");
        assert!(c.compile_panics > 0, "{c:?}");
        assert!(c.slow_compiles > 0, "{c:?}");
        assert!(c.drainer_panics > 0, "{c:?}");
        assert!(c.queue_stalls > 0, "{c:?}");
        assert!(c.conn_drops > 0, "{c:?}");
        assert!(c.client_bursts > 0, "{c:?}");
    }

    #[test]
    fn torn_cut_points_cover_the_entry() {
        let plan = FaultPlan::new(3, FaultConfig { torn_write: 1.0, ..FaultConfig::default() });
        let mut cuts = Vec::new();
        for _ in 0..200 {
            match plan.write_fault(CanonicalHash(5), 64) {
                WriteFault::Torn { keep } => cuts.push(keep),
                other => panic!("expected torn write, got {other:?}"),
            }
        }
        assert!(cuts.iter().all(|&k| k < 64));
        assert!(cuts.iter().any(|&k| k < 16), "cuts must land in the header region");
        assert!(cuts.iter().any(|&k| k > 48), "cuts must land in the body region");
    }

    #[test]
    fn spec_parsing_round_trips_and_rejects_garbage() {
        let cfg =
            FaultConfig::parse("disk_read=0.5,torn_write=0.25,stall_ms=7,client_burst=0.4,burst_len=3")
                .unwrap();
        assert_eq!(cfg.disk_read, 0.5);
        assert_eq!(cfg.torn_write, 0.25);
        assert_eq!(cfg.stall_ms, 7);
        assert_eq!(cfg.client_burst, 0.4);
        assert_eq!(cfg.burst_len, 3);
        assert_eq!(cfg.drainer_panic, 0.0);
        let soak = FaultConfig::parse("soak,conn_drop=0").unwrap();
        assert_eq!(soak.disk_read, FaultConfig::soak().disk_read);
        assert_eq!(soak.conn_drop, 0.0);
        assert!(FaultConfig::parse("nope=1").is_err());
        assert!(FaultConfig::parse("disk_read=2.0").is_err());
        assert!(FaultConfig::parse("disk_read").is_err());
        assert!(FaultConfig::parse("disk_read=0.1,soak").is_err());
        assert_eq!(FaultConfig::parse("").unwrap(), FaultConfig::default());
    }
}
