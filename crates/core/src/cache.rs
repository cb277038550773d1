//! Content-addressed compilation caching.
//!
//! Autotuning-style clients (an RL loop searching vectorization settings,
//! a global optimizer re-evaluating overlapping subproblems) issue the
//! same `(loop, machine, configuration)` compile request thousands of
//! times. [`compile_cached`] fronts [`crate::compile_checked`] with a two-tier
//! content-addressed cache keyed by [`request_key`] — a
//! [`CanonicalHash`] over the loop's canonical display form plus
//! fingerprints of the machine description and the full [`DriverConfig`]
//! — so a repeated request returns the previously rendered result without
//! re-running KL partitioning or the II search:
//!
//! * **memory tier** — one exact LRU behind one lock, bounded by entry
//!   count *and* approximate bytes, with hit/miss/eviction counters;
//! * **disk tier** (optional) — one file per key holding the rendered
//!   result behind a checksummed header, written through on every
//!   compile and read through on a memory miss. A corrupt or truncated
//!   entry is *quarantined* (renamed aside, logged, counted) and the
//!   request recompiles — a bad disk entry can never fail a request.
//!
//! The cached value is the **canonical result rendering**
//! ([`render_result`]): one deterministic JSON object with the delivered
//! strategy, fallback provenance, deterministic [`PassStats`] counters
//! (wall-clock fields are deliberately excluded) and re-parseable dumps
//! of every scheduled segment. Identical requests therefore produce
//! byte-identical results whether served cold, from memory, or from disk
//! across a process restart.

use crate::driver::{
    compile_until, json_escape, write_fallbacks, CompilationReport, CompileError, DriverConfig,
};
use crate::pipeline::CompiledLoop;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use sv_ir::{CanonicalHash, CanonicalHasher, Loop};
use sv_machine::MachineConfig;

/// Version tag woven into every cache key: bump when the result rendering
/// or the fingerprint scheme changes, invalidating stale disk tiers.
/// v2: machine and driver-config fingerprints switched from `Debug`
/// renderings to canonical encodings ([`MachineConfig::to_spec`] /
/// [`DriverConfig::canonical_encoding`]), so keys are invariant under
/// spec formatting and derive churn.
/// v3: predicated IR (`cmp`/`select`) landed — loops and machines gained
/// new canonical dimensions (select opcodes in the loop text,
/// `select_units`/`lat.select` in every machine encoding), so v2 entries
/// describe results a v3 compiler would not reproduce.
const KEY_SCHEMA: &str = "sv-core/cache/v3";

/// Magic prefixing every disk entry's header line.
const DISK_MAGIC: &str = "svcache/v1";

/// The complete cache key for one compile request: the loop in canonical
/// display form plus canonical encodings of the machine description
/// ([`MachineConfig::to_spec`] — the full key set in fixed order) and
/// every [`DriverConfig`] knob (strategy, selective/schedule budgets,
/// boundary verification, degradation, panic policy). Any change to any
/// input changes the key; nothing else does. In particular, two machine
/// spec texts differing only in whitespace, comments or key order parse
/// to equal configurations and therefore produce byte-identical keys —
/// the invariance the `ci.sh` named-vs-inline-spec loadgen gate proves
/// end to end.
pub fn request_key(l: &Loop, m: &MachineConfig, cfg: &DriverConfig) -> CanonicalHash {
    l.canonical_hash(&[KEY_SCHEMA, &m.to_spec(), &cfg.canonical_encoding()])
}

/// Chaos-layer verdict for one disk write (see [`DiskFaults`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFault {
    /// Write normally.
    None,
    /// Fail the write with an injected I/O error (surfaced exactly like
    /// a real `EIO`: logged, counted, never an error for the request).
    Error,
    /// Simulate a crash mid-write: only the first `keep` bytes of the
    /// serialized entry reach the *final* path, bypassing the tmp+rename
    /// discipline — the silent-corruption case atomic renames normally
    /// rule out, which read validation and [`CompileCache::recover`]
    /// must catch.
    Torn {
        /// How many serialized bytes land on disk (clamped to the entry
        /// length; a full-length cut degenerates to a valid write, just
        /// like a crash after the last byte).
        keep: usize,
    },
    /// Simulate a crash between the tmp write and the rename: the temp
    /// file is left behind and the entry never becomes visible.
    OrphanTmp,
}

/// Deterministic fault hooks for the disk tier. The serving layer's
/// chaos plan implements this to inject seeded I/O failures and
/// kill-at-any-write-point torn writes; production caches carry no
/// injector and take the `None`/`false` fast paths.
pub trait DiskFaults: Send + Sync + std::fmt::Debug {
    /// Whether reading `key`'s entry should fail with an injected I/O
    /// error (treated exactly like an unreadable file).
    fn read_fault(&self, key: CanonicalHash) -> bool;

    /// What should happen to the write of `key`'s entry; `len` is the
    /// full serialized entry length so torn cuts can land anywhere.
    fn write_fault(&self, key: CanonicalHash, len: usize) -> WriteFault;
}

/// What the open-time crash-recovery sweep found (see
/// [`CompileCache::recover`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Disk entries examined.
    pub scanned: u64,
    /// Corrupt or mismatched entries quarantined (also counted in
    /// [`CacheStats::disk_errors`] — they are genuine defects).
    pub quarantined: u64,
    /// Orphaned temporary files (a crash between write and rename)
    /// moved aside; benign, so not counted as disk errors.
    pub orphans: u64,
}

/// Where a [`compile_cached`] result came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from the in-memory tier.
    Memory,
    /// Served from the on-disk tier (and promoted to memory).
    Disk,
    /// Compiled fresh (and written through both tiers).
    Compiled,
}

/// Sizing and placement of a [`CompileCache`].
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Maximum resident entries in the memory tier.
    pub mem_entries: usize,
    /// Approximate maximum resident bytes in the memory tier (rendered
    /// result bytes plus a small per-entry overhead).
    pub mem_bytes: usize,
    /// Directory for the disk tier; `None` disables it.
    pub disk_dir: Option<PathBuf>,
    /// Deterministic disk-fault injector (chaos testing); `None` in
    /// production.
    pub faults: Option<Arc<dyn DiskFaults>>,
}

impl Default for CacheConfig {
    fn default() -> CacheConfig {
        CacheConfig {
            mem_entries: 4096,
            mem_bytes: 64 << 20,
            disk_dir: None,
            faults: None,
        }
    }
}

/// A point-in-time snapshot of the cache's counters and occupancy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from memory.
    pub mem_hits: u64,
    /// Lookups served from disk.
    pub disk_hits: u64,
    /// Lookups that found nothing and compiled.
    pub misses: u64,
    /// Entries evicted from the memory tier.
    pub evictions: u64,
    /// Disk entries quarantined as corrupt or unreadable.
    pub disk_errors: u64,
    /// Files the open-time recovery sweep moved aside (corrupt entries
    /// plus orphaned temporaries).
    pub recovered: u64,
    /// Entries currently resident in memory.
    pub entries: u64,
    /// Approximate bytes currently resident in memory.
    pub bytes: u64,
}

impl CacheStats {
    /// Total hits over both tiers.
    pub fn hits(&self) -> u64 {
        self.mem_hits + self.disk_hits
    }

    /// Hit fraction over all lookups (0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits() + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits() as f64 / total as f64
        }
    }
}

/// One resident memory-tier entry.
struct Entry {
    body: Arc<str>,
    /// Recency tick, also the key into [`Lru::order`].
    tick: u64,
}

/// Fixed accounting overhead per resident entry (map + LRU bookkeeping).
const ENTRY_OVERHEAD: usize = 64;

/// The memory tier: a hash map plus an exact LRU order maintained as a
/// tick → key index (ticks are unique).
#[derive(Default)]
struct Lru {
    map: HashMap<u128, Entry>,
    order: BTreeMap<u64, u128>,
    next_tick: u64,
    bytes: usize,
    evictions: u64,
}

impl Lru {
    fn touch(&mut self, key: u128) -> Option<Arc<str>> {
        let tick = self.next_tick;
        let e = self.map.get_mut(&key)?;
        let old = std::mem::replace(&mut e.tick, tick);
        let body = Arc::clone(&e.body);
        self.order.remove(&old);
        self.order.insert(tick, key);
        self.next_tick += 1;
        Some(body)
    }

    /// Insert (or refresh) an entry, then evict LRU entries past the
    /// budgets.
    fn insert(&mut self, key: u128, body: Arc<str>, max_entries: usize, max_bytes: usize) {
        if let Some(old) = self.map.remove(&key) {
            self.order.remove(&old.tick);
            self.bytes -= old.body.len() + ENTRY_OVERHEAD;
        }
        let tick = self.next_tick;
        self.next_tick += 1;
        self.bytes += body.len() + ENTRY_OVERHEAD;
        self.map.insert(key, Entry { body, tick });
        self.order.insert(tick, key);
        // Always keep the entry just inserted, even if it alone exceeds
        // the byte budget — the cache must be able to serve it.
        while self.map.len() > 1
            && (self.map.len() > max_entries.max(1) || self.bytes > max_bytes)
        {
            let (_, victim) = self.order.pop_first().expect("order tracks every entry");
            let e = self.map.remove(&victim).expect("map tracks every entry");
            self.bytes -= e.body.len() + ENTRY_OVERHEAD;
            self.evictions += 1;
        }
    }
}

/// The two-tier content-addressed cache (see module docs).
pub struct CompileCache {
    cfg: CacheConfig,
    mem: Mutex<Lru>,
    mem_hits: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
    disk_errors: AtomicU64,
    recovery: Mutex<RecoveryReport>,
}

impl std::fmt::Debug for CompileCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompileCache").field("cfg", &self.cfg).finish_non_exhaustive()
    }
}

impl CompileCache {
    /// Build a cache. Creates the disk directory (and parents) when a
    /// disk tier is configured, then runs the crash-recovery sweep
    /// ([`CompileCache::recover`]) over it so a process killed at any
    /// write point leaves nothing a later lookup could mis-serve.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error if the disk directory cannot be created
    /// or scanned. Per-file defects never error — they quarantine.
    pub fn new(cfg: CacheConfig) -> io::Result<CompileCache> {
        if let Some(dir) = &cfg.disk_dir {
            std::fs::create_dir_all(dir)?;
        }
        let cache = CompileCache {
            cfg,
            mem: Mutex::new(Lru::default()),
            mem_hits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            disk_errors: AtomicU64::new(0),
            recovery: Mutex::new(RecoveryReport::default()),
        };
        cache.recover()?;
        Ok(cache)
    }

    /// Crash-recovery sweep over the disk tier: every `*.svc` entry is
    /// re-validated (header, key-vs-filename, length, digest) and every
    /// defect quarantined; orphaned `*.svc.tmp.*` files — a crash
    /// between write and rename — are moved aside. Runs automatically at
    /// open; idempotent (a second sweep over a recovered directory finds
    /// nothing). After the sweep, every surviving entry is guaranteed to
    /// serve byte-exact content.
    ///
    /// # Errors
    ///
    /// Only if the directory itself cannot be listed; per-file problems
    /// quarantine and continue.
    pub fn recover(&self) -> io::Result<RecoveryReport> {
        let Some(dir) = &self.cfg.disk_dir else { return Ok(RecoveryReport::default()) };
        let mut report = RecoveryReport::default();
        let mut paths: Vec<PathBuf> =
            std::fs::read_dir(dir)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
        paths.sort(); // deterministic sweep order for logs and tests
        for path in paths {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("").to_string();
            if name.ends_with(".quarantined") {
                continue; // already moved aside by an earlier sweep
            }
            if name.contains(".svc.tmp") {
                // Orphaned temporary: the writer died before its rename.
                // The entry was never visible, so this is cleanup, not
                // corruption.
                report.orphans += 1;
                let aside = path.with_file_name(format!("{name}.quarantined"));
                let moved =
                    std::fs::rename(&path, &aside).is_ok() || std::fs::remove_file(&path).is_ok();
                eprintln!(
                    "sv-core: cache: recovery quarantined orphaned tmp {}{}",
                    path.display(),
                    if moved { "" } else { " [could not move aside]" }
                );
                continue;
            }
            if !name.ends_with(".svc") {
                continue; // foreign file; not ours to touch
            }
            report.scanned += 1;
            let defect = match name.trim_end_matches(".svc").parse::<CanonicalHash>() {
                Err(e) => Some(format!("unparseable key in filename: {e}")),
                Ok(key) => match std::fs::read_to_string(&path) {
                    Err(e) => Some(format!("unreadable: {e}")),
                    Ok(text) => validate_disk_entry(&text, key).err(),
                },
            };
            if let Some(reason) = defect {
                report.quarantined += 1;
                self.quarantine(&path, &format!("recovery sweep: {reason}"));
            }
        }
        if report.quarantined + report.orphans > 0 {
            eprintln!(
                "sv-core: cache: recovery swept {} entries, quarantined {} corrupt, \
                 {} orphaned tmp files",
                report.scanned, report.quarantined, report.orphans
            );
        }
        let mut slot = self.recovery.lock().expect("recovery report poisoned");
        slot.scanned += report.scanned;
        slot.quarantined += report.quarantined;
        slot.orphans += report.orphans;
        Ok(report)
    }

    /// What the open-time recovery sweep(s) found, cumulatively.
    pub fn recovery(&self) -> RecoveryReport {
        *self.recovery.lock().expect("recovery report poisoned")
    }

    /// An in-memory-only cache with default sizing.
    pub fn in_memory() -> CompileCache {
        CompileCache::new(CacheConfig::default()).expect("no disk tier, cannot fail")
    }

    fn mem(&self) -> std::sync::MutexGuard<'_, Lru> {
        self.mem.lock().expect("memory tier poisoned")
    }

    /// Insert into the memory tier under the configured budgets.
    fn mem_insert(&self, key: CanonicalHash, body: Arc<str>) {
        self.mem().insert(key.0, body, self.cfg.mem_entries, self.cfg.mem_bytes);
    }

    /// Look `key` up in memory, then disk. A disk hit is promoted into
    /// the memory tier. Does **not** count a miss — only
    /// [`CompileCache::lookup`]'s callers know whether a compile follows.
    fn lookup_inner(&self, key: CanonicalHash) -> Option<(Arc<str>, CacheOutcome)> {
        let hit = self.mem().touch(key.0);
        if let Some(body) = hit {
            self.mem_hits.fetch_add(1, Ordering::Relaxed);
            return Some((body, CacheOutcome::Memory));
        }
        let body = self.disk_read(key)?;
        self.disk_hits.fetch_add(1, Ordering::Relaxed);
        self.mem_insert(key, Arc::clone(&body));
        Some((body, CacheOutcome::Disk))
    }

    /// Look `key` up in both tiers, counting a miss when absent.
    pub fn lookup(&self, key: CanonicalHash) -> Option<(Arc<str>, CacheOutcome)> {
        let r = self.lookup_inner(key);
        if r.is_none() {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        r
    }

    /// Insert a freshly rendered result: memory tier always, disk tier
    /// when configured (write-through). Disk write failures are logged
    /// and counted, never surfaced — the cache is an accelerator.
    pub fn insert(&self, key: CanonicalHash, body: Arc<str>) {
        self.mem_insert(key, Arc::clone(&body));
        if let Err(e) = self.disk_write(key, &body) {
            self.disk_errors.fetch_add(1, Ordering::Relaxed);
            eprintln!("sv-core: cache: disk write for {key} failed: {e} (entry stays in memory)");
        }
    }

    /// Current counters and occupancy.
    pub fn stats(&self) -> CacheStats {
        let (evictions, entries, bytes) = {
            let mem = self.mem();
            (mem.evictions, mem.map.len() as u64, mem.bytes as u64)
        };
        let rec = self.recovery();
        CacheStats {
            mem_hits: self.mem_hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions,
            disk_errors: self.disk_errors.load(Ordering::Relaxed),
            recovered: rec.quarantined + rec.orphans,
            entries,
            bytes,
        }
    }

    /// The disk path of a key's entry.
    fn entry_path(&self, key: CanonicalHash) -> Option<PathBuf> {
        self.cfg.disk_dir.as_ref().map(|d| d.join(format!("{key}.svc")))
    }

    /// Read and validate a disk entry. Any defect — bad magic, key
    /// mismatch, length mismatch, checksum mismatch, unreadable file —
    /// quarantines the entry and returns `None` (the caller recompiles).
    fn disk_read(&self, key: CanonicalHash) -> Option<Arc<str>> {
        let path = self.entry_path(key)?;
        if self.cfg.faults.as_ref().is_some_and(|f| f.read_fault(key)) {
            // An injected read failure behaves exactly like a real one:
            // the entry is set aside and the request recompiles (the
            // write-through then restores a good copy).
            if path.exists() {
                self.quarantine(&path, "injected read fault");
            }
            return None;
        }
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return None,
            Err(e) => {
                self.quarantine(&path, &format!("unreadable: {e}"));
                return None;
            }
        };
        match validate_disk_entry(&text, key) {
            Ok(body) => Some(Arc::from(body)),
            Err(reason) => {
                self.quarantine(&path, &reason);
                None
            }
        }
    }

    /// Move a defective disk entry aside (or delete it if the move
    /// fails), log one line, and count it. Never errors the request.
    fn quarantine(&self, path: &Path, reason: &str) {
        self.disk_errors.fetch_add(1, Ordering::Relaxed);
        let aside = path.with_extension("svc.quarantined");
        let moved = std::fs::rename(path, &aside).is_ok() || std::fs::remove_file(path).is_ok();
        eprintln!(
            "sv-core: cache: quarantined corrupt disk entry {} ({reason}){}; recompiling",
            path.display(),
            if moved { "" } else { " [could not move aside]" }
        );
    }

    /// Write-through one entry: checksummed header + body, written to a
    /// temporary file and renamed into place so readers never observe a
    /// partial entry. A configured fault injector can override the write
    /// with an error, a torn (partial, non-atomic) write, or an orphaned
    /// temporary — the crash shapes [`CompileCache::recover`] and read
    /// validation must absorb.
    fn disk_write(&self, key: CanonicalHash, body: &str) -> io::Result<()> {
        let Some(path) = self.entry_path(key) else { return Ok(()) };
        let rendered = render_disk_entry(key, body);
        let tmp = path.with_extension(format!("svc.tmp.{}", std::process::id()));
        let fault = self
            .cfg
            .faults
            .as_ref()
            .map_or(WriteFault::None, |f| f.write_fault(key, rendered.len()));
        match fault {
            WriteFault::None => {
                std::fs::write(&tmp, rendered)?;
                std::fs::rename(&tmp, &path)
            }
            WriteFault::Error => {
                Err(io::Error::other("injected disk write fault"))
            }
            WriteFault::Torn { keep } => {
                // Crash mid-write with no atomic rename: a prefix lands on
                // the final path. Deliberately *silent* — the defect must
                // be caught by validation, not by the writer.
                let keep = keep.min(rendered.len());
                std::fs::write(&path, &rendered.as_bytes()[..keep])?;
                Ok(())
            }
            WriteFault::OrphanTmp => {
                // Crash between write and rename: tmp file left behind,
                // entry never visible.
                std::fs::write(&tmp, rendered)?;
                Ok(())
            }
        }
    }
}

/// Checksum used by the disk-entry header (content digest of the body).
fn body_digest(body: &str) -> CanonicalHash {
    let mut h = CanonicalHasher::new();
    h.section(body.as_bytes());
    h.finish()
}

/// Serialize one disk entry: `svcache/v1 <key> <len> <digest>\n<body>`.
fn render_disk_entry(key: CanonicalHash, body: &str) -> String {
    format!("{DISK_MAGIC} {key} {} {}\n{body}", body.len(), body_digest(body))
}

/// Parse and validate a disk entry, returning the body on success and a
/// human-readable defect description otherwise.
fn validate_disk_entry(text: &str, key: CanonicalHash) -> Result<String, String> {
    let (header, body) = text.split_once('\n').ok_or("missing header line")?;
    let mut parts = header.split(' ');
    if parts.next() != Some(DISK_MAGIC) {
        return Err(format!("bad magic in `{header}`"));
    }
    let stored_key: CanonicalHash =
        parts.next().ok_or("missing key")?.parse().map_err(|e| format!("bad key: {e}"))?;
    if stored_key != key {
        return Err(format!("key mismatch: entry says {stored_key}, expected {key}"));
    }
    let len: usize = parts
        .next()
        .ok_or("missing length")?
        .parse()
        .map_err(|e| format!("bad length: {e}"))?;
    if body.len() != len {
        return Err(format!("length mismatch: header says {len}, body is {}", body.len()));
    }
    let digest: CanonicalHash = parts
        .next()
        .ok_or("missing digest")?
        .parse()
        .map_err(|e| format!("bad digest: {e}"))?;
    if body_digest(body) != digest {
        return Err("checksum mismatch".into());
    }
    Ok(body.to_string())
}

/// Render the canonical, fully deterministic result of one compilation as
/// a single-line JSON object — the value [`compile_cached`] stores and
/// returns. Contains the delivered strategy, fallback provenance,
/// boundary-check count, the priced outcome, the deterministic
/// [`crate::PassStats`] counters (the `*_ns` wall times are excluded so
/// identical requests render identical bytes), and a re-parseable
/// `Display` dump of every scheduled segment (main + cleanup).
pub fn render_result(
    key: CanonicalHash,
    m: &MachineConfig,
    c: &CompiledLoop,
    report: &CompilationReport,
) -> String {
    let s = &report.stats;
    let mut out = String::with_capacity(1024);
    let _ = write!(
        out,
        "{{\"key\":\"{key}\",\"loop\":\"{}\",\"machine\":\"{}\",\"requested\":\"{}\",\
         \"delivered\":\"{}\",\"fallbacks\":",
        json_escape(&c.source.name),
        json_escape(&m.name),
        report.requested,
        report.delivered,
    );
    write_fallbacks(&mut out, &report.fallbacks);
    let iis: Vec<String> = s.iis_tried.iter().map(|ii| ii.to_string()).collect();
    let _ = write!(
        out,
        ",\"boundary_checks\":{},\"ii_per_orig\":{:.4},\"resmii_per_orig\":{:.4},\
         \"cycles\":{},\"kl_passes\":{},\"kl_probes\":{},\"kl_moves\":{},\"bin_packs\":{},\
         \"schedules\":{},\"iis_tried\":[{}],\"max_live\":[{},{},{},{}],\"segments\":[",
        report.boundary_checks,
        c.ii_per_original_iteration(),
        c.resmii_per_original_iteration(),
        c.total_cycles(m),
        s.kl_passes,
        s.kl_probes,
        s.kl_moves,
        s.bin_packs,
        s.schedules,
        iis.join(","),
        s.max_live[0],
        s.max_live[1],
        s.max_live[2],
        s.max_live[3],
    );
    for (i, seg) in c.segments.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}{{\"ii\":{},\"stages\":{},\"registers\":{},\"dump\":\"{}\"",
            seg.schedule.ii,
            seg.schedule.stage_count,
            seg.registers.is_some(),
            json_escape(&seg.looop.to_string()),
        );
        match &seg.cleanup {
            Some((cl, cs)) => {
                let _ = write!(
                    out,
                    ",\"cleanup_ii\":{},\"cleanup_dump\":\"{}\"}}",
                    cs.ii,
                    json_escape(&cl.to_string())
                );
            }
            None => out.push('}'),
        }
    }
    out.push_str("]}");
    out
}

/// [`crate::compile_checked`] behind the two-tier cache: compute the
/// [`request_key`], serve from memory or disk when present, otherwise
/// compile, render the canonical result, and write it through both tiers.
/// Returns the rendered result and where it came from.
///
/// Compile *errors* are not cached: pathological inputs re-diagnose on
/// every request (they are rare and their diagnosis is the product).
/// `deadline` is not part of the key; it stops an optimal-II search.
///
/// # Errors
///
/// [`crate::compile_checked`]'s errors, and
/// [`CompileError::DeadlineExceeded`]; the cache itself never fails a
/// request.
pub fn compile_cached(
    l: &Loop,
    m: &MachineConfig,
    cfg: &DriverConfig,
    cache: &CompileCache,
    deadline: Option<Instant>,
) -> Result<(Arc<str>, CacheOutcome), CompileError> {
    let key = request_key(l, m, cfg);
    if let Some(hit) = cache.lookup(key) {
        return Ok(hit);
    }
    let (c, report) = compile_until(l, m, cfg, deadline)?;
    let body: Arc<str> = Arc::from(render_result(key, m, &c, &report));
    cache.insert(key, Arc::clone(&body));
    Ok((body, CacheOutcome::Compiled))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile_checked;
    use crate::pipeline::Strategy;
    use sv_ir::{LoopBuilder, ScalarType};

    fn dot(name: &str) -> Loop {
        let mut b = LoopBuilder::new(name);
        b.trip(100);
        let x = b.array("x", ScalarType::F64, 128);
        let y = b.array("y", ScalarType::F64, 128);
        let lx = b.load(x, 1, 0);
        let ly = b.load(y, 1, 0);
        let m = b.fmul(lx, ly);
        b.reduce_add(m);
        b.finish()
    }

    #[test]
    fn memory_round_trip_and_counters() {
        let cache = CompileCache::in_memory();
        let m = MachineConfig::figure1();
        let cfg = DriverConfig::default();
        let l = dot("dot");
        let (cold, o1) = compile_cached(&l, &m, &cfg, &cache, None).unwrap();
        assert_eq!(o1, CacheOutcome::Compiled);
        let (warm, o2) = compile_cached(&l, &m, &cfg, &cache, None).unwrap();
        assert_eq!(o2, CacheOutcome::Memory);
        assert_eq!(cold, warm, "warm result must be byte-identical");
        let st = cache.stats();
        assert_eq!(st.mem_hits, 1);
        assert_eq!(st.misses, 1);
        assert_eq!(st.entries, 1);
        assert!(st.bytes > 0);
        assert!((st.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn key_separates_machines_configs_and_loops() {
        let l = dot("dot");
        let cfg = DriverConfig::default();
        let paper = MachineConfig::paper_default();
        let fig1 = MachineConfig::figure1();
        assert_ne!(request_key(&l, &paper, &cfg), request_key(&l, &fig1, &cfg));
        let full = DriverConfig::for_strategy(Strategy::Full);
        assert_ne!(request_key(&l, &paper, &cfg), request_key(&l, &paper, &full));
        assert_ne!(request_key(&l, &paper, &cfg), request_key(&dot("dot2"), &paper, &cfg));
    }

    #[test]
    fn key_separates_predicated_loop_from_select_free_cousin() {
        // A clip kernel and its select-free cousin (identical loads and
        // store, no cmp/select between them) must never share a cache
        // entry: the predicated ops are part of the loop's canonical
        // form, so the v3 keys differ.
        let clip = |predicated: bool| {
            let mut b = LoopBuilder::new("clip");
            b.trip(100);
            let x = b.array("x", ScalarType::F64, 128);
            let y = b.array("y", ScalarType::F64, 128);
            let lx = b.load(x, 1, 0);
            let v = if predicated {
                let c = b.cmp(
                    sv_ir::CmpPred::Lt,
                    ScalarType::F64,
                    sv_ir::Operand::def(lx),
                    sv_ir::Operand::ConstF(1.0),
                );
                b.select(
                    ScalarType::F64,
                    sv_ir::Operand::def(c),
                    sv_ir::Operand::def(lx),
                    sv_ir::Operand::ConstF(1.0),
                )
            } else {
                lx
            };
            b.store(y, 1, 0, v);
            b.finish()
        };
        let m = MachineConfig::paper_default();
        let cfg = DriverConfig::default();
        assert_ne!(
            request_key(&clip(true), &m, &cfg),
            request_key(&clip(false), &m, &cfg)
        );
    }

    #[test]
    fn v3_keys_differ_from_v2_for_identical_requests() {
        // The schema bump alone must invalidate every v2 entry: the same
        // loop, machine and config hashed under the old tag may not
        // collide with today's key (old disk tiers describe results a v3
        // compiler would not reproduce — machines now carry select
        // dimensions).
        let l = dot("dot");
        let m = MachineConfig::paper_default();
        let cfg = DriverConfig::default();
        let v2 = l.canonical_hash(&["sv-core/cache/v2", &m.to_spec(), &cfg.canonical_encoding()]);
        assert_ne!(request_key(&l, &m, &cfg), v2);
    }

    #[test]
    fn key_separates_optimal_from_every_other_strategy() {
        // `optimal` can deliver a different schedule than `selective` for
        // the same loop, so its cache key must be distinct from every
        // other strategy's (the canonical encoding carries
        // `Strategy::canonical_name`).
        let l = dot("dot");
        let paper = MachineConfig::paper_default();
        let opt = DriverConfig::for_strategy(Strategy::Optimal);
        let opt_key = request_key(&l, &paper, &opt);
        for s in Strategy::ALL {
            if s == Strategy::Optimal {
                continue;
            }
            let other = DriverConfig::for_strategy(s);
            assert_ne!(
                opt_key,
                request_key(&l, &paper, &other),
                "optimal key collides with {s}"
            );
        }
        assert!(opt.canonical_encoding().contains("optimal"));
    }

    #[test]
    fn lru_evicts_by_entry_budget() {
        let cache = CompileCache::new(CacheConfig {
            mem_entries: 2,
            mem_bytes: usize::MAX >> 1,
            disk_dir: None,
            faults: None,
        })
        .unwrap();
        for i in 0..3 {
            cache.insert(CanonicalHash(i), Arc::from(format!("body{i}").as_str()));
        }
        let st = cache.stats();
        assert_eq!(st.entries, 2);
        assert_eq!(st.evictions, 1);
        // Key 0 was least recently used and must be gone; 1 and 2 remain.
        assert!(cache.lookup(CanonicalHash(0)).is_none());
        assert!(cache.lookup(CanonicalHash(1)).is_some());
        assert!(cache.lookup(CanonicalHash(2)).is_some());
    }

    #[test]
    fn lru_touch_refreshes_recency() {
        let cache = CompileCache::new(CacheConfig {
            mem_entries: 2,
            mem_bytes: usize::MAX >> 1,
            disk_dir: None,
            faults: None,
        })
        .unwrap();
        cache.insert(CanonicalHash(1), Arc::from("a"));
        cache.insert(CanonicalHash(2), Arc::from("b"));
        assert!(cache.lookup(CanonicalHash(1)).is_some()); // 1 now MRU
        cache.insert(CanonicalHash(3), Arc::from("c")); // evicts 2
        assert!(cache.lookup(CanonicalHash(1)).is_some());
        assert!(cache.lookup(CanonicalHash(2)).is_none());
        assert!(cache.lookup(CanonicalHash(3)).is_some());
    }

    #[test]
    fn evictions_follow_global_recency_across_any_key_spread() {
        // Four of the six keys share their residue mod 16, so a tier
        // striped by `key % 16` would have crowded them into one stripe.
        // One LRU evicts by recency alone, whatever the keys.
        let cache = CompileCache::new(CacheConfig {
            mem_entries: 4,
            mem_bytes: usize::MAX >> 1,
            disk_dir: None,
            faults: None,
        })
        .unwrap();
        for k in [16, 32, 1] {
            cache.insert(CanonicalHash(k), Arc::from(format!("body{k}").as_str()));
        }
        assert!(cache.lookup(CanonicalHash(16)).is_some()); // 16 now MRU
        for k in [48, 64, 2] {
            cache.insert(CanonicalHash(k), Arc::from(format!("body{k}").as_str()));
        }
        let st = cache.stats();
        assert_eq!((st.entries, st.evictions), (4, 2));
        // 32 and then 1 were least recently used.
        for (k, resident) in [(32, false), (1, false), (16, true), (48, true), (64, true), (2, true)]
        {
            assert_eq!(cache.lookup(CanonicalHash(k)).is_some(), resident, "key {k}");
        }
    }

    #[test]
    fn byte_budget_evicts_but_keeps_newest() {
        let cache = CompileCache::new(CacheConfig {
            mem_entries: usize::MAX >> 1,
            mem_bytes: 2 * (ENTRY_OVERHEAD + 8),
            disk_dir: None,
            faults: None,
        })
        .unwrap();
        cache.insert(CanonicalHash(1), Arc::from("12345678"));
        cache.insert(CanonicalHash(2), Arc::from("12345678"));
        assert_eq!(cache.stats().entries, 2);
        // A huge entry exceeds the whole budget alone but must survive.
        cache.insert(CanonicalHash(3), Arc::from("x".repeat(4096).as_str()));
        let st = cache.stats();
        assert_eq!(st.entries, 1);
        assert!(cache.lookup(CanonicalHash(3)).is_some());
    }

    #[test]
    fn disk_entry_validation_rejects_tampering() {
        let key = CanonicalHash(42);
        let good = render_disk_entry(key, "hello world");
        assert_eq!(validate_disk_entry(&good, key).unwrap(), "hello world");
        // Wrong expected key.
        assert!(validate_disk_entry(&good, CanonicalHash(43)).is_err());
        // Flipped body byte.
        let bad = good.replace("hello", "jello");
        assert!(validate_disk_entry(&bad, key).is_err());
        // Truncation.
        assert!(validate_disk_entry(&good[..good.len() - 1], key).is_err());
        // Garbage.
        assert!(validate_disk_entry("nonsense", key).is_err());
    }

    #[test]
    fn render_result_is_deterministic_single_line_json() {
        let l = dot("dot");
        let m = MachineConfig::figure1();
        let cfg = DriverConfig::default();
        let key = request_key(&l, &m, &cfg);
        let (c, report) = compile_checked(&l, &m, &cfg).unwrap();
        let a = render_result(key, &m, &c, &report);
        // A second compile renders byte-identically: no wall-clock fields.
        let (c2, report2) = compile_checked(&l, &m, &cfg).unwrap();
        assert_eq!(a, render_result(key, &m, &c2, &report2));
        assert!(!a.contains('\n'), "single line: {a}");
        assert!(a.contains("\"ii_per_orig\":1.0000"), "{a}");
        assert!(a.contains("\"dump\":\"loop "), "{a}");
        // The dump re-parses.
        let dump_at = a.find("\"dump\":\"").unwrap() + 8;
        let dump_end = a[dump_at..].find("\",\"").unwrap() + dump_at;
        let dump = a[dump_at..dump_end].replace("\\n", "\n").replace("\\\"", "\"");
        sv_ir::parse_loop(&dump).expect("segment dump re-parses");
    }
}
