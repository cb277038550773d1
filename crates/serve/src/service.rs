//! Request execution: decode → cache-fronted compile → canonical body.

use crate::faults::{CompileFault, FaultPlan};
use crate::proto::{CompileRequest, ServeError};
use std::sync::Arc;
use std::time::Instant;
use sv_core::{compile_cached, CacheConfig, CacheOutcome, CompileCache};
use sv_machine::MachineRegistry;

/// The stateless-per-request core of the server: a [`CompileCache`] plus
/// the machine registry and the decode/compile/render path. Shared
/// across connections and worker threads behind an `Arc`.
#[derive(Debug)]
pub struct ServeService {
    cache: CompileCache,
    registry: MachineRegistry,
    faults: Option<Arc<FaultPlan>>,
}

impl ServeService {
    /// Build a service around a cache with the given sizing/placement,
    /// resolving machine names against the builtin registry.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error if the disk tier's directory cannot be
    /// created.
    pub fn new(cache_cfg: CacheConfig) -> std::io::Result<ServeService> {
        ServeService::with_registry(cache_cfg, MachineRegistry::builtin())
    }

    /// [`ServeService::new`] with an explicit registry (builtins plus
    /// `--machines`-dir entries, or a fully custom set in tests).
    ///
    /// # Errors
    ///
    /// As [`ServeService::new`].
    pub fn with_registry(
        cache_cfg: CacheConfig,
        registry: MachineRegistry,
    ) -> std::io::Result<ServeService> {
        Ok(ServeService { cache: CompileCache::new(cache_cfg)?, registry, faults: None })
    }

    /// A service with a default in-memory-only cache and the builtin
    /// registry.
    pub fn in_memory() -> ServeService {
        ServeService {
            cache: CompileCache::in_memory(),
            registry: MachineRegistry::builtin(),
            faults: None,
        }
    }

    /// Attach a chaos fault plan: each [`ServeService::compile_body`]
    /// call consults it and may panic (to be caught by the batcher's
    /// per-entry isolation) or stall. The same plan should be installed
    /// as the cache's [`sv_core::DiskFaults`] injector via
    /// [`CacheConfig::faults`] so one seed drives the whole run.
    pub fn set_faults(&mut self, plan: Arc<FaultPlan>) {
        self.faults = Some(plan);
    }

    /// Execute one compile request: parse the loop text, resolve machine
    /// (registry name or inline spec) and driver configuration, and run
    /// the cache-fronted compile. The returned body is the canonical
    /// result rendering — byte-identical for identical requests
    /// regardless of which tier served it, and byte-identical between a
    /// registered name and an inline spec describing the same machine
    /// (the cache key is built from the machine's canonical encoding).
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] for unparseable loop text, an unknown
    /// machine or a malformed inline spec, [`ServeError::Compile`] when
    /// the driver rejects the loop.
    pub fn compile_body(
        &self,
        req: &CompileRequest,
    ) -> Result<(Arc<str>, CacheOutcome), ServeError> {
        self.compile_until(req, None)
    }

    /// [`ServeService::compile_body`] under the request's deadline.
    pub(crate) fn compile_until(
        &self,
        req: &CompileRequest,
        deadline: Option<Instant>,
    ) -> Result<(Arc<str>, CacheOutcome), ServeError> {
        if let Some(plan) = &self.faults {
            match plan.compile_fault() {
                CompileFault::None => {}
                CompileFault::Panic => {
                    // Injected poison: must be contained by the batcher's
                    // per-entry catch_unwind, answering only this request.
                    panic!("injected compile panic (chaos fault plan)");
                }
                CompileFault::Slow(d) => std::thread::sleep(d),
            }
        }
        let looop = sv_ir::parse_loop(&req.loop_text).map_err(|e| ServeError::BadRequest {
            message: format!("unparseable loop text: {e}"),
        })?;
        let machine = req.machine_config(&self.registry)?;
        let cfg = req.driver_config();
        compile_cached(&looop, &machine, &cfg, &self.cache, deadline)
            .map_err(|e| ServeError::Compile(Box::new(e)))
    }

    /// The underlying cache (stats, direct seeding in tests).
    pub fn cache(&self) -> &CompileCache {
        &self.cache
    }

    /// The machine registry requests resolve against.
    pub fn registry(&self) -> &MachineRegistry {
        &self.registry
    }

    /// Render the `machines` verb's result object: every registered
    /// machine in sorted name order with its canonical hash and source.
    pub fn machines_object(&self) -> String {
        let entries: Vec<String> = self
            .registry
            .iter()
            .map(|(name, m, source)| {
                format!(
                    "{{\"name\":\"{}\",\"machine\":\"{}\",\"hash\":\"{}\",\"source\":\"{}\"}}",
                    crate::json::escape(name),
                    crate::json::escape(&m.name),
                    m.canonical_hash(),
                    crate::json::escape(&source.to_string()),
                )
            })
            .collect();
        format!("{{\"machines\":[{}]}}", entries.join(","))
    }

    /// Render the `stats` verb's `cache` sub-object.
    pub fn stats_object(&self) -> String {
        let s = self.cache.stats();
        format!(
            "{{\"mem_hits\":{},\"disk_hits\":{},\"misses\":{},\"evictions\":{},\
             \"disk_errors\":{},\"recovered\":{},\"entries\":{},\"bytes\":{},\
             \"hit_rate\":{:.4}}}",
            s.mem_hits,
            s.disk_hits,
            s.misses,
            s.evictions,
            s.disk_errors,
            s.recovered,
            s.entries,
            s.bytes,
            s.hit_rate()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sv_core::Strategy;
    use sv_machine::MachineConfig;
    use sv_workloads::benchmark;

    fn req_for(loop_text: String) -> CompileRequest {
        CompileRequest { loop_text, ..CompileRequest::default() }
    }

    #[test]
    fn compiles_suite_loop_and_caches() {
        let svc = ServeService::in_memory();
        let suite = benchmark("swim").expect("suite benchmark exists");
        let req = req_for(suite.loops[0].to_string());
        let (cold, o1) = svc.compile_body(&req).unwrap();
        assert_eq!(o1, CacheOutcome::Compiled);
        let (warm, o2) = svc.compile_body(&req).unwrap();
        assert_eq!(o2, CacheOutcome::Memory);
        assert_eq!(cold, warm);
        assert!(svc.stats_object().contains("\"mem_hits\":1"));
    }

    #[test]
    fn rejects_bad_loop_text_and_machine() {
        let svc = ServeService::in_memory();
        let e = svc.compile_body(&req_for("not a loop".into())).unwrap_err();
        assert_eq!(e.kind(), "bad_request");
        let suite = benchmark("swim").unwrap();
        let mut req = req_for(suite.loops[0].to_string());
        req.machine = "toaster".into();
        let e = svc.compile_body(&req).unwrap_err();
        assert_eq!(e.kind(), "bad_request");
        assert!(e.to_string().contains("figure1, paper"), "{e}");
    }

    #[test]
    fn a_machine_missing_a_unit_class_gets_a_typed_answer_never_internal() {
        let svc = ServeService::in_memory();
        let suite = benchmark("swim").unwrap();
        // The answer line a wire request with an inline spec gets.
        let answer = |spec: &str, strategy: &str| {
            let line = CompileRequest {
                machine_spec: Some(spec.into()),
                ..req_for(suite.loops[0].to_string())
            }
            .to_wire(7)
            .replace("\"strategy\":\"selective\"", &format!("\"strategy\":\"{strategy}\""));
            let req = crate::proto::parse_request(&line).unwrap();
            let crate::Request::Compile { req, .. } = req else { panic!("{line}") };
            match svc.compile_body(&req) {
                Ok((body, _)) => crate::proto::ok_response(7, &body),
                Err(e) => crate::proto::error_response(7, &e),
            }
        };
        for (key, class) in [("mem_units", "mem"), ("issue_width", "issue")] {
            for strategy in Strategy::ALL {
                let line = answer(&format!("{key} = 0\n"), strategy.canonical_name());
                assert!(line.contains("\"kind\":\"compile\""), "{line}");
                assert!(line.contains(&format!("no {class} unit")), "{line}");
                assert!(!line.contains("internal"), "{line}");
            }
        }
        for key in ["vector_units", "merge_units"] {
            let line = answer(&format!("{key} = 0\n"), "full");
            assert!(line.contains("\"ok\":true"), "{line}");
            assert!(line.contains("\"delivered\":\"modulo\""), "{line}");
            assert!(line.contains("\"to\":\"modulo\",\"pass\":\"schedule\""), "{line}");
            assert!(!line.contains("\"pass\":\"boundary\""), "a contained panic: {line}");
            assert!(!line.contains("internal"), "{line}");
        }
    }

    #[test]
    fn inline_spec_equal_to_builtin_hits_the_same_cache_entry() {
        let svc = ServeService::in_memory();
        let suite = benchmark("swim").unwrap();
        let named = req_for(suite.loops[0].to_string());
        let (by_name, o1) = svc.compile_body(&named).unwrap();
        assert_eq!(o1, CacheOutcome::Compiled);
        // A reformatted inline spec of the same machine must be a warm
        // memory hit with byte-identical body: the v2 cache key is built
        // from the canonical machine encoding, not the request's text.
        let spec = MachineConfig::paper_default().to_spec();
        let ugly = format!("# inline copy\n{}", spec.replace(" = ", "   =   "));
        let inline =
            CompileRequest { machine_spec: Some(ugly), ..req_for(suite.loops[0].to_string()) };
        let (by_spec, o2) = svc.compile_body(&inline).unwrap();
        assert_eq!(o2, CacheOutcome::Memory);
        assert_eq!(by_name, by_spec);
    }

    #[test]
    fn machines_object_lists_registry_with_hashes() {
        let svc = ServeService::in_memory();
        let out = svc.machines_object();
        let fig_hash = MachineConfig::figure1().canonical_hash().to_string();
        let paper_hash = MachineConfig::paper_default().canonical_hash().to_string();
        assert!(
            out.starts_with("{\"machines\":[{\"name\":\"figure1\""),
            "sorted name order: {out}"
        );
        assert!(out.contains(&fig_hash), "{out}");
        assert!(out.contains(&paper_hash), "{out}");
        assert!(out.contains("\"source\":\"builtin\""), "{out}");
        assert!(out.contains("\"machine\":\"micro05-table1\""), "{out}");
    }
}
