//! The bounded multi-tenant request queue, its batching drainer, and the
//! drainer's supervisor.
//!
//! Every connection is a registered **client** with its own FIFO
//! sub-queue; one drainer thread serves them all:
//!
//! * admission is **fair**: the global compile weight is capped
//!   by [`BatchConfig::queue_cap`], and each registered client is capped
//!   at an equal share of that capacity (never below one slot; the
//!   default client takes a share only while it has queued work), so a
//!   greedy connection fills only its own quota and is
//!   rejected with a typed [`ServeError::Overloaded`] — carrying a
//!   `retry_after_ms` hint computed from live queue depth — while other
//!   clients keep being admitted;
//! * the drainer gathers compile runs **round-robin** across client
//!   sub-queues (one item per client per cycle), so service order is
//!   fair while each client's own responses still arrive in its
//!   submission order. The moment it is free it takes whatever is
//!   queued, up to [`BatchConfig::batch_max`] compiles; a client stops
//!   contributing at its first non-compile verb, which runs on its own
//!   next. No timer holds work back for companions: the drainer waits
//!   only while the queue is empty;
//! * a gathered run fans out onto [`sv_core::parallel::run_ordered`],
//!   which preserves the workspace's determinism guarantee: the worker
//!   count never changes response bytes or order;
//! * a deadline that is already expired at admission is rejected
//!   immediately so it never occupies queue weight;
//! * `machines`, `stats`, `metrics` and `shutdown` ride the same queue,
//!   so a `stats` response reflects every request the same client
//!   submitted before it, deterministically.
//!
//! Single-stream front-ends (stdio, in-process tests) submit as the
//! always-registered [`DEFAULT_CLIENT`], whose quota is then the whole
//! queue — the pre-multi-tenant behavior, byte for byte.
//!
//! Each submission is queued as the decoded [`Request`] itself, behind
//! one `Arc`: the client sub-queue, the in-flight ledger and the drainer
//! share it, so no request body is copied between admission and its
//! response.
//!
//! ## Fault containment
//!
//! Each compile runs under `catch_unwind`: a poisoned request
//! answers *itself* with a typed `internal` error instead of killing the
//! batch. The drainer itself runs under a **supervisor** thread that
//! holds the exactly-once response invariant: work the drainer has taken
//! off the queue sits in an *in-flight* ledger until the moment its
//! response has been written, so when the drainer dies mid-batch the
//! supervisor logs a typed `drainer_restart` event, re-queues precisely
//! the unanswered in-flight items (in order, at the queue front) and
//! respawns the drainer — no response is lost, none is duplicated. A
//! drainer that keeps dying without making progress is declared dead
//! after [`MAX_FRUITLESS_RESTARTS`] consecutive fruitless respawns; the
//! supervisor then fails every pending request with a typed `internal`
//! error and [`Batcher::join`] reports the failure, still typed, still
//! without killing the process.
//!
//! Responses are written to each request's sink in submission order by
//! the drainer thread alone, so per-connection output order always
//! matches input order.

use crate::faults::FaultPlan;
use crate::metrics::PhaseLatencies;
use crate::proto::{
    batch_response, error_object, error_response, ok_response, CompileRequest, Request,
    ServeError,
};
use crate::service::ServeService;
use crate::wire::write_line;
use std::collections::{BTreeMap, VecDeque};
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};
use sv_core::panic_message;
use sv_core::parallel::run_ordered;

/// Where a response line goes (stdout, a TCP stream, or a test buffer).
pub type Sink = Arc<Mutex<dyn Write + Send>>;

/// Consecutive drainer respawns without a single response written before
/// the supervisor declares the drainer unrecoverable and fails pending
/// work with typed errors (instead of respawning forever).
pub const MAX_FRUITLESS_RESTARTS: u32 = 8;

/// Lock a mutex, recovering from poison: the supervisor design keeps the
/// queue and ledger consistent at every panic site, so a poisoned lock
/// only means "a drainer died somewhere" — exactly the situation the
/// supervisor exists to handle, never a reason to kill the daemon.
fn lock_recover<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Queue and batching knobs.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Largest compile run the drainer takes at once.
    pub batch_max: usize,
    /// Maximum queued compile weight (one per compile, batch counts its
    /// length); submissions past this are rejected, never buffered.
    pub queue_cap: usize,
    /// Worker threads per run (1 = inline serial).
    pub jobs: usize,
}

impl Default for BatchConfig {
    fn default() -> BatchConfig {
        BatchConfig { batch_max: 32, queue_cap: 1024, jobs: 1 }
    }
}

/// The shared always-registered client identity used by single-stream
/// front-ends (stdio) and in-process callers. Registered at queue
/// construction and never removed, so a single-client
/// batcher behaves exactly like the pre-multi-tenant one: its quota is
/// the whole queue capacity.
pub const DEFAULT_CLIENT: u64 = 0;

/// Queue weight of a request: how many compiles it admits.
fn weight(req: &Request) -> usize {
    match req {
        Request::Compile { .. } => 1,
        Request::Batch { reqs, .. } => reqs.len(),
        Request::Machines { .. }
        | Request::Stats { .. }
        | Request::Metrics { .. }
        | Request::Shutdown { .. } => 0,
    }
}

/// One admitted submission. The sub-queue, the in-flight ledger and the
/// drainer hold clones that share the one decoded request.
#[derive(Clone)]
struct Item {
    req: Arc<Request>,
    out: Sink,
    submitted: Instant,
    /// The registered client that submitted this (fairness accounting
    /// and re-queue targeting after drainer deaths).
    client: u64,
}

impl Item {
    fn is_compile(&self) -> bool {
        matches!(*self.req, Request::Compile { .. })
    }
}

/// One client's private FIFO sub-queue.
struct ClientQ {
    items: VecDeque<Item>,
    /// Queued compile weight charged to this client.
    queued: usize,
    /// Live connections hold `true`; a deregistered client's entry
    /// lingers only until its queued items drain.
    registered: bool,
}

impl ClientQ {
    fn new(registered: bool) -> ClientQ {
        ClientQ { items: VecDeque::new(), queued: 0, registered }
    }
}

struct Queue {
    /// Per-client sub-queues. A `BTreeMap` so round-robin traversal has
    /// a stable, deterministic order.
    clients: BTreeMap<u64, ClientQ>,
    /// Next id handed out by [`Batcher::register_client`].
    next_client: u64,
    /// The last client the drainer took work from; the next gather
    /// starts at the following id (wrapping), which is what makes the
    /// drain round-robin rather than lowest-id-wins.
    rr_cursor: u64,
    /// Sum of queued request weights across all clients.
    weight: usize,
    /// Set by `shutdown` or [`Batcher::close`]; stops admissions, and
    /// the drainer exits once the queue is empty.
    closed: bool,
}

impl Default for Queue {
    fn default() -> Queue {
        let mut clients = BTreeMap::new();
        clients.insert(DEFAULT_CLIENT, ClientQ::new(true));
        Queue {
            clients,
            next_client: 1,
            // One before the smallest id (wrapping), so the first gather
            // starts at the lowest client id.
            rr_cursor: u64::MAX,
            weight: 0,
            closed: false,
        }
    }
}

/// Backoff per batch of queued backlog in a `retry_after_ms` hint.
const RETRY_MS_PER_BATCH: u64 = 2;

impl Queue {
    /// Registered clients, the default one included (the `clients`
    /// gauge).
    fn registered(&self) -> usize {
        self.clients.values().filter(|c| c.registered).count()
    }

    fn register(&mut self) -> u64 {
        let id = self.next_client;
        self.next_client += 1;
        self.clients.insert(id, ClientQ::new(true));
        id
    }

    fn deregister(&mut self, client: u64) {
        if client == DEFAULT_CLIENT {
            return; // the shared identity is permanent
        }
        if let Some(c) = self.clients.get_mut(&client) {
            c.registered = false;
        }
        self.prune(client);
    }

    /// The quota denominator for a submission by `client`: the registered
    /// clients, where the always-registered default client counts only
    /// while it holds queued work or is the one submitting. An idle
    /// default identity takes no share, so a lone connection's quota is
    /// the whole queue.
    fn sharers(&self, client: u64) -> usize {
        let default_idle = client != DEFAULT_CLIENT
            && self.clients.get(&DEFAULT_CLIENT).is_some_and(|c| c.items.is_empty());
        self.registered() - usize::from(default_idle)
    }

    /// Backoff hint for an `overloaded` rejection: roughly how long the
    /// backlog queued ahead needs to drain — [`RETRY_MS_PER_BATCH`] per
    /// batch the backlog fills, never zero so a hinted client always
    /// waits at least a beat.
    fn retry_hint(&self, batch_max: usize) -> u64 {
        ((self.weight / batch_max.max(1)) as u64 + 1) * RETRY_MS_PER_BATCH
    }

    /// Admit `item` to its client's sub-queue, or say why not: the batch
    /// can never fit, the queue is closed, the global weight cap or the
    /// client's fair share of it is reached, or the client is unknown.
    fn admit(&mut self, item: Item, cfg: &BatchConfig) -> Result<(), ServeError> {
        let w = weight(&item.req);
        let cap = cfg.queue_cap;
        if w > cap {
            return Err(ServeError::BadRequest {
                message: format!(
                    "batch of {w} requests exceeds queue_cap {cap} and can never be \
                     admitted; split it into batches of at most {cap}"
                ),
            });
        }
        if self.closed {
            return Err(ServeError::ShuttingDown);
        }
        let retry_after_ms = self.retry_hint(cfg.batch_max);
        if self.weight + w > cap {
            return Err(ServeError::Overloaded { cap, retry_after_ms });
        }
        let client = item.client;
        let sharers = self.sharers(client).max(1);
        let Some(c) = self.clients.get_mut(&client) else {
            return Err(ServeError::Internal {
                message: format!("client {client} is not registered"),
            });
        };
        if !c.registered {
            return Err(ServeError::Internal {
                message: format!("client {client} has deregistered"),
            });
        }
        // An equal share of the capacity, never below one slot so light
        // clients always get in.
        let quota = (cap / sharers).max(1);
        if c.queued + w > quota {
            return Err(ServeError::Overloaded { cap: quota, retry_after_ms });
        }
        c.queued += w;
        c.items.push_back(item);
        self.weight += w;
        Ok(())
    }

    /// Take the next unit of work, or `None` on an empty queue. Clients
    /// are visited round-robin from the one after the last served. If
    /// the first one's head is not a compile, it is taken alone;
    /// otherwise a run of compiles is gathered one per client per cycle,
    /// up to `batch_max`, each client stopping at its first non-compile.
    fn take(&mut self, batch_max: usize) -> Option<Vec<Item>> {
        let order = self.rr_order();
        let &first = order.first()?;
        if !self.clients[&first].items[0].is_compile() {
            return Some(vec![self.pop(first)]);
        }
        // A client that misses once misses for the rest of the gather, so
        // a whole cycle of misses ends it.
        let (mut run, mut misses) = (Vec::new(), 0);
        for &id in order.iter().cycle() {
            if run.len() >= batch_max.max(1) || misses == order.len() {
                break;
            }
            let head = self.clients.get(&id).and_then(|c| c.items.front());
            if head.is_some_and(Item::is_compile) {
                run.push(self.pop(id));
                misses = 0;
            } else {
                misses += 1;
            }
        }
        Some(run)
    }

    /// Pop `id`'s head item, releasing its weight and making `id` the
    /// round-robin cursor.
    fn pop(&mut self, id: u64) -> Item {
        let c = self.clients.get_mut(&id).expect("client with queued work exists");
        let item = c.items.pop_front().expect("client has queued work");
        let w = weight(&item.req);
        c.queued -= w;
        self.weight -= w;
        self.rr_cursor = id;
        self.prune(id);
        item
    }

    /// Clients with queued work, in round-robin order: ids above the
    /// cursor first, then wrap-around.
    fn rr_order(&self) -> Vec<u64> {
        let mut after = Vec::new();
        let mut before = Vec::new();
        for (&id, c) in &self.clients {
            if c.items.is_empty() {
                continue;
            }
            if id > self.rr_cursor { after.push(id) } else { before.push(id) }
        }
        after.extend(before);
        after
    }

    /// Drop a sub-queue whose client has disconnected and fully drained
    /// (the default identity is permanent).
    fn prune(&mut self, id: u64) {
        if id == DEFAULT_CLIENT {
            return;
        }
        if let Some(c) = self.clients.get(&id) {
            if !c.registered && c.items.is_empty() {
                self.clients.remove(&id);
            }
        }
    }
}

/// Counters reported by the `stats` verb's `queue` object.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueueStats {
    /// Requests admitted to the queue.
    pub submitted: u64,
    /// Requests rejected with `overloaded`.
    pub rejected: u64,
    /// Requests rejected at admission because their deadline had already
    /// expired (they never occupy queue weight).
    pub deadline_rejected: u64,
    /// Individual compiles executed (batch members included).
    pub compiles: u64,
    /// Compile runs flushed to the worker pool.
    pub flushes: u64,
    /// Responses written (every taken request gets exactly one).
    pub responses: u64,
    /// Batch-entry panics contained by `catch_unwind` and answered with
    /// a typed `internal` error.
    pub panics_isolated: u64,
    /// Times the supervisor respawned a dead drainer.
    pub drainer_restarts: u64,
    /// In-flight items the supervisor re-queued after drainer deaths.
    pub requeued: u64,
}

impl QueueStats {
    /// The counters `"submitted"` … `"requeued"` as JSON object members,
    /// shared by the `stats` and `metrics` renderings. `responses`
    /// includes the response being rendered, which is not yet counted.
    fn counters_json(&self) -> String {
        format!(
            "\"submitted\":{},\"rejected\":{},\"deadline_rejected\":{},\"compiles\":{},\
             \"flushes\":{},\"responses\":{},\"panics_isolated\":{},\"drainer_restarts\":{},\
             \"requeued\":{}",
            self.submitted,
            self.rejected,
            self.deadline_rejected,
            self.compiles,
            self.flushes,
            self.responses + 1,
            self.panics_isolated,
            self.drainer_restarts,
            self.requeued,
        )
    }
}

struct Inner {
    svc: Arc<ServeService>,
    cfg: BatchConfig,
    q: Mutex<Queue>,
    cv: Condvar,
    /// The exactly-once ledger: items the drainer has taken off the
    /// queue but not yet answered, in response order. An item leaves the
    /// ledger in the same critical section that writes its response.
    in_flight: Mutex<VecDeque<Item>>,
    /// Set when the supervisor gave up (fruitless restarts); makes
    /// [`Batcher::join`] report a typed failure.
    failed: AtomicBool,
    faults: Option<Arc<FaultPlan>>,
    /// Per-phase latency histograms backing the `metrics` verb.
    lat: PhaseLatencies,
    submitted: AtomicU64,
    rejected: AtomicU64,
    deadline_rejected: AtomicU64,
    compiles: AtomicU64,
    flushes: AtomicU64,
    responses: AtomicU64,
    panics_isolated: AtomicU64,
    drainer_restarts: AtomicU64,
    requeued: AtomicU64,
}

impl Inner {
    fn stats(&self) -> QueueStats {
        QueueStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            deadline_rejected: self.deadline_rejected.load(Ordering::Relaxed),
            compiles: self.compiles.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
            responses: self.responses.load(Ordering::Relaxed),
            panics_isolated: self.panics_isolated.load(Ordering::Relaxed),
            drainer_restarts: self.drainer_restarts.load(Ordering::Relaxed),
            requeued: self.requeued.load(Ordering::Relaxed),
        }
    }
}

/// The queue front-end plus its supervised drainer. Shared by every
/// connection; dropped (via [`Batcher::join`]) only after close.
pub struct Batcher {
    inner: Arc<Inner>,
    supervisor: Option<std::thread::JoinHandle<()>>,
}

impl Batcher {
    /// Start a batcher (and its supervised drainer) over a service.
    pub fn new(svc: Arc<ServeService>, cfg: BatchConfig) -> Batcher {
        Batcher::with_faults(svc, cfg, None)
    }

    /// [`Batcher::new`] with a chaos fault plan driving drainer panics
    /// and queue stalls (compile-level faults are the service's; disk
    /// faults are the cache's — install the same plan there).
    pub fn with_faults(
        svc: Arc<ServeService>,
        cfg: BatchConfig,
        faults: Option<Arc<FaultPlan>>,
    ) -> Batcher {
        let inner = Arc::new(Inner {
            svc,
            cfg,
            q: Mutex::new(Queue::default()),
            cv: Condvar::new(),
            in_flight: Mutex::new(VecDeque::new()),
            failed: AtomicBool::new(false),
            faults,
            lat: PhaseLatencies::default(),
            submitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            deadline_rejected: AtomicU64::new(0),
            compiles: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
            responses: AtomicU64::new(0),
            panics_isolated: AtomicU64::new(0),
            drainer_restarts: AtomicU64::new(0),
            requeued: AtomicU64::new(0),
        });
        let for_thread = Arc::clone(&inner);
        let supervisor = std::thread::Builder::new()
            .name("sv-serve-supervisor".into())
            .spawn(move || supervise(&for_thread))
            .expect("spawn supervisor");
        Batcher { inner, supervisor: Some(supervisor) }
    }

    /// [`Batcher::submit_for`] as the always-registered
    /// [`DEFAULT_CLIENT`] — the single-stream front door.
    ///
    /// # Errors
    ///
    /// As [`Batcher::submit_for`].
    pub fn submit(&self, request: Request, out: Sink) -> Result<(), ServeError> {
        self.submit_for(DEFAULT_CLIENT, request, out)
    }

    /// Register a new client identity and return its id. Each TCP
    /// connection registers on accept and deregisters on disconnect.
    pub fn register_client(&self) -> u64 {
        lock_recover(&self.inner.q).register()
    }

    /// Retire a client identity: it stops counting toward the quota
    /// denominator immediately and its sub-queue is dropped once its
    /// already-admitted items drain (they are still answered — the sink
    /// may be a dead socket, which only loses those bytes).
    pub fn deregister_client(&self, client: u64) {
        lock_recover(&self.inner.q).deregister(client);
    }

    /// The backoff hint an `overloaded` rejection would carry right now
    /// (used by accept loops that refuse connections past
    /// `--max-clients` with the same typed error).
    pub fn retry_after_hint(&self) -> u64 {
        lock_recover(&self.inner.q).retry_hint(self.inner.cfg.batch_max)
    }

    /// Enqueue one decoded request on behalf of a registered client; its
    /// response will be written to `out` by the drainer.
    ///
    /// # Errors
    ///
    /// [`ServeError::Overloaded`] when the queue is at capacity or the
    /// client's fair-share quota is exhausted (the error carries a
    /// `retry_after_ms` hint computed from live queue depth),
    /// [`ServeError::BadRequest`] for a batch heavier than the whole
    /// queue (it could never be admitted, so retrying it is futile),
    /// [`ServeError::DeadlineExceeded`] when the request's deadline is
    /// already expired at admission, [`ServeError::ShuttingDown`] after
    /// shutdown/close. The caller reports these to the client itself —
    /// nothing was enqueued.
    pub fn submit_for(
        &self,
        client: u64,
        request: Request,
        out: Sink,
    ) -> Result<(), ServeError> {
        // A deadline of zero is already expired the instant it is
        // submitted (deadlines are measured from submission): reject at
        // admission so it never occupies queue weight and never displaces
        // a servable request.
        if let Request::Compile { req, .. } = &request {
            if req.timeout == Some(Duration::ZERO) {
                self.inner.deadline_rejected.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::DeadlineExceeded { timeout_ms: 0 });
            }
        }
        let item = Item { req: Arc::new(request), out, submitted: Instant::now(), client };
        // Count under the queue lock, so a `stats` the drainer takes next
        // already sees this submission.
        let mut q = lock_recover(&self.inner.q);
        let admitted = q.admit(item, &self.inner.cfg);
        if admitted.is_ok() {
            self.inner.submitted.fetch_add(1, Ordering::Relaxed);
            self.inner.cv.notify_all();
        } else if matches!(admitted, Err(ServeError::Overloaded { .. })) {
            self.inner.rejected.fetch_add(1, Ordering::Relaxed);
        }
        admitted
    }

    /// Stop admitting work and drain whatever is queued (used on stdin
    /// EOF / listener teardown; the `shutdown` verb does this itself).
    pub fn close(&self) {
        lock_recover(&self.inner.q).closed = true;
        self.inner.cv.notify_all();
    }

    /// Wait for the supervised drainer to finish every queued request
    /// and exit. Call after [`Batcher::close`] or a submitted
    /// `shutdown`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Internal`] when the drainer died unrecoverably
    /// (pending requests were still answered, with typed errors) — the
    /// queue was drained either way, and the caller's process lives.
    pub fn join(mut self) -> Result<(), ServeError> {
        // Joining consumes the batcher, so nothing can submit after this:
        // closing here is always sound, and makes join self-sufficient
        // for callers that did not close explicitly.
        self.close();
        let result = match self.supervisor.take() {
            None => Ok(()),
            Some(h) => match h.join() {
                Ok(()) => Ok(()),
                Err(p) => Err(ServeError::Internal {
                    message: format!("supervisor panicked: {}", panic_message(p.as_ref())),
                }),
            },
        };
        if self.inner.failed.load(Ordering::Relaxed) {
            return Err(ServeError::Internal {
                message: format!(
                    "drainer died unrecoverably after {} restarts; pending requests were \
                     answered with typed errors",
                    self.inner.drainer_restarts.load(Ordering::Relaxed)
                ),
            });
        }
        result
    }

    /// Whether the queue has stopped admitting work (shutdown or
    /// [`Batcher::close`]). Lets accept loops wind down.
    pub fn is_closed(&self) -> bool {
        lock_recover(&self.inner.q).closed
    }

    /// Point-in-time queue counters.
    pub fn stats(&self) -> QueueStats {
        self.inner.stats()
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        self.close();
        if let Some(h) = self.supervisor.take() {
            let _ = h.join();
        }
    }
}

/// Take the next unit of work with [`Queue::take`], blocking while the
/// queue is empty and open; `None` once it is closed and empty. The
/// taken items move into the in-flight ledger *before* the queue lock
/// is released, so there is never an instant where taken work is tracked
/// nowhere; the drainer holds clones sharing their requests.
fn next_action(inner: &Inner) -> Option<Vec<Item>> {
    let mut q = lock_recover(&inner.q);
    loop {
        if let Some(items) = q.take(inner.cfg.batch_max) {
            lock_recover(&inner.in_flight).extend(items.iter().cloned());
            return Some(items);
        }
        if q.closed {
            return None;
        }
        q = inner.cv.wait(q).unwrap_or_else(PoisonError::into_inner);
    }
}

/// Write one response line and retire its in-flight item — atomically
/// with respect to the supervisor, which takes the same ledger lock
/// before re-queueing. This single critical section is what makes the
/// exactly-once invariant hold across drainer deaths: an item is either
/// still in the ledger (unanswered, will be re-queued) or gone
/// (answered, will not be).
fn respond_and_retire(inner: &Inner, item: &Item, line: &str) {
    let mut ledger = lock_recover(&inner.in_flight);
    // A dead sink (client hung up) only loses that client's response.
    let _ = write_line(&mut *lock_recover(&item.out), line);
    let retired = ledger.pop_front().expect("responding to an item not in the ledger");
    debug_assert!(Arc::ptr_eq(&retired.req, &item.req), "ledger order must match response order");
    inner.lat.total.record_ns(retired.submitted.elapsed().as_nanos() as u64);
    inner.responses.fetch_add(1, Ordering::Relaxed);
}

/// Execute `reqs` (all submitted at `submitted`) on the worker pool,
/// returning per-request result bodies or errors in request order. Each
/// entry compiles under `catch_unwind`: one poisoned request yields one
/// typed `internal` error, never a dead batch or daemon. Each compile's
/// deadline is `submitted` plus its timeout.
fn execute(
    inner: &Inner,
    reqs: &[&CompileRequest],
    submitted: Instant,
) -> Vec<Result<Arc<str>, ServeError>> {
    // Deadlines already passed are decided once, here, on the drainer
    // thread — not inside the workers — so which requests run at all is
    // independent of worker scheduling.
    let now = Instant::now();
    let expired: Vec<Option<u64>> = reqs
        .iter()
        .map(|r| match r.timeout {
            Some(t) if now.saturating_duration_since(submitted) > t => {
                Some(t.as_millis() as u64)
            }
            _ => None,
        })
        .collect();
    inner.flushes.fetch_add(1, Ordering::Relaxed);
    inner.compiles.fetch_add(reqs.len() as u64, Ordering::Relaxed);
    run_ordered(reqs, inner.cfg.jobs, |i, req| {
        let t0 = Instant::now();
        let deadline = req.timeout.map(|t| submitted + t);
        let compile = || inner.svc.compile_until(req, deadline);
        let verdict = match expired[i] {
            Some(timeout_ms) => Err(ServeError::DeadlineExceeded { timeout_ms }),
            None => match catch_unwind(AssertUnwindSafe(compile)) {
                Ok(result) => result.map(|(body, _)| body),
                Err(payload) => {
                    inner.panics_isolated.fetch_add(1, Ordering::Relaxed);
                    Err(ServeError::Internal {
                        message: format!(
                            "compile panicked (isolated to this request): {}",
                            panic_message(payload.as_ref())
                        ),
                    })
                }
            },
        };
        inner.lat.execute.record_ns(t0.elapsed().as_nanos() as u64);
        verdict
    })
}

/// The compile body of an item gathered into a run.
fn compile_of(item: &Item) -> &CompileRequest {
    match &*item.req {
        Request::Compile { req, .. } => req,
        _ => unreachable!("runs hold only compiles"),
    }
}

/// The drainer thread: pop, execute, respond, until closed and empty.
fn drain(inner: &Inner) {
    loop {
        if let Some(d) = inner.faults.as_ref().and_then(|p| p.stall()) {
            std::thread::sleep(d);
        }
        match next_action(inner) {
            None => return,
            Some(items) if items[0].is_compile() => answer_run(inner, &items),
            Some(items) => answer_one(inner, &items[0]),
        }
    }
}

/// Execute a gathered compile run on the worker pool and answer each
/// member in order.
fn answer_run(inner: &Inner, items: &[Item]) {
    let taken_at = Instant::now();
    for item in items {
        let wait = taken_at.saturating_duration_since(item.submitted);
        inner.lat.queue_wait.record_ns(wait.as_nanos() as u64);
    }
    let panic_at = inner.faults.as_ref().and_then(|p| p.drainer_panic_point(items.len()));
    if panic_at == Some(0) {
        panic!("injected drainer panic (before batch execute)");
    }
    // One shared submission time keeps a run's deadline verdicts as
    // conservative as its oldest member.
    let oldest = items.iter().map(|i| i.submitted).min().expect("non-empty run");
    let reqs: Vec<&CompileRequest> = items.iter().map(compile_of).collect();
    let results = execute(inner, &reqs, oldest);
    for (k, (item, result)) in items.iter().zip(&results).enumerate() {
        let id = item.req.id();
        let line = match result {
            Ok(body) => ok_response(id, body),
            Err(e) => error_response(id, e),
        };
        respond_and_retire(inner, item, &line);
        if panic_at == Some(k + 1) {
            panic!("injected drainer panic (mid-batch after {} responses)", k + 1);
        }
    }
}

/// Answer one non-compile request. Under a chaos plan the drainer may die
/// before the item is answered (it is re-queued) or right after (it is
/// not), exactly as in a compile run of length one.
fn answer_one(inner: &Inner, item: &Item) {
    let panic_at = inner.faults.as_ref().and_then(|p| p.drainer_panic_point(1));
    if panic_at == Some(0) {
        panic!("injected drainer panic (before a single request)");
    }
    let id = item.req.id();
    let line = match &*item.req {
        Request::Batch { reqs, .. } => {
            inner.lat.queue_wait.record_ns(item.submitted.elapsed().as_nanos() as u64);
            let refs: Vec<&CompileRequest> = reqs.iter().collect();
            let elements: Vec<String> = execute(inner, &refs, item.submitted)
                .iter()
                .map(|r| match r {
                    Ok(body) => body.to_string(),
                    Err(e) => error_object(e),
                })
                .collect();
            batch_response(id, &elements)
        }
        Request::Machines { .. } => ok_response(id, &inner.svc.machines_object()),
        Request::Stats { .. } => {
            let result = format!(
                "{{\"cache\":{},\"queue\":{{{}}}}}",
                inner.svc.stats_object(),
                inner.stats().counters_json()
            );
            ok_response(id, &result)
        }
        Request::Metrics { .. } => ok_response(id, &metrics_object(inner)),
        Request::Shutdown { .. } => ok_response(id, "{\"shutdown\":true}"),
        Request::Compile { .. } => unreachable!("compiles are answered in runs"),
    };
    respond_and_retire(inner, item, &line);
    if matches!(*item.req, Request::Shutdown { .. }) {
        lock_recover(&inner.q).closed = true;
        inner.cv.notify_all();
    }
    if panic_at == Some(1) {
        panic!("injected drainer panic (after a single request)");
    }
}

/// Render the `metrics` verb's result object: live queue/ledger gauges,
/// the queue counters, cache stats, fault counters and per-phase latency
/// percentiles — one canonical line.
fn metrics_object(inner: &Inner) -> String {
    let (depth, weight, clients) = {
        let q = lock_recover(&inner.q);
        (q.clients.values().map(|c| c.items.len()).sum::<usize>(), q.weight, q.registered())
    };
    let ledger = lock_recover(&inner.in_flight).len();
    let qs = inner.stats();
    let occupancy =
        if qs.flushes == 0 { 0.0 } else { qs.compiles as f64 / qs.flushes as f64 };
    let faults = match &inner.faults {
        Some(p) => crate::metrics::faults_json(true, &p.injected()),
        None => crate::metrics::faults_json(false, &Default::default()),
    };
    format!(
        "{{\"queue\":{{\"depth\":{depth},\"weight\":{weight},\"in_flight\":{ledger},\
         \"clients\":{clients},\"batch_occupancy\":{occupancy:.4},{}}},\"cache\":{},\
         \"faults\":{faults},\"latency\":{}}}",
        qs.counters_json(),
        inner.svc.stats_object(),
        inner.lat.to_json(),
    )
}

/// Move every unanswered in-flight item back to the front of its
/// client's sub-queue, preserving per-client order, and restore its
/// weight. Called by the supervisor between drainer incarnations (the
/// drainer is dead, so nothing else mutates the ledger). A client that
/// disconnected and was pruned gets its entry recreated unregistered,
/// just long enough to drain.
fn requeue_in_flight(inner: &Inner) -> u64 {
    let mut q = lock_recover(&inner.q);
    let mut ledger = lock_recover(&inner.in_flight);
    let n = ledger.len() as u64;
    while let Some(item) = ledger.pop_back() {
        let w = weight(&item.req);
        q.weight += w;
        let c = q
            .clients
            .entry(item.client)
            .or_insert_with(|| ClientQ::new(false));
        c.queued += w;
        c.items.push_front(item);
    }
    inner.requeued.fetch_add(n, Ordering::Relaxed);
    n
}

/// Fail every pending request (queued and in-flight) with a typed
/// `internal` error and close the queue: the degraded-but-alive path
/// when the drainer cannot be kept running.
fn fail_pending(inner: &Inner, reason: &str) {
    inner.failed.store(true, Ordering::Relaxed);
    let items: Vec<Item> = {
        let mut q = lock_recover(&inner.q);
        q.closed = true;
        let mut ledger = lock_recover(&inner.in_flight);
        q.weight = 0;
        let mut queued = Vec::new();
        for c in q.clients.values_mut() {
            c.queued = 0;
            queued.extend(c.items.drain(..));
        }
        ledger.drain(..).chain(queued).collect()
    };
    inner.cv.notify_all();
    for item in items {
        let e = ServeError::Internal { message: reason.to_string() };
        let _ = write_line(&mut *lock_recover(&item.out), &error_response(item.req.id(), &e));
        inner.responses.fetch_add(1, Ordering::Relaxed);
    }
}

/// The supervisor: spawn the drainer, and if it dies, log a typed event,
/// re-queue unanswered in-flight work exactly once, and respawn — until
/// the drainer exits cleanly or keeps dying without progress.
fn supervise(inner: &Arc<Inner>) {
    let mut fruitless = 0u32;
    loop {
        let for_drainer = Arc::clone(inner);
        let handle = std::thread::Builder::new()
            .name("sv-serve-drain".into())
            .spawn(move || drain(&for_drainer));
        let handle = match handle {
            Ok(h) => h,
            Err(e) => {
                fail_pending(inner, &format!("cannot spawn drainer: {e}"));
                return;
            }
        };
        let responses_before = inner.responses.load(Ordering::Relaxed);
        match handle.join() {
            Ok(()) => return, // clean exit: queue closed and drained
            Err(payload) => {
                let restarts = inner.drainer_restarts.fetch_add(1, Ordering::Relaxed) + 1;
                let progressed = inner.responses.load(Ordering::Relaxed) > responses_before;
                fruitless = if progressed { 0 } else { fruitless + 1 };
                let requeued = requeue_in_flight(inner);
                eprintln!(
                    "{{\"event\":\"drainer_restart\",\"restarts\":{restarts},\
                     \"requeued\":{requeued},\"fruitless\":{fruitless},\"panic\":\"{}\"}}",
                    crate::json::escape(&panic_message(payload.as_ref()))
                );
                if fruitless > MAX_FRUITLESS_RESTARTS {
                    fail_pending(
                        inner,
                        "drainer died repeatedly without progress; request failed by supervisor",
                    );
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultConfig;
    use crate::proto::parse_request;
    use sv_workloads::benchmark;

    fn buffer() -> (Sink, Arc<Mutex<Vec<u8>>>) {
        let buf = Arc::new(Mutex::new(Vec::new()));
        (buf.clone() as Sink, buf)
    }

    fn suite_requests(n: usize) -> Vec<Request> {
        let suite = benchmark("swim").expect("swim suite exists");
        (0..n)
            .map(|i| {
                let l = &suite.loops[i % suite.loops.len()];
                parse_request(
                    &CompileRequest { loop_text: l.to_string(), ..CompileRequest::default() }
                        .to_wire(i as u64),
                )
                .expect("self-rendered request parses")
            })
            .collect()
    }

    fn run_to_bytes(jobs: usize, requests: Vec<Request>) -> Vec<u8> {
        let svc = Arc::new(ServeService::in_memory());
        let b = Batcher::new(svc, BatchConfig { jobs, ..BatchConfig::default() });
        let (sink, buf) = buffer();
        for r in requests {
            b.submit(r, Arc::clone(&sink)).unwrap();
        }
        b.close();
        b.join().unwrap();
        let bytes = buf.lock().unwrap().clone();
        bytes
    }

    #[test]
    fn worker_count_never_changes_response_bytes() {
        let serial = run_to_bytes(1, suite_requests(6));
        let parallel = run_to_bytes(4, suite_requests(6));
        assert!(!serial.is_empty());
        assert_eq!(
            String::from_utf8(serial).unwrap(),
            String::from_utf8(parallel).unwrap(),
            "jobs=1 and jobs=4 must produce identical bytes in identical order"
        );
    }

    /// Admission and gather policy is pure `Queue` logic: these tests
    /// drive a queue with no drainer, so nothing is taken behind their
    /// back.
    fn cfg(batch_max: usize, queue_cap: usize) -> BatchConfig {
        BatchConfig { batch_max, queue_cap, jobs: 1 }
    }

    fn item(client: u64, req: Request) -> Item {
        Item { req: Arc::new(req), out: buffer().0, submitted: Instant::now(), client }
    }

    fn ids(items: &[Item]) -> Vec<u64> {
        items.iter().map(|i| i.req.id()).collect()
    }

    fn take_run(q: &mut Queue, batch_max: usize) -> Vec<u64> {
        let items = q.take(batch_max).expect("queued work");
        assert!(items.iter().all(Item::is_compile), "a run holds only compiles");
        ids(&items)
    }

    #[test]
    fn bounded_queue_rejects_overload() {
        let cfg = cfg(64, 2);
        let mut q = Queue::default();
        let mut reqs = suite_requests(4).into_iter();
        q.admit(item(DEFAULT_CLIENT, reqs.next().unwrap()), &cfg).unwrap();
        q.admit(item(DEFAULT_CLIENT, reqs.next().unwrap()), &cfg).unwrap();
        let e = q.admit(item(DEFAULT_CLIENT, reqs.next().unwrap()), &cfg).unwrap_err();
        assert!(matches!(e, ServeError::Overloaded { cap: 2, .. }), "{e:?}");
        let hint = crate::client::retry_after_ms(&error_response(0, &e));
        assert!(hint.unwrap() > 0, "hint must be non-zero");
        assert_eq!(q.weight, 2, "a rejection queues nothing");
        // The queue drains one slot and admits again.
        assert_eq!(take_run(&mut q, 1), [0]);
        q.admit(item(DEFAULT_CLIENT, reqs.next().unwrap()), &cfg).unwrap();
    }

    #[test]
    fn retry_hint_grows_with_queue_depth() {
        // (queued_weight / batch_max + 1) * 2 ms.
        let mut q = Queue::default();
        assert_eq!(q.retry_hint(2), 2);
        for r in suite_requests(6) {
            q.admit(item(DEFAULT_CLIENT, r), &cfg(2, 64)).unwrap();
        }
        assert_eq!(q.retry_hint(2), 8);
        assert_eq!(q.retry_hint(BatchConfig::default().batch_max), 2);
        q.weight = 64;
        assert_eq!(q.retry_hint(BatchConfig::default().batch_max), 6);
        assert_eq!(q.retry_hint(0), 130, "batch_max 0 counts as 1");
    }

    #[test]
    fn greedy_client_is_capped_at_its_share_not_the_whole_queue() {
        let cfg = cfg(64, 9);
        let mut q = Queue::default();
        let greedy = q.register();
        let light = q.register();
        // Two registered clients and an idle default one, which takes no
        // share: each client's quota is 9/2 = 4.
        let mut reqs = suite_requests(10).into_iter();
        for _ in 0..4 {
            q.admit(item(greedy, reqs.next().unwrap()), &cfg).unwrap();
        }
        let e = q.admit(item(greedy, reqs.next().unwrap()), &cfg).unwrap_err();
        assert!(
            matches!(e, ServeError::Overloaded { cap: 4, .. }),
            "greedy must bounce off its quota, got {e:?}"
        );
        // The light client still gets its full share.
        for _ in 0..4 {
            q.admit(item(light, reqs.next().unwrap()), &cfg).unwrap();
        }
        let e = q.admit(item(light, reqs.next().unwrap()), &cfg).unwrap_err();
        assert!(matches!(e, ServeError::Overloaded { cap: 4, .. }));
    }

    #[test]
    fn drain_round_robins_across_clients() {
        let cfg = cfg(64, 64);
        let mut q = Queue::default();
        let a = q.register();
        let c = q.register();
        // Client a gets ids 0..4 first, then client c gets ids 4..8: a
        // FIFO drain would answer all of a before any of c.
        let mut reqs = suite_requests(16).into_iter();
        for client in [a, a, a, a, c, c, c, c] {
            q.admit(item(client, reqs.next().unwrap()), &cfg).unwrap();
        }
        // One item per client per cycle, and each take starts at the
        // client after the one served last.
        assert_eq!(take_run(&mut q, 3), [0, 4, 1]);
        assert_eq!(take_run(&mut q, 3), [5, 2, 6]);
        assert_eq!(take_run(&mut q, 3), [3, 7]);
        assert!(q.take(3).is_none());
        assert_eq!(q.weight, 0);

        for client in [a, a, a, a, c, c, c, c] {
            q.admit(item(client, reqs.next().unwrap()), &cfg).unwrap();
        }
        let all = take_run(&mut q, 64);
        assert_eq!(all.len(), 8, "everything queued goes in one run: {all:?}");
    }

    #[test]
    fn a_run_stops_at_each_clients_first_non_compile() {
        let cfg = cfg(64, 64);
        let mut q = Queue::default();
        let a = q.register();
        let c = q.register();
        let mut reqs = suite_requests(4).into_iter();
        q.admit(item(a, reqs.next().unwrap()), &cfg).unwrap();
        q.admit(item(a, Request::Stats { id: 50 }), &cfg).unwrap();
        q.admit(item(a, reqs.next().unwrap()), &cfg).unwrap();
        q.admit(item(c, reqs.next().unwrap()), &cfg).unwrap();
        q.admit(item(c, reqs.next().unwrap()), &cfg).unwrap();
        assert_eq!(take_run(&mut q, 64), [0, 2, 3]);
        assert_eq!(ids(&q.take(64).unwrap()), [50], "stats goes alone");
        assert_eq!(take_run(&mut q, 64), [1]);
        assert!(q.take(64).is_none());
    }

    #[test]
    fn deregistered_client_frees_its_share() {
        let cfg = cfg(64, 8);
        let mut q = Queue::default();
        let a = q.register();
        let c = q.register();
        // default + a + c: quota for default is 8/3 = 2.
        let mut reqs = suite_requests(8).into_iter();
        q.admit(item(DEFAULT_CLIENT, reqs.next().unwrap()), &cfg).unwrap();
        q.admit(item(DEFAULT_CLIENT, reqs.next().unwrap()), &cfg).unwrap();
        let e = q.admit(item(DEFAULT_CLIENT, reqs.next().unwrap()), &cfg).unwrap_err();
        assert!(matches!(e, ServeError::Overloaded { cap: 2, .. }));
        // After a disconnects, its slot is freed: default + c share the
        // queue (quota 8/2 = 4) and submitting as a is refused.
        q.deregister(a);
        q.admit(item(DEFAULT_CLIENT, reqs.next().unwrap()), &cfg).unwrap();
        q.admit(item(DEFAULT_CLIENT, reqs.next().unwrap()), &cfg).unwrap();
        let e = q.admit(item(DEFAULT_CLIENT, reqs.next().unwrap()), &cfg).unwrap_err();
        assert!(matches!(e, ServeError::Overloaded { cap: 4, .. }), "{e:?}");
        let e = q.admit(item(a, reqs.next().unwrap()), &cfg).unwrap_err();
        assert!(matches!(e, ServeError::Internal { .. }), "{e:?}");
        // A client deregistered with queued work keeps its sub-queue until
        // the work drains; the default identity is never dropped.
        q.admit(item(c, reqs.next().unwrap()), &cfg).unwrap();
        q.deregister(c);
        q.deregister(DEFAULT_CLIENT);
        assert_eq!(q.registered(), 1);
        assert!(q.clients.contains_key(&c));
        assert_eq!(take_run(&mut q, 64).len(), 5);
        assert!(!q.clients.contains_key(&c));
        assert!(q.clients.contains_key(&DEFAULT_CLIENT));
    }

    #[test]
    fn metrics_verb_reports_gauges_cache_and_latency() {
        let svc = Arc::new(ServeService::in_memory());
        let b = Batcher::new(svc, BatchConfig::default());
        let (sink, buf) = buffer();
        for r in suite_requests(3) {
            b.submit(r, Arc::clone(&sink)).unwrap();
        }
        b.submit(Request::Metrics { id: 50 }, Arc::clone(&sink)).unwrap();
        b.join().unwrap();
        let out = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let line = out.lines().last().unwrap();
        assert!(line.contains("\"id\":50,\"ok\":true"), "{line}");
        for field in [
            "\"depth\":",
            "\"in_flight\":",
            "\"clients\":1",
            "\"batch_occupancy\":",
            "\"cache\":{\"mem_hits\":",
            "\"faults\":{\"armed\":false",
            "\"latency\":{\"queue_wait\":{\"count\":",
            "\"p99_us\":",
        ] {
            assert!(line.contains(field), "missing {field} in {line}");
        }
        assert!(!line.contains('\n'), "metrics must be one canonical line");
    }

    #[test]
    fn zero_timeout_rejected_at_admission() {
        let svc = Arc::new(ServeService::in_memory());
        let b = Batcher::new(svc, BatchConfig::default());
        let (sink, buf) = buffer();
        let suite = benchmark("swim").unwrap();
        let req = CompileRequest {
            loop_text: suite.loops[0].to_string(),
            timeout: Some(Duration::ZERO),
            ..CompileRequest::default()
        };
        // Already expired at admission: typed rejection, nothing queued,
        // no queue weight consumed.
        let e = b
            .submit(Request::Compile { id: 9, req: Box::new(req) }, Arc::clone(&sink))
            .unwrap_err();
        assert!(matches!(e, ServeError::DeadlineExceeded { timeout_ms: 0 }));
        let st = b.stats();
        assert_eq!(st.deadline_rejected, 1);
        assert_eq!(st.submitted, 0, "an expired request must never occupy the queue");
        b.close();
        b.join().unwrap();
        assert!(buf.lock().unwrap().is_empty(), "nothing was enqueued, nothing answered");
    }

    #[test]
    fn shutdown_verb_acks_and_drains() {
        let svc = Arc::new(ServeService::in_memory());
        let b = Batcher::new(svc, BatchConfig::default());
        let (sink, buf) = buffer();
        for r in suite_requests(2) {
            b.submit(r, Arc::clone(&sink)).unwrap();
        }
        b.submit(Request::Stats { id: 90 }, Arc::clone(&sink)).unwrap();
        b.submit(Request::Shutdown { id: 99 }, Arc::clone(&sink)).unwrap();
        b.join().unwrap();
        let out = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        // Both compiles answered (in order), then stats, then the ack.
        assert!(lines.len() >= 4, "{out}");
        assert!(lines[0].contains("\"id\":0"), "{out}");
        assert!(lines[1].contains("\"id\":1"), "{out}");
        assert!(lines[2].contains("\"cache\":{"), "{out}");
        assert!(lines[lines.len() - 1].contains("\"shutdown\":true"), "{out}");
        // Stats ran after both compiles: it must report 2 lookups.
        assert!(lines[2].contains("\"compiles\":2"), "{out}");
        // Stats counts itself among the responses written so far.
        assert!(lines[2].contains("\"responses\":3"), "{out}");
    }

    #[test]
    fn injected_compile_panic_is_isolated_to_its_request() {
        let mut svc = ServeService::in_memory();
        // Panic on every compile: each request gets its own typed
        // internal error, the batch and the drainer survive.
        svc.set_faults(Arc::new(FaultPlan::new(
            1,
            FaultConfig { compile_panic: 1.0, ..FaultConfig::default() },
        )));
        let b = Batcher::new(Arc::new(svc), BatchConfig::default());
        let (sink, buf) = buffer();
        for r in suite_requests(3) {
            b.submit(r, Arc::clone(&sink)).unwrap();
        }
        b.close();
        let counters = Arc::clone(&b.inner);
        b.join().unwrap();
        let out = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3, "every request answered exactly once: {out}");
        for (i, line) in lines.iter().enumerate() {
            assert!(line.contains(&format!("\"id\":{i}")), "{out}");
            assert!(line.contains("\"kind\":\"internal\""), "{out}");
        }
        assert_eq!(counters.stats().panics_isolated, 3);
    }

    #[test]
    fn supervisor_restarts_dead_drainer_with_exactly_one_response_each() {
        let svc = Arc::new(ServeService::in_memory());
        // Panic on (roughly) every run, at seeded points including
        // mid-batch; the supervisor must keep respawning and every
        // request must still be answered exactly once, in order.
        let plan = Arc::new(FaultPlan::new(
            11,
            FaultConfig { drainer_panic: 0.9, ..FaultConfig::default() },
        ));
        let b = Batcher::with_faults(svc, BatchConfig::default(), Some(plan));
        let (sink, buf) = buffer();
        let n = 12;
        for r in suite_requests(n) {
            b.submit(r, Arc::clone(&sink)).unwrap();
        }
        b.close();
        let counters = Arc::clone(&b.inner);
        b.join().unwrap();
        let out = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), n, "exactly one response per request: {out}");
        for (i, line) in lines.iter().enumerate() {
            assert!(
                line.contains(&format!("\"id\":{i},")),
                "responses must stay in submission order: {out}"
            );
            assert!(line.contains("\"ok\":true"), "{out}");
        }
        let st = counters.stats();
        assert!(st.drainer_restarts > 0, "the fault plan must have killed the drainer");
        assert_eq!(st.responses, n as u64);
    }

    #[test]
    fn deterministic_bytes_survive_drainer_chaos() {
        // The same requests produce byte-identical ok-responses with and
        // without drainer panics: restarts change *when* work runs, never
        // what it answers.
        let calm = run_to_bytes(2, suite_requests(8));
        let svc = Arc::new(ServeService::in_memory());
        let plan = Arc::new(FaultPlan::new(
            5,
            FaultConfig { drainer_panic: 0.7, queue_stall: 0.3, stall_ms: 1, ..FaultConfig::default() },
        ));
        let b = Batcher::with_faults(svc, BatchConfig { jobs: 2, ..BatchConfig::default() }, Some(plan));
        let (sink, buf) = buffer();
        for r in suite_requests(8) {
            b.submit(r, Arc::clone(&sink)).unwrap();
        }
        b.close();
        b.join().unwrap();
        let chaotic = buf.lock().unwrap().clone();
        assert_eq!(
            String::from_utf8(calm).unwrap(),
            String::from_utf8(chaotic).unwrap(),
            "drainer deaths must not change a single response byte"
        );
    }
}
