//! The bounded multi-tenant request queue, its batching drainer, and the
//! drainer's supervisor.
//!
//! Every connection is a registered **client** with its own FIFO
//! sub-queue; one drainer thread serves them all:
//!
//! * admission is **weighted-fair**: the global compile weight is capped
//!   by [`BatchConfig::queue_cap`], and each registered client is capped
//!   at its share of that capacity (share-weighted, never below one
//!   slot), so a greedy connection fills only its own quota and is
//!   rejected with a typed [`ServeError::Overloaded`] — carrying a
//!   `retry_after_ms` hint computed from live queue depth — while other
//!   clients keep being admitted;
//! * the drainer gathers compile runs **round-robin** across client
//!   sub-queues (one item per client per cycle), so service order is
//!   fair while each client's own responses still arrive in its
//!   submission order; a run flushes when it reaches
//!   [`BatchConfig::batch_max`], when its oldest member has waited
//!   [`BatchConfig::flush_ms`], or when nothing else can join it (a
//!   non-compile verb is pending);
//! * a flushed run fans out onto [`sv_core::parallel::run_ordered`],
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
//! ## Fault containment
//!
//! Each batch entry compiles under `catch_unwind`: a poisoned request
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

/// Render a panic payload for typed error messages and event logs.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Queue and batching knobs.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Largest compile run flushed at once.
    pub batch_max: usize,
    /// Longest a queued compile waits for companions before flushing.
    pub flush_ms: u64,
    /// Maximum queued compile weight (one per compile, batch counts its
    /// length); submissions past this are rejected, never buffered.
    pub queue_cap: usize,
    /// Worker threads per flushed run (1 = inline serial).
    pub jobs: usize,
}

impl Default for BatchConfig {
    fn default() -> BatchConfig {
        BatchConfig { batch_max: 32, flush_ms: 2, queue_cap: 1024, jobs: 1 }
    }
}

/// The shared always-registered client identity used by single-stream
/// front-ends (stdio) and in-process callers. Registered at queue
/// construction with share 1 and never removed, so a single-client
/// batcher behaves exactly like the pre-multi-tenant one: its quota is
/// the whole queue capacity.
pub const DEFAULT_CLIENT: u64 = 0;

/// One queued unit of work.
enum Work {
    Compile { id: u64, req: Box<CompileRequest> },
    Batch { id: u64, reqs: Vec<CompileRequest> },
    Machines { id: u64 },
    Stats { id: u64 },
    Metrics { id: u64 },
    Shutdown { id: u64 },
}

impl Work {
    /// Queue weight: how many compiles this admits.
    fn weight(&self) -> usize {
        match self {
            Work::Compile { .. } => 1,
            Work::Batch { reqs, .. } => reqs.len(),
            Work::Machines { .. }
            | Work::Stats { .. }
            | Work::Metrics { .. }
            | Work::Shutdown { .. } => 0,
        }
    }

    /// The client correlation id.
    fn id(&self) -> u64 {
        match self {
            Work::Compile { id, .. }
            | Work::Batch { id, .. }
            | Work::Machines { id }
            | Work::Stats { id }
            | Work::Metrics { id }
            | Work::Shutdown { id } => *id,
        }
    }
}

struct Item {
    work: Work,
    out: Sink,
    submitted: Instant,
    /// The registered client that submitted this (fairness accounting
    /// and re-queue targeting after drainer deaths).
    client: u64,
}

/// One client's private FIFO sub-queue.
struct ClientQ {
    items: VecDeque<Item>,
    /// Fairness share while registered (≥ 1).
    share: usize,
    /// Queued compile weight charged to this client.
    queued: usize,
    /// Live connections hold `true`; a deregistered client's entry
    /// lingers only until its queued items drain.
    registered: bool,
}

impl ClientQ {
    fn new(share: usize, registered: bool) -> ClientQ {
        ClientQ { items: VecDeque::new(), share: share.max(1), queued: 0, registered }
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
    /// Sum of queued [`Work::weight`]s across all clients.
    weight: usize,
    /// Sum of registered clients' shares (the quota denominator).
    share_total: usize,
    /// Set by `shutdown` or [`Batcher::close`]; stops admissions and
    /// flushes immediately.
    closed: bool,
}

impl Default for Queue {
    fn default() -> Queue {
        let mut clients = BTreeMap::new();
        clients.insert(DEFAULT_CLIENT, ClientQ::new(1, true));
        Queue {
            clients,
            next_client: 1,
            // One before the smallest id (wrapping), so the first gather
            // starts at the lowest client id.
            rr_cursor: u64::MAX,
            weight: 0,
            share_total: 1,
            closed: false,
        }
    }
}

impl Queue {
    /// Items queued across every client.
    fn total_items(&self) -> usize {
        self.clients.values().map(|c| c.items.len()).sum()
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

/// Backoff hint for an `overloaded` rejection: roughly how long the
/// backlog queued ahead needs to drain — one flush interval per batch
/// the backlog fills, never zero so a hinted client always waits at
/// least a beat.
fn retry_hint(queued_weight: usize, cfg: &BatchConfig) -> u64 {
    let batches = (queued_weight / cfg.batch_max.max(1)) as u64 + 1;
    batches * cfg.flush_ms.max(1)
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

    /// Register a new client identity with the given fairness share
    /// (clamped to ≥ 1) and return its id. Each TCP connection registers
    /// on accept and deregisters on disconnect.
    pub fn register_client(&self, share: usize) -> u64 {
        let mut q = lock_recover(&self.inner.q);
        let id = q.next_client;
        q.next_client += 1;
        q.share_total += share.max(1);
        q.clients.insert(id, ClientQ::new(share, true));
        id
    }

    /// Retire a client identity: it stops counting toward the quota
    /// denominator immediately and its sub-queue is dropped once its
    /// already-admitted items drain (they are still answered — the sink
    /// may be a dead socket, which only loses those bytes).
    pub fn deregister_client(&self, client: u64) {
        if client == DEFAULT_CLIENT {
            return; // the shared identity is permanent
        }
        let mut q = lock_recover(&self.inner.q);
        let freed = match q.clients.get_mut(&client) {
            Some(c) if c.registered => {
                c.registered = false;
                c.share
            }
            _ => 0,
        };
        q.share_total -= freed;
        q.prune(client);
    }

    /// The backoff hint an `overloaded` rejection would carry right now
    /// (used by accept loops that refuse connections past
    /// `--max-clients` with the same typed error).
    pub fn retry_after_hint(&self) -> u64 {
        let q = lock_recover(&self.inner.q);
        retry_hint(q.weight, &self.inner.cfg)
    }

    /// Enqueue one decoded request on behalf of a registered client; its
    /// response will be written to `out` by the drainer.
    ///
    /// # Errors
    ///
    /// [`ServeError::Overloaded`] when the queue is at capacity or the
    /// client's fair-share quota is exhausted (the error carries a
    /// `retry_after_ms` hint computed from live queue depth),
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
        let work = match request {
            Request::Compile { id, req } => Work::Compile { id, req },
            Request::Batch { id, reqs } => Work::Batch { id, reqs },
            Request::Machines { id } => Work::Machines { id },
            Request::Stats { id } => Work::Stats { id },
            Request::Metrics { id } => Work::Metrics { id },
            Request::Shutdown { id } => Work::Shutdown { id },
        };
        // A deadline of zero is already expired the instant it is
        // submitted (deadlines are measured from submission): reject at
        // admission so it never occupies queue weight and never displaces
        // a servable request.
        if let Work::Compile { req, .. } = &work {
            if req.timeout == Some(Duration::ZERO) {
                self.inner.deadline_rejected.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::DeadlineExceeded { timeout_ms: 0 });
            }
        }
        let w = work.weight();
        let cap = self.inner.cfg.queue_cap;
        let mut q = lock_recover(&self.inner.q);
        if q.closed {
            return Err(ServeError::ShuttingDown);
        }
        let hint = retry_hint(q.weight, &self.inner.cfg);
        if q.weight + w > cap {
            self.inner.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Overloaded { cap, retry_after_ms: hint });
        }
        let share_total = q.share_total.max(1);
        let Some(c) = q.clients.get_mut(&client) else {
            return Err(ServeError::Internal {
                message: format!("client {client} is not registered"),
            });
        };
        if !c.registered {
            return Err(ServeError::Internal {
                message: format!("client {client} has deregistered"),
            });
        }
        // Fair share of the capacity, weighted by this client's share
        // and never below one slot so light clients always get in.
        let quota = (cap * c.share / share_total).max(1);
        if c.queued + w > quota {
            self.inner.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Overloaded { cap: quota, retry_after_ms: hint });
        }
        c.queued += w;
        c.items.push_back(Item { work, out, submitted: Instant::now(), client });
        q.weight += w;
        self.inner.submitted.fetch_add(1, Ordering::Relaxed);
        self.inner.cv.notify_all();
        Ok(())
    }

    /// Stop admitting work and flush whatever is queued (used on stdin
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

/// One compile taken off the queue (the authoritative [`Item`] stays in
/// the in-flight ledger until its response is written).
struct RunEntry {
    id: u64,
    req: CompileRequest,
    out: Sink,
    submitted: Instant,
}

/// What the drainer decided to do with the queue head. Every variant
/// except `Exit` has its item(s) registered in the in-flight ledger.
enum Action {
    Run(Vec<RunEntry>),
    Batch { id: u64, reqs: Vec<CompileRequest>, out: Sink, submitted: Instant },
    Machines { id: u64, out: Sink },
    Stats { id: u64, out: Sink },
    Metrics { id: u64, out: Sink },
    Shutdown { id: u64, out: Sink },
    Exit,
}

/// Pop the next unit of work, blocking until a flush condition holds.
/// Runs are gathered round-robin across client sub-queues (one item per
/// client per cycle), so no connection can monopolize the drainer while
/// each client's own responses stay in its submission order. The popped
/// item(s) move into the in-flight ledger *before* the queue lock is
/// released, so there is never an instant where taken work is tracked
/// nowhere.
fn next_action(inner: &Inner) -> Action {
    let flush = Duration::from_millis(inner.cfg.flush_ms);
    let mut q = lock_recover(&inner.q);
    loop {
        let order = q.rr_order();
        let Some(&first) = order.first() else {
            if q.closed {
                return Action::Exit;
            }
            q = inner.cv.wait(q).unwrap_or_else(PoisonError::into_inner);
            continue;
        };
        if !matches!(q.clients[&first].items[0].work, Work::Compile { .. }) {
            let c = q.clients.get_mut(&first).expect("candidate exists");
            let item = c.items.pop_front().expect("checked non-empty");
            let w = item.work.weight();
            c.queued -= w;
            q.weight -= w;
            q.rr_cursor = first;
            q.prune(first);
            let action = match &item.work {
                Work::Batch { id, reqs } => Action::Batch {
                    id: *id,
                    reqs: reqs.clone(),
                    out: Arc::clone(&item.out),
                    submitted: item.submitted,
                },
                Work::Machines { id } => {
                    Action::Machines { id: *id, out: Arc::clone(&item.out) }
                }
                Work::Stats { id } => Action::Stats { id: *id, out: Arc::clone(&item.out) },
                Work::Metrics { id } => {
                    Action::Metrics { id: *id, out: Arc::clone(&item.out) }
                }
                Work::Shutdown { id } => {
                    Action::Shutdown { id: *id, out: Arc::clone(&item.out) }
                }
                Work::Compile { .. } => unreachable!("head checked non-compile"),
            };
            lock_recover(&inner.in_flight).push_back(item);
            return action;
        }
        // The round-robin head is a compile: plan a run by cycling the
        // candidate clients, taking one queued compile per client per
        // cycle; a client stops contributing at its first non-compile.
        let mut taken: BTreeMap<u64, usize> = BTreeMap::new();
        let mut plan: Vec<u64> = Vec::new();
        let mut oldest = q.clients[&first].items[0].submitted;
        'gather: loop {
            let mut progressed = false;
            for &id in &order {
                let k = taken.get(&id).copied().unwrap_or(0);
                if let Some(item) = q.clients[&id].items.get(k) {
                    if matches!(item.work, Work::Compile { .. }) {
                        oldest = oldest.min(item.submitted);
                        plan.push(id);
                        *taken.entry(id).or_insert(0) += 1;
                        progressed = true;
                        if plan.len() >= inner.cfg.batch_max {
                            break 'gather;
                        }
                    }
                }
            }
            if !progressed {
                break;
            }
        }
        let capped = plan.len() >= inner.cfg.batch_max;
        // Nothing more can ever join: a non-compile verb is pending
        // somewhere, so waiting out the timer buys nothing.
        let sealed = plan.len() < q.total_items();
        let deadline = oldest + flush;
        let now = Instant::now();
        if capped || sealed || q.closed || now >= deadline {
            let mut items: Vec<Item> = Vec::with_capacity(plan.len());
            for &id in &plan {
                let c = q.clients.get_mut(&id).expect("planned client exists");
                let item = c.items.pop_front().expect("planned item exists");
                c.queued -= item.work.weight();
                items.push(item);
            }
            q.weight -= items.iter().map(|i| i.work.weight()).sum::<usize>();
            if let Some(&last) = plan.last() {
                q.rr_cursor = last;
            }
            for &id in &plan {
                q.prune(id);
            }
            let entries: Vec<RunEntry> = items
                .iter()
                .map(|item| match &item.work {
                    Work::Compile { id, req } => RunEntry {
                        id: *id,
                        req: (**req).clone(),
                        out: Arc::clone(&item.out),
                        submitted: item.submitted,
                    },
                    _ => unreachable!("runs hold only compiles"),
                })
                .collect();
            lock_recover(&inner.in_flight).extend(items);
            return Action::Run(entries);
        }
        let (guard, _) = inner
            .cv
            .wait_timeout(q, deadline - now)
            .unwrap_or_else(PoisonError::into_inner);
        q = guard;
    }
}

/// Write one response line and retire its in-flight item — atomically
/// with respect to the supervisor, which takes the same ledger lock
/// before re-queueing. This single critical section is what makes the
/// exactly-once invariant hold across drainer deaths: an item is either
/// still in the ledger (unanswered, will be re-queued) or gone
/// (answered, will not be).
fn respond_and_retire(inner: &Inner, out: &Sink, expect_id: u64, line: &str) {
    let mut ledger = lock_recover(&inner.in_flight);
    // A dead sink (client hung up) only loses that client's response.
    let _ = write_line(&mut *lock_recover(out), line);
    let retired = ledger.pop_front().expect("responding to an item not in the ledger");
    debug_assert_eq!(retired.work.id(), expect_id, "ledger order must match response order");
    inner.lat.total.record_ns(retired.submitted.elapsed().as_nanos() as u64);
    inner.responses.fetch_add(1, Ordering::Relaxed);
}

/// Execute `reqs` (all submitted at `submitted`) on the worker pool,
/// returning per-request result bodies or errors in request order. Each
/// entry compiles under `catch_unwind`: one poisoned request yields one
/// typed `internal` error, never a dead batch or daemon.
fn execute(
    inner: &Inner,
    reqs: &[&CompileRequest],
    submitted: Instant,
) -> Vec<Result<Arc<str>, ServeError>> {
    // Deadlines are decided once, here, on the drainer thread — not
    // inside the workers — so the verdict is independent of worker
    // scheduling.
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
        let verdict = match expired[i] {
            Some(timeout_ms) => Err(ServeError::DeadlineExceeded { timeout_ms }),
            None => match catch_unwind(AssertUnwindSafe(|| inner.svc.compile_body(req))) {
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

/// The drainer thread: pop, execute, respond, until closed and empty.
fn drain(inner: &Inner) {
    loop {
        if let Some(d) = inner.faults.as_ref().and_then(|p| p.stall()) {
            std::thread::sleep(d);
        }
        match next_action(inner) {
            Action::Exit => return,
            Action::Run(entries) => {
                let taken_at = Instant::now();
                for e in &entries {
                    inner
                        .lat
                        .queue_wait
                        .record_ns(taken_at.saturating_duration_since(e.submitted).as_nanos()
                            as u64);
                }
                let panic_at =
                    inner.faults.as_ref().and_then(|p| p.drainer_panic_point(entries.len()));
                if panic_at == Some(0) {
                    panic!("injected drainer panic (before batch execute)");
                }
                // One shared submission time keeps a run's deadline
                // verdicts as conservative as its oldest member.
                let oldest =
                    entries.iter().map(|e| e.submitted).min().expect("non-empty run");
                let reqs: Vec<&CompileRequest> = entries.iter().map(|e| &e.req).collect();
                let results = execute(inner, &reqs, oldest);
                for (k, (entry, result)) in entries.iter().zip(&results).enumerate() {
                    let line = match result {
                        Ok(body) => ok_response(entry.id, body),
                        Err(e) => error_response(entry.id, e),
                    };
                    respond_and_retire(inner, &entry.out, entry.id, &line);
                    if panic_at == Some(k + 1) {
                        panic!("injected drainer panic (mid-batch after {} responses)", k + 1);
                    }
                }
            }
            Action::Batch { id, reqs, out, submitted } => {
                inner.lat.queue_wait.record_ns(submitted.elapsed().as_nanos() as u64);
                let refs: Vec<&CompileRequest> = reqs.iter().collect();
                let results = execute(inner, &refs, submitted);
                let elements: Vec<String> = results
                    .iter()
                    .map(|r| match r {
                        Ok(body) => body.to_string(),
                        Err(e) => error_object(e),
                    })
                    .collect();
                respond_and_retire(inner, &out, id, &batch_response(id, &elements));
            }
            Action::Machines { id, out } => {
                respond_and_retire(
                    inner,
                    &out,
                    id,
                    &ok_response(id, &inner.svc.machines_object()),
                );
            }
            Action::Stats { id, out } => {
                let result = format!(
                    "{{\"cache\":{},\"queue\":{{{}}}}}",
                    inner.svc.stats_object(),
                    inner.stats().counters_json()
                );
                respond_and_retire(inner, &out, id, &ok_response(id, &result));
            }
            Action::Metrics { id, out } => {
                let result = metrics_object(inner);
                respond_and_retire(inner, &out, id, &ok_response(id, &result));
            }
            Action::Shutdown { id, out } => {
                respond_and_retire(inner, &out, id, &ok_response(id, "{\"shutdown\":true}"));
                lock_recover(&inner.q).closed = true;
                inner.cv.notify_all();
            }
        }
    }
}

/// Render the `metrics` verb's result object: live queue/ledger gauges,
/// the queue counters, global and per-shard cache stats, fault counters
/// and per-phase latency percentiles — one canonical line.
fn metrics_object(inner: &Inner) -> String {
    let (depth, weight, clients) = {
        let q = lock_recover(&inner.q);
        let registered = q.clients.values().filter(|c| c.registered).count();
        (q.total_items(), q.weight, registered)
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
         \"shards\":{},\"faults\":{faults},\"latency\":{}}}",
        qs.counters_json(),
        inner.svc.stats_object(),
        crate::metrics::shards_json(&inner.svc.shard_stats()),
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
        let w = item.work.weight();
        q.weight += w;
        let c = q
            .clients
            .entry(item.client)
            .or_insert_with(|| ClientQ::new(1, false));
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
        let _ = write_line(&mut *lock_recover(&item.out), &error_response(item.work.id(), &e));
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

    #[test]
    fn bounded_queue_rejects_overload() {
        let svc = Arc::new(ServeService::in_memory());
        // Huge batch_max + long flush keep submissions queued, so the
        // third compile must bounce off the cap deterministically.
        let b = Batcher::new(
            svc,
            BatchConfig { batch_max: 64, flush_ms: 60_000, queue_cap: 2, jobs: 1 },
        );
        let (sink, _buf) = buffer();
        let mut reqs = suite_requests(3).into_iter();
        b.submit(reqs.next().unwrap(), Arc::clone(&sink)).unwrap();
        b.submit(reqs.next().unwrap(), Arc::clone(&sink)).unwrap();
        let e = b.submit(reqs.next().unwrap(), Arc::clone(&sink)).unwrap_err();
        assert!(matches!(e, ServeError::Overloaded { cap: 2, .. }));
        assert!(e.retry_after().unwrap() > Duration::ZERO, "hint must be non-zero");
        assert_eq!(b.stats().rejected, 1);
        b.close();
        b.join().unwrap();
    }

    #[test]
    fn retry_hint_grows_with_queue_depth() {
        let svc = Arc::new(ServeService::in_memory());
        let b = Batcher::new(
            svc,
            BatchConfig { batch_max: 2, flush_ms: 60_000, queue_cap: 64, jobs: 1 },
        );
        let (sink, _buf) = buffer();
        let empty_hint = b.retry_after_hint();
        for r in suite_requests(6) {
            b.submit(r, Arc::clone(&sink)).unwrap();
        }
        // Six queued compiles at batch_max=2 is (at least) three more
        // flush intervals of backlog than an empty queue.
        assert!(
            b.retry_after_hint() > empty_hint,
            "{} vs {empty_hint}",
            b.retry_after_hint()
        );
        b.close();
        b.join().unwrap();
    }

    #[test]
    fn greedy_client_is_capped_at_its_share_not_the_whole_queue() {
        let svc = Arc::new(ServeService::in_memory());
        // Long flush + big batch keep everything queued during the test.
        let b = Batcher::new(
            svc,
            BatchConfig { batch_max: 64, flush_ms: 60_000, queue_cap: 9, jobs: 1 },
        );
        let greedy = b.register_client(1);
        let light = b.register_client(1);
        // Default client (share 1) + two registered: share_total = 3, so
        // each client's quota is 9/3 = 3.
        let (sink, _buf) = buffer();
        let mut reqs = suite_requests(9).into_iter();
        for _ in 0..3 {
            b.submit_for(greedy, reqs.next().unwrap(), Arc::clone(&sink)).unwrap();
        }
        let e = b.submit_for(greedy, reqs.next().unwrap(), Arc::clone(&sink)).unwrap_err();
        assert!(
            matches!(e, ServeError::Overloaded { cap: 3, .. }),
            "greedy must bounce off its quota, got {e:?}"
        );
        // The light client still gets its full share.
        for _ in 0..3 {
            b.submit_for(light, reqs.next().unwrap(), Arc::clone(&sink)).unwrap();
        }
        let e = b.submit_for(light, reqs.next().unwrap(), Arc::clone(&sink)).unwrap_err();
        assert!(matches!(e, ServeError::Overloaded { cap: 3, .. }));
        b.close();
        b.join().unwrap();
    }

    #[test]
    fn drain_round_robins_across_clients() {
        let svc = Arc::new(ServeService::in_memory());
        // Nothing flushes until close(): deadline far away, batch_max
        // bigger than the workload, no non-compile verbs queued.
        let b = Batcher::new(
            svc,
            BatchConfig { batch_max: 64, flush_ms: 60_000, queue_cap: 64, jobs: 1 },
        );
        let a = b.register_client(1);
        let c = b.register_client(1);
        let (sink, buf) = buffer();
        let mut reqs = suite_requests(8).into_iter();
        // Client a gets ids 0..4 first, then client c gets ids 4..8: a
        // FIFO drain would answer all of a before any of c.
        let mut ids = (0..8u64).map(|i| {
            let Request::Compile { req, .. } = reqs.next().unwrap() else { panic!() };
            Request::Compile { id: i, req }
        });
        for _ in 0..4 {
            b.submit_for(a, ids.next().unwrap(), Arc::clone(&sink)).unwrap();
        }
        for _ in 0..4 {
            b.submit_for(c, ids.next().unwrap(), Arc::clone(&sink)).unwrap();
        }
        b.close();
        b.join().unwrap();
        let out = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let order: Vec<u64> = out
            .lines()
            .map(|l| {
                let rest = l.strip_prefix("{\"id\":").unwrap();
                rest[..rest.find(',').unwrap()].parse().unwrap()
            })
            .collect();
        assert_eq!(
            order,
            vec![0, 4, 1, 5, 2, 6, 3, 7],
            "responses must interleave one per client per cycle: {out}"
        );
    }

    #[test]
    fn deregistered_client_frees_its_share() {
        let svc = Arc::new(ServeService::in_memory());
        let b = Batcher::new(
            svc,
            BatchConfig { batch_max: 64, flush_ms: 60_000, queue_cap: 8, jobs: 1 },
        );
        let a = b.register_client(3);
        // default(1) + a(3): quota for default is 8*1/4 = 2.
        let (sink, _buf) = buffer();
        let mut reqs = suite_requests(6).into_iter();
        b.submit(reqs.next().unwrap(), Arc::clone(&sink)).unwrap();
        b.submit(reqs.next().unwrap(), Arc::clone(&sink)).unwrap();
        let e = b.submit(reqs.next().unwrap(), Arc::clone(&sink)).unwrap_err();
        assert!(matches!(e, ServeError::Overloaded { cap: 2, .. }));
        // After a disconnects, the default client has the queue to
        // itself again (quota 8) and submitting as a is refused.
        b.deregister_client(a);
        b.submit(reqs.next().unwrap(), Arc::clone(&sink)).unwrap();
        let e = b.submit_for(a, reqs.next().unwrap(), Arc::clone(&sink)).unwrap_err();
        assert!(matches!(e, ServeError::Internal { .. }), "{e:?}");
        b.close();
        b.join().unwrap();
    }

    #[test]
    fn metrics_verb_reports_gauges_shards_and_latency() {
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
            "\"shards\":[{\"lookups\":",
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
