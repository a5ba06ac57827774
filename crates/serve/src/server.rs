//! The thread-pool front-end: the cross-query batcher over the shared
//! [`Executor`].
//!
//! ```text
//!   submit(shape, binding)
//!        │
//!        ▼
//!   ┌──────────────────┐  same-shape merge   ┌─────────────────┐
//!   │  request queue   │────────────────────▶│ worker pool:    │
//!   │ (Mutex+Condvar)  │  up to `max_batch`  │ one snapshot,   │
//!   └──────────────────┘                     │ one batched pass│
//!                                            └─────────────────┘
//! ```
//!
//! Every submit queues. Workers drain the queue in arrival order, but
//! pull every queued request for the *same shape* (up to
//! [`ServeConfig::max_batch`]) into one [`Executor::solve_batch`] pass:
//! the shared plan is looked up once, the parameter-carrying factors
//! are restricted to the merged binding set, and each requester
//! receives its slice — bit-identical to a solo pass on exact
//! semirings. `max_batch: 1` is per-query
//! dispatch; everything else is unchanged.

use crate::error::ServeError;
use crate::registry::{Registry, ShapeEntry, ShapeId};
use faqs_exec::{CacheStats, Executor};
use faqs_hypergraph::{EdgeId, Var};
use faqs_relation::{FaqQuery, Relation, RelationDelta, Snapshot};
use faqs_semiring::Semiring;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};

/// Serving-layer tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Worker threads draining the request queue.
    pub workers: usize,
    /// Most bindings merged into one batched pass.
    pub max_batch: usize,
    /// Read by nothing: kept so that callers building the config by
    /// struct literal still compile.
    #[doc(hidden)]
    pub cheap_cpu: u64,
    /// Read by nothing: kept so that callers building the config by
    /// struct literal still compile.
    #[doc(hidden)]
    pub cost_budget: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            max_batch: 16,
            cheap_cpu: 0,
            cost_budget: u64::MAX,
        }
    }
}

/// An answered query: the per-binding slice plus the epoch of the
/// template version it was computed against.
#[derive(Clone, Debug, PartialEq)]
pub struct Answer<S: Semiring> {
    /// The answer relation in the template's free-variable schema,
    /// restricted to the submitted binding.
    pub relation: Relation<S>,
    /// The registry epoch the pass ran against — all requests merged
    /// into one batch share it (snapshot consistency).
    pub epoch: u64,
}

/// A pending reply handle.
pub struct Ticket<S: Semiring> {
    rx: mpsc::Receiver<Result<Answer<S>, ServeError>>,
}

impl<S: Semiring> std::fmt::Debug for Ticket<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket").finish_non_exhaustive()
    }
}

impl<S: Semiring> Ticket<S> {
    /// Blocks until the answer (or failure) arrives. A server dropped
    /// with the request still queued yields [`ServeError::Shutdown`].
    pub fn wait(self) -> Result<Answer<S>, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::Shutdown))
    }
}

struct Request<S: Semiring> {
    shape: ShapeId,
    binding: u32,
    reply: mpsc::Sender<Result<Answer<S>, ServeError>>,
}

/// Point-in-time serving counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Batched passes executed by the worker pool.
    pub batches: u64,
    /// Requests answered through batched passes.
    pub batched: u64,
    /// Widest batch merged so far.
    pub max_width: u64,
    /// The shared executor's plan-cache counters.
    pub cache: CacheStats,
}

struct Shared<S: Semiring> {
    registry: Registry<S>,
    executor: Executor,
    cfg: ServeConfig,
    queue: Mutex<VecDeque<Request<S>>>,
    available: Condvar,
    shutdown: AtomicBool,
    submitted: AtomicU64,
    batches: AtomicU64,
    batched: AtomicU64,
    max_width: AtomicU64,
}

/// The serving front-end: a registry of mutable query shapes and a
/// worker pool that merges same-shape requests into single batched
/// passes.
pub struct FaqServer<S: Semiring> {
    shared: Arc<Shared<S>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl<S: Semiring> FaqServer<S> {
    /// A server with the given configuration and a default executor.
    pub fn new(cfg: ServeConfig) -> Self {
        Self::with_executor(cfg, Executor::default())
    }

    /// A server over the given executor: its plan cache and calibration
    /// registry are shared by all workers.
    pub fn with_executor(cfg: ServeConfig, executor: Executor) -> Self {
        let shared = Arc::new(Shared {
            registry: Registry::new(),
            executor,
            cfg,
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            submitted: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batched: AtomicU64::new(0),
            max_width: AtomicU64::new(0),
        });
        let workers = (0..cfg.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        FaqServer { shared, workers }
    }

    /// Registers a query template whose free variable `param` is the
    /// per-request binding site. The template is validated and planned
    /// up front; shapes the planner rejects fail here, not per query.
    pub fn register(&self, template: FaqQuery<S>, param: Var) -> Result<ShapeId, ServeError> {
        self.shared.registry.register(template, param)
    }

    /// Submits one binding of a registered shape to the batching
    /// worker pool.
    pub fn submit(&self, shape: ShapeId, binding: u32) -> Result<Ticket<S>, ServeError> {
        let shared = &self.shared;
        if shared.shutdown.load(Ordering::Acquire) {
            return Err(ServeError::Shutdown);
        }
        shared.registry.get(shape)?;
        shared.submitted.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = mpsc::channel();
        let request = Request {
            shape,
            binding,
            reply: tx,
        };
        lock(&shared.queue).push_back(request);
        shared.available.notify_one();
        Ok(Ticket { rx })
    }

    /// [`FaqServer::submit`] + [`Ticket::wait`]: the blocking call.
    pub fn query(&self, shape: ShapeId, binding: u32) -> Result<Answer<S>, ServeError> {
        self.submit(shape, binding)?.wait()
    }

    /// Applies a [`RelationDelta`] to one factor of a registered shape,
    /// publishing a new version; returns its epoch. In-flight readers
    /// keep their pinned snapshots — a writer never blocks them.
    pub fn apply_delta(
        &self,
        shape: ShapeId,
        edge: EdgeId,
        delta: &RelationDelta<S>,
    ) -> Result<u64, ServeError> {
        self.shared.registry.get(shape)?.apply(edge, delta)
    }

    /// An epoch-pinned snapshot of the shape's current template (the
    /// handle stays valid and unchanged across later deltas).
    pub fn snapshot(&self, shape: ShapeId) -> Result<Snapshot<FaqQuery<S>>, ServeError> {
        Ok(self.shared.registry.get(shape)?.cell.load())
    }

    /// Current serving and plan-cache counters.
    pub fn stats(&self) -> ServeStats {
        let s = &self.shared;
        ServeStats {
            submitted: s.submitted.load(Ordering::Relaxed),
            batches: s.batches.load(Ordering::Relaxed),
            batched: s.batched.load(Ordering::Relaxed),
            max_width: s.max_width.load(Ordering::Relaxed),
            cache: s.executor.cache_stats(),
        }
    }

    /// The batch width: [`ServeConfig::max_batch`], at least 1.
    pub fn batch_width(&self) -> usize {
        self.shared.cfg.max_batch.max(1)
    }
}

impl<S: Semiring> Drop for FaqServer<S> {
    /// Graceful shutdown: workers drain the queue, then exit; queued
    /// senders dropped unanswered surface [`ServeError::Shutdown`] to
    /// their tickets.
    fn drop(&mut self) {
        // Under the queue lock: a worker between its `shutdown` check
        // and its wait would otherwise miss this wake-up and never exit.
        {
            let _queue = lock(&self.shared.queue);
            self.shared.shutdown.store(true, Ordering::Release);
        }
        self.shared.available.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// Answers same-shape `batch` in one [`Executor::solve_batch`] pass
/// against one snapshot — every merged request sees the same epoch —
/// and replies to each requester.
fn answer<S: Semiring>(shared: &Shared<S>, entry: &ShapeEntry<S>, batch: Vec<Request<S>>) {
    let snap = entry.cell.load();
    let bindings: Vec<u32> = batch.iter().map(|r| r.binding).collect();
    match shared
        .executor
        .solve_batch(snap.value(), entry.param, &bindings)
    {
        Ok(slices) => {
            for (req, relation) in batch.into_iter().zip(slices) {
                let _ = req.reply.send(Ok(Answer {
                    relation,
                    epoch: snap.epoch(),
                }));
            }
        }
        Err(e) => {
            // One failed pass fails every merged request — exactly
            // what each solo pass would have hit (same shape, same
            // snapshot); WorkerPanic included, so a poisoned query
            // cannot unwind through (and kill) this pool thread.
            for req in batch {
                let _ = req.reply.send(Err(ServeError::Engine(e.clone())));
            }
        }
    }
}

fn worker_loop<S: Semiring>(shared: &Shared<S>) {
    let width = shared.cfg.max_batch.max(1);
    loop {
        // Take the oldest request plus every queued same-shape request
        // (up to the batch width), preserving arrival order: one
        // rotation pops each queued request once and either batches it
        // or puts it back behind the ones already put back.
        let batch: Vec<Request<S>> = {
            let mut queue = lock(&shared.queue);
            loop {
                if let Some(first) = queue.pop_front() {
                    let mut batch = vec![first];
                    for _ in 0..queue.len() {
                        let Some(req) = queue.pop_front() else { break };
                        if batch.len() < width && req.shape == batch[0].shape {
                            batch.push(req);
                        } else {
                            queue.push_back(req);
                        }
                    }
                    break batch;
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                queue = shared
                    .available
                    .wait(queue)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };

        shared.batches.fetch_add(1, Ordering::Relaxed);
        shared
            .batched
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        shared
            .max_width
            .fetch_max(batch.len() as u64, Ordering::Relaxed);

        let entry = match shared.registry.get(batch[0].shape) {
            Ok(e) => e,
            Err(e) => {
                for req in batch {
                    let _ = req.reply.send(Err(e.clone()));
                }
                continue;
            }
        };
        answer(shared, &entry, batch);
    }
}

/// Locks the queue, adopting a panicked holder's state (the queue is
/// structurally consistent after any push/pop).
fn lock<'a, S: Semiring>(
    m: &'a Mutex<VecDeque<Request<S>>>,
) -> std::sync::MutexGuard<'a, VecDeque<Request<S>>> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
