//! The thread-pool front-end: the cross-query batcher over the shared
//! [`Executor`].
//!
//! ```text
//!   submit(shape, binding)
//!        │
//!        ▼
//!   ┌──────────────────┐
//!   │  request queue   │  ids in arrival order
//!   │ (Mutex+Condvar)  │
//!   └──────────────────┘
//!      │ take_batch:         │ take_batch: its own request
//!      │ the oldest request  │ and the later same-shape ones
//!      ▼                     ▼
//!   ┌──────────────┐    ┌──────────────────────────┐
//!   │ worker pool  │    │ Ticket::wait, still      │
//!   │              │    │ queued: the caller runs  │
//!   └──────────────┘    └──────────────────────────┘
//!        run_batch: one snapshot, one batched pass
//! ```
//!
//! Every submit queues and wakes a worker. A batch is one queued
//! request plus every later queued request for the *same shape* (up to
//! [`ServeConfig::max_batch`]), answered by one
//! [`Executor::solve_batch`] pass: the shared plan is looked up once,
//! the parameter-carrying factors are restricted to the merged binding
//! set, and each requester receives its slice — bit-identical to a solo
//! pass on exact semirings. Workers take the oldest request's batch. A
//! [`Ticket::wait`] whose request no worker has taken yet takes that
//! request's batch and runs it on the calling thread, so a caller that
//! reads right after it submits is not handed to a worker and back.
//! `max_batch: 1` is per-query dispatch; everything else is unchanged.

use crate::error::ServeError;
use crate::registry::{Registry, ShapeId};
use faqs_exec::{CacheStats, Executor};
use faqs_hypergraph::{EdgeId, Var};
use faqs_relation::{FaqQuery, Relation, RelationDelta, Snapshot};
use faqs_semiring::Semiring;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, Weak};

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

/// A pending reply handle. It holds the server weakly, so an
/// outstanding ticket never keeps the server's workers or data alive.
pub struct Ticket<S: Semiring> {
    id: u64,
    shared: Weak<Shared<S>>,
    rx: mpsc::Receiver<Result<Answer<S>, ServeError>>,
}

impl<S: Semiring> std::fmt::Debug for Ticket<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket").finish_non_exhaustive()
    }
}

impl<S: Semiring> Ticket<S> {
    /// Blocks until the answer (or failure) arrives. If no worker has
    /// taken the request yet, the calling thread runs its batch: the
    /// request plus the later queued ones of its shape. A server gone
    /// with the request unanswered yields [`ServeError::Shutdown`].
    pub fn wait(self) -> Result<Answer<S>, ServeError> {
        match self.rx.try_recv() {
            Ok(reply) => return reply,
            Err(mpsc::TryRecvError::Disconnected) => return Err(ServeError::Shutdown),
            Err(mpsc::TryRecvError::Empty) => {}
        }
        if let Some(shared) = self.shared.upgrade() {
            let batch = {
                let mut queue = lock(&shared.queue);
                match queue.binary_search_by_key(&self.id, |r| r.id) {
                    Ok(at) => take_batch(&mut queue, at, shared.width()),
                    Err(_) => Vec::new(),
                }
            };
            if !batch.is_empty() {
                shared.caller_batches.fetch_add(1, Ordering::Relaxed);
                run_batch(&shared, batch);
            }
        }
        self.rx.recv().unwrap_or(Err(ServeError::Shutdown))
    }
}

struct Request<S: Semiring> {
    /// The `submitted` count when the request was queued: ids rise
    /// along the queue.
    id: u64,
    shape: ShapeId,
    binding: u32,
    reply: mpsc::Sender<Result<Answer<S>, ServeError>>,
}

/// Point-in-time serving counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Batched passes run, by the worker pool or a waiting caller.
    pub batches: u64,
    /// Requests answered through batched passes.
    pub batched: u64,
    /// Widest batch merged so far.
    pub max_width: u64,
    /// Batches a waiting caller ran on its own thread (counted in
    /// `batches` and `batched` too).
    pub caller_batches: u64,
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
    caller_batches: AtomicU64,
}

impl<S: Semiring> Shared<S> {
    fn width(&self) -> usize {
        self.cfg.max_batch.max(1)
    }
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
            caller_batches: AtomicU64::new(0),
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
    /// queue; never blocks on a pass.
    pub fn submit(&self, shape: ShapeId, binding: u32) -> Result<Ticket<S>, ServeError> {
        let shared = &self.shared;
        if shared.shutdown.load(Ordering::Acquire) {
            return Err(ServeError::Shutdown);
        }
        shared.registry.get(shape)?;
        let (tx, rx) = mpsc::channel();
        // The id is taken under the queue lock, so the queue stays
        // sorted by id and a waiter finds its request by binary search.
        let id = {
            let mut queue = lock(&shared.queue);
            let id = shared.submitted.fetch_add(1, Ordering::Relaxed);
            queue.push_back(Request {
                id,
                shape,
                binding,
                reply: tx,
            });
            id
        };
        shared.available.notify_one();
        Ok(Ticket {
            id,
            shared: Arc::downgrade(shared),
            rx,
        })
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
            caller_batches: s.caller_batches.load(Ordering::Relaxed),
            cache: s.executor.cache_stats(),
        }
    }
}

impl<S: Semiring> Drop for FaqServer<S> {
    /// Graceful shutdown: workers drain the queue, then exit; queued
    /// senders dropped unanswered surface [`ServeError::Shutdown`] to
    /// their tickets. Outstanding tickets hold the server weakly and
    /// delay nothing.
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

/// Removes from `queue` the batch that starts at `at`: that request
/// plus the later requests of its shape, up to `width` in all. The
/// requests left behind keep their order; `at` past the end takes
/// nothing.
fn take_batch<S: Semiring>(
    queue: &mut VecDeque<Request<S>>,
    at: usize,
    width: usize,
) -> Vec<Request<S>> {
    let Some(rest) = queue.len().checked_sub(at) else {
        return Vec::new();
    };
    // One rotation: the requests before `at` move to the back, then
    // each later request is popped once and either batched or put back
    // behind them.
    queue.rotate_left(at);
    let mut batch: Vec<Request<S>> = Vec::new();
    for _ in 0..rest {
        let Some(req) = queue.pop_front() else { break };
        match batch.first() {
            Some(first) if batch.len() >= width || req.shape != first.shape => {
                queue.push_back(req);
            }
            _ => batch.push(req),
        }
    }
    batch
}

/// Runs one same-shape batch taken from the queue — by a worker or by
/// a waiting caller — in one [`Executor::solve_batch`] pass against one
/// snapshot, so every merged request sees the same epoch, and replies
/// to each requester.
fn run_batch<S: Semiring>(shared: &Shared<S>, batch: Vec<Request<S>>) {
    let Some(first) = batch.first() else { return };
    shared.batches.fetch_add(1, Ordering::Relaxed);
    shared
        .batched
        .fetch_add(batch.len() as u64, Ordering::Relaxed);
    shared
        .max_width
        .fetch_max(batch.len() as u64, Ordering::Relaxed);
    // One failed pass fails every merged request — exactly what each
    // solo pass would have hit (same shape, same snapshot); WorkerPanic
    // included, so a poisoned query cannot unwind through (and kill) the
    // worker or the caller running it.
    let answered = shared.registry.get(first.shape).and_then(|entry| {
        let snap = entry.cell.load();
        let bindings: Vec<u32> = batch.iter().map(|r| r.binding).collect();
        let slices = shared
            .executor
            .solve_batch(snap.value(), entry.param, &bindings)?;
        Ok((slices, snap.epoch()))
    });
    match answered {
        Ok((slices, epoch)) => {
            for (req, relation) in batch.into_iter().zip(slices) {
                let _ = req.reply.send(Ok(Answer { relation, epoch }));
            }
        }
        Err(e) => {
            for req in batch {
                let _ = req.reply.send(Err(e.clone()));
            }
        }
    }
}

fn worker_loop<S: Semiring>(shared: &Shared<S>) {
    loop {
        let batch = {
            let mut queue = lock(&shared.queue);
            loop {
                let batch = take_batch(&mut queue, 0, shared.width());
                if !batch.is_empty() {
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
        run_batch(shared, batch);
    }
}

/// Locks the queue, adopting a panicked holder's state (the queue is
/// structurally consistent after any push/pop).
fn lock<'a, S: Semiring>(
    m: &'a Mutex<VecDeque<Request<S>>>,
) -> std::sync::MutexGuard<'a, VecDeque<Request<S>>> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use faqs_semiring::Count;

    /// A queue of requests for the given shapes, ids 0, 1, … in order.
    fn queue(shapes: &[usize]) -> VecDeque<Request<Count>> {
        shapes
            .iter()
            .zip(0..)
            .map(|(&shape, id)| Request {
                id,
                shape: ShapeId(shape),
                binding: 0,
                reply: mpsc::channel().0,
            })
            .collect()
    }

    fn ids<'a>(requests: impl IntoIterator<Item = &'a Request<Count>>) -> Vec<u64> {
        requests.into_iter().map(|r| r.id).collect()
    }

    #[test]
    fn take_batch_starts_at_its_request_and_gathers_later_same_shape_ones() {
        let mut q = queue(&[0, 1, 0, 1, 1, 0, 1, 1]);
        let batch = take_batch(&mut q, 1, 3);
        assert_eq!(ids(&batch), [1, 3, 4], "shape 1 from index 1, up to 3");
        assert_eq!(ids(&q), [0, 2, 5, 6, 7], "the rest keep arrival order");

        // The worker's call: the oldest request and its shape's later ones.
        let mut q = queue(&[2, 0, 2, 1, 2]);
        assert_eq!(ids(&take_batch(&mut q, 0, 16)), [0, 2, 4]);
        assert_eq!(ids(&q), [1, 3]);
    }

    #[test]
    fn take_batch_of_width_one_takes_exactly_its_request() {
        let mut q = queue(&[0, 0, 0, 0]);
        assert_eq!(ids(&take_batch(&mut q, 2, 1)), [2]);
        assert_eq!(ids(&q), [0, 1, 3]);
    }

    #[test]
    fn take_batch_past_the_end_takes_nothing() {
        for at in [3, 4, 9] {
            let mut q = queue(&[0, 1, 0]);
            assert!(take_batch(&mut q, at, 4).is_empty(), "at {at}");
            assert_eq!(ids(&q), [0, 1, 2], "at {at}: the queue is untouched");
        }
        assert!(take_batch(&mut queue(&[]), 0, 4).is_empty());
    }

    #[test]
    fn a_ticket_holds_the_server_weakly() {
        let server = FaqServer::<Count>::new(ServeConfig::default());
        let r = Relation::from_pairs(vec![Var(0), Var(1)], [(vec![0, 1], Count(1))]);
        let q = FaqQuery::new_ss(faqs_hypergraph::star_query(1), vec![r], vec![Var(0)], 2);
        let shape = server.register(q, Var(0)).unwrap();
        let ticket = server.submit(shape, 0).unwrap();
        drop(server);
        assert!(
            ticket.shared.upgrade().is_none(),
            "nothing of the server is left"
        );
        assert_eq!(
            ticket.wait().map(|a| a.relation.total()),
            Ok(Count(1)),
            "the draining workers answered it"
        );
    }
}
