//! The job layer: a per-job state machine behind one store and the
//! bounded MPMC queue feeding the worker pool.
//!
//! Lifecycle (see DESIGN.md for the full diagram):
//!
//! ```text
//! POST /v1/batches ──▶ Queued ──▶ Running ──▶ Done ──── DELETE ──▶ (removed)
//!                        │           │                      │
//!                        └── DELETE ─┴──────▶ Cancelled ── DELETE
//! ```
//!
//! A `DELETE` never yanks an unfinished job out of the pipeline — it
//! fires the job's [`CancelToken`] and lets the run settle. A queued
//! job still gets claimed by a worker and runs against its
//! already-fired token, which is the engine's all-cancelled fast path:
//! every page comes back `Cancelled`/degraded, byte-identical to an
//! in-process run with a pre-fired token. That keeps exactly one code
//! path producing results and keeps cancelled jobs queryable like any
//! finished job. A `DELETE` on a finished job removes it, results
//! included, so a client that deletes what it has read keeps the store
//! to its jobs in flight.
//!
//! **One lock each.** The store is one `Mutex<HashMap>` and the queue
//! one `Mutex<VecDeque>` + `Condvar`; a push wakes a parked worker
//! directly. Every critical section is a map or deque operation, far
//! shorter than the request around it. Ids stay dense and monotone
//! ([`AtomicU64`], no lock at all).
//!
//! **Poison recovery.** Every lock acquisition recovers from
//! poisoning instead of panicking: the job map and queue deque hold
//! plain data whose invariants do not span the critical section, so a
//! worker that panicked while holding a lock (already isolated per
//! page by `catch_unwind` upstream) must degrade that one job, not
//! wedge every future request into a `lock().expect()` panic cascade.

use metaform_extractor::AdaptiveBatch;
use metaform_parser::CancelToken;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::{Condvar, Mutex, MutexGuard};

/// Locks with poison recovery: a panic under the lock marks the data
/// un-poisoned and keeps serving. See the module docs for why that is
/// sound here.
fn lock_clean<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poisoned| {
        mutex.clear_poison();
        poisoned.into_inner()
    })
}

/// Where a job is in its lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobPhase {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is extracting it.
    Running,
    /// Finished; results available; no cancellation observed.
    Done,
    /// Finished with its cancel token fired; results (degraded for the
    /// abandoned pages) still available.
    Cancelled,
}

impl JobPhase {
    /// Stable serialization name.
    pub fn as_str(self) -> &'static str {
        match self {
            JobPhase::Queued => "queued",
            JobPhase::Running => "running",
            JobPhase::Done => "done",
            JobPhase::Cancelled => "cancelled",
        }
    }

    /// True once results are available.
    pub fn is_finished(self) -> bool {
        matches!(self, JobPhase::Done | JobPhase::Cancelled)
    }
}

/// One submitted batch job.
#[derive(Debug)]
pub struct Job {
    /// The submitted pages, shared with the worker that runs them.
    pub pages: Arc<Vec<String>>,
    /// Per-job override of the adaptive retry cap, when the submission
    /// carried one.
    pub max_retries: Option<usize>,
    /// This job's cancel token; `DELETE` fires it.
    pub token: CancelToken,
    /// Lifecycle phase.
    pub phase: JobPhase,
    /// The finished run, present once `phase.is_finished()`.
    pub result: Option<AdaptiveBatch>,
}

/// All jobs the service knows, keyed by id. Ids are dense and
/// monotone (a removed id is never reused); jobs are kept after
/// completion so results stay queryable until a `DELETE` removes them
/// (the work-queue protocol has no expiry).
#[derive(Debug, Default)]
pub struct JobStore {
    jobs: Mutex<HashMap<u64, Job>>,
    next_id: AtomicU64,
}

impl JobStore {
    /// Registers a new queued job, returning its id.
    pub fn create(&self, pages: Vec<String>, max_retries: Option<usize>) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let job = Job {
            pages: Arc::new(pages),
            max_retries,
            token: CancelToken::new(),
            phase: JobPhase::Queued,
            result: None,
        };
        lock_clean(&self.jobs).insert(id, job);
        id
    }

    /// Runs `f` on the job, if it exists.
    pub fn with_job<T>(&self, id: u64, f: impl FnOnce(&Job) -> T) -> Option<T> {
        lock_clean(&self.jobs).get(&id).map(f)
    }

    /// Claims the job for a worker: marks it `Running` and hands back
    /// what the run needs. Returns `None` for an unknown id.
    pub fn claim(&self, id: u64) -> Option<(Arc<Vec<String>>, Option<usize>, CancelToken)> {
        let mut jobs = lock_clean(&self.jobs);
        let job = jobs.get_mut(&id)?;
        job.phase = JobPhase::Running;
        Some((Arc::clone(&job.pages), job.max_retries, job.token.clone()))
    }

    /// Records a finished run. The final phase reads the token, not the
    /// batch: a token fired mid-run settles as `Cancelled` even if
    /// every page had already completed.
    pub fn finish(&self, id: u64, result: AdaptiveBatch) {
        let mut jobs = lock_clean(&self.jobs);
        if let Some(job) = jobs.get_mut(&id) {
            job.phase = if job.token.is_cancelled() {
                JobPhase::Cancelled
            } else {
                JobPhase::Done
            };
            job.result = Some(result);
        }
    }

    /// Snapshot of every known job as `(id, phase, pages)`, sorted by
    /// id, for the `/v1/jobs` listing. Ids are dense and monotone, so
    /// the sort is submission order.
    pub fn list(&self) -> Vec<(u64, JobPhase, usize)> {
        let mut out: Vec<(u64, JobPhase, usize)> = lock_clean(&self.jobs)
            .iter()
            .map(|(&id, job)| (id, job.phase, job.pages.len()))
            .collect();
        out.sort_unstable_by_key(|&(id, _, _)| id);
        out
    }

    /// Forgets a job that was never accepted into the queue (the
    /// submit path backs out a registration when the queue is full).
    pub fn remove(&self, id: u64) {
        lock_clean(&self.jobs).remove(&id);
    }

    /// The `DELETE` transition: removes a finished job, fires an
    /// unfinished job's cancel token. Returns the phase the job was
    /// in, or `None` for an unknown id.
    pub fn delete(&self, id: u64) -> Option<JobPhase> {
        let mut jobs = lock_clean(&self.jobs);
        let phase = jobs.get(&id)?.phase;
        if phase.is_finished() {
            jobs.remove(&id);
        } else {
            jobs[&id].token.cancel();
        }
        Some(phase)
    }
}

/// The bounded FIFO queue between the HTTP handlers (producers) and
/// the worker pool (consumers): one `Mutex<VecDeque>` + `Condvar`.
/// Capacity and shutdown are checked under the lock, and every push
/// wakes one parked consumer.
#[derive(Debug)]
pub struct JobQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
    capacity: usize,
}

#[derive(Debug, Default)]
struct QueueState {
    ids: VecDeque<u64>,
    shutdown: bool,
}

impl JobQueue {
    /// An empty queue holding at most `capacity` queued jobs
    /// (`capacity` 0 is promoted to 1 — a queue that can never accept
    /// would deadlock the service).
    pub fn new(capacity: usize) -> Self {
        JobQueue {
            state: Mutex::default(),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueues a job id. `Err` when the queue is at capacity or
    /// shutting down — the caller answers 503 and the job is never
    /// queued.
    pub fn push(&self, id: u64) -> Result<(), u64> {
        let mut state = lock_clean(&self.state);
        if state.shutdown || state.ids.len() >= self.capacity {
            return Err(id);
        }
        state.ids.push_back(id);
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks until a job is available or the queue shuts down.
    /// Returns `None` only when shut down **and** drained, so every
    /// accepted job is still run during a graceful shutdown.
    ///
    /// The argument is ignored; it stays because perfbench calls `pop(0)`.
    pub fn pop(&self, _worker: usize) -> Option<u64> {
        let mut state = lock_clean(&self.state);
        loop {
            if let Some(id) = state.ids.pop_front() {
                return Some(id);
            }
            if state.shutdown {
                return None;
            }
            state = self.ready.wait(state).unwrap_or_else(|poisoned| {
                self.state.clear_poison();
                poisoned.into_inner()
            });
        }
    }

    /// Stops accepting jobs and wakes every blocked worker. Queued jobs
    /// still drain.
    pub fn shutdown(&self) {
        lock_clean(&self.state).shutdown = true;
        self.ready.notify_all();
    }

    /// Jobs currently queued.
    pub fn depth(&self) -> usize {
        lock_clean(&self.state).ids.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn store_walks_the_lifecycle() {
        let store = JobStore::default();
        let id = store.create(vec!["<form>A</form>".to_string()], Some(1));
        assert_eq!(store.with_job(id, |j| j.phase), Some(JobPhase::Queued));
        assert_eq!(store.with_job(id, |j| j.pages.len()), Some(1));

        let (pages, retries, token) = store.claim(id).expect("claims");
        assert_eq!(pages.len(), 1);
        assert_eq!(retries, Some(1));
        assert!(!token.is_cancelled());
        assert_eq!(store.with_job(id, |j| j.phase), Some(JobPhase::Running));

        store.finish(id, AdaptiveBatch::default());
        assert_eq!(store.with_job(id, |j| j.phase), Some(JobPhase::Done));
        assert!(store
            .with_job(id, |j| j.result.is_some())
            .expect("job exists"));

        // Unknown ids are None everywhere.
        assert!(store.with_job(999, |_| ()).is_none());
        assert!(store.claim(999).is_none());
        assert!(store.delete(999).is_none());
    }

    #[test]
    fn delete_fires_the_token_and_the_finish_phase_reads_it() {
        let store = JobStore::default();
        let id = store.create(vec![], None);
        let was = store.delete(id).expect("job exists");
        assert_eq!(was, JobPhase::Queued);
        let (_, _, token) = store.claim(id).expect("claims");
        assert!(token.is_cancelled(), "cancel fired the shared token");
        store.finish(id, AdaptiveBatch::default());
        assert_eq!(store.with_job(id, |j| j.phase), Some(JobPhase::Cancelled));
        assert!(JobPhase::Cancelled.is_finished());
        assert_eq!(JobPhase::Cancelled.as_str(), "cancelled");
        // Finished, a second delete removes the job.
        assert_eq!(store.delete(id), Some(JobPhase::Cancelled));
        assert!(store.with_job(id, |_| ()).is_none());
        assert!(store.delete(id).is_none());
    }

    #[test]
    fn list_is_sorted_by_id() {
        let store = JobStore::default();
        let a = store.create(vec!["<form>a</form>".to_string()], None);
        let b = store.create(vec![], None);
        let c = store.create(
            vec!["<form>c</form>".to_string(), "<form>d</form>".to_string()],
            None,
        );
        store.claim(b);
        store.claim(c);
        store.finish(c, AdaptiveBatch::default());
        assert_eq!(
            store.list(),
            vec![
                (a, JobPhase::Queued, 1),
                (b, JobPhase::Running, 0),
                (c, JobPhase::Done, 2),
            ]
        );
    }

    #[test]
    fn ids_are_dense_and_monotone() {
        let store = JobStore::default();
        let a = store.create(vec![], None);
        let b = store.create(vec![], None);
        let c = store.create(vec![], None);
        assert!(a < b && b < c);
        assert_eq!(c - a, 2);
    }

    #[test]
    fn store_survives_a_panic_under_the_lock() {
        let store = JobStore::default();
        let id = store.create(vec![], None);
        // Poison the store's mutex.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            store.with_job(id, |_| panic!("worker bug"))
        }));
        // Every operation still works.
        assert_eq!(store.with_job(id, |j| j.phase), Some(JobPhase::Queued));
        let other = store.create(vec![], None);
        assert!(store.claim(other).is_some());
        store.finish(other, AdaptiveBatch::default());
        assert_eq!(store.with_job(other, |j| j.phase), Some(JobPhase::Done));
        assert_eq!(store.list().len(), 2);
    }

    #[test]
    fn queue_bounds_accepts_and_drains_on_shutdown() {
        let q = JobQueue::new(2);
        assert_eq!(q.push(1), Ok(()));
        assert_eq!(q.push(2), Ok(()));
        assert_eq!(q.push(3), Err(3), "over capacity");
        assert_eq!(q.depth(), 2);

        q.shutdown();
        assert_eq!(q.push(4), Err(4), "closed");
        // Shutdown drains what was accepted, then signals exhaustion.
        assert_eq!(q.pop(0), Some(1));
        assert_eq!(q.pop(0), Some(2));
        assert_eq!(q.pop(0), None);
        assert_eq!(q.pop(0), None, "stays exhausted");
    }

    #[test]
    fn pop_is_fifo() {
        let q = JobQueue::new(64);
        for id in 1..=32 {
            q.push(id).expect("accepts");
        }
        let order: Vec<u64> = (0..32).map(|i| q.pop(i).expect("has a job")).collect();
        assert_eq!(order, (1..=32).collect::<Vec<u64>>());
    }

    #[test]
    fn pop_blocks_until_a_push_arrives() {
        let q = Arc::new(JobQueue::new(4));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop(3))
        };
        // Give the consumer a moment to block, then feed it.
        std::thread::sleep(Duration::from_millis(20));
        q.push(7).expect("accepts");
        assert_eq!(consumer.join().expect("joins"), Some(7));
    }

    /// A push must wake the parked consumer at once: the hand-off from
    /// an idle queue to a worker is the latency floor of every job.
    #[test]
    fn pop_wakes_on_push() {
        let q = Arc::new(JobQueue::new(64));
        let (tx, rx) = std::sync::mpsc::channel();
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                while let Some(id) = q.pop(0) {
                    tx.send((id, std::time::Instant::now()))
                        .expect("producer listens");
                }
            })
        };
        let mut handoffs: Vec<Duration> = (1..=64)
            .map(|id| {
                // Let the consumer park on an empty queue first.
                std::thread::sleep(Duration::from_millis(1));
                let pushed = std::time::Instant::now();
                q.push(id).expect("accepts");
                let (got, popped) = rx.recv().expect("consumer pops");
                assert_eq!(got, id);
                popped.duration_since(pushed)
            })
            .collect();
        q.shutdown();
        consumer.join().expect("joins");
        handoffs.sort_unstable();
        let median = handoffs[handoffs.len() / 2];
        assert!(
            median < Duration::from_millis(1),
            "median push-to-pop hand-off {median:?}"
        );
    }

    #[test]
    fn zero_capacity_is_promoted_to_one() {
        let q = JobQueue::new(0);
        assert_eq!(q.push(1), Ok(()));
        assert_eq!(q.push(2), Err(2));
    }
}
