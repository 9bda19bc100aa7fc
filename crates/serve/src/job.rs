//! The generic batch-job lane: tenant queues beside the model queues.
//!
//! A classification [`Request`](crate::batch::Request) is one kind of
//! work the engine's pool executes; a [`Job`] is the other — an opaque,
//! fully-owned closure a *tenant* (typically one design-space study
//! driving a `pax_core` evaluator) ships to the same workers. Tenants
//! register with their own bounded queue, optional job budget and
//! metrics, so concurrent studies and live inference traffic share one
//! pool under per-tenant backpressure instead of each spinning up a
//! private thread pool.
//!
//! Jobs signal their payload's completion themselves (the evaluator's
//! jobs send results over their own channel); the [`JobTicket`] exists
//! for lifecycle observability — it resolves `Done`, `Cancelled` or
//! `Panicked`, never strands, and is safe to drop. A panicking job is
//! caught on the worker, metered, and must never poison the thread.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Condvar, Mutex};
use pax_obs::{Gauge, Histogram, MetricSample, SampleValue};

use crate::batch::CancelReason;

/// One fully-owned unit of tenant work. Deliberately the same shape as
/// `pax_core::explore::FabricJob`, so an evaluator job boxes straight
/// into the engine without re-wrapping.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// Terminal state of one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobOutcome {
    /// The job ran to completion on a worker.
    Done,
    /// The job was dropped before execution (see [`CancelReason`]).
    Cancelled(CancelReason),
    /// The job panicked on the worker. The panic was caught — the
    /// worker survives — and the submitter finds out here (and through
    /// its own completion channel never signalling).
    Panicked,
}

/// One-shot state slot shared between a [`JobTicket`] and the worker
/// that executes (or the sweep that cancels) its job.
#[derive(Debug, Default)]
struct JobSlot {
    state: Mutex<Option<JobOutcome>>,
    ready: Condvar,
}

impl JobSlot {
    /// Resolves the slot. The first fill wins; later fills are no-ops.
    fn fill(&self, outcome: JobOutcome) {
        let mut state = self.state.lock();
        if state.is_none() {
            *state = Some(outcome);
            self.ready.notify_all();
        }
    }
}

/// Handle to one submitted job. Unlike a classification
/// [`Ticket`](crate::batch::Ticket) this carries no payload — jobs
/// report results through their own channels — so dropping it is fine;
/// it exists to observe the job's lifecycle in tests and tooling.
#[derive(Debug)]
pub struct JobTicket {
    slot: Arc<JobSlot>,
}

impl JobTicket {
    /// Blocks until the job executes, cancels or panics.
    pub fn wait(self) -> JobOutcome {
        let mut state = self.slot.state.lock();
        loop {
            if let Some(outcome) = *state {
                return outcome;
            }
            self.slot.ready.wait(&mut state);
        }
    }

    /// Returns the outcome without blocking, if already available.
    pub fn try_get(&self) -> Option<JobOutcome> {
        *self.slot.state.lock()
    }
}

/// One queued job plus its lifecycle bookkeeping.
pub(crate) struct QueuedJob {
    /// `Option` so [`QueuedJob::execute`] can move the closure out of a
    /// type that also implements [`Drop`].
    run: Option<Job>,
    pub(crate) enqueued: Instant,
    slot: Arc<JobSlot>,
}

impl QueuedJob {
    pub(crate) fn new(run: Job) -> (Self, JobTicket) {
        let slot = Arc::new(JobSlot::default());
        let ticket = JobTicket { slot: Arc::clone(&slot) };
        (Self { run: Some(run), enqueued: Instant::now(), slot }, ticket)
    }

    /// Runs the job on the calling worker, catching a panic so one bad
    /// job cannot poison the thread. Returns `true` if it panicked.
    pub(crate) fn execute(mut self) -> bool {
        let run = self.run.take().expect("a queued job executes at most once");
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)).is_err();
        self.slot.fill(if panicked { JobOutcome::Panicked } else { JobOutcome::Done });
        panicked
    }

    /// Resolves the ticket as cancelled without running the closure.
    pub(crate) fn cancel(self, reason: CancelReason) {
        self.slot.fill(JobOutcome::Cancelled(reason));
    }
}

/// The same strand-proofing safety net requests carry: a job dropped
/// without a verdict resolves its ticket — and, because dropping the
/// closure drops whatever completion channel it captured, its
/// submitter's receiver closes instead of blocking forever.
impl Drop for QueuedJob {
    fn drop(&mut self) {
        self.slot.fill(JobOutcome::Cancelled(CancelReason::Dropped));
    }
}

impl std::fmt::Debug for QueuedJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueuedJob")
            .field("enqueued", &self.enqueued)
            .field("resolved", &self.slot.state.lock().is_some())
            .finish_non_exhaustive()
    }
}

/// Per-tenant knobs for [`ServeEngine::register_tenant`].
///
/// [`ServeEngine::register_tenant`]: crate::ServeEngine::register_tenant
#[derive(Debug, Clone, Copy)]
pub struct TenantOptions {
    /// Bound on the tenant's job queue — the backpressure knob. A full
    /// queue blocks fabric submitters instead of growing unboundedly.
    pub queue_capacity: usize,
    /// Lifetime cap on accepted jobs; `None` is unlimited. Exhaustion
    /// refuses further submissions with a typed error — the engine-side
    /// enforcement of a study's evaluation budget.
    pub budget: Option<u64>,
}

impl Default for TenantOptions {
    fn default() -> Self {
        Self { queue_capacity: 1024, budget: None }
    }
}

/// Why [`TenantEntry::enqueue`] refused a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EnqueueRefusal {
    /// The queue is at capacity — backpressure; retry after a drain.
    Full,
    /// The tenant's job budget is spent — permanent for this tenant.
    Budget,
}

/// One registered tenant: its job queue, budget and metrics.
#[derive(Debug)]
pub(crate) struct TenantEntry {
    pub(crate) name: String,
    queue: Mutex<VecDeque<QueuedJob>>,
    pub(crate) capacity: usize,
    pub(crate) budget: Option<u64>,
    /// Jobs accepted over the tenant's lifetime — charged at enqueue,
    /// never refunded (a cancelled job still consumed a queue slot the
    /// budget was meant to bound).
    budget_spent: AtomicU64,
    pub(crate) metrics: TenantMetrics,
}

impl TenantEntry {
    pub(crate) fn new(name: String, opts: TenantOptions) -> Self {
        Self {
            name,
            queue: Mutex::new(VecDeque::new()),
            capacity: opts.queue_capacity.max(1),
            budget: opts.budget,
            budget_spent: AtomicU64::new(0),
            metrics: TenantMetrics::new(),
        }
    }

    /// Enqueues a job, enforcing the queue bound and the budget. Budget
    /// and capacity are checked under the queue lock, so concurrent
    /// submitters cannot overshoot either.
    pub(crate) fn enqueue(&self, job: QueuedJob) -> Result<(), (QueuedJob, EnqueueRefusal)> {
        let mut queue = self.queue.lock();
        if let Some(budget) = self.budget {
            if self.budget_spent.load(Ordering::Relaxed) >= budget {
                drop(queue);
                self.metrics.on_reject();
                return Err((job, EnqueueRefusal::Budget));
            }
        }
        if queue.len() >= self.capacity {
            drop(queue);
            self.metrics.on_reject();
            return Err((job, EnqueueRefusal::Full));
        }
        self.budget_spent.fetch_add(1, Ordering::Relaxed);
        // Meter before the job is visible to workers (see
        // `ModelEntry::enqueue`).
        self.metrics.on_submit();
        queue.push_back(job);
        Ok(())
    }

    /// Whether any jobs are waiting (work-scan probe; racy by design —
    /// the taker re-checks under the lock).
    pub(crate) fn has_work(&self) -> bool {
        !self.queue.lock().is_empty()
    }

    /// Pops up to `max` jobs. Workers take small chunks so one tenant
    /// with a deep queue cannot monopolize a worker between work-scans.
    pub(crate) fn take_jobs(&self, max: usize) -> Vec<QueuedJob> {
        let mut queue = self.queue.lock();
        let n = queue.len().min(max);
        queue.drain(..n).collect()
    }

    /// Runs one drained chunk on the calling worker, metering each job.
    pub(crate) fn run_jobs(&self, jobs: Vec<QueuedJob>) {
        for job in jobs {
            let enqueued = job.enqueued;
            let panicked = job.execute();
            let latency_ns = u64::try_from(enqueued.elapsed().as_nanos()).unwrap_or(u64::MAX);
            if panicked {
                self.metrics.on_panic(latency_ns);
            } else {
                self.metrics.on_done(latency_ns);
            }
        }
    }

    /// Cancels every queued job (tenant unregistered / engine shutting
    /// down). In-flight jobs already on a worker are unaffected — they
    /// are owned by the worker and run to completion.
    pub(crate) fn cancel_pending(&self, reason: CancelReason) {
        let drained: Vec<QueuedJob> = {
            let mut queue = self.queue.lock();
            queue.drain(..).collect()
        };
        if drained.is_empty() {
            return;
        }
        self.metrics.on_cancel(drained.len());
        for job in drained {
            job.cancel(reason);
        }
    }

    /// Jobs accepted over the tenant's lifetime.
    pub(crate) fn budget_spent(&self) -> u64 {
        self.budget_spent.load(Ordering::Relaxed)
    }

    /// Point-in-time view of the tenant's counters.
    pub(crate) fn snapshot(&self) -> TenantSnapshot {
        let latency = self.metrics.latency.snapshot();
        TenantSnapshot {
            submitted: self.metrics.submitted.load(Ordering::Relaxed),
            completed: self.metrics.completed.load(Ordering::Relaxed),
            cancelled: self.metrics.cancelled.load(Ordering::Relaxed),
            rejected: self.metrics.rejected.load(Ordering::Relaxed),
            panicked: self.metrics.panicked.load(Ordering::Relaxed),
            queue_depth: usize::try_from(self.metrics.queue_depth.get()).unwrap_or(usize::MAX),
            budget: self.budget,
            budget_spent: self.budget_spent(),
            p50_latency_ms: latency.p50() as f64 / 1e6,
            p99_latency_ms: latency.p99() as f64 / 1e6,
        }
    }

    /// Samples for the workspace telemetry snapshot, labelled with the
    /// tenant name under the `fabric` subsystem (model serving owns
    /// `serve`).
    pub(crate) fn samples(&self) -> Vec<MetricSample> {
        let sample = |name: &str, value: SampleValue| MetricSample {
            subsystem: "fabric".to_owned(),
            name: name.to_owned(),
            label: self.name.clone(),
            value,
        };
        vec![
            sample(
                "submitted",
                SampleValue::Counter(self.metrics.submitted.load(Ordering::Relaxed)),
            ),
            sample(
                "completed",
                SampleValue::Counter(self.metrics.completed.load(Ordering::Relaxed)),
            ),
            sample(
                "cancelled",
                SampleValue::Counter(self.metrics.cancelled.load(Ordering::Relaxed)),
            ),
            sample("rejected", SampleValue::Counter(self.metrics.rejected.load(Ordering::Relaxed))),
            sample("panicked", SampleValue::Counter(self.metrics.panicked.load(Ordering::Relaxed))),
            sample("budget_spent", SampleValue::Counter(self.budget_spent())),
            sample("queue_depth", SampleValue::Gauge(self.metrics.queue_depth.get())),
            sample("latency_ns", SampleValue::Histogram(self.metrics.latency.snapshot())),
        ]
    }
}

/// Live counters for one tenant. Same discipline as
/// [`ModelMetrics`](crate::metrics::ModelMetrics): lock-free atomics, a
/// saturating queue gauge, and an enqueue→done latency histogram.
#[derive(Debug)]
pub(crate) struct TenantMetrics {
    submitted: AtomicU64,
    completed: AtomicU64,
    cancelled: AtomicU64,
    rejected: AtomicU64,
    panicked: AtomicU64,
    queue_depth: Gauge,
    latency: Histogram,
}

impl TenantMetrics {
    fn new() -> Self {
        Self {
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            panicked: AtomicU64::new(0),
            queue_depth: Gauge::new(),
            latency: Histogram::new(),
        }
    }

    fn on_submit(&self) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
        self.queue_depth.add(1);
    }

    fn on_reject(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    fn on_done(&self, latency_ns: u64) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.latency.record(latency_ns);
        self.queue_depth.sub(1);
    }

    fn on_panic(&self, latency_ns: u64) {
        self.panicked.fetch_add(1, Ordering::Relaxed);
        self.latency.record(latency_ns);
        self.queue_depth.sub(1);
    }

    fn on_cancel(&self, n: usize) {
        self.cancelled.fetch_add(n as u64, Ordering::Relaxed);
        self.queue_depth.sub(n as u64);
    }

    /// Current queued job count (work-scan / shard-load view).
    pub(crate) fn queue_depth(&self) -> u64 {
        self.queue_depth.get()
    }
}

/// Point-in-time metrics for one tenant.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSnapshot {
    /// Jobs accepted into the queue.
    pub submitted: u64,
    /// Jobs that ran to completion.
    pub completed: u64,
    /// Jobs cancelled before execution.
    pub cancelled: u64,
    /// Jobs refused (queue full or budget spent).
    pub rejected: u64,
    /// Jobs that panicked on a worker (caught; the worker survived).
    pub panicked: u64,
    /// Jobs currently queued.
    pub queue_depth: usize,
    /// The configured lifetime budget, if any.
    pub budget: Option<u64>,
    /// Jobs charged against the budget so far.
    pub budget_spent: u64,
    /// Median enqueue→done latency in milliseconds.
    pub p50_latency_ms: f64,
    /// 99th-percentile enqueue→done latency in milliseconds.
    pub p99_latency_ms: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn job_ticket_resolves_done() {
        let ran = Arc::new(AtomicUsize::new(0));
        let r = Arc::clone(&ran);
        let (job, ticket) = QueuedJob::new(Box::new(move || {
            r.fetch_add(1, Ordering::SeqCst);
        }));
        assert_eq!(ticket.try_get(), None);
        assert!(!job.execute(), "a healthy job does not panic");
        assert_eq!(ran.load(Ordering::SeqCst), 1);
        assert_eq!(ticket.wait(), JobOutcome::Done);
    }

    #[test]
    fn dropped_job_resolves_and_closes_captured_channels() {
        let (tx, rx) = std::sync::mpsc::channel::<u32>();
        let (job, ticket) = QueuedJob::new(Box::new(move || {
            let _ = tx.send(1);
        }));
        drop(job);
        assert_eq!(ticket.wait(), JobOutcome::Cancelled(CancelReason::Dropped));
        assert!(rx.recv().is_err(), "dropping the job must close its captured sender");
    }

    #[test]
    fn panicking_job_is_caught_and_reported() {
        let (job, ticket) = QueuedJob::new(Box::new(|| panic!("job bug")));
        assert!(job.execute(), "the panic must be caught and reported");
        assert_eq!(ticket.wait(), JobOutcome::Panicked);
    }

    #[test]
    fn queue_bound_and_budget_refuse_with_reasons() {
        let t =
            TenantEntry::new("caps".into(), TenantOptions { queue_capacity: 2, budget: Some(3) });
        for _ in 0..2 {
            let (job, _ticket) = QueuedJob::new(Box::new(|| {}));
            assert!(t.enqueue(job).is_ok());
        }
        let (job, _ticket) = QueuedJob::new(Box::new(|| {}));
        let (_, refusal) = t.enqueue(job).unwrap_err();
        assert_eq!(refusal, EnqueueRefusal::Full);

        t.run_jobs(t.take_jobs(usize::MAX));
        let (job, _ticket) = QueuedJob::new(Box::new(|| {}));
        assert!(t.enqueue(job).is_ok(), "budget has one job left");
        let (job, _ticket) = QueuedJob::new(Box::new(|| {}));
        let (_, refusal) = t.enqueue(job).unwrap_err();
        assert_eq!(refusal, EnqueueRefusal::Budget, "budget outranks a free queue slot");

        let snap = t.snapshot();
        assert_eq!(snap.submitted, 3);
        assert_eq!(snap.completed, 2);
        assert_eq!(snap.rejected, 2);
        assert_eq!(snap.budget_spent, 3);
    }

    #[test]
    fn cancel_pending_resolves_tickets_with_the_reason() {
        let t = TenantEntry::new("cancel".into(), TenantOptions::default());
        let (job, ticket) = QueuedJob::new(Box::new(|| {}));
        t.enqueue(job).unwrap();
        t.cancel_pending(CancelReason::Shutdown);
        assert_eq!(ticket.wait(), JobOutcome::Cancelled(CancelReason::Shutdown));
        let snap = t.snapshot();
        assert_eq!(snap.cancelled, 1);
        assert_eq!(snap.queue_depth, 0);
    }

    #[test]
    fn take_jobs_chunks() {
        let t = TenantEntry::new("chunks".into(), TenantOptions::default());
        let mut tickets = Vec::new();
        for _ in 0..5 {
            let (job, ticket) = QueuedJob::new(Box::new(|| {}));
            t.enqueue(job).unwrap();
            tickets.push(ticket);
        }
        assert_eq!(t.take_jobs(2).len(), 2);
        assert!(t.has_work());
        t.run_jobs(t.take_jobs(usize::MAX));
        assert!(!t.has_work());
    }
}
