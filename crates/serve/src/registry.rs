//! Sharded model-and-tenant registry.
//!
//! Models and tenants are spread over a fixed set of shards by name
//! hash, so registration, lookup and the workers' work-scans contend on
//! a per-shard `RwLock` instead of one global table. Each registered
//! model owns its bounded request queue, both backends and its metrics;
//! each registered tenant (a design-space study riding the same worker
//! pool) owns its bounded job queue, budget and metrics. The two live
//! in separate namespaces — a model and a tenant may share a name.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::backend::{Backend, NetlistBackend, QuantBackend};
use crate::batch::{CancelReason, Outcome, Request, LANES};
use crate::job::TenantEntry;
use crate::metrics::ModelMetrics;

/// Number of registry shards. Workers use their index modulo this as a
/// *home* shard and steal from the others, so shard count also bounds
/// how far a work-scan travels.
pub(crate) const SHARDS: usize = 16;

/// Which backend answers live traffic. The other one becomes the
/// auditor that cross-checks sampled batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Primary {
    /// Serve from the simulated approximate netlist — what the printed
    /// hardware would answer. The golden quantized model audits.
    #[default]
    Netlist,
    /// Serve from the golden quantized model (integer MACs, no
    /// simulation). The netlist audits.
    Quant,
}

/// One registered model: backends, queue, metrics, audit policy.
pub(crate) struct ModelEntry {
    pub(crate) name: String,
    pub(crate) netlist: NetlistBackend,
    pub(crate) quant: QuantBackend,
    pub(crate) primary: Primary,
    pub(crate) metrics: ModelMetrics,
    queue: Mutex<VecDeque<Request>>,
    pub(crate) capacity: usize,
    /// Audit every `stride`-th batch; `0` disables auditing.
    pub(crate) audit_stride: u64,
    batch_seq: AtomicU64,
}

impl ModelEntry {
    pub(crate) fn new(
        name: String,
        netlist: NetlistBackend,
        quant: QuantBackend,
        primary: Primary,
        capacity: usize,
        audit_stride: u64,
    ) -> Self {
        Self {
            name,
            netlist,
            quant,
            primary,
            metrics: ModelMetrics::new(),
            queue: Mutex::new(VecDeque::new()),
            capacity,
            audit_stride,
            batch_seq: AtomicU64::new(0),
        }
    }

    pub(crate) fn primary_backend(&self) -> &dyn Backend {
        match self.primary {
            Primary::Netlist => &self.netlist,
            Primary::Quant => &self.quant,
        }
    }

    pub(crate) fn audit_backend(&self) -> &dyn Backend {
        match self.primary {
            Primary::Netlist => &self.quant,
            Primary::Quant => &self.netlist,
        }
    }

    /// Expected input arity.
    pub(crate) fn arity(&self) -> usize {
        self.quant.model().n_inputs()
    }

    /// Maximum representable (unsigned) input value.
    pub(crate) fn input_max(&self) -> i64 {
        self.quant.model().spec.input_max()
    }

    /// Enqueues a request, enforcing the queue bound.
    ///
    /// Returns `false` (and meters a rejection) when the queue is full —
    /// the backpressure signal surfaced to submitters.
    pub(crate) fn enqueue(&self, req: Request) -> bool {
        let mut queue = self.queue.lock();
        if queue.len() >= self.capacity {
            drop(queue);
            self.metrics.on_reject();
            return false;
        }
        // Meter before the request is visible: a worker could otherwise
        // answer it (and decrement the gauge, saturating at zero) before
        // the increment lands, leaving the gauge one too high.
        self.metrics.on_submit();
        queue.push_back(req);
        true
    }

    /// Whether any requests are waiting (used by work-scans; racy by
    /// design — the taker re-checks under the lock).
    pub(crate) fn has_work(&self) -> bool {
        !self.queue.lock().is_empty()
    }

    /// Pops up to [`LANES`] requests — one simulator pass worth.
    pub(crate) fn take_batch(&self) -> Vec<Request> {
        let mut queue = self.queue.lock();
        let n = queue.len().min(LANES);
        queue.drain(..n).collect()
    }

    /// Ticks the batch counter and reports whether this batch should be
    /// cross-checked by the auditor.
    pub(crate) fn should_audit(&self) -> bool {
        if self.audit_stride == 0 {
            return false;
        }
        self.batch_seq.fetch_add(1, Ordering::Relaxed).is_multiple_of(self.audit_stride)
    }

    /// Cancels every queued request with the given reason (model
    /// unregistered / engine shutting down).
    pub(crate) fn cancel_pending(&self, reason: CancelReason) {
        let drained: Vec<Request> = {
            let mut queue = self.queue.lock();
            queue.drain(..).collect()
        };
        if drained.is_empty() {
            return;
        }
        self.metrics.on_cancel(drained.len());
        for req in drained {
            req.slot.fill(Outcome::Cancelled(reason));
        }
    }
}

/// One unit of work a scan can hand a worker: a model with queued
/// requests, or a tenant with queued jobs.
pub(crate) enum Work {
    /// Drain a request batch from this model.
    Batch(Arc<ModelEntry>),
    /// Drain a job chunk from this tenant.
    Jobs(Arc<TenantEntry>),
}

impl std::fmt::Debug for Work {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Work::Batch(e) => write!(f, "Work::Batch({})", e.name),
            Work::Jobs(t) => write!(f, "Work::Jobs({})", t.name),
        }
    }
}

/// One registry shard: the serving models and the evaluation tenants
/// that hash here.
#[derive(Default)]
struct Shard {
    models: HashMap<String, Arc<ModelEntry>>,
    tenants: HashMap<String, Arc<TenantEntry>>,
}

/// The sharded name → entry table for models and tenants.
pub(crate) struct Registry {
    shards: Vec<RwLock<Shard>>,
    /// Rotates the in-shard scan start of [`Registry::find_work`] so a
    /// saturated model (or tenant) cannot starve its shard-mates.
    scan_cursor: AtomicUsize,
}

impl Registry {
    pub(crate) fn new() -> Self {
        Self {
            shards: (0..SHARDS).map(|_| RwLock::new(Shard::default())).collect(),
            scan_cursor: AtomicUsize::new(0),
        }
    }

    fn shard_of(name: &str) -> usize {
        let mut hasher = DefaultHasher::new();
        name.hash(&mut hasher);
        (hasher.finish() as usize) % SHARDS
    }

    /// Inserts an entry; returns `false` (dropping it) if the name is
    /// taken.
    pub(crate) fn insert(&self, entry: ModelEntry) -> bool {
        let mut shard = self.shards[Self::shard_of(&entry.name)].write();
        if shard.models.contains_key(&entry.name) {
            return false;
        }
        shard.models.insert(entry.name.clone(), Arc::new(entry));
        true
    }

    pub(crate) fn get(&self, name: &str) -> Option<Arc<ModelEntry>> {
        self.shards[Self::shard_of(name)].read().models.get(name).cloned()
    }

    pub(crate) fn remove(&self, name: &str) -> Option<Arc<ModelEntry>> {
        self.shards[Self::shard_of(name)].write().models.remove(name)
    }

    /// Registered model names, in no particular order.
    pub(crate) fn names(&self) -> Vec<String> {
        self.shards
            .iter()
            .flat_map(|s| s.read().models.keys().cloned().collect::<Vec<_>>())
            .collect()
    }

    /// Every registered model entry (shutdown sweep).
    pub(crate) fn entries(&self) -> Vec<Arc<ModelEntry>> {
        self.shards
            .iter()
            .flat_map(|s| s.read().models.values().cloned().collect::<Vec<_>>())
            .collect()
    }

    /// Inserts a tenant, returning the shared entry — or `None`
    /// (dropping it) if the name is taken.
    pub(crate) fn insert_tenant(&self, entry: TenantEntry) -> Option<Arc<TenantEntry>> {
        let mut shard = self.shards[Self::shard_of(&entry.name)].write();
        if shard.tenants.contains_key(&entry.name) {
            return None;
        }
        let entry = Arc::new(entry);
        shard.tenants.insert(entry.name.clone(), Arc::clone(&entry));
        Some(entry)
    }

    pub(crate) fn get_tenant(&self, name: &str) -> Option<Arc<TenantEntry>> {
        self.shards[Self::shard_of(name)].read().tenants.get(name).cloned()
    }

    pub(crate) fn remove_tenant(&self, name: &str) -> Option<Arc<TenantEntry>> {
        self.shards[Self::shard_of(name)].write().tenants.remove(name)
    }

    /// Registered tenant names, in no particular order.
    pub(crate) fn tenant_names(&self) -> Vec<String> {
        self.shards
            .iter()
            .flat_map(|s| s.read().tenants.keys().cloned().collect::<Vec<_>>())
            .collect()
    }

    /// Every registered tenant entry (telemetry / shutdown sweep).
    pub(crate) fn tenant_entries(&self) -> Vec<Arc<TenantEntry>> {
        self.shards
            .iter()
            .flat_map(|s| s.read().tenants.values().cloned().collect::<Vec<_>>())
            .collect()
    }

    /// Queued-or-in-flight totals per shard (requests plus jobs),
    /// indexed by shard — the load-balance view the work-stealing scan
    /// acts on.
    pub(crate) fn shard_queue_depths(&self) -> Vec<u64> {
        self.shards
            .iter()
            .map(|s| {
                let shard = s.read();
                let models: u64 = shard.models.values().map(|e| e.metrics.queue_depth()).sum();
                let tenants: u64 = shard.tenants.values().map(|e| e.metrics.queue_depth()).sum();
                models + tenants
            })
            .collect()
    }

    /// Finds queued work, scanning shards starting at the caller's
    /// `home` shard — a worker drains its own shard first and *steals*
    /// from the rest only when home is idle.
    ///
    /// Models are scanned across *all* shards before any tenant is
    /// considered: classification requests are latency-sensitive (a
    /// caller blocks on each ticket) while evaluation jobs are
    /// throughput work whose submitter waits on whole batches, so
    /// inference traffic always preempts study backlog at the scan. A
    /// busy fabric still makes progress whenever any worker finds the
    /// model queues empty — and under pure study load all workers drain
    /// tenants.
    pub(crate) fn find_work(&self, home: usize) -> Option<Work> {
        let tick = self.scan_cursor.fetch_add(1, Ordering::Relaxed);
        for step in 0..SHARDS {
            let shard = self.shards[(home + step) % SHARDS].read();
            let n = shard.models.len();
            if n == 0 {
                continue;
            }
            // Start each scan at a rotating offset: under sustained load
            // every model with work gets picked up, not just whichever
            // happens to iterate first.
            for entry in shard.models.values().cycle().skip(tick % n).take(n) {
                if entry.has_work() {
                    return Some(Work::Batch(Arc::clone(entry)));
                }
            }
        }
        for step in 0..SHARDS {
            let shard = self.shards[(home + step) % SHARDS].read();
            let n = shard.tenants.len();
            if n == 0 {
                continue;
            }
            for entry in shard.tenants.values().cycle().skip(tick % n).take(n) {
                if entry.has_work() {
                    return Some(Work::Jobs(Arc::clone(entry)));
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pax_ml::model::LinearClassifier;
    use pax_ml::quant::{QuantSpec, QuantizedModel};

    fn entry(name: &str, capacity: usize) -> ModelEntry {
        let svc = LinearClassifier::new(vec![vec![0.5, -0.5], vec![-0.25, 0.75]], vec![0.0, 0.1]);
        let model = QuantizedModel::from_linear_classifier(name, &svc, QuantSpec::default());
        let circuit = pax_bespoke::BespokeCircuit::generate(&model);
        ModelEntry::new(
            name.to_owned(),
            NetlistBackend::new(circuit.netlist, model.clone()),
            QuantBackend::new(model),
            Primary::Netlist,
            capacity,
            0,
        )
    }

    #[test]
    fn queue_bound_rejects_and_meters() {
        let e = entry("bound", 2);
        for _ in 0..2 {
            let (req, _t) = Request::new(vec![1, 1]);
            assert!(e.enqueue(req));
        }
        let (req, _t) = Request::new(vec![1, 1]);
        assert!(!e.enqueue(req), "third enqueue must hit the bound");
        let snap = e.metrics.snapshot();
        assert_eq!(snap.submitted, 2);
        assert_eq!(snap.rejected, 1);
        assert_eq!(snap.queue_depth, 2);
    }

    #[test]
    fn take_batch_caps_at_lanes() {
        let e = entry("lanes", 2 * LANES);
        for _ in 0..(LANES + 5) {
            let (req, _t) = Request::new(vec![0, 0]);
            assert!(e.enqueue(req));
        }
        assert_eq!(e.take_batch().len(), LANES);
        assert_eq!(e.take_batch().len(), 5);
        assert!(e.take_batch().is_empty());
    }

    #[test]
    fn cancel_pending_resolves_tickets() {
        let e = entry("cancel", 8);
        let (req, ticket) = Request::new(vec![0, 0]);
        assert!(e.enqueue(req));
        e.cancel_pending(CancelReason::Unregistered);
        assert_eq!(ticket.wait(), Outcome::Cancelled(CancelReason::Unregistered));
        assert_eq!(e.metrics.snapshot().queue_depth, 0);
    }

    #[test]
    fn audit_stride_samples_batches() {
        let e = entry("audit", 8);
        assert!(!e.should_audit(), "stride 0 disables audits");
        let mut e2 = entry("audit2", 8);
        e2.audit_stride = 3;
        let hits = (0..9).filter(|_| e2.should_audit()).count();
        assert_eq!(hits, 3, "stride 3 audits every third batch");
    }

    #[test]
    fn registry_shards_roundtrip_and_steal_scan() {
        let reg = Registry::new();
        for i in 0..24 {
            assert!(reg.insert(entry(&format!("m{i}"), 4)));
        }
        assert!(!reg.insert(entry("m3", 4)), "duplicate name rejected");
        assert_eq!(reg.names().len(), 24);
        assert!(reg.get("m7").is_some());
        assert!(reg.find_work(0).is_none());

        let target = reg.get("m19").unwrap();
        let (req, _t) = Request::new(vec![0, 0]);
        assert!(target.enqueue(req));
        // Any home shard finds the one model with work — stealing.
        for home in 0..SHARDS {
            match reg.find_work(home) {
                Some(Work::Batch(e)) => assert_eq!(e.name, "m19"),
                other => panic!("expected model work from home {home}, got {other:?}"),
            }
        }
        assert!(reg.remove("m19").is_some());
        assert!(reg.get("m19").is_none());
    }

    #[test]
    fn tenant_roundtrip_and_model_priority() {
        use crate::job::{QueuedJob, TenantOptions};

        let reg = Registry::new();
        assert!(reg.insert_tenant(TenantEntry::new("study".into(), Default::default())).is_some());
        assert!(
            reg.insert_tenant(TenantEntry::new("study".into(), TenantOptions::default())).is_none(),
            "duplicate tenant name rejected"
        );
        assert_eq!(reg.tenant_names(), vec!["study".to_owned()]);
        assert!(reg.find_work(0).is_none(), "no queued work yet");

        let tenant = reg.get_tenant("study").unwrap();
        let (job, _ticket) = QueuedJob::new(Box::new(|| {}));
        tenant.enqueue(job).unwrap();
        assert!(
            matches!(reg.find_work(0), Some(Work::Jobs(t)) if t.name == "study"),
            "tenant work is found when no model has requests"
        );

        // A model with queued requests preempts the tenant backlog.
        assert!(reg.insert(entry("live", 8)));
        let model = reg.get("live").unwrap();
        let (req, _t) = Request::new(vec![0, 0]);
        assert!(model.enqueue(req));
        for home in 0..SHARDS {
            assert!(
                matches!(reg.find_work(home), Some(Work::Batch(_))),
                "model requests outrank tenant jobs at the scan (home {home})"
            );
        }

        assert!(reg.remove_tenant("study").is_some());
        assert!(reg.get_tenant("study").is_none());
    }

    #[test]
    fn shard_queue_depths_track_enqueued_work() {
        let reg = Registry::new();
        assert!(reg.insert(entry("depth", 8)));
        let depths = reg.shard_queue_depths();
        assert_eq!(depths.len(), SHARDS);
        assert_eq!(depths.iter().sum::<u64>(), 0);

        let target = reg.get("depth").unwrap();
        for _ in 0..3 {
            let (req, _t) = Request::new(vec![0, 0]);
            assert!(target.enqueue(req));
        }
        let depths = reg.shard_queue_depths();
        assert_eq!(depths.iter().sum::<u64>(), 3);
        assert_eq!(depths.iter().filter(|&&d| d > 0).count(), 1, "one model, one hot shard");
    }
}
