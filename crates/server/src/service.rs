//! The concurrent query service.
//!
//! One shared [`Spade`] engine behind a worker pool. Sessions submit typed
//! [`QueryRequest`]s and get [`Ticket`]s; workers admit queued queries
//! against a device-wide reservation ledger (FIFO, with a per-session
//! fairness cap), execute them with a per-query [`CancelToken`] threaded
//! into the engine's out-of-core loops, and reply over the ticket's
//! channel.
//!
//! Admission order: the queue is scanned front to back. Entries whose
//! token is cancelled or whose deadline has passed are purged in place.
//! Entries of sessions already running `fairness_cap` queries are skipped
//! (bypassing them is the fairness mechanism — one session cannot occupy
//! every worker while others wait). The first remaining entry must also
//! fit the device-memory reservation; if it does not, the scan *stops*
//! rather than skipping it, so memory admission is strictly FIFO and a
//! large query cannot be starved by a stream of small ones.

use crate::metrics::{
    render_counter, render_gauge, render_labeled_counter, render_labeled_gauge, render_scalars,
    MetricsRegistry,
};
use crate::namespace::{
    validate_name, Namespace, NamespaceConfig, TenantStats, DECISIONS, DEFAULT_NAMESPACE,
};
use crate::request::{QueryRequest, QueryResponse, ResponsePayload, ServiceError};
use crate::stats::{ServiceSnapshot, ServiceStats};
use spade_core::cancel::CancelToken;
use spade_core::dataset::{Dataset, IndexedDataset};
use spade_core::query::{self, JoinQuery, QueryResult, SelectQuery};
use spade_core::{EngineConfig, QueryCtx, QueryStats, Spade};
use spade_gpu::DeviceMemory;
use spade_storage::wal::{pending_by_dataset, PendingWrites, Wal, WalOp};
use spade_storage::Database;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Engine configuration for the shared [`Spade`] instance.
    pub engine: EngineConfig,
    /// Worker threads executing queries (the concurrency level).
    pub workers: usize,
    /// Maximum queries of one session running at once; further queries of
    /// that session wait even when workers and memory are free.
    pub fairness_cap: usize,
    /// Directory of the write-ahead log. `None` (the default) runs without
    /// durability: writes stage into delta stores but are lost on restart.
    /// With a directory, every insert/delete appends a checksummed WAL
    /// record before it becomes visible, and [`QueryService::with_engine`]
    /// replays unapplied records when the service reopens — datasets
    /// registered afterwards ([`QueryService::register_indexed`]) receive
    /// their pending writes at registration time.
    pub wal_dir: Option<PathBuf>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            engine: EngineConfig::default(),
            workers: 4,
            fairness_cap: 2,
            wal_dir: None,
        }
    }
}

/// The resolution of one submitted query.
pub type Reply = Result<QueryResponse, ServiceError>;

/// Where a completed query's reply goes: a channel, tagged with `id`. The
/// network server routes many in-flight queries of one connection into a
/// single writer channel, tagged by the wire `request_id`, so responses
/// leave in completion order (out-of-order relative to submission — that
/// is request pipelining); a [`Ticket`] is the same sink with a channel of
/// its own.
struct ReplySink {
    tx: mpsc::Sender<(u64, Reply)>,
    id: u64,
}

impl ReplySink {
    fn send(&self, reply: Reply) {
        let _ = self.tx.send((self.id, reply));
    }
}

struct Pending {
    session: u64,
    ns: Arc<Namespace>,
    request: QueryRequest,
    cancel: CancelToken,
    footprint: u64,
    enqueued: Instant,
    reply: ReplySink,
}

#[derive(Default)]
struct Queue {
    pending: VecDeque<Pending>,
    running_per_session: HashMap<u64, usize>,
    running: usize,
}

struct Shared {
    spade: Arc<Spade>,
    /// Per-tenant catalogs: keys are `(namespace id, dataset name)`, so
    /// two tenants registering the same name never collide. A name holds
    /// one dataset, of either kind; registering it again replaces it.
    catalog: RwLock<HashMap<(u64, String), Registered>>,
    /// Tenant namespaces by name. The default namespace (id 0) is created
    /// at construction and cannot be removed.
    namespaces: RwLock<HashMap<String, Arc<Namespace>>>,
    next_namespace: AtomicU64,
    /// Estimated footprints of the running queries, capped at the device
    /// capacity. A shadow of the engine's ledger, never the ledger itself:
    /// the executors' uploads already account there, and charging both
    /// would halve the usable device.
    admission: DeviceMemory,
    queue: Mutex<Queue>,
    work_ready: Condvar,
    stats: ServiceStats,
    metrics: MetricsRegistry,
    /// Queries whose execution unwound; each also counts as failed.
    worker_panics: AtomicU64,
    fairness_cap: usize,
    /// Graceful-shutdown phase: new submissions are refused while queued
    /// and running queries drain ([`QueryService::shutdown`]).
    draining: AtomicBool,
    shutdown: AtomicBool,
    next_session: AtomicU64,
    /// The write-ahead log, when the service was configured with a
    /// `wal_dir`. Appends serialize under this mutex (the WAL is a single
    /// sequenced stream across datasets); group-commit batching inside
    /// [`Wal`] keeps the fsync rate low regardless of writer count.
    ///
    /// Invariant: a WAL append and the delta staging of its record happen
    /// inside ONE critical section of this mutex. Releasing the lock
    /// between the two would let writers stage out of sequence order and,
    /// worse, let a compaction snapshot+drain race swallow a sequence that
    /// was assigned but not yet staged — a permanently lost acknowledged
    /// write (the checkpoint would tell replay to skip it). Lock order is
    /// always `wal` → dataset `live`; nothing takes them in reverse.
    wal: Option<Mutex<Wal>>,
    /// WAL records replayed at open that still await their dataset: keyed
    /// by dataset name, drained when [`QueryService::register_indexed`]
    /// registers that dataset.
    pending: Mutex<BTreeMap<String, PendingWrites>>,
    /// Datasets whose staged delta crossed `compact_trigger_bytes`,
    /// awaiting the background compactor. Deduplicated on push; entries
    /// carry their namespace so the compactor writes tenant-qualified
    /// checkpoint records.
    compact_queue: Mutex<VecDeque<(Arc<Namespace>, String)>>,
    compact_ready: Condvar,
}

/// A query service over one shared engine. [`QueryService::shutdown`]
/// drains gracefully; dropping the service without it shuts the worker
/// pool down hard — queued queries reply [`ServiceError::Shutdown`].
pub struct QueryService {
    shared: Arc<Shared>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    compactor: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl QueryService {
    /// Build a service owning a freshly configured engine.
    pub fn new(config: ServiceConfig) -> Self {
        let engine = Arc::new(Spade::new(config.engine.clone()));
        Self::with_engine(engine, config)
    }

    /// Build a service over an existing (shareable) engine. Admission
    /// gates on the engine's device capacity.
    pub fn with_engine(engine: Arc<Spade>, config: ServiceConfig) -> Self {
        let (wal, pending) = match &config.wal_dir {
            Some(dir) => {
                let (wal, records) =
                    Wal::open(dir, config.engine.wal_sync).expect("open write-ahead log");
                (Some(Mutex::new(wal)), pending_by_dataset(&records))
            }
            None => (None, BTreeMap::new()),
        };
        let default_ns = Namespace::new(0, DEFAULT_NAMESPACE.into(), NamespaceConfig::default());
        let namespaces = HashMap::from([(DEFAULT_NAMESPACE.to_string(), Arc::new(default_ns))]);
        let shared = Arc::new(Shared {
            admission: DeviceMemory::new(engine.device.capacity()),
            spade: engine,
            catalog: RwLock::new(HashMap::new()),
            namespaces: RwLock::new(namespaces),
            next_namespace: AtomicU64::new(1),
            queue: Mutex::new(Queue::default()),
            work_ready: Condvar::new(),
            stats: ServiceStats::default(),
            metrics: MetricsRegistry::default(),
            worker_panics: AtomicU64::new(0),
            fairness_cap: config.fairness_cap.max(1),
            draining: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            next_session: AtomicU64::new(1),
            wal,
            pending: Mutex::new(pending),
            compact_queue: Mutex::new(VecDeque::new()),
            compact_ready: Condvar::new(),
        });
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("spade-svc-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn service worker")
            })
            .collect();
        let compactor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("spade-compact".into())
                .spawn(move || compactor_loop(&shared))
                .expect("spawn compactor")
        };
        QueryService {
            shared,
            workers: Mutex::new(workers),
            compactor: Mutex::new(Some(compactor)),
        }
    }

    /// The shared engine (for inspection: device ledger, config).
    pub fn engine(&self) -> &Arc<Spade> {
        &self.shared.spade
    }

    /// Run `f` against one tenant's relational store, for direct
    /// setup/loading outside the request path. SQL requests submitted
    /// through a session in `namespace` execute against this same store
    /// and no other tenant's.
    pub fn with_database<R>(
        &self,
        namespace: &str,
        f: impl FnOnce(&Database) -> R,
    ) -> Result<R, ServiceError> {
        let ns = self.namespace(namespace)?;
        let db = ns.db.lock().unwrap();
        Ok(f(&db))
    }

    /// Create a tenant namespace. Names are validated (non-empty, at most
    /// [`crate::namespace::MAX_NAME_LEN`] bytes, no control characters, no
    /// `:`); a clashing name fails with [`ServiceError::InvalidName`].
    pub fn create_namespace(
        &self,
        name: impl Into<String>,
        config: NamespaceConfig,
    ) -> Result<(), ServiceError> {
        let name = name.into();
        validate_name("namespace", &name)?;
        let mut namespaces = self.shared.namespaces.write().unwrap();
        if namespaces.contains_key(&name) {
            return Err(ServiceError::InvalidName(format!(
                "namespace '{name}' already exists"
            )));
        }
        let id = self.shared.next_namespace.fetch_add(1, Ordering::Relaxed);
        namespaces.insert(name.clone(), Arc::new(Namespace::new(id, name, config)));
        Ok(())
    }

    /// Resolve a namespace by name.
    fn namespace(&self, name: &str) -> Result<Arc<Namespace>, ServiceError> {
        self.shared
            .namespaces
            .read()
            .unwrap()
            .get(name)
            .cloned()
            .ok_or_else(|| ServiceError::UnknownNamespace(name.to_string()))
    }

    /// Register an in-memory dataset under `name` in the default
    /// namespace.
    pub fn register(&self, name: impl Into<String>, data: Dataset) {
        self.register_in(DEFAULT_NAMESPACE, name, data)
            .expect("default namespace always exists");
    }

    /// Register an in-memory dataset under `name` in `namespace`. Dataset
    /// names are validated like namespace names, so they interpolate
    /// safely into WAL keys and metric labels.
    pub fn register_in(
        &self,
        namespace: &str,
        name: impl Into<String>,
        data: Dataset,
    ) -> Result<(), ServiceError> {
        let name = name.into();
        validate_name("dataset", &name)?;
        let ns = self.namespace(namespace)?;
        let entry = Registered::Memory(Arc::new(data));
        self.shared
            .catalog
            .write()
            .unwrap()
            .insert((ns.id(), name), entry);
        Ok(())
    }

    /// Register a grid-indexed (out-of-core) dataset under `name`,
    /// replacing whatever dataset the name held.
    ///
    /// Crash recovery happens here: WAL records replayed at service open
    /// that name this dataset and postdate its persisted checkpoint are
    /// applied to the delta store before the dataset becomes queryable, so
    /// acknowledged writes survive a crash between WAL append and
    /// compaction.
    pub fn register_indexed(&self, name: impl Into<String>, data: IndexedDataset) {
        self.register_indexed_in(DEFAULT_NAMESPACE, name, data)
            .expect("default namespace always exists");
    }

    /// Register a grid-indexed dataset in `namespace`. WAL records of
    /// non-default tenants are keyed `namespace:dataset`, so replayed
    /// pending writes route back to exactly this tenant's dataset.
    pub fn register_indexed_in(
        &self,
        namespace: &str,
        name: impl Into<String>,
        data: IndexedDataset,
    ) -> Result<(), ServiceError> {
        let name = name.into();
        validate_name("dataset", &name)?;
        let ns = self.namespace(namespace)?;
        let wal_key = ns.wal_key(&name);
        if let Some(pending) = self.shared.pending.lock().unwrap().remove(&wal_key) {
            let floor = data.checkpoint_seq();
            // Records at or below the floor are folded into the persisted
            // index already.
            for rec in pending.ops.into_iter().filter(|rec| rec.seq > floor) {
                stage(&data, Some(rec.seq), rec.op);
            }
        }
        let entry = Registered::Indexed(Arc::new(data));
        self.shared
            .catalog
            .write()
            .unwrap()
            .insert((ns.id(), name), entry);
        Ok(())
    }

    /// Open a new session in the default namespace. Sessions are cheap
    /// id-carrying handles; the fairness cap applies per session id.
    pub fn session(&self) -> Session {
        self.session_in(DEFAULT_NAMESPACE, None)
            .expect("default namespace always exists and has no token")
    }

    /// Open a session in a tenant namespace, presenting its auth token
    /// (`None` for namespaces without one). The wire handshake calls this;
    /// embedded multi-tenant callers can too.
    pub fn session_in(
        &self,
        namespace: &str,
        token: Option<&str>,
    ) -> Result<Session, ServiceError> {
        let ns = self.namespace(namespace)?;
        ns.authorize(token)?;
        Ok(Session {
            shared: Arc::clone(&self.shared),
            ns,
            id: self.shared.next_session.fetch_add(1, Ordering::Relaxed),
        })
    }

    /// Gracefully shut the service down: refuse new submissions, let every
    /// queued and running query finish, park the compactor, and flush the
    /// WAL tail so acknowledged writes stay durable. Idempotent; the
    /// network server's stop path calls this, and `Drop` falls back to a
    /// hard variant (queued queries answered [`ServiceError::Shutdown`])
    /// when it never ran.
    pub fn shutdown(&self) {
        // The flag is set while holding the queue mutex, and enqueue
        // re-checks it under that same mutex right before pushing: every
        // submission therefore either lands before this store (and is
        // seen by the drain loop below) or observes the flag and is
        // refused — a push can never slip in after the drain completes.
        {
            let _q = self.shared.queue.lock().unwrap();
            self.shared.draining.store(true, Ordering::Release);
        }
        // Drain: both queued and running counts must reach zero. Workers
        // keep admitting while only `draining` is set.
        loop {
            {
                let q = self.shared.queue.lock().unwrap();
                if q.pending.is_empty() && q.running == 0 {
                    break;
                }
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        self.stop_threads();
    }

    /// Signal worker/compactor exit and join them, then flush the WAL.
    fn stop_threads(&self) {
        // Set the flag and sweep the queue under the queue mutex (the
        // same discipline as `shutdown`): a submit racing this call either
        // pushed before the store — and is answered by this sweep or by a
        // worker's final drain — or observes the flag under the lock and
        // is refused. Without the sweep, a push landing after the workers
        // exited would leave its ticket waiting forever.
        {
            let mut q = self.shared.queue.lock().unwrap();
            self.shared.shutdown.store(true, Ordering::Release);
            for p in q.pending.drain(..) {
                p.reply.send(Err(ServiceError::Shutdown));
            }
        }
        self.shared.work_ready.notify_all();
        self.shared.compact_ready.notify_all();
        for w in self.workers.lock().unwrap().drain(..) {
            let _ = w.join();
        }
        if let Some(c) = self.compactor.lock().unwrap().take() {
            let _ = c.join();
        }
        // Acknowledged writes stay durable across a clean shutdown even in
        // GroupCommit mode: flush whatever tail the commit window holds.
        if let Some(wal) = &self.shared.wal {
            let _ = wal.lock().unwrap().sync();
        }
    }

    /// A point-in-time view of the service counters: the tenants'
    /// counters summed, and the wall split the histograms' sums.
    pub fn stats(&self) -> ServiceSnapshot {
        let (depth, running) = {
            let q = self.shared.queue.lock().unwrap();
            (q.pending.len(), q.running)
        };
        let namespaces = self.shared.namespaces.read().unwrap();
        let sum = |counter: fn(&TenantStats) -> &AtomicU64| -> u64 {
            (namespaces.values())
                .map(|ns| counter(&ns.stats).load(Ordering::Relaxed))
                .sum()
        };
        ServiceSnapshot {
            submitted: sum(|s| &s.submitted),
            admitted: sum(|s| &s.admitted),
            rejected: sum(|s| &s.rejected),
            cancelled: sum(|s| &s.cancelled),
            completed: sum(|s| &s.completed),
            failed: sum(|s| &s.failed),
            total_queue_wait: self.shared.metrics.queue_wait.sum(),
            total_exec: self.shared.metrics.exec.sum(),
            ..self.shared.stats.snapshot(depth, running)
        }
    }

    /// A Prometheus-text snapshot of every service metric: admission
    /// counters, the queue-vs-execution wall split as histograms, and the
    /// engine totals (bytes moved, passes, cells, prefetch/cache hit
    /// counters, time components) aggregated across completed queries.
    pub fn metrics_text(&self) -> String {
        let snap = self.stats();
        let m = &self.shared.metrics;
        let mut out = String::new();
        #[rustfmt::skip]
        render_scalars(&mut out, &[
            (render_counter, "spade_queries_submitted_total", "Queries ever submitted (including rejected ones).", snap.submitted),
            (render_counter, "spade_queries_admitted_total", "Queries admitted to a worker.", snap.admitted),
            (render_counter, "spade_queries_rejected_total", "Queries rejected outright by admission control.", snap.rejected),
            (render_counter, "spade_queries_cancelled_total", "Queries cancelled or expired, queued or mid-flight.", snap.cancelled),
            (render_counter, "spade_queries_completed_total", "Queries that completed with a result.", snap.completed),
            (render_counter, "spade_queries_failed_total", "Queries that failed with a storage/engine error.", snap.failed),
            (render_counter, "spade_worker_panics_total", "Failed queries whose execution panicked; the worker survived.", self.shared.worker_panics.load(Ordering::Relaxed)),
            (render_gauge, "spade_queue_depth", "Queries waiting for admission right now.", snap.queue_depth as u64),
            (render_gauge, "spade_queries_running", "Queries executing right now.", snap.running as u64),
        ]);
        m.queue_wait.render(
            &mut out,
            "spade_queue_wait_seconds",
            "Time between submission and admission to a worker.",
        );
        m.exec.render(
            &mut out,
            "spade_exec_seconds",
            "Time between admission and completion.",
        );
        let pool = self.shared.spade.pipeline.pool().stats();
        let arena = self.shared.spade.pipeline.arena().stats();
        let rc = self.shared.spade.result_cache.stats();
        #[rustfmt::skip]
        render_scalars(&mut out, &[
            (render_counter, "spade_bytes_from_disk_total", "Bytes read from disk blocks by completed queries.", m.bytes_from_disk.get()),
            (render_counter, "spade_bytes_to_device_total", "Bytes shipped host to device by completed queries.", m.bytes_to_device.get()),
            (render_counter, "spade_passes_total", "Rendering passes executed by completed queries.", m.passes.get()),
            (render_counter, "spade_cells_loaded_total", "Grid cells delivered to refinement by completed queries.", m.cells_loaded.get()),
            (render_counter, "spade_prefetch_hits_total", "Cells already decoded in the prefetch channel when asked.", m.prefetch_hits.get()),
            (render_counter, "spade_prefetch_misses_total", "Cells the refinement stage had to wait for.", m.prefetch_misses.get()),
            (render_counter, "spade_cache_hits_total", "Cells served from the decoded-cell cache instead of disk.", m.cache_hits.get()),
            (render_counter, "spade_io_nanoseconds_total", "Producer-side I/O time of completed queries, in nanoseconds.", m.io_nanos.get()),
            (render_counter, "spade_io_hidden_nanoseconds_total", "I/O time that overlapped GPU refinement, in nanoseconds.", m.io_hidden_nanos.get()),
            (render_counter, "spade_gpu_nanoseconds_total", "Pipeline-pass time of completed queries, in nanoseconds.", m.gpu_nanos.get()),
            // Persistent render executor and framebuffer arena, shared by
            // every session of this service (sized once at construction, not
            // per query — see DESIGN.md on executor/admission interaction).
            (render_gauge, "spade_pool_workers", "Parallel lanes of the shared render executor.", pool.workers as u64),
            (render_gauge, "spade_pool_busy", "Executor lanes running pipeline tasks right now.", pool.busy as u64),
            (render_counter, "spade_pool_jobs_total", "Jobs (parallel pipeline stages) dispatched to the executor.", pool.jobs),
            (render_counter, "spade_pool_tasks_total", "Executor tasks run across all jobs.", pool.tasks),
            (render_counter, "spade_arena_hits_total", "Framebuffer checkouts served from the arena free lists.", arena.hits),
            (render_counter, "spade_arena_misses_total", "Framebuffer checkouts that had to allocate a new texture.", arena.misses),
            (render_gauge, "spade_arena_pooled_bytes", "Bytes held in the arena free lists right now.", arena.pooled_bytes),
            (render_gauge, "spade_arena_live_bytes", "Bytes of arena textures currently checked out.", arena.live_bytes),
            (render_gauge, "spade_arena_external_bytes", "Bytes charged by external arena residents (result cache).", rc.bytes),
            // Hot-query serving layer: the generation-keyed result cache.
            (render_counter, "spade_result_cache_hits_total", "Queries served from the result cache.", rc.hits),
            (render_counter, "spade_result_cache_coalesced_total", "Queries coalesced onto a concurrent identical render.", rc.coalesced),
            (render_counter, "spade_result_cache_misses_total", "Cache probes that had to render cold.", rc.misses),
            (render_counter, "spade_result_cache_bypass_total", "Queries that skipped the result cache (disabled).", rc.bypasses),
            (render_counter, "spade_result_cache_inserted_total", "Results admitted to the cache.", rc.inserted),
            (render_counter, "spade_result_cache_evicted_total", "Entries evicted or purged from the cache.", rc.evicted),
            (render_counter, "spade_result_cache_not_stored_total", "Computed results not admitted (version moved or oversized).", rc.not_stored),
            (render_gauge, "spade_result_cache_entries", "Entries resident in the result cache right now.", rc.entries),
            (render_gauge, "spade_result_cache_bytes", "Bytes resident in the result cache right now.", rc.bytes),
        ]);
        // Live-ingestion surface: WAL write rates, staged delta debt, and
        // compaction work, per the write path in DESIGN.md.
        if let Some(wal) = &self.shared.wal {
            let w = wal.lock().unwrap().stats();
            #[rustfmt::skip]
            render_scalars(&mut out, &[
                (render_counter, "spade_wal_appends_total", "Records appended to the write-ahead log.", w.appends),
                (render_counter, "spade_wal_fsyncs_total", "WAL fsync calls (group commit amortizes these).", w.fsyncs),
                (render_counter, "spade_wal_bytes_total", "Bytes appended to the write-ahead log, framing included.", w.bytes_written),
                (render_counter, "spade_wal_segments_total", "WAL segment rotations.", w.segments_rotated),
                (render_counter, "spade_wal_segments_deleted_total", "Sealed WAL segments reclaimed after checkpoints.", w.segments_deleted),
            ]);
        }
        let (mut staged, mut tombstones, mut delta_bytes) = (0u64, 0u64, 0u64);
        // Tenant names by id, for labeled per-dataset/per-tenant samples.
        let tenant_names: BTreeMap<u64, String> = self
            .shared
            .namespaces
            .read()
            .unwrap()
            .values()
            .map(|ns| (ns.id(), ns.name().to_string()))
            .collect();
        let mut per_dataset: Vec<(String, String, u64)> = Vec::new();
        for ((ns_id, name), entry) in self.shared.catalog.read().unwrap().iter() {
            let Registered::Indexed(d) = entry else {
                continue;
            };
            let s = d.delta_stats();
            staged += s.staged as u64;
            tombstones += s.tombstones as u64;
            delta_bytes += s.bytes;
            let tenant = tenant_names
                .get(ns_id)
                .cloned()
                .unwrap_or_else(|| ns_id.to_string());
            per_dataset.push((tenant, name.clone(), s.bytes));
        }
        #[rustfmt::skip]
        render_scalars(&mut out, &[
            (render_gauge, "spade_delta_staged_objects", "Objects staged in delta stores, awaiting compaction.", staged),
            (render_gauge, "spade_delta_tombstones", "Delete tombstones staged in delta stores.", tombstones),
            (render_gauge, "spade_delta_bytes", "Approximate staged delta bytes (compaction debt) right now.", delta_bytes),
        ]);
        // Per-dataset compaction debt, labeled by tenant and dataset. Both
        // label values were validated at creation and are escaped again at
        // render time (`sanitize_label`).
        per_dataset.sort();
        for (i, (tenant, dataset, bytes)) in per_dataset.iter().enumerate() {
            render_labeled_gauge(
                &mut out,
                "spade_dataset_delta_bytes",
                "Staged delta bytes of one dataset.",
                &[("tenant", tenant), ("dataset", dataset)],
                *bytes,
                i == 0,
            );
        }
        // Per-tenant admission and outcome counters. Tenants are rendered
        // in id order so the default namespace leads and output is stable.
        let mut tenants: Vec<Arc<Namespace>> = self
            .shared
            .namespaces
            .read()
            .unwrap()
            .values()
            .cloned()
            .collect();
        tenants.sort_by_key(|a| a.id());
        type RenderLabeled = fn(&mut String, &str, &str, &[(&str, &str)], u64, bool);
        type TenantValue = fn(&Namespace) -> u64;
        #[rustfmt::skip]
        let per_tenant: [(RenderLabeled, &str, &str, TenantValue); 7] = [
            (render_labeled_counter, "spade_tenant_queries_submitted_total", "Queries submitted by this tenant.", |ns| ns.stats.submitted.load(Ordering::Relaxed)),
            (render_labeled_counter, "spade_tenant_queries_completed_total", "Queries of this tenant that completed with a result.", |ns| ns.stats.completed.load(Ordering::Relaxed)),
            (render_labeled_counter, "spade_tenant_queries_rejected_total", "Queries of this tenant rejected by admission control.", |ns| ns.stats.rejected.load(Ordering::Relaxed)),
            (render_labeled_counter, "spade_tenant_queries_cancelled_total", "Queries of this tenant cancelled or expired.", |ns| ns.stats.cancelled.load(Ordering::Relaxed)),
            (render_labeled_counter, "spade_tenant_queries_failed_total", "Queries of this tenant that failed with an error.", |ns| ns.stats.failed.load(Ordering::Relaxed)),
            (render_labeled_counter, "spade_tenant_quota_deferrals_total", "Admission scans that bypassed this tenant at its quota.", |ns| ns.stats.quota_deferrals.load(Ordering::Relaxed)),
            (render_labeled_gauge, "spade_tenant_reserved_bytes", "Estimated device bytes reserved by this tenant's running queries.", |ns| ns.reserved()),
        ];
        for (render, name, help, value) in per_tenant {
            for (i, ns) in tenants.iter().enumerate() {
                render(
                    &mut out,
                    name,
                    help,
                    &[("tenant", ns.name())],
                    value(ns),
                    i == 0,
                );
            }
        }
        // Per-tenant optimizer decision and misprediction counters, one
        // sample per decision label, counted from each completed job's plan.
        type TenantDecisions = fn(&TenantStats) -> &[AtomicU64; 2];
        #[rustfmt::skip]
        let optimizer: [(&str, &str, TenantDecisions); 2] = [
            ("spade_optimizer_decisions_total", "Optimizer decisions (Map implementation) on this tenant's datasets.", |s| &s.decisions),
            ("spade_optimizer_mispredictions_total", "Optimizer decisions hindsight proved wrong (2-pass overshoots).", |s| &s.mispredictions),
        ];
        for (name, help, counts) in optimizer {
            for (i, ns) in tenants.iter().enumerate() {
                for (j, (decision, n)) in DECISIONS.iter().zip(counts(&ns.stats)).enumerate() {
                    render_labeled_counter(
                        &mut out,
                        name,
                        help,
                        &[("tenant", ns.name()), ("decision", decision)],
                        n.load(Ordering::Relaxed),
                        i == 0 && j == 0,
                    );
                }
            }
        }
        #[rustfmt::skip]
        render_scalars(&mut out, &[
            (render_counter, "spade_compact_runs_total", "Compaction runs completed (background or synchronous).", m.compact_runs.get()),
            (render_counter, "spade_compact_bytes_read_total", "Encoded cell bytes compaction read back to rewrite.", m.compact_bytes_read.get()),
            (render_counter, "spade_compact_bytes_written_total", "Encoded cell bytes compaction wrote for new generations.", m.compact_bytes_written.get()),
            (render_counter, "spade_compact_cells_split_total", "Cells split by compaction to respect the cell byte budget.", m.compact_cells_split.get()),
        ]);
        out
    }
}

impl Drop for QueryService {
    fn drop(&mut self) {
        // Hard shutdown when `shutdown()` never ran: queued queries are
        // answered `Shutdown` by the draining workers instead of
        // executing.
        self.stop_threads();
    }
}

/// A client handle submitting queries under one session id, inside one
/// tenant namespace.
pub struct Session {
    shared: Arc<Shared>,
    ns: Arc<Namespace>,
    id: u64,
}

impl Session {
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The namespace this session operates in.
    pub fn namespace(&self) -> &str {
        self.ns.name()
    }

    /// Submit a query with no deadline.
    pub fn submit(&self, request: QueryRequest) -> Ticket {
        self.submit_with_token(request, CancelToken::new())
    }

    /// Submit a query that cancels automatically `deadline` from now —
    /// while queued or at the next cell boundary once running.
    pub fn submit_with_deadline(&self, request: QueryRequest, deadline: Duration) -> Ticket {
        self.submit_with_token(request, CancelToken::deadline_in(deadline))
    }

    /// Submit with a caller-controlled token (cancel it any time; clones
    /// observe the same flag).
    pub fn submit_with_token(&self, request: QueryRequest, cancel: CancelToken) -> Ticket {
        let (tx, rx) = mpsc::channel();
        let ticket = Ticket {
            cancel: cancel.clone(),
            rx,
        };
        self.enqueue(request, cancel, ReplySink { tx, id: 0 });
        ticket
    }

    /// Submit with the reply routed into a shared `(request id, reply)`
    /// channel instead of a per-query ticket. This is the network server's
    /// entry point: one connection keeps many requests in flight and its
    /// writer thread delivers responses in completion order, keyed by
    /// `id`.
    pub fn submit_routed(
        &self,
        request: QueryRequest,
        cancel: CancelToken,
        id: u64,
        tx: mpsc::Sender<(u64, Reply)>,
    ) {
        self.enqueue(request, cancel, ReplySink { tx, id });
    }

    fn enqueue(&self, request: QueryRequest, cancel: CancelToken, reply: ReplySink) {
        self.ns.stats.submitted.fetch_add(1, Ordering::Relaxed);

        if self.shared.shutdown.load(Ordering::Acquire)
            || self.shared.draining.load(Ordering::Acquire)
        {
            reply.send(Err(ServiceError::Shutdown));
            return;
        }
        // Resolve names and estimate the device footprint up front:
        // unknown datasets and can-never-fit queries fail fast instead of
        // occupying the queue.
        let footprint = match estimate_footprint(&self.shared, &self.ns, &request) {
            Ok(f) => f,
            Err(e) => {
                reply.send(Err(e));
                return;
            }
        };
        if footprint > self.shared.admission.capacity() || !self.ns.admissible(footprint) {
            self.ns.stats.rejected.fetch_add(1, Ordering::Relaxed);
            // The binding constraint is whichever is smaller: the tenant's
            // quota or the whole device.
            let capacity = self
                .ns
                .quota()
                .unwrap_or(u64::MAX)
                .min(self.shared.admission.capacity());
            reply.send(Err(ServiceError::Rejected {
                estimated: footprint,
                capacity,
            }));
            return;
        }

        let mut q = self.shared.queue.lock().unwrap();
        // Re-check the shutdown flags under the queue mutex: they are set
        // under this same mutex, so either this push happens-before the
        // flag flips (and the drain/sweep paths answer it) or the flip is
        // visible here and the query is refused. The lock-free check above
        // is only a fast path; this one is the correctness gate — without
        // it a submit racing `shutdown` could land in the queue after the
        // workers drained and exited, blocking its ticket forever.
        if self.shared.shutdown.load(Ordering::Acquire)
            || self.shared.draining.load(Ordering::Acquire)
        {
            drop(q);
            reply.send(Err(ServiceError::Shutdown));
            return;
        }
        q.pending.push_back(Pending {
            session: self.id,
            ns: Arc::clone(&self.ns),
            request,
            cancel,
            footprint,
            enqueued: Instant::now(),
            reply,
        });
        drop(q);
        self.shared.work_ready.notify_one();
    }
}

/// The handle to one submitted query.
pub struct Ticket {
    cancel: CancelToken,
    rx: mpsc::Receiver<(u64, Reply)>,
}

impl Ticket {
    /// This query's cancellation token.
    pub fn token(&self) -> &CancelToken {
        &self.cancel
    }

    /// Request cancellation: a queued query is purged; a running one stops
    /// at its next cell boundary with the device ledger balanced.
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// Block until the query resolves.
    pub fn wait(self) -> Reply {
        self.rx
            .recv()
            .map_or(Err(ServiceError::Shutdown), |(_, r)| r)
    }
}

/// Estimated device-memory footprint of a request, in bytes. Canvas terms
/// are `resolution² × 16` (four 32-bit channels per pixel); each side adds
/// its largest slot, since the walks hold at most one per side resident —
/// a grid cell, or the memory slot (a staged delta, or a registered
/// dataset whole). A shard slice reserves like the full request. SQL runs
/// on the host, so its device footprint is zero.
fn estimate_footprint(
    shared: &Shared,
    ns: &Namespace,
    request: &QueryRequest,
) -> Result<u64, ServiceError> {
    let cfg = &shared.spade.config;
    let canvas = |res: u32| (res as u64) * (res as u64) * 16;
    let max_slot = |name: &String| -> Result<u64, ServiceError> {
        Ok(match resolve(shared, ns, name)? {
            Registered::Indexed(d) => {
                let grid = d.grid();
                let cell = grid.cells().iter().map(|c| c.bytes).max().unwrap_or(0);
                cell.max(d.delta_stats().bytes)
            }
            Registered::Memory(d) => d.byte_size() as u64,
        })
    };
    // Past the constraint canvas, a term reserves its bytes when they fit
    // the device next to the rest, and nothing otherwise — what
    // `DeviceMemory::charge` holds for a slot that does not fit.
    let capacity = shared.admission.capacity();
    let fit = |sum: u64, bytes: u64| match sum + bytes {
        total if total <= capacity => total,
        _ => sum,
    };
    match request {
        QueryRequest::Select { dataset, query }
        | QueryRequest::ShardSelect { dataset, query, .. } => {
            let constraint = match query {
                SelectQuery::WithinDistance(..) | SelectQuery::Knn(..) => {
                    canvas(cfg.distance_resolution())
                }
                _ => canvas(cfg.resolution),
            };
            let slot = max_slot(dataset)?;
            Ok(fit(fit(constraint, canvas(cfg.filter_resolution())), slot))
        }
        QueryRequest::Join { left, right, query }
        | QueryRequest::ShardJoin {
            left, right, query, ..
        } => {
            let constraint = match query {
                JoinQuery::WithinDistance(_) | JoinQuery::Knn(_) => {
                    canvas(cfg.distance_resolution())
                }
                _ => canvas(cfg.filter_resolution()),
            };
            Ok(fit(fit(constraint, max_slot(left)?), max_slot(right)?))
        }
        QueryRequest::Sql(_) => Ok(0),
        // Spatial requests execute to discover their plan, so an EXPLAIN
        // needs the same reservation as the request it wraps.
        QueryRequest::Explain { request, .. } => estimate_footprint(shared, ns, request),
        // Writes stage on the host (WAL + delta store) and statistics are
        // read there; they reserve no device memory but still resolve the
        // dataset so unknown names fail fast. Flush-triggered compaction
        // also runs host-side.
        QueryRequest::Insert { dataset, .. }
        | QueryRequest::Delete { dataset, .. }
        | QueryRequest::Flush { dataset }
        | QueryRequest::CellStats { dataset } => {
            resolve(shared, ns, dataset)?.indexed(dataset).map(|_| 0)
        }
        // WAL streaming runs on the host.
        QueryRequest::WalFetch { .. } => Ok(0),
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if shared.shutdown.load(Ordering::Acquire) {
                    // Drain: every queued query learns the service is gone.
                    // (Graceful shutdown never reaches here with a
                    // non-empty queue — it sets the flag only once both
                    // queued and running counts hit zero.)
                    for p in q.pending.drain(..) {
                        p.reply.send(Err(ServiceError::Shutdown));
                    }
                    return;
                }
                match admit_next(shared, &mut q) {
                    Some(p) => break p,
                    None => {
                        // Timed wait so queued deadlines are re-checked
                        // even when no submit/complete event fires.
                        let (guard, _) = shared
                            .work_ready
                            .wait_timeout(q, Duration::from_millis(5))
                            .unwrap();
                        q = guard;
                    }
                }
            }
        };

        let queue_wait = job.enqueued.elapsed();
        job.ns.stats.admitted.fetch_add(1, Ordering::Relaxed);

        // A panic below must not take the reservations, the session's
        // running slot, the ticket and this worker down with it: it
        // becomes the query's in-band error and the loop goes on.
        let t0 = Instant::now();
        let run = || execute(shared, &job.ns, &job.request, &job.cancel);
        let outcome = catch_unwind(AssertUnwindSafe(run)).unwrap_or_else(|panic| {
            shared.worker_panics.fetch_add(1, Ordering::Relaxed);
            let what = (panic.downcast_ref::<String>().map(String::as_str))
                .or(panic.downcast_ref::<&str>().copied())
                .unwrap_or("no message");
            let what = format!("internal error: query execution panicked: {what}");
            Err(ServiceError::Storage(spade_storage::StorageError::Io(what)))
        });
        let exec_time = t0.elapsed();

        shared.admission.free(job.footprint);
        job.ns.release(job.footprint);
        {
            let mut q = shared.queue.lock().unwrap();
            q.running -= 1;
            if let Some(n) = q.running_per_session.get_mut(&job.session) {
                *n -= 1;
                if *n == 0 {
                    q.running_per_session.remove(&job.session);
                }
            }
        }
        // A released reservation (and session slot) may unblock queued
        // queries: wake the pool.
        shared.work_ready.notify_all();

        shared.stats.record_latency(queue_wait + exec_time);
        shared.metrics.queue_wait.observe(queue_wait);
        shared.metrics.exec.observe(exec_time);
        let reply = match outcome {
            Ok((payload, stats)) => {
                job.ns.stats.completed.fetch_add(1, Ordering::Relaxed);
                job.ns.stats.count_plan(&stats);
                shared.metrics.record_query(&stats);
                Ok(QueryResponse {
                    payload,
                    stats,
                    queue_wait,
                    exec_time,
                })
            }
            Err(e) => {
                let e = refine_cancel(e, &job.cancel);
                match e {
                    ServiceError::Cancelled | ServiceError::DeadlineExceeded => {
                        job.ns.stats.cancelled.fetch_add(1, Ordering::Relaxed);
                    }
                    _ => {
                        job.ns.stats.failed.fetch_add(1, Ordering::Relaxed);
                    }
                };
                Err(e)
            }
        };
        job.reply.send(reply);
    }
}

/// Pick the next admissible queued query. See the module docs for the
/// scan's fairness and FIFO rules. Expired/cancelled entries are purged
/// (replied to) in place.
///
/// Tenant quotas behave like the session fairness cap, not like device
/// memory: a query whose tenant is at its quota is *skipped* (the scan
/// continues), so one tenant saturating its carve-out can never starve
/// another tenant's queries — only device-memory exhaustion stops the
/// scan, keeping memory admission strictly FIFO.
fn admit_next(shared: &Shared, q: &mut Queue) -> Option<Pending> {
    let mut i = 0;
    while i < q.pending.len() {
        if q.pending[i].cancel.is_cancelled() {
            let p = q.pending.remove(i).expect("index in bounds");
            let err = refine_cancel(ServiceError::Cancelled, &p.cancel);
            p.ns.stats.cancelled.fetch_add(1, Ordering::Relaxed);
            p.reply.send(Err(err));
            continue;
        }
        let session = q.pending[i].session;
        let session_running = q.running_per_session.get(&session).copied().unwrap_or(0);
        if session_running >= shared.fairness_cap {
            i += 1; // fairness: bypass a session already at its cap
            continue;
        }
        if !q.pending[i].ns.try_reserve(q.pending[i].footprint) {
            // Tenant at its admission quota: bypass, other tenants (and
            // this tenant's already-running queries) proceed.
            q.pending[i]
                .ns
                .stats
                .quota_deferrals
                .fetch_add(1, Ordering::Relaxed);
            i += 1;
            continue;
        }
        if shared.admission.alloc(q.pending[i].footprint).is_err() {
            // Memory admission is strictly FIFO: stop, don't starve the
            // head with later small queries.
            q.pending[i].ns.release(q.pending[i].footprint);
            return None;
        }
        let p = q.pending.remove(i).expect("index in bounds");
        *q.running_per_session.entry(p.session).or_insert(0) += 1;
        q.running += 1;
        return Some(p);
    }
    None
}

/// Distinguish an expired deadline from an explicit cancel in the reply.
fn refine_cancel(e: ServiceError, cancel: &CancelToken) -> ServiceError {
    match e {
        ServiceError::Cancelled => match cancel.deadline() {
            Some(d) if Instant::now() >= d => ServiceError::DeadlineExceeded,
            _ => ServiceError::Cancelled,
        },
        other => other,
    }
}

fn execute(
    shared: &Shared,
    ns: &Arc<Namespace>,
    request: &QueryRequest,
    cancel: &CancelToken,
) -> Result<(ResponsePayload, QueryStats), ServiceError> {
    cancel.check().map_err(ServiceError::from)?;
    // All read paths go through the ctx dispatchers with `cached` set:
    // repeated hot-tile queries are served straight from the result cache
    // while the dataset version is unchanged, and identical concurrent
    // misses coalesce into one render. The namespace id joins the cache
    // key, so tenants never share cached bytes. A shard request differs
    // from its plain form only in the ctx's scope — which also makes the
    // dispatcher bypass the cache: a scoped result is not the full answer
    // for its (dataset, query) key, and coordinators already cache at the
    // merged level if they want to.
    let ctx = QueryCtx {
        cancel: cancel.clone(),
        scope: request.scope(),
        tenant: ns.id(),
        cached: true,
    };
    match request {
        QueryRequest::Select { dataset, query }
        | QueryRequest::ShardSelect { dataset, query, .. } => {
            let data = resolve(shared, ns, dataset)?;
            let out = query::run_select_ctx(&shared.spade, data.source(), query, &ctx)?;
            Ok((ResponsePayload::Query(out.result), out.stats))
        }
        QueryRequest::Join { left, right, query }
        | QueryRequest::ShardJoin {
            left, right, query, ..
        } => {
            let (l, r) = (resolve(shared, ns, left)?, resolve(shared, ns, right)?);
            let out = query::run_join_ctx(&shared.spade, l.source(), r.source(), query, &ctx)?;
            Ok((ResponsePayload::Query(out.result), out.stats))
        }
        QueryRequest::Sql(stmt) => {
            // SQL is tenant-scoped like every other request: the statement
            // executes against the submitting session's namespace store,
            // so a tenant (local or over the wire) can never read or
            // modify another tenant's tables.
            let db = ns.db.lock().unwrap();
            let mut observer = SpatialInsertObserver { shared, ns };
            let result = spade_storage::sql::execute_observed(&db, stmt, Some(&mut observer))?;
            Ok((ResponsePayload::Sql(result), QueryStats::default()))
        }
        QueryRequest::Explain { analyze, request } => {
            explain(shared, ns, *analyze, request, cancel)
        }
        QueryRequest::Insert { .. } | QueryRequest::Delete { .. } | QueryRequest::Flush { .. } => {
            execute_write(shared, ns, request)
        }
        QueryRequest::CellStats { dataset } => {
            let idx = resolve(shared, ns, dataset)?.indexed(dataset)?;
            let cells = idx
                .grid()
                .cells()
                .iter()
                .map(|c| crate::request::CellInfo {
                    bbox: c.bbox(),
                    bytes: c.bytes,
                    objects: c.num_objects as u32,
                })
                .collect();
            let seq = shared
                .wal
                .as_ref()
                .map_or(0, |w| w.lock().unwrap().next_seq().saturating_sub(1));
            Ok((
                ResponsePayload::CellStats {
                    generation: idx.delta_stats().generation,
                    seq,
                    cells,
                },
                QueryStats::default(),
            ))
        }
        QueryRequest::WalFetch { after_seq, limit } => {
            // Replication is an operator-level facility: only the default
            // namespace may read the raw (cross-tenant) WAL stream.
            if ns.id() != 0 {
                return Err(ServiceError::Unauthorized(ns.name().to_string()));
            }
            let Some(wal) = &shared.wal else {
                return Ok((
                    ResponsePayload::WalBatch {
                        leader_seq: 0,
                        records: Vec::new(),
                    },
                    QueryStats::default(),
                ));
            };
            // Holding the WAL mutex while streaming keeps the tail stable
            // under concurrent appends; `limit` bounds the critical section.
            let wal = wal.lock().unwrap();
            let leader_seq = wal.next_seq().saturating_sub(1);
            let records: Vec<_> = wal
                .records_since(*after_seq)
                .take((*limit).max(1) as usize)
                .collect();
            drop(wal);
            Ok((
                ResponsePayload::WalBatch {
                    leader_seq,
                    records,
                },
                QueryStats::default(),
            ))
        }
    }
}

/// Routes SQL `INSERT` statements into registered spatial datasets through
/// the [`write`] path of typed [`QueryRequest::Insert`]s, backpressure and
/// compaction signal included. A spatial table row is `(id INT, x, y)`;
/// tables not registered as indexed datasets pass through untouched. The
/// callback fires before the rows land in the relational table, so the WAL
/// append is the durability point for both representations.
struct SpatialInsertObserver<'a> {
    shared: &'a Shared,
    ns: &'a Arc<Namespace>,
}

impl spade_storage::sql::SqlObserver for SpatialInsertObserver<'_> {
    fn before_insert(
        &mut self,
        table: &str,
        rows: &[Vec<spade_storage::Value>],
    ) -> spade_storage::Result<()> {
        let Ok(Registered::Indexed(idx)) = resolve(self.shared, self.ns, table) else {
            return Ok(());
        };
        // Parse every row before touching the WAL: a malformed row aborts
        // the whole statement with nothing made durable or visible.
        let ops = (rows.iter())
            .map(|row| spatial_row(table, row))
            .collect::<spade_storage::Result<_>>()?;
        write(self.shared, self.ns, table, &idx, ops).map(drop)
    }
}

/// Interpret one relational row destined for a spatial table as the insert
/// it logs: column 0 is the object id, columns 1–2 the point coordinates.
fn spatial_row(table: &str, row: &[spade_storage::Value]) -> spade_storage::Result<WalOp> {
    use spade_storage::Value;
    let num = |v: &Value| -> Option<f64> {
        match v {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    };
    match row {
        [Value::Int(id), x, y] if num(x).is_some() && num(y).is_some() && *id >= 0 => {
            Ok(WalOp::Insert {
                id: *id as u32,
                geom: spade_geometry::Geometry::Point(spade_geometry::Point::new(
                    num(x).unwrap(),
                    num(y).unwrap(),
                )),
            })
        }
        _ => Err(spade_storage::StorageError::Parse(format!(
            "table '{table}' is a registered spatial dataset; INSERT rows must be (id INT, x, y)"
        ))),
    }
}

/// A catalog entry: a grid-indexed dataset or an in-memory one.
#[derive(Clone)]
enum Registered {
    Indexed(Arc<IndexedDataset>),
    Memory(Arc<Dataset>),
}

impl Registered {
    fn source(&self) -> query::Source<'_> {
        match self {
            Registered::Indexed(d) => query::Source::Indexed(d),
            Registered::Memory(d) => query::Source::Memory(d),
        }
    }

    /// The grid-indexed form — the only one writes and cell statistics
    /// exist for.
    fn indexed(self, name: &str) -> Result<Arc<IndexedDataset>, ServiceError> {
        match self {
            Registered::Indexed(d) => Ok(d),
            Registered::Memory(_) => Err(ServiceError::UnknownDataset(name.to_string())),
        }
    }
}

/// Look `name` up in a namespace's catalog or fail with
/// [`ServiceError::UnknownDataset`].
fn resolve(shared: &Shared, ns: &Namespace, name: &str) -> Result<Registered, ServiceError> {
    let key = (ns.id(), name.to_string());
    let entry = shared.catalog.read().unwrap().get(&key).cloned();
    entry.ok_or(ServiceError::UnknownDataset(key.1))
}

/// Execute one write request: an insert or delete takes the [`write`]
/// path; a flush syncs the WAL and compacts now.
fn execute_write(
    shared: &Shared,
    ns: &Arc<Namespace>,
    request: &QueryRequest,
) -> Result<(ResponsePayload, QueryStats), ServiceError> {
    let (dataset, op) = match request {
        QueryRequest::Insert {
            dataset,
            id,
            geometry,
        } => (
            dataset,
            WalOp::Insert {
                id: *id,
                geom: geometry.clone(),
            },
        ),
        QueryRequest::Delete { dataset, id } => (dataset, WalOp::Delete { id: *id }),
        QueryRequest::Flush { dataset } => {
            let idx = resolve(shared, ns, dataset)?.indexed(dataset)?;
            if let Some(wal) = &shared.wal {
                wal.lock().unwrap().sync()?;
            }
            compact_now(shared, ns, dataset, &idx)?;
            let ack = ResponsePayload::Ack {
                seq: idx.checkpoint_seq(),
                generation: idx.delta_stats().generation,
            };
            return Ok((ack, QueryStats::default()));
        }
        other => unreachable!("execute_write on non-write request {:?}", other.class()),
    };
    let idx = resolve(shared, ns, dataset)?.indexed(dataset)?;
    Ok((
        write(shared, ns, dataset, &idx, vec![op])?,
        QueryStats::default(),
    ))
}

/// The one write path, for typed writes and SQL `INSERT`s alike: (1)
/// backpressure — a delta already at or over `delta_max_bytes` compacts
/// synchronously on the writer's worker before admitting more debt; (2)
/// WAL append, the durability point (`wal_sync` decides whether a single
/// append fsyncs; several ops are one batch with one fsync); (3) stage into
/// the delta store, which makes the writes visible to queries; (4) past
/// `compact_trigger_bytes`, signal the background compactor. (2) and (3)
/// share one WAL critical section (the `Shared::wal` invariant); without a
/// WAL the dataset sequences the writes itself. Acks the last op.
fn write(
    shared: &Shared,
    ns: &Arc<Namespace>,
    dataset: &str,
    idx: &Arc<IndexedDataset>,
    ops: Vec<WalOp>,
) -> spade_storage::Result<ResponsePayload> {
    if idx.delta_stats().bytes >= shared.spade.config.delta_max_bytes {
        compact_now(shared, ns, dataset, idx)?;
    }
    let seqs: Vec<u64> = match &shared.wal {
        Some(wal) => {
            let mut wal = wal.lock().unwrap();
            let key = ns.wal_key(dataset);
            let seqs = match &ops[..] {
                [op] => vec![wal.append(&key, op.clone())?],
                _ => wal.append_batch(&key, ops.clone())?,
            };
            for (&seq, op) in seqs.iter().zip(ops) {
                stage(idx, Some(seq), op);
            }
            seqs
        }
        None => ops.into_iter().map(|op| stage(idx, None, op)).collect(),
    };
    let stats = idx.delta_stats();
    maybe_signal_compactor(shared, ns, dataset, stats.bytes);
    Ok(ResponsePayload::Ack {
        seq: seqs.last().copied().unwrap_or_default(),
        generation: stats.generation,
    })
}

/// Stage one logged op into the delta store at its WAL sequence, or — with
/// no WAL (`None`) — at the next sequence the dataset assigns; returns the
/// sequence. A checkpoint stages nothing.
fn stage(idx: &IndexedDataset, seq: Option<u64>, op: WalOp) -> u64 {
    match (op, seq) {
        (WalOp::Insert { id, geom }, Some(seq)) => {
            idx.insert_at(seq, id, geom);
            seq
        }
        (WalOp::Insert { id, geom }, None) => idx.insert(id, geom),
        (WalOp::Delete { id }, Some(seq)) => {
            idx.delete_at(seq, id);
            seq
        }
        (WalOp::Delete { id }, None) => idx.delete(id),
        (WalOp::Checkpoint { .. }, seq) => seq.unwrap_or_default(),
    }
}

/// Run one compaction of `idx` and account for it: fold the report into
/// the compaction counters and append a `Checkpoint` record so WAL replay
/// after the *next* open skips everything the new generation persisted.
/// The checkpoint is written after [`IndexedDataset::compact`] returns —
/// i.e. after the new generation's manifest is durable — so a crash
/// between the two only costs a harmless re-application of already-folded
/// records (inserts replace, deletes re-tombstone: replay is idempotent).
fn compact_now(
    shared: &Shared,
    ns: &Arc<Namespace>,
    dataset: &str,
    idx: &Arc<IndexedDataset>,
) -> spade_storage::Result<()> {
    let report = idx.compact(shared.spade.config.max_cell_bytes)?;
    if let Some(report) = report {
        shared.metrics.compact_runs.add(1);
        shared.metrics.compact_bytes_read.add(report.bytes_read);
        shared
            .metrics
            .compact_bytes_written
            .add(report.bytes_written);
        shared
            .metrics
            .compact_cells_split
            .add(report.cells_split as u64);
        // Entries keyed at the superseded version are unreachable now that
        // the generation moved; purge them so their bytes leave the device
        // ledger immediately instead of waiting for LRU pressure.
        shared
            .spade
            .result_cache
            .purge_outdated(idx.uid(), idx.version());
        if let Some(wal) = &shared.wal {
            wal.lock().unwrap().append(
                &ns.wal_key(dataset),
                WalOp::Checkpoint {
                    generation: report.generation,
                    through_seq: idx.checkpoint_seq(),
                },
            )?;
        }
    }
    Ok(())
}

/// Queue `dataset` for background compaction once its staged delta crosses
/// the trigger threshold. Deduplicates: a dataset already queued is not
/// queued twice.
fn maybe_signal_compactor(shared: &Shared, ns: &Arc<Namespace>, dataset: &str, delta_bytes: u64) {
    if delta_bytes < shared.spade.config.compact_trigger_bytes.max(1) {
        return;
    }
    let mut q = shared.compact_queue.lock().unwrap();
    if !q.iter().any(|(n, d)| n.id() == ns.id() && d == dataset) {
        q.push_back((Arc::clone(ns), dataset.to_string()));
        shared.compact_ready.notify_one();
    }
}

/// The background compactor: drains the compaction queue, rewriting each
/// dataset's delta into a fresh index generation while queries keep
/// reading the old one. Compaction failures are absorbed (the delta stays
/// staged and correct; the next trigger retries).
fn compactor_loop(shared: &Shared) {
    loop {
        let (ns, name) = {
            let mut q = shared.compact_queue.lock().unwrap();
            loop {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                if let Some(job) = q.pop_front() {
                    break job;
                }
                let (guard, _) = shared
                    .compact_ready
                    .wait_timeout(q, Duration::from_millis(20))
                    .unwrap();
                q = guard;
            }
        };
        if let Ok(Registered::Indexed(idx)) = resolve(shared, &ns, &name) {
            let _ = compact_now(shared, &ns, &name, &idx);
        }
    }
}

/// Execute an `EXPLAIN` / `EXPLAIN ANALYZE` request. SQL forwards to the
/// SQL layer's own `EXPLAIN` (which plans without executing unless
/// `ANALYZE`); spatial requests execute — the optimizer decides in-flight,
/// so execution *is* planning — and render the plan their stats carry
/// ([`spade_core::explain`]), with actual runtime numbers when `analyze`.
fn explain(
    shared: &Shared,
    ns: &Arc<Namespace>,
    analyze: bool,
    request: &QueryRequest,
    cancel: &CancelToken,
) -> Result<(ResponsePayload, QueryStats), ServiceError> {
    if let QueryRequest::Sql(stmt) = request {
        let prefixed = format!("EXPLAIN {}{stmt}", if analyze { "ANALYZE " } else { "" });
        let db = ns.db.lock().unwrap();
        let result = spade_storage::sql::execute(&db, &prefixed)?;
        let text = match &result {
            spade_storage::sql::SqlResult::Rows(table) => (0..table.num_rows())
                .filter_map(|i| table.row(i).into_iter().next())
                .map(|v| match v {
                    spade_storage::Value::Str(s) => format!("{s}\n"),
                    v => format!("{v}\n"),
                })
                .collect(),
            other => format!("{other:?}\n"),
        };
        return Ok((ResponsePayload::Explain(text), QueryStats::default()));
    }
    let (_, stats) = execute(shared, ns, request, cancel)?;
    let mut text = format!(
        "{} {}\n",
        if analyze {
            "EXPLAIN ANALYZE"
        } else {
            "EXPLAIN"
        },
        describe(request),
    );
    text.push_str(&spade_core::explain::render(&stats, analyze));
    Ok((ResponsePayload::Explain(text), stats))
}

/// One-line description of a request for the plan header.
fn describe(request: &QueryRequest) -> String {
    match request {
        QueryRequest::Select { dataset, .. } => {
            format!("{} on \"{dataset}\"", request.class())
        }
        QueryRequest::Join { left, right, .. } => {
            format!("{} on \"{left}\" x \"{right}\"", request.class())
        }
        QueryRequest::Sql(stmt) => format!("sql: {stmt}"),
        QueryRequest::Explain { request, .. } => format!("explain of {}", describe(request)),
        QueryRequest::Insert { dataset, id, .. } => format!("insert {id} into \"{dataset}\""),
        QueryRequest::Delete { dataset, id } => format!("delete {id} from \"{dataset}\""),
        QueryRequest::Flush { dataset } => format!("flush \"{dataset}\""),
        QueryRequest::ShardSelect { dataset, cells, .. } => format!(
            "{} on \"{dataset}\" cells [{}, {})",
            request.class(),
            cells.0,
            cells.1
        ),
        QueryRequest::ShardJoin {
            left, right, pairs, ..
        } => format!(
            "{} on \"{left}\" x \"{right}\" ({} pairs)",
            request.class(),
            pairs.len()
        ),
        QueryRequest::CellStats { dataset } => format!("cell-stats on \"{dataset}\""),
        QueryRequest::WalFetch { after_seq, limit } => {
            format!("wal-fetch after {after_seq} limit {limit}")
        }
    }
}

/// Results of spatial queries are plain data and compare bytewise through
/// `PartialEq`; re-exported here so differential tests read naturally.
pub type SpatialResult = QueryResult;
