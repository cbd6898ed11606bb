//! The scatter-gather coordinator.

use crate::shard::ShardMap;
use spade_client::{Client, ClientConfig, ClientError, PendingReply};
use spade_core::query::{JoinQuery, QueryResult, SelectQuery};
use spade_core::QueryStats;
use spade_server::metrics::{render_labeled_counter, render_labeled_gauge, sanitize_label};
use spade_server::{QueryRequest, QueryResponse, ResponsePayload};
use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::RwLock;
use std::time::Duration;

/// Coordinator tuning.
#[derive(Debug, Clone, Default)]
pub struct ClusterConfig {
    /// Per-worker client tuning (namespace, token, pool size, frame cap).
    pub client: ClientConfig,
}

/// Why a cluster call failed.
#[derive(Debug)]
pub enum ClusterError {
    /// A worker connection or the service behind it failed.
    Client(ClientError),
    /// A worker answered with a payload the coordinator did not expect
    /// (e.g. an Ack where a query result was due) — a routing bug or a
    /// mixed-version cluster.
    Protocol(String),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Client(e) => write!(f, "worker: {e}"),
            ClusterError::Protocol(m) => write!(f, "protocol: {m}"),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<ClientError> for ClusterError {
    fn from(e: ClientError) -> Self {
        ClusterError::Client(e)
    }
}

/// The result-bearing families a scatter fans out, for the
/// `spade_shard_fanout_total{family}` metric.
const FAMILIES: [&str; 8] = [
    "select",
    "range",
    "contained",
    "distance",
    "knn",
    "join",
    "aggregate",
    "distance-join",
];

/// The join families the coordinator routes pair by pair: the metric
/// family, and the reach two cells must come within of each other to hold
/// a result. A kNN join is not one: its candidate cells depend on *live*
/// counts (the delta mask), which a [`ShardMap`] does not carry.
fn pair_family(query: &JoinQuery) -> Option<(&'static str, f64)> {
    match query {
        JoinQuery::Intersects => Some(("join", 0.0)),
        JoinQuery::CountPoints => Some(("aggregate", 0.0)),
        JoinQuery::WithinDistance(r) => Some(("distance-join", *r)),
        JoinQuery::Knn(_) => None,
    }
}

/// A scatter-gather front door over N workers, each a full `spade-net`
/// server holding the complete dataset. See the crate docs for the
/// execution model; the coordinator owns the shard maps, the routing
/// decisions, and the merge step, and exposes Prometheus-style counters
/// for fan-out and (modeled) cross-shard bytes moved.
pub struct ClusterClient {
    workers: Vec<Client>,
    maps: RwLock<HashMap<String, ShardMap>>,
    round_robin: AtomicUsize,
    fanout: [AtomicU64; 8],
    bytes_moved: Vec<AtomicU64>,
}

impl ClusterClient {
    /// Connect to every worker. Workers are equals — index 0 is only
    /// distinguished as the default target for unscattered requests and
    /// as the slice that carries the delta store in scatters.
    pub fn connect(
        addrs: &[SocketAddr],
        config: ClusterConfig,
    ) -> Result<ClusterClient, ClusterError> {
        assert!(!addrs.is_empty(), "a cluster needs at least one worker");
        let workers = addrs
            .iter()
            .map(|a| Client::connect(*a, config.client.clone()))
            .collect::<Result<Vec<_>, _>>()?;
        let bytes_moved = (0..addrs.len()).map(|_| AtomicU64::new(0)).collect();
        Ok(ClusterClient {
            workers,
            maps: RwLock::new(HashMap::new()),
            round_robin: AtomicUsize::new(0),
            fanout: Default::default(),
            bytes_moved,
        })
    }

    /// Fetch fresh per-cell statistics for `dataset` (from worker 0) and
    /// rebuild its shard map. Call after registering the dataset on every
    /// worker, and again after an explicit `Flush` — pair-routed joins
    /// enumerate cell pairs from this map, so they need it to describe
    /// the current index generation (selections tolerate a stale map: the
    /// unbounded last range keeps any covering scatter complete).
    pub fn refresh_shard_map(&self, dataset: &str) -> Result<(), ClusterError> {
        let reply = self.workers[0]
            .query(&QueryRequest::CellStats {
                dataset: dataset.to_string(),
            })
            .map_err(ClusterError::from)?;
        let ResponsePayload::CellStats {
            generation,
            seq,
            cells,
        } = reply.payload
        else {
            return Err(ClusterError::Protocol("CellStats reply expected".into()));
        };
        let map = ShardMap::build(cells, self.workers.len(), generation, seq);
        self.maps.write().unwrap().insert(dataset.to_string(), map);
        Ok(())
    }

    /// The current shard map for `dataset`, if one was built.
    pub fn shard_map(&self, dataset: &str) -> Option<ShardMap> {
        self.maps.read().unwrap().get(dataset).cloned()
    }

    /// Modeled cross-shard traffic per worker, in bytes: for every join
    /// pair routed off its owner, the byte size of the cell that had to
    /// come along. Indexed like the worker list.
    pub fn bytes_moved(&self) -> Vec<u64> {
        self.bytes_moved
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    fn note_fanout(&self, family: &str, shards: u64) {
        if let Some(i) = FAMILIES.iter().position(|f| *f == family) {
            self.fanout[i].fetch_add(shards, Ordering::Relaxed);
        }
    }

    fn next_worker(&self) -> &Client {
        let i = self.round_robin.fetch_add(1, Ordering::Relaxed);
        &self.workers[i % self.workers.len()]
    }

    /// Execute one request against the cluster. Selections and the
    /// pair-routed joins (`pair_family`) scatter when a shard map exists;
    /// writes broadcast; everything else routes to one worker.
    pub fn query(&self, request: &QueryRequest) -> Result<QueryResponse, ClusterError> {
        match request {
            QueryRequest::Select { dataset, query } => {
                let map = self.shard_map(dataset);
                match map {
                    Some(map) if self.workers.len() > 1 => {
                        self.scatter_select(request.class(), dataset, query, &map)
                    }
                    _ => Ok(self.next_worker().query(request)?),
                }
            }
            QueryRequest::Join { left, right, query } => {
                let maps = (self.shard_map(left), self.shard_map(right));
                match (maps, pair_family(query)) {
                    ((Some(lm), Some(rm)), Some(family)) if self.workers.len() > 1 => {
                        self.scatter_join(left, right, query, family, &lm, &rm)
                    }
                    // No shard map, one worker, or a kNN join: any single
                    // worker holds the full data and answers alone, inside
                    // its own device budget.
                    _ => Ok(self.next_worker().query(request)?),
                }
            }
            QueryRequest::Insert { .. }
            | QueryRequest::Delete { .. }
            | QueryRequest::Flush { .. } => self.broadcast(request),
            QueryRequest::Sql(stmt) => {
                if sql_is_read_only(stmt) {
                    Ok(self.next_worker().query(request)?)
                } else {
                    // DML must reach every worker to keep their (equal)
                    // relational stores and spatial deltas in step.
                    self.broadcast(request)
                }
            }
            QueryRequest::Explain { analyze, request } => self.explain(*analyze, request),
            // Shard-internal and replication requests pass through.
            _ => Ok(self.workers[0].query(request)?),
        }
    }

    /// Send to every worker, wait for all, return worker 0's reply. An
    /// error from any worker is the call's error — a half-applied write
    /// is surfaced, never masked.
    fn broadcast(&self, request: &QueryRequest) -> Result<QueryResponse, ClusterError> {
        let pending: Vec<PendingReply> = self
            .workers
            .iter()
            .map(|w| w.submit(request))
            .collect::<Result<_, _>>()?;
        let mut first = None;
        for (i, p) in pending.into_iter().enumerate() {
            let reply = p.wait()?;
            if i == 0 {
                first = Some(reply);
            }
        }
        Ok(first.expect("at least one worker"))
    }

    fn scatter_select(
        &self,
        family: &str,
        dataset: &str,
        query: &SelectQuery,
        map: &ShardMap,
    ) -> Result<QueryResponse, ClusterError> {
        let shards = map.shards().min(self.workers.len());
        self.note_fanout(family, shards as u64);
        let pending: Vec<PendingReply> = (0..shards)
            .map(|i| {
                self.workers[i].submit(&QueryRequest::ShardSelect {
                    dataset: dataset.to_string(),
                    query: query.clone(),
                    cells: map.range(i),
                    // Exactly one slice owns the staged delta.
                    include_delta: i == 0,
                })
            })
            .collect::<Result<_, _>>()?;
        let partials = wait_query_partials(pending)?;
        let k = match query {
            SelectQuery::Knn(_, k) => Some(*k),
            _ => None,
        };
        merge_partials(partials, k)
    }

    /// Route every cell pair whose bboxes come within `reach` of each other
    /// (a superset of the pairs a worker's own hull filter would keep) to
    /// a worker: pairs whose two cells share an owner run there;
    /// cross-shard pairs run on the side where the cell that must come
    /// along is smaller (each worker
    /// holds the full dataset, so "moving" a cell is a modeled cost — the
    /// same byte estimate the single-node optimizer uses to order its
    /// pair walk — not an actual transfer; the counters record it so the
    /// routing policy is observable).
    fn plan_join_pairs(
        &self,
        lm: &ShardMap,
        rm: &ShardMap,
        reach: f64,
    ) -> (Vec<Vec<(u32, u32)>>, Vec<u64>) {
        let shards = lm.shards().min(self.workers.len());
        let mut per_shard: Vec<Vec<(u32, u32)>> = vec![Vec::new(); shards];
        let mut moved = vec![0u64; shards];
        for l in 0..lm.num_cells() as u32 {
            let Some(lb) = lm.cell_bbox(l) else { continue };
            // Widened by a rounding margin, to stay a superset.
            let lb = lb.inflate(reach * (1.0 + 1e-9));
            for r in 0..rm.num_cells() as u32 {
                let Some(rb) = rm.cell_bbox(r) else { continue };
                if !lb.intersects(&rb) {
                    continue;
                }
                let (sl, sr) = (lm.owner(l).min(shards - 1), rm.owner(r).min(shards - 1));
                let target = if sl == sr {
                    sl
                } else if rm.cell_bytes(r) <= lm.cell_bytes(l) {
                    moved[sl] += rm.cell_bytes(r);
                    sl
                } else {
                    moved[sr] += lm.cell_bytes(l);
                    sr
                };
                per_shard[target].push((l, r));
            }
        }
        (per_shard, moved)
    }

    fn scatter_join(
        &self,
        left: &str,
        right: &str,
        query: &JoinQuery,
        (family, reach): (&str, f64),
        lm: &ShardMap,
        rm: &ShardMap,
    ) -> Result<QueryResponse, ClusterError> {
        let (per_shard, moved) = self.plan_join_pairs(lm, rm, reach);
        for (i, m) in moved.iter().enumerate() {
            self.bytes_moved[i].fetch_add(*m, Ordering::Relaxed);
        }
        // Shard 0 always participates (it owns the deltas and plans their
        // pairs); other shards are contacted only when pairs routed to them.
        let mut targets: Vec<usize> = (0..per_shard.len())
            .filter(|&i| i == 0 || !per_shard[i].is_empty())
            .collect();
        targets.sort_unstable();
        self.note_fanout(family, targets.len() as u64);
        let pending: Vec<PendingReply> = targets
            .iter()
            .map(|&i| {
                self.workers[i].submit(&QueryRequest::ShardJoin {
                    left: left.to_string(),
                    right: right.to_string(),
                    query: query.clone(),
                    pairs: per_shard[i].clone(),
                    include_delta: i == 0,
                })
            })
            .collect::<Result<_, _>>()?;
        let partials = wait_query_partials(pending)?;
        merge_partials(partials, None)
    }

    /// EXPLAIN against the cluster: joins that would scatter get their
    /// shard routing prepended to the plan text (which one worker
    /// renders — the engine plan is the same everywhere; the routing is
    /// the part only the coordinator knows).
    fn explain(&self, analyze: bool, inner: &QueryRequest) -> Result<QueryResponse, ClusterError> {
        let mut routing = String::new();
        if let QueryRequest::Join { left, right, query } = inner {
            if let Some((_, reach)) = pair_family(query) {
                if let (Some(lm), Some(rm)) = (self.shard_map(left), self.shard_map(right)) {
                    let (per_shard, moved) = self.plan_join_pairs(&lm, &rm, reach);
                    let total: usize = per_shard.iter().map(Vec::len).sum();
                    let local: usize = per_shard
                        .iter()
                        .enumerate()
                        .map(|(i, pairs)| {
                            pairs
                                .iter()
                                .filter(|(l, r)| lm.owner(*l) == i && rm.owner(*r) == i)
                                .count()
                        })
                        .sum();
                    routing.push_str(&format!(
                        "cluster join: {total} cell pairs over {} shards ({local} co-located, {} cross-shard, {} B moved)\n",
                        per_shard.len(),
                        total - local,
                        moved.iter().sum::<u64>(),
                    ));
                    for (i, pairs) in per_shard.iter().enumerate() {
                        routing.push_str(&format!(
                            "cluster join: shard {i}: {} pairs, {} B moved{}\n",
                            pairs.len(),
                            moved[i],
                            if i == 0 { ", +delta" } else { "" },
                        ));
                    }
                }
            }
        }
        let mut reply = self.workers[0].query(&QueryRequest::Explain {
            analyze,
            request: Box::new(inner.clone()),
        })?;
        if !routing.is_empty() {
            if let ResponsePayload::Explain(text) = reply.payload {
                reply.payload = ResponsePayload::Explain(format!("{routing}{text}"));
            }
        }
        Ok(reply)
    }

    /// Coordinator metrics in Prometheus text format:
    /// `spade_shard_fanout_total{family}` and
    /// `spade_shard_bytes_moved_total{shard}`.
    pub fn metrics_text(&self) -> String {
        let mut out = String::new();
        for (i, family) in FAMILIES.iter().enumerate() {
            render_labeled_counter(
                &mut out,
                "spade_shard_fanout_total",
                "Shard requests issued by scatter-gather queries, by family.",
                &[("family", &sanitize_label(family))],
                self.fanout[i].load(Ordering::Relaxed),
                i == 0,
            );
        }
        for (i, moved) in self.bytes_moved.iter().enumerate() {
            render_labeled_counter(
                &mut out,
                "spade_shard_bytes_moved_total",
                "Modeled bytes brought to each shard for cross-shard join pairs.",
                &[("shard", &sanitize_label(&i.to_string()))],
                moved.load(Ordering::Relaxed),
                i == 0,
            );
        }
        let maps = self.maps.read().unwrap();
        for (i, (name, map)) in maps.iter().enumerate() {
            render_labeled_gauge(
                &mut out,
                "spade_shard_map_generation",
                "Index generation each shard map was built from.",
                &[("dataset", &sanitize_label(name))],
                map.generation,
                i == 0,
            );
        }
        out
    }
}

/// `SELECT`-only statements can be answered by any single worker; anything
/// else mutates and must broadcast.
fn sql_is_read_only(stmt: &str) -> bool {
    let head = stmt.trim_start();
    let word: String = head
        .chars()
        .take_while(|c| c.is_ascii_alphabetic())
        .collect();
    word.eq_ignore_ascii_case("select") || word.eq_ignore_ascii_case("explain")
}

/// Wait for all shard replies, insisting each is a spatial query result.
fn wait_query_partials(
    pending: Vec<PendingReply>,
) -> Result<Vec<(QueryResult, QueryStats, Duration, Duration)>, ClusterError> {
    let mut out = Vec::with_capacity(pending.len());
    for p in pending {
        let reply = p.wait()?;
        match reply.payload {
            ResponsePayload::Query(r) => {
                out.push((r, reply.stats, reply.queue_wait, reply.exec_time))
            }
            other => {
                return Err(ClusterError::Protocol(format!(
                    "shard answered {other:?} to a shard query"
                )))
            }
        }
    }
    Ok(out)
}

/// Merge shard partials into the result a single node would produce.
///
/// * Id results: each object lives in exactly one cell, the scatter's
///   ranges are disjoint, and the delta rides exactly one slice — the
///   union has no duplicates *across* shards in the base index, but an
///   object can appear in both a base cell and the delta slice after an
///   in-place update, exactly as on a single node; sort + dedup is the
///   same final step the single-node executors apply, so the bytes match.
/// * kNN: each shard returns its exact local top-k by `(distance, id)`;
///   any member of the global top-k lies in some shard's scope and thus
///   in that shard's local top-k, so concatenate, re-sort, truncate.
/// * Pairs: pair lists are disjoint by construction (each cell pair is
///   routed to exactly one shard); sort + dedup mirrors the single node.
/// * Counts: every shard sums only its routed pairs and reports the
///   polygons of the cells they name; the shard that owns the deltas adds
///   the delta terms and, at 0, the polygons of every cell its own pairs
///   did not name, so the partials cover the full id set; per-id addition
///   is exactly the single-node accumulation reordered.
fn merge_partials(
    partials: Vec<(QueryResult, QueryStats, Duration, Duration)>,
    knn_k: Option<usize>,
) -> Result<QueryResponse, ClusterError> {
    // Fan-out runs in parallel: the wall terms are the critical-path
    // shard's — the one with the largest total — so they still partition
    // its total; volume terms add up over every shard.
    let critical = partials.iter().max_by_key(|p| p.1.total_time);
    let Some((_, s, queue_wait, exec_time)) = critical else {
        return Err(ClusterError::Protocol(
            "scatter produced no partials".into(),
        ));
    };
    let (queue_wait, exec_time) = (*queue_wait, *exec_time);
    let mut stats = QueryStats {
        io_time: s.io_time,
        io_hidden: s.io_hidden,
        gpu_time: s.gpu_time,
        polygon_time: s.polygon_time,
        cpu_time: s.cpu_time,
        total_time: s.total_time,
        ..Default::default()
    };
    let mut ids: Vec<u32> = Vec::new();
    let mut ranked: Vec<(u32, f64)> = Vec::new();
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    let mut counts: BTreeMap<u32, u64> = BTreeMap::new();
    let mut kind: Option<u8> = None;
    for (result, s, _, _) in partials {
        stats.bytes_from_disk += s.bytes_from_disk;
        stats.bytes_to_device += s.bytes_to_device;
        stats.passes += s.passes;
        stats.cells_loaded += s.cells_loaded;
        stats.prefetch_hits += s.prefetch_hits;
        stats.prefetch_misses += s.prefetch_misses;
        stats.cache_hits += s.cache_hits;
        let this = match &result {
            QueryResult::Ids(_) => 1,
            QueryResult::Ranked(_) => 2,
            QueryResult::Pairs(_) => 3,
            QueryResult::RankedPairs(_) => 4,
            QueryResult::Counts(_) => 5,
        };
        match kind {
            None => kind = Some(this),
            Some(k) if k != this => {
                return Err(ClusterError::Protocol(
                    "shards answered mixed result kinds".into(),
                ))
            }
            _ => {}
        }
        match result {
            QueryResult::Ids(v) => ids.extend(v),
            QueryResult::Ranked(v) => ranked.extend(v),
            QueryResult::Pairs(v) => pairs.extend(v),
            QueryResult::RankedPairs(_) => {
                return Err(ClusterError::Protocol(
                    "ranked pairs are not a scatter family".into(),
                ))
            }
            QueryResult::Counts(v) => {
                for (id, n) in v {
                    *counts.entry(id).or_insert(0) += n;
                }
            }
        }
    }
    let result = match kind {
        Some(1) => {
            ids.sort_unstable();
            ids.dedup();
            QueryResult::Ids(ids)
        }
        Some(2) => {
            ranked.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            if let Some(k) = knn_k {
                ranked.truncate(k);
            }
            QueryResult::Ranked(ranked)
        }
        Some(3) => {
            pairs.sort_unstable();
            pairs.dedup();
            QueryResult::Pairs(pairs)
        }
        Some(5) => QueryResult::Counts(counts.into_iter().collect()),
        _ => {
            return Err(ClusterError::Protocol(
                "scatter produced no partials".into(),
            ))
        }
    };
    stats.result_count = result.len() as u64;
    Ok(QueryResponse {
        payload: ResponsePayload::Query(result),
        stats,
        queue_wait,
        exec_time,
    })
}
