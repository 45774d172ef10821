//! The traced replay: a batch answered by calling the stages of
//! `OpaqueService::process_batch` one by one through their public entry
//! points, with one span per call.
//!
//! The stages run in `process_batch` order, on parts assembled exactly as
//! `ServiceBuilder::build` assembles them, so the replay consumes the same
//! obfuscator randomness and must deliver the same paths as the service on
//! the same batch — the run checks that it does.

use opaque::service::SearchHeuristic;
use opaque::{
    CandidateResultsMsg, ClientId, ClientRequest, DefaultBackend, DirectionsBackend,
    DirectionsServer, HopTraffic, ObfuscatedQueryMsg, ObfuscationUnit, Obfuscator, Partition,
    PartitionPolicy, RequestMsg, ResultMsg, ServerStats, ServiceConfig, ShardedBackend,
};
use pathsearch::{AltPreprocessing, Path, SearchArena};
use roadnet::{GraphView, RoadNetwork};
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

/// A service's two trust domains, held apart so each stage can be called
/// (and timed) on its own.
pub struct Stack {
    /// The trusted obfuscator.
    pub obfuscator: Obfuscator,
    /// The shard fleet.
    pub backend: DefaultBackend,
}

impl Stack {
    /// Assemble the parts `ServiceBuilder::build` would assemble for
    /// `cfg`, reusing prebuilt landmark tables when given (they depend
    /// only on the map).
    pub fn assemble(
        cfg: &ServiceConfig,
        map: &RoadNetwork,
        alt: Option<Arc<AltPreprocessing>>,
    ) -> Stack {
        let shared = Arc::new(map.clone());
        let nodes = shared.num_nodes();
        let heuristic = match (cfg.heuristic, alt) {
            (SearchHeuristic::None, _) => None,
            (_, Some(tables)) => Some(tables),
            (h, None) => h.preprocess(shared.as_ref()).expect("valid heuristic"),
        };
        let servers: Vec<_> = (0..cfg.shards)
            .map(|_| {
                DirectionsServer::with_arena(
                    Arc::clone(&shared),
                    cfg.sharing,
                    SearchArena::preallocated(nodes, 1),
                )
                .with_tree_cache(cfg.cache)
                .with_heuristic(heuristic.clone())
            })
            .collect();
        let backend = match cfg.partition {
            PartitionPolicy::RoundRobin => ShardedBackend::new(servers),
            PartitionPolicy::RegionOwned { halo } => ShardedBackend::with_partition(
                servers,
                Partition::build(&shared, cfg.shards, halo).expect("partitionable map"),
            ),
        }
        .expect("non-empty fleet");
        let obfuscator = Obfuscator::new(map.clone(), cfg.strategy, cfg.seed)
            .with_consistent_fakes(cfg.consistent_fakes);
        Stack { obfuscator, backend }
    }

    /// Trees held across every shard's cache.
    pub fn cached_trees(&self) -> usize {
        self.backend.shards().iter().filter_map(|s| s.tree_cache()).map(|c| c.len()).sum()
    }
}

/// No parent.
pub const ROOT: u32 = u32::MAX;

/// One timed call.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Stage name.
    pub name: &'static str,
    /// Start, ns since the tracer was made.
    pub start: u64,
    /// End, ns since the tracer was made (0 while open).
    pub end: u64,
    /// Index of the parent span, or [`ROOT`].
    pub parent: u32,
    /// Batch id.
    pub batch: u32,
    /// Request or unit id within the batch.
    pub item: u32,
}

/// An in-memory span recorder, written out once at exit.
pub struct Tracer {
    t0: Instant,
    /// Recorded spans, in open order.
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { t0: Instant::now(), spans: Vec::new() }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span; returns its index.
    pub fn open(&mut self, name: &'static str, parent: u32, batch: u32, item: u32) -> u32 {
        let start = self.now();
        self.spans.push(Span { name, start, end: 0, parent, batch, item });
        (self.spans.len() - 1) as u32
    }

    /// Close span `i`.
    pub fn close(&mut self, i: u32) {
        let end = self.now();
        self.spans[i as usize].end = end;
    }

    /// Record an already-measured span (client-side wire spans).
    pub fn record(&mut self, span: Span) -> u32 {
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    /// Nanoseconds since the tracer was made, for [`Tracer::record`].
    pub fn stamp(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Total seconds and call count of the spans named `name`.
    pub fn total(&self, name: &str) -> (f64, usize) {
        let mut ns = 0u64;
        let mut n = 0;
        for s in self.spans.iter().filter(|s| s.name == name) {
            ns += s.end - s.start;
            n += 1;
        }
        (ns as f64 * 1e-9, n)
    }

    /// Write the spans as CSV (`id,parent,batch,item,name,start_ns,end_ns`;
    /// an empty parent is a root).
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,parent,batch,item,name,start_ns,end_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT { String::new() } else { s.parent.to_string() };
            writeln!(out, "{i},{parent},{},{},{},{},{}", s.batch, s.item, s.name, s.start, s.end)?;
        }
        out.flush()
    }
}

/// The stages a replayed batch is split into, in call order. Their summed
/// time over the batch's own span is the attributed share.
pub const STAGES: [&str; 5] = ["account", "admit", "obfuscate", "search", "filter"];

/// Per-unit search facts from a replay.
#[derive(Clone, Debug)]
pub struct UnitRecord {
    /// The unit as sent to the backend.
    pub unit: ObfuscationUnit,
    /// Backend counter deltas across this unit.
    pub stats: ServerStats,
    /// Search wall seconds.
    pub secs: f64,
}

/// Replay one batch through the stages of `process_batch` (service mode:
/// lenient delivery, independent obfuscation, sequential execution),
/// returning the delivered `(client, path)` pairs in request order.
///
/// # Errors
/// A description of the first stage that failed; the benchmark's
/// workloads are all feasible, so any error is a correctness failure.
pub fn replay_batch(
    stack: &mut Stack,
    tracer: &mut Tracer,
    batch: u32,
    requests: &[ClientRequest],
    units_out: &mut Vec<UnitRecord>,
) -> Result<Vec<(ClientId, Path)>, String> {
    let root = tracer.open("batch", ROOT, batch, 0);
    let mut traffic = HopTraffic::default();

    let s = tracer.open("account", root, batch, 0);
    for r in requests {
        traffic.record_request(&RequestMsg {
            client: r.client,
            query: r.query,
            protection: r.protection,
        });
    }
    tracer.close(s);

    let s = tracer.open("admit", root, batch, 0);
    let admitted =
        requests.iter().map(|r| stack.obfuscator.can_satisfy(r)).collect::<Result<Vec<_>, _>>();
    tracer.close(s);
    admitted.map_err(|e| format!("admission refused a request: {e}"))?;

    let mut units = Vec::with_capacity(requests.len());
    for (i, r) in requests.iter().enumerate() {
        let s = tracer.open("obfuscate", root, batch, i as u32);
        let unit = stack.obfuscator.obfuscate_independent(r);
        tracer.close(s);
        units.push(unit.map_err(|e| format!("obfuscation failed: {e}"))?);
    }

    let mut answers = Vec::with_capacity(units.len());
    for (u, unit) in units.iter().enumerate() {
        let before = stack.backend.stats();
        let s = tracer.open("search", root, batch, u as u32);
        let answer = DirectionsBackend::process(&mut stack.backend, &unit.query);
        tracer.close(s);
        let span = tracer.spans[s as usize];
        let stats = stack.backend.stats().delta_since(&before);
        units_out.push(UnitRecord {
            unit: unit.clone(),
            stats,
            secs: (span.end - span.start) as f64 * 1e-9,
        });
        answers.push(answer);
    }

    let mut delivered = Vec::with_capacity(requests.len());
    for (u, (unit, candidates)) in units.iter().zip(&answers).enumerate() {
        let s = tracer.open("account", root, batch, u as u32);
        traffic.record_query(&ObfuscatedQueryMsg { query_id: u as u64, query: unit.query.clone() });
        traffic.record_candidates(&CandidateResultsMsg::from_result(u as u64, candidates));
        tracer.close(s);
        for request in &unit.requests {
            let s = tracer.open("filter", root, batch, u as u32);
            let path = opaque::filter::extract_path(unit, request, candidates, None);
            tracer.close(s);
            match path.map_err(|e| format!("filter failed: {e}"))? {
                Some(path) => {
                    let s = tracer.open("account", root, batch, u as u32);
                    traffic
                        .record_result(&ResultMsg { client: request.client, path: path.clone() });
                    tracer.close(s);
                    delivered.push((request.client, path));
                }
                None => return Err(format!("unreachable pair for client {:?}", request.client)),
            }
        }
    }
    tracer.close(root);
    Ok(delivered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use opaque::{ClientRequest, PathQuery, ProtectionSettings, ServiceBuilder};
    use roadnet::NodeId;
    use roadnet::generators::{GridConfig, grid_network};

    #[test]
    fn replay_delivers_what_process_batch_delivers() {
        let map =
            grid_network(&GridConfig { width: 12, height: 12, seed: 4, ..Default::default() })
                .unwrap();
        let builder = || ServiceBuilder::new().map(map.clone()).seed(9).shards(2);
        let requests: Vec<ClientRequest> = (0..6u32)
            .map(|i| {
                ClientRequest::new(
                    ClientId(i),
                    PathQuery::new(NodeId(i * 7), NodeId(143 - i * 11)),
                    ProtectionSettings::new(2, 3).unwrap(),
                )
            })
            .collect();
        let mut service = builder().build().unwrap();
        let mut stack = Stack::assemble(builder().config(), &map, None);
        let mut tracer = Tracer::default();
        let mut units = Vec::new();
        for b in 0..3 {
            let served: Vec<(ClientId, Path)> = service
                .process_batch(&requests)
                .unwrap()
                .results
                .into_iter()
                .map(|r| (r.client, r.path))
                .collect();
            let replayed = replay_batch(&mut stack, &mut tracer, b, &requests, &mut units).unwrap();
            assert_eq!(replayed, served, "batch {b}");
        }
        assert_eq!(units.len(), 18);
        assert_eq!(tracer.total("batch").1, 3);
        assert!(tracer.spans.iter().all(|s| s.end >= s.start));
    }
}
