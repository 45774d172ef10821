//! Per-layer metrics of a traced run, taken from outside: the replay's
//! spans, backend counter deltas, and timed calls into each layer's
//! public functions.
//!
//! A layer the workload's served configuration does not use (the tree
//! cache on continent-alt, ALT on town-wire, ...) is measured by a probe
//! on the workload's own map and units, so every workload reports every
//! layer; `perfbench/workloads.json` says which layers are served and
//! which are probed.

use crate::inproc::{Round, Traced};
use crate::replay::{STAGES, Stack};
use crate::report::{Kind, Outcome};
use crate::stats::{Ratio, Summary};
use opaque::service::{CachePolicy, PartitionPolicy};
use opaque::{
    DirectionsBackend, DirectionsServer, ObfuscatedPathQuery, Partition, Priority, RequestMsg,
    ResultMsg, RouteKind, ServiceConfig, Ticket,
};
use opaque_net::frame::encode_frame;
use opaque_net::wire::{decode_message, encode_message};
use opaque_net::{FrameDecoder, WireReply, WireRequest};
use pathsearch::{AltPreprocessing, SearchArena};
use roadnet::{GraphView, NodeId, RoadNetwork};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::Instant;

/// Landmarks of the documented continent configuration.
pub const LANDMARKS: usize = 16;
/// Tree-cache capacity per shard (the experiments' setting).
pub const CACHE_TREES: usize = 64;
/// Shards of the region-owned placement (hotspot-churn's, and the
/// partition probe's elsewhere).
pub const REGION_SHARDS: usize = 4;
/// Halo hops of the region-owned placement.
pub const REGION_HALO: u32 = 2;

/// Everything the layer report reads.
pub struct Input<'a> {
    /// The map before churn.
    pub map: &'a RoadNetwork,
    /// The served configuration.
    pub cfg: ServiceConfig,
    /// `process_batch` seconds of the batches the replay replayed.
    pub untraced_secs: f64,
    /// Requests replayed.
    pub requests: usize,
    /// The replay.
    pub traced: &'a Traced,
    /// Update rounds for the probes of workloads without churn.
    pub rounds: &'a [Round],
    /// The served landmark tables, if any.
    pub alt: Option<Arc<AltPreprocessing>>,
    /// Seconds each probe pass may take.
    pub probe_secs: f64,
    /// The run's own request and delivered-result messages.
    pub messages: &'a [(RequestMsg, ResultMsg, f64)],
}

/// Report every per-layer metric of `input` into `out`.
pub fn report(input: &Input, out: &mut Outcome) {
    replay_layers(input, out);
    codec(input.messages, out);
    let units: Vec<&ObfuscatedPathQuery> =
        input.traced.units.iter().map(|u| &u.unit.query).collect();
    sweep_gap(input.map, &units, input.probe_secs, out);
    alt(input, &units, out);
    cache_and_updates(input, &units, out);
    partition(input, &units, out);
}

fn us_per(secs: f64, n: usize) -> f64 {
    secs * 1e6 / n.max(1) as f64
}

/// Stage costs, search counters and trace bookkeeping from the replay.
fn replay_layers(input: &Input, out: &mut Outcome) {
    let tr = &input.traced.tracer;
    let n = input.requests;
    let (obf, _) = tr.total("obfuscate");
    out.add(Kind::Layer, "obfuscate.us_per_req", us_per(obf, n), "us", n);
    let (search, units) = tr.total("search");
    let settled: u64 = input.traced.units.iter().map(|u| u.stats.search.settled).sum();
    let relaxed: u64 = input.traced.units.iter().map(|u| u.stats.search.relaxed).sum();
    out.add(Kind::Layer, "search.us_per_unit", us_per(search, units), "us", units);
    out.add(
        Kind::Layer,
        "search.settled_per_unit",
        settled as f64 / units.max(1) as f64,
        "count",
        units,
    );
    out.add(
        Kind::Layer,
        "search.relaxed_per_unit",
        relaxed as f64 / units.max(1) as f64,
        "count",
        units,
    );
    out.add(Kind::Layer, "search.ns_per_settle", search * 1e9 / settled.max(1) as f64, "ns", units);
    let (filter, _) = tr.total("filter");
    out.add(Kind::Layer, "filter.us_per_req", us_per(filter, n), "us", n);
    let (account, _) = tr.total("account");
    out.add(Kind::Layer, "account.us_per_req", us_per(account, n), "us", n);
    let (admit, _) = tr.total("admit");
    out.add(Kind::Printed, "admit.us_per_req", us_per(admit, n), "us", n);

    let staged: f64 = STAGES.iter().map(|s| tr.total(s).0).sum();
    let (traced, batches) = tr.total("batch");
    let unattributed = Ratio { value: staged, base: input.untraced_secs };
    out.add_noted(
        Kind::Layer,
        "trace.unattributed_share",
        1.0 - unattributed.get(),
        "share",
        batches,
        format!("1 - stage time / process_batch time = 1 - {unattributed}"),
    );
    let overhead = Ratio { value: traced, base: input.untraced_secs };
    out.add_noted(
        Kind::Layer,
        "trace.overhead_share",
        overhead.get() - 1.0,
        "share",
        batches,
        format!("traced / untraced - 1 = {overhead} - 1"),
    );
}

/// Wire codec cost and size of the run's own request and reply frames.
fn codec(messages: &[(RequestMsg, ResultMsg, f64)], out: &mut Outcome) {
    let mut bytes = 0usize;
    let mut decoder = FrameDecoder::new(opaque_net::DEFAULT_MAX_FRAME);
    let mut frame = Vec::new();
    let t = Instant::now();
    for (i, (request, result, waited)) in messages.iter().enumerate() {
        let wire = WireRequest { request: *request, priority: Priority::Interactive };
        frame.clear();
        encode_frame(&encode_message(&wire).expect("encodes"), &mut frame).expect("frames");
        bytes += frame.len();
        decoder.push(&frame);
        let payload = decoder.next_frame().expect("well-formed").expect("whole frame");
        let back: WireRequest = decode_message(&payload).expect("decodes");
        assert_eq!(back, wire, "request round trip");

        let reply =
            WireReply::Result { ticket: Ticket(i as u64), result: result.clone(), waited: *waited };
        frame.clear();
        encode_frame(&encode_message(&reply).expect("encodes"), &mut frame).expect("frames");
        bytes += frame.len();
        decoder.push(&frame);
        let payload = decoder.next_frame().expect("well-formed").expect("whole frame");
        let back: WireReply = decode_message(&payload).expect("decodes");
        assert_eq!(back, reply, "reply round trip");
    }
    let secs = t.elapsed().as_secs_f64();
    let n = messages.len();
    out.add(Kind::Layer, "net.codec_us_per_req", us_per(secs, n), "us", n);
    out.add(Kind::Layer, "net.bytes_per_req", bytes as f64 / n.max(1) as f64, "B", n);
}

/// Compressed sparse rows of a map, for the reference sweep.
struct Csr {
    offsets: Vec<u32>,
    heads: Vec<u32>,
    weights: Vec<f64>,
}

impl Csr {
    fn of(g: &RoadNetwork) -> Csr {
        let mut csr = Csr { offsets: vec![0], heads: Vec::new(), weights: Vec::new() };
        for n in 0..g.num_nodes() {
            g.for_each_arc(NodeId(n as u32), &mut |to, w| {
                csr.heads.push(to.0);
                csr.weights.push(w);
            });
            csr.offsets.push(csr.heads.len() as u32);
        }
        csr
    }

    /// Plain Dijkstra from `root` until every target is settled; returns
    /// the nodes settled. Distances are non-negative, so their bit
    /// patterns order like the values.
    fn sweep(
        &self,
        root: u32,
        targets: &[NodeId],
        dist: &mut [f64],
        heap: &mut BinaryHeap<Reverse<(u64, u32)>>,
    ) -> u64 {
        dist.fill(f64::INFINITY);
        heap.clear();
        dist[root as usize] = 0.0;
        heap.push(Reverse((0f64.to_bits(), root)));
        let mut remaining = targets.len();
        let mut settled = 0u64;
        while let Some(Reverse((key, v))) = heap.pop() {
            let d = f64::from_bits(key);
            if d > dist[v as usize] {
                continue;
            }
            settled += 1;
            if targets.iter().any(|t| t.0 == v) {
                remaining -= 1;
                if remaining == 0 {
                    break;
                }
            }
            let (lo, hi) =
                (self.offsets[v as usize] as usize, self.offsets[v as usize + 1] as usize);
            for a in lo..hi {
                let (to, nd) = (self.heads[a] as usize, d + self.weights[a]);
                if nd < dist[to] {
                    dist[to] = nd;
                    heap.push(Reverse((nd.to_bits(), to as u32)));
                }
            }
        }
        settled
    }
}

/// Library plain sweep (per-source trees, no cache, no heuristic) against
/// a minimal CSR Dijkstra over the same roots and stop rule.
fn sweep_gap(map: &RoadNetwork, units: &[&ObfuscatedPathQuery], budget: f64, out: &mut Outcome) {
    let mut server = DirectionsServer::with_arena(
        map,
        pathsearch::SharingPolicy::PerSource,
        SearchArena::preallocated(map.num_nodes(), 1),
    );
    let t = Instant::now();
    let mut k = 0;
    while k < units.len() && t.elapsed().as_secs_f64() < budget {
        server.process(units[k]);
        k += 1;
    }
    let lib_secs = t.elapsed().as_secs_f64();
    let lib_settled = server.stats().search.settled;

    let csr = Csr::of(map);
    let mut dist = vec![f64::INFINITY; map.num_nodes()];
    let mut heap = BinaryHeap::new();
    let t = Instant::now();
    let mut ref_settled = 0u64;
    for u in &units[..k] {
        for s in u.sources() {
            ref_settled += csr.sweep(s.0, u.targets(), &mut dist, &mut heap);
        }
    }
    let ref_secs = t.elapsed().as_secs_f64();
    let lib = lib_secs * 1e9 / lib_settled.max(1) as f64;
    let reference = ref_secs * 1e9 / ref_settled.max(1) as f64;
    let gap = Ratio { value: lib, base: reference };
    out.add_noted(
        Kind::Layer,
        "search.sweep_gap",
        gap.get(),
        "ratio",
        k,
        format!("library ns/settle / reference ns/settle = {gap}; settled {lib_settled} vs {ref_settled}"),
    );
}

/// ALT table build time, and the same units searched with the heuristic
/// off (base) and on.
fn alt(input: &Input, units: &[&ObfuscatedPathQuery], out: &mut Outcome) {
    let t = Instant::now();
    let built = AltPreprocessing::try_build(input.map, LANDMARKS).expect("symmetric map");
    let build_s = t.elapsed().as_secs_f64();
    out.add_noted(Kind::Layer, "alt.build_s", build_s, "s", 1, format!("{LANDMARKS} landmarks"));
    let tables = input.alt.clone().unwrap_or_else(|| Arc::new(built));

    let run = |heuristic: Option<Arc<AltPreprocessing>>, limit: Option<usize>| {
        let mut server = DirectionsServer::with_arena(
            input.map,
            input.cfg.sharing,
            SearchArena::preallocated(input.map.num_nodes(), 1),
        )
        .with_heuristic(heuristic);
        let t = Instant::now();
        let mut k = 0;
        while k < limit.unwrap_or(units.len())
            && (limit.is_some() || t.elapsed().as_secs_f64() < input.probe_secs)
        {
            server.process(units[k]);
            k += 1;
        }
        (t.elapsed().as_secs_f64(), server.stats().search.settled, k)
    };
    let (on_secs, on_settled, k) = run(Some(tables), None);
    let (off_secs, off_settled, _) = run(None, Some(k));
    let settled = Ratio { value: on_settled as f64, base: off_settled as f64 };
    let wall = Ratio { value: on_secs, base: off_secs };
    out.add_noted(
        Kind::Layer,
        "alt.settled_ratio",
        settled.get(),
        "ratio",
        k,
        format!("ALT on / off = {settled}"),
    );
    out.add_noted(
        Kind::Layer,
        "alt.wall_ratio",
        wall.get(),
        "ratio",
        k,
        format!("ALT on / off seconds = {wall}"),
    );
}

/// Tree-cache hit rate and evictions, and the update path's two halves.
/// Served when the workload runs a cache and churn; otherwise probed on
/// a cached copy of the served stack, a chunk of units between rounds.
fn cache_and_updates(input: &Input, units: &[&ObfuscatedPathQuery], out: &mut Outcome) {
    let served_cache = matches!(input.cfg.cache, CachePolicy::Lru { .. });
    let (hits, misses, hit_secs, miss_secs, rounds) =
        if served_cache && !input.traced.rounds.is_empty() {
            let mut hit_secs = Vec::new();
            let mut miss_secs = Vec::new();
            let (mut hits, mut misses) = (0u64, 0u64);
            for u in &input.traced.units {
                hits += u.stats.tree_cache_hits;
                misses += u.stats.tree_cache_misses;
                if u.stats.tree_cache_misses == 0 {
                    hit_secs.push(u.secs);
                } else {
                    miss_secs.push(u.secs);
                }
            }
            (hits, misses, hit_secs, miss_secs, input.traced.rounds.clone())
        } else {
            probe_cache(input, units)
        };
    let lookups = hits + misses;
    out.add_noted(
        Kind::Layer,
        "cache.hit_rate",
        hits as f64 / lookups.max(1) as f64,
        "share",
        lookups as usize,
        if served_cache { "served" } else { "probe" },
    );
    for (name, secs) in
        [("cache.hit_us_per_unit", &hit_secs), ("cache.miss_us_per_unit", &miss_secs)]
    {
        if let Some(s) = Summary::of(secs) {
            let mean = secs.iter().sum::<f64>() / secs.len() as f64;
            out.add_noted(
                Kind::Printed,
                name,
                mean * 1e6,
                "us",
                s.count,
                format!("median {:.3} us", s.median * 1e6),
            );
        }
    }
    let evicted: Vec<f64> = rounds.iter().map(|r| r.2).collect();
    let mean_evicted = evicted.iter().sum::<f64>() / evicted.len().max(1) as f64;
    out.add(Kind::Layer, "cache.evicted_per_round", mean_evicted, "count", evicted.len());
    let backend: Vec<f64> = rounds.iter().map(|r| r.0 * 1e3).collect();
    let obfuscator: Vec<f64> = rounds.iter().map(|r| r.1 * 1e3).collect();
    for (name, ms) in [("update.backend_ms", backend), ("update.obfuscator_ms", obfuscator)] {
        let s = Summary::of(&ms).expect("at least one update round");
        out.add_noted(
            Kind::Layer,
            name,
            s.median,
            "ms",
            s.count,
            crate::inproc::tail_note(&s, "ms"),
        );
    }
}

type CacheProbe = (u64, u64, Vec<f64>, Vec<f64>, Vec<(f64, f64, f64)>);

fn probe_cache(input: &Input, units: &[&ObfuscatedPathQuery]) -> CacheProbe {
    let cfg = ServiceConfig { cache: CachePolicy::Lru { trees: CACHE_TREES }, ..input.cfg };
    let mut stack = Stack::assemble(&cfg, input.map, input.alt.clone());
    let (mut hit_secs, mut miss_secs) = (Vec::new(), Vec::new());
    let mut rounds = Vec::new();
    let chunk = 16;
    let t = Instant::now();
    let mut k = 0;
    // At least one update round, however slow the units.
    while rounds.is_empty() || (k < units.len() && t.elapsed().as_secs_f64() < input.probe_secs) {
        for u in units.iter().skip(k).take(chunk) {
            let before = stack.backend.stats();
            let s = Instant::now();
            DirectionsBackend::process(&mut stack.backend, u);
            let secs = s.elapsed().as_secs_f64();
            let d = stack.backend.stats().delta_since(&before);
            if d.tree_cache_misses == 0 { hit_secs.push(secs) } else { miss_secs.push(secs) }
        }
        k += chunk;
        let round = &input.rounds[rounds.len() % input.rounds.len()];
        let before = stack.cached_trees();
        let s = Instant::now();
        stack.backend.update_weights(round).expect("valid round");
        let backend = s.elapsed().as_secs_f64();
        let s = Instant::now();
        stack.obfuscator.update_weights(round).expect("valid round");
        let obfuscator = s.elapsed().as_secs_f64();
        rounds.push((backend, obfuscator, before.saturating_sub(stack.cached_trees()) as f64));
    }
    let stats = stack.backend.stats();
    (stats.tree_cache_hits, stats.tree_cache_misses, hit_secs, miss_secs, rounds)
}

/// How the region router places the units: served when the workload runs
/// region-owned shards, otherwise probed on a fresh partition.
fn partition(input: &Input, units: &[&ObfuscatedPathQuery], out: &mut Outcome) {
    let probed;
    let (partition, source) = match input.traced.stack.backend.partition() {
        Some(p) if matches!(input.cfg.partition, PartitionPolicy::RegionOwned { .. }) => {
            (p, "served")
        }
        _ => {
            let t = Instant::now();
            probed =
                Partition::build(input.map, REGION_SHARDS, REGION_HALO).expect("partitionable map");
            out.add(Kind::Printed, "partition.build_s", t.elapsed().as_secs_f64(), "s", 1);
            (&probed, "probe")
        }
    };
    let (mut owner, mut fallback) = (0usize, 0usize);
    for u in units {
        match partition.route_explain(u).1 {
            RouteKind::Owner => owner += 1,
            RouteKind::Halo => {}
            RouteKind::Fallback => fallback += 1,
        }
    }
    let n = units.len().max(1) as f64;
    let note = format!("{source}: {} shards, halo {}", partition.shards(), partition.halo());
    out.add_noted(
        Kind::Layer,
        "partition.owner_share",
        owner as f64 / n,
        "share",
        units.len(),
        note.clone(),
    );
    out.add_noted(
        Kind::Layer,
        "partition.fallback_share",
        fallback as f64 / n,
        "share",
        units.len(),
        note,
    );
}

/// Request/reply pairs the codec probe encodes and decodes.
pub const CODEC_MESSAGES: usize = 5_000;

/// Seconds each probe pass may take, for a run of `seconds`.
pub fn probe_secs(seconds: f64) -> f64 {
    (seconds / 10.0).clamp(0.5, 3.0)
}
