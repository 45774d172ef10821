//! `hotspot-churn`: a ~4 000-node geometric city where every trip ends at
//! one of a few popular destinations, served in process by a four-shard
//! region-owned fleet with `Auto` sharing and an LRU tree cache, with one
//! rush-hour round of `OpaqueService::update_weights` after each batch.

use crate::inproc::{self, Plan};
use crate::report::Outcome;
use crate::{RunArgs, Stream};
use opaque::service::PartitionPolicy;
use opaque::{CachePolicy, ExecutionPolicy, ProtectionSettings, ServiceConfig};
use pathsearch::SharingPolicy;
use roadnet::generators::NetworkClass;
use roadnet::{RoadNetwork, SpatialIndex};
use workload::{ChurnConfig, QueryDistribution, rush_hour_schedule};

/// Nodes of the city.
pub const NODES: usize = 4_000;
/// Seed of the city (the experiments' map seed).
pub const MAP_SEED: u64 = 0xC0FFEE;
/// Requests per batch.
pub const BATCH: usize = 32;
/// (f_S, f_T): one fake source, the true destination alone.
pub const PROTECTION: (u32, u32) = (2, 1);
/// Popular destinations, their Zipf exponent, and their spread (0: each
/// hotspot is exactly one node).
pub const HOTSPOTS: (usize, f64, f64) = (6, 1.0, 0.0);
/// Seed of the hotspot layout. Where a city's popular destinations lie is
/// a property of the city, like its streets, so it is fixed; the run seed
/// draws the trips.
pub const LAYOUT_SEED: u64 = 0xE19;
/// Batches per chunk: one churn cycle (any run of that many batches
/// applies every round of the schedule once).
pub const CHUNK: usize = CHURN_ROUNDS;
/// Requests per second a run is sized by: it serves as many chunks as take
/// `--seconds` at this rate.
pub const SIZING_RPS: f64 = 3_000.0;
/// Service builds timed for `setup_s`.
pub const SETUPS: usize = 101;
/// One delivery in this many is checked.
pub const CHECK_EVERY: usize = 100;
/// Rounds in one rush-hour schedule (cycled: its last round restores the
/// map).
pub const CHURN_ROUNDS: usize = 16;

/// The city.
pub fn city() -> RoadNetwork {
    NetworkClass::Geometric.generate(NODES, MAP_SEED).expect("valid city")
}

/// The rush-hour schedule over `map`: a congestion zone of 10% of the
/// edges, 2% of the edges re-weighted per round, surging to 3×.
pub fn churn(map: &RoadNetwork, seed: u64) -> ChurnConfig {
    ChurnConfig {
        rounds: CHURN_ROUNDS,
        updates_per_round: (map.edges().len() / 50).max(4),
        zone_fraction: 0.10,
        surge: 3.0,
        seed,
    }
}

/// The served configuration.
pub fn config(seed: u64) -> ServiceConfig {
    ServiceConfig {
        seed,
        sharing: SharingPolicy::Auto,
        shards: crate::layers::REGION_SHARDS,
        partition: PartitionPolicy::RegionOwned { halo: crate::layers::REGION_HALO },
        cache: CachePolicy::Lru { trees: crate::layers::CACHE_TREES },
        execution: ExecutionPolicy::Sequential,
        ..ServiceConfig::default()
    }
}

/// Run the workload.
pub fn run(args: &RunArgs) -> Outcome {
    let map = city();
    let index = SpatialIndex::build(&map);
    let protection = ProtectionSettings::new(PROTECTION.0, PROTECTION.1).expect("nonzero");
    let (hotspots, exponent, spread) = HOTSPOTS;
    let queries = QueryDistribution::Hotspot { hotspots, exponent, spread };
    let stream = Stream::new(&map, &index, queries, protection, BATCH, LAYOUT_SEED, args.seed);
    let rounds = rush_hour_schedule(&map, &churn(&map, args.seed));
    let batch = |_| stream.next_batch();
    let plan = Plan {
        map: &map,
        cfg: config(args.seed),
        batch: &batch,
        rounds: &rounds,
        chunk: CHUNK,
        chunks: inproc::chunks_for(args.serve_secs(), SIZING_RPS, CHUNK * BATCH),
        setups: SETUPS,
        check_every: CHECK_EVERY,
        seed: args.seed,
    };
    inproc::run(&plan, args, &[], "hotspot-churn")
}
