//! `continent-alt`: the 10⁵-node continent of the e20 experiment under
//! the documented continent configuration — ALT with 16 landmarks,
//! per-source sharing — answered in process through
//! `OpaqueService::process_batch`, with uniform trips and 3×3 protection.

use crate::inproc::{self, Plan};
use crate::report::Outcome;
use crate::{RunArgs, Stream};
use opaque::service::SearchHeuristic;
use opaque::{ExecutionPolicy, ProtectionSettings, ServiceConfig};
use pathsearch::SharingPolicy;
use roadnet::SpatialIndex;
use roadnet::generators::{ContinentConfig, continent_network};
use workload::{QueryDistribution, rush_hour_schedule};

/// Requests per batch. Every request of a batch is answered when the
/// batch returns, so a request's latency is its batch's time; four trips
/// per batch keep the median of that time steady across seeds (one trip
/// per batch made it swing with whichever trip sat mid-distribution).
pub const BATCH: usize = 4;
/// Trips in the continent's fixed trip set. A uniform trip's cost spans
/// two orders of magnitude (a street hop to a cross-continent drive), so a
/// run answers this set several times over, from a seed-chosen starting
/// trip, rather than a fresh seed-drawn sample that would make each run's
/// throughput a draw of trip lengths.
pub const TRIPS: usize = 48;
/// Seed of the fixed trip set.
pub const TRIP_SEED: u64 = 0xE20;
/// Obfuscation-set size per side.
pub const PROTECTION: (u32, u32) = (3, 3);
/// Requests per second a run is sized by: it serves as many passes over
/// the trip set as take `--seconds` at this rate.
pub const SIZING_RPS: f64 = 8.0;
/// Service builds timed for `setup_s` (each builds the ALT tables).
pub const SETUPS: usize = 5;
/// One delivery in this many is checked.
pub const CHECK_EVERY: usize = 8;

/// The e20 continent at its quick tier: 4×4 provinces of 80×80 streets
/// (102 400 nodes), weights spread 1–3× over length, a 20-street sea gap.
pub fn continent() -> ContinentConfig {
    ContinentConfig {
        province_width: 80,
        province_height: 80,
        weight_factor: (1.0, 3.0),
        sea_gap: 20.0,
        ..ContinentConfig::default()
    }
}

/// The served configuration.
pub fn config(seed: u64) -> ServiceConfig {
    ServiceConfig {
        seed,
        sharing: SharingPolicy::PerSource,
        heuristic: SearchHeuristic::Alt { landmarks: crate::layers::LANDMARKS },
        execution: ExecutionPolicy::Sequential,
        ..ServiceConfig::default()
    }
}

/// Run the workload.
pub fn run(args: &RunArgs) -> Outcome {
    let map = continent_network(&continent()).expect("valid continent");
    let index = SpatialIndex::build(&map);
    let protection = ProtectionSettings::new(PROTECTION.0, PROTECTION.1).expect("nonzero");
    let trips = Stream::new(
        &map,
        &index,
        QueryDistribution::Uniform,
        protection,
        TRIPS,
        TRIP_SEED,
        TRIP_SEED,
    )
    .next_batch();
    let first = args.seed as usize % TRIPS;
    let batch = |b: usize| {
        (0..BATCH)
            .map(|i| {
                let mut r = trips[(first + b * BATCH + i) % TRIPS];
                r.client = opaque::ClientId(i as u32);
                r
            })
            .collect()
    };
    let plan = Plan {
        map: &map,
        cfg: config(args.seed),
        batch: &batch,
        rounds: &[],
        chunk: TRIPS / BATCH,
        chunks: inproc::chunks_for(args.serve_secs(), SIZING_RPS, TRIPS),
        setups: SETUPS,
        check_every: CHECK_EVERY,
        seed: args.seed,
    };
    let probe_rounds = if args.trace {
        rush_hour_schedule(&map, &crate::hotspot::churn(&map, args.seed))
    } else {
        Vec::new()
    };
    inproc::run(&plan, args, &probe_rounds, "continent-alt")
}
