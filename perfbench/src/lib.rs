//! The repo benchmark: three seeded workloads over the OPAQUE service,
//! measured end to end, with a traced run that reports each layer's cost
//! from outside by timing calls into its public functions.
//!
//! Run `cargo run --release --manifest-path perfbench/Cargo.toml --
//! --workload <town-wire|continent-alt|hotspot-churn|all> --seed <n>
//! --seconds <s> --trace <0|1>` from the repo root. The last line of
//! standard output is the JSON result; `perfbench/workloads.json` records
//! each workload's fixed parameters and which layer metric is predicted to
//! move which end-to-end metric.

pub mod continent;
pub mod hotspot;
pub mod inproc;
pub mod layers;
pub mod replay;
pub mod report;
pub mod stats;
pub mod town;

use pathsearch::Path;
use roadnet::{NodeId, RoadNetwork};

/// How one run is driven.
#[derive(Clone, Copy, Debug)]
pub struct RunArgs {
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Add the traced per-layer run.
    pub trace: bool,
}

impl RunArgs {
    /// Seconds of serving: the whole budget untraced; half of it traced,
    /// where the replay and the layer probes take the rest.
    pub fn serve_secs(&self) -> f64 {
        if self.trace { self.seconds / 2.0 } else { self.seconds }
    }
}

/// The benchmark's own seeded draws (which deliveries are checked), kept
/// apart from the library's RNG streams.
pub fn draws(seed: u64) -> rand::rngs::StdRng {
    rand::SeedableRng::seed_from_u64(seed ^ 0xC4EC)
}

/// Pin the calling thread to the `nth` CPU (0-based) of those the
/// process may run on; `false` when there is no such CPU or the kernel
/// refuses. The list is read once, by the first call, so a thread that
/// pins itself does not shrink it for the threads after it.
///
/// The wire workload pins its two threads to two CPUs. Left to the
/// scheduler, its closed-loop rate switched between two levels about a
/// third apart for seconds at a time; pinned, it holds the higher one.
#[cfg(target_os = "linux")]
pub fn pin_thread(nth: usize) -> bool {
    // glibc's `cpu_set_t`: 1 024 bits.
    type CpuSet = [u64; 16];
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }
    static CPUS: std::sync::OnceLock<Vec<usize>> = std::sync::OnceLock::new();
    let cpus = CPUS.get_or_init(|| {
        let mut mask: CpuSet = [0; 16];
        // SAFETY: `mask` is a live, writable `cpu_set_t`-sized buffer and
        // `size` is its exact size; pid 0 is the calling thread.
        let got = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) };
        if got != 0 {
            return Vec::new();
        }
        (0..1024).filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1).collect()
    });
    let Some(&cpu) = cpus.get(nth) else { return false };
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live `cpu_set_t`-sized buffer the call only
    // reads, and `size` is its exact size; pid 0 is the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) == 0 }
}

/// Pinning is only done on Linux.
#[cfg(not(target_os = "linux"))]
pub fn pin_thread(_nth: usize) -> bool {
    false
}

/// Relative slack on a path's cost: the service may sum a path from its
/// destination end (`Auto` sharing roots trees at targets) while the
/// reference search sums from the source, and float addition in another
/// order moves the last few bits. Any other route differs by at least
/// one edge weight, many orders of magnitude more.
pub const COST_SLACK: f64 = 1e-12;

/// Check a delivered path: right endpoints, every hop an arc of `map`, and
/// the cost of a fresh `pathsearch::shortest_distance`, up to
/// [`COST_SLACK`].
///
/// # Errors
/// What was wrong with the path.
pub fn check_path(map: &RoadNetwork, s: NodeId, t: NodeId, path: &Path) -> Result<(), String> {
    if path.source() != s || path.destination() != t {
        return Err(format!(
            "path runs {:?}->{:?}, asked {s:?}->{t:?}",
            path.source(),
            path.destination()
        ));
    }
    if !path.verify(map, 1e-9) {
        return Err("path does not follow the map's arcs at its stated cost".to_string());
    }
    match pathsearch::shortest_distance(map, s, t) {
        Some(d) if (d - path.distance()).abs() <= COST_SLACK * d => Ok(()),
        Some(d) => Err(format!("path costs {} but the shortest distance is {d}", path.distance())),
        None => Err("a path was delivered for a disconnected pair".to_string()),
    }
}

/// A seeded request stream drawn one batch at a time from a single
/// `workload::QuerySampler`, so a hotspot layout holds for the whole run.
pub struct Stream<'a> {
    sampler: workload::QuerySampler<'a>,
    rng: std::cell::RefCell<rand::rngs::StdRng>,
    protection: opaque::ProtectionSettings,
    batch: usize,
}

impl<'a> Stream<'a> {
    /// A stream over `map` with every request asking `protection`; the
    /// distribution's layout (hotspot centres) is drawn from
    /// `layout_seed`, the trips from `seed`.
    pub fn new(
        map: &'a RoadNetwork,
        index: &'a roadnet::SpatialIndex,
        queries: workload::QueryDistribution,
        protection: opaque::ProtectionSettings,
        batch: usize,
        layout_seed: u64,
        seed: u64,
    ) -> Stream<'a> {
        use rand::SeedableRng;
        let mut layout = rand::rngs::StdRng::seed_from_u64(layout_seed);
        let sampler = workload::QuerySampler::new(map, index, queries, &mut layout);
        let rng = rand::rngs::StdRng::seed_from_u64(seed);
        Stream { sampler, rng: std::cell::RefCell::new(rng), protection, batch }
    }

    /// The next batch, client ids dense from 0.
    pub fn next_batch(&self) -> Vec<opaque::ClientRequest> {
        let mut rng = self.rng.borrow_mut();
        (0..self.batch)
            .map(|i| {
                let (s, t) = self.sampler.sample(&mut rng);
                opaque::ClientRequest::new(
                    opaque::ClientId(i as u32),
                    opaque::PathQuery::new(s, t),
                    self.protection,
                )
            })
            .collect()
    }
}

/// Check a traced run's spans (each must end after it starts) and write
/// them to `perfbench/out/spans-<workload>-<seed>.csv` under the working
/// directory, noting the file (or the failure) in `out`.
pub fn write_spans(tracer: &replay::Tracer, workload: &str, seed: u64, out: &mut report::Outcome) {
    let empty: Vec<&str> =
        tracer.spans.iter().filter(|s| s.end <= s.start).map(|s| s.name).collect();
    if let Some(name) = empty.first() {
        out.violate(format!("{} spans end where they start, the first a {name}", empty.len()));
    }
    let path = std::path::PathBuf::from(format!("perfbench/out/spans-{workload}-{seed}.csv"));
    match tracer.write(&path) {
        Ok(()) => {
            eprintln!("{workload}: {} spans written to {}", tracer.spans.len(), path.display())
        }
        Err(e) => out.violate(format!("could not write {}: {e}", path.display())),
    }
}

#[cfg(test)]
mod tests {
    use crate::{continent, hotspot, inproc, town};

    /// `workloads.json` is written by hand; this keeps its numbers in step
    /// with the constants the workloads run with.
    #[test]
    fn workloads_json_states_the_constants() {
        let text = include_str!("../workloads.json");
        let stated = [
            format!("grid, {} nodes", town::NODES),
            format!("\"protection\": \"{}x{}\"", town::PROTECTION.0, town::PROTECTION.1),
            format!("max_batch {}, max_delay {} s", town::MAX_BATCH, town::MAX_DELAY),
            format!("Poisson at {} req/s", town::OFFERED_RPS),
            format!("closed loop, {} in flight", town::IN_FLIGHT),
            format!("a fixed {} requests per second of its share", town::SIZING_RPS),
            format!("the fastest tenth of {} chunks", town::CHUNKS),
            format!("the best tenth of {} windows", town::CHUNKS),
            format!("{} of the run in phase 1", town::OPEN_SHARE),
            format!("\"reactor_poll_ms\": \"{} ", town::POLL_MS),
            format!("\"setups\": \"{}\"", town::SETUPS),
            format!("of {} of the serving time", inproc::WARMUP_SHARE),
            format!("{} as many batches again", inproc::WARMUP_SHARE),
            format!("({} nodes)", continent::continent().num_nodes()),
            format!(
                "fixed set of {} uniform trips (seed {:#x})",
                continent::TRIPS,
                continent::TRIP_SEED
            ),
            format!("\"protection\": \"{}x{}\"", continent::PROTECTION.0, continent::PROTECTION.1),
            format!("ALT {} landmarks", crate::layers::LANDMARKS),
            format!("{} requests per process_batch", continent::BATCH),
            format!("{} batches (one pass over the trip set)", continent::TRIPS / continent::BATCH),
            format!(
                "serves {} requests per second of its length, in whole passes",
                continent::SIZING_RPS
            ),
            format!("\"setups\": \"{}\"", continent::SETUPS),
            format!("geometric, {} nodes", hotspot::NODES),
            format!("at {} hotspots", hotspot::HOTSPOTS.0),
            format!("layout seed {:#x}", hotspot::LAYOUT_SEED),
            format!("({}, {})", hotspot::PROTECTION.0, hotspot::PROTECTION.1),
            format!(
                "{} RegionOwned shards (halo {})",
                crate::layers::REGION_SHARDS,
                crate::layers::REGION_HALO
            ),
            format!("LRU cache of {} trees", crate::layers::CACHE_TREES),
            format!("{} requests per process_batch", hotspot::BATCH),
            format!("({} rounds, cycled", hotspot::CHURN_ROUNDS),
            format!("{} batches (one churn cycle)", hotspot::CHUNK),
            format!("serves {} requests per second of its length", hotspot::SIZING_RPS),
            format!("\"setups\": \"{}\"", hotspot::SETUPS),
        ];
        assert_eq!(hotspot::CHUNK, hotspot::CHURN_ROUNDS, "a hotspot chunk is one churn cycle");
        for s in stated {
            assert!(text.contains(&s), "workloads.json does not state `{s}`");
        }
        // A workload is marked gated exactly when `BENCHMARK.json` lists it.
        let benchmark = include_str!("../../BENCHMARK.json");
        for name in ["town-wire", "continent-alt", "hotspot-churn"] {
            let gated = benchmark.contains(&format!("{{\"name\": \"{name}\""));
            let marked = format!("\"name\": \"{name}\",\n      \"gated\": {gated},");
            assert!(text.contains(&marked), "workloads.json does not mark {name} gated: {gated}");
        }
    }
}
