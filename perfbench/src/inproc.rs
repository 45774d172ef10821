//! The in-process drive: build the service, answer seeded batches through
//! `OpaqueService::process_batch` for the run's time budget (with a
//! weight-update round after each batch when the workload has churn),
//! check the deliveries, and — on a traced run — replay the same batches
//! stage by stage.

use crate::replay::{self, Stack, Tracer, UnitRecord};
use crate::report::{Kind, Outcome};
use crate::stats::Summary;
use crate::{check_path, draws};
use opaque::{
    ClientId, ClientOutcome, ClientRequest, DefaultBackend, OpaqueService, ServiceBuilder,
    ServiceConfig,
};
use pathsearch::{AltPreprocessing, Path};
use rand::Rng;
use roadnet::{EdgeId, RoadNetwork};
use std::sync::Arc;
use std::time::Instant;

/// One weight-update round.
pub type Round = Vec<(EdgeId, f64)>;

/// A batch's delivered `(client, path)` pairs, in request order.
pub type Delivered = Vec<(ClientId, Path)>;

/// Share of the serving time spent warming up before the timed part.
pub const WARMUP_SHARE: f64 = 0.05;

/// What an in-process workload is made of.
pub struct Plan<'a> {
    /// The map, before any churn.
    pub map: &'a RoadNetwork,
    /// The served configuration.
    pub cfg: ServiceConfig,
    /// Batch `b` of the seeded request stream (client ids dense from 0).
    pub batch: &'a dyn Fn(usize) -> Vec<ClientRequest>,
    /// Update rounds, applied in order after each batch and cycled (the
    /// last round of a rush-hour schedule restores the original map);
    /// empty for a static map.
    pub rounds: &'a [Round],
    /// Batches per chunk: a run of batches that does like work to any
    /// other (a pass over a fixed trip set, whole churn cycles).
    pub chunk: usize,
    /// Chunks served after the warm-up; see [`chunks_for`].
    pub chunks: usize,
    /// Service builds timed for `setup_s`.
    pub setups: usize,
    /// One delivery in this many, drawn by seed, is checked against a
    /// fresh shortest-path search.
    pub check_every: usize,
    /// Run seed (the check sample is drawn from it).
    pub seed: u64,
}

/// The untraced run's results, kept for the checks and the replay.
pub struct Served {
    /// Requests per batch answered, in order.
    pub batch_sizes: Vec<usize>,
    /// `process_batch` wall seconds per batch.
    pub batch_secs: Vec<f64>,
    /// `update_weights` wall seconds per round applied.
    pub update_secs: Vec<f64>,
    /// The deliveries drawn for checking: batch, request, path.
    pub samples: Vec<(usize, ClientRequest, Path)>,
    /// On a traced run only (so the untraced run's memory is the
    /// service's, not the harness's): every batch, and its delivered
    /// `(client, path)` pairs in request order.
    pub kept: Vec<(Vec<ClientRequest>, Delivered)>,
    /// Leading batches served to warm the service up (arenas grown, caches
    /// filled); the end-to-end metrics leave them out.
    pub warm: usize,
    /// The service, after the run.
    pub service: OpaqueService<DefaultBackend>,
    /// Service build seconds, one per set-up.
    pub setup_secs: Vec<f64>,
}

impl Served {
    /// Requests answered.
    pub fn requests(&self) -> usize {
        self.batch_sizes.iter().sum()
    }

    /// Serving seconds (batches plus update rounds) from batch `from` on.
    pub fn busy_secs(&self, from: usize) -> f64 {
        let rounds = self.update_secs.get(from..).unwrap_or_default();
        self.batch_secs[from..].iter().sum::<f64>() + rounds.iter().sum::<f64>()
    }

    /// The landmark tables the service built, if any.
    pub fn alt(&self) -> Option<Arc<AltPreprocessing>> {
        self.service.backend().shards()[0].heuristic().cloned()
    }
}

/// Chunks of `per_chunk` requests that fill `secs` at `rps` (at least
/// one). A run serves a fixed count, not for a fixed time, so it does the
/// same work however fast the host is at the time.
pub fn chunks_for(secs: f64, rps: f64, per_chunk: usize) -> usize {
    ((secs * rps / per_chunk.max(1) as f64).round() as usize).max(1)
}

/// Build the service `plan.setups` times, serve [`WARMUP_SHARE`] as many
/// batches again untimed to warm it up, then serve `plan.chunks` chunks,
/// keeping every batch when `keep`.
pub fn serve(plan: &Plan, keep: bool, out: &mut Outcome) -> Served {
    let mut setup_secs = Vec::with_capacity(plan.setups);
    let mut service = None;
    for _ in 0..plan.setups.max(1) {
        let map = plan.map.clone();
        let t = Instant::now();
        let built = ServiceBuilder::from_config(plan.cfg).map(map).build().expect("valid config");
        setup_secs.push(t.elapsed().as_secs_f64());
        service = Some(built);
    }
    let mut rng = draws(plan.seed);
    let mut served = Served {
        batch_sizes: Vec::new(),
        batch_secs: Vec::new(),
        update_secs: Vec::new(),
        samples: Vec::new(),
        kept: Vec::new(),
        warm: 0,
        service: service.expect("at least one set-up"),
        setup_secs,
    };
    let timed = plan.chunk.max(1) * plan.chunks;
    served.warm = (timed as f64 * WARMUP_SHARE).ceil() as usize;
    for b in 0..served.warm + timed {
        let requests = (plan.batch)(b);
        let t = Instant::now();
        let response = served.service.process_batch(&requests);
        served.batch_secs.push(t.elapsed().as_secs_f64());
        out.attempted += requests.len() as u64;
        let delivered: Vec<(ClientId, Path)> = match response {
            Ok(r) => {
                let missing = r
                    .outcomes
                    .iter()
                    .filter(|(_, o)| !matches!(o, ClientOutcome::Delivered))
                    .count();
                out.failed += missing as u64;
                r.results.into_iter().map(|c| (c.client, c.path)).collect()
            }
            Err(e) => {
                out.violate(format!("batch {b} failed: {e}"));
                out.failed += requests.len() as u64;
                Vec::new()
            }
        };
        for (client, path) in &delivered {
            if rng.gen_range(0..plan.check_every) == 0 {
                match requests.iter().find(|r| r.client == *client) {
                    Some(r) => served.samples.push((b, *r, path.clone())),
                    None => {
                        out.violate(format!("batch {b}: delivery for unknown client {}", client.0))
                    }
                }
            }
        }
        served.batch_sizes.push(requests.len());
        if keep {
            served.kept.push((requests, delivered));
        }
        if !plan.rounds.is_empty() {
            let round = &plan.rounds[b % plan.rounds.len()];
            let t = Instant::now();
            let applied = served.service.update_weights(round);
            served.update_secs.push(t.elapsed().as_secs_f64());
            if let Err(e) = applied {
                out.violate(format!("update round after batch {b} failed: {e}"));
            }
        }
    }
    served
}

/// Check the drawn deliveries against a fresh shortest-path search on
/// the map live when each was served.
pub fn check(plan: &Plan, served: &Served, out: &mut Outcome) {
    let mut live = plan.map.clone();
    let mut applied = 0;
    for (b, r, path) in &served.samples {
        while !plan.rounds.is_empty() && applied < *b {
            live.update_weights(&plan.rounds[applied % plan.rounds.len()]).expect("valid round");
            applied += 1;
        }
        if let Err(e) = check_path(&live, r.query.source, r.query.destination, path) {
            out.violate(format!("batch {b}, client {}: {e}", r.client.0));
        }
    }
    if served.samples.is_empty() {
        out.violate("no delivery was checked");
    }
}

/// The end-to-end metrics every in-process workload reports. The run's
/// timed batches are cut into chunks of `chunk` batches (with their
/// update rounds); throughput and latency come from the fastest
/// [`crate::stats::BEST_SHARE`] of them.
pub fn end_to_end(served: &Served, chunk: usize, out: &mut Outcome) {
    let setup = Summary::of(&served.setup_secs).expect("set-ups ran");
    out.add(Kind::EndToEnd, "setup_s", setup.median, "s", setup.count);
    let w = served.warm;
    let chunk = chunk.max(1);
    let sizes: Vec<&[usize]> = served.batch_sizes[w..].chunks(chunk).collect();
    let secs: Vec<&[f64]> = served.batch_secs[w..].chunks(chunk).collect();
    let rounds = served.update_secs.get(w..).unwrap_or_default();
    let mut rounds = rounds.chunks(chunk);
    let chunks: Vec<(f64, f64)> = sizes
        .iter()
        .zip(&secs)
        .map(|(n, t)| {
            let updates: f64 = rounds.next().unwrap_or_default().iter().sum();
            (n.iter().sum::<usize>() as f64, t.iter().sum::<f64>() + updates)
        })
        .collect();
    let (rate, best) = crate::stats::best_rate(&chunks).expect("batches ran");
    let requests: usize = best.iter().map(|&i| sizes[i].iter().sum::<usize>()).sum();
    out.add_noted(
        Kind::EndToEnd,
        "throughput_rps",
        rate,
        "1/s",
        requests,
        format!("fastest {} of {} chunks of {chunk} batches", best.len(), chunks.len()),
    );
    // Every request of a batch is answered when its batch returns.
    let mut per_request = Vec::with_capacity(requests);
    for &i in &best {
        for (secs, &n) in secs[i].iter().zip(sizes[i]) {
            per_request.extend(std::iter::repeat_n(secs * 1e3, n));
        }
    }
    let lat = Summary::of(&per_request).expect("requests ran");
    out.add_noted(
        Kind::EndToEnd,
        "latency_p50_ms",
        lat.median,
        "ms",
        lat.count,
        format!("the same chunks; {}", tail_note(&lat, "ms")),
    );
}

/// "p99.0 = 12.3 ms" for a summary's tail, or a note that it has none.
pub fn tail_note(s: &Summary, unit: &str) -> String {
    match s.tail {
        Some((p, v)) => format!("tail p{p} = {v:.4} {unit}"),
        None => "too few samples for a tail".to_string(),
    }
}

/// The traced replay's results.
pub struct Traced {
    /// One span per stage call.
    pub tracer: Tracer,
    /// Per-unit search facts.
    pub units: Vec<UnitRecord>,
    /// The replay stack after the run.
    pub stack: Stack,
    /// Per update round: backend seconds, obfuscator seconds, trees
    /// evicted.
    pub rounds: Vec<(f64, f64, f64)>,
}

/// Replay the served batches stage by stage on a fresh stack built the
/// same way, applying the same update rounds, and check every batch
/// delivers the paths `process_batch` delivered. The spans go to `tracer`.
pub fn trace(
    cfg: &ServiceConfig,
    map: &RoadNetwork,
    rounds: &[Round],
    served: &Served,
    tracer: Tracer,
    out: &mut Outcome,
) -> Traced {
    let mut traced = Traced {
        tracer,
        units: Vec::new(),
        stack: Stack::assemble(cfg, map, served.alt()),
        rounds: Vec::new(),
    };
    for (b, (requests, delivered)) in served.kept.iter().enumerate() {
        match replay::replay_batch(
            &mut traced.stack,
            &mut traced.tracer,
            b as u32,
            requests,
            &mut traced.units,
        ) {
            Ok(paths) if paths == *delivered => {}
            Ok(_) => out.violate(format!(
                "batch {b}: the traced replay delivered other paths than process_batch"
            )),
            Err(e) => out.violate(format!("batch {b}: traced replay failed: {e}")),
        }
        if !rounds.is_empty() {
            let round = &rounds[b % rounds.len()];
            let before = traced.stack.cached_trees();
            let t = Instant::now();
            traced.stack.backend.update_weights(round).expect("valid round");
            let backend = t.elapsed().as_secs_f64();
            let t = Instant::now();
            traced.stack.obfuscator.update_weights(round).expect("valid round");
            let obfuscator = t.elapsed().as_secs_f64();
            let evicted = before.saturating_sub(traced.stack.cached_trees());
            traced.rounds.push((backend, obfuscator, evicted as f64));
        }
    }
    traced
}

/// Drive an in-process workload: serve, check, report the end-to-end
/// metrics, and on a traced run replay and report every layer.
/// `probe_rounds` feeds the update-path probe of workloads without churn.
pub fn run(plan: &Plan, args: &crate::RunArgs, probe_rounds: &[Round], name: &str) -> Outcome {
    let mut out = Outcome::default();
    let served = serve(plan, args.trace, &mut out);
    check(plan, &served, &mut out);
    end_to_end(&served, plan.chunk, &mut out);
    let rounds = served.update_secs.get(served.warm..).unwrap_or_default();
    if let Some(s) = Summary::of(&rounds.iter().map(|s| s * 1e3).collect::<Vec<_>>()) {
        out.add_noted(Kind::Printed, "update_p50_ms", s.median, "ms", s.count, tail_note(&s, "ms"));
    }
    let rss = crate::report::peak_rss_mb().unwrap_or(f64::NAN);
    out.add(Kind::EndToEnd, "peak_rss_mb", rss, "MiB", 1);
    if args.trace {
        let traced = trace(&plan.cfg, plan.map, plan.rounds, &served, Tracer::default(), &mut out);
        let messages: Vec<_> = served
            .kept
            .iter()
            .flat_map(|(requests, delivered)| {
                requests.iter().zip(delivered).map(|(r, (client, path))| {
                    (
                        opaque::RequestMsg {
                            client: r.client,
                            query: r.query,
                            protection: r.protection,
                        },
                        opaque::ResultMsg { client: *client, path: path.clone() },
                        0.0,
                    )
                })
            })
            .take(crate::layers::CODEC_MESSAGES)
            .collect();
        let input = crate::layers::Input {
            map: plan.map,
            cfg: plan.cfg,
            untraced_secs: served.batch_secs.iter().sum(),
            requests: served.requests(),
            traced: &traced,
            rounds: if plan.rounds.is_empty() { probe_rounds } else { plan.rounds },
            alt: served.alt(),
            probe_secs: crate::layers::probe_secs(args.seconds),
            messages: &messages,
        };
        crate::layers::report(&input, &mut out);
        crate::write_spans(&traced.tracer, name, args.seed, &mut out);
    }
    out
}
