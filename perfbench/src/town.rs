//! `town-wire`: the 400-node grid of the e17 experiment served by
//! `NetServer` over loopback with the default service (no tree cache, no
//! ALT), uniform trips and 2×2 protection.
//!
//! Phase 1 offers a seeded Poisson schedule at a fixed rate of about half
//! the service's capacity, so batches flush on the batcher's deadline;
//! latency runs from each request's *scheduled* send time to its terminal
//! reply. Phase 2 is a closed loop with a few full batches in flight, so
//! batches flush on size; it serves a fixed number of requests and gives
//! the throughput. Two threads in all, each pinned to a CPU of its own:
//! the server's reactor and this generator, over one connection.
//! Throughput and latency are taken from the run's fastest chunks (see
//! [`crate::stats::BEST_SHARE`]).

use crate::inproc::{self, Served, WARMUP_SHARE};
use crate::replay::{ROOT, Span, Tracer};
use crate::report::{Kind, Outcome};
use crate::stats::{self, Summary};
use crate::{RunArgs, check_path, draws};
use opaque::{
    AdmissionPolicy, BatchPolicy, ClientId, ClientRequest, ExecutionPolicy, Priority, RequestMsg,
    ResultMsg, ServiceBuilder, ServiceConfig,
};
use opaque_net::frame::frame_vec;
use opaque_net::wire::{decode_message, encode_message};
use opaque_net::{FrameDecoder, NetServer, NetStats, ServerConfig, WireReply, WireRequest};
use pathsearch::Path;
use rand::Rng;
use rand::rngs::StdRng;
use roadnet::generators::NetworkClass;
use roadnet::{RoadNetwork, SpatialIndex};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use workload::{
    ArrivalConfig, ArrivalProcess, ProtectionDistribution, QueryDistribution, WorkloadConfig,
    arrival_stream, generate_requests, rush_hour_schedule,
};

/// Nodes of the grid.
pub const NODES: usize = 400;
/// Seed of the grid (the experiments' map seed).
pub const MAP_SEED: u64 = 0xC0FFEE;
/// (f_S, f_T).
pub const PROTECTION: (u32, u32) = (2, 2);
/// Batcher flush size.
pub const MAX_BATCH: usize = 64;
/// Batcher flush deadline, seconds.
pub const MAX_DELAY: f64 = 0.005;
/// Phase 1's offered rate, requests per second: about half the capacity
/// phase 2 measures, so `rate × MAX_DELAY` stays well under `MAX_BATCH`
/// and windows flush on the deadline.
pub const OFFERED_RPS: f64 = 3_000.0;
/// Phase 2's in-flight cap: a few full batches.
pub const IN_FLIGHT: usize = 4 * MAX_BATCH;
/// The rate the closed-loop phases are sized by: the warm-up and phase 2
/// each serve a fixed count of requests, this rate times their share of
/// the run, so a run does the same work (and the server retains the same
/// batch reports) however fast the host is at the time.
pub const SIZING_RPS: f64 = 8_000.0;
/// Consecutive chunks phase 2's replies are cut into, and windows phase
/// 1's requests are cut into; throughput and latency come from the best
/// tenth of them (see [`crate::stats::best_chunks`]).
pub const CHUNKS: usize = 80;
/// Reactor poll timeout, ms. Zero makes the reactor busy-poll: on a
/// virtual machine an idle core halts, and waking it for each arriving
/// frame adds a delay that belongs to the host, not to the service, and
/// that swings with the host's load. The generator spins only in phase 1,
/// where it must send on schedule; in the closed loops it blocks on the
/// socket. Each thread is pinned to a CPU of its own, so the two never
/// share one.
pub const POLL_MS: i32 = 0;
/// The CPUs (0-based, among those the process may use) the generator
/// and the reactor are pinned to.
pub const GENERATOR_CPU: usize = 0;
/// See [`GENERATOR_CPU`].
pub const REACTOR_CPU: usize = 1;
/// Share of the run spent in phase 1 (the rest is phase 2).
pub const OPEN_SHARE: f64 = 0.5;
/// Service builds plus binds timed for `setup_s`.
pub const SETUPS: usize = 201;
/// One delivery in this many, drawn by seed, is checked.
pub const CHECK_EVERY: usize = 100;
/// First client id of the warm-up requests, clear of the measured ones.
const WARM_FIRST: u32 = 1 << 30;
/// How long past its phase the generator waits for replies.
const GRACE: Duration = Duration::from_secs(30);
/// How long a blocked read waits before the generator checks its deadline.
const READ_WAIT: Duration = Duration::from_millis(100);

/// The grid.
pub fn grid() -> RoadNetwork {
    NetworkClass::Grid.generate(NODES, MAP_SEED).expect("valid grid")
}

/// The served configuration.
pub fn config(seed: u64) -> ServiceConfig {
    ServiceConfig {
        seed,
        batch: BatchPolicy { max_batch: MAX_BATCH, max_delay: MAX_DELAY },
        admission: AdmissionPolicy { queue_depth: 1 << 16, deadline: None },
        execution: ExecutionPolicy::Sequential,
        ..ServiceConfig::default()
    }
}

/// The wire configuration.
pub fn server_config() -> ServerConfig {
    ServerConfig { poll_timeout_ms: POLL_MS, ..ServerConfig::default() }
}

/// The generator's end of the connection: non-blocking, with an outbound
/// buffer and a frame decoder.
struct Wire {
    stream: TcpStream,
    decoder: FrameDecoder,
    out: Vec<u8>,
    sent: usize,
    buf: Vec<u8>,
}

impl Wire {
    fn connect(addr: SocketAddr) -> std::io::Result<Wire> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Wire {
            stream,
            decoder: FrameDecoder::new(opaque_net::DEFAULT_MAX_FRAME),
            out: Vec::new(),
            sent: 0,
            buf: vec![0; 64 * 1024],
        })
    }

    /// Write what the socket takes.
    fn flush(&mut self) -> Result<(), String> {
        while self.sent < self.out.len() {
            match self.stream.write(&self.out[self.sent..]) {
                Ok(n) => self.sent += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => return Err(format!("send failed: {e}")),
            }
        }
        if self.sent == self.out.len() {
            self.out.clear();
            self.sent = 0;
        }
        Ok(())
    }

    /// Read what has arrived, stamping each decoded reply.
    fn receive(&mut self, inbox: &mut Vec<(Instant, WireReply)>) -> Result<(), String> {
        while self.read_once(inbox)? {}
        Ok(())
    }

    /// One read: what it brought is decoded into `inbox`. `false` when
    /// nothing was there (or, blocking, nothing came within [`READ_WAIT`]).
    fn read_once(&mut self, inbox: &mut Vec<(Instant, WireReply)>) -> Result<bool, String> {
        match self.stream.read(&mut self.buf) {
            Ok(0) => Err("server closed the connection".to_string()),
            Ok(n) => {
                let at = Instant::now();
                self.decoder.push(&self.buf[..n]);
                while let Some(payload) = self.decoder.next_frame().map_err(|e| e.to_string())? {
                    inbox.push((at, decode_message(&payload).map_err(|e| e.to_string())?));
                }
                Ok(true)
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => Ok(false),
            Err(e) => Err(format!("receive failed: {e}")),
        }
    }

    /// Switch between spinning (non-blocking) and blocking reads; a
    /// blocking read gives up after [`READ_WAIT`].
    fn set_blocking(&mut self, blocking: bool) -> Result<(), String> {
        self.stream.set_nonblocking(!blocking).map_err(|e| e.to_string())?;
        self.stream.set_read_timeout(blocking.then_some(READ_WAIT)).map_err(|e| e.to_string())
    }
}

fn frame(request: &ClientRequest) -> Vec<u8> {
    let wire = WireRequest {
        request: RequestMsg {
            client: request.client,
            query: request.query,
            protection: request.protection,
        },
        priority: Priority::Interactive,
    };
    frame_vec(&encode_message(&wire).expect("requests encode")).expect("requests fit a frame")
}

/// One request's fate on the wire.
struct Sent {
    request: ClientRequest,
    /// Scheduled (phase 1) or actual (phase 2) send time.
    due: Instant,
    /// Drawn (by seed) for a path check.
    check: bool,
    /// Keep the delivered path: checked, or a traced run.
    keep: bool,
    reply: Option<Reply>,
}

/// What came back for one request.
struct Reply {
    at: Instant,
    kind: ReplyKind,
    /// Seconds the request waited in the gateway queue.
    waited: f64,
    /// The delivered path, when the request keeps it.
    path: Option<Path>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum ReplyKind {
    Delivered,
    /// Refused before the gateway issued a ticket.
    Door,
    /// Any other terminal reply: unreachable, shed, cancelled.
    Other,
}

/// Decides which requests are checked, and which keep their paths.
struct Keep {
    all: bool,
    rng: StdRng,
}

impl Keep {
    /// `(check, keep)` for the next request.
    fn next(&mut self) -> (bool, bool) {
        let check = self.rng.gen_range(0..CHECK_EVERY) == 0;
        (check, check || self.all)
    }
}

/// A seeded Poisson schedule at [`OFFERED_RPS`] over `secs` seconds:
/// arrival offsets and requests, client ids dense from `first`.
pub fn schedule(
    map: &RoadNetwork,
    index: &SpatialIndex,
    seed: u64,
    secs: f64,
    first: u32,
) -> Vec<(f64, ClientRequest)> {
    let stream = arrival_stream(
        map,
        index,
        &WorkloadConfig {
            num_requests: 0,
            queries: QueryDistribution::Uniform,
            protection: ProtectionDistribution::Fixed { f_s: PROTECTION.0, f_t: PROTECTION.1 },
            seed,
        },
        &ArrivalConfig { rate_per_sec: OFFERED_RPS, horizon_secs: secs },
        ArrivalProcess::Poisson,
    );
    stream
        .into_iter()
        .enumerate()
        .map(|(i, t)| {
            let mut request = t.request;
            request.client = ClientId(first + i as u32);
            (t.arrival, request)
        })
        .collect()
}

/// Phase 1: send each request at its scheduled time; record replies.
fn open_loop(
    wire: &mut Wire,
    plan: &[(f64, ClientRequest)],
    keep: &mut Keep,
) -> Result<(Vec<Sent>, Vec<f64>), String> {
    let frames: Vec<Vec<u8>> = plan.iter().map(|(_, r)| frame(r)).collect();
    let start = Instant::now() + Duration::from_millis(20);
    let mut sent: Vec<Sent> = plan
        .iter()
        .map(|(at, r)| {
            let (check, keep) = keep.next();
            Sent {
                request: *r,
                due: start + Duration::from_secs_f64(*at),
                check,
                keep,
                reply: None,
            }
        })
        .collect();
    let first = plan.first().map_or(0, |(_, r)| r.client.0);
    let end = sent.last().map_or(start, |s| s.due) + GRACE;
    let mut lag = Vec::with_capacity(plan.len());
    let mut inbox = Vec::new();
    let (mut next, mut answered) = (0, 0);
    while answered < sent.len() {
        let now = Instant::now();
        while next < sent.len() && sent[next].due <= now {
            wire.out.extend_from_slice(&frames[next]);
            lag.push(now.duration_since(sent[next].due).as_secs_f64() * 1e3);
            next += 1;
        }
        wire.flush()?;
        wire.receive(&mut inbox)?;
        answered += settle(&mut sent, first, &mut inbox)?;
        if now > end {
            return Err(format!(
                "{} of {} open-loop requests unanswered",
                sent.len() - answered,
                sent.len()
            ));
        }
        // Spin rather than sleep: a sleeping generator lets its core halt,
        // and the wake-up delays are larger and noisier than the latency
        // being measured.
        std::thread::yield_now();
    }
    Ok((sent, lag))
}

/// Pair replies with their requests; returns how many arrived.
fn settle(
    sent: &mut [Sent],
    first: u32,
    inbox: &mut Vec<(Instant, WireReply)>,
) -> Result<usize, String> {
    let n = inbox.len();
    for (at, reply) in inbox.drain(..) {
        let client = reply.client().ok_or_else(|| format!("connection error reply: {reply:?}"))?;
        let slot = sent
            .get_mut((client.0.wrapping_sub(first)) as usize)
            .ok_or_else(|| format!("reply for unknown client {}", client.0))?;
        let record = match reply {
            WireReply::Result { result, waited, .. } => Reply {
                at,
                kind: ReplyKind::Delivered,
                waited,
                path: slot.keep.then_some(result.path),
            },
            WireReply::Rejected { ticket: None, .. } => {
                Reply { at, kind: ReplyKind::Door, waited: 0.0, path: None }
            }
            _ => Reply { at, kind: ReplyKind::Other, waited: 0.0, path: None },
        };
        if slot.reply.replace(record).is_some() {
            return Err(format!("two replies for client {}", client.0));
        }
    }
    Ok(n)
}

/// Phase 2 and the warm-up: keep [`IN_FLIGHT`] requests outstanding
/// until `count` have been answered, blocking on the socket while the
/// window is full. `secs` is the phase's nominal length; it fails if the
/// phase takes more than four times that plus [`GRACE`].
fn closed_loop(
    wire: &mut Wire,
    pool: &[ClientRequest],
    first: u32,
    (count, secs): (usize, f64),
    keep: &mut Keep,
) -> Result<Vec<Sent>, String> {
    let limit = Instant::now() + Duration::from_secs_f64(4.0 * secs) + GRACE;
    let mut sent: Vec<Sent> = Vec::with_capacity(count);
    let mut inbox = Vec::new();
    let mut answered = 0;
    wire.set_blocking(true)?;
    while answered < count {
        let now = Instant::now();
        while sent.len() < count && sent.len() - answered < IN_FLIGHT {
            let mut request = pool[sent.len() % pool.len()];
            request.client = ClientId(first + sent.len() as u32);
            wire.out.extend_from_slice(&frame(&request));
            let (check, keep) = keep.next();
            sent.push(Sent { request, due: now, check, keep, reply: None });
        }
        // Blocking: the window's requests are small enough for the socket
        // buffer, so this write returns without waiting on the server.
        wire.flush()?;
        wire.read_once(&mut inbox)?;
        answered += settle(&mut sent, first, &mut inbox)?;
        if now > limit {
            return Err(format!("{} of {count} closed-loop requests unanswered", count - answered));
        }
    }
    wire.set_blocking(false)?;
    Ok(sent)
}

/// Phase 2's rate: replies in arrival order cut into [`CHUNKS`] runs, each
/// run's count over the time since the previous run's last reply (the
/// first run's since the first send).
fn closed_rates(closed: &[Sent]) -> Vec<(f64, f64)> {
    let Some(start) = closed.first().map(|s| s.due) else { return Vec::new() };
    let mut arrivals: Vec<Instant> =
        closed.iter().filter_map(|s| Some(s.reply.as_ref()?.at)).collect();
    arrivals.sort_unstable();
    let size = arrivals.len().div_ceil(CHUNKS).max(1);
    let mut from = start;
    arrivals
        .chunks(size)
        .map(|c| {
            let last = c[c.len() - 1];
            let secs = last.duration_since(from).as_secs_f64();
            from = last;
            (c.len() as f64, secs)
        })
        .collect()
}

/// Phase 1's latencies, ms, in the windows with the lowest median: the
/// requests in schedule order cut into [`CHUNKS`] windows, and the best
/// tenth of those kept.
fn best_latency(open: &[Sent]) -> Vec<f64> {
    let size = open.len().div_ceil(CHUNKS).max(1);
    let windows: Vec<Vec<f64>> = open
        .chunks(size)
        .map(|w| {
            w.iter()
                .filter_map(|s| {
                    Some(s.reply.as_ref()?.at.duration_since(s.due).as_secs_f64() * 1e3)
                })
                .collect()
        })
        .collect();
    let medians: Vec<f64> =
        windows.iter().map(|w| Summary::of(w).map_or(f64::NAN, |s| s.median)).collect();
    stats::best_chunks(&medians).into_iter().flat_map(|i| windows[i].iter().copied()).collect()
}

/// Run the reactor on its own thread while `drive` generates load, then
/// stop it (draining what is pending) and hand it back with its counters.
fn phase<T>(
    mut server: NetServer,
    out: &mut Outcome,
    drive: impl FnOnce() -> T,
) -> (NetServer, NetStats, T) {
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let reactor = std::thread::spawn(move || {
        if !crate::pin_thread(REACTOR_CPU) {
            eprintln!("town-wire: the reactor runs unpinned");
        }
        let result = server.run_until(&flag);
        (server, result)
    });
    let driven = drive();
    stop.store(true, Ordering::Release);
    let (server, result) = reactor.join().expect("server thread ends");
    if let Err(e) = result {
        out.violate(format!("server reactor failed: {e}"));
    }
    let stats = server.stats();
    (server, stats, driven)
}

/// Print a millisecond p99, or say on stderr why it was refused.
fn p99_or_refuse(out: &mut Outcome, name: &'static str, ms: &[f64]) {
    match stats::p99(ms) {
        Some(p) => out.add(Kind::Printed, name, p, "ms", ms.len()),
        None => eprintln!("town-wire: {name} refused, {} samples", ms.len()),
    }
}

/// Mean requests per flushed batch between two counter snapshots.
fn batch_mean(before: NetStats, after: NetStats) -> f64 {
    (after.frames_in - before.frames_in) as f64
        / (after.batches_flushed - before.batches_flushed).max(1) as f64
}

/// Run the workload.
pub fn run(args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let map = grid();
    let index = SpatialIndex::build(&map);
    let open_secs = args.serve_secs() * OPEN_SHARE;
    let closed_secs = args.serve_secs() - open_secs;
    let plan = schedule(&map, &index, args.seed, open_secs, 0);
    let pool = generate_requests(
        &map,
        &index,
        &WorkloadConfig {
            num_requests: 1 << 14,
            queries: QueryDistribution::Uniform,
            protection: ProtectionDistribution::Fixed { f_s: PROTECTION.0, f_t: PROTECTION.1 },
            seed: args.seed ^ 0x5A7,
        },
    );
    let cfg = config(args.seed);

    let mut setup_secs = Vec::with_capacity(SETUPS);
    let mut server = None;
    for _ in 0..SETUPS {
        let copy = map.clone();
        let t = Instant::now();
        let service = ServiceBuilder::from_config(cfg).map(copy).build().expect("valid config");
        let bound =
            NetServer::bind("127.0.0.1:0", service, server_config()).expect("bind loopback");
        setup_secs.push(t.elapsed().as_secs_f64());
        server = Some(bound);
    }
    let server = server.expect("set up");
    let addr = server.local_addr().expect("bound address");
    let mut wire = Wire::connect(addr).expect("connect loopback");
    if !crate::pin_thread(GENERATOR_CPU) {
        eprintln!("town-wire: the generator runs unpinned");
    }

    let mut keep = Keep { all: args.trace, rng: draws(args.seed) };
    let sized = |secs: f64| ((secs * SIZING_RPS) as usize, secs);
    let warm_size = sized(args.serve_secs() * WARMUP_SHARE);
    let closed_size = sized(closed_secs);
    // The span clock starts before the first request, so every wire-side
    // span lies after it.
    let tracer = Tracer::default();
    let (server, after_warm, warm) =
        phase(server, &mut out, || closed_loop(&mut wire, &pool, WARM_FIRST, warm_size, &mut keep));
    let (server, after_open, open) =
        phase(server, &mut out, || open_loop(&mut wire, &plan, &mut keep));
    let first = plan.len() as u32;
    let (_, after_closed, closed) =
        phase(server, &mut out, || closed_loop(&mut wire, &pool, first, closed_size, &mut keep));
    drop(wire);

    let (warm, (open, lag), closed) = match (warm, open, closed) {
        (Ok(w), Ok(o), Ok(c)) => (w, o, c),
        (w, o, c) => {
            for e in [w.err(), o.err(), c.err()].into_iter().flatten() {
                out.violate(e);
            }
            return out;
        }
    };
    out.attempted = (warm.len() + open.len() + closed.len()) as u64;
    let mut door = 0;
    for s in warm.iter().chain(&open).chain(&closed) {
        match s.reply.as_ref().map(|r| r.kind) {
            Some(ReplyKind::Delivered) => {}
            Some(ReplyKind::Door) => door += 1,
            _ => out.failed += 1,
        }
        if let Some(path) = s.reply.as_ref().and_then(|r| r.path.as_ref()).filter(|_| s.check) {
            let r = &s.request;
            if let Err(e) = check_path(&map, r.query.source, r.query.destination, path) {
                out.violate(format!("client {}: {e}", r.client.0));
            }
        }
    }
    out.failed += door;
    if door > 0 {
        out.violate(format!("{door} requests refused at the door"));
    }
    if after_closed.frames_in != out.attempted
        || after_closed.dropped_replies != 0
        || after_closed.batch_failures != 0
    {
        out.violate(format!("server counters disagree with the generator: {after_closed:?}"));
    }

    let setup = Summary::of(&setup_secs).expect("set-ups ran");
    out.add(Kind::EndToEnd, "setup_s", setup.median, "s", setup.count);
    let chunks = closed_rates(&closed);
    let (rate, best) = stats::best_rate(&chunks).expect("closed loop ran");
    out.add_noted(
        Kind::EndToEnd,
        "throughput_rps",
        rate,
        "1/s",
        best.iter().map(|&i| chunks[i].0 as usize).sum(),
        format!("closed loop, {IN_FLIGHT} in flight; fastest {} of {CHUNKS} chunks", best.len()),
    );
    let latency: Vec<f64> = open
        .iter()
        .filter_map(|s| s.reply.as_ref().map(|r| r.at.duration_since(s.due).as_secs_f64() * 1e3))
        .collect();
    let best = best_latency(&open);
    let lat = Summary::of(&best).expect("open loop ran");
    out.add_noted(
        Kind::EndToEnd,
        "latency_p50_ms",
        lat.median,
        "ms",
        lat.count,
        format!(
            "open loop at {OFFERED_RPS} req/s, the best tenth of {CHUNKS} windows; {}",
            inproc::tail_note(&lat, "ms")
        ),
    );
    let rss = crate::report::peak_rss_mb().unwrap_or(f64::NAN);
    out.add(Kind::EndToEnd, "peak_rss_mb", rss, "MiB", 1);
    p99_or_refuse(&mut out, "latency_p99_ms", &latency);
    // Where the open-loop latency goes: the gateway queue each reply
    // reports, the rest after it, and how late the generator sent.
    let (mut waited, mut post_queue) = (Vec::new(), Vec::new());
    for s in &open {
        if let Some(r) = s.reply.as_ref().filter(|r| r.kind == ReplyKind::Delivered) {
            waited.push(r.waited * 1e3);
            post_queue.push((r.at.duration_since(s.due).as_secs_f64() - r.waited) * 1e3);
        }
    }
    for (name, v) in [("gateway.wait_p50_ms", &waited), ("gateway.post_queue_p50_ms", &post_queue)]
    {
        if let Some(s) = Summary::of(v) {
            out.add_noted(
                Kind::Printed,
                name,
                s.median,
                "ms",
                s.count,
                inproc::tail_note(&s, "ms"),
            );
        }
    }
    p99_or_refuse(&mut out, "gateway.wait_p99_ms", &waited);
    p99_or_refuse(&mut out, "loadgen.lag_p99_ms", &lag);
    out.add(
        Kind::Printed,
        "net.batch_size_mean.open",
        batch_mean(after_warm, after_open),
        "count",
        (after_open.batches_flushed - after_warm.batches_flushed) as usize,
    );
    out.add(
        Kind::Printed,
        "net.batch_size_mean.saturation",
        batch_mean(after_open, after_closed),
        "count",
        (after_closed.batches_flushed - after_open.batches_flushed) as usize,
    );

    if args.trace {
        let counters = [after_warm, after_open, after_closed];
        trace(args, &map, cfg, tracer, &open, &closed, counters, &mut out);
    }
    out
}

/// The traced run: wire-side spans from the generator, then the same
/// request stream replayed in process in batches of the sizes the server
/// flushed. `tracer` was started before the wire phases.
#[allow(clippy::too_many_arguments)]
fn trace(
    args: &RunArgs,
    map: &RoadNetwork,
    cfg: ServiceConfig,
    tracer: Tracer,
    open: &[Sent],
    closed: &[Sent],
    [after_warm, after_open, after_closed]: [NetStats; 3],
    out: &mut Outcome,
) {
    let delivered: HashMap<ClientId, (&ClientRequest, &Path, f64)> = open
        .iter()
        .chain(closed)
        .filter_map(|s| {
            let r = s.reply.as_ref()?;
            Some((s.request.client, (&s.request, r.path.as_ref()?, r.waited)))
        })
        .collect();
    // In-process replay, in batches of the sizes each phase flushed.
    let open_batch = batch_mean(after_warm, after_open).round().max(1.0) as usize;
    let closed_batch = batch_mean(after_open, after_closed).round().max(1.0) as usize;
    let mut batches: Vec<Vec<ClientRequest>> = Vec::new();
    for (sent, size) in [(open, open_batch), (closed, closed_batch)] {
        let requests: Vec<ClientRequest> = sent.iter().map(|s| s.request).collect();
        batches.extend(requests.chunks(size).map(<[ClientRequest]>::to_vec));
    }
    let budget = args.serve_secs() / 3.0;
    let mut served = Served {
        batch_sizes: Vec::new(),
        batch_secs: Vec::new(),
        update_secs: Vec::new(),
        samples: Vec::new(),
        kept: Vec::new(),
        warm: 0,
        service: ServiceBuilder::from_config(cfg).map(map.clone()).build().expect("valid config"),
        setup_secs: Vec::new(),
    };
    for batch in batches {
        if served.busy_secs(0) >= budget {
            break;
        }
        let t = Instant::now();
        let response = served.service.process_batch(&batch);
        served.batch_secs.push(t.elapsed().as_secs_f64());
        let paths = match response {
            Ok(r) => {
                for c in &r.results {
                    if delivered.get(&c.client).is_none_or(|(_, p, _)| **p != c.path) {
                        out.violate(format!(
                            "client {}: process_batch and the wire delivered different paths",
                            c.client.0
                        ));
                    }
                }
                r.results.into_iter().map(|c| (c.client, c.path)).collect()
            }
            Err(e) => {
                out.violate(format!("in-process batch failed: {e}"));
                Vec::new()
            }
        };
        served.batch_sizes.push(batch.len());
        served.kept.push((batch, paths));
    }
    let mut traced = inproc::trace(&cfg, map, &[], &served, tracer, out);
    // Wire-side spans, from the generator: scheduled send to reply, with
    // the gateway queue wait the reply reports as its child (a request
    // that did not wait, because it filled its batch, has none).
    let wire_spans = open.iter().enumerate().filter_map(|(i, s)| {
        let r = s.reply.as_ref().filter(|r| r.kind == ReplyKind::Delivered)?;
        Some((s.due, r.at, r.waited, i as u32))
    });
    for (due, at, w, i) in wire_spans {
        let start = traced.tracer.stamp(due);
        let end = traced.tracer.stamp(at);
        let root = traced.tracer.record(Span {
            name: "wire.request",
            start,
            end,
            parent: ROOT,
            batch: u32::MAX,
            item: i,
        });
        let queue_end = (start + (w * 1e9) as u64).min(end);
        if queue_end > start {
            traced.tracer.record(Span {
                name: "gateway.wait",
                start,
                end: queue_end,
                parent: root,
                batch: u32::MAX,
                item: i,
            });
        }
    }
    let messages: Vec<(RequestMsg, ResultMsg, f64)> = open
        .iter()
        .chain(closed)
        .filter_map(|s| delivered.get(&s.request.client))
        .take(crate::layers::CODEC_MESSAGES)
        .map(|(r, path, w)| {
            (
                RequestMsg { client: r.client, query: r.query, protection: r.protection },
                ResultMsg { client: r.client, path: (*path).clone() },
                *w,
            )
        })
        .collect();
    let probe_rounds = rush_hour_schedule(map, &crate::hotspot::churn(map, args.seed));
    let input = crate::layers::Input {
        map,
        cfg,
        untraced_secs: served.batch_secs.iter().sum(),
        requests: served.requests(),
        traced: &traced,
        rounds: &probe_rounds,
        alt: None,
        probe_secs: crate::layers::probe_secs(args.seconds),
        messages: &messages,
    };
    crate::layers::report(&input, out);
    crate::write_spans(&traced.tracer, "town-wire", args.seed, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_reproducible_per_seed() {
        let map = grid();
        let index = SpatialIndex::build(&map);
        let a = schedule(&map, &index, 7, 2.0, 100);
        let b = schedule(&map, &index, 7, 2.0, 100);
        let same = |x: &[(f64, ClientRequest)], y: &[(f64, ClientRequest)]| {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|((t, r), (u, q))| t == u && r.query == q.query && r.client == q.client)
        };
        assert!(same(&a, &b), "same seed, same schedule");
        assert!(!same(&a, &schedule(&map, &index, 8, 2.0, 100)), "another seed, another schedule");
    }

    #[test]
    fn schedule_offers_the_fixed_rate_in_order() {
        let map = grid();
        let index = SpatialIndex::build(&map);
        let plan = schedule(&map, &index, 3, 4.0, 0);
        let expected = OFFERED_RPS * 4.0;
        assert!((plan.len() as f64 - expected).abs() < 0.05 * expected, "{} arrivals", plan.len());
        assert!(plan.windows(2).all(|w| w[0].0 <= w[1].0), "arrivals ascend");
        assert!(
            plan.iter().enumerate().all(|(i, (_, r))| r.client.0 == i as u32),
            "ids dense from first"
        );
        assert!(plan.iter().all(|(t, _)| (0.0..4.0).contains(t)));
    }
}
