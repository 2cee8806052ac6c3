//! The pieces every workload shares: the server under test and its
//! reference, the timed stages, and the readings taken between them.
//! Every call into the program goes through the public API of the
//! `swag-*` crates, and in the traced run each such call is wrapped in a
//! span (see [`crate::span`]).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use swag_client::ClientPipeline;
use swag_core::{CameraProfile, DescriptorCodec, UploadBatch};
use swag_obs::{Metric as ObsMetric, Registry};
use swag_server::{
    CacheConfig, CloudServer, IndexKind, Query, QueryOptions, SearchHit, SegmentRef, ServerConfig,
};

use crate::gen::wire::{self, Wire};
use crate::gen::Session;
use crate::openloop::{self, OpenStats};
use crate::report::{self, Report, J};
use crate::span::Tracer;
use crate::stats;

/// Result-cache capacity, the same for every workload.
pub const CACHE_CAPACITY: usize = 1024;
/// Retention horizon: seven days.
pub const RETENTION_S: f64 = 7.0 * 86_400.0;
/// Alg. 1 similarity threshold of the provider pipeline.
pub const SEGMENT_THRESH: f64 = 0.5;
/// Set-up is repeated at least this many times, and more while the
/// repetitions have taken less than [`SETUP_MIN_S`], up to
/// [`SETUP_MAX_REPEATS`]; the median is reported (see [`Setup::repeat`]).
pub const SETUP_REPEATS: usize = 3;
pub const SETUP_MIN_S: f64 = 1.0;
pub const SETUP_MAX_REPEATS: usize = 60;
/// Recovery is repeated at least this many times, and more while the
/// repetitions have taken less than [`RECOVER_MIN_S`], up to
/// [`RECOVER_MAX_REPEATS`]; the fast decile is reported.
pub const RECOVER_REPEATS: usize = 7;
pub const RECOVER_MIN_S: f64 = 1.0;
pub const RECOVER_MAX_REPEATS: usize = 40;
/// Target length of one closed-loop round.
const BATCH_ROUND_S: f64 = 0.05;
/// Queries compared against the reference after each phase.
pub const CHECK_SAMPLE: usize = 300;
/// Threads of the closed `query_batch` loop.
pub const BATCH_THREADS: usize = 2;
/// Worker threads of the server's executor (`SWAG_EXEC_THREADS`, read
/// when the process-wide executor is first built). `1` is the serial
/// executor: with a pool, `swag-exec`'s completion latch can be touched
/// after the waiting caller has freed it, and the process dies with
/// SIGSEGV in a large share of `city_uniform` runs.
pub const EXEC_THREADS: &str = "1";

/// The one server configuration all workloads run: default durability
/// (2 ms group commit, cold tier on), result cache on, 7-day retention,
/// every other knob at its default.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        cache: CacheConfig::enabled(CACHE_CAPACITY),
        retention_horizon_s: Some(RETENTION_S),
        ..ServerConfig::default()
    }
}

pub fn camera() -> CameraProfile {
    CameraProfile::smartphone()
}

pub fn options() -> QueryOptions {
    QueryOptions::default()
}

/// Per-run state: the data directory, the main thread's tracer, the
/// metrics registry of the traced run, and the report.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    pub root: PathBuf,
    pub tracer: Tracer,
    pub registry: Option<Registry>,
    pub report: Report,
    dirs: usize,
}

impl Ctx {
    pub fn new(seed: u64, seconds: f64, smoke: bool, trace: bool, root: PathBuf) -> Ctx {
        Ctx {
            seed,
            seconds,
            smoke,
            root,
            tracer: Tracer::new(trace, Instant::now(), 0),
            registry: trace.then(Registry::new),
            report: Report::default(),
            dirs: 0,
        }
    }

    pub fn traced(&self) -> bool {
        self.tracer.enabled()
    }

    /// A fresh, empty data directory under the run's root.
    fn fresh_dir(&mut self) -> PathBuf {
        self.dirs += 1;
        let d = self.root.join(format!("data-{}", self.dirs));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).expect("create data directory");
        d
    }

    /// `CloudServer::open` on `dir`, with observability attached in the
    /// traced run.
    pub fn open(&mut self, dir: &Path) -> CloudServer {
        let mut server = self
            .tracer
            .wrap("open", 0, || {
                CloudServer::open(dir, camera(), server_config())
            })
            .expect("open data directory");
        if let Some(registry) = &self.registry {
            server.attach_observability(registry);
        }
        server
    }

    /// Registry readings now (empty outside the traced run).
    pub fn reg(&self) -> RegSnap {
        RegSnap::take(self.registry.as_ref())
    }
}

/// Counter values and histogram `(count, sum)` pairs at one instant.
#[derive(Debug, Clone, Default)]
pub struct RegSnap(BTreeMap<String, (u64, u64)>);

impl RegSnap {
    fn take(registry: Option<&Registry>) -> RegSnap {
        let Some(registry) = registry else {
            return RegSnap::default();
        };
        let mut out = BTreeMap::new();
        for name in registry.names() {
            let v = match registry.get(&name) {
                Some(ObsMetric::Counter(c)) => (c.get(), c.get()),
                Some(ObsMetric::Histogram(h)) => {
                    let s = h.snapshot();
                    (s.count, s.sum)
                }
                _ => continue,
            };
            out.insert(name, v);
        }
        RegSnap(out)
    }

    fn get(&self, name: &str) -> (u64, u64) {
        self.0.get(name).copied().unwrap_or((0, 0))
    }

    /// Counter increase since `earlier`.
    pub fn count_since(&self, earlier: &RegSnap, name: &str) -> f64 {
        (self.get(name).0.saturating_sub(earlier.get(name).0)) as f64
    }

    /// Sum of histogram observations since `earlier`.
    pub fn sum_since(&self, earlier: &RegSnap, name: &str) -> f64 {
        (self.get(name).1.saturating_sub(earlier.get(name).1)) as f64
    }

    /// Mean histogram observation since `earlier` (0 with none).
    pub fn mean_since(&self, earlier: &RegSnap, name: &str) -> f64 {
        let n = self.count_since(earlier, name);
        if n == 0.0 {
            0.0
        } else {
            self.sum_since(earlier, name) / n
        }
    }
}

/// Stage 1's state: one encoded upload per session (first pass), and
/// the client throughput measured so far.
#[derive(Default)]
pub struct Stage1 {
    pub wires: Vec<Wire>,
    pub frames: u64,
    pub segments: u64,
    pub frames_processed: u64,
    /// Throughput of each window of [`STAGE1_WINDOW`] sessions, kframes/s.
    rates: Vec<f64>,
    /// Index of the next session (cycled after the first pass).
    next: usize,
}

/// Sessions per throughput window of stage 1.
const STAGE1_WINDOW: usize = 32;

impl Stage1 {
    /// Client throughput: the fast decile (see [`stats::fast_decile`])
    /// over every window of every slice.
    pub fn kframes_per_s(&self) -> f64 {
        stats::fast_decile(&self.rates, stats::Better::Higher)
    }

    /// One slice of stage 1, a closed loop on one thread: sessions' frames
    /// go through the provider pipeline (Alg. 1 segmentation + eq. 11
    /// abstraction) and `encode_batch`. The first slice runs at least one
    /// full pass, keeping each session's upload; every slice then keeps
    /// cycling through the sessions until `budget` is spent.
    pub fn run(&mut self, ctx: &mut Ctx, sessions: &[Session], budget: Duration) {
        let phase = ctx.tracer.begin("phase.stage1", 0);
        let start = Instant::now();
        let (mut win_frames, mut win_start, mut win_n) = (0u64, Instant::now(), 0usize);
        let windows_before = self.rates.len();
        while self.next < sessions.len() || start.elapsed() < budget {
            let i = self.next;
            let s = &sessions[i % sessions.len()];
            let req = i as u64;
            let open = ctx.tracer.begin("client.session", req);
            let push = ctx.tracer.begin("client.push", req);
            let mut pipeline = ClientPipeline::new(camera(), SEGMENT_THRESH);
            for &f in &s.frames {
                pipeline.push(f);
            }
            ctx.tracer.end_n(push, s.frames.len() as u64);
            let result = ctx.tracer.wrap("client.finish", req, || pipeline.finish());
            let batch = UploadBatch {
                provider_id: s.provider_id,
                video_id: s.video_id,
                reps: result.reps,
            };
            let encode = ctx.tracer.begin("codec.encode", req);
            let bytes = DescriptorCodec::encode_batch(&batch).expect("client output encodes");
            ctx.tracer.end_n(encode, batch.reps.len() as u64);
            ctx.tracer.end(open);
            self.frames_processed += s.frames.len() as u64;
            win_frames += s.frames.len() as u64;
            win_n += 1;
            if win_n == STAGE1_WINDOW {
                self.rates
                    .push(win_frames as f64 / win_start.elapsed().as_secs_f64() / 1e3);
                (win_frames, win_start, win_n) = (0, Instant::now(), 0);
            }
            if i < sessions.len() {
                self.frames += s.frames.len() as u64;
                self.segments += batch.reps.len() as u64;
                self.wires.push(bytes.to_vec());
                report::attempt(1);
            } else {
                black_box(&bytes);
            }
            self.next += 1;
        }
        if self.rates.len() == windows_before && win_n > 0 {
            self.rates
                .push(win_frames as f64 / win_start.elapsed().as_secs_f64() / 1e3);
        }
        ctx.tracer.end(phase);
    }
}

/// Decodes one upload and ingests it (the server's upload handler).
fn upload(tracer: &mut Tracer, server: &CloudServer, req: u64, bytes: &[u8]) -> usize {
    let open = tracer.begin("upload", req);
    let decode = tracer.begin("codec.decode", req);
    let batch = DescriptorCodec::decode_batch(bytes).expect("uploads decode");
    tracer.end_n(decode, batch.reps.len() as u64);
    let ingest = tracer.begin("ingest_batch", req);
    let ids = server.ingest_batch(&batch);
    tracer.end_n(ingest, batch.reps.len() as u64);
    tracer.end(open);
    report::attempt(1);
    ids.len()
}

/// What set-up measured, and the kept server's directory.
pub struct Setup {
    pub dir: PathBuf,
    /// Seconds per repetition.
    pub times: Vec<f64>,
    /// Per-upload latency of every repetition's preload, µs, in order
    /// (closed loop: each upload is due when the previous one is
    /// acknowledged).
    pub upload_us: Vec<f64>,
    pub records: u64,
    /// Registry readings around the first repetition.
    pub reg_before: RegSnap,
    pub reg_after: RegSnap,
}

/// Set-up: `CloudServer::open` on an empty directory, ingest of the
/// preload (decode + `ingest_batch` per upload), `quiesce`. The server
/// is kept for the rest of the run; [`Setup::repeat`] adds repetitions.
pub fn setup(ctx: &mut Ctx, preload: &[Wire]) -> (CloudServer, Setup) {
    let dir = ctx.fresh_dir();
    let reg_before = ctx.reg();
    let mut upload_us = Vec::with_capacity(preload.len());
    let (server, secs, records) = setup_once(ctx, &dir, preload, &mut upload_us);
    let setup = Setup {
        dir,
        times: vec![secs],
        upload_us,
        records,
        reg_before,
        reg_after: ctx.reg(),
    };
    (server, setup)
}

/// One set-up on `dir`: returns the server, the seconds it took and the
/// records ingested, and appends each upload's latency to `upload_us`.
fn setup_once(
    ctx: &mut Ctx,
    dir: &Path,
    preload: &[Wire],
    upload_us: &mut Vec<f64>,
) -> (CloudServer, f64, u64) {
    let rep = ctx.dirs as u64;
    let phase = ctx.tracer.begin("phase.setup", rep);
    let t0 = Instant::now();
    let server = ctx.open(dir);
    let mut records = 0;
    for (i, bytes) in preload.iter().enumerate() {
        let t = Instant::now();
        records += upload(&mut ctx.tracer, &server, i as u64, bytes) as u64;
        upload_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    ctx.tracer.wrap("quiesce", 0, || server.quiesce());
    let secs = t0.elapsed().as_secs_f64();
    ctx.tracer.end(phase);
    (server, secs, records)
}

impl Setup {
    /// Repeats set-up on fresh directories, dropping each server, until
    /// there are [`SETUP_REPEATS`] repetitions and they took
    /// [`SETUP_MIN_S`] in all, or there are [`SETUP_MAX_REPEATS`]. The
    /// run calls this at its end, so the repetitions sample the host at
    /// another time than the first. Earlier directories stay until the
    /// run ends: deleting thousands of files would load the disk during
    /// the next repetition.
    pub fn repeat(&mut self, ctx: &mut Ctx, preload: &[Wire]) {
        while self.times.len() < SETUP_MAX_REPEATS
            && (self.times.len() < SETUP_REPEATS || self.times.iter().sum::<f64>() < SETUP_MIN_S)
        {
            let dir = ctx.fresh_dir();
            let (server, secs, _) = setup_once(ctx, &dir, preload, &mut self.upload_us);
            drop(server);
            self.times.push(secs);
        }
    }
}

/// The reference: a memory-only linear-scan server (the paper's
/// Fig. 6(c) baseline) with no cache and no retention, fed the same
/// decoded uploads.
pub struct Reference {
    server: CloudServer,
}

impl Reference {
    pub fn new() -> Reference {
        Reference {
            server: CloudServer::with_config(
                camera(),
                ServerConfig {
                    index: IndexKind::Linear,
                    ..ServerConfig::default()
                },
            ),
        }
    }

    pub fn feed(&self, uploads: &[Wire]) {
        for bytes in uploads {
            self.server.ingest_batch(&wire::decode(bytes));
        }
    }

    pub fn answer(&self, q: &Query) -> Vec<SearchHit> {
        self.server.query(q, &options())
    }
}

/// The comparable part of an answer: the `(source, rep)` sequence. The
/// server-internal `SegmentId` is ignored (cold hits carry a sentinel).
fn key(hits: &[SearchHit]) -> Vec<(SegmentRef, [u64; 5])> {
    hits.iter()
        .map(|h| {
            let r = &h.rep;
            (
                h.source,
                [
                    r.t_start.to_bits(),
                    r.t_end.to_bits(),
                    r.fov.p.lat.to_bits(),
                    r.fov.p.lng.to_bits(),
                    r.fov.theta.to_bits(),
                ],
            )
        })
        .collect()
}

/// Compares answers against the reference; every mismatch is a failed
/// operation. Returns the number of mismatches.
pub fn check(
    ctx: &mut Ctx,
    label: &str,
    reference: &Reference,
    pairs: impl Iterator<Item = (Query, Vec<SearchHit>)>,
) -> u64 {
    let (mut n, mut bad, mut hits) = (0u64, 0u64, 0u64);
    for (q, got) in pairs {
        n += 1;
        hits += got.len() as u64;
        if key(&got) != key(&reference.answer(&q)) {
            bad += 1;
        }
    }
    report::attempt(n);
    if bad > 0 {
        report::fail(bad);
        ctx.report.problem(format!(
            "reference check {label}: {bad} of {n} answers differ"
        ));
    }
    println!("reference check {label:<12} {n} answers compared, {bad} differ, {hits} hits");
    ctx.report.meta(
        &format!("reference.{label}"),
        J::obj(vec![
            ("compared", J::Int(n)),
            ("mismatched", J::Int(bad)),
            ("hits", J::Int(hits)),
        ]),
    );
    bad
}

/// Up to [`CHECK_SAMPLE`] distinct queries of a sequence, spread over it.
pub fn check_sample(queries: &[Query]) -> Vec<Query> {
    let mut out: Vec<Query> = Vec::new();
    let step = (queries.len() / (4 * CHECK_SAMPLE)).max(1);
    for q in queries.iter().step_by(step) {
        if out.len() == CHECK_SAMPLE {
            break;
        }
        if !out.contains(q) {
            out.push(*q);
        }
    }
    out
}

/// One open-loop phase: a querier thread sends `queries` at
/// `query_rate`, and (when `uploads` is non-empty) an uploader thread
/// sends them in order at `upload_rate`, both for `phase`.
pub struct OpenPhase {
    pub queries: OpenStats,
    pub uploads: OpenStats,
    pub hits: u64,
}

pub fn open_phase(
    ctx: &mut Ctx,
    server: &CloudServer,
    queries: &[Query],
    query_rate: f64,
    uploads: &[Wire],
    upload_rate: f64,
    phase: Duration,
) -> OpenPhase {
    let span = ctx.tracer.begin("phase.open", 0);
    let mut qtracer = ctx.tracer.fork(1);
    let mut utracer = ctx.tracer.fork(2);
    let opts = options();
    let start = Instant::now() + Duration::from_millis(5);
    let (qstats, hits, ustats) = std::thread::scope(|scope| {
        let querier = scope.spawn(|| {
            let mut hits = 0u64;
            let stats = openloop::run(start, query_rate, queries.len(), phase, |i| {
                let got = qtracer.wrap("query", i as u64, || server.query(&queries[i], &opts));
                hits += got.len() as u64;
                report::attempt(1);
            });
            (stats, hits)
        });
        let uploader = (!uploads.is_empty()).then(|| {
            scope.spawn(|| {
                openloop::run(start, upload_rate, uploads.len(), phase, |i| {
                    upload(&mut utracer, server, i as u64, &uploads[i]);
                })
            })
        });
        let (qstats, hits) = querier.join().expect("querier thread");
        let ustats =
            uploader.map_or_else(OpenStats::default, |u| u.join().expect("uploader thread"));
        (qstats, hits, ustats)
    });
    ctx.tracer.absorb(qtracer);
    ctx.tracer.absorb(utracer);
    ctx.tracer.end(span);
    report::progress();
    OpenPhase {
        queries: qstats,
        uploads: ustats,
        hits,
    }
}

/// The closed loop's state across its slices.
#[derive(Default)]
pub struct Batch {
    /// Queries per second of each round.
    rates: Vec<f64>,
    /// Queries run.
    pub total: u64,
    /// Up to [`CHECK_SAMPLE`] of the first round's queries with their
    /// answers.
    pub first: Vec<(Query, Vec<SearchHit>)>,
    /// Position in the workload's query sequence.
    at: usize,
    /// Queries in the next round.
    chunk: usize,
    /// Time spent in rounds so far.
    busy: Duration,
}

impl Batch {
    /// Closed-loop throughput: the fast decile over rounds.
    pub fn qps(&self) -> f64 {
        stats::fast_decile(&self.rates, stats::Better::Higher)
    }

    /// One slice of the closed loop: each round splits the next queries
    /// of the workload's query sequence (cycled) over [`BATCH_THREADS`]
    /// threads of the benchmark, each calling `query_batch` on its
    /// share, until `budget` is spent. The executor is serial (see
    /// [`EXEC_THREADS`]), so the parallelism is the benchmark's own. The
    /// first round runs `2 * CHECK_SAMPLE` queries; later rounds are
    /// sized from the rate so far to last about [`BATCH_ROUND_S`].
    pub fn run(
        &mut self,
        ctx: &mut Ctx,
        server: &CloudServer,
        queries: &[Query],
        budget: Duration,
    ) {
        let span = ctx.tracer.begin("phase.batch", 0);
        let opts = options();
        if self.chunk == 0 {
            self.chunk = 2 * CHECK_SAMPLE;
        }
        let start = Instant::now();
        let rounds_before = self.rates.len();
        while self.rates.len() == rounds_before || start.elapsed() < budget {
            let chunk = self.chunk;
            let batch: Vec<Query> = (0..chunk)
                .map(|j| queries[(self.at + j) % queries.len()])
                .collect();
            let share = chunk.div_ceil(BATCH_THREADS);
            let round = self.rates.len() as u64;
            // Span ids carry the tracer's thread number: every round's
            // threads get fresh ones (the open loop has 1 and 2).
            let mut tracers: Vec<Tracer> = (0..BATCH_THREADS as u64)
                .map(|k| ctx.tracer.fork(3 + round * BATCH_THREADS as u64 + k))
                .collect();
            let t = Instant::now();
            let answers: Vec<Vec<SearchHit>> = std::thread::scope(|scope| {
                let workers: Vec<_> = batch
                    .chunks(share)
                    .zip(tracers.iter_mut())
                    .map(|(part, tracer)| {
                        let opts = &opts;
                        scope.spawn(move || {
                            tracer.wrap("query_batch", round, || server.query_batch(part, opts, 1))
                        })
                    })
                    .collect();
                workers
                    .into_iter()
                    .flat_map(|w| w.join().expect("closed-loop thread"))
                    .collect()
            });
            let took = t.elapsed();
            self.rates.push(chunk as f64 / took.as_secs_f64());
            self.busy += took;
            for tracer in tracers {
                ctx.tracer.absorb(tracer);
            }
            self.total += chunk as u64;
            report::attempt(chunk as u64);
            if self.first.is_empty() {
                self.first = batch.into_iter().zip(answers).take(CHECK_SAMPLE).collect();
            } else {
                black_box(answers);
            }
            self.at = (self.at + chunk) % queries.len();
            let rate = self.total as f64 / self.busy.as_secs_f64();
            self.chunk = ((rate * BATCH_ROUND_S) as usize).max(2 * BATCH_THREADS);
        }
        ctx.tracer.end(span);
    }
}

/// Recovery: `CloudServer::open` on the workload's directory after
/// `quiesce` + drop, repeated (see [`RECOVER_REPEATS`]). Returns the last
/// recovered server and the seconds each open took.
pub fn recover(ctx: &mut Ctx, dir: &Path) -> (CloudServer, Vec<f64>) {
    let span = ctx.tracer.begin("phase.recover", 0);
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < RECOVER_MAX_REPEATS
        && (times.len() < RECOVER_REPEATS || times.iter().sum::<f64>() < RECOVER_MIN_S)
    {
        drop(last.take());
        let t = Instant::now();
        let server = ctx.open(dir);
        times.push(t.elapsed().as_secs_f64());
        report::attempt(1);
        last = Some(server);
    }
    ctx.tracer.end(span);
    (last.expect("at least one recovery"), times)
}

/// Bytes under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Segments a durable server holds: live (snapshot + delta) plus cold.
pub fn segments_held(server: &CloudServer) -> u64 {
    let cold = server.durability_stats().map_or(0, |d| d.cold_segments);
    server.stats().segments as u64 + cold
}

/// Peak resident set of this process (VmHWM), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Cumulative `(steal, total)` CPU ticks of the host's `cpu` line in
/// `/proc/stat`; steal is time the hypervisor ran something else.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}
