//! Observability overhead guard.
//!
//! Measures the server query path three ways over the same workload:
//!
//! * **baseline** — an exact replica of the uninstrumented query loop
//!   (momentary lock + snapshot clone, fan-out pricing, sharded index
//!   scan, ranking, `Instant`-based latency atomics), built from the
//!   same public components but with no recorder or registry machinery;
//! * **disabled** — `CloudServer` with no observability attached. This
//!   path now also carries the dormant causal-tracing machinery (a
//!   disabled `FlightRecorder` whose span guards cost one relaxed load
//!   plus a branch, and `TraceCtx` capture in the executor) *and* the
//!   absent wide-event log (an `Option` that is `None` by default, one
//!   load plus a branch on the query path), so the gate below covers
//!   recorder/ctx propagation and the events-disabled path too;
//! * **enabled** — `CloudServer` with a full registry attached;
//! * **traced** — `CloudServer` with its flight recorder *enabled* (no
//!   registry): the cost of live span recording, reported but ungated;
//! * **evented** — `CloudServer` with the wide-event query log enabled
//!   (one structured event per query into the per-thread ring, tail
//!   sampler consulted): reported but ungated.
//!
//! Overhead is the median of per-round subject/baseline time ratios
//! (each subject round paired with the baseline round it ran next to),
//! which cancels machine drift slower than one round. Writes
//! `BENCH_obs.json` at the workspace root and exits non-zero if the
//! disabled path regresses by `LIMIT_PCT` or more against baseline.
//!
//! Usage: `cargo run --release -p swag-bench --bin obs_overhead`

use std::hint::black_box;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::RwLock;
use swag_bench::fmt_duration;
use swag_core::{CameraProfile, Fov, RepFov};
use swag_exec::Executor;
use swag_geo::LatLon;
use swag_obs::Registry;
use swag_server::ranking::rank_candidates;
use swag_server::{
    CloudServer, EventLogConfig, FanoutDecision, FanoutMode, IndexKind, Query, QueryOptions,
    SegmentRef, SegmentStore, ServerConfig, ShardedFovIndex,
};

const SEGMENTS: usize = 20_000;
const QUERIES: usize = 512;
const ROUNDS: usize = 101;
const LIMIT_PCT: f64 = 2.0;

fn center() -> LatLon {
    LatLon::new(40.0, 116.32)
}

/// Deterministic workload: segments sunflower-scattered within 600 m of
/// the centre, uniformly spread over an hour of recording time.
fn segments() -> Vec<(RepFov, SegmentRef)> {
    (0..SEGMENTS)
        .map(|i| {
            let bearing = (i as f64 * 0.618_033_988_75 * 360.0) % 360.0;
            let dist = 600.0 * (((i % 997) as f64 + 1.0) / 997.0).sqrt();
            let t0 = (i % 3600) as f64;
            let rep = RepFov::new(
                t0,
                t0 + 8.0,
                Fov::new(center().offset(bearing, dist), (i % 360) as f64),
            );
            let source = SegmentRef {
                provider_id: (i / 100) as u64,
                video_id: 0,
                segment_idx: i as u32,
            };
            (rep, source)
        })
        .collect()
}

fn queries() -> Vec<Query> {
    (0..QUERIES)
        .map(|i| {
            let bearing = (i as f64 * 137.507_764) % 360.0;
            let dist = 300.0 * ((i % 13) as f64 / 13.0);
            let t0 = ((i * 97) % 3500) as f64;
            Query::new(t0, t0 + 60.0, center().offset(bearing, dist), 120.0)
        })
        .collect()
}

/// The uninstrumented query loop, replicated over the same public
/// index/store/ranking components the server is built from: momentary
/// lock + `Arc` snapshot clone, fan-out pricing, sharded probe, ranking,
/// `Instant`-based latency atomics. What it deliberately does *not*
/// carry is the observability machinery — recorder span guards, trace
/// sampling, per-operator telemetry — so the gap to the subjects is the
/// cost of instrumentation, not of unrelated engine features.
///
/// Parity matters more than pedigree here: the subjects answer from a
/// time-sharded, STR-bulk-loaded snapshot with an empty delta, so the
/// baseline must scan the same structure and do the same per-query
/// bookkeeping. An earlier version used a flat incrementally-built
/// R-tree, which is *slower* to traverse — the baseline then did extra
/// work and the "overhead" of every instrumented subject came out
/// negative, making the `LIMIT_PCT` gate vacuous.
struct BaselineServer {
    state: RwLock<Arc<(ShardedFovIndex, SegmentStore)>>,
    exec: Executor,
    cam: CameraProfile,
    /// Stand-in for the engine's `Option<ResultCache>` field: the
    /// subjects' query path starts with a cache-enabled check (`None`
    /// by default), which is engine feature cost, not instrumentation —
    /// so the baseline carries the same load-and-branch. Constructed
    /// through `black_box` so the optimizer cannot prove it `None` and
    /// fold the branch away.
    result_cache: Option<u64>,
    /// Stand-in for the engine's `Option<Arc<QueryEventLog>>` field: the
    /// query path gates wide-event emission on `is_some_and(enabled)`,
    /// so the baseline pays the same load-and-branch. Also `black_box`ed
    /// so the branch survives optimization.
    event_log: Option<u64>,
    /// Stand-in for the engine's `Option<Arc<Durability>>` field: the
    /// query path gates the cold-tier scan on `is_some_and(has cold
    /// runs)` (`None` on memory-only servers), so the baseline pays the
    /// same load-and-branch. `black_box`ed like the others.
    durability: Option<u64>,
    queries: AtomicU64,
    query_micros: AtomicU64,
}

impl BaselineServer {
    fn new(cam: CameraProfile, items: &[(RepFov, SegmentRef)]) -> Self {
        let config = ServerConfig::default();
        let mut index = ShardedFovIndex::new(config.shard_width_s, IndexKind::RTree);
        let mut store = SegmentStore::new();
        let ids: Vec<_> = items
            .iter()
            .map(|&(rep, source)| (rep, store.push(rep, source)))
            .collect();
        index.bulk_insert(&ids);
        BaselineServer {
            state: RwLock::new(Arc::new((index, store))),
            exec: Executor::global().clone(),
            cam,
            result_cache: black_box(None),
            event_log: black_box(None),
            durability: black_box(None),
            queries: AtomicU64::new(0),
            query_micros: AtomicU64::new(0),
        }
    }

    fn query(&self, query: &Query, opts: &QueryOptions) -> usize {
        let start = Instant::now();
        if self.result_cache.is_some() {
            // Cache-enabled arm: never taken here, exists so the
            // baseline pays the engine's default-path branch.
            return usize::MAX;
        }
        if self.event_log.as_ref().is_some_and(|&e| e > 0) {
            // Events-enabled arm: same as above, mirrors the engine's
            // `is_some_and(is_enabled)` wide-event gate.
            return usize::MAX;
        }
        if self.durability.as_ref().is_some_and(|&d| d > 0) {
            // Cold-tier arm: mirrors the engine's cold-run gate in
            // front of the cold scan (always false on memory-only).
            return usize::MAX;
        }
        let state = self.state.read().clone();
        let decision = FanoutDecision::decide(
            &state.0,
            query.t_start,
            query.t_end,
            &self.exec,
            FanoutMode::Adaptive,
        );
        let candidates = if decision.parallel {
            state.0.candidates_exec(&self.exec, query)
        } else {
            state.0.candidates(query)
        };
        let hits = rank_candidates(&candidates, &state.1, &self.cam, query, opts);
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.query_micros
            .fetch_add(start.elapsed().as_micros() as u64, Ordering::Relaxed);
        hits.len()
    }
}

/// One timed pass over every query; returns elapsed nanoseconds.
fn round_ns(mut run: impl FnMut(&Query) -> usize, qs: &[Query]) -> u64 {
    let start = Instant::now();
    let mut sink = 0usize;
    for q in qs {
        sink += run(q);
    }
    black_box(sink);
    start.elapsed().as_nanos() as u64
}

fn median(xs: &mut [u64]) -> u64 {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

fn main() {
    let cam = CameraProfile::smartphone();
    let items = segments();
    let qs = queries();
    let opts = QueryOptions::default();

    // Every subject is bulk-loaded so all four answer from the same
    // snapshot shape with an empty delta. Incremental ingest would leave
    // `SEGMENTS % publish_threshold` records pending in the delta, and
    // the per-query delta scan the subjects then pay (and the baseline
    // does not) would be billed to "observability".
    let baseline = BaselineServer::new(cam, &items);
    let disabled = CloudServer::from_records(cam, items.clone());
    let registry = Registry::new();
    let mut enabled = CloudServer::from_records(cam, items.clone());
    enabled.attach_observability(&registry);
    let traced = CloudServer::from_records(cam, items.clone());
    traced.flight_recorder().enable();
    let evented = CloudServer::from_records_with_config(
        cam,
        ServerConfig {
            events: EventLogConfig::enabled(0, 42),
            ..ServerConfig::default()
        },
        items.clone(),
    );

    // Warm up every subject, then time them interleaved per round so
    // drift (frequency scaling, page cache) hits all five equally.
    for subject in 0..5 {
        let _ = match subject {
            0 => round_ns(|q| baseline.query(q, &opts), &qs),
            1 => round_ns(|q| disabled.query(q, &opts).len(), &qs),
            2 => round_ns(|q| enabled.query(q, &opts).len(), &qs),
            3 => round_ns(|q| traced.query(q, &opts).len(), &qs),
            _ => round_ns(|q| evented.query(q, &opts).len(), &qs),
        };
    }
    let mut t_base = Vec::with_capacity(ROUNDS);
    let mut t_disabled = Vec::with_capacity(ROUNDS);
    let mut t_enabled = Vec::with_capacity(ROUNDS);
    let mut t_traced = Vec::with_capacity(ROUNDS);
    let mut t_evented = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        t_base.push(round_ns(|q| baseline.query(q, &opts), &qs));
        t_disabled.push(round_ns(|q| disabled.query(q, &opts).len(), &qs));
        t_enabled.push(round_ns(|q| enabled.query(q, &opts).len(), &qs));
        t_traced.push(round_ns(|q| traced.query(q, &opts).len(), &qs));
        t_evented.push(round_ns(|q| evented.query(q, &opts).len(), &qs));
    }

    let med_base = median(&mut t_base.clone());
    let med_disabled = median(&mut t_disabled.clone());
    let med_enabled = median(&mut t_enabled.clone());
    let med_traced = median(&mut t_traced.clone());
    let med_evented = median(&mut t_evented.clone());
    // Overhead is judged on *paired* rounds: each subject round is
    // divided by the baseline round it ran next to, and the median of
    // those per-round ratios is the reported overhead. Comparing
    // medians of independently-sorted round times lets slow drift
    // (frequency scaling, a background task spanning a few rounds)
    // land on one subject's median and not another's — observed as
    // ±3% swings on an unchanged binary, right at the gate. The
    // paired ratio cancels anything slower than one round.
    let pct = |subject: &[u64]| {
        let mut ratios: Vec<u64> = subject
            .iter()
            .zip(&t_base)
            .map(|(&s, &b)| (s as f64 / b as f64 * 1e6) as u64)
            .collect();
        median(&mut ratios) as f64 / 1e6 * 100.0 - 100.0
    };
    let (disabled_pct, enabled_pct, traced_pct, evented_pct) = (
        pct(&t_disabled),
        pct(&t_enabled),
        pct(&t_traced),
        pct(&t_evented),
    );
    let pass = disabled_pct < LIMIT_PCT;

    println!("obs overhead over {SEGMENTS} segments, {QUERIES} queries x {ROUNDS} rounds");
    println!(
        "  baseline  median {:>10} / round",
        fmt_duration(std::time::Duration::from_nanos(med_base))
    );
    println!(
        "  disabled  median {:>10} / round  ({disabled_pct:+.2}%)",
        fmt_duration(std::time::Duration::from_nanos(med_disabled))
    );
    println!(
        "  enabled   median {:>10} / round  ({enabled_pct:+.2}%)",
        fmt_duration(std::time::Duration::from_nanos(med_enabled))
    );
    println!(
        "  traced    median {:>10} / round  ({traced_pct:+.2}%)",
        fmt_duration(std::time::Duration::from_nanos(med_traced))
    );
    println!(
        "  evented   median {:>10} / round  ({evented_pct:+.2}%)",
        fmt_duration(std::time::Duration::from_nanos(med_evented))
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"segments\": {},\n",
            "  \"queries_per_round\": {},\n",
            "  \"rounds\": {},\n",
            "  \"median_round_ns\": {{\"baseline\": {}, \"disabled\": {}, \"enabled\": {}, \"traced\": {}, \"evented\": {}}},\n",
            "  \"overhead_pct\": {{\"disabled\": {:.3}, \"enabled\": {:.3}, \"traced\": {:.3}, \"evented\": {:.3}}},\n",
            "  \"limit_pct\": {},\n",
            "  \"metrics_recorded\": {},\n",
            "  \"span_events_recorded\": {},\n",
            "  \"query_events_recorded\": {},\n",
            "  \"pass\": {}\n",
            "}}\n"
        ),
        SEGMENTS,
        QUERIES,
        ROUNDS,
        med_base,
        med_disabled,
        med_enabled,
        med_traced,
        med_evented,
        disabled_pct,
        enabled_pct,
        traced_pct,
        evented_pct,
        LIMIT_PCT,
        registry.len(),
        traced.flight_recorder().dump().len(),
        evented
            .event_log()
            .map(|log| log.stats().pushed)
            .unwrap_or(0),
        pass
    );
    let mut path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    path.pop();
    path.pop();
    path.push("BENCH_obs.json");
    std::fs::File::create(&path)
        .and_then(|mut f| f.write_all(json.as_bytes()))
        .expect("cannot write BENCH_obs.json");
    println!("wrote {}", path.display());

    if !pass {
        eprintln!("FAIL: disabled-instrumentation overhead {disabled_pct:.2}% >= {LIMIT_PCT}%");
        std::process::exit(1);
    }
}
