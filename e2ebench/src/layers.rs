//! The traced run's per-layer readings.
//!
//! Three sources, all outside the program:
//!
//! * spans the benchmark recorded around its calls into public
//!   functions (client pipeline, codec, `ingest_batch`, `query`,
//!   `query_batch`, `quiesce`, `CloudServer::open`);
//! * a replay of a sample of the workload's queries through the query
//!   layers' public functions: `QueryPlan::compile`,
//!   `ShardedFovIndex::candidates_with_stats` on an index bulk-loaded
//!   from `export_records()`, and `rank_candidates`;
//! * for layers without a public entry point (delta scan, cold scan,
//!   the result cache, publish, the store), the program's own
//!   counters: `DurabilityStats` and the `Registry` that
//!   `attach_observability` fills.
//!
//! Every reading is reported under the benchmark's own name, so a
//! renamed internal counter cannot rename a benchmark metric.

use std::collections::BTreeMap;
use std::hint::black_box;

use swag_obs::labeled_name;
use swag_rtree::SearchStats;
use swag_server::ranking::rank_candidates;
use swag_server::{
    CloudServer, DurabilityStats, IndexKind, Query, QueryPlan, SegmentStore, ShardedFovIndex,
};

use crate::harness::{self, Ctx, RegSnap, Stage1};
use crate::span::{self, Span};
use crate::stats;

/// Queries replayed through the query layers' public functions.
const REPLAY_SAMPLE: usize = 2_000;

/// What the replay measured, per query on average.
#[derive(Debug, Default, Clone, Copy)]
pub struct Replay {
    pub queries: u64,
    pub compile_ns: f64,
    pub index_scan_us: f64,
    pub ranking_us: f64,
    pub shards_probed: f64,
    pub nodes_visited: f64,
    pub items_tested: f64,
    pub match_ratio: f64,
    pub hits_per_candidate: f64,
}

/// Replays a sample of `queries` layer by layer against the server's
/// exported records (snapshot and delta; cold records have no index).
pub fn replay(ctx: &mut Ctx, server: &CloudServer, queries: &[Query]) -> Replay {
    let phase = ctx.tracer.begin("phase.replay", 0);
    let records = ctx
        .tracer
        .wrap("export_records", 0, || server.export_records());
    let mut store = SegmentStore::new();
    let items: Vec<_> = records
        .iter()
        .map(|r| (r.rep, store.push(r.rep, r.source)))
        .collect();
    let mut index = ShardedFovIndex::new(server.config().shard_width_s, IndexKind::RTree);
    ctx.tracer
        .wrap("index.bulk_load", 0, || index.bulk_insert(&items));
    let cam = harness::camera();
    let opts = harness::options();
    let step = (queries.len() / REPLAY_SAMPLE).max(1);
    let mut out = Replay::default();
    let (mut compile, mut scan, mut rank) = (0u64, 0u64, 0u64);
    let mut search = SearchStats::default();
    let (mut candidates, mut hits, mut shards) = (0u64, 0u64, 0u64);
    for (i, q) in queries.iter().step_by(step).take(REPLAY_SAMPLE).enumerate() {
        let req = i as u64;
        let open = ctx.tracer.begin("replay.query", req);
        let t = std::time::Instant::now();
        let plan = ctx
            .tracer
            .wrap("plan.compile", req, || QueryPlan::compile(q, &opts));
        compile += t.elapsed().as_nanos() as u64;
        black_box(&plan);
        let t = std::time::Instant::now();
        let found = ctx.tracer.wrap("index.candidates", req, || {
            index.candidates_with_stats(q, &mut search)
        });
        scan += t.elapsed().as_nanos() as u64;
        let t = std::time::Instant::now();
        let ranked = ctx.tracer.wrap("ranking.rank", req, || {
            rank_candidates(&found, &store, &cam, q, &opts)
        });
        rank += t.elapsed().as_nanos() as u64;
        ctx.tracer.end(open);
        shards += index.probe_shard_count(q.t_start, q.t_end) as u64;
        candidates += found.len() as u64;
        hits += ranked.len() as u64;
        out.queries += 1;
    }
    ctx.tracer.end(phase);
    let n = out.queries.max(1) as f64;
    out.compile_ns = compile as f64 / n;
    out.index_scan_us = scan as f64 / n / 1e3;
    out.ranking_us = rank as f64 / n / 1e3;
    out.shards_probed = shards as f64 / n;
    out.nodes_visited = search.nodes_visited as f64 / n;
    out.items_tested = search.items_tested as f64 / n;
    out.match_ratio = ratio(search.items_matched as f64, search.items_tested as f64);
    out.hits_per_candidate = ratio(hits as f64, candidates as f64);
    out
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Readings the workload collected for the per-layer report.
pub struct Readings<'a> {
    pub stage1: &'a Stage1,
    pub upload_bytes: u64,
    pub uploads: u64,
    pub setup_before: &'a RegSnap,
    pub setup_after: &'a RegSnap,
    /// After the open loop and its `quiesce`.
    pub reg_open: &'a RegSnap,
    /// Just before and just after the closed loop.
    pub reg_batch_start: &'a RegSnap,
    pub reg_batch: &'a RegSnap,
    /// Whether the open loop uploaded; if not, the write phase is the
    /// last set-up's preload.
    pub writes_live: bool,
    pub gen_late: &'a [f64],
    pub durability: DurabilityStats,
    pub replay: Replay,
}

/// A reading over the query phases (open loop + closed loop).
struct QueryPhases<'a>(&'a Readings<'a>);

impl QueryPhases<'_> {
    fn count(&self, name: &str) -> f64 {
        let r = self.0;
        r.reg_open.count_since(r.setup_after, name)
            + r.reg_batch.count_since(r.reg_batch_start, name)
    }

    fn sum(&self, name: &str) -> f64 {
        let r = self.0;
        r.reg_open.sum_since(r.setup_after, name) + r.reg_batch.sum_since(r.reg_batch_start, name)
    }

    fn mean(&self, name: &str) -> f64 {
        ratio(self.sum(name), self.count(name))
    }
}

fn op(metric: &str, op: &str) -> String {
    labeled_name(metric, &[("op", op)])
}

/// Sum of span durations and of their counts for spans named `name`.
fn span_total(spans: &[Span], name: &str, keep: impl Fn(&Span) -> bool) -> (f64, f64) {
    spans
        .iter()
        .filter(|s| s.name == name && keep(s))
        .fold((0.0, 0.0), |(d, c), s| {
            (d + s.dur_ns() as f64, c + s.count as f64)
        })
}

/// Reports every per-layer metric and prints the self-time table.
pub fn report(ctx: &mut Ctx, r: &Readings) {
    let spans = ctx.tracer.spans().to_vec();
    let phase_ids = |name: &str| -> Vec<u64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.id)
            .collect()
    };
    let in_phase = |ids: &[u64]| -> std::collections::BTreeSet<u64> {
        ids.iter()
            .flat_map(|&id| span::subtree(&spans, id))
            .collect()
    };
    let setups = phase_ids("phase.setup");
    let last_setup = in_phase(&setups[setups.len().saturating_sub(1)..]);
    let open = in_phase(&phase_ids("phase.open"));
    let write_phase = if r.writes_live { &open } else { &last_setup };
    let (w_before, w_after) = if r.writes_live {
        (r.setup_after, r.reg_open)
    } else {
        (r.setup_before, r.setup_after)
    };
    let q = QueryPhases(r);

    println!("per-layer (traced run):");
    let rep = &mut ctx.report;
    // client
    let (push_ns, frames) = span_total(&spans, "client.push", |_| true);
    rep.layer("client.push_ns_per_frame", ratio(push_ns, frames), "ns");
    rep.layer(
        "client.frames_per_segment",
        ratio(r.stage1.frames as f64, r.stage1.segments as f64),
        "count",
    );
    // codec
    let (enc_ns, enc_segs) = span_total(&spans, "codec.encode", |_| true);
    rep.layer("codec.encode_ns_per_seg", ratio(enc_ns, enc_segs), "ns");
    let (dec_ns, dec_segs) = span_total(&spans, "codec.decode", |s| write_phase.contains(&s.id));
    rep.layer("codec.decode_ns_per_seg", ratio(dec_ns, dec_segs), "ns");
    let header = (r.uploads * swag_core::DescriptorCodec::HEADER_SIZE as u64) as f64;
    let records = (r.upload_bytes as f64 - header) / swag_core::DescriptorCodec::RECORD_SIZE as f64;
    rep.layer(
        "codec.bytes_per_seg",
        ratio(r.upload_bytes as f64, records),
        "B",
    );
    // engine.write
    let mut ingest_us: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "ingest_batch" && write_phase.contains(&s.id))
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect();
    ingest_us.sort_by(f64::total_cmp);
    rep.layer(
        "ingest.batch_us_p50",
        stats::percentile(&ingest_us, 50.0),
        "us",
    );
    rep.layer(
        "ingest.batch_us_p99",
        stats::percentile(&ingest_us, 99.0),
        "us",
    );
    rep.layer(
        "ingest.publishes",
        w_after.count_since(w_before, "swag_server_publishes_total"),
        "count",
    );
    rep.layer(
        "ingest.publish_rebuild_us",
        w_after.mean_since(w_before, "swag_server_snapshot_rebuild_micros"),
        "us",
    );
    // store
    let d = &r.durability;
    rep.layer(
        "store.wal_bytes_per_seg",
        ratio(d.wal_appended_bytes as f64, d.wal_records as f64),
        "B",
    );
    rep.layer(
        "store.wal_fsync_us",
        w_after.mean_since(w_before, "swag_store_wal_fsync_micros"),
        "us",
    );
    let snapshots = w_after.count_since(w_before, "swag_store_snapshots_total");
    rep.layer("store.snapshots", snapshots, "count");
    rep.layer(
        "store.snapshot_buckets_per_snapshot",
        ratio(
            w_after.count_since(w_before, "swag_store_snapshot_buckets_total"),
            snapshots,
        ),
        "count",
    );
    rep.layer(
        "store.snapshot_us",
        w_after.mean_since(w_before, "swag_store_snapshot_micros"),
        "us",
    );
    let quiesce_ms: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "quiesce" && setups.contains(&s.parent))
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect();
    rep.layer("store.quiesce_ms", stats::median(&quiesce_ms), "ms");
    let recovers = phase_ids("phase.recover");
    let recover_ms: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "open" && recovers.contains(&s.parent))
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect();
    rep.layer(
        "store.recover_ms",
        stats::fast_decile(&recover_ms, stats::Better::Lower),
        "ms",
    );
    rep.layer(
        "store.cold_demoted",
        w_after.count_since(w_before, "swag_store_cold_demoted_total"),
        "count",
    );
    rep.layer("store.cold_runs", d.cold_runs as f64, "count");
    // engine.plan
    rep.layer("plan.compile_ns", r.replay.compile_ns, "ns");
    // engine.cache
    let hits = q.count("swag_server_cache_hits_total");
    let misses = q.count("swag_server_cache_misses_total");
    rep.layer("cache.hit_ratio", ratio(hits, hits + misses), "ratio");
    rep.layer(
        "cache.evictions",
        q.count("swag_server_cache_evictions_total"),
        "count",
    );
    // shard / swag-rtree index scan, ranking (replay)
    let rp = &r.replay;
    rep.layer("index.shards_probed_per_query", rp.shards_probed, "count");
    rep.layer("index.nodes_visited_per_query", rp.nodes_visited, "count");
    rep.layer("index.items_tested_per_query", rp.items_tested, "count");
    rep.layer("index.match_ratio", rp.match_ratio, "ratio");
    rep.layer("op.index_scan_us", rp.index_scan_us, "us");
    // delta_scan, cold_scan (program counters)
    rep.layer(
        "op.delta_scan_us",
        q.mean(&op("swag_server_op_micros", "delta_scan")),
        "us",
    );
    rep.layer(
        "delta.rows_per_query",
        q.mean(&op("swag_server_op_rows_in", "delta_scan")),
        "count",
    );
    rep.layer(
        "op.cold_scan_us",
        q.mean(&op("swag_server_op_micros", "cold_scan")),
        "us",
    );
    rep.layer(
        "cold.rows_per_query",
        q.mean(&op("swag_server_op_rows_in", "cold_scan")),
        "count",
    );
    // ranking
    rep.layer("op.ranking_us", rp.ranking_us, "us");
    rep.layer("ranking.hits_per_candidate", rp.hits_per_candidate, "ratio");
    // the load generator
    let mut late = r.gen_late.to_vec();
    late.sort_by(f64::total_cmp);
    rep.layer("gen.late_p99_us", stats::percentile(&late, 99.0), "us");

    self_time_table(&spans, r);
}

/// Self time of phase spans: the generator waiting for due times.
const IDLE: &str = "idle";

/// Which layer a span's self time belongs to.
fn layer_of(name: &str) -> &'static str {
    match name {
        "client.push" | "client.finish" | "client.session" => "client",
        "codec.encode" | "codec.decode" => "codec",
        "ingest_batch" => "engine.write (+store WAL)",
        "quiesce" => "store (quiesce)",
        "open" => "store (open/recovery)",
        "plan.compile" => "engine.plan",
        "index.candidates" | "index.bulk_load" => "index scan (replay)",
        "ranking.rank" => "ranking (replay)",
        "upload" | "replay.query" | "export_records" => "benchmark glue",
        n if n.starts_with("phase.") => IDLE,
        _ => "other",
    }
}

/// Prints, per phase, the self time of each layer and its share (thread
/// time, summed over the threads that ran the phase). The
/// self time of `query`/`query_batch` spans is split over the engine's
/// operators by the per-operator time counters of the same phase
/// (index scan, delta scan, cold scan, ranking; the rest is plan,
/// cache and epoch handling).
fn self_time_table(spans: &[Span], r: &Readings) {
    let own = span::self_time_by_span(spans);
    let phases = [
        ("stage1", "phase.stage1", None),
        ("setup (last)", "phase.setup", None),
        ("open loop", "phase.open", Some((r.setup_after, r.reg_open))),
        (
            "closed loop",
            "phase.batch",
            Some((r.reg_batch_start, r.reg_batch)),
        ),
        ("replay", "phase.replay", None),
        ("recovery", "phase.recover", None),
    ];
    println!("self time by layer (traced run):");
    for (label, phase_name, ops) in phases {
        let roots: Vec<u64> = spans
            .iter()
            .filter(|s| s.name == phase_name)
            .map(|s| s.id)
            .collect();
        let Some(&root) = roots.last() else { continue };
        let ids = span::subtree(spans, root);
        let mut by_layer: BTreeMap<String, f64> = BTreeMap::new();
        let mut query_self = 0.0;
        for s in spans.iter().filter(|s| ids.contains(&s.id)) {
            let t = own[&s.id] as f64 / 1e6;
            if s.name == "query" {
                query_self += t;
            } else if s.name == "query_batch" {
                query_self += t;
            } else {
                *by_layer.entry(layer_of(s.name).to_string()).or_default() += t;
            }
        }
        if query_self > 0.0 {
            // Operator times are summed over threads; should they exceed
            // the thread time the spans account for, they are scaled down
            // to it.
            const OPS: [&str; 4] = ["index_scan", "delta_scan", "cold_scan", "ranking"];
            let op_ms: Vec<f64> = match ops {
                Some((before, after)) => OPS
                    .iter()
                    .map(|o| after.sum_since(before, &op("swag_server_op_micros", o)) / 1e3)
                    .collect(),
                None => vec![0.0; OPS.len()],
            };
            let op_total: f64 = op_ms.iter().sum();
            let scale = if op_total > query_self {
                query_self / op_total
            } else {
                1.0
            };
            for (name, ms) in OPS.iter().zip(&op_ms) {
                *by_layer.entry(format!("engine.{name}")).or_default() += ms * scale;
            }
            *by_layer
                .entry("engine.query rest (plan, cache, epoch)".into())
                .or_default() += query_self - op_total * scale;
        }
        let idle = by_layer.remove(IDLE).unwrap_or(0.0);
        let total: f64 = by_layer.values().sum();
        let mut rows: Vec<_> = by_layer.into_iter().filter(|(_, ms)| *ms > 0.0).collect();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        println!("  {label}: {total:.1} ms of layer self time, all threads ({idle:.1} ms idle or generator, excluded):");
        for (layer, ms) in rows.iter().take(8) {
            println!(
                "    {layer:<42} {ms:>10.1} ms {:>6.1} %",
                100.0 * ms / total.max(1e-9)
            );
        }
    }
}
