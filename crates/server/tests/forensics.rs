//! Query forensics: EXPLAIN ANALYZE equivalence, wide-event capture and
//! tail sampling, JSON round-trips, and replay digest stability.
//!
//! The load-bearing guarantee is **byte-identity**: the pipeline on its
//! measuring probe (analyzed, registry-observed and evented queries)
//! must return exactly what the plain path returns, hit for hit, field
//! for field — otherwise a forensic record describes an execution that
//! never happened.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use swag_core::{CameraProfile, Fov, RepFov, UploadBatch};
use swag_geo::LatLon;
use swag_obs::{labeled_name, MonotonicClock, Registry};
use swag_server::{
    result_digest, AdmissionConfig, CacheConfig, CacheOutcome, CloudServer, EventLogConfig, Query,
    QueryEvent, QueryOptions, QueryOutcome, RankMode, SearchHit, ServerConfig, QUERY_EVENT_WORDS,
};

/// Deterministic clock: every read advances by one microsecond.
struct SteppingClock(AtomicU64);

impl MonotonicClock for SteppingClock {
    fn now_micros(&self) -> u64 {
        self.0.fetch_add(1, Ordering::Relaxed)
    }
}

fn base() -> LatLon {
    LatLon::new(40.0, 116.32)
}

/// Tiny deterministic generator (SplitMix64), same idiom as the engine
/// equivalence suite.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn f64(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + unit * (hi - lo)
    }
}

fn workload(seed: u64, n: usize) -> Vec<RepFov> {
    let mut rng = Rng(seed);
    (0..n)
        .map(|_| {
            let dx = rng.f64(-400.0, 400.0);
            let dy = rng.f64(-400.0, 400.0);
            let theta = rng.f64(0.0, 360.0);
            let t0 = rng.f64(0.0, 1_000.0);
            let dur = rng.f64(1.0, 40.0);
            RepFov::new(
                t0,
                t0 + dur,
                Fov::new(base().offset_by(swag_geo::Vec2::new(dx, dy)), theta),
            )
        })
        .collect()
}

fn server_with(config: ServerConfig, seed: u64, n: usize) -> CloudServer {
    let server = CloudServer::with_config(CameraProfile::smartphone(), config);
    server.ingest_batch(&UploadBatch {
        provider_id: 1,
        video_id: 0,
        reps: workload(seed, n),
    });
    server
}

/// A durable server on `dir` whose first shard bucket (t < 600 s) was
/// demoted to a cold run, with a second upload left in the staged delta:
/// every query then runs all four operators.
fn cold_server(dir: &std::path::Path, seed: u64, n: usize) -> CloudServer {
    let server = CloudServer::open(dir, CameraProfile::smartphone(), ServerConfig::default())
        .expect("open data dir");
    let upload = |provider_id, reps| {
        server.ingest_batch(&UploadBatch {
            provider_id,
            video_id: 0,
            reps,
        })
    };
    upload(1, workload(seed, n));
    assert!(server.expire_before(600.0) > 0, "bucket 0 demoted");
    upload(2, workload(seed + 1, 40));
    assert!(server.durability_stats().expect("durable").cold_runs > 0);
    server
}

/// The per-operator rows and hit-split totals in `reg`: what one query
/// adds to them is that query's record.
fn op_totals(reg: &Registry) -> Vec<u64> {
    let mut totals = Vec::new();
    for op in ["index_scan", "delta_scan", "cold_scan", "ranking"] {
        for family in ["swag_server_op_rows_in", "swag_server_op_rows_out"] {
            let name = labeled_name(family, &[("op", op)]);
            totals.push(reg.histogram(&name).snapshot().sum);
        }
    }
    for src in ["index", "delta", "cold"] {
        let name = labeled_name("swag_server_hits_total", &[("src", src)]);
        totals.push(reg.counter(&name).get());
    }
    totals
}

fn probes(seed: u64, n: usize) -> Vec<(Query, QueryOptions)> {
    let mut rng = Rng(seed ^ 0xdead_beef);
    (0..n)
        .map(|i| {
            let t0 = rng.f64(0.0, 900.0);
            let q = Query::new(
                t0,
                t0 + rng.f64(5.0, 120.0),
                base().offset_by(swag_geo::Vec2::new(
                    rng.f64(-300.0, 300.0),
                    rng.f64(-300.0, 300.0),
                )),
                rng.f64(100.0, 500.0),
            );
            let opts = QueryOptions {
                top_n: 1 + (i % 7),
                direction_filter: i % 3 != 0,
                require_coverage: i % 5 == 0,
                rank: if i % 2 == 0 {
                    RankMode::Distance
                } else {
                    RankMode::Quality
                },
                ..QueryOptions::default()
            };
            (q, opts)
        })
        .collect()
}

fn assert_same_hits(a: &[SearchHit], b: &[SearchHit], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: hit counts differ");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x, y, "{what}: hits differ");
    }
    assert_eq!(
        result_digest(a),
        result_digest(b),
        "{what}: digests differ despite equal hits"
    );
}

/// EXPLAIN ANALYZE must return byte-identical results to the plain
/// query path, across filter/rank variations — with the cache off, on a
/// memory-only server and on one whose queries also reach a cold run.
/// Every operator's rows add up, and the metrics a registry-observed
/// plain query writes are exactly the analyzed event's fields.
#[test]
fn analyzed_execution_matches_normal_execution() {
    let dir = std::env::temp_dir().join(format!("swag-forensics-cold-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let servers = [
        server_with(ServerConfig::default(), 11, 300),
        cold_server(&dir, 11, 300),
    ];
    for (i, mut server) in servers.into_iter().enumerate() {
        let probes = probes(11, 24);
        let (mut delta_hits, mut cold_hits) = (0, 0);
        // Unobserved first: the plain path runs the no-op probe.
        let plain: Vec<Vec<SearchHit>> = probes.iter().map(|(q, o)| server.query(q, o)).collect();
        let reg = Registry::new();
        server.attach_observability(&reg);
        for ((q, opts), plain) in probes.iter().zip(&plain) {
            let before = op_totals(&reg);
            let observed = server.query(q, opts);
            let after = op_totals(&reg);
            assert_same_hits(plain, &observed, "observed-vs-plain");
            let analyzed = server.query_analyzed(7, q, opts);
            assert_same_hits(plain, &analyzed.hits, "analyze-vs-plain");
            let ev = analyzed.report.event;
            assert_eq!(ev.outcome, QueryOutcome::Served);
            assert_eq!(ev.cache, CacheOutcome::Off);
            assert_eq!(ev.hit_count, plain.len() as u64);
            assert_eq!(ev.digest, result_digest(plain));
            // Every operator annotated: rows flow through the pipeline.
            assert_eq!(ev.index_rows_out, ev.hits_index);
            assert_eq!(ev.delta_rows_out, ev.hits_delta);
            assert_eq!(
                ev.rank_rows_in,
                ev.index_rows_out + ev.delta_rows_out + ev.cold_rows_out
            );
            assert_eq!(ev.rank_rows_out, ev.hit_count);
            // The hit split counts filter survivors *before* top-N
            // truncation: at least everything ranked out, at most rows in.
            let split = ev.hits_index + ev.hits_delta + ev.cold_rows_out;
            assert!(split >= ev.rank_rows_out && split <= ev.rank_rows_in);
            let written: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
            assert_eq!(
                written,
                [
                    ev.index_rows_in,
                    ev.index_rows_out,
                    ev.delta_rows_in,
                    ev.delta_rows_out,
                    ev.cold_rows_in,
                    ev.cold_rows_out,
                    ev.rank_rows_in,
                    ev.rank_rows_out,
                    ev.hits_index,
                    ev.hits_delta,
                    ev.cold_rows_out,
                ],
                "op_* metrics of a plain query vs the analyzed event"
            );
            let text = analyzed.report.render();
            for needle in ["index_scan", "delta_scan", "ranking", "digest", "fanout"] {
                assert!(text.contains(needle), "analyze render missing {needle}");
            }
            delta_hits += ev.hits_delta;
            cold_hits += ev.cold_rows_out;
        }
        if i == 1 {
            assert!(
                delta_hits > 0 && cold_hits > 0,
                "cold input reaches every operator"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Only client requests reach the event log: a k-nearest search's
/// expansion rings and a batch's queries are measured for the metrics
/// but emit no event.
#[test]
fn internal_plans_stay_out_of_the_event_log() {
    let mut server = server_with(
        ServerConfig {
            events: EventLogConfig::enabled(0, 5),
            ..ServerConfig::default()
        },
        19,
        200,
    );
    let reg = Registry::new();
    server.attach_observability(&reg);
    let (q, opts) = probes(19, 1).remove(0);
    server.query_nearest(q.t_start, q.t_end, q.center, 3, &opts, 2_000.0);
    server.query_batch(&[q, q], &opts, 1);
    let log = server.event_log().expect("events enabled in config");
    assert_eq!(log.stats().pushed, 0);
    let ranked = labeled_name("swag_server_op_micros", &[("op", "ranking")]);
    assert!(reg.histogram(&ranked).snapshot().count >= 3);
    server.query(&q, &opts);
    assert_eq!(log.stats().pushed, 1);
}

/// With the result cache enabled, a repeated analyzed query is served
/// from the cache (annotated as a hit) and still byte-identical.
#[test]
fn analyzed_execution_reports_cache_decisions() {
    let server = server_with(
        ServerConfig {
            cache: CacheConfig::enabled(64),
            ..ServerConfig::default()
        },
        13,
        300,
    );
    let (q, opts) = probes(13, 1).remove(0);
    let first = server.query_analyzed(7, &q, &opts);
    assert_eq!(first.report.event.cache, CacheOutcome::Miss);
    let second = server.query_analyzed(7, &q, &opts);
    assert_eq!(second.report.event.cache, CacheOutcome::Hit);
    assert_same_hits(&first.hits, &second.hits, "cache-hit analyze");
    assert_eq!(first.report.event.digest, second.report.event.digest);
    assert!(second
        .report
        .render()
        .contains("served from the result cache"));
}

/// The events-enabled query path (measuring probe) must return
/// byte-identical results to an events-disabled twin.
#[test]
fn evented_queries_match_uneventful_twin() {
    let plain = server_with(ServerConfig::default(), 17, 300);
    let evented = server_with(
        ServerConfig {
            events: EventLogConfig::enabled(0, 17),
            ..ServerConfig::default()
        },
        17,
        300,
    );
    for (q, opts) in probes(17, 24) {
        assert_same_hits(
            &plain.query(&q, &opts),
            &evented.query(&q, &opts),
            "evented-vs-plain",
        );
    }
    let log = evented.event_log().expect("events enabled in config");
    let stats = log.stats();
    assert_eq!(stats.pushed, 24, "one wide event per query");
}

/// Kept events carry the full request bit-exactly: re-running the
/// reconstructed query yields the recorded digest (replay semantics).
#[test]
fn kept_events_replay_to_the_same_digest() {
    let server = server_with(
        ServerConfig {
            events: EventLogConfig {
                enabled: true,
                keep_per_mille: 1_000,
                ..EventLogConfig::default()
            },
            ..ServerConfig::default()
        },
        19,
        300,
    );
    for (q, opts) in probes(19, 16) {
        server.query(&q, &opts);
    }
    let kept = server.event_log().expect("events enabled in config").kept();
    assert_eq!(kept.len(), 16, "keep_per_mille 1000 keeps everything");
    for ev in kept {
        let replayed = server.query_analyzed(7, &ev.query(), &ev.options());
        assert_eq!(
            result_digest(&replayed.hits),
            ev.digest,
            "replaying a captured event against unchanged state must reproduce its digest"
        );
        // Round-trip through the JSONL wire format, bit-exact.
        let parsed = QueryEvent::from_json(&ev.to_json()).expect("own JSON must parse");
        assert_eq!(parsed.encode(), ev.encode(), "JSON round-trip drifted");
    }
}

/// Shed queries always produce kept events (class Always overrides a
/// zero sampling rate), annotated with the reason and token balance.
#[test]
fn shed_queries_are_always_kept() {
    let server = CloudServer::with_config_and_clock(
        CameraProfile::smartphone(),
        ServerConfig {
            admission: AdmissionConfig {
                enabled: true,
                rate_per_s: 1.0,
                burst: 2.0,
                ..AdmissionConfig::default()
            },
            // keep_per_mille 0: ordinary events are never sampled in, so
            // every kept event below must be a shed.
            events: EventLogConfig {
                enabled: true,
                keep_per_mille: 0,
                ..EventLogConfig::default()
            },
            ..ServerConfig::default()
        },
        Arc::new(SteppingClock(AtomicU64::new(0))),
    );
    server.ingest_batch(&UploadBatch {
        provider_id: 1,
        video_id: 0,
        reps: workload(23, 100),
    });
    let (q, opts) = probes(23, 1).remove(0);
    let mut sheds = 0;
    for _ in 0..10 {
        if server.query_admitted(42, &q, &opts).is_err() {
            sheds += 1;
        }
    }
    assert_eq!(sheds, 8, "burst of 2 admits twice, then rate-limits");
    let kept = server.event_log().expect("events enabled in config").kept();
    assert_eq!(kept.len(), sheds, "every shed kept, nothing else");
    for ev in &kept {
        assert!(matches!(ev.outcome, QueryOutcome::Shed(_)));
        assert!(
            ev.tokens_remaining.expect("admission was consulted") < 1.0,
            "shed event must record the empty bucket"
        );
        assert_eq!(ev.digest, 0, "no result to digest");
    }
    // Admitted queries under keep_per_mille 0 still *record* (ring) but
    // are not retained.
    let stats = server
        .event_log()
        .expect("events enabled in config")
        .stats();
    assert_eq!(stats.pushed, 10);
    assert_eq!(stats.kept, sheds as u64);
    // A shed under EXPLAIN ANALYZE renders the very event it kept: on a
    // clock that moves with every read, one build or the other would
    // disagree on the completion time and token balance.
    let analyzed = server.query_analyzed(42, &q, &opts);
    let kept = server.event_log().expect("events enabled in config").kept();
    assert_eq!(kept.len(), sheds + 1);
    let logged = kept.last().expect("shed kept");
    assert!(matches!(
        analyzed.report.event.outcome,
        QueryOutcome::Shed(_)
    ));
    assert_eq!(logged.end_micros, analyzed.report.event.end_micros);
    assert_eq!(logged.encode(), analyzed.report.event.encode());
}

/// A slow-over-threshold query is always kept even at sampling rate 0.
#[test]
fn slow_queries_are_always_kept() {
    let server = server_with(
        ServerConfig {
            events: EventLogConfig {
                enabled: true,
                keep_per_mille: 0,
                slow_micros: 1, // every real query takes >= 1 us
                ..EventLogConfig::default()
            },
            ..ServerConfig::default()
        },
        29,
        300,
    );
    let (q, opts) = probes(29, 1).remove(0);
    server.query(&q, &opts);
    let kept = server.event_log().expect("events enabled in config").kept();
    assert_eq!(kept.len(), 1, "over-SLO query kept at sampling rate 0");
    assert!(kept[0].total_micros >= 1);
}

/// The encoded word layout is stable and self-describing: encode/decode
/// round-trips every field bit-exactly, including negative-zero floats
/// and the discriminants; v1 captures (32 words) still decode, and any
/// other width is rejected.
#[test]
fn event_words_round_trip() {
    let server = server_with(
        ServerConfig {
            events: EventLogConfig::enabled(0, 31),
            admission: AdmissionConfig {
                enabled: true,
                ..AdmissionConfig::default()
            },
            cache: CacheConfig::enabled(16),
            ..ServerConfig::default()
        },
        31,
        200,
    );
    let (q, opts) = probes(31, 1).remove(0);
    let analyzed = server.query_analyzed(3, &q, &opts);
    let mut ev = analyzed.report.event;
    // Distinct v2 words, so a dropped or transposed word shows.
    (ev.cold_micros, ev.cold_rows_in, ev.cold_rows_out) = (32, 33, 34);
    (ev.index_nodes_visited, ev.index_leaves_scanned) = (35, 36);
    ev.cold_scanned = true;
    let words = ev.encode();
    assert_eq!(words.len(), QUERY_EVENT_WORDS);
    let back = QueryEvent::decode(&words).expect("own encoding must decode");
    assert_eq!(back.encode(), words, "decode(encode(ev)) drifted");
    assert_eq!(back.query(), q, "query reconstruction must be bit-exact");
    assert_eq!(back.options().top_n, opts.top_n);
    assert_eq!(back.options().rank, opts.rank);
    assert!(back.tokens_remaining.is_some(), "admission was consulted");
    let line = ev.to_json();
    assert!(line.starts_with("{\"v\":2,"), "{line}");
    let parsed = QueryEvent::from_json(&line).expect("own JSON must parse");
    assert_eq!(parsed.encode(), words, "JSON round-trip drifted");

    // A frozen v1 capture line decodes word for word, the v2 words
    // (cold scan, index traversal) reading zero.
    let v1 = concat!(
        "{\"v\":1,\"words\":[11400714819323198485,385,4632233691727265792,",
        "4633641066610819072,4630826316843712512,4637885709259615764,",
        "4643985272004935680,5,4629137466983448576,3,4,6,1,12,4661225614328463360,",
        "1,4616189618054758400,7,12,4,8,6,2,9,6,5,3,2,21,5,81985529216486895,1234],",
        "\"fingerprint\":\"0x9e3779b97f4a7c15\",\"outcome\":\"served\",\"cache\":\"miss\",",
        "\"latency_us\":21,\"hits\":5,\"digest\":\"0x0123456789abcdef\"}"
    );
    let v1_words: Vec<u64> = v1[v1.find('[').unwrap() + 1..v1.find(']').unwrap()]
        .split(',')
        .map(|w| w.parse().unwrap())
        .collect();
    let old = QueryEvent::from_json(v1).expect("v1 capture must still decode");
    assert_eq!(old.encode()[..32], v1_words[..]);
    assert_eq!(old.encode()[32..], [0; 5]);
    assert!(!old.cold_scanned);
    let center = LatLon::new(40.0, 116.32);
    assert_eq!(old.query(), Query::new(50.0, 60.0, center, 300.0));
    assert_eq!(
        (old.cache, old.tokens_remaining),
        (CacheOutcome::Miss, Some(4.0))
    );
    // Any other width is rejected, not mangled.
    for width in [0, 31, 33, QUERY_EVENT_WORDS - 1, QUERY_EVENT_WORDS + 1] {
        assert!(
            QueryEvent::decode(&vec![0; width]).is_none(),
            "width {width}"
        );
    }
}
