//! The three workloads. They share one server configuration
//! ([`crate::harness::server_config`]) and one skeleton ([`run`]); they
//! differ only in their inputs: history length, how often queries
//! repeat, and whether writes run beside the reads.
//!
//! | workload       | inputs                                  | stresses                          |
//! |----------------|-----------------------------------------|-----------------------------------|
//! | `fleet_live`   | one day of a sensor fleet, live uploads | client, WAL, delta scan, cache    |
//! | `city_uniform` | ~250k citywide segments, distinct reads | index scan, ranking               |
//! | `history_cold` | 30 days, ¾ demoted to cold runs         | cold scan, demotion, snapshots    |

use std::time::Duration;

use swag_server::Query;

use crate::gen::{self, wire::Wire, Session, DAY_S};
use crate::harness::{self, Ctx};
use crate::layers;
use crate::openloop;
use crate::report::{self, J};
use crate::stats;

/// Workload names, as `--workload` takes them.
pub const NAMES: [&str; 3] = ["fleet_live", "city_uniform", "history_cold"];

/// Share of `--seconds` for stage 1's first slice, the open loop, and
/// the closed section, where [`CLOSED_SLICES`] more stage-1 slices
/// alternate with as many closed-loop `query_batch` slices.
const SHARES: [f64; 3] = [0.05, 0.55, 0.4];

/// Slices of the closed section, and the stage-1 share of each. Host
/// speed drifts over seconds; alternating the two closed loops samples
/// each over the whole section instead of one stretch of it.
const CLOSED_SLICES: u32 = 8;
const CLOSED_CLIENT_SHARE: f64 = 0.35;

/// Incidents in `fleet_live`'s investigator pool: enough that first
/// sightings and invalidations still send part of the traffic through
/// the delta and index scans.
const INCIDENTS: usize = 2_048;

/// Half-extent of the fleet's area, metres.
const FLEET_EXTENT_M: f64 = 3_000.0;

/// Everything a workload feeds the program, generated before timing.
struct Plan {
    /// Provider sessions for stage 1.
    fleet: Vec<Session>,
    /// How many of the fleet's uploads (in end-time order) join the
    /// preload; the rest are uploaded live in the open loop.
    fleet_preloaded: usize,
    /// Uploads preloaded before the fleet's.
    preload: Vec<Wire>,
    /// Uploads sent live after the fleet's.
    live: Vec<Wire>,
    upload_rate: f64,
    /// Open-loop queries (the first `open_queries` are sent), cycled by
    /// the closed loop.
    queries: Vec<Query>,
    open_queries: usize,
    query_rate: f64,
    inputs: Vec<(&'static str, J)>,
}

/// Length of the windows latency p50s are taken over: long enough for a
/// mix of queries, short enough to tell the host's fast periods from
/// its slow ones.
const P50_WINDOW_S: f64 = 0.1;

/// Requests per latency window at `rate` requests per second.
fn window_n(rate: f64) -> usize {
    ((rate * P50_WINDOW_S) as usize).max(10)
}

fn phases(seconds: f64) -> [Duration; 3] {
    SHARES.map(|s| Duration::from_secs_f64(seconds * s))
}

/// Distinct queries generated for read-mostly workloads: far more than
/// the cache holds, so cycling them in the closed loop never hits.
fn distinct_queries(open: usize) -> usize {
    open.max(40 * harness::CACHE_CAPACITY)
}

fn fleet_live(ctx: &Ctx) -> Plan {
    let [_, open, _] = phases(ctx.seconds);
    let (query_rate, upload_rate) = (2_000.0, 150.0);
    let live = openloop::count(upload_rate, open);
    let preloaded = if ctx.smoke { 60 } else { 1_500 };
    let fleet = gen::fleet(ctx.seed, preloaded + live, FLEET_EXTENT_M, 0.0);
    let pool = gen::incidents(
        ctx.seed,
        &fleet[..preloaded],
        &fleet[preloaded..],
        INCIDENTS,
    );
    let open_queries = openloop::count(query_rate, open);
    let queries = gen::zipf_sequence(ctx.seed, &pool, open_queries, 1.0);
    Plan {
        inputs: vec![
            ("sessions", J::Int(fleet.len() as u64)),
            ("incidents", J::Int(pool.len() as u64)),
            ("zipf_s", J::Num(1.0)),
        ],
        fleet,
        fleet_preloaded: preloaded,
        preload: Vec::new(),
        live: Vec::new(),
        upload_rate,
        queries,
        open_queries,
        query_rate,
    }
}

/// The small fleet read-mostly workloads still run through stage 1, so
/// every workload reports the client's throughput; its uploads join the
/// preload.
fn side_fleet(ctx: &Ctx, day_start_s: f64) -> Vec<Session> {
    gen::fleet(
        ctx.seed,
        if ctx.smoke { 20 } else { 500 },
        FLEET_EXTENT_M,
        day_start_s,
    )
}

fn city_uniform(ctx: &Ctx) -> Plan {
    let [_, open, _] = phases(ctx.seconds);
    let query_rate = 10_000.0;
    let records = if ctx.smoke { 5_000 } else { 250_000 };
    let day = gen::citywide_day(ctx.seed, records, 0.0, 1 << 32);
    let corpus: Vec<_> = day.iter().flat_map(|b| b.reps.iter().copied()).collect();
    let open_queries = openloop::count(query_rate, open);
    let queries = gen::query_mix(
        ctx.seed,
        &corpus,
        distinct_queries(open_queries),
        0.9,
        0.0,
        DAY_S,
    );
    let fleet = side_fleet(ctx, 0.0);
    Plan {
        inputs: vec![
            ("citywide_records", J::Int(records as u64)),
            ("sessions", J::Int(fleet.len() as u64)),
            ("distinct_queries", J::Int(queries.len() as u64)),
            ("targeted_share", J::Num(0.9)),
        ],
        fleet_preloaded: fleet.len(),
        fleet,
        preload: gen::encode_all(&day),
        live: Vec::new(),
        upload_rate: 0.0,
        queries,
        open_queries,
        query_rate,
    }
}

fn history_cold(ctx: &Ctx) -> Plan {
    let [_, open, _] = phases(ctx.seconds);
    let (query_rate, upload_rate) = (150.0, 150.0);
    let per_day = if ctx.smoke { 300 } else { 8_000 };
    let mut preload = Vec::new();
    let mut corpus = Vec::new();
    for d in 0..29u64 {
        let day = gen::citywide_day(ctx.seed + d, per_day, d as f64 * DAY_S, d << 32);
        corpus.extend(day.iter().flat_map(|b| b.reps.iter().copied()));
        preload.extend(gen::encode_all(&day));
    }
    let live_n = openloop::count(upload_rate, open);
    let last = gen::citywide_day(
        ctx.seed + 29,
        per_day.max(live_n * gen::CITY_BATCH),
        29.0 * DAY_S,
        29 << 32,
    );
    let open_queries = openloop::count(query_rate, open);
    let queries = gen::query_mix(
        ctx.seed,
        &corpus,
        distinct_queries(open_queries),
        0.9,
        0.0,
        29.0 * DAY_S,
    );
    let fleet = side_fleet(ctx, 28.0 * DAY_S);
    Plan {
        inputs: vec![
            ("days", J::Int(30)),
            ("records_per_day", J::Int(per_day as u64)),
            ("preload_records", J::Int(corpus.len() as u64)),
            ("sessions", J::Int(fleet.len() as u64)),
            ("distinct_queries", J::Int(queries.len() as u64)),
        ],
        fleet_preloaded: fleet.len(),
        fleet,
        preload,
        live: gen::encode_all(&last[..live_n]),
        upload_rate,
        queries,
        open_queries,
        query_rate,
    }
}

/// Runs workload `name`. Unknown names are rejected by the caller.
pub fn run_named(ctx: &mut Ctx, name: &str) {
    let plan = match name {
        "fleet_live" => fleet_live(ctx),
        "city_uniform" => city_uniform(ctx),
        "history_cold" => history_cold(ctx),
        other => unreachable!("unknown workload {other}"),
    };
    run(ctx, plan);
}

/// The shared skeleton: stage 1 → set-up → open loop (+ live uploads) →
/// reference check → closed loops (stage 1 and `query_batch`,
/// alternating) → reference check → recovery → reference check.
fn run(ctx: &mut Ctx, plan: Plan) {
    let [t_stage1, t_open, t_closed] = phases(ctx.seconds);
    let t_client = t_closed.mul_f64(CLOSED_CLIENT_SHARE) / CLOSED_SLICES;
    let t_batch = t_closed.mul_f64(1.0 - CLOSED_CLIENT_SHARE) / CLOSED_SLICES;
    let rates = J::obj(vec![
        ("query_hz", J::Num(plan.query_rate)),
        ("upload_hz", J::Num(plan.upload_rate)),
    ]);
    ctx.report.meta("rates", rates);
    let frames: usize = plan.fleet.iter().map(|s| s.frames.len()).sum();
    let mut inputs = plan.inputs.clone();
    inputs.push(("fleet_frames", J::Int(frames as u64)));
    inputs.push(("open_queries", J::Int(plan.open_queries as u64)));
    ctx.report.meta(
        "inputs",
        J::Obj(
            inputs
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        ),
    );

    // Stage 1: the provider side.
    let mut s1 = harness::Stage1::default();
    s1.run(ctx, &plan.fleet, t_stage1);
    let mut preload = plan.preload;
    preload.extend_from_slice(&s1.wires[..plan.fleet_preloaded]);
    let mut live = s1.wires[plan.fleet_preloaded..].to_vec();
    live.extend(plan.live);
    let upload_bytes: u64 = preload.iter().chain(&live).map(|w| w.len() as u64).sum();

    // Set-up, and the reference fed the same uploads.
    let (server, mut setup) = harness::setup(ctx, &preload);
    let reference = harness::Reference::new();
    reference.feed(&preload);

    // The open loop.
    let open_queries = &plan.queries[..plan.open_queries];
    let open = harness::open_phase(
        ctx,
        &server,
        open_queries,
        plan.query_rate,
        &live,
        plan.upload_rate,
        t_open,
    );
    ctx.tracer.wrap("quiesce", 0, || server.quiesce());
    let reg_open = ctx.reg();
    reference.feed(&live);
    let sample = harness::check_sample(open_queries);
    let opts = harness::options();
    harness::check(
        ctx,
        "after_open",
        &reference,
        sample.iter().map(|q| (*q, server.query(q, &opts))),
    );

    // The closed section. Stage 1 does not touch the server, so the
    // registry readings around it cover only the `query_batch` slices.
    let reg_batch_start = ctx.reg();
    let mut batch = harness::Batch::default();
    for _ in 0..CLOSED_SLICES {
        s1.run(ctx, &plan.fleet, t_client);
        batch.run(ctx, &server, &plan.queries, t_batch);
    }
    let reg_batch = ctx.reg();
    let batch_n = batch.total;
    harness::check(
        ctx,
        "batch",
        &reference,
        std::mem::take(&mut batch.first).into_iter(),
    );

    // On-disk footprint after quiesce.
    let disk = harness::dir_bytes(&setup.dir);
    let held = harness::segments_held(&server);
    let durability = server.durability_stats().expect("durable server");
    let traced = ctx
        .traced()
        .then(|| layers::replay(ctx, &server, &plan.queries));
    drop(server);

    // Recovery.
    let (recovered, recover_times) = harness::recover(ctx, &setup.dir);
    harness::check(
        ctx,
        "recovered",
        &reference,
        sample.iter().map(|q| (*q, recovered.query(q, &opts))),
    );
    // A state reading, not an answer: reported as a finding. Answers
    // are judged by the reference checks above.
    let recovered_held = harness::segments_held(&recovered);
    ctx.report.meta(
        "findings.recovery_extra_segments",
        J::Int(recovered_held.saturating_sub(held)),
    );
    if recovered_held != held {
        println!(
            "FINDING: the recovered server holds {recovered_held} segments (live + cold), \
             the writer held {held}: segments the writer had demoted to cold runs at the \
             retention horizon are live again after recovery, beside their cold copies"
        );
    }
    drop(recovered);

    // The peak so far is the workload's: the set-up repetitions below
    // run after it on fresh directories.
    let peak_rss_mb = harness::peak_rss_mb();
    if !ctx.traced() {
        setup.repeat(ctx, &preload);
    }

    // End-to-end metrics. Latency p50s are medians of windows of about
    // `P50_WINDOW_S` each, read at the fast decile (see
    // `stats::windowed_p50`); the tails are medians over windows of at
    // least 1000 requests (see `stats::summarize`).
    let writes_live = !live.is_empty();
    let (upload_us, upload_source, upload_hz) = if writes_live {
        (&open.uploads.latency_us, "open loop", plan.upload_rate)
    } else {
        let busy_s = setup.upload_us.iter().sum::<f64>() / 1e6;
        let hz = setup.upload_us.len() as f64 / busy_s.max(1e-9);
        (&setup.upload_us, "preload, closed loop", hz)
    };
    let qs = stats::summarize(&open.queries.latency_us, 1_000, 50);
    let us = stats::summarize(upload_us, 1_000, 50);
    let (query_p50, query_windows) =
        stats::windowed_p50(&open.queries.latency_us, window_n(plan.query_rate));
    let (upload_p50, upload_windows) = stats::windowed_p50(upload_us, window_n(upload_hz));
    let r = &mut ctx.report;
    r.e2e(
        "setup_s",
        stats::median(&setup.times),
        "s",
        &format!(
            "median of {} set-ups, {} records",
            setup.times.len(),
            setup.records
        ),
    );
    r.e2e(
        "batch_qps",
        batch.qps(),
        "queries/s",
        &format!(
            "query_batch on {} threads, n={batch_n}, fast decile of rounds",
            harness::BATCH_THREADS
        ),
    );
    r.e2e("peak_rss_mb", peak_rss_mb, "MiB", "VmHWM");
    r.e2e(
        "disk_bytes_per_seg",
        disk as f64 / held.max(1) as f64,
        "B",
        &format!("{disk} B / {held} segments"),
    );
    // Printed and recorded in `meta`, but not gated. On a shared 2-vCPU
    // host these moved between runs by more than the 0.25 bound even at
    // their fast decile: the client's single-thread speed, the few-µs
    // queries of `fleet_live` and preload uploads of `city_uniform`, and
    // the tens-of-ms recoveries of `fleet_live` swing with other guests'
    // load (up to -40 %), and the tails follow hypervisor steal.
    r.info(
        "query_p50_us",
        query_p50,
        "us",
        &format!(
            "open loop at {} q/s, n={}, {query_windows} windows",
            plan.query_rate, qs.n
        ),
    );
    r.info(
        "client_kframes_per_s",
        s1.kframes_per_s(),
        "kframes/s",
        &format!(
            "stage 1, {} frames processed, fast decile of windows",
            s1.frames_processed
        ),
    );
    r.info(
        "upload_p50_us",
        upload_p50,
        "us",
        &format!("{upload_source}, n={}, {upload_windows} windows", us.n),
    );
    r.info(
        "recover_s",
        stats::fast_decile(&recover_times, stats::Better::Lower),
        "s",
        &format!("fast decile of {} opens", recover_times.len()),
    );
    for (name, sum, source) in [
        ("upload_p99_us", &us, upload_source),
        ("query_p99_us", &qs, "open loop"),
    ] {
        r.info(
            name,
            sum.p99,
            "us",
            &format!(
                "{source}, n={}, {} windows, p99 qualified: {}, highest qualified: p{}",
                sum.n,
                sum.windows,
                sum.p99_qualified,
                sum.tail.unwrap_or(f64::NAN)
            ),
        );
    }
    let failed_frac = report::failed() as f64 / report::attempted().max(1) as f64;
    let note = format!("{} of {} operations", report::failed(), report::attempted());
    r.info("failed_frac", failed_frac, "ratio", &note);

    for (label, st, rate) in [
        ("queries", &open.queries, plan.query_rate),
        ("uploads", &open.uploads, plan.upload_rate),
    ] {
        if st.scheduled == 0 {
            continue;
        }
        let late = stats::summarize(&st.late_us, usize::MAX, 1);
        let late_p99 = late.p99;
        let growing = st.backlog_growing();
        println!(
            "open loop {label}: {} sent at {rate}/s, generator late p99 {late_p99:.1} us, backlog at end {}, growing {growing}",
            st.scheduled, st.backlog_end
        );
        if growing {
            println!("WARNING: the {label} backlog kept growing: the rate is above capacity and latencies measure queueing");
        }
        ctx.report.meta(
            &format!("open_loop.{label}"),
            J::obj(vec![
                ("scheduled", J::Int(st.scheduled as u64)),
                ("late_p50_us", J::Num(late.p50)),
                ("late_p99_us", J::Num(late_p99)),
                ("backlog_end", J::Int(st.backlog_end as u64)),
                ("backlog_growing", J::Bool(growing)),
            ]),
        );
    }
    let times = |v: &[f64]| J::Arr(v.iter().map(|&t| J::Num(t)).collect());
    ctx.report.meta("setup_times_s", times(&setup.times));
    ctx.report.meta("recover_times_s", times(&recover_times));
    ctx.report.meta(
        "samples",
        J::obj(vec![
            ("query_n", J::Int(qs.n as u64)),
            ("query_p50_windows", J::Int(query_windows as u64)),
            ("query_tail_windows", J::Int(qs.windows as u64)),
            ("query_p99_qualified", J::Bool(qs.p99_qualified)),
            ("upload_n", J::Int(us.n as u64)),
            ("upload_p50_windows", J::Int(upload_windows as u64)),
            ("upload_source", J::str(upload_source)),
            ("upload_p99_qualified", J::Bool(us.p99_qualified)),
            ("batch_queries", J::Int(batch_n)),
            ("open_hits", J::Int(open.hits)),
        ]),
    );

    if let Some(replay) = traced {
        layers::report(
            ctx,
            &layers::Readings {
                stage1: &s1,
                upload_bytes,
                uploads: (preload.len() + live.len()) as u64,
                setup_before: &setup.reg_before,
                setup_after: &setup.reg_after,
                reg_open: &reg_open,
                reg_batch_start: &reg_batch_start,
                reg_batch: &reg_batch,
                writes_live,
                gen_late: &open.queries.late_us,
                durability,
                replay,
            },
        );
    }
}
