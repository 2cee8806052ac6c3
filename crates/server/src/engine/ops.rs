//! The operator pipeline: executes [`QueryPlan`]s against an epoch.
//!
//! One plan execution is the paper's retrieval path as a pipeline of
//! operators — **index scan** (sharded snapshot probe, then the plan's
//! compiled [`FilterChain`](super::plan::FilterChain) over the
//! candidates) → **delta scan** (box test plus the filter chain over
//! pending records) → **cold scan** (the same over demoted runs, durable
//! servers only) → **ranking** (sort, top-k) — each timed by a
//! flight-recorder span named after the `OP_*` constant it executes.
//!
//! The pipeline is written once, in [`Engine::execute_plan`], generic
//! over a [`Probe`](super::analyze::Probe): the no-op probe when
//! nothing observes queries, the measuring probe when a registry or the
//! wide-event log is attached (see [`super::analyze`]). Every read entry
//! point is a thin driver over it: `query` runs one plan,
//! `query_admitted` runs it behind admission control, `query_nearest`
//! loops over radius-expanded plans, `query_batch` fans plans across the
//! executor against a single pinned epoch, and subscriptions reuse the
//! plan's filter stage at ingest time.

use std::sync::atomic::Ordering;

use swag_exec::Executor;
use swag_geo::LatLon;

use crate::index::fov_box;
use crate::query::{Query, QueryOptions, RankMode};
use crate::ranking::{collect_hits, hit_for, rank_hits, SearchHit};
use crate::server::ServerStats;
use crate::store::{SegmentId, SegmentRecord};

use super::admission::{InflightPermit, ShedReason};
use super::analyze::{NoProbe, Probe};
use super::cache;
use super::epoch::Epoch;
use super::fanout::{self, FanoutDecision};
use super::forensics::CacheOutcome;
use super::plan::{
    PlanKey, QueryPlan, OP_COLD_SCAN, OP_DELTA_SCAN, OP_INDEX_SCAN, OP_QUERY, OP_QUERY_NEAREST,
    OP_RANKING,
};
use super::Engine;

/// Sentinel [`SegmentId`] carried by hits served from cold runs: cold
/// records left the live store when retention demoted them, so they have
/// no dense server id. External callers identify results by
/// [`SearchHit::source`] either way.
pub(crate) const COLD_HIT_ID: SegmentId = SegmentId(u32::MAX);

impl Engine {
    /// The cold-run scan operator: walks every demoted run whose bucket
    /// could overlap the plan's window, applying the same box test and
    /// filter chain the delta scan uses, and appends the passing hits
    /// (carrying [`COLD_HIT_ID`]) to `hits`. Returns the records
    /// examined, or `None` without a span when no cold run exists
    /// (memory-only servers pay one branch).
    fn cold_scan(&self, plan: &QueryPlan, hits: &mut Vec<SearchHit>) -> Option<u64> {
        let durability = self.durability.as_ref().filter(|d| !d.cold().is_empty())?;
        let _span = self.recorder.span(OP_COLD_SCAN);
        let mut rows_in = 0u64;
        for run in durability
            .cold()
            .overlapping(plan.query.t_end, durability.width_s())
        {
            let records = run.records();
            rows_in += records.len() as u64;
            for (rep, source) in records.iter() {
                if plan.boxes.intersects(&fov_box(rep))
                    && plan.filters.accepts(rep, &self.cam, &plan.query)
                {
                    let rec = SegmentRecord {
                        id: COLD_HIT_ID,
                        rep: *rep,
                        source: *source,
                    };
                    hits.push(hit_for(&rec, &self.cam, &plan.query));
                }
            }
        }
        Some(rows_in)
    }

    /// Executes one plan against an already-acquired epoch, completing
    /// the latency accounting started at `t0` (the caller reads the
    /// clock once before acquiring the epoch; this method reads it once
    /// more, plus once per operator boundary on the measuring probe).
    /// Scanning and ranking are lock-free: the epoch is immutable, and
    /// the shard fan-out runs on the engine's executor.
    pub(crate) fn execute_plan<P: Probe>(
        &self,
        epoch: &Epoch,
        t0: u64,
        plan: &QueryPlan,
        probe: &mut P,
    ) -> Vec<SearchHit> {
        let clock = &*self.clock;
        // Root of this query's span tree, armed for slow-query capture:
        // if its wall time (on the recorder's clock) crosses the slow
        // threshold, the whole tree is pinned into the retained log.
        // Child spans below — shard probes included, even when stolen by
        // other workers — parent to this context.
        let mut root = self.recorder.guarded_span(OP_QUERY);
        // Price the index scan before running it: narrow probes skip the
        // pool entirely (serial beats per-job overhead below the work
        // threshold), and the worker count is clamped to the host's
        // available parallelism. Both paths produce byte-identical
        // results, so this changes latency, never answers.
        let decision = FanoutDecision::decide(
            &epoch.core.index,
            plan.query.t_start,
            plan.query.t_end,
            &self.exec,
            self.config.fanout,
        );
        let serial = Executor::serial();
        let probe_exec = if decision.parallel {
            &self.exec
        } else {
            &serial
        };
        probe.start(clock, &decision);
        // Every scan emits hits that passed the box test and the filter
        // chain, appended in the order (index, delta, cold) the stable
        // sort breaks ties by.
        let mut hits = {
            let _span = self.recorder.span(OP_INDEX_SCAN);
            let (index, boxes) = (&epoch.core.index, &plan.boxes);
            let (t_start, t_end) = (plan.query.t_start, plan.query.t_end);
            let candidates = match probe.search_stats() {
                None => index.candidates_in_exec(probe_exec, boxes, t_start, t_end),
                Some(stats) => {
                    index.candidates_with_stats_in_exec(probe_exec, boxes, t_start, t_end, stats)
                }
            };
            collect_hits(&candidates, &epoch.core.store, &self.cam, plan)
        };
        let n_index = hits.len();
        probe.index_done(clock, n_index);
        if epoch.delta_len > 0 {
            let _span = self.recorder.span(OP_DELTA_SCAN);
            for d in epoch.delta_records() {
                if plan.boxes.intersects(&d.bbox)
                    && plan.filters.accepts(&d.rec.rep, &self.cam, &plan.query)
                {
                    hits.push(hit_for(&d.rec, &self.cam, &plan.query));
                }
            }
        }
        let n_scanned = hits.len();
        probe.delta_done(clock, epoch.delta_len, n_scanned - n_index);
        if let Some(rows_in) = self.cold_scan(plan, &mut hits) {
            probe.cold_done(clock, rows_in, hits.len() - n_scanned);
        }
        let rank_rows_in = hits.len();
        {
            let _span = self.recorder.span(OP_RANKING);
            rank_hits(&mut hits, plan.rank, plan.k);
        }
        self.queries.fetch_add(1, Ordering::Relaxed);
        let t_done = clock.now_micros();
        self.query_micros.fetch_add(t_done - t0, Ordering::Relaxed);
        probe.ranked(t_done, rank_rows_in, hits.len());
        probe.finish(t0, t_done, hits.len());
        root.set_detail(hits.len() as u64);
        hits
    }

    /// [`Self::execute_plan`] behind the plan-keyed result cache. On a
    /// hit the stored result is returned after the entry proves itself
    /// current against `epoch` (see [`cache`]); on a miss the plan
    /// executes normally and the result is stored, stamped with the
    /// epoch it was computed against. With the cache disabled (the
    /// default) this is a plain `execute_plan` call — kept
    /// `inline(always)` with the cache machinery split into
    /// [`Self::execute_plan_via_cache`] so the uncached hot path pays
    /// exactly one load-and-branch (the `obs_overhead` guard times this
    /// path against an uninstrumented replica carrying the same branch).
    #[inline(always)]
    pub(crate) fn execute_plan_cached<P: Probe>(
        &self,
        epoch: &Epoch,
        t0: u64,
        plan: &QueryPlan,
        probe: &mut P,
    ) -> Vec<SearchHit> {
        match &self.cache {
            None => self.execute_plan(epoch, t0, plan, probe),
            Some(cache) => self.execute_plan_via_cache(cache, epoch, t0, plan, probe),
        }
    }

    /// The cache-enabled arm of [`Self::execute_plan_cached`] —
    /// `inline(never)` so its body (key derivation, striped lookup,
    /// insert) never bloats the cache-off callsites.
    #[inline(never)]
    fn execute_plan_via_cache<P: Probe>(
        &self,
        cache: &cache::ResultCache,
        epoch: &Epoch,
        t0: u64,
        plan: &QueryPlan,
        probe: &mut P,
    ) -> Vec<SearchHit> {
        if !cache.eligible(plan) {
            probe.cache(CacheOutcome::Ineligible);
            return self.execute_plan(epoch, t0, plan, probe);
        }
        let key = PlanKey::of(plan);
        let fingerprint = key.fingerprint();
        match cache.lookup(fingerprint, &key, plan, epoch) {
            cache::Lookup::Hit(hits) => {
                // A cached answer is still a served query: the root span,
                // the query counters, and the total latency all record it
                // (no operators ran).
                probe.cache(CacheOutcome::Hit);
                let mut root = self.recorder.guarded_span(OP_QUERY);
                root.set_detail(hits.len() as u64);
                self.queries.fetch_add(1, Ordering::Relaxed);
                let t_done = self.clock.now_micros();
                self.query_micros.fetch_add(t_done - t0, Ordering::Relaxed);
                probe.finish(t0, t_done, hits.len());
                hits
            }
            cache::Lookup::Miss => {
                probe.cache(CacheOutcome::Miss);
                let hits = self.execute_plan(epoch, t0, plan, probe);
                if let cache::Insert::Stored { evicted: true } =
                    cache.insert(fingerprint, key, plan, epoch, &hits)
                {
                    if let Some(obs) = &self.obs {
                        obs.cache_evictions.inc();
                    }
                }
                hits
            }
        }
    }

    /// Executes `plan` on the probe what is attached calls for: the
    /// no-op probe when neither a registry nor (for a `logged` request)
    /// the wide-event log observes it (one load-and-branch each, no
    /// clock reads beyond the latency pair), the measuring probe
    /// otherwise. Only client requests are `logged`: the rings of a
    /// k-nearest search and the queries of a batch feed the metrics but
    /// not the event log. `client` is the admitted caller, whose token
    /// balance an emitted event records.
    #[inline(always)]
    fn execute(
        &self,
        epoch: &Epoch,
        t0: u64,
        plan: &QueryPlan,
        client: Option<u64>,
        logged: bool,
    ) -> Vec<SearchHit> {
        let emit = logged && self.events_on();
        if self.obs.is_none() && !emit {
            return self.execute_plan_cached(epoch, t0, plan, &mut NoProbe);
        }
        self.execute_measured(epoch, t0, plan, client, emit, false)
            .0
    }

    /// One-plan entry point: compiles the plan, clones the epoch `Arc`
    /// in a momentary read-side critical section, and executes (through
    /// the result cache when enabled). `client` is the admitted caller,
    /// if any.
    pub(crate) fn query(
        &self,
        query: &Query,
        opts: &QueryOptions,
        client: Option<u64>,
    ) -> Vec<SearchHit> {
        let t0 = self.clock.now_micros();
        let epoch = self.epoch.read().clone();
        let plan = QueryPlan::compile(query, opts);
        self.execute(&epoch, t0, &plan, client, true)
    }

    /// Admission shared by `query_admitted` and `query_analyzed`: admits
    /// (holding an in-flight slot until the permit drops) or sheds,
    /// counting either outcome. With admission disabled every request is
    /// admitted without a permit.
    pub(crate) fn admit(&self, client_id: u64) -> Result<Option<InflightPermit<'_>>, ShedReason> {
        let Some(admission) = &self.admission else {
            return Ok(None);
        };
        let decision = admission.admit(client_id);
        if let Some(obs) = &self.obs {
            match decision {
                Ok(_) => obs.admitted.inc(),
                Err(ShedReason::RateLimited) => obs.shed_rate_limited.inc(),
                Err(ShedReason::Overloaded) => obs.shed_overloaded.inc(),
            }
        }
        decision.map(Some)
    }

    /// [`Self::query`] behind admission control: sheds instead of
    /// serving when `client_id` is over its token-bucket budget or the
    /// server's in-flight cap is reached. A shed emits its always-kept
    /// wide event when the log is on.
    pub(crate) fn query_admitted(
        &self,
        client_id: u64,
        query: &Query,
        opts: &QueryOptions,
    ) -> Result<Vec<SearchHit>, ShedReason> {
        match self.admit(client_id) {
            Ok(_permit) => Ok(self.query(query, opts, Some(client_id))),
            Err(reason) => {
                if self.events_on() {
                    let plan = QueryPlan::compile(query, opts);
                    let epoch = self.epoch.read().clone();
                    self.emit_event(&self.shed_event(client_id, &plan, &epoch, reason));
                }
                Err(reason)
            }
        }
    }

    /// k-nearest entry point: a radius-expansion loop over successive
    /// plans. Each ring compiles a fresh plan (same filters/rank, wider
    /// boxes, `k = all`) and executes it against a freshly acquired
    /// epoch; the loop stops once `k` hits are found past the settle
    /// radius or the budget is covered.
    pub(crate) fn query_nearest(
        &self,
        t_start: f64,
        t_end: f64,
        center: LatLon,
        k: usize,
        opts: &QueryOptions,
        max_radius_m: f64,
    ) -> Vec<SearchHit> {
        if k == 0 {
            return Vec::new();
        }
        // Each expansion round's query span becomes a child of this one.
        let _span = self.recorder.span(OP_QUERY_NEAREST);
        // Below this radius, unexplored segments may still outrank found
        // ones, so k hits are not enough to stop.
        let settle_radius_m = match opts.rank {
            RankMode::Distance => 0.0,
            RankMode::Quality => self.cam.view_radius_m.min(max_radius_m),
        };
        let mut radius = 50.0_f64.min(max_radius_m);
        loop {
            if let Some(obs) = &self.obs {
                obs.nearest_rounds.inc();
            }
            let t0 = self.clock.now_micros();
            let epoch = self.epoch.read().clone();
            let q = Query::new(t_start, t_end, center, radius);
            let mut plan = QueryPlan::compile(&q, opts);
            plan.k = usize::MAX;
            let hits = self.execute(&epoch, t0, &plan, None, false);
            if (hits.len() >= k && radius >= settle_radius_m) || radius >= max_radius_m {
                let mut hits = hits;
                hits.truncate(k);
                return hits;
            }
            radius = (radius * 2.0).min(max_radius_m);
        }
    }

    /// Batch entry point: compiles one plan per query and fans them
    /// across the executor against **one** pinned epoch, so a publish
    /// landing mid-batch cannot make later queries see different data
    /// than earlier ones. Result order matches input order and is
    /// byte-identical in serial and parallel mode.
    pub(crate) fn query_batch(
        &self,
        queries: &[Query],
        opts: &QueryOptions,
        threads: usize,
    ) -> Vec<Vec<SearchHit>> {
        let epoch = self.epoch.read().clone();
        let one = |q: &Query| {
            let t0 = self.clock.now_micros();
            let plan = QueryPlan::compile(q, opts);
            self.execute(&epoch, t0, &plan, None, false)
        };
        // Clamp to the host: a batch "parallelism" request beyond the
        // machine's cores would only add scheduling churn.
        let threads = threads.min(fanout::hw_threads());
        if threads <= 1 || self.exec.is_serial() {
            return queries.iter().map(one).collect();
        }
        self.exec.par_map(queries, one)
    }

    /// Exports every stored record, pending delta included.
    pub(crate) fn export_records(&self) -> Vec<SegmentRecord> {
        let epoch = self.epoch.read().clone();
        let mut out: Vec<SegmentRecord> = epoch.core.store.iter().copied().collect();
        out.extend(epoch.delta_records().map(|d| d.rec));
        out
    }

    /// Current statistics snapshot.
    pub(crate) fn stats(&self) -> ServerStats {
        let epoch = self.epoch.read().clone();
        ServerStats {
            segments: epoch.core.store.len() + epoch.delta_len,
            store_slots: epoch.core.store.total() + epoch.delta_len,
            shards: epoch.core.index.shard_count(),
            pending_delta: epoch.delta_len,
            batches: self.batches.load(Ordering::Relaxed),
            queries: self.queries.load(Ordering::Relaxed),
            query_micros_total: self.query_micros.load(Ordering::Relaxed),
            query_micros: self
                .obs
                .as_ref()
                .map_or_else(swag_obs::HistogramSnapshot::empty, |o| {
                    o.query_total.snapshot()
                }),
        }
    }
}
