//! The measurement side of the operator pipeline: the probes
//! `Engine::execute_plan` is generic over, the measured execution that
//! derives metrics and the wide event from one record, and EXPLAIN
//! ANALYZE.
//!
//! There is one pipeline (in [`super::ops`]). It reports each operator
//! boundary to a [`Probe`]:
//!
//! * [`NoProbe`] — zero-sized, every hook a no-op. It runs when neither a
//!   metric registry nor the wide-event log is attached, and the query
//!   then reads the clock exactly twice (start and end), as the
//!   `obs_overhead` guard's uninstrumented replica does.
//! * [`Measure`] — fills one [`QueryEvent`]: per-operator wall time and
//!   rows in/out, index traversal work, the cache and fan-out decisions.
//!   It runs when either is attached, and for every analyzed query.
//!
//! Everything observable about a query is derived from that one record:
//! `ServerObs::record` writes the `op_*` metric family from it, the
//! wide-event log stores it, and [`AnalyzeReport::render`] annotates the
//! plan with it. The event *data model* and wire format live in
//! [`super::forensics`].

use swag_obs::MonotonicClock;
use swag_rtree::SearchStats;

use crate::query::{Query, QueryOptions};
use crate::ranking::SearchHit;

use super::admission::ShedReason;
use super::epoch::Epoch;
use super::fanout::FanoutDecision;
use super::forensics::{result_digest, CacheOutcome, QueryEvent, QueryOutcome};
use super::plan::{QueryPlan, OP_COLD_SCAN, OP_DELTA_SCAN, OP_INDEX_SCAN, OP_QUERY, OP_RANKING};
use super::Engine;

/// What the operator pipeline reports at its boundaries. Every hook
/// defaults to doing nothing, so [`NoProbe`] compiles them all away.
pub(crate) trait Probe {
    /// The result cache's decision for this plan.
    fn cache(&mut self, _outcome: CacheOutcome) {}
    /// Traversal counters for the index scan to accumulate into; `None`
    /// runs the scan without counters.
    fn search_stats(&mut self) -> Option<&mut SearchStats> {
        None
    }
    /// The index scan is about to start, under `decision`.
    fn start(&mut self, _clock: &dyn MonotonicClock, _decision: &FanoutDecision) {}
    /// The index scan produced `rows_out` candidates that passed the
    /// filter chain.
    fn index_done(&mut self, _clock: &dyn MonotonicClock, _rows_out: usize) {}
    /// The delta scan walked `rows_in` pending records, `rows_out` of
    /// which passed the box test and filter chain.
    fn delta_done(&mut self, _clock: &dyn MonotonicClock, _rows_in: usize, _rows_out: usize) {}
    /// The cold scan read `rows_in` records, `rows_out` of which passed.
    fn cold_done(&mut self, _clock: &dyn MonotonicClock, _rows_in: u64, _rows_out: usize) {}
    /// Ranking finished at `t_done`: `rows_in` hits in, `rows_out` out
    /// after top-N.
    fn ranked(&mut self, _t_done: u64, _rows_in: usize, _rows_out: usize) {}
    /// The query (executed or served from cache) started at `t0` and
    /// returned `hits` at `t_done`.
    fn finish(&mut self, _t0: u64, _t_done: u64, _hits: usize) {}
}

/// The plain path's probe: measures nothing, reads no clock.
pub(crate) struct NoProbe;

impl Probe for NoProbe {}

/// The measuring probe: fills one [`QueryEvent`] as the pipeline runs.
pub(crate) struct Measure {
    ev: QueryEvent,
    search: SearchStats,
    /// Engine-clock time of the last operator boundary.
    lap: u64,
}

impl Measure {
    /// Micros since the previous boundary; starts the next lap.
    fn lap(&mut self, clock: &dyn MonotonicClock) -> u64 {
        let now = clock.now_micros();
        let dt = now - self.lap;
        self.lap = now;
        dt
    }
}

impl Probe for Measure {
    fn cache(&mut self, outcome: CacheOutcome) {
        self.ev.cache = outcome;
    }

    fn search_stats(&mut self) -> Option<&mut SearchStats> {
        Some(&mut self.search)
    }

    fn start(&mut self, clock: &dyn MonotonicClock, d: &FanoutDecision) {
        self.ev.fanout_parallel = d.parallel;
        self.ev.fanout_shards = d.shards as u64;
        self.ev.fanout_items = d.items as u64;
        self.ev.fanout_work = d.estimated_work;
        self.ev.fanout_threads = d.threads as u64;
        self.lap = clock.now_micros();
    }

    fn index_done(&mut self, clock: &dyn MonotonicClock, rows_out: usize) {
        self.ev.index_micros = self.lap(clock);
        self.ev.index_rows_in = self.search.items_tested;
        self.ev.index_rows_out = rows_out as u64;
        self.ev.hits_index = rows_out as u64;
        self.ev.index_nodes_visited = self.search.nodes_visited;
        self.ev.index_leaves_scanned = self.search.leaves_scanned;
    }

    fn delta_done(&mut self, clock: &dyn MonotonicClock, rows_in: usize, rows_out: usize) {
        self.ev.delta_micros = self.lap(clock);
        self.ev.delta_rows_in = rows_in as u64;
        self.ev.delta_rows_out = rows_out as u64;
        self.ev.hits_delta = rows_out as u64;
    }

    fn cold_done(&mut self, clock: &dyn MonotonicClock, rows_in: u64, rows_out: usize) {
        self.ev.cold_scanned = true;
        self.ev.cold_micros = self.lap(clock);
        self.ev.cold_rows_in = rows_in;
        self.ev.cold_rows_out = rows_out as u64;
    }

    fn ranked(&mut self, t_done: u64, rows_in: usize, rows_out: usize) {
        self.ev.rank_micros = t_done - self.lap;
        self.ev.rank_rows_in = rows_in as u64;
        self.ev.rank_rows_out = rows_out as u64;
    }

    fn finish(&mut self, t0: u64, t_done: u64, hits: usize) {
        self.ev.total_micros = t_done - t0;
        self.ev.hit_count = hits as u64;
        self.ev.end_micros = t_done;
    }
}

/// The annotated output of one analyzed execution.
pub struct AnalyzeReport {
    /// Everything measured, as the wide event records it.
    pub event: QueryEvent,
    /// The resolved plan listing (`swag explain` format) the
    /// annotations attach to.
    pub plan_text: String,
}

impl AnalyzeReport {
    /// Renders the annotated plan tree: the resolved plan, the concrete
    /// admission decision and epoch stamp, and the measured pipeline —
    /// per-operator wall time and rows in/out under the same `OP_*`
    /// names the trace spans use.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let e = &self.event;
        let mut out = String::with_capacity(self.plan_text.len() + 512);
        out.push_str("EXPLAIN ANALYZE\n");
        out.push_str(&self.plan_text);
        let admission = match (e.outcome, e.tokens_remaining) {
            (QueryOutcome::Shed(reason), tokens) => {
                let t = tokens.map_or(String::new(), |t| format!(", {t:.1} tokens remaining"));
                format!("shed: {reason}{t}")
            }
            (QueryOutcome::Served, Some(tokens)) => {
                format!("admitted ({tokens:.1} tokens remaining)")
            }
            (QueryOutcome::Served, None) => "not consulted".to_string(),
        };
        let _ = writeln!(out, "  admission: {admission}");
        let _ = writeln!(
            out,
            "  stamp   : global_gen {}, delta_gen {}, {} pending delta records",
            e.global_gen, e.delta_gen, e.delta_len
        );
        if let QueryOutcome::Shed(_) = e.outcome {
            let _ = writeln!(
                out,
                "  measured: (shed before execution — no operators ran)"
            );
            return out;
        }
        let _ = writeln!(
            out,
            "  measured: {OP_QUERY} {} us total, {} hits, digest {:#018x}",
            e.total_micros, e.hit_count, e.digest
        );
        if e.cache == CacheOutcome::Hit {
            let _ = writeln!(
                out,
                "    (served from the result cache — operators skipped)"
            );
            return out;
        }
        let _ = writeln!(
            out,
            "    ├─ {OP_INDEX_SCAN:<11} {:>6} us   rows {} -> {}   ({} shard probe{}, {} nodes, {} leaves, {})",
            e.index_micros,
            e.index_rows_in,
            e.index_rows_out,
            e.fanout_shards,
            if e.fanout_shards == 1 { "" } else { "s" },
            e.index_nodes_visited,
            e.index_leaves_scanned,
            if e.fanout_parallel {
                format!("parallel on {} threads", e.fanout_threads)
            } else {
                "serial".to_string()
            }
        );
        let _ = writeln!(
            out,
            "    ├─ {OP_DELTA_SCAN:<11} {:>6} us   rows {} -> {}",
            e.delta_micros, e.delta_rows_in, e.delta_rows_out
        );
        let mut cold_hits_note = String::new();
        if e.cold_scanned {
            let _ = writeln!(
                out,
                "    ├─ {OP_COLD_SCAN:<11} {:>6} us   rows {} -> {}",
                e.cold_micros, e.cold_rows_in, e.cold_rows_out
            );
            cold_hits_note = format!(" + {} cold", e.cold_rows_out);
        }
        let _ = writeln!(
            out,
            "    └─ {OP_RANKING:<11} {:>6} us   rows {} -> {}   (hits: {} index + {} delta{})",
            e.rank_micros,
            e.rank_rows_in,
            e.rank_rows_out,
            e.hits_index,
            e.hits_delta,
            cold_hits_note
        );
        out
    }
}

/// Result of [`CloudServer::query_analyzed`](crate::server::CloudServer::query_analyzed):
/// the hits (byte-identical to an unanalyzed run; empty when shed) plus
/// the annotated report.
pub struct AnalyzedQuery {
    pub hits: Vec<SearchHit>,
    pub report: AnalyzeReport,
}

impl Engine {
    /// Executes `plan` (through the result cache) on the measuring probe
    /// and derives everything from its one record: the `op_*` metrics
    /// when a registry is attached, and, with `emit`, the wide event.
    /// `report` asks for a complete event back even when none is
    /// emitted. The identity words (fingerprint, result digest) and the
    /// token balance of `client` are only filled for an event that is
    /// emitted or reported — the metrics need none of them.
    #[inline(never)]
    pub(crate) fn execute_measured(
        &self,
        epoch: &Epoch,
        t0: u64,
        plan: &QueryPlan,
        client: Option<u64>,
        emit: bool,
        report: bool,
    ) -> (Vec<SearchHit>, QueryEvent) {
        let mut m = Measure {
            ev: QueryEvent::for_plan(plan, epoch),
            search: SearchStats::default(),
            lap: 0,
        };
        if emit || report {
            let admission = self.admission.as_ref();
            m.ev.tokens_remaining = client.and_then(|id| admission.map(|a| a.tokens_remaining(id)));
        }
        let hits = self.execute_plan_cached(epoch, t0, plan, &mut m);
        let mut ev = m.ev;
        if let Some(obs) = &self.obs {
            let auto_slow = self.config.slow_query_micros.is_none();
            obs.record(&ev, auto_slow.then_some(&*self.recorder));
        }
        if emit || report {
            ev.fingerprint = plan.fingerprint();
            ev.digest = result_digest(&hits);
        }
        if emit {
            self.emit_event(&ev);
        }
        (hits, ev)
    }

    /// Whether the wide-event log is attached and recording.
    pub(crate) fn events_on(&self) -> bool {
        self.events.as_ref().is_some_and(|e| e.is_enabled())
    }

    /// Records `ev` into the event log (when present) and bumps the
    /// pushed/kept counters.
    pub(crate) fn emit_event(&self, ev: &QueryEvent) {
        if let Some(events) = &self.events {
            let kept = events.record(ev);
            if let Some(obs) = &self.obs {
                obs.events_pushed.inc();
                if kept {
                    obs.events_kept.inc();
                }
            }
        }
    }

    /// The wide event for a query shed before execution (always-keep
    /// class): the request, the stamp it would have run against, the
    /// reason and the client's token balance.
    pub(crate) fn shed_event(
        &self,
        client_id: u64,
        plan: &QueryPlan,
        epoch: &Epoch,
        reason: ShedReason,
    ) -> QueryEvent {
        let mut ev = QueryEvent::for_plan(plan, epoch);
        ev.fingerprint = plan.fingerprint();
        ev.outcome = QueryOutcome::Shed(reason);
        ev.tokens_remaining = self
            .admission
            .as_ref()
            .map(|a| a.tokens_remaining(client_id));
        ev.end_micros = self.clock.now_micros();
        ev
    }

    /// EXPLAIN ANALYZE: consults admission exactly like `query_admitted`,
    /// executes on the measuring probe, and returns the hits plus the
    /// annotated report. The event rendered is the event emitted (when
    /// the log is on), shed or served.
    pub(crate) fn query_analyzed(
        &self,
        client_id: u64,
        query: &Query,
        opts: &QueryOptions,
    ) -> AnalyzedQuery {
        let admitted = self.admit(client_id);
        let t0 = self.clock.now_micros();
        let epoch = self.epoch.read().clone();
        let plan = QueryPlan::compile(query, opts);
        let (hits, event) = match admitted {
            Ok(_permit) => {
                let emit = self.events_on();
                self.execute_measured(&epoch, t0, &plan, Some(client_id), emit, true)
            }
            Err(reason) => {
                let ev = self.shed_event(client_id, &plan, &epoch, reason);
                self.emit_event(&ev);
                (Vec::new(), ev)
            }
        };
        // The `explain` listing with the fan-out and cache lines replaced
        // by what this execution decided. A cache hit ran no index scan,
        // so its fan-out line shows the decision the scan would take.
        let decision = (event.cache != CacheOutcome::Hit).then_some(FanoutDecision {
            parallel: event.fanout_parallel,
            shards: event.fanout_shards as usize,
            items: event.fanout_items as usize,
            estimated_work: event.fanout_work,
            threads: event.fanout_threads as usize,
        });
        let cache_note = match event.cache {
            CacheOutcome::Off => "cache off".to_string(),
            CacheOutcome::Ineligible => self.cache_span_note(&plan),
            CacheOutcome::Miss => "miss (executed and stored)".to_string(),
            CacheOutcome::Hit => "hit (served from cache)".to_string(),
        };
        let plan_text = self.explain_plan(&plan, &epoch, decision, &cache_note);
        AnalyzedQuery {
            hits,
            report: AnalyzeReport { event, plan_text },
        }
    }
}
