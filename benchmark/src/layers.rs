//! Per-layer metrics of the traced repeat: self time and latency of every
//! call boundary from the spans, counts taken at the same boundaries, and a
//! decision-layer probe the benchmark runs on its own copies of the
//! controller's building blocks, so the plane under test is never touched.

use crate::stats::{median, percentile, sorted};
use crate::trace::{self, Span};
use crate::workloads::{overload_min, Recorder};
use autoglobe::controller::{
    AutoGlobeController, ControllerConfig, ExecutionEvent, HostIndex, LoadView, RuleBases,
    ScoreCacheStats, ServerInputs, ServerSelector,
};
use autoglobe::landscape::{ActionKind, Landscape, ShardDelta};
use autoglobe::monitor::{SimTime, Subject};
use autoglobe::sharded::PlaneTickReport;
use autoglobe::simulator::{Metrics, TickLoads};
use autoglobe::{IngestStats, ShardedControlPlane, Supervisor};
use std::hint::black_box;
use std::time::Instant;

/// Snapshots replayed through the decision-layer probe per traced repeat.
const REPLAYS: u64 = 64;

/// Per-layer metric names and units, in output order. The `experiments.*`
/// shares and `trace.overhead_pct` are filled in by the orchestrator.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("simulator.advance_us_p50", "us"),
    ("simulator.share", "ratio"),
    ("simulator.overload_min", "min"),
    ("monitor.ingest_us_p50", "us"),
    ("monitor.ingest_ns_per_measurement", "ns"),
    ("monitor.measurements_per_interval", "count"),
    ("monitor.triggers_per_interval", "count"),
    ("monitor.share", "ratio"),
    ("autoglobe.close_us_p50", "us"),
    ("autoglobe.close_us_p99", "us"),
    ("autoglobe.share", "ratio"),
    ("controller.decide_us_p50", "us"),
    ("controller.decide_us_p99", "us"),
    ("controller.queue_wait_us_p99", "us"),
    ("controller.reaction_us_p50", "us"),
    ("controller.reaction_us_p99", "us"),
    ("controller.share", "ratio"),
    ("controller.decisions", "count"),
    ("controller.actions", "count"),
    ("controller.alerts", "count"),
    ("controller.yield", "ratio"),
    ("controller.cache_hit_ratio", "ratio"),
    ("controller.cache_clears", "count"),
    ("controller.index_rebuild_us", "us"),
    ("controller.rank_cold_us", "us"),
    ("fuzzy.score_batch_ns_per_host", "ns"),
    ("landscape.revisions", "count"),
    ("harness.share", "ratio"),
    ("sharded.ingested_per_interval", "count"),
    ("sharded.delta_entries_per_interval", "count"),
    ("sharded.readoptions", "count"),
    ("sharded.fenced", "count"),
    ("sharded.dropped_triggers", "count"),
    ("executor.retries", "count"),
    ("executor.timeouts", "count"),
    ("executor.abandoned", "count"),
    ("executor.fenced", "count"),
    ("experiments.fig12-17_runs.share", "ratio"),
    ("experiments.table7.share", "ratio"),
    ("experiments.chaos.share", "ratio"),
    ("experiments.shardchaos.share", "ratio"),
    ("experiments.proactive.share", "ratio"),
    ("experiments.scenarios.share", "ratio"),
    ("experiments.ablation.share", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// Observations only the traced repeat makes.
pub struct Probe {
    /// Replay every `stride`-th interval (at most [`REPLAYS`] of them).
    stride: u64,
    index: HostIndex,
    seen_revision: Option<u64>,
    rebuild_ns: Vec<f64>,
    shadow: AutoGlobeController,
    selector: ServerSelector,
    rank_cold_ns: Vec<f64>,
    score_ns_per_host: Vec<f64>,
    revisions: u64,
    cache: ScoreCacheStats,
    pub readoptions: u64,
    fenced: u64,
    dropped_triggers: u64,
    delta_entries: u64,
    ingested: u64,
    exec: [u64; 4],
}

impl Probe {
    pub fn new(intervals: u64) -> Self {
        let config = ControllerConfig::default();
        Probe {
            stride: (intervals / REPLAYS).max(1),
            index: HostIndex::default(),
            seen_revision: None,
            rebuild_ns: Vec::new(),
            shadow: AutoGlobeController::new(),
            selector: ServerSelector::new(RuleBases::paper_defaults(), config.engine),
            rank_cold_ns: Vec::new(),
            score_ns_per_host: Vec::new(),
            revisions: 0,
            cache: ScoreCacheStats::default(),
            readoptions: 0,
            fenced: 0,
            dropped_triggers: 0,
            delta_entries: 0,
            ingested: 0,
            exec: [0; 4],
        }
    }

    /// After each interval: rebuild the benchmark's own `HostIndex` when
    /// the landscape revision moved (the work every write forces on the
    /// controller), and replay every `stride`-th snapshot through a cold
    /// shadow ranking and one batched scoring of every server.
    pub fn observe(&mut self, id: u64, landscape: &Landscape, loads: &TickLoads, now: SimTime) {
        let revision = landscape.revision();
        if self.seen_revision != Some(revision) {
            let start = Instant::now();
            self.index.rebuild(landscape);
            self.rebuild_ns.push(start.elapsed().as_nanos() as f64);
            self.seen_revision = Some(revision);
        }
        if !(id + 1).is_multiple_of(self.stride) || self.rank_cold_ns.len() as u64 >= REPLAYS {
            return;
        }
        // The hottest service (lowest id on ties) is the one a trigger storm
        // would scale out.
        let Some(service) = landscape.service_ids().max_by(|a, b| {
            loads
                .cpu(Subject::Service(*a))
                .total_cmp(&loads.cpu(Subject::Service(*b)))
                .then(b.cmp(a))
        }) else {
            return;
        };
        self.shadow.clear_score_cache();
        let start = Instant::now();
        let ranked = self.shadow.rank_hosts_indexed(
            ActionKind::ScaleOut,
            service,
            None,
            landscape,
            loads,
            now,
        );
        self.rank_cold_ns.push(start.elapsed().as_nanos() as f64);
        black_box(ranked);

        let name = landscape
            .service(service)
            .map(|s| s.name.clone())
            .unwrap_or_default();
        let inputs: Vec<ServerInputs> = landscape
            .server_ids()
            .filter_map(|s| ServerInputs::gather(landscape, loads, s))
            .collect();
        let start = Instant::now();
        let scores = self
            .selector
            .score_batch(ActionKind::ScaleOut, &name, &inputs);
        let ns = start.elapsed().as_nanos() as f64;
        black_box(scores).ok();
        self.score_ns_per_host.push(ns / inputs.len().max(1) as f64);
    }

    pub fn note_plane_tick(&mut self, report: &PlaneTickReport, deltas: &[ShardDelta]) {
        self.fenced += report.fenced as u64;
        self.dropped_triggers += report.dropped_triggers as u64;
        self.delta_entries += deltas
            .iter()
            .map(|d| (d.loads.len() + d.watches.len() + d.recoveries.len()) as u64)
            .sum::<u64>();
    }

    fn add_cache(&mut self, stats: ScoreCacheStats) {
        self.cache.pattern_hits += stats.pattern_hits;
        self.cache.incremental_hits += stats.incremental_hits;
        self.cache.misses += stats.misses;
        self.cache.clears += stats.clears;
    }

    fn count_exec(&mut self, event: &ExecutionEvent) {
        let slot = match event {
            ExecutionEvent::Retried { .. } => 0,
            ExecutionEvent::TimedOut { .. } => 1,
            ExecutionEvent::Abandoned { .. } => 2,
            ExecutionEvent::FencedLateSuccess { .. } | ExecutionEvent::FencedStaleEpoch { .. } => 3,
            ExecutionEvent::Completed { .. } => return,
        };
        self.exec[slot] += 1;
    }

    pub fn finish_supervised(&mut self, supervisor: &mut Supervisor, first_revision: u64) {
        self.revisions += supervisor.landscape().revision() - first_revision;
        self.add_cache(supervisor.controller().score_cache_stats());
        for event in supervisor.drain_execution_events() {
            self.count_exec(&event);
        }
    }

    pub fn finish_sharded(
        &mut self,
        plane: &mut ShardedControlPlane,
        first_revision: u64,
        first_ingest: IngestStats,
    ) {
        self.revisions += plane.landscape().revision() - first_revision;
        for i in 0..plane.shards() {
            self.add_cache(plane.supervisor(i).controller().score_cache_stats());
        }
        self.ingested += plane.ingest_stats().ingested - first_ingest.ingested;
        for (_, event) in plane.drain_all_execution_events() {
            self.count_exec(&event);
        }
    }
}

fn us(ns: f64) -> f64 {
    ns / 1000.0
}

/// Per-layer metrics of a traced repeat (every [`PER_LAYER`] name except
/// the ones the orchestrator fills in).
pub fn layer_metrics(rec: &Recorder, runs: &[Metrics]) -> Vec<(&'static str, f64)> {
    let spans = rec.tracer.spans();
    let probe = rec.probe.as_ref().expect("a traced recorder has a probe");
    let by_name = trace::layers(spans);
    let total: u64 = by_name.values().map(|l| l.self_ns).sum();
    let share = |names: &[&str]| {
        let own: u64 = names
            .iter()
            .filter_map(|n| by_name.get(n))
            .map(|l| l.self_ns)
            .sum();
        own as f64 / total.max(1) as f64
    };
    let pct = |name: &str, q: f64| {
        by_name
            .get(name)
            .map_or(0.0, |l| us(percentile(&sorted(&l.durations_ns), q)))
    };
    let ingest_ns: f64 = by_name
        .get("monitor.ingest")
        .map_or(0.0, |l| l.durations_ns.iter().sum());
    let (queue_ns, reaction_ns) = trigger_waits(spans);
    let intervals = rec.intervals.max(1) as f64;
    let decisions = by_name
        .get("controller.decide")
        .map_or(0, |l| l.durations_ns.len()) as f64;
    let actions: usize = runs.iter().map(|m| m.actions.len()).sum();
    let alerts: usize = runs.iter().map(|m| m.alerts).sum();
    let cache = probe.cache;
    let hits = cache.pattern_hits + cache.incremental_hits;
    let lookups = hits + cache.misses;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    vec![
        ("simulator.advance_us_p50", pct("simulator.advance", 50.0)),
        ("simulator.share", share(&["simulator.advance"])),
        ("simulator.overload_min", overload_min(runs)),
        ("monitor.ingest_us_p50", pct("monitor.ingest", 50.0)),
        (
            "monitor.ingest_ns_per_measurement",
            ratio(ingest_ns, rec.measurements as f64),
        ),
        (
            "monitor.measurements_per_interval",
            rec.measurements as f64 / intervals,
        ),
        (
            "monitor.triggers_per_interval",
            rec.triggers as f64 / intervals,
        ),
        ("monitor.share", share(&["monitor.ingest", "monitor.beat"])),
        ("autoglobe.close_us_p50", pct("autoglobe.close", 50.0)),
        ("autoglobe.close_us_p99", pct("autoglobe.close", 99.0)),
        ("autoglobe.share", share(&["autoglobe.close"])),
        ("controller.decide_us_p50", pct("controller.decide", 50.0)),
        ("controller.decide_us_p99", pct("controller.decide", 99.0)),
        (
            "controller.queue_wait_us_p99",
            us(percentile(&sorted(&queue_ns), 99.0)),
        ),
        (
            "controller.reaction_us_p50",
            us(percentile(&sorted(&reaction_ns), 50.0)),
        ),
        (
            "controller.reaction_us_p99",
            us(percentile(&sorted(&reaction_ns), 99.0)),
        ),
        ("controller.share", share(&["controller.decide"])),
        ("controller.decisions", decisions),
        ("controller.actions", actions as f64),
        ("controller.alerts", alerts as f64),
        ("controller.yield", ratio(actions as f64, decisions)),
        (
            "controller.cache_hit_ratio",
            ratio(hits as f64, lookups as f64),
        ),
        ("controller.cache_clears", cache.clears as f64),
        ("controller.index_rebuild_us", us(median(&probe.rebuild_ns))),
        ("controller.rank_cold_us", us(median(&probe.rank_cold_ns))),
        (
            "fuzzy.score_batch_ns_per_host",
            median(&probe.score_ns_per_host),
        ),
        ("landscape.revisions", probe.revisions as f64),
        (
            "harness.share",
            share(&["interval", "harness.inject", "harness.mirror"]),
        ),
        (
            "sharded.ingested_per_interval",
            probe.ingested as f64 / intervals,
        ),
        (
            "sharded.delta_entries_per_interval",
            probe.delta_entries as f64 / intervals,
        ),
        ("sharded.readoptions", probe.readoptions as f64),
        ("sharded.fenced", probe.fenced as f64),
        ("sharded.dropped_triggers", probe.dropped_triggers as f64),
        ("executor.retries", probe.exec[0] as f64),
        ("executor.timeouts", probe.exec[1] as f64),
        ("executor.abandoned", probe.exec[2] as f64),
        ("executor.fenced", probe.exec[3] as f64),
    ]
}

/// Per dispatched trigger, measured from the return of the interval's
/// `tick_collect`: how long it waited behind earlier triggers of the same
/// interval (queue wait) and when its `dispatch_trigger` returned
/// (reaction), both in ns.
fn trigger_waits(spans: &[Span]) -> (Vec<f64>, Vec<f64>) {
    let mut closed_at = 0;
    let mut queue = Vec::new();
    let mut reaction = Vec::new();
    for span in spans {
        match span.name {
            "autoglobe.close" => closed_at = span.end_ns,
            "controller.decide" => {
                queue.push(span.start_ns.saturating_sub(closed_at) as f64);
                reaction.push(span.end_ns.saturating_sub(closed_at) as f64);
            }
            _ => {}
        }
    }
    (queue, reaction)
}
