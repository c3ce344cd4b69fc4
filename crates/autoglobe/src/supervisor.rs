//! The production control plane: measurements and heartbeats in, actions
//! out.
//!
//! [`Supervisor`] bundles the pieces an integrator would otherwise wire by
//! hand — a [`LoadMonitoringSystem`] with the paper's thresholds, a
//! [`LoadArchive`], a [`HeartbeatMonitor`], an [`ActionExecutor`] and the
//! [`AutoGlobeController`] — around a [`Landscape`], behind three calls:
//!
//! * [`Supervisor::beat`] — a liveness signal from a server or instance.
//!   Subjects enroll on their first beat; `miss_threshold` silent ticks
//!   suspect them, `confirm_after` more confirm the failure and run the
//!   self-healing path. A beat during suspicion reconciles (no
//!   double-start).
//! * [`Supervisor::tick`] — close one monitoring interval: settle in-flight
//!   operations, evaluate heartbeats, run proactive forecast checks, and
//!   dispatch confirmed triggers through the fuzzy controller.
//! * [`Supervisor::poll`] — settle in-flight operations between ticks (only
//!   relevant with a fallible/latent [`ExecutorConfig`]; the default
//!   reliable substrate completes everything inside `tick`).
//!
//! With [`SupervisorConfig::default`] — reliable executor, no proactive
//! triggering, heartbeats dormant until the first beat — the supervisor
//! reproduces the original synchronous facade bit for bit (test-enforced).

use autoglobe_controller::RecoveryOutcome;
use autoglobe_controller::{
    ActionExecutor, ActionRecord, AutoGlobeController, ControllerConfig, ControllerEvent,
    ExecutionEvent, ExecutionMode, ExecutorConfig, LoadView, RuleBases,
};
use autoglobe_forecast::{HintBook, ProactiveConfig, ProactiveFiring, ProactiveTrigger};
use autoglobe_landscape::{
    InstanceId, Landscape, LandscapeError, ServerId, ServiceId, ShardId, ShardMap,
};
use autoglobe_monitor::{
    Advisor, FailureEvent, FailureKind, HeartbeatConfig, HeartbeatEvent, HeartbeatMonitor,
    LoadArchive, LoadMonitoringSystem, LoadSample, SimDuration, SimTime, Subject, SubjectConfig,
    TriggerEvent,
};
use std::collections::{BTreeMap, BTreeSet};

/// Latest-value load view fed by the supervisor's recorded measurements.
///
/// Stored as dense per-kind arenas indexed by the raw id (ids are dense in
/// this system), with presence flags distinguishing "never recorded /
/// pruned" from a recorded 0.0 — the per-tick record path writes three
/// array slots instead of rebalancing two `BTreeMap`s per measurement.
#[derive(Debug, Clone, Default)]
struct RecordedLoads {
    server_cpu: Vec<f64>,
    server_mem: Vec<f64>,
    server_set: Vec<bool>,
    service_cpu: Vec<f64>,
    service_set: Vec<bool>,
    instance_cpu: Vec<f64>,
    instance_mem: Vec<f64>,
    instance_set: Vec<bool>,
}

/// Grow a dense lane so `idx` is addressable.
fn grow_to<T: Clone + Default>(lane: &mut Vec<T>, idx: usize) {
    if lane.len() <= idx {
        lane.resize(idx + 1, T::default());
    }
}

impl RecordedLoads {
    /// Record the latest measurement for `subject`.
    fn set(&mut self, subject: Subject, cpu: f64, mem: f64) {
        match subject {
            Subject::Server(id) => {
                let idx = id.index();
                grow_to(&mut self.server_cpu, idx);
                grow_to(&mut self.server_mem, idx);
                grow_to(&mut self.server_set, idx);
                self.server_cpu[idx] = cpu;
                self.server_mem[idx] = mem;
                self.server_set[idx] = true;
            }
            Subject::Service(id) => {
                let idx = id.index();
                grow_to(&mut self.service_cpu, idx);
                grow_to(&mut self.service_set, idx);
                self.service_cpu[idx] = cpu;
                self.service_set[idx] = true;
            }
            Subject::Instance(id) => {
                let idx = id.index();
                grow_to(&mut self.instance_cpu, idx);
                grow_to(&mut self.instance_mem, idx);
                grow_to(&mut self.instance_set, idx);
                self.instance_cpu[idx] = cpu;
                self.instance_mem[idx] = mem;
                self.instance_set[idx] = true;
            }
        }
    }

    /// Forget `subject` (it departed the landscape).
    fn remove(&mut self, subject: Subject) {
        let (lane, idx) = match subject {
            Subject::Server(id) => (&mut self.server_set, id.index()),
            Subject::Service(id) => (&mut self.service_set, id.index()),
            Subject::Instance(id) => (&mut self.instance_set, id.index()),
        };
        if let Some(set) = lane.get_mut(idx) {
            *set = false;
        }
    }

    /// All recorded subjects: servers, then services, then instances, each
    /// ascending — the same order as [`Subject`]'s derived `Ord` gave the
    /// old map-backed storage.
    fn subjects(&self) -> impl Iterator<Item = Subject> + '_ {
        let servers = self
            .server_set
            .iter()
            .enumerate()
            .filter(|(_, &set)| set)
            .map(|(i, _)| Subject::Server(ServerId::new(i as u32)));
        let services = self
            .service_set
            .iter()
            .enumerate()
            .filter(|(_, &set)| set)
            .map(|(i, _)| Subject::Service(ServiceId::new(i as u32)));
        let instances = self
            .instance_set
            .iter()
            .enumerate()
            .filter(|(_, &set)| set)
            .map(|(i, _)| Subject::Instance(InstanceId::new(i as u32)));
        servers.chain(services).chain(instances)
    }
}

impl LoadView for RecordedLoads {
    fn cpu(&self, subject: Subject) -> f64 {
        let (set, cpu, idx) = match subject {
            Subject::Server(id) => (&self.server_set, &self.server_cpu, id.index()),
            Subject::Service(id) => (&self.service_set, &self.service_cpu, id.index()),
            Subject::Instance(id) => (&self.instance_set, &self.instance_cpu, id.index()),
        };
        if set.get(idx).copied().unwrap_or(false) {
            cpu[idx]
        } else {
            0.0
        }
    }
    fn mem(&self, subject: Subject) -> f64 {
        let (set, mem, idx) = match subject {
            Subject::Server(id) => (&self.server_set, &self.server_mem, id.index()),
            Subject::Service(_) => return 0.0,
            Subject::Instance(id) => (&self.instance_set, &self.instance_mem, id.index()),
        };
        if set.get(idx).copied().unwrap_or(false) {
            mem[idx]
        } else {
            0.0
        }
    }
}

/// A confirmed trigger awaiting dispatch, tagged with its provenance: a
/// forecast-driven (proactive) trigger carries the predicted load so the
/// controller can plan against the *predicted* situation rather than the
/// still-calm present.
///
/// Public so a sharded control plane can take a supervisor's confirmed
/// triggers ([`Supervisor::tick_collect`]) and broker dispatch through the
/// lease table instead of letting each supervisor act unilaterally.
#[derive(Debug, Clone)]
pub struct PendingTrigger {
    /// The confirmed trigger.
    pub event: TriggerEvent,
    /// Predicted CPU load of the trigger subject, for proactive triggers.
    pub forecast: Option<f64>,
}

/// Load view for planning a proactive trigger: the fired subject's load is
/// replaced by the forecast, and the loads of its co-located instances and
/// services are scaled by the same factor (the forecast is a uniform demand
/// multiplier on the subject — the instance mix does not change between now
/// and the predicted overload). Every other subject — in particular the
/// candidate target hosts of a scale-out or move — keeps its current,
/// measured load.
struct ForecastView<'a> {
    inner: &'a RecordedLoads,
    cpu_overrides: BTreeMap<Subject, f64>,
}

impl<'a> ForecastView<'a> {
    fn new(
        inner: &'a RecordedLoads,
        landscape: &Landscape,
        subject: Subject,
        predicted: f64,
    ) -> Self {
        let current = inner.cpu(subject);
        // With a meaningful current load the co-located subjects scale by
        // the same demand ratio; from a near-idle baseline the best
        // projection available is the predicted level itself.
        let ratio = if current > 0.05 {
            predicted / current
        } else {
            f64::INFINITY
        };
        let scale = |load: f64| {
            if ratio.is_finite() {
                (load * ratio).min(1.0)
            } else {
                predicted.min(1.0)
            }
        };
        let mut cpu_overrides = BTreeMap::new();
        cpu_overrides.insert(subject, predicted.min(1.0));
        match subject {
            Subject::Server(server) => {
                for instance_id in landscape.instances_on(server) {
                    let Ok(inst) = landscape.instance(instance_id) else {
                        continue;
                    };
                    cpu_overrides.insert(
                        Subject::Instance(instance_id),
                        scale(inner.cpu(Subject::Instance(instance_id))),
                    );
                    cpu_overrides
                        .entry(Subject::Service(inst.service))
                        .or_insert_with(|| scale(inner.cpu(Subject::Service(inst.service))));
                }
            }
            Subject::Service(service) => {
                for instance_id in landscape.instances_of(service) {
                    cpu_overrides.insert(
                        Subject::Instance(instance_id),
                        scale(inner.cpu(Subject::Instance(instance_id))),
                    );
                }
            }
            Subject::Instance(_) => {}
        }
        ForecastView {
            inner,
            cpu_overrides,
        }
    }
}

impl LoadView for ForecastView<'_> {
    fn cpu(&self, subject: Subject) -> f64 {
        self.cpu_overrides
            .get(&subject)
            .copied()
            .unwrap_or_else(|| self.inner.cpu(subject))
    }
    fn mem(&self, subject: Subject) -> f64 {
        self.inner.mem(subject)
    }
}

/// A rejected call into the [`Supervisor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SupervisorError {
    /// `now` ran backwards relative to an earlier `beat`/`tick`/`poll`.
    /// Accepting it would silently corrupt the heartbeat miss windows
    /// (a stale beat could reconcile a genuinely dead subject) and the
    /// protection registry's expiry arithmetic, so the call is refused
    /// before any state changes.
    NonMonotonicTime {
        /// The rejected timestamp.
        now: SimTime,
        /// The latest timestamp the supervisor has already processed.
        last: SimTime,
    },
}

impl std::fmt::Display for SupervisorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SupervisorError::NonMonotonicTime { now, last } => write!(
                f,
                "time ran backwards: {}s is earlier than the already-processed {}s",
                now.as_secs(),
                last.as_secs()
            ),
        }
    }
}

impl std::error::Error for SupervisorError {}

/// Everything configurable about a [`Supervisor`]. The default reproduces
/// the paper's synchronous facade exactly: paper rule bases and thresholds,
/// an instant infallible execution substrate, heartbeat detection that stays
/// dormant until the first [`Supervisor::beat`], and no proactive
/// triggering.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Fuzzy rule bases for action and server selection.
    pub rule_bases: RuleBases,
    /// Controller thresholds, protection time, execution mode defaults.
    pub controller: ControllerConfig,
    /// The action-execution substrate. [`ExecutorConfig::reliable`] (the
    /// default) completes every dispatch instantly and infallibly,
    /// reproducing synchronous execution bit for bit.
    pub executor: ExecutorConfig,
    /// Seed of the executor's own RNG stream (only drawn from when the
    /// substrate has non-zero latency span or failure probability).
    pub executor_seed: u64,
    /// Heartbeat suspect/confirm protocol parameters.
    pub heartbeats: HeartbeatConfig,
    /// Enable forecast-driven proactive triggers over the built-in load
    /// archive. `None` (the default) keeps the control plane purely
    /// reactive.
    pub proactive: Option<ProactiveConfig>,
    /// Minimum spacing between proactive firings for the same subject — a
    /// hot forecast must not storm the controller every tick.
    pub proactive_cooldown: SimDuration,
    /// How often the (comparatively expensive) proactive forecast checks
    /// run; triggers still dispatch on the next tick after a check fires.
    pub proactive_every: SimDuration,
}

impl SupervisorConfig {
    /// Check the configuration for values and combinations that cannot
    /// work, mirroring [`ExecutorConfig::validate`] and
    /// [`HeartbeatConfig::validate`] (both of which this delegates to).
    ///
    /// `executor_seed` itself has no invalid values — any `u64` seeds a
    /// valid stream, and a zero-draw substrate (the default
    /// [`ExecutorConfig::reliable`]) never consults it — but the proactive
    /// cadence/cooldown pair is checked as a combination: a zero check
    /// cadence would re-run the forecast scan every tick, and a cooldown
    /// shorter than the cadence is unenforceable (firings cannot be spaced
    /// more finely than checks run), so both are almost certainly a
    /// misconfigured unit rather than an intent.
    pub fn validate(&self) -> Result<(), String> {
        self.executor.validate()?;
        self.heartbeats.validate()?;
        if self.proactive.is_some() {
            if self.proactive_every == SimDuration::ZERO {
                return Err("proactive_every must be positive — a zero cadence re-runs \
                     the forecast scan every tick"
                    .into());
            }
            if self.proactive_cooldown < self.proactive_every {
                return Err(format!(
                    "proactive_cooldown ({}s) shorter than proactive_every ({}s) is \
                     unenforceable: firings cannot be spaced more finely than checks run",
                    self.proactive_cooldown.as_secs(),
                    self.proactive_every.as_secs()
                ));
            }
        }
        Ok(())
    }
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            rule_bases: RuleBases::paper_defaults(),
            controller: ControllerConfig::default(),
            executor: ExecutorConfig::reliable(),
            executor_seed: 0,
            heartbeats: HeartbeatConfig::default(),
            proactive: None,
            proactive_cooldown: SimDuration::from_minutes(30),
            proactive_every: SimDuration::from_minutes(10),
        }
    }
}

/// Owner-scoped ingestion: the shards this replica runs monitoring and
/// archive state for. Subjects outside the scope only update the
/// replicated latest-value load view ([`Supervisor::apply_remote_load`]).
#[derive(Debug, Clone)]
struct MonitorScope {
    map: ShardMap,
    owned: BTreeSet<ShardId>,
}

/// The ready-wired AutoGlobe control plane.
#[derive(Debug)]
pub struct Supervisor {
    landscape: Landscape,
    controller: AutoGlobeController,
    monitoring: LoadMonitoringSystem,
    archive: LoadArchive,
    loads: RecordedLoads,
    scope: Option<MonitorScope>,
    /// Landscape revision at the last registration/prune pass. Quiet
    /// intervals (no landscape mutation, no scope change) skip both
    /// landscape walks entirely.
    seen_revision: Option<u64>,
    pending_triggers: Vec<PendingTrigger>,
    executed: Vec<ActionRecord>,
    executor: ActionExecutor,
    heartbeats: HeartbeatMonitor,
    heartbeat_log: Vec<HeartbeatEvent>,
    proactive: Option<ProactiveTrigger>,
    proactive_cooldown: SimDuration,
    proactive_every: SimDuration,
    last_proactive_check: Option<SimTime>,
    last_proactive: BTreeMap<Subject, SimTime>,
    proactive_firings: Vec<ProactiveFiring>,
    hints: HintBook,
    execution_log: Vec<ExecutionEvent>,
    recovery_log: Vec<RecoveryRecord>,
    last_now: Option<SimTime>,
}

/// A self-healing outcome from a heartbeat-confirmed failure, recorded so
/// harnesses and the sharded control plane can account for (and replicate)
/// recoveries that [`Supervisor::tick`] performed internally.
#[derive(Debug, Clone)]
pub struct RecoveryRecord {
    /// The confirmed-dead subject the self-healing path ran for.
    pub subject: Subject,
    /// When the failure was confirmed (= when recovery ran).
    pub time: SimTime,
    /// What the controller recovered and what it had to give up on.
    pub outcome: RecoveryOutcome,
}

impl Supervisor {
    /// Supervise `landscape` with the paper's default configuration.
    pub fn new(landscape: Landscape) -> Self {
        Self::with_config(landscape, SupervisorConfig::default())
    }

    /// Supervise with an explicit configuration.
    ///
    /// # Panics
    /// Panics when the configuration fails [`SupervisorConfig::validate`]
    /// (invalid executor/heartbeat settings or an unenforceable proactive
    /// cadence/cooldown combination).
    pub fn with_config(landscape: Landscape, config: SupervisorConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid supervisor config: {e}");
        }
        let mut monitoring = LoadMonitoringSystem::new();
        for server in landscape.server_ids() {
            let idx = landscape
                .server(server)
                .map(|s| s.performance_index)
                .unwrap_or(1.0);
            monitoring.register(Subject::Server(server), SubjectConfig::paper_defaults(idx));
        }
        for service in landscape.service_ids() {
            monitoring.register(Subject::Service(service), SubjectConfig::service_defaults());
        }
        Supervisor {
            landscape,
            controller: AutoGlobeController::with_rule_bases(config.rule_bases, config.controller),
            monitoring,
            archive: LoadArchive::new(SimDuration::from_minutes(1)),
            loads: RecordedLoads::default(),
            scope: None,
            seen_revision: None,
            pending_triggers: Vec::new(),
            executed: Vec::new(),
            executor: ActionExecutor::new(config.executor, config.executor_seed),
            heartbeats: HeartbeatMonitor::new(config.heartbeats),
            heartbeat_log: Vec::new(),
            proactive: config
                .proactive
                .map(|p| ProactiveTrigger::with_config(p, Default::default())),
            proactive_cooldown: config.proactive_cooldown,
            proactive_every: config.proactive_every,
            last_proactive_check: None,
            last_proactive: BTreeMap::new(),
            proactive_firings: Vec::new(),
            hints: HintBook::new(),
            execution_log: Vec::new(),
            recovery_log: Vec::new(),
            last_now: None,
        }
    }

    /// The supervised landscape.
    pub fn landscape(&self) -> &Landscape {
        &self.landscape
    }

    /// The latest-value loads planning reads (the sharded plane's
    /// replication tests compare replicas through it).
    #[cfg(test)]
    pub(crate) fn load_view(&self) -> &dyn LoadView {
        &self.loads
    }

    /// The longest server, service and instance lane of the load view.
    #[cfg(test)]
    pub(crate) fn load_lane_lens(&self) -> [usize; 3] {
        let l = &self.loads;
        [
            l.server_cpu
                .len()
                .max(l.server_mem.len())
                .max(l.server_set.len()),
            l.service_cpu.len().max(l.service_set.len()),
            l.instance_cpu
                .len()
                .max(l.instance_mem.len())
                .max(l.instance_set.len()),
        ]
    }

    /// Mutable access for administrative changes (registering servers and
    /// services). Newly added entities are picked up by monitoring on the
    /// next [`Supervisor::tick`]; departed ones (stopped instances) are
    /// pruned from monitoring, the load view and the heartbeat watch set.
    pub fn landscape_mut(&mut self) -> &mut Landscape {
        &mut self.landscape
    }

    /// The controller (to switch execution modes, confirm pending actions,
    /// or inspect the protection registry).
    pub fn controller(&self) -> &AutoGlobeController {
        &self.controller
    }

    /// Mutable controller access.
    pub fn controller_mut(&mut self) -> &mut AutoGlobeController {
        &mut self.controller
    }

    /// The historic load archive of servers and services, the subjects
    /// proactive checks forecast. Instance measurements reach the load
    /// view and any registered advisor, not the archive. It holds 32 bytes
    /// per archived subject and one-minute bucket, and under a monitor
    /// scope only the owned subjects are archived.
    pub fn archive(&self) -> &LoadArchive {
        &self.archive
    }

    /// Administrator reservations merged into proactive forecasts
    /// ("mission-critical batch run at 22:00 needs 2 CPU units").
    pub fn hints(&self) -> &HintBook {
        &self.hints
    }

    /// Mutable access to the reservation book.
    pub fn hints_mut(&mut self) -> &mut HintBook {
        &mut self.hints
    }

    /// Every action executed so far.
    pub fn executed(&self) -> &[ActionRecord] {
        &self.executed
    }

    /// Every proactive firing so far (trigger + predicted crossing time;
    /// [`ProactiveFiring::lead`] is the head start the forecast bought).
    pub fn proactive_firings(&self) -> &[ProactiveFiring] {
        &self.proactive_firings
    }

    /// Number of operations currently in flight on the execution substrate.
    pub fn in_flight(&self) -> usize {
        self.executor.in_flight()
    }

    /// True when no operation is in flight and nothing is fenced.
    pub fn is_idle(&self) -> bool {
        self.executor.is_idle()
    }

    /// Subjects currently under heartbeat suspicion.
    pub fn suspected(&self) -> Vec<Subject> {
        self.heartbeats.suspected().collect()
    }

    /// Subjects currently enrolled in the heartbeat watch set — a harness
    /// that emits liveness signals iterates this rather than guessing who
    /// the detector cares about (a falsely confirmed host, for example, is
    /// quarantined out of the watch set until it is re-certified).
    pub fn watched(&self) -> Vec<Subject> {
        self.heartbeats.watched().collect()
    }

    /// Drain and return the controller's event log.
    pub fn drain_events(&mut self) -> Vec<ControllerEvent> {
        self.controller.drain_log()
    }

    /// Drain and return the heartbeat detector's event log
    /// (suspected / reconciled / confirmed).
    pub fn drain_heartbeat_events(&mut self) -> Vec<HeartbeatEvent> {
        std::mem::take(&mut self.heartbeat_log)
    }

    /// Drain and return the execution substrate's event log (completions,
    /// retries, timeouts, fenced late successes, abandonments).
    pub fn drain_execution_events(&mut self) -> Vec<ExecutionEvent> {
        std::mem::take(&mut self.execution_log)
    }

    /// Drain and return the self-healing outcomes of heartbeat-confirmed
    /// failures handled inside [`Supervisor::tick`] — the restarts a
    /// harness must account for (and a replica must replay) even though
    /// they are not dispatched through the execution substrate.
    pub fn drain_recoveries(&mut self) -> Vec<RecoveryRecord> {
        std::mem::take(&mut self.recovery_log)
    }

    /// Refuse clocks that run backwards; equal timestamps are fine (`tick`
    /// then `poll` at the same instant is the documented idiom).
    fn advance_clock(&mut self, now: SimTime) -> Result<(), SupervisorError> {
        if let Some(last) = self.last_now {
            if now < last {
                return Err(SupervisorError::NonMonotonicTime { now, last });
            }
        }
        self.last_now = Some(now);
        Ok(())
    }

    /// Record a server measurement. A server index the landscape never
    /// issued (at or above [`Landscape::num_servers`]) is dropped before
    /// it touches any state.
    pub fn record_server(&mut self, server: ServerId, time: SimTime, cpu: f64, mem: f64) {
        self.record(Subject::Server(server), time, cpu, mem);
    }

    /// Record a service (aggregate) measurement. A service index the
    /// landscape never issued (at or above [`Landscape::num_services`]) is
    /// dropped before it touches any state.
    pub fn record_service(&mut self, service: ServiceId, time: SimTime, cpu: f64) {
        self.record(Subject::Service(service), time, cpu, 0.0);
    }

    /// Record an instance measurement. An instance index the landscape
    /// never issued (at or above [`Landscape::instance_id_bound`]) is
    /// dropped before it touches any state; a departed instance's is
    /// handled as before.
    pub fn record_instance(&mut self, instance: InstanceId, time: SimTime, cpu: f64) {
        self.record(Subject::Instance(instance), time, cpu, 0.0);
    }

    /// Whether the landscape ever issued `subject`'s id. The load view and
    /// the archive keep dense lanes indexed by raw id, so a never-issued
    /// id (say, one near `u32::MAX`) would grow them to its size.
    fn issued(&self, subject: Subject) -> bool {
        match subject {
            Subject::Server(s) => s.index() < self.landscape.num_servers(),
            Subject::Service(s) => s.index() < self.landscape.num_services(),
            Subject::Instance(i) => i.index() < self.landscape.instance_id_bound() as usize,
        }
    }

    fn record(&mut self, subject: Subject, time: SimTime, cpu: f64, mem: f64) {
        if !self.issued(subject) {
            return;
        }
        self.loads.set(subject, cpu, mem);
        // Outside the owner scope only the replicated load view is kept —
        // no foreign monitoring or archive state at all.
        if !self.owns_subject(subject) {
            return;
        }
        // The archive keeps what `ProactiveTrigger::check` reads: servers
        // and services. Instance history would never be queried.
        if !matches!(subject, Subject::Instance(_)) {
            self.archive.record(subject, time, cpu, mem);
        }
        // Instances are not registered as monitored subjects by default
        // (triggers come from servers and services), but measurements for
        // registered ones flow through; `observe` ignores the others.
        if let Some(trigger) = self
            .monitoring
            .observe(subject, LoadSample::new(time, cpu, mem))
        {
            self.pending_triggers.push(PendingTrigger {
                event: trigger,
                forecast: None,
            });
        }
    }

    /// Record a liveness signal. A subject's first beat enrolls it in the
    /// watch set; from then on every [`Supervisor::tick`] it must either
    /// beat or accrue a miss. Returns `Ok(false)` when the beat was fenced:
    /// the subject does not exist in the landscape (e.g. a zombie process
    /// of an already-stopped instance). Returns
    /// [`SupervisorError::NonMonotonicTime`] for a beat stamped earlier
    /// than already-processed time — accepting it would corrupt the miss
    /// windows the failure detector counts on.
    pub fn beat(&mut self, subject: Subject, now: SimTime) -> Result<bool, SupervisorError> {
        self.advance_clock(now)?;
        Ok(self.beat_inner(subject, now))
    }

    fn beat_inner(&mut self, subject: Subject, now: SimTime) -> bool {
        if !self.heartbeats.is_watched(subject) {
            let exists = match subject {
                Subject::Server(s) => self.landscape.server(s).is_ok(),
                Subject::Service(s) => self.landscape.service(s).is_ok(),
                Subject::Instance(i) => self.landscape.instance(i).is_ok(),
            };
            if !exists {
                return false;
            }
            self.heartbeats.watch(subject);
        }
        self.heartbeats.beat(subject, now)
    }

    /// Report a crashed instance; the self-healing path restarts it
    /// immediately (no watch time — the process is already gone).
    pub fn report_instance_crash(&mut self, instance: InstanceId, now: SimTime) -> RecoveryOutcome {
        self.heartbeats.unwatch(Subject::Instance(instance));
        let event = FailureEvent {
            kind: FailureKind::InstanceCrashed(instance),
            time: now,
        };
        self.controller
            .handle_failure(&event, &mut self.landscape, &self.loads, now)
    }

    /// Report a failed host; it is marked unavailable and all its instances
    /// restart elsewhere.
    pub fn report_server_failure(&mut self, server: ServerId, now: SimTime) -> RecoveryOutcome {
        self.heartbeats.unwatch(Subject::Server(server));
        let event = FailureEvent {
            kind: FailureKind::ServerFailed(server),
            time: now,
        };
        self.controller
            .handle_failure(&event, &mut self.landscape, &self.loads, now)
    }

    /// Mark a previously failed host repaired: it rejoins the pool and the
    /// controller logs a [`ControllerEvent::Repaired`] for the event view.
    ///
    /// Returns `Err` for a server the landscape does not know, and
    /// `Ok(None)` for a server that never failed (it is already available —
    /// nothing is logged, no `Repaired` event is fabricated).
    pub fn report_server_repaired(
        &mut self,
        server: ServerId,
        now: SimTime,
    ) -> Result<Option<ControllerEvent>, LandscapeError> {
        self.landscape.server(server)?;
        if self.landscape.is_available(server) {
            return Ok(None);
        }
        self.landscape.set_available(server, true)?;
        Ok(Some(self.controller.note_repaired(server, now)))
    }

    /// Enroll `subject` in the heartbeat watch set without waiting for its
    /// first beat — the sharded control plane calls this when a successor
    /// adopts a shard, so subjects that were already silent when the old
    /// owner died still accrue misses (a dead server that never beats the
    /// new owner must not be invisible to it). Returns false (and watches
    /// nothing) for a subject the landscape does not know.
    pub fn watch(&mut self, subject: Subject) -> bool {
        let exists = match subject {
            Subject::Server(s) => self.landscape.server(s).is_ok(),
            Subject::Service(s) => self.landscape.service(s).is_ok(),
            Subject::Instance(i) => self.landscape.instance(i).is_ok(),
        };
        if exists {
            self.heartbeats.watch(subject);
        }
        exists
    }

    /// Remove `subject` from the heartbeat watch set (e.g. a deployment
    /// agent decommissioning a host: silence is expected, not a failure).
    /// Returns whether it was watched.
    pub fn unwatch(&mut self, subject: Subject) -> bool {
        self.heartbeats.unwatch(subject)
    }

    /// Retry the restart of an instance the self-healing path had to give
    /// up on ([`RecoveryOutcome::lost`]) — capacity may have returned
    /// since. Returns the replacement and its host when a feasible host
    /// exists now.
    pub fn retry_restart(
        &mut self,
        service: ServiceId,
        old_instance: InstanceId,
        now: SimTime,
    ) -> Option<(InstanceId, ServerId)> {
        self.controller
            .retry_restart(service, old_instance, &mut self.landscape, &self.loads, now)
    }

    /// Apply an action decided, executed and recorded by *another*
    /// supervisor replica. Replicas of the same landscape that record the
    /// same measurements stay in lockstep by replaying each owner-executed
    /// record: the action applies to this replica's landscape and the
    /// involved entities are protected exactly as the owner protected
    /// them. The record is not re-logged — the owner's log is the
    /// authoritative one.
    pub fn apply_remote(&mut self, record: &ActionRecord) -> Result<(), LandscapeError> {
        self.landscape.apply(&record.action)?;
        self.controller
            .protect_involved(&record.action, &self.landscape, record.time);
        Ok(())
    }

    /// Replay a failure confirmation another replica's self-healing path
    /// already handled ([`Supervisor::drain_recoveries`] on the owner).
    /// Deterministic planning over identical state yields the identical
    /// recovery, keeping the replicas' landscapes in lockstep.
    pub fn replay_failure(&mut self, subject: Subject, time: SimTime) -> Option<RecoveryOutcome> {
        let kind = match subject {
            Subject::Server(server) => FailureKind::ServerFailed(server),
            Subject::Instance(instance) => FailureKind::InstanceCrashed(instance),
            Subject::Service(_) => return None,
        };
        self.heartbeats.unwatch(subject);
        let failure = FailureEvent { kind, time };
        Some(
            self.controller
                .handle_failure(&failure, &mut self.landscape, &self.loads, time),
        )
    }

    /// Restrict monitoring and archive ingestion to `owned` shards of
    /// `map` (delta replication's owner scope). Advisors for subjects
    /// outside the scope are unregistered; from here on, foreign
    /// measurements flow only into the replicated latest-value load view
    /// (via [`Supervisor::apply_remote_load`] or a gated
    /// [`Supervisor::record_server`]-family call), never into
    /// monitoring or the archive. Call right after construction, before
    /// any measurements are recorded — existing archive state is not
    /// rolled back.
    pub fn set_monitor_scope(&mut self, map: ShardMap, owned: BTreeSet<ShardId>) {
        self.scope = Some(MonitorScope { map, owned });
        self.seen_revision = None;
        let foreign: Vec<Subject> = self
            .landscape
            .server_ids()
            .map(Subject::Server)
            .chain(self.landscape.service_ids().map(Subject::Service))
            .filter(|&s| !self.owns_subject(s))
            .collect();
        for subject in foreign {
            self.monitoring.unregister(subject);
        }
    }

    /// Drop the monitor scope and register fresh advisors for every
    /// landscape subject — the inverse of
    /// [`Supervisor::set_monitor_scope`], under the same contract: call
    /// before any measurements are recorded, so "fresh" and "never scoped"
    /// are the same state. Only the sharded plane's full-stream test
    /// oracle needs it.
    #[cfg(test)]
    pub(crate) fn clear_monitor_scope(&mut self) {
        self.scope = None;
        self.seen_revision = None;
        self.register_new_subjects();
    }

    /// Extend the monitor scope with a re-adopted shard. No advisors are
    /// created here — the adopter installs restored ones via
    /// [`Supervisor::install_advisor`] (or lets the next tick register
    /// fresh ones for never-measured subjects). No-op without a scope.
    pub fn adopt_shard(&mut self, shard: ShardId) {
        if let Some(scope) = &mut self.scope {
            scope.owned.insert(shard);
            self.seen_revision = None;
        }
    }

    /// True when this replica runs monitoring for `subject`: always,
    /// without a scope; with one, when the subject's shard is owned.
    /// Instances follow their host server's shard; an instance the
    /// landscape no longer knows is nobody's.
    fn owns_subject(&self, subject: Subject) -> bool {
        let Some(scope) = &self.scope else {
            return true;
        };
        let shard = match subject {
            Subject::Server(s) => scope.map.shard_of(s),
            Subject::Service(s) => scope.map.shard_of_service(s),
            Subject::Instance(i) => match self.landscape.instance(i) {
                Ok(inst) => scope.map.shard_of(inst.server),
                Err(_) => return false,
            },
        };
        scope.owned.contains(&shard)
    }

    /// Apply a measurement another replica's owner ingested: update only
    /// the replicated latest-value load view — the read-only planning
    /// input for cross-shard candidate hosts — without touching
    /// monitoring or archive state. This is the load section of a shard
    /// delta, applied exactly where `apply_remote` applies the mutation
    /// section. A subject whose id the landscape never issued is dropped,
    /// as [`Supervisor::record_server`] drops it.
    pub fn apply_remote_load(&mut self, subject: Subject, cpu: f64, mem: f64) {
        if self.issued(subject) {
            self.loads.set(subject, cpu, mem);
        }
    }

    /// Install a pre-built advisor (the sharded plane's re-adoption path
    /// restores the dead owner's advisors from replicated deltas and
    /// installs them here).
    pub fn install_advisor(&mut self, advisor: Advisor) {
        self.monitoring.install(advisor);
    }

    /// The advisor currently monitoring `subject`, if any (delta
    /// publication snapshots its watch state).
    pub fn advisor(&self, subject: Subject) -> Option<&Advisor> {
        self.monitoring.advisor(subject)
    }

    /// Number of triggers confirmed but not yet dispatched — the sharded
    /// plane samples this around each routed measurement to tag triggers
    /// with their global arrival sequence.
    pub(crate) fn pending_trigger_count(&self) -> usize {
        self.pending_triggers.len()
    }

    /// Stamp subsequent dispatches with the issuing lease epoch (see
    /// [`ActionExecutor::set_epoch`]). The pre-sharded default is epoch 0.
    pub fn set_execution_epoch(&mut self, epoch: u64) {
        self.executor.set_epoch(epoch);
    }

    /// Fence every in-flight operation issued under a lease epoch older
    /// than `min_epoch` (see [`ActionExecutor::fence_below`]); the fenced
    /// events are also appended to the execution log. The coordination
    /// layer calls this on a deposed shard owner so its in-flight work is
    /// reconciled instead of applied.
    pub fn fence_stale_epochs(&mut self, min_epoch: u64, now: SimTime) -> Vec<ExecutionEvent> {
        let events = self.executor.fence_below(min_epoch, now);
        self.execution_log.extend(events.iter().cloned());
        events
    }

    /// Settle in-flight operations on the execution substrate: apply
    /// completed attempts, schedule retries, fence timeouts. Returns the
    /// actions that completed. With the default reliable substrate
    /// everything completes inside [`Supervisor::tick`], so `poll` is a
    /// no-op between ticks. Rejects a `now` earlier than already-processed
    /// time with [`SupervisorError::NonMonotonicTime`].
    pub fn poll(&mut self, now: SimTime) -> Result<Vec<ActionRecord>, SupervisorError> {
        self.advance_clock(now)?;
        let completed = self.settle(now);
        self.executed.extend(completed.iter().cloned());
        Ok(completed)
    }

    /// Close one monitoring interval: register monitors for new
    /// servers/services, prune state for departed entities, settle
    /// in-flight operations, evaluate heartbeats (confirmed failures run
    /// the self-healing path), run proactive forecast checks, and dispatch
    /// confirmed triggers through the fuzzy controller. Returns the actions
    /// that completed this tick. Rejects a `now` earlier than
    /// already-processed time with [`SupervisorError::NonMonotonicTime`].
    pub fn tick(&mut self, now: SimTime) -> Result<Vec<ActionRecord>, SupervisorError> {
        self.advance_clock(now)?;
        let mut completed = self.prepare_interval(now);
        // Proactive and reactive triggers flow through the same dispatch
        // path — protection mode treats them uniformly.
        for trigger in std::mem::take(&mut self.pending_triggers) {
            completed.extend(self.dispatch_inner(trigger, now));
        }
        Ok(completed)
    }

    /// The first half of [`Supervisor::tick`]: close the monitoring
    /// interval but *return* the confirmed triggers instead of dispatching
    /// them. A sharded control plane uses this to merge the trigger
    /// streams of all shards and broker each dispatch through the lease
    /// table ([`Supervisor::dispatch_trigger`]); a standalone supervisor
    /// has no reason to call it.
    pub fn tick_collect(
        &mut self,
        now: SimTime,
    ) -> Result<(Vec<ActionRecord>, Vec<PendingTrigger>), SupervisorError> {
        self.advance_clock(now)?;
        let completed = self.prepare_interval(now);
        Ok((completed, std::mem::take(&mut self.pending_triggers)))
    }

    /// The second half of [`Supervisor::tick`]: plan and dispatch one
    /// confirmed trigger. `tick(now)` is equivalent to `tick_collect(now)`
    /// followed by `dispatch_trigger` over every returned trigger, in
    /// order.
    pub fn dispatch_trigger(
        &mut self,
        trigger: PendingTrigger,
        now: SimTime,
    ) -> Result<Vec<ActionRecord>, SupervisorError> {
        self.advance_clock(now)?;
        Ok(self.dispatch_inner(trigger, now))
    }

    /// Register/prune subjects, settle earlier dispatches, evaluate
    /// heartbeats and proactive checks — everything [`Supervisor::tick`]
    /// does before dispatching this interval's triggers.
    fn prepare_interval(&mut self, now: SimTime) -> Vec<ActionRecord> {
        // Registration and pruning only have work to do when the landscape
        // (or the monitor scope) changed since the last pass; the revision
        // gate makes quiet intervals O(1) instead of a landscape walk.
        let revision = self.landscape.revision();
        if self.seen_revision != Some(revision) {
            self.register_new_subjects();
            self.prune_departed();
            self.seen_revision = Some(revision);
        }

        // Settle operations dispatched on earlier ticks first, so a freed
        // host is visible to this tick's planning.
        let completed = self.settle(now);
        self.executed.extend(completed.iter().cloned());

        self.run_heartbeats(now);
        self.run_proactive(now);
        completed
    }

    /// Plan one confirmed trigger and (in automatic mode) dispatch it on
    /// the execution substrate; returns whatever completed.
    fn dispatch_inner(&mut self, trigger: PendingTrigger, now: SimTime) -> Vec<ActionRecord> {
        let PendingTrigger { event, forecast } = trigger;
        let planned = match forecast {
            // A forecast-driven trigger is planned against the predicted
            // loads — the present ones are exactly what the forecaster says
            // will not last.
            Some(predicted) => {
                let view =
                    ForecastView::new(&self.loads, &self.landscape, event.subject, predicted);
                self.controller
                    .plan_trigger(&event, &self.landscape, &view, now)
            }
            None => self
                .controller
                .plan_trigger(&event, &self.landscape, &self.loads, now),
        };
        if self.controller.mode() == ExecutionMode::SemiAutomatic {
            // Queued for administrator confirmation; nothing reaches the
            // substrate.
            self.controller.commit(planned, &mut self.landscape, now);
            return Vec::new();
        }
        let Some(decided) = planned.decided else {
            return Vec::new();
        };
        self.executor.dispatch(decided, now);
        let completed = self.settle(now);
        self.executed.extend(completed.iter().cloned());
        completed
    }

    /// Register monitors for servers/services added since construction
    /// (owned shards only, when a monitor scope is set).
    fn register_new_subjects(&mut self) {
        for server in self.landscape.server_ids() {
            let subject = Subject::Server(server);
            if !self.monitoring.is_registered(subject) && self.owns_subject(subject) {
                let idx = self
                    .landscape
                    .server(server)
                    .map(|s| s.performance_index)
                    .unwrap_or(1.0);
                self.monitoring
                    .register(subject, SubjectConfig::paper_defaults(idx));
            }
        }
        for service in self.landscape.service_ids() {
            let subject = Subject::Service(service);
            if !self.monitoring.is_registered(subject) && self.owns_subject(subject) {
                self.monitoring
                    .register(subject, SubjectConfig::service_defaults());
            }
        }
    }

    /// Drop recorded loads, monitors, heartbeat watches and proactive state
    /// for entities that left the landscape — a stopped instance must not
    /// keep feeding stale CPU into server selection.
    fn prune_departed(&mut self) {
        let candidates: Vec<Subject> = self
            .loads
            .subjects()
            .chain(self.heartbeats.watched())
            .collect();
        for subject in candidates {
            let departed = match subject {
                Subject::Server(s) => self.landscape.server(s).is_err(),
                Subject::Service(s) => self.landscape.service(s).is_err(),
                Subject::Instance(i) => self.landscape.instance(i).is_err(),
            };
            if departed {
                self.loads.remove(subject);
                self.monitoring.unregister(subject);
                self.heartbeats.unwatch(subject);
                self.last_proactive.remove(&subject);
            }
        }
        // Pending triggers from a departed subject are stale too.
        let landscape = &self.landscape;
        self.pending_triggers.retain(|t| match t.event.subject {
            Subject::Server(s) => landscape.server(s).is_ok(),
            Subject::Service(s) => landscape.service(s).is_ok(),
            Subject::Instance(i) => landscape.instance(i).is_ok(),
        });
    }

    /// One poll of the execution substrate; non-completion events land in
    /// the execution log, completed records are returned.
    fn settle(&mut self, now: SimTime) -> Vec<ActionRecord> {
        if self.executor.is_idle() {
            return Vec::new();
        }
        let events = self
            .executor
            .poll(now, &mut self.landscape, &mut self.controller);
        let mut completed = Vec::new();
        for event in events {
            if let ExecutionEvent::Completed { record, .. } = &event {
                completed.push(record.clone());
            }
            self.execution_log.push(event);
        }
        completed
    }

    /// Evaluate the heartbeat watch set; confirmed failures flow into the
    /// self-healing path exactly like reported ones.
    fn run_heartbeats(&mut self, now: SimTime) {
        let events = self.heartbeats.tick(now);
        for event in &events {
            if let HeartbeatEvent::Confirmed { subject, time, .. } = event {
                let kind = match *subject {
                    Subject::Server(server) => Some(FailureKind::ServerFailed(server)),
                    Subject::Instance(instance) => Some(FailureKind::InstanceCrashed(instance)),
                    // Services have no single process to fail; their
                    // instances are watched individually.
                    Subject::Service(_) => None,
                };
                if let Some(kind) = kind {
                    let failure = FailureEvent { kind, time: *time };
                    let outcome = self.controller.handle_failure(
                        &failure,
                        &mut self.landscape,
                        &self.loads,
                        now,
                    );
                    self.recovery_log.push(RecoveryRecord {
                        subject: *subject,
                        time: *time,
                        outcome,
                    });
                }
            }
        }
        self.heartbeat_log.extend(events);
    }

    /// Run proactive forecast checks over the archive (when enabled and the
    /// check cadence is due); firings become pending triggers.
    fn run_proactive(&mut self, now: SimTime) {
        let Some(proactive) = &self.proactive else {
            return;
        };
        if let Some(last) = self.last_proactive_check {
            if now.since(last) < self.proactive_every {
                return;
            }
        }
        self.last_proactive_check = Some(now);
        self.hints.expire(now);

        // Servers first, then services — deterministic check order. A
        // monitor scope restricts checks to owned subjects (foreign
        // archives are empty under delta replication and could never
        // fire anyway).
        let mut subjects: Vec<(Subject, f64)> = Vec::new();
        for server in self.landscape.server_ids() {
            if !self.landscape.is_available(server) || !self.owns_subject(Subject::Server(server)) {
                continue;
            }
            let idx = self
                .landscape
                .server(server)
                .map(|s| s.performance_index)
                .unwrap_or(1.0);
            subjects.push((Subject::Server(server), idx));
        }
        for service in self.landscape.service_ids() {
            if !self.owns_subject(Subject::Service(service)) {
                continue;
            }
            // Reserved demand converts to load against the total capacity
            // currently hosting the service.
            let capacity: f64 = self
                .landscape
                .instances_of(service)
                .iter()
                .filter_map(|&i| self.landscape.instance(i).ok())
                .filter_map(|inst| self.landscape.server(inst.server).ok())
                .map(|s| s.performance_index)
                .sum();
            let capacity = if capacity > 0.0 { capacity } else { 1.0 };
            subjects.push((Subject::Service(service), capacity));
        }

        let mut firings = Vec::new();
        for (subject, capacity) in subjects {
            if let Some(&last) = self.last_proactive.get(&subject) {
                if now.since(last) < self.proactive_cooldown {
                    continue;
                }
            }
            if let Some(firing) =
                proactive.check(&self.archive, &self.hints, subject, capacity, now)
            {
                firings.push(firing);
            }
        }
        for firing in firings {
            self.last_proactive.insert(firing.event.subject, now);
            self.pending_triggers.push(PendingTrigger {
                event: firing.event,
                forecast: Some(firing.event.average_cpu),
            });
            self.proactive_firings.push(firing);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autoglobe_controller::ExecutionMode;
    use autoglobe_landscape::{ActionKind, ServerSpec, ServiceKind, ServiceSpec};

    fn minimal() -> (Supervisor, ServerId, ServerId, ServiceId, InstanceId) {
        let mut landscape = Landscape::new();
        let blade = landscape
            .add_server(ServerSpec::fsc_bx300("Blade1"))
            .unwrap();
        let big = landscape.add_server(ServerSpec::hp_bl40p("Big")).unwrap();
        let fi = landscape
            .add_service(ServiceSpec::new("FI", ServiceKind::ApplicationServer))
            .unwrap();
        let instance = landscape.start_instance(fi, blade).unwrap();
        (Supervisor::new(landscape), blade, big, fi, instance)
    }

    #[test]
    fn sustained_overload_leads_to_action() {
        let (mut sup, blade, big, fi, instance) = minimal();
        let mut t = SimTime::ZERO;
        let mut all_executed = Vec::new();
        for _ in 0..15 {
            t += SimDuration::from_minutes(1);
            sup.record_server(blade, t, 0.95, 0.5);
            sup.record_instance(instance, t, 0.95);
            sup.record_service(fi, t, 0.95);
            all_executed.extend(sup.tick(t).unwrap());
        }
        assert!(
            !all_executed.is_empty(),
            "controller must act on sustained overload"
        );
        // Capacity arrived on the idle big host: either the hot instance
        // was scaled up to it, or (single-instance service) a redundant
        // instance was scaled out onto it.
        assert!(
            sup.landscape().instance(instance).unwrap().server == big
                || sup.landscape().instances_on(big).len() == 1,
            "expected capacity on the big host"
        );
        assert_eq!(sup.executed().len(), all_executed.len());
        assert!(sup.is_idle(), "reliable substrate completes inside tick");
    }

    #[test]
    fn short_peak_does_not_act() {
        let (mut sup, blade, _big, fi, instance) = minimal();
        let mut t = SimTime::ZERO;
        // Three hot minutes, then calm.
        for minute in 0..30 {
            t += SimDuration::from_minutes(1);
            let cpu = if minute < 3 { 0.95 } else { 0.3 };
            sup.record_server(blade, t, cpu, 0.3);
            sup.record_instance(instance, t, cpu);
            sup.record_service(fi, t, cpu);
            let executed = sup.tick(t).unwrap();
            assert!(executed.is_empty(), "no action on a short peak");
        }
    }

    #[test]
    fn new_services_are_picked_up_by_monitoring() {
        let (mut sup, blade, _big, _fi, _instance) = minimal();
        let hr = sup
            .landscape_mut()
            .add_service(ServiceSpec::new("HR", ServiceKind::ApplicationServer))
            .unwrap();
        let hr_inst = sup.landscape_mut().start_instance(hr, blade).unwrap();
        sup.tick(SimTime::ZERO).unwrap(); // registers the monitor
        let mut t = SimTime::ZERO;
        let mut acted = false;
        for _ in 0..15 {
            t += SimDuration::from_minutes(1);
            sup.record_service(hr, t, 0.9);
            sup.record_instance(hr_inst, t, 0.9);
            sup.record_server(blade, t, 0.9, 0.3);
            acted |= !sup.tick(t).unwrap().is_empty();
        }
        assert!(acted, "the dynamically added service is supervised");
    }

    #[test]
    fn semi_automatic_mode_queues_through_supervisor() {
        let (mut sup, blade, _big, fi, instance) = minimal();
        sup.controller_mut().set_mode(ExecutionMode::SemiAutomatic);
        let mut t = SimTime::ZERO;
        for _ in 0..15 {
            t += SimDuration::from_minutes(1);
            sup.record_server(blade, t, 0.95, 0.5);
            sup.record_instance(instance, t, 0.95);
            sup.record_service(fi, t, 0.95);
            sup.tick(t).unwrap();
        }
        assert!(sup.executed().is_empty());
        assert!(!sup.controller().pending().is_empty());
        let id = sup.controller().pending()[0].id;
        // Split borrow: confirm needs controller + landscape.
        let Supervisor {
            landscape,
            controller,
            ..
        } = &mut sup;
        let record = controller.confirm_pending(id, landscape, t).unwrap();
        assert!(matches!(
            record.action.kind(),
            ActionKind::ScaleUp | ActionKind::ScaleOut | ActionKind::Move
        ));
    }

    #[test]
    fn archive_accumulates_history() {
        let (mut sup, blade, _big, _fi, _instance) = minimal();
        for minute in 0..60 {
            sup.record_server(blade, SimTime::from_minutes(minute), 0.5, 0.2);
        }
        let avg = sup
            .archive()
            .average_cpu(
                Subject::Server(blade),
                SimTime::ZERO,
                SimTime::from_minutes(60),
            )
            .unwrap();
        assert!((avg - 0.5).abs() < 1e-9);
    }

    #[test]
    fn archive_holds_servers_and_services_only() {
        let (mut sup, blade, _big, fi, instance) = minimal();
        let t = SimTime::from_minutes(1);
        sup.record_server(blade, t, 0.5, 0.2);
        sup.record_service(fi, t, 0.4);
        sup.record_instance(instance, t, 0.3);
        assert_eq!(
            sup.archive().subjects().collect::<Vec<_>>(),
            vec![Subject::Server(blade), Subject::Service(fi)]
        );
        assert_eq!(
            sup.load_view().cpu(Subject::Instance(instance)),
            0.3,
            "the instance's load still reaches the load view"
        );
    }

    #[test]
    fn never_issued_ids_are_dropped_before_any_lane_grows() {
        let (mut fed, blade, big, fi, instance) = minimal();
        let (mut clean, ..) = minimal();
        for minute in 0..3 {
            let t = SimTime::from_minutes(minute);
            for sup in [&mut fed, &mut clean] {
                sup.record_server(blade, t, 0.5, 0.2);
                sup.record_service(fi, t, 0.4);
                sup.record_instance(instance, t, 0.3);
            }
            // Ids near 2^20 of every kind, never issued, through every
            // ingest call.
            for id in [1 << 20, (1 << 20) + 7] {
                fed.record_server(ServerId::new(id), t, 0.9, 0.9);
                fed.record_service(ServiceId::new(id), t, 0.9);
                fed.record_instance(InstanceId::new(id), t, 0.9);
                fed.apply_remote_load(Subject::Server(ServerId::new(id)), 0.9, 0.9);
                fed.apply_remote_load(Subject::Service(ServiceId::new(id)), 0.9, 0.0);
                fed.apply_remote_load(Subject::Instance(InstanceId::new(id)), 0.9, 0.0);
            }
        }
        let landscape = fed.landscape();
        let bounds = [
            landscape.num_servers(),
            landscape.num_services(),
            landscape.instance_id_bound() as usize,
        ];
        let lens = fed.load_lane_lens();
        assert!(
            lens.iter().zip(bounds).all(|(len, bound)| *len <= bound),
            "lanes {lens:?} must stay within the landscape's ids {bounds:?}"
        );
        assert_eq!(lens, clean.load_lane_lens());
        // Real ids answer exactly as on a supervisor never fed the others.
        let subjects = [
            Subject::Server(blade),
            Subject::Server(big),
            Subject::Service(fi),
            Subject::Instance(instance),
        ];
        for subject in subjects {
            let (a, b) = (fed.load_view(), clean.load_view());
            assert_eq!(a.cpu(subject).to_bits(), b.cpu(subject).to_bits());
            assert_eq!(a.mem(subject).to_bits(), b.mem(subject).to_bits());
            let (from, to) = (SimTime::ZERO, SimTime::from_minutes(3));
            assert_eq!(
                fed.archive().series(subject, from, to),
                clean.archive().series(subject, from, to)
            );
        }
        assert_eq!(
            fed.archive().subjects().collect::<Vec<_>>(),
            clean.archive().subjects().collect::<Vec<_>>()
        );
        assert_eq!(fed.archive().bucket_count(), clean.archive().bucket_count());
    }

    #[test]
    fn scoped_supervisor_archives_only_what_it_owns() {
        // Delta replication's owner scope keeps each replica's archive to
        // its own subjects, so the archive's slots, and its memory, cover
        // 1/shards of the landscape.
        let mut landscape = Landscape::new();
        let servers: Vec<ServerId> = (0..8)
            .map(|i| {
                landscape
                    .add_server(ServerSpec::fsc_bx300(format!("Blade{i}")))
                    .unwrap()
            })
            .collect();
        let services: Vec<ServiceId> = (0..8)
            .map(|i| {
                landscape
                    .add_service(ServiceSpec::new(
                        format!("S{i}"),
                        ServiceKind::ApplicationServer,
                    ))
                    .unwrap()
            })
            .collect();
        let map = ShardMap::new(&landscape, 2);
        let server_in = |shard| *servers.iter().find(|&&s| map.shard_of(s) == shard).unwrap();
        let service_in = |shard| {
            *services
                .iter()
                .find(|&&s| map.shard_of_service(s) == shard)
                .unwrap()
        };
        let (own_server, foreign_server) = (server_in(0), server_in(1));
        let (own_service, foreign_service) = (service_in(0), service_in(1));
        let mut sup = Supervisor::new(landscape);
        sup.set_monitor_scope(map, BTreeSet::from([0]));
        let t = SimTime::from_minutes(1);
        sup.record_server(own_server, t, 0.5, 0.2);
        sup.record_server(foreign_server, t, 0.6, 0.3);
        sup.record_service(own_service, t, 0.4);
        sup.record_service(foreign_service, t, 0.7);
        assert_eq!(
            sup.archive().subjects().collect::<Vec<_>>(),
            vec![Subject::Server(own_server), Subject::Service(own_service)]
        );
        assert_eq!(sup.load_view().cpu(Subject::Server(foreign_server)), 0.6);
        assert_eq!(sup.load_view().cpu(Subject::Service(foreign_service)), 0.7);
    }

    /// The default configuration must reproduce the original synchronous
    /// facade bit for bit: identical executed records, identical landscape,
    /// identical controller log against a hand-wired monitoring →
    /// `handle_trigger` reference loop over the same trace.
    #[test]
    fn default_config_matches_synchronous_reference() {
        // --- reference: hand-wired monitoring + synchronous controller ----
        let mut landscape = Landscape::new();
        let blade = landscape
            .add_server(ServerSpec::fsc_bx300("Blade1"))
            .unwrap();
        let _big = landscape.add_server(ServerSpec::hp_bl40p("Big")).unwrap();
        let fi = landscape
            .add_service(ServiceSpec::new("FI", ServiceKind::ApplicationServer))
            .unwrap();
        let instance = landscape.start_instance(fi, blade).unwrap();

        let mut monitoring = LoadMonitoringSystem::new();
        for server in landscape.server_ids() {
            let idx = landscape.server(server).unwrap().performance_index;
            monitoring.register(Subject::Server(server), SubjectConfig::paper_defaults(idx));
        }
        for service in landscape.service_ids() {
            monitoring.register(Subject::Service(service), SubjectConfig::service_defaults());
        }
        let mut controller = AutoGlobeController::new();
        let mut loads = RecordedLoads::default();
        let mut ref_executed = Vec::new();

        // --- candidate: the supervisor with the default config ------------
        let (mut sup, s_blade, _s_big, s_fi, s_instance) = minimal();
        assert_eq!((blade, fi), (s_blade, s_fi));

        let trace = |minute: u64| -> (f64, f64) {
            // Overload for 20 minutes, calm for 10, hot again.
            if !(20..30).contains(&minute) {
                (0.95, 0.5)
            } else {
                (0.25, 0.2)
            }
        };
        let mut t = SimTime::ZERO;
        for minute in 0..45 {
            t += SimDuration::from_minutes(1);
            let (cpu, mem) = trace(minute);

            // Reference loop.
            let mut triggers = Vec::new();
            for (subject, scpu, smem) in [
                (Subject::Server(blade), cpu, mem),
                (Subject::Instance(instance), cpu, 0.0),
                (Subject::Service(fi), cpu, 0.0),
            ] {
                loads.set(subject, scpu, smem);
                if monitoring.is_registered(subject) {
                    if let Some(trigger) =
                        monitoring.observe(subject, LoadSample::new(t, scpu, smem))
                    {
                        triggers.push(trigger);
                    }
                }
            }
            for trigger in triggers {
                let outcome = controller.handle_trigger(&trigger, &mut landscape, &loads, t);
                ref_executed.extend(outcome.executed);
            }

            // Supervisor.
            sup.record_server(s_blade, t, cpu, mem);
            sup.record_instance(s_instance, t, cpu);
            sup.record_service(s_fi, t, cpu);
            sup.tick(t).unwrap();
        }

        assert_eq!(sup.executed(), &ref_executed[..], "identical records");
        assert_eq!(
            sup.landscape().instance(s_instance).unwrap().server,
            landscape.instance(instance).unwrap().server,
            "identical final allocation"
        );
        assert_eq!(
            sup.landscape().num_instances(),
            landscape.num_instances(),
            "identical instance count"
        );
        let ref_log: Vec<String> = controller
            .drain_log()
            .iter()
            .map(|e| e.to_string())
            .collect();
        let sup_log: Vec<String> = sup.drain_events().iter().map(|e| e.to_string()).collect();
        assert_eq!(sup_log, ref_log, "identical controller event log");
    }

    #[test]
    fn stopped_instance_is_pruned_from_loads_and_watches() {
        let (mut sup, blade, _big, fi, instance) = minimal();
        let t = SimTime::from_minutes(1);
        sup.record_instance(instance, t, 0.97);
        sup.beat(Subject::Instance(instance), t).unwrap();
        assert!(sup.heartbeats.is_watched(Subject::Instance(instance)));
        assert!((sup.loads.cpu(Subject::Instance(instance)) - 0.97).abs() < 1e-12);

        // Keep a second instance so the service stays alive, then stop the
        // first deliberately.
        let other = sup.landscape_mut().start_instance(fi, blade).unwrap();
        sup.landscape_mut().stop_instance(instance).unwrap();
        sup.tick(SimTime::from_minutes(2)).unwrap();

        assert_eq!(
            sup.loads.cpu(Subject::Instance(instance)),
            0.0,
            "stale instance load must not feed server selection"
        );
        assert!(
            !sup.heartbeats.is_watched(Subject::Instance(instance)),
            "stopped instance must not accrue heartbeat misses"
        );
        assert!(!sup.monitoring.is_registered(Subject::Instance(instance)));
        // The survivor is untouched.
        assert!(sup.landscape().instance(other).is_ok());
    }

    #[test]
    fn repairing_unknown_or_healthy_server_fabricates_nothing() {
        let (mut sup, blade, _big, _fi, _instance) = minimal();
        let t = SimTime::from_minutes(5);

        // Unknown server: an error, not a Repaired event.
        let unknown = ServerId::new(99);
        assert!(sup.report_server_repaired(unknown, t).is_err());

        // Never-failed server: skipped, nothing logged.
        assert!(sup.landscape().is_available(blade));
        let outcome = sup.report_server_repaired(blade, t).unwrap();
        assert!(outcome.is_none(), "healthy server needs no repair");
        assert!(
            sup.drain_events().is_empty(),
            "no fabricated Repaired event"
        );

        // A genuinely failed server still produces the event.
        sup.report_server_failure(blade, t);
        let repaired = sup
            .report_server_repaired(blade, SimTime::from_minutes(30))
            .unwrap();
        assert!(matches!(repaired, Some(ControllerEvent::Repaired { .. })));
        assert!(sup.landscape().is_available(blade));
    }

    #[test]
    fn missed_beats_confirm_failure_through_the_self_healing_path() {
        let (mut sup, blade, big, fi, instance) = minimal();
        let subject = Subject::Server(blade);
        let mut t = SimTime::ZERO;
        // Healthy beats for 5 minutes.
        for _ in 0..5 {
            t += SimDuration::from_minutes(1);
            assert!(sup.beat(subject, t).unwrap());
            sup.record_server(blade, t, 0.4, 0.3);
            sup.record_instance(instance, t, 0.4);
            sup.record_service(fi, t, 0.4);
            sup.tick(t).unwrap();
        }
        assert!(sup.drain_heartbeat_events().is_empty());

        // Silence: 3 misses suspect, 2 more confirm (defaults).
        let mut confirmed_at = None;
        for _ in 0..6 {
            t += SimDuration::from_minutes(1);
            sup.tick(t).unwrap();
            for e in sup.drain_heartbeat_events() {
                if let HeartbeatEvent::Confirmed { time, .. } = e {
                    confirmed_at = Some(time);
                }
            }
        }
        let confirmed_at = confirmed_at.expect("failure must be confirmed");
        // Beats stopped after minute 5; first missed tick is minute 6;
        // confirmation lands (3 + 2 − 1) ticks later, at minute 10.
        assert_eq!(confirmed_at, SimTime::from_minutes(10));
        // The self-healing path ran: host out of the pool, instance
        // restarted on the big server.
        assert!(!sup.landscape().is_available(blade));
        assert!(sup.landscape().instance(instance).is_err());
        assert_eq!(sup.landscape().instances_on(big).len(), 1);
    }

    #[test]
    fn reconciled_suspect_causes_no_double_start() {
        let (mut sup, blade, _big, fi, instance) = minimal();
        let subject = Subject::Server(blade);
        let mut t = SimTime::ZERO;
        for _ in 0..5 {
            t += SimDuration::from_minutes(1);
            sup.beat(subject, t).unwrap();
            sup.record_server(blade, t, 0.4, 0.3);
            sup.record_instance(instance, t, 0.4);
            sup.record_service(fi, t, 0.4);
            sup.tick(t).unwrap();
        }
        let before = sup.landscape().num_instances();
        // Three silent ticks raise the suspicion…
        for _ in 0..3 {
            t += SimDuration::from_minutes(1);
            sup.tick(t).unwrap();
        }
        assert_eq!(sup.suspected(), vec![subject]);
        // …then heartbeats resume inside the confirmation window.
        t += SimDuration::from_minutes(1);
        sup.beat(subject, t).unwrap();
        sup.tick(t).unwrap();
        let events = sup.drain_heartbeat_events();
        assert!(events
            .iter()
            .any(|e| matches!(e, HeartbeatEvent::Reconciled { .. })));
        assert!(!events
            .iter()
            .any(|e| matches!(e, HeartbeatEvent::Confirmed { .. })));
        assert!(sup.suspected().is_empty());
        assert_eq!(
            sup.landscape().num_instances(),
            before,
            "no double-start after a false alarm"
        );
        assert!(sup.landscape().is_available(blade));
    }

    #[test]
    fn zombie_beat_for_departed_instance_is_fenced() {
        let (mut sup, blade, _big, fi, instance) = minimal();
        let _other = sup.landscape_mut().start_instance(fi, blade).unwrap();
        sup.landscape_mut().stop_instance(instance).unwrap();
        assert!(
            !sup.beat(Subject::Instance(instance), SimTime::from_minutes(1))
                .unwrap(),
            "a beat from a stopped instance must be fenced"
        );
    }

    #[test]
    fn proactive_forecast_fires_ahead_of_the_daily_surge() {
        let mut landscape = Landscape::new();
        let blade = landscape
            .add_server(ServerSpec::fsc_bx300("Blade1"))
            .unwrap();
        let _big = landscape.add_server(ServerSpec::hp_bl40p("Big")).unwrap();
        let fi = landscape
            .add_service(ServiceSpec::new("FI", ServiceKind::ApplicationServer))
            .unwrap();
        let _instance = landscape.start_instance(fi, blade).unwrap();
        let mut sup = Supervisor::with_config(
            landscape,
            SupervisorConfig {
                proactive: Some(ProactiveConfig::default()),
                ..SupervisorConfig::default()
            },
        );

        // Four days of a hard daily step (hot 09:00–17:00) so confidence is
        // established, then check the morning of day 5 at 08:30: the surge
        // is an hour away, load is still cold — only a forecast can fire.
        for minute in 0..4 * 24 * 60 {
            let t = SimTime::from_minutes(minute);
            let load = if (9.0..17.0).contains(&t.hour_of_day()) {
                0.9
            } else {
                0.2
            };
            sup.record_server(blade, t, load, 0.2);
        }
        let now = SimTime::from_hours(4 * 24 + 8) + SimDuration::from_minutes(30);
        sup.tick(now).unwrap();
        // The firing is queued this tick and dispatched on the next.
        assert!(
            !sup.proactive_firings().is_empty(),
            "forecast must fire before the surge"
        );
        let firing = sup.proactive_firings()[0];
        assert_eq!(firing.event.subject, Subject::Server(blade));
        assert!(firing.lead() > SimDuration::ZERO, "positive lead time");

        // Cooldown: an immediate re-check must not fire again for the same
        // subject.
        let count = sup.proactive_firings().len();
        sup.tick(now + SimDuration::from_minutes(10)).unwrap();
        assert_eq!(
            sup.proactive_firings()
                .iter()
                .filter(|f| f.event.subject == Subject::Server(blade))
                .count(),
            count,
            "cooldown suppresses repeat firings"
        );
    }

    #[test]
    fn time_running_backwards_is_a_typed_error() {
        let (mut sup, blade, _big, fi, instance) = minimal();
        let t = SimTime::from_minutes(10);
        sup.record_server(blade, t, 0.5, 0.3);
        sup.tick(t).unwrap();
        // Equal timestamps are fine (beat + tick inside one interval) …
        assert!(sup.tick(t).is_ok());
        assert!(sup.beat(Subject::Instance(instance), t).is_ok());
        assert!(sup.poll(t).is_ok());
        // … but every entry point rejects a clock that ran backwards.
        let early = SimTime::from_minutes(9);
        let err = SupervisorError::NonMonotonicTime {
            now: early,
            last: t,
        };
        assert_eq!(sup.tick(early).unwrap_err(), err);
        assert_eq!(sup.poll(early).unwrap_err(), err);
        assert_eq!(
            sup.beat(Subject::Instance(instance), early).unwrap_err(),
            err
        );
        assert_eq!(sup.dispatch_trigger_error(early), err);
        // The rejected call mutated nothing: the clock still reads `t`, and
        // the supervisor keeps working from there.
        assert!(sup.tick(t).is_ok());
        let _ = fi;
    }

    impl Supervisor {
        /// Test helper: a stale `dispatch_trigger` must fail the same way.
        fn dispatch_trigger_error(&mut self, now: SimTime) -> SupervisorError {
            let trigger = PendingTrigger {
                event: TriggerEvent {
                    subject: Subject::Server(ServerId::new(0)),
                    kind: autoglobe_monitor::TriggerKind::ServerOverloaded,
                    time: now,
                    average_cpu: 0.9,
                    average_mem: 0.5,
                },
                forecast: None,
            };
            self.dispatch_trigger(trigger, now).unwrap_err()
        }
    }

    #[test]
    fn invalid_supervisor_configs_are_rejected() {
        // The defaults are valid.
        assert!(SupervisorConfig::default().validate().is_ok());

        // Proactive cadence of zero would re-run the forecaster every tick
        // with no interval semantics.
        let cfg = SupervisorConfig {
            proactive: Some(ProactiveConfig::default()),
            proactive_every: SimDuration::ZERO,
            ..SupervisorConfig::default()
        };
        assert!(cfg.validate().is_err());

        // A cooldown shorter than the cadence is unenforceable.
        let cfg = SupervisorConfig {
            proactive: Some(ProactiveConfig::default()),
            proactive_every: SimDuration::from_minutes(30),
            proactive_cooldown: SimDuration::from_minutes(10),
            ..SupervisorConfig::default()
        };
        assert!(cfg.validate().is_err());

        // Invalid nested executor / heartbeat configs surface too.
        let cfg = SupervisorConfig {
            executor: ExecutorConfig {
                failure_probability: 1.5,
                ..ExecutorConfig::default()
            },
            ..SupervisorConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "invalid supervisor config")]
    fn with_config_panics_on_invalid_config() {
        let cfg = SupervisorConfig {
            proactive: Some(ProactiveConfig::default()),
            proactive_every: SimDuration::ZERO,
            ..SupervisorConfig::default()
        };
        let _ = Supervisor::with_config(Landscape::new(), cfg);
    }
}
