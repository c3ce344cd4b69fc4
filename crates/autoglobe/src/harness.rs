//! Driving the paper's simulated SAP workload through the [`Supervisor`].
//!
//! [`SupervisedRun`] is the repository's run loop for ideal conditions,
//! and the paper's figures and Table 7 run through it: it advances the
//! simulator's [`WorkloadEngine`] (daily curves, sticky sessions, the
//! request-flow demand model) against the Supervisor's landscape, feeds the
//! resulting measurements through [`Supervisor::record_server`] /
//! `record_service` / `record_instance`, lets [`Supervisor::tick`] watch →
//! confirm → decide → act, and mirrors every completed action back into the
//! session tables — the same beat/tick/poll control plane a real deployment
//! drives, measured with the same [`Metrics`] the paper's figures use.
//! [`ChaosRun`] is the same loop under ground-truth failures.

use crate::supervisor::{Supervisor, SupervisorConfig};
use autoglobe_controller::{ControllerEvent, ExecutionEvent};
use autoglobe_landscape::{InstanceId, Landscape, ServerId, ServiceId};
use autoglobe_monitor::{HeartbeatEvent, SimDuration, SimTime, Subject};
use autoglobe_rng::{splitmix64, Rng};
use autoglobe_simulator::sap::SapEnvironment;
use autoglobe_simulator::{
    FailureInjection, LoadModulation, Metrics, ScenarioSchedule, SimConfig, TickLoads,
    WorkloadEngine,
};
use std::collections::{BTreeMap, BTreeSet};

/// The workload side every harness starts from: the engine over `env`'s
/// workloads under `modulation`, the landscape it runs against, and the
/// labelled metrics shell.
///
/// # Panics
/// Panics when `sim` fails [`SimConfig::validate`].
pub(crate) fn workload_model(
    env: SapEnvironment,
    sim: &SimConfig,
    modulation: LoadModulation,
) -> (Landscape, WorkloadEngine, Metrics) {
    if let Err(e) = sim.validate() {
        panic!("invalid simulation config: {e}");
    }
    let SapEnvironment {
        landscape,
        workloads,
    } = env;
    let mut engine = WorkloadEngine::new(&landscape, workloads, sim);
    engine.set_modulation(Some(modulation));
    let metrics = Metrics::labelled(sim.scenario, &landscape);
    (landscape, engine, metrics)
}

/// The executor and heartbeat-loss sub-seeds of a run: the first two
/// SplitMix64 draws of `seed ^ 0x9E37_79B9_7F4A_7C15`, so enabling either
/// stream never perturbs the workload and failure stream.
pub(crate) fn sub_seeds(seed: u64) -> (u64, u64) {
    let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
    let executor = splitmix64(&mut state);
    (executor, splitmix64(&mut state))
}

/// Scheduled correlated kills resolved to ids: `(at, server, down_for)`,
/// ascending by time.
pub(crate) type KillEvents = Vec<(SimTime, ServerId, SimDuration)>;
/// Scheduled maintenance drains resolved to ids: `(from, to, server)`,
/// ascending by window start.
pub(crate) type DrainEvents = Vec<(SimTime, SimTime, ServerId)>;

/// Resolve a [`ScenarioSchedule`]'s server names against a landscape into
/// `(kills, drains)` event lists over [`ServerId`]s, each ascending by
/// time. Unknown server names panic: a scenario naming a host the
/// landscape lacks is a misconfigured experiment.
pub(crate) fn resolve_schedule(
    schedule: &ScenarioSchedule,
    landscape: &Landscape,
) -> (KillEvents, DrainEvents) {
    let resolve = |name: &str| {
        landscape
            .server_by_name(name)
            .unwrap_or_else(|_| panic!("scenario schedule names unknown server {name:?}"))
    };
    let mut kills = Vec::new();
    for kill in &schedule.kills {
        for name in &kill.servers {
            kills.push((kill.at, resolve(name), kill.down_for));
        }
    }
    let mut drains = Vec::new();
    for drain in &schedule.drains {
        for name in &drain.servers {
            drains.push((drain.from, drain.to, resolve(name)));
        }
    }
    kills.sort();
    drains.sort();
    (kills, drains)
}

/// A simulation of the paper's SAP workload run through the [`Supervisor`]
/// control plane.
pub struct SupervisedRun {
    supervisor: Supervisor,
    engine: WorkloadEngine,
    rng: Rng,
    metrics: Metrics,
    time: SimTime,
    tick: SimDuration,
    duration: SimDuration,
}

impl SupervisedRun {
    /// Wire `env`'s landscape and workloads to a [`Supervisor`] built from
    /// `supervisor` config — the constructor behind
    /// [`crate::RunBuilder::supervised`]. `sim` supplies the workload
    /// model's knobs (scenario, duration, tick, user multiplier, seed).
    ///
    /// # Panics
    /// Panics when `sim` fails [`SimConfig::validate`].
    pub(crate) fn assemble(
        env: SapEnvironment,
        sim: &SimConfig,
        supervisor: SupervisorConfig,
        modulation: LoadModulation,
    ) -> Self {
        let (landscape, engine, metrics) = workload_model(env, sim, modulation);
        SupervisedRun {
            supervisor: Supervisor::with_config(landscape, supervisor),
            engine,
            rng: Rng::seed_from_u64(sim.seed),
            metrics,
            time: SimTime::ZERO,
            tick: sim.tick,
            duration: sim.duration,
        }
    }

    /// The control plane (to add hints, switch modes, inspect state).
    pub fn supervisor(&self) -> &Supervisor {
        &self.supervisor
    }

    /// Mutable control-plane access.
    pub fn supervisor_mut(&mut self) -> &mut Supervisor {
        &mut self.supervisor
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.time
    }

    /// The metrics collected so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The loads the workload engine computed in the last step (empty
    /// before the first) — what the figure runs sample their series from.
    pub fn last_loads(&self) -> &TickLoads {
        self.engine.last_loads()
    }

    /// Advance one tick: workload model → measurements → supervisor tick →
    /// mirror completed actions into the session tables.
    pub fn step(&mut self) {
        self.time += self.tick;

        // Workload model against the supervisor's (current) landscape. The
        // supervised harness injects no ground-truth failures, so nothing
        // is dead-but-undetected.
        let dead: BTreeSet<InstanceId> = BTreeSet::new();
        let loads = self.engine.advance(
            self.supervisor.landscape(),
            &dead,
            self.time,
            &mut self.rng,
            &mut self.metrics,
        );

        // Measurements in — exactly what a deployment agent would report.
        for (server, cpu, mem) in loads.server_entries() {
            self.supervisor.record_server(server, self.time, cpu, mem);
        }
        for (service, cpu) in loads.service_entries() {
            self.supervisor.record_service(service, self.time, cpu);
        }
        for (instance, cpu) in loads.instance_entries() {
            self.supervisor.record_instance(instance, self.time, cpu);
        }

        // Actions out. The harness clock only moves forward, so the
        // monotonicity guard cannot fire.
        let records = self
            .supervisor
            .tick(self.time)
            .expect("harness time advances monotonically");
        for record in records {
            self.engine
                .note_action(&record.outcome, self.supervisor.landscape(), self.time);
            self.metrics.actions.push(record);
        }
        for event in self.supervisor.drain_events() {
            if matches!(event, ControllerEvent::AdministratorAlert { .. }) {
                self.metrics.alerts += 1;
            }
        }
    }

    /// Run to completion and return the metrics (see
    /// [`SupervisedRun::finish`]).
    pub fn run(mut self) -> Metrics {
        let ticks = self.duration.as_secs() / self.tick.as_secs().max(1);
        for _ in 0..ticks {
            self.step();
        }
        self.finish()
    }

    /// End a run stepped by hand and return its metrics: the duration is
    /// the simulated time stepped, and proactive firings are folded into
    /// [`Metrics::proactive_triggers`] and [`Metrics::proactive_lead_secs`].
    pub fn finish(mut self) -> Metrics {
        self.metrics.duration = self.time.since(SimTime::ZERO);
        self.metrics.proactive_triggers = self.supervisor.proactive_firings().len();
        self.metrics.proactive_lead_secs = self
            .supervisor
            .proactive_firings()
            .iter()
            .map(|f| f.lead().as_secs())
            .sum();
        self.metrics
    }
}

/// The chaos evaluation — fallible asynchronous execution, lossy heartbeat
/// detection, swept failure injection — run through the public
/// [`Supervisor`] control plane. It is the repository's one chaos loop.
///
/// The harness owns the ground truth (which hosts are down, which instances
/// crashed, the repair clock) and the supervisor owns the *beliefs*: it only
/// learns of a failure when the heartbeat detector confirms the silence.
/// Detection latency, reconciled false suspicions, quarantine of falsely
/// confirmed hosts, MTTR and lost work are measured against that ground
/// truth (`results/chaos_recovery.csv`), while every signal flows through
/// [`Supervisor::record_server`] / [`Supervisor::beat`] /
/// [`Supervisor::tick`], the same API a real deployment drives.
pub struct ChaosRun {
    supervisor: Supervisor,
    engine: WorkloadEngine,
    /// Main stream: workload fluctuation + ground-truth failure dice.
    rng: Rng,
    /// Separate stream for heartbeat-loss dice, sub-seeded from the master
    /// seed so enabling loss never perturbs the failure schedule.
    chaos_rng: Rng,
    metrics: Metrics,
    time: SimTime,
    tick: SimDuration,
    duration: SimDuration,
    failures: FailureInjection,
    hb_loss: f64,
    /// Ground truth: down hosts and when they went down.
    down_servers: BTreeMap<ServerId, SimTime>,
    /// Ground truth: crashed-but-unconfirmed instances and their crash time.
    crashed_instances: BTreeMap<InstanceId, SimTime>,
    /// (due, server) repair schedule — also used to re-certify falsely
    /// confirmed (quarantined) hosts.
    pending_repairs: Vec<(SimTime, ServerId)>,
    /// Lost instances awaiting a feasible host: (service, old instance,
    /// ground-truth failure time).
    restart_queue: Vec<(ServiceId, InstanceId, SimTime)>,
    /// Scenario-scheduled correlated kills `(at, server, down_for)`,
    /// ascending, drained as they come due. Scheduled events draw nothing
    /// from the RNG, so adding a schedule never perturbs the dice.
    scheduled_kills: Vec<(SimTime, ServerId, SimDuration)>,
    /// Scenario-scheduled maintenance drains `(from, to, server)`,
    /// ascending by start.
    scheduled_drains: Vec<(SimTime, SimTime, ServerId)>,
    /// Servers currently drained for planned maintenance (alive but out of
    /// rotation — distinct from ground-truth `down_servers`).
    draining: BTreeMap<ServerId, SimTime>,
}

impl ChaosRun {
    /// Wire `env` to a [`Supervisor`] built from `supervisor` config — the
    /// constructor behind [`crate::RunBuilder::chaos_run`]. Failure
    /// injection comes from [`SimConfig::failures`] and may be absent when
    /// `schedule` carries events (a purely scheduled production-day
    /// scenario rolls no dice); heartbeat detection
    /// ([`SimConfig::heartbeats`]) is always required — it is how failures
    /// get *detected*. The loss-dice seed is the second of `sim.seed`'s
    /// [`sub_seeds`].
    ///
    /// # Panics
    /// Panics when `sim` fails [`SimConfig::validate`], when heartbeat
    /// detection is missing, and when neither failure injection nor a
    /// scheduled event is configured — a chaos run without chaos is a
    /// misconfigured experiment, not a degenerate run.
    pub(crate) fn assemble(
        env: SapEnvironment,
        sim: &SimConfig,
        supervisor: SupervisorConfig,
        modulation: LoadModulation,
        schedule: ScenarioSchedule,
    ) -> Self {
        let failures = match sim.failures {
            Some(failures) => failures,
            None if !schedule.is_empty() => FailureInjection {
                instance_crash_per_hour: 0.0,
                server_failure_per_hour: 0.0,
                repair_after: SimDuration::from_hours(1),
            },
            None => panic!(
                "ChaosRun needs failure injection (SimConfig::with_failures) \
                 or a scenario schedule with events"
            ),
        };
        let detection = sim
            .heartbeats
            .expect("ChaosRun needs heartbeat detection (SimConfig::with_heartbeats)");

        let (landscape, engine, metrics) = workload_model(env, sim, modulation);
        let (scheduled_kills, scheduled_drains) = resolve_schedule(&schedule, &landscape);

        let (_, chaos_seed) = sub_seeds(sim.seed);

        let mut supervisor = Supervisor::with_config(landscape, supervisor);
        // Everything present at t=0 is watched from the start.
        let servers: Vec<ServerId> = supervisor.landscape().server_ids().collect();
        for server in servers {
            supervisor.watch(Subject::Server(server));
        }
        let instances: Vec<InstanceId> = supervisor.landscape().instances().map(|i| i.id).collect();
        for instance in instances {
            supervisor.watch(Subject::Instance(instance));
        }

        ChaosRun {
            supervisor,
            engine,
            rng: Rng::seed_from_u64(sim.seed),
            chaos_rng: Rng::seed_from_u64(chaos_seed),
            metrics,
            time: SimTime::ZERO,
            tick: sim.tick,
            duration: sim.duration,
            failures,
            hb_loss: detection.loss_probability,
            down_servers: BTreeMap::new(),
            crashed_instances: BTreeMap::new(),
            pending_repairs: Vec::new(),
            restart_queue: Vec::new(),
            scheduled_kills,
            scheduled_drains,
            draining: BTreeMap::new(),
        }
    }

    /// The control plane (to inspect beliefs vs. the harness's ground truth).
    pub fn supervisor(&self) -> &Supervisor {
        &self.supervisor
    }

    /// The metrics collected so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Advance one tick: workload → measurements → repairs → failure dice →
    /// lossy heartbeats → supervisor tick → account recoveries, detections,
    /// retries and alerts.
    pub fn step(&mut self) {
        self.time += self.tick;
        let now = self.time;

        // Ground-truth dead entities serve nothing until the detector
        // confirms the failure and the controller reacts.
        let dead: BTreeSet<InstanceId> = self
            .supervisor
            .landscape()
            .instances()
            .filter(|i| {
                self.crashed_instances.contains_key(&i.id)
                    || self.down_servers.contains_key(&i.server)
            })
            .map(|i| i.id)
            .collect();
        let loads = self.engine.advance(
            self.supervisor.landscape(),
            &dead,
            now,
            &mut self.rng,
            &mut self.metrics,
        );

        // Measurements in — a down host reports nothing, a dead instance
        // reports nothing.
        for (server, cpu, mem) in loads.server_entries() {
            if !self.down_servers.contains_key(&server) {
                self.supervisor.record_server(server, now, cpu, mem);
            }
        }
        for (service, cpu) in loads.service_entries() {
            self.supervisor.record_service(service, now, cpu);
        }
        for (instance, cpu) in loads.instance_entries() {
            if !dead.contains(&instance) {
                self.supervisor.record_instance(instance, now, cpu);
            }
        }

        // Repairs: the host rejoins the pool and is watched again with a
        // fresh heartbeat state.
        let mut repaired = Vec::new();
        self.pending_repairs.retain(|&(at, server)| {
            if now >= at {
                repaired.push(server);
                false
            } else {
                true
            }
        });
        for server in repaired {
            let _ = self.supervisor.report_server_repaired(server, now);
            self.down_servers.remove(&server);
            self.metrics.repairs += 1;
            self.supervisor.unwatch(Subject::Server(server));
            self.supervisor.watch(Subject::Server(server));
        }

        // Watch-set resync: new instances (restarts, scale-outs) get
        // monitored. Instances on a ground-truth down host stay unwatched —
        // host-level detection covers them. Departed instances are pruned
        // inside the supervisor's own tick.
        let fresh: Vec<InstanceId> = self
            .supervisor
            .landscape()
            .instances()
            .filter(|i| !self.down_servers.contains_key(&i.server))
            .map(|i| i.id)
            .collect();
        for instance in fresh {
            self.supervisor.watch(Subject::Instance(instance));
        }

        // Scenario-scheduled infrastructure events. These replay a fixed
        // timetable and draw nothing from the RNG, so composing a schedule
        // over a chaos config never perturbs the dice below. Drain ends
        // come first: a host rejoining this tick is back in the pool
        // before any new event resolves.
        let rejoining: Vec<ServerId> = self
            .draining
            .iter()
            .filter(|&(_, &to)| now >= to)
            .map(|(&server, _)| server)
            .collect();
        for server in rejoining {
            self.draining.remove(&server);
            let _ = self.supervisor.report_server_repaired(server, now);
            self.supervisor.watch(Subject::Server(server));
        }
        // Drain starts: planned failover through the supervisor's oracle
        // path — instances restart elsewhere immediately (zero detection
        // latency and no severed sessions, unlike a kill), then the host
        // sits out of rotation until its window closes.
        while let Some(&(from, to, server)) = self.scheduled_drains.first() {
            if now < from {
                break;
            }
            self.scheduled_drains.remove(0);
            if self.down_servers.contains_key(&server)
                || !self.supervisor.landscape().is_available(server)
            {
                continue;
            }
            let outcome = self.supervisor.report_server_failure(server, now);
            self.metrics.recoveries += outcome.recovered.len();
            self.metrics.lost_instances += outcome.lost.len();
            for (old_instance, service) in outcome.lost {
                self.restart_queue.push((service, old_instance, now));
            }
            self.draining.insert(server, to);
        }
        // Scheduled correlated kills: the same ground-truth bookkeeping as
        // a dice kill — the supervisor only learns of it when the
        // heartbeat detector confirms the silence, so MTTR is measured.
        while let Some(&(at, server, down_for)) = self.scheduled_kills.first() {
            if now < at {
                break;
            }
            self.scheduled_kills.remove(0);
            if self.down_servers.contains_key(&server)
                || !self.supervisor.landscape().is_available(server)
            {
                continue;
            }
            self.kill_server(server, now, down_for);
        }

        // Ground-truth failure dice on the main stream: available servers
        // ascending, then live instances ascending.
        let tick_hours = self.tick.as_secs() as f64 / 3600.0;
        let servers: Vec<ServerId> = self
            .supervisor
            .landscape()
            .server_ids()
            .filter(|&s| self.supervisor.landscape().is_available(s))
            .collect();
        for server in servers {
            if self
                .rng
                .random_bool(self.failures.server_failure_per_hour * tick_hours)
            {
                self.kill_server(server, now, self.failures.repair_after);
            }
        }
        let instances: Vec<InstanceId> = self
            .supervisor
            .landscape()
            .instances()
            .filter(|i| {
                !self.crashed_instances.contains_key(&i.id)
                    && !self.down_servers.contains_key(&i.server)
            })
            .map(|i| i.id)
            .collect();
        for instance in instances {
            if self
                .rng
                .random_bool(self.failures.instance_crash_per_hour * tick_hours)
            {
                self.metrics.failures += 1;
                self.crashed_instances.insert(instance, now);
                self.sever_sessions(instance);
            }
        }

        // Heartbeats: everything alive beats, unless the lossy monitoring
        // network drops the beat (separate RNG stream).
        for subject in self.supervisor.watched() {
            let alive = match subject {
                Subject::Server(s) => !self.down_servers.contains_key(&s),
                Subject::Instance(i) => {
                    !self.crashed_instances.contains_key(&i)
                        && self
                            .supervisor
                            .landscape()
                            .instance(i)
                            .map(|inst| !self.down_servers.contains_key(&inst.server))
                            .unwrap_or(false)
                }
                Subject::Service(_) => true,
            };
            if alive && !(self.hb_loss > 0.0 && self.chaos_rng.random_bool(self.hb_loss)) {
                self.supervisor
                    .beat(subject, now)
                    .expect("harness time advances monotonically");
            }
        }

        // One tick of the control loop: settle in-flight work, evaluate
        // heartbeats (confirmed failures run the self-healing path inside),
        // dispatch confirmed triggers.
        let records = self
            .supervisor
            .tick(now)
            .expect("harness time advances monotonically");
        for record in records {
            self.engine
                .note_action(&record.outcome, self.supervisor.landscape(), now);
            self.metrics.actions.push(record);
        }

        // Self-healing outcomes of confirmed failures: detection latency
        // against the ground-truth clock, MTTR, lost work. A confirmed
        // server that was in fact healthy is a false positive — it was
        // quarantined by the recovery path and re-certifies after a
        // repair-length check.
        for recovery in self.supervisor.drain_recoveries() {
            let failed_at = match recovery.subject {
                Subject::Server(server) => {
                    let failed_at = self.down_servers.get(&server).copied();
                    match failed_at {
                        Some(failed_at) => {
                            self.metrics.detections += 1;
                            self.metrics.detection_latency_secs += now.since(failed_at).as_secs();
                        }
                        None => self
                            .pending_repairs
                            .push((now + self.failures.repair_after, server)),
                    }
                    failed_at
                }
                Subject::Instance(instance) => {
                    let failed_at = self.crashed_instances.remove(&instance);
                    if let Some(failed_at) = failed_at {
                        self.metrics.detections += 1;
                        self.metrics.detection_latency_secs += now.since(failed_at).as_secs();
                    }
                    failed_at
                }
                Subject::Service(_) => None,
            }
            .unwrap_or(now);
            self.metrics.recoveries += recovery.outcome.recovered.len();
            self.metrics.recovery_time_secs +=
                now.since(failed_at).as_secs() * recovery.outcome.recovered.len() as u64;
            self.metrics.lost_instances += recovery.outcome.lost.len();
            for (old_instance, service) in recovery.outcome.lost {
                self.restart_queue.push((service, old_instance, failed_at));
            }
        }
        for event in self.supervisor.drain_heartbeat_events() {
            match event {
                HeartbeatEvent::Suspected { .. } => self.metrics.suspected_failures += 1,
                HeartbeatEvent::Reconciled { .. } => self.metrics.reconciliations += 1,
                // Confirmations were accounted through the recovery records.
                HeartbeatEvent::Confirmed { .. } => {}
            }
        }

        // Retry restarts of lost instances; entries stay queued until a
        // feasible host exists (e.g. their only possible host repairs).
        let mut still_lost = Vec::new();
        for (service, old_instance, failed_at) in std::mem::take(&mut self.restart_queue) {
            match self.supervisor.retry_restart(service, old_instance, now) {
                Some(_) => {
                    self.metrics.recoveries += 1;
                    self.metrics.lost_instances -= 1;
                    self.metrics.recovery_time_secs += now.since(failed_at).as_secs();
                }
                None => still_lost.push((service, old_instance, failed_at)),
            }
        }
        self.restart_queue = still_lost;

        // Substrate events: completions were counted from the tick's return
        // value, everything else feeds the chaos columns.
        for event in self.supervisor.drain_execution_events() {
            match event {
                ExecutionEvent::Completed { .. } => {}
                ExecutionEvent::Retried { .. } => self.metrics.exec_retries += 1,
                ExecutionEvent::TimedOut { .. } => self.metrics.exec_timeouts += 1,
                ExecutionEvent::FencedLateSuccess { .. }
                | ExecutionEvent::FencedStaleEpoch { .. } => self.metrics.exec_fenced += 1,
                ExecutionEvent::Abandoned { .. } => self.metrics.exec_compensations += 1,
            }
        }
        for event in self.supervisor.drain_events() {
            if matches!(event, ControllerEvent::AdministratorAlert { .. }) {
                self.metrics.alerts += 1;
            }
        }

        // Entries whose instance was removed by other means (a host-level
        // recovery, a controller stop) can never be confirmed — drop them.
        let landscape = self.supervisor.landscape();
        self.crashed_instances
            .retain(|i, _| landscape.instance(*i).is_ok());
    }

    /// Take a host down in the ground truth until `now + down_for`. Its
    /// instances die with it: their sessions are severed and they stop
    /// being watched individually — host-level detection covers them.
    fn kill_server(&mut self, server: ServerId, now: SimTime, down_for: SimDuration) {
        self.metrics.failures += 1;
        self.down_servers.insert(server, now);
        let _ = self.supervisor.landscape_mut().set_available(server, false);
        self.pending_repairs.push((now + down_for, server));
        for instance in self.supervisor.landscape().instances_on(server) {
            self.supervisor.unwatch(Subject::Instance(instance));
            self.sever_sessions(instance);
        }
    }

    /// Sever every session on a failed instance; the stranded users count
    /// as lost sessions (they must re-login once capacity recovers).
    fn sever_sessions(&mut self, instance: InstanceId) {
        self.metrics.lost_sessions += self
            .engine
            .sever_sessions(self.supervisor.landscape(), instance);
    }

    /// Run to completion and return the metrics (proactive firings are
    /// folded in, like [`SupervisedRun::run`] — zero unless
    /// [`SupervisorConfig::proactive`] was configured).
    pub fn run(mut self) -> Metrics {
        let ticks = self.duration.as_secs() / self.tick.as_secs().max(1);
        for _ in 0..ticks {
            self.step();
        }
        self.metrics.duration = self.duration;
        self.metrics.proactive_triggers = self.supervisor.proactive_firings().len();
        self.metrics.proactive_lead_secs = self
            .supervisor
            .proactive_firings()
            .iter()
            .map(|f| f.lead().as_secs())
            .sum();
        self.metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::RunBuilder;
    use autoglobe_simulator::Scenario;

    fn config(hours: u64) -> SimConfig {
        SimConfig::paper(Scenario::ConstrainedMobility, 1.15)
            .with_duration(SimDuration::from_hours(hours))
    }

    #[test]
    fn supervised_run_is_deterministic() {
        let run = |_: u32| {
            RunBuilder::new(Scenario::ConstrainedMobility)
                .hours(4)
                .supervised()
                .run()
        };
        let a = run(0);
        let b = run(1);
        assert_eq!(a.actions, b.actions);
        assert_eq!(a.overload_secs, b.overload_secs);
        assert_eq!(a.total_demand.to_bits(), b.total_demand.to_bits());
    }

    fn chaos_config(hours: u64) -> SimConfig {
        use autoglobe_controller::ExecutorConfig;
        use autoglobe_simulator::HeartbeatDetection;
        config(hours)
            .with_failures(FailureInjection {
                instance_crash_per_hour: 0.03,
                server_failure_per_hour: 0.06,
                repair_after: SimDuration::from_hours(1),
            })
            .with_execution(ExecutorConfig {
                min_latency: SimDuration::from_secs(30),
                max_latency: SimDuration::from_minutes(3),
                timeout: SimDuration::from_minutes(2),
                failure_probability: 0.1,
                ..ExecutorConfig::reliable()
            })
            .with_heartbeats(HeartbeatDetection {
                miss_threshold: 3,
                confirm_after: 2,
                loss_probability: 0.01,
            })
    }

    #[test]
    fn chaos_run_is_deterministic() {
        let run = |_: u32| {
            RunBuilder::new(Scenario::ConstrainedMobility)
                .sim(chaos_config(12))
                .chaos_run()
                .run()
        };
        let a = run(0);
        let b = run(1);
        assert_eq!(a.actions, b.actions);
        assert_eq!(a.failures, b.failures);
        assert_eq!(a.detections, b.detections);
        assert_eq!(a.detection_latency_secs, b.detection_latency_secs);
        assert_eq!(a.recoveries, b.recoveries);
        assert_eq!(a.lost_sessions.to_bits(), b.lost_sessions.to_bits());
    }

    #[test]
    fn chaos_run_is_deterministic_in_every_metric() {
        // Every stochastic layer on, at higher instance-crash and execution
        // failure rates than `chaos_config`: two runs of the same seed must
        // agree on every counter and series the metrics carry.
        use autoglobe_controller::ExecutorConfig;
        let sim = chaos_config(12)
            .with_failures(FailureInjection {
                instance_crash_per_hour: 0.05,
                server_failure_per_hour: 0.01,
                repair_after: SimDuration::from_hours(1),
            })
            .with_execution(ExecutorConfig {
                min_latency: SimDuration::from_secs(30),
                max_latency: SimDuration::from_minutes(3),
                timeout: SimDuration::from_minutes(2),
                failure_probability: 0.2,
                ..ExecutorConfig::reliable()
            });
        let run = || {
            RunBuilder::new(Scenario::ConstrainedMobility)
                .sim(sim.clone())
                .chaos_run()
                .run()
        };
        let a = run();
        let b = run();
        assert!(a.failures > 0, "chaos must have injected failures");
        assert!(a.exec_retries > 0, "flaky execution must have retried");
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn chaos_run_detects_and_recovers_from_injected_failures() {
        let metrics = RunBuilder::new(Scenario::ConstrainedMobility)
            .sim(chaos_config(24))
            .chaos_run()
            .run();
        assert!(metrics.failures > 0, "the dice must roll failures in 24h");
        assert!(
            metrics.detections > 0,
            "confirmed silences must be detected ({} failures)",
            metrics.failures
        );
        assert!(
            metrics.recoveries > 0,
            "the self-healing path must restart instances"
        );
        assert!(
            metrics.detection_latency_secs > 0,
            "heartbeat detection takes miss+confirm ticks, never zero"
        );
        assert!(metrics.repairs > 0, "downed hosts must rejoin after 1h");
    }

    /// A day of crashes at the paper's 100 % load, detected through
    /// heartbeats with the given loss rate.
    fn crash_day(
        scenario: Scenario,
        hours: u64,
        failures: FailureInjection,
        loss: f64,
    ) -> ChaosRun {
        use autoglobe_simulator::HeartbeatDetection;
        let sim = SimConfig::paper(scenario, 1.0)
            .with_duration(SimDuration::from_hours(hours))
            .with_failures(failures)
            .with_heartbeats(HeartbeatDetection {
                miss_threshold: 3,
                confirm_after: 2,
                loss_probability: loss,
            });
        RunBuilder::new(scenario).sim(sim).chaos_run()
    }

    fn crashes() -> FailureInjection {
        FailureInjection {
            instance_crash_per_hour: 0.05,
            server_failure_per_hour: 0.005,
            repair_after: SimDuration::from_hours(1),
        }
    }

    #[test]
    fn failures_are_injected_and_recovered() {
        let m = crash_day(Scenario::FullMobility, 24, crashes(), 0.0).run();
        assert!(m.failures > 0, "with these rates a day must see failures");
        assert!(
            m.recoveries >= m.failures / 2,
            "most failures recover: {} of {}",
            m.recoveries,
            m.failures
        );
        assert_eq!(m.lost_instances, 0, "the SAP pool always has a spare host");
    }

    #[test]
    fn failure_injection_is_deterministic() {
        let run = || crash_day(Scenario::FullMobility, 12, crashes(), 0.0).run();
        let a = run();
        let b = run();
        assert!(a.failures > 0, "12h at these rates must see failures");
        assert_eq!(a.failures, b.failures);
        assert_eq!(a.recoveries, b.recoveries);
        assert_eq!(a.repairs, b.repairs);
        assert_eq!(a.recovery_time_secs, b.recovery_time_secs);
    }

    #[test]
    fn service_population_survives_a_day_of_crashes() {
        let mut run = crash_day(Scenario::FullMobility, 24, crashes(), 0.0);
        for _ in 0..24 * 60 {
            run.step();
        }
        // Every service keeps at least its minimum instance count.
        let landscape = run.supervisor().landscape();
        for service in landscape.service_ids() {
            let spec = landscape.service(service).unwrap();
            assert!(
                landscape.instance_count_of(service) >= spec.min_instances.max(1) as usize,
                "{} dropped below its minimum",
                spec.name
            );
        }
    }

    #[test]
    fn static_scenario_still_restarts_crashed_instances() {
        // Restarts bypass action constraints: even immobile services heal.
        let m = crash_day(Scenario::Static, 24, crashes(), 0.0).run();
        assert!(m.failures > 0);
        assert!(m.recoveries > 0, "restarts happen despite immobility");
    }

    #[test]
    fn heartbeat_detection_latency_is_exactly_the_detector_window() {
        // Lossless heartbeats: no false suspicions, and every genuine
        // failure is confirmed exactly miss_threshold + confirm_after − 1
        // ticks after it happened (the failure tick itself is the first
        // missed beat).
        let m = crash_day(Scenario::FullMobility, 24, crashes(), 0.0).run();
        assert!(m.failures > 0, "a day at these rates must see failures");
        assert!(m.detections > 0, "heartbeats must confirm real failures");
        assert_eq!(m.reconciliations, 0, "every suspicion is genuine");
        // 3 + 2 misses, the first coinciding with the failure tick: 4 min.
        assert!(
            (m.mean_detection_latency_secs() - 240.0).abs() < 1e-9,
            "mean detection latency {}s",
            m.mean_detection_latency_secs()
        );
        assert!(m.lost_sessions > 0.0, "severed users are accounted");
    }

    #[test]
    fn false_suspicions_are_reconciled_not_double_started() {
        // Lossy heartbeats, *no* real failures: suspicions come and go but
        // nothing is confirmed, nothing restarts, nothing is lost.
        let none = FailureInjection {
            instance_crash_per_hour: 0.0,
            server_failure_per_hour: 0.0,
            ..crashes()
        };
        let m = crash_day(Scenario::FullMobility, 12, none, 0.08).run();
        assert!(
            m.suspected_failures > 0,
            "a lossy network causes suspicions"
        );
        assert!(m.reconciliations > 0, "resumed heartbeats reconcile them");
        assert_eq!(m.failures, 0);
        assert_eq!(m.detections, 0, "no false suspicion may be confirmed");
        assert_eq!(m.lost_instances, 0);
        assert_eq!(m.lost_sessions, 0.0);
    }

    #[test]
    fn lossy_heartbeats_do_not_perturb_the_failure_dice() {
        // The heartbeat-loss draws run on their own RNG stream: the same
        // seed must produce the same ground-truth failures whether or not
        // the monitoring network drops beats.
        let failures = |loss: f64| {
            crash_day(Scenario::ConstrainedMobility, 12, crashes(), loss)
                .run()
                .failures
        };
        assert_eq!(failures(0.0), failures(0.05));
    }

    #[test]
    fn no_instance_stays_lost_while_a_feasible_host_exists() {
        // Aggressive server failures on the full pool: instances may be
        // lost while their only hosts are down, but every queued restart
        // must either complete (once a host repairs) or have provably no
        // feasible host right now.
        let failures = FailureInjection {
            instance_crash_per_hour: 0.02,
            server_failure_per_hour: 0.05,
            repair_after: SimDuration::from_hours(2),
        };
        let mut run = crash_day(Scenario::FullMobility, 24, failures, 0.0);
        for _ in 0..24 * 60 {
            run.step();
            let landscape = run.supervisor().landscape();
            for &(service, _, _) in &run.restart_queue {
                assert!(
                    landscape
                        .server_ids()
                        .all(|server| !landscape.can_host(service, server)),
                    "instance stayed lost although a feasible host exists"
                );
            }
        }
        assert!(
            run.metrics().recoveries > 0,
            "repairs must re-enable queued restarts"
        );
    }

    #[test]
    fn inner_jobs_are_bit_identical_under_chaos() {
        // The intra-run parallel phase must not change a single output bit
        // with every stochastic layer on: failure injection, lossy
        // heartbeats and flaky asynchronous execution.
        let run = |inner_jobs: usize| {
            RunBuilder::new(Scenario::ConstrainedMobility)
                .sim(chaos_config(8))
                .inner_jobs(inner_jobs)
                .chaos_run()
                .run()
        };
        let sequential = run(1);
        assert!(sequential.failures > 0, "chaos must have injected failures");
        assert_eq!(format!("{sequential:?}"), format!("{:?}", run(4)));
    }

    /// Section 4.1: the controller reads a server's CPU load as the mean
    /// over its watch time. After every step, the supervisor's view of
    /// every server equals the engine's smoothed load bit for bit — on the
    /// three paper scenarios and on a 200-server synthetic landscape whose
    /// per-server phase runs in lanes.
    #[test]
    fn supervisor_load_view_is_the_engines_watch_time_mean() {
        use autoglobe_landscape::SynthConfig;
        use autoglobe_simulator::synth_environment;
        let synth = RunBuilder::new(Scenario::ConstrainedMobility)
            .environment(synth_environment(&SynthConfig::sized(200, 11)))
            .multiplier(1.0)
            .inner_jobs(4);
        let paper = Scenario::ALL.map(|scenario| RunBuilder::new(scenario).seed(11));
        let mut actions = 0;
        for builder in paper.into_iter().chain([synth]) {
            let mut run = builder.hours(24).supervised();
            for _ in 0..24 * 60 {
                run.step();
                let (loads, view) = (run.last_loads(), run.supervisor().load_view());
                for (server, _, _) in loads.server_entries() {
                    assert_eq!(
                        view.cpu(Subject::Server(server)).to_bits(),
                        loads.server_smoothed(server).to_bits(),
                        "{server} at {}",
                        run.now()
                    );
                }
            }
            actions += run.metrics().actions.len();
        }
        assert!(
            actions > 0,
            "the views must follow the controller's actions"
        );
    }

    #[test]
    fn supervised_run_acts_on_the_workload() {
        let metrics = RunBuilder::new(Scenario::ConstrainedMobility)
            .hours(24)
            .supervised()
            .run();
        assert!(
            !metrics.actions.is_empty(),
            "the supervised controller must act on the daily ramp"
        );
        assert_eq!(metrics.proactive_triggers, 0, "reactive run has no firings");
    }
}
