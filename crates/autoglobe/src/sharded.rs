//! The sharded, self-healing control plane: N [`Supervisor`] replicas, a
//! lease table with epoch fencing, and deterministic failover.
//!
//! # Model
//!
//! The landscape is partitioned into `shards` by the explicit, deterministic
//! [`ShardMap`] (hash-by-id, see `autoglobe-landscape`). Each shard has an
//! *owner*: one of N supervisor replicas, recorded in a [`Lease`] carrying a
//! monotonically increasing epoch. Every replica keeps a full copy of the
//! landscape, and every landscape mutation — each [`ActionRecord`] an owner
//! executes, each confirmed failure — is replayed onto the other replicas
//! ([`Supervisor::apply_remote`], [`Supervisor::replay_failure`]) in one
//! global ascending-live-replica order, keeping them in lockstep.
//!
//! The *measurement* stream is replicated by delta: each replica ingests
//! only the measurements of subjects in its **owned** shards, so its load
//! archive and fuzzy advisors cover 1/shards of the landscape and
//! per-replica monitoring work is O(landscape/shards) per tick. Foreign
//! loads arrive as a compact per-shard [`ShardDelta`] (current loads plus
//! advisor watch snapshots), applied in ascending live-replica order exactly
//! where `apply_remote` runs; cross-shard reads during trigger planning go
//! through this read-only replicated loads view, never through foreign
//! monitoring state. The global trigger stream is the merge of the owners'
//! streams, restored to measurement-arrival order (then proactive subjects
//! ascending). The tests prove every output bit-identical to full-stream
//! state machine replication — every live replica ingesting the complete
//! stream, the plane taking the lowest live replica's triggers — which this
//! module keeps only as a test oracle.
//!
//! The plane brokers each dispatch through the lease table: only the
//! shard's current lease holder plans and executes the trigger, stamped
//! with the lease epoch.
//!
//! # Failure of a shard owner
//!
//! Supervisors heartbeat each other through the existing
//! [`HeartbeatMonitor`]: every plane tick each live supervisor beats a
//! plane-private monitor, and a supervisor that falls silent goes through
//! the same suspect → confirm protocol as any watched server. When an owner
//! is *confirmed* dead:
//!
//! 1. the global epoch increments, and every shard the dead supervisor
//!    owned is re-adopted by the deterministic successor — the lowest live
//!    supervisor id — under a fresh [`Lease`] at the new epoch;
//! 2. the dead owner's execution substrate is fenced below the new epoch
//!    ([`Supervisor::fence_stale_epochs`]): its in-flight actions are
//!    discarded as [`ExecutionEvent::FencedStaleEpoch`], and even a
//!    *revived* old owner that later tries to settle work finds every
//!    operation stamped with a stale epoch refused at poll time — no ghost
//!    moves;
//! 3. the successor watch-adopts every subject of the shard that has ever
//!    heartbeated the plane, so a server that was already silent when the
//!    old owner died still accrues misses with the new owner and its
//!    failure is confirmed after the usual detection window;
//! 4. the successor rebuilds the shard's monitoring from the plane's
//!    [`SampleRing`]: each adopted advisor is restored from the dead
//!    owner's last published watch snapshot and replays the samples that
//!    arrived after it. Any trigger the replay re-derives is one a replica
//!    ingesting the full stream would have dropped at dispatch while the
//!    shard was headless, so it is counted and evented identically
//!    ([`PlaneEvent::TriggerDropped`] at the trigger's own confirmation
//!    time).
//!
//! Triggers for a shard whose lease still points at a dead-but-unconfirmed
//! owner are dropped (and counted): the shard is headless for the detection
//! window, and monitoring re-raises the trigger once a live owner holds the
//! lease — the paper's watch-time confirmation makes the re-raise cheap.
//!
//! With `shards = 1` the plane is a single supervisor driven through the
//! same code path, bit-identical to [`SupervisedRun`](crate::harness)
//! (test-enforced); at any shard count the paper scenarios (reliable
//! executor, no failures) produce byte-identical results because planning
//! is deterministic over replicated state.

use crate::harness::{resolve_schedule, workload_model};
use crate::supervisor::{PendingTrigger, RecoveryRecord, Supervisor, SupervisorConfig};
use autoglobe_controller::{ActionRecord, ControllerEvent, ExecutionEvent, RecoveryOutcome};
use autoglobe_landscape::{
    DeltaSubject, InstanceId, Landscape, SampleRing, ServerId, ServiceId, ShardDelta, ShardId,
    ShardMap, WatchSnapshot,
};
use autoglobe_monitor::{
    Advisor, HeartbeatConfig, HeartbeatEvent, HeartbeatMonitor, LoadSample, SimDuration, SimTime,
    Subject, SubjectConfig, WatchState,
};
use autoglobe_pool as pool;
use autoglobe_rng::{splitmix64, Rng};
use autoglobe_simulator::sap::SapEnvironment;
use autoglobe_simulator::{LoadModulation, Metrics, ScenarioSchedule, SimConfig, WorkloadEngine};
use std::collections::{BTreeMap, BTreeSet};

use crate::supervisor::SupervisorError;

/// Seed domain separating the derived executor streams of secondary
/// replicas from the primary's configured seed.
const REPLICA_SEED_DOMAIN: u64 = 0x5EED_5A4D_0003;

/// Cumulative measurement-ingestion accounting: delta replication performs
/// at most one supervisor-side ingestion per buffered measurement (full-stream
/// replication would perform `live_replicas ×` as many) — the per-replica
/// work reduction, assertable in tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Measurements buffered through `record_*` and consumed by ticks.
    pub buffered: u64,
    /// Supervisor-side measurement ingestions: measurements an owner
    /// recorded (server and service samples into its archive, samples of
    /// monitored subjects into their advisors).
    pub ingested: u64,
}

/// Global ordering key for merging the owners' trigger streams: measured
/// triggers first, in measurement-arrival order (a full-stream replica's
/// record order), then proactive triggers by subject (its
/// servers-then-services landscape walk is exactly [`Subject`]'s order).
/// The derived `Ord` encodes both rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum TriggerKey {
    Measured(u64),
    Proactive(Subject),
}

fn to_delta(subject: Subject) -> DeltaSubject {
    match subject {
        Subject::Server(s) => DeltaSubject::Server(s),
        Subject::Service(s) => DeltaSubject::Service(s),
        Subject::Instance(i) => DeltaSubject::Instance(i),
    }
}

fn from_delta(subject: DeltaSubject) -> Subject {
    match subject {
        DeltaSubject::Server(s) => Subject::Server(s),
        DeltaSubject::Service(s) => Subject::Service(s),
        DeltaSubject::Instance(i) => Subject::Instance(i),
    }
}

fn snapshot_of(watch: WatchState) -> WatchSnapshot {
    match watch {
        WatchState::Quiet => WatchSnapshot::Quiet,
        WatchState::Overload { since } => WatchSnapshot::Overload {
            since_secs: since.as_secs(),
        },
        WatchState::Idle { since } => WatchSnapshot::Idle {
            since_secs: since.as_secs(),
        },
    }
}

fn state_of(snapshot: WatchSnapshot) -> WatchState {
    match snapshot {
        WatchSnapshot::Quiet => WatchState::Quiet,
        WatchSnapshot::Overload { since_secs } => WatchState::Overload {
            since: SimTime::from_secs(since_secs),
        },
        WatchSnapshot::Idle { since_secs } => WatchState::Idle {
            since: SimTime::from_secs(since_secs),
        },
    }
}

/// Ring retention: the longest advisor retention a plane-registered subject
/// can have, plus an hour of slack. [`Advisor::restore`] re-prunes to the
/// advisor's own retention during replay, so the slack never changes a
/// rebuild — it only guarantees no needed sample was evicted early.
fn ring_retention_secs() -> u64 {
    let server = SubjectConfig::paper_defaults(1.0).retention().as_secs();
    let service = SubjectConfig::service_defaults().retention().as_secs();
    server.max(service) + 3600
}

/// A shard ownership lease: who may act for the shard, and under which
/// coordination epoch. Epochs only ever increase; an action stamped with an
/// older epoch than the shard's current lease is stale by definition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lease {
    /// Index of the supervisor replica holding the lease.
    pub owner: usize,
    /// The epoch the lease was issued under.
    pub epoch: u64,
}

/// Coordination-layer events: owner liveness transitions and shard
/// re-adoptions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlaneEvent {
    /// A shard owner missed enough plane heartbeats to be suspected.
    OwnerSuspected {
        /// The silent supervisor's index.
        supervisor: usize,
        /// When the suspicion was raised.
        time: SimTime,
    },
    /// A shard owner's silence survived the confirmation window; its leases
    /// are revoked and its shards re-adopted.
    OwnerConfirmed {
        /// The confirmed-dead supervisor's index.
        supervisor: usize,
        /// When the failure was confirmed.
        time: SimTime,
    },
    /// A shard moved to its deterministic successor under a fresh epoch.
    ShardReadopted {
        /// The re-adopted shard.
        shard: ShardId,
        /// The dead previous owner.
        from: usize,
        /// The successor (lowest live supervisor index).
        to: usize,
        /// The new lease epoch.
        epoch: u64,
        /// When the re-adoption happened.
        time: SimTime,
    },
    /// A confirmed trigger addressed a shard whose lease still points at a
    /// dead-but-unconfirmed owner; it was dropped and will be re-raised by
    /// monitoring once the shard has a live owner.
    TriggerDropped {
        /// The headless shard.
        shard: ShardId,
        /// The trigger's subject.
        subject: Subject,
        /// When the trigger was dropped.
        time: SimTime,
    },
}

/// One supervisor replica plus its plane-side bookkeeping.
#[derive(Debug)]
struct ShardWorker {
    supervisor: Supervisor,
    alive: bool,
    inbox_beats: Vec<(Subject, SimTime)>,
    /// Owner-routed measurements for this replica's shards, tagged with
    /// their global arrival sequence (buffer reused per tick).
    inbox_measurements: Vec<(u64, Subject, SimTime, f64, f64)>,
    /// Arrival tags of the measurements whose ingestion raised a confirmed
    /// trigger, in ingestion order — tandem with the measured prefix of
    /// `scratch_triggers`.
    trigger_tags: Vec<(u64, Subject)>,
    scratch_triggers: Vec<PendingTrigger>,
}

/// Everything one [`ShardedControlPlane::tick`] produced.
#[derive(Debug, Default)]
pub struct PlaneTickReport {
    /// Actions completed this tick, in canonical dispatch order (already
    /// applied to every live replica).
    pub executed: Vec<ActionRecord>,
    /// Coordination events (suspicions, confirmations, re-adoptions,
    /// dropped triggers).
    pub events: Vec<PlaneEvent>,
    /// Self-healing outcomes of subject failures confirmed by shard owners
    /// this tick (already replayed onto every live replica).
    pub recoveries: Vec<RecoveryRecord>,
    /// In-flight operations of deposed owners fenced this tick.
    pub fenced: usize,
    /// Triggers dropped because their shard was headless.
    pub dropped_triggers: usize,
}

/// The sharded control plane (see the module docs for the model).
#[derive(Debug)]
pub struct ShardedControlPlane {
    workers: Vec<ShardWorker>,
    map: ShardMap,
    leases: Vec<Lease>,
    epoch: u64,
    /// Plane-private liveness monitor; supervisor `i` appears as
    /// `Subject::Server(ServerId::new(i))` (the ids are unrelated to the
    /// landscape's servers — this monitor watches supervisors).
    liveness: HeartbeatMonitor,
    /// Every subject that has ever heartbeated through the plane, so a
    /// successor knows what to watch-adopt.
    beated: BTreeSet<Subject>,
    /// Measurements buffered since the last tick, in arrival order; the
    /// next tick drains them in place (the buffer's capacity is reused,
    /// never reallocated per tick — test-enforced).
    measurements: Vec<(Subject, SimTime, f64, f64)>,
    /// The authoritative controller-event stream (one copy per event, in
    /// plane order — replica replays are drained and discarded).
    controller_events: Vec<ControllerEvent>,
    /// Plane-retained samples plus last published watch snapshots for
    /// every server/service — what a successor rebuilds an adopted shard's
    /// monitoring from.
    ring: SampleRing,
    /// Per-shard delta under construction each tick (buffers reused across
    /// ticks).
    deltas: Vec<ShardDelta>,
    ingest: IngestStats,
    /// Reusable instance-routing table: instance id → owning shard
    /// (`u32::MAX` = departed). Refilled from one instance walk per tick,
    /// replacing a tree lookup per instance measurement. Length is
    /// meaningless between ticks.
    route_scratch: Vec<u32>,
    jobs: usize,
    last_now: Option<SimTime>,
    /// The full-stream replication oracle drives this plane (tests only;
    /// see `tests::tick_full_stream`).
    #[cfg(test)]
    full_stream: bool,
}

impl ShardedControlPlane {
    /// Shard `landscape` into `shards` partitions, each owned by its own
    /// supervisor replica built from `config`. Replica 0 keeps
    /// `config.executor_seed`; the others derive disjoint executor streams
    /// via splitmix64, so a fallible substrate stays deterministic per
    /// replica without the streams colliding.
    ///
    /// # Panics
    /// Panics when `shards` is zero or `config` fails validation.
    pub fn new(landscape: Landscape, shards: usize, config: SupervisorConfig) -> Self {
        let map = ShardMap::new(&landscape, shards);
        let workers: Vec<ShardWorker> = (0..shards)
            .map(|i| {
                let mut worker_config = config.clone();
                if i > 0 {
                    let mut state = config.executor_seed ^ REPLICA_SEED_DOMAIN ^ (i as u64);
                    worker_config.executor_seed = splitmix64(&mut state);
                }
                ShardWorker {
                    supervisor: Supervisor::with_config(landscape.clone(), worker_config),
                    alive: true,
                    inbox_beats: Vec::new(),
                    inbox_measurements: Vec::new(),
                    trigger_tags: Vec::new(),
                    scratch_triggers: Vec::new(),
                }
            })
            .collect();
        let mut liveness = HeartbeatMonitor::new(HeartbeatConfig::default());
        for i in 0..shards {
            liveness.watch(Subject::Server(ServerId::new(i as u32)));
        }
        let mut plane = ShardedControlPlane {
            workers,
            leases: (0..shards).map(|i| Lease { owner: i, epoch: 0 }).collect(),
            map,
            epoch: 0,
            liveness,
            beated: BTreeSet::new(),
            measurements: Vec::new(),
            controller_events: Vec::new(),
            ring: SampleRing::new(ring_retention_secs()),
            deltas: (0..shards).map(|s| ShardDelta::new(s, 0, 0)).collect(),
            ingest: IngestStats::default(),
            route_scratch: Vec::new(),
            jobs: shards,
            last_now: None,
            #[cfg(test)]
            full_stream: false,
        };
        plane.apply_scopes();
        plane
    }

    /// Cumulative measurement-ingestion counters.
    pub fn ingest_stats(&self) -> IngestStats {
        self.ingest
    }

    /// Capacity of the plane's measurement buffer (allocation tests: the
    /// buffer is drained in place and reused, never handed off per tick).
    pub fn measurement_buffer_capacity(&self) -> usize {
        self.measurements.capacity()
    }

    /// The per-shard deltas published by the last tick (inspection /
    /// tests; the buffers are rebuilt every tick).
    pub fn last_deltas(&self) -> &[ShardDelta] {
        &self.deltas
    }

    /// Scope each replica's monitoring to the shards it currently owns.
    fn apply_scopes(&mut self) {
        for i in 0..self.workers.len() {
            let owned: BTreeSet<ShardId> = self
                .leases
                .iter()
                .enumerate()
                .filter(|&(_, lease)| lease.owner == i)
                .map(|(shard, _)| shard)
                .collect();
            self.workers[i]
                .supervisor
                .set_monitor_scope(self.map.clone(), owned);
        }
    }

    /// Cap the scoped-thread fan-out of the per-replica interval close.
    /// Output-neutral: replicas are independent, so any width produces
    /// bit-identical results (CI-enforced).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Number of shards (== number of supervisor replicas).
    pub fn shards(&self) -> usize {
        self.workers.len()
    }

    /// The current global coordination epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The lease currently covering `shard`.
    pub fn lease(&self, shard: ShardId) -> Lease {
        self.leases[shard]
    }

    /// Whether supervisor `i` is live.
    pub fn is_alive(&self, i: usize) -> bool {
        self.workers.get(i).map(|w| w.alive).unwrap_or(false)
    }

    /// Index of the canonical replica: the lowest live supervisor. Its
    /// trigger stream is the global one (all replicas derive identical
    /// streams), and it is the deterministic successor for orphaned shards.
    pub fn canonical(&self) -> usize {
        self.workers
            .iter()
            .position(|w| w.alive)
            .expect("at least one supervisor is always live")
    }

    /// The canonical replica's landscape (all live replicas are identical).
    pub fn landscape(&self) -> &Landscape {
        self.workers[self.canonical()].supervisor.landscape()
    }

    /// Direct access to replica `i`'s supervisor (inspection / tests).
    pub fn supervisor(&self, i: usize) -> &Supervisor {
        &self.workers[i].supervisor
    }

    /// Kill supervisor `i` (crash-stop: it stops heartbeating the plane and
    /// is excluded from all future work). Its leases stay in place until
    /// the plane *confirms* the death — that window is exactly the
    /// detection latency the shardchaos experiment measures. Refuses to
    /// kill the last live supervisor (the plane would be headless forever)
    /// and returns whether the kill took effect.
    pub fn kill(&mut self, i: usize) -> bool {
        let live = self.workers.iter().filter(|w| w.alive).count();
        match self.workers.get_mut(i) {
            Some(w) if w.alive && live > 1 => {
                w.alive = false;
                w.inbox_beats.clear();
                true
            }
            _ => false,
        }
    }

    /// Buffer a server measurement for every live replica.
    pub fn record_server(&mut self, server: ServerId, time: SimTime, cpu: f64, mem: f64) {
        self.measurements
            .push((Subject::Server(server), time, cpu, mem));
    }

    /// Buffer a service measurement for every live replica.
    pub fn record_service(&mut self, service: ServiceId, time: SimTime, cpu: f64) {
        self.measurements
            .push((Subject::Service(service), time, cpu, 0.0));
    }

    /// Buffer an instance measurement for every live replica.
    pub fn record_instance(&mut self, instance: InstanceId, time: SimTime, cpu: f64) {
        self.measurements
            .push((Subject::Instance(instance), time, cpu, 0.0));
    }

    /// Route a liveness signal to the owner of the subject's shard. A beat
    /// whose owner is dead-but-unconfirmed is lost — exactly like a
    /// heartbeat sent to a crashed coordinator — until the shard's
    /// successor adopts the watch. Returns false for a subject the
    /// landscape does not know (the beat is fenced).
    pub fn beat(&mut self, subject: Subject, now: SimTime) -> bool {
        let Some(shard) = self.shard_of_subject(subject) else {
            return false;
        };
        self.beated.insert(subject);
        let owner = self.leases[shard].owner;
        if self.workers[owner].alive {
            self.workers[owner].inbox_beats.push((subject, now));
        }
        true
    }

    /// The shard responsible for `subject`. Instances belong to their host
    /// server's shard; `None` when the subject has left the landscape.
    pub fn shard_of_subject(&self, subject: Subject) -> Option<ShardId> {
        let landscape = self.landscape();
        match subject {
            Subject::Server(s) => landscape.server(s).ok().map(|_| self.map.shard_of(s)),
            Subject::Service(s) => landscape
                .service(s)
                .ok()
                .map(|_| self.map.shard_of_service(s)),
            Subject::Instance(i) => landscape
                .instance(i)
                .ok()
                .map(|inst| self.map.shard_of(inst.server)),
        }
    }

    /// Mark a server (un)available on every live replica — the harness's
    /// failure-injection hook.
    pub fn set_server_available(&mut self, server: ServerId, available: bool) {
        for w in self.workers.iter_mut().filter(|w| w.alive) {
            w.supervisor
                .landscape_mut()
                .set_available(server, available)
                .expect("replicas agree on the server set");
        }
    }

    /// Broadcast a repair to every live replica; the canonical replica's
    /// `Repaired` event (if any) is kept as the authoritative copy.
    pub fn report_server_repaired(&mut self, server: ServerId, now: SimTime) -> bool {
        let canonical = self.canonical();
        let mut repaired = false;
        for i in 0..self.workers.len() {
            if !self.workers[i].alive {
                continue;
            }
            let outcome = self.workers[i]
                .supervisor
                .report_server_repaired(server, now)
                .expect("replicas agree on the server set");
            let events = self.workers[i].supervisor.drain_events();
            if i == canonical {
                repaired = outcome.is_some();
                self.controller_events.extend(events);
            }
        }
        repaired
    }

    /// Planned failover of a host on every live replica (maintenance
    /// drain): the host is marked unavailable and its instances restart
    /// elsewhere immediately through the supervisor's oracle path
    /// ([`Supervisor::report_server_failure`]) — zero detection latency,
    /// no severed sessions, unlike a kill detected through heartbeat
    /// silence. Deterministic planning over identical state keeps the
    /// replicas in lockstep; the canonical replica's outcome and events
    /// are the authoritative copies.
    pub fn drain_server(&mut self, server: ServerId, now: SimTime) -> RecoveryOutcome {
        let canonical = self.canonical();
        let mut result = RecoveryOutcome::default();
        for i in 0..self.workers.len() {
            if !self.workers[i].alive {
                continue;
            }
            let outcome = self.workers[i]
                .supervisor
                .report_server_failure(server, now);
            let events = self.workers[i].supervisor.drain_events();
            if i == canonical {
                result = outcome;
                self.controller_events.extend(events);
            }
        }
        result
    }

    /// Broadcast a restart retry for a lost instance to every live replica
    /// (deterministic planning over identical state picks the same host on
    /// each). Returns the canonical replica's result.
    pub fn retry_restart(
        &mut self,
        service: ServiceId,
        old_instance: InstanceId,
        now: SimTime,
    ) -> Option<(InstanceId, ServerId)> {
        let canonical = self.canonical();
        let mut result = None;
        for i in 0..self.workers.len() {
            if !self.workers[i].alive {
                continue;
            }
            let outcome = self.workers[i]
                .supervisor
                .retry_restart(service, old_instance, now);
            let events = self.workers[i].supervisor.drain_events();
            if i == canonical {
                result = outcome;
                self.controller_events.extend(events);
            } else {
                debug_assert_eq!(outcome, result, "replicas diverged on a restart retry");
            }
        }
        result
    }

    /// Drain the authoritative controller-event stream (owner-side planning
    /// and failure events, one copy each, in plane order).
    pub fn drain_controller_events(&mut self) -> Vec<ControllerEvent> {
        std::mem::take(&mut self.controller_events)
    }

    /// Drain every replica's execution-substrate log, dead replicas
    /// included, tagged with the replica index — the fencing property tests
    /// audit this for double applies.
    pub fn drain_all_execution_events(&mut self) -> Vec<(usize, ExecutionEvent)> {
        let mut out = Vec::new();
        for (i, w) in self.workers.iter_mut().enumerate() {
            for event in w.supervisor.drain_execution_events() {
                out.push((i, event));
            }
        }
        out
    }

    fn advance_clock(&mut self, now: SimTime) -> Result<(), SupervisorError> {
        if let Some(last) = self.last_now {
            if now < last {
                return Err(SupervisorError::NonMonotonicTime { now, last });
            }
        }
        self.last_now = Some(now);
        Ok(())
    }

    /// Indices of the live replicas, ascending.
    fn live(&self) -> Vec<usize> {
        (0..self.workers.len())
            .filter(|&i| self.workers[i].alive)
            .collect()
    }

    /// Apply `record` to every live replica except `source`.
    fn replicate(&mut self, record: &ActionRecord, source: usize) {
        for i in 0..self.workers.len() {
            if i != source && self.workers[i].alive {
                self.workers[i]
                    .supervisor
                    .apply_remote(record)
                    .expect("replicas apply owner-executed actions in lockstep");
            }
        }
    }

    /// One plane tick (see the module docs): owner liveness and succession,
    /// owner-scoped ingestion and delta publication, the sequential
    /// per-replica interval close, and the merged trigger stream brokered
    /// through the lease table.
    pub fn tick(&mut self, now: SimTime) -> Result<PlaneTickReport, SupervisorError> {
        #[cfg(test)]
        if self.full_stream {
            return self.tick_full_stream(now);
        }
        self.advance_clock(now)?;
        let mut report = PlaneTickReport::default();
        self.check_owners(now, &mut report);
        self.ingest_deltas(now);
        let live = self.close_intervals(now, &mut report);
        let triggers = self.merge_triggers(&live);
        self.dispatch(triggers, now, &mut report);
        Ok(report)
    }

    /// Phase 1, supervisor liveness: every live replica beats the plane
    /// monitor; confirmed silence triggers deterministic succession.
    fn check_owners(&mut self, now: SimTime, report: &mut PlaneTickReport) {
        for i in 0..self.workers.len() {
            if self.workers[i].alive {
                self.liveness
                    .beat(Subject::Server(ServerId::new(i as u32)), now);
            }
        }
        for event in self.liveness.tick(now) {
            let (subject, time) = (event.subject(), event.time());
            let Subject::Server(id) = subject else {
                continue;
            };
            let supervisor = id.index();
            match event {
                HeartbeatEvent::Suspected { .. } => {
                    report
                        .events
                        .push(PlaneEvent::OwnerSuspected { supervisor, time });
                }
                HeartbeatEvent::Confirmed { .. } => {
                    report
                        .events
                        .push(PlaneEvent::OwnerConfirmed { supervisor, time });
                    self.succeed(supervisor, now, report);
                }
                HeartbeatEvent::Reconciled { .. } => {}
            }
        }
    }

    /// Phases 3/4, the sequential interval close in ascending replica
    /// order: close replica i's monitoring interval (which settles its
    /// earlier dispatches and runs its heartbeat self-healing), then
    /// immediately replicate those mutations — settled actions via
    /// `apply_remote`, confirmed failures via `replay_failure` — to every
    /// other live replica before the next replica closes its own interval.
    /// The strict order matters for more than tidiness: landscape mutations
    /// allocate instance ids sequentially, so all replicas must apply the
    /// same tick's mutations in one global order. Were each owner to close
    /// in parallel, two owners mutating in the same tick would each apply
    /// their own mutation first and the other's second, swapping the
    /// allocation order and forking the replicas' id spaces. Returns the
    /// live replicas, ascending.
    fn close_intervals(&mut self, now: SimTime, report: &mut PlaneTickReport) -> Vec<usize> {
        let live = self.live();
        for &i in &live {
            let (completed, triggers) = self.workers[i]
                .supervisor
                .tick_collect(now)
                .expect("the plane clock is monotonic");
            self.workers[i].scratch_triggers = triggers;
            for record in completed {
                self.replicate(&record, i);
                report.executed.push(record);
            }
            let events = self.workers[i].supervisor.drain_events();
            self.controller_events.extend(events);
            // Replay owner-confirmed subject failures on the other replicas
            // (deterministic recovery over identical state), draining and
            // discarding the replicas' duplicate event copies.
            for rec in self.workers[i].supervisor.drain_recoveries() {
                for &j in &live {
                    if j != i {
                        self.workers[j]
                            .supervisor
                            .replay_failure(rec.subject, rec.time);
                        self.workers[j].supervisor.drain_recoveries();
                        self.workers[j].supervisor.drain_events();
                    }
                }
                if let Some(shard) = self.shard_of_subject(rec.subject) {
                    self.deltas[shard]
                        .recoveries
                        .push((to_delta(rec.subject), rec.time.as_secs()));
                }
                report.recoveries.push(rec);
            }
        }
        live
    }

    /// Phase 5, the global trigger stream brokered through the lease table:
    /// the owner stamps the lease epoch, plans, dispatches; every
    /// completion is replicated. Headless shards drop (and count) their
    /// triggers — monitoring re-raises them under the next owner.
    fn dispatch(
        &mut self,
        triggers: Vec<PendingTrigger>,
        now: SimTime,
        report: &mut PlaneTickReport,
    ) {
        for trigger in triggers {
            let Some(shard) = self.shard_of_subject(trigger.event.subject) else {
                continue;
            };
            let lease = self.leases[shard];
            if !self.workers[lease.owner].alive {
                report.dropped_triggers += 1;
                report.events.push(PlaneEvent::TriggerDropped {
                    shard,
                    subject: trigger.event.subject,
                    time: now,
                });
                continue;
            }
            let owner = lease.owner;
            self.workers[owner]
                .supervisor
                .set_execution_epoch(lease.epoch);
            let records = self.workers[owner]
                .supervisor
                .dispatch_trigger(trigger, now)
                .expect("the plane clock is monotonic");
            for record in records {
                self.replicate(&record, owner);
                report.executed.push(record);
            }
            let events = self.workers[owner].supervisor.drain_events();
            self.controller_events.extend(events);
        }
    }

    /// Settle in-flight operations on every live replica's substrate and
    /// replicate whatever completed (only shard owners ever have in-flight
    /// work). Returns the completed actions in ascending-replica order.
    pub fn poll(&mut self, now: SimTime) -> Result<Vec<ActionRecord>, SupervisorError> {
        self.advance_clock(now)?;
        let mut executed = Vec::new();
        for i in self.live() {
            let records = self.workers[i]
                .supervisor
                .poll(now)
                .expect("the plane clock is monotonic");
            for record in records {
                self.replicate(&record, i);
                executed.push(record);
            }
            let events = self.workers[i].supervisor.drain_events();
            self.controller_events.extend(events);
        }
        Ok(executed)
    }

    /// Deterministic succession for a confirmed-dead supervisor: bump the
    /// global epoch, move every lease it held to the lowest live replica,
    /// watch-adopt the shard's heartbeating subjects, rebuild the shard's
    /// monitoring from the sample ring, and fence the dead owner's
    /// in-flight work below the new epoch.
    fn succeed(&mut self, dead: usize, now: SimTime, report: &mut PlaneTickReport) {
        let orphaned: Vec<ShardId> = (0..self.leases.len())
            .filter(|&s| self.leases[s].owner == dead)
            .collect();
        if orphaned.is_empty() {
            return;
        }
        self.epoch += 1;
        let successor = self.canonical();
        for &shard in &orphaned {
            self.leases[shard] = Lease {
                owner: successor,
                epoch: self.epoch,
            };
            report.events.push(PlaneEvent::ShardReadopted {
                shard,
                from: dead,
                to: successor,
                epoch: self.epoch,
                time: now,
            });
            let adopt: Vec<Subject> = self
                .beated
                .iter()
                .copied()
                .filter(|&s| self.shard_of_subject(s) == Some(shard))
                .collect();
            for subject in adopt {
                self.workers[successor].supervisor.watch(subject);
            }
            self.adopt_shard_monitoring(shard, successor, report);
        }
        report.fenced += self.workers[dead]
            .supervisor
            .fence_stale_epochs(self.epoch, now)
            .len();
    }

    /// Phase 2: route the buffered stream (owner inboxes, the sample ring,
    /// per-shard delta loads), let owners ingest their inboxes in parallel,
    /// then publish the deltas — watch snapshots into the ring, foreign
    /// loads onto every other live replica — in ascending live-replica
    /// order. Headless shards have no publisher; the plane itself applies
    /// their loads to every live replica so cross-shard planning never
    /// reads a stale view.
    fn ingest_deltas(&mut self, now: SimTime) {
        self.ingest.buffered += self.measurements.len() as u64;
        let now_secs = now.as_secs();
        for shard in 0..self.deltas.len() {
            let epoch = self.leases[shard].epoch;
            let delta = &mut self.deltas[shard];
            delta.shard = shard;
            delta.epoch = epoch;
            delta.now_secs = now_secs;
            delta.loads.clear();
            delta.watches.clear();
            delta.recoveries.clear();
        }

        // Hoist subject routing out of the arrival loop: server and service
        // shards come from bounds checks plus [`ShardMap`], and one instance
        // walk flattens the tree into a dense id → shard table — the loop
        // below must not pay a canonical-landscape resolve and a tree
        // lookup per instance measurement. The table reproduces
        // [`Self::shard_of_subject`] exactly: a departed instance id maps
        // to the `u32::MAX` sentinel, i.e. `None`.
        let mut instance_shard = std::mem::take(&mut self.route_scratch);
        let (num_servers, num_services) = {
            let landscape = self.landscape();
            instance_shard.clear();
            instance_shard.resize(landscape.instance_id_bound() as usize, u32::MAX);
            for inst in landscape.instances() {
                instance_shard[inst.id.index()] = self.map.shard_of(inst.server) as u32;
            }
            (landscape.num_servers(), landscape.num_services())
        };

        // Route in global arrival order, tagging each measurement with its
        // arrival sequence. Subjects that departed since recording drop
        // here — the supervisors' own `record` fences them identically.
        for seq in 0..self.measurements.len() {
            let (subject, time, cpu, mem) = self.measurements[seq];
            let shard = match subject {
                Subject::Server(s) if s.index() < num_servers => self.map.shard_of(s),
                Subject::Service(s) if s.index() < num_services => self.map.shard_of_service(s),
                Subject::Instance(i) => match instance_shard.get(i.index()).copied() {
                    Some(shard) if shard != u32::MAX => shard as ShardId,
                    _ => continue,
                },
                _ => continue,
            };
            match subject {
                Subject::Server(_) | Subject::Service(_) => {
                    self.ring.push(to_delta(subject), time.as_secs(), cpu, mem);
                }
                Subject::Instance(_) => {}
            }
            self.deltas[shard].loads.push((to_delta(subject), cpu, mem));
            let owner = self.leases[shard].owner;
            if self.workers[owner].alive {
                self.workers[owner]
                    .inbox_measurements
                    .push((seq as u64, subject, time, cpu, mem));
            }
        }
        self.measurements.clear();
        self.route_scratch = instance_shard;

        // Owners ingest their own shards only — O(landscape/shards) per
        // replica — noting the arrival tag of every ingestion that raised
        // a trigger, so phase 5 can restore the global order.
        self.ingest.ingested += self
            .workers
            .iter()
            .filter(|w| w.alive)
            .map(|w| w.inbox_measurements.len() as u64)
            .sum::<u64>();
        pool::parallel_chunks_mut(self.jobs, &mut self.workers, |_, chunk| {
            for w in chunk.iter_mut().filter(|w| w.alive) {
                for idx in 0..w.inbox_measurements.len() {
                    let (seq, subject, time, cpu, mem) = w.inbox_measurements[idx];
                    let before = w.supervisor.pending_trigger_count();
                    match subject {
                        Subject::Server(s) => w.supervisor.record_server(s, time, cpu, mem),
                        Subject::Service(s) => w.supervisor.record_service(s, time, cpu),
                        Subject::Instance(i) => w.supervisor.record_instance(i, time, cpu),
                    }
                    if w.supervisor.pending_trigger_count() > before {
                        w.trigger_tags.push((seq, subject));
                    }
                }
                w.inbox_measurements.clear();
                for idx in 0..w.inbox_beats.len() {
                    let (subject, time) = w.inbox_beats[idx];
                    w.supervisor
                        .beat(subject, time)
                        .expect("the plane routes monotonic beats");
                }
                w.inbox_beats.clear();
            }
        });

        // Collect each live owner's end-of-ingestion watch states into its
        // shards' deltas — the snapshots a successor restores from.
        {
            let Self {
                ref workers,
                ref mut deltas,
                ref map,
                ref leases,
                ..
            } = *self;
            let canonical = workers
                .iter()
                .position(|w| w.alive)
                .expect("at least one supervisor is always live");
            let landscape = workers[canonical].supervisor.landscape();
            for server in landscape.server_ids() {
                let shard = map.shard_of(server);
                let owner = leases[shard].owner;
                if !workers[owner].alive {
                    continue;
                }
                if let Some(advisor) = workers[owner].supervisor.advisor(Subject::Server(server)) {
                    deltas[shard].watches.push((
                        DeltaSubject::Server(server),
                        snapshot_of(advisor.watch_state()),
                    ));
                }
            }
            for service in landscape.service_ids() {
                let shard = map.shard_of_service(service);
                let owner = leases[shard].owner;
                if !workers[owner].alive {
                    continue;
                }
                if let Some(advisor) = workers[owner].supervisor.advisor(Subject::Service(service))
                {
                    deltas[shard].watches.push((
                        DeltaSubject::Service(service),
                        snapshot_of(advisor.watch_state()),
                    ));
                }
            }
        }

        // Publish in ascending live-replica order: each publisher's shard
        // deltas absorb into the ring and land on every other live
        // replica's loads view.
        let live = self.live();
        for &publisher in &live {
            for shard in 0..self.deltas.len() {
                if self.leases[shard].owner != publisher {
                    continue;
                }
                self.ring.absorb(&self.deltas[shard]);
                for &replica in &live {
                    if replica != publisher {
                        self.apply_delta_loads(shard, replica);
                    }
                }
            }
        }
        for shard in 0..self.deltas.len() {
            if self.workers[self.leases[shard].owner].alive {
                continue;
            }
            for &replica in &live {
                self.apply_delta_loads(shard, replica);
            }
        }
    }

    /// Apply one shard delta's loads to `replica`'s latest-value view.
    fn apply_delta_loads(&mut self, shard: ShardId, replica: usize) {
        let Self {
            ref deltas,
            ref mut workers,
            ..
        } = *self;
        for &(subject, cpu, mem) in &deltas[shard].loads {
            workers[replica]
                .supervisor
                .apply_remote_load(from_delta(subject), cpu, mem);
        }
    }

    /// Phase 5's input: interleave the owners' trigger streams back into
    /// the global order a full-stream replica derives. Measured triggers
    /// carry the arrival sequence of the measurement that raised them (the
    /// tandem `trigger_tags`); proactive triggers sort by subject. A tag
    /// whose trigger was pruned before the interval closed (its subject
    /// departed) is skipped by the tandem walk — a departed subject can
    /// never collide with a live proactive subject, so the walk stays
    /// aligned.
    fn merge_triggers(&mut self, live: &[usize]) -> Vec<PendingTrigger> {
        let mut keyed: Vec<(TriggerKey, PendingTrigger)> = Vec::new();
        for &i in live {
            let triggers = std::mem::take(&mut self.workers[i].scratch_triggers);
            let tags = &mut self.workers[i].trigger_tags;
            let mut cursor = 0;
            for trigger in triggers {
                let subject = trigger.event.subject;
                let mut matched = None;
                let mut probe = cursor;
                while probe < tags.len() {
                    if tags[probe].1 == subject {
                        matched = Some(tags[probe].0);
                        cursor = probe + 1;
                        break;
                    }
                    probe += 1;
                }
                let key = match matched {
                    Some(seq) => TriggerKey::Measured(seq),
                    None => TriggerKey::Proactive(subject),
                };
                keyed.push((key, trigger));
            }
            tags.clear();
        }
        keyed.sort_by_key(|&(key, _)| key);
        keyed.into_iter().map(|(_, trigger)| trigger).collect()
    }

    /// Adoption: extend the successor's monitor scope with the shard and
    /// rebuild its monitoring from the plane's sample ring. Each
    /// server/service of the shard restores from the dead owner's last
    /// published watch snapshot, then replays the samples that arrived
    /// after it. Any trigger the replay re-derives is one a full-stream
    /// replica would have dropped at dispatch while the shard was
    /// headless, so it is counted and evented identically, stamped with
    /// the trigger's own confirmation time. (The owner's load *archive* is
    /// not rebuilt: it only feeds proactive control, which restarts cold
    /// for the adopted shard — a documented limitation.)
    fn adopt_shard_monitoring(
        &mut self,
        shard: ShardId,
        successor: usize,
        report: &mut PlaneTickReport,
    ) {
        // The full-stream oracle's unscoped replicas already monitor
        // every subject.
        #[cfg(test)]
        if self.full_stream {
            return;
        }
        self.workers[successor].supervisor.adopt_shard(shard);
        let subjects: Vec<(Subject, SubjectConfig)> = {
            let landscape = self.workers[successor].supervisor.landscape();
            let servers = landscape
                .server_ids()
                .filter(|&s| self.map.shard_of(s) == shard)
                .map(|s| {
                    let idx = landscape
                        .server(s)
                        .map(|spec| spec.performance_index)
                        .unwrap_or(1.0);
                    (Subject::Server(s), SubjectConfig::paper_defaults(idx))
                });
            let services = landscape
                .service_ids()
                .filter(|&s| self.map.shard_of_service(s) == shard)
                .map(|s| (Subject::Service(s), SubjectConfig::service_defaults()));
            servers.chain(services).collect()
        };
        for (subject, config) in subjects {
            let key = to_delta(subject);
            let snapshot = self.ring.watch_of(key);
            let mut advisor = match snapshot {
                Some((state, at)) => Advisor::restore(
                    subject,
                    config,
                    state_of(state),
                    self.ring
                        .samples_of(key)
                        .filter(move |&(t, _, _)| t <= at)
                        .map(|(t, cpu, mem)| LoadSample::new(SimTime::from_secs(t), cpu, mem)),
                ),
                // The owner died before publishing any delta: no snapshot,
                // so the whole retained window replays through a fresh
                // advisor.
                None => Advisor::restore(subject, config, WatchState::Quiet, std::iter::empty()),
            };
            let split = snapshot.map(|(_, at)| at);
            let mut replays: Vec<SimTime> = Vec::new();
            for (t, cpu, mem) in self.ring.samples_of(key) {
                if split.map(|at| t > at).unwrap_or(true) {
                    if let Some(trigger) =
                        advisor.observe(LoadSample::new(SimTime::from_secs(t), cpu, mem))
                    {
                        replays.push(trigger.time);
                    }
                }
            }
            for time in replays {
                report.dropped_triggers += 1;
                report.events.push(PlaneEvent::TriggerDropped {
                    shard,
                    subject,
                    time,
                });
            }
            self.workers[successor].supervisor.install_advisor(advisor);
        }
    }
}

/// Chaos-injection knobs for a [`ShardedRun`]: ground-truth server failures
/// plus a schedule of shard-owner kills.
#[derive(Debug, Clone)]
pub struct ShardChaos {
    /// Probability of a host failing, per server per simulated hour.
    pub server_failure_per_hour: f64,
    /// How long a failed host stays down before it is repaired.
    pub repair_after: SimDuration,
    /// Fractions of the horizon at which the lowest live supervisor is
    /// killed (e.g. `[0.35, 0.65]` kills two owners mid-run). Kills that
    /// would leave the plane headless are refused and simply don't happen.
    pub kill_fracs: Vec<f64>,
}

impl ShardChaos {
    /// No failures, no kills — the plane under ideal paper conditions.
    pub fn none() -> Self {
        ShardChaos {
            server_failure_per_hour: 0.0,
            repair_after: SimDuration::from_hours(1),
            kill_fracs: Vec::new(),
        }
    }
}

/// Recovery metrics of one [`ShardedRun`] — the `shard_recovery.csv`
/// columns.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardRecoveryStats {
    /// Ground-truth server failures injected.
    pub failures_injected: usize,
    /// Server failures confirmed through an owner's heartbeat path.
    pub detections: usize,
    /// Total seconds from injection to confirmation, over all detections.
    pub detection_secs: u64,
    /// Shard owners killed.
    pub owner_kills: usize,
    /// Owner kills the plane confirmed.
    pub owner_detections: usize,
    /// Total seconds from kill to plane confirmation.
    pub owner_detection_secs: u64,
    /// Shards re-adopted by a successor.
    pub readoptions: usize,
    /// Total seconds from the owner's kill to each shard's re-adoption.
    pub readoption_secs: u64,
    /// In-flight operations fenced with a stale epoch.
    pub fenced_ops: usize,
    /// Triggers dropped while their shard was headless.
    pub dropped_triggers: usize,
    /// Instances the self-healing path restarted elsewhere.
    pub recovered_instances: usize,
    /// Instances lost for lack of capacity (queued for retry).
    pub lost_instances: usize,
    /// Lost restarts later satisfied by a retry.
    pub retried_restarts: usize,
    /// Hosts repaired and returned to the pool.
    pub repairs: usize,
    /// Sessions severed by host failures.
    pub lost_sessions: f64,
}

impl ShardRecoveryStats {
    /// Mean seconds from server-failure injection to confirmation.
    pub fn mean_detection_secs(&self) -> f64 {
        if self.detections == 0 {
            0.0
        } else {
            self.detection_secs as f64 / self.detections as f64
        }
    }

    /// Mean seconds from an owner kill to the plane confirming it.
    pub fn mean_owner_detection_secs(&self) -> f64 {
        if self.owner_detections == 0 {
            0.0
        } else {
            self.owner_detection_secs as f64 / self.owner_detections as f64
        }
    }

    /// Mean seconds from an owner kill to each of its shards being
    /// re-adopted (the plane re-adopts in the same tick it confirms, so
    /// this equals the detection latency under the default protocol).
    pub fn mean_readoption_secs(&self) -> f64 {
        if self.readoptions == 0 {
            0.0
        } else {
            self.readoption_secs as f64 / self.readoptions as f64
        }
    }
}

/// The paper's SAP workload driven through a [`ShardedControlPlane`], with
/// optional ground-truth chaos: host failures detected through the owners'
/// heartbeat paths, and shard-owner kills that exercise lease succession
/// and epoch fencing. With [`ShardChaos::none`] and one shard this is
/// bit-identical to [`SupervisedRun`](crate::harness::SupervisedRun)
/// (test-enforced).
pub struct ShardedRun {
    plane: ShardedControlPlane,
    engine: WorkloadEngine,
    rng: Rng,
    metrics: Metrics,
    time: SimTime,
    tick: SimDuration,
    duration: SimDuration,
    chaos: ShardChaos,
    fail_per_tick: f64,
    down: BTreeSet<ServerId>,
    dead_instances: BTreeSet<InstanceId>,
    repairs_due: Vec<(SimTime, ServerId)>,
    restart_queue: Vec<(ServiceId, InstanceId)>,
    failed_at: BTreeMap<ServerId, SimTime>,
    kill_times: Vec<SimTime>,
    killed_at: BTreeMap<usize, SimTime>,
    /// Scenario-scheduled correlated kills `(at, server, down_for)`,
    /// ascending, drained as they come due (no RNG draws — composing a
    /// schedule never perturbs the failure dice).
    scheduled_kills: Vec<(SimTime, ServerId, SimDuration)>,
    /// Scenario-scheduled maintenance drains `(from, to, server)`.
    scheduled_drains: Vec<(SimTime, SimTime, ServerId)>,
    /// Servers currently drained (alive but out of rotation), with their
    /// rejoin time.
    draining: BTreeMap<ServerId, SimTime>,
    /// Recovery metrics accumulated so far.
    pub stats: ShardRecoveryStats,
}

impl ShardedRun {
    /// Wire `env` to a `shards`-way control plane built from `supervisor`
    /// config, with `jobs` capping the plane's scoped-thread fan-out — the
    /// constructor behind [`crate::RunBuilder::sharded`].
    ///
    /// # Panics
    /// Panics when `sim` fails validation or `shards` is zero.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn assemble(
        env: SapEnvironment,
        sim: &SimConfig,
        supervisor: SupervisorConfig,
        shards: usize,
        jobs: usize,
        chaos: ShardChaos,
        modulation: LoadModulation,
        schedule: ScenarioSchedule,
    ) -> Self {
        let (landscape, engine, metrics) = workload_model(env, sim, modulation);
        let (scheduled_kills, scheduled_drains) = resolve_schedule(&schedule, &landscape);
        let fail_per_tick = chaos.server_failure_per_hour * sim.tick.as_secs() as f64 / 3600.0;
        let kill_times: Vec<SimTime> = chaos
            .kill_fracs
            .iter()
            .map(|f| {
                SimTime::ZERO + SimDuration::from_secs((sim.duration.as_secs() as f64 * f) as u64)
            })
            .collect();
        ShardedRun {
            plane: ShardedControlPlane::new(landscape, shards, supervisor).with_jobs(jobs),
            engine,
            rng: Rng::seed_from_u64(sim.seed),
            metrics,
            time: SimTime::ZERO,
            tick: sim.tick,
            duration: sim.duration,
            chaos,
            fail_per_tick,
            down: BTreeSet::new(),
            dead_instances: BTreeSet::new(),
            repairs_due: Vec::new(),
            restart_queue: Vec::new(),
            failed_at: BTreeMap::new(),
            kill_times,
            killed_at: BTreeMap::new(),
            scheduled_kills,
            scheduled_drains,
            draining: BTreeMap::new(),
            stats: ShardRecoveryStats::default(),
        }
    }

    /// The plane (to inspect leases, epochs, replicas).
    pub fn plane(&self) -> &ShardedControlPlane {
        &self.plane
    }

    /// Mutable plane access (tests: kill owners directly, drain logs).
    pub fn plane_mut(&mut self) -> &mut ShardedControlPlane {
        &mut self.plane
    }

    /// The metrics collected so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Advance one tick: workload model → measurement broadcast → chaos
    /// injection → heartbeats → plane tick → session mirroring and recovery
    /// accounting.
    pub fn step(&mut self) {
        self.time += self.tick;
        let time = self.time;

        // Workload model against the canonical replica's landscape;
        // instances on failed-but-undetected hosts serve nothing.
        let loads = self.engine.advance(
            self.plane.landscape(),
            &self.dead_instances,
            time,
            &mut self.rng,
            &mut self.metrics,
        );

        // Measurements in — a dead box reports nothing. Each entry goes
        // straight into the plane's reused buffer; no per-tick staging
        // vector (test-enforced by the allocation assertions).
        for (server, cpu, mem) in loads.server_entries() {
            if !self.down.contains(&server) {
                self.plane.record_server(server, time, cpu, mem);
            }
        }
        for (service, cpu) in loads.service_entries() {
            self.plane.record_service(service, time, cpu);
        }
        for (instance, cpu) in loads.instance_entries() {
            if !self.dead_instances.contains(&instance) {
                self.plane.record_instance(instance, time, cpu);
            }
        }

        // Due repairs return hosts to the pool on every replica.
        let due: Vec<ServerId> = self
            .repairs_due
            .iter()
            .filter(|(at, _)| *at <= time)
            .map(|&(_, s)| s)
            .collect();
        self.repairs_due.retain(|(at, _)| *at > time);
        for server in due {
            self.down.remove(&server);
            self.failed_at.remove(&server);
            self.plane.report_server_repaired(server, time);
            self.stats.repairs += 1;
        }

        // Scenario-scheduled maintenance drains and correlated kills — a
        // fixed timetable replayed through the plane's public API, drawing
        // nothing from the RNG. Drain ends come first: a host rejoining
        // this tick is back in the pool before any new event resolves.
        let rejoining: Vec<ServerId> = self
            .draining
            .iter()
            .filter(|&(_, &to)| time >= to)
            .map(|(&server, _)| server)
            .collect();
        for server in rejoining {
            self.draining.remove(&server);
            self.plane.report_server_repaired(server, time);
        }
        while let Some(&(from, to, server)) = self.scheduled_drains.first() {
            if time < from {
                break;
            }
            self.scheduled_drains.remove(0);
            if self.down.contains(&server) || !self.plane.landscape().is_available(server) {
                continue;
            }
            let outcome = self.plane.drain_server(server, time);
            self.stats.recovered_instances += outcome.recovered.len();
            self.metrics.recoveries += outcome.recovered.len();
            self.stats.lost_instances += outcome.lost.len();
            for (instance, service) in outcome.lost {
                self.restart_queue.push((service, instance));
            }
            self.draining.insert(server, to);
        }
        while let Some(&(at, server, down_for)) = self.scheduled_kills.first() {
            if time < at {
                break;
            }
            self.scheduled_kills.remove(0);
            if self.down.contains(&server) || !self.plane.landscape().is_available(server) {
                continue;
            }
            self.fail_server(server, time, down_for);
        }

        // Ground-truth host failures (ascending server ids, one die each —
        // the draw order is pinned so runs reproduce bit for bit).
        if self.fail_per_tick > 0.0 {
            let servers: Vec<ServerId> = self.plane.landscape().server_ids().collect();
            for server in servers {
                if self.down.contains(&server) {
                    continue;
                }
                if self.rng.random_bool(self.fail_per_tick) {
                    self.fail_server(server, time, self.chaos.repair_after);
                }
            }
        }

        // The kill schedule takes down the lowest live supervisor — the
        // canonical replica itself, the hardest owner to lose.
        while self
            .kill_times
            .first()
            .map(|&at| at <= time)
            .unwrap_or(false)
        {
            self.kill_times.remove(0);
            let victim = self.plane.canonical();
            if self.plane.kill(victim) {
                self.stats.owner_kills += 1;
                self.killed_at.insert(victim, time);
            }
        }

        // Liveness: every healthy host beats its shard owner.
        let servers: Vec<ServerId> = self.plane.landscape().server_ids().collect();
        for server in servers {
            if !self.down.contains(&server) {
                self.plane.beat(Subject::Server(server), time);
            }
        }

        // One plane tick; then mirror and account for what it did.
        let report = self
            .plane
            .tick(time)
            .expect("the harness clock advances monotonically");
        for record in report.executed {
            self.engine
                .note_action(&record.outcome, self.plane.landscape(), time);
            self.metrics.actions.push(record);
        }
        for rec in report.recoveries {
            if let Subject::Server(server) = rec.subject {
                if let Some(at) = self.failed_at.remove(&server) {
                    self.stats.detections += 1;
                    self.stats.detection_secs += time.since(at).as_secs();
                    self.metrics.detections += 1;
                    self.metrics.detection_latency_secs += time.since(at).as_secs();
                    self.metrics.recovery_time_secs +=
                        time.since(at).as_secs() * rec.outcome.recovered.len() as u64;
                }
            }
            self.stats.recovered_instances += rec.outcome.recovered.len();
            self.metrics.recoveries += rec.outcome.recovered.len();
            self.stats.lost_instances += rec.outcome.lost.len();
            for &(instance, service) in &rec.outcome.lost {
                self.restart_queue.push((service, instance));
            }
        }
        for event in report.events {
            match event {
                PlaneEvent::OwnerConfirmed {
                    supervisor,
                    time: at,
                } => {
                    if let Some(&killed) = self.killed_at.get(&supervisor) {
                        self.stats.owner_detections += 1;
                        self.stats.owner_detection_secs += at.since(killed).as_secs();
                    }
                }
                PlaneEvent::ShardReadopted { from, time: at, .. } => {
                    self.stats.readoptions += 1;
                    if let Some(&killed) = self.killed_at.get(&from) {
                        self.stats.readoption_secs += at.since(killed).as_secs();
                    }
                }
                _ => {}
            }
        }
        self.stats.fenced_ops += report.fenced;
        self.stats.dropped_triggers += report.dropped_triggers;

        // Lost instances retry once capacity may have returned.
        for (service, instance) in std::mem::take(&mut self.restart_queue) {
            if self.plane.retry_restart(service, instance, time).is_some() {
                self.stats.retried_restarts += 1;
            } else {
                self.restart_queue.push((service, instance));
            }
        }

        // Dead instances that recovery replaced are gone from the
        // landscape; stop tracking them.
        let landscape = self.plane.landscape();
        self.dead_instances
            .retain(|&i| landscape.instance(i).is_ok());

        for event in self.plane.drain_controller_events() {
            if matches!(event, ControllerEvent::AdministratorAlert { .. }) {
                self.metrics.alerts += 1;
            }
        }
    }

    /// Take a host down in the ground truth until `time + down_for`: its
    /// instances die with it (sessions severed, serving nothing) and every
    /// replica marks it unavailable.
    fn fail_server(&mut self, server: ServerId, time: SimTime, down_for: SimDuration) {
        self.stats.failures_injected += 1;
        self.metrics.failures += 1;
        self.down.insert(server);
        self.failed_at.insert(server, time);
        self.repairs_due.push((time + down_for, server));
        for instance in self.plane.landscape().instances_on(server) {
            let severed = self.engine.sever_sessions(self.plane.landscape(), instance);
            self.stats.lost_sessions += severed;
            self.metrics.lost_sessions += severed;
            self.dead_instances.insert(instance);
        }
        self.plane.set_server_available(server, false);
    }

    /// Run to completion; returns the workload metrics and the recovery
    /// stats.
    pub fn run(mut self) -> (Metrics, ShardRecoveryStats) {
        let ticks = self.duration.as_secs() / self.tick.as_secs().max(1);
        for _ in 0..ticks {
            self.step();
        }
        self.metrics.duration = self.duration;
        (self.metrics, self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::RunBuilder;
    use autoglobe_controller::ExecutorConfig;
    use autoglobe_landscape::{ServerSpec, ServiceKind, ServiceSpec, SynthConfig};
    use autoglobe_simulator::{synth_environment, Scenario};

    fn fig13_config(hours: u64) -> SimConfig {
        SimConfig::paper(Scenario::ConstrainedMobility, 1.15)
            .with_duration(SimDuration::from_hours(hours))
    }

    /// A printable fingerprint of a landscape's observable state, for
    /// replica-lockstep assertions (the type has no `PartialEq`).
    fn landscape_digest(l: &Landscape) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for server in l.server_ids() {
            writeln!(out, "server {} avail={}", server, l.is_available(server)).unwrap();
        }
        for inst in l.instances() {
            writeln!(
                out,
                "instance {} service={} server={} ip={}",
                inst.id, inst.service, inst.server, inst.ip
            )
            .unwrap();
        }
        out
    }

    /// How a test plane replicates the measurement stream: the production
    /// delta path, or the full-stream oracle.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Replication {
        Delta,
        Full,
    }

    impl ShardedControlPlane {
        /// Hand the plane to the full-stream replication oracle: every live
        /// replica monitors every subject. Call before any measurement is
        /// recorded.
        fn use_full_stream(&mut self) {
            self.full_stream = true;
            for w in &mut self.workers {
                w.supervisor.clear_monitor_scope();
            }
        }

        /// The oracle's tick — state machine replication: every live
        /// replica ingests the complete buffered stream, so each derives the
        /// identical confirmed-trigger stream and the plane takes the lowest
        /// live replica's. Succession, the interval close and dispatch are
        /// the production phases.
        pub(super) fn tick_full_stream(
            &mut self,
            now: SimTime,
        ) -> Result<PlaneTickReport, SupervisorError> {
            self.advance_clock(now)?;
            let mut report = PlaneTickReport::default();
            self.check_owners(now, &mut report);
            let live = self.live();
            self.ingest.buffered += self.measurements.len() as u64;
            self.ingest.ingested += (live.len() * self.measurements.len()) as u64;
            for &i in &live {
                let w = &mut self.workers[i];
                for &(subject, time, cpu, mem) in &self.measurements {
                    match subject {
                        Subject::Server(s) => w.supervisor.record_server(s, time, cpu, mem),
                        Subject::Service(s) => w.supervisor.record_service(s, time, cpu),
                        Subject::Instance(i) => w.supervisor.record_instance(i, time, cpu),
                    }
                }
                for (subject, time) in w.inbox_beats.drain(..) {
                    w.supervisor
                        .beat(subject, time)
                        .expect("the plane routes monotonic beats");
                }
            }
            self.measurements.clear();
            let live = self.close_intervals(now, &mut report);
            let canonical = self.canonical();
            let triggers = std::mem::take(&mut self.workers[canonical].scratch_triggers);
            for &i in &live {
                self.workers[i].scratch_triggers.clear();
            }
            self.dispatch(triggers, now, &mut report);
            Ok(report)
        }
    }

    /// Finish a builder as a sharded run on the chosen replication path.
    fn sharded(builder: RunBuilder, replication: Replication) -> ShardedRun {
        let mut run = builder.sharded();
        if replication == Replication::Full {
            run.plane_mut().use_full_stream();
        }
        run
    }

    #[test]
    fn one_shard_reproduces_the_supervised_run_bit_for_bit() {
        let hours = 12;
        let sim = fig13_config(hours);
        let reference = RunBuilder::new(Scenario::ConstrainedMobility)
            .sim(sim.clone())
            .supervised()
            .run();
        // Both replication paths must reproduce the unsharded run: delta is
        // the production path, full the oracle — pinned twins.
        for mode in [Replication::Delta, Replication::Full] {
            let builder = RunBuilder::new(Scenario::ConstrainedMobility).sim(sim.clone());
            let (sharded, stats) = sharded(builder, mode).run();
            assert_eq!(reference.actions, sharded.actions, "{mode:?}");
            assert_eq!(reference.alerts, sharded.alerts, "{mode:?}");
            assert_eq!(reference.overload_secs, sharded.overload_secs, "{mode:?}");
            assert_eq!(
                reference.total_demand.to_bits(),
                sharded.total_demand.to_bits(),
                "{mode:?}"
            );
            assert_eq!(
                stats,
                ShardRecoveryStats::default(),
                "no chaos, no recovery ({mode:?})"
            );
        }
    }

    #[test]
    fn delta_and_full_replication_agree_bit_for_bit_under_chaos() {
        // The tentpole contract: owner-scoped ingestion with compact delta
        // replication produces the same actions, workload metrics and
        // recovery statistics as full state machine replication — through
        // owner kills, epoch changes and monitoring rebuilds.
        let sim = fig13_config(16);
        let executor = ExecutorConfig {
            min_latency: SimDuration::from_minutes(2),
            max_latency: SimDuration::from_minutes(8),
            timeout: SimDuration::from_minutes(6),
            failure_probability: 0.1,
            ..ExecutorConfig::reliable()
        };
        let sup = SupervisorConfig {
            controller: sim.controller,
            executor,
            executor_seed: 99,
            ..SupervisorConfig::default()
        };
        let chaos = ShardChaos {
            server_failure_per_hour: 0.05,
            repair_after: SimDuration::from_hours(1),
            kill_fracs: vec![0.4, 0.7],
        };
        let builder = RunBuilder::new(Scenario::ConstrainedMobility)
            .sim(sim)
            .supervisor(sup)
            .shards(4)
            .plane_jobs(2)
            .shard_chaos(chaos);
        let (delta, stats) = assert_delta_matches_full(builder, "16 h, 4 shards");
        assert!(stats.failures_injected > 0, "the dice must fail hosts");
        assert_eq!(delta.failures, stats.failures_injected);
    }

    /// The `experiments shardchaos` substrate on `shards` shards: host
    /// failures at 0.05 per server-hour with 1 h repairs, `kills` owner
    /// kills at 35 % and 65 % of the horizon, and the latent fallible
    /// executor (30 s – 3 min, 5 % failed attempts) so kills leave
    /// in-flight work to fence.
    fn shard_chaos(builder: RunBuilder, shards: usize, kills: usize) -> RunBuilder {
        builder
            .execution(ExecutorConfig {
                min_latency: SimDuration::from_secs(30),
                max_latency: SimDuration::from_minutes(3),
                timeout: SimDuration::from_minutes(2),
                failure_probability: 0.05,
                ..ExecutorConfig::reliable()
            })
            .shards(shards)
            .plane_jobs(2)
            .shard_chaos(ShardChaos {
                server_failure_per_hour: 0.05,
                repair_after: SimDuration::from_hours(1),
                kill_fracs: [0.35, 0.65][..kills].to_vec(),
            })
    }

    /// Run `builder` on both replication paths and require the same
    /// action stream, alerts, overload, demand bits and recovery
    /// statistics. Returns the delta run's results.
    fn assert_delta_matches_full(
        builder: RunBuilder,
        label: &str,
    ) -> (Metrics, ShardRecoveryStats) {
        let (full, full_stats) = sharded(builder.clone(), Replication::Full).run();
        let (delta, delta_stats) = sharded(builder, Replication::Delta).run();
        assert_eq!(full.actions, delta.actions, "{label}: actions diverged");
        assert_eq!(full.alerts, delta.alerts, "{label}: alerts diverged");
        assert_eq!(full.overload_secs, delta.overload_secs, "{label}");
        assert_eq!(
            full.total_demand.to_bits(),
            delta.total_demand.to_bits(),
            "{label}: demand diverged"
        );
        assert_eq!(full_stats, delta_stats, "{label}: recovery stats diverged");
        (delta, delta_stats)
    }

    #[test]
    fn delta_replication_matches_full_on_the_paper_shard_ladder() {
        // The shard-smoke point (Figure 13, ideal conditions, 4 shards) and
        // every chaos point of the shardchaos ladder: owner kills, epoch
        // changes, fencing and monitoring rebuilds are all invisible.
        let smoke = RunBuilder::new(Scenario::ConstrainedMobility)
            .hours(6)
            .seed(42)
            .shards(4)
            .plane_jobs(2);
        let (_, stats) = assert_delta_matches_full(smoke, "shard smoke");
        assert_eq!(stats, ShardRecoveryStats::default());
        for (shards, kills) in [(2, 1), (3, 2), (4, 2)] {
            let builder = RunBuilder::new(Scenario::ConstrainedMobility)
                .hours(2)
                .seed(7);
            let label = format!("{shards} shards, {kills} kills");
            let (_, stats) = assert_delta_matches_full(shard_chaos(builder, shards, kills), &label);
            assert_eq!(stats.owner_detections, kills, "{label}: kills confirmed");
            assert!(stats.readoptions >= kills, "{label}: shards re-adopted");
        }
    }

    #[test]
    fn delta_replication_matches_full_on_synth_landscapes() {
        // The same contract beyond the paper pool: seeded synthetic
        // landscapes at the ladder's shard and kill counts.
        for (servers, shards, kills, seed) in [(50, 2, 1, 77), (80, 3, 2, 101), (120, 4, 2, 131)] {
            let builder = RunBuilder::new(Scenario::ConstrainedMobility)
                .multiplier(1.0)
                .hours(4)
                .seed(seed)
                .environment(synth_environment(&SynthConfig::sized(servers, seed)));
            let label = format!("{servers} servers, {shards} shards, {kills} kills");
            let (_, stats) = assert_delta_matches_full(shard_chaos(builder, shards, kills), &label);
            assert_eq!(stats.owner_detections, kills, "{label}: kills confirmed");
        }
    }

    #[test]
    fn replica_load_views_match_the_full_stream_oracle_through_an_owner_kill() {
        // State-level equivalence, tick by tick: every live replica's
        // latest-value load view — what planning reads for candidate
        // hosts — equals the full-stream oracle's, including the headless
        // window between the owner's kill and its confirmation, when the
        // plane itself must publish the orphaned shard's loads.
        let (mut delta, servers) = tiny_plane(3, ExecutorConfig::reliable());
        let (mut full, _) = tiny_plane(3, ExecutorConfig::reliable());
        full.use_full_stream();
        let mut t = SimTime::ZERO;
        for tick in 0..12u32 {
            t += SimDuration::from_minutes(1);
            if tick == 3 {
                let victim = delta.canonical();
                assert!(delta.kill(victim) && full.kill(victim));
            }
            for plane in [&mut delta, &mut full] {
                for (k, &s) in servers.iter().enumerate() {
                    let cpu = 0.05 * f64::from(tick) + 0.01 * k as f64;
                    plane.record_server(s, t, cpu, cpu / 2.0);
                    plane.beat(Subject::Server(s), t);
                }
                plane.tick(t).unwrap();
            }
            for i in (0..delta.shards()).filter(|&i| delta.is_alive(i)) {
                let (d, f) = (
                    delta.supervisor(i).load_view(),
                    full.supervisor(i).load_view(),
                );
                for &s in &servers {
                    let subject = Subject::Server(s);
                    assert_eq!(
                        (d.cpu(subject).to_bits(), d.mem(subject).to_bits()),
                        (f.cpu(subject).to_bits(), f.mem(subject).to_bits()),
                        "tick {tick}: replica {i} sees {s} differently"
                    );
                }
            }
        }
    }

    #[test]
    fn plane_buffers_are_reused_and_delta_ingests_each_measurement_once() {
        let minute = SimDuration::from_minutes(1);
        // Delta (the default): one supervisor-side ingestion per
        // measurement across the whole plane, and the measurement buffer
        // settles at its first-tick capacity — drained in place, never
        // handed off or reallocated.
        let (mut plane, servers) = tiny_plane(2, ExecutorConfig::reliable());
        let mut t = SimTime::ZERO;
        let mut cap = None;
        for tick in 0..120 {
            t += minute;
            for &s in &servers {
                plane.record_server(s, t, 0.3, 0.3);
                plane.beat(Subject::Server(s), t);
            }
            plane.tick(t).unwrap();
            if tick == 0 {
                cap = Some(plane.measurement_buffer_capacity());
            }
        }
        assert_eq!(
            Some(plane.measurement_buffer_capacity()),
            cap,
            "the measurement buffer must be reused, not reallocated per tick"
        );
        let stats = plane.ingest_stats();
        assert_eq!(stats.buffered, 120 * servers.len() as u64);
        assert_eq!(
            stats.ingested, stats.buffered,
            "delta routes each measurement to exactly one owner"
        );

        // The full-stream oracle ingests the stream on every live replica.
        let (mut plane, servers) = tiny_plane(2, ExecutorConfig::reliable());
        plane.use_full_stream();
        let mut t = SimTime::ZERO;
        for _ in 0..10 {
            t += minute;
            for &s in &servers {
                plane.record_server(s, t, 0.3, 0.3);
                plane.beat(Subject::Server(s), t);
            }
            plane.tick(t).unwrap();
        }
        let stats = plane.ingest_stats();
        assert_eq!(stats.buffered, 10 * servers.len() as u64);
        assert_eq!(stats.ingested, stats.buffered * 2);
    }

    #[test]
    fn shard_count_is_invisible_to_paper_scenarios() {
        let hours = 12;
        let sim = fig13_config(hours);
        let run = |shards: usize, jobs: usize| {
            RunBuilder::new(Scenario::ConstrainedMobility)
                .sim(sim.clone())
                .shards(shards)
                .plane_jobs(jobs)
                .sharded()
                .run()
        };
        let (one, _) = run(1, 1);
        let (four, _) = run(4, 2);
        assert_eq!(one.actions, four.actions);
        assert_eq!(one.alerts, four.alerts);
        assert_eq!(one.overload_secs, four.overload_secs);
        assert_eq!(one.total_demand.to_bits(), four.total_demand.to_bits());
    }

    /// A tiny landscape the plane tests drive by hand.
    fn tiny_plane(shards: usize, executor: ExecutorConfig) -> (ShardedControlPlane, Vec<ServerId>) {
        let mut landscape = Landscape::new();
        let servers: Vec<ServerId> = (0..6)
            .map(|i| {
                landscape
                    .add_server(ServerSpec::fsc_bx300(format!("srv{i}")))
                    .unwrap()
            })
            .collect();
        let fi = landscape
            .add_service(
                ServiceSpec::new("FI", ServiceKind::ApplicationServer).with_instances(1, Some(6)),
            )
            .unwrap();
        landscape.start_instance(fi, servers[0]).unwrap();
        let config = SupervisorConfig {
            executor,
            executor_seed: 7,
            ..SupervisorConfig::default()
        };
        (ShardedControlPlane::new(landscape, shards, config), servers)
    }

    #[test]
    fn plane_routing_drops_never_issued_ids() {
        // Routing drops a subject the landscape never issued before it
        // reaches an owner's inbox, a delta or the sample ring, so no
        // replica's dense lanes grow to it.
        let (mut plane, servers) = tiny_plane(3, ExecutorConfig::reliable());
        let bounds = {
            let l = plane.landscape();
            [
                l.num_servers(),
                l.num_services(),
                l.instance_id_bound() as usize,
            ]
        };
        for minute in 1..=2 {
            let t = SimTime::from_minutes(minute);
            plane.record_server(servers[1], t, 0.5, 0.2);
            for id in [1 << 20, (1 << 20) + 7] {
                plane.record_server(ServerId::new(id), t, 0.9, 0.9);
                plane.record_service(ServiceId::new(id), t, 0.9);
                plane.record_instance(InstanceId::new(id), t, 0.9);
            }
            plane.tick(t).unwrap();
        }
        for i in 0..plane.shards() {
            let lens = plane.supervisor(i).load_lane_lens();
            assert!(
                lens.iter().zip(bounds).all(|(len, bound)| *len <= bound),
                "replica {i}: lanes {lens:?} beyond the landscape's ids {bounds:?}"
            );
        }
    }

    #[test]
    fn killed_owner_is_confirmed_and_its_shards_readopted_under_a_new_epoch() {
        let (mut plane, servers) = tiny_plane(3, ExecutorConfig::reliable());
        let minute = SimDuration::from_minutes(1);
        let mut t = SimTime::ZERO;

        // A couple of healthy ticks so everything is enrolled.
        for _ in 0..2 {
            t += minute;
            for &s in &servers {
                plane.beat(Subject::Server(s), t);
            }
            plane.tick(t).unwrap();
        }
        let victim = plane.canonical();
        let orphaned: Vec<ShardId> = (0..plane.shards())
            .filter(|&s| plane.lease(s).owner == victim)
            .collect();
        assert!(!orphaned.is_empty());
        assert!(plane.kill(victim));
        assert!(!plane.is_alive(victim));
        let successor_expected = plane.canonical();
        assert_ne!(victim, successor_expected);

        // Default protocol: 3 misses to suspect + 2 to confirm.
        let mut confirmed = false;
        let mut readopted = 0;
        for _ in 0..6 {
            t += minute;
            for &s in &servers {
                plane.beat(Subject::Server(s), t);
            }
            let report = plane.tick(t).unwrap();
            for event in report.events {
                match event {
                    PlaneEvent::OwnerConfirmed { supervisor, .. } => {
                        assert_eq!(supervisor, victim);
                        confirmed = true;
                    }
                    PlaneEvent::ShardReadopted {
                        shard,
                        from,
                        to,
                        epoch,
                        ..
                    } => {
                        assert_eq!(from, victim);
                        assert_eq!(to, successor_expected);
                        assert_eq!(epoch, 1);
                        assert!(orphaned.contains(&shard));
                        readopted += 1;
                    }
                    _ => {}
                }
            }
        }
        assert!(confirmed, "the plane must confirm the killed owner");
        assert_eq!(readopted, orphaned.len(), "every orphaned shard re-adopts");
        assert_eq!(plane.epoch(), 1);
        for shard in orphaned {
            assert_eq!(
                plane.lease(shard),
                Lease {
                    owner: successor_expected,
                    epoch: 1
                }
            );
        }
        // Killing everyone but the last is allowed; the last is refused.
        let mut live: Vec<usize> = (0..3).filter(|&i| plane.is_alive(i)).collect();
        while live.len() > 1 {
            assert!(plane.kill(live[0]));
            live.remove(0);
        }
        assert!(!plane.kill(live[0]), "the last live supervisor is immortal");
    }

    #[test]
    fn subject_failures_during_the_headless_window_are_detected_by_the_successor() {
        let (mut plane, servers) = tiny_plane(2, ExecutorConfig::reliable());
        let minute = SimDuration::from_minutes(1);
        let mut t = SimTime::ZERO;
        for _ in 0..2 {
            t += minute;
            for &s in &servers {
                plane.beat(Subject::Server(s), t);
            }
            plane.tick(t).unwrap();
        }
        // Pick a server owned by the canonical replica, then kill that
        // replica AND the server in the same breath: its silence must be
        // confirmed by the successor after watch adoption.
        let victim = plane.canonical();
        let dying = *servers
            .iter()
            .find(|&&s| {
                plane
                    .lease(plane.shard_of_subject(Subject::Server(s)).unwrap())
                    .owner
                    == victim
            })
            .expect("the canonical replica owns at least one beated server");
        assert!(plane.kill(victim));
        plane.set_server_available(dying, false);

        let mut server_confirmed_at = None;
        for _ in 0..14 {
            t += minute;
            for &s in &servers {
                if s != dying {
                    plane.beat(Subject::Server(s), t);
                }
            }
            let report = plane.tick(t).unwrap();
            for rec in report.recoveries {
                if rec.subject == Subject::Server(dying) {
                    server_confirmed_at = Some(rec.time);
                }
            }
        }
        assert!(
            server_confirmed_at.is_some(),
            "the successor must confirm the server that died while its shard was headless"
        );
        // All live replicas agree on the resulting landscape.
        let canonical = landscape_digest(plane.landscape());
        for i in 0..plane.shards() {
            if plane.is_alive(i) {
                assert_eq!(
                    canonical,
                    landscape_digest(plane.supervisor(i).landscape()),
                    "replica {i} diverged"
                );
            }
        }
    }

    #[test]
    fn no_action_is_applied_twice_across_an_epoch_change() {
        // A latent, fallible substrate so owners carry in-flight work when
        // they are killed — the fencing path must discard it exactly once
        // and never complete it.
        let executor = ExecutorConfig {
            min_latency: SimDuration::from_minutes(2),
            max_latency: SimDuration::from_minutes(8),
            timeout: SimDuration::from_minutes(6),
            failure_probability: 0.1,
            ..ExecutorConfig::reliable()
        };
        let sim = fig13_config(16);
        let sup = SupervisorConfig {
            controller: sim.controller,
            executor,
            executor_seed: 99,
            ..SupervisorConfig::default()
        };
        let chaos = ShardChaos {
            server_failure_per_hour: 0.05,
            repair_after: SimDuration::from_hours(1),
            kill_fracs: vec![0.4, 0.7],
        };
        let mut run = RunBuilder::new(Scenario::ConstrainedMobility)
            .sim(sim)
            .supervisor(sup)
            .shards(4)
            .plane_jobs(2)
            .shard_chaos(chaos)
            .sharded();
        let ticks = 16 * 60; // one-minute ticks
        for _ in 0..ticks {
            run.step();
        }
        assert!(run.stats.owner_kills >= 1, "the schedule must kill owners");
        assert!(run.stats.owner_detections >= 1, "kills must be confirmed");
        assert!(run.stats.readoptions >= 1, "shards must be re-adopted");

        // Audit every replica's execution log: a dispatch id completes at
        // most once, and never both completes and gets fenced.
        let mut completed: BTreeSet<(usize, u64)> = BTreeSet::new();
        let mut fenced: BTreeSet<(usize, u64)> = BTreeSet::new();
        for (replica, event) in run.plane_mut().drain_all_execution_events() {
            match event {
                ExecutionEvent::Completed { id, .. } => {
                    assert!(
                        completed.insert((replica, id)),
                        "op {id} on replica {replica} completed twice"
                    );
                }
                ExecutionEvent::FencedStaleEpoch { id, .. } => {
                    fenced.insert((replica, id));
                }
                _ => {}
            }
        }
        for key in &fenced {
            assert!(
                !completed.contains(key),
                "op {key:?} was both fenced and applied — a ghost move"
            );
        }

        // And the live replicas' landscapes are still in lockstep.
        let canonical = landscape_digest(run.plane().landscape());
        for i in 0..run.plane().shards() {
            if run.plane().is_alive(i) {
                assert_eq!(
                    canonical,
                    landscape_digest(run.plane().supervisor(i).landscape()),
                    "replica {i} diverged"
                );
            }
        }
    }
}
