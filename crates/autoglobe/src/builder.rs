//! One front door for every run harness.
//!
//! [`RunBuilder`] is the only way to build the three harnesses
//! ([`SupervisedRun`], [`ChaosRun`] and [`ShardedRun`]): pick a scenario
//! (a paper [`Scenario`](autoglobe_simulator::Scenario) or a production-day [`ScenarioSpec`] from the
//! catalog), layer on chaos, proactive triggering or sharding, and finish
//! with the terminal that names the harness you want:
//!
//! ```
//! use autoglobe::prelude::*;
//!
//! // The paper's constrained-mobility figure run, 4 simulated hours.
//! let metrics = RunBuilder::new(Scenario::ConstrainedMobility)
//!     .hours(4)
//!     .supervised()
//!     .run();
//! assert!(metrics.total_demand > 0.0);
//!
//! // A production-day scenario from the catalog, on a 2-shard plane.
//! let spec = ScenarioSpec::lookup("flash-crowd").unwrap();
//! let (metrics, _stats) = RunBuilder::new(spec).hours(2).shards(2).sharded().run();
//! assert!(metrics.total_demand > 0.0);
//! ```
//!
//! The supervisor config defaults to the simulation's controller settings
//! and execution substrate ([`SimConfig::execution`]), with the executor
//! seed derived from `sim.seed`, so every terminal is a pure function of
//! its inputs.

use crate::harness::{sub_seeds, ChaosRun, SupervisedRun};
use crate::sharded::{ShardChaos, ShardedRun};
use crate::supervisor::SupervisorConfig;
use autoglobe_controller::ExecutorConfig;
use autoglobe_forecast::ProactiveConfig;
use autoglobe_monitor::{HeartbeatConfig, SimDuration};
use autoglobe_simulator::sap::SapEnvironment;
use autoglobe_simulator::{
    build_environment, FailureInjection, HeartbeatDetection, ScenarioSpec, SimConfig,
};

/// The paper's default operating point: +15 % users over Table 4.
const DEFAULT_MULTIPLIER: f64 = 1.15;

/// Builder unifying [`SupervisedRun`], [`ChaosRun`] and [`ShardedRun`]
/// behind one API — see the [module docs](self).
#[derive(Debug, Clone)]
pub struct RunBuilder {
    spec: ScenarioSpec,
    sim: SimConfig,
    env: Option<SapEnvironment>,
    supervisor: Option<SupervisorConfig>,
    proactive: Option<ProactiveConfig>,
    shards: usize,
    plane_jobs: usize,
    shard_chaos: ShardChaos,
}

impl RunBuilder {
    /// Start from a scenario: a paper [`autoglobe_simulator::Scenario`]
    /// (identity composition) or any [`ScenarioSpec`] — e.g. from
    /// [`ScenarioSpec::lookup`] or [`ScenarioSpec::catalog`]. The
    /// simulation defaults to the paper setup at +15 % users, 80 h, the
    /// paper seed.
    pub fn new(spec: impl Into<ScenarioSpec>) -> Self {
        let spec = spec.into();
        let sim = SimConfig::paper(spec.base, DEFAULT_MULTIPLIER);
        RunBuilder {
            spec,
            sim,
            env: None,
            supervisor: None,
            proactive: None,
            shards: 1,
            plane_jobs: 1,
            shard_chaos: ShardChaos::none(),
        }
    }

    /// Replace the scenario (keeps every other knob; the simulation's
    /// scenario base follows the new spec).
    pub fn scenario(mut self, spec: impl Into<ScenarioSpec>) -> Self {
        self.spec = spec.into();
        self.sim.scenario = self.spec.base;
        self
    }

    /// Replace the whole simulation config (scenario must match the
    /// spec's base — checked at the terminal).
    pub fn sim(mut self, sim: SimConfig) -> Self {
        self.sim = sim;
        self
    }

    /// Use a prebuilt environment instead of
    /// [`build_environment`]`(spec.base)` — e.g. a synthetic scale
    /// landscape.
    pub fn environment(mut self, env: SapEnvironment) -> Self {
        self.env = Some(env);
        self
    }

    /// User multiplier over the Table 4 populations.
    pub fn multiplier(mut self, m: f64) -> Self {
        self.sim = self.sim.with_multiplier(m);
        self
    }

    /// Horizon in simulated hours.
    pub fn hours(mut self, hours: u64) -> Self {
        self.sim = self.sim.with_duration(SimDuration::from_hours(hours));
        self
    }

    /// Master seed (workload jitter, failure dice, derived executor and
    /// heartbeat-loss streams).
    pub fn seed(mut self, seed: u64) -> Self {
        self.sim = self.sim.with_seed(seed);
        self
    }

    /// Worker threads for the engine's per-server phase.
    pub fn inner_jobs(mut self, inner_jobs: usize) -> Self {
        self.sim = self.sim.with_inner_jobs(inner_jobs);
        self
    }

    /// Enable chaos: ground-truth failure injection plus the heartbeat
    /// detection that measures it.
    pub fn chaos(mut self, failures: FailureInjection, heartbeats: HeartbeatDetection) -> Self {
        self.sim = self.sim.with_failures(failures).with_heartbeats(heartbeats);
        self
    }

    /// Heartbeat detection tuning alone (scheduled-event scenarios need a
    /// detector but no dice).
    pub fn heartbeats(mut self, heartbeats: HeartbeatDetection) -> Self {
        self.sim = self.sim.with_heartbeats(heartbeats);
        self
    }

    /// Fallible asynchronous execution substrate; its seed derives from
    /// the master seed unless a full [`RunBuilder::supervisor`] override
    /// is given.
    pub fn execution(mut self, execution: ExecutorConfig) -> Self {
        self.sim = self.sim.with_execution(execution);
        self
    }

    /// Forecast-driven proactive triggering (applied on top of whatever
    /// supervisor config the terminal derives).
    pub fn proactive(mut self, proactive: ProactiveConfig) -> Self {
        self.proactive = Some(proactive);
        self
    }

    /// Full supervisor-config override: the terminal uses it verbatim
    /// (plus [`RunBuilder::proactive`], if set) instead of deriving one
    /// from the simulation config.
    pub fn supervisor(mut self, supervisor: SupervisorConfig) -> Self {
        self.supervisor = Some(supervisor);
        self
    }

    /// Shard count for [`RunBuilder::sharded`] (default 1).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Scoped-thread fan-out of the sharded plane (default 1).
    pub fn plane_jobs(mut self, jobs: usize) -> Self {
        self.plane_jobs = jobs;
        self
    }

    /// Shard-plane chaos (random host failures + owner-kill schedule) for
    /// [`RunBuilder::sharded`].
    pub fn shard_chaos(mut self, chaos: ShardChaos) -> Self {
        self.shard_chaos = chaos;
        self
    }

    /// The supervisor config a terminal uses: the explicit override, or
    /// one derived from the simulation config — controller settings from
    /// `sim.controller`, the execution substrate from `sim.execution`
    /// (reliable when unset) seeded with the first of `sim.seed`'s
    /// [`sub_seeds`].
    fn effective_supervisor(&self) -> SupervisorConfig {
        let mut config = match &self.supervisor {
            Some(config) => config.clone(),
            None => SupervisorConfig {
                controller: self.sim.controller,
                executor: self.sim.execution.clone().unwrap_or_default(),
                executor_seed: sub_seeds(self.sim.seed).0,
                ..SupervisorConfig::default()
            },
        };
        if let Some(proactive) = self.proactive {
            config.proactive = Some(proactive);
        }
        config
    }

    fn take_env(env: &mut Option<SapEnvironment>, spec: &ScenarioSpec) -> SapEnvironment {
        env.take().unwrap_or_else(|| build_environment(spec.base))
    }

    fn check_scenario(&self) {
        assert_eq!(
            self.sim.scenario, self.spec.base,
            "simulation config scenario must match the spec's base"
        );
    }

    /// Build a [`SupervisedRun`] — the ideal-conditions harness (reliable
    /// hosts, optional async execution and proactive triggering) that the
    /// paper's figures and Table 7 run through.
    ///
    /// # Panics
    /// Panics when the scenario schedules infrastructure events (kills or
    /// drains), and when failure injection or heartbeat detection is
    /// configured ([`RunBuilder::chaos`], [`RunBuilder::heartbeats`]): all
    /// of those need a failure-capable harness — use
    /// [`RunBuilder::chaos_run`] (events also run on
    /// [`RunBuilder::sharded`]).
    pub fn supervised(mut self) -> SupervisedRun {
        self.check_scenario();
        assert!(
            !self.spec.has_events(),
            "scenario '{}' schedules infrastructure events; \
             drive it with .chaos_run() or .sharded()",
            self.spec.name
        );
        assert!(
            self.sim.failures.is_none() && self.sim.heartbeats.is_none(),
            "the supervised run has reliable hosts; drive failure injection \
             and heartbeat detection with .chaos_run()"
        );
        let supervisor = self.effective_supervisor();
        let env = Self::take_env(&mut self.env, &self.spec);
        let modulation = self.spec.modulation(&env.workloads);
        SupervisedRun::assemble(env, &self.sim, supervisor, modulation)
    }

    /// Build a [`ChaosRun`] — ground-truth failures (dice and/or the
    /// scenario's scheduled kills and drains) detected through lossy
    /// heartbeats. Heartbeat detection defaults to the standard
    /// suspect/confirm protocol (3 misses, 2 confirmations, lossless) when
    /// not configured.
    pub fn chaos_run(mut self) -> ChaosRun {
        self.check_scenario();
        let detection = *self
            .sim
            .heartbeats
            .get_or_insert_with(HeartbeatDetection::default);
        let mut supervisor = self.effective_supervisor();
        if self.supervisor.is_none() {
            supervisor.heartbeats = HeartbeatConfig {
                miss_threshold: detection.miss_threshold,
                confirm_after: detection.confirm_after,
            };
        }
        let env = Self::take_env(&mut self.env, &self.spec);
        let modulation = self.spec.modulation(&env.workloads);
        ChaosRun::assemble(env, &self.sim, supervisor, modulation, self.spec.schedule())
    }

    /// Build a [`ShardedRun`] — the scenario driven through an N-shard
    /// control plane, with optional shard chaos and the scenario's
    /// scheduled events replayed through the plane's public API.
    pub fn sharded(mut self) -> ShardedRun {
        self.check_scenario();
        let supervisor = self.effective_supervisor();
        let env = Self::take_env(&mut self.env, &self.spec);
        let modulation = self.spec.modulation(&env.workloads);
        ShardedRun::assemble(
            env,
            &self.sim,
            supervisor,
            self.shards,
            self.plane_jobs,
            self.shard_chaos.clone(),
            modulation,
            self.spec.schedule(),
        )
    }
}
