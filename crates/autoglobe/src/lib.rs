//! # AutoGlobe — an automatic administration concept for service-oriented
//! # database applications
//!
//! A from-scratch Rust reproduction of *AutoGlobe* (Seltzsam, Gmach,
//! Krompass, Kemper — ICDE 2006): a self-organizing infrastructure in which
//! services are virtualized, pooled hardware is continuously monitored, and
//! a **fuzzy-logic controller** remedies overload, idle and failure
//! situations automatically — lowering administration effort and total cost
//! of ownership.
//!
//! This crate is the facade: it re-exports the public API of the underlying
//! crates and offers [`Supervisor`], a ready-wired monitoring → controller
//! loop for driving a landscape with your own measurements.
//!
//! ## Crate map
//!
//! | Module | Backing crate | Contents |
//! |---|---|---|
//! | [`fuzzy`] | `autoglobe-fuzzy` | Generic fuzzy-logic engine: membership functions, rule DSL, max–min inference, defuzzification |
//! | [`landscape`] | `autoglobe-landscape` | Servers, services, instances, virtual IPs, actions, constraints, the XML description language |
//! | [`monitor`] | `autoglobe-monitor` | Load monitors, advisors, watch-time confirmation, trigger events, load archive |
//! | [`controller`] | `autoglobe-controller` | The two cooperating fuzzy controllers (action + server selection), protection mode, execution modes |
//! | [`simulator`] | `autoglobe-simulator` | The SAP-landscape simulation environment behind the paper's evaluation |
//! | [`forecast`] | `autoglobe-forecast` | Short-term load forecasting, administrator hints, proactive triggering (the paper's future work) |
//! | [`designer`] | `autoglobe-designer` | The landscape designer: statically optimized pre-assignment (future work) |
//! | [`console`] | `autoglobe-console` | The controller console's server/service/message views (Figure 8) |
//!
//! ## Quick start
//!
//! ```
//! use autoglobe::prelude::*;
//!
//! // 1. Describe the landscape (or load it from XML).
//! let mut landscape = Landscape::new();
//! let blade = landscape.add_server(ServerSpec::fsc_bx300("Blade1")).unwrap();
//! let big = landscape.add_server(ServerSpec::hp_bl40p("DBServer1")).unwrap();
//! let fi = landscape
//!     .add_service(ServiceSpec::new("FI", ServiceKind::ApplicationServer))
//!     .unwrap();
//! let instance = landscape.start_instance(fi, blade).unwrap();
//!
//! // 2. Wire the supervisor (monitoring + heartbeats + fuzzy controller).
//! //    The default config reproduces the paper's synchronous behavior;
//! //    SupervisorConfig switches on the asynchronous execution substrate,
//! //    heartbeat tuning and proactive forecasting.
//! let mut supervisor = Supervisor::new(landscape);
//!
//! // 3. Each interval: measurements and liveness in, one tick of the
//! //    control loop (watch → confirm → decide → act), completed actions
//! //    out. poll() settles in-flight work of a slow execution substrate
//! //    between ticks — with the default synchronous one it's a no-op.
//! let mut t = SimTime::ZERO;
//! let mut executed = Vec::new();
//! for _ in 0..15 {
//!     t += SimDuration::from_minutes(1);
//!     supervisor.record_server(blade, t, 0.95, 0.5);
//!     supervisor.record_instance(instance, t, 0.95);
//!     supervisor.record_service(fi, t, 0.95);
//!     supervisor.beat(Subject::Instance(instance), t).unwrap();
//!     executed.extend(supervisor.tick(t).unwrap());
//!     executed.extend(supervisor.poll(t).unwrap());
//! }
//!
//! // The controller added capacity on the idle big host — here by scaling
//! // the single-instance service out onto it.
//! assert!(!executed.is_empty());
//! assert_eq!(supervisor.landscape().instances_on(big).len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use autoglobe_console as console;
pub use autoglobe_controller as controller;
pub use autoglobe_designer as designer;
pub use autoglobe_forecast as forecast;
pub use autoglobe_fuzzy as fuzzy;
pub use autoglobe_landscape as landscape;
pub use autoglobe_monitor as monitor;
pub use autoglobe_simulator as simulator;

pub mod builder;
pub mod harness;
pub mod sharded;
#[cfg(test)]
mod sim;
pub mod supervisor;

pub use builder::RunBuilder;
pub use harness::{ChaosRun, SupervisedRun};
pub use sharded::{
    IngestStats, Lease, PlaneEvent, ShardChaos, ShardRecoveryStats, ShardedControlPlane, ShardedRun,
};
pub use supervisor::{Supervisor, SupervisorConfig};

/// The most common imports in one place.
pub mod prelude {
    pub use crate::builder::RunBuilder;
    pub use crate::harness::{ChaosRun, SupervisedRun};
    pub use crate::sharded::{
        Lease, PlaneEvent, ShardChaos, ShardRecoveryStats, ShardedControlPlane, ShardedRun,
    };
    pub use crate::supervisor::{Supervisor, SupervisorConfig};
    pub use autoglobe_controller::{
        ActionExecutor, ActionRecord, AutoGlobeController, ControllerConfig, ControllerEvent,
        ExecutionMode, ExecutorConfig, LoadView, RuleBases,
    };
    pub use autoglobe_forecast::{
        Forecaster, HintBook, ProactiveConfig, ProactiveFiring, ProactiveTrigger,
    };
    pub use autoglobe_fuzzy::{
        parse_rule, parse_rules, Defuzzifier, Engine, EngineConfig, InferenceMethod,
        LinguisticVariable, MembershipFunction, Rule, RuleBase,
    };
    pub use autoglobe_landscape::{
        xml::LandscapeDescription, Action, ActionKind, InstanceId, Landscape, ServerId, ServerSpec,
        ServiceId, ServiceKind, ServiceSpec,
    };
    pub use autoglobe_monitor::{
        HeartbeatConfig, HeartbeatEvent, HeartbeatMonitor, LoadArchive, LoadMonitoringSystem,
        LoadSample, SimDuration, SimTime, Subject, SubjectConfig, TriggerEvent, TriggerKind,
    };
    pub use autoglobe_simulator::{
        build_environment, find_max_users, CapacityCriterion, Combinator, FailureInjection,
        HeartbeatDetection, Metrics, Scenario, ScenarioSpec, SimConfig, TickLoads, WorkloadEngine,
    };
}
