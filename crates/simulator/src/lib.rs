//! # autoglobe-simulator — the SAP-landscape simulation environment
//!
//! The paper evaluates AutoGlobe with "comprehensive simulation studies ...
//! conducted using a simulation environment that models a realistic SAP
//! installation" (Section 5). This crate is that environment, rebuilt from
//! the paper's description:
//!
//! * **Three-layer SAP architecture** (Figure 9): ERP, CRM and BW
//!   subsystems, each with its own database and central instance (the
//!   subsystem's global lock manager) plus application servers (FI, HR,
//!   LES, PP, CRM, BW) — see [`sap::build_environment`].
//! * **Hardware pool** (Figure 11): 8 FSC-BX300 blades (performance
//!   index 1), 8 FSC-BX600 blades (index 2), 3 HP ProLiant BL40p database
//!   servers (index 9), with the paper's initial service allocation.
//! * **Daily load curves** (Figure 10): interactive services ramp up at
//!   8:00 with peaks in the morning, before midday and before the employees
//!   leave; BW runs heavy batch jobs at night — see [`workload::DailyPattern`].
//! * **Request flow**: a user request loads the application server, the
//!   subsystem's central instance (lock management) and the database, with
//!   service-specific load factors ("an FI request produces lower load than
//!   a BW request") plus a per-instance basic load.
//! * **Three scenarios** (Section 5.1): *static* (no actions allowed),
//!   *constrained mobility* (Table 5: scale-in/out for application servers,
//!   sticky users with fluctuation) and *full mobility* (Table 6: all
//!   movement actions, users dynamically redistributed) —
//!   see [`scenario::Scenario`].
//!
//! The [`WorkloadEngine`] advances this model one deterministic tick
//! (default: one simulated minute) at a time and hands back the resulting
//! per-server, per-service and per-instance loads; the run loop that feeds
//! them to the monitoring stack and the fuzzy controller, and mirrors the
//! controller's actions back with realistic activation latency, is the
//! `autoglobe` crate's supervised run. The paper's figures (12–17) and the
//! capacity sweep behind Table 7 ([`find_max_users`]) run through it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod capacity;
pub mod config;
pub mod engine;
pub mod metrics;
pub mod sap;
pub mod scenario;
pub mod scenario_dsl;
pub mod sessions;
pub mod workload;

pub use capacity::{capacity_ladder, find_max_users, CapacityCriterion, CapacityResult};
pub use config::{FailureInjection, HeartbeatDetection, SimConfig};
pub use engine::{TickLoads, WorkloadEngine, MIN_SERVERS_PER_LANE};
pub use metrics::{InstancePoint, Metrics, SeriesPoint};
pub use sap::{build_environment, synth_environment, SapEnvironment};
pub use scenario::Scenario;
pub use scenario_dsl::{
    Combinator, DrainEvent, KillEvent, LoadModulation, ScenarioSchedule, ScenarioSpec,
};
pub use workload::{DailyPattern, WorkloadSpec};
