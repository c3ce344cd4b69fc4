//! # autoglobe-controller — the AutoGlobe fuzzy controller
//!
//! The core contribution of the paper (Sections 3 and 4): a fuzzy-logic
//! controller that supervises all services running on a virtualized hardware
//! pool and remedies exceptional situations automatically.
//!
//! The controller module consists of **two cooperating fuzzy controllers**
//! (Figure 6):
//!
//! 1. **Action selection** ([`ActionSelector`]) — reacts to a confirmed
//!    trigger (`serviceOverloaded`, `serviceIdle`, `serverOverloaded`,
//!    `serverIdle`) and ranks the nine actions of Table 2 by applicability.
//!    Each trigger kind has its own rule base; administrators can layer
//!    service-specific rule bases on top (Section 4.1).
//! 2. **Server selection** ([`ServerSelector`]) — for actions that need a
//!    target host (start, scale-out, scale-up, scale-down, move), scores all
//!    eligible servers with per-action rule bases over the Table 3 input
//!    variables and picks the best one (Section 4.2).
//!
//! [`AutoGlobeController`] glues the two together and implements the full
//! interaction diagram of Figure 6: try the best action; if it needs a host,
//! try hosts best-first; on failure fall back to the next action; if nothing
//! works, alert the administrator. After a successful rearrangement, the
//! involved services and servers enter **protection mode** — they are
//! excluded from further actions for a configurable time, preventing the
//! system from oscillating ("moving services back and forth").
//!
//! The controller operates in *automatic* mode (execute immediately, log) or
//! *semi-automatic* mode (queue for administrator confirmation), Section 4.3.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod controller;
pub mod executor;
pub mod index;
pub mod inputs;
pub mod log;
pub mod protection;
pub mod recovery;
pub mod rulebase;
pub mod selection;
pub mod variables;

pub use cache::ScoreCacheStats;
pub use controller::{
    AutoGlobeController, ControllerConfig, ExecutionMode, PendingAction, TriggerOutcome,
};
pub use executor::{ActionExecutor, DecidedAction, ExecutionEvent, ExecutorConfig, PlannedTrigger};
pub use index::HostIndex;
pub use inputs::{ActionInputs, LoadView, ServerInputs};
pub use log::{ActionRecord, ControllerEvent};
pub use protection::ProtectionRegistry;
pub use recovery::RecoveryOutcome;
pub use rulebase::RuleBases;
pub use selection::{ActionSelector, RankedAction, ServerSelector};
