//! # autoglobe-monitor — load monitoring stack
//!
//! The paper's controller framework (Section 2, Figure 2) feeds the fuzzy
//! controller through a three-stage monitoring pipeline, reproduced here:
//!
//! 1. **Load monitors** ([`LoadMonitor`]) run on every server and next to
//!    every service instance and keep a sliding window of recent
//!    measurements.
//! 2. **Advisors** ([`Advisor`]) maintain an up-to-date local view and
//!    detect *imminent* exceptional situations: a load value crossing a
//!    tunable threshold (70 % CPU for overload; `12.5 % ÷ performanceIndex`
//!    for idle, Section 5.1).
//! 3. The **load monitoring system** ([`LoadMonitoringSystem`]) observes a
//!    flagged subject for a tunable `watchTime` (10 min for overload, 20 min
//!    for idle) and raises a [`TriggerEvent`] only if the *average* load over
//!    the watch time stayed beyond the threshold — short load peaks must not
//!    destabilize the system.
//!
//! A [`MeanWindow`] holds the watch-time mean the controller reads for a
//! server's CPU load (Section 4.1). A [`LoadArchive`] stores an aggregated
//! historic view, used to initialize the fuzzy controller's resource
//! variables and (in `autoglobe-forecast`) for load prediction.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod archive;
pub mod heartbeat;
pub mod monitor;
pub mod subject;
pub mod system;
pub mod time;
pub mod trigger;
pub mod window;

pub use archive::LoadArchive;
pub use heartbeat::{HeartbeatConfig, HeartbeatEvent, HeartbeatMonitor};
pub use monitor::{LoadMonitor, LoadSample};
pub use subject::Subject;
pub use system::{Advisor, LoadMonitoringSystem, SubjectConfig, WatchState};
pub use time::{SimDuration, SimTime};
pub use trigger::{FailureEvent, FailureKind, TriggerEvent, TriggerKind};
pub use window::{MeanWindow, WATCH_MEAN_SAMPLES};
