//! # autoglobe-forecast — short-term load forecasting
//!
//! The paper's future work (Section 7): "we work on predicting the future
//! load of services based on historic data stored in the load archive using
//! pattern matching and data mining techniques. ... The reservations and
//! load prediction can be used to improve the action and host selection
//! process of the controller." The companion paper (Gmach et al.,
//! CAiSE'05 workshops) describes the feed-forward side: exploiting
//! administrator hints and short-term load forecasting for services with
//! periodic behaviour, so the infrastructure reacts *proactively* on
//! imminent overload situations.
//!
//! This crate implements that extension on top of the
//! [`autoglobe_monitor::LoadArchive`]:
//!
//! * [`periodicity::autocorrelation`] / [`periodicity::detect_period`] —
//!   find the dominant period of a load series (daily rhythms in the SAP
//!   workloads).
//! * [`Forecaster`] — pattern-matching prediction: the historical daily
//!   profile (average load by time-of-day) blended with an
//!   exponentially-smoothed correction for the current day's deviation.
//! * [`hints::HintBook`] — explicit administrator reservations ("mission
//!   critical batch run at 22:00 needs 2 CPU units on the BW database"),
//!   merged into forecasts.
//! * [`ProactiveTrigger`] — turns forecasts into early
//!   [`TriggerEvent`](autoglobe_monitor::TriggerEvent)s a controller can
//!   handle *before* the overload materializes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod forecaster;
pub mod hints;
pub mod periodicity;
pub mod proactive;

pub use forecaster::{Forecast, Forecaster, ForecasterConfig};
pub use hints::{Hint, HintBook};
pub use periodicity::{autocorrelation, detect_period};
pub use proactive::{ProactiveConfig, ProactiveFiring, ProactiveTrigger};
