//! Proactive triggering: forecasts become early trigger events.
//!
//! "Using these techniques, adaptive infrastructures can react proactively
//! on imminent overload situations" (the paper's reference \[8\]). The
//! [`ProactiveTrigger`] inspects forecasts (optionally lifted by explicit
//! reservations) and emits a synthetic [`TriggerEvent`] *ahead* of the
//! predicted threshold crossing, so the controller can rearrange while the
//! hardware still has headroom.

use crate::forecaster::Forecaster;
use crate::hints::HintBook;
use autoglobe_monitor::{LoadArchive, SimDuration, SimTime, Subject, TriggerEvent, TriggerKind};

/// Configuration of proactive triggering.
#[derive(Debug, Clone, Copy)]
pub struct ProactiveConfig {
    /// How far ahead forecasts look.
    pub horizon: SimDuration,
    /// Predicted load at or above which a proactive overload trigger fires.
    pub overload_threshold: f64,
    /// Minimum forecast confidence to act on a prediction.
    pub min_confidence: f64,
}

impl Default for ProactiveConfig {
    fn default() -> Self {
        ProactiveConfig {
            horizon: SimDuration::from_minutes(60),
            overload_threshold: 0.70,
            min_confidence: 0.3,
        }
    }
}

/// A proactive trigger together with its forecast provenance: when the
/// threshold crossing is predicted to happen. The lead time —
/// `predicted_at - event.time` — is how much head start the controller got
/// over a purely reactive detection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProactiveFiring {
    /// The synthetic trigger, stamped at decision time.
    pub event: TriggerEvent,
    /// When the forecast predicts the threshold crossing.
    pub predicted_at: SimTime,
}

impl ProactiveFiring {
    /// How far ahead of the predicted crossing the trigger fired.
    pub fn lead(&self) -> SimDuration {
        self.predicted_at.since(self.event.time)
    }
}

/// Turns forecasts into early triggers.
#[derive(Debug, Clone, Default)]
pub struct ProactiveTrigger {
    config: ProactiveConfig,
    forecaster: Forecaster,
}

impl ProactiveTrigger {
    /// With default config and forecaster.
    pub fn new() -> Self {
        ProactiveTrigger::default()
    }

    /// With explicit configuration.
    pub fn with_config(config: ProactiveConfig, forecaster: Forecaster) -> Self {
        ProactiveTrigger { config, forecaster }
    }

    /// Check one subject: if its forecast (plus active reservations scaled
    /// by `capacity`) crosses the threshold within the horizon, return a
    /// proactive trigger stamped `now` along with the predicted crossing
    /// time.
    ///
    /// Only servers and services carry forecastable aggregate load;
    /// instance subjects are rejected (`None`) rather than mislabelled as
    /// service triggers — an instance forecast belongs to its service's
    /// archive, which the caller should query instead.
    ///
    /// `capacity` is the performance index of the subject's host(s), used
    /// to convert reserved demand into load.
    pub fn check(
        &self,
        archive: &LoadArchive,
        hints: &HintBook,
        subject: Subject,
        capacity: f64,
        now: SimTime,
    ) -> Option<ProactiveFiring> {
        let kind = match subject {
            Subject::Server(_) => TriggerKind::ServerOverloaded,
            Subject::Service(_) => TriggerKind::ServiceOverloaded,
            Subject::Instance(_) => return None,
        };
        let forecasts = self
            .forecaster
            .predict_series(archive, subject, now, self.config.horizon);
        for forecast in forecasts {
            if forecast.confidence < self.config.min_confidence {
                continue;
            }
            let reserved_load = subject
                .as_service()
                .map(|svc| hints.reserved_demand(svc, forecast.time) / capacity.max(1e-9))
                .unwrap_or(0.0);
            let predicted = (forecast.cpu + reserved_load).min(1.0);
            if predicted >= self.config.overload_threshold {
                return Some(ProactiveFiring {
                    event: TriggerEvent {
                        kind,
                        subject,
                        time: now,
                        average_cpu: predicted,
                        average_mem: 0.0,
                    },
                    predicted_at: forecast.time,
                });
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hints::Hint;
    use autoglobe_landscape::{ServerId, ServiceId};

    /// Archive with a hard daily step: load jumps to 0.9 at 09:00.
    fn archive() -> LoadArchive {
        let mut a = LoadArchive::new(SimDuration::from_minutes(1));
        for minute in 0..4 * 24 * 60 {
            let t = SimTime::from_minutes(minute);
            let load = if (9.0..17.0).contains(&t.hour_of_day()) {
                0.9
            } else {
                0.2
            };
            a.record(Subject::Server(ServerId::new(0)), t, load, 0.2);
        }
        a
    }

    #[test]
    fn predicts_the_morning_ramp_before_it_happens() {
        let archive = archive();
        let trigger = ProactiveTrigger::new();
        let hints = HintBook::new();
        // 08:30 on day 4: the 09:00 surge is within the one-hour horizon.
        let now = SimTime::from_hours(4 * 24 + 8) + SimDuration::from_minutes(30);
        let event = trigger.check(
            &archive,
            &hints,
            Subject::Server(ServerId::new(0)),
            1.0,
            now,
        );
        let firing = event.expect("proactive trigger fires before the surge");
        assert_eq!(firing.event.kind, TriggerKind::ServerOverloaded);
        assert_eq!(
            firing.event.time, now,
            "stamped at decision time, not surge time"
        );
        assert!(firing.event.average_cpu >= 0.7);
        assert!(
            firing.predicted_at > now,
            "predicted crossing lies in the future"
        );
        assert!(
            firing.lead() <= SimDuration::from_minutes(60),
            "lead bounded by the horizon"
        );
    }

    #[test]
    fn quiet_forecast_fires_nothing() {
        let archive = archive();
        let trigger = ProactiveTrigger::new();
        let hints = HintBook::new();
        // 18:30: nothing hot within an hour.
        let now = SimTime::from_hours(4 * 24 + 18) + SimDuration::from_minutes(30);
        assert!(trigger
            .check(
                &archive,
                &hints,
                Subject::Server(ServerId::new(0)),
                1.0,
                now
            )
            .is_none());
    }

    #[test]
    fn reservations_lift_service_forecasts_over_the_threshold() {
        // A service idling at 0.4 load with a 0.5-unit reservation starting
        // within the horizon crosses 0.7 on a capacity-1 host.
        let mut archive = LoadArchive::new(SimDuration::from_minutes(1));
        let service = Subject::Service(ServiceId::new(3));
        for minute in 0..4 * 24 * 60 {
            let t = SimTime::from_minutes(minute);
            // Mild daily wave so confidence is non-zero.
            let load = 0.4 + 0.1 * (t.hour_of_day() / 24.0 * std::f64::consts::TAU).sin();
            archive.record(service, t, load, 0.1);
        }
        let mut hints = HintBook::new();
        hints.register(Hint {
            service: ServiceId::new(3),
            description: "month-end close".into(),
            start: SimTime::from_hours(4 * 24 + 10),
            duration: SimDuration::from_hours(2),
            cpu_demand: 0.5,
            daily: false,
        });
        let trigger = ProactiveTrigger::new();
        let now = SimTime::from_hours(4 * 24 + 9) + SimDuration::from_minutes(30);
        let with_hint = trigger.check(&archive, &hints, service, 1.0, now);
        assert!(
            with_hint.is_some(),
            "reservation pushes forecast over threshold"
        );
        let without = trigger.check(&archive, &HintBook::new(), service, 1.0, now);
        assert!(without.is_none(), "no trigger without the reservation");
    }

    #[test]
    fn instance_subjects_are_rejected_not_mislabelled() {
        // An instance archive hot enough to fire must NOT come back as a
        // (malformed) service trigger — instances carry no forecastable
        // aggregate and are rejected outright.
        use autoglobe_landscape::InstanceId;
        let mut archive = LoadArchive::new(SimDuration::from_minutes(1));
        let subject = Subject::Instance(InstanceId::new(7));
        for minute in 0..4 * 24 * 60 {
            let t = SimTime::from_minutes(minute);
            let load = if (9.0..17.0).contains(&t.hour_of_day()) {
                0.9
            } else {
                0.2
            };
            archive.record(subject, t, load, 0.2);
        }
        let trigger = ProactiveTrigger::new();
        let now = SimTime::from_hours(4 * 24 + 8) + SimDuration::from_minutes(30);
        assert!(
            trigger
                .check(&archive, &HintBook::new(), subject, 1.0, now)
                .is_none(),
            "instance subject must not produce a proactive trigger"
        );
    }

    #[test]
    fn low_confidence_predictions_are_ignored() {
        // Aperiodic archive → confidence 0 → never fires even if hot.
        let mut archive = LoadArchive::new(SimDuration::from_minutes(1));
        let subject = Subject::Server(ServerId::new(0));
        for minute in 0..600 {
            archive.record(subject, SimTime::from_minutes(minute), 0.95, 0.2);
        }
        let trigger = ProactiveTrigger::new();
        assert!(trigger
            .check(
                &archive,
                &HintBook::new(),
                subject,
                1.0,
                SimTime::from_minutes(600)
            )
            .is_none());
    }
}
