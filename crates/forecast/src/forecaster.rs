//! Pattern-matching load prediction from the load archive.
//!
//! The predictor blends two signals:
//!
//! 1. the **historical daily profile** — the archive's average load per
//!    time-of-day slot across all recorded days (the "pattern" of the
//!    paper's pattern-matching approach), and
//! 2. an **exponentially smoothed level correction** — how much hotter or
//!    colder *today* has been running than the profile predicted, so a
//!    once-a-quarter reporting day shifts the whole forecast up.

use crate::periodicity::detect_period;
use autoglobe_monitor::{LoadArchive, SimDuration, SimTime, Subject};

/// Configuration of the [`Forecaster`].
#[derive(Debug, Clone, Copy)]
pub struct ForecasterConfig {
    /// Width of a time-of-day slot in the daily profile.
    pub slot: SimDuration,
    /// Smoothing factor of the level correction in `(0, 1]`; higher adapts
    /// faster to today's deviation.
    pub alpha: f64,
    /// How far back the deviation is sampled when forecasting.
    pub correction_window: SimDuration,
}

impl Default for ForecasterConfig {
    fn default() -> Self {
        ForecasterConfig {
            slot: SimDuration::from_minutes(30),
            alpha: 0.4,
            correction_window: SimDuration::from_hours(2),
        }
    }
}

/// One forecast.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Forecast {
    /// The instant the forecast is for.
    pub time: SimTime,
    /// Predicted CPU load in `[0, 1]`.
    pub cpu: f64,
    /// Confidence in `[0, 1]`: how periodic the history looked (0 when the
    /// forecast is a pure persistence guess).
    pub confidence: f64,
}

/// What the forecasts of one subject at one `now` share: the daily
/// profile, the level correction and the periodicity confidence.
struct History {
    profile: Vec<f64>,
    correction: f64,
    /// Whether the correction window held any data.
    weighted: bool,
    confidence: f64,
}

/// Pattern-matching forecaster over one subject's archived load.
#[derive(Debug, Clone)]
pub struct Forecaster {
    config: ForecasterConfig,
}

impl Forecaster {
    /// A forecaster with the default configuration.
    pub fn new() -> Self {
        Forecaster {
            config: ForecasterConfig::default(),
        }
    }

    /// A forecaster with an explicit configuration.
    pub fn with_config(config: ForecasterConfig) -> Self {
        Forecaster { config }
    }

    /// Predict `subject`'s CPU load at `target` (must be ≥ `now`), using
    /// everything the archive recorded up to `now`.
    ///
    /// With no history at all the forecast falls back to the latest known
    /// level (persistence) with zero confidence.
    pub fn predict(
        &self,
        archive: &LoadArchive,
        subject: Subject,
        now: SimTime,
        target: SimTime,
    ) -> Forecast {
        self.forecast_at(&self.history(archive, subject, now), target)
    }

    /// Forecast an entire horizon at slot resolution. The archive is read
    /// once for the whole series, not once per step.
    pub fn predict_series(
        &self,
        archive: &LoadArchive,
        subject: Subject,
        now: SimTime,
        horizon: SimDuration,
    ) -> Vec<Forecast> {
        let step = self.config.slot.as_secs().max(1);
        let steps = horizon.as_secs() / step;
        let history = self.history(archive, subject, now);
        (1..=steps)
            .map(|i| self.forecast_at(&history, now + SimDuration::from_secs(i * step)))
            .collect()
    }

    /// The forecast for `target`: the profile at the target's time of day
    /// plus the level correction.
    fn forecast_at(&self, history: &History, target: SimTime) -> Forecast {
        let base = history
            .profile
            .get(self.slot_of(history.profile.len(), target))
            .copied()
            .unwrap_or(0.0);
        if !history.weighted && base == 0.0 {
            // Nothing known at all.
            return Forecast {
                time: target,
                cpu: 0.0,
                confidence: 0.0,
            };
        }
        Forecast {
            time: target,
            cpu: (base + history.correction).clamp(0.0, 1.0),
            confidence: history.confidence,
        }
    }

    /// The profile slot `t` falls in, for a profile of `slots` entries.
    fn slot_of(&self, slots: usize, t: SimTime) -> usize {
        let slot_secs = self.config.slot.as_secs().max(1);
        ((t.second_of_day() / slot_secs) as usize).min(slots.max(1) - 1)
    }

    /// Everything a forecast at `now` reads from the archive; none of it
    /// depends on the target.
    fn history(&self, archive: &LoadArchive, subject: Subject, now: SimTime) -> History {
        let profile = archive.daily_profile(subject, self.config.slot);

        // Level correction: how far today deviates from the profile over
        // the recent correction window, exponentially smoothed.
        let window_start = now - self.config.correction_window;
        let mut correction = 0.0;
        let mut weighted = false;
        let step = self.config.slot;
        let mut t = window_start;
        while t <= now {
            let observed = archive.average_cpu(subject, t, t + step);
            if let Some(observed) = observed {
                let expected = profile
                    .get(self.slot_of(profile.len(), t))
                    .copied()
                    .unwrap_or(0.0);
                correction = if weighted {
                    self.config.alpha * (observed - expected)
                        + (1.0 - self.config.alpha) * correction
                } else {
                    observed - expected
                };
                weighted = true;
            }
            t += step;
        }

        // Confidence from the periodicity of the archived series.
        let confidence = self.periodicity_confidence(archive, subject, now);
        History {
            profile,
            correction,
            weighted,
            confidence,
        }
    }

    fn periodicity_confidence(&self, archive: &LoadArchive, subject: Subject, now: SimTime) -> f64 {
        // Build an hourly series over the archived history (up to 7 days).
        let start = now - SimDuration::from_hours(24 * 7);
        let mut series = Vec::new();
        let mut t = start;
        while t < now {
            if let Some(v) = archive.average_cpu(subject, t, t + SimDuration::from_hours(1)) {
                series.push(v);
            }
            t += SimDuration::from_hours(1);
        }
        if series.len() < 48 {
            return 0.0;
        }
        detect_period(&series, 20, 28, 0.3)
            .map(|(_, r)| r.clamp(0.0, 1.0))
            .unwrap_or(0.0)
    }
}

impl Default for Forecaster {
    fn default() -> Self {
        Forecaster::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic daily load shape: hot 9:00–17:00, cold at night.
    fn office_load(hour: f64) -> f64 {
        if (9.0..17.0).contains(&hour) {
            0.75
        } else {
            0.10
        }
    }

    fn archive_with_days(days: u64) -> LoadArchive {
        let mut archive = LoadArchive::new(SimDuration::from_minutes(1));
        let subject = Subject::Server(autoglobe_landscape::ServerId::new(0));
        for minute in 0..days * 24 * 60 {
            let t = SimTime::from_minutes(minute);
            archive.record(subject, t, office_load(t.hour_of_day()), 0.2);
        }
        archive
    }

    fn subject() -> Subject {
        Subject::Server(autoglobe_landscape::ServerId::new(0))
    }

    #[test]
    fn forecasts_the_daily_pattern() {
        let archive = archive_with_days(4);
        let now = SimTime::from_hours(4 * 24); // midnight after day 3
        let f = Forecaster::new();
        // Predict 11:00 (hot) and 03:00 (cold) of the next day.
        let hot = f.predict(&archive, subject(), now, now + SimDuration::from_hours(11));
        let cold = f.predict(&archive, subject(), now, now + SimDuration::from_hours(3));
        assert!((hot.cpu - 0.75).abs() < 0.1, "hot {}", hot.cpu);
        assert!(cold.cpu < 0.25, "cold {}", cold.cpu);
        assert!(
            hot.confidence > 0.5,
            "daily pattern detected: {}",
            hot.confidence
        );
    }

    #[test]
    fn level_correction_follows_a_hotter_day() {
        let mut archive = archive_with_days(4);
        let subject = subject();
        // Today (day 4) runs 0.15 hotter than usual through 10:00.
        for minute in 0..10 * 60 {
            let t = SimTime::from_hours(4 * 24) + SimDuration::from_minutes(minute);
            archive.record(
                subject,
                t,
                (office_load(t.hour_of_day()) + 0.15).min(1.0),
                0.2,
            );
        }
        let now = SimTime::from_hours(4 * 24 + 10);
        let f = Forecaster::new();
        let prediction = f.predict(&archive, subject, now, now + SimDuration::from_hours(1));
        assert!(
            prediction.cpu > 0.82,
            "forecast lifts with today's deviation: {}",
            prediction.cpu
        );
    }

    #[test]
    fn empty_archive_gives_zero_confidence() {
        let archive = LoadArchive::new(SimDuration::from_minutes(1));
        let f = Forecaster::new();
        let p = f.predict(
            &archive,
            subject(),
            SimTime::from_hours(1),
            SimTime::from_hours(2),
        );
        assert_eq!(p.cpu, 0.0);
        assert_eq!(p.confidence, 0.0);
    }

    #[test]
    fn series_covers_the_horizon() {
        let archive = archive_with_days(3);
        let f = Forecaster::new();
        let now = SimTime::from_hours(3 * 24);
        let series = f.predict_series(&archive, subject(), now, SimDuration::from_hours(6));
        assert_eq!(series.len(), 12); // 30-minute slots
        assert!(series.windows(2).all(|w| w[0].time < w[1].time));
        for p in &series {
            assert!((0.0..=1.0).contains(&p.cpu));
        }
    }

    #[test]
    fn series_equals_pointwise_predictions() {
        // One archive read per series must give what one read per target
        // gave: the same forecasts, bit for bit.
        let empty = LoadArchive::new(SimDuration::from_minutes(1));
        let f = Forecaster::new();
        for (archive, now) in [
            (archive_with_days(3), SimTime::from_hours(3 * 24 + 7)),
            (archive_with_days(1), SimTime::from_hours(20)),
            (empty, SimTime::from_hours(5)),
        ] {
            let series = f.predict_series(&archive, subject(), now, SimDuration::from_hours(3));
            assert_eq!(series.len(), 6);
            for p in series {
                assert_eq!(p, f.predict(&archive, subject(), now, p.time));
            }
        }
    }

    #[test]
    fn forecast_stays_in_unit_interval_under_extreme_correction() {
        let mut archive = archive_with_days(2);
        let subject = subject();
        for minute in 0..120 {
            let t = SimTime::from_hours(48) + SimDuration::from_minutes(minute);
            archive.record(subject, t, 1.0, 0.9);
        }
        let now = SimTime::from_hours(50);
        let f = Forecaster::new();
        let p = f.predict(&archive, subject, now, now + SimDuration::from_minutes(30));
        assert!(p.cpu <= 1.0);
    }
}
