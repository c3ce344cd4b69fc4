//! The capacity sweep behind Table 7: "We ran simulation series for the
//! three scenarios and each time increased the number of users by 5% until
//! the system became overloaded."
//!
//! The sweep takes its probe as a closure: this crate models the workload,
//! and the run loop that drives the controller sits above it (the
//! `autoglobe` crate's supervised run).

use crate::metrics::Metrics;
use crate::scenario::Scenario;

/// When a run counts as "overloaded" (the paper: batch jobs not processed in
/// time, response times of interactive requests increase).
#[derive(Debug, Clone, Copy)]
pub struct CapacityCriterion {
    /// Maximum tolerated *recurring* sustained overload (10-minute-average
    /// load above 80 %) on the worst server during the worst steady-state
    /// day, in seconds. Day 0 — the transient in which the controller first
    /// adapts the hand-made initial allocation — is forgiven on multi-day
    /// runs.
    pub max_recurring_overload_secs: f64,
    /// Maximum tolerated fraction of offered demand left unserved.
    pub max_unserved_fraction: f64,
}

impl Default for CapacityCriterion {
    fn default() -> Self {
        CapacityCriterion {
            max_recurring_overload_secs: 1800.0, // 30 minutes in any one day
            max_unserved_fraction: 0.01,
        }
    }
}

impl CapacityCriterion {
    /// Does this run count as overloaded?
    pub fn overloaded(&self, metrics: &Metrics) -> bool {
        metrics.worst_recurring_overload().as_secs() as f64 > self.max_recurring_overload_secs
            || metrics.unserved_fraction() > self.max_unserved_fraction
    }
}

/// The result of one capacity sweep.
#[derive(Debug, Clone)]
pub struct CapacityResult {
    /// The scenario swept.
    pub scenario: Scenario,
    /// The highest multiplier the system handled (1.0 = 100 %).
    pub max_multiplier: f64,
    /// Every `(multiplier, overloaded?)` step probed, in order.
    pub steps: Vec<(f64, bool)>,
}

impl CapacityResult {
    /// The Table 7 entry: max users relative to Table 4, in percent.
    pub fn max_users_percent(&self) -> f64 {
        self.max_multiplier * 100.0
    }
}

/// The user multipliers a capacity sweep probes, in order: 100 %, then
/// `+= step` up to the 300 % safety stop (nothing in this study should
/// handle 300 %). The steps are one float accumulation, so every sweep
/// that walks this ladder, in order or speculatively, probes bit-identical
/// multipliers.
pub fn capacity_ladder(step: f64) -> impl Iterator<Item = f64> {
    std::iter::successors(Some(1.0), move |m| Some(m + step)).take_while(|&m| m <= 3.0)
}

/// Sweep a scenario up its [`capacity_ladder`]: start at 100 % and raise
/// users by `step` (the paper: 5 %) until `probe` — one run at the given
/// user multiplier — comes back overloaded. The paper's probes simulate
/// 80 hours; shorter horizons are fine for tests, since overload, when it
/// happens, shows up within the first simulated day.
pub fn find_max_users(
    scenario: Scenario,
    criterion: CapacityCriterion,
    step: f64,
    mut probe: impl FnMut(f64) -> Metrics,
) -> CapacityResult {
    let mut steps = Vec::new();
    let mut max_multiplier = 0.0;
    for multiplier in capacity_ladder(step) {
        let overloaded = criterion.overloaded(&probe(multiplier));
        steps.push((multiplier, overloaded));
        if overloaded {
            break;
        }
        max_multiplier = multiplier;
    }
    CapacityResult {
        scenario,
        max_multiplier,
        steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autoglobe_monitor::SimDuration;

    #[test]
    fn criterion_thresholds() {
        let c = CapacityCriterion::default();
        let mut m = Metrics {
            duration: SimDuration::from_hours(24),
            ..Metrics::default()
        };
        assert!(!c.overloaded(&m));
        m.overload_secs_by_day
            .insert((autoglobe_landscape::ServerId::new(0), 0), 3600);
        assert!(c.overloaded(&m), "single-day run counts day 0");
        // Multi-day run: a day-0 transient is forgiven …
        m.duration = SimDuration::from_hours(48);
        assert!(!c.overloaded(&m));
        // … but recurring overload is not.
        m.overload_secs_by_day
            .insert((autoglobe_landscape::ServerId::new(0), 1), 3600);
        assert!(c.overloaded(&m));
        let m2 = Metrics {
            duration: SimDuration::from_hours(24),
            unserved_demand: 5.0,
            total_demand: 100.0,
            ..Metrics::default()
        };
        assert!(c.overloaded(&m2));
    }

    /// The sweep walks the ladder in order, stops at the first overloaded
    /// probe and reports the step before it.
    #[test]
    fn sweep_stops_at_the_first_overloaded_probe() {
        let criterion = CapacityCriterion::default();
        let overloaded_above = |limit: f64| {
            move |multiplier: f64| Metrics {
                duration: SimDuration::from_hours(24),
                unserved_demand: if multiplier > limit { 5.0 } else { 0.0 },
                total_demand: 100.0,
                ..Metrics::default()
            }
        };
        let ladder: Vec<f64> = capacity_ladder(0.05).collect();
        let result = find_max_users(Scenario::Static, criterion, 0.05, overloaded_above(1.12));
        assert_eq!(result.max_multiplier.to_bits(), ladder[2].to_bits());
        assert_eq!(result.steps.len(), 4);
        assert_eq!(result.steps.last(), Some(&(ladder[3], true)));
        assert!(result.steps[..3].iter().all(|&(_, overloaded)| !overloaded));
        let mut m: f64 = 1.0;
        for &multiplier in &ladder {
            assert_eq!(multiplier.to_bits(), m.to_bits());
            m += 0.05;
        }
        assert!(m > 3.0, "the ladder ends exactly at the safety stop");
        // A probe that never overloads walks the whole ladder.
        let all = find_max_users(Scenario::Static, criterion, 0.05, overloaded_above(9.0));
        assert_eq!(all.steps.len(), ladder.len());
        assert_eq!(all.max_multiplier, *ladder.last().unwrap());
    }
}
