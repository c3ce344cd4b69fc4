//! Metrics collected during a simulation run — everything the paper's
//! figures and tables are made of.

use crate::scenario::Scenario;
use autoglobe_controller::ActionRecord;
use autoglobe_landscape::{InstanceId, Landscape, ServerId, ServiceId};
use autoglobe_monitor::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// One point of a load series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesPoint {
    /// Sample time.
    pub time: SimTime,
    /// CPU load in `[0, 1]`.
    pub value: f64,
}

/// One point of a per-instance series — instances move between hosts, so
/// each point records where the instance was running.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstancePoint {
    /// Sample time.
    pub time: SimTime,
    /// Host at sample time.
    pub server: ServerId,
    /// Instance CPU share in `[0, 1]`.
    pub value: f64,
}

/// The CPU load above which a server counts as overloaded in the paper's
/// reading of the figures ("have a CPU load of more than 80% for a long
/// time").
pub const OVERLOAD_LEVEL: f64 = 0.80;

/// All data recorded during one simulation run.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    /// The scenario the run simulated (`None` for hand-assembled metrics).
    pub scenario: Option<Scenario>,
    /// Server names in `ServerId` index order, captured when the simulation
    /// starts — so renderers never have to rebuild the environment (and
    /// guess its scenario) just to resolve ids back to the paper's names.
    pub server_names: Vec<String>,
    /// Service names in `ServiceId` index order.
    pub service_names: Vec<String>,
    /// Per-server load series (Figures 12–14).
    pub server_series: BTreeMap<ServerId, Vec<SeriesPoint>>,
    /// Average load over all servers (the thick line in Figures 12–14).
    pub average_series: Vec<SeriesPoint>,
    /// Per-instance load series for selected services (Figures 15–17).
    pub instance_series: BTreeMap<InstanceId, Vec<InstancePoint>>,
    /// Seconds each server spent above [`OVERLOAD_LEVEL`] (10-minute
    /// rolling average, to ignore single-tick jitter spikes).
    pub overload_secs: BTreeMap<ServerId, u64>,
    /// The same overload seconds, broken down by `(server, simulated day)` —
    /// lets the capacity criterion distinguish a one-off day-0 transient
    /// (the controller still rearranging the initial allocation) from
    /// overload that recurs every day in steady state.
    pub overload_secs_by_day: BTreeMap<(ServerId, u64), u64>,
    /// Peak (instantaneous) load each server reached.
    pub peak_load: BTreeMap<ServerId, f64>,
    /// Every action the controller executed, in order.
    pub actions: Vec<ActionRecord>,
    /// Number of administrator alerts raised.
    pub alerts: usize,
    /// Injected failures (instance crashes + server failures).
    pub failures: usize,
    /// Instances successfully restarted by the self-healing path.
    pub recoveries: usize,
    /// Instances that could not be restarted anywhere.
    pub lost_instances: usize,
    /// Failed hosts that finished their repair and rejoined the pool.
    pub repairs: usize,
    /// Execution attempts that failed and were retried.
    pub exec_retries: usize,
    /// Execution attempts that outlived their timeout.
    pub exec_timeouts: usize,
    /// Fenced late successes that were discarded (would-be ghost effects).
    pub exec_fenced: usize,
    /// Operations abandoned after exhausting attempts/alternates — nothing
    /// was applied, so compensation amounted to leaving the landscape
    /// untouched.
    pub exec_compensations: usize,
    /// Heartbeat suspicions raised (true and false).
    pub suspected_failures: usize,
    /// False suspicions reconciled when heartbeats resumed.
    pub reconciliations: usize,
    /// Confirmed failure detections of genuinely failed entities.
    pub detections: usize,
    /// Sum over detections of (confirmation time − ground-truth failure
    /// time), in seconds.
    pub detection_latency_secs: u64,
    /// Sum over recoveries of (restart time − ground-truth failure time),
    /// in seconds — the numerator of MTTR.
    pub recovery_time_secs: u64,
    /// Users whose sessions were severed by a failure (fractional users:
    /// the demand model distributes load continuously).
    pub lost_sessions: f64,
    /// Proactive (forecast-driven) triggers the control plane acted on.
    pub proactive_triggers: usize,
    /// Sum over proactive triggers of (predicted overload time − trigger
    /// time), in seconds — how far ahead of the overload the forecaster
    /// fired.
    pub proactive_lead_secs: u64,
    /// Integral of demand the hardware could not serve, in
    /// performance-unit-seconds (requests delayed — "users cannot perform
    /// all their requests in a given period").
    pub unserved_demand: f64,
    /// Integral of total offered demand, in performance-unit-seconds.
    pub total_demand: f64,
    /// Simulated time covered.
    pub duration: SimDuration,
}

impl Metrics {
    /// Empty metrics for a run of `scenario` on `landscape`, carrying the
    /// id → name tables so renderers never need to rebuild the environment
    /// to label a run's output.
    pub fn labelled(scenario: Scenario, landscape: &Landscape) -> Self {
        Metrics {
            scenario: Some(scenario),
            server_names: landscape
                .server_ids()
                .map(|id| landscape.server(id).unwrap().name.clone())
                .collect(),
            service_names: landscape
                .service_ids()
                .map(|id| landscape.service(id).unwrap().name.clone())
                .collect(),
            ..Metrics::default()
        }
    }

    /// The recorded name of a server, or `"?"` if the id is out of range
    /// (hand-assembled metrics without name tables).
    pub fn server_name(&self, id: ServerId) -> &str {
        self.server_names
            .get(id.index())
            .map(String::as_str)
            .unwrap_or("?")
    }

    /// The recorded name of a service, or `"?"` if the id is out of range.
    pub fn service_name(&self, id: ServiceId) -> &str {
        self.service_names
            .get(id.index())
            .map(String::as_str)
            .unwrap_or("?")
    }

    /// Fraction of offered demand that could not be served.
    pub fn unserved_fraction(&self) -> f64 {
        if self.total_demand <= 0.0 {
            0.0
        } else {
            self.unserved_demand / self.total_demand
        }
    }

    /// The worst per-server overload time.
    pub fn worst_overload(&self) -> SimDuration {
        SimDuration::from_secs(self.overload_secs.values().copied().max().unwrap_or(0))
    }

    /// The worst per-server overload time, normalized to seconds per
    /// simulated day.
    pub fn worst_overload_secs_per_day(&self) -> f64 {
        let days = (self.duration.as_secs() as f64 / 86_400.0).max(1e-9);
        self.worst_overload().as_secs() as f64 / days
    }

    /// The worst single `(server, day)` overload, ignoring day 0 when the
    /// run covers more than one day. Day 0 includes the transient in which
    /// the controller first adapts the (static, hand-made) initial
    /// allocation; what makes a configuration *unable to handle* a user
    /// level is overload that comes back every day.
    pub fn worst_recurring_overload(&self) -> SimDuration {
        let multi_day = self.duration.as_secs() > 86_400;
        let worst = self
            .overload_secs_by_day
            .iter()
            .filter(|((_, day), _)| !multi_day || *day >= 1)
            .map(|(_, &secs)| secs)
            .max()
            .unwrap_or(0);
        SimDuration::from_secs(worst)
    }

    /// Sum of overload seconds across all servers.
    pub fn total_overload(&self) -> SimDuration {
        SimDuration::from_secs(self.overload_secs.values().sum())
    }

    /// Mean of the average-load series (overall hardware utilization).
    pub fn mean_average_load(&self) -> f64 {
        if self.average_series.is_empty() {
            return 0.0;
        }
        self.average_series.iter().map(|p| p.value).sum::<f64>() / self.average_series.len() as f64
    }

    /// Mean time from ground-truth failure to completed restart, in
    /// seconds (over successful recoveries with a recorded failure time).
    pub fn mean_time_to_recovery_secs(&self) -> f64 {
        if self.recoveries == 0 {
            0.0
        } else {
            self.recovery_time_secs as f64 / self.recoveries as f64
        }
    }

    /// Mean lead time of proactive triggers (predicted overload time minus
    /// trigger time), in seconds — zero when no proactive trigger fired.
    pub fn mean_proactive_lead_secs(&self) -> f64 {
        if self.proactive_triggers == 0 {
            0.0
        } else {
            self.proactive_lead_secs as f64 / self.proactive_triggers as f64
        }
    }

    /// Mean time from ground-truth failure to confirmed detection, in
    /// seconds (zero when nothing was detected).
    pub fn mean_detection_latency_secs(&self) -> f64 {
        if self.detections == 0 {
            0.0
        } else {
            self.detection_latency_secs as f64 / self.detections as f64
        }
    }

    /// Number of executed actions by kind name → count (summaries, EXPERIMENTS.md).
    pub fn action_counts(&self) -> BTreeMap<&'static str, usize> {
        let mut counts = BTreeMap::new();
        for a in &self.actions {
            *counts.entry(a.action.kind().variable_name()).or_insert(0) += 1;
        }
        counts
    }

    /// Render a server's series as CSV lines `hours,load` (gnuplot-ready,
    /// the x-axis of the paper's figures).
    pub fn series_csv(points: &[SeriesPoint]) -> String {
        let mut out = String::with_capacity(points.len() * 16);
        for p in points {
            out.push_str(&format!(
                "{:.3},{:.4}\n",
                p.time.as_secs() as f64 / 3600.0,
                p.value
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unserved_fraction_handles_empty() {
        let m = Metrics::default();
        assert_eq!(m.unserved_fraction(), 0.0);
        assert_eq!(m.worst_overload(), SimDuration::ZERO);
        assert_eq!(m.mean_average_load(), 0.0);
    }

    #[test]
    fn overload_aggregation() {
        let mut m = Metrics::default();
        m.overload_secs.insert(ServerId::new(0), 600);
        m.overload_secs.insert(ServerId::new(1), 1800);
        m.duration = SimDuration::from_hours(48);
        assert_eq!(m.worst_overload(), SimDuration::from_minutes(30));
        assert_eq!(m.total_overload(), SimDuration::from_minutes(40));
        assert!((m.worst_overload_secs_per_day() - 900.0).abs() < 1e-9);
    }

    #[test]
    fn unserved_fraction_math() {
        let m = Metrics {
            unserved_demand: 5.0,
            total_demand: 100.0,
            ..Metrics::default()
        };
        assert!((m.unserved_fraction() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn recovery_and_detection_means() {
        let mut m = Metrics::default();
        assert_eq!(m.mean_time_to_recovery_secs(), 0.0);
        assert_eq!(m.mean_detection_latency_secs(), 0.0);
        m.recoveries = 4;
        m.recovery_time_secs = 4 * 600;
        m.detections = 2;
        m.detection_latency_secs = 2 * 300;
        assert!((m.mean_time_to_recovery_secs() - 600.0).abs() < 1e-12);
        assert!((m.mean_detection_latency_secs() - 300.0).abs() < 1e-12);
    }

    #[test]
    fn csv_rendering() {
        let points = vec![
            SeriesPoint {
                time: SimTime::from_hours(1),
                value: 0.5,
            },
            SeriesPoint {
                time: SimTime::from_minutes(90),
                value: 0.75,
            },
        ];
        let csv = Metrics::series_csv(&points);
        assert_eq!(csv, "1.000,0.5000\n1.500,0.7500\n");
    }
}
