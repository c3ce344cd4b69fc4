//! Simulation configuration.

use crate::scenario::Scenario;
use autoglobe_controller::{ControllerConfig, ExecutorConfig};
use autoglobe_monitor::SimDuration;

/// Failure-injection parameters ("Failure situations like a program crash
/// are remedied for example with a restart", Section 2). Rates are per
/// entity per simulated hour.
#[derive(Debug, Clone, Copy)]
pub struct FailureInjection {
    /// Probability per instance per hour of a program crash.
    pub instance_crash_per_hour: f64,
    /// Probability per server per hour of a host failure.
    pub server_failure_per_hour: f64,
    /// How long a failed host stays down before it is repaired.
    pub repair_after: SimDuration,
}

impl FailureInjection {
    /// Check the parameters on construction rather than clamping at use
    /// sites: rates must be finite probabilities in `[0, 1]`, and a failed
    /// host must stay down for a positive repair duration.
    pub fn validate(&self) -> Result<(), String> {
        let check_rate = |name: &str, rate: f64| -> Result<(), String> {
            if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
                return Err(format!(
                    "{name} must be a finite probability in [0, 1] per hour, got {rate}"
                ));
            }
            Ok(())
        };
        check_rate("instance_crash_per_hour", self.instance_crash_per_hour)?;
        check_rate("server_failure_per_hour", self.server_failure_per_hour)?;
        if self.repair_after == SimDuration::ZERO {
            return Err("repair_after must be positive".into());
        }
        Ok(())
    }
}

impl Default for FailureInjection {
    fn default() -> Self {
        FailureInjection {
            instance_crash_per_hour: 0.01,
            server_failure_per_hour: 0.001,
            repair_after: SimDuration::from_hours(2),
        }
    }
}

/// Heartbeat-based failure detection, the only way a chaos run learns of a
/// failure: servers and instances emit a heartbeat every tick; `miss_threshold`
/// consecutive misses raise a suspicion, `confirm_after` further silent
/// ticks confirm the failure. `loss_probability` models a lossy monitoring
/// network — healthy entities occasionally drop a beat, producing false
/// suspicions the detector must reconcile.
#[derive(Debug, Clone, Copy)]
pub struct HeartbeatDetection {
    /// Consecutive missed heartbeats before a subject is suspected.
    pub miss_threshold: u32,
    /// Further silent ticks before a suspicion is confirmed.
    pub confirm_after: u32,
    /// Probability per healthy entity per tick of dropping a heartbeat.
    pub loss_probability: f64,
}

impl HeartbeatDetection {
    /// Check the parameters.
    pub fn validate(&self) -> Result<(), String> {
        if self.miss_threshold == 0 {
            return Err("miss_threshold must be at least 1".into());
        }
        if !self.loss_probability.is_finite() || !(0.0..=1.0).contains(&self.loss_probability) {
            return Err(format!(
                "loss_probability must be a finite probability in [0, 1], got {}",
                self.loss_probability
            ));
        }
        Ok(())
    }
}

impl Default for HeartbeatDetection {
    fn default() -> Self {
        HeartbeatDetection {
            miss_threshold: 3,
            confirm_after: 2,
            loss_probability: 0.0,
        }
    }
}

/// All knobs of one simulation run. Defaults mirror Section 5.1 of the
/// paper: 80 simulated hours, one-minute monitoring tick, 70 % overload
/// threshold with a 10-minute watch time, `12.5 % ÷ performanceIndex` idle
/// threshold with a 20-minute watch time, 30 minutes of protection after an
/// action.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Which scenario to run.
    pub scenario: Scenario,
    /// Simulated duration (paper: 80 hours).
    pub duration: SimDuration,
    /// Monitoring/simulation tick (one simulated minute).
    pub tick: SimDuration,
    /// User-count multiplier relative to Table 4 (1.0 = 100 %). For BW the
    /// multiplier scales per-job load instead (Section 5.1).
    pub user_multiplier: f64,
    /// RNG seed — every figure is reproducible bit-for-bit.
    pub seed: u64,
    /// Fuzzy-controller configuration (thresholds, protection time). The
    /// *static* scenario runs the controller too, but its services allow
    /// no actions, matching the paper ("the controller cannot remedy the
    /// overload situations").
    pub controller: ControllerConfig,
    /// Time from starting an instance until it accepts users.
    pub startup_latency: SimDuration,
    /// Optional failure injection (None = no failures, the paper's load
    /// studies). Honoured by the chaos harness; the supervised run
    /// refuses it.
    pub failures: Option<FailureInjection>,
    /// Optional fallible asynchronous action execution (None = the
    /// reliable, instant substrate the paper's load studies assume).
    /// Honoured by the control-plane harnesses.
    pub execution: Option<ExecutorConfig>,
    /// Heartbeat failure detection for the chaos harness (which defaults
    /// it when unset); the supervised run refuses it.
    pub heartbeats: Option<HeartbeatDetection>,
    /// Worker threads for the *intra-run* per-server evaluation phase
    /// (`0` = use the machine, `1` = fully sequential). Results are
    /// bit-identical at any setting — the parallel phase computes only
    /// per-server-local values and every cross-server reduction runs
    /// sequentially in ascending server order.
    pub inner_jobs: usize,
}

impl SimConfig {
    /// The paper's configuration for a given scenario and user level.
    pub fn paper(scenario: Scenario, user_multiplier: f64) -> Self {
        SimConfig {
            scenario,
            duration: SimDuration::from_hours(80),
            tick: SimDuration::from_minutes(1),
            user_multiplier,
            seed: 0x005A_B061_0BE0, // "SAP AutoGlobe"
            controller: ControllerConfig::default(),
            startup_latency: SimDuration::from_minutes(2),
            failures: None,
            execution: None,
            heartbeats: None,
            inner_jobs: 1,
        }
    }

    /// A short smoke-test configuration (a few simulated hours).
    pub fn quick(scenario: Scenario) -> Self {
        SimConfig {
            duration: SimDuration::from_hours(6),
            ..SimConfig::paper(scenario, 1.0)
        }
    }

    /// Builder-style: set the user multiplier.
    pub fn with_multiplier(mut self, m: f64) -> Self {
        self.user_multiplier = m;
        self
    }

    /// Builder-style: set the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style: set the duration.
    pub fn with_duration(mut self, duration: SimDuration) -> Self {
        self.duration = duration;
        self
    }

    /// Builder-style: enable failure injection.
    pub fn with_failures(mut self, failures: FailureInjection) -> Self {
        self.failures = Some(failures);
        self
    }

    /// Builder-style: enable fallible asynchronous action execution.
    pub fn with_execution(mut self, execution: ExecutorConfig) -> Self {
        self.execution = Some(execution);
        self
    }

    /// Builder-style: enable heartbeat failure detection.
    pub fn with_heartbeats(mut self, heartbeats: HeartbeatDetection) -> Self {
        self.heartbeats = Some(heartbeats);
        self
    }

    /// Builder-style: set the intra-run worker-thread count (`0` = use the
    /// machine). Output is bit-identical at any setting.
    pub fn with_inner_jobs(mut self, inner_jobs: usize) -> Self {
        self.inner_jobs = inner_jobs;
        self
    }

    /// Number of ticks in the run.
    pub fn num_ticks(&self) -> u64 {
        self.duration.as_secs() / self.tick.as_secs().max(1)
    }

    /// Check every optional subsystem's parameters.
    pub fn validate(&self) -> Result<(), String> {
        if let Some(f) = &self.failures {
            f.validate().map_err(|e| format!("failures: {e}"))?;
        }
        if let Some(e) = &self.execution {
            e.validate().map_err(|e| format!("execution: {e}"))?;
        }
        if let Some(h) = &self.heartbeats {
            h.validate().map_err(|e| format!("heartbeats: {e}"))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_section_5_1() {
        let c = SimConfig::paper(Scenario::FullMobility, 1.15);
        assert_eq!(c.duration, SimDuration::from_hours(80));
        assert_eq!(c.tick, SimDuration::from_minutes(1));
        assert_eq!(c.user_multiplier, 1.15);
        assert_eq!(c.controller.protection_time, SimDuration::from_minutes(30));
        assert_eq!(c.num_ticks(), 80 * 60);
    }

    #[test]
    fn failure_injection_is_validated_on_construction() {
        assert!(FailureInjection::default().validate().is_ok());
        for bad_rate in [f64::NAN, -0.01, 1.5] {
            let f = FailureInjection {
                instance_crash_per_hour: bad_rate,
                ..FailureInjection::default()
            };
            assert!(f.validate().is_err());
        }
        let f = FailureInjection {
            server_failure_per_hour: f64::INFINITY,
            ..FailureInjection::default()
        };
        assert!(f.validate().is_err());
        let f = FailureInjection {
            repair_after: SimDuration::ZERO,
            ..FailureInjection::default()
        };
        assert!(f.validate().is_err());
        // An invalid sub-config fails the whole SimConfig.
        let c = SimConfig::quick(Scenario::FullMobility).with_failures(f);
        assert!(c.validate().is_err());
    }

    #[test]
    fn heartbeat_detection_is_validated() {
        assert!(HeartbeatDetection::default().validate().is_ok());
        let h = HeartbeatDetection {
            miss_threshold: 0,
            ..HeartbeatDetection::default()
        };
        assert!(h.validate().is_err());
        for bad_loss in [f64::NAN, 1.1] {
            let h = HeartbeatDetection {
                loss_probability: bad_loss,
                ..HeartbeatDetection::default()
            };
            assert!(h.validate().is_err());
        }
    }

    #[test]
    fn chaos_builders_chain_and_validate() {
        let c = SimConfig::quick(Scenario::ConstrainedMobility)
            .with_failures(FailureInjection::default())
            .with_execution(ExecutorConfig::reliable())
            .with_heartbeats(HeartbeatDetection::default());
        assert!(c.validate().is_ok());
        assert!(c.execution.is_some());
        assert!(c.heartbeats.is_some());
    }

    #[test]
    fn builders_chain() {
        let c = SimConfig::quick(Scenario::Static)
            .with_multiplier(1.05)
            .with_seed(7)
            .with_duration(SimDuration::from_hours(12));
        assert_eq!(c.user_multiplier, 1.05);
        assert_eq!(c.seed, 7);
        assert_eq!(c.num_ticks(), 12 * 60);
    }
}
