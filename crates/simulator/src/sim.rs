//! The tick-driven simulation engine behind the paper's figures.
//!
//! Every simulated minute the engine: advances the workload curves, lets
//! users (re-)distribute over instances, computes the resulting CPU demand
//! of every instance / central instance / database, derives per-server
//! loads, records metrics and the load archive, feeds the monitoring stack,
//! and dispatches confirmed triggers to the fuzzy controller — whose actions
//! mutate the landscape with a realistic start-up latency before new
//! instances accept users.
//!
//! The simulation models the paper's ideal conditions: reliable hosts and
//! instant, infallible execution. Failures, heartbeat detection and
//! fallible execution are driven through the public control plane by the
//! `autoglobe` crate's chaos harness (`RunBuilder::chaos_run`).

use crate::config::SimConfig;
use crate::engine::WorkloadEngine;
use crate::metrics::{InstancePoint, Metrics, SeriesPoint};
use crate::sap::SapEnvironment;
use autoglobe_controller::{AutoGlobeController, ControllerEvent, RuleBases};
use autoglobe_landscape::{InstanceId, Landscape, ServiceId};
use autoglobe_monitor::{
    LoadArchive, LoadMonitoringSystem, LoadSample, SimDuration, SimTime, Subject, SubjectConfig,
    TriggerEvent,
};
use autoglobe_rng::Rng;
use std::collections::BTreeSet;

/// A full simulation run.
pub struct Simulation {
    config: SimConfig,
    landscape: Landscape,
    engine: WorkloadEngine,
    controller: AutoGlobeController,
    monitoring: LoadMonitoringSystem,
    archive: LoadArchive,
    rng: Rng,
    time: SimTime,
    metrics: Metrics,
    last_sample: SimTime,
    record_instances_of: Vec<ServiceId>,
}

impl Simulation {
    /// Create a simulation over an environment.
    ///
    /// # Panics
    /// Panics when the configuration fails [`SimConfig::validate`], and
    /// when it enables failure injection, heartbeat detection or fallible
    /// execution — those run through the chaos harness, not here.
    pub fn new(env: SapEnvironment, config: SimConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid simulation config: {e}");
        }
        assert!(
            config.failures.is_none() && config.heartbeats.is_none() && config.execution.is_none(),
            "Simulation runs ideal conditions; drive failures, heartbeats and \
             fallible execution through the chaos harness (RunBuilder::chaos_run)"
        );
        let SapEnvironment {
            landscape,
            workloads,
        } = env;

        // The workload model: daily curves, session tables, demand flow.
        let engine = WorkloadEngine::new(&landscape, workloads, &config);

        // Monitoring: servers with performance-index-scaled idle thresholds,
        // services with the standard thresholds.
        let mut monitoring = LoadMonitoringSystem::new();
        for server in landscape.server_ids() {
            let idx = landscape.server(server).unwrap().performance_index;
            monitoring.register(Subject::Server(server), SubjectConfig::paper_defaults(idx));
        }
        for service in landscape.service_ids() {
            monitoring.register(Subject::Service(service), SubjectConfig::service_defaults());
        }

        let controller =
            AutoGlobeController::with_rule_bases(RuleBases::paper_defaults(), config.controller);

        let record_instances_of = config
            .record_instances_of
            .iter()
            .filter_map(|name| landscape.service_by_name(name).ok())
            .collect();

        let metrics = Metrics::labelled(config.scenario, &landscape);
        let seed = config.seed;
        Simulation {
            config,
            landscape,
            engine,
            controller,
            monitoring,
            archive: LoadArchive::new(SimDuration::from_minutes(1)),
            rng: Rng::seed_from_u64(seed),
            time: SimTime::ZERO,
            metrics,
            last_sample: SimTime::ZERO,
            record_instances_of,
        }
    }

    /// The landscape in its current state.
    pub fn landscape(&self) -> &Landscape {
        &self.landscape
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.time
    }

    /// The metrics collected so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The load archive (consumed by forecasting): every server and
    /// service, 32 bytes per subject and one-minute bucket.
    pub fn archive(&self) -> &LoadArchive {
        &self.archive
    }

    /// The controller (for inspecting its log).
    pub fn controller(&self) -> &AutoGlobeController {
        &self.controller
    }

    /// Run to completion and return the metrics.
    pub fn run(mut self) -> Metrics {
        let ticks = self.config.num_ticks();
        for _ in 0..ticks {
            self.step();
        }
        self.metrics.duration = self.config.duration;
        self.metrics
    }

    /// Advance one tick. Public so examples can interleave inspection.
    pub fn step(&mut self) {
        self.time += self.config.tick;

        // Hosts never fail here, so no instance is dead-but-undetected.
        let dead: BTreeSet<InstanceId> = BTreeSet::new();

        // ---- 1–3. workload model: sessions, demand, per-server loads --------
        let loads = self.engine.advance(
            &self.landscape,
            &dead,
            self.time,
            &mut self.rng,
            &mut self.metrics,
        );
        let average_load = loads.average_cpu;

        // ---- 4. record -------------------------------------------------------
        for (server, load, mem) in loads.server_entries() {
            self.archive
                .record(Subject::Server(server), self.time, load, mem);
        }
        for (service, load) in loads.service_entries() {
            self.archive
                .record(Subject::Service(service), self.time, load, 0.0);
        }
        if self.time.since(self.last_sample) >= self.config.sample_every {
            self.last_sample = self.time;
            for (server, load, _) in loads.server_entries() {
                self.metrics
                    .server_series
                    .entry(server)
                    .or_default()
                    .push(SeriesPoint {
                        time: self.time,
                        value: load,
                    });
            }
            self.metrics.average_series.push(SeriesPoint {
                time: self.time,
                value: average_load,
            });
            for &service in &self.record_instances_of {
                for instance in self.landscape.instances_of(service) {
                    if let (Ok(inst), Some(value)) = (
                        self.landscape.instance(instance),
                        loads.instance_cpu_of(instance),
                    ) {
                        self.metrics
                            .instance_series
                            .entry(instance)
                            .or_default()
                            .push(InstancePoint {
                                time: self.time,
                                server: inst.server,
                                value,
                            });
                    }
                }
            }
        }

        // ---- 5. monitoring → triggers ---------------------------------------
        // Batch observation straight off the arena, ascending servers then
        // ascending services.
        let mut triggers: Vec<TriggerEvent> = Vec::new();
        let time = self.time;
        self.monitoring.observe_servers(
            loads
                .server_entries()
                .map(|(server, cpu, mem)| (server, LoadSample::new(time, cpu, mem))),
            &mut triggers,
        );
        self.monitoring.observe_services(
            loads
                .service_entries()
                .map(|(service, cpu)| (service, LoadSample::new(time, cpu, 0.0))),
            &mut triggers,
        );

        // ---- 6. controller ----------------------------------------------------
        if self.config.controller_enabled {
            for trigger in triggers {
                let outcome = self.controller.handle_trigger(
                    &trigger,
                    &mut self.landscape,
                    self.engine.last_loads(),
                    self.time,
                );
                for event in &outcome.events {
                    if matches!(event, ControllerEvent::AdministratorAlert { .. }) {
                        self.metrics.alerts += 1;
                    }
                }
                for record in outcome.executed {
                    self.engine
                        .note_action(&record.outcome, &self.landscape, self.time);
                    self.metrics.actions.push(record);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sap::build_environment;
    use crate::scenario::Scenario;

    fn quick_sim(scenario: Scenario, multiplier: f64, hours: u64) -> Metrics {
        let env = build_environment(scenario);
        let config =
            SimConfig::paper(scenario, multiplier).with_duration(SimDuration::from_hours(hours));
        Simulation::new(env, config).run()
    }

    #[test]
    #[should_panic(expected = "chaos harness")]
    fn chaos_knobs_are_refused() {
        let config = SimConfig::paper(Scenario::FullMobility, 1.0)
            .with_failures(crate::config::FailureInjection::default());
        let _ = Simulation::new(build_environment(Scenario::FullMobility), config);
    }

    #[test]
    fn baseline_static_day_stays_inside_band() {
        // At 100 % users the static installation must not be overloaded
        // (Table 7: static handles exactly 100 %).
        let m = quick_sim(Scenario::Static, 1.0, 24);
        assert!(
            m.worst_overload_secs_per_day() < 1800.0,
            "static at 100% must not be overloaded; worst {}s/day",
            m.worst_overload_secs_per_day()
        );
        // But the hardware is actually used: peak load on some blade > 60 %.
        let max_peak = m.peak_load.values().copied().fold(0.0, f64::max);
        assert!(max_peak > 0.6, "peak load {max_peak} suspiciously low");
    }

    #[test]
    fn static_at_115_percent_is_overloaded() {
        let m = quick_sim(Scenario::Static, 1.15, 24);
        assert!(
            m.worst_overload_secs_per_day() > 1800.0,
            "static at 115% must show sustained overload; worst {}s/day",
            m.worst_overload_secs_per_day()
        );
        // And the static controller never acts.
        assert!(m.actions.is_empty(), "static services allow no actions");
    }

    #[test]
    fn full_mobility_controller_acts_and_reduces_overload() {
        let static_m = quick_sim(Scenario::Static, 1.15, 30);
        let fm = quick_sim(Scenario::FullMobility, 1.15, 30);
        assert!(
            !fm.actions.is_empty(),
            "the FM controller must execute actions"
        );
        assert!(
            fm.worst_overload() < static_m.worst_overload(),
            "FM {:?} must beat static {:?}",
            fm.worst_overload(),
            static_m.worst_overload()
        );
    }

    #[test]
    fn constrained_mobility_scales_out_but_never_moves() {
        let m = quick_sim(Scenario::ConstrainedMobility, 1.15, 30);
        for a in &m.actions {
            let kind = a.action.kind();
            assert!(
                matches!(
                    kind,
                    autoglobe_landscape::ActionKind::ScaleIn
                        | autoglobe_landscape::ActionKind::ScaleOut
                ),
                "CM only allows scale-in/out, saw {kind}"
            );
        }
    }

    #[test]
    fn simulation_is_deterministic() {
        let run = || {
            let env = build_environment(Scenario::FullMobility);
            let config = SimConfig::paper(Scenario::FullMobility, 1.15)
                .with_duration(SimDuration::from_hours(12));
            Simulation::new(env, config).run()
        };
        let a = run();
        let b = run();
        assert_eq!(a.actions.len(), b.actions.len());
        assert_eq!(a.average_series.len(), b.average_series.len());
        for (pa, pb) in a.average_series.iter().zip(&b.average_series) {
            assert_eq!(pa.value, pb.value);
        }
        assert_eq!(a.overload_secs, b.overload_secs);
    }

    /// Bitwise comparison of two runs' metrics: every f64 by `to_bits`,
    /// everything else by equality, and the full Debug rendering as a
    /// catch-all for fields added later.
    fn assert_metrics_bit_identical(a: &Metrics, b: &Metrics) {
        assert_eq!(a.total_demand.to_bits(), b.total_demand.to_bits());
        assert_eq!(a.unserved_demand.to_bits(), b.unserved_demand.to_bits());
        assert_eq!(a.lost_sessions.to_bits(), b.lost_sessions.to_bits());
        assert_eq!(a.overload_secs, b.overload_secs);
        assert_eq!(a.overload_secs_by_day, b.overload_secs_by_day);
        let peaks = |m: &Metrics| {
            m.peak_load
                .iter()
                .map(|(&s, &v)| (s, v.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(peaks(a), peaks(b));
        assert_eq!(a.server_series.len(), b.server_series.len());
        for ((sa, va), (sb, vb)) in a.server_series.iter().zip(&b.server_series) {
            assert_eq!(sa, sb);
            assert_eq!(va.len(), vb.len());
            for (pa, pb) in va.iter().zip(vb) {
                assert_eq!(pa.time, pb.time);
                assert_eq!(pa.value.to_bits(), pb.value.to_bits());
            }
        }
        for ((ia, va), (ib, vb)) in a.instance_series.iter().zip(&b.instance_series) {
            assert_eq!(ia, ib);
            for (pa, pb) in va.iter().zip(vb) {
                assert_eq!((pa.time, pa.server), (pb.time, pb.server));
                assert_eq!(pa.value.to_bits(), pb.value.to_bits());
            }
        }
        for (pa, pb) in a.average_series.iter().zip(&b.average_series) {
            assert_eq!(pa.value.to_bits(), pb.value.to_bits());
        }
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn inner_jobs_are_bit_identical() {
        // The intra-run parallel phase must not change a single bit of any
        // output, mirroring the --jobs guarantee across runs.
        let run = |inner_jobs: usize| {
            let env = build_environment(Scenario::FullMobility);
            let config = SimConfig::paper(Scenario::FullMobility, 1.15)
                .with_duration(SimDuration::from_hours(8))
                .with_seed(7)
                .with_inner_jobs(inner_jobs);
            Simulation::new(env, config).run()
        };
        let sequential = run(1);
        let parallel = run(4);
        assert_metrics_bit_identical(&sequential, &parallel);
        assert!(!sequential.actions.is_empty(), "controller must have acted");
    }

    #[test]
    fn series_are_recorded_for_all_servers() {
        let m = quick_sim(Scenario::Static, 1.0, 6);
        assert_eq!(m.server_series.len(), 19);
        assert!(!m.average_series.is_empty());
        // FI instance series recorded (three initial instances).
        assert!(m.instance_series.len() >= 3);
    }

    #[test]
    fn load_curves_follow_the_daily_pattern() {
        let m = quick_sim(Scenario::Static, 1.0, 24);
        // Average load must be clearly higher at 10:00 than at 04:00 —
        // wait: BW batch runs at night, so compare a *blade* hosting an
        // interactive service instead.
        let env = build_environment(Scenario::Static);
        let blade3 = env.landscape.server_by_name("Blade3").unwrap();
        let series = &m.server_series[&blade3];
        let at = |h: f64| {
            series
                .iter()
                .min_by(|a, b| {
                    let da = (a.time.as_secs() as f64 / 3600.0 - h).abs();
                    let db = (b.time.as_secs() as f64 / 3600.0 - h).abs();
                    da.partial_cmp(&db).unwrap()
                })
                .unwrap()
                .value
        };
        assert!(
            at(10.0) > at(4.0) + 0.2,
            "FI blade at 10:00 ({}) vs 04:00 ({})",
            at(10.0),
            at(4.0)
        );
    }

    #[test]
    fn bw_database_server_is_nocturnal() {
        let m = quick_sim(Scenario::Static, 1.0, 24);
        let env = build_environment(Scenario::Static);
        let db3 = env.landscape.server_by_name("DBServer3").unwrap();
        let series = &m.server_series[&db3];
        let night: f64 = series
            .iter()
            .filter(|p| p.time.hour_of_day() < 5.0)
            .map(|p| p.value)
            .sum::<f64>()
            / series
                .iter()
                .filter(|p| p.time.hour_of_day() < 5.0)
                .count()
                .max(1) as f64;
        let day: f64 = series
            .iter()
            .filter(|p| (10.0..16.0).contains(&p.time.hour_of_day()))
            .map(|p| p.value)
            .sum::<f64>()
            / series
                .iter()
                .filter(|p| (10.0..16.0).contains(&p.time.hour_of_day()))
                .count()
                .max(1) as f64;
        assert!(
            night > day + 0.2,
            "BW DB night load {night} must exceed day load {day}"
        );
    }
}
