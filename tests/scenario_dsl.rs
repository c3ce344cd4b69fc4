//! Production-day scenarios driven end-to-end through the public
//! beat/tick/poll API: identity composition must reproduce the paper
//! scenarios bit for bit, and every catalog scenario must run as pure data
//! on both the supervised and the sharded control plane, deterministically
//! at any shard count.

use autoglobe::prelude::*;
use autoglobe::simulator::scenario_dsl::{grow, scale, shift};

/// A bit-exact fingerprint of everything a run reports: counts, float
/// metrics as raw bits, and the ordered action stream.
fn digest(m: &Metrics) -> String {
    use std::fmt::Write;
    let mut out = format!(
        "actions={} alerts={} overload={} demand={:016x} failures={} \
         detections={} det_lat={} recoveries={} rec_time={} lost_inst={} \
         lost_sess={:016x} repairs={} proactive={}\n",
        m.actions.len(),
        m.alerts,
        m.total_overload().as_secs(),
        m.total_demand.to_bits(),
        m.failures,
        m.detections,
        m.detection_latency_secs,
        m.recoveries,
        m.recovery_time_secs,
        m.lost_instances,
        m.lost_sessions.to_bits(),
        m.repairs,
        m.proactive_triggers,
    );
    for record in &m.actions {
        writeln!(out, "{record}").unwrap();
    }
    out
}

/// The final placement: every instance with its host and service,
/// ascending by instance id.
fn placement(landscape: &Landscape) -> Vec<(InstanceId, ServerId, ServiceId)> {
    let mut triples: Vec<_> = landscape
        .instances()
        .map(|i| (i.id, i.server, i.service))
        .collect();
    triples.sort();
    triples
}

/// The reference the identity composition must reproduce: the paper's
/// unmodulated workload engine driving a supervisor by hand through the
/// public record/tick API.
fn unmodulated_supervised(base: Scenario, hours: u64) -> Metrics {
    use autoglobe::simulator::{SapEnvironment, WorkloadEngine};
    use std::collections::BTreeSet;
    let sim = SimConfig::paper(base, 1.15).with_duration(SimDuration::from_hours(hours));
    let SapEnvironment {
        landscape,
        workloads,
    } = build_environment(base);
    let mut engine = WorkloadEngine::new(&landscape, workloads, &sim);
    let config = SupervisorConfig {
        controller: sim.controller,
        ..SupervisorConfig::default()
    };
    let mut supervisor = Supervisor::with_config(landscape, config);
    let mut rng = autoglobe_rng::Rng::seed_from_u64(sim.seed);
    let mut metrics = Metrics::default();
    let mut time = SimTime::ZERO;
    for _ in 0..sim.num_ticks() {
        time += sim.tick;
        let loads = engine.advance(
            supervisor.landscape(),
            &BTreeSet::new(),
            time,
            &mut rng,
            &mut metrics,
        );
        for (server, cpu, mem) in loads.server_entries() {
            supervisor.record_server(server, time, cpu, mem);
        }
        for (service, cpu) in loads.service_entries() {
            supervisor.record_service(service, time, cpu);
        }
        for (instance, cpu) in loads.instance_entries() {
            supervisor.record_instance(instance, time, cpu);
        }
        for record in supervisor.tick(time).unwrap() {
            engine.note_action(&record.outcome, supervisor.landscape(), time);
            metrics.actions.push(record);
        }
        metrics.alerts += supervisor
            .drain_events()
            .iter()
            .filter(|e| matches!(e, ControllerEvent::AdministratorAlert { .. }))
            .count();
    }
    metrics
}

/// Identity composition — an empty stack AND a stack of no-op combinators
/// (×1.0 scale, 0 h shift, 0 %/day growth) — reproduces each paper
/// scenario bit for bit through the same public harness.
#[test]
fn identity_composition_reproduces_each_paper_scenario_bit_for_bit() {
    let hours = 6;
    for &base in &Scenario::ALL {
        let reference = digest(&unmodulated_supervised(base, hours));
        let identity = RunBuilder::new(base).hours(hours).supervised().run();
        assert_eq!(
            digest(&identity),
            reference,
            "{base}: empty-stack spec must be the paper run"
        );
        let decorated = ScenarioSpec::new(
            "decorated-identity",
            base,
            vec![scale("FI", 1.0, (0.0, 1.0e6)), shift("BW", 0.0), grow(0.0)],
        );
        let decorated = RunBuilder::new(decorated).hours(hours).supervised().run();
        assert_eq!(
            digest(&decorated),
            reference,
            "{base}: no-op combinators must leave every bit untouched"
        );
    }
}

/// Every catalog scenario runs as pure data on both planes: the supervised
/// harness (chaos-capable when the spec schedules events) and the sharded
/// control plane — seeded, repeatably, and with the shard count invisible
/// to the metrics and to the final placement.
#[test]
fn catalog_scenarios_run_on_both_planes_deterministically() {
    let hours = 36;
    let seed = 1234;
    for spec in ScenarioSpec::catalog() {
        let supervised = |(): ()| {
            let builder = RunBuilder::new(spec.clone()).hours(hours).seed(seed);
            if spec.has_events() {
                let mut run = builder.chaos_run();
                for _ in 0..hours * 60 {
                    run.step();
                }
                let placement = placement(run.supervisor().landscape());
                (digest(run.metrics()), placement)
            } else {
                let mut run = builder.supervised();
                for _ in 0..hours * 60 {
                    run.step();
                }
                let placement = placement(run.supervisor().landscape());
                (digest(run.metrics()), placement)
            }
        };
        let first = supervised(());
        let again = supervised(());
        assert_eq!(
            first, again,
            "{}: same seed must reproduce the run",
            spec.name
        );
        let sharded = |shards: usize| {
            let mut run = RunBuilder::new(spec.clone())
                .hours(hours)
                .seed(seed)
                .shards(shards)
                .sharded();
            for _ in 0..hours * 60 {
                run.step();
            }
            (digest(run.metrics()), placement(run.plane().landscape()))
        };
        let one = sharded(1);
        let four = sharded(4);
        assert_eq!(
            one, four,
            "{}: the shard count must be invisible to the scenario",
            spec.name
        );
    }
}

/// The correlated rack failure is ground truth the heartbeat layer has to
/// *detect*: four hosts fail at once, detection latency is paid, the
/// self-healing path restarts what it can, and the rack rejoins later.
#[test]
fn rack_failure_is_detected_and_healed() {
    let spec = ScenarioSpec::lookup("rack-failure").expect("catalog name");
    let m = RunBuilder::new(spec).hours(40).chaos_run().run();
    assert_eq!(m.failures, 4, "the whole rack fails");
    assert!(m.detections >= 1, "heartbeat silence must be confirmed");
    assert!(
        m.detection_latency_secs > 0,
        "detection takes miss+confirm ticks, never zero"
    );
    assert!(m.recoveries >= 1, "failover must restart instances");
    assert!(m.repairs >= 4, "the rack rejoins after the outage");
    assert!(m.lost_sessions > 0.0, "a hard crash severs live sessions");
}

/// Rolling maintenance is a *planned* failover: instances move before the
/// host leaves rotation, so nothing is severed and no detection latency is
/// paid — the drained hosts keep beating and rejoin cleanly.
#[test]
fn rolling_maintenance_drains_without_severing_sessions() {
    let spec = ScenarioSpec::lookup("rolling-maintenance").expect("catalog name");
    let m = RunBuilder::new(spec).hours(40).chaos_run().run();
    assert_eq!(m.failures, 0, "drains are not failures");
    assert!(m.recoveries >= 1, "planned failovers relocate instances");
    assert_eq!(m.recovery_time_secs, 0, "planned failover has zero MTTR");
    assert_eq!(m.lost_sessions, 0.0, "no sessions are severed");
    assert_eq!(m.detection_latency_secs, 0, "nothing to detect");
}

/// The flash crowd overloads the LES lane hard enough that the controller
/// must act, and the surge shows up in the overload account.
#[test]
fn flash_crowd_provokes_the_controller() {
    let spec = ScenarioSpec::lookup("flash-crowd").expect("catalog name");
    let m = RunBuilder::new(spec).hours(38).supervised().run();
    assert!(!m.actions.is_empty(), "a 10x surge must trigger remedies");
    assert!(
        m.total_overload() > SimDuration::ZERO,
        "a 10x step cannot be absorbed silently"
    );
}

/// The ideal-conditions terminal refuses event-bearing scenarios instead of
/// silently dropping their kills and drains.
#[test]
#[should_panic(expected = "schedules infrastructure events")]
fn supervised_terminal_rejects_event_scenarios() {
    let spec = ScenarioSpec::lookup("rack-failure").expect("catalog name");
    let _ = RunBuilder::new(spec).hours(2).supervised();
}
