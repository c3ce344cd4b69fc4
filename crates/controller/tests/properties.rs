//! Seeded property tests for controller invariants: rankings stay bounded,
//! decisions are deterministic, executed actions never violate the
//! declarative constraints, overload remedies do not fade out as the
//! overload worsens (the regression that motivated `NOT cpuLoad IS low`) —
//! and the production host ranking and restart search equal their
//! exhaustive scalar oracles.

use autoglobe_controller::inputs::{ActionInputs, TableLoads};
use autoglobe_controller::{
    ActionSelector, AutoGlobeController, RuleBases, ServerInputs, ServerSelector,
};
use autoglobe_fuzzy::EngineConfig;
use autoglobe_landscape::synth::{generate, SynthConfig};
use autoglobe_landscape::{
    check_action, ActionKind, Landscape, ServerId, ServerSpec, ServiceId, ServiceKind, ServiceSpec,
};
use autoglobe_monitor::{
    FailureEvent, FailureKind, SimDuration, SimTime, Subject, TriggerEvent, TriggerKind,
};
use autoglobe_rng::{check, Rng};

fn random_inputs(rng: &mut Rng) -> ActionInputs {
    let inst = rng.random_range(0.0..=1.0);
    let perf = rng.random_range(0.5..=10.0);
    ActionInputs {
        cpu_load: rng.random_range(0.0..=1.0),
        mem_load: rng.random_range(0.0..=1.0),
        performance_index: perf,
        instance_load: inst,
        service_load: rng.random_range(0.0..=1.0),
        instances_on_server: rng.random_range(0.0..=10.0),
        instances_of_service: rng.random_range(0.0..=10.0),
        instance_demand: inst * perf,
    }
}

#[test]
fn rankings_are_complete_bounded_and_sorted() {
    // Rankings always contain all nine actions with applicabilities in
    // [0, 1], sorted descending — for any inputs and any trigger.
    check::cases(192, |rng| {
        let inputs = random_inputs(rng);
        let trigger = *rng.choice(&TriggerKind::ALL);
        let mut selector =
            ActionSelector::new(RuleBases::paper_defaults(), EngineConfig::default());
        let ranked = selector.rank(trigger, "svc", &inputs).unwrap();
        assert_eq!(ranked.len(), 9);
        for pair in ranked.windows(2) {
            assert!(pair[0].applicability >= pair[1].applicability);
        }
        for r in &ranked {
            assert!((0.0..=1.0).contains(&r.applicability));
        }
    });
}

#[test]
fn saturated_overload_always_has_a_strong_remedy() {
    // Liveness at saturation: a fully saturated overload situation always
    // has a strong remedy (≥ the default applicability threshold by a wide
    // margin), regardless of host power or instance counts.
    check::cases(128, |rng| {
        let perf = rng.random_range(0.5..=10.0);
        let mut selector =
            ActionSelector::new(RuleBases::paper_defaults(), EngineConfig::default());
        let inputs = ActionInputs {
            cpu_load: 1.0,
            mem_load: rng.random_range(0.0..=1.0),
            performance_index: perf,
            instance_load: 1.0,
            service_load: 1.0,
            instances_on_server: rng.random_range(0.0..=10.0),
            instances_of_service: rng.random_range(0.0..=10.0),
            instance_demand: perf,
        };
        for trigger in [
            TriggerKind::ServiceOverloaded,
            TriggerKind::ServerOverloaded,
        ] {
            let top = selector.rank(trigger, "svc", &inputs).unwrap()[0].applicability;
            assert!(top >= 0.8, "{trigger}: top remedy only {top}");
        }
    });
}

/// Regression (was a checked-in proptest shrink): at `cpu_load ≈ 0.389`,
/// `service_load ≈ 0.892`, raising the host's CPU load by `Δ ≈ 0.2206`
/// used to *drop* the best ServiceOverloaded remedy from 0.47 to 0.27 —
/// below the 0.4 execution threshold — because the bridging scale-out rule
/// was gated on `cpuLoad IS medium`, whose grade collapses on [0.5, 0.7]
/// before `high` picks up. The rule now reads `NOT cpuLoad IS low`
/// (identical on [0, 0.5] since μ_low's falling edge mirrors μ_medium's
/// rising edge) so a hotter host can never weaken the remedy.
#[test]
fn overload_remedy_does_not_fade_as_load_rises() {
    let mut selector = ActionSelector::new(RuleBases::paper_defaults(), EngineConfig::default());
    let base = ActionInputs {
        cpu_load: 0.38899001084580637,
        mem_load: 0.0,
        performance_index: 0.5,
        instance_load: 0.0,
        service_load: 0.8921368697754872,
        instances_on_server: 0.0,
        instances_of_service: 4.558842029512322,
        instance_demand: 0.0,
    };
    let delta = 0.2206226088921194;
    let top = |selector: &mut ActionSelector, inputs: &ActionInputs| {
        selector
            .rank(TriggerKind::ServiceOverloaded, "svc", inputs)
            .unwrap()[0]
            .applicability
    };
    let before = top(&mut selector, &base);
    let after = top(
        &mut selector,
        &ActionInputs {
            cpu_load: base.cpu_load + delta,
            ..base
        },
    );
    assert!(
        after + 1e-9 >= before,
        "raising cpu_load by {delta} dropped the top remedy {before} → {after}"
    );
    // Both sides must stay actionable (≥ the 0.4 default threshold).
    assert!(before >= 0.4, "remedy below execution threshold: {before}");
    assert!(after >= 0.4, "remedy below execution threshold: {after}");
}

#[test]
fn service_overload_remedy_is_monotone_in_cpu_load() {
    // Generalization of the regression above: while a service stays
    // overloaded, sweeping the host's CPU load upward from any starting
    // point must never weaken the best remedy.
    check::cases(96, |rng| {
        let mut selector =
            ActionSelector::new(RuleBases::paper_defaults(), EngineConfig::default());
        let service_load = rng.random_range(0.75..=1.0);
        let of_service = rng.random_range(0.0..=10.0);
        let perf = rng.random_range(0.5..=10.0);
        let mut last = 0.0f64;
        for step in 0..=20 {
            let cpu = 0.4 + 0.6 * step as f64 / 20.0;
            let inputs = ActionInputs {
                cpu_load: cpu,
                mem_load: 0.0,
                performance_index: perf,
                instance_load: 0.0,
                service_load,
                instances_on_server: 0.0,
                instances_of_service: of_service,
                instance_demand: 0.0,
            };
            let top = selector
                .rank(TriggerKind::ServiceOverloaded, "svc", &inputs)
                .unwrap()[0]
                .applicability;
            assert!(
                top + 1e-9 >= last,
                "remedy fades as cpu rises: {last} → {top} at cpuLoad {cpu} \
                 (serviceLoad {service_load}, instancesOfService {of_service})"
            );
            last = top;
        }
    });
}

#[test]
fn rank_matches_the_per_call_sampling_reference() {
    // `ActionSelector::rank` no longer samples membership functions per
    // invocation (term grids are sampled once, when an engine compiles its
    // rule base, and ramp outputs defuzzify in closed form). Its results
    // must still match the legacy pipeline — fuzzify, `infer` with
    // per-call `FuzzySet::from_membership` sampling, leftmost-max
    // defuzzification — to within one grid step, for any inputs and any
    // trigger.
    use autoglobe_controller::variables;
    use autoglobe_fuzzy::{infer, Defuzzifier, InferenceConfig, LinguisticVariable};
    use std::collections::HashMap;

    let step = 1.0 / 1000.0; // universe [0, 1] at DEFAULT_RESOLUTION = 1001
    let in_vars = variables::action_selection_inputs();
    let out_vars: HashMap<String, LinguisticVariable> = variables::action_selection_outputs()
        .into_iter()
        .map(|v| (v.name().to_string(), v))
        .collect();
    check::cases(64, |rng| {
        let inputs = random_inputs(rng);
        let trigger = *rng.choice(&TriggerKind::ALL);
        let mut selector =
            ActionSelector::new(RuleBases::paper_defaults(), EngineConfig::default());
        let ranked = selector.rank(trigger, "svc", &inputs).unwrap();

        let rules = RuleBases::paper_defaults().for_trigger(trigger, "svc");
        let mut grades = HashMap::new();
        for (name, value) in inputs.measurements() {
            let var = in_vars.iter().find(|v| v.name() == name).unwrap();
            for (term, grade) in var.fuzzify_named(value) {
                grades.insert((name.to_string(), term.to_string()), grade);
            }
        }
        let results = infer(&rules, &grades, &out_vars, InferenceConfig::default()).unwrap();
        for r in &ranked {
            let name = r.kind.variable_name();
            let reference = match results.get(name) {
                Some(res) => Defuzzifier::LeftmostMax.defuzzify(&res.set),
                None => 0.0,
            };
            assert!(
                (r.applicability - reference).abs() <= step + 1e-12,
                "{trigger}/{name}: rank {} vs sampled reference {reference}",
                r.applicability
            );
        }
    });
}

#[test]
fn executed_actions_always_satisfied_constraints() {
    // Whatever the controller executes passes the constraint checker in the
    // pre-action state — for random landscapes and loads.
    check::cases(128, |rng| {
        let server_loads: Vec<f64> = (0..4).map(|_| rng.random_range(0.0..=1.0)).collect();
        let instance_load = rng.random_range(0.5..=1.0);
        let allowed_mask = rng.random_int(0..=511) as u16;
        let mut landscape = Landscape::new();
        let mut servers = Vec::new();
        for spec in [
            ServerSpec::fsc_bx300("a"),
            ServerSpec::fsc_bx300("b"),
            ServerSpec::fsc_bx600("c"),
            ServerSpec::hp_bl40p("d"),
        ] {
            servers.push(landscape.add_server(spec).unwrap());
        }
        let allowed: Vec<ActionKind> = ActionKind::ALL
            .into_iter()
            .enumerate()
            .filter(|(i, _)| allowed_mask & (1 << i) != 0)
            .map(|(_, k)| k)
            .collect();
        let service = landscape
            .add_service(
                ServiceSpec::new("svc", ServiceKind::ApplicationServer)
                    .with_instances(1, Some(3))
                    .with_allowed_actions(allowed),
            )
            .unwrap();
        let instance = landscape.start_instance(service, servers[0]).unwrap();

        let mut loads = TableLoads::new();
        for (server, &cpu) in servers.iter().zip(&server_loads) {
            loads.set(Subject::Server(*server), cpu, cpu / 2.0);
        }
        loads.set(Subject::Instance(instance), instance_load, 0.0);
        loads.set(Subject::Service(service), instance_load, 0.0);

        let trigger = TriggerEvent {
            kind: TriggerKind::ServiceOverloaded,
            subject: Subject::Service(service),
            time: SimTime::from_minutes(15),
            average_cpu: instance_load,
            average_mem: 0.3,
        };
        // Check on a clone in the pre-action state.
        let pristine = landscape.clone();
        let mut controller = AutoGlobeController::new();
        let outcome = controller.handle_trigger(&trigger, &mut landscape, &loads, trigger.time);
        for record in &outcome.executed {
            assert!(
                check_action(&pristine, &record.action).is_ok(),
                "executed action {} violates constraints",
                record.action
            );
            // And only allowed kinds execute.
            let spec = pristine.service(service).unwrap();
            assert!(spec.allows(record.action.kind()));
        }
    });
}

#[test]
fn decisions_are_deterministic() {
    // Controller decisions are deterministic: identical state produces
    // identical actions.
    check::cases(64, |rng| {
        let cpu = rng.random_range(0.7..=1.0);
        let inst = rng.random_range(0.7..=1.0);
        let build = || {
            let mut landscape = Landscape::new();
            let a = landscape.add_server(ServerSpec::fsc_bx300("a")).unwrap();
            let b = landscape.add_server(ServerSpec::hp_bl40p("b")).unwrap();
            let svc = landscape
                .add_service(ServiceSpec::new("svc", ServiceKind::ApplicationServer))
                .unwrap();
            let i = landscape.start_instance(svc, a).unwrap();
            let mut loads = TableLoads::new();
            loads.set(Subject::Server(a), cpu, 0.4);
            loads.set(Subject::Server(b), 0.1, 0.1);
            loads.set(Subject::Instance(i), inst, 0.0);
            loads.set(Subject::Service(svc), inst, 0.0);
            let trigger = TriggerEvent {
                kind: TriggerKind::ServerOverloaded,
                subject: Subject::Server(a),
                time: SimTime::from_minutes(20),
                average_cpu: cpu,
                average_mem: 0.4,
            };
            let mut controller = AutoGlobeController::new();
            let outcome = controller.handle_trigger(&trigger, &mut landscape, &loads, trigger.time);
            outcome
                .executed
                .iter()
                .map(|r| r.action.to_string())
                .collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    });
}

#[test]
fn batched_rankings_match_the_exhaustive_oracle_on_synth_landscapes() {
    // The production ranking (host index, batched engine cycle, score
    // cache) must return exactly what the exhaustive scalar scan returns —
    // same hosts, same order, same score bits — for every action kind:
    // with the cache cold (flushed before the ranking), and warm (a
    // controller that never flushes) as a tick would see it — a repeat
    // served by the verdicts, a third of the servers' loads moved, and
    // real allocation changes between warm rankings: an instance started
    // on the best ranked host, stopped again, and the service's first
    // instance moved there. Verdicts outlive those changes, so the
    // rankings after them must be exact and still hit. Loads sit on a 0.05
    // grid so servers of one tier share input patterns and score ties.
    check::cases(4, |rng| {
        let servers = rng.random_int(20..=140) as usize;
        let mut landscape = generate(&SynthConfig::sized(servers, rng.next_u64())).landscape;
        let mut grid = || rng.random_int(0..=20) as f64 / 20.0;
        let mut loads = TableLoads::new();
        for server in landscape.server_ids() {
            loads.set(Subject::Server(server), grid(), grid());
        }
        for service in landscape.service_ids() {
            loads.set(Subject::Service(service), grid(), grid());
            for instance in landscape.instances_of(service) {
                loads.set(Subject::Instance(instance), grid(), 0.0);
            }
        }
        let mut moved = loads.clone();
        for server in landscape.server_ids().step_by(3) {
            moved.set(Subject::Server(server), grid(), grid());
        }
        let now = SimTime::from_hours(9);
        let mut cold = AutoGlobeController::new();
        let mut warm = AutoGlobeController::new();
        let mut hits_after_changes = 0;
        let services: Vec<_> = landscape.service_ids().collect();
        for kind in ActionKind::ALL {
            for &service in &services {
                let instance = kind
                    .needs_target()
                    .then(|| landscape.instances_of(service).into_iter().next())
                    .flatten();
                let rank = |c: &mut AutoGlobeController, l: &Landscape, loads: &TableLoads| {
                    c.rank_hosts_indexed(kind, service, instance, l, loads, now)
                };
                let oracle = |c: &mut AutoGlobeController, l: &Landscape, loads: &TableLoads| {
                    c.rank_hosts_exhaustive(kind, service, instance, l, loads, now)
                };
                let expected = oracle(&mut cold, &landscape, &loads);
                let expected_moved = oracle(&mut cold, &landscape, &moved);
                cold.clear_score_cache();
                let mut variants = vec![
                    (
                        "cold",
                        rank(&mut cold, &landscape, &loads),
                        expected.clone(),
                    ),
                    (
                        "warm",
                        rank(&mut warm, &landscape, &loads),
                        expected.clone(),
                    ),
                    (
                        "warm repeat",
                        rank(&mut warm, &landscape, &loads),
                        expected.clone(),
                    ),
                    (
                        "warm, loads moved",
                        rank(&mut warm, &landscape, &moved),
                        expected_moved,
                    ),
                ];
                if let Some(&(host, _)) = expected.first() {
                    let hits = warm.score_cache_stats().incremental_hits;
                    let started = landscape.start_instance(service, host).unwrap();
                    variants.push((
                        "warm after a start",
                        rank(&mut warm, &landscape, &loads),
                        oracle(&mut cold, &landscape, &loads),
                    ));
                    landscape.stop_instance(started).unwrap();
                    variants.push((
                        "warm after a stop",
                        rank(&mut warm, &landscape, &loads),
                        oracle(&mut cold, &landscape, &loads),
                    ));
                    let first = landscape.instances_of(service)[0];
                    landscape.move_instance(first, host).unwrap();
                    variants.push((
                        "warm after a move",
                        rank(&mut warm, &landscape, &loads),
                        oracle(&mut cold, &landscape, &loads),
                    ));
                    hits_after_changes += warm.score_cache_stats().incremental_hits - hits;
                }
                for (label, ranked, expected) in &variants {
                    assert_eq!(
                        bits(ranked),
                        bits(expected),
                        "{label} ranking diverged for {kind:?} on {service} ({servers} servers)"
                    );
                }
            }
        }
        assert!(
            hits_after_changes > 0,
            "verdicts must answer the rankings after an allocation change"
        );
        let stats = warm.score_cache_stats();
        assert_eq!((stats.pattern_hits, stats.clears), (0, 0), "{stats:?}");
    });
}

/// The restart search as the exhaustive scan: per server, the scanning
/// placement check, a scanning input gather and one scalar Start score,
/// halved on a protected host; the first strictly better score wins, else
/// the first feasible server.
fn restart_oracle(
    controller: &AutoGlobeController,
    selector: &mut ServerSelector,
    service: ServiceId,
    landscape: &Landscape,
    loads: &TableLoads,
    now: SimTime,
) -> Option<ServerId> {
    let name = landscape.service(service).ok()?.name.clone();
    let mut best: Option<(ServerId, f64)> = None;
    let mut fallback = None;
    for server in landscape.server_ids() {
        if !landscape.can_host(service, server) {
            continue;
        }
        fallback = fallback.or(Some(server));
        let penalty = if controller
            .protection()
            .is_protected(Subject::Server(server), now)
        {
            0.5
        } else {
            1.0
        };
        let Some(inputs) = ServerInputs::gather(landscape, loads, server) else {
            continue;
        };
        let Ok(score) = selector.score(ActionKind::Start, &name, &inputs) else {
            continue;
        };
        let score = score * penalty;
        if best.is_none_or(|(_, s)| score > s) {
            best = Some((server, score));
        }
    }
    best.map(|(server, _)| server).or(fallback)
}

#[test]
fn restart_search_matches_the_exhaustive_oracle_on_synth_landscapes() {
    // The indexed, batched restart search must pick exactly the host the
    // exhaustive scalar scan picks, for every service — with unavailable
    // and protected servers in the pool, loads on a 0.05 grid so tiers tie
    // (ties go to the lowest id), and in some cases one server's CPU lane
    // NaN. Then a whole server failure must restart, and lose, exactly
    // what a replay of the scan on a copy of the landscape does.
    check::cases(4, |rng| {
        let servers = rng.random_int(20..=140) as usize;
        let mut landscape = generate(&SynthConfig::sized(servers, rng.next_u64())).landscape;
        let ids: Vec<ServerId> = landscape.server_ids().collect();
        let services: Vec<ServiceId> = landscape.service_ids().collect();
        let now = SimTime::from_hours(9);
        for _ in 0..3 {
            landscape.set_available(*rng.choice(&ids), false).unwrap();
        }
        let poisoned = rng.random_bool(0.75).then(|| *rng.choice(&ids));
        let mut loads = TableLoads::new();
        for &server in &ids {
            let mut grid = || rng.random_int(0..=20) as f64 / 20.0;
            let cpu = if Some(server) == poisoned {
                f64::NAN
            } else {
                grid()
            };
            loads.set(Subject::Server(server), cpu, grid());
        }
        // Protect one random server, and the hosts an unprotected search
        // picks for two random services, so the half-score rule bites.
        let mut controller = AutoGlobeController::new();
        let mut protected = vec![*rng.choice(&ids)];
        for _ in 0..2 {
            let service = *rng.choice(&services);
            protected.extend(controller.best_restart_host(service, &landscape, &loads, now));
        }
        for server in protected {
            controller.protect(Subject::Server(server), now, SimDuration::from_minutes(30));
        }
        let mut selector =
            ServerSelector::new(RuleBases::paper_defaults(), EngineConfig::default());
        for &service in &services {
            assert_eq!(
                controller.best_restart_host(service, &landscape, &loads, now),
                restart_oracle(&controller, &mut selector, service, &landscape, &loads, now),
                "restart host for {service} ({servers} servers)"
            );
        }

        // The failure runs on a view where the powerful tiers are busy and
        // every memory load is medium (under `loads` they win count-blind
        // at full score): a host's score then falls with its instance
        // count, each restart moves the next one's best host, and a
        // host-index memo left stale between two restarts of one failure
        // picks differently.
        let mut crowded = TableLoads::new();
        for &server in &ids {
            let powerful = landscape.server(server).unwrap().performance_index >= 7.0;
            let cpu = if powerful {
                1.0
            } else {
                rng.random_int(0..=7) as f64 / 20.0
            };
            crowded.set(Subject::Server(server), cpu, 0.5);
        }
        // Fail a random server running an instance no server can take,
        // topped up to four instances as far as placement allows.
        let failed = *rng.choice(&ids);
        landscape.set_available(failed, true).unwrap();
        let unplaceable = landscape
            .add_service(
                ServiceSpec::new("unplaceable", ServiceKind::Generic)
                    .with_min_performance_index(100.0),
            )
            .unwrap();
        landscape.start_instance(unplaceable, failed).unwrap();
        while landscape.instance_count_on(failed) < 4 {
            let fits: Vec<ServiceId> = services
                .iter()
                .copied()
                .filter(|&s| landscape.can_host(s, failed))
                .collect();
            let Some(&service) = (!fits.is_empty()).then(|| rng.choice(&fits)) else {
                break;
            };
            landscape.start_instance(service, failed).unwrap();
        }
        assert!(landscape.instance_count_on(failed) >= 2, "{failed}");
        let mut replay = landscape.clone();
        replay.set_available(failed, false).unwrap();
        let (mut recovered, mut lost) = (Vec::new(), Vec::new());
        for crashed in replay.instances_on(failed) {
            let instance = replay.stop_instance(crashed).unwrap();
            let service = instance.service;
            let host = if replay.can_host(service, instance.server) {
                Some(instance.server)
            } else {
                restart_oracle(&controller, &mut selector, service, &replay, &crowded, now)
            };
            match host {
                Some(host) => {
                    let new = replay.start_instance(service, host).unwrap();
                    recovered.push((crashed, new, host));
                }
                None => lost.push((crashed, service)),
            }
        }
        let failure = FailureEvent {
            kind: FailureKind::ServerFailed(failed),
            time: now,
        };
        let outcome = controller.handle_failure(&failure, &mut landscape, &crowded, now);
        assert_eq!(
            outcome.recovered, recovered,
            "recovered after failing {failed}"
        );
        assert_eq!(outcome.lost, lost, "lost after failing {failed}");
    });
}

/// A ranking with its scores as bit patterns, for exact comparison.
fn bits(ranked: &[(ServerId, f64)]) -> Vec<(ServerId, u64)> {
    ranked
        .iter()
        .map(|&(s, score)| (s, score.to_bits()))
        .collect()
}
