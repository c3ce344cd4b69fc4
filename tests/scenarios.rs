//! Integration tests over the full simulation environment: the paper's
//! qualitative claims about the three scenarios (Section 5.2) on a reduced
//! horizon, through the supervised run the figures use.

use autoglobe::prelude::*;

fn run(scenario: Scenario, multiplier: f64, hours: u64) -> Metrics {
    RunBuilder::new(scenario)
        .multiplier(multiplier)
        .hours(hours)
        .supervised()
        .run()
}

/// "In the static scenario, several servers become overloaded ... at
/// regular intervals" at +15 % users, while full mobility averts overload
/// almost completely.
#[test]
fn figure_12_vs_14_static_overloads_fm_does_not() {
    let static_m = run(Scenario::Static, 1.15, 30);
    let fm = run(Scenario::FullMobility, 1.15, 30);

    assert!(
        static_m.worst_overload() > SimDuration::from_hours(1),
        "static at 115% shows hours of overload, got {}",
        static_m.worst_overload()
    );
    assert!(
        fm.worst_recurring_overload() < SimDuration::from_minutes(30),
        "FM at 115% averts recurring overload, got {}",
        fm.worst_recurring_overload()
    );
    // FM reacts with actions; static cannot.
    assert!(static_m.actions.is_empty());
    assert!(!fm.actions.is_empty());
}

/// "The situation already improves in the constrained mobility scenario ...
/// the overload situations are on average shorter than in the static
/// scenario, but ... cannot be prevented completely."
#[test]
fn figure_13_cm_shortens_but_does_not_eliminate_overload() {
    let static_m = run(Scenario::Static, 1.15, 48);
    let cm = run(Scenario::ConstrainedMobility, 1.15, 48);

    assert!(
        cm.total_overload() < static_m.total_overload(),
        "CM {} must beat static {}",
        cm.total_overload(),
        static_m.total_overload()
    );
    // CM's only remedies are scale-in/scale-out (Table 5).
    assert!(!cm.actions.is_empty());
    for record in &cm.actions {
        assert!(matches!(
            record.action.kind(),
            ActionKind::ScaleIn | ActionKind::ScaleOut
        ));
    }
}

/// Full mobility uses the richer action vocabulary of Table 6 (movement
/// actions appear, not just scale-in/out).
#[test]
fn fm_uses_movement_actions() {
    let fm = run(Scenario::FullMobility, 1.25, 30);
    let kinds: std::collections::BTreeSet<_> = fm.actions.iter().map(|r| r.action.kind()).collect();
    assert!(
        kinds.contains(&ActionKind::ScaleUp)
            || kinds.contains(&ActionKind::Move)
            || kinds.contains(&ActionKind::ScaleDown),
        "FM should use movement actions, saw {kinds:?}"
    );
}

/// "After the first day, there are normally more instances of every
/// application server running than in the beginning" — under load, the
/// instance count grows and stays grown.
#[test]
fn instance_pool_grows_under_load() {
    let initial = build_environment(Scenario::ConstrainedMobility)
        .landscape
        .num_instances();
    let mut run = RunBuilder::new(Scenario::ConstrainedMobility)
        .hours(30)
        .supervised();
    for _ in 0..30 * 60 {
        run.step();
    }
    let landscape = run.supervisor().landscape();
    assert!(
        landscape.num_instances() > initial,
        "instances after a loaded day: {} vs initially {}",
        landscape.num_instances(),
        initial
    );
}

/// The BW database is distributed across servers only in the FM scenario
/// (Table 6), never in CM (Table 5).
#[test]
fn bw_database_distribution_only_in_fm() {
    let cm = run(Scenario::ConstrainedMobility, 1.3, 30);
    for record in &cm.actions {
        if let Action::ScaleOut { service, .. } = record.action {
            // service ids are stable per build order; resolve via a fresh env.
            let env = build_environment(Scenario::ConstrainedMobility);
            let name = &env.landscape.service(service).unwrap().name;
            assert_ne!(name, "DB-BW", "CM must not distribute the BW database");
        }
    }
}

/// Determinism across the whole stack: same seed → identical metrics.
#[test]
fn end_to_end_determinism() {
    let a = run(Scenario::FullMobility, 1.2, 18);
    let b = run(Scenario::FullMobility, 1.2, 18);
    assert_eq!(a.actions.len(), b.actions.len());
    assert_eq!(a.overload_secs, b.overload_secs);
    assert_eq!(a.alerts, b.alerts);
    assert_eq!(a.total_demand.to_bits(), b.total_demand.to_bits());
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}

/// Different seeds perturb the jittered load but keep the qualitative
/// outcome: static at 100 % stays clean for any seed.
#[test]
fn baseline_robust_across_seeds() {
    for seed in [1u64, 7, 99] {
        let m = RunBuilder::new(Scenario::Static)
            .multiplier(1.0)
            .hours(24)
            .seed(seed)
            .supervised()
            .run();
        assert!(
            m.worst_overload() < SimDuration::from_minutes(30),
            "seed {seed}: static at 100% must stay clean, got {}",
            m.worst_overload()
        );
    }
}
