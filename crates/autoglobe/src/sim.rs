//! The paper's simulated SAP day through the figure loop,
//! [`RunBuilder::supervised`]: the behaviour the figures and Table 7 rest
//! on, checked on reduced horizons.

mod tests {
    use crate::builder::RunBuilder;
    use autoglobe_landscape::ActionKind;
    use autoglobe_monitor::SimTime;
    use autoglobe_simulator::{
        build_environment, find_max_users, CapacityCriterion, FailureInjection, HeartbeatDetection,
        Metrics, Scenario, TickLoads,
    };

    /// A supervised run of the paper setup at `multiplier` × the Table 4 users.
    fn quick_sim(scenario: Scenario, multiplier: f64, hours: u64) -> Metrics {
        RunBuilder::new(scenario)
            .multiplier(multiplier)
            .hours(hours)
            .supervised()
            .run()
    }

    /// Step a supervised run through `hours`, keeping every step's loads.
    fn stepped(builder: RunBuilder, hours: u64) -> (Metrics, Vec<(SimTime, TickLoads)>) {
        let mut run = builder.hours(hours).supervised();
        let mut loads = Vec::new();
        for _ in 0..hours * 60 {
            run.step();
            loads.push((run.now(), run.last_loads().clone()));
        }
        (run.finish(), loads)
    }

    /// Every server's raw load and the landscape average of each step, as bits.
    fn load_bits(loads: &[(SimTime, TickLoads)]) -> Vec<u64> {
        loads
            .iter()
            .flat_map(|(_, l)| {
                l.server_entries()
                    .map(|(_, cpu, _)| cpu.to_bits())
                    .chain([l.average_cpu.to_bits()])
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    #[test]
    #[should_panic(expected = "drive failure injection and heartbeat detection with .chaos_run()")]
    fn chaos_knobs_are_refused() {
        let _ = RunBuilder::new(Scenario::FullMobility)
            .chaos(FailureInjection::default(), HeartbeatDetection::default())
            .supervised();
    }

    #[test]
    #[should_panic(expected = "drive failure injection and heartbeat detection with .chaos_run()")]
    fn heartbeat_detection_alone_is_refused() {
        let _ = RunBuilder::new(Scenario::FullMobility)
            .heartbeats(HeartbeatDetection::default())
            .supervised();
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
                matches!(kind, ActionKind::ScaleIn | ActionKind::ScaleOut),
                "CM only allows scale-in/out, saw {kind}"
            );
        }
    }

    #[test]
    fn simulation_is_deterministic() {
        let run = || stepped(RunBuilder::new(Scenario::FullMobility), 12);
        let (a, loads_a) = run();
        let (b, loads_b) = run();
        assert_eq!(a.actions, b.actions);
        assert_eq!(load_bits(&loads_a), load_bits(&loads_b));
        assert_eq!(a.overload_secs, b.overload_secs);
    }

    #[test]
    fn inner_jobs_are_bit_identical() {
        // The intra-run parallel phase must not change a single bit of any
        // output, mirroring the --jobs guarantee across runs.
        let run = |inner_jobs: usize| {
            stepped(
                RunBuilder::new(Scenario::FullMobility)
                    .seed(7)
                    .inner_jobs(inner_jobs),
                8,
            )
        };
        let (sequential, loads_1) = run(1);
        let (parallel, loads_4) = run(4);
        assert_eq!(format!("{sequential:?}"), format!("{parallel:?}"));
        assert_eq!(load_bits(&loads_1), load_bits(&loads_4));
        assert!(!sequential.actions.is_empty(), "controller must have acted");
    }

    #[test]
    fn load_curves_follow_the_daily_pattern() {
        // An FI blade carries an interactive service: clearly busier at 10:00
        // than at 04:00 (the BW batch runs at night, so not the average).
        let (_, loads) = stepped(RunBuilder::new(Scenario::Static).multiplier(1.0), 24);
        let env = build_environment(Scenario::Static);
        let blade3 = env.landscape.server_by_name("Blade3").unwrap();
        let at = |h: u64| {
            let (_, l) = loads
                .iter()
                .find(|(t, _)| *t == SimTime::from_hours(h))
                .unwrap();
            l.server_cpu_raw(blade3)
        };
        assert!(
            at(10) > at(4) + 0.2,
            "FI blade at 10:00 ({}) vs 04:00 ({})",
            at(10),
            at(4)
        );
    }

    #[test]
    fn bw_database_server_is_nocturnal() {
        let (_, loads) = stepped(RunBuilder::new(Scenario::Static).multiplier(1.0), 24);
        let env = build_environment(Scenario::Static);
        let db3 = env.landscape.server_by_name("DBServer3").unwrap();
        let mean_over = |hours: std::ops::Range<f64>| {
            let values: Vec<f64> = loads
                .iter()
                .filter(|(t, _)| hours.contains(&t.hour_of_day()))
                .map(|(_, l)| l.server_cpu_raw(db3))
                .collect();
            values.iter().sum::<f64>() / values.len().max(1) as f64
        };
        let (night, day) = (mean_over(0.0..5.0), mean_over(10.0..16.0));
        assert!(
            night > day + 0.2,
            "BW DB night load {night} must exceed day load {day}"
        );
    }

    /// The headline result (a reduced-horizon version of Table 7): the static
    /// scenario tolerates fewer users than constrained mobility, which
    /// tolerates fewer than full mobility.
    #[test]
    fn capacity_ordering_matches_table_7() {
        let criterion = CapacityCriterion::default();
        // Two simulated days: day 1 reflects steady state after the
        // controller's day-0 adaptation.
        let sweep = |scenario: Scenario| {
            find_max_users(scenario, criterion, 0.05, |multiplier| {
                RunBuilder::new(scenario)
                    .multiplier(multiplier)
                    .hours(48)
                    .seed(42)
                    .supervised()
                    .run()
            })
        };
        let static_result = sweep(Scenario::Static);
        let cm = sweep(Scenario::ConstrainedMobility);
        let fm = sweep(Scenario::FullMobility);

        assert!(
            static_result.max_multiplier <= cm.max_multiplier,
            "static {} must not beat CM {}",
            static_result.max_users_percent(),
            cm.max_users_percent()
        );
        assert!(
            cm.max_multiplier <= fm.max_multiplier,
            "CM {} must not beat FM {}",
            cm.max_users_percent(),
            fm.max_users_percent()
        );
        assert!(
            fm.max_multiplier > static_result.max_multiplier,
            "FM must strictly beat static"
        );
        // Static handles its design point (100 %).
        assert!(static_result.max_multiplier >= 1.0);
    }
}
