//! Pinned decisions on landscapes large enough for the controller's caches
//! to matter.
//!
//! The paper files under `results/` run on the 19-server pool, where a
//! trigger ranks a handful of hosts and every cache is cold or trivial.
//! These two runs pin whole-day decisions on synthetic landscapes of 600
//! and 200 servers instead: a supervised 12-hour day under churn, and a
//! 4-shard failover day with host failures, owner kills and a fallible,
//! latent executor, where the controller's own writes interleave with
//! replicated actions, recoveries and retries.
//!
//! Each digest is the benchmark's formula: FNV-1a over, per run, the line
//! `actions … alerts … overload … demand {bits:016x}` followed by every
//! action record's `{:?}`. The constants were captured on the code before
//! the host-ranking caches were made revision-independent. Re-pin them
//! only together with a stated behaviour change, as for the paper files.

use autoglobe::landscape::SynthConfig;
use autoglobe::prelude::*;
use autoglobe::simulator::synth_environment;
use std::fmt::Write as _;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The benchmark's digest of one run's outputs.
fn digest(m: &Metrics) -> u64 {
    let mut text = String::new();
    writeln!(
        text,
        "actions {} alerts {} overload {} demand {:016x}",
        m.actions.len(),
        m.alerts,
        m.total_overload().as_secs(),
        m.total_demand.to_bits()
    )
    .unwrap();
    for action in &m.actions {
        writeln!(text, "{action:?}").unwrap();
    }
    fnv1a(text.as_bytes())
}

#[test]
fn supervised_600_server_day_is_pinned() {
    let sim = SimConfig::paper(Scenario::ConstrainedMobility, 1.0)
        .with_seed(7)
        .with_duration(SimDuration::from_hours(12));
    let m = RunBuilder::new(Scenario::ConstrainedMobility)
        .sim(sim)
        .environment(synth_environment(&SynthConfig::sized(600, 7)))
        .supervised()
        .run();
    assert_eq!(
        (m.actions.len(), m.alerts, digest(&m)),
        (598, 8_935, 0xcfb1_a2d9_4ac1_1687),
        "supervised 600-server day"
    );
}

#[test]
fn sharded_200_server_failover_day_is_pinned() {
    let sim = SimConfig::paper(Scenario::ConstrainedMobility, 1.0)
        .with_seed(11)
        .with_duration(SimDuration::from_hours(24))
        .with_execution(ExecutorConfig {
            min_latency: SimDuration::from_secs(30),
            max_latency: SimDuration::from_minutes(3),
            timeout: SimDuration::from_minutes(2),
            failure_probability: 0.1,
            ..ExecutorConfig::reliable()
        });
    let (m, _) = RunBuilder::new(Scenario::ConstrainedMobility)
        .sim(sim)
        .environment(synth_environment(&SynthConfig::sized(200, 11)))
        .shards(4)
        .plane_jobs(1)
        .shard_chaos(ShardChaos {
            server_failure_per_hour: 0.05,
            repair_after: SimDuration::from_hours(1),
            kill_fracs: vec![0.35, 0.65],
        })
        .sharded()
        .run();
    assert_eq!(
        (m.actions.len(), m.alerts, m.recoveries, digest(&m)),
        (465, 7_055, 260, 0x46b1_05ff_f08c_80b5),
        "sharded 200-server failover day"
    );
}
