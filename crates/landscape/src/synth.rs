//! Synthetic landscape generation beyond the paper's 19 servers.
//!
//! The paper's evaluation landscape has 19 servers and ~10 services
//! (Figure 11) — too small to expose superlinear behaviour in trigger
//! decisions or fan-out overheads. [`generate`] builds structurally similar
//! landscapes at any size: tiered server pools, per-subsystem service
//! stacks (database + central instance + application servers) with the
//! co-location and mobility constraints of Tables 5/6, an initial
//! allocation that satisfies those constraints, and aggregate user counts
//! that reach into the millions at the ~2,000-server rung.
//!
//! Generation is deterministic under [`SynthConfig::seed`]: the same
//! configuration always yields a byte-identical landscape and workload
//! list, so scale benchmarks and their CI smokes are reproducible.

use crate::action::ActionKind;
use crate::allocation::Landscape;
use crate::ids::{ServerId, ServiceId};
use crate::server::ServerSpec;
use crate::service::{ServiceKind, ServiceSpec};
use autoglobe_rng::Rng;

/// Parameters of one synthetic landscape.
#[derive(Debug, Clone)]
pub struct SynthConfig {
    /// Total number of servers in the pool.
    pub servers: usize,
    /// RNG seed — same seed, same landscape, byte for byte.
    pub seed: u64,
    /// Fraction of the application-tier capacity the aggregate user base
    /// demands at the daily peak (the paper's pool runs 60–80 % busy
    /// during main activity; the headroom is what the controller manages).
    pub peak_utilization: f64,
    /// CPU demand per interactive user on a performance-index-1 host
    /// (the paper calibrates ~150 users per index unit, ≈ 0.005).
    pub load_per_user: f64,
    /// Actions the application services allow (constrained-mobility style
    /// scale-in/scale-out by default; databases and central instances are
    /// always immobile, per Table 5).
    pub app_actions: Vec<ActionKind>,
}

impl SynthConfig {
    /// A configuration for `servers` hosts with the default service mix,
    /// constraint tables and calibration.
    pub fn sized(servers: usize, seed: u64) -> Self {
        SynthConfig {
            servers,
            seed,
            peak_utilization: 0.65,
            load_per_user: 0.004,
            app_actions: vec![ActionKind::ScaleOut, ActionKind::ScaleIn],
        }
    }
}

/// The workload coupling of one generated application service — enough for
/// a simulator to build its daily curves without re-deriving the topology.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthWorkload {
    /// Application service name.
    pub service: String,
    /// The subsystem's central-instance service.
    pub ci_service: String,
    /// The subsystem's database service.
    pub db_service: String,
    /// User base at the 100 % level.
    pub users: f64,
    /// True for the subsystem's batch-style service (night window).
    pub night_batch: bool,
    /// CPU demand per active user on the central instance.
    pub ci_load_per_user: f64,
    /// CPU demand per active user on the database.
    pub db_load_per_user: f64,
}

/// A generated landscape plus its workload couplings.
#[derive(Debug, Clone)]
pub struct SynthLandscape {
    /// Servers, services and the initial allocation.
    pub landscape: Landscape,
    /// One entry per application service.
    pub workloads: Vec<SynthWorkload>,
}

impl SynthLandscape {
    /// Aggregate user base over all application services.
    pub fn total_users(&self) -> f64 {
        self.workloads.iter().map(|w| w.users).sum()
    }

    /// Verify the initial allocation against the landscape's own declared
    /// constraints: exclusivity (both directions), minimum performance
    /// index and per-server memory. Returns the first violation found.
    pub fn validate_allocation(&self) -> Result<(), String> {
        let l = &self.landscape;
        for server in l.server_ids() {
            let srv = l.server(server).expect("known server");
            let residents = l.instances_on(server);
            let mut services: Vec<ServiceId> = residents
                .iter()
                .map(|i| l.instance(*i).expect("live instance").service)
                .collect();
            services.sort_unstable();
            services.dedup();
            let mut mem = 0u64;
            for &svc in &services {
                let spec = l.service(svc).expect("known service");
                if spec.exclusive && services.len() > 1 {
                    return Err(format!(
                        "exclusive service {} shares {} with {} other service(s)",
                        spec.name,
                        srv.name,
                        services.len() - 1
                    ));
                }
                if let Some(min_idx) = spec.min_performance_index {
                    if srv.performance_index < min_idx {
                        return Err(format!(
                            "{} (min index {min_idx}) placed on {} (index {})",
                            spec.name, srv.name, srv.performance_index
                        ));
                    }
                }
            }
            for &inst in &residents {
                let svc = l.instance(inst).expect("live instance").service;
                mem += l
                    .service(svc)
                    .expect("known service")
                    .memory_per_instance_mb;
            }
            if mem > srv.memory_mb {
                return Err(format!(
                    "{} memory over-committed: {mem} MB of {} MB",
                    srv.name, srv.memory_mb
                ));
            }
        }
        Ok(())
    }
}

/// The synthetic hardware tiers. The paper's pool spans performance
/// indices 1–9 (BX300/BX600/BL40p); a landscape two decades later spans a
/// wider range, with a dedicated database class that only database
/// services (minimum performance index 10) may claim.
const TIERS: [(&str, f64, u32, u32, u32, u64); 4] = [
    // (category, perf index, cpus, clock MHz, cache KB, memory MB)
    ("Edge", 2.0, 2, 2400, 1024, 8_192),
    ("Core", 4.0, 4, 2600, 2048, 16_384),
    ("Accel", 8.0, 8, 2800, 4096, 32_768),
    ("DbClass", 16.0, 16, 2600, 8192, 65_536),
];

/// Databases only accept hosts at or above this performance index — with
/// the tier table above, exactly the `DbClass` machines.
const DB_MIN_PERFORMANCE_INDEX: f64 = 10.0;

/// Build the tiered server pool: one `DbClass` machine per 16 servers
/// (at least one), one `Accel` per 8, the rest split between `Core` and
/// `Edge`. Returns the per-tier id lists.
fn build_servers(landscape: &mut Landscape, total: usize) -> [Vec<ServerId>; 4] {
    let db = (total / 16).max(1).min(total);
    let accel = (total / 8).min(total - db);
    let core = (total - db - accel) / 2;
    let edge = total - db - accel - core;
    let mut ids: [Vec<ServerId>; 4] = Default::default();
    for (tier, count) in [(0, edge), (1, core), (2, accel), (3, db)] {
        let (category, perf, cpus, clock, cache, memory) = TIERS[tier];
        for n in 1..=count {
            let spec = ServerSpec::new(format!("{category}{n}"), perf)
                .with_category(category)
                .with_cpus(cpus, clock, cache)
                .with_memory(memory, memory * 2)
                .with_temp_space(memory * 4);
            ids[tier].push(landscape.add_server(spec).expect("unique server name"));
        }
    }
    ids
}

/// Generate a deterministic synthetic landscape for `config`.
///
/// Topology: one subsystem per `DbClass` server. Each subsystem gets a
/// database (exclusive on every second subsystem, minimum performance
/// index [`DB_MIN_PERFORMANCE_INDEX`]), a central instance and two
/// application services — one interactive, one night-batch. Non-database
/// servers are dealt round-robin to the subsystems; roughly 60 % of each
/// subsystem's share receives an initial application instance (the rest is
/// the idle pool the controller scales into), with the RNG choosing which.
/// User counts are sized so the subsystem's peak demand is
/// `peak_utilization` of its application-tier capacity.
pub fn generate(config: &SynthConfig) -> SynthLandscape {
    assert!(config.servers >= 4, "need at least 4 servers");
    let mut rng = Rng::seed_from_u64(config.seed ^ 0x5EED_5CA1E);
    let mut landscape = Landscape::new();
    let [edge, core, accel, db_hosts] = build_servers(&mut landscape, config.servers);

    let subsystems = db_hosts.len();
    // Deal the application-tier servers (everything but DbClass)
    // round-robin to the subsystems, interleaving tiers so every
    // subsystem sees a similar mix.
    let mut app_hosts: Vec<Vec<ServerId>> = vec![Vec::new(); subsystems];
    for (k, server) in edge.iter().chain(&core).chain(&accel).copied().enumerate() {
        app_hosts[k % subsystems].push(server);
    }

    let mut workloads = Vec::new();
    for (j, db_host) in db_hosts.iter().enumerate() {
        let sub = format!("Sub{}", j + 1);
        let hosts = &mut app_hosts[j];
        hosts.sort_unstable();
        let capacity: f64 = hosts
            .iter()
            .map(|&s| landscape.server(s).expect("known server").performance_index)
            .sum();

        // Database: the subsystem's anchor, pinned to its DbClass machine.
        let db_svc = landscape
            .add_service(
                ServiceSpec::new(format!("DB-{sub}"), ServiceKind::Database)
                    .with_subsystem(&sub)
                    .with_exclusive(j % 2 == 0)
                    .with_min_performance_index(DB_MIN_PERFORMANCE_INDEX)
                    .with_instances(1, Some(1))
                    .immobile()
                    .with_load_model(0.05, 0.0)
                    .with_memory(16_384),
            )
            .expect("unique service name");
        landscape
            .start_instance(db_svc, *db_host)
            .expect("database placement");

        // Central instance: one immobile lock manager per subsystem.
        let ci_svc = landscape
            .add_service(
                ServiceSpec::new(format!("CI-{sub}"), ServiceKind::CentralInstance)
                    .with_subsystem(&sub)
                    .with_instances(1, Some(1))
                    .immobile()
                    .with_load_model(0.05, 0.0)
                    .with_memory(1_024),
            )
            .expect("unique service name");

        // Two application services per subsystem: interactive + batch.
        let max_instances = hosts.len().max(1) as u32;
        let mut app = |name: String| -> ServiceId {
            landscape
                .add_service(
                    ServiceSpec::new(name, ServiceKind::ApplicationServer)
                        .with_subsystem(&sub)
                        .with_instances(1, Some(max_instances))
                        .with_allowed_actions(config.app_actions.iter().copied())
                        .with_load_model(0.05, config.load_per_user)
                        .with_memory(512),
                )
                .expect("unique service name")
        };
        let online = app(format!("OLTP-{sub}"));
        let batch = app(format!("Batch-{sub}"));

        // Initial allocation: CI on the first eligible host, then
        // application instances on ~60 % of the subsystem's share, the
        // RNG picking which hosts and alternating the two services.
        let ci_host = hosts
            .iter()
            .copied()
            .find(|&s| landscape.can_host(ci_svc, s))
            .unwrap_or(*db_host);
        landscape
            .start_instance(ci_svc, ci_host)
            .expect("central-instance placement");

        let seats = (hosts.len() * 3).div_ceil(5).max(2.min(hosts.len()));
        let mut pool = hosts.clone();
        for seat in 0..seats {
            let service = if seat % 2 == 0 { online } else { batch };
            // Draw hosts until one passes the constraint check (memory on
            // the CI host may already be tight on tiny configurations).
            let mut placed = false;
            while !pool.is_empty() {
                let pick = rng.random_below(pool.len());
                let host = pool.swap_remove(pick);
                if landscape.can_host(service, host) {
                    landscape
                        .start_instance(service, host)
                        .expect("application placement");
                    placed = true;
                    break;
                }
            }
            if !placed {
                break;
            }
        }

        // Size the user base to the subsystem's application capacity; the
        // interactive service carries 60 % of it, the batch service 40 %.
        let users = config.peak_utilization * capacity / config.load_per_user;
        for (service, share, night_batch) in [(online, 0.6, false), (batch, 0.4, true)] {
            let name = landscape
                .service(service)
                .expect("known service")
                .name
                .clone();
            workloads.push(SynthWorkload {
                service: name,
                ci_service: format!("CI-{sub}"),
                db_service: format!("DB-{sub}"),
                users: users * share,
                night_batch,
                ci_load_per_user: config.load_per_user * 0.06,
                db_load_per_user: config.load_per_user * 0.43,
            });
        }
    }

    let synth = SynthLandscape {
        landscape,
        workloads,
    };
    debug_assert_eq!(synth.validate_allocation(), Ok(()));
    synth
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ladder sizes the scale benchmark walks (plus the paper's 19).
    const RUNGS: [usize; 4] = [50, 200, 1000, 2000];

    #[test]
    fn same_seed_yields_byte_identical_landscapes_at_every_rung() {
        for servers in RUNGS {
            let a = generate(&SynthConfig::sized(servers, 42));
            let b = generate(&SynthConfig::sized(servers, 42));
            assert_eq!(
                format!("{a:?}"),
                format!("{b:?}"),
                "{servers}-server landscape not reproducible"
            );
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&SynthConfig::sized(200, 1));
        let b = generate(&SynthConfig::sized(200, 2));
        assert_ne!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn generated_allocations_satisfy_their_own_constraints() {
        for servers in RUNGS {
            let synth = generate(&SynthConfig::sized(servers, 42));
            assert_eq!(
                synth.validate_allocation(),
                Ok(()),
                "{servers}-server allocation violates its own constraints"
            );
            assert_eq!(synth.landscape.num_servers(), servers);
        }
    }

    #[test]
    fn databases_are_segregated_and_constrained() {
        let synth = generate(&SynthConfig::sized(200, 42));
        let l = &synth.landscape;
        for service in l.service_ids() {
            let spec = l.service(service).unwrap();
            if spec.kind == ServiceKind::Database {
                assert_eq!(spec.min_performance_index, Some(DB_MIN_PERFORMANCE_INDEX));
                assert!(spec.allowed_actions.is_empty(), "databases are immobile");
                for inst in l.instances_of(service) {
                    let host = l.instance(inst).unwrap().server;
                    assert!(l.server(host).unwrap().performance_index >= DB_MIN_PERFORMANCE_INDEX);
                }
            }
        }
        // Exclusivity alternates, so both flavours are exercised.
        let flags: Vec<bool> = l
            .service_ids()
            .filter_map(|s| {
                let spec = l.service(s).unwrap();
                (spec.kind == ServiceKind::Database).then_some(spec.exclusive)
            })
            .collect();
        assert!(flags.iter().any(|&e| e) && flags.iter().any(|&e| !e));
    }

    #[test]
    fn the_top_rung_serves_millions_of_users() {
        let synth = generate(&SynthConfig::sized(2000, 42));
        assert!(
            synth.total_users() > 1_000_000.0,
            "2000-server rung carries only {} users",
            synth.total_users()
        );
        // And the workload couplings resolve against the landscape.
        for w in &synth.workloads {
            assert!(synth.landscape.service_by_name(&w.service).is_ok());
            assert!(synth.landscape.service_by_name(&w.ci_service).is_ok());
            assert!(synth.landscape.service_by_name(&w.db_service).is_ok());
        }
    }

    #[test]
    fn every_service_has_at_least_one_instance() {
        let synth = generate(&SynthConfig::sized(50, 7));
        for service in synth.landscape.service_ids() {
            assert!(
                synth.landscape.instance_count_of(service) >= 1,
                "service {:?} has no initial instance",
                synth.landscape.service(service).unwrap().name
            );
        }
    }
}
