//! # autoglobe-designer — statically optimized service pre-assignment
//!
//! The paper's future work (Section 7): "we plan to develop a landscape
//! designer tool. This tool calculates a statically optimized
//! pre-assignment of all services to improve the dynamic optimization
//! potential of the fuzzy controller." Section 5.3 motivates it: "our
//! controller can improve the capability of current IT-infrastructures if
//! static services like databases and central instances are deployed well."
//!
//! Given the declarative landscape (servers with performance indices and
//! constraints) and per-instance **demand profiles** (CPU demand by
//! time-of-day slot — a service's daily profile from the load archive,
//! which keeps services and servers but not single instances, or
//! synthetic), the designer computes an initial allocation that minimizes
//! the worst per-server load across the day:
//!
//! 1. **First-fit decreasing**: instances sorted by peak demand, each placed
//!    on the feasible server that minimizes the resulting peak load —
//!    naturally co-locating *complementary* patterns (nightly batch next to
//!    daytime interactive work).
//! 2. **Local search**: single-instance relocations accepted while they
//!    reduce the objective (peak load, tie-broken by load variance).
//!
//! All declarative constraints are honored: exclusivity, minimum
//! performance index, and memory capacity.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use autoglobe_landscape::{Landscape, ServerId, ServiceId};
use std::collections::BTreeMap;
use std::fmt;

/// Per-instance CPU demand of one service, by time-of-day slot, in
/// performance-index-1 units.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceDemand {
    /// The service (its constraints are read from the landscape).
    pub service: ServiceId,
    /// How many instances to place.
    pub instances: u32,
    /// Demand per instance, one value per time slot (all demands must use
    /// the same slot count).
    pub profile: Vec<f64>,
}

/// The designer's result.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// One `(service, server)` pair per placed instance.
    pub assignments: Vec<(ServiceId, ServerId)>,
    /// The worst per-server load over all time slots, in `[0, ∞)`.
    pub peak_load: f64,
    /// Mean load over servers and slots.
    pub mean_load: f64,
}

impl Placement {
    /// Instances per server (for rendering).
    pub fn per_server(&self) -> BTreeMap<ServerId, Vec<ServiceId>> {
        let mut map: BTreeMap<ServerId, Vec<ServiceId>> = BTreeMap::new();
        for &(service, server) in &self.assignments {
            map.entry(server).or_default().push(service);
        }
        map
    }
}

/// Why the designer failed.
#[derive(Debug, Clone, PartialEq)]
pub enum DesignError {
    /// Demand profiles disagree on slot count or are empty.
    InconsistentProfiles,
    /// A referenced service does not exist in the landscape.
    UnknownService(ServiceId),
    /// No feasible server exists for an instance of this service.
    Infeasible(ServiceId),
}

impl fmt::Display for DesignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DesignError::InconsistentProfiles => {
                f.write_str("demand profiles are empty or differ in slot count")
            }
            DesignError::UnknownService(id) => write!(f, "unknown service {id}"),
            DesignError::Infeasible(id) => {
                write!(f, "no feasible server for an instance of {id}")
            }
        }
    }
}

impl std::error::Error for DesignError {}

/// Internal placement state per server.
struct ServerState {
    id: ServerId,
    performance_index: f64,
    memory_free_mb: u64,
    /// Total demand per slot in perf-1 units.
    demand: Vec<f64>,
    /// Distinct services currently placed here (with multiplicity).
    services: Vec<ServiceId>,
    /// An exclusive service occupies the host alone.
    exclusive_resident: bool,
}

impl ServerState {
    fn load_at(&self, slot: usize) -> f64 {
        self.demand[slot] / self.performance_index
    }

    fn peak_with(&self, profile: &[f64]) -> f64 {
        self.demand
            .iter()
            .zip(profile)
            .map(|(d, p)| (d + p) / self.performance_index)
            .fold(0.0, f64::max)
    }
}

/// Compute a statically optimized pre-assignment.
///
/// The landscape supplies servers and service constraints; any existing
/// instances in it are ignored (the designer plans from scratch).
pub fn design(landscape: &Landscape, demands: &[ServiceDemand]) -> Result<Placement, DesignError> {
    let slots = demands
        .first()
        .map(|d| d.profile.len())
        .ok_or(DesignError::InconsistentProfiles)?;
    if slots == 0 || demands.iter().any(|d| d.profile.len() != slots) {
        return Err(DesignError::InconsistentProfiles);
    }

    let mut servers: Vec<ServerState> = landscape
        .server_ids()
        .map(|id| {
            let spec = landscape.server(id).expect("listed server exists");
            ServerState {
                id,
                performance_index: spec.performance_index,
                memory_free_mb: spec.memory_mb,
                demand: vec![0.0; slots],
                services: Vec::new(),
                exclusive_resident: false,
            }
        })
        .collect();

    // One work item per instance, sorted by peak demand descending
    // (first-fit decreasing).
    let mut items: Vec<(ServiceId, &[f64])> = Vec::new();
    for demand in demands {
        landscape
            .service(demand.service)
            .map_err(|_| DesignError::UnknownService(demand.service))?;
        for _ in 0..demand.instances {
            items.push((demand.service, &demand.profile));
        }
    }
    items.sort_by(|a, b| {
        let peak = |p: &[f64]| p.iter().copied().fold(0.0, f64::max);
        peak(b.1)
            .partial_cmp(&peak(a.1))
            .unwrap()
            .then_with(|| a.0.cmp(&b.0))
    });

    let mut assignment: Vec<usize> = Vec::with_capacity(items.len());

    // Phase 1: first-fit decreasing by resulting peak.
    for &(service, profile) in &items {
        let best = servers
            .iter()
            .enumerate()
            .filter(|(_, s)| feasible(landscape, service, s))
            .min_by(|(_, a), (_, b)| {
                a.peak_with(profile)
                    .partial_cmp(&b.peak_with(profile))
                    .unwrap()
                    .then_with(|| a.id.cmp(&b.id))
            })
            .map(|(i, _)| i)
            .ok_or(DesignError::Infeasible(service))?;
        place(landscape, &mut servers[best], service, profile);
        assignment.push(best);
    }

    // Phase 2: local search — relocate single instances while the
    // objective (peak, then variance) improves.
    let mut improved = true;
    let mut rounds = 0;
    while improved && rounds < 32 {
        improved = false;
        rounds += 1;
        for idx in 0..assignment.len() {
            let (service, profile) = items[idx];
            let current = assignment[idx];
            let before = objective(&servers);
            let mut best_move: Option<(usize, (f64, f64))> = None;
            for target in 0..servers.len() {
                if target == current {
                    continue;
                }
                unplace(landscape, &mut servers[current], service, profile);
                let ok = feasible(landscape, service, &servers[target]);
                if ok {
                    place(landscape, &mut servers[target], service, profile);
                    let score = objective(&servers);
                    unplace(landscape, &mut servers[target], service, profile);
                    if score_lt(score, before)
                        && best_move.as_ref().is_none_or(|(_, s)| score_lt(score, *s))
                    {
                        best_move = Some((target, score));
                    }
                }
                place(landscape, &mut servers[current], service, profile);
            }
            if let Some((target, _)) = best_move {
                unplace(landscape, &mut servers[current], service, profile);
                place(landscape, &mut servers[target], service, profile);
                assignment[idx] = target;
                improved = true;
            }
        }
    }

    let (peak_load, _) = objective(&servers);
    let mean_load = {
        let mut sum = 0.0;
        let mut n = 0.0;
        for s in &servers {
            for slot in 0..slots {
                sum += s.load_at(slot);
                n += 1.0;
            }
        }
        sum / n
    };
    Ok(Placement {
        assignments: items
            .iter()
            .zip(&assignment)
            .map(|(&(service, _), &i)| (service, servers[i].id))
            .collect(),
        peak_load,
        mean_load,
    })
}

/// `(peak, variance)` of per-server per-slot loads.
fn objective(servers: &[ServerState]) -> (f64, f64) {
    let mut peak: f64 = 0.0;
    let mut sum = 0.0;
    let mut sum_sq = 0.0;
    let mut n = 0.0;
    for s in servers {
        for slot in 0..s.demand.len() {
            let load = s.load_at(slot);
            peak = peak.max(load);
            sum += load;
            sum_sq += load * load;
            n += 1.0;
        }
    }
    let mean = sum / n;
    (peak, sum_sq / n - mean * mean)
}

/// Lexicographic with a small tolerance on peak so variance can break ties.
fn score_lt(a: (f64, f64), b: (f64, f64)) -> bool {
    if a.0 < b.0 - 1e-9 {
        true
    } else if a.0 > b.0 + 1e-9 {
        false
    } else {
        a.1 < b.1 - 1e-12
    }
}

fn feasible(landscape: &Landscape, service: ServiceId, server: &ServerState) -> bool {
    let spec = landscape.service(service).expect("validated service");
    if let Some(min_idx) = spec.min_performance_index {
        if server.performance_index < min_idx {
            return false;
        }
    }
    if server.exclusive_resident && !server.services.contains(&service) {
        return false;
    }
    if spec.exclusive && server.services.iter().any(|&s| s != service) {
        return false;
    }
    spec.memory_per_instance_mb <= server.memory_free_mb
}

fn place(landscape: &Landscape, server: &mut ServerState, service: ServiceId, profile: &[f64]) {
    let spec = landscape.service(service).expect("validated service");
    for (d, p) in server.demand.iter_mut().zip(profile) {
        *d += p;
    }
    server.memory_free_mb = server
        .memory_free_mb
        .saturating_sub(spec.memory_per_instance_mb);
    server.services.push(service);
    if spec.exclusive {
        server.exclusive_resident = true;
    }
}

fn unplace(landscape: &Landscape, server: &mut ServerState, service: ServiceId, profile: &[f64]) {
    let spec = landscape.service(service).expect("validated service");
    for (d, p) in server.demand.iter_mut().zip(profile) {
        *d -= p;
    }
    server.memory_free_mb += spec.memory_per_instance_mb;
    if let Some(pos) = server.services.iter().position(|&s| s == service) {
        server.services.remove(pos);
    }
    if spec.exclusive && !server.services.contains(&service) {
        server.exclusive_resident = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autoglobe_landscape::{ServerSpec, ServiceKind, ServiceSpec};

    fn flat(level: f64, slots: usize) -> Vec<f64> {
        vec![level; slots]
    }

    /// Daytime profile: hot 8–18 h, cold otherwise (24 hourly slots).
    fn daytime(level: f64) -> Vec<f64> {
        (0..24)
            .map(|h| if (8..18).contains(&h) { level } else { 0.05 })
            .collect()
    }

    /// Nighttime profile: complement of daytime.
    fn nighttime(level: f64) -> Vec<f64> {
        (0..24)
            .map(|h| if !(6..20).contains(&h) { level } else { 0.05 })
            .collect()
    }

    fn two_blade_landscape() -> (Landscape, ServiceId, ServiceId) {
        let mut l = Landscape::new();
        l.add_server(ServerSpec::fsc_bx300("A")).unwrap();
        l.add_server(ServerSpec::fsc_bx300("B")).unwrap();
        let day = l
            .add_service(ServiceSpec::new("day", ServiceKind::ApplicationServer))
            .unwrap();
        let night = l
            .add_service(ServiceSpec::new("night", ServiceKind::ApplicationServer))
            .unwrap();
        (l, day, night)
    }

    #[test]
    fn complementary_profiles_share_a_host() {
        // Two daytime + two nighttime instances on two equal blades: the
        // optimum pairs one day with one night instance per blade
        // (peak ≈ 0.65) instead of stacking two daytime instances (1.2).
        let (l, day, night) = two_blade_landscape();
        let placement = design(
            &l,
            &[
                ServiceDemand {
                    service: day,
                    instances: 2,
                    profile: daytime(0.6),
                },
                ServiceDemand {
                    service: night,
                    instances: 2,
                    profile: nighttime(0.6),
                },
            ],
        )
        .unwrap();
        assert!(placement.peak_load < 0.7, "peak {}", placement.peak_load);
        for (_, services) in placement.per_server() {
            assert_eq!(services.len(), 2);
            assert!(services.contains(&day) && services.contains(&night));
        }
    }

    #[test]
    fn heavy_services_go_to_powerful_hosts() {
        let mut l = Landscape::new();
        l.add_server(ServerSpec::fsc_bx300("blade")).unwrap();
        let big = l.add_server(ServerSpec::hp_bl40p("big")).unwrap();
        let db = l
            .add_service(ServiceSpec::new("db", ServiceKind::Database))
            .unwrap();
        let app = l
            .add_service(ServiceSpec::new("app", ServiceKind::ApplicationServer))
            .unwrap();
        let placement = design(
            &l,
            &[
                ServiceDemand {
                    service: db,
                    instances: 1,
                    profile: flat(4.0, 24),
                },
                ServiceDemand {
                    service: app,
                    instances: 1,
                    profile: flat(0.5, 24),
                },
            ],
        )
        .unwrap();
        let db_server = placement
            .assignments
            .iter()
            .find(|(s, _)| *s == db)
            .unwrap()
            .1;
        assert_eq!(db_server, big, "the 4-unit database needs the 9-index host");
        assert!(placement.peak_load < 0.8, "peak {}", placement.peak_load);
    }

    #[test]
    fn min_performance_index_is_respected() {
        let mut l = Landscape::new();
        l.add_server(ServerSpec::fsc_bx300("blade")).unwrap();
        let big = l.add_server(ServerSpec::hp_bl40p("big")).unwrap();
        let db = l
            .add_service(
                ServiceSpec::new("db", ServiceKind::Database).with_min_performance_index(5.0),
            )
            .unwrap();
        let placement = design(
            &l,
            &[ServiceDemand {
                service: db,
                instances: 1,
                profile: flat(0.1, 4),
            }],
        )
        .unwrap();
        assert_eq!(placement.assignments[0].1, big);
    }

    #[test]
    fn exclusivity_is_respected() {
        let mut l = Landscape::new();
        l.add_server(ServerSpec::hp_bl40p("big1")).unwrap();
        l.add_server(ServerSpec::hp_bl40p("big2")).unwrap();
        let db = l
            .add_service(ServiceSpec::new("db", ServiceKind::Database).with_exclusive(true))
            .unwrap();
        let app = l
            .add_service(ServiceSpec::new("app", ServiceKind::ApplicationServer))
            .unwrap();
        let placement = design(
            &l,
            &[
                ServiceDemand {
                    service: db,
                    instances: 1,
                    profile: flat(1.0, 8),
                },
                ServiceDemand {
                    service: app,
                    instances: 3,
                    profile: flat(0.3, 8),
                },
            ],
        )
        .unwrap();
        for (_, services) in placement.per_server() {
            if services.contains(&db) {
                assert!(
                    services.iter().all(|&s| s == db),
                    "exclusive db stays alone"
                );
            }
        }
    }

    #[test]
    fn infeasible_demands_are_reported() {
        let mut l = Landscape::new();
        l.add_server(ServerSpec::fsc_bx300("blade")).unwrap();
        let db = l
            .add_service(
                ServiceSpec::new("db", ServiceKind::Database).with_min_performance_index(5.0),
            )
            .unwrap();
        let result = design(
            &l,
            &[ServiceDemand {
                service: db,
                instances: 1,
                profile: flat(0.1, 4),
            }],
        );
        assert_eq!(result.unwrap_err(), DesignError::Infeasible(db));
    }

    #[test]
    fn memory_capacity_limits_colocation() {
        let mut l = Landscape::new();
        l.add_server(ServerSpec::fsc_bx300("a")).unwrap(); // 2048 MB
        l.add_server(ServerSpec::fsc_bx300("b")).unwrap();
        let fat = l
            .add_service(ServiceSpec::new("fat", ServiceKind::Generic).with_memory(1500))
            .unwrap();
        let placement = design(
            &l,
            &[ServiceDemand {
                service: fat,
                instances: 2,
                profile: flat(0.1, 4),
            }],
        )
        .unwrap();
        // 2 × 1500 MB does not fit one 2048 MB blade.
        assert_eq!(placement.per_server().len(), 2);
    }

    #[test]
    fn inconsistent_profiles_are_rejected() {
        let (l, day, night) = two_blade_landscape();
        assert_eq!(design(&l, &[]), Err(DesignError::InconsistentProfiles));
        assert_eq!(
            design(
                &l,
                &[
                    ServiceDemand {
                        service: day,
                        instances: 1,
                        profile: flat(0.1, 4)
                    },
                    ServiceDemand {
                        service: night,
                        instances: 1,
                        profile: flat(0.1, 8)
                    },
                ]
            ),
            Err(DesignError::InconsistentProfiles)
        );
        assert_eq!(
            design(
                &l,
                &[ServiceDemand {
                    service: day,
                    instances: 1,
                    profile: vec![]
                }]
            ),
            Err(DesignError::InconsistentProfiles)
        );
    }

    #[test]
    fn design_is_deterministic() {
        let (l, day, night) = two_blade_landscape();
        let demands = [
            ServiceDemand {
                service: day,
                instances: 2,
                profile: daytime(0.4),
            },
            ServiceDemand {
                service: night,
                instances: 2,
                profile: nighttime(0.4),
            },
        ];
        assert_eq!(design(&l, &demands), design(&l, &demands));
    }

    #[test]
    fn spreads_load_across_the_paper_hardware_mix() {
        let mut l = Landscape::new();
        for i in 0..4 {
            l.add_server(ServerSpec::fsc_bx300(format!("b{i}")))
                .unwrap();
        }
        l.add_server(ServerSpec::fsc_bx600("bx")).unwrap();
        let day = l
            .add_service(ServiceSpec::new("day", ServiceKind::ApplicationServer))
            .unwrap();
        let night = l
            .add_service(ServiceSpec::new("night", ServiceKind::ApplicationServer))
            .unwrap();
        let placement = design(
            &l,
            &[
                ServiceDemand {
                    service: day,
                    instances: 4,
                    profile: daytime(0.5),
                },
                ServiceDemand {
                    service: night,
                    instances: 4,
                    profile: nighttime(0.5),
                },
            ],
        )
        .unwrap();
        assert!(placement.peak_load <= 0.7, "peak {}", placement.peak_load);
        assert!(placement.mean_load > 0.0);
        assert_eq!(placement.assignments.len(), 8);
    }
}
