//! Dense per-server aggregates for sublinear host ranking.
//!
//! [`Landscape::can_host`] and [`crate::ServerInputs::gather`] each scan
//! the full instance table, so ranking hosts for one trigger used to cost
//! O(servers × instances) — superlinear in landscape size, and the latent
//! blowup that dominated decisions at 1,000 servers. [`HostIndex`]
//! folds the instance table once into dense per-server arrays (memory in
//! use, instance ids, distinct resident services), after which every
//! per-server constraint question is O(log residents) or O(1) and a whole
//! trigger decision is O(instances + servers).
//!
//! The per-server and per-service id lists use a CSR layout: one flat id
//! array per grouping plus prefix-sum offsets, instead of a `Vec` per
//! server. A build is a handful of exact-sized allocations, and a group
//! is a contiguous slice.
//!
//! The index has two users, both through the controller's
//! revision-keyed memo: host ranking on the trigger path, and the
//! self-healing restart search
//! ([`AutoGlobeController::best_restart_host`]), which takes its placement
//! check and `instancesOnServer` from here. The memo is *patched*, not
//! rebuilt, by the instance mutations the controller makes itself (an
//! applied action, a recovery's stop and start): each moves one instance
//! in or out of one server and service group, in place. Any other
//! mutation (a replicated action, an availability change, a write outside
//! the controller) leaves the memo stale, and its next use rebuilds it.
//!
//! The index answers exactly the same questions as the exhaustive scans —
//! [`AutoGlobeController::rank_hosts_indexed`] is proven bit-identical to
//! [`AutoGlobeController::rank_hosts_exhaustive`], the ranking oracle, by
//! the unit tests and by the seeded property test over synthetic
//! landscapes (`tests/properties.rs`), which also holds the restart
//! search to the exhaustive scan it replaced. A seeded controller test
//! holds every patched memo, array by array, to a fresh build.
//!
//! [`AutoGlobeController::rank_hosts_indexed`]: crate::AutoGlobeController::rank_hosts_indexed
//! [`AutoGlobeController::rank_hosts_exhaustive`]: crate::AutoGlobeController::rank_hosts_exhaustive
//! [`AutoGlobeController::best_restart_host`]: crate::AutoGlobeController::best_restart_host
//! [`Landscape::can_host`]: autoglobe_landscape::Landscape::can_host

use autoglobe_landscape::{InstanceId, Landscape, ServerId, ServiceId};

/// Per-server aggregates of the current allocation, built in two passes
/// over the instance table; the controller patches its memoized copy in
/// place.
#[derive(Debug, Clone, Default)]
pub struct HostIndex {
    /// Memory in use on each server, MB (order-independent u64 sum).
    mem_used: Vec<u64>,
    /// How many distinct resident services on each server are exclusive.
    exclusive_residents: Vec<u32>,
    /// CSR offsets into `server_instances` and `server_services`, len
    /// `n + 1`.
    server_starts: Vec<u32>,
    /// Instance ids grouped by server, each group ascending — the id order
    /// [`Landscape::instances_on`] produces.
    ///
    /// [`Landscape::instances_on`]: autoglobe_landscape::Landscape::instances_on
    server_instances: Vec<InstanceId>,
    /// The service of each `server_instances` slot.
    server_services: Vec<ServiceId>,
    /// CSR offsets into `residents`, len `n + 1`.
    resident_starts: Vec<u32>,
    /// Distinct services resident on each server, each group ascending.
    residents: Vec<ServiceId>,
    /// CSR offsets into `service_instances`, len `services + 1`.
    service_starts: Vec<u32>,
    /// Instance ids grouped by service, each group ascending — the id
    /// order [`Landscape::instances_of`] produces.
    ///
    /// [`Landscape::instances_of`]: autoglobe_landscape::Landscape::instances_of
    service_instances: Vec<InstanceId>,
    /// Build-time temporaries retained across [`HostIndex::rebuild`] calls
    /// so a rebuild costs refills, not reallocations.
    scratch: BuildScratch,
}

/// Reusable build-time buffers. Lengths are meaningless between builds;
/// every [`HostIndex::rebuild`] resets them before use.
#[derive(Debug, Clone, Default)]
struct BuildScratch {
    /// `memory_per_instance_mb` per service index (spec-table hoist).
    mem_per_service: Vec<u64>,
    /// `exclusive` flag per service index (spec-table hoist).
    exclusive: Vec<bool>,
    /// One flat copy of the instance table, in ascending-id walk order —
    /// the fill pass re-reads this instead of walking the table again.
    table: Vec<(ServerId, ServiceId, InstanceId)>,
    /// Per-server fill cursor into `server_instances`.
    server_cursor: Vec<u32>,
    /// Per-service fill cursor into `service_instances`.
    service_cursor: Vec<u32>,
    /// Sort + dedup workspace for one server's resident group.
    dedup: Vec<ServiceId>,
}

/// Reset `v` to `n` copies of `fill`, reusing its allocation.
fn refill<T: Clone>(v: &mut Vec<T>, n: usize, fill: T) {
    v.clear();
    v.resize(n, fill);
}

/// Turn per-group counts, stored one slot to the right, into CSR offsets.
fn prefix_sums(starts: &mut [u32]) {
    for i in 1..starts.len() {
        starts[i] += starts[i - 1];
    }
}

/// Group `g` of a CSR array; empty when `g` is out of range.
fn group<'a, T>(starts: &[u32], values: &'a [T], g: usize) -> &'a [T] {
    match (starts.get(g), starts.get(g + 1)) {
        (Some(&lo), Some(&hi)) => &values[lo as usize..hi as usize],
        _ => &[],
    }
}

/// Insert `value` into group `g` of a CSR array, keeping the group
/// ascending; returns the flat position it took.
fn csr_insert<T: Ord + Copy>(starts: &mut [u32], values: &mut Vec<T>, g: usize, value: T) -> usize {
    let at = starts[g] as usize + group(starts, values, g).partition_point(|&v| v < value);
    values.insert(at, value);
    for start in &mut starts[g + 1..] {
        *start += 1;
    }
    at
}

/// Remove `value` from group `g` of a CSR array; returns the flat position
/// it held, or `None` when the group does not hold it.
fn csr_remove<T: Ord>(
    starts: &mut [u32],
    values: &mut Vec<T>,
    g: usize,
    value: &T,
) -> Option<usize> {
    let at = starts[g] as usize + group(starts, values, g).binary_search(value).ok()?;
    values.remove(at);
    for start in &mut starts[g + 1..] {
        *start -= 1;
    }
    Some(at)
}

impl HostIndex {
    /// Build the index for the landscape's current allocation.
    pub fn build(landscape: &Landscape) -> HostIndex {
        let mut index = HostIndex::default();
        index.rebuild(landscape);
        index
    }

    /// Rebuild in place for the landscape's current allocation, reusing
    /// every buffer of the previous build. The result is identical to a
    /// fresh [`HostIndex::build`]; only the allocations differ.
    pub fn rebuild(&mut self, landscape: &Landscape) {
        let n = landscape.num_servers();
        let services = landscape.num_services();

        // Per-service spec lookups hoisted out of the instance loops.
        refill(&mut self.scratch.mem_per_service, services, 0u64);
        refill(&mut self.scratch.exclusive, services, false);
        for service in landscape.service_ids() {
            let idx = service.index();
            if idx >= services {
                continue;
            }
            if let Ok(spec) = landscape.service(service) {
                self.scratch.mem_per_service[idx] = spec.memory_per_instance_mb;
                self.scratch.exclusive[idx] = spec.exclusive;
            }
        }

        // Pass 1: group sizes and memory sums. The one tree walk also
        // flattens the instance table — `instances()` ascends by instance
        // id, so every per-server / per-service group filled from the flat
        // copy inherits the id order the landscape's own scans produce.
        refill(&mut self.mem_used, n, 0u64);
        refill(&mut self.server_starts, n + 1, 0u32);
        refill(&mut self.service_starts, services + 1, 0u32);
        self.scratch.table.clear();
        for inst in landscape.instances() {
            self.scratch
                .table
                .push((inst.server, inst.service, inst.id));
            let svc = inst.service.index();
            if svc < services {
                self.service_starts[svc + 1] += 1;
            }
            let s = inst.server.index();
            if s >= n {
                continue;
            }
            self.server_starts[s + 1] += 1;
            self.mem_used[s] += self.scratch.mem_per_service.get(svc).copied().unwrap_or(0);
        }
        prefix_sums(&mut self.server_starts);
        prefix_sums(&mut self.service_starts);

        // Pass 2: fill the flat arrays from the flattened table.
        let total_on_servers = self.server_starts[n] as usize;
        let total_of_services = self.service_starts[services] as usize;
        refill(
            &mut self.server_instances,
            total_on_servers,
            InstanceId::new(0),
        );
        refill(
            &mut self.server_services,
            total_on_servers,
            ServiceId::new(0),
        );
        refill(
            &mut self.service_instances,
            total_of_services,
            InstanceId::new(0),
        );
        self.scratch.server_cursor.clear();
        self.scratch
            .server_cursor
            .extend_from_slice(&self.server_starts[..n]);
        self.scratch.service_cursor.clear();
        self.scratch
            .service_cursor
            .extend_from_slice(&self.service_starts[..services]);
        for &(server, service, id) in &self.scratch.table {
            let svc = service.index();
            if svc < services {
                let at = self.scratch.service_cursor[svc] as usize;
                self.service_instances[at] = id;
                self.scratch.service_cursor[svc] += 1;
            }
            let s = server.index();
            if s >= n {
                continue;
            }
            let at = self.scratch.server_cursor[s] as usize;
            self.server_instances[at] = id;
            self.server_services[at] = service;
            self.scratch.server_cursor[s] += 1;
        }

        // Distinct residents per server: sort + dedup each server's
        // service group in a reusable scratch buffer.
        refill(&mut self.resident_starts, n + 1, 0u32);
        self.residents.clear();
        refill(&mut self.exclusive_residents, n, 0u32);
        for s in 0..n {
            let group = &self.server_services
                [self.server_starts[s] as usize..self.server_starts[s + 1] as usize];
            self.scratch.dedup.clear();
            self.scratch.dedup.extend_from_slice(group);
            self.scratch.dedup.sort_unstable();
            self.scratch.dedup.dedup();
            self.exclusive_residents[s] = self
                .scratch
                .dedup
                .iter()
                .filter(|svc| {
                    self.scratch
                        .exclusive
                        .get(svc.index())
                        .copied()
                        .unwrap_or(false)
                })
                .count() as u32;
            self.residents.extend_from_slice(&self.scratch.dedup);
            self.resident_starts[s + 1] = self.residents.len() as u32;
        }
    }

    /// Mirror one instance mutation: `instance` of `service` left `from`
    /// (when it ran before) and runs on `to` (when it still runs) — a start
    /// is `(None, Some)`, a stop `(Some, None)`, a move `(Some, Some)`.
    /// Every array is patched in place, groups stay ascending, and a
    /// service enters or leaves a server's residents with its first or
    /// last instance there, so the result equals a fresh build of the
    /// mutated landscape. `landscape` is read for the service's spec only.
    pub(crate) fn relocate(
        &mut self,
        landscape: &Landscape,
        instance: InstanceId,
        service: ServiceId,
        from: Option<ServerId>,
        to: Option<ServerId>,
    ) {
        let (mem, exclusive) = landscape.service(service).map_or((0, false), |spec| {
            (spec.memory_per_instance_mb, spec.exclusive)
        });
        let exclusive = u32::from(exclusive);
        let servers = self.mem_used.len();
        if let Some(s) = from.map(ServerId::index).filter(|&s| s < servers) {
            let removed = csr_remove(
                &mut self.server_starts,
                &mut self.server_instances,
                s,
                &instance,
            );
            if let Some(at) = removed {
                self.server_services.remove(at);
                self.mem_used[s] -= mem;
                // The service's last instance here left: so does the resident.
                if !group(&self.server_starts, &self.server_services, s).contains(&service)
                    && csr_remove(&mut self.resident_starts, &mut self.residents, s, &service)
                        .is_some()
                {
                    self.exclusive_residents[s] -= exclusive;
                }
            }
        }
        if let Some(to) = to.filter(|t| t.index() < servers) {
            let s = to.index();
            let at = csr_insert(
                &mut self.server_starts,
                &mut self.server_instances,
                s,
                instance,
            );
            self.server_services.insert(at, service);
            self.mem_used[s] += mem;
            // The service's first instance here arrived: so does the resident.
            if !self.runs_service(to, service) {
                csr_insert(&mut self.resident_starts, &mut self.residents, s, service);
                self.exclusive_residents[s] += exclusive;
            }
        }
        let svc = service.index();
        if svc + 1 < self.service_starts.len() {
            match (from, to) {
                (None, Some(_)) => {
                    csr_insert(
                        &mut self.service_starts,
                        &mut self.service_instances,
                        svc,
                        instance,
                    );
                }
                (Some(_), None) => {
                    csr_remove(
                        &mut self.service_starts,
                        &mut self.service_instances,
                        svc,
                        &instance,
                    );
                }
                _ => {}
            }
        }
    }

    /// Distinct services resident on `server`, ascending.
    fn residents_on(&self, server: ServerId) -> &[ServiceId] {
        group(&self.resident_starts, &self.residents, server.index())
    }

    /// Number of instances on `server` (the `instancesOnServer` fuzzy
    /// input) — equals `landscape.instance_count_on(server)`.
    pub fn instance_count_on(&self, server: ServerId) -> u32 {
        self.instances_on(server).len() as u32
    }

    /// Memory in use on `server`, MB — equals
    /// `landscape.memory_used_on(server)`.
    pub fn memory_used_on(&self, server: ServerId) -> u64 {
        self.mem_used.get(server.index()).copied().unwrap_or(0)
    }

    /// Instance ids on `server`, ascending — equals
    /// `landscape.instances_on(server)` without the scan.
    pub fn instances_on(&self, server: ServerId) -> &[InstanceId] {
        group(&self.server_starts, &self.server_instances, server.index())
    }

    /// Instance ids of `service`, ascending — equals
    /// `landscape.instances_of(service)` without the scan.
    pub fn instances_of(&self, service: ServiceId) -> &[InstanceId] {
        group(
            &self.service_starts,
            &self.service_instances,
            service.index(),
        )
    }

    /// Number of instances of `service` (the `instancesOfService` fuzzy
    /// input) — equals `landscape.instance_count_of(service)`.
    pub fn instance_count_of(&self, service: ServiceId) -> u32 {
        self.instances_of(service).len() as u32
    }

    /// Whether at least one instance of `service` runs on `server`.
    pub fn runs_service(&self, server: ServerId, service: ServiceId) -> bool {
        self.residents_on(server).binary_search(&service).is_ok()
    }

    /// Index-backed replica of [`Landscape::can_host`]: available host,
    /// minimum performance index, exclusivity in both directions, memory —
    /// the same checks, the same order, without scanning the instance
    /// table.
    ///
    /// [`Landscape::can_host`]: autoglobe_landscape::Landscape::can_host
    pub fn can_host(&self, landscape: &Landscape, service: ServiceId, server: ServerId) -> bool {
        let Ok(svc) = landscape.service(service) else {
            return false;
        };
        let Ok(srv) = landscape.server(server) else {
            return false;
        };
        if !landscape.is_available(server) {
            return false;
        }
        if let Some(min_idx) = svc.min_performance_index {
            if srv.performance_index < min_idx {
                return false;
            }
        }
        let s = server.index();
        let residents = self.residents_on(server);
        let runs_candidate = residents.binary_search(&service).is_ok();
        // Exclusivity in both directions, over distinct resident services.
        let foreign = residents.len() - usize::from(runs_candidate);
        if svc.exclusive && foreign > 0 {
            return false;
        }
        let foreign_exclusive =
            self.exclusive_residents[s] - u32::from(svc.exclusive && runs_candidate);
        if foreign_exclusive > 0 {
            return false;
        }
        // Memory.
        if self.mem_used[s] + svc.memory_per_instance_mb > srv.memory_mb {
            return false;
        }
        true
    }
}

#[cfg(test)]
impl HostIndex {
    /// Assert that every array equals `built`'s (build scratch aside).
    pub(crate) fn assert_same_arrays(&self, built: &HostIndex) {
        assert_eq!(self.mem_used, built.mem_used, "mem_used");
        assert_eq!(
            self.exclusive_residents, built.exclusive_residents,
            "exclusive_residents"
        );
        assert_eq!(self.server_starts, built.server_starts, "server_starts");
        assert_eq!(
            self.server_instances, built.server_instances,
            "server_instances"
        );
        assert_eq!(
            self.server_services, built.server_services,
            "server_services"
        );
        assert_eq!(
            self.resident_starts, built.resident_starts,
            "resident_starts"
        );
        assert_eq!(self.residents, built.residents, "residents");
        assert_eq!(self.service_starts, built.service_starts, "service_starts");
        assert_eq!(
            self.service_instances, built.service_instances,
            "service_instances"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autoglobe_landscape::{ServerSpec, ServiceKind, ServiceSpec};

    /// A landscape exercising every `can_host` clause: exclusivity both
    /// ways, minimum performance index, tight memory, a failed host.
    fn varied_landscape() -> Landscape {
        let mut l = Landscape::new();
        let b1 = l.add_server(ServerSpec::fsc_bx300("Blade1")).unwrap();
        let b2 = l.add_server(ServerSpec::fsc_bx300("Blade2")).unwrap();
        let b3 = l.add_server(ServerSpec::fsc_bx600("Blade3")).unwrap();
        let big = l.add_server(ServerSpec::hp_bl40p("Big")).unwrap();
        let down = l.add_server(ServerSpec::fsc_bx600("Down")).unwrap();
        l.set_available(down, false).unwrap();

        let fi = l
            .add_service(ServiceSpec::new("FI", ServiceKind::ApplicationServer))
            .unwrap();
        let db = l
            .add_service(
                ServiceSpec::new("DB", ServiceKind::Database)
                    .with_exclusive(true)
                    .with_min_performance_index(5.0),
            )
            .unwrap();
        let fat = l
            .add_service(ServiceSpec::new("Fat", ServiceKind::Generic).with_memory(1500))
            .unwrap();

        l.start_instance(fi, b1).unwrap();
        l.start_instance(fi, b1).unwrap();
        l.start_instance(db, big).unwrap();
        l.start_instance(fat, b2).unwrap();
        let _ = b3;
        l
    }

    #[test]
    fn index_agrees_with_exhaustive_can_host_everywhere() {
        let l = varied_landscape();
        let index = HostIndex::build(&l);
        for service in l.service_ids() {
            for server in l.server_ids() {
                assert_eq!(
                    index.can_host(&l, service, server),
                    l.can_host(service, server),
                    "service {service:?} on server {server:?}"
                );
            }
        }
    }

    #[test]
    fn aggregates_match_the_scans() {
        let l = varied_landscape();
        let index = HostIndex::build(&l);
        for server in l.server_ids() {
            assert_eq!(
                index.instance_count_on(server) as usize,
                l.instance_count_on(server)
            );
            assert_eq!(index.memory_used_on(server), l.memory_used_on(server));
            for service in l.service_ids() {
                let scan = l
                    .instances_on(server)
                    .iter()
                    .any(|i| l.instance(*i).unwrap().service == service);
                assert_eq!(index.runs_service(server, service), scan);
            }
        }
    }

    #[test]
    fn out_of_range_ids_read_as_empty() {
        let l = varied_landscape();
        let index = HostIndex::build(&l);
        let ghost = ServerId::new(999);
        assert_eq!(index.instance_count_on(ghost), 0);
        assert_eq!(index.memory_used_on(ghost), 0);
        assert!(!index.runs_service(ghost, ServiceId::new(0)));
        assert!(!index.can_host(&l, ServiceId::new(0), ghost));
        assert!(!index.can_host(&l, ServiceId::new(999), ServerId::new(0)));
    }
}
