//! The live allocation table: which instance runs where.
//!
//! Services managed by AutoGlobe are virtualized through *service IP
//! addresses* (paper Section 2): every instance owns a virtual IP that is
//! bound to the NIC of whichever host currently runs it. Moving an instance
//! unbinds the IP from the old host and rebinds it on the target, so clients
//! never observe the move. [`Landscape`] models exactly that: a pool of
//! servers, a catalogue of services, and a table of instances with their IP
//! bindings, mutated through [`Landscape::apply`] which enforces the
//! declarative constraints first.

use crate::action::Action;
use crate::constraints::check_action;
use crate::error::LandscapeError;
use crate::ids::{InstanceId, ServerId, ServiceId};
use crate::server::ServerSpec;
use crate::service::{Priority, ServiceSpec};
use std::collections::BTreeMap;
use std::fmt;

/// A virtual service IP address, allocated from the `10.0.0.0/16` pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VirtualIp(u32);

impl VirtualIp {
    /// The n-th address of the pool.
    pub fn nth(n: u32) -> Self {
        VirtualIp(n)
    }

    /// The raw pool index.
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for VirtualIp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Skip .0 and .255 host parts for realism.
        let host = self.0 % 254 + 1;
        let subnet = self.0 / 254;
        write!(f, "10.0.{subnet}.{host}")
    }
}

/// One running instance of a service.
#[derive(Debug, Clone, PartialEq)]
pub struct Instance {
    /// Unique instance id.
    pub id: InstanceId,
    /// The service this is an instance of.
    pub service: ServiceId,
    /// The host the instance currently runs on.
    pub server: ServerId,
    /// The instance's virtual service IP (stable across moves).
    pub ip: VirtualIp,
}

/// What [`Landscape::apply`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApplyOutcome {
    /// A new instance was started.
    Started(InstanceId),
    /// An instance was stopped.
    Stopped(InstanceId),
    /// An instance was moved between hosts.
    Moved {
        /// The moved instance.
        instance: InstanceId,
        /// Where it ran before.
        from: ServerId,
        /// Where it runs now.
        to: ServerId,
    },
    /// A service's priority changed.
    PriorityChanged {
        /// The affected service.
        service: ServiceId,
        /// The new priority.
        priority: Priority,
    },
}

/// The managed landscape: server pool, service catalogue, allocation table.
#[derive(Debug, Clone, Default)]
pub struct Landscape {
    servers: Vec<ServerSpec>,
    services: Vec<ServiceSpec>,
    priorities: Vec<Priority>,
    /// Per-server availability: a failed host cannot run or receive
    /// instances until it is repaired (self-healing, Section 2: "Failure
    /// situations like a program crash are remedied for example with a
    /// restart").
    available: Vec<bool>,
    instances: BTreeMap<InstanceId, Instance>,
    next_instance: u32,
    next_ip: u32,
    /// Bumped on every successful mutation (registration, availability,
    /// instance start/stop/move, priority change). Callers that cache
    /// state derived from the landscape — e.g. the controller's host-index
    /// memo — compare revisions to know when to invalidate.
    revision: u64,
}

impl Landscape {
    /// An empty landscape.
    pub fn new() -> Self {
        Landscape::default()
    }

    // ---- registration ----------------------------------------------------

    /// Register a server. Names must be unique.
    pub fn add_server(&mut self, spec: ServerSpec) -> Result<ServerId, LandscapeError> {
        spec.validate()?;
        if self.servers.iter().any(|s| s.name == spec.name) {
            return Err(LandscapeError::DuplicateServer { name: spec.name });
        }
        let id = ServerId::new(self.servers.len() as u32);
        self.servers.push(spec);
        self.available.push(true);
        self.revision += 1;
        Ok(id)
    }

    /// Register a service. Names must be unique.
    pub fn add_service(&mut self, spec: ServiceSpec) -> Result<ServiceId, LandscapeError> {
        spec.validate()?;
        if self.services.iter().any(|s| s.name == spec.name) {
            return Err(LandscapeError::DuplicateService { name: spec.name });
        }
        let id = ServiceId::new(self.services.len() as u32);
        self.priorities.push(spec.priority);
        self.services.push(spec);
        self.revision += 1;
        Ok(id)
    }

    // ---- lookups ----------------------------------------------------------

    /// Spec of a server.
    pub fn server(&self, id: ServerId) -> Result<&ServerSpec, LandscapeError> {
        self.servers
            .get(id.index())
            .ok_or(LandscapeError::UnknownServer { id })
    }

    /// Spec of a service.
    pub fn service(&self, id: ServiceId) -> Result<&ServiceSpec, LandscapeError> {
        self.services
            .get(id.index())
            .ok_or(LandscapeError::UnknownService { id })
    }

    /// A running instance.
    pub fn instance(&self, id: InstanceId) -> Result<&Instance, LandscapeError> {
        self.instances
            .get(&id)
            .ok_or(LandscapeError::UnknownInstance { id })
    }

    /// Find a server by name.
    pub fn server_by_name(&self, name: &str) -> Result<ServerId, LandscapeError> {
        self.servers
            .iter()
            .position(|s| s.name == name)
            .map(|i| ServerId::new(i as u32))
            .ok_or_else(|| LandscapeError::NoSuchName {
                kind: "server",
                name: name.to_string(),
            })
    }

    /// Find a service by name.
    pub fn service_by_name(&self, name: &str) -> Result<ServiceId, LandscapeError> {
        self.services
            .iter()
            .position(|s| s.name == name)
            .map(|i| ServiceId::new(i as u32))
            .ok_or_else(|| LandscapeError::NoSuchName {
                kind: "service",
                name: name.to_string(),
            })
    }

    /// All server ids.
    pub fn server_ids(&self) -> impl Iterator<Item = ServerId> + '_ {
        (0..self.servers.len() as u32).map(ServerId::new)
    }

    /// All service ids.
    pub fn service_ids(&self) -> impl Iterator<Item = ServiceId> + '_ {
        (0..self.services.len() as u32).map(ServiceId::new)
    }

    /// Number of registered servers.
    pub fn num_servers(&self) -> usize {
        self.servers.len()
    }

    /// Number of registered services.
    pub fn num_services(&self) -> usize {
        self.services.len()
    }

    /// All running instances.
    pub fn instances(&self) -> impl Iterator<Item = &Instance> {
        self.instances.values()
    }

    /// Number of running instances (all services).
    pub fn num_instances(&self) -> usize {
        self.instances.len()
    }

    /// Exclusive upper bound on every instance id ever issued. Instance
    /// ids are allocated densely from 0, so `id.index() < bound` holds for
    /// all past and present instances — dense arenas indexed by
    /// `InstanceId::index` can be sized from this.
    pub fn instance_id_bound(&self) -> u32 {
        self.next_instance
    }

    /// Ids of all instances of `service`.
    pub fn instances_of(&self, service: ServiceId) -> Vec<InstanceId> {
        self.instances
            .values()
            .filter(|i| i.service == service)
            .map(|i| i.id)
            .collect()
    }

    /// Ids of all instances currently on `server`.
    pub fn instances_on(&self, server: ServerId) -> Vec<InstanceId> {
        self.instances
            .values()
            .filter(|i| i.server == server)
            .map(|i| i.id)
            .collect()
    }

    /// Number of running instances of `service` (the `instancesOfService`
    /// input variable of Table 1).
    pub fn instance_count_of(&self, service: ServiceId) -> usize {
        self.instances
            .values()
            .filter(|i| i.service == service)
            .count()
    }

    /// Number of instances on `server` (the `instancesOnServer` input
    /// variable of Tables 1 and 3).
    pub fn instance_count_on(&self, server: ServerId) -> usize {
        self.instances
            .values()
            .filter(|i| i.server == server)
            .count()
    }

    /// Total memory footprint of the instances on `server`, in MB.
    pub fn memory_used_on(&self, server: ServerId) -> u64 {
        self.instances
            .values()
            .filter(|i| i.server == server)
            .map(|i| {
                self.services
                    .get(i.service.index())
                    .map(|s| s.memory_per_instance_mb)
                    .unwrap_or(0)
            })
            .sum()
    }

    /// Whether a server is available (not failed).
    pub fn is_available(&self, server: ServerId) -> bool {
        self.available.get(server.index()).copied().unwrap_or(false)
    }

    /// Monotonic change counter: bumped on every successful mutation. Two
    /// equal revisions on the same `Landscape` value guarantee no allocation,
    /// availability, registration or priority change happened in between.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Mark a server failed or repaired. Marking a host failed does not
    /// remove its instances — the controller's failure handling restarts
    /// them elsewhere.
    pub fn set_available(
        &mut self,
        server: ServerId,
        available: bool,
    ) -> Result<(), LandscapeError> {
        self.server(server)?;
        self.available[server.index()] = available;
        self.revision += 1;
        Ok(())
    }

    /// The current priority of a service.
    pub fn priority(&self, service: ServiceId) -> Result<Priority, LandscapeError> {
        self.priorities
            .get(service.index())
            .copied()
            .ok_or(LandscapeError::UnknownService { id: service })
    }

    // ---- raw mutations (no constraint checks) ------------------------------

    /// Start an instance of `service` on `server`, allocating a fresh
    /// virtual IP. Does **not** check constraints — use [`Landscape::apply`]
    /// for checked execution.
    pub fn start_instance(
        &mut self,
        service: ServiceId,
        server: ServerId,
    ) -> Result<InstanceId, LandscapeError> {
        self.service(service)?;
        self.server(server)?;
        let id = InstanceId::new(self.next_instance);
        self.next_instance += 1;
        let ip = VirtualIp::nth(self.next_ip);
        self.next_ip += 1;
        self.instances.insert(
            id,
            Instance {
                id,
                service,
                server,
                ip,
            },
        );
        self.revision += 1;
        Ok(id)
    }

    /// Stop an instance. Does **not** check constraints.
    pub fn stop_instance(&mut self, id: InstanceId) -> Result<Instance, LandscapeError> {
        let inst = self
            .instances
            .remove(&id)
            .ok_or(LandscapeError::UnknownInstance { id })?;
        self.revision += 1;
        Ok(inst)
    }

    /// Move an instance to `target`, rebinding its virtual IP. Does **not**
    /// check constraints.
    pub fn move_instance(
        &mut self,
        id: InstanceId,
        target: ServerId,
    ) -> Result<ServerId, LandscapeError> {
        self.server(target)?;
        let inst = self
            .instances
            .get_mut(&id)
            .ok_or(LandscapeError::UnknownInstance { id })?;
        let from = inst.server;
        inst.server = target;
        self.revision += 1;
        Ok(from)
    }

    // ---- checked execution --------------------------------------------------

    /// Check constraints and execute an action.
    ///
    /// This is the path the controller uses after the fuzzy decision
    /// (Section 4.1: "The first action of the list is selected and verified
    /// once more" — verification happens at execution time because the
    /// controller handles several exceptional situations concurrently).
    pub fn apply(&mut self, action: &Action) -> Result<ApplyOutcome, LandscapeError> {
        check_action(self, action)?;
        Ok(match *action {
            Action::Start { service, target } | Action::ScaleOut { service, target } => {
                ApplyOutcome::Started(self.start_instance(service, target)?)
            }
            Action::Stop { instance } | Action::ScaleIn { instance } => {
                self.stop_instance(instance)?;
                ApplyOutcome::Stopped(instance)
            }
            Action::ScaleUp { instance, target }
            | Action::ScaleDown { instance, target }
            | Action::Move { instance, target } => {
                let from = self.move_instance(instance, target)?;
                ApplyOutcome::Moved {
                    instance,
                    from,
                    to: target,
                }
            }
            Action::IncreasePriority { service } => {
                let p = self.priority(service)?.increased();
                self.priorities[service.index()] = p;
                self.revision += 1;
                ApplyOutcome::PriorityChanged {
                    service,
                    priority: p,
                }
            }
            Action::ReducePriority { service } => {
                let p = self.priority(service)?.reduced();
                self.priorities[service.index()] = p;
                self.revision += 1;
                ApplyOutcome::PriorityChanged {
                    service,
                    priority: p,
                }
            }
        })
    }

    /// True if `service` may run on `server` from a static-constraint point
    /// of view (minimum performance index, exclusivity, memory) — the
    /// candidate filter of the server-selection process (Section 4.2:
    /// "Initially, these are all servers on which an instance of the service
    /// can be started").
    pub fn can_host(&self, service: ServiceId, server: ServerId) -> bool {
        let Ok(svc) = self.service(service) else {
            return false;
        };
        let Ok(srv) = self.server(server) else {
            return false;
        };
        if !self.is_available(server) {
            return false;
        }
        if let Some(min_idx) = svc.min_performance_index {
            if srv.performance_index < min_idx {
                return false;
            }
        }
        // Exclusivity in both directions.
        let residents = self.instances_on(server);
        if svc.exclusive
            && residents
                .iter()
                .any(|i| self.instances[i].service != service)
        {
            return false;
        }
        for i in &residents {
            let other = self.instances[i].service;
            if other != service {
                if let Ok(o) = self.service(other) {
                    if o.exclusive {
                        return false;
                    }
                }
            }
        }
        // Memory.
        if self.memory_used_on(server) + svc.memory_per_instance_mb > srv.memory_mb {
            return false;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceKind;

    fn small_landscape() -> (Landscape, ServiceId, ServerId, ServerId) {
        let mut l = Landscape::new();
        let s1 = l.add_server(ServerSpec::fsc_bx300("Blade1")).unwrap();
        let s2 = l.add_server(ServerSpec::fsc_bx600("Blade2")).unwrap();
        let fi = l
            .add_service(ServiceSpec::new("FI", ServiceKind::ApplicationServer))
            .unwrap();
        (l, fi, s1, s2)
    }

    #[test]
    fn registration_and_lookup() {
        let (l, fi, s1, _s2) = small_landscape();
        assert_eq!(l.num_servers(), 2);
        assert_eq!(l.num_services(), 1);
        assert_eq!(l.server_by_name("Blade1").unwrap(), s1);
        assert_eq!(l.service_by_name("FI").unwrap(), fi);
        assert!(l.server_by_name("nope").is_err());
        assert!(l.service_by_name("nope").is_err());
        assert_eq!(l.server(s1).unwrap().name, "Blade1");
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut l = Landscape::new();
        l.add_server(ServerSpec::fsc_bx300("A")).unwrap();
        assert!(matches!(
            l.add_server(ServerSpec::fsc_bx600("A")),
            Err(LandscapeError::DuplicateServer { .. })
        ));
        l.add_service(ServiceSpec::new("S", ServiceKind::Generic))
            .unwrap();
        assert!(matches!(
            l.add_service(ServiceSpec::new("S", ServiceKind::Database)),
            Err(LandscapeError::DuplicateService { .. })
        ));
    }

    #[test]
    fn instances_get_unique_ips_that_survive_moves() {
        let (mut l, fi, s1, s2) = small_landscape();
        let i1 = l.start_instance(fi, s1).unwrap();
        let i2 = l.start_instance(fi, s1).unwrap();
        let ip1 = l.instance(i1).unwrap().ip;
        let ip2 = l.instance(i2).unwrap().ip;
        assert_ne!(ip1, ip2);
        // Move rebinds the host but keeps the service IP (Section 2).
        let from = l.move_instance(i1, s2).unwrap();
        assert_eq!(from, s1);
        let inst = l.instance(i1).unwrap();
        assert_eq!(inst.server, s2);
        assert_eq!(inst.ip, ip1);
    }

    #[test]
    fn instance_queries() {
        let (mut l, fi, s1, s2) = small_landscape();
        let i1 = l.start_instance(fi, s1).unwrap();
        let _i2 = l.start_instance(fi, s2).unwrap();
        assert_eq!(l.instance_count_of(fi), 2);
        assert_eq!(l.instance_count_on(s1), 1);
        assert_eq!(l.instances_of(fi).len(), 2);
        assert_eq!(l.instances_on(s1), vec![i1]);
        assert_eq!(l.num_instances(), 2);
        assert_eq!(l.memory_used_on(s1), 512);
    }

    #[test]
    fn stop_removes_instance() {
        let (mut l, fi, s1, _s2) = small_landscape();
        let i1 = l.start_instance(fi, s1).unwrap();
        let removed = l.stop_instance(i1).unwrap();
        assert_eq!(removed.id, i1);
        assert!(l.instance(i1).is_err());
        assert!(l.stop_instance(i1).is_err());
    }

    #[test]
    fn apply_scale_out_and_in() {
        let (mut l, fi, s1, s2) = small_landscape();
        let _i1 = l.start_instance(fi, s1).unwrap();
        let outcome = l
            .apply(&Action::ScaleOut {
                service: fi,
                target: s2,
            })
            .unwrap();
        let ApplyOutcome::Started(new_id) = outcome else {
            panic!("expected Started, got {outcome:?}")
        };
        assert_eq!(l.instance(new_id).unwrap().server, s2);
        let outcome = l.apply(&Action::ScaleIn { instance: new_id }).unwrap();
        assert_eq!(outcome, ApplyOutcome::Stopped(new_id));
    }

    #[test]
    fn apply_priority_changes() {
        let (mut l, fi, _s1, _s2) = small_landscape();
        assert_eq!(l.priority(fi).unwrap(), Priority::Normal);
        l.apply(&Action::IncreasePriority { service: fi }).unwrap();
        assert_eq!(l.priority(fi).unwrap(), Priority::High);
        l.apply(&Action::ReducePriority { service: fi }).unwrap();
        l.apply(&Action::ReducePriority { service: fi }).unwrap();
        assert_eq!(l.priority(fi).unwrap(), Priority::Low);
    }

    #[test]
    fn can_host_respects_min_performance_index() {
        let (mut l, _fi, s1, s2) = small_landscape();
        let db = l
            .add_service(
                ServiceSpec::new("DB", ServiceKind::Database).with_min_performance_index(2.0),
            )
            .unwrap();
        assert!(!l.can_host(db, s1), "BX300 (index 1) below minimum 2");
        assert!(l.can_host(db, s2), "BX600 (index 2) meets minimum");
    }

    #[test]
    fn can_host_respects_exclusivity_both_ways() {
        let (mut l, fi, s1, s2) = small_landscape();
        let db = l
            .add_service(ServiceSpec::new("DB", ServiceKind::Database).with_exclusive(true))
            .unwrap();
        // FI already on s1 → exclusive DB cannot join.
        l.start_instance(fi, s1).unwrap();
        assert!(!l.can_host(db, s1));
        assert!(l.can_host(db, s2));
        // DB on s2 → non-exclusive FI cannot join either.
        l.start_instance(db, s2).unwrap();
        assert!(!l.can_host(fi, s2));
        // A second DB instance may join its own host.
        assert!(l.can_host(db, s2));
    }

    #[test]
    fn can_host_respects_memory() {
        let (mut l, _fi, s1, _s2) = small_landscape();
        let fat = l
            .add_service(ServiceSpec::new("fat", ServiceKind::Generic).with_memory(1500))
            .unwrap();
        assert!(
            l.can_host(fat, s1),
            "2048 MB blade fits one 1500 MB instance"
        );
        l.start_instance(fat, s1).unwrap();
        assert!(!l.can_host(fat, s1), "no room for a second");
    }

    #[test]
    fn virtual_ip_formatting() {
        assert_eq!(VirtualIp::nth(0).to_string(), "10.0.0.1");
        assert_eq!(VirtualIp::nth(253).to_string(), "10.0.0.254");
        assert_eq!(VirtualIp::nth(254).to_string(), "10.0.1.1");
        assert_eq!(VirtualIp::nth(254).raw(), 254);
    }
}
