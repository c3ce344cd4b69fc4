//! The reusable workload engine behind the tick loop.
//!
//! [`WorkloadEngine`] owns everything the simulation knows about *load* —
//! the daily workload curves, the session tables users log into, the
//! request-flow demand model (application server → central instance →
//! database) and the per-server rolling windows — but nothing about
//! *control*. Each tick it turns the current landscape into a
//! [`TickLoads`] snapshot; whoever drives the engine (the `autoglobe`
//! crate's supervised, chaos and sharded runs, or a benchmark playing the
//! deployment agent) decides what to do with it.
//!
//! # Tick pipeline
//!
//! The tick is a partitioned, arena-based pipeline over dense `u32` id
//! indices (ids are already dense: `ServerId`/`ServiceId` are bounded by
//! the landscape, `InstanceId` by [`Landscape::instance_id_bound`]):
//!
//! 1. **Index rebuild** — instance → server, per-service instance lists
//!    and per-server memory use are refreshed into engine-owned scratch
//!    buffers (cleared, not reallocated: the steady-state tick allocates
//!    nothing).
//! 2. **Per-service session/demand generation** — sessions rebalance and
//!    the request-flow model accumulates per-instance demand, in workload
//!    order (sequential: it reads shared session state).
//! 3. **Per-server evaluation** — each server's raw load, memory load and
//!    rolling-window smoothing live in an independent `ServerLane`;
//!    this phase has disjoint write sets per server and fans across
//!    `SimConfig::inner_jobs` scoped threads.
//! 4. **Deterministic reduction** — every cross-server fold (load sum,
//!    demand totals, overload and peak accounting) runs sequentially in
//!    ascending server order, so the result is bit-identical at any
//!    thread count.

use crate::config::SimConfig;
use crate::metrics::{Metrics, OVERLOAD_LEVEL};
use crate::scenario_dsl::LoadModulation;
use crate::sessions::{DistributionMode, SessionTable};
use crate::workload::WorkloadSpec;
use autoglobe_controller::LoadView;
use autoglobe_landscape::{ApplyOutcome, InstanceId, Landscape, ServerId, ServiceId};
use autoglobe_monitor::{MeanWindow, SimDuration, SimTime, Subject};
use autoglobe_rng::Rng;
use std::collections::BTreeSet;

/// Minimum number of server lanes per worker thread in the parallel
/// per-server phase. A lane evaluation is tens of nanoseconds of arithmetic,
/// while spawning a scoped thread costs microseconds — on the paper's
/// 19-server landscape, `--inner-jobs 4` used to spend ~5× the sequential
/// tick time on spawns alone. Below `jobs × MIN_SERVERS_PER_LANE` servers
/// the fan-out clamps down (ultimately to the zero-overhead sequential
/// path), so `--inner-jobs N` can never regress below `--inner-jobs 1`.
pub const MIN_SERVERS_PER_LANE: usize = 256;

/// Sentinel in the instance → server arena for ids with no live instance.
const NO_SERVER: u32 = u32::MAX;

/// A workload with its service references resolved to ids.
#[derive(Debug, Clone)]
struct ResolvedWorkload {
    spec: WorkloadSpec,
    service: ServiceId,
    ci: Option<ServiceId>,
    db: Option<ServiceId>,
}

/// The per-tick load snapshot the engine produces: per-server CPU (raw and
/// watch-time-smoothed) and memory, per-service and per-instance CPU, plus
/// the landscape-wide average. Implements [`LoadView`], so it can be handed
/// straight to the fuzzy controller.
///
/// Storage is dense `Vec` arenas indexed by the raw id. Service and
/// instance entries are sparse in id space, so presence masks distinguish
/// "no live instance this tick" (absent — reads as 0.0 through
/// [`LoadView`], skipped by the entry iterators) from a genuine 0.0 load.
#[derive(Debug, Clone, Default)]
pub struct TickLoads {
    server_cpu: Vec<f64>,
    server_cpu_smoothed: Vec<f64>,
    server_mem: Vec<f64>,
    service_cpu: Vec<f64>,
    service_live: Vec<bool>,
    instance_cpu: Vec<f64>,
    instance_live: Vec<bool>,
    /// Mean raw CPU load over all servers this tick.
    pub average_cpu: f64,
}

impl TickLoads {
    /// Resize the arenas to the landscape's bounds and zero them, reusing
    /// the existing allocations.
    fn reset(&mut self, num_servers: usize, num_services: usize, instance_bound: usize) {
        self.server_cpu.clear();
        self.server_cpu.resize(num_servers, 0.0);
        self.server_cpu_smoothed.clear();
        self.server_cpu_smoothed.resize(num_servers, 0.0);
        self.server_mem.clear();
        self.server_mem.resize(num_servers, 0.0);
        self.service_cpu.clear();
        self.service_cpu.resize(num_services, 0.0);
        self.service_live.clear();
        self.service_live.resize(num_services, false);
        self.instance_cpu.clear();
        self.instance_cpu.resize(instance_bound, 0.0);
        self.instance_live.clear();
        self.instance_live.resize(instance_bound, false);
        self.average_cpu = 0.0;
    }

    /// Number of servers in the snapshot.
    pub fn num_servers(&self) -> usize {
        self.server_cpu.len()
    }

    /// Per-server `(id, raw cpu, mem)` in ascending server order.
    pub fn server_entries(&self) -> impl Iterator<Item = (ServerId, f64, f64)> + '_ {
        self.server_cpu
            .iter()
            .zip(&self.server_mem)
            .enumerate()
            .map(|(i, (&cpu, &mem))| (ServerId::new(i as u32), cpu, mem))
    }

    /// Per-service `(id, mean cpu)` for services with at least one live
    /// instance this tick, in ascending service order.
    pub fn service_entries(&self) -> impl Iterator<Item = (ServiceId, f64)> + '_ {
        self.service_cpu
            .iter()
            .zip(&self.service_live)
            .enumerate()
            .filter(|(_, (_, &live))| live)
            .map(|(i, (&cpu, _))| (ServiceId::new(i as u32), cpu))
    }

    /// Per-instance `(id, cpu share)` for instances that served demand
    /// this tick, in ascending instance order.
    pub fn instance_entries(&self) -> impl Iterator<Item = (InstanceId, f64)> + '_ {
        self.instance_cpu
            .iter()
            .zip(&self.instance_live)
            .enumerate()
            .filter(|(_, (_, &live))| live)
            .map(|(i, (&cpu, _))| (InstanceId::new(i as u32), cpu))
    }

    /// Raw CPU load of a server (0.0 when out of range, e.g. before the
    /// first tick).
    pub fn server_cpu_raw(&self, id: ServerId) -> f64 {
        self.server_cpu.get(id.index()).copied().unwrap_or(0.0)
    }

    /// Watch-time-smoothed CPU load of a server (the controller's view).
    pub fn server_smoothed(&self, id: ServerId) -> f64 {
        self.server_cpu_smoothed
            .get(id.index())
            .copied()
            .unwrap_or(0.0)
    }

    /// Memory load of a server.
    pub fn server_mem_of(&self, id: ServerId) -> f64 {
        self.server_mem.get(id.index()).copied().unwrap_or(0.0)
    }

    /// CPU share of an instance, `None` when the instance served no
    /// demand this tick (absent from the snapshot).
    pub fn instance_cpu_of(&self, id: InstanceId) -> Option<f64> {
        let idx = id.index();
        if self.instance_live.get(idx).copied().unwrap_or(false) {
            Some(self.instance_cpu[idx])
        } else {
            None
        }
    }
}

impl LoadView for TickLoads {
    fn cpu(&self, subject: Subject) -> f64 {
        match subject {
            // The controller sees the watch-time mean, not the last tick
            // ("set to the arithmetic means of the load values during the
            // service specific watchTime", Section 4.1).
            Subject::Server(id) => self.server_smoothed(id),
            Subject::Service(id) => {
                let idx = id.index();
                if self.service_live.get(idx).copied().unwrap_or(false) {
                    self.service_cpu[idx]
                } else {
                    0.0
                }
            }
            Subject::Instance(id) => self.instance_cpu_of(id).unwrap_or(0.0),
        }
    }

    fn mem(&self, subject: Subject) -> f64 {
        match subject {
            Subject::Server(id) => self.server_mem_of(id),
            _ => 0.0,
        }
    }
}

/// One server's slice of the per-server evaluation phase: the persistent
/// rolling window plus this tick's inputs and outputs. Lanes are the unit
/// the parallel phase chunks over — [`ServerLane::evaluate`] touches only
/// its own lane, so chunks have disjoint write sets by construction.
#[derive(Debug, Clone, Default)]
struct ServerLane {
    /// Watch-time window (overload accounting + controller smoothing).
    window: MeanWindow,
    // Inputs, filled sequentially before the fan-out.
    demand: f64,
    capacity: f64,
    memory_mb: u64,
    mem_used: u64,
    // Outputs, consumed by the sequential reduction.
    load: f64,
    mem: f64,
    smoothed: f64,
}

impl ServerLane {
    /// The pure per-server step: derive loads and advance the rolling
    /// window from this lane's own state only.
    fn evaluate(&mut self) {
        self.load = (self.demand / self.capacity).min(1.0);
        self.mem = if self.memory_mb == 0 {
            0.0
        } else {
            (self.mem_used as f64 / self.memory_mb as f64).min(1.0)
        };
        self.window.push(self.load);
        self.smoothed = self.window.mean();
    }
}

/// The SAP workload model of one run: daily curves, session tables and the
/// request-flow demand model, independent of any controller wiring.
#[derive(Debug)]
pub struct WorkloadEngine {
    workloads: Vec<ResolvedWorkload>,
    /// Session tables, indexed by service id.
    sessions: Vec<SessionTable>,
    /// Per-server state and scratch, indexed by server id.
    lanes: Vec<ServerLane>,
    last_loads: TickLoads,
    /// The *previous* snapshot, recycled as the write target of the next
    /// tick (double buffer — no per-tick clone).
    scratch_loads: TickLoads,
    mode: DistributionMode,
    fluctuation: f64,
    user_multiplier: f64,
    /// Compiled production-day scenario modulation; `None` is the seed
    /// path (bit-identical to a build without any scenario DSL).
    modulation: Option<LoadModulation>,
    startup_latency: SimDuration,
    tick: SimDuration,
    /// Worker threads for the per-server phase (resolved, >= 1).
    inner_jobs: usize,
    // ---- per-tick scratch arenas (cleared each tick, never reallocated
    // in steady state) ----
    /// Instance id → raw server id, [`NO_SERVER`] when absent.
    instance_server: Vec<u32>,
    /// Per-service instance lists, ascending instance order.
    service_instances: Vec<Vec<InstanceId>>,
    /// Per-instance accumulated CPU demand.
    instance_demand: Vec<f64>,
    /// Which instance ids received a demand entry this tick.
    instance_mask: Vec<bool>,
    /// Per-service backend (CI/DB) demand.
    backend_demand: Vec<f64>,
    /// Which services are backend targets this tick.
    backend_mask: Vec<bool>,
}

impl WorkloadEngine {
    /// Resolve the workload specs against `landscape` and seat the initial
    /// allocation's instances (immediately active).
    ///
    /// # Panics
    /// Panics when a workload references an unknown service.
    pub fn new(landscape: &Landscape, workloads: Vec<WorkloadSpec>, config: &SimConfig) -> Self {
        let mut resolved = Vec::with_capacity(workloads.len());
        for spec in workloads {
            let service = landscape
                .service_by_name(&spec.service)
                .expect("workload references a known service");
            let ci = spec
                .ci_service
                .as_deref()
                .map(|n| landscape.service_by_name(n).expect("known CI service"));
            let db = spec
                .db_service
                .as_deref()
                .map(|n| landscape.service_by_name(n).expect("known DB service"));
            resolved.push(ResolvedWorkload {
                spec,
                service,
                ci,
                db,
            });
        }

        let mode = config.scenario.distribution_mode();
        let mut sessions = Vec::with_capacity(landscape.num_services());
        for service in landscape.service_ids() {
            let mut table = SessionTable::new(mode);
            for instance in landscape.instances_of(service) {
                table.add_instance(instance);
            }
            sessions.push(table);
        }

        WorkloadEngine {
            workloads: resolved,
            sessions,
            lanes: Vec::new(),
            last_loads: TickLoads::default(),
            scratch_loads: TickLoads::default(),
            mode,
            fluctuation: config.scenario.fluctuation(),
            user_multiplier: config.user_multiplier,
            modulation: None,
            startup_latency: config.startup_latency,
            tick: config.tick,
            inner_jobs: autoglobe_pool::effective_jobs(config.inner_jobs),
            instance_server: Vec::new(),
            service_instances: Vec::new(),
            instance_demand: Vec::new(),
            instance_mask: Vec::new(),
            backend_demand: Vec::new(),
            backend_mask: Vec::new(),
        }
    }

    /// Install a compiled production-day scenario modulation
    /// ([`crate::ScenarioSpec::modulation`]). Identity modulations are
    /// dropped, so the seed path stays literally untouched: the jitter
    /// draw in [`WorkloadSpec::active_users`] does not depend on the hour
    /// or the target, which is what makes composition unable to perturb
    /// the RNG stream.
    pub fn set_modulation(&mut self, modulation: Option<LoadModulation>) {
        self.modulation = modulation.filter(|m| !m.is_identity());
    }

    /// The loads computed on the most recent [`WorkloadEngine::advance`]
    /// call (default-empty before the first tick) — the view restart-host
    /// selection and other out-of-band decisions read between ticks.
    pub fn last_loads(&self) -> &TickLoads {
        &self.last_loads
    }

    /// One tick of the workload model at `time`: sync session tables with
    /// the landscape, advance the daily curves, let users (re-)distribute
    /// over instances, run the request-flow demand model, and derive
    /// per-server/-service/-instance loads. Overload, peak-load and demand
    /// accounting is folded into `metrics`; `dead` instances (crashed but
    /// not yet detected) serve nothing. Returns the new snapshot, which
    /// stays readable through [`WorkloadEngine::last_loads`].
    pub fn advance(
        &mut self,
        landscape: &Landscape,
        dead: &BTreeSet<InstanceId>,
        time: SimTime,
        rng: &mut Rng,
        metrics: &mut Metrics,
    ) -> &TickLoads {
        let hour = time.hour_of_day();
        let tick_secs = self.tick.as_secs() as f64;
        let num_servers = landscape.num_servers();
        let num_services = landscape.num_services();
        let instance_bound = landscape.instance_id_bound() as usize;

        // ---- 0. rebuild the dense index arenas ----------------------------
        self.instance_server.clear();
        self.instance_server.resize(instance_bound, NO_SERVER);
        if self.service_instances.len() < num_services {
            self.service_instances.resize_with(num_services, Vec::new);
        }
        for list in &mut self.service_instances {
            list.clear();
        }
        if self.lanes.len() < num_servers {
            self.lanes.resize_with(num_servers, ServerLane::default);
        }
        for (i, server) in landscape.server_ids().enumerate() {
            let spec = landscape.server(server).expect("server");
            let lane = &mut self.lanes[i];
            lane.demand = 0.0;
            lane.capacity = spec.performance_index;
            lane.memory_mb = spec.memory_mb;
            lane.mem_used = 0;
        }
        for inst in landscape.instances() {
            self.instance_server[inst.id.index()] = inst.server.raw();
            self.service_instances[inst.service.index()].push(inst.id);
            // Replaces the per-server `memory_used_on` scans: one pass,
            // exact (u64 sums are order-independent).
            self.lanes[inst.server.index()].mem_used += landscape
                .service(inst.service)
                .map(|s| s.memory_per_instance_mb)
                .unwrap_or(0);
        }

        // ---- 1. sessions follow the workload curves -----------------------
        self.sync_sessions(dead, time, num_services);
        {
            let last = &self.last_loads;
            let instance_server = &self.instance_server;
            let lanes = &self.lanes;
            let sessions = &mut self.sessions;
            let fluctuation = self.fluctuation;
            let user_multiplier = self.user_multiplier;
            let modulation = self.modulation.as_ref();
            let time_hours = time.as_secs() as f64 / 3600.0;
            for (wi, w) in self.workloads.iter().enumerate() {
                let target = match modulation {
                    None => w.spec.active_users(hour, user_multiplier, rng),
                    Some(m) => {
                        let curve_hour = m.effective_hour(wi, hour);
                        let raw = w.spec.active_users(curve_hour, user_multiplier, rng);
                        m.apply(wi, time_hours, hour, raw)
                    }
                };
                let table = &mut sessions[w.service.index()];
                // The capacity an instance can offer its users is its host's
                // power minus what *other* services on that host consume —
                // SAP logon groups balance on response time, which reflects
                // exactly this effective capacity.
                let lookup = |instance: InstanceId| {
                    let (load, capacity) = match instance_server.get(instance.index()) {
                        Some(&srv) if srv != NO_SERVER => (
                            last.server_cpu_raw(ServerId::new(srv)),
                            lanes[srv as usize].capacity,
                        ),
                        _ => (0.0, 1.0),
                    };
                    let own = last.instance_cpu_of(instance).unwrap_or(0.0);
                    let foreign = (load - own).max(0.0);
                    (load, capacity * (1.0 - foreign).max(0.05))
                };
                table.rebalance(target, time, fluctuation, &lookup);
            }
        }

        // ---- 2. demand model ----------------------------------------------
        self.instance_demand.clear();
        self.instance_demand.resize(instance_bound, 0.0);
        self.instance_mask.clear();
        self.instance_mask.resize(instance_bound, false);
        // Application instances: base + per-user demand.
        for w in &self.workloads {
            let spec = landscape.service(w.service).expect("service");
            let load_scale = w.spec.load_scale(self.user_multiplier);
            let table = &self.sessions[w.service.index()];
            for &instance in &self.service_instances[w.service.index()] {
                if dead.contains(&instance) {
                    continue;
                }
                let users = table.users_on(instance);
                let demand = spec.base_load + users * spec.load_per_user * load_scale;
                self.instance_demand[instance.index()] += demand;
                self.instance_mask[instance.index()] = true;
            }
        }
        // Central instances and databases: coupled to the member services'
        // logged-in users ("Before handling the request in the database, the
        // lock management of the central instance is requested").
        self.backend_demand.clear();
        self.backend_demand.resize(num_services, 0.0);
        self.backend_mask.clear();
        self.backend_mask.resize(num_services, false);
        for w in &self.workloads {
            let users = self.sessions[w.service.index()].total_users();
            let load_scale = w.spec.load_scale(self.user_multiplier);
            if let Some(ci) = w.ci {
                self.backend_demand[ci.index()] += users * w.spec.ci_load_per_user * load_scale;
                self.backend_mask[ci.index()] = true;
            }
            if let Some(db) = w.db {
                self.backend_demand[db.index()] += users * w.spec.db_load_per_user * load_scale;
                self.backend_mask[db.index()] = true;
            }
        }
        for s in 0..num_services {
            if !self.backend_mask[s] {
                continue;
            }
            let live = self.service_instances[s]
                .iter()
                .filter(|i| !dead.contains(i))
                .count();
            if live == 0 {
                continue;
            }
            let service = ServiceId::new(s as u32);
            let spec = landscape.service(service).expect("service");
            let share = self.backend_demand[s] / live as f64;
            for &instance in &self.service_instances[s] {
                if dead.contains(&instance) {
                    continue;
                }
                self.instance_demand[instance.index()] += spec.base_load + share;
                self.instance_mask[instance.index()] = true;
            }
        }

        // ---- 3. per-server evaluation -------------------------------------
        // Demand aggregation, ascending instance order (the same
        // accumulation order as always).
        for idx in 0..instance_bound {
            if !self.instance_mask[idx] {
                continue;
            }
            let srv = self.instance_server[idx];
            if srv != NO_SERVER {
                self.lanes[srv as usize].demand += self.instance_demand[idx];
            }
        }
        // The parallel phase: each lane is evaluated purely from its own
        // state, so chunking the lane slice gives disjoint write sets and
        // a bit-identical result at any `inner_jobs`. The per-lane minimum
        // keeps small arenas on the sequential path (see
        // [`MIN_SERVERS_PER_LANE`]).
        autoglobe_pool::parallel_chunks_mut_min(
            self.inner_jobs,
            MIN_SERVERS_PER_LANE,
            &mut self.lanes[..num_servers],
            |_, chunk| {
                for lane in chunk {
                    lane.evaluate();
                }
            },
        );

        // ---- 4. deterministic reduction, ascending server order -----------
        let cur = &mut self.scratch_loads;
        cur.reset(num_servers, num_services, instance_bound);
        let tick_secs_int = self.tick.as_secs();
        let mut load_sum = 0.0;
        for (i, lane) in self.lanes[..num_servers].iter().enumerate() {
            let server = ServerId::new(i as u32);
            load_sum += lane.load;
            metrics.total_demand += lane.demand * tick_secs;
            if lane.demand > lane.capacity {
                metrics.unserved_demand += (lane.demand - lane.capacity) * tick_secs;
            }
            cur.server_cpu[i] = lane.load;
            cur.server_mem[i] = lane.mem;
            cur.server_cpu_smoothed[i] = lane.smoothed;
            if lane.smoothed > OVERLOAD_LEVEL {
                *metrics.overload_secs.entry(server).or_insert(0) += tick_secs_int;
                *metrics
                    .overload_secs_by_day
                    .entry((server, time.day()))
                    .or_insert(0) += tick_secs_int;
            }
            let peak = metrics.peak_load.entry(server).or_insert(0.0);
            if lane.load > *peak {
                *peak = lane.load;
            }
        }
        cur.average_cpu = load_sum / num_servers.max(1) as f64;

        // Instance shares and per-service averages.
        for idx in 0..instance_bound {
            if !self.instance_mask[idx] {
                continue;
            }
            let capacity = self.lanes[self.instance_server[idx] as usize].capacity;
            cur.instance_cpu[idx] = (self.instance_demand[idx] / capacity).min(1.0);
            cur.instance_live[idx] = true;
        }
        for s in 0..num_services {
            let mut live = 0usize;
            let mut sum = 0.0;
            for &instance in &self.service_instances[s] {
                if dead.contains(&instance) {
                    continue;
                }
                live += 1;
                if cur.instance_live[instance.index()] {
                    sum += cur.instance_cpu[instance.index()];
                }
            }
            if live > 0 {
                cur.service_cpu[s] = sum / live as f64;
                cur.service_live[s] = true;
            }
        }

        // Publish: the previous snapshot becomes the next tick's write
        // target (double buffer instead of the old full clone).
        std::mem::swap(&mut self.last_loads, &mut self.scratch_loads);
        &self.last_loads
    }

    /// Keep session tables and landscape instances in sync. Dead instances
    /// (crashed but not yet detected) accept no logins. Reads the
    /// per-service instance lists rebuilt at the top of the tick.
    fn sync_sessions(&mut self, dead: &BTreeSet<InstanceId>, now: SimTime, num_services: usize) {
        let mode = self.mode;
        if self.sessions.len() < num_services {
            self.sessions
                .resize_with(num_services, || SessionTable::new(mode));
        }
        let ready_at = now + self.startup_latency;
        for s in 0..num_services {
            let live = &self.service_instances[s];
            let table = &mut self.sessions[s];
            // Remove vanished instances (users re-login next rebalance).
            let stale: Vec<InstanceId> = table.instances().filter(|i| !live.contains(i)).collect();
            for instance in stale {
                table.remove_instance(instance);
            }
            // Add unknown instances as starting up.
            for &instance in live {
                if !dead.contains(&instance) && !table.instances().any(|i| i == instance) {
                    table.add_starting_instance(instance, ready_at);
                }
            }
        }
    }

    /// Mirror a controller action into session state: started instances
    /// accept users after the start-up latency, stopped instances drop
    /// theirs. Moves keep sessions (the virtual IP travels with the
    /// instance); priority changes have no session effect.
    pub fn note_action(&mut self, outcome: &ApplyOutcome, landscape: &Landscape, now: SimTime) {
        match *outcome {
            ApplyOutcome::Started(instance) => {
                if let Ok(inst) = landscape.instance(instance) {
                    let ready_at = now + self.startup_latency;
                    if let Some(table) = self.sessions.get_mut(inst.service.index()) {
                        table.add_starting_instance(instance, ready_at);
                    }
                }
            }
            ApplyOutcome::Stopped(instance) => {
                for table in &mut self.sessions {
                    table.remove_instance(instance);
                }
            }
            ApplyOutcome::Moved { .. } | ApplyOutcome::PriorityChanged { .. } => {}
        }
    }

    /// Sever every session on a failed instance and return the stranded
    /// user count (they must re-login once capacity recovers).
    pub fn sever_sessions(&mut self, landscape: &Landscape, instance: InstanceId) -> f64 {
        if let Ok(inst) = landscape.instance(instance) {
            if let Some(table) = self.sessions.get_mut(inst.service.index()) {
                return table.remove_instance(instance);
            }
        }
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sap::build_environment;
    use crate::scenario::Scenario;

    /// Regression for the double-buffered snapshot (previously
    /// `last_loads = loads.clone()` every tick): `last_loads` must always
    /// expose the tick that just ran, and publishing a new tick must not
    /// mutate snapshots cloned from earlier ticks — the engine recycles the
    /// *other* buffer.
    #[test]
    fn swap_publishes_each_tick_without_clobbering_prior_snapshots() {
        let env = build_environment(Scenario::FullMobility);
        let (landscape, workloads) = (env.landscape, env.workloads);
        let config = SimConfig::paper(Scenario::FullMobility, 1.15);
        let mut engine = WorkloadEngine::new(&landscape, workloads, &config);
        let mut rng = Rng::seed_from_u64(config.seed);
        let mut metrics = Metrics::default();
        let dead = BTreeSet::new();
        let tick = config.tick;

        // Before the first tick the snapshot is empty (rebalance falls back
        // to zero loads, as ever).
        assert_eq!(engine.last_loads().num_servers(), 0);

        let mut time = SimTime::ZERO;
        time += tick;
        let first: TickLoads = engine
            .advance(&landscape, &dead, time, &mut rng, &mut metrics)
            .clone();
        assert_eq!(
            first.average_cpu.to_bits(),
            engine.last_loads().average_cpu.to_bits(),
            "last_loads must be the snapshot advance returned"
        );

        // Run to mid-morning so the daily curve has visibly moved.
        let mut second = TickLoads::default();
        for _ in 0..(9 * 60) {
            time += tick;
            second = engine
                .advance(&landscape, &dead, time, &mut rng, &mut metrics)
                .clone();
        }
        assert_eq!(
            second.average_cpu.to_bits(),
            engine.last_loads().average_cpu.to_bits()
        );
        assert_ne!(
            first.average_cpu.to_bits(),
            second.average_cpu.to_bits(),
            "the workload must have moved between tick 1 and mid-morning"
        );
        // The tick-1 clone still holds tick-1 values: later swaps recycled
        // the other buffer instead of writing through the published one.
        let srv = ServerId::new(0);
        assert_eq!(first.num_servers(), landscape.num_servers());
        assert!(first.server_smoothed(srv) >= 0.0);
    }
}
