//! The AutoGlobe controller: the full interaction of Figure 6.
//!
//! Detection of an exceptional situation → selection of an action (fuzzy
//! controller #1) → if needed, selection of a host (fuzzy controller #2) →
//! constraint verification → execution — with fallback to the next host and
//! then the next action on failure, protection of the involved entities on
//! success, and an administrator alert when nothing sufficiently applicable
//! remains.

use crate::cache::{ScoreCache, ScoreCacheStats};
use crate::executor::{DecidedAction, PlannedTrigger};
use crate::index::HostIndex;
use crate::inputs::{ActionInputs, LoadView, ServerInputs};
use crate::log::{ActionRecord, ControllerEvent};
use crate::protection::ProtectionRegistry;
use crate::rulebase::RuleBases;
use crate::selection::{ActionSelector, RankedAction, ServerSelector};
use autoglobe_fuzzy::EngineConfig;
use autoglobe_landscape::{
    check_action, Action, ActionKind, ApplyOutcome, InstanceId, Landscape, LandscapeError,
    ServerId, ServerSpec, ServiceId,
};
use autoglobe_monitor::{SimDuration, SimTime, Subject, TriggerEvent, TriggerKind};

/// Tunables of the controller.
#[derive(Debug, Clone, Copy)]
pub struct ControllerConfig {
    /// Actions below this applicability are discarded — "an
    /// administrator-controlled minimum threshold" (Section 4.1).
    pub min_applicability: f64,
    /// Target hosts scoring below this are not considered (Section 4.2's
    /// "sufficient applicability" for hosts).
    pub min_host_score: f64,
    /// How long involved services and servers are protected after an action
    /// (Section 5.1: 30 minutes).
    pub protection_time: SimDuration,
    /// Fuzzy engine configuration (inference method, defuzzifier).
    pub engine: EngineConfig,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            min_applicability: 0.4,
            min_host_score: 0.2,
            protection_time: SimDuration::from_minutes(30),
            engine: EngineConfig::default(),
        }
    }
}

/// Automatic vs. semi-automatic operation (Section 4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutionMode {
    /// Log and execute immediately.
    #[default]
    Automatic,
    /// Queue actions; a human confirms via
    /// [`AutoGlobeController::confirm_pending`].
    SemiAutomatic,
}

/// An action awaiting administrator confirmation (semi-automatic mode).
#[derive(Debug, Clone, PartialEq)]
pub struct PendingAction {
    /// Identifier for confirm/reject calls.
    pub id: u64,
    /// When it was proposed.
    pub time: SimTime,
    /// The trigger that led to it.
    pub trigger: TriggerKind,
    /// The proposed action.
    pub action: Action,
    /// Fuzzy applicability of the action.
    pub applicability: f64,
    /// Host score, if a target was selected.
    pub host_score: Option<f64>,
}

/// The result of handling one trigger.
#[derive(Debug, Clone, Default)]
pub struct TriggerOutcome {
    /// Actions that were executed (empty in semi-automatic mode).
    pub executed: Vec<ActionRecord>,
    /// Everything logged while handling the trigger (including rejections
    /// and alerts).
    pub events: Vec<ControllerEvent>,
}

impl TriggerOutcome {
    /// True if at least one action was executed.
    pub fn acted(&self) -> bool {
        !self.executed.is_empty()
    }
}

/// One candidate produced by the action-selection phase.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    service: ServiceId,
    /// The instance the action would operate on (None for scale-out/start
    /// style actions that create instances).
    instance: Option<InstanceId>,
    kind: ActionKind,
    applicability: f64,
}

/// The complete AutoGlobe controller.
#[derive(Debug)]
pub struct AutoGlobeController {
    action_selector: ActionSelector,
    server_selector: ServerSelector,
    protection: ProtectionRegistry,
    config: ControllerConfig,
    mode: ExecutionMode,
    log: Vec<ControllerEvent>,
    pending: Vec<PendingAction>,
    next_pending_id: u64,
    /// Cross-trigger fuzzy-score cache: one exact verdict per engine slot
    /// and server, which no landscape revision flushes.
    score_cache: ScoreCache,
    /// Cross-trigger [`HostIndex`] memo, keyed by the landscape revision it
    /// is current for. The index is a pure function of the allocation, and
    /// every landscape mutation bumps the revision, so a revision hit
    /// replays the identical index a fresh build would produce. The
    /// controller's own instance mutations patch it and move its key along
    /// ([`Self::mutate`]); any other mutation leaves it stale, and its next
    /// use rebuilds it. The controller assumes it is driven against one
    /// landscape, which every supervisor upholds.
    host_index: Option<(u64, HostIndex)>,
}

/// What one mutation did to the allocation: instance `.0` of service `.1`
/// left server `.2` (when it ran before) and runs on server `.3` (when it
/// still runs) — the arguments of [`HostIndex::relocate`].
pub(crate) type Relocation = (InstanceId, ServiceId, Option<ServerId>, Option<ServerId>);

impl AutoGlobeController {
    /// A controller with the paper's default rule bases and configuration.
    pub fn new() -> Self {
        Self::with_rule_bases(RuleBases::paper_defaults(), ControllerConfig::default())
    }

    /// A controller with explicit rule bases and configuration.
    pub fn with_rule_bases(rule_bases: RuleBases, config: ControllerConfig) -> Self {
        AutoGlobeController {
            action_selector: ActionSelector::new(rule_bases.clone(), config.engine),
            server_selector: ServerSelector::new(rule_bases, config.engine),
            protection: ProtectionRegistry::new(),
            config,
            mode: ExecutionMode::Automatic,
            log: Vec::new(),
            pending: Vec::new(),
            next_pending_id: 0,
            score_cache: ScoreCache::default(),
            host_index: None,
        }
    }

    /// Counters and sizes of the cross-trigger score cache.
    pub fn score_cache_stats(&self) -> ScoreCacheStats {
        self.score_cache.stats()
    }

    /// Flush the cross-trigger score cache. Landscape changes need no
    /// flush: a verdict is checked against all ten input lanes, so it stays
    /// exact across any allocation change. Call this after swapping rule
    /// bases or engine configuration out from under the controller.
    pub fn clear_score_cache(&mut self) {
        self.score_cache.clear();
    }

    /// Switch between automatic and semi-automatic operation.
    pub fn set_mode(&mut self, mode: ExecutionMode) {
        self.mode = mode;
    }

    /// The current execution mode.
    pub fn mode(&self) -> ExecutionMode {
        self.mode
    }

    /// The controller configuration.
    pub fn config(&self) -> ControllerConfig {
        self.config
    }

    /// The protection registry (read access for consoles and tests).
    pub fn protection(&self) -> &ProtectionRegistry {
        &self.protection
    }

    /// Manually protect a subject (administrator override).
    pub fn protect(&mut self, subject: Subject, now: SimTime, duration: SimDuration) {
        self.protection.protect(subject, now, duration);
    }

    /// The full event log, oldest first.
    pub fn log(&self) -> &[ControllerEvent] {
        &self.log
    }

    /// Drain the event log (consoles poll this).
    pub fn drain_log(&mut self) -> Vec<ControllerEvent> {
        std::mem::take(&mut self.log)
    }

    /// Actions awaiting confirmation (semi-automatic mode).
    pub fn pending(&self) -> &[PendingAction] {
        &self.pending
    }

    /// Append to the event log (used by the recovery path).
    pub(crate) fn push_log(&mut self, event: ControllerEvent) {
        self.log.push(event);
    }

    /// Mutable access to the server-selection controller (used by the
    /// recovery path to score restart targets).
    pub(crate) fn server_selector_mut(&mut self) -> &mut ServerSelector {
        &mut self.server_selector
    }

    /// Handle one confirmed trigger: the complete Figure 6 flow, as
    /// [`AutoGlobeController::plan_trigger`] followed by
    /// [`AutoGlobeController::commit`].
    pub fn handle_trigger(
        &mut self,
        event: &TriggerEvent,
        landscape: &mut Landscape,
        loads: &dyn LoadView,
        now: SimTime,
    ) -> TriggerOutcome {
        let planned = self.plan_trigger(event, landscape, loads, now);
        self.commit(planned, landscape, now)
    }

    /// Carry out a planned trigger synchronously: apply the decided action
    /// and protect the entities involved (automatic mode), or queue it for
    /// administrator confirmation (semi-automatic mode). The outcome's
    /// events start with the planning events. Committing against the
    /// landscape the plan was made on cannot fail; if the landscape changed
    /// in between, a failed apply is logged as a rejection.
    pub fn commit(
        &mut self,
        planned: PlannedTrigger,
        landscape: &mut Landscape,
        now: SimTime,
    ) -> TriggerOutcome {
        let PlannedTrigger { decided, events } = planned;
        let mut outcome = TriggerOutcome {
            executed: Vec::new(),
            events,
        };
        let Some(decided) = decided else {
            return outcome;
        };
        let event = match self.mode {
            ExecutionMode::SemiAutomatic => {
                self.pending.push(PendingAction {
                    id: self.next_pending_id,
                    time: now,
                    trigger: decided.trigger,
                    action: decided.action,
                    applicability: decided.applicability,
                    host_score: decided.host_score,
                });
                self.next_pending_id += 1;
                let e = ControllerEvent::PendingConfirmation {
                    time: now,
                    action: decided.action,
                };
                self.log.push(e.clone());
                e
            }
            ExecutionMode::Automatic => match self.apply_action(
                decided.action,
                decided.trigger,
                decided.applicability,
                decided.host_score,
                landscape,
                now,
            ) {
                Ok(record) => {
                    outcome.executed.push(record.clone());
                    ControllerEvent::Executed(record)
                }
                Err(err) => self.reject(now, decided.action, err),
            },
        };
        outcome.events.push(event);
        outcome
    }

    /// Plan one confirmed trigger without touching the landscape: the
    /// complete Figure 6 flow up to — but not including — execution. The
    /// winning candidate is returned as a [`DecidedAction`] (carrying the
    /// remaining ranked hosts as retry alternates) for an
    /// [`crate::ActionExecutor`] to carry out asynchronously.
    ///
    /// [`AutoGlobeController::handle_trigger`] commits the same plan
    /// synchronously, so a zero-latency, infallible executor reproduces the
    /// synchronous path bit for bit.
    pub fn plan_trigger(
        &mut self,
        event: &TriggerEvent,
        landscape: &Landscape,
        loads: &dyn LoadView,
        now: SimTime,
    ) -> PlannedTrigger {
        let mut planned = PlannedTrigger::default();
        self.protection.expire(now);

        if let Some(until) = self.protection.protected_until(event.subject, now) {
            let e = ControllerEvent::SuppressedByProtection {
                time: now,
                trigger: event.kind,
                protected_until: until,
            };
            self.log.push(e.clone());
            planned.events.push(e);
            return planned;
        }

        let index = self.take_index(landscape);
        let mut candidates = self.collect_candidates(event, landscape, loads, now, &index);
        self.put_index(landscape, index);
        candidates.retain(|c| c.applicability >= self.config.min_applicability);
        candidates.sort_unstable_by(candidate_order);

        if candidates.is_empty() {
            if event.kind.is_overload() {
                let message = format!(
                    "no action with applicability ≥ {:.0}% for {}",
                    self.config.min_applicability * 100.0,
                    event.subject
                );
                planned.events.push(self.alert(now, event.kind, message));
            }
            return planned;
        }

        for candidate in &candidates {
            if let Some(decided) =
                self.plan_candidate(candidate, event, landscape, loads, now, &mut planned.events)
            {
                planned.decided = Some(decided);
                return planned;
            }
        }

        if event.kind.is_overload() {
            let message = format!(
                "all {} candidate action(s) failed verification for {}",
                candidates.len(),
                event.subject
            );
            planned.events.push(self.alert(now, event.kind, message));
        }
        planned
    }

    /// Phase 2 for one candidate: concretize it against each ranked host
    /// best-first (once, for untargeted actions) and decide on the first
    /// action that passes constraint verification. Every failed check is
    /// logged as a rejection, wrapped like `Landscape::apply` reports it.
    fn plan_candidate(
        &mut self,
        candidate: &Candidate,
        event: &TriggerEvent,
        landscape: &Landscape,
        loads: &dyn LoadView,
        now: SimTime,
        events: &mut Vec<ControllerEvent>,
    ) -> Option<DecidedAction> {
        let service_name = landscape.service(candidate.service).ok()?.name.clone();
        let targeted = candidate.kind.needs_target();
        let hosts = if targeted {
            self.rank_hosts(candidate, &service_name, landscape, loads, now)
        } else {
            vec![(ServerId::new(0), 0.0)]
        };
        for (idx, &(host, score)) in hosts.iter().enumerate() {
            let Some(action) = concretize(candidate, host) else {
                continue;
            };
            match check_action(landscape, &action) {
                Ok(()) => {
                    return Some(DecidedAction {
                        action,
                        trigger: event.kind,
                        applicability: candidate.applicability,
                        host_score: targeted.then_some(score),
                        alternates: hosts[idx + 1..].to_vec(),
                    })
                }
                Err(violation) => {
                    events.push(self.reject(now, action, LandscapeError::from(violation)))
                }
            }
        }
        None
    }

    /// Gather ranked candidates for the trigger, per Figure 7: a service
    /// trigger considers only that service; a server trigger runs the fuzzy
    /// controller for each service on the host and merges the action lists.
    fn collect_candidates(
        &mut self,
        event: &TriggerEvent,
        landscape: &Landscape,
        loads: &dyn LoadView,
        now: SimTime,
        index: &HostIndex,
    ) -> Vec<Candidate> {
        let mut out = Vec::new();
        // Protected services are "excluded from further actions" (Section
        // 4): they produce no candidates even when another subject's
        // trigger would otherwise involve them.
        let consider = |this: &mut Self,
                        service: ServiceId,
                        instance: InstanceId,
                        out: &mut Vec<Candidate>| {
            if this.protection.is_protected(Subject::Service(service), now) {
                return;
            }
            this.rank_service(event.kind, landscape, loads, service, instance, index, out);
        };
        match event.subject {
            Subject::Service(service) => {
                let prefer = None;
                if let Some(instance) =
                    representative_instance(landscape, index, loads, service, event.kind, prefer)
                {
                    consider(self, service, instance, &mut out);
                }
            }
            Subject::Instance(instance) => {
                if let Ok(inst) = landscape.instance(instance) {
                    let service = inst.service;
                    consider(self, service, instance, &mut out);
                }
            }
            Subject::Server(server) => {
                // One fuzzy evaluation per service on the host.
                let mut seen = std::collections::BTreeSet::new();
                for &instance_id in index.instances_on(server) {
                    let Ok(inst) = landscape.instance(instance_id) else {
                        continue;
                    };
                    if seen.insert(inst.service) {
                        consider(self, inst.service, instance_id, &mut out);
                    }
                }
            }
        }
        out
    }

    #[allow(clippy::too_many_arguments)]
    fn rank_service(
        &mut self,
        trigger: TriggerKind,
        landscape: &Landscape,
        loads: &dyn LoadView,
        service: ServiceId,
        instance: InstanceId,
        index: &HostIndex,
        out: &mut Vec<Candidate>,
    ) {
        let Ok(spec) = landscape.service(service) else {
            return;
        };
        let Some(inputs) = gather_action_inputs(landscape, index, loads, service, instance) else {
            return;
        };
        let Ok(ranked) = self.action_selector.rank(trigger, &spec.name, &inputs) else {
            return;
        };
        for RankedAction {
            kind,
            applicability,
        } in ranked
        {
            // "The fuzzy controller only considers actions that do not
            // violate any given constraint" — the declarative allowed-action
            // sets filter here; stateful constraints are re-verified at
            // execution time.
            if applicability <= 0.0 || !spec.allows(kind) {
                continue;
            }
            let instance_for_action = if kind_uses_instance(kind) {
                Some(instance)
            } else {
                None
            };
            out.push(Candidate {
                service,
                instance: instance_for_action,
                kind,
                applicability,
            });
        }
    }

    /// Score all eligible hosts for a candidate, best first. Runs the
    /// indexed path: the memoized [`HostIndex`] (rebuilt in
    /// O(instances + servers) only when it is stale), then constant-time
    /// constraint prefilters and cached fuzzy scoring per server —
    /// bit-identical to the exhaustive scan (see
    /// [`AutoGlobeController::rank_hosts_exhaustive`]).
    fn rank_hosts(
        &mut self,
        candidate: &Candidate,
        service_name: &str,
        landscape: &Landscape,
        loads: &dyn LoadView,
        now: SimTime,
    ) -> Vec<(ServerId, f64)> {
        let index = self.take_index(landscape);
        let ranked = self.rank_hosts_over(candidate, service_name, landscape, loads, now, &index);
        self.put_index(landscape, index);
        ranked
    }

    /// The revision-keyed [`HostIndex`] memo, take side: reuse the cached
    /// index while it is current, and rebuild it after any landscape
    /// mutation that [`Self::mutate`] did not patch in.
    pub(crate) fn take_index(&mut self, landscape: &Landscape) -> HostIndex {
        match self.host_index.take() {
            Some((cached, index)) if cached == landscape.revision() => index,
            // A stale index still owns every buffer the rebuild needs.
            Some((_, mut stale)) => {
                stale.rebuild(landscape);
                stale
            }
            None => HostIndex::build(landscape),
        }
    }

    /// Put side of the memo: re-key the index at the landscape's current
    /// revision. Callers never mutate the landscape while holding the index,
    /// so the revision read here is the one the index was valid for.
    pub(crate) fn put_index(&mut self, landscape: &Landscape, index: HostIndex) {
        self.host_index = Some((landscape.revision(), index));
    }

    /// Every instance mutation the controller makes goes through here:
    /// apply `mutation`, then patch the [`HostIndex`] memo with the
    /// [`Relocation`] that `relocation` reads off its result (`None`: the
    /// allocation did not change, as for a priority change). The memo is
    /// patched and stays current only when it was current right before the
    /// mutation and the mutation moved the revision by exactly one;
    /// otherwise it stays stale and its next use rebuilds it. A failed
    /// mutation changes nothing.
    pub(crate) fn mutate<T>(
        &mut self,
        landscape: &mut Landscape,
        mutation: impl FnOnce(&mut Landscape) -> Result<T, LandscapeError>,
        relocation: impl FnOnce(&T, &Landscape) -> Option<Relocation>,
    ) -> Result<T, LandscapeError> {
        let before = landscape.revision();
        let result = mutation(landscape)?;
        if let Some((revision, index)) = &mut self.host_index {
            if *revision == before && landscape.revision() == before + 1 {
                if let Some((instance, service, from, to)) = relocation(&result, landscape) {
                    index.relocate(landscape, instance, service, from, to);
                }
                *revision = before + 1;
            }
        }
        Ok(result)
    }

    /// The indexed ranking pass over a prebuilt [`HostIndex`], in one walk
    /// of the servers: the exhaustive scan's constraint prefilters in its
    /// order, the dense lane gather, a skip for rows with a non-finite lane,
    /// and the server's verdict check. The misses go to a **single**
    /// column-wise engine cycle ([`ServerSelector::score_batch`]), whose
    /// scores are stored as their verdicts; then one sort. Allocation
    /// changes need no flush: a server whose `instancesOnServer` moved
    /// misses on that lane, every other server hits.
    fn rank_hosts_over(
        &mut self,
        candidate: &Candidate,
        service_name: &str,
        landscape: &Landscape,
        loads: &dyn LoadView,
        now: SimTime,
        index: &HostIndex,
    ) -> Vec<(ServerId, f64)> {
        let slot = {
            let key = self
                .server_selector
                .engine_key(candidate.kind, service_name);
            self.score_cache.engine_slot(candidate.kind, key)
        };
        let current_host = candidate
            .instance
            .and_then(|i| landscape.instance(i).ok().map(|inst| inst.server));
        let current_index = current_host
            .and_then(|h| landscape.server(h).ok())
            .map(|s| s.performance_index);

        // The protection set is snapshotted once (it is a handful of
        // recently rearranged subjects) so the per-server probe is a
        // binary search of a tiny array, not a tree walk.
        let protected = self.protection.protected_servers(now);
        let min_score = self.config.min_host_score;
        let mut scored = Vec::new();
        let mut misses: Vec<(ServerId, [u64; 10])> = Vec::new();
        let mut rows: Vec<ServerInputs> = Vec::new();
        for server in landscape.server_ids() {
            if protected.binary_search(&server).is_ok() {
                continue;
            }
            if Some(server) == current_host {
                continue;
            }
            if !index.can_host(landscape, candidate.service, server) {
                continue;
            }
            if candidate.kind == ActionKind::ScaleOut
                && index.runs_service(server, candidate.service)
            {
                continue;
            }
            let Ok(spec) = landscape.server(server) else {
                continue;
            };
            if let Some(from_idx) = current_index {
                match candidate.kind {
                    ActionKind::ScaleUp if spec.performance_index <= from_idx => continue,
                    ActionKind::ScaleDown if spec.performance_index >= from_idx => continue,
                    _ => {}
                }
            }
            let inputs = gather_server_inputs(spec, index, loads, server);
            let lanes = inputs.measurements();
            // The engine rejects non-finite measurements and the exhaustive
            // scan skips such servers on that error; skip them up front here
            // so one poisoned lane cannot abort the whole batch.
            if !lanes.iter().all(|(_, value)| value.is_finite()) {
                continue;
            }
            let bits = lanes.map(|(_, value)| value.to_bits());
            match self.score_cache.lookup(slot, server, &bits) {
                Some(score) if score >= min_score => scored.push((server, score)),
                Some(_) => {}
                None => {
                    misses.push((server, bits));
                    rows.push(inputs);
                }
            }
        }
        // On an engine failure (uniform across one rule base's inputs)
        // every miss stays skipped, exactly as the exhaustive scan's
        // per-server skip-on-error behaves.
        if let Ok(scores) = self
            .server_selector
            .score_batch(candidate.kind, service_name, &rows)
        {
            for ((server, bits), score) in misses.into_iter().zip(scores) {
                self.score_cache.store(slot, server, bits, score);
                if score >= min_score {
                    scored.push((server, score));
                }
            }
        }
        scored.sort_unstable_by(host_order);
        scored
    }

    /// Reference implementation of host ranking: the original exhaustive
    /// pass, one full-instance-table scan and one scalar engine run per
    /// server, no index and no cache. Kept verbatim as the oracle the
    /// production path is proven against.
    fn rank_hosts_scan(
        &mut self,
        candidate: &Candidate,
        service_name: &str,
        landscape: &Landscape,
        loads: &dyn LoadView,
        now: SimTime,
    ) -> Vec<(ServerId, f64)> {
        let current_host = candidate
            .instance
            .and_then(|i| landscape.instance(i).ok().map(|inst| inst.server));
        let current_index = current_host
            .and_then(|h| landscape.server(h).ok())
            .map(|s| s.performance_index);

        let mut scored = Vec::new();
        for server in landscape.server_ids() {
            if self.protection.is_protected(Subject::Server(server), now) {
                continue;
            }
            if Some(server) == current_host {
                continue;
            }
            if !landscape.can_host(candidate.service, server) {
                continue;
            }
            if candidate.kind == ActionKind::ScaleOut
                && landscape.instances_on(server).iter().any(|i| {
                    landscape.instance(*i).map(|inst| inst.service) == Ok(candidate.service)
                })
            {
                continue;
            }
            if let (Some(from_idx), Ok(spec)) = (current_index, landscape.server(server)) {
                match candidate.kind {
                    ActionKind::ScaleUp if spec.performance_index <= from_idx => continue,
                    ActionKind::ScaleDown if spec.performance_index >= from_idx => continue,
                    _ => {}
                }
            }
            let Some(inputs) = ServerInputs::gather(landscape, loads, server) else {
                continue;
            };
            let Ok(score) = self
                .server_selector
                .score(candidate.kind, service_name, &inputs)
            else {
                continue;
            };
            if score >= self.config.min_host_score {
                scored.push((server, score));
            }
        }
        scored.sort_unstable_by(host_order);
        scored
    }

    /// Rank target hosts for a prospective `kind` action on `service`
    /// through the indexed fast path — the production route taken by
    /// [`AutoGlobeController::handle_trigger`] /
    /// [`AutoGlobeController::plan_trigger`]. Public so benchmarks and
    /// tests can time and compare host selection in isolation;
    /// `instance` is the instance the action would operate on, if any.
    pub fn rank_hosts_indexed(
        &mut self,
        kind: ActionKind,
        service: ServiceId,
        instance: Option<InstanceId>,
        landscape: &Landscape,
        loads: &dyn LoadView,
        now: SimTime,
    ) -> Vec<(ServerId, f64)> {
        let Ok(service_name) = landscape.service(service).map(|s| s.name.clone()) else {
            return Vec::new();
        };
        let candidate = Candidate {
            service,
            instance,
            kind,
            applicability: 1.0,
        };
        self.rank_hosts(&candidate, &service_name, landscape, loads, now)
    }

    /// Rank target hosts through the exhaustive reference scan — the one
    /// ranking oracle. Exists to prove, bit for bit, that the index, the
    /// batched engine cycle and the score cache change nothing: for any
    /// landscape, loads and action this returns exactly what
    /// [`AutoGlobeController::rank_hosts_indexed`] returns, cold or warm —
    /// same hosts, same order, same score bits.
    pub fn rank_hosts_exhaustive(
        &mut self,
        kind: ActionKind,
        service: ServiceId,
        instance: Option<InstanceId>,
        landscape: &Landscape,
        loads: &dyn LoadView,
        now: SimTime,
    ) -> Vec<(ServerId, f64)> {
        let Ok(service_name) = landscape.service(service).map(|s| s.name.clone()) else {
            return Vec::new();
        };
        let candidate = Candidate {
            service,
            instance,
            kind,
            applicability: 1.0,
        };
        self.rank_hosts_scan(&candidate, &service_name, landscape, loads, now)
    }

    /// Apply one decided action at `at`, protect the entities involved and
    /// log the execution — the one commit step shared by
    /// [`AutoGlobeController::commit`], [`AutoGlobeController::confirm_pending`]
    /// and the executor's successful attempts. On error the landscape is
    /// unchanged and nothing is logged.
    pub(crate) fn apply_action(
        &mut self,
        action: Action,
        trigger: TriggerKind,
        applicability: f64,
        host_score: Option<f64>,
        landscape: &mut Landscape,
        at: SimTime,
    ) -> Result<ActionRecord, LandscapeError> {
        // A stop or move names its instance; read where it runs before the
        // apply, which may remove it.
        let resident = action
            .instance()
            .and_then(|i| landscape.instance(i).ok())
            .map(|inst| (inst.id, inst.service, inst.server));
        let outcome = self.mutate(
            landscape,
            |l| l.apply(&action),
            |outcome, l| match *outcome {
                ApplyOutcome::Started(id) => l
                    .instance(id)
                    .ok()
                    .map(|inst| (id, inst.service, None, Some(inst.server))),
                ApplyOutcome::Stopped(_) | ApplyOutcome::Moved { .. } => {
                    resident.map(|(id, service, from)| (id, service, Some(from), action.target()))
                }
                ApplyOutcome::PriorityChanged { .. } => None,
            },
        )?;
        self.protect_involved(&action, landscape, at);
        let record = ActionRecord {
            time: at,
            trigger,
            action,
            applicability,
            host_score,
            outcome,
        };
        self.log.push(ControllerEvent::Executed(record.clone()));
        Ok(record)
    }

    /// Log an administrator alert and return the logged event.
    pub(crate) fn alert(
        &mut self,
        time: SimTime,
        trigger: TriggerKind,
        message: String,
    ) -> ControllerEvent {
        let e = ControllerEvent::AdministratorAlert {
            time,
            trigger,
            message,
        };
        self.log.push(e.clone());
        e
    }

    /// Log that `action` was rejected and return the logged event.
    pub(crate) fn reject(
        &mut self,
        time: SimTime,
        action: Action,
        reason: impl ToString,
    ) -> ControllerEvent {
        let e = ControllerEvent::Rejected {
            time,
            action,
            reason: reason.to_string(),
        };
        self.log.push(e.clone());
        e
    }

    /// Protect the service and servers involved in an executed action (also
    /// used by the executor after an asynchronous attempt succeeds, and by
    /// a control-plane replica replaying an owner-executed record so its
    /// protection registry matches the owner's).
    pub fn protect_involved(&mut self, action: &Action, landscape: &Landscape, now: SimTime) {
        let d = self.config.protection_time;
        if let Some(target) = action.target() {
            self.protection.protect(Subject::Server(target), now, d);
        }
        let service = match *action {
            Action::Start { service, .. }
            | Action::ScaleOut { service, .. }
            | Action::IncreasePriority { service }
            | Action::ReducePriority { service } => Some(service),
            Action::Stop { instance }
            | Action::ScaleIn { instance }
            | Action::ScaleUp { instance, .. }
            | Action::ScaleDown { instance, .. }
            | Action::Move { instance, .. } => {
                // The instance may already be gone (stop/scale-in) — protect
                // its host if it still resolves.
                if let Ok(inst) = landscape.instance(instance) {
                    self.protection
                        .protect(Subject::Server(inst.server), now, d);
                    Some(inst.service)
                } else {
                    None
                }
            }
        };
        if let Some(svc) = service {
            self.protection.protect(Subject::Service(svc), now, d);
        }
    }

    /// Confirm a pending action (semi-automatic mode). Constraints are
    /// re-verified — the landscape may have changed since the proposal.
    pub fn confirm_pending(
        &mut self,
        id: u64,
        landscape: &mut Landscape,
        now: SimTime,
    ) -> Option<ActionRecord> {
        let idx = self.pending.iter().position(|p| p.id == id)?;
        let pending = self.pending.remove(idx);
        match self.apply_action(
            pending.action,
            pending.trigger,
            pending.applicability,
            pending.host_score,
            landscape,
            now,
        ) {
            Ok(record) => Some(record),
            Err(err) => {
                self.reject(now, pending.action, err);
                None
            }
        }
    }

    /// Reject a pending action (semi-automatic mode).
    pub fn reject_pending(&mut self, id: u64) -> bool {
        let before = self.pending.len();
        self.pending.retain(|p| p.id != id);
        self.pending.len() != before
    }
}

impl Default for AutoGlobeController {
    fn default() -> Self {
        AutoGlobeController::new()
    }
}

/// Total order over candidates: applicability descending, then service id,
/// then action name — a deterministic key with no `partial_cmp().unwrap()`
/// panic path. Equal-applicability candidates from `ActionSelector::rank`
/// arrive sorted by (service, action name) already, so this reproduces the
/// old stable sort's output exactly while tolerating NaN-adjacent scores.
fn candidate_order(a: &Candidate, b: &Candidate) -> std::cmp::Ordering {
    b.applicability
        .total_cmp(&a.applicability)
        .then_with(|| a.service.cmp(&b.service))
        .then_with(|| a.kind.variable_name().cmp(b.kind.variable_name()))
}

/// Total order over scored hosts: score descending, server id ascending.
fn host_order(a: &(ServerId, f64), b: &(ServerId, f64)) -> std::cmp::Ordering {
    b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0))
}

/// Whether a kind operates on an existing instance.
fn kind_uses_instance(kind: ActionKind) -> bool {
    matches!(
        kind,
        ActionKind::Stop
            | ActionKind::ScaleIn
            | ActionKind::ScaleUp
            | ActionKind::ScaleDown
            | ActionKind::Move
    )
}

/// Pick the instance a service-level trigger should operate on: the hottest
/// instance for overload triggers, the coolest for idle triggers. When
/// `prefer_server` is given (server triggers), instances on that host win.
/// Index-backed [`ActionInputs::gather`]: identical inputs, with the two
/// instance-table count scans answered by the prebuilt [`HostIndex`].
fn gather_action_inputs(
    landscape: &Landscape,
    index: &HostIndex,
    loads: &dyn LoadView,
    service: ServiceId,
    instance: InstanceId,
) -> Option<ActionInputs> {
    let inst = landscape.instance(instance).ok()?;
    let server = inst.server;
    let spec = landscape.server(server).ok()?;
    let instance_load = loads.cpu(Subject::Instance(instance));
    Some(ActionInputs {
        cpu_load: loads.cpu(Subject::Server(server)),
        mem_load: loads.mem(Subject::Server(server)),
        performance_index: spec.performance_index,
        instance_load,
        service_load: loads.cpu(Subject::Service(service)),
        instances_on_server: index.instance_count_on(server) as f64,
        instances_of_service: index.instance_count_of(service) as f64,
        instance_demand: instance_load * spec.performance_index,
    })
}

/// The ten server-selection lanes of `server`, whose spec is `spec`, with
/// `instancesOnServer` read from the index — what [`ServerInputs::gather`]
/// returns, without its instance-table scan. Shared by host ranking and the
/// restart search.
pub(crate) fn gather_server_inputs(
    spec: &ServerSpec,
    index: &HostIndex,
    loads: &dyn LoadView,
    server: ServerId,
) -> ServerInputs {
    ServerInputs {
        cpu_load: loads.cpu(Subject::Server(server)),
        mem_load: loads.mem(Subject::Server(server)),
        instances_on_server: index.instance_count_on(server) as f64,
        performance_index: spec.performance_index,
        number_of_cpus: spec.num_cpus as f64,
        cpu_clock: spec.cpu_clock_mhz as f64,
        cpu_cache: spec.cpu_cache_kb as f64,
        memory: spec.memory_mb as f64,
        swap_space: spec.swap_mb as f64,
        temp_space: spec.temp_space_mb as f64,
    }
}

fn representative_instance(
    landscape: &Landscape,
    index: &HostIndex,
    loads: &dyn LoadView,
    service: ServiceId,
    trigger: TriggerKind,
    prefer_server: Option<ServerId>,
) -> Option<InstanceId> {
    let mut instances = index.instances_of(service).to_vec();
    if let Some(server) = prefer_server {
        let on_server: Vec<InstanceId> = instances
            .iter()
            .copied()
            .filter(|i| {
                landscape
                    .instance(*i)
                    .map(|inst| inst.server == server)
                    .unwrap_or(false)
            })
            .collect();
        if !on_server.is_empty() {
            instances = on_server;
        }
    }
    let key = |i: &InstanceId| loads.cpu(Subject::Instance(*i));
    // `total_cmp` plus the id tiebreak keeps the pick deterministic (and
    // panic-free) when several instances report identical load.
    if trigger.is_overload() {
        instances
            .into_iter()
            .max_by(|a, b| key(a).total_cmp(&key(b)).then_with(|| a.cmp(b)))
    } else {
        instances
            .into_iter()
            .min_by(|a, b| key(a).total_cmp(&key(b)).then_with(|| a.cmp(b)))
    }
}

/// Build the concrete [`Action`] for a candidate and target host.
fn concretize(candidate: &Candidate, target: ServerId) -> Option<Action> {
    Some(match candidate.kind {
        ActionKind::Start => Action::Start {
            service: candidate.service,
            target,
        },
        ActionKind::ScaleOut => Action::ScaleOut {
            service: candidate.service,
            target,
        },
        ActionKind::Stop => Action::Stop {
            instance: candidate.instance?,
        },
        ActionKind::ScaleIn => Action::ScaleIn {
            instance: candidate.instance?,
        },
        ActionKind::ScaleUp => Action::ScaleUp {
            instance: candidate.instance?,
            target,
        },
        ActionKind::ScaleDown => Action::ScaleDown {
            instance: candidate.instance?,
            target,
        },
        ActionKind::Move => Action::Move {
            instance: candidate.instance?,
            target,
        },
        ActionKind::IncreasePriority => Action::IncreasePriority {
            service: candidate.service,
        },
        ActionKind::ReducePriority => Action::ReducePriority {
            service: candidate.service,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::TableLoads;
    use autoglobe_landscape::{ServerSpec, ServiceKind, ServiceSpec};

    /// Landscape: 2 weak blades + 1 strong DB server; FI runs two instances
    /// on the weak blades.
    struct Fixture {
        landscape: Landscape,
        fi: ServiceId,
        blade1: ServerId,
        blade2: ServerId,
        big: ServerId,
        i1: InstanceId,
        i2: InstanceId,
        loads: TableLoads,
    }

    fn fixture() -> Fixture {
        let mut landscape = Landscape::new();
        let blade1 = landscape
            .add_server(ServerSpec::fsc_bx300("Blade1"))
            .unwrap();
        let blade2 = landscape
            .add_server(ServerSpec::fsc_bx300("Blade2"))
            .unwrap();
        let big = landscape.add_server(ServerSpec::hp_bl40p("Big")).unwrap();
        let fi = landscape
            .add_service(
                ServiceSpec::new("FI", ServiceKind::ApplicationServer).with_instances(1, Some(6)),
            )
            .unwrap();
        let i1 = landscape.start_instance(fi, blade1).unwrap();
        let i2 = landscape.start_instance(fi, blade2).unwrap();
        Fixture {
            landscape,
            fi,
            blade1,
            blade2,
            big,
            i1,
            i2,
            loads: TableLoads::new(),
        }
    }

    fn overload_event(subject: Subject, kind: TriggerKind) -> TriggerEvent {
        TriggerEvent {
            kind,
            subject,
            time: SimTime::from_minutes(30),
            average_cpu: 0.9,
            average_mem: 0.4,
        }
    }

    #[test]
    fn overloaded_service_on_weak_host_scales_up_to_big_server() {
        let mut f = fixture();
        // Everything hot; blades weak → scale-up should win and pick Big.
        f.loads.set(Subject::Server(f.blade1), 0.95, 0.5);
        f.loads.set(Subject::Server(f.blade2), 0.9, 0.5);
        f.loads.set(Subject::Server(f.big), 0.1, 0.1);
        f.loads.set(Subject::Instance(f.i1), 0.95, 0.0);
        f.loads.set(Subject::Instance(f.i2), 0.85, 0.0);
        f.loads.set(Subject::Service(f.fi), 0.9, 0.0);

        let mut c = AutoGlobeController::new();
        let event = overload_event(Subject::Service(f.fi), TriggerKind::ServiceOverloaded);
        let outcome = c.handle_trigger(&event, &mut f.landscape, &f.loads, event.time);
        assert!(outcome.acted(), "events: {:?}", outcome.events);
        let record = &outcome.executed[0];
        assert_eq!(record.action.kind(), ActionKind::ScaleUp);
        assert_eq!(record.action.target(), Some(f.big));
        // The hottest instance (i1) moved.
        assert_eq!(f.landscape.instance(f.i1).unwrap().server, f.big);
    }

    #[test]
    fn involved_entities_are_protected_after_action() {
        let mut f = fixture();
        f.loads.set(Subject::Server(f.blade1), 0.95, 0.5);
        f.loads.set(Subject::Instance(f.i1), 0.95, 0.0);
        f.loads.set(Subject::Service(f.fi), 0.9, 0.0);

        let mut c = AutoGlobeController::new();
        let event = overload_event(Subject::Service(f.fi), TriggerKind::ServiceOverloaded);
        let outcome = c.handle_trigger(&event, &mut f.landscape, &f.loads, event.time);
        assert!(outcome.acted());
        // Service protected → the same trigger is now suppressed.
        let outcome2 = c.handle_trigger(&event, &mut f.landscape, &f.loads, event.time);
        assert!(!outcome2.acted());
        assert!(matches!(
            outcome2.events[0],
            ControllerEvent::SuppressedByProtection { .. }
        ));
        // After protection expires the trigger is handled again.
        let later = event.time + SimDuration::from_minutes(31);
        let outcome3 = c.handle_trigger(&event, &mut f.landscape, &f.loads, later);
        assert!(!matches!(
            outcome3.events.first(),
            Some(ControllerEvent::SuppressedByProtection { .. })
        ));
    }

    #[test]
    fn idle_service_scales_in_the_coolest_instance() {
        let mut f = fixture();
        // Grow the pool to five instances: clearly "many", so the idle
        // scale-in rule fires strongly.
        let i3 = f.landscape.start_instance(f.fi, f.big).unwrap();
        let i4 = f.landscape.start_instance(f.fi, f.big).unwrap();
        let i5 = f.landscape.start_instance(f.fi, f.blade2).unwrap();
        f.loads.set(Subject::Server(f.blade1), 0.05, 0.1);
        f.loads.set(Subject::Server(f.blade2), 0.05, 0.1);
        f.loads.set(Subject::Server(f.big), 0.02, 0.1);
        f.loads.set(Subject::Instance(f.i1), 0.06, 0.0);
        f.loads.set(Subject::Instance(f.i2), 0.04, 0.0);
        f.loads.set(Subject::Instance(i3), 0.01, 0.0);
        f.loads.set(Subject::Instance(i4), 0.03, 0.0);
        f.loads.set(Subject::Instance(i5), 0.05, 0.0);
        f.loads.set(Subject::Service(f.fi), 0.04, 0.0);

        let mut c = AutoGlobeController::new();
        let event = TriggerEvent {
            kind: TriggerKind::ServiceIdle,
            subject: Subject::Service(f.fi),
            time: SimTime::from_hours(2),
            average_cpu: 0.04,
            average_mem: 0.1,
        };
        let outcome = c.handle_trigger(&event, &mut f.landscape, &f.loads, event.time);
        assert!(outcome.acted(), "events: {:?}", outcome.events);
        let record = &outcome.executed[0];
        assert_eq!(record.action.kind(), ActionKind::ScaleIn);
        // The coolest instance (i3) was stopped.
        assert_eq!(record.outcome, ApplyOutcome::Stopped(i3));
        assert!(f.landscape.instance(i3).is_err());
    }

    #[test]
    fn server_trigger_considers_services_on_that_host() {
        let mut f = fixture();
        // Blade1 overloaded, carries i1; Blade2 calm.
        f.loads.set(Subject::Server(f.blade1), 0.95, 0.6);
        f.loads.set(Subject::Server(f.blade2), 0.2, 0.2);
        f.loads.set(Subject::Server(f.big), 0.05, 0.05);
        f.loads.set(Subject::Instance(f.i1), 0.9, 0.0);
        f.loads.set(Subject::Instance(f.i2), 0.2, 0.0);
        f.loads.set(Subject::Service(f.fi), 0.55, 0.0);

        let mut c = AutoGlobeController::new();
        let event = overload_event(Subject::Server(f.blade1), TriggerKind::ServerOverloaded);
        let outcome = c.handle_trigger(&event, &mut f.landscape, &f.loads, event.time);
        assert!(outcome.acted(), "events: {:?}", outcome.events);
        // Whatever action won, it must operate on the instance of Blade1 or
        // create capacity elsewhere — never touch Blade2's instance.
        let record = &outcome.executed[0];
        if let Some(instance) = record.action.instance() {
            assert_eq!(instance, f.i1, "must act on the triggering host's instance");
        }
        if let Some(target) = record.action.target() {
            assert_ne!(target, f.blade1, "target must not be the overloaded host");
        }
    }

    #[test]
    fn constraints_are_respected_falling_back_to_next_action() {
        let mut f = fixture();
        // FI forbids scale-up/move; only scale-out allowed.
        let restricted = f
            .landscape
            .add_service(
                ServiceSpec::new("R", ServiceKind::ApplicationServer)
                    .with_instances(1, Some(4))
                    .with_allowed_actions([ActionKind::ScaleOut]),
            )
            .unwrap();
        let r1 = f.landscape.start_instance(restricted, f.blade1).unwrap();
        f.loads.set(Subject::Server(f.blade1), 0.95, 0.5);
        f.loads.set(Subject::Server(f.blade2), 0.1, 0.1);
        f.loads.set(Subject::Server(f.big), 0.1, 0.1);
        f.loads.set(Subject::Instance(r1), 0.95, 0.0);
        f.loads.set(Subject::Service(restricted), 0.95, 0.0);

        let mut c = AutoGlobeController::new();
        let event = overload_event(Subject::Service(restricted), TriggerKind::ServiceOverloaded);
        let outcome = c.handle_trigger(&event, &mut f.landscape, &f.loads, event.time);
        assert!(outcome.acted(), "events: {:?}", outcome.events);
        assert_eq!(outcome.executed[0].action.kind(), ActionKind::ScaleOut);
    }

    #[test]
    fn alert_when_nothing_is_applicable() {
        let mut f = fixture();
        // Immobile service: no actions allowed at all.
        let frozen = f
            .landscape
            .add_service(ServiceSpec::new("Z", ServiceKind::Database).immobile())
            .unwrap();
        let z1 = f.landscape.start_instance(frozen, f.blade1).unwrap();
        f.loads.set(Subject::Server(f.blade1), 0.95, 0.5);
        f.loads.set(Subject::Instance(z1), 0.95, 0.0);
        f.loads.set(Subject::Service(frozen), 0.95, 0.0);

        let mut c = AutoGlobeController::new();
        let event = overload_event(Subject::Service(frozen), TriggerKind::ServiceOverloaded);
        let outcome = c.handle_trigger(&event, &mut f.landscape, &f.loads, event.time);
        assert!(!outcome.acted());
        assert!(outcome
            .events
            .iter()
            .any(|e| matches!(e, ControllerEvent::AdministratorAlert { .. })));
    }

    #[test]
    fn protected_target_hosts_are_skipped() {
        let mut f = fixture();
        f.loads.set(Subject::Server(f.blade1), 0.95, 0.5);
        f.loads.set(Subject::Server(f.blade2), 0.05, 0.05);
        f.loads.set(Subject::Server(f.big), 0.05, 0.05);
        f.loads.set(Subject::Instance(f.i1), 0.95, 0.0);
        f.loads.set(Subject::Service(f.fi), 0.9, 0.0);

        let mut c = AutoGlobeController::new();
        // Protect the big host; placement must land on Blade2.
        c.protect(
            Subject::Server(f.big),
            SimTime::from_minutes(29),
            SimDuration::from_minutes(60),
        );
        let event = overload_event(Subject::Service(f.fi), TriggerKind::ServiceOverloaded);
        let outcome = c.handle_trigger(&event, &mut f.landscape, &f.loads, event.time);
        if let Some(record) = outcome.executed.first() {
            assert_ne!(record.action.target(), Some(f.big));
        }
    }

    #[test]
    fn semi_automatic_queues_and_confirms() {
        let mut f = fixture();
        f.loads.set(Subject::Server(f.blade1), 0.95, 0.5);
        f.loads.set(Subject::Server(f.big), 0.05, 0.05);
        f.loads.set(Subject::Instance(f.i1), 0.95, 0.0);
        f.loads.set(Subject::Service(f.fi), 0.9, 0.0);

        let mut c = AutoGlobeController::new();
        c.set_mode(ExecutionMode::SemiAutomatic);
        assert_eq!(c.mode(), ExecutionMode::SemiAutomatic);

        let event = overload_event(Subject::Service(f.fi), TriggerKind::ServiceOverloaded);
        let outcome = c.handle_trigger(&event, &mut f.landscape, &f.loads, event.time);
        // Nothing executed, one pending.
        assert!(!outcome.acted());
        assert_eq!(c.pending().len(), 1);
        let instances_before = f.landscape.num_instances();

        let id = c.pending()[0].id;
        let record = c
            .confirm_pending(
                id,
                &mut f.landscape,
                event.time + SimDuration::from_secs(60),
            )
            .expect("confirmation applies the action");
        assert_eq!(f.landscape.num_instances(), instances_before);
        assert!(record.action.kind().needs_target() || record.action.instance().is_some());
        assert!(c.pending().is_empty());
    }

    #[test]
    fn semi_automatic_reject_discards() {
        let mut f = fixture();
        f.loads.set(Subject::Server(f.blade1), 0.95, 0.5);
        f.loads.set(Subject::Instance(f.i1), 0.95, 0.0);
        f.loads.set(Subject::Service(f.fi), 0.9, 0.0);

        let mut c = AutoGlobeController::new();
        c.set_mode(ExecutionMode::SemiAutomatic);
        let event = overload_event(Subject::Service(f.fi), TriggerKind::ServiceOverloaded);
        c.handle_trigger(&event, &mut f.landscape, &f.loads, event.time);
        let id = c.pending()[0].id;
        assert!(c.reject_pending(id));
        assert!(!c.reject_pending(id));
        assert!(c.pending().is_empty());
        // Nothing changed in the landscape.
        assert_eq!(f.landscape.num_instances(), 2);
    }

    #[test]
    fn log_accumulates_and_drains() {
        let mut f = fixture();
        f.loads.set(Subject::Server(f.blade1), 0.95, 0.5);
        f.loads.set(Subject::Instance(f.i1), 0.95, 0.0);
        f.loads.set(Subject::Service(f.fi), 0.9, 0.0);
        let mut c = AutoGlobeController::new();
        let event = overload_event(Subject::Service(f.fi), TriggerKind::ServiceOverloaded);
        c.handle_trigger(&event, &mut f.landscape, &f.loads, event.time);
        assert!(!c.log().is_empty());
        let drained = c.drain_log();
        assert!(!drained.is_empty());
        assert!(c.log().is_empty());
    }

    #[test]
    fn indexed_ranking_is_bit_identical_to_exhaustive() {
        let mut f = fixture();
        // A mixed landscape state: one hot blade, one idle, the big server
        // partly loaded, plus an instance on Big so the index sees variety.
        f.landscape.start_instance(f.fi, f.big).unwrap();
        f.loads.set(Subject::Server(f.blade1), 0.95, 0.5);
        f.loads.set(Subject::Server(f.blade2), 0.1, 0.2);
        f.loads.set(Subject::Server(f.big), 0.4, 0.3);
        f.loads.set(Subject::Instance(f.i1), 0.95, 0.0);
        f.loads.set(Subject::Instance(f.i2), 0.1, 0.0);
        f.loads.set(Subject::Service(f.fi), 0.6, 0.0);

        let mut c = AutoGlobeController::new();
        let now = SimTime::from_minutes(30);
        for kind in ActionKind::ALL {
            let instance = kind_uses_instance(kind).then_some(f.i1);
            let indexed = c.rank_hosts_indexed(kind, f.fi, instance, &f.landscape, &f.loads, now);
            let exhaustive =
                c.rank_hosts_exhaustive(kind, f.fi, instance, &f.landscape, &f.loads, now);
            assert_eq!(
                indexed.len(),
                exhaustive.len(),
                "host count diverged for {kind:?}"
            );
            for (a, b) in indexed.iter().zip(exhaustive.iter()) {
                assert_eq!(a.0, b.0, "host order diverged for {kind:?}");
                assert_eq!(
                    a.1.to_bits(),
                    b.1.to_bits(),
                    "score bits diverged for {kind:?} on {:?}",
                    a.0
                );
            }
        }
    }

    #[test]
    fn candidate_sort_is_deterministic_for_equal_and_nan_scores() {
        // Equal applicability: service id, then action name, decide.
        let mk = |service: u32, kind: ActionKind, applicability: f64| Candidate {
            service: ServiceId::new(service),
            instance: None,
            kind,
            applicability,
        };
        let mut candidates = [
            mk(2, ActionKind::Start, 0.5),
            mk(1, ActionKind::ScaleOut, 0.5),
            mk(1, ActionKind::Move, 0.5),
            mk(3, ActionKind::Stop, 0.9),
        ];
        candidates.sort_unstable_by(candidate_order);
        let key: Vec<(u32, ActionKind)> = candidates
            .iter()
            .map(|c| (c.service.index() as u32, c.kind))
            .collect();
        assert_eq!(
            key,
            vec![
                (3, ActionKind::Stop),
                (1, ActionKind::Move),
                (1, ActionKind::ScaleOut),
                (2, ActionKind::Start),
            ]
        );

        // NaN applicability must not panic; total_cmp orders NaN above all
        // finite values (descending sort), and the run stays deterministic.
        let mut with_nan = [
            mk(1, ActionKind::Start, 0.4),
            mk(2, ActionKind::Start, f64::NAN),
            mk(3, ActionKind::Start, 0.8),
        ];
        with_nan.sort_unstable_by(candidate_order);
        let services: Vec<usize> = with_nan.iter().map(|c| c.service.index()).collect();
        assert_eq!(services, vec![2, 3, 1]);
    }

    #[test]
    fn host_sort_breaks_score_ties_by_server_id() {
        let mut scored = [
            (ServerId::new(5), 0.7),
            (ServerId::new(1), 0.7),
            (ServerId::new(3), 0.9),
            (ServerId::new(2), 0.7),
        ];
        scored.sort_unstable_by(host_order);
        let ids: Vec<usize> = scored.iter().map(|(s, _)| s.index()).collect();
        assert_eq!(ids, vec![3, 1, 2, 5]);

        // -0.0 and 0.0 are distinct under total_cmp (0.0 sorts first in a
        // descending sort); the outcome is deterministic, never a panic.
        let mut signed_zero = [(ServerId::new(1), -0.0), (ServerId::new(2), 0.0)];
        signed_zero.sort_unstable_by(host_order);
        assert_eq!(signed_zero[0].0, ServerId::new(2));
    }

    /// Mixed-load fixture state shared by the engine, cache and NaN-lane tests.
    fn mixed_loads(f: &mut Fixture) {
        f.landscape.start_instance(f.fi, f.big).unwrap();
        f.loads.set(Subject::Server(f.blade1), 0.95, 0.5);
        f.loads.set(Subject::Server(f.blade2), 0.1, 0.2);
        f.loads.set(Subject::Server(f.big), 0.4, 0.3);
        f.loads.set(Subject::Instance(f.i1), 0.95, 0.0);
        f.loads.set(Subject::Instance(f.i2), 0.1, 0.0);
        f.loads.set(Subject::Service(f.fi), 0.6, 0.0);
    }

    #[test]
    fn batched_ranking_is_bit_identical_to_scalar_mode() {
        // Every score the batched engine cycle produces — cache-cold, then
        // served from the warm cache — equals one scalar engine run
        // (`ServerSelector::score`) on that server's inputs, bit for bit.
        let mut f = fixture();
        mixed_loads(&mut f);
        let mut c = AutoGlobeController::new();
        let now = SimTime::from_minutes(30);
        let service_name = f.landscape.service(f.fi).unwrap().name.clone();
        let mut compared = 0;
        for kind in ActionKind::ALL {
            let instance = kind_uses_instance(kind).then_some(f.i1);
            let cold = c.rank_hosts_indexed(kind, f.fi, instance, &f.landscape, &f.loads, now);
            let warm = c.rank_hosts_indexed(kind, f.fi, instance, &f.landscape, &f.loads, now);
            assert_eq!(cold.len(), warm.len(), "host count diverged for {kind:?}");
            for ((server, score), (warm_server, warm_score)) in cold.iter().zip(warm.iter()) {
                assert_eq!(server, warm_server, "host order diverged for {kind:?}");
                let inputs = ServerInputs::gather(&f.landscape, &f.loads, *server).unwrap();
                let scalar = c
                    .server_selector
                    .score(kind, &service_name, &inputs)
                    .unwrap();
                for (label, batched) in [("cold", score), ("warm", warm_score)] {
                    assert_eq!(
                        batched.to_bits(),
                        scalar.to_bits(),
                        "{label} score bits diverged for {kind:?} on {server:?}"
                    );
                }
                compared += 1;
            }
            let mut sorted = cold.clone();
            sorted.sort_unstable_by(host_order);
            assert_eq!(cold, sorted, "ranking not in host order for {kind:?}");
        }
        assert!(compared > 0, "the fixture must rank some hosts");
    }

    #[test]
    fn second_trigger_is_served_from_the_hoisted_cache() {
        let mut f = fixture();
        mixed_loads(&mut f);
        let mut c = AutoGlobeController::new();
        let event = overload_event(Subject::Service(f.fi), TriggerKind::ServiceOverloaded);

        // First trigger: all evaluations are fresh, and each scored
        // server keeps its verdict on the controller.
        let first = c.plan_trigger(&event, &f.landscape, &f.loads, event.time);
        let after_first = c.score_cache_stats();
        assert!(after_first.misses > 0, "first trigger must evaluate");
        assert_eq!(after_first.incremental_hits, 0);
        assert!(after_first.verdict_entries > 0);

        // Second trigger on the unchanged landscape: every lookup is
        // answered by a verdict, none is evaluated again.
        let second = c.plan_trigger(&event, &f.landscape, &f.loads, event.time);
        let after_second = c.score_cache_stats();
        assert!(
            after_second.incremental_hits > 0,
            "second trigger must hit the cross-trigger cache: {after_second:?}"
        );
        assert_eq!(after_second.misses, after_first.misses, "{after_second:?}");
        assert_eq!(after_second.pattern_hits, 0);
        assert_eq!(after_second.clears, 0, "only a manual clear clears");

        // Rankings stay bit-identical: same decision, same scores, and both
        // match a cache-cold fresh controller.
        let mut fresh = AutoGlobeController::new();
        let reference = fresh.plan_trigger(&event, &f.landscape, &f.loads, event.time);
        for planned in [&first, &second] {
            let d = planned.decided.as_ref().expect("a decision");
            let r = reference.decided.as_ref().expect("a decision");
            assert_eq!(d.action, r.action);
            assert_eq!(
                d.host_score.map(f64::to_bits),
                r.host_score.map(f64::to_bits)
            );
            assert_eq!(d.alternates.len(), r.alternates.len());
            for (a, b) in d.alternates.iter().zip(r.alternates.iter()) {
                assert_eq!(a.0, b.0);
                assert_eq!(a.1.to_bits(), b.1.to_bits());
            }
        }
    }

    #[test]
    fn verdicts_outlive_landscape_mutations() {
        let mut f = fixture();
        mixed_loads(&mut f);
        let mut c = AutoGlobeController::new();
        let now = SimTime::from_minutes(30);
        let rank = |c: &mut AutoGlobeController, l: &Landscape| {
            c.rank_hosts_indexed(ActionKind::Move, f.fi, Some(f.i1), l, &f.loads, now)
        };
        let cold = rank(&mut c, &f.landscape);
        assert_eq!(cold.len(), 2, "Blade2 and Big take the move: {cold:?}");
        let before = c.score_cache_stats();
        assert_eq!((before.incremental_hits, before.misses), (0, 2));

        // A mutation moves Big's `instancesOnServer` lane and nothing of
        // Blade2's: Blade2's verdict still answers, Big is re-scored, and
        // nothing is flushed.
        f.landscape.start_instance(f.fi, f.big).unwrap();
        let warm = rank(&mut c, &f.landscape);
        let after = c.score_cache_stats();
        assert_eq!((after.incremental_hits, after.misses), (1, 3), "{after:?}");
        assert_eq!(after.clears, 0);
        let oracle = c.rank_hosts_exhaustive(
            ActionKind::Move,
            f.fi,
            Some(f.i1),
            &f.landscape,
            &f.loads,
            now,
        );
        assert_eq!(bits(&warm), bits(&oracle));
    }

    /// A random action of a random kind, on a random running instance or
    /// service, aimed at a random server that can host the service. Many
    /// still fail verification; the rest exercise every allocation change.
    fn random_action(rng: &mut autoglobe_rng::Rng, l: &Landscape) -> Action {
        let kind = *rng.choice(&ActionKind::ALL);
        let instances: Vec<InstanceId> = l.instances().map(|i| i.id).collect();
        let instance = if instances.is_empty() {
            InstanceId::new(0)
        } else {
            *rng.choice(&instances)
        };
        let service = if kind_uses_instance(kind) && !instances.is_empty() {
            l.instance(instance).unwrap().service
        } else {
            ServiceId::new(rng.random_below(l.num_services()) as u32)
        };
        let hosts: Vec<ServerId> = l.server_ids().filter(|&s| l.can_host(service, s)).collect();
        let target = if hosts.is_empty() {
            ServerId::new(0)
        } else {
            *rng.choice(&hosts)
        };
        let candidate = Candidate {
            service,
            instance: Some(instance),
            kind,
            applicability: 1.0,
        };
        concretize(&candidate, target).expect("every kind concretizes")
    }

    #[test]
    fn patched_host_index_equals_a_fresh_build() {
        // A random day of writes: actions of every kind through `commit`,
        // `confirm_pending` and executor completions; server failures,
        // instance crashes and restart retries; out-of-band writes the
        // controller never sees; and runs of writes with no use in
        // between. After every step the memo must be stale, or equal array
        // by array to a fresh build — never current and different.
        use crate::executor::{ActionExecutor, ExecutorConfig};
        use crate::inputs::ConstantLoads;
        use autoglobe_landscape::synth::{generate, SynthConfig};
        use autoglobe_monitor::{FailureEvent, FailureKind};
        autoglobe_rng::check::cases(8, |rng| {
            // Every kind allowed on the application services, plus two
            // services that may stop and start from zero, one exclusive.
            let servers = rng.random_int(20..=140) as usize;
            let config = SynthConfig {
                app_actions: ActionKind::ALL.to_vec(),
                ..SynthConfig::sized(servers, rng.next_u64())
            };
            let mut l = generate(&config).landscape;
            for (name, exclusive) in [("Spare", false), ("Solo", true)] {
                let spec = ServiceSpec::new(name, ServiceKind::Generic)
                    .with_instances(0, Some(3))
                    .with_allowed_actions(ActionKind::ALL)
                    .with_exclusive(exclusive);
                let service = l.add_service(spec).unwrap();
                let host = ServerId::new(rng.random_below(servers) as u32);
                l.start_instance(service, host).unwrap();
            }
            let loads = ConstantLoads { cpu: 0.4, mem: 0.3 };
            let now = SimTime::from_hours(1);
            let mut c = AutoGlobeController::new();
            let mut executor = ActionExecutor::new(ExecutorConfig::reliable(), rng.next_u64());
            let mut lost: Vec<(InstanceId, ServiceId)> = Vec::new();
            let (mut used_at, mut patched) = (None, 0);
            for _ in 0..400 {
                if rng.random_bool(0.5) {
                    let service = ServiceId::new(rng.random_below(l.num_services()) as u32);
                    let kind = *rng.choice(&ActionKind::ALL);
                    if rng.random_bool(0.5) {
                        c.rank_hosts_indexed(kind, service, None, &l, &loads, now);
                    } else {
                        c.best_restart_host(service, &l, &loads, now);
                    }
                    used_at = Some(l.revision());
                }
                let server = ServerId::new(rng.random_below(l.num_servers()) as u32);
                let decided = DecidedAction {
                    action: random_action(rng, &l),
                    trigger: TriggerKind::ServiceOverloaded,
                    applicability: 1.0,
                    host_score: None,
                    alternates: Vec::new(),
                };
                let planned = PlannedTrigger {
                    decided: Some(decided.clone()),
                    events: Vec::new(),
                };
                match rng.random_below(10) {
                    0 | 1 => {
                        c.commit(planned, &mut l, now);
                    }
                    2 => {
                        c.set_mode(ExecutionMode::SemiAutomatic);
                        c.commit(planned, &mut l, now);
                        c.set_mode(ExecutionMode::Automatic);
                        let id = c.pending().last().expect("queued").id;
                        c.confirm_pending(id, &mut l, now);
                    }
                    3 => {
                        executor.dispatch(decided, now);
                        executor.poll(now, &mut l, &mut c);
                    }
                    4 => {
                        let instances: Vec<InstanceId> = l.instances().map(|i| i.id).collect();
                        let kind = if instances.is_empty() || rng.random_bool(0.3) {
                            FailureKind::ServerFailed(server)
                        } else {
                            FailureKind::InstanceCrashed(*rng.choice(&instances))
                        };
                        let event = FailureEvent { kind, time: now };
                        lost.extend(c.handle_failure(&event, &mut l, &loads, now).lost);
                    }
                    5 => {
                        if let Some((old, service)) = lost.pop() {
                            if c.retry_restart(service, old, &mut l, &loads, now).is_none() {
                                lost.push((old, service));
                            }
                        }
                    }
                    6 => {
                        // Two applies between two uses.
                        c.commit(planned, &mut l, now);
                        let again = random_action(rng, &l);
                        let _ =
                            c.apply_action(again, TriggerKind::ServerIdle, 1.0, None, &mut l, now);
                    }
                    7 => {
                        l.set_available(server, rng.random_bool(0.7)).unwrap();
                    }
                    8 => {
                        let service = ServiceId::new(rng.random_below(l.num_services()) as u32);
                        l.start_instance(service, server).unwrap();
                    }
                    _ => {
                        let instances: Vec<InstanceId> = l.instances().map(|i| i.id).collect();
                        if !instances.is_empty() {
                            l.stop_instance(*rng.choice(&instances)).unwrap();
                        }
                    }
                }
                if let Some((revision, index)) = &c.host_index {
                    if *revision == l.revision() {
                        index.assert_same_arrays(&HostIndex::build(&l));
                        patched += usize::from(used_at != Some(*revision));
                    }
                }
            }
            assert!(patched > 50, "only {patched} steps left a patched memo");
        });
    }

    /// A ranking with its scores as bit patterns, for exact comparison.
    fn bits(ranked: &[(ServerId, f64)]) -> Vec<(ServerId, u64)> {
        ranked.iter().map(|&(s, v)| (s, v.to_bits())).collect()
    }

    #[test]
    fn nan_load_lanes_are_excluded_in_both_scoring_modes() {
        let mut f = fixture();
        mixed_loads(&mut f);
        // Poison one candidate's CPU lane. The engine rejects non-finite
        // measurements with a typed error, so the server is skipped instead
        // of ranked on a NaN-poisoned score — by the batched path without
        // aborting the rest of the batch, and by the scalar oracle.
        f.loads.set(Subject::Server(f.big), f64::NAN, 0.3);
        let now = SimTime::from_minutes(30);
        let mut c = AutoGlobeController::new();
        let batched = c.rank_hosts_indexed(
            ActionKind::Move,
            f.fi,
            Some(f.i1),
            &f.landscape,
            &f.loads,
            now,
        );
        let oracle = c.rank_hosts_exhaustive(
            ActionKind::Move,
            f.fi,
            Some(f.i1),
            &f.landscape,
            &f.loads,
            now,
        );
        for (label, hosts) in [("batched", &batched), ("oracle", &oracle)] {
            assert!(
                hosts.iter().all(|(s, _)| *s != f.big),
                "{label}: NaN-lane server must not be ranked: {hosts:?}"
            );
            assert!(
                hosts.iter().all(|(_, score)| score.is_finite()),
                "{label}: no NaN score may survive: {hosts:?}"
            );
            assert!(
                !hosts.is_empty(),
                "{label}: healthy candidates must still be ranked"
            );
        }
        assert_eq!(batched, oracle);
    }
}
