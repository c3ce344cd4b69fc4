//! Self-healing: remedying failure situations.
//!
//! "The controller also reacts upon idle situations. ... Failure situations
//! like a program crash are remedied for example with a restart."
//! (Section 2.) Unlike load triggers, a failure needs no watch time and no
//! applicability threshold — the crashed instance is already gone; the only
//! fuzzy decision left is *where* to restart it, which reuses the
//! server-selection controller with the placement rule base.
//!
//! A crashed *instance* restarts on its own host when that host can still
//! take it, else on the best-scoring other host. A failed *server* is marked
//! unavailable and every instance it ran is restarted elsewhere; instances
//! with no feasible host are reported as lost via an administrator alert.
//!
//! # The restart search
//!
//! [`AutoGlobeController::best_restart_host`] runs on the machinery of the
//! trigger path: the revision-memoized [`crate::HostIndex`] answers the
//! placement check and `instancesOnServer`, the protection set is
//! snapshotted once, and every feasible host is scored in **one**
//! column-wise engine cycle ([`crate::ServerSelector::score_batch`] with
//! [`ActionKind::Start`]). The recovery's own stops and starts patch the
//! memo in place, so a restart after one of them reuses it; after any
//! other write (the failed host's availability change) the first restart
//! rebuilds it, O(instances + servers). Either way a restart costs one
//! batched engine cycle instead of up to three instance-table scans and
//! one scalar engine run per server. Its result is the exhaustive scalar
//! scan's, under five rules:
//!
//! 1. Servers are visited in ascending id; the first server that can host
//!    the service is the *fallback*, even when it cannot be scored.
//! 2. A protected host stays eligible — losing an instance is worse than
//!    disturbing a protected host — but its score is multiplied by 0.5.
//! 3. The winner is the first host whose (penalised) score is strictly
//!    greater than every earlier one, so ties go to the lowest id.
//! 4. A host with a non-finite input lane is dropped before the batch: the
//!    engine rejects a whole batch for one such value, where a per-host
//!    run skipped only that host.
//! 5. An engine error (a broken service-specific Start rule base) leaves
//!    every host unscored, and the fallback wins.

use crate::controller::{gather_server_inputs, AutoGlobeController};
use crate::inputs::{LoadView, ServerInputs};
use crate::log::ControllerEvent;
use autoglobe_landscape::{ActionKind, InstanceId, Landscape, LandscapeError, ServerId, ServiceId};
use autoglobe_monitor::{FailureEvent, FailureKind, SimTime, TriggerKind};

/// The outcome of handling one failure.
#[derive(Debug, Clone, Default)]
pub struct RecoveryOutcome {
    /// `(crashed instance, restarted instance, host)` per recovery.
    pub recovered: Vec<(InstanceId, InstanceId, ServerId)>,
    /// Instances that could not be restarted anywhere, with their service —
    /// so callers can queue them for a retry once capacity returns.
    pub lost: Vec<(InstanceId, ServiceId)>,
    /// Everything logged while handling the failure.
    pub events: Vec<ControllerEvent>,
}

impl AutoGlobeController {
    /// Handle a failure notification (Figure 2's failure path).
    ///
    /// Restarts bypass the declarative *action* constraints — a service that
    /// forbids `move` still gets its crashed instance restarted, exactly as
    /// a human administrator would restart a crashed SAP work process —
    /// but respect all *placement* constraints (exclusivity, minimum
    /// performance index, memory, availability).
    pub fn handle_failure(
        &mut self,
        event: &FailureEvent,
        landscape: &mut Landscape,
        loads: &dyn LoadView,
        now: SimTime,
    ) -> RecoveryOutcome {
        let mut outcome = RecoveryOutcome::default();
        match event.kind {
            FailureKind::InstanceCrashed(instance) => {
                self.recover_instance(instance, landscape, loads, now, &mut outcome);
            }
            FailureKind::ServerFailed(server) => {
                // Availability is not part of the host index (`can_host`
                // reads it from the landscape), so the memo stays current.
                let _ = self.mutate(landscape, |l| l.set_available(server, false), |_, _| None);
                for instance in landscape.instances_on(server) {
                    self.recover_instance(instance, landscape, loads, now, &mut outcome);
                }
            }
        }
        outcome
    }

    fn recover_instance(
        &mut self,
        crashed: InstanceId,
        landscape: &mut Landscape,
        loads: &dyn LoadView,
        now: SimTime,
        outcome: &mut RecoveryOutcome,
    ) {
        let Ok(instance) = landscape.instance(crashed) else {
            return;
        };
        let service = instance.service;
        let old_host = instance.server;
        // The crash already terminated the process; reflect that first.
        let _ = self.mutate(
            landscape,
            |l| l.stop_instance(crashed),
            |_, _| Some((crashed, service, Some(old_host), None)),
        );

        let target = self.restart_target(service, old_host, landscape, loads, now);
        match target {
            Some(host) => {
                let new_instance = self
                    .start_instance(service, host, landscape)
                    .expect("restart target was validated");
                let e = ControllerEvent::Recovered {
                    time: now,
                    service,
                    old_instance: crashed,
                    new_instance,
                    server: host,
                };
                self.push_log(e.clone());
                outcome.events.push(e);
                outcome.recovered.push((crashed, new_instance, host));
            }
            None => {
                let message =
                    format!("instance {crashed} of {service} lost: no feasible host for a restart");
                let e = self.alert(now, TriggerKind::ServiceOverloaded, message);
                outcome.events.push(e);
                outcome.lost.push((crashed, service));
            }
        }
    }

    /// Where to restart: the old host when it can still take the instance,
    /// otherwise the best placement-scored feasible host.
    fn restart_target(
        &mut self,
        service: ServiceId,
        old_host: ServerId,
        landscape: &Landscape,
        loads: &dyn LoadView,
        now: SimTime,
    ) -> Option<ServerId> {
        if landscape.can_host(service, old_host) {
            return Some(old_host);
        }
        self.best_restart_host(service, landscape, loads, now)
    }

    /// The best feasible host for restarting an instance of `service`, or
    /// `None` only when no server can take it at all.
    ///
    /// Cost: one [`crate::HostIndex`] rebuild when the memo is stale
    /// (O(instances + servers)), one O(servers) pass of constant-time
    /// placement checks, and one batched engine cycle over the feasible
    /// hosts. The rules, as in the [module docs](self):
    ///
    /// - hosts are visited in ascending id, and the first feasible one is
    ///   the fallback even when it cannot be scored;
    /// - a protected host stays eligible at half its score;
    /// - the first host whose penalised score is strictly greater than
    ///   every earlier one wins;
    /// - a host with a non-finite input lane is left out of the batch (it
    ///   can still be the fallback);
    /// - an engine error leaves every host unscored, so the fallback wins —
    ///   losing an instance is strictly worse than an unscored placement.
    pub fn best_restart_host(
        &mut self,
        service: ServiceId,
        landscape: &Landscape,
        loads: &dyn LoadView,
        now: SimTime,
    ) -> Option<ServerId> {
        let service_name = &landscape.service(service).ok()?.name;
        let protected = self.protection().protected_servers(now);
        let index = self.take_index(landscape);
        let mut fallback: Option<ServerId> = None;
        // One batch row per scorable feasible host, in ascending id order.
        let mut hosts: Vec<ServerId> = Vec::new();
        let mut rows: Vec<ServerInputs> = Vec::new();
        for server in landscape.server_ids() {
            if !index.can_host(landscape, service, server) {
                continue;
            }
            fallback = fallback.or(Some(server));
            let Ok(spec) = landscape.server(server) else {
                continue;
            };
            let inputs = gather_server_inputs(spec, &index, loads, server);
            if !inputs.measurements().iter().all(|(_, v)| v.is_finite()) {
                continue;
            }
            hosts.push(server);
            rows.push(inputs);
        }
        self.put_index(landscape, index);
        let scores = self
            .server_selector_mut()
            .score_batch(ActionKind::Start, service_name, &rows)
            .unwrap_or_default();
        let mut best: Option<(ServerId, f64)> = None;
        for (&server, score) in hosts.iter().zip(scores) {
            let penalty = if protected.binary_search(&server).is_ok() {
                0.5
            } else {
                1.0
            };
            let score = score * penalty;
            if best.is_none_or(|(_, s)| score > s) {
                best = Some((server, score));
            }
        }
        best.map(|(server, _)| server).or(fallback)
    }

    /// Retry the restart of a previously lost instance once capacity may
    /// have returned (a repaired host, a freed exclusive server).
    ///
    /// On success the new instance is started, a
    /// [`ControllerEvent::Recovered`] is logged, and
    /// `(new instance, host)` is returned; with no feasible host the queue
    /// entry stays pending and `None` is returned (silently — the loss was
    /// already alerted when it happened).
    pub fn retry_restart(
        &mut self,
        service: ServiceId,
        old_instance: InstanceId,
        landscape: &mut Landscape,
        loads: &dyn LoadView,
        now: SimTime,
    ) -> Option<(InstanceId, ServerId)> {
        let host = self.best_restart_host(service, landscape, loads, now)?;
        let new_instance = self.start_instance(service, host, landscape).ok()?;
        let e = ControllerEvent::Recovered {
            time: now,
            service,
            old_instance,
            new_instance,
            server: host,
        };
        self.push_log(e);
        Some((new_instance, host))
    }

    /// Start an instance of `service` on `host` through [`Self::mutate`].
    fn start_instance(
        &mut self,
        service: ServiceId,
        host: ServerId,
        landscape: &mut Landscape,
    ) -> Result<InstanceId, LandscapeError> {
        self.mutate(
            landscape,
            |l| l.start_instance(service, host),
            |&id, _| Some((id, service, None, Some(host))),
        )
    }

    /// Log that a previously failed host finished its repair and rejoined
    /// the pool. Returns the logged event so callers can forward it.
    pub fn note_repaired(&mut self, server: ServerId, now: SimTime) -> ControllerEvent {
        let e = ControllerEvent::Repaired { time: now, server };
        self.push_log(e.clone());
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::TableLoads;
    use autoglobe_landscape::{ServerSpec, ServiceKind, ServiceSpec};
    use autoglobe_monitor::{SimDuration, Subject};

    struct Fixture {
        landscape: Landscape,
        blade1: ServerId,
        blade2: ServerId,
        big: ServerId,
        app: ServiceId,
        instance: InstanceId,
        loads: TableLoads,
    }

    fn fixture() -> Fixture {
        let mut landscape = Landscape::new();
        let blade1 = landscape
            .add_server(ServerSpec::fsc_bx300("Blade1"))
            .unwrap();
        let blade2 = landscape
            .add_server(ServerSpec::fsc_bx600("Blade2"))
            .unwrap();
        let big = landscape.add_server(ServerSpec::hp_bl40p("Big")).unwrap();
        // Immobile service: restarts must work even when no action is allowed.
        let app = landscape
            .add_service(ServiceSpec::new("app", ServiceKind::ApplicationServer).immobile())
            .unwrap();
        let instance = landscape.start_instance(app, blade1).unwrap();
        let mut loads = TableLoads::new();
        loads.set(Subject::Server(blade1), 0.4, 0.3);
        loads.set(Subject::Server(blade2), 0.2, 0.2);
        loads.set(Subject::Server(big), 0.1, 0.1);
        Fixture {
            landscape,
            blade1,
            blade2,
            big,
            app,
            instance,
            loads,
        }
    }

    fn crash(instance: InstanceId) -> FailureEvent {
        FailureEvent {
            kind: FailureKind::InstanceCrashed(instance),
            time: SimTime::from_minutes(90),
        }
    }

    #[test]
    fn crashed_instance_restarts_on_its_own_host() {
        let mut f = fixture();
        let mut c = AutoGlobeController::new();
        let outcome = c.handle_failure(
            &crash(f.instance),
            &mut f.landscape,
            &f.loads,
            SimTime::from_minutes(90),
        );
        assert_eq!(outcome.recovered.len(), 1);
        assert!(outcome.lost.is_empty());
        let (old, new, host) = outcome.recovered[0];
        assert_eq!(old, f.instance);
        assert_ne!(new, f.instance, "a restart is a new process with a new id");
        assert_eq!(host, f.blade1, "same host preferred");
        assert_eq!(f.landscape.instance_count_of(f.app), 1);
        // The event log recorded the recovery.
        assert!(c
            .log()
            .iter()
            .any(|e| matches!(e, ControllerEvent::Recovered { .. })));
    }

    #[test]
    fn server_failure_relocates_all_instances_and_disables_host() {
        let mut f = fixture();
        let second = f.landscape.start_instance(f.app, f.blade1).unwrap();
        let mut c = AutoGlobeController::new();
        let event = FailureEvent {
            kind: FailureKind::ServerFailed(f.blade1),
            time: SimTime::from_hours(2),
        };
        let outcome = c.handle_failure(&event, &mut f.landscape, &f.loads, SimTime::from_hours(2));
        assert_eq!(outcome.recovered.len(), 2);
        assert!(!f.landscape.is_available(f.blade1));
        for &(_, new, host) in &outcome.recovered {
            assert_ne!(host, f.blade1, "failed host cannot receive restarts");
            assert!(f.landscape.instance(new).is_ok());
        }
        let _ = second;
        assert_eq!(f.landscape.instance_count_of(f.app), 2);
        // Subsequent placements avoid the failed host too.
        assert!(!f.landscape.can_host(f.app, f.blade1));
        // Repair restores it.
        f.landscape.set_available(f.blade1, true).unwrap();
        assert!(f.landscape.can_host(f.app, f.blade1));
    }

    #[test]
    fn restart_respects_placement_constraints() {
        // Exclusive DB on its host: the crashed app instance must not land
        // there even if it is the only idle host.
        let mut f = fixture();
        let db = f
            .landscape
            .add_service(ServiceSpec::new("db", ServiceKind::Database).with_exclusive(true))
            .unwrap();
        f.landscape.start_instance(db, f.big).unwrap();
        // Fail the app's host.
        let event = FailureEvent {
            kind: FailureKind::ServerFailed(f.blade1),
            time: SimTime::from_hours(1),
        };
        let mut c = AutoGlobeController::new();
        let outcome = c.handle_failure(&event, &mut f.landscape, &f.loads, SimTime::from_hours(1));
        assert_eq!(outcome.recovered.len(), 1);
        assert_eq!(
            outcome.recovered[0].2, f.blade2,
            "exclusive Big is off-limits"
        );
    }

    #[test]
    fn unrecoverable_instance_is_reported_lost() {
        let mut f = fixture();
        // Fail every other host first.
        f.landscape.set_available(f.blade2, false).unwrap();
        f.landscape.set_available(f.big, false).unwrap();
        let event = FailureEvent {
            kind: FailureKind::ServerFailed(f.blade1),
            time: SimTime::from_hours(1),
        };
        let mut c = AutoGlobeController::new();
        let outcome = c.handle_failure(&event, &mut f.landscape, &f.loads, SimTime::from_hours(1));
        assert!(outcome.recovered.is_empty());
        assert_eq!(outcome.lost, vec![(f.instance, f.app)]);
        assert_eq!(f.landscape.instance_count_of(f.app), 0);
        assert!(outcome
            .events
            .iter()
            .any(|e| matches!(e, ControllerEvent::AdministratorAlert { .. })));
    }

    #[test]
    fn unscorable_candidates_do_not_abort_the_restart_search() {
        // Regression: a service-specific placement rule base that fails to
        // build (here: a rule over an action-selection-only variable) makes
        // `ServerSelector::score` return Err for every host. The old code
        // bailed out of the whole candidate loop with `.ok()?` and reported
        // the instance lost even though feasible hosts existed; now the
        // engine error leaves every host unscored and the first feasible
        // host wins.
        let mut f = fixture();
        let mut bases = crate::rulebase::RuleBases::paper_defaults();
        bases.add_service_action_rules(
            ActionKind::Start,
            "app",
            autoglobe_fuzzy::parse_rules("IF serviceLoad IS high THEN score IS applicable")
                .expect("parses fine; fails engine validation"),
        );
        let mut c = AutoGlobeController::with_rule_bases(
            bases,
            crate::controller::ControllerConfig::default(),
        );
        // The instance's own host fails, so restart_target must search.
        let event = FailureEvent {
            kind: FailureKind::ServerFailed(f.blade1),
            time: SimTime::from_hours(1),
        };
        let outcome = c.handle_failure(&event, &mut f.landscape, &f.loads, SimTime::from_hours(1));
        assert!(
            outcome.lost.is_empty(),
            "feasible hosts exist; nothing may be reported lost: {outcome:?}"
        );
        assert_eq!(outcome.recovered.len(), 1);
        assert_ne!(outcome.recovered[0].2, f.blade1);
    }

    #[test]
    fn retry_restart_succeeds_once_capacity_returns() {
        let mut f = fixture();
        // Everything down: the failure loses the instance.
        f.landscape.set_available(f.blade2, false).unwrap();
        f.landscape.set_available(f.big, false).unwrap();
        let event = FailureEvent {
            kind: FailureKind::ServerFailed(f.blade1),
            time: SimTime::from_hours(1),
        };
        let mut c = AutoGlobeController::new();
        let outcome = c.handle_failure(&event, &mut f.landscape, &f.loads, SimTime::from_hours(1));
        assert_eq!(outcome.lost.len(), 1);
        let (old_instance, service) = outcome.lost[0];

        // While everything is still down the retry stays pending…
        assert!(c
            .retry_restart(
                service,
                old_instance,
                &mut f.landscape,
                &f.loads,
                SimTime::from_hours(2)
            )
            .is_none());

        // …and succeeds as soon as one host repairs.
        f.landscape.set_available(f.blade2, true).unwrap();
        let (new_instance, host) = c
            .retry_restart(
                service,
                old_instance,
                &mut f.landscape,
                &f.loads,
                SimTime::from_hours(3),
            )
            .expect("repaired host takes the restart");
        assert_eq!(host, f.blade2);
        assert!(f.landscape.instance(new_instance).is_ok());
        assert!(c
            .log()
            .iter()
            .any(|e| matches!(e, ControllerEvent::Recovered { .. })));
    }

    /// The scalar Start score of `server` under `loads`, for test
    /// preconditions.
    fn start_score(f: &Fixture, loads: &TableLoads, server: ServerId) -> f64 {
        let inputs = ServerInputs::gather(&f.landscape, loads, server).unwrap();
        crate::ServerSelector::new(
            crate::rulebase::RuleBases::paper_defaults(),
            Default::default(),
        )
        .score(ActionKind::Start, "app", &inputs)
        .unwrap()
    }

    #[test]
    fn a_nan_lane_drops_only_its_host_from_the_batch() {
        // Blade1 (lowest id, the fallback) reads a NaN CPU load; idle Big
        // outscores busy Blade2. The batch must drop Blade1's row alone:
        // keeping it fails the whole engine cycle and hands the restart to
        // the unscored fallback.
        let mut f = fixture();
        let now = SimTime::from_hours(1);
        f.loads.set(Subject::Server(f.blade1), f64::NAN, 0.3);
        f.loads.set(Subject::Server(f.blade2), 0.9, 0.8);
        assert!(start_score(&f, &f.loads, f.big) > start_score(&f, &f.loads, f.blade2));
        let mut c = AutoGlobeController::new();
        assert_eq!(
            c.best_restart_host(f.app, &f.landscape, &f.loads, now),
            Some(f.big)
        );

        // With every feasible host poisoned nothing can be scored, and the
        // first feasible host still takes the restart.
        f.loads.set(Subject::Server(f.blade2), f64::NAN, 0.2);
        f.loads.set(Subject::Server(f.big), 0.1, f64::NAN);
        assert_eq!(
            c.best_restart_host(f.app, &f.landscape, &f.loads, now),
            Some(f.blade1)
        );
    }

    #[test]
    fn a_protected_host_competes_at_half_score() {
        // Idle Big beats lightly loaded Blade2 on its raw score but not at
        // half of it, so protecting Big hands the restart to Blade2.
        let mut f = fixture();
        let now = SimTime::from_hours(1);
        f.landscape.set_available(f.blade1, false).unwrap();
        f.loads.set(Subject::Server(f.blade2), 0.25, 0.2);
        let (big, blade2) = (
            start_score(&f, &f.loads, f.big),
            start_score(&f, &f.loads, f.blade2),
        );
        assert!(
            big > blade2 && 0.5 * big < blade2,
            "big {big}, blade2 {blade2}"
        );
        let mut c = AutoGlobeController::new();
        assert_eq!(
            c.best_restart_host(f.app, &f.landscape, &f.loads, now),
            Some(f.big)
        );
        c.protect(Subject::Server(f.big), now, SimDuration::from_minutes(30));
        assert_eq!(
            c.best_restart_host(f.app, &f.landscape, &f.loads, now),
            Some(f.blade2)
        );

        // Protection never makes a host ineligible: as the only feasible
        // host, protected Big still takes the restart.
        f.landscape.set_available(f.blade2, false).unwrap();
        assert_eq!(
            c.best_restart_host(f.app, &f.landscape, &f.loads, now),
            Some(f.big)
        );
    }

    #[test]
    fn note_repaired_is_logged() {
        let f = fixture();
        let mut c = AutoGlobeController::new();
        let e = c.note_repaired(f.blade1, SimTime::from_hours(4));
        assert!(matches!(e, ControllerEvent::Repaired { server, .. } if server == f.blade1));
        assert_eq!(c.log(), &[e]);
    }

    #[test]
    fn unknown_instance_crash_is_a_no_op() {
        let mut f = fixture();
        let mut c = AutoGlobeController::new();
        let outcome = c.handle_failure(
            &crash(InstanceId::new(999)),
            &mut f.landscape,
            &f.loads,
            SimTime::ZERO,
        );
        assert!(outcome.recovered.is_empty());
        assert!(outcome.lost.is_empty());
    }
}
