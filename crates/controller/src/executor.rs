//! Fallible, asynchronous action execution.
//!
//! The paper assumes remedial actions are carried out by a real
//! virtualization substrate — which takes time, times out, and sometimes
//! simply fails. [`ActionExecutor`] models that substrate: every decided
//! action becomes an in-flight operation with a drawn latency, a per-kind
//! failure probability and a timeout. Failed attempts retry with capped
//! exponential backoff against the next-best server-selection candidate
//! (the ranked alternates captured at planning time); exhausted operations
//! are abandoned with an administrator alert.
//!
//! Two safety properties hold by construction:
//!
//! * **Clean compensation** — the landscape is mutated only when an attempt
//!   *succeeds*, so a failed `Move` trivially leaves the source instance
//!   running and an abandoned operation has no partial effects to undo.
//! * **Fencing** — an attempt that outlives its timeout is declared failed
//!   and its eventual outcome is quarantined as a *latent outcome*; if the
//!   attempt would have succeeded after all, the late success is discarded
//!   (and reported) instead of creating a ghost instance behind the
//!   retried operation's back.
//!
//! The executor owns its own RNG. With zero latency and zero failure
//! probability ([`ExecutorConfig::reliable`]) it performs no draws at all
//! and reproduces the synchronous execution path bit for bit.

use crate::controller::AutoGlobeController;
use crate::log::{ActionRecord, ControllerEvent};
use autoglobe_landscape::{Action, ActionKind, Landscape, ServerId};
use autoglobe_monitor::{SimDuration, SimTime, TriggerKind};
use autoglobe_rng::Rng;
use std::collections::{BTreeMap, VecDeque};

/// Tunables of the fallible execution substrate.
#[derive(Debug, Clone)]
pub struct ExecutorConfig {
    /// Minimum time one attempt takes.
    pub min_latency: SimDuration,
    /// Maximum time one attempt takes (drawn uniformly per attempt).
    pub max_latency: SimDuration,
    /// Attempts still running after this long are declared failed and
    /// fenced.
    pub timeout: SimDuration,
    /// Default probability that one attempt fails.
    pub failure_probability: f64,
    /// Per-kind overrides of [`ExecutorConfig::failure_probability`] —
    /// a `Move` (state transfer) fails more often than a `ReducePriority`.
    pub kind_failure_probability: BTreeMap<ActionKind, f64>,
    /// Attempts per operation before it is abandoned (≥ 1).
    pub max_attempts: u32,
    /// Backoff before retry k is `min(backoff_base · 2^(k−1), backoff_cap)`.
    pub backoff_base: SimDuration,
    /// Upper bound on the exponential backoff.
    pub backoff_cap: SimDuration,
}

impl ExecutorConfig {
    /// An instant, infallible substrate: zero latency, zero failure
    /// probability. Running the executor with this configuration reproduces
    /// the synchronous execution path bit for bit (no RNG draws happen).
    pub fn reliable() -> Self {
        ExecutorConfig {
            min_latency: SimDuration::ZERO,
            max_latency: SimDuration::ZERO,
            timeout: SimDuration::from_minutes(10),
            failure_probability: 0.0,
            kind_failure_probability: BTreeMap::new(),
            max_attempts: 3,
            backoff_base: SimDuration::from_minutes(1),
            backoff_cap: SimDuration::from_minutes(8),
        }
    }

    /// Check the parameters (finite probabilities in `[0, 1]`, coherent
    /// latency range, at least one attempt, a positive timeout).
    pub fn validate(&self) -> Result<(), String> {
        let check_p = |name: &str, p: f64| -> Result<(), String> {
            if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                return Err(format!(
                    "{name} must be a finite probability in [0, 1], got {p}"
                ));
            }
            Ok(())
        };
        check_p("failure_probability", self.failure_probability)?;
        for (kind, &p) in &self.kind_failure_probability {
            check_p(&format!("failure probability for {kind}"), p)?;
        }
        if self.min_latency > self.max_latency {
            return Err(format!(
                "min_latency ({}) exceeds max_latency ({})",
                self.min_latency, self.max_latency
            ));
        }
        if self.timeout == SimDuration::ZERO {
            return Err("timeout must be positive".into());
        }
        if self.max_attempts == 0 {
            return Err("max_attempts must be at least 1".into());
        }
        Ok(())
    }

    /// The failure probability for one attempt of `kind`.
    pub fn probability_for(&self, kind: ActionKind) -> f64 {
        self.kind_failure_probability
            .get(&kind)
            .copied()
            .unwrap_or(self.failure_probability)
    }
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig::reliable()
    }
}

/// An action the controller decided on, ready to be dispatched: the chosen
/// concrete action plus the ranked alternate hosts the retry path may fall
/// back to ([`AutoGlobeController::plan_trigger`] produces these).
#[derive(Debug, Clone, PartialEq)]
pub struct DecidedAction {
    /// The concrete action to execute.
    pub action: Action,
    /// The trigger that led to it.
    pub trigger: TriggerKind,
    /// Fuzzy applicability of the action.
    pub applicability: f64,
    /// Host score of the chosen target, if the action has one.
    pub host_score: Option<f64>,
    /// Remaining server-selection candidates, best first — the hosts a
    /// failed targeted attempt retries against.
    pub alternates: Vec<(ServerId, f64)>,
}

/// The result of planning one trigger (the executor-facing counterpart of
/// [`crate::TriggerOutcome`]).
#[derive(Debug, Clone, Default)]
pub struct PlannedTrigger {
    /// The decided action, if any candidate survived verification.
    pub decided: Option<DecidedAction>,
    /// Everything logged while planning (suppressions, rejections, alerts).
    pub events: Vec<ControllerEvent>,
}

/// What the executor reports from [`ActionExecutor::poll`].
#[derive(Debug, Clone, PartialEq)]
pub enum ExecutionEvent {
    /// An attempt succeeded; the action was applied to the landscape and
    /// logged through the controller.
    Completed {
        /// Operation id.
        id: u64,
        /// The executed-action record (timestamped at completion).
        record: ActionRecord,
    },
    /// An attempt failed; the operation backs off and will retry — against
    /// the next-best host for targeted actions.
    Retried {
        /// Operation id.
        id: u64,
        /// The action of the *next* attempt (possibly re-targeted).
        action: Action,
        /// The next attempt's number (1-based).
        attempt: u32,
        /// When the next attempt starts.
        resume_at: SimTime,
    },
    /// An attempt outlived its timeout; its eventual outcome is fenced.
    TimedOut {
        /// Operation id.
        id: u64,
        /// The timed-out action.
        action: Action,
        /// The attempt number that timed out.
        attempt: u32,
        /// When the timeout was declared.
        time: SimTime,
    },
    /// A fenced attempt turned out to succeed after its timeout; the late
    /// success was discarded instead of mutating the landscape.
    FencedLateSuccess {
        /// Operation id.
        id: u64,
        /// The action whose late success was discarded.
        action: Action,
        /// When the late outcome arrived.
        time: SimTime,
    },
    /// The operation was stamped with a lease epoch older than the
    /// executor's fence: its issuer lost ownership (crashed, partitioned,
    /// or was superseded) after dispatching, so the action is discarded
    /// without touching the landscape — a revived old owner cannot issue
    /// ghost moves.
    FencedStaleEpoch {
        /// Operation id.
        id: u64,
        /// The discarded action.
        action: Action,
        /// The stale epoch the operation was issued under.
        epoch: u64,
        /// When the fence caught it.
        time: SimTime,
    },
    /// The operation exhausted its attempts (or alternate hosts) and was
    /// abandoned; nothing was applied, so no compensation beyond the alert
    /// is needed.
    Abandoned {
        /// Operation id.
        id: u64,
        /// The last attempted action.
        action: Action,
        /// Attempts made before giving up.
        attempts: u32,
        /// When the operation was abandoned.
        time: SimTime,
    },
}

#[derive(Debug, Clone, Copy)]
enum OpState {
    /// Backing off; the next attempt starts at `resume_at`.
    Waiting { resume_at: SimTime },
    /// An attempt is executing.
    Running {
        completes_at: SimTime,
        deadline: SimTime,
        will_fail: bool,
    },
}

#[derive(Debug, Clone)]
struct InFlightOp {
    id: u64,
    action: Action,
    trigger: TriggerKind,
    applicability: f64,
    host_score: Option<f64>,
    alternates: VecDeque<(ServerId, f64)>,
    /// 1-based number of the current attempt.
    attempt: u32,
    /// Lease epoch the op was issued under; ops below the fence never apply.
    epoch: u64,
    state: OpState,
}

/// A timed-out attempt whose true outcome is still in flight.
#[derive(Debug, Clone, Copy)]
struct LatentOutcome {
    id: u64,
    action: Action,
    completes_at: SimTime,
    will_fail: bool,
}

/// The fallible asynchronous execution substrate (see the module docs).
#[derive(Debug)]
pub struct ActionExecutor {
    config: ExecutorConfig,
    rng: Rng,
    in_flight: Vec<InFlightOp>,
    fenced: Vec<LatentOutcome>,
    next_op: u64,
    /// Epoch stamped onto newly dispatched operations.
    current_epoch: u64,
    /// Minimum epoch an operation needs to apply; raised by
    /// [`ActionExecutor::fence_below`] when a lease changes hands.
    fence_epoch: u64,
}

impl ActionExecutor {
    /// An executor with its own RNG stream — derive `seed` from the run's
    /// master seed so the executor's draws never perturb the simulation's.
    ///
    /// # Panics
    /// Panics if the configuration fails [`ExecutorConfig::validate`].
    pub fn new(config: ExecutorConfig, seed: u64) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid executor config: {e}");
        }
        ActionExecutor {
            config,
            rng: Rng::seed_from_u64(seed),
            in_flight: Vec::new(),
            fenced: Vec::new(),
            next_op: 0,
            current_epoch: 0,
            fence_epoch: 0,
        }
    }

    /// The lease epoch stamped onto subsequent dispatches. Epoch 0 (the
    /// default) is the single-owner mode every pre-sharded caller runs in.
    pub fn epoch(&self) -> u64 {
        self.current_epoch
    }

    /// Stamp subsequent dispatches with `epoch` — the issuing shard
    /// owner's current lease epoch.
    pub fn set_epoch(&mut self, epoch: u64) {
        self.current_epoch = epoch;
    }

    /// The minimum epoch an operation must carry to be applied.
    pub fn fence_epoch(&self) -> u64 {
        self.fence_epoch
    }

    /// Raise the fence to `min_epoch`: every in-flight operation issued
    /// under an older lease epoch is discarded immediately (returned as
    /// [`ExecutionEvent::FencedStaleEpoch`], in dispatch order), and any
    /// operation dispatched later with a stale stamp is discarded at its
    /// next poll. The coordination layer calls this when a shard lease
    /// changes hands, so the previous owner's in-flight work can never
    /// mutate the landscape after the succession.
    pub fn fence_below(&mut self, min_epoch: u64, now: SimTime) -> Vec<ExecutionEvent> {
        self.fence_epoch = self.fence_epoch.max(min_epoch);
        let mut events = Vec::new();
        let ops = std::mem::take(&mut self.in_flight);
        for op in ops {
            if op.epoch < self.fence_epoch {
                events.push(ExecutionEvent::FencedStaleEpoch {
                    id: op.id,
                    action: op.action,
                    epoch: op.epoch,
                    time: now,
                });
            } else {
                self.in_flight.push(op);
            }
        }
        events
    }

    /// The substrate configuration.
    pub fn config(&self) -> &ExecutorConfig {
        &self.config
    }

    /// Number of operations currently in flight (running or backing off).
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// True when no operation is in flight and no latent outcome is fenced.
    pub fn is_idle(&self) -> bool {
        self.in_flight.is_empty() && self.fenced.is_empty()
    }

    /// Start executing a decided action. Returns the operation id.
    pub fn dispatch(&mut self, decided: DecidedAction, now: SimTime) -> u64 {
        let id = self.next_op;
        self.next_op += 1;
        let state = self.draw_attempt(decided.action.kind(), now);
        self.in_flight.push(InFlightOp {
            id,
            action: decided.action,
            trigger: decided.trigger,
            applicability: decided.applicability,
            host_score: decided.host_score,
            alternates: decided.alternates.into_iter().collect(),
            attempt: 1,
            epoch: self.current_epoch,
            state,
        });
        id
    }

    /// Advance every in-flight operation to `now`: resume waits, settle
    /// finished attempts (applying successes through the landscape and the
    /// controller's log), declare timeouts, and discard fenced late
    /// successes. Events are returned in dispatch order.
    pub fn poll(
        &mut self,
        now: SimTime,
        landscape: &mut Landscape,
        controller: &mut AutoGlobeController,
    ) -> Vec<ExecutionEvent> {
        let mut events = Vec::new();

        // Latent outcomes first: a late success arriving now is discarded.
        let fenced = std::mem::take(&mut self.fenced);
        for latent in fenced {
            if latent.completes_at <= now {
                if !latent.will_fail {
                    events.push(ExecutionEvent::FencedLateSuccess {
                        id: latent.id,
                        action: latent.action,
                        time: now,
                    });
                }
            } else {
                self.fenced.push(latent);
            }
        }

        let ops = std::mem::take(&mut self.in_flight);
        for mut op in ops {
            // An op dispatched under a lease epoch the fence has since
            // passed is discarded before its state can advance — late
            // dispatches from a deposed owner never apply.
            if op.epoch < self.fence_epoch {
                events.push(ExecutionEvent::FencedStaleEpoch {
                    id: op.id,
                    action: op.action,
                    epoch: op.epoch,
                    time: now,
                });
                continue;
            }
            // One op can pass through several states within one poll (e.g.
            // resume from backoff and complete instantly at zero latency);
            // max_attempts bounds the loop.
            loop {
                match op.state {
                    OpState::Waiting { resume_at } => {
                        if resume_at > now {
                            self.in_flight.push(op);
                            break;
                        }
                        op.state = self.draw_attempt(op.action.kind(), resume_at.max(now));
                    }
                    OpState::Running {
                        completes_at,
                        deadline,
                        will_fail,
                    } => {
                        if completes_at.min(deadline) > now {
                            self.in_flight.push(op);
                            break;
                        }
                        if completes_at > deadline {
                            // Timed out: fence the still-running attempt so
                            // its eventual outcome cannot mutate anything.
                            events.push(ExecutionEvent::TimedOut {
                                id: op.id,
                                action: op.action,
                                attempt: op.attempt,
                                time: now,
                            });
                            self.fenced.push(LatentOutcome {
                                id: op.id,
                                action: op.action,
                                completes_at,
                                will_fail,
                            });
                            if !self.retry(&mut op, now, controller, &mut events) {
                                break;
                            }
                        } else if will_fail {
                            if !self.retry(&mut op, now, controller, &mut events) {
                                break;
                            }
                        } else {
                            match controller.apply_action(
                                op.action,
                                op.trigger,
                                op.applicability,
                                op.host_score,
                                landscape,
                                completes_at,
                            ) {
                                Ok(record) => {
                                    events.push(ExecutionEvent::Completed { id: op.id, record });
                                    break;
                                }
                                Err(err) => {
                                    // The landscape changed underneath the
                                    // in-flight attempt; treat it like a
                                    // failed attempt.
                                    controller.reject(now, op.action, err);
                                    if !self.retry(&mut op, now, controller, &mut events) {
                                        break;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        events
    }

    /// Draw one attempt's latency and outcome. With zero latency span and
    /// zero failure probability no RNG draw happens at all.
    fn draw_attempt(&mut self, kind: ActionKind, start: SimTime) -> OpState {
        let span = self
            .config
            .max_latency
            .as_secs()
            .saturating_sub(self.config.min_latency.as_secs());
        let latency = self.config.min_latency.as_secs()
            + if span > 0 {
                self.rng.random_below(span as usize + 1) as u64
            } else {
                0
            };
        let p = self.config.probability_for(kind);
        let will_fail = p > 0.0 && self.rng.random_bool(p);
        OpState::Running {
            completes_at: start + SimDuration::from_secs(latency),
            deadline: start + self.config.timeout,
            will_fail,
        }
    }

    /// Schedule the next attempt with capped exponential backoff, walking
    /// the alternate-host list for targeted actions. Returns false when the
    /// operation was abandoned instead.
    fn retry(
        &mut self,
        op: &mut InFlightOp,
        now: SimTime,
        controller: &mut AutoGlobeController,
        events: &mut Vec<ExecutionEvent>,
    ) -> bool {
        let next_action = if op.action.target().is_some() {
            // The failed host stays failed; try the next-best candidate.
            op.alternates
                .pop_front()
                .and_then(|(host, score)| with_target(&op.action, host).map(|a| (a, Some(score))))
        } else {
            Some((op.action, op.host_score))
        };
        let (next_action, next_score) = match next_action {
            Some(n) if op.attempt < self.config.max_attempts => n,
            _ => {
                let message = format!(
                    "{} abandoned after {} attempt(s); no partial effects were applied",
                    op.action, op.attempt
                );
                controller.alert(now, op.trigger, message);
                events.push(ExecutionEvent::Abandoned {
                    id: op.id,
                    action: op.action,
                    attempts: op.attempt,
                    time: now,
                });
                return false;
            }
        };
        let shift = (op.attempt - 1).min(32);
        let backoff_secs = self
            .config
            .backoff_base
            .as_secs()
            .saturating_mul(1u64 << shift)
            .min(self.config.backoff_cap.as_secs());
        op.attempt += 1;
        op.action = next_action;
        op.host_score = next_score;
        op.state = OpState::Waiting {
            resume_at: now + SimDuration::from_secs(backoff_secs),
        };
        events.push(ExecutionEvent::Retried {
            id: op.id,
            action: op.action,
            attempt: op.attempt,
            resume_at: now + SimDuration::from_secs(backoff_secs),
        });
        true
    }
}

/// Rebuild a targeted action against a different host.
fn with_target(action: &Action, target: ServerId) -> Option<Action> {
    Some(match *action {
        Action::Start { service, .. } => Action::Start { service, target },
        Action::ScaleOut { service, .. } => Action::ScaleOut { service, target },
        Action::ScaleUp { instance, .. } => Action::ScaleUp { instance, target },
        Action::ScaleDown { instance, .. } => Action::ScaleDown { instance, target },
        Action::Move { instance, .. } => Action::Move { instance, target },
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::TableLoads;
    use autoglobe_landscape::{InstanceId, ServerSpec, ServiceId, ServiceKind, ServiceSpec};
    use autoglobe_monitor::{Subject, TriggerEvent};

    struct Fixture {
        landscape: Landscape,
        fi: ServiceId,
        blade1: ServerId,
        blade2: ServerId,
        big: ServerId,
        i1: InstanceId,
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
        let mut loads = TableLoads::new();
        loads.set(Subject::Server(blade1), 0.95, 0.5);
        loads.set(Subject::Server(blade2), 0.2, 0.2);
        loads.set(Subject::Server(big), 0.1, 0.1);
        loads.set(Subject::Instance(i1), 0.95, 0.0);
        loads.set(Subject::Service(fi), 0.9, 0.0);
        Fixture {
            landscape,
            fi,
            blade1,
            blade2,
            big,
            i1,
            loads,
        }
    }

    fn overload_event(service: ServiceId) -> TriggerEvent {
        TriggerEvent {
            kind: TriggerKind::ServiceOverloaded,
            subject: Subject::Service(service),
            time: SimTime::from_minutes(30),
            average_cpu: 0.9,
            average_mem: 0.4,
        }
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        assert!(ExecutorConfig::reliable().validate().is_ok());
        let mut c = ExecutorConfig::reliable();
        c.failure_probability = f64::NAN;
        assert!(c.validate().is_err());
        c.failure_probability = -0.1;
        assert!(c.validate().is_err());
        c.failure_probability = 1.5;
        assert!(c.validate().is_err());
        let mut c = ExecutorConfig::reliable();
        c.kind_failure_probability.insert(ActionKind::Move, 2.0);
        assert!(c.validate().is_err());
        let mut c = ExecutorConfig::reliable();
        c.min_latency = SimDuration::from_minutes(5);
        c.max_latency = SimDuration::from_minutes(1);
        assert!(c.validate().is_err());
        let mut c = ExecutorConfig::reliable();
        c.timeout = SimDuration::ZERO;
        assert!(c.validate().is_err());
        let mut c = ExecutorConfig::reliable();
        c.max_attempts = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn per_kind_probability_overrides_default() {
        let mut c = ExecutorConfig::reliable();
        c.failure_probability = 0.1;
        c.kind_failure_probability.insert(ActionKind::Move, 0.9);
        assert_eq!(c.probability_for(ActionKind::Move), 0.9);
        assert_eq!(c.probability_for(ActionKind::Start), 0.1);
    }

    #[test]
    fn reliable_executor_matches_the_synchronous_path() {
        // Same fixture, same trigger: handle_trigger (synchronous) vs.
        // plan → dispatch → poll through a reliable executor must produce
        // identical records, identical landscapes and identical protection.
        let mut sync_f = fixture();
        let mut sync_c = AutoGlobeController::new();
        let event = overload_event(sync_f.fi);
        let sync_out =
            sync_c.handle_trigger(&event, &mut sync_f.landscape, &sync_f.loads, event.time);
        assert!(sync_out.acted());

        let mut f = fixture();
        let mut c = AutoGlobeController::new();
        let mut exec = ActionExecutor::new(ExecutorConfig::reliable(), 7);
        let event = overload_event(f.fi);
        let planned = c.plan_trigger(&event, &f.landscape, &f.loads, event.time);
        let decided = planned.decided.expect("same trigger must decide");
        exec.dispatch(decided, event.time);
        let events = exec.poll(event.time, &mut f.landscape, &mut c);
        assert_eq!(events.len(), 1);
        let ExecutionEvent::Completed { record, .. } = &events[0] else {
            panic!("reliable executor completes instantly: {events:?}");
        };
        assert_eq!(record, &sync_out.executed[0]);
        assert!(exec.is_idle());
        // Landscape converged to the same allocation.
        assert_eq!(
            f.landscape.instance(f.i1).unwrap().server,
            sync_f.landscape.instance(sync_f.i1).unwrap().server
        );
        // Protection mirrors the synchronous path: the same trigger is now
        // suppressed in both controllers.
        let again = c.plan_trigger(&event, &f.landscape, &f.loads, event.time);
        assert!(matches!(
            again.events[0],
            ControllerEvent::SuppressedByProtection { .. }
        ));
    }

    #[test]
    fn failed_move_leaves_the_source_instance_running() {
        // Failure probability 1: every attempt fails. The retry path walks
        // the alternates and finally abandons — and because nothing is
        // applied until an attempt succeeds, the source instance never
        // moves.
        let f = fixture();
        let mut landscape = f.landscape;
        let mut c = AutoGlobeController::new();
        let config = ExecutorConfig {
            failure_probability: 1.0,
            max_attempts: 3,
            backoff_base: SimDuration::from_minutes(1),
            backoff_cap: SimDuration::from_minutes(2),
            ..ExecutorConfig::reliable()
        };
        let mut exec = ActionExecutor::new(config, 11);
        let t0 = SimTime::from_minutes(10);
        exec.dispatch(
            DecidedAction {
                action: Action::Move {
                    instance: f.i1,
                    target: f.blade2,
                },
                trigger: TriggerKind::ServerOverloaded,
                applicability: 0.8,
                host_score: Some(0.6),
                alternates: vec![(f.big, 0.5), (f.blade2, 0.4)],
            },
            t0,
        );
        let mut all = Vec::new();
        let mut t = t0;
        for _ in 0..10 {
            all.extend(exec.poll(t, &mut landscape, &mut c));
            t += SimDuration::from_minutes(1);
        }
        // Attempt 1 (blade2) fails → retry on big; attempt 2 fails → retry
        // on blade2 (next alternate); attempt 3 fails → abandoned.
        let retried: Vec<&ExecutionEvent> = all
            .iter()
            .filter(|e| matches!(e, ExecutionEvent::Retried { .. }))
            .collect();
        assert_eq!(retried.len(), 2);
        let ExecutionEvent::Retried {
            action: retry1,
            attempt: 2,
            ..
        } = retried[0]
        else {
            panic!("unexpected first retry: {:?}", retried[0]);
        };
        assert_eq!(retry1.target(), Some(f.big), "retry walks the alternates");
        assert!(all
            .iter()
            .any(|e| matches!(e, ExecutionEvent::Abandoned { attempts: 3, .. })));
        // Compensation: the source instance is still exactly where it was.
        assert_eq!(landscape.instance(f.i1).unwrap().server, f.blade1);
        assert!(exec.is_idle());
        // The abandonment was alerted through the controller log.
        assert!(c
            .log()
            .iter()
            .any(|e| matches!(e, ControllerEvent::AdministratorAlert { .. })));
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let f = fixture();
        let mut landscape = f.landscape;
        let mut c = AutoGlobeController::new();
        let config = ExecutorConfig {
            failure_probability: 1.0,
            max_attempts: 5,
            backoff_base: SimDuration::from_minutes(1),
            backoff_cap: SimDuration::from_minutes(3),
            ..ExecutorConfig::reliable()
        };
        let mut exec = ActionExecutor::new(config, 3);
        let t0 = SimTime::from_hours(1);
        // Untargeted action: retries repeat the same action.
        exec.dispatch(
            DecidedAction {
                action: Action::ReducePriority { service: f.fi },
                trigger: TriggerKind::ServerOverloaded,
                applicability: 0.5,
                host_score: None,
                alternates: Vec::new(),
            },
            t0,
        );
        let mut resumes = Vec::new();
        let mut t = t0;
        for _ in 0..30 {
            for e in exec.poll(t, &mut landscape, &mut c) {
                if let ExecutionEvent::Retried { resume_at, .. } = e {
                    resumes.push(resume_at);
                }
            }
            t += SimDuration::from_minutes(1);
        }
        assert_eq!(resumes.len(), 4);
        // Waits: 1, 2, 3 (capped), 3 (capped) minutes.
        let m = |n| SimDuration::from_minutes(n);
        assert_eq!(resumes[0], t0 + m(1));
        assert_eq!(resumes[1], resumes[0] + m(2));
        assert_eq!(resumes[2], resumes[1] + m(3));
        assert_eq!(resumes[3], resumes[2] + m(3));
    }

    #[test]
    fn timed_out_start_is_fenced_and_cannot_create_a_ghost_instance() {
        let f = fixture();
        let mut landscape = f.landscape;
        let mut c = AutoGlobeController::new();
        // Every attempt takes 5 minutes but times out after 2 — and would
        // have succeeded (failure probability 0): the classic ghost-start
        // hazard.
        let config = ExecutorConfig {
            min_latency: SimDuration::from_minutes(5),
            max_latency: SimDuration::from_minutes(5),
            timeout: SimDuration::from_minutes(2),
            failure_probability: 0.0,
            max_attempts: 2,
            backoff_base: SimDuration::from_minutes(1),
            backoff_cap: SimDuration::from_minutes(1),
            ..ExecutorConfig::reliable()
        };
        let mut exec = ActionExecutor::new(config, 5);
        let before = landscape.num_instances();
        let t0 = SimTime::from_hours(2);
        exec.dispatch(
            DecidedAction {
                action: Action::ScaleOut {
                    service: f.fi,
                    target: f.big,
                },
                trigger: TriggerKind::ServiceOverloaded,
                applicability: 0.9,
                host_score: Some(0.7),
                alternates: vec![(f.blade2, 0.5)],
            },
            t0,
        );
        let mut all = Vec::new();
        let mut t = t0;
        for _ in 0..20 {
            all.extend(exec.poll(t, &mut landscape, &mut c));
            t += SimDuration::from_minutes(1);
        }
        let timeouts = all
            .iter()
            .filter(|e| matches!(e, ExecutionEvent::TimedOut { .. }))
            .count();
        let fenced = all
            .iter()
            .filter(|e| matches!(e, ExecutionEvent::FencedLateSuccess { .. }))
            .count();
        assert_eq!(timeouts, 2, "both attempts time out");
        assert_eq!(fenced, 2, "both late successes are discarded");
        assert!(all
            .iter()
            .any(|e| matches!(e, ExecutionEvent::Abandoned { .. })));
        // The fence held: no ghost instance appeared.
        assert_eq!(landscape.num_instances(), before);
        assert!(exec.is_idle());
    }

    #[test]
    fn dispatch_ids_are_sequential() {
        let f = fixture();
        let mut exec = ActionExecutor::new(ExecutorConfig::reliable(), 1);
        let d = DecidedAction {
            action: Action::ReducePriority { service: f.fi },
            trigger: TriggerKind::ServerIdle,
            applicability: 0.5,
            host_score: None,
            alternates: Vec::new(),
        };
        assert_eq!(exec.dispatch(d.clone(), SimTime::ZERO), 0);
        assert_eq!(exec.dispatch(d, SimTime::ZERO), 1);
        assert_eq!(exec.in_flight(), 2);
    }

    #[test]
    fn stale_epoch_in_flight_work_is_fenced_at_succession() {
        // A shard owner dispatches under lease epoch 1, then loses the
        // lease while the op is still in flight. Raising the fence must
        // discard the op without it ever touching the landscape.
        let mut f = fixture();
        let mut c = AutoGlobeController::new();
        let config = ExecutorConfig {
            min_latency: SimDuration::from_minutes(5),
            max_latency: SimDuration::from_minutes(5),
            timeout: SimDuration::from_minutes(30),
            ..ExecutorConfig::reliable()
        };
        let mut exec = ActionExecutor::new(config, 7);
        exec.set_epoch(1);
        let event = overload_event(f.fi);
        let planned = c.plan_trigger(&event, &f.landscape, &f.loads, event.time);
        exec.dispatch(planned.decided.expect("trigger must decide"), event.time);
        assert_eq!(exec.in_flight(), 1);
        let before = f.landscape.num_instances();

        let fenced = exec.fence_below(2, event.time + SimDuration::from_minutes(1));
        assert_eq!(fenced.len(), 1);
        assert!(
            matches!(fenced[0], ExecutionEvent::FencedStaleEpoch { epoch: 1, .. }),
            "succession must fence the stale-epoch op: {fenced:?}"
        );
        assert!(exec.is_idle());

        // Long after the op would have completed, nothing applies.
        let later = event.time + SimDuration::from_hours(1);
        let events = exec.poll(later, &mut f.landscape, &mut c);
        assert!(events.is_empty(), "fenced op must stay dead: {events:?}");
        assert_eq!(f.landscape.num_instances(), before);
    }

    #[test]
    fn revived_owner_cannot_issue_ghost_moves() {
        // The deposed owner revives still believing in its old epoch and
        // dispatches after the fence was raised: the op is discarded at
        // its first poll, not applied.
        let mut f = fixture();
        let mut c = AutoGlobeController::new();
        let mut exec = ActionExecutor::new(ExecutorConfig::reliable(), 7);
        exec.set_epoch(1);
        assert!(exec.fence_below(2, SimTime::ZERO).is_empty());

        let event = overload_event(f.fi);
        let planned = c.plan_trigger(&event, &f.landscape, &f.loads, event.time);
        exec.dispatch(planned.decided.expect("trigger must decide"), event.time);
        let before = f.landscape.num_instances();
        let events = exec.poll(event.time, &mut f.landscape, &mut c);
        assert_eq!(events.len(), 1);
        assert!(
            matches!(events[0], ExecutionEvent::FencedStaleEpoch { epoch: 1, .. }),
            "stale dispatch must fence, not apply: {events:?}"
        );
        assert_eq!(f.landscape.num_instances(), before);
        assert!(exec.is_idle());

        // Re-admitted at the current epoch, the same owner acts normally.
        exec.set_epoch(2);
        let planned = c.plan_trigger(&event, &f.landscape, &f.loads, event.time);
        exec.dispatch(planned.decided.expect("trigger must decide"), event.time);
        let events = exec.poll(event.time, &mut f.landscape, &mut c);
        assert!(
            matches!(events[0], ExecutionEvent::Completed { .. }),
            "current-epoch dispatch must apply: {events:?}"
        );
    }
}
