//! The two fuzzy controllers: action selection and server selection.

use crate::inputs::{ActionInputs, ServerInputs};
use crate::rulebase::RuleBases;
use crate::variables;
use autoglobe_fuzzy::{Engine, EngineConfig, FuzzyError};
use autoglobe_landscape::ActionKind;
use autoglobe_monitor::TriggerKind;
use std::collections::HashMap;

/// One entry in the ranked action list of Section 4.1: an action kind with
/// its applicability in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankedAction {
    /// The action kind.
    pub kind: ActionKind,
    /// Crisp applicability ("ratings between 0% and 100%").
    pub applicability: f64,
}

/// The action-selection fuzzy controller: one engine per `(trigger,
/// service-specific rule base)` combination, built at construction time.
/// Each engine compiles its rule base on its first evaluation, so the
/// per-trigger hot path ([`ActionSelector::rank`]) only evaluates the
/// compiled program.
#[derive(Debug)]
pub struct ActionSelector {
    rule_bases: RuleBases,
    config: EngineConfig,
    /// Cache key: `(trigger, service name if it has specific rules else "")`.
    ///
    /// Iteration-order audit: this map is only ever probed by key
    /// (`contains_key` / `insert` / index) — never iterated — so `HashMap`'s
    /// arbitrary order cannot leak into decisions. The key *lists* that seed
    /// it come from [`RuleBases::service_trigger_keys`], which is
    /// `BTreeMap`-backed and therefore sorted.
    engines: HashMap<(TriggerKind, String), Engine>,
}

impl ActionSelector {
    /// Build a selector over the given rule bases. All engines — one per
    /// trigger for the default bases, plus one per service-specific
    /// extension — are constructed eagerly here.
    pub fn new(rule_bases: RuleBases, config: EngineConfig) -> Self {
        let mut selector = ActionSelector {
            rule_bases,
            config,
            engines: HashMap::new(),
        };
        let mut keys: Vec<(TriggerKind, String)> = TriggerKind::ALL
            .iter()
            .map(|&t| (t, String::new()))
            .collect();
        keys.extend(
            selector
                .rule_bases
                .service_trigger_keys()
                .map(|(t, s)| (t, s.to_string())),
        );
        for (trigger, service) in keys {
            // If an administrator rule base fails validation the engine
            // stays unbuilt; the first `rank` against it retries the build
            // and reports the error, exactly as lazy construction did.
            if let Ok(engine) =
                Self::build_engine(&selector.rule_bases, selector.config, trigger, &service)
            {
                selector.engines.insert((trigger, service), engine);
            }
        }
        selector
    }

    /// The rule bases in use.
    pub fn rule_bases(&self) -> &RuleBases {
        &self.rule_bases
    }

    fn build_engine(
        rule_bases: &RuleBases,
        config: EngineConfig,
        trigger: TriggerKind,
        service_name: &str,
    ) -> Result<Engine, FuzzyError> {
        let mut engine = Engine::with_config(config);
        for var in variables::action_selection_inputs() {
            engine.add_input(var);
        }
        for var in variables::action_selection_outputs() {
            engine.add_output(var);
        }
        for rule in rule_bases.for_trigger(trigger, service_name).rules() {
            engine.add_rule(rule.clone())?;
        }
        Ok(engine)
    }

    fn engine(&mut self, trigger: TriggerKind, service_name: &str) -> Result<&Engine, FuzzyError> {
        // Services without specific rules share the default-base engine,
        // keyed by the empty service name.
        let service = if self
            .rule_bases
            .has_service_trigger_rules(trigger, service_name)
        {
            service_name
        } else {
            ""
        };
        let key = (trigger, service.to_string());
        if !self.engines.contains_key(&key) {
            let engine = Self::build_engine(&self.rule_bases, self.config, trigger, service)?;
            self.engines.insert(key.clone(), engine);
        }
        Ok(&self.engines[&key])
    }

    /// Evaluate the trigger's rule base for one service and return all nine
    /// actions ranked by applicability (descending; zero-applicability
    /// entries included — the caller applies the administrator threshold).
    pub fn rank(
        &mut self,
        trigger: TriggerKind,
        service_name: &str,
        inputs: &ActionInputs,
    ) -> Result<Vec<RankedAction>, FuzzyError> {
        let engine = self.engine(trigger, service_name)?;
        let outputs = engine.run(inputs.measurements())?;
        // `ranked` is a total order (no `partial_cmp().unwrap()` panic path):
        // descending applicability, ties by variable name, which
        // `from_variable_name` maps one-to-one onto action kinds.
        Ok(outputs
            .ranked()
            .into_iter()
            .filter_map(|(name, value)| {
                ActionKind::from_variable_name(name).map(|kind| RankedAction {
                    kind,
                    applicability: value,
                })
            })
            .collect())
    }
}

/// The server-selection fuzzy controller: one engine per `(action,
/// service-specific rule base)` combination, built eagerly like
/// [`ActionSelector`]'s.
#[derive(Debug)]
pub struct ServerSelector {
    rule_bases: RuleBases,
    config: EngineConfig,
    /// Cache key: `(action, service name if it has specific rules else "")`.
    ///
    /// Iteration-order audit: probed by key only, never iterated (see
    /// [`ActionSelector`]); seeded from the sorted
    /// [`RuleBases::service_action_keys`].
    engines: HashMap<(ActionKind, String), Engine>,
}

impl ServerSelector {
    /// Build a selector over the given rule bases, constructing all engines
    /// up front.
    pub fn new(rule_bases: RuleBases, config: EngineConfig) -> Self {
        let mut selector = ServerSelector {
            rule_bases,
            config,
            engines: HashMap::new(),
        };
        let mut keys: Vec<(ActionKind, String)> = ActionKind::ALL
            .iter()
            .map(|&a| (a, String::new()))
            .collect();
        keys.extend(
            selector
                .rule_bases
                .service_action_keys()
                .map(|(a, s)| (a, s.to_string())),
        );
        for (action, service) in keys {
            if let Ok(engine) =
                Self::build_engine(&selector.rule_bases, selector.config, action, &service)
            {
                selector.engines.insert((action, service), engine);
            }
        }
        selector
    }

    fn build_engine(
        rule_bases: &RuleBases,
        config: EngineConfig,
        action: ActionKind,
        service_name: &str,
    ) -> Result<Engine, FuzzyError> {
        let mut engine = Engine::with_config(config);
        for var in variables::server_selection_inputs() {
            engine.add_input(var);
        }
        engine.add_output(variables::server_selection_output());
        for rule in rule_bases.for_action(action, service_name).rules() {
            engine.add_rule(rule.clone())?;
        }
        Ok(engine)
    }

    /// The engine-cache key for `(action, service_name)`: the service's own
    /// name when a service-specific rule extension exists, otherwise the
    /// empty string (all such services share the default-base engine).
    /// Exposed so callers that cache scores can key their caches compatibly
    /// with this engine sharing.
    pub fn engine_key<'a>(&self, action: ActionKind, service_name: &'a str) -> &'a str {
        if self
            .rule_bases
            .has_service_action_rules(action, service_name)
        {
            service_name
        } else {
            ""
        }
    }

    fn engine(&mut self, action: ActionKind, service_name: &str) -> Result<&Engine, FuzzyError> {
        let service = self.engine_key(action, service_name);
        let key = (action, service.to_string());
        if !self.engines.contains_key(&key) {
            let engine = Self::build_engine(&self.rule_bases, self.config, action, service)?;
            self.engines.insert(key.clone(), engine);
        }
        Ok(&self.engines[&key])
    }

    /// Score one candidate host for `action` ("In the defuzzification phase,
    /// the controller calculates a crisp value for every possible host",
    /// Section 4.2).
    pub fn score(
        &mut self,
        action: ActionKind,
        service_name: &str,
        inputs: &ServerInputs,
    ) -> Result<f64, FuzzyError> {
        let engine = self.engine(action, service_name)?;
        let outputs = engine.run(inputs.measurements())?;
        Ok(outputs.get("score").unwrap_or(0.0))
    }

    /// Score a whole slice of candidate hosts for `action` in one batched
    /// engine cycle ([`Engine::run_batch`]): the ten measurement lanes are
    /// laid out as columns and each membership grid is evaluated in one pass
    /// over all candidates. Bit-identical to calling
    /// [`ServerSelector::score`] once per candidate (enforced by tests).
    pub fn score_batch(
        &mut self,
        action: ActionKind,
        service_name: &str,
        inputs: &[ServerInputs],
    ) -> Result<Vec<f64>, FuzzyError> {
        if inputs.is_empty() {
            return Ok(Vec::new());
        }
        let engine = self.engine(action, service_name)?;
        let rows = inputs.len();
        let mut names = [""; 10];
        let mut columns: Vec<Vec<f64>> = (0..10).map(|_| Vec::with_capacity(rows)).collect();
        for (row, server) in inputs.iter().enumerate() {
            for (lane, (name, value)) in server.measurements().into_iter().enumerate() {
                if row == 0 {
                    names[lane] = name;
                }
                columns[lane].push(value);
            }
        }
        let named: Vec<(&str, &[f64])> = names
            .iter()
            .zip(columns.iter())
            .map(|(name, col)| (*name, col.as_slice()))
            .collect();
        let outputs = engine.run_batch(&named)?;
        Ok(match outputs.column("score") {
            Some(col) => col.to_vec(),
            None => vec![0.0; rows],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn default_inputs() -> ActionInputs {
        ActionInputs {
            cpu_load: 0.5,
            mem_load: 0.3,
            performance_index: 2.0,
            instance_load: 0.5,
            service_load: 0.5,
            instances_on_server: 2.0,
            instances_of_service: 3.0,
            instance_demand: 1.0,
        }
    }

    fn selector() -> ActionSelector {
        ActionSelector::new(RuleBases::paper_defaults(), EngineConfig::default())
    }

    #[test]
    fn overloaded_weak_host_prefers_scale_up() {
        let mut s = selector();
        let inputs = ActionInputs {
            cpu_load: 0.95,
            instance_load: 0.9,
            service_load: 0.9,
            performance_index: 1.0,
            ..default_inputs()
        };
        let ranked = s
            .rank(TriggerKind::ServiceOverloaded, "FI", &inputs)
            .unwrap();
        assert_eq!(ranked[0].kind, ActionKind::ScaleUp, "ranked: {ranked:?}");
        assert!(ranked[0].applicability > 0.7);
    }

    #[test]
    fn overloaded_strong_host_prefers_scale_out() {
        let mut s = selector();
        let inputs = ActionInputs {
            cpu_load: 0.95,
            instance_load: 0.9,
            service_load: 0.9,
            performance_index: 9.0,
            ..default_inputs()
        };
        let ranked = s
            .rank(TriggerKind::ServiceOverloaded, "FI", &inputs)
            .unwrap();
        assert_eq!(ranked[0].kind, ActionKind::ScaleOut, "ranked: {ranked:?}");
    }

    #[test]
    fn idle_service_prefers_scale_in() {
        let mut s = selector();
        let inputs = ActionInputs {
            cpu_load: 0.05,
            instance_load: 0.03,
            service_load: 0.05,
            instances_of_service: 6.0,
            ..default_inputs()
        };
        let ranked = s.rank(TriggerKind::ServiceIdle, "FI", &inputs).unwrap();
        assert_eq!(ranked[0].kind, ActionKind::ScaleIn, "ranked: {ranked:?}");
        assert!(ranked[0].applicability > 0.7);
    }

    #[test]
    fn calm_situation_ranks_everything_near_zero() {
        let mut s = selector();
        let inputs = ActionInputs {
            cpu_load: 0.45,
            instance_load: 0.45,
            service_load: 0.45,
            mem_load: 0.2,
            ..default_inputs()
        };
        let ranked = s
            .rank(TriggerKind::ServiceOverloaded, "FI", &inputs)
            .unwrap();
        assert!(
            ranked[0].applicability < 0.3,
            "no action should be strongly applicable when calm: {ranked:?}"
        );
    }

    #[test]
    fn ranking_includes_all_nine_actions() {
        let mut s = selector();
        let ranked = s
            .rank(TriggerKind::ServerOverloaded, "FI", &default_inputs())
            .unwrap();
        assert_eq!(ranked.len(), 9);
        // Descending order.
        for w in ranked.windows(2) {
            assert!(w[0].applicability >= w[1].applicability);
        }
    }

    #[test]
    fn server_selector_prefers_idle_hosts_for_placement() {
        let mut s = ServerSelector::new(RuleBases::paper_defaults(), EngineConfig::default());
        let idle = ServerInputs {
            cpu_load: 0.05,
            mem_load: 0.1,
            instances_on_server: 0.0,
            performance_index: 2.0,
            number_of_cpus: 2.0,
            cpu_clock: 933.0,
            cpu_cache: 512.0,
            memory: 4096.0,
            swap_space: 8192.0,
            temp_space: 20_480.0,
        };
        let busy = ServerInputs {
            cpu_load: 0.85,
            mem_load: 0.7,
            instances_on_server: 5.0,
            ..idle
        };
        let idle_score = s.score(ActionKind::ScaleOut, "FI", &idle).unwrap();
        let busy_score = s.score(ActionKind::ScaleOut, "FI", &busy).unwrap();
        assert!(
            idle_score > busy_score + 0.3,
            "idle {idle_score} vs busy {busy_score}"
        );
    }

    #[test]
    fn scale_up_selection_prefers_powerful_hosts() {
        let mut s = ServerSelector::new(RuleBases::paper_defaults(), EngineConfig::default());
        let weak = ServerInputs {
            cpu_load: 0.1,
            mem_load: 0.1,
            instances_on_server: 0.0,
            performance_index: 1.0,
            number_of_cpus: 1.0,
            cpu_clock: 933.0,
            cpu_cache: 512.0,
            memory: 2048.0,
            swap_space: 4096.0,
            temp_space: 20_480.0,
        };
        let strong = ServerInputs {
            performance_index: 9.0,
            number_of_cpus: 4.0,
            cpu_clock: 2800.0,
            cpu_cache: 2048.0,
            memory: 12_288.0,
            ..weak
        };
        let weak_score = s.score(ActionKind::ScaleUp, "FI", &weak).unwrap();
        let strong_score = s.score(ActionKind::ScaleUp, "FI", &strong).unwrap();
        assert!(strong_score > weak_score + 0.3);
    }

    #[test]
    fn scale_down_selection_prefers_weak_hosts() {
        let mut s = ServerSelector::new(RuleBases::paper_defaults(), EngineConfig::default());
        let weak = ServerInputs {
            cpu_load: 0.1,
            mem_load: 0.1,
            instances_on_server: 0.0,
            performance_index: 1.0,
            number_of_cpus: 1.0,
            cpu_clock: 933.0,
            cpu_cache: 512.0,
            memory: 2048.0,
            swap_space: 4096.0,
            temp_space: 20_480.0,
        };
        let strong = ServerInputs {
            performance_index: 9.0,
            ..weak
        };
        let weak_score = s.score(ActionKind::ScaleDown, "FI", &weak).unwrap();
        let strong_score = s.score(ActionKind::ScaleDown, "FI", &strong).unwrap();
        assert!(weak_score > strong_score);
    }

    #[test]
    fn score_batch_is_bit_identical_to_scalar_scores() {
        let mut s = ServerSelector::new(RuleBases::paper_defaults(), EngineConfig::default());
        let base = ServerInputs {
            cpu_load: 0.05,
            mem_load: 0.1,
            instances_on_server: 0.0,
            performance_index: 2.0,
            number_of_cpus: 2.0,
            cpu_clock: 933.0,
            cpu_cache: 512.0,
            memory: 4096.0,
            swap_space: 8192.0,
            temp_space: 20_480.0,
        };
        let candidates: Vec<ServerInputs> = (0..40)
            .map(|i| ServerInputs {
                cpu_load: i as f64 / 40.0,
                mem_load: (40 - i) as f64 / 50.0,
                instances_on_server: (i % 7) as f64,
                performance_index: (i % 10) as f64,
                ..base
            })
            .collect();
        for kind in ActionKind::ALL {
            let batched = s.score_batch(kind, "FI", &candidates).unwrap();
            assert_eq!(batched.len(), candidates.len());
            for (row, inputs) in candidates.iter().enumerate() {
                let scalar = s.score(kind, "FI", inputs).unwrap();
                assert_eq!(
                    batched[row].to_bits(),
                    scalar.to_bits(),
                    "{kind:?} row {row}: batch {} vs scalar {scalar}",
                    batched[row]
                );
            }
        }
        assert!(s
            .score_batch(ActionKind::Move, "FI", &[])
            .unwrap()
            .is_empty());
    }

    #[test]
    fn engine_key_tracks_service_specific_rules() {
        let mut rb = RuleBases::paper_defaults();
        rb.add_service_action_rules(
            ActionKind::Move,
            "DB",
            autoglobe_fuzzy::parse_rules("IF performanceIndex IS high THEN score IS applicable")
                .unwrap(),
        );
        let s = ServerSelector::new(rb, EngineConfig::default());
        assert_eq!(s.engine_key(ActionKind::Move, "DB"), "DB");
        assert_eq!(s.engine_key(ActionKind::Move, "FI"), "");
        assert_eq!(s.engine_key(ActionKind::ScaleUp, "DB"), "");
    }

    #[test]
    fn actions_without_rules_score_zero() {
        let mut s = ServerSelector::new(RuleBases::empty(), EngineConfig::default());
        let inputs = ServerInputs {
            cpu_load: 0.0,
            mem_load: 0.0,
            instances_on_server: 0.0,
            performance_index: 9.0,
            number_of_cpus: 4.0,
            cpu_clock: 2800.0,
            cpu_cache: 2048.0,
            memory: 12_288.0,
            swap_space: 8192.0,
            temp_space: 20_480.0,
        };
        assert_eq!(s.score(ActionKind::Move, "FI", &inputs).unwrap(), 0.0);
    }
}
