//! Fuzzy inference: evaluating a rule base against fuzzified measurements.
//!
//! The paper uses the popular *max–min* inference function: the consequent
//! fuzzy set of each rule is clipped at the truth of its antecedent, and all
//! clipped sets of the same output variable are combined with the fuzzy union
//! (pointwise maximum). We also provide *max–product* inference (scaling
//! instead of clipping) for ablation studies. The two do not rank actions
//! alike: scaling the single-ramp `applicable` set by any positive truth
//! leaves its maximum at the right edge, so leftmost-max defuzzification
//! rates every action that fires at all as fully applicable, and the
//! ablation (`experiments ablation`) measures 0 % top-action agreement with
//! the paper's max–min under max-product/leftmost-max.
//!
//! [`infer`] is the string-keyed reference: it looks every antecedent atom
//! up by name and samples each consequent's membership function on every
//! call. [`crate::Engine`] compiles its rule base once and evaluates that
//! program instead; the tests hold the engine to this function bit for bit.

use crate::rule::RuleBase;
use crate::set::{FuzzySet, DEFAULT_RESOLUTION};
use crate::variable::LinguisticVariable;
use crate::{FuzzyError, Truth};
use std::collections::HashMap;

/// How a rule's truth is applied to its consequent set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InferenceMethod {
    /// Clip the consequent set at the antecedent truth (the paper's choice).
    #[default]
    MaxMin,
    /// Scale the consequent set by the antecedent truth.
    MaxProduct,
}

/// The outcome of inference for one output variable: the aggregated fuzzy
/// set, plus bookkeeping about which rules fired.
#[derive(Debug, Clone)]
pub struct InferenceResult {
    /// Aggregated output fuzzy set (union of all clipped consequent sets).
    pub set: FuzzySet,
    /// Truth of each rule that targeted this variable, in rule order
    /// (including rules that evaluated to 0).
    pub rule_truths: Vec<Truth>,
}

impl InferenceResult {
    /// The strongest firing among the contributing rules.
    pub fn max_truth(&self) -> Truth {
        self.rule_truths.iter().copied().fold(0.0, f64::max)
    }
}

/// Stateless inference engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct InferenceConfig {
    /// Clipping vs. scaling.
    pub method: InferenceMethod,
    /// Samples per output universe.
    pub resolution: usize,
}

impl Default for InferenceConfig {
    fn default() -> Self {
        InferenceConfig {
            method: InferenceMethod::MaxMin,
            resolution: DEFAULT_RESOLUTION,
        }
    }
}

/// Evaluate `rules` given already-fuzzified input grades.
///
/// `grades` maps `(variable, term)` pairs to membership grades; missing pairs
/// are an error.
///
/// `outputs` supplies the output variables' term membership functions and
/// universes. The result maps output variable names to their aggregated sets.
pub fn infer(
    rules: &RuleBase,
    grades: &HashMap<(String, String), Truth>,
    outputs: &HashMap<String, LinguisticVariable>,
    config: InferenceConfig,
) -> Result<HashMap<String, InferenceResult>, FuzzyError> {
    let mut results: HashMap<String, InferenceResult> = HashMap::new();

    for rule in rules.rules() {
        let output_var =
            outputs
                .get(&rule.consequent.variable)
                .ok_or_else(|| FuzzyError::UnknownVariable {
                    name: rule.consequent.variable.clone(),
                })?;
        let term =
            output_var
                .term(&rule.consequent.term)
                .ok_or_else(|| FuzzyError::UnknownTerm {
                    variable: rule.consequent.variable.clone(),
                    term: rule.consequent.term.clone(),
                })?;

        let truth = rule.antecedent.eval(&mut |variable: &str, term: &str| {
            grades
                .get(&(variable.to_string(), term.to_string()))
                .copied()
                .ok_or_else(|| FuzzyError::UnknownVariable {
                    name: format!("{variable} IS {term}"),
                })
        })? * rule.weight;

        let (lo, hi) = output_var.range();
        let entry = results
            .entry(rule.consequent.variable.clone())
            .or_insert_with(|| InferenceResult {
                set: FuzzySet::empty(lo, hi, config.resolution),
                rule_truths: Vec::new(),
            });
        entry.rule_truths.push(truth);

        if truth > 0.0 {
            let mut clipped =
                FuzzySet::from_membership(term.membership(), lo, hi, config.resolution);
            match config.method {
                InferenceMethod::MaxMin => clipped.clip(truth),
                InferenceMethod::MaxProduct => clipped.scale(truth),
            }
            entry.set.union_assign(&clipped);
        }
    }

    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineConfig};
    use crate::membership::MembershipFunction;
    use crate::parser::parse_rules;
    use crate::variable::{load_variable, LinguisticVariable};

    type Setup = (
        RuleBase,
        HashMap<(String, String), Truth>,
        HashMap<String, LinguisticVariable>,
    );

    fn paper_setup() -> Setup {
        let rules = parse_rules(
            "IF cpuLoad IS high AND (performanceIndex IS low OR performanceIndex IS medium) \
             THEN scaleUp IS applicable \
             IF cpuLoad IS high AND performanceIndex IS high THEN scaleOut IS applicable",
        )
        .unwrap();
        let mut grades = HashMap::new();
        for (v, t, g) in [
            ("cpuLoad", "low", 0.0),
            ("cpuLoad", "medium", 0.0),
            ("cpuLoad", "high", 0.8),
            ("performanceIndex", "low", 0.0),
            ("performanceIndex", "medium", 0.6),
            ("performanceIndex", "high", 0.3),
        ] {
            grades.insert((v.to_string(), t.to_string()), g);
        }
        let mut outputs = HashMap::new();
        outputs.insert(
            "scaleUp".to_string(),
            LinguisticVariable::applicability("scaleUp"),
        );
        outputs.insert(
            "scaleOut".to_string(),
            LinguisticVariable::applicability("scaleOut"),
        );
        (rules, grades, outputs)
    }

    #[test]
    fn paper_worked_example_clips_at_0_6_and_0_3() {
        let (rules, grades, outputs) = paper_setup();
        let results = infer(&rules, &grades, &outputs, InferenceConfig::default()).unwrap();

        let up = &results["scaleUp"];
        assert!(
            (up.set.height() - 0.6).abs() < 1e-9,
            "figure 5: clipped at 0.6"
        );
        assert_eq!(up.rule_truths.len(), 1);
        assert!((up.rule_truths[0] - 0.6).abs() < 1e-12);

        let out = &results["scaleOut"];
        assert!((out.set.height() - 0.3).abs() < 1e-9);
    }

    #[test]
    fn zero_truth_rules_leave_set_empty_but_are_recorded() {
        let rules = parse_rules("IF cpuLoad IS low THEN scaleIn IS applicable").unwrap();
        let mut grades = HashMap::new();
        grades.insert(("cpuLoad".to_string(), "low".to_string()), 0.0);
        let mut outputs = HashMap::new();
        outputs.insert(
            "scaleIn".to_string(),
            LinguisticVariable::applicability("scaleIn"),
        );
        let results = infer(&rules, &grades, &outputs, InferenceConfig::default()).unwrap();
        let r = &results["scaleIn"];
        assert!(r.set.is_empty());
        assert_eq!(r.rule_truths, vec![0.0]);
        assert_eq!(r.max_truth(), 0.0);
    }

    #[test]
    fn union_of_two_rules_on_same_output() {
        let rules = parse_rules(
            "IF a IS t THEN o IS applicable \
             IF b IS t THEN o IS applicable",
        )
        .unwrap();
        let mut grades = HashMap::new();
        grades.insert(("a".to_string(), "t".to_string()), 0.2);
        grades.insert(("b".to_string(), "t".to_string()), 0.9);
        let mut outputs = HashMap::new();
        outputs.insert("o".to_string(), LinguisticVariable::applicability("o"));
        let results = infer(&rules, &grades, &outputs, InferenceConfig::default()).unwrap();
        let r = &results["o"];
        // Union height is the stronger firing.
        assert!((r.set.height() - 0.9).abs() < 1e-9);
        assert_eq!(r.rule_truths.len(), 2);
        assert!((r.max_truth() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn max_product_scales_instead_of_clipping() {
        let (rules, grades, outputs) = paper_setup();
        let cfg = InferenceConfig {
            method: InferenceMethod::MaxProduct,
            ..Default::default()
        };
        let results = infer(&rules, &grades, &outputs, cfg).unwrap();
        // The applicable ramp scaled by 0.6 still has height 0.6 but is no
        // longer flat-topped: at x = 0.5 it is 0.3, not 0.5.
        let up = &results["scaleUp"];
        assert!((up.set.height() - 0.6).abs() < 1e-9);
        assert!((up.set.eval(0.5) - 0.3).abs() < 1e-9);
    }

    #[test]
    fn rule_weight_attenuates_truth() {
        let rules = parse_rules("IF a IS t THEN o IS applicable WITH 0.5").unwrap();
        let mut grades = HashMap::new();
        grades.insert(("a".to_string(), "t".to_string()), 0.8);
        let mut outputs = HashMap::new();
        outputs.insert("o".to_string(), LinguisticVariable::applicability("o"));
        let results = infer(&rules, &grades, &outputs, InferenceConfig::default()).unwrap();
        assert!((results["o"].set.height() - 0.4).abs() < 1e-9);
    }

    #[test]
    fn unknown_output_variable_errors() {
        let rules = parse_rules("IF a IS t THEN nonexistent IS applicable").unwrap();
        let mut grades = HashMap::new();
        grades.insert(("a".to_string(), "t".to_string()), 0.8);
        let outputs = HashMap::new();
        assert!(matches!(
            infer(&rules, &grades, &outputs, InferenceConfig::default()),
            Err(FuzzyError::UnknownVariable { .. })
        ));
    }

    #[test]
    fn unknown_output_term_errors() {
        let rules = parse_rules("IF a IS t THEN o IS bogus").unwrap();
        let mut grades = HashMap::new();
        grades.insert(("a".to_string(), "t".to_string()), 0.8);
        let mut outputs = HashMap::new();
        outputs.insert("o".to_string(), LinguisticVariable::applicability("o"));
        assert!(matches!(
            infer(&rules, &grades, &outputs, InferenceConfig::default()),
            Err(FuzzyError::UnknownTerm { .. })
        ));
    }

    #[test]
    fn precomputed_grids_reproduce_the_sampling_path_exactly() {
        // The engine samples each consequent grid once per compilation; its
        // `run_detailed` must equal `infer`, which re-samples the membership
        // functions per call, bit for bit under both inference methods.
        let (rules, _, outputs) = paper_setup();
        let perf = LinguisticVariable::builder("performanceIndex")
            .range(0.0, 10.0)
            .term("low", MembershipFunction::trapezoid(0.0, 0.0, 1.0, 3.0))
            .term("medium", MembershipFunction::trapezoid(1.0, 3.0, 5.0, 7.0))
            .term("high", MembershipFunction::trapezoid(5.0, 7.0, 10.0, 10.0))
            .build()
            .unwrap();
        let inputs = [(load_variable("cpuLoad"), 0.9), (perf, 5.8)];
        let mut grades = HashMap::new();
        for (var, x) in &inputs {
            for (term, grade) in var.fuzzify_named(*x) {
                grades.insert((var.name().to_string(), term.to_string()), grade);
            }
        }
        for method in [InferenceMethod::MaxMin, InferenceMethod::MaxProduct] {
            let mut engine = Engine::with_config(EngineConfig {
                inference: method,
                ..EngineConfig::default()
            });
            for (var, _) in &inputs {
                engine.add_input(var.clone());
            }
            for name in ["scaleUp", "scaleOut"] {
                engine.add_output(outputs[name].clone());
            }
            for rule in rules.rules() {
                engine.add_rule(rule.clone()).unwrap();
            }
            let cfg = InferenceConfig {
                method,
                ..Default::default()
            };
            let fresh = infer(&rules, &grades, &outputs, cfg).unwrap();
            let detailed = engine
                .run_detailed(inputs.iter().map(|(var, x)| (var.name(), *x)))
                .unwrap();
            assert_eq!(fresh.len(), detailed.inference.len());
            for (name, r) in &fresh {
                let compiled = &detailed.inference[name];
                assert_eq!(
                    r.rule_truths, compiled.rule_truths,
                    "{name} under {method:?}"
                );
                assert_eq!(r.set, compiled.set, "{name} under {method:?}");
            }
        }
    }

    #[test]
    fn missing_grade_errors() {
        let rules = parse_rules("IF unmeasured IS t THEN o IS applicable").unwrap();
        let grades = HashMap::new();
        let mut outputs = HashMap::new();
        outputs.insert("o".to_string(), LinguisticVariable::applicability("o"));
        assert!(infer(&rules, &grades, &outputs, InferenceConfig::default()).is_err());
    }
}
