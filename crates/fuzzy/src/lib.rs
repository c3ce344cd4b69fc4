//! # autoglobe-fuzzy — a generic fuzzy-logic control engine
//!
//! This crate implements the fuzzy-logic machinery that underpins the
//! AutoGlobe controller (Seltzsam, Gmach, Krompass, Kemper: *AutoGlobe: An
//! Automatic Administration Concept for Service-Oriented Database
//! Applications*, ICDE 2006, Sections 3 and 4). It is deliberately generic —
//! nothing in here knows about servers or services — so it can be reused for
//! any rule-based control problem.
//!
//! ## Concepts
//!
//! * [`MembershipFunction`] — maps a crisp value to a truth value in `[0, 1]`.
//!   Trapezoids are what the paper uses (Figure 3); triangles, shoulders,
//!   singletons and piecewise-linear functions are provided as well.
//! * [`LinguisticVariable`] — a named variable over a universe of discourse
//!   with a set of [`LinguisticTerm`]s (e.g. `cpuLoad` with *low*, *medium*,
//!   *high*).
//! * [`Rule`] / [`RuleBase`] — `IF <antecedent> THEN <var> IS <term>` rules.
//!   Antecedents combine `<var> IS <term>` atoms with `AND` (minimum), `OR`
//!   (maximum) and `NOT` (complement). Rules are written in a small text DSL
//!   (see [`parse_rule`]) that mirrors the notation of the paper:
//!
//!   ```text
//!   IF cpuLoad IS high AND (performanceIndex IS low OR performanceIndex IS medium)
//!   THEN scaleUp IS applicable
//!   ```
//!
//! * [`Engine`] — the controller cycle of Figure 4: fuzzification of crisp
//!   measurements, rule evaluation with max–min inference (clipping), fuzzy
//!   union aggregation per output variable, and defuzzification. The paper's
//!   defuzzifier is [`Defuzzifier::LeftmostMax`]; mean-of-maxima and centroid
//!   are included for ablation studies.
//!
//! ## Worked example (the paper's Section 3 numbers)
//!
//! ```
//! use autoglobe_fuzzy::{Engine, LinguisticVariable, MembershipFunction};
//!
//! let mut engine = Engine::new();
//! engine.add_input(
//!     LinguisticVariable::builder("cpuLoad")
//!         .term("low", MembershipFunction::trapezoid(0.0, 0.0, 0.2, 0.4))
//!         .term("medium", MembershipFunction::trapezoid(0.2, 0.4, 0.5, 0.7))
//!         .term("high", MembershipFunction::trapezoid(0.5, 0.875, 1.0, 1.0))
//!         .build()
//!         .unwrap(),
//! );
//! engine.add_input(
//!     LinguisticVariable::builder("performanceIndex")
//!         .range(0.0, 10.0)
//!         .term("low", MembershipFunction::trapezoid(0.0, 0.0, 1.0, 3.0))
//!         .term("medium", MembershipFunction::trapezoid(1.0, 3.0, 5.0, 7.0))
//!         .term("high", MembershipFunction::trapezoid(5.0, 7.0, 10.0, 10.0))
//!         .build()
//!         .unwrap(),
//! );
//! engine.add_output(LinguisticVariable::applicability("scaleUp"));
//! engine.add_output(LinguisticVariable::applicability("scaleOut"));
//! engine
//!     .add_rule_str(
//!         "IF cpuLoad IS high AND (performanceIndex IS low OR performanceIndex IS medium) \
//!          THEN scaleUp IS applicable",
//!     )
//!     .unwrap();
//! engine
//!     .add_rule_str("IF cpuLoad IS high AND performanceIndex IS high THEN scaleOut IS applicable")
//!     .unwrap();
//!
//! let out = engine
//!     .run([("cpuLoad", 0.9), ("performanceIndex", 5.8)])
//!     .unwrap();
//! // With the grades of the paper's example the rule antecedents evaluate to
//! // 0.6 (scale-up) and 0.3 (scale-out); leftmost-max defuzzification of the
//! // clipped `applicable` set yields those same values.
//! assert!((out["scaleUp"] - 0.6).abs() < 2e-3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod defuzz;
pub mod engine;
pub mod error;
pub mod inference;
pub mod membership;
pub mod parser;
pub mod rule;
pub mod set;
pub mod variable;

pub use defuzz::Defuzzifier;
pub use engine::{BatchOutputs, Engine, EngineConfig, Outputs};
pub use error::FuzzyError;
pub use inference::{infer, InferenceConfig, InferenceMethod, InferenceResult};
pub use membership::MembershipFunction;
pub use parser::{parse_rule, parse_rules};
pub use rule::{Antecedent, Consequent, Rule, RuleBase};
pub use set::FuzzySet;
pub use variable::{LinguisticTerm, LinguisticVariable, VariableBuilder};

/// A truth value in `[0, 1]`.
pub type Truth = f64;

/// Clamp a value into `[0, 1]`.
#[inline]
pub(crate) fn clamp01(x: f64) -> f64 {
    x.clamp(0.0, 1.0)
}
