//! The complete fuzzy-controller cycle of the paper's Figure 4:
//! measurement → fuzzification → inference → defuzzification.
//!
//! An [`Engine`] compiles its variables, rules and configuration into one
//! private program on the first evaluation after any of them changes: a
//! grade slot per `(input, term)` pair that some rule reads, each antecedent
//! as slot-indexed postfix code with its weight and consequent, and one
//! sampled grid per consequent `(output, term)` pair. Every evaluation runs
//! that program over columns — [`Engine::run`] is the one-row case of
//! [`Engine::run_batch`], and [`Engine::run_detailed`] reads the same rule
//! truths — in three steps: validate the measurement columns, compute one
//! grade column per slot, then one weighted truth column per rule.
//!
//! Rule truths become crisp values by one of two routes:
//!
//! * **Closed form**, under the paper's configuration (max–min inference,
//!   leftmost-max defuzzification) when every output that rules target has
//!   one `RightShoulder` ramp `(a, b)` shared by all its rules. The leftmost
//!   maximum of that ramp clipped at the strongest firing `h > 0` is exactly
//!   `a + h·(b − a)`, so no fuzzy set is sampled and the values are exact
//!   rather than grid-quantized.
//! * **Sampled**, for every other configuration or consequent shape, and
//!   always for `run_detailed`: each rule's grid is clipped (max–min) or
//!   scaled (max–product) at its truth and unioned into its output's set,
//!   which the configured [`Defuzzifier`] turns into a crisp value.

use crate::defuzz::Defuzzifier;
use crate::inference::{InferenceMethod, InferenceResult};
use crate::membership::MembershipFunction;
use crate::parser::{parse_rule, parse_rules};
use crate::rule::{Antecedent, Rule, RuleBase};
use crate::set::{FuzzySet, DEFAULT_RESOLUTION};
use crate::variable::LinguisticVariable;
use crate::FuzzyError;
use std::collections::HashMap;
use std::ops::Index;
use std::sync::{Arc, OnceLock};

/// Tunable knobs of an [`Engine`].
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Clipping (max–min, the paper) vs. scaling (max–product).
    pub inference: InferenceMethod,
    /// How aggregated sets become crisp values (leftmost-max, the paper).
    pub defuzzifier: Defuzzifier,
    /// Samples per output universe.
    pub resolution: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            inference: InferenceMethod::MaxMin,
            defuzzifier: Defuzzifier::LeftmostMax,
            resolution: DEFAULT_RESOLUTION,
        }
    }
}

/// Crisp outputs of one controller cycle, one per declared output variable,
/// kept in name order.
///
/// Indexing with an unknown name panics (tests read better); use
/// [`Outputs::get`] for fallible access. [`Outputs::ranked`] returns the
/// variables sorted by descending crisp value — the "actions sorted by their
/// applicability" list of Section 4.1.
#[derive(Debug, Clone, Default)]
pub struct Outputs {
    /// Output variable names, sorted; shared with the engine's program.
    names: Arc<[String]>,
    /// `values[i]` is the crisp value of `names[i]`.
    values: Vec<f64>,
}

impl Outputs {
    /// The crisp value of `name`, if that output variable exists.
    pub fn get(&self, name: &str) -> Option<f64> {
        find_sorted(&self.names, name).map(|i| self.values[i])
    }

    /// All `(name, value)` pairs sorted by descending value; ties broken by
    /// name for determinism.
    pub fn ranked(&self) -> Vec<(&str, f64)> {
        let mut v: Vec<(&str, f64)> = self.iter().collect();
        // Stable, so equal values stay in name order.
        v.sort_by(|a, b| b.1.total_cmp(&a.1));
        v
    }

    /// Iterate over `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.names
            .iter()
            .map(String::as_str)
            .zip(self.values.iter().copied())
    }

    /// Number of output variables.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if there are no outputs.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

impl Index<&str> for Outputs {
    type Output = f64;
    fn index(&self, name: &str) -> &f64 {
        let i =
            find_sorted(&self.names, name).unwrap_or_else(|| panic!("no output variable `{name}`"));
        &self.values[i]
    }
}

/// Crisp outputs of one batched controller cycle ([`Engine::run_batch`]):
/// one value per declared output variable per input row, stored column-major
/// with the columns in name order and the rows aligned with the input
/// columns.
#[derive(Debug, Clone)]
pub struct BatchOutputs {
    rows: usize,
    /// Output variable names, sorted, one per column of `values`.
    names: Arc<[String]>,
    /// `values[col * rows + row]` is output `names[col]` for input row `row`.
    values: Vec<f64>,
}

impl BatchOutputs {
    /// Number of input rows this batch evaluated.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The crisp values of output variable `name` across all rows, or `None`
    /// if no such output variable is declared.
    pub fn column(&self, name: &str) -> Option<&[f64]> {
        let col = find_sorted(&self.names, name)?;
        Some(&self.values[col * self.rows..(col + 1) * self.rows])
    }

    /// The outputs of a single row, in the same shape [`Engine::run`] returns.
    ///
    /// # Panics
    /// Panics if `row >= self.rows()`.
    pub fn row(&self, row: usize) -> Outputs {
        assert!(row < self.rows, "row {row} out of {} batch rows", self.rows);
        Outputs {
            names: Arc::clone(&self.names),
            values: (0..self.names.len())
                .map(|col| self.values[col * self.rows + row])
                .collect(),
        }
    }
}

/// Index of `name` in the sorted `names`.
fn find_sorted(names: &[String], name: &str) -> Option<usize> {
    names.binary_search_by(|n| n.as_str().cmp(name)).ok()
}

/// A complete fuzzy controller: input/output variables, a rule base, and the
/// inference/defuzzification configuration.
#[derive(Debug, Clone, Default)]
pub struct Engine {
    /// Input variables, in declaration order.
    inputs: Vec<LinguisticVariable>,
    /// Output variables, in declaration order.
    outputs: Vec<LinguisticVariable>,
    rules: RuleBase,
    config: EngineConfig,
    /// The fields above compiled for evaluation; emptied by every change to
    /// them and rebuilt by the next evaluation.
    program: OnceLock<Program>,
}

/// An engine's rule base compiled against its variables and configuration.
#[derive(Debug, Clone)]
struct Program {
    /// Indices of the inputs that rules read, in name order.
    read_inputs: Vec<usize>,
    /// One `(input, term)` index pair per grade slot.
    slots: Vec<(usize, usize)>,
    /// The rules, in rule-base order.
    rules: Vec<CompiledRule>,
    /// Declared output names, sorted; shared with every result.
    names: Arc<[String]>,
    /// The outputs, in `names` order.
    outputs: Vec<CompiledOutput>,
    /// One sampled consequent set per `(output, term)` pair a rule targets.
    grids: Vec<FuzzySet>,
    /// Deepest operand stack any antecedent needs.
    depth: usize,
    /// The paper's configuration, and no output needs the sampled route.
    closed_form: bool,
}

#[derive(Debug, Clone)]
struct CompiledRule {
    /// The antecedent in postfix order.
    ops: Vec<Op>,
    weight: f64,
    /// Index into [`Program::outputs`].
    output: usize,
    /// Index into [`Program::grids`].
    grid: usize,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    /// Push a grade slot's column.
    Grade(usize),
    /// `min`, `max` and `1 − x` of the operands on top of the stack.
    And,
    Or,
    Not,
}

#[derive(Debug, Clone)]
struct CompiledOutput {
    lo: f64,
    hi: f64,
    shape: Shape,
}

/// What an output's rules put in their consequents.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Shape {
    /// No rule targets the output.
    Untargeted,
    /// Every rule targets the same `RightShoulder { a, b }` ramp.
    Ramp(f64, f64),
    /// Anything else: only the sampled route is exact.
    Sampled,
}

impl Engine {
    /// An empty engine with the paper's default configuration.
    pub fn new() -> Self {
        Engine::default()
    }

    /// An empty engine with an explicit configuration.
    pub fn with_config(config: EngineConfig) -> Self {
        Engine {
            config,
            ..Engine::default()
        }
    }

    /// The active configuration.
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// Replace the configuration (useful for ablation sweeps on an otherwise
    /// identical controller). The next evaluation recompiles the rule base,
    /// re-sampling its consequent grids at the new resolution.
    pub fn set_config(&mut self, config: EngineConfig) {
        self.config = config;
        self.program.take();
    }

    /// Declare an input variable. Returns an error if the name is taken.
    pub fn try_add_input(&mut self, var: LinguisticVariable) -> Result<(), FuzzyError> {
        self.check_unused(var.name())?;
        self.inputs.push(var);
        self.program.take();
        Ok(())
    }

    /// Declare an input variable.
    ///
    /// # Panics
    /// Panics on duplicate names; use [`Engine::try_add_input`] when the
    /// variable set is dynamic.
    pub fn add_input(&mut self, var: LinguisticVariable) {
        self.try_add_input(var).expect("duplicate variable");
    }

    /// Declare an output variable. Returns an error if the name is taken.
    pub fn try_add_output(&mut self, var: LinguisticVariable) -> Result<(), FuzzyError> {
        self.check_unused(var.name())?;
        self.outputs.push(var);
        self.program.take();
        Ok(())
    }

    /// Declare an output variable.
    ///
    /// # Panics
    /// Panics on duplicate names; use [`Engine::try_add_output`] when the
    /// variable set is dynamic.
    pub fn add_output(&mut self, var: LinguisticVariable) {
        self.try_add_output(var).expect("duplicate variable");
    }

    fn check_unused(&self, name: &str) -> Result<(), FuzzyError> {
        match self.variable(name) {
            Some(_) => Err(FuzzyError::DuplicateVariable { name: name.into() }),
            None => Ok(()),
        }
    }

    /// The declared input variables, in declaration order.
    pub fn inputs(&self) -> impl Iterator<Item = &LinguisticVariable> {
        self.inputs.iter()
    }

    /// The declared output variables, in declaration order.
    pub fn outputs(&self) -> impl Iterator<Item = &LinguisticVariable> {
        self.outputs.iter()
    }

    /// Look up a variable (input or output) by name.
    pub fn variable(&self, name: &str) -> Option<&LinguisticVariable> {
        self.inputs
            .iter()
            .chain(&self.outputs)
            .find(|v| v.name() == name)
    }

    /// Add a rule, validating that every referenced variable and term exists
    /// and that input/output roles are respected.
    pub fn add_rule(&mut self, rule: Rule) -> Result<(), FuzzyError> {
        self.validate_rule(&rule)?;
        self.rules.push(rule);
        self.program.take();
        Ok(())
    }

    /// Parse and add a single rule from DSL text.
    pub fn add_rule_str(&mut self, text: &str) -> Result<(), FuzzyError> {
        self.add_rule(parse_rule(text)?)
    }

    /// Parse and add a whole rule base from DSL text.
    pub fn add_rules_str(&mut self, text: &str) -> Result<(), FuzzyError> {
        for rule in parse_rules(text)?.rules() {
            self.add_rule(rule.clone())?;
        }
        Ok(())
    }

    /// The current rule base.
    pub fn rules(&self) -> &RuleBase {
        &self.rules
    }

    fn validate_rule(&self, rule: &Rule) -> Result<(), FuzzyError> {
        for var_name in rule.antecedent.referenced_variables() {
            if position(&self.outputs, var_name).is_some() {
                return Err(FuzzyError::VariableRoleMismatch {
                    name: var_name.to_string(),
                    reason: "output variable used in a rule antecedent".into(),
                });
            }
            let var = position(&self.inputs, var_name)
                .map(|i| &self.inputs[i])
                .ok_or_else(|| FuzzyError::UnknownVariable {
                    name: var_name.to_string(),
                })?;
            // Check every atom mentioning this variable names a real term.
            validate_terms(&rule.antecedent, var_name, var)?;
        }
        if position(&self.inputs, &rule.consequent.variable).is_some() {
            return Err(FuzzyError::VariableRoleMismatch {
                name: rule.consequent.variable.clone(),
                reason: "input variable used in a rule consequent".into(),
            });
        }
        let out = position(&self.outputs, &rule.consequent.variable)
            .map(|i| &self.outputs[i])
            .ok_or_else(|| FuzzyError::UnknownVariable {
                name: rule.consequent.variable.clone(),
            })?;
        if out.term(&rule.consequent.term).is_none() {
            return Err(FuzzyError::UnknownTerm {
                variable: rule.consequent.variable.clone(),
                term: rule.consequent.term.clone(),
            });
        }
        Ok(())
    }

    /// Run one full controller cycle: the one-row case of
    /// [`Engine::run_batch`].
    ///
    /// `measurements` supplies a crisp value per input variable; every input
    /// referenced by at least one rule must be measured, and a repeated
    /// measurement keeps its last value. The result holds one crisp value
    /// per *declared* output variable (variables no rule fired for
    /// defuzzify to the left edge of their universe, i.e. 0 for
    /// applicability outputs).
    pub fn run<'a, M>(&self, measurements: M) -> Result<Outputs, FuzzyError>
    where
        M: IntoIterator<Item = (&'a str, f64)>,
    {
        let measured: Vec<(&str, f64)> = measurements.into_iter().collect();
        let BatchOutputs { names, values, .. } = self.evaluate(&one_row(&measured), 1)?;
        Ok(Outputs { names, values })
    }

    /// Like [`Engine::run`], but also returns every targeted output's
    /// aggregated fuzzy set and rule truths. Always takes the sampled route,
    /// since the aggregated sets themselves are the point.
    pub fn run_detailed<'a, M>(&self, measurements: M) -> Result<DetailedOutputs, FuzzyError>
    where
        M: IntoIterator<Item = (&'a str, f64)>,
    {
        let measured: Vec<(&str, f64)> = measurements.into_iter().collect();
        let program = self.program();
        let truths = self.rule_truths(program, &one_row(&measured), 1)?;
        let sets = self.union_sets(program, &truths, 1, 0);
        let mut values = Vec::with_capacity(sets.len());
        let mut inference = HashMap::new();
        for (o, (out, set)) in program.outputs.iter().zip(sets).enumerate() {
            values.push(self.defuzzify(out, set.as_ref()));
            if let Some(set) = set {
                let rule_truths = program
                    .rules
                    .iter()
                    .zip(&truths)
                    .filter(|(rule, _)| rule.output == o)
                    .map(|(_, &truth)| truth)
                    .collect();
                inference.insert(
                    program.names[o].clone(),
                    InferenceResult { set, rule_truths },
                );
            }
        }
        Ok(DetailedOutputs {
            outputs: Outputs {
                names: Arc::clone(&program.names),
                values,
            },
            inference,
        })
    }

    /// Run one controller cycle over a whole batch of measurement rows.
    ///
    /// `columns` supplies one `(input variable, values)` column per measured
    /// variable; all columns must have the same length (the row count). Row
    /// `i` of every column together forms one measurement set, exactly as if
    /// passed to [`Engine::run`], which evaluates the same compiled program
    /// on one row — so the results are **bit-identical** to `rows` scalar
    /// `run` calls. Output columns are in name order.
    ///
    /// Validation reports, in this order: a column naming no input variable,
    /// the first non-finite value in any column (read by a rule or not), and
    /// the first rule-read input, by name, without a column.
    ///
    /// # Panics
    /// Panics if the columns disagree on length.
    pub fn run_batch(&self, columns: &[(&str, &[f64])]) -> Result<BatchOutputs, FuzzyError> {
        let rows = columns.first().map_or(0, |(_, values)| values.len());
        self.evaluate(columns, rows)
    }

    fn program(&self) -> &Program {
        self.program.get_or_init(|| self.compile())
    }

    /// The crisp outputs of `rows` rows, by the closed form or the sampled
    /// route (see the module docs).
    fn evaluate(
        &self,
        columns: &[(&str, &[f64])],
        rows: usize,
    ) -> Result<BatchOutputs, FuzzyError> {
        let program = self.program();
        let truths = self.rule_truths(program, columns, rows)?;
        let mut values = vec![0.0; program.outputs.len() * rows];
        if program.closed_form {
            // Heights: each output's strongest firing, folded in rule order.
            for (r, rule) in program.rules.iter().enumerate() {
                let heights = &mut values[rule.output * rows..][..rows];
                for (h, &t) in heights.iter_mut().zip(&truths[r * rows..][..rows]) {
                    if t > *h {
                        *h = t;
                    }
                }
            }
            for (o, out) in program.outputs.iter().enumerate() {
                for v in &mut values[o * rows..][..rows] {
                    *v = match out.shape {
                        Shape::Ramp(a, b) if *v > 0.0 => (a + *v * (b - a)).clamp(out.lo, out.hi),
                        _ => out.lo,
                    };
                }
            }
        } else {
            for row in 0..rows {
                let sets = self.union_sets(program, &truths, rows, row);
                for (o, (out, set)) in program.outputs.iter().zip(&sets).enumerate() {
                    values[o * rows + row] = self.defuzzify(out, set.as_ref());
                }
            }
        }
        Ok(BatchOutputs {
            rows,
            names: Arc::clone(&program.names),
            values,
        })
    }

    /// The evaluator every `run*` shares: validate `columns`, grade them,
    /// and return one weighted truth column per rule
    /// (`truths[r * rows + row]`).
    fn rule_truths(
        &self,
        program: &Program,
        columns: &[(&str, &[f64])],
        rows: usize,
    ) -> Result<Vec<f64>, FuzzyError> {
        for (name, values) in columns {
            assert_eq!(
                values.len(),
                rows,
                "batch column `{name}` has {} rows, expected {rows}",
                values.len()
            );
        }
        let mut column_of = vec![None; self.inputs.len()];
        for (c, (name, _)) in columns.iter().enumerate() {
            let input =
                position(&self.inputs, name).ok_or_else(|| FuzzyError::UnknownVariable {
                    name: (*name).into(),
                })?;
            column_of[input] = Some(c);
        }
        for (name, values) in columns {
            if let Some(&value) = values.iter().find(|v| !v.is_finite()) {
                return Err(FuzzyError::NonFiniteMeasurement {
                    name: (*name).into(),
                    value,
                });
            }
        }
        if let Some(&input) = program
            .read_inputs
            .iter()
            .find(|&&i| column_of[i].is_none())
        {
            return Err(FuzzyError::MissingMeasurement {
                name: self.inputs[input].name().into(),
            });
        }

        // Grades: each value clamped into its universe, then graded.
        let mut grades = vec![0.0; program.slots.len() * rows];
        for (s, &(input, term)) in program.slots.iter().enumerate() {
            let var = &self.inputs[input];
            let (lo, hi) = var.range();
            let term = &var.terms()[term];
            let column = columns[column_of[input].expect("rule inputs are measured")].1;
            for (g, &x) in grades[s * rows..][..rows].iter_mut().zip(column) {
                *g = term.grade(x.clamp(lo, hi));
            }
        }

        // Truths: each antecedent over a stack of columns, left operand
        // first as in `Antecedent::eval`, then times the rule's weight.
        let mut truths = vec![0.0; program.rules.len() * rows];
        let mut stack = vec![0.0; program.depth * rows];
        for (r, rule) in program.rules.iter().enumerate() {
            let mut top = 0;
            for &op in &rule.ops {
                match op {
                    Op::Grade(s) => {
                        stack[top * rows..][..rows].copy_from_slice(&grades[s * rows..][..rows]);
                        top += 1;
                    }
                    Op::Not => {
                        for v in &mut stack[(top - 1) * rows..][..rows] {
                            *v = 1.0 - *v;
                        }
                    }
                    Op::And | Op::Or => {
                        top -= 1;
                        let (left, right) = stack.split_at_mut(top * rows);
                        let pairs = left[(top - 1) * rows..].iter_mut().zip(&right[..rows]);
                        if op == Op::And {
                            pairs.for_each(|(l, &r)| *l = l.min(r));
                        } else {
                            pairs.for_each(|(l, &r)| *l = l.max(r));
                        }
                    }
                }
            }
            for (t, &v) in truths[r * rows..][..rows].iter_mut().zip(&stack[..rows]) {
                *t = v * rule.weight;
            }
        }
        Ok(truths)
    }

    /// The sampled route for one row: each targeted output's union of its
    /// rules' grids, clipped (max–min) or scaled (max–product) at their
    /// truths. An output's set exists from the first rule that targets it,
    /// even at truth 0; an untargeted output has none.
    fn union_sets(
        &self,
        program: &Program,
        truths: &[f64],
        rows: usize,
        row: usize,
    ) -> Vec<Option<FuzzySet>> {
        let mut sets = vec![None; program.outputs.len()];
        for (r, rule) in program.rules.iter().enumerate() {
            let out = &program.outputs[rule.output];
            let set = sets[rule.output]
                .get_or_insert_with(|| FuzzySet::empty(out.lo, out.hi, self.config.resolution));
            let truth = truths[r * rows + row];
            if truth > 0.0 {
                let grid = &program.grids[rule.grid];
                match self.config.inference {
                    InferenceMethod::MaxMin => set.union_clipped(grid, truth),
                    InferenceMethod::MaxProduct => set.union_scaled(grid, truth),
                }
            }
        }
        sets
    }

    /// An output's crisp value on the sampled route: its set defuzzified, or
    /// the left edge of its universe when no rule targets it.
    fn defuzzify(&self, out: &CompiledOutput, set: Option<&FuzzySet>) -> f64 {
        set.map_or(out.lo, |set| self.config.defuzzifier.defuzzify(set))
    }

    fn compile(&self) -> Program {
        let mut declared: Vec<&LinguisticVariable> = self.outputs.iter().collect();
        declared.sort_by(|x, y| x.name().cmp(y.name()));
        let mut outputs: Vec<CompiledOutput> = declared
            .iter()
            .map(|var| {
                let (lo, hi) = var.range();
                CompiledOutput {
                    lo,
                    hi,
                    shape: Shape::Untargeted,
                }
            })
            .collect();
        let mut slots = Vec::new();
        // One `(output, term)` pair per grid.
        let mut consequents = Vec::new();
        let mut depth = 0;
        let mut rules = Vec::with_capacity(self.rules.len());
        for rule in self.rules.rules() {
            let mut ops = Vec::new();
            depth = depth.max(self.compile_postfix(&rule.antecedent, &mut slots, &mut ops));
            let output = position(declared.iter().copied(), &rule.consequent.variable)
                .expect("validated consequent variable");
            let term = declared[output]
                .term_index(&rule.consequent.term)
                .expect("validated consequent term");
            let shape = match *declared[output].terms()[term].membership() {
                MembershipFunction::RightShoulder { a, b } => Shape::Ramp(a, b),
                _ => Shape::Sampled,
            };
            let current = &mut outputs[output].shape;
            if *current == Shape::Untargeted {
                *current = shape;
            } else if *current != shape {
                *current = Shape::Sampled;
            }
            rules.push(CompiledRule {
                ops,
                weight: rule.weight,
                output,
                grid: intern(&mut consequents, (output, term)),
            });
        }
        let grids = consequents
            .iter()
            .map(|&(output, term)| {
                let (out, term) = (&outputs[output], &declared[output].terms()[term]);
                FuzzySet::from_membership(term.membership(), out.lo, out.hi, self.config.resolution)
            })
            .collect();
        let read_inputs = self
            .rules
            .input_variables()
            .into_iter()
            .map(|name| position(&self.inputs, name).expect("validated antecedent variable"))
            .collect();
        let closed_form = self.config.inference == InferenceMethod::MaxMin
            && self.config.defuzzifier == Defuzzifier::LeftmostMax
            && outputs.iter().all(|out| out.shape != Shape::Sampled);
        Program {
            read_inputs,
            slots,
            rules,
            names: declared.iter().map(|var| var.name().to_string()).collect(),
            outputs,
            grids,
            depth,
            closed_form,
        }
    }

    /// Append `ant` to `ops` in postfix order, interning each atom's grade
    /// slot; returns the operand-stack depth it needs.
    fn compile_postfix(
        &self,
        ant: &Antecedent,
        slots: &mut Vec<(usize, usize)>,
        ops: &mut Vec<Op>,
    ) -> usize {
        match ant {
            Antecedent::Is { variable, term } => {
                let input =
                    position(&self.inputs, variable).expect("validated antecedent variable");
                let term = self.inputs[input]
                    .term_index(term)
                    .expect("validated antecedent term");
                ops.push(Op::Grade(intern(slots, (input, term))));
                1
            }
            Antecedent::And(a, b) | Antecedent::Or(a, b) => {
                let left = self.compile_postfix(a, slots, ops);
                let right = self.compile_postfix(b, slots, ops);
                ops.push(match ant {
                    Antecedent::And(..) => Op::And,
                    _ => Op::Or,
                });
                left.max(right + 1)
            }
            Antecedent::Not(a) => {
                let depth = self.compile_postfix(a, slots, ops);
                ops.push(Op::Not);
                depth
            }
        }
    }
}

/// Position of the variable called `name` in `vars`.
fn position<'a>(
    vars: impl IntoIterator<Item = &'a LinguisticVariable>,
    name: &str,
) -> Option<usize> {
    vars.into_iter().position(|v| v.name() == name)
}

/// Index of `key` in `keys`, appending it when absent.
fn intern(keys: &mut Vec<(usize, usize)>, key: (usize, usize)) -> usize {
    keys.iter().position(|&k| k == key).unwrap_or_else(|| {
        keys.push(key);
        keys.len() - 1
    })
}

/// One measurement per column, each column one row long.
fn one_row<'a>(measured: &'a [(&'a str, f64)]) -> Vec<(&'a str, &'a [f64])> {
    measured
        .iter()
        .map(|(name, value)| (*name, std::slice::from_ref(value)))
        .collect()
}

fn validate_terms(
    ant: &Antecedent,
    var_name: &str,
    var: &LinguisticVariable,
) -> Result<(), FuzzyError> {
    use crate::rule::Antecedent::*;
    match ant {
        Is { variable, term } => {
            if variable == var_name && var.term(term).is_none() {
                return Err(FuzzyError::UnknownTerm {
                    variable: variable.clone(),
                    term: term.clone(),
                });
            }
            Ok(())
        }
        And(a, b) | Or(a, b) => {
            validate_terms(a, var_name, var)?;
            validate_terms(b, var_name, var)
        }
        Not(a) => validate_terms(a, var_name, var),
    }
}

/// The full result of [`Engine::run_detailed`].
#[derive(Debug, Clone)]
pub struct DetailedOutputs {
    /// The crisp values.
    pub outputs: Outputs,
    /// Per targeted output: the aggregated fuzzy set and rule truths.
    pub inference: HashMap<String, InferenceResult>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::membership::MembershipFunction;
    use crate::variable::{load_variable, LinguisticVariable};

    fn paper_engine() -> Engine {
        let mut e = Engine::new();
        e.add_input(load_variable("cpuLoad"));
        e.add_input(
            LinguisticVariable::builder("performanceIndex")
                .range(0.0, 10.0)
                .term("low", MembershipFunction::trapezoid(0.0, 0.0, 1.0, 3.0))
                .term("medium", MembershipFunction::trapezoid(1.0, 3.0, 5.0, 7.0))
                .term("high", MembershipFunction::trapezoid(5.0, 7.0, 10.0, 10.0))
                .build()
                .unwrap(),
        );
        e.add_output(LinguisticVariable::applicability("scaleUp"));
        e.add_output(LinguisticVariable::applicability("scaleOut"));
        e.add_rule_str(
            "IF cpuLoad IS high AND (performanceIndex IS low OR performanceIndex IS medium) \
             THEN scaleUp IS applicable",
        )
        .unwrap();
        e.add_rule_str(
            "IF cpuLoad IS high AND performanceIndex IS high THEN scaleOut IS applicable",
        )
        .unwrap();
        e
    }

    /// Find a perf-index whose grades equal the paper's example
    /// (μ_low = 0, μ_medium = 0.6, μ_high = 0.3): our knots give
    /// μ_medium(x) = (7 − x)/2 and μ_high(x) = (x − 5)/2 on [5, 7], so
    /// x = 5.8 yields (0.6, 0.4)… instead we use the knots to solve exactly:
    /// need μ_medium = 0.6 → x = 5.8; μ_high(5.8) = 0.4 ≠ 0.3. The paper's
    /// grades are hypothetical ("We assume for this example…"), so the test
    /// fixes them by direct construction instead — see
    /// `inference::tests::paper_worked_example_clips_at_0_6_and_0_3` for the
    /// exact-grade variant. Here we assert end-to-end behaviour: scale-up
    /// must beat scale-out whenever medium dominates high.
    #[test]
    fn end_to_end_scale_up_preferred_on_weak_host() {
        let e = paper_engine();
        let out = e
            .run([("cpuLoad", 0.9), ("performanceIndex", 1.0)])
            .unwrap();
        assert!(
            out["scaleUp"] > 0.7,
            "weak host → scale-up strongly applicable"
        );
        assert_eq!(out["scaleOut"], 0.0, "weak host → no scale-out");
    }

    #[test]
    fn end_to_end_scale_out_preferred_on_strong_host() {
        let e = paper_engine();
        let out = e
            .run([("cpuLoad", 0.9), ("performanceIndex", 9.0)])
            .unwrap();
        assert!(out["scaleOut"] > 0.7, "strong host → scale-out");
        assert_eq!(out["scaleUp"], 0.0);
    }

    #[test]
    fn mixed_host_produces_paper_ordering() {
        // perf index 5.8: μ_medium = 0.6, μ_high = 0.4 → scaleUp 0.6, scaleOut 0.4.
        // The closed-form ramp path makes these exact (up to floating-point
        // rounding in the membership grades), not grid-quantized.
        let e = paper_engine();
        let out = e
            .run([("cpuLoad", 0.9), ("performanceIndex", 5.8)])
            .unwrap();
        assert!((out["scaleUp"] - 0.6).abs() < 1e-9);
        assert!((out["scaleOut"] - 0.4).abs() < 1e-9);
        let ranked = out.ranked();
        assert_eq!(ranked[0].0, "scaleUp");
        assert_eq!(ranked[1].0, "scaleOut");
    }

    #[test]
    fn analytic_path_matches_sampled_path_on_an_input_sweep() {
        // `run` (closed form for ramp outputs) and `run_detailed` (sampled
        // grids) must agree to within one grid step everywhere.
        let e = paper_engine();
        let step = 1.0 / (DEFAULT_RESOLUTION - 1) as f64;
        for cpu in 0..=20 {
            for perf in 0..=20 {
                let m = [
                    ("cpuLoad", cpu as f64 / 20.0),
                    ("performanceIndex", perf as f64 / 2.0),
                ];
                let fast = e.run(m).unwrap();
                let sampled = e.run_detailed(m).unwrap().outputs;
                for (name, value) in fast.iter() {
                    assert!(
                        (value - sampled[name]).abs() <= step + 1e-12,
                        "{name} at cpu {cpu} perf {perf}: analytic {value} vs sampled {}",
                        sampled[name]
                    );
                }
            }
        }
    }

    #[test]
    fn non_ramp_outputs_fall_back_to_the_sampled_path() {
        // A triangle consequent is not analytically tractable; `run` must
        // transparently produce the sampled result.
        let mut e = Engine::new();
        e.add_input(load_variable("x"));
        e.add_output(
            LinguisticVariable::builder("y")
                .range(0.0, 1.0)
                .term("mid", MembershipFunction::triangle(0.2, 0.5, 0.8))
                .build()
                .unwrap(),
        );
        e.add_rule_str("IF x IS high THEN y IS mid").unwrap();
        let out = e.run([("x", 1.0)]).unwrap();
        let detailed = e.run_detailed([("x", 1.0)]).unwrap();
        assert_eq!(out["y"], detailed.outputs["y"]);
        // Fully fired triangle: leftmost max at its peak.
        assert!((out["y"] - 0.5).abs() < 2e-3);
    }

    #[test]
    fn ablation_configs_fall_back_to_the_sampled_path() {
        // Centroid defuzzification cannot use the leftmost-max closed form.
        let mut e = paper_engine();
        e.set_config(EngineConfig {
            defuzzifier: Defuzzifier::Centroid,
            ..EngineConfig::default()
        });
        let m = [("cpuLoad", 0.9), ("performanceIndex", 5.8)];
        let out = e.run(m).unwrap();
        let detailed = e.run_detailed(m).unwrap();
        assert_eq!(out["scaleUp"], detailed.outputs["scaleUp"]);
        // Centroid of a clipped ramp sits right of the clip height.
        assert!(out["scaleUp"] > 0.6);
    }

    #[test]
    fn set_config_resamples_consequent_grids() {
        // Changing the resolution after the rule base was compiled must not
        // leave stale grids behind (union would panic on mismatched
        // discretization).
        let mut e = paper_engine();
        let m = [("cpuLoad", 0.9), ("performanceIndex", 1.0)];
        e.run_detailed(m).unwrap();
        e.set_config(EngineConfig {
            resolution: 51,
            defuzzifier: Defuzzifier::MeanOfMaxima,
            ..EngineConfig::default()
        });
        let out = e.run(m).unwrap();
        assert!(out["scaleUp"] > 0.7);
        // Mean-of-maxima takes the sampled route, as `run_detailed` does.
        assert_eq!(
            out["scaleUp"],
            e.run_detailed(m).unwrap().outputs["scaleUp"]
        );
    }

    #[test]
    fn unfired_outputs_defuzzify_to_zero() {
        let e = paper_engine();
        let out = e
            .run([("cpuLoad", 0.1), ("performanceIndex", 5.0)])
            .unwrap();
        assert_eq!(out["scaleUp"], 0.0);
        assert_eq!(out["scaleOut"], 0.0);
        assert_eq!(out.len(), 2);
        assert!(!out.is_empty());
    }

    #[test]
    fn missing_measurement_is_reported() {
        let e = paper_engine();
        let err = e.run([("cpuLoad", 0.9)]).unwrap_err();
        assert!(matches!(err, FuzzyError::MissingMeasurement { .. }));
    }

    #[test]
    fn unknown_measurement_is_reported() {
        let e = paper_engine();
        let err = e
            .run([("cpuLoad", 0.9), ("bogusVariable", 1.0)])
            .unwrap_err();
        assert!(matches!(err, FuzzyError::UnknownVariable { .. }));
    }

    #[test]
    fn rules_referencing_unknown_entities_are_rejected_at_add_time() {
        let mut e = paper_engine();
        assert!(e
            .add_rule_str("IF bogus IS high THEN scaleUp IS applicable")
            .is_err());
        assert!(e
            .add_rule_str("IF cpuLoad IS gigantic THEN scaleUp IS applicable")
            .is_err());
        assert!(e
            .add_rule_str("IF cpuLoad IS high THEN bogus IS applicable")
            .is_err());
        assert!(e
            .add_rule_str("IF cpuLoad IS high THEN scaleUp IS bogus")
            .is_err());
    }

    #[test]
    fn role_mismatch_is_rejected() {
        let mut e = paper_engine();
        // Output used as input.
        assert!(matches!(
            e.add_rule_str("IF scaleUp IS applicable THEN scaleOut IS applicable"),
            Err(FuzzyError::VariableRoleMismatch { .. })
        ));
        // Input used as output.
        assert!(matches!(
            e.add_rule_str("IF cpuLoad IS high THEN cpuLoad IS high"),
            Err(FuzzyError::VariableRoleMismatch { .. })
        ));
    }

    #[test]
    fn duplicate_variables_are_rejected() {
        let mut e = paper_engine();
        assert!(e.try_add_input(load_variable("cpuLoad")).is_err());
        assert!(e
            .try_add_output(LinguisticVariable::applicability("scaleUp"))
            .is_err());
        assert!(e
            .try_add_output(LinguisticVariable::applicability("cpuLoad"))
            .is_err());
    }

    #[test]
    fn detailed_run_exposes_rule_truths() {
        let e = paper_engine();
        let detail = e
            .run_detailed([("cpuLoad", 0.9), ("performanceIndex", 1.0)])
            .unwrap();
        let up = &detail.inference["scaleUp"];
        assert_eq!(up.rule_truths.len(), 1);
        assert!(up.rule_truths[0] > 0.7);
    }

    #[test]
    fn ranked_is_deterministic_on_ties() {
        let mut e = Engine::new();
        e.add_input(load_variable("x"));
        e.add_output(LinguisticVariable::applicability("b"));
        e.add_output(LinguisticVariable::applicability("a"));
        e.add_rule_str("IF x IS high THEN a IS applicable").unwrap();
        e.add_rule_str("IF x IS high THEN b IS applicable").unwrap();
        let out = e.run([("x", 1.0)]).unwrap();
        let ranked = out.ranked();
        assert_eq!(ranked[0].0, "a");
        assert_eq!(ranked[1].0, "b");
    }

    #[test]
    fn variables_iterate_in_declaration_order_and_outputs_in_name_order() {
        let mut e = Engine::new();
        e.add_input(load_variable("zeta"));
        e.add_input(load_variable("alpha"));
        for name in ["scaleUp", "move", "start"] {
            e.add_output(LinguisticVariable::applicability(name));
        }
        e.add_rule_str("IF zeta IS high THEN start IS applicable")
            .unwrap();
        let declared: Vec<&str> = e.outputs().map(|v| v.name()).collect();
        assert_eq!(declared, ["scaleUp", "move", "start"]);
        let inputs: Vec<&str> = e.inputs().map(|v| v.name()).collect();
        assert_eq!(inputs, ["zeta", "alpha"]);

        let out = e.run([("zeta", 1.0), ("alpha", 0.0)]).unwrap();
        let names: Vec<&str> = out.iter().map(|(name, _)| name).collect();
        assert_eq!(names, ["move", "scaleUp", "start"]);
        let batch = e
            .run_batch(&[("zeta", &[1.0, 0.0][..]), ("alpha", &[0.0, 0.0][..])])
            .unwrap();
        let row = batch.row(1);
        let names: Vec<&str> = row.iter().map(|(name, _)| name).collect();
        assert_eq!(names, ["move", "scaleUp", "start"]);
        assert_eq!(batch.column("start").unwrap(), [1.0, 0.0]);
        assert_eq!(
            out.ranked(),
            [("start", 1.0), ("move", 0.0), ("scaleUp", 0.0)]
        );
    }

    #[test]
    fn every_change_after_an_evaluation_recompiles() {
        let mut e = Engine::new();
        e.add_input(load_variable("x"));
        e.add_output(LinguisticVariable::applicability("a"));
        e.add_rule_str("IF x IS high THEN a IS applicable").unwrap();
        assert_eq!(e.run([("x", 1.0)]).unwrap().len(), 1);
        e.add_output(LinguisticVariable::applicability("b"));
        assert_eq!(e.run([("x", 1.0)]).unwrap().get("b"), Some(0.0));
        e.add_input(load_variable("y"));
        assert!(e.run([("x", 1.0)]).is_ok());
        e.add_rule_str("IF y IS high THEN b IS applicable").unwrap();
        assert!(matches!(
            e.run([("x", 1.0)]),
            Err(FuzzyError::MissingMeasurement { .. })
        ));
        assert_eq!(e.run([("x", 1.0), ("y", 1.0)]).unwrap()["b"], 1.0);
    }

    #[test]
    fn non_finite_measurements_are_rejected() {
        let e = paper_engine();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = e
                .run([("cpuLoad", bad), ("performanceIndex", 5.0)])
                .unwrap_err();
            assert!(
                matches!(err, FuzzyError::NonFiniteMeasurement { ref name, .. } if name == "cpuLoad"),
                "expected NonFiniteMeasurement for {bad}, got {err:?}"
            );
        }
        // The batch path rejects the same inputs.
        let err = e
            .run_batch(&[
                ("cpuLoad", &[0.5, f64::NAN][..]),
                ("performanceIndex", &[5.0, 5.0][..]),
            ])
            .unwrap_err();
        assert!(matches!(err, FuzzyError::NonFiniteMeasurement { .. }));
    }

    #[test]
    fn batch_is_bit_identical_to_scalar_runs_on_a_sweep() {
        // The core batch guarantee: run_batch over N rows produces exactly
        // the bits N scalar `run` calls produce, across the whole input grid.
        let e = paper_engine();
        let mut cpu = Vec::new();
        let mut perf = Vec::new();
        for c in 0..=20 {
            for p in 0..=25 {
                cpu.push(c as f64 / 20.0);
                perf.push(p as f64 / 2.5);
            }
        }
        let batch = e
            .run_batch(&[("cpuLoad", &cpu[..]), ("performanceIndex", &perf[..])])
            .unwrap();
        assert_eq!(batch.rows(), cpu.len());
        for row in 0..cpu.len() {
            let scalar = e
                .run([("cpuLoad", cpu[row]), ("performanceIndex", perf[row])])
                .unwrap();
            for name in ["scaleUp", "scaleOut"] {
                let b = batch.column(name).unwrap()[row];
                assert_eq!(
                    b.to_bits(),
                    scalar[name].to_bits(),
                    "{name} row {row}: batch {b} vs scalar {}",
                    scalar[name]
                );
            }
            // The per-row view agrees too.
            let view = batch.row(row);
            assert_eq!(view["scaleUp"].to_bits(), scalar["scaleUp"].to_bits());
        }
    }

    #[test]
    fn batch_matches_scalar_on_the_non_analytic_fallback() {
        // Triangle consequent → sampled route, row by row; run_batch must
        // stay bit-identical to scalar runs there too.
        let mut e = Engine::new();
        e.add_input(load_variable("x"));
        e.add_output(
            LinguisticVariable::builder("y")
                .range(0.0, 1.0)
                .term("mid", MembershipFunction::triangle(0.2, 0.5, 0.8))
                .build()
                .unwrap(),
        );
        e.add_rule_str("IF x IS high THEN y IS mid").unwrap();
        let xs: Vec<f64> = (0..=40).map(|i| i as f64 / 40.0).collect();
        let batch = e.run_batch(&[("x", &xs[..])]).unwrap();
        for (row, &x) in xs.iter().enumerate() {
            let scalar = e.run([("x", x)]).unwrap();
            assert_eq!(
                batch.column("y").unwrap()[row].to_bits(),
                scalar["y"].to_bits()
            );
        }
    }

    #[test]
    fn batch_handles_weighted_and_compound_rules() {
        // Exercise Not/Or nesting and rule weights through the compiled
        // element-wise evaluator.
        let mut e = paper_engine();
        e.add_rule(
            parse_rule(
                "IF NOT (cpuLoad IS low OR cpuLoad IS medium) AND performanceIndex IS low \
                 THEN scaleUp IS applicable",
            )
            .unwrap()
            .with_weight(0.7),
        )
        .unwrap();
        let cpu: Vec<f64> = (0..=30).map(|i| i as f64 / 30.0).collect();
        let perf: Vec<f64> = (0..=30).map(|i| (30 - i) as f64 / 3.0).collect();
        let batch = e
            .run_batch(&[("cpuLoad", &cpu[..]), ("performanceIndex", &perf[..])])
            .unwrap();
        for row in 0..cpu.len() {
            let scalar = e
                .run([("cpuLoad", cpu[row]), ("performanceIndex", perf[row])])
                .unwrap();
            for name in ["scaleUp", "scaleOut"] {
                assert_eq!(
                    batch.column(name).unwrap()[row].to_bits(),
                    scalar[name].to_bits()
                );
            }
        }
    }

    #[test]
    fn batch_validates_like_the_scalar_path() {
        let e = paper_engine();
        // Unknown column.
        assert!(matches!(
            e.run_batch(&[("bogus", &[0.1][..])]),
            Err(FuzzyError::UnknownVariable { .. })
        ));
        // Missing rule input.
        assert!(matches!(
            e.run_batch(&[("cpuLoad", &[0.1][..])]),
            Err(FuzzyError::MissingMeasurement { .. })
        ));
        // Empty batch: still well-formed, zero rows.
        let empty = e
            .run_batch(&[("cpuLoad", &[][..]), ("performanceIndex", &[][..])])
            .unwrap();
        assert_eq!(empty.rows(), 0);
        assert_eq!(empty.column("scaleUp").unwrap().len(), 0);
        assert!(empty.column("bogus").is_none());
    }

    #[test]
    fn variable_lookup_spans_inputs_and_outputs() {
        let e = paper_engine();
        assert!(e.variable("cpuLoad").is_some());
        assert!(e.variable("scaleUp").is_some());
        assert!(e.variable("none").is_none());
        assert_eq!(e.inputs().count(), 2);
        assert_eq!(e.outputs().count(), 2);
        assert_eq!(e.rules().len(), 2);
    }
}
