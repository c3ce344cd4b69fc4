//! Seeded property tests for the fuzzy engine's core invariants.
//!
//! These run a fixed number of deterministic cases per property (see
//! `autoglobe_rng::check`) so the suite behaves identically on every
//! machine and needs no network-fetched test framework.

use autoglobe_fuzzy::{
    infer, parse_rule, Antecedent, Defuzzifier, Engine, EngineConfig, FuzzyError, FuzzySet,
    InferenceConfig, InferenceMethod, InferenceResult, LinguisticVariable, MembershipFunction,
    Rule,
};
use autoglobe_rng::{check, Rng};
use std::collections::HashMap;

/// A valid trapezoid over [0, 1].
fn trapezoid(rng: &mut Rng) -> MembershipFunction {
    let mut v: Vec<f64> = (0..4).map(|_| rng.random_range(0.0..=1.0)).collect();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    MembershipFunction::trapezoid(v[0], v[1], v[2], v[3])
}

/// An arbitrary membership function over roughly [0, 1].
fn membership(rng: &mut Rng) -> MembershipFunction {
    match rng.random_below(4) {
        0 => trapezoid(rng),
        1 => MembershipFunction::left_shoulder(
            rng.random_range(0.0..=0.5),
            rng.random_range(0.5..=1.0),
        ),
        2 => MembershipFunction::right_shoulder(
            rng.random_range(0.0..=0.5),
            rng.random_range(0.5..=1.0),
        ),
        _ => {
            MembershipFunction::singleton(rng.random_range(0.0..=1.0), rng.random_range(0.0..=0.2))
        }
    }
}

/// A random antecedent over variables v0..v2 with terms low/high.
fn antecedent(rng: &mut Rng, depth: usize) -> Antecedent {
    const LOW_HIGH: &[&str] = &["low", "high"];
    antecedent_over(
        rng,
        depth,
        &[("v0", LOW_HIGH), ("v1", LOW_HIGH), ("v2", LOW_HIGH)],
    )
}

/// A random antecedent over `atoms`: variable names, each with its terms.
fn antecedent_over(rng: &mut Rng, depth: usize, atoms: &[(&str, &[&str])]) -> Antecedent {
    if depth == 0 || rng.random_below(3) == 0 {
        let (variable, terms) = atoms[rng.random_below(atoms.len())];
        return Antecedent::is(variable, *rng.choice(terms));
    }
    match rng.random_below(3) {
        0 => antecedent_over(rng, depth - 1, atoms).and(antecedent_over(rng, depth - 1, atoms)),
        1 => antecedent_over(rng, depth - 1, atoms).or(antecedent_over(rng, depth - 1, atoms)),
        _ => antecedent_over(rng, depth - 1, atoms).not(),
    }
}

#[test]
fn membership_grades_stay_in_unit_interval() {
    check::cases(512, |rng| {
        let mf = membership(rng);
        let x = rng.random_range(-2.0..=3.0);
        let g = mf.eval(x);
        assert!((0.0..=1.0).contains(&g), "μ({x}) = {g} out of range");
    });
}

#[test]
fn trapezoid_is_unimodal() {
    check::cases(512, |rng| {
        let mf = trapezoid(rng);
        let (a, b) = (rng.random_range(0.0..=1.0), rng.random_range(0.0..=1.0));
        if let MembershipFunction::Trapezoid {
            b: core_lo,
            c: core_hi,
            ..
        } = mf
        {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            if hi <= core_lo {
                assert!(mf.eval(lo) <= mf.eval(hi) + 1e-12);
            }
            if lo >= core_hi {
                assert!(mf.eval(lo) + 1e-12 >= mf.eval(hi));
            }
        }
    });
}

#[test]
fn antecedent_truth_in_unit_interval() {
    check::cases(512, |rng| {
        let ant = antecedent(rng, 3);
        let grades: Vec<f64> = (0..6).map(|_| rng.random_range(0.0..=1.0)).collect();
        let mut lookup = |v: &str, t: &str| {
            let vi: usize = v[1..].parse().unwrap();
            let ti = if t == "low" { 0 } else { 1 };
            Ok(grades[vi * 2 + ti])
        };
        let truth = ant.eval(&mut lookup).unwrap();
        assert!((0.0..=1.0).contains(&truth), "truth {truth} out of range");
    });
}

#[test]
fn de_morgan_holds() {
    check::cases(512, |rng| {
        let ga = rng.random_range(0.0..=1.0);
        let gb = rng.random_range(0.0..=1.0);
        let a = || Antecedent::is("a", "t");
        let b = || Antecedent::is("b", "t");
        let mut lookup = |v: &str, _t: &str| Ok(if v == "a" { ga } else { gb });
        let lhs = a().and(b()).not().eval(&mut lookup).unwrap();
        let rhs = a().not().or(b().not()).eval(&mut lookup).unwrap();
        assert!((lhs - rhs).abs() < 1e-12);
    });
}

#[test]
fn clip_and_union_height_laws() {
    check::cases(256, |rng| {
        let mf1 = membership(rng);
        let mf2 = membership(rng);
        let h1 = rng.random_range(0.0..=1.0);
        let h2 = rng.random_range(0.0..=1.0);
        let mut s1 = FuzzySet::from_membership(&mf1, 0.0, 1.0, 201);
        let mut s2 = FuzzySet::from_membership(&mf2, 0.0, 1.0, 201);
        s1.clip(h1);
        s2.clip(h2);
        assert!(s1.height() <= h1 + 1e-12);
        assert!(s2.height() <= h2 + 1e-12);
        let (h1a, h2a) = (s1.height(), s2.height());
        s1.union_assign(&s2);
        assert!((s1.height() - h1a.max(h2a)).abs() < 1e-12);
    });
}

#[test]
fn leftmost_max_inverts_clip_on_ramp() {
    // For the applicability ramp, leftmost-max defuzzification returns the
    // clip height exactly — the identity the paper's scoring relies on.
    check::cases(256, |rng| {
        let h = rng.random_range(0.0..=1.0);
        let mut s = FuzzySet::from_membership(
            &MembershipFunction::right_shoulder(0.0, 1.0),
            0.0,
            1.0,
            1001,
        );
        s.clip(h);
        let x = Defuzzifier::LeftmostMax.defuzzify(&s);
        assert!((x - h).abs() < 2e-3, "clip {h} defuzzified to {x}");
    });
}

#[test]
fn defuzzifiers_stay_in_universe() {
    check::cases(256, |rng| {
        let mf = membership(rng);
        let h = rng.random_range(0.0..=1.0);
        let mut s = FuzzySet::from_membership(&mf, 0.0, 1.0, 301);
        s.clip(h);
        for d in [
            Defuzzifier::LeftmostMax,
            Defuzzifier::MeanOfMaxima,
            Defuzzifier::Centroid,
        ] {
            let x = d.defuzzify(&s);
            assert!((0.0..=1.0).contains(&x), "{d:?} returned {x}");
        }
    });
}

#[test]
fn output_monotone_in_rule_weight() {
    // A higher rule weight can never lower the crisp applicability.
    check::cases(128, |rng| {
        let w1 = rng.random_range(0.0..=1.0);
        let w2 = rng.random_range(0.0..=1.0);
        let load = rng.random_range(0.0..=1.0);
        let (wlo, whi) = if w1 <= w2 { (w1, w2) } else { (w2, w1) };
        let run = |w: f64| {
            let mut e = Engine::new();
            e.add_input(autoglobe_fuzzy::variable::load_variable("cpuLoad"));
            e.add_output(LinguisticVariable::applicability("act"));
            e.add_rule(
                Rule::new(Antecedent::is("cpuLoad", "high"), "act", "applicable").with_weight(w),
            )
            .unwrap();
            e.run([("cpuLoad", load)]).unwrap()["act"]
        };
        assert!(run(wlo) <= run(whi) + 2e-3);
    });
}

#[test]
fn rule_display_reparses() {
    check::cases(256, |rng| {
        let ant = antecedent(rng, 3);
        let w = (rng.random_range(0.0..=1.0) * 100.0).round() / 100.0;
        let rule = Rule::new(ant, "out", "applicable").with_weight(w);
        let text = rule.to_string();
        let reparsed = parse_rule(&text).unwrap();
        assert_eq!(rule.antecedent, reparsed.antecedent);
        assert_eq!(rule.consequent, reparsed.consequent);
        assert!((rule.weight - reparsed.weight).abs() < 1e-9);
    });
}

#[test]
fn engine_outputs_bounded() {
    check::cases(128, |rng| {
        let l1 = rng.random_range(-0.5..=1.5);
        let l2 = rng.random_range(-0.5..=1.5);
        let mut e = Engine::new();
        e.add_input(autoglobe_fuzzy::variable::load_variable("cpuLoad"));
        e.add_input(autoglobe_fuzzy::variable::load_variable("memLoad"));
        e.add_output(LinguisticVariable::applicability("act"));
        e.add_rule_str("IF cpuLoad IS high OR memLoad IS high THEN act IS applicable")
            .unwrap();
        e.add_rule_str(
            "IF cpuLoad IS low AND NOT memLoad IS medium THEN act IS applicable WITH 0.5",
        )
        .unwrap();
        let out = e.run([("cpuLoad", l1), ("memLoad", l2)]).unwrap();
        assert!((0.0..=1.0).contains(&out["act"]));
    });
}

#[test]
fn rule_parser_never_panics() {
    check::cases(512, |rng| {
        // Arbitrary (mostly printable) input of up to 300 chars.
        let len = rng.random_below(300);
        let input: String = (0..len)
            .map(|_| char::from_u32(rng.random_int(1..=0x2FF) as u32).unwrap_or('?'))
            .collect();
        let _ = autoglobe_fuzzy::parse_rule(&input);
        let _ = autoglobe_fuzzy::parse_rules(&input);
    });
}

#[test]
fn keyword_soup_round_trips_when_valid() {
    const WORDS: [&str; 15] = [
        "IF",
        "THEN",
        "IS",
        "AND",
        "OR",
        "NOT",
        "WITH",
        "cpuLoad",
        "high",
        "low",
        "scaleUp",
        "applicable",
        "(",
        ")",
        "0.5",
    ];
    check::cases(2048, |rng| {
        let n = 1 + rng.random_below(23);
        let text = (0..n)
            .map(|_| *rng.choice(&WORDS))
            .collect::<Vec<_>>()
            .join(" ");
        if let Ok(rule) = autoglobe_fuzzy::parse_rule(&text) {
            let reparsed = autoglobe_fuzzy::parse_rule(&rule.to_string()).unwrap();
            assert_eq!(rule, reparsed);
        }
    });
}

/// Term names, in the order inputs take them.
const TERMS: [&str; 3] = ["low", "high", "mid"];

/// A random finite universe `[lo, hi]`.
fn universe(rng: &mut Rng) -> (f64, f64) {
    let lo = rng.random_range(-5.0..=5.0);
    (lo, lo + rng.random_range(0.5..=10.0))
}

/// A trapezoid, shoulder or singleton over `[lo, hi]`.
fn membership_in(rng: &mut Rng, lo: f64, hi: f64) -> MembershipFunction {
    let at = |u: f64| lo + u * (hi - lo);
    match rng.random_below(4) {
        0 => {
            let mut knots: Vec<f64> = (0..4).map(|_| at(rng.random_range(0.0..=1.0))).collect();
            knots.sort_by(f64::total_cmp);
            MembershipFunction::trapezoid(knots[0], knots[1], knots[2], knots[3])
        }
        1 => MembershipFunction::left_shoulder(
            at(rng.random_range(0.0..=0.5)),
            at(rng.random_range(0.5..=1.0)),
        ),
        2 => MembershipFunction::right_shoulder(
            at(rng.random_range(0.0..=0.5)),
            at(rng.random_range(0.5..=1.0)),
        ),
        _ => MembershipFunction::singleton(
            at(rng.random_range(0.0..=1.0)),
            (hi - lo) * rng.random_range(0.0..=0.2),
        ),
    }
}

/// An output variable of one of three kinds: the `applicability` ramp, two
/// `RightShoulder` terms with different knots, or one triangle term.
fn output_variable(rng: &mut Rng, name: &str) -> LinguisticVariable {
    let (lo, hi) = universe(rng);
    let at = |u: f64| lo + u * (hi - lo);
    match rng.random_below(3) {
        0 => LinguisticVariable::applicability(name),
        1 => LinguisticVariable::builder(name)
            .range(lo, hi)
            .term(
                "low",
                MembershipFunction::right_shoulder(
                    at(rng.random_range(0.0..=0.4)),
                    at(rng.random_range(0.4..=0.7)),
                ),
            )
            .term(
                "high",
                MembershipFunction::right_shoulder(
                    at(rng.random_range(0.3..=0.6)),
                    at(rng.random_range(0.7..=1.0)),
                ),
            )
            .build()
            .unwrap(),
        _ => {
            let mut knots: Vec<f64> = (0..3).map(|_| at(rng.random_range(0.0..=1.0))).collect();
            knots.sort_by(f64::total_cmp);
            LinguisticVariable::builder(name)
                .range(lo, hi)
                .term(
                    "mid",
                    MembershipFunction::triangle(knots[0], knots[1], knots[2]),
                )
                .build()
                .unwrap()
        }
    }
}

/// A crisp value for `var`: inside its universe, or up to one width outside.
fn measurement(rng: &mut Rng, var: &LinguisticVariable) -> f64 {
    let (lo, hi) = var.range();
    let width = hi - lo;
    match rng.random_below(4) {
        0 => rng.random_range(lo - width..=lo),
        1 => rng.random_range(hi..=hi + width),
        _ => rng.random_range(lo..=hi),
    }
}

/// One row's `(variable, term)` grades in the string-keyed reference's
/// shape; a repeated measurement keeps its last value.
fn grades_of(engine: &Engine, row: &[(&str, f64)]) -> HashMap<(String, String), f64> {
    let mut grades = HashMap::new();
    for &(name, x) in row {
        for (term, grade) in engine.variable(name).unwrap().fuzzify_named(x) {
            grades.insert((name.to_string(), term.to_string()), grade);
        }
    }
    grades
}

/// The `RightShoulder` ramp that every rule targeting `output` shares.
fn shared_ramp(engine: &Engine, output: &str) -> Option<(f64, f64)> {
    let var = engine.variable(output).unwrap();
    let mut ramps = engine
        .rules()
        .rules()
        .iter()
        .filter(|rule| rule.consequent.variable == output)
        .map(
            |rule| match *var.term(&rule.consequent.term).unwrap().membership() {
                MembershipFunction::RightShoulder { a, b } => Some((a, b)),
                _ => None,
            },
        );
    let first = ramps.next()??;
    ramps.all(|ramp| ramp == Some(first)).then_some(first)
}

/// The scalar analytic cycle: weighted truths by `Antecedent::eval`,
/// strict-`>` heights from 0.0 in rule order, then the clamped ramp
/// formula, or the universe's left edge where no rule fired.
fn closed_form_oracle(
    engine: &Engine,
    grades: &HashMap<(String, String), f64>,
) -> HashMap<String, f64> {
    let mut heights: HashMap<&str, f64> = HashMap::new();
    for rule in engine.rules().rules() {
        let truth = rule
            .antecedent
            .eval(&mut |v: &str, t: &str| Ok(grades[&(v.to_string(), t.to_string())]))
            .unwrap()
            * rule.weight;
        let height = heights
            .entry(rule.consequent.variable.as_str())
            .or_insert(0.0);
        if truth > *height {
            *height = truth;
        }
    }
    engine
        .outputs()
        .map(|var| {
            let (lo, hi) = var.range();
            let crisp = match (heights.get(var.name()), shared_ramp(engine, var.name())) {
                (Some(&h), Some((a, b))) if h > 0.0 => (a + h * (b - a)).clamp(lo, hi),
                _ => lo,
            };
            (var.name().to_string(), crisp)
        })
        .collect()
}

/// `infer` followed by the configured defuzzifier, with the universe's left
/// edge for an output no rule targets.
fn sampled_oracle(
    engine: &Engine,
    grades: &HashMap<(String, String), f64>,
) -> (HashMap<String, InferenceResult>, HashMap<String, f64>) {
    let config = engine.config();
    let outputs: HashMap<String, LinguisticVariable> = engine
        .outputs()
        .map(|var| (var.name().to_string(), var.clone()))
        .collect();
    let cfg = InferenceConfig {
        method: config.inference,
        resolution: config.resolution,
    };
    let results = infer(engine.rules(), grades, &outputs, cfg).unwrap();
    let crisp = engine
        .outputs()
        .map(|var| {
            let value = results
                .get(var.name())
                .map_or(var.range().0, |r| config.defuzzifier.defuzzify(&r.set));
            (var.name().to_string(), value)
        })
        .collect();
    (results, crisp)
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Holds `run`, `run_batch` and `run_detailed` on `columns` to the oracles.
fn check_paths(engine: &Engine, columns: &[(&str, Vec<f64>)], rows: usize) {
    let config = engine.config();
    let closed = config.inference == InferenceMethod::MaxMin
        && config.defuzzifier == Defuzzifier::LeftmostMax
        && engine
            .rules()
            .output_variables()
            .into_iter()
            .all(|name| shared_ramp(engine, name).is_some());
    let slices: Vec<(&str, &[f64])> = columns
        .iter()
        .map(|(name, values)| (*name, values.as_slice()))
        .collect();
    let batch = engine.run_batch(&slices).unwrap();
    assert_eq!(batch.rows(), rows);
    for var in engine.outputs() {
        assert_eq!(batch.column(var.name()).unwrap().len(), rows);
    }
    for r in 0..rows {
        let row: Vec<(&str, f64)> = columns
            .iter()
            .map(|(name, values)| (*name, values[r]))
            .collect();
        let grades = grades_of(engine, &row);
        let (results, sampled) = sampled_oracle(engine, &grades);
        let expected = if closed {
            closed_form_oracle(engine, &grades)
        } else {
            sampled.clone()
        };
        let scalar = engine.run(row.iter().copied()).unwrap();
        let view = batch.row(r);
        assert_eq!(scalar.len(), expected.len());
        for (name, want) in &expected {
            let want = want.to_bits();
            let what = format!("{name}, row {r}, {config:?}");
            assert_eq!(scalar[name.as_str()].to_bits(), want, "run: {what}");
            assert_eq!(
                batch.column(name).unwrap()[r].to_bits(),
                want,
                "column: {what}"
            );
            assert_eq!(view[name.as_str()].to_bits(), want, "row view: {what}");
        }
        let detailed = engine.run_detailed(row.iter().copied()).unwrap();
        assert_eq!(detailed.inference.len(), results.len());
        for (name, reference) in &results {
            let got = &detailed.inference[name];
            assert_eq!(
                bits(&got.rule_truths),
                bits(&reference.rule_truths),
                "{name}"
            );
            assert_eq!(
                bits(got.set.samples()),
                bits(reference.set.samples()),
                "{name}"
            );
        }
        for (name, want) in &sampled {
            assert_eq!(
                detailed.outputs[name.as_str()].to_bits(),
                want.to_bits(),
                "{name}"
            );
        }
    }
}

/// Breaks `columns` with a non-empty mix of an unknown name, a non-finite
/// value and a missing rule input, and checks that `run` on the faulty row
/// and `run_batch` report the same error: unknown name first, then the
/// non-finite value, then the missing input.
fn check_errors(rng: &mut Rng, engine: &Engine, mut columns: Vec<(&str, Vec<f64>)>) {
    let faults = 1 + rng.random_below(7);
    let mut expected = None;
    if faults & 4 != 0 {
        let read: Vec<&str> = engine.rules().input_variables().into_iter().collect();
        let gone = *rng.choice(&read);
        columns.retain(|(name, _)| *name != gone);
        expected = Some(FuzzyError::MissingMeasurement { name: gone.into() });
    }
    let mut row = 0;
    if faults & 2 != 0 {
        let c = rng.random_below(columns.len());
        row = rng.random_below(columns[c].1.len());
        let value = *rng.choice(&[f64::NAN, f64::INFINITY, f64::NEG_INFINITY]);
        columns[c].1[row] = value;
        expected = Some(FuzzyError::NonFiniteMeasurement {
            name: columns[c].0.into(),
            value,
        });
    }
    if faults & 1 != 0 {
        let len = columns[0].1.len();
        columns.insert(
            rng.random_below(columns.len() + 1),
            ("bogus", vec![0.5; len]),
        );
        expected = Some(FuzzyError::UnknownVariable {
            name: "bogus".into(),
        });
    }
    let expected = format!("{:?}", expected.unwrap());
    let slices: Vec<(&str, &[f64])> = columns
        .iter()
        .map(|(name, values)| (*name, values.as_slice()))
        .collect();
    let batch = engine.run_batch(&slices).unwrap_err();
    let scalar = engine
        .run(columns.iter().map(|(name, values)| (*name, values[row])))
        .unwrap_err();
    assert_eq!(format!("{batch:?}"), expected, "run_batch");
    assert_eq!(format!("{scalar:?}"), expected, "run");
}

#[test]
fn every_engine_path_matches_the_string_keyed_oracles() {
    check::cases(128, |rng| {
        let config = EngineConfig {
            inference: *rng.choice(&[InferenceMethod::MaxMin, InferenceMethod::MaxProduct]),
            defuzzifier: *rng.choice(&[
                Defuzzifier::LeftmostMax,
                Defuzzifier::MeanOfMaxima,
                Defuzzifier::Centroid,
            ]),
            resolution: *rng.choice(&[1001, 51]),
        };
        let mut engine = Engine::with_config(config);

        let inputs: Vec<LinguisticVariable> = (0..2 + rng.random_below(2))
            .map(|i| {
                let (lo, hi) = universe(rng);
                let mut builder = LinguisticVariable::builder(format!("v{i}")).range(lo, hi);
                for term in &TERMS[..2 + rng.random_below(2)] {
                    builder = builder.term(*term, membership_in(rng, lo, hi));
                }
                builder.build().unwrap()
            })
            .collect();
        // Outputs are declared in a shuffled order, one of them untargeted.
        let mut outputs: Vec<LinguisticVariable> = (0..2 + rng.random_below(2))
            .map(|i| output_variable(rng, &format!("out{i}")))
            .collect();
        let targets = outputs.clone();
        outputs.push(output_variable(rng, "idle"));
        for i in (1..outputs.len()).rev() {
            outputs.swap(i, rng.random_below(i + 1));
        }
        for var in &inputs {
            engine.add_input(var.clone());
        }
        for var in &outputs {
            engine.add_output(var.clone());
        }

        let atoms: Vec<(&str, Vec<&str>)> = inputs
            .iter()
            .map(|var| (var.name(), var.terms().iter().map(|t| t.name()).collect()))
            .collect();
        let atoms: Vec<(&str, &[&str])> = atoms
            .iter()
            .map(|(name, terms)| (*name, terms.as_slice()))
            .collect();
        for _ in 0..1 + rng.random_below(10) {
            let target = rng.choice(&targets);
            let term = rng.choice(target.terms()).name();
            let rule = Rule::new(antecedent_over(rng, 3, &atoms), target.name(), term)
                .with_weight(rng.random_range(0.0..=1.0));
            engine.add_rule(rule).unwrap();
        }

        let rows = match rng.random_below(4) {
            0 => 0,
            1 => 1,
            _ => 2 + rng.random_below(23),
        };
        let mut columns: Vec<(&str, Vec<f64>)> = inputs
            .iter()
            .map(|var| {
                let values = (0..rows).map(|_| measurement(rng, var)).collect();
                (var.name(), values)
            })
            .collect();
        if rng.random_below(4) == 0 {
            // A repeated measurement: the later column wins.
            let var = rng.choice(&inputs);
            let values = (0..rows).map(|_| measurement(rng, var)).collect();
            columns.insert(0, (var.name(), values));
        }

        check_paths(&engine, &columns, rows);
        engine.set_config(EngineConfig {
            resolution: config.resolution,
            ..EngineConfig::default()
        });
        check_paths(&engine, &columns, rows);

        let error_rows = 1 + rng.random_below(3);
        let columns: Vec<(&str, Vec<f64>)> = inputs
            .iter()
            .map(|var| {
                let values = (0..error_rows).map(|_| measurement(rng, var)).collect();
                (var.name(), values)
            })
            .collect();
        check_errors(rng, &engine, columns);
    });
}
