//! The statistical decision procedures for each assertion type, plus the
//! exact amplitude-based oracle used for cross-validation.
//!
//! The statistical checkers consume measured *values* and are
//! backend-agnostic by construction. The exact oracle is generic over
//! [`SimBackend`]: it reads register distributions through
//! [`SimBackend::outcome_distribution`], so the same cross-check runs on
//! the dense statevector (a `2ⁿ` amplitude scan) and on the stabilizer
//! tableau (polynomial branch enumeration at 100+ qubits).

use std::collections::HashMap;

use qdb_circuit::BreakpointKind;
use qdb_sim::measure::extract_bits;
use qdb_sim::SimBackend;
use qdb_stats::chi2::DEFAULT_POINT_MASS_EPSILON;
use qdb_stats::exact::{fisher_exact_table, g_test};
use qdb_stats::{ContingencyTable, GoodnessOfFit, StatsError};

use crate::error::CoreError;
use crate::report::{TestKind, Verdict};

/// Maximum register width (qubits) for the dense uniformity test.
pub const MAX_SUPERPOSITION_WIDTH: usize = 16;

/// Which independence test backs `assert_entangled` / `assert_product`.
///
/// The paper uses the Pearson chi-square test (with what its numbers
/// imply is a Yates correction). At 16-shot ensembles the chi-square
/// approximation is at its weakest, so QDB also offers the exact and
/// likelihood-ratio alternatives for ablation (DESIGN.md §7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IndependenceMethod {
    /// Pearson chi-square with automatic Yates correction (the paper's
    /// method; default).
    #[default]
    PearsonChi2,
    /// G-test (log-likelihood ratio), chi-square distributed.
    GTest,
    /// Fisher's exact test for 2×2 tables, falling back to Pearson for
    /// larger tables (where exact enumeration is impractical).
    FisherExact,
}

/// Raw result of one statistical check, before being wrapped into an
/// [`AssertionReport`](crate::AssertionReport).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckOutcome {
    /// Which test ran.
    pub test: TestKind,
    /// χ² statistic (`NAN` when the test degenerated).
    pub statistic: f64,
    /// Degrees of freedom (0 when degenerate).
    pub dof: usize,
    /// p-value used for the decision (for degenerate contingency tables
    /// this is reported as 1.0: "no evidence of dependence").
    pub p_value: f64,
    /// The decision at the configured significance level.
    pub verdict: Verdict,
}

/// `assert_classical`: the ensemble should contain only `expected`.
///
/// Modelled as a two-bin chi-square test (`match` vs `miss`) against the
/// hypothesis `P(match) = 1 − ε` with the paper's behaviour: a clean
/// ensemble yields `p ≈ 1.0`, a single stray observation `p ≈ 0.0`.
///
/// # Errors
///
/// [`CoreError::Stats`]`(`[`StatsError::EmptySample`]`)` on an empty
/// ensemble.
pub fn check_classical(
    values: &[u64],
    expected: u64,
    alpha: f64,
) -> Result<CheckOutcome, CoreError> {
    if values.is_empty() {
        return Err(StatsError::EmptySample.into());
    }
    let matches = values.iter().filter(|&&v| v == expected).count() as u64;
    let misses = values.len() as u64 - matches;
    let gof = GoodnessOfFit::new([1.0 - DEFAULT_POINT_MASS_EPSILON, DEFAULT_POINT_MASS_EPSILON])?;
    let result = gof.test_counts(&[matches, misses])?;
    Ok(CheckOutcome {
        test: TestKind::PointMassChi2,
        statistic: result.statistic,
        dof: result.dof,
        p_value: result.p_value,
        verdict: if result.rejects(alpha) {
            Verdict::Fail
        } else {
            Verdict::Pass
        },
    })
}

/// `assert_superposition`: the ensemble should look uniform over all
/// `2^width` register values.
///
/// # Errors
///
/// * [`CoreError::RegisterTooWide`] beyond [`MAX_SUPERPOSITION_WIDTH`];
/// * [`CoreError::Stats`] on an empty ensemble.
pub fn check_superposition(
    values: &[u64],
    width: usize,
    alpha: f64,
) -> Result<CheckOutcome, CoreError> {
    if width > MAX_SUPERPOSITION_WIDTH {
        return Err(CoreError::RegisterTooWide {
            name: "<register>".into(),
            width,
            max: MAX_SUPERPOSITION_WIDTH,
        });
    }
    if values.is_empty() {
        return Err(StatsError::EmptySample.into());
    }
    let bins = 1usize << width;
    let mut counts = vec![0u64; bins];
    for &v in values {
        counts[(v as usize) & (bins - 1)] += 1;
    }
    let gof = GoodnessOfFit::uniform(bins)?;
    let result = gof.test_counts(&counts)?;
    Ok(CheckOutcome {
        test: TestKind::UniformChi2,
        statistic: result.statistic,
        dof: result.dof,
        p_value: result.p_value,
        verdict: if result.rejects(alpha) {
            Verdict::Fail
        } else {
            Verdict::Pass
        },
    })
}

/// Statistic + dof + p-value of an independence test, or `None` when
/// the table is degenerate (a constant register carries no correlation
/// information).
struct IndependenceOutcome {
    statistic: f64,
    dof: usize,
    p_value: f64,
}

fn contingency(
    pairs: &[(u64, u64)],
    method: IndependenceMethod,
) -> Result<Option<IndependenceOutcome>, CoreError> {
    if pairs.is_empty() {
        return Err(StatsError::EmptySample.into());
    }
    let table = ContingencyTable::from_pairs(pairs.iter().copied());
    let result = match method {
        IndependenceMethod::PearsonChi2 => table.independence_test().map(|r| IndependenceOutcome {
            statistic: r.statistic,
            dof: r.dof,
            p_value: r.p_value,
        }),
        IndependenceMethod::GTest => g_test(&table).map(|r| IndependenceOutcome {
            statistic: r.statistic,
            dof: r.dof,
            p_value: r.p_value,
        }),
        IndependenceMethod::FisherExact => match fisher_exact_table(&table) {
            Ok(r) => Ok(IndependenceOutcome {
                statistic: f64::NAN, // exact test has no χ² statistic
                dof: 1,
                p_value: r.p_value,
            }),
            // Larger than 2×2: fall back to Pearson.
            Err(StatsError::DegenerateTable)
                if table.row_labels().len() > 2 || table.col_labels().len() > 2 =>
            {
                table.independence_test().map(|r| IndependenceOutcome {
                    statistic: r.statistic,
                    dof: r.dof,
                    p_value: r.p_value,
                })
            }
            Err(e) => Err(e),
        },
    };
    match result {
        Ok(r) => Ok(Some(r)),
        // A constant register (single row or column) carries no
        // correlation information: treat as "no dependence observed".
        Err(StatsError::DegenerateTable) => Ok(None),
        Err(e) => Err(e.into()),
    }
}

/// `assert_entangled`: measurement outcomes of the two registers should be
/// *dependent* — the assertion passes when the `method` independence
/// test rejects its hypothesis (`p ≤ α`), as in §4.4.
///
/// A degenerate table (one register constant) is evidence of *no*
/// correlation and therefore fails the assertion.
///
/// # Errors
///
/// [`CoreError::Stats`] on an empty ensemble.
pub fn check_entangled_with(
    pairs: &[(u64, u64)],
    alpha: f64,
    method: IndependenceMethod,
) -> Result<CheckOutcome, CoreError> {
    Ok(match contingency(pairs, method)? {
        Some(r) => CheckOutcome {
            test: TestKind::ContingencyDependent,
            statistic: r.statistic,
            dof: r.dof,
            p_value: r.p_value,
            verdict: if r.p_value <= alpha {
                Verdict::Pass
            } else {
                Verdict::Fail
            },
        },
        None => CheckOutcome {
            test: TestKind::ContingencyDependent,
            statistic: f64::NAN,
            dof: 0,
            p_value: 1.0,
            verdict: Verdict::Fail,
        },
    })
}

/// `assert_product`: measurement outcomes of the two registers should be
/// *independent* — the assertion passes when the `method` independence
/// test does **not** reject its hypothesis (`p > α`), as in §4.5.
///
/// A degenerate table (one register constant) is consistent with a
/// product state and passes.
///
/// # Errors
///
/// [`CoreError::Stats`] on an empty ensemble.
pub fn check_product_with(
    pairs: &[(u64, u64)],
    alpha: f64,
    method: IndependenceMethod,
) -> Result<CheckOutcome, CoreError> {
    Ok(match contingency(pairs, method)? {
        Some(r) => CheckOutcome {
            test: TestKind::ContingencyIndependent,
            statistic: r.statistic,
            dof: r.dof,
            p_value: r.p_value,
            verdict: if r.p_value <= alpha {
                Verdict::Fail
            } else {
                Verdict::Pass
            },
        },
        None => CheckOutcome {
            test: TestKind::ContingencyIndependent,
            statistic: f64::NAN,
            dof: 0,
            p_value: 1.0,
            verdict: Verdict::Pass,
        },
    })
}

/// The qubits a breakpoint's assertion measures, in packing order: the
/// register's qubits (LSB first), or the first register's then the
/// second's for two-register assertions.
pub(crate) fn breakpoint_qubits(kind: &BreakpointKind) -> Vec<usize> {
    match kind {
        BreakpointKind::Classical { register, .. } | BreakpointKind::Superposition { register } => {
            register.qubits().to_vec()
        }
        BreakpointKind::Entangled { a, b } | BreakpointKind::Product { a, b } => {
            a.qubits().iter().chain(b.qubits()).copied().collect()
        }
    }
}

/// Run a breakpoint's test on an ensemble of *full-register* outcomes:
/// each outcome is projected onto the asserted qubits (a register's
/// qubits, or the first register's then the second's — the same bits
/// [`QReg::value_of`](qdb_circuit::QReg::value_of) reads) and handed to
/// the one dispatch the session engine uses. `method` picks the
/// independence test of entanglement/product assertions; classical and
/// superposition checks ignore it.
///
/// # Errors
///
/// Propagates the individual checkers' errors.
pub fn check_breakpoint_with(
    kind: &BreakpointKind,
    outcomes: &[u64],
    alpha: f64,
    method: IndependenceMethod,
) -> Result<CheckOutcome, CoreError> {
    let qubits = breakpoint_qubits(kind);
    let packed: Vec<u64> = outcomes.iter().map(|&o| extract_bits(o, &qubits)).collect();
    check_packed(kind, &packed, alpha, method)
}

/// Run a breakpoint's test on outcomes packed over its
/// [`breakpoint_qubits`]: a single register's values are the outcomes
/// themselves, and a register pair splits at the first register's
/// width.
///
/// # Errors
///
/// Propagates the individual checkers' errors, with
/// [`CoreError::RegisterTooWide`] naming the register.
pub(crate) fn check_packed(
    kind: &BreakpointKind,
    outcomes: &[u64],
    alpha: f64,
    method: IndependenceMethod,
) -> Result<CheckOutcome, CoreError> {
    match kind {
        BreakpointKind::Classical { expected, .. } => check_classical(outcomes, *expected, alpha),
        BreakpointKind::Superposition { register } => {
            check_superposition(outcomes, register.width(), alpha).map_err(|e| match e {
                CoreError::RegisterTooWide { width, max, .. } => CoreError::RegisterTooWide {
                    name: register.name().to_string(),
                    width,
                    max,
                },
                other => other,
            })
        }
        BreakpointKind::Entangled { a, .. } => {
            check_entangled_with(&split_pairs(outcomes, a.width()), alpha, method)
        }
        BreakpointKind::Product { a, .. } => {
            check_product_with(&split_pairs(outcomes, a.width()), alpha, method)
        }
    }
}

/// The low `width` bits (valid for `width ≤ 64`).
pub(crate) fn register_mask(width: usize) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// Split packed two-register outcomes into `(first, second)` value
/// pairs at the first register's width.
///
/// `a_width ≤ 63` always holds here: registers own at least one qubit
/// ([`QReg::new`](qdb_circuit::QReg::new) enforces it) and the two
/// registers of an assertion are disjoint, so under the 64-qubit packing
/// limit the first register leaves the second at least one bit.
fn split_pairs(outcomes: &[u64], a_width: usize) -> Vec<(u64, u64)> {
    debug_assert!(
        a_width < 64,
        "first register must leave room for the second"
    );
    let mask = register_mask(a_width);
    outcomes.iter().map(|&o| (o & mask, o >> a_width)).collect()
}

/// The exact verdict for a breakpoint on any backend: what an infinite
/// ensemble would conclude.
///
/// * classical — all probability mass on the expected value;
/// * superposition — the register's marginal distribution is flat;
/// * entangled / product — the joint measurement distribution does /
///   does not factor into the product of marginals.
///
/// Note the entanglement criterion matches the *statistical test's*
/// semantics (correlation of measurement outcomes in the computational
/// basis), not full quantum entanglement — exactly the quantity the
/// paper's contingency tables estimate.
///
/// # Panics
///
/// Panics if the registers under test span more than 64 qubits combined
/// (the packed-outcome limit of
/// [`SimBackend::outcome_distribution`]).
#[must_use]
pub fn exact_verdict_on<B: SimBackend>(kind: &BreakpointKind, backend: &B, tol: f64) -> Verdict {
    exact_verdict_of(kind, tol, |qubits| backend.outcome_distribution(qubits))
}

/// [`exact_verdict_on`] over any source of exact distributions:
/// `distribution(qubits)` is the joint Born distribution of `qubits`,
/// keyed as [`SimBackend::outcome_distribution`] keys it.
pub(crate) fn exact_verdict_of(
    kind: &BreakpointKind,
    tol: f64,
    distribution: impl Fn(&[usize]) -> HashMap<u64, f64>,
) -> Verdict {
    match kind {
        BreakpointKind::Classical { register, expected } => {
            let dist = distribution(register.qubits());
            let p = dist.get(expected).copied().unwrap_or(0.0);
            if (p - 1.0).abs() <= tol {
                Verdict::Pass
            } else {
                Verdict::Fail
            }
        }
        BreakpointKind::Superposition { register } => {
            let dist = distribution(register.qubits());
            let want = 1.0 / register.domain_size() as f64;
            let flat = dist.len() as u64 == register.domain_size()
                && dist.values().all(|&p| (p - want).abs() <= tol);
            if flat {
                Verdict::Pass
            } else {
                Verdict::Fail
            }
        }
        BreakpointKind::Entangled { a, b } | BreakpointKind::Product { a, b } => {
            let pa = distribution(a.qubits());
            let pb = distribution(b.qubits());
            let union: Vec<usize> = a.qubits().iter().chain(b.qubits()).copied().collect();
            let joint = distribution(&union);
            // `a.width() ≤ 63` here: registers are non-empty, and the
            // joint distribution above already enforced the ≤ 64-qubit
            // packing limit, so the shift cannot overflow.
            let mut max_dev: f64 = 0.0;
            for (&va, &pa_v) in &pa {
                for (&vb, &pb_v) in &pb {
                    let j = joint.get(&(va | (vb << a.width()))).copied().unwrap_or(0.0);
                    max_dev = max_dev.max((j - pa_v * pb_v).abs());
                }
            }
            let dependent = max_dev > tol;
            let want_dependent = matches!(kind, BreakpointKind::Entangled { .. });
            if dependent == want_dependent {
                Verdict::Pass
            } else {
                Verdict::Fail
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdb_circuit::QReg;
    use qdb_sim::{gates, State};

    const ALPHA: f64 = 0.05;

    #[test]
    fn classical_clean_ensemble_passes_with_p_near_one() {
        let values = vec![25u64; 16];
        let out = check_classical(&values, 25, ALPHA).unwrap();
        assert_eq!(out.verdict, Verdict::Pass);
        assert!(out.p_value > 0.99, "p = {}", out.p_value);
    }

    #[test]
    fn classical_single_miss_fails_with_p_near_zero() {
        let mut values = vec![25u64; 15];
        values.push(24);
        let out = check_classical(&values, 25, ALPHA).unwrap();
        assert_eq!(out.verdict, Verdict::Fail);
        assert!(out.p_value < 1e-10, "p = {}", out.p_value);
    }

    #[test]
    fn classical_empty_errors() {
        assert!(check_classical(&[], 0, ALPHA).is_err());
    }

    #[test]
    fn superposition_uniform_passes() {
        // 16 shots over 2 qubits, perfectly flat.
        let values: Vec<u64> = (0..16).map(|i| i % 4).collect();
        let out = check_superposition(&values, 2, ALPHA).unwrap();
        assert_eq!(out.verdict, Verdict::Pass);
    }

    #[test]
    fn superposition_concentrated_fails() {
        let values = vec![3u64; 64];
        let out = check_superposition(&values, 2, ALPHA).unwrap();
        assert_eq!(out.verdict, Verdict::Fail);
        assert!(out.p_value < 1e-10);
    }

    #[test]
    fn superposition_width_guard() {
        assert!(matches!(
            check_superposition(&[0], 17, ALPHA),
            Err(CoreError::RegisterTooWide { .. })
        ));
    }

    #[test]
    fn entangled_bell_ensemble_passes() {
        let pairs: Vec<(u64, u64)> = (0..16).map(|i| (i % 2, i % 2)).collect();
        let out = check_entangled_with(&pairs, ALPHA, IndependenceMethod::PearsonChi2).unwrap();
        assert_eq!(out.verdict, Verdict::Pass);
        // Paper: p = 0.0005 at 16 shots (Yates-corrected).
        assert!((out.p_value - 4.66e-4).abs() < 5e-5, "p = {}", out.p_value);
    }

    #[test]
    fn entangled_independent_ensemble_fails() {
        // All four combinations equally often → independent.
        let pairs: Vec<(u64, u64)> = (0..16).map(|i| (i % 2, (i / 2) % 2)).collect();
        let out = check_entangled_with(&pairs, ALPHA, IndependenceMethod::PearsonChi2).unwrap();
        assert_eq!(out.verdict, Verdict::Fail);
    }

    #[test]
    fn entangled_constant_register_fails_gracefully() {
        let pairs: Vec<(u64, u64)> = (0..16).map(|i| (0, i % 2)).collect();
        let out = check_entangled_with(&pairs, ALPHA, IndependenceMethod::PearsonChi2).unwrap();
        assert_eq!(out.verdict, Verdict::Fail);
        assert!(out.statistic.is_nan());
        assert_eq!(out.dof, 0);
    }

    #[test]
    fn product_independent_passes_and_correlated_fails() {
        let indep: Vec<(u64, u64)> = (0..32).map(|i| (i % 2, (i / 2) % 2)).collect();
        assert_eq!(
            check_product_with(&indep, ALPHA, IndependenceMethod::PearsonChi2)
                .unwrap()
                .verdict,
            Verdict::Pass
        );
        let corr: Vec<(u64, u64)> = (0..32).map(|i| (i % 2, i % 2)).collect();
        assert_eq!(
            check_product_with(&corr, ALPHA, IndependenceMethod::PearsonChi2)
                .unwrap()
                .verdict,
            Verdict::Fail
        );
    }

    #[test]
    fn all_methods_agree_on_bell_ensemble() {
        let pairs: Vec<(u64, u64)> = (0..16).map(|i| (i % 2, i % 2)).collect();
        for method in [
            IndependenceMethod::PearsonChi2,
            IndependenceMethod::GTest,
            IndependenceMethod::FisherExact,
        ] {
            let out = check_entangled_with(&pairs, ALPHA, method).unwrap();
            assert_eq!(out.verdict, Verdict::Pass, "{method:?}");
            assert!(out.p_value < 0.01, "{method:?}: p = {}", out.p_value);
        }
    }

    #[test]
    fn fisher_exact_is_least_anticonservative_at_16_shots() {
        // The exact p for the ideal Bell table is 2/C(16,8) ≈ 1.55e-4,
        // smaller than the Yates-corrected chi-square's 4.7e-4 (the
        // correction over-corrects at this sample size).
        let pairs: Vec<(u64, u64)> = (0..16).map(|i| (i % 2, i % 2)).collect();
        let chi2 = check_entangled_with(&pairs, ALPHA, IndependenceMethod::PearsonChi2).unwrap();
        let fisher = check_entangled_with(&pairs, ALPHA, IndependenceMethod::FisherExact).unwrap();
        assert!(fisher.p_value < chi2.p_value);
        assert!(fisher.statistic.is_nan(), "exact test reports no χ²");
    }

    #[test]
    fn fisher_falls_back_to_pearson_beyond_2x2() {
        // 3-valued registers: Fisher cannot run; Pearson fallback must.
        let pairs: Vec<(u64, u64)> = (0..30).map(|i| (i % 3, i % 3)).collect();
        let out = check_entangled_with(&pairs, ALPHA, IndependenceMethod::FisherExact).unwrap();
        assert_eq!(out.verdict, Verdict::Pass);
        assert!(out.statistic.is_finite(), "fallback provides a χ²");
        assert_eq!(out.dof, 4);
    }

    #[test]
    fn gtest_product_check_passes_on_independent_pairs() {
        let pairs: Vec<(u64, u64)> = (0..64).map(|i| (i % 2, (i / 2) % 2)).collect();
        let out = check_product_with(&pairs, ALPHA, IndependenceMethod::GTest).unwrap();
        assert_eq!(out.verdict, Verdict::Pass);
    }

    #[test]
    fn degenerate_tables_handled_for_all_methods() {
        let pairs: Vec<(u64, u64)> = (0..16).map(|i| (0, i % 2)).collect();
        for method in [
            IndependenceMethod::PearsonChi2,
            IndependenceMethod::GTest,
            IndependenceMethod::FisherExact,
        ] {
            assert_eq!(
                check_entangled_with(&pairs, ALPHA, method).unwrap().verdict,
                Verdict::Fail,
                "{method:?}"
            );
            assert_eq!(
                check_product_with(&pairs, ALPHA, method).unwrap().verdict,
                Verdict::Pass,
                "{method:?}"
            );
        }
    }

    #[test]
    fn product_constant_register_passes() {
        let pairs: Vec<(u64, u64)> = (0..16).map(|i| (0, i % 2)).collect();
        assert_eq!(
            check_product_with(&pairs, ALPHA, IndependenceMethod::PearsonChi2)
                .unwrap()
                .verdict,
            Verdict::Pass
        );
    }

    #[test]
    fn check_breakpoint_extracts_register_values() {
        // Full outcomes on 3 qubits; register = qubits [1, 2].
        let reg = QReg::new("r", vec![1, 2]);
        let kind = BreakpointKind::Classical {
            register: reg,
            expected: 0b11,
        };
        let outcomes = vec![0b110u64; 20]; // register value 0b11
        let out = check_breakpoint_with(&kind, &outcomes, ALPHA, IndependenceMethod::PearsonChi2)
            .unwrap();
        assert_eq!(out.verdict, Verdict::Pass);
    }

    #[test]
    fn register_pairs_project_like_value_of() {
        // Scattered, interleaved registers over 6 qubits: the packed
        // dispatch must see exactly the (a, b) values `value_of` reads.
        let a = QReg::new("a", vec![4, 1]);
        let b = QReg::new("b", vec![0, 5, 2]);
        let outcomes: Vec<u64> = (0..64u64).map(|i| (i * 37) % 64).collect();
        let pairs: Vec<(u64, u64)> = outcomes
            .iter()
            .map(|&o| (a.value_of(o), b.value_of(o)))
            .collect();
        for method in [IndependenceMethod::PearsonChi2, IndependenceMethod::GTest] {
            let kinds = [
                BreakpointKind::Entangled {
                    a: a.clone(),
                    b: b.clone(),
                },
                BreakpointKind::Product {
                    a: a.clone(),
                    b: b.clone(),
                },
            ];
            let direct = [
                check_entangled_with(&pairs, ALPHA, method).unwrap(),
                check_product_with(&pairs, ALPHA, method).unwrap(),
            ];
            for (kind, want) in kinds.iter().zip(direct) {
                let got = check_breakpoint_with(kind, &outcomes, ALPHA, method).unwrap();
                assert_eq!(got.verdict, want.verdict, "{method:?}");
                assert_eq!(got.dof, want.dof, "{method:?}");
                assert_eq!(got.p_value.to_bits(), want.p_value.to_bits(), "{method:?}");
                assert_eq!(
                    got.statistic.to_bits(),
                    want.statistic.to_bits(),
                    "{method:?}"
                );
            }
        }
    }

    fn bell_state() -> State {
        let mut s = State::zero(2);
        s.apply_1q(0, &gates::h());
        s.apply_controlled_1q(&[0], 1, &gates::x());
        s
    }

    #[test]
    fn exact_classical_verdicts() {
        let s = State::basis(3, 0b101).unwrap();
        let reg = QReg::contiguous("r", 0, 3);
        let pass = BreakpointKind::Classical {
            register: reg.clone(),
            expected: 0b101,
        };
        let fail = BreakpointKind::Classical {
            register: reg,
            expected: 0b100,
        };
        assert_eq!(exact_verdict_on(&pass, &s, 1e-9), Verdict::Pass);
        assert_eq!(exact_verdict_on(&fail, &s, 1e-9), Verdict::Fail);
    }

    #[test]
    fn exact_superposition_verdicts() {
        let mut s = State::zero(2);
        s.apply_1q(0, &gates::h());
        s.apply_1q(1, &gates::h());
        let reg = QReg::contiguous("r", 0, 2);
        let kind = BreakpointKind::Superposition { register: reg };
        assert_eq!(exact_verdict_on(&kind, &s, 1e-9), Verdict::Pass);
        let basis = State::zero(2);
        assert_eq!(
            exact_verdict_on(
                &BreakpointKind::Superposition {
                    register: QReg::contiguous("r", 0, 2)
                },
                &basis,
                1e-9
            ),
            Verdict::Fail
        );
    }

    #[test]
    fn exact_entangled_and_product_verdicts() {
        let bell = bell_state();
        let a = QReg::new("a", vec![0]);
        let b = QReg::new("b", vec![1]);
        let ent = BreakpointKind::Entangled {
            a: a.clone(),
            b: b.clone(),
        };
        let prod = BreakpointKind::Product { a, b };
        assert_eq!(exact_verdict_on(&ent, &bell, 1e-9), Verdict::Pass);
        assert_eq!(exact_verdict_on(&prod, &bell, 1e-9), Verdict::Fail);

        let mut product_state = State::zero(2);
        product_state.apply_1q(0, &gates::h());
        assert_eq!(exact_verdict_on(&ent, &product_state, 1e-9), Verdict::Fail);
        assert_eq!(exact_verdict_on(&prod, &product_state, 1e-9), Verdict::Pass);
    }
}
