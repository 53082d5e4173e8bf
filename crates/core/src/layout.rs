//! The readout layout: which plan a session runs, and how its state maps
//! onto the program's register.
//!
//! A report session on the dense statevector
//! ([`EnsembleRunner::check_program`] and its siblings, and so the
//! server and the [`Debugger`](crate::Debugger)) simulates only the
//! qubits its compiled plan touches: it runs the plan's relabeled copy
//! ([`CompiledCircuit::relabeled`]) on a `k`-qubit state whose qubit `t`
//! stands for the program's qubit `active_qubits()[t]`
//! ([`CompiledCircuit::active_qubits`]). The program's other qubits are
//! idle and stay `|0⟩`. The layout maps what leaves that state back onto
//! the program's `n`-qubit register:
//!
//! * each outcome is deposited into the full register, idle bits 0,
//!   where it leaves the backend — before readout corruption, which
//!   therefore still draws once per bit of the full register;
//! * each exact distribution the oracle asks for, over qubits of the
//!   program's register, is taken over their active qubits and re-keyed
//!   onto the register.
//!
//! Both keep every bit. The relabeled plan computes the full state's
//! non-zero amplitudes in the same index order (see `qdb_circuit`'s
//! `compile` module), so the sampling scan and the exact distributions
//! add the same non-zero terms in the same order. The one outcome the
//! relabeling would move is the scan's overflow: a uniform at or above
//! the state's total probability takes the last index the scan reaches,
//! which on the full register is `2ⁿ − 1`, not the deposit of the
//! compacted state's last index; [`Layout::sample_uniforms`] keeps it
//! there.
//!
//! Everywhere else the layout is the identity: on the stabilizer and
//! sparse backends, for a plan with no idle qubit (which then runs the
//! same engine path, on the same plan), and on the entry points that
//! hand a state to the caller ([`EnsembleRunner::run_all`],
//! [`EnsembleRunner::run_breakpoint`],
//! [`SweepRunner::walk_backend`](crate::SweepRunner::walk_backend)),
//! which keep the full width.
//!
//! [`EnsembleRunner::check_program`]: crate::EnsembleRunner::check_program
//! [`EnsembleRunner::run_all`]: crate::EnsembleRunner::run_all
//! [`EnsembleRunner::run_breakpoint`]: crate::EnsembleRunner::run_breakpoint

use std::collections::HashMap;

use qdb_circuit::CompiledCircuit;
use qdb_sim::{SimBackend, State};

/// The plan a session's backend runs and how its state maps onto the
/// program's register (see the [module docs](self)).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Layout<'a> {
    /// The plan the backend runs.
    plan: &'a CompiledCircuit,
    /// Width of the program's register.
    width: usize,
    /// The register qubit each simulated qubit stands for, ascending;
    /// empty for the identity layout.
    active: &'a [usize],
}

impl<'a> Layout<'a> {
    /// Run `plan` on the program's full register.
    pub(crate) fn identity(plan: &'a CompiledCircuit) -> Self {
        Self {
            plan,
            width: plan.num_qubits(),
            active: &[],
        }
    }

    /// Run `plan`'s relabeled copy on its active qubits alone: the
    /// identity when no qubit is idle.
    pub(crate) fn compacted(plan: &'a CompiledCircuit) -> Self {
        let relabeled = plan.relabeled();
        if relabeled.num_qubits() == plan.num_qubits() {
            return Self::identity(plan);
        }
        Self {
            plan: relabeled,
            width: plan.num_qubits(),
            active: plan.active_qubits(),
        }
    }

    /// The plan the backend runs; it is as wide as the backend state.
    pub(crate) fn plan(&self) -> &'a CompiledCircuit {
        self.plan
    }

    /// Width of the program's register.
    pub(crate) fn width(&self) -> usize {
        self.width
    }

    /// `true` when the backend state is the program's whole register.
    pub(crate) fn is_identity(&self) -> bool {
        self.active.is_empty()
    }

    /// The full-register outcome of each uniform of `uniforms` on the
    /// dense `state`: [`State::sample_uniforms`]'s index, deposited,
    /// except that a uniform at or above the state's total probability
    /// (the scan's running sum over every amplitude) gets the register's
    /// last index `2ⁿ − 1`, where the full register's scan puts it, as
    /// [`Sampler`](qdb_sim::Sampler)'s CDF (ending at 1.0) does.
    pub(crate) fn sample_uniforms(&self, state: &State, uniforms: &[f64]) -> Vec<u64> {
        let outcomes = state.sample_uniforms(uniforms);
        if self.is_identity() {
            return outcomes;
        }
        let last = state.dim() as u64 - 1;
        // Summed as the scan sums, from 0.0 in index order, so the
        // comparison is the one the full register's scan makes.
        let mut total = None;
        outcomes
            .into_iter()
            .zip(uniforms)
            .map(|(outcome, &u)| {
                let overflow = outcome == last
                    && u >= *total.get_or_insert_with(|| {
                        state
                            .amplitudes()
                            .iter()
                            .fold(0.0, |acc, a| acc + a.norm_sqr())
                    });
                if overflow {
                    (1 << self.width) - 1
                } else {
                    scatter(outcome, self.active)
                }
            })
            .collect()
    }

    /// The exact joint Born distribution of `qubits`, labels of the
    /// program's register, keyed as [`SimBackend::outcome_distribution`]
    /// keys it on the full register: idle qubits read 0, so the
    /// distribution of the active ones is taken and each of its bits put
    /// back at its qubit's place in `qubits`.
    pub(crate) fn outcome_distribution<B: SimBackend>(
        &self,
        state: &B,
        qubits: &[usize],
    ) -> HashMap<u64, f64> {
        if self.is_identity() {
            return state.outcome_distribution(qubits);
        }
        let (places, simulated): (Vec<usize>, Vec<usize>) = qubits
            .iter()
            .enumerate()
            .filter_map(|(place, q)| self.active.binary_search(q).ok().map(|t| (place, t)))
            .unzip();
        state
            .outcome_distribution(&simulated)
            .into_iter()
            .map(|(value, p)| (scatter(value, &places), p))
            .collect()
    }
}

/// Move bit `i` of `value` to bit `places[i]`.
fn scatter(value: u64, places: &[usize]) -> u64 {
    places
        .iter()
        .enumerate()
        .fold(0, |out, (i, &place)| out | ((value >> i) & 1) << place)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdb_circuit::{Circuit, GateSink, OptLevel};
    use qdb_sim::Matrix2;

    /// H on qubit 1 and CX(1 → 3) of four: qubits 0 and 2 are idle.
    fn sparse_plan() -> CompiledCircuit {
        let mut c = Circuit::new(4);
        c.h(1);
        c.cx(1, 3);
        c.compile(OptLevel::Specialize)
    }

    #[test]
    fn a_plan_without_idle_qubits_keeps_the_identity() {
        let mut c = Circuit::new(2);
        c.h(0);
        c.cx(0, 1);
        let plan = c.compile(OptLevel::Specialize);
        let layout = Layout::compacted(&plan);
        assert!(layout.is_identity());
        assert!(std::ptr::eq(layout.plan(), &plan));
    }

    #[test]
    fn outcomes_and_distributions_land_on_the_full_register() {
        let plan = sparse_plan();
        let layout = Layout::compacted(&plan);
        assert_eq!((layout.width(), layout.plan().num_qubits()), (4, 2));
        let mut compact = State::zero(2);
        layout.plan().apply_to(&mut compact);
        let mut full = State::zero(4);
        plan.apply_to(&mut full);
        let uniforms = [0.1, 0.6, 0.4999, 0.5];
        assert_eq!(
            layout.sample_uniforms(&compact, &uniforms),
            full.sample_uniforms(&uniforms)
        );
        for qubits in [vec![0, 1, 2, 3], vec![3, 0], vec![2], vec![1, 2, 3]] {
            let mut expected: Vec<_> = full.outcome_distribution(&qubits).into_iter().collect();
            let mut got: Vec<_> = layout
                .outcome_distribution(&compact, &qubits)
                .into_iter()
                .collect();
            expected.sort_by_key(|&(k, _)| k);
            got.sort_by_key(|&(k, _)| k);
            let bits = |d: Vec<(u64, f64)>| -> Vec<(u64, u64)> {
                d.into_iter().map(|(k, p)| (k, p.to_bits())).collect()
            };
            assert_eq!(bits(got), bits(expected), "{qubits:?}");
        }
    }

    #[test]
    fn a_uniform_at_or_above_the_total_probability_maps_to_the_last_index() {
        // A sub-normalized state: probability 0.25 on each of its two
        // basis states, so uniforms from about 0.5 up overflow the scan. On
        // the full register they get 2ⁿ − 1 (0b1111), not the deposit
        // of the compacted state's last index (0b1010).
        let plan = sparse_plan();
        let layout = Layout::compacted(&plan);
        let mut compact = State::zero(2);
        layout.plan().apply_to(&mut compact);
        let mut full = State::zero(4);
        plan.apply_to(&mut full);
        let halve = Matrix2::identity().scale(std::f64::consts::FRAC_1_SQRT_2);
        compact.apply_1q(0, &halve);
        full.apply_1q(1, &halve);
        let uniforms = [0.2, 0.3, 0.45, 0.6, 0.75, 0.999];
        let expected = [0b0000, 0b1010, 0b1010, 0b1111, 0b1111, 0b1111];
        assert_eq!(layout.sample_uniforms(&compact, &uniforms), expected);
        assert_eq!(full.sample_uniforms(&uniforms), expected);
    }
}
