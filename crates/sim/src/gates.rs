//! Standard single-qubit gate matrices.
//!
//! All gates are expressed as 2×2 unitary [`Matrix2`] values. Controlled
//! and multi-controlled application is handled by
//! [`State::apply_controlled_1q`](crate::State::apply_controlled_1q), so a
//! CNOT is "apply [`x`] controlled on one qubit", a Toffoli is "apply
//! [`x`] controlled on two qubits", and the paper's `ccRz` is "apply
//! [`rz`] controlled on two qubits".
//!
//! Rotation conventions follow Nielsen & Chuang:
//! `Rz(θ) = diag(e^{−iθ/2}, e^{+iθ/2})`, and the *phase* gate used by the
//! quantum Fourier transform is `P(θ) = diag(1, e^{iθ})`, which equals
//! `Rz(θ)` up to global phase (the paper's Scaffold `Rz` is this phase
//! rotation; both are provided and [`rz`]/[`phase`] are distinguished so
//! controlled versions — where global phase becomes relative — behave
//! correctly).

use crate::complex::Complex;
use std::f64::consts::FRAC_1_SQRT_2;
use std::fmt;

/// A 2×2 complex matrix in row-major order: `m[row][col]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Matrix2(pub [[Complex; 2]; 2]);

impl Matrix2 {
    /// The identity matrix.
    #[must_use]
    pub fn identity() -> Self {
        Matrix2([[Complex::ONE, Complex::ZERO], [Complex::ZERO, Complex::ONE]])
    }

    /// Matrix product `self · rhs`.
    #[must_use]
    pub fn mul(&self, rhs: &Matrix2) -> Matrix2 {
        let a = &self.0;
        let b = &rhs.0;
        let mut out = [[Complex::ZERO; 2]; 2];
        for (r, row) in out.iter_mut().enumerate() {
            for (c, cell) in row.iter_mut().enumerate() {
                *cell = a[r][0] * b[0][c] + a[r][1] * b[1][c];
            }
        }
        Matrix2(out)
    }

    /// Element-wise multiplication by a real scalar — how a Kraus
    /// operator `K` becomes the applied branch map `K/√p`.
    #[must_use]
    pub fn scale(&self, s: f64) -> Matrix2 {
        let m = &self.0;
        Matrix2([
            [m[0][0].scale(s), m[0][1].scale(s)],
            [m[1][0].scale(s), m[1][1].scale(s)],
        ])
    }

    /// Conjugate transpose (the adjoint, i.e. the inverse for a unitary).
    #[must_use]
    pub fn dagger(&self) -> Matrix2 {
        let m = &self.0;
        Matrix2([
            [m[0][0].conj(), m[1][0].conj()],
            [m[0][1].conj(), m[1][1].conj()],
        ])
    }

    /// `true` when `self · self† ≈ I` within `tol`.
    #[must_use]
    pub fn is_unitary(&self, tol: f64) -> bool {
        let p = self.mul(&self.dagger());
        p.0[0][0].approx_eq(Complex::ONE, tol)
            && p.0[1][1].approx_eq(Complex::ONE, tol)
            && p.0[0][1].approx_eq(Complex::ZERO, tol)
            && p.0[1][0].approx_eq(Complex::ZERO, tol)
    }

    /// Element-wise approximate equality.
    #[must_use]
    pub fn approx_eq(&self, other: &Matrix2, tol: f64) -> bool {
        self.0
            .iter()
            .flatten()
            .zip(other.0.iter().flatten())
            .all(|(a, b)| a.approx_eq(*b, tol))
    }

    /// Approximate equality up to a global phase factor.
    #[must_use]
    pub fn approx_eq_up_to_phase(&self, other: &Matrix2, tol: f64) -> bool {
        // Find the first element of `other` with significant magnitude and
        // align phases on it.
        for r in 0..2 {
            for c in 0..2 {
                if other.0[r][c].abs() > tol {
                    if self.0[r][c].abs() <= tol {
                        return false;
                    }
                    let phase = self.0[r][c] / other.0[r][c];
                    if (phase.abs() - 1.0).abs() > tol {
                        return false;
                    }
                    let rotated = Matrix2([
                        [other.0[0][0] * phase, other.0[0][1] * phase],
                        [other.0[1][0] * phase, other.0[1][1] * phase],
                    ]);
                    return self.approx_eq(&rotated, tol);
                }
            }
        }
        false
    }
}

impl fmt::Display for Matrix2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "[{}, {}]", self.0[0][0], self.0[0][1])?;
        write!(f, "[{}, {}]", self.0[1][0], self.0[1][1])
    }
}

/// Hadamard gate.
#[must_use]
pub fn h() -> Matrix2 {
    let s = Complex::real(FRAC_1_SQRT_2);
    Matrix2([[s, s], [s, -s]])
}

/// Pauli-X (NOT) gate.
#[must_use]
pub fn x() -> Matrix2 {
    Matrix2([[Complex::ZERO, Complex::ONE], [Complex::ONE, Complex::ZERO]])
}

/// Pauli-Y gate.
#[must_use]
pub fn y() -> Matrix2 {
    Matrix2([[Complex::ZERO, -Complex::I], [Complex::I, Complex::ZERO]])
}

/// Pauli-Z gate.
#[must_use]
pub fn z() -> Matrix2 {
    Matrix2([
        [Complex::ONE, Complex::ZERO],
        [Complex::ZERO, -Complex::ONE],
    ])
}

/// Phase gate S = diag(1, i).
///
/// Built from exact literals rather than `phase(π/2)`: `cos(π/2)`
/// rounds to `6.1e-17`, not zero, and the residue would leak tiny
/// spurious real parts into amplitudes.
#[must_use]
pub fn s() -> Matrix2 {
    Matrix2([[Complex::ONE, Complex::ZERO], [Complex::ZERO, Complex::I]])
}

/// Inverse phase gate S† = diag(1, −i). Exact literals, as [`s`].
#[must_use]
pub fn sdg() -> Matrix2 {
    Matrix2([[Complex::ONE, Complex::ZERO], [Complex::ZERO, -Complex::I]])
}

/// T gate = diag(1, e^{iπ/4}).
#[must_use]
pub fn t() -> Matrix2 {
    phase(std::f64::consts::FRAC_PI_4)
}

/// T† gate.
#[must_use]
pub fn tdg() -> Matrix2 {
    phase(-std::f64::consts::FRAC_PI_4)
}

/// Rotation about the X axis: `Rx(θ) = e^{−iθX/2}`.
#[must_use]
pub fn rx(theta: f64) -> Matrix2 {
    let c = Complex::real((theta / 2.0).cos());
    let s = Complex::new(0.0, -(theta / 2.0).sin());
    Matrix2([[c, s], [s, c]])
}

/// Rotation about the Y axis: `Ry(θ) = e^{−iθY/2}`.
#[must_use]
pub fn ry(theta: f64) -> Matrix2 {
    let c = Complex::real((theta / 2.0).cos());
    let s = Complex::real((theta / 2.0).sin());
    Matrix2([[c, -s], [s, c]])
}

/// Rotation about the Z axis: `Rz(θ) = diag(e^{−iθ/2}, e^{+iθ/2})`.
#[must_use]
pub fn rz(theta: f64) -> Matrix2 {
    Matrix2([
        [Complex::cis(-theta / 2.0), Complex::ZERO],
        [Complex::ZERO, Complex::cis(theta / 2.0)],
    ])
}

/// Phase rotation `P(θ) = diag(1, e^{iθ})` — the QFT's controlled-rotation
/// building block (the paper's Scaffold `Rz`).
#[must_use]
pub fn phase(theta: f64) -> Matrix2 {
    Matrix2([
        [Complex::ONE, Complex::ZERO],
        [Complex::ZERO, Complex::cis(theta)],
    ])
}

/// General single-qubit unitary
/// `U3(θ, φ, λ) = [[cos(θ/2), −e^{iλ} sin(θ/2)], [e^{iφ} sin(θ/2), e^{i(φ+λ)} cos(θ/2)]]`.
#[must_use]
pub fn u3(theta: f64, phi: f64, lambda: f64) -> Matrix2 {
    let c = (theta / 2.0).cos();
    let sn = (theta / 2.0).sin();
    Matrix2([
        [Complex::real(c), -Complex::cis(lambda) * sn],
        [Complex::cis(phi) * sn, Complex::cis(phi + lambda) * c],
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn all_named_gates_are_unitary() {
        for (name, g) in [
            ("h", h()),
            ("x", x()),
            ("y", y()),
            ("z", z()),
            ("s", s()),
            ("sdg", sdg()),
            ("t", t()),
            ("tdg", tdg()),
            ("rx", rx(0.7)),
            ("ry", ry(1.3)),
            ("rz", rz(2.1)),
            ("phase", phase(0.4)),
            ("u3", u3(0.3, 1.1, 2.2)),
        ] {
            assert!(g.is_unitary(1e-12), "{name} is not unitary");
        }
    }

    #[test]
    fn involutions_square_to_identity() {
        for (name, g) in [("h", h()), ("x", x()), ("y", y()), ("z", z())] {
            assert!(
                g.mul(&g).approx_eq(&Matrix2::identity(), 1e-12),
                "{name}² ≠ I"
            );
        }
    }

    #[test]
    fn s_squared_is_z_and_t_squared_is_s() {
        assert!(s().mul(&s()).approx_eq(&z(), 1e-12));
        assert!(t().mul(&t()).approx_eq(&s(), 1e-12));
    }

    #[test]
    fn hxh_equals_z() {
        assert!(h().mul(&x()).mul(&h()).approx_eq(&z(), 1e-12));
    }

    #[test]
    fn dagger_inverts() {
        let g = u3(0.9, 0.4, 1.8);
        assert!(g.mul(&g.dagger()).approx_eq(&Matrix2::identity(), 1e-12));
        assert!(g.dagger().mul(&g).approx_eq(&Matrix2::identity(), 1e-12));
    }

    #[test]
    fn rz_vs_phase_differ_by_global_phase() {
        let theta = 1.234;
        assert!(!rz(theta).approx_eq(&phase(theta), 1e-12));
        assert!(rz(theta).approx_eq_up_to_phase(&phase(theta), 1e-12));
    }

    #[test]
    fn rotation_composition_adds_angles() {
        let a = 0.6;
        let b = 1.1;
        assert!(rx(a).mul(&rx(b)).approx_eq(&rx(a + b), 1e-12));
        assert!(ry(a).mul(&ry(b)).approx_eq(&ry(a + b), 1e-12));
        assert!(rz(a).mul(&rz(b)).approx_eq(&rz(a + b), 1e-12));
    }

    #[test]
    fn full_turn_rotations_are_identity_up_to_phase() {
        assert!(rx(2.0 * PI).approx_eq_up_to_phase(&Matrix2::identity(), 1e-12));
        assert!(rz(2.0 * PI).approx_eq_up_to_phase(&Matrix2::identity(), 1e-12));
        assert!(phase(2.0 * PI).approx_eq(&Matrix2::identity(), 1e-12));
    }

    #[test]
    fn u3_special_cases() {
        assert!(u3(PI, 0.0, PI).approx_eq(&x(), 1e-12));
        assert!(u3(PI / 2.0, 0.0, PI).approx_eq(&h(), 1e-12));
        assert!(u3(0.0, 0.0, 0.7).approx_eq(&phase(0.7), 1e-12));
    }

    #[test]
    fn approx_eq_up_to_phase_rejects_different_gates() {
        assert!(!x().approx_eq_up_to_phase(&z(), 1e-12));
        assert!(!h().approx_eq_up_to_phase(&x(), 1e-12));
    }

    #[test]
    fn display_shows_entries() {
        let disp = x().to_string();
        assert!(disp.contains('1'));
    }
}
