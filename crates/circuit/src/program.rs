//! Assertion-annotated quantum programs.
//!
//! A [`Program`] is a [`Circuit`] plus named registers and *breakpoints* —
//! the `assert_classical` / `assert_superposition` / `assert_entangled` /
//! `assert_product` statements of the paper's extended Scaffold. The
//! breakpoints carry no gate semantics; the assertion engine in `qdb-core`
//! compiles the program into one prefix circuit per breakpoint (mirroring
//! ScaffCC's emission of one OpenQASM file per assertion) and checks each
//! statistically.

use crate::circuit::{Circuit, GateSink};
use crate::instruction::Instruction;
use crate::register::QReg;
use std::fmt;

/// What a breakpoint asserts about the state at its program point.
#[derive(Debug, Clone, PartialEq)]
pub enum BreakpointKind {
    /// The register holds the classical integer `expected`.
    Classical {
        /// Register under test.
        register: QReg,
        /// Expected integer value.
        expected: u64,
    },
    /// The register is in a uniform superposition over all its values.
    Superposition {
        /// Register under test.
        register: QReg,
    },
    /// The two registers are entangled (measurements correlate).
    Entangled {
        /// First register.
        a: QReg,
        /// Second register.
        b: QReg,
    },
    /// The two registers are in a product state (measurements
    /// independent).
    Product {
        /// First register.
        a: QReg,
        /// Second register.
        b: QReg,
    },
}

impl fmt::Display for BreakpointKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BreakpointKind::Classical { register, expected } => {
                write!(f, "assert_classical({register}, {expected})")
            }
            BreakpointKind::Superposition { register } => {
                write!(f, "assert_superposition({register})")
            }
            BreakpointKind::Entangled { a, b } => write!(f, "assert_entangled({a}, {b})"),
            BreakpointKind::Product { a, b } => write!(f, "assert_product({a}, {b})"),
        }
    }
}

/// A breakpoint: an assertion pinned to a position in the instruction
/// stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Breakpoint {
    /// Instruction index the assertion applies *before* executing.
    /// Equivalently: the prefix of this length runs, then measurement.
    pub position: usize,
    /// Optional human label for reports.
    pub label: String,
    /// The asserted state class.
    pub kind: BreakpointKind,
}

/// An assertion-annotated quantum program.
///
/// ```
/// use qdb_circuit::{GateSink, Program};
///
/// // Listing 1 shape: prepare 5, assert classical, QFT…, assert superposition.
/// let mut p = Program::new();
/// let reg = p.alloc_register("reg", 4);
/// p.prep_int(&reg, 5);
/// p.assert_classical(&reg, 5);
/// for i in 0..4 {
///     p.h(reg.bit(i)); // stand-in for the real QFT
/// }
/// p.assert_superposition(&reg);
/// assert_eq!(p.breakpoints().len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    circuit: Circuit,
    registers: Vec<QReg>,
    breakpoints: Vec<Breakpoint>,
    next_free_qubit: usize,
}

impl Program {
    /// An empty program with no qubits allocated yet.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate a fresh register of `width` qubits after all existing
    /// allocations.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn alloc_register(&mut self, name: impl Into<String>, width: usize) -> QReg {
        assert!(width > 0, "register width must be positive");
        let reg = QReg::contiguous(name, self.next_free_qubit, width);
        self.next_free_qubit += width;
        self.circuit.grow_to(self.next_free_qubit);
        self.registers.push(reg.clone());
        reg
    }

    /// All registers allocated so far.
    #[must_use]
    pub fn registers(&self) -> &[QReg] {
        &self.registers
    }

    /// Find a register by name.
    #[must_use]
    pub fn register(&self, name: &str) -> Option<&QReg> {
        self.registers.iter().find(|r| r.name() == name)
    }

    /// The underlying gate sequence (breakpoints excluded).
    #[must_use]
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// The breakpoints in program order.
    #[must_use]
    pub fn breakpoints(&self) -> &[Breakpoint] {
        &self.breakpoints
    }

    /// Initialize one qubit to `|bit⟩` — the paper's `PrepZ`. Valid only
    /// at the start of a program (it assumes the qubit is still `|0⟩`).
    pub fn prep_z(&mut self, qubit: usize, bit: u8) {
        if bit != 0 {
            self.x(qubit);
        }
    }

    /// Initialize a register to the classical integer `value`, bit by bit
    /// (the Scaffold loop `PrepZ(reg[i], (value >> i) & 1)`).
    ///
    /// # Panics
    ///
    /// Panics if `value` does not fit in the register.
    pub fn prep_int(&mut self, reg: &QReg, value: u64) {
        assert!(
            value < reg.domain_size(),
            "value {value} does not fit in {reg}"
        );
        for i in 0..reg.width() {
            self.prep_z(reg.bit(i), ((value >> i) & 1) as u8);
        }
    }

    fn push_breakpoint(&mut self, label: String, kind: BreakpointKind) {
        self.breakpoints.push(Breakpoint {
            position: self.circuit.len(),
            label,
            kind,
        });
    }

    /// Assert the register currently holds the classical value
    /// `expected` (`assert_classical` in the paper).
    pub fn assert_classical(&mut self, reg: &QReg, expected: u64) {
        self.push_breakpoint(
            format!("classical {reg} == {expected}"),
            BreakpointKind::Classical {
                register: reg.clone(),
                expected,
            },
        );
    }

    /// Assert the register is in a uniform superposition
    /// (`assert_superposition`).
    pub fn assert_superposition(&mut self, reg: &QReg) {
        self.push_breakpoint(
            format!("superposition {reg}"),
            BreakpointKind::Superposition {
                register: reg.clone(),
            },
        );
    }

    /// Assert the two registers are entangled (`assert_entangled`).
    ///
    /// # Panics
    ///
    /// Panics if the registers overlap.
    pub fn assert_entangled(&mut self, a: &QReg, b: &QReg) {
        assert!(a.disjoint_from(b), "entangled registers must be disjoint");
        self.push_breakpoint(
            format!("entangled {a} ~ {b}"),
            BreakpointKind::Entangled {
                a: a.clone(),
                b: b.clone(),
            },
        );
    }

    /// Assert the two registers are unentangled (`assert_product`).
    ///
    /// # Panics
    ///
    /// Panics if the registers overlap.
    pub fn assert_product(&mut self, a: &QReg, b: &QReg) {
        assert!(a.disjoint_from(b), "product registers must be disjoint");
        self.push_breakpoint(
            format!("product {a} ⊥ {b}"),
            BreakpointKind::Product {
                a: a.clone(),
                b: b.clone(),
            },
        );
    }

    /// The prefix circuit for breakpoint `index` — the program up to (but
    /// not including) the assertion, ready for early measurement. This is
    /// the per-breakpoint program version ScaffCC emits.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn prefix_for(&self, index: usize) -> Circuit {
        self.circuit.prefix(self.breakpoints[index].position)
    }

    /// Lower the program's circuit into a reusable
    /// [`CompiledCircuit`](crate::CompiledCircuit). Compiled ops are
    /// 1:1 with instructions, so a breakpoint sweep can replay the
    /// window between two breakpoints' positions with
    /// [`CompiledCircuit::apply_range`](crate::CompiledCircuit::apply_range).
    #[must_use]
    pub fn compile(&self, opt: crate::OptLevel) -> crate::CompiledCircuit {
        crate::CompiledCircuit::compile(&self.circuit, opt)
    }

    /// Total number of qubits allocated.
    #[must_use]
    pub fn num_qubits(&self) -> usize {
        self.next_free_qubit
    }

    /// A stable 64-bit content fingerprint of this program: the
    /// [`Circuit::fingerprint`] of its gate stream folded together with
    /// every breakpoint (position, label, assertion kind, register
    /// bindings, expected values), order-sensitively and in a separate
    /// hash domain — a program never fingerprints equal to its bare
    /// circuit. [`crate::PlanCache`] keys plans by it. Stable across
    /// builds and processes; any content change changes the
    /// fingerprint.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        crate::fingerprint::program_fingerprint(self)
    }
}

impl GateSink for Program {
    fn num_qubits(&self) -> usize {
        self.circuit.num_qubits()
    }

    fn push(&mut self, inst: Instruction) {
        self.circuit.push(inst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_registers_are_disjoint_and_sequential() {
        let mut p = Program::new();
        let a = p.alloc_register("a", 3);
        let b = p.alloc_register("b", 2);
        assert_eq!(a.qubits(), &[0, 1, 2]);
        assert_eq!(b.qubits(), &[3, 4]);
        assert!(a.disjoint_from(&b));
        assert_eq!(p.num_qubits(), 5);
        assert_eq!(p.register("a"), Some(&a));
        assert_eq!(p.register("nope"), None);
    }

    #[test]
    fn prep_int_sets_bits() {
        let mut p = Program::new();
        let r = p.alloc_register("r", 4);
        p.prep_int(&r, 0b0101);
        // Two X gates: bits 0 and 2.
        assert_eq!(p.circuit().len(), 2);
        let s = p.circuit().run_on_basis(0).unwrap();
        assert!((s.probability(0b0101) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn prep_int_overflow_panics() {
        let mut p = Program::new();
        let r = p.alloc_register("r", 2);
        p.prep_int(&r, 4);
    }

    #[test]
    fn breakpoints_record_positions() {
        let mut p = Program::new();
        let r = p.alloc_register("r", 2);
        p.prep_int(&r, 3); // 2 instructions
        p.assert_classical(&r, 3);
        p.h(r.bit(0));
        p.h(r.bit(1));
        p.assert_superposition(&r);
        let bps = p.breakpoints();
        assert_eq!(bps.len(), 2);
        assert_eq!(bps[0].position, 2);
        assert_eq!(bps[1].position, 4);
        assert_eq!(p.prefix_for(0).len(), 2);
        assert_eq!(p.prefix_for(1).len(), 4);
    }

    #[test]
    fn entangled_assertion_requires_disjoint_registers() {
        let mut p = Program::new();
        let a = p.alloc_register("a", 2);
        let b = p.alloc_register("b", 2);
        p.assert_entangled(&a, &b); // fine
        p.assert_product(&a, &b); // fine
        assert_eq!(p.breakpoints().len(), 2);
    }

    #[test]
    #[should_panic(expected = "disjoint")]
    fn overlapping_registers_rejected() {
        let mut p = Program::new();
        let a = p.alloc_register("a", 2);
        let alias = QReg::new("alias", vec![a.bit(0)]);
        p.assert_entangled(&a, &alias);
    }

    #[test]
    fn breakpoint_kind_display() {
        let r = QReg::contiguous("r", 0, 3);
        let k = BreakpointKind::Classical {
            register: r.clone(),
            expected: 5,
        };
        assert_eq!(k.to_string(), "assert_classical(r[3], 5)");
        let k = BreakpointKind::Entangled {
            a: r.clone(),
            b: QReg::contiguous("s", 3, 1),
        };
        assert!(k.to_string().contains("assert_entangled"));
    }

    #[test]
    fn gate_sink_delegates_to_circuit() {
        let mut p = Program::new();
        let r = p.alloc_register("r", 2);
        p.h(r.bit(0));
        p.cx(r.bit(0), r.bit(1));
        assert_eq!(p.circuit().len(), 2);
    }
}
