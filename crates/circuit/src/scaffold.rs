//! A Scaffold-like text front-end.
//!
//! The paper writes its benchmarks in Scaffold (C-flavoured syntax) and
//! extends the language with `assert_classical` / `assert_superposition`
//! / `assert_entangled` / `assert_product` statements. This module
//! parses a flat subset of that surface syntax directly into an
//! assertion-annotated [`Program`], so the paper's listings can be
//! transcribed almost verbatim:
//!
//! ```text
//! qbit reg[4];
//! PrepZ(reg[0], 1);
//! PrepZ(reg[1], 0);
//! PrepZ(reg[2], 1);
//! PrepZ(reg[3], 0);
//! assert_classical(reg, 4, 5);
//! H(reg[0]);
//! CNOT(reg[0], reg[1]);
//! Rz(reg[1], pi/4);
//! assert_superposition(reg, 4);
//! ```
//!
//! Supported statements: register declarations (`qbit name[w];` or
//! `qreg name[w];`), `PrepZ`, `PrepInt` (an extension initializing a
//! whole register), the single-qubit gates `H X Y Z S Sdg T Tdg Rx Ry
//! Rz`, the controlled forms `CNOT/CX`, `Toffoli/CCNOT`, `cRz`, `ccRz`,
//! `cZ`, `Swap`, `cSwap/Fredkin`, `MeasZ` (accepted and ignored — QDB's
//! breakpoints measure), and the four assertion statements with either
//! the paper's `(reg, width, …)` signatures or the width-free forms.
//!
//! Semantics note: Scaffold's `Rz(q, θ)` in the paper's arithmetic
//! listings is the QFT phase rotation, so it maps to
//! [`GateKind::Phase`]; the spelled-out `RzTheta` maps to the
//! Nielsen–Chuang `Rz` if the distinction is needed.

use crate::circuit::{repeats_a_qubit, GateSink};
use crate::instruction::{GateKind, Instruction};
use crate::program::Program;
use crate::qasm::{delimited, eval_expr, widen};
use crate::register::QReg;
use crate::CircuitError;

/// One parsed argument of a Scaffold statement.
#[derive(Debug, Clone, PartialEq)]
enum Arg {
    /// A whole register by name.
    Reg(String),
    /// One qubit of a register.
    Qubit(String, usize),
    /// A numeric literal/expression.
    Num(f64),
}

/// Parse a Scaffold-like program (see the module docs for the accepted
/// subset).
///
/// # Errors
///
/// [`CircuitError::Parse`] with a line number on malformed input;
/// [`CircuitError::BadRegister`] for undeclared registers or bad
/// indices.
pub fn parse_scaffold(text: &str) -> Result<Program, CircuitError> {
    let mut program = Program::new();
    for (line_no, raw_line) in text.lines().enumerate() {
        let line_no = line_no + 1;
        let line = match raw_line.find("//") {
            Some(pos) => &raw_line[..pos],
            None => raw_line,
        };
        for stmt in line.split(';') {
            let stmt = stmt.trim();
            if stmt.is_empty() {
                continue;
            }
            parse_statement(stmt, line_no, &mut program)?;
        }
    }
    Ok(program)
}

fn err(line: usize, msg: impl Into<String>) -> CircuitError {
    CircuitError::Parse {
        line,
        msg: msg.into(),
    }
}

fn parse_statement(stmt: &str, line: usize, program: &mut Program) -> Result<(), CircuitError> {
    // Register declaration: `qbit name[w]` / `qreg name[w]`.
    for keyword in ["qbit ", "qreg "] {
        if let Some(rest) = stmt.strip_prefix(keyword) {
            let (name, width) = delimited(rest.trim(), '[', ']')
                .map_err(|m| err(line, m))?
                .ok_or_else(|| err(line, format!("expected `name[width]` in `{stmt}`")))?;
            let name = name.trim();
            if name.is_empty() || !name.chars().all(|c| c.is_alphanumeric() || c == '_') {
                return Err(err(line, format!("bad register name in `{stmt}`")));
            }
            let width: usize = width
                .trim()
                .parse()
                .map_err(|_| err(line, format!("bad width in `{stmt}`")))?;
            if width == 0 {
                return Err(err(line, "zero-width register"));
            }
            if program.register(name).is_some() {
                return Err(CircuitError::BadRegister(format!(
                    "register `{name}` declared twice"
                )));
            }
            widen(program.num_qubits(), name, width)?;
            program.alloc_register(name, width);
            return Ok(());
        }
    }

    // Call-shaped statement: `Name(args)`.
    let (name, args) = delimited(stmt, '(', ')')
        .map_err(|m| err(line, m))?
        .ok_or_else(|| err(line, format!("unrecognized statement `{stmt}`")))?;
    let args = parse_args(args, line)?;
    dispatch(name.trim(), &args, line, program)
}

fn parse_args(text: &str, line: usize) -> Result<Vec<Arg>, CircuitError> {
    let text = text.trim();
    if text.is_empty() {
        return Ok(Vec::new());
    }
    text.split(',')
        .map(|raw| {
            let raw = raw.trim();
            if let Some((name, idx)) = delimited(raw, '[', ']').map_err(|m| err(line, m))? {
                let idx: usize = idx
                    .trim()
                    .parse()
                    .map_err(|_| err(line, format!("bad qubit index in `{raw}`")))?;
                return Ok(Arg::Qubit(name.trim().to_string(), idx));
            }
            let is_identifier = raw
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
                && raw.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
            if is_identifier && raw != "pi" {
                return Ok(Arg::Reg(raw.to_string()));
            }
            eval_expr(raw)
                .map(Arg::Num)
                .map_err(|m| err(line, format!("bad numeric argument `{raw}`: {m}")))
        })
        .collect()
}

/// Resolve a qubit argument to a flat index.
fn qubit(arg: &Arg, program: &Program, line: usize) -> Result<usize, CircuitError> {
    match arg {
        Arg::Qubit(name, idx) => {
            let reg = program.register(name).ok_or_else(|| {
                CircuitError::BadRegister(format!("undeclared register `{name}`"))
            })?;
            if *idx >= reg.width() {
                return Err(CircuitError::BadRegister(format!(
                    "index {idx} out of range for {reg}"
                )));
            }
            Ok(reg.bit(*idx))
        }
        Arg::Reg(name) => {
            let reg = program.register(name).ok_or_else(|| {
                CircuitError::BadRegister(format!("undeclared register `{name}`"))
            })?;
            if reg.width() != 1 {
                return Err(err(
                    line,
                    format!("`{name}` is a register; expected a single qubit like `{name}[0]`"),
                ));
            }
            Ok(reg.bit(0))
        }
        Arg::Num(_) => Err(err(line, "expected a qubit, found a number")),
    }
}

/// Resolve the first `N` arguments of gate `name` as qubits, rejecting
/// a gate that names one qubit twice.
fn qubits<const N: usize>(
    name: &str,
    args: &[Arg],
    program: &Program,
    line: usize,
) -> Result<[usize; N], CircuitError> {
    let mut out = [0; N];
    for (slot, arg) in out.iter_mut().zip(args) {
        *slot = qubit(arg, program, line)?;
    }
    if repeats_a_qubit(&out) {
        return Err(err(line, format!("`{name}` names the same qubit twice")));
    }
    Ok(out)
}

/// Resolve a register argument, optionally validating a width argument
/// that follows it (the paper's `(reg, width, …)` signatures).
fn register(arg: &Arg, program: &Program, line: usize) -> Result<QReg, CircuitError> {
    match arg {
        Arg::Reg(name) | Arg::Qubit(name, _) => {
            if matches!(arg, Arg::Qubit(..)) {
                return Err(err(
                    line,
                    "expected a whole register, found an indexed qubit",
                ));
            }
            program
                .register(name)
                .cloned()
                .ok_or_else(|| CircuitError::BadRegister(format!("undeclared register `{name}`")))
        }
        Arg::Num(_) => Err(err(line, "expected a register, found a number")),
    }
}

fn number(arg: &Arg, line: usize) -> Result<f64, CircuitError> {
    match arg {
        Arg::Num(x) => Ok(*x),
        _ => Err(err(line, "expected a number")),
    }
}

fn integer(arg: &Arg, line: usize) -> Result<u64, CircuitError> {
    let x = number(arg, line)?;
    if x < 0.0 || x.fract() != 0.0 {
        return Err(err(
            line,
            format!("expected a non-negative integer, got {x}"),
        ));
    }
    Ok(x as u64)
}

/// Check the optional `(reg, width, …)` width argument against the
/// declared register.
fn check_width(reg: &QReg, width: u64, line: usize) -> Result<(), CircuitError> {
    if reg.width() as u64 != width {
        return Err(err(
            line,
            format!("width {width} does not match declared {reg}"),
        ));
    }
    Ok(())
}

#[allow(clippy::too_many_lines)]
fn dispatch(
    name: &str,
    args: &[Arg],
    line: usize,
    program: &mut Program,
) -> Result<(), CircuitError> {
    let arity = |want: usize| -> Result<(), CircuitError> {
        if args.len() != want {
            return Err(err(
                line,
                format!("`{name}` expects {want} argument(s), got {}", args.len()),
            ));
        }
        Ok(())
    };

    match name {
        "PrepZ" => {
            arity(2)?;
            let q = qubit(&args[0], program, line)?;
            let bit = integer(&args[1], line)?;
            if bit > 1 {
                return Err(err(line, "PrepZ bit must be 0 or 1"));
            }
            program.prep_z(q, bit as u8);
        }
        "PrepInt" => {
            arity(2)?;
            let reg = register(&args[0], program, line)?;
            let value = integer(&args[1], line)?;
            if reg.width() >= 64 {
                return Err(err(
                    line,
                    format!("PrepInt takes at most 63 qubits, not {reg}"),
                ));
            }
            if value >= reg.domain_size() {
                return Err(err(line, format!("value {value} does not fit {reg}")));
            }
            program.prep_int(&reg, value);
        }
        "H" | "X" | "Y" | "Z" | "S" | "Sdg" | "T" | "Tdg" => {
            arity(1)?;
            let q = qubit(&args[0], program, line)?;
            let kind = match name {
                "H" => GateKind::H,
                "X" => GateKind::X,
                "Y" => GateKind::Y,
                "Z" => GateKind::Z,
                "S" => GateKind::S,
                "Sdg" => GateKind::Sdg,
                "T" => GateKind::T,
                _ => GateKind::Tdg,
            };
            program.push(Instruction::gate(kind, q));
        }
        "Rx" | "Ry" | "Rz" | "RzTheta" => {
            arity(2)?;
            let q = qubit(&args[0], program, line)?;
            let theta = number(&args[1], line)?;
            let kind = match name {
                "Rx" => GateKind::Rx(theta),
                "Ry" => GateKind::Ry(theta),
                // Scaffold's Rz in the paper's arithmetic = phase rotation.
                "Rz" => GateKind::Phase(theta),
                _ => GateKind::Rz(theta),
            };
            program.push(Instruction::gate(kind, q));
        }
        "CNOT" | "CX" => {
            arity(2)?;
            let [c, t] = qubits(name, args, program, line)?;
            program.cx(c, t);
        }
        "cZ" | "CZ" => {
            arity(2)?;
            let [c, t] = qubits(name, args, program, line)?;
            program.cz(c, t);
        }
        "Toffoli" | "CCNOT" => {
            arity(3)?;
            let [c0, c1, t] = qubits(name, args, program, line)?;
            program.ccx(c0, c1, t);
        }
        "cRz" => {
            arity(3)?;
            let [c, t] = qubits(name, args, program, line)?;
            let theta = number(&args[2], line)?;
            program.cphase(c, t, theta);
        }
        "ccRz" => {
            arity(4)?;
            let [c0, c1, t] = qubits(name, args, program, line)?;
            let theta = number(&args[3], line)?;
            program.ccphase(c0, c1, t, theta);
        }
        "Swap" | "SWAP" => {
            arity(2)?;
            let [a, b] = qubits(name, args, program, line)?;
            program.swap(a, b);
        }
        "cSwap" | "Fredkin" => {
            arity(3)?;
            let [c, a, b] = qubits(name, args, program, line)?;
            program.cswap(c, a, b);
        }
        "MeasZ" => {
            arity(1)?;
            let _ = qubit(&args[0], program, line)?;
        }
        "assert_classical" => {
            // (reg, value) or the paper's (reg, width, value).
            let (reg, value) = match args.len() {
                2 => (register(&args[0], program, line)?, integer(&args[1], line)?),
                3 => {
                    let reg = register(&args[0], program, line)?;
                    check_width(&reg, integer(&args[1], line)?, line)?;
                    (reg, integer(&args[2], line)?)
                }
                n => {
                    return Err(err(
                        line,
                        format!("assert_classical takes 2 or 3 args, got {n}"),
                    ))
                }
            };
            program.assert_classical(&reg, value);
        }
        "assert_superposition" => {
            let reg = match args.len() {
                1 => register(&args[0], program, line)?,
                2 => {
                    let reg = register(&args[0], program, line)?;
                    check_width(&reg, integer(&args[1], line)?, line)?;
                    reg
                }
                n => {
                    return Err(err(
                        line,
                        format!("assert_superposition takes 1 or 2 args, got {n}"),
                    ))
                }
            };
            program.assert_superposition(&reg);
        }
        "assert_entangled" | "assert_product" => {
            // (a, b) or the paper's (a, wa, b, wb).
            let (a, b) = match args.len() {
                2 => (
                    register(&args[0], program, line)?,
                    register(&args[1], program, line)?,
                ),
                4 => {
                    let a = register(&args[0], program, line)?;
                    check_width(&a, integer(&args[1], line)?, line)?;
                    let b = register(&args[2], program, line)?;
                    check_width(&b, integer(&args[3], line)?, line)?;
                    (a, b)
                }
                n => return Err(err(line, format!("`{name}` takes 2 or 4 args, got {n}"))),
            };
            if repeats_a_qubit(&[a.qubits(), b.qubits()].concat()) {
                return Err(err(line, format!("`{name}` registers {a} and {b} overlap")));
            }
            if name == "assert_entangled" {
                program.assert_entangled(&a, &b);
            } else {
                program.assert_product(&a, &b);
            }
        }
        other => return Err(err(line, format!("unknown statement `{other}`"))),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::BreakpointKind;

    #[test]
    fn listing1_transcription_parses() {
        // The paper's Listing 1, transcribed (QFT body elided to H's for
        // the parser test).
        let src = r"
            // Test harness for quantum Fourier transform
            qbit reg[4];
            PrepZ(reg[0], 1); PrepZ(reg[1], 0);
            PrepZ(reg[2], 1); PrepZ(reg[3], 0);
            assert_classical(reg, 4, 5);
            H(reg[0]); H(reg[1]); H(reg[2]); H(reg[3]);
            assert_superposition(reg, 4);
        ";
        let p = parse_scaffold(src).unwrap();
        assert_eq!(p.num_qubits(), 4);
        assert_eq!(p.breakpoints().len(), 2);
        assert!(matches!(
            &p.breakpoints()[0].kind,
            BreakpointKind::Classical { expected: 5, .. }
        ));
        // The prefix up to the first assertion prepares |0101⟩ = 5.
        let s = p.prefix_for(0).run_on_basis(0).unwrap();
        assert!((s.probability(5) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn gates_and_rotations_parse() {
        let src = r"
            qbit q[3];
            H(q[0]); X(q[1]); T(q[2]); Sdg(q[0]);
            Rz(q[1], pi/4);
            Rx(q[2], -pi/2);
            cRz(q[0], q[1], pi/8);
            ccRz(q[0], q[1], q[2], 0.3);
            CNOT(q[0], q[2]);
            Toffoli(q[0], q[1], q[2]);
            Swap(q[0], q[1]);
            cSwap(q[2], q[0], q[1]);
            MeasZ(q[0]);
        ";
        let p = parse_scaffold(src).unwrap();
        assert_eq!(p.circuit().len(), 12); // MeasZ contributes nothing
                                           // Scaffold Rz maps to phase rotation.
        assert!(matches!(
            p.circuit().instructions()[4],
            Instruction::Gate {
                kind: GateKind::Phase(_),
                ..
            }
        ));
    }

    #[test]
    fn entangled_and_product_assertions_parse() {
        let src = r"
            qbit ctrl[1];
            qbit b[5];
            PrepZ(ctrl[0], 1);
            H(ctrl[0]);
            PrepInt(b, 7);
            assert_entangled(ctrl, 1, b, 5);
            assert_product(ctrl, b);
        ";
        let p = parse_scaffold(src).unwrap();
        assert_eq!(p.breakpoints().len(), 2);
        assert!(matches!(
            &p.breakpoints()[0].kind,
            BreakpointKind::Entangled { .. }
        ));
        assert!(matches!(
            &p.breakpoints()[1].kind,
            BreakpointKind::Product { .. }
        ));
    }

    #[test]
    fn width_mismatch_is_an_error() {
        let src = "qbit reg[4];\nassert_classical(reg, 3, 5);\n";
        assert!(matches!(
            parse_scaffold(src),
            Err(CircuitError::Parse { line: 2, .. })
        ));
    }

    #[test]
    fn undeclared_register_is_an_error() {
        assert!(matches!(
            parse_scaffold("H(q[0]);"),
            Err(CircuitError::BadRegister(_))
        ));
        assert!(matches!(
            parse_scaffold("qbit q[1];\nassert_superposition(r);"),
            Err(CircuitError::BadRegister(_))
        ));
    }

    #[test]
    fn duplicate_declaration_is_an_error() {
        assert!(matches!(
            parse_scaffold("qbit q[1];\nqreg q[2];"),
            Err(CircuitError::BadRegister(_))
        ));
    }

    #[test]
    fn arity_and_argument_type_errors() {
        let cases = [
            "qbit q[2];\nCNOT(q[0]);",
            "qbit q[2];\nH(q);",                // register where qubit expected
            "qbit q[2];\nPrepZ(q[0], 2);",      // bit must be 0/1
            "qbit q[2];\nPrepInt(q, 4);",       // 4 doesn't fit 2 qubits
            "qbit q[2];\nfrobnicate(q[0]);",    // unknown statement
            "qbit q[2];\nRz(q[0], banana);",    // bad number
            "qbit q[2];\nassert_classical(q);", // bad arity
        ];
        for src in cases {
            assert!(parse_scaffold(src).is_err(), "accepted: {src}");
        }
    }

    #[test]
    fn single_qubit_register_usable_without_index() {
        let src = "qbit c[1];\nqbit t[1];\nH(c);\nCNOT(c, t);\n";
        let p = parse_scaffold(src).unwrap();
        assert_eq!(p.circuit().len(), 2);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let src = "\n// header\nqbit q[1]; // decl\n\nX(q[0]); // flip\n";
        let p = parse_scaffold(src).unwrap();
        assert_eq!(p.circuit().len(), 1);
    }

    /// Out-of-order delimiters, a gate naming one qubit twice,
    /// overlapping assertion registers, oversized registers and a
    /// non-finite angle: each must be a typed error, not a panic or an
    /// abort.
    const MALFORMED: [&str; 10] = [
        ")H(;",
        "qbit r[1];\nH(r]0[);",
        "qbit r[2];\nCNOT(r[0], r[0]);",
        "qbit r[2];\nSwap(r[1], r[1]);",
        "qbit r[2];\nassert_entangled(r, 2, r, 2);",
        "qbit r[2];\nassert_product(r, 2, r, 2);",
        "qbit r[100000000000];",
        "qbit a[4096];\nqbit b[18446744073709551615];",
        "qbit r[64];\nPrepInt(r, 1);",
        "qbit r[1];\nRz(r[0], 1/0);",
    ];

    #[test]
    fn malformed_sources_are_typed_errors() {
        for src in MALFORMED {
            assert!(
                matches!(
                    parse_scaffold(src),
                    Err(CircuitError::Parse { .. } | CircuitError::BadRegister(_))
                ),
                "{src:?}"
            );
        }
        assert!(parse_scaffold("qbit r[1];\nRx(r[0], 1e999);").is_err());
    }
}
