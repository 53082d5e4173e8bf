//! OpenQASM 2.0 emission and parsing.
//!
//! The paper's toolchain compiles Scaffold to OpenQASM and hands that to
//! the QX simulator. QDB mirrors the boundary: circuits export to an
//! OpenQASM 2.0 subset (with a few custom gate definitions for
//! multi-controlled rotations, each defined in terms of `qelib1`
//! primitives so third-party tools can consume the files), and the parser
//! reads the same subset back.
//!
//! Round-trip caveat: controlled S/T gates are emitted as the
//! semantically identical `cu1(±π/2)` / `cu1(±π/4)`, so a parse of an
//! export may differ *structurally* while remaining unitarily identical.

use crate::circuit::{repeats_a_qubit, Circuit, GateSink};
use crate::instruction::{GateKind, Instruction};
use crate::register::QReg;
use crate::CircuitError;
use std::fmt::Write as _;

/// Custom gate definitions included in every emitted file, expressed in
/// terms of `qelib1.inc` primitives.
const PRELUDE: &str = "\
gate swap a,b { cx a,b; cx b,a; cx a,b; }
gate cswap c,a,b { cx b,a; ccx c,a,b; cx b,a; }
gate ccz a,b,c { h c; ccx a,b,c; h c; }
gate ccu1(theta) a,b,c { cu1(theta/2) b,c; cx a,b; cu1(-theta/2) b,c; cx a,b; cu1(theta/2) a,c; }
gate ccrz(theta) a,b,c { crz(theta/2) b,c; cx a,b; crz(-theta/2) b,c; cx a,b; crz(theta/2) a,c; }
gate crx(theta) a,b { h b; crz(theta) a,b; h b; }
gate cry(theta) a,b { ry(theta/2) b; cx a,b; ry(-theta/2) b; cx a,b; }
";

/// Serialize a circuit to OpenQASM 2.0 with a single register `q`.
///
/// # Errors
///
/// [`CircuitError::UnsupportedExport`] for instructions outside the
/// emitted subset (three or more controls, or doubly-controlled
/// X/Z/Rz/Phase-incompatible gates).
pub fn to_qasm(circuit: &Circuit) -> Result<String, CircuitError> {
    let mut out = String::new();
    out.push_str("OPENQASM 2.0;\ninclude \"qelib1.inc\";\n");
    out.push_str(PRELUDE);
    let _ = writeln!(out, "qreg q[{}];", circuit.num_qubits());
    for inst in circuit.instructions() {
        emit_instruction(&mut out, inst)?;
    }
    Ok(out)
}

fn q(i: usize) -> String {
    format!("q[{i}]")
}

fn emit_instruction(out: &mut String, inst: &Instruction) -> Result<(), CircuitError> {
    match inst {
        Instruction::Swap { controls, a, b } => match controls.len() {
            0 => {
                let _ = writeln!(out, "swap {},{};", q(*a), q(*b));
            }
            1 => {
                let _ = writeln!(out, "cswap {},{},{};", q(controls[0]), q(*a), q(*b));
            }
            n => {
                return Err(CircuitError::UnsupportedExport(format!(
                    "swap with {n} controls"
                )))
            }
        },
        Instruction::Gate {
            controls,
            target,
            kind,
        } => {
            let t = q(*target);
            match controls.len() {
                0 => {
                    let line = match kind {
                        GateKind::Phase(theta) => format!("u1({theta}) {t};"),
                        GateKind::Rx(theta) => format!("rx({theta}) {t};"),
                        GateKind::Ry(theta) => format!("ry({theta}) {t};"),
                        GateKind::Rz(theta) => format!("rz({theta}) {t};"),
                        k => format!("{} {t};", k.mnemonic()),
                    };
                    out.push_str(&line);
                    out.push('\n');
                }
                1 => {
                    let c = q(controls[0]);
                    let line = match kind {
                        GateKind::X => format!("cx {c},{t};"),
                        GateKind::Y => format!("cy {c},{t};"),
                        GateKind::Z => format!("cz {c},{t};"),
                        GateKind::H => format!("ch {c},{t};"),
                        GateKind::S => format!("cu1({}) {c},{t};", std::f64::consts::FRAC_PI_2),
                        GateKind::Sdg => {
                            format!("cu1({}) {c},{t};", -std::f64::consts::FRAC_PI_2)
                        }
                        GateKind::T => format!("cu1({}) {c},{t};", std::f64::consts::FRAC_PI_4),
                        GateKind::Tdg => {
                            format!("cu1({}) {c},{t};", -std::f64::consts::FRAC_PI_4)
                        }
                        GateKind::Rx(theta) => format!("crx({theta}) {c},{t};"),
                        GateKind::Ry(theta) => format!("cry({theta}) {c},{t};"),
                        GateKind::Rz(theta) => format!("crz({theta}) {c},{t};"),
                        GateKind::Phase(theta) => format!("cu1({theta}) {c},{t};"),
                    };
                    out.push_str(&line);
                    out.push('\n');
                }
                2 => {
                    let c0 = q(controls[0]);
                    let c1 = q(controls[1]);
                    let line = match kind {
                        GateKind::X => format!("ccx {c0},{c1},{t};"),
                        GateKind::Z => format!("ccz {c0},{c1},{t};"),
                        GateKind::Rz(theta) => format!("ccrz({theta}) {c0},{c1},{t};"),
                        GateKind::Phase(theta) => format!("ccu1({theta}) {c0},{c1},{t};"),
                        k => {
                            return Err(CircuitError::UnsupportedExport(format!(
                                "doubly-controlled {}",
                                k.mnemonic()
                            )))
                        }
                    };
                    out.push_str(&line);
                    out.push('\n');
                }
                n => {
                    return Err(CircuitError::UnsupportedExport(format!(
                        "{} with {n} controls",
                        kind.mnemonic()
                    )))
                }
            }
        }
    }
    Ok(())
}

/// Result of parsing an OpenQASM file.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedQasm {
    /// The flattened circuit over all declared registers.
    pub circuit: Circuit,
    /// Declared registers, in declaration order, mapped onto the flat
    /// qubit index space.
    pub registers: Vec<QReg>,
}

/// Parse the OpenQASM 2.0 subset emitted by [`to_qasm`] (plus simple
/// hand-written files using the same gate vocabulary).
///
/// `measure`, `barrier`, `reset`, and `creg` statements are accepted and
/// ignored: QDB's breakpoint model measures everything at the end of each
/// prefix program.
///
/// # Errors
///
/// [`CircuitError::Parse`] with a line number on malformed input;
/// [`CircuitError::BadRegister`] for undeclared registers.
pub fn from_qasm(text: &str) -> Result<ParsedQasm, CircuitError> {
    let mut registers: Vec<QReg> = Vec::new();
    let mut total_qubits = 0usize;
    let mut circuit = Circuit::new(0);
    let mut in_gate_def = 0usize; // brace depth inside gate definitions

    for (line_no, raw_line) in text.lines().enumerate() {
        let line_no = line_no + 1;
        let line = match raw_line.find("//") {
            Some(pos) => &raw_line[..pos],
            None => raw_line,
        };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        // Gate definitions: skip entire brace-delimited body.
        if in_gate_def > 0 || line.starts_with("gate ") || line.starts_with("opaque ") {
            in_gate_def += line.matches('{').count();
            in_gate_def = in_gate_def.saturating_sub(line.matches('}').count());
            if line.starts_with("opaque ") {
                in_gate_def = 0;
            }
            continue;
        }
        for stmt in line.split(';') {
            let stmt = stmt.trim();
            if stmt.is_empty() {
                continue;
            }
            parse_statement(
                stmt,
                line_no,
                &mut registers,
                &mut total_qubits,
                &mut circuit,
            )?;
        }
    }
    Ok(ParsedQasm { circuit, registers })
}

fn parse_statement(
    stmt: &str,
    line: usize,
    registers: &mut Vec<QReg>,
    total_qubits: &mut usize,
    circuit: &mut Circuit,
) -> Result<(), CircuitError> {
    let err = |msg: String| CircuitError::Parse { line, msg };

    if stmt.starts_with("OPENQASM") || stmt.starts_with("include") {
        return Ok(());
    }
    if let Some(rest) = stmt.strip_prefix("qreg ") {
        let (name, width) = parse_decl(rest).map_err(err)?;
        if registers.iter().any(|r| r.name() == name) {
            return Err(CircuitError::BadRegister(format!(
                "register `{name}` declared twice"
            )));
        }
        let start = *total_qubits;
        *total_qubits = widen(start, &name, width)?;
        let reg = QReg::contiguous(name, start, width);
        circuit.grow_to(*total_qubits);
        registers.push(reg);
        return Ok(());
    }
    if stmt.starts_with("creg ")
        || stmt.starts_with("measure ")
        || stmt.starts_with("barrier")
        || stmt.starts_with("reset ")
    {
        return Ok(());
    }

    // Gate application: name[(params)] args
    let (head, args_text) = match stmt.find(char::is_whitespace) {
        Some(pos) => (&stmt[..pos], stmt[pos..].trim()),
        None => return Err(err(format!("malformed statement `{stmt}`"))),
    };
    let (name, params) = match delimited(head, '(', ')').map_err(err)? {
        Some((name, params)) => {
            let params: Result<Vec<f64>, String> =
                params.split(',').map(|p| eval_expr(p.trim())).collect();
            (name, params.map_err(err)?)
        }
        None => (head, Vec::new()),
    };

    let qubits: Result<Vec<usize>, CircuitError> = args_text
        .split(',')
        .map(|a| resolve_qubit(a.trim(), registers, line))
        .collect();
    let qubits = qubits?;
    if repeats_a_qubit(&qubits) {
        return Err(err(format!("`{name}` names the same qubit twice")));
    }

    let want = |n: usize, p: usize| -> Result<(), CircuitError> {
        if qubits.len() != n {
            return Err(err(format!(
                "`{name}` expects {n} qubit argument(s), got {}",
                qubits.len()
            )));
        }
        if params.len() != p {
            return Err(err(format!(
                "`{name}` expects {p} parameter(s), got {}",
                params.len()
            )));
        }
        Ok(())
    };

    let inst = match name {
        "id" => {
            want(1, 0)?;
            return Ok(());
        }
        "h" | "x" | "y" | "z" | "s" | "sdg" | "t" | "tdg" => {
            want(1, 0)?;
            let kind = match name {
                "h" => GateKind::H,
                "x" => GateKind::X,
                "y" => GateKind::Y,
                "z" => GateKind::Z,
                "s" => GateKind::S,
                "sdg" => GateKind::Sdg,
                "t" => GateKind::T,
                _ => GateKind::Tdg,
            };
            Instruction::gate(kind, qubits[0])
        }
        "rx" | "ry" | "rz" | "u1" | "p" | "phase" => {
            want(1, 1)?;
            let kind = match name {
                "rx" => GateKind::Rx(params[0]),
                "ry" => GateKind::Ry(params[0]),
                "rz" => GateKind::Rz(params[0]),
                _ => GateKind::Phase(params[0]),
            };
            Instruction::gate(kind, qubits[0])
        }
        "cx" | "CX" | "cy" | "cz" | "ch" => {
            want(2, 0)?;
            let kind = match name {
                "cx" | "CX" => GateKind::X,
                "cy" => GateKind::Y,
                "cz" => GateKind::Z,
                _ => GateKind::H,
            };
            Instruction::controlled_gate(vec![qubits[0]], kind, qubits[1])
        }
        "crx" | "cry" | "crz" | "cu1" | "cp" | "cphase" => {
            want(2, 1)?;
            let kind = match name {
                "crx" => GateKind::Rx(params[0]),
                "cry" => GateKind::Ry(params[0]),
                "crz" => GateKind::Rz(params[0]),
                _ => GateKind::Phase(params[0]),
            };
            Instruction::controlled_gate(vec![qubits[0]], kind, qubits[1])
        }
        "ccx" | "toffoli" => {
            want(3, 0)?;
            Instruction::controlled_gate(vec![qubits[0], qubits[1]], GateKind::X, qubits[2])
        }
        "ccz" => {
            want(3, 0)?;
            Instruction::controlled_gate(vec![qubits[0], qubits[1]], GateKind::Z, qubits[2])
        }
        "ccu1" | "ccphase" => {
            want(3, 1)?;
            Instruction::controlled_gate(
                vec![qubits[0], qubits[1]],
                GateKind::Phase(params[0]),
                qubits[2],
            )
        }
        "ccrz" => {
            want(3, 1)?;
            Instruction::controlled_gate(
                vec![qubits[0], qubits[1]],
                GateKind::Rz(params[0]),
                qubits[2],
            )
        }
        "swap" => {
            want(2, 0)?;
            Instruction::Swap {
                controls: vec![],
                a: qubits[0],
                b: qubits[1],
            }
        }
        "cswap" | "fredkin" => {
            want(3, 0)?;
            Instruction::Swap {
                controls: vec![qubits[0]],
                a: qubits[1],
                b: qubits[2],
            }
        }
        other => return Err(err(format!("unknown gate `{other}`"))),
    };
    circuit.push(inst);
    Ok(())
}

/// Parse `name[width]` in a register declaration.
fn parse_decl(rest: &str) -> Result<(String, usize), String> {
    let rest = rest.trim();
    let (name, width) = delimited(rest, '[', ']')?
        .ok_or_else(|| format!("expected `name[width]`, got `{rest}`"))?;
    let name = name.trim();
    if name.is_empty() {
        return Err(format!("empty register name in `{rest}`"));
    }
    let width: usize = width
        .trim()
        .parse()
        .map_err(|_| format!("bad width in `{rest}`"))?;
    if width == 0 {
        return Err("zero-width register".to_string());
    }
    Ok((name.to_string(), width))
}

/// Resolve `reg[idx]` to a flat qubit index.
fn resolve_qubit(text: &str, registers: &[QReg], line: usize) -> Result<usize, CircuitError> {
    let err = |msg: String| CircuitError::Parse { line, msg };
    let (name, idx) = delimited(text, '[', ']')
        .map_err(err)?
        .ok_or_else(|| err(format!("expected `reg[idx]`, got `{text}`")))?;
    let name = name.trim();
    let idx: usize = idx
        .trim()
        .parse()
        .map_err(|_| err(format!("bad qubit index in `{text}`")))?;
    let reg = registers
        .iter()
        .find(|r| r.name() == name)
        .ok_or_else(|| CircuitError::BadRegister(format!("undeclared register `{name}`")))?;
    if idx >= reg.width() {
        return Err(CircuitError::BadRegister(format!(
            "index {idx} out of range for {reg}"
        )));
    }
    Ok(reg.bit(idx))
}

/// Split `head<open>inner<close>` at the first `open` and the last
/// `close` into `(head, inner)`; `Ok(None)` when `text` has no `open`.
///
/// # Errors
///
/// A message naming `text` when `close` is missing or precedes `open`.
pub(crate) fn delimited(
    text: &str,
    open: char,
    close: char,
) -> Result<Option<(&str, &str)>, String> {
    let Some(start) = text.find(open) else {
        return Ok(None);
    };
    match text.rfind(close) {
        Some(end) if end > start => Ok(Some((&text[..start], &text[start + open.len_utf8()..end]))),
        _ => Err(format!("unbalanced `{open}{close}` in `{text}`")),
    }
}

/// The qubit count once register `name` of `width` qubits follows
/// `total` others.
///
/// # Errors
///
/// [`CircuitError::BadRegister`] past
/// [`MAX_STABILIZER_QUBITS`](qdb_sim::stabilizer::MAX_STABILIZER_QUBITS),
/// the widest program any backend runs.
pub(crate) fn widen(total: usize, name: &str, width: usize) -> Result<usize, CircuitError> {
    let max = qdb_sim::stabilizer::MAX_STABILIZER_QUBITS;
    total
        .checked_add(width)
        .filter(|&wide| wide <= max)
        .ok_or_else(|| {
            CircuitError::BadRegister(format!(
                "register `{name}[{width}]` takes the program past {max} qubits, \
                 the widest any backend runs"
            ))
        })
}

/// Evaluate a tiny parameter expression: optional sign, factors of
/// numbers or `pi` combined with `*` and `/`. The value must be finite.
pub(crate) fn eval_expr(text: &str) -> Result<f64, String> {
    let text = text.trim();
    if text.is_empty() {
        return Err("empty expression".to_string());
    }
    let (negate, rest) = match text.strip_prefix('-') {
        Some(r) => (true, r.trim()),
        None => (false, text),
    };
    let mut value = f64::NAN;
    let mut pending_op = '*';
    let mut token = String::new();
    let mut first = true;

    let flush =
        |value: &mut f64, pending_op: char, token: &str, first: &mut bool| -> Result<(), String> {
            if token.is_empty() {
                return Err("dangling operator".to_string());
            }
            let factor = if token == "pi" {
                std::f64::consts::PI
            } else {
                token
                    .parse::<f64>()
                    .map_err(|_| format!("bad number `{token}`"))?
            };
            if *first {
                *value = factor;
                *first = false;
            } else {
                match pending_op {
                    '*' => *value *= factor,
                    '/' => *value /= factor,
                    _ => return Err(format!("bad operator `{pending_op}`")),
                }
            }
            Ok(())
        };

    for ch in rest.chars() {
        match ch {
            '*' | '/' => {
                flush(&mut value, pending_op, &token, &mut first)?;
                token.clear();
                pending_op = ch;
            }
            c if c.is_whitespace() => {}
            c => token.push(c),
        }
    }
    flush(&mut value, pending_op, &token, &mut first)?;
    if !value.is_finite() {
        return Err(format!("`{text}` is not a finite number"));
    }
    Ok(if negate { -value } else { value })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn sample_circuit() -> Circuit {
        let mut c = Circuit::new(4);
        c.h(0);
        c.x(1);
        c.t(2);
        c.cx(0, 1);
        c.ccx(0, 1, 2);
        c.cphase(0, 3, PI / 4.0);
        c.ccphase(0, 1, 3, PI / 8.0);
        c.crz(2, 3, 0.5);
        c.rz(3, -0.25);
        c.swap(0, 3);
        c.cswap(1, 0, 2);
        c.cz(2, 0);
        c
    }

    #[test]
    fn export_contains_expected_lines() {
        let text = to_qasm(&sample_circuit()).unwrap();
        assert!(text.contains("OPENQASM 2.0;"));
        assert!(text.contains("qreg q[4];"));
        assert!(text.contains("h q[0];"));
        assert!(text.contains("ccx q[0],q[1],q[2];"));
        assert!(text.contains("cswap q[1],q[0],q[2];"));
        assert!(text.contains("ccu1("));
    }

    #[test]
    fn round_trip_preserves_structure() {
        let c = sample_circuit();
        let parsed = from_qasm(&to_qasm(&c).unwrap()).unwrap();
        assert_eq!(parsed.circuit, c);
        assert_eq!(parsed.registers.len(), 1);
        assert_eq!(parsed.registers[0].width(), 4);
    }

    #[test]
    fn round_trip_preserves_unitary_for_controlled_s() {
        // Controlled-S exports as cu1(π/2): structurally different,
        // unitarily identical.
        let mut c = Circuit::new(2);
        c.push(Instruction::controlled_gate(vec![0], GateKind::S, 1));
        let parsed = from_qasm(&to_qasm(&c).unwrap()).unwrap();
        assert_ne!(parsed.circuit, c);
        assert!(parsed.circuit.equivalent_up_to_phase(&c, 1e-10).unwrap());
    }

    #[test]
    fn export_rejects_three_controls() {
        let mut c = Circuit::new(4);
        c.mcz(&[0, 1, 2], 3);
        assert!(matches!(
            to_qasm(&c),
            Err(CircuitError::UnsupportedExport(_))
        ));
    }

    #[test]
    fn parse_multiple_registers_flatten() {
        let text = "OPENQASM 2.0;\nqreg a[2];\nqreg b[3];\ncx a[1],b[0];\n";
        let parsed = from_qasm(text).unwrap();
        assert_eq!(parsed.registers[0].qubits(), &[0, 1]);
        assert_eq!(parsed.registers[1].qubits(), &[2, 3, 4]);
        assert_eq!(
            parsed.circuit.instructions()[0],
            Instruction::controlled_gate(vec![1], GateKind::X, 2)
        );
    }

    #[test]
    fn parse_pi_expressions() {
        let text = "qreg q[1];\nu1(pi/4) q[0];\nrz(-pi/2) q[0];\nrx(3*pi/4) q[0];\nry(0.5) q[0];\n";
        let parsed = from_qasm(text).unwrap();
        let insts = parsed.circuit.instructions();
        assert_eq!(insts[0], Instruction::gate(GateKind::Phase(PI / 4.0), 0));
        assert_eq!(insts[1], Instruction::gate(GateKind::Rz(-PI / 2.0), 0));
        assert_eq!(insts[2], Instruction::gate(GateKind::Rx(3.0 * PI / 4.0), 0));
        assert_eq!(insts[3], Instruction::gate(GateKind::Ry(0.5), 0));
    }

    #[test]
    fn parse_ignores_comments_measure_barrier() {
        let text = "qreg q[2]; creg c[2];\n// a comment\nh q[0]; barrier q; measure q[0] -> c[0];\nreset q[1];\n";
        let parsed = from_qasm(text).unwrap();
        assert_eq!(parsed.circuit.len(), 1);
    }

    #[test]
    fn parse_skips_gate_definitions() {
        let text = "gate foo(theta) a,b {\n cx a,b;\n rz(theta) b;\n}\nqreg q[2];\nx q[0];\n";
        let parsed = from_qasm(text).unwrap();
        assert_eq!(parsed.circuit.len(), 1);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let text = "qreg q[1];\nfrobnicate q[0];\n";
        match from_qasm(text) {
            Err(CircuitError::Parse { line, msg }) => {
                assert_eq!(line, 2);
                assert!(msg.contains("frobnicate"));
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn parse_rejects_undeclared_register() {
        let text = "qreg q[1];\nx r[0];\n";
        assert!(matches!(from_qasm(text), Err(CircuitError::BadRegister(_))));
    }

    #[test]
    fn parse_rejects_out_of_range_index() {
        let text = "qreg q[1];\nx q[3];\n";
        assert!(matches!(from_qasm(text), Err(CircuitError::BadRegister(_))));
    }

    #[test]
    fn parse_rejects_duplicate_register() {
        let text = "qreg q[1];\nqreg q[2];\n";
        assert!(matches!(from_qasm(text), Err(CircuitError::BadRegister(_))));
    }

    #[test]
    fn parse_wrong_arity_is_error() {
        let text = "qreg q[2];\ncx q[0];\n";
        assert!(matches!(from_qasm(text), Err(CircuitError::Parse { .. })));
        let text = "qreg q[2];\nrz q[0];\n";
        assert!(matches!(from_qasm(text), Err(CircuitError::Parse { .. })));
    }

    #[test]
    fn eval_expr_cases() {
        assert!((eval_expr("pi").unwrap() - PI).abs() < 1e-15);
        assert!((eval_expr("-pi/2").unwrap() + PI / 2.0).abs() < 1e-15);
        assert!((eval_expr("2*pi/8").unwrap() - PI / 4.0).abs() < 1e-15);
        assert!((eval_expr("0.19634954084936207").unwrap() - 0.19634954084936207).abs() < 1e-18);
        assert!(eval_expr("").is_err());
        assert!(eval_expr("pi/").is_err());
        assert!(eval_expr("banana").is_err());
    }

    #[test]
    fn exported_prelude_gates_parse_back() {
        // The prelude itself must not confuse the parser.
        let mut c = Circuit::new(3);
        c.ccphase(0, 1, 2, 0.3);
        let text = to_qasm(&c).unwrap();
        let parsed = from_qasm(&text).unwrap();
        assert_eq!(parsed.circuit, c);
    }

    /// A random circuit drawn entirely from the exportable subset:
    /// every uncontrolled and singly-controlled gate kind, the
    /// doubly-controlled X/Z/Rz/Phase family, and (controlled) swaps.
    fn random_supported_circuit(n: usize, gates: usize, seed: u64) -> Circuit {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut c = Circuit::new(n);
        fn distinct(rng: &mut StdRng, n: usize, exclude: &[usize]) -> usize {
            loop {
                let q = rng.gen_range(0..n);
                if !exclude.contains(&q) {
                    return q;
                }
            }
        }
        for _ in 0..gates {
            let target = rng.gen_range(0..n);
            let angle = rng.gen_range(-3.0..3.0f64);
            let kind = match rng.gen_range(0..12u32) {
                0 => GateKind::H,
                1 => GateKind::X,
                2 => GateKind::Y,
                3 => GateKind::Z,
                4 => GateKind::S,
                5 => GateKind::Sdg,
                6 => GateKind::T,
                7 => GateKind::Tdg,
                8 => GateKind::Rx(angle),
                9 => GateKind::Ry(angle),
                10 => GateKind::Rz(angle),
                _ => GateKind::Phase(angle),
            };
            let inst = match rng.gen_range(0..5u32) {
                1 if n >= 2 => {
                    let ctrl = distinct(&mut rng, n, &[target]);
                    Instruction::controlled_gate(vec![ctrl], kind, target)
                }
                2 if n >= 3 => {
                    let narrow = match rng.gen_range(0..4u32) {
                        0 => GateKind::X,
                        1 => GateKind::Z,
                        2 => GateKind::Rz(angle),
                        _ => GateKind::Phase(angle),
                    };
                    let c0 = distinct(&mut rng, n, &[target]);
                    let c1 = distinct(&mut rng, n, &[target, c0]);
                    Instruction::controlled_gate(vec![c0, c1], narrow, target)
                }
                3 if n >= 2 => Instruction::Swap {
                    controls: vec![],
                    a: target,
                    b: distinct(&mut rng, n, &[target]),
                },
                4 if n >= 3 => {
                    let a = distinct(&mut rng, n, &[target]);
                    let b = distinct(&mut rng, n, &[target, a]);
                    Instruction::Swap {
                        controls: vec![target],
                        a,
                        b,
                    }
                }
                _ => Instruction::gate(kind, target),
            };
            c.push(inst);
        }
        c
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn emit_parse_emit_is_a_fixpoint(
            n in 1..6usize,
            gates in 0..40usize,
            seed in 0..u64::MAX,
        ) {
            use proptest::prelude::{prop_assert, prop_assert_eq};
            let circuit = random_supported_circuit(n, gates, seed);
            let emitted = to_qasm(&circuit).expect("supported circuit must export");
            let parsed = from_qasm(&emitted).expect("own output must parse");
            let re_emitted = to_qasm(&parsed.circuit).expect("parsed circuit must re-export");
            // The documented cu1 divergence (controlled S/Sdg/T/Tdg
            // emit as cu1) must be *stable*: one emit → parse cycle
            // reaches a fixpoint, it never keeps drifting.
            prop_assert_eq!(&emitted, &re_emitted);
            let reparsed = from_qasm(&re_emitted).expect("the fixpoint must parse");
            prop_assert_eq!(&reparsed.circuit, &parsed.circuit);
            // And the fixpoint is still the same operation.
            prop_assert!(circuit
                .equivalent_up_to_phase(&parsed.circuit, 1e-9)
                .expect("same width"));
        }
    }

    #[test]
    fn malformed_sources_are_typed_errors() {
        // Out-of-order delimiters, a gate naming one qubit twice,
        // oversized registers and a non-finite angle.
        for src in [
            "qreg q]2[;",
            "qreg q[1];\nh)( q[0];",
            "qreg q[1];\nh q]0[;",
            "qreg q[2];\ncx q[0],q[0];",
            "qreg q[3];\nccx q[0],q[1],q[0];",
            "qreg a[18446744073709551615];",
            "qreg a[4096];\nqreg b[18446744073709551615];",
            "qreg q[1];\nrz(1/0) q[0];",
        ] {
            assert!(
                matches!(
                    from_qasm(src),
                    Err(CircuitError::Parse { .. } | CircuitError::BadRegister(_))
                ),
                "{src:?}"
            );
        }
    }
}
