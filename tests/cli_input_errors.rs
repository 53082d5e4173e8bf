//! `qdb check` on malformed Scaffold sources — out-of-order delimiters,
//! a gate naming one qubit twice, overlapping assertion registers,
//! oversized registers and a non-finite angle — must exit 2 with a
//! typed parse or register error on stderr, never panic (exit 101) or
//! abort (134).

use std::process::Command;

const MALFORMED: [(&str, &str); 9] = [
    ("reversed_call", ")H(;"),
    ("reversed_index", "qbit r[1];\nH(r]0[);"),
    ("cnot_one_qubit", "qbit r[2];\nCNOT(r[0], r[0]);"),
    ("swap_one_qubit", "qbit r[2];\nSwap(r[1], r[1]);"),
    (
        "entangled_overlap",
        "qbit r[2];\nassert_entangled(r, 2, r, 2);",
    ),
    ("product_overlap", "qbit r[2];\nassert_product(r, 2, r, 2);"),
    ("huge_register", "qbit r[100000000000];"),
    ("wide_prep_int", "qbit r[64];\nPrepInt(r, 1);"),
    (
        "infinite_angle",
        "qbit r[1];\nRz(r[0], 1/0);\nassert_classical(r, 0);",
    ),
];

#[test]
fn malformed_scaffold_exits_2_with_a_typed_error() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    for (name, source) in MALFORMED {
        let path = dir.join(format!("malformed_{name}.scaffold"));
        std::fs::write(&path, source).unwrap();
        let out = Command::new(env!("CARGO_BIN_EXE_qdb"))
            .arg("check")
            .arg(&path)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name}: {stderr}");
        assert!(
            stderr.starts_with("error: parse error") || stderr.starts_with("error: bad register"),
            "{name}: {stderr}"
        );
    }
}
