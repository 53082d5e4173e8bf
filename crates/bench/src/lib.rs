//! Shared helpers for the table/figure regeneration binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure from the
//! paper (see DESIGN.md §5 for the experiment index and EXPERIMENTS.md
//! for paper-vs-measured records). These helpers render the same
//! row/column layouts the paper uses.

#![warn(missing_docs)]

use std::collections::BTreeMap;

/// Render a probability table (rows × columns) like the paper's
/// Table 3: row label column followed by one column per output value.
#[must_use]
pub fn render_joint_table(
    title: &str,
    row_name: &str,
    col_name: &str,
    joint: &BTreeMap<(u64, u64), f64>,
) -> String {
    let mut rows: Vec<u64> = joint.keys().map(|&(r, _)| r).collect();
    rows.sort_unstable();
    rows.dedup();
    let mut cols: Vec<u64> = joint.keys().map(|&(_, c)| c).collect();
    cols.sort_unstable();
    cols.dedup();

    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    out.push_str(&format!("{:>12} | ", format!("{row_name}\\{col_name}")));
    for c in &cols {
        out.push_str(&format!("{c:>8} "));
    }
    out.push('\n');
    out.push_str(&"-".repeat(15 + 9 * cols.len()));
    out.push('\n');
    for r in &rows {
        out.push_str(&format!("{r:>12} | "));
        for c in &cols {
            let p = joint.get(&(*r, *c)).copied().unwrap_or(0.0);
            if p == 0.0 {
                out.push_str(&format!("{:>8} ", "0"));
            } else {
                out.push_str(&format!("{p:>8.4} "));
            }
        }
        out.push('\n');
    }
    out
}

/// Collect the joint Born distribution of two register views of a
/// simulated state.
#[must_use]
pub fn joint_distribution(
    state: &qdb_sim::State,
    a: &qdb_circuit::QReg,
    b: &qdb_circuit::QReg,
) -> BTreeMap<(u64, u64), f64> {
    let mut joint = BTreeMap::new();
    for i in 0..state.dim() {
        let p = state.probability(i);
        if p > 1e-12 {
            *joint
                .entry((a.value_of(i as u64), b.value_of(i as u64)))
                .or_insert(0.0) += p;
        }
    }
    joint
}

/// Effective parallel workers for speedup gating: the smaller of the
/// rayon pool size (which honors `RAYON_NUM_THREADS`) and the host's
/// available parallelism — worker threads beyond the physical core
/// count add no speedup, so expectations are set by whichever is
/// smaller.
#[must_use]
pub fn effective_workers() -> usize {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    rayon::current_num_threads().min(cores)
}

/// Gate a measured-speedup assertion on multi-core availability, and
/// set the speedup it must reach.
///
/// Benches that assert "parallel beats serial by ≥ N×" share this
/// helper so they skip and scale uniformly. On a single-worker host
/// (one core, or `RAYON_NUM_THREADS=1`) no speedup is possible, so the
/// check prints a `SKIPPED` notice naming `what` — instead of silently
/// passing — and returns `None`. With ≥ 2 effective workers it returns
/// `Some((workers, required))`: ≥ 2× with 4 or more workers, ≥ 1.2×
/// with 2–3. Two workers cannot reach 2× even with perfect scaling,
/// and the parallel pass also pays dispatch and shared-bandwidth costs
/// the serial pass does not.
#[must_use]
pub fn multicore_gate(what: &str) -> Option<(usize, f64)> {
    let workers = effective_workers();
    if workers < 2 {
        println!(
            "{what}: SKIPPED (1 effective worker; run on a multi-core host \
             to exercise the speedup expectation)"
        );
        return None;
    }
    Some((workers, if workers >= 4 { 2.0 } else { 1.2 }))
}

/// A fixed-width banner separating experiment sections.
#[must_use]
pub fn banner(text: &str) -> String {
    format!(
        "\n=== {text} {}\n",
        "=".repeat(72usize.saturating_sub(text.len()))
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_joint_table_layout() {
        let mut joint = BTreeMap::new();
        joint.insert((0u64, 0u64), 0.5);
        joint.insert((1, 1), 0.5);
        let table = render_joint_table("T", "anc", "out", &joint);
        assert!(table.contains("anc\\out"));
        assert!(table.contains("0.5000"));
        assert!(table.lines().count() >= 5);
    }

    #[test]
    fn joint_distribution_of_bell_state() {
        use qdb_circuit::{Circuit, GateSink, QReg};
        let mut c = Circuit::new(2);
        c.h(0);
        c.cx(0, 1);
        let s = c.run_on_basis(0).unwrap();
        let a = QReg::new("a", vec![0]);
        let b = QReg::new("b", vec![1]);
        let joint = joint_distribution(&s, &a, &b);
        assert_eq!(joint.len(), 2);
        assert!((joint[&(0, 0)] - 0.5).abs() < 1e-12);
        assert!((joint[&(1, 1)] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn banner_contains_text() {
        assert!(banner("Table 3").contains("Table 3"));
    }

    #[test]
    fn effective_workers_is_positive_and_core_bounded() {
        let workers = effective_workers();
        assert!(workers >= 1);
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        assert!(workers <= cores);
    }

    #[test]
    fn multicore_gate_agrees_with_effective_workers() {
        match multicore_gate("unit test gate") {
            Some((workers, required)) => {
                assert_eq!(workers, effective_workers());
                // Reachable without perfect scaling.
                assert!(required > 1.0 && required < workers as f64);
            }
            None => assert_eq!(effective_workers(), 1),
        }
    }
}
