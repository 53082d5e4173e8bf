//! The four workloads: which sessions they run, under which
//! configuration, and the exact verdicts each session must reach.

use std::sync::Arc;

use qdb_algos::chem::H2Molecule;
use qdb_algos::clifford::ghz_program;
use qdb_algos::grover::{grover_program, optimal_iterations};
use qdb_algos::shor::shor_program;
use qdb_algos::sparse::shor_style_period_program;
use qdb_algos::{BugType, ControlRouting, Gf2m, GroverStyle, ShorConfig};
use qdb_circuit::{GateSink, Program, QReg};
use qdb_core::{BackendChoice, EnsembleConfig, Verdict};
use qdb_sim::NoiseModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::loadgen::mix;

/// A workload name, as given on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open-loop stream of the paper's sessions through one server.
    PaperMix,
    /// Closed loop of gate-heavy 16-qubit Shor sessions.
    DenseGates,
    /// Closed loop of 20-qubit Grover sessions.
    DenseAmps,
    /// Closed loop of noisy trajectory-tree sessions.
    NoisyTree,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperMix,
        Workload::DenseGates,
        Workload::DenseAmps,
        Workload::NoisyTree,
    ];

    /// The command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperMix => "paper_mix",
            Workload::DenseGates => "dense_gates",
            Workload::DenseAmps => "dense_amps",
            Workload::NoisyTree => "noisy_tree",
        }
    }

    /// Parse a command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One session: a program, the configuration it runs under, and the
/// exact verdict vector it must produce.
#[derive(Debug, Clone)]
pub struct Job {
    /// Short label of the session kind.
    pub kind: &'static str,
    /// The program (shared with every session of the same kind).
    pub program: Arc<Program>,
    /// Session configuration.
    pub config: EnsembleConfig,
    /// Pinned exact verdict per breakpoint.
    pub expected: Arc<[Verdict]>,
}

/// Exact verdicts of the six bug demonstrations, one per breakpoint, in
/// `BugType::all()` order. The first `Fail` of each is the catching
/// breakpoint `BugType::demonstration` names.
const BUG_VERDICTS: [&[Verdict]; 6] = {
    use Verdict::{Fail as F, Pass as P};
    [
        &[F, P, F],
        &[P, F],
        &[P, F],
        &[P, P, F, P],
        &[P, P, P, F],
        &[P, P, P, F],
    ]
};

/// Exact verdicts of the 16-qubit Shor program with the multiplicand
/// bit routed twice: the scratch register is left dirty, so its
/// `classical b == 0` postcondition fails.
const SHOR_CTRL1TWICE_VERDICTS: &[Verdict] = {
    use Verdict::{Fail as F, Pass as P};
    &[P, P, P, F, P]
};

fn all_pass(program: &Program) -> Arc<[Verdict]> {
    vec![Verdict::Pass; program.breakpoints().len()].into()
}

fn job(kind: &'static str, program: Arc<Program>, config: EnsembleConfig) -> Job {
    let expected = all_pass(&program);
    Job {
        kind,
        program,
        config,
        expected,
    }
}

/// The paper's Shor program (factor 15) at base `a`, routing `routing`.
fn shor(upper_bits: usize, base: u64, routing: ControlRouting) -> Program {
    let config = ShorConfig {
        modulus: 15,
        base,
        upper_bits,
    };
    shor_program(&config, routing, &Vec::new()).0
}

/// Grover over GF(2^m) for the square root of `target`.
fn grover(m: u32, target: u64, style: GroverStyle) -> Program {
    let field = Gf2m::standard(m);
    grover_program(&field, target, style, optimal_iterations(1 << m)).0
}

/// H₂ Trotter session: prepare the Hartree–Fock determinant (both
/// electrons bonding, qubits 0 and 1), assert it; evolve under the
/// Trotterized STO-3G Hamiltonian for time `t`, which mixes in the
/// doubly-excited determinant (qubits 2 and 3), and assert the bonding
/// and antibonding pairs entangled; undo the evolution and assert the
/// determinant is back.
fn h2_trotter(t: f64) -> Program {
    const STEPS: usize = 4;
    const HARTREE_FOCK: u64 = 0b0011;
    let molecule = H2Molecule::sto3g();
    let mut p = Program::new();
    let r = p.alloc_register("r", 4);
    p.prep_int(&r, HARTREE_FOCK);
    p.assert_classical(&r, HARTREE_FOCK);
    let evolution = qdb_algos::chem::trotter_step_circuit(molecule.pauli_terms(), &r, t, STEPS);
    for inst in evolution.instructions() {
        p.push(inst.clone());
    }
    let bonding = QReg::new("bonding", vec![r.bit(0), r.bit(1)]);
    let antibonding = QReg::new("antibonding", vec![r.bit(2), r.bit(3)]);
    p.assert_entangled(&bonding, &antibonding);
    for inst in evolution.adjoint().instructions() {
        p.push(inst.clone());
    }
    p.assert_classical(&r, HARTREE_FOCK);
    p
}

/// `paper_mix` sessions run serially inside the server, on whichever
/// backend `Auto` picks. Every kind but `shor15_16` takes
/// `EnsembleConfig::default()`'s 1024 shots.
fn mix_config(shots: usize) -> EnsembleConfig {
    EnsembleConfig::builder()
        .shots(shots)
        .parallel(false)
        .backend(BackendChoice::Auto)
        .build()
}

/// Generates the sessions of one workload. Session `i` is a pure
/// function of the workload seed and `i`.
#[derive(Debug)]
pub struct Generator {
    workload: Workload,
    seed: u64,
    templates: Vec<Job>,
    shor_variants: Vec<Arc<Program>>,
    grover_variants: Vec<(Arc<Program>, Arc<Program>)>,
    ghz_variants: Vec<Arc<Program>>,
}

/// Session seed of the warm-up session.
const WARM_UP_SEED: u64 = 1;

/// Shor bases coprime to 15 other than the paper's 7.
const SHOR_VARIANT_BASES: [u64; 6] = [2, 4, 8, 11, 13, 14];
/// Extra GHZ widths, each a distinct plan fingerprint.
const GHZ_VARIANT_WIDTHS: std::ops::Range<usize> = 101..133;
/// Share of `paper_mix` sessions that run a structural variant instead
/// of the canonical program of their kind.
///
/// An assumption, like the mix's equal kind weights: neither the paper
/// nor this repository records how often a debugging user re-runs a
/// program unchanged. It sets `server.plan_cache_hit_rate`,
/// `server.oracle_cache_hit_rate` and how often `circuit.compile_ms`
/// and the exact oracle land inside a session's latency.
const VARIANT_SHARE: f64 = 0.25;

impl Generator {
    /// Build every program the workload can draw from.
    #[must_use]
    pub fn new(workload: Workload, seed: u64) -> Self {
        let mut generator = Self {
            workload,
            seed,
            templates: Vec::new(),
            shor_variants: Vec::new(),
            grover_variants: Vec::new(),
            ghz_variants: Vec::new(),
        };
        let default = EnsembleConfig::default();
        match workload {
            Workload::PaperMix => {
                let shor15 = Arc::new(shor(3, 7, ControlRouting::Correct));
                generator.templates = vec![
                    job("shor15_16", Arc::clone(&shor15), mix_config(16)),
                    job("shor15_1024", shor15, mix_config(1024)),
                    job(
                        "grover3_manual",
                        Arc::new(grover(3, 5, GroverStyle::Manual)),
                        mix_config(1024),
                    ),
                    job(
                        "grover3_scoped",
                        Arc::new(grover(3, 5, GroverStyle::Scoped)),
                        mix_config(1024),
                    ),
                    job("h2_trotter", Arc::new(h2_trotter(2.0)), mix_config(1024)),
                    job("ghz100", Arc::new(ghz_program(100)), mix_config(1024)),
                    job(
                        "sparse34",
                        Arc::new(shor_style_period_program(5, 28)),
                        mix_config(1024),
                    ),
                ];
                for (bug, expected) in BugType::all().into_iter().zip(BUG_VERDICTS) {
                    let (program, _) = bug.demonstration();
                    generator.templates.push(Job {
                        kind: bug_kind(bug),
                        program: Arc::new(program),
                        config: mix_config(1024),
                        expected: expected.into(),
                    });
                }
                generator.shor_variants = SHOR_VARIANT_BASES
                    .iter()
                    .map(|&a| Arc::new(shor(3, a, ControlRouting::Correct)))
                    .collect();
                generator.grover_variants = (1..8)
                    .map(|target| {
                        (
                            Arc::new(grover(3, target, GroverStyle::Manual)),
                            Arc::new(grover(3, target, GroverStyle::Scoped)),
                        )
                    })
                    .collect();
                generator.ghz_variants = GHZ_VARIANT_WIDTHS
                    .map(|n| Arc::new(ghz_program(n)))
                    .collect();
            }
            Workload::DenseGates => {
                generator.templates = vec![
                    job(
                        "shor16_correct",
                        Arc::new(shor(6, 7, ControlRouting::Correct)),
                        default.clone(),
                    ),
                    Job {
                        kind: "shor16_ctrl1twice",
                        program: Arc::new(shor(6, 7, ControlRouting::Ctrl1Twice)),
                        config: default,
                        expected: SHOR_CTRL1TWICE_VERDICTS.into(),
                    },
                ];
            }
            Workload::DenseAmps => {
                generator.templates = vec![
                    job(
                        "grover7_manual",
                        Arc::new(grover(7, 0x5b, GroverStyle::Manual)),
                        default.clone(),
                    ),
                    job(
                        "grover7_scoped",
                        Arc::new(grover(7, 0x5b, GroverStyle::Scoped)),
                        default,
                    ),
                ];
            }
            Workload::NoisyTree => {
                let shor15 = Arc::new(shor(3, 7, ControlRouting::Correct));
                generator.templates = vec![
                    job(
                        "shor15_frontier",
                        Arc::clone(&shor15),
                        default
                            .with_noise(NoiseModel::depolarizing(5e-5).with_readout_flip(1e-3))
                            .with_shots(32),
                    ),
                    job(
                        "shor15_forks",
                        shor15,
                        default
                            .with_noise(NoiseModel::depolarizing(5e-4))
                            .with_shots(48),
                    ),
                    job(
                        "grover3_dedup",
                        Arc::new(grover(3, 5, GroverStyle::Manual)),
                        default
                            .with_noise(NoiseModel::depolarizing(1e-4))
                            .with_shots(256),
                    ),
                ];
            }
        }
        generator
    }

    /// Session `i`.
    #[must_use]
    pub fn job(&self, i: u64) -> Job {
        let session_seed = mix(self.seed, i);
        let mut job = match self.workload {
            Workload::PaperMix => self.mix_job(i, session_seed),
            // Closed loops cycle through their sessions in order.
            _ => self.templates[(i % self.templates.len() as u64) as usize].clone(),
        };
        job.config = job.config.with_seed(session_seed);
        job
    }

    /// The set-up's warm-up session: the workload's first canonical
    /// session under a fixed session seed. Session 0 would change with
    /// the workload seed, in kind on `paper_mix` and in the faults drawn
    /// on `noisy_tree`, and `setup_s` with it.
    #[must_use]
    pub fn warm_up(&self) -> Job {
        let mut job = self.templates[0].clone();
        job.config = job.config.with_seed(WARM_UP_SEED);
        job
    }

    /// Draw `paper_mix` session `i`: kinds come in blocks holding each
    /// kind once, in a seeded order per block, so every stretch of the
    /// stream carries the mix in its proportions (independent draws
    /// bunch the 12 ms Shor and GHZ sessions by chance, and the tail
    /// latency then tracks the seed more than the system). Each of the
    /// 13 kinds thus weighs 1/13, an assumption: no source gives how
    /// often each session is run. A quarter of sessions
    /// ([`VARIANT_SHARE`]) run a structural variant of their kind
    /// instead of the canonical program. The Shor, Grover and GHZ
    /// variants come from small pools, which the caches learn within a
    /// run; every H₂ variant has an evolution time of its own, so the
    /// caches keep taking writes to the end of the run.
    fn mix_job(&self, i: u64, session_seed: u64) -> Job {
        let kinds = self.templates.len();
        let mut order: Vec<usize> = (0..kinds).collect();
        let mut block = StdRng::seed_from_u64(mix(!self.seed, i / kinds as u64));
        for k in (1..kinds).rev() {
            order.swap(k, block.gen_range(0..k + 1));
        }
        let mut job = self.templates[order[(i % kinds as u64) as usize]].clone();
        let mut rng = StdRng::seed_from_u64(session_seed);
        if rng.gen::<f64>() >= VARIANT_SHARE {
            return job;
        }
        let variant = match job.kind {
            "shor15_16" | "shor15_1024" => Some(Arc::clone(
                &self.shor_variants[rng.gen_range(0..self.shor_variants.len())],
            )),
            "grover3_manual" => Some(Arc::clone(
                &self.grover_variants[rng.gen_range(0..self.grover_variants.len())].0,
            )),
            "grover3_scoped" => Some(Arc::clone(
                &self.grover_variants[rng.gen_range(0..self.grover_variants.len())].1,
            )),
            // A continuous evolution time: every such session is a
            // fingerprint the caches have not seen.
            "h2_trotter" => Some(Arc::new(h2_trotter(rng.gen_range(1.2..2.8)))),
            "ghz100" => Some(Arc::clone(
                &self.ghz_variants[rng.gen_range(0..self.ghz_variants.len())],
            )),
            _ => None,
        };
        if let Some(program) = variant {
            job.expected = all_pass(&program);
            job.program = program;
        }
        job
    }

    /// Every distinct template (canonical programs only).
    #[cfg(test)]
    #[must_use]
    pub fn templates(&self) -> &[Job] {
        &self.templates
    }
}

fn bug_kind(bug: BugType) -> &'static str {
    match bug {
        BugType::IncorrectInitialValues => "bug_initial_values",
        BugType::IncorrectOperations => "bug_operations",
        BugType::IncorrectIteration => "bug_iteration",
        BugType::IncorrectRecursion => "bug_recursion",
        BugType::IncorrectMirroring => "bug_mirroring",
        BugType::IncorrectClassicalInputs => "bug_classical_inputs",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sessions_are_a_pure_function_of_seed_and_index() {
        let a = Generator::new(Workload::PaperMix, 3);
        let b = Generator::new(Workload::PaperMix, 3);
        for i in 0..64 {
            let (x, y) = (a.job(i), b.job(i));
            assert_eq!(x.kind, y.kind);
            assert_eq!(x.program.fingerprint(), y.program.fingerprint());
            assert_eq!(x.config, y.config);
        }
    }

    #[test]
    fn bug_verdicts_fail_first_at_the_catching_breakpoint() {
        for (bug, expected) in BugType::all().into_iter().zip(BUG_VERDICTS) {
            let (program, catching) = bug.demonstration();
            assert_eq!(expected.len(), program.breakpoints().len(), "{bug:?}");
            let first_fail = expected.iter().position(|v| *v == Verdict::Fail);
            assert_eq!(first_fail, Some(catching), "{bug:?}");
        }
    }

    #[test]
    fn pinned_verdicts_match_the_exact_oracle() {
        for workload in Workload::ALL {
            let generator = Generator::new(workload, 1);
            let drawn = if workload == Workload::PaperMix {
                100
            } else {
                0
            };
            let variants = (0..drawn).map(|i| generator.job(i));
            for job in generator.templates().iter().cloned().chain(variants) {
                // The exact verdict reads the ideal state, so a few
                // noiseless shots suffice.
                let config = job
                    .config
                    .with_shots(16)
                    .with_parallel(false)
                    .with_noise(NoiseModel::noiseless());
                let reports = qdb_core::EnsembleRunner::new(config)
                    .check_program(&job.program)
                    .expect("session runs");
                let exact: Vec<Verdict> = reports.iter().map(|r| r.exact.unwrap()).collect();
                assert_eq!(exact[..], job.expected[..], "{}", job.kind);
            }
        }
    }

    #[test]
    fn every_block_of_the_mix_holds_each_kind_once() {
        let g = Generator::new(Workload::PaperMix, 9);
        let kinds = g.templates().len() as u64;
        for block in 0..5 {
            let mut seen: Vec<&str> = (0..kinds).map(|k| g.job(block * kinds + k).kind).collect();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len() as u64, kinds, "block {block}");
        }
    }

    #[test]
    fn the_mix_repeats_and_varies_fingerprints() {
        let g = Generator::new(Workload::PaperMix, 1);
        let prints: Vec<u64> = (0..400).map(|i| g.job(i).program.fingerprint()).collect();
        let distinct: std::collections::BTreeSet<u64> = prints.iter().copied().collect();
        assert!(
            distinct.len() > 20,
            "{} distinct fingerprints",
            distinct.len()
        );
        assert!(
            distinct.len() < 300,
            "{} distinct fingerprints",
            distinct.len()
        );
    }
}
