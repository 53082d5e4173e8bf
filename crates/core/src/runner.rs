//! Ensemble execution of breakpoint-split programs.
//!
//! For each breakpoint the runner obtains the ideal state at the
//! assertion point, then draws the configured ensemble of early
//! measurements from it (each shot of the paper's cluster runs is an
//! independent execution-plus-measurement; since the prefix is
//! deterministic, one simulation plus Born-rule sampling is
//! distributionally identical and vastly cheaper). Two
//! [`ExecutionStrategy`] values decide *how* the state is obtained:
//!
//! * [`ExecutionStrategy::Sweep`] (default) — one checkpointed pass
//!   over the whole program, `O(G)` gate applications total (see
//!   [`crate::sweep`]);
//! * [`ExecutionStrategy::PerPrefix`] — replay each breakpoint's
//!   prefix of the compiled plan from `|0…0⟩`, `O(Σᵢ|prefixᵢ|)`; the
//!   paper-faithful reference implementation and benchmark baseline.
//!
//! Reports are bit-for-bit identical across the two strategies.
//!
//! Noisy sessions honor the same strategy switch: the default
//! [`ExecutionStrategy::Sweep`] runs the **trajectory tree**
//! ([`crate::trajectory`]) — presample each shot's fault pattern,
//! deduplicate identical trajectories, and fork distinct ones from a
//! shared ideal frontier, so gate work scales with *unique
//! trajectories* instead of shots — while
//! [`ExecutionStrategy::PerPrefix`] keeps the per-shot reference path
//! (one full noisy replay per `(breakpoint, shot)`). Reports are
//! bit-for-bit identical across the two.
//!
//! Every backend runs through one engine, generic over [`SimBackend`]:
//! one sweep, one per-prefix loop, one trajectory-tree call and one
//! report builder. The dense statevector differs from the other
//! backends only in how it draws ensembles (see `EnsembleHook`).
//!
//! All hot loops are embarrassingly parallel; rayon drives exactly
//! one of them at a time (never nested). Noiseless per-prefix sessions
//! check breakpoints concurrently, like the paper's per-assertion QX
//! cluster jobs; sweep sessions parallelize sampling; per-shot noisy
//! sessions parallelize the dominant per-shot trajectory loop, and
//! trajectory-tree sessions the per-fork suffix replays. Every
//! ensemble is a pure function of the seed and the breakpoint (and,
//! shot by shot, of the shot index), so reports are bit-for-bit
//! identical across thread counts and across the serial/parallel
//! paths.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

use qdb_circuit::{
    Breakpoint, BreakpointKind, CompiledCircuit, GateSink, OptLevel, PlanCache, Program,
};
use qdb_sim::measure::extract_bits;
use qdb_sim::{NoiseModel, Sampler, SimBackend, SparseState, StabilizerState, State};

use crate::checker::{
    check_classical, check_entangled_with, check_product_with, check_superposition,
    exact_verdict_on, IndependenceMethod,
};
use crate::error::CoreError;
use crate::governor::{self, Governor, InterruptCause, RunBudget};
use crate::report::{AssertionReport, PartialReport, Verdict};
use crate::sweep::SweepRunner;
use crate::trajectory::NoisySessionStats;

/// How ensembles are produced.
///
/// Both strategies yield bit-for-bit identical [`AssertionReport`]s —
/// the choice is purely about cost and scheduling. In ideal mode the
/// switch selects prefix replay vs the checkpointed sweep; in noisy
/// mode it selects the per-shot reference path vs the trajectory tree
/// (see [`crate::trajectory`]), whose deduplication and prefix sharing
/// make gate work scale with unique trajectories instead of shots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutionStrategy {
    /// The paper-faithful reference path, kept as the benchmark
    /// baseline. Ideal mode re-simulates the program prefix from
    /// `|0…0⟩` for every breakpoint, exactly as the paper's
    /// ScaffCC-emitted per-assertion programs did
    /// (`O(Σᵢ|prefixᵢ|)` gate applications, breakpoints fanned out
    /// across cores); noisy mode replays every `(breakpoint, shot)`
    /// pair as an independent full trajectory
    /// (`O(shots × Σᵢ|prefixᵢ|)`, shots fanned out).
    PerPrefix,
    /// Share everything shareable. Ideal mode evolves the state
    /// through the program once, checkpointing at each breakpoint —
    /// `O(G)` gate applications total (see [`crate::sweep`]); noisy
    /// mode runs the trajectory tree — presampled, deduplicated,
    /// prefix-shared trajectories at
    /// `O(G + Σ unique-suffixes)` (see [`crate::trajectory`]). The
    /// default.
    #[default]
    Sweep,
}

/// Which simulation engine executes a session.
///
/// The dense statevector is exact for arbitrary circuits but
/// exponential in qubit count (≤ 26 qubits); the stabilizer tableau is
/// polynomial — hundreds of qubits — but restricted to Clifford
/// circuits (`h`/`s`/`sdg`/`x`/`y`/`z`/`cx`/`cy`/`cz`/`swap`). Both
/// backends produce the same assertion verdicts on programs both can
/// run (matching outcome distributions; each consumes randomness its
/// own way, so sampled ensembles differ across backends while staying
/// reproducible within one).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendChoice {
    /// Pick per program: the stabilizer tableau when the compiled plan
    /// is Clifford-only; the dense statevector for everything else that
    /// fits its 26-qubit ceiling; past the ceiling, the sparse
    /// amplitude-map backend when the compiled plan's support estimate
    /// ([`CompiledCircuit::support_log2_bound`]) says the program stays
    /// sparse. Noise is never an obstacle to either alternative engine —
    /// every [`NoiseChannel`](qdb_sim::NoiseChannel) is a stochastic
    /// Pauli (Clifford to conjugate, support-preserving on the sparse
    /// map) and readout error is classical — so a noisy session routes
    /// on the *plan* alone. Programs no engine can run (past the dense
    /// ceiling, non-Clifford, and branching too much for the sparse
    /// tier) fail with a clean [`CoreError::BackendUnsupported`] at
    /// resolution time. The recommended choice for new code.
    ///
    /// [`CompiledCircuit::support_log2_bound`]: qdb_circuit::CompiledCircuit::support_log2_bound
    Auto,
    /// Always the dense statevector — the default, and the engine whose
    /// sampled ensembles every pre-backend seed in this repository was
    /// chosen against. Sessions wider than the dense ceiling fail with
    /// [`CoreError::BackendUnsupported`] at resolution time.
    #[default]
    Statevector,
    /// Always the stabilizer tableau; sessions whose program contains a
    /// non-Clifford instruction fail with
    /// [`CoreError::BackendUnsupported`].
    Stabilizer,
    /// Always the sparse amplitude-map statevector
    /// ([`SparseState`]): exact for arbitrary
    /// circuits up to 64 qubits, with cost scaling in the live support
    /// size instead of `2ⁿ` — the engine for structured non-Clifford
    /// programs (Shor-style arithmetic, fault-injected codes) past the
    /// dense ceiling. States that stop being sparse fall back to the
    /// dense representation at ≤ 26 qubits; wider than that, a
    /// saturating program simply gets slow rather than wrong.
    Sparse,
}

/// Configuration for ensemble runs.
///
/// Construct via [`EnsembleConfig::builder`] (or `default()` plus the
/// `with_*` methods): the struct's field list grows over time, and the
/// builder keeps downstream code source-compatible when it does.
#[derive(Debug, Clone, PartialEq)]
pub struct EnsembleConfig {
    /// Measurement shots per breakpoint. The paper demonstrates
    /// ensembles as small as 16; the default gives comfortable
    /// statistical power for all benchmarks.
    pub shots: usize,
    /// Significance level for rejecting null hypotheses (paper: 0.05).
    pub alpha: f64,
    /// RNG seed; breakpoint `i` uses `seed + i` so reports are
    /// reproducible and breakpoints are independent.
    pub seed: u64,
    /// Also compute the exact amplitude-based verdict for each assertion.
    pub exact_cross_check: bool,
    /// Tolerance for exact verdicts.
    pub exact_tol: f64,
    /// Which independence test decides entanglement/product assertions.
    pub independence: IndependenceMethod,
    /// Optional hardware noise: when set, every shot is simulated as an
    /// independent noisy trajectory (much slower than ideal sampling,
    /// but faithful to how real ensembles behave). The exact
    /// cross-check still evaluates the *ideal* state — a disagreement
    /// between the two then indicates noise, not a program bug.
    pub noise: Option<NoiseModel>,
    /// Run the session on all cores. With `true` the engine's
    /// independent units fan out across rayon workers — breakpoints
    /// (per-prefix), shots (sampling and per-shot trajectories), fault
    /// presampling and trajectory-tree fork waves — and the one serial
    /// state of a sweep walk or tree frontier chunks its amplitude work
    /// ([`qdb_sim::kernels`], at ≥
    /// [`INTRA_PAR_MIN_QUBITS`](qdb_sim::kernels::INTRA_PAR_MIN_QUBITS)
    /// qubits). Parallelism never nests: a state inside a fan-out
    /// applies its gates serially. `false` keeps everything on the
    /// calling thread (useful for benchmarking the speedup and for
    /// embedding in an outer parallel scheduler). Reports are
    /// bit-for-bit identical either way.
    pub parallel: bool,
    /// How ensembles are produced. The default
    /// [`ExecutionStrategy::Sweep`] shares all shareable work — the
    /// `O(G)` checkpointed sweep in ideal mode, the trajectory tree
    /// (dedup + prefix sharing) in noisy mode —
    /// while [`ExecutionStrategy::PerPrefix`] is the paper-faithful
    /// per-prefix / per-shot reference path. Reports are bit-for-bit
    /// identical either way.
    pub strategy: ExecutionStrategy,
    /// How the program is lowered (see [`OptLevel`]). Single-valued:
    /// every session runs the one [`OptLevel::Specialize`] plan. The
    /// field stays only because the `qdbbench` session benchmark names
    /// it; it goes with the next change to the benchmark.
    pub opt: OptLevel,
    /// Which simulation engine runs the session (see [`BackendChoice`]).
    /// The stabilizer and sparse backends draw their ensembles from the
    /// `(seed, breakpoint, shot)` streams the noisy-trajectory engine
    /// already uses — reports are reproducible and
    /// thread-count-invariant, but not bit-comparable with statevector
    /// ensembles (only verdict-comparable).
    pub backend: BackendChoice,
    /// Resource budget for the session: wall-clock deadline, resident-
    /// memory ceiling, and a cooperative [`CancelToken`](crate::CancelToken).
    /// The default is unlimited. All engines poll it at op-batch
    /// granularity; a tripped budget surfaces as
    /// [`CoreError::Interrupted`] with the completed breakpoints
    /// preserved in a [`PartialReport`] (see
    /// [`crate::governor`]).
    pub budget: RunBudget,
}

impl Default for EnsembleConfig {
    fn default() -> Self {
        Self {
            shots: 1024,
            alpha: qdb_stats::DEFAULT_ALPHA,
            seed: 0x51_D8_EC,
            exact_cross_check: true,
            exact_tol: 1e-9,
            independence: IndependenceMethod::default(),
            noise: None,
            parallel: true,
            strategy: ExecutionStrategy::default(),
            opt: OptLevel::default(),
            backend: BackendChoice::default(),
            budget: RunBudget::default(),
        }
    }
}

/// Incremental constructor for [`EnsembleConfig`].
///
/// Every field of the config keeps its default until overridden, so
/// downstream code written against the builder does not break when a
/// new field is added to the struct.
///
/// ```
/// use qdb_core::{BackendChoice, EnsembleConfig};
///
/// let config = EnsembleConfig::builder()
///     .shots(256)
///     .seed(42)
///     .backend(BackendChoice::Auto)
///     .build();
/// assert_eq!(config.shots, 256);
/// assert_eq!(config.alpha, EnsembleConfig::default().alpha);
/// ```
#[derive(Debug, Clone, Default)]
pub struct EnsembleConfigBuilder {
    config: EnsembleConfig,
}

impl EnsembleConfigBuilder {
    /// Measurement shots per breakpoint.
    #[must_use]
    pub fn shots(mut self, shots: usize) -> Self {
        self.config.shots = shots;
        self
    }

    /// Significance level for rejecting null hypotheses.
    #[must_use]
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.config.alpha = alpha;
        self
    }

    /// RNG seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Whether to also compute the exact amplitude-based verdict.
    #[must_use]
    pub fn exact_cross_check(mut self, enabled: bool) -> Self {
        self.config.exact_cross_check = enabled;
        self
    }

    /// Tolerance for exact verdicts.
    #[must_use]
    pub fn exact_tol(mut self, tol: f64) -> Self {
        self.config.exact_tol = tol;
        self
    }

    /// Which independence test decides entanglement/product assertions.
    #[must_use]
    pub fn independence(mut self, method: IndependenceMethod) -> Self {
        self.config.independence = method;
        self
    }

    /// Hardware noise model (a noiseless model normalizes to `None`).
    #[must_use]
    pub fn noise(mut self, noise: NoiseModel) -> Self {
        self.config = self.config.with_noise(noise);
        self
    }

    /// Run the hot loops on all cores.
    #[must_use]
    pub fn parallel(mut self, parallel: bool) -> Self {
        self.config.parallel = parallel;
        self
    }

    /// How ideal-mode ensembles are produced.
    #[must_use]
    pub fn strategy(mut self, strategy: ExecutionStrategy) -> Self {
        self.config.strategy = strategy;
        self
    }

    /// Which simulation engine runs the session.
    #[must_use]
    pub fn backend(mut self, backend: BackendChoice) -> Self {
        self.config.backend = backend;
        self
    }

    /// Resource budget for the session (deadline, memory ceiling,
    /// cancellation).
    #[must_use]
    pub fn budget(mut self, budget: RunBudget) -> Self {
        self.config.budget = budget;
        self
    }

    /// Finish, yielding the configuration.
    #[must_use]
    pub fn build(self) -> EnsembleConfig {
        self.config
    }
}

impl EnsembleConfig {
    /// Start building a configuration from the defaults (see
    /// [`EnsembleConfigBuilder`]).
    #[must_use]
    pub fn builder() -> EnsembleConfigBuilder {
        EnsembleConfigBuilder::default()
    }

    /// The paper's smallest reported ensemble size (16 shots), e.g. for
    /// the Listing 4 p-values.
    #[must_use]
    pub fn paper_small() -> Self {
        Self {
            shots: 16,
            ..Self::default()
        }
    }

    /// Builder-style shot count override.
    ///
    /// All `with_*` methods take `&self` and return a modified clone,
    /// so one base configuration can spawn any number of variants
    /// (`base.with_parallel(false)`, `base.with_parallel(true)`, …).
    #[must_use]
    pub fn with_shots(&self, shots: usize) -> Self {
        Self {
            shots,
            ..self.clone()
        }
    }

    /// Builder-style seed override.
    #[must_use]
    pub fn with_seed(&self, seed: u64) -> Self {
        Self {
            seed,
            ..self.clone()
        }
    }

    /// Builder-style significance level override.
    #[must_use]
    pub fn with_alpha(&self, alpha: f64) -> Self {
        Self {
            alpha,
            ..self.clone()
        }
    }

    /// Builder-style independence-test method override.
    #[must_use]
    pub fn with_independence(&self, method: IndependenceMethod) -> Self {
        Self {
            independence: method,
            ..self.clone()
        }
    }

    /// Builder-style parallelism override (see
    /// [`EnsembleConfig::parallel`]).
    #[must_use]
    pub fn with_parallel(&self, parallel: bool) -> Self {
        Self {
            parallel,
            ..self.clone()
        }
    }

    /// Builder-style execution-strategy override (see
    /// [`EnsembleConfig::strategy`]).
    #[must_use]
    pub fn with_strategy(&self, strategy: ExecutionStrategy) -> Self {
        Self {
            strategy,
            ..self.clone()
        }
    }

    /// Builder-style backend override (see [`EnsembleConfig::backend`]).
    #[must_use]
    pub fn with_backend(&self, backend: BackendChoice) -> Self {
        Self {
            backend,
            ..self.clone()
        }
    }

    /// Builder-style noise model override (see
    /// [`EnsembleConfig::noise`]).
    #[must_use]
    pub fn with_noise(&self, noise: NoiseModel) -> Self {
        Self {
            noise: if noise.is_noiseless() {
                None
            } else {
                Some(noise)
            },
            ..self.clone()
        }
    }

    /// Builder-style run-budget override (see
    /// [`EnsembleConfig::budget`]).
    #[must_use]
    pub fn with_budget(&self, budget: RunBudget) -> Self {
        Self {
            budget,
            ..self.clone()
        }
    }

    pub(crate) fn validate(&self) -> Result<(), CoreError> {
        if self.shots == 0 {
            return Err(CoreError::BadConfig("shots must be positive".into()));
        }
        if !(0.0..1.0).contains(&self.alpha) || self.alpha <= 0.0 {
            return Err(CoreError::BadConfig(format!(
                "alpha {} outside (0, 1)",
                self.alpha
            )));
        }
        Ok(())
    }
}

/// The measured ensemble at one breakpoint, plus the exact state for
/// cross-checking.
#[derive(Debug, Clone)]
pub struct MeasuredEnsemble {
    /// Full-register outcomes, one per shot.
    pub outcomes: Vec<u64>,
    /// The *ideal* (noiseless) simulated state at the breakpoint; the
    /// basis of the exact cross-check even when noise is enabled.
    pub state: State,
}

/// Executes programs breakpoint by breakpoint.
#[derive(Debug, Clone, Default)]
pub struct EnsembleRunner {
    config: EnsembleConfig,
    plan_cache: Option<Arc<PlanCache>>,
}

impl EnsembleRunner {
    /// Create a runner with the given configuration.
    #[must_use]
    pub fn new(config: EnsembleConfig) -> Self {
        Self {
            config,
            plan_cache: None,
        }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &EnsembleConfig {
        &self.config
    }

    /// Route this runner's internal compilations through a shared
    /// [`PlanCache`]: repeated sessions over the same program (the
    /// service common case) then reuse one lowered plan instead of
    /// recompiling, with the saving observable through the cache's
    /// hit/miss counters. Results are unchanged — a cached plan is the
    /// value a fresh compile would produce — so every bit-stability
    /// guarantee holds with or without the cache.
    #[must_use]
    pub fn with_plan_cache(mut self, cache: Arc<PlanCache>) -> Self {
        self.plan_cache = Some(cache);
        self
    }

    /// The program's plan, served from the plan cache when one is
    /// attached.
    fn plan_for_program(&self, program: &Program) -> Arc<CompiledCircuit> {
        match &self.plan_cache {
            Some(cache) => cache.plan_for_program(program),
            None => Arc::new(program.compile(OptLevel::Specialize)),
        }
    }

    /// Simulate the prefix for breakpoint `index` on the dense
    /// statevector and draw the ensemble.
    ///
    /// This is one step of the per-prefix *reference* path: it always
    /// replays the prefix from `|0…0⟩` regardless of
    /// [`EnsembleConfig::strategy`]. Use
    /// [`run_all`](EnsembleRunner::run_all) to get every breakpoint's
    /// ensemble at sweep cost.
    ///
    /// # Errors
    ///
    /// * [`CoreError::BadConfig`] for invalid configurations;
    /// * simulator errors for malformed programs;
    /// * [`CoreError::Interrupted`] when [`EnsembleConfig::budget`]
    ///   trips (ensemble-level APIs carry an all-`Unevaluated` partial;
    ///   the evaluated-prefix guarantee belongs to
    ///   [`check_program`](EnsembleRunner::check_program)).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range for the program's breakpoints.
    pub fn run_breakpoint(
        &self,
        program: &Program,
        index: usize,
    ) -> Result<MeasuredEnsemble, CoreError> {
        self.config.validate()?;
        let governor = Governor::new(&self.config.budget);
        let plan = self.plan_for_program(program);
        self.prefix_step::<State, _>(
            program,
            &plan,
            index,
            &governor,
            self.config.parallel,
            &measured_ensemble,
        )
        .map_err(|e| finalize_interrupt(program, e))
    }

    /// Produce every breakpoint's measured ensemble on the dense
    /// statevector (plus the ideal state for cross-checking), through
    /// the same engine as [`check_program`](EnsembleRunner::check_program)
    /// and honoring [`EnsembleConfig::strategy`]. Results are
    /// bit-for-bit identical across strategies, and to calling
    /// [`run_breakpoint`](EnsembleRunner::run_breakpoint) per index.
    ///
    /// # Errors
    ///
    /// Propagates configuration and simulation errors.
    pub fn run_all(&self, program: &Program) -> Result<Vec<MeasuredEnsemble>, CoreError> {
        self.config.validate()?;
        let governor = Governor::new(&self.config.budget);
        let plan = self.plan_for_program(program);
        let (ensembles, interrupted) =
            self.run_session::<State, _>(program, &plan, &governor, 0, None, measured_ensemble)?;
        match interrupted {
            None => Ok(ensembles),
            Some(cause) => Err(governor::interrupted(program, Vec::new(), cause)),
        }
    }

    /// Resolve [`EnsembleConfig::backend`] for this program, together
    /// with the plan every engine runs: the Clifford classification and
    /// the sparse-tier support bound are both read off it.
    fn resolve_backend(
        &self,
        program: &Program,
    ) -> Result<(ResolvedBackend, Arc<CompiledCircuit>), CoreError> {
        let plan = self.plan_for_program(program);
        let n = program.circuit().num_qubits();
        // A non-Pauli (Kraus) gate channel needs dense amplitudes for
        // its branch norms, so it pins the session to the statevector
        // engine — checked first so a Kraus session can never silently
        // drop its noise on a backend that can't unravel it.
        let kraus = self
            .config
            .noise
            .as_ref()
            .is_some_and(|m| !m.gate_noise_is_pauli());
        let engine = match self.config.backend {
            BackendChoice::Stabilizer if kraus => Err(CoreError::backend_unsupported(
                StabilizerState::NAME,
                "the noise model's gate channel is a Kraus channel \
                 (amplitude/phase damping or a general Kraus set); its \
                 branch probabilities depend on dense amplitudes the \
                 tableau does not track — use BackendChoice::Auto or \
                 Statevector",
            )),
            BackendChoice::Sparse if kraus => Err(CoreError::backend_unsupported(
                SparseState::NAME,
                "the noise model's gate channel is a Kraus channel \
                 (amplitude/phase damping or a general Kraus set); \
                 unraveling needs dense branch norms — use \
                 BackendChoice::Auto or Statevector",
            )),
            // Auto + Kraus: dense is the only engine that can unravel,
            // so route there whenever the program fits.
            BackendChoice::Auto if kraus && n <= qdb_sim::state::MAX_QUBITS => {
                Ok(ResolvedBackend::Statevector)
            }
            BackendChoice::Auto if kraus => Err(CoreError::backend_unsupported(
                State::NAME,
                format!(
                    "the noise model's gate channel is a Kraus channel, which \
                     only the dense statevector can unravel, but the program \
                     uses {n} qubits — past the dense {}-qubit ceiling; shrink \
                     the program or switch to a Pauli channel",
                    qdb_sim::state::MAX_QUBITS
                ),
            )),
            // Qubit-count capacity is validated here, at resolution
            // time, so an oversized session fails with a typed error
            // naming the ceiling instead of dying deep inside state
            // allocation.
            BackendChoice::Statevector if n > qdb_sim::state::MAX_QUBITS => {
                Err(CoreError::backend_unsupported(
                    State::NAME,
                    format!(
                        "the program uses {n} qubits but the dense statevector \
                         caps at {} (2ⁿ amplitudes); use BackendChoice::Auto, \
                         Stabilizer (Clifford programs), or Sparse (structured \
                         non-Clifford programs up to 64 qubits)",
                        qdb_sim::state::MAX_QUBITS
                    ),
                ))
            }
            BackendChoice::Statevector => Ok(ResolvedBackend::Statevector),
            BackendChoice::Sparse if n > qdb_sim::sparse::MAX_QUBITS => {
                Err(CoreError::backend_unsupported(
                    SparseState::NAME,
                    format!(
                        "the program uses {n} qubits but the sparse backend packs \
                         basis indices into a u64, capping it at {} qubits; use \
                         BackendChoice::Stabilizer for wider (Clifford) programs",
                        qdb_sim::sparse::MAX_QUBITS
                    ),
                ))
            }
            BackendChoice::Sparse => Ok(ResolvedBackend::Sparse),
            BackendChoice::Auto if plan.is_clifford() => Ok(ResolvedBackend::Stabilizer),
            // Within the dense ceiling, Auto stays bit-identical to the
            // default engine on non-Clifford programs (a documented
            // compatibility guarantee the tier-1 suite pins down).
            BackendChoice::Auto if n <= qdb_sim::state::MAX_QUBITS => {
                Ok(ResolvedBackend::Statevector)
            }
            BackendChoice::Auto => {
                // Past the dense ceiling and non-Clifford: the sparse
                // tier is the only candidate. Route to it when the
                // compiled plan's support bound says the state stays
                // sparse; otherwise fail with a typed error up front.
                let support_log2 = plan.support_log2_bound();
                if n <= qdb_sim::sparse::MAX_QUBITS && support_log2 <= SPARSE_SUPPORT_LOG2_LIMIT {
                    Ok(ResolvedBackend::Sparse)
                } else {
                    Err(CoreError::backend_unsupported(
                        State::NAME,
                        format!(
                            "no backend can run this program: {n} qubits exceeds the \
                             dense statevector's {}-qubit ceiling, the program is not \
                             Clifford (so the stabilizer tableau is out), and its \
                             compiled plan bounds the state support at 2^{support_log2} \
                             basis states — past the sparse tier's 2^{} budget",
                            qdb_sim::state::MAX_QUBITS,
                            SPARSE_SUPPORT_LOG2_LIMIT
                        ),
                    ))
                }
            }
            BackendChoice::Stabilizer if plan.is_clifford() => Ok(ResolvedBackend::Stabilizer),
            BackendChoice::Stabilizer => Err(CoreError::backend_unsupported(
                StabilizerState::NAME,
                "the program contains non-Clifford instructions \
                 (only h/s/sdg/x/y/z/cx/cy/cz/swap lower to the tableau); \
                 use BackendChoice::Auto or Statevector",
            )),
        };
        Ok((engine?, plan))
    }

    /// Run and check every breakpoint in the program, producing one
    /// report per assertion.
    ///
    /// The session runs on the backend [`EnsembleConfig::backend`]
    /// resolves to, through the one engine every backend shares: the
    /// stabilizer tableau scales Clifford programs to hundreds of
    /// qubits, and the sparse map structured programs past the dense
    /// ceiling.
    ///
    /// # Errors
    ///
    /// Propagates configuration, simulation, and statistics errors;
    /// [`CoreError::BackendUnsupported`] when an explicitly requested
    /// backend cannot run the program.
    pub fn check_program(&self, program: &Program) -> Result<Vec<AssertionReport>, CoreError> {
        self.check_program_inner(program, None, None)
    }

    /// Resume an interrupted [`check_program`](Self::check_program)
    /// session from its [`PartialReport`] checkpoint: re-enter the
    /// engines at [`PartialReport::resume_position`], splice the
    /// already-evaluated prefix in verbatim, and compute only the
    /// remaining breakpoints.
    ///
    /// Under the same configuration (same seed, shots, strategy,
    /// backend — anything that affects bits), the resumed result is
    /// **bit-identical** to the report an uninterrupted run would have
    /// produced: every breakpoint's ensemble is a pure function of
    /// `(seed, breakpoint, shot)`, so skipping completed breakpoints
    /// perturbs nothing downstream. A resumed session can itself trip
    /// again; the new [`CoreError::Interrupted`] partial then contains
    /// the spliced prefix plus whatever the resumed run added — resume
    /// is safely repeatable until the session completes.
    ///
    /// What resume *skips* depends on the engine: per-prefix sessions
    /// skip the whole prefix simulation for completed breakpoints;
    /// the trajectory tree skips their presampling, forks, and suffix
    /// replays (paying only the shared frontier walk); the checkpointed
    /// sweep skips their sampling and statistics (the walk itself is
    /// already `O(G)` once).
    ///
    /// # Errors
    ///
    /// [`CoreError::BadConfig`] when `partial` does not match `program`
    /// and this configuration (wrong report count, mismatched
    /// breakpoint labels/kinds, wrong shot count, or an evaluated
    /// prefix containing `Unevaluated` verdicts); otherwise as
    /// [`check_program`](Self::check_program).
    pub fn resume_program(
        &self,
        program: &Program,
        partial: &PartialReport,
    ) -> Result<Vec<AssertionReport>, CoreError> {
        self.validate_resume(program, partial)?;
        if partial.is_complete() {
            return Ok(partial.reports.clone());
        }
        self.check_program_inner(program, None, Some(partial))
    }

    /// [`resume_program`](Self::resume_program), additionally returning
    /// the trajectory-tree work census exactly as
    /// [`check_program_stats`](Self::check_program_stats) would — the
    /// census covers only the resumed suffix (completed breakpoints
    /// are never re-run, so they contribute no work).
    ///
    /// # Errors
    ///
    /// As [`resume_program`](Self::resume_program).
    pub fn resume_program_stats(
        &self,
        program: &Program,
        partial: &PartialReport,
    ) -> Result<(Vec<AssertionReport>, Option<NoisySessionStats>), CoreError> {
        self.validate_resume(program, partial)?;
        if partial.is_complete() {
            return Ok((partial.reports.clone(), None));
        }
        let mut stats = NoisySessionStats::default();
        let reports = self.check_program_inner(program, Some(&mut stats), Some(partial))?;
        Ok((reports, self.ran_tree().then_some(stats)))
    }

    /// Check that `partial` is a plausible checkpoint of `program`
    /// under this configuration — shape, per-breakpoint identity, and
    /// the strict-prefix invariant. Cheap (no simulation), so resume
    /// entry points always run it before touching an engine.
    fn validate_resume(&self, program: &Program, partial: &PartialReport) -> Result<(), CoreError> {
        let breakpoints = program.breakpoints();
        if partial.reports.len() != breakpoints.len() {
            return Err(CoreError::BadConfig(format!(
                "resume checkpoint covers {} breakpoints but the program has {}",
                partial.reports.len(),
                breakpoints.len()
            )));
        }
        if partial.completed > partial.reports.len() {
            return Err(CoreError::BadConfig(format!(
                "resume checkpoint claims {} completed of {} reports",
                partial.completed,
                partial.reports.len()
            )));
        }
        for (index, (report, bp)) in partial
            .reports
            .iter()
            .zip(breakpoints)
            .take(partial.completed)
            .enumerate()
        {
            if report.index != index || report.label != bp.label || report.kind != bp.kind {
                return Err(CoreError::BadConfig(format!(
                    "resume checkpoint entry {index} does not match breakpoint \
                     `{}` — it records `{}`",
                    bp.label, report.label
                )));
            }
            if report.verdict == Verdict::Unevaluated {
                return Err(CoreError::BadConfig(format!(
                    "resume checkpoint entry {index} inside the completed prefix \
                     is Unevaluated — the strict-prefix invariant is broken"
                )));
            }
            if report.shots != self.config.shots {
                return Err(CoreError::BadConfig(format!(
                    "resume checkpoint entry {index} was evaluated with {} shots \
                     but this configuration draws {} — resume requires the same \
                     configuration for bit-identical results",
                    report.shots, self.config.shots
                )));
            }
        }
        Ok(())
    }

    /// Whether this configuration routes through the trajectory tree
    /// (the engine whose work census [`NoisySessionStats`] reports).
    fn ran_tree(&self) -> bool {
        self.config
            .noise
            .as_ref()
            .is_some_and(NoiseModel::gate_noise_is_pauli)
            && self.config.strategy == ExecutionStrategy::Sweep
    }

    /// [`check_program`](EnsembleRunner::check_program), additionally
    /// returning the trajectory-tree work census when the session ran
    /// one (a noisy session under the default
    /// [`ExecutionStrategy::Sweep`], on either backend); `None`
    /// otherwise. The reports are bit-for-bit those of
    /// [`check_program`](EnsembleRunner::check_program).
    ///
    /// This is how benchmarks and tests *assert* the tree's scaling
    /// claims — unique-trajectory counts, replayed-suffix totals, pool
    /// allocation bounds — instead of trusting them.
    ///
    /// # Errors
    ///
    /// As [`check_program`](EnsembleRunner::check_program).
    pub fn check_program_stats(
        &self,
        program: &Program,
    ) -> Result<(Vec<AssertionReport>, Option<NoisySessionStats>), CoreError> {
        let mut stats = NoisySessionStats::default();
        let reports = self.check_program_inner(program, Some(&mut stats), None)?;
        Ok((reports, self.ran_tree().then_some(stats)))
    }

    fn check_program_inner(
        &self,
        program: &Program,
        stats: Option<&mut NoisySessionStats>,
        resume: Option<&PartialReport>,
    ) -> Result<Vec<AssertionReport>, CoreError> {
        self.config.validate()?;
        let governor = Governor::new(&self.config.budget);
        // The outermost containment boundary: a worker panic anywhere in
        // the session surfaces as `CoreError::Interrupted`, never as an
        // unwinding process. The governed engines hand back the reports
        // they completed before a trip (resumed sessions splice the
        // checkpoint prefix back in first); the re-wrap below pads the
        // remainder with `Verdict::Unevaluated` markers so the partial
        // always spans every breakpoint.
        match governor.contain(|| self.check_program_governed(program, stats, &governor, resume)) {
            Ok(result) => {
                let (completed, interrupted) = result?;
                match interrupted {
                    None => Ok(completed),
                    Some(cause) => Err(governor::interrupted(program, completed, cause)),
                }
            }
            Err(cause) => {
                // Even a panic outside any engine keeps the resumed
                // prefix: those reports were already on file.
                let kept = resume.map_or_else(Vec::new, |p| p.completed_reports().to_vec());
                Err(governor::interrupted(program, kept, cause))
            }
        }
    }

    /// The governed body of [`check_program`](Self::check_program):
    /// resolve the backend and run the session engine on it, polling
    /// the governor at op-batch granularity. Returns the reports of
    /// every breakpoint completed **in order** plus the trip cause, if
    /// any — the strict-prefix contract [`CoreError::Interrupted`]
    /// documents.
    fn check_program_governed(
        &self,
        program: &Program,
        stats: Option<&mut NoisySessionStats>,
        governor: &Governor,
        resume: Option<&PartialReport>,
    ) -> Result<(Vec<AssertionReport>, Option<InterruptCause>), CoreError> {
        // Resumed sessions re-enter the engine at the checkpoint
        // frontier: breakpoints before `start` are never re-checked —
        // their reports are spliced back in from the checkpoint, which
        // is sound (and bit-identical to an uninterrupted run) because
        // every breakpoint's ensemble is a pure function of the seed,
        // the breakpoint and the shot.
        let start = resume.map_or(0, PartialReport::resume_position);
        let (engine, plan) = self.resolve_backend(program)?;
        let (tail, interrupted) = match engine {
            ResolvedBackend::Statevector => self.run_session::<State, _>(
                program,
                &plan,
                governor,
                start,
                stats,
                |i, bp, o, s| self.report(i, bp, o, s),
            ),
            ResolvedBackend::Stabilizer => self.run_session::<StabilizerState, _>(
                program,
                &plan,
                governor,
                start,
                stats,
                |i, bp, o, s| self.report(i, bp, o, s),
            ),
            ResolvedBackend::Sparse => self.run_session::<SparseState, _>(
                program,
                &plan,
                governor,
                start,
                stats,
                |i, bp, o, s| self.report(i, bp, o, s),
            ),
        }?;
        let mut completed: Vec<AssertionReport> =
            resume.map_or_else(Vec::new, |p| p.reports[..start].to_vec());
        completed.extend(tail);
        Ok((completed, interrupted))
    }

    /// The session engine: run every breakpoint from `start` on
    /// backend `B` and hand each one's ensemble to `visit`, in order.
    ///
    /// Written against [`SimBackend`] alone, so every backend takes the
    /// same path:
    ///
    /// * in ideal mode the state walks the plan per
    ///   [`EnsembleConfig::strategy`] — a single `O(G)` sweep
    ///   ([`SweepRunner::walk_backend`]) or a per-breakpoint prefix
    ///   replay with breakpoints fanned out; both produce identical
    ///   ensembles because each is a pure function of the
    ///   configuration and the ideal checkpoint state;
    /// * with noise, the default [`ExecutionStrategy::Sweep`] runs the
    ///   trajectory tree ([`crate::trajectory`]) for Pauli channels,
    ///   while [`ExecutionStrategy::PerPrefix`] and Kraus channels
    ///   replay each shot as an independent noisy trajectory on a fresh
    ///   backend, shots fanned out; classical readout corruption then
    ///   flips the measured bits;
    /// * `visit` receives each breakpoint's outcomes packed over
    ///   [`EnsembleHook::measured_qubits`] and the *ideal* backend
    ///   state, the basis of the exact cross-check.
    ///
    /// Returns the visits of breakpoints `start..` completed before a
    /// trip (a strict prefix), plus the cause.
    fn run_session<B: EnsembleHook, T: Send>(
        &self,
        program: &Program,
        plan: &CompiledCircuit,
        governor: &Governor,
        start: usize,
        stats: Option<&mut NoisySessionStats>,
        visit: impl Fn(usize, &Breakpoint, Vec<u64>, &B) -> Result<T, CoreError> + Sync,
    ) -> Result<(Vec<T>, Option<InterruptCause>), CoreError> {
        let config = &self.config;
        let n = program.circuit().num_qubits();
        let measured = |bp: &Breakpoint| B::measured_qubits(n, &breakpoint_qubits(&bp.kind));
        // Outcomes pack into a u64; surface a typed error up front
        // rather than the samplers' packing-limit panic.
        for bp in program.breakpoints() {
            let width = measured(bp).len();
            if width > 64 {
                return Err(CoreError::RegisterTooWide {
                    name: bp.label.clone(),
                    width,
                    max: 64,
                });
            }
        }
        match (&config.noise, config.strategy) {
            (Some(noise), ExecutionStrategy::Sweep) if noise.gate_noise_is_pauli() => {
                crate::trajectory::run_noisy_tree::<B, _>(
                    &crate::trajectory::NoisySession {
                        config,
                        program,
                        plan,
                        noise,
                        num_qubits: n,
                        resume_from: start,
                    },
                    governor,
                    measured,
                    visit,
                    stats,
                )
            }
            (None, ExecutionStrategy::Sweep) => {
                // Completed breakpoints skip sampling and statistics;
                // the walk still advances the state through them.
                let mut sampler = Sampler::default();
                let (visits, interrupted) = SweepRunner::new(config.clone())
                    .walk_backend_governed::<B, _>(
                        program,
                        plan,
                        governor,
                        |index, bp, ideal| {
                            if index < start {
                                return Ok(None);
                            }
                            let outcomes = ideal.draw_ideal(
                                config,
                                index,
                                &measured(bp),
                                governor,
                                config.parallel,
                                &mut sampler,
                            )?;
                            visit(index, bp, outcomes, ideal).map(Some)
                        },
                    )?;
                Ok((visits.into_iter().flatten().collect(), interrupted))
            }
            _ => {
                // One parallel axis, never nested: ideal sessions fan
                // out breakpoints; noisy ones run breakpoints serially
                // and fan out shots inside each.
                let fan_out = config.parallel && config.noise.is_none();
                let step = |index: usize| {
                    let parallel_shots = config.parallel && !fan_out;
                    self.prefix_step(program, plan, index, governor, parallel_shots, &visit)
                };
                let count = program.breakpoints().len();
                if fan_out {
                    // Every index is attempted (fanned-out work can't be
                    // retracted), but only the strictly completed prefix
                    // is kept, whichever worker tripped first.
                    let attempts: Vec<_> = (start..count).into_par_iter().map(step).collect();
                    strict_prefix(governor, attempts)
                } else {
                    strict_prefix(governor, (start..count).map(step))
                }
            }
        }
    }

    /// One per-prefix breakpoint: replay the plan's prefix onto a fresh
    /// ideal state with op-batch governor polling, draw the ensemble —
    /// the backend's ideal draw, or one noisy trajectory per shot — and
    /// visit. Panic-contained; trips surface as sentinel
    /// [`CoreError::Interrupted`] errors.
    fn prefix_step<B: EnsembleHook, T>(
        &self,
        program: &Program,
        plan: &CompiledCircuit,
        index: usize,
        governor: &Governor,
        parallel_shots: bool,
        visit: &impl Fn(usize, &Breakpoint, Vec<u64>, &B) -> Result<T, CoreError>,
    ) -> Result<T, CoreError> {
        let bp = &program.breakpoints()[index];
        governor
            .contain(|| {
                // A latched trip skips the whole prefix replay.
                governor.poll_resident(0).map_err(governor::trip_error)?;
                if let Some(cause) = governor.injected_fork_fault() {
                    return Err(governor::trip_error(cause));
                }
                let n = program.circuit().num_qubits();
                let mut ideal = governor.zero_state::<B>(n)?;
                plan.apply_range_to_backend_polled(
                    &mut ideal,
                    0..bp.position,
                    Governor::batch_ops(n),
                    &mut |state: &B, _| governor.poll(state),
                )
                .map_err(governor::trip_error)?;
                let qubits = B::measured_qubits(n, &breakpoint_qubits(&bp.kind));
                let outcomes = match &self.config.noise {
                    None => ideal.draw_ideal(
                        &self.config,
                        index,
                        &qubits,
                        governor,
                        parallel_shots,
                        &mut Sampler::default(),
                    )?,
                    Some(noise) => fan_out_shots(parallel_shots, self.config.shots, |shot| {
                        governor.contain(|| {
                            if let Some(cause) = governor.injected_fork_fault() {
                                return Err(governor::trip_error(cause));
                            }
                            let mut trajectory = governor.zero_state::<B>(n)?;
                            governor.poll(&trajectory).map_err(governor::trip_error)?;
                            let mut rng = StdRng::seed_from_u64(shot_seed(
                                self.config.seed,
                                index as u64,
                                shot as u64,
                            ));
                            plan.apply_range_to_noisy_backend(
                                &mut trajectory,
                                0..bp.position,
                                noise,
                                &mut rng,
                            );
                            let raw = trajectory.sample_once(&qubits, &mut rng);
                            Ok(noise.corrupt_readout(raw, qubits.len(), &mut rng))
                        })
                    })?,
                };
                visit(index, bp, outcomes, &ideal)
            })
            .unwrap_or_else(|cause| Err(governor::trip_error(cause)))
    }

    /// The one report builder: project a breakpoint's outcomes (packed
    /// over [`EnsembleHook::measured_qubits`]) onto the asserted
    /// qubits, run the statistical test, and attach the exact verdict
    /// from the ideal state and the first register's histogram.
    fn report<B: EnsembleHook>(
        &self,
        index: usize,
        bp: &Breakpoint,
        outcomes: Vec<u64>,
        ideal: &B,
    ) -> Result<AssertionReport, CoreError> {
        let asserted = breakpoint_qubits(&bp.kind);
        let measured = B::measured_qubits(ideal.num_qubits(), &asserted);
        let outcomes = if measured == asserted {
            outcomes
        } else {
            let positions: Vec<usize> = asserted
                .iter()
                .map(|q| {
                    measured
                        .iter()
                        .position(|m| m == q)
                        .expect("every asserted qubit is measured")
                })
                .collect();
            outcomes
                .iter()
                .map(|&o| extract_bits(o, &positions))
                .collect()
        };
        // `outcomes` now packs the bits of `asserted` in order, so a
        // single register's values are the outcomes themselves, and a
        // register pair splits at the first register's width.
        let outcome = match &bp.kind {
            BreakpointKind::Classical { expected, .. } => {
                check_classical(&outcomes, *expected, self.config.alpha)?
            }
            BreakpointKind::Superposition { register } => check_superposition(
                &outcomes,
                register.width(),
                self.config.alpha,
            )
            .map_err(|e| match e {
                CoreError::RegisterTooWide { width, max, .. } => CoreError::RegisterTooWide {
                    name: register.name().to_string(),
                    width,
                    max,
                },
                other => other,
            })?,
            BreakpointKind::Entangled { a, .. } => {
                let pairs = split_pairs(&outcomes, a.width());
                check_entangled_with(&pairs, self.config.alpha, self.config.independence)?
            }
            BreakpointKind::Product { a, .. } => {
                let pairs = split_pairs(&outcomes, a.width());
                check_product_with(&pairs, self.config.alpha, self.config.independence)?
            }
        };
        let exact = self
            .config
            .exact_cross_check
            .then(|| exact_verdict_on(&bp.kind, ideal, self.config.exact_tol));
        let histogram = match &bp.kind {
            BreakpointKind::Classical { .. } | BreakpointKind::Superposition { .. } => {
                outcomes.iter().copied().collect()
            }
            BreakpointKind::Entangled { a, .. } | BreakpointKind::Product { a, .. } => {
                let mask = register_mask(a.width());
                outcomes.iter().map(|&o| o & mask).collect()
            }
        };
        Ok(AssertionReport {
            index,
            label: bp.label.clone(),
            kind: bp.kind.clone(),
            test: outcome.test,
            shots: self.config.shots,
            statistic: outcome.statistic,
            dof: outcome.dof,
            p_value: outcome.p_value,
            verdict: outcome.verdict,
            histogram,
            exact,
        })
    }
}

/// `BackendChoice::Auto` routes past the dense ceiling to the sparse
/// tier only when the compiled plan bounds the support at
/// `2^SPARSE_SUPPORT_LOG2_LIMIT` basis states — about a million support
/// entries (~16 MiB), comfortably cheap — and refuses (with a typed
/// error) above it: an estimated-dense 40-qubit program would otherwise
/// run for geological time instead of failing fast. Explicitly
/// requesting `BackendChoice::Sparse` bypasses the estimate.
const SPARSE_SUPPORT_LOG2_LIMIT: usize = 20;

/// How [`EnsembleRunner::resolve_backend`] routed a session.
enum ResolvedBackend {
    /// The dense statevector.
    Statevector,
    /// The stabilizer tableau (the plan is Clifford-only).
    Stabilizer,
    /// The sparse amplitude map (for `Auto`, the plan's
    /// [`CompiledCircuit::support_log2_bound`] judged it sparse-friendly).
    Sparse,
}

/// How a backend draws its ensembles — the one place the session
/// engine treats backends differently. The stabilizer and sparse
/// backends take the defaults; the dense impl keeps the sampling
/// convention every pre-backend seed in this repository was chosen
/// against.
pub(crate) trait EnsembleHook: SimBackend {
    /// The qubits each shot of a breakpoint's ensemble reads out,
    /// packed LSB-first, given the session width and the qubits the
    /// assertion reads (which the report builder projects onto).
    /// Default: the asserted qubits alone, so readout error flips only
    /// them.
    fn measured_qubits(num_qubits: usize, asserted: &[usize]) -> Vec<usize> {
        let _ = num_qubits;
        asserted.to_vec()
    }

    /// Draw breakpoint `index`'s ideal ensemble of packed outcomes of
    /// `qubits` from `self`. Default: shot `s` owns the RNG stream
    /// `shot_seed(seed, index, s)` and polls the governor, so shots are
    /// free to fan out (when `parallel`) without changing a bit.
    /// `sampler` is a scratch buffer the caller keeps across
    /// breakpoints.
    fn draw_ideal(
        &self,
        config: &EnsembleConfig,
        index: usize,
        qubits: &[usize],
        governor: &Governor,
        parallel: bool,
        sampler: &mut Sampler,
    ) -> Result<Vec<u64>, CoreError> {
        let _ = sampler;
        fan_out_shots(parallel, config.shots, |shot| {
            governor.contain(|| {
                governor.poll(self).map_err(governor::trip_error)?;
                let mut rng =
                    StdRng::seed_from_u64(shot_seed(config.seed, index as u64, shot as u64));
                Ok(self.sample_once(qubits, &mut rng))
            })
        })
    }
}

impl EnsembleHook for StabilizerState {}

impl EnsembleHook for SparseState {}

/// Below this many shots the dense draw's per-shot CDF inversions (one
/// binary search each) are cheaper than fanning work out to threads, so
/// sampling stays on the calling thread even with `parallel` on. The
/// choice never affects results.
pub(crate) const PARALLEL_SAMPLING_MIN_SHOTS: usize = 4096;

impl EnsembleHook for State {
    /// The full register, `num_qubits.max(1)` bits: every bit of a
    /// noisy shot's readout is corrupted, then projected.
    fn measured_qubits(num_qubits: usize, _asserted: &[usize]) -> Vec<usize> {
        (0..num_qubits.max(1)).collect()
    }

    /// One `StdRng` seeded `seed + index` per breakpoint, inverted
    /// through the state's CDF over the full register (the caller's
    /// `sampler` is rebuilt, so one `2ⁿ` buffer serves a whole sweep).
    /// With `parallel` on and enough shots the uniforms are still drawn
    /// serially from that stream; only the CDF inversions fan out, so
    /// the ensemble is identical either way. The governor is polled
    /// once, against the sampled state, before the draw.
    fn draw_ideal(
        &self,
        config: &EnsembleConfig,
        index: usize,
        _qubits: &[usize],
        governor: &Governor,
        parallel: bool,
        sampler: &mut Sampler,
    ) -> Result<Vec<u64>, CoreError> {
        governor.poll(self).map_err(governor::trip_error)?;
        let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(index as u64));
        sampler.rebuild(self);
        Ok(if parallel && config.shots >= PARALLEL_SAMPLING_MIN_SHOTS {
            let uniforms: Vec<f64> = (0..config.shots).map(|_| rng.gen::<f64>()).collect();
            let sampler = &*sampler;
            (0..config.shots)
                .into_par_iter()
                .map(|shot| sampler.sample_at(uniforms[shot]))
                .collect()
        } else {
            sampler.sample_many(&mut rng, config.shots)
        })
    }
}

/// Run `shots` panic-contained shots, fanned out when `parallel`; a
/// contained panic surfaces as its sentinel trip error.
fn fan_out_shots(
    parallel: bool,
    shots: usize,
    one_shot: impl Fn(usize) -> Result<Result<u64, CoreError>, InterruptCause> + Sync,
) -> Result<Vec<u64>, CoreError> {
    let one_shot = |shot| one_shot(shot).unwrap_or_else(|cause| Err(governor::trip_error(cause)));
    if parallel {
        (0..shots).into_par_iter().map(one_shot).collect()
    } else {
        (0..shots).map(one_shot).collect()
    }
}

/// Keep the strictly completed prefix of per-breakpoint attempts: stop
/// at the first trip (returning its cause) or error.
fn strict_prefix<T>(
    governor: &Governor,
    attempts: impl IntoIterator<Item = Result<T, CoreError>>,
) -> Result<(Vec<T>, Option<InterruptCause>), CoreError> {
    let mut completed = Vec::new();
    for attempt in attempts {
        match attempt {
            Ok(item) => completed.push(item),
            Err(CoreError::Interrupted { cause, .. }) => {
                governor.trip(cause.clone());
                return Ok((completed, Some(cause)));
            }
            Err(e) => return Err(e),
        }
    }
    Ok((completed, None))
}

/// The visit behind [`EnsembleRunner::run_all`] and
/// [`EnsembleRunner::run_breakpoint`]: keep the full-register outcomes
/// and a copy of the ideal state.
fn measured_ensemble(
    _index: usize,
    _bp: &Breakpoint,
    outcomes: Vec<u64>,
    ideal: &State,
) -> Result<MeasuredEnsemble, CoreError> {
    Ok(MeasuredEnsemble {
        outcomes,
        state: ideal.clone(),
    })
}

/// The qubits a breakpoint's assertion measures, in packing order: the
/// register's qubits (LSB first), or the first register's then the
/// second's for two-register assertions.
fn breakpoint_qubits(kind: &BreakpointKind) -> Vec<usize> {
    match kind {
        BreakpointKind::Classical { register, .. } | BreakpointKind::Superposition { register } => {
            register.qubits().to_vec()
        }
        BreakpointKind::Entangled { a, b } | BreakpointKind::Product { a, b } => {
            a.qubits().iter().chain(b.qubits()).copied().collect()
        }
    }
}

/// The low `width` bits (valid for `width ≤ 64`).
fn register_mask(width: usize) -> u64 {
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
/// ([`QReg::new`](qdb_circuit::QReg::new) enforces it), so under the
/// 64-qubit packing guard the first register leaves the second at
/// least one bit.
fn split_pairs(outcomes: &[u64], a_width: usize) -> Vec<(u64, u64)> {
    debug_assert!(
        a_width < 64,
        "first register must leave room for the second"
    );
    let mask = register_mask(a_width);
    outcomes.iter().map(|&o| (o & mask, o >> a_width)).collect()
}

/// Promote an inner engine's sentinel interruption (empty partial — see
/// [`governor::trip_error`]) into the outward-facing form whose partial
/// spans every breakpoint of `program` with `Unevaluated` markers.
/// Single-breakpoint and ensemble entry points use this where no
/// evaluated prefix exists by construction; an `Interrupted` that
/// already carries reports passes through untouched, as does every
/// other error.
fn finalize_interrupt(program: &Program, e: CoreError) -> CoreError {
    match e {
        CoreError::Interrupted { cause, partial } if partial.reports.is_empty() => {
            governor::interrupted(program, Vec::new(), cause)
        }
        other => other,
    }
}

/// Derive the RNG seed for one noisy-trajectory shot.
///
/// SplitMix64-style finalization over `(seed, breakpoint, shot)`: shot
/// streams are decorrelated from each other and from the noiseless
/// sampling stream, and — because the seed is a pure function of the
/// three indices — the resulting ensemble is independent of thread
/// count, scheduling order, and the serial/parallel switch.
pub(crate) fn shot_seed(seed: u64, breakpoint: u64, shot: u64) -> u64 {
    let mut z = seed
        ^ breakpoint.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ shot.wrapping_mul(0xD134_2543_DE82_EF95);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Verdict;
    use qdb_circuit::{GateSink, QReg};

    fn bell_program() -> (Program, QReg, QReg) {
        let mut p = Program::new();
        let q = p.alloc_register("q", 2);
        p.h(q.bit(0));
        p.cx(q.bit(0), q.bit(1));
        let m0 = QReg::new("m0", vec![q.bit(0)]);
        let m1 = QReg::new("m1", vec![q.bit(1)]);
        (p, m0, m1)
    }

    #[test]
    fn config_validation() {
        let bad_shots = EnsembleConfig::default().with_shots(0);
        assert!(bad_shots.validate().is_err());
        let bad_alpha = EnsembleConfig::default().with_alpha(0.0);
        assert!(bad_alpha.validate().is_err());
        let bad_alpha2 = EnsembleConfig::default().with_alpha(1.5);
        assert!(bad_alpha2.validate().is_err());
        assert!(EnsembleConfig::default().validate().is_ok());
    }

    #[test]
    fn run_breakpoint_draws_requested_shots() {
        let (mut p, m0, m1) = bell_program();
        p.assert_entangled(&m0, &m1);
        let runner = EnsembleRunner::new(EnsembleConfig::default().with_shots(64));
        let ens = runner.run_breakpoint(&p, 0).unwrap();
        assert_eq!(ens.outcomes.len(), 64);
        // Bell state: only 0b00 and 0b11 occur.
        assert!(ens.outcomes.iter().all(|&o| o == 0 || o == 3));
    }

    #[test]
    fn check_program_bell_entangled_passes() {
        let (mut p, m0, m1) = bell_program();
        p.assert_entangled(&m0, &m1);
        let reports = EnsembleRunner::new(EnsembleConfig::default())
            .check_program(&p)
            .unwrap();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].verdict, Verdict::Pass);
        assert_eq!(reports[0].exact, Some(Verdict::Pass));
        assert!(!reports[0].disagrees_with_exact());
    }

    #[test]
    fn check_program_is_reproducible() {
        let (mut p, m0, m1) = bell_program();
        p.assert_entangled(&m0, &m1);
        let runner = EnsembleRunner::new(EnsembleConfig::default().with_seed(7));
        let a = runner.check_program(&p).unwrap();
        let b = runner.check_program(&p).unwrap();
        assert_eq!(a[0].p_value.to_bits(), b[0].p_value.to_bits());
    }

    #[test]
    fn sixteen_shot_bell_matches_paper_p_value() {
        // With a perfect Bell state every 16-shot ensemble splits k / 16−k
        // between 00 and 11; the paper's table (8/8) gives p ≈ 0.0005.
        let (mut p, m0, m1) = bell_program();
        p.assert_entangled(&m0, &m1);
        let runner = EnsembleRunner::new(EnsembleConfig::paper_small().with_seed(3));
        let reports = runner.check_program(&p).unwrap();
        assert_eq!(reports[0].verdict, Verdict::Pass);
        assert!(reports[0].p_value < 0.05);
    }

    #[test]
    fn histogram_tracks_first_register() {
        let (mut p, m0, m1) = bell_program();
        p.assert_entangled(&m0, &m1);
        let reports = EnsembleRunner::new(EnsembleConfig::default().with_shots(100))
            .check_program(&p)
            .unwrap();
        let h = &reports[0].histogram;
        assert_eq!(h.total(), 100);
        assert_eq!(h.count(0) + h.count(1), 100);
    }

    #[test]
    fn multiple_breakpoints_reported_in_order() {
        let mut p = Program::new();
        let r = p.alloc_register("r", 2);
        p.prep_int(&r, 2);
        p.assert_classical(&r, 2);
        p.h(r.bit(0));
        p.h(r.bit(1));
        p.assert_superposition(&r);
        let reports = EnsembleRunner::new(EnsembleConfig::default())
            .check_program(&p)
            .unwrap();
        assert_eq!(reports.len(), 2);
        assert!(reports[0].passed());
        assert!(reports[1].passed());
        assert_eq!(reports[0].index, 0);
        assert_eq!(reports[1].index, 1);
    }

    #[test]
    fn noiseless_noise_model_is_normalized_away() {
        let config = EnsembleConfig::default().with_noise(qdb_sim::NoiseModel::noiseless());
        assert!(config.noise.is_none());
    }

    #[test]
    fn noisy_ensembles_still_pass_robust_assertions_at_low_noise() {
        let (mut p, m0, m1) = bell_program();
        p.assert_entangled(&m0, &m1);
        let config = EnsembleConfig::default()
            .with_shots(256)
            .with_seed(3)
            .with_noise(qdb_sim::NoiseModel::depolarizing(0.005));
        let reports = EnsembleRunner::new(config).check_program(&p).unwrap();
        assert_eq!(reports[0].verdict, Verdict::Pass, "{}", reports[0]);
    }

    #[test]
    fn heavy_readout_noise_breaks_classical_assertion() {
        let mut p = Program::new();
        let r = p.alloc_register("r", 3);
        p.prep_int(&r, 5);
        p.assert_classical(&r, 5);
        let config = EnsembleConfig::default()
            .with_shots(256)
            .with_seed(4)
            .with_noise(qdb_sim::NoiseModel::readout_only(0.25));
        let reports = EnsembleRunner::new(config).check_program(&p).unwrap();
        assert_eq!(reports[0].verdict, Verdict::Fail);
        // The exact verdict (ideal state) still says PASS: the
        // disagreement localizes the problem to hardware, not code.
        assert_eq!(reports[0].exact, Some(Verdict::Pass));
        assert!(reports[0].disagrees_with_exact());
    }

    #[test]
    fn noisy_runs_are_reproducible() {
        let (mut p, m0, m1) = bell_program();
        p.assert_entangled(&m0, &m1);
        let config = EnsembleConfig::default()
            .with_shots(64)
            .with_seed(5)
            .with_noise(qdb_sim::NoiseModel::depolarizing(0.05));
        let a = EnsembleRunner::new(config.clone())
            .run_breakpoint(&p, 0)
            .unwrap();
        let b = EnsembleRunner::new(config).run_breakpoint(&p, 0).unwrap();
        assert_eq!(a.outcomes, b.outcomes);
    }

    #[test]
    fn serial_and_parallel_noisy_ensembles_are_identical() {
        let (mut p, m0, m1) = bell_program();
        p.assert_entangled(&m0, &m1);
        let base = EnsembleConfig::default()
            .with_shots(128)
            .with_seed(11)
            .with_noise(qdb_sim::NoiseModel::depolarizing(0.02).with_readout_flip(0.01));
        let serial = EnsembleRunner::new(base.with_parallel(false))
            .run_breakpoint(&p, 0)
            .unwrap();
        let parallel = EnsembleRunner::new(base.with_parallel(true))
            .run_breakpoint(&p, 0)
            .unwrap();
        assert_eq!(serial.outcomes, parallel.outcomes);
    }

    #[test]
    fn serial_and_parallel_sessions_agree_bit_for_bit() {
        let mut p = Program::new();
        let r = p.alloc_register("r", 2);
        p.prep_int(&r, 2);
        p.assert_classical(&r, 2);
        p.h(r.bit(0));
        p.h(r.bit(1));
        p.assert_superposition(&r);
        let base = EnsembleConfig::default()
            .with_shots(96)
            .with_seed(21)
            .with_noise(qdb_sim::NoiseModel::depolarizing(0.01));
        let serial = EnsembleRunner::new(base.with_parallel(false))
            .check_program(&p)
            .unwrap();
        let parallel = EnsembleRunner::new(base.with_parallel(true))
            .check_program(&p)
            .unwrap();
        assert_eq!(serial.len(), parallel.len());
        for (s, q) in serial.iter().zip(&parallel) {
            assert_eq!(s.verdict, q.verdict);
            assert_eq!(s.p_value.to_bits(), q.p_value.to_bits());
            assert_eq!(s.statistic.to_bits(), q.statistic.to_bits());
        }
    }

    #[test]
    fn shot_seeds_are_decorrelated() {
        // No collisions across neighbouring (breakpoint, shot) pairs.
        let mut seen = std::collections::HashSet::new();
        for bp in 0..8u64 {
            for shot in 0..1024u64 {
                assert!(seen.insert(shot_seed(42, bp, shot)));
            }
        }
    }

    fn assert_reports_bit_identical(a: &[AssertionReport], b: &[AssertionReport]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.index, y.index);
            assert_eq!(x.label, y.label);
            assert_eq!(x.kind, y.kind);
            assert_eq!(x.test, y.test);
            assert_eq!(x.shots, y.shots);
            assert_eq!(x.statistic.to_bits(), y.statistic.to_bits());
            assert_eq!(x.dof, y.dof);
            assert_eq!(x.p_value.to_bits(), y.p_value.to_bits());
            assert_eq!(x.verdict, y.verdict);
            assert_eq!(x.exact, y.exact);
        }
    }

    #[test]
    fn sweep_and_per_prefix_reports_are_bit_identical() {
        let mut p = Program::new();
        let r = p.alloc_register("r", 3);
        p.prep_int(&r, 5);
        p.assert_classical(&r, 5);
        for i in 0..3 {
            p.h(r.bit(i));
        }
        p.assert_superposition(&r);
        p.cx(r.bit(0), r.bit(1));
        let a = QReg::new("a", vec![r.bit(0)]);
        let b = QReg::new("b", vec![r.bit(1)]);
        p.assert_entangled(&a, &b);
        for parallel in [false, true] {
            let base = EnsembleConfig::default()
                .with_shots(200)
                .with_seed(13)
                .with_parallel(parallel);
            let sweep = EnsembleRunner::new(base.with_strategy(ExecutionStrategy::Sweep))
                .check_program(&p)
                .unwrap();
            let prefix = EnsembleRunner::new(base.with_strategy(ExecutionStrategy::PerPrefix))
                .check_program(&p)
                .unwrap();
            assert_reports_bit_identical(&sweep, &prefix);
        }
    }

    #[test]
    fn run_all_matches_per_breakpoint_runs() {
        let (mut p, m0, m1) = bell_program();
        p.assert_entangled(&m0, &m1);
        let config = EnsembleConfig::default().with_shots(64).with_seed(2);
        for strategy in [ExecutionStrategy::Sweep, ExecutionStrategy::PerPrefix] {
            let runner = EnsembleRunner::new(config.with_strategy(strategy));
            let all = runner.run_all(&p).unwrap();
            assert_eq!(all.len(), 1);
            let single = runner.run_breakpoint(&p, 0).unwrap();
            assert_eq!(all[0].outcomes, single.outcomes);
            assert_eq!(all[0].state, single.state);
        }
    }

    #[test]
    fn noisy_tree_and_per_shot_reference_reports_are_bit_identical() {
        // Two different engines — the trajectory tree (Sweep) and the
        // per-shot reference (PerPrefix) — one contract. The broader
        // property test lives in tests/trajectory_equivalence.rs.
        let (mut p, m0, m1) = bell_program();
        p.assert_entangled(&m0, &m1);
        let base = EnsembleConfig::default()
            .with_shots(64)
            .with_seed(5)
            .with_noise(qdb_sim::NoiseModel::depolarizing(0.02));
        let sweep = EnsembleRunner::new(base.with_strategy(ExecutionStrategy::Sweep))
            .check_program(&p)
            .unwrap();
        let prefix = EnsembleRunner::new(base.with_strategy(ExecutionStrategy::PerPrefix))
            .check_program(&p)
            .unwrap();
        assert_reports_bit_identical(&sweep, &prefix);
    }

    #[test]
    fn sweep_and_per_prefix_do_the_same_gate_work_per_breakpoint() {
        let mut p = Program::new();
        let r = p.alloc_register("r", 4);
        for i in 0..4 {
            p.h(r.bit(i));
        }
        for _ in 0..8 {
            p.ccx(r.bit(0), r.bit(1), r.bit(2));
            p.cphase(r.bit(2), r.bit(3), 0.4);
            p.cswap(r.bit(0), r.bit(1), r.bit(3));
        }
        p.assert_superposition(&r);
        let config = EnsembleConfig::default().with_shots(16);
        let swept = EnsembleRunner::new(config.clone()).run_all(&p).unwrap();
        let replayed = EnsembleRunner::new(config.with_strategy(ExecutionStrategy::PerPrefix))
            .run_all(&p)
            .unwrap();
        // Same ensembles and gate counts. (Both replay the compiled
        // plan; `qdb-circuit` checks that it does strictly less index
        // work than the interpreter.)
        assert_eq!(swept[0].outcomes, replayed[0].outcomes);
        assert_eq!(swept[0].state.gate_ops(), replayed[0].state.gate_ops());
    }

    #[test]
    fn builder_matches_with_methods() {
        let via_builder = EnsembleConfig::builder()
            .shots(64)
            .seed(7)
            .alpha(0.01)
            .parallel(false)
            .strategy(ExecutionStrategy::PerPrefix)
            .backend(BackendChoice::Auto)
            .noise(qdb_sim::NoiseModel::depolarizing(0.01))
            .build();
        let via_with = EnsembleConfig::default()
            .with_shots(64)
            .with_seed(7)
            .with_alpha(0.01)
            .with_parallel(false)
            .with_strategy(ExecutionStrategy::PerPrefix)
            .with_backend(BackendChoice::Auto)
            .with_noise(qdb_sim::NoiseModel::depolarizing(0.01));
        assert_eq!(via_builder, via_with);
        // A noiseless model normalizes away, exactly as with_noise does.
        assert!(EnsembleConfig::builder()
            .noise(qdb_sim::NoiseModel::noiseless())
            .build()
            .noise
            .is_none());
    }

    #[test]
    fn stabilizer_backend_checks_bell_program() {
        let (mut p, m0, m1) = bell_program();
        p.assert_entangled(&m0, &m1);
        let config = EnsembleConfig::builder()
            .shots(256)
            .seed(7)
            .backend(BackendChoice::Stabilizer)
            .build();
        let reports = EnsembleRunner::new(config).check_program(&p).unwrap();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].verdict, Verdict::Pass, "{}", reports[0]);
        assert_eq!(reports[0].exact, Some(Verdict::Pass));
        assert_eq!(reports[0].shots, 256);
        assert_eq!(reports[0].histogram.total(), 256);
    }

    #[test]
    fn stabilizer_multi_breakpoint_program_passes() {
        let mut p = Program::new();
        let r = p.alloc_register("r", 3);
        p.prep_int(&r, 5);
        p.assert_classical(&r, 5);
        for i in 0..3 {
            p.h(r.bit(i));
        }
        p.assert_superposition(&r);
        p.h(r.bit(1)); // back to |0⟩ so the CX genuinely entangles
        p.cx(r.bit(0), r.bit(1));
        let a = QReg::new("a", vec![r.bit(0)]);
        let b = QReg::new("b", vec![r.bit(1)]);
        p.assert_entangled(&a, &b);
        let config = EnsembleConfig::builder()
            .shots(256)
            .seed(12)
            .backend(BackendChoice::Stabilizer)
            .build();
        let reports = EnsembleRunner::new(config).check_program(&p).unwrap();
        assert_eq!(reports.len(), 3);
        for report in &reports {
            assert_eq!(report.verdict, Verdict::Pass, "{report}");
            assert_eq!(report.exact, Some(Verdict::Pass), "{report}");
        }
    }

    #[test]
    fn auto_matches_stabilizer_on_clifford_programs() {
        let (mut p, m0, m1) = bell_program();
        p.assert_entangled(&m0, &m1);
        let base = EnsembleConfig::builder().shots(128).seed(9).build();
        let auto = EnsembleRunner::new(base.with_backend(BackendChoice::Auto))
            .check_program(&p)
            .unwrap();
        let stab = EnsembleRunner::new(base.with_backend(BackendChoice::Stabilizer))
            .check_program(&p)
            .unwrap();
        assert_reports_bit_identical(&auto, &stab);
    }

    #[test]
    fn auto_matches_statevector_on_non_clifford_programs() {
        let mut p = Program::new();
        let r = p.alloc_register("r", 2);
        p.h(r.bit(0));
        p.t(r.bit(0)); // non-Clifford ⇒ Auto must fall back, bit for bit
        p.cx(r.bit(0), r.bit(1));
        let a = QReg::new("a", vec![r.bit(0)]);
        let b = QReg::new("b", vec![r.bit(1)]);
        p.assert_entangled(&a, &b);
        let base = EnsembleConfig::builder().shots(128).seed(3).build();
        let auto = EnsembleRunner::new(base.with_backend(BackendChoice::Auto))
            .check_program(&p)
            .unwrap();
        let dense = EnsembleRunner::new(base.with_backend(BackendChoice::Statevector))
            .check_program(&p)
            .unwrap();
        assert_reports_bit_identical(&auto, &dense);
    }

    #[test]
    fn explicit_stabilizer_rejects_non_clifford_programs() {
        let mut p = Program::new();
        let r = p.alloc_register("r", 1);
        p.h(r.bit(0));
        p.t(r.bit(0));
        p.assert_superposition(&r);
        let config = EnsembleConfig::builder()
            .backend(BackendChoice::Stabilizer)
            .build();
        let err = EnsembleRunner::new(config).check_program(&p).unwrap_err();
        assert!(
            matches!(
                err,
                CoreError::BackendUnsupported {
                    backend: "stabilizer",
                    ..
                }
            ),
            "{err}"
        );
    }

    /// A GHZ ladder with a T phase on the control: non-Clifford, but
    /// support never exceeds two basis states at any width.
    fn wide_sparse_program(n: usize) -> (Program, QReg, QReg) {
        let mut p = Program::new();
        let q = p.alloc_register("q", n);
        p.h(q.bit(0));
        p.t(q.bit(0)); // non-Clifford: the tableau is out
        for i in 1..n {
            p.cx(q.bit(i - 1), q.bit(i));
        }
        let first = QReg::new("first", vec![q.bit(0)]);
        let last = QReg::new("last", vec![q.bit(n - 1)]);
        p.assert_entangled(&first, &last);
        (p, first, last)
    }

    #[test]
    fn oversized_dense_sessions_fail_at_resolution_time() {
        // 27 qubits, one past the dense ceiling: the explicit
        // statevector backend must fail with a typed error naming the
        // qubit count and the ceiling — not die inside allocation.
        let (p, _, _) = wide_sparse_program(27);
        let config = EnsembleConfig::builder()
            .backend(BackendChoice::Statevector)
            .build();
        let err = EnsembleRunner::new(config).check_program(&p).unwrap_err();
        match &err {
            CoreError::BackendUnsupported {
                backend: "statevector",
                reason,
            } => {
                assert!(reason.contains("27"), "{reason}");
                assert!(reason.contains("26"), "{reason}");
            }
            other => panic!("expected BackendUnsupported, got {other}"),
        }
    }

    #[test]
    fn auto_rejects_wide_branching_programs_with_a_typed_error() {
        // 27 qubits, a Hadamard on every one: non-Clifford (because of
        // the T), support bound 2²⁷ — no engine can run it, and Auto
        // must say so cleanly instead of panicking or allocating.
        let mut p = Program::new();
        let q = p.alloc_register("q", 27);
        for i in 0..27 {
            p.h(q.bit(i));
        }
        p.t(q.bit(0));
        let probe = QReg::new("probe", vec![q.bit(0)]);
        p.assert_superposition(&probe);
        let config = EnsembleConfig::builder()
            .backend(BackendChoice::Auto)
            .build();
        let err = EnsembleRunner::new(config).check_program(&p).unwrap_err();
        match &err {
            CoreError::BackendUnsupported { reason, .. } => {
                assert!(reason.contains("support"), "{reason}");
                assert!(reason.contains("26"), "{reason}");
            }
            other => panic!("expected BackendUnsupported, got {other}"),
        }
    }

    #[test]
    fn explicit_sparse_rejects_past_64_qubits() {
        let (p, _, _) = wide_sparse_program(65);
        let config = EnsembleConfig::builder()
            .backend(BackendChoice::Sparse)
            .build();
        let err = EnsembleRunner::new(config).check_program(&p).unwrap_err();
        assert!(
            matches!(
                err,
                CoreError::BackendUnsupported {
                    backend: "sparse",
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn auto_routes_wide_sparse_programs_to_the_sparse_backend() {
        // 40 qubits: unallocatable dense, non-Clifford, but the plan's
        // support bound (one branching gate) routes Auto to the sparse
        // tier — and the session must reach the right verdicts, both
        // statistical and exact.
        let (p, _, _) = wide_sparse_program(40);
        let base = EnsembleConfig::builder().shots(256).seed(19).build();
        let auto = EnsembleRunner::new(base.with_backend(BackendChoice::Auto))
            .check_program(&p)
            .unwrap();
        assert_eq!(auto.len(), 1);
        assert_eq!(auto[0].verdict, Verdict::Pass, "{}", auto[0]);
        assert_eq!(auto[0].exact, Some(Verdict::Pass));
        // Auto's resolution is exactly the explicit sparse session.
        let explicit = EnsembleRunner::new(base.with_backend(BackendChoice::Sparse))
            .check_program(&p)
            .unwrap();
        assert_reports_bit_identical(&auto, &explicit);
    }

    #[test]
    fn sparse_backend_matches_dense_verdicts_within_the_ceiling() {
        let mut p = Program::new();
        let r = p.alloc_register("r", 3);
        p.prep_int(&r, 5);
        p.assert_classical(&r, 5);
        for i in 0..3 {
            p.h(r.bit(i));
        }
        p.assert_superposition(&r);
        p.h(r.bit(1));
        p.t(r.bit(0));
        p.cx(r.bit(0), r.bit(1));
        let a = QReg::new("a", vec![r.bit(0)]);
        let b = QReg::new("b", vec![r.bit(1)]);
        p.assert_entangled(&a, &b);
        let base = EnsembleConfig::builder().shots(256).seed(14).build();
        let dense = EnsembleRunner::new(base.clone()).check_program(&p).unwrap();
        let sparse = EnsembleRunner::new(base.with_backend(BackendChoice::Sparse))
            .check_program(&p)
            .unwrap();
        assert_eq!(dense.len(), sparse.len());
        for (d, s) in dense.iter().zip(&sparse) {
            assert_eq!(d.verdict, s.verdict, "{d} vs {s}");
            assert_eq!(d.exact, s.exact);
        }
    }

    #[test]
    fn sparse_sweep_and_per_prefix_reports_are_bit_identical() {
        let (p, _, _) = wide_sparse_program(32);
        for parallel in [false, true] {
            let base = EnsembleConfig::builder()
                .shots(200)
                .seed(23)
                .parallel(parallel)
                .backend(BackendChoice::Sparse)
                .build();
            let sweep = EnsembleRunner::new(base.with_strategy(ExecutionStrategy::Sweep))
                .check_program(&p)
                .unwrap();
            let prefix = EnsembleRunner::new(base.with_strategy(ExecutionStrategy::PerPrefix))
                .check_program(&p)
                .unwrap();
            assert_reports_bit_identical(&sweep, &prefix);
        }
    }

    #[test]
    fn sparse_noisy_sessions_run_the_trajectory_tree_past_the_ceiling() {
        // Noise on a 30-qubit non-Clifford program: the trajectory tree
        // must run on the sparse backend (every fault is a Pauli, which
        // preserves support), and low noise must not flip the verdict.
        let (p, _, _) = wide_sparse_program(30);
        let config = EnsembleConfig::builder()
            .shots(128)
            .seed(31)
            .noise(qdb_sim::NoiseModel::depolarizing(0.0005))
            .backend(BackendChoice::Auto)
            .build();
        let (reports, stats) = EnsembleRunner::new(config).check_program_stats(&p).unwrap();
        assert_eq!(reports[0].verdict, Verdict::Pass, "{}", reports[0]);
        assert_eq!(reports[0].exact, Some(Verdict::Pass));
        assert!(stats.is_some(), "the sweep strategy runs the tree");
    }

    #[test]
    fn stabilizer_sweep_and_per_prefix_reports_are_bit_identical() {
        let mut p = Program::new();
        let r = p.alloc_register("r", 4);
        p.prep_int(&r, 9);
        p.assert_classical(&r, 9);
        p.h(r.bit(0));
        p.cx(r.bit(0), r.bit(2));
        p.s(r.bit(2));
        p.cz(r.bit(2), r.bit(3));
        let a = QReg::new("a", vec![r.bit(0)]);
        let b = QReg::new("b", vec![r.bit(2)]);
        p.assert_entangled(&a, &b);
        for parallel in [false, true] {
            let base = EnsembleConfig::builder()
                .shots(200)
                .seed(13)
                .parallel(parallel)
                .backend(BackendChoice::Stabilizer)
                .build();
            let sweep = EnsembleRunner::new(base.with_strategy(ExecutionStrategy::Sweep))
                .check_program(&p)
                .unwrap();
            let prefix = EnsembleRunner::new(base.with_strategy(ExecutionStrategy::PerPrefix))
                .check_program(&p)
                .unwrap();
            assert_reports_bit_identical(&sweep, &prefix);
        }
    }

    #[test]
    fn stabilizer_serial_and_parallel_sessions_agree() {
        let (mut p, m0, m1) = bell_program();
        p.assert_entangled(&m0, &m1);
        let base = EnsembleConfig::builder()
            .shots(512)
            .seed(21)
            .backend(BackendChoice::Stabilizer)
            .build();
        let serial = EnsembleRunner::new(base.with_parallel(false))
            .check_program(&p)
            .unwrap();
        let parallel = EnsembleRunner::new(base.with_parallel(true))
            .check_program(&p)
            .unwrap();
        assert_reports_bit_identical(&serial, &parallel);
    }

    #[test]
    fn stabilizer_noisy_sessions_localize_readout_noise() {
        let mut p = Program::new();
        let r = p.alloc_register("r", 3);
        p.prep_int(&r, 5);
        p.assert_classical(&r, 5);
        let config = EnsembleConfig::builder()
            .shots(256)
            .seed(4)
            .noise(qdb_sim::NoiseModel::readout_only(0.25))
            .backend(BackendChoice::Stabilizer)
            .build();
        let reports = EnsembleRunner::new(config).check_program(&p).unwrap();
        assert_eq!(reports[0].verdict, Verdict::Fail);
        // The exact verdict (ideal tableau) still says PASS: the
        // disagreement localizes the problem to hardware, not code.
        assert_eq!(reports[0].exact, Some(Verdict::Pass));
        assert!(reports[0].disagrees_with_exact());
    }

    #[test]
    fn stabilizer_noisy_trajectories_keep_robust_assertions_at_low_noise() {
        let (mut p, m0, m1) = bell_program();
        p.assert_entangled(&m0, &m1);
        let config = EnsembleConfig::builder()
            .shots(256)
            .seed(3)
            .noise(qdb_sim::NoiseModel::depolarizing(0.005))
            .backend(BackendChoice::Stabilizer)
            .build();
        let reports = EnsembleRunner::new(config).check_program(&p).unwrap();
        assert_eq!(reports[0].verdict, Verdict::Pass, "{}", reports[0]);
    }

    #[test]
    fn hundred_qubit_ghz_checks_on_the_stabilizer_backend() {
        // Far beyond the dense backend's 26-qubit cap: the same
        // assertion workflow, unchanged, at 100 qubits.
        let mut p = Program::new();
        let q = p.alloc_register("q", 100);
        p.h(q.bit(0));
        for i in 1..100 {
            p.cx(q.bit(i - 1), q.bit(i));
        }
        let first = QReg::new("first", vec![q.bit(0)]);
        let last = QReg::new("last", vec![q.bit(99)]);
        p.assert_entangled(&first, &last);
        let config = EnsembleConfig::builder()
            .shots(128)
            .seed(5)
            .backend(BackendChoice::Auto)
            .build();
        let reports = EnsembleRunner::new(config.clone())
            .check_program(&p)
            .unwrap();
        assert_eq!(reports[0].verdict, Verdict::Pass, "{}", reports[0]);
        assert_eq!(reports[0].exact, Some(Verdict::Pass));
        // The statevector backend cannot even allocate this program.
        let dense = EnsembleRunner::new(config.with_backend(BackendChoice::Statevector));
        assert!(dense.check_program(&p).is_err());
    }

    #[test]
    fn wrong_classical_assertion_fails() {
        let mut p = Program::new();
        let r = p.alloc_register("r", 3);
        p.prep_int(&r, 5);
        p.assert_classical(&r, 6); // wrong expectation
        let reports = EnsembleRunner::new(EnsembleConfig::default())
            .check_program(&p)
            .unwrap();
        assert_eq!(reports[0].verdict, Verdict::Fail);
        assert_eq!(reports[0].exact, Some(Verdict::Fail));
        assert!(reports[0].p_value < 1e-10);
    }
}
