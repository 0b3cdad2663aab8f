//! Mean-field (fluid-limit) ODE fast path: `O(1)`-memory simulation for
//! `n → ∞`.
//!
//! The batched and CSR engines made the *per-interaction* cost nearly free,
//! but total cost still grows with the interaction count — "what does
//! `n = 10¹²` do?" is unanswerable by exact simulation. Bournez et al.,
//! "On the Convergence of Population Protocols When Population Goes to
//! Infinity", show the rescaled occupancy trajectory `x(τ) = C(τ·n)/n`
//! of a protocol under uniform random pairing converges (in probability,
//! uniformly on compact time intervals) to the solution of a deterministic
//! ODE as `n → ∞`. This module derives that ODE **directly from the
//! transition table** of any registered protocol, integrates it with a
//! hand-rolled adaptive Dormand–Prince RK45 (zero new dependencies), and
//! optionally carries a linear-noise (Gaussian) correction so mid-scale
//! `n` gets error bars instead of just the deterministic limit.
//!
//! # The drift field and its normalization
//!
//! The count engines draw **ordered** pairs of distinct agents uniformly
//! (the conjugating-automata convention of §6: `n(n−1)` ordered pairs).
//! Per interaction, the expected occupancy-count change of state `s` is
//!
//! ```text
//! E[ΔC_s] = Σ_{(p,q)}  c_p (c_q − [p=q]) / (n(n−1)) · δ_{(p,q),s}
//! ```
//!
//! where `δ_{(p,q),s}` is the net change of state `s` under the rule
//! `δ(p, q)`. Measuring time in *parallel time* `τ = interactions / n`
//! (the convention every stabilization report in this workspace uses) and
//! letting `n → ∞` with `x = C/n` fixed gives the **drift field**
//!
//! ```text
//! dx_s/dτ  =  F_s(x)  =  Σ_{(p,q) reactive}  x_p · x_q · δ_{(p,q),s}
//! ```
//!
//! a degree-2 polynomial over the occupancy simplex, compiled here as a
//! sparse term list by [`DriftField::derive`] from
//! `DenseRuntime::transition_table`. Schedulers with a different pairing
//! convention rescale time only: an unordered-meeting scheduler runs the
//! same field at half the rate. [`DriftField::jacobian`] differentiates the
//! field by *central finite differences, which are exact on a quadratic
//! polynomial* (the error term carries the third derivative, identically
//! zero) — no symbolic machinery needed.
//!
//! # Diffusion (linear-noise) correction
//!
//! For finite `n` the trajectory fluctuates around the fluid limit. The
//! linear-noise approximation expands `C/n = x(τ) + ξ/√n` and yields a
//! covariance ODE integrated alongside the mean:
//!
//! ```text
//! dΣ/dτ = A(x) Σ + Σ A(x)ᵀ + B(x),   A = ∂F/∂x,
//! B(x)  = Σ_{(p,q) reactive} x_p x_q · δ_{(p,q)} δ_{(p,q)}ᵀ
//! ```
//!
//! so `Std[C_s/n] ≈ √(Σ_ss / n)` — see [`MeanFieldRun::std_dev`].
//!
//! # Where the fluid limit is *not* trustworthy
//!
//! The convergence theorem is uniform on compact time intervals and for
//! macroscopic initial fractions. Two structural failure modes are
//! detected and flagged ([`Divergence`]) instead of silently returning
//! garbage:
//!
//! * **Microscopic initial fractions** — a state holding `o(√n)` agents
//!   (e.g. a single infected seed) has relative fluctuations of order 1,
//!   so the finite-`n` trajectory is time-shifted by a random `Θ(1)`
//!   offset the deterministic limit cannot represent.
//! * **Vanishing-rate bottlenecks** — when the residual dynamics of a
//!   vanishing state are dominated by interactions between *two* vanishing
//!   states, the finite-`n` rate is `Θ(1/n²)` per interaction (`O(1)`
//!   agents meeting each other) while the fluid limit sees a smooth `x²`
//!   term: leader election's last-two-leaders duel is the canonical case —
//!   the ODE predicts an `n`-independent `1/(1+τ)` decay, the finite-`n`
//!   law needs `Θ(n)` parallel time.
//!
//! # Example
//!
//! ```
//! use pp_analysis::meanfield::{MeanField, MeanFieldOptions};
//! use pp_core::{FnProtocol, Simulation};
//!
//! // One-way epidemic, 2% infected: dx_I/dτ = 2·x_I·(1−x_I).
//! let epidemic = FnProtocol::new(
//!     |&b: &bool| b,
//!     |&q: &bool| q,
//!     |&p: &bool, &q: &bool| (p || q, p || q),
//! );
//! let mut sim = Simulation::from_counts(epidemic, [(true, 20_000u64), (false, 980_000)]);
//! let mf = MeanField::from_simulation(&mut sim);
//! let run = mf.run(&MeanFieldOptions::default());
//! assert!(run.divergences().is_empty());
//! // The logistic front saturates: terminal infected fraction ≈ 1.
//! let x = run.terminal_fractions();
//! assert!(x.iter().any(|&f| f > 0.999));
//! // Same question at n = 10¹²: O(1) memory, the ODE does not change.
//! let big = mf.with_population(1_000_000_000_000).run(&MeanFieldOptions::default());
//! assert!(big.predicted_stabilization_time(1e-3).unwrap() < 25.0);
//! ```

use std::collections::HashMap;
use std::sync::Arc;

use pp_core::registry::{DenseRuntime, StateId};
use pp_core::trace::Tracer;
use pp_core::{PopulationError, Probe, Protocol, Simulation};

use crate::linalg::Matrix;

// ---------------------------------------------------------------------------
// Drift field
// ---------------------------------------------------------------------------

/// One reactive ordered pair `(p, q)` of the compiled drift: fires at rate
/// `x_p · x_q` and applies the sparse net occupancy change `delta`.
#[derive(Debug, Clone, PartialEq)]
struct DriftTerm {
    p: u32,
    q: u32,
    /// Net occupancy change per state, nonzero entries only.
    delta: Vec<(u32, f64)>,
}

/// The compiled fluid-limit vector field of one protocol: a sparse list of
/// degree-2 terms over the occupancy simplex (see the [module
/// docs](self) for the derivation and rate normalization).
///
/// Derivation walks the full transition table once; share the result across
/// runs and populations through a [`DriftCache`] (fields are handed out as
/// `Arc<DriftField>`, so repeated queries on the same protocol pay
/// derivation exactly once).
#[derive(Debug, Clone, PartialEq)]
pub struct DriftField {
    dim: usize,
    terms: Vec<DriftTerm>,
}

impl DriftField {
    /// Compiles the drift field from a protocol's transition table: closes
    /// the state space under `δ` starting from `support` (see
    /// `DenseRuntime::transition_table`), then folds every *reactive*
    /// ordered pair into a sparse term. No-op pairs vanish (their net
    /// change is zero) — the term list is exactly the protocol's reactive
    /// pair set.
    ///
    /// # Errors
    ///
    /// [`PopulationError::StateSpaceExceeded`] if the closure passes
    /// [`CLOSURE_STATE_CAP`](pp_core::registry::CLOSURE_STATE_CAP) states.
    pub fn derive<P: Protocol>(
        rt: &mut DenseRuntime<P>,
        support: &[StateId],
    ) -> Result<Self, PopulationError> {
        let table = rt.transition_table(support)?;
        let dim = rt.state_count();
        let mut terms = Vec::new();
        let mut net = vec![0.0f64; dim];
        for ((p, q), (p2, q2)) in table {
            net[p.index()] -= 1.0;
            net[q.index()] -= 1.0;
            net[p2.index()] += 1.0;
            net[q2.index()] += 1.0;
            let delta: Vec<(u32, f64)> = net
                .iter()
                .enumerate()
                .filter(|&(_, &d)| d != 0.0)
                .map(|(s, &d)| (s as u32, d))
                .collect();
            for &(s, _) in &delta {
                net[s as usize] = 0.0;
            }
            if !delta.is_empty() {
                terms.push(DriftTerm { p: p.0, q: q.0, delta });
            }
        }
        Ok(Self { dim, terms })
    }

    /// Number of states (the dimension of the occupancy simplex).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of reactive ordered pairs (nonzero terms of the field).
    pub fn reactive_pairs(&self) -> usize {
        self.terms.len()
    }

    /// Evaluates the drift `F(x)` into `out` (`out.len() == dim`).
    pub fn eval(&self, x: &[f64], out: &mut [f64]) {
        out.fill(0.0);
        for t in &self.terms {
            let rate = x[t.p as usize] * x[t.q as usize];
            for &(s, d) in &t.delta {
                out[s as usize] += rate * d;
            }
        }
    }

    /// The Jacobian `A = ∂F/∂x` at `x`, by central finite differences with
    /// step `h = 1/2` — **exact** on this field (each `F_s` is a quadratic
    /// polynomial, so the `O(h²)` error term, which carries the third
    /// derivative, is identically zero; the wide step keeps the difference
    /// far from float cancellation).
    pub fn jacobian(&self, x: &[f64]) -> Matrix {
        let h = 0.5;
        let mut jac = Matrix::zeros(self.dim, self.dim);
        let mut xp = x.to_vec();
        let mut fp = vec![0.0; self.dim];
        let mut fm = vec![0.0; self.dim];
        for j in 0..self.dim {
            xp[j] = x[j] + h;
            self.eval(&xp, &mut fp);
            xp[j] = x[j] - h;
            self.eval(&xp, &mut fm);
            xp[j] = x[j];
            for s in 0..self.dim {
                jac[(s, j)] = (fp[s] - fm[s]) / (2.0 * h);
            }
        }
        jac
    }

    /// The diffusion matrix `B(x) = Σ_t x_p x_q · δ_t δ_tᵀ` of the
    /// linear-noise correction (see the [module docs](self)).
    pub fn diffusion(&self, x: &[f64]) -> Matrix {
        let mut b = Matrix::zeros(self.dim, self.dim);
        for t in &self.terms {
            let rate = x[t.p as usize] * x[t.q as usize];
            for &(s1, d1) in &t.delta {
                for &(s2, d2) in &t.delta {
                    b[(s1 as usize, s2 as usize)] += rate * d1 * d2;
                }
            }
        }
        b
    }
}

// ---------------------------------------------------------------------------
// Drift cache
// ---------------------------------------------------------------------------

/// A keyed cache of compiled drift fields: repeated mean-field queries on
/// the same protocol (the protocol-as-a-service reuse path) pay the
/// transition-table walk once and share the compiled field by `Arc`.
///
/// The key must identify the protocol *and* its initial support closure —
/// two supports with different `δ`-closures are different fields.
#[derive(Debug, Default)]
pub struct DriftCache {
    fields: HashMap<String, Arc<DriftField>>,
}

impl DriftCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the cached field for `key`, deriving and inserting it on
    /// first use.
    ///
    /// # Errors
    ///
    /// As for [`DriftField::derive`]; nothing is cached then.
    pub fn get_or_derive<P: Protocol>(
        &mut self,
        key: &str,
        rt: &mut DenseRuntime<P>,
        support: &[StateId],
    ) -> Result<Arc<DriftField>, PopulationError> {
        if let Some(f) = self.fields.get(key) {
            return Ok(Arc::clone(f));
        }
        let field = Arc::new(DriftField::derive(rt, support)?);
        self.fields.insert(key.to_string(), Arc::clone(&field));
        Ok(field)
    }

    /// Number of cached fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Whether `key` has a compiled field.
    pub fn contains(&self, key: &str) -> bool {
        self.fields.contains_key(key)
    }
}

// ---------------------------------------------------------------------------
// MeanField: a compiled field + an initial condition + a population
// ---------------------------------------------------------------------------

/// A mean-field problem instance: compiled drift field, initial occupancy
/// fractions, and the (arbitrarily large) population the answers are
/// phrased for. Integration cost is independent of the population — `n`
/// only scales the interaction-index axis of the emitted samples and the
/// `1/√n` width of the diffusion correction.
#[derive(Debug, Clone)]
pub struct MeanField {
    field: Arc<DriftField>,
    init: Vec<f64>,
    population: u64,
}

impl MeanField {
    /// Builds an instance from a compiled field, initial fractions (padded
    /// or truncated to the field dimension; must sum to ≈ 1), and a
    /// population.
    ///
    /// # Panics
    ///
    /// Panics if the fractions are negative or do not sum to 1 within
    /// `1e-9`, or if `population < 2`.
    pub fn new(field: Arc<DriftField>, mut init: Vec<f64>, population: u64) -> Self {
        assert!(population >= 2, "population must have at least 2 agents");
        init.resize(field.dim(), 0.0);
        assert!(init.iter().all(|&v| v >= 0.0), "fractions must be non-negative");
        let total: f64 = init.iter().sum();
        assert!(
            (total - 1.0).abs() < 1e-9,
            "fractions must sum to 1, got {total}"
        );
        Self { field, init, population }
    }

    /// Derives the instance from a count-engine simulation's current
    /// configuration: the drift field from its runtime's transition table,
    /// the initial fractions from its occupancy, the population from its
    /// size. The runtime's state space is closed under `δ` as a side
    /// effect (ids already interned keep their values).
    ///
    /// # Panics
    ///
    /// Panics if the closure passes
    /// [`CLOSURE_STATE_CAP`](pp_core::registry::CLOSURE_STATE_CAP) states;
    /// [`DriftField::derive`] reports that as an error instead.
    pub fn from_simulation<P: Protocol, Pr: Probe, Tr: Tracer>(
        sim: &mut Simulation<P, Pr, Tr>,
    ) -> Self {
        let n = sim.population();
        let support: Vec<StateId> =
            sim.config().support().map(|(s, _)| s).collect();
        let counts: Vec<u64> = sim.config().as_slice().to_vec();
        let field = Arc::new(
            DriftField::derive(sim.runtime_mut(), &support).unwrap_or_else(|e| panic!("{e}")),
        );
        let mut init: Vec<f64> = counts.iter().map(|&c| c as f64 / n as f64).collect();
        init.resize(field.dim(), 0.0);
        Self { field, init, population: n }
    }

    /// The same problem rephrased for a different population — the
    /// `n = 10¹²` query: identical ODE, `O(1)` memory, only the sample
    /// axis and the diffusion width change.
    pub fn with_population(&self, population: u64) -> Self {
        assert!(population >= 2, "population must have at least 2 agents");
        Self { field: Arc::clone(&self.field), init: self.init.clone(), population }
    }

    /// The compiled drift field (shared).
    pub fn field(&self) -> &Arc<DriftField> {
        &self.field
    }

    /// The initial occupancy fractions.
    pub fn init_fractions(&self) -> &[f64] {
        &self.init
    }

    /// The population the run's samples are phrased for.
    pub fn population(&self) -> u64 {
        self.population
    }

    /// Integrates the fluid limit and returns the run. See
    /// [`MeanFieldOptions`] for the knobs; cost is independent of
    /// [`population`](Self::population).
    ///
    /// # Panics
    ///
    /// Panics if `opts.diffusion` is set and the state space has more than
    /// 64 states (the covariance ODE is `dim²`-dimensional).
    pub fn run(&self, opts: &MeanFieldOptions) -> MeanFieldRun {
        integrate(self, opts)
    }
}

// ---------------------------------------------------------------------------
// Options
// ---------------------------------------------------------------------------

/// Integration and detection knobs for [`MeanField::run`].
#[derive(Debug, Clone)]
pub struct MeanFieldOptions {
    /// Relative local-error tolerance of the RK45 controller.
    pub rtol: f64,
    /// Absolute local-error tolerance of the RK45 controller.
    pub atol: f64,
    /// Integration horizon in parallel time (`τ = interactions / n`).
    pub horizon: f64,
    /// Integrate the linear-noise covariance ODE alongside the mean.
    pub diffusion: bool,
    /// Geometric factor of the log-spaced sample schedule (matches
    /// `TrajectoryProbe`'s convention).
    pub growth: f64,
    /// Sample cap; the schedule decimates and squares its factor when full
    /// (again matching `TrajectoryProbe`).
    pub max_samples: usize,
    /// Fractions below this count as *vanishing* for divergence detection.
    pub vanish_tol: f64,
    /// Early stop: the run is *quiescent* once `‖F(x)‖₁` falls below this.
    pub quiescence_tol: f64,
    /// Hard cap on accepted+rejected steps (runaway guard).
    pub max_steps: u64,
}

impl Default for MeanFieldOptions {
    fn default() -> Self {
        Self {
            rtol: 1e-6,
            atol: 1e-9,
            horizon: 200.0,
            diffusion: false,
            growth: 1.25,
            max_samples: 1024,
            vanish_tol: 1e-2,
            quiescence_tol: 1e-10,
            max_steps: 1_000_000,
        }
    }
}

// ---------------------------------------------------------------------------
// Divergence detection
// ---------------------------------------------------------------------------

/// A structural reason the fluid limit is expected to part from the
/// finite-`n` law (see the [module docs](self) for both mechanisms).
#[derive(Debug, Clone, PartialEq)]
pub enum Divergence {
    /// An initially occupied state holds `o(√n)` agents: its relative
    /// fluctuation is order 1, so the finite-`n` trajectory is shifted by
    /// a random time offset the deterministic limit cannot see.
    MicroscopicInitialFraction {
        /// The offending state.
        state: StateId,
        /// Its initial fraction.
        fraction: f64,
        /// `fraction · n` — the expected number of agents behind it.
        expected_agents: f64,
    },
    /// At the end of integration, a vanishing state's residual dynamics
    /// are dominated by interactions between two vanishing states: the
    /// finite-`n` rate there is `Θ(1/n²)` per interaction (leader
    /// election's last-duel bottleneck), which the fluid limit smooths
    /// into an `n`-independent tail.
    VanishingRateBottleneck {
        /// The vanishing state whose drift is bottlenecked.
        state: StateId,
        /// Its terminal fraction.
        fraction: f64,
        /// Share of its terminal drift mass carried by
        /// vanishing×vanishing terms (`> 1/2` triggers the flag).
        quadratic_share: f64,
    },
}

fn detect_divergences(
    field: &DriftField,
    init: &[f64],
    terminal: &[f64],
    population: u64,
    vanish_tol: f64,
) -> Vec<Divergence> {
    let mut out = Vec::new();
    let n = population as f64;
    let micro_floor = n.sqrt();
    for (s, &f) in init.iter().enumerate() {
        if f > 0.0 && f * n < micro_floor {
            out.push(Divergence::MicroscopicInitialFraction {
                state: StateId(s as u32),
                fraction: f,
                expected_agents: f * n,
            });
        }
    }
    // Terminal rate-bottleneck scan: for each vanishing state, split its
    // drift mass into quadratic-vanishing terms vs the rest.
    let vanishing: Vec<bool> = terminal.iter().map(|&x| x < vanish_tol).collect();
    let mut all_mass = vec![0.0f64; field.dim];
    let mut quad_mass = vec![0.0f64; field.dim];
    for t in &field.terms {
        let rate = (terminal[t.p as usize] * terminal[t.q as usize]).abs();
        let quad = vanishing[t.p as usize] && vanishing[t.q as usize];
        for &(s, d) in &t.delta {
            all_mass[s as usize] += rate * d.abs();
            if quad {
                quad_mass[s as usize] += rate * d.abs();
            }
        }
    }
    for s in 0..field.dim {
        if vanishing[s] && all_mass[s] > 0.0 && quad_mass[s] > 0.5 * all_mass[s] {
            out.push(Divergence::VanishingRateBottleneck {
                state: StateId(s as u32),
                fraction: terminal[s],
                quadratic_share: quad_mass[s] / all_mass[s],
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// The Dormand–Prince RK45 integrator
// ---------------------------------------------------------------------------

/// Dense-output coefficients of one accepted step: the standard DOPRI5
/// quartic interpolant `y(t₀+θh) = r₁ + θ(r₂ + (1−θ)(r₃ + θ(r₄ + (1−θ)r₅)))`.
#[derive(Debug, Clone)]
struct DenseSegment {
    t0: f64,
    h: f64,
    rcont: [Vec<f64>; 5],
}

impl DenseSegment {
    fn eval_into(&self, t: f64, out: &mut [f64]) {
        let th = ((t - self.t0) / self.h).clamp(0.0, 1.0);
        let th1 = 1.0 - th;
        for (i, o) in out.iter_mut().enumerate() {
            let [r1, r2, r3, r4, r5] = &self.rcont;
            *o = r1[i] + th * (r2[i] + th1 * (r3[i] + th * (r4[i] + th1 * r5[i])));
        }
    }
}

/// Butcher tableau of the Dormand–Prince 5(4) pair.
const A: [[f64; 6]; 6] = [
    [1.0 / 5.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3.0 / 40.0, 9.0 / 40.0, 0.0, 0.0, 0.0, 0.0],
    [44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0, 0.0, 0.0, 0.0],
    [19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0, 0.0, 0.0],
    [9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0, 0.0],
    [35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0],
];
/// Error coefficients `b − b̂` (5th-order weights minus the embedded 4th).
const E: [f64; 7] = [
    71.0 / 57600.0,
    0.0,
    -71.0 / 16695.0,
    71.0 / 1920.0,
    -17253.0 / 339200.0,
    22.0 / 525.0,
    -1.0 / 40.0,
];
/// Dense-output weights (Hairer's DOPRI5 `d` vector).
const D: [f64; 7] = [
    -12715105075.0 / 11282082432.0,
    0.0,
    87487479700.0 / 32700410799.0,
    -10690763975.0 / 1880347072.0,
    701980252875.0 / 199316789632.0,
    -1453857185.0 / 822651844.0,
    69997945.0 / 29380423.0,
];

/// Shared right-hand side: mean drift, plus the covariance ODE when the
/// state vector carries `dim²` covariance entries behind the mean.
fn rhs(field: &DriftField, y: &[f64], dy: &mut [f64]) {
    let dim = field.dim;
    field.eval(&y[..dim], &mut dy[..dim]);
    if y.len() > dim {
        let a = field.jacobian(&y[..dim]);
        let b = field.diffusion(&y[..dim]);
        let cov = &y[dim..];
        let dcov = &mut dy[dim..];
        // dΣ = AΣ + ΣAᵀ + B, Σ stored row-major.
        for i in 0..dim {
            for j in 0..dim {
                let mut v = b[(i, j)];
                for k in 0..dim {
                    v += a[(i, k)] * cov[k * dim + j] + cov[i * dim + k] * a[(j, k)];
                }
                dcov[i * dim + j] = v;
            }
        }
    }
}

fn rms_error(err: &[f64], y0: &[f64], y1: &[f64], atol: f64, rtol: f64) -> f64 {
    let mut acc = 0.0;
    for i in 0..err.len() {
        let scale = atol + rtol * y0[i].abs().max(y1[i].abs());
        let e = err[i] / scale;
        acc += e * e;
    }
    (acc / err.len() as f64).sqrt()
}

fn integrate(mf: &MeanField, opts: &MeanFieldOptions) -> MeanFieldRun {
    let field = &*mf.field;
    let dim = field.dim;
    let n = mf.population;
    let ylen = if opts.diffusion {
        assert!(
            dim <= 64,
            "diffusion correction needs dim ≤ 64 (covariance is dim² entries), got {dim}"
        );
        dim + dim * dim
    } else {
        dim
    };

    let mut y = vec![0.0f64; ylen];
    y[..dim].copy_from_slice(&mf.init);
    let mut t = 0.0f64;

    let mut k: Vec<Vec<f64>> = vec![vec![0.0; ylen]; 7];
    {
        let mut k0 = std::mem::take(&mut k[0]);
        rhs(field, &y, &mut k0);
        k[0] = k0;
    }

    let mut segments: Vec<DenseSegment> = Vec::new();
    let mut sampler = SampleSchedule::new(opts.growth, opts.max_samples);
    let mut samples: Vec<(u64, Vec<u64>)> = Vec::new();
    sampler.emit(0, &y[..dim], n, &mut samples);

    let mut h = (opts.horizon * 1e-4).clamp(1e-10, 1e-2);
    let mut err_old: f64 = 1e-4;
    let mut accepted = 0u64;
    let mut rejected = 0u64;
    let mut quiescent_at: Option<f64> = None;

    let mut ynew = vec![0.0f64; ylen];
    let mut ystage = vec![0.0f64; ylen];
    let mut errv = vec![0.0f64; ylen];

    let mut steps = 0u64;
    while t < opts.horizon && steps < opts.max_steps {
        steps += 1;
        h = h.min(opts.horizon - t);
        // Six derivative stages (k[0] carried over by FSAL), then k[6] at
        // the candidate endpoint.
        for s in 0..6 {
            for i in 0..ylen {
                let mut acc = 0.0;
                for (j, kj) in k.iter().enumerate().take(s + 1) {
                    acc += A[s][j] * kj[i];
                }
                ystage[i] = y[i] + h * acc;
            }
            let mut ks = std::mem::take(&mut k[s + 1]);
            rhs(field, &ystage, &mut ks);
            k[s + 1] = ks;
            if s == 5 {
                ynew.copy_from_slice(&ystage);
            }
        }
        for i in 0..ylen {
            let mut e = 0.0;
            for (j, kj) in k.iter().enumerate() {
                e += E[j] * kj[i];
            }
            errv[i] = h * e;
        }
        let err = rms_error(&errv, &y, &ynew, opts.atol, opts.rtol);
        if err <= 1.0 {
            // Accept: store dense coefficients, advance, emit samples.
            let mut rcont: [Vec<f64>; 5] = [
                y.clone(),
                vec![0.0; ylen],
                vec![0.0; ylen],
                vec![0.0; ylen],
                vec![0.0; ylen],
            ];
            for i in 0..ylen {
                let dy = ynew[i] - y[i];
                rcont[1][i] = dy;
                rcont[2][i] = h * k[0][i] - dy;
                rcont[3][i] = dy - h * k[6][i] - rcont[2][i];
                let mut d = 0.0;
                for (j, kj) in k.iter().enumerate() {
                    d += D[j] * kj[i];
                }
                rcont[4][i] = h * d;
            }
            let seg = DenseSegment { t0: t, h, rcont };
            let t1 = t + h;
            sampler.emit_range(&seg, t1, dim, n, &mut samples);
            segments.push(seg);
            t = t1;
            y.copy_from_slice(&ynew);
            k.swap(0, 6); // FSAL
            accepted += 1;
            // Quiescence: ‖F(x)‖₁ on the mean part.
            let drift_l1: f64 = k[0][..dim].iter().map(|v| v.abs()).sum();
            if drift_l1 < opts.quiescence_tol {
                quiescent_at = Some(t);
                break;
            }
            let err_cl = err.max(1e-10);
            let fac = 0.9 * err_cl.powf(-0.7 / 5.0) * err_old.powf(0.4 / 5.0);
            h *= fac.clamp(0.2, 10.0);
            err_old = err_cl;
        } else {
            rejected += 1;
            h *= (0.9 * err.powf(-0.2)).clamp(0.2, 1.0);
        }
        if h < 1e-14 {
            // Step size collapsed — bail out with what we have rather than
            // spinning (cannot happen for polynomial fields in practice).
            break;
        }
    }

    // Terminal sample (exactly once, at the final time).
    let terminal_step = (t * n as f64).round() as u64;
    if samples.last().map(|&(s, _)| s) != Some(terminal_step) {
        sampler.emit(terminal_step, &y[..dim], n, &mut samples);
    }

    let divergences =
        detect_divergences(field, &mf.init, &y[..dim], n, opts.vanish_tol);

    MeanFieldRun {
        field: Arc::clone(&mf.field),
        population: n,
        dim,
        diffusion: opts.diffusion,
        segments,
        samples,
        terminal: y,
        terminal_time: t,
        quiescent_at,
        divergences,
        accepted_steps: accepted,
        rejected_steps: rejected,
    }
}

// ---------------------------------------------------------------------------
// Log-spaced sampling (TrajectoryProbe's schedule on the ODE time axis)
// ---------------------------------------------------------------------------

struct SampleSchedule {
    next: u64,
    growth: f64,
    max_samples: usize,
}

impl SampleSchedule {
    fn new(growth: f64, max_samples: usize) -> Self {
        assert!(growth > 1.0, "sampling factor must exceed 1, got {growth}");
        assert!(max_samples >= 8, "need at least 8 samples, got {max_samples}");
        Self { next: 0, growth, max_samples }
    }

    fn emit(&mut self, step: u64, x: &[f64], n: u64, out: &mut Vec<(u64, Vec<u64>)>) {
        if out.len() >= self.max_samples {
            let kept: Vec<_> = out.iter().step_by(2).cloned().collect();
            *out = kept;
            self.growth *= self.growth;
        }
        out.push((step, occupancy_counts(x, n)));
        let geometric = (step as f64 * self.growth).ceil() as u64;
        self.next = geometric.max(step + 1);
    }

    /// Emits every scheduled sample with `step/n` inside `(seg.t0, t1]`.
    fn emit_range(
        &mut self,
        seg: &DenseSegment,
        t1: f64,
        dim: usize,
        n: u64,
        out: &mut Vec<(u64, Vec<u64>)>,
    ) {
        let mut x = vec![0.0f64; dim];
        loop {
            let tau = self.next as f64 / n as f64;
            if tau > t1 {
                return;
            }
            let at = self.next;
            seg.eval_into(tau, &mut x);
            self.emit(at, &x, n, out);
        }
    }
}

/// Rounds fractions to occupancy counts summing to exactly `n`
/// (largest-remainder apportionment; negative float dust clamps to zero).
fn occupancy_counts(x: &[f64], n: u64) -> Vec<u64> {
    let clamped: Vec<f64> = x.iter().map(|&v| v.max(0.0)).collect();
    let total: f64 = clamped.iter().sum();
    if total <= 0.0 {
        let mut out = vec![0u64; x.len().max(1)];
        out[0] = n;
        return out;
    }
    let mut counts: Vec<u64> = Vec::with_capacity(x.len());
    let mut fracs: Vec<(f64, usize)> = Vec::with_capacity(x.len());
    let mut placed = 0u64;
    for (i, &v) in clamped.iter().enumerate() {
        let ideal = v / total * n as f64;
        let fl = ideal.floor();
        counts.push(fl as u64);
        placed += fl as u64;
        fracs.push((ideal - fl, i));
    }
    let mut rem = n - placed.min(n);
    fracs.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1)));
    for &(_, i) in &fracs {
        if rem == 0 {
            break;
        }
        counts[i] += 1;
        rem -= 1;
    }
    counts
}

// ---------------------------------------------------------------------------
// MeanFieldRun
// ---------------------------------------------------------------------------

/// The result of one fluid-limit integration: a dense trajectory over
/// parallel time, log-spaced occupancy samples phrased for the instance's
/// population (the same `(interaction index, occupancy)` shape
/// [`TrajectoryProbe::samples`](pp_core::observe::TrajectoryProbe::samples) emits, so every downstream consumer of
/// engine trajectories accepts mean-field ones unchanged), the optional
/// linear-noise covariance, and the divergence flags.
#[derive(Debug, Clone)]
pub struct MeanFieldRun {
    field: Arc<DriftField>,
    population: u64,
    dim: usize,
    diffusion: bool,
    segments: Vec<DenseSegment>,
    samples: Vec<(u64, Vec<u64>)>,
    /// Terminal state vector (mean, then covariance when enabled).
    terminal: Vec<f64>,
    terminal_time: f64,
    quiescent_at: Option<f64>,
    divergences: Vec<Divergence>,
    accepted_steps: u64,
    rejected_steps: u64,
}

impl MeanFieldRun {
    /// The recorded `(interaction index, occupancy)` series — the exact
    /// shape of [`TrajectoryProbe::samples`](pp_core::observe::TrajectoryProbe::samples), occupancies rounded to sum
    /// to the population (largest-remainder).
    pub fn samples(&self) -> &[(u64, Vec<u64>)] {
        &self.samples
    }

    /// The population the samples are phrased for.
    pub fn population(&self) -> u64 {
        self.population
    }

    /// The drift field the run integrated (shared with its [`MeanField`]).
    pub fn field(&self) -> &Arc<DriftField> {
        &self.field
    }

    /// Occupancy fractions at parallel time `tau`, by dense-output
    /// interpolation (clamped to the integrated range).
    pub fn fractions_at(&self, tau: f64) -> Vec<f64> {
        let mut out = vec![0.0f64; self.dim];
        if self.segments.is_empty() || tau >= self.terminal_time {
            out.copy_from_slice(&self.terminal[..self.dim]);
            return out;
        }
        let idx = self
            .segments
            .partition_point(|s| s.t0 + s.h < tau)
            .min(self.segments.len() - 1);
        self.segments[idx].eval_into(tau, &mut out);
        out
    }

    /// Occupancy counts at interaction index `step` (dense interpolation,
    /// largest-remainder rounding).
    pub fn occupancy_at_step(&self, step: u64) -> Vec<u64> {
        let tau = step as f64 / self.population as f64;
        occupancy_counts(&self.fractions_at(tau), self.population)
    }

    /// Terminal occupancy fractions.
    pub fn terminal_fractions(&self) -> &[f64] {
        &self.terminal[..self.dim]
    }

    /// Final integration time (parallel time).
    pub fn terminal_time(&self) -> f64 {
        self.terminal_time
    }

    /// Parallel time at which `‖F(x)‖₁` fell below the quiescence
    /// tolerance, if it did before the horizon. Protocols whose fluid
    /// limit never settles (rotating phase-clock pulses; leader election's
    /// polynomial tail) return `None` — often a companion signal to a
    /// [`Divergence`] flag.
    pub fn quiescent_at(&self) -> Option<f64> {
        self.quiescent_at
    }

    /// Structural reasons to distrust this fluid limit (empty = none
    /// detected). See [`Divergence`].
    pub fn divergences(&self) -> &[Divergence] {
        &self.divergences
    }

    /// `(accepted, rejected)` RK45 step counts.
    pub fn step_counts(&self) -> (u64, u64) {
        (self.accepted_steps, self.rejected_steps)
    }

    /// The earliest sampled parallel time `τ` such that every later
    /// sample stays within total-variation distance `eps` of the terminal
    /// fractions — the fluid-limit prediction of the stabilization time.
    ///
    /// Returns `None` when a [`Divergence`] was flagged: a predicted time
    /// from a distrusted limit is exactly the silent garbage this module
    /// refuses to return. (The trajectory itself stays inspectable through
    /// [`samples`](Self::samples).)
    pub fn predicted_stabilization_time(&self, eps: f64) -> Option<f64> {
        if !self.divergences.is_empty() {
            return None;
        }
        let terminal = &self.terminal[..self.dim];
        let mut hit = self.terminal_time;
        for (step, occ) in self.samples.iter().rev() {
            let total: u64 = occ.iter().sum();
            let tv = occ
                .iter()
                .enumerate()
                .map(|(i, &c)| (c as f64 / total as f64 - terminal[i].max(0.0)).abs())
                .sum::<f64>()
                / 2.0;
            if tv > eps {
                break;
            }
            hit = *step as f64 / self.population as f64;
        }
        Some(hit)
    }

    /// [`predicted_stabilization_time`](Self::predicted_stabilization_time)
    /// in interaction counts for this population.
    pub fn predicted_stabilization_interactions(&self, eps: f64) -> Option<u64> {
        self.predicted_stabilization_time(eps)
            .map(|tau| (tau * self.population as f64).ceil() as u64)
    }

    /// Linear-noise standard deviation of state `s`'s occupancy *fraction*
    /// at the terminal time: `√(Σ_ss / n)`. `None` unless the run was
    /// integrated with [`MeanFieldOptions::diffusion`].
    pub fn std_dev(&self, s: StateId) -> Option<f64> {
        if !self.diffusion {
            return None;
        }
        let cov = self.terminal[self.dim + s.index() * self.dim + s.index()];
        Some((cov.max(0.0) / self.population as f64).sqrt())
    }

    /// Full linear-noise covariance of the occupancy fractions at the
    /// terminal time (entries `Σ_ij / n`). `None` unless the run was
    /// integrated with [`MeanFieldOptions::diffusion`].
    pub fn covariance(&self) -> Option<Matrix> {
        if !self.diffusion {
            return None;
        }
        let mut m = Matrix::zeros(self.dim, self.dim);
        for i in 0..self.dim {
            for j in 0..self.dim {
                m[(i, j)] =
                    self.terminal[self.dim + i * self.dim + j] / self.population as f64;
            }
        }
        Some(m)
    }

    /// Maximum total-variation distance between this run and an engine
    /// trajectory (e.g. [`TrajectoryProbe::samples`](pp_core::observe::TrajectoryProbe::samples)): for each engine
    /// sample, the ODE occupancy is interpolated at the *same interaction
    /// index* and compared; occupancy vectors shorter than the field
    /// dimension are zero-padded (probes grow their vectors lazily).
    pub fn tv_against(&self, samples: &[(u64, Vec<u64>)]) -> f64 {
        let mut worst = 0.0f64;
        for (step, occ) in samples {
            let x = self.fractions_at(*step as f64 / self.population as f64);
            let total: u64 = occ.iter().sum();
            if total == 0 {
                continue;
            }
            let mut tv = 0.0;
            for (i, &xf) in x.iter().enumerate() {
                let ef = occ.get(i).copied().unwrap_or(0) as f64 / total as f64;
                tv += (ef - xf.max(0.0)).abs();
            }
            worst = worst.max(tv / 2.0);
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_core::observe::TrajectoryProbe;
    use pp_core::{seeded_rng, FnProtocol};
    use pp_protocols::{ApproximateMajority, LeaderElection, PhaseClock};

    fn epidemic() -> impl Protocol<State = bool, Input = bool, Output = bool> {
        FnProtocol::new(
            |&b: &bool| b,
            |&q: &bool| q,
            |&p: &bool, &q: &bool| (p || q, p || q),
        )
    }

    /// Closed form of the epidemic fluid limit from infected fraction `x0`:
    /// logistic growth `x(τ) = x0·e^{2τ} / (1 − x0 + x0·e^{2τ})`.
    fn logistic(x0: f64, tau: f64) -> f64 {
        let g = x0 * (2.0 * tau).exp();
        g / (1.0 - x0 + g)
    }

    fn epidemic_mf(infected: u64, n: u64) -> MeanField {
        let mut sim =
            Simulation::from_counts(epidemic(), [(true, infected), (false, n - infected)]);
        MeanField::from_simulation(&mut sim)
    }

    #[test]
    fn epidemic_drift_is_the_logistic_field() {
        let mf = epidemic_mf(100_000, 1_000_000);
        let field = mf.field();
        assert_eq!(field.dim(), 2);
        // Reactive ordered pairs: (I, S) and (S, I).
        assert_eq!(field.reactive_pairs(), 2);
        // dx_I/dτ = 2·x_S·x_I at any point of the simplex.
        let mut f = vec![0.0; 2];
        // State ids: true (infected) interned first by from_counts order.
        let x = [0.3, 0.7];
        field.eval(&x, &mut f);
        assert!((f[0] - 2.0 * 0.3 * 0.7).abs() < 1e-12, "dx_I = {}", f[0]);
        assert!((f[1] + 2.0 * 0.3 * 0.7).abs() < 1e-12, "dx_S = {}", f[1]);
    }

    #[test]
    fn fd_jacobian_is_exact_on_the_quadratic_field() {
        let mf = epidemic_mf(100_000, 1_000_000);
        let x = [0.25, 0.75];
        let jac = mf.field().jacobian(&x);
        // F_I = 2·x_I·x_S: ∂/∂x_I = 2x_S, ∂/∂x_S = 2x_I; F_S = −F_I.
        assert!((jac[(0, 0)] - 2.0 * x[1]).abs() < 1e-9);
        assert!((jac[(0, 1)] - 2.0 * x[0]).abs() < 1e-9);
        assert!((jac[(1, 0)] + 2.0 * x[1]).abs() < 1e-9);
        assert!((jac[(1, 1)] + 2.0 * x[0]).abs() < 1e-9);
    }

    #[test]
    fn rk45_tracks_the_logistic_closed_form() {
        let mf = epidemic_mf(10_000, 1_000_000); // x0 = 1%
        let run = mf.run(&MeanFieldOptions::default());
        for tau in [0.5, 1.0, 2.5, 5.0, 8.0] {
            let got = run.fractions_at(tau)[0];
            let want = logistic(0.01, tau);
            assert!(
                (got - want).abs() < 1e-6,
                "x_I({tau}) = {got}, closed form {want}"
            );
        }
        assert!(run.quiescent_at().is_some(), "epidemic absorbs");
        assert!(run.divergences().is_empty());
    }

    #[test]
    fn leader_election_matches_its_closed_form_and_is_flagged() {
        // All-leaders start: dx_L/dτ = −x_L² ⇒ x_L(τ) = 1/(1+τ).
        let mut sim = Simulation::from_counts(LeaderElection, [((), 1_000_000u64)]);
        let mf = MeanField::from_simulation(&mut sim);
        let run = mf.run(&MeanFieldOptions::default());
        for tau in [1.0, 10.0, 100.0] {
            let got = run.fractions_at(tau)[0];
            let want = 1.0 / (1.0 + tau);
            assert!((got - want).abs() < 1e-6, "x_L({tau}) = {got} vs {want}");
        }
        // The 1/n-rate bottleneck must be flagged: the last leaders' duel
        // is a vanishing×vanishing interaction.
        let flags = run.divergences();
        assert!(
            flags.iter().any(|d| matches!(
                d,
                Divergence::VanishingRateBottleneck { quadratic_share, .. }
                    if *quadratic_share > 0.99
            )),
            "leader election must be flagged, got {flags:?}"
        );
        // And a prediction from a distrusted limit is refused.
        assert_eq!(run.predicted_stabilization_time(1e-3), None);
        assert!(run.quiescent_at().is_none(), "polynomial tail never settles");
    }

    #[test]
    fn approximate_majority_and_phase_clock_are_not_flagged() {
        let mut sim = Simulation::from_counts(
            ApproximateMajority,
            [(true, 600_000u64), (false, 400_000)],
        );
        let run = MeanField::from_simulation(&mut sim).run(&MeanFieldOptions::default());
        assert!(run.divergences().is_empty(), "AM wrongly flagged: {:?}", run.divergences());
        assert!(run.quiescent_at().is_some(), "AM absorbs at consensus");
        let term = run.terminal_fractions();
        assert!(term.iter().any(|&x| x > 0.999), "majority wins: {term:?}");

        let mut sim = Simulation::from_counts(PhaseClock::new(8), [((), 1_000_000u64)]);
        let opts = MeanFieldOptions { horizon: 30.0, ..Default::default() };
        let run = MeanField::from_simulation(&mut sim).run(&opts);
        assert!(
            run.divergences().is_empty(),
            "phase clock wrongly flagged: {:?}",
            run.divergences()
        );
    }

    #[test]
    fn microscopic_seed_is_flagged() {
        // A single infected agent in 10⁶: fraction 10⁻⁶ ≪ 1/√n.
        let run = epidemic_mf(1, 1_000_000).run(&MeanFieldOptions::default());
        assert!(matches!(
            run.divergences(),
            [Divergence::MicroscopicInitialFraction { expected_agents, .. }]
                if *expected_agents == 1.0
        ));
    }

    #[test]
    fn samples_are_trajectory_probe_shaped_and_sum_to_n() {
        let n = 1_000_000_000_000u64; // 10¹²: counts stay exact in u64
        let run = epidemic_mf(10, 1_000).with_population(n).run(&MeanFieldOptions::default());
        let samples = run.samples();
        assert!(samples.len() >= 8);
        assert_eq!(samples[0].0, 0, "first sample at interaction 0");
        assert_eq!(samples[0].1, vec![n / 100, n - n / 100]);
        for w in samples.windows(2) {
            assert!(w[0].0 < w[1].0, "indices strictly increase");
        }
        for (_, occ) in samples {
            assert_eq!(occ.iter().sum::<u64>(), n, "largest-remainder preserves n");
        }
        // The run agrees with itself through the probe-shaped interface.
        assert!(run.tv_against(samples) < 1e-9);
    }

    #[test]
    fn stabilization_time_shrinks_with_looser_eps() {
        let run = epidemic_mf(10_000, 1_000_000).run(&MeanFieldOptions::default());
        let tight = run.predicted_stabilization_time(1e-4).unwrap();
        let loose = run.predicted_stabilization_time(1e-1).unwrap();
        assert!(loose <= tight, "loose {loose} vs tight {tight}");
        assert!(tight <= run.terminal_time());
        // Interactions scale linearly with n.
        let i6 = run.predicted_stabilization_interactions(1e-3).unwrap();
        assert!(i6 > 0);
    }

    #[test]
    fn diffusion_correction_gives_mid_scale_error_bars() {
        let n = 1_000_000u64;
        let opts = MeanFieldOptions { diffusion: true, horizon: 2.0, ..Default::default() };
        let run = epidemic_mf(100_000, n).run(&opts);
        // Mid-transition the infected count genuinely fluctuates: the LNA
        // std must be positive and of order 1/√n (not 0, not O(1)).
        let sd = run.std_dev(StateId(0)).unwrap();
        assert!(sd > 0.0, "LNA variance must be positive, got {sd}");
        assert!(sd < 0.01, "LNA std {sd} should be ≪ 1 at n = 10⁶");
        let cov = run.covariance().unwrap();
        // Two-state conservation: Σ_II ≈ Σ_SS ≈ −Σ_IS.
        assert!((cov[(0, 0)] - cov[(1, 1)]).abs() < 1e-12);
        assert!((cov[(0, 0)] + cov[(0, 1)]).abs() < 1e-12);
        // Without the flag the accessor stays None.
        let plain = epidemic_mf(100_000, n).run(&MeanFieldOptions::default());
        assert_eq!(plain.std_dev(StateId(0)), None);
    }

    #[test]
    fn drift_cache_derives_once() {
        let mut cache = DriftCache::new();
        let mut sim = Simulation::from_counts(epidemic(), [(true, 5u64), (false, 5)]);
        let support: Vec<StateId> = sim.config().support().map(|(s, _)| s).collect();
        let a = cache.get_or_derive("epidemic", sim.runtime_mut(), &support).unwrap();
        let b = cache.get_or_derive("epidemic", sim.runtime_mut(), &support).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second lookup must share the compiled field");
        assert_eq!(cache.len(), 1);
        assert!(cache.contains("epidemic"));
    }

    #[test]
    fn ode_tracks_the_batched_engine_at_overlapping_n() {
        // The acceptance-shaped check at unit-test scale: TV between the
        // ODE trajectory and one batched-engine run at n = 10⁴ stays small
        // for a protocol with macroscopic fractions throughout.
        let n = 10_000u64;
        let mut sim = Simulation::from_counts(
            ApproximateMajority,
            [(true, 6 * n / 10), (false, 4 * n / 10)],
        );
        let mf = MeanField::from_simulation(&mut sim);
        let mut probed = sim.with_probe(TrajectoryProbe::new());
        let mut rng = seeded_rng(42);
        probed.run_batched(30 * n, &mut rng);
        let run = mf.run(&MeanFieldOptions::default());
        let tv = run.tv_against(probed.probe().samples());
        assert!(tv < 0.08, "ODE vs batched TV {tv} at n = 10⁴");
    }
}
