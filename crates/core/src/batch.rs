//! Batched interaction engine: Θ(√n) interactions per handful of RNG draws.
//!
//! The sequential engine ([`Simulation::step`]) pays two RNG draws and two
//! `O(|Q|)` cumulative-count walks per interaction, so the `Θ(n log n)`
//! interaction counts of the paper's protocols (§4–§5) cost `Θ(n log n)`
//! draws to check empirically. This module executes the *same* Markov chain
//! in batches: one batch advances up to `⌊√n⌋` interactions while drawing
//! only `O(|Q|²)` random numbers, which makes the amortized cost per
//! simulated interaction `O(|Q|² / √n)` — vanishing at the large populations
//! where the mean-field regime (Bournez et al.) and the fast-simulation
//! regime (Kosowski–Uznański) live.
//!
//! Batching speeds up **one** trajectory; it is orthogonal both to the
//! paper's parallel-*time* rounds (§3.2, see
//! [`Simulation::measure_stabilization_rounds`](crate::engine::Simulation::measure_stabilization_rounds))
//! and to thread-level Monte Carlo over independent trials
//! ([`crate::ensemble`], which composes with this module when each trial
//! calls [`Simulation::measure_stabilization_batched`], as
//! [`run_counts`](crate::spec::run_counts) does for `engine: "batched"`).
//!
//! # Exactness
//!
//! [`Simulation::run_batched`] is distributed **identically** to the same
//! number of [`Simulation::step`] calls; it is a sampler optimization, not
//! an approximation. The argument, piece by piece:
//!
//! **Collision-free run length.** Under uniform random pairing, consider
//! the first time an interaction touches an agent already touched since the
//! batch began. With `i` pairs (hence `2i` distinct agents) already drawn,
//! interaction `i + 1` avoids them with probability
//! `(n − 2i)(n − 2i − 1) / (n(n − 1))`, independent of anything but `i`.
//! The run length `L` (number of leading interactions touching `2L`
//! distinct agents) therefore has survival function
//! `G(i) = P(L ≥ i) = Π_{j<i} (n − 2j)(n − 2j − 1) / (n(n − 1))`, a product
//! the engine tabulates once per population size and inverts with a single
//! uniform draw and a binary search. The birthday bound puts `E[L]` at
//! `Θ(√n)`, so the table (capped at `⌊√n⌋`) stays short.
//!
//! **Capping is exact.** The engine truncates `L` at
//! `cap = min(⌊√n⌋, remaining budget)`. Executing only the first
//! `min(L, cap)` interactions of a run is exact because the chain is
//! Markov in the configuration: conditioning on "the first `cap`
//! interactions were collision-free" is exactly the event `L ≥ cap`, and
//! given the resulting configuration, later interactions are independent
//! of how the batch was produced. The next batch starts fresh.
//!
//! **The batch's states.** Conditioned on `L ≥ ℓ`, the `2ℓ` participants
//! are a uniform ordered sample *without replacement* from the population,
//! alternating initiator/responder. By exchangeability of
//! without-replacement draws this is equivalent to: draw the `ℓ` initiator
//! states as one multivariate hypergeometric sample of the state counts,
//! then give each initiator state its responder multiset by successive
//! multivariate hypergeometric draws from the common leftover pool
//! (population minus initiators minus already-claimed responders) — the
//! conditional decomposition of "draw `ℓ` responders, match uniformly"
//! ([`crate::sampling`] provides the exact samplers; each sweep visits
//! categories in descending count order, which is law-invariant and lets
//! most sweeps terminate after a few draws). All `2ℓ`
//! agents are distinct, so the `ℓ` transitions commute and can be applied
//! to the counts in bulk, grouped by state pair.
//!
//! **The collision interaction.** If `L = ℓ < cap`, interaction `ℓ + 1` is
//! by definition conditioned to touch at least one of the `2ℓ` touched
//! agents. Splitting the `n(n − 1) − (n − 2ℓ)(n − 2ℓ − 1)` colliding
//! ordered pairs by case gives weights `2ℓ(n − 2ℓ)` for
//! (touched initiator, untouched responder), the same for the reverse
//! orientation, and `2ℓ(2ℓ − 1)` for two distinct touched agents. The
//! engine picks the case by weight, then the agents uniformly from the
//! touched multiset (whose states are the *post-transition* states
//! accumulated during the bulk apply — a touched agent interacts again
//! with its new state) and the untouched multiset (current counts minus
//! touched). This one interaction is executed through the ordinary
//! sequential path.
//!
//! Each piece reproduces the conditional law of the sequential chain given
//! the previous pieces, so their composition is the chain itself. The only
//! thing batching forgets is the *interleaving order* of the collision-free
//! interactions — immaterial, since they commute and are exchangeable.
//!
//! # Windows: amortizing one sweep over many runs
//!
//! The probe-free fast path goes further: a **window** spans several
//! consecutive collision-free runs (up to `F·⌊√n⌋` fresh pairs, `F ≤ 4`)
//! and samples them with a *single* multiset sweep. Three observations make
//! this exact:
//!
//! 1. **Run lengths and collision roles need only counts.** The survival
//!    function of a run starting with `τ` already-touched agents is
//!    `G_τ(i) = Π_{m<i} (n−τ−2m)(n−τ−2m−1)/(n(n−1))` — a ratio
//!    `T(τ+2i)/T(τ)` of one falling-factorial table — and the probability
//!    that a colliding interaction pairs touched/touched vs touched/fresh
//!    depends only on `τ` and `n`. So all run lengths and collision *kinds*
//!    of a window can be drawn up front, one cheap inversion each, before
//!    any state is known.
//! 2. **Every newly touched agent is one exchangeable sample.** The fresh
//!    pairs of all runs, plus each "extra" agent a mixed collision drags
//!    in, are uniform without-replacement draws from the population, so
//!    their states form one multivariate hypergeometric sample: the engine
//!    draws the extras' states and then one combined pair sweep sized by
//!    the window's total fresh pairs.
//! 3. **Collision endpoints resolve by slot index.** Pair slots are filled
//!    in time order, so "a uniform touched agent at collision `c`" is a
//!    uniform (slot, endpoint) with slot below `c`'s prefix count (or one
//!    of the earlier extras). Conditioned on the sweep's group counts, the
//!    pair type of a not-yet-revealed slot is categorical over the
//!    *remaining* group counts; revealed slots keep their (post-transition,
//!    possibly collision-updated) states in a small table. Each collision
//!    thus costs O(1) draws, and the expensive sweep amortizes over
//!    `≈ F√n` interactions instead of `≈ 0.63√n`.
//!
//! # Probes
//!
//! A batch is reported to the attached [`Probe`] as one
//! [`BatchEvent`] carrying the transitions
//! grouped by state pair; the default [`Probe::on_batch`] replays them
//! through `on_interaction`/`on_output_change`, so existing probes observe
//! a batched run exactly as a sequential one (up to within-batch order).
//! Probe-active runs use single-run batches (one collision per batch) so
//! the replay covers every interaction; only probe-free runs
//! ([`NoProbe`](crate::observe::NoProbe), which compiles observation away
//! entirely) take the multi-run window path — the two paths sample the
//! same law, so attaching a probe never changes the distribution, only the
//! RNG stream.
//!
//! # When to use what
//!
//! * [`Simulation::run_batched`] — large populations (n ≳ 10⁴), *before*
//!   convergence, when most interactions still change state.
//! * [`Simulation::leap`] — *after* effective convergence, when almost all
//!   interactions are no-ops: it fast-forwards the no-op geometric tail in
//!   closed form, which batching does not.
//! * [`Simulation::step`] — small populations, or when per-interaction
//!   control flow is needed.

use rand::Rng;

use crate::config::CountConfig;
use crate::engine::{Simulation, StabilizationReport};
use crate::observe::{BatchEvent, BatchPair, Probe};
use crate::protocol::Protocol;
use crate::registry::StateId;
use crate::sampling::hypergeometric;
use crate::trace::{SpanKind, Tracer};

/// How a window-ending-run interaction collided: which of its two roles hit
/// the touched set. (A fresh/fresh pair would, by definition, not collide.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CollisionKind {
    /// Both agents already touched.
    TouchedTouched,
    /// Touched initiator, previously-untouched responder (an "extra").
    TouchedFresh,
    /// Previously-untouched initiator, touched responder.
    FreshTouched,
}

/// One collision recorded during a window's counting phase: everything
/// needed to resolve its endpoints later is a pair of prefix sizes plus the
/// role split.
#[derive(Debug, Clone, Copy)]
struct Collision {
    /// Fresh pairs completed before this collision (its slot-index bound).
    prefix_pairs: u64,
    /// Extras that joined the touched set before this collision.
    extras_prior: u32,
    kind: CollisionKind,
}

/// A pair slot whose states have been revealed by a collision draw:
/// `states` holds the *current* states of its initiator/responder endpoints
/// (post-transition, updated again if a later collision hits them).
#[derive(Debug, Clone, Copy)]
struct MatSlot {
    slot: u64,
    states: [StateId; 2],
}

/// Where to write an endpoint's post-collision state back to.
#[derive(Debug, Clone, Copy)]
enum TouchedRef {
    /// `mat[idx].states[side]`.
    Slot { idx: usize, side: usize },
    /// `extras[idx]`.
    Extra { idx: usize },
}

/// Reusable buffers and the survival-function tables for the batched
/// engine; lives on [`Simulation`] so repeated batches allocate nothing.
#[derive(Debug, Clone, Default)]
pub(crate) struct BatchScratch {
    /// Population the single-run survival table was built for (0 = none).
    n: u64,
    /// `survival[i] = G(i) = P(L ≥ i)`: probability the first `i`
    /// interactions touch `2i` distinct agents (probe path).
    survival: Vec<f64>,
    /// Population the window tables were built for (0 = none).
    tab_n: u64,
    /// `ratio[k] = Π_{j<k} (n−j)/n`: normalized falling factorial. Offset
    /// survival functions are ratios of this table,
    /// `G_τ(i) = ratio[τ+2i] / (ratio[τ] · qpow[i])`; keeping each entry in
    /// `(0, 1]` (the exponent `−k²/2n` is bounded by the window size) makes
    /// the iterated product accurate to `~len·ε` relative, like the plain
    /// survival table.
    ratio: Vec<f64>,
    /// `qpow[i] = ((n−1)/n)^i`.
    qpow: Vec<f64>,
    /// Initiator state counts of the current batch.
    initiators: Vec<u64>,
    /// Agents still available for sampling: configuration counts depleted by
    /// extras, then initiators, then claimed responders.
    pool: Vec<u64>,
    /// Per-initiator-state matching draw.
    matched: Vec<u64>,
    /// Descending-count processing order for the conditional sweeps.
    perm: Vec<u32>,
    /// The batch grouped as `(initiator, responder, count)`.
    groups: Vec<(StateId, StateId, u64)>,
    /// Post-transition state counts of the batch's `2ℓ` touched agents
    /// (single-run path only).
    touched: Vec<u64>,
    /// Grouped probe event under construction (probe-active runs only).
    replay: Vec<BatchPair>,
    /// The window's collisions, in time order (counting phase output).
    colls: Vec<Collision>,
    /// Current states of the extras, in join order; entry `i` starts as the
    /// sampled pre-collision state and is updated as collisions hit it.
    extras: Vec<StateId>,
    /// Slots revealed by collision draws.
    mat: Vec<MatSlot>,
    /// Groups' not-yet-revealed slot counts (parallel to `groups`).
    grem: Vec<u64>,
}

impl BatchScratch {
    /// (Re)builds the survival table for population `n` with `cap + 1`
    /// entries; no-op when already current.
    fn ensure_survival(&mut self, n: u64, cap: u64) {
        if self.n == n && self.survival.len() == cap as usize + 1 {
            return;
        }
        self.n = n;
        self.survival.clear();
        self.survival.push(1.0);
        let denom = n as f64 * (n - 1) as f64;
        let mut g = 1.0f64;
        for i in 0..cap {
            let a = n.saturating_sub(2 * i);
            let b = a.saturating_sub(1);
            g *= a as f64 * b as f64 / denom;
            self.survival.push(g);
        }
    }

    /// Samples the collision-free run length truncated at `cap`, by
    /// inverting the tabulated survival function with one uniform draw:
    /// returns the largest `i ≤ cap` with `u < G(i)` (always ≥ 1, since
    /// `G(1) = 1`). A return value of `cap` means "no collision observed
    /// within the cap".
    fn sample_run_length(&self, rng: &mut impl Rng, cap: u64) -> u64 {
        let u = rng.gen_f64();
        let hi = (cap as usize).min(self.survival.len() - 1);
        let table = &self.survival[..=hi];
        // `survival` is non-increasing, so `u < g` holds on a prefix.
        (table.partition_point(|&g| u < g) as u64).saturating_sub(1).max(1)
    }

    /// (Re)builds the window tables for population `n`: `ratio` up to index
    /// `tau_max` and `qpow` up to index `w`; no-op when already current.
    fn ensure_window_tables(&mut self, n: u64, tau_max: u64, w: u64) {
        if self.tab_n == n
            && self.ratio.len() > tau_max as usize
            && self.qpow.len() > w as usize
        {
            return;
        }
        self.tab_n = n;
        let nf = n as f64;
        self.ratio.clear();
        self.ratio.push(1.0);
        for k in 0..tau_max {
            let next = self.ratio[k as usize] * (n - k) as f64 / nf;
            self.ratio.push(next);
        }
        let q = (n - 1) as f64 / nf;
        self.qpow.clear();
        self.qpow.push(1.0);
        for i in 0..w {
            let next = self.qpow[i as usize] * q;
            self.qpow.push(next);
        }
    }

    /// Samples a collision-free run length truncated at `budget`, for a run
    /// starting with `tau` agents already touched: the largest `i ≤ budget`
    /// with `u < G_τ(i)`, via one uniform draw and a binary search over the
    /// ratio table (`u < G_τ(i) ⟺ u·ratio[τ]·qpow[i] < ratio[τ+2i]`).
    /// Returns `budget` when no collision fell inside it; can return 0 when
    /// `tau > 0` (the very next interaction collides).
    fn sample_run_offset(&self, rng: &mut impl Rng, tau: u64, budget: u64) -> u64 {
        debug_assert!((tau + 2 * budget) < self.ratio.len() as u64);
        let u = rng.gen_f64() * self.ratio[tau as usize];
        let (mut lo, mut hi) = (0u64, budget);
        while lo < hi {
            let mid = (lo + hi).div_ceil(2);
            if u * self.qpow[mid as usize] < self.ratio[(tau + 2 * mid) as usize] {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        lo
    }
}

/// Fresh-pair budget of one window, `F·⌊√n⌋`. `F` trades sweep amortization
/// (one expensive multiset sweep covers `F√n` interactions) against the
/// `≈ 2F²` expected collisions per window, each costing a few cheap draws —
/// a trade that favors larger `F` as `n` grows.
fn window_pairs(n: u64, cap: u64) -> u64 {
    let f = if n >= 262_144 {
        4
    } else if n >= 4_096 {
        2
    } else {
        1
    };
    f * cap
}

/// Hard per-window collision bound: keeps the touched set (and the ratio
/// table) `O(√n)`-sized. Ending a window early is exact — the chain is
/// Markov in the configuration — and the bound sits far above the expected
/// `2F² ≤ 32` collisions per window, so it essentially never binds.
const MAX_WINDOW_COLLISIONS: usize = 64;

/// `⌊√n⌋`, the batch cap: at this length the collision-free probability is
/// still bounded away from 0 while the per-batch sampling cost `O(|Q|²)`
/// amortizes to `O(|Q|²/√n)` per interaction.
fn default_cap(n: u64) -> u64 {
    ((n as f64).sqrt().floor() as u64).max(1)
}

/// Multivariate hypergeometric sample of `draws` agents from `counts` into
/// `out`, processed in the category order given by `perm` (descending
/// population count, precomputed once per batch). The conditional
/// decomposition is exact in any fixed category order; descending order
/// drains `m_rem` into the dominant categories first, so the sweep usually
/// terminates after a few draws and the many tiny categories are never
/// visited — and when they are, their draws sit in the near-certain-zero
/// regime the univariate sampler short-circuits.
///
/// Exposed (`pub`) so distributional tests can pin the sweep's marginals
/// directly; `perm` must list every category index exactly once, and
/// `draws` must not exceed the total population in `counts`.
pub fn mvhg_ordered_into(
    rng: &mut impl Rng,
    counts: &[u64],
    draws: u64,
    out: &mut Vec<u64>,
    perm: &[u32],
) {
    out.clear();
    out.resize(counts.len(), 0);
    let mut n_rem: u64 = counts.iter().sum();
    debug_assert!(draws <= n_rem, "cannot draw {draws} agents from population {n_rem}");
    let mut m_rem = draws;
    for &i in perm {
        if m_rem == 0 {
            break;
        }
        let c = counts[i as usize];
        if c == 0 {
            continue;
        }
        let x = if c == n_rem { m_rem } else { hypergeometric(rng, n_rem, c, m_rem) };
        out[i as usize] = x;
        n_rem -= c;
        m_rem -= x;
    }
    debug_assert_eq!(m_rem, 0, "hypergeometric sweep failed to place every draw");
}

/// Walks a count slice and returns the state holding the `idx`-th agent
/// (cumulative-count inversion, like `CountConfig::state_of_index`).
fn state_at(counts: &[u64], mut idx: u64) -> StateId {
    for (i, &c) in counts.iter().enumerate() {
        if idx < c {
            return StateId(i as u32);
        }
        idx -= c;
    }
    panic!("agent index out of range for count slice");
}

/// Returns the state of the `idx`-th *untouched* agent: the population
/// counts minus the touched multiset.
fn untouched_state_at(config: &CountConfig, touched: &[u64], mut idx: u64) -> StateId {
    for (i, &c) in config.as_slice().iter().enumerate() {
        let free = c - touched.get(i).copied().unwrap_or(0);
        if idx < free {
            return StateId(i as u32);
        }
        idx -= free;
    }
    panic!("untouched agent index out of range");
}

/// Samples the first colliding interaction after `pairs` collision-free
/// ones: an ordered pair of distinct agents conditioned to touch at least
/// one of the `2·pairs` touched agents, whose current states are the
/// multiset `touched`.
fn sample_collision_pair(
    config: &CountConfig,
    touched: &[u64],
    pairs: u64,
    rng: &mut impl Rng,
) -> (StateId, StateId) {
    let n = config.population();
    let t_total = 2 * pairs;
    let u_total = n - t_total;
    let w_mixed = t_total * u_total; // per orientation
    let w_tt = t_total * (t_total - 1);
    let case = rng.gen_range(0..2 * w_mixed + w_tt);
    if case < w_mixed {
        // Touched initiator, untouched responder.
        let p = state_at(touched, rng.gen_range(0..t_total));
        let q = untouched_state_at(config, touched, rng.gen_range(0..u_total));
        (p, q)
    } else if case < 2 * w_mixed {
        // Untouched initiator, touched responder.
        let p = untouched_state_at(config, touched, rng.gen_range(0..u_total));
        let q = state_at(touched, rng.gen_range(0..t_total));
        (p, q)
    } else {
        // Two distinct touched agents: remove the first from the multiset
        // before drawing the second.
        let p = state_at(touched, rng.gen_range(0..t_total));
        let mut second = rng.gen_range(0..t_total - 1);
        // Skip one agent in state `p` when walking for the second draw.
        for (i, &c) in touched.iter().enumerate() {
            let c = if i == p.index() { c - 1 } else { c };
            if second < c {
                return (p, StateId(i as u32));
            }
            second -= c;
        }
        unreachable!("touched multiset exhausted")
    }
}

impl<P: Protocol, Pr: Probe, Tr: Tracer> Simulation<P, Pr, Tr> {
    /// Runs `steps` interactions through the batched engine — distributed
    /// identically to [`run`](Self::run) (see the [module docs](crate::batch)
    /// for the exactness argument) but drawing `O(|Q|²)` random numbers per
    /// `Θ(√n)` interactions instead of two per interaction.
    ///
    /// [`steps`](Self::steps)/[`effective_steps`](Self::effective_steps)
    /// advance exactly as under `run`, and an attached probe sees every
    /// interaction (via [`Probe::on_batch`]).
    pub fn run_batched(&mut self, steps: u64, rng: &mut impl Rng) {
        let target = self.steps + steps;
        while self.steps < target {
            self.advance_batched(target - self.steps, rng);
        }
    }

    /// One batching unit of at most `budget ≥ 1` interactions: a multi-run
    /// window on the probe-free fast path, a single-run batch (whose
    /// grouped event replays every interaction) when a probe is attached.
    fn advance_batched(&mut self, budget: u64, rng: &mut impl Rng) -> u64 {
        if Pr::ACTIVE {
            self.batch_once(budget, rng)
        } else {
            self.window_once(budget, rng)
        }
    }

    /// Batched variant of
    /// [`measure_stabilization`](Self::measure_stabilization): runs
    /// `horizon` interactions and reports when the output assignment last
    /// became (and stayed) `expected` on every agent.
    ///
    /// Wrongness is checked at **batch boundaries**, so `stabilized_at` is
    /// rounded up to the end of the batch in which the output became
    /// correct — an overestimate of at most one batching unit (≤ `4⌊√n⌋`
    /// fresh pairs plus a bounded number of collisions, i.e. `o(1)` of any
    /// `Ω(n)` stabilization time). Convergence/divergence at the horizon is
    /// decided exactly as in the sequential version.
    pub fn measure_stabilization_batched(
        &mut self,
        expected: &P::Output,
        horizon: u64,
        rng: &mut impl Rng,
    ) -> StabilizationReport {
        let n = self.population();
        let oid = self.output_id(expected);
        let start = self.steps;
        let mut wrong = self.count_of_output(oid) != n;
        let mut last_wrong: Option<u64> = if wrong { Some(0) } else { None };
        while self.steps - start < horizon {
            self.advance_batched(horizon - (self.steps - start), rng);
            wrong = self.count_of_output(oid) != n;
            if wrong {
                last_wrong = Some(self.steps - start);
            }
        }
        StabilizationReport {
            horizon,
            stabilized_at: if wrong { None } else { Some(last_wrong.map_or(0, |t| t + 1)) },
        }
    }

    /// Executes one batch of at most `budget` interactions (at least one);
    /// returns how many were executed.
    pub(crate) fn batch_once(&mut self, budget: u64, rng: &mut impl Rng) -> u64 {
        debug_assert!(budget >= 1);
        let n = self.config.population();
        let full_cap = default_cap(n);
        let cap = full_cap.min(budget);
        if cap <= 1 {
            // Tiny population or exhausted budget: a batch of one is just a
            // sequential step (L ≥ 1 always, so no run-length draw needed).
            self.step(rng);
            return 1;
        }
        if Tr::ACTIVE {
            self.tracer.enter(SpanKind::BatchSample);
        }
        // Take the scratch off `self` so the loops below can call
        // `&mut self` engine methods (transition memoization, probes).
        let mut scratch = std::mem::take(&mut self.batch);
        scratch.ensure_survival(n, full_cap);
        let len = scratch.sample_run_length(rng, cap);
        let collide = len < cap;

        // One descending-count processing order per batch, shared by every
        // conditional sweep (pool depletion keeps big categories big, and
        // any fixed order is law-invariant).
        let counts = self.config.as_slice();
        scratch.perm.clear();
        scratch.perm.extend(0..counts.len() as u32);
        scratch.perm.sort_unstable_by_key(|&i| std::cmp::Reverse(counts[i as usize]));

        // Sample the batch's states: the initiator multiset, then each
        // initiator group's responders from the common leftover pool — the
        // conditional decomposition of "draw ℓ responders and match them
        // uniformly" (see module docs).
        mvhg_ordered_into(rng, counts, len, &mut scratch.initiators, &scratch.perm);
        scratch.pool.clear();
        scratch.pool.extend(
            self.config
                .as_slice()
                .iter()
                .zip(&scratch.initiators)
                .map(|(&c, &a)| c - a),
        );
        scratch.groups.clear();
        for s in 0..scratch.initiators.len() {
            let a_s = scratch.initiators[s];
            if a_s == 0 {
                continue;
            }
            mvhg_ordered_into(rng, &scratch.pool, a_s, &mut scratch.matched, &scratch.perm);
            for (t, &c) in scratch.matched.iter().enumerate() {
                if c > 0 {
                    scratch.groups.push((StateId(s as u32), StateId(t as u32), c));
                    scratch.pool[t] -= c;
                }
            }
        }
        if Tr::ACTIVE {
            self.tracer.exit(SpanKind::BatchSample, len);
            self.tracer.enter(SpanKind::BatchApply);
        }

        // Apply the transitions in bulk, grouped by state pair, tracking the
        // touched agents' post-transition states for the collision draw.
        scratch.touched.clear();
        scratch.replay.clear();
        let mut effective = 0u64;
        for &(s, t, c) in &scratch.groups {
            let (s2, t2) = self.rt.transition(s, t);
            let eff = (s2, t2) != (s, t);
            if eff {
                effective += c;
            }
            self.config.apply_many((s, t), (s2, t2), c);
            let need = s2.index().max(t2.index()) + 1;
            if scratch.touched.len() < need {
                scratch.touched.resize(need, 0);
            }
            scratch.touched[s2.index()] += c;
            scratch.touched[t2.index()] += c;
            let (op, oq) = (self.rt.output_of(s), self.rt.output_of(t));
            let (op2, oq2) = (self.rt.output_of(s2), self.rt.output_of(t2));
            if (op, oq) != (op2, oq2) && (op, oq) != (oq2, op2) {
                self.bump_output(op, -(c as i64));
                self.bump_output(oq, -(c as i64));
                self.bump_output(op2, c as i64);
                self.bump_output(oq2, c as i64);
            }
            if Pr::ACTIVE {
                scratch.replay.push(BatchPair {
                    before: (s, t),
                    after: (s2, t2),
                    outputs_before: (op, oq),
                    outputs_after: (op2, oq2),
                    count: c,
                    effective: eff,
                });
            }
        }
        self.steps += len;
        self.effective_steps += effective;
        if Pr::ACTIVE {
            if Tr::ACTIVE {
                self.tracer.enter(SpanKind::Probe);
            }
            self.probe.on_batch(&BatchEvent {
                first_step: self.steps - len + 1,
                len,
                pairs: &scratch.replay,
            });
            if Tr::ACTIVE {
                self.tracer.exit(SpanKind::Probe, len);
            }
        }

        // The interaction that ended the run, if the cap did not: it must
        // touch a previously touched agent; executed sequentially.
        let mut advanced = len;
        if collide {
            let (p, q) = sample_collision_pair(&self.config, &scratch.touched, len, rng);
            let (p2, q2) = self.rt.transition(p, q);
            if self.note_interaction((p, q), (p2, q2), 0) {
                self.apply_effective((p, q), (p2, q2));
            }
            advanced += 1;
        }
        if Tr::ACTIVE {
            self.tracer.exit(SpanKind::BatchApply, advanced);
        }
        self.batch = scratch;
        advanced
    }

    /// Executes one window of at most `budget` interactions (at least one):
    /// several collision-free runs sampled with a single combined sweep,
    /// plus their interleaved collision interactions (see the
    /// [module docs](crate::batch) § *Windows*). Returns how many
    /// interactions were executed. Probe-free path only: the window never
    /// materializes a per-interaction order, so it cannot feed a probe.
    pub(crate) fn window_once(&mut self, budget: u64, rng: &mut impl Rng) -> u64 {
        debug_assert!(budget >= 1);
        let n = self.config.population();
        let cap = default_cap(n);
        if cap <= 1 || budget == 1 {
            // Tiny population or exhausted budget: a batch of one is just a
            // sequential step.
            self.step(rng);
            return 1;
        }
        if Tr::ACTIVE {
            self.tracer.enter(SpanKind::BatchSample);
        }
        let w = window_pairs(n, cap).min(budget);
        let mut scratch = std::mem::take(&mut self.batch);
        let tau_max = (2 * w + MAX_WINDOW_COLLISIONS as u64 + 2).min(n);
        scratch.ensure_window_tables(n, tau_max, w);

        // Phase A — lengths and roles, counts only: alternate run-length
        // inversions (offset by the touched count τ) with collision-kind
        // draws until a budget binds. Neither needs any sampled state.
        scratch.colls.clear();
        let (mut tau, mut pairs, mut done) = (0u64, 0u64, 0u64);
        let mut n_extras = 0u32;
        loop {
            let room = ((tau_max - tau) / 2).min(w - pairs).min(budget - done);
            if room == 0 {
                break;
            }
            let l = scratch.sample_run_offset(rng, tau, room);
            pairs += l;
            tau += 2 * l;
            done += l;
            if l == room {
                // No collision inside the remaining budget: the window ends
                // on a collision-free prefix (exact — the chain is Markov).
                break;
            }
            // The next interaction collides. Classify its roles: among the
            // colliding ordered pairs, τ(τ−1) are touched/touched and
            // τ·(n−τ) are touched/fresh per orientation.
            let fresh = n - tau;
            let w_tt = tau * (tau - 1);
            let w_mix = tau * fresh;
            let c = rng.gen_range(0..w_tt + 2 * w_mix);
            let kind = if c < w_tt {
                CollisionKind::TouchedTouched
            } else if c < w_tt + w_mix {
                CollisionKind::TouchedFresh
            } else {
                CollisionKind::FreshTouched
            };
            scratch.colls.push(Collision {
                prefix_pairs: pairs,
                extras_prior: n_extras,
                kind,
            });
            if kind != CollisionKind::TouchedTouched {
                n_extras += 1;
                tau += 1;
            }
            done += 1;
            if done >= budget || scratch.colls.len() >= MAX_WINDOW_COLLISIONS {
                break;
            }
        }

        // Phase B — materialize the window's newly-touched agents. They are
        // one exchangeable without-replacement sample from the
        // configuration, so the decomposition order is free: extras first
        // (one categorical draw each), then the combined pair sweep from
        // the depleted pool.
        {
            let counts = self.config.as_slice();
            scratch.perm.clear();
            scratch.perm.extend(0..counts.len() as u32);
            scratch.perm.sort_unstable_by_key(|&i| std::cmp::Reverse(counts[i as usize]));
            scratch.pool.clear();
            scratch.pool.extend_from_slice(counts);
        }
        scratch.extras.clear();
        let mut pool_total = n;
        for _ in 0..n_extras {
            let s = state_at(&scratch.pool, rng.gen_range(0..pool_total));
            scratch.pool[s.index()] -= 1;
            pool_total -= 1;
            scratch.extras.push(s);
        }
        mvhg_ordered_into(rng, &scratch.pool, pairs, &mut scratch.initiators, &scratch.perm);
        for (p, a) in scratch.pool.iter_mut().zip(&scratch.initiators) {
            *p -= a;
        }
        scratch.groups.clear();
        for s in 0..scratch.initiators.len() {
            let a_s = scratch.initiators[s];
            if a_s == 0 {
                continue;
            }
            mvhg_ordered_into(rng, &scratch.pool, a_s, &mut scratch.matched, &scratch.perm);
            for (t, &c) in scratch.matched.iter().enumerate() {
                if c > 0 {
                    scratch.groups.push((StateId(s as u32), StateId(t as u32), c));
                    scratch.pool[t] -= c;
                }
            }
        }
        if Tr::ACTIVE {
            self.tracer.exit(SpanKind::BatchSample, pairs);
            self.tracer.enter(SpanKind::BatchApply);
        }

        // Bulk-apply the fresh pairs, grouped by state pair.
        let mut effective = 0u64;
        for &(s, t, c) in &scratch.groups {
            let (s2, t2) = self.rt.transition(s, t);
            if (s2, t2) != (s, t) {
                effective += c;
            }
            self.config.apply_many((s, t), (s2, t2), c);
            let (op, oq) = (self.rt.output_of(s), self.rt.output_of(t));
            let (op2, oq2) = (self.rt.output_of(s2), self.rt.output_of(t2));
            if (op, oq) != (op2, oq2) && (op, oq) != (oq2, op2) {
                self.bump_output(op, -(c as i64));
                self.bump_output(oq, -(c as i64));
                self.bump_output(op2, c as i64);
                self.bump_output(oq2, c as i64);
            }
        }
        self.steps += pairs;
        self.effective_steps += effective;

        // Phase C — the collisions, in window order, endpoints resolved by
        // slot index against the combined sweep.
        scratch.mat.clear();
        scratch.grem.clear();
        scratch.grem.extend(scratch.groups.iter().map(|&(_, _, c)| c));
        let mut grem_total = pairs;
        for ci in 0..scratch.colls.len() {
            let coll = scratch.colls[ci];
            let ((p, pref), (q, qref)) = match coll.kind {
                CollisionKind::TouchedTouched => {
                    let (p, pref, flat) =
                        self.draw_touched(&mut scratch, coll, None, &mut grem_total, rng);
                    let (q, qref, _) =
                        self.draw_touched(&mut scratch, coll, Some(flat), &mut grem_total, rng);
                    ((p, pref), (q, qref))
                }
                CollisionKind::TouchedFresh => {
                    let (p, pref, _) =
                        self.draw_touched(&mut scratch, coll, None, &mut grem_total, rng);
                    let e = coll.extras_prior as usize;
                    ((p, pref), (scratch.extras[e], TouchedRef::Extra { idx: e }))
                }
                CollisionKind::FreshTouched => {
                    let (q, qref, _) =
                        self.draw_touched(&mut scratch, coll, None, &mut grem_total, rng);
                    let e = coll.extras_prior as usize;
                    ((scratch.extras[e], TouchedRef::Extra { idx: e }), (q, qref))
                }
            };
            let (p2, q2) = self.rt.transition(p, q);
            if self.note_interaction((p, q), (p2, q2), 0) {
                self.apply_effective((p, q), (p2, q2));
            }
            for (r, s2) in [(pref, p2), (qref, q2)] {
                match r {
                    TouchedRef::Slot { idx, side } => scratch.mat[idx].states[side] = s2,
                    TouchedRef::Extra { idx } => scratch.extras[idx] = s2,
                }
            }
        }
        if Tr::ACTIVE {
            self.tracer.exit(SpanKind::BatchApply, done);
        }
        self.batch = scratch;
        done
    }

    /// Draws a uniform touched agent as of collision `coll` (optionally
    /// excluding the flat index of an agent already drawn for the same
    /// interaction): returns its current state, a write-back handle, and
    /// its flat index. Flat indices enumerate the `2·prefix_pairs` pair
    /// endpoints (slot-major, initiator first) followed by the
    /// `extras_prior` extras. Hitting a not-yet-revealed slot reveals its
    /// pair type — categorical over the groups' remaining slot counts,
    /// which is the exact conditional law since slot assignments are
    /// exchangeable given the sweep's group counts.
    fn draw_touched(
        &mut self,
        scratch: &mut BatchScratch,
        coll: Collision,
        exclude: Option<u64>,
        grem_total: &mut u64,
        rng: &mut impl Rng,
    ) -> (StateId, TouchedRef, u64) {
        let tau = 2 * coll.prefix_pairs + coll.extras_prior as u64;
        let span = tau - u64::from(exclude.is_some());
        let mut j = rng.gen_range(0..span);
        if let Some(e) = exclude {
            if j >= e {
                j += 1;
            }
        }
        if j < 2 * coll.prefix_pairs {
            let (slot, side) = (j / 2, (j % 2) as usize);
            if let Some(idx) = scratch.mat.iter().position(|m| m.slot == slot) {
                return (scratch.mat[idx].states[side], TouchedRef::Slot { idx, side }, j);
            }
            let mut v = rng.gen_range(0..*grem_total);
            let mut gi = 0usize;
            while v >= scratch.grem[gi] {
                v -= scratch.grem[gi];
                gi += 1;
            }
            scratch.grem[gi] -= 1;
            *grem_total -= 1;
            let (s, t, _) = scratch.groups[gi];
            let after = self.rt.transition(s, t);
            scratch.mat.push(MatSlot { slot, states: [after.0, after.1] });
            let idx = scratch.mat.len() - 1;
            (scratch.mat[idx].states[side], TouchedRef::Slot { idx, side }, j)
        } else {
            let idx = (j - 2 * coll.prefix_pairs) as usize;
            (scratch.extras[idx], TouchedRef::Extra { idx }, j)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::seeded_rng;
    use crate::protocol::FnProtocol;

    fn epidemic() -> impl Protocol<State = bool, Input = bool, Output = bool> {
        FnProtocol::new(
            |&b: &bool| b,
            |&q: &bool| q,
            |&p: &bool, &q: &bool| (p || q, p || q),
        )
    }

    #[test]
    fn survival_table_is_nonincreasing_and_exact_at_the_front() {
        let mut s = BatchScratch::default();
        s.ensure_survival(100, 10);
        assert_eq!(s.survival.len(), 11);
        assert!((s.survival[0] - 1.0).abs() < 1e-15);
        assert!((s.survival[1] - 1.0).abs() < 1e-15, "first pair never collides");
        // G(2) = (n−2)(n−3)/(n(n−1)).
        let g2 = 98.0 * 97.0 / (100.0 * 99.0);
        assert!((s.survival[2] - g2).abs() < 1e-12);
        assert!(s.survival.windows(2).all(|w| w[1] <= w[0]));
    }

    #[test]
    fn run_length_stays_in_bounds_and_matches_birthday_scale() {
        let mut s = BatchScratch::default();
        let n = 10_000u64;
        let cap = default_cap(n);
        s.ensure_survival(n, cap);
        let mut rng = seeded_rng(3);
        let trials = 20_000;
        let mut sum = 0u64;
        for _ in 0..trials {
            let l = s.sample_run_length(&mut rng, cap);
            assert!((1..=cap).contains(&l));
            sum += l;
        }
        // E[min(L, √n)] is Θ(√n); loose sanity band.
        let mean = sum as f64 / f64::from(trials);
        assert!(mean > 0.3 * cap as f64, "mean run {mean} vs cap {cap}");
    }

    #[test]
    fn batch_once_respects_budget_and_advances() {
        let mut sim = Simulation::from_counts(epidemic(), [(true, 10), (false, 90)]);
        let mut rng = seeded_rng(5);
        for budget in [1u64, 2, 3, 7, 100] {
            let before = sim.steps();
            let adv = sim.batch_once(budget, &mut rng);
            assert!(adv >= 1 && adv <= budget, "advanced {adv} with budget {budget}");
            assert_eq!(sim.steps(), before + adv);
            assert_eq!(sim.population(), 100);
        }
    }

    #[test]
    fn run_batched_hits_the_step_target_exactly() {
        let mut sim = Simulation::from_counts(epidemic(), [(true, 1), (false, 999)]);
        let mut rng = seeded_rng(6);
        sim.run_batched(12_345, &mut rng);
        assert_eq!(sim.steps(), 12_345);
        sim.run_batched(7, &mut rng);
        assert_eq!(sim.steps(), 12_352);
    }

    #[test]
    fn batched_epidemic_converges() {
        let mut sim = Simulation::from_counts(epidemic(), [(true, 1), (false, 4_095)]);
        let mut rng = seeded_rng(7);
        let rep = sim.measure_stabilization_batched(&true, 400_000, &mut rng);
        assert!(rep.converged(), "epidemic must saturate");
        // Exactly n − 1 effective interactions infect everyone.
        assert_eq!(sim.effective_steps(), 4_095);
        assert_eq!(sim.consensus_output(), Some(&true));
    }

    #[test]
    fn quiescent_configuration_batches_are_pure_noops() {
        let mut sim = Simulation::from_counts(epidemic(), [(true, 100)]);
        let mut rng = seeded_rng(8);
        sim.run_batched(5_000, &mut rng);
        assert_eq!(sim.steps(), 5_000);
        assert_eq!(sim.effective_steps(), 0);
        assert_eq!(sim.count_of_state(&true), 100);
    }
}
