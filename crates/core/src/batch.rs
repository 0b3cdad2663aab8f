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
//! an approximation. It advances in **windows**: one window spans several
//! consecutive collision-free runs (up to `F·⌊√n⌋` fresh pairs, `F ≤ 4`)
//! plus the collisions that end them, and samples all of them with a
//! single multiset sweep. Call an agent *touched* once it has interacted
//! in the current window. The argument, piece by piece:
//!
//! **Run lengths need only counts.** Under uniform random pairing, with
//! `τ` agents touched, the next `i` interactions touch `2i` distinct
//! untouched agents with probability
//! `G_τ(i) = Π_{m<i} (n−τ−2m)(n−τ−2m−1)/(n(n−1))`, independent of any
//! state. That is a ratio `T(τ+2i)/T(τ)` of one falling-factorial table,
//! which the engine tabulates once per population size and inverts with
//! one uniform draw and a binary search. The birthday bound puts each run
//! at `Θ(√n)` interactions.
//!
//! **So do collision roles.** The interaction that ends a run touches at
//! least one touched agent. Of the `n(n−1) − (n−τ)(n−τ−1)` colliding
//! ordered pairs, `τ(τ−1)` are touched/touched and `τ(n−τ)` per
//! orientation pair a touched agent with an untouched one (an *extra*,
//! which joins the touched set). Again only `τ` and `n` matter, so every
//! run length and collision kind of a window is drawn up front, before
//! any state is known.
//!
//! **Ending a window is exact.** A window stops when its fresh-pair
//! budget, its collision bound or the caller's step budget binds. That is
//! exact because the chain is Markov in the configuration: given the
//! configuration reached, later interactions are independent of how the
//! window produced it. The next window starts with nothing touched.
//!
//! **Every newly touched agent is one exchangeable sample.** The fresh
//! pairs of all runs, plus the extras, are uniform without-replacement
//! draws from the population, so their states form one multivariate
//! hypergeometric sample and the decomposition order is free. The engine
//! draws the extras' states first (one categorical draw each), then the
//! initiator multiset of all fresh pairs, then gives each initiator state
//! its responder multiset by successive multivariate hypergeometric draws
//! from the common leftover pool — the conditional decomposition of "draw
//! `ℓ` responders, match uniformly" ([`crate::sampling`] provides the
//! exact samplers; each sweep visits categories in descending count order,
//! which is law-invariant and lets most sweeps terminate after a few
//! draws). The fresh pairs' agents are all distinct, so their transitions
//! commute and are applied to the counts in bulk, grouped by state pair.
//!
//! **Collision endpoints resolve by slot index.** Pair slots are filled in
//! time order, so "a uniform touched agent at collision `c`" is a uniform
//! (slot, endpoint) with slot below `c`'s prefix count, or one of the
//! earlier extras. Conditioned on the sweep's group counts, the pair type
//! of a not-yet-revealed slot is categorical over the *remaining* group
//! counts; revealed slots keep their (post-transition, possibly
//! collision-updated) states in a small table. Each collision thus costs
//! `O(1)` draws and one ordinary transition, and the expensive sweep
//! amortizes over `≈ F√n` interactions.
//!
//! Each piece reproduces the conditional law of the sequential chain given
//! the previous pieces, so their composition is the chain itself. The only
//! thing a window forgets is the *interleaving order* of its fresh pairs —
//! immaterial, since they commute and are exchangeable.
//!
//! # Probes
//!
//! A window reports its fresh pairs to the attached [`Probe`] as one
//! [`BatchEvent`], grouped by state pair, and then each collision as an
//! ordinary `on_interaction` event, in window order. The default
//! [`Probe::on_batch`] replays the group through
//! `on_interaction`/`on_output_change`, so existing probes observe a
//! batched run exactly as a sequential one, up to order within a window.
//!
//! That order — all fresh pairs, then the collisions — is a valid
//! ordering of the window: it gives every interaction its true before and
//! after states. A fresh pair touches no agent that an earlier collision
//! touched, because the extras leave the pool before the sweep and a
//! collision touches only earlier slots or extras; so each fresh pair
//! commutes with every collision it is moved ahead of. The feed draws no
//! random numbers, so a probed run consumes exactly the RNG stream of an
//! unprobed one, and [`NoProbe`](crate::observe::NoProbe) compiles it
//! away entirely.
//!
//! # When to use what
//!
//! * [`Simulation::run_batched`] — large populations (n ≳ 10⁴), *before*
//!   convergence, when most interactions still change state. Below a few
//!   hundred agents a window covers too few interactions to pay for its
//!   sweep: E19's crossover rows (a fresh simulation, 2·10⁵ interactions)
//!   put windows at 0.27–0.64× the speed of [`Simulation::run`] for
//!   n ≤ 100, break-even near n = 316 for approximate majority and near
//!   n = 1000 for exact majority. `RunSpec` requests below
//!   [`BATCHED_MIN_POPULATION`](crate::spec::BATCHED_MIN_POPULATION)
//!   agents therefore step sequentially even when they ask for
//!   `"engine": "batched"`.
//! * [`Simulation::leap`] — *after* effective convergence, when almost all
//!   interactions are no-ops: it fast-forwards the no-op geometric tail in
//!   closed form, which batching does not.
//! * [`Simulation::step`] — small populations, or when per-interaction
//!   control flow is needed.

use rand::Rng;

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
/// engine; lives on [`Simulation`] so repeated windows allocate nothing.
#[derive(Debug, Clone, Default)]
pub(crate) struct BatchScratch {
    /// Population the window tables were built for (0 = none).
    tab_n: u64,
    /// `ratio[k] = Π_{j<k} (n−j)/n`: normalized falling factorial. Offset
    /// survival functions are ratios of this table,
    /// `G_τ(i) = ratio[τ+2i] / (ratio[τ] · qpow[i])`; keeping each entry in
    /// `(0, 1]` (the exponent `−k²/2n` is bounded by the window size) makes
    /// the iterated product accurate to `~len·ε` relative.
    ratio: Vec<f64>,
    /// `qpow[i] = ((n−1)/n)^i`.
    qpow: Vec<f64>,
    /// Initiator state counts of the current window's fresh pairs.
    initiators: Vec<u64>,
    /// Agents still available for sampling: configuration counts depleted by
    /// extras, then initiators, then claimed responders.
    pool: Vec<u64>,
    /// Per-initiator-state matching draw.
    matched: Vec<u64>,
    /// Descending-count processing order for the conditional sweeps.
    perm: Vec<u32>,
    /// The window's fresh pairs grouped as `(initiator, responder, count)`.
    groups: Vec<(StateId, StateId, u64)>,
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

/// `⌊√n⌋`, the run-length scale: a collision-free run of this length still
/// has probability bounded away from 0, and a window of `F` such runs
/// amortizes its `O(|Q|²)` sampling cost to `O(|Q|²/√n)` per interaction.
fn default_cap(n: u64) -> u64 {
    ((n as f64).sqrt().floor() as u64).max(1)
}

/// Multivariate hypergeometric sample of `draws` agents from `counts` into
/// `out`, processed in the category order given by `perm` (descending
/// population count, precomputed once per window). The conditional
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
            self.window_once(target - self.steps, rng);
        }
    }

    /// Batched variant of
    /// [`measure_stabilization`](Self::measure_stabilization): runs
    /// `horizon` interactions and reports when the output assignment last
    /// became (and stayed) `expected` on every agent.
    ///
    /// Wrongness is checked at **window boundaries**, so `stabilized_at` is
    /// the first step of the window at whose end the output was last seen
    /// to turn correct: a *lower* bound on the step after which the run's
    /// output actually stayed correct. When wrongness is monotone (as in
    /// an epidemic) the gap is less than one window — at most `4⌊√n⌋`
    /// fresh pairs plus `MAX_WINDOW_COLLISIONS` collisions, `o(1)` of any
    /// `Ω(n)` stabilization time; a wrong excursion that starts and ends
    /// between two boundaries goes unseen. Convergence/divergence at the
    /// horizon is decided exactly as in the sequential version.
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
            self.window_once(horizon - (self.steps - start), rng);
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

    /// Executes one window of at most `budget` interactions (at least one):
    /// several collision-free runs sampled with a single combined sweep,
    /// plus their interleaved collision interactions (see the
    /// [module docs](crate::batch)). Returns how many interactions were
    /// executed. An attached probe sees the fresh pairs as one
    /// [`BatchEvent`], then each collision (§ *Probes*).
    fn window_once(&mut self, budget: u64, rng: &mut impl Rng) -> u64 {
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
        // Take the scratch off `self` so the loops below can call
        // `&mut self` engine methods (transition memoization, probes).
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

        // Bulk-apply the fresh pairs, grouped by state pair. They touch no
        // agent a collision touches before them, so a probe may see them
        // all before the collisions (module docs § *Probes*).
        scratch.replay.clear();
        let mut effective = 0u64;
        for &(s, t, c) in &scratch.groups {
            let (s2, t2) = self.rt.transition(s, t);
            let eff = (s2, t2) != (s, t);
            if eff {
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
        let first_step = self.steps + 1;
        self.steps += pairs;
        self.effective_steps += effective;
        if Pr::ACTIVE {
            if Tr::ACTIVE {
                self.tracer.enter(SpanKind::Probe);
            }
            self.probe.on_batch(&BatchEvent { first_step, len: pairs, pairs: &scratch.replay });
            if Tr::ACTIVE {
                self.tracer.exit(SpanKind::Probe, pairs);
            }
        }

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
    use crate::observe::{ConvergenceProbe, MetricsProbe};
    use crate::protocol::FnProtocol;

    fn epidemic() -> impl Protocol<State = bool, Input = bool, Output = bool> {
        FnProtocol::new(
            |&b: &bool| b,
            |&q: &bool| q,
            |&p: &bool, &q: &bool| (p || q, p || q),
        )
    }

    #[test]
    fn window_once_respects_budget_and_feeds_every_interaction_to_the_probe() {
        let mut sim = Simulation::from_counts(epidemic(), [(true, 10), (false, 90)])
            .with_probe(MetricsProbe::new());
        let mut rng = seeded_rng(5);
        for budget in [1u64, 2, 3, 7, 100] {
            let before = sim.steps();
            let adv = sim.window_once(budget, &mut rng);
            assert!(adv >= 1 && adv <= budget, "advanced {adv} with budget {budget}");
            assert_eq!(sim.steps(), before + adv);
            assert_eq!(sim.probe().interactions(), sim.steps());
            assert_eq!(sim.population(), 100);
        }
    }

    #[test]
    fn stabilization_is_the_first_step_of_the_final_window() {
        // Epidemic wrongness is monotone, so the step a probe sees the last
        // agent infected lies inside the window the engine reports: at or
        // after its first step, and less than one window past it.
        for (n, seed) in [(100u64, 11u64), (4_096, 12), (100_000, 13)] {
            let mut sim = Simulation::from_counts(epidemic(), [(true, 1), (false, n - 1)]);
            let out = sim.output_id(&true);
            let mut sim = sim.with_probe(ConvergenceProbe::for_output(out));
            let mut rng = seeded_rng(seed);
            let rep = sim.measure_stabilization_batched(&true, 30 * n, &mut rng);
            let engine = rep.stabilized_at.expect("epidemic must saturate");
            let probe = sim.probe().stabilized_at().expect("probe saw saturation");
            let window = 4 * default_cap(n) + MAX_WINDOW_COLLISIONS as u64;
            assert!(engine <= probe && probe < engine + window, "n={n}: {engine} vs {probe}");
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
