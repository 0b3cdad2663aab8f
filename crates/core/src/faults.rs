//! Fault injection and empirical self-stabilization measurement.
//!
//! The paper's sensors are "small, cheap and unreliable" (§1): they ride on
//! birds, sit in smoke detectors, or are carried by vehicles, and §8 asks
//! explicitly what a protocol guarantees when they fail. This module makes
//! those failure modes executable. Each [`FaultPlan`] model corresponds to a
//! concrete mishap of the §1–§2 sensor-network story:
//!
//! * [`CrashFaults`] — a sensor's battery dies or the bird carrying it
//!   leaves the flock. §8 observes that crashes are benign for predicates
//!   already true of the surviving population: "if an agent dies, the
//!   interactions between the remaining agents are unaffected". Crashes
//!   *do* break protocols whose answer depends on the lost agents' tokens
//!   (e.g. the flock-of-birds count when an alerted bird dies).
//! * [`TransientCorruption`] — a cosmic ray, brown-out or radio glitch
//!   scrambles a sensor's `O(1)` memory without stopping it. The sensor
//!   keeps interacting from an arbitrary state. This is the classical
//!   *self-stabilization* adversary: a protocol recovers iff every fair
//!   execution from the corrupted configuration re-stabilizes to the
//!   correct output.
//! * [`InteractionDrop`] — two sensors pass within radio range but the
//!   exchange fails (collision, noise, §2's unreliable low-power links).
//!   Under the paper's fairness assumption a dropped encounter merely
//!   delays the schedule, so stable protocols should tolerate any constant
//!   drop rate at a time cost.
//! * [`Churn`] — a sensor leaves the population and a factory-fresh one
//!   (initial state, as if just given its input) joins: zebras wander in
//!   and out of the ZebraNet herd (§2). The population size is preserved so
//!   the count-based engine's multiset stays well-formed.
//! * [`AdversarialInit`] — the defining adversary of *self-stabilization*:
//!   the run does not start from the image of the input function at all but
//!   from an **arbitrary** configuration the adversary picked (the sensors
//!   were deployed with stale, scrambled or maliciously chosen memory).
//!   Unlike the mid-run models above it damages only slot 0, and it may
//!   rewrite *every* agent. Protocols designed to survive it live in
//!   `pp-protocols`: the leaderless `phase_clock` module and the coin-driven
//!   `ranking` module both re-converge from any such start; the paper's
//!   exact constructions (majority, parity) generally do not — they
//!   stabilize *wrong*, which [`Mttr`] reports as a zero recovery
//!   probability with a non-zero residual tail.
//!
//! # Measuring recovery
//!
//! Both engines gain
//! [`run_with_faults`](crate::Simulation::run_with_faults): run a horizon of
//! interactions, let the plan inject faults between them, and segment the
//! run at each injection burst. Every segment yields a [`RecoveryReport`]
//! recording when (and whether) the population's outputs returned to the
//! expected value and how many agents were still wrong at the segment's
//! end. A protocol *self-stabilizes* against a fault model when the final
//! segment recovers; it *stabilizes wrong* when the run ends quiet but with
//! a non-zero residual error (e.g. exact majority after adversarial
//! corruption has flipped the apparent winner — the computation is stable,
//! and stably wrong).
//!
//! # Example
//!
//! An epidemic recovers from a mid-run corruption burst:
//!
//! ```
//! use pp_core::faults::TransientCorruption;
//! use pp_core::{seeded_rng, FnProtocol, Simulation};
//!
//! let epidemic = FnProtocol::new(
//!     |&b: &bool| b,
//!     |&q: &bool| q,
//!     |&p: &bool, &q: &bool| (p || q, p || q),
//! );
//! let mut sim = Simulation::from_counts(epidemic, [(true, 1), (false, 63)]);
//! // At interaction 2000, reset 20 agents to the susceptible state.
//! let mut plan = TransientCorruption::adversarial_at(2000, 20, false);
//! let mut rng = seeded_rng(3);
//! let report = sim.run_with_faults(&mut plan, &true, 40_000, &mut rng);
//! assert_eq!(report.segments.len(), 2);
//! assert!(report.recovered(), "the epidemic re-infects the corrupted agents");
//! ```

use rand::{Rng, RngCore};

use crate::engine::{consensus_reached, AgentSimulation, Simulation};
use crate::ensemble::{LogHistogram, Welford};
use crate::json::json_f64;
use crate::observe::Probe;
use crate::protocol::Protocol;
use crate::scheduler::PairSampler;
use crate::trace::Tracer;

/// Engine-agnostic handle a [`FaultPlan`] uses to damage the population.
///
/// Both [`Simulation`] (multiset) and [`AgentSimulation`] (per-agent)
/// implement this behind an adapter, so one fault model drives both
/// engines — and both produce the same [`RecoveryReport`] shape.
pub trait FaultCtx<S> {
    /// Number of agents still participating in interactions.
    fn live_population(&self) -> u64;

    /// Crashes one uniformly random live agent. Returns `false` when the
    /// engine refuses (fewer than 3 live agents — the model needs a pair).
    fn crash_random(&mut self, rng: &mut dyn RngCore) -> bool;

    /// Rewrites one uniformly random live agent's state to `to`.
    fn corrupt_random(&mut self, to: &S, rng: &mut dyn RngCore);

    /// Rewrites one uniformly random live agent's state to `f(old)` — the
    /// state-function form of [`corrupt_random`](Self::corrupt_random), so
    /// [`CorruptionMode::Targeted`] can aim at whatever the victim currently
    /// holds (demote the current leader, clobber the current rank).
    fn corrupt_random_with(&mut self, f: fn(&S) -> S, rng: &mut dyn RngCore);

    /// Replaces the state of **every** live agent: live agent `i` (in a
    /// fixed engine-defined order, `0..live_population`) gets `next(i)`.
    /// Only [`AdversarialInit`] uses this — per-agent corruption cannot
    /// guarantee hitting each agent exactly once on the multiset engine.
    fn overwrite_population(&mut self, next: &mut dyn FnMut(u64) -> S);

    /// A uniformly random state among those the run has occupied so far.
    fn random_known_state(&mut self, rng: &mut dyn RngCore) -> S;
}

/// A fault model: decides, between interactions, what damage to inject.
///
/// Implementations should be deterministic functions of `(step, rng)` so a
/// run is exactly replayable from its seed; the provided models keep no
/// mutable progress state for this reason.
pub trait FaultPlan<S> {
    /// Called before the interaction at `step` (0-based, relative to the
    /// `run_with_faults` call). Applies any scheduled damage through `ctx`
    /// and returns the number of faults actually injected.
    fn inject(&mut self, step: u64, ctx: &mut dyn FaultCtx<S>, rng: &mut dyn RngCore) -> u64;

    /// Probability that the interaction at `step` is dropped (both agents
    /// met, nothing happened). The default fault-free value is `0.0`.
    fn drop_probability(&mut self, step: u64) -> f64 {
        let _ = step;
        0.0
    }
}

/// Crash model: at each scheduled step, a burst of uniformly random live
/// agents permanently stops interacting (§8 "agent dies").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashFaults {
    schedule: Vec<(u64, u64)>,
}

impl CrashFaults {
    /// One burst: crash `count` random agents just before interaction `step`.
    pub fn at(step: u64, count: u64) -> Self {
        Self { schedule: vec![(step, count)] }
    }

    /// Several bursts of `(step, count)`.
    pub fn schedule(bursts: Vec<(u64, u64)>) -> Self {
        Self { schedule: bursts }
    }
}

impl<S> FaultPlan<S> for CrashFaults {
    fn inject(&mut self, step: u64, ctx: &mut dyn FaultCtx<S>, rng: &mut dyn RngCore) -> u64 {
        let mut applied = 0;
        for &(t, k) in &self.schedule {
            if t == step {
                for _ in 0..k {
                    if ctx.crash_random(rng) {
                        applied += 1;
                    }
                }
            }
        }
        applied
    }
}

/// How [`TransientCorruption`] rewrites a victim's memory.
// Fn-pointer equality is only used to compare plans built from the same
// constructor calls (replay bookkeeping), where address identity suffices.
#[allow(unpredictable_function_pointer_comparisons)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CorruptionMode<S> {
    /// Each victim gets an independent uniformly random state among those
    /// the run has occupied — a memory scramble with no adversarial aim.
    UniformKnown,
    /// Every victim is rewritten to this state — the worst-case adversary
    /// of the self-stabilization literature picks the most damaging value.
    SetTo(S),
    /// Every victim is rewritten to a *function* of its current state, so
    /// the burst can target what the victim holds right now (e.g. demote
    /// whoever is currently a leader, or scramble only the rank field). A
    /// plain `fn` pointer keeps the mode `Clone`/`Eq`/replayable.
    Targeted(fn(&S) -> S),
}

/// Transient-corruption model: at each scheduled step, a burst of `k`
/// uniformly random live agents have their states rewritten (they keep
/// interacting — nothing crashes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransientCorruption<S> {
    schedule: Vec<(u64, u64)>,
    mode: CorruptionMode<S>,
}

impl<S> TransientCorruption<S> {
    /// One burst of `count` uniformly random rewrites before `step`.
    pub fn uniform_at(step: u64, count: u64) -> Self {
        Self { schedule: vec![(step, count)], mode: CorruptionMode::UniformKnown }
    }

    /// One adversarial burst: `count` agents are all set to `state`.
    pub fn adversarial_at(step: u64, count: u64, state: S) -> Self {
        Self { schedule: vec![(step, count)], mode: CorruptionMode::SetTo(state) }
    }

    /// One targeted burst: `count` random agents are rewritten to a
    /// function of their current state (see [`CorruptionMode::Targeted`]).
    pub fn targeted_at(step: u64, count: u64, f: fn(&S) -> S) -> Self {
        Self { schedule: vec![(step, count)], mode: CorruptionMode::Targeted(f) }
    }

    /// Several bursts of `(step, count)` sharing one corruption mode.
    pub fn schedule(bursts: Vec<(u64, u64)>, mode: CorruptionMode<S>) -> Self {
        Self { schedule: bursts, mode }
    }
}

impl<S: Clone> FaultPlan<S> for TransientCorruption<S> {
    fn inject(&mut self, step: u64, ctx: &mut dyn FaultCtx<S>, rng: &mut dyn RngCore) -> u64 {
        let mut applied = 0;
        for i in 0..self.schedule.len() {
            let (t, k) = self.schedule[i];
            if t != step {
                continue;
            }
            for _ in 0..k {
                match &self.mode {
                    CorruptionMode::UniformKnown => {
                        let to = ctx.random_known_state(rng);
                        ctx.corrupt_random(&to, rng);
                    }
                    CorruptionMode::SetTo(s) => {
                        let to = s.clone();
                        ctx.corrupt_random(&to, rng);
                    }
                    CorruptionMode::Targeted(f) => ctx.corrupt_random_with(*f, rng),
                }
                applied += 1;
            }
        }
        applied
    }
}

/// Message-loss model: every encounter independently fails with probability
/// `p` (the agents meet, the radio exchange does not happen, neither state
/// changes). Drops are *not* counted as faults in the recovery segmentation
/// — they slow the schedule rather than damage the configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct InteractionDrop {
    p: f64,
}

impl InteractionDrop {
    /// Drop each interaction with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p < 1.0` (a drop rate of 1 would freeze the
    /// schedule forever, violating fairness).
    pub fn new(p: f64) -> Self {
        assert!((0.0..1.0).contains(&p), "drop probability must be in [0, 1), got {p}");
        Self { p }
    }
}

impl<S> FaultPlan<S> for InteractionDrop {
    fn inject(&mut self, _step: u64, _ctx: &mut dyn FaultCtx<S>, _rng: &mut dyn RngCore) -> u64 {
        0
    }

    fn drop_probability(&mut self, _step: u64) -> f64 {
        self.p
    }
}

/// Churn model: every `period` interactions, `count` uniformly random live
/// agents leave and the same number of factory-fresh agents (state `fresh`)
/// join. Population size is preserved, so the multiset engine stays
/// well-formed; the per-agent engine reuses the departed agents' slots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Churn<S> {
    period: u64,
    count: u64,
    fresh: S,
}

impl<S> Churn<S> {
    /// Replace `count` random agents with fresh ones (state `fresh`) every
    /// `period` interactions, starting at interaction `period`.
    ///
    /// # Panics
    ///
    /// Panics if `period` is 0.
    pub fn new(period: u64, count: u64, fresh: S) -> Self {
        assert!(period > 0, "churn period must be positive");
        Self { period, count, fresh }
    }
}

impl<S: Clone> FaultPlan<S> for Churn<S> {
    fn inject(&mut self, step: u64, ctx: &mut dyn FaultCtx<S>, rng: &mut dyn RngCore) -> u64 {
        if step == 0 || !step.is_multiple_of(self.period) {
            return 0;
        }
        for _ in 0..self.count {
            ctx.corrupt_random(&self.fresh.clone(), rng);
        }
        self.count
    }
}

/// How [`AdversarialInit`] picks the arbitrary starting configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdversarialInitMode<S> {
    /// Each agent independently gets a uniformly random state from the
    /// given universe — the "scrambled memory" start.
    UniformRandom(Vec<S>),
    /// Every agent gets the same state — the single-state flood that kills
    /// protocols relying on a unique token or leader surviving somewhere.
    Flood(S),
    /// The `index`-th multiset of size `n` over the universe, in the
    /// combinatorial-number-system order used by
    /// [`enumeration_count`]/[`unrank_multiset`] — with this mode a driver
    /// can sweep **every** configuration of a small population and make
    /// "recovers from *any* start" an exhaustive check rather than a
    /// sampled one.
    Enumerated {
        /// The state universe the configuration is drawn over.
        universe: Vec<S>,
        /// Rank of the configuration among all
        /// [`enumeration_count`]`(universe.len(), n)` multisets.
        index: u128,
    },
}

/// The self-stabilization adversary: a [`FaultPlan`] that rewrites the
/// **entire** population before the first interaction (slot 0) and then
/// never interferes again. A protocol self-stabilizes against a mode iff
/// every seeded run started this way reaches its legal configuration.
///
/// Distinct from [`TransientCorruption`]: a mid-run burst damages `k`
/// random victims of a healthy run, while adversarial init controls every
/// agent and the protocol gets no clean prefix at all. On the agent engine
/// it also clears all synthesized coins
/// ([`AgentSimulation::clear_coins`]) so a
/// [`CoinProtocol`](crate::CoinProtocol) cannot smuggle trusted state
/// through the coin side channel.
///
/// Apply it standalone with
/// [`Simulation::apply_adversarial_init`] /
/// [`AgentSimulation::apply_adversarial_init`], or use it as a plan in
/// `run_with_faults` (it injects `n` faults at slot 0, so the first
/// [`RecoveryReport`] segment is the degenerate pre-init prefix and the
/// *final* segment is the recovery verdict — exactly what
/// [`Mttr`] summarizes).
///
/// The protocols designed to beat this adversary live in `pp-protocols`:
/// the leaderless `phase_clock` module re-synchronizes its hour hands and
/// the `ranking` module re-derives a permutation of `1..=n` from any of
/// these modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdversarialInit<S> {
    mode: AdversarialInitMode<S>,
}

impl<S: Clone> AdversarialInit<S> {
    /// Uniform-random mode over the given non-empty state universe.
    ///
    /// # Panics
    ///
    /// Panics if `universe` is empty.
    pub fn uniform_random(universe: Vec<S>) -> Self {
        assert!(!universe.is_empty(), "adversarial-init universe must be non-empty");
        Self { mode: AdversarialInitMode::UniformRandom(universe) }
    }

    /// Flood mode: every agent starts in `state`.
    pub fn flood(state: S) -> Self {
        Self { mode: AdversarialInitMode::Flood(state) }
    }

    /// Worst-case enumeration mode: the `index`-th of all
    /// [`enumeration_count`]`(universe.len(), n)` starting configurations.
    ///
    /// # Panics
    ///
    /// Panics if `universe` is empty; [`apply`](Self::apply) panics if
    /// `index` is out of range for the population it meets.
    pub fn enumerated(universe: Vec<S>, index: u128) -> Self {
        assert!(!universe.is_empty(), "adversarial-init universe must be non-empty");
        Self { mode: AdversarialInitMode::Enumerated { universe, index } }
    }

    /// The configured mode.
    pub fn mode(&self) -> &AdversarialInitMode<S> {
        &self.mode
    }

    /// Rewrites the whole live population through `ctx`; returns the number
    /// of agents rewritten.
    pub fn apply(&self, ctx: &mut dyn FaultCtx<S>, rng: &mut dyn RngCore) -> u64 {
        let n = ctx.live_population();
        match &self.mode {
            AdversarialInitMode::Flood(s) => {
                ctx.overwrite_population(&mut |_| s.clone());
            }
            AdversarialInitMode::UniformRandom(universe) => {
                ctx.overwrite_population(&mut |_| {
                    universe[rng.gen_range(0..universe.len())].clone()
                });
            }
            AdversarialInitMode::Enumerated { universe, index } => {
                let counts = unrank_multiset(universe.len(), n, *index);
                let mut kind = 0usize;
                let mut left = counts[0];
                ctx.overwrite_population(&mut |_| {
                    while left == 0 {
                        kind += 1;
                        left = counts[kind];
                    }
                    left -= 1;
                    universe[kind].clone()
                });
            }
        }
        n
    }
}

impl<S: Clone> FaultPlan<S> for AdversarialInit<S> {
    fn inject(&mut self, step: u64, ctx: &mut dyn FaultCtx<S>, rng: &mut dyn RngCore) -> u64 {
        if step == 0 {
            self.apply(ctx, rng)
        } else {
            0
        }
    }
}

/// Number of distinct configurations of `population` anonymous agents over
/// `universe_len` states: the multiset count `C(n + k − 1, k − 1)`. This is
/// the exclusive upper bound for [`AdversarialInitMode::Enumerated`]
/// indices.
///
/// # Panics
///
/// Panics if `universe_len` is 0 or the count overflows `u128` (far beyond
/// any enumerable sweep).
pub fn enumeration_count(universe_len: usize, population: u64) -> u128 {
    assert!(universe_len > 0, "universe must be non-empty");
    binomial(population as u128 + universe_len as u128 - 1, universe_len as u128 - 1)
}

/// Exact binomial coefficient in `u128`, multiplying in an order that keeps
/// every intermediate value an exact integer.
fn binomial(n: u128, k: u128) -> u128 {
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for i in 0..k {
        acc = acc
            .checked_mul(n - i)
            .expect("binomial overflows u128 — population too large to enumerate")
            / (i + 1);
    }
    acc
}

/// Unranks `index` into per-state occupancy counts `(c_0, …, c_{k−1})` with
/// `Σ c_i = population`, in the order that enumerates configurations by the
/// count of state 0, then state 1, and so on (the combinatorial number
/// system for multisets). Inverse of that enumeration's ranking; the public
/// entry point is [`AdversarialInitMode::Enumerated`].
///
/// # Panics
///
/// Panics if `index >=` [`enumeration_count`]`(universe_len, population)`.
pub fn unrank_multiset(universe_len: usize, population: u64, mut index: u128) -> Vec<u64> {
    assert!(
        index < enumeration_count(universe_len, population),
        "enumeration index {index} out of range"
    );
    let mut counts = Vec::with_capacity(universe_len);
    let mut n = population;
    for remaining in (1..=universe_len).rev() {
        if remaining == 1 {
            counts.push(n);
            break;
        }
        let mut c = 0u64;
        loop {
            let block = enumeration_count(remaining - 1, n - c);
            if index < block {
                break;
            }
            index -= block;
            c += 1;
        }
        counts.push(c);
        n -= c;
    }
    counts
}

/// Two fault plans compose into one: both inject, and an interaction
/// survives only if neither drops it.
impl<S, A: FaultPlan<S>, B: FaultPlan<S>> FaultPlan<S> for (A, B) {
    fn inject(&mut self, step: u64, ctx: &mut dyn FaultCtx<S>, rng: &mut dyn RngCore) -> u64 {
        self.0.inject(step, ctx, rng) + self.1.inject(step, ctx, rng)
    }

    fn drop_probability(&mut self, step: u64) -> f64 {
        let (a, b) = (self.0.drop_probability(step), self.1.drop_probability(step));
        1.0 - (1.0 - a) * (1.0 - b)
    }
}

/// Recovery outcome for one fault-free segment of a faulted run (from one
/// injection burst to the next, or to the horizon).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Interaction slot (relative to the `run_with_faults` call) at which
    /// this segment began — `0` for the initial segment, otherwise the slot
    /// whose injection burst opened it.
    pub injected_at: u64,
    /// First slot after which every live agent's output was continuously
    /// `expected` through the end of the segment; `None` if the segment
    /// ended with some agent still wrong.
    pub recovered_at: Option<u64>,
    /// Number of live agents whose output was still wrong when the segment
    /// closed (0 iff `recovered_at` is `Some`).
    pub residual_error: u64,
}

impl RecoveryReport {
    /// Whether the population's outputs returned to the expected value.
    pub fn recovered(&self) -> bool {
        self.recovered_at.is_some()
    }

    /// Interactions from the start of the segment to recovery.
    pub fn recovery_time(&self) -> Option<u64> {
        self.recovered_at.map(|t| t - self.injected_at)
    }
}

/// Full account of a [`run_with_faults`](Simulation::run_with_faults) run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRunReport {
    /// Interaction slots executed (including dropped and starved slots).
    pub horizon: u64,
    /// One report per fault-free segment, in order; the first covers the
    /// undamaged prefix, each later one follows an injection burst.
    pub segments: Vec<RecoveryReport>,
    /// Total faults the plan injected (crashes + corruptions + churn).
    pub faults_injected: u64,
    /// Interactions lost to [`InteractionDrop`]-style message loss.
    pub dropped: u64,
    /// Slots where no live pair could be sampled (agent engine only).
    pub starved: u64,
}

impl FaultRunReport {
    /// The segment after the last injection burst — the verdict on whether
    /// the protocol self-stabilized against the whole plan.
    pub fn final_segment(&self) -> &RecoveryReport {
        self.segments.last().expect("a run always has at least one segment")
    }

    /// Whether the run ended with every live agent's output correct.
    pub fn recovered(&self) -> bool {
        self.final_segment().recovered()
    }
}

/// Closes a segment: converts running last-wrong tracking into the
/// `recovered_at` convention of `StabilizationReport` via the shared
/// [`consensus_reached`] predicate (`wrong after slot t` ⇒ recovered at
/// `t + 1` at the earliest).
fn close_segment(
    injected_at: u64,
    wrong: u64,
    last_wrong: Option<u64>,
) -> RecoveryReport {
    RecoveryReport {
        injected_at,
        recovered_at: consensus_reached(wrong, last_wrong, injected_at),
        residual_error: wrong,
    }
}

/// Mean-time-to-recover summary over [`RecoveryReport`] segments — the
/// scalar the self-stabilization literature reports, in mergeable form.
///
/// Absorbs one segment per trial (conventionally the *final* segment; see
/// [`FaultEnsembleReport::final_mttr`](crate::ensemble::FaultEnsembleReport::final_mttr)),
/// tracking the recovery probability, the moments and log-histogram of the
/// recovery times of the trials that did recover, and the residual-error
/// tail of those that did not. [`merge`](Self::merge) is the ensemble
/// combiner: counters and the histogram merge exactly, the moments by
/// Chan's parallel Welford update — so folding per-trial summaries in trial
/// order yields byte-identical [`to_json`](Self::to_json) output at any
/// thread count.
#[derive(Debug, Clone, Default)]
pub struct Mttr {
    trials: u64,
    recovered: u64,
    time: Welford,
    residual: Welford,
    histogram: LogHistogram,
}

impl Mttr {
    /// An empty summary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorbs one trial's verdict segment.
    pub fn absorb(&mut self, seg: &RecoveryReport) {
        self.trials += 1;
        if let Some(t) = seg.recovery_time() {
            self.recovered += 1;
            self.time.push(t as f64);
            self.histogram.push(t as f64);
        }
        self.residual.push(seg.residual_error as f64);
    }

    /// Absorbs a whole other summary.
    pub fn merge(&mut self, other: &Self) {
        self.trials += other.trials;
        self.recovered += other.recovered;
        self.time.merge(other.time);
        self.residual.merge(other.residual);
        self.histogram.merge(&other.histogram);
    }

    /// Trials absorbed.
    pub fn trials(&self) -> u64 {
        self.trials
    }

    /// Trials whose verdict segment recovered.
    pub fn recovered(&self) -> u64 {
        self.recovered
    }

    /// Empirical probability that a trial recovered (NaN when empty).
    pub fn recovery_probability(&self) -> f64 {
        if self.trials == 0 {
            return f64::NAN;
        }
        self.recovered as f64 / self.trials as f64
    }

    /// Mean time to recover, in interaction slots from the burst, over the
    /// recovered trials (NaN if none recovered).
    pub fn mean(&self) -> f64 {
        self.time.mean()
    }

    /// Moments of the recovery times of the recovered trials.
    pub fn time_stats(&self) -> &Welford {
        &self.time
    }

    /// Moments of the residual error over **all** trials — the tail left
    /// behind by non-recovering runs (0 for every recovered trial).
    pub fn residual_stats(&self) -> &Welford {
        &self.residual
    }

    /// Log-spaced histogram of the recovery times.
    pub fn histogram(&self) -> &LogHistogram {
        &self.histogram
    }

    /// Deterministic JSON rendering (schema `pp-mttr/v1`); a pure function
    /// of the absorbed segments and the fold order, so determinism tests
    /// compare these strings byte-for-byte across thread counts.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\"schema\":\"pp-mttr/v1\"");
        s.push_str(&format!(",\"trials\":{}", self.trials));
        s.push_str(&format!(",\"recovered\":{}", self.recovered));
        s.push_str(&format!(",\"recovery_probability\":{}", json_f64(self.recovery_probability())));
        s.push_str(&format!(",\"mttr_mean\":{}", json_f64(self.time.mean())));
        s.push_str(&format!(",\"mttr_std\":{}", json_f64(self.time.std_dev())));
        s.push_str(&format!(",\"mttr_min\":{}", json_f64(self.time.min())));
        s.push_str(&format!(",\"mttr_max\":{}", json_f64(self.time.max())));
        s.push_str(&format!(",\"residual_mean\":{}", json_f64(self.residual.mean())));
        s.push_str(&format!(",\"residual_max\":{}", json_f64(self.residual.max())));
        s.push_str(&format!(",\"histogram\":{{\"underflow\":{}", self.histogram.underflow()));
        s.push_str(",\"buckets\":[");
        for (k, (i, c)) in self.histogram.nonzero().into_iter().enumerate() {
            if k > 0 {
                s.push(',');
            }
            s.push_str(&format!("[{i},{c}]"));
        }
        s.push_str("]}}");
        s
    }
}

/// Adapter giving fault plans access to the multiset engine.
struct CountCtx<'a, P: Protocol, Pr: Probe, Tr: Tracer> {
    sim: &'a mut Simulation<P, Pr, Tr>,
}

impl<P: Protocol, Pr: Probe, Tr: Tracer> FaultCtx<P::State> for CountCtx<'_, P, Pr, Tr> {
    fn live_population(&self) -> u64 {
        self.sim.population()
    }

    fn crash_random(&mut self, rng: &mut dyn RngCore) -> bool {
        if self.sim.population() <= 2 {
            return false;
        }
        self.sim.crash_random_agent(&mut &mut *rng);
        true
    }

    fn corrupt_random(&mut self, to: &P::State, rng: &mut dyn RngCore) {
        self.sim.corrupt_random_agent(to, &mut &mut *rng);
    }

    fn corrupt_random_with(&mut self, f: fn(&P::State) -> P::State, rng: &mut dyn RngCore) {
        self.sim.corrupt_random_agent_with(f, &mut &mut *rng);
    }

    fn overwrite_population(&mut self, next: &mut dyn FnMut(u64) -> P::State) {
        self.sim.overwrite_states(&mut *next);
    }

    fn random_known_state(&mut self, rng: &mut dyn RngCore) -> P::State {
        self.sim.random_known_state(&mut &mut *rng)
    }
}

/// Adapter giving fault plans access to the per-agent engine.
struct AgentCtx<'a, P: Protocol, S, Pr: Probe, Tr: Tracer> {
    sim: &'a mut AgentSimulation<P, S, Pr, Tr>,
}

impl<P: Protocol, S: PairSampler, Pr: Probe, Tr: Tracer> FaultCtx<P::State>
    for AgentCtx<'_, P, S, Pr, Tr>
{
    fn live_population(&self) -> u64 {
        self.sim.live_population() as u64
    }

    fn crash_random(&mut self, rng: &mut dyn RngCore) -> bool {
        self.sim.crash_random_live(&mut &mut *rng).is_some()
    }

    fn corrupt_random(&mut self, to: &P::State, rng: &mut dyn RngCore) {
        let a = self.sim.random_live_agent(&mut &mut *rng);
        self.sim.set_agent_state(a, to);
    }

    fn corrupt_random_with(&mut self, f: fn(&P::State) -> P::State, rng: &mut dyn RngCore) {
        let a = self.sim.random_live_agent(&mut &mut *rng);
        let to = f(self.sim.state_of(a));
        self.sim.set_agent_state(a, &to);
    }

    fn overwrite_population(&mut self, next: &mut dyn FnMut(u64) -> P::State) {
        self.sim.overwrite_live_states(&mut *next);
    }

    fn random_known_state(&mut self, rng: &mut dyn RngCore) -> P::State {
        self.sim.random_known_state(&mut &mut *rng)
    }
}

impl<P: Protocol, Pr: Probe, Tr: Tracer> Simulation<P, Pr, Tr> {
    /// Number of agents whose current output differs from `expected`.
    fn wrong_now(&mut self, expected: &P::Output) -> u64 {
        self.population() - self.count_with_output(expected)
    }

    /// Rewrites the whole population to the adversary's chosen starting
    /// configuration (notifying any attached probe) — the standalone form
    /// for protocols whose "recovered" condition is not a stable output and
    /// therefore cannot go through `run_with_faults` (e.g. the phase
    /// clock's synchronization predicate). Returns the number of agents
    /// rewritten.
    pub fn apply_adversarial_init(
        &mut self,
        init: &AdversarialInit<P::State>,
        rng: &mut impl Rng,
    ) -> u64 {
        let applied = init.apply(&mut CountCtx { sim: self }, &mut *rng);
        self.probe_fault_burst(applied);
        applied
    }

    /// Runs `horizon` interaction slots, letting `plan` inject faults
    /// between interactions, and reports per-segment recovery against the
    /// `expected` stable output.
    ///
    /// Slot accounting is local to this call: slot `t` (0-based) is offered
    /// to `plan` for injection and for a drop decision before the `t`-th
    /// interaction executes. Dropped slots consume a slot but no
    /// interaction, so [`steps`](Self::steps) advances by
    /// `horizon − dropped`.
    pub fn run_with_faults<F>(
        &mut self,
        plan: &mut F,
        expected: &P::Output,
        horizon: u64,
        rng: &mut impl Rng,
    ) -> FaultRunReport
    where
        F: FaultPlan<P::State> + ?Sized,
    {
        let mut segments = Vec::new();
        let mut faults_injected = 0u64;
        let mut dropped = 0u64;
        let mut seg_start = 0u64;
        let mut wrong = self.wrong_now(expected);
        let mut last_wrong: Option<u64> = if wrong > 0 { Some(0) } else { None };
        for slot in 0..horizon {
            let applied = plan.inject(slot, &mut CountCtx { sim: self }, &mut *rng);
            if applied > 0 {
                faults_injected += applied;
                self.probe_fault_burst(applied);
                segments.push(close_segment(seg_start, wrong, last_wrong));
                seg_start = slot;
                wrong = self.wrong_now(expected);
                last_wrong = if wrong > 0 { Some(slot) } else { None };
            }
            let p = plan.drop_probability(slot);
            if p > 0.0 && rng.gen_bool(p.min(1.0)) {
                dropped += 1;
            } else if self.step(rng) {
                wrong = self.wrong_now(expected);
            }
            if wrong > 0 {
                last_wrong = Some(slot + 1);
            }
        }
        segments.push(close_segment(seg_start, wrong, last_wrong));
        FaultRunReport { horizon, segments, faults_injected, dropped, starved: 0 }
    }
}

impl<P: Protocol, S: PairSampler, Pr: Probe, Tr: Tracer> AgentSimulation<P, S, Pr, Tr> {
    /// Rewrites every live agent to the adversary's chosen starting
    /// configuration and clears all synthesized coins; see
    /// [`Simulation::apply_adversarial_init`]. Returns the number of agents
    /// rewritten.
    pub fn apply_adversarial_init(
        &mut self,
        init: &AdversarialInit<P::State>,
        rng: &mut impl RngCore,
    ) -> u64 {
        let applied = init.apply(&mut AgentCtx { sim: self }, &mut *rng);
        self.probe_fault_burst(applied);
        applied
    }

    /// Runs `horizon` interaction slots on the per-agent engine, letting
    /// `plan` inject faults between interactions; see
    /// [`Simulation::run_with_faults`] for the slot and segmentation
    /// conventions. Slots where no live pair can be sampled (all edges
    /// touch crashed agents) are counted in
    /// [`starved`](FaultRunReport::starved) instead of panicking.
    pub fn run_with_faults<F>(
        &mut self,
        plan: &mut F,
        expected: &P::Output,
        horizon: u64,
        rng: &mut impl RngCore,
    ) -> FaultRunReport
    where
        F: FaultPlan<P::State> + ?Sized,
    {
        let mut segments = Vec::new();
        let mut faults_injected = 0u64;
        let mut dropped = 0u64;
        let mut starved = 0u64;
        let mut seg_start = 0u64;
        let mut wrong = self.wrong_output_count(expected);
        let mut last_wrong: Option<u64> = if wrong > 0 { Some(0) } else { None };
        for slot in 0..horizon {
            let applied = plan.inject(slot, &mut AgentCtx { sim: self }, &mut *rng);
            if applied > 0 {
                faults_injected += applied;
                self.probe_fault_burst(applied);
                segments.push(close_segment(seg_start, wrong, last_wrong));
                seg_start = slot;
                wrong = self.wrong_output_count(expected);
                last_wrong = if wrong > 0 { Some(slot) } else { None };
            }
            let p = plan.drop_probability(slot);
            if p > 0.0 && rng.gen_bool(p.min(1.0)) {
                dropped += 1;
            } else {
                match self.step_transitions(rng) {
                    Some((_, (p0, q0), (p2, q2))) => {
                        let rt = self.runtime();
                        for (old, new) in [(p0, p2), (q0, q2)] {
                            if old == new {
                                continue;
                            }
                            let was_ok = rt.output_value(rt.output_of(old)) == expected;
                            let is_ok = rt.output_value(rt.output_of(new)) == expected;
                            match (was_ok, is_ok) {
                                (true, false) => wrong += 1,
                                (false, true) => wrong -= 1,
                                _ => {}
                            }
                        }
                    }
                    None => starved += 1,
                }
            }
            if wrong > 0 {
                last_wrong = Some(slot + 1);
            }
        }
        segments.push(close_segment(seg_start, wrong, last_wrong));
        FaultRunReport { horizon, segments, faults_injected, dropped, starved }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::seeded_rng;
    use crate::protocol::FnProtocol;
    use crate::scheduler::UniformPairScheduler;

    fn epidemic() -> impl Protocol<State = bool, Input = bool, Output = bool> {
        FnProtocol::new(
            |&b: &bool| b,
            |&q: &bool| q,
            |&p: &bool, &q: &bool| (p || q, p || q),
        )
    }

    #[test]
    fn fault_free_run_matches_plain_stabilization() {
        // With a no-op plan, run_with_faults is an exact re-skin of
        // measure_stabilization: same RNG stream, same verdict.
        struct NoFaults;
        impl<S> FaultPlan<S> for NoFaults {
            fn inject(
                &mut self,
                _: u64,
                _: &mut dyn FaultCtx<S>,
                _: &mut dyn RngCore,
            ) -> u64 {
                0
            }
        }
        let mut a = Simulation::from_counts(epidemic(), [(true, 1), (false, 31)]);
        let mut b = Simulation::from_counts(epidemic(), [(true, 1), (false, 31)]);
        let rep_a = a.measure_stabilization(&true, 20_000, &mut seeded_rng(7));
        let rep_b = b.run_with_faults(&mut NoFaults, &true, 20_000, &mut seeded_rng(7));
        assert_eq!(rep_b.segments.len(), 1);
        assert_eq!(rep_b.faults_injected, 0);
        assert_eq!(rep_a.stabilized_at, rep_b.final_segment().recovered_at);
    }

    #[test]
    fn corruption_splits_the_run_into_segments() {
        let mut sim = Simulation::from_counts(epidemic(), [(true, 1), (false, 63)]);
        let mut plan = TransientCorruption::adversarial_at(2_000, 20, false);
        let mut rng = seeded_rng(3);
        let rep = sim.run_with_faults(&mut plan, &true, 40_000, &mut rng);
        assert_eq!(rep.segments.len(), 2);
        assert_eq!(rep.faults_injected, 20);
        assert_eq!(rep.segments[1].injected_at, 2_000);
        assert!(rep.recovered(), "epidemic re-infects corrupted agents");
        assert_eq!(rep.final_segment().residual_error, 0);
        assert_eq!(sim.population(), 64);
    }

    #[test]
    fn crash_faults_shrink_the_population() {
        let mut sim = Simulation::from_counts(epidemic(), [(true, 4), (false, 28)]);
        let mut plan = CrashFaults::schedule(vec![(100, 5), (200, 5)]);
        let mut rng = seeded_rng(5);
        let rep = sim.run_with_faults(&mut plan, &true, 10_000, &mut rng);
        assert_eq!(sim.population(), 22);
        assert_eq!(rep.faults_injected, 10);
        assert_eq!(rep.segments.len(), 3);
        assert!(rep.recovered());
    }

    #[test]
    fn crash_respects_minimum_population() {
        let mut sim = Simulation::from_counts(epidemic(), [(true, 1), (false, 3)]);
        // Ask for far more crashes than the population can give up.
        let mut plan = CrashFaults::at(0, 100);
        let mut rng = seeded_rng(1);
        let rep = sim.run_with_faults(&mut plan, &true, 1_000, &mut rng);
        assert_eq!(sim.population(), 2, "engine keeps an interacting pair alive");
        assert_eq!(rep.faults_injected, 2);
    }

    #[test]
    fn interaction_drop_slows_but_does_not_stop_the_epidemic() {
        let mut rng = seeded_rng(11);
        let mut clean = Simulation::from_counts(epidemic(), [(true, 1), (false, 63)]);
        let clean_rep = clean.run_with_faults(
            &mut InteractionDrop::new(0.0),
            &true,
            60_000,
            &mut rng,
        );
        let mut lossy = Simulation::from_counts(epidemic(), [(true, 1), (false, 63)]);
        let lossy_rep = lossy.run_with_faults(
            &mut InteractionDrop::new(0.5),
            &true,
            60_000,
            &mut rng,
        );
        assert!(clean_rep.recovered() && lossy_rep.recovered());
        assert_eq!(clean_rep.dropped, 0);
        // ~50% of 60k slots dropped; allow a generous band.
        assert!(
            (25_000..35_000).contains(&lossy_rep.dropped),
            "dropped {} of 60000",
            lossy_rep.dropped
        );
        assert_eq!(lossy.steps(), 60_000 - lossy_rep.dropped);
    }

    #[test]
    fn churn_preserves_population_and_is_periodic() {
        let mut sim = Simulation::from_counts(epidemic(), [(true, 8), (false, 24)]);
        let mut plan = Churn::new(1_000, 2, false);
        let mut rng = seeded_rng(13);
        let rep = sim.run_with_faults(&mut plan, &true, 10_000, &mut rng);
        assert_eq!(sim.population(), 32);
        // Bursts at 1000, 2000, ..., 9000 (slot 0 excluded, horizon is 10k).
        assert_eq!(rep.faults_injected, 18);
        assert_eq!(rep.segments.len(), 10);
        assert!(rep.recovered(), "epidemic outruns slow churn");
    }

    #[test]
    fn composed_plans_inject_both_and_drop_jointly() {
        let mut plan = (InteractionDrop::new(0.5), InteractionDrop::new(0.5));
        let p = FaultPlan::<bool>::drop_probability(&mut plan, 0);
        assert!((p - 0.75).abs() < 1e-12);

        let mut sim = Simulation::from_counts(epidemic(), [(true, 2), (false, 30)]);
        let mut plan =
            (CrashFaults::at(50, 3), TransientCorruption::<bool>::uniform_at(50, 4));
        let mut rng = seeded_rng(17);
        let rep = sim.run_with_faults(&mut plan, &true, 5_000, &mut rng);
        assert_eq!(rep.faults_injected, 7);
        assert_eq!(sim.population(), 29);
        // One burst slot → exactly two segments even though two models fired.
        assert_eq!(rep.segments.len(), 2);
    }

    #[test]
    fn agent_engine_runs_all_models() {
        let n = 32;
        let inputs: Vec<bool> = (0..n).map(|i| i < 2).collect();
        let mut sim = AgentSimulation::from_inputs(
            epidemic(),
            &inputs,
            UniformPairScheduler::new(n),
        );
        let mut plan = (
            CrashFaults::at(500, 4),
            (Churn::new(2_000, 2, false), InteractionDrop::new(0.1)),
        );
        let mut rng = seeded_rng(23);
        let rep = sim.run_with_faults(&mut plan, &true, 20_000, &mut rng);
        assert_eq!(sim.live_population(), 28);
        assert_eq!(sim.population(), 32);
        assert!(rep.faults_injected >= 4 + 2 * 9);
        assert!(rep.dropped > 1_000);
        assert_eq!(rep.starved, 0, "uniform sampler never starves with 28 live");
        assert!(rep.recovered(), "epidemic survives crash + churn + loss");
        assert_eq!(
            sim.output_histogram(),
            vec![(true, 28)],
            "histogram covers live agents only"
        );
    }

    #[test]
    fn targeted_corruption_applies_the_state_function() {
        // Target the infected agents: every victim is flipped to healthy.
        let mut sim = Simulation::from_counts(epidemic(), [(true, 16)]);
        let mut plan = TransientCorruption::targeted_at(0, 16, |&b: &bool| !b);
        let mut rng = seeded_rng(29);
        let rep = sim.run_with_faults(&mut plan, &true, 10, &mut rng);
        assert_eq!(rep.faults_injected, 16);
        // All 16 flips hit random agents, so some may be flipped twice —
        // but the very first injection makes at least one agent false, and
        // with nobody else to re-infect a fully flipped population stays
        // wrong. Either way the state function demonstrably ran:
        assert!(sim.count_of_state(&false) > 0 || rep.recovered());
    }

    #[test]
    fn enumeration_count_matches_stars_and_bars() {
        assert_eq!(enumeration_count(1, 10), 1);
        assert_eq!(enumeration_count(2, 3), 4); // (0,3)(1,2)(2,1)(3,0)
        assert_eq!(enumeration_count(3, 6), 28); // C(8,2)
        assert_eq!(enumeration_count(4, 6), 84); // C(9,3)
    }

    #[test]
    fn unrank_multiset_is_a_bijection() {
        // Every index yields a distinct count vector summing to n.
        let (k, n) = (3usize, 5u64);
        let total = enumeration_count(k, n);
        let mut seen = std::collections::HashSet::new();
        for idx in 0..total {
            let counts = unrank_multiset(k, n, idx);
            assert_eq!(counts.len(), k);
            assert_eq!(counts.iter().sum::<u64>(), n);
            assert!(seen.insert(counts), "duplicate configuration at index {idx}");
        }
        assert_eq!(seen.len() as u128, total);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn unrank_multiset_rejects_out_of_range() {
        let _ = unrank_multiset(2, 3, 4);
    }

    #[test]
    fn flood_init_overwrites_everyone_on_both_engines() {
        let init = AdversarialInit::flood(false);
        let mut count = Simulation::from_counts(epidemic(), [(true, 10), (false, 22)]);
        let n = count.apply_adversarial_init(&init, &mut seeded_rng(1));
        assert_eq!(n, 32);
        assert_eq!(count.count_of_state(&false), 32);
        assert_eq!(count.population(), 32);

        let inputs: Vec<bool> = (0..8).map(|i| i % 2 == 0).collect();
        let mut agent =
            AgentSimulation::from_inputs(epidemic(), &inputs, UniformPairScheduler::new(8));
        agent.apply_adversarial_init(&init, &mut seeded_rng(1));
        assert!((0..8).all(|a| !*agent.state_of(a)));
        assert!((0..8).all(|a| agent.coin_of(a).is_none()), "coins cleared");
    }

    #[test]
    fn uniform_random_init_draws_from_the_universe() {
        let init = AdversarialInit::uniform_random(vec![false, true]);
        let mut sim = Simulation::from_counts(epidemic(), [(false, 64)]);
        sim.apply_adversarial_init(&init, &mut seeded_rng(7));
        let (t, f) = (sim.count_of_state(&true), sim.count_of_state(&false));
        assert_eq!(t + f, 64);
        assert!(t > 0 && f > 0, "a 64-agent uniform draw hits both states");
    }

    #[test]
    fn enumerated_init_realizes_the_unranked_configuration() {
        let universe = vec![false, true];
        let (k, n) = (2usize, 6u64);
        for idx in 0..enumeration_count(k, n) {
            let counts = unrank_multiset(k, n, idx);
            let init = AdversarialInit::enumerated(universe.clone(), idx);
            let mut sim = Simulation::from_counts(epidemic(), [(true, 6)]);
            sim.apply_adversarial_init(&init, &mut seeded_rng(0));
            assert_eq!(sim.count_of_state(&false), counts[0]);
            assert_eq!(sim.count_of_state(&true), counts[1]);
        }
    }

    #[test]
    fn adversarial_init_as_plan_segments_at_slot_zero() {
        // Flood with `false`: the epidemic has no seed left and cannot
        // recover — the canonical non-self-stabilizing verdict.
        let mut sim = Simulation::from_counts(epidemic(), [(true, 4), (false, 28)]);
        let mut plan = AdversarialInit::flood(false);
        let mut rng = seeded_rng(31);
        let rep = sim.run_with_faults(&mut plan, &true, 5_000, &mut rng);
        assert_eq!(rep.faults_injected, 32);
        assert_eq!(rep.segments.len(), 2);
        assert!(!rep.recovered());
        assert_eq!(rep.final_segment().residual_error, 32);
    }

    #[test]
    fn mttr_absorbs_and_merges_exactly() {
        let rec = |at, t| RecoveryReport {
            injected_at: at,
            recovered_at: Some(at + t),
            residual_error: 0,
        };
        let fail = |at, r| RecoveryReport { injected_at: at, recovered_at: None, residual_error: r };

        let mut whole = Mttr::new();
        for seg in [rec(0, 100), rec(0, 300), fail(0, 7)] {
            whole.absorb(&seg);
        }
        assert_eq!(whole.trials(), 3);
        assert_eq!(whole.recovered(), 2);
        assert!((whole.recovery_probability() - 2.0 / 3.0).abs() < 1e-12);
        assert!((whole.mean() - 200.0).abs() < 1e-9);
        assert!((whole.residual_stats().max() - 7.0).abs() < 1e-12);

        // Split/merge is exact on counters and the histogram, and
        // algebraically exact (Chan) on the moments.
        let mut left = Mttr::new();
        left.absorb(&rec(0, 100));
        left.absorb(&rec(0, 300));
        let mut right = Mttr::new();
        right.absorb(&fail(0, 7));
        left.merge(&right);
        assert_eq!(left.trials(), 3);
        assert_eq!(left.recovered(), 2);
        assert_eq!(left.histogram().total(), whole.histogram().total());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.residual_stats().mean() - whole.residual_stats().mean()).abs() < 1e-9);
        assert!(whole.to_json().starts_with("{\"schema\":\"pp-mttr/v1\""));
    }

    #[test]
    fn recovery_report_times() {
        let r = RecoveryReport { injected_at: 100, recovered_at: Some(175), residual_error: 0 };
        assert!(r.recovered());
        assert_eq!(r.recovery_time(), Some(75));
        let r = RecoveryReport { injected_at: 100, recovered_at: None, residual_error: 9 };
        assert!(!r.recovered());
        assert_eq!(r.recovery_time(), None);
    }
}
