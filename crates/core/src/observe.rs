//! Zero-cost observability: probes that watch a simulation from inside.
//!
//! The paper's claims are statements about *trajectories* — which rules of
//! `δ` fire, how state occupancies evolve, when the output assignment last
//! changes (§3.2, §6) — but an engine that only returns end-of-run
//! aggregates forces every experiment to re-derive its own bookkeeping.
//! This module adds a [`Probe`] trait to both engines: the engine emits one
//! [`InteractionEvent`] per interaction (sequential step, leap, or matched
//! pair of a parallel round) plus callbacks for output-assignment changes
//! and fault bursts, and the probe folds them into whatever statistic the
//! experiment needs.
//!
//! # Zero cost by monomorphization
//!
//! The probe is a type parameter of the simulation
//! (`Simulation<P, Pr = NoProbe>`), not a trait object. Every hook site is
//! guarded by the associated constant [`Probe::ACTIVE`]; for the default
//! [`NoProbe`] (`ACTIVE = false`) the compiler removes event construction
//! and dispatch entirely, so an unprobed run compiles to the same machine
//! code as before the probe layer existed — same wall-clock, and (because
//! probes never touch the RNG) the *same random stream* for the same seed,
//! probed or not.
//!
//! # Built-in probes
//!
//! * [`MetricsProbe`] — per-rule firing counts, per-state occupancy
//!   integrals, effective-interaction ratio;
//! * [`TrajectoryProbe`] — state-histogram time series on a logarithmic
//!   sampling schedule, bounded memory;
//! * [`ConvergenceProbe`] — running last-output-change tracker: the online
//!   form of the retrospective logic in
//!   [`measure_stabilization`](crate::Simulation::measure_stabilization);
//! * [`JsonlSink`] — streams events to JSON Lines for offline analysis;
//! * [`OccupancyFieldProbe`] — spatial occupancy/entropy field over agent
//!   trajectories (pull-based: the interaction stream is anonymous, so the
//!   agent engine snapshots its state column into the field instead).
//!
//! Probes compose: `(a, b)` is a probe that feeds both, and `&mut p`
//! attaches a borrowed probe so the caller keeps ownership.
//!
//! # Example
//!
//! Count which rules fire while an epidemic spreads:
//!
//! ```
//! use pp_core::observe::MetricsProbe;
//! use pp_core::{seeded_rng, FnProtocol, Simulation};
//!
//! let epidemic = FnProtocol::new(
//!     |&b: &bool| b,
//!     |&q: &bool| q,
//!     |&p: &bool, &q: &bool| (p || q, p || q),
//! );
//! let mut sim = Simulation::from_counts(epidemic, [(true, 1), (false, 31)])
//!     .with_probe(MetricsProbe::new());
//! let mut rng = seeded_rng(7);
//! sim.run(10_000, &mut rng);
//! let metrics = sim.probe();
//! // Exactly n − 1 = 31 interactions changed a state: each infects one agent.
//! assert_eq!(metrics.effective_interactions(), 31);
//! assert_eq!(metrics.interactions(), 10_000);
//! assert!(metrics.effective_ratio() < 0.01);
//! ```

use std::io::{self, Write};

use crate::fxhash::FxHashMap;
use crate::registry::{OutputId, StateId};

/// One executed interaction, as seen by a [`Probe`].
///
/// Covers all three execution paths of the count engine (sequential
/// [`step`](crate::Simulation::step), [`leap`](crate::Simulation::leap),
/// one matched pair of a
/// [`parallel_round`](crate::Simulation::parallel_round)) and the agent
/// engine's [`step_transitions`](crate::AgentSimulation::step_transitions).
/// For a parallel round the `before` states are the pre-round states (all
/// pairs of a round are computed simultaneously).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InteractionEvent {
    /// Engine interaction counter *after* this interaction (so the first
    /// interaction of a fresh simulation has `step == 1`).
    pub step: u64,
    /// No-op interactions fast-forwarded in closed form immediately before
    /// this one ([`leap`](crate::Simulation::leap) only; `0` elsewhere).
    /// The occupancy was constant during the skipped interactions.
    pub noops_skipped: u64,
    /// `(initiator, responder)` states before the interaction.
    pub before: (StateId, StateId),
    /// `(initiator, responder)` states after: `δ(before)`.
    pub after: (StateId, StateId),
    /// Output ids of the `before` states.
    pub outputs_before: (OutputId, OutputId),
    /// Output ids of the `after` states.
    pub outputs_after: (OutputId, OutputId),
    /// Whether at least one state changed (the §8 energy criterion).
    pub effective: bool,
}

impl InteractionEvent {
    /// Whether this interaction changed the *multiset* of outputs (not
    /// merely swapped outputs between the two agents).
    pub fn output_multiset_changed(&self) -> bool {
        let (b0, b1) = self.outputs_before;
        let (a0, a1) = self.outputs_after;
        (b0, b1) != (a0, a1) && (b0, b1) != (a1, a0)
    }
}

/// One group of identical interactions inside a [`BatchEvent`]: `count`
/// pairs whose initiator/responder were in `before` and moved to `after`.
///
/// The batched engine ([`crate::batch`]) samples the whole multiset of a
/// window's fresh pairs at once, so it naturally reports them grouped by
/// `(initiator, responder)` state pair rather than one event per
/// interaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPair {
    /// `(initiator, responder)` states before the interaction.
    pub before: (StateId, StateId),
    /// `(initiator, responder)` states after: `δ(before)`.
    pub after: (StateId, StateId),
    /// Output ids of the `before` states.
    pub outputs_before: (OutputId, OutputId),
    /// Output ids of the `after` states.
    pub outputs_after: (OutputId, OutputId),
    /// How many interactions of the batch had exactly this transition.
    pub count: u64,
    /// Whether at least one state changed.
    pub effective: bool,
}

/// The fresh pairs of one batched window
/// ([`Simulation::run_batched`](crate::Simulation::run_batched)), as seen by
/// a [`Probe`].
///
/// The event covers engine steps `first_step ..= first_step + len - 1`,
/// and replaying its pairs there is a valid order for them: all `2·len`
/// participating agents are distinct, so the interactions commute and
/// their order is not part of the sampled law. `pairs` reports them
/// grouped by transition. The window's collisions follow as ordinary
/// [`on_interaction`](Probe::on_interaction) events, in window order (see
/// [`crate::batch`] § *Probes*).
#[derive(Debug, Clone, Copy)]
pub struct BatchEvent<'a> {
    /// Engine step index of the first interaction of the batch.
    pub first_step: u64,
    /// Number of interactions in the batch (`Σ pairs[i].count`).
    pub len: u64,
    /// The batch's interactions, grouped by `(before, after)` transition.
    pub pairs: &'a [BatchPair],
}

/// A configuration snapshot handed to probes at attachment and after fault
/// bursts (the only times occupancy changes outside an interaction).
#[derive(Debug, Clone, Copy)]
pub struct Snapshot<'a> {
    /// Engine interaction counter at the snapshot.
    pub step: u64,
    /// Live agents per state id (`occupancy[s]` agents in state `s`).
    pub occupancy: &'a [u64],
    /// Live agents per output id.
    pub outputs: &'a [u64],
}

impl Snapshot<'_> {
    /// Live population at the snapshot.
    pub fn population(&self) -> u64 {
        self.occupancy.iter().sum()
    }
}

/// An observer wired into the simulation inner loop.
///
/// All methods have empty defaults, so a probe implements only the hooks it
/// needs. Implementations must not assume `occupancy`/`outputs` slices keep
/// their length between calls: the runtime interns states lazily, so the
/// slices grow as new states appear.
pub trait Probe {
    /// Whether the engine should construct and deliver events at all.
    ///
    /// Hook sites are guarded by `if Pr::ACTIVE { … }`; with the default
    /// `true` everything is delivered, and [`NoProbe`] sets `false` so the
    /// whole observability layer compiles away.
    const ACTIVE: bool = true;

    /// The probe was attached to a simulation (or a fresh segment began):
    /// `snap` is the current configuration.
    fn on_attach(&mut self, snap: &Snapshot<'_>) {
        let _ = snap;
    }

    /// One interaction executed.
    fn on_interaction(&mut self, ev: &InteractionEvent) {
        let _ = ev;
    }

    /// The interaction at `step` changed the multiset of outputs.
    ///
    /// Derivable from [`InteractionEvent::output_multiset_changed`]; this
    /// dedicated hook lets output-only probes ignore the event stream.
    fn on_output_change(&mut self, step: u64) {
        let _ = step;
    }

    /// A fault plan injected `injected` faults before the interaction at
    /// `snap.step`; `snap` is the configuration *after* the damage, so
    /// occupancy-tracking probes can resynchronize.
    fn on_fault_burst(&mut self, injected: u64, snap: &Snapshot<'_>) {
        let _ = (injected, snap);
    }

    /// The batched engine executed the fresh pairs of a window at once
    /// (see [`crate::batch`]); its collisions follow as separate
    /// [`on_interaction`](Self::on_interaction) events.
    ///
    /// The default implementation replays the batch as `ev.len` ordinary
    /// [`on_interaction`](Self::on_interaction) events (plus
    /// [`on_output_change`](Self::on_output_change) whenever a replayed
    /// interaction changed the output multiset), so existing probes work
    /// under batching unchanged. Because the batch's agents are all
    /// distinct, the replay — which visits the interactions grouped by
    /// transition rather than in sampled order — is a valid ordering of the
    /// batch. Probes that can fold a whole batch in `O(|pairs|)` (instead of
    /// `O(len)`) should override this hook; overriders take on the
    /// output-change accounting themselves.
    fn on_batch(&mut self, ev: &BatchEvent<'_>) {
        let mut step = ev.first_step;
        for pair in ev.pairs {
            for _ in 0..pair.count {
                let iev = InteractionEvent {
                    step,
                    noops_skipped: 0,
                    before: pair.before,
                    after: pair.after,
                    outputs_before: pair.outputs_before,
                    outputs_after: pair.outputs_after,
                    effective: pair.effective,
                };
                self.on_interaction(&iev);
                if iev.output_multiset_changed() {
                    self.on_output_change(step);
                }
                step += 1;
            }
        }
    }
}

/// The default probe: observes nothing, costs nothing.
///
/// With `ACTIVE = false`, every hook site in the engines is statically dead
/// code, so `Simulation<P, NoProbe>` is byte-for-byte the pre-probe engine
/// (same wall-clock, same RNG stream).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NoProbe;

impl Probe for NoProbe {
    const ACTIVE: bool = false;
}

/// Two probes compose into one that feeds both.
impl<A: Probe, B: Probe> Probe for (A, B) {
    const ACTIVE: bool = A::ACTIVE || B::ACTIVE;

    fn on_attach(&mut self, snap: &Snapshot<'_>) {
        self.0.on_attach(snap);
        self.1.on_attach(snap);
    }

    fn on_interaction(&mut self, ev: &InteractionEvent) {
        self.0.on_interaction(ev);
        self.1.on_interaction(ev);
    }

    fn on_output_change(&mut self, step: u64) {
        self.0.on_output_change(step);
        self.1.on_output_change(step);
    }

    fn on_fault_burst(&mut self, injected: u64, snap: &Snapshot<'_>) {
        self.0.on_fault_burst(injected, snap);
        self.1.on_fault_burst(injected, snap);
    }

    fn on_batch(&mut self, ev: &BatchEvent<'_>) {
        self.0.on_batch(ev);
        self.1.on_batch(ev);
    }
}

/// A mutable borrow is a probe: attach `&mut probe` to keep ownership (and
/// read the results without consuming the simulation).
impl<Pr: Probe> Probe for &mut Pr {
    const ACTIVE: bool = Pr::ACTIVE;

    fn on_attach(&mut self, snap: &Snapshot<'_>) {
        (**self).on_attach(snap);
    }

    fn on_interaction(&mut self, ev: &InteractionEvent) {
        (**self).on_interaction(ev);
    }

    fn on_output_change(&mut self, step: u64) {
        (**self).on_output_change(step);
    }

    fn on_fault_burst(&mut self, injected: u64, snap: &Snapshot<'_>) {
        (**self).on_fault_burst(injected, snap);
    }

    fn on_batch(&mut self, ev: &BatchEvent<'_>) {
        (**self).on_batch(ev);
    }
}

// ---------------------------------------------------------------------------
// MergeProbe
// ---------------------------------------------------------------------------

/// Probes whose observations from *independent trials* can be combined into
/// one aggregate — the contract [`crate::ensemble`] needs to merge each
/// worker's per-trial probes at join.
///
/// The ensemble folds probes in ascending trial order, so even a merge that
/// is order-sensitive in floating point yields thread-count-independent
/// results; implementations only need `merge` to be deterministic.
pub trait MergeProbe: Probe + Sized {
    /// Absorbs `other`'s observations (from an independent trial) into
    /// `self`.
    fn merge(&mut self, other: Self);
}

impl MergeProbe for NoProbe {
    fn merge(&mut self, _other: Self) {}
}

impl<A: MergeProbe, B: MergeProbe> MergeProbe for (A, B) {
    fn merge(&mut self, other: Self) {
        self.0.merge(other.0);
        self.1.merge(other.1);
    }
}

// ---------------------------------------------------------------------------
// MetricsProbe
// ---------------------------------------------------------------------------

/// Per-rule firing counts, per-state occupancy integrals, and the
/// effective-interaction ratio (§8's energy measure as a rate).
///
/// A *rule* is an ordered reactive pair `(p, q)` with `δ(p, q) ≠ (p, q)`;
/// the probe counts how often each fired. The *occupancy integral* of a
/// state is `Σ_t count_t(s)` over interactions `t` — divided by elapsed
/// interactions it is the mean occupancy, the quantity phase analyses plot.
/// Updates are `O(1)` per interaction: integrals accrue lazily per state,
/// only when that state's count changes.
#[derive(Debug, Clone, Default)]
pub struct MetricsProbe {
    rule_firings: FxHashMap<(StateId, StateId), u64>,
    occupancy: Vec<u64>,
    /// `integral[s]` accrued through `last_accrual[s]`.
    integral: Vec<u128>,
    last_accrual: Vec<u64>,
    start_step: u64,
    last_step: u64,
    interactions: u64,
    effective: u64,
    output_changes: u64,
    fault_bursts: u64,
    faults_injected: u64,
}

impl MetricsProbe {
    /// A fresh metrics probe.
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure_state(&mut self, s: StateId) {
        if s.index() >= self.occupancy.len() {
            self.occupancy.resize(s.index() + 1, 0);
            self.integral.resize(s.index() + 1, 0);
            self.last_accrual.resize(s.index() + 1, self.last_step);
        }
    }

    /// Brings `integral[s]` up to date through `step`.
    fn accrue(&mut self, s: StateId, step: u64) {
        self.ensure_state(s);
        let dt = step - self.last_accrual[s.index()];
        self.integral[s.index()] += u128::from(self.occupancy[s.index()]) * u128::from(dt);
        self.last_accrual[s.index()] = step;
    }

    fn resync(&mut self, snap: &Snapshot<'_>) {
        for i in 0..self.occupancy.len().max(snap.occupancy.len()) {
            self.accrue(StateId(i as u32), snap.step);
        }
        self.occupancy.clear();
        self.occupancy.extend_from_slice(snap.occupancy);
        self.ensure_state(StateId(snap.occupancy.len().max(1) as u32 - 1));
        self.last_step = snap.step;
    }

    /// Interactions observed (including leap-skipped no-ops).
    pub fn interactions(&self) -> u64 {
        self.interactions
    }

    /// Interactions that changed at least one state.
    pub fn effective_interactions(&self) -> u64 {
        self.effective
    }

    /// Fraction of observed interactions that changed a state.
    pub fn effective_ratio(&self) -> f64 {
        if self.interactions == 0 {
            return 0.0;
        }
        self.effective as f64 / self.interactions as f64
    }

    /// Interactions that changed the output multiset.
    pub fn output_changes(&self) -> u64 {
        self.output_changes
    }

    /// Fault bursts observed and total faults they injected.
    pub fn faults(&self) -> (u64, u64) {
        (self.fault_bursts, self.faults_injected)
    }

    /// Firing count of the rule `(p, q)` (ordered initiator/responder pair).
    pub fn rule_count(&self, p: StateId, q: StateId) -> u64 {
        self.rule_firings.get(&(p, q)).copied().unwrap_or(0)
    }

    /// All fired rules with their counts, most-fired first.
    pub fn rules_by_count(&self) -> Vec<((StateId, StateId), u64)> {
        let mut v: Vec<_> = self.rule_firings.iter().map(|(&r, &c)| (r, c)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// Occupancy integral of `s`: `Σ` over observed interactions of the
    /// number of agents in `s` (state-interactions).
    pub fn occupancy_integral(&self, s: StateId) -> u128 {
        let mut v = self.integral.get(s.index()).copied().unwrap_or(0);
        if let Some(&c) = self.occupancy.get(s.index()) {
            v += u128::from(c)
                * u128::from(self.last_step - self.last_accrual.get(s.index()).copied().unwrap_or(self.last_step));
        }
        v
    }

    /// Mean occupancy of `s` over the observed window (0 if nothing was
    /// observed yet).
    pub fn mean_occupancy(&self, s: StateId) -> f64 {
        let span = self.last_step - self.start_step;
        if span == 0 {
            return 0.0;
        }
        self.occupancy_integral(s) as f64 / span as f64
    }

    /// Resets all counters and re-anchors the observation window at the
    /// current configuration — call between phases to get per-phase tables.
    pub fn reset_window(&mut self) {
        let occupancy = self.occupancy.clone();
        let last_step = self.last_step;
        *self = Self::default();
        self.occupancy = occupancy;
        self.integral = vec![0; self.occupancy.len()];
        self.last_accrual = vec![last_step; self.occupancy.len()];
        self.start_step = last_step;
        self.last_step = last_step;
    }
}

impl Probe for MetricsProbe {
    fn on_attach(&mut self, snap: &Snapshot<'_>) {
        self.occupancy = snap.occupancy.to_vec();
        self.integral = vec![0; snap.occupancy.len()];
        self.last_accrual = vec![snap.step; snap.occupancy.len()];
        self.start_step = snap.step;
        self.last_step = snap.step;
    }

    fn on_interaction(&mut self, ev: &InteractionEvent) {
        self.interactions += ev.noops_skipped + 1;
        if ev.effective {
            self.effective += 1;
            *self.rule_firings.entry(ev.before).or_insert(0) += 1;
            // Occupancy changes at ev.step; it was constant through the
            // skipped no-ops, so accrue the old counts first.
            for s in [ev.before.0, ev.before.1, ev.after.0, ev.after.1] {
                self.accrue(s, ev.step);
            }
            self.occupancy[ev.before.0.index()] -= 1;
            self.occupancy[ev.before.1.index()] -= 1;
            self.occupancy[ev.after.0.index()] += 1;
            self.occupancy[ev.after.1.index()] += 1;
        }
        self.last_step = ev.step;
    }

    fn on_output_change(&mut self, _step: u64) {
        self.output_changes += 1;
    }

    fn on_fault_burst(&mut self, injected: u64, snap: &Snapshot<'_>) {
        self.fault_bursts += 1;
        self.faults_injected += injected;
        self.resync(snap);
    }
}

impl MergeProbe for MetricsProbe {
    /// Counters and rule firings sum; occupancy integrals sum per state;
    /// observation spans concatenate, so [`mean_occupancy`](Self::mean_occupancy)
    /// becomes the trial-weighted mean. The merged probe is an aggregate of
    /// several populations, not a live view of one — re-attaching it resets
    /// it (`on_attach` re-anchors the window), which is the intended
    /// behaviour.
    fn merge(&mut self, other: Self) {
        let states = self
            .occupancy
            .len()
            .max(self.integral.len())
            .max(other.occupancy.len())
            .max(other.integral.len());
        // Flush both lazily-accrued integrals, then sum per state.
        let merged: Vec<u128> = (0..states)
            .map(|i| {
                let s = StateId(i as u32);
                self.occupancy_integral(s) + other.occupancy_integral(s)
            })
            .collect();
        let span =
            (self.last_step - self.start_step) + (other.last_step - other.start_step);
        self.integral = merged;
        self.occupancy = vec![0; states];
        self.last_accrual = vec![span; states];
        self.start_step = 0;
        self.last_step = span;
        self.interactions += other.interactions;
        self.effective += other.effective;
        self.output_changes += other.output_changes;
        self.fault_bursts += other.fault_bursts;
        self.faults_injected += other.faults_injected;
        for (rule, count) in other.rule_firings {
            *self.rule_firings.entry(rule).or_insert(0) += count;
        }
    }
}

// ---------------------------------------------------------------------------
// TrajectoryProbe
// ---------------------------------------------------------------------------

/// State-histogram time series on a logarithmic sampling schedule.
///
/// Records the full occupancy vector at interaction indices that grow
/// geometrically (factor [`growth`](Self::with_growth), default 1.25), so a
/// horizon of `T` interactions costs `O(log T)` samples — bounded memory
/// regardless of run length. If the sample buffer still fills (tiny growth
/// factor, enormous horizon), every other sample is dropped and the factor
/// doubles, keeping memory bounded while preserving log-spaced coverage.
///
/// Fault bursts force an extra sample (the damaged configuration), so
/// recovery curves show the injection edge.
#[derive(Debug, Clone)]
pub struct TrajectoryProbe {
    occupancy: Vec<u64>,
    samples: Vec<(u64, Vec<u64>)>,
    next_sample: u64,
    growth: f64,
    max_samples: usize,
}

impl Default for TrajectoryProbe {
    fn default() -> Self {
        Self::new()
    }
}

impl TrajectoryProbe {
    /// Sampling factor 1.25, at most 1024 retained samples.
    pub fn new() -> Self {
        Self::with_growth(1.25, 1024)
    }

    /// Custom geometric factor (> 1) and sample cap (≥ 8).
    ///
    /// # Panics
    ///
    /// Panics if `growth <= 1.0` or `max_samples < 8`.
    pub fn with_growth(growth: f64, max_samples: usize) -> Self {
        assert!(growth > 1.0, "sampling factor must exceed 1, got {growth}");
        assert!(max_samples >= 8, "need at least 8 samples, got {max_samples}");
        Self {
            occupancy: Vec::new(),
            samples: Vec::new(),
            next_sample: 0,
            growth,
            max_samples,
        }
    }

    /// The recorded `(interaction index, occupancy)` series, in order.
    pub fn samples(&self) -> &[(u64, Vec<u64>)] {
        &self.samples
    }

    /// The occupancy tracked live (current configuration).
    pub fn current_occupancy(&self) -> &[u64] {
        &self.occupancy
    }

    fn push_sample(&mut self, step: u64) {
        if self.samples.len() >= self.max_samples {
            // Decimate: keep every other sample, coarsen the schedule.
            let kept: Vec<_> =
                self.samples.iter().step_by(2).cloned().collect();
            self.samples = kept;
            self.growth = self.growth * self.growth;
        }
        self.samples.push((step, self.occupancy.clone()));
        let geometric = (step as f64 * self.growth).ceil() as u64;
        self.next_sample = geometric.max(step + 1);
    }

    fn ensure_len(&mut self, len: usize) {
        if self.occupancy.len() < len {
            self.occupancy.resize(len, 0);
        }
    }
}

impl Probe for TrajectoryProbe {
    fn on_attach(&mut self, snap: &Snapshot<'_>) {
        self.occupancy = snap.occupancy.to_vec();
        self.samples.clear();
        self.push_sample(snap.step);
    }

    fn on_interaction(&mut self, ev: &InteractionEvent) {
        // Sample points crossed by leap-skipped no-ops see the pre-event
        // occupancy (nothing changed during the skips).
        while self.next_sample < ev.step {
            let at = self.next_sample;
            self.push_sample(at);
        }
        if ev.effective {
            let max = ev.after.0.index().max(ev.after.1.index()) + 1;
            self.ensure_len(max);
            self.occupancy[ev.before.0.index()] -= 1;
            self.occupancy[ev.before.1.index()] -= 1;
            self.occupancy[ev.after.0.index()] += 1;
            self.occupancy[ev.after.1.index()] += 1;
        }
        if self.next_sample == ev.step {
            self.push_sample(ev.step);
        }
    }

    fn on_fault_burst(&mut self, _injected: u64, snap: &Snapshot<'_>) {
        self.occupancy = snap.occupancy.to_vec();
        self.push_sample(snap.step);
    }
}

// ---------------------------------------------------------------------------
// ConvergenceProbe
// ---------------------------------------------------------------------------

/// Running last-output-change tracker: the online form of the retrospective
/// logic in [`measure_stabilization`](crate::Simulation::measure_stabilization).
///
/// Tracks, against an expected output id, how many live agents currently
/// output something else (`wrong_now`), the last interaction after which
/// any did (`last_wrong`), and the last interaction that changed the output
/// multiset at all (`last_output_change`). From these,
/// [`stabilized_at`](Self::stabilized_at) reproduces the
/// [`StabilizationReport`](crate::StabilizationReport) convention without a
/// second pass over the run.
#[derive(Debug, Clone)]
pub struct ConvergenceProbe {
    expected: OutputId,
    population: u64,
    wrong: u64,
    last_wrong: Option<u64>,
    last_output_change: Option<u64>,
}

impl ConvergenceProbe {
    /// Tracks convergence to the output with the given id (obtain one with
    /// [`Simulation::output_id`](crate::Simulation::output_id)).
    pub fn for_output(expected: OutputId) -> Self {
        Self {
            expected,
            population: 0,
            wrong: 0,
            last_wrong: None,
            last_output_change: None,
        }
    }

    /// Number of live agents currently outputting something other than the
    /// expected value.
    pub fn wrong_now(&self) -> u64 {
        self.wrong
    }

    /// Whether every live agent currently outputs the expected value.
    pub fn converged(&self) -> bool {
        self.wrong == 0
    }

    /// Last interaction index after which some agent's output was wrong
    /// (`None` if never).
    pub fn last_wrong(&self) -> Option<u64> {
        self.last_wrong
    }

    /// Last interaction index that changed the output multiset.
    pub fn last_output_change(&self) -> Option<u64> {
        self.last_output_change
    }

    /// The first interaction index after which the output assignment was
    /// continuously the expected one through the present — `None` while any
    /// agent is still wrong. Matches
    /// [`StabilizationReport::stabilized_at`](crate::StabilizationReport)
    /// when the probe rode along a `measure_stabilization` call on a fresh
    /// simulation. Delegates to the shared
    /// [`consensus_reached`](crate::consensus_reached) predicate.
    pub fn stabilized_at(&self) -> Option<u64> {
        crate::engine::consensus_reached(self.wrong, self.last_wrong, 0)
    }
}

impl Probe for ConvergenceProbe {
    fn on_attach(&mut self, snap: &Snapshot<'_>) {
        self.population = snap.population();
        let right = snap.outputs.get(self.expected.index()).copied().unwrap_or(0);
        self.wrong = self.population - right;
        self.last_wrong = (self.wrong > 0).then_some(snap.step);
    }

    fn on_interaction(&mut self, ev: &InteractionEvent) {
        // Wrongness held unchanged through the leap-skipped no-ops.
        if self.wrong > 0 && ev.noops_skipped > 0 {
            self.last_wrong = Some(ev.step - 1);
        }
        if ev.effective {
            for (was, is) in [
                (ev.outputs_before.0, ev.outputs_after.0),
                (ev.outputs_before.1, ev.outputs_after.1),
            ] {
                match (was == self.expected, is == self.expected) {
                    (true, false) => self.wrong += 1,
                    (false, true) => self.wrong -= 1,
                    _ => {}
                }
            }
        }
        if self.wrong > 0 {
            self.last_wrong = Some(ev.step);
        }
    }

    fn on_output_change(&mut self, step: u64) {
        self.last_output_change = Some(step);
    }

    fn on_fault_burst(&mut self, _injected: u64, snap: &Snapshot<'_>) {
        self.population = snap.population();
        let right = snap.outputs.get(self.expected.index()).copied().unwrap_or(0);
        self.wrong = self.population - right;
        if self.wrong > 0 {
            self.last_wrong = Some(snap.step);
        }
    }
}

// ---------------------------------------------------------------------------
// JsonlSink
// ---------------------------------------------------------------------------

/// Streams probe callbacks to a writer as JSON Lines, one object per line,
/// for offline analysis.
///
/// Schema (`"ev"` discriminates): `attach` and `fault` carry the occupancy
/// and output histograms; `step` carries the dense-id transition; `out`
/// marks an output-multiset change. Interaction lines can be thinned with
/// [`with_stride`](Self::with_stride) (every k-th event; attach/fault/out
/// lines are always written), since a full event stream is one line per
/// interaction.
///
/// I/O errors are counted ([`io_errors`](Self::io_errors)) and otherwise
/// ignored: a probe must never abort the simulation it watches. Wrap the
/// writer in [`std::io::BufWriter`] — the sink writes many small lines.
///
/// On drop (or [`into_inner`](Self::into_inner)) the sink appends one final
/// `summary` line carrying `lines_written`/`io_errors` and flushes the
/// writer, so swallowed write failures are visible in the stream itself and
/// a sink dropped mid-run loses no buffered lines.
pub struct JsonlSink<W: Write> {
    /// `None` only after [`into_inner`](Self::into_inner) took the writer
    /// (so the `Drop` impl knows the summary was already written).
    out: Option<W>,
    stride: u64,
    events_seen: u64,
    lines: u64,
    io_errors: u64,
}

impl<W: Write> std::fmt::Debug for JsonlSink<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink")
            .field("stride", &self.stride)
            .field("lines", &self.lines)
            .field("io_errors", &self.io_errors)
            .finish_non_exhaustive()
    }
}

impl<W: Write> JsonlSink<W> {
    /// Writes every event to `out`.
    pub fn new(out: W) -> Self {
        Self::with_stride(out, 1)
    }

    /// Writes every `stride`-th interaction event (and every attach, fault,
    /// and output-change line).
    ///
    /// # Panics
    ///
    /// Panics if `stride` is 0.
    pub fn with_stride(out: W, stride: u64) -> Self {
        assert!(stride > 0, "stride must be positive");
        Self { out: Some(out), stride, events_seen: 0, lines: 0, io_errors: 0 }
    }

    /// Lines successfully written so far.
    pub fn lines_written(&self) -> u64 {
        self.lines
    }

    /// Write errors swallowed so far.
    pub fn io_errors(&self) -> u64 {
        self.io_errors
    }

    /// Writes the summary line, flushes, and returns the underlying writer.
    pub fn into_inner(mut self) -> W {
        self.write_summary();
        self.out.take().expect("writer present until into_inner")
    }

    /// Appends the final `summary` record (the counters *before* the
    /// summary line itself) and flushes the writer.
    fn write_summary(&mut self) {
        let (lines, errs) = (self.lines, self.io_errors);
        let out = self.out.as_mut().expect("writer present until into_inner");
        let res = writeln!(
            out,
            "{{\"ev\":\"summary\",\"lines_written\":{lines},\"io_errors\":{errs}}}"
        );
        self.emit(res);
        if let Some(out) = self.out.as_mut() {
            let _ = out.flush();
        }
    }

    fn emit(&mut self, res: io::Result<()>) {
        match res {
            Ok(()) => self.lines += 1,
            Err(_) => self.io_errors += 1,
        }
    }

    fn write_hist(out: &mut W, key: &str, hist: &[u64]) -> io::Result<()> {
        write!(out, ",\"{key}\":[")?;
        for (i, c) in hist.iter().enumerate() {
            if i > 0 {
                write!(out, ",")?;
            }
            write!(out, "{c}")?;
        }
        write!(out, "]")
    }
}

impl<W: Write> Drop for JsonlSink<W> {
    fn drop(&mut self) {
        // `into_inner` already wrote the summary and took the writer.
        if self.out.is_some() {
            self.write_summary();
        }
    }
}

impl<W: Write> Probe for JsonlSink<W> {
    fn on_attach(&mut self, snap: &Snapshot<'_>) {
        let res = (|| {
            let out = self.out.as_mut().expect("writer present until into_inner");
            write!(out, "{{\"ev\":\"attach\",\"step\":{}", snap.step)?;
            Self::write_hist(out, "occupancy", snap.occupancy)?;
            Self::write_hist(out, "outputs", snap.outputs)?;
            writeln!(out, "}}")
        })();
        self.emit(res);
    }

    fn on_interaction(&mut self, ev: &InteractionEvent) {
        self.events_seen += 1;
        if !self.events_seen.is_multiple_of(self.stride) {
            return;
        }
        let out = self.out.as_mut().expect("writer present until into_inner");
        let res = writeln!(
            out,
            "{{\"ev\":\"step\",\"step\":{},\"skipped\":{},\"before\":[{},{}],\"after\":[{},{}],\"effective\":{}}}",
            ev.step,
            ev.noops_skipped,
            ev.before.0 .0,
            ev.before.1 .0,
            ev.after.0 .0,
            ev.after.1 .0,
            ev.effective,
        );
        self.emit(res);
    }

    fn on_output_change(&mut self, step: u64) {
        let out = self.out.as_mut().expect("writer present until into_inner");
        let res = writeln!(out, "{{\"ev\":\"out\",\"step\":{step}}}");
        self.emit(res);
    }

    fn on_fault_burst(&mut self, injected: u64, snap: &Snapshot<'_>) {
        let res = (|| {
            let out = self.out.as_mut().expect("writer present until into_inner");
            write!(
                out,
                "{{\"ev\":\"fault\",\"step\":{},\"injected\":{injected}",
                snap.step
            )?;
            Self::write_hist(out, "occupancy", snap.occupancy)?;
            Self::write_hist(out, "outputs", snap.outputs)?;
            writeln!(out, "}}")
        })();
        self.emit(res);
    }
}

// ---------------------------------------------------------------------------
// OccupancyFieldProbe
// ---------------------------------------------------------------------------

/// Spatial occupancy and entropy field over agent trajectories: coarse-grid
/// binning of the agent engine's state column.
///
/// The interaction stream is anonymous by design — an [`InteractionEvent`]
/// carries states, not agent ids, so spatial structure cannot be folded
/// from the `Probe` hooks alone. This aggregator is therefore *pull-based*:
/// construct it with an agent → cell assignment (e.g. [`grid2d`](Self::grid2d)
/// over a torus id layout), then snapshot the population whenever the
/// experiment wants a field sample.
/// [`AgentSimulation::record_field`](crate::AgentSimulation::record_field)
/// does one pass over the SoA state column, skipping crashed agents.
///
/// Per snapshot the probe keeps the per-cell state histogram plus a
/// Shannon-entropy summary `(step, mean cell entropy in bits)` appended to
/// [`entropy_series`](Self::entropy_series), so a run's spatial
/// mixing curve (e.g. an epidemic front sweeping a lattice: entropy rises
/// where the front sits, falls back to zero behind it) costs
/// `O(cells · |Q|)` memory regardless of population size.
#[derive(Debug, Clone)]
pub struct OccupancyFieldProbe {
    cell_of: Vec<u32>,
    cells: usize,
    state_dim: usize,
    /// Flattened `[cell][state]` histogram of the latest snapshot.
    counts: Vec<u64>,
    entropy_series: Vec<(u64, f64)>,
    records: u64,
}

impl OccupancyFieldProbe {
    /// A field over `cells` bins with the given per-agent cell assignment.
    ///
    /// # Panics
    ///
    /// Panics if `cells == 0` or any assignment is out of range.
    pub fn new(cells: usize, cell_of: Vec<u32>) -> Self {
        assert!(cells > 0, "field needs at least one cell");
        assert!(
            cell_of.iter().all(|&c| (c as usize) < cells),
            "cell assignment out of range"
        );
        Self {
            cell_of,
            cells,
            state_dim: 0,
            counts: Vec::new(),
            entropy_series: Vec::new(),
            records: 0,
        }
    }

    /// Bins the row-major `w × h` lattice id layout (`id = y·w + x`, the
    /// convention of `pp-graphs`' grid and torus generators) into coarse
    /// cells of `cw × ch` sites; edge cells are smaller when the coarse
    /// size does not divide the lattice.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn grid2d(w: usize, h: usize, cw: usize, ch: usize) -> Self {
        assert!(w > 0 && h > 0 && cw > 0 && ch > 0, "dimensions must be positive");
        let cx = w.div_ceil(cw);
        let cy = h.div_ceil(ch);
        let cell_of = (0..w * h)
            .map(|id| ((id / w / ch) * cx + (id % w) / cw) as u32)
            .collect();
        Self::new(cx * cy, cell_of)
    }

    /// Bins the row-major `w × h × d` lattice id layout
    /// (`id = (z·h + y)·w + x`, the convention of `torus3d_csr` in
    /// `pp-graphs`) into coarse cells of `cw × ch × cd` sites.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn grid3d(w: usize, h: usize, d: usize, cw: usize, ch: usize, cd: usize) -> Self {
        assert!(
            w > 0 && h > 0 && d > 0 && cw > 0 && ch > 0 && cd > 0,
            "dimensions must be positive"
        );
        let cx = w.div_ceil(cw);
        let cy = h.div_ceil(ch);
        let cell_of = (0..w * h * d)
            .map(|id| {
                let (x, y, z) = (id % w, id / w % h, id / (w * h));
                ((z / cd * cy + y / ch) * cx + x / cw) as u32
            })
            .collect();
        Self::new(cx * cy * (d.div_ceil(cd)), cell_of)
    }

    /// Records one spatial snapshot: `agents` yields `(agent id, state)`
    /// pairs (any order, each id at most once); agents not yielded — e.g.
    /// crashed ones — are simply absent from this snapshot's histogram.
    ///
    /// # Panics
    ///
    /// Panics if an agent id has no cell assignment.
    pub fn record(&mut self, step: u64, agents: impl IntoIterator<Item = (u32, StateId)>) {
        self.counts.fill(0);
        for (a, s) in agents {
            let cell = self.cell_of[a as usize] as usize;
            if s.index() >= self.state_dim {
                self.grow_state_dim(s.index() + 1);
            }
            self.counts[cell * self.state_dim + s.index()] += 1;
        }
        self.records += 1;
        let mean = self.mean_entropy();
        self.entropy_series.push((step, mean));
    }

    fn grow_state_dim(&mut self, dim: usize) {
        let mut wide = vec![0u64; self.cells * dim];
        for cell in 0..self.cells {
            for s in 0..self.state_dim {
                wide[cell * dim + s] = self.counts[cell * self.state_dim + s];
            }
        }
        self.counts = wide;
        self.state_dim = dim;
    }

    /// Number of cells in the field.
    pub fn cells(&self) -> usize {
        self.cells
    }

    /// Snapshots recorded so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The latest snapshot's state histogram for one cell (empty before the
    /// first record).
    pub fn cell_counts(&self, cell: usize) -> &[u64] {
        &self.counts[cell * self.state_dim..(cell + 1) * self.state_dim]
    }

    /// Agents binned into `cell` at the latest snapshot.
    pub fn cell_population(&self, cell: usize) -> u64 {
        self.cell_counts(cell).iter().sum()
    }

    /// Shannon entropy (bits) of the state distribution inside one cell at
    /// the latest snapshot; `0` for an empty or single-state cell.
    pub fn cell_entropy(&self, cell: usize) -> f64 {
        let total = self.cell_population(cell);
        if total == 0 {
            return 0.0;
        }
        -self
            .cell_counts(cell)
            .iter()
            .filter(|&&c| c > 0)
            .map(|&c| {
                let p = c as f64 / total as f64;
                p * p.log2()
            })
            .sum::<f64>()
    }

    /// Population-weighted mean cell entropy (bits) at the latest snapshot.
    pub fn mean_entropy(&self) -> f64 {
        let total: u64 = self.counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        (0..self.cells)
            .map(|c| self.cell_entropy(c) * self.cell_population(c) as f64)
            .sum::<f64>()
            / total as f64
    }

    /// The `(step, mean cell entropy)` series, one point per record.
    pub fn entropy_series(&self) -> &[(u64, f64)] {
        &self.entropy_series
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(
        step: u64,
        before: (u32, u32),
        after: (u32, u32),
        ob: (u32, u32),
        oa: (u32, u32),
    ) -> InteractionEvent {
        InteractionEvent {
            step,
            noops_skipped: 0,
            before: (StateId(before.0), StateId(before.1)),
            after: (StateId(after.0), StateId(after.1)),
            outputs_before: (OutputId(ob.0), OutputId(ob.1)),
            outputs_after: (OutputId(oa.0), OutputId(oa.1)),
            effective: before != after,
        }
    }

    #[test]
    fn occupancy_field_bins_and_entropy() {
        // 4×2 lattice, 2×2 coarse cells → 2 cells: ids {0,1,4,5} and {2,3,6,7}.
        let mut field = OccupancyFieldProbe::grid2d(4, 2, 2, 2);
        assert_eq!(field.cells(), 2);
        // Left cell all state 0, right cell an even 0/1 split.
        field.record(
            7,
            (0..8u32).map(|a| {
                let s = u32::from(a % 4 >= 2 && a % 2 == 1);
                (a, StateId(s))
            }),
        );
        assert_eq!(field.records(), 1);
        assert_eq!(field.cell_counts(0), &[4, 0]);
        assert_eq!(field.cell_counts(1), &[2, 2]);
        assert_eq!(field.cell_entropy(0), 0.0);
        assert!((field.cell_entropy(1) - 1.0).abs() < 1e-12, "even split = 1 bit");
        assert!((field.mean_entropy() - 0.5).abs() < 1e-12);
        assert_eq!(field.entropy_series(), &[(7, 0.5)]);
    }

    #[test]
    fn occupancy_field_3d_binning_and_missing_agents() {
        // 2×2×2 lattice, coarse 2×2×1 cells → one cell per z-layer.
        let mut field = OccupancyFieldProbe::grid3d(2, 2, 2, 2, 2, 1);
        assert_eq!(field.cells(), 2);
        // Only the upper layer (ids 4..8) reports; lower layer is absent
        // (crashed agents behave exactly like this).
        field.record(0, (4..8u32).map(|a| (a, StateId(0))));
        assert_eq!(field.cell_population(0), 0);
        assert_eq!(field.cell_population(1), 4);
        assert_eq!(field.mean_entropy(), 0.0);
        // A later snapshot with a wider state space regrows the histogram.
        field.record(9, (0..8u32).map(|a| (a, StateId(a % 3))));
        assert_eq!(field.cell_counts(0), &[2, 1, 1]);
        assert_eq!(field.records(), 2);
    }

    #[test]
    fn output_multiset_change_ignores_swaps() {
        let e = ev(1, (0, 1), (1, 0), (0, 1), (1, 0));
        assert!(!e.output_multiset_changed(), "swap preserves the multiset");
        let e = ev(1, (0, 1), (1, 1), (0, 1), (1, 1));
        assert!(e.output_multiset_changed());
    }

    #[test]
    fn metrics_probe_counts_and_integrates() {
        let mut m = MetricsProbe::new();
        m.on_attach(&Snapshot { step: 0, occupancy: &[2, 1], outputs: &[2, 1] });
        // Interaction 1: (1, 0) -> (1, 1): state 0 loses one, state 1 gains.
        m.on_interaction(&ev(1, (1, 0), (1, 1), (1, 0), (1, 1)));
        // Interaction 2: ineffective.
        m.on_interaction(&ev(2, (1, 1), (1, 1), (1, 1), (1, 1)));
        assert_eq!(m.interactions(), 2);
        assert_eq!(m.effective_interactions(), 1);
        assert_eq!(m.rule_count(StateId(1), StateId(0)), 1);
        assert_eq!(m.rule_count(StateId(0), StateId(1)), 0);
        // State 0: 2 agents for step 1, then 1 agent for step 2 → ∫ = 3.
        assert_eq!(m.occupancy_integral(StateId(0)), 3);
        // State 1: 1 agent for step 1, then 2 agents for step 2 → ∫ = 3.
        assert_eq!(m.occupancy_integral(StateId(1)), 3);
        assert!((m.mean_occupancy(StateId(0)) - 1.5).abs() < 1e-12);
        assert!((m.effective_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn metrics_probe_window_reset() {
        let mut m = MetricsProbe::new();
        m.on_attach(&Snapshot { step: 0, occupancy: &[3], outputs: &[3] });
        m.on_interaction(&ev(1, (0, 0), (0, 0), (0, 0), (0, 0)));
        m.reset_window();
        assert_eq!(m.interactions(), 0);
        m.on_interaction(&ev(2, (0, 0), (0, 0), (0, 0), (0, 0)));
        assert_eq!(m.interactions(), 1);
        assert_eq!(m.occupancy_integral(StateId(0)), 3);
    }

    #[test]
    fn metrics_probe_accounts_leap_skips() {
        let mut m = MetricsProbe::new();
        m.on_attach(&Snapshot { step: 0, occupancy: &[1, 1], outputs: &[1, 1] });
        let mut e = ev(10, (0, 1), (1, 1), (0, 1), (1, 1));
        e.noops_skipped = 9;
        m.on_interaction(&e);
        assert_eq!(m.interactions(), 10);
        assert_eq!(m.effective_interactions(), 1);
        // State 0 occupied by 1 agent through interactions 1..=10.
        assert_eq!(m.occupancy_integral(StateId(0)), 10);
    }

    #[test]
    fn trajectory_probe_log_schedule_is_sparse_and_bounded() {
        let mut t = TrajectoryProbe::with_growth(1.5, 16);
        t.on_attach(&Snapshot { step: 0, occupancy: &[4, 0], outputs: &[4] });
        for step in 1..=100_000u64 {
            t.on_interaction(&ev(step, (0, 0), (0, 0), (0, 0), (0, 0)));
        }
        let n = t.samples().len();
        assert!(n <= 16, "decimation must bound memory, got {n}");
        assert!(n >= 8, "log schedule keeps coverage, got {n}");
        // Sample steps strictly increase.
        let steps: Vec<u64> = t.samples().iter().map(|s| s.0).collect();
        assert!(steps.windows(2).all(|w| w[0] < w[1]), "{steps:?}");
        assert!(*steps.last().unwrap() <= 100_000);
    }

    #[test]
    fn trajectory_probe_tracks_occupancy_through_events() {
        let mut t = TrajectoryProbe::new();
        t.on_attach(&Snapshot { step: 0, occupancy: &[2, 0], outputs: &[2] });
        t.on_interaction(&ev(1, (0, 0), (1, 1), (0, 0), (1, 1)));
        assert_eq!(t.current_occupancy(), &[0, 2]);
        // The step-1 sample caught the post-interaction histogram.
        let (at, hist) = t.samples().last().unwrap();
        assert_eq!((*at, hist.as_slice()), (1, &[0u64, 2][..]));
    }

    #[test]
    fn convergence_probe_tracks_wrongness() {
        let expected = OutputId(1);
        let mut c = ConvergenceProbe::for_output(expected);
        c.on_attach(&Snapshot { step: 0, occupancy: &[3, 1], outputs: &[3, 1] });
        assert_eq!(c.wrong_now(), 3);
        assert!(!c.converged());
        // Convert two wrong agents.
        c.on_interaction(&ev(1, (1, 0), (1, 1), (1, 0), (1, 1)));
        c.on_interaction(&ev(2, (1, 0), (1, 1), (1, 0), (1, 1)));
        assert_eq!(c.wrong_now(), 1);
        assert_eq!(c.stabilized_at(), None);
        c.on_interaction(&ev(3, (1, 0), (1, 1), (1, 0), (1, 1)));
        assert!(c.converged());
        assert_eq!(c.stabilized_at(), Some(3));
        assert_eq!(c.last_wrong(), Some(2));
    }

    #[test]
    fn convergence_probe_initially_converged() {
        let mut c = ConvergenceProbe::for_output(OutputId(0));
        c.on_attach(&Snapshot { step: 0, occupancy: &[4], outputs: &[4] });
        assert_eq!(c.stabilized_at(), Some(0));
    }

    #[test]
    fn jsonl_sink_writes_valid_lines() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.on_attach(&Snapshot { step: 0, occupancy: &[2, 1], outputs: &[3] });
        sink.on_interaction(&ev(1, (0, 1), (1, 1), (0, 0), (0, 0)));
        sink.on_output_change(1);
        sink.on_fault_burst(2, &Snapshot { step: 5, occupancy: &[3, 0], outputs: &[3] });
        assert_eq!(sink.lines_written(), 4);
        assert_eq!(sink.io_errors(), 0);
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5, "4 event lines plus the final summary");
        assert_eq!(
            lines[0],
            "{\"ev\":\"attach\",\"step\":0,\"occupancy\":[2,1],\"outputs\":[3]}"
        );
        assert_eq!(
            lines[1],
            "{\"ev\":\"step\",\"step\":1,\"skipped\":0,\"before\":[0,1],\"after\":[1,1],\"effective\":true}"
        );
        assert_eq!(lines[2], "{\"ev\":\"out\",\"step\":1}");
        assert!(lines[3].starts_with("{\"ev\":\"fault\",\"step\":5,\"injected\":2"));
        // The summary reports the counters as of the moment it was written.
        assert_eq!(lines[4], "{\"ev\":\"summary\",\"lines_written\":4,\"io_errors\":0}");
    }

    #[test]
    fn jsonl_sink_summarizes_and_flushes_on_drop() {
        use std::io::BufWriter;
        use std::sync::{Arc, Mutex};

        /// Shared-buffer writer so the test can inspect what a dropped
        /// sink's BufWriter actually flushed to the underlying sink.
        #[derive(Clone)]
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let shared = Shared(Arc::new(Mutex::new(Vec::new())));
        {
            let mut sink = JsonlSink::new(BufWriter::new(shared.clone()));
            sink.on_output_change(7);
            // Dropped mid-run without into_inner: the line is still in the
            // BufWriter here.
        }
        let text = String::from_utf8(shared.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "event line plus summary, both flushed by drop");
        assert_eq!(lines[0], "{\"ev\":\"out\",\"step\":7}");
        assert_eq!(lines[1], "{\"ev\":\"summary\",\"lines_written\":1,\"io_errors\":0}");
    }

    #[test]
    fn jsonl_sink_stride_thins_steps_only() {
        let mut sink = JsonlSink::with_stride(Vec::new(), 10);
        sink.on_attach(&Snapshot { step: 0, occupancy: &[2], outputs: &[2] });
        for step in 1..=25u64 {
            sink.on_interaction(&ev(step, (0, 0), (0, 0), (0, 0), (0, 0)));
        }
        sink.on_output_change(25);
        // attach + steps 10, 20 + output change.
        assert_eq!(sink.lines_written(), 4);
    }

    #[test]
    fn tuple_probe_feeds_both() {
        let mut pair = (MetricsProbe::new(), TrajectoryProbe::new());
        pair.on_attach(&Snapshot { step: 0, occupancy: &[2], outputs: &[2] });
        pair.on_interaction(&ev(1, (0, 0), (0, 0), (0, 0), (0, 0)));
        assert_eq!(pair.0.interactions(), 1);
        assert_eq!(pair.1.samples().len(), 2);
        // NoProbe composition stays inactive; any live probe activates.
        const { assert!(!<(NoProbe, NoProbe) as Probe>::ACTIVE) };
        const { assert!(<(NoProbe, MetricsProbe) as Probe>::ACTIVE) };
    }

    #[test]
    fn batch_replay_feeds_per_interaction_hooks() {
        let mut m = MetricsProbe::new();
        m.on_attach(&Snapshot { step: 0, occupancy: &[3, 2], outputs: &[3, 2] });
        // A batch of 2 interactions: two (0, 1) -> (1, 1) conversions.
        let pairs = [BatchPair {
            before: (StateId(0), StateId(1)),
            after: (StateId(1), StateId(1)),
            outputs_before: (OutputId(0), OutputId(1)),
            outputs_after: (OutputId(1), OutputId(1)),
            count: 2,
            effective: true,
        }];
        m.on_batch(&BatchEvent { first_step: 1, len: 2, pairs: &pairs });
        assert_eq!(m.interactions(), 2);
        assert_eq!(m.effective_interactions(), 2);
        assert_eq!(m.rule_count(StateId(0), StateId(1)), 2);
        // Replay derives output changes: both conversions changed the multiset.
        assert_eq!(m.output_changes(), 2);
        // Occupancy after the batch: both state-0 agents converted.
        let mut t = TrajectoryProbe::new();
        t.on_attach(&Snapshot { step: 0, occupancy: &[3, 2], outputs: &[3, 2] });
        t.on_batch(&BatchEvent { first_step: 1, len: 2, pairs: &pairs });
        assert_eq!(t.current_occupancy(), &[1, 4]);
    }

    #[test]
    fn batch_replay_forwards_through_compositions() {
        let pairs = [BatchPair {
            before: (StateId(0), StateId(0)),
            after: (StateId(0), StateId(0)),
            outputs_before: (OutputId(0), OutputId(0)),
            outputs_after: (OutputId(0), OutputId(0)),
            count: 3,
            effective: false,
        }];
        let mut m = MetricsProbe::new();
        {
            let mut pair = (&mut m, NoProbe);
            pair.on_attach(&Snapshot { step: 0, occupancy: &[4], outputs: &[4] });
            pair.on_batch(&BatchEvent { first_step: 1, len: 3, pairs: &pairs });
        }
        assert_eq!(m.interactions(), 3);
        assert_eq!(m.effective_interactions(), 0);
    }
}
