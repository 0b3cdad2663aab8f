//! Simulation engine: executes protocols under a scheduler and measures
//! stabilization.
//!
//! Two engines are provided:
//!
//! * [`Simulation`] — the fast path for the *standard population* (complete
//!   interaction graph, §3.3) under uniform random pairing (the conjugating
//!   automaton model of §6). Because agents are anonymous, the engine works
//!   on the multiset of states ([`CountConfig`]) and one interaction costs
//!   `O(|Q|)` time independent of the population size.
//! * [`AgentSimulation`] — per-agent states driven by any
//!   [`PairSampler`], for restricted interaction graphs (§5) or scripted
//!   adversarial schedules.
//!
//! # Measuring convergence
//!
//! A computation *converges* when it reaches an output-stable configuration
//! (§3.2); individual agents never know this happened. Simulations measure
//! it retrospectively: run a horizon of interactions, record the last
//! interaction after which the output assignment differed from the expected
//! stable output, and require a long correct tail
//! ([`measure_stabilization`](Simulation::measure_stabilization)). For
//! function computation where the stable output is not known a priori,
//! [`run_until_silent`](Simulation::run_until_silent) instead records the
//! last change of the output multiset.
//!
//! # Parallel time vs. parallel threads
//!
//! The paper's "parallel time" (§3.2) counts `n` interactions as one time
//! unit; [`measure_stabilization_rounds`](Simulation::measure_stabilization_rounds)
//! measures it in matching rounds. That is a *modelling* notion. Two other
//! axes of this crate sound similar but are orthogonal: [`crate::batch`]
//! executes one trajectory faster (exact batched sampling, still a single
//! sequential process), and [`crate::ensemble`] runs many independent
//! trials on OS threads (Monte Carlo throughput, each trial still
//! sequential).

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::agent_batch::AgentBatchScratch;
use crate::batch::BatchScratch;
use crate::config::{AgentConfig, AgentStore, CountConfig};
use crate::error::PopulationError;
use crate::observe::{InteractionEvent, NoProbe, Probe, Snapshot};
use crate::protocol::{CoinProtocol, Protocol};
use crate::registry::{DenseRuntime, OutputId, StateId};
use crate::scheduler::PairSampler;
use crate::trace::{NoTracer, SpanKind, Tracer};

/// Creates a reproducible random number generator from a seed.
///
/// All stochastic components in this workspace take an explicit RNG so every
/// experiment is replayable.
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Outcome of a stabilization measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StabilizationReport {
    /// Total interactions executed.
    pub horizon: u64,
    /// The first interaction index after which the output assignment was
    /// *continuously* the expected one through the end of the horizon
    /// (`0` if the initial configuration already had the expected output);
    /// `None` if the output was still wrong at the end of the horizon.
    pub stabilized_at: Option<u64>,
}

/// The one shared recovery/convergence predicate: given that `wrong` agents
/// currently disagree with the expected output and the last interaction (or
/// slot) index at which any agent disagreed was `last_wrong`, returns the
/// index at which consensus was (re-)established — `default` if no
/// disagreement was ever seen — or `None` while disagreement persists.
///
/// The `+ 1` encodes the repo-wide convention that an output wrong *after*
/// interaction `t` becomes correct at the earliest after interaction `t + 1`.
/// Every stabilization / recovery check in the workspace
/// ([`Simulation::measure_stabilization`],
/// [`AgentSimulation::measure_stabilization`],
/// `ConvergenceProbe::stabilized_at`, and fault-segment closing in
/// [`faults`](crate::faults)) routes through this helper so the notions can
/// never drift apart.
#[inline]
pub fn consensus_reached(wrong: u64, last_wrong: Option<u64>, default: u64) -> Option<u64> {
    if wrong > 0 {
        None
    } else {
        Some(last_wrong.map_or(default, |t| t + 1))
    }
}

impl StabilizationReport {
    /// Whether the expected output held at the end of the run.
    pub fn converged(&self) -> bool {
        self.stabilized_at.is_some()
    }

    /// Length of the correct tail (interactions after stabilization).
    pub fn silent_tail(&self) -> u64 {
        match self.stabilized_at {
            Some(t) => self.horizon - t,
            None => 0,
        }
    }
}

/// Fast complete-graph simulation on the multiset of states, with the
/// uniform random pairing of conjugating automata (§6).
///
/// # Example
///
/// Majority-style epidemic: one alerted agent alerts everyone.
///
/// ```
/// use pp_core::{FnProtocol, Simulation, seeded_rng};
///
/// let epidemic = FnProtocol::new(
///     |&b: &bool| b,
///     |&q: &bool| q,
///     |&p: &bool, &q: &bool| (p || q, p || q),
/// );
/// let mut sim = Simulation::from_counts(epidemic, [(true, 1), (false, 99)]);
/// let mut rng = seeded_rng(42);
/// let report = sim.measure_stabilization(&true, 100_000, &mut rng);
/// assert!(report.converged());
/// ```
///
/// # Observability
///
/// The second type parameter is a [`Probe`] (see [`crate::observe`]) that
/// watches the run from inside the engine; the default [`NoProbe`] compiles
/// the whole observability layer away. Attach one with
/// [`with_probe`](Self::with_probe). The third parameter is a [`Tracer`]
/// (see [`crate::trace`]) that times engine *phases* rather than protocol
/// events; the default [`NoTracer`] likewise costs nothing. Attach one with
/// [`with_tracer`](Self::with_tracer).
#[derive(Debug, Clone)]
pub struct Simulation<P: Protocol, Pr = NoProbe, Tr = NoTracer> {
    pub(crate) rt: DenseRuntime<P>,
    pub(crate) config: CountConfig,
    /// Agents per output id, kept in sync with `config`.
    pub(crate) output_counts: Vec<u64>,
    pub(crate) steps: u64,
    pub(crate) effective_steps: u64,
    pub(crate) probe: Pr,
    pub(crate) tracer: Tr,
    scratch: EngineScratch,
    pub(crate) batch: BatchScratch,
}

/// Reusable buffers for [`leap`](Simulation::leap) and
/// [`parallel_round`](Simulation::parallel_round), kept on the simulation so
/// the hot paths allocate nothing per call.
#[derive(Debug, Clone, Default)]
struct EngineScratch {
    /// Per-reactive-pair weights under the current configuration.
    leap_weights: Vec<u64>,
    /// Agents not yet matched this round.
    round_pending: CountConfig,
    /// Post-round configuration under construction.
    round_next: CountConfig,
    /// Pre-round output histogram (probe-active rounds only).
    round_outputs: Vec<u64>,
}

impl<P: Protocol> Simulation<P> {
    /// Creates a simulation from `(input, multiplicity)` pairs: the
    /// symbol-count way of describing the initial sensor readings.
    ///
    /// # Panics
    ///
    /// Panics if the total population is smaller than 2.
    pub fn from_counts<I>(protocol: P, inputs: I) -> Self
    where
        I: IntoIterator<Item = (P::Input, u64)>,
    {
        let mut rt = DenseRuntime::new(protocol);
        let mut config = CountConfig::empty();
        for (x, k) in inputs {
            let s = rt.intern_input(&x);
            config.add(s, k);
        }
        Self::from_parts(rt, config)
    }

    /// Creates a simulation giving each agent an explicit input symbol.
    ///
    /// # Panics
    ///
    /// Panics if fewer than 2 inputs are supplied.
    pub fn from_inputs<I>(protocol: P, inputs: I) -> Self
    where
        I: IntoIterator<Item = P::Input>,
    {
        let mut rt = DenseRuntime::new(protocol);
        let mut config = CountConfig::empty();
        for x in inputs {
            let s = rt.intern_input(&x);
            config.add(s, 1);
        }
        Self::from_parts(rt, config)
    }

    /// Creates a simulation from explicit initial *states* (useful for
    /// populations with a designated leader, §6.1).
    ///
    /// # Panics
    ///
    /// Panics if the total population is smaller than 2.
    pub fn from_states<I>(protocol: P, states: I) -> Self
    where
        I: IntoIterator<Item = (P::State, u64)>,
    {
        let mut rt = DenseRuntime::new(protocol);
        let mut config = CountConfig::empty();
        for (s, k) in states {
            let id = rt.intern(s);
            config.add(id, k);
        }
        Self::from_parts(rt, config)
    }

    fn from_parts(rt: DenseRuntime<P>, config: CountConfig) -> Self {
        assert!(config.population() >= 2, "population must have at least 2 agents");
        let mut sim = Self {
            rt,
            config,
            output_counts: Vec::new(),
            steps: 0,
            effective_steps: 0,
            probe: NoProbe,
            tracer: NoTracer,
            scratch: EngineScratch::default(),
            batch: BatchScratch::default(),
        };
        sim.rebuild_output_counts();
        sim
    }
}

impl<P: Protocol, Pr: Probe, Tr: Tracer> Simulation<P, Pr, Tr> {
    /// Attaches a probe (see [`crate::observe`]), returning the probed
    /// simulation; the probe's `on_attach` hook receives the current
    /// configuration. Any previously attached probe is dropped; the tracer
    /// is carried over unchanged.
    ///
    /// Pass `&mut probe` to keep ownership of the probe at the call site.
    pub fn with_probe<Pr2: Probe>(self, mut probe: Pr2) -> Simulation<P, Pr2, Tr> {
        if Pr2::ACTIVE {
            probe.on_attach(&Snapshot {
                step: self.steps,
                occupancy: self.config.as_slice(),
                outputs: &self.output_counts,
            });
        }
        Simulation {
            rt: self.rt,
            config: self.config,
            output_counts: self.output_counts,
            steps: self.steps,
            effective_steps: self.effective_steps,
            probe,
            tracer: self.tracer,
            scratch: self.scratch,
            batch: self.batch,
        }
    }

    /// Attaches a tracer (see [`crate::trace`]), returning the traced
    /// simulation; the probe is carried over unchanged. Any previously
    /// attached tracer is dropped.
    ///
    /// Pass `&mut tracer` to keep ownership of the tracer at the call site.
    pub fn with_tracer<Tr2: Tracer>(self, tracer: Tr2) -> Simulation<P, Pr, Tr2> {
        Simulation {
            rt: self.rt,
            config: self.config,
            output_counts: self.output_counts,
            steps: self.steps,
            effective_steps: self.effective_steps,
            probe: self.probe,
            tracer,
            scratch: self.scratch,
            batch: self.batch,
        }
    }

    /// The attached probe.
    pub fn probe(&self) -> &Pr {
        &self.probe
    }

    /// Mutable access to the attached probe (e.g. to reset a metrics window
    /// between phases).
    pub fn probe_mut(&mut self) -> &mut Pr {
        &mut self.probe
    }

    /// Consumes the simulation and returns the probe.
    pub fn into_probe(self) -> Pr {
        self.probe
    }

    /// The attached tracer.
    pub fn tracer(&self) -> &Tr {
        &self.tracer
    }

    /// Mutable access to the attached tracer.
    pub fn tracer_mut(&mut self) -> &mut Tr {
        &mut self.tracer
    }

    /// Consumes the simulation and returns the tracer.
    pub fn into_tracer(self) -> Tr {
        self.tracer
    }

    /// Interns `out` and returns its dense output id — e.g. to configure an
    /// output-keyed probe such as
    /// [`ConvergenceProbe`](crate::observe::ConvergenceProbe).
    pub fn output_id(&mut self, out: &P::Output) -> OutputId {
        self.rt.intern_output(out.clone())
    }

    /// Single accounting path for every executed interaction: sequential
    /// [`step`](Self::step)s, [`leap`](Self::leap)s, and
    /// [`parallel_round`](Self::parallel_round) pairs all come through here,
    /// so the `steps`/`effective_steps` counters cannot drift between
    /// execution paths and a probe sees every interaction exactly once.
    /// Returns whether the interaction was effective.
    #[inline]
    pub(crate) fn note_interaction(
        &mut self,
        before: (StateId, StateId),
        after: (StateId, StateId),
        noops_skipped: u64,
    ) -> bool {
        self.steps += noops_skipped + 1;
        let effective = after != before;
        // Branchless: `effective` flips per interaction near convergence,
        // so a conditional increment would be a mispredicted branch in the
        // hottest loop of the engine.
        self.effective_steps += u64::from(effective);
        if Pr::ACTIVE {
            let ev = InteractionEvent {
                step: self.steps,
                noops_skipped,
                before,
                after,
                outputs_before: (self.rt.output_of(before.0), self.rt.output_of(before.1)),
                outputs_after: (self.rt.output_of(after.0), self.rt.output_of(after.1)),
                effective,
            };
            self.probe.on_interaction(&ev);
        }
        effective
    }

    /// Applies an effective transition to the configuration and the output
    /// counts; returns whether the output *multiset* changed.
    #[inline]
    pub(crate) fn apply_effective(
        &mut self,
        before: (StateId, StateId),
        after: (StateId, StateId),
    ) -> bool {
        self.config.apply(before, after);
        let (op, oq) = (self.rt.output_of(before.0), self.rt.output_of(before.1));
        let (op2, oq2) = (self.rt.output_of(after.0), self.rt.output_of(after.1));
        if (op, oq) == (op2, oq2) || (op, oq) == (oq2, op2) {
            false
        } else {
            self.bump_output(op, -1);
            self.bump_output(oq, -1);
            self.bump_output(op2, 1);
            self.bump_output(oq2, 1);
            if Pr::ACTIVE {
                self.probe.on_output_change(self.steps);
            }
            true
        }
    }

    /// Notifies the probe (and the tracer, as an instant event) that a fault
    /// plan just damaged the configuration.
    pub(crate) fn probe_fault_burst(&mut self, injected: u64) {
        if Tr::ACTIVE {
            self.tracer.instant(SpanKind::FaultBurst, injected);
        }
        if Pr::ACTIVE {
            self.probe.on_fault_burst(
                injected,
                &Snapshot {
                    step: self.steps,
                    occupancy: self.config.as_slice(),
                    outputs: &self.output_counts,
                },
            );
        }
    }

    fn rebuild_output_counts(&mut self) {
        self.output_counts.clear();
        self.output_counts.resize(self.rt.output_count(), 0);
        let pairs: Vec<(StateId, u64)> = self.config.support().collect();
        for (s, k) in pairs {
            let o = self.rt.output_of(s);
            self.output_counts[o.index()] += k;
        }
    }

    #[inline]
    pub(crate) fn bump_output(&mut self, o: OutputId, delta: i64) {
        if o.index() >= self.output_counts.len() {
            self.output_counts.resize(self.rt.output_count(), 0);
        }
        let c = &mut self.output_counts[o.index()];
        *c = c.checked_add_signed(delta).expect("output count underflow");
    }

    /// Population size `n`.
    pub fn population(&self) -> u64 {
        self.config.population()
    }

    /// Interactions executed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Interactions that changed at least one agent's state — the paper's
    /// §8 candidate energy measure ("the number of interactions in which at
    /// least one state changes"). Always ≤ [`steps`](Self::steps); the gap
    /// is the no-op tail after effective convergence.
    pub fn effective_steps(&self) -> u64 {
        self.effective_steps
    }

    /// The current configuration (multiset of states).
    pub fn config(&self) -> &CountConfig {
        &self.config
    }

    /// Removes one agent currently in the given state — fault injection in
    /// the sense of §8: "if an agent dies, the interactions between the
    /// remaining agents are unaffected". Returns `false` if no agent is in
    /// that state.
    ///
    /// # Panics
    ///
    /// Panics if a removal would shrink the population below 2 agents.
    pub fn crash_agent_in_state(&mut self, state: &P::State) -> bool {
        let id = self.rt.intern(state.clone());
        if self.config.count(id) == 0 {
            return false;
        }
        assert!(self.config.population() > 2, "population must keep at least 2 agents");
        self.config.remove(id, 1);
        let o = self.rt.output_of(id);
        self.bump_output(o, -1);
        true
    }

    /// Removes one uniformly random agent (fault injection, §8), returning
    /// its state.
    ///
    /// # Panics
    ///
    /// Panics if the population is already at 2 agents.
    pub fn crash_random_agent(&mut self, rng: &mut impl Rng) -> P::State {
        assert!(self.config.population() > 2, "population must keep at least 2 agents");
        let idx = rng.gen_range(0..self.config.population());
        let id = self.config.state_of_index(idx);
        self.config.remove(id, 1);
        let o = self.rt.output_of(id);
        self.bump_output(o, -1);
        self.rt.state(id).clone()
    }

    /// Rewrites the state of one uniformly random agent to `to` — transient
    /// corruption in the sense of §8's self-stabilization discussion (the
    /// adversary scrambles memory but the agent keeps interacting). Returns
    /// the state the victim was in. Population size is unchanged.
    pub fn corrupt_random_agent(&mut self, to: &P::State, rng: &mut impl Rng) -> P::State {
        let idx = rng.gen_range(0..self.config.population());
        let old = self.config.state_of_index(idx);
        let new = self.rt.intern(to.clone());
        self.config.remove(old, 1);
        self.config.ensure_len(new.index() + 1);
        self.config.add(new, 1);
        let (oo, on) = (self.rt.output_of(old), self.rt.output_of(new));
        if oo != on {
            self.bump_output(oo, -1);
            self.bump_output(on, 1);
        }
        self.rt.state(old).clone()
    }

    /// Rewrites the state of one uniformly random agent to `f(old)` — the
    /// state-*function* form of
    /// [`corrupt_random_agent`](Self::corrupt_random_agent), used by
    /// [`CorruptionMode::Targeted`](crate::faults::CorruptionMode) to aim at
    /// whatever the victim currently is (current leader, current rank, …).
    /// Returns the state the victim was in.
    pub fn corrupt_random_agent_with(
        &mut self,
        f: impl FnOnce(&P::State) -> P::State,
        rng: &mut impl Rng,
    ) -> P::State {
        let idx = rng.gen_range(0..self.config.population());
        let old = self.config.state_of_index(idx);
        let old_state = self.rt.state(old).clone();
        let new = self.rt.intern(f(&old_state));
        self.config.remove(old, 1);
        self.config.ensure_len(new.index() + 1);
        self.config.add(new, 1);
        let (oo, on) = (self.rt.output_of(old), self.rt.output_of(new));
        if oo != on {
            self.bump_output(oo, -1);
            self.bump_output(on, 1);
        }
        old_state
    }

    /// Replaces the state of **every** agent: agent `i` (under the canonical
    /// agent ordering, `0..n`) gets `f(i)`. The adversary of
    /// self-stabilization ([`AdversarialInit`](crate::faults::AdversarialInit))
    /// uses this to start a run from an arbitrary configuration; population
    /// size, step counters, and the RNG stream are untouched.
    pub fn overwrite_states(&mut self, mut f: impl FnMut(u64) -> P::State) {
        let n = self.config.population();
        let mut next = CountConfig::empty();
        for i in 0..n {
            let id = self.rt.intern(f(i));
            next.add(id, 1);
        }
        next.ensure_len(self.rt.state_count());
        self.config = next;
        self.rebuild_output_counts();
    }

    /// A uniformly random state among those the runtime has interned so far
    /// (every state that has ever been occupied this run). Used by the
    /// uniform corruption fault model.
    pub fn random_known_state(&mut self, rng: &mut impl Rng) -> P::State {
        let k = self.rt.state_count();
        assert!(k > 0, "no states interned yet");
        self.rt.state(StateId(rng.gen_range(0..k as u32))).clone()
    }

    /// The dense runtime (state/output interner and transition cache).
    pub fn runtime(&self) -> &DenseRuntime<P> {
        &self.rt
    }

    /// Mutable access to the runtime, e.g. to pre-intern states.
    pub fn runtime_mut(&mut self) -> &mut DenseRuntime<P> {
        &mut self.rt
    }

    /// Number of agents currently in the given state.
    pub fn count_of_state(&mut self, state: &P::State) -> u64 {
        let id = self.rt.intern(state.clone());
        self.config.count(id)
    }

    /// Number of agents whose current output equals `out`.
    pub fn count_with_output(&mut self, out: &P::Output) -> u64 {
        for oid in 0..self.rt.output_count() as u32 {
            if self.rt.output_value(OutputId(oid)) == out {
                return self.output_counts.get(oid as usize).copied().unwrap_or(0);
            }
        }
        0
    }

    /// If every agent currently has the same output, returns it.
    pub fn consensus_output(&self) -> Option<&P::Output> {
        let n = self.config.population();
        self.output_counts
            .iter()
            .position(|&c| c == n)
            .map(|i| self.rt.output_value(OutputId(i as u32)))
    }

    /// The multiset of current outputs as `(output, count)` pairs.
    pub fn output_histogram(&self) -> Vec<(P::Output, u64)> {
        self.output_counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (self.rt.output_value(OutputId(i as u32)).clone(), c))
            .collect()
    }

    /// Draws one interacting pair uniformly at random (ordered, distinct
    /// agents) and returns their states `(initiator, responder)`.
    #[inline]
    fn sample_pair(&mut self, rng: &mut impl Rng) -> (StateId, StateId) {
        let n = self.config.population();
        let p = self.config.state_of_index(rng.gen_range(0..n));
        // Draw the responder from the population minus the initiator agent.
        self.config.remove(p, 1);
        let q = self.config.state_of_index(rng.gen_range(0..n - 1));
        self.config.add(p, 1);
        (p, q)
    }

    /// Executes one interaction; returns `true` if the output multiset
    /// changed.
    pub fn step(&mut self, rng: &mut impl Rng) -> bool {
        let (p, q) = self.sample_pair(rng);
        let (p2, q2) = self.rt.transition(p, q);
        if !self.note_interaction((p, q), (p2, q2), 0) {
            return false;
        }
        self.apply_effective((p, q), (p2, q2))
    }

    /// Runs `steps` interactions.
    pub fn run(&mut self, steps: u64, rng: &mut impl Rng) {
        if Tr::ACTIVE {
            self.tracer.enter(SpanKind::SchedulerDraw);
        }
        for _ in 0..steps {
            self.step(rng);
        }
        if Tr::ACTIVE {
            self.tracer.exit(SpanKind::SchedulerDraw, steps);
        }
    }

    /// Runs until every agent outputs `expected` (returning the number of
    /// interactions that took) or until `max_steps` is exhausted (`None`).
    ///
    /// Note this detects the *first* time consensus holds, which is not yet
    /// stabilization — the output could still change later. Use
    /// [`measure_stabilization`](Self::measure_stabilization) for the
    /// paper's notion.
    pub fn run_until_consensus(
        &mut self,
        expected: &P::Output,
        max_steps: u64,
        rng: &mut impl Rng,
    ) -> Option<u64> {
        let n = self.population();
        // Resolve the expected output id once; the per-step check is then a
        // single index instead of a scan over all interned outputs.
        let oid = self.output_id(expected);
        if self.count_of_output(oid) == n {
            return Some(self.steps);
        }
        for _ in 0..max_steps {
            self.step(rng);
            if self.count_of_output(oid) == n {
                return Some(self.steps);
            }
        }
        None
    }

    /// Number of agents whose current output has the given interned id
    /// (see [`output_id`](Self::output_id)); the `O(1)` form of
    /// [`count_with_output`](Self::count_with_output).
    #[inline]
    pub fn count_of_output(&self, oid: OutputId) -> u64 {
        self.output_counts.get(oid.index()).copied().unwrap_or(0)
    }

    /// Runs `horizon` interactions and reports when the output assignment
    /// last became (and stayed) equal to `expected` on every agent.
    pub fn measure_stabilization(
        &mut self,
        expected: &P::Output,
        horizon: u64,
        rng: &mut impl Rng,
    ) -> StabilizationReport {
        let n = self.population();
        let oid = self.output_id(expected);
        // `wrong` is recomputed only when the output multiset changes.
        let mut wrong = n - self.count_of_output(oid);
        let mut last_wrong: Option<u64> = if wrong > 0 { Some(0) } else { None };
        if Tr::ACTIVE {
            self.tracer.enter(SpanKind::SchedulerDraw);
        }
        for i in 1..=horizon {
            if self.step(rng) {
                wrong = n - self.count_of_output(oid);
            }
            if wrong > 0 {
                last_wrong = Some(i);
            }
        }
        if Tr::ACTIVE {
            self.tracer.exit(SpanKind::SchedulerDraw, horizon);
        }
        StabilizationReport { horizon, stabilized_at: consensus_reached(wrong, last_wrong, 0) }
    }

    /// Runs until the output multiset has not changed for `window`
    /// consecutive interactions, or `max_steps` elapse. Returns the step
    /// count at the last observed output change.
    pub fn run_until_silent(
        &mut self,
        window: u64,
        max_steps: u64,
        rng: &mut impl Rng,
    ) -> Option<u64> {
        let mut last_change = self.steps;
        let start = self.steps;
        while self.steps - start < max_steps {
            if self.step(rng) {
                last_change = self.steps;
            } else if self.steps - last_change >= window {
                return Some(last_change - start);
            }
        }
        None
    }

    /// Executes one **synchronous parallel round**: a uniformly random
    /// maximal matching of the population interacts simultaneously (every
    /// pair's transition is computed from the pre-round states).
    ///
    /// §8 observes that "interactions happen in parallel, so the total
    /// number of interactions may not be well correlated with wall-clock
    /// time; defining a useful notion of time is a challenge" — rounds of
    /// this engine are one natural such notion (≈ `n/2` sequential
    /// interactions each; experiment E16 measures the correspondence).
    ///
    /// Returns the number of pairs matched (⌊n/2⌋). [`steps`](Self::steps)
    /// advances by that amount.
    pub fn parallel_round(&mut self, rng: &mut impl Rng) -> u64 {
        if Tr::ACTIVE {
            self.tracer.enter(SpanKind::SchedulerDraw);
        }
        if Pr::ACTIVE {
            self.scratch.round_outputs.clear();
            self.scratch.round_outputs.extend_from_slice(&self.output_counts);
        }
        // Reuse the round buffers across calls; `take` them off `self` so
        // the matching loop below can still call `note_interaction`.
        let mut pending = std::mem::take(&mut self.scratch.round_pending);
        let mut next = std::mem::take(&mut self.scratch.round_next);
        pending.copy_from(&self.config);
        next.reset(self.rt.state_count());
        let mut pairs = 0u64;
        while pending.population() >= 2 {
            let m = pending.population();
            let p = pending.state_of_index(rng.gen_range(0..m));
            pending.remove(p, 1);
            let q = pending.state_of_index(rng.gen_range(0..m - 1));
            pending.remove(q, 1);
            let (p2, q2) = self.rt.transition(p, q);
            self.note_interaction((p, q), (p2, q2), 0);
            next.ensure_len(self.rt.state_count());
            next.add(p2, 1);
            next.add(q2, 1);
            pairs += 1;
        }
        // Odd population: the unmatched agent idles.
        if pending.population() == 1 {
            let leftover = pending.state_of_index(0);
            next.add(leftover, 1);
        }
        // The displaced config buffer becomes next round's `next`.
        self.scratch.round_next = std::mem::replace(&mut self.config, next);
        self.scratch.round_pending = pending;
        self.rebuild_output_counts();
        if Pr::ACTIVE && !hist_eq(&self.scratch.round_outputs, &self.output_counts) {
            self.probe.on_output_change(self.steps);
        }
        if Tr::ACTIVE {
            self.tracer.exit(SpanKind::SchedulerDraw, pairs);
        }
        pairs
    }

    /// Closes the protocol's state space under `δ` from the current
    /// support and returns all *reactive* ordered state pairs — those with
    /// `δ(p, q) ≠ (p, q)`.
    ///
    /// Because the closure covers every state any future configuration can
    /// contain, the returned table stays valid for the rest of the run;
    /// it is the input to [`leap`](Self::leap).
    ///
    /// # Panics
    ///
    /// Panics if the closure passes
    /// [`CLOSURE_STATE_CAP`](crate::registry::CLOSURE_STATE_CAP) states.
    pub fn reactive_pairs(&mut self) -> Vec<(StateId, StateId)> {
        let seeds: Vec<StateId> = self.config.support().map(|(s, _)| s).collect();
        let total = self.rt.close_under_delta(&seeds).unwrap_or_else(|e| panic!("{e}"));
        let mut reactive = Vec::new();
        for a in 0..total as u32 {
            for b in 0..total as u32 {
                let (p, q) = (StateId(a), StateId(b));
                if self.rt.transition(p, q) != (p, q) {
                    reactive.push((p, q));
                }
            }
        }
        self.config.ensure_len(self.rt.state_count());
        self.output_counts.resize(self.rt.output_count(), 0);
        reactive
    }

    /// Jumps directly to the next *effective* interaction (one that changes
    /// some state), skipping the no-ops in closed form: the number of
    /// skipped interactions is geometric with success probability
    /// `W / n(n−1)`, where `W` is the total weight of reactive pairs in the
    /// current configuration. The resulting process is distributed exactly
    /// like repeated [`step`](Self::step) — only faster when most
    /// interactions are no-ops (e.g. after effective convergence).
    ///
    /// Returns the number of interactions advanced (skips + 1), or `None`
    /// if the configuration is **quiescent** — no reactive pair is present,
    /// so no interaction can ever change anything again.
    ///
    /// `reactive` must come from [`reactive_pairs`](Self::reactive_pairs)
    /// on this simulation.
    pub fn leap(
        &mut self,
        reactive: &[(StateId, StateId)],
        rng: &mut impl Rng,
    ) -> Option<u64> {
        if Tr::ACTIVE {
            self.tracer.enter(SpanKind::SchedulerDraw);
        }
        let n = self.config.population();
        let total = (n * (n - 1)) as f64;
        // Per-pair weights under the current configuration, computed once
        // into a reused scratch buffer (they are read again for selection).
        let weights = &mut self.scratch.leap_weights;
        weights.clear();
        let mut weight = 0u64;
        for &(p, q) in reactive {
            let cp = self.config.count(p);
            let w = if p == q {
                cp * cp.saturating_sub(1)
            } else {
                cp * self.config.count(q)
            };
            weights.push(w);
            weight += w;
        }
        if weight == 0 {
            if Tr::ACTIVE {
                self.tracer.exit(SpanKind::SchedulerDraw, 0);
            }
            return None;
        }
        // Geometric skip: interactions up to and including the effective one.
        let p_eff = weight as f64 / total;
        let skip = if p_eff >= 1.0 {
            1
        } else {
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            ((u.ln() / (1.0 - p_eff).ln()).ceil()).max(1.0) as u64
        };
        // Choose the effective pair proportionally to its weight, skipping
        // pairs absent from the current configuration.
        let mut x = rng.gen_range(0..weight);
        let mut chosen = reactive[0];
        for (i, &w) in self.scratch.leap_weights.iter().enumerate() {
            if w == 0 {
                continue;
            }
            if x < w {
                chosen = reactive[i];
                break;
            }
            x -= w;
        }
        let (p, q) = chosen;
        let (p2, q2) = self.rt.transition(p, q);
        debug_assert!((p2, q2) != (p, q), "reactive pair must change state");
        self.note_interaction((p, q), (p2, q2), skip - 1);
        self.apply_effective((p, q), (p2, q2));
        if Tr::ACTIVE {
            self.tracer.exit(SpanKind::SchedulerDraw, skip);
        }
        Some(skip)
    }

    /// Leaps until the configuration is quiescent (no interaction can ever
    /// change a state again — a *sound and complete* convergence detector
    /// for protocols that reach such configurations), returning the total
    /// interactions elapsed at the moment of the last state change.
    ///
    /// Returns `None` if quiescence was not reached within `max_leaps`
    /// effective interactions (the protocol may converge in outputs while
    /// churning states forever — e.g. leader-based protocols; use
    /// [`measure_stabilization`](Self::measure_stabilization) for those).
    pub fn run_to_quiescence(
        &mut self,
        max_leaps: u64,
        rng: &mut impl Rng,
    ) -> Option<u64> {
        let reactive = self.reactive_pairs();
        for _ in 0..max_leaps {
            if self.leap(&reactive, rng).is_none() {
                return Some(self.steps);
            }
        }
        // One more probe: maybe the last leap reached quiescence.
        if self.leap(&reactive, rng).is_none() {
            return Some(self.steps);
        }
        None
    }

    /// Runs matching rounds ([`parallel_round`](Self::parallel_round))
    /// until every agent outputs `expected` and keeps doing so through
    /// `max_rounds`; returns the first round after which the output was
    /// continuously correct, or `None`.
    ///
    /// "Rounds" here measure the **paper's parallel time** (§3.2: `n`
    /// interactions ≈ one time unit; a round matches each agent once) — a
    /// modelling notion, not thread-level parallelism. For running many
    /// independent trials across OS threads see [`crate::ensemble`].
    pub fn measure_stabilization_rounds(
        &mut self,
        expected: &P::Output,
        max_rounds: u64,
        rng: &mut impl Rng,
    ) -> Option<u64> {
        let n = self.population();
        let oid = self.output_id(expected);
        let mut wrong = n - self.count_of_output(oid);
        let mut last_wrong: Option<u64> = if wrong > 0 { Some(0) } else { None };
        for round in 1..=max_rounds {
            self.parallel_round(rng);
            wrong = n - self.count_of_output(oid);
            if wrong > 0 {
                last_wrong = Some(round);
            }
        }
        consensus_reached(wrong, last_wrong, 0)
    }
}

/// Zero-padded equality of two output histograms (lengths may differ when
/// new outputs were interned mid-round).
fn hist_eq(a: &[u64], b: &[u64]) -> bool {
    let n = a.len().max(b.len());
    (0..n).all(|i| a.get(i).copied().unwrap_or(0) == b.get(i).copied().unwrap_or(0))
}

/// Per-agent simulation driven by an arbitrary [`PairSampler`]; required for
/// restricted interaction graphs (§5) where agent identity matters.
///
/// Supports crash faults: a crashed agent keeps its slot (the sampler's
/// population is fixed) but never interacts again — matching §8's "if an
/// agent dies, the interactions between the remaining agents are
/// unaffected". Sampled pairs touching a crashed agent are rejected and
/// redrawn; output accounting ([`consensus_output`](Self::consensus_output),
/// [`output_histogram`](Self::output_histogram),
/// [`measure_stabilization`](Self::measure_stabilization)) covers live
/// agents only.
///
/// Like [`Simulation`], the engine carries a [`Probe`] type parameter
/// (default [`NoProbe`]) and a [`Tracer`] type parameter (default
/// [`NoTracer`]); attach them with
/// [`with_probe`](AgentSimulation::with_probe) /
/// [`with_tracer`](AgentSimulation::with_tracer).
#[derive(Debug)]
pub struct AgentSimulation<P: Protocol, S, Pr = NoProbe, Tr = NoTracer> {
    pub(crate) rt: DenseRuntime<P>,
    /// Struct-of-arrays agent store: states plus packed crash/coin bitsets
    /// (see [`AgentStore`]).
    pub(crate) agents: AgentStore,
    pub(crate) sampler: S,
    pub(crate) steps: u64,
    pub(crate) effective_steps: u64,
    /// Whether the schedule is known to be starved (no live pair exists).
    /// Maintained by [`crash_agent`](Self::crash_agent) through the
    /// sampler's structural liveness accounting
    /// ([`PairSampler::live_pairs`] / [`PairSampler::mask_live`]), so a
    /// starved step fails in `O(1)` without touching the RNG.
    pub(crate) starved: bool,
    pub(crate) probe: Pr,
    pub(crate) tracer: Tr,
    pub(crate) batch: AgentBatchScratch,
}

/// Resampling budget when rejecting pairs that touch crashed agents, for
/// samplers that cannot account live pairs structurally
/// ([`PairSampler::live_pairs`] returns `None`). On any graph with at least
/// one live edge the probability of exhausting this is astronomically small;
/// exhaustion is therefore reported as
/// [`PopulationError::StarvedSchedule`].
pub(crate) const MAX_PAIR_RESAMPLES: u32 = 100_000;

/// One executed interaction: the sampled edge `(u, v)` plus the agents'
/// `(before, after)` state pairs.
pub type StepTransition = ((u32, u32), (StateId, StateId), (StateId, StateId));

impl<P: Protocol, S: PairSampler> AgentSimulation<P, S> {
    /// Creates a simulation assigning `inputs[i]` to agent `i`.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the sampler's population size
    /// or is smaller than 2.
    pub fn from_inputs(protocol: P, inputs: &[P::Input], sampler: S) -> Self {
        assert!(inputs.len() >= 2, "population must have at least 2 agents");
        assert_eq!(
            inputs.len(),
            sampler.population(),
            "input count must match sampler population"
        );
        let mut rt = DenseRuntime::new(protocol);
        let agents: AgentConfig = inputs.iter().map(|x| rt.intern_input(x)).collect();
        Self {
            rt,
            agents: AgentStore::new(agents),
            sampler,
            steps: 0,
            effective_steps: 0,
            starved: false,
            probe: NoProbe,
            tracer: NoTracer,
            batch: AgentBatchScratch::default(),
        }
    }
}

impl<P: Protocol, S: PairSampler, Pr: Probe, Tr: Tracer> AgentSimulation<P, S, Pr, Tr> {
    /// Attaches a probe (see [`crate::observe`]); its `on_attach` hook
    /// receives the current *live* state and output histograms. Any
    /// previously attached probe is dropped; the tracer is carried over.
    pub fn with_probe<Pr2: Probe>(self, mut probe: Pr2) -> AgentSimulation<P, S, Pr2, Tr> {
        if Pr2::ACTIVE {
            let (occ, outs) = self.live_histograms();
            probe.on_attach(&Snapshot { step: self.steps, occupancy: &occ, outputs: &outs });
        }
        AgentSimulation {
            rt: self.rt,
            agents: self.agents,
            sampler: self.sampler,
            steps: self.steps,
            effective_steps: self.effective_steps,
            starved: self.starved,
            probe,
            tracer: self.tracer,
            batch: self.batch,
        }
    }

    /// Attaches a tracer (see [`crate::trace`]); the probe is carried over.
    /// Any previously attached tracer is dropped.
    pub fn with_tracer<Tr2: Tracer>(self, tracer: Tr2) -> AgentSimulation<P, S, Pr, Tr2> {
        AgentSimulation {
            rt: self.rt,
            agents: self.agents,
            sampler: self.sampler,
            steps: self.steps,
            effective_steps: self.effective_steps,
            starved: self.starved,
            probe: self.probe,
            tracer,
            batch: self.batch,
        }
    }

    /// The attached probe.
    pub fn probe(&self) -> &Pr {
        &self.probe
    }

    /// Mutable access to the attached probe.
    pub fn probe_mut(&mut self) -> &mut Pr {
        &mut self.probe
    }

    /// Consumes the simulation and returns the probe.
    pub fn into_probe(self) -> Pr {
        self.probe
    }

    /// The attached tracer.
    pub fn tracer(&self) -> &Tr {
        &self.tracer
    }

    /// Mutable access to the attached tracer.
    pub fn tracer_mut(&mut self) -> &mut Tr {
        &mut self.tracer
    }

    /// Consumes the simulation and returns the tracer.
    pub fn into_tracer(self) -> Tr {
        self.tracer
    }

    /// Histograms of *live* agents per state id and per output id.
    fn live_histograms(&self) -> (Vec<u64>, Vec<u64>) {
        let mut occ = vec![0u64; self.rt.state_count()];
        let mut outs = vec![0u64; self.rt.output_count()];
        for (i, s) in self.agents.iter().enumerate() {
            if self.agents.is_crashed(i as u32) {
                continue;
            }
            occ[s.index()] += 1;
            outs[self.rt.output_of(s).index()] += 1;
        }
        (occ, outs)
    }

    /// Notifies the probe (and the tracer, as an instant event) that a fault
    /// plan just damaged the configuration.
    pub(crate) fn probe_fault_burst(&mut self, injected: u64) {
        if Tr::ACTIVE {
            self.tracer.instant(SpanKind::FaultBurst, injected);
        }
        if Pr::ACTIVE {
            let (occ, outs) = self.live_histograms();
            self.probe.on_fault_burst(
                injected,
                &Snapshot { step: self.steps, occupancy: &occ, outputs: &outs },
            );
        }
    }

    /// The single accounting path for the agent engine, mirroring the count
    /// engine's: bumps `steps`/`effective_steps` and feeds the probe.
    #[inline]
    pub(crate) fn note_interaction(
        &mut self,
        before: (StateId, StateId),
        after: (StateId, StateId),
    ) {
        self.steps += 1;
        let effective = after != before;
        self.effective_steps += u64::from(effective);
        if Pr::ACTIVE {
            let ev = InteractionEvent {
                step: self.steps,
                noops_skipped: 0,
                before,
                after,
                outputs_before: (self.rt.output_of(before.0), self.rt.output_of(before.1)),
                outputs_after: (self.rt.output_of(after.0), self.rt.output_of(after.1)),
                effective,
            };
            let changed = ev.output_multiset_changed();
            self.probe.on_interaction(&ev);
            if changed {
                self.probe.on_output_change(self.steps);
            }
        }
    }

    /// Population size (including crashed agents, which keep their slot).
    pub fn population(&self) -> usize {
        self.agents.population()
    }

    /// Number of agents that have not crashed.
    pub fn live_population(&self) -> usize {
        self.agents.live()
    }

    /// Whether agent `a` has crashed.
    pub fn is_crashed(&self, a: u32) -> bool {
        self.agents.is_crashed(a)
    }

    /// Permanently stops agent `a` from interacting (crash fault, §8).
    /// Returns `false` (and does nothing) if the agent is already crashed or
    /// if crashing it would leave fewer than 2 live agents.
    ///
    /// After a successful crash the sampler is re-masked / the starvation
    /// flag refreshed, so subsequent steps either draw live pairs directly
    /// or fail fast with [`PopulationError::StarvedSchedule`].
    pub fn crash_agent(&mut self, a: u32) -> bool {
        if !self.agents.crash(a) {
            return false;
        }
        self.refresh_liveness();
        true
    }

    /// Re-derives the starvation flag (and any sampler-side live mask) from
    /// the current crash set. `O(n + m)` per call; called once per crash,
    /// not per draw.
    fn refresh_liveness(&mut self) {
        let agents = &self.agents;
        let is_live = |a: u32| !agents.is_crashed(a);
        self.starved = if agents.live() < 2 {
            true
        } else {
            match self.sampler.mask_live(&is_live) {
                Some(k) => k == 0,
                // Sampler cannot precondition draws: fall back to the
                // structural count, else to capped rejection at draw time.
                None => self.sampler.live_pairs(&is_live) == Some(0),
            }
        };
    }

    /// Crashes one uniformly random live agent; `None` if the live
    /// population is already at 2.
    pub fn crash_random_live(&mut self, rng: &mut impl RngCore) -> Option<u32> {
        if self.agents.live() <= 2 {
            return None;
        }
        let a = self.random_live_agent(rng);
        self.crash_agent(a).then_some(a)
    }

    /// A uniformly random live agent.
    ///
    /// # Panics
    ///
    /// Panics if every agent has crashed (impossible through the public
    /// API, which keeps at least 2 live).
    pub fn random_live_agent(&mut self, rng: &mut impl RngCore) -> u32 {
        assert!(self.agents.live() > 0, "no live agents");
        let mut k = rng.gen_range(0..self.agents.live());
        for i in 0..self.agents.population() as u32 {
            if !self.agents.is_crashed(i) {
                if k == 0 {
                    return i;
                }
                k -= 1;
            }
        }
        unreachable!("live count out of sync with crash mask")
    }

    /// Overwrites the state of live agent `a` (transient corruption / churn),
    /// returning the state it was in.
    ///
    /// # Panics
    ///
    /// Panics if the agent has crashed — a dead sensor's memory is not part
    /// of the computation.
    pub fn set_agent_state(&mut self, a: u32, s: &P::State) -> P::State {
        assert!(!self.agents.is_crashed(a), "cannot rewrite a crashed agent");
        let old = self.agents.state(a);
        let new = self.rt.intern(s.clone());
        self.agents.set_state(a, new);
        self.rt.state(old).clone()
    }

    /// A uniformly random state among those the runtime has interned so far.
    pub fn random_known_state(&mut self, rng: &mut impl RngCore) -> P::State {
        let k = self.rt.state_count();
        assert!(k > 0, "no states interned yet");
        self.rt.state(StateId(rng.gen_range(0..k as u32))).clone()
    }

    /// Interactions executed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Interactions that changed at least one agent's state (§8's candidate
    /// energy measure) — mirrors [`Simulation::effective_steps`], so the two
    /// engines account energy identically.
    pub fn effective_steps(&self) -> u64 {
        self.effective_steps
    }

    /// Current state of agent `a`.
    pub fn state_of(&self, a: u32) -> &P::State {
        self.rt.state(self.agents.state(a))
    }

    /// Current output of agent `a`.
    pub fn output_of(&self, a: u32) -> &P::Output {
        self.rt.output_value(self.rt.output_of(self.agents.state(a)))
    }

    /// The per-agent configuration (the state column of the store).
    pub fn agents(&self) -> &AgentConfig {
        self.agents.states()
    }

    /// The struct-of-arrays agent store (states + crash/coin bitsets).
    pub fn store(&self) -> &AgentStore {
        &self.agents
    }

    /// Snapshots the live agents into a spatial occupancy field (one pass
    /// over the SoA state column; crashed agents are skipped). See
    /// [`OccupancyFieldProbe`](crate::observe::OccupancyFieldProbe) for why
    /// spatial aggregation is pull-based rather than a `Probe` hook.
    pub fn record_field(&self, field: &mut crate::observe::OccupancyFieldProbe) {
        field.record(
            self.steps,
            self.agents.iter().enumerate().filter_map(|(i, s)| {
                let a = i as u32;
                (!self.agents.is_crashed(a)).then_some((a, s))
            }),
        );
    }

    /// The dense runtime.
    pub fn runtime(&self) -> &DenseRuntime<P> {
        &self.rt
    }

    /// Draws sampler edges until one joins two live agents, or gives up
    /// after `cap` rejections (`None` = starved: no live pair was found).
    ///
    /// When the sampler is masked (see [`PairSampler::mask_live`]) the first
    /// draw is already live, so the loop exits on its first iteration.
    fn sample_live_pair(&mut self, rng: &mut impl RngCore, cap: u32) -> Option<(u32, u32)> {
        if self.starved || self.agents.live() < 2 {
            return None;
        }
        for _ in 0..cap {
            let (u, v) = self.sampler.sample(rng);
            if !self.agents.is_crashed(u) && !self.agents.is_crashed(v) {
                return Some((u, v));
            }
        }
        None
    }

    /// Executes one interaction along a sampled edge between live agents;
    /// returns the edge.
    ///
    /// # Panics
    ///
    /// Panics if the schedule is starved; use
    /// [`try_step_transitions`](Self::try_step_transitions) to handle
    /// starvation as a structured error instead.
    pub fn step(&mut self, rng: &mut impl RngCore) -> (u32, u32) {
        let (edge, _, _) =
            self.try_step_transitions(rng).unwrap_or_else(|e| panic!("{e}"));
        edge
    }

    /// Executes one interaction between live agents, returning the edge and
    /// the `(before, after)` state pairs, or
    /// [`PopulationError::StarvedSchedule`] if no pair of live agents can
    /// interact.
    ///
    /// Starvation is detected structurally where the sampler supports it
    /// (the flag is refreshed on every crash), in which case this fails in
    /// `O(1)` **without consuming any randomness**; otherwise a capped
    /// rejection loop runs first.
    pub fn try_step_transitions(
        &mut self,
        rng: &mut impl RngCore,
    ) -> Result<StepTransition, PopulationError> {
        let (u, v) = self
            .sample_live_pair(rng, MAX_PAIR_RESAMPLES)
            .ok_or(PopulationError::StarvedSchedule { live: self.agents.live() as u64 })?;
        let (p, q) = (self.agents.state(u), self.agents.state(v));
        let r = self.rt.transition(p, q);
        self.agents.apply((u, v), r);
        self.note_interaction((p, q), r);
        Ok(((u, v), (p, q), r))
    }

    /// [`try_step_transitions`](Self::try_step_transitions) with starvation
    /// flattened to `None`.
    pub fn step_transitions(&mut self, rng: &mut impl RngCore) -> Option<StepTransition> {
        self.try_step_transitions(rng).ok()
    }

    /// The current synthesized coin of agent `a` (see [`CoinProtocol`]):
    /// `None` until the agent's first [`step_coined`](Self::step_coined)
    /// interaction, and again after
    /// [`clear_coins`](Self::clear_coins) / adversarial initialization.
    pub fn coin_of(&self, a: u32) -> Option<bool> {
        self.agents.coin(a)
    }

    /// Resets every agent's synthesized coin to `None`. The adversary of
    /// self-stabilization ([`AdversarialInit`](crate::faults::AdversarialInit))
    /// calls this so a protocol cannot smuggle clean state through the coin
    /// side channel.
    pub fn clear_coins(&mut self) {
        self.agents.clear_coins();
    }

    /// Like [`step_transitions`](Self::step_transitions) but for a
    /// [`CoinProtocol`]: both participants' current coins are passed to
    /// [`delta_coined`](CoinProtocol::delta_coined), then both coins are
    /// refreshed from the schedule's RNG (initiator first, then responder),
    /// so each coin is used in at most one interaction.
    pub fn step_coined(&mut self, rng: &mut impl RngCore) -> Option<StepTransition>
    where
        P: CoinProtocol,
    {
        let (u, v) = self.sample_live_pair(rng, MAX_PAIR_RESAMPLES)?;
        let (p, q) = (self.agents.state(u), self.agents.state(v));
        let coins = (self.agents.coin(u), self.agents.coin(v));
        let r = self.rt.transition_coined(p, q, coins);
        self.agents.apply((u, v), r);
        let cu = rng.gen_bool(0.5);
        self.agents.set_coin(u, cu);
        let cv = rng.gen_bool(0.5);
        self.agents.set_coin(v, cv);
        self.note_interaction((p, q), r);
        Some(((u, v), (p, q), r))
    }

    /// Replaces the state of every **live** agent: live agent number `i` (in
    /// slot order, counting live agents only) gets `f(i)`. Crashed agents
    /// keep their (dead) memory. Used by
    /// [`AdversarialInit`](crate::faults::AdversarialInit); also clears all
    /// synthesized coins.
    pub fn overwrite_live_states(&mut self, mut f: impl FnMut(u64) -> P::State) {
        let mut i = 0u64;
        for a in 0..self.agents.population() as u32 {
            if self.agents.is_crashed(a) {
                continue;
            }
            let id = self.rt.intern(f(i));
            self.agents.set_state(a, id);
            i += 1;
        }
        self.clear_coins();
    }

    /// Runs `steps` interactions.
    pub fn run(&mut self, steps: u64, rng: &mut impl RngCore) {
        if Tr::ACTIVE {
            self.tracer.enter(SpanKind::SchedulerDraw);
        }
        for _ in 0..steps {
            self.step(rng);
        }
        if Tr::ACTIVE {
            self.tracer.exit(SpanKind::SchedulerDraw, steps);
        }
    }

    /// If every *live* agent currently has the same output, returns it.
    pub fn consensus_output(&self) -> Option<&P::Output> {
        let mut first: Option<OutputId> = None;
        for (i, s) in self.agents.iter().enumerate() {
            if self.agents.is_crashed(i as u32) {
                continue;
            }
            let o = self.rt.output_of(s);
            match first {
                None => first = Some(o),
                Some(f) if f != o => return None,
                Some(_) => {}
            }
        }
        first.map(|o| self.rt.output_value(o))
    }

    /// The multiset of current *live* outputs as `(output, count)` pairs.
    pub fn output_histogram(&self) -> Vec<(P::Output, u64)> {
        let mut hist: Vec<(P::Output, u64)> = Vec::new();
        for (i, s) in self.agents.iter().enumerate() {
            if self.agents.is_crashed(i as u32) {
                continue;
            }
            let o = self.rt.output_value(self.rt.output_of(s)).clone();
            match hist.iter_mut().find(|(oo, _)| *oo == o) {
                Some((_, c)) => *c += 1,
                None => hist.push((o, 1)),
            }
        }
        hist
    }

    /// Number of live agents whose current output differs from `expected`.
    pub fn wrong_output_count(&self, expected: &P::Output) -> u64 {
        self.agents
            .iter()
            .enumerate()
            .filter(|&(i, s)| {
                !self.agents.is_crashed(i as u32)
                    && self.rt.output_value(self.rt.output_of(s)) != expected
            })
            .count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::FnProtocol;
    use crate::scheduler::{EdgeListScheduler, UniformPairScheduler};

    fn epidemic() -> impl Protocol<State = bool, Input = bool, Output = bool> {
        FnProtocol::new(
            |&b: &bool| b,
            |&q: &bool| q,
            |&p: &bool, &q: &bool| (p || q, p || q),
        )
    }

    fn count_to_five() -> impl Protocol<State = u8, Input = bool, Output = bool> {
        FnProtocol::new(
            |&b: &bool| u8::from(b),
            |&q: &u8| q == 5,
            |&p: &u8, &q: &u8| if p + q >= 5 { (5, 5) } else { (p + q, 0) },
        )
    }

    #[test]
    fn epidemic_reaches_consensus() {
        let mut sim = Simulation::from_counts(epidemic(), [(true, 1), (false, 63)]);
        let mut rng = seeded_rng(11);
        let t = sim.run_until_consensus(&true, 100_000, &mut rng);
        assert!(t.is_some());
        assert_eq!(sim.consensus_output(), Some(&true));
    }

    #[test]
    fn count_to_five_positive_and_negative() {
        let mut rng = seeded_rng(5);
        let mut pos = Simulation::from_counts(count_to_five(), [(true, 5), (false, 20)]);
        let rep = pos.measure_stabilization(&true, 200_000, &mut rng);
        assert!(rep.converged(), "5 hot birds must alert everyone");

        let mut neg = Simulation::from_counts(count_to_five(), [(true, 4), (false, 21)]);
        let rep = neg.measure_stabilization(&false, 200_000, &mut rng);
        assert!(rep.converged(), "4 hot birds must never alert");
        // The alert state is unreachable with only 4 ones: outputs stay false
        // from the start.
        assert_eq!(rep.stabilized_at, Some(0));
    }

    #[test]
    fn stabilization_report_tail() {
        let r = StabilizationReport { horizon: 100, stabilized_at: Some(40) };
        assert!(r.converged());
        assert_eq!(r.silent_tail(), 60);
        let r = StabilizationReport { horizon: 100, stabilized_at: None };
        assert!(!r.converged());
        assert_eq!(r.silent_tail(), 0);
    }

    #[test]
    fn population_is_preserved() {
        let mut sim = Simulation::from_counts(count_to_five(), [(true, 7), (false, 9)]);
        let mut rng = seeded_rng(3);
        sim.run(10_000, &mut rng);
        assert_eq!(sim.population(), 16);
        let total: u64 = sim.output_histogram().iter().map(|&(_, c)| c).sum();
        assert_eq!(total, 16);
    }

    #[test]
    fn run_until_silent_detects_quiescence() {
        // Epidemic quiesces (outputs stop changing) quickly.
        let mut sim = Simulation::from_counts(epidemic(), [(true, 1), (false, 15)]);
        let mut rng = seeded_rng(9);
        let t = sim.run_until_silent(5_000, 1_000_000, &mut rng);
        assert!(t.is_some());
        assert_eq!(sim.consensus_output(), Some(&true));
    }

    #[test]
    fn agent_simulation_complete_graph_matches_count_semantics() {
        let n = 32;
        let inputs: Vec<bool> = (0..n).map(|i| i == 0).collect();
        let mut sim =
            AgentSimulation::from_inputs(epidemic(), &inputs, UniformPairScheduler::new(n));
        let mut rng = seeded_rng(21);
        let rep = sim.measure_stabilization(&true, 50_000, &mut rng);
        assert!(rep.converged());
        assert_eq!(sim.consensus_output(), Some(&true));
    }

    #[test]
    fn agent_simulation_on_directed_ring() {
        // Directed ring: 0→1→2→...→n-1→0. The epidemic still spreads.
        let n = 16u32;
        let edges: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        let inputs: Vec<bool> = (0..n).map(|i| i == 3).collect();
        let mut sim = AgentSimulation::from_inputs(
            epidemic(),
            &inputs,
            EdgeListScheduler::new(n as usize, edges),
        );
        let mut rng = seeded_rng(2);
        let rep = sim.measure_stabilization(&true, 50_000, &mut rng);
        assert!(rep.converged());
    }

    #[test]
    fn from_states_allows_designated_leader() {
        // Leader election starting from explicit states: one leader already.
        let le = FnProtocol::new(
            |&(): &()| true,
            |&q: &bool| q,
            |&p: &bool, &q: &bool| if p && q { (true, false) } else { (p, q) },
        );
        let mut sim = Simulation::from_states(le, [(true, 1), (false, 9)]);
        let mut rng = seeded_rng(1);
        sim.run(1000, &mut rng);
        assert_eq!(sim.count_of_state(&true), 1);
    }

    #[test]
    #[should_panic(expected = "at least 2 agents")]
    fn tiny_population_rejected() {
        let _ = Simulation::from_counts(epidemic(), [(true, 1)]);
    }

    #[test]
    fn leap_skips_noops_but_matches_step_distribution() {
        // Epidemic hitting time has the closed form
        // E[T] = Σ_{k=1}^{n−1} n(n−1)/(2k(n−k)); the leaping engine must
        // reproduce it (it is the same Markov chain, just fast-forwarded).
        let n = 24u64;
        let expect: f64 = (1..n)
            .map(|k| (n * (n - 1)) as f64 / (2 * k * (n - k)) as f64)
            .sum();
        let trials: u64 = if cfg!(debug_assertions) { 800 } else { 4000 };
        let mut total = 0u64;
        for seed in 0..trials {
            let mut sim = Simulation::from_counts(epidemic(), [(true, 1), (false, n - 1)]);
            let mut rng = seeded_rng(seed);
            let t = sim.run_to_quiescence(10_000, &mut rng).expect("epidemic quiesces");
            total += t;
        }
        let mean = total as f64 / trials as f64;
        let ratio = mean / expect;
        let band = if cfg!(debug_assertions) { 0.85..1.15 } else { 0.93..1.07 };
        assert!(band.contains(&ratio), "mean {mean:.1} vs exact {expect:.1}");
    }

    #[test]
    fn quiescence_is_detected_immediately_when_inert() {
        let mut sim = Simulation::from_counts(epidemic(), [(false, 10)]);
        let mut rng = seeded_rng(1);
        assert_eq!(sim.run_to_quiescence(10, &mut rng), Some(0));
    }

    #[test]
    fn leap_counts_interactions_and_effective_steps() {
        let mut sim = Simulation::from_counts(epidemic(), [(true, 1), (false, 63)]);
        let mut rng = seeded_rng(2);
        let reactive = sim.reactive_pairs();
        let mut effective = 0u64;
        while sim.leap(&reactive, &mut rng).is_some() {
            effective += 1;
        }
        // Exactly n−1 = 63 effective interactions infect everyone.
        assert_eq!(effective, 63);
        assert_eq!(sim.effective_steps(), 63);
        assert!(sim.steps() >= 63);
        assert_eq!(sim.consensus_output(), Some(&true));
    }

    #[test]
    fn count_to_five_positive_case_quiesces() {
        let mut sim = Simulation::from_counts(count_to_five(), [(true, 6), (false, 14)]);
        let mut rng = seeded_rng(3);
        let t = sim.run_to_quiescence(100_000, &mut rng);
        assert!(t.is_some(), "all-alert configuration is quiescent");
        assert_eq!(sim.consensus_output(), Some(&true));
        // The negative case shuffles tokens forever ((0, t) → (t, 0) is a
        // state change): no quiescence.
        let mut sim = Simulation::from_counts(count_to_five(), [(true, 3), (false, 7)]);
        assert_eq!(sim.run_to_quiescence(2_000, &mut rng), None);
    }

    #[test]
    fn parallel_round_matches_everyone_once() {
        let mut sim = Simulation::from_counts(epidemic(), [(true, 1), (false, 9)]);
        let mut rng = seeded_rng(14);
        let pairs = sim.parallel_round(&mut rng);
        assert_eq!(pairs, 5);
        assert_eq!(sim.steps(), 5);
        assert_eq!(sim.population(), 10);
        // Odd population: one agent idles.
        let mut sim = Simulation::from_counts(epidemic(), [(true, 1), (false, 10)]);
        assert_eq!(sim.parallel_round(&mut rng), 5);
        assert_eq!(sim.population(), 11);
    }

    #[test]
    fn parallel_epidemic_converges_in_logarithmic_rounds() {
        // One round doubles the infection at best; expect O(log n) rounds.
        let n = 1024u64;
        let mut sim = Simulation::from_counts(epidemic(), [(true, 1), (false, n - 1)]);
        let mut rng = seeded_rng(15);
        let rounds = sim
            .measure_stabilization_rounds(&true, 200, &mut rng)
            .expect("epidemic converges");
        assert!(rounds >= 10, "needs at least log2(n) rounds, got {rounds}");
        assert!(rounds <= 60, "should be O(log n) rounds, got {rounds}");
    }

    #[test]
    fn parallel_round_applies_transitions_from_pre_round_states() {
        // Count-to-5 with exactly two 1-tokens in a 2-agent population: the
        // single matched pair merges them whichever orientation is drawn.
        let mut sim = Simulation::from_counts(count_to_five(), [(true, 2)]);
        let mut rng = seeded_rng(16);
        sim.parallel_round(&mut rng);
        assert_eq!(sim.count_of_state(&2), 1);
        assert_eq!(sim.count_of_state(&0), 1);
    }

    #[test]
    fn steps_counter_advances() {
        let mut sim = Simulation::from_counts(epidemic(), [(true, 2), (false, 2)]);
        let mut rng = seeded_rng(0);
        sim.run(123, &mut rng);
        assert_eq!(sim.steps(), 123);
    }
}
