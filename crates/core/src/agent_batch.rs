//! Batched execution for the agent engine.
//!
//! The per-step [`AgentSimulation::step`] loop interleaves one scheduler
//! draw with one transition apply, which serializes a cache miss per
//! interaction once the population spills out of cache. Batched sampling
//! ([`run_batched`](AgentSimulation::run_batched),
//! [`measure_stabilization`](AgentSimulation::measure_stabilization))
//! breaks that dependence: draw `K` edges at once through
//! [`BatchPairSampler`] (monomorphized RNG, independent random reads that
//! overlap in the memory pipeline), then apply them in draw order through
//! the runtime's dense `δ`-memo (see
//! [`DenseRuntime::transition`](crate::DenseRuntime::transition)). Both
//! methods share one apply kernel, and `measure_stabilization` is the only
//! stabilization loop of the agent engine: `engine: "agents"` runs are
//! served through it. One trajectory runs on one thread; parallelism lives
//! across independent trials, in [`Ensemble`](crate::ensemble::Ensemble).
//!
//! # Identity with the per-step loop
//!
//! With no crashed agent, or with a sampler that masks crashed agents out
//! of its draws ([`PairSampler::mask_live`](crate::scheduler::PairSampler::mask_live),
//! e.g. [`CsrScheduler`](crate::scheduler::CsrScheduler)), a batched run
//! consumes the same RNG stream and applies the same interactions, in the
//! same order, as that many [`step`](AgentSimulation::step) calls: same
//! final states, state ids, counters and probe events. A rejection sampler
//! with crashed agents redraws a crashed slot after the whole batch is
//! drawn rather than at once, so its run is another sample of the same law.
//!
//! The batched apply kernel has two loop bodies, picked per batch from the
//! previous batch's share of effective interactions: one skips a no-op's
//! writes, the other stores every result and counts without a branch on
//! the data. A no-op's store writes back the state it read, so the choice
//! is invisible in states, state ids, counters, reports and the RNG
//! stream; only its speed differs.
//!
//! Both methods surface starvation (no live pair can ever be sampled again)
//! as [`PopulationError::StarvedSchedule`] instead of spinning or panicking.

use rand::RngCore;

use crate::engine::{
    consensus_reached, AgentSimulation, StabilizationReport, MAX_PAIR_RESAMPLES,
};
use crate::error::PopulationError;
use crate::observe::Probe;
use crate::protocol::Protocol;
use crate::registry::{DenseRuntime, StateId, UNSET};
use crate::scheduler::BatchPairSampler;
use crate::trace::{SpanKind, Tracer};

/// Edges sampled per batch. Large enough to amortize the buffer walk and
/// expose memory-level parallelism; small enough that the edge buffer stays
/// cache-resident.
pub const BATCH_EDGES: usize = 4096;

/// Reusable scratch buffers for batched execution, owned by every
/// [`AgentSimulation`] (empty until the first batched call, so the
/// per-step engine pays nothing for it).
#[derive(Debug, Clone, Default)]
pub struct AgentBatchScratch {
    /// Sampled edges of the current batch, in draw order.
    edges: Vec<(u32, u32)>,
    /// Whether the next batch runs the dense apply loop's storing body:
    /// the previous batch had at least `1 / STORE_SHARE` effective
    /// interactions.
    store: bool,
}

/// The dense apply loop runs its storing body on a batch when at least
/// `1 / STORE_SHARE` of the previous batch's interactions were effective
/// (see [`apply_dense`]).
///
/// Derived from E23's `swap` share sweep (EXPERIMENTS.md): the eliding
/// body pays a branch miss per effective interaction, the storing body a
/// write of two state-array lines per interaction, effective or not.
/// Timed back to back on one simulation, storing over eliding reads 1.03
/// at a share of 0.04 and 0.97 at 0.06 for n = 10⁴, and 1.01 at 0.06 and
/// 0.99 at 0.08 for n = 10⁶; the two cross near 1/16 at both sizes.
const STORE_SHARE: u64 = 16;

/// Wrong-output bookkeeping of a stabilization run, kept by the apply
/// kernel by table arithmetic.
struct Watch<'e, O> {
    expected: &'e O,
    /// 1 for each interned state whose output is not `expected`, else 0;
    /// extended to the runtime's state count whenever δ may have interned
    /// a state (see [`cover`](Self::cover)).
    bad: Vec<u8>,
    /// Live agents whose output is not `expected`.
    wrong: u64,
    /// The last interaction count, since the run started, after which some
    /// live agent's output was wrong (`None`: none so far).
    last_wrong: Option<u64>,
    /// Interactions of the run applied before the current batch.
    done: u64,
}

impl<O: PartialEq> Watch<'_, O> {
    /// Extends the `bad` column to every state `rt` has interned.
    fn cover<P: Protocol<Output = O>>(&mut self, rt: &DenseRuntime<P>) {
        while self.bad.len() < rt.state_count() {
            let s = StateId(self.bad.len() as u32);
            self.bad.push(u8::from(rt.output_value(rt.output_of(s)) != self.expected));
        }
    }

    /// Accounts the interaction at index `i` of the current batch; a no-op
    /// (`after == before`) leaves the count as it was. Every state passed
    /// must be [covered](Self::cover).
    #[inline(always)]
    fn note(&mut self, before: (StateId, StateId), after: (StateId, StateId), i: usize) {
        let bad = |s: StateId| u64::from(self.bad[s.index()]);
        let was = self.wrong;
        self.wrong = was + bad(after.0) + bad(after.1) - bad(before.0) - bad(before.1);
        if was > 0 && self.wrong == 0 {
            // Wrong through interaction `done + i`, right from the next one.
            self.last_wrong = Some(self.done + i as u64);
        }
    }

    /// Closes a batch of `len` interactions.
    #[inline]
    fn end_batch(&mut self, len: usize) {
        self.done += len as u64;
        if self.wrong > 0 {
            self.last_wrong = Some(self.done);
        }
    }
}

/// The dense-memo apply loop: applies `edges` in draw order through
/// `table` (side `side`, see
/// [`DenseRuntime::dense_memo`](crate::DenseRuntime::dense_memo)) until the
/// slice ends or a pair reads [`UNSET`], and returns how many edges it
/// applied and how many of those were effective. `first` is the index of
/// `edges[0]` in the batch.
///
/// Both bodies make the same state changes and counts:
///
/// * `STORE = false` branches on `r != (p, q)` and skips an ineffective
///   interaction's writes and accounting entirely, so no-ops dirty no
///   state-array line. The branch is predictable only while one outcome
///   dominates.
/// * `STORE = true` stores `r` unconditionally (writing back an unchanged
///   state is unobservable), counts `r != (p, q)` as a number and keeps
///   the watch by table arithmetic, which adds nothing on a no-op. Its only
///   branches, the memo miss and the watch's `wrong` reaching zero, are
///   rare.
#[inline(always)]
fn apply_dense<const STORE: bool, O: PartialEq>(
    edges: &[(u32, u32)],
    states: &mut [StateId],
    table: &[(StateId, StateId)],
    side: usize,
    mut watch: Option<&mut Watch<'_, O>>,
    first: usize,
) -> (usize, u64) {
    let mut effective = 0u64;
    for (i, &(u, v)) in edges.iter().enumerate() {
        let (p, q) = (states[u as usize], states[v as usize]);
        let r = table[p.index() * side + q.index()];
        // `UNSET` never equals `(p, q)`, so the eliding body catches a
        // miss on its effective branch.
        if STORE || r != (p, q) {
            if r == UNSET {
                return (i, effective);
            }
            states[u as usize] = r.0;
            states[v as usize] = r.1;
            effective += u64::from(r != (p, q));
            if let Some(w) = watch.as_deref_mut() {
                w.note((p, q), r, first + i);
            }
        }
    }
    (edges.len(), effective)
}

impl<P: Protocol, S: BatchPairSampler, Pr: Probe, Tr: Tracer> AgentSimulation<P, S, Pr, Tr> {
    /// Fills the scratch edge buffer with `k` edges joining live agents,
    /// inside a [`SpanKind::BatchSample`] span.
    ///
    /// With no crashed agents this is exactly the sampler's batched draw
    /// (stream-identical to `k` sequential draws). Masked samplers (see
    /// [`crate::scheduler::PairSampler::mask_live`]) never emit a crashed
    /// endpoint, so the fix-up scan finds nothing; for rejection samplers,
    /// offending slots are redrawn in place with the usual capped budget.
    fn fill_live_batch(
        &mut self,
        k: usize,
        rng: &mut impl RngCore,
    ) -> Result<(), PopulationError> {
        if Tr::ACTIVE {
            self.tracer.enter(SpanKind::BatchSample);
        }
        let fill = self.draw_live_batch(k, rng);
        if Tr::ACTIVE {
            self.tracer.exit(SpanKind::BatchSample, k as u64);
        }
        fill
    }

    fn draw_live_batch(
        &mut self,
        k: usize,
        rng: &mut impl RngCore,
    ) -> Result<(), PopulationError> {
        let starved_err =
            |live: usize| PopulationError::StarvedSchedule { live: live as u64 };
        if self.starved || self.agents.live() < 2 {
            return Err(starved_err(self.agents.live()));
        }
        let mut edges = std::mem::take(&mut self.batch.edges);
        self.sampler.sample_batch(rng, k, &mut edges);
        if self.agents.live() < self.agents.population() {
            'slots: for slot in edges.iter_mut() {
                if !self.agents.is_crashed(slot.0) && !self.agents.is_crashed(slot.1) {
                    continue;
                }
                for _ in 0..MAX_PAIR_RESAMPLES {
                    let (u, v) = self.sampler.sample(rng);
                    if !self.agents.is_crashed(u) && !self.agents.is_crashed(v) {
                        *slot = (u, v);
                        continue 'slots;
                    }
                }
                self.batch.edges = edges;
                return Err(starved_err(self.agents.live()));
            }
        }
        self.batch.edges = edges;
        Ok(())
    }

    /// The apply kernel of [`run_batched`](Self::run_batched) and
    /// [`measure_stabilization`](Self::measure_stabilization): applies the
    /// buffered batch in draw order through the runtime's `δ`-memo and,
    /// given a `watch`, keeps its wrong-output count. Inlined (with
    /// [`drive`](Self::drive)) into each caller, so `run_batched`'s copy
    /// carries no watch code in its hot loop.
    #[inline(always)]
    fn apply_batch(&mut self, mut watch: Option<&mut Watch<'_, P::Output>>) {
        let edges = std::mem::take(&mut self.batch.edges);
        let mut done = 0;
        if !Pr::ACTIVE {
            // The hottest loop of the engine, run while the memo is dense.
            // Hits read the table through a local borrow, so its base and
            // side stay in registers, and the step counters accumulate in
            // registers (one read-modify-write of the `self` fields per
            // batch, not per interaction). The loop body is picked from the
            // previous batch's effective share (see `STORE_SHARE`).
            let store = self.batch.store;
            let mut effective = 0u64;
            let states = self.agents.states_mut();
            let rt = &mut self.rt;
            while let Some((table, side)) = rt.dense_memo() {
                if let Some(w) = watch.as_deref_mut() {
                    w.cover(rt);
                }
                let rest = &edges[done..];
                let w = watch.as_deref_mut();
                let (applied, eff) = if store {
                    apply_dense::<true, _>(rest, states, table, side, w, done)
                } else {
                    apply_dense::<false, _>(rest, states, table, side, w, done)
                };
                done += applied;
                effective += eff;
                let Some(&(u, v)) = edges.get(done) else { break };
                // First sight of this pair: evaluate δ into the memo (it may
                // intern states, grow the table or move it to the hash
                // map), then retry the edge.
                rt.transition(states[u as usize], states[v as usize]);
            }
            self.batch.store = effective * STORE_SHARE >= done as u64;
            self.steps += done as u64;
            self.effective_steps += effective;
        }
        // With a probe, or past the dense cap: one memo call per edge.
        for (i, &(u, v)) in edges.iter().enumerate().skip(done) {
            let (p, q) = (self.agents.state(u), self.agents.state(v));
            let r = self.rt.transition(p, q);
            if r != (p, q) {
                self.agents.apply((u, v), r);
                if let Some(w) = watch.as_deref_mut() {
                    w.cover(&self.rt);
                    w.note((p, q), r, i);
                }
            }
            self.note_interaction((p, q), r);
        }
        if let Some(w) = watch {
            w.end_batch(edges.len());
        }
        self.batch.edges = edges;
    }

    /// Draws and applies `steps` interactions batch by batch, each batch in
    /// a [`SpanKind::BatchSample`] and a [`SpanKind::BatchApply`] span.
    #[inline(always)]
    fn drive(
        &mut self,
        steps: u64,
        mut watch: Option<&mut Watch<'_, P::Output>>,
        rng: &mut impl RngCore,
    ) -> Result<(), PopulationError> {
        let mut remaining = steps;
        while remaining > 0 {
            let k = remaining.min(BATCH_EDGES as u64) as usize;
            self.fill_live_batch(k, rng)?;
            if Tr::ACTIVE {
                self.tracer.enter(SpanKind::BatchApply);
            }
            self.apply_batch(watch.as_deref_mut());
            if Tr::ACTIVE {
                self.tracer.exit(SpanKind::BatchApply, k as u64);
            }
            remaining -= k as u64;
        }
        Ok(())
    }

    /// Runs `steps` interactions through batched sampling.
    ///
    /// Byte-identical to [`run`](Self::run) under the conditions of the
    /// [module docs](self) — same RNG stream, same interaction sequence,
    /// same final states and step counters — just faster, because
    /// scheduler draws are batched (independent random reads overlap in the
    /// memory pipeline).
    ///
    /// # Errors
    ///
    /// [`PopulationError::StarvedSchedule`] if no pair of live agents can
    /// interact; interactions executed before starvation was detected remain
    /// applied.
    pub fn run_batched(
        &mut self,
        steps: u64,
        rng: &mut impl RngCore,
    ) -> Result<(), PopulationError> {
        self.drive(steps, None, rng)
    }

    /// Runs `horizon` interactions and reports when the output assignment
    /// last became (and stayed) `expected` on every live agent.
    ///
    /// The report is step-exact: it equals what a loop of
    /// [`try_step_transitions`](Self::try_step_transitions) calls, checking
    /// every agent's output after each one, would report under the
    /// conditions of the [module docs](self). A starved schedule ends the
    /// run early, with the report of the interactions applied so far: no
    /// later interaction could have changed it.
    pub fn measure_stabilization(
        &mut self,
        expected: &P::Output,
        horizon: u64,
        rng: &mut impl RngCore,
    ) -> StabilizationReport {
        let wrong = self.wrong_output_count(expected);
        let mut watch = Watch {
            expected,
            bad: Vec::new(),
            wrong,
            last_wrong: (wrong > 0).then_some(0),
            done: 0,
        };
        // Starvation is the only error, and it ends the run early.
        let _ = self.drive(horizon, Some(&mut watch), rng);
        StabilizationReport {
            horizon,
            stabilized_at: consensus_reached(watch.wrong, watch.last_wrong, 0),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::{seeded_rng, AgentSimulation};
    use crate::error::PopulationError;
    use crate::protocol::FnProtocol;
    use crate::scheduler::{EdgeListScheduler, UniformPairScheduler};
    use rand::RngCore;

    fn epidemic() -> impl crate::protocol::Protocol<State = bool, Input = bool, Output = bool>
    {
        FnProtocol::new(
            |&b: &bool| b,
            |&q: &bool| q,
            |&p: &bool, &q: &bool| (p || q, p || q),
        )
    }

    fn inputs(n: usize) -> Vec<bool> {
        (0..n).map(|i| i == 0).collect()
    }

    #[test]
    fn run_batched_is_byte_identical_to_sequential() {
        let n = 64;
        let mut seq = AgentSimulation::from_inputs(
            epidemic(),
            &inputs(n),
            UniformPairScheduler::new(n),
        );
        let mut bat = AgentSimulation::from_inputs(
            epidemic(),
            &inputs(n),
            UniformPairScheduler::new(n),
        );
        let mut rng_a = seeded_rng(42);
        let mut rng_b = seeded_rng(42);
        seq.run(10_000, &mut rng_a);
        bat.run_batched(10_000, &mut rng_b).unwrap();
        assert_eq!(seq.agents(), bat.agents());
        assert_eq!(seq.steps(), bat.steps());
        assert_eq!(seq.effective_steps(), bat.effective_steps());
        assert_eq!(rng_a.next_u64(), rng_b.next_u64(), "RNG streams must stay aligned");
    }

    #[test]
    fn starved_schedule_is_a_structured_error() {
        // Two disconnected dumbbells plus two isolated agents: crashing
        // agents 0..=3 leaves agents 4 and 5 live but edgeless.
        let edges = [(0u32, 1u32), (1, 0), (2, 3), (3, 2)];
        let mut sim = AgentSimulation::from_inputs(
            epidemic(),
            &inputs(6),
            EdgeListScheduler::new(6, edges.to_vec()),
        );
        for a in 0..=3 {
            sim.crash_agent(a);
        }
        let mut rng = seeded_rng(3);
        let before = rng.clone();
        assert_eq!(
            sim.run_batched(100, &mut rng),
            Err(PopulationError::StarvedSchedule { live: 2 })
        );
        assert_eq!(
            sim.try_step_transitions(&mut rng),
            Err(PopulationError::StarvedSchedule { live: 2 })
        );
        // Structural detection: the failing calls consumed no randomness.
        let mut a = before;
        assert_eq!(a.next_u64(), rng.next_u64());
    }

    #[test]
    fn measure_stabilization_matches_a_per_step_replay() {
        let n = 48;
        let mut bat = AgentSimulation::from_inputs(
            epidemic(),
            &inputs(n),
            UniformPairScheduler::new(n),
        );
        let mut seq = AgentSimulation::from_inputs(
            epidemic(),
            &inputs(n),
            UniformPairScheduler::new(n),
        );
        let mut rng_a = seeded_rng(19);
        let mut rng_b = seeded_rng(19);
        let rep = bat.measure_stabilization(&true, 30_000, &mut rng_b);
        // Per-step replay: the last interaction after which an agent was
        // still healthy, plus one.
        let mut last_wrong = Some(0);
        for t in 1..=30_000u64 {
            seq.step(&mut rng_a);
            if seq.consensus_output() != Some(&true) {
                last_wrong = Some(t);
            }
        }
        assert_eq!(rep.horizon, 30_000);
        assert_eq!(rep.stabilized_at, last_wrong.map(|t| t + 1));
        assert!(rep.converged());
        assert_eq!(seq.agents(), bat.agents());
        assert_eq!(seq.effective_steps(), bat.effective_steps());
        assert_eq!(rng_a.next_u64(), rng_b.next_u64());
    }

    #[test]
    fn measure_stabilization_stops_on_a_starved_schedule() {
        // Agents 4 and 5 stay live but share no edge, and agent 4 is
        // healthy: the run can never stabilize, and must not spin.
        let edges = [(0u32, 1u32), (1, 0), (2, 3), (3, 2)];
        let mut sim = AgentSimulation::from_inputs(
            epidemic(),
            &[true, false, false, false, false, true],
            EdgeListScheduler::new(6, edges.to_vec()),
        );
        for a in 0..=3 {
            sim.crash_agent(a);
        }
        let mut rng = seeded_rng(3);
        let rep = sim.measure_stabilization(&true, 1_000_000, &mut rng);
        assert_eq!(rep.horizon, 1_000_000);
        assert_eq!(rep.stabilized_at, None);
        assert_eq!(sim.steps(), 0);
        assert_eq!(rng.next_u64(), seeded_rng(3).next_u64());
    }
}
