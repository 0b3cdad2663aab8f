//! Correctness properties of the batched agent engine
//! (`pp_core::agent_batch`):
//!
//! * `run_batched` is **byte-identical** to the sequential `step` loop on
//!   every built-in sampler — same RNG stream, same final per-agent states,
//!   same counters (a stronger claim than the count engine's distributional
//!   equivalence, because agent-engine batching reorders nothing);
//! * under crashes, the masked `CsrScheduler` path agrees in distribution
//!   (total-variation distance) with rejection sampling on the same graph,
//!   mirroring `batch_properties.rs`;
//! * starvation surfaces as `PopulationError::StarvedSchedule` without
//!   consuming randomness;
//! * `measure_stabilization`, the agent engine's one stabilization loop,
//!   reports what a per-step replay through the public
//!   `try_step_transitions` reports, on every built-in sampler family,
//!   with and without a probe, across batch boundaries, and on protocols
//!   whose state space grows during the run, past the dense δ-memo too.

use std::collections::HashMap;

use pp_core::agent_batch::BATCH_EDGES;
use pp_core::scheduler::{
    BatchPairSampler, CsrScheduler, EdgeListScheduler, UniformPairScheduler,
};
use pp_core::{
    consensus_reached, seeded_rng, AgentSimulation, FnProtocol, MetricsProbe, NoProbe,
    PopulationError, Probe, Protocol, StabilizationReport,
};
use proptest::prelude::*;
use rand::RngCore;

/// Three-state approximate majority: transitions in every direction, so the
/// δ-memo sees a rich rule set.
fn approx_majority() -> impl Protocol<State = u8, Input = u8, Output = u8> {
    FnProtocol::new(
        |&x: &u8| x,
        |&q: &u8| q,
        |&p: &u8, &q: &u8| match (p, q) {
            (0, 1) => (0, 2),
            (1, 0) => (1, 2),
            (0, 2) => (0, 0),
            (1, 2) => (1, 1),
            _ => (p, q),
        },
    )
}

fn majority_inputs(n: usize) -> Vec<u8> {
    (0..n).map(|i| u8::from(i % 3 == 0)).collect()
}

/// Both directions around a ring of `n` agents.
fn ring_edges(n: u32) -> Vec<(u32, u32)> {
    (0..n).flat_map(|i| [(i, (i + 1) % n), ((i + 1) % n, i)]).collect()
}

/// Asserts that a batched run over `sampler` matches the sequential loop
/// byte for byte: same states, same counters, same RNG position.
fn assert_batched_matches_sequential<S: BatchPairSampler + Clone>(
    n: usize,
    sampler: S,
    steps: u64,
    seed: u64,
) -> Result<(), TestCaseError> {
    let inputs = majority_inputs(n);
    let mut seq = AgentSimulation::from_inputs(approx_majority(), &inputs, sampler.clone());
    let mut bat = AgentSimulation::from_inputs(approx_majority(), &inputs, sampler);
    let mut rng_a = seeded_rng(seed);
    let mut rng_b = seeded_rng(seed);
    for _ in 0..steps {
        seq.step(&mut rng_a);
    }
    bat.run_batched(steps, &mut rng_b).expect("no crashes, cannot starve");
    prop_assert_eq!(seq.agents(), bat.agents());
    prop_assert_eq!(seq.steps(), bat.steps());
    prop_assert_eq!(seq.effective_steps(), bat.effective_steps());
    prop_assert_eq!(rng_a.next_u64(), rng_b.next_u64(), "RNG streams diverged");
    Ok(())
}

/// Count-to-`k` tokens: a meeting merges both counts into the initiator
/// until they reach `k`, which then floods. Started from 0/1 inputs, the
/// states `2, 3, …` are first interned mid-run, so the memo and the
/// per-state output table grow while the batched loop runs.
fn count_to(k: u32) -> impl Protocol<State = u32, Input = u8, Output = bool> {
    FnProtocol::new(
        |&x: &u8| u32::from(x),
        move |&q: &u32| q >= k,
        move |&p: &u32, &q: &u32| if p + q >= k { (k, k) } else { (p + q, 0) },
    )
}

/// Fresh-looking states on almost every interaction: the state space passes
/// the runtime's 1024-state dense memo within a few hundred interactions.
fn scatter() -> impl Protocol<State = u32, Input = u32, Output = bool> {
    FnProtocol::new(
        |&x: &u32| x,
        |&q: &u32| q % 2 == 0,
        |&p: &u32, &q: &u32| ((p * 7 + q + 1) % 5_000, (p + 3 * q) % 5_000),
    )
}

/// `side × side` torus, both directions of every lattice edge: regular with
/// few neighborhood shapes, so `CsrScheduler` gathers through its stencil.
fn torus_edges(side: u32) -> Vec<(u32, u32)> {
    let at = |x: u32, y: u32| (y % side) * side + x % side;
    (0..side * side)
        .flat_map(|v| {
            let (x, y) = (v % side, v / side);
            [at(x + 1, y), at(x + side - 1, y), at(x, y + 1), at(x, y + side - 1)]
                .map(|w| (v, w))
        })
        .collect()
}

/// A ring plus chords from agent 0 to every third agent: irregular degrees,
/// so `CsrScheduler` keeps its general layout.
fn irregular_edges(n: u32) -> Vec<(u32, u32)> {
    let mut edges = ring_edges(n);
    for v in (3..n - 1).step_by(3) {
        edges.extend([(0, v), (v, 0)]);
    }
    edges
}

/// The per-step stabilization loop the engine used to run, replayed
/// through the public `try_step_transitions`: after every interaction, the
/// wrong-output count is updated from the two agents' old and new states,
/// and a starved draw idles without advancing `steps`.
fn per_step_stabilization<P: Protocol, S: BatchPairSampler, Pr: Probe>(
    sim: &mut AgentSimulation<P, S, Pr>,
    expected: &P::Output,
    horizon: u64,
    rng: &mut impl RngCore,
) -> StabilizationReport {
    let mut wrong = sim.wrong_output_count(expected);
    let mut last_wrong = (wrong > 0).then_some(0);
    let start = sim.steps();
    for _ in 0..horizon {
        if let Ok((_, (p, q), (p2, q2))) = sim.try_step_transitions(rng) {
            let rt = sim.runtime();
            for (old, new) in [(p, p2), (q, q2)] {
                let was_ok = rt.output_value(rt.output_of(old)) == expected;
                let is_ok = rt.output_value(rt.output_of(new)) == expected;
                match (was_ok, is_ok) {
                    (true, false) => wrong += 1,
                    (false, true) => wrong -= 1,
                    _ => {}
                }
            }
        }
        if wrong > 0 {
            last_wrong = Some(sim.steps() - start);
        }
    }
    StabilizationReport { horizon, stabilized_at: consensus_reached(wrong, last_wrong, 0) }
}

/// Everything a stabilization run leaves behind that must not depend on
/// which loop ran it.
type RunTrace = (StabilizationReport, u64, u64, Vec<u32>, u64);

fn stabilization_trace<P: Protocol, S: BatchPairSampler, Pr: Probe>(
    mut sim: AgentSimulation<P, S, Pr>,
    expected: &P::Output,
    horizon: u64,
    seed: u64,
    per_step: bool,
) -> (RunTrace, Pr) {
    let mut rng = seeded_rng(seed);
    let rep = if per_step {
        per_step_stabilization(&mut sim, expected, horizon, &mut rng)
    } else {
        sim.measure_stabilization(expected, horizon, &mut rng)
    };
    let states = sim.agents().iter().map(|s| s.0).collect();
    let run = (rep, sim.steps(), sim.effective_steps(), states, rng.next_u64());
    (run, sim.into_probe())
}

/// Asserts that the unified loop and the per-step oracle agree on `sampler`
/// for one protocol, unprobed and with a `MetricsProbe` attached.
fn assert_stabilization_matches_per_step<P, S>(
    mk: impl Fn() -> P,
    inputs: &[P::Input],
    expected: &P::Output,
    sampler: S,
    horizon: u64,
    seed: u64,
) -> Result<(), TestCaseError>
where
    P: Protocol,
    S: BatchPairSampler + Clone,
{
    assert_crashed_stabilization_matches_per_step(mk, inputs, expected, sampler, &[], horizon, seed)
}

/// [`assert_stabilization_matches_per_step`] with the agents `crashed`
/// crashed before the run starts.
fn assert_crashed_stabilization_matches_per_step<P, S>(
    mk: impl Fn() -> P,
    inputs: &[P::Input],
    expected: &P::Output,
    sampler: S,
    crashed: &[u32],
    horizon: u64,
    seed: u64,
) -> Result<(), TestCaseError>
where
    P: Protocol,
    S: BatchPairSampler + Clone,
{
    let fresh = || {
        let mut sim = AgentSimulation::from_inputs(mk(), inputs, sampler.clone());
        for &a in crashed {
            assert!(sim.crash_agent(a), "agent {a} crashed twice");
        }
        sim
    };
    let plain = |per_step| stabilization_trace(fresh(), expected, horizon, seed, per_step);
    let ((unified, NoProbe), (oracle, NoProbe)) = (plain(false), plain(true));
    prop_assert_eq!(&unified, &oracle, "unprobed");

    let probed = |per_step| {
        let sim = fresh().with_probe(MetricsProbe::new());
        stabilization_trace(sim, expected, horizon, seed, per_step)
    };
    let ((run, probe), (run_oracle, probe_oracle)) = (probed(false), probed(true));
    prop_assert_eq!(&run, &oracle, "a probe must not move the run");
    prop_assert_eq!(&run_oracle, &oracle);
    prop_assert_eq!(probe.interactions(), probe_oracle.interactions());
    prop_assert_eq!(probe.effective_interactions(), probe_oracle.effective_interactions());
    prop_assert_eq!(probe.output_changes(), probe_oracle.output_changes());
    prop_assert_eq!(probe.rules_by_count(), probe_oracle.rules_by_count());
    Ok(())
}

/// Runs approximate majority, count-to-k (whose state space grows mid-run)
/// and scatter (whose state space passes the dense δ-memo mid-run) on
/// `sampler`.
fn assert_all_protocols<S: BatchPairSampler + Clone>(
    n: usize,
    sampler: S,
    horizon: u64,
    seed: u64,
) -> Result<(), TestCaseError> {
    let majority = majority_inputs(n);
    let expected = u8::from(majority.iter().filter(|&&x| x == 1).count() * 2 > n);
    assert_stabilization_matches_per_step(
        approx_majority,
        &majority,
        &expected,
        sampler.clone(),
        horizon,
        seed,
    )?;
    // ⌈n/2⌉ tokens against k = ⌊n/2⌋ + 1: odd populations reach k, even
    // ones fall one short, so both verdicts occur.
    let k = (n / 2) as u32 + 1;
    let tokens: Vec<u8> = (0..n).map(|i| u8::from(i % 2 == 0)).collect();
    let expected = tokens.iter().map(|&t| u32::from(t)).sum::<u32>() >= k;
    assert_stabilization_matches_per_step(
        || count_to(k),
        &tokens,
        &expected,
        sampler.clone(),
        horizon,
        seed,
    )?;
    let seeds: Vec<u32> = (0..n as u32).collect();
    assert_stabilization_matches_per_step(scatter, &seeds, &true, sampler, horizon, seed)
}

/// Horizons of one step, one draw short of and one past a batch, and
/// several batches with a partial tail.
fn horizon() -> impl Strategy<Value = u64> {
    prop_oneof![Just(1u64), Just(4_095), Just(4_097), Just(10_001)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn prop_stabilization_matches_per_step_on_uniform(
        seed in 0u64..1_000,
        n in 4usize..40,
        horizon in horizon(),
    ) {
        assert_all_protocols(n, UniformPairScheduler::new(n), horizon, seed)?;
    }

    #[test]
    fn prop_stabilization_matches_per_step_on_edge_list(
        seed in 0u64..1_000,
        n in 4u32..40,
        horizon in horizon(),
    ) {
        let sampler = EdgeListScheduler::new(n as usize, ring_edges(n));
        assert_all_protocols(n as usize, sampler, horizon, seed)?;
    }

    #[test]
    fn prop_stabilization_matches_per_step_on_stencil_torus(
        seed in 0u64..1_000,
        side in 3u32..8,
        horizon in horizon(),
    ) {
        let n = side * side;
        let sampler = CsrScheduler::new(n as usize, &torus_edges(side));
        assert_all_protocols(n as usize, sampler, horizon, seed)?;
    }

    #[test]
    fn prop_stabilization_matches_per_step_on_irregular_csr(
        seed in 0u64..1_000,
        n in 5u32..40,
        horizon in horizon(),
    ) {
        let sampler = CsrScheduler::new(n as usize, &irregular_edges(n));
        assert_all_protocols(n as usize, sampler, horizon, seed)?;
    }
}

/// Effective interactions of each `BATCH_EDGES`-interaction batch of a
/// per-step replay of `horizon` interactions.
fn effective_per_batch<P: Protocol, S: BatchPairSampler>(
    mut sim: AgentSimulation<P, S>,
    horizon: u64,
    seed: u64,
) -> Vec<u64> {
    let mut rng = seeded_rng(seed);
    let mut counts = Vec::new();
    let mut done = 0;
    while done < horizon {
        let k = (horizon - done).min(BATCH_EDGES as u64);
        let before = sim.effective_steps();
        for _ in 0..k {
            sim.step(&mut rng);
        }
        counts.push(sim.effective_steps() - before);
        done += k;
    }
    counts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Approximate majority from a near-tie: its early batches are mostly
    /// effective and its consensus tail is all no-ops, so the apply kernel
    /// runs both loop bodies (it switches between them at a share of
    /// effective interactions between 1/64 and 1/4) and must still match
    /// the per-step oracle field for field.
    #[test]
    fn prop_stabilization_matches_per_step_across_both_loop_bodies(seed in 0u64..1_000) {
        let n = 2_001;
        let horizon = 200_000;
        let inputs: Vec<u8> = (0..n).map(|i| u8::from(i % 2 == 0)).collect();
        let per_batch = effective_per_batch(
            AgentSimulation::from_inputs(approx_majority(), &inputs, UniformPairScheduler::new(n)),
            horizon,
            seed,
        );
        let busy = BATCH_EDGES as u64 / 4;
        let quiet = BATCH_EDGES as u64 / 64;
        let first_busy = per_batch.iter().position(|&e| e >= busy);
        prop_assert!(first_busy.is_some(), "no busy batch: {:?}", per_batch);
        prop_assert!(
            per_batch[first_busy.unwrap()..].iter().any(|&e| e <= quiet),
            "no quiet batch after a busy one: {:?}",
            per_batch
        );
        assert_stabilization_matches_per_step(
            approx_majority,
            &inputs,
            &1,
            UniformPairScheduler::new(n),
            horizon,
            seed,
        )?;
    }

    /// Agents crashed before the run on a masked torus: the kernel's
    /// wrong-output count covers live agents only, so the run still
    /// stabilizes although the crashed minority agents stay wrong.
    #[test]
    fn prop_stabilization_matches_per_step_with_crashed_agents(seed in 0u64..1_000) {
        let side = 12u32;
        let n = (side * side) as usize;
        // One agent in three votes 0; crash four of them, spread out.
        let inputs: Vec<u8> = (0..n).map(|i| u8::from(i % 3 != 0)).collect();
        let crashed = [0u32, 39, 78, 117];
        assert!(crashed.iter().all(|&a| inputs[a as usize] == 0));
        let sampler = CsrScheduler::new(n, &torus_edges(side));
        assert_crashed_stabilization_matches_per_step(
            approx_majority,
            &inputs,
            &1,
            sampler.clone(),
            &crashed,
            60_000,
            seed,
        )?;
        let mut sim = AgentSimulation::from_inputs(approx_majority(), &inputs, sampler);
        for a in crashed {
            sim.crash_agent(a);
        }
        let rep = sim.measure_stabilization(&1, 60_000, &mut seeded_rng(seed));
        prop_assert!(rep.converged(), "live agents never agreed: {:?}", rep);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop_batched_matches_sequential_on_uniform(
        seed in 0u64..1_000,
        n in 3usize..40,
        steps in 1u64..3_000,
    ) {
        assert_batched_matches_sequential(n, UniformPairScheduler::new(n), steps, seed)?;
    }

    #[test]
    fn prop_batched_matches_sequential_on_edge_list(
        seed in 0u64..1_000,
        n in 3u32..40,
        steps in 1u64..3_000,
    ) {
        let sampler = EdgeListScheduler::new(n as usize, ring_edges(n));
        assert_batched_matches_sequential(n as usize, sampler, steps, seed)?;
    }

    #[test]
    fn prop_batched_matches_sequential_on_csr(
        seed in 0u64..1_000,
        n in 3u32..40,
        steps in 1u64..3_000,
    ) {
        let sampler = CsrScheduler::new(n as usize, &ring_edges(n));
        assert_batched_matches_sequential(n as usize, sampler, steps, seed)?;
    }

    #[test]
    fn prop_starved_schedule_errors_without_consuming_randomness(
        seed in 0u64..1_000,
        pad in 2u32..8,
    ) {
        // Two components joined by nothing: crash one side's endpoints and
        // only edgeless agents remain live.
        let n = 4 + pad;
        let edges = [(0u32, 1u32), (1, 0), (2, 3), (3, 2)];
        let inputs = majority_inputs(n as usize);
        let mut sim = AgentSimulation::from_inputs(
            approx_majority(),
            &inputs,
            EdgeListScheduler::new(n as usize, edges.to_vec()),
        );
        for a in 0..4u32 {
            sim.crash_agent(a);
        }
        let mut rng = seeded_rng(seed);
        let mut witness = rng.clone();
        let live = u64::from(n) - 4;
        prop_assert_eq!(
            sim.run_batched(64, &mut rng),
            Err(PopulationError::StarvedSchedule { live })
        );
        prop_assert_eq!(
            sim.try_step_transitions(&mut rng),
            Err(PopulationError::StarvedSchedule { live })
        );
        prop_assert_eq!(witness.next_u64(), rng.next_u64());
    }
}

/// Runs `trials` copies of `k` interactions with 2 crashed agents and
/// histograms the final per-agent state vectors.
fn crashed_run_histogram<S: BatchPairSampler + Clone>(
    sampler: S,
    n: usize,
    k: u64,
    trials: u64,
    seed_base: u64,
) -> HashMap<Vec<u32>, u64> {
    let mut hist: HashMap<Vec<u32>, u64> = HashMap::new();
    for t in 0..trials {
        let mut sim = AgentSimulation::from_inputs(
            approx_majority(),
            &majority_inputs(n),
            sampler.clone(),
        );
        sim.crash_agent(1);
        sim.crash_agent(4);
        let mut rng = seeded_rng(seed_base + t);
        sim.run_batched(k, &mut rng).expect("live edges remain");
        let key: Vec<u32> = sim.agents().iter().map(|s| s.0).collect();
        *hist.entry(key).or_insert(0) += 1;
    }
    hist
}

/// Total-variation distance between two empirical distributions.
fn tv_distance(a: &HashMap<Vec<u32>, u64>, b: &HashMap<Vec<u32>, u64>, trials: u64) -> f64 {
    let mut keys: Vec<&Vec<u32>> = a.keys().chain(b.keys()).collect();
    keys.sort();
    keys.dedup();
    let m = trials as f64;
    keys.iter()
        .map(|k| {
            let pa = a.get(*k).copied().unwrap_or(0) as f64 / m;
            let pb = b.get(*k).copied().unwrap_or(0) as f64 / m;
            (pa - pb).abs()
        })
        .sum::<f64>()
        / 2.0
}

/// Under crashes the masked CSR sampler redraws nothing (its live-edge view
/// pre-conditions every draw) while the edge-list sampler rejects; the two
/// must still agree in distribution over trajectories — per live step, both
/// are uniform over live edges.
#[test]
fn masked_csr_matches_rejection_sampling_in_distribution() {
    let n = 8usize;
    let edges = ring_edges(n as u32);
    let (k, trials) = (6u64, 6_000u64);
    let masked =
        crashed_run_histogram(CsrScheduler::new(n, &edges), n, k, trials, 3_000_000);
    let rejection = crashed_run_histogram(
        EdgeListScheduler::new(n, edges.clone()),
        n,
        k,
        trials,
        11_000_000,
    );
    let tv = tv_distance(&masked, &rejection, trials);
    // Empirical-vs-empirical TV noise at 6000 trials over this support is
    // ≈ 0.05; a masking bug (wrong live-edge set or weighting) shifts whole
    // trajectory probabilities by far more.
    assert!(tv < 0.10, "TV distance {tv:.4} between masked and rejection");
}

/// The masked sampler must also agree with rejection *step for step* on the
/// number of live draws: crashing and un-starving around a cut vertex.
#[test]
fn mask_live_tracks_crash_sequence() {
    let n = 6usize;
    let edges = ring_edges(n as u32);
    let mut sim = AgentSimulation::from_inputs(
        approx_majority(),
        &majority_inputs(n),
        CsrScheduler::new(n, &edges),
    );
    let mut rng = seeded_rng(5);
    sim.run_batched(100, &mut rng).unwrap();
    assert!(sim.crash_agent(0));
    assert!(sim.crash_agent(2));
    sim.run_batched(100, &mut rng).unwrap();
    // Every interaction after the crashes joined two live agents.
    for a in [0u32, 2] {
        assert!(sim.is_crashed(a));
    }
    assert_eq!(sim.steps(), 200);
    // Crash until only a disconnected pair survives: 1 is walled off by the
    // crashed 0 and 2, so live edges vanish even with 3 agents live.
    assert!(sim.crash_agent(4));
    assert_eq!(
        sim.run_batched(1, &mut rng),
        Err(PopulationError::StarvedSchedule { live: 3 })
    );
}
