//! Fault injection (§8): "If an agent dies, say from an exhausted battery,
//! the interactions between the remaining agents are unaffected. Of course,
//! many of the algorithms we describe here would not survive the failure of
//! a single agent, especially those based on leader election."
//!
//! These tests make both halves of that observation concrete.

use population_protocols::core::prelude::*;
use population_protocols::protocols::linear::LinState;
use population_protocols::protocols::{majority, CountThreshold, PhaseClock, Ranking};

fn epidemic() -> impl pp_core::Protocol<State = bool, Input = bool, Output = bool> + Clone {
    FnProtocol::new(
        |&b: &bool| b,
        |&q: &bool| q,
        |&p: &bool, &q: &bool| (p || q, p || q),
    )
}

#[test]
fn epidemic_survives_crashes_of_uninfected_agents() {
    let mut sim = Simulation::from_counts(epidemic(), [(true, 1), (false, 20)]);
    let mut rng = seeded_rng(1);
    // Kill five healthy agents before the epidemic spreads.
    for _ in 0..5 {
        assert!(sim.crash_agent_in_state(&false));
    }
    assert_eq!(sim.population(), 16);
    let rep = sim.measure_stabilization(&true, 100_000, &mut rng);
    assert!(rep.converged(), "epidemic is robust to non-seed crashes");
}

#[test]
fn epidemic_dies_with_its_seed() {
    let mut sim = Simulation::from_counts(epidemic(), [(true, 1), (false, 20)]);
    // Kill the only infected agent before it spreads.
    assert!(sim.crash_agent_in_state(&true));
    let mut rng = seeded_rng(2);
    sim.run(50_000, &mut rng);
    assert_eq!(sim.consensus_output(), Some(&false), "no seed, no alert");
}

#[test]
fn count_to_k_loses_tokens_with_crashed_accumulators() {
    // 5 hot birds; the predicate is true. Crash an agent carrying an
    // accumulated count of 2 before the alert fires: the remaining tokens
    // sum to 3 < 5 and the population stabilizes to the WRONG answer —
    // exactly the fragility §8 warns about.
    let mut sim = Simulation::from_counts(CountThreshold::new(5), [(true, 5), (false, 15)]);
    let mut rng = seeded_rng(3);
    // Run until some agent holds a partial count of exactly 2 (and no
    // alert has fired).
    let mut found = false;
    for _ in 0..100_000 {
        sim.step(&mut rng);
        if sim.count_of_state(&5) > 0 {
            break; // alert fired first; try another seed below
        }
        if sim.count_of_state(&2) > 0 {
            found = true;
            break;
        }
    }
    if !found {
        // Alert fired before any 2-token formed under this seed; the
        // scenario needs a token to kill, so re-run deterministically with
        // another seed where a 2 forms first.
        sim = Simulation::from_counts(CountThreshold::new(5), [(true, 5), (false, 15)]);
        let mut rng2 = seeded_rng(1234);
        loop {
            sim.step(&mut rng2);
            assert_eq!(sim.count_of_state(&5), 0, "seed must form a 2-token before alerting");
            if sim.count_of_state(&2) > 0 {
                break;
            }
        }
    }
    assert!(sim.crash_agent_in_state(&2), "kill the token carrier");
    let rep = sim.measure_stabilization(&false, 400_000, &mut rng);
    assert!(
        rep.converged(),
        "after losing 2 of 5 tokens the population must stabilize to false"
    );
}

#[test]
fn majority_leader_crash_freezes_outputs() {
    // The Lemma 5 majority protocol funnels everything through a unique
    // leader. Crash every leader and the output bits can never change
    // again — stale verdicts persist (the §8 leader-election fragility).
    let mut sim = Simulation::from_counts(majority(), [(0usize, 6), (1usize, 7)]);
    let mut rng = seeded_rng(5);
    sim.run(50, &mut rng); // partial progress; leaders still merging
    // Crash all remaining leaders.
    let leader_states: Vec<LinState> = sim
        .config()
        .support()
        .map(|(id, _)| *sim.runtime().state(id))
        .filter(|s| s.leader)
        .collect();
    let mut crashed = 0u64;
    for s in leader_states {
        while sim.population() > 2 && sim.crash_agent_in_state(&s) {
            crashed += 1;
        }
    }
    assert!(crashed > 0, "some leader must have been crashed");
    // With no leaders, every transition is a no-op: effective steps freeze.
    let before = sim.effective_steps();
    sim.run(20_000, &mut rng);
    assert_eq!(
        sim.effective_steps(),
        before,
        "a leaderless Lemma 5 population is frozen"
    );
}

// ---------------------------------------------------------------------------
// Self-stabilization: recovery from adversarial *initialization* (ISSUE 6).
// The phase clock and the ranking protocol recover from any start by design;
// the paper's exact majority provably does not. Each claim is pinned here.
// ---------------------------------------------------------------------------

/// Folds per-trial phase-clock resync reports into an [`Mttr`] summary,
/// starting every trial from `init` — always in trial order, so the JSON is
/// byte-identical at any thread count.
fn clock_mttr(
    n: u64,
    period: u32,
    init: &AdversarialInit<u32>,
    trials: u64,
    horizon: u64,
    threads: Option<usize>,
) -> Mttr {
    let mut ens = Ensemble::new(trials, 0xC10C * n);
    if let Some(t) = threads {
        ens = ens.with_threads(t);
    }
    let reports = ens.map(|_, rng| {
        let clock = PhaseClock::new(period);
        let mut sim = Simulation::from_counts(clock, [((), n)]);
        sim.apply_adversarial_init(init, rng);
        PhaseClock::measure_resync(&mut sim, horizon, 512, rng)
    });
    let mut mttr = Mttr::new();
    for rep in &reports {
        mttr.absorb(rep);
    }
    mttr
}

#[test]
fn self_stab_phase_clock_resyncs_from_every_init_mode() {
    // Worst-case-enumerated universe: four hours spread evenly around the
    // dial, so every enumerated configuration is a hostile multi-cluster
    // split (small universe keeps the enumeration space tractable).
    let quarters = vec![0u32, 16, 32, 48];
    for n in [64u64, 256] {
        let horizon = if n == 64 { 800_000 } else { 2_000_000 };
        let dial: Vec<u32> = (0..64).collect();
        let modes = [
            ("uniform-random", AdversarialInit::uniform_random(dial)),
            ("flood", AdversarialInit::flood(17u32)),
            (
                "enumerated",
                AdversarialInit::enumerated(
                    quarters.clone(),
                    enumeration_count(quarters.len(), n) / 2,
                ),
            ),
        ];
        for (name, init) in modes {
            let mttr = clock_mttr(n, 64, &init, 3, horizon, None);
            assert_eq!(
                mttr.recovered(),
                mttr.trials(),
                "phase clock must resync from {name} init at n={n}"
            );
        }
    }
}

#[test]
fn self_stab_phase_clock_flood_init_is_already_legal() {
    // A single-hour flood is a *legal* clock configuration: recovery is
    // instant, and the MTTR summary should say so exactly.
    let mttr = clock_mttr(64, 64, &AdversarialInit::flood(9u32), 4, 100_000, None);
    assert_eq!(mttr.recovered(), 4);
    assert_eq!(mttr.mean(), 0.0, "flooded clock never counts as desynchronized");
}

#[test]
fn self_stab_ensemble_mttr_is_byte_identical_across_thread_counts() {
    // The mergeable-MTTR path: one worker vs two must produce the same
    // bytes, because per-trial reports are folded in trial order.
    let dial: Vec<u32> = (0..64).collect();
    let init = AdversarialInit::uniform_random(dial);
    let one = clock_mttr(64, 64, &init, 6, 600_000, Some(1));
    let two = clock_mttr(64, 64, &init, 6, 600_000, Some(2));
    assert_eq!(one.to_json(), two.to_json(), "MTTR must not depend on thread count");
}

#[test]
fn self_stab_ranking_seats_a_permutation_from_uniform_random_init() {
    // Agent engine with synthesized coins: from a uniform scatter over the
    // whole state family, the population must end seated on chairs 1..=n.
    let n = 16u32;
    let proto = Ranking::new(n);
    let universe = proto.universe();
    let init = AdversarialInit::uniform_random(universe);
    for seed in [11u64, 12] {
        let mut sim = AgentSimulation::from_inputs(
            proto,
            &vec![(); n as usize],
            UniformPairScheduler::new(n as usize),
        );
        let mut rng = seeded_rng(seed);
        sim.apply_adversarial_init(&init, &mut rng);
        let rep = Ranking::measure_recovery(&mut sim, 2_000_000, 1_000, &mut rng);
        assert!(rep.recovered(), "ranking must recover under seed {seed}");
        assert!(Ranking::is_permutation(&sim), "final configuration must be a permutation");
    }
}

#[test]
fn self_stab_exact_majority_stays_wrong_after_flood_init() {
    // Regression pin for the negative result: flooding the Lemma 5 majority
    // protocol with a leaderless false-verdict state freezes the population
    // on the wrong answer — it has no self-stabilization to offer.
    let ens = Ensemble::new(4, 77);
    let report = ens.run_with_faults(
        |_| {
            let sim = Simulation::from_counts(majority(), [(0usize, 6), (1usize, 7)]);
            let plan = AdversarialInit::flood(LinState::new(false, false, 0));
            (sim, plan)
        },
        &true, // 7 > 6: the uncorrupted answer is "more ones"
        200_000,
    );
    assert_eq!(report.recovery_rate(), 0.0, "exact majority must NOT recover");
    let mttr = report.final_mttr();
    assert_eq!(mttr.recovered(), 0);
    assert_eq!(mttr.trials(), 4);
    for run in report.runs() {
        assert_eq!(
            run.final_segment().residual_error,
            13,
            "every agent is stuck on the flooded false verdict"
        );
    }
}

#[test]
fn effective_steps_lag_total_steps() {
    let mut sim = Simulation::from_counts(epidemic(), [(true, 1), (false, 31)]);
    let mut rng = seeded_rng(8);
    sim.run(100_000, &mut rng);
    // After convergence all interactions are no-ops: the epidemic needs at
    // most n−1 = 31 effective interactions ever.
    assert!(sim.effective_steps() <= 31);
    assert_eq!(sim.steps(), 100_000);
    assert_eq!(sim.consensus_output(), Some(&true));
}
