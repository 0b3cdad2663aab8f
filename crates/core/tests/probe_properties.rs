//! Transparency properties of the observability layer: attaching a probe
//! must never change what the simulation computes. Same seed ⇒ identical
//! reports *and* an identical RNG stream afterward (probes never draw
//! randomness), whether the run carries the default [`NoProbe`], an
//! explicit [`NoProbe`], or a live [`MetricsProbe`] — on both engines and
//! on every execution path (sequential steps, leaps, parallel rounds,
//! batched windows, faulted runs).

use pp_core::observe::{ConvergenceProbe, MetricsProbe, NoProbe};
use pp_core::scheduler::UniformPairScheduler;
use pp_core::{
    seeded_rng, AgentSimulation, FnProtocol, Protocol, Simulation, StabilizationReport,
    TransientCorruption,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::RngCore;

fn epidemic() -> impl Protocol<State = bool, Input = bool, Output = bool> {
    FnProtocol::new(
        |&b: &bool| b,
        |&q: &bool| q,
        |&p: &bool, &q: &bool| (p || q, p || q),
    )
}

/// Three-state approximate majority (Angluin–Aspnes–Eisenstat): richer rule
/// set than the epidemic, so rule/occupancy bookkeeping is exercised.
fn approx_majority() -> impl Protocol<State = u8, Input = u8, Output = u8> {
    // 0 = zero, 1 = one, 2 = blank.
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

/// Drains a few values from the RNG so stream identity after the run is
/// checked, not just the run's outcome.
fn drain(rng: &mut impl RngCore) -> [u64; 4] {
    [rng.next_u64(), rng.next_u64(), rng.next_u64(), rng.next_u64()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn count_engine_step_path_is_probe_transparent(
        seed in 0u64..1_000,
        ones in 1u64..24,
        zeros in 1u64..24,
        horizon in 100u64..5_000,
    ) {
        type Outcome = Result<(StabilizationReport, u64, u64, [u64; 4]), TestCaseError>;
        let run = |probe: bool| -> Outcome {
            let init = [(1u8, ones), (0u8, zeros)];
            let expected = if ones > zeros { 1u8 } else { 0u8 };
            let mut rng = seeded_rng(seed);
            if probe {
                let mut sim = Simulation::from_counts(approx_majority(), init)
                    .with_probe(MetricsProbe::new());
                let rep = sim.measure_stabilization(&expected, horizon, &mut rng);
                // The probe's own accounting agrees with the engine's.
                prop_assert_eq!(sim.probe().interactions(), sim.steps());
                prop_assert_eq!(
                    sim.probe().effective_interactions(),
                    sim.effective_steps()
                );
                Ok((rep, sim.steps(), sim.effective_steps(), drain(&mut rng)))
            } else {
                let mut sim = Simulation::from_counts(approx_majority(), init);
                let rep = sim.measure_stabilization(&expected, horizon, &mut rng);
                Ok((rep, sim.steps(), sim.effective_steps(), drain(&mut rng)))
            }
        };
        prop_assert_eq!(run(false)?, run(true)?);
    }

    #[test]
    fn count_engine_batched_path_is_probe_transparent(
        seed in 0u64..1_000,
        ones in 1u64..400,
        zeros in 1u64..400,
        horizon in 100u64..20_000,
    ) {
        type Outcome = Result<(StabilizationReport, u64, u64, [u64; 4]), TestCaseError>;
        let run = |probe: bool| -> Outcome {
            let init = [(1u8, ones), (0u8, zeros)];
            let expected = if ones > zeros { 1u8 } else { 0u8 };
            let mut rng = seeded_rng(seed);
            if probe {
                let mut sim = Simulation::from_counts(approx_majority(), init)
                    .with_probe(MetricsProbe::new());
                let rep = sim.measure_stabilization_batched(&expected, horizon, &mut rng);
                // Every fresh pair and every collision of every window
                // reached the probe.
                prop_assert_eq!(sim.probe().interactions(), sim.steps());
                prop_assert_eq!(
                    sim.probe().effective_interactions(),
                    sim.effective_steps()
                );
                Ok((rep, sim.steps(), sim.effective_steps(), drain(&mut rng)))
            } else {
                let mut sim = Simulation::from_counts(approx_majority(), init);
                let rep = sim.measure_stabilization_batched(&expected, horizon, &mut rng);
                Ok((rep, sim.steps(), sim.effective_steps(), drain(&mut rng)))
            }
        };
        prop_assert_eq!(run(false)?, run(true)?);
    }

    #[test]
    fn count_engine_leap_path_is_probe_transparent(
        seed in 0u64..1_000,
        n in 4u64..64,
    ) {
        let base = {
            let mut sim = Simulation::from_counts(epidemic(), [(true, 1), (false, n - 1)]);
            let mut rng = seeded_rng(seed);
            let t = sim.run_to_quiescence(100_000, &mut rng);
            (t, sim.steps(), sim.effective_steps(), drain(&mut rng))
        };
        let probed = {
            let mut sim = Simulation::from_counts(epidemic(), [(true, 1), (false, n - 1)])
                .with_probe(MetricsProbe::new());
            let mut rng = seeded_rng(seed);
            let t = sim.run_to_quiescence(100_000, &mut rng);
            prop_assert_eq!(sim.probe().interactions(), sim.steps());
            prop_assert_eq!(sim.probe().effective_interactions(), sim.effective_steps());
            (t, sim.steps(), sim.effective_steps(), drain(&mut rng))
        };
        prop_assert_eq!(base, probed);
    }

    #[test]
    fn count_engine_parallel_path_is_probe_transparent(
        seed in 0u64..1_000,
        n in 4u64..128,
        rounds in 1u64..60,
    ) {
        let base = {
            let mut sim = Simulation::from_counts(epidemic(), [(true, 1), (false, n - 1)]);
            let mut rng = seeded_rng(seed);
            let r = sim.measure_stabilization_rounds(&true, rounds, &mut rng);
            (r, sim.steps(), sim.effective_steps(), drain(&mut rng))
        };
        let probed = {
            let mut sim = Simulation::from_counts(epidemic(), [(true, 1), (false, n - 1)])
                .with_probe(MetricsProbe::new());
            let mut rng = seeded_rng(seed);
            let r = sim.measure_stabilization_rounds(&true, rounds, &mut rng);
            prop_assert_eq!(sim.probe().interactions(), sim.steps());
            (r, sim.steps(), sim.effective_steps(), drain(&mut rng))
        };
        prop_assert_eq!(base, probed);
    }

    #[test]
    fn agent_engine_is_probe_transparent(
        seed in 0u64..1_000,
        n in 4usize..48,
        horizon in 100u64..4_000,
    ) {
        let inputs: Vec<bool> = (0..n).map(|i| i == 0).collect();
        let base = {
            let mut sim = AgentSimulation::from_inputs(
                epidemic(), &inputs, UniformPairScheduler::new(n));
            let mut rng = seeded_rng(seed);
            let rep = sim.measure_stabilization(&true, horizon, &mut rng);
            (rep, sim.steps(), sim.effective_steps(), drain(&mut rng))
        };
        let probed = {
            let mut sim = AgentSimulation::from_inputs(
                epidemic(), &inputs, UniformPairScheduler::new(n))
                .with_probe(MetricsProbe::new());
            let mut rng = seeded_rng(seed);
            let rep = sim.measure_stabilization(&true, horizon, &mut rng);
            prop_assert_eq!(sim.probe().interactions(), sim.steps());
            prop_assert_eq!(sim.probe().effective_interactions(), sim.effective_steps());
            (rep, sim.steps(), sim.effective_steps(), drain(&mut rng))
        };
        prop_assert_eq!(base, probed);
    }

    #[test]
    fn faulted_runs_are_probe_transparent(
        seed in 0u64..1_000,
        n in 8u64..64,
        burst in 1u64..2_000,
        corruptions in 1u64..6,
    ) {
        let horizon = 4_000;
        let base = {
            let mut sim = Simulation::from_counts(epidemic(), [(true, 1), (false, n - 1)]);
            let mut plan = TransientCorruption::<bool>::uniform_at(burst, corruptions);
            let mut rng = seeded_rng(seed);
            let rep = sim.run_with_faults(&mut plan, &true, horizon, &mut rng);
            (rep, sim.steps(), drain(&mut rng))
        };
        let probed = {
            let mut sim = Simulation::from_counts(epidemic(), [(true, 1), (false, n - 1)])
                .with_probe(MetricsProbe::new());
            let mut plan = TransientCorruption::<bool>::uniform_at(burst, corruptions);
            let mut rng = seeded_rng(seed);
            let rep = sim.run_with_faults(&mut plan, &true, horizon, &mut rng);
            // The probe saw the burst and its fault tally.
            prop_assert_eq!(sim.probe().faults(), (1, corruptions));
            (rep, sim.steps(), drain(&mut rng))
        };
        prop_assert_eq!(base, probed);
    }

    #[test]
    fn explicit_noprobe_is_identity(
        seed in 0u64..1_000,
        n in 4u64..64,
        horizon in 100u64..3_000,
    ) {
        let base = {
            let mut sim = Simulation::from_counts(epidemic(), [(true, 1), (false, n - 1)]);
            let mut rng = seeded_rng(seed);
            let rep = sim.measure_stabilization(&true, horizon, &mut rng);
            (rep, sim.steps(), drain(&mut rng))
        };
        let probed = {
            let mut sim = Simulation::from_counts(epidemic(), [(true, 1), (false, n - 1)])
                .with_probe(NoProbe);
            let mut rng = seeded_rng(seed);
            let rep = sim.measure_stabilization(&true, horizon, &mut rng);
            (rep, sim.steps(), drain(&mut rng))
        };
        prop_assert_eq!(base, probed);
    }

    #[test]
    fn convergence_probe_matches_measure_stabilization(
        seed in 0u64..1_000,
        ones in 1u64..20,
        zeros in 1u64..20,
        horizon in 100u64..5_000,
    ) {
        // The online tracker must reproduce the retrospective measurement.
        let expected = if ones > zeros { 1u8 } else { 0u8 };
        let mut sim =
            Simulation::from_counts(approx_majority(), [(1u8, ones), (0u8, zeros)]);
        let out = sim.output_id(&expected);
        let mut sim = sim.with_probe(ConvergenceProbe::for_output(out));
        let mut rng = seeded_rng(seed);
        let rep = sim.measure_stabilization(&expected, horizon, &mut rng);
        prop_assert_eq!(sim.probe().stabilized_at(), rep.stabilized_at);
        prop_assert_eq!(sim.probe().converged(), rep.converged());
    }
}
