//! Transparency properties of the tracing layer: attaching a tracer must
//! never change what the simulation computes. Tracers read the clock but
//! never the RNG, so same seed ⇒ identical reports *and* an identical RNG
//! stream afterward — whether the run carries the default [`NoTracer`], an
//! explicit [`NoTracer`], or a live [`SpanStats`] — on every execution
//! path: sequential steps, leaps, the batched engine, ensemble fan-out,
//! and faulted runs. Plus: [`SpanStats`] merge is exact on counters and
//! folding per-trial tracers in trial order is thread-count invariant.

use pp_core::agent_batch::EPOCH_EDGES;
use pp_core::scheduler::UniformPairScheduler;
use pp_core::{
    seeded_rng, AgentSimulation, Ensemble, FnProtocol, NoTracer, Protocol, Simulation, SpanKind,
    SpanStats, StabilizationReport, TransientCorruption,
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
/// set than the epidemic, so batched grouping is exercised.
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

/// The deterministic projection of a [`SpanStats`]: everything except
/// wall-clock self-times — counters for every kind, plus the exact Welford
/// moments for `kinds_with_times` (kinds populated only by synthetic
/// [`SpanStats::record`], whose fold-left merge is bitwise reproducible).
fn projection(s: &SpanStats, kinds_with_times: &[SpanKind]) -> Vec<(u64, u64, u64, [u64; 4])> {
    SpanKind::ALL
        .iter()
        .map(|&k| {
            let moments = if kinds_with_times.contains(&k) {
                [
                    s.self_ns(k).mean().to_bits(),
                    s.self_ns(k).std_dev().to_bits(),
                    s.self_ns(k).min().to_bits(),
                    s.self_ns(k).max().to_bits(),
                ]
            } else {
                [0; 4]
            };
            (s.count(k), s.items(k), s.instants(k), moments)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn count_engine_step_path_is_tracer_transparent(
        seed in 0u64..1_000,
        ones in 1u64..24,
        zeros in 1u64..24,
        horizon in 100u64..5_000,
    ) {
        type Outcome = Result<(StabilizationReport, u64, u64, [u64; 4]), TestCaseError>;
        let run = |traced: bool| -> Outcome {
            let init = [(1u8, ones), (0u8, zeros)];
            let expected = if ones > zeros { 1u8 } else { 0u8 };
            let mut rng = seeded_rng(seed);
            if traced {
                let mut sim = Simulation::from_counts(approx_majority(), init)
                    .with_tracer(SpanStats::new());
                let rep = sim.measure_stabilization(&expected, horizon, &mut rng);
                // The step path wraps the whole horizon loop in one
                // scheduler_draw span covering `horizon` draws.
                prop_assert_eq!(sim.tracer().count(SpanKind::SchedulerDraw), 1);
                prop_assert_eq!(sim.tracer().items(SpanKind::SchedulerDraw), horizon);
                Ok((rep, sim.steps(), sim.effective_steps(), drain(&mut rng)))
            } else {
                let mut sim = Simulation::from_counts(approx_majority(), init)
                    .with_tracer(NoTracer);
                let rep = sim.measure_stabilization(&expected, horizon, &mut rng);
                Ok((rep, sim.steps(), sim.effective_steps(), drain(&mut rng)))
            }
        };
        prop_assert_eq!(run(false)?, run(true)?);
    }

    #[test]
    fn count_engine_leap_path_is_tracer_transparent(
        seed in 0u64..1_000,
        n in 4u64..64,
    ) {
        let base = {
            let mut sim = Simulation::from_counts(epidemic(), [(true, 1), (false, n - 1)]);
            let mut rng = seeded_rng(seed);
            let t = sim.run_to_quiescence(100_000, &mut rng);
            (t, sim.steps(), sim.effective_steps(), drain(&mut rng))
        };
        let traced = {
            let mut sim = Simulation::from_counts(epidemic(), [(true, 1), (false, n - 1)])
                .with_tracer(SpanStats::new());
            let mut rng = seeded_rng(seed);
            let t = sim.run_to_quiescence(100_000, &mut rng);
            prop_assert!(sim.tracer().count(SpanKind::SchedulerDraw) > 0);
            (t, sim.steps(), sim.effective_steps(), drain(&mut rng))
        };
        prop_assert_eq!(base, traced);
    }

    #[test]
    fn batched_path_is_tracer_transparent(
        seed in 0u64..1_000,
        ones in 8u64..64,
        zeros in 8u64..64,
        horizon in 500u64..8_000,
    ) {
        let init = [(1u8, ones), (0u8, zeros)];
        let expected = if ones > zeros { 1u8 } else { 0u8 };
        let base = {
            let mut sim = Simulation::from_counts(approx_majority(), init);
            let mut rng = seeded_rng(seed);
            let rep = sim.measure_stabilization_batched(&expected, horizon, &mut rng);
            (rep, sim.steps(), sim.effective_steps(), drain(&mut rng))
        };
        let traced = {
            let mut sim = Simulation::from_counts(approx_majority(), init)
                .with_tracer(SpanStats::new());
            let mut rng = seeded_rng(seed);
            let rep = sim.measure_stabilization_batched(&expected, horizon, &mut rng);
            // Batched windows emit paired sample/apply spans.
            prop_assert_eq!(
                sim.tracer().count(SpanKind::BatchSample),
                sim.tracer().count(SpanKind::BatchApply)
            );
            (rep, sim.steps(), sim.effective_steps(), drain(&mut rng))
        };
        prop_assert_eq!(base, traced);
    }

    #[test]
    fn agent_engine_is_tracer_transparent(
        seed in 0u64..1_000,
        n in 4usize..48,
        horizon in 100u64..10_000,
    ) {
        let inputs: Vec<bool> = (0..n).map(|i| i == 0).collect();
        let base = {
            let mut sim = AgentSimulation::from_inputs(
                epidemic(), &inputs, UniformPairScheduler::new(n));
            let mut rng = seeded_rng(seed);
            let rep = sim.measure_stabilization(&true, horizon, &mut rng);
            (rep, sim.steps(), sim.effective_steps(), drain(&mut rng))
        };
        let traced = {
            let mut sim = AgentSimulation::from_inputs(
                epidemic(), &inputs, UniformPairScheduler::new(n))
                .with_tracer(SpanStats::new());
            let mut rng = seeded_rng(seed);
            let rep = sim.measure_stabilization(&true, horizon, &mut rng);
            // One sample and one apply span per batch of at most
            // EPOCH_EDGES draws; between them they cover the horizon.
            let spans = sim.tracer();
            let batches = horizon.div_ceil(EPOCH_EDGES as u64);
            for kind in [SpanKind::BatchSample, SpanKind::BatchApply] {
                prop_assert_eq!(spans.count(kind), batches);
                prop_assert_eq!(spans.items(kind), horizon);
            }
            prop_assert_eq!(spans.count(SpanKind::SchedulerDraw), 0);
            (rep, sim.steps(), sim.effective_steps(), drain(&mut rng))
        };
        prop_assert_eq!(base, traced);
    }

    #[test]
    fn faulted_runs_are_tracer_transparent(
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
        let traced = {
            let mut sim = Simulation::from_counts(epidemic(), [(true, 1), (false, n - 1)])
                .with_tracer(SpanStats::new());
            let mut plan = TransientCorruption::<bool>::uniform_at(burst, corruptions);
            let mut rng = seeded_rng(seed);
            let rep = sim.run_with_faults(&mut plan, &true, horizon, &mut rng);
            // The burst surfaced as one instant event carrying its tally.
            prop_assert_eq!(sim.tracer().instants(SpanKind::FaultBurst), 1);
            prop_assert_eq!(sim.tracer().items(SpanKind::FaultBurst), corruptions);
            (rep, sim.steps(), drain(&mut rng))
        };
        prop_assert_eq!(base, traced);
    }

    #[test]
    fn ensemble_map_traced_matches_map_at_any_thread_count(
        master in 0u64..1_000,
        trials in 1u64..12,
        n in 4u64..32,
    ) {
        let horizon = 2_000;
        let run = |sim_seed: u64, rng: &mut rand::rngs::StdRng| {
            let mut sim = Simulation::from_counts(
                epidemic(), [(true, 1), (false, n - 1 + sim_seed % 3)]);
            let rep = sim.measure_stabilization(&true, horizon, rng);
            (rep, sim.steps(), drain(rng))
        };
        let plain = Ensemble::new(trials, master).with_threads(1).map(|i, rng| run(i, rng));
        for threads in [1usize, 2, 8] {
            let ens = Ensemble::new(trials, master).with_threads(threads);
            let (results, tracers) =
                ens.map_traced(|_| SpanStats::new(), |i, rng, _tr| run(i, rng));
            prop_assert_eq!(&results, &plain,
                "tracer fan-out changed results at {} threads", threads);
            // One trial span per trial, reassembled in trial order.
            prop_assert_eq!(tracers.len() as u64, trials);
            for t in &tracers {
                prop_assert_eq!(t.count(SpanKind::Trial), 1);
            }
        }
    }

    #[test]
    fn span_stats_fold_is_thread_count_invariant(
        master in 0u64..1_000,
        trials in 1u64..16,
    ) {
        // Per-trial tracers carry synthetic, trial-determined spans; folding
        // them in trial order must give bitwise-identical moments no matter
        // how many worker threads produced them.
        let fixture = |i: u64, tr: &mut SpanStats| {
            tr.record(SpanKind::BatchSample, 100 + 13 * i, i);
            tr.record(SpanKind::BatchApply, 7 * i + 1, 2 * i);
            if i.is_multiple_of(2) {
                tr.instant(SpanKind::FaultBurst, i);
            }
            i
        };
        use pp_core::Tracer as _;
        let mut folded = Vec::new();
        for threads in [1usize, 2, 8] {
            let ens = Ensemble::new(trials, master).with_threads(threads);
            let (results, tracers) = ens.map_traced(
                |_| SpanStats::new(),
                |i, _rng, tr| fixture(i, tr),
            );
            prop_assert_eq!(results, (0..trials).collect::<Vec<_>>());
            let mut acc = SpanStats::new();
            for t in &tracers {
                acc.merge(t);
            }
            folded.push(projection(&acc, &[SpanKind::BatchSample, SpanKind::BatchApply]));
        }
        prop_assert_eq!(&folded[0], &folded[1], "1 vs 2 threads");
        prop_assert_eq!(&folded[0], &folded[2], "1 vs 8 threads");
    }

    #[test]
    fn span_stats_merge_counters_are_associative(
        a_len in 0u64..8, a_seed in 1u64..100_000,
        b_len in 0u64..8, b_seed in 1u64..100_000,
        c_len in 0u64..8, c_seed in 1u64..100_000,
    ) {
        // The vendored proptest has no collection strategies; derive each
        // part's span durations from a (length, seed) pair instead.
        let build = |len: u64, seed: u64| {
            let mut s = SpanStats::new();
            for j in 0..len {
                s.record(SpanKind::SchedulerDraw, 1 + (seed * (j + 1)) % 100_000, j);
            }
            s
        };
        let (a, b, c) = (build(a_len, a_seed), build(b_len, b_seed), build(c_len, c_seed));
        // (a ⊔ b) ⊔ c
        let mut left = SpanStats::new();
        left.merge(&a);
        left.merge(&b);
        left.merge(&c);
        // a ⊔ (b ⊔ c)
        let mut bc = SpanStats::new();
        bc.merge(&b);
        bc.merge(&c);
        let mut right = SpanStats::new();
        right.merge(&a);
        right.merge(&bc);
        let k = SpanKind::SchedulerDraw;
        prop_assert_eq!(left.count(k), right.count(k));
        prop_assert_eq!(left.items(k), right.items(k));
        prop_assert_eq!(left.self_ns(k).count(), right.self_ns(k).count());
        // Welford moments are associative up to rounding.
        if left.count(k) > 0 {
            prop_assert!((left.self_ns(k).mean() - right.self_ns(k).mean()).abs()
                < 1e-6 * left.self_ns(k).mean().abs().max(1.0));
            prop_assert_eq!(left.self_ns(k).min(), right.self_ns(k).min());
            prop_assert_eq!(left.self_ns(k).max(), right.self_ns(k).max());
        }
    }
}
