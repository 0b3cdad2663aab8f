//! Properties of the multi-threaded ensemble executor (`pp_core::ensemble`):
//! the same master seed must produce **byte-identical** `EnsembleReport`
//! JSON at 1, 2, and 8 threads — for the batched complete-graph path and
//! for the fault-injected path — and the mergeable statistics must agree
//! with their single-pass sequential counterparts.

use pp_core::ensemble::{Ensemble, EnsembleReport, LogHistogram, SeedMode, Welford};
use pp_core::faults::{CrashFaults, TransientCorruption};
use pp_core::observe::{MergeProbe, MetricsProbe};
use pp_core::{seeded_rng, split_seed, FnProtocol, Protocol, Simulation};
use proptest::prelude::*;
use rand::Rng;

fn epidemic() -> impl Protocol<State = bool, Input = bool, Output = bool> {
    FnProtocol::new(
        |&b: &bool| b,
        |&q: &bool| q,
        |&p: &bool, &q: &bool| (p || q, p || q),
    )
}

/// Three-state approximate majority (§4-style dynamics): rich enough that
/// the batched path exercises grouped transitions and collision draws.
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

/// The batched complete-graph path at a given thread count.
fn batched_report(master_seed: u64, trials: u64, threads: usize) -> EnsembleReport {
    Ensemble::new(trials, master_seed).with_threads(threads).summarize(|_trial, rng| {
        let mut sim = Simulation::from_counts(approx_majority(), [(1u8, 40), (0u8, 24)]);
        let rep = sim.measure_stabilization_batched(&1u8, 400_000, rng);
        rep.stabilized_at.map(|t| t as f64)
    })
}

/// The fault-injected path (crash burst + corruption burst) at a given
/// thread count; exercises segment aggregation too.
fn faulted_json(master_seed: u64, trials: u64, threads: usize) -> String {
    Ensemble::new(trials, master_seed)
        .with_threads(threads)
        .run_with_faults(
            |_trial| {
                let sim = Simulation::from_counts(epidemic(), [(true, 3), (false, 45)]);
                let plan = (CrashFaults::at(4_000, 4), TransientCorruption::uniform_at(9_000, 6));
                (sim, plan)
            },
            &true,
            80_000,
        )
        .to_json()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn batched_ensemble_json_is_identical_at_1_2_8_threads(
        master_seed in 0u64..10_000,
        trials in 3u64..12,
    ) {
        let base = batched_report(master_seed, trials, 1).to_json();
        prop_assert_eq!(batched_report(master_seed, trials, 2).to_json(), base.clone());
        prop_assert_eq!(batched_report(master_seed, trials, 8).to_json(), base.clone());
    }

    #[test]
    fn faulted_ensemble_json_is_identical_at_1_2_8_threads(
        master_seed in 0u64..10_000,
        trials in 3u64..10,
    ) {
        let base = faulted_json(master_seed, trials, 1);
        prop_assert_eq!(faulted_json(master_seed, trials, 2), base.clone());
        prop_assert_eq!(faulted_json(master_seed, trials, 8), base.clone());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Merged Welford moments agree with the single-pass sequential
    /// computation across random split points. The merge is algebraically
    /// exact but floating-point reassociation drifts by O(n·ε); a relative
    /// bound of 64 ulps (≈ n·ε for these sizes) is the honest contract —
    /// bit-identical ensemble output comes from fixing the fold order, not
    /// from merge being bit-exact at arbitrary splits.
    #[test]
    fn welford_merge_matches_single_pass_at_any_split(
        seed in 0u64..100_000,
        len in 2usize..400,
        split_frac in 0.0f64..1.0,
    ) {
        let mut rng = seeded_rng(seed);
        let xs: Vec<f64> = (0..len).map(|_| rng.gen_range(-1e4..1e4)).collect();
        let split = ((len as f64 * split_frac) as usize).min(len);

        let mut sequential = Welford::new();
        for &x in &xs {
            sequential.push(x);
        }
        let mut left = Welford::new();
        for &x in &xs[..split] {
            left.push(x);
        }
        let mut right = Welford::new();
        for &x in &xs[split..] {
            right.push(x);
        }
        left.merge(right);

        prop_assert_eq!(left.count(), sequential.count());
        // min/max are order-insensitive: exactly equal.
        prop_assert_eq!(left.min(), sequential.min());
        prop_assert_eq!(left.max(), sequential.max());
        let ulps = 64.0 * f64::EPSILON;
        let mean_scale = sequential.mean().abs().max(1.0);
        prop_assert!(
            (left.mean() - sequential.mean()).abs() <= ulps * mean_scale,
            "mean {} vs {}", left.mean(), sequential.mean(),
        );
        let var_scale = sequential.variance().abs().max(1.0);
        prop_assert!(
            (left.variance() - sequential.variance()).abs() <= ulps * var_scale,
            "variance {} vs {}", left.variance(), sequential.variance(),
        );
    }

    /// Histogram merge is associative (and commutative): u64 bucket
    /// addition, no floating point involved.
    #[test]
    fn histogram_merge_is_associative(
        seed in 0u64..100_000,
        len_a in 0usize..50,
        len_b in 0usize..50,
        len_c in 0usize..50,
    ) {
        let mut rng = seeded_rng(seed);
        let mut fill = |len: usize| {
            let mut h = LogHistogram::new();
            for _ in 0..len {
                // Spread across many octaves, including the underflow bucket.
                h.push(rng.gen_range(0.0f64..1e9).powf(rng.gen_range(0.1..2.0)));
            }
            h
        };
        let (a, b, c) = (fill(len_a), fill(len_b), fill(len_c));

        // (a ⊕ b) ⊕ c
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ab_c = ab.clone();
        ab_c.merge(&c);
        // a ⊕ (b ⊕ c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        // b ⊕ a (commutativity)
        let mut ba = b.clone();
        ba.merge(&a);

        prop_assert_eq!(ab_c.underflow(), a_bc.underflow());
        prop_assert_eq!(&ab_c.nonzero(), &a_bc.nonzero());
        prop_assert_eq!(&ab.nonzero(), &ba.nonzero());
        prop_assert_eq!(
            ab_c.total(),
            (len_a + len_b + len_c) as u64
        );
    }
}

#[test]
fn split_seeds_decorrelate_adjacent_masters_and_trials() {
    // Offset seeding gives trial i of master m the same stream as trial
    // i+1 of master m−1; split seeding must not.
    assert_ne!(split_seed(7, 1), split_seed(6, 2));
    assert_ne!(split_seed(7, 0), split_seed(8, 0));
    // And splitting is injective over a healthy range of trials.
    let mut seen: Vec<u64> = (0..10_000).map(|i| split_seed(42, i)).collect();
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(seen.len(), 10_000);
}

#[test]
fn seed_modes_differ_but_both_are_deterministic() {
    let split = Ensemble::new(8, 5).with_threads(2);
    let offset = Ensemble::new(8, 5).with_threads(2).with_seed_mode(SeedMode::Offset);
    assert_ne!(split.trial_seed(1), offset.trial_seed(1));
    assert_eq!(offset.trial_seed(3), 8);
    // Same configuration → same seeds, independent of how often we ask.
    assert_eq!(split.trial_seed(4), split.trial_seed(4));
}

#[test]
fn probe_merging_is_thread_count_invariant_and_sums_counters() {
    let run = |threads: usize| {
        let ensemble = Ensemble::new(10, 11).with_threads(threads);
        let (records, probe) = ensemble.run_probed(
            |_trial| MetricsProbe::new(),
            |_trial, rng, probe| {
                let sim = Simulation::from_counts(epidemic(), [(true, 1), (false, 19)]);
                let mut sim = sim.with_probe(probe);
                let report = sim.measure_stabilization(&true, 30_000, rng);
                let probe = sim.into_probe();
                (report.stabilized_at, probe)
            },
        );
        (records, probe)
    };
    let (records1, probe1) = run(1);
    let (records4, probe4) = run(4);
    assert_eq!(records1, records4);
    assert_eq!(probe1.interactions(), probe4.interactions());
    assert_eq!(probe1.effective_interactions(), probe4.effective_interactions());
    assert_eq!(probe1.rules_by_count(), probe4.rules_by_count());
    // Every trial ran the full horizon: the merged probe saw all of them.
    assert_eq!(probe1.interactions(), 10 * 30_000);
    // The epidemic needs exactly n−1 = 19 effective infections per trial,
    // but (true, true) meetings also count as non-effective; the merged
    // effective count is at least the 19 infections per trial.
    assert!(probe1.effective_interactions() >= 10 * 19);
}

#[test]
fn merged_metrics_probe_occupancy_is_trial_weighted() {
    // Two hand-built probes via the MergeProbe trait directly: a probe that
    // watched span 100 with 5 agents in state 0, merged with one that
    // watched span 300 with 1 agent in state 0, has mean occupancy
    // (5·100 + 1·300) / 400 = 2.0.
    use pp_core::observe::{Probe, Snapshot};
    use pp_core::StateId;
    let mk = |count: u64, span: u64| {
        let mut p = MetricsProbe::new();
        p.on_attach(&Snapshot { step: 0, occupancy: &[count], outputs: &[count] });
        p.on_interaction(&pp_core::InteractionEvent {
            step: span,
            noops_skipped: span - 1,
            before: (StateId(0), StateId(0)),
            after: (StateId(0), StateId(0)),
            outputs_before: (pp_core::OutputId(0), pp_core::OutputId(0)),
            outputs_after: (pp_core::OutputId(0), pp_core::OutputId(0)),
            effective: false,
        });
        p
    };
    let mut a = mk(5, 100);
    let b = mk(1, 300);
    a.merge(b);
    assert_eq!(a.interactions(), 400);
    assert!((a.mean_occupancy(StateId(0)) - 2.0).abs() < 1e-12);
}
