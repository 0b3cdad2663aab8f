//! E14 — the §8 energy measure: interactions in which at least one state
//! changes.
//!
//! "If we consider only the number of interactions in which at least one
//! state changes (which might be correlated with the energy required by
//! the computation), then the bounds can be finite even in the stable
//! computation model." This bench measures total vs *effective*
//! interactions over a long horizon: effective counts plateau after
//! convergence, confirming the finite-energy observation.

use pp_bench::{fmt, mean, print_header};
use pp_core::ensemble::Ensemble;
use pp_core::Simulation;
use pp_protocols::{majority, CountThreshold};

fn main() {
    println!("\nE14: §8 energy — total vs effective (state-changing) interactions");
    println!("horizon = 50·n² interactions, well past convergence\n");
    print_header(
        &["protocol", "n", "total", "effective", "eff/n", "stabilized"],
        &[12, 6, 12, 11, 8, 11],
    );
    let n_list: &[u64] = if pp_bench::smoke() { &[32, 64] } else { &[32, 64, 128, 256] };

    for &n in n_list {
        let trials = if pp_bench::smoke() { 3 } else { 20 };
        // Ensemble-parallel trials: statistics identical at any thread count.
        let outcomes = Ensemble::new(trials, 0).map(|_trial, rng| {
            let mut sim =
                Simulation::from_counts(CountThreshold::new(5), [(true, 6), (false, n - 6)]);
            let rep = sim.measure_stabilization(&true, 50 * n * n, rng);
            (sim.effective_steps() as f64, rep.stabilized_at.expect("converges") as f64)
        });
        let eff: Vec<f64> = outcomes.iter().map(|&(e, _)| e).collect();
        let stab: Vec<f64> = outcomes.iter().map(|&(_, s)| s).collect();
        println!(
            "{:>12} {:>6} {:>12} {:>11} {:>8} {:>11}",
            "count-to-5",
            n,
            fmt((50 * n * n) as f64),
            fmt(mean(&eff)),
            fmt(mean(&eff) / n as f64),
            fmt(mean(&stab)),
        );
    }
    println!();
    for &n in n_list {
        let trials = if pp_bench::smoke() { 3 } else { 20 };
        let outcomes = Ensemble::new(trials, 0).map(|_trial, rng| {
            let mut sim =
                Simulation::from_counts(majority(), [(0usize, n / 2 - 1), (1usize, n / 2 + 1)]);
            let rep = sim.measure_stabilization(&true, 50 * n * n, rng);
            (sim.effective_steps() as f64, rep.stabilized_at.expect("converges") as f64)
        });
        let eff: Vec<f64> = outcomes.iter().map(|&(e, _)| e).collect();
        let stab: Vec<f64> = outcomes.iter().map(|&(_, s)| s).collect();
        println!(
            "{:>12} {:>6} {:>12} {:>11} {:>8} {:>11}",
            "majority",
            n,
            fmt((50 * n * n) as f64),
            fmt(mean(&eff)),
            fmt(mean(&eff) / n as f64),
            fmt(mean(&stab)),
        );
    }

    println!("\npaper shape: count-to-5's effective interactions are O(n) — finite energy");
    println!("per agent — while the leader-based majority keeps spending energy on");
    println!("output redistribution encounters long after the verdict is fixed\n");
}
