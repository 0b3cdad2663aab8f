//! E1 — §6: the expected number of interactions until a single leader
//! remains is exactly `(n−1)²`.
//!
//! The paper computes `Σ_{i=2}^{n} C(n,2)/C(i,2) = (n−1)²`. We measure the
//! mean over seeded trials and report the ratio to the closed form; the
//! full timer-dance election (§6.1) is measured alongside, with its Θ(n²)
//! unrest phase.

use pp_bench::{fit_exponent, fmt, mean, print_header};
use pp_core::ensemble::Ensemble;
use pp_core::{seeded_rng, Simulation};
use pp_protocols::LeaderElection;
use pp_random::TimerLeaderElection;

fn main() {
    println!("\nE1: leader election — paper: E[interactions to unique leader] = (n-1)^2\n");
    print_header(
        &["n", "trials", "measured", "(n-1)^2", "ratio", "timer-elec total"],
        &[6, 6, 12, 12, 8, 16],
    );

    let mut ns = Vec::new();
    let mut ts = Vec::new();
    let n_list: &[u64] =
        if pp_bench::smoke() { &[8, 16] } else { &[8, 16, 32, 64, 128, 256] };
    for &n in n_list {
        let trials = if pp_bench::smoke() { 5 } else { (200_000 / (n * n)).clamp(20, 400) };
        // Multi-threaded trials: the printed means are byte-identical at
        // any thread count.
        let times = Ensemble::new(trials, 1000).map(|_trial, rng| {
            let mut sim = Simulation::from_counts(LeaderElection, [((), n)]);
            LeaderElection::run_until_unique(&mut sim, u64::MAX, rng)
                .expect("always converges") as f64
        });
        let measured = mean(&times);
        let expect = ((n - 1) * (n - 1)) as f64;

        // Full §6.1 election with timer marking/retrieval (k = 2; the
        // initialization phase costs O(n^{k+1}) interactions, so large k at
        // large n is prohibitive — exactly the Theorem 9/10 trade-off).
        let timer_trials = if pp_bench::smoke() { 2 } else { trials.min(15) };
        let mut totals = Vec::new();
        let mut rng = seeded_rng(7 + n);
        let election = TimerLeaderElection::new(n as usize, 2);
        for _ in 0..timer_trials {
            let out = election.run(&mut rng, u64::MAX).expect("converges");
            totals.push(out.total_interactions as f64);
        }

        println!(
            "{:>6} {:>6} {:>12} {:>12} {:>8} {:>16}",
            n,
            trials,
            fmt(measured),
            fmt(expect),
            fmt(measured / expect),
            fmt(mean(&totals)),
        );
        ns.push(n as f64);
        ts.push(measured);
    }
    println!(
        "\nfitted exponent of measured time vs n: {:.3} (paper: 2)\n",
        fit_exponent(&ns, &ts)
    );
}
