//! E13 (ablation, beyond the paper) — what the Lemma 5 construction buys.
//!
//! The paper's majority is exact and generalizes to every Presburger
//! predicate, at the cost of a leader bottleneck: Θ(n² log n). The 3-state
//! approximate-majority protocol (Angluin–Aspnes–Eisenstat 2007) is
//! exponentially faster but errs. This bench quantifies both sides:
//!
//! * speed: stabilization interactions across an n sweep;
//! * correctness: the 3-state protocol's error probability computed
//!   **exactly** from the configuration Markov chain (`pp-analysis`),
//!   no sampling.

use pp_analysis::MarkovAnalysis;
use pp_bench::{fit_exponent, fmt, mean, print_header};
use pp_core::ensemble::Ensemble;
use pp_core::Simulation;
use pp_protocols::ext::ApproximateMajority;
use pp_protocols::majority;

fn main() {
    println!("\nE13a: speed — exact (Lemma 5) vs 3-state approximate majority");
    println!("60/40 split, mean stabilization interactions\n");
    print_header(&["n", "exact", "approx", "speedup"], &[6, 12, 12, 9]);

    let mut ns = Vec::new();
    let mut exact_ts = Vec::new();
    let mut approx_ts = Vec::new();
    let n_list: &[u64] = if pp_bench::smoke() { &[20, 40] } else { &[20, 40, 80, 160, 320] };
    for &n in n_list {
        let ones = n * 3 / 5;
        let zeros = n - ones;
        let trials = if pp_bench::smoke() { 5 } else { (200_000 / (n * n)).clamp(10, 60) };
        // Both protocols share trial `i`'s RNG stream (exact first, then
        // approximate); the ensemble runs whole trials in parallel, so the
        // printed means are the same at any thread count.
        let outcomes = Ensemble::new(trials, 0).map(|_trial, rng| {
            let mut sim = Simulation::from_counts(majority(), [(0usize, zeros), (1usize, ones)]);
            let rep = sim.measure_stabilization(&true, 2000 * n * n, rng);
            let exact = rep.stabilized_at.expect("exact converges") as f64;

            let mut sim =
                Simulation::from_counts(ApproximateMajority, [(false, zeros), (true, ones)]);
            let rep = sim.measure_stabilization(&true, 2000 * n * n, rng);
            (exact, rep.stabilized_at.map(|t| t as f64))
        });
        let ex: Vec<f64> = outcomes.iter().map(|&(e, _)| e).collect();
        let ap: Vec<f64> = outcomes.iter().filter_map(|&(_, a)| a).collect();
        let (e, a) = (mean(&ex), mean(&ap));
        println!("{:>6} {:>12} {:>12} {:>9}", n, fmt(e), fmt(a), fmt(e / a));
        ns.push(n as f64);
        exact_ts.push(e);
        approx_ts.push(a);
    }
    println!(
        "\nfitted exponents: exact {:.2} (Θ(n² log n)), approx {:.2} (Θ(n log n))\n",
        fit_exponent(&ns, &exact_ts),
        fit_exponent(&ns, &approx_ts)
    );

    println!("E13b: exact error probability of the 3-state protocol (Markov chain)\n");
    print_header(&["n", "ones", "zeros", "P[wrong verdict]"], &[5, 6, 6, 17]);
    let splits: &[(u64, u64)] = if pp_bench::smoke() {
        &[(3, 2), (4, 3)]
    } else {
        &[(3, 2), (4, 3), (5, 4), (6, 3), (7, 5), (8, 4)]
    };
    for &(ones, zeros) in splits {
        let m = MarkovAnalysis::analyze(ApproximateMajority, [(true, ones), (false, zeros)]);
        let probs = m.commit_probabilities();
        // Wrong classes: committed histograms whose consensus is not "true".
        let mut wrong = 0.0;
        for (cls, p) in m.classes().iter().zip(&probs) {
            let all_true = cls.len() == 1 && cls[0].0;
            if !all_true {
                wrong += p;
            }
        }
        println!("{:>5} {:>6} {:>6} {:>17}", ones + zeros, ones, zeros, fmt(wrong));
    }
    println!("\nablation verdict: the paper's construction pays ~n extra time for");
    println!("exactness on every margin; the 3-state shortcut errs on thin margins\n");
}
