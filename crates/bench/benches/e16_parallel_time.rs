//! E16 — §8's "defining a useful notion of time is a challenge".
//!
//! Interactions happen in parallel in a real flock; the folk conversion in
//! the population-protocol literature is *parallel time = interactions/n*.
//! This bench measures both clocks directly: sequential stabilization
//! interactions divided by n versus synchronous-rounds stabilization
//! (each round is a random maximal matching ≈ n/2 concurrent
//! interactions), for an epidemic and for majority.

use pp_bench::{fmt, mean, print_header};
use pp_core::ensemble::Ensemble;
use pp_core::{FnProtocol, Protocol, Simulation};
use pp_protocols::majority;

fn epidemic() -> impl Protocol<State = bool, Input = bool, Output = bool> + Clone {
    FnProtocol::new(
        |&b: &bool| b,
        |&q: &bool| q,
        |&p: &bool, &q: &bool| (p || q, p || q),
    )
}

fn row<P: Protocol<Output = bool> + Clone>(
    label: &str,
    n: u64,
    horizon: u64,
    mk: impl Fn() -> Simulation<P> + Sync,
    expected: bool,
) {
    let trials = if pp_bench::smoke() { 3u64 } else { 30u64 };
    // Each trial measures both clocks on one RNG stream (sequential first,
    // then rounds); the ensemble runs trials in parallel, so the printed
    // means are the same at any thread count.
    let outcomes = Ensemble::new(trials, 0).map(|_trial, rng| {
        let mut sim = mk();
        let rep = sim.measure_stabilization(&expected, horizon, rng);
        let seq = rep.stabilized_at.expect("sequential converges") as f64;

        let mut sim = mk();
        let max_rounds = 40 * n * (64 - n.leading_zeros() as u64);
        let rounds = sim
            .measure_stabilization_rounds(&expected, max_rounds, rng)
            .expect("rounds-clock converges");
        (seq, rounds as f64)
    });
    let seq: Vec<f64> = outcomes.iter().map(|&(s, _)| s).collect();
    let par: Vec<f64> = outcomes.iter().map(|&(_, r)| r).collect();
    let seq_per_n = mean(&seq) / n as f64;
    let rounds = mean(&par);
    // One round performs n/2 interactions, so rounds ≈ 2·interactions/n if
    // the two clocks agree.
    println!(
        "{:>10} {:>6} {:>14} {:>12} {:>12} {:>10}",
        label,
        n,
        fmt(mean(&seq)),
        fmt(seq_per_n),
        fmt(rounds),
        fmt(rounds / (2.0 * seq_per_n)),
    );
}

fn main() {
    println!("\nE16: §8 parallel time — sequential interactions/n vs synchronous rounds\n");
    print_header(
        &["protocol", "n", "seq inter.", "seq/n", "rounds", "ratio*"],
        &[10, 6, 14, 12, 12, 10],
    );
    println!("(*ratio = rounds / (2·seq/n); ≈ 1 when the clocks agree)\n");

    let epi_ns: &[u64] = if pp_bench::smoke() { &[64] } else { &[64, 256, 1024] };
    for &n in epi_ns {
        // E[T] ≈ n ln n for the epidemic; a 30× margin suffices.
        let horizon = 30 * n * (64 - n.leading_zeros() as u64);
        row(
            "epidemic",
            n,
            horizon,
            || Simulation::from_counts(epidemic(), [(true, 1), (false, n - 1)]),
            true,
        );
    }
    println!();
    let maj_ns: &[u64] = if pp_bench::smoke() { &[32] } else { &[32, 64, 128] };
    for &n in maj_ns {
        // Output distribution is a coupon collector through the leader:
        // E[T] ≈ (n²/2)·ln n; allow a 12× margin.
        let horizon = (6.0 * (n * n) as f64 * (n as f64).ln()) as u64;
        row(
            "majority",
            n,
            horizon,
            || Simulation::from_counts(majority(), [(0usize, n / 2 - 2), (1usize, n / 2 + 2)]),
            true,
        );
    }

    println!("\npaper shape: the two time notions agree up to a small constant, so");
    println!("'interactions/n' is a sound parallel-time proxy for these protocols\n");
}
