//! E19 — throughput of the batched engine vs sequential stepping.
//!
//! Not a paper claim: this table measures what the Θ(√n) batch engine
//! (`Simulation::run_batched`) buys over the one-draw-per-interaction
//! `step` path on the e12 majority workload, across a population sweep.
//! The sequential cost per interaction is O(|Q|) and independent of `n`;
//! the batched cost is amortized over collision-free runs of expected
//! length ≈ 0.63·√n, so the advantage grows with the population.
//!
//! Each row reports amortized nanoseconds per interaction plus, for the
//! batched rows, the speedup against the sequential measurement at the
//! same `n`. Results land in `BENCH_e19_batched_throughput.json`.
//!
//! The `crossover_step` / `crossover_windows` rows measure the
//! service-size regime instead: a fresh simulation per run (construction,
//! and for windows the run-length table, included), `K_CROSS`
//! interactions, best of `REPS` runs, for exact and approximate majority
//! at n ∈ {10, 32, 100, 316, 1000}. They locate the population below which
//! a window costs more than the interactions it covers;
//! `pp_core::spec::BATCHED_MIN_POPULATION` cites them.

use std::time::Instant;

use pp_bench::{fmt, print_header, BenchReport};
use pp_core::{seeded_rng, Protocol, Simulation};
use pp_protocols::{majority, ApproximateMajority};

/// Interactions per crossover run.
const K_CROSS: u64 = 200_000;
/// Crossover runs per cell; the best is reported.
const REPS: usize = 7;

/// Amortized ns/interaction for `k` sequential steps (after `k/4` warmup).
fn time_steps(n: u64, k: u64) -> f64 {
    let mut sim = Simulation::from_counts(majority(), [(0usize, n / 2), (1usize, n / 2 + 1)]);
    let mut rng = seeded_rng(1);
    sim.run(k / 4, &mut rng);
    let start = Instant::now();
    sim.run(k, &mut rng);
    start.elapsed().as_nanos() as f64 / k as f64
}

/// Amortized ns/interaction for `k` batched interactions (after `k/4`
/// warmup, which also interns the reachable states and builds the
/// collision-free run-length table).
fn time_batched(n: u64, k: u64) -> f64 {
    let mut sim = Simulation::from_counts(majority(), [(0usize, n / 2), (1usize, n / 2 + 1)]);
    let mut rng = seeded_rng(2);
    sim.run_batched(k / 4, &mut rng);
    let start = Instant::now();
    sim.run_batched(k, &mut rng);
    start.elapsed().as_nanos() as f64 / k as f64
}

/// Best-of-`reps` ns/interaction for `k` interactions of a fresh
/// simulation of `protocol` on `pairs`, stepped or on windows.
fn time_fresh<P: Protocol + Clone>(
    protocol: &P,
    pairs: &[(P::Input, u64)],
    windows: bool,
    k: u64,
    reps: usize,
) -> f64 {
    (0..reps)
        .map(|rep| {
            let mut rng = seeded_rng(rep as u64);
            let start = Instant::now();
            let mut sim = Simulation::from_counts(protocol.clone(), pairs.iter().cloned());
            if windows {
                sim.run_batched(k, &mut rng);
            } else {
                sim.run(k, &mut rng);
            }
            start.elapsed().as_nanos() as f64 / k as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// A `crossover_step` and a `crossover_windows` row (the latter with the
/// step/windows speedup) of `name` at population `n`.
fn crossover_rows<P: Protocol + Clone>(
    report: &mut BenchReport,
    name: &str,
    protocol: &P,
    pairs: &[(P::Input, u64)],
    (k, reps): (u64, usize),
) {
    let n: u64 = pairs.iter().map(|(_, c)| c).sum();
    let step = time_fresh(protocol, pairs, false, k, reps);
    let win = time_fresh(protocol, pairs, true, k, reps);
    let speedup = step / win;
    for (case, ns) in [("crossover_step", step), ("crossover_windows", win)] {
        let windows = case == "crossover_windows";
        let shown = if windows { fmt(speedup) } else { String::new() };
        println!("{case:>18} {name:>22} {n:>6} {:>14} {shown:>8}", fmt(ns));
        let mut row: Vec<(&str, pp_bench::JsonValue)> = vec![
            ("case", case.into()),
            ("protocol", name.into()),
            ("n", n.into()),
            ("ns_per_step", ns.into()),
        ];
        if windows {
            row.push(("speedup", speedup.into()));
        }
        report.push_row(row);
    }
}

fn main() {
    println!("\nE19: batched vs sequential throughput (majority workload)\n");
    let smoke = pp_bench::smoke();
    // Interaction budgets: the sequential engine is O(1) in n, so a flat
    // budget suffices; the batched engine needs enough interactions to
    // amortize over many batches even at n = 10⁸ (cap = 10⁴).
    let (k_seq, k_bat): (u64, u64) = if smoke { (20_000, 20_000) } else { (2_000_000, 4_000_000) };
    let ns_list: &[u64] = if smoke {
        &[1_000]
    } else {
        &[1_000, 10_000, 100_000, 1_000_000, 10_000_000, 100_000_000]
    };
    let mut report = BenchReport::new("e19_batched_throughput");
    report.set_meta("k_seq", k_seq);
    report.set_meta("k_batched", k_bat);
    print_header(&["case", "n", "ns/interaction", "speedup"], &[20, 12, 14, 8]);
    for &n in ns_list {
        let seq = time_steps(n, k_seq);
        println!("{:>20} {:>12} {:>14} {:>8}", "majority_step", n, fmt(seq), "");
        report.push_row([
            ("case", "majority_step".into()),
            ("n", n.into()),
            ("ns_per_step", seq.into()),
        ] as [(&str, pp_bench::JsonValue); 3]);

        let bat = time_batched(n, k_bat);
        let speedup = seq / bat;
        println!("{:>20} {:>12} {:>14} {:>8}", "majority_batched", n, fmt(bat), fmt(speedup));
        report.push_row([
            ("case", "majority_batched".into()),
            ("n", n.into()),
            ("ns_per_step", bat.into()),
            ("speedup", speedup.into()),
        ] as [(&str, pp_bench::JsonValue); 4]);
    }

    println!("\nCrossover: fresh simulation, best of {REPS} runs\n");
    print_header(
        &["case", "protocol", "n", "ns/interaction", "speedup"],
        &[18, 22, 6, 14, 8],
    );
    let (k_cross, cross_ns): (u64, &[u64]) =
        if smoke { (2_000, &[10]) } else { (K_CROSS, &[10, 32, 100, 316, 1_000]) };
    report.set_meta("k_crossover", k_cross);
    report.set_meta("crossover_reps", REPS as u64);
    for &n in cross_ns {
        let budget = (k_cross, REPS);
        let zeros = (n - 1) / 2;
        let maj = [(0usize, zeros), (1usize, n - zeros)];
        crossover_rows(&mut report, "majority", &majority(), &maj, budget);
        let ones = n * 3 / 5;
        let approx = [(true, ones), (false, n - ones)];
        crossover_rows(&mut report, "approximate-majority", &ApproximateMajority, &approx, budget);
    }
    report.write();
}
