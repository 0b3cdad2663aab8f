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

use std::time::Instant;

use pp_bench::{fmt, print_header, BenchReport};
use pp_core::{seeded_rng, Simulation};
use pp_protocols::majority;

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
    report.write();
}
