//! E12 — engineering throughput of the simulation engines.
//!
//! Not a paper claim: this table documents the cost of one interaction in
//! the count-based engine (O(|Q|), independent of n) and the agent-based
//! engine, so experiment budgets elsewhere can be sized.
//!
//! Each row reports nanoseconds per interaction, measured with a warmup
//! batch followed by timed batches (no external benchmarking harness: the
//! build environment is offline, so this target self-times with
//! `std::time::Instant`). The numbers land in `BENCH_e12_throughput.json`
//! so regressions are visible across commits.

use std::time::Instant;

use pp_bench::{fmt, print_header, BenchReport};
use pp_core::scheduler::UniformPairScheduler;
use pp_core::{seeded_rng, AgentSimulation, Simulation};
use pp_presburger::{compile::compile_parsed, parse};
use pp_protocols::{majority, CountThreshold, GraphSimulator};

/// Times `batch` invocations of `f` after a warmup batch; returns ns/call.
fn time_per_call(batch: u64, mut f: impl FnMut()) -> f64 {
    for _ in 0..batch / 4 {
        f();
    }
    let start = Instant::now();
    for _ in 0..batch {
        f();
    }
    start.elapsed().as_nanos() as f64 / batch as f64
}

fn bench_count_engine(report: &mut BenchReport, batch: u64) {
    println!("count engine (one `step`, O(|Q|) per interaction):");
    print_header(&["case", "n", "ns/step"], &[28, 12, 10]);
    let ns_list: &[u64] =
        if pp_bench::smoke() { &[1_000] } else { &[1_000, 100_000, 10_000_000] };
    for &n in ns_list {
        let mut sim =
            Simulation::from_counts(majority(), [(0usize, n / 2), (1usize, n / 2 + 1)]);
        let mut rng = seeded_rng(1);
        let ns = time_per_call(batch, || {
            sim.step(&mut rng);
        });
        println!("{:>28} {:>12} {:>10}", "majority_step", n, fmt(ns));
        report.push_row([("case", "majority_step".into()), ("n", n.into()), ("ns_per_step", ns.into())]
            as [(&str, pp_bench::JsonValue); 3]);
    }
    {
        let n = if pp_bench::smoke() { 1_000 } else { 1_000_000 };
        let mut sim =
            Simulation::from_counts(CountThreshold::new(5), [(true, 10), (false, n - 10)]);
        let mut rng = seeded_rng(2);
        let ns = time_per_call(batch, || {
            sim.step(&mut rng);
        });
        println!("{:>28} {:>12} {:>10}", "count_to_5_step", n, fmt(ns));
        report.push_row([("case", "count_to_5_step".into()), ("n", n.into()), ("ns_per_step", ns.into())]
            as [(&str, pp_bench::JsonValue); 3]);
    }
    {
        let half = if pp_bench::smoke() { 500 } else { 5_000 };
        let proto = compile_parsed(&parse("b < a /\\ a = 1 mod 3").unwrap()).unwrap();
        let mut sim = Simulation::from_counts(proto, [(0usize, half), (1usize, half + 1)]);
        let mut rng = seeded_rng(3);
        let ns = time_per_call(batch / 2, || {
            sim.step(&mut rng);
        });
        println!("{:>28} {:>12} {:>10}", "compiled_formula_step", 2 * half + 1, fmt(ns));
        report.push_row([
            ("case", "compiled_formula_step".into()),
            ("n", (2 * half + 1).into()),
            ("ns_per_step", ns.into()),
        ] as [(&str, pp_bench::JsonValue); 3]);
    }
}

fn bench_leap_engine(report: &mut BenchReport) {
    // Whole epidemic runs: the leaping engine fast-forwards no-ops, so a
    // full run to quiescence is n−1 leaps regardless of how many
    // interactions they span.
    println!("\nleap engine (full epidemic run to quiescence):");
    print_header(&["case", "n", "µs/run"], &[28, 12, 10]);
    let ns_list: &[u64] = if pp_bench::smoke() { &[1_000] } else { &[1_000, 100_000] };
    for &n in ns_list {
        let mut rng = seeded_rng(9);
        let runs: u32 = if pp_bench::smoke() {
            5
        } else if n >= 100_000 {
            40
        } else {
            400
        };
        let start = Instant::now();
        for _ in 0..runs {
            let epidemic = pp_core::FnProtocol::new(
                |&b: &bool| b,
                |&q: &bool| q,
                |&p: &bool, &q: &bool| (p || q, p || q),
            );
            let mut sim = Simulation::from_counts(epidemic, [(true, 1), (false, n - 1)]);
            sim.run_to_quiescence(u64::MAX, &mut rng).expect("quiesces");
        }
        let us = start.elapsed().as_micros() as f64 / f64::from(runs);
        println!("{:>28} {:>12} {:>10}", "epidemic_full_run", n, fmt(us));
        report.push_row([("case", "epidemic_full_run".into()), ("n", n.into()), ("us_per_run", us.into())]
            as [(&str, pp_bench::JsonValue); 3]);
    }
}

fn bench_agent_engine(report: &mut BenchReport, batch: u64) {
    println!("\nagent engine (one `step` through the Theorem 7 baton simulator):");
    print_header(&["case", "n", "ns/step"], &[28, 12, 10]);
    let ns_list: &[usize] = if pp_bench::smoke() { &[100] } else { &[100, 10_000] };
    for &n in ns_list {
        let inputs: Vec<usize> = (0..n).map(|i| usize::from(i % 2 == 0)).collect();
        let mut sim = AgentSimulation::from_inputs(
            GraphSimulator::new(majority()),
            &inputs,
            UniformPairScheduler::new(n),
        );
        let mut rng = seeded_rng(4);
        let ns = time_per_call(batch, || {
            sim.step(&mut rng);
        });
        println!("{:>28} {:>12} {:>10}", "graphsim_step", n, fmt(ns));
        report.push_row([("case", "graphsim_step".into()), ("n", n.into()), ("ns_per_step", ns.into())]
            as [(&str, pp_bench::JsonValue); 3]);
    }
}

fn main() {
    println!("\nE12: engine throughput (self-timed; offline build has no criterion)\n");
    let batch: u64 = if pp_bench::smoke() { 5_000 } else { 400_000 };
    let mut report = BenchReport::new("e12_throughput");
    report.set_meta("batch", batch);
    bench_count_engine(&mut report, batch);
    bench_leap_engine(&mut report);
    bench_agent_engine(&mut report, batch);
    report.write();
}
