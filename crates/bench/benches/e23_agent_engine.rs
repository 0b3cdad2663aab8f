//! E23 — the agent/graph engine at scale: boxed vs CSR, sequential vs
//! batched.
//!
//! Not a paper claim: this table measures what PR 8's CSR/SoA engine buys on
//! §5's restricted-interaction-graph workloads. The workload is the epidemic
//! (one-way infection) on a 2D torus — sparse, regular, weakly connected at
//! any size — swept up to 10⁷ agents with every engine, plus a 10⁸-agent
//! CSR-only row built through the sort-free `torus2d_csr` constructor (the
//! tuple-list build is skipped there: a 3.2 GB edge vector plus its sort
//! adds minutes without changing the comparison).
//!
//! Cases per population:
//!
//! * `boxed_seq` — `EdgeListScheduler` (tuple edge list) + the sequential
//!   `step` loop: two virtual RNG calls and a δ-memo lookup per
//!   interaction, one serialized cache miss per draw.
//! * `csr_seq` — `CsrScheduler` + the same sequential loop (isolates the
//!   layout change).
//! * `csr_batched` — `run_batched`: monomorphized batch sampling, and the
//!   apply kernel `measure_stabilization` shares (isolates the batching
//!   change).
//!
//! The three cases of one population are timed in rounds: block `i` of
//! every case, each after its own warmup, runs before block `i + 1` of
//! any, so a fast or slow stretch of a shared host falls on all of them
//! alike.
//!
//! Two sets of `csr_batched` rows time the apply kernel where effective
//! interactions are common, which the epidemic (≈ 99.9% no-ops once it has
//! spread) never shows. Each carries a `protocol` cell and `share`, the
//! effective share of the run's interactions:
//!
//! * `approximate-majority` — the Theorem 7 `GraphSimulator` over
//!   approximate majority, 60/40 inputs in spec order (ones first), at
//!   n = 10⁴ and 10⁶: the `engine: "agents"` workload.
//! * `swap` — tokens that random-walk by swapping places, at token
//!   densities 1/2 … 1/256 (placed independently, the walk's stationary
//!   law, so the share stays put): a sweep of the effective share at
//!   n = 10⁴ and 10⁶, from which the kernel's switch between its eliding
//!   and storing loop bodies is derived (EXPERIMENTS.md E23).
//!
//! One more pair of `csr_batched` rows, `epidemic@grid2d` at n = 10⁴ and
//! 10⁶, runs the epidemic on a non-torus mesh. Its degrees are 2–4, so it
//! gets no stencil; its deltas are ±1 and ±side, so the batched sampler
//! gathers from the `i16` delta column instead. No torus row reaches that
//! column.
//!
//! Non-smoke, the bench hard-asserts that the median over rounds of
//! `boxed_seq / csr_batched`, each ratio taken within one round, is ≥ 5 at
//! the largest population every engine runs (n ≈ 10⁷ ≥ 10⁶). The JSON
//! records the ratio of the means at every n for `ppbench-compare`.
//! Results land in `BENCH_e23_agent_engine.json`.

use std::time::Instant;

use pp_bench::{fmt, print_header, BenchReport};
use pp_core::trace::RunManifest;
use rand::Rng;
use pp_core::{seeded_rng, AgentSimulation, FnProtocol, Protocol, Welford};
use pp_graphs::{grid2d, torus2d, torus2d_csr, CsrGraph};
use pp_protocols::{ApproximateMajority, GraphSimulator};

fn epidemic() -> impl Protocol<State = bool, Input = bool, Output = bool> {
    FnProtocol::new(
        |&b: &bool| b,
        |&q: &bool| q,
        |&p: &bool, &q: &bool| (p || q, p || q),
    )
}

fn patient_zero(n: usize) -> Vec<bool> {
    (0..n).map(|i| i == 0).collect()
}

/// Tokens that random-walk by swapping: an interaction is effective iff
/// exactly one of the two agents holds a token.
fn swap() -> impl Protocol<State = bool, Input = bool, Output = bool> {
    FnProtocol::new(|&b: &bool| b, |&q: &bool| q, |&p: &bool, &q: &bool| (q, p))
}

/// Times `run_batched` of `protocol` from `inputs` on `csr` as
/// [`time_blocks`] does, returning (mean, std) ns/interaction and the
/// effective share of every interaction run (warmup included).
fn time_batched<P: Protocol>(
    protocol: P,
    inputs: &[P::Input],
    csr: &CsrGraph,
    k: u64,
    reps: u64,
) -> (f64, f64, f64) {
    let mut sim = AgentSimulation::from_inputs(protocol, inputs, csr.scheduler());
    let mut rng = seeded_rng(5);
    let (ns, std) = time_blocks(|steps| sim.run_batched(steps, &mut rng).unwrap(), k, reps);
    (ns, std, sim.effective_steps() as f64 / sim.steps() as f64)
}

/// Times `reps` measured blocks of `k` interactions on one simulation
/// (after a warmup block), returning (mean, std) ns/interaction.
fn time_blocks(
    mut run: impl FnMut(u64),
    k: u64,
    reps: u64,
) -> (f64, f64) {
    run(k / 4); // warmup: interns states, fills the δ-memo, faults in the arrays
    let mut w = Welford::new();
    for _ in 0..reps {
        let start = Instant::now();
        run(k);
        w.push(start.elapsed().as_nanos() as f64 / k as f64);
    }
    (w.mean(), w.std_dev())
}

/// Times `reps` rounds of one measured block of `k` interactions per
/// runner, returning each runner's ns/interaction per round. Every block
/// follows an untimed block of `k` interactions on its own runner, which
/// brings back the cache lines the previous runner's block evicted: where
/// the last-level cache holds most of a case's arrays, a block run right
/// after another case's would otherwise run cold.
fn time_rounds<const R: usize>(
    mut runs: [&mut dyn FnMut(u64); R],
    k: u64,
    reps: u64,
) -> [Vec<f64>; R] {
    let mut ns: [Vec<f64>; R] = std::array::from_fn(|_| Vec::new());
    for _ in 0..reps {
        for (run, ns) in runs.iter_mut().zip(ns.iter_mut()) {
            run(k);
            let start = Instant::now();
            run(k);
            ns.push(start.elapsed().as_nanos() as f64 / k as f64);
        }
    }
    ns
}

fn mean_std(xs: &[f64]) -> (f64, f64) {
    let mut w = Welford::new();
    for &x in xs {
        w.push(x);
    }
    (w.mean(), w.std_dev())
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let m = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[m]
    } else {
        (xs[m - 1] + xs[m]) / 2.0
    }
}

fn main() {
    println!("\nE23: agent/graph engine at scale (epidemic on a 2D torus)\n");
    let smoke = pp_bench::smoke();
    let (k, reps): (u64, u64) = if smoke { (20_000, 2) } else { (2_000_000, 3) };
    // Torus sides: n = side². 10⁸ is CSR-only (see module docs).
    let sides: &[usize] = if smoke { &[100] } else { &[100, 316, 1_000, 3_163] };
    let big_side: Option<usize> = if smoke { None } else { Some(10_000) };

    let mut report = BenchReport::new("e23_agent_engine");
    report.set_meta("k", k);
    report.set_meta("reps", reps);
    report.set_manifest(
        RunManifest::default()
            .with_protocol(if smoke {
                "epidemic@torus2d(100x100)"
            } else {
                "epidemic@torus2d(up to 10000x10000)"
            })
            .with_population(big_side.unwrap_or(*sides.last().unwrap()).pow(2) as u64)
            .with_master_seed(5)
            .with_threads(1)
            .with_detected_git_rev(),
    );

    print_header(
        &["case", "n", "ns/interaction", "std", "vs boxed"],
        &[16, 14, 14, 9, 9],
    );

    let push = |report: &mut BenchReport, case: &str, n: usize, ns: f64, std: f64, speedup: Option<f64>| {
        println!(
            "{:>16} {:>14} {:>14} {:>9} {:>9}",
            case,
            n,
            fmt(ns),
            fmt(std),
            speedup.map_or(String::new(), fmt),
        );
        let mut row: Vec<(&str, pp_bench::JsonValue)> = vec![
            ("case", case.to_string().into()),
            ("n", (n as u64).into()),
            ("ns_per_step", ns.into()),
            ("ns_per_step_std", std.into()),
        ];
        if let Some(s) = speedup {
            row.push(("speedup_vs_boxed", s.into()));
        }
        report.push_row(row);
    };

    for &side in sides {
        let n = side * side;
        let csr = torus2d_csr(side, side);

        let boxed_sched = torus2d(side, side).scheduler();
        let mut boxed =
            AgentSimulation::from_inputs(epidemic(), &patient_zero(n), boxed_sched);
        let mut rng_boxed = seeded_rng(5);
        let mut seq =
            AgentSimulation::from_inputs(epidemic(), &patient_zero(n), csr.scheduler());
        let mut rng_seq = seeded_rng(5);
        let mut batched =
            AgentSimulation::from_inputs(epidemic(), &patient_zero(n), csr.scheduler());
        let mut rng_batched = seeded_rng(5);
        let [boxed_blocks, batched_blocks, seq_blocks] = time_rounds(
            [
                &mut |steps| {
                    for _ in 0..steps {
                        boxed.step(&mut rng_boxed);
                    }
                },
                &mut |steps| batched.run_batched(steps, &mut rng_batched).unwrap(),
                &mut |steps| {
                    for _ in 0..steps {
                        seq.step(&mut rng_seq);
                    }
                },
            ],
            k,
            reps,
        );
        let (boxed_ns, boxed_std) = mean_std(&boxed_blocks);
        push(&mut report, "boxed_seq", n, boxed_ns, boxed_std, None);
        let (ns, std) = mean_std(&seq_blocks);
        push(&mut report, "csr_seq", n, ns, std, Some(boxed_ns / ns));
        let (ns, std) = mean_std(&batched_blocks);
        push(&mut report, "csr_batched", n, ns, std, Some(boxed_ns / ns));

        // Acceptance floor: the CSR+batched engine must beat the boxed
        // sequential engine ≥ 5× at n ≥ 10⁶. Hard-asserted at the largest
        // swept population, on the median of the per-round ratios (see
        // module docs); skipped in smoke mode, where n and k are toy-sized.
        if !smoke && n >= 1_000_000 && side == *sides.last().unwrap() {
            let ratios = boxed_blocks.iter().zip(&batched_blocks).map(|(b, c)| b / c);
            let speedup = median(ratios.collect());
            println!("  median per-round boxed_seq / csr_batched at n={n}: {}", fmt(speedup));
            assert!(
                speedup >= 5.0,
                "csr_batched median per-round speedup {speedup:.2}x over boxed_seq at n={n} \
                 is below the 5x floor (rounds: boxed {boxed_blocks:?}, batched {batched_blocks:?})"
            );
        }
    }

    if let Some(side) = big_side {
        let n = side * side;
        println!("  (n=10^8: boxed tuple-list build skipped — CSR cases only)");
        let csr = torus2d_csr(side, side);
        let mut sim =
            AgentSimulation::from_inputs(epidemic(), &patient_zero(n), csr.scheduler());
        let mut rng = seeded_rng(5);
        let (ns, std) = time_blocks(
            |steps| sim.run_batched(steps, &mut rng).unwrap(),
            k,
            reps,
        );
        push(&mut report, "csr_batched", n, ns, std, None);
    }

    print_header(
        &["protocol", "n", "ns/interaction", "std", "share"],
        &[26, 14, 14, 9, 9],
    );
    let mut push_share = |protocol: &str, n: usize, (ns, std, share): (f64, f64, f64)| {
        println!(
            "{:>26} {:>14} {:>14} {:>9} {:>9}",
            protocol,
            n,
            fmt(ns),
            fmt(std),
            fmt(share),
        );
        let row: Vec<(&str, pp_bench::JsonValue)> = vec![
            ("case", "csr_batched".to_string().into()),
            ("protocol", protocol.to_string().into()),
            ("n", (n as u64).into()),
            ("ns_per_step", ns.into()),
            ("ns_per_step_std", std.into()),
            ("share", share.into()),
        ];
        report.push_row(row);
    };
    let share_sides: &[usize] = if smoke { &[100] } else { &[100, 1_000] };
    for &side in share_sides {
        let n = side * side;
        let csr = torus2d_csr(side, side);
        let ones = n * 3 / 5;
        let votes: Vec<bool> = (0..n).map(|i| i < ones).collect();
        let am = GraphSimulator::new(ApproximateMajority);
        push_share("approximate-majority", n, time_batched(am, &votes, &csr, k, reps));
        for every in [2u32, 8, 16, 32, 64, 256] {
            let mut place = seeded_rng(u64::from(every));
            let tokens: Vec<bool> = (0..n).map(|_| place.gen_range(0..every) == 0).collect();
            let protocol = format!("swap(1/{every})");
            push_share(&protocol, n, time_batched(swap(), &tokens, &csr, k, reps));
        }
        let grid = CsrGraph::from_graph(&grid2d(side, side));
        push_share("epidemic@grid2d", n, time_batched(epidemic(), &patient_zero(n), &grid, k, reps));
    }

    report.write();
}
