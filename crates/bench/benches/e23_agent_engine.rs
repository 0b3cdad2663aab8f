//! E23 — the agent/graph engine at scale: boxed vs CSR, sequential vs
//! batched, 1 vs 2 threads.
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
//! * `csr_sharded_t1` / `csr_sharded_t2` — `run_epochs` at 1 and 2 threads.
//!   On a single-core host the 2-thread row measures coordination overhead,
//!   not speedup; its purpose here is the byte-identity guarantee, which is
//!   hard-asserted below at every thread count.
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
//! Non-smoke, the bench hard-asserts `boxed_seq / csr_batched ≥ 5` at the
//! largest population every engine runs (n ≈ 10⁷ ≥ 10⁶) — the PR's
//! acceptance floor, enforced where the margin is widest (≈7× measured,
//! vs ≈5.1× at n = 10⁶ where shared-host noise could flake a hard gate;
//! the JSON still records the ratio at every n for `ppbench-compare`).
//! Results land in `BENCH_e23_agent_engine.json`.

use std::time::Instant;

use pp_bench::{fmt, print_header, BenchReport};
use pp_core::trace::RunManifest;
use rand::{Rng, RngCore};
use pp_core::{seeded_rng, AgentSimulation, FnProtocol, Protocol, Welford};
use pp_graphs::{torus2d, torus2d_csr, CsrGraph};
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

/// Byte-identity of the sharded trajectory: batched ≡ epochs(t) for every
/// t, including the RNG position afterwards.
fn assert_thread_count_invariance(side: usize, steps: u64) {
    let n = side * side;
    let g = torus2d_csr(side, side);
    let mut reference =
        AgentSimulation::from_inputs(epidemic(), &patient_zero(n), g.scheduler());
    let mut rng = seeded_rng(2023);
    reference.run_batched(steps, &mut rng).unwrap();
    let ref_word = rng.next_u64();
    for threads in [1usize, 2, 8] {
        let mut sim =
            AgentSimulation::from_inputs(epidemic(), &patient_zero(n), g.scheduler());
        let mut rng = seeded_rng(2023);
        sim.run_epochs(steps, threads, &mut rng).unwrap();
        assert_eq!(
            reference.agents(),
            sim.agents(),
            "sharded trajectory diverged at threads={threads}"
        );
        assert_eq!(reference.effective_steps(), sim.effective_steps());
        assert_eq!(ref_word, rng.next_u64(), "RNG diverged at threads={threads}");
    }
}

fn main() {
    println!("\nE23: agent/graph engine at scale (epidemic on a 2D torus)\n");
    let smoke = pp_bench::smoke();
    let (k, reps): (u64, u64) = if smoke { (20_000, 2) } else { (2_000_000, 3) };
    // Torus sides: n = side². 10⁸ is CSR-only (see module docs).
    let sides: &[usize] = if smoke { &[100] } else { &[100, 316, 1_000, 3_163] };
    let big_side: Option<usize> = if smoke { None } else { Some(10_000) };

    // The determinism guarantee first: cheap, and a failed identity makes
    // the timing table meaningless.
    assert_thread_count_invariance(100, if smoke { 20_000 } else { 200_000 });
    println!("sharded byte-identity: OK at threads 1/2/8\n");

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
            .with_threads(2)
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
        let mut sim =
            AgentSimulation::from_inputs(epidemic(), &patient_zero(n), boxed_sched);
        let mut rng = seeded_rng(5);
        let (boxed_ns, boxed_std) = time_blocks(
            |steps| {
                for _ in 0..steps {
                    sim.step(&mut rng);
                }
            },
            k,
            reps,
        );
        push(&mut report, "boxed_seq", n, boxed_ns, boxed_std, None);

        let mut sim =
            AgentSimulation::from_inputs(epidemic(), &patient_zero(n), csr.scheduler());
        let mut rng = seeded_rng(5);
        let (ns, std) = time_blocks(
            |steps| {
                for _ in 0..steps {
                    sim.step(&mut rng);
                }
            },
            k,
            reps,
        );
        push(&mut report, "csr_seq", n, ns, std, Some(boxed_ns / ns));

        let mut sim =
            AgentSimulation::from_inputs(epidemic(), &patient_zero(n), csr.scheduler());
        let mut rng = seeded_rng(5);
        let (batched_ns, batched_std) = time_blocks(
            |steps| sim.run_batched(steps, &mut rng).unwrap(),
            k,
            reps,
        );
        push(
            &mut report,
            "csr_batched",
            n,
            batched_ns,
            batched_std,
            Some(boxed_ns / batched_ns),
        );

        for threads in [1usize, 2] {
            let mut sim = AgentSimulation::from_inputs(
                epidemic(),
                &patient_zero(n),
                csr.scheduler(),
            );
            let mut rng = seeded_rng(5);
            let (ns, std) = time_blocks(
                |steps| sim.run_epochs(steps, threads, &mut rng).unwrap(),
                k,
                reps,
            );
            let case = if threads == 1 { "csr_sharded_t1" } else { "csr_sharded_t2" };
            push(&mut report, case, n, ns, std, Some(boxed_ns / ns));
        }

        // Acceptance floor: the CSR+batched engine must beat the boxed
        // sequential engine ≥ 5× at n ≥ 10⁶. Hard-asserted at the largest
        // swept population, where the margin is widest (see module docs);
        // skipped in smoke mode, where n and k are toy-sized.
        if !smoke && n >= 1_000_000 && side == *sides.last().unwrap() {
            let speedup = boxed_ns / batched_ns;
            assert!(
                speedup >= 5.0,
                "csr_batched speedup {speedup:.2}x over boxed_seq at n={n} is below the 5x floor"
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

        let mut sim =
            AgentSimulation::from_inputs(epidemic(), &patient_zero(n), csr.scheduler());
        let mut rng = seeded_rng(5);
        let (ns, std) = time_blocks(
            |steps| sim.run_epochs(steps, 2, &mut rng).unwrap(),
            k,
            reps,
        );
        push(&mut report, "csr_sharded_t2", n, ns, std, None);
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
    }

    report.write();
}
