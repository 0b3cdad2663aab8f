//! E21 — self-stabilization under adversarial initialization.
//!
//! The defining adversary of self-stabilization does its damage *before*
//! the run starts: it hands the population an arbitrary configuration and
//! the protocol must reach a legal one anyway. This bench sweeps the
//! `AdversarialInit` modes (uniform-random scatter, single-state flood,
//! worst-case enumeration over a small universe) against three protocols:
//!
//! * **phase clock** (count engine) — legal iff the occupied hours fit in
//!   an arc strictly shorter than half the dial;
//! * **ranking** (agent engine, synthesized coins) — legal iff the
//!   population holds exactly the chairs `1..=n`;
//! * **exact majority** (Lemma 5) — the negative control: a leaderless
//!   flood freezes it on the wrong verdict forever, pinning the contrast
//!   between the paper's exact constructions and the self-stabilizing
//!   family.
//!
//! Every row is an ensemble of seeded trials run **twice**, at 1 and 2
//! worker threads; per-trial `RecoveryReport`s fold into an `Mttr` summary
//! in trial order, and the `identical` column asserts the two runs' MTTR
//! JSON matched byte-for-byte (the mergeable-statistics guarantee). MTTR
//! is in interactions from the corrupted start; `recovery_rate` is the
//! fraction of trials that ended legal and stayed legal.
//!
//! The sweep is also emitted as `BENCH_e21_self_stabilization.json`.

use std::time::Instant;

use pp_bench::{fmt, print_header, BenchReport, JsonValue};
use pp_core::ensemble::Ensemble;
use pp_core::faults::{enumeration_count, AdversarialInit, Mttr};
use pp_core::scheduler::UniformPairScheduler;
use pp_core::{AgentSimulation, Simulation};
use pp_protocols::linear::LinState;
use pp_protocols::{majority, PhaseClock, RankState, Ranking};

struct Params {
    trials: u64,
    clock_ns: Vec<u64>,
    rank_ns: Vec<u32>,
}

impl Params {
    fn get() -> Self {
        if pp_bench::smoke() {
            Self { trials: 4, clock_ns: vec![64], rank_ns: vec![8] }
        } else {
            Self { trials: 16, clock_ns: vec![64, 256], rank_ns: vec![16, 32] }
        }
    }
}

const PERIOD: u32 = 64;
const MASTER_SEED: u64 = 2121;

fn main() {
    let p = Params::get();
    let mut report = BenchReport::new("e21_self_stabilization");
    report
        .set_meta("trials", p.trials)
        .set_meta("master_seed", MASTER_SEED)
        .set_meta("clock_period", u64::from(PERIOD));

    println!("\nE21: self-stabilization — MTTR from adversarial initialization");
    println!("T = {} trials per row, master seed {MASTER_SEED}; every row runs at", p.trials);
    println!("1 and 2 threads and identical=1 asserts byte-equal MTTR JSON\n");
    print_header(
        &["case", "mode", "n", "recovery", "mttr_mean", "mttr_max", "identical", "wall_s"],
        &[14, 16, 6, 9, 11, 11, 10, 8],
    );

    for &n in &p.clock_ns {
        let horizon = 6_000 * n + 200 * n * (n as f64).ln() as u64;
        for (mode, init) in clock_inits(n) {
            run_row(&mut report, "phase_clock", &mode, n, |threads| {
                clock_mttr(n, &init, p.trials, horizon, threads)
            });
        }
    }

    for &n in &p.rank_ns {
        // The phased alive-counting walk is the bottleneck: generous
        // Θ(n² log² n)-scale horizon; recovered trials early-exit anyway.
        let nf = f64::from(n);
        let horizon = (400.0 * nf * nf * nf.ln().powi(2)) as u64;
        for (mode, init) in rank_inits(n) {
            run_row(&mut report, "ranking", &mode, u64::from(n), |threads| {
                ranking_mttr(n, &init, p.trials, horizon, threads)
            });
        }
    }

    // Negative control: exact majority, flooded leaderless with the wrong
    // verdict. Nothing can ever change state again, so recovery is 0.
    let maj_n = 63u64;
    let maj = run_row(&mut report, "exact_majority", "flood", maj_n, |threads| {
        majority_flood_mttr(maj_n, p.trials, threads)
    });
    assert_eq!(maj.recovered(), 0, "exact majority must not self-stabilize");

    println!("\nreading: the self-stabilizing pair recovers in every trial from every");
    println!("init mode (recovery = 1); exact majority never does (recovery = 0) —");
    println!("the paper's exactness/self-stabilization trade-off, made machine-checked\n");
    report.write();
}

/// The three init modes for a clock over `PERIOD` hours and `n` agents.
fn clock_inits(n: u64) -> Vec<(String, AdversarialInit<u32>)> {
    // Enumerated universe: four hours evenly around the dial, so the
    // mid-index configuration is a hostile multi-cluster split.
    let quarters: Vec<u32> = (0..4).map(|i| i * PERIOD / 4).collect();
    let mid = enumeration_count(quarters.len(), n) / 2;
    vec![
        ("uniform-random".into(), AdversarialInit::uniform_random((0..PERIOD).collect())),
        ("flood".into(), AdversarialInit::flood(PERIOD / 3)),
        ("enumerated".into(), AdversarialInit::enumerated(quarters, mid)),
    ]
}

/// The three init modes for ranking `n` agents.
fn rank_inits(n: u32) -> Vec<(String, AdversarialInit<RankState>)> {
    let universe = Ranking::new(n).universe();
    // Enumerated universe: every agent claims chair 1 or 2 or defers — the
    // mid-index configuration over-subscribes the low chairs.
    let contested = vec![RankState::LE, RankState::Rank(1), RankState::Rank(2)];
    let mid = enumeration_count(contested.len(), u64::from(n)) / 2;
    vec![
        ("uniform-random".into(), AdversarialInit::uniform_random(universe)),
        ("flood".into(), AdversarialInit::flood(RankState::Rank(1))),
        ("enumerated".into(), AdversarialInit::enumerated(contested, mid)),
    ]
}

/// Phase-clock resync ensemble on the count engine → trial-order MTTR.
fn clock_mttr(n: u64, init: &AdversarialInit<u32>, trials: u64, horizon: u64, threads: usize) -> Mttr {
    let reports = Ensemble::new(trials, MASTER_SEED).with_threads(threads).map(|_, rng| {
        let clock = PhaseClock::new(PERIOD);
        let mut sim = Simulation::from_counts(clock, [((), n)]);
        sim.apply_adversarial_init(init, rng);
        PhaseClock::measure_resync(&mut sim, horizon, 512, rng)
    });
    fold(&reports)
}

/// Ranking recovery ensemble on the coin-aware agent engine.
fn ranking_mttr(
    n: u32,
    init: &AdversarialInit<RankState>,
    trials: u64,
    horizon: u64,
    threads: usize,
) -> Mttr {
    let reports = Ensemble::new(trials, MASTER_SEED).with_threads(threads).map(|_, rng| {
        let mut sim = AgentSimulation::from_inputs(
            Ranking::new(n),
            &vec![(); n as usize],
            UniformPairScheduler::new(n as usize),
        );
        sim.apply_adversarial_init(init, rng);
        Ranking::measure_recovery(&mut sim, horizon, 1_024, rng)
    });
    fold(&reports)
}

/// Exact majority flooded with a leaderless false verdict (expected answer
/// is `true`: the ones outnumber the zeros).
fn majority_flood_mttr(n: u64, trials: u64, threads: usize) -> Mttr {
    let ones = n / 2 + 1;
    Ensemble::new(trials, MASTER_SEED)
        .with_threads(threads)
        .run_with_faults(
            move |_| {
                let sim =
                    Simulation::from_counts(majority(), [(0usize, n - ones), (1usize, ones)]);
                (sim, AdversarialInit::flood(LinState::new(false, false, 0)))
            },
            &true,
            50_000,
        )
        .final_mttr()
}

fn fold(reports: &[pp_core::faults::RecoveryReport]) -> Mttr {
    let mut m = Mttr::new();
    for r in reports {
        m.absorb(r);
    }
    m
}

/// Runs one (protocol, mode, n) cell at 1 and 2 threads, asserts the MTTR
/// JSON is byte-identical, prints and records the row, and returns the
/// summary for further assertions.
fn run_row(
    report: &mut BenchReport,
    case: &str,
    mode: &str,
    n: u64,
    run: impl Fn(usize) -> Mttr,
) -> Mttr {
    let t0 = Instant::now();
    let one = run(1);
    let two = run(2);
    let wall = t0.elapsed().as_secs_f64();
    let identical = one.to_json() == two.to_json();
    assert!(identical, "{case}/{mode} n={n}: MTTR JSON differs between 1 and 2 threads");
    println!(
        "{:>14} {:>16} {:>6} {:>9} {:>11} {:>11} {:>10} {:>8}",
        case,
        mode,
        n,
        fmt(one.recovery_probability()),
        fmt(one.mean()),
        fmt(one.time_stats().max()),
        u64::from(identical),
        fmt(wall),
    );
    report.push_row([
        ("case", JsonValue::from(case)),
        ("mode", JsonValue::from(mode)),
        ("n", n.into()),
        ("trials", one.trials().into()),
        ("recovery_rate", one.recovery_probability().into()),
        ("mttr_mean", one.mean().into()),
        ("mttr_std", one.time_stats().std_dev().into()),
        ("mttr_max", one.time_stats().max().into()),
        ("residual_mean", one.residual_stats().mean().into()),
        ("residual_max", one.residual_stats().max().into()),
        ("identical", identical.into()),
        ("wall_s", wall.into()),
    ]);
    one
}
