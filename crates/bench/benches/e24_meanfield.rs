//! E24 — the mean-field ODE fast path against the batched count engine.
//!
//! Not a paper claim: this table validates PR 9's fluid-limit integrator
//! (`pp-analysis::meanfield`) and measures what it buys. Two sections:
//!
//! * **Validation** (`ode_vs_engine` rows): for three protocols whose
//!   dynamics stay macroscopic — the 60/40 approximate majority, the
//!   1 %-seeded epidemic, and the 16-hour phase clock — the ODE trajectory
//!   is compared with one seeded batched-engine run at every overlapping
//!   population `n = 10³…10⁶`. The `tv` cell is the max total-variation
//!   distance over the engine's trajectory samples; non-smoke the bench
//!   hard-asserts `tv ≤ 0.05` at `n = 10⁶` for all three (the fluid limit
//!   is an `O(1/√n)` approximation: at `10⁶` agents the noise floor is
//!   ~10⁻³, so 0.05 is a loose structural bound, not a lucky seed).
//! * **Flat cost** (`flat_cost` rows): the same approximate-majority
//!   question asked at `n = 10⁶, 10⁹, 10¹², 10¹⁵` through
//!   `MeanField::with_population` — the integration is
//!   population-independent (`O(1)` memory; only the log-spaced sample
//!   schedule sees `n`), so non-smoke the bench hard-asserts the `10¹²`
//!   row costs at most 2× the `10⁶` row. The `predicted_tau` cell is the
//!   fluid-limit stabilization time (parallel time, `eps = 10⁻³`).
//!
//! A final `divergence_guard` row pins the refusal path: leader election's
//! last-two-leaders duel is a vanishing×vanishing rate bottleneck, so the
//! run must carry the flag and `predicted_stabilization_time` must return
//! `None` — the fast path refuses to extrapolate where the limit is known
//! to part from the finite-`n` law.
//!
//! `tv` and `predicted_tau` are accuracy cells, hard-asserted here and
//! [`EXCLUDED`](pp_bench::compare::EXCLUDED) from `ppbench-compare` row
//! keys; the compare gate watches `us_per_run` (ODE) and `wall_s`
//! (engine) only. Results land in `BENCH_e24_meanfield.json`.

use std::time::Instant;

use pp_analysis::meanfield::{Divergence, MeanField, MeanFieldOptions, MeanFieldRun};
use pp_bench::{fmt, print_header, BenchReport};
use pp_core::observe::TrajectoryProbe;
use pp_core::trace::RunManifest;
use pp_core::{seeded_rng, FnProtocol, Protocol, Simulation, Welford};
use pp_protocols::{ApproximateMajority, LeaderElection, PhaseClock};

fn epidemic() -> impl Protocol<State = bool, Input = bool, Output = bool> {
    FnProtocol::new(
        |&b: &bool| b,
        |&q: &bool| q,
        |&p: &bool, &q: &bool| (p || q, p || q),
    )
}

/// Times `reps` runs of the ODE and returns (mean µs, std µs, last run).
fn time_ode(mf: &MeanField, opts: &MeanFieldOptions, reps: u64) -> (f64, f64, MeanFieldRun) {
    let mut w = Welford::new();
    let mut last = mf.run(opts); // warmup + keeps a result alive
    for _ in 0..reps {
        let start = Instant::now();
        last = mf.run(opts);
        w.push(start.elapsed().as_nanos() as f64 / 1_000.0);
    }
    (w.mean(), w.std_dev(), last)
}

/// The engine-side evidence one validation case produces: the derived
/// mean field, the probe's `(interaction, occupancy)` samples, and the
/// engine's wall-clock seconds.
type Driven = (MeanField, Vec<(u64, Vec<u64>)>, f64);

/// One validation case: protocol + initial counts + comparison horizon.
struct Case {
    name: &'static str,
    horizon: f64,
    build: fn(u64) -> Driven,
}

/// Builds the simulation, derives the mean field, runs the batched engine
/// under a trajectory probe for `horizon` parallel time, and returns
/// (mean field, engine samples, engine wall seconds).
fn drive<P: Protocol>(
    protocol: P,
    inputs: impl IntoIterator<Item = (P::Input, u64)>,
    horizon: f64,
    seed: u64,
) -> Driven {
    let mut sim = Simulation::from_counts(protocol, inputs);
    let n = sim.population();
    let mf = MeanField::from_simulation(&mut sim);
    let mut probed = sim.with_probe(TrajectoryProbe::new());
    let mut rng = seeded_rng(seed);
    let start = Instant::now();
    probed.run_batched((horizon * n as f64) as u64, &mut rng);
    let wall = start.elapsed().as_secs_f64();
    (mf, probed.probe().samples().to_vec(), wall)
}

fn main() {
    println!("\nE24: mean-field ODE fast path (fluid limit vs batched engine)\n");
    let smoke = pp_bench::smoke();
    let ode_reps: u64 = if smoke { 2 } else { 5 };
    let populations: &[u64] = if smoke {
        &[1_000, 10_000]
    } else {
        &[1_000, 10_000, 100_000, 1_000_000]
    };
    let flat_populations: &[u64] = if smoke {
        &[1_000_000, 1_000_000_000]
    } else {
        &[1_000_000, 1_000_000_000, 1_000_000_000_000, 1_000_000_000_000_000]
    };

    let cases: &[Case] = &[
        Case {
            name: "approx_majority_60_40",
            horizon: 30.0,
            build: |n| {
                drive(ApproximateMajority, [(true, 6 * n / 10), (false, 4 * n / 10)], 30.0, 240)
            },
        },
        Case {
            name: "epidemic_1pct",
            horizon: 15.0,
            build: |n| drive(epidemic(), [(true, n / 100), (false, n - n / 100)], 15.0, 241),
        },
        Case {
            name: "phase_clock_16",
            horizon: 8.0,
            build: |n| drive(PhaseClock::new(16), [((), n)], 8.0, 242),
        },
    ];

    let mut report = BenchReport::new("e24_meanfield");
    report.set_meta("ode_reps", ode_reps);
    report.set_meta("tv_bound_at_1e6", 0.05);
    report.set_manifest(
        RunManifest::default()
            .with_protocol("meanfield@{approx_majority,epidemic,phase_clock,leader}")
            .with_population(*flat_populations.last().unwrap())
            .with_master_seed(240)
            .with_threads(1)
            .with_detected_git_rev(),
    );

    print_header(
        &["case", "protocol", "n", "us_per_run", "wall_s", "tv"],
        &[14, 22, 17, 12, 9, 9],
    );

    // -- Validation: ODE vs engine at overlapping n ------------------------
    for case in cases {
        for &n in populations {
            let (mf, samples, engine_wall) = (case.build)(n);
            let opts = MeanFieldOptions { horizon: case.horizon, ..Default::default() };
            let (ode_us, ode_std, run) = time_ode(&mf, &opts, ode_reps);
            let tv = run.tv_against(&samples);
            // A 1% seed at n = 10³ is 10 agents < √n — the microscopic-
            // fraction detector is *supposed* to fire there, so the
            // no-false-flag assertion starts where the seeds go
            // macroscopic.
            if n >= 10_000 {
                assert!(
                    run.divergences().is_empty(),
                    "{}: macroscopic case wrongly flagged: {:?}",
                    case.name,
                    run.divergences()
                );
            }
            if !smoke && n >= 1_000_000 {
                assert!(
                    tv <= 0.05,
                    "{}: ODE vs engine TV {tv} exceeds the 0.05 acceptance bound at n={n}",
                    case.name
                );
            }
            println!(
                "{:>14} {:>22} {:>17} {:>12} {:>9} {:>9}",
                "ode_vs_engine",
                case.name,
                n,
                fmt(ode_us),
                fmt(engine_wall),
                fmt(tv),
            );
            let row: Vec<(&str, pp_bench::JsonValue)> = vec![
                ("case", "ode_vs_engine".to_string().into()),
                ("protocol", case.name.to_string().into()),
                ("n", n.into()),
                ("us_per_run", ode_us.into()),
                ("us_per_run_std", ode_std.into()),
                ("wall_s", engine_wall.into()),
                ("tv", tv.into()),
            ];
            report.push_row(row);
        }
    }

    // -- Flat cost: the same ODE at astronomically large n ----------------
    let mut sim = Simulation::from_counts(
        ApproximateMajority,
        [(true, 600_000u64), (false, 400_000)],
    );
    let base_mf = MeanField::from_simulation(&mut sim);
    let opts = MeanFieldOptions::default();
    let mut us_at: Vec<(u64, f64)> = Vec::new();
    for &n in flat_populations {
        let mf = base_mf.with_population(n);
        let (ode_us, ode_std, run) = time_ode(&mf, &opts, ode_reps);
        let tau = run
            .predicted_stabilization_time(1e-3)
            .expect("approximate majority has a trusted fluid limit");
        us_at.push((n, ode_us));
        println!(
            "{:>14} {:>22} {:>17} {:>12} {:>9} {:>9}",
            "flat_cost",
            "approx_majority_60_40",
            n,
            fmt(ode_us),
            "",
            fmt(tau),
        );
        let row: Vec<(&str, pp_bench::JsonValue)> = vec![
            ("case", "flat_cost".to_string().into()),
            ("protocol", "approx_majority_60_40".to_string().into()),
            ("n", n.into()),
            ("us_per_run", ode_us.into()),
            ("us_per_run_std", ode_std.into()),
            ("predicted_tau", tau.into()),
        ];
        report.push_row(row);
    }
    if !smoke {
        let at = |n: u64| us_at.iter().find(|&&(m, _)| m == n).unwrap().1;
        let (small, big) = (at(1_000_000), at(1_000_000_000_000));
        assert!(
            big <= 2.0 * small,
            "flat-cost violated: n=10^12 at {big:.1} µs vs n=10^6 at {small:.1} µs (>2x)"
        );
    }

    // -- Divergence guard: leader election refuses to extrapolate ----------
    let mut sim = Simulation::from_counts(LeaderElection, [((), 1_000_000u64)]);
    let run = MeanField::from_simulation(&mut sim).run(&MeanFieldOptions::default());
    let bottlenecked = run
        .divergences()
        .iter()
        .any(|d| matches!(d, Divergence::VanishingRateBottleneck { .. }));
    assert!(
        bottlenecked,
        "leader election must be flagged as a rate bottleneck, got {:?}",
        run.divergences()
    );
    assert_eq!(
        run.predicted_stabilization_time(1e-3),
        None,
        "a flagged run must refuse to predict a stabilization time"
    );
    println!(
        "{:>14} {:>22} {:>17} {:>12} {:>9} {:>9}",
        "divergence", "leader_election", 1_000_000u64, "", "", "refused",
    );
    let row: Vec<(&str, pp_bench::JsonValue)> = vec![
        ("case", "divergence_guard".to_string().into()),
        ("protocol", "leader_election".to_string().into()),
        ("n", 1_000_000u64.into()),
        ("flag", "vanishing_rate_bottleneck".to_string().into()),
        ("prediction", "refused".to_string().into()),
    ];
    report.push_row(row);

    report.write();
}
