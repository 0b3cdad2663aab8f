//! E20 — multi-threaded ensemble scaling with bit-identical statistics.
//!
//! The ensemble executor claims two things at once: (1) `T` independent
//! trials scale across OS threads, and (2) the aggregated statistics are
//! a pure function of the master seed — byte-identical at any thread
//! count. This bench measures both on majority stabilization, routed
//! through the unified [`pp_core::spec`] dispatcher (`RunSpec` →
//! `run_counts`) that the server, the CLI, and the benches now share —
//! the spec's `threads` field is execution policy, so sweeping it must
//! not move a byte of the report:
//!
//! * **exact majority** (Lemma 5) at n = 256 — its Θ(n² log n) interaction
//!   count makes n = 10⁴ infeasible (~10¹¹ interactions *per trial*), so
//!   the exact protocol is measured at a population where T = 256 trials
//!   finish in seconds;
//! * **approximate majority** (3-state) at n = 10⁴ — Θ(n log n), the
//!   large-population case.
//!
//! Both run on the Θ(√n)-per-sweep batched engine (`engine: "batched"`
//! in spec terms), once per thread count with the same master seed; every
//! row records the wall clock, the speedup over the 1-thread run, and
//! whether the `EnsembleReport` JSON matched the 1-thread run
//! byte-for-byte.
//!
//! Wall-clock speedup is hardware-bound: on a k-core machine the curve
//! saturates at ≈ k (the `hw_threads` meta records what the host offered;
//! on a 1-core CI runner every thread count measures ≈ 1×). The
//! determinism column must read 1 everywhere, on any machine.
//!
//! The sweep is also emitted as `BENCH_e20_ensemble_scaling.json`.

use std::time::Instant;

use pp_bench::{fmt, print_header, BenchReport};
use pp_core::ensemble::EnsembleReport;
use pp_core::spec::{run_counts, EngineSel, ProtocolRef, RunOutcome, RunSpec};
use pp_protocols::ext::ApproximateMajority;
use pp_protocols::majority;

struct Params {
    trials: u64,
    exact_n: u64,
    approx_n: u64,
    threads: Vec<usize>,
}

impl Params {
    fn get() -> Self {
        if pp_bench::smoke() {
            Self { trials: 8, exact_n: 48, approx_n: 400, threads: vec![1, 2] }
        } else {
            Self { trials: 256, exact_n: 256, approx_n: 10_000, threads: vec![1, 2, 4, 8] }
        }
    }
}

/// The shared spec shape: a batched stabilization ensemble on a 60/40
/// majority split. The spec population and the dispatched `pairs` travel
/// in the same order — population order is semantic (it fixes interning,
/// hence the RNG streams), so both workloads list the majority symbol
/// first, exactly like the historical direct calls.
fn ensemble_spec(
    p: &Params,
    population: Vec<(String, u64)>,
    master_seed: u64,
    horizon: u64,
    threads: usize,
) -> RunSpec {
    let mut spec = RunSpec::new(
        ProtocolRef::Name { name: "majority".into(), params: vec![] },
        population,
        master_seed,
    );
    spec.engine = EngineSel::Batched;
    spec.trials = p.trials;
    spec.threads = threads;
    spec.horizon = Some(horizon);
    spec
}

fn expect_ensemble(outcome: RunOutcome) -> EnsembleReport {
    match outcome {
        RunOutcome::Ensemble(rep) => rep,
        other => panic!("expected an ensemble outcome, got {other:?}"),
    }
}

fn main() {
    let p = Params::get();
    let master_seed = 2020u64;
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut report = BenchReport::new("e20_ensemble_scaling");
    report
        .set_meta("trials", p.trials)
        .set_meta("master_seed", master_seed)
        .set_meta("hw_threads", hw);

    println!("\nE20: ensemble scaling — T = {} trials, master seed {master_seed}", p.trials);
    println!("host offers {hw} hardware thread(s); identical=1 means the report");
    println!("JSON matched the 1-thread run byte-for-byte\n");
    print_header(
        &["case", "threads", "wall_s", "speedup", "identical", "mean"],
        &[22, 8, 9, 8, 10, 12],
    );

    // Exact majority (Lemma 5): 60/40 split, horizon 40·n² ≫ Θ(n² log n)/2
    // for this margin.
    let exact_n = p.exact_n;
    let exact_ones = exact_n * 3 / 5;
    let exact_horizon = 40 * exact_n * exact_n;
    sweep_case(&mut report, &p, &format!("exact majority n={exact_n}"), "exact", |threads| {
        let spec = ensemble_spec(
            &p,
            vec![("1".into(), exact_ones), ("0".into(), exact_n - exact_ones)],
            master_seed,
            exact_horizon,
            threads,
        );
        expect_ensemble(
            run_counts(
                &spec,
                &majority(),
                &[(1usize, exact_ones), (0usize, exact_n - exact_ones)],
                &true,
            )
            .expect("exact majority dispatch"),
        )
    });

    // Approximate majority: Θ(n log n); horizon 60·n·ln n.
    let approx_n = p.approx_n;
    let approx_ones = approx_n * 3 / 5;
    let approx_horizon = (60.0 * approx_n as f64 * (approx_n as f64).ln()) as u64;
    sweep_case(&mut report, &p, &format!("approx majority n={approx_n}"), "approx", |threads| {
        let spec = ensemble_spec(
            &p,
            vec![("1".into(), approx_ones), ("0".into(), approx_n - approx_ones)],
            master_seed,
            approx_horizon,
            threads,
        );
        expect_ensemble(
            run_counts(
                &spec,
                &ApproximateMajority,
                &[(true, approx_ones), (false, approx_n - approx_ones)],
                &true,
            )
            .expect("approx majority dispatch"),
        )
    });

    println!("\nreading: speedup tracks hardware threads (≈1 on a 1-core host);");
    println!("the identical column is the machine-checked determinism guarantee —");
    println!("same master seed → same mean/variance/quantiles at every thread count\n");
    report.write();
}

/// Runs one workload at every thread count, checks byte-identity against
/// the 1-thread report, and emits rows.
fn sweep_case(
    report: &mut BenchReport,
    p: &Params,
    label: &str,
    case: &str,
    run: impl Fn(usize) -> EnsembleReport,
) {
    let mut base_json: Option<String> = None;
    let mut base_wall = 0.0f64;
    for &threads in &p.threads {
        let t0 = Instant::now();
        let rep = run(threads);
        let wall = t0.elapsed().as_secs_f64();
        let json = rep.to_json();
        let identical = match &base_json {
            None => {
                base_json = Some(json);
                base_wall = wall;
                true
            }
            Some(b) => *b == json,
        };
        assert!(identical, "{label}: thread count {threads} changed the ensemble report");
        let speedup = base_wall / wall;
        println!(
            "{:>22} {:>8} {:>9} {:>8} {:>10} {:>12}",
            label,
            threads,
            fmt(wall),
            fmt(speedup),
            u64::from(identical),
            fmt(rep.mean()),
        );
        report.push_row([
            ("case", pp_bench::JsonValue::from(case)),
            ("threads", (threads as u64).into()),
            ("wall_s", wall.into()),
            ("speedup", speedup.into()),
            ("identical", identical.into()),
            ("converged", rep.converged().into()),
            ("mean", rep.mean().into()),
            ("std_dev", rep.std_dev().into()),
            ("q50", rep.quantile(0.5).into()),
            ("q90", rep.quantile(0.9).into()),
        ]);
    }
}
