//! E17 (robustness, beyond the paper) — recovery time vs corruption
//! fraction under the `pp_core::faults` transient-corruption model.
//!
//! §8 of the paper raises fault tolerance as an open direction; this
//! experiment measures it. A population stabilizes, an adversary rewrites
//! a fraction φ of the agents, and we record how many further interactions
//! the protocol needs to make every output correct again (the
//! `RecoveryReport` of `run_with_faults`):
//!
//! * **approximate majority** (3-state, no conserved tally) recovers from
//!   any corruption fraction below its margin, with recovery time growing
//!   with φ;
//! * **exact majority** (Lemma 5, verdict carried by a conserved sum)
//!   recovers only while the corrupted sum still has the original sign —
//!   past that, it stabilizes to the wrong answer and the recovery rate
//!   collapses to zero.
//!
//! The sweep is also emitted as `BENCH_e17_fault_recovery.json`.

use pp_bench::{fmt, mean, print_header, BenchReport};
use pp_core::ensemble::Ensemble;
use pp_core::faults::TransientCorruption;
use pp_core::{Protocol, Simulation};
use pp_protocols::ext::{ApproximateMajority, Opinion};
use pp_protocols::majority;

/// Population size, one-votes (70/30 split: wide margin, stable output
/// `true`), trials per φ, and per-protocol burst step / horizon — scaled
/// down under `PP_BENCH_SMOKE`.
struct Params {
    n: u64,
    ones: u64,
    trials: u64,
    approx_burst: u64,
    approx_horizon: u64,
    exact_burst: u64,
    exact_horizon: u64,
}

impl Params {
    fn get() -> Self {
        if pp_bench::smoke() {
            Self {
                n: 60,
                ones: 42,
                trials: 3,
                approx_burst: 4_000,
                approx_horizon: 40_000,
                exact_burst: 30_000,
                exact_horizon: 400_000,
            }
        } else {
            Self {
                n: 200,
                ones: 140,
                trials: 20,
                approx_burst: 40_000,
                approx_horizon: 400_000,
                exact_burst: 300_000,
                exact_horizon: 4_000_000,
            }
        }
    }
}

fn main() {
    let p = Params::get();
    let (n, ones) = (p.n, p.ones);
    // `threads` and `wall_s` land in the report header automatically.
    let mut report = BenchReport::new("e17_fault_recovery");
    report.set_meta("n", n).set_meta("ones", ones).set_meta("trials", p.trials);

    println!("\nE17: recovery time vs corruption fraction (n = {n}, {ones} one-votes)");
    println!("burst: ⌈φn⌉ agents rewritten adversarially after stabilization\n");
    print_header(
        &["phi", "approx_recov", "approx_time", "exact_recov", "exact_time"],
        &[5, 12, 12, 11, 12],
    );

    for phi in [0.05f64, 0.10, 0.20, 0.30, 0.40, 0.50] {
        let k = (phi * n as f64).ceil() as u64;

        // 3-state approximate majority: corrupt to Blank (the recruitable
        // neutral state — an adversary erasing memories).
        let (ar, at) = sweep(
            &p,
            || Simulation::from_counts(ApproximateMajority, [(true, ones), (false, n - ones)]),
            TransientCorruption::adversarial_at(p.approx_burst, k, Opinion::Blank),
            p.approx_horizon,
        );

        // Exact Lemma 5 majority: corrupt to fresh zero-votes (the
        // adversary stuffing ballots for the minority).
        let (er, et) = sweep(
            &p,
            || Simulation::from_counts(majority(), [(1usize, ones), (0usize, n - ones)]),
            TransientCorruption::adversarial_at(p.exact_burst, k, majority().input(&0usize)),
            p.exact_horizon,
        );

        println!(
            "{:>5} {:>12} {:>12} {:>11} {:>12}",
            fmt(phi),
            fmt(ar),
            fmt(at),
            fmt(er),
            fmt(et)
        );
        report.push_row([
            ("phi", pp_bench::JsonValue::from(phi)),
            ("corrupted", k.into()),
            ("approx_recovery_rate", ar.into()),
            ("approx_recovery_time", at.into()),
            ("exact_recovery_rate", er.into()),
            ("exact_recovery_time", et.into()),
        ]);
    }

    println!("\nreading: approx recovers across the sweep (time grows with phi);");
    println!("exact majority recovers only while the corrupted sum keeps the");
    println!("original sign — each post-stabilization corruption adds +1, so the");
    println!("verdict flips once ceil(phi*n) exceeds the margin {m} (phi = {f});", m = 2 * ones - n, f = fmt((2 * ones - n) as f64 / n as f64));
    println!("past that it stabilizes wrong: recovery rate 0, no recovery time\n");
    report.write();
}

/// Runs `trials` faulted runs through the multi-threaded ensemble executor
/// (`PP_THREADS` workers; trial `i` keeps the legacy `seeded_rng(i)`
/// stream, so the sweep's statistics are byte-identical to the former
/// sequential loop); returns (recovery rate, mean recovery time over the
/// recovering trials).
fn sweep<P, F>(
    params: &Params,
    make: F,
    plan: TransientCorruption<P::State>,
    horizon: u64,
) -> (f64, f64)
where
    P: Protocol<Output = bool>,
    P::State: Clone + Sync,
    F: Fn() -> Simulation<P> + Sync,
{
    let rep = Ensemble::new(params.trials, 0)
        .legacy_offset_seeds()
        .run_with_faults(|_trial| (make(), plan.clone()), &true, horizon);
    (rep.recovery_rate(), mean(&rep.final_recovery_times()))
}
