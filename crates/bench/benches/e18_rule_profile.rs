//! E18 (observability, beyond the paper) — which rules dominate each phase
//! of a protocol's trajectory, measured with `pp_core::observe`.
//!
//! Phase-by-phase rule-firing analysis is the standard tool of the modern
//! population-protocol literature (e.g. Kosowski–Uznański's potential
//! arguments): a protocol's runtime decomposes into phases, each driven by
//! one dominant rule whose firing rate sets the phase's length. This
//! experiment reproduces that style of analysis on two protocols:
//!
//! * **3-state approximate majority** (60/40 split) runs in three phases:
//!   (1) *duel* — the opposing committed opinions erase each other into
//!   blanks, all four rules firing; (2) *recruitment* — the minority
//!   opinion is extinct, so only `(One, Blank) → (One, One)` can fire and
//!   the blanks are absorbed; (3) *quiescent tail* — no reactive pair
//!   remains, the effective-interaction ratio is exactly 0.
//! * **leader election** has a single rule, `(L, L) → (L, F)`, so its
//!   profile is a collapse curve instead: between successive halvings of
//!   the leader count the effective ratio falls quadratically (two leaders
//!   must meet), which is exactly why the last merge costs Θ(n²)
//!   interactions (§6: E[T] = (n−1)²).
//!
//! Alongside the tables, the run emits `BENCH_e18_rule_profile.json` with
//! one row per phase plus the trajectory samples of the majority run.

use pp_bench::{fmt, print_header, BenchReport, JsonValue};
use pp_core::observe::{MetricsProbe, TrajectoryProbe};
use pp_core::{seeded_rng, Simulation, StateId};
use pp_protocols::ext::{ApproximateMajority, Opinion};
use pp_protocols::LeaderElection;

fn main() {
    let smoke = pp_bench::smoke();
    let n: u64 = if smoke { 48 } else { 400 };
    let mut report = BenchReport::new("e18_rule_profile");
    report.set_meta("n", n);

    println!("\nE18: per-rule firing profile by phase (n = {n})\n");
    approximate_majority_profile(n, &mut report);
    leader_election_profile(n, &mut report);
    report.write();
}

/// Closes a metrics window as one report row + table line, then reopens it.
fn flush_phase(
    report: &mut BenchReport,
    protocol: &str,
    phase: &str,
    metrics: &mut MetricsProbe,
    rt_name: impl Fn(StateId) -> String,
) {
    let interactions = metrics.interactions();
    let ratio = metrics.effective_ratio();
    let rules = metrics.rules_by_count();
    let rule_str = rules
        .iter()
        .map(|&((p, q), c)| format!("({},{})×{c}", rt_name(p), rt_name(q)))
        .collect::<Vec<_>>()
        .join("  ");
    println!(
        "{:>10} {:>12} {:>10} {:>9}  {}",
        protocol,
        phase,
        interactions,
        fmt(ratio),
        if rule_str.is_empty() { "-".to_owned() } else { rule_str.clone() }
    );
    let mut row: Vec<(String, JsonValue)> = vec![
        ("kind".into(), "phase".into()),
        ("protocol".into(), protocol.into()),
        ("phase".into(), phase.into()),
        ("interactions".into(), interactions.into()),
        ("effective".into(), metrics.effective_interactions().into()),
        ("effective_ratio".into(), ratio.into()),
    ];
    for &((p, q), c) in &rules {
        row.push((format!("fires_{}_{}", rt_name(p), rt_name(q)), c.into()));
    }
    report.push_row(row);
    metrics.reset_window();
}

fn approximate_majority_profile(n: u64, report: &mut BenchReport) {
    let ones = n * 6 / 10;
    report.set_meta("majority_split", format!("{ones}/{}", n - ones));
    println!("3-state approximate majority ({ones} One / {} Zero):", n - ones);
    print_header(&["protocol", "phase", "inter", "eff_ratio", "rule firings"], &[10, 12, 10, 9, 40]);

    let mut sim = Simulation::from_counts(ApproximateMajority, [(true, ones), (false, n - ones)])
        .with_probe((MetricsProbe::new(), TrajectoryProbe::new()));
    let mut rng = seeded_rng(18);
    let name = |sim: &Simulation<ApproximateMajority, _>, s: StateId| {
        format!("{:?}", sim.runtime().state(s))
    };

    // Phase 1 (duel): until the minority committed opinion is extinct.
    let cap = n * n * 100;
    while sim.count_of_state(&Opinion::Zero) > 0 && sim.steps() < cap {
        sim.step(&mut rng);
    }
    let rt_names: Vec<String> = (0..sim.runtime().state_count() as u32)
        .map(|i| name(&sim, StateId(i)))
        .collect();
    let label = |s: StateId| rt_names[s.index()].clone();
    flush_phase(report, "approx_maj", "duel", &mut sim.probe_mut().0, label);

    // Phase 2 (recruitment): only (One, Blank) → (One, One) can fire.
    while sim.count_of_state(&Opinion::Blank) > 0 && sim.steps() < cap {
        sim.step(&mut rng);
    }
    let label = |s: StateId| rt_names[s.index()].clone();
    flush_phase(report, "approx_maj", "recruitment", &mut sim.probe_mut().0, label);

    // Phase 3 (quiescent tail): every interaction is a no-op.
    let tail = if pp_bench::smoke() { 500 } else { 20_000 };
    sim.run(tail, &mut rng);
    let label = |s: StateId| rt_names[s.index()].clone();
    flush_phase(report, "approx_maj", "quiet_tail", &mut sim.probe_mut().0, label);

    // Occupancy curve: the log-sampled trajectory of the whole run.
    let trajectory = &sim.probe().1;
    for (step, occ) in trajectory.samples() {
        let mut row: Vec<(String, JsonValue)> = vec![
            ("kind".into(), "trajectory".into()),
            ("protocol".into(), "approx_maj".into()),
            ("step".into(), (*step).into()),
        ];
        for (i, &c) in occ.iter().enumerate() {
            row.push((format!("occ_{}", rt_names[i]), c.into()));
        }
        report.push_row(row);
    }
    println!(
        "  trajectory: {} log-spaced occupancy samples recorded\n",
        trajectory.samples().len()
    );
}

fn leader_election_profile(n: u64, report: &mut BenchReport) {
    println!("leader election (single rule (L,L)→(L,F); collapse profile):");
    print_header(&["protocol", "phase", "inter", "eff_ratio", "rule firings"], &[10, 12, 10, 9, 40]);

    let mut sim = Simulation::from_counts(LeaderElection, [((), n)])
        .with_probe(MetricsProbe::new());
    let mut rng = seeded_rng(19);
    let leader_name = {
        // States are interned at construction: only `true` exists so far;
        // `false` appears after the first merge.
        move |s: StateId| if s.index() == 0 { "L".to_owned() } else { "F".to_owned() }
    };

    // Segment the run at each halving of the leader count; the effective
    // ratio collapses quadratically as leaders thin out.
    let mut threshold = n / 2;
    loop {
        while sim.count_of_state(&true) > threshold.max(1) {
            sim.step(&mut rng);
        }
        flush_phase(
            report,
            "leader",
            &format!("to_{}_leaders", threshold.max(1)),
            sim.probe_mut(),
            leader_name,
        );
        if threshold <= 1 {
            break;
        }
        threshold /= 2;
    }
    println!();
}
