//! E10 — Theorem 7 / Fig. 1: the baton simulator runs complete-graph
//! protocols on arbitrary weakly-connected graphs.
//!
//! Majority on the complete graph (bare protocol) vs the transformed
//! protocol A′ on complete / line / cycle / star / random graphs. The
//! paper proves correctness, not speed — the measured slowdown factors
//! quantify the price of generality.
//!
//! Both sides route through the unified [`pp_core::spec`] dispatcher:
//! the baseline is a sequential `run_counts` ensemble, the graph cases
//! are `run_agents` ensembles over each topology's sampler — the same
//! seams `pp-server` resolves `RunSpec` requests through.

use pp_bench::{fmt, print_header};
use pp_core::seeded_rng;
use pp_core::spec::{
    run_agents, run_counts, EngineSel, ProtocolRef, RunOutcome, RunSpec,
};
use pp_graphs as graphs;
use pp_protocols::{majority, GraphSimulator};

/// The shared spec shape: a stabilization ensemble.
fn spec_for(trials: u64, master_seed: u64, horizon: u64, engine: EngineSel) -> RunSpec {
    let mut spec = RunSpec::new(
        ProtocolRef::Name { name: "majority".into(), params: vec![] },
        // Population mirrors the dispatched pair order (0s first), which
        // fixes the state-interning order.
        vec![],
        master_seed,
    );
    spec.engine = engine;
    spec.trials = trials;
    spec.horizon = Some(horizon);
    spec
}

fn main() {
    let n = 10usize;
    let ones = 6usize;
    let expected = true;
    println!("\nE10: Theorem 7 — majority via the Fig. 1 simulator, n = {n}, {ones} ones\n");
    print_header(&["graph", "edges", "runs", "E[stabilize]", "slowdown"], &[16, 6, 5, 14, 10]);

    let inputs: Vec<usize> = (0..n).map(|i| usize::from(i < ones)).collect();
    let trials = if pp_bench::smoke() { 3u64 } else { 30u64 };

    // Baseline: bare protocol on the complete graph, through the
    // sequential count engine.
    let mut base_spec = spec_for(trials, 0, 400_000, EngineSel::Sequential);
    base_spec.population =
        vec![("0".into(), (n - ones) as u64), ("1".into(), ones as u64)];
    let base_outcome = run_counts(
        &base_spec,
        &majority(),
        &[(0usize, (n - ones) as u64), (1usize, ones as u64)],
        &expected,
    )
    .expect("baseline dispatch");
    let base_report = match base_outcome {
        RunOutcome::Ensemble(rep) => rep,
        other => panic!("expected an ensemble outcome, got {other:?}"),
    };
    assert_eq!(base_report.converged(), trials, "baseline stabilizes");
    let base = base_report.mean();
    println!(
        "{:>16} {:>6} {:>5} {:>14} {:>10}",
        "bare (complete)",
        n * (n - 1),
        trials,
        fmt(base),
        fmt(1.0)
    );

    let mut rng0 = seeded_rng(99);
    let cases: Vec<(&str, graphs::InteractionGraph)> = vec![
        ("A' complete", graphs::complete(n)),
        ("A' line", graphs::undirected_line(n)),
        ("A' cycle", graphs::undirected_cycle(n)),
        ("A' star", graphs::star(n)),
        ("A' random(0.3)", graphs::erdos_renyi_connected(n, 0.3, &mut rng0)),
    ];
    for (name, g) in cases {
        let spec = spec_for(trials, 1000, 4_000_000, EngineSel::Agents);
        let outcome = run_agents(
            &spec,
            &GraphSimulator::new(majority()),
            &inputs,
            &expected,
            || g.scheduler(),
        )
        .expect("graph dispatch");
        let report = match outcome {
            RunOutcome::Ensemble(rep) => rep,
            other => panic!("expected an ensemble outcome, got {other:?}"),
        };
        assert_eq!(report.converged(), trials, "{name} stabilizes");
        let m = report.mean();
        println!(
            "{:>16} {:>6} {:>5} {:>14} {:>10}",
            name,
            g.edge_count(),
            trials,
            fmt(m),
            fmt(m / base)
        );
    }

    println!("\npaper: A' stably computes the predicate on every weakly-connected graph;");
    println!("sparser graphs pay a polynomial slowdown (state tokens random-walk)\n");
}
