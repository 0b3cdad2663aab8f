//! The batched agent engine against a real workload: the epidemic on a 2D
//! torus (§5's restricted interaction graphs at the topology the e23 bench
//! scales to), driven through the Probe and Tracer layers and cross-checked
//! against the sequential engine.

use pp_core::observe::MetricsProbe;
use pp_core::trace::{SpanKind, SpanStats};
use pp_core::{seeded_rng, AgentSimulation, FnProtocol, Protocol};
use pp_graphs::{torus2d, torus2d_csr, torus3d_csr};
use rand::RngCore;

fn epidemic() -> impl Protocol<State = bool, Input = bool, Output = bool> {
    FnProtocol::new(
        |&b: &bool| b,
        |&q: &bool| q,
        |&p: &bool, &q: &bool| (p || q, p || q),
    )
}

/// One infected agent in the torus corner, the rest susceptible.
fn patient_zero(n: usize) -> Vec<bool> {
    (0..n).map(|i| i == 0).collect()
}

#[test]
fn epidemic_on_torus_converges_batched() {
    let side = 16usize;
    let n = side * side;
    let g = torus2d_csr(side, side);
    assert_eq!(g.population(), n);
    assert_eq!(g.edge_count(), 4 * n);
    let mut sim =
        AgentSimulation::from_inputs(epidemic(), &patient_zero(n), g.scheduler());
    let mut rng = seeded_rng(23);
    // On a torus the epidemic needs O(n · diameter) interactions; 400n is
    // comfortable at side 16.
    let rep = sim.measure_stabilization(&true, 400 * n as u64, &mut rng);
    assert!(rep.converged(), "epidemic must cover the torus");
    assert_eq!(sim.consensus_output(), Some(&true));
    // The epidemic infects exactly n − 1 agents, one per effective step.
    assert_eq!(sim.effective_steps(), n as u64 - 1);
}

#[test]
fn epidemic_on_3d_torus_converges_batched() {
    // The 6-neighbor lattice rides the same CsrScheduler stencil path as
    // the 2D torus: nothing in the engine knows the dimension, and the
    // sort-free torus3d_csr layout must behave identically at equal n.
    let side = 8usize;
    let n = side * side * side;
    let g = torus3d_csr(side, side, side);
    assert_eq!(g.population(), n);
    assert_eq!(g.edge_count(), 6 * n);
    let mut sim =
        AgentSimulation::from_inputs(epidemic(), &patient_zero(n), g.scheduler());
    let mut rng = seeded_rng(24);
    let rep = sim.measure_stabilization(&true, 400 * n as u64, &mut rng);
    assert!(rep.converged(), "epidemic must cover the 3D torus");
    assert_eq!(sim.consensus_output(), Some(&true));
    assert_eq!(sim.effective_steps(), n as u64 - 1);
}

#[test]
fn occupancy_field_tracks_the_3d_epidemic_front() {
    // Spatial probe satellite meets the 3D generator satellite: the
    // mean cell entropy starts at ~0 (one infected corner), rises while
    // the front crosses cells, and returns to 0 at full infection.
    let side = 6usize;
    let n = side * side * side;
    let g = torus3d_csr(side, side, side);
    let mut field =
        pp_core::OccupancyFieldProbe::grid3d(side, side, side, 3, 3, 3);
    assert_eq!(field.cells(), 8);
    let mut sim =
        AgentSimulation::from_inputs(epidemic(), &patient_zero(n), g.scheduler());
    let mut rng = seeded_rng(25);
    sim.record_field(&mut field);
    assert_eq!(field.cell_population(0), 27);
    let mut peak = 0.0f64;
    while sim.effective_steps() < n as u64 - 1 {
        sim.run_batched(500, &mut rng).unwrap();
        sim.record_field(&mut field);
        peak = peak.max(field.mean_entropy());
    }
    assert!(peak > 0.1, "the sweeping front must raise cell entropy, got {peak}");
    assert_eq!(field.mean_entropy(), 0.0, "full infection is a pure field");
    let series = field.entropy_series();
    assert_eq!(series.len() as u64, field.records());
    // One infected corner: the initial field is nearly pure.
    assert!(series.first().unwrap().1 < 0.05);
}

#[test]
fn torus_batched_run_matches_sequential_with_probe() {
    let side = 8usize;
    let n = side * side;
    let steps = 40_000u64;
    let g = torus2d_csr(side, side);

    let mut seq =
        AgentSimulation::from_inputs(epidemic(), &patient_zero(n), g.scheduler())
            .with_probe(MetricsProbe::new());
    let mut rng = seeded_rng(7);
    seq.run(steps, &mut rng);
    let seq_word = rng.next_u64();

    let mut bat =
        AgentSimulation::from_inputs(epidemic(), &patient_zero(n), g.scheduler())
            .with_probe(MetricsProbe::new());
    let mut rng = seeded_rng(7);
    bat.run_batched(steps, &mut rng).unwrap();

    assert_eq!(seq.agents(), bat.agents());
    assert_eq!(rng.next_u64(), seq_word, "RNG streams diverged");
    // The probe saw the identical interaction sequence.
    assert_eq!(seq.probe().interactions(), bat.probe().interactions());
    assert_eq!(
        seq.probe().effective_interactions(),
        bat.probe().effective_interactions()
    );
}

#[test]
fn torus_batched_run_is_tracer_transparent() {
    let side = 8usize;
    let n = side * side;
    let steps = 30_000u64;
    let g = torus2d_csr(side, side);

    let mut plain =
        AgentSimulation::from_inputs(epidemic(), &patient_zero(n), g.scheduler());
    let mut rng = seeded_rng(97);
    plain.run_batched(steps, &mut rng).unwrap();
    let plain_word = rng.next_u64();

    let mut traced =
        AgentSimulation::from_inputs(epidemic(), &patient_zero(n), g.scheduler())
            .with_tracer(SpanStats::new());
    let mut rng = seeded_rng(97);
    traced.run_batched(steps, &mut rng).unwrap();

    assert_eq!(plain.agents(), traced.agents());
    assert_eq!(plain.effective_steps(), traced.effective_steps());
    assert_eq!(rng.next_u64(), plain_word, "RNG streams diverged");
    // The tracer recorded both pipeline stages, covering every step.
    let stats = traced.tracer();
    assert_eq!(stats.items(SpanKind::BatchSample), steps);
    assert_eq!(stats.items(SpanKind::BatchApply), steps);
}

#[test]
fn torus_tuple_and_csr_schedulers_agree() {
    // The same torus through the boxed edge-list path and the CSR path must
    // produce the same trajectory on the same seed: the CSR build preserves
    // the (sorted, deduplicated) edge order the edge list defines.
    let side = 6usize;
    let n = side * side;
    let tuple_graph = torus2d(side, side);
    let csr_graph = torus2d_csr(side, side);
    assert_eq!(tuple_graph.edge_count(), csr_graph.edge_count());

    let mut a = AgentSimulation::from_inputs(
        epidemic(),
        &patient_zero(n),
        tuple_graph.scheduler(),
    );
    let mut b = AgentSimulation::from_inputs(
        epidemic(),
        &patient_zero(n),
        csr_graph.scheduler(),
    );
    let mut rng_a = seeded_rng(41);
    let mut rng_b = seeded_rng(41);
    a.run(20_000, &mut rng_a);
    b.run_batched(20_000, &mut rng_b).unwrap();
    assert_eq!(a.agents(), b.agents());
}
