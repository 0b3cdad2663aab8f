//! Routing of `engine: "batched"` requests by population size.
//!
//! Below `BATCHED_MIN_POPULATION` agents a batched request steps
//! sequentially: both count engines sample the same uniform-pairing
//! chain, and at service sizes one draw per interaction is cheaper than a
//! window. So a small batched request's `result` must be the sequential
//! request's byte for byte, through `execute` and `execute_stream`, for
//! every stop condition and trial count, refusals included. The boundary
//! itself is pinned by counting batched sweeps in a traced run.

use population_protocols::core::json::{parse_json, JsonValue};
use population_protocols::core::spec::{
    run_single, EngineSel, ProbeSpec, ProtocolRef, RunSpec, SpecError, StopCondition,
    BATCHED_MIN_POPULATION,
};
use population_protocols::core::{Simulation, SpanKind, SpanStats};
use population_protocols::protocols::majority;
use population_protocols::server::{execute, execute_stream, CompiledCache, ExecOptions};
use proptest::prelude::*;

/// The `result` object of `spec` through `execute`, or its error.
fn run_result(spec: &RunSpec) -> Result<String, SpecError> {
    let (report, _) = execute(spec, &CompiledCache::new(), &ExecOptions::default())?;
    let v = parse_json(&report.to_json()).expect("report is JSON");
    Ok(v.get("result").expect("report has a result").render())
}

/// The whole `/v1/stream` body of `spec` with a stride-`stride` probe,
/// minus the final report line, and that line's `result`.
fn stream_result(spec: &RunSpec, stride: u64) -> Result<(String, String), SpecError> {
    let mut spec = spec.clone();
    spec.probe = ProbeSpec { jsonl: true, stride };
    let mut body = Vec::new();
    execute_stream(&spec, &CompiledCache::new(), &ExecOptions::default(), &mut body)?;
    let body = String::from_utf8(body).expect("stream body is UTF-8");
    let (events, report) = body.trim_end().rsplit_once('\n').expect("events and a report");
    let v = parse_json(report).expect("report line is JSON");
    let result: &JsonValue = v.get("result").expect("report has a result");
    Ok((events.to_string(), result.render()))
}

fn with_engine(spec: &RunSpec, engine: EngineSel) -> RunSpec {
    let mut spec = spec.clone();
    spec.engine = engine;
    spec
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn batched_below_the_threshold_equals_sequential(
        n in 2u64..BATCHED_MIN_POPULATION,
        ones_pct in 0u64..101,
        protocol in 0usize..3,
        seed in 0u64..10_000,
        fixed in any::<bool>(),
        four_trials in any::<bool>(),
        horizon in 1u64..4_000,
        stride in 1u64..40,
    ) {
        let name = ["majority", "approximate-majority", "parity"][protocol];
        let ones = (n * ones_pct / 100).clamp(1, n - 1);
        let mut spec = RunSpec::new(
            ProtocolRef::Name { name: name.to_string(), params: vec![] },
            vec![("1".to_string(), ones), ("0".to_string(), n - ones)],
            seed,
        );
        spec.stop = if fixed { StopCondition::FixedSteps } else { StopCondition::Stabilization };
        spec.trials = if four_trials { 4 } else { 1 };
        spec.horizon = Some(horizon);
        let seq = with_engine(&spec, EngineSel::Sequential);
        let bat = with_engine(&spec, EngineSel::Batched);
        let what = bat.canonical_json();

        prop_assert_eq!(run_result(&bat), run_result(&seq), "execute: {}", what);
        prop_assert_eq!(
            stream_result(&bat, stride),
            stream_result(&seq, stride),
            "execute_stream: {}",
            what
        );
    }
}

/// Batched sweeps recorded by `run_single` on a batched majority spec of
/// `n` agents under `stop`.
fn batch_sweeps(n: u64, stop: StopCondition) -> u64 {
    let ones = n / 2 + 1;
    let mut spec = RunSpec::new(
        ProtocolRef::Name { name: "majority".to_string(), params: vec![] },
        vec![("1".to_string(), ones), ("0".to_string(), n - ones)],
        5,
    );
    spec.engine = EngineSel::Batched;
    spec.stop = stop;
    spec.horizon = Some(5_000);
    let mut sim = Simulation::from_counts(majority(), [(1usize, ones), (0usize, n - ones)])
        .with_tracer(SpanStats::new());
    run_single(&spec, &mut sim, &true).expect("batched majority runs");
    sim.tracer().count(SpanKind::BatchSample)
}

#[test]
fn windows_start_at_the_threshold() {
    assert_eq!(BATCHED_MIN_POPULATION, 256);
    for stop in [StopCondition::Stabilization, StopCondition::FixedSteps] {
        assert_eq!(batch_sweeps(BATCHED_MIN_POPULATION - 1, stop), 0, "{stop:?}");
        assert!(batch_sweeps(BATCHED_MIN_POPULATION, stop) > 0, "{stop:?}");
    }
}
