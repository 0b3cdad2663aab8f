//! Streaming and plain runs of the same spec agree.
//!
//! `execute_stream` runs a single count-engine trial with a `JsonlSink`
//! probe attached and ends its body with the `pp-run/v1` report line. A
//! probe only observes and never draws randomness — on the batched engine
//! too, whose windows feed it without changing the sampler (see
//! `pp_core::batch`) — so that report's `result` is exactly the `result`
//! of `execute` on the same spec without the probe, for every engine and
//! stop condition. One population has 300 agents, so its batched runs are
//! on windows; the other two are below `BATCHED_MIN_POPULATION` and step
//! sequentially. Combinations the stream refuses must be refused with
//! the same error by both paths.

use population_protocols::core::json::{parse_json, JsonValue};
use population_protocols::core::spec::{
    EngineSel, ProbeSpec, ProtocolRef, RunSpec, SpecError, StopCondition,
};
use population_protocols::server::{execute, execute_stream, CompiledCache, ExecOptions};

fn specs() -> Vec<RunSpec> {
    let majority = ProtocolRef::Name { name: "majority".to_string(), params: vec![] };
    let formula = ProtocolRef::Formula("a > b + 1".to_string());
    let mut out = Vec::new();
    for (protocol, population) in [
        (majority.clone(), vec![("1".to_string(), 7), ("0".to_string(), 5)]),
        (formula, vec![("a".to_string(), 9), ("b".to_string(), 4)]),
        (majority, vec![("1".to_string(), 160), ("0".to_string(), 140)]),
    ] {
        for seed in [1, 29] {
            for (engine, stop) in [
                (EngineSel::Sequential, StopCondition::Stabilization),
                (EngineSel::Sequential, StopCondition::FixedSteps),
                (EngineSel::Sequential, StopCondition::Consensus),
                (EngineSel::Batched, StopCondition::Stabilization),
                (EngineSel::Batched, StopCondition::FixedSteps),
            ] {
                let mut spec = RunSpec::new(protocol.clone(), population.clone(), seed);
                spec.engine = engine;
                spec.stop = stop;
                spec.horizon = Some(4_000);
                out.push(spec);
            }
        }
    }
    out
}

fn streamed(spec: &RunSpec, stride: u64) -> Result<String, SpecError> {
    let mut spec = spec.clone();
    spec.probe = ProbeSpec { jsonl: true, stride };
    let mut body = Vec::new();
    execute_stream(&spec, &CompiledCache::new(), &ExecOptions::default(), &mut body)?;
    Ok(String::from_utf8(body).expect("stream body is UTF-8"))
}

fn result_of(report_json: &str) -> JsonValue {
    let v = parse_json(report_json).expect("report is JSON");
    v.get("result").expect("report has a result").clone()
}

#[test]
fn stream_report_result_equals_plain_result() {
    for spec in specs() {
        let name = spec.canonical_json();
        let (plain, _) = execute(&spec, &CompiledCache::new(), &ExecOptions::default())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let want = result_of(&plain.to_json());
        assert_eq!(want.get("kind").and_then(JsonValue::as_str), Some("single"), "{name}");
        for stride in [1, 7] {
            let body = streamed(&spec, stride).unwrap();
            let got = result_of(body.lines().last().expect("stream has a report line"));
            assert_eq!(got.render(), want.render(), "{name} at stride {stride}");
        }
    }
}

#[test]
fn consensus_on_batched_is_unsupported_on_both_paths() {
    let mut spec = RunSpec::new(
        ProtocolRef::Name { name: "majority".to_string(), params: vec![] },
        vec![("1".to_string(), 7), ("0".to_string(), 5)],
        3,
    );
    spec.engine = EngineSel::Batched;
    spec.stop = StopCondition::Consensus;
    spec.horizon = Some(4_000);
    let plain = execute(&spec, &CompiledCache::new(), &ExecOptions::default()).unwrap_err();
    let stream = streamed(&spec, 1).unwrap_err();
    assert_eq!(plain.code(), "unsupported");
    assert_eq!(stream.code(), plain.code());
    assert_eq!(stream.to_string(), plain.to_string());
}
