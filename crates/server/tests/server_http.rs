//! End-to-end tests over real sockets: boot `pp-server` workers on
//! loopback, drive them with the bundled client, and hard-assert the
//! service contract — byte-reproducible seeded reports across fresh
//! server instances and thread counts, and structured (never panicking)
//! errors for malformed or oversized requests.

use pp_server::client;
use pp_server::{serve, Server, ServerConfig};

fn boot(workers: usize) -> Server {
    serve(
        "127.0.0.1:0",
        ServerConfig { threads: workers, ..ServerConfig::default() },
    )
    .expect("bind loopback")
}

const ENSEMBLE_SPEC_T1: &str = r#"{
    "protocol": {"formula": "a > b"},
    "population": {"a": 6, "b": 4},
    "seed": 42,
    "engine": "batched",
    "trials": 8,
    "threads": 1,
    "horizon": 30000
}"#;

const ENSEMBLE_SPEC_T2: &str = r#"{
    "protocol": {"formula": "a > b"},
    "population": {"a": 6, "b": 4},
    "seed": 42,
    "engine": "batched",
    "trials": 8,
    "threads": 2,
    "horizon": 30000
}"#;

#[test]
fn reports_byte_identical_across_instances_and_thread_counts() {
    // Two fresh server processes-worth of state: separate listeners,
    // separate caches, different worker-pool sizes.
    let a = boot(1);
    let b = boot(4);

    let ra = client::post(a.addr(), "/v1/run", ENSEMBLE_SPEC_T1).unwrap();
    let rb = client::post(b.addr(), "/v1/run", ENSEMBLE_SPEC_T2).unwrap();
    assert_eq!(ra.status, 200, "body: {}", ra.text());
    assert_eq!(rb.status, 200, "body: {}", rb.text());
    // The hard guarantee: same seeded request → identical report BYTES,
    // on a fresh instance, at a different ensemble thread count.
    assert_eq!(ra.body, rb.body);

    // And across a restart of the same configuration.
    let a2 = boot(1);
    let ra2 = client::post(a2.addr(), "/v1/run", ENSEMBLE_SPEC_T1).unwrap();
    assert_eq!(ra.body, ra2.body);

    let report = ra.text();
    assert!(report.starts_with("{\"schema\":\"pp-run/v1\""));
    assert!(report.contains("\"ground_truth\":true"));

    a.shutdown();
    b.shutdown();
    a2.shutdown();
}

#[test]
fn compile_cache_hit_is_byte_identical_and_reported() {
    let s = boot(2);
    let cold = client::post(s.addr(), "/v1/run", ENSEMBLE_SPEC_T1).unwrap();
    let warm = client::post(s.addr(), "/v1/run", ENSEMBLE_SPEC_T1).unwrap();
    assert_eq!(cold.status, 200);
    assert_eq!(warm.status, 200);
    assert_eq!(cold.header("x-pp-cache"), Some("miss"));
    assert_eq!(warm.header("x-pp-cache"), Some("hit"));
    // Cache state must be invisible in the body.
    assert_eq!(cold.body, warm.body);

    let stats = client::get(s.addr(), "/v1/cache").unwrap();
    assert_eq!(stats.status, 200);
    let text = stats.text();
    assert!(text.contains("\"schema\":\"pp-cache/v1\""), "{text}");
    assert!(text.contains("\"hits\":1"), "{text}");
    assert!(text.contains("\"misses\":1"), "{text}");
    s.shutdown();
}

#[test]
fn malformed_and_oversized_requests_get_structured_errors() {
    let s = boot(2);
    let cases: &[(&str, u16, &str)] = &[
        // Unparseable JSON.
        ("{not json", 400, "parse_error"),
        // Typo'd field.
        (
            r#"{"protocol":{"name":"majority"},"population":{"0":2,"1":3},"sede":1}"#,
            400,
            "unknown_field",
        ),
        // Unknown protocol name.
        (
            r#"{"protocol":{"name":"no-such"},"population":{"0":2,"1":3}}"#,
            400,
            "unknown_protocol",
        ),
        // Unknown population symbol for the resolved protocol.
        (
            r#"{"protocol":{"name":"majority"},"population":{"yes":2,"no":3}}"#,
            400,
            "unknown_symbol",
        ),
        // Oversized population -> 413.
        (
            r#"{"protocol":{"name":"majority"},"population":{"0":99999999999,"1":3}}"#,
            413,
            "population_too_large",
        ),
        // Fault drop probability outside [0, 1) must be a structured
        // error, not the InteractionDrop constructor panic.
        (
            r#"{"protocol":{"name":"majority"},"population":{"0":2,"1":3},"faults":{"drop":1.5}}"#,
            400,
            "bad_field",
        ),
    ];
    for (body, want_status, want_code) in cases {
        let resp = client::post(s.addr(), "/v1/run", body).unwrap();
        assert_eq!(resp.status, *want_status, "request {body}: {}", resp.text());
        let text = resp.text();
        assert!(text.contains("\"schema\":\"pp-error/v1\""), "{text}");
        assert!(text.contains(&format!("\"code\":\"{want_code}\"")), "{text}");
    }

    // Unknown route and wrong method.
    let resp = client::get(s.addr(), "/v1/nope").unwrap();
    assert_eq!(resp.status, 404);
    let resp = client::get(s.addr(), "/v1/run").unwrap();
    assert_eq!(resp.status, 404);

    // A body over the configured cap is refused, not buffered, and the
    // refusal reaches the client every time: the server drains the unread
    // body before closing, so no RST destroys the 413 in flight.
    let huge = format!(
        r#"{{"protocol":{{"name":"majority"}},"population":{{"0":2,"1":3}},"pad":"{}"}}"#,
        "x".repeat(2 << 20)
    );
    for attempt in 0..20 {
        let resp = client::post(s.addr(), "/v1/run", &huge)
            .unwrap_or_else(|e| panic!("oversized POST #{attempt}: {e}"));
        assert_eq!(resp.status, 413, "oversized POST #{attempt}");
        assert!(resp.text().contains("body_too_large"), "{}", resp.text());
    }

    // After all of that abuse every worker is still alive.
    for _ in 0..4 {
        let health = client::get(s.addr(), "/healthz").unwrap();
        assert_eq!(health.status, 200);
    }
    s.shutdown();
}

#[test]
fn stream_endpoint_emits_jsonl_then_final_report() {
    let s = boot(2);
    let spec = r#"{
        "protocol": {"name": "parity"},
        "population": {"0": 4, "1": 3},
        "seed": 9,
        "horizon": 5000,
        "probe": {"kind": "jsonl", "stride": 50}
    }"#;
    let one = client::post(s.addr(), "/v1/stream", spec).unwrap();
    let two = client::post(s.addr(), "/v1/stream", spec).unwrap();
    assert_eq!(one.status, 200, "body: {}", one.text());
    assert_eq!(one.header("x-pp-body"), Some("jsonl"));
    // Streams are seeded runs too: byte-identical on replay.
    assert_eq!(one.body, two.body);

    let text = one.text();
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() >= 3, "want events + summary + report, got {text}");
    for line in &lines {
        assert!(line.starts_with('{') && line.ends_with('}'), "not JSONL: {line}");
    }
    assert!(
        lines[lines.len() - 1].starts_with("{\"schema\":\"pp-run/v1\""),
        "missing final report line"
    );

    // Ensembles cannot stream; the error is structured.
    let bad = r#"{
        "protocol": {"name": "parity"},
        "population": {"0": 4, "1": 3},
        "trials": 4,
        "probe": {"kind": "jsonl"}
    }"#;
    let resp = client::post(s.addr(), "/v1/stream", bad).unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.text().contains("unsupported"));
    s.shutdown();
}

#[test]
fn protocols_endpoint_lists_registry_and_backends() {
    let s = boot(1);
    let resp = client::get(s.addr(), "/v1/protocols").unwrap();
    assert_eq!(resp.status, 200);
    let text = resp.text();
    assert!(text.contains("\"majority\""), "{text}");
    assert!(text.contains("\"parity\""), "{text}");
    assert!(text.contains("\"approximate-majority\""), "{text}");
    assert!(text.contains("\"count-to-k\""), "{text}");
    assert!(text.contains("\"cooper-product\""), "{text}");
    s.shutdown();
}

#[test]
fn agents_mean_field_and_fault_requests_run_end_to_end() {
    let s = boot(2);

    // Agents engine over a line topology (Theorem 7 simulation).
    let agents = r#"{
        "protocol": {"name": "majority"},
        "population": {"1": 5, "0": 3},
        "seed": 3,
        "engine": "agents",
        "topology": {"kind": "line"},
        "horizon": 400000
    }"#;
    let resp = client::post(s.addr(), "/v1/run", agents).unwrap();
    assert_eq!(resp.status, 200, "body: {}", resp.text());
    let text = resp.text();
    assert!(text.contains("\"engine\":\"agents\""), "{text}");
    assert!(text.contains("\"edges\":"), "{text}");

    // Mean-field query.
    let mf = r#"{
        "protocol": {"name": "majority"},
        "population": {"1": 600, "0": 400},
        "engine": "mean-field",
        "mean_field": {"horizon": 50.0}
    }"#;
    let resp = client::post(s.addr(), "/v1/run", mf).unwrap();
    assert_eq!(resp.status, 200, "body: {}", resp.text());
    let one = resp.text();
    assert!(one.contains("\"kind\":\"mean-field\""), "{one}");
    assert!(one.contains("terminal_fractions"), "{one}");
    // Deterministic, and served from the drift cache the second time.
    let two = client::post(s.addr(), "/v1/run", mf).unwrap();
    assert_eq!(resp.body, two.body);

    // Fault ensemble.
    let faults = r#"{
        "protocol": {"name": "majority"},
        "population": {"1": 6, "0": 4},
        "seed": 11,
        "trials": 4,
        "horizon": 60000,
        "faults": {"crash": [[500, 1]]}
    }"#;
    let resp = client::post(s.addr(), "/v1/run", faults).unwrap();
    assert_eq!(resp.status, 200, "body: {}", resp.text());
    let text = resp.text();
    assert!(text.contains("\"kind\":\"faults\""), "{text}");
    assert!(text.contains("pp-mttr/v1"), "{text}");
    s.shutdown();
}
