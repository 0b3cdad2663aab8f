//! Hostile input against the JSON codec and the `pp-server` front end.
//!
//! The parser recurses once per nesting level, and `pp-server` parses
//! request bodies on worker threads. A body of deeply nested `[` that
//! overflowed a worker stack would abort the whole process (a stack
//! overflow cannot be caught), so this file boots a real server and sends
//! one, populations whose total does not fit in a `u64`, an agents-engine
//! run whose complete topology would not fit in memory, a 3D torus whose
//! cell count overflows `usize`, and mean-field
//! and agents-engine runs of a protocol with a million reachable states.
//! It also pins the codec's writer to the checked-in wire format: every
//! server golden and bench history record re-renders to its exact bytes.

use std::path::Path;
use std::time::{Duration, Instant};

use population_protocols::core::json::{parse_json, MAX_DEPTH};
use population_protocols::server::{client, serve, ServerConfig};

fn repo_file(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn nested_bracket_bomb_is_a_parse_error_not_a_crash() {
    let s = serve(
        "127.0.0.1:0",
        ServerConfig {
            threads: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let bomb = "[".repeat(10_000);
    let resp = client::post(s.addr(), "/v1/run", &bomb).unwrap();
    assert_eq!(resp.status, 400, "{}", resp.text());
    assert_eq!(
        resp.text(),
        format!(
            "{{\"schema\":\"pp-error/v1\",\"code\":\"parse_error\",\
             \"error\":\"invalid JSON at byte {MAX_DEPTH}: nesting deeper than 64 levels\"}}"
        )
    );
    // The single worker survived and still answers.
    let health = client::get(s.addr(), "/healthz").unwrap();
    assert_eq!(health.status, 200);
    s.shutdown();
}

#[test]
fn population_total_past_u64_is_too_large_not_a_crash() {
    let s = serve(
        "127.0.0.1:0",
        ServerConfig {
            threads: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    // 2048 × 2^53 is exactly 2^64 (a wrapping sum gives 0); one more
    // symbol overshoots it. Each count is the largest integer a spec takes.
    for symbols in [2048, 2049] {
        let population: Vec<String> =
            (0..symbols).map(|i| format!("\"s{i}\":9007199254740992")).collect();
        let body = format!(
            "{{\"protocol\":{{\"name\":\"majority\"}},\"population\":{{{}}}}}",
            population.join(",")
        );
        let resp = client::post(s.addr(), "/v1/run", &body).unwrap();
        assert_eq!(resp.status, 413, "{symbols} symbols: {}", resp.text());
        assert!(resp.text().contains("\"code\":\"population_too_large\""), "{}", resp.text());
        assert_eq!(client::get(s.addr(), "/healthz").unwrap().status, 200);
    }
    s.shutdown();
}

#[test]
fn mean_field_past_the_closure_cap_is_a_fast_4xx_not_a_hang() {
    let s = serve(
        "127.0.0.1:0",
        ServerConfig {
            threads: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    // count-to-k reaches every count 0..=k; the mean-field drift is built
    // on the δ-closure, which used to enumerate all k² pairs.
    let body = r#"{"protocol":{"name":"count-to-k","k":1000000},"population":{"1":50,"0":50},"seed":1,"engine":"mean-field"}"#;
    let t0 = Instant::now();
    let resp = client::post(s.addr(), "/v1/run", body).unwrap();
    let elapsed = t0.elapsed();
    assert_eq!(resp.status, 400, "{}", resp.text());
    assert!(
        resp.text().starts_with("{\"schema\":\"pp-error/v1\",\"code\":\"unsupported\""),
        "{}",
        resp.text()
    );
    assert!(resp.text().contains("more than 256 distinct states"), "{}", resp.text());
    assert!(elapsed < Duration::from_secs(1), "refused after {elapsed:?}");
    let health = client::get(s.addr(), "/healthz").unwrap();
    assert_eq!(health.status, 200);
    s.shutdown();
}

#[test]
fn agents_complete_topology_past_the_edge_cap_is_a_fast_413() {
    // With no topology the agents engine runs on the complete graph,
    // whose edge list on 10⁵ agents holds ≈ 10¹⁰ directed edges (80 GB):
    // far under the population cap, far past what may be materialized.
    let s = serve(
        "127.0.0.1:0",
        ServerConfig {
            threads: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let body = r#"{"protocol":{"name":"count-to-k","k":3},"population":{"1":100000},"seed":1,"engine":"agents"}"#;
    let t0 = Instant::now();
    let resp = client::post(s.addr(), "/v1/run", body).unwrap();
    let elapsed = t0.elapsed();
    assert_eq!(resp.status, 413, "{}", resp.text());
    assert!(
        resp.text().starts_with("{\"schema\":\"pp-error/v1\",\"code\":\"topology_too_large\""),
        "{}",
        resp.text()
    );
    assert!(resp.text().contains("9999900000 directed edges"), "{}", resp.text());
    assert!(elapsed < Duration::from_secs(1), "refused after {elapsed:?}");
    assert_eq!(client::get(s.addr(), "/healthz").unwrap().status, 200);
    s.shutdown();
}

#[test]
fn torus3d_whose_size_overflows_is_a_400_not_a_crash() {
    // 4294967295³ overflows `usize`: the size check must refuse it, not
    // panic on the multiply (debug) or compare a wrapped product (release).
    let s = serve(
        "127.0.0.1:0",
        ServerConfig {
            threads: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let body = r#"{"protocol":{"name":"majority"},"population":{"1":6,"0":4},"seed":1,"engine":"agents","topology":{"kind":"torus3d","w":4294967295,"h":4294967295,"d":4294967295}}"#;
    let resp = client::post(s.addr(), "/v1/run", body).unwrap();
    assert_eq!(resp.status, 400, "{}", resp.text());
    assert!(
        resp.text().starts_with("{\"schema\":\"pp-error/v1\",\"code\":\"bad_field\""),
        "{}",
        resp.text()
    );
    assert!(resp.text().contains("needs population more than"), "{}", resp.text());
    assert_eq!(client::get(s.addr(), "/healthz").unwrap().status, 200);
    s.shutdown();
}

#[test]
fn agents_count_to_a_million_runs_without_a_closure() {
    // The agents engine looks transitions up lazily: only the counts the
    // run reaches are ever interned, so k = 10⁶ costs what k = 10 does.
    let s = serve(
        "127.0.0.1:0",
        ServerConfig {
            threads: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let body = r#"{"protocol":{"name":"count-to-k","k":1000000},"population":{"1":8,"0":8},"seed":1,"engine":"agents","topology":{"kind":"line"}}"#;
    let t0 = Instant::now();
    let resp = client::post(s.addr(), "/v1/run", body).unwrap();
    let elapsed = t0.elapsed();
    assert_eq!(resp.status, 200, "{}", resp.text());
    assert!(resp.text().contains("\"outputs\":{\"false\":16}"), "{}", resp.text());
    assert!(elapsed < Duration::from_secs(5), "ran for {elapsed:?}");
    s.shutdown();
}

#[test]
fn codec_re_renders_server_goldens_byte_for_byte() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/server");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("goldens dir")
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|n| n.ends_with(".json"))
        .collect();
    names.sort();
    assert!(names.len() >= 4, "goldens missing: {names:?}");
    for name in names {
        let text = repo_file(&format!("tests/goldens/server/{name}"));
        let v = parse_json(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(v.render(), text, "{name} does not round-trip");
    }
}

#[test]
fn codec_re_renders_bench_history_byte_for_byte() {
    let text = repo_file("BENCH_HISTORY.jsonl");
    let mut lines = 0;
    for (i, line) in text.lines().enumerate() {
        let v = parse_json(line).unwrap_or_else(|e| panic!("line {}: {e}", i + 1));
        assert_eq!(v.render(), line, "line {} does not round-trip", i + 1);
        lines += 1;
    }
    assert!(lines >= 4, "history has {lines} lines");
}
