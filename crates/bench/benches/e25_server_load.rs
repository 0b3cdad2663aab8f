//! E25 — protocol-as-a-service load: `pp-server` under concurrent clients.
//!
//! Not a paper claim: this table characterizes PR 10's HTTP layer. The
//! server's contract is that concurrency is *invisible in the bytes* —
//! worker threads, connection interleaving, and cache state may only move
//! timing headers, never report bodies. Three sections:
//!
//! * **Load** (`load` rows): `C` client threads hammer one server with a
//!   scripted mix of named-protocol ensemble runs and formula
//!   compile-and-run requests (the same two seeded specs over and over).
//!   Each row records requests/sec, p50/p99 round-trip latency, and an
//!   `identical` cell that is 1 only if *every* response body matched the
//!   single-connection reference byte-for-byte. The bench hard-asserts
//!   `identical == 1` and that the run held at least 4 concurrent
//!   connections.
//! * **Compile cache** (`cache` row): against a fresh server, the first
//!   formula request must report `X-PP-Cache: miss` and every replay
//!   `hit`; the row records the server-side `X-PP-Elapsed-Us` for both
//!   and the hit-path speedup (cold ÷ mean warm). The speedup is a
//!   hardware-dependent measurement, not an assert — the headers are the
//!   hard contract.
//! * **Health** (`health` row): after the storm, `GET /healthz` from
//!   every client thread — the workers must all still answer.
//!
//! `p50_us`/`p99_us`/`rps`/`speedup` are wall-clock cells for the
//! `ppbench-compare` gate to watch; `identical` is the machine-checked
//! determinism guarantee. Results land in `BENCH_e25_server_load.json`.

use std::time::Instant;

use pp_bench::{fmt, print_header, BenchReport};
use pp_core::trace::RunManifest;
use pp_server::client;
use pp_server::{serve, Server, ServerConfig};

/// A seeded named-protocol ensemble: majority on n = 10, 4 trials.
const NAMED_SPEC: &str = r#"{
    "protocol": {"name": "majority"},
    "population": {"1": 6, "0": 4},
    "seed": 7,
    "engine": "batched",
    "trials": 4,
    "horizon": 30000
}"#;

/// A seeded formula run: compiled through the cache, then simulated.
const FORMULA_SPEC: &str = r#"{
    "protocol": {"formula": "a > b"},
    "population": {"a": 6, "b": 4},
    "seed": 42,
    "engine": "batched",
    "trials": 4,
    "horizon": 30000
}"#;

/// The cache-section spec: a compile-heavy formula (conjunction of a
/// remainder atom and a weighted threshold, so Cooper QE builds a real
/// product) over a run light enough that the compile dominates the cold
/// request. This is what makes the hit-path speedup visible.
const CACHE_SPEC: &str = r#"{
    "protocol": {"formula": "a = 2 mod 7 /\\ b = 3 mod 5 /\\ a + 2*b > 15"},
    "population": {"a": 9, "b": 4},
    "seed": 5,
    "trials": 1,
    "horizon": 2000
}"#;

struct Params {
    clients: usize,
    requests_per_client: usize,
    warm_hits: usize,
}

impl Params {
    fn get() -> Self {
        if pp_bench::smoke() {
            Self { clients: 4, requests_per_client: 6, warm_hits: 4 }
        } else {
            Self { clients: 8, requests_per_client: 32, warm_hits: 16 }
        }
    }
}

fn boot(workers: usize) -> Server {
    serve("127.0.0.1:0", ServerConfig { threads: workers, ..ServerConfig::default() })
        .expect("bind loopback")
}

fn main() {
    let p = Params::get();
    let mut report = BenchReport::new("e25_server_load");
    report
        .set_meta("clients", p.clients as u64)
        .set_meta("requests_per_client", p.requests_per_client as u64)
        .set_manifest(
            RunManifest::default()
                .with_protocol("majority + compiled a > b")
                .with_population(10)
                .with_master_seed(7)
                .with_threads(p.clients as u64)
                .with_detected_git_rev(),
        );

    println!(
        "\nE25: pp-server load — {} clients x {} requests, one server, 4 workers",
        p.clients, p.requests_per_client
    );
    println!("identical=1 means every concurrent response matched the");
    println!("single-connection reference body byte-for-byte\n");
    print_header(
        &["case", "clients", "reqs", "wall_s", "rps", "p50_us", "p99_us", "identical"],
        &[8, 8, 6, 9, 9, 9, 9, 10],
    );

    // ---- Load section -----------------------------------------------------
    let server = boot(4);
    let addr = server.addr();

    // Reference bodies over a single connection, before any concurrency.
    let ref_named = client::post(addr, "/v1/run", NAMED_SPEC).expect("reference named run");
    let ref_formula =
        client::post(addr, "/v1/run", FORMULA_SPEC).expect("reference formula run");
    assert_eq!(ref_named.status, 200, "reference named run: {}", ref_named.text());
    assert_eq!(ref_formula.status, 200, "reference formula run: {}", ref_formula.text());

    let t0 = Instant::now();
    let handles: Vec<_> = (0..p.clients)
        .map(|c| {
            let named = ref_named.body.clone();
            let formula = ref_formula.body.clone();
            let reqs = p.requests_per_client;
            std::thread::spawn(move || {
                let mut lat_us = Vec::with_capacity(reqs);
                let mut identical = true;
                for i in 0..reqs {
                    // Alternate the mix; stagger the phase per client.
                    let (spec, want) = if (i + c) % 2 == 0 {
                        (NAMED_SPEC, &named)
                    } else {
                        (FORMULA_SPEC, &formula)
                    };
                    let t = Instant::now();
                    let resp = client::post(addr, "/v1/run", spec).expect("request");
                    lat_us.push(t.elapsed().as_micros() as u64);
                    identical &= resp.status == 200 && resp.body == *want;
                }
                (lat_us, identical)
            })
        })
        .collect();
    let mut lat_us: Vec<u64> = Vec::new();
    let mut identical = true;
    for h in handles {
        let (l, ok) = h.join().expect("client thread");
        lat_us.extend(l);
        identical &= ok;
    }
    let wall = t0.elapsed().as_secs_f64();
    assert!(identical, "a concurrent response diverged from the reference bytes");
    assert!(p.clients >= 4, "load section must hold >= 4 concurrent connections");

    lat_us.sort_unstable();
    let total = lat_us.len();
    let p50 = lat_us[total / 2] as f64;
    let p99 = lat_us[(total - 1).min(total * 99 / 100)] as f64;
    let rps = total as f64 / wall;
    println!(
        "{:>8} {:>8} {:>6} {:>9} {:>9} {:>9} {:>9} {:>10}",
        "load",
        p.clients,
        total,
        fmt(wall),
        fmt(rps),
        fmt(p50),
        fmt(p99),
        u64::from(identical),
    );
    report.push_row([
        ("case", pp_bench::JsonValue::from("load")),
        ("clients", (p.clients as u64).into()),
        ("requests", (total as u64).into()),
        ("wall_s", wall.into()),
        ("rps", rps.into()),
        ("p50_us", p50.into()),
        ("p99_us", p99.into()),
        ("identical", identical.into()),
    ]);

    // ---- Compile-cache section --------------------------------------------
    // A fresh server so the formula is genuinely cold.
    let fresh = boot(2);
    let cold = client::post(fresh.addr(), "/v1/run", CACHE_SPEC).expect("cold request");
    assert_eq!(cold.status, 200, "cold formula run: {}", cold.text());
    assert_eq!(cold.header("x-pp-cache"), Some("miss"), "first compile must miss");
    let cold_us = elapsed_us(&cold);
    let mut warm_us = Vec::with_capacity(p.warm_hits);
    for _ in 0..p.warm_hits {
        let warm = client::post(fresh.addr(), "/v1/run", CACHE_SPEC).expect("warm request");
        assert_eq!(warm.header("x-pp-cache"), Some("hit"), "replay must hit the cache");
        assert_eq!(warm.body, cold.body, "cache state leaked into the report bytes");
        warm_us.push(elapsed_us(&warm));
    }
    let warm_mean = warm_us.iter().sum::<f64>() / warm_us.len() as f64;
    let speedup = cold_us / warm_mean;
    println!(
        "{:>8} {:>8} {:>6} {:>9} {:>9} {:>9} {:>9} {:>10}",
        "cache",
        1,
        p.warm_hits + 1,
        "-",
        "-",
        fmt(warm_mean),
        fmt(cold_us),
        1,
    );
    report.push_row([
        ("case", pp_bench::JsonValue::from("cache")),
        ("cold_us", cold_us.into()),
        ("warm_mean_us", warm_mean.into()),
        ("speedup", speedup.into()),
        ("warm_hits", (p.warm_hits as u64).into()),
    ]);
    fresh.shutdown();

    // ---- Health section ---------------------------------------------------
    let mut alive = 0u64;
    for _ in 0..p.clients {
        let h = client::get(addr, "/healthz").expect("healthz");
        alive += u64::from(h.status == 200);
    }
    assert_eq!(alive, p.clients as u64, "a worker died under load");
    report.push_row([
        ("case", pp_bench::JsonValue::from("health")),
        ("probes", (p.clients as u64).into()),
        ("alive", alive.into()),
    ]);
    server.shutdown();

    println!("\nreading: the load row's identical cell is the service contract —");
    println!("thread count and cache state move headers, never bytes; the cache");
    println!("row's speedup is what the keyed CompiledCache buys a warm formula\n");
    report.write();
}

/// The server-side `X-PP-Elapsed-Us` header as a float (µs).
fn elapsed_us(resp: &client::Response) -> f64 {
    resp.header("x-pp-elapsed-us")
        .and_then(|v| v.parse::<f64>().ok())
        .expect("X-PP-Elapsed-Us header")
}
