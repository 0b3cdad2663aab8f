//! `serve_mix`: an in-process `pp-server` with one worker and one
//! closed-loop client opening a new connection per request, cycling
//! through eleven small request kinds.

use std::net::SocketAddr;
use std::time::Instant;

use pp_analysis::{MeanField, MeanFieldOptions};
use pp_core::spec::RunSpec;
use pp_core::{seeded_rng, Simulation};
use pp_protocols::majority;
use pp_server::client::{self, Response};
use pp_server::{api, CompiledCache, ExecOptions, Server, ServerConfig};

use crate::util::{
    check_ensemble, check_mean_field, check_single, check_stream, mean, median, op_rng, Metrics,
    SingleExpect,
};
use crate::Workload;

/// The four formulas of the mix, compiled once per server and served
/// from the compile cache afterwards, with the benchmark's own
/// evaluation of each on the counts `(a, b)`.
type FormulaCase = (&'static str, fn(u64, u64) -> bool);

const FORMULAS: [FormulaCase; 4] = [
    ("a > b", |a, b| a > b),
    ("a >= 2 * b", |a, b| a >= 2 * b),
    ("a - b = 1 mod 3", |a, b| {
        (a as i64 - b as i64).rem_euclid(3) == 1
    }),
    // A compile-heavy product (three atoms), as in e25's cache row.
    ("a = 2 mod 7 and b = 3 mod 5 and a + 2 * b > 15", |a, b| {
        a % 7 == 2 && b % 5 == 3 && a + 2 * b > 15
    }),
];

/// The request kinds, in cycle order.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    Majority,
    Parity,
    CountToK,
    Ensemble,
    Formula(usize),
    MeanField,
    Stream,
    Malformed,
}

const CYCLE: [Kind; 11] = [
    Kind::Majority,
    Kind::Parity,
    Kind::CountToK,
    Kind::Ensemble,
    Kind::Formula(0),
    Kind::Formula(1),
    Kind::Formula(2),
    Kind::Formula(3),
    Kind::MeanField,
    Kind::Stream,
    Kind::Malformed,
];

const ENSEMBLE_TRIALS: u64 = 4;
const MEAN_FIELD_HORIZON: f64 = 30.0;

impl Kind {
    /// The suffix of this kind's `api.execute_us.*` metric.
    fn label(self) -> &'static str {
        match self {
            Kind::Majority => "majority",
            Kind::Parity => "parity",
            Kind::CountToK => "count_to_k",
            Kind::Ensemble => "ensemble",
            Kind::Formula(_) => "formula",
            Kind::MeanField => "mean_field",
            Kind::Stream => "stream",
            Kind::Malformed => "malformed",
        }
    }
}

/// What the response to a request must be.
enum Expect {
    Single(SingleExpect),
    Ensemble(SingleExpect),
    MeanField {
        counts: Vec<u64>,
        truth: bool,
    },
    Stream(SingleExpect),
    /// A 400 with exactly this body.
    Error(String),
}

struct Request {
    kind: Kind,
    path: &'static str,
    body: String,
    expect: Expect,
    /// Run seed and `(symbol, count)` population in spec order, for the
    /// engine-level replays of the traced run.
    seed: u64,
    population: Vec<(usize, u64)>,
}

/// Op `i` of the run seeded with `seed`. Every parameter comes from the
/// seed; horizons are at most 1000 interactions and populations at most
/// 100 agents, except the mean-field query, whose cost does not grow
/// with the population.
fn request(seed: u64, i: u64) -> Request {
    let kind = CYCLE[(i % CYCLE.len() as u64) as usize];
    let mut g = op_rng(seed, i);
    let run_seed = g.range(0, 1 << 40);
    let binary = |name: &str, ones: u64, zeros: u64, tail: &str| {
        format!(
            "{{\"protocol\":{name},\"population\":{{\"1\":{ones},\"0\":{zeros}}},\"seed\":{run_seed},\"threads\":1{tail}}}"
        )
    };
    let single = |ones: u64, zeros: u64, horizon: u64, truth: bool| SingleExpect {
        counts: vec![zeros, ones],
        horizon,
        truth,
    };
    let (path, body, expect, population) = match kind {
        Kind::Majority => {
            let n = g.range(20, 100);
            let ones = g.range(1, n - 1);
            let body = binary(
                "{\"name\":\"majority\"}",
                ones,
                n - ones,
                ",\"engine\":\"batched\",\"horizon\":1000",
            );
            let e = single(ones, n - ones, 1000, ones > n - ones);
            (
                "/v1/run",
                body,
                Expect::Single(e),
                vec![(1, ones), (0, n - ones)],
            )
        }
        Kind::Parity => {
            let n = g.range(10, 100);
            let ones = g.range(1, n - 1);
            let body = binary(
                "{\"name\":\"parity\"}",
                ones,
                n - ones,
                ",\"engine\":\"sequential\",\"horizon\":1000",
            );
            let e = single(ones, n - ones, 1000, ones % 2 == 1);
            (
                "/v1/run",
                body,
                Expect::Single(e),
                vec![(1, ones), (0, n - ones)],
            )
        }
        Kind::CountToK => {
            let k = g.range(2, 6);
            let n = g.range(20, 100);
            let ones = g.range(1, 2 * k);
            let body = binary(
                &format!("{{\"name\":\"count-to-k\",\"k\":{k}}}"),
                ones,
                n - ones,
                ",\"engine\":\"batched\",\"horizon\":1000",
            );
            let e = single(ones, n - ones, 1000, ones >= k);
            (
                "/v1/run",
                body,
                Expect::Single(e),
                vec![(1, ones), (0, n - ones)],
            )
        }
        Kind::Ensemble => {
            let n = g.range(20, 100);
            let ones = g.range(1, n - 1);
            let body = binary(
                "{\"name\":\"approximate-majority\"}",
                ones,
                n - ones,
                &format!(",\"engine\":\"batched\",\"trials\":{ENSEMBLE_TRIALS},\"horizon\":1000"),
            );
            let e = single(ones, n - ones, 1000, ones > n - ones);
            (
                "/v1/run",
                body,
                Expect::Ensemble(e),
                vec![(1, ones), (0, n - ones)],
            )
        }
        Kind::Formula(f) => {
            let (src, eval) = FORMULAS[f];
            let (a, b) = (g.range(1, 40), g.range(1, 40));
            let engine = if f % 2 == 0 { "sequential" } else { "batched" };
            let body = format!(
                "{{\"protocol\":{{\"formula\":\"{src}\"}},\"population\":{{\"a\":{a},\"b\":{b}}},\"seed\":{run_seed},\"threads\":1,\"engine\":\"{engine}\",\"horizon\":1000}}"
            );
            let e = SingleExpect {
                counts: vec![a, b],
                horizon: 1000,
                truth: eval(a, b),
            };
            ("/v1/run", body, Expect::Single(e), vec![(0, a), (1, b)])
        }
        Kind::MeanField => {
            let n = g.range(200, 2000);
            let ones = g.range(n * 55 / 100, n * 70 / 100);
            let body = binary(
                "{\"name\":\"majority\"}",
                ones,
                n - ones,
                &format!(",\"engine\":\"mean-field\",\"mean_field\":{{\"horizon\":{MEAN_FIELD_HORIZON}}}"),
            );
            let e = Expect::MeanField {
                counts: vec![n - ones, ones],
                truth: true,
            };
            ("/v1/run", body, e, vec![(1, ones), (0, n - ones)])
        }
        Kind::Stream => {
            let n = g.range(10, 50);
            let ones = g.range(1, n - 1);
            let body = binary(
                "{\"name\":\"majority\"}",
                ones,
                n - ones,
                ",\"engine\":\"sequential\",\"horizon\":500,\"probe\":{\"kind\":\"jsonl\",\"stride\":25}",
            );
            let e = single(ones, n - ones, 500, ones > n - ones);
            (
                "/v1/stream",
                body,
                Expect::Stream(e),
                vec![(1, ones), (0, n - ones)],
            )
        }
        Kind::Malformed => {
            // A typo'd field: the strict parser must refuse it by name.
            let n = g.range(10, 100);
            let body = binary(
                "{\"name\":\"majority\"}",
                n / 2,
                n - n / 2,
                ",\"horizn\":1000",
            );
            let err = "{\"schema\":\"pp-error/v1\",\"code\":\"unknown_field\",\"error\":\"unknown field \\\"horizn\\\"\"}";
            ("/v1/run", body, Expect::Error(err.to_string()), Vec::new())
        }
    };
    Request {
        kind,
        path,
        body,
        expect,
        seed: run_seed,
        population,
    }
}

/// Checks one response. `warm` demands compile-cache hits for formulas.
fn check(req: &Request, resp: &Response, warm: bool) -> Result<(), String> {
    let text = std::str::from_utf8(&resp.body).map_err(|_| "body is not UTF-8".to_string())?;
    let want_status = if matches!(req.expect, Expect::Error(_)) {
        400
    } else {
        200
    };
    if resp.status != want_status {
        return Err(format!(
            "{:?}: status {}, body {text}",
            req.kind, resp.status
        ));
    }
    if warm && matches!(req.kind, Kind::Formula(_)) && resp.header("x-pp-cache") != Some("hit") {
        return Err("formula request missed the warm compile cache".to_string());
    }
    let checked = match &req.expect {
        Expect::Single(e) => check_single(text, e),
        Expect::Ensemble(e) => check_ensemble(text, e, ENSEMBLE_TRIALS),
        Expect::MeanField { counts, truth } => check_mean_field(text, counts, *truth),
        Expect::Stream(e) => check_stream(text, e),
        Expect::Error(body) if text == body => Ok(()),
        Expect::Error(body) => Err(format!("error body {text}, expected {body}")),
    };
    checked.map_err(|e| format!("{:?}: {e}", req.kind))
}

/// The response body the in-process API gives for the same request,
/// with the time spent parsing, executing and rendering it.
struct InProcess {
    body: Vec<u8>,
    parse_us: f64,
    execute_us: f64,
    render_us: f64,
}

fn in_process(req: &Request, cache: &CompiledCache) -> InProcess {
    let opts = ExecOptions::default();
    let t0 = Instant::now();
    let parsed = RunSpec::from_json(&req.body);
    let parse_us = t0.elapsed().as_secs_f64() * 1e6;
    let spec = match parsed {
        Ok(spec) => spec,
        Err(e) => {
            let body = e.to_json().into_bytes();
            return InProcess {
                body,
                parse_us,
                execute_us: 0.0,
                render_us: 0.0,
            };
        }
    };
    let t1 = Instant::now();
    if req.path == "/v1/stream" {
        // The stream path renders as it executes.
        let mut out = Vec::new();
        let body = match api::execute_stream(&spec, cache, &opts, &mut out) {
            Ok(_) => out,
            Err(e) => e.to_json().into_bytes(),
        };
        let execute_us = t1.elapsed().as_secs_f64() * 1e6;
        return InProcess {
            body,
            parse_us,
            execute_us,
            render_us: 0.0,
        };
    }
    let result = api::execute(&spec, cache, &opts);
    let execute_us = t1.elapsed().as_secs_f64() * 1e6;
    let t2 = Instant::now();
    let body = match result {
        Ok((report, _)) => report.to_json().into_bytes(),
        Err(e) => e.to_json().into_bytes(),
    };
    let render_us = t2.elapsed().as_secs_f64() * 1e6;
    InProcess {
        body,
        parse_us,
        execute_us,
        render_us,
    }
}

/// The server's bytes must be the in-process API's bytes for the same
/// request.
fn same_bytes(req: &Request, resp: &Response, ip: &InProcess) -> Result<(), String> {
    if ip.body != resp.body {
        return Err(format!(
            "{:?}: HTTP body differs from in-process execute",
            req.kind
        ));
    }
    Ok(())
}

/// Per-layer samples of the traced run.
#[derive(Default)]
struct Layers {
    round_trip_us: Vec<f64>,
    server_us: Vec<f64>,
    parse_us: Vec<f64>,
    render_us: Vec<f64>,
    report_bytes: Vec<f64>,
    execute_us: Vec<(&'static str, f64)>,
    meanfield_run_us: Vec<f64>,
    batch_setup_us: Vec<f64>,
}

pub struct ServeMix {
    seed: u64,
    server: Server,
    addr: SocketAddr,
    /// In-process cache for the byte-identity checks.
    local: CompiledCache,
    /// The set-up pass's requests and responses, until
    /// [`Workload::check_setup`] compares them with in-process execution.
    first_pass: Vec<(Request, Response)>,
    first_body: Option<Vec<u8>>,
    layers: Layers,
}

impl ServeMix {
    /// Starts a one-worker server and sends it one request of each kind.
    pub fn setup(seed: u64) -> Result<Self, String> {
        let cfg = ServerConfig {
            threads: 1,
            ..ServerConfig::default()
        };
        let server = pp_server::serve("127.0.0.1:0", cfg).map_err(|e| format!("bind: {e}"))?;
        let addr = server.addr();
        let mut w = ServeMix {
            seed,
            server,
            addr,
            local: CompiledCache::new(),
            first_pass: Vec::with_capacity(CYCLE.len()),
            first_body: None,
            layers: Layers::default(),
        };
        // One pass through the cycle: compiles every formula, derives the
        // drift field, and answers one request of each kind.
        for i in 0..CYCLE.len() as u64 {
            let req = request(seed, i);
            let (resp, _) = w.post(&req)?;
            check(&req, &resp, false)?;
            w.first_pass.push((req, resp));
        }
        Ok(w)
    }

    fn post(&self, req: &Request) -> Result<(Response, f64), String> {
        let t0 = Instant::now();
        let resp = client::post(self.addr, req.path, &req.body)
            .map_err(|e| format!("{:?}: transport error {e}", req.kind))?;
        Ok((resp, t0.elapsed().as_secs_f64() * 1e3))
    }

    /// Engine-level timings for a batched majority request: the fixed
    /// per-run cost, as the intercept of run time against horizon.
    fn batch_run_setup_us(req: &Request) -> f64 {
        let Expect::Single(e) = &req.expect else {
            return f64::NAN;
        };
        let time_run = |horizon: u64| {
            let t0 = Instant::now();
            let mut sim = Simulation::from_counts(majority(), req.population.iter().copied());
            let rep =
                sim.measure_stabilization_batched(&e.truth, horizon, &mut seeded_rng(req.seed));
            std::hint::black_box(rep);
            t0.elapsed().as_secs_f64() * 1e6
        };
        let (short, long) = (100, 1000);
        let t_short = time_run(short);
        let t_long = time_run(long);
        t_short - (t_long - t_short) / (long - short) as f64 * short as f64
    }

    /// The mean-field layer alone: the ODE integration of a request whose
    /// drift field is already derived.
    fn meanfield_run_us(req: &Request) -> Result<f64, String> {
        let mut sim = Simulation::from_counts(majority(), req.population.iter().copied());
        let model = MeanField::from_simulation(&mut sim);
        let t0 = Instant::now();
        let run = model.run(&MeanFieldOptions {
            horizon: MEAN_FIELD_HORIZON,
            ..MeanFieldOptions::default()
        });
        let us = t0.elapsed().as_secs_f64() * 1e6;
        if run.step_counts().0 == 0 {
            return Err("mean-field replay took no step".to_string());
        }
        Ok(us)
    }
}

impl Workload for ServeMix {
    fn op(&mut self, i: u64) -> Result<f64, String> {
        let req = request(self.seed, i);
        let (resp, ms) = self.post(&req)?;
        check(&req, &resp, true)?;
        if i.is_multiple_of(8) {
            // Every kind is sampled: 8 and the cycle length are coprime.
            let ip = in_process(&req, &self.local);
            same_bytes(&req, &resp, &ip)?;
        }
        if i == 0 {
            self.first_body = Some(resp.body);
        }
        Ok(ms)
    }

    fn traced_op(&mut self, i: u64) -> Result<f64, String> {
        let req = request(self.seed, i);
        let (resp, ms) = self.post(&req)?;
        check(&req, &resp, true)?;
        let ip = in_process(&req, &self.local);
        let l = &mut self.layers;
        l.parse_us.push(ip.parse_us);
        // The server times execute + render; error responses carry no
        // timing header, and have nothing to execute.
        if req.kind != Kind::Malformed {
            let server_us: f64 = resp
                .header("x-pp-elapsed-us")
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("{:?}: no X-PP-Elapsed-Us header", req.kind))?;
            l.round_trip_us.push(ms * 1e3);
            l.server_us.push(server_us);
            l.execute_us.push((req.kind.label(), ip.execute_us));
            if req.path == "/v1/run" {
                l.render_us.push(ip.render_us);
                l.report_bytes.push(ip.body.len() as f64);
            }
        }
        match req.kind {
            Kind::MeanField => l.meanfield_run_us.push(Self::meanfield_run_us(&req)?),
            Kind::Majority => l.batch_setup_us.push(Self::batch_run_setup_us(&req)),
            _ => {}
        }
        same_bytes(&req, &resp, &ip)?;
        if i == 0 {
            self.first_body = Some(resp.body);
        }
        Ok(ms)
    }

    fn check_setup(&mut self) -> Result<(), String> {
        // This also warms the in-process cache the way the pass warmed the
        // server's.
        for (req, resp) in std::mem::take(&mut self.first_pass) {
            same_bytes(&req, &resp, &in_process(&req, &self.local))?;
        }
        Ok(())
    }

    fn replay_first(&mut self) -> Result<(), String> {
        let req = request(self.seed, 0);
        let (resp, _) = self.post(&req)?;
        match &self.first_body {
            Some(b) if *b == resp.body => Ok(()),
            Some(_) => Err("replay of op 0 differs from its first response".to_string()),
            None => Err("op 0 never ran".to_string()),
        }
    }

    fn layer_metrics(&mut self, m: &mut Metrics, _: &mut Metrics) -> Result<(), String> {
        let l = &self.layers;
        // Means, so that round trip = server + transport holds exactly.
        let rt = mean(&l.round_trip_us);
        let server = mean(&l.server_us);
        m.set("http.round_trip_us", rt, "us");
        m.set("http.server_us", server, "us");
        m.set("http.transport_us", rt - server, "us");
        m.set("spec.parse_us", median(&l.parse_us), "us");
        m.set("spec.render_us", median(&l.render_us), "us");
        m.set("spec.report_bytes", mean(&l.report_bytes), "bytes");
        for kind in CYCLE {
            let label = kind.label();
            let xs: Vec<f64> = l
                .execute_us
                .iter()
                .filter(|(k, _)| *k == label)
                .map(|(_, v)| *v)
                .collect();
            if !xs.is_empty() {
                m.set(&format!("api.execute_us.{label}"), median(&xs), "us");
            }
        }
        let stats = self.server.cache().stats();
        m.set(
            "api.cache_hit_ratio",
            stats.hits as f64 / (stats.hits + stats.misses) as f64,
            "ratio",
        );
        m.set("meanfield.run_us", median(&l.meanfield_run_us), "us");
        m.set("batch.run_setup_us", median(&l.batch_setup_us), "us");
        // Cold compiles of all four formulas, as a set-up pays them.
        let mut compile_us = Vec::new();
        for _ in 0..15 {
            let t0 = Instant::now();
            for (src, _) in FORMULAS {
                pp_presburger::compile_spec(src).map_err(|e| format!("compiling {src:?}: {e}"))?;
            }
            compile_us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        m.set("presburger.compile_us", median(&compile_us), "us");
        Ok(())
    }

    fn teardown(self: Box<Self>) {
        self.server.shutdown();
    }
}
