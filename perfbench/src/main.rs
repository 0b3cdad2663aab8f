//! End-to-end and per-layer benchmark of `pp-server` and the count and
//! agent engines.
//!
//! ```text
//! pp-perfbench --workload <serve_mix|batch_large|agents_torus> --seed <n>
//!              --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one JSON record on its last stdout line: `correct`,
//! `attempted`, `failed`, `metrics`, the figures with no better
//! direction (`undirected`) and the sample counts behind them.
//! With `--trace 0` the metrics are the end-to-end ones, measured with no
//! per-layer timing. With `--trace 1` they are the per-layer ones; see
//! `README.md` for the design. `run.py` builds this binary, pins it to
//! one CPU and adds host provenance to the record.

mod engines;
mod serve_mix;
mod util;

use std::time::{Duration, Instant};

use engines::{Engine, EngineWorkload};
use pp_core::spec::JsonValue;
use serve_mix::ServeMix;
use util::{median, num, peak_rss_mb, Metrics, Reservoir};

/// One workload, set up and ready to run ops.
pub trait Workload {
    /// Runs op `i` and checks its output; returns its latency in ms.
    fn op(&mut self, i: u64) -> Result<f64, String>;
    /// [`op`](Self::op) with per-layer timing and replays around it.
    fn traced_op(&mut self, i: u64) -> Result<f64, String>;
    /// Runs op 0 again; its output must be byte-identical to the first.
    fn replay_first(&mut self) -> Result<(), String>;
    /// Checks the set-up's outputs; run after the set-up is timed.
    fn check_setup(&mut self) -> Result<(), String> {
        Ok(())
    }
    /// The per-layer metrics gathered by traced ops, and the figures that
    /// have no better direction.
    fn layer_metrics(&mut self, m: &mut Metrics, undirected: &mut Metrics) -> Result<(), String>;
    fn teardown(self: Box<Self>);
}

const WORKLOADS: [&str; 3] = ["serve_mix", "batch_large", "agents_torus"];
/// Cold set-ups per untraced run, spread over it; `setup_s` is their
/// median.
const SETUPS: usize = 31;

/// Builds everything the workload reuses across ops, and runs its first
/// op (or, for `serve_mix`, its first pass through the request cycle).
fn setup(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "serve_mix" => Box::new(ServeMix::setup(seed)?),
        "batch_large" => Box::new(EngineWorkload::new(Engine::BatchLarge, seed)?),
        "agents_torus" => Box::new(EngineWorkload::new(Engine::AgentsTorus, seed)?),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

/// [`setup`] with its time in seconds. The time leaves out the checks of
/// the set-up's outputs, which run after it.
fn timed_setup(name: &str, seed: u64) -> Result<(Box<dyn Workload>, f64), String> {
    let t0 = Instant::now();
    let mut w = setup(name, seed)?;
    let secs = t0.elapsed().as_secs_f64();
    if let Err(e) = w.check_setup() {
        w.teardown();
        return Err(e);
    }
    Ok((w, secs))
}

/// Attempted and failed ops, with the first few failure messages.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    fn record<T>(&mut self, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                if self.errors.len() < 5 {
                    eprintln!("pp-perfbench: failed op: {e}");
                    self.errors.push(e);
                }
                None
            }
        }
    }
}

/// Latencies of the completed ops of one closed-loop phase.
struct Phase {
    latencies_ms: Reservoir,
    /// Wall time of the ops, cold set-ups left out.
    wall_s: f64,
    /// Read before the percentiles are computed, which copy the samples.
    peak_rss_mb: f64,
    setups_s: Vec<f64>,
}

impl Phase {
    fn ops_per_s(&self) -> f64 {
        self.latencies_ms.seen() as f64 / self.wall_s
    }
}

/// What a run reports: its metrics, the figures with no better direction
/// (outside `metrics`), and the sample counts behind them as JSON.
struct Outcome {
    metrics: Metrics,
    undirected: Metrics,
    samples: String,
}

/// Runs ops back to back for `seconds`, then replays op 0. With
/// `cold_setups`, it also makes `SETUPS` cold set-ups of that workload,
/// spread evenly over the run so that their median samples the same
/// drifting host as the ops do.
fn run_phase(
    w: &mut dyn Workload,
    seconds: f64,
    traced: bool,
    cold_setups: Option<(&str, u64)>,
    tally: &mut Tally,
) -> Phase {
    let mut latencies_ms = Reservoir::new();
    let mut setups_s = Vec::with_capacity(SETUPS);
    let mut setups_made = 0;
    let mut paused = Duration::ZERO;
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed() - paused < budget {
        if let Some((name, seed)) = cold_setups {
            let due = budget.mul_f64(setups_made as f64 / SETUPS as f64);
            if setups_made < SETUPS && start.elapsed() - paused >= due {
                let t0 = Instant::now();
                if let Some((fresh, secs)) = tally.record(timed_setup(name, seed)) {
                    setups_s.push(secs);
                    fresh.teardown();
                }
                setups_made += 1;
                paused += t0.elapsed();
                continue;
            }
        }
        let r = if traced { w.traced_op(i) } else { w.op(i) };
        if let Some(ms) = tally.record(r) {
            latencies_ms.push(ms);
        }
        i += 1;
    }
    let wall_s = (start.elapsed() - paused).as_secs_f64();
    tally.record(w.replay_first());
    Phase {
        latencies_ms,
        wall_s,
        peak_rss_mb: peak_rss_mb(),
        setups_s,
    }
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(name: &str, seed: u64, seconds: f64, tally: &mut Tally) -> Result<Outcome, String> {
    let (mut w, _) = tally
        .record(timed_setup(name, seed))
        .ok_or("set-up failed")?;
    let phase = run_phase(w.as_mut(), seconds, false, Some((name, seed)), tally);
    w.teardown();

    let lat = &phase.latencies_ms;
    let mut m = Metrics::default();
    m.set("setup_s", median(&phase.setups_s), "s");
    m.set("latency_p50_ms", lat.quantile(0.50), "ms");
    m.set("latency_p90_ms", lat.quantile(0.90), "ms");
    m.set("ops_per_s", phase.ops_per_s(), "1/s");
    m.set("peak_rss_mb", phase.peak_rss_mb, "MiB");
    // p99 is reported but not gated: on the engine workloads, whose ops
    // all do the same work, it measures the host's slowest 1% of the run
    // rather than the program (it spread 34% across runs on a shared
    // 2-vCPU Xeon host), and every gated metric applies to every workload.
    let samples = format!(
        "{{\"ops\":{},\"beyond_p90\":{},\"beyond_p99\":{},\"latency_p99_ms\":{},\"setups\":{}}}",
        lat.seen(),
        lat.seen() / 10,
        lat.seen() / 100,
        num(lat.quantile(0.99)),
        phase.setups_s.len()
    );
    Ok(Outcome {
        metrics: m,
        undirected: Metrics::default(),
        samples,
    })
}

/// The per-layer metrics: a third of the time on the workload untraced,
/// a third traced (the two give the tracing overhead), and the last third
/// split between traced runs of the other workloads, so that every layer
/// metric is measured on its own workload in every traced run.
fn per_layer(name: &str, seed: u64, seconds: f64, tally: &mut Tally) -> Result<Outcome, String> {
    let mut m = Metrics::default();
    let mut undirected = Metrics::default();
    let (mut w, _) = tally
        .record(timed_setup(name, seed))
        .ok_or("set-up failed")?;
    let plain = run_phase(w.as_mut(), seconds / 3.0, false, None, tally);
    let traced = run_phase(w.as_mut(), seconds / 3.0, true, None, tally);
    tally.record(w.layer_metrics(&mut m, &mut undirected));
    w.teardown();
    let p50 = |p: &Phase| p.latencies_ms.quantile(0.5);
    m.set(
        "trace.latency_p50_ratio",
        p50(&traced) / p50(&plain),
        "ratio",
    );
    m.set(
        "trace.ops_per_s_ratio",
        traced.ops_per_s() / plain.ops_per_s(),
        "ratio",
    );
    let mut samples = format!(
        "{{\"untraced_ops\":{},\"traced_ops\":{{\"{name}\":{}",
        plain.latencies_ms.seen(),
        traced.latencies_ms.seen()
    );
    for other in WORKLOADS.into_iter().filter(|o| *o != name) {
        let (mut w, _) = tally
            .record(timed_setup(other, seed))
            .ok_or("set-up failed")?;
        let p = run_phase(w.as_mut(), seconds / 6.0, true, None, tally);
        tally.record(w.layer_metrics(&mut m, &mut undirected));
        w.teardown();
        samples.push_str(&format!(",\"{other}\":{}", p.latencies_ms.seen()));
    }
    samples.push_str("}}");
    Ok(Outcome {
        metrics: m,
        undirected,
        samples,
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    let seed = get("--seed")?
        .parse()
        .map_err(|_| "--seed must be an integer")?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".to_string()),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pp-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut tally = Tally::default();
    let run = if args.trace { per_layer } else { end_to_end };
    let out = match run(&args.workload, args.seed, args.seconds, &mut tally) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("pp-perfbench: {e}");
            std::process::exit(1);
        }
    };
    let finite = out.metrics.0.values().all(|(v, _)| v.is_finite());
    let errors: Vec<String> = tally
        .errors
        .iter()
        .map(|e| JsonValue::Str(e.clone()).render())
        .collect();
    println!(
        "{{\"schema\":\"pp-perfbench-record/v1\",\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"correct\":{},\"attempted\":{},\"failed\":{},\"samples\":{},\"errors\":[{}],\"undirected\":{},\"metrics\":{}}}",
        args.workload,
        args.seed,
        num(args.seconds),
        u8::from(args.trace),
        tally.failed == 0 && finite,
        tally.attempted,
        tally.failed,
        out.samples,
        errors.join(","),
        out.undirected.to_json(),
        out.metrics.to_json()
    );
}
