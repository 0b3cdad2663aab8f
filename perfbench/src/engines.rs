//! The two in-process engine workloads: `batch_large` (exact majority at
//! n = 10⁶ on the batched count engine) and `agents_torus` (approximate
//! majority on a 100×100 torus with the agents engine). Each op is one
//! `RunSpec` body parsed, executed through `pp_server::api::execute` and
//! rendered, with a fixed horizon, so the work per op does not depend on
//! the seed.

use std::time::Instant;

use pp_core::prelude::{AgentSimulation, PairSampler, SpanKind, SpanStats};
use pp_core::spec::RunSpec;
use pp_core::{seeded_rng, Simulation};
use pp_graphs::torus2d_csr;
use pp_protocols::{majority, ApproximateMajority, GraphSimulator};
use pp_server::{api, CompiledCache, ExecOptions};

use crate::util::{check_single, median, op_rng, Metrics, SingleExpect};
use crate::Workload;

/// Which engine workload.
#[derive(Clone, Copy, PartialEq)]
pub enum Engine {
    BatchLarge,
    AgentsTorus,
}

const BATCH_N: u64 = 1_000_000;
const BATCH_ONES: u64 = 600_000;
const BATCH_HORIZON: u64 = 10_000_000;
const TORUS_SIDE: u64 = 100;
const TORUS_ONES: u64 = 6_000;
const TORUS_HORIZON: u64 = 1_000_000;
/// Scheduler draws timed per traced agents op.
const DRAWS: u64 = 1 << 18;

struct Op {
    seed: u64,
    body: String,
    expect: SingleExpect,
}

impl Engine {
    fn op(self, seed: u64, i: u64) -> Op {
        let s = op_rng(seed, i).range(0, 1 << 40);
        let (body, ones, zeros, horizon) = match self {
            Engine::BatchLarge => (
                format!(
                    "{{\"protocol\":{{\"name\":\"majority\"}},\"population\":{{\"1\":{BATCH_ONES},\"0\":{}}},\"seed\":{s},\"engine\":\"batched\",\"threads\":1,\"horizon\":{BATCH_HORIZON}}}",
                    BATCH_N - BATCH_ONES
                ),
                BATCH_ONES,
                BATCH_N - BATCH_ONES,
                BATCH_HORIZON,
            ),
            Engine::AgentsTorus => {
                let n = TORUS_SIDE * TORUS_SIDE;
                (
                    format!(
                        "{{\"protocol\":{{\"name\":\"approximate-majority\"}},\"population\":{{\"1\":{TORUS_ONES},\"0\":{}}},\"seed\":{s},\"engine\":\"agents\",\"topology\":{{\"kind\":\"torus2d\",\"w\":{TORUS_SIDE},\"h\":{TORUS_SIDE}}},\"threads\":1,\"horizon\":{TORUS_HORIZON}}}",
                        n - TORUS_ONES
                    ),
                    TORUS_ONES,
                    n - TORUS_ONES,
                    TORUS_HORIZON,
                )
            }
        };
        Op {
            seed: s,
            body,
            expect: SingleExpect {
                counts: vec![zeros, ones],
                horizon,
                truth: ones > zeros,
            },
        }
    }

    fn label(self) -> &'static str {
        match self {
            Engine::BatchLarge => "batch_large",
            Engine::AgentsTorus => "agents_torus",
        }
    }
}

/// Per-layer samples of the traced run.
#[derive(Default)]
struct Layers {
    /// `api::execute` of the batched ops.
    execute_us: Vec<f64>,
    /// Batched replays: how many, their sample and apply self time, and
    /// their wall time.
    replays: u64,
    sample_ns: f64,
    apply_ns: f64,
    replay_ns: f64,
    agents_ns_per_interaction: Vec<f64>,
    construct_ms: Vec<f64>,
    draw_ns: Vec<f64>,
    torus_build_ms: Vec<f64>,
}

pub struct EngineWorkload {
    engine: Engine,
    seed: u64,
    cache: CompiledCache,
    first_body: Option<String>,
    layers: Layers,
}

/// One parse → execute → render, returning the body and the three times
/// in microseconds.
fn run_body(body: &str, cache: &CompiledCache) -> Result<(String, [f64; 3]), String> {
    let t0 = Instant::now();
    let spec = RunSpec::from_json(body).map_err(|e| e.to_json())?;
    let t1 = Instant::now();
    let (report, _) =
        api::execute(&spec, cache, &ExecOptions::default()).map_err(|e| e.to_json())?;
    let t2 = Instant::now();
    let json = report.to_json();
    let t3 = Instant::now();
    let us = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e6;
    Ok((json, [us(t0, t1), us(t1, t2), us(t2, t3)]))
}

impl EngineWorkload {
    pub fn new(engine: Engine, seed: u64) -> Result<Self, String> {
        let mut w = EngineWorkload {
            engine,
            seed,
            cache: CompiledCache::new(),
            first_body: None,
            layers: Layers::default(),
        };
        // The first op builds everything later ops reuse (the torus CSR
        // for `agents_torus`).
        w.op(0)?;
        Ok(w)
    }

    fn op_inner(&mut self, i: u64) -> Result<(Op, String, [f64; 3]), String> {
        let op = self.engine.op(self.seed, i);
        let (json, times) = run_body(&op.body, &self.cache)?;
        check_single(&json, &op.expect).map_err(|e| format!("{}: {e}", self.engine.label()))?;
        if i == 0 && self.first_body.is_none() {
            self.first_body = Some(json.clone());
        }
        Ok((op, json, times))
    }

    /// Replays a batched op through the engine with `SpanStats` attached:
    /// the same seed gives the same RNG stream, so the run must match the
    /// report field for field.
    fn batch_replay(&mut self, op: &Op, json: &str) -> Result<(), String> {
        let truth = op.expect.truth;
        let t0 = Instant::now();
        let mut sim = Simulation::from_counts(
            majority(),
            [(1usize, BATCH_ONES), (0, BATCH_N - BATCH_ONES)],
        )
        .with_tracer(SpanStats::new());
        let rep =
            sim.measure_stabilization_batched(&truth, BATCH_HORIZON, &mut seeded_rng(op.seed));
        let wall = t0.elapsed().as_secs_f64() * 1e9;
        let expect = format!(
            "\"stabilized_at\":{},\"silent_tail\":{},\"horizon\":{BATCH_HORIZON},\"steps\":{},\"effective_steps\":{}",
            rep.stabilized_at.map_or("null".to_string(), |t| t.to_string()),
            rep.silent_tail(),
            sim.steps(),
            sim.effective_steps()
        );
        if !json.contains(&expect) {
            return Err("batched replay with a tracer differs from the report".to_string());
        }
        let spans = sim.tracer();
        self.layers.sample_ns += spans.total_self_ns(SpanKind::BatchSample);
        self.layers.apply_ns += spans.total_self_ns(SpanKind::BatchApply);
        self.layers.replay_ns += wall;
        self.layers.replays += 1;
        Ok(())
    }

    /// Rebuilds the torus, constructs the agent simulation and replays the
    /// op through the engine directly, then times scheduler draws.
    fn agents_replay(&mut self, op: &Op, json: &str) -> Result<(), String> {
        let side = TORUS_SIDE as usize;
        let t0 = Instant::now();
        let graph = torus2d_csr(side, side);
        self.layers
            .torus_build_ms
            .push(t0.elapsed().as_secs_f64() * 1e3);

        let n = side * side;
        let inputs: Vec<bool> = (0..n).map(|i| (i as u64) < TORUS_ONES).collect();
        let t1 = Instant::now();
        let mut sim = AgentSimulation::from_inputs(
            GraphSimulator::new(ApproximateMajority),
            &inputs,
            graph.scheduler(),
        );
        self.layers
            .construct_ms
            .push(t1.elapsed().as_secs_f64() * 1e3);
        let t2 = Instant::now();
        let rep =
            sim.measure_stabilization(&op.expect.truth, TORUS_HORIZON, &mut seeded_rng(op.seed));
        self.layers
            .agents_ns_per_interaction
            .push(t2.elapsed().as_secs_f64() * 1e9 / TORUS_HORIZON as f64);
        let expect = format!(
            "\"stabilized_at\":{},\"silent_tail\":{},\"horizon\":{TORUS_HORIZON},\"steps\":{},\"effective_steps\":{}",
            rep.stabilized_at.map_or("null".to_string(), |t| t.to_string()),
            rep.silent_tail(),
            sim.steps(),
            sim.effective_steps()
        );
        if !json.contains(&expect) {
            return Err("agent replay differs from the report".to_string());
        }

        let mut sched = graph.scheduler();
        let mut rng = seeded_rng(op.seed);
        let t3 = Instant::now();
        let mut acc = 0u64;
        for _ in 0..DRAWS {
            let (a, b) = sched.sample(&mut rng);
            acc = acc.wrapping_add(u64::from(a ^ b));
        }
        std::hint::black_box(acc);
        self.layers
            .draw_ns
            .push(t3.elapsed().as_secs_f64() * 1e9 / DRAWS as f64);
        Ok(())
    }
}

impl Workload for EngineWorkload {
    fn op(&mut self, i: u64) -> Result<f64, String> {
        let (_, _, times) = self.op_inner(i)?;
        Ok(times.iter().sum::<f64>() / 1e3)
    }

    fn traced_op(&mut self, i: u64) -> Result<f64, String> {
        let (op, json, [parse, execute, render]) = self.op_inner(i)?;
        match self.engine {
            Engine::BatchLarge => {
                self.layers.execute_us.push(execute);
                self.batch_replay(&op, &json)?
            }
            Engine::AgentsTorus => self.agents_replay(&op, &json)?,
        }
        Ok((parse + execute + render) / 1e3)
    }

    fn replay_first(&mut self) -> Result<(), String> {
        let op = self.engine.op(self.seed, 0);
        let (json, _) = run_body(&op.body, &self.cache)?;
        match &self.first_body {
            Some(b) if *b == json => Ok(()),
            Some(_) => Err("replay of op 0 differs from its first result".to_string()),
            None => Err("op 0 never ran".to_string()),
        }
    }

    fn layer_metrics(&mut self, m: &mut Metrics, undirected: &mut Metrics) -> Result<(), String> {
        let l = &self.layers;
        match self.engine {
            Engine::BatchLarge => {
                m.set(
                    "batch.ns_per_interaction",
                    median(&l.execute_us) * 1e3 / BATCH_HORIZON as f64,
                    "ns",
                );
                let interactions = (l.replays * BATCH_HORIZON) as f64;
                m.set(
                    "batch.sample_ns_per_interaction",
                    l.sample_ns / interactions,
                    "ns",
                );
                m.set(
                    "batch.apply_ns_per_interaction",
                    l.apply_ns / interactions,
                    "ns",
                );
                // Shares of the replay's wall time: each falls when the
                // other stage gets slower, so neither has a better direction.
                let share = |ns: f64| ns / l.replay_ns;
                undirected.set("batch.sample_share", share(l.sample_ns), "ratio");
                undirected.set("batch.apply_share", share(l.apply_ns), "ratio");
            }
            Engine::AgentsTorus => {
                m.set(
                    "agents.ns_per_interaction",
                    median(&l.agents_ns_per_interaction),
                    "ns",
                );
                m.set("agents.construct_ms", median(&l.construct_ms), "ms");
                m.set("scheduler.draw_ns", median(&l.draw_ns), "ns");
                m.set("graphs.torus_build_ms", median(&l.torus_build_ms), "ms");
            }
        }
        Ok(())
    }

    fn teardown(self: Box<Self>) {}
}
