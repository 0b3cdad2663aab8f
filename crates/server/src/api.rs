//! The unified run entry point: [`execute`]`(spec) -> `[`RunReport`].
//!
//! This is the layer the HTTP server, the `pp` CLI, and the benches all
//! route through. It resolves a [`RunSpec`]'s protocol reference (registry
//! name or Presburger formula), materializes its topology, and enters the
//! generic engine dispatchers in `pp_core::spec` — so every front end gets
//! the same semantics, the same validation, and the same byte-reproducible
//! reports.
//!
//! # The cache
//!
//! [`CompiledCache`] is the server's **only** mutable state, and it is
//! purely memoization: compiled Presburger products (Cooper QE is the
//! expensive step), mean-field drift fields, and interaction graphs, each
//! behind a deterministic key. A cache hit returns an artifact
//! *interchangeable* with a cold compile's, so cached and uncached
//! responses are byte-identical — which is why the server can hold no
//! other mutable state and still honor the reproducibility guarantee.
//! Hit/miss status travels in HTTP headers, never in bodies.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use pp_analysis::{DriftCache, MeanFieldOptions};
use pp_core::spec::{
    check_population, counts_by_symbol, index_population, run_agents, run_counts, run_single,
    EngineSel, JsonValue, ProtocolRef, RunOutcome, RunReport, RunSpec, SpecError, TopologySpec,
};
use pp_core::{seeded_rng, JsonlSink, Protocol, Simulation, StateId};
use pp_presburger::CompiledSpec;
use pp_protocols::GraphSimulator;

use crate::registry::{self, NamedProtocol};

/// Execution limits (the request-independent server policy).
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Largest population a spec may materialize (the HTTP 413 bound).
    /// A [`MeanFieldSpec`](pp_core::MeanFieldSpec) `population` override
    /// is exempt — it changes an ODE parameter, not an allocation.
    pub max_population: u64,
}

impl Default for ExecOptions {
    fn default() -> Self {
        Self { max_population: 10_000_000 }
    }
}

/// Whether a request was served from the compiled-protocol cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheStatus {
    /// Formula request served from cache.
    Hit,
    /// Formula request compiled cold (and cached for the next request).
    Miss,
    /// Named-protocol request — nothing to compile.
    None,
}

impl CacheStatus {
    /// The `X-PP-Cache` header value.
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Hit => "hit",
            Self::Miss => "miss",
            Self::None => "none",
        }
    }
}

/// Cache statistics (the `GET /v1/cache` body).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Compiled Presburger products held.
    pub compiled: usize,
    /// Mean-field drift fields held.
    pub drift: usize,
    /// Interaction graphs held (edge-list + CSR).
    pub graphs: usize,
    /// Compile-cache hits since start.
    pub hits: u64,
    /// Compile-cache misses since start.
    pub misses: u64,
}

impl CacheStats {
    /// Deterministic JSON rendering.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"schema\":\"pp-cache/v1\",\"compiled\":{},\"drift\":{},\"graphs\":{},\"hits\":{},\"misses\":{}}}",
            self.compiled, self.drift, self.graphs, self.hits, self.misses
        )
    }
}

/// Keyed store of compiled artifacts reused across requests: Presburger
/// products, drift fields, interaction graphs. Shared by every server
/// worker behind `Arc`; all interior mutability is memoization (see the
/// [module docs](self)).
#[derive(Debug, Default)]
pub struct CompiledCache {
    compiled: Mutex<HashMap<String, Arc<CompiledSpec>>>,
    drift: Mutex<DriftCache>,
    graphs: Mutex<HashMap<String, Arc<pp_graphs::InteractionGraph>>>,
    csr: Mutex<HashMap<String, Arc<pp_graphs::CsrGraph>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// A lock acquisition that survives a poisoned peer: cache contents are
/// always internally consistent (inserts are atomic under the lock), so a
/// panic elsewhere must not take the cache down with it.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl CompiledCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The compiled product for `src`, compiling on first use.
    ///
    /// # Errors
    ///
    /// [`SpecError::Compile`] when parsing or compilation fails.
    pub fn compiled(&self, src: &str) -> Result<(Arc<CompiledSpec>, CacheStatus), SpecError> {
        let key = pp_presburger::spec_key(pp_presburger::BACKEND_COOPER_PRODUCT, src);
        if let Some(c) = lock(&self.compiled).get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((Arc::clone(c), CacheStatus::Hit));
        }
        // Compile outside the lock: Cooper QE can be slow and must not
        // serialize unrelated requests. Two racers compile twice; the
        // artifacts are interchangeable, last insert wins.
        let compiled = Arc::new(
            pp_presburger::compile_spec(src)
                .map_err(|e| SpecError::Compile(e.to_string()))?,
        );
        lock(&self.compiled).insert(key, Arc::clone(&compiled));
        self.misses.fetch_add(1, Ordering::Relaxed);
        Ok((compiled, CacheStatus::Miss))
    }

    fn graph(
        &self,
        key: &str,
        build: impl FnOnce() -> pp_graphs::InteractionGraph,
    ) -> Arc<pp_graphs::InteractionGraph> {
        if let Some(g) = lock(&self.graphs).get(key) {
            return Arc::clone(g);
        }
        let g = Arc::new(build());
        lock(&self.graphs).insert(key.to_string(), Arc::clone(&g));
        g
    }

    fn csr(
        &self,
        key: &str,
        build: impl FnOnce() -> pp_graphs::CsrGraph,
    ) -> Arc<pp_graphs::CsrGraph> {
        if let Some(g) = lock(&self.csr).get(key) {
            return Arc::clone(g);
        }
        let g = Arc::new(build());
        lock(&self.csr).insert(key.to_string(), Arc::clone(&g));
        g
    }

    /// Current statistics.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            compiled: lock(&self.compiled).len(),
            drift: lock(&self.drift).len(),
            graphs: lock(&self.graphs).len() + lock(&self.csr).len(),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

/// Runs a spec end to end: resolve, validate, dispatch, report.
///
/// The returned report's [`to_json`](RunReport::to_json) bytes depend only
/// on the spec (protocol, population order, seed, engine, trials, horizon
/// — never on cache state, thread count, or timing).
///
/// # Errors
///
/// A structured [`SpecError`] for every bad request; this function does
/// not panic on untrusted input.
pub fn execute(
    spec: &RunSpec,
    cache: &CompiledCache,
    opts: &ExecOptions,
) -> Result<(RunReport, CacheStatus), SpecError> {
    if spec.probe.jsonl {
        return Err(SpecError::Unsupported(
            "probe=jsonl streams; POST the spec to /v1/stream instead".to_string(),
        ));
    }
    execute_inner::<std::io::Sink>(spec, cache, opts, StreamSink::None)
}

/// Runs a single-trial count-engine spec with a [`JsonlSink`] attached,
/// streaming interaction events as JSON Lines into `out`, followed by the
/// sink's summary line and the final `pp-run/v1` report line.
///
/// # Errors
///
/// Structured [`SpecError`]s; ensembles, the agents/mean-field engines,
/// and fault plans are [`SpecError::Unsupported`] here.
pub fn execute_stream<W: std::io::Write>(
    spec: &RunSpec,
    cache: &CompiledCache,
    opts: &ExecOptions,
    out: W,
) -> Result<CacheStatus, SpecError> {
    if spec.trials != 1 {
        return Err(SpecError::Unsupported(
            "streaming serves single-trial runs; drop \"trials\"".to_string(),
        ));
    }
    if !matches!(spec.engine, EngineSel::Sequential | EngineSel::Batched) {
        return Err(SpecError::Unsupported(
            "streaming runs on the count engines (sequential or batched)".to_string(),
        ));
    }
    if spec.faults.is_some() {
        return Err(SpecError::Unsupported(
            "streaming does not take a fault plan".to_string(),
        ));
    }
    let stride = spec.probe.stride.max(1);
    let mut sink = Some(JsonlSink::with_stride(out, stride));
    let (report, status) = execute_inner(spec, cache, opts, StreamSink::Jsonl(&mut sink))?;
    // `execute_inner` ran the simulation through the sink and put it back
    // in the slot; recover the writer and append the final report line.
    let mut w = match sink {
        Some(s) => s.into_inner(),
        None => return Err(SpecError::Internal("stream sink was consumed".to_string())),
    };
    writeln!(w, "{}", report.to_json())
        .map_err(|e| SpecError::Internal(format!("stream write failed: {e}")))?;
    let _ = w.flush();
    Ok(status)
}

/// How a run routes its probe events.
enum StreamSink<'a, W: std::io::Write> {
    /// No probe: the plain [`execute`] path.
    None,
    /// Stream through a JSONL sink. The sink is taken from the slot and
    /// put back afterwards so the caller can recover the writer.
    Jsonl(&'a mut Option<JsonlSink<W>>),
}

fn execute_inner<W: std::io::Write>(
    spec: &RunSpec,
    cache: &CompiledCache,
    opts: &ExecOptions,
    sink: StreamSink<'_, W>,
) -> Result<(RunReport, CacheStatus), SpecError> {
    check_population(spec, opts.max_population)?;
    check_edge_list(spec, opts.max_population)?;
    match &spec.protocol {
        ProtocolRef::Name { name, params } => {
            let named = registry::resolve_named(name, params)?;
            let key = named.key();
            let symbols = named.symbols();
            let gt = |c: &[u64]| named.ground_truth(c);
            let report = match &named {
                NamedProtocol::Majority(p) => {
                    drive(spec, cache, p.clone(), symbols, key, gt, |i| i, sink)?
                }
                NamedProtocol::Parity(p) => {
                    drive(spec, cache, p.clone(), symbols, key, gt, |i| i, sink)?
                }
                NamedProtocol::ApproximateMajority(p) => {
                    drive(spec, cache, *p, symbols, key, gt, |i| i == 1, sink)?
                }
                NamedProtocol::CountTo(p) => {
                    drive(spec, cache, *p, symbols, key, gt, |i| i == 1, sink)?
                }
            };
            Ok((report, CacheStatus::None))
        }
        ProtocolRef::Formula(src) => {
            let (compiled, status) = cache.compiled(src)?;
            let report = drive(
                spec,
                cache,
                compiled.protocol.clone(),
                compiled.symbols.clone(),
                compiled.key.clone(),
                |c| compiled.protocol.eval(c),
                |i| i,
                sink,
            )?;
            Ok((report, status))
        }
    }
}

/// Refuses an agents-engine spec whose edge-list topology would hold more
/// directed edges than `max`, before anything is built: `complete` on n
/// agents holds n(n−1), and `random` draws a coin for each of those pairs.
/// The torus topologies are CSR stencils and are not edge lists.
///
/// # Errors
///
/// [`SpecError::TopologyTooLarge`] past `max`.
fn check_edge_list(spec: &RunSpec, max: u64) -> Result<(), SpecError> {
    if spec.engine != EngineSel::Agents {
        return Ok(());
    }
    let n = spec.population_size();
    let topo = spec.topology.as_ref().unwrap_or(&TopologySpec::Complete);
    let edges = match topo {
        TopologySpec::Complete | TopologySpec::Random { .. } => n.saturating_mul(n - 1),
        TopologySpec::Line | TopologySpec::Star => 2 * (n - 1),
        TopologySpec::Cycle => 2 * n,
        TopologySpec::Torus2d { .. } | TopologySpec::Torus3d { .. } => return Ok(()),
    };
    if edges > max {
        return Err(SpecError::TopologyTooLarge { kind: topo.kind(), n, edges, max });
    }
    Ok(())
}

/// The generic engine router: everything after protocol resolution.
#[allow(clippy::too_many_arguments)]
fn drive<P, FI, FG, W>(
    spec: &RunSpec,
    cache: &CompiledCache,
    protocol: P,
    symbols: Vec<String>,
    key: String,
    ground_truth: FG,
    to_input: FI,
    sink: StreamSink<'_, W>,
) -> Result<RunReport, SpecError>
where
    P: Protocol<Output = bool> + Clone + Send + Sync,
    P::Input: Sync,
    FI: Fn(usize) -> P::Input + Copy,
    FG: Fn(&[u64]) -> bool,
    W: std::io::Write,
{
    let indexed = index_population(&spec.population, &symbols)?;
    let counts = counts_by_symbol(&indexed, symbols.len());
    let expected = ground_truth(&counts);
    // Spec order is semantic: it fixes the state-interning order and with
    // it the RNG stream, exactly like calling the engines directly.
    let pairs: Vec<(P::Input, u64)> =
        indexed.iter().map(|&(i, c)| (to_input(i), c)).collect();

    let (outcome, edges) = match spec.engine {
        EngineSel::Sequential | EngineSel::Batched => {
            let outcome = match sink {
                StreamSink::None => run_counts(spec, &protocol, &pairs, &expected)?,
                StreamSink::Jsonl(slot) => {
                    let taken = slot
                        .take()
                        .ok_or_else(|| SpecError::Internal("sink already taken".to_string()))?;
                    let mut sim = Simulation::from_counts(protocol.clone(), pairs.iter().cloned())
                        .with_probe(taken);
                    let single = run_single(spec, &mut sim, &expected)?;
                    *slot = Some(sim.into_probe());
                    RunOutcome::Single(single)
                }
            };
            (outcome, None)
        }
        EngineSel::Agents => {
            run_on_topology(spec, cache, &protocol, &indexed, &expected, to_input)?
        }
        EngineSel::MeanField => (mean_field_outcome(spec, cache, &protocol, &pairs, &key)?, None),
    };

    Ok(RunReport {
        protocol_key: key,
        engine: spec.engine,
        symbols,
        counts,
        population: spec.population_size(),
        ground_truth: Some(expected),
        edges,
        outcome,
        spec: spec.to_value(),
    })
}

/// The agents engine: materialize the topology (cached), wrap the protocol
/// in the Theorem 7 simulator `A′`, and dispatch.
fn run_on_topology<P, FI>(
    spec: &RunSpec,
    cache: &CompiledCache,
    protocol: &P,
    indexed: &[(usize, u64)],
    expected: &bool,
    to_input: FI,
) -> Result<(RunOutcome, Option<u64>), SpecError>
where
    P: Protocol<Output = bool> + Clone + Send + Sync,
    P::Input: Sync,
    FI: Fn(usize) -> P::Input + Copy,
{
    let n64 = spec.population_size();
    // The Theorem 7 baton construction assumes n ≥ 4; the paper covers
    // smaller populations by table lookup, which we don't implement.
    if n64 < 4 {
        return Err(SpecError::Unsupported(
            "the agents engine needs a population of at least 4 (Theorem 7)".to_string(),
        ));
    }
    let n = usize::try_from(n64)
        .map_err(|_| SpecError::Internal("population exceeds usize".to_string()))?;

    // Per-agent inputs in spec order (order is semantic, as for counts).
    let mut inputs: Vec<P::Input> = Vec::with_capacity(n);
    for &(sym, count) in indexed {
        for _ in 0..count {
            inputs.push(to_input(sym));
        }
    }

    let wrapped = GraphSimulator::new(protocol.clone());
    let topo = spec.topology.clone().unwrap_or(TopologySpec::Complete);
    match topo {
        TopologySpec::Complete
        | TopologySpec::Line
        | TopologySpec::Cycle
        | TopologySpec::Star
        | TopologySpec::Random { .. } => {
            let key = match &topo {
                TopologySpec::Random { p, graph_seed } => {
                    format!("random:p={p}:seed={graph_seed}:n={n}")
                }
                other => format!("{}:n={n}", other.kind()),
            };
            let graph = cache.graph(&key, || match &topo {
                TopologySpec::Complete => pp_graphs::complete(n),
                TopologySpec::Line => pp_graphs::undirected_line(n),
                TopologySpec::Cycle => pp_graphs::undirected_cycle(n),
                TopologySpec::Star => pp_graphs::star(n),
                TopologySpec::Random { p, graph_seed } => {
                    pp_graphs::erdos_renyi_connected(n, *p, &mut seeded_rng(*graph_seed))
                }
                _ => unreachable!("arm filtered above"),
            });
            let edges = graph.edge_count() as u64;
            let g = Arc::clone(&graph);
            let outcome =
                run_agents(spec, &wrapped, &inputs, expected, move || g.scheduler())?;
            Ok((outcome, Some(edges)))
        }
        TopologySpec::Torus2d { w, h } => {
            let (w, h) = (w as usize, h as usize);
            if w * h != n {
                return Err(SpecError::BadField {
                    field: "topology".to_string(),
                    detail: format!("torus2d {w}x{h} needs population {}, got {n}", w * h),
                });
            }
            let graph =
                cache.csr(&format!("torus2d:{w}x{h}"), || pp_graphs::torus2d_csr(w, h));
            let edges = graph.edge_count() as u64;
            let g = Arc::clone(&graph);
            let outcome =
                run_agents(spec, &wrapped, &inputs, expected, move || g.scheduler())?;
            Ok((outcome, Some(edges)))
        }
        TopologySpec::Torus3d { w, h, d } => {
            let (w, h, d) = (w as usize, h as usize, d as usize);
            let cells = w.checked_mul(h).and_then(|wh| wh.checked_mul(d));
            if cells != Some(n) {
                let needs = cells.map_or("more than usize::MAX".to_string(), |c| c.to_string());
                return Err(SpecError::BadField {
                    field: "topology".to_string(),
                    detail: format!("torus3d {w}x{h}x{d} needs population {needs}, got {n}"),
                });
            }
            let graph = cache
                .csr(&format!("torus3d:{w}x{h}x{d}"), || pp_graphs::torus3d_csr(w, h, d));
            let edges = graph.edge_count() as u64;
            let g = Arc::clone(&graph);
            let outcome =
                run_agents(spec, &wrapped, &inputs, expected, move || g.scheduler())?;
            Ok((outcome, Some(edges)))
        }
    }
}

/// The mean-field fast path: derive (or fetch) the drift field, integrate
/// the ODE, and package the prediction as [`RunOutcome::External`].
fn mean_field_outcome<P>(
    spec: &RunSpec,
    cache: &CompiledCache,
    protocol: &P,
    pairs: &[(P::Input, u64)],
    key: &str,
) -> Result<RunOutcome, SpecError>
where
    P: Protocol + Clone,
{
    if spec.trials != 1 {
        return Err(SpecError::Unsupported(
            "mean-field is deterministic; trials must be 1".to_string(),
        ));
    }
    if spec.faults.is_some() {
        return Err(SpecError::Unsupported(
            "mean-field takes no fault plan".to_string(),
        ));
    }
    let mf = spec.mean_field.clone().unwrap_or_default();
    let mut sim = Simulation::from_counts(protocol.clone(), pairs.iter().cloned());
    let n = sim.population();
    let support: Vec<StateId> = sim.config().support().map(|(s, _)| s).collect();
    // The field depends on the δ-closure of the supported states, so the
    // cache key is protocol identity + the support's state ids.
    let support_ids: Vec<u32> = support.iter().map(|s| s.0).collect();
    let drift_key = format!("{key}|support:{support_ids:?}");
    let field = lock(&cache.drift)
        .get_or_derive(&drift_key, sim.runtime_mut(), &support)
        .map_err(|e| {
            SpecError::Unsupported(format!(
                "mean-field closes the state space under δ: {e}"
            ))
        })?;
    let init: Vec<f64> =
        sim.config().as_slice().iter().map(|&c| c as f64 / n as f64).collect();
    let population = mf.population.unwrap_or(n);
    let model = pp_analysis::MeanField::new(field, init, population);
    let run = model.run(&MeanFieldOptions {
        horizon: mf.horizon,
        diffusion: mf.diffusion,
        ..MeanFieldOptions::default()
    });

    let (accepted, rejected) = run.step_counts();
    let body = vec![
        ("population".to_string(), JsonValue::Num(population as f64)),
        (
            "terminal_fractions".to_string(),
            JsonValue::Arr(
                run.terminal_fractions().iter().map(|&f| JsonValue::Num(f)).collect(),
            ),
        ),
        ("terminal_time".to_string(), JsonValue::Num(run.terminal_time())),
        (
            "quiescent_at".to_string(),
            run.quiescent_at().map_or(JsonValue::Null, JsonValue::Num),
        ),
        (
            "predicted_stabilization_interactions".to_string(),
            run.predicted_stabilization_interactions(mf.eps)
                .map_or(JsonValue::Null, |k| JsonValue::Num(k as f64)),
        ),
        ("eps".to_string(), JsonValue::Num(mf.eps)),
        (
            "divergences".to_string(),
            JsonValue::Arr(
                run.divergences().iter().map(|d| JsonValue::Str(format!("{d:?}"))).collect(),
            ),
        ),
        ("accepted_steps".to_string(), JsonValue::Num(accepted as f64)),
        ("rejected_steps".to_string(), JsonValue::Num(rejected as f64)),
    ];
    Ok(RunOutcome::External {
        kind: "mean-field".to_string(),
        body: JsonValue::Obj(body),
    })
}
