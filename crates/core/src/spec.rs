//! The unified, serializable run API: [`RunSpec`] → [`RunReport`].
//!
//! Historically every way of running a protocol had its own entry point —
//! [`Simulation::run_until_consensus`], [`Simulation::measure_stabilization`]
//! (and its `_batched` twin), [`AgentSimulation::measure_stabilization`],
//! [`Simulation::run_with_faults`](crate::faults),
//! [`Ensemble::map`](crate::ensemble::Ensemble) and friends — and every
//! front end (the `pp` CLI, each bench, ad-hoc examples) grew its own
//! plumbing from arguments to one of those methods. `RunSpec` collapses
//! that combinatorial surface into **one serializable request type**:
//!
//! * a protocol reference (a registry name or a Presburger formula),
//! * a population (ordered symbol → count pairs; the order is semantic —
//!   it fixes the state-interning order and therefore the RNG stream),
//! * a seed and seed mode,
//! * an engine selection (sequential / batched / agents-on-a-topology /
//!   mean-field; a batched request below [`BATCHED_MIN_POPULATION`]
//!   agents steps sequentially),
//! * a trial count and thread count (1 trial = a single deterministic run,
//!   more = a [`Ensemble`] with byte-identical
//!   reports at any thread count),
//! * an optional fault plan, a stop condition, and a probe request.
//!
//! Because the spec is plain data, it can be POSTed to the `pp-server`
//! HTTP service, diffed, cached by its canonical JSON, and replayed:
//! **a seeded spec is byte-reproducible** — the same spec produces the
//! same [`RunReport::to_json`] bytes on any fresh process at any thread
//! count, the same guarantee the ensemble executor already gives.
//!
//! This module owns the pieces that only need `pp-core`: the spec and
//! report types (read and written with [`crate::json`]), and the dispatchers
//! [`run_counts`] (count engine: sequential/batched, single/ensemble,
//! faulted or not) and [`run_agents`] (agent engine on an arbitrary
//! scheduler). A single count-engine trial goes through [`run_single`],
//! the one place a stop condition becomes a [`SingleRun`]; it is generic
//! over the simulation's probe, so the server's streamed runs use it too.
//! Ensembles are [`Ensemble::summarize`] over the same per-trial calls.
//! Resolution of protocol *references* (registry names, Presburger
//! compilation, topology construction, mean-field integration) lives one
//! layer up in the `pp-server` crate, which routes every request — HTTP,
//! CLI, or bench — through `pp_server::api::execute`.

use std::collections::HashMap;
use std::fmt;

use rand::rngs::StdRng;

use crate::engine::{seeded_rng, AgentSimulation, Simulation};
use crate::ensemble::{Ensemble, EnsembleReport};
use crate::faults::{
    CorruptionMode, CrashFaults, FaultCtx, FaultPlan, InteractionDrop, Mttr,
    TransientCorruption,
};
use crate::observe::Probe;
use crate::protocol::Protocol;
use crate::scheduler::BatchPairSampler;
use crate::trace::Tracer;

pub use crate::json::{parse_json, JsonValue};
use crate::json::{write_str, JsonError};

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// A structured, HTTP-mappable error: everything that can go wrong between
/// a request body and a [`RunReport`]. The server never panics on bad
/// input — it renders one of these as a `pp-error/v1` JSON body instead.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The request body is not valid JSON.
    Parse(JsonError),
    /// A required field is missing.
    MissingField(&'static str),
    /// A field holds a value of the wrong shape.
    BadField {
        /// The offending field.
        field: String,
        /// What was expected.
        detail: String,
    },
    /// A field name the spec does not define (typo guard).
    UnknownField(String),
    /// The protocol name is not in the registry.
    UnknownProtocol(String),
    /// A population symbol the protocol does not define.
    UnknownSymbol {
        /// The offending symbol.
        symbol: String,
        /// The symbols the protocol accepts.
        known: Vec<String>,
    },
    /// Fewer than 2 agents.
    PopulationTooSmall(u64),
    /// The population exceeds the server's materialization cap.
    PopulationTooLarge {
        /// Requested population.
        n: u64,
        /// The configured cap.
        max: u64,
    },
    /// An edge-list topology would materialize more directed edges than
    /// the server's materialization cap.
    TopologyTooLarge {
        /// The topology kind.
        kind: &'static str,
        /// Requested population.
        n: u64,
        /// Directed edges it would materialize.
        edges: u64,
        /// The configured cap.
        max: u64,
    },
    /// Formula parsing or compilation failed.
    Compile(String),
    /// The engine/stop/fault combination is not supported.
    Unsupported(String),
    /// An internal invariant failed (maps to HTTP 500).
    Internal(String),
}

impl SpecError {
    /// Stable machine-readable code (the `code` field of `pp-error/v1`).
    pub fn code(&self) -> &'static str {
        match self {
            SpecError::Parse(_) => "parse_error",
            SpecError::MissingField(_) => "missing_field",
            SpecError::BadField { .. } => "bad_field",
            SpecError::UnknownField(_) => "unknown_field",
            SpecError::UnknownProtocol(_) => "unknown_protocol",
            SpecError::UnknownSymbol { .. } => "unknown_symbol",
            SpecError::PopulationTooSmall(_) => "population_too_small",
            SpecError::PopulationTooLarge { .. } => "population_too_large",
            SpecError::TopologyTooLarge { .. } => "topology_too_large",
            SpecError::Compile(_) => "compile_error",
            SpecError::Unsupported(_) => "unsupported",
            SpecError::Internal(_) => "internal",
        }
    }

    /// The HTTP status the error maps to.
    pub fn http_status(&self) -> u16 {
        match self {
            SpecError::PopulationTooLarge { .. } | SpecError::TopologyTooLarge { .. } => 413,
            SpecError::Internal(_) => 500,
            _ => 400,
        }
    }

    /// The `pp-error/v1` JSON body.
    pub fn to_json(&self) -> String {
        let mut obj = error_fields(self.code(), &self.to_string());
        if let SpecError::UnknownSymbol { known, .. } = self {
            obj.push(("known_symbols".to_string(), known.clone().into()));
        }
        JsonValue::Obj(obj).render()
    }
}

/// The `{"schema":"pp-error/v1","code","error"}` fields every error body
/// starts with: `pp-server`'s transport errors render exactly these, and
/// [`SpecError::to_json`] may append more.
pub fn error_fields(code: &str, error: &str) -> Vec<(String, JsonValue)> {
    vec![
        ("schema".to_string(), "pp-error/v1".into()),
        ("code".to_string(), code.into()),
        ("error".to_string(), error.into()),
    ]
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Parse(e) => write!(f, "{e}"),
            SpecError::MissingField(name) => write!(f, "missing field {name:?}"),
            SpecError::BadField { field, detail } => {
                write!(f, "bad value for {field:?}: {detail}")
            }
            SpecError::UnknownField(name) => write!(f, "unknown field {name:?}"),
            SpecError::UnknownProtocol(name) => write!(f, "unknown protocol {name:?}"),
            SpecError::UnknownSymbol { symbol, .. } => {
                write!(f, "variable {symbol:?} does not occur in the protocol")
            }
            SpecError::PopulationTooSmall(n) => {
                write!(f, "population must have at least 2 agents (got {n})")
            }
            SpecError::PopulationTooLarge { n, max } => {
                write!(f, "population {n} exceeds the materialization cap {max}")
            }
            SpecError::TopologyTooLarge { kind, n, edges, max } => write!(
                f,
                "topology {kind:?} on {n} agents has {edges} directed edges, \
                 past the materialization cap {max}"
            ),
            SpecError::Compile(detail) => write!(f, "{detail}"),
            SpecError::Unsupported(detail) => write!(f, "unsupported request: {detail}"),
            SpecError::Internal(detail) => write!(f, "internal error: {detail}"),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<JsonError> for SpecError {
    fn from(e: JsonError) -> Self {
        SpecError::Parse(e)
    }
}

// ---------------------------------------------------------------------------
// The spec
// ---------------------------------------------------------------------------

/// How the spec names its protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtocolRef {
    /// A registry name (resolved by `pp-server`), with optional integer
    /// parameters such as `count-to-k`'s `k`.
    Name {
        /// The registry name.
        name: String,
        /// Named integer parameters.
        params: Vec<(String, u64)>,
    },
    /// A Presburger formula, compiled through the `compile(formula)` seam
    /// (and cached by its spec key).
    Formula(String),
}

/// Which engine executes the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineSel {
    /// One interaction at a time on the count configuration.
    Sequential,
    /// The Θ(√n)-per-sweep batched count engine, from
    /// [`BATCHED_MIN_POPULATION`] agents; a smaller population steps
    /// sequentially, with the same law and a step-exact `stabilized_at`.
    Batched,
    /// Per-agent simulation on an interaction topology (Theorem 7 wrap).
    Agents,
    /// The fluid-limit ODE fast path (`pp-analysis::meanfield`).
    MeanField,
}

impl EngineSel {
    /// The wire name.
    pub fn name(self) -> &'static str {
        match self {
            EngineSel::Sequential => "sequential",
            EngineSel::Batched => "batched",
            EngineSel::Agents => "agents",
            EngineSel::MeanField => "mean-field",
        }
    }
}

/// The interaction topology for [`EngineSel::Agents`].
#[derive(Debug, Clone, PartialEq)]
pub enum TopologySpec {
    /// The complete graph.
    Complete,
    /// An undirected line.
    Line,
    /// An undirected cycle.
    Cycle,
    /// A star.
    Star,
    /// A connected Erdős–Rényi sample, drawn from `seeded_rng(graph_seed)`.
    Random {
        /// Edge probability.
        p: f64,
        /// Seed of the graph-construction RNG (independent of the run seed).
        graph_seed: u64,
    },
    /// A 2-torus on the CSR stencil path (`w·h` must equal `n`).
    Torus2d {
        /// Width.
        w: u32,
        /// Height.
        h: u32,
    },
    /// A 3-torus on the CSR stencil path (`w·h·d` must equal `n`).
    Torus3d {
        /// Width.
        w: u32,
        /// Height.
        h: u32,
        /// Depth.
        d: u32,
    },
}

impl TopologySpec {
    /// The wire name of the kind.
    pub fn kind(&self) -> &'static str {
        match self {
            TopologySpec::Complete => "complete",
            TopologySpec::Line => "line",
            TopologySpec::Cycle => "cycle",
            TopologySpec::Star => "star",
            TopologySpec::Random { .. } => "random",
            TopologySpec::Torus2d { .. } => "torus2d",
            TopologySpec::Torus3d { .. } => "torus3d",
        }
    }
}

/// When a run stops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopCondition {
    /// Measure stabilization to the ground-truth output over the horizon
    /// (the default; reports `stabilized_at` and the confirmed tail).
    Stabilization,
    /// Stop at first output consensus (sequential engine only).
    Consensus,
    /// Run exactly `horizon` interactions and report the output histogram.
    FixedSteps,
}

impl StopCondition {
    /// The wire name.
    pub fn name(self) -> &'static str {
        match self {
            StopCondition::Stabilization => "stabilization",
            StopCondition::Consensus => "consensus",
            StopCondition::FixedSteps => "fixed",
        }
    }
}

/// Declarative fault plan: crash bursts, uniform corruption bursts, and an
/// interaction-drop probability, composed in that order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultSpec {
    /// `(slot, count)` crash bursts.
    pub crash: Vec<(u64, u64)>,
    /// `(slot, count)` uniform-corruption bursts.
    pub corrupt: Vec<(u64, u64)>,
    /// Probability that any interaction slot is dropped.
    pub drop: f64,
}

impl FaultSpec {
    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.crash.is_empty() && self.corrupt.is_empty() && self.drop == 0.0
    }

    /// Materializes the plan for a protocol with state type `S`.
    pub fn build_plan<S: Clone>(&self) -> SpecFaultPlan<S> {
        SpecFaultPlan {
            crash: CrashFaults::schedule(
                self.crash.iter().map(|&(t, k)| (t, k)).collect(),
            ),
            corrupt: TransientCorruption::schedule(
                self.corrupt.iter().map(|&(t, k)| (t, k)).collect(),
                CorruptionMode::UniformKnown,
            ),
            drop: InteractionDrop::new(self.drop),
        }
    }
}

/// The composed fault plan a [`FaultSpec`] materializes: crashes, then
/// uniform corruption, then drops.
#[derive(Debug, Clone)]
pub struct SpecFaultPlan<S> {
    crash: CrashFaults,
    corrupt: TransientCorruption<S>,
    drop: InteractionDrop,
}

impl<S: Clone> FaultPlan<S> for SpecFaultPlan<S> {
    fn inject(
        &mut self,
        step: u64,
        ctx: &mut dyn FaultCtx<S>,
        rng: &mut dyn rand::RngCore,
    ) -> u64 {
        self.crash.inject(step, ctx, rng) + self.corrupt.inject(step, ctx, rng)
    }

    fn drop_probability(&mut self, step: u64) -> f64 {
        FaultPlan::<S>::drop_probability(&mut self.drop, step)
    }
}

/// What the run streams while it executes.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProbeSpec {
    /// Stream JSON-Lines interaction events
    /// ([`JsonlSink`](crate::observe::JsonlSink)); single-trial count
    /// engines only.
    pub jsonl: bool,
    /// Event thinning stride for the JSONL stream (≥ 1).
    pub stride: u64,
}

/// Mean-field knobs ([`EngineSel::MeanField`] only).
#[derive(Debug, Clone, PartialEq)]
pub struct MeanFieldSpec {
    /// Integration horizon in parallel time `τ`.
    pub horizon: f64,
    /// Integrate the linear-noise covariance alongside the mean.
    pub diffusion: bool,
    /// Evaluate the problem at this population instead of the spec's
    /// materialized one (the `n = 10¹⁵` query; exempt from the cap).
    pub population: Option<u64>,
    /// Threshold for `predicted_stabilization_interactions`.
    pub eps: f64,
}

impl Default for MeanFieldSpec {
    fn default() -> Self {
        Self { horizon: 200.0, diffusion: false, population: None, eps: 0.01 }
    }
}

/// The unified run request. See the [module docs](self) for the design;
/// construct with [`RunSpec::new`] + builder methods, or parse a request
/// body with [`RunSpec::from_json`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// What to run.
    pub protocol: ProtocolRef,
    /// Ordered `(symbol, count)` pairs. Order is semantic: it fixes the
    /// state-interning order, hence the RNG stream, hence the bytes.
    pub population: Vec<(String, u64)>,
    /// Master seed.
    pub seed: u64,
    /// Which engine runs it.
    pub engine: EngineSel,
    /// Topology for the agents engine (`None` elsewhere).
    pub topology: Option<TopologySpec>,
    /// Trials: 1 = single run, > 1 = deterministic ensemble.
    pub trials: u64,
    /// Worker threads for ensembles (0 = the executor's default).
    pub threads: usize,
    /// Interaction horizon (`None` = `200·n²·ln n`, the CLI default).
    pub horizon: Option<u64>,
    /// Stop condition.
    pub stop: StopCondition,
    /// Optional fault plan.
    pub faults: Option<FaultSpec>,
    /// Probe / streaming request.
    pub probe: ProbeSpec,
    /// Mean-field knobs.
    pub mean_field: Option<MeanFieldSpec>,
}

impl RunSpec {
    /// A single-trial sequential stabilization run of `protocol` on
    /// `population` with the given seed — the smallest useful spec.
    pub fn new(protocol: ProtocolRef, population: Vec<(String, u64)>, seed: u64) -> Self {
        Self {
            protocol,
            population,
            seed,
            engine: EngineSel::Sequential,
            topology: None,
            trials: 1,
            threads: 0,
            horizon: None,
            stop: StopCondition::Stabilization,
            faults: None,
            probe: ProbeSpec::default(),
            mean_field: None,
        }
    }

    /// Total population size, saturating at `u64::MAX` (counts are
    /// untrusted; a saturated total is refused as too large).
    pub fn population_size(&self) -> u64 {
        self.population.iter().fold(0, |n, (_, c)| n.saturating_add(*c))
    }

    /// The default horizon `200·n²·ln n` (the historical CLI default),
    /// saturating at `u64::MAX`. `n²` is taken in `f64`: where the `u64`
    /// product does not overflow both are the correctly rounded exact
    /// product, so the bits are the same.
    pub fn default_horizon(n: u64) -> u64 {
        let ln = (n.max(2) as f64).ln();
        let nf = n as f64;
        (200.0 * (nf * nf) * ln) as u64
    }

    /// The horizon this spec runs with.
    pub fn effective_horizon(&self) -> u64 {
        self.horizon.unwrap_or_else(|| Self::default_horizon(self.population_size()))
    }

    /// Parses a spec from a JSON request body. Unknown fields are
    /// rejected (typo guard), missing optional fields take defaults.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] naming the offending field.
    pub fn from_json(text: &str) -> Result<Self, SpecError> {
        Self::from_value(&parse_json(text)?)
    }

    /// Parses a spec from an already-parsed [`JsonValue`].
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] naming the offending field.
    pub fn from_value(v: &JsonValue) -> Result<Self, SpecError> {
        let fields = match v {
            JsonValue::Obj(fields) => fields,
            _ => {
                return Err(SpecError::BadField {
                    field: "<root>".to_string(),
                    detail: "spec must be a JSON object".to_string(),
                })
            }
        };
        const KNOWN: &[&str] = &[
            "protocol", "population", "seed", "engine", "topology",
            "trials", "threads", "horizon", "stop", "faults", "probe", "mean_field",
        ];
        for (k, _) in fields {
            if !KNOWN.contains(&k.as_str()) {
                return Err(SpecError::UnknownField(k.clone()));
            }
        }

        let protocol = parse_protocol_ref(
            v.get("protocol").ok_or(SpecError::MissingField("protocol"))?,
        )?;
        let population = parse_population(
            v.get("population").ok_or(SpecError::MissingField("population"))?,
        )?;
        let seed = opt_u64(v, "seed")?.unwrap_or(0);
        let engine = match opt_str(v, "engine")? {
            None | Some("sequential") => EngineSel::Sequential,
            Some("batched") => EngineSel::Batched,
            Some("agents") => EngineSel::Agents,
            Some("mean-field") => EngineSel::MeanField,
            Some(other) => return Err(bad("engine", &format!("unknown engine {other:?}"))),
        };
        let topology = match v.get("topology") {
            None | Some(JsonValue::Null) => None,
            Some(t) => Some(parse_topology(t)?),
        };
        let trials = opt_u64(v, "trials")?.unwrap_or(1).max(1);
        let threads = opt_u64(v, "threads")?.unwrap_or(0) as usize;
        let horizon = opt_u64(v, "horizon")?;
        let stop = match opt_str(v, "stop")? {
            None | Some("stabilization") => StopCondition::Stabilization,
            Some("consensus") => StopCondition::Consensus,
            Some("fixed") => StopCondition::FixedSteps,
            Some(other) => return Err(bad("stop", &format!("unknown stop {other:?}"))),
        };
        let faults = match v.get("faults") {
            None | Some(JsonValue::Null) => None,
            Some(fv) => {
                let f = parse_faults(fv)?;
                if f.is_empty() {
                    None
                } else {
                    Some(f)
                }
            }
        };
        let probe = match v.get("probe") {
            None | Some(JsonValue::Null) => ProbeSpec::default(),
            Some(pv) => parse_probe(pv)?,
        };
        let mean_field = match v.get("mean_field") {
            None | Some(JsonValue::Null) => None,
            Some(mv) => Some(parse_mean_field(mv)?),
        };
        Ok(Self {
            protocol,
            population,
            seed,
            engine,
            topology,
            trials,
            threads,
            horizon,
            stop,
            faults,
            probe,
            mean_field,
        })
    }

    /// Canonical JSON: fixed field order, defaults omitted. Two specs are
    /// the same request iff their canonical renderings are byte-equal, so
    /// this string is the cache key for response caching.
    pub fn canonical_json(&self) -> String {
        self.to_value().render()
    }

    /// The spec as a [`JsonValue`] (the `spec` echo inside reports).
    pub fn to_value(&self) -> JsonValue {
        let mut obj: Vec<(String, JsonValue)> = Vec::new();
        let proto = match &self.protocol {
            ProtocolRef::Name { name, params } => {
                let mut p = vec![("name".to_string(), JsonValue::Str(name.clone()))];
                for (k, v) in params {
                    p.push((k.clone(), JsonValue::Num(*v as f64)));
                }
                JsonValue::Obj(p)
            }
            ProtocolRef::Formula(src) => JsonValue::Obj(vec![(
                "formula".to_string(),
                JsonValue::Str(src.clone()),
            )]),
        };
        obj.push(("protocol".to_string(), proto));
        obj.push((
            "population".to_string(),
            JsonValue::Obj(
                self.population
                    .iter()
                    .map(|(s, c)| (s.clone(), JsonValue::Num(*c as f64)))
                    .collect(),
            ),
        ));
        obj.push(("seed".to_string(), JsonValue::Num(self.seed as f64)));
        obj.push(("engine".to_string(), JsonValue::Str(self.engine.name().to_string())));
        if let Some(t) = &self.topology {
            let mut tf = vec![("kind".to_string(), JsonValue::Str(t.kind().to_string()))];
            match t {
                TopologySpec::Random { p, graph_seed } => {
                    tf.push(("p".to_string(), JsonValue::Num(*p)));
                    tf.push(("graph_seed".to_string(), JsonValue::Num(*graph_seed as f64)));
                }
                TopologySpec::Torus2d { w, h } => {
                    tf.push(("w".to_string(), JsonValue::Num(*w as f64)));
                    tf.push(("h".to_string(), JsonValue::Num(*h as f64)));
                }
                TopologySpec::Torus3d { w, h, d } => {
                    tf.push(("w".to_string(), JsonValue::Num(*w as f64)));
                    tf.push(("h".to_string(), JsonValue::Num(*h as f64)));
                    tf.push(("d".to_string(), JsonValue::Num(*d as f64)));
                }
                _ => {}
            }
            obj.push(("topology".to_string(), JsonValue::Obj(tf)));
        }
        if self.trials != 1 {
            obj.push(("trials".to_string(), JsonValue::Num(self.trials as f64)));
        }
        // `threads` is deliberately NOT echoed: it is execution policy, not
        // request semantics. Ensembles are thread-count-invariant, so specs
        // differing only in `threads` are the same request — same canonical
        // key, byte-identical reports.
        if let Some(h) = self.horizon {
            obj.push(("horizon".to_string(), JsonValue::Num(h as f64)));
        }
        if self.stop != StopCondition::Stabilization {
            obj.push(("stop".to_string(), JsonValue::Str(self.stop.name().to_string())));
        }
        if let Some(f) = &self.faults {
            let pair = |xs: &[(u64, u64)]| {
                JsonValue::Arr(
                    xs.iter()
                        .map(|&(t, k)| {
                            JsonValue::Arr(vec![
                                JsonValue::Num(t as f64),
                                JsonValue::Num(k as f64),
                            ])
                        })
                        .collect(),
                )
            };
            let mut ff = Vec::new();
            if !f.crash.is_empty() {
                ff.push(("crash".to_string(), pair(&f.crash)));
            }
            if !f.corrupt.is_empty() {
                ff.push(("corrupt".to_string(), pair(&f.corrupt)));
            }
            if f.drop != 0.0 {
                ff.push(("drop".to_string(), JsonValue::Num(f.drop)));
            }
            obj.push(("faults".to_string(), JsonValue::Obj(ff)));
        }
        if self.probe.jsonl {
            obj.push((
                "probe".to_string(),
                JsonValue::Obj(vec![
                    ("kind".to_string(), JsonValue::Str("jsonl".to_string())),
                    ("stride".to_string(), JsonValue::Num(self.probe.stride.max(1) as f64)),
                ]),
            ));
        }
        if let Some(m) = &self.mean_field {
            let mut mf = vec![("horizon".to_string(), JsonValue::Num(m.horizon))];
            if m.diffusion {
                mf.push(("diffusion".to_string(), JsonValue::Bool(true)));
            }
            if let Some(p) = m.population {
                mf.push(("population".to_string(), JsonValue::Num(p as f64)));
            }
            mf.push(("eps".to_string(), JsonValue::Num(m.eps)));
            obj.push(("mean_field".to_string(), JsonValue::Obj(mf)));
        }
        JsonValue::Obj(obj)
    }
}

fn bad(field: &str, detail: &str) -> SpecError {
    SpecError::BadField { field: field.to_string(), detail: detail.to_string() }
}

fn opt_u64(v: &JsonValue, field: &'static str) -> Result<Option<u64>, SpecError> {
    match v.get(field) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(x) => x
            .as_u64()
            .map(Some)
            .ok_or_else(|| bad(field, "must be a non-negative integer")),
    }
}

fn opt_str<'a>(v: &'a JsonValue, field: &'static str) -> Result<Option<&'a str>, SpecError> {
    match v.get(field) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(x) => x.as_str().map(Some).ok_or_else(|| bad(field, "must be a string")),
    }
}

fn parse_protocol_ref(v: &JsonValue) -> Result<ProtocolRef, SpecError> {
    if let Some(src) = v.get("formula").and_then(JsonValue::as_str) {
        return Ok(ProtocolRef::Formula(src.to_string()));
    }
    if let Some(name) = v.get("name").and_then(JsonValue::as_str) {
        let mut params = Vec::new();
        if let JsonValue::Obj(fields) = v {
            for (k, pv) in fields {
                if k == "name" {
                    continue;
                }
                let x = pv
                    .as_u64()
                    .ok_or_else(|| bad(k, "protocol parameters must be integers"))?;
                params.push((k.clone(), x));
            }
        }
        return Ok(ProtocolRef::Name { name: name.to_string(), params });
    }
    Err(bad("protocol", "must carry either \"name\" or \"formula\""))
}

fn parse_population(v: &JsonValue) -> Result<Vec<(String, u64)>, SpecError> {
    let fields = match v {
        JsonValue::Obj(fields) => fields,
        _ => return Err(bad("population", "must be an object of symbol -> count")),
    };
    let mut out = Vec::with_capacity(fields.len());
    for (k, cv) in fields {
        let c = cv
            .as_u64()
            .ok_or_else(|| bad(k, "counts must be non-negative integers"))?;
        if out.iter().any(|(s, _)| s == k) {
            return Err(bad(k, "duplicate population symbol"));
        }
        out.push((k.clone(), c));
    }
    if out.is_empty() {
        return Err(bad("population", "must name at least one symbol"));
    }
    Ok(out)
}

fn parse_topology(v: &JsonValue) -> Result<TopologySpec, SpecError> {
    let kind = v
        .get("kind")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| bad("topology", "must carry a \"kind\""))?;
    let u32_field = |name: &str| -> Result<u32, SpecError> {
        v.get(name)
            .and_then(JsonValue::as_u64)
            .and_then(|x| u32::try_from(x).ok())
            .ok_or_else(|| bad(name, "must be a u32"))
    };
    match kind {
        "complete" => Ok(TopologySpec::Complete),
        "line" => Ok(TopologySpec::Line),
        "cycle" => Ok(TopologySpec::Cycle),
        "star" => Ok(TopologySpec::Star),
        "random" => {
            let p = v
                .get("p")
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| bad("p", "must be a probability"))?;
            if !(0.0..=1.0).contains(&p) {
                return Err(bad("p", "must be in [0, 1]"));
            }
            let graph_seed = v.get("graph_seed").and_then(JsonValue::as_u64).unwrap_or(0);
            Ok(TopologySpec::Random { p, graph_seed })
        }
        "torus2d" => Ok(TopologySpec::Torus2d { w: u32_field("w")?, h: u32_field("h")? }),
        "torus3d" => Ok(TopologySpec::Torus3d {
            w: u32_field("w")?,
            h: u32_field("h")?,
            d: u32_field("d")?,
        }),
        other => Err(bad("topology", &format!("unknown kind {other:?}"))),
    }
}

fn parse_burst_list(v: &JsonValue, field: &str) -> Result<Vec<(u64, u64)>, SpecError> {
    let xs = match v {
        JsonValue::Arr(xs) => xs,
        _ => return Err(bad(field, "must be an array of [slot, count] pairs")),
    };
    let mut out = Vec::with_capacity(xs.len());
    for x in xs {
        match x {
            JsonValue::Arr(pair) if pair.len() == 2 => {
                let t = pair[0]
                    .as_u64()
                    .ok_or_else(|| bad(field, "slots must be integers"))?;
                let k = pair[1]
                    .as_u64()
                    .ok_or_else(|| bad(field, "counts must be integers"))?;
                out.push((t, k));
            }
            _ => return Err(bad(field, "must be an array of [slot, count] pairs")),
        }
    }
    Ok(out)
}

fn parse_faults(v: &JsonValue) -> Result<FaultSpec, SpecError> {
    let fields = match v {
        JsonValue::Obj(fields) => fields,
        _ => return Err(bad("faults", "must be an object")),
    };
    let mut out = FaultSpec::default();
    for (k, fv) in fields {
        match k.as_str() {
            "crash" => out.crash = parse_burst_list(fv, "faults.crash")?,
            "corrupt" => out.corrupt = parse_burst_list(fv, "faults.corrupt")?,
            "drop" => {
                let p = fv
                    .as_f64()
                    .ok_or_else(|| bad("faults.drop", "must be a probability"))?;
                // p = 1 would freeze the schedule forever (InteractionDrop
                // rejects it with a panic; we refuse it with an error).
                if !(0.0..1.0).contains(&p) {
                    return Err(bad("faults.drop", "must be in [0, 1)"));
                }
                out.drop = p;
            }
            other => return Err(SpecError::UnknownField(format!("faults.{other}"))),
        }
    }
    Ok(out)
}

fn parse_probe(v: &JsonValue) -> Result<ProbeSpec, SpecError> {
    match v {
        JsonValue::Str(s) if s == "none" => Ok(ProbeSpec::default()),
        JsonValue::Str(s) if s == "jsonl" => Ok(ProbeSpec { jsonl: true, stride: 1 }),
        JsonValue::Obj(_) => {
            let kind = v
                .get("kind")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| bad("probe", "must carry a \"kind\""))?;
            match kind {
                "none" => Ok(ProbeSpec::default()),
                "jsonl" => {
                    let stride = match v.get("stride") {
                        None | Some(JsonValue::Null) => 1,
                        Some(x) => x
                            .as_u64()
                            .filter(|&s| s >= 1)
                            .ok_or_else(|| bad("probe.stride", "must be an integer >= 1"))?,
                    };
                    Ok(ProbeSpec { jsonl: true, stride })
                }
                other => Err(bad("probe", &format!("unknown kind {other:?}"))),
            }
        }
        _ => Err(bad("probe", "must be \"none\", \"jsonl\", or an object")),
    }
}

fn parse_mean_field(v: &JsonValue) -> Result<MeanFieldSpec, SpecError> {
    let fields = match v {
        JsonValue::Obj(fields) => fields,
        _ => return Err(bad("mean_field", "must be an object")),
    };
    let mut out = MeanFieldSpec::default();
    for (k, fv) in fields {
        match k.as_str() {
            "horizon" => {
                out.horizon = fv
                    .as_f64()
                    .filter(|x| *x > 0.0)
                    .ok_or_else(|| bad("mean_field.horizon", "must be a positive time"))?;
            }
            "diffusion" => {
                out.diffusion = match fv {
                    JsonValue::Null => false,
                    JsonValue::Bool(b) => *b,
                    _ => return Err(bad("mean_field.diffusion", "must be a boolean")),
                };
            }
            "population" => {
                out.population = Some(
                    fv.as_u64()
                        .filter(|&n| n >= 2)
                        .ok_or_else(|| bad("mean_field.population", "must be >= 2"))?,
                );
            }
            "eps" => {
                out.eps = fv
                    .as_f64()
                    .filter(|x| *x > 0.0 && *x < 1.0)
                    .ok_or_else(|| bad("mean_field.eps", "must be in (0, 1)"))?;
            }
            other => return Err(SpecError::UnknownField(format!("mean_field.{other}"))),
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Outcomes and reports
// ---------------------------------------------------------------------------

/// A single deterministic run's result.
#[derive(Debug, Clone, PartialEq)]
pub struct SingleRun {
    /// First interaction index after which the output held to the end
    /// (consensus step under [`StopCondition::Consensus`]).
    pub stabilized_at: Option<u64>,
    /// Interactions after stabilization.
    pub silent_tail: u64,
    /// The horizon the run was given.
    pub horizon: u64,
    /// Total interactions executed.
    pub steps: u64,
    /// State-changing interactions (`None` where the engine doesn't
    /// track them).
    pub effective_steps: Option<u64>,
    /// Final output multiset (`Debug`-rendered outputs, interning order).
    pub outputs: Vec<(String, u64)>,
}

/// Aggregate of a faulted run (or a fault ensemble).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSummary {
    /// Trials executed.
    pub trials: u64,
    /// Trials whose final segment recovered the expected output.
    pub recovered: u64,
    /// Faults injected, summed over trials.
    pub faults_injected: u64,
    /// Slots dropped, summed over trials.
    pub dropped: u64,
    /// The mergeable MTTR summary over every trial's final segment
    /// (`pp-mttr/v1` JSON).
    pub mttr_json: String,
}

/// What a dispatched run produced (typed, so callers like benches can
/// reach the underlying statistics without re-parsing JSON).
#[derive(Debug, Clone)]
pub enum RunOutcome {
    /// One deterministic trial.
    Single(SingleRun),
    /// A deterministic multi-trial ensemble.
    Ensemble(EnsembleReport),
    /// A faulted run or fault ensemble.
    Faults(FaultSummary),
    /// An engine realized outside `pp-core` (mean-field): a tag plus a
    /// ready-made JSON body.
    External {
        /// Result-kind tag (e.g. `"mean-field"`).
        kind: String,
        /// The `result` object body.
        body: JsonValue,
    },
}

/// The response of [`run_counts`]/[`run_agents`] after the resolver wraps
/// it with protocol metadata: everything a client needs, rendered as one
/// deterministic `pp-run/v1` JSON object by [`to_json`](Self::to_json).
///
/// Reports deliberately contain **no wall-clock fields** — byte equality
/// across server restarts and thread counts is a hard guarantee (timing
/// travels in HTTP headers instead).
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Cache/identity key of the protocol that ran (registry name or
    /// compile key).
    pub protocol_key: String,
    /// The engine that ran.
    pub engine: EngineSel,
    /// The protocol's input symbols, in symbol-index order.
    pub symbols: Vec<String>,
    /// Counts by symbol index (aligned with `symbols`).
    pub counts: Vec<u64>,
    /// Total population.
    pub population: u64,
    /// Ground truth of the predicate on this input, when defined.
    pub ground_truth: Option<bool>,
    /// Edge count of the materialized topology (agents engine).
    pub edges: Option<u64>,
    /// The run's outcome.
    pub outcome: RunOutcome,
    /// Canonical spec echo.
    pub spec: JsonValue,
}

impl RunReport {
    /// The single-run outcome, if that is what ran.
    pub fn single(&self) -> Option<&SingleRun> {
        match &self.outcome {
            RunOutcome::Single(s) => Some(s),
            _ => None,
        }
    }

    /// The ensemble report, if an ensemble ran.
    pub fn ensemble(&self) -> Option<&EnsembleReport> {
        match &self.outcome {
            RunOutcome::Ensemble(e) => Some(e),
            _ => None,
        }
    }

    /// Deterministic `pp-run/v1` JSON. Byte-identical for byte-identical
    /// canonical specs, on any fresh process, at any thread count.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\"schema\":\"pp-run/v1\"");
        s.push_str(",\"protocol\":");
        write_str(&mut s, &self.protocol_key);
        s.push_str(&format!(",\"engine\":\"{}\"", self.engine.name()));
        s.push_str(",\"symbols\":");
        s.push_str(
            &JsonValue::Arr(
                self.symbols.iter().map(|x| JsonValue::Str(x.clone())).collect(),
            )
            .render(),
        );
        s.push_str(",\"counts\":[");
        for (i, c) in self.counts.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("{c}"));
        }
        s.push(']');
        s.push_str(&format!(",\"population\":{}", self.population));
        match self.ground_truth {
            Some(b) => s.push_str(&format!(",\"ground_truth\":{b}")),
            None => s.push_str(",\"ground_truth\":null"),
        }
        if let Some(e) = self.edges {
            s.push_str(&format!(",\"edges\":{e}"));
        }
        s.push_str(",\"result\":");
        match &self.outcome {
            RunOutcome::Single(r) => {
                s.push_str("{\"kind\":\"single\"");
                match r.stabilized_at {
                    Some(t) => s.push_str(&format!(",\"stabilized_at\":{t}")),
                    None => s.push_str(",\"stabilized_at\":null"),
                }
                s.push_str(&format!(",\"silent_tail\":{}", r.silent_tail));
                s.push_str(&format!(",\"horizon\":{}", r.horizon));
                s.push_str(&format!(",\"steps\":{}", r.steps));
                match r.effective_steps {
                    Some(t) => s.push_str(&format!(",\"effective_steps\":{t}")),
                    None => s.push_str(",\"effective_steps\":null"),
                }
                s.push_str(",\"outputs\":{");
                for (i, (o, c)) in r.outputs.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    write_str(&mut s, o);
                    s.push_str(&format!(":{c}"));
                }
                s.push_str("}}");
            }
            RunOutcome::Ensemble(e) => {
                s.push_str("{\"kind\":\"ensemble\",\"report\":");
                s.push_str(&e.to_json());
                s.push('}');
            }
            RunOutcome::Faults(f) => {
                s.push_str("{\"kind\":\"faults\"");
                s.push_str(&format!(",\"trials\":{}", f.trials));
                s.push_str(&format!(",\"recovered\":{}", f.recovered));
                s.push_str(&format!(",\"faults_injected\":{}", f.faults_injected));
                s.push_str(&format!(",\"dropped\":{}", f.dropped));
                s.push_str(",\"mttr\":");
                s.push_str(&f.mttr_json);
                s.push('}');
            }
            RunOutcome::External { kind, body } => {
                s.push_str("{\"kind\":");
                write_str(&mut s, kind);
                if let JsonValue::Obj(fields) = body {
                    for (name, v) in fields {
                        s.push(',');
                        write_str(&mut s, name);
                        s.push(':');
                        v.write(&mut s);
                    }
                }
                s.push('}');
            }
        }
        s.push_str(",\"spec\":");
        self.spec.write(&mut s);
        s.push('}');
        s
    }
}

// ---------------------------------------------------------------------------
// The core dispatchers
// ---------------------------------------------------------------------------

/// The final output multiset, `Debug`-rendered in interning order.
fn outputs_of<O: fmt::Debug>(histogram: Vec<(O, u64)>) -> Vec<(String, u64)> {
    histogram.into_iter().map(|(o, c)| (format!("{o:?}"), c)).collect()
}

/// The smallest population on which an `engine: "batched"` request runs
/// on windows ([`Simulation::run_batched`] and
/// [`Simulation::measure_stabilization_batched`]). A smaller batched
/// request steps sequentially: both engines sample the same uniform-pairing
/// chain, so the law is the same, the report is the sequential engine's
/// byte for byte, and `stabilized_at` is step-exact rather than the first
/// step of the final window.
///
/// Windows pay off only once each one covers many interactions. E19's
/// `crossover_step` / `crossover_windows` rows
/// (`BENCH_e19_batched_throughput.json`: a fresh simulation, best of 7
/// runs of 2·10⁵ interactions, one CPU) put sequential stepping ahead at
/// n ∈ {10, 32, 100} for both exact and approximate majority, with windows
/// at 0.27–0.64× its speed. At n = 316 approximate majority breaks even
/// (1.06×) and exact majority still loses (0.73×); at n = 1000 windows win
/// 2.0× and 1.07×. 256 sits below every measured crossover, and it keeps
/// E20's n = 256 row on windows.
pub const BATCHED_MIN_POPULATION: u64 = 256;

/// Whether `spec` selects the batched count engine (`false`: sequential).
/// Validation (consensus and faults run sequentially) keys on this, so a
/// batched request is refused the same way at any population.
fn count_engine_batched(spec: &RunSpec) -> Result<bool, SpecError> {
    match spec.engine {
        EngineSel::Sequential => Ok(false),
        EngineSel::Batched => Ok(true),
        other => Err(SpecError::Internal(format!(
            "count engine dispatched with engine {:?}",
            other.name()
        ))),
    }
}

fn consensus_needs_sequential() -> SpecError {
    SpecError::Unsupported("stop=\"consensus\" runs on the sequential engine".to_string())
}

/// Runs one trial of `sim` on the count engine under `spec`'s stop
/// condition — stabilization, first consensus, or a fixed number of
/// steps, sequential or batched — drawing from `seeded_rng(spec.seed)`.
/// A batched spec below [`BATCHED_MIN_POPULATION`] agents steps
/// sequentially.
/// Generic over the simulation's probe and tracer, so a streamed run
/// (a [`JsonlSink`](crate::observe::JsonlSink)-probed simulation) and a
/// plain one take the same path and report the same [`SingleRun`].
///
/// # Errors
///
/// [`SpecError::Unsupported`] for consensus × batched;
/// [`SpecError::Internal`] when `spec` names a non-count engine.
pub fn run_single<P, Pr, Tr>(
    spec: &RunSpec,
    sim: &mut Simulation<P, Pr, Tr>,
    expected: &P::Output,
) -> Result<SingleRun, SpecError>
where
    P: Protocol,
    Pr: Probe,
    Tr: Tracer,
{
    let batched = count_engine_batched(spec)?;
    let windows = batched && spec.population_size() >= BATCHED_MIN_POPULATION;
    let mut horizon = spec.effective_horizon();
    let mut rng = seeded_rng(spec.seed);
    let (stabilized_at, silent_tail) = match spec.stop {
        StopCondition::Stabilization => {
            let rep = if windows {
                sim.measure_stabilization_batched(expected, horizon, &mut rng)
            } else {
                sim.measure_stabilization(expected, horizon, &mut rng)
            };
            horizon = rep.horizon;
            (rep.stabilized_at, rep.silent_tail())
        }
        StopCondition::Consensus if batched => return Err(consensus_needs_sequential()),
        StopCondition::Consensus => (sim.run_until_consensus(expected, horizon, &mut rng), 0),
        StopCondition::FixedSteps => {
            if windows {
                sim.run_batched(horizon, &mut rng);
            } else {
                sim.run(horizon, &mut rng);
            }
            (None, 0)
        }
    };
    Ok(SingleRun {
        stabilized_at,
        silent_tail,
        horizon,
        steps: sim.steps(),
        effective_steps: Some(sim.effective_steps()),
        outputs: outputs_of(sim.output_histogram()),
    })
}

/// Runs `spec` on the **count engine** (complete interaction graph):
/// sequential or batched, one trial or a deterministic ensemble, faulted
/// or clean. This is the single seam every count-based front end routes
/// through; it reproduces, stream-for-stream, what the historical direct
/// calls produced.
///
/// `pairs` are `(input, count)` in spec order (order fixes interning and
/// the RNG stream), `expected` is the ground-truth output measured
/// against. As in [`run_single`], a batched spec below
/// [`BATCHED_MIN_POPULATION`] agents steps sequentially.
///
/// # Errors
///
/// [`SpecError::Unsupported`] for combinations outside the matrix
/// (consensus × batched, fixed × ensemble, faults × consensus/fixed).
pub fn run_counts<P>(
    spec: &RunSpec,
    protocol: &P,
    pairs: &[(P::Input, u64)],
    expected: &P::Output,
) -> Result<RunOutcome, SpecError>
where
    P: Protocol + Clone + Send + Sync,
    P::Input: Sync,
    P::Output: Sync,
{
    let horizon = spec.effective_horizon();
    let batched = count_engine_batched(spec)?;
    let windows = batched && spec.population_size() >= BATCHED_MIN_POPULATION;
    let make = |_trial: u64| {
        Simulation::from_counts(protocol.clone(), pairs.iter().cloned())
    };

    if let Some(faults) = &spec.faults {
        if spec.stop != StopCondition::Stabilization {
            return Err(SpecError::Unsupported(
                "faulted runs measure recovery; use stop=\"stabilization\"".to_string(),
            ));
        }
        if batched {
            return Err(SpecError::Unsupported(
                "fault injection runs on the sequential engine".to_string(),
            ));
        }
        let run_one = |rng: &mut StdRng| {
            let mut sim = make(0);
            let mut plan = faults.build_plan::<P::State>();
            sim.run_with_faults(&mut plan, expected, horizon, rng)
        };
        let runs = if spec.trials == 1 {
            vec![run_one(&mut seeded_rng(spec.seed))]
        } else {
            ensemble_of(spec).map(|_trial, rng| run_one(rng))
        };
        let mut mttr = Mttr::new();
        let mut injected = 0u64;
        let mut dropped = 0u64;
        let mut recovered = 0u64;
        for r in &runs {
            mttr.absorb(r.final_segment());
            injected += r.faults_injected;
            dropped += r.dropped;
            recovered += u64::from(r.recovered());
        }
        return Ok(RunOutcome::Faults(FaultSummary {
            trials: runs.len() as u64,
            recovered,
            faults_injected: injected,
            dropped,
            mttr_json: mttr.to_json(),
        }));
    }

    if spec.trials == 1 {
        return run_single(spec, &mut make(0), expected).map(RunOutcome::Single);
    }

    // Ensemble path: one record per trial (`None` = did not converge),
    // byte-identical statistics at any thread count.
    let ens = ensemble_of(spec);
    let report = match spec.stop {
        StopCondition::Stabilization => ens.summarize(|trial, rng| {
            let mut sim = make(trial);
            let rep = if windows {
                sim.measure_stabilization_batched(expected, horizon, rng)
            } else {
                sim.measure_stabilization(expected, horizon, rng)
            };
            rep.stabilized_at.map(|t| t as f64)
        }),
        StopCondition::Consensus if batched => return Err(consensus_needs_sequential()),
        StopCondition::Consensus => ens.summarize(|trial, rng| {
            make(trial).run_until_consensus(expected, horizon, rng).map(|t| t as f64)
        }),
        StopCondition::FixedSteps => {
            return Err(SpecError::Unsupported(
                "stop=\"fixed\" reports one histogram; run it with trials=1".to_string(),
            ))
        }
    };
    Ok(RunOutcome::Ensemble(report))
}

/// Runs `spec` on the **agent engine** over any batch sampler: one trial
/// or a deterministic ensemble, each trial through the batched
/// [`AgentSimulation::measure_stabilization`]. The caller (the resolver
/// layer) materializes the topology and builds `mk_sampler`, one sampler
/// per trial; `inputs` are per-agent inputs in spec order.
///
/// # Errors
///
/// [`SpecError::Unsupported`] for stop conditions other than
/// stabilization, and for fault plans (count engine only in v1).
pub fn run_agents<P, S, F>(
    spec: &RunSpec,
    protocol: &P,
    inputs: &[P::Input],
    expected: &P::Output,
    mk_sampler: F,
) -> Result<RunOutcome, SpecError>
where
    P: Protocol + Clone + Send + Sync,
    P::Input: Sync,
    P::Output: Sync,
    S: BatchPairSampler,
    F: Fn() -> S + Sync,
{
    if spec.faults.is_some() {
        return Err(SpecError::Unsupported(
            "fault plans run on the count engines in this version".to_string(),
        ));
    }
    if spec.stop != StopCondition::Stabilization {
        return Err(SpecError::Unsupported(
            "the agents engine measures stabilization".to_string(),
        ));
    }
    let horizon = spec.effective_horizon();
    let make = |_trial: u64| {
        AgentSimulation::from_inputs(protocol.clone(), inputs, mk_sampler())
    };
    if spec.trials == 1 {
        let mut sim = make(0);
        let rep = sim.measure_stabilization(expected, horizon, &mut seeded_rng(spec.seed));
        return Ok(RunOutcome::Single(SingleRun {
            stabilized_at: rep.stabilized_at,
            silent_tail: rep.silent_tail(),
            horizon: rep.horizon,
            steps: sim.steps(),
            effective_steps: Some(sim.effective_steps()),
            outputs: outputs_of(sim.output_histogram()),
        }));
    }
    let report = ensemble_of(spec).summarize(|trial, rng| {
        let rep = make(trial).measure_stabilization(expected, horizon, rng);
        rep.stabilized_at.map(|t| t as f64)
    });
    Ok(RunOutcome::Ensemble(report))
}

fn ensemble_of(spec: &RunSpec) -> Ensemble {
    let mut ens = Ensemble::new(spec.trials, spec.seed);
    if spec.threads != 0 {
        ens = ens.with_threads(spec.threads);
    }
    ens
}

/// Convenience for resolvers: validates population bounds against a cap
/// and returns the total.
///
/// # Errors
///
/// [`SpecError::PopulationTooSmall`] below 2,
/// [`SpecError::PopulationTooLarge`] above `max`.
pub fn check_population(spec: &RunSpec, max: u64) -> Result<u64, SpecError> {
    let n = spec.population_size();
    if n < 2 {
        return Err(SpecError::PopulationTooSmall(n));
    }
    if n > max {
        return Err(SpecError::PopulationTooLarge { n, max });
    }
    Ok(n)
}

/// Maps spec-order population symbols to `(symbol_index, count)` pairs
/// given the protocol's symbol table, preserving spec order.
///
/// # Errors
///
/// [`SpecError::UnknownSymbol`] when a population symbol is not in the
/// table.
pub fn index_population(
    population: &[(String, u64)],
    symbols: &[String],
) -> Result<Vec<(usize, u64)>, SpecError> {
    let by_name: HashMap<&str, usize> =
        symbols.iter().enumerate().map(|(i, s)| (s.as_str(), i)).collect();
    population
        .iter()
        .map(|(sym, c)| {
            by_name.get(sym.as_str()).map(|&i| (i, *c)).ok_or_else(|| {
                SpecError::UnknownSymbol { symbol: sym.clone(), known: symbols.to_vec() }
            })
        })
        .collect()
}

/// Counts re-keyed by symbol index (for ground-truth evaluation, which is
/// order-insensitive), zero-filled for absent symbols.
pub fn counts_by_symbol(indexed: &[(usize, u64)], arity: usize) -> Vec<u64> {
    let mut out = vec![0u64; arity.max(1)];
    for &(i, c) in indexed {
        if let Some(slot) = out.get_mut(i) {
            *slot += c;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::FnProtocol;

    fn spec_text() -> &'static str {
        r#"{
            "protocol": {"formula": "a > b"},
            "population": {"a": 6, "b": 4},
            "seed": 7,
            "engine": "batched",
            "trials": 4,
            "threads": 2,
            "horizon": 1000
        }"#
    }

    #[test]
    fn spec_parses_and_canonicalizes() {
        let spec = RunSpec::from_json(spec_text()).unwrap();
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.trials, 4);
        assert_eq!(spec.engine, EngineSel::Batched);
        assert_eq!(spec.population, vec![("a".to_string(), 6), ("b".to_string(), 4)]);
        // Canonicalization is idempotent. `threads` is execution policy,
        // not semantics, so it drops out of the canonical form.
        let canon = spec.canonical_json();
        let spec2 = RunSpec::from_json(&canon).unwrap();
        assert_eq!(spec2.threads, 0);
        let mut semantic = spec.clone();
        semantic.threads = 0;
        assert_eq!(semantic, spec2);
        assert_eq!(spec2.canonical_json(), canon);
    }

    #[test]
    fn spec_rejects_unknown_fields_and_bad_values() {
        assert!(matches!(
            RunSpec::from_json(r#"{"protocol":{"name":"majority"},"population":{"0":2},"bogus":1}"#),
            Err(SpecError::UnknownField(f)) if f == "bogus"
        ));
        assert!(RunSpec::from_json(r#"{"population":{"a":2}}"#).is_err());
        assert!(RunSpec::from_json(
            r#"{"protocol":{"name":"majority"},"population":{"0":-2}}"#
        )
        .is_err());
        assert!(RunSpec::from_json(
            r#"{"protocol":{"name":"majority"},"population":{"0":2,"0":3}}"#
        )
        .is_err());
        // Retired field: trial seeds always derive by `split_seed`.
        assert!(matches!(
            RunSpec::from_json(r#"{"protocol":{"name":"majority"},"population":{"0":2},"seed_mode":"offset"}"#),
            Err(SpecError::UnknownField(f)) if f == "seed_mode"
        ));
        // A wrong-typed value is refused, never read as its default.
        for (body, field) in [
            (r#""engine":5"#, "engine"),
            (r#""stop":true"#, "stop"),
            (r#""probe":{"kind":"jsonl","stride":"x"}"#, "probe.stride"),
            (r#""mean_field":{"diffusion":"yes"}"#, "mean_field.diffusion"),
        ] {
            let text = format!(r#"{{"protocol":{{"name":"majority"}},"population":{{"0":2}},{body}}}"#);
            let err = RunSpec::from_json(&text).unwrap_err();
            assert_eq!(err.code(), "bad_field", "{body}");
            assert!(matches!(&err, SpecError::BadField { field: f, .. } if f == field), "{body}");
        }
        let err = RunSpec::from_json("not json at all").unwrap_err();
        assert_eq!(err.code(), "parse_error");
        assert_eq!(err.http_status(), 400);
        assert!(err.to_json().contains("pp-error/v1"));
    }

    #[test]
    fn population_helpers() {
        let spec = RunSpec::from_json(spec_text()).unwrap();
        assert_eq!(spec.population_size(), 10);
        assert_eq!(check_population(&spec, 100).unwrap(), 10);
        assert!(matches!(
            check_population(&spec, 5),
            Err(SpecError::PopulationTooLarge { n: 10, max: 5 })
        ));
        let symbols = vec!["a".to_string(), "b".to_string()];
        let indexed = index_population(&spec.population, &symbols).unwrap();
        assert_eq!(indexed, vec![(0, 6), (1, 4)]);
        assert_eq!(counts_by_symbol(&indexed, 2), vec![6, 4]);
        assert!(index_population(
            &[("zz".to_string(), 1)],
            &symbols
        )
        .is_err());
    }

    #[test]
    fn population_size_and_default_horizon_saturate() {
        let big = 1u64 << 53;
        let mut spec = RunSpec::new(
            ProtocolRef::Name { name: "majority".to_string(), params: vec![] },
            (0..2048).map(|i| (format!("s{i}"), big)).collect(),
            0,
        );
        assert_eq!(spec.population_size(), u64::MAX);
        assert!(matches!(
            check_population(&spec, 1 << 40),
            Err(SpecError::PopulationTooLarge { n: u64::MAX, .. })
        ));
        spec.population.truncate(3);
        assert_eq!(spec.population_size(), 3 * big);
        // `n²` in `f64` has the bits of the exact `u64` product wherever
        // that product exists, and saturates beyond it.
        for n in [0u64, 1, 2, 10, 1000, 123_457, (1 << 26) + 1, (1 << 32) - 1] {
            let ln = (n.max(2) as f64).ln();
            assert_eq!(RunSpec::default_horizon(n), (200.0 * (n * n) as f64 * ln) as u64);
        }
        assert_eq!(RunSpec::default_horizon(1 << 32), u64::MAX);
        assert_eq!(RunSpec::default_horizon(u64::MAX), u64::MAX);
    }

    /// Epidemic-style protocol for dispatcher tests: one infected agent
    /// converts everyone.
    type Epidemic = FnProtocol<
        bool,
        bool,
        bool,
        fn(&bool) -> bool,
        fn(&bool) -> bool,
        fn(&bool, &bool) -> (bool, bool),
    >;

    fn epidemic() -> Epidemic {
        FnProtocol::new(|&x| x, |&q| q, |&p, &q| (p || q, p || q))
    }

    #[test]
    fn dispatcher_single_matches_direct_call() {
        let mut spec = RunSpec::new(
            ProtocolRef::Name { name: "epidemic".to_string(), params: vec![] },
            vec![("1".to_string(), 2), ("0".to_string(), 48)],
            3,
        );
        spec.horizon = Some(20_000);
        let pairs = vec![(true, 2u64), (false, 48u64)];
        let out = run_counts(&spec, &epidemic(), &pairs, &true).unwrap();
        let RunOutcome::Single(run) = out else { panic!("expected single") };

        // The exact same stream as the historical direct call.
        let mut sim = Simulation::from_counts(epidemic(), pairs.iter().cloned());
        let mut rng = seeded_rng(3);
        let rep = sim.measure_stabilization(&true, 20_000, &mut rng);
        assert_eq!(run.stabilized_at, rep.stabilized_at);
        assert_eq!(run.silent_tail, rep.silent_tail());
        assert_eq!(run.effective_steps, Some(sim.effective_steps()));
    }

    #[test]
    fn dispatcher_ensemble_byte_identical_across_threads() {
        let mut spec = RunSpec::new(
            ProtocolRef::Name { name: "epidemic".to_string(), params: vec![] },
            vec![("1".to_string(), 1), ("0".to_string(), 29)],
            11,
        );
        spec.engine = EngineSel::Batched;
        spec.trials = 6;
        spec.horizon = Some(30_000);
        let pairs = vec![(true, 1u64), (false, 29u64)];

        spec.threads = 1;
        let a = run_counts(&spec, &epidemic(), &pairs, &true).unwrap();
        spec.threads = 2;
        let b = run_counts(&spec, &epidemic(), &pairs, &true).unwrap();
        let (RunOutcome::Ensemble(ra), RunOutcome::Ensemble(rb)) = (a, b) else {
            panic!("expected ensembles")
        };
        assert_eq!(ra.to_json(), rb.to_json());
        assert_eq!(ra.converged(), 6);
    }

    #[test]
    fn dispatcher_faults_and_unsupported_combos() {
        let mut spec = RunSpec::new(
            ProtocolRef::Name { name: "epidemic".to_string(), params: vec![] },
            vec![("1".to_string(), 3), ("0".to_string(), 17)],
            5,
        );
        spec.horizon = Some(8_000);
        spec.faults = Some(FaultSpec { crash: vec![(100, 2)], corrupt: vec![], drop: 0.01 });
        let pairs = vec![(true, 3u64), (false, 17u64)];
        let out = run_counts(&spec, &epidemic(), &pairs, &true).unwrap();
        let RunOutcome::Faults(f) = out else { panic!("expected faults") };
        assert_eq!(f.trials, 1);
        assert!(f.mttr_json.contains("trials"));

        spec.engine = EngineSel::Batched;
        assert!(matches!(
            run_counts(&spec, &epidemic(), &pairs, &true),
            Err(SpecError::Unsupported(_))
        ));
        spec.engine = EngineSel::Sequential;
        spec.faults = None;
        spec.stop = StopCondition::Consensus;
        spec.trials = 1;
        assert!(run_counts(&spec, &epidemic(), &pairs, &true).is_ok());
    }

    #[test]
    fn report_json_is_deterministic() {
        let spec = RunSpec::new(
            ProtocolRef::Formula("a > b".to_string()),
            vec![("a".to_string(), 6), ("b".to_string(), 4)],
            7,
        );
        let report = RunReport {
            protocol_key: "formula:a > b".to_string(),
            engine: EngineSel::Sequential,
            symbols: vec!["a".to_string(), "b".to_string()],
            counts: vec![6, 4],
            population: 10,
            ground_truth: Some(true),
            edges: None,
            outcome: RunOutcome::Single(SingleRun {
                stabilized_at: Some(42),
                silent_tail: 58,
                horizon: 100,
                steps: 100,
                effective_steps: Some(17),
                outputs: vec![("true".to_string(), 10)],
            }),
            spec: spec.to_value(),
        };
        let j1 = report.to_json();
        let j2 = report.clone().to_json();
        assert_eq!(j1, j2);
        assert!(j1.starts_with("{\"schema\":\"pp-run/v1\""));
        // The rendered report is itself valid JSON.
        parse_json(&j1).unwrap();
    }
}
