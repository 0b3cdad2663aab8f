//! Core model of *population protocols*: networks of passively mobile
//! finite-state sensors, after Angluin, Aspnes, Diamadi, Fischer and Peralta,
//! "Computation in networks of passively mobile finite-state sensors"
//! (PODC 2004).
//!
//! A population protocol is a tuple `(X, Y, Q, I, O, δ)`: finite input and
//! output alphabets, a finite state set, an input function `I : X → Q`, an
//! output function `O : Q → Y`, and a joint transition function
//! `δ : Q × Q → Q × Q` applied to ordered pairs (initiator, responder) of
//! agents when they *interact*. The protocol runs in a *population* of `n`
//! anonymous agents whose permitted interactions are the edges of an
//! interaction graph; under a fairness condition the population *stably
//! computes* an input–output relation (§3 of the paper).
//!
//! This crate provides:
//!
//! * the [`Protocol`] trait ([`protocol`]),
//! * dense state interning and transition memoization for fast simulation
//!   ([`registry`]),
//! * count-based (complete-graph) and agent-based (arbitrary-graph)
//!   configurations ([`config`]),
//! * schedulers, including the uniform-random pairing of *conjugating
//!   automata* (§6) ([`scheduler`]),
//! * a simulation engine with stabilization measurement ([`engine`]),
//! * the paper's input/output encoding conventions (§3.4) ([`convention`]).
//!
//! # Example
//!
//! Run the paper's opening "flock of birds" protocol (§1): do at least five
//! sensors report an elevated temperature?
//!
//! ```
//! use pp_core::prelude::*;
//!
//! /// Count-to-five: states q0..=q5; q5 is the alert state.
//! struct CountToFive;
//!
//! impl Protocol for CountToFive {
//!     type State = u8;
//!     type Input = bool;
//!     type Output = bool;
//!
//!     fn input(&self, &elevated: &bool) -> u8 {
//!         u8::from(elevated)
//!     }
//!     fn output(&self, &q: &u8) -> bool {
//!         q == 5
//!     }
//!     fn delta(&self, &p: &u8, &q: &u8) -> (u8, u8) {
//!         if p + q >= 5 {
//!             (5, 5)
//!         } else {
//!             (p + q, 0)
//!         }
//!     }
//! }
//!
//! let mut rng = seeded_rng(7);
//! // 6 birds with elevated temperature among 100.
//! let mut sim = Simulation::from_counts(CountToFive, [(true, 6), (false, 94)]);
//! sim.run(200_000, &mut rng);
//! assert_eq!(sim.consensus_output(), Some(&true));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agent_batch;
pub mod batch;
pub mod bitset;
pub mod config;
pub mod convention;
pub mod engine;
pub mod ensemble;
pub mod error;
pub mod faults;
pub mod fxhash;
pub mod json;
pub mod observe;
pub mod protocol;
pub mod registry;
pub mod sampling;
pub mod scheduler;
pub mod spec;
pub mod trace;

pub mod prelude {
    //! Convenient glob import for the most common types.
    pub use crate::bitset::BitSet;
    pub use crate::config::{AgentConfig, AgentStore, CanonicalConfig, CountConfig};
    pub use crate::convention::{all_agents_output, symbol_count_output, zero_nonzero_output};
    pub use crate::engine::{
        consensus_reached, seeded_rng, AgentSimulation, Simulation, StabilizationReport,
        StepTransition,
    };
    pub use crate::ensemble::{
        split_seed, Ensemble, EnsembleReport, FaultEnsembleReport, LogHistogram, SeedMode,
        TrialSummary, Welford,
    };
    pub use crate::error::PopulationError;
    pub use crate::faults::{
        enumeration_count, unrank_multiset, AdversarialInit, AdversarialInitMode, Churn,
        CorruptionMode, CrashFaults, FaultCtx, FaultPlan, FaultRunReport, InteractionDrop,
        Mttr, RecoveryReport, TransientCorruption,
    };
    pub use crate::observe::{
        BatchEvent, BatchPair, ConvergenceProbe, InteractionEvent, JsonlSink, MergeProbe,
        MetricsProbe, NoProbe, OccupancyFieldProbe, Probe, Snapshot,
        TrajectoryProbe,
    };
    pub use crate::protocol::{CoinProtocol, FnProtocol, Protocol, SyntheticCoins};
    pub use crate::registry::{DenseRuntime, OutputId, StateId};
    pub use crate::scheduler::{
        BatchPairSampler, CsrScheduler, EdgeListScheduler, PairSampler, UniformPairScheduler,
    };
    pub use crate::spec::{
        EngineSel, JsonValue, ProtocolRef, RunOutcome, RunReport, RunSpec, SpecError,
        StopCondition, TopologySpec,
    };
    pub use crate::trace::{
        ChromeTracer, NoTracer, RunManifest, SpanKind, SpanStats, Tracer,
    };
}

pub use bitset::BitSet;
pub use config::{AgentConfig, AgentStore, CanonicalConfig, CountConfig};
pub use engine::{
    consensus_reached, seeded_rng, AgentSimulation, Simulation, StabilizationReport,
    StepTransition,
};
pub use ensemble::{
    split_seed, Ensemble, EnsembleReport, FaultEnsembleReport, LogHistogram, SeedMode,
    TrialSummary, Welford,
};
pub use error::PopulationError;
pub use faults::{
    enumeration_count, unrank_multiset, AdversarialInit, AdversarialInitMode, Churn,
    CorruptionMode, CrashFaults, FaultCtx, FaultPlan, FaultRunReport, InteractionDrop, Mttr,
    RecoveryReport, TransientCorruption,
};
pub use observe::{
    BatchEvent, BatchPair, ConvergenceProbe, InteractionEvent, JsonlSink, MergeProbe,
    MetricsProbe, NoProbe, OccupancyFieldProbe, Probe, Snapshot,
    TrajectoryProbe,
};
pub use protocol::{CoinProtocol, FnProtocol, Protocol, SyntheticCoins};
pub use registry::{DenseRuntime, OutputId, StateId};
pub use scheduler::{
    BatchPairSampler, CsrScheduler, EdgeListScheduler, PairSampler, UniformPairScheduler,
};
pub use spec::{
    EngineSel, FaultSpec, JsonValue, MeanFieldSpec, ProbeSpec, ProtocolRef, RunOutcome,
    RunReport, RunSpec, SeedModeSpec, SingleRun, SpecError, StopCondition, TopologySpec,
};
pub use trace::{ChromeTracer, NoTracer, RunManifest, SpanKind, SpanStats, Tracer};
