//! Deterministic multi-threaded Monte Carlo ensembles.
//!
//! Every quantitative claim in the paper — expected stabilization times,
//! error probabilities of the urn and counter constructions (§4–§5),
//! fault-recovery curves (§8) — is estimated by Monte Carlo over many
//! *independent* trials. A single trajectory is made fast by
//! [`crate::batch`]; this module makes the trial loop itself saturate all
//! cores without changing a single measured number.
//!
//! # Terminology: parallel *time* vs. parallel *threads*
//!
//! The paper's "parallel time" (§3.2) is a modelling notion: `n`
//! interactions count as one unit of time, and a *round* matches each agent
//! once (see
//! [`measure_stabilization_rounds`](crate::engine::Simulation::measure_stabilization_rounds)).
//! This module is about something entirely different — OS threads running
//! independent trials concurrently. The two never mix: each trial is still a
//! sequential trajectory with its own RNG.
//!
//! # Determinism
//!
//! An [`Ensemble`] derives the RNG of trial `i` from a master seed by
//! SplitMix64 splitting ([`split_seed`]), so the seed of a trial depends
//! only on `(master_seed, i)` — never on which thread ran it or in what
//! order. Trials are dispatched to a hand-rolled scoped [`std::thread`]
//! pool through an atomic work-stealing counter; results are reassembled
//! **by trial index** after join and all statistics are folded in trial
//! order. The resulting [`EnsembleReport`] is therefore *bit-identical*
//! regardless of thread count or scheduling order.
//!
//! Thread count resolution: forced to 1 when `PP_BENCH_SMOKE` is set (CI
//! smoke runs), else `PP_THREADS`, else [`std::thread::available_parallelism`].
//! An explicit [`with_threads`](Ensemble::with_threads) overrides all three.
//!
//! # Example
//!
//! ```
//! use pp_core::ensemble::Ensemble;
//! use pp_core::{FnProtocol, Simulation};
//!
//! let epidemic = FnProtocol::new(
//!     |&b: &bool| b,
//!     |&q: &bool| q,
//!     |&p: &bool, &q: &bool| (p || q, p || q),
//! );
//! // One record per trial: the step after which the output held.
//! let run = |threads| {
//!     Ensemble::new(16, 7).with_threads(threads).summarize(|_trial, rng| {
//!         let mut sim = Simulation::from_counts(epidemic.clone(), [(true, 1), (false, 63)]);
//!         let rep = sim.measure_stabilization(&true, 100_000, rng);
//!         rep.stabilized_at.map(|t| t as f64)
//!     })
//! };
//! let report = run(2);
//! assert_eq!(report.converged(), 16);
//! // Same master seed, different thread count: byte-identical report.
//! assert_eq!(report.to_json(), run(1).to_json());
//! ```

use std::sync::atomic::{AtomicU64, Ordering};

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::engine::Simulation;
use crate::faults::{FaultPlan, FaultRunReport};
use crate::json::json_f64;
use crate::observe::MergeProbe;
use crate::protocol::Protocol;
use crate::trace::{SpanKind, SpanStats, Tracer};

// ---------------------------------------------------------------------------
// Seed splitting
// ---------------------------------------------------------------------------

/// SplitMix64 increment (golden-ratio constant), identical to the one the
/// workspace `rand` shim uses for `seed_from_u64` state expansion.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 output mix (finalizer).
fn splitmix64_mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the seed of trial `trial` from `master` by SplitMix64 splitting:
/// the `trial`-th output of a SplitMix64 stream seeded with `master`.
///
/// Random access (no sequential stream advance) is what lets work-stealing
/// workers seed any trial independently, which in turn is what makes
/// ensemble results independent of scheduling order.
pub fn split_seed(master: u64, trial: u64) -> u64 {
    splitmix64_mix(master.wrapping_add(trial.wrapping_add(1).wrapping_mul(GOLDEN)))
}

// ---------------------------------------------------------------------------
// Ensemble executor
// ---------------------------------------------------------------------------

/// A deterministic multi-threaded Monte Carlo executor: `T` independent
/// trials of any [`Simulation`] or
/// [`AgentSimulation`](crate::engine::AgentSimulation) workload,
/// bit-identical results at any thread count. See the
/// [module docs](crate::ensemble).
#[derive(Debug, Clone)]
pub struct Ensemble {
    trials: u64,
    master_seed: u64,
    threads: usize,
}

/// The worker-thread count an [`Ensemble`] resolves by default: 1 under
/// `PP_BENCH_SMOKE`, else `PP_THREADS` if set to a positive integer, else
/// the host's available parallelism. Exposed so harnesses (e.g. the
/// `pp-bench/v1` report header) can record the effective thread count
/// without constructing an ensemble.
pub fn default_threads() -> usize {
    resolve_threads()
}

/// Resolves the default thread count from the environment; see the
/// [module docs](crate::ensemble#determinism).
fn resolve_threads() -> usize {
    if std::env::var("PP_BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0") {
        return 1;
    }
    if let Ok(v) = std::env::var("PP_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl Ensemble {
    /// An ensemble of `trials` independent trials seeded from `master_seed`
    /// by SplitMix64 splitting, with the thread count resolved from the
    /// environment (`PP_BENCH_SMOKE` → 1, else `PP_THREADS`, else all
    /// available cores).
    ///
    /// # Panics
    ///
    /// Panics if `trials` is zero.
    pub fn new(trials: u64, master_seed: u64) -> Self {
        assert!(trials >= 1, "an ensemble needs at least one trial");
        Self { trials, master_seed, threads: resolve_threads() }
    }

    /// Overrides the thread count (wins over the environment).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "thread count must be at least 1");
        self.threads = threads;
        self
    }

    /// Number of trials.
    pub fn trials(&self) -> u64 {
        self.trials
    }

    /// Worker threads the next run will use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The master seed.
    pub fn master_seed(&self) -> u64 {
        self.master_seed
    }

    /// The seed of trial `trial`: [`split_seed`]`(master_seed, trial)`.
    pub fn trial_seed(&self, trial: u64) -> u64 {
        split_seed(self.master_seed, trial)
    }

    /// A fresh RNG for trial `trial` — a pure function of
    /// `(master_seed, trial)`.
    pub fn trial_rng(&self, trial: u64) -> StdRng {
        StdRng::seed_from_u64(self.trial_seed(trial))
    }

    /// Runs `f` once per trial across the thread pool and returns the
    /// results **in trial order** — the primitive every other entry point
    /// builds on.
    ///
    /// `f` receives the trial index and that trial's private RNG. Trials
    /// are claimed from an atomic counter (work stealing), so threads stay
    /// busy even when trial durations vary wildly; determinism is
    /// unaffected because seeds depend only on the trial index and the
    /// output is reassembled by index after join.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any trial.
    pub fn map<R, F>(&self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(u64, &mut StdRng) -> R + Sync,
    {
        let trials = self.trials;
        let workers = self.threads.min(usize::try_from(trials).unwrap_or(usize::MAX));
        if workers <= 1 {
            return (0..trials)
                .map(|i| {
                    let mut rng = self.trial_rng(i);
                    f(i, &mut rng)
                })
                .collect();
        }
        let next = AtomicU64::new(0);
        let f = &f;
        let next = &next;
        let per_worker: Vec<Vec<(u64, R)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= trials {
                                break;
                            }
                            let mut rng = self.trial_rng(i);
                            out.push((i, f(i, &mut rng)));
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("ensemble worker panicked"))
                .collect()
        });
        // Scatter back into trial order; every index in 0..trials was
        // claimed exactly once, so every slot fills.
        let mut slots: Vec<Option<R>> = (0..trials).map(|_| None).collect();
        for chunk in per_worker {
            for (i, r) in chunk {
                slots[usize::try_from(i).expect("trial index fits usize")] = Some(r);
            }
        }
        slots
            .into_iter()
            .map(|s| s.expect("work-stealing counter covers every trial"))
            .collect()
    }

    /// [`map`](Self::map) with a per-trial [`Tracer`]: `make_tracer(trial)`
    /// builds each trial's tracer, which is tagged with the worker-thread
    /// index that claimed the trial ([`Tracer::tag_worker`]), wrapped in a
    /// [`Trial`](SpanKind::Trial) span around `f`, and returned — like the
    /// results — **in trial order**, so folding them sequentially (e.g.
    /// [`SpanStats::fold`]) yields the same report at any thread count for
    /// the same per-trial data.
    ///
    /// Tracers never touch the trial RNGs, so the results are identical to
    /// [`map`](Self::map) with the same `f`.
    pub fn map_traced<R, T, M, F>(&self, make_tracer: M, f: F) -> (Vec<R>, Vec<T>)
    where
        R: Send,
        T: Tracer + Send,
        M: Fn(u64) -> T + Sync,
        F: Fn(u64, &mut StdRng, &mut T) -> R + Sync,
    {
        let run_trial = |i: u64, worker: u32, rng: &mut StdRng| {
            let mut tracer = make_tracer(i);
            tracer.tag_worker(worker);
            tracer.enter(SpanKind::Trial);
            let r = f(i, rng, &mut tracer);
            tracer.exit(SpanKind::Trial, 1);
            (r, tracer)
        };
        let trials = self.trials;
        let workers = self.threads.min(usize::try_from(trials).unwrap_or(usize::MAX));
        if workers <= 1 {
            return (0..trials)
                .map(|i| {
                    let mut rng = self.trial_rng(i);
                    run_trial(i, 0, &mut rng)
                })
                .unzip();
        }
        let next = AtomicU64::new(0);
        let run_trial = &run_trial;
        let next = &next;
        let per_worker: Vec<Vec<(u64, (R, T))>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= trials {
                                break;
                            }
                            let mut rng = self.trial_rng(i);
                            out.push((i, run_trial(i, w as u32, &mut rng)));
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("ensemble worker panicked"))
                .collect()
        });
        let mut slots: Vec<Option<(R, T)>> = (0..trials).map(|_| None).collect();
        for chunk in per_worker {
            for (i, r) in chunk {
                slots[usize::try_from(i).expect("trial index fits usize")] = Some(r);
            }
        }
        slots
            .into_iter()
            .map(|s| s.expect("work-stealing counter covers every trial"))
            .unzip()
    }

    /// [`map_traced`](Self::map_traced) specialized to [`SpanStats`]: runs
    /// one accumulator per trial and folds them in trial order
    /// ([`SpanStats::fold`], which self-times the fold as a
    /// [`Fold`](SpanKind::Fold) span). The folded statistics are a pure
    /// function of the per-trial data and the trial order — independent of
    /// the worker-thread count.
    pub fn map_span_stats<R, F>(&self, f: F) -> (Vec<R>, SpanStats)
    where
        R: Send,
        F: Fn(u64, &mut StdRng, &mut SpanStats) -> R + Sync,
    {
        let (results, tracers) = self.map_traced(|_| SpanStats::new(), f);
        (results, SpanStats::fold(tracers))
    }

    /// Runs one scalar-outcome workload per trial (`None` = the trial did
    /// not converge) and folds the results into an [`EnsembleReport`].
    pub fn summarize<F>(&self, f: F) -> EnsembleReport
    where
        F: Fn(u64, &mut StdRng) -> Option<f64> + Sync,
    {
        EnsembleReport::from_records(self.map(f))
    }

    /// Ensemble of [`Simulation::run_with_faults`](crate::faults): `make`
    /// builds the per-trial simulation *and* fault plan; per-burst
    /// [`RecoveryReport`](crate::faults::RecoveryReport)s aggregate across
    /// trials in the returned [`FaultEnsembleReport`].
    pub fn run_with_faults<P, Pl, F>(
        &self,
        make: F,
        expected: &P::Output,
        horizon: u64,
    ) -> FaultEnsembleReport
    where
        P: Protocol,
        P::Output: Sync,
        Pl: FaultPlan<P::State>,
        F: Fn(u64) -> (Simulation<P>, Pl) + Sync,
    {
        FaultEnsembleReport::from_runs(self.map(|trial, rng| {
            let (mut sim, mut plan) = make(trial);
            sim.run_with_faults(&mut plan, expected, horizon, rng)
        }))
    }

    /// Like [`map`](Self::map), with a per-trial probe: `mk_probe` builds
    /// trial `i`'s probe, `f` runs the trial and hands the probe back, and
    /// the per-trial probes are folded with
    /// [`MergeProbe::merge`](crate::observe::MergeProbe) **in trial order**
    /// into one aggregate probe — deterministic at any thread count.
    pub fn run_probed<R, Pr, MF, F>(&self, mk_probe: MF, f: F) -> (Vec<R>, Pr)
    where
        R: Send,
        Pr: MergeProbe + Send,
        MF: Fn(u64) -> Pr + Sync,
        F: Fn(u64, &mut StdRng, Pr) -> (R, Pr) + Sync,
    {
        let pairs = self.map(|trial, rng| f(trial, rng, mk_probe(trial)));
        let mut results = Vec::with_capacity(pairs.len());
        let mut merged: Option<Pr> = None;
        for (r, p) in pairs {
            results.push(r);
            match &mut merged {
                None => merged = Some(p),
                Some(m) => m.merge(p),
            }
        }
        (results, merged.expect("ensemble has at least one trial"))
    }
}

// ---------------------------------------------------------------------------
// Mergeable statistics
// ---------------------------------------------------------------------------

/// Streaming count/mean/M2 (Welford) accumulator with min/max, mergeable
/// across partitions by Chan et al.'s parallel update.
///
/// Merging is *algebraically* exact but floating-point merge results depend
/// on the partition (O(n·ε) drift); the ensemble therefore folds per-trial
/// summaries in trial order, which fixes the evaluation order — and hence
/// the bits — independent of threading.
#[derive(Debug, Clone, Copy)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for Welford {
    fn default() -> Self {
        Self::new()
    }
}

impl Welford {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self { count: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Absorbs one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let d = x - self.mean;
        self.mean += d / self.count as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Absorbs a whole other accumulator (Chan's parallel merge).
    pub fn merge(&mut self, other: Self) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let n = n1 + n2;
        let d = other.mean - self.mean;
        self.mean += d * (n2 / n);
        self.m2 += other.m2 + d * d * (n1 * n2 / n);
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Observations absorbed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (NaN when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        self.mean
    }

    /// Population variance `M2 / count` (NaN when empty) — the same form
    /// `pp_bench::std_dev` reports.
    pub fn variance(&self) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        self.m2 / self.count as f64
    }

    /// Population standard deviation (NaN when empty).
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (NaN when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        self.min
    }

    /// Largest observation (NaN when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        self.max
    }
}

/// Number of half-octave buckets in a [`LogHistogram`].
const HIST_BUCKETS: usize = 128;

/// Bounded log-spaced histogram: an underflow bucket for values in
/// `[0, 1)` plus 128 half-octave buckets, bucket `i` covering
/// `[2^(i/2), 2^((i+1)/2))` — reaching past `1.8·10^19`, i.e. any `u64`
/// interaction count. Merging adds buckets elementwise (`u64` addition), so
/// it is exactly associative and commutative.
#[derive(Debug, Clone)]
pub struct LogHistogram {
    underflow: u64,
    buckets: Vec<u64>,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self { underflow: 0, buckets: vec![0; HIST_BUCKETS] }
    }

    /// Bucket index of a value `>= 1`.
    fn bucket_of(v: f64) -> usize {
        let i = (2.0 * v.log2()).floor();
        if i <= 0.0 {
            0
        } else {
            (i as usize).min(HIST_BUCKETS - 1)
        }
    }

    /// Absorbs one non-negative observation (NaN and negatives are counted
    /// in the underflow bucket — records are interaction counts, so neither
    /// occurs in practice).
    pub fn push(&mut self, v: f64) {
        if v.is_finite() && v >= 1.0 {
            self.buckets[Self::bucket_of(v)] += 1;
        } else {
            self.underflow += 1;
        }
    }

    /// Adds `other`'s buckets into `self` — exactly associative.
    pub fn merge(&mut self, other: &Self) {
        self.underflow += other.underflow;
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }

    /// Count of observations in `[0, 1)` (plus any non-finite ones).
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Count in bucket `i`.
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets.get(i).copied().unwrap_or(0)
    }

    /// `[lo, hi)` value bounds of bucket `i`.
    pub fn bucket_bounds(i: usize) -> (f64, f64) {
        (2f64.powf(i as f64 / 2.0), 2f64.powf((i as f64 + 1.0) / 2.0))
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.underflow + self.buckets.iter().sum::<u64>()
    }

    /// Non-empty `(bucket, count)` pairs, ascending.
    pub fn nonzero(&self) -> Vec<(usize, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
            .collect()
    }
}

/// The mergeable per-worker summary of the tentpole design: convergence
/// count, Welford moments, log-histogram, and the per-trial records that
/// make exact quantiles (and bit-stable folding) possible.
#[derive(Debug, Clone, Default)]
pub struct TrialSummary {
    trials: u64,
    converged: u64,
    stats: Welford,
    histogram: LogHistogram,
    /// `(trial index, record)` pairs, in whatever order they were absorbed.
    records: Vec<(u64, Option<f64>)>,
}

impl TrialSummary {
    /// An empty summary.
    pub fn new() -> Self {
        Self::default()
    }

    /// The summary of a single trial (`None` = did not converge).
    pub fn from_trial(trial: u64, record: Option<f64>) -> Self {
        let mut s = Self::new();
        s.absorb(trial, record);
        s
    }

    /// Absorbs one trial outcome.
    pub fn absorb(&mut self, trial: u64, record: Option<f64>) {
        self.trials += 1;
        if let Some(v) = record {
            self.converged += 1;
            self.stats.push(v);
            self.histogram.push(v);
        }
        self.records.push((trial, record));
    }

    /// Absorbs a whole other summary. Counters and the histogram merge
    /// exactly; the Welford moments merge by Chan's update (see
    /// [`Welford::merge`]).
    pub fn merge(&mut self, other: Self) {
        self.trials += other.trials;
        self.converged += other.converged;
        self.stats.merge(other.stats);
        self.histogram.merge(&other.histogram);
        self.records.extend(other.records);
    }

    /// Trials absorbed.
    pub fn trials(&self) -> u64 {
        self.trials
    }

    /// Converged trials absorbed.
    pub fn converged(&self) -> u64 {
        self.converged
    }

    /// Welford moments over converged records.
    pub fn stats(&self) -> &Welford {
        &self.stats
    }

    /// Log-spaced histogram over converged records.
    pub fn histogram(&self) -> &LogHistogram {
        &self.histogram
    }
}

// ---------------------------------------------------------------------------
// EnsembleReport
// ---------------------------------------------------------------------------

/// Aggregate result of an [`Ensemble`] run over a scalar-outcome workload.
///
/// Built by folding per-trial [`TrialSummary`] values in ascending trial
/// order, so two runs with the same master seed produce byte-identical
/// [`to_json`](Self::to_json) output at any thread count. Wall-clock time
/// and thread count are deliberately **not** part of this report — they
/// belong in the non-deterministic header of a `pp-bench/v1` report.
#[derive(Debug, Clone)]
pub struct EnsembleReport {
    trials: u64,
    converged: u64,
    stats: Welford,
    histogram: LogHistogram,
    /// Per-trial records in trial order (`None` = did not converge).
    records: Vec<Option<f64>>,
}

impl EnsembleReport {
    /// Folds trial-ordered records into a report.
    pub fn from_records(records: Vec<Option<f64>>) -> Self {
        let mut acc = TrialSummary::new();
        for (i, r) in records.iter().enumerate() {
            acc.merge(TrialSummary::from_trial(i as u64, *r));
        }
        Self {
            trials: acc.trials,
            converged: acc.converged,
            stats: acc.stats,
            histogram: acc.histogram,
            records,
        }
    }

    /// Number of trials.
    pub fn trials(&self) -> u64 {
        self.trials
    }

    /// Number of converged trials (record was `Some`).
    pub fn converged(&self) -> u64 {
        self.converged
    }

    /// Fraction of trials that converged.
    pub fn convergence_rate(&self) -> f64 {
        self.converged as f64 / self.trials as f64
    }

    /// Welford moments over converged records.
    pub fn stats(&self) -> &Welford {
        &self.stats
    }

    /// Mean of converged records (NaN if none).
    pub fn mean(&self) -> f64 {
        self.stats.mean()
    }

    /// Population variance of converged records (NaN if none).
    pub fn variance(&self) -> f64 {
        self.stats.variance()
    }

    /// Population standard deviation of converged records (NaN if none).
    pub fn std_dev(&self) -> f64 {
        self.stats.std_dev()
    }

    /// Log-spaced histogram of converged records.
    pub fn histogram(&self) -> &LogHistogram {
        &self.histogram
    }

    /// Per-trial records in trial order.
    pub fn records(&self) -> &[Option<f64>] {
        &self.records
    }

    /// Converged records in trial order.
    pub fn values(&self) -> Vec<f64> {
        self.records.iter().filter_map(|r| *r).collect()
    }

    /// Nearest-rank quantile of the converged records (`q` in `[0, 1]`;
    /// NaN if no trial converged).
    pub fn quantile(&self, q: f64) -> f64 {
        let mut v = self.values();
        if v.is_empty() {
            return f64::NAN;
        }
        v.sort_by(f64::total_cmp);
        let rank = ((q.clamp(0.0, 1.0) * v.len() as f64).ceil() as usize).clamp(1, v.len());
        v[rank - 1]
    }

    /// Deterministic JSON rendering (schema `pp-ensemble/v1`): everything
    /// here is a pure function of `(master seed, workload)`, so determinism
    /// tests compare these strings byte-for-byte across thread counts.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\"schema\":\"pp-ensemble/v1\"");
        s.push_str(&format!(",\"trials\":{}", self.trials));
        s.push_str(&format!(",\"converged\":{}", self.converged));
        s.push_str(&format!(",\"mean\":{}", json_f64(self.mean())));
        s.push_str(&format!(",\"variance\":{}", json_f64(self.variance())));
        s.push_str(&format!(",\"std_dev\":{}", json_f64(self.std_dev())));
        s.push_str(&format!(",\"min\":{}", json_f64(self.stats.min())));
        s.push_str(&format!(",\"max\":{}", json_f64(self.stats.max())));
        for (label, q) in [("q10", 0.10), ("q50", 0.50), ("q90", 0.90)] {
            s.push_str(&format!(",\"{label}\":{}", json_f64(self.quantile(q))));
        }
        s.push_str(&format!(",\"histogram\":{{\"underflow\":{}", self.histogram.underflow()));
        s.push_str(",\"buckets\":[");
        for (k, (i, c)) in self.histogram.nonzero().into_iter().enumerate() {
            if k > 0 {
                s.push(',');
            }
            s.push_str(&format!("[{i},{c}]"));
        }
        s.push_str("]}");
        s.push_str(",\"records\":[");
        for (k, r) in self.records.iter().enumerate() {
            if k > 0 {
                s.push(',');
            }
            match r {
                Some(v) => s.push_str(&json_f64(*v)),
                None => s.push_str("null"),
            }
        }
        s.push_str("]}");
        s
    }
}

// ---------------------------------------------------------------------------
// Fault ensembles
// ---------------------------------------------------------------------------

/// Cross-trial aggregate of one segment position (the run prefix before the
/// first burst is segment 0, the stretch after burst `k` is segment `k`).
#[derive(Debug, Clone)]
pub struct SegmentStats {
    /// Segment index within each trial's [`FaultRunReport`].
    pub segment: usize,
    /// Trials that have this segment.
    pub trials: u64,
    /// Trials whose segment recovered.
    pub recovered: u64,
    /// Moments of `recovery_time` over the recovered trials.
    pub recovery_time: Welford,
    /// Moments of `residual_error` over all trials with this segment.
    pub residual_error: Welford,
}

/// Aggregate result of [`Ensemble::run_with_faults`]: the per-trial
/// [`FaultRunReport`]s (trial-ordered) plus per-burst
/// [`RecoveryReport`](crate::faults::RecoveryReport) aggregation across
/// trials.
#[derive(Debug, Clone)]
pub struct FaultEnsembleReport {
    runs: Vec<FaultRunReport>,
}

impl FaultEnsembleReport {
    /// Wraps trial-ordered fault runs.
    pub fn from_runs(runs: Vec<FaultRunReport>) -> Self {
        Self { runs }
    }

    /// Per-trial runs in trial order.
    pub fn runs(&self) -> &[FaultRunReport] {
        &self.runs
    }

    /// Number of trials.
    pub fn trials(&self) -> u64 {
        self.runs.len() as u64
    }

    /// Fraction of trials whose *final* segment recovered.
    pub fn recovery_rate(&self) -> f64 {
        let rec = self.runs.iter().filter(|r| r.recovered()).count();
        rec as f64 / self.runs.len() as f64
    }

    /// Final-segment recovery times of the recovered trials, in trial order.
    pub fn final_recovery_times(&self) -> Vec<f64> {
        self.runs
            .iter()
            .filter_map(|r| r.final_segment().recovery_time())
            .map(|t| t as f64)
            .collect()
    }

    /// MTTR summary over the *final* segment of every trial, folded in
    /// trial order (so the result — and its
    /// [`to_json`](crate::faults::Mttr::to_json) — is byte-identical at any
    /// thread count). The final segment is the verdict segment: the stretch
    /// after the last injection burst, or the whole run for
    /// adversarial-initialization plans that only damage slot 0.
    pub fn final_mttr(&self) -> crate::faults::Mttr {
        let mut m = crate::faults::Mttr::new();
        for run in &self.runs {
            m.absorb(run.final_segment());
        }
        m
    }

    /// Per-segment-index aggregation across trials, folded in trial order.
    pub fn segment_stats(&self) -> Vec<SegmentStats> {
        let max_segments = self.runs.iter().map(|r| r.segments.len()).max().unwrap_or(0);
        (0..max_segments)
            .map(|k| {
                let mut st = SegmentStats {
                    segment: k,
                    trials: 0,
                    recovered: 0,
                    recovery_time: Welford::new(),
                    residual_error: Welford::new(),
                };
                for run in &self.runs {
                    let Some(seg) = run.segments.get(k) else { continue };
                    st.trials += 1;
                    if let Some(t) = seg.recovery_time() {
                        st.recovered += 1;
                        st.recovery_time.push(t as f64);
                    }
                    st.residual_error.push(seg.residual_error as f64);
                }
                st
            })
            .collect()
    }

    /// Deterministic JSON rendering (schema `pp-ensemble-faults/v1`);
    /// see [`EnsembleReport::to_json`] for the determinism contract.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\"schema\":\"pp-ensemble-faults/v1\"");
        s.push_str(&format!(",\"trials\":{}", self.trials()));
        s.push_str(&format!(",\"recovery_rate\":{}", json_f64(self.recovery_rate())));
        s.push_str(",\"segments\":[");
        for (k, st) in self.segment_stats().into_iter().enumerate() {
            if k > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"segment\":{},\"trials\":{},\"recovered\":{},\"recovery_time_mean\":{},\"recovery_time_std\":{},\"residual_error_mean\":{}}}",
                st.segment,
                st.trials,
                st.recovered,
                json_f64(st.recovery_time.mean()),
                json_f64(st.recovery_time.std_dev()),
                json_f64(st.residual_error.mean()),
            ));
        }
        s.push_str("]}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::seeded_rng;
    use crate::protocol::FnProtocol;
    use rand::Rng;

    fn epidemic() -> impl Protocol<State = bool, Input = bool, Output = bool> + Clone {
        FnProtocol::new(
            |&b: &bool| b,
            |&q: &bool| q,
            |&p: &bool, &q: &bool| (p || q, p || q),
        )
    }

    #[test]
    fn split_seed_is_random_access() {
        // The i-th split seed matches sequentially advancing SplitMix64.
        let master: u64 = 0xDEAD_BEEF;
        let mut state = master;
        for i in 0..16 {
            state = state.wrapping_add(GOLDEN);
            assert_eq!(split_seed(master, i), splitmix64_mix(state));
        }
    }

    #[test]
    fn map_is_trial_ordered_at_any_thread_count() {
        for threads in [1, 2, 3, 8] {
            let e = Ensemble::new(37, 5).with_threads(threads);
            let out = e.map(|t, _| t * 3);
            assert_eq!(out, (0..37).map(|t| t * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn report_json_is_thread_count_invariant() {
        let run = |threads| {
            Ensemble::new(24, 42).with_threads(threads).summarize(|_, rng| {
                let mut sim = Simulation::from_counts(epidemic(), [(true, 1), (false, 31)]);
                sim.measure_stabilization(&true, 200_000, rng).stabilized_at.map(|t| t as f64)
            })
        };
        let base = run(1).to_json();
        assert_eq!(run(2).to_json(), base);
        assert_eq!(run(8).to_json(), base);
    }

    #[test]
    fn welford_matches_naive_moments() {
        let mut rng = seeded_rng(9);
        let xs: Vec<f64> = (0..1000).map(|_| rng.gen_range(0.0..100.0)).collect();
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
        assert!((w.mean() - mean).abs() < 1e-9 * mean.abs());
        assert!((w.variance() - var).abs() < 1e-9 * var.abs());
        assert_eq!(w.count(), 1000);
        assert_eq!(w.min(), xs.iter().copied().fold(f64::INFINITY, f64::min));
        assert_eq!(w.max(), xs.iter().copied().fold(f64::NEG_INFINITY, f64::max));
    }

    #[test]
    fn quantiles_are_nearest_rank() {
        let report =
            EnsembleReport::from_records((1..=100).map(|v| Some(v as f64)).collect::<Vec<_>>());
        assert_eq!(report.quantile(0.10), 10.0);
        assert_eq!(report.quantile(0.50), 50.0);
        assert_eq!(report.quantile(0.90), 90.0);
        assert_eq!(report.quantile(0.0), 1.0);
        assert_eq!(report.quantile(1.0), 100.0);
    }

    #[test]
    fn histogram_buckets_are_half_octaves() {
        let mut h = LogHistogram::new();
        h.push(0.0);
        h.push(0.5);
        h.push(1.0); // bucket 0: [1, √2)
        h.push(1.5); // bucket 1: [√2, 2)
        h.push(2.0); // bucket 2: [2, 2√2)
        h.push(1e30); // clamps to the last bucket
        assert_eq!(h.underflow(), 2);
        assert_eq!(h.bucket(0), 1);
        assert_eq!(h.bucket(1), 1);
        assert_eq!(h.bucket(2), 1);
        assert_eq!(h.bucket(HIST_BUCKETS - 1), 1);
        assert_eq!(h.total(), 6);
        let (lo, hi) = LogHistogram::bucket_bounds(2);
        assert!(lo <= 2.0 && 2.0 < hi);
    }

    #[test]
    fn fault_ensemble_aggregates_segments() {
        use crate::faults::TransientCorruption;
        let e = Ensemble::new(6, 3).with_threads(2);
        let rep = e.run_with_faults(
            |_trial| {
                let sim = Simulation::from_counts(epidemic(), [(true, 2), (false, 30)]);
                let plan = TransientCorruption::uniform_at(5_000, 8);
                (sim, plan)
            },
            &true,
            60_000,
        );
        assert_eq!(rep.trials(), 6);
        let segs = rep.segment_stats();
        assert_eq!(segs.len(), 2, "one burst → two segments");
        assert_eq!(segs[0].trials, 6);
        assert_eq!(segs[1].trials, 6);
        // Determinism across thread counts for the fault path too.
        let rep1 = Ensemble::new(6, 3).with_threads(1).run_with_faults(
            |_trial| {
                let sim = Simulation::from_counts(epidemic(), [(true, 2), (false, 30)]);
                let plan = TransientCorruption::uniform_at(5_000, 8);
                (sim, plan)
            },
            &true,
            60_000,
        );
        assert_eq!(rep.to_json(), rep1.to_json());
    }
}
