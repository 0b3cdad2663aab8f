//! Zero-cost span tracing: *where wall-clock time goes* inside a run.
//!
//! The [`Probe`](crate::observe::Probe) layer answers what a protocol did —
//! rule firings, occupancy, convergence — in *interaction* time. This module
//! answers the orthogonal question of *wall-clock* time: how long the engine
//! spends drawing pairs, sampling batch sweeps, applying transitions in
//! bulk, scheduling ensemble trials, and servicing probes. That phase-level
//! structure is exactly what fast-simulation analyses (Kosowski–Uznański,
//! "Population Protocols Are Fast") reason about, and what a profiler of the
//! batched engine needs to see.
//!
//! # Design: a sibling of `Probe`
//!
//! A [`Tracer`] is monomorphized into the engines as a defaulted type
//! parameter (`Simulation<P, Pr = NoProbe, Tr = NoTracer>`), never a trait
//! object. Every hook site is guarded by `if Tr::ACTIVE { … }` with
//! `ACTIVE` an associated `const`, so the default [`NoTracer`] compiles the
//! whole layer away: `Simulation<P, NoProbe, NoTracer>` is byte-for-byte
//! the untraced engine, including its RNG stream (tracers never draw
//! randomness — property-tested in `trace_properties.rs` on the step, leap,
//! batched, ensemble, and faulted paths).
//!
//! Unlike probes, tracers hook *phases*, not interactions: a span covers a
//! whole sequential draw loop, one batch sweep's sampling or bulk-apply
//! stage, or one ensemble trial — so even an active tracer costs two clock
//! reads per `Θ(√n)`-interaction sweep, not per interaction.
//!
//! # Built-ins
//!
//! * [`NoTracer`] — the default; compiles tracing away entirely.
//! * [`SpanStats`] — per-[`SpanKind`] self-time statistics (Welford moments
//!   plus a log-histogram, both from [`crate::ensemble`]), mergeable across
//!   ensemble workers in trial order for deterministic folding.
//! * [`ChromeTracer`] — records every span as a Chrome Trace Event Format
//!   JSON event, loadable in Perfetto / `chrome://tracing` (hand-rolled,
//!   zero dependencies).
//!
//! Every trace carries a [`RunManifest`] header (schema `pp-run/v1`):
//! master seed, protocol id, population, thread count, fault plan, git
//! revision — the provenance stamp `pp-bench` reuses for its
//! `BENCH_HISTORY.jsonl` trajectory and a future `pp-server` would attach
//! to per-request traces.
//!
//! # Example
//!
//! ```
//! use pp_core::prelude::*;
//! use pp_core::trace::{SpanKind, SpanStats};
//!
//! let epidemic = FnProtocol::new(
//!     |&b: &bool| b,
//!     |&q: &bool| q,
//!     |&p: &bool, &q: &bool| (p || q, p || q),
//! );
//! let mut sim = Simulation::from_counts(epidemic, [(true, 1), (false, 9999)])
//!     .with_tracer(SpanStats::new());
//! let mut rng = seeded_rng(7);
//! sim.run_batched(50_000, &mut rng);
//! let stats = sim.into_tracer();
//! assert!(stats.count(SpanKind::BatchSample) > 0);
//! assert!(stats.count(SpanKind::BatchApply) > 0);
//! ```

use std::time::Instant;

use crate::ensemble::{LogHistogram, Welford};
use crate::json::{json_f64, write_str};

// ---------------------------------------------------------------------------
// Span kinds
// ---------------------------------------------------------------------------

/// The engine phases a [`Tracer`] can observe. Discriminants are dense so
/// [`SpanStats`] indexes a fixed array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum SpanKind {
    /// A sequential draw-and-apply loop ([`run`](crate::Simulation::run),
    /// [`measure_stabilization`](crate::Simulation::measure_stabilization),
    /// a [`leap`](crate::Simulation::leap), a parallel round, or a faulted
    /// slot loop); `items` counts the interactions it covered.
    SchedulerDraw = 0,
    /// The sampling stage of one batched sweep: run-length inversion,
    /// descending-count permutation, and the hypergeometric state sweeps;
    /// `items` counts the pairs sampled.
    BatchSample = 1,
    /// The bulk transition-apply stage of one batched sweep (including its
    /// collision interactions); `items` counts the interactions executed.
    BatchApply = 2,
    /// Probe overhead: time spent inside
    /// [`Probe::on_batch`](crate::observe::Probe::on_batch) replay of a
    /// batched window's fresh pairs when both a probe and a tracer are
    /// attached; `items` counts the replayed pairs. (The window's
    /// collisions reach the probe inside [`BatchApply`](Self::BatchApply).)
    Probe = 3,
    /// Statistics folding: [`SpanStats::fold`] self-times its own trial-order
    /// merge under this kind; `items` counts the parts folded.
    Fold = 4,
    /// One ensemble trial, from RNG construction to result; recorded by
    /// [`Ensemble::map_traced`](crate::ensemble::Ensemble::map_traced) and
    /// tagged with the worker thread via [`Tracer::tag_worker`].
    Trial = 5,
    /// A fault-injection burst — an *instant* event (no duration); the
    /// `detail` argument carries the number of faults injected.
    FaultBurst = 6,
}

/// Number of [`SpanKind`] variants (array-index bound).
pub const SPAN_KINDS: usize = 7;

impl SpanKind {
    /// Every kind, in discriminant order (the deterministic report order).
    pub const ALL: [SpanKind; SPAN_KINDS] = [
        SpanKind::SchedulerDraw,
        SpanKind::BatchSample,
        SpanKind::BatchApply,
        SpanKind::Probe,
        SpanKind::Fold,
        SpanKind::Trial,
        SpanKind::FaultBurst,
    ];

    /// Stable snake_case name used in every JSON rendering.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::SchedulerDraw => "scheduler_draw",
            SpanKind::BatchSample => "batch_sample",
            SpanKind::BatchApply => "batch_apply",
            SpanKind::Probe => "probe",
            SpanKind::Fold => "fold",
            SpanKind::Trial => "trial",
            SpanKind::FaultBurst => "fault_burst",
        }
    }

    #[inline]
    fn index(self) -> usize {
        self as usize
    }
}

// ---------------------------------------------------------------------------
// The Tracer trait
// ---------------------------------------------------------------------------

/// Observer of engine *phases* (see [`SpanKind`]), monomorphized into the
/// engines like [`Probe`](crate::observe::Probe).
///
/// Hook invariants the engines guarantee:
///
/// * [`enter`](Self::enter)/[`exit`](Self::exit) calls are properly nested
///   per simulation (a stack discipline), and every `enter` is matched by an
///   `exit` of the same kind on every control-flow path.
/// * A tracer is never handed the RNG: attaching one cannot perturb the
///   simulated trajectory.
///
/// All methods default to no-ops, so a tracer implements only what it
/// needs. Implementors that can be folded across ensemble workers should be
/// merged in trial order (see [`SpanStats::fold`]) for deterministic
/// reports.
pub trait Tracer {
    /// Whether the engine's hook sites are live. [`NoTracer`] overrides
    /// this to `false`, turning every `if Tr::ACTIVE { … }` guard into dead
    /// code the optimizer removes.
    const ACTIVE: bool = true;

    /// A phase of the given kind begins now.
    fn enter(&mut self, _kind: SpanKind) {}

    /// The innermost open phase (which has kind `kind`) ends now; `items`
    /// is the number of work units (interactions, pairs, parts) it covered.
    fn exit(&mut self, _kind: SpanKind, _items: u64) {}

    /// A point event of the given kind (e.g. a fault burst); `detail` is
    /// kind-specific (injected fault count for
    /// [`FaultBurst`](SpanKind::FaultBurst)).
    fn instant(&mut self, _kind: SpanKind, _detail: u64) {}

    /// Tags subsequent events with the ensemble worker-thread index that
    /// produced them (Chrome traces map it to `tid`).
    fn tag_worker(&mut self, _worker: u32) {}
}

/// The default tracer: tracing compiled away (`ACTIVE = false`), zero cost,
/// byte-identical code and RNG stream to the pre-trace engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoTracer;

impl Tracer for NoTracer {
    const ACTIVE: bool = false;
}

/// Tracing through a mutable reference, so a bench can keep ownership of
/// its tracer while the simulation holds `&mut` to it.
impl<T: Tracer> Tracer for &mut T {
    const ACTIVE: bool = T::ACTIVE;

    fn enter(&mut self, kind: SpanKind) {
        (**self).enter(kind);
    }

    fn exit(&mut self, kind: SpanKind, items: u64) {
        (**self).exit(kind, items);
    }

    fn instant(&mut self, kind: SpanKind, detail: u64) {
        (**self).instant(kind, detail);
    }

    fn tag_worker(&mut self, worker: u32) {
        (**self).tag_worker(worker);
    }
}

/// Fan-out to two tracers (compose nested tuples for more); `ACTIVE` if
/// either side is, and an inactive side still costs nothing.
impl<A: Tracer, B: Tracer> Tracer for (A, B) {
    const ACTIVE: bool = A::ACTIVE || B::ACTIVE;

    fn enter(&mut self, kind: SpanKind) {
        if A::ACTIVE {
            self.0.enter(kind);
        }
        if B::ACTIVE {
            self.1.enter(kind);
        }
    }

    fn exit(&mut self, kind: SpanKind, items: u64) {
        if A::ACTIVE {
            self.0.exit(kind, items);
        }
        if B::ACTIVE {
            self.1.exit(kind, items);
        }
    }

    fn instant(&mut self, kind: SpanKind, detail: u64) {
        if A::ACTIVE {
            self.0.instant(kind, detail);
        }
        if B::ACTIVE {
            self.1.instant(kind, detail);
        }
    }

    fn tag_worker(&mut self, worker: u32) {
        if A::ACTIVE {
            self.0.tag_worker(worker);
        }
        if B::ACTIVE {
            self.1.tag_worker(worker);
        }
    }
}

// ---------------------------------------------------------------------------
// Run manifest (schema pp-run/v1)
// ---------------------------------------------------------------------------

/// Provenance header emitted with every trace (schema `pp-run/v1`): which
/// run, of what, where. All fields are optional so harnesses stamp what
/// they know; unknown fields serialize as `null` to keep the field set
/// stable for downstream parsers (`ppbench-compare`, a future `pp-server`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunManifest {
    /// Protocol identifier (e.g. `"majority"`).
    pub protocol: Option<String>,
    /// Population size `n`.
    pub population: Option<u64>,
    /// Master seed the run (or ensemble) was keyed by.
    pub master_seed: Option<u64>,
    /// Worker-thread count (see
    /// [`default_threads`](crate::ensemble::default_threads)).
    pub threads: Option<u64>,
    /// Human-readable fault-plan description, `None` for fault-free runs.
    pub fault_plan: Option<String>,
    /// Git revision of the tree that produced the run.
    pub git_rev: Option<String>,
}

impl RunManifest {
    /// An empty manifest (every field `null`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the protocol identifier.
    pub fn with_protocol(mut self, protocol: &str) -> Self {
        self.protocol = Some(protocol.to_owned());
        self
    }

    /// Sets the population size.
    pub fn with_population(mut self, n: u64) -> Self {
        self.population = Some(n);
        self
    }

    /// Sets the master seed.
    pub fn with_master_seed(mut self, seed: u64) -> Self {
        self.master_seed = Some(seed);
        self
    }

    /// Sets the worker-thread count.
    pub fn with_threads(mut self, threads: u64) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Sets the fault-plan description.
    pub fn with_fault_plan(mut self, plan: &str) -> Self {
        self.fault_plan = Some(plan.to_owned());
        self
    }

    /// Sets the git revision explicitly.
    pub fn with_git_rev(mut self, rev: &str) -> Self {
        self.git_rev = Some(rev.to_owned());
        self
    }

    /// Stamps the git revision from the environment: `PP_GIT_REV` if set
    /// (deterministic tests, CI), else `git rev-parse HEAD` if a git
    /// binary and repository are reachable, else leaves the field `null`.
    pub fn with_detected_git_rev(mut self) -> Self {
        self.git_rev = detect_git_rev();
        self
    }

    /// Deterministic JSON rendering (schema `pp-run/v1`); field order and
    /// set are fixed, missing values are `null`.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"schema\":\"pp-run/v1\"");
        push_field_str(&mut s, "protocol", self.protocol.as_deref());
        push_field_u64(&mut s, "population", self.population);
        push_field_u64(&mut s, "master_seed", self.master_seed);
        push_field_u64(&mut s, "threads", self.threads);
        push_field_str(&mut s, "fault_plan", self.fault_plan.as_deref());
        push_field_str(&mut s, "git_rev", self.git_rev.as_deref());
        s.push('}');
        s
    }
}

/// The git revision of the working tree: `PP_GIT_REV` wins (lets tests and
/// CI pin a deterministic value), else one `git rev-parse HEAD` subprocess,
/// else `None` (no git — manifests must still work from a tarball).
pub fn detect_git_rev() -> Option<String> {
    if let Ok(v) = std::env::var("PP_GIT_REV") {
        let v = v.trim().to_owned();
        if !v.is_empty() {
            return Some(v);
        }
    }
    let out = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let rev = String::from_utf8(out.stdout).ok()?.trim().to_owned();
    (!rev.is_empty()).then_some(rev)
}

fn push_field_str(out: &mut String, key: &str, v: Option<&str>) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":");
    match v {
        Some(s) => write_str(out, s),
        None => out.push_str("null"),
    }
}

fn push_field_u64(out: &mut String, key: &str, v: Option<u64>) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":");
    match v {
        Some(n) => out.push_str(&n.to_string()),
        None => out.push_str("null"),
    }
}

// ---------------------------------------------------------------------------
// SpanStats
// ---------------------------------------------------------------------------

/// One open span on the [`SpanStats`] stack.
#[derive(Debug, Clone, Copy)]
struct Frame {
    kind: SpanKind,
    start: Instant,
    /// Nanoseconds spent in already-closed child spans (subtracted from the
    /// span's duration to get *self* time).
    child_ns: u64,
}

/// Accumulated statistics of one [`SpanKind`].
#[derive(Debug, Clone, Default)]
struct KindStats {
    /// Closed spans of this kind.
    count: u64,
    /// Sum of the `items` arguments (work units covered).
    items: u64,
    /// Instant events of this kind.
    instants: u64,
    /// Welford moments of per-span *self* nanoseconds.
    self_ns: Welford,
    /// Log-histogram of per-span self nanoseconds.
    hist: LogHistogram,
}

impl KindStats {
    fn is_empty(&self) -> bool {
        self.count == 0 && self.instants == 0
    }

    fn merge(&mut self, other: &Self) {
        self.count += other.count;
        self.items += other.items;
        self.instants += other.instants;
        self.self_ns.merge(other.self_ns);
        self.hist.merge(&other.hist);
    }
}

/// Per-[`SpanKind`] self-time statistics: Welford moments plus a
/// log-histogram of each span's *self* nanoseconds (duration minus closed
/// child spans), and the total work items covered.
///
/// Merging ([`merge`](Self::merge)) composes two accumulators; the ensemble
/// folds per-trial instances **in trial order** ([`fold`](Self::fold)), so
/// for a given multiset of per-trial statistics the folded
/// [`to_json`](Self::to_json) is byte-identical at any worker-thread count
/// (the histogram merge is exactly associative; the Welford merge is fixed
/// by the fold order).
#[derive(Debug, Clone, Default)]
pub struct SpanStats {
    stack: Vec<Frame>,
    per: Vec<KindStats>,
    manifest: Option<RunManifest>,
}

impl SpanStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self { stack: Vec::new(), per: (0..SPAN_KINDS).map(|_| KindStats::default()).collect(), manifest: None }
    }

    /// Attaches a [`RunManifest`] emitted with
    /// [`to_json`](Self::to_json).
    pub fn with_manifest(mut self, manifest: RunManifest) -> Self {
        self.manifest = Some(manifest);
        self
    }

    /// The attached manifest, if any.
    pub fn manifest(&self) -> Option<&RunManifest> {
        self.manifest.as_ref()
    }

    /// Records one closed span synthetically (no clock involved): `self_ns`
    /// of self time covering `items` work units. This is the deterministic
    /// entry point merge/fold tests build fixtures with; the engine hooks
    /// go through [`enter`](Tracer::enter)/[`exit`](Tracer::exit) instead.
    pub fn record(&mut self, kind: SpanKind, self_ns: u64, items: u64) {
        let k = &mut self.per[kind.index()];
        k.count += 1;
        k.items += items;
        k.self_ns.push(self_ns as f64);
        k.hist.push(self_ns as f64);
    }

    /// Closed spans of `kind`.
    pub fn count(&self, kind: SpanKind) -> u64 {
        self.per[kind.index()].count
    }

    /// Total work items covered by closed spans of `kind`.
    pub fn items(&self, kind: SpanKind) -> u64 {
        self.per[kind.index()].items
    }

    /// Instant events of `kind`.
    pub fn instants(&self, kind: SpanKind) -> u64 {
        self.per[kind.index()].instants
    }

    /// Welford moments of per-span self nanoseconds of `kind`.
    pub fn self_ns(&self, kind: SpanKind) -> &Welford {
        &self.per[kind.index()].self_ns
    }

    /// Total self nanoseconds attributed to `kind` (count × mean).
    pub fn total_self_ns(&self, kind: SpanKind) -> f64 {
        let w = &self.per[kind.index()].self_ns;
        if w.count() == 0 {
            0.0
        } else {
            w.mean() * w.count() as f64
        }
    }

    /// Absorbs another accumulator: counters and histograms add exactly,
    /// Welford moments merge by Chan's update. Any open spans in `other`
    /// are ignored (merging mid-span is a caller bug, guarded by
    /// `debug_assert`).
    pub fn merge(&mut self, other: &Self) {
        debug_assert!(other.stack.is_empty(), "merging a SpanStats with open spans");
        for (a, b) in self.per.iter_mut().zip(&other.per) {
            a.merge(b);
        }
        if self.manifest.is_none() {
            self.manifest = other.manifest.clone();
        }
    }

    /// Folds per-trial accumulators **in iteration order** (the ensemble
    /// passes trial order) into one, self-timing the fold itself as a
    /// [`Fold`](SpanKind::Fold) span whose `items` is the number of parts.
    pub fn fold(parts: impl IntoIterator<Item = SpanStats>) -> SpanStats {
        let start = Instant::now();
        let mut acc = SpanStats::new();
        let mut n = 0u64;
        for p in parts {
            acc.merge(&p);
            n += 1;
        }
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        acc.record(SpanKind::Fold, ns, n);
        acc
    }

    /// Deterministic-given-the-data JSON rendering (schema `pp-trace/v1`):
    /// the manifest header plus one entry per non-empty span kind in
    /// discriminant order, with count/items/instants, self-time moments in
    /// nanoseconds, and the non-empty half-octave histogram buckets.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"schema\":\"pp-trace/v1\",\"manifest\":");
        match &self.manifest {
            Some(m) => s.push_str(&m.to_json()),
            None => s.push_str("null"),
        }
        s.push_str(",\"spans\":[");
        let mut first = true;
        for kind in SpanKind::ALL {
            let k = &self.per[kind.index()];
            if k.is_empty() {
                continue;
            }
            if !first {
                s.push(',');
            }
            first = false;
            s.push_str(&format!(
                "{{\"kind\":\"{}\",\"count\":{},\"items\":{},\"instants\":{}",
                kind.name(),
                k.count,
                k.items,
                k.instants
            ));
            s.push_str(&format!(
                ",\"self_ns\":{{\"mean\":{},\"std_dev\":{},\"min\":{},\"max\":{}}}",
                json_f64(k.self_ns.mean()),
                json_f64(k.self_ns.std_dev()),
                json_f64(k.self_ns.min()),
                json_f64(k.self_ns.max()),
            ));
            s.push_str(",\"hist\":[");
            for (j, (i, c)) in k.hist.nonzero().into_iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                s.push_str(&format!("[{i},{c}]"));
            }
            s.push_str("]}");
        }
        s.push_str("]}");
        s
    }
}

impl Tracer for SpanStats {
    fn enter(&mut self, kind: SpanKind) {
        self.stack.push(Frame { kind, start: Instant::now(), child_ns: 0 });
    }

    fn exit(&mut self, kind: SpanKind, items: u64) {
        let frame = self.stack.pop().expect("SpanStats::exit without a matching enter");
        debug_assert_eq!(frame.kind, kind, "span enter/exit kind mismatch");
        let dur = u64::try_from(frame.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let self_ns = dur.saturating_sub(frame.child_ns);
        self.record(kind, self_ns, items);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns = parent.child_ns.saturating_add(dur);
        }
    }

    fn instant(&mut self, kind: SpanKind, detail: u64) {
        let k = &mut self.per[kind.index()];
        k.instants += 1;
        k.items += detail;
    }
}

// ---------------------------------------------------------------------------
// ChromeTracer
// ---------------------------------------------------------------------------

/// One recorded Chrome trace event.
#[derive(Debug, Clone, Copy)]
struct ChromeEvent {
    kind: SpanKind,
    /// `b'B'` (begin), `b'E'` (end), or `b'i'` (instant).
    ph: u8,
    /// Nanoseconds since the tracer was constructed.
    ts_ns: u64,
    /// Worker-thread tag (`tid` in the trace).
    tid: u32,
    /// `items` for `E` events, `detail` for `i` events, 0 for `B`.
    arg: u64,
}

/// Records spans as Chrome Trace Event Format JSON — open the output in
/// Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing` to see the
/// engine's phase structure on a timeline. Hand-rolled writer, no
/// dependencies.
///
/// Timestamps are microseconds (with nanosecond fraction) since
/// construction; `pid` is fixed at 1 and `tid` is the ensemble worker tag
/// (see [`Tracer::tag_worker`]), so ensemble trials lay out one lane per
/// worker thread. The attached [`RunManifest`] is emitted under the
/// top-level `"metadata"` key.
#[derive(Debug, Clone)]
pub struct ChromeTracer {
    start: Instant,
    tid: u32,
    events: Vec<ChromeEvent>,
    manifest: Option<RunManifest>,
}

impl Default for ChromeTracer {
    fn default() -> Self {
        Self::new()
    }
}

impl ChromeTracer {
    /// A fresh tracer; the timeline zero is this call.
    pub fn new() -> Self {
        Self { start: Instant::now(), tid: 0, events: Vec::new(), manifest: None }
    }

    /// Attaches a [`RunManifest`] emitted under the trace's `"metadata"`.
    pub fn with_manifest(mut self, manifest: RunManifest) -> Self {
        self.manifest = Some(manifest);
        self
    }

    /// Events recorded so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no event has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Renders the trace as a Chrome Trace Event Format JSON object
    /// (`{"traceEvents":[…],"metadata":{…}}`).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(64 * self.events.len() + 256);
        s.push_str("{\"traceEvents\":[");
        for (i, ev) in self.events.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let ts_us = ev.ts_ns as f64 / 1_000.0;
            s.push_str(&format!(
                "\n{{\"name\":\"{}\",\"cat\":\"pp\",\"ph\":\"{}\",\"ts\":{},\"pid\":1,\"tid\":{}",
                ev.kind.name(),
                ev.ph as char,
                json_f64(ts_us),
                ev.tid
            ));
            match ev.ph {
                b'E' => s.push_str(&format!(",\"args\":{{\"items\":{}}}", ev.arg)),
                b'i' => s.push_str(&format!(",\"s\":\"t\",\"args\":{{\"detail\":{}}}", ev.arg)),
                _ => {}
            }
            s.push('}');
        }
        s.push_str("\n],\"displayTimeUnit\":\"ms\",\"metadata\":{\"manifest\":");
        match &self.manifest {
            Some(m) => s.push_str(&m.to_json()),
            None => s.push_str("null"),
        }
        s.push_str("}}");
        s
    }

    /// Writes the trace JSON to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write_to(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

impl Tracer for ChromeTracer {
    fn enter(&mut self, kind: SpanKind) {
        let ts_ns = self.now_ns();
        self.events.push(ChromeEvent { kind, ph: b'B', ts_ns, tid: self.tid, arg: 0 });
    }

    fn exit(&mut self, kind: SpanKind, items: u64) {
        let ts_ns = self.now_ns();
        self.events.push(ChromeEvent { kind, ph: b'E', ts_ns, tid: self.tid, arg: items });
    }

    fn instant(&mut self, kind: SpanKind, detail: u64) {
        let ts_ns = self.now_ns();
        self.events.push(ChromeEvent { kind, ph: b'i', ts_ns, tid: self.tid, arg: detail });
    }

    fn tag_worker(&mut self, worker: u32) {
        self.tid = worker;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_stats_nesting_attributes_self_time() {
        let mut st = SpanStats::new();
        st.enter(SpanKind::Trial);
        st.enter(SpanKind::BatchSample);
        std::thread::sleep(std::time::Duration::from_millis(2));
        st.exit(SpanKind::BatchSample, 10);
        st.exit(SpanKind::Trial, 1);
        assert_eq!(st.count(SpanKind::Trial), 1);
        assert_eq!(st.count(SpanKind::BatchSample), 1);
        assert_eq!(st.items(SpanKind::BatchSample), 10);
        // The child's time is excluded from the parent's self time.
        let child = st.self_ns(SpanKind::BatchSample).mean();
        let parent_self = st.self_ns(SpanKind::Trial).mean();
        assert!(child >= 2_000_000.0, "slept 2ms, got {child}ns");
        assert!(parent_self < child, "parent self {parent_self} vs child {child}");
    }

    #[test]
    fn span_stats_merge_is_exact_on_counters() {
        let mut a = SpanStats::new();
        a.record(SpanKind::BatchSample, 100, 5);
        a.instant(SpanKind::FaultBurst, 3);
        let mut b = SpanStats::new();
        b.record(SpanKind::BatchSample, 300, 7);
        a.merge(&b);
        assert_eq!(a.count(SpanKind::BatchSample), 2);
        assert_eq!(a.items(SpanKind::BatchSample), 12);
        assert_eq!(a.instants(SpanKind::FaultBurst), 1);
        assert_eq!(a.items(SpanKind::FaultBurst), 3);
        assert_eq!(a.self_ns(SpanKind::BatchSample).mean(), 200.0);
    }

    #[test]
    fn fold_records_itself_and_preserves_order_determinism() {
        let mk = |ns: u64| {
            let mut s = SpanStats::new();
            s.record(SpanKind::Trial, ns, 1);
            s
        };
        let folded = SpanStats::fold([mk(10), mk(20), mk(30)]);
        assert_eq!(folded.count(SpanKind::Trial), 3);
        assert_eq!(folded.count(SpanKind::Fold), 1);
        assert_eq!(folded.items(SpanKind::Fold), 3);
        assert_eq!(folded.self_ns(SpanKind::Trial).mean(), 20.0);
    }

    #[test]
    fn manifest_json_has_stable_fields() {
        let m = RunManifest::new()
            .with_protocol("majority")
            .with_population(1_000_000)
            .with_master_seed(7)
            .with_threads(4)
            .with_git_rev("abc123");
        let j = m.to_json();
        assert!(j.starts_with("{\"schema\":\"pp-run/v1\""));
        assert!(j.contains("\"protocol\":\"majority\""));
        assert!(j.contains("\"population\":1000000"));
        assert!(j.contains("\"master_seed\":7"));
        assert!(j.contains("\"threads\":4"));
        assert!(j.contains("\"fault_plan\":null"));
        assert!(j.contains("\"git_rev\":\"abc123\""));
    }

    #[test]
    fn chrome_trace_is_well_formed() {
        let mut t = ChromeTracer::new().with_manifest(RunManifest::new().with_protocol("epi"));
        t.tag_worker(2);
        t.enter(SpanKind::BatchSample);
        t.exit(SpanKind::BatchSample, 42);
        t.instant(SpanKind::FaultBurst, 5);
        let j = t.to_json();
        assert!(j.starts_with("{\"traceEvents\":["));
        assert!(j.contains("\"name\":\"batch_sample\""));
        assert!(j.contains("\"ph\":\"B\""));
        assert!(j.contains("\"ph\":\"E\""));
        assert!(j.contains("\"args\":{\"items\":42}"));
        assert!(j.contains("\"ph\":\"i\""));
        assert!(j.contains("\"tid\":2"));
        assert!(j.contains("\"manifest\":{\"schema\":\"pp-run/v1\""));
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn span_stats_json_orders_kinds_deterministically() {
        let mut s = SpanStats::new();
        s.record(SpanKind::BatchApply, 50, 2);
        s.record(SpanKind::SchedulerDraw, 10, 1);
        let j = s.to_json();
        let draw = j.find("scheduler_draw").unwrap();
        let apply = j.find("batch_apply").unwrap();
        assert!(draw < apply, "kinds must render in discriminant order");
        assert!(j.starts_with("{\"schema\":\"pp-trace/v1\""));
    }
}
