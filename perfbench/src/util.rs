//! Small helpers shared by the workloads: the input generator, summary
//! statistics, report checks, and the metric table.

use std::collections::BTreeMap;

use pp_core::spec::{parse_json, JsonValue};

/// SplitMix64: the benchmark's own input generator, independent of the
/// engines' RNG so that inputs depend only on the workload seed.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// The generator for op `i` of a run seeded with `seed`.
pub fn op_rng(seed: u64, i: u64) -> SplitMix {
    let mut base = SplitMix::new(seed);
    let salt = base.next_u64();
    SplitMix::new(salt ^ i.wrapping_mul(0xD1B5_4A32_D192_ED03))
}

/// Op latencies in a store of fixed size, touched before the run: every
/// latency while there is room, then a uniform sample of all of them
/// (Algorithm R). The benchmark's own memory, and with it `peak_rss_mb`,
/// then does not grow with the number of ops a faster program completes.
pub struct Reservoir {
    xs: Vec<f64>,
    seen: u64,
    rng: SplitMix,
}

impl Reservoir {
    /// About twice the ops of the busiest 35 s run, so quantiles are
    /// exact until a program gets that much faster.
    const SIZE: usize = 1 << 18;

    pub fn new() -> Self {
        // Filled with a nonzero value: a fill with zeros may become an
        // untouched zeroed allocation.
        let mut xs = Vec::with_capacity(Self::SIZE);
        xs.resize(Self::SIZE, -1.0);
        xs.clear();
        Reservoir {
            xs,
            seen: 0,
            rng: SplitMix::new(Self::SIZE as u64),
        }
    }

    pub fn push(&mut self, x: f64) {
        self.seen += 1;
        if self.xs.len() < Self::SIZE {
            self.xs.push(x);
        } else {
            let j = self.rng.range(0, self.seen - 1) as usize;
            if j < Self::SIZE {
                self.xs[j] = x;
            }
        }
    }

    /// How many latencies were pushed.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    pub fn quantile(&self, q: f64) -> f64 {
        quantile(&self.xs, q)
    }
}

/// The `q`-quantile of `xs` by linear interpolation between closest ranks.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Named metric values in output order.
#[derive(Default)]
pub struct Metrics(pub BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_string(), (value, unit));
    }

    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, (v, u))| format!("\"{k}\":{{\"value\":{},\"unit\":\"{u}\"}}", num(*v)))
            .collect();
        format!("{{{}}}", fields.join(","))
    }
}

/// A finite number as JSON, `null` otherwise (the caller treats a
/// non-finite metric as a failed run).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// What a `pp-run/v1` report must say about one single-trial run.
#[derive(Clone, Debug)]
pub struct SingleExpect {
    /// Counts by symbol index.
    pub counts: Vec<u64>,
    pub horizon: u64,
    /// The predicate's value, computed by the benchmark itself.
    pub truth: bool,
}

fn field<'a>(v: &'a JsonValue, path: &[&str]) -> Result<&'a JsonValue, String> {
    let mut cur = v;
    for k in path {
        cur = cur
            .get(k)
            .ok_or_else(|| format!("report lacks {}", path.join(".")))?;
    }
    Ok(cur)
}

fn u64_at(v: &JsonValue, path: &[&str]) -> Result<u64, String> {
    field(v, path)?
        .as_u64()
        .ok_or_else(|| format!("{} is not an integer", path.join(".")))
}

/// Checks the report fields every kind shares: schema, counts,
/// population and ground truth.
fn check_header(v: &JsonValue, counts: &[u64], truth: bool) -> Result<(), String> {
    if field(v, &["schema"])?.as_str() != Some("pp-run/v1") {
        return Err("schema is not pp-run/v1".to_string());
    }
    let got: Vec<u64> = match field(v, &["counts"])? {
        JsonValue::Arr(xs) => xs.iter().filter_map(JsonValue::as_u64).collect(),
        _ => return Err("counts is not an array".to_string()),
    };
    if got != counts {
        return Err(format!("counts {got:?}, expected {counts:?}"));
    }
    let n: u64 = counts.iter().sum();
    if u64_at(v, &["population"])? != n {
        return Err("population mismatch".to_string());
    }
    if field(v, &["ground_truth"])? != &JsonValue::Bool(truth) {
        return Err(format!("ground_truth is not {truth}"));
    }
    Ok(())
}

/// Checks a single-trial report: it ran exactly `horizon` interactions,
/// and if it claims stabilization every agent outputs the true answer.
pub fn check_single(text: &str, e: &SingleExpect) -> Result<(), String> {
    let v = parse_json(text).map_err(|err| format!("report does not parse: {err}"))?;
    check_header(&v, &e.counts, e.truth)?;
    if field(&v, &["result", "kind"])?.as_str() != Some("single") {
        return Err("result.kind is not single".to_string());
    }
    let steps = u64_at(&v, &["result", "steps"])?;
    if steps != e.horizon || u64_at(&v, &["result", "horizon"])? != e.horizon {
        return Err(format!("steps {steps}, expected horizon {}", e.horizon));
    }
    if field(&v, &["result", "stabilized_at"])? != &JsonValue::Null {
        let n: u64 = e.counts.iter().sum();
        let want = JsonValue::Obj(vec![(e.truth.to_string(), JsonValue::Num(n as f64))]);
        if field(&v, &["result", "outputs"])? != &want {
            return Err("stabilized, but not every agent outputs the truth".to_string());
        }
    }
    Ok(())
}

/// Checks an ensemble report: one record per trial, none past the
/// horizon, and `converged` equal to the number of finished trials. An
/// ensemble report carries no step count, so this is its stand-in for
/// `steps == horizon × trials`.
pub fn check_ensemble(text: &str, e: &SingleExpect, trials: u64) -> Result<(), String> {
    let v = parse_json(text).map_err(|err| format!("report does not parse: {err}"))?;
    check_header(&v, &e.counts, e.truth)?;
    if field(&v, &["result", "kind"])?.as_str() != Some("ensemble") {
        return Err("result.kind is not ensemble".to_string());
    }
    if u64_at(&v, &["result", "report", "trials"])? != trials {
        return Err("ensemble trial count mismatch".to_string());
    }
    let records = match field(&v, &["result", "report", "records"])? {
        JsonValue::Arr(xs) => xs,
        _ => return Err("records is not an array".to_string()),
    };
    if records.len() as u64 != trials {
        return Err(format!("{} records for {trials} trials", records.len()));
    }
    let mut converged = 0;
    for r in records {
        match r {
            JsonValue::Null => {}
            r => {
                let t = r.as_u64().ok_or("record is not an integer")?;
                if t > e.horizon {
                    return Err(format!("record {t} beyond horizon {}", e.horizon));
                }
                converged += 1;
            }
        }
    }
    if u64_at(&v, &["result", "report", "converged"])? != converged {
        return Err("converged disagrees with records".to_string());
    }
    Ok(())
}

/// Checks a mean-field report: the terminal fractions form a
/// distribution and the integrator took at least one step.
pub fn check_mean_field(text: &str, counts: &[u64], truth: bool) -> Result<(), String> {
    let v = parse_json(text).map_err(|err| format!("report does not parse: {err}"))?;
    check_header(&v, counts, truth)?;
    if field(&v, &["result", "kind"])?.as_str() != Some("mean-field") {
        return Err("result.kind is not mean-field".to_string());
    }
    let total: f64 = match field(&v, &["result", "terminal_fractions"])? {
        JsonValue::Arr(xs) => xs.iter().filter_map(JsonValue::as_f64).sum(),
        _ => return Err("terminal_fractions is not an array".to_string()),
    };
    if (total - 1.0).abs() > 1e-6 {
        return Err(format!("terminal fractions sum to {total}"));
    }
    if u64_at(&v, &["result", "accepted_steps"])? == 0 {
        return Err("mean-field integrator took no step".to_string());
    }
    Ok(())
}

/// Checks a `/v1/stream` body: event lines, a summary line that counts
/// them, and a final single-run report.
pub fn check_stream(text: &str, e: &SingleExpect) -> Result<(), String> {
    let lines: Vec<&str> = text.lines().collect();
    let [events @ .., summary, report] = lines.as_slice() else {
        return Err("stream body has fewer than two lines".to_string());
    };
    let s = parse_json(summary).map_err(|err| format!("summary does not parse: {err}"))?;
    if s.get("ev").and_then(JsonValue::as_str) != Some("summary") {
        return Err("second-to-last stream line is not the summary".to_string());
    }
    if u64_at(&s, &["lines_written"])? != events.len() as u64 || u64_at(&s, &["io_errors"])? != 0 {
        return Err("stream summary disagrees with the event lines".to_string());
    }
    check_single(report, e)
}
