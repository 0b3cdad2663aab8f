//! Bench regression gate: diff a set of freshly produced `BENCH_*.json`
//! reports against checked-in baselines and fail on perf regressions.
//!
//! The comparison is *noise-aware*: a timing metric only counts as a
//! regression when it worsens by more than
//! `max(rel_floor, 3·σ_rel)`, where `σ_rel` is the relative standard
//! deviation read from a `<metric>_std` companion cell when the baseline
//! row carries one. Only whitelisted timing metrics ([`METRICS`]) are
//! compared; every other cell identifies the row (its *key*), except
//! derived ratios ([`EXCLUDED`]) which are ignored entirely. Rows present
//! in the baseline but missing from the current report are coverage
//! regressions and fail the gate too.
//!
//! Reports are read with the workspace's one JSON codec,
//! [`pp_core::json`].
//!
//! Driven by the `ppbench-compare` binary (workspace `src/bin/`), which CI
//! runs against the six checked-in baselines on every bench-smoke job and
//! whose `--self-test` mode injects a synthetic 50 % slowdown to prove the
//! gate actually trips.

use std::fmt::Write as _;
use std::path::Path;

use pp_core::json::{parse_json, JsonValue};
use pp_core::Welford;

/// Timing metrics compared against the baseline (larger = worse). All
/// other row cells form the row's identity key.
pub const METRICS: &[&str] = &["ns_per_step", "us_per_run", "wall_s"];

/// Cells ignored entirely: derived ratios of timing metrics, which are as
/// noisy as their inputs and would otherwise pollute row keys, plus
/// accuracy readouts (e24's ODE-vs-engine total variation and predicted
/// stabilization time) that the producing bench already hard-asserts —
/// their low decimals shift whenever an engine change perturbs the seeded
/// RNG stream, which is not a perf regression.
pub const EXCLUDED: &[&str] =
    &["speedup", "speedup_vs_boxed", "share", "overhead", "tv", "predicted_tau"];

/// Default relative tolerance floor: a metric must worsen by more than
/// 25 % (or 3σ, whichever is larger) to fail the gate. Generous on
/// purpose — single-shot bench numbers on shared hosts jitter.
pub const DEFAULT_TOLERANCE: f64 = 0.25;

// ---------------------------------------------------------------------------
// Bench-report model
// ---------------------------------------------------------------------------

/// One parsed `BENCH_<experiment>.json` report: its experiment name plus
/// measurement rows (field order preserved).
#[derive(Debug, Clone)]
pub struct BenchFile {
    /// Experiment id, e.g. `"e19_batched_throughput"`.
    pub experiment: String,
    /// Measurement rows, each an ordered list of `(name, value)` cells.
    pub rows: Vec<Vec<(String, JsonValue)>>,
}

/// Parses a `pp-bench/v1` report.
pub fn parse_bench_file(text: &str) -> Result<BenchFile, String> {
    let doc = parse_json(text).map_err(|e| e.to_string())?;
    let schema = doc.get("schema").and_then(JsonValue::as_str).unwrap_or("");
    if schema != "pp-bench/v1" {
        return Err(format!("unsupported schema {schema:?} (want \"pp-bench/v1\")"));
    }
    let experiment = doc
        .get("experiment")
        .and_then(JsonValue::as_str)
        .ok_or("report has no \"experiment\" field")?
        .to_owned();
    let rows = match doc.get("rows") {
        Some(JsonValue::Arr(rows)) => rows
            .iter()
            .map(|r| match r {
                JsonValue::Obj(fields) => Ok(fields.clone()),
                _ => Err("row is not an object".to_owned()),
            })
            .collect::<Result<Vec<_>, _>>()?,
        _ => return Err("report has no \"rows\" array".to_owned()),
    };
    Ok(BenchFile { experiment, rows })
}

/// The identity key of a row: every cell that is neither a compared metric,
/// a `<metric>_std` companion, nor excluded, rendered as `k=v` joined by
/// spaces. Two reports' rows are matched on this key.
pub fn row_key(row: &[(String, JsonValue)]) -> String {
    let mut key = String::new();
    for (k, v) in row {
        if METRICS.contains(&k.as_str()) || EXCLUDED.contains(&k.as_str()) {
            continue;
        }
        if let Some(base) = k.strip_suffix("_std") {
            if METRICS.contains(&base) {
                continue;
            }
        }
        if !key.is_empty() {
            key.push(' ');
        }
        let _ = write!(key, "{k}=");
        match v {
            JsonValue::Str(s) => key.push_str(s),
            other => other.write(&mut key),
        }
    }
    key
}

/// Multiplies every whitelisted metric by `factor`, in memory. Used by the
/// gate's `--self-test` to fake a uniform slowdown and prove that the
/// comparison actually fails on it.
pub fn inflate_metrics(file: &mut BenchFile, factor: f64) {
    for row in &mut file.rows {
        for (k, v) in row.iter_mut() {
            if METRICS.contains(&k.as_str()) {
                if let JsonValue::Num(x) = v {
                    *x *= factor;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Comparison
// ---------------------------------------------------------------------------

/// One metric's baseline-vs-current comparison.
#[derive(Debug, Clone)]
pub struct Delta {
    /// Experiment the row belongs to.
    pub experiment: String,
    /// The row's identity key.
    pub key: String,
    /// Metric name.
    pub metric: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
    /// Relative change `(current - baseline) / baseline`; positive = slower.
    pub rel: f64,
    /// Relative threshold this row was judged against.
    pub threshold: f64,
    /// Whether `rel > threshold` (a regression).
    pub regressed: bool,
}

/// Full outcome of a comparison run.
#[derive(Debug, Clone, Default)]
pub struct CompareOutcome {
    /// Per-metric deltas for every matched row.
    pub deltas: Vec<Delta>,
    /// Hard failures other than metric regressions: missing rows, missing
    /// metrics, unreadable files. Any entry fails the gate.
    pub problems: Vec<String>,
    /// Informational notes (new rows, skipped files).
    pub notes: Vec<String>,
}

impl CompareOutcome {
    /// Number of metric regressions.
    pub fn regressions(&self) -> usize {
        self.deltas.iter().filter(|d| d.regressed).count()
    }

    /// Whether the gate passes: no regressions and no structural problems.
    pub fn passed(&self) -> bool {
        self.regressions() == 0 && self.problems.is_empty()
    }
}

/// Compares every baseline row of `baseline` against `current`.
///
/// `tolerance` is the relative noise floor; a `<metric>_std` cell in the
/// baseline row widens it to `3·σ/baseline` when that is larger.
pub fn compare_files(baseline: &BenchFile, current: &BenchFile, tolerance: f64, out: &mut CompareOutcome) {
    let exp = &baseline.experiment;
    let current_keys: Vec<String> = current.rows.iter().map(|r| row_key(r)).collect();
    let mut matched = vec![false; current.rows.len()];
    for brow in &baseline.rows {
        let key = row_key(brow);
        let Some(ci) = current_keys.iter().position(|k| *k == key) else {
            out.problems.push(format!("{exp}: baseline row [{key}] missing from current report"));
            continue;
        };
        matched[ci] = true;
        let crow = &current.rows[ci];
        for (name, bval) in brow {
            if !METRICS.contains(&name.as_str()) {
                continue;
            }
            let Some(b) = bval.as_f64() else { continue };
            let Some(c) = crow.iter().find(|(k, _)| k == name).and_then(|(_, v)| v.as_f64()) else {
                out.problems.push(format!("{exp}: [{key}] lost metric {name}"));
                continue;
            };
            let sigma_rel = brow
                .iter()
                .find(|(k, _)| *k == format!("{name}_std"))
                .and_then(|(_, v)| v.as_f64())
                .map(|s| if b != 0.0 { (s / b).abs() } else { 0.0 })
                .unwrap_or(0.0);
            let threshold = tolerance.max(3.0 * sigma_rel);
            let rel = if b != 0.0 { (c - b) / b } else if c == 0.0 { 0.0 } else { f64::INFINITY };
            out.deltas.push(Delta {
                experiment: exp.clone(),
                key: key.clone(),
                metric: name.clone(),
                baseline: b,
                current: c,
                rel,
                threshold,
                regressed: rel > threshold,
            });
        }
    }
    for (ci, hit) in matched.iter().enumerate() {
        if !hit {
            out.notes.push(format!("{exp}: new row [{}] (no baseline)", current_keys[ci]));
        }
    }
}

/// Compares every `BENCH_*.json` in `baseline_dir` against the same-named
/// file in `current_dir`. Baseline files with no current counterpart are
/// skipped with a note — a local run may regenerate only a subset — but an
/// unreadable or unparsable file on either side is a problem.
pub fn compare_dirs(baseline_dir: &Path, current_dir: &Path, tolerance: f64) -> CompareOutcome {
    let mut out = CompareOutcome::default();
    let mut names: Vec<String> = match std::fs::read_dir(baseline_dir) {
        Ok(rd) => rd
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
            .collect(),
        Err(e) => {
            out.problems.push(format!("cannot read baseline dir {}: {e}", baseline_dir.display()));
            return out;
        }
    };
    names.sort();
    if names.is_empty() {
        out.problems.push(format!("no BENCH_*.json baselines in {}", baseline_dir.display()));
        return out;
    }
    for name in names {
        let bpath = baseline_dir.join(&name);
        let cpath = current_dir.join(&name);
        if !cpath.exists() {
            out.notes.push(format!("{name}: not present in current dir, skipped"));
            continue;
        }
        let baseline = match std::fs::read_to_string(&bpath).map_err(|e| e.to_string()).and_then(|t| parse_bench_file(&t)) {
            Ok(f) => f,
            Err(e) => {
                out.problems.push(format!("{}: {e}", bpath.display()));
                continue;
            }
        };
        let current = match std::fs::read_to_string(&cpath).map_err(|e| e.to_string()).and_then(|t| parse_bench_file(&t)) {
            Ok(f) => f,
            Err(e) => {
                out.problems.push(format!("{}: {e}", cpath.display()));
                continue;
            }
        };
        compare_files(&baseline, &current, tolerance, &mut out);
    }
    if out.deltas.is_empty() && out.problems.is_empty() {
        out.problems.push(format!(
            "nothing compared: no current report in {} matches a baseline",
            current_dir.display()
        ));
    }
    out
}

/// Renders the per-row delta table plus a summary line (mean/σ/worst of the
/// relative deltas, via [`Welford`]) and any problems/notes.
pub fn render_report(out: &CompareOutcome) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<24} {:<44} {:>12} {:>12} {:>12} {:>8} {:>8}  verdict",
        "experiment", "row", "metric", "baseline", "current", "delta", "thresh"
    );
    let width = 24 + 1 + 44 + 1 + 12 + 1 + 12 + 1 + 12 + 1 + 8 + 1 + 8 + 2 + 7;
    let _ = writeln!(s, "{}", "-".repeat(width));
    let mut rels = Welford::new();
    let mut worst: Option<&Delta> = None;
    for d in &out.deltas {
        rels.push(d.rel);
        if worst.map(|w| d.rel > w.rel).unwrap_or(true) {
            worst = Some(d);
        }
        let _ = writeln!(
            s,
            "{:<24} {:<44} {:>12} {:>12.4} {:>12.4} {:>+7.1}% {:>+7.1}%  {}",
            d.experiment,
            truncate(&d.key, 44),
            d.metric,
            d.baseline,
            d.current,
            d.rel * 100.0,
            d.threshold * 100.0,
            if d.regressed { "REGRESSED" } else { "ok" },
        );
    }
    for note in &out.notes {
        let _ = writeln!(s, "note: {note}");
    }
    for problem in &out.problems {
        let _ = writeln!(s, "PROBLEM: {problem}");
    }
    if rels.count() > 0 {
        let _ = writeln!(
            s,
            "{} metrics compared: mean delta {:+.2}%, sd {:.2}%, worst {:+.2}% ({})",
            rels.count(),
            rels.mean() * 100.0,
            rels.std_dev() * 100.0,
            rels.max() * 100.0,
            worst.map(|d| format!("{}: {} [{}]", d.experiment, d.metric, truncate(&d.key, 44))).unwrap_or_default(),
        );
    }
    let _ = writeln!(
        s,
        "{}",
        if out.passed() {
            format!("PASS: no regressions ({} problems, {} notes)", out.problems.len(), out.notes.len())
        } else {
            format!("FAIL: {} regressions, {} problems", out.regressions(), out.problems.len())
        }
    );
    s
}

fn truncate(s: &str, max: usize) -> String {
    if s.chars().count() <= max {
        s.to_owned()
    } else {
        let cut: String = s.chars().take(max.saturating_sub(1)).collect();
        format!("{cut}…")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(exp: &str, rows: Vec<Vec<(&str, JsonValue)>>) -> BenchFile {
        BenchFile {
            experiment: exp.into(),
            rows: rows
                .into_iter()
                .map(|r| r.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
                .collect(),
        }
    }

    #[test]
    fn parser_round_trips_a_real_report_shape() {
        let text = r#"{"schema":"pp-bench/v1","experiment":"e19","unix_time":1785972958,
          "meta":{"smoke":false,"k_seq":2000000},
          "rows":[
            {"case":"majority_step","n":1000,"ns_per_step":29.1564715},
            {"case":"majority_batched","n":1000,"ns_per_step":12.311794,"speedup":2.3681740857587448}
        ]}"#;
        let f = parse_bench_file(text).unwrap();
        assert_eq!(f.experiment, "e19");
        assert_eq!(f.rows.len(), 2);
        assert_eq!(row_key(&f.rows[0]), "case=majority_step n=1000");
        // speedup is excluded from the key.
        assert_eq!(row_key(&f.rows[1]), "case=majority_batched n=1000");
    }

    #[test]
    fn within_tolerance_passes_and_beyond_fails() {
        let baseline = file("e", vec![vec![("case", JsonValue::Str("a".into())), ("ns_per_step", JsonValue::Num(10.0))]]);
        let mut slow = baseline.clone();
        inflate_metrics(&mut slow, 1.2); // +20% < 25% floor
        let mut out = CompareOutcome::default();
        compare_files(&baseline, &slow, DEFAULT_TOLERANCE, &mut out);
        assert!(out.passed(), "{out:?}");

        let mut slower = baseline.clone();
        inflate_metrics(&mut slower, 1.5); // +50% > 25% floor
        let mut out = CompareOutcome::default();
        compare_files(&baseline, &slower, DEFAULT_TOLERANCE, &mut out);
        assert_eq!(out.regressions(), 1);
        assert!(!out.passed());
        assert!(render_report(&out).contains("REGRESSED"));
    }

    #[test]
    fn std_companion_widens_the_threshold() {
        // σ_rel = 2/10 → 3σ = 60% > 25% floor; +50% must now pass.
        let baseline = file(
            "e",
            vec![vec![
                ("case", JsonValue::Str("a".into())),
                ("wall_s", JsonValue::Num(10.0)),
                ("wall_s_std", JsonValue::Num(2.0)),
            ]],
        );
        let current = file(
            "e",
            vec![vec![
                ("case", JsonValue::Str("a".into())),
                ("wall_s", JsonValue::Num(15.0)),
                ("wall_s_std", JsonValue::Num(2.0)),
            ]],
        );
        let mut out = CompareOutcome::default();
        compare_files(&baseline, &current, DEFAULT_TOLERANCE, &mut out);
        assert!(out.passed(), "{out:?}");
        assert!((out.deltas[0].threshold - 0.6).abs() < 1e-12);
        // The _std companion must not leak into the row key.
        assert_eq!(out.deltas[0].key, "case=a");
    }

    #[test]
    fn missing_rows_and_metrics_are_problems_improvements_pass() {
        let baseline = file(
            "e",
            vec![
                vec![("case", JsonValue::Str("gone".into())), ("ns_per_step", JsonValue::Num(5.0))],
                vec![("case", JsonValue::Str("kept".into())), ("ns_per_step", JsonValue::Num(10.0))],
            ],
        );
        let current = file(
            "e",
            vec![
                vec![("case", JsonValue::Str("kept".into())), ("ns_per_step", JsonValue::Num(1.0))],
                vec![("case", JsonValue::Str("fresh".into())), ("ns_per_step", JsonValue::Num(9.0))],
            ],
        );
        let mut out = CompareOutcome::default();
        compare_files(&baseline, &current, DEFAULT_TOLERANCE, &mut out);
        assert_eq!(out.regressions(), 0, "10 → 1 is an improvement");
        assert_eq!(out.problems.len(), 1, "{:?}", out.problems);
        assert!(out.problems[0].contains("case=gone"));
        assert_eq!(out.notes.len(), 1);
        assert!(out.notes[0].contains("case=fresh"));
        assert!(!out.passed(), "a lost row fails the gate");
    }

    #[test]
    fn self_test_inflation_trips_the_gate_on_every_metric() {
        let baseline = file(
            "e",
            vec![vec![
                ("case", JsonValue::Str("a".into())),
                ("ns_per_step", JsonValue::Num(10.0)),
                ("us_per_run", JsonValue::Num(3.0)),
                ("wall_s", JsonValue::Num(1.0)),
            ]],
        );
        let mut slow = baseline.clone();
        inflate_metrics(&mut slow, 1.5);
        let mut out = CompareOutcome::default();
        compare_files(&baseline, &slow, DEFAULT_TOLERANCE, &mut out);
        assert_eq!(out.regressions(), 3);
    }
}
