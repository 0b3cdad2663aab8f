//! Machine-readable experiment reports: every bench emits, next to its
//! human-readable table, a `BENCH_<experiment>.json` file so the perf and
//! accuracy trajectory of the repo can be tracked across commits without
//! scraping stdout.
//!
//! The format is deliberately tiny (the build is offline — no serde):
//!
//! ```json
//! {"schema":"pp-bench/v1","experiment":"e12_throughput","unix_time":1754300000,
//!  "meta":{"smoke":false,"threads":8,"wall_s":12.34},
//!  "rows":[{"case":"majority_step","n":1000,"ns_per_step":12.5}]}
//! ```
//!
//! Every report header records `threads` (the worker-thread count ensemble
//! runs resolve from the environment, see
//! [`pp_core::ensemble::default_threads`]) and `wall_s` (wall-clock seconds
//! from report construction to serialization) automatically; a bench may
//! override either with [`BenchReport::set_meta`].
//!
//! Files land in the workspace root (override with `PP_BENCH_DIR`). Under
//! `PP_BENCH_SMOKE=1` ([`smoke`]) reports are still assembled — so the
//! serialization path is exercised in CI — but not written to disk,
//! keeping smoke runs side-effect free.
//!
//! Alongside each `BENCH_<exp>.json`, every non-smoke [`BenchReport::write`]
//! appends one compact `pp-bench-history/v1` record — the same header,
//! optional [`pp_core::RunManifest`], metadata and rows on a single line —
//! to `BENCH_HISTORY.jsonl`, giving the repo an append-only perf trajectory
//! across commits. All wall-clock stamps come from [`unix_now`], which
//! honours `PP_BENCH_FAKE_TIME` for reproducible fixtures.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use pp_core::json::{write_object, write_str, JsonValue};
use pp_core::RunManifest;

/// Whether this bench run is a CI smoke run (`PP_BENCH_SMOKE` set to
/// anything but `0` or the empty string): populations and trial counts
/// should be scaled down to "does it run at all" size, and reports are not
/// written to disk.
pub fn smoke() -> bool {
    std::env::var("PP_BENCH_SMOKE").map(|v| !v.is_empty() && v != "0").unwrap_or(false)
}

/// Seconds since the Unix epoch, as stamped into every report header.
///
/// All wall-clock stamping in this crate goes through this one helper so
/// tests and CI fixtures can pin it: when `PP_BENCH_FAKE_TIME` is set to an
/// integer, that value is returned instead of the real clock, making report
/// and history output byte-reproducible.
pub fn unix_now() -> u64 {
    if let Ok(v) = std::env::var("PP_BENCH_FAKE_TIME") {
        if let Ok(t) = v.trim().parse::<u64>() {
            return t;
        }
    }
    SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_secs()).unwrap_or(0)
}

/// The host fingerprint stamped into every report: the CPU model (from
/// `/proc/cpuinfo` where it exists) and the CPUs this process may run on.
fn host() -> String {
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown CPU".to_owned());
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!("{model}, {cpus} CPUs")
}

/// One experiment's machine-readable report: free-form metadata plus a list
/// of uniform-ish rows (each row is an ordered set of `name: value` cells).
#[derive(Debug, Clone, Default)]
pub struct BenchReport {
    experiment: String,
    meta: Vec<(String, JsonValue)>,
    rows: Vec<Vec<(String, JsonValue)>>,
    started: Option<Instant>,
    manifest: Option<RunManifest>,
}

impl BenchReport {
    /// A new report for `experiment` (e.g. `"e12_throughput"`); the
    /// experiment name becomes the `BENCH_<experiment>.json` file name.
    /// Smoke mode, the resolved ensemble thread count and the host are
    /// recorded in the metadata automatically; wall-clock time since this
    /// call is recorded at serialization.
    pub fn new(experiment: &str) -> Self {
        let mut r = Self {
            experiment: experiment.to_owned(),
            meta: Vec::new(),
            rows: Vec::new(),
            started: Some(Instant::now()),
            manifest: None,
        };
        r.set_meta("smoke", smoke());
        r.set_meta("threads", pp_core::ensemble::default_threads());
        r.set_meta("host", host());
        r
    }

    /// Attaches a [`RunManifest`] (schema `pp-run/v1`) identifying the run:
    /// master seed, protocol, population, thread count, fault plan, git
    /// revision. Serialized under the `"manifest"` key in both the report
    /// and its `BENCH_HISTORY.jsonl` record.
    pub fn set_manifest(&mut self, manifest: RunManifest) -> &mut Self {
        self.manifest = Some(manifest);
        self
    }

    /// Sets a metadata field (population size, trial count, …), replacing
    /// any earlier value under the same key.
    pub fn set_meta(&mut self, key: &str, value: impl Into<JsonValue>) -> &mut Self {
        let value = value.into();
        if let Some(slot) = self.meta.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
        } else {
            self.meta.push((key.to_owned(), value));
        }
        self
    }

    /// Appends one measurement row from `(name, value)` cells.
    pub fn push_row<K: Into<String>, V: Into<JsonValue>>(
        &mut self,
        cells: impl IntoIterator<Item = (K, V)>,
    ) -> &mut Self {
        self.rows
            .push(cells.into_iter().map(|(k, v)| (k.into(), v.into())).collect());
        self
    }

    /// Number of rows recorded so far.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the report has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Serializes the report to a single-object JSON string.
    pub fn to_json(&self) -> String {
        self.serialize("pp-bench/v1", true)
    }

    /// One compact line for `BENCH_HISTORY.jsonl`: the same payload as
    /// [`to_json`](Self::to_json) under schema `pp-bench-history/v1`, with
    /// no interior newlines so the file stays valid JSONL.
    pub fn to_history_line(&self) -> String {
        self.serialize("pp-bench-history/v1", false)
    }

    fn serialize(&self, schema: &str, pretty: bool) -> String {
        let unix_time = unix_now();
        let mut out = String::with_capacity(256 + 64 * self.rows.len());
        out.push_str("{\"schema\":");
        write_str(&mut out, schema);
        out.push_str(",\"experiment\":");
        write_str(&mut out, &self.experiment);
        let _ = write!(out, ",\"unix_time\":{unix_time}");
        if let Some(m) = &self.manifest {
            out.push_str(",\"manifest\":");
            out.push_str(&m.to_json());
        }
        out.push_str(",\"meta\":");
        let mut meta = self.meta.clone();
        if let Some(t0) = self.started {
            if !meta.iter().any(|(k, _)| k == "wall_s") {
                meta.push(("wall_s".to_owned(), t0.elapsed().as_secs_f64().into()));
            }
        }
        write_object(&mut out, &meta);
        out.push_str(",\"rows\":[");
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            if pretty {
                out.push_str("\n  ");
            }
            write_object(&mut out, row);
        }
        if pretty {
            out.push_str("\n]}\n");
        } else {
            out.push_str("]}");
        }
        out
    }

    /// Directory reports are written to: `PP_BENCH_DIR` if set, else the
    /// workspace root (two levels up from the bench crate).
    pub fn output_dir() -> PathBuf {
        match std::env::var_os("PP_BENCH_DIR") {
            Some(d) => PathBuf::from(d),
            None => Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."),
        }
    }

    /// Serializes the report and — outside smoke mode — writes it to
    /// `BENCH_<experiment>.json` in [`output_dir`](Self::output_dir),
    /// printing the destination, and appends one compact
    /// `pp-bench-history/v1` record to `BENCH_HISTORY.jsonl` in the same
    /// directory so the repo accumulates a perf trajectory across runs. In
    /// smoke mode the JSON is still built (serialization bugs fail the
    /// smoke job) but nothing touches disk.
    ///
    /// # Panics
    ///
    /// Panics if either file cannot be written — a bench that silently
    /// loses its report would defeat the trajectory tracking.
    pub fn write(&self) {
        let json = self.to_json();
        let history = self.to_history_line();
        if smoke() {
            println!("[smoke] skipping write of BENCH_{}.json ({} rows)", self.experiment, self.rows.len());
            return;
        }
        let dir = Self::output_dir();
        let path = dir.join(format!("BENCH_{}.json", self.experiment));
        std::fs::write(&path, json)
            .unwrap_or_else(|e| panic!("failed to write {}: {e}", path.display()));
        println!("wrote {}", path.display());
        let hist_path = dir.join("BENCH_HISTORY.jsonl");
        use std::io::Write as _;
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&hist_path)
            .and_then(|mut f| writeln!(f, "{history}"))
            .unwrap_or_else(|e| panic!("failed to append {}: {e}", hist_path.display()));
        println!("appended {}", hist_path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_serializes_schema_meta_and_rows() {
        let mut r = BenchReport::new("e0_demo");
        r.set_meta("n", 64u64);
        r.set_meta("n", 128u64); // replaces
        r.push_row([("case", JsonValue::from("fast")), ("ns", JsonValue::from(12.5))]);
        r.push_row([("case", JsonValue::from("slow")), ("ns", JsonValue::from(f64::NAN))]);
        let json = r.to_json();
        assert!(json.starts_with("{\"schema\":\"pp-bench/v1\",\"experiment\":\"e0_demo\""));
        assert!(json.contains("\"n\":128"));
        assert!(!json.contains("\"n\":64"));
        assert!(json.contains("{\"case\":\"fast\",\"ns\":12.5}"));
        assert!(json.contains("{\"case\":\"slow\",\"ns\":null}"), "NaN must map to null");
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
    }

    #[test]
    fn header_records_threads_and_wall_clock() {
        let r = BenchReport::new("e0_header");
        let json = r.to_json();
        assert!(json.contains("\"threads\":"), "{json}");
        assert!(json.contains("\"wall_s\":"), "{json}");

        // An explicit wall_s wins over the automatic one.
        let mut r = BenchReport::new("e0_header");
        r.set_meta("wall_s", 42.0);
        let json = r.to_json();
        assert!(json.contains("\"wall_s\":42"), "{json}");
        assert_eq!(json.matches("\"wall_s\":").count(), 1);
    }

    #[test]
    fn fake_time_pins_unix_now_and_history_line() {
        std::env::set_var("PP_BENCH_FAKE_TIME", "1754300000");
        assert_eq!(unix_now(), 1754300000);
        let mut r = BenchReport::new("e0_hist");
        r.set_meta("wall_s", 1.0); // suppress the nondeterministic auto stamp
        r.set_manifest(RunManifest::default().with_protocol("majority").with_master_seed(7));
        r.push_row([("case", JsonValue::from("a")), ("ns_per_step", JsonValue::from(2.5))]);
        let line = r.to_history_line();
        std::env::remove_var("PP_BENCH_FAKE_TIME");
        assert!(!line.contains('\n'), "history record must be one line: {line}");
        assert!(line.starts_with("{\"schema\":\"pp-bench-history/v1\",\"experiment\":\"e0_hist\""));
        assert!(line.contains("\"unix_time\":1754300000"), "{line}");
        assert!(line.contains("\"manifest\":{\"schema\":\"pp-run/v1\""), "{line}");
        assert!(line.contains("\"protocol\":\"majority\""), "{line}");
        assert!(line.contains("\"master_seed\":7"), "{line}");
        assert!(line.contains("{\"case\":\"a\",\"ns_per_step\":2.5}"), "{line}");
    }

    #[test]
    fn manifest_appears_in_report_json() {
        let mut r = BenchReport::new("e0_manifest");
        r.set_manifest(RunManifest::default().with_population(1000).with_threads(4));
        let json = r.to_json();
        assert!(json.contains("\"manifest\":{\"schema\":\"pp-run/v1\""), "{json}");
        assert!(json.contains("\"population\":1000"), "{json}");
        // Reports without a manifest omit the key entirely.
        let json = BenchReport::new("e0_bare").to_json();
        assert!(!json.contains("\"manifest\""), "{json}");
    }
}
