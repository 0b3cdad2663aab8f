//! E22 — tracing overhead and phase breakdown of the batched engine.
//!
//! Not a paper claim: this table quantifies the cost of the `Tracer`
//! observability layer (`pp_core::trace`) on the e19 batched-majority
//! workload. Three configurations per population:
//!
//! * `no_tracer` — the `NoTracer` default. The tracer hooks are guarded by
//!   `Tr::ACTIVE` and monomorphize away, so this must cost the same as the
//!   pre-tracing engine; a hard assertion checks it against the checked-in
//!   e19 baseline.
//! * `span_stats` — [`SpanStats`] aggregation: two `Instant::now()` calls
//!   per batch (phase-level spans, never per-interaction), Welford + log
//!   histogram per span kind.
//! * `chrome` — [`ChromeTracer`]: every span boundary appended as a Chrome
//!   Trace Event; the trace for the largest population is written to
//!   `PP_TRACE_DIR` when set (load it in Perfetto / `chrome://tracing`).
//!
//! The `span_stats` run also yields the phase breakdown rows: deterministic
//! span counts (the RNG stream is seed-pinned) plus amortized self-time per
//! interaction for each span kind — the first trace-derived answer to
//! "where does a batched interaction's time actually go?".
//!
//! The NoTracer assertion allows 2× the e19 baseline: generous enough for
//! cross-host jitter (the tight 25 % gate is `ppbench-compare`'s job), yet
//! far below the 10×+ slowdown an accidentally active hook would cause.
//! Results land in `BENCH_e22_trace_overhead.json`.

use std::path::Path;
use std::time::Instant;

use pp_bench::compare::parse_bench_file;
use pp_bench::{fmt, print_header, BenchReport};
use pp_core::{
    seeded_rng, ChromeTracer, RunManifest, Simulation, SpanKind, SpanStats, Tracer,
};
use pp_protocols::majority;

/// Amortized ns/interaction for `k` batched interactions under `tracer`
/// (after `k/4` warmup), returning the tracer for inspection. Seed and
/// workload match e19's `time_batched` so rows are comparable.
fn time_batched<Tr: Tracer>(n: u64, k: u64, tracer: Tr) -> (f64, Tr) {
    let sim = Simulation::from_counts(majority(), [(0usize, n / 2), (1usize, n / 2 + 1)]);
    let mut sim = sim.with_tracer(tracer);
    let mut rng = seeded_rng(2);
    sim.run_batched(k / 4, &mut rng);
    let start = Instant::now();
    sim.run_batched(k, &mut rng);
    (start.elapsed().as_nanos() as f64 / k as f64, sim.into_tracer())
}

/// The e19 `majority_batched` baseline ns/interaction at `n`, read from the
/// checked-in `BENCH_e19_batched_throughput.json` (workspace root).
fn e19_baseline(n: u64) -> Option<f64> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_e19_batched_throughput.json");
    let file = parse_bench_file(&std::fs::read_to_string(path).ok()?).ok()?;
    file.rows.iter().find_map(|row| {
        let case = row.iter().find(|(k, _)| k == "case")?.1.as_str()?;
        let row_n = row.iter().find(|(k, _)| k == "n")?.1.as_f64()?;
        if case == "majority_batched" && row_n == n as f64 {
            row.iter().find(|(k, _)| k == "ns_per_step")?.1.as_f64()
        } else {
            None
        }
    })
}

fn main() {
    println!("\nE22: tracer overhead on the batched engine (majority workload)\n");
    let smoke = pp_bench::smoke();
    let k: u64 = if smoke { 20_000 } else { 4_000_000 };
    let ns_list: &[u64] = if smoke { &[1_000] } else { &[10_000, 1_000_000] };

    let mut report = BenchReport::new("e22_trace_overhead");
    report.set_meta("k", k);
    report.set_manifest(
        RunManifest::default()
            .with_protocol("majority")
            .with_population(*ns_list.last().unwrap())
            .with_master_seed(2)
            .with_detected_git_rev(),
    );

    print_header(&["case", "tracer", "n", "ns/interaction", "overhead"], &[18, 12, 12, 14, 9]);
    for &n in ns_list {
        let (base, _) = time_batched(n, k, pp_core::NoTracer);
        println!("{:>18} {:>12} {:>12} {:>14} {:>9}", "majority_batched", "no_tracer", n, fmt(base), "");
        report.push_row([
            ("case", pp_bench::JsonValue::from("majority_batched")),
            ("tracer", "no_tracer".into()),
            ("n", n.into()),
            ("ns_per_step", base.into()),
        ]);

        // Zero-cost check: NoTracer must stay within 2x of the e19 baseline
        // measured before the tracing layer existed (see module docs for
        // why 2x). Skipped in smoke mode — n and k are toy-sized there.
        if !smoke {
            match e19_baseline(n) {
                Some(e19) => {
                    println!("{:>18} {:>12} {:>12} {:>14} {:>9}", "(e19 baseline)", "-", n, fmt(e19), "");
                    assert!(
                        base <= 2.0 * e19,
                        "NoTracer batched path regressed: {base:.3} ns/interaction at n={n} \
                         vs e19 baseline {e19:.3} (limit 2x) — tracer hooks are not free"
                    );
                }
                None => println!("  (no e19 baseline for n={n}; zero-cost assertion skipped)"),
            }
        }

        let (stats_ns, stats) = time_batched(n, k, SpanStats::new());
        println!(
            "{:>18} {:>12} {:>12} {:>14} {:>8}%",
            "majority_batched", "span_stats", n, fmt(stats_ns),
            fmt((stats_ns / base - 1.0) * 100.0)
        );
        report.push_row([
            ("case", pp_bench::JsonValue::from("majority_batched")),
            ("tracer", "span_stats".into()),
            ("n", n.into()),
            ("ns_per_step", stats_ns.into()),
            ("overhead", (stats_ns / base - 1.0).into()),
        ]);

        let (chrome_ns, chrome) = time_batched(n, k, ChromeTracer::new());
        println!(
            "{:>18} {:>12} {:>12} {:>14} {:>8}%",
            "majority_batched", "chrome", n, fmt(chrome_ns),
            fmt((chrome_ns / base - 1.0) * 100.0)
        );
        report.push_row([
            ("case", pp_bench::JsonValue::from("majority_batched")),
            ("tracer", "chrome".into()),
            ("n", n.into()),
            ("ns_per_step", chrome_ns.into()),
            ("overhead", (chrome_ns / base - 1.0).into()),
        ]);

        // Phase breakdown from the SpanStats run: span counts are
        // deterministic (seed-pinned RNG stream); self-times are amortized
        // per timed+warmup interaction so rows are comparable across runs.
        let total_k = k + k / 4;
        let total_ns: f64 = SpanKind::ALL
            .iter()
            .map(|&kind| stats.total_self_ns(kind))
            .sum::<f64>()
            .max(1.0);
        println!("  phase breakdown (span_stats run, incl. warmup):");
        for kind in SpanKind::ALL {
            let count = stats.count(kind);
            if count == 0 {
                continue;
            }
            let self_ns = stats.total_self_ns(kind);
            let share = self_ns / total_ns;
            println!(
                "    {:>14}: {:>9} spans, {:>10} ns/interaction ({:>5.1}% of traced time)",
                kind.name(), count, fmt(self_ns / total_k as f64), share * 100.0
            );
            report.push_row([
                ("case", pp_bench::JsonValue::from("span")),
                ("kind", kind.name().into()),
                ("n", n.into()),
                ("count", count.into()),
                ("ns_per_step", (self_ns / total_k as f64).into()),
                ("share", share.into()),
            ]);
        }

        // Export the Chrome trace for offline inspection when asked.
        if let Some(dir) = std::env::var_os("PP_TRACE_DIR") {
            let path = Path::new(&dir).join(format!("e22_trace_n{n}.json"));
            let chrome = chrome.with_manifest(
                RunManifest::default()
                    .with_protocol("majority")
                    .with_population(n)
                    .with_master_seed(2)
                    .with_detected_git_rev(),
            );
            chrome
                .write_to(&path)
                .unwrap_or_else(|e| panic!("failed to write trace {}: {e}", path.display()));
            println!("  wrote {} ({} events)", path.display(), chrome.len());
        }
    }
    report.write();
}
