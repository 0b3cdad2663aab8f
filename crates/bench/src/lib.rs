//! Shared helpers for the experiment harnesses (benches `e1`–`e22`).
//!
//! Each `benches/eN_*.rs` target regenerates one quantitative claim of
//! Angluin et al. (PODC 2004), printing a paper-vs-measured table; see
//! `DESIGN.md` §3 for the experiment index and `EXPERIMENTS.md` for
//! recorded results. The [`report`] module additionally emits each
//! experiment's numbers as a machine-readable `BENCH_<exp>.json` and
//! appends a `BENCH_HISTORY.jsonl` trajectory record; the [`compare`]
//! module diffs fresh reports against checked-in baselines (the
//! `ppbench-compare` regression gate).
//!
//! Every bench honours `PP_BENCH_SMOKE=1` ([`smoke`]): populations and
//! trial counts drop to "does it run" size so CI can execute the whole
//! bench suite in seconds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod report;

pub use compare::{compare_dirs, parse_bench_file, render_report, CompareOutcome, DEFAULT_TOLERANCE};
pub use pp_core::json::JsonValue;
pub use report::{smoke, unix_now, BenchReport};

/// Sample mean.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Sample standard deviation (population form).
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64).sqrt()
}

/// Least-squares slope of `log y` against `log x`: the empirical growth
/// exponent of a power law `y ≈ c·xᵃ`.
///
/// # Panics
///
/// Panics if fewer than two points are given or any value is non-positive.
pub fn fit_exponent(xs: &[f64], ys: &[f64]) -> f64 {
    assert!(xs.len() == ys.len() && xs.len() >= 2, "need at least two points");
    let lx: Vec<f64> = xs.iter().map(|&x| x.ln()).collect();
    let ly: Vec<f64> = ys.iter().map(|&y| y.ln()).collect();
    let mx = mean(&lx);
    let my = mean(&ly);
    let num: f64 = lx.iter().zip(&ly).map(|(&a, &b)| (a - mx) * (b - my)).sum();
    let den: f64 = lx.iter().map(|&a| (a - mx).powi(2)).sum();
    num / den
}

/// Prints a header line plus an underline, padding columns to `widths`.
pub fn print_header(cols: &[&str], widths: &[usize]) {
    let mut line = String::new();
    for (c, w) in cols.iter().zip(widths) {
        line.push_str(&format!("{c:>w$} ", w = *w));
    }
    println!("{line}");
    println!("{}", "-".repeat(line.len()));
}

/// Formats a float compactly for table cells.
pub fn fmt(v: f64) -> String {
    if !v.is_finite() {
        return format!("{v}");
    }
    let a = v.abs();
    if a == 0.0 {
        "0".into()
    } else if !(1e-3..1e6).contains(&a) {
        format!("{v:.3e}")
    } else if a >= 100.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert!(std_dev(&[2.0, 2.0, 2.0]) < 1e-12);
        assert!(mean(&[]).is_nan());
    }

    #[test]
    fn exponent_of_square_law() {
        let xs = [8.0, 16.0, 32.0, 64.0];
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x * x).collect();
        let a = fit_exponent(&xs, &ys);
        assert!((a - 2.0).abs() < 1e-9, "{a}");
    }

    #[test]
    fn fmt_ranges() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(12.3456), "12.346");
        assert_eq!(fmt(123456.0), "123456");
        assert!(fmt(1.0e9).contains('e'));
    }
}
