//! `pp` — command-line front end to the population-protocols workspace.
//!
//! ```text
//! pp qe       "<formula>"                         print the quantifier-free form (Cooper)
//! pp simulate "<formula>" name=count... [opts]    compile & run under random pairing
//! pp verify   "<formula>" [--max-n N]             exhaustive stable-computation check
//! pp analyze  "<formula>" name=count...           exact Markov-chain expected commit time
//! pp graph    --kind K --n N "<formula>" name=count...
//!                                                 run on a restricted graph via Theorem 7
//! ```
//!
//! Options: `--seed S` (default 0), `--horizon H` (default 200·n²·ln n).
//! Formulas use the `pp-presburger` syntax, e.g. `"20 * hot >= hot + normal"`.

use std::process::ExitCode;

use population_protocols::analysis::verify::verify_predicate;
use population_protocols::analysis::MarkovAnalysis;
use population_protocols::core::prelude::*;
use population_protocols::core::ProtocolRef;
use population_protocols::presburger::compile::compile_parsed;
use population_protocols::presburger::{eliminate_quantifiers, parse, ParsedFormula};
use population_protocols::server::{execute, CompiledCache, ExecOptions};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  pp qe       \"<formula>\"
  pp simulate \"<formula>\" name=count... [--seed S] [--horizon H]
  pp verify   \"<formula>\" [--max-n N]
  pp analyze  \"<formula>\" name=count...
  pp graph    --kind {line|cycle|star|complete} --n N \"<formula>\" name=count... [--seed S]";

fn run(args: &[String]) -> Result<(), String> {
    let (cmd, rest) = args.split_first().ok_or("missing subcommand")?;
    match cmd.as_str() {
        "qe" => cmd_qe(rest),
        "simulate" => cmd_simulate(rest),
        "verify" => cmd_verify(rest),
        "analyze" => cmd_analyze(rest),
        "graph" => cmd_graph(rest),
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

/// Parsed command-line tail: positional args and `--flag value` options.
#[derive(Debug, Default, PartialEq, Eq)]
struct Opts {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut out = Opts::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            let v = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            out.flags.push((name.to_string(), v.clone()));
        } else {
            out.positional.push(a.clone());
        }
    }
    Ok(out)
}

impl Opts {
    fn flag_u64(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.flags.iter().find(|(n, _)| n == name) {
            None => Ok(default),
            Some((_, v)) => v.parse().map_err(|_| format!("--{name} must be an integer")),
        }
    }

    fn flag_str(&self, name: &str) -> Option<&str> {
        self.flags.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }
}

/// Parses `name=count` assignments into a count vector aligned with the
/// formula's variables.
fn parse_counts(parsed: &ParsedFormula, assignments: &[String]) -> Result<Vec<u64>, String> {
    let mut counts = vec![0u64; parsed.vars.len().max(1)];
    for a in assignments {
        let (name, v) = a
            .split_once('=')
            .ok_or_else(|| format!("expected name=count, got {a:?}"))?;
        let v: u64 = v.parse().map_err(|_| format!("count in {a:?} must be a non-negative integer"))?;
        match parsed.index_of(name) {
            Some(i) => counts[i] = v,
            None => return Err(format!("variable {name:?} does not occur in the formula")),
        }
    }
    Ok(counts)
}

/// Total population; saturates instead of overflowing on huge counts,
/// which the dispatcher then refuses as too large.
fn population_size(counts: &[u64]) -> u64 {
    counts.iter().fold(0, |n, &c| n.saturating_add(c))
}

/// The spec-order population for a parsed formula: every variable, in
/// variable-index order, **including zero counts** — the interning order
/// is semantic (it fixes the RNG stream), and the historical CLI interned
/// all variables.
fn population_of(parsed: &ParsedFormula, counts: &[u64]) -> Vec<(String, u64)> {
    let symbols: Vec<String> = if parsed.vars.is_empty() {
        vec!["x0".to_string()]
    } else {
        parsed.vars.clone()
    };
    symbols.into_iter().zip(counts.iter().copied()).collect()
}

/// Runs a spec through the shared dispatcher (the same entry point
/// `pp-server` serves), with a one-shot artifact cache.
fn execute_spec(spec: &RunSpec) -> Result<RunReport, String> {
    let cache = CompiledCache::new();
    execute(spec, &cache, &ExecOptions::default())
        .map(|(report, _)| report)
        .map_err(|e| e.to_string())
}

fn cmd_qe(args: &[String]) -> Result<(), String> {
    let opts = parse_opts(args)?;
    let [src] = opts.positional.as_slice() else {
        return Err("qe takes exactly one formula".into());
    };
    let parsed = parse(src).map_err(|e| e.to_string())?;
    println!("variables (input symbols): {:?}", parsed.vars);
    println!("quantifier-free form:      {}", eliminate_quantifiers(&parsed.formula));
    Ok(())
}

fn cmd_simulate(args: &[String]) -> Result<(), String> {
    let opts = parse_opts(args)?;
    let (src, assignments) = opts
        .positional
        .split_first()
        .ok_or("simulate needs a formula and name=count assignments")?;
    let parsed = parse(src).map_err(|e| e.to_string())?;
    let counts = parse_counts(&parsed, assignments)?;
    let n = population_size(&counts);
    if n < 2 {
        return Err("population must have at least 2 agents".into());
    }
    let mut spec = RunSpec::new(
        ProtocolRef::Formula(src.clone()),
        population_of(&parsed, &counts),
        opts.flag_u64("seed", 0)?,
    );
    spec.horizon = Some(opts.flag_u64("horizon", RunSpec::default_horizon(n))?);
    let report = execute_spec(&spec)?;
    let expected = report.ground_truth.unwrap_or(false);
    println!("population n = {n}, counts {counts:?}, ground truth = {expected}");
    let run = report.single().ok_or("dispatcher returned a non-single outcome")?;
    match run.stabilized_at {
        Some(t) => println!(
            "stabilized to {expected} after {t} interactions \
             ({} effective) with a {}-interaction confirmed tail",
            run.effective_steps.unwrap_or(0),
            run.silent_tail
        ),
        None => println!(
            "NOT stabilized within {} interactions (raise --horizon)",
            run.horizon
        ),
    }
    Ok(())
}

fn cmd_verify(args: &[String]) -> Result<(), String> {
    let opts = parse_opts(args)?;
    let [src] = opts.positional.as_slice() else {
        return Err("verify takes exactly one formula".into());
    };
    let max_n = opts.flag_u64("max-n", 5)?;
    let parsed = parse(src).map_err(|e| e.to_string())?;
    let protocol = compile_parsed(&parsed).map_err(|e| e.to_string())?;
    let k = parsed.vars.len().max(1);
    let mut verified = 0u64;
    let mut counts = vec![0u64; k];
    loop {
        let n: u64 = counts.iter().sum();
        if (2..=max_n).contains(&n) {
            let expected = protocol.eval(&counts);
            let report = verify_predicate(
                protocol.clone(),
                counts.iter().enumerate().map(|(i, &c)| (i, c)),
                expected,
            );
            if !report.holds() {
                return Err(format!(
                    "FAILED at {counts:?}: expected {expected}, verdict {:?}",
                    report.verdict
                ));
            }
            verified += 1;
        }
        let mut i = 0;
        while i < k {
            counts[i] += 1;
            if counts[i] <= max_n {
                break;
            }
            counts[i] = 0;
            i += 1;
        }
        if i == k {
            break;
        }
    }
    println!(
        "verified exhaustively: {verified} input(s) with 2 ≤ n ≤ {max_n}, all stably correct"
    );
    Ok(())
}

fn cmd_analyze(args: &[String]) -> Result<(), String> {
    let opts = parse_opts(args)?;
    let (src, assignments) = opts
        .positional
        .split_first()
        .ok_or("analyze needs a formula and name=count assignments")?;
    let parsed = parse(src).map_err(|e| e.to_string())?;
    let protocol = compile_parsed(&parsed).map_err(|e| e.to_string())?;
    let counts = parse_counts(&parsed, assignments)?;
    let n = population_size(&counts);
    if n < 2 {
        return Err("population must have at least 2 agents".into());
    }
    let m = MarkovAnalysis::analyze(
        protocol,
        counts.iter().enumerate().map(|(i, &c)| (i, c)),
    );
    println!("reachable configurations: {}", m.graph().len());
    match m.expected_steps_to_commit() {
        Some(t) => println!("exact E[interactions to output commitment] = {t:.3}"),
        None => println!("the population does not almost-surely commit from this input"),
    }
    for (cls, p) in m.classes().iter().zip(m.commit_probabilities()) {
        println!("  commits to {cls:?} with probability {p:.6}");
    }
    Ok(())
}

fn cmd_graph(args: &[String]) -> Result<(), String> {
    let opts = parse_opts(args)?;
    let (src, assignments) = opts
        .positional
        .split_first()
        .ok_or("graph needs a formula and name=count assignments")?;
    let n = opts.flag_u64("n", 0)?;
    let kind = opts.flag_str("kind").ok_or("--kind is required")?;
    let parsed = parse(src).map_err(|e| e.to_string())?;
    let counts = parse_counts(&parsed, assignments)?;
    let total = population_size(&counts);
    let n = if n == 0 { total } else { n };
    if n != total {
        return Err(format!("counts sum to {total} but --n is {n}"));
    }
    if n < 4 {
        return Err("the Theorem 7 construction assumes n ≥ 4".into());
    }
    let topology = match kind {
        "line" => TopologySpec::Line,
        "cycle" => TopologySpec::Cycle,
        "star" => TopologySpec::Star,
        "complete" => TopologySpec::Complete,
        other => return Err(format!("unknown graph kind {other:?}")),
    };
    let mut spec = RunSpec::new(
        ProtocolRef::Formula(src.clone()),
        population_of(&parsed, &counts),
        opts.flag_u64("seed", 0)?,
    );
    spec.engine = EngineSel::Agents;
    spec.topology = Some(topology);
    spec.horizon =
        Some(opts.flag_u64("horizon", RunSpec::default_horizon(n).saturating_mul(20))?);
    let report = execute_spec(&spec)?;
    let expected = report.ground_truth.unwrap_or(false);
    println!(
        "running A' (Theorem 7) on {kind} graph, n = {n}, {} edges, ground truth = {expected}",
        report.edges.unwrap_or(0)
    );
    let run = report.single().ok_or("dispatcher returned a non-single outcome")?;
    match run.stabilized_at {
        Some(t) => println!("stabilized to {expected} after {t} interactions"),
        None => println!(
            "NOT stabilized within {} interactions (raise --horizon)",
            run.horizon
        ),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn opts_parser_splits_flags_and_positionals() {
        let o = parse_opts(&s(&["a=1", "--seed", "7", "b", "--max-n", "4"])).unwrap();
        assert_eq!(o.positional, vec!["a=1", "b"]);
        assert_eq!(o.flag_u64("seed", 0).unwrap(), 7);
        assert_eq!(o.flag_u64("max-n", 5).unwrap(), 4);
        assert_eq!(o.flag_u64("horizon", 99).unwrap(), 99);
        assert!(parse_opts(&s(&["--seed"])).is_err());
    }

    #[test]
    fn counts_align_with_variables() {
        let parsed = parse("a + b < 3").unwrap();
        let counts = parse_counts(&parsed, &s(&["b=4", "a=1"])).unwrap();
        assert_eq!(counts, vec![1, 4]);
        assert!(parse_counts(&parsed, &s(&["zz=1"])).is_err());
        assert!(parse_counts(&parsed, &s(&["a"])).is_err());
        assert!(parse_counts(&parsed, &s(&["a=-3"])).is_err());
    }

    #[test]
    fn subcommands_run_end_to_end() {
        run(&s(&["qe", "exists q. x = 2 * q"])).unwrap();
        run(&s(&["verify", "a = b", "--max-n", "4"])).unwrap();
        run(&s(&["simulate", "a > b", "a=4", "b=2", "--seed", "1"])).unwrap();
        run(&s(&["analyze", "a > b", "a=3", "b=2"])).unwrap();
        run(&s(&["graph", "--kind", "line", "a > b", "a=3", "b=2", "--seed", "2"])).unwrap();
        assert!(run(&s(&["bogus"])).is_err());
        assert!(run(&s(&[])).is_err());
    }
}
