//! `mobius-bench` — regenerates the paper's tables and figures and the
//! extension tables, one by name or all at once.
//!
//! ```text
//! mobius-bench <name|all> [--quick] [--seed N] [--json PATH]
//! mobius-bench solver_perf [--deterministic] [--check BASELINE]
//! mobius-bench serve [--check BASELINE]
//! ```
//!
//! The names and the flags each one reads are the rows of
//! [`mobius_bench::experiments::ENTRIES`]. `all` runs every row but the two
//! counter benchmarks and writes `experiments_output.md` (the data behind
//! EXPERIMENTS.md) to the working directory.

use std::fmt::Write as _;
use std::process::ExitCode;

use mobius_bench::experiments::{baseline, run_all, Entry, Opts, DEFAULT_SEED, ENTRIES};
use mobius_bench::{render_json_report, Experiment};

const USAGE: &str = "\
usage: mobius-bench <name|all> [--quick] [--seed N] [--json PATH]
  --quick           a reduced run: shorter solver budgets, fewer steps
  --seed N          reseeds resilience, solver_perf and serve (default 42)
  --json PATH       also writes the experiments as one JSON report
  --deterministic   solver_perf only: leaves out the wall-clock table
  --check BASELINE  solver_perf and serve only: diffs a fresh run's counters
                    against a committed baseline instead of printing the run
  all runs every name except solver_perf and serve, then writes
  experiments_output.md; it reads --quick and --json
  a flag the named entry does not read is a usage error
exit codes: 0 ok, 1 a failed write or a regressed counter,
  2 usage or an unreadable baseline";

/// The flags `all` reads besides `--json`.
const ALL_FLAGS: &[&str] = &["--quick"];

/// Why the binary stops early.
#[derive(Debug)]
enum Fail {
    /// The invocation is wrong: exits 2 and prints the usage.
    Usage(String),
    /// Exits with the status after printing the message.
    Exit(u8, String),
}

fn usage(msg: impl Into<String>) -> Fail {
    Fail::Usage(msg.into())
}

/// The parsed command line.
#[derive(Debug)]
struct Cli<'a> {
    /// The named entry; `None` for `all`.
    entry: Option<&'static Entry>,
    opts: Opts,
    json: Option<&'a str>,
    /// The baseline path of `--check`.
    check: Option<&'a str>,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args).and_then(run) {
        Ok(()) => ExitCode::SUCCESS,
        Err(Fail::Usage(msg)) => {
            let names: Vec<&str> = ENTRIES.iter().map(|e| e.name).collect();
            eprintln!("error: {msg}\n{USAGE}\nnames: {}", names.join(" "));
            ExitCode::from(2)
        }
        Err(Fail::Exit(code, msg)) => {
            eprintln!("{msg}");
            ExitCode::from(code)
        }
    }
}

/// Reads `<name|all>` and its flags, rejecting an unknown name or flag, a
/// flag the entry does not read and a flag without its value.
fn parse(args: &[String]) -> Result<Cli<'_>, Fail> {
    let name = args
        .first()
        .ok_or_else(|| usage("missing experiment name"))?;
    let entry = match name.as_str() {
        "all" => None,
        n => Some(
            ENTRIES
                .iter()
                .find(|e| e.name == n)
                .ok_or_else(|| usage(format!("unknown experiment `{n}`")))?,
        ),
    };
    let flags = entry.map_or(ALL_FLAGS, |e| e.flags);
    let check = entry.and_then(|e| e.check);
    let mut cli = Cli {
        entry,
        opts: Opts {
            quick: false,
            seed: DEFAULT_SEED,
            deterministic: false,
        },
        json: None,
        check: None,
    };
    let mut rest = args[1..].iter();
    while let Some(a) = rest.next() {
        let a = a.as_str();
        if !matches!(
            a,
            "--quick" | "--deterministic" | "--seed" | "--json" | "--check"
        ) {
            return Err(usage(if a.starts_with("--") {
                format!("unknown flag `{a}`")
            } else {
                format!("unexpected argument `{a}`")
            }));
        }
        let reads = a == "--json" || flags.contains(&a) || (a == "--check" && check.is_some());
        if !reads {
            return Err(usage(format!("flag `{a}` does not apply to `{name}`")));
        }
        match a {
            "--quick" => cli.opts.quick = true,
            "--deterministic" => cli.opts.deterministic = true,
            _ => {
                let value = rest
                    .next()
                    .map(String::as_str)
                    .filter(|v| !v.starts_with("--"))
                    .ok_or_else(|| usage(format!("flag `{a}` expects a value")))?;
                match a {
                    "--seed" => {
                        cli.opts.seed = value
                            .parse()
                            .map_err(|_| usage("flag `--seed` expects an integer"))?;
                    }
                    "--check" => cli.check = Some(value),
                    _ => cli.json = Some(value),
                }
            }
        }
    }
    // A check prints a delta table and nothing else, so only `--seed`
    // reaches it.
    if cli.check.is_some() {
        let ignored = [
            ("--quick", cli.opts.quick),
            ("--deterministic", cli.opts.deterministic),
            ("--json", cli.json.is_some()),
        ];
        if let Some((f, _)) = ignored.iter().find(|(_, set)| *set) {
            return Err(usage(format!("flag `{f}` does not apply to `--check`")));
        }
    }
    Ok(cli)
}

fn run(cli: Cli<'_>) -> Result<(), Fail> {
    match (cli.entry, cli.check) {
        (Some(entry), Some(path)) => check(entry, path, cli.opts.seed),
        (Some(entry), None) => emit(&(entry.run)(cli.opts), cli.json),
        (None, _) => all(cli.opts.quick, cli.json),
    }
}

/// Prints each experiment and, given a path, writes them all there as one
/// JSON report.
fn emit(experiments: &[Experiment], json: Option<&str>) -> Result<(), Fail> {
    for e in experiments {
        e.print();
    }
    if let Some(path) = json {
        std::fs::write(path, render_json_report(experiments))
            .map_err(|e| Fail::Exit(1, format!("error: writing {path}: {e}")))?;
        eprintln!("wrote JSON report to {path}");
    }
    Ok(())
}

/// Runs every entry `all` runs and writes the markdown digest.
fn all(quick: bool, json: Option<&str>) -> Result<(), Fail> {
    let experiments = run_all(quick);
    emit(&experiments, json)?;
    let mut md = String::from("# Mobius reproduction — regenerated results\n\n");
    for e in &experiments {
        let _ = writeln!(md, "{}", e.render_markdown());
    }
    let path = "experiments_output.md";
    std::fs::write(path, md)
        .map_err(|e| Fail::Exit(1, format!("error: cannot write {path}: {e}")))?;
    println!("wrote {path} ({} experiments)", experiments.len());
    Ok(())
}

/// Diffs a fresh deterministic run's counters table against the baseline
/// at `path` and prints the delta table. A regression exits 1, an
/// unreadable baseline 2.
fn check(entry: &Entry, path: &str, seed: u64) -> Result<(), Fail> {
    let counters_id = entry
        .check
        .expect("only a counter benchmark parses `--check`");
    let baseline = std::fs::read_to_string(path)
        .map_err(|e| Fail::Exit(2, format!("error: reading {path}: {e}")))?;
    let fresh = (entry.run)(Opts {
        quick: false,
        seed,
        deterministic: true,
    });
    match baseline::check(&baseline, &fresh, counters_id) {
        Ok(table) => {
            println!("{table}");
            println!("baseline OK: no counter regressed");
            Ok(())
        }
        Err(table) => {
            println!("{table}");
            Err(Fail::Exit(
                1,
                format!(
                    "FAIL: {} counters regressed against {path} — if the change is \
                     intentional, regenerate with `UPDATE_BASELINE=1 scripts/verify.sh`",
                    entry.name
                ),
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_err(args: &[&str]) -> String {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        match parse(&args) {
            Err(Fail::Usage(msg)) => msg,
            other => panic!("{args:?} should be a usage error, got {other:?}"),
        }
    }

    fn parses(args: &[&str]) -> (Option<&'static str>, Opts, bool, bool) {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        let cli = parse(&args).unwrap_or_else(|e| panic!("{args:?}: {e:?}"));
        (
            cli.entry.map(|e| e.name),
            cli.opts,
            cli.json.is_some(),
            cli.check.is_some(),
        )
    }

    #[test]
    fn every_name_is_in_the_table_once() {
        for (i, e) in ENTRIES.iter().enumerate() {
            assert_ne!(e.name, "all");
            assert!(ENTRIES[..i].iter().all(|f| f.name != e.name), "{}", e.name);
        }
        let outside: Vec<&str> = ENTRIES
            .iter()
            .filter(|e| e.check.is_some())
            .map(|e| e.name)
            .collect();
        assert_eq!(outside, ["solver_perf", "serve"]);
    }

    #[test]
    fn the_gate_invocations_parse() {
        let (name, opts, json, check) =
            parses(&["resilience", "--quick", "--seed", "7", "--json", "r.json"]);
        assert_eq!(name, Some("resilience"));
        assert!(opts.quick && opts.seed == 7 && json && !check);
        let (_, opts, ..) = parses(&[
            "solver_perf",
            "--deterministic",
            "--seed",
            "42",
            "--json",
            "s.json",
        ]);
        assert!(opts.deterministic && !opts.quick);
        let (_, opts, json, check) =
            parses(&["serve", "--check", "BENCH_serve.json", "--seed", "3"]);
        assert!(check && !json && opts.seed == 3);
        let (name, opts, json, _) = parses(&["all", "--quick", "--json", "a.json"]);
        assert!(name.is_none() && opts.quick && json);
        assert_eq!(parses(&["fig05"]).1.seed, DEFAULT_SEED);
    }

    #[test]
    fn bad_invocations_are_usage_errors_that_name_the_problem() {
        assert!(parse_err(&[]).contains("missing experiment name"));
        assert!(parse_err(&["fig99"]).contains("unknown experiment `fig99`"));
        assert!(parse_err(&["fig05", "--qiuck"]).contains("unknown flag `--qiuck`"));
        assert!(parse_err(&["fig05", "extra"]).contains("unexpected argument `extra`"));
        assert!(
            parse_err(&["fig05", "--check", "x"]).contains("`--check` does not apply to `fig05`")
        );
        assert!(parse_err(&["fig05", "--seed", "1"]).contains("`--seed` does not apply to `fig05`"));
        assert!(
            parse_err(&["scaling", "--seed", "1"]).contains("`--seed` does not apply to `scaling`")
        );
        assert!(parse_err(&["serve", "--deterministic"]).contains("does not apply to `serve`"));
        assert!(parse_err(&["serve", "--quick"]).contains("does not apply to `serve`"));
        assert!(parse_err(&["all", "--seed", "1"]).contains("does not apply to `all`"));
        assert!(parse_err(&["table1", "--quick"]).contains("does not apply to `table1`"));
        assert!(parse_err(&["scaling", "--json"]).contains("`--json` expects a value"));
        assert!(
            parse_err(&["resilience", "--seed", "--quick"]).contains("`--seed` expects a value")
        );
        assert!(parse_err(&["resilience", "--seed", "x"]).contains("`--seed` expects an integer"));
        assert!(parse_err(&["serve", "--check"]).contains("`--check` expects a value"));
        let err = parse_err(&["solver_perf", "--check", "b.json", "--json", "o.json"]);
        assert!(
            err.contains("`--json` does not apply to `--check`"),
            "{err}"
        );
    }

    #[test]
    fn a_missing_baseline_exits_2() {
        let entry = ENTRIES.iter().find(|e| e.name == "serve").unwrap();
        match check(entry, "no/such/baseline.json", DEFAULT_SEED) {
            Err(Fail::Exit(2, msg)) => assert!(msg.contains("no/such/baseline.json"), "{msg}"),
            other => panic!("expected exit 2, got {other:?}"),
        }
    }
}
