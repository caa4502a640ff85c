//! One module per table/figure of the paper's evaluation.

pub mod ablations;
pub mod attribution;
pub mod baseline;
pub mod baselines;
pub mod fig02;
pub mod fig04;
pub mod fig05;
pub mod fig06;
pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod recovery;
pub mod resilience;
pub mod scaling;
pub mod schedules;
pub mod serve;
pub mod solver_perf;
pub mod steady_state;
pub mod table1;

use crate::Experiment;

/// The command-line options an entry's run reads.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// `--quick`: shorter solver budgets and fewer training steps; the
    /// shapes the tests assert hold in both modes.
    pub quick: bool,
    /// `--seed N`: reseeds fault draws and load generators.
    pub seed: u64,
    /// `--deterministic`: leave out machine-dependent wall-clock tables.
    pub deterministic: bool,
}

/// Diffs a fresh seeded run's counters against a committed baseline's
/// text: the delta table, as `Err` when a counter regressed.
pub type Check = fn(&str, u64) -> Result<String, String>;

/// One named experiment set of the `mobius-bench` binary.
#[derive(Debug)]
pub struct Entry {
    /// The name on the command line, e.g. `fig05`.
    pub name: &'static str,
    /// The flags `run` reads, besides `--json` (which every entry takes).
    pub flags: &'static [&'static str],
    /// Regenerates the experiments.
    pub run: fn(Opts) -> Vec<Experiment>,
    /// `--check <baseline.json>` mode, for the counter benchmarks with a
    /// committed baseline; `all` (and [`run_all`]) runs every other entry.
    pub check: Option<Check>,
}

const QUICK: &[&str] = &["--quick"];
const QUICK_SEED: &[&str] = &["--quick", "--seed"];

/// `--seed` when absent.
pub const DEFAULT_SEED: u64 = 42;

/// An entry without a counter baseline, which `all` runs.
const fn entry(
    name: &'static str,
    flags: &'static [&'static str],
    run: fn(Opts) -> Vec<Experiment>,
) -> Entry {
    Entry {
        name,
        flags,
        run,
        check: None,
    }
}

/// Every entry, in the order `all` runs them: the paper's Table 1 and
/// figures, then the extension tables, then the two counter benchmarks
/// that `all` leaves out.
pub const ENTRIES: &[Entry] = &[
    entry("table1", &[], |_| vec![table1::run()]),
    entry("fig02", QUICK, |o| vec![fig02::run(o.quick)]),
    entry("fig04", QUICK, |o| vec![fig04::run(o.quick)]),
    entry("fig05", QUICK, |o| vec![fig05::run(o.quick)]),
    entry("fig06", QUICK, |o| vec![fig06::run(o.quick)]),
    entry("fig07", QUICK, |o| vec![fig07::run(o.quick)]),
    entry("fig08", QUICK, |o| vec![fig08::run(o.quick)]),
    entry("fig09", QUICK, |o| vec![fig09::run(o.quick)]),
    entry("fig10", QUICK, |o| vec![fig10::run(o.quick)]),
    entry("fig11", QUICK, |o| vec![fig11::run(o.quick)]),
    entry("fig12", QUICK, |o| vec![fig12::run(o.quick)]),
    entry("fig13", QUICK, |o| vec![fig13::run(o.quick)]),
    entry("fig14", QUICK, |o| vec![fig14::run(o.quick)]),
    entry("fig15", QUICK, |o| vec![fig15::run(o.quick)]),
    entry("fig16", QUICK, |o| vec![fig16::run(o.quick)]),
    entry("ablations", QUICK, |o| vec![ablations::run(o.quick)]),
    entry("baselines", QUICK, |o| vec![baselines::run(o.quick)]),
    entry("steady_state", QUICK, |o| vec![steady_state::run(o.quick)]),
    entry("schedules", QUICK, |o| vec![schedules::run(o.quick)]),
    // Deterministic by construction (min-stage partition, seeded draws) —
    // see the module docs of `resilience` and `scaling`.
    entry("resilience", QUICK_SEED, |o| {
        resilience::run(o.quick, o.seed)
    }),
    entry("scaling", QUICK_SEED, |o| scaling::run(o.quick, o.seed)),
    entry("attribution", QUICK_SEED, |o| {
        attribution::run(o.quick, o.seed)
    }),
    entry("recovery", QUICK_SEED, |o| recovery::run(o.quick, o.seed)),
    Entry {
        name: "solver_perf",
        flags: &["--quick", "--seed", "--deterministic"],
        run: |o| {
            if o.deterministic {
                solver_perf::deterministic(o.seed)
            } else {
                solver_perf::run(o.quick, o.seed)
            }
        },
        check: Some(solver_perf::check_against),
    },
    Entry {
        name: "serve",
        flags: &["--seed"],
        run: |o| serve::deterministic(o.seed),
        check: Some(serve::check_against),
    },
];

/// Runs every entry without a counter baseline, in table order, with
/// [`DEFAULT_SEED`].
/// `quick` trades fidelity for speed (shorter solver budgets, fewer
/// training steps) and is what the test suite uses; the shapes asserted
/// hold in both modes.
pub fn run_all(quick: bool) -> Vec<Experiment> {
    let opts = Opts {
        quick,
        seed: DEFAULT_SEED,
        deterministic: false,
    };
    ENTRIES
        .iter()
        .filter(|e| e.check.is_none())
        .flat_map(|e| (e.run)(opts))
        .collect()
}
