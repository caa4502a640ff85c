//! Branch-and-bound mixed-integer programming on top of the simplex kernel.

use serde::{Deserialize, Serialize};

use crate::{Cmp, Lp, LpOutcome, LpSolution, Sense};

/// Integrality tolerance: values within this of an integer count as integer.
pub const INT_TOL: f64 = 1e-6;

/// A mixed-integer program: an [`Lp`] plus a set of integer variables.
///
/// # Examples
///
/// A small knapsack:
///
/// ```
/// use mobius_mip::{Cmp, Lp, Mip, MipOutcome, Sense};
///
/// // max 10a + 13b + 7c  s.t.  5a + 7b + 4c <= 10, binary vars.
/// let mut lp = Lp::new(3, Sense::Maximize);
/// lp.set_objective(&[10.0, 13.0, 7.0]);
/// lp.add_constraint(&[5.0, 7.0, 4.0], Cmp::Le, 10.0);
/// for v in 0..3 {
///     let mut bound = vec![0.0; 3];
///     bound[v] = 1.0;
///     lp.add_constraint(&bound, Cmp::Le, 1.0);
/// }
/// let mip = Mip::new(lp, vec![0, 1, 2]);
/// match mip.solve() {
///     MipOutcome::Optimal(sol) => assert!((sol.objective - 17.0).abs() < 1e-6),
///     other => panic!("unexpected {other:?}"),
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mip {
    lp: Lp,
    integer_vars: Vec<usize>,
    node_limit: usize,
}

/// Result of solving a [`Mip`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MipOutcome {
    /// Proven optimal integer solution.
    Optimal(LpSolution),
    /// No integer-feasible point exists.
    Infeasible,
    /// The LP relaxation is unbounded.
    Unbounded,
    /// The node budget ran out; the best incumbent (if any) is returned.
    NodeLimit(Option<LpSolution>),
}

/// Statistics from a branch-and-bound run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MipStats {
    /// LP relaxations solved.
    pub nodes: usize,
    /// Nodes pruned by bound.
    pub pruned: usize,
}

impl Mip {
    /// Wraps an LP, marking `integer_vars` as integral.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn new(lp: Lp, integer_vars: Vec<usize>) -> Self {
        for &v in &integer_vars {
            assert!(v < lp.num_vars(), "integer variable out of range");
        }
        Mip {
            lp,
            integer_vars,
            node_limit: 100_000,
        }
    }

    /// Caps the number of branch-and-bound nodes.
    pub fn node_limit(mut self, limit: usize) -> Self {
        self.node_limit = limit;
        self
    }

    /// Solves the MIP; see [`Mip::solve_with_stats`].
    pub fn solve(&self) -> MipOutcome {
        self.solve_with_stats().0
    }

    /// Solves by depth-first branch and bound, returning search statistics.
    pub fn solve_with_stats(&self) -> (MipOutcome, MipStats) {
        self.solve_with_stats_observed(None)
    }

    /// [`Mip::solve_with_stats`] with an optional observer: each new
    /// incumbent is marked on the solver lane (stamped with the node count,
    /// since branch-and-bound has no clock of its own) and the
    /// `mip.bb.nodes` / `mip.bb.pruned` counters are filled in at the end.
    pub fn solve_with_stats_observed(
        &self,
        obs: Option<&mobius_obs::Obs>,
    ) -> (MipOutcome, MipStats) {
        let (out, stats) = self.branch_and_bound(obs);
        if let Some(obs) = obs {
            obs.counter_add("mip.bb.nodes", stats.nodes as f64);
            obs.counter_add("mip.bb.pruned", stats.pruned as f64);
        }
        (out, stats)
    }

    fn branch_and_bound(&self, obs: Option<&mobius_obs::Obs>) -> (MipOutcome, MipStats) {
        let mut stats = MipStats::default();
        let maximize = matches!(self.sense(), Sense::Maximize);
        let mut incumbent: Option<LpSolution> = None;

        // Each node is a list of extra bound constraints (var, cmp, value).
        let mut stack: Vec<Vec<(usize, Cmp, f64)>> = vec![Vec::new()];

        while let Some(extra) = stack.pop() {
            if stats.nodes >= self.node_limit {
                return (MipOutcome::NodeLimit(incumbent), stats);
            }
            stats.nodes += 1;

            let mut lp = self.lp.clone();
            for &(v, cmp, b) in &extra {
                let mut row = vec![0.0; lp.num_vars()];
                row[v] = 1.0;
                lp.add_constraint(&row, cmp, b);
            }
            let sol = match lp.solve() {
                LpOutcome::Optimal(s) => s,
                LpOutcome::Infeasible => continue,
                LpOutcome::Unbounded => {
                    // Unbounded relaxation at the root means an unbounded
                    // MIP (or one needing bounds we don't have).
                    if extra.is_empty() {
                        return (MipOutcome::Unbounded, stats);
                    }
                    continue;
                }
            };

            // Bound pruning.
            if let Some(inc) = &incumbent {
                let worse = if maximize {
                    sol.objective <= inc.objective + INT_TOL
                } else {
                    sol.objective >= inc.objective - INT_TOL
                };
                if worse {
                    stats.pruned += 1;
                    continue;
                }
            }

            // Most-fractional branching.
            let frac_var = self
                .integer_vars
                .iter()
                .map(|&v| (v, (sol.x[v] - sol.x[v].round()).abs()))
                .filter(|&(_, f)| f > INT_TOL)
                .max_by(|a, b| a.1.total_cmp(&b.1));

            match frac_var {
                None => {
                    // Integer feasible: round off residual fuzz.
                    let mut s = sol;
                    for &v in &self.integer_vars {
                        s.x[v] = s.x[v].round();
                    }
                    if let Some(obs) = obs {
                        obs.mark(
                            mobius_obs::Lane::Solver,
                            "solver",
                            "bb-incumbent",
                            stats.nodes as u64,
                            vec![
                                ("objective", mobius_obs::AttrValue::F64(s.objective)),
                                ("nodes", mobius_obs::AttrValue::U64(stats.nodes as u64)),
                            ],
                        );
                    }
                    incumbent = Some(s);
                }
                Some((v, _)) => {
                    let f = sol.x[v].floor();
                    let mut down = extra.clone();
                    down.push((v, Cmp::Le, f));
                    let mut up = extra;
                    up.push((v, Cmp::Ge, f + 1.0));
                    // DFS: explore the branch nearer the LP optimum first.
                    if sol.x[v] - f > 0.5 {
                        stack.push(down);
                        stack.push(up);
                    } else {
                        stack.push(up);
                        stack.push(down);
                    }
                }
            }
        }

        match incumbent {
            Some(s) => (MipOutcome::Optimal(s), stats),
            None => (MipOutcome::Infeasible, stats),
        }
    }

    fn sense(&self) -> Sense {
        self.lp.sense()
    }

    /// The wrapped LP relaxation.
    pub fn lp(&self) -> &Lp {
        &self.lp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knapsack_optimum() {
        // max 60a + 100b + 120c s.t. 10a + 20b + 30c <= 50, binary.
        let mut lp = Lp::new(3, Sense::Maximize);
        lp.set_objective(&[60.0, 100.0, 120.0]);
        lp.add_constraint(&[10.0, 20.0, 30.0], Cmp::Le, 50.0);
        for v in 0..3 {
            let mut row = vec![0.0; 3];
            row[v] = 1.0;
            lp.add_constraint(&row, Cmp::Le, 1.0);
        }
        let out = Mip::new(lp, vec![0, 1, 2]).solve();
        match out {
            MipOutcome::Optimal(s) => {
                assert!((s.objective - 220.0).abs() < 1e-6);
                assert_eq!(
                    s.x.iter().map(|v| v.round() as i64).collect::<Vec<_>>(),
                    vec![0, 1, 1]
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn lp_relaxation_differs_from_mip() {
        // max x s.t. 2x <= 5 → LP gives 2.5, MIP gives 2.
        let mut lp = Lp::new(1, Sense::Maximize);
        lp.set_objective(&[1.0]);
        lp.add_constraint(&[2.0], Cmp::Le, 5.0);
        match Mip::new(lp, vec![0]).solve() {
            MipOutcome::Optimal(s) => assert!((s.objective - 2.0).abs() < 1e-6),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn minimization_mip() {
        // min 3x + 4y s.t. x + 2y >= 7, x, y integer >= 0.
        let mut lp = Lp::new(2, Sense::Minimize);
        lp.set_objective(&[3.0, 4.0]);
        lp.add_constraint(&[1.0, 2.0], Cmp::Ge, 7.0);
        match Mip::new(lp, vec![0, 1]).solve() {
            // y=3, x=1 → 3+12=15; or x=7 → 21; or y=4 → 16. Optimal 15.
            MipOutcome::Optimal(s) => assert!((s.objective - 15.0).abs() < 1e-6),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn infeasible_integrality() {
        // 2x == 3 has an LP solution but no integer one.
        let mut lp = Lp::new(1, Sense::Maximize);
        lp.set_objective(&[1.0]);
        lp.add_constraint(&[2.0], Cmp::Eq, 3.0);
        assert_eq!(Mip::new(lp, vec![0]).solve(), MipOutcome::Infeasible);
    }

    #[test]
    fn node_limit_returns_incumbent() {
        let mut lp = Lp::new(2, Sense::Maximize);
        lp.set_objective(&[1.0, 1.0]);
        lp.add_constraint(&[3.0, 2.0], Cmp::Le, 12.1);
        lp.add_constraint(&[1.0, 0.0], Cmp::Le, 3.4);
        lp.add_constraint(&[0.0, 1.0], Cmp::Le, 3.7);
        let (out, stats) = Mip::new(lp, vec![0, 1]).node_limit(1).solve_with_stats();
        assert!(matches!(out, MipOutcome::NodeLimit(_)));
        assert_eq!(stats.nodes, 1);
    }

    #[test]
    fn stats_count_nodes() {
        let mut lp = Lp::new(2, Sense::Maximize);
        lp.set_objective(&[5.0, 4.0]);
        lp.add_constraint(&[6.0, 4.0], Cmp::Le, 24.0);
        lp.add_constraint(&[1.0, 2.0], Cmp::Le, 6.0);
        let (out, stats) = Mip::new(lp, vec![0, 1]).solve_with_stats();
        assert!(matches!(out, MipOutcome::Optimal(_)));
        assert!(stats.nodes >= 1);
    }

    #[test]
    fn pure_lp_when_no_integer_vars() {
        let mut lp = Lp::new(1, Sense::Maximize);
        lp.set_objective(&[1.0]);
        lp.add_constraint(&[2.0], Cmp::Le, 5.0);
        match Mip::new(lp, vec![]).solve() {
            MipOutcome::Optimal(s) => assert!((s.objective - 2.5).abs() < 1e-6),
            other => panic!("unexpected {other:?}"),
        }
    }
}
