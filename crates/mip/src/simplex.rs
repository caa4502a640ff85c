//! A dense two-phase primal simplex solver.
//!
//! The paper solves its partition program with Gurobi; this reproduction
//! ships its own LP kernel instead. It is a textbook implementation —
//! two-phase with artificial variables and Bland's anti-cycling rule — dense
//! and dimension-bounded, which is ample for the partition-sized programs we
//! feed it.

use serde::{Deserialize, Serialize};

/// Relation of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Cmp {
    /// `a·x <= b`
    Le,
    /// `a·x >= b`
    Ge,
    /// `a·x == b`
    Eq,
}

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Sense {
    /// Maximize the objective.
    Maximize,
    /// Minimize the objective.
    Minimize,
}

/// A linear program over non-negative variables.
///
/// # Examples
///
/// ```
/// use mobius_mip::{Cmp, Lp, LpOutcome, Sense};
///
/// // max 3x + 5y  s.t.  x <= 4, 2y <= 12, 3x + 2y <= 18
/// let mut lp = Lp::new(2, Sense::Maximize);
/// lp.set_objective(&[3.0, 5.0]);
/// lp.add_constraint(&[1.0, 0.0], Cmp::Le, 4.0);
/// lp.add_constraint(&[0.0, 2.0], Cmp::Le, 12.0);
/// lp.add_constraint(&[3.0, 2.0], Cmp::Le, 18.0);
/// match lp.solve() {
///     LpOutcome::Optimal(sol) => {
///         assert!((sol.objective - 36.0).abs() < 1e-9);
///         assert!((sol.x[0] - 2.0).abs() < 1e-9);
///         assert!((sol.x[1] - 6.0).abs() < 1e-9);
///     }
///     other => panic!("unexpected {other:?}"),
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Lp {
    n: usize,
    sense: Sense,
    objective: Vec<f64>,
    rows: Vec<(Vec<f64>, Cmp, f64)>,
}

/// An optimal solution to an [`Lp`] or MIP.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LpSolution {
    /// Optimal variable assignment.
    pub x: Vec<f64>,
    /// Objective value in the problem's own sense.
    pub objective: f64,
}

/// Result of solving a linear program.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LpOutcome {
    /// An optimum was found.
    Optimal(LpSolution),
    /// No feasible point exists.
    Infeasible,
    /// The objective is unbounded in the optimization direction.
    Unbounded,
}

impl Lp {
    /// Creates an LP with `n` non-negative variables and a zero objective.
    pub fn new(n: usize, sense: Sense) -> Self {
        Lp {
            n,
            sense,
            objective: vec![0.0; n],
            rows: Vec::new(),
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.n
    }

    /// Optimization direction.
    pub fn sense(&self) -> Sense {
        self.sense
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.rows.len()
    }

    /// Sets the objective coefficients.
    ///
    /// # Panics
    ///
    /// Panics if `c.len() != n`.
    pub fn set_objective(&mut self, c: &[f64]) {
        assert_eq!(c.len(), self.n, "objective dimension mismatch");
        self.objective = c.to_vec();
    }

    /// Adds the constraint `a·x cmp b`.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != n`.
    pub fn add_constraint(&mut self, a: &[f64], cmp: Cmp, b: f64) {
        assert_eq!(a.len(), self.n, "constraint dimension mismatch");
        self.rows.push((a.to_vec(), cmp, b));
    }

    /// Solves the program with two-phase primal simplex.
    pub fn solve(&self) -> LpOutcome {
        // Internally always maximize.
        let obj: Vec<f64> = match self.sense {
            Sense::Maximize => self.objective.clone(),
            Sense::Minimize => self.objective.iter().map(|c| -c).collect(),
        };
        match Tableau::solve(self.n, &obj, &self.rows) {
            TableauOutcome::Optimal { x, value } => {
                let objective = match self.sense {
                    Sense::Maximize => value,
                    Sense::Minimize => -value,
                };
                LpOutcome::Optimal(LpSolution { x, objective })
            }
            TableauOutcome::Infeasible => LpOutcome::Infeasible,
            TableauOutcome::Unbounded => LpOutcome::Unbounded,
        }
    }
}

const EPS: f64 = 1e-9;

enum TableauOutcome {
    Optimal { x: Vec<f64>, value: f64 },
    Infeasible,
    Unbounded,
}

/// Dense simplex tableau with explicit objective row.
struct Tableau {
    /// `m` constraint rows, each of length `cols + 1` (last entry = rhs).
    rows: Vec<Vec<f64>>,
    /// Objective row (reduced costs), length `cols + 1`; last entry = -z.
    z: Vec<f64>,
    /// Basic variable of each row.
    basis: Vec<usize>,
    /// Total columns excluding rhs.
    cols: usize,
    /// Columns `>= artificial_start` are artificial.
    artificial_start: usize,
}

impl Tableau {
    fn solve(n: usize, obj: &[f64], constraints: &[(Vec<f64>, Cmp, f64)]) -> TableauOutcome {
        let m = constraints.len();
        // Count structural extras.
        let mut n_slack = 0;
        for (_, cmp, _) in constraints {
            match cmp {
                Cmp::Le | Cmp::Ge => n_slack += 1,
                Cmp::Eq => {}
            }
        }
        let artificial_start = n + n_slack;
        // Worst case one artificial per row.
        let cols = artificial_start + m;

        let mut rows = vec![vec![0.0; cols + 1]; m];
        let mut basis = vec![usize::MAX; m];
        let mut slack_idx = n;
        let mut art_idx = artificial_start;
        let mut n_art = 0;

        for (i, (a, cmp, b)) in constraints.iter().enumerate() {
            let (mut a, mut b, mut cmp) = (a.clone(), *b, *cmp);
            if b < 0.0 {
                for v in &mut a {
                    *v = -*v;
                }
                b = -b;
                cmp = match cmp {
                    Cmp::Le => Cmp::Ge,
                    Cmp::Ge => Cmp::Le,
                    Cmp::Eq => Cmp::Eq,
                };
            }
            rows[i][..n].copy_from_slice(&a);
            rows[i][cols] = b;
            match cmp {
                Cmp::Le => {
                    rows[i][slack_idx] = 1.0;
                    basis[i] = slack_idx;
                    slack_idx += 1;
                }
                Cmp::Ge => {
                    rows[i][slack_idx] = -1.0;
                    slack_idx += 1;
                    rows[i][art_idx] = 1.0;
                    basis[i] = art_idx;
                    art_idx += 1;
                    n_art += 1;
                }
                Cmp::Eq => {
                    rows[i][art_idx] = 1.0;
                    basis[i] = art_idx;
                    art_idx += 1;
                    n_art += 1;
                }
            }
        }

        let mut t = Tableau {
            rows,
            z: vec![0.0; cols + 1],
            basis,
            cols,
            artificial_start,
        };

        // Phase 1: maximize -(sum of artificials). With objective
        // coefficient -1 per artificial, the reduced-cost row starts at +1
        // in artificial columns; pricing out each basic artificial
        // subtracts its row, leaving z[cols] = -Σb (the phase-1 value).
        if n_art > 0 {
            for c in artificial_start..cols {
                t.z[c] = 1.0;
            }
            // Price out basic artificials.
            for r in 0..m {
                if t.basis[r] >= artificial_start {
                    let row = t.rows[r].clone();
                    for c in 0..=cols {
                        t.z[c] -= row[c];
                    }
                }
            }
            if !t.run() {
                return TableauOutcome::Unbounded; // cannot happen in phase 1
            }
            if t.z[cols] < -1e-7 {
                return TableauOutcome::Infeasible;
            }
            t.evict_artificials();
        }

        // Phase 2: original objective. Reduced costs: z row = c, then price
        // out the current basis.
        t.z = vec![0.0; cols + 1];
        for (c, &v) in obj.iter().enumerate() {
            t.z[c] = -v;
        }
        for r in 0..t.rows.len() {
            let b = t.basis[r];
            let coeff = -t.z[b];
            if coeff.abs() > EPS {
                let row = t.rows[r].clone();
                for c in 0..=cols {
                    t.z[c] += coeff * row[c];
                }
            }
        }
        if !t.run() {
            return TableauOutcome::Unbounded;
        }

        let mut x = vec![0.0; n];
        for (r, &b) in t.basis.iter().enumerate() {
            if b < n {
                x[b] = t.rows[r][cols];
            }
        }
        TableauOutcome::Optimal {
            x,
            value: t.z[cols],
        }
    }

    /// Runs simplex iterations until optimal (`true`) or unbounded
    /// (`false`). During phase 2 artificial columns are never entered.
    fn run(&mut self) -> bool {
        let max_iters = 50_000 + 100 * (self.cols + self.rows.len());
        for _ in 0..max_iters {
            // Entering column: Bland's rule — smallest index with negative
            // reduced cost (we store z as reduced costs where optimal means
            // all >= 0).
            let entering = (0..self.cols).find(|&c| self.z[c] < -EPS);
            let Some(e) = entering else {
                return true;
            };
            // Ratio test, Bland tie-break by basis variable index.
            let mut leave: Option<(usize, f64)> = None;
            for r in 0..self.rows.len() {
                let a = self.rows[r][e];
                if a > EPS {
                    let ratio = self.rows[r][self.cols] / a;
                    match leave {
                        Some((lr, lratio)) => {
                            if ratio < lratio - EPS
                                || (ratio < lratio + EPS && self.basis[r] < self.basis[lr])
                            {
                                leave = Some((r, ratio));
                            }
                        }
                        None => leave = Some((r, ratio)),
                    }
                }
            }
            let Some((lr, _)) = leave else {
                return false; // unbounded
            };
            self.pivot(lr, e);
        }
        // Iteration budget exhausted; treat as optimal-so-far. With Bland's
        // rule this is unreachable for the problem sizes we solve.
        true
    }

    fn pivot(&mut self, r: usize, c: usize) {
        let cols = self.cols;
        let p = self.rows[r][c];
        debug_assert!(p.abs() > EPS, "pivot on ~zero element");
        for v in &mut self.rows[r] {
            *v /= p;
        }
        let pivot_row = self.rows[r].clone();
        for rr in 0..self.rows.len() {
            if rr == r {
                continue;
            }
            let f = self.rows[rr][c];
            if f.abs() > EPS {
                for cc in 0..=cols {
                    self.rows[rr][cc] -= f * pivot_row[cc];
                }
            }
        }
        let f = self.z[c];
        if f.abs() > EPS {
            for cc in 0..=cols {
                self.z[cc] -= f * pivot_row[cc];
            }
        }
        self.basis[r] = c;
    }

    /// After phase 1, pivot remaining basic artificials out of the basis.
    fn evict_artificials(&mut self) {
        for r in 0..self.rows.len() {
            if self.basis[r] < self.artificial_start {
                continue;
            }
            // Find a non-artificial column with a nonzero entry.
            let c = (0..self.artificial_start).find(|&c| self.rows[r][c].abs() > EPS);
            if let Some(c) = c {
                self.pivot(r, c);
            }
            // Otherwise the row is redundant (all-zero over structurals);
            // its artificial stays basic at value 0, harmlessly.
        }
        // Forbid artificials from re-entering by zeroing their columns.
        for row in &mut self.rows {
            for c in self.artificial_start..self.cols {
                row[c] = 0.0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn optimal(lp: &Lp) -> LpSolution {
        match lp.solve() {
            LpOutcome::Optimal(s) => s,
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn classic_max_problem() {
        let mut lp = Lp::new(2, Sense::Maximize);
        lp.set_objective(&[3.0, 2.0]);
        lp.add_constraint(&[2.0, 1.0], Cmp::Le, 18.0);
        lp.add_constraint(&[2.0, 3.0], Cmp::Le, 42.0);
        lp.add_constraint(&[3.0, 1.0], Cmp::Le, 24.0);
        let s = optimal(&lp);
        assert!((s.objective - 33.0).abs() < 1e-7);
        assert!((s.x[0] - 3.0).abs() < 1e-7);
        assert!((s.x[1] - 12.0).abs() < 1e-7);
    }

    #[test]
    fn minimize_with_ge_constraints() {
        // min 2x + 3y s.t. x + y >= 10, x >= 2, y >= 3
        let mut lp = Lp::new(2, Sense::Minimize);
        lp.set_objective(&[2.0, 3.0]);
        lp.add_constraint(&[1.0, 1.0], Cmp::Ge, 10.0);
        lp.add_constraint(&[1.0, 0.0], Cmp::Ge, 2.0);
        lp.add_constraint(&[0.0, 1.0], Cmp::Ge, 3.0);
        let s = optimal(&lp);
        // Cheapest: push x as high as possible: x=7, y=3 → 14+9=23.
        assert!((s.objective - 23.0).abs() < 1e-7);
    }

    #[test]
    fn equality_constraints() {
        // max x + y s.t. x + y == 5, x <= 3
        let mut lp = Lp::new(2, Sense::Maximize);
        lp.set_objective(&[1.0, 1.0]);
        lp.add_constraint(&[1.0, 1.0], Cmp::Eq, 5.0);
        lp.add_constraint(&[1.0, 0.0], Cmp::Le, 3.0);
        let s = optimal(&lp);
        assert!((s.objective - 5.0).abs() < 1e-7);
    }

    #[test]
    fn detects_infeasible() {
        let mut lp = Lp::new(1, Sense::Maximize);
        lp.set_objective(&[1.0]);
        lp.add_constraint(&[1.0], Cmp::Ge, 5.0);
        lp.add_constraint(&[1.0], Cmp::Le, 3.0);
        assert_eq!(lp.solve(), LpOutcome::Infeasible);
    }

    #[test]
    fn detects_unbounded() {
        let mut lp = Lp::new(2, Sense::Maximize);
        lp.set_objective(&[1.0, 0.0]);
        lp.add_constraint(&[0.0, 1.0], Cmp::Le, 1.0);
        assert_eq!(lp.solve(), LpOutcome::Unbounded);
    }

    #[test]
    fn negative_rhs_normalized() {
        // x - y <= -2  (i.e. y >= x + 2), max x + y with y <= 5.
        let mut lp = Lp::new(2, Sense::Maximize);
        lp.set_objective(&[1.0, 1.0]);
        lp.add_constraint(&[1.0, -1.0], Cmp::Le, -2.0);
        lp.add_constraint(&[0.0, 1.0], Cmp::Le, 5.0);
        let s = optimal(&lp);
        assert!((s.objective - 8.0).abs() < 1e-7); // x=3, y=5
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Classic degenerate vertex; Bland's rule must not cycle.
        let mut lp = Lp::new(4, Sense::Maximize);
        lp.set_objective(&[0.75, -150.0, 0.02, -6.0]);
        lp.add_constraint(&[0.25, -60.0, -0.04, 9.0], Cmp::Le, 0.0);
        lp.add_constraint(&[0.5, -90.0, -0.02, 3.0], Cmp::Le, 0.0);
        lp.add_constraint(&[0.0, 0.0, 1.0, 0.0], Cmp::Le, 1.0);
        let s = optimal(&lp);
        assert!((s.objective - 0.05).abs() < 1e-6);
    }

    #[test]
    fn redundant_equality_rows_ok() {
        let mut lp = Lp::new(2, Sense::Maximize);
        lp.set_objective(&[1.0, 2.0]);
        lp.add_constraint(&[1.0, 1.0], Cmp::Eq, 4.0);
        lp.add_constraint(&[2.0, 2.0], Cmp::Eq, 8.0); // redundant
        let s = optimal(&lp);
        assert!((s.objective - 8.0).abs() < 1e-7); // x=0, y=4
    }

    #[test]
    fn zero_objective_feasibility_check() {
        let mut lp = Lp::new(2, Sense::Maximize);
        lp.add_constraint(&[1.0, 1.0], Cmp::Ge, 1.0);
        lp.add_constraint(&[1.0, 1.0], Cmp::Le, 2.0);
        let s = optimal(&lp);
        assert_eq!(s.objective, 0.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_dimension_rejected() {
        let mut lp = Lp::new(2, Sense::Maximize);
        lp.add_constraint(&[1.0], Cmp::Le, 1.0);
    }
}
