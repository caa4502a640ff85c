//! Exact branch-and-bound over the round permutations of [`Mapping::cross`].
//!
//! The contention degree of a round permutation depends only on its
//! *label sequence*: which root complex each round position lands under.
//! GPUs under one root complex are interchangeable, and so are root
//! complexes of equal size. The search walks the permutations in the swap
//! order of the plain enumerator (position 0 first, each position taking
//! every later item in turn) but expands, at each position,
//!
//! - only the first GPU of each root complex, so every label sequence is
//!   reached once, at its first permutation in swap order;
//! - only the first *fresh* root complex of each size (one no earlier
//!   position uses), because a later one roots a relabelled copy of an
//!   already-searched subtree with bit-identical scores;
//! - only children whose admissible lower bound does not exceed the
//!   incumbent by more than [`PRUNE_SLACK`].
//!
//! Leaves are scored by the enumerator's own `O(N²)` loop, in the same
//! order, and a leaf replaces the best only when strictly lower, so the
//! winner is the enumerator's: the first minimum in swap order.
//!
//! [`Mapping::cross`]: crate::Mapping::cross

use mobius_topology::Topology;

/// Search nodes a cross mapping may expand before it returns its best leaf
/// unproved. A fixed count, not a clock, keeps the result a function of
/// the topology and stage count alone. A backstop only: every partition
/// of up to 16 GPUs proves in about a tenth of it.
const MAPPING_NODE_BUDGET: u64 = 4_000_000;

/// Relative slack of the bound test. A child is pruned only when its bound
/// exceeds the incumbent by this fraction, so float reordering between the
/// incremental bound and the exact leaf score can never prune the winner.
const PRUNE_SLACK: f64 = 1e-9;

/// The round permutation of `topo`'s GPUs minimising the contention
/// degree of `num_stages` stages; see the module docs.
pub(crate) fn cross_permutation(topo: &Topology, num_stages: usize) -> Vec<usize> {
    let (_, perm) = run(topo, num_stages, MAPPING_NODE_BUDGET)
        .best
        .expect("the search reaches at least one leaf");
    perm
}

fn run(topo: &Topology, num_stages: usize, budget: u64) -> Search<'_> {
    let mut s = Search::new(topo, num_stages, budget);
    s.seed();
    s.descend(0, 0.0);
    s
}

struct Search<'a> {
    topo: &'a Topology,
    n: usize,
    /// Positions `min(S, N)..N` hold no stage, so their labels never
    /// change a score: the first arrangement of them is the only leaf.
    live: usize,
    /// `w[a·n + b]`: Σ of `1/(j−i)` over stage pairs `i < j` with
    /// `i ≡ a`, `j ≡ b (mod N)`. The degree is Σ `shared · w`.
    w: Vec<f64>,
    /// `pair[a·n + b] = w[a][b] + w[b][a]` for `a ≠ b`, and `w[a][a]` on
    /// the diagonal: the weight of positions `a` and `b` sharing a label.
    pair: Vec<f64>,
    /// GPUs under each label.
    size: Vec<usize>,
    /// Positions each label has still to fill.
    rem: Vec<usize>,
    /// `acc[u·L + l]`: Σ `pair[a][u]` over placed positions `a` labelled `l`.
    acc: Vec<f64>,
    /// Old `acc` entries, restored when a placement is undone.
    undo: Vec<f64>,
    /// `spread[(k·n + u)·(n+1) + r]`: half the sum of the `r − 1` smallest
    /// `pair[u][v]` over `v ≥ k`, `v ≠ u` — a floor on `u`'s share of the
    /// pairs among `r` same-label positions at or after `k`.
    spread: Vec<f64>,
    /// The GPU arrangement of the swap recursion.
    items: Vec<usize>,
    /// Scratch for the bound: open position × label reduced costs.
    reduced: Vec<f64>,
    /// Scratch for the bound: one label's column of `reduced`.
    col: Vec<f64>,
    /// Pruning threshold: the lower of the seed's and the best leaf's degree.
    cap: f64,
    best: Option<(f64, Vec<usize>)>,
    nodes: u64,
    budget: u64,
    /// Set when the node budget stopped the search before it proved.
    exhausted: bool,
}

impl<'a> Search<'a> {
    fn new(topo: &'a Topology, num_stages: usize, budget: u64) -> Self {
        let n = topo.num_gpus();
        let mut w = vec![0.0f64; n * n];
        for i in 0..num_stages {
            for j in (i + 1)..num_stages {
                w[(i % n) * n + j % n] += 1.0 / (j - i) as f64;
            }
        }
        let mut pair = vec![0.0f64; n * n];
        for a in 0..n {
            for b in 0..n {
                pair[a * n + b] = if a == b {
                    w[a * n + a]
                } else {
                    w[a * n + b] + w[b * n + a]
                };
            }
        }
        let mut spread = vec![0.0f64; n * n * (n + 1)];
        let mut row = Vec::with_capacity(n);
        for k in 0..n {
            for u in k..n {
                row.clear();
                row.extend((k..n).filter(|&v| v != u).map(|v| pair[u * n + v]));
                row.sort_by(f64::total_cmp);
                let base = (k * n + u) * (n + 1);
                let mut sum = 0.0;
                for r in 1..=n {
                    spread[base + r] = 0.5 * sum;
                    if let Some(&x) = row.get(r - 1) {
                        sum += x;
                    }
                }
            }
        }
        let size = topo.groups().to_vec();
        let labels = size.len();
        Search {
            topo,
            n,
            live: num_stages.min(n),
            w,
            pair,
            rem: size.clone(),
            size,
            acc: vec![0.0; n * labels],
            undo: Vec::new(),
            spread,
            items: (0..n).collect(),
            reduced: Vec::with_capacity(n * labels),
            col: Vec::with_capacity(n),
            cap: f64::INFINITY,
            best: None,
            nodes: 0,
            budget,
            exhausted: false,
        }
    }

    /// The enumerator's leaf score, term for term.
    fn degree(&self, p: &[usize]) -> f64 {
        let n = self.n;
        let mut degree = 0.0;
        for a in 0..n {
            for b in 0..n {
                let w = self.w[a * n + b];
                if w > 0.0 {
                    degree += self.topo.shared(p[a], p[b]) as f64 * w;
                }
            }
        }
        degree
    }

    /// Whether labels `a` and `b` root subtrees with bit-identical scores
    /// at the next position: the same label, or two unused ones of a size.
    fn interchangeable(&self, a: usize, b: usize) -> bool {
        let unused = |l: usize| self.rem[l] == self.size[l];
        a == b || (self.size[a] == self.size[b] && unused(a) && unused(b))
    }

    /// Places label `l` at position `k`; returns what it adds to the
    /// placed positions' degree.
    fn place(&mut self, k: usize, l: usize) -> f64 {
        let (n, labels) = (self.n, self.size.len());
        let added = self.size[l] as f64 * (self.pair[k * n + k] + self.acc[k * labels + l]);
        self.rem[l] -= 1;
        for u in (k + 1)..n {
            let a = &mut self.acc[u * labels + l];
            self.undo.push(*a);
            *a += self.pair[k * n + u];
        }
        added
    }

    fn unplace(&mut self, k: usize, l: usize) {
        let labels = self.size.len();
        for u in ((k + 1)..self.n).rev() {
            self.acc[u * labels + l] = self.undo.pop().expect("placed before");
        }
        self.rem[l] += 1;
    }

    /// Lower bound on what positions `from..N` add to the degree, given
    /// the placed prefix: each open position `u` under label `l` costs at
    /// least `size_l · (pair[u][u] + acc[u][l] + spread(u, rem_l))`, and
    /// each label fills exactly `rem_l` open positions. The bound is the
    /// Lagrangian relaxation of that assignment with each position's
    /// cheapest label as its multiplier: Σ row minima plus, per label, the
    /// `rem_l` smallest reduced costs. Interchangeable labels have equal
    /// columns and are taken together.
    fn open_bound(&mut self, from: usize) -> f64 {
        let (n, labels) = (self.n, self.size.len());
        let mut reduced = std::mem::take(&mut self.reduced);
        reduced.clear();
        let mut total = 0.0;
        for u in from..n {
            let row = reduced.len();
            let mut min = f64::INFINITY;
            for l in 0..labels {
                let r = self.rem[l];
                let cost = if r == 0 {
                    f64::INFINITY
                } else {
                    let spread = self.spread[(from * n + u) * (n + 1) + r];
                    self.size[l] as f64 * (self.pair[u * n + u] + self.acc[u * labels + l] + spread)
                };
                min = min.min(cost);
                reduced.push(cost);
            }
            for c in &mut reduced[row..] {
                *c -= min;
            }
            total += min;
        }
        let mut col = std::mem::take(&mut self.col);
        for l in 0..labels {
            let r = self.rem[l];
            if r == 0 || (0..l).any(|m| self.interchangeable(m, l)) {
                continue;
            }
            let take = r * (l..labels).filter(|&m| self.interchangeable(m, l)).count();
            col.clear();
            col.extend(reduced.iter().skip(l).step_by(labels));
            if take < col.len() {
                col.select_nth_unstable_by(take, f64::total_cmp);
            }
            total += col[..take].iter().sum::<f64>();
        }
        self.col = col;
        self.reduced = reduced;
        total
    }

    /// Sets the pruning cap from a greedy dive: at each position, the child
    /// with the lowest bound. The dive's leaf only tightens pruning; the
    /// answer is always a leaf of [`Search::descend`].
    fn seed(&mut self) {
        let mut placed = Vec::with_capacity(self.n);
        let mut partial = 0.0;
        for k in 0..self.n {
            let mut pick: Option<(f64, usize, f64)> = None;
            for l in 0..self.size.len() {
                if self.rem[l] == 0 {
                    continue;
                }
                let added = self.place(k, l);
                let bound = partial + added + self.open_bound(k + 1);
                self.unplace(k, l);
                if pick.is_none_or(|(b, _, _)| bound < b) {
                    pick = Some((bound, l, added));
                }
            }
            let (_, l, added) = pick.expect("a label has room");
            self.place(k, l);
            placed.push(l);
            partial += added;
        }
        for (k, &l) in placed.iter().enumerate().rev() {
            self.unplace(k, l);
        }
        // GPUs are numbered root complex by root complex, so handing out
        // each label's GPUs in order reproduces the label sequence.
        let mut next: Vec<usize> = (0..self.size.len())
            .map(|l| self.size[..l].iter().sum())
            .collect();
        let perm: Vec<usize> = placed
            .iter()
            .map(|&l| {
                next[l] += 1;
                next[l] - 1
            })
            .collect();
        self.cap = self.degree(&perm);
    }

    fn descend(&mut self, k: usize, partial: f64) {
        let n = self.n;
        if k == self.live {
            let degree = self.degree(&self.items);
            if self.best.as_ref().is_none_or(|(d, _)| degree < *d) {
                self.best = Some((degree, self.items.clone()));
                self.cap = self.cap.min(degree);
            }
            return;
        }
        for i in k..n {
            if self.exhausted {
                return;
            }
            let label = |g: usize| self.topo.root_complex_of(g);
            let l = label(self.items[i]);
            if (k..i).any(|j| self.interchangeable(label(self.items[j]), l)) {
                continue;
            }
            let child = partial + self.place(k, l);
            let bound = child + self.open_bound(k + 1);
            if bound <= self.cap + PRUNE_SLACK * self.cap {
                self.nodes += 1;
                if self.nodes >= self.budget && self.best.is_some() {
                    self.exhausted = true;
                }
                self.items.swap(k, i);
                self.descend(k + 1, child);
                self.items.swap(k, i);
            }
            self.unplace(k, l);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobius_topology::GpuSpec;

    /// Asserts the search proves `groups` at N, 2N and 4N stages within
    /// the given node counts.
    fn assert_proves_within(groups: &[usize], max_nodes: [u64; 3]) {
        let topo = Topology::commodity(GpuSpec::rtx3090ti(), groups);
        let n = topo.num_gpus();
        for (s, max) in [n, 2 * n, 4 * n].into_iter().zip(max_nodes) {
            let out = run(&topo, s, MAPPING_NODE_BUDGET);
            assert!(
                !out.exhausted,
                "{groups:?} with {s} stages hit the node budget"
            );
            assert!(
                out.nodes <= max,
                "{groups:?} with {s} stages took {} nodes, pinned at {max}",
                out.nodes
            );
        }
    }

    #[test]
    fn cross_proves_every_pinned_shape_within_its_node_count() {
        assert_proves_within(&[11], [11, 11, 11]);
        assert_proves_within(&[12], [12, 12, 12]);
        assert_proves_within(&[16], [16, 16, 16]);
        assert_proves_within(&[5, 5], [19, 19, 20]);
        assert_proves_within(&[8, 8], [386, 422, 431]);
        assert_proves_within(&[3, 3, 3, 2], [86, 99, 124]);
        assert_proves_within(&[2; 6], [39, 15, 63]);
        assert_proves_within(&[4; 4], [1_185, 1_830, 1_819]);
        assert_proves_within(&[2; 8], [172, 317, 350]);
        assert_proves_within(&[1; 16], [16, 16, 16]);
    }

    #[test]
    fn cross_proves_mixed_root_complex_sizes_within_its_node_count() {
        assert_proves_within(&[1, 2, 3, 4, 6], [105_791, 220_684, 264_104]);
    }

    #[test]
    fn a_spent_budget_returns_its_best_leaf_unproved() {
        let topo = Topology::commodity(GpuSpec::rtx3090ti(), &[4; 4]);
        let cut = run(&topo, 16, 10);
        assert!(cut.exhausted && cut.nodes < 1_185);
        let (degree, perm) = cut.best.expect("the search runs on to its first leaf");
        let mut gpus = perm.clone();
        gpus.sort_unstable();
        assert_eq!(gpus, (0..16).collect::<Vec<_>>());
        let full = run(&topo, 16, MAPPING_NODE_BUDGET);
        assert!(!full.exhausted);
        assert!(degree >= full.best.expect("proved").0);
    }
}
