//! # mobius-mapping
//!
//! Stage-to-GPU mapping for the Mobius pipeline (§3.3 of the paper).
//!
//! After partitioning, every pipeline stage must be placed on a GPU. The
//! naive **sequential mapping** (`stage j → GPU j mod N`) is oblivious to
//! the PCIe topology: adjacent stages often land on GPUs sharing a CPU root
//! complex, so their prefetches contend. **Cross mapping** finds the
//! round permutation minimizing the paper's contention degree
//!
//! ```text
//! contention(i, j) = shared(i, j) / |i − j|          (Eq. 12)
//! degree = Σ_{i<j} contention(stage_i, stage_j)      (Eq. 13)
//! ```
//!
//! where `shared(i, j)` is the size of the root-complex group when the two
//! stages' GPUs share one, else 0.
//!
//! Most of the `N!` round permutations repeat a score, which depends only
//! on the root complex each round position lands under. [`Mapping::cross`]
//! therefore runs an exact branch-and-bound over those label sequences,
//! which stays within a fixed node budget on servers of up to 16 GPUs.
//!
//! # Example
//!
//! ```
//! use mobius_mapping::{Mapping, MappingAlgo};
//! use mobius_topology::{GpuSpec, Topology};
//!
//! let topo = Topology::commodity(GpuSpec::rtx3090ti(), &[2, 2]);
//! let seq = Mapping::sequential(8, 4);
//! let cross = Mapping::cross(&topo, 8);
//! assert!(cross.contention_degree(&topo) <= seq.contention_degree(&topo));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod search;

use mobius_topology::Topology;

/// Which mapping policy to use (selected by the `mobius` facade crate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MappingAlgo {
    /// `stage j → GPU j mod N`, the policy of existing pipeline systems.
    Sequential,
    /// The paper's topology-aware placement (§3.3).
    Cross,
}

/// An assignment of pipeline stages to GPUs.
///
/// Invariants: every stage has a GPU; the stages of one GPU are executed in
/// ascending stage order (the Mobius pipeline requirement), which any
/// assignment satisfies since execution order is derived from stage ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mapping {
    gpu_of: Vec<usize>,
    num_gpus: usize,
}

impl Mapping {
    /// Builds a mapping from an explicit stage → GPU table.
    ///
    /// # Panics
    ///
    /// Panics if the table is empty, a GPU index is out of range, or some
    /// GPU has no stage while others have several (an idle GPU is a bug in
    /// the caller's partition).
    pub fn from_table(gpu_of: Vec<usize>, num_gpus: usize) -> Self {
        assert!(!gpu_of.is_empty(), "mapping must cover at least one stage");
        assert!(num_gpus > 0, "need at least one GPU");
        assert!(
            gpu_of.iter().all(|&g| g < num_gpus),
            "GPU index out of range"
        );
        if gpu_of.len() >= num_gpus {
            let mut used = vec![false; num_gpus];
            for &g in &gpu_of {
                used[g] = true;
            }
            assert!(
                used.into_iter().all(|u| u),
                "a GPU was left without any stage"
            );
        }
        Mapping { gpu_of, num_gpus }
    }

    /// The sequential mapping of GPipe-style systems: `stage j → j mod N`.
    pub fn sequential(num_stages: usize, num_gpus: usize) -> Self {
        assert!(num_stages > 0 && num_gpus > 0);
        Self::from_round_permutation(&(0..num_gpus).collect::<Vec<_>>(), num_stages)
    }

    /// A round-based mapping: within every round of `N` consecutive stages,
    /// stage positions follow `perm`.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..N`.
    fn from_round_permutation(perm: &[usize], num_stages: usize) -> Self {
        let n = perm.len();
        assert!(n > 0 && num_stages > 0);
        let mut seen = vec![false; n];
        for &g in perm {
            assert!(g < n && !seen[g], "not a permutation");
            seen[g] = true;
        }
        let gpu_of = (0..num_stages).map(|j| perm[j % n]).collect();
        Mapping {
            gpu_of,
            num_gpus: n,
        }
    }

    /// The paper's cross mapping: the round permutation minimizing the
    /// contention degree (Eq. 13), found by an exact branch-and-bound over
    /// root-complex label sequences. Ties resolve to the first minimum in
    /// swap order (each position in turn takes every later GPU, starting
    /// from the sequential mapping), so the result is deterministic. That
    /// is not always the lexicographically smallest optimum: on 2+1 with 4
    /// stages it is `[2, 1, 0]`, not `[2, 0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `num_stages == 0`.
    pub fn cross(topo: &Topology, num_stages: usize) -> Self {
        assert!(num_stages > 0, "need at least one stage");
        Self::from_round_permutation(&search::cross_permutation(topo, num_stages), num_stages)
    }

    /// Builds a mapping with the given policy.
    pub fn with_algo(algo: MappingAlgo, topo: &Topology, num_stages: usize) -> Self {
        match algo {
            MappingAlgo::Sequential => Self::sequential(num_stages, topo.num_gpus()),
            MappingAlgo::Cross => Self::cross(topo, num_stages),
        }
    }

    /// GPU of stage `j`.
    pub fn gpu_of(&self, stage: usize) -> usize {
        self.gpu_of[stage]
    }

    /// Number of stages mapped.
    pub fn num_stages(&self) -> usize {
        self.gpu_of.len()
    }

    /// Number of GPUs.
    pub fn num_gpus(&self) -> usize {
        self.num_gpus
    }

    /// Stages of GPU `g` in execution (ascending) order.
    pub fn stages_of(&self, g: usize) -> Vec<usize> {
        (0..self.gpu_of.len())
            .filter(|&j| self.gpu_of[j] == g)
            .collect()
    }

    /// The contention degree of Eq. 13 under `topo`.
    pub fn contention_degree(&self, topo: &Topology) -> f64 {
        let s = self.gpu_of.len();
        let mut degree = 0.0;
        for i in 0..s {
            for j in (i + 1)..s {
                let shared = topo.shared(self.gpu_of[i], self.gpu_of[j]);
                if shared > 0 {
                    degree += shared as f64 / (j - i) as f64;
                }
            }
        }
        degree
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobius_topology::GpuSpec;

    fn topo22() -> Topology {
        Topology::commodity(GpuSpec::rtx3090ti(), &[2, 2])
    }

    #[test]
    fn sequential_round_robins() {
        let m = Mapping::sequential(8, 4);
        assert_eq!(
            (0..8).map(|j| m.gpu_of(j)).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 0, 1, 2, 3]
        );
        assert_eq!(m.stages_of(1), vec![1, 5]);
    }

    #[test]
    fn cross_beats_sequential_on_2_plus_2() {
        let topo = topo22();
        let seq = Mapping::sequential(8, 4);
        let cross = Mapping::cross(&topo, 8);
        assert!(
            cross.contention_degree(&topo) < seq.contention_degree(&topo),
            "cross {} vs sequential {}",
            cross.contention_degree(&topo),
            seq.contention_degree(&topo)
        );
    }

    #[test]
    fn cross_alternates_root_complexes_on_2_plus_2() {
        let topo = topo22();
        let cross = Mapping::cross(&topo, 8);
        // Adjacent stages should sit under different root complexes.
        for j in 0..7 {
            assert!(
                !topo.same_root_complex(cross.gpu_of(j), cross.gpu_of(j + 1)),
                "stages {j} and {} share a root complex",
                j + 1
            );
        }
    }

    #[test]
    fn cross_on_topo4_cannot_help_but_is_valid() {
        // All GPUs share one root complex: every mapping has equal degree.
        let topo = Topology::commodity(GpuSpec::rtx3090ti(), &[4]);
        let seq = Mapping::sequential(8, 4);
        let cross = Mapping::cross(&topo, 8);
        assert_eq!(cross.contention_degree(&topo), seq.contention_degree(&topo));
    }

    #[test]
    fn cross_handles_uneven_groups() {
        let topo = Topology::commodity(GpuSpec::rtx3090ti(), &[1, 3]);
        let cross = Mapping::cross(&topo, 12);
        let seq = Mapping::sequential(12, 4);
        assert!(cross.contention_degree(&topo) <= seq.contention_degree(&topo));
    }

    #[test]
    fn every_gpu_gets_stages() {
        let m = Mapping::cross(&topo22(), 8);
        for g in 0..4 {
            assert!(!m.stages_of(g).is_empty(), "gpu {g} idle");
        }
    }

    #[test]
    fn with_algo_dispatches() {
        let topo = topo22();
        assert_eq!(
            Mapping::with_algo(MappingAlgo::Sequential, &topo, 8),
            Mapping::sequential(8, 4)
        );
        assert_eq!(
            Mapping::with_algo(MappingAlgo::Cross, &topo, 8),
            Mapping::cross(&topo, 8)
        );
    }

    #[test]
    #[should_panic(expected = "without any stage")]
    fn idle_gpu_rejected() {
        Mapping::from_table(vec![0, 0, 1, 1], 3);
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn bad_permutation_rejected() {
        Mapping::from_round_permutation(&[0, 0, 1, 2], 8);
    }

    #[test]
    fn cross_ties_go_to_the_first_minimum_in_swap_order() {
        let topo = Topology::commodity(GpuSpec::rtx3090ti(), &[2, 1]);
        let m = Mapping::cross(&topo, 4);
        let degree = |p: &[usize]| Mapping::from_round_permutation(p, 4).contention_degree(&topo);
        assert_eq!(degree(&[2, 1, 0]), degree(&[2, 0, 1]));
        assert_eq!(m, Mapping::from_round_permutation(&[2, 1, 0], 4));
    }

    #[test]
    fn contention_degree_matches_hand_computation() {
        // 4 stages on 4 GPUs, Topo 2+2, sequential: pairs sharing a RC are
        // (0,1) and (2,3), gap 1, shared = 2 → degree = 2 + 2 = 4.
        let topo = topo22();
        let m = Mapping::sequential(4, 4);
        assert_eq!(m.contention_degree(&topo), 4.0);
        // Cross (0,2,1,3): sharing pairs (0,1)→gap 2, (2,3)→gap 2 → 2.
        let cross = Mapping::from_round_permutation(&[0, 2, 1, 3], 4);
        assert_eq!(cross.contention_degree(&topo), 2.0);
    }

    /// Calls `f` on every permutation of `items[k..]` by swap recursion: each
    /// position in turn takes every later item, the tail is permuted, and the
    /// swap is undone. The first permutation visited is `items` itself.
    fn permute<F: FnMut(&[usize])>(items: &mut Vec<usize>, k: usize, f: &mut F) {
        if k == items.len() {
            f(items);
            return;
        }
        for i in k..items.len() {
            items.swap(k, i);
            permute(items, k + 1, f);
            items.swap(k, i);
        }
    }

    /// The exhaustive search `cross` replaced: every round permutation in
    /// swap order, the first strict minimum kept. `shared` is tabulated
    /// only to speed up debug builds; every term and its order are as
    /// before.
    fn cross_by_enumeration(topo: &Topology, num_stages: usize) -> Mapping {
        let n = topo.num_gpus();
        let mut w = vec![vec![0.0f64; n]; n];
        for i in 0..num_stages {
            for j in (i + 1)..num_stages {
                w[i % n][j % n] += 1.0 / (j - i) as f64;
            }
        }
        let shared: Vec<Vec<f64>> = (0..n)
            .map(|g| (0..n).map(|h| topo.shared(g, h) as f64).collect())
            .collect();
        let mut best: Option<(f64, Vec<usize>)> = None;
        let mut perm: Vec<usize> = (0..n).collect();
        permute(&mut perm, 0, &mut |p| {
            let mut degree = 0.0;
            for (a, row) in w.iter().enumerate() {
                let from = &shared[p[a]];
                for (b, &wab) in row.iter().enumerate() {
                    if wab > 0.0 {
                        degree += from[p[b]] * wab;
                    }
                }
            }
            match &best {
                Some((d, _)) if *d <= degree => {}
                _ => best = Some((degree, p.to_vec())),
            }
        });
        let (_, perm) = best.expect("at least one permutation");
        Mapping::from_round_permutation(&perm, num_stages)
    }

    /// Root-complex group sizes of the composition of `n` GPUs whose
    /// `i`-th bit marks a group boundary after GPU `i + 1`.
    fn composition(n: usize, cuts: u32) -> Vec<usize> {
        let mut groups = vec![1];
        for i in 0..n - 1 {
            if cuts >> i & 1 == 1 {
                groups.push(1);
            } else {
                *groups.last_mut().unwrap() += 1;
            }
        }
        groups
    }

    fn assert_matches_enumerator(groups: &[usize], stage_counts: &[usize]) {
        let topo = Topology::commodity(GpuSpec::rtx3090ti(), groups);
        for &s in stage_counts {
            assert_eq!(
                Mapping::cross(&topo, s),
                cross_by_enumeration(&topo, s),
                "{groups:?} with {s} stages"
            );
        }
    }

    #[test]
    fn cross_matches_the_enumerator_up_to_7_gpus() {
        for n in 1..=7 {
            let counts = [
                1,
                n.max(2) - 1,
                n,
                n + 1,
                2 * n - 1,
                2 * n,
                3 * n + 1,
                4 * n,
            ];
            for cuts in 0..1u32 << (n - 1) {
                assert_matches_enumerator(&composition(n, cuts), &counts);
            }
        }
    }

    #[test]
    fn cross_matches_the_enumerator_on_8_and_9_gpus() {
        let counts = [8, 9, 15, 16, 25, 32];
        assert_matches_enumerator(&[4, 4], &counts);
        // A seeded sample of the 128 compositions of 8 GPUs.
        let mut x: u32 = 0x9e37_79b9;
        for _ in 0..7 {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            assert_matches_enumerator(&composition(8, x & 0x7f), &counts);
        }
        assert_matches_enumerator(&[3, 3, 3], &[9, 19]);
        assert_matches_enumerator(&[4, 5], &[9, 19]);
    }
}
