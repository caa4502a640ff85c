//! # mobius-mip
//!
//! Pipeline-partition search for the Mobius (ASPLOS '23) reproduction. The
//! paper states its partition program (§3.2) with boolean variables
//! `B_{i,j}` and solves it with Gurobi. A pipeline stage is a contiguous
//! range of layers, so that program is equivalent to choosing a contiguous
//! segmentation of the layer sequence, which this crate searches exactly:
//!
//! * [`SegmentSearch`] — exact branch-and-bound over contiguous
//!   segmentations with a pluggable objective; this is what the Mobius
//!   partitioner drives with its full pipeline-schedule evaluator.
//! * [`chain_partition_dp`] — the classic min-max chain partition by
//!   dynamic programming (GPipe's balanced partitioner).
//!
//! # Example
//!
//! ```
//! use mobius_mip::{chain_partition_dp, SegmentObjective, SegmentSearch};
//!
//! let weights = [4.0, 2.0, 2.0, 4.0];
//! let (sizes, cost) = chain_partition_dp(&weights, 2);
//! assert_eq!(cost, 6.0);
//! assert_eq!(sizes, vec![2, 2]);
//!
//! // The same bottleneck objective, searched over every segmentation into
//! // at most two stages, reaches the same optimum.
//! struct Bottleneck<'a>(&'a [f64]);
//! impl SegmentObjective for Bottleneck<'_> {
//!     fn cost(&self, sizes: &[usize]) -> Option<f64> {
//!         let mut start = 0;
//!         let mut worst: f64 = 0.0;
//!         for &s in sizes {
//!             worst = worst.max(self.0[start..start + s].iter().sum());
//!             start += s;
//!         }
//!         Some(worst)
//!     }
//! }
//! let best = SegmentSearch::new(4).max_stages(2).solve(&Bottleneck(&weights)).unwrap();
//! assert_eq!(best.cost, cost);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod partition;

pub use partition::{
    chain_partition_dp, SearchStats, SegmentObjective, SegmentResult, SegmentSearch,
};
