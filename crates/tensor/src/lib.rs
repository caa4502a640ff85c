//! # mobius-tensor
//!
//! A from-scratch CPU deep-learning substrate for the Mobius reproduction's
//! convergence experiment (paper Figure 13): dense tensors, reverse-mode
//! autograd, a tiny GPT with causal attention, Adam, a deterministic RNG,
//! and a synthetic Markov corpus standing in for WikiText-2.
//!
//! # Example
//!
//! ```
//! use mobius_tensor::{train_loss_curve, Corpus, ScheduleOrder, TrainConfig};
//!
//! let corpus = Corpus::synthetic(16, 5_000, 1);
//! let cfg = TrainConfig {
//!     steps: 5,
//!     ..TrainConfig::default()
//! };
//! let curve = train_loss_curve(&corpus, &cfg, ScheduleOrder::Mobius);
//! assert_eq!(curve.len(), 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Indexed loops are intentional in the dense numeric kernels: the index
// couples multiple arrays and the iterator forms obscure the math.
#![allow(clippy::needless_range_loop)]

mod adam;
mod autograd;
mod data;
mod nn;
mod rng;
mod tensor;
mod train;

pub use adam::Adam;
pub use autograd::{Tape, Var};
pub use data::Corpus;
pub use nn::{TinyGpt, TinyGptConfig};
pub use rng::Rng;
pub use tensor::Tensor;
pub use train::{curve_gap, train, train_loss_curve, ScheduleOrder, TrainConfig};
