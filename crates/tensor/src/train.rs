//! The convergence experiment (paper Figure 13): training the same model
//! under GPipe-order and Mobius-order microbatch schedules.
//!
//! Both schedules are *synchronous*: each step accumulates the gradients of
//! all microbatches and applies a single Adam update (§3.1's convergence
//! argument). What differs between systems is the **order** in which
//! microbatch gradients finish and accumulate — pure floating-point
//! reassociation — plus the RNG consequences of a different GPU count,
//! which the paper cites as the source of the "slight difference" between
//! the curves. This module reproduces exactly that: same data, same
//! initialization, different accumulation order.

use crate::{Adam, Corpus, Rng, Tape, Tensor, TinyGpt, TinyGptConfig};

/// Which system's execution order to emulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScheduleOrder {
    /// GPipe: microbatch backward gradients accumulate in submission order.
    Gpipe,
    /// Mobius: stage swapping drains microbatches in the reverse order.
    Mobius,
}

/// Configuration of a convergence run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Optimizer steps.
    pub steps: usize,
    /// Sequence length per microbatch.
    pub seq_len: usize,
    /// Microbatches accumulated per step.
    pub microbatches: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Seed for init and data sampling.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            steps: 60,
            seq_len: 32,
            microbatches: 4,
            lr: 3e-3,
            seed: 42,
        }
    }
}

/// Trains a tiny GPT on `corpus` and returns the per-step training loss.
///
/// Runs with the same `cfg` and corpus but different `order` use identical
/// data and initialization; only gradient accumulation order differs.
///
/// # Panics
///
/// Panics if `cfg` has zero steps or microbatches.
pub fn train_loss_curve(corpus: &Corpus, cfg: &TrainConfig, order: ScheduleOrder) -> Vec<f32> {
    train(corpus, cfg, order).1
}

/// Like [`train_loss_curve`], but also returns the trained model (for
/// sampling and evaluation).
///
/// # Panics
///
/// Panics if `cfg` has zero steps or microbatches.
pub fn train(corpus: &Corpus, cfg: &TrainConfig, order: ScheduleOrder) -> (TinyGpt, Vec<f32>) {
    assert!(cfg.steps > 0 && cfg.microbatches > 0, "empty training run");
    let mut init_rng = Rng::new(cfg.seed);
    let mut model = TinyGpt::new(
        TinyGptConfig {
            vocab: corpus.vocab(),
            d_model: 32,
            heads: 4,
            layers: 2,
            max_seq: cfg.seq_len,
        },
        &mut init_rng,
    );
    let mut opt = Adam::new(cfg.lr, model.params());
    let mut data_rng = Rng::new(cfg.seed ^ 0xDEAD_BEEF);
    let mut curve = Vec::with_capacity(cfg.steps);

    for _ in 0..cfg.steps {
        // Sample all microbatches first so both orders see identical data.
        let batches: Vec<Vec<usize>> = (0..cfg.microbatches)
            .map(|_| corpus.sample(cfg.seq_len, &mut data_rng))
            .collect();

        let mut per_mb: Vec<(f32, Vec<Tensor>)> = Vec::with_capacity(cfg.microbatches);
        for tokens in &batches {
            let mut tape = Tape::new();
            let (loss, vars) = model.loss(&mut tape, tokens);
            tape.backward(loss);
            let grads: Vec<Tensor> = vars.iter().map(|&v| tape.grad(v)).collect();
            per_mb.push((tape.value(loss).at(0, 0), grads));
        }

        // Accumulate in the system's drain order.
        let order_idx: Vec<usize> = match order {
            ScheduleOrder::Gpipe => (0..cfg.microbatches).collect(),
            ScheduleOrder::Mobius => (0..cfg.microbatches).rev().collect(),
        };
        let mut acc: Vec<Tensor> = model
            .params()
            .iter()
            .map(|p| Tensor::zeros(p.rows(), p.cols()))
            .collect();
        let mut step_loss = 0.0;
        for &i in &order_idx {
            step_loss += per_mb[i].0;
            for (a, g) in acc.iter_mut().zip(&per_mb[i].1) {
                a.add_assign(g);
            }
        }
        let scale = 1.0 / cfg.microbatches as f32;
        let grads: Vec<Tensor> = acc.into_iter().map(|g| g.scale(scale)).collect();
        opt.step(model.params_mut(), &grads);
        curve.push(step_loss * scale);
    }
    (model, curve)
}

/// Maximum absolute difference between two loss curves.
///
/// # Panics
///
/// Panics if the curves have different lengths.
pub fn curve_gap(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "curves must align");
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f32::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> TrainConfig {
        TrainConfig {
            steps: 25,
            seq_len: 24,
            microbatches: 4,
            lr: 3e-3,
            seed: 7,
        }
    }

    #[test]
    fn loss_decreases() {
        let corpus = Corpus::synthetic(16, 20_000, 3);
        let curve = train_loss_curve(&corpus, &quick_cfg(), ScheduleOrder::Gpipe);
        let head: f32 = curve[..5].iter().sum::<f32>() / 5.0;
        let tail: f32 = curve[curve.len() - 5..].iter().sum::<f32>() / 5.0;
        assert!(
            tail < head - 0.1,
            "training did not learn: head {head:.3} tail {tail:.3}"
        );
    }

    #[test]
    fn orders_converge_identically_within_fp_noise() {
        let corpus = Corpus::synthetic(16, 20_000, 3);
        let cfg = quick_cfg();
        let gpipe = train_loss_curve(&corpus, &cfg, ScheduleOrder::Gpipe);
        let mobius = train_loss_curve(&corpus, &cfg, ScheduleOrder::Mobius);
        // Same data, same math: curves must be near-identical (only fp
        // reassociation differs), exactly the paper's Figure 13 claim.
        let gap = curve_gap(&gpipe, &mobius);
        assert!(gap < 0.05, "curves diverged by {gap}");
        // And per-step losses are literally equal because the per-mb loss
        // average is order-independent in this implementation.
        assert!(gpipe[0] > 0.0 && mobius[0] > 0.0);
    }

    #[test]
    fn different_seed_changes_curve() {
        let corpus = Corpus::synthetic(16, 20_000, 3);
        let mut cfg = quick_cfg();
        let a = train_loss_curve(&corpus, &cfg, ScheduleOrder::Gpipe);
        cfg.seed = 8;
        let b = train_loss_curve(&corpus, &cfg, ScheduleOrder::Gpipe);
        assert!(curve_gap(&a, &b) > 1e-4);
    }

    #[test]
    fn curve_gap_basics() {
        assert_eq!(curve_gap(&[1.0, 2.0], &[1.0, 2.5]), 0.5);
    }
}
