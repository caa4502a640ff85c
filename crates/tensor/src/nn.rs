//! A tiny GPT: embeddings, pre-norm causal self-attention blocks, GELU
//! MLPs, and a cross-entropy language-model head — enough to run the
//! paper's convergence experiment (Figure 13) end to end.

use crate::{Rng, Tape, Tensor, Var};

/// Hyper-parameters of the tiny GPT.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TinyGptConfig {
    /// Vocabulary size.
    pub vocab: usize,
    /// Model width.
    pub d_model: usize,
    /// Attention heads (must divide `d_model`).
    pub heads: usize,
    /// Number of transformer blocks.
    pub layers: usize,
    /// Maximum sequence length.
    pub max_seq: usize,
}

impl TinyGptConfig {
    /// A config small enough to train on the CPU in seconds.
    pub fn tiny(vocab: usize) -> Self {
        TinyGptConfig {
            vocab,
            d_model: 32,
            heads: 4,
            layers: 2,
            max_seq: 64,
        }
    }
}

/// Tensors per transformer block:
/// ln1 (g, b), wq, wk, wv, wo, ln2 (g, b), w1, b1, w2, b2.
#[cfg(test)]
const BLOCK_TENSORS: usize = 12;

/// A single-head GPT implemented over the autograd [`Tape`].
///
/// # Examples
///
/// ```
/// use mobius_tensor::{Rng, Tape, TinyGpt, TinyGptConfig};
///
/// let mut rng = Rng::new(0);
/// let model = TinyGpt::new(TinyGptConfig::tiny(16), &mut rng);
/// let mut tape = Tape::new();
/// let (loss, _) = model.loss(&mut tape, &[1, 2, 3, 4, 5]);
/// assert!(tape.value(loss).at(0, 0) > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct TinyGpt {
    cfg: TinyGptConfig,
    params: Vec<Tensor>,
}

impl TinyGpt {
    /// Initializes parameters with scaled Gaussians.
    ///
    /// # Panics
    ///
    /// Panics unless `heads` divides `d_model`.
    pub fn new(cfg: TinyGptConfig, rng: &mut Rng) -> Self {
        assert!(
            cfg.heads > 0 && cfg.d_model.is_multiple_of(cfg.heads),
            "heads must divide d_model"
        );
        let d = cfg.d_model;
        let std = 0.08;
        let mut params = Vec::new();
        params.push(Tensor::randn(cfg.vocab, d, std, rng)); // wte
        params.push(Tensor::randn(cfg.max_seq, d, std, rng)); // wpe
        for _ in 0..cfg.layers {
            params.push(Tensor::from_fn(1, d, |_, _| 1.0)); // ln1 gain
            params.push(Tensor::zeros(1, d)); // ln1 bias
            params.push(Tensor::randn(d, d, std, rng)); // wq
            params.push(Tensor::randn(d, d, std, rng)); // wk
            params.push(Tensor::randn(d, d, std, rng)); // wv
            params.push(Tensor::randn(d, d, std, rng)); // wo
            params.push(Tensor::from_fn(1, d, |_, _| 1.0)); // ln2 gain
            params.push(Tensor::zeros(1, d)); // ln2 bias
            params.push(Tensor::randn(d, 4 * d, std, rng)); // w1
            params.push(Tensor::zeros(1, 4 * d)); // b1
            params.push(Tensor::randn(4 * d, d, std, rng)); // w2
            params.push(Tensor::zeros(1, d)); // b2
        }
        params.push(Tensor::from_fn(1, d, |_, _| 1.0)); // lnf gain
        params.push(Tensor::zeros(1, d)); // lnf bias
        params.push(Tensor::randn(d, cfg.vocab, std, rng)); // head
        TinyGpt { cfg, params }
    }

    /// The configuration.
    #[cfg(test)]
    fn config(&self) -> &TinyGptConfig {
        &self.cfg
    }

    /// Immutable access to parameter tensors (for checkpoint comparisons).
    pub fn params(&self) -> &[Tensor] {
        &self.params
    }

    /// Mutable access for the optimizer.
    pub fn params_mut(&mut self) -> &mut [Tensor] {
        &mut self.params
    }

    /// Builds the forward graph over `inputs` and returns the logits node
    /// (one row per position) plus the leaf vars aligned with
    /// [`TinyGpt::params`].
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty or longer than `max_seq`.
    fn logits(&self, tape: &mut Tape, inputs: &[usize]) -> (Var, Vec<Var>) {
        assert!(!inputs.is_empty(), "need at least one input token");
        assert!(inputs.len() <= self.cfg.max_seq, "sequence exceeds max_seq");
        let n = inputs.len();
        let d = self.cfg.d_model;

        let vars: Vec<Var> = self.params.iter().map(|t| tape.leaf(t.clone())).collect();
        let mut pi = 0usize;
        let mut next = || {
            let v = vars[pi];
            pi += 1;
            v
        };

        let wte = next();
        let wpe = next();
        let tok_emb = tape.embedding(wte, inputs);
        let positions: Vec<usize> = (0..n).collect();
        let pos_emb = tape.embedding(wpe, &positions);
        let mut x = tape.add(tok_emb, pos_emb);

        let head_dim = d / self.cfg.heads;
        let scale = 1.0 / (head_dim as f32).sqrt();
        for _ in 0..self.cfg.layers {
            let ln1g = next();
            let ln1b = next();
            let wq = next();
            let wk = next();
            let wv = next();
            let wo = next();
            let ln2g = next();
            let ln2b = next();
            let w1 = next();
            let b1 = next();
            let w2 = next();
            let b2 = next();

            let h = tape.layer_norm(x, ln1g, ln1b);
            let q = tape.matmul(h, wq);
            let k = tape.matmul(h, wk);
            let v = tape.matmul(h, wv);
            // Multi-head attention: slice the projections per head,
            // attend independently, concatenate, then project.
            let mut ctx_heads = Vec::with_capacity(self.cfg.heads);
            for head in 0..self.cfg.heads {
                let off = head * head_dim;
                let qh = tape.slice_cols(q, off, head_dim);
                let kh = tape.slice_cols(k, off, head_dim);
                let vh = tape.slice_cols(v, off, head_dim);
                let scores = tape.matmul_nt(qh, kh);
                let scaled = tape.scale(scores, scale);
                let probs = tape.causal_softmax(scaled);
                ctx_heads.push(tape.matmul(probs, vh));
            }
            let ctx = tape.concat_cols(&ctx_heads);
            let attn = tape.matmul(ctx, wo);
            x = tape.add(x, attn);

            let h2 = tape.layer_norm(x, ln2g, ln2b);
            let up = tape.matmul(h2, w1);
            let up_b = tape.add_bias(up, b1);
            let act = tape.gelu(up_b);
            let down = tape.matmul(act, w2);
            let down_b = tape.add_bias(down, b2);
            x = tape.add(x, down_b);
        }

        let lnfg = next();
        let lnfb = next();
        let head = next();
        let xf = tape.layer_norm(x, lnfg, lnfb);
        let logits = tape.matmul(xf, head);
        (logits, vars)
    }

    /// Builds the forward graph for next-token prediction on `tokens` and
    /// returns the scalar loss node plus the leaf vars aligned with
    /// [`TinyGpt::params`].
    ///
    /// # Panics
    ///
    /// Panics if `tokens` is shorter than 2 or longer than `max_seq + 1`.
    pub fn loss(&self, tape: &mut Tape, tokens: &[usize]) -> (Var, Vec<Var>) {
        assert!(tokens.len() >= 2, "need at least one transition");
        let inputs = &tokens[..tokens.len() - 1];
        let targets = &tokens[1..];
        let (logits, vars) = self.logits(tape, inputs);
        let loss = tape.cross_entropy(logits, targets);
        (loss, vars)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> TinyGpt {
        let mut rng = Rng::new(9);
        TinyGpt::new(TinyGptConfig::tiny(16), &mut rng)
    }

    #[test]
    fn tensor_layout_matches_constant() {
        let m = model();
        assert_eq!(m.params().len(), 2 + m.config().layers * BLOCK_TENSORS + 3);
    }

    #[test]
    fn loss_is_near_uniform_at_init() {
        let m = model();
        let mut tape = Tape::new();
        let (loss, _) = m.loss(&mut tape, &[1, 2, 3, 4, 5, 6, 7, 8]);
        let l = tape.value(loss).at(0, 0);
        let uniform = (16.0f32).ln();
        assert!(
            (l - uniform).abs() < 0.5,
            "initial loss {l} should be near ln(V) = {uniform}"
        );
    }

    #[test]
    fn gradients_flow_to_every_tensor() {
        let m = model();
        let mut tape = Tape::new();
        let (loss, vars) = m.loss(&mut tape, &[3, 1, 4, 1, 5, 9, 2, 6]);
        tape.backward(loss);
        for (i, v) in vars.iter().enumerate() {
            let g = tape.grad(*v);
            // The position table only gets grads for used rows; everything
            // must be finite, and most tensors must be nonzero.
            assert!(g.data().iter().all(|x| x.is_finite()), "tensor {i}");
        }
        // Specifically the token embedding and head must receive signal.
        assert!(tape.grad(vars[0]).norm() > 0.0);
        assert!(tape.grad(*vars.last().unwrap()).norm() > 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut r1 = Rng::new(5);
        let mut r2 = Rng::new(5);
        let a = TinyGpt::new(TinyGptConfig::tiny(16), &mut r1);
        let b = TinyGpt::new(TinyGptConfig::tiny(16), &mut r2);
        assert_eq!(a.params()[0], b.params()[0]);
    }

    #[test]
    fn multi_head_differs_from_single_head() {
        let mut r1 = Rng::new(3);
        let mut r2 = Rng::new(3);
        let multi = TinyGpt::new(TinyGptConfig::tiny(16), &mut r1);
        let single = TinyGpt::new(
            TinyGptConfig {
                heads: 1,
                ..TinyGptConfig::tiny(16)
            },
            &mut r2,
        );
        let tokens = [1usize, 2, 3, 4, 5, 6];
        let mut t1 = Tape::new();
        let (l1, _) = multi.loss(&mut t1, &tokens);
        let mut t2 = Tape::new();
        let (l2, _) = single.loss(&mut t2, &tokens);
        // Same parameters, different attention factorization.
        assert_ne!(t1.value(l1).at(0, 0), t2.value(l2).at(0, 0));
    }

    #[test]
    #[should_panic(expected = "heads must divide")]
    fn indivisible_heads_rejected() {
        let mut rng = Rng::new(0);
        TinyGpt::new(
            TinyGptConfig {
                heads: 5,
                ..TinyGptConfig::tiny(16)
            },
            &mut rng,
        );
    }

    #[test]
    #[should_panic(expected = "at least one transition")]
    fn too_short_sequence_rejected() {
        let m = model();
        let mut tape = Tape::new();
        m.loss(&mut tape, &[1]);
    }
}
