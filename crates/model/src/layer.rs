//! Per-layer parameter, activation, and FLOP accounting.
//!
//! Sizing follows standard mixed-precision training practice
//! (Micikevicius et al., the paper's [30]): FP16 parameters and gradients
//! live on the GPU, while the FP32 master copy and Adam moments live in
//! DRAM (as in Mobius and ZeRO-Offload).

/// Bytes per FP16 scalar.
pub const FP16: u64 = 2;
/// Bytes per FP32 scalar.
pub const FP32: u64 = 4;
/// Bytes of DRAM-resident optimizer state per parameter:
/// FP32 master + Adam first and second moments.
pub const OPTIMIZER_BYTES_PER_PARAM: u64 = 3 * FP32;

/// One layer of a GPT-like model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerKind {
    /// Token + position embedding.
    Embedding {
        /// Vocabulary size.
        vocab: usize,
        /// Hidden dimension.
        hidden: usize,
        /// Maximum sequence length (for the positional table).
        seq: usize,
    },
    /// A full transformer block: LN → attention → LN → MLP.
    TransformerBlock {
        /// Hidden dimension.
        hidden: usize,
        /// Attention heads.
        heads: usize,
        /// Sequence length.
        seq: usize,
    },
    /// A LLaMA-style block: RMSNorm → attention → RMSNorm → SwiGLU MLP.
    SwigluBlock {
        /// Hidden dimension.
        hidden: usize,
        /// Attention heads.
        heads: usize,
        /// MLP intermediate width (LLaMA uses ≈ 8/3 × hidden, rounded).
        intermediate: usize,
        /// Sequence length.
        seq: usize,
    },
    /// Final layer-norm + (untied) language-model head.
    LmHead {
        /// Vocabulary size.
        vocab: usize,
        /// Hidden dimension.
        hidden: usize,
        /// Sequence length.
        seq: usize,
    },
}

impl LayerKind {
    /// Number of trainable parameters.
    pub fn param_count(&self) -> u64 {
        match *self {
            LayerKind::Embedding { vocab, hidden, seq } => (vocab + seq) as u64 * hidden as u64,
            LayerKind::TransformerBlock { hidden, .. } => {
                let h = hidden as u64;
                // qkv: 3h²+3h, proj: h²+h, mlp: 8h²+5h, two LNs: 4h
                12 * h * h + 13 * h
            }
            LayerKind::SwigluBlock {
                hidden,
                intermediate,
                ..
            } => {
                let h = hidden as u64;
                let i = intermediate as u64;
                // q,k,v,o: 4h² (no biases); gate/up/down: 3·h·i; RMS: 2h.
                4 * h * h + 3 * h * i + 2 * h
            }
            LayerKind::LmHead { vocab, hidden, .. } => {
                vocab as u64 * hidden as u64 + 2 * hidden as u64
            }
        }
    }

    /// Bytes of FP16 parameters resident on the GPU while computing.
    pub fn param_bytes(&self) -> u64 {
        self.param_count() * FP16
    }

    /// Bytes of FP16 gradients produced in backward.
    pub fn grad_bytes(&self) -> u64 {
        self.param_count() * FP16
    }

    /// Bytes of DRAM-resident optimizer state (FP32 master + Adam moments).
    pub fn optimizer_bytes(&self) -> u64 {
        self.param_count() * OPTIMIZER_BYTES_PER_PARAM
    }

    /// Bytes of the layer's *output* activation for one microbatch of size
    /// `mbs` — what flows to the next pipeline stage, and what activation
    /// checkpointing stores.
    pub fn output_act_bytes(&self, mbs: usize) -> u64 {
        match *self {
            LayerKind::Embedding { hidden, seq, .. }
            | LayerKind::TransformerBlock { hidden, seq, .. }
            | LayerKind::SwigluBlock { hidden, seq, .. } => (mbs * seq * hidden) as u64 * FP16,
            // Logits: with loss fused we only surface the scalar loss and
            // the (recomputable) logits are workspace, not a boundary
            // activation.
            LayerKind::LmHead { .. } => 64,
        }
    }

    /// Peak transient workspace while computing this layer on one
    /// microbatch (intermediate tensors, attention scores, logits).
    pub fn workspace_bytes(&self, mbs: usize) -> u64 {
        let b = mbs as u64;
        match *self {
            LayerKind::Embedding { hidden, seq, .. } => b * (seq * hidden) as u64 * FP16 * 2,
            LayerKind::TransformerBlock { hidden, heads, seq } => {
                let token_bytes = b * (seq * hidden) as u64 * FP16;
                let scores = b * (heads * seq * seq) as u64 * FP16;
                // ~12 live intermediate tensors of token size plus two score
                // tensors (pre/post softmax).
                12 * token_bytes + 2 * scores
            }
            LayerKind::SwigluBlock {
                hidden,
                heads,
                intermediate,
                seq,
            } => {
                let token_bytes = b * (seq * hidden) as u64 * FP16;
                let wide = b * (seq * intermediate) as u64 * FP16;
                let scores = b * (heads * seq * seq) as u64 * FP16;
                // Attention intermediates plus the gate/up pair at the
                // wider MLP dimension.
                8 * token_bytes + 3 * wide + 2 * scores
            }
            LayerKind::LmHead { vocab, seq, .. } => {
                // fp32 logits + softmax for numerically stable loss.
                2 * b * (seq * vocab) as u64 * FP32
            }
        }
    }

    /// Forward FLOPs for one microbatch of size `mbs`.
    pub fn flops_fwd(&self, mbs: usize) -> f64 {
        let b = mbs as f64;
        match *self {
            LayerKind::Embedding { hidden, seq, .. } => 2.0 * b * (seq * hidden) as f64,
            LayerKind::TransformerBlock { hidden, seq, .. } => {
                let (h, s) = (hidden as f64, seq as f64);
                // 2 FLOPs per multiply-add; 12h² matmul params per token,
                // plus the two s×s attention matmuls.
                24.0 * h * h * b * s + 4.0 * b * s * s * h
            }
            LayerKind::SwigluBlock {
                hidden,
                intermediate,
                seq,
                ..
            } => {
                let (h, i, s) = (hidden as f64, intermediate as f64, seq as f64);
                // 2 FLOPs per mult-add over (4h² + 3hi) matmul params per
                // token, plus the attention matmuls.
                (8.0 * h * h + 6.0 * h * i) * b * s + 4.0 * b * s * s * h
            }
            LayerKind::LmHead { vocab, hidden, seq } => {
                2.0 * b * (seq * hidden) as f64 * vocab as f64
            }
        }
    }

    /// Backward FLOPs for one microbatch. `recompute` adds one forward pass
    /// (activation checkpointing, the paper's \[17\]).
    pub fn flops_bwd(&self, mbs: usize, recompute: bool) -> f64 {
        let f = self.flops_fwd(mbs);
        if recompute {
            3.0 * f
        } else {
            2.0 * f
        }
    }

    /// Whether two layers are *similar* in the paper's §3.2 sense: identical
    /// shape, hence identical profile. Used to compress profiling.
    pub fn similar(&self, other: &LayerKind) -> bool {
        self == other
    }

    /// Short display label.
    pub fn label(&self) -> &'static str {
        match self {
            LayerKind::Embedding { .. } => "embed",
            LayerKind::TransformerBlock { .. } => "block",
            LayerKind::SwigluBlock { .. } => "swiglu",
            LayerKind::LmHead { .. } => "head",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(hidden: usize, seq: usize) -> LayerKind {
        LayerKind::TransformerBlock {
            hidden,
            heads: hidden / 64,
            seq,
        }
    }

    #[test]
    fn block_param_count_matches_formula() {
        let h = 4096u64;
        assert_eq!(block(4096, 512).param_count(), 12 * h * h + 13 * h);
    }

    #[test]
    fn embedding_counts_tokens_and_positions() {
        let e = LayerKind::Embedding {
            vocab: 1000,
            hidden: 64,
            seq: 128,
        };
        assert_eq!(e.param_count(), (1000 + 128) * 64);
    }

    #[test]
    fn bytes_scale_with_precision_constants() {
        let l = block(2048, 512);
        assert_eq!(l.param_bytes(), l.param_count() * 2);
        assert_eq!(l.grad_bytes(), l.param_bytes());
        assert_eq!(l.optimizer_bytes(), l.param_count() * 12);
    }

    #[test]
    fn activation_scales_linearly_with_microbatch() {
        let l = block(2048, 512);
        assert_eq!(l.output_act_bytes(4), 4 * l.output_act_bytes(1));
    }

    #[test]
    fn backward_is_heavier_with_recompute() {
        let l = block(2048, 512);
        assert_eq!(l.flops_bwd(1, false), 2.0 * l.flops_fwd(1));
        assert_eq!(l.flops_bwd(1, true), 3.0 * l.flops_fwd(1));
    }

    #[test]
    fn similarity_is_shape_equality() {
        assert!(block(2048, 512).similar(&block(2048, 512)));
        assert!(!block(2048, 512).similar(&block(4096, 512)));
    }

    #[test]
    fn swiglu_block_accounting() {
        let b = LayerKind::SwigluBlock {
            hidden: 4096,
            heads: 32,
            intermediate: 11008,
            seq: 512,
        };
        let h = 4096u64;
        let i = 11008u64;
        assert_eq!(b.param_count(), 4 * h * h + 3 * h * i + 2 * h);
        // A LLaMA-7B block is ~202M params.
        let millions = b.param_count() as f64 / 1e6;
        assert!((190.0..210.0).contains(&millions), "{millions}M");
        assert!(b.flops_fwd(1) > 0.0);
        assert_eq!(b.output_act_bytes(2), 2 * 512 * 4096 * 2);
    }

    #[test]
    fn flops_fwd_dominated_by_matmuls() {
        let l = block(4096, 512);
        let expected = 24.0 * 4096.0f64.powi(2) * 512.0 + 4.0 * 512.0f64.powi(2) * 4096.0;
        assert_eq!(l.flops_fwd(1), expected);
    }
}
