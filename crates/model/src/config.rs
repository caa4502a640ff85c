//! Model configurations, including the paper's Table 3 presets.

/// Hyper-parameters of a GPT-like decoder-only transformer.
///
/// The four large presets reproduce Table 3 of the paper; the sequence
/// length is fixed to 512 everywhere, as in §4.
///
/// # Examples
///
/// ```
/// use mobius_model::GptConfig;
///
/// let cfg = GptConfig::gpt_15b();
/// assert_eq!(cfg.hidden, 5120);
/// assert_eq!(cfg.num_layers, 40);
/// assert_eq!(cfg.default_microbatch, 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GptConfig {
    /// Display name ("3B", "8B", …).
    pub name: String,
    /// Vocabulary size.
    pub vocab: usize,
    /// Hidden dimension.
    pub hidden: usize,
    /// Attention heads.
    pub heads: usize,
    /// Number of transformer blocks.
    pub num_layers: usize,
    /// Sequence length.
    pub seq_len: usize,
    /// Microbatch size used by the paper for this model (Table 3).
    pub default_microbatch: usize,
}

impl GptConfig {
    /// A fully custom configuration.
    ///
    /// # Panics
    ///
    /// Panics unless `hidden` is divisible by `heads` and all dimensions are
    /// positive.
    pub fn new(
        name: impl Into<String>,
        vocab: usize,
        hidden: usize,
        heads: usize,
        num_layers: usize,
        seq_len: usize,
        default_microbatch: usize,
    ) -> Self {
        assert!(vocab > 0 && hidden > 0 && heads > 0 && num_layers > 0 && seq_len > 0);
        assert!(default_microbatch > 0, "microbatch must be positive");
        // Note: the paper's own 51B row (hidden 9216, 80 heads) is not
        // evenly divisible, so divisibility is not enforced; `head_dim`
        // truncates.
        assert!(heads <= hidden, "more heads than hidden units");
        GptConfig {
            name: name.into(),
            vocab,
            hidden,
            heads,
            num_layers,
            seq_len,
            default_microbatch,
        }
    }

    /// Table 3, row 1: the 3-billion-parameter model.
    pub fn gpt_3b() -> Self {
        Self::new("3B", DEFAULT_VOCAB, 2048, 32, 64, DEFAULT_SEQ, 2)
    }

    /// Table 3, row 2: the 8-billion-parameter model.
    pub fn gpt_8b() -> Self {
        Self::new("8B", DEFAULT_VOCAB, 4096, 32, 40, DEFAULT_SEQ, 2)
    }

    /// Table 3, row 3: the 15-billion-parameter model.
    pub fn gpt_15b() -> Self {
        Self::new("15B", DEFAULT_VOCAB, 5120, 64, 40, DEFAULT_SEQ, 1)
    }

    /// Table 3, row 4: the 51-billion-parameter model. A transformer block
    /// with hidden 9216 is the largest block one 24 GB GPU can hold while
    /// training (§4).
    pub fn gpt_51b() -> Self {
        Self::new("51B", DEFAULT_VOCAB, 9216, 80, 50, DEFAULT_SEQ, 1)
    }

    /// GPT-2 small, used for the convergence experiment (Figure 13).
    pub fn gpt2_small() -> Self {
        Self::new("GPT-2", DEFAULT_VOCAB, 768, 12, 12, 1024, 4)
    }

    /// All four Table 3 presets, smallest first.
    pub fn table3() -> Vec<GptConfig> {
        vec![
            Self::gpt_3b(),
            Self::gpt_8b(),
            Self::gpt_15b(),
            Self::gpt_51b(),
        ]
    }

    /// Head dimension (`hidden / heads`).
    pub fn head_dim(&self) -> usize {
        self.hidden / self.heads
    }
}

/// GPT-2 BPE vocabulary, padded to a multiple of 128 as is customary.
pub const DEFAULT_VOCAB: usize = 50_304;

/// The LLaMA/LLaMA-2 tokenizer vocabulary.
pub const LLAMA_VOCAB: usize = 32_000;

/// The paper fixes sequence length to 512 for all performance experiments.
pub const DEFAULT_SEQ: usize = 512;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_matches_paper() {
        let t = GptConfig::table3();
        let rows: Vec<(usize, usize, usize, usize)> = t
            .iter()
            .map(|c| (c.heads, c.hidden, c.num_layers, c.default_microbatch))
            .collect();
        assert_eq!(
            rows,
            vec![
                (32, 2048, 64, 2),
                (32, 4096, 40, 2),
                (64, 5120, 40, 1),
                (80, 9216, 50, 1),
            ]
        );
        assert!(t.iter().all(|c| c.seq_len == 512));
    }

    #[test]
    fn head_dim() {
        assert_eq!(GptConfig::gpt_8b().head_dim(), 128);
    }

    #[test]
    #[should_panic(expected = "more heads than hidden")]
    fn too_many_heads_rejected() {
        GptConfig::new("bad", 100, 4, 8, 1, 8, 1);
    }
}
