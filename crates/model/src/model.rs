//! A concrete model: an ordered list of layers built from a [`GptConfig`].

use serde::{Deserialize, Serialize};

use crate::{GptConfig, LayerKind, FP16, LLAMA_VOCAB};

/// A GPT-like model as an ordered sequence of layers.
///
/// # Examples
///
/// ```
/// use mobius_model::{GptConfig, Model};
///
/// let model = Model::from_config(&GptConfig::gpt_8b());
/// // embedding + 40 blocks + head
/// assert_eq!(model.num_layers(), 42);
/// let billions = model.total_params() as f64 / 1e9;
/// assert!((7.0..9.5).contains(&billions));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Model {
    config: GptConfig,
    layers: Vec<LayerKind>,
}

impl Model {
    /// Builds the layer sequence for a configuration.
    pub fn from_config(config: &GptConfig) -> Self {
        let mut layers = Vec::with_capacity(config.num_layers + 2);
        layers.push(LayerKind::Embedding {
            vocab: config.vocab,
            hidden: config.hidden,
            seq: config.seq_len,
        });
        for _ in 0..config.num_layers {
            layers.push(LayerKind::TransformerBlock {
                hidden: config.hidden,
                heads: config.heads,
                seq: config.seq_len,
            });
        }
        layers.push(LayerKind::LmHead {
            vocab: config.vocab,
            hidden: config.hidden,
            seq: config.seq_len,
        });
        Model {
            config: config.clone(),
            layers,
        }
    }

    /// The configuration this model was built from.
    pub fn config(&self) -> &GptConfig {
        &self.config
    }

    /// The layers in execution order.
    pub fn layers(&self) -> &[LayerKind] {
        &self.layers
    }

    /// Number of layers (embedding and head included).
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Total trainable parameters.
    pub fn total_params(&self) -> u64 {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// The "model size" used as the reference line in the paper's Figure 6:
    /// the FP16 parameter bytes.
    pub fn model_size_bytes(&self) -> u64 {
        self.total_params() * FP16
    }

    /// Total FP16 gradient bytes.
    pub fn total_grad_bytes(&self) -> u64 {
        self.layers.iter().map(|l| l.grad_bytes()).sum()
    }

    /// Total DRAM bytes of optimizer state.
    pub fn total_optimizer_bytes(&self) -> u64 {
        self.layers.iter().map(|l| l.optimizer_bytes()).sum()
    }

    /// Builds a LLaMA-style model (SwiGLU blocks, untied head) with the
    /// given dimensions; `intermediate` defaults to LLaMA's `≈ 8/3 ×
    /// hidden` rounded to a multiple of 256.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    fn llama(name: &str, hidden: usize, heads: usize, layers: usize, seq: usize) -> Self {
        assert!(hidden > 0 && heads > 0 && layers > 0 && seq > 0);
        let intermediate = (hidden * 8 / 3).div_ceil(256) * 256;
        let config = GptConfig::new(name, LLAMA_VOCAB, hidden, heads, layers, seq, 1);
        let mut model_layers = Vec::with_capacity(layers + 2);
        model_layers.push(LayerKind::Embedding {
            vocab: LLAMA_VOCAB,
            hidden,
            seq,
        });
        for _ in 0..layers {
            model_layers.push(LayerKind::SwigluBlock {
                hidden,
                heads,
                intermediate,
                seq,
            });
        }
        model_layers.push(LayerKind::LmHead {
            vocab: LLAMA_VOCAB,
            hidden,
            seq,
        });
        Model {
            config,
            layers: model_layers,
        }
    }

    /// LLaMA-2 7B at sequence length 512 (the paper's evaluation length).
    ///
    /// # Examples
    ///
    /// ```
    /// let m = mobius_model::Model::llama2_7b();
    /// assert!((6.3e9..7.3e9).contains(&(m.total_params() as f64)));
    /// ```
    pub fn llama2_7b() -> Self {
        Self::llama("LLaMA2-7B", 4096, 32, 32, 512)
    }

    /// LLaMA-2 13B at sequence length 512.
    pub fn llama2_13b() -> Self {
        Self::llama("LLaMA2-13B", 5120, 40, 40, 512)
    }

    /// Groups indices of *similar* layers (identical shape), in first-seen
    /// order — the paper's layer-similarity compression (§3.2): only one
    /// representative per group needs profiling.
    pub fn similarity_groups(&self) -> Vec<(LayerKind, Vec<usize>)> {
        let mut groups: Vec<(LayerKind, Vec<usize>)> = Vec::new();
        for (i, l) in self.layers.iter().enumerate() {
            match groups.iter_mut().find(|(k, _)| k.similar(l)) {
                Some((_, v)) => v.push(i),
                None => groups.push((*l, vec![i])),
            }
        }
        groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_models_land_near_their_names() {
        for (cfg, lo, hi) in [
            (GptConfig::gpt_3b(), 3.0, 3.6),
            (GptConfig::gpt_8b(), 7.5, 8.8),
            (GptConfig::gpt_15b(), 12.0, 16.0),
            (GptConfig::gpt_51b(), 50.0, 53.0),
        ] {
            let m = Model::from_config(&cfg);
            let b = m.total_params() as f64 / 1e9;
            assert!(
                (lo..hi).contains(&b),
                "{} has {b:.2}B params, expected in [{lo}, {hi})",
                cfg.name
            );
        }
    }

    #[test]
    fn layer_order_is_embed_blocks_head() {
        let m = Model::from_config(&GptConfig::gpt2_small());
        assert_eq!(m.layers().first().unwrap().label(), "embed");
        assert_eq!(m.layers().last().unwrap().label(), "head");
        assert_eq!(m.num_layers(), 14);
    }

    #[test]
    fn similarity_compresses_to_three_groups() {
        let m = Model::from_config(&GptConfig::gpt_15b());
        let groups = m.similarity_groups();
        assert_eq!(groups.len(), 3, "embed / block / head");
        let block_group = groups.iter().find(|(k, _)| k.label() == "block").unwrap();
        assert_eq!(block_group.1.len(), 40);
    }

    #[test]
    fn llama_presets_land_near_their_names() {
        let b7 = Model::llama2_7b().total_params() as f64 / 1e9;
        assert!((6.3..7.3).contains(&b7), "LLaMA2-7B has {b7:.2}B params");
        let b13 = Model::llama2_13b().total_params() as f64 / 1e9;
        assert!(
            (12.3..13.7).contains(&b13),
            "LLaMA2-13B has {b13:.2}B params"
        );
    }

    #[test]
    fn llama_similarity_compresses() {
        let groups = Model::llama2_7b().similarity_groups();
        assert_eq!(groups.len(), 3);
    }

    #[test]
    fn grad_bytes_equal_param_bytes_fp16() {
        let m = Model::from_config(&GptConfig::gpt_3b());
        assert_eq!(m.total_grad_bytes(), m.model_size_bytes());
    }

    #[test]
    fn optimizer_state_is_six_times_fp16_params() {
        let m = Model::from_config(&GptConfig::gpt_3b());
        assert_eq!(m.total_optimizer_bytes(), 6 * m.model_size_bytes());
    }
}
