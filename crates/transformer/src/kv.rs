//! Per-request key/value caches for autoregressive decoding.
//!
//! During decode a request re-uses the keys and values of every token it has
//! already processed instead of recomputing them, so each new token costs one
//! row of projections plus attention over the cached history. [`LayerKv`]
//! holds one attention layer's cache; [`KvCache`] stacks one `LayerKv` per
//! transformer block and is owned by a single request for its lifetime.
//!
//! The caches store exact `f32` values, which is what makes incremental
//! decoding bit-identical to the full causal forward pass (see
//! [`crate::attention::MultiHeadAttention::decode_step`]). What the cache
//! *costs* on HyFlexPIM hardware — SLC versus MLC cells, programming energy,
//! append latency — is modeled separately in `hyflex-pim`'s mapping layer.

use crate::error::ModelError;
use crate::Result;
use hyflex_tensor::Matrix;

/// Cached keys and values of one attention layer for one request.
///
/// Both matrices are `[cached_tokens, dim]` with all heads concatenated
/// column-wise, matching the projection layout in
/// [`crate::attention::MultiHeadAttention`]. Empty caches hold no matrix at
/// all (the tensor crate rejects zero-row matrices).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerKv {
    k: Option<Matrix>,
    v: Option<Matrix>,
}

impl LayerKv {
    /// Creates an empty cache.
    pub fn new() -> Self {
        LayerKv::default()
    }

    /// Number of cached tokens.
    pub fn len(&self) -> usize {
        self.k.as_ref().map_or(0, Matrix::rows)
    }

    /// Whether nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cached key rows, if any.
    pub fn keys(&self) -> Option<&Matrix> {
        self.k.as_ref()
    }

    /// The cached value rows, if any.
    pub fn values(&self) -> Option<&Matrix> {
        self.v.as_ref()
    }

    /// Appends freshly projected key/value rows (one row per new token).
    ///
    /// # Errors
    ///
    /// Returns an error if the key and value shapes disagree with each other
    /// or with the already-cached rows.
    pub fn append(&mut self, k_new: &Matrix, v_new: &Matrix) -> Result<()> {
        if k_new.shape() != v_new.shape() {
            return Err(ModelError::InvalidInput(format!(
                "KV append shapes disagree: keys {:?}, values {:?}",
                k_new.shape(),
                v_new.shape()
            )));
        }
        match (&mut self.k, &mut self.v) {
            (Some(k), Some(v)) => {
                *k = k.vstack(k_new)?;
                *v = v.vstack(v_new)?;
            }
            _ => {
                self.k = Some(k_new.clone());
                self.v = Some(v_new.clone());
            }
        }
        Ok(())
    }
}

/// Per-request KV cache: one [`LayerKv`] per transformer block, growing by
/// one token row per layer at every decode step.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KvCache {
    layers: Vec<LayerKv>,
}

impl KvCache {
    /// Creates an empty cache for a model with `num_layers` blocks.
    pub fn new(num_layers: usize) -> Self {
        KvCache {
            layers: vec![LayerKv::new(); num_layers],
        }
    }

    /// Number of per-layer caches.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Number of cached tokens (all layers stay in lockstep).
    pub fn len(&self) -> usize {
        self.layers.first().map_or(0, LayerKv::len)
    }

    /// Whether nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The per-layer caches.
    pub fn layers(&self) -> &[LayerKv] {
        &self.layers
    }

    /// Mutable access to the per-layer caches (the decode path appends
    /// through this).
    pub fn layers_mut(&mut self) -> &mut [LayerKv] {
        &mut self.layers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_grows_the_cache() {
        let mut kv = LayerKv::new();
        assert!(kv.is_empty());
        assert!(kv.keys().is_none());
        let row = Matrix::filled(1, 4, 1.0);
        kv.append(&row, &row).unwrap();
        kv.append(&row, &row).unwrap();
        assert_eq!(kv.len(), 2);
        assert_eq!(kv.keys().unwrap().shape(), (2, 4));
        assert_eq!(kv.values().unwrap().shape(), (2, 4));
    }

    #[test]
    fn append_rejects_mismatched_shapes() {
        let mut kv = LayerKv::new();
        let k = Matrix::filled(1, 4, 1.0);
        let v = Matrix::filled(1, 3, 1.0);
        assert!(kv.append(&k, &v).is_err());
        kv.append(&k, &k).unwrap();
        // Wrong width versus the cached rows.
        let wide = Matrix::filled(1, 5, 1.0);
        assert!(kv.append(&wide, &wide).is_err());
    }

    #[test]
    fn cache_tracks_layers_in_lockstep() {
        let mut cache = KvCache::new(3);
        assert_eq!(cache.num_layers(), 3);
        assert_eq!(cache.len(), 0);
        let row = Matrix::filled(1, 4, 0.5);
        for layer in cache.layers_mut() {
            layer.append(&row, &row).unwrap();
        }
        assert_eq!(cache.len(), 1);
        assert!(!cache.is_empty());
    }
}
