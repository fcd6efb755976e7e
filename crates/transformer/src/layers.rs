//! Composable trainable layers and the [`Layer`] trait.
//!
//! Every module here implements two orthogonal interfaces:
//!
//! * [`Layer`] — `forward_saved`/`backward` over row-major `[L, dim]`
//!   activation matrices, with a [`LayerCtx`] carrying the attention mask.
//!   `forward_saved` is the only forward implementation of every matrix-in
//!   module: it returns the output together with the intermediates the
//!   forward pass computed anyway (the layer's [`Layer::Saved`] state), and
//!   `backward` reads those instead of running the forward again.
//!   [`Layer::forward`] is `forward_saved` with the saved state dropped, so
//!   inference pays nothing for it. Composition helpers ([`Residual`]) and
//!   the block/model stack in [`crate::block`]/[`crate::model`] are written
//!   against this trait, so encoder, decoder, and vision topologies assemble
//!   from the same parts.
//! * [`crate::param::ParamVisit`] — named parameter visitation, the single
//!   source of truth for optimizer stepping, gradient clearing, and
//!   parameter enumeration (`blocks.3.attn.q_proj.weight`).
//!
//! The concrete modules are [`Linear`], [`AnyLinear`] (dense or truncated-SVD
//! factored), [`LayerNorm`], [`Embedding`], plus [`MultiHeadAttention`] and
//! [`FeedForward`] in their own files.
//!
//! [`MultiHeadAttention`]: crate::attention::MultiHeadAttention
//! [`FeedForward`]: crate::ffn::FeedForward

use crate::attention::AttentionMask;
use crate::error::ModelError;
use crate::factored::{FactoredLinear, FactoredSaved};
use crate::param::{Param, ParamPath, ParamVisit};
use crate::Result;
use hyflex_tensor::activations::{self, LayerNormOutput};
use hyflex_tensor::rng::Rng;
use hyflex_tensor::{kernels, Matrix};

/// Per-pass context threaded through [`Layer::forward_saved`] and
/// [`Layer::backward`].
#[derive(Debug, Clone, Copy)]
pub struct LayerCtx {
    /// Attention masking for this pass; layers without attention ignore it.
    pub(crate) mask: AttentionMask,
}

impl LayerCtx {
    /// Bidirectional context (encoder behaviour).
    pub const fn inference() -> LayerCtx {
        LayerCtx {
            mask: AttentionMask::Bidirectional,
        }
    }

    /// Causally masked context (decoder behaviour).
    pub const fn causal() -> LayerCtx {
        LayerCtx {
            mask: AttentionMask::Causal,
        }
    }
}

/// A composable model module: forward/backward over `[L, dim]` activations
/// plus named parameter visitation (via the [`ParamVisit`] supertrait).
///
/// [`Layer::forward_saved`] runs the forward pass once and hands back, next
/// to the output, the intermediates the backward pass needs ([`Layer::Saved`]
/// — only values the forward computes anyway, moved rather than cloned).
/// [`Layer::backward`] reads them, accumulates gradients into the module's
/// parameters, and returns `dL/dx`; it never runs the forward again. The
/// caller supplies the same input and context it gave `forward_saved`.
/// Modules whose input is not an activation matrix (e.g. [`Embedding`],
/// which consumes token ids) implement only [`ParamVisit`].
pub trait Layer: ParamVisit {
    /// The forward intermediates [`Layer::backward`] reads.
    type Saved;

    /// Forward pass that also returns the intermediates for the backward
    /// pass.
    ///
    /// # Errors
    ///
    /// Returns shape errors from the underlying computation.
    fn forward_saved(&self, x: &Matrix, ctx: &LayerCtx) -> Result<(Matrix, Self::Saved)>;

    /// Forward pass: [`Layer::forward_saved`] with the saved state dropped.
    ///
    /// # Errors
    ///
    /// Returns shape errors from the underlying computation.
    fn forward(&self, x: &Matrix, ctx: &LayerCtx) -> Result<Matrix> {
        Ok(self.forward_saved(x, ctx)?.0)
    }

    /// Backward pass from the state `forward_saved(x, ctx)` returned:
    /// accumulates parameter gradients, returns `dL/dx`.
    ///
    /// # Errors
    ///
    /// Returns shape errors from the underlying computation, including a
    /// `saved` state that does not match this layer or `grad_out`.
    fn backward(
        &mut self,
        x: &Matrix,
        saved: &Self::Saved,
        grad_out: &Matrix,
        ctx: &LayerCtx,
    ) -> Result<Matrix>;
}

/// Pre-norm residual combinator: `x + inner(norm(x))`.
///
/// Both halves of a transformer block are instances of this shape — attention
/// and FFN each sit behind a layer norm inside a residual connection — so the
/// block in [`crate::block`] is literally two `Residual`s.
#[derive(Debug, Clone, PartialEq)]
pub struct Residual<L> {
    norm: LayerNorm,
    inner: L,
}

impl<L> Residual<L> {
    /// Wraps `inner` behind `norm` in a residual connection.
    pub fn new(norm: LayerNorm, inner: L) -> Self {
        Residual { norm, inner }
    }

    /// The pre-normalization layer.
    pub fn norm(&self) -> &LayerNorm {
        &self.norm
    }

    /// The wrapped module.
    pub fn inner(&self) -> &L {
        &self.inner
    }

    /// Mutable access to the wrapped module.
    pub fn inner_mut(&mut self) -> &mut L {
        &mut self.inner
    }

    /// Simultaneous mutable borrows of the norm and the wrapped module.
    pub fn parts_mut(&mut self) -> (&mut LayerNorm, &mut L) {
        (&mut self.norm, &mut self.inner)
    }
}

impl<L: ParamVisit> ParamVisit for Residual<L> {
    fn visit_params<'a>(&'a self, path: &mut ParamPath, f: &mut dyn FnMut(&str, &'a Param)) {
        path.scope("norm", |p| self.norm.visit_params(p, f));
        path.scope("inner", |p| self.inner.visit_params(p, f));
    }

    fn visit_params_mut<'a>(
        &'a mut self,
        path: &mut ParamPath,
        f: &mut dyn FnMut(&str, &'a mut Param),
    ) {
        path.scope("norm", |p| self.norm.visit_params_mut(p, f));
        path.scope("inner", |p| self.inner.visit_params_mut(p, f));
    }
}

/// What [`Residual`]'s forward pass keeps for its backward pass.
pub struct ResidualSaved<L: Layer> {
    /// The normalized input the wrapped module consumed.
    normed: Matrix,
    norm: Vec<LayerNormOutput>,
    inner: L::Saved,
}

impl<L: Layer> Layer for Residual<L> {
    type Saved = ResidualSaved<L>;

    fn forward_saved(&self, x: &Matrix, ctx: &LayerCtx) -> Result<(Matrix, Self::Saved)> {
        let (normed, norm) = self.norm.forward_saved(x, ctx)?;
        let (y, inner) = self.inner.forward_saved(&normed, ctx)?;
        let saved = ResidualSaved {
            normed,
            norm,
            inner,
        };
        Ok((x.add(&y)?, saved))
    }

    fn backward(
        &mut self,
        x: &Matrix,
        saved: &Self::Saved,
        grad_out: &Matrix,
        ctx: &LayerCtx,
    ) -> Result<Matrix> {
        let d_inner = self
            .inner
            .backward(&saved.normed, &saved.inner, grad_out, ctx)?;
        let d_norm = self.norm.backward(x, &saved.norm, &d_inner, ctx)?;
        let mut d_x = grad_out.clone();
        d_x.add_assign(&d_norm)?;
        Ok(d_x)
    }
}

/// A dense affine layer `y = x · W + b` with `W` of shape `[in, out]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Linear {
    weight: Param,
    bias: Param,
}

impl Linear {
    /// Creates a Xavier-initialized layer.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut Rng) -> Self {
        Linear {
            weight: Param::new(Matrix::xavier(in_dim, out_dim, rng)),
            bias: Param::new(Matrix::zeros(1, out_dim)),
        }
    }

    /// Creates a layer from an explicit weight matrix (bias zero).
    // hyflex-lint: allow(U2) — builds known-weight layers for the layer and factored-layer tests and the svd_pipeline bench's dense baseline
    pub fn from_weight(weight: Matrix) -> Self {
        let out = weight.cols();
        Linear {
            weight: Param::new(weight),
            bias: Param::new(Matrix::zeros(1, out)),
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.weight.value().rows()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.weight.value().cols()
    }

    /// The weight matrix.
    pub fn weight(&self) -> &Matrix {
        self.weight.value()
    }

    /// Mutable access to the weight parameter (noise injection, re-mapping).
    pub fn weight_param_mut(&mut self) -> &mut Param {
        &mut self.weight
    }

    /// The weight parameter (gradient inspection).
    pub fn weight_param(&self) -> &Param {
        &self.weight
    }
}

impl ParamVisit for Linear {
    fn visit_params<'a>(&'a self, path: &mut ParamPath, f: &mut dyn FnMut(&str, &'a Param)) {
        f(&path.leaf("weight"), &self.weight);
        f(&path.leaf("bias"), &self.bias);
    }

    fn visit_params_mut<'a>(
        &'a mut self,
        path: &mut ParamPath,
        f: &mut dyn FnMut(&str, &'a mut Param),
    ) {
        f(&path.leaf("weight"), &mut self.weight);
        f(&path.leaf("bias"), &mut self.bias);
    }
}

impl Layer for Linear {
    /// The backward pass needs only the input, which the caller keeps.
    type Saved = ();

    fn forward_saved(&self, x: &Matrix, _ctx: &LayerCtx) -> Result<(Matrix, ())> {
        let mut y = x.matmul(self.weight.value())?;
        y.add_row_broadcast_assign(self.bias.value().row(0))?;
        Ok((y, ()))
    }

    fn backward(
        &mut self,
        x: &Matrix,
        _saved: &(),
        grad_out: &Matrix,
        _ctx: &LayerCtx,
    ) -> Result<Matrix> {
        let d_weight = kernels::matmul_transpose_left(x, grad_out)?;
        self.weight.accumulate_grad(&d_weight)?;
        self.bias.accumulate_grad(&column_sums(grad_out))?;
        Ok(grad_out.matmul_transpose(self.weight.value())?)
    }
}

/// The bias gradient of `y = x·W + b`: the column sums of `grad_out`, one
/// contiguous row at a time, so each column accumulates in ascending row
/// order.
pub(crate) fn column_sums(grad_out: &Matrix) -> Matrix {
    let mut sums = Matrix::zeros(1, grad_out.cols());
    for r in 0..grad_out.rows() {
        for (slot, g) in sums.row_mut(0).iter_mut().zip(grad_out.row(r)) {
            *slot += g;
        }
    }
    sums
}

/// Either a dense linear layer or its truncated-SVD factored replacement.
///
/// The gradient-redistribution pipeline converts selected `Dense` layers to
/// `Factored` in place; every consumer (attention, FFN, model) goes through
/// this enum so the swap is transparent.
// The factored variant carries U, sigma, and V; boxing it would push every
// forward/backward access through a pointer for no measurable win, so the
// size imbalance is accepted.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum AnyLinear {
    /// A standard dense layer.
    Dense(Linear),
    /// A truncated-SVD factored layer (`x·U·diag(σ)·Vᵀ + b`).
    Factored(FactoredLinear),
}

impl AnyLinear {
    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        match self {
            AnyLinear::Dense(l) => l.in_dim(),
            AnyLinear::Factored(f) => f.in_dim(),
        }
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        match self {
            AnyLinear::Dense(l) => l.out_dim(),
            AnyLinear::Factored(f) => f.out_dim(),
        }
    }
}

/// Variant accessors for the layer tests of this crate.
#[cfg(test)]
impl AnyLinear {
    /// Returns the factored layer, if this is one.
    pub(crate) fn as_factored(&self) -> Option<&FactoredLinear> {
        match self {
            AnyLinear::Factored(f) => Some(f),
            AnyLinear::Dense(_) => None,
        }
    }

    /// Returns the dense layer mutably, if this is one.
    pub(crate) fn as_dense_mut(&mut self) -> Option<&mut Linear> {
        match self {
            AnyLinear::Dense(l) => Some(l),
            AnyLinear::Factored(_) => None,
        }
    }
}

impl ParamVisit for AnyLinear {
    // Transparent: the variant's own leaf names (`weight`/`bias` dense,
    // `u`/`sigma`/`vt`/`bias` factored) appear directly under the layer's
    // scope.
    fn visit_params<'a>(&'a self, path: &mut ParamPath, f: &mut dyn FnMut(&str, &'a Param)) {
        match self {
            AnyLinear::Dense(l) => l.visit_params(path, f),
            AnyLinear::Factored(fl) => fl.visit_params(path, f),
        }
    }

    fn visit_params_mut<'a>(
        &'a mut self,
        path: &mut ParamPath,
        f: &mut dyn FnMut(&str, &'a mut Param),
    ) {
        match self {
            AnyLinear::Dense(l) => l.visit_params_mut(path, f),
            AnyLinear::Factored(fl) => fl.visit_params_mut(path, f),
        }
    }
}

/// What [`AnyLinear`]'s forward pass keeps: the saved state of whichever
/// variant ran.
pub enum AnyLinearSaved {
    /// A dense layer's (empty) saved state.
    Dense,
    /// A factored layer's saved state.
    Factored(FactoredSaved),
}

impl Layer for AnyLinear {
    type Saved = AnyLinearSaved;

    fn forward_saved(&self, x: &Matrix, ctx: &LayerCtx) -> Result<(Matrix, AnyLinearSaved)> {
        match self {
            AnyLinear::Dense(l) => Ok((l.forward(x, ctx)?, AnyLinearSaved::Dense)),
            AnyLinear::Factored(f) => {
                let (y, saved) = f.forward_saved(x, ctx)?;
                Ok((y, AnyLinearSaved::Factored(saved)))
            }
        }
    }

    fn backward(
        &mut self,
        x: &Matrix,
        saved: &AnyLinearSaved,
        grad_out: &Matrix,
        ctx: &LayerCtx,
    ) -> Result<Matrix> {
        match (self, saved) {
            (AnyLinear::Dense(l), AnyLinearSaved::Dense) => l.backward(x, &(), grad_out, ctx),
            (AnyLinear::Factored(f), AnyLinearSaved::Factored(s)) => {
                f.backward(x, s, grad_out, ctx)
            }
            _ => Err(ModelError::InvalidInput(
                "linear backward got the saved state of the other variant".to_string(),
            )),
        }
    }
}

/// Layer normalization with learned scale and shift, applied to each row.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerNorm {
    gamma: Param,
    beta: Param,
    epsilon: f32,
}

impl LayerNorm {
    /// Creates a layer norm over vectors of length `dim`.
    pub fn new(dim: usize) -> Self {
        LayerNorm {
            gamma: Param::new(Matrix::filled(1, dim, 1.0)),
            beta: Param::new(Matrix::zeros(1, dim)),
            epsilon: 1e-5,
        }
    }

    /// Normalized dimension.
    pub fn dim(&self) -> usize {
        self.gamma.value().cols()
    }
}

impl ParamVisit for LayerNorm {
    fn visit_params<'a>(&'a self, path: &mut ParamPath, f: &mut dyn FnMut(&str, &'a Param)) {
        f(&path.leaf("gamma"), &self.gamma);
        f(&path.leaf("beta"), &self.beta);
    }

    fn visit_params_mut<'a>(
        &'a mut self,
        path: &mut ParamPath,
        f: &mut dyn FnMut(&str, &'a mut Param),
    ) {
        f(&path.leaf("gamma"), &mut self.gamma);
        f(&path.leaf("beta"), &mut self.beta);
    }
}

impl Layer for LayerNorm {
    /// Each row's normalization (mean, inverse std, normalized values).
    type Saved = Vec<LayerNormOutput>;

    fn forward_saved(&self, x: &Matrix, _ctx: &LayerCtx) -> Result<(Matrix, Vec<LayerNormOutput>)> {
        if x.cols() != self.dim() {
            return Err(ModelError::InvalidInput(format!(
                "layer norm expected {} columns, got {}",
                self.dim(),
                x.cols()
            )));
        }
        let mut out = Matrix::zeros(x.rows(), x.cols());
        let mut rows = Vec::with_capacity(x.rows());
        for r in 0..x.rows() {
            let normalized = activations::layer_norm(
                x.row(r),
                self.gamma.value().row(0),
                self.beta.value().row(0),
                self.epsilon,
            );
            out.row_mut(r).copy_from_slice(&normalized.output);
            rows.push(normalized);
        }
        Ok((out, rows))
    }

    fn backward(
        &mut self,
        x: &Matrix,
        saved: &Self::Saved,
        grad_out: &Matrix,
        _ctx: &LayerCtx,
    ) -> Result<Matrix> {
        if x.shape() != grad_out.shape()
            || saved.len() != x.rows()
            || saved.iter().any(|row| row.normalized.len() != x.cols())
        {
            return Err(ModelError::InvalidInput(
                "layer norm backward shape mismatch".to_string(),
            ));
        }
        let mut d_input = Matrix::zeros(x.rows(), x.cols());
        let mut d_gamma = Matrix::zeros(1, x.cols());
        let mut d_beta = Matrix::zeros(1, x.cols());
        for (r, forward) in saved.iter().enumerate() {
            let grads = activations::layer_norm_backward(
                forward,
                self.gamma.value().row(0),
                grad_out.row(r),
            );
            d_input.row_mut(r).copy_from_slice(&grads.d_input);
            for c in 0..x.cols() {
                d_gamma.set(0, c, d_gamma.at(0, c) + grads.d_gamma[c]);
                d_beta.set(0, c, d_beta.at(0, c) + grads.d_beta[c]);
            }
        }
        self.gamma.accumulate_grad(&d_gamma)?;
        self.beta.accumulate_grad(&d_beta)?;
        Ok(d_input)
    }
}

/// Token embedding plus learned positional embedding.
#[derive(Debug, Clone, PartialEq)]
pub struct Embedding {
    table: Param,
    positions: Param,
}

impl Embedding {
    /// Creates embeddings for `vocab_size` tokens, `max_len` positions, and
    /// hidden size `dim`.
    pub fn new(vocab_size: usize, max_len: usize, dim: usize, rng: &mut Rng) -> Self {
        Embedding {
            table: Param::new(Matrix::random_normal(vocab_size, dim, 0.0, 0.02, rng)),
            positions: Param::new(Matrix::random_normal(max_len, dim, 0.0, 0.02, rng)),
        }
    }

    /// Vocabulary size.
    fn vocab_size(&self) -> usize {
        self.table.value().rows()
    }

    /// Maximum sequence length.
    fn max_len(&self) -> usize {
        self.positions.value().rows()
    }

    /// Hidden dimension.
    pub fn dim(&self) -> usize {
        self.table.value().cols()
    }

    /// Looks up the embeddings for a token sequence.
    ///
    /// # Errors
    ///
    /// Returns an error for out-of-vocabulary tokens or too-long sequences.
    pub fn forward(&self, tokens: &[usize]) -> Result<Matrix> {
        if tokens.is_empty() {
            return Err(ModelError::InvalidInput("empty token sequence".into()));
        }
        if tokens.len() > self.max_len() {
            return Err(ModelError::InvalidInput(format!(
                "{} tokens exceed maximum {}",
                tokens.len(),
                self.max_len()
            )));
        }
        let dim = self.dim();
        let mut out = Matrix::zeros(tokens.len(), dim);
        for (i, &tok) in tokens.iter().enumerate() {
            if tok >= self.vocab_size() {
                return Err(ModelError::InvalidInput(format!(
                    "token {tok} out of vocabulary ({})",
                    self.vocab_size()
                )));
            }
            for c in 0..dim {
                out.set(
                    i,
                    c,
                    self.table.value().at(tok, c) + self.positions.value().at(i, c),
                );
            }
        }
        Ok(out)
    }

    /// Accumulates gradients for the looked-up rows.
    ///
    /// # Errors
    ///
    /// Returns an error if the gradient shape does not match the lookup.
    pub fn backward(&mut self, tokens: &[usize], grad_out: &Matrix) -> Result<()> {
        if grad_out.rows() != tokens.len() || grad_out.cols() != self.dim() {
            return Err(ModelError::InvalidInput(
                "embedding backward shape mismatch".to_string(),
            ));
        }
        for (i, &tok) in tokens.iter().enumerate() {
            for c in 0..self.dim() {
                let g = grad_out.at(i, c);
                let t = self.table.grad_mut().at(tok, c) + g;
                self.table.grad_mut().set(tok, c, t);
                let p = self.positions.grad_mut().at(i, c) + g;
                self.positions.grad_mut().set(i, c, p);
            }
        }
        Ok(())
    }
}

impl ParamVisit for Embedding {
    fn visit_params<'a>(&'a self, path: &mut ParamPath, f: &mut dyn FnMut(&str, &'a Param)) {
        f(&path.leaf("table"), &self.table);
        f(&path.leaf("positions"), &self.positions);
    }

    fn visit_params_mut<'a>(
        &'a mut self,
        path: &mut ParamPath,
        f: &mut dyn FnMut(&str, &'a mut Param),
    ) {
        f(&path.leaf("table"), &mut self.table);
        f(&path.leaf("positions"), &mut self.positions);
    }
}

/// One forward pass, then the backward pass from its saved state: the
/// call pair every unit test's gradient check needs.
#[cfg(test)]
pub(crate) fn forward_then_backward<L: Layer>(
    layer: &mut L,
    x: &Matrix,
    grad_out: &Matrix,
    ctx: &LayerCtx,
) -> Result<Matrix> {
    let (_, saved) = layer.forward_saved(x, ctx)?;
    layer.backward(x, &saved, grad_out, ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::AdamWConfig;

    const CTX: LayerCtx = LayerCtx::inference();

    fn finite_difference_check<F>(f: F, x: &Matrix, analytic: &Matrix, tol: f32)
    where
        F: Fn(&Matrix) -> f32,
    {
        for r in 0..x.rows() {
            for c in 0..x.cols() {
                let mut plus = x.clone();
                plus.set(r, c, x.at(r, c) + 1e-3);
                let mut minus = x.clone();
                minus.set(r, c, x.at(r, c) - 1e-3);
                let numeric = (f(&plus) - f(&minus)) / 2e-3;
                assert!(
                    (analytic.at(r, c) - numeric).abs() < tol,
                    "grad[{r},{c}]: {} vs {}",
                    analytic.at(r, c),
                    numeric
                );
            }
        }
    }

    #[test]
    fn linear_forward_matches_manual_computation() {
        let w = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap();
        let layer = Linear::from_weight(w);
        let x = Matrix::from_rows(&[vec![1.0, 0.0, -1.0]]).unwrap();
        let y = layer.forward(&x, &CTX).unwrap();
        assert_eq!(y.shape(), (1, 2));
        assert_eq!(y.at(0, 0), -4.0);
        assert_eq!(y.at(0, 1), -4.0);
        assert_eq!(layer.in_dim(), 3);
        assert_eq!(layer.out_dim(), 2);
        assert_eq!(layer.parameter_count(), 8);
    }

    #[test]
    fn linear_input_gradient_matches_finite_difference() {
        let mut rng = Rng::seed_from(1);
        let layer = Linear::new(4, 3, &mut rng);
        let x = Matrix::random_normal(2, 4, 0.0, 1.0, &mut rng);
        let upstream = Matrix::random_normal(2, 3, 0.0, 1.0, &mut rng);
        let loss = |input: &Matrix| -> f32 {
            layer
                .forward(input, &CTX)
                .unwrap()
                .hadamard(&upstream)
                .unwrap()
                .sum()
        };
        let d_input = {
            let mut l = layer.clone();
            forward_then_backward(&mut l, &x, &upstream, &CTX).unwrap()
        };
        finite_difference_check(loss, &x, &d_input, 1e-2);
    }

    #[test]
    fn linear_weight_gradient_matches_finite_difference() {
        let mut rng = Rng::seed_from(2);
        let mut layer = Linear::new(3, 2, &mut rng);
        let x = Matrix::random_normal(2, 3, 0.0, 1.0, &mut rng);
        let upstream = Matrix::random_normal(2, 2, 0.0, 1.0, &mut rng);
        forward_then_backward(&mut layer, &x, &upstream, &CTX).unwrap();
        let analytic = layer.weight_param().grad().clone();
        let base_weight = layer.weight().clone();
        let loss = |w: &Matrix| -> f32 {
            let probe = Linear::from_weight(w.clone());
            probe
                .forward(&x, &CTX)
                .unwrap()
                .hadamard(&upstream)
                .unwrap()
                .sum()
        };
        finite_difference_check(loss, &base_weight, &analytic, 1e-2);
    }

    #[test]
    fn any_linear_factorize_round_trip() {
        let mut rng = Rng::seed_from(3);
        let mut layer = AnyLinear::Dense(Linear::new(8, 6, &mut rng));
        let x = Matrix::random_normal(2, 8, 0.0, 1.0, &mut rng);
        let dense_out = layer.forward(&x, &CTX).unwrap();
        let weight = layer.as_dense_mut().unwrap().weight().clone();
        layer = AnyLinear::Factored(FactoredLinear::from_weight(&weight, 6).unwrap());
        assert!(layer.as_dense_mut().is_none());
        assert_eq!(layer.as_factored().unwrap().rank(), 6);
        let factored_out = layer.forward(&x, &CTX).unwrap();
        // Full-rank factorization reproduces the dense output.
        assert!(dense_out.approx_eq(&factored_out, 1e-3));
    }

    #[test]
    fn layer_norm_forward_normalizes_rows() {
        let ln = LayerNorm::new(4);
        let x = Matrix::from_rows(&[vec![1.0, 2.0, 3.0, 4.0], vec![-1.0, 0.0, 1.0, 2.0]]).unwrap();
        let y = ln.forward(&x, &CTX).unwrap();
        for r in 0..2 {
            let mean: f32 = y.row(r).iter().sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-5);
        }
        assert!(ln.forward(&Matrix::zeros(1, 3), &CTX).is_err());
    }

    #[test]
    fn layer_norm_backward_matches_finite_difference() {
        let mut rng = Rng::seed_from(4);
        let mut ln = LayerNorm::new(5);
        let x = Matrix::random_normal(3, 5, 0.0, 1.0, &mut rng);
        let upstream = Matrix::random_normal(3, 5, 0.0, 1.0, &mut rng);
        let d_input = forward_then_backward(&mut ln, &x, &upstream, &CTX).unwrap();
        let probe = LayerNorm::new(5);
        let loss = |input: &Matrix| -> f32 {
            probe
                .forward(input, &CTX)
                .unwrap()
                .hadamard(&upstream)
                .unwrap()
                .sum()
        };
        finite_difference_check(loss, &x, &d_input, 2e-2);
    }

    /// Asserts `forward(x)` and `forward_saved(x).0` agree bit for bit.
    fn assert_forward_is_forward_saved<L: Layer>(layer: &L, x: &Matrix, ctx: &LayerCtx) {
        let plain = layer.forward(x, ctx).unwrap();
        let (kept, _) = layer.forward_saved(x, ctx).unwrap();
        assert_eq!(plain.shape(), kept.shape());
        for (i, (a, b)) in plain.as_slice().iter().zip(kept.as_slice()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "output {i}: {a:?} != {b:?}");
        }
    }

    #[test]
    fn forward_is_forward_saved_for_every_layer() {
        use crate::attention::MultiHeadAttention;
        use crate::block::TransformerBlock;
        use crate::ffn::FeedForward;

        let mut rng = Rng::seed_from(8);
        let x = Matrix::random_normal(5, 8, 0.0, 1.0, &mut rng);
        let linear = Linear::new(8, 6, &mut rng);
        let factored = FactoredLinear::from_weight(linear.weight(), 4).unwrap();
        assert_forward_is_forward_saved(&linear, &x, &CTX);
        assert_forward_is_forward_saved(&factored, &x, &CTX);
        assert_forward_is_forward_saved(&AnyLinear::Dense(linear), &x, &CTX);
        assert_forward_is_forward_saved(&AnyLinear::Factored(factored), &x, &CTX);
        assert_forward_is_forward_saved(&LayerNorm::new(8), &x, &CTX);
        let ffn = FeedForward::new(8, 16, &mut rng);
        assert_forward_is_forward_saved(&ffn, &x, &CTX);
        assert_forward_is_forward_saved(&Residual::new(LayerNorm::new(8), ffn), &x, &CTX);
        let block = TransformerBlock::new(8, 16, 2, &mut rng).unwrap();
        assert_forward_is_forward_saved(&block, &x, &CTX);

        let attn = MultiHeadAttention::new(8, 2, &mut rng).unwrap();
        for ctx in [LayerCtx::inference(), LayerCtx::causal()] {
            assert_forward_is_forward_saved(&attn, &x, &ctx);
            assert_forward_is_forward_saved(&block, &x, &ctx);
        }
    }

    #[test]
    fn embedding_lookup_and_bounds() {
        let mut rng = Rng::seed_from(5);
        let emb = Embedding::new(10, 6, 4, &mut rng);
        let out = emb.forward(&[1, 3, 5]).unwrap();
        assert_eq!(out.shape(), (3, 4));
        assert!(emb.forward(&[11]).is_err());
        assert!(emb.forward(&[]).is_err());
        assert!(emb.forward(&[0; 7]).is_err());
        assert_eq!(emb.parameter_count(), 10 * 4 + 6 * 4);
    }

    #[test]
    fn embedding_backward_accumulates_into_looked_up_rows() {
        let mut rng = Rng::seed_from(6);
        let mut emb = Embedding::new(5, 4, 3, &mut rng);
        let tokens = [2usize, 2, 4];
        let grad = Matrix::filled(3, 3, 1.0);
        emb.backward(&tokens, &grad).unwrap();
        // Token 2 appears twice: its gradient row should be 2.0 everywhere.
        // Access through a step: after zero_grad the update disappears.
        emb.step(&AdamWConfig::default(), 1);
        emb.zero_grad();
        assert!(emb.backward(&tokens, &Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn training_a_linear_layer_reduces_loss() {
        let mut rng = Rng::seed_from(7);
        let mut layer = Linear::new(4, 1, &mut rng);
        let config = AdamWConfig {
            learning_rate: 0.01,
            weight_decay: 0.0,
            ..AdamWConfig::default()
        };
        // Learn y = sum(x).
        let inputs: Vec<Matrix> = (0..32)
            .map(|_| Matrix::random_normal(1, 4, 0.0, 1.0, &mut rng))
            .collect();
        let targets: Vec<f32> = inputs.iter().map(|x| x.sum()).collect();
        let loss_of = |layer: &Linear| -> f32 {
            inputs
                .iter()
                .zip(targets.iter())
                .map(|(x, t)| {
                    let y = layer.forward(x, &CTX).unwrap().at(0, 0);
                    (y - t) * (y - t)
                })
                .sum::<f32>()
                / inputs.len() as f32
        };
        let initial = loss_of(&layer);
        for _ in 0..200 {
            layer.zero_grad();
            for (x, t) in inputs.iter().zip(targets.iter()) {
                let (y, saved) = layer.forward_saved(x, &CTX).unwrap();
                let grad = Matrix::filled(1, 1, 2.0 * (y.at(0, 0) - t));
                layer.backward(x, &saved, &grad, &CTX).unwrap();
            }
            layer.step(&config, inputs.len());
        }
        let trained = loss_of(&layer);
        assert!(
            trained < initial * 0.1,
            "training failed: {initial} -> {trained}"
        );
    }
}
