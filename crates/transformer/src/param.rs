//! Trainable parameters, the AdamW update rule, and named visitation.
//!
//! Every layer owns its parameters as [`Param`] values: the weight matrix, an
//! accumulated gradient, and the AdamW first/second-moment state. The trainer
//! drives the generic `zero_grad` / accumulate / `adamw_step` cycle; the
//! gradient-redistribution pipeline in `hyflex-pim` additionally reads the
//! accumulated gradient magnitudes to rank singular values by importance.
//!
//! # Named parameter visitation
//!
//! [`ParamVisit`] is the single source of truth for parameter enumeration:
//! every module walks its parameters exactly once, in declaration order,
//! under dotted hierarchical names (`blocks.3.attn.q_proj.weight`). The
//! optimizer entry points ([`ParamVisit::step`], [`ParamVisit::zero_grad`])
//! and [`ParamVisit::parameter_count`] are provided methods on top of that
//! one walk, so they can never drift from the module structure the way the
//! old hand-maintained `static_linears` vectors could.
//!
//! [`ParamStore`] snapshots one walk into a name → parameter table:
//!
//! ```
//! use hyflex_transformer::{ModelConfig, ParamStore, ParamVisit, TransformerModel};
//! use hyflex_tensor::rng::Rng;
//!
//! let mut rng = Rng::seed_from(1);
//! let model = TransformerModel::new(ModelConfig::tiny_encoder(2), &mut rng).unwrap();
//! let store = ParamStore::of(&model);
//! let q = store.get("blocks.0.attn.q_proj.weight").unwrap();
//! assert_eq!(q.value().rows(), 32);
//! let stored: usize = store.iter().map(|(_, p)| p.value().len()).sum();
//! assert_eq!(stored, model.parameter_count());
//! ```

use crate::Result;
use hyflex_tensor::Matrix;
use std::fmt::{Display, Write};

/// Hyper-parameters of the AdamW optimizer (paper Table 1 uses AdamW for all
/// fine-tuning runs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdamWConfig {
    /// Learning rate.
    pub learning_rate: f32,
    /// Exponential decay rate for the first moment.
    pub beta1: f32,
    /// Exponential decay rate for the second moment.
    pub beta2: f32,
    /// Numerical stability constant.
    pub epsilon: f32,
    /// Decoupled weight decay coefficient.
    pub weight_decay: f32,
}

impl Default for AdamWConfig {
    fn default() -> Self {
        AdamWConfig {
            learning_rate: 2e-5,
            beta1: 0.9,
            beta2: 0.999,
            epsilon: 1e-8,
            weight_decay: 0.01,
        }
    }
}

/// A trainable parameter tensor with gradient and AdamW state.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    value: Matrix,
    grad: Matrix,
    /// AdamW first/second moments, row-major like `value`; empty until the
    /// first [`ParamVisit::step`] (a zero moment and an absent one step
    /// identically), so models that are only evaluated, and the trainer's
    /// worker replicas, never carry optimizer state.
    moment1: Vec<f32>,
    moment2: Vec<f32>,
    /// Number of AdamW steps applied (for bias correction).
    steps: u64,
}

impl Param {
    /// Wraps a value matrix as a trainable parameter.
    pub fn new(value: Matrix) -> Self {
        let (r, c) = value.shape();
        Param {
            value,
            grad: Matrix::zeros(r, c),
            moment1: Vec::new(),
            moment2: Vec::new(),
            steps: 0,
        }
    }

    /// The current parameter value.
    pub fn value(&self) -> &Matrix {
        &self.value
    }

    /// Mutable access to the value (used when injecting hardware noise).
    pub fn value_mut(&mut self) -> &mut Matrix {
        &mut self.value
    }

    /// The accumulated gradient.
    pub fn grad(&self) -> &Matrix {
        &self.grad
    }

    /// Mutable access to the accumulated gradient (used by layers that update
    /// sparse slices, such as embedding tables).
    pub fn grad_mut(&mut self) -> &mut Matrix {
        &mut self.grad
    }

    /// Adds a gradient contribution (e.g. from one sample of a batch).
    ///
    /// # Errors
    ///
    /// Returns a shape error if the gradient shape does not match the
    /// parameter shape; the accumulated gradient is then left unchanged.
    pub fn accumulate_grad(&mut self, grad: &Matrix) -> Result<()> {
        Ok(self.grad.add_assign(grad)?)
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&mut self) {
        self.grad.map_inplace(|_| 0.0);
    }

    /// Clears the gradient and drops the optimizer state, leaving what a
    /// data-parallel worker replica needs to run forward/backward passes.
    pub(crate) fn make_replica(&mut self) {
        self.zero_grad();
        self.moment1 = Vec::new();
        self.moment2 = Vec::new();
    }

    /// Adds `replica`'s gradient into this one. The replica's gradient was
    /// formed from zero over one sample (`0 + g = g`), so the add is the one
    /// the serial loop makes for that sample. (`0 + g` loses only the sign
    /// of `g = -0.0`, which shows only when added to a `-0.0`; a gradient
    /// cleared to `+0.0` and summed with round-to-nearest never is one.)
    pub(crate) fn add_grad_of(&mut self, replica: &Param) {
        for (g, r) in self
            .grad
            .as_mut_slice()
            .iter_mut()
            .zip(replica.grad.as_slice())
        {
            *g += *r;
        }
    }

    /// Copies `master`'s value into this one (a replica re-synced after an
    /// optimizer step).
    pub(crate) fn copy_value_from(&mut self, master: &Param) {
        self.value
            .as_mut_slice()
            .copy_from_slice(master.value.as_slice());
    }

    /// Applies one AdamW update using the accumulated gradient divided by
    /// `batch_size`.
    pub(crate) fn adamw_step(&mut self, config: &AdamWConfig, batch_size: usize) {
        self.steps += 1;
        let scale = 1.0 / batch_size.max(1) as f32;
        let t = self.steps as i32;
        let bias1 = 1.0 - config.beta1.powi(t);
        let bias2 = 1.0 - config.beta2.powi(t);
        let n = self.value.len();
        self.moment1.resize(n, 0.0);
        self.moment2.resize(n, 0.0);
        let value = self.value.as_mut_slice();
        let grad = self.grad.as_slice();
        let m = &mut self.moment1;
        let v = &mut self.moment2;
        for i in 0..n {
            let g = grad[i] * scale;
            m[i] = config.beta1 * m[i] + (1.0 - config.beta1) * g;
            v[i] = config.beta2 * v[i] + (1.0 - config.beta2) * g * g;
            let m_hat = m[i] / bias1;
            let v_hat = v[i] / bias2;
            let update = m_hat / (v_hat.sqrt() + config.epsilon);
            value[i] -= config.learning_rate * (update + config.weight_decay * value[i]);
        }
    }
}

/// Dotted-path builder threaded through [`ParamVisit`] walks.
///
/// Modules enter child scopes with [`ParamPath::scope`] and name leaf
/// parameters with [`ParamPath::leaf`]. One buffer holds the scope prefix
/// and, after it, the last leaf name; it is cut back on scope entry and
/// exit, so a whole recursive walk allocates only while the buffer first
/// grows.
#[derive(Debug, Default)]
pub struct ParamPath {
    buf: String,
    /// Length of the scope prefix within `buf`.
    scope_len: usize,
    /// Builds no names: every leaf is `""` (see `ParamPath::unnamed`).
    unnamed: bool,
}

impl ParamPath {
    /// A path at the root scope (empty prefix).
    pub fn root() -> Self {
        ParamPath::default()
    }

    /// A root path for walks that ignore names (clearing, stepping,
    /// counting, the pooled fold): it writes no names, so every leaf is
    /// `""`.
    pub(crate) fn unnamed() -> Self {
        ParamPath {
            unnamed: true,
            ..ParamPath::default()
        }
    }

    /// Runs `f` with `segment` appended to the path, restoring it afterwards.
    pub fn scope<R>(&mut self, segment: impl Display, f: impl FnOnce(&mut ParamPath) -> R) -> R {
        let saved = self.scope_len;
        self.push(segment);
        self.scope_len = self.buf.len();
        let out = f(self);
        self.buf.truncate(saved);
        self.scope_len = saved;
        out
    }

    /// The full dotted name of a leaf parameter under the current scope,
    /// valid until the path is next used.
    pub fn leaf(&mut self, name: &str) -> &str {
        self.push(name);
        &self.buf
    }

    /// Replaces whatever follows the scope prefix with `.segment` (or just
    /// `segment` at the root).
    fn push(&mut self, segment: impl Display) {
        if self.unnamed {
            return;
        }
        self.buf.truncate(self.scope_len);
        if self.scope_len > 0 {
            self.buf.push('.');
        }
        // Writing into a `String` cannot fail.
        let _ = write!(self.buf, "{segment}");
    }

    /// The current scope prefix.
    pub fn as_str(&self) -> &str {
        &self.buf[..self.scope_len]
    }
}

/// Named, ordered parameter visitation — the single enumeration path every
/// parameter-holding module implements.
///
/// Implementations must visit each owned [`Param`] exactly once, in stable
/// declaration order, and must produce identical names from the `&self` and
/// `&mut self` walks. Everything else — optimizer stepping, gradient
/// clearing, parameter counting, [`ParamStore`] snapshots — is derived from
/// this one walk via the provided methods.
pub trait ParamVisit {
    /// Visits every parameter with its dotted name.
    fn visit_params<'a>(&'a self, path: &mut ParamPath, f: &mut dyn FnMut(&str, &'a Param));

    /// Mutable counterpart of [`ParamVisit::visit_params`]; must yield the
    /// same names in the same order.
    fn visit_params_mut<'a>(
        &'a mut self,
        path: &mut ParamPath,
        f: &mut dyn FnMut(&str, &'a mut Param),
    );

    /// Total number of scalar parameter values.
    fn parameter_count(&self) -> usize {
        let mut count = 0;
        self.visit_params(&mut ParamPath::unnamed(), &mut |_, p| {
            count += p.value().len()
        });
        count
    }

    /// Clears every accumulated gradient.
    fn zero_grad(&mut self) {
        self.visit_params_mut(&mut ParamPath::unnamed(), &mut |_, p| p.zero_grad());
    }

    /// Applies one AdamW step to every parameter.
    ///
    /// AdamW is element-wise per parameter, so routing the optimizer through
    /// the visitation walk is bit-identical to the per-field `step` methods
    /// it replaced.
    fn step(&mut self, config: &AdamWConfig, batch_size: usize) {
        self.visit_params_mut(&mut ParamPath::unnamed(), &mut |_, p| {
            p.adamw_step(config, batch_size)
        });
    }
}

/// A snapshot of one [`ParamVisit`] walk: dotted name → parameter reference,
/// in visitation order.
#[derive(Debug)]
pub struct ParamStore<'a> {
    entries: Vec<(String, &'a Param)>,
}

impl<'a> ParamStore<'a> {
    /// Snapshots the parameters of `root`.
    pub fn of<M: ParamVisit + ?Sized>(root: &'a M) -> Self {
        let mut entries = Vec::new();
        root.visit_params(&mut ParamPath::root(), &mut |name, p| {
            entries.push((name.to_string(), p));
        });
        ParamStore { entries }
    }

    /// Number of named parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `(name, param)` pairs in visitation order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &'a Param)> + '_ {
        self.entries.iter().map(|(n, p)| (n.as_str(), *p))
    }

    /// Looks up a parameter by its full dotted name.
    pub fn get(&self, name: &str) -> Option<&'a Param> {
        self.entries
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, p)| *p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyflex_tensor::rng::Rng;

    #[test]
    fn adamw_minimizes_a_quadratic() {
        // Minimize f(w) = 0.5 * ||w - target||^2 with gradient (w - target).
        let mut rng = Rng::seed_from(1);
        let target = Matrix::random_normal(4, 4, 0.0, 1.0, &mut rng);
        let mut param = Param::new(Matrix::zeros(4, 4));
        let config = AdamWConfig {
            learning_rate: 0.05,
            weight_decay: 0.0,
            ..AdamWConfig::default()
        };
        for _ in 0..500 {
            param.zero_grad();
            let grad = param.value().sub(&target).unwrap();
            param.accumulate_grad(&grad).unwrap();
            param.adamw_step(&config, 1);
        }
        let err = param.value().sub(&target).unwrap().max_abs();
        assert!(err < 0.05, "AdamW failed to converge, err {err}");
    }

    #[test]
    fn gradients_accumulate_and_reset() {
        let mut p = Param::new(Matrix::zeros(2, 2));
        let g = Matrix::filled(2, 2, 1.0);
        p.accumulate_grad(&g).unwrap();
        p.accumulate_grad(&g).unwrap();
        assert_eq!(p.grad().at(0, 0), 2.0);
        p.zero_grad();
        assert_eq!(p.grad().max_abs(), 0.0);
    }

    #[test]
    fn weight_decay_shrinks_parameters_without_gradient() {
        let mut p = Param::new(Matrix::filled(2, 2, 1.0));
        let config = AdamWConfig {
            learning_rate: 0.1,
            weight_decay: 0.5,
            ..AdamWConfig::default()
        };
        p.adamw_step(&config, 1);
        assert!(p.value().at(0, 0) < 1.0);
    }

    #[test]
    fn batch_size_scales_the_gradient() {
        let config = AdamWConfig {
            learning_rate: 0.1,
            weight_decay: 0.0,
            ..AdamWConfig::default()
        };
        let mut a = Param::new(Matrix::zeros(1, 1));
        a.accumulate_grad(&Matrix::filled(1, 1, 4.0)).unwrap();
        a.adamw_step(&config, 4);

        let mut b = Param::new(Matrix::zeros(1, 1));
        b.accumulate_grad(&Matrix::filled(1, 1, 1.0)).unwrap();
        b.adamw_step(&config, 1);

        assert!((a.value().at(0, 0) - b.value().at(0, 0)).abs() < 1e-6);
    }

    #[test]
    fn default_config_matches_paper_style_settings() {
        let c = AdamWConfig::default();
        assert!((c.learning_rate - 2e-5).abs() < 1e-12);
        assert!(c.beta1 > c.weight_decay);
    }
}
