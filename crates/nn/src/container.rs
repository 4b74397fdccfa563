//! Layer containers: sequential chains and residual blocks.

use crate::arena::{BufId, EvalArena};
use crate::layer::{Layer, Mode, Param};
use p3d_tensor::Tensor;

/// A chain of layers applied in order.
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// An empty chain.
    pub fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Appends a layer, builder-style.
    pub fn push(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Appends a boxed layer in place.
    pub fn add(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of layers in the chain.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// `true` if the chain holds no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

impl Default for Sequential {
    fn default() -> Self {
        Sequential::new()
    }
}

impl Layer for Sequential {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x, mode);
        }
        x
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut g = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }

    fn export_state(&self, f: &mut dyn FnMut(&str, &Tensor)) {
        for layer in &self.layers {
            layer.export_state(f);
        }
    }

    fn import_state(&mut self, get: &mut dyn FnMut(&str, &p3d_tensor::Shape) -> Option<Tensor>) {
        for layer in &mut self.layers {
            layer.import_state(get);
        }
    }

    fn eval_into(&mut self, arena: &mut EvalArena, input: BufId) -> BufId {
        let mut cur = input;
        for layer in &mut self.layers {
            cur = layer.eval_into(arena, cur);
            // Numeric guardrail: catch NaN/Inf the layer that produced
            // it, not three layers later in the logits. Free when
            // sentinels are disabled (release default); the panic is
            // caught and classified by the serving supervisor.
            crate::sentinel::check_finite(arena.buf(cur), || layer.describe());
        }
        cur
    }

    fn install_block_patterns(
        &mut self,
        get: &mut dyn FnMut(&str) -> Option<p3d_tensor::BlockPattern>,
    ) {
        for layer in &mut self.layers {
            layer.install_block_patterns(get);
        }
    }

    fn describe(&self) -> String {
        let parts: Vec<String> = self.layers.iter().map(|l| l.describe()).collect();
        format!("sequential[{}]", parts.join(", "))
    }
}

/// A residual block: `y = relu(main(x) + shortcut(x))`.
///
/// The shortcut is the identity when `None` (same-shape blocks) or a
/// projection chain (the paper's "shortcut with 2 layers": a strided
/// `1x1x1` convolution plus batch norm) when the block changes resolution
/// or width. The trailing ReLU is built in, matching R(2+1)D.
pub struct ResidualBlock {
    main: Sequential,
    shortcut: Option<Sequential>,
    relu_mask: Option<Vec<bool>>,
}

impl ResidualBlock {
    /// Creates a residual block with an identity shortcut.
    pub fn identity(main: Sequential) -> Self {
        ResidualBlock {
            main,
            shortcut: None,
            relu_mask: None,
        }
    }

    /// Creates a residual block with a projection shortcut.
    pub fn projected(main: Sequential, shortcut: Sequential) -> Self {
        ResidualBlock {
            main,
            shortcut: Some(shortcut),
            relu_mask: None,
        }
    }
}

impl Layer for ResidualBlock {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let main_out = self.main.forward(input, mode);
        let short_out = match &mut self.shortcut {
            Some(s) => s.forward(input, mode),
            None => input.clone(),
        };
        assert_eq!(
            main_out.shape(),
            short_out.shape(),
            "residual add shape mismatch: main {} vs shortcut {}",
            main_out.shape(),
            short_out.shape()
        );
        let sum = &main_out + &short_out;
        // Only Train refreshes the mask; Eval must not clobber a pending
        // backward's cached state.
        if mode == Mode::Train {
            self.relu_mask = Some(sum.data().iter().map(|&x| x > 0.0).collect());
        }
        sum.map(|x| x.max(0.0))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mask = self
            .relu_mask
            .as_ref()
            .expect("residual backward called before forward(Train)");
        let gated = Tensor::from_vec(
            grad_out.shape(),
            grad_out
                .data()
                .iter()
                .zip(mask)
                .map(|(&g, &m)| if m { g } else { 0.0 })
                .collect(),
        );
        let g_main = self.main.backward(&gated);
        let g_short = match &mut self.shortcut {
            Some(s) => s.backward(&gated),
            None => gated,
        };
        &g_main + &g_short
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.main.visit_params(f);
        if let Some(s) = &mut self.shortcut {
            s.visit_params(f);
        }
    }

    fn export_state(&self, f: &mut dyn FnMut(&str, &Tensor)) {
        self.main.export_state(f);
        if let Some(s) = &self.shortcut {
            s.export_state(f);
        }
    }

    fn import_state(&mut self, get: &mut dyn FnMut(&str, &p3d_tensor::Shape) -> Option<Tensor>) {
        self.main.import_state(get);
        if let Some(s) = &mut self.shortcut {
            s.import_state(get);
        }
    }

    fn install_block_patterns(
        &mut self,
        get: &mut dyn FnMut(&str) -> Option<p3d_tensor::BlockPattern>,
    ) {
        self.main.install_block_patterns(get);
        if let Some(s) = &mut self.shortcut {
            s.install_block_patterns(get);
        }
    }

    fn eval_into(&mut self, arena: &mut EvalArena, input: BufId) -> BufId {
        // Keep a copy of the input for the shortcut path; `main` may
        // consume (release or mutate) the original buffer.
        let saved = arena.duplicate(input);
        let main_out = self.main.eval_into(arena, input);
        let short_out = match &mut self.shortcut {
            Some(s) => s.eval_into(arena, saved),
            None => saved,
        };
        assert_eq!(
            arena.shape(main_out),
            arena.shape(short_out),
            "residual add shape mismatch: main {} vs shortcut {}",
            arena.shape(main_out),
            arena.shape(short_out)
        );
        {
            // `(m + s).max(0.0)` element-wise matches `&main + &short`
            // followed by `map(|x| x.max(0.0))` in `forward`.
            let (s, m) = arena.pair(short_out, main_out);
            for (mv, &sv) in m.iter_mut().zip(s.iter()) {
                *mv = (*mv + sv).max(0.0);
            }
        }
        arena.release(short_out);
        main_out
    }

    fn describe(&self) -> String {
        match &self.shortcut {
            Some(s) => format!(
                "residual(main: {}, shortcut: {})",
                self.main.describe(),
                s.describe()
            ),
            None => format!("residual(main: {}, identity)", self.main.describe()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Relu;
    use crate::conv3d::Conv3d;
    use p3d_tensor::TensorRng;

    #[test]
    fn sequential_composes() {
        let mut rng = TensorRng::seed(1);
        let mut seq = Sequential::new()
            .push(Conv3d::new(
                "a",
                2,
                1,
                (1, 1, 1),
                (1, 1, 1),
                (0, 0, 0),
                false,
                &mut rng,
            ))
            .push(Relu::new());
        let x = rng.uniform_tensor([1, 1, 2, 2, 2], -1.0, 1.0);
        let y = seq.forward(&x, Mode::Eval);
        assert_eq!(y.shape().dims(), &[1, 2, 2, 2, 2]);
        assert!(y.min() >= 0.0);
        assert_eq!(seq.len(), 2);
    }

    #[test]
    fn identity_residual_doubles_positive_input() {
        // main = identity conv (weight 1), so out = relu(x + x) = 2x for x>0.
        let mut rng = TensorRng::seed(2);
        let mut conv = Conv3d::new("i", 1, 1, (1, 1, 1), (1, 1, 1), (0, 0, 0), false, &mut rng);
        conv.weight.value.fill(1.0);
        let mut block = ResidualBlock::identity(Sequential::new().push(conv));
        let x = Tensor::full([1, 1, 1, 2, 2], 3.0);
        let y = block.forward(&x, Mode::Eval);
        assert!(y.allclose(&Tensor::full([1, 1, 1, 2, 2], 6.0), 1e-6));
    }

    #[test]
    fn residual_backward_sums_paths() {
        let mut rng = TensorRng::seed(3);
        let mut conv = Conv3d::new("i", 1, 1, (1, 1, 1), (1, 1, 1), (0, 0, 0), false, &mut rng);
        conv.weight.value.fill(2.0);
        let mut block = ResidualBlock::identity(Sequential::new().push(conv));
        let x = Tensor::full([1, 1, 1, 1, 1], 1.0);
        let _ = block.forward(&x, Mode::Train); // out = relu(2 + 1) = 3
        let g = block.backward(&Tensor::full([1, 1, 1, 1, 1], 1.0));
        // d out / d x = w + 1 = 3.
        assert!((g.data()[0] - 3.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn mismatched_shortcut_panics() {
        let mut rng = TensorRng::seed(4);
        let conv = Conv3d::new("m", 2, 1, (1, 1, 1), (1, 1, 1), (0, 0, 0), false, &mut rng);
        let mut block = ResidualBlock::identity(Sequential::new().push(conv));
        let x = Tensor::ones([1, 1, 1, 1, 1]);
        let _ = block.forward(&x, Mode::Eval);
    }
}
