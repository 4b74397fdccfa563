//! Fully-connected layer and the flatten adapter.

use crate::arena::{BufId, EvalArena};
use crate::layer::{Layer, Mode, Param, ParamKind};
use p3d_tensor::{gemm_nt_into, Shape, Tensor, TensorRng};

/// A fully-connected layer: `y = x W^T + b`, weight `[out, in]`.
pub struct Linear {
    /// Weight matrix `[out, in]`.
    pub weight: Param,
    /// Optional bias `[out]`.
    pub bias: Option<Param>,
    cached_input: Option<Tensor>,
}

impl Linear {
    /// Creates a Kaiming-initialised linear layer.
    pub fn new(
        name: &str,
        out_features: usize,
        in_features: usize,
        bias: bool,
        rng: &mut TensorRng,
    ) -> Self {
        let w = rng.kaiming_normal(Shape::d2(out_features, in_features), in_features);
        Linear {
            weight: Param::new(format!("{name}.weight"), ParamKind::LinearWeight, w),
            bias: bias.then(|| {
                Param::new(
                    format!("{name}.bias"),
                    ParamKind::Bias,
                    Tensor::zeros([out_features]),
                )
            }),
            cached_input: None,
        }
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.weight.value.shape().dim(0)
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.weight.value.shape().dim(1)
    }
}

impl Layer for Linear {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        assert_eq!(input.shape().rank(), 2, "linear expects [B, in]");
        assert_eq!(
            input.shape().dim(1),
            self.in_features(),
            "linear {} expects {} inputs, got {}",
            self.weight.name,
            self.in_features(),
            input.shape().dim(1)
        );
        // y[b, o] = sum_i x[b, i] * w[o, i]  ==  x * W^T
        let mut out = input.matmul_nt(&self.weight.value);
        if let Some(bias) = &self.bias {
            let o = self.out_features();
            for bi in 0..input.shape().dim(0) {
                for (j, &bv) in bias.value.data().iter().enumerate() {
                    out.data_mut()[bi * o + j] += bv;
                }
            }
        }
        // Eval must not clobber a Train-cached input (interleaved
        // validation between forward(Train) and backward is legal).
        if mode == Mode::Train {
            self.cached_input = Some(input.clone());
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self
            .cached_input
            .as_ref()
            .expect("linear backward called before forward(Train)");
        let b = input.shape().dim(0);
        assert_eq!(
            grad_out.shape().dims(),
            &[b, self.out_features()],
            "linear grad shape mismatch"
        );
        // dW[o, i] = sum_b g[b, o] * x[b, i] = g^T x
        self.weight.grad += &grad_out.matmul_tn(input);
        let o = self.out_features();
        if let Some(bias) = &mut self.bias {
            for bi in 0..b {
                for j in 0..o {
                    bias.grad.data_mut()[j] += grad_out.data()[bi * o + j];
                }
            }
        }
        // dX = g W
        grad_out.matmul(&self.weight.value)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        if let Some(b) = &mut self.bias {
            f(b);
        }
    }

    fn eval_into(&mut self, arena: &mut EvalArena, input: BufId) -> BufId {
        let s = arena.shape(input);
        assert_eq!(s.rank(), 2, "linear expects [B, in]");
        let b = s.dim(0);
        let i = self.in_features();
        let o = self.out_features();
        assert_eq!(
            s.dim(1),
            i,
            "linear {} expects {} inputs, got {}",
            self.weight.name,
            i,
            s.dim(1)
        );
        let out = arena.acquire(Shape::d2(b, o));
        {
            let (src, dst) = arena.pair(input, out);
            // `gemm_nt_into` accumulates in the same order as `matmul_nt`,
            // so values match `forward` bitwise.
            gemm_nt_into(src, b, i, self.weight.value.data(), o, dst);
            if let Some(bias) = &self.bias {
                for bi in 0..b {
                    for (j, &bv) in bias.value.data().iter().enumerate() {
                        dst[bi * o + j] += bv;
                    }
                }
            }
        }
        arena.release(input);
        out
    }

    fn describe(&self) -> String {
        format!("linear({}->{})", self.in_features(), self.out_features())
    }
}

/// Flattens `[B, ...]` activations to `[B, features]`.
pub struct Flatten {
    input_shape: Option<Shape>,
}

impl Flatten {
    /// Creates the adapter.
    pub fn new() -> Self {
        Flatten { input_shape: None }
    }
}

impl Default for Flatten {
    fn default() -> Self {
        Flatten::new()
    }
}

impl Layer for Flatten {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let s = input.shape();
        let b = s.dim(0);
        if mode == Mode::Train {
            self.input_shape = Some(s);
        }
        input.reshape(Shape::d2(b, s.len() / b))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let s = self
            .input_shape
            .expect("flatten backward called before forward(Train)");
        grad_out.reshape(s)
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn eval_into(&mut self, arena: &mut EvalArena, input: BufId) -> BufId {
        // Pure metadata change: relabel the buffer's shape in place.
        let s = arena.shape(input);
        let b = s.dim(0);
        arena.set_shape(input, Shape::d2(b, s.len() / b));
        input
    }

    fn describe(&self) -> String {
        "flatten".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_known_values() {
        let mut rng = TensorRng::seed(1);
        let mut lin = Linear::new("fc", 2, 3, true, &mut rng);
        lin.weight.value = Tensor::from_vec([2, 3], vec![1., 0., -1., 2., 1., 0.]);
        lin.bias.as_mut().unwrap().value = Tensor::from_vec([2], vec![0.5, -0.5]);
        let x = Tensor::from_vec([1, 3], vec![1., 2., 3.]);
        let y = lin.forward(&x, Mode::Eval);
        // [1*1 + 0*2 - 1*3 + 0.5, 2*1 + 1*2 + 0*3 - 0.5]
        assert_eq!(y.data(), &[-1.5, 3.5]);
    }

    #[test]
    fn backward_weight_grad() {
        let mut rng = TensorRng::seed(2);
        let mut lin = Linear::new("fc", 1, 2, false, &mut rng);
        lin.weight.value = Tensor::from_vec([1, 2], vec![1.0, 1.0]);
        let x = Tensor::from_vec([1, 2], vec![3.0, 4.0]);
        let _ = lin.forward(&x, Mode::Train);
        let gin = lin.backward(&Tensor::from_vec([1, 1], vec![2.0]));
        assert_eq!(lin.weight.grad.data(), &[6.0, 8.0]);
        assert_eq!(gin.data(), &[2.0, 2.0]);
    }

    #[test]
    fn batch_accumulates() {
        let mut rng = TensorRng::seed(3);
        let mut lin = Linear::new("fc", 1, 1, true, &mut rng);
        lin.weight.value = Tensor::from_vec([1, 1], vec![1.0]);
        let x = Tensor::from_vec([2, 1], vec![1.0, 10.0]);
        let _ = lin.forward(&x, Mode::Train);
        let _ = lin.backward(&Tensor::from_vec([2, 1], vec![1.0, 1.0]));
        assert_eq!(lin.weight.grad.data(), &[11.0]);
        assert_eq!(lin.bias.as_ref().unwrap().grad.data(), &[2.0]);
    }

    #[test]
    fn flatten_roundtrip() {
        let mut f = Flatten::new();
        let x = Tensor::from_vec([2, 1, 1, 2, 2], (0..8).map(|v| v as f32).collect());
        let y = f.forward(&x, Mode::Train);
        assert_eq!(y.shape().dims(), &[2, 4]);
        let g = f.backward(&y);
        assert_eq!(g.shape().dims(), &[2, 1, 1, 2, 2]);
        assert_eq!(g.data(), x.data());
    }
}
