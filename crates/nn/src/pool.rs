//! 3D pooling layers: max pooling, average pooling, and the global
//! spatio-temporal average pool that closes both R(2+1)D and C3D.

use crate::arena::{BufId, EvalArena};
use crate::layer::{Layer, Mode, Param};
use p3d_tensor::parallel::{parallel_chunk_map, parallel_zip_chunk_map};
use p3d_tensor::{Shape, Tensor};

fn pooled_extent(i: usize, k: usize, s: usize) -> usize {
    p3d_tensor::shape::conv_out(i, k, s, 0)
}

/// 3D max pooling with kernel `(Kd, Kr, Kc)` and stride `(Sd, Sr, Sc)`.
///
/// C3D uses `pool1 = (1,2,2)` and `(2,2,2)` elsewhere; both are expressed
/// with this layer.
pub struct MaxPool3d {
    kernel: (usize, usize, usize),
    stride: (usize, usize, usize),
    /// For each output element, the flat input offset of its maximum.
    argmax: Option<Vec<usize>>,
    input_shape: Option<Shape>,
}

impl MaxPool3d {
    /// Creates a max-pool layer; stride defaults to the kernel when equal
    /// pooling is wanted, pass it explicitly here.
    pub fn new(kernel: (usize, usize, usize), stride: (usize, usize, usize)) -> Self {
        MaxPool3d {
            kernel,
            stride,
            argmax: None,
            input_shape: None,
        }
    }

    fn out_shape(&self, s: Shape) -> (usize, usize, usize, usize, usize) {
        assert_eq!(s.rank(), 5, "pool expects [B, C, D, H, W], got {s}");
        (
            s.dim(0),
            s.dim(1),
            pooled_extent(s.dim(2), self.kernel.0, self.stride.0),
            pooled_extent(s.dim(3), self.kernel.1, self.stride.1),
            pooled_extent(s.dim(4), self.kernel.2, self.stride.2),
        )
    }
}

impl Layer for MaxPool3d {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let s = input.shape();
        let (b, c, od, oh, ow) = self.out_shape(s);
        let (di, hi, wi) = (s.dim(2), s.dim(3), s.dim(4));
        let (kd, kr, kc) = self.kernel;
        let (sd, sr, sc) = self.stride;
        let data = input.data();

        let mut out = Tensor::zeros(Shape::d5(b, c, od, oh, ow));
        let mut argmax = vec![0usize; out.len()];
        let plane_out = od * oh * ow;
        let plane_in = di * hi * wi;
        // Parallel over [batch x channel] planes: value and argmax planes
        // advance in lockstep, each plane owned by exactly one worker.
        parallel_zip_chunk_map(
            out.data_mut(),
            plane_out.max(1),
            &mut argmax,
            plane_out.max(1),
            |plane, out_plane, arg_plane| {
                let base = plane * plane_in;
                let mut oi = 0usize;
                for odi in 0..od {
                    for ohi in 0..oh {
                        for owi in 0..ow {
                            let mut best = f32::NEG_INFINITY;
                            let mut best_off = 0usize;
                            for kdi in 0..kd {
                                let d = odi * sd + kdi;
                                for kri in 0..kr {
                                    let h = ohi * sr + kri;
                                    let row = base + d * hi * wi + h * wi + owi * sc;
                                    for kci in 0..kc {
                                        let off = row + kci;
                                        if data[off] > best {
                                            best = data[off];
                                            best_off = off;
                                        }
                                    }
                                }
                            }
                            out_plane[oi] = best;
                            arg_plane[oi] = best_off;
                            oi += 1;
                        }
                    }
                }
            },
        );
        if mode == Mode::Train {
            self.argmax = Some(argmax);
            self.input_shape = Some(s);
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let argmax = self
            .argmax
            .as_ref()
            .expect("maxpool backward called before forward(Train)");
        let shape = self.input_shape.expect("maxpool input shape missing");
        assert_eq!(argmax.len(), grad_out.len(), "maxpool grad length mismatch");
        let mut grad_in = Tensor::zeros(shape);
        for (i, &off) in argmax.iter().enumerate() {
            grad_in.data_mut()[off] += grad_out.data()[i];
        }
        grad_in
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn eval_into(&mut self, arena: &mut EvalArena, input: BufId) -> BufId {
        let s = arena.shape(input);
        let (b, c, od, oh, ow) = self.out_shape(s);
        let (di, hi, wi) = (s.dim(2), s.dim(3), s.dim(4));
        let (kd, kr, kc) = self.kernel;
        let (sd, sr, sc) = self.stride;
        let out = arena.acquire(Shape::d5(b, c, od, oh, ow));
        let (data, out_data) = arena.pair(input, out);
        let plane_out = od * oh * ow;
        let plane_in = di * hi * wi;
        // Same comparison loop as `forward` (argmax bookkeeping elided —
        // it does not affect values), serial over planes: per-element
        // arithmetic is plane-local, so values are bitwise identical.
        for plane in 0..b * c {
            let base = plane * plane_in;
            let out_plane = &mut out_data[plane * plane_out..(plane + 1) * plane_out];
            let mut oi = 0usize;
            for odi in 0..od {
                for ohi in 0..oh {
                    for owi in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        for kdi in 0..kd {
                            let d = odi * sd + kdi;
                            for kri in 0..kr {
                                let h = ohi * sr + kri;
                                let row = base + d * hi * wi + h * wi + owi * sc;
                                for kci in 0..kc {
                                    let off = row + kci;
                                    if data[off] > best {
                                        best = data[off];
                                    }
                                }
                            }
                        }
                        out_plane[oi] = best;
                        oi += 1;
                    }
                }
            }
        }
        arena.release(input);
        out
    }

    fn describe(&self) -> String {
        format!("maxpool3d({:?}/{:?})", self.kernel, self.stride)
    }
}

/// Global spatio-temporal average pooling: `[B, C, D, H, W] -> [B, C]`.
///
/// This is the "spatio-temporal average pooling" layer of Table I that
/// feeds the final FC layer.
pub struct GlobalAvgPool {
    input_shape: Option<Shape>,
}

impl GlobalAvgPool {
    /// Creates the layer.
    pub fn new() -> Self {
        GlobalAvgPool { input_shape: None }
    }
}

impl Default for GlobalAvgPool {
    fn default() -> Self {
        GlobalAvgPool::new()
    }
}

impl Layer for GlobalAvgPool {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let s = input.shape();
        assert_eq!(s.rank(), 5, "global avg pool expects rank-5, got {s}");
        let (b, c) = (s.dim(0), s.dim(1));
        let spatial = s.dim(2) * s.dim(3) * s.dim(4);
        let mut out = Tensor::zeros(Shape::d2(b, c));
        let data = input.data();
        parallel_chunk_map(out.data_mut(), c.max(1), |bi, row| {
            for (ch, o) in row.iter_mut().enumerate() {
                let base = (bi * c + ch) * spatial;
                *o = data[base..base + spatial].iter().sum::<f32>() / spatial as f32;
            }
        });
        if mode == Mode::Train {
            self.input_shape = Some(s);
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let s = self
            .input_shape
            .expect("global avg pool backward called before forward(Train)");
        let (b, c) = (s.dim(0), s.dim(1));
        let spatial = s.dim(2) * s.dim(3) * s.dim(4);
        assert_eq!(grad_out.shape().dims(), &[b, c], "grad shape mismatch");
        let mut grad_in = Tensor::zeros(s);
        let god = grad_out.data();
        parallel_chunk_map(grad_in.data_mut(), spatial.max(1), |plane, chunk| {
            let g = god[plane] / spatial as f32;
            for x in chunk.iter_mut() {
                *x = g;
            }
        });
        grad_in
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn eval_into(&mut self, arena: &mut EvalArena, input: BufId) -> BufId {
        let s = arena.shape(input);
        assert_eq!(s.rank(), 5, "global avg pool expects rank-5, got {s}");
        let (b, c) = (s.dim(0), s.dim(1));
        let spatial = s.dim(2) * s.dim(3) * s.dim(4);
        let out = arena.acquire(Shape::d2(b, c));
        let (data, out_data) = arena.pair(input, out);
        // Same reduction expression as `forward` (`sum::<f32>() /
        // spatial as f32`), serial over rows.
        for bi in 0..b {
            for ch in 0..c {
                let base = (bi * c + ch) * spatial;
                out_data[bi * c + ch] =
                    data[base..base + spatial].iter().sum::<f32>() / spatial as f32;
            }
        }
        arena.release(input);
        out
    }

    fn describe(&self) -> String {
        "global_avg_pool".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maxpool_picks_maximum() {
        let mut p = MaxPool3d::new((1, 2, 2), (1, 2, 2));
        let x = Tensor::from_vec([1, 1, 1, 2, 4], vec![1., 5., 2., 3., 4., 0., -1., 7.]);
        let y = p.forward(&x, Mode::Eval);
        assert_eq!(y.shape().dims(), &[1, 1, 1, 1, 2]);
        assert_eq!(y.data(), &[5., 7.]);
    }

    #[test]
    fn maxpool_temporal() {
        let mut p = MaxPool3d::new((2, 1, 1), (2, 1, 1));
        let x = Tensor::from_vec([1, 1, 4, 1, 1], vec![1., 9., 3., 2.]);
        let y = p.forward(&x, Mode::Eval);
        assert_eq!(y.data(), &[9., 3.]);
    }

    #[test]
    fn maxpool_backward_routes_to_argmax() {
        let mut p = MaxPool3d::new((1, 2, 2), (1, 2, 2));
        let x = Tensor::from_vec([1, 1, 1, 2, 2], vec![1., 5., 2., 3.]);
        let _ = p.forward(&x, Mode::Train);
        let g = p.backward(&Tensor::from_vec([1, 1, 1, 1, 1], vec![2.0]));
        assert_eq!(g.data(), &[0., 2., 0., 0.]);
    }

    #[test]
    fn global_avg_pool_value_and_shape() {
        let mut p = GlobalAvgPool::new();
        let x = Tensor::from_vec([1, 2, 1, 1, 2], vec![1., 3., 10., 20.]);
        let y = p.forward(&x, Mode::Eval);
        assert_eq!(y.shape().dims(), &[1, 2]);
        assert_eq!(y.data(), &[2., 15.]);
    }

    #[test]
    fn global_avg_pool_backward_spreads_evenly() {
        let mut p = GlobalAvgPool::new();
        let x = Tensor::ones([1, 1, 1, 2, 2]);
        let _ = p.forward(&x, Mode::Train);
        let g = p.backward(&Tensor::from_vec([1, 1], vec![8.0]));
        assert_eq!(g.data(), &[2., 2., 2., 2.]);
    }

    #[test]
    fn c3d_pool1_shape() {
        // C3D pool1 (1,2,2): keeps temporal extent.
        let mut p = MaxPool3d::new((1, 2, 2), (1, 2, 2));
        let x = Tensor::zeros([2, 3, 16, 8, 8]);
        let y = p.forward(&x, Mode::Eval);
        assert_eq!(y.shape().dims(), &[2, 3, 16, 4, 4]);
    }
}
