//! Seeded input generation. Everything a workload feeds the program is
//! made here from the run's seed: the same seed gives byte-identical
//! clips, request bodies, containers and pruned weights.

use p3d_core::{magnitude_block_prune, targets_for_stages, BlockShape, KeepRule, PrunedModel};
use p3d_fpga::{AcceleratorConfig, Ports, QuantizedNetwork, Tiling};
use p3d_infer::wire::encode_clip_f32;
use p3d_models::{build_network, r2plus1d_lite_wide, r2plus1d_micro, NetworkSpec};
use p3d_nn::{Layer, LayerExt, Sequential};
use p3d_tensor::{Tensor, TensorRng};
use p3d_video_data::io::{PreprocessConfig, VidHeader, VidWriter};

/// Classifier width of every benchmark model.
pub const CLASSES: usize = 4;
/// Engine replicas in every workload (one per core of a 2-CPU host).
pub const REPLICAS: usize = 2;
/// Batch size of every workload.
pub const BATCH: usize = 8;

/// SplitMix64 step: derives independent sub-seeds from the run seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn uniform_clips(seed: u64, n: usize, shape: [usize; 4]) -> Vec<Tensor> {
    let mut rng = TensorRng::seed(seed);
    (0..n)
        .map(|_| rng.uniform_tensor(shape, 0.0, 1.0))
        .collect()
}

/// `serve_small`: the micro model and distinct 6 KiB f32 clips, each
/// pre-framed as a keep-alive `POST /v1/infer` request.
pub struct ServeSet {
    pub model_seed: u64,
    pub clips: Vec<Tensor>,
    pub requests: Vec<Vec<u8>>,
}

pub fn micro_spec() -> NetworkSpec {
    r2plus1d_micro(CLASSES)
}

pub fn micro_shape() -> [usize; 4] {
    let (c, d, h, w) = micro_spec().input;
    [c, d, h, w]
}

impl ServeSet {
    pub fn new(seed: u64, pool: usize) -> ServeSet {
        let clips = uniform_clips(mix(seed, 11), pool, micro_shape());
        let shape = micro_shape().map(|d| d.to_string()).join(",");
        let requests = clips
            .iter()
            .map(|clip| {
                let body = encode_clip_f32(clip);
                let mut req = format!(
                    "POST /v1/infer HTTP/1.1\r\nHost: bench\r\nContent-Type: application/x-p3d-f32\r\n\
                     X-P3D-Shape: {shape}\r\nX-P3D-Client: bench\r\nContent-Length: {}\r\n\r\n",
                    body.len()
                )
                .into_bytes();
                req.extend_from_slice(&body);
                req
            })
            .collect();
        ServeSet {
            model_seed: mix(seed, 12),
            clips,
            requests,
        }
    }

    pub fn network(&self) -> Sequential {
        build_network(&micro_spec(), self.model_seed)
    }
}

/// `pruned_*`: lite-wide, block-pruned at the paper's stage ratios, and
/// a pool of distinct clips.
pub struct PrunedSet {
    pub spec: NetworkSpec,
    pub model_seed: u64,
    pub params: Vec<(String, Tensor)>,
    pub pruned: PrunedModel,
    pub clips: Vec<Tensor>,
}

/// The paper's pruning unit: `Tm x Tn` = 8 x 4 blocks.
pub fn block_shape() -> BlockShape {
    BlockShape::new(8, 4)
}

/// The simulated accelerator, tiled to match the pruning blocks.
pub fn accel_config() -> AcceleratorConfig {
    let b = block_shape();
    AcceleratorConfig {
        tiling: Tiling::new(b.tm, b.tn, 2, 8, 8),
        ports: Ports::new(2, 2, 2),
        freq_mhz: 150.0,
        data_bits: 16,
    }
}

impl PrunedSet {
    pub fn new(seed: u64, pool: usize) -> PrunedSet {
        let spec = r2plus1d_lite_wide(CLASSES);
        let model_seed = mix(seed, 21);
        let mut net = build_network(&spec, model_seed);
        let targets = targets_for_stages(&spec, &[("conv2_x", 0.9), ("conv3_x", 0.8)]);
        let pruned = magnitude_block_prune(&mut net, block_shape(), &targets, KeepRule::Round);
        let (c, d, h, w) = spec.input;
        PrunedSet {
            params: net.snapshot_params(),
            clips: uniform_clips(mix(seed, 22), pool, [c, d, h, w]),
            spec,
            model_seed,
            pruned,
        }
    }

    /// A fresh network carrying the pruned weights on the dense path.
    pub fn network(&self) -> Sequential {
        let mut net = build_network(&self.spec, self.model_seed);
        let mut it = self.params.iter();
        net.visit_params(&mut |p| {
            let (name, value) = it.next().expect("parameter count matches the spec");
            assert_eq!(*name, p.name, "parameter order matches the spec");
            p.value = value.clone();
        });
        net
    }

    pub fn quantized(&self) -> QuantizedNetwork {
        QuantizedNetwork::from_network(&self.spec, &mut self.network(), accel_config())
    }

    pub fn param(&self, name: &str) -> &Tensor {
        &self
            .params
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("no parameter {name}"))
            .1
    }
}

/// Geometry of the `ingest_large` source container.
#[derive(Clone, Copy, Debug)]
pub struct IngestGeom {
    pub src_w: u32,
    pub src_h: u32,
    pub clips: usize,
    pub clip_depth: usize,
    pub preprocess: PreprocessConfig,
}

impl IngestGeom {
    /// 640x360 gray8 camera frames, resized 20x20 and cropped 16x16 to
    /// the micro model's input.
    pub fn standard() -> IngestGeom {
        IngestGeom {
            src_w: 640,
            src_h: 360,
            clips: 32,
            clip_depth: micro_shape()[1],
            preprocess: PreprocessConfig {
                resize_h: 20,
                resize_w: 20,
                crop_h: 16,
                crop_w: 16,
            },
        }
    }

    pub fn clip_shape(&self) -> [usize; 4] {
        [
            1,
            self.clip_depth,
            self.preprocess.crop_h,
            self.preprocess.crop_w,
        ]
    }
}

/// `ingest_large`: a P3DVID1 container of seeded frames, plus the micro
/// model it feeds.
pub struct IngestSet {
    pub geom: IngestGeom,
    pub model_seed: u64,
    pub container: Vec<u8>,
}

impl IngestSet {
    pub fn new(seed: u64, geom: IngestGeom) -> IngestSet {
        let frames = (geom.clips * geom.clip_depth) as u32;
        let header = VidHeader::gray8(geom.src_w, geom.src_h, frames, 30_000);
        let mut rng = TensorRng::seed(mix(seed, 31));
        let mut frame = vec![0u8; header.frame_bytes()];
        let mut w = VidWriter::new(Vec::new(), header).expect("in-memory container header");
        for _ in 0..frames {
            for b in frame.iter_mut() {
                *b = rng.below(256) as u8;
            }
            w.write_frame(&frame).expect("in-memory container frame");
        }
        IngestSet {
            geom,
            model_seed: mix(seed, 32),
            container: w.finish().expect("in-memory container"),
        }
    }

    pub fn network(&self) -> Sequential {
        build_network(&micro_spec(), self.model_seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(t: &[Tensor]) -> Vec<u32> {
        t.iter()
            .flat_map(|t| t.data().iter().map(|v| v.to_bits()))
            .collect()
    }

    fn small_geom() -> IngestGeom {
        IngestGeom {
            src_w: 64,
            src_h: 36,
            clips: 2,
            ..IngestGeom::standard()
        }
    }

    #[test]
    fn same_seed_gives_identical_inputs_and_another_seed_differs() {
        let (a, b, c) = (
            ServeSet::new(7, 4),
            ServeSet::new(7, 4),
            ServeSet::new(8, 4),
        );
        assert_eq!(a.requests, b.requests);
        assert_ne!(a.requests, c.requests);

        let (a, b, c) = (
            IngestSet::new(7, small_geom()),
            IngestSet::new(7, small_geom()),
            IngestSet::new(8, small_geom()),
        );
        assert_eq!(a.container, b.container);
        assert_ne!(a.container, c.container);

        let (a, b, c) = (
            PrunedSet::new(7, 2),
            PrunedSet::new(7, 2),
            PrunedSet::new(8, 2),
        );
        let weights = |s: &PrunedSet| -> Vec<u32> {
            s.params
                .iter()
                .flat_map(|(_, t)| t.data().iter().map(|v| v.to_bits()))
                .collect()
        };
        assert_eq!(weights(&a), weights(&b));
        assert_ne!(weights(&a), weights(&c));
        assert_eq!(bits(&a.clips), bits(&b.clips));
        assert_ne!(bits(&a.clips), bits(&c.clips));
    }

    #[test]
    fn pruning_keeps_the_paper_fraction() {
        let s = PrunedSet::new(1, 1);
        let kept = s.pruned.kept_fraction();
        assert!((0.15..0.21).contains(&kept), "kept fraction {kept}");
    }
}
