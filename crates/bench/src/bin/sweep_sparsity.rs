//! **Sweep: latency vs pruning ratio.** Extends Table IV's single
//! operating point into the full curve: modelled R(2+1)D latency as the
//! stage pruning ratios scale from 0 to 95%, holding the paper's
//! conv2:conv3 ratio (9:8) fixed. Shows where the returns flatten —
//! the unpruned conv1/conv4/conv5 stages become the floor.

use p3d_bench::{uniform_mask, TableWriter};
use p3d_core::{BlockGrid, KeepRule, PrunedModel};
use p3d_fpga::{network_latency, AcceleratorConfig, DoubleBuffering};
use p3d_models::r2plus1d_18;

fn pruned_at(spec: &p3d_models::NetworkSpec, cfg: &AcceleratorConfig, scale: f64) -> PrunedModel {
    let mut pm = PrunedModel {
        block_shape: Some(cfg.tiling.block_shape()),
        layers: Default::default(),
    };
    if scale <= 0.0 {
        return PrunedModel::dense();
    }
    for inst in spec.conv_instances().unwrap() {
        let eta = match inst.spec.stage.as_str() {
            "conv2_x" => 0.9 * scale,
            "conv3_x" => 0.8 * scale,
            _ => continue,
        };
        let grid = BlockGrid::new(
            inst.spec.out_channels,
            inst.spec.in_channels,
            inst.spec.kernel.0 * inst.spec.kernel.1 * inst.spec.kernel.2,
            cfg.tiling.block_shape(),
        );
        pm.insert(
            inst.spec.name.clone(),
            uniform_mask(grid, eta, KeepRule::Round),
        );
    }
    pm
}

fn main() {
    let spec = r2plus1d_18(101);
    let cfg = AcceleratorConfig::paper_tn8();
    let dense = network_latency(&spec, &cfg, &PrunedModel::dense(), DoubleBuffering::On);
    let dense_ms = dense.ms(&cfg);

    println!("Latency vs pruning intensity — R(2+1)D, (Tm,Tn)=(64,8), 150 MHz");
    println!("(scale 1.0 = the paper's eta: 90% conv2_x / 80% conv3_x)\n");
    let mut t = TableWriter::new(&[
        "Scale",
        "conv2 eta",
        "conv3 eta",
        "Latency (ms)",
        "Speedup",
        "Blocks kept",
    ]);
    for step in 0..=10 {
        let scale = step as f64 / 10.0 * (0.95 / 0.9); // up to eta=95%/84%
        let pm = pruned_at(&spec, &cfg, scale);
        let lat = network_latency(&spec, &cfg, &pm, DoubleBuffering::On);
        let ms = lat.ms(&cfg);
        let kept = if pm.layers.is_empty() {
            1.0
        } else {
            pm.kept_fraction()
        };
        t.row(&[
            format!("{scale:.2}"),
            format!("{:.0}%", 90.0 * scale),
            format!("{:.0}%", 80.0 * scale),
            format!("{ms:.0}"),
            format!("{:.2}x", dense_ms / ms),
            format!("{:.0}%", kept * 100.0),
        ]);
    }
    println!("{}", t.render());
    println!("Reading: the curve saturates near ~2.6x because only conv2_x and");
    println!("conv3_x are pruned — conv1 + conv4_x + conv5_x set a latency floor");
    println!(
        "of ~{:.0} ms. The paper's operating point sits just before the knee.",
        network_latency(
            &spec,
            &cfg,
            &pruned_at(&spec, &cfg, 1.055),
            DoubleBuffering::On
        )
        .ms(&cfg)
    );
}
