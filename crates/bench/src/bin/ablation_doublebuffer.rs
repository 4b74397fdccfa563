//! **Ablation: double buffering.** Section IV-A: "the double buffering
//! technique is utilized to reduce the latency through overlapping data
//! transfer with computation." This binary quantifies that choice with
//! the latency model's `DoubleBuffering::{On, Off}` modes.

use p3d_bench::{paper_pruned_model, TableWriter};
use p3d_core::{KeepRule, PrunedModel};
use p3d_fpga::{network_latency, AcceleratorConfig, DoubleBuffering};
use p3d_models::{c3d, r2plus1d_18};

fn main() {
    println!("Ablation: double buffering (overlap of transfers with compute)\n");
    let mut t = TableWriter::new(&[
        "Network",
        "Design",
        "Overlap ON (ms)",
        "Overlap OFF (ms)",
        "Gain",
    ]);
    for (net_name, spec) in [("C3D", c3d(101)), ("R(2+1)D", r2plus1d_18(101))] {
        for cfg in [
            AcceleratorConfig::paper_tn8(),
            AcceleratorConfig::paper_tn16(),
        ] {
            for (label, pruned) in [
                ("dense", PrunedModel::dense()),
                (
                    "pruned",
                    paper_pruned_model(&spec, &cfg.tiling, KeepRule::Round),
                ),
            ] {
                if net_name == "C3D" && label == "pruned" {
                    continue; // the paper prunes only R(2+1)D
                }
                let on = network_latency(&spec, &cfg, &pruned, DoubleBuffering::On);
                let off = network_latency(&spec, &cfg, &pruned, DoubleBuffering::Off);
                t.row(&[
                    net_name.into(),
                    format!("(64,{}) {}", cfg.tiling.tn, label),
                    format!("{:.0}", on.ms(&cfg)),
                    format!("{:.0}", off.ms(&cfg)),
                    format!("{:.2}x", off.total_cycles as f64 / on.total_cycles as f64),
                ]);
            }
        }
    }
    println!("{}", t.render());
    println!("Reading: overlapping hides the smaller of (transfer, compute) per");
    println!("iteration; the gain is largest for transfer-heavy temporal (Kx1x1)");
    println!("layers and for the wider Tn=16 design.");
}
