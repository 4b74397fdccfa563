//! Per-layer latency/traffic breakdown of R(2+1)D on the modelled
//! accelerator — the fine-grained view behind Table IV's totals: which
//! layers dominate, which are compute- vs transfer-bound (the "balance"
//! Section IV-B argues about), and what pruning changes.

use p3d_bench::{paper_pruned_model, TableWriter};
use p3d_core::{KeepRule, PrunedModel};
use p3d_fpga::{network_latency, network_traffic, AcceleratorConfig, Bottleneck, DoubleBuffering};
use p3d_models::r2plus1d_18;
use std::collections::BTreeMap;

fn main() {
    let spec = r2plus1d_18(101);
    let cfg = AcceleratorConfig::paper_tn8();
    let pruned = paper_pruned_model(&spec, &cfg.tiling, KeepRule::Round);

    for (label, pm) in [("UNPRUNED", PrunedModel::dense()), ("PRUNED", pruned)] {
        let lat = network_latency(&spec, &cfg, &pm, DoubleBuffering::On);
        let traffic = network_traffic(&spec, &cfg, &pm);
        println!(
            "R(2+1)D {label} on (Tm,Tn)=(64,8) @ {} MHz — total {:.0} ms\n",
            cfg.freq_mhz,
            lat.ms(&cfg)
        );
        let mut t =
            TableWriter::new(&["Layer", "ms", "Bound", "Skipped", "MACs/byte", "BW (GB/s)"]);
        for (l, tr) in lat.layers.iter().zip(&traffic) {
            let bound = match l.bottleneck {
                Bottleneck::Compute => "comp",
                Bottleneck::WeightLoad => "wgt",
                Bottleneck::InputLoad => "in",
            };
            t.row(&[
                l.name.clone(),
                format!("{:.1}", l.cycles as f64 / (cfg.freq_mhz * 1e3)),
                bound.into(),
                format!(
                    "{:.0}%",
                    100.0 * l.blocks_skipped as f64 / l.blocks_total.max(1) as f64
                ),
                format!("{:.1}", tr.intensity(cfg.data_bits)),
                format!("{:.2}", tr.required_bandwidth(&cfg) / 1e9),
            ]);
        }
        println!("{}", t.render());

        let mut by_stage: BTreeMap<&str, u64> = BTreeMap::new();
        for l in &lat.layers {
            *by_stage.entry(l.stage.as_str()).or_default() += l.cycles;
        }
        println!("Per-stage totals:");
        for (stage, cycles) in by_stage {
            println!(
                "  {:>8}: {:>6.1} ms ({:>4.1}%)",
                stage,
                cycles as f64 / (cfg.freq_mhz * 1e3),
                100.0 * cycles as f64 / lat.total_cycles as f64
            );
        }
        println!();
    }
    println!("Reading: spatial 1x3x3 layers are compute-bound, temporal Kx1x1");
    println!("layers lean on input bandwidth (low MACs/byte) — the imbalance the");
    println!("paper attributes to R(2+1)D's irregular kernels. Pruning removes");
    println!("the conv2_x/conv3_x compute mass and leaves conv1/4/5 as the floor.");
}
