//! Regenerates **Table IV** — the performance comparison: our modelled
//! accelerator on C3D (unpruned) and R(2+1)D (pruned and unpruned) at
//! both design points, alongside the published FPGA/CPU/GPU rows, plus
//! the paper's headline speedup claims.
//!
//! Conventions (carried from the paper):
//! * C3D throughput uses 1 op per MAC (the convention of \[13\]);
//! * R(2+1)D throughput uses 2 ops per MAC and the *pruned* op count;
//! * power for our designs comes from `PowerModel::paper_zcu102()`, a
//!   static+per-DSP decomposition calibrated on the paper's two measured
//!   points (5.4 W / 6.7 W) — simulation cannot measure power directly
//!   (see EXPERIMENTS.md).

use p3d_bench::published::{ours, TABLE4_ROWS};
use p3d_bench::{paper_pruned_model, TableWriter};
use p3d_core::{KeepRule, PruningReport, PrunedModel};
use p3d_fpga::{network_latency, AcceleratorConfig, DoubleBuffering, PowerModel};
use p3d_models::{c3d, r2plus1d_18};

struct Measured {
    label: String,
    freq: f64,
    power: f64,
    gops: f64,
    latency_ms: f64,
    latency_unpruned_ms: Option<f64>,
    dsps: usize,
}

fn measure_c3d(cfg: &AcceleratorConfig, power: f64, dsps: usize, label: &str) -> Measured {
    let spec = c3d(101);
    let lat = network_latency(&spec, cfg, &PrunedModel::dense(), DoubleBuffering::On);
    let ms = lat.ms(cfg);
    // 1 op/MAC for C3D, matching [13]'s GOPS convention.
    let gop = spec.conv_macs().unwrap() as f64 / 1e9;
    Measured {
        label: label.into(),
        freq: cfg.freq_mhz,
        power,
        gops: gop / (ms / 1e3),
        latency_ms: ms,
        latency_unpruned_ms: None,
        dsps,
    }
}

fn measure_r2p1d(cfg: &AcceleratorConfig, power: f64, dsps: usize, label: &str) -> Measured {
    let spec = r2plus1d_18(101);
    let pruned = paper_pruned_model(&spec, &cfg.tiling, KeepRule::Round);
    let lat_pruned = network_latency(&spec, cfg, &pruned, DoubleBuffering::On);
    let lat_dense = network_latency(&spec, cfg, &PrunedModel::dense(), DoubleBuffering::On);
    let ms = lat_pruned.ms(cfg);
    // 2 ops/MAC on the pruned op count, matching the paper's 67.7 GOPS.
    let report = PruningReport::build(&spec, &pruned).unwrap();
    let (_, _, _, ops_after) = report.totals();
    Measured {
        label: label.into(),
        freq: cfg.freq_mhz,
        power,
        gops: ops_after as f64 / 1e9 / (ms / 1e3),
        latency_ms: ms,
        latency_unpruned_ms: Some(lat_dense.ms(cfg)),
        dsps,
    }
}

fn main() {
    let cfg8 = AcceleratorConfig::paper_tn8();
    let cfg16 = AcceleratorConfig::paper_tn16();
    let spec = r2plus1d_18(101);
    let instances = spec.conv_instances().unwrap();
    let est8 = p3d_fpga::estimate_resources(&instances, &cfg8);
    let est16 = p3d_fpga::estimate_resources(&instances, &cfg16);
    let power = PowerModel::paper_zcu102();
    let p8 = power.power_w(&est8, &cfg8);
    let p16 = power.power_w(&est16, &cfg16);

    let measured = vec![
        measure_c3d(&cfg8, p8, est8.dsps, "C3D Ours (Tn=8)"),
        measure_c3d(&cfg16, p16, est16.dsps, "C3D Ours (Tn=16)"),
        measure_r2p1d(&cfg8, p8, est8.dsps, "R(2+1)D Ours (Tn=8)"),
        measure_r2p1d(&cfg16, p16, est16.dsps, "R(2+1)D Ours (Tn=16)"),
    ];

    println!("Table IV: performance comparison\n");
    let mut t = TableWriter::new(&[
        "Design",
        "Freq (MHz)",
        "Power (W)",
        "GOPS",
        "GOPS/W",
        "DSPs",
        "Latency (ms)",
    ]);
    for r in TABLE4_ROWS {
        t.row(&[
            format!("{} {}", r.network, r.device),
            format!("{:.0}", r.freq_mhz),
            r.power_w.map(|p| format!("{p:.1}")).unwrap_or("-".into()),
            format!("{:.1}", r.gops),
            r.power_w
                .map(|p| format!("{:.1}", r.gops / p))
                .unwrap_or("-".into()),
            r.dsps.map(|d| d.to_string()).unwrap_or("-".into()),
            format!("{:.1}", r.latency_ms),
        ]);
    }
    for m in &measured {
        let latency = match m.latency_unpruned_ms {
            Some(unpruned) => format!("{:.0} ({:.0})", m.latency_ms, unpruned),
            None => format!("{:.0}", m.latency_ms),
        };
        t.row(&[
            m.label.clone(),
            format!("{:.0}", m.freq),
            format!("{:.1}", m.power),
            format!("{:.1}", m.gops),
            format!("{:.1}", m.gops / m.power),
            m.dsps.to_string(),
            latency,
        ]);
    }
    println!("{}", t.render());

    println!("Paper's own rows for comparison:");
    println!(
        "  C3D Ours: {} / {} ms;  R(2+1)D Ours: {} ({}) / {} ({}) ms",
        ours::C3D_TN8.2,
        ours::C3D_TN16.2,
        ours::R2P1D_TN8.2,
        ours::R2P1D_TN8.3,
        ours::R2P1D_TN16.2,
        ours::R2P1D_TN16.3
    );

    // Headline claims.
    let r8 = &measured[2];
    let pruned_speedup = r8.latency_unpruned_ms.unwrap() / r8.latency_ms;
    let vs_fc3d_latency = TABLE4_ROWS[0].latency_ms / measured[3].latency_ms;
    let fc3d_eff = TABLE4_ROWS[0].gops / TABLE4_ROWS[0].power_w.unwrap();
    let ours_eff = measured[3].gops / measured[3].power;
    println!("\nHeadline claims (model vs paper):");
    println!(
        "  pruned vs unpruned R(2+1)D speedup: {pruned_speedup:.2}x   (paper: ~2.6x-2.7x)"
    );
    println!(
        "  pruned R(2+1)D (Tn=16) vs F-C3D [13] latency: {vs_fc3d_latency:.2}x   (paper: ~2.3x)"
    );
    println!(
        "  power efficiency vs [13]: {:.2}x   (paper: ~2.3x)",
        ours_eff / fc3d_eff
    );
}
