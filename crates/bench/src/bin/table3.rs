//! Regenerates **Table III** — FPGA resource utilization on the ZCU102
//! for the two design points, from the resource model (Eqs. 14-18 plus
//! partition-aware BRAM counting).

use p3d_bench::TableWriter;
use p3d_fpga::{estimate_resources, utilization, AcceleratorConfig, Board};
use p3d_models::r2plus1d_18;

fn main() {
    let spec = r2plus1d_18(101);
    let instances = spec.conv_instances().expect("spec shape-checks");
    let board = Board::zcu102();

    println!("Table III: FPGA resource utilization (ZCU102)\n");
    let mut t = TableWriter::new(&["Design", "Resource", "DSP", "BRAM36", "LUT", "FF"]);
    t.row(&[
        "".into(),
        "Available".into(),
        board.dsps.to_string(),
        board.bram36.to_string(),
        format!("{}K", board.luts / 1000),
        format!("{}K", board.ffs / 1000),
    ]);
    for (label, cfg, paper) in [
        (
            "(64,8)",
            AcceleratorConfig::paper_tn8(),
            (695, 710.5, 74, 51),
        ),
        (
            "(64,16)",
            AcceleratorConfig::paper_tn16(),
            (1215, 912.0, 148, 76),
        ),
    ] {
        let est = estimate_resources(&instances, &cfg);
        let (dsp_pct, bram_pct, lut_pct, ff_pct) = utilization(&est, &board);
        // BRAM demand beyond the board spills to LUTRAM in Vivado; report
        // the on-board share like the paper does.
        let bram_used = est.bram36_partitioned.min(board.bram36 as f64);
        t.row(&[
            label.into(),
            "Used (model)".into(),
            est.dsps.to_string(),
            format!("{bram_used:.1}"),
            format!("{}K", est.luts / 1000),
            format!("{}K", est.ffs / 1000),
        ]);
        t.row(&[
            "".into(),
            "Utilization".into(),
            format!("{dsp_pct:.0}%"),
            format!("{:.0}%", bram_pct.min(100.0)),
            format!("{lut_pct:.0}%"),
            format!("{ff_pct:.0}%"),
        ]);
        t.row(&[
            "".into(),
            "Paper".into(),
            paper.0.to_string(),
            format!("{:.1}", paper.1),
            format!("{}K", paper.2),
            format!("{}K", paper.3),
        ]);
    }
    println!("{}", t.render());
    println!(
        "Model notes: DSP = Tm*Tn + {} (post-processing/addressing overhead);",
        p3d_fpga::resources::DSP_OVERHEAD
    );
    println!("BRAM counts banked buffers (partition-aware); LUT/FF are linear fits");
    println!("through the paper's two design points (see crates/fpga/src/resources.rs).");
}
