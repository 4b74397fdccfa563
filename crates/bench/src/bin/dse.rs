//! Design-space exploration over `(Tm, Tn, Td, Tr, Tc)` (Section IV-B):
//! evaluates every tiling in the standard search space against ZCU102
//! resources for pruned and unpruned R(2+1)D and prints the Pareto
//! leaders. The paper published two hand-chosen points; this binary
//! shows where they sit in the full space.

use p3d_bench::{paper_pruned_model, TableWriter};
use p3d_core::{KeepRule, PrunedModel};
use p3d_fpga::{explore, Board, SearchSpace, Tiling};
use p3d_models::r2plus1d_18;

fn show(title: &str, points: &[p3d_fpga::DesignPoint], highlight: &[Tiling]) {
    println!("{title} — top 10 of {} feasible designs\n", points.len());
    let mut t = TableWriter::new(&["Tiling (Tm,Tn,Td,Tr,Tc)", "Latency (ms)", "DSP", "BRAM36"]);
    for p in points.iter().take(10) {
        let mark = if highlight.contains(&p.tiling) {
            " *"
        } else {
            ""
        };
        t.row(&[
            format!(
                "({},{},{},{},{}){mark}",
                p.tiling.tm, p.tiling.tn, p.tiling.td, p.tiling.tr, p.tiling.tc
            ),
            format!("{:.0}", p.ms),
            p.resources.dsps.to_string(),
            format!("{:.0}", p.resources.bram36_partitioned),
        ]);
    }
    for (rank, p) in points.iter().enumerate() {
        if highlight.contains(&p.tiling) && rank >= 10 {
            t.row(&[
                format!(
                    "({},{},{},{},{}) * (rank {})",
                    p.tiling.tm,
                    p.tiling.tn,
                    p.tiling.td,
                    p.tiling.tr,
                    p.tiling.tc,
                    rank + 1
                ),
                format!("{:.0}", p.ms),
                p.resources.dsps.to_string(),
                format!("{:.0}", p.resources.bram36_partitioned),
            ]);
        }
    }
    println!("{}", t.render());
}

fn main() {
    let spec = r2plus1d_18(101);
    let board = Board::zcu102();
    let space = SearchSpace::standard();
    let paper_points = [Tiling::paper_tn8(), Tiling::paper_tn16()];
    println!(
        "Exploring {} candidate tilings on {} (* marks the paper's designs)\n",
        space.len(),
        board.name
    );

    let dense = explore(&spec, &PrunedModel::dense(), &space, &board, 150.0);
    show("Unpruned R(2+1)D", &dense, &paper_points);

    // Pruned exploration: the mask must be rebuilt per block shape, so
    // candidates with (Tm,Tn) != the mask's shape are evaluated densely
    // by `explore`. Run once per paper block shape.
    for tiling in paper_points {
        let pruned = paper_pruned_model(&spec, &tiling, KeepRule::Round);
        let points = explore(&spec, &pruned, &space, &board, 150.0);
        show(
            &format!("Pruned R(2+1)D, blocks ({},{})", tiling.tm, tiling.tn),
            &points,
            &[tiling],
        );
    }
}
