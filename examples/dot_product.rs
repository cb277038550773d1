//! The paper's Figure 1, end to end: the dot product on the 3-issue toy
//! machine, showing the transformed loop and the kernel schedule each
//! technique produces.
//!
//! ```text
//! cargo run --example dot_product
//! ```

use selvec::analysis::DepGraph;
use selvec::core::{compile, Strategy};
use selvec::machine::MachineConfig;
use selvec::modsched::{emit_flat_for, validate_schedule};
use selvec::sim::{execute_schedule, Memory};
use selvec::workloads::figure1_dot_product;

fn main() {
    let machine = MachineConfig::figure1();
    let looop = figure1_dot_product();
    println!("{looop}");

    for strategy in Strategy::ALL {
        let compiled = compile(&looop, &machine, strategy).expect("schedulable");
        println!(
            "=== {strategy}: II/original-iteration = {:.2} ===",
            compiled.ii_per_original_iteration()
        );
        for seg in &compiled.segments {
            let s = &seg.schedule;
            println!(
                "segment `{}`: II {} (ResMII {}, RecMII {}), {} stages",
                seg.looop.name, s.ii, s.resmii, s.recmii, s.stage_count
            );
            // Print the kernel: one line per modulo row.
            for row in 0..s.ii {
                let ops: Vec<String> = seg
                    .looop
                    .ops
                    .iter()
                    .filter(|o| s.times[o.id.index()] % s.ii == row)
                    .map(|o| {
                        format!("{}@{}", o.opcode, s.times[o.id.index()])
                    })
                    .collect();
                println!("  row {row}: {}", ops.join("  "));
            }
            // Re-validate, then run the emitted code cycle by cycle.
            let g = DepGraph::build(&seg.looop);
            validate_schedule(&seg.looop, &g, &machine, s).expect("valid schedule");
            let n = seg.looop.executed_iterations();
            let flat = emit_flat_for(&seg.looop, s, n);
            let mut mem = Memory::for_arrays(&seg.looop.arrays);
            let (_, report) = execute_schedule(&seg.looop, &machine, &flat, &mut mem, 0..n)
                .expect("executable schedule");
            println!(
                "  {n} iterations: {} cycles measured, measured II {}",
                report.total_cycles,
                report.measured_ii().map_or_else(|| "-".into(), |ii| format!("{ii:.2}"))
            );
        }
        println!();
    }
}
