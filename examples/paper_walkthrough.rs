//! A narrated end-to-end walkthrough of the whole compilation pipeline on
//! the paper's Figure 1 dot product: legality → partitioning → loop
//! transformation → modulo scheduling → register allocation → code layout
//! → execution.
//!
//! ```text
//! cargo run --example paper_walkthrough
//! ```

use selvec::analysis::{vectorizable_ops, DepGraph};
use selvec::core::{partition_ops, SelectiveConfig};
use selvec::ir::RegClass;
use selvec::machine::MachineConfig;
use selvec::modsched::{allocate_rotating, emit_flat, emit_flat_for, modulo_schedule};
use selvec::sim::{execute_schedule, run_source, Memory};
use selvec::vectorize::try_transform;
use selvec::workloads::figure1_dot_product;

fn main() {
    let machine = MachineConfig::figure1();
    let looop = figure1_dot_product();

    println!("── 1. the source loop ─────────────────────────────────────");
    println!("{looop}");

    println!("── 2. dependence analysis & legality ──────────────────────");
    let g = DepGraph::build(&looop);
    println!("{} dependence edges", g.edges().len());
    let legal = vectorizable_ops(&looop, &g, machine.vector_length);
    for (op, status) in looop.ops().iter().zip(&legal) {
        println!("  {:<28} {:?}", op.to_string(), status);
    }

    println!("\n── 3. selective vectorization (Figure 2) ──────────────────");
    let part = partition_ops(&looop, &g, &machine, &SelectiveConfig::default());
    println!(
        "cost {} over {} iterations ({} KL passes, {} probes)",
        part.cost, machine.vector_length, part.iterations, part.moves_evaluated
    );
    for (op, &v) in looop.ops().iter().zip(&part.partition) {
        println!("  {:<28} → {}", op.to_string(), if v { "VECTOR" } else { "scalar" });
    }

    println!("\n── 4. loop transformation ─────────────────────────────────");
    let t = try_transform(&looop, &machine, &part.partition).expect("legal partition");
    println!("{}", t.looop);

    println!("── 5. modulo scheduling (Rau) ─────────────────────────────");
    let g2 = DepGraph::build(&t.looop);
    let sched = modulo_schedule(&t.looop, &g2, &machine).expect("schedulable");
    println!(
        "II {} (ResMII {}, RecMII {}), {} stages — {} per original iteration",
        sched.ii,
        sched.resmii,
        sched.recmii,
        sched.stage_count,
        sched.ii_per_original(t.looop.iter_scale)
    );

    println!("\n── 6. rotating-register allocation ────────────────────────");
    let regs = allocate_rotating(&t.looop, &g2, &machine, &sched).expect("fits");
    for (slot, class) in RegClass::ALL.iter().enumerate() {
        if regs.used[slot] > 0 {
            println!("  {class}: {} rotating registers", regs.used[slot]);
        }
    }

    println!("\n── 7. code layout ─────────────────────────────────────────");
    print!("{}", emit_flat(&t.looop, &sched));

    println!("── 8. execution ───────────────────────────────────────────");
    let n = t.looop.executed_iterations();
    let mut mem = Memory::for_arrays(&t.looop.arrays);
    let flat = emit_flat_for(&t.looop, &sched, n);
    let (outs, report) =
        execute_schedule(&t.looop, &machine, &flat, &mut mem, 0..n).expect("executable schedule");
    let reference = run_source(&looop);
    for o in &outs {
        let want = reference.live_outs[&o.name];
        println!(
            "  executed {} = {:.6}  (in-order source: {:.6}) {}",
            o.name,
            o.value.as_f64(),
            want.as_f64(),
            if o.value.approx_eq(want) { "✓" } else { "✗" }
        );
    }
    println!(
        "  {} cycles measured, measured II {} (scheduled {})",
        report.total_cycles,
        report.measured_ii().map_or_else(|| "-".into(), |ii| format!("{ii:.2}")),
        sched.ii
    );
    println!(
        "\n{} pipelined iterations, {} remainder for the cleanup loop",
        n,
        t.looop.remainder_iterations()
    );
}
