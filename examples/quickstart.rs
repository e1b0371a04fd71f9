//! Quickstart: explore the BOOM design space for one benchmark and
//! print the best design plus the learned fuzzy rules. `archdse space`
//! prints the design space itself (Table 1).
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use archdse::Explorer;
use dse_workloads::Benchmark;

fn main() {
    println!("== DSE: matrix multiplication, 7.5 mm2 budget ==");
    let explorer = Explorer::for_benchmark(Benchmark::Mm)
        .area_limit_mm2(7.5)
        .lf_episodes(120)
        .hf_budget(9)
        .trace_len(10_000)
        .seed(42);
    let report = explorer.run();

    println!("best design : {}", report.best_point.describe(explorer.space()));
    println!(
        "area        : {:.2} mm2 (limit 7.5)",
        explorer.area().area_mm2(explorer.space(), &report.best_point)
    );
    println!("simulated CPI: {:.4}", report.best_cpi);
    println!("HF simulations consumed: {}", report.hf.evaluations);

    println!("\n== Learned rules (pruned) ==");
    for rule in report.rules.iter().take(10) {
        println!("  {rule}");
    }
    if report.rules.is_empty() {
        println!("  (training too short to commit to rules — raise lf_episodes)");
    }
}
