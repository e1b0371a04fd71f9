//! Decision-level explainability (this repo's addition): decompose the
//! trained FNN's chosen action into exact per-rule contributions at each
//! step of a greedy design walk.
//!
//! ```text
//! cargo run --release --example explain_decision
//! ```

use archdse::{Explorer, Param};
use dse_fnn::explain_top_action;
use dse_mfrl::{greedy_rollout, Constraint as _, LowFidelity as _, StepMemo};
use dse_workloads::Benchmark;

fn main() {
    println!("Training an FNN on fft (7.5 mm2)…");
    let explorer = Explorer::for_benchmark(Benchmark::Fft)
        .area_limit_mm2(7.5)
        .lf_episodes(200)
        .hf_budget(5)
        .trace_len(5_000)
        .seed(11);
    let report = explorer.run();
    let space = explorer.space();
    let lf = explorer.lf_model();
    let area = explorer.area();

    println!("\nWalking the greedy policy from the smallest design, explaining");
    println!("the first five decisions:\n");
    let mut point = space.smallest();
    for step in 0..5 {
        let obs = report.fnn.observation(space, &point, lf.cpi(space, &point));
        let explanation = explain_top_action(&report.fnn, &obs, 3);
        println!("step {step}: grow `{}`", explanation.output_name);
        println!("{explanation}\n");
        let param = Param::from_index(explanation.output).expect("valid output");
        match point.increased(space, param) {
            Some(next) if area.fits(space, &next) => point = next,
            _ => break,
        }
    }

    let mut memo = StepMemo::new(space, &lf, &area, true);
    let converged = greedy_rollout(&report.fnn, &mut memo, space.smallest());
    println!("greedy policy converges to: {}", converged.describe(space));
}
