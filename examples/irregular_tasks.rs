//! The async–finish programming model, simulated: the paper's UTS
//! benchmark on the 20-core simulated machine with Cuttlefish adapting
//! frequencies, reproducing the compute-bound result (CF stays at max,
//! uncore drops to ~1.2 GHz).
//!
//! Run with: `cargo run --release --example irregular_tasks`

use bench::Scenario;
use cuttlefish::controller::NodePolicy;
use cuttlefish::Config;
use workloads::ProgModel;

fn main() {
    // The UTS benchmark under Cuttlefish — one declarative Scenario
    // (HClib model = work-stealing scheduler), stepped by hand to read
    // the final machine state.
    let scenario = Scenario::bench("UTS", ProgModel::HClib, 0.2)
        .policy(NodePolicy::Cuttlefish(Config::default()))
        .seed(11)
        .build();
    let (mut proc, mut wl, mut controller) = scenario.build_single_node();
    while !proc.workload_drained(wl.as_mut()) {
        proc.step(wl.as_mut());
        controller.on_quantum(&mut proc);
    }
    println!(
        "simulated UTS (work-stealing, 20 cores): {:.1} virtual s, {:.0} J",
        proc.now_seconds(),
        proc.total_energy_joules()
    );
    println!(
        "final frequencies: CF {} (compute-bound: stay fast), UF {} (uncore idle: go slow)",
        proc.core_freq(),
        proc.uncore_freq()
    );
    for r in controller.report() {
        println!(
            "  TIPI {} ({:.0}% of samples): CFopt {:?}, UFopt {:?}",
            r.label,
            r.share * 100.0,
            r.cf_opt.map(|f| f.to_string()),
            r.uf_opt.map(|f| f.to_string())
        );
    }
}
