//! Ablation: first-order vs. second-order Stride-Filtered Markov.
//!
//! The paper: "We simulated higher order Markov predictors ... but saw
//! little to no improvement in prediction accuracy and coverage over
//! first order Markov predictor for the programs we examined." This
//! binary re-verifies that claim on the synthetic suite.

use psb_bench::scale_arg;
use psb_core::{SbConfig, Sfm2Predictor, StreamEngine};
use psb_sim::{run_point, MachineConfig, PrefetcherKind, Simulation, Table};
use psb_workloads::Benchmark;

fn main() {
    let Ok(scale) = scale_arg().inspect_err(|u| eprintln!("{u}")) else { std::process::exit(2) };
    println!("Ablation — Markov order (ConfAlloc-Priority PSB)\n");

    let mut t =
        Table::new(vec!["program".into(), "order-1".into(), "order-2".into(), "delta".into()]);

    for bench in Benchmark::ALL {
        eprintln!("running {bench}...");
        let base = run_point(bench, PrefetcherKind::None, scale);
        let o1 = run_point(bench, PrefetcherKind::PsbConfPriority, scale);
        let o2 = Simulation::new(MachineConfig::baseline(), bench.trace(scale), u64::MAX)
            .with_engine(Box::new(StreamEngine::new(
                SbConfig::psb_conf_priority(),
                Sfm2Predictor::paper_baseline(),
                "psb-order2".to_owned(),
            )))
            .run();
        let s1 = o1.speedup_percent_over(&base);
        let s2 = o2.speedup_percent_over(&base);
        t.row(vec![
            bench.name().into(),
            format!("{s1:+.1}%"),
            format!("{s2:+.1}%"),
            format!("{:+.1}pt", s2 - s1),
        ]);
    }
    print!("\n{t}");
    println!("\n(Paper: higher order \"provided little improvement\".)");
}
