//! Ablation (ours): sweep the confidence-allocation threshold and the
//! priority-scheduler constants (hit bonus, aging period) that Section 4
//! fixes at θ=1, +2, and 10 — quantifying how sensitive the design is.

use psb_bench::scale_arg;
use psb_core::{AllocFilter, PsbPrefetcher, SbConfig};
use psb_sim::{run_point, MachineConfig, PrefetcherKind, Simulation, Table};
use psb_workloads::Benchmark;

fn run_with(config: SbConfig, bench: Benchmark, scale: u32) -> psb_sim::SimStats {
    Simulation::new(MachineConfig::baseline(), bench.trace(scale), u64::MAX)
        .with_engine(Box::new(PsbPrefetcher::psb(config)))
        .run()
}

fn main() {
    let Ok(scale) = scale_arg().inspect_err(|u| eprintln!("{u}")) else { std::process::exit(2) };
    println!("Ablation — allocation threshold & priority constants\n");

    let benches = [Benchmark::DeltaBlue, Benchmark::Sis];
    let bases: Vec<_> = benches
        .iter()
        .map(|&b| {
            eprintln!("baseline {b}...");
            run_point(b, PrefetcherKind::None, scale)
        })
        .collect();

    // Sweep 1: confidence threshold.
    let mut t = Table::new(vec![
        "alloc threshold".into(),
        benches[0].name().into(),
        benches[1].name().into(),
    ]);
    for theta in [0u32, 1, 2, 4, 6] {
        eprintln!("threshold {theta}...");
        let cfg =
            SbConfig::psb_conf_priority().with_filter(AllocFilter::Confidence { threshold: theta });
        let mut cells = vec![format!("theta = {theta}")];
        for (&bench, base) in benches.iter().zip(&bases) {
            let s = run_with(cfg, bench, scale);
            cells.push(format!("{:+.1}%", s.speedup_percent_over(base)));
        }
        t.row(cells);
    }
    println!("{t}");

    // Sweep 2: hit bonus and aging period.
    let mut t2 = Table::new(vec![
        "hit bonus / aging".into(),
        benches[0].name().into(),
        benches[1].name().into(),
    ]);
    for (bonus, aging) in [(1u32, 10u64), (2, 10), (4, 10), (2, 4), (2, 32)] {
        eprintln!("bonus {bonus}, aging {aging}...");
        let mut cfg = SbConfig::psb_conf_priority();
        cfg.hit_bonus = bonus;
        cfg.aging_period = aging;
        let mut cells = vec![format!("+{bonus} / every {aging}")];
        for (&bench, base) in benches.iter().zip(&bases) {
            let s = run_with(cfg, bench, scale);
            cells.push(format!("{:+.1}%", s.speedup_percent_over(base)));
        }
        t2.row(cells);
    }
    println!("{t2}");
    println!("(Paper's choices: theta = 1, +2 per hit, aging every 10 misses.)");
}
