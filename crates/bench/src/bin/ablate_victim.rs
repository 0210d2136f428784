//! Extension (ours): victim cache vs. prefetching.
//!
//! The paper's introduction lists victim caches among the standard
//! miss-latency reducers. This experiment shows why they are not a
//! substitute for prefetching on these workloads: a victim cache rescues
//! *conflict* misses, but a pointer chase over a working set several
//! times the L1 misses on *capacity*, which only running ahead can hide.

use psb_bench::scale_arg;
use psb_sim::{run_config, MachineConfig, PrefetcherKind, Table};
use psb_workloads::Benchmark;

fn main() {
    let Ok(scale) = scale_arg().inspect_err(|u| eprintln!("{u}")) else { std::process::exit(2) };
    println!("Extension — 16-entry victim cache vs. PSB prefetching\n");

    let mut t = Table::new(vec![
        "program".into(),
        "victim only".into(),
        "PSB only".into(),
        "victim + PSB".into(),
    ]);

    for bench in Benchmark::ALL {
        eprintln!("running {bench} (4 configurations)...");
        let base = run_config(bench, MachineConfig::baseline(), scale);
        let victim = run_config(bench, MachineConfig::baseline().with_victim_cache(16), scale);
        let psb = run_config(
            bench,
            MachineConfig::baseline().with_prefetcher(PrefetcherKind::PsbConfPriority),
            scale,
        );
        let both = run_config(
            bench,
            MachineConfig::baseline()
                .with_prefetcher(PrefetcherKind::PsbConfPriority)
                .with_victim_cache(16),
            scale,
        );
        t.row(vec![
            bench.name().into(),
            format!("{:+.1}%", victim.speedup_percent_over(&base)),
            format!("{:+.1}%", psb.speedup_percent_over(&base)),
            format!("{:+.1}%", both.speedup_percent_over(&base)),
        ]);
    }
    print!("\n{t}");
    println!("\n(Victim caches recover conflict misses; these suites miss on capacity.)");
}
