//! Figure 11: IPC with and without perfect store-set memory
//! disambiguation, for the baseline and for PSB (ConfAlloc-Priority).

use psb_bench::scale_arg;
use psb_cpu::Disambiguation;
use psb_sim::{f2, machine_banner, run_config, MachineConfig, PrefetcherKind, Table};
use psb_workloads::Benchmark;

fn main() {
    let Ok(scale) = scale_arg().inspect_err(|u| eprintln!("{u}")) else { std::process::exit(2) };
    println!("Figure 11 — IPC with/without perfect disambiguation ({})\n", machine_banner(scale));

    let mut t = Table::new(vec![
        "program".into(),
        "Base-NoDis".into(),
        "Base-Dis".into(),
        "PSB-NoDis".into(),
        "PSB-Dis".into(),
    ]);

    for bench in Benchmark::ALL {
        eprintln!("running {bench} (4 configurations)...");
        let mut cells = vec![bench.name().to_owned()];
        for kind in [PrefetcherKind::None, PrefetcherKind::PsbConfPriority] {
            for dis in [Disambiguation::WaitForStores, Disambiguation::Perfect] {
                let cfg = MachineConfig::baseline().with_prefetcher(kind).with_disambiguation(dis);
                cells.push(f2(run_config(bench, cfg, scale).ipc()));
            }
        }
        t.row(cells);
    }
    print!("\n{t}");
    println!("\n(Paper: perfect store sets help the base for deltablue/sis but add");
    println!("little on top of prefetching, except for sis.)");
}
