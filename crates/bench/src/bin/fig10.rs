//! Figure 10: percent speedup of PC-stride and PSB (ConfAlloc-Priority)
//! over a same-cache baseline, varying the L1D geometry: 16K 4-way,
//! 32K 2-way, 32K 4-way.

use psb_bench::scale_arg;
use psb_mem::CacheConfig;
use psb_sim::{machine_banner, run_config, MachineConfig, PrefetcherKind, Table};
use psb_workloads::Benchmark;

fn main() {
    let Ok(scale) = scale_arg().inspect_err(|u| eprintln!("{u}")) else { std::process::exit(2) };
    println!("Figure 10 — speedup vs. L1D geometry ({})\n", machine_banner(scale));

    let caches = [
        ("16K 4-way", CacheConfig::l1d_16k_4way()),
        ("32K 2-way", CacheConfig::l1d_32k_2way()),
        ("32K 4-way", CacheConfig::l1d_32k_4way()),
    ];
    let kinds = [PrefetcherKind::PcStride, PrefetcherKind::PsbConfPriority];

    let mut headers = vec!["program".into(), "prefetcher".into()];
    headers.extend(caches.iter().map(|(n, _)| n.to_string()));
    let mut t = Table::new(headers);

    for bench in Benchmark::ALL {
        eprintln!("running {bench} (3 caches x 3 configs)...");
        // Baselines per cache geometry.
        let bases: Vec<_> = caches
            .iter()
            .map(|(_, c)| run_config(bench, MachineConfig::baseline().with_l1d(*c), scale))
            .collect();
        for kind in kinds {
            let mut cells = vec![bench.name().to_owned(), kind.label().to_owned()];
            for ((_, cache), base) in caches.iter().zip(&bases) {
                let cfg = MachineConfig::baseline().with_l1d(*cache).with_prefetcher(kind);
                let s = run_config(bench, cfg, scale);
                cells.push(format!("{:+.1}%", s.speedup_percent_over(base)));
            }
            t.row(cells);
        }
    }
    print!("\n{t}");
    println!("\n(Paper: the speedup is largely insensitive to L1D size/associativity.)");
}
