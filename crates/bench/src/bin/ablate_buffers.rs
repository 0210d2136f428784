//! Ablation (ours): stream-buffer file geometry — how many buffers and
//! how many entries each. The paper fixes 8 buffers × 4 entries; this
//! sweep shows what that choice buys.

use psb_bench::scale_arg;
use psb_core::{PsbPrefetcher, SbConfig};
use psb_sim::{run_point, MachineConfig, PrefetcherKind, Simulation, Table};
use psb_workloads::Benchmark;

fn main() {
    let Ok(scale) = scale_arg().inspect_err(|u| eprintln!("{u}")) else { std::process::exit(2) };
    println!("Ablation — stream-buffer file geometry (ConfAlloc-Priority PSB)\n");

    let geometries: [(usize, usize); 6] = [(2, 4), (4, 4), (8, 2), (8, 4), (8, 8), (16, 4)];
    let benches = [Benchmark::Health, Benchmark::DeltaBlue, Benchmark::Sis];

    let mut headers = vec!["buffers x entries".into()];
    headers.extend(benches.iter().map(|b| b.name().to_owned()));
    let mut t = Table::new(headers);

    let bases: Vec<_> = benches
        .iter()
        .map(|&b| {
            eprintln!("baseline {b}...");
            run_point(b, PrefetcherKind::None, scale)
        })
        .collect();

    for (buffers, entries) in geometries {
        eprintln!("sweeping {buffers}x{entries}...");
        let mut cells = vec![format!("{buffers} x {entries}")];
        for (&bench, base) in benches.iter().zip(&bases) {
            let mut cfg = SbConfig::psb_conf_priority();
            cfg.buffers = buffers;
            cfg.entries_per_buffer = entries;
            let s = Simulation::new(MachineConfig::baseline(), bench.trace(scale), u64::MAX)
                .with_engine(Box::new(PsbPrefetcher::psb(cfg)))
                .run();
            cells.push(format!("{:+.1}%", s.speedup_percent_over(base)));
        }
        t.row(cells);
    }
    print!("\n{t}");
    println!("\n(The paper's 8 x 4 sits at the knee: fewer buffers lose concurrent");
    println!("streams, fewer entries cap run-ahead, and more of either adds little.)");
}
