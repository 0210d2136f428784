//! Ablation (ours): sweep the Markov table's size and delta width and
//! measure the speedup PSB retains on the pointer benchmarks — the
//! trade-off behind the paper's choice of "2K entries × 16 bits = 4 KB".

use psb_bench::scale_arg;
use psb_core::{MarkovTable, SbConfig, SfmPredictor, StreamEngine, StrideTable};
use psb_sim::{run_point, MachineConfig, PrefetcherKind, Simulation, Table};
use psb_workloads::Benchmark;

fn psb_with_markov(entries: usize, bits: u32) -> Box<StreamEngine<SfmPredictor>> {
    let sfm = SfmPredictor::new(StrideTable::paper_baseline(), MarkovTable::new(entries, bits), 32);
    Box::new(StreamEngine::new(
        SbConfig::psb_conf_priority(),
        sfm,
        format!("psb-{entries}x{bits}b"),
    ))
}

fn main() {
    let Ok(scale) = scale_arg().inspect_err(|u| eprintln!("{u}")) else { std::process::exit(2) };
    println!("Ablation — Markov geometry vs. PSB speedup (ConfAlloc-Priority)\n");

    let geometries: [(usize, u32); 6] =
        [(256, 16), (512, 16), (1024, 16), (2048, 16), (2048, 8), (2048, 24)];
    let benches = [Benchmark::Health, Benchmark::Burg, Benchmark::DeltaBlue];

    let mut headers = vec!["geometry (data bytes)".into()];
    headers.extend(benches.iter().map(|b| b.name().to_owned()));
    let mut t = Table::new(headers);

    // Per-benchmark baselines.
    let bases: Vec<_> = benches
        .iter()
        .map(|&b| {
            eprintln!("baseline {b}...");
            run_point(b, PrefetcherKind::None, scale)
        })
        .collect();

    for (entries, bits) in geometries {
        let label = format!("{entries}x{bits}b ({}B)", entries * bits as usize / 8);
        eprintln!("sweeping {label}...");
        let mut cells = vec![label];
        for (&bench, base) in benches.iter().zip(&bases) {
            let s = Simulation::new(MachineConfig::baseline(), bench.trace(scale), u64::MAX)
                .with_engine(psb_with_markov(entries, bits))
                .run();
            cells.push(format!("{:+.1}%", s.speedup_percent_over(base)));
        }
        t.row(cells);
    }
    print!("\n{t}");
    println!("\n(Expectation: gains saturate near the paper's 2Kx16b = 4KB point;");
    println!("8-bit deltas drop cross-structure transitions and lose speedup.)");
}
