//! Run every engine in the psb-core registry across the whole benchmark
//! suite and print a Figure-5-style comparison — the paper's six
//! configurations beside the historical baselines and the modern
//! competitors (Pangloss, DSPatch).
//!
//! ```sh
//! cargo run --release --example prefetcher_shootout [scale]
//! ```
//!
//! `scale` multiplies trace length (default 1 ≈ 300k instructions per
//! benchmark; the bench harness uses 2). All cells run concurrently on
//! the sweep work queue (`psb::sim::try_run_sweep_with`), sharing one
//! generated trace per benchmark; the printed table is identical to a
//! serial run. A panicking cell exits 1 with a message naming it.

use psb::sim::{shootout_cells, try_run_sweep_with, PrefetcherKind, Table};
use psb::workloads::Benchmark;

fn main() {
    let scale: u32 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(1);

    let mut headers = vec!["benchmark".into()];
    headers.extend(PrefetcherKind::ALL.iter().skip(1).map(|k| k.label().to_owned()));
    let mut table = Table::new(headers);

    let cells = shootout_cells(&Benchmark::ALL, scale);
    let sweep = try_run_sweep_with(&cells, 0, None, |p| {
        eprintln!("[{}/{}] {}/{}", p.done, p.total, p.cell.bench.name(), p.cell.label());
    });
    let outcomes = sweep.unwrap_or_else(|e| {
        eprintln!("prefetcher_shootout: {e}");
        std::process::exit(1);
    });

    // Registry row 0 is the no-prefetch baseline each other cell compares to.
    let per_row = PrefetcherKind::ALL.len();
    for (bench, row) in Benchmark::ALL.iter().zip(outcomes.chunks(per_row)) {
        let base = &row[0].stats;
        let mut cells = vec![bench.name().to_owned()];
        for out in &row[1..] {
            cells.push(format!("{:+.1}%", out.stats.speedup_percent_over(base)));
        }
        table.row(cells);
    }
    println!("\npercent speedup over the no-prefetch baseline (registry shootout):\n");
    print!("{table}");
}
