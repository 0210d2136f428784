//! Figure 4: the number of bits needed to represent the Markov table's
//! address differences. For each benchmark, the percent of L1 miss
//! transitions (that reach the Markov stage) representable within N bits
//! of signed cache-block delta.

use psb_bench::{l1_load_miss_stream, scale_arg};
use psb_core::{SfmPredictor, StreamPredictor};
use psb_sim::Table;
use psb_workloads::Benchmark;

fn main() {
    let Ok(scale) = scale_arg().inspect_err(|u| eprintln!("{u}")) else { std::process::exit(2) };
    println!("Figure 4 — percent of miss transitions captured vs. delta width (bits)\n");

    let widths = [2usize, 4, 6, 8, 10, 12, 14, 16, 20, 24];
    let mut headers = vec!["program".into()];
    headers.extend(widths.iter().map(|w| format!("{w}b")));
    let mut t = Table::new(headers);

    for bench in Benchmark::ALL {
        eprintln!("analyzing {bench}...");
        let trace = bench.trace(scale);
        let misses = l1_load_miss_stream(&trace);
        // Train the paper's SFM predictor on the miss stream; its Markov
        // stage records the bit-width of every transition it is offered.
        let mut sfm = SfmPredictor::paper_baseline();
        for (pc, addr) in misses {
            sfm.train(pc, addr);
        }
        let hist = sfm.markov_table().delta_width_histogram();
        let mut row = vec![bench.name().to_owned()];
        for &w in &widths {
            row.push(format!("{:.1}%", hist.cdf(w) * 100.0));
        }
        t.row(row);
    }
    print!("\n{t}");
    println!("\n(The paper reports 16 bits capture almost all transitions.)");
}
