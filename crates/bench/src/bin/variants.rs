//! `variants SCALE FILE` runs every cell the views read that the
//! registry grid lacks (`psb_sim::variant_cells`) and writes them to FILE
//! as a `psb-sweep-v1` grid. It exits 2 on a usage error and 1 when FILE
//! cannot be written.

use psb_sim::{run_sweep, sweep_report, variant_cells};
use std::ffi::{OsStr, OsString};
use std::io::Write;

fn fail(path: &OsStr, e: std::io::Error) -> ! {
    eprintln!("variants: {}: {e}", path.to_string_lossy());
    std::process::exit(1)
}

fn main() {
    let args: Vec<OsString> = std::env::args_os().skip(1).collect();
    let scale = args.first().and_then(|s| s.to_str()?.parse().ok());
    let (Some(scale @ 1..), [_, path]) = (scale, args.as_slice()) else {
        eprintln!("usage: variants SCALE FILE  (SCALE a positive trace scale)");
        std::process::exit(2)
    };
    // Create FILE before simulating, so a bad path fails before the grid runs.
    let mut file = std::fs::File::create(path).unwrap_or_else(|e| fail(path, e));
    let cells = variant_cells(scale);
    let doc = sweep_report(&cells, &run_sweep(&cells, 0)).to_string();
    file.write_all(doc.as_bytes()).unwrap_or_else(|e| fail(path, e));
}
