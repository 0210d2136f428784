//! `views GRID OUTDIR` renders every view in `psb_sim::VIEWS` (Table 2,
//! Figures 5–9, the prior-art comparison) from a `psb-sweep-v1` grid
//! into `OUTDIR/<view>.txt`. It exits 1 when the grid is unreadable,
//! mixes scales or lacks a cell a view needs (the message names the
//! cell), and 2 on a usage error.

use psb_sim::{read_sweep_report, Grid, VIEWS};
use std::path::{Path, PathBuf};

fn fail(path: &Path, e: impl std::fmt::Display) -> ! {
    eprintln!("views: {}: {e}", path.display());
    std::process::exit(1)
}

fn main() {
    let args: Vec<PathBuf> = std::env::args_os().skip(1).map(PathBuf::from).collect();
    let [input, out] = args.as_slice() else {
        eprintln!("usage: views GRID OUTDIR");
        std::process::exit(2)
    };
    let text = std::fs::read_to_string(input).unwrap_or_else(|e| fail(input, e));
    let grid = read_sweep_report(&text).and_then(Grid::new).unwrap_or_else(|e| fail(input, e));
    let pages: Vec<(&str, String)> = VIEWS
        .iter()
        .map(|(name, view)| view(&grid).map(|page| (*name, page)))
        .collect::<Result<_, _>>()
        .unwrap_or_else(|e| fail(input, e));
    for (name, page) in pages {
        let path = out.join(format!("{name}.txt"));
        std::fs::write(&path, page).unwrap_or_else(|e| fail(&path, e));
    }
}
