//! `views GRID... OUTDIR` renders every view in `psb_sim::VIEWS` (every
//! results table but Figure 4) from the cells of the `psb-sweep-v1`
//! grids it is given, merged, into `OUTDIR/<view>.txt`. It exits 1 when
//! a grid is unreadable, when the cells mix scales, repeat a cell or
//! hold one that ran under a commit cap, or when they lack a cell a view
//! needs (the message names the cell), and 2 on a usage error.

use psb_sim::{read_sweep_report, Grid, VIEWS};
use std::path::PathBuf;

fn fail(what: impl std::fmt::Display, e: impl std::fmt::Display) -> ! {
    eprintln!("views: {what}: {e}");
    std::process::exit(1)
}

fn main() {
    let mut args: Vec<PathBuf> = std::env::args_os().skip(1).map(PathBuf::from).collect();
    let (Some(out), false) = (args.pop(), args.is_empty()) else {
        eprintln!("usage: views GRID... OUTDIR");
        std::process::exit(2)
    };
    let mut cells = Vec::new();
    for input in &args {
        let text = std::fs::read_to_string(input).unwrap_or_else(|e| fail(input.display(), e));
        cells.extend(read_sweep_report(&text).unwrap_or_else(|e| fail(input.display(), e)));
    }
    let grid = Grid::new(cells).unwrap_or_else(|e| fail("grids", e));
    let pages: Vec<(&str, String)> = VIEWS
        .iter()
        .map(|(name, view)| view(&grid).map(|page| (*name, page)))
        .collect::<Result<_, _>>()
        .unwrap_or_else(|e| fail("grids", e));
    for (name, page) in pages {
        let path = out.join(format!("{name}.txt"));
        std::fs::write(&path, page).unwrap_or_else(|e| fail(path.display(), e));
    }
}
