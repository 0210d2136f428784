//! Table 2, Figures 5–9 and the prior-art comparison as views of one
//! `psb-sweep-v1` grid. Every number they print is a field of a cell of
//! the registry grid (`psbsweep --bench all --prefetchers all`), so they
//! render from a committed artifact instead of re-simulating it.

use crate::{average_speedup_percent, f2, pct, GridError, PrefetcherKind as K, SweepEntry, Table};
use psb_workloads::Benchmark;

/// The baseline machine's one-line summary, for page headers.
pub fn machine_banner(scale: u32) -> String {
    format!(
        "8-wide OoO, 128 ROB / 64 LSQ; L1D 32K/4w/32B, L2 1M/64B @12cy, \
         DRAM 120cy; buses 8B & 4B per cycle; trace scale {scale}"
    )
}

/// The cells of one `psb-sweep-v1` grid, all at one trace scale.
#[derive(Debug)]
pub struct Grid {
    scale: u32,
    cells: Vec<SweepEntry>,
}

/// A view: one page of text rendered from a grid.
pub type View = fn(&Grid) -> Result<String, GridError>;

/// Every view, by the name of the `results/<name>.txt` file it renders.
pub const VIEWS: [(&str, View); 7] = [
    ("table2", table2),
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("prior_art", prior_art),
];

/// The PC-stride and four PSB columns of Figures 5 and 6.
const PREFETCHING: &[K] = K::PAPER.split_at(1).1;

impl Grid {
    /// Checks that `cells` is a non-empty grid at one trace scale; fails
    /// with [`GridError::Empty`] or [`GridError::MixedScales`].
    pub fn new(cells: Vec<SweepEntry>) -> Result<Grid, GridError> {
        let scale = cells.first().ok_or(GridError::Empty)?.scale;
        match cells.iter().find(|e| e.scale != scale) {
            Some(e) => Err(GridError::MixedScales(format!("{}/{}", e.benchmark, e.config))),
            None => Ok(Grid { scale, cells }),
        }
    }

    /// The number at `path` in `bench`'s baseline-machine cell under `kind`.
    fn num(&self, bench: Benchmark, kind: K, path: &'static str) -> Result<f64, GridError> {
        let cell =
            self.cells.iter().find(|e| e.benchmark == bench.name() && e.config == kind.label());
        cell.and_then(|e| e.num(path))
            .ok_or_else(|| GridError::Missing(format!("{bench}/{}", kind.label()), path))
    }

    /// Percent IPC speedup of `kind` over the no-prefetch baseline.
    fn speedup(&self, bench: Benchmark, kind: K) -> Result<f64, GridError> {
        let (base, ipc) = (self.num(bench, K::None, "ipc")?, self.num(bench, kind, "ipc")?);
        Ok(if base == 0.0 { 0.0 } else { (ipc / base - 1.0) * 100.0 })
    }

    /// A page: the title with the machine banner, then `body` and `note`.
    fn page(&self, title: &str, body: Table, note: &str) -> String {
        format!("{title} ({})\n\n\n{body}{note}", machine_banner(self.scale))
    }
}

/// A program-by-configuration table with one formatted cell per pair.
fn matrix<F>(kinds: &[K], cell: F) -> Result<Table, GridError>
where
    F: Fn(Benchmark, K) -> Result<String, GridError>,
{
    let headers = ["program"].into_iter().chain(kinds.iter().map(|k| k.label()));
    let mut t = Table::new(headers.map(String::from).collect());
    for bench in Benchmark::ALL {
        let row: Result<Vec<String>, _> = kinds.iter().map(|&k| cell(bench, k)).collect();
        t.row([vec![bench.name().to_owned()], row?].concat());
    }
    Ok(t)
}

/// Table 2: the no-prefetch baseline of every benchmark.
fn table2(g: &Grid) -> Result<String, GridError> {
    let headers =
        ["program", "#inst (K)", "L1 MR", "%lds", "%sts", "IPC", "L1-L2 %bus", "L2-M %bus"];
    let mut t = Table::new(headers.map(String::from).to_vec());
    for b in Benchmark::ALL {
        let num = |path| g.num(b, K::None, path);
        let committed = num("committed")?;
        let share = |ops: f64| if committed == 0.0 { 0.0 } else { ops / committed };
        t.row(vec![
            b.name().to_owned(),
            format!("{}", (committed / 1000.0).floor()),
            f2(num("l1d.miss_rate")?),
            pct(share(num("loads")?) * 100.0),
            pct(share(num("stores")?) * 100.0),
            f2(num("ipc")?),
            pct(num("bus.l1_l2_util_pct")?),
            pct(num("bus.l2_mem_util_pct")?),
        ]);
    }
    Ok(g.page("Table 2 — baseline results", t, ""))
}

/// Figure 5: percent speedup over base, plus the pointer programs'
/// geometric-mean row.
fn fig5(g: &Grid) -> Result<String, GridError> {
    let mut t = matrix(PREFETCHING, |b, k| Ok(format!("{:+.1}%", g.speedup(b, k)?)))?;
    let mut avg = vec!["ptr-avg".to_owned()];
    for &k in PREFETCHING {
        let speedups: Result<Vec<f64>, _> =
            Benchmark::POINTER_BASED.iter().map(|&b| g.speedup(b, k)).collect();
        avg.push(format!("{:+.1}%", average_speedup_percent(&speedups?)));
    }
    t.row(avg);
    let note = "\n(Paper: ~30% avg over base for PSB, ~10% over PC-stride, on pointer programs.)\n";
    Ok(g.page("Figure 5 — percent speedup over base", t, note))
}

/// Figure 6: prefetches used over prefetches issued.
fn fig6(g: &Grid) -> Result<String, GridError> {
    let t = matrix(PREFETCHING, |b, k| Ok(pct(g.num(b, k, "prefetch.accuracy")? * 100.0)))?;
    let note = "\n(Paper: confidence allocation roughly doubles deltablue's accuracy.)\n";
    Ok(g.page("Figure 6 — prefetch accuracy", t, note))
}

/// Figure 7: L1D miss rate, accesses to in-flight blocks counted as misses.
fn fig7(g: &Grid) -> Result<String, GridError> {
    let t = matrix(&K::PAPER, |b, k| Ok(format!("{:.3}", g.num(b, k, "l1d.miss_rate")?)))?;
    Ok(g.page("Figure 7 — L1D miss rate, in-flight counted as miss", t, ""))
}

/// Figure 8: average load latency in cycles.
fn fig8(g: &Grid) -> Result<String, GridError> {
    let t = matrix(&K::PAPER, |b, k| Ok(f2(g.num(b, k, "avg_load_latency")?)))?;
    let note = "\n(Paper: PSB removes ~4 cycles for deltablue, ~3 for burg.)\n";
    Ok(g.page("Figure 8 — average load latency in cycles", t, note))
}

/// Figure 9: the percent of cycles each bus was busy, a table per bus.
fn fig9(g: &Grid) -> Result<String, GridError> {
    let mut out = format!("Figure 9 — bus utilization ({})\n\n", machine_banner(g.scale));
    for (bus, path) in [("L1-L2", "bus.l1_l2_util_pct"), ("L2-MEM", "bus.l2_mem_util_pct")] {
        let t = matrix(&K::PAPER, |b, k| Ok(format!("{:.1}", g.num(b, k, path)?)))?;
        out += &format!("{bus} bus busy %:\n{t}\n");
    }
    Ok(out + "(Paper: sis's L1-L2 utilization blows up ~4x under 2Miss allocation.)\n")
}

/// The paper's Section 3 taxonomy in numbers, as percent speedup over
/// base: the demand-based schemes (Smith next-line, Joseph & Grunwald
/// Markov, Pangloss, DSPatch), fetch-directed prefetching, and the
/// decoupled schemes (Jouppi sequential, Farkas PC-stride, the PSB).
fn prior_art(g: &Grid) -> Result<String, GridError> {
    let kinds = [
        K::NextLine,
        K::DemandMarkov,
        K::Pangloss,
        K::Dspatch,
        K::FetchDirected,
        K::Sequential,
        K::PcStride,
        K::PsbConfPriority,
    ];
    let t = matrix(&kinds, |b, k| Ok(format!("{:+.1}%", g.speedup(b, k)?)))?;
    let note = "\n(Demand-based schemes act only on misses and cannot run ahead of a\n\
                serialized pointer chase; the PSB's decoupled streams can.)\n";
    Ok(g.page("Prior-art comparison — percent speedup over base", t, note))
}

#[cfg(test)]
mod tests {
    use super::*;
    use psb_obs::Json;

    fn cell(benchmark: &str, config: &str, scale: u32) -> SweepEntry {
        let aggregate = Json::obj([("ipc", Json::f64(1.0))]);
        SweepEntry { benchmark: benchmark.into(), config: config.into(), scale, aggregate }
    }

    #[test]
    fn a_grid_holds_cells_at_one_scale() {
        assert_eq!(Grid::new(Vec::new()).err(), Some(GridError::Empty));
        let mixed = vec![
            cell("health", "Base", 2),
            cell("health", "PC-stride", 2),
            cell("burg", "Base", 1),
        ];
        assert_eq!(Grid::new(mixed).err(), Some(GridError::MixedScales("burg/Base".into())));
    }

    #[test]
    fn views_name_the_first_cell_or_number_they_lack() {
        let grid = Grid::new(vec![cell("health", "Base", 2)]).unwrap();
        for (name, view) in VIEWS {
            let err = view(&grid).expect_err(name);
            assert!(matches!(err, GridError::Missing(..)), "{name}: {err}");
        }
        let missing = |cell: &str, path| Err(GridError::Missing(cell.into(), path));
        assert_eq!(table2(&grid), missing("health/Base", "committed"));
        assert_eq!(fig5(&grid), missing("health/PC-stride", "ipc"));
        assert_eq!(fig7(&grid), missing("health/Base", "l1d.miss_rate"));
        assert_eq!(prior_art(&grid), missing("health/Next-Line", "ipc"));
        let text = fig5(&grid).unwrap_err().to_string();
        assert_eq!(text, "the grid has no ipc for health/PC-stride");
    }

    #[test]
    fn banner_names_the_scale() {
        assert!(machine_banner(3).ends_with("trace scale 3"));
    }
}
