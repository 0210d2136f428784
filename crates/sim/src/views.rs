//! Every results table but Figure 4 as a view of `psb-sweep-v1` grids:
//! Table 2, Figures 5–11, the prior-art comparison and the five
//! ablations. Every number they print is a field of a cell of the
//! registry grid (`psbsweep --bench all --prefetchers all`) or of the
//! variant grid ([`variant_cells`]), so they render from committed
//! artifacts instead of re-simulating them.

use crate::{average_speedup_percent, f2, pct, GridError, PrefetcherKind as K, SweepEntry, Table};
use crate::{MachineConfig, PsbVariant, SweepCell};
use psb_cpu::Disambiguation::WaitForStores;
use psb_mem::CacheConfig;
use psb_workloads::Benchmark::{self, Burg, DeltaBlue, Health, Sis};

/// The baseline machine's one-line summary, for page headers.
fn machine_banner(scale: u32) -> String {
    format!(
        "8-wide OoO, 128 ROB / 64 LSQ; L1D 32K/4w/32B, L2 1M/64B @12cy, \
         DRAM 120cy; buses 8B & 4B per cycle; trace scale {scale}"
    )
}

/// The cells of one or more `psb-sweep-v1` grids, all whole-trace runs
/// at one trace scale.
#[derive(Debug)]
pub struct Grid {
    scale: u32,
    cells: Vec<SweepEntry>,
}

/// A view: one page of text rendered from a grid.
pub type View = fn(&Grid) -> Result<String, GridError>;

/// Every view, by the name of the `results/<name>.txt` file it renders.
pub const VIEWS: [(&str, View); 14] = [
    ("table2", table2),
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("prior_art", prior_art),
    ("fig10", fig10),
    ("fig11", fig11),
    ("ablate_buffers", ablate_buffers),
    ("ablate_markov", ablate_markov),
    ("ablate_order", ablate_order),
    ("ablate_sched", ablate_sched),
    ("ablate_victim", ablate_victim),
];

/// The PC-stride and four PSB columns of Figures 5 and 6.
const PREFETCHING: &[K] = K::PAPER.split_at(1).1;

/// An L1D geometry: its column header and its constructor.
type Geometry = (&'static str, fn() -> CacheConfig);
/// Figure 10's L1D geometries, in column order; the last is the baseline's.
const L1D: [Geometry; 3] = [
    ("16K 4-way", CacheConfig::l1d_16k_4way),
    ("32K 2-way", CacheConfig::l1d_32k_2way),
    ("32K 4-way", CacheConfig::l1d_32k_4way),
];
/// The engines Figure 10 compares on each geometry.
const FIG10: [K; 2] = [K::PcStride, K::PsbConfPriority];
/// The engines Figure 11 and the victim-cache extension run.
const BASE_AND_PSB: [K; 2] = [K::None, K::PsbConfPriority];
/// The victim-cache extension's entries.
const VICTIM: usize = 16;
/// `ablate_buffers`: buffers × entries, and its benchmarks.
const BUFFERS: [(usize, usize); 6] = [(2, 4), (4, 4), (8, 2), (8, 4), (8, 8), (16, 4)];
const BUFFER_BENCHES: [Benchmark; 3] = [Health, DeltaBlue, Sis];
/// `ablate_markov`: Markov entries × delta bits, and its benchmarks.
const MARKOV: [(usize, u32); 6] =
    [(256, 16), (512, 16), (1024, 16), (2048, 16), (2048, 8), (2048, 24)];
const MARKOV_BENCHES: [Benchmark; 3] = [Health, Burg, DeltaBlue];
/// `ablate_sched`: thresholds θ, hit-bonus / aging pairs, and its benchmarks.
const THRESHOLDS: [u32; 5] = [0, 1, 2, 4, 6];
const PRIORITIES: [(u32, u64); 5] = [(1, 10), (2, 10), (4, 10), (2, 4), (2, 32)];
const SCHED_BENCHES: [Benchmark; 2] = [DeltaBlue, Sis];

/// The baseline machine under `kind`, without memory disambiguation.
fn nodis(kind: K) -> MachineConfig {
    MachineConfig::baseline().with_prefetcher(kind).with_disambiguation(WaitForStores)
}

/// The baseline machine under `kind`, with the extension's victim cache.
fn victim(kind: K) -> MachineConfig {
    MachineConfig::baseline().with_prefetcher(kind).with_victim_cache(VICTIM)
}

/// Every cell the views read that the registry grid
/// ([`crate::shootout_cells`]) lacks: Figures 10 and 11, the victim cache
/// and the Markov order benchmark by benchmark, then the PSB variants
/// table by table. The paper's point of each variant table is a cell
/// too, a cross-check of the variant engines against the registry's.
pub fn variant_cells(scale: u32) -> Vec<SweepCell> {
    let base = MachineConfig::baseline();
    let geometries = L1D.map(|(_, l1d)| l1d()).into_iter().filter(|&l1d| l1d != base.mem.l1d);
    let kinds = [K::None].into_iter().chain(FIG10);
    let fig10 = geometries
        .flat_map(|l1d| kinds.clone().map(move |k| base.with_l1d(l1d).with_prefetcher(k)));
    let machines: Vec<_> =
        fig10.chain(BASE_AND_PSB.map(nodis)).chain(BASE_AND_PSB.map(victim)).collect();
    let mut cells = Vec::new();
    for bench in Benchmark::ALL {
        cells.extend(machines.iter().map(|&machine| SweepCell::new(bench, machine, scale)));
        cells.push(SweepCell::new(bench, base, scale).with_variant(PsbVariant::Order2));
    }
    use PsbVariant::{Buffers, Markov, Priority, Threshold};
    let on = |benches: &'static [Benchmark], variant| {
        benches.iter().map(move |&b| SweepCell::new(b, base, scale).with_variant(variant))
    };
    cells.extend(BUFFERS.iter().flat_map(|&(b, e)| on(&BUFFER_BENCHES, Buffers(b, e))));
    cells.extend(MARKOV.iter().flat_map(|&(e, b)| on(&MARKOV_BENCHES, Markov(e, b))));
    cells.extend(THRESHOLDS.iter().flat_map(|&theta| on(&SCHED_BENCHES, Threshold(theta))));
    cells.extend(PRIORITIES.iter().flat_map(|&(b, a)| on(&SCHED_BENCHES, Priority(b, a))));
    cells
}

impl Grid {
    /// Checks that `cells` are distinct whole-trace cells at one trace
    /// scale, at least one, or names the first that is not ([`GridError`]).
    pub fn new(cells: Vec<SweepEntry>) -> Result<Grid, GridError> {
        let scale = cells.first().ok_or(GridError::Empty)?.scale;
        let name = |e: &SweepEntry| format!("{}/{}", e.benchmark, e.config);
        if let Some(e) = cells.iter().find(|e| e.max_commits.is_some()) {
            return Err(GridError::Capped(name(e)));
        }
        let mut names = std::collections::BTreeSet::new();
        if let Some(e) = cells.iter().find(|e| !names.insert(name(e))) {
            return Err(GridError::Duplicate(name(e)));
        }
        match cells.iter().find(|e| e.scale != scale) {
            Some(e) => Err(GridError::MixedScales(name(e))),
            None => Ok(Grid { scale, cells }),
        }
    }

    /// `bench` on `config` at the grid's scale.
    fn cell(&self, bench: Benchmark, config: MachineConfig) -> SweepCell {
        SweepCell::new(bench, config, self.scale)
    }

    /// `bench` on the baseline machine under `kind`.
    fn kind(&self, bench: Benchmark, kind: K) -> SweepCell {
        self.cell(bench, MachineConfig::baseline().with_prefetcher(kind))
    }

    /// The number at `path` in `cell`'s entry, found by the label
    /// [`SweepCell::label`] wrote it under.
    fn at(&self, cell: SweepCell, path: &'static str) -> Result<f64, GridError> {
        let (bench, label) = (cell.bench.name(), cell.label());
        let entry = self.cells.iter().find(|e| e.benchmark == bench && e.config == label);
        let missing = || GridError::Missing(format!("{bench}/{label}"), path);
        entry.and_then(|e| e.num(path)).ok_or_else(missing)
    }

    /// Percent IPC speedup of `cell` over no prefetching on its L1D.
    fn speedup(&self, cell: SweepCell) -> Result<f64, GridError> {
        let base = self.cell(cell.bench, MachineConfig::baseline().with_l1d(cell.config.mem.l1d));
        let (base, ipc) = (self.at(base, "ipc")?, self.at(cell, "ipc")?);
        Ok(if base == 0.0 { 0.0 } else { (ipc / base - 1.0) * 100.0 })
    }

    /// A page: the title with the machine banner, then `body` and `note`.
    fn page(&self, title: &str, body: Table, note: &str) -> String {
        bare_page(&format!("{title} ({})", machine_banner(self.scale)), body, note)
    }

    /// One row per benchmark: its name, then its cell on each machine.
    fn programs(&self, machines: &[MachineConfig]) -> Vec<(Vec<String>, Vec<SweepCell>)> {
        let cells = |b| machines.iter().map(|&m| self.cell(b, m)).collect();
        Benchmark::ALL.map(|b| (vec![b.name().to_owned()], cells(b))).to_vec()
    }

    /// A program-by-configuration table of `kinds` on the baseline machine.
    fn matrix<F>(&self, kinds: &[K], show: F) -> Result<Table, GridError>
    where
        F: Fn(SweepCell) -> Result<String, GridError>,
    {
        let machines: Vec<_> =
            kinds.iter().map(|&k| MachineConfig::baseline().with_prefetcher(k)).collect();
        let headers = ["program"].into_iter().chain(kinds.iter().map(|k| k.label()));
        table(headers, self.programs(&machines), show)
    }

    /// Percent speedups of PSB variants: one row per labelled variant,
    /// one column per benchmark.
    fn variants<const N: usize>(
        &self,
        corner: &str,
        benches: &[Benchmark],
        rows: [(String, PsbVariant); N],
    ) -> Result<Table, GridError> {
        let cells = |v| benches.iter().map(|&b| self.kind(b, K::None).with_variant(v)).collect();
        let rows = rows.map(|(label, v)| (vec![label], cells(v)));
        let headers = [corner].into_iter().chain(benches.iter().map(|b| b.name()));
        table(headers, rows, |c| self.speedup(c).map(gain))
    }
}

/// A table: the headers, then each row's labels followed by each of its
/// cells as `show` renders it.
fn table<'a>(
    headers: impl Iterator<Item = &'a str>,
    rows: impl IntoIterator<Item = (Vec<String>, Vec<SweepCell>)>,
    show: impl Fn(SweepCell) -> Result<String, GridError>,
) -> Result<Table, GridError> {
    let mut t = Table::new(headers.map(String::from).collect());
    for (labels, cells) in rows {
        let shown: Result<Vec<String>, GridError> = cells.into_iter().map(&show).collect();
        t.row([labels, shown?].concat());
    }
    Ok(t)
}

/// A page: the title, then `body` and `note`.
fn bare_page(title: &str, body: Table, note: &str) -> String {
    format!("{title}\n\n\n{body}{note}")
}

/// A percent speedup as the figures print it.
fn gain(speedup: f64) -> String {
    format!("{speedup:+.1}%")
}

/// Table 2: the no-prefetch baseline of every benchmark.
fn table2(g: &Grid) -> Result<String, GridError> {
    let headers =
        ["program", "#inst (K)", "L1 MR", "%lds", "%sts", "IPC", "L1-L2 %bus", "L2-M %bus"];
    let mut t = Table::new(headers.map(String::from).to_vec());
    for b in Benchmark::ALL {
        let num = |path| g.at(g.kind(b, K::None), path);
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
    let mut t = g.matrix(PREFETCHING, |c| g.speedup(c).map(gain))?;
    let mut avg = vec!["ptr-avg".to_owned()];
    for &k in PREFETCHING {
        let speedups: Result<Vec<f64>, _> =
            Benchmark::POINTER_BASED.iter().map(|&b| g.speedup(g.kind(b, k))).collect();
        avg.push(gain(average_speedup_percent(&speedups?)));
    }
    t.row(avg);
    let note = "\n(Paper: ~30% avg over base for PSB, ~10% over PC-stride, on pointer programs.)\n";
    Ok(g.page("Figure 5 — percent speedup over base", t, note))
}

/// Figure 6: prefetches used over prefetches issued.
fn fig6(g: &Grid) -> Result<String, GridError> {
    let t = g.matrix(PREFETCHING, |c| Ok(pct(g.at(c, "prefetch.accuracy")? * 100.0)))?;
    let note = "\n(Paper: confidence allocation roughly doubles deltablue's accuracy.)\n";
    Ok(g.page("Figure 6 — prefetch accuracy", t, note))
}

/// Figure 7: L1D miss rate, accesses to in-flight blocks counted as misses.
fn fig7(g: &Grid) -> Result<String, GridError> {
    let t = g.matrix(&K::PAPER, |c| Ok(format!("{:.3}", g.at(c, "l1d.miss_rate")?)))?;
    Ok(g.page("Figure 7 — L1D miss rate, in-flight counted as miss", t, ""))
}

/// Figure 8: average load latency in cycles.
fn fig8(g: &Grid) -> Result<String, GridError> {
    let t = g.matrix(&K::PAPER, |c| g.at(c, "avg_load_latency").map(f2))?;
    let note = "\n(Paper: PSB removes ~4 cycles for deltablue, ~3 for burg.)\n";
    Ok(g.page("Figure 8 — average load latency in cycles", t, note))
}

/// Figure 9: the percent of cycles each bus was busy, a table per bus.
fn fig9(g: &Grid) -> Result<String, GridError> {
    let mut out = format!("Figure 9 — bus utilization ({})\n\n", machine_banner(g.scale));
    for (bus, path) in [("L1-L2", "bus.l1_l2_util_pct"), ("L2-MEM", "bus.l2_mem_util_pct")] {
        let t = g.matrix(&K::PAPER, |c| Ok(format!("{:.1}", g.at(c, path)?)))?;
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
    let t = g.matrix(&kinds, |c| g.speedup(c).map(gain))?;
    let note = "\n(Demand-based schemes act only on misses and cannot run ahead of a\n\
                serialized pointer chase; the PSB's decoupled streams can.)\n";
    Ok(g.page("Prior-art comparison — percent speedup over base", t, note))
}

/// Figure 10: percent speedup over a same-cache base as the L1D
/// geometry varies.
fn fig10(g: &Grid) -> Result<String, GridError> {
    let headers = ["program", "prefetcher"].into_iter().chain(L1D.map(|(name, _)| name));
    let rows = Benchmark::ALL.into_iter().flat_map(|b| {
        FIG10.map(|k| {
            let machines = L1D.map(|(_, l1d)| MachineConfig::baseline().with_l1d(l1d()));
            let cells = machines.map(|m| g.cell(b, m.with_prefetcher(k))).to_vec();
            (vec![b.name().to_owned(), k.label().to_owned()], cells)
        })
    });
    let t = table(headers, rows, |c| g.speedup(c).map(gain))?;
    let note = "\n(Paper: the speedup is largely insensitive to L1D size/associativity.)\n";
    Ok(g.page("Figure 10 — speedup vs. L1D geometry", t, note))
}

/// Figure 11: IPC with and without perfect store-set disambiguation.
fn fig11(g: &Grid) -> Result<String, GridError> {
    let headers = ["program", "Base-NoDis", "Base-Dis", "PSB-NoDis", "PSB-Dis"];
    let machines =
        BASE_AND_PSB.map(|k| [nodis(k), MachineConfig::baseline().with_prefetcher(k)]).concat();
    let t = table(headers.into_iter(), g.programs(&machines), |c| g.at(c, "ipc").map(f2))?;
    let note = "\n(Paper: perfect store sets help the base for deltablue/sis but add\n\
                little on top of prefetching, except for sis.)\n";
    Ok(g.page("Figure 11 — IPC with/without perfect disambiguation", t, note))
}

/// Ablation (ours): the stream-buffer file's geometry, which the paper
/// fixes at 8 buffers × 4 entries.
fn ablate_buffers(g: &Grid) -> Result<String, GridError> {
    let rows = BUFFERS.map(|(b, e)| (format!("{b} x {e}"), PsbVariant::Buffers(b, e)));
    let t = g.variants("buffers x entries", &BUFFER_BENCHES, rows)?;
    let note = "\n(The paper's 8 x 4 sits at the knee: fewer buffers lose concurrent\n\
                streams, fewer entries cap run-ahead, and more of either adds little.)\n";
    Ok(bare_page("Ablation — stream-buffer file geometry (ConfAlloc-Priority PSB)", t, note))
}

/// Ablation (ours): the Markov table's entries and delta width, behind
/// the paper's "2K entries × 16 bits = 4 KB".
fn ablate_markov(g: &Grid) -> Result<String, GridError> {
    let rows = MARKOV.map(|(entries, bits)| {
        let bytes = entries * bits as usize / 8;
        (format!("{entries}x{bits}b ({bytes}B)"), PsbVariant::Markov(entries, bits))
    });
    let t = g.variants("geometry (data bytes)", &MARKOV_BENCHES, rows)?;
    let note = "\n(Expectation: gains saturate near the paper's 2Kx16b = 4KB point;\n\
                8-bit deltas drop cross-structure transitions and lose speedup.)\n";
    Ok(bare_page("Ablation — Markov geometry vs. PSB speedup (ConfAlloc-Priority)", t, note))
}

/// Ablation: first- against second-order Stride-Filtered Markov, which
/// the paper found "provided little improvement".
fn ablate_order(g: &Grid) -> Result<String, GridError> {
    let mut t = Table::new(["program", "order-1", "order-2", "delta"].map(String::from).to_vec());
    for bench in Benchmark::ALL {
        let first = g.speedup(g.kind(bench, K::PsbConfPriority))?;
        let second = g.speedup(g.kind(bench, K::None).with_variant(PsbVariant::Order2))?;
        let delta = format!("{:+.1}pt", second - first);
        t.row(vec![bench.name().to_owned(), gain(first), gain(second), delta]);
    }
    let note = "\n(Paper: higher order \"provided little improvement\".)\n";
    Ok(bare_page("Ablation — Markov order (ConfAlloc-Priority PSB)", t, note))
}

/// Ablation (ours): the allocation threshold and the priority
/// scheduler's hit bonus and aging period, which Section 4 fixes at
/// θ = 1, +2 and 10.
fn ablate_sched(g: &Grid) -> Result<String, GridError> {
    let thresholds =
        THRESHOLDS.map(|theta| (format!("theta = {theta}"), PsbVariant::Threshold(theta)));
    let t = g.variants("alloc threshold", &SCHED_BENCHES, thresholds)?;
    let priorities = PRIORITIES.map(|(bonus, aging)| {
        (format!("+{bonus} / every {aging}"), PsbVariant::Priority(bonus, aging))
    });
    let t2 = g.variants("hit bonus / aging", &SCHED_BENCHES, priorities)?;
    Ok(format!(
        "Ablation — allocation threshold & priority constants\n\n{t}\n{t2}\n\
         (Paper's choices: theta = 1, +2 per hit, aging every 10 misses.)\n"
    ))
}

/// Extension (ours): a victim cache rescues conflict misses, but these
/// workloads miss on capacity, which only running ahead can hide.
fn ablate_victim(g: &Grid) -> Result<String, GridError> {
    let headers = ["program", "victim only", "PSB only", "victim + PSB"];
    let psb = MachineConfig::baseline().with_prefetcher(K::PsbConfPriority);
    let rows = g.programs(&[victim(K::None), psb, victim(K::PsbConfPriority)]);
    let t = table(headers.into_iter(), rows, |c| g.speedup(c).map(gain))?;
    let note = "\n(Victim caches recover conflict misses; these suites miss on capacity.)\n";
    Ok(bare_page(&format!("Extension — {VICTIM}-entry victim cache vs. PSB prefetching"), t, note))
}

#[cfg(test)]
mod tests {
    use super::*;
    use psb_obs::Json;

    fn cell(benchmark: &str, config: &str, scale: u32) -> SweepEntry {
        let aggregate = Json::obj([("ipc", Json::f64(1.0))]);
        let (benchmark, config) = (benchmark.into(), config.into());
        SweepEntry { benchmark, config, scale, max_commits: None, aggregate }
    }

    #[test]
    fn a_grid_holds_whole_trace_cells_at_one_scale() {
        assert_eq!(Grid::new(Vec::new()).err(), Some(GridError::Empty));
        let mixed = vec![
            cell("health", "Base", 2),
            cell("health", "PC-stride", 2),
            cell("burg", "Base", 1),
        ];
        assert_eq!(Grid::new(mixed).err(), Some(GridError::MixedScales("burg/Base".into())));
        let capped = SweepEntry { max_commits: Some(20_000), ..cell("sis", "Base", 2) };
        let grid = Grid::new(vec![cell("health", "Base", 2), capped]);
        assert_eq!(grid.err(), Some(GridError::Capped("sis/Base".into())));
        let twice = vec![cell("gs", "Base", 2), cell("gs", "Base/nodis", 2), cell("gs", "Base", 2)];
        assert_eq!(Grid::new(twice).err(), Some(GridError::Duplicate("gs/Base".into())));
    }

    #[test]
    fn variant_cells_complete_the_registry_grid_without_a_duplicate() {
        let variants = variant_cells(2);
        assert_eq!(variants.len(), 122);
        let registry = crate::shootout_cells(&Benchmark::ALL, 2);
        let mut names: Vec<_> =
            registry.iter().chain(&variants).map(|c| (c.bench, c.label())).collect();
        names.sort_by(|a, b| (a.0.name(), &a.1).cmp(&(b.0.name(), &b.1)));
        names.dedup();
        assert_eq!(names.len(), registry.len() + variants.len(), "a label names two cells");
        assert!(variants.iter().all(|c| c.scale == 2 && c.max_commits == u64::MAX));
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
        assert_eq!(fig10(&grid), missing("health/Base/16k4", "ipc"));
        assert_eq!(fig11(&grid), missing("health/Base/nodis", "ipc"));
        assert_eq!(ablate_buffers(&grid), missing("health/ConfAlloc-Priority/sb2x4", "ipc"));
        assert_eq!(ablate_sched(&grid), missing("deltablue/Base", "ipc"));
        assert_eq!(ablate_victim(&grid), missing("health/Base/victim16", "ipc"));
        let text = fig5(&grid).unwrap_err().to_string();
        assert_eq!(text, "the grid has no ipc for health/PC-stride");
    }

    #[test]
    fn banner_names_the_scale() {
        assert!(machine_banner(3).ends_with("trace scale 3"));
    }
}
