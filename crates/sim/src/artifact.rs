//! Machine-readable run artifacts.
//!
//! Builds the `psb-run-v1` JSON document that `psbsim --json <path>`
//! writes: aggregate statistics for the run, the prefetch-lifecycle
//! accounting, the per-epoch interval time series and every metric
//! registered with the observability hub — one self-describing file per
//! run, consumable by scripts without scraping tables.

use crate::sweep::{SweepCell, SweepOutcome};
use crate::SimStats;
use psb_obs::{Json, Obs};

/// Schema identifier stamped into every run artifact.
pub const RUN_SCHEMA: &str = "psb-run-v1";

/// Schema identifier stamped into every merged sweep artifact.
pub const SWEEP_SCHEMA: &str = "psb-sweep-v1";

fn cache_json(stats: &psb_mem::CacheStats) -> Json {
    Json::obj(vec![
        ("accesses", Json::u64(stats.accesses())),
        ("hits", Json::u64(stats.hits)),
        ("misses", Json::u64(stats.misses)),
        ("miss_rate", Json::f64(stats.miss_rate())),
    ])
}

/// Serializes the aggregate statistics of one run.
fn aggregate_json(stats: &SimStats) -> Json {
    Json::obj(vec![
        ("cycles", Json::u64(stats.cpu.cycles)),
        ("committed", Json::u64(stats.cpu.committed)),
        ("ipc", Json::f64(stats.ipc())),
        ("loads", Json::u64(stats.cpu.loads)),
        ("stores", Json::u64(stats.cpu.stores)),
        ("branches", Json::u64(stats.cpu.branches)),
        ("forwarded_loads", Json::u64(stats.cpu.forwarded_loads)),
        ("avg_load_latency", Json::f64(stats.avg_load_latency())),
        ("bpred_accuracy", Json::f64(stats.cpu.bpred.accuracy())),
        ("l1d", cache_json(&stats.l1d)),
        ("l1i", cache_json(&stats.l1i)),
        (
            "l2",
            Json::obj(vec![
                ("hits", Json::u64(stats.lower.l2_hits)),
                ("misses", Json::u64(stats.lower.l2_misses)),
                ("miss_rate", Json::f64(stats.lower.l2_miss_rate())),
            ]),
        ),
        (
            "prefetch",
            Json::obj(vec![
                ("lookups", Json::u64(stats.prefetch.lookups)),
                ("hits", Json::u64(stats.prefetch.hits)),
                ("issued", Json::u64(stats.prefetch.issued)),
                ("used", Json::u64(stats.prefetch.used)),
                ("predictions", Json::u64(stats.prefetch.predictions)),
                ("suppressed", Json::u64(stats.prefetch.suppressed)),
                ("allocations", Json::u64(stats.prefetch.allocations)),
                ("alloc_rejected", Json::u64(stats.prefetch.alloc_rejected)),
                ("accuracy", Json::f64(stats.prefetch_accuracy())),
            ]),
        ),
        (
            "dtlb",
            Json::obj(vec![
                ("hits", Json::u64(stats.dtlb.hits)),
                ("misses", Json::u64(stats.dtlb.misses)),
                ("prefetch_misses", Json::u64(stats.dtlb.prefetch_misses)),
            ]),
        ),
        (
            "bus",
            Json::obj(vec![
                ("l1_l2_busy_cycles", Json::u64(stats.l1_l2_busy)),
                ("l2_mem_busy_cycles", Json::u64(stats.l2_mem_busy)),
                ("l1_l2_util_pct", Json::f64(stats.l1_l2_bus_percent())),
                ("l2_mem_util_pct", Json::f64(stats.l2_mem_bus_percent())),
            ]),
        ),
    ])
}

/// Builds the full `psb-run-v1` run artifact.
///
/// `benchmark` and `prefetcher` label the run; `obs`, when present,
/// contributes the lifecycle accounting, the interval epochs and the
/// metrics registry (all empty/absent-but-well-formed otherwise, so
/// consumers can rely on the keys existing).
pub fn json_report(benchmark: &str, prefetcher: &str, stats: &SimStats, obs: Option<&Obs>) -> Json {
    let (lifecycle, epochs, metrics) = match obs {
        Some(obs) => (obs.lifecycle_json(), obs.epochs_json(), obs.registry_json()),
        None => (Json::Null, Json::Arr(Vec::new()), Json::Null),
    };
    Json::obj(vec![
        ("schema", Json::str(RUN_SCHEMA)),
        ("benchmark", Json::str(benchmark)),
        ("prefetcher", Json::str(prefetcher)),
        ("aggregate", aggregate_json(stats)),
        ("lifecycle", lifecycle),
        ("epochs", epochs),
        ("metrics", metrics),
    ])
}

/// Builds the merged `psb-sweep-v1` artifact for one sweep: one entry
/// per cell, in submission order, each carrying the cell's coordinates
/// (benchmark, config label, scale) and its aggregate statistics.
///
/// The document is fully deterministic — cell wall-clock timings are
/// deliberately excluded — so sweeps of the same grid are byte-identical
/// regardless of worker count (`psbsweep --threads N`).
///
/// # Panics
///
/// Panics if `cells` and `outcomes` disagree in length (they come from
/// one [`crate::sweep::run_sweep`] call).
pub fn sweep_report(cells: &[SweepCell], outcomes: &[SweepOutcome]) -> Json {
    assert_eq!(cells.len(), outcomes.len(), "cells and outcomes must pair up");
    let entries =
        cells.iter().zip(outcomes).map(|(cell, out)| sweep_cell_entry(cell, &out.stats)).collect();
    Json::obj(vec![("schema", Json::str(SWEEP_SCHEMA)), ("cells", Json::Arr(entries))])
}

/// One cell's entry in the `psb-sweep-v1` `cells` array: coordinates,
/// the commit cap of a capped cell, and aggregate statistics.
pub fn sweep_cell_entry(cell: &SweepCell, stats: &SimStats) -> Json {
    let cap = (cell.max_commits != u64::MAX).then(|| ("max_commits", Json::u64(cell.max_commits)));
    let coordinates = [
        ("benchmark", Json::str(cell.bench.name())),
        ("config", Json::str(cell.label())),
        ("scale", Json::u64(cell.scale as u64)),
    ];
    Json::obj(coordinates.into_iter().chain(cap).chain([("aggregate", aggregate_json(stats))]))
}

/// One cell read back from a `psb-sweep-v1` artifact: the coordinates
/// and the aggregate statistics [`sweep_cell_entry`] wrote.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepEntry {
    /// Benchmark name.
    pub benchmark: String,
    /// Machine label (see [`SweepCell::label`]).
    pub config: String,
    /// Trace scale.
    pub scale: u32,
    /// The commit cap of a capped cell; `None` for a whole-trace cell.
    pub max_commits: Option<u64>,
    /// The `aggregate` object.
    pub aggregate: Json,
}

impl SweepEntry {
    /// The number at a dotted path in the aggregate, such as `"ipc"` or
    /// `"l1d.miss_rate"`. Floats read back exactly as they were written.
    pub fn num(&self, path: &str) -> Option<f64> {
        path.split('.').try_fold(&self.aggregate, |j, key| j.get(key))?.as_f64()
    }
}

/// Why a text cannot be read as a `psb-sweep-v1` grid, or the grid
/// cannot render a view (see [`crate::Grid`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GridError {
    /// The text is not JSON.
    Json(psb_obs::json::ParseError),
    /// The document's `schema` is not [`SWEEP_SCHEMA`], or it has no `cells` array.
    NotASweep,
    /// This cell lacks this member, or holds it with the wrong type.
    Cell(usize, &'static str),
    /// The grid has no cells.
    Empty,
    /// This `benchmark/config` cell's trace scale differs from the first cell's.
    MixedScales(String),
    /// This `benchmark/config` cell stopped at a commit cap, short of its trace.
    Capped(String),
    /// This `benchmark/config` cell appears more than once.
    Duplicate(String),
    /// The grid lacks this `benchmark/config` cell, or the cell lacks this number.
    Missing(String, &'static str),
}

impl std::fmt::Display for GridError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GridError::Json(e) => write!(f, "{e}"),
            GridError::NotASweep => write!(f, "not a {SWEEP_SCHEMA} document with `cells`"),
            GridError::Cell(index, field) => write!(f, "cell {index} has no valid `{field}`"),
            GridError::Empty => f.write_str("the grid has no cells"),
            GridError::MixedScales(cell) => write!(f, "cell {cell} is at another trace scale"),
            GridError::Capped(cell) => write!(f, "cell {cell} ran under a commit cap"),
            GridError::Duplicate(cell) => write!(f, "cell {cell} appears twice"),
            GridError::Missing(cell, path) => write!(f, "the grid has no {path} for {cell}"),
        }
    }
}

impl std::error::Error for GridError {}

/// Reads a `psb-sweep-v1` artifact back into its cells, in file order:
/// the one reader of what [`sweep_report`] writes. Fails on text that is
/// not JSON, carries another schema, or has a cell without its
/// coordinates or aggregate, or with a cap that is not a count.
pub fn read_sweep_report(text: &str) -> Result<Vec<SweepEntry>, GridError> {
    let doc = psb_obs::json::parse(text).map_err(GridError::Json)?;
    let cells = doc.get("cells").and_then(Json::as_arr);
    let cells = match (doc.get("schema").and_then(Json::as_str), cells) {
        (Some(SWEEP_SCHEMA), Some(cells)) => cells,
        _ => return Err(GridError::NotASweep),
    };
    let read = |(i, cell): (usize, &Json)| {
        let field = |name| cell.get(name).ok_or(GridError::Cell(i, name));
        let text = |name| field(name)?.as_str().ok_or(GridError::Cell(i, name)).map(String::from);
        let scale = field("scale")?.as_u64().and_then(|s| u32::try_from(s).ok());
        let cap =
            cell.get("max_commits").map(|m| m.as_u64().ok_or(GridError::Cell(i, "max_commits")));
        Ok(SweepEntry {
            benchmark: text("benchmark")?,
            config: text("config")?,
            scale: scale.ok_or(GridError::Cell(i, "scale"))?,
            max_commits: cap.transpose()?,
            aggregate: field("aggregate")?.clone(),
        })
    };
    cells.iter().enumerate().map(read).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_sweep, MachineConfig, PrefetcherKind, Simulation};
    use psb_common::Addr;
    use psb_obs::json;

    fn tiny_stats(obs: Option<Obs>) -> SimStats {
        let mut b = psb_workloads::TraceBuilder::new(Addr::new(0x40_0000));
        for i in 0..2000u64 {
            b.expect_pc(Addr::new(0x40_0000));
            b.load(1, Some(1), Addr::new(0x1000_0000 + (i % 512) * 64));
            b.alu(2, Some(1), None);
            b.cond(Some(2), i + 1 < 2000, Addr::new(0x40_0000));
        }
        let config = MachineConfig::baseline().with_prefetcher(PrefetcherKind::PsbConfPriority);
        let mut sim = Simulation::new(config, b.finish(), u64::MAX);
        if let Some(obs) = obs {
            sim = sim.with_obs(obs);
        }
        sim.run()
    }

    #[test]
    fn artifact_round_trips_through_the_parser() {
        let obs = Obs::default();
        obs.enable_interval(500);
        let stats = tiny_stats(Some(obs.clone()));
        let doc = json_report("health", "conf-priority", &stats, Some(&obs));
        let text = doc.to_string();
        let back = json::parse(&text).expect("artifact must be valid JSON");
        assert_eq!(back.get("schema").and_then(Json::as_str), Some(RUN_SCHEMA));
        assert_eq!(back.get("benchmark").and_then(Json::as_str), Some("health"));
        let agg = back.get("aggregate").expect("aggregate section");
        assert!(agg.get("ipc").and_then(Json::as_f64).unwrap() > 0.0);
        assert!(agg.get("l1d").unwrap().get("accesses").and_then(Json::as_u64).unwrap() > 0);
        // Interval sampling was on: epochs must be non-empty and span
        // the run from cycle zero.
        let epochs = back.get("epochs").and_then(Json::as_arr).expect("epochs array");
        assert!(!epochs.is_empty());
        assert_eq!(epochs[0].get("start").and_then(Json::as_u64), Some(0));
        // The metrics registry carries the component instruments.
        let metrics = back.get("metrics").expect("metrics section");
        assert!(metrics.get("gauges").unwrap().get("l1d.mshr.occupancy").is_some());
        // Lifecycle counters are present and self-consistent.
        let life = back.get("lifecycle").expect("lifecycle section");
        let issued = life.get("issued").and_then(Json::as_u64).unwrap();
        let used = life.get("used").and_then(Json::as_u64).unwrap();
        assert!(issued >= used);
    }

    #[test]
    fn sweep_artifact_is_byte_identical_across_thread_counts() {
        use psb_workloads::Benchmark;
        let cells: Vec<_> = [PrefetcherKind::None, PrefetcherKind::PcStride]
            .into_iter()
            .flat_map(|k| {
                [Benchmark::Turb3d, Benchmark::DeltaBlue].into_iter().map(move |b| {
                    crate::sweep::SweepCell::new(b, MachineConfig::baseline().with_prefetcher(k), 1)
                        .with_max_commits(15_000)
                })
            })
            .collect();
        let serial = sweep_report(&cells, &run_sweep(&cells, 1)).to_string();
        let parallel = sweep_report(&cells, &run_sweep(&cells, 4)).to_string();
        assert_eq!(serial, parallel, "sweep artifact must not depend on worker count");
        let back = json::parse(&serial).expect("sweep artifact must be valid JSON");
        assert_eq!(back.get("schema").and_then(Json::as_str), Some(SWEEP_SCHEMA));
        let entries = back.get("cells").and_then(Json::as_arr).expect("cells array");
        assert_eq!(entries.len(), 4);
        assert_eq!(entries[0].get("benchmark").and_then(Json::as_str), Some("turb3d"));
        assert_eq!(entries[1].get("config").and_then(Json::as_str), Some("Base"));
        assert!(
            entries[0].get("aggregate").and_then(|a| a.get("cycles")).is_some(),
            "each cell carries aggregate stats"
        );
    }

    #[test]
    fn artifact_without_obs_keeps_stable_shape() {
        let stats = tiny_stats(None);
        let doc = json_report("health", "conf-priority", &stats, None);
        let back = json::parse(&doc.to_string()).unwrap();
        assert!(matches!(back.get("lifecycle"), Some(Json::Null)));
        assert_eq!(back.get("epochs").and_then(Json::as_arr).map(<[Json]>::len), Some(0));
    }

    #[test]
    fn read_sweep_report_gives_back_every_coordinate_and_float_exactly() {
        use psb_workloads::Benchmark;
        let geometries = [MachineConfig::baseline().mem.l1d, psb_mem::CacheConfig::l1d_16k_4way()];
        let cells: Vec<_> = [PrefetcherKind::None, PrefetcherKind::PsbConfPriority]
            .into_iter()
            .zip(geometries)
            .zip([Benchmark::Turb3d, Benchmark::Health])
            .map(|((kind, l1d), bench)| {
                let config = MachineConfig::baseline().with_prefetcher(kind).with_l1d(l1d);
                SweepCell::new(bench, config, 1).with_max_commits(12_000)
            })
            .collect();
        let outcomes = run_sweep(&cells, 2);
        let entries = read_sweep_report(&sweep_report(&cells, &outcomes).to_string()).unwrap();
        assert_eq!(entries.len(), cells.len());
        for ((cell, out), entry) in cells.iter().zip(&outcomes).zip(&entries) {
            assert_eq!(entry.benchmark, cell.bench.name());
            assert_eq!(entry.config, cell.label());
            assert_eq!(entry.scale, cell.scale);
            assert_eq!(entry.max_commits, Some(12_000), "a capped cell records its cap");
            // The whole tree compares equal: every counter, every float.
            assert_eq!(entry.aggregate, aggregate_json(&out.stats));
            let s = &out.stats;
            for (path, want) in [
                ("ipc", s.ipc()),
                ("avg_load_latency", s.avg_load_latency()),
                ("bpred_accuracy", s.cpu.bpred.accuracy()),
                ("l1d.miss_rate", s.l1d_miss_rate()),
                ("l2.miss_rate", s.lower.l2_miss_rate()),
                ("prefetch.accuracy", s.prefetch_accuracy()),
                ("bus.l1_l2_util_pct", s.l1_l2_bus_percent()),
                ("bus.l2_mem_util_pct", s.l2_mem_bus_percent()),
            ] {
                assert_eq!(entry.num(path).map(f64::to_bits), Some(want.to_bits()), "{path}");
            }
            assert_eq!(entry.num("committed"), Some(s.cpu.committed as f64));
            assert_eq!(entry.num("l1d.nope"), None);
            assert_eq!(entry.num("l1d"), None, "an object is not a number");
        }
        assert_eq!(entries[1].config, "ConfAlloc-Priority/16k4");
        let whole = SweepCell { max_commits: u64::MAX, ..cells[0] };
        let text = sweep_cell_entry(&whole, &outcomes[0].stats).to_string();
        assert!(!text.contains("max_commits"), "a whole-trace cell keeps the old bytes");
        let doc = format!(r#"{{"schema":"psb-sweep-v1","cells":[{text}]}}"#);
        assert_eq!(read_sweep_report(&doc).unwrap()[0].max_commits, None);
    }

    #[test]
    fn read_sweep_report_rejects_what_is_not_a_sweep() {
        assert!(matches!(read_sweep_report("{\"schema\":"), Err(GridError::Json(_))));
        let wrong_schema = r#"{"schema":"psb-run-v1","cells":[]}"#;
        assert_eq!(read_sweep_report(wrong_schema), Err(GridError::NotASweep));
        assert_eq!(read_sweep_report(r#"{"schema":"psb-sweep-v1"}"#), Err(GridError::NotASweep));
        let cells = r#"{"schema":"psb-sweep-v1","cells":{}}"#;
        assert_eq!(read_sweep_report(cells), Err(GridError::NotASweep));
        assert_eq!(read_sweep_report(r#"{"schema":"psb-sweep-v1","cells":[]}"#), Ok(Vec::new()));
        let read = |cell: &str| {
            read_sweep_report(&format!(r#"{{"schema":"psb-sweep-v1","cells":[{cell}]}}"#))
        };
        let no_aggregate = r#"{"benchmark":"gs","config":"Base","scale":1}"#;
        assert_eq!(read(no_aggregate), Err(GridError::Cell(0, "aggregate")));
        let bad_scale = r#"{"benchmark":"gs","config":"Base","scale":4294967296,"aggregate":{}}"#;
        assert_eq!(read(bad_scale), Err(GridError::Cell(0, "scale")));
        let bad_name = r#"{"benchmark":7,"config":"Base","scale":1,"aggregate":{}}"#;
        assert_eq!(read(bad_name), Err(GridError::Cell(0, "benchmark")));
        let bad_cap =
            r#"{"benchmark":"gs","config":"Base","scale":1,"max_commits":-1,"aggregate":{}}"#;
        assert_eq!(read(bad_cap), Err(GridError::Cell(0, "max_commits")));
        let text = read(no_aggregate).unwrap_err().to_string();
        assert_eq!(text, "cell 0 has no valid `aggregate`");
    }
}
