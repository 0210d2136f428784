//! Expected simulated outputs, looked up by (benchmark, engine, scale).
//!
//! `shootout` is checked against the committed `results/shootout.json`;
//! `stall` and `observed` against `perfbench/expected.json`, which has the
//! same `psb-sweep-v1` cell entries plus an `obs` digest for cells run with
//! the observability stack. `--bless` rewrites that file.

use psb_obs::{json, Json};
use psb_sim::{sweep_cell_entry, SimStats, SweepCell};
use std::collections::BTreeMap;

/// What an instrumented cell rendered: its Chrome trace event count and
/// an FNV-1a digest of the psb-run-v1 report and trace JSON texts (stored
/// as hex, since JSON numbers lose integers above 2^53).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ObsDigest {
    pub trace_events: u64,
    pub digest: u64,
}

/// The checked fields of one cell.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Expected {
    cycles: u64,
    committed: u64,
    l1d_misses: u64,
    pf_issued: u64,
    pf_used: u64,
    obs: Option<ObsDigest>,
}

impl Expected {
    fn of(stats: &SimStats, obs: Option<ObsDigest>) -> Expected {
        Expected {
            cycles: stats.cpu.cycles,
            committed: stats.cpu.committed,
            l1d_misses: stats.l1d.misses,
            pf_issued: stats.prefetch.issued,
            pf_used: stats.prefetch.used,
            obs,
        }
    }

    /// The IPC these outputs imply.
    pub fn ipc(&self) -> f64 {
        self.committed as f64 / self.cycles as f64
    }
}

/// Expected outputs by `(benchmark, engine label, scale)`.
#[derive(Debug, Default)]
pub struct ExpectedSet(BTreeMap<(String, String, u64), Expected>);

fn key(cell: &SweepCell) -> (String, String, u64) {
    (cell.bench.name().to_owned(), cell.label(), u64::from(cell.scale))
}

impl ExpectedSet {
    /// Parses a `psb-sweep-v1` document (optionally with `obs` digests).
    pub fn parse(text: &str) -> Result<ExpectedSet, String> {
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        let cells = doc.get("cells").and_then(Json::as_arr).ok_or("no `cells` array")?;
        let mut set = BTreeMap::new();
        for c in cells {
            let s = |k: &str| c.get(k).and_then(Json::as_str).map(str::to_owned);
            let n = |path: &[&str]| {
                path.iter()
                    .try_fold(c, |j, k| j.get(k))
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("cell entry lacks numeric `{}`", path.join(".")))
            };
            let obs = match c.get("obs") {
                Some(o) => Some(ObsDigest {
                    trace_events: n(&["obs", "trace_events"])?,
                    digest: o
                        .get("digest")
                        .and_then(Json::as_str)
                        .and_then(|d| u64::from_str_radix(d, 16).ok())
                        .ok_or("cell entry lacks a hex `obs.digest`")?,
                }),
                None => None,
            };
            let expected = Expected {
                cycles: n(&["aggregate", "cycles"])?,
                committed: n(&["aggregate", "committed"])?,
                l1d_misses: n(&["aggregate", "l1d", "misses"])?,
                pf_issued: n(&["aggregate", "prefetch", "issued"])?,
                pf_used: n(&["aggregate", "prefetch", "used"])?,
                obs,
            };
            let k = (
                s("benchmark").ok_or("cell entry lacks `benchmark`")?,
                s("config").ok_or("cell entry lacks `config`")?,
                n(&["scale"])?,
            );
            set.insert(k, expected);
        }
        Ok(ExpectedSet(set))
    }

    /// The expected outputs of `cell`, if recorded.
    pub fn get(&self, cell: &SweepCell) -> Option<&Expected> {
        self.0.get(&key(cell))
    }

    /// Checks a cell's outputs; the error names the cell and the fields.
    pub fn check(
        &self,
        cell: &SweepCell,
        stats: &SimStats,
        obs: Option<ObsDigest>,
    ) -> Result<(), String> {
        let name = format!("{}/{}/scale {}", cell.bench.name(), cell.label(), cell.scale);
        let want = self.get(cell).ok_or_else(|| format!("{name}: no expected outputs"))?;
        let got = Expected::of(stats, obs);
        if &got == want {
            Ok(())
        } else {
            Err(format!("{name}: expected {want:?}, got {got:?}"))
        }
    }
}

/// One entry of `expected.json`: the sweep cell entry plus the digest.
pub fn bless_entry(cell: &SweepCell, stats: &SimStats, obs: Option<ObsDigest>) -> Json {
    let mut entry = sweep_cell_entry(cell, stats);
    if let (Json::Obj(pairs), Some(o)) = (&mut entry, obs) {
        let digest = Json::obj([
            ("trace_events", Json::u64(o.trace_events)),
            ("digest", Json::str(format!("{:016x}", o.digest))),
        ]);
        pairs.push(("obs".to_owned(), digest));
    }
    entry
}

/// 64-bit FNV-1a over `parts` in order.
pub fn fnv1a(parts: &[&str]) -> u64 {
    parts
        .iter()
        .flat_map(|p| p.bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}
