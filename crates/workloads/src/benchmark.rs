//! The benchmark suite registry (Table 1 of the paper).

use crate::{burg, deltablue, gs, health, sis, turb3d};
use psb_cpu::DynInst;
use std::fmt;
use std::str::FromStr;

/// The six programs of the paper's evaluation (Table 1), as synthetic
/// analogs — see DESIGN.md §4 and §5 for the substitution rationale.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Benchmark {
    /// Olden hierarchical health-care simulator (pointer chase).
    Health,
    /// BURS tree-parser generator (recursive tree walk + tables).
    Burg,
    /// Constraint-solution system (short-lived heap objects).
    DeltaBlue,
    /// Ghostscript (mixed raster stride + display-list chase).
    Gs,
    /// Circuit synthesis (stream-thrashing many-miss workload).
    Sis,
    /// Isotropic turbulence (FORTRAN, pure strides).
    Turb3d,
}

impl Benchmark {
    /// Every benchmark, in the paper's reporting order.
    pub const ALL: [Benchmark; 6] = [
        Benchmark::Health,
        Benchmark::Burg,
        Benchmark::DeltaBlue,
        Benchmark::Gs,
        Benchmark::Sis,
        Benchmark::Turb3d,
    ];

    /// The five pointer-based programs (everything but `turb3d`), over
    /// which the paper reports its headline averages.
    pub const POINTER_BASED: [Benchmark; 5] =
        [Benchmark::Health, Benchmark::Burg, Benchmark::DeltaBlue, Benchmark::Gs, Benchmark::Sis];

    /// The benchmark's name as the paper spells it.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Health => "health",
            Benchmark::Burg => "burg",
            Benchmark::DeltaBlue => "deltablue",
            Benchmark::Gs => "gs",
            Benchmark::Sis => "sis",
            Benchmark::Turb3d => "turb3d",
        }
    }

    /// A one-line description (after Table 1).
    pub fn description(self) -> &'static str {
        match self {
            Benchmark::Health => {
                "hierarchical health-care system simulator (Olden); linked patient lists"
            }
            Benchmark::Burg => "fast tree-parser generator (BURS); recursive IR tree walks",
            Benchmark::DeltaBlue => "constraint solution system; short-lived heap objects",
            Benchmark::Gs => "Ghostscript PostScript interpreter; raster + display lists",
            Benchmark::Sis => "synchronous circuit synthesis; pointer arithmetic, many misses",
            Benchmark::Turb3d => "isotropic homogeneous turbulence in a cube; strided FORTRAN",
        }
    }

    /// Generates the benchmark's dynamic instruction trace. `scale`
    /// multiplies the iteration count (footprints are fixed); `scale = 1`
    /// yields ≈300k instructions.
    pub fn trace(self, scale: u32) -> Vec<DynInst> {
        match self {
            Benchmark::Health => health::trace(scale),
            Benchmark::Burg => burg::trace(scale),
            Benchmark::DeltaBlue => deltablue::trace(scale),
            Benchmark::Gs => gs::trace(scale),
            Benchmark::Sis => sis::trace(scale),
            Benchmark::Turb3d => turb3d::trace(scale),
        }
    }
}

impl fmt::Display for Benchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when parsing an unknown benchmark name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseBenchmarkError(String);

impl fmt::Display for ParseBenchmarkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown benchmark `{}` (expected one of health, burg, deltablue, gs, sis, turb3d)",
            self.0
        )
    }
}

impl std::error::Error for ParseBenchmarkError {}

impl FromStr for Benchmark {
    type Err = ParseBenchmarkError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Benchmark::ALL
            .into_iter()
            .find(|b| b.name() == s)
            .ok_or_else(|| ParseBenchmarkError(s.to_owned()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::validate_trace;

    #[test]
    fn all_names_round_trip() {
        for b in Benchmark::ALL {
            assert_eq!(b.name().parse::<Benchmark>(), Ok(b));
            assert_eq!(format!("{b}"), b.name());
            assert!(!b.description().is_empty());
        }
        assert!("nope".parse::<Benchmark>().is_err());
    }

    #[test]
    fn every_benchmark_generates_valid_traces() {
        for b in Benchmark::ALL {
            let t = b.trace(1);
            assert!(t.len() >= 300_000, "{b}: {} insts", t.len());
            validate_trace(&t).unwrap_or_else(|e| panic!("{b}: {e}"));
        }
    }

    #[test]
    fn pointer_based_excludes_turb3d() {
        assert!(!Benchmark::POINTER_BASED.contains(&Benchmark::Turb3d));
        assert_eq!(Benchmark::POINTER_BASED.len(), 5);
    }
}
