//! Crate-layering checker: the workspace dependency DAG, written down.
//!
//! The simulator is layered — hardware model below observability below
//! the experiment harness — and nothing but convention used to stop a
//! convenience `use` from quietly inverting it (as `psb-core` →
//! `psb-obs` once did). This pass parses every crate manifest with plain
//! string handling (no TOML crate; the workspace only ever writes
//! `psb-x.workspace = true` or `psb-x = { workspace = true, ... }`) and
//! compares the declared intra-workspace dependencies against the table
//! below. A dependency missing from the table fails `cargo xtask lint`.
//!
//! The intent, crate by crate:
//!
//! * `psb-common` and `psb-model` are roots: no workspace deps, so they
//!   stay importable from anywhere (including build-time tools).
//! * `psb-obs` and `psb-check` sit just above `psb-common`, leaf-
//!   importable by any layer that wants reporting or auditing.
//! * the hardware model (`psb-core`, `psb-mem`, `psb-cpu`) must not
//!   reach the harness layers (`psb-sim`, `psb-workloads`) — and
//!   `psb-core` may see `psb-obs` only from its tests.
//! * `psb-sim` and the root package are the composition roots.

use std::path::Path;

/// One row: crate directory (relative to the repo root), allowed
/// `[dependencies]`, allowed `[dev-dependencies]` (on top of the
/// runtime set — dev deps may also use anything runtime allows).
const LAYERS: &[(&str, &[&str], &[&str])] = &[
    ("crates/common", &[], &[]),
    ("crates/model", &[], &[]),
    ("crates/check", &["psb-common"], &[]),
    ("crates/cpu", &["psb-common"], &[]),
    ("crates/obs", &["psb-common"], &[]),
    ("crates/mem", &["psb-common", "psb-obs", "psb-check"], &[]),
    ("crates/core", &["psb-common", "psb-check"], &["psb-obs"]),
    ("crates/workloads", &["psb-common", "psb-cpu", "psb-model"], &[]),
    // The serving plane sits beside obs: plain-data documents in, HTTP
    // out. It must never see the simulator, so a sweep can publish to it
    // but it cannot reach back.
    ("crates/serve", &["psb-common", "psb-obs", "psb-model"], &[]),
    (
        "crates/sim",
        &[
            "psb-common",
            "psb-mem",
            "psb-cpu",
            "psb-core",
            "psb-obs",
            "psb-workloads",
            "psb-model",
            "psb-serve",
            "psb-check",
        ],
        &[],
    ),
    (
        "crates/bench",
        &["psb-common", "psb-mem", "psb-cpu", "psb-core", "psb-obs", "psb-workloads", "psb-sim"],
        &[],
    ),
    (
        ".",
        &[
            "psb-common",
            "psb-mem",
            "psb-cpu",
            "psb-core",
            "psb-obs",
            "psb-workloads",
            "psb-sim",
            "psb-serve",
            "psb-model",
            "psb-check",
        ],
        &[],
    ),
    // xtask parses emitted artifacts with the workspace's own JSON
    // library — the leaf-importable `psb-obs` property in action.
    ("xtask", &["psb-obs"], &[]),
];

/// The workspace dependencies declared in one manifest section.
#[derive(Debug, Default, PartialEq)]
pub struct ManifestDeps {
    /// `psb-*` names under `[dependencies]`, with the line each appears on.
    pub runtime: Vec<(String, usize)>,
    /// `psb-*` names under `[dev-dependencies]`.
    pub dev: Vec<(String, usize)>,
}

/// Extracts the intra-workspace (`psb-*`) dependencies from a manifest.
///
/// Understands both spellings the workspace uses:
/// `psb-x.workspace = true` and `psb-x = { workspace = true, ... }`.
pub fn parse_manifest_deps(manifest: &str) -> ManifestDeps {
    let mut out = ManifestDeps::default();
    let mut section = "";
    for (i, raw) in manifest.lines().enumerate() {
        let line = raw.trim();
        if line.starts_with('[') {
            section = line;
            continue;
        }
        let bucket = match section {
            "[dependencies]" => &mut out.runtime,
            "[dev-dependencies]" => &mut out.dev,
            _ => continue,
        };
        if !line.starts_with("psb-") {
            continue;
        }
        let name: String = line
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '-' || *c == '_')
            .collect();
        // `psb-x.workspace = true` parses as `psb-x` + `.workspace`.
        let name = name.strip_suffix("-").unwrap_or(&name).to_string();
        bucket.push((name, i + 1));
    }
    out
}

/// Checks every crate in [`LAYERS`] against its manifest on disk, and
/// flags any workspace crate directory the table forgot. Each finding is
/// a `file:line: [layering] message` line.
pub fn check_layering(root: &Path) -> Vec<String> {
    let mut findings = Vec::new();
    let mut push = |file: &str, line: usize, msg: String| {
        findings.push(format!("{file}:{line}: [layering] {msg}"));
    };
    for &(dir, allowed, dev_allowed) in LAYERS {
        let rel = format!("{dir}/Cargo.toml");
        let path = root.join(&rel);
        let Ok(manifest) = std::fs::read_to_string(&path) else {
            push(
                &rel,
                1,
                "manifest listed in the layering table but missing on disk; \
                 update xtask/src/layering.rs"
                    .to_string(),
            );
            continue;
        };
        let deps = parse_manifest_deps(&manifest);
        for (name, line) in &deps.runtime {
            if !allowed.contains(&name.as_str()) {
                push(
                    &rel,
                    *line,
                    format!(
                        "`{dir}` must not depend on `{name}` (layering: allowed deps \
                         are {allowed:?}); move the code or amend xtask/src/layering.rs \
                         with the architectural justification"
                    ),
                );
            }
        }
        for (name, line) in &deps.dev {
            if !allowed.contains(&name.as_str()) && !dev_allowed.contains(&name.as_str()) {
                push(
                    &rel,
                    *line,
                    format!(
                        "`{dir}` must not dev-depend on `{name}` (allowed: runtime \
                         {allowed:?} plus dev {dev_allowed:?})"
                    ),
                );
            }
        }
    }
    // A crate directory absent from the table is unconstrained — that is
    // a hole in the checker, so it is itself a finding.
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        for e in entries.flatten() {
            let p = e.path();
            if !p.is_dir() {
                continue;
            }
            let rel = format!("crates/{}", e.file_name().to_string_lossy());
            if !LAYERS.iter().any(|(dir, _, _)| *dir == rel) {
                push(
                    &format!("{rel}/Cargo.toml"),
                    1,
                    format!(
                        "crate `{rel}` has no row in the layering table; add one to \
                         xtask/src/layering.rs"
                    ),
                );
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_both_workspace_dep_spellings() {
        let manifest = "[package]\nname = \"x\"\n\n[dependencies]\n\
                        psb-common.workspace = true\n\
                        psb-check = { workspace = true, optional = true }\n\n\
                        [dev-dependencies]\npsb-obs.workspace = true\n";
        let deps = parse_manifest_deps(manifest);
        assert_eq!(deps.runtime, vec![("psb-common".to_string(), 5), ("psb-check".to_string(), 6)]);
        assert_eq!(deps.dev, vec![("psb-obs".to_string(), 9)]);
    }

    #[test]
    fn ignores_non_workspace_and_other_sections() {
        let manifest = "[dependencies]\nserde = \"1\"\n[features]\npsb-check = []\n";
        let deps = parse_manifest_deps(manifest);
        assert!(deps.runtime.is_empty(), "{deps:?}");
        assert!(deps.dev.is_empty());
    }

    #[test]
    fn the_real_workspace_is_clean() {
        // The table and the tree must agree — this is the regression test
        // that keeps the checker itself honest.
        let root = crate::repo_root();
        let findings = check_layering(&root);
        assert!(findings.is_empty(), "{findings:#?}");
    }

    #[test]
    fn core_reaching_obs_would_be_flagged() {
        // Simulate the exact inversion this pass exists to prevent.
        let manifest = "[dependencies]\npsb-common.workspace = true\npsb-obs.workspace = true\n";
        let deps = parse_manifest_deps(manifest);
        let allowed: &[&str] = &["psb-common", "psb-check"];
        let bad: Vec<_> =
            deps.runtime.iter().filter(|(n, _)| !allowed.contains(&n.as_str())).collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].0, "psb-obs");
    }
}
