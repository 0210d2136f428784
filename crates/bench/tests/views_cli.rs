//! `views GRID... OUTDIR`: exit 2 on a usage error, 1 on grids it cannot
//! render (naming the cell), and one file per view otherwise.

use std::path::PathBuf;
use std::process::{Command, Output};

fn views(args: &[&std::ffi::OsStr]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_views")).args(args).output().expect("views starts")
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("psb_views_cli_{}_{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn committed(grid: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results").join(grid)
}

#[test]
fn usage_errors_exit_2() {
    for args in [&[][..], &["grid.json"]] {
        let args: Vec<&std::ffi::OsStr> = args.iter().map(|a| a.as_ref()).collect();
        let out = views(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: views GRID... OUTDIR"), "{stderr}");
    }
}

#[test]
fn bad_grids_exit_1_and_write_nothing() {
    let dir = scratch("bad");
    let cell = r#"{"benchmark":"health","config":"Base","scale":2,"aggregate":{"ipc":1.0}}"#;
    let cases = [
        ("missing.json", None, "No such file"),
        ("torn.json", Some("{\"schema\":".to_owned()), "JSON parse error"),
        ("run.json", Some(r#"{"schema":"psb-run-v1"}"#.to_owned()), "not a psb-sweep-v1"),
        ("empty.json", Some(r#"{"schema":"psb-sweep-v1","cells":[]}"#.to_owned()), "no cells"),
        (
            "partial.json",
            Some(format!(r#"{{"schema":"psb-sweep-v1","cells":[{cell}]}}"#)),
            "health/Base",
        ),
    ];
    for (file, text, message) in cases {
        let grid = dir.join(file);
        if let Some(text) = text {
            std::fs::write(&grid, text).expect("write grid");
        }
        let out_dir = dir.join(format!("{file}.out"));
        let out = views(&[grid.as_os_str(), out_dir.as_os_str()]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{file}: {stderr}");
        assert!(stderr.contains(message), "{file}: {stderr}");
        assert!(!stderr.contains("panicked"), "{file}: {stderr}");
        assert!(!out_dir.exists(), "{file}: a failed render must write nothing");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_capped_cell_exits_1_naming_it() {
    let dir = scratch("capped");
    let text = std::fs::read_to_string(committed("variants_scale2.json")).expect("committed grid");
    let stamp = r#""config":"Base/16k4","scale":2,"#;
    assert!(text.starts_with(&format!(
        r#"{{"schema":"psb-sweep-v1","cells":[{{"benchmark":"health",{stamp}"#
    )));
    let capped = dir.join("capped.json");
    let text = text.replacen(stamp, &format!(r#"{stamp}"max_commits":20000,"#), 1);
    std::fs::write(&capped, text).expect("write grid");
    let out_dir = dir.join("out");
    std::fs::create_dir_all(&out_dir).expect("out dir");
    let grids = [committed("shootout_scale2.json"), capped];
    let out = views(&[grids[0].as_os_str(), grids[1].as_os_str(), out_dir.as_os_str()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("cell health/Base/16k4 ran under a commit cap"), "{stderr}");
    assert_eq!(std::fs::read_dir(&out_dir).expect("out dir").count(), 0, "wrote a view");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn the_committed_grids_render_one_file_per_view() {
    let dir = scratch("good");
    let grids = [committed("shootout_scale2.json"), committed("variants_scale2.json")];
    let out = views(&[grids[0].as_os_str(), grids[1].as_os_str(), dir.as_os_str()]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    for (name, _) in psb_sim::VIEWS {
        assert!(dir.join(format!("{name}.txt")).is_file(), "{name}.txt");
    }
    std::fs::remove_dir_all(&dir).ok();
}
