//! Doc drift: `docs/ARCHITECTURE.md` must describe the workspace as it
//! is. Every library crate is in the crate table, the stated crate count
//! is the real one, and every public `Simulator::run*` entry point is
//! named under "Execution modes".

use std::fs;
use std::path::Path;

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The package names of every `crates/*/Cargo.toml`.
fn crate_names(root: &Path) -> Vec<String> {
    let mut names = Vec::new();
    for entry in fs::read_dir(root.join("crates")).expect("crates dir") {
        let manifest = entry.expect("dir entry").path().join("Cargo.toml");
        if !manifest.exists() {
            continue;
        }
        let text = read(&manifest);
        let package = text.split("[package]").nth(1).expect("[package] section");
        let name =
            package.lines().find_map(|l| l.trim().strip_prefix("name = ")).expect("package name");
        names.push(name.trim_matches('"').to_string());
    }
    names.sort();
    names
}

/// Every `pub fn run*` declared inside an `impl Simulator` block of
/// `crates/core/src/*.rs`.
fn simulator_run_fns(root: &Path) -> Vec<String> {
    let mut fns = Vec::new();
    for entry in fs::read_dir(root.join("crates/core/src")).expect("core src") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_none_or(|e| e != "rs") {
            continue;
        }
        let mut in_impl = false;
        for line in read(&path).lines() {
            if line.starts_with("impl Simulator {") {
                in_impl = true;
            } else if line == "}" {
                in_impl = false;
            } else if let Some(rest) = line.trim().strip_prefix("pub fn run") {
                if in_impl {
                    let end = rest.find(['(', '<']).expect("fn signature");
                    fns.push(format!("run{}", &rest[..end]));
                }
            }
        }
    }
    fns.sort();
    fns
}

#[test]
fn architecture_doc_matches_the_workspace() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let doc = read(&root.join("docs/ARCHITECTURE.md"));

    let names = crate_names(root);
    for name in &names {
        assert!(
            doc.contains(&format!("| `{name}` | `crates/")),
            "crate {name} is missing from the ARCHITECTURE.md crate table"
        );
    }
    let stated = format!("The workspace is {} library crates", names.len());
    assert!(doc.contains(&stated), "ARCHITECTURE.md must say \"{stated}\"");

    let modes = doc
        .split("## Execution modes")
        .nth(1)
        .and_then(|s| s.split("\n## ").next())
        .expect("an \"Execution modes\" section");
    let fns = simulator_run_fns(root);
    assert!(fns.iter().any(|f| f == "run"), "found no Simulator::run: {fns:?}");
    for f in &fns {
        assert!(
            modes.contains(&format!("`Simulator::{f}`")),
            "Simulator::{f} is not named under \"Execution modes\""
        );
    }
}
