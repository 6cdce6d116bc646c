//! Doc drift: the docs must describe the workspace as it is.
//! `docs/ARCHITECTURE.md` lists every library crate in its crate table,
//! states the real crate count, and names every public `Simulator::run*`
//! entry point under "Execution modes"; and every backticked
//! `Type::member` reference in the docs names a `fn` or field that
//! exists in `crates/*/src`.

use std::collections::BTreeSet;
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

/// Appends the text of every `.rs` file under `dir`, recursively.
fn rust_sources(dir: &Path, out: &mut String) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("read {}: {e}", dir.display())) {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push_str(&read(&path));
        }
    }
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The identifier `s` starts with.
fn ident(s: &str) -> &str {
    &s[..s.find(|c| !is_ident(c)).unwrap_or(s.len())]
}

#[test]
fn backticked_members_exist_in_the_source() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut src = String::new();
    for entry in fs::read_dir(root.join("crates")).expect("crates dir") {
        let dir = entry.expect("dir entry").path().join("src");
        if dir.is_dir() {
            rust_sources(&dir, &mut src);
        }
    }
    // Declared members: every `fn name`, and every line that starts
    // with a `name: ` field.
    let mut names = BTreeSet::new();
    for line in src.lines() {
        for (i, _) in line.match_indices("fn ") {
            names.insert(ident(&line[i + 3..]));
        }
        let field = line.trim_start();
        let field =
            field.strip_prefix("pub(crate) ").or(field.strip_prefix("pub ")).unwrap_or(field);
        if let Some((name, _)) = field.split_once(": ") {
            names.insert(name);
        }
    }

    let mut docs = vec![root.join("DESIGN.md"), root.join("README.md")];
    for entry in fs::read_dir(root.join("docs")).expect("docs dir") {
        docs.push(entry.expect("dir entry").path());
    }
    let mut checked = 0;
    let mut stale = Vec::new();
    for doc in docs.iter().filter(|d| d.extension().is_some_and(|e| e == "md")) {
        // Inline code spans only: drop fenced blocks, then take every
        // other backtick-separated piece.
        let mut fenced = false;
        let mut prose = String::new();
        for line in read(doc).lines() {
            if line.trim_start().starts_with("```") {
                fenced = !fenced;
            } else if !fenced {
                prose.push_str(line);
                prose.push('\n');
            }
        }
        for span in prose.split('`').skip(1).step_by(2) {
            for (i, _) in span.match_indices("::") {
                let ty = span[..i].rsplit(|c| !is_ident(c)).next().unwrap_or_default();
                let member = ident(&span[i + 2..]);
                let lower = member.starts_with(|c: char| c.is_ascii_lowercase() || c == '_');
                if ty.starts_with(|c: char| c.is_ascii_uppercase()) && lower {
                    checked += 1;
                    if !names.contains(member) {
                        let file = doc.strip_prefix(root).unwrap_or(doc).display();
                        stale.push(format!("{file}: `{ty}::{member}`"));
                    }
                }
            }
        }
    }
    assert!(checked > 0, "found no `Type::member` reference to check");
    assert!(stale.is_empty(), "docs name members no crate declares:\n  {}", stale.join("\n  "));
}
