//! Docs-drift gates: the architecture map and the companion documents
//! must keep up with the workspace. A new crate without a map row, or a
//! feature section that loses its anchor, fails here instead of rotting
//! silently.

use std::path::PathBuf;

fn read(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {name}: {e}"))
}

/// Every directory under `crates/` must be named in ARCHITECTURE.md as
/// `crates/<name>` — the crate map is the contract that each crate has
/// a documented place in the system.
#[test]
fn architecture_crate_map_covers_every_crate() {
    let arch = read("ARCHITECTURE.md");
    let crates_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut missing = Vec::new();
    for entry in std::fs::read_dir(&crates_dir).expect("crates/ directory") {
        let entry = entry.expect("dir entry");
        if !entry.path().is_dir() {
            continue;
        }
        let name = entry.file_name().into_string().expect("utf-8 crate name");
        if !arch.contains(&format!("crates/{name}")) {
            missing.push(name);
        }
    }
    missing.sort();
    assert!(missing.is_empty(), "ARCHITECTURE.md crate map is missing a row for: {missing:?}");
}

/// The cross-document anchors the README and tests point at must exist:
/// renumbering or dropping a section breaks every reference to it.
#[test]
fn companion_docs_keep_their_anchors() {
    let design = read("DESIGN.md");
    for anchor in ["## 14. Synchronous translation", "## 15. Engine as a library", "## 16."] {
        assert!(design.contains(anchor), "DESIGN.md lost anchor {anchor:?}");
    }
    let experiments = read("EXPERIMENTS.md");
    for anchor in ["## E18", "## E19"] {
        assert!(experiments.contains(anchor), "EXPERIMENTS.md lost anchor {anchor:?}");
    }
    let readme = read("README.md");
    for anchor in ["--confirm-races", "tgrind serve"] {
        assert!(readme.contains(anchor), "README.md lost anchor {anchor:?}");
    }
    let arch = read("ARCHITECTURE.md");
    for anchor in ["## The replay lane", "## The serve lane"] {
        assert!(arch.contains(anchor), "ARCHITECTURE.md lost anchor {anchor:?}");
    }
}
