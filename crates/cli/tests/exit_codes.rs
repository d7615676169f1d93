//! A guest fault through the `tgrind` binary itself: the run exits 4
//! with an `== fault:` summary line instead of looking like a clean run.

use std::path::PathBuf;
use std::process::Command;

#[test]
fn guest_fault_exits_4_with_a_fault_line() {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("fault.c");
    std::fs::write(&path, "int main(void){ int z = 0; return 1/z; }").expect("write guest source");
    for tool in ["--tool=taskgrind", "--tool=none"] {
        let out = Command::new(env!("CARGO_BIN_EXE_tgrind"))
            .args([tool, path.to_str().expect("utf-8 path")])
            .output()
            .expect("tgrind runs");
        assert_eq!(out.status.code(), Some(4), "{tool}");
        let err = String::from_utf8_lossy(&out.stderr);
        let line = err.lines().find(|l| l.starts_with("== fault: ")).unwrap_or_else(|| {
            panic!("{tool}: no fault line in\n{err}");
        });
        assert!(line.contains("division by zero"), "{tool}: {line}");
    }
}
