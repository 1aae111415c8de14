//! The `recstep` binary end to end: a reader that closes stdout before
//! the report is written ends the run cleanly.

use std::path::PathBuf;
use std::process::{Command, Stdio};

/// A fresh directory holding a TC program over a 3-arc chain.
fn chain_dir(name: &str) -> PathBuf {
    let dir =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let program = format!(".input arc\n.output tc\n{}", recstep::programs::TC);
    std::fs::write(dir.join("tc.datalog"), program).unwrap();
    std::fs::write(dir.join("arc.facts"), "0 1\n1 2\n2 3\n").unwrap();
    dir
}

#[test]
fn a_closed_stdout_is_a_clean_exit() {
    let dir = chain_dir("closed-stdout");
    for extra in [&["--stats"][..], &["--explain"]] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_recstep"))
            .arg("tc.datalog")
            .args(extra)
            .current_dir(&dir)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        // Close the read end before the run has printed anything.
        drop(child.stdout.take());
        let out = child.wait_with_output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            out.status.success(),
            "{extra:?}: {:?}, stderr: {stderr}",
            out.status
        );
        assert!(stderr.is_empty(), "{extra:?}: {stderr}");
    }
    // The results were written all the same.
    let csv = std::fs::read_to_string(dir.join("out/tc.csv")).unwrap();
    assert_eq!(csv.lines().count(), 6);
    std::fs::remove_dir_all(&dir).unwrap();
}
