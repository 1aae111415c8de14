//! An in-memory evaluation needs no writable temp dir and leaves no file
//! behind. This file is its own test binary (its own process) because it
//! points `TMPDIR` elsewhere, which is process-global.

use std::path::{Path, PathBuf};

use recstep::{Config, Database, Engine, PbmeMode};

/// Run TC with the default config, with `eost(false)`, and through
/// `run_shared`, each over a freshly created database. The databases are
/// returned alive: a store that cleans up on drop would hide its files.
fn run_tc_three_ways() -> Vec<Database> {
    let chain = [(0, 1), (1, 2), (2, 3)];
    let mut dbs = Vec::new();
    for cfg in [
        Config::default(),
        Config::default().eost(false).pbme(PbmeMode::Off),
    ] {
        let tc = Engine::from_config(cfg.threads(2))
            .unwrap()
            .prepare(recstep::programs::TC)
            .unwrap();
        let mut db = Database::new().unwrap();
        db.load_edges("arc", &chain).unwrap();
        tc.run(&mut db).unwrap();
        assert_eq!(db.row_count("tc"), 6);
        assert_eq!(tc.run_shared(&db).unwrap().row_count("tc"), 6);
        dbs.push(db);
    }
    dbs
}

fn scratch(name: &str) -> PathBuf {
    let p = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    let _ = std::fs::remove_file(&p);
    p
}

#[test]
fn evaluation_needs_no_temp_dir_and_writes_nothing_there() {
    // TMPDIR names a regular file: nothing can be created under it.
    let file = scratch("tmpdir-is-a-file");
    std::fs::write(&file, b"not a directory").unwrap();
    std::env::set_var("TMPDIR", &file);
    run_tc_three_ways();
    std::fs::remove_file(&file).unwrap();

    // TMPDIR is a writable, empty dir: it stays empty.
    let dir = scratch("tmpdir-stays-empty");
    std::fs::create_dir_all(&dir).unwrap();
    std::env::set_var("TMPDIR", &dir);
    let _alive = run_tc_three_ways();
    let left: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert!(left.is_empty(), "evaluation left files behind: {left:?}");
    std::fs::remove_dir(&dir).unwrap();
}
