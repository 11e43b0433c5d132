//! One configuration channel: the engine crates read no environment variable except
//! the spill root, and a fresh [`Database`] starts from fixed defaults that the
//! `set_*(None)` calls restore.

use reopt_repro::core::{Database, ReoptConfig, DEFAULT_MAX_INFLIGHT};
use reopt_repro::executor::DEFAULT_BATCH_SIZE;
use std::path::{Path, PathBuf};

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn engine_crates_read_no_environment_variable_but_the_spill_root() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let allowed = crates.join("storage/src/spill_file.rs");
    let mut offenders = Vec::new();
    for name in [
        "storage", "expr", "sql", "catalog", "planner", "executor", "core", "workload",
    ] {
        let mut files = Vec::new();
        rust_files(&crates.join(name).join("src"), &mut files);
        assert!(!files.is_empty(), "crates/{name}/src holds no source");
        for file in files.into_iter().filter(|file| *file != allowed) {
            let source = std::fs::read_to_string(&file).unwrap();
            for (idx, line) in source.lines().enumerate() {
                if line.contains("env::var") || line.contains("var_os") {
                    offenders.push(format!("{}:{}: {}", file.display(), idx + 1, line.trim()));
                }
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "engine settings go through Database::set_* / Executor::with_*, not the environment:\n{}",
        offenders.join("\n")
    );
}

#[test]
fn a_fresh_database_has_fixed_defaults_and_none_restores_them() {
    let machine = std::thread::available_parallelism().map_or(1, |n| n.get());
    let assert_defaults = |db: &Database| {
        assert_eq!(db.threads(), machine);
        assert!(db.columnar());
        assert_eq!(db.batch_size(), DEFAULT_BATCH_SIZE);
        assert_eq!(db.mem_budget(), None);
        assert_eq!(db.server().max_inflight(), DEFAULT_MAX_INFLIGHT);
    };
    let mut db = Database::new();
    assert_defaults(&db);
    assert!(ReoptConfig::default().feedback);

    db.set_threads(Some(machine + 3));
    db.set_columnar(Some(false));
    db.set_batch_size(Some(7));
    assert_eq!(
        (db.threads(), db.columnar(), db.batch_size()),
        (machine + 3, false, 7)
    );
    db.set_threads(None);
    db.set_columnar(None);
    db.set_batch_size(None);
    assert_defaults(&db);
}
