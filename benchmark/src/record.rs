//! `record-expected`: write `benchmark/expected/<workload>.seed<n>.tsv`, but only
//! after six ways of running every query agree on its answer (and, where the
//! workload has a memory budget, a seventh: the way the workload runs it).

use crate::digest::{digest_rows, expected_path, render_expected, ResultDigest};
use crate::engine::{run_untraced, Call, Engine, Prepared};
use crate::run::set_up;
use crate::workloads::{Mode, Workload, REOPT_THRESHOLD, WORKLOADS};
use reopt_core::{execute_with_reoptimization, Database, ReoptConfig, ReoptMode};
use std::collections::BTreeMap;

/// The answer of one query under one configuration.
type Answer = Result<ResultDigest, String>;

fn plain(db: &Database, threads: usize, columnar: bool, call: Call, query: &Prepared) -> Answer {
    let mut db = db.clone();
    db.set_threads(Some(threads));
    db.set_columnar(Some(columnar));
    run_untraced(&mut Engine::Db(db), call, &query.sql)
        .map(|output| output.check(query.ordered).0)
        .map_err(|e| e.to_string())
}

fn under_policy(db: &Database, mode: ReoptMode, query: &Prepared) -> Answer {
    let mut db = db.clone();
    db.set_threads(Some(1));
    let config = ReoptConfig {
        mode,
        feedback: false,
        ..ReoptConfig::with_threshold(REOPT_THRESHOLD)
    };
    execute_with_reoptimization(&mut db, &query.sql, &config)
        .map(|report| digest_rows(&report.final_rows, query.ordered))
        .map_err(|e| e.to_string())
}

fn record_workload(workload: &Workload, data_seed: u64) -> Result<(), String> {
    let (mut db, _) = set_up(workload, data_seed)?;
    let mut expected = BTreeMap::new();
    let mut ways = 0;
    for query in workload.queries() {
        let query = Prepared::new(query)?;
        // An answer does not depend on the memory budget, and a re-planned query
        // may not fit the budget its first plan fits: the six ways run unlimited.
        db.set_mem_budget(None);
        let mut answers: Vec<(&str, Answer)> = if workload.mode == Mode::PlanOnly {
            // Nothing executes: the answer is the plan's relation set and schema.
            vec![
                ("plan", plain(&db, 1, true, Call::PlanOnly, &query)),
                ("plan again", plain(&db, 1, true, Call::PlanOnly, &query)),
            ]
        } else {
            vec![
                ("row engine", plain(&db, 1, false, Call::Execute, &query)),
                ("columnar", plain(&db, 1, true, Call::Execute, &query)),
                ("two threads", plain(&db, 2, true, Call::Execute, &query)),
                (
                    "materialize",
                    under_policy(&db, ReoptMode::Materialize, &query),
                ),
                (
                    "inject-only",
                    under_policy(&db, ReoptMode::InjectOnly, &query),
                ),
                ("mid-query", under_policy(&db, ReoptMode::MidQuery, &query)),
            ]
        };
        if workload.mem_budget.is_some() {
            db.set_mem_budget(workload.mem_budget);
            answers.push((
                "under the budget",
                plain(&db, 1, true, Call::Execute, &query),
            ));
        }
        ways = answers.len();
        let (_, first) = &answers[0];
        let reference = first
            .clone()
            .map_err(|e| format!("{} {}: {e}", workload.name, query.id))?;
        for (name, answer) in &answers[1..] {
            if answer.as_ref() != Ok(&reference) {
                return Err(format!(
                    "{} {}: `{name}` gave {answer:?}, `{}` gave {reference:?}; nothing recorded",
                    workload.name, query.id, answers[0].0
                ));
            }
        }
        expected.insert(query.id, reference);
    }
    let path = expected_path(workload.name, data_seed);
    let header = format!(
        "{}: scale {}, data seed {data_seed}; {ways} ways of running each query agreed",
        workload.name, workload.scale
    );
    std::fs::create_dir_all(path.parent().expect("expected files have a directory"))
        .and_then(|()| std::fs::write(&path, render_expected(&header, &expected)))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "reopt_bench: recorded {} queries in {}",
        expected.len(),
        path.display()
    );
    Ok(())
}

/// Record one workload's expectations, or every workload's.
pub fn record_expected(workload: Option<&Workload>, data_seed: u64) -> Result<(), String> {
    match workload {
        Some(workload) => record_workload(workload, data_seed),
        None => WORKLOADS
            .iter()
            .try_for_each(|workload| record_workload(workload, data_seed)),
    }
}
