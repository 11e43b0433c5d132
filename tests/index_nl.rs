//! Index nested-loop joins run the columnar kernel: EXPLAIN ANALYZE reports the path
//! each one took, and on the benchmark's plain JOB suite every one is columnar.

use reopt_repro::core::Database;
use reopt_repro::workload::job::job_queries;
use reopt_repro::workload::{load_imdb, ImdbConfig};

/// The 104 JOB queries of at most 12 relations at scale 0.02 — the `job-plain`
/// benchmark workload — on both benchmark data seeds, single-threaded as that
/// workload runs: every index-NL join reports `probe=columnar`, and switching
/// columnar execution off reports `probe=row` instead.
#[test]
fn every_job_plain_index_nl_join_probes_columnar() {
    let queries: Vec<_> = job_queries()
        .into_iter()
        .filter(|q| q.table_count <= 12)
        .collect();
    assert_eq!(queries.len(), 104);
    for data_seed in [42, 7] {
        let mut db = Database::new();
        load_imdb(
            &mut db,
            &ImdbConfig {
                scale: 0.02,
                seed: data_seed,
            },
        )
        .unwrap();
        db.set_threads(Some(1));
        let mut joins = 0;
        for query in &queries {
            let analyzed = db.explain_analyze(&query.sql).unwrap();
            for line in analyzed.lines().filter(|l| l.contains("Index Nested Loop Join")) {
                joins += 1;
                assert!(
                    line.contains(" probe=columnar "),
                    "{} (data seed {data_seed}): {line}",
                    query.id
                );
            }
        }
        assert!(joins > 500, "data seed {data_seed}: {joins} index-NL joins");
        db.set_columnar(Some(false));
        let analyzed = db.explain_analyze(&queries[0].sql).unwrap();
        let line = analyzed
            .lines()
            .find(|l| l.contains("Index Nested Loop Join"))
            .expect("an index-NL join in the first query's plan");
        assert!(line.contains(" probe=row "), "{line}");
    }
}
