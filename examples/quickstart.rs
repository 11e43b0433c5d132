//! Quickstart: build a tiny database, run a query, look at EXPLAIN ANALYZE, and run the
//! same query under mid-query re-optimization.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use reopt_repro::core::{execute_with_reoptimization, Database, ReoptConfig};
use reopt_repro::storage::{Column, DataType, IndexKind, Row, Schema, Table, Value};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut db = Database::new();

    // 1. Create two tables: a small dimension and a skewed fact table.
    let mut authors = Table::new(
        "authors",
        Schema::new(vec![
            Column::not_null("id", DataType::Int),
            Column::new("name", DataType::Text),
        ]),
    );
    for i in 0..500i64 {
        authors.push_row(Row::from_values(vec![
            Value::Int(i),
            Value::from(format!("Author {i:03}")),
        ]))?;
    }

    let mut posts = Table::new(
        "posts",
        Schema::new(vec![
            Column::not_null("id", DataType::Int),
            Column::not_null("author_id", DataType::Int),
            Column::new("score", DataType::Int),
        ]),
    );
    // Author 7 writes half of all posts — the kind of skew that defeats the uniformity
    // assumption on the join key.
    for i in 0..20_000i64 {
        let author_id = if i % 2 == 0 { 7 } else { i % 500 };
        posts.push_row(Row::from_values(vec![
            Value::Int(i),
            Value::Int(author_id),
            Value::Int(i % 100),
        ]))?;
    }

    db.create_table(authors)?;
    db.create_table(posts)?;
    db.create_index("authors", "id", IndexKind::BTree)?;
    db.create_index("posts", "author_id", IndexKind::Hash)?;
    db.analyze_all()?;

    // 2. A query whose join cardinality the optimizer underestimates.
    let sql = "SELECT count(*) AS posts_by_author_7
               FROM authors AS a, posts AS p
               WHERE a.id = p.author_id AND a.name = 'Author 007'";

    println!("== EXPLAIN ==\n{}", db.explain(sql)?);
    println!("== EXPLAIN ANALYZE ==\n{}", db.explain_analyze(sql)?);

    // 3. The same query under the paper's re-optimization scheme.
    let report = execute_with_reoptimization(&mut db, sql, &ReoptConfig::default())?;
    println!("== re-optimization ==");
    println!("rounds triggered: {}", report.rounds.len());
    for round in &report.rounds {
        println!(
            "  [{}] -> {}: estimated {:.0} rows, actual {} rows (q-error {:.1})",
            round.materialized_aliases.join(", "),
            round.temp_table.as_deref().unwrap_or("count injected"),
            round.estimated_rows,
            round.actual_rows,
            round.q_error
        );
    }
    println!("final script:\n{}", report.final_sql);
    println!(
        "result: {} | planning {:.3} ms | execution {:.3} ms",
        report.final_rows[0].value(0),
        report.planning_time.as_secs_f64() * 1e3,
        report.execution_time.as_secs_f64() * 1e3
    );
    Ok(())
}
