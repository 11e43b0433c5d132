//! ANALYZE: build statistics from a table, optionally from a random sample.
//!
//! This mirrors PostgreSQL's `ANALYZE`: take a row sample of `300 × statistics_target`
//! rows, compute the null fraction, an MCV list, an equi-depth histogram over the
//! remaining values, and estimate the number of distinct values with the Duj1 estimator
//! (Haas & Stokes) when sampling, or exactly when the whole table was scanned.
//!
//! The storage layer is columnar, so ANALYZE works column-at-a-time. When the whole
//! table is scanned, per-column aggregates come straight from storage metadata instead
//! of a value-by-value pass: NULL count, min/max and byte widths are read from
//! [`reopt_storage::ColumnMeta`], and for dictionary-encoded text columns the exact
//! value distribution (distinct strings and their occurrence counts) is read from the
//! column's [`reopt_storage::StringDict`]. The numbers are identical to a row scan —
//! the dictionary tracks exact occurrence counts and the metadata folds every appended
//! value — it just skips re-hashing every row.

use crate::stats::{ColumnStatistics, Histogram, MostCommonValues, TableStatistics};
use rand::rngs::StdRng;
use rand::seq::index::sample;
use rand::SeedableRng;
use reopt_storage::{ColumnData, Table, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// Options controlling ANALYZE.
#[derive(Debug, Clone)]
pub struct AnalyzeOptions {
    /// MCV list size and histogram bucket count.
    pub statistics_target: usize,
    /// Sample size multiplier: sample `multiplier × statistics_target` rows.
    /// PostgreSQL uses 300.
    pub sample_rows_per_target: usize,
    /// Seed for the sampling RNG, so ANALYZE is deterministic in tests and benchmarks.
    pub seed: u64,
}

impl Default for AnalyzeOptions {
    fn default() -> Self {
        Self {
            statistics_target: crate::DEFAULT_STATISTICS_TARGET,
            sample_rows_per_target: 300,
            seed: 0x5eed_beef,
        }
    }
}

/// Per-column aggregates over the analyzed rows (the whole table or a sample).
struct ColumnSummary {
    sample_size: usize,
    nulls: usize,
    width_sum: u64,
    /// Occurrence count per distinct non-NULL value.
    counts: HashMap<Value, usize>,
    min: Option<Value>,
    max: Option<Value>,
}

/// Run ANALYZE over a table.
pub fn analyze_table(table: &Table, options: &AnalyzeOptions) -> TableStatistics {
    let row_count = table.row_count();
    let target_sample = options
        .statistics_target
        .saturating_mul(options.sample_rows_per_target)
        .max(1);

    // Either scan everything or take a uniform random sample of row ids.
    let sampled_ids: Option<Vec<usize>> = if row_count <= target_sample {
        None
    } else {
        let mut rng = StdRng::seed_from_u64(options.seed);
        let mut ids: Vec<usize> = sample(&mut rng, row_count, target_sample).into_vec();
        ids.sort_unstable();
        Some(ids)
    };
    let sampled_all = sampled_ids.is_none();

    let mut columns = Vec::with_capacity(table.schema().len());
    for (idx, column) in table.schema().columns().iter().enumerate() {
        let summary = match &sampled_ids {
            None => summarize_full_column(table, idx, row_count),
            Some(ids) => summarize_sampled_column(table.column(idx), ids),
        };
        columns.push(finish_column(
            column.name(),
            summary,
            row_count,
            sampled_all,
            options.statistics_target,
        ));
    }

    TableStatistics {
        row_count: row_count as u64,
        avg_row_width: table.average_row_width() as f64,
        columns,
    }
}

/// Aggregate a whole column from storage metadata plus (at most) one typed pass.
///
/// NULL count, min/max and the byte-width sum always come from [`ColumnMeta`]
/// maintained on append — no scan needed. The value distribution comes from the
/// string dictionary when the column is dictionary-encoded; otherwise one pass over
/// the decoded non-NULL values builds it.
///
/// [`ColumnMeta`]: reopt_storage::ColumnMeta
fn summarize_full_column(table: &Table, idx: usize, row_count: usize) -> ColumnSummary {
    let meta = table.column_meta(idx);
    let column = table.column(idx);
    let counts: HashMap<Value, usize> = match column {
        ColumnData::Dict { dict, .. } => dict
            .values()
            .iter()
            .zip(dict.counts())
            .map(|(s, &c)| (Value::Text(Arc::clone(s)), c as usize))
            .collect(),
        _ => {
            let mut counts = HashMap::new();
            for id in 0..row_count {
                let v = column.value_at(id);
                if v.is_null() {
                    continue;
                }
                *counts.entry(v).or_insert(0) += 1;
            }
            counts
        }
    };
    ColumnSummary {
        sample_size: row_count,
        nulls: meta.null_count as usize,
        width_sum: meta.byte_sum,
        counts,
        min: meta.min.clone(),
        max: meta.max.clone(),
    }
}

/// Aggregate a column over a sorted sample of row ids with one decoded pass.
fn summarize_sampled_column(column: &ColumnData, ids: &[usize]) -> ColumnSummary {
    let mut summary = ColumnSummary {
        sample_size: ids.len(),
        nulls: 0,
        width_sum: 0,
        counts: HashMap::new(),
        min: None,
        max: None,
    };
    for &id in ids {
        let v = column.value_at(id);
        summary.width_sum += v.width() as u64;
        if v.is_null() {
            summary.nulls += 1;
            continue;
        }
        if summary.min.as_ref().map(|m| v < *m).unwrap_or(true) {
            summary.min = Some(v.clone());
        }
        if summary.max.as_ref().map(|m| v > *m).unwrap_or(true) {
            summary.max = Some(v.clone());
        }
        *summary.counts.entry(v).or_insert(0) += 1;
    }
    summary
}

/// Turn per-column aggregates into [`ColumnStatistics`]: Duj1 / exact distincts, the
/// MCV list and the equi-depth histogram over the rest.
fn finish_column(
    name: &str,
    summary: ColumnSummary,
    table_rows: usize,
    sampled_all: bool,
    statistics_target: usize,
) -> ColumnStatistics {
    let sample_size = summary.sample_size;
    if sample_size == 0 {
        return ColumnStatistics {
            name: name.to_string(),
            n_distinct: 1.0,
            ..Default::default()
        };
    }

    let counts = &summary.counts;
    let non_null = sample_size - summary.nulls;
    let null_fraction = summary.nulls as f64 / sample_size as f64;
    let distinct_in_sample = counts.len();

    // Number of distinct values: exact when we scanned everything, otherwise the Duj1
    // estimator d = n*d / (n - f1 + f1*n/N) where f1 is the number of values seen once.
    let n_distinct = if sampled_all || non_null == 0 {
        distinct_in_sample as f64
    } else {
        let f1 = counts.values().filter(|&&c| c == 1).count() as f64;
        let n = non_null as f64;
        let d = distinct_in_sample as f64;
        let total_non_null = table_rows as f64 * (1.0 - null_fraction);
        let denominator = n - f1 + f1 * n / total_non_null.max(1.0);
        if denominator <= 0.0 {
            d
        } else {
            (n * d / denominator).clamp(d, total_non_null.max(d))
        }
    };

    // MCV list: values that occur more than once in the sample and are among the
    // `statistics_target` most frequent. Frequencies are relative to the full sample
    // (matching PostgreSQL, which stores fractions of all rows including NULLs).
    let mut by_freq: Vec<(&Value, usize)> = counts.iter().map(|(v, c)| (v, *c)).collect();
    by_freq.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
    let mcv_entries: Vec<(Value, f64)> = by_freq
        .iter()
        .take(statistics_target)
        .filter(|(_, c)| *c > 1 || distinct_in_sample <= statistics_target)
        .map(|(v, c)| ((*v).clone(), *c as f64 / sample_size as f64))
        .collect();
    let mcv_values: std::collections::HashSet<&Value> =
        mcv_entries.iter().map(|(v, _)| v).collect();

    // Histogram over values not in the MCV list.
    let mut rest: Vec<&Value> = Vec::new();
    for (value, count) in counts {
        if !mcv_values.contains(value) {
            for _ in 0..*count {
                rest.push(value);
            }
        }
    }
    rest.sort();
    let histogram = build_equi_depth_histogram(&rest, statistics_target);

    ColumnStatistics {
        name: name.to_string(),
        null_fraction,
        n_distinct: n_distinct.max(1.0),
        min: summary.min,
        max: summary.max,
        avg_width: summary.width_sum as f64 / sample_size as f64,
        mcv: MostCommonValues::new(mcv_entries),
        histogram,
    }
}

/// Build an equi-depth histogram over the (sorted, duplicated) non-MCV values.
fn build_equi_depth_histogram(sorted_values: &[&Value], buckets: usize) -> Histogram {
    if sorted_values.len() < 2 || buckets == 0 {
        return Histogram::default();
    }
    let buckets = buckets.min(sorted_values.len() - 1).max(1);
    let mut bounds = Vec::with_capacity(buckets + 1);
    for i in 0..=buckets {
        let pos = (i * (sorted_values.len() - 1)) / buckets;
        bounds.push(sorted_values[pos].clone());
    }
    bounds.dedup();
    if bounds.len() < 2 {
        return Histogram::default();
    }
    Histogram::new(bounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use reopt_storage::{Column, DataType, Row, Schema};

    fn table_with_values(values: Vec<Value>) -> Table {
        let schema = Schema::new(vec![Column::new("v", DataType::Int)]);
        let mut table = Table::new("t", schema);
        for v in values {
            table.push_row(Row::from_values(vec![v])).unwrap();
        }
        table
    }

    fn skewed_table(rows: usize) -> Table {
        // Value 1 accounts for half the rows; the rest are unique.
        let mut values = Vec::new();
        for i in 0..rows {
            if i % 2 == 0 {
                values.push(Value::Int(1));
            } else {
                values.push(Value::Int(i as i64 + 10));
            }
        }
        table_with_values(values)
    }

    #[test]
    fn full_scan_statistics_are_exact() {
        let table = skewed_table(1000);
        let stats = analyze_table(&table, &AnalyzeOptions::default());
        assert_eq!(stats.row_count, 1000);
        let col = stats.column("v").unwrap();
        // 1 distinct value for the heavy hitter + 500 unique values.
        assert!((col.n_distinct - 501.0).abs() < 1e-9);
        assert_eq!(col.null_fraction, 0.0);
        assert_eq!(col.mcv.frequency_of(&Value::Int(1)), Some(0.5));
        assert_eq!(col.min, Some(Value::Int(1)));
        assert!(col.max.as_ref().unwrap().as_int().unwrap() > 1000);
    }

    #[test]
    fn full_scan_reads_text_statistics_from_the_dictionary() {
        // Dictionary-encoded text columns produce their distribution from the
        // dictionary's occurrence counts — verify the numbers match the known data.
        let schema = Schema::new(vec![Column::new("genre", DataType::Text)]);
        let mut table = Table::new("t", schema);
        for i in 0..400 {
            let v = match i % 4 {
                0 | 1 => Value::from("drama"),
                2 => Value::from("comedy"),
                _ => Value::Null,
            };
            table.push_row(Row::from_values(vec![v])).unwrap();
        }
        let stats = analyze_table(&table, &AnalyzeOptions::default());
        let col = stats.column("genre").unwrap();
        assert!((col.n_distinct - 2.0).abs() < 1e-9);
        assert!((col.null_fraction - 0.25).abs() < 1e-9);
        assert_eq!(col.mcv.frequency_of(&Value::from("drama")), Some(0.5));
        assert_eq!(col.mcv.frequency_of(&Value::from("comedy")), Some(0.25));
        assert_eq!(col.min, Some(Value::from("comedy")));
        assert_eq!(col.max, Some(Value::from("drama")));
        // Text width is len().max(1); NULL width is 1.
        let expected_width = (200.0 * 5.0 + 100.0 * 6.0 + 100.0 * 1.0) / 400.0;
        assert!((col.avg_width - expected_width).abs() < 1e-9);
    }

    #[test]
    fn sampled_statistics_estimate_distincts() {
        let table = skewed_table(100_000);
        let options = AnalyzeOptions {
            statistics_target: 10,
            sample_rows_per_target: 100,
            seed: 7,
        };
        let stats = analyze_table(&table, &options);
        let col = stats.column("v").unwrap();
        // True distinct count is 50 001; the Duj1 estimate from a 1 000-row sample is
        // noisy but must be in a sane range and the heavy hitter must be in the MCVs.
        assert!(col.n_distinct > 400.0, "n_distinct = {}", col.n_distinct);
        assert!(col.n_distinct <= 100_000.0);
        let f = col.mcv.frequency_of(&Value::Int(1)).unwrap();
        assert!((f - 0.5).abs() < 0.1, "MCV frequency {f}");
    }

    #[test]
    fn null_fraction_reported() {
        let mut values = vec![Value::Null; 250];
        values.extend((0..750).map(Value::Int));
        let table = table_with_values(values);
        let stats = analyze_table(&table, &AnalyzeOptions::default());
        let col = stats.column("v").unwrap();
        assert!((col.null_fraction - 0.25).abs() < 1e-9);
    }

    #[test]
    fn histogram_covers_non_mcv_values() {
        let table = table_with_values((0..1000).map(Value::Int).collect());
        let options = AnalyzeOptions {
            statistics_target: 10,
            ..Default::default()
        };
        let stats = analyze_table(&table, &options);
        let col = stats.column("v").unwrap();
        assert!(!col.histogram.is_empty());
        let below_half = col.histogram.fraction_below(&Value::Int(500));
        assert!((below_half - 0.5).abs() < 0.05, "fraction {below_half}");
    }

    #[test]
    fn empty_table_statistics() {
        let table = table_with_values(vec![]);
        let stats = analyze_table(&table, &AnalyzeOptions::default());
        assert_eq!(stats.row_count, 0);
        let col = stats.column("v").unwrap();
        assert_eq!(col.n_distinct, 1.0);
        assert!(col.mcv.is_empty());
    }

    #[test]
    fn uniform_unique_column_has_no_mcv_when_wide() {
        // A unique column wider than the statistics target should not produce an MCV
        // list of singletons.
        let table = table_with_values((0..5000).map(Value::Int).collect());
        let options = AnalyzeOptions {
            statistics_target: 100,
            sample_rows_per_target: 10,
            ..Default::default()
        };
        let stats = analyze_table(&table, &options);
        let col = stats.column("v").unwrap();
        assert!(col.mcv.is_empty());
        assert!(col.n_distinct > 1000.0);
    }

    #[test]
    fn analyze_is_deterministic_for_fixed_seed() {
        let table = skewed_table(50_000);
        let options = AnalyzeOptions {
            statistics_target: 20,
            sample_rows_per_target: 50,
            seed: 42,
        };
        let a = analyze_table(&table, &options);
        let b = analyze_table(&table, &options);
        assert_eq!(a, b);
    }
}
