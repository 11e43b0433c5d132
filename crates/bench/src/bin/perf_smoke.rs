//! Release-mode perf/correctness smoke for CI.
//!
//! Loads the synthetic IMDB once, picks up to [`PER_FAMILY`] queries of every JOB
//! family (skipping queries joining more than [`MAX_TABLES`] relations) and runs that
//! set through every leg of [`LEGS`]: threads {1, 4} × feedback {off, on}, columnar
//! off × 2, a 2 KiB memory budget × 2, each pinned through `Database::set_*`.
//! A leg executes every selected query under plain execution and under all three
//! built-in re-optimization policies (materialize-restart, inject-only, mid-query)
//! through the policy driver, checking that all four agree on the result; the first
//! query of every family additionally runs the selective-improvement policy to
//! completion. Exits non-zero on any divergence in any leg, which is what gates
//! result-correctness regressions in CI.
//!
//! Every query's reference result is computed by a **forced single-threaded,
//! row-engine** plain run at an unlimited budget, and every other execution runs at
//! the leg's settings. A 4-thread leg therefore proves that morsel-driven parallel
//! execution — including mid-query re-optimization over parallel pipelines —
//! produces exactly the single-threaded results; a columnar leg proves the
//! vectorized scan/filter kernels are row-identical to the row engine, and a
//! columnar-off leg exercises the kill switch end to end. Rows are compared in
//! sorted order when the query has no ORDER BY (output order is not plan-defined
//! there, and parallel morsel interleaving legitimately permutes it); ORDER BY
//! queries are compared exactly.
//!
//! The process-wide counters are gated as per-leg deltas. At more than one thread a
//! leg asserts — in the resident-pool phase — that suspension-heavy mid-query rounds
//! **start strictly fewer build pipelines than were planned** (lazy build scheduling
//! skips the builds an abandoned plan never probed) without spawning a thread. A
//! budgeted leg spills breaker state to disk (grace-hash partitioned builds,
//! aggregate runs, external sorts) against the in-memory truth, and fails if the
//! budget never denies a single grant (too large to prove anything), if no plain
//! run spills, or if a spill file outlives it. At more than one thread every run of
//! the budgeted leg must report the morsel engine, which spills in place.
//! A feedback-on leg runs the set twice under the cross-query cache and fails
//! unless pass 2 sheds rounds and median violation q-error.
//!
//! ```text
//! cargo run --release -p reopt-bench --bin perf_smoke                 # all eight legs
//! cargo run --release -p reopt-bench --bin perf_smoke -- t4-budget    # named legs only
//! ```

use reopt_bench::{Harness, HarnessConfig};
use reopt_core::{
    execute_with_policy_feedback, execute_with_reoptimization, Database, ReoptConfig, ReoptMode,
    ReoptReport, SelectivePolicy,
};
use reopt_storage::Row;
use reopt_workload::JobQuery;
use std::time::{Duration, Instant};

/// Queries taken from each JOB family, smallest variants first as listed.
const PER_FAMILY: usize = 3;
/// Queries joining more relations than this are skipped.
const MAX_TABLES: usize = 12;
/// IMDB generator scale; the budget below is sized against it.
const SCALE: f64 = 0.02;
/// Q-error threshold of every re-optimizing run.
const THRESHOLD: f64 = 8.0;
/// The budgeted legs' byte budget, small enough that plain runs spill, not only
/// policy runs. At this scale most plain plans join by index nested loops and
/// reserve little: at 4, 8, 32, 128 and 256 KiB no plain run spills. Measured at
/// 2 KiB: in each budgeted leg 2 plain runs spill 17 581 B; `t1-budget` denies
/// 1 926 grants and its policy runs spill 15 090 330 B, `t4-budget` about 33 200
/// and spills 157 695 725 B, 132 MB of it in 15a's MidQuery run, whose plan after
/// its sixteenth round spills. A budgeted leg fails loudly if drift makes the
/// budget vacuous.
const BUDGET: u64 = 2048;

/// One configuration the whole query set is checked under.
struct Leg {
    name: &'static str,
    threads: usize,
    feedback: bool,
    columnar: bool,
    mem_budget: Option<u64>,
}

const LEGS: [Leg; 8] = [
    Leg { name: "t1", threads: 1, feedback: false, columnar: true, mem_budget: None },
    Leg { name: "t4", threads: 4, feedback: false, columnar: true, mem_budget: None },
    Leg { name: "t1-feedback", threads: 1, feedback: true, columnar: true, mem_budget: None },
    Leg { name: "t4-feedback", threads: 4, feedback: true, columnar: true, mem_budget: None },
    Leg { name: "t1-columnar-off", threads: 1, feedback: false, columnar: false, mem_budget: None },
    Leg { name: "t4-columnar-off", threads: 4, feedback: false, columnar: false, mem_budget: None },
    Leg { name: "t1-budget", threads: 1, feedback: false, columnar: true, mem_budget: Some(BUDGET) },
    Leg { name: "t4-budget", threads: 4, feedback: false, columnar: true, mem_budget: Some(BUDGET) },
];

fn reopt_config(mode: ReoptMode, feedback: bool) -> ReoptConfig {
    ReoptConfig {
        threshold: THRESHOLD,
        mode,
        feedback,
        ..ReoptConfig::default()
    }
}

/// Canonicalize rows for comparison: sorted unless the query pins its output order
/// with an ORDER BY.
fn canonical(rows: &[Row], order_sensitive: bool) -> Vec<String> {
    let mut rendered: Vec<String> = rows.iter().map(|row| format!("{row}")).collect();
    if !order_sensitive {
        rendered.sort();
    }
    rendered
}

/// One selected query with the rows every run in every leg must return: those of a
/// forced single-threaded, row-engine plain execution at an unlimited memory budget.
struct Case {
    query: JobQuery,
    order_sensitive: bool,
    reference: Vec<String>,
}

impl Case {
    /// Run the query under `config` at the pinned settings. A failed run is reported
    /// (as `what`) and yields `None`; a diverging one is reported and still counted.
    fn run_reoptimized(
        &self,
        db: &mut Database,
        config: &ReoptConfig,
        what: &str,
        failed: &mut bool,
    ) -> Option<(ReoptReport, Duration)> {
        let id = &self.query.id;
        let start = Instant::now();
        match execute_with_reoptimization(db, &self.query.sql, config) {
            Ok(report) => {
                let elapsed = start.elapsed();
                let got = canonical(&report.final_rows, self.order_sensitive);
                if got != self.reference {
                    eprintln!(
                        "perf_smoke: RESULT MISMATCH for {id} under {} ({what}, {} threads): \
                         {got:?} vs single-threaded {:?}",
                        report.policy, report.threads, self.reference
                    );
                    *failed = true;
                }
                Some((report, elapsed))
            }
            Err(error) => {
                eprintln!("perf_smoke: re-optimized run of {id} ({what}) failed: {error}");
                *failed = true;
                None
            }
        }
    }
}

/// A budgeted leg's proof that its plain runs spill.
struct BudgetGate {
    active: bool,
    /// Bytes spilled by the leg's plain runs, and how many of them spilled.
    plain_bytes: u64,
    plain_runs: usize,
    /// Bytes spilled by the leg's policy runs.
    policy_bytes: u64,
}

impl BudgetGate {
    /// Account one run (a plain run when `plain`) that spilled `spilled` bytes.
    fn check(&mut self, spilled: u64, plain: bool) {
        if !self.active {
            return;
        }
        if plain {
            self.plain_bytes += spilled;
            self.plain_runs += usize::from(spilled > 0);
        } else {
            self.policy_bytes += spilled;
        }
    }
}

/// Whether the query's output order is plan-defined (ORDER BY present).
fn is_order_sensitive(sql: &str) -> bool {
    reopt_sql::parse_sql(sql)
        .ok()
        .and_then(|statement| statement.query().map(|select| !select.order_by.is_empty()))
        .unwrap_or(false)
}

fn main() {
    let wanted: Vec<String> = std::env::args().skip(1).collect();
    if let Some(unknown) = wanted
        .iter()
        .find(|name| !LEGS.iter().any(|leg| leg.name == name.as_str()))
    {
        let known: Vec<&str> = LEGS.iter().map(|leg| leg.name).collect();
        eprintln!("perf_smoke: unknown leg '{unknown}' (known: {})", known.join(", "));
        std::process::exit(2);
    }

    let config = HarnessConfig {
        scale: SCALE,
        stride: 1,
        threshold: THRESHOLD,
        seed: 13,
        ..HarnessConfig::default()
    };
    let build_start = Instant::now();
    let mut harness = match Harness::new(config) {
        Ok(harness) => harness,
        Err(error) => {
            eprintln!("perf_smoke: failed to build the harness: {error}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "perf_smoke: data loaded ({} rows) in {:.1}s",
        harness.db.storage().total_rows(),
        build_start.elapsed().as_secs_f64(),
    );

    // The references are the same in every leg, so they are computed once.
    let db = &mut harness.db;
    db.set_threads(Some(1));
    db.set_columnar(Some(false));
    db.set_mem_budget(None);
    let reference_start = Instant::now();
    let mut reference_failed = false;
    let mut cases: Vec<Case> = Vec::new();
    let mut family_counts = std::collections::HashMap::new();
    for query in &harness.queries {
        if query.table_count > MAX_TABLES {
            continue;
        }
        let count = family_counts.entry(query.family).or_insert(0usize);
        if *count >= PER_FAMILY {
            continue;
        }
        *count += 1;
        let order_sensitive = is_order_sensitive(&query.sql);
        match db.execute(&query.sql) {
            Ok(output) => cases.push(Case {
                query: query.clone(),
                order_sensitive,
                reference: canonical(&output.rows, order_sensitive),
            }),
            Err(error) => {
                eprintln!(
                    "perf_smoke: single-threaded reference run of {} failed: {error}",
                    query.id
                );
                reference_failed = true;
            }
        }
    }
    eprintln!(
        "perf_smoke: {} queries across {} families (<= {PER_FAMILY}/family, <= {MAX_TABLES} \
         tables); single-threaded row-engine references in {:.2}s",
        cases.len(),
        family_counts.len(),
        reference_start.elapsed().as_secs_f64()
    );

    let mut failed_legs = Vec::new();
    for leg in LEGS
        .iter()
        .filter(|leg| wanted.is_empty() || wanted.iter().any(|name| name == leg.name))
    {
        if !run_leg(db, &cases, leg) {
            failed_legs.push(leg.name);
        }
    }
    if reference_failed || !failed_legs.is_empty() {
        eprintln!("perf_smoke: FAILED (legs: {})", failed_legs.join(", "));
        std::process::exit(1);
    }
    println!(
        "perf_smoke: single-threaded row-engine reference, plain and all policies agree on \
         every query in every leg"
    );
}

/// Run the whole smoke under one leg's settings; `true` when every gate held.
fn run_leg(db: &mut Database, cases: &[Case], leg: &Leg) -> bool {
    let threads = leg.threads;
    println!(
        "perf_smoke[{}]: {threads} thread(s), feedback {}, columnar {}{}",
        leg.name,
        if leg.feedback { "on" } else { "off" },
        if leg.columnar { "on" } else { "off" },
        match leg.mem_budget {
            Some(bytes) => format!(", memory budget {bytes} bytes"),
            None => String::new(),
        },
    );
    db.set_threads(Some(threads));
    db.set_columnar(Some(leg.columnar));
    db.set_mem_budget(leg.mem_budget);
    // Each leg starts from the cold cache a process of its own would have had.
    db.catalog_mut().feedback_mut().clear();

    // Process-wide counters, gated below as this leg's deltas.
    let denials_before = db.governor().denials();
    let live_spill_before = reopt_storage::live_spill_files();
    // At threads > 1 the process-wide pool is grown to this leg's size before its
    // first query. The gate is a property the pool decides, not a race: from here
    // on every spawn in the leg — however busy the workers are when a pipeline
    // launches, replacements for blocked workers included — is a regression, and
    // the resident-pool phase below fails on it.
    let pool = reopt_executor::WorkerPool::global();
    if threads > 1 {
        pool.ensure_available(threads);
    }
    let spawned_before = pool.threads_spawned_total();

    let modes = [ReoptMode::Materialize, ReoptMode::InjectOnly, ReoptMode::MidQuery];
    let mut mode_time = [Duration::ZERO; 3];
    let mut mode_rounds = [0usize; 3];
    let mut plain_time = Duration::ZERO;
    let mut selective_runs = 0usize;
    let mut seen_families = std::collections::HashSet::new();
    let mut failed = false;
    let mut budget_gate = BudgetGate {
        active: leg.mem_budget.is_some(),
        plain_bytes: 0,
        plain_runs: 0,
        policy_bytes: 0,
    };

    for case in cases {
        let id = &case.query.id;
        let sql = &case.query.sql;
        let plain_start = Instant::now();
        match db.execute(sql) {
            Ok(output) => {
                plain_time += plain_start.elapsed();
                let spilled = output.metrics.as_ref().map_or(0, |m| m.root.total_spilled().0);
                budget_gate.check(spilled, true);
                let got = canonical(&output.rows, case.order_sensitive);
                if got != case.reference {
                    eprintln!(
                        "perf_smoke: RESULT MISMATCH for {id}: plain at {threads} threads \
                         {got:?} vs single-threaded {:?}",
                        case.reference
                    );
                    failed = true;
                }
            }
            Err(error) => {
                eprintln!("perf_smoke: plain execution of {id} failed: {error}");
                failed = true;
                continue;
            }
        }

        for (idx, mode) in modes.iter().enumerate() {
            // Feedback stays off here in every leg: this phase compares the policies
            // against each other, and cross-query seeding (mode N learning from mode
            // N-1 on the same query) would blur exactly that comparison. The
            // feedback phase below is the one that exercises the cache.
            let config = reopt_config(*mode, false);
            if let Some((report, elapsed)) =
                case.run_reoptimized(db, &config, &format!("{mode:?}"), &mut failed)
            {
                mode_time[idx] += elapsed;
                mode_rounds[idx] += report.rounds.len();
                budget_gate.check(report.spilled_bytes, false);
            }
        }

        // The selective-improvement policy re-executes up to its iteration budget (8
        // executions: 7 corrective rounds and the final run); run it once per family
        // to keep the smoke's runtime linear in the suite.
        if seen_families.insert(case.query.family) {
            let mut policy = SelectivePolicy::new(THRESHOLD, 7);
            match execute_with_policy_feedback(db, sql, &mut policy, leg.feedback) {
                Ok(_) => selective_runs += 1,
                Err(error) => {
                    eprintln!("perf_smoke: selective improvement of {id} failed: {error}");
                    failed = true;
                }
            }
        }
    }

    // --- Cross-query feedback phase -------------------------------------------
    // Run the whole selected set twice under the materialize-restart policy with
    // the catalog's feedback cache cleared first. Pass 1 pays for discovery and
    // fills the cache; pass 2 must be row-identical to the single-threaded plain
    // reference while needing strictly fewer re-optimization rounds with a
    // strictly lower median violation q-error — the cross-query payoff the cache
    // exists for.
    if leg.feedback {
        db.catalog_mut().feedback_mut().clear();
        // The recorded/hits totals are lifetime counters (clear() drops entries,
        // not history); snapshot them so the printed stats cover this phase only.
        let recorded_before = db.catalog().feedback().total_recorded();
        let hits_before = db.catalog().feedback().total_hits();
        let mut passes: Vec<(usize, f64)> = Vec::new();
        for pass in 1..=2usize {
            let mut rounds = 0usize;
            let mut q_errors: Vec<f64> = Vec::new();
            let mut elapsed = Duration::ZERO;
            let config = reopt_config(ReoptMode::Materialize, true);
            for case in cases {
                if let Some((report, took)) = case.run_reoptimized(
                    db,
                    &config,
                    &format!("feedback pass {pass}"),
                    &mut failed,
                ) {
                    elapsed += took;
                    rounds += report.rounds.len();
                    q_errors.extend(report.rounds.iter().map(|round| round.q_error));
                }
            }
            q_errors.sort_by(|a, b| a.partial_cmp(b).expect("q-errors are finite"));
            let median = if q_errors.is_empty() {
                1.0
            } else {
                q_errors[q_errors.len() / 2]
            };
            println!(
                "perf_smoke: feedback pass {pass}: {rounds} rounds, median violation \
                 q-error {median:.2}, {:.2}s",
                elapsed.as_secs_f64()
            );
            passes.push((rounds, median));
        }
        let (rounds_1, median_1) = passes[0];
        let (rounds_2, median_2) = passes[1];
        if rounds_2 >= rounds_1 {
            eprintln!(
                "perf_smoke: FEEDBACK REGRESSION: pass 2 rounds did not decrease \
                 ({rounds_2} vs {rounds_1})"
            );
            failed = true;
        }
        if median_2 >= median_1 {
            eprintln!(
                "perf_smoke: FEEDBACK REGRESSION: pass 2 median q-error did not decrease \
                 ({median_2} vs {median_1})"
            );
            failed = true;
        }
        let cache = db.catalog().feedback();
        println!(
            "perf_smoke: feedback cache holds {} entries ({} recorded, {} hits)",
            cache.len(),
            cache.total_recorded() - recorded_before,
            cache.total_hits() - hits_before,
        );
    }

    // --- Resident-pool phase ---------------------------------------------------
    // PR 5 logged suspension-heavy policies paying a fresh thread-spawn per worker
    // per pipeline at threads>1 (ms-scale mid-query corrections dominated by spawn
    // cost). The resident pool closes that follow-up: once the process-wide pool has
    // grown to the leg's thread count, neither the main phase above nor the
    // suspension-heavy mid-query rounds below may spawn a single new thread.
    // Batches shrink for this phase so smoke-scale tables still split
    // into multi-worker morsel chains (at the default 1024-row batches one morsel
    // swallows every table at this scale and the pool never runs).
    if threads > 1 {
        db.set_batch_size(Some(64));
        // Pinned unlimited for this phase: its gates count what lazy build
        // scheduling and the resident pool do over in-memory mid-query rounds, and
        // memory-pressure rounds would blur them. The morsel engine's spill path is
        // gated by the budgeted main phase above.
        db.set_mem_budget(None);
        // The whole phase runs on hash-join-only plans: index-NL
        // joins probe an index and register no build, so the typical JOB spine would
        // carry zero or one build and the lazy-scheduling assertion below would have
        // nothing to skip.
        db.set_optimizer_config(reopt_planner::OptimizerConfig {
            enable_index_nl_joins: false,
            ..reopt_planner::OptimizerConfig::default()
        });
        let config = reopt_config(ReoptMode::MidQuery, false);
        if spawned_before < threads {
            eprintln!(
                "perf_smoke: POOL REGRESSION: the pool holds {spawned_before} thread(s) after \
                 a request for {threads}"
            );
            failed = true;
        }
        let mut suspension_rounds = 0usize;
        // Lazy build scheduling: eager assembly would start every registered build
        // before the first probe; suspension-heavy rounds abandon plans whose outer
        // builds were never needed, so strictly fewer builds must start than were
        // planned across the phase.
        let lazy_planned_before = reopt_executor::lazy_builds_planned_total();
        let lazy_started_before = reopt_executor::lazy_builds_started_total();
        for case in cases.iter().take(8) {
            match execute_with_reoptimization(db, &case.query.sql, &config) {
                Ok(report) => suspension_rounds += report.rounds.len(),
                Err(error) => {
                    eprintln!(
                        "perf_smoke: pool-phase mid-query run of {} failed: {error}",
                        case.query.id
                    );
                    failed = true;
                }
            }
        }
        let lazy_planned = reopt_executor::lazy_builds_planned_total() - lazy_planned_before;
        let lazy_started = reopt_executor::lazy_builds_started_total() - lazy_started_before;
        if lazy_started > lazy_planned {
            eprintln!(
                "perf_smoke: LAZY BUILD REGRESSION: {lazy_started} builds started but only \
                 {lazy_planned} were planned"
            );
            failed = true;
        }
        if suspension_rounds > 0 && lazy_started >= lazy_planned {
            eprintln!(
                "perf_smoke: LAZY BUILD REGRESSION: {suspension_rounds} mid-query suspension \
                 round(s) but every planned build started ({lazy_started} of {lazy_planned}) — \
                 abandoned plans must skip the builds a re-plan discards"
            );
            failed = true;
        }
        println!(
            "perf_smoke: lazy build scheduling started {lazy_started} of {lazy_planned} planned \
             build(s) across {suspension_rounds} mid-query round(s)"
        );
        db.set_optimizer_config(reopt_planner::OptimizerConfig::default());
        let spawned_after = pool.threads_spawned_total();
        if spawned_after != spawned_before {
            eprintln!(
                "perf_smoke: POOL REGRESSION: the leg spawned {} new thread(s) \
                 ({spawned_before} -> {spawned_after}) after sizing the pool — the worker \
                 pool must be resident across queries and re-optimization rounds",
                spawned_after - spawned_before
            );
            failed = true;
        } else {
            println!(
                "perf_smoke: resident pool held at {spawned_after} thread(s) across the leg \
                 and {suspension_rounds} mid-query round(s) — zero spawns once at size"
            );
        }
        db.set_batch_size(None);
        db.set_mem_budget(leg.mem_budget);
    }

    // --- Out-of-core gate -------------------------------------------------------
    // A budgeted leg must have actually exercised spilling: at least one reservation
    // denied, at least one plain run spilled, and no spill file left on disk. A
    // budget that never denies proves nothing — fail loudly so the leg doesn't rot.
    if let Some(budget) = leg.mem_budget {
        let denials = db.governor().denials() - denials_before;
        println!(
            "perf_smoke: memory budget {budget} bytes: {denials} denied grant(s), \
             governor peak reserved {} bytes",
            db.governor().peak_reserved()
        );
        if denials == 0 {
            eprintln!(
                "perf_smoke: SPILL REGRESSION: budget {budget} bytes never denied a \
                 grant — raise the workload scale or lower the budget"
            );
            failed = true;
        }
        println!(
            "perf_smoke: {} plain run(s) spilled {} bytes, policy runs {} bytes",
            budget_gate.plain_runs, budget_gate.plain_bytes, budget_gate.policy_bytes
        );
        if budget_gate.plain_bytes == 0 {
            eprintln!(
                "perf_smoke: SPILL REGRESSION: no plain run spilled under budget {budget} \
                 bytes at {threads} thread(s) — lower the budget"
            );
            failed = true;
        }
    }
    let live_spill = reopt_storage::live_spill_files();
    if live_spill != live_spill_before {
        eprintln!(
            "perf_smoke: SPILL LEAK: live spill files went {live_spill_before} -> {live_spill} \
             across the leg"
        );
        failed = true;
    }

    println!(
        "perf_smoke: {} queries  plain at {threads} thread(s) {:>7.2}s",
        cases.len(),
        plain_time.as_secs_f64()
    );
    for (idx, mode) in modes.iter().enumerate() {
        println!(
            "perf_smoke: {mode:?}  {:>7.2}s  ({} rounds total)",
            mode_time[idx].as_secs_f64(),
            mode_rounds[idx]
        );
    }
    println!("perf_smoke: selective improvement converged on {selective_runs} families");
    println!(
        "perf_smoke[{}]: {}",
        leg.name,
        if failed { "FAILED" } else { "ok" }
    );
    !failed
}
