//! One run of one workload: set-up, an untimed warm-up pass, then timed passes
//! with tracing off, or with `trace` a traced run for the per-layer numbers.
//! End-to-end metrics only ever come from untraced passes.

use crate::digest::{expected_path, parse_expected, ResultDigest};
use crate::engine::{run_traced, run_untraced, Call, Counters, Engine, Prepared};
use crate::env::{nproc, peak_rss_mb, stamp};
use crate::json::{object, Json};
use crate::stats::{
    highest_supported_percentile, median, percentile, quartile_spread, samples_beyond,
};
use crate::trace::{layer_totals, write_jsonl, Recorder, Span};
use crate::workloads::{Mode, SplitMix64, Workload};
use reopt_core::{Database, DEFAULT_MAX_INFLIGHT};
use reopt_executor::{
    lazy_builds_planned_total, lazy_builds_started_total, plan_fallbacks_total, WorkerPool,
};
use reopt_storage::{live_spill_files, Index};
use reopt_workload::{load_imdb, ImdbConfig};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Barrier;
use std::time::Instant;

/// Name and unit of every end-to-end metric, as `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("suite_s", "s"),
    ("queries_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_p95_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Name, unit and layer of every per-layer metric, as `BENCHMARK.json` lists
/// them. `bench` is the harness itself.
pub const PER_LAYER: [(&str, &str, &str); 52] = [
    ("parse_s", "s", "sql"),
    ("statements", "count", "sql"),
    ("bind_s", "s", "planner"),
    ("plan_s", "s", "planner"),
    ("replan_s", "s", "planner"),
    ("plans_built", "count", "planner"),
    ("estimates_requested", "count", "planner"),
    ("analyze_s", "s", "catalog"),
    ("materialize_analyze_s", "s", "catalog"),
    ("feedback_hits", "count", "catalog"),
    ("feedback_records", "count", "catalog"),
    ("feedback_entries", "count", "catalog"),
    ("generate_load_s", "s", "storage"),
    ("index_build_s", "s", "storage"),
    ("spill_bytes_written", "bytes", "storage"),
    ("spill_partitions", "count", "storage"),
    ("queries_spilled", "count", "storage"),
    ("live_spill_files", "count", "storage"),
    ("scan_dictionary_share", "share", "storage"),
    ("scan_native_share", "share", "storage"),
    ("scan_fallback_row_share", "share", "expr"),
    ("scan_row_share", "share", "storage"),
    ("execute_s", "s", "executor"),
    ("scan_s", "s", "executor"),
    ("hash_join_s", "s", "executor"),
    ("index_nl_s", "s", "executor"),
    ("merge_join_s", "s", "executor"),
    ("agg_sort_s", "s", "executor"),
    ("other_operator_s", "s", "executor"),
    ("rows_produced", "count", "executor"),
    ("batches", "count", "executor"),
    ("peak_buffered_bytes", "bytes", "executor"),
    ("governor_denials", "count", "executor"),
    ("governor_peak_reserved", "bytes", "executor"),
    ("threads_spawned_total", "count", "executor"),
    ("plan_fallbacks_total", "count", "executor"),
    ("lazy_builds_started_total", "count", "executor"),
    ("lazy_builds_planned_total", "count", "executor"),
    ("rounds", "count", "core"),
    ("rounds_detection", "count", "core"),
    ("rounds_breaker", "count", "core"),
    ("rounds_progress", "count", "core"),
    ("rounds_memory_pressure", "count", "core"),
    ("detection_s", "s", "core"),
    ("reused_rows", "count", "core"),
    ("corrections", "count", "core"),
    ("useful_exec_share", "share", "core"),
    ("policy_callback_s", "s", "core"),
    ("policy_events", "count", "core"),
    ("peak_inflight", "count", "core"),
    ("admitted_total", "count", "core"),
    ("trace_overhead", "ratio", "bench"),
];

/// Every workload times at least this many passes, however long one takes.
const MIN_TIMED_PASSES: usize = 3;
/// A traced run repeats the traced pass, so that counts can be marked exact.
const MIN_TRACED_PASSES: usize = 2;
/// Set-up repeats per untraced run, in two phases: before the warm-up and after
/// the timed passes, so that one slow spell of the machine cannot cover them all.
/// Each phase sets up at least three times, and as often as fits in half a second:
/// a 5 ms set-up is noisy to time, the median of two hundred is not.
const MIN_SETUPS_PER_PHASE: usize = 3;
const SETUP_PHASE_S: f64 = 0.5;
/// The highest percentile reported as its own metric.
const TAIL_PERCENTILE: f64 = 95.0;

pub struct RunOptions {
    pub workload: &'static Workload,
    /// Seeds the query order (per client). The engine never sees it.
    pub seed: u64,
    /// Seeds the data generator; fixed per run series (see the README).
    pub data_seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Pass-to-pass quartile spread as a share of the median (end-to-end).
    pub spread: Option<f64>,
    /// Whether a count repeated bit for bit on every traced pass (per-layer).
    pub exact: Option<bool>,
}

pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Everything about the run, for `benchmark/out/` and `compare`.
    pub record: Json,
}

impl RunResult {
    /// The result line of the benchmark contract.
    pub fn contract_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    object([("value", m.value.into()), ("unit", m.unit.into())]),
                )
            })
            .collect();
        object([
            ("correct", self.correct.into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("metrics", Json::Obj(metrics)),
        ])
        .render()
    }
}

fn seconds_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

/// Generate, load, index and analyze the data, pin every engine knob through the
/// API, start the pool and load the recorded expectations.
pub fn set_up(
    workload: &Workload,
    data_seed: u64,
) -> Result<(Database, Option<BTreeMap<String, ResultDigest>>), String> {
    let mut db = Database::with_config(workload.optimizer_config());
    let config = ImdbConfig {
        scale: workload.scale,
        seed: data_seed,
    };
    load_imdb(&mut db, &config).map_err(|e| format!("loading the data: {e}"))?;
    db.set_threads(Some(workload.threads));
    db.set_columnar(None);
    db.set_batch_size(None);
    db.set_mem_budget(workload.mem_budget);
    db.set_max_inflight(DEFAULT_MAX_INFLIGHT);
    if workload.threads > 1 {
        WorkerPool::global().ensure_available(workload.threads);
    }
    let path = expected_path(workload.name, data_seed);
    let expected = match std::fs::read_to_string(&path) {
        Ok(text) => Some(parse_expected(&text).map_err(|e| format!("{}: {e}", path.display()))?),
        Err(error) if error.kind() == std::io::ErrorKind::NotFound => None,
        Err(error) => return Err(format!("{}: {error}", path.display())),
    };
    Ok((db, expected))
}

/// Where set-up time goes, measured from outside on the finished database:
/// every index is built again from its column, and ANALYZE runs again on a copy.
struct SetupLayers {
    generate_load_s: f64,
    index_build_s: f64,
    analyze_s: f64,
}

fn setup_layers(db: &Database, setup_s: f64) -> Result<SetupLayers, String> {
    let start = Instant::now();
    for table in db.storage().tables() {
        for index in table.indexes() {
            let keys = (0..table.row_count()).map(|row| table.value_at(row, index.column()));
            std::hint::black_box(Index::build(
                index.kind(),
                index.name(),
                index.column(),
                keys,
            ));
        }
    }
    let index_build_s = seconds_since(start);
    let mut copy = db.clone();
    let start = Instant::now();
    copy.analyze_all().map_err(|e| format!("ANALYZE: {e}"))?;
    let analyze_s = seconds_since(start);
    Ok(SetupLayers {
        generate_load_s: (setup_s - index_build_s - analyze_s).max(0.0),
        index_build_s,
        analyze_s,
    })
}

// ---------------------------------------------------------------------------
// Passes
// ---------------------------------------------------------------------------

struct Context<'a> {
    workload: &'a Workload,
    queries: &'a [Prepared],
    /// The expected digest of `queries[i]`.
    expected: &'a [ResultDigest],
}

/// One closed-loop client: its handle on the engine and its own query order.
struct Client {
    engine: Engine,
    order: Vec<usize>,
    /// Passes completed so far, the warm-up included.
    passes: u32,
}

/// What one pass over the query list measured.
#[derive(Default)]
struct Pass {
    latencies_ms: Vec<f64>,
    correct: u64,
    failed: u64,
    queries_spilled: u64,
    first_failure: Option<String>,
}

impl Pass {
    fn wall_s(&self) -> f64 {
        self.latencies_ms.iter().sum::<f64>() / 1e3
    }
}

/// The spans and counts of one client's traced passes.
struct TraceSink {
    recorder: Recorder,
    counters: Vec<Counters>,
}

/// Laps over the query list in one pass. The server mix alternates the call from
/// query to query and the other way round on its second lap, so that every pass
/// runs every query both ways and all passes do the same work.
fn laps(mode: Mode) -> usize {
    if mode == Mode::ServerMix {
        2
    } else {
        1
    }
}

fn call_for(mode: Mode, lap: usize, position: usize) -> Call {
    match mode {
        Mode::Plain => Call::Execute,
        Mode::MidQuery => Call::MidQueryPolicy,
        Mode::PlanOnly => Call::PlanOnly,
        Mode::ServerMix if (lap + position) % 2 == 0 => Call::Execute,
        Mode::ServerMix => Call::MidQueryPolicy,
    }
}

/// One pass over the client's query list. A query's latency covers the engine
/// call only; its result is checked after the clock has stopped.
fn run_pass(client: &mut Client, context: &Context, mut sink: Option<&mut TraceSink>) -> Pass {
    let mut pass = Pass::default();
    let pass_number = client.passes;
    let mode = context.workload.mode;
    let mut counters = Counters::default();
    let pass_span = sink
        .as_mut()
        .map(|sink| sink.recorder.open(None, "", pass_number, "bench", "pass"));
    let steps = (0..laps(mode)).flat_map(|lap| {
        let positions = client.order.iter().enumerate();
        positions.map(move |(position, &index)| (call_for(mode, lap, position), index))
    });
    for (call, index) in steps {
        let query = &context.queries[index];
        let start = Instant::now();
        let (output, query_span) = match sink.as_mut() {
            None => (run_untraced(&mut client.engine, call, &query.sql), None),
            Some(sink) => {
                let span = sink
                    .recorder
                    .open(pass_span, &query.id, pass_number, "bench", "query");
                let output = run_traced(
                    &mut client.engine,
                    call,
                    &query.sql,
                    &mut sink.recorder,
                    span,
                    &mut counters,
                );
                (output, Some(span))
            }
        };
        pass.latencies_ms.push(seconds_since(start) * 1e3);
        let verify_span = sink
            .as_mut()
            .zip(query_span)
            .map(|(sink, span)| sink.recorder.open_child(span, "bench", "verify"));
        let failure = match output {
            Ok(output) => {
                let (digest, bytes_spilled) = output.check(query.ordered);
                pass.queries_spilled += u64::from(bytes_spilled > 0);
                (digest != context.expected[index]).then(|| {
                    format!(
                        "{}: got {} rows, digest {:016x}; expected {} rows, digest {:016x}",
                        query.id,
                        digest.rows,
                        digest.digest,
                        context.expected[index].rows,
                        context.expected[index].digest
                    )
                })
            }
            Err(error) => Some(format!("{}: {error}", query.id)),
        };
        match failure {
            None => pass.correct += 1,
            Some(failure) => {
                pass.failed += 1;
                pass.first_failure.get_or_insert(failure);
            }
        }
        if let Some(sink) = sink.as_mut() {
            for span in verify_span.into_iter().chain(query_span) {
                sink.recorder.close(span);
            }
        }
    }
    if let Some(sink) = sink {
        sink.recorder
            .close(pass_span.expect("a traced pass has a span"));
        sink.counters.push(counters);
    }
    client.passes += 1;
    pass
}

/// Run `body` once per client. A single client runs on the calling thread, as a
/// program embedding the engine would (on a spawned thread glibc serves the
/// engine's allocations from a secondary arena, which alone costs job-plain
/// 20 %); concurrent clients each get a thread and start together.
fn on_every_client<T: Send>(
    clients: &mut [Client],
    body: impl Fn(usize, &mut Client) -> T + Sync,
) -> Vec<T> {
    if let [client] = clients {
        return vec![body(0, client)];
    }
    let barrier = Barrier::new(clients.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(number, client)| {
                let (barrier, body) = (&barrier, &body);
                scope.spawn(move || {
                    barrier.wait();
                    body(number, client)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("a client thread panicked"))
            .collect()
    })
}

/// The untimed warm-up pass: every client walks the list in its written order,
/// in lockstep, query by query. Caches fill and the pool starts. On the server
/// mix the shared feedback cache fills in the same order whatever the seed: the
/// plans it leads to decide the memory a query needs, and filled in seed order it
/// made `peak_rss_mb` read 46 to 83 MiB from one seed to the next. Results are
/// checked in the timed passes, not here.
fn warm_up(clients: &mut [Client], context: &Context) {
    let mode = context.workload.mode;
    let step = Barrier::new(clients.len());
    on_every_client(clients, |_, client| {
        for lap in 0..laps(mode) {
            for (position, query) in context.queries.iter().enumerate() {
                step.wait();
                let _ = run_untraced(
                    &mut client.engine,
                    call_for(mode, lap, position),
                    &query.sql,
                );
            }
        }
        client.passes += 1;
    });
}

/// Untraced passes on every client until `seconds` have passed and each has
/// made `min_passes`.
fn untraced_passes(
    clients: &mut [Client],
    context: &Context,
    min_passes: usize,
    seconds: f64,
) -> Vec<Vec<Pass>> {
    on_every_client(clients, |_, client| {
        let start = Instant::now();
        let mut passes = Vec::new();
        while passes.len() < min_passes || seconds_since(start) < seconds {
            passes.push(run_pass(client, context, None));
        }
        passes
    })
}

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

pub fn run(options: &RunOptions) -> Result<RunResult, String> {
    let workload = options.workload;
    let queries: Vec<Prepared> = workload
        .queries()
        .into_iter()
        .map(Prepared::new)
        .collect::<Result<_, _>>()?;

    // Set-up, repeated when untraced: its median is a metric of its own.
    let mut setup_times = Vec::new();
    let set_up_phase = |times: &mut Vec<f64>| {
        let phase = Instant::now();
        let mut setups = 0;
        loop {
            let start = Instant::now();
            let built = set_up(workload, options.data_seed)?;
            times.push(seconds_since(start));
            setups += 1;
            let enough = options.trace
                || (setups >= MIN_SETUPS_PER_PHASE && seconds_since(phase) >= SETUP_PHASE_S);
            if enough {
                return Ok::<_, String>(built);
            }
        }
    };
    let (db, recorded) = set_up_phase(&mut setup_times)?;

    // The client count is capped by the processors there are.
    let client_count = workload.clients.min(nproc()).max(1);
    let mut client_seeds = SplitMix64(options.seed);
    let mut clients: Vec<Client> = (0..client_count)
        .map(|_| {
            let mut order: Vec<usize> = (0..queries.len()).collect();
            client_seeds.shuffle(&mut order);
            Client {
                engine: match workload.mode {
                    Mode::ServerMix => Engine::Session(db.connect()),
                    _ => Engine::Db(db.clone()),
                },
                order,
                passes: 0,
            }
        })
        .collect();

    // Expectations: recorded for this data seed, or this run's own plain,
    // single-threaded answers.
    let reference = if recorded.is_some() {
        "recorded"
    } else {
        "self"
    };
    let expected: Vec<ResultDigest> = match recorded {
        Some(recorded) => queries
            .iter()
            .map(|q| {
                recorded
                    .get(&q.id)
                    .copied()
                    .ok_or_else(|| format!("no recorded expectation for query {}", q.id))
            })
            .collect::<Result<_, _>>()?,
        None => self_reference(&db, workload, &queries)?,
    };
    let context = Context {
        workload,
        queries: &queries,
        expected: &expected,
    };

    warm_up(&mut clients, &context);

    let mut params = vec![
        ("seed", options.seed.into()),
        ("data_seed", options.data_seed.into()),
        ("scale", workload.scale.into()),
        ("seconds", options.seconds.into()),
        ("threads", workload.threads.into()),
        ("clients", client_count.into()),
        ("queries", queries.len().into()),
        (
            "mem_budget_bytes",
            workload.mem_budget.map_or(Json::Null, Json::from),
        ),
        ("hash_joins_only", workload.hash_joins_only.into()),
        ("warmup_passes", 1usize.into()),
        ("reference", reference.into()),
    ];

    let result = if options.trace {
        let setup_s = setup_times[0];
        traced_run(options, &db, setup_s, &mut clients, &context, &mut params)?
    } else {
        let passes = untraced_passes(&mut clients, &context, MIN_TIMED_PASSES, options.seconds);
        let peak_rss_mb = peak_rss_mb().unwrap_or(0.0);
        // The second set-up phase, with the first database out of the way.
        drop(clients);
        drop(db);
        set_up_phase(&mut setup_times)?;
        params.push(("setups", setup_times.len().into()));
        params.push((
            "timed_passes",
            passes.iter().map(Vec::len).sum::<usize>().into(),
        ));
        end_to_end(&setup_times, &passes, peak_rss_mb)
    };

    // Workload invariants, checked on every run: only job-spill may spill, it
    // must, and nothing may be left on disk.
    let spills = result.queries_spilled > 0;
    let spill_as_designed = spills == workload.mem_budget.is_some();
    let live_files = live_spill_files();
    let correct = result.failed == 0 && spill_as_designed && live_files == 0;
    if !spill_as_designed {
        eprintln!(
            "reopt_bench: {}: {} query runs spilled, which this workload must{} do",
            workload.name,
            result.queries_spilled,
            if spills { " not" } else { "" }
        );
    }
    if live_files != 0 {
        eprintln!("reopt_bench: {live_files} spill files left on disk");
    }
    if let Some(failure) = &result.first_failure {
        eprintln!(
            "reopt_bench: {}: first failed query: {failure}",
            workload.name
        );
    }

    let metrics_json = result
        .metrics
        .iter()
        .map(|m| {
            let mut fields = vec![
                ("value".to_string(), m.value.into()),
                ("unit".to_string(), m.unit.into()),
            ];
            if let Some(spread) = m.spread {
                fields.push(("spread".to_string(), spread.into()));
            }
            if let Some(exact) = m.exact {
                fields.push(("exact".to_string(), exact.into()));
            }
            (m.name.to_string(), Json::Obj(fields))
        })
        .collect();
    let mut record = vec![
        ("workload".to_string(), workload.name.into()),
        ("why".to_string(), workload.why.into()),
        ("trace".to_string(), options.trace.into()),
        ("stamp".to_string(), stamp()),
        (
            "params".to_string(),
            Json::Obj(
                params
                    .into_iter()
                    .map(|(key, value)| (key.to_string(), value))
                    .collect(),
            ),
        ),
        ("correct".to_string(), correct.into()),
        ("attempted".to_string(), result.attempted.into()),
        ("failed".to_string(), result.failed.into()),
        (
            "failed_share".to_string(),
            (result.failed as f64 / result.attempted.max(1) as f64).into(),
        ),
        ("latency_samples".to_string(), result.latency_samples.into()),
        ("metrics".to_string(), Json::Obj(metrics_json)),
    ];
    record.extend(result.extra);
    Ok(RunResult {
        correct,
        attempted: result.attempted,
        failed: result.failed,
        metrics: result.metrics,
        record: Json::Obj(record),
    })
}

/// Reference answers for a data seed nobody recorded: this run's own plain,
/// single-threaded execution.
fn self_reference(
    db: &Database,
    workload: &Workload,
    queries: &[Prepared],
) -> Result<Vec<ResultDigest>, String> {
    let mut reference = db.clone();
    reference.set_threads(Some(1));
    let mut engine = Engine::Db(reference);
    let call = match workload.mode {
        Mode::PlanOnly => Call::PlanOnly,
        _ => Call::Execute,
    };
    queries
        .iter()
        .map(|query| {
            run_untraced(&mut engine, call, &query.sql)
                .map(|output| output.check(query.ordered).0)
                .map_err(|e| format!("reference run of {}: {e}", query.id))
        })
        .collect()
}

/// What both kinds of run hand back to [`run`].
struct Partial {
    attempted: u64,
    failed: u64,
    queries_spilled: u64,
    latency_samples: usize,
    first_failure: Option<String>,
    metrics: Vec<Metric>,
    extra: Vec<(String, Json)>,
}

fn tally(passes: &[Vec<Pass>]) -> Partial {
    let all = || passes.iter().flatten();
    Partial {
        attempted: all().map(|p| p.correct + p.failed).sum(),
        failed: all().map(|p| p.failed).sum(),
        queries_spilled: all().map(|p| p.queries_spilled).sum(),
        latency_samples: all().map(|p| p.latencies_ms.len()).sum(),
        first_failure: all().find_map(|p| p.first_failure.clone()),
        metrics: Vec::new(),
        extra: Vec::new(),
    }
}

/// The value computed for a metric of one of the tables above.
fn computed<T: Copy>(values: &[(&str, T)], name: &str) -> T {
    let found = values.iter().find(|(computed, _)| *computed == name);
    found.expect("every listed metric is computed").1
}

fn sorted_latencies<'a>(passes: impl Iterator<Item = &'a Pass>) -> Vec<f64> {
    let mut latencies: Vec<f64> = passes
        .flat_map(|p| p.latencies_ms.iter().copied())
        .collect();
    latencies.sort_by(f64::total_cmp);
    latencies
}

/// The end-to-end metrics of the timed, untraced passes.
fn end_to_end(setup_times: &[f64], passes: &[Vec<Pass>], peak_rss_mb: f64) -> Partial {
    let mut partial = tally(passes);
    let all: Vec<&Pass> = passes.iter().flatten().collect();
    let walls: Vec<f64> = all.iter().map(|p| p.wall_s()).collect();
    let busiest_client_s = passes
        .iter()
        .map(|client| client.iter().map(Pass::wall_s).sum::<f64>())
        .fold(0.0, f64::max);
    let correct: u64 = all.iter().map(|p| p.correct).sum();
    let pooled = sorted_latencies(all.iter().copied());
    let per_pass = |p: f64| -> Vec<f64> {
        all.iter()
            .map(|pass| percentile(&sorted_latencies(std::iter::once(*pass)), p))
            .collect()
    };
    let per_pass_rate: Vec<f64> = all.iter().map(|p| p.correct as f64 / p.wall_s()).collect();
    let values = [
        (
            "setup_s",
            (median(setup_times), quartile_spread(setup_times)),
        ),
        ("suite_s", (median(&walls), quartile_spread(&walls))),
        (
            "queries_per_s",
            (
                correct as f64 / busiest_client_s,
                quartile_spread(&per_pass_rate),
            ),
        ),
        (
            "query_p50_ms",
            (percentile(&pooled, 50.0), quartile_spread(&per_pass(50.0))),
        ),
        (
            "query_p95_ms",
            (
                percentile(&pooled, TAIL_PERCENTILE),
                quartile_spread(&per_pass(TAIL_PERCENTILE)),
            ),
        ),
        ("peak_rss_mb", (peak_rss_mb, 0.0)),
    ];
    partial.metrics = END_TO_END
        .iter()
        .map(|&(name, unit)| {
            let (value, spread) = computed(&values, name);
            Metric {
                name,
                unit,
                value,
                spread: Some(spread),
                exact: None,
            }
        })
        .collect();
    partial.extra = vec![
        (
            "samples_beyond_p95".to_string(),
            samples_beyond(pooled.len(), TAIL_PERCENTILE).into(),
        ),
        (
            "highest_supported_percentile".to_string(),
            highest_supported_percentile(pooled.len()).map_or(Json::Null, Json::from),
        ),
        (
            "pass_wall_s".to_string(),
            Json::Arr(walls.iter().map(|&w| w.into()).collect()),
        ),
    ];
    partial
}

// ---------------------------------------------------------------------------
// The traced run
// ---------------------------------------------------------------------------

/// Sum of the durations of the spans named `layer`/`name`, for each pass of each
/// client (a client's number is in its span ids).
fn span_seconds(spans: &[Span], layer: &str, name: &str) -> Vec<f64> {
    let mut per_pass: BTreeMap<(u32, u32), f64> = BTreeMap::new();
    for span in spans.iter().filter(|s| s.layer == layer && s.name == name) {
        *per_pass
            .entry((span.id >> CLIENT_ID_SHIFT, span.pass))
            .or_insert(0.0) += (span.end_ns - span.start_ns) as f64 / 1e9;
    }
    per_pass.into_values().collect()
}

/// Each client numbers its spans from `client << CLIENT_ID_SHIFT`.
const CLIENT_ID_SHIFT: u32 = 24;

/// A short untraced phase for the overhead baseline, then traced passes; the
/// per-layer metrics, the layer table and the trace file.
fn traced_run(
    options: &RunOptions,
    db: &Database,
    setup_s: f64,
    clients: &mut [Client],
    context: &Context,
    params: &mut Vec<(&'static str, Json)>,
) -> Result<Partial, String> {
    let workload = options.workload;
    let layers = setup_layers(db, setup_s)?;
    let phase = Instant::now();
    let untraced = untraced_passes(clients, context, 1, options.seconds / 3.0);
    let untraced_wall_s = median(
        &untraced
            .iter()
            .flatten()
            .map(Pass::wall_s)
            .collect::<Vec<f64>>(),
    );

    let origin = Instant::now();
    let seconds = options.seconds;
    let traced: Vec<(Vec<Pass>, TraceSink)> = on_every_client(clients, |number, client| {
        let mut sink = TraceSink {
            recorder: Recorder::new(origin, (number as u32) << CLIENT_ID_SHIFT),
            counters: Vec::new(),
        };
        let mut passes = Vec::new();
        while passes.len() < MIN_TRACED_PASSES || seconds_since(phase) < seconds {
            passes.push(run_pass(client, context, Some(&mut sink)));
        }
        (passes, sink)
    });

    let mut passes = Vec::new();
    let mut spans = Vec::new();
    let mut per_client_counters = Vec::new();
    for (client_passes, sink) in traced {
        passes.push(client_passes);
        spans.extend(sink.recorder.into_spans());
        per_client_counters.push(sink.counters);
    }
    let mut partial = tally(&passes);
    params.push((
        "untraced_passes",
        untraced.iter().map(Vec::len).sum::<usize>().into(),
    ));
    params.push((
        "traced_passes",
        passes.iter().map(Vec::len).sum::<usize>().into(),
    ));

    let traced_wall_s = median(
        &passes
            .iter()
            .flatten()
            .map(Pass::wall_s)
            .collect::<Vec<f64>>(),
    );
    // A count is exact when a single client saw it repeat on every traced pass.
    let single_client = per_client_counters.len() == 1;
    let first = per_client_counters[0][0].clone();
    let all_counters: Vec<&Counters> = per_client_counters.iter().flatten().collect();
    let count = |field: fn(&Counters) -> u64| -> (f64, Option<bool>) {
        let exact = single_client && all_counters.iter().all(|c| field(c) == field(&first));
        (field(&first) as f64, Some(exact))
    };
    // Times are per pass of one client: the median over the traced passes.
    let time = |field: fn(&Counters) -> u64| -> (f64, Option<bool>) {
        let values: Vec<f64> = all_counters.iter().map(|c| field(c) as f64 / 1e9).collect();
        (median(&values), None)
    };
    let total =
        |field: fn(&Counters) -> u64| -> f64 { all_counters.iter().map(|c| field(c) as f64).sum() };
    let share = |part: f64, whole: f64| -> (f64, Option<bool>) {
        (if whole > 0.0 { part / whole } else { 0.0 }, None)
    };
    let span_time = |layer: &str, name: &str| -> (f64, Option<bool>) {
        (median(&span_seconds(&spans, layer, name)), None)
    };
    let gauge = |value: f64| -> (f64, Option<bool>) { (value, None) };

    let feedback = db.catalog().feedback();
    let scan_total = total(|c| c.scan_ns);
    let executed = total(|c| c.final_execution_ns);
    let values = [
        ("parse_s", span_time("sql", "parse")),
        ("statements", count(|c| c.statements)),
        ("bind_s", span_time("planner", "bind")),
        ("plan_s", span_time("planner", "plan")),
        ("replan_s", time(|c| c.replan_ns)),
        ("plans_built", count(|c| c.plans_built)),
        ("estimates_requested", count(|c| c.estimates_requested)),
        ("analyze_s", gauge(layers.analyze_s)),
        ("materialize_analyze_s", time(|c| c.materialize_ns)),
        ("feedback_hits", gauge(feedback.total_hits() as f64)),
        ("feedback_records", gauge(feedback.total_recorded() as f64)),
        ("feedback_entries", gauge(feedback.len() as f64)),
        ("generate_load_s", gauge(layers.generate_load_s)),
        ("index_build_s", gauge(layers.index_build_s)),
        ("spill_bytes_written", count(|c| c.spill_bytes_written)),
        ("spill_partitions", count(|c| c.spill_partitions)),
        ("queries_spilled", count(|c| c.queries_spilled)),
        ("live_spill_files", gauge(live_spill_files() as f64)),
        (
            "scan_dictionary_share",
            share(total(|c| c.scan_dictionary_ns), scan_total),
        ),
        (
            "scan_native_share",
            share(total(|c| c.scan_native_ns), scan_total),
        ),
        (
            "scan_fallback_row_share",
            share(total(|c| c.scan_fallback_row_ns), scan_total),
        ),
        (
            "scan_row_share",
            share(total(|c| c.scan_row_ns), scan_total),
        ),
        ("execute_s", span_time("executor", "execute")),
        ("scan_s", time(|c| c.scan_ns)),
        ("hash_join_s", time(|c| c.hash_join_ns)),
        ("index_nl_s", time(|c| c.index_nl_ns)),
        ("merge_join_s", time(|c| c.merge_join_ns)),
        ("agg_sort_s", time(|c| c.agg_sort_ns)),
        ("other_operator_s", time(|c| c.other_operator_ns)),
        ("rows_produced", count(|c| c.rows_produced)),
        ("batches", count(|c| c.batches)),
        ("peak_buffered_bytes", count(|c| c.peak_buffered_bytes)),
        ("governor_denials", gauge(db.governor().denials() as f64)),
        (
            "governor_peak_reserved",
            gauge(db.governor().peak_reserved() as f64),
        ),
        (
            "threads_spawned_total",
            gauge(WorkerPool::global().threads_spawned_total() as f64),
        ),
        ("plan_fallbacks_total", gauge(plan_fallbacks_total() as f64)),
        (
            "lazy_builds_started_total",
            gauge(lazy_builds_started_total() as f64),
        ),
        (
            "lazy_builds_planned_total",
            gauge(lazy_builds_planned_total() as f64),
        ),
        ("rounds", count(Counters::rounds)),
        ("rounds_detection", count(|c| c.rounds_detection)),
        ("rounds_breaker", count(|c| c.rounds_breaker)),
        ("rounds_progress", count(|c| c.rounds_progress)),
        (
            "rounds_memory_pressure",
            count(|c| c.rounds_memory_pressure),
        ),
        ("detection_s", time(|c| c.detection_ns)),
        ("reused_rows", count(|c| c.reused_rows)),
        ("corrections", count(|c| c.corrections)),
        (
            "useful_exec_share",
            share(executed, executed + total(|c| c.detection_ns)),
        ),
        ("policy_callback_s", time(|c| c.policy_callback_ns)),
        ("policy_events", count(|c| c.policy_events)),
        ("peak_inflight", gauge(db.server().peak_inflight() as f64)),
        ("admitted_total", gauge(db.server().admitted_total() as f64)),
        ("trace_overhead", gauge(traced_wall_s / untraced_wall_s)),
    ];
    partial.metrics = PER_LAYER
        .iter()
        .map(|&(name, unit, _)| {
            let (value, exact) = computed(&values, name);
            Metric {
                name,
                unit,
                value,
                spread: None,
                exact,
            }
        })
        .collect();

    // The layer table: self time (span minus children) per layer over every
    // traced pass. It sums to the traced passes' wall time by construction.
    let totals = layer_totals(&spans);
    let all_self_ns: u64 = totals.values().map(|t| t.0).sum();
    let table = totals
        .iter()
        .map(|(layer, &(self_ns, span_count))| {
            (
                layer.to_string(),
                object([
                    ("self_s", (self_ns as f64 / 1e9).into()),
                    ("share", (self_ns as f64 / all_self_ns.max(1) as f64).into()),
                    ("spans", span_count.into()),
                ]),
            )
        })
        .collect();
    let pass_span_s: f64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
        .sum();

    let path = trace_path(workload.name);
    std::fs::create_dir_all(path.parent().expect("the trace path has a directory"))
        .and_then(|()| write_jsonl(&path, &spans))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    partial.extra = vec![
        ("layers".to_string(), Json::Obj(table)),
        (
            "layer_self_s".to_string(),
            (all_self_ns as f64 / 1e9).into(),
        ),
        ("traced_pass_span_s".to_string(), pass_span_s.into()),
        ("traced_pass_s".to_string(), traced_wall_s.into()),
        ("untraced_pass_s".to_string(), untraced_wall_s.into()),
        ("trace_file".to_string(), path.display().to_string().into()),
        ("spans".to_string(), spans.len().into()),
    ];
    Ok(partial)
}

pub fn trace_path(workload: &str) -> PathBuf {
    PathBuf::from(format!("benchmark/out/trace-{workload}.jsonl"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_the_metrics_and_workloads_the_driver_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names_and_units = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |pairs: Vec<(&str, &str)>| -> Vec<(String, String)> {
            pairs
                .into_iter()
                .map(|(a, b)| (a.to_string(), b.to_string()))
                .collect()
        };
        assert_eq!(names_and_units("end_to_end"), owned(END_TO_END.to_vec()));
        assert_eq!(
            names_and_units("per_layer"),
            owned(PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect())
        );
        let workloads: Vec<(String, String)> = spec
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| {
                let field = |f: &str| w.get(f).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("why"))
            })
            .collect();
        let expected: Vec<(String, String)> = crate::workloads::WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, expected);
        assert!(workloads.iter().all(|(_, why)| why.len() <= 200));
    }

    #[test]
    fn calls_alternate_only_on_the_server_mix() {
        assert_eq!((laps(Mode::Plain), laps(Mode::ServerMix)), (1, 2));
        assert_eq!(call_for(Mode::Plain, 0, 1), Call::Execute);
        assert_eq!(call_for(Mode::MidQuery, 0, 0), Call::MidQueryPolicy);
        assert_eq!(call_for(Mode::PlanOnly, 0, 1), Call::PlanOnly);
        assert_eq!(call_for(Mode::ServerMix, 0, 0), Call::Execute);
        assert_eq!(call_for(Mode::ServerMix, 0, 1), Call::MidQueryPolicy);
        assert_eq!(call_for(Mode::ServerMix, 1, 1), Call::Execute);
    }
}
