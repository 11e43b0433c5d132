//! The six workloads: what each runs, on which data, through which entry point.
//!
//! All are closed loops: a client sends its next query only when the previous
//! one has completed. Names are fixed; later changes cite them.

use reopt_planner::OptimizerConfig;
use reopt_workload::job_queries;

/// How a workload drives the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `Database::execute`.
    Plain,
    /// `execute_with_reoptimization` under `ReoptMode::MidQuery`, feedback off.
    MidQuery,
    /// Parse, bind and plan; nothing executes.
    PlanOnly,
    /// Concurrent `Session`s alternating `execute` and the mid-query policy,
    /// feedback on (the server default).
    ServerMix,
}

/// One query of a workload.
#[derive(Debug, Clone)]
pub struct BenchQuery {
    pub id: String,
    pub sql: String,
}

/// A named workload.
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists: which layers do its work.
    pub why: &'static str,
    pub mode: Mode,
    /// IMDB generator scale.
    pub scale: f64,
    /// Executor threads (1 = the single-threaded engine).
    pub threads: usize,
    /// Concurrent client sessions.
    pub clients: usize,
    /// Memory budget in bytes; a constant, never derived from a run.
    pub mem_budget: Option<u64>,
    /// Plan with hash joins only, so every join carries a build side to govern.
    pub hash_joins_only: bool,
    queries: fn() -> Vec<BenchQuery>,
}

/// Q-error threshold of every policy run (the paper's setting).
pub const REOPT_THRESHOLD: f64 = 32.0;

/// Scale of the JOB workloads. Sized so one plain pass over the suite takes
/// about four seconds on two virtual processors.
const JOB_SCALE: f64 = 0.02;

fn job_up_to(max_relations: usize, skip_family: Option<usize>) -> Vec<BenchQuery> {
    job_queries()
        .into_iter()
        .filter(|q| q.table_count <= max_relations && Some(q.family) != skip_family)
        .map(|q| BenchQuery {
            id: q.id,
            sql: q.sql,
        })
        .collect()
}

fn job_12() -> Vec<BenchQuery> {
    job_up_to(12, None)
}

fn job_all() -> Vec<BenchQuery> {
    job_up_to(usize::MAX, None)
}

fn job_8() -> Vec<BenchQuery> {
    job_up_to(8, None)
}

/// Family 15's hash-only plans run for minutes; every other family stays.
fn job_12_without_family_15() -> Vec<BenchQuery> {
    job_up_to(12, Some(15))
}

fn single_table_scans() -> Vec<BenchQuery> {
    [
        ("count-all", "SELECT count(*) AS c FROM cast_info AS ci"),
        (
            "dict-eq",
            "SELECT count(*) AS c FROM cast_info AS ci WHERE ci.note = '(voice)'",
        ),
        (
            "dict-in",
            "SELECT count(*) AS c FROM movie_info AS mi \
             WHERE mi.info IN ('Drama', 'Horror', 'Sci-Fi')",
        ),
        (
            "native-int",
            "SELECT count(*) AS c FROM title AS t WHERE t.production_year > 2005",
        ),
        (
            "conjunction",
            "SELECT count(*) AS c FROM cast_info AS ci \
             WHERE ci.role_id = 1 AND ci.note = '(voice)' AND ci.person_role_id < 2000",
        ),
        (
            "group-role",
            "SELECT ci.role_id, count(*) AS c FROM cast_info AS ci GROUP BY ci.role_id",
        ),
        (
            "group-year",
            "SELECT t.production_year, count(*) AS c, min(t.title) AS first_title \
             FROM title AS t WHERE t.kind_id = 1 GROUP BY t.production_year",
        ),
        (
            "top-10",
            "SELECT t.id AS id, t.title AS title, t.production_year AS year FROM title AS t \
             WHERE t.production_year > 2010 ORDER BY year DESC, id LIMIT 10",
        ),
        (
            "select-star",
            "SELECT * FROM movie_companies AS mc WHERE mc.company_type_id < 4",
        ),
    ]
    .into_iter()
    .map(|(id, sql)| BenchQuery {
        id: id.to_string(),
        sql: sql.to_string(),
    })
    .collect()
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "job-plain",
        why: "104 JOB queries of at most 12 relations through Database::execute: join \
              operators do nearly all the work and the heavy tail (family 15) sets suite_s",
        mode: Mode::Plain,
        scale: JOB_SCALE,
        threads: 1,
        clients: 1,
        mem_budget: None,
        hash_joins_only: false,
        queries: job_12,
    },
    Workload {
        name: "job-reopt",
        why: "same data and queries under the mid-query policy: re-planning, suspension and \
              state reuse share the time; job-plain over job-reopt is the paper's headline ratio",
        mode: Mode::MidQuery,
        scale: JOB_SCALE,
        threads: 1,
        clients: 1,
        mem_budget: None,
        hash_joins_only: false,
        queries: job_12,
    },
    Workload {
        name: "plan-wide",
        why: "parse, bind and plan all 113 queries and execute nothing: only sql and planner \
              work, so an executor change must not move it and a planner change must",
        mode: Mode::PlanOnly,
        scale: JOB_SCALE,
        threads: 1,
        clients: 1,
        mem_budget: None,
        hash_joins_only: false,
        queries: job_all,
    },
    Workload {
        name: "scan-wide",
        why: "nine single-table scans, filters, groupings and a sort over 920k rows: column \
              storage and expression kernels work and joins do not, the opposite of job-plain",
        mode: Mode::Plain,
        scale: 4.0,
        threads: 1,
        clients: 1,
        mem_budget: None,
        hash_joins_only: false,
        queries: single_table_scans,
    },
    Workload {
        name: "server-mix",
        why: "two sessions on a two-thread pool alternate execute and the mid-query policy with \
              feedback on: morsel engine, pool, admission and the shared cache under contention",
        mode: Mode::ServerMix,
        scale: JOB_SCALE,
        threads: 2,
        clients: 2,
        mem_budget: None,
        hash_joins_only: false,
        queries: job_8,
    },
    Workload {
        name: "job-spill",
        why: "hash-join-only plans under a fixed 10 MiB budget: the working set exceeds it, so \
              grace-hash joins and spill files carry the run; every other workload spills nothing",
        mode: Mode::Plain,
        scale: JOB_SCALE,
        threads: 1,
        clients: 1,
        // 8 MiB spills more, but on data seed 7 query 18a then fails (one join key
        // alone overflows the budget), and no operation of a workload may fail.
        mem_budget: Some(10 << 20),
        hash_joins_only: true,
        queries: job_12_without_family_15,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    pub fn queries(&self) -> Vec<BenchQuery> {
        (self.queries)()
    }

    pub fn optimizer_config(&self) -> OptimizerConfig {
        if self.hash_joins_only {
            OptimizerConfig {
                enable_index_scans: false,
                enable_index_nl_joins: false,
                enable_merge_joins: false,
                ..OptimizerConfig::default()
            }
        } else {
            OptimizerConfig::default()
        }
    }
}

/// SplitMix64: the benchmark's own generator, for query orders only. The engine
/// never sees it, only the generated tables and SQL.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_have_the_documented_sizes() {
        let sizes: Vec<(&str, usize)> = WORKLOADS
            .iter()
            .map(|w| (w.name, w.queries().len()))
            .collect();
        assert_eq!(
            sizes,
            vec![
                ("job-plain", 104),
                ("job-reopt", 104),
                ("plan-wide", 113),
                ("scan-wide", 9),
                ("server-mix", 62),
                ("job-spill", 97),
            ]
        );
        assert!(Workload::by_name("job-spill").unwrap().hash_joins_only);
        assert!(Workload::by_name("nope").is_none());
        // BENCHMARK.json allows a `why` of at most 200 characters on one line.
        assert!(WORKLOADS.iter().all(|w| !w.why.contains('\n')));
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b = a.clone();
        let mut c = a.clone();
        SplitMix64(7).shuffle(&mut a);
        SplitMix64(7).shuffle(&mut b);
        SplitMix64(8).shuffle(&mut c);
        assert_eq!(a, b);
        assert_ne!(a, c);
        a.sort_unstable();
        assert_eq!(a, (0..50).collect::<Vec<u32>>());
    }
}
