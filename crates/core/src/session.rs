//! Multi-query sessions over one database.
//!
//! The paper evaluates re-optimization one query at a time; the north star here is a
//! server shape: many clients issuing JOB-style queries concurrently against one
//! in-memory database, all multiplexed over the process-wide worker pool
//! ([`reopt_executor::WorkerPool`]). The seam between the two worlds is the
//! [`Session`]:
//!
//! * [`Database::connect`] hands out a session holding a **copy-on-write snapshot**
//!   of the database (tables are `Arc`-shared chunks, so the clone is cheap).
//!   Temporary tables a re-optimizing query materializes mid-flight are therefore
//!   session-local — one session's re-planning never perturbs another's catalog —
//!   while the heavy base-table chunks exist once.
//! * The cross-query [`FeedbackCache`](reopt_catalog::FeedbackCache) is the
//!   deliberate exception: its clone is a handle to a shared store, so true
//!   cardinalities observed by any session seed every other session's next
//!   planning pass.
//! * Admission control: a counting semaphore caps how many queries run at once
//!   ([`Database::set_max_inflight`], default [`DEFAULT_MAX_INFLIGHT`]); excess
//!   callers block in [`Session::execute`] until a slot frees. Under the cap,
//!   fairness between running queries is the worker pool's job (per-task priority +
//!   round-robin at morsel granularity), not admission's.
//! * Per-session **priority** ([`Session::set_priority`]) flows through the
//!   executor into the pool's task registration, so a high-priority session's
//!   morsels are served before lower-priority ones while equal priorities share
//!   fairly.
//!
//! Suspension scoping comes free with this layering: a mid-query re-optimization
//! quiesces only the violating query's task queue (its chain jobs observe the
//! query-scoped flags in `executor::parallel`), so concurrent sessions keep
//! streaming morsels on the same workers throughout another session's re-planning.

use crate::database::{Database, QueryOutput};
use crate::error::DbError;
use crate::policy::ReoptPolicy;
use crate::reopt::ReoptReport;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Default cap on concurrently executing queries (changed by
/// [`Database::set_max_inflight`]).
pub const DEFAULT_MAX_INFLIGHT: usize = 8;

/// State shared by every session connected to one database: the admission
/// semaphore and the session id counter.
#[derive(Debug)]
pub struct ServerState {
    /// Number of queries currently holding an admission slot.
    inflight: Mutex<usize>,
    /// Signalled whenever a slot frees (or the cap is raised).
    slot_freed: Condvar,
    /// Maximum concurrently executing queries. Mutable in place (under the
    /// admission lock) so every session sharing this state — connected before or
    /// after a change — enforces the same cap against the same counters.
    max_inflight: AtomicUsize,
    /// High-water mark of concurrently admitted queries (observability + tests).
    peak_inflight: AtomicU64,
    /// Total queries ever admitted.
    admitted_total: AtomicU64,
    /// Session id allocator.
    next_session: AtomicU64,
}

impl ServerState {
    pub(crate) fn new() -> Self {
        Self {
            inflight: Mutex::new(0),
            slot_freed: Condvar::new(),
            max_inflight: AtomicUsize::new(DEFAULT_MAX_INFLIGHT),
            peak_inflight: AtomicU64::new(0),
            admitted_total: AtomicU64::new(0),
            next_session: AtomicU64::new(1),
        }
    }

    fn allocate_session_id(&self) -> u64 {
        self.next_session.fetch_add(1, Ordering::SeqCst)
    }

    /// Block until an admission slot is free, then claim it. The returned guard
    /// releases the slot (and wakes one waiter) on drop — including on panic or
    /// error paths, so a failed query can never leak its slot.
    fn admit(self: &Arc<Self>) -> AdmissionGuard {
        let mut inflight = self.inflight.lock().expect("admission lock");
        while *inflight >= self.max_inflight.load(Ordering::SeqCst) {
            inflight = self
                .slot_freed
                .wait(inflight)
                .expect("admission lock poisoned");
        }
        *inflight += 1;
        self.admitted_total.fetch_add(1, Ordering::SeqCst);
        self.peak_inflight
            .fetch_max(*inflight as u64, Ordering::SeqCst);
        drop(inflight);
        AdmissionGuard {
            server: Arc::clone(self),
        }
    }

    /// The admission cap.
    pub fn max_inflight(&self) -> usize {
        self.max_inflight.load(Ordering::SeqCst)
    }

    /// Change the admission cap in place. Every session sharing this state sees
    /// the new cap immediately; raising it wakes queued waiters. Taken under the
    /// admission lock so the change serializes with in-flight `admit` checks.
    pub(crate) fn set_max_inflight(&self, max_inflight: usize) {
        let _inflight = self.inflight.lock().expect("admission lock");
        self.max_inflight
            .store(max_inflight.max(1), Ordering::SeqCst);
        self.slot_freed.notify_all();
    }

    /// Queries currently holding an admission slot.
    pub fn inflight(&self) -> usize {
        *self.inflight.lock().expect("admission lock")
    }

    /// High-water mark of concurrently admitted queries.
    pub fn peak_inflight(&self) -> u64 {
        self.peak_inflight.load(Ordering::SeqCst)
    }

    /// Total queries ever admitted.
    pub fn admitted_total(&self) -> u64 {
        self.admitted_total.load(Ordering::SeqCst)
    }
}

/// RAII admission slot.
struct AdmissionGuard {
    server: Arc<ServerState>,
}

impl Drop for AdmissionGuard {
    fn drop(&mut self) {
        let mut inflight = self.server.inflight.lock().expect("admission lock");
        *inflight = inflight.saturating_sub(1);
        drop(inflight);
        self.server.slot_freed.notify_one();
    }
}

/// One client's connection to a [`Database`]: a copy-on-write snapshot of the
/// catalog and storage, a shared admission semaphore, and a scheduling priority.
///
/// Sessions are `Send`: create them on a coordinator thread and hand one to each
/// client thread. Every query a session executes registers as its own task on the
/// process-wide worker pool, so N sessions executing simultaneously interleave at
/// morsel granularity rather than queueing whole queries behind each other.
#[derive(Debug)]
pub struct Session {
    db: Database,
    server: Arc<ServerState>,
    id: u64,
}

impl Session {
    pub(crate) fn new(db: Database, server: Arc<ServerState>) -> Self {
        let id = server.allocate_session_id();
        Self { db, server, id }
    }

    /// This session's unique id (1-based, per database).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The scheduling priority this session's queries register with (higher runs
    /// first; equal priorities round-robin). Defaults to the executor default.
    pub fn priority(&self) -> u8 {
        self.db.priority()
    }

    /// Set the scheduling priority for subsequent queries.
    pub fn set_priority(&mut self, priority: u8) {
        self.db.set_priority(priority);
    }

    /// The shared server state (admission counters; useful for observability).
    pub fn server(&self) -> &Arc<ServerState> {
        &self.server
    }

    /// The session's database snapshot.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Mutable access to the session's database snapshot (e.g. to pin thread count
    /// or columnar mode per session). Writes stay session-local except through the
    /// shared feedback cache.
    pub fn database_mut(&mut self) -> &mut Database {
        &mut self.db
    }

    /// Execute one SQL statement under admission control: blocks while
    /// `max_inflight` other queries are running, then runs on the shared pool.
    pub fn execute(&mut self, sql: &str) -> Result<QueryOutput, DbError> {
        let _slot = self.server.admit();
        self.db.execute(sql)
    }

    /// Execute a query under a re-optimization policy, with admission control. The
    /// whole policy-driven run (all re-planning rounds) holds one admission slot:
    /// rounds are one logical query, and releasing between rounds could deadlock a
    /// driver against its own temp-table state.
    pub fn execute_with_policy(
        &mut self,
        sql: &str,
        policy: &mut dyn ReoptPolicy,
    ) -> Result<ReoptReport, DbError> {
        let _slot = self.server.admit();
        self.db.execute_with_policy(sql, policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::tests::test_database;

    #[test]
    fn sessions_get_unique_ids_and_share_server_state() {
        let db = test_database();
        let a = db.connect();
        let b = db.connect();
        assert_ne!(a.id(), b.id());
        assert!(Arc::ptr_eq(a.server(), b.server()));
    }

    #[test]
    fn session_snapshot_isolates_writes_but_shares_feedback() {
        let db = test_database();
        let mut session = db.connect();
        // A temp table created inside the session is invisible to the database…
        session
            .execute(
                "CREATE TEMP TABLE session_local AS
                 SELECT k.id AS id FROM keyword AS k WHERE k.keyword = 'kw0'",
            )
            .unwrap();
        assert!(session.database().storage().contains_table("session_local"));
        assert!(!db.storage().contains_table("session_local"));
        // …but the feedback cache is one shared store.
        assert!(session
            .database()
            .catalog()
            .feedback()
            .shares_store_with(db.catalog().feedback()));
    }

    #[test]
    fn execute_runs_queries_and_counts_admissions() {
        let db = test_database();
        let mut session = db.connect();
        let out = session
            .execute("SELECT count(*) AS c FROM keyword AS k")
            .unwrap();
        assert_eq!(out.rows[0].value(0).as_int(), Some(50));
        assert_eq!(session.server().admitted_total(), 1);
        assert_eq!(session.server().inflight(), 0);
        assert!(session.server().peak_inflight() >= 1);
    }

    #[test]
    fn set_max_inflight_applies_to_already_connected_sessions() {
        let mut db = test_database();
        let session = db.connect();
        db.set_max_inflight(3);
        assert!(
            Arc::ptr_eq(session.server(), db.server()),
            "the cap change must not fork the server state"
        );
        assert_eq!(session.server().max_inflight(), 3);
    }

    #[test]
    fn admission_cap_blocks_excess_queries() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::time::Duration;

        let mut db = test_database();
        db.set_max_inflight(1);
        let server = Arc::clone(db.server());
        let a = db.connect();
        let mut b = db.connect();

        // Hold the only slot on a thread, then verify a second query blocks until
        // the slot frees.
        let hold = Arc::new(AtomicBool::new(true));
        let hold_for_a = Arc::clone(&hold);
        let holder = std::thread::spawn(move || {
            let _slot = a.server.admit();
            while hold_for_a.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
        });
        // Wait for the holder to own the slot.
        while server.inflight() == 0 {
            std::thread::yield_now();
        }
        let blocked = std::thread::spawn(move || {
            b.execute("SELECT count(*) AS c FROM keyword AS k").unwrap()
        });
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(server.inflight(), 1, "second query must wait for the slot");
        hold.store(false, Ordering::SeqCst);
        holder.join().unwrap();
        let out = blocked.join().unwrap();
        assert_eq!(out.rows[0].value(0).as_int(), Some(50));
        assert!(server.peak_inflight() <= 1);
    }
}
