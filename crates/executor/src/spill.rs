//! The process-wide memory governor, and what the kernels' out-of-core paths
//! share.
//!
//! Breaker sinks (hash-join builds, sort and aggregation buffers) reserve bytes
//! against one shared [`MemoryGovernor`] as they buffer. The governor is a plain
//! byte budget, shared across every session of a database the same way the
//! admission semaphore is: `Database::set_mem_budget` mutates it in place, so
//! sessions connected before or after the change all reserve against the same
//! counters.
//!
//! The out-of-core strategies live in the kernels: grace-hash
//! partitioning in `hash_join.rs`, sorted group runs in `agg.rs`, and the run
//! writer, k-way merge and external sort in `sort.rs`. When a reservation is
//! denied, a kernel does **not** immediately spill: it first reports memory
//! pressure through its engine's callback (`Pressure`), which surfaces
//! [`ExecEvent::MemoryPressure`](crate::ExecEvent) to the observer. A
//! re-optimization policy may suspend there and re-plan the remainder of the
//! query instead of paying disk I/O; nothing has been written by then. Only when
//! the policy declines does the kernel spill and release its reservation.
//!
//! The default budget is **unlimited**, in which case every reservation succeeds
//! without touching shared state beyond a single atomic load — the spill path stays
//! cold and execution is byte-for-byte identical to a build without this module.

use crate::error::ExecError;
use reopt_storage::spill_file::SpillRun;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Sentinel for "no budget": reservations always succeed.
const UNLIMITED: u64 = u64::MAX;

/// A shared byte budget that breaker sinks reserve against while buffering.
#[derive(Debug)]
pub struct MemoryGovernor {
    /// Current budget in bytes; [`UNLIMITED`] disables accounting.
    budget: AtomicU64,
    /// Bytes currently reserved across all sinks and sessions.
    reserved: AtomicU64,
    /// High-water mark of `reserved` (observability + tests).
    peak_reserved: AtomicU64,
    /// Number of denied reservations (each denial is one memory-pressure event).
    denials: AtomicU64,
}

impl MemoryGovernor {
    /// A governor with no budget: every reservation succeeds.
    pub fn unlimited() -> Arc<Self> {
        Self::new(None)
    }

    /// A governor with a fixed byte budget (`None` = unlimited).
    pub fn new(budget: Option<u64>) -> Arc<Self> {
        Arc::new(Self {
            budget: AtomicU64::new(normalize(budget)),
            reserved: AtomicU64::new(0),
            peak_reserved: AtomicU64::new(0),
            denials: AtomicU64::new(0),
        })
    }

    /// The current budget, or `None` when unlimited.
    pub fn budget(&self) -> Option<u64> {
        match self.budget.load(Ordering::SeqCst) {
            UNLIMITED => None,
            b => Some(b),
        }
    }

    /// Whether accounting is disabled.
    pub fn is_unlimited(&self) -> bool {
        self.budget.load(Ordering::SeqCst) == UNLIMITED
    }

    /// Change the budget in place (`None` = unlimited). Every session sharing
    /// this governor sees the new budget on its next reservation.
    pub fn set_budget(&self, budget: Option<u64>) {
        self.budget.store(normalize(budget), Ordering::SeqCst);
    }

    /// Bytes currently reserved across all sinks.
    pub fn reserved(&self) -> u64 {
        self.reserved.load(Ordering::SeqCst)
    }

    /// High-water mark of concurrently reserved bytes.
    pub fn peak_reserved(&self) -> u64 {
        self.peak_reserved.load(Ordering::SeqCst)
    }

    /// Total reservations denied so far.
    pub fn denials(&self) -> u64 {
        self.denials.load(Ordering::SeqCst)
    }

    /// Try to reserve `bytes` more. Fails (without reserving anything) if the
    /// budget would be exceeded.
    fn try_reserve(&self, bytes: u64) -> bool {
        if self.is_unlimited() {
            return true;
        }
        let mut current = self.reserved.load(Ordering::SeqCst);
        loop {
            let budget = self.budget.load(Ordering::SeqCst);
            let next = match current.checked_add(bytes) {
                Some(next) if next <= budget => next,
                _ => {
                    self.denials.fetch_add(1, Ordering::SeqCst);
                    return false;
                }
            };
            match self.reserved.compare_exchange(
                current,
                next,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => {
                    self.peak_reserved.fetch_max(next, Ordering::SeqCst);
                    return true;
                }
                Err(actual) => current = actual,
            }
        }
    }

    fn release(&self, bytes: u64) {
        if bytes > 0 {
            self.reserved.fetch_sub(bytes, Ordering::SeqCst);
        }
    }

    /// Start an empty reservation against this governor. Grow it as the sink
    /// buffers; dropping the reservation releases everything it holds.
    pub fn reservation(self: &Arc<Self>) -> Reservation {
        Reservation {
            governor: Arc::clone(self),
            bytes: 0,
        }
    }
}

fn normalize(budget: Option<u64>) -> u64 {
    match budget {
        Some(0) | None => UNLIMITED,
        Some(b) => b,
    }
}

/// RAII slice of the governor's budget held by one breaker sink.
#[derive(Debug)]
pub struct Reservation {
    governor: Arc<MemoryGovernor>,
    bytes: u64,
}

impl Reservation {
    /// Try to grow the reservation by `additional` bytes. On denial the
    /// reservation is unchanged (the sink still holds what it already had).
    pub fn grow(&mut self, additional: u64) -> bool {
        if self.governor.is_unlimited() {
            return true;
        }
        if self.governor.try_reserve(additional) {
            self.bytes += additional;
            true
        } else {
            false
        }
    }

    /// Release the whole reservation (e.g. after the buffer moved to disk).
    pub fn release_all(&mut self) {
        self.governor.release(self.bytes);
        self.bytes = 0;
    }

    /// Bytes currently held.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Take over another reservation's bytes (against the same governor).
    pub(crate) fn absorb(&mut self, mut other: Reservation) {
        self.bytes += std::mem::take(&mut other.bytes);
    }

    /// The governor this reservation counts against.
    pub fn governor(&self) -> &Arc<MemoryGovernor> {
        &self.governor
    }
}

/// Reports a denied grant before a kernel commits a spill, with the rows the kernel
/// buffers and its grant. An `Err` (an observer suspended the run) stops the kernel
/// before anything is written.
pub(crate) type Pressure<'a> = dyn FnMut(u64, &Reservation) -> Result<(), ExecError> + 'a;

/// The spill volume of one plan node: bytes written to sealed runs, and how many
/// runs (grace-hash partitions, sorted runs). Shared by the node's metrics and the
/// kernel states that spill for it, on any worker.
#[derive(Debug, Default)]
pub(crate) struct SpillStats {
    bytes: AtomicU64,
    runs: AtomicU64,
}

impl SpillStats {
    /// Account one sealed run.
    pub(crate) fn record(&self, run: &SpillRun) {
        self.bytes.fetch_add(run.bytes(), Ordering::Relaxed);
        self.runs.fetch_add(1, Ordering::Relaxed);
    }

    /// `(bytes, runs)` so far.
    pub(crate) fn get(&self) -> (u64, u64) {
        (self.bytes.load(Ordering::Relaxed), self.runs.load(Ordering::Relaxed))
    }
}

/// Map a spill-file I/O failure into the executor's error space.
pub(crate) fn spill_err(err: std::io::Error) -> ExecError {
    ExecError::Spill(err.to_string())
}

impl Drop for Reservation {
    fn drop(&mut self) {
        self.governor.release(self.bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_governor_always_grants() {
        let gov = MemoryGovernor::unlimited();
        let mut res = gov.reservation();
        assert!(res.grow(u64::MAX));
        assert!(res.grow(u64::MAX));
        assert_eq!(gov.reserved(), 0, "unlimited mode skips accounting");
        assert_eq!(gov.denials(), 0);
    }

    #[test]
    fn budget_denies_over_reservation_and_releases_on_drop() {
        let gov = MemoryGovernor::new(Some(100));
        let mut a = gov.reservation();
        assert!(a.grow(60));
        let mut b = gov.reservation();
        assert!(b.grow(40));
        assert!(!b.grow(1), "101st byte must be denied");
        assert_eq!(b.bytes(), 40, "denial leaves the reservation unchanged");
        assert_eq!(gov.reserved(), 100);
        assert_eq!(gov.peak_reserved(), 100);
        assert_eq!(gov.denials(), 1);
        drop(a);
        assert!(b.grow(1));
        assert_eq!(gov.reserved(), 41);
        drop(b);
        assert_eq!(gov.reserved(), 0);
    }

    #[test]
    fn release_all_frees_mid_query() {
        let gov = MemoryGovernor::new(Some(50));
        let mut res = gov.reservation();
        assert!(res.grow(50));
        res.release_all();
        assert_eq!(res.bytes(), 0);
        assert_eq!(gov.reserved(), 0);
        assert!(res.grow(50), "freed budget is reusable");
    }

    #[test]
    fn set_budget_applies_in_place() {
        let gov = MemoryGovernor::new(Some(10));
        let mut res = gov.reservation();
        assert!(!res.grow(20));
        gov.set_budget(Some(100));
        assert!(res.grow(20));
        gov.set_budget(None);
        assert!(gov.is_unlimited());
        assert_eq!(gov.budget(), None);
    }

    #[test]
    fn zero_budget_means_unlimited() {
        let gov = MemoryGovernor::new(Some(0));
        assert!(gov.is_unlimited());
    }
}
