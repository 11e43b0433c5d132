//! The sort kernel, and the sorted runs every out-of-core
//! breaker but the hash join spills through.
//!
//! [`SortBuffer`] buffers keyed rows against a memory grant. While the grant
//! holds, [`SortBuffer::finish`] sorts them in memory (stable, direction-aware).
//! On the first denial it reports memory pressure and goes out of core: each later
//! denial sorts the buffer and seals it as one run, and emission becomes a k-way
//! merge of the runs (an external merge sort). Rows reach runs in input order and
//! the merge breaks key ties by run index, so the merged order is the in-memory
//! order exactly, ties included.
//!
//! [`Runs`] is the one sorted-run writer and [`Merge`] the one k-way merge: a run
//! holds `key ++ payload` records in key order. The sort's payload is the row; the
//! aggregation kernel's is a group's encoded accumulator states (`agg.rs`).

use crate::error::ExecError;
use crate::exec::bind;
use crate::spill::{spill_err, Pressure, Reservation, SpillStats};
use reopt_expr::Expr;
use reopt_planner::{PhysicalPlan, PlanKind};
use reopt_storage::spill_file::{SpillDir, SpillReader, SpillRun, SpillWriter};
use reopt_storage::{Row, Value};
use std::cmp::Ordering;
use std::sync::Arc;

/// Compare the leading key values of two records under per-key directions
/// (`true` = ascending).
fn compare_keys(a: &[Value], b: &[Value], directions: &[bool]) -> Ordering {
    for ((x, y), ascending) in a.iter().zip(b).zip(directions) {
        let ordering = if *ascending { x.cmp(y) } else { y.cmp(x) };
        if ordering != Ordering::Equal {
            return ordering;
        }
    }
    Ordering::Equal
}

/// Sorted on-disk runs of `key ++ payload` records. Dropping them deletes their
/// files, however execution ended.
pub(crate) struct Runs {
    runs: Vec<SpillRun>,
    dir: SpillDir,
    /// Directories of runs taken over from other writers ([`Runs::absorb`]).
    absorbed: Vec<SpillDir>,
    /// One direction per key value.
    directions: Vec<bool>,
    stats: Arc<SpillStats>,
}

impl Runs {
    pub(crate) fn new(directions: Vec<bool>, stats: Arc<SpillStats>) -> Result<Self, ExecError> {
        Ok(Self {
            runs: Vec::new(),
            dir: SpillDir::create().map_err(spill_err)?,
            absorbed: Vec::new(),
            directions,
            stats,
        })
    }

    /// Sort `records` stably by key and seal them as one run; `encode` appends a
    /// payload to its record. No records write no run.
    pub(crate) fn write<P>(
        &mut self,
        mut records: Vec<(Vec<Value>, P)>,
        mut encode: impl FnMut(P, &mut Vec<Value>),
    ) -> Result<(), ExecError> {
        if records.is_empty() {
            return Ok(());
        }
        records.sort_by(|a, b| compare_keys(&a.0, &b.0, &self.directions));
        let mut writer = SpillWriter::create(&self.dir).map_err(spill_err)?;
        let mut record = Vec::new();
        for (key, payload) in records {
            record.clear();
            record.extend(key);
            encode(payload, &mut record);
            writer.write_row(&record).map_err(spill_err)?;
        }
        let run = writer.finish().map_err(spill_err)?;
        self.stats.record(&run);
        self.runs.push(run);
        Ok(())
    }

    /// Take over another writer's runs (of the same record layout).
    pub(crate) fn absorb(&mut self, other: Runs) {
        self.runs.extend(other.runs);
        self.absorbed.push(other.dir);
        self.absorbed.extend(other.absorbed);
    }

    /// Open the k-way merge over every run.
    pub(crate) fn merge(self) -> Result<Merge, ExecError> {
        let mut heads = Vec::with_capacity(self.runs.len());
        for run in self.runs {
            let mut reader = run.read().map_err(spill_err)?;
            let head = reader.next_row().map_err(spill_err)?;
            heads.push((run, reader, head));
        }
        Ok(Merge {
            heads,
            directions: self.directions,
            _dirs: (self.dir, self.absorbed),
        })
    }
}

/// K-way merge over sorted runs.
pub(crate) struct Merge {
    /// Each run, kept alive beside its reader (dropping a run deletes its file),
    /// and its next record.
    heads: Vec<(SpillRun, SpillReader, Option<Vec<Value>>)>,
    directions: Vec<bool>,
    _dirs: (SpillDir, Vec<SpillDir>),
}

impl Merge {
    /// Number of key values leading each record.
    pub(crate) fn key_len(&self) -> usize {
        self.directions.len()
    }

    /// The run holding the least head record; ties go to the earliest run.
    fn winner(&self) -> Option<(usize, &[Value])> {
        let mut best: Option<(usize, &[Value])> = None;
        for (idx, (_, _, head)) in self.heads.iter().enumerate() {
            let Some(head) = head else { continue };
            if best.map_or(true, |(_, b)| compare_keys(head, b, &self.directions).is_lt()) {
                best = Some((idx, head));
            }
        }
        best
    }

    /// The record [`Merge::next`] returns next.
    pub(crate) fn peek(&self) -> Option<&[Value]> {
        self.winner().map(|(_, head)| head)
    }

    /// The next record in key order; records with equal keys come in run order.
    pub(crate) fn next(&mut self) -> Result<Option<Vec<Value>>, ExecError> {
        let Some((winner, _)) = self.winner() else {
            return Ok(None);
        };
        let Some((_, reader, head)) = self.heads.get_mut(winner) else {
            return Ok(None);
        };
        let next = reader.next_row().map_err(spill_err)?;
        Ok(std::mem::replace(head, next))
    }
}

/// Rows in sort order, served a batch at a time.
pub(crate) enum Sorted {
    /// Batches already in order (a collected pipeline's), served as they are.
    Batches(std::vec::IntoIter<Vec<Row>>),
    /// Sorted in memory, with the grant that holds them.
    Memory {
        rows: std::vec::IntoIter<Row>,
        _grant: Reservation,
    },
    /// Merged from runs of `key ++ row` records.
    Merge(Merge),
}

impl Sorted {
    pub(crate) fn memory(rows: Vec<Row>, grant: Reservation) -> Self {
        Sorted::Memory {
            rows: rows.into_iter(),
            _grant: grant,
        }
    }

    pub(crate) fn batches(batches: Vec<Vec<Row>>) -> Self {
        Sorted::Batches(batches.into_iter())
    }

    /// The next (at most `batch_size`) rows, or `None` once every row was served;
    /// ordered batches come as they are.
    pub(crate) fn next_batch(&mut self, batch_size: usize) -> Result<Option<Vec<Row>>, ExecError> {
        let out: Vec<Row> = match self {
            Sorted::Batches(batches) => return Ok(batches.find(|batch| !batch.is_empty())),
            Sorted::Memory { rows, .. } => rows.by_ref().take(batch_size).collect(),
            Sorted::Merge(merge) => {
                let mut out = Vec::new();
                while out.len() < batch_size {
                    let Some(mut record) = merge.next()? else { break };
                    out.push(Row::from_values(record.split_off(merge.key_len())));
                }
                out
            }
        };
        Ok((!out.is_empty()).then_some(out))
    }
}

/// The sort of one `Sort` node: keyed rows buffered against a memory grant, going
/// out of core when the grant is denied (see the module doc).
pub(crate) struct SortBuffer {
    /// Sort keys, bound to the input schema.
    keys: Vec<Expr>,
    directions: Vec<bool>,
    keyed: Vec<(Vec<Value>, Row)>,
    reservation: Reservation,
    /// Sealed runs; `None` while the buffer fits its grant.
    runs: Option<Runs>,
    stats: Arc<SpillStats>,
}

/// Append a row to its run record.
fn encode_row(row: Row, record: &mut Vec<Value>) {
    record.extend(row.into_values());
}

impl SortBuffer {
    /// An empty buffer for a `Sort` node, its keys bound to the input schema.
    pub(crate) fn new(
        plan: &PhysicalPlan,
        reservation: Reservation,
        stats: Arc<SpillStats>,
    ) -> Result<Self, ExecError> {
        let (PlanKind::Sort { keys }, [input]) = (&plan.kind, &plan.children[..]) else {
            return Err(ExecError::InvalidPlan("expected a sort over one input".into()));
        };
        Ok(Self {
            keys: keys
                .iter()
                .map(|(expr, _)| bind(expr, &input.schema))
                .collect::<Result<_, _>>()?,
            directions: keys.iter().map(|(_, ascending)| *ascending).collect(),
            keyed: Vec::new(),
            reservation,
            runs: None,
            stats,
        })
    }

    /// Buffer one batch of `bytes` decoded bytes. Returns whether they were granted
    /// before the buffer went out of core (an engine's buffered-rows accounting
    /// counts only those).
    pub(crate) fn push(
        &mut self,
        batch: Vec<Row>,
        bytes: u64,
        pressure: &mut Pressure<'_>,
    ) -> Result<bool, ExecError> {
        let granted = match &mut self.runs {
            // Out of core: a denial flushes the buffer as another run (the overshoot
            // of one denied batch is bounded by the batch size).
            Some(runs) => {
                if !self.reservation.grow(bytes) {
                    runs.write(std::mem::take(&mut self.keyed), encode_row)?;
                    self.reservation.release_all();
                }
                false
            }
            None if self.reservation.grow(bytes) => true,
            None => {
                pressure(self.keyed.len() as u64, &self.reservation)?;
                self.runs = Some(Runs::new(self.directions.clone(), Arc::clone(&self.stats))?);
                false
            }
        };
        for row in batch {
            let key = self
                .keys
                .iter()
                .map(|expr| expr.eval(&row))
                .collect::<Result<Vec<_>, _>>()?;
            self.keyed.push((key, row));
        }
        Ok(granted)
    }

    /// Sort what was buffered: in memory, or by sealing the buffer as the last run
    /// and merging every run.
    pub(crate) fn finish(mut self) -> Result<Sorted, ExecError> {
        let Some(mut runs) = self.runs.take() else {
            self.keyed.sort_by(|a, b| compare_keys(&a.0, &b.0, &self.directions));
            let rows = self.keyed.into_iter().map(|(_, row)| row).collect();
            return Ok(Sorted::memory(rows, self.reservation));
        };
        runs.write(self.keyed, encode_row)?;
        self.reservation.release_all();
        Ok(Sorted::Merge(runs.merge()?))
    }
}
