//! On-disk spill runs for out-of-core execution.
//!
//! When a breaker's buffered intermediate exceeds its memory-governor grant, the
//! executor partitions the buffered rows into *spill runs*: flat files of
//! length-prefixed, tag-encoded rows. The format is deliberately simple — this is
//! scratch data that never outlives the query:
//!
//! * Each record is `[u32 payload length][payload]` (little-endian).
//! * The payload is a `u32` value count followed by one tag-encoded value each:
//!   NULL = `0`, Int = `1` + `i64` LE, Float = `2` + `f64` bit pattern LE,
//!   Bool = `3` + one byte, Text = `4` + `u32` dictionary code LE.
//! * Text is **not** written as bytes: every writer interns strings into its own
//!   [`StringDict`], spills the `u32` code, and keeps the dictionary in memory
//!   (wrapped in an `Arc` on the finished [`SpillRun`]). IMDB text columns are
//!   duplicate-heavy, so this keeps runs small and round-trips dictionary-coded
//!   columns without re-materializing strings on disk.
//!
//! Lifecycle is strictly RAII so spill files are provably cleaned up on pipeline
//! drop, query error, and worker panic:
//!
//! * [`SpillDir`] owns a per-pipeline scratch directory under `REOPT_SPILL_DIR`
//!   (default: the system temp dir) and removes it on drop.
//! * [`SpillWriter`] owns its file until [`SpillWriter::finish`] transfers
//!   ownership to the returned [`SpillRun`]; dropping an unfinished writer (e.g.
//!   a LIMIT abandoning a half-written run) deletes the file immediately.
//! * [`SpillRun`] deletes its file on drop.
//!
//! A process-wide live-file counter ([`live_spill_files`]) backs leak assertions
//! in the concurrency battery: after every query — successful, errored, or
//! panicked — the counter must return to zero.

use crate::column::ColumnData;
use crate::dict::{StringDict, NULL_CODE};
use crate::value::Value;
use std::fs::{self, File};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Environment variable overriding the root directory for spill scratch space.
pub const SPILL_DIR_ENV: &str = "REOPT_SPILL_DIR";

/// Process-wide count of spill files currently on disk (created but not yet
/// deleted). Used by tests to assert that no query leaks scratch files.
static LIVE_FILES: AtomicUsize = AtomicUsize::new(0);

/// Allocator for unique directory / file names within this process.
static NEXT_ID: AtomicU64 = AtomicU64::new(0);

/// Number of spill files currently live (created and not yet deleted) in this
/// process. Zero whenever no query is mid-spill.
pub fn live_spill_files() -> usize {
    LIVE_FILES.load(Ordering::SeqCst)
}

/// The root under which spill directories are created: `REOPT_SPILL_DIR` if set
/// and non-empty, otherwise the system temp directory.
pub fn spill_root() -> PathBuf {
    match std::env::var(SPILL_DIR_ENV) {
        Ok(dir) if !dir.is_empty() => PathBuf::from(dir),
        _ => std::env::temp_dir(),
    }
}

/// A scratch directory holding the spill files of one pipeline. Removed
/// (recursively, best-effort) on drop.
#[derive(Debug)]
pub struct SpillDir {
    path: PathBuf,
}

impl SpillDir {
    /// Create a fresh scratch directory under [`spill_root`].
    pub fn create() -> io::Result<Self> {
        Self::create_in(&spill_root())
    }

    /// Create a fresh scratch directory under an explicit root.
    pub fn create_in(root: &Path) -> io::Result<Self> {
        fs::create_dir_all(root)?;
        let path = root.join(format!(
            "reopt-spill-{}-{}",
            std::process::id(),
            NEXT_ID.fetch_add(1, Ordering::SeqCst)
        ));
        fs::create_dir(&path)?;
        Ok(Self { path })
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        // Writers and runs delete their own files; this sweeps the directory
        // itself (and anything left behind by an aborted process).
        let _ = fs::remove_dir_all(&self.path);
    }
}

/// Owns one on-disk spill file: deletes it (and decrements the live counter)
/// exactly once, on drop.
#[derive(Debug)]
struct FileGuard {
    path: PathBuf,
}

impl FileGuard {
    fn register(path: PathBuf) -> Self {
        LIVE_FILES.fetch_add(1, Ordering::SeqCst);
        Self { path }
    }
}

impl Drop for FileGuard {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
        LIVE_FILES.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Streaming writer for one spill run.
#[derive(Debug)]
pub struct SpillWriter {
    file: BufWriter<File>,
    guard: FileGuard,
    dict: StringDict,
    /// Per source dictionary met by [`SpillWriter::write_columns`], its codes'
    /// codes in `dict` (`NULL_CODE`: not interned yet). The `Arc` pins the
    /// dictionary, so its address identifies it.
    translations: Vec<(Arc<StringDict>, Vec<u32>)>,
    rows: u64,
    bytes: u64,
    scratch: Vec<u8>,
}

impl SpillWriter {
    /// Create a new (empty) spill file inside `dir`.
    pub fn create(dir: &SpillDir) -> io::Result<Self> {
        let path = dir
            .path()
            .join(format!("run-{}.spill", NEXT_ID.fetch_add(1, Ordering::SeqCst)));
        let file = File::create(&path)?;
        Ok(Self {
            file: BufWriter::new(file),
            guard: FileGuard::register(path),
            dict: StringDict::new(),
            translations: Vec::new(),
            rows: 0,
            bytes: 0,
            scratch: Vec::new(),
        })
    }

    /// Append one row. Text values are interned into the writer's dictionary and
    /// spilled as `u32` codes; the dictionary itself stays in memory.
    pub fn write_row(&mut self, values: &[Value]) -> io::Result<()> {
        self.start_record(values.len())?;
        for value in values {
            self.encode(value);
        }
        self.finish_record()
    }

    /// Append row `row` of `columns`: the bytes [`SpillWriter::write_row`] writes
    /// for the row's values, encoded without decoding them. A dictionary code is
    /// interned once per source dictionary and code, not once per row.
    pub fn write_columns(&mut self, columns: &[ColumnData], row: usize) -> io::Result<()> {
        self.start_record(columns.len())?;
        for column in columns {
            match column {
                ColumnData::Int { values, validity } if validity.get(row) => {
                    self.encode(&Value::Int(values[row]))
                }
                ColumnData::Float { values, validity } if validity.get(row) => {
                    self.encode(&Value::Float(values[row]))
                }
                ColumnData::Bool { values, validity } if validity.get(row) => {
                    self.encode(&Value::Bool(values[row]))
                }
                ColumnData::Int { .. } | ColumnData::Float { .. } | ColumnData::Bool { .. } => {
                    self.encode(&Value::Null)
                }
                ColumnData::Dict { codes, .. } if codes[row] == NULL_CODE => {
                    self.encode(&Value::Null)
                }
                ColumnData::Dict { codes, dict } => {
                    let code = self.translate(dict, codes[row]);
                    self.scratch.push(4);
                    self.scratch.extend_from_slice(&code.to_le_bytes());
                }
                ColumnData::Val(values) => self.encode(&values[row]),
            }
        }
        self.finish_record()
    }

    /// The code in this run's dictionary of `dict`'s (non-NULL) `code`.
    fn translate(&mut self, dict: &Arc<StringDict>, code: u32) -> u32 {
        let at = match self
            .translations
            .iter()
            .position(|(known, _)| Arc::ptr_eq(known, dict))
        {
            Some(at) => at,
            None => {
                self.translations
                    .push((Arc::clone(dict), vec![NULL_CODE; dict.len()]));
                self.translations.len() - 1
            }
        };
        let codes = &mut self.translations[at].1;
        if codes.len() <= code as usize {
            // The dictionary grew since it was first met.
            codes.resize(dict.len().max(code as usize + 1), NULL_CODE);
        }
        if codes[code as usize] == NULL_CODE {
            codes[code as usize] = self.dict.intern(dict.get(code));
        }
        codes[code as usize]
    }

    fn start_record(&mut self, count: usize) -> io::Result<()> {
        self.scratch.clear();
        let count = u32::try_from(count)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "row too wide to spill"))?;
        self.scratch.extend_from_slice(&count.to_le_bytes());
        Ok(())
    }

    fn encode(&mut self, value: &Value) {
        match value {
            Value::Null => self.scratch.push(0),
            Value::Int(i) => {
                self.scratch.push(1);
                self.scratch.extend_from_slice(&i.to_le_bytes());
            }
            Value::Float(f) => {
                self.scratch.push(2);
                self.scratch.extend_from_slice(&f.to_bits().to_le_bytes());
            }
            Value::Bool(b) => {
                self.scratch.push(3);
                self.scratch.push(u8::from(*b));
            }
            Value::Text(s) => {
                self.scratch.push(4);
                let code = self.dict.intern(s);
                self.scratch.extend_from_slice(&code.to_le_bytes());
            }
        }
    }

    fn finish_record(&mut self) -> io::Result<()> {
        let len = u32::try_from(self.scratch.len())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "row too large to spill"))?;
        self.file.write_all(&len.to_le_bytes())?;
        self.file.write_all(&self.scratch)?;
        self.rows += 1;
        self.bytes += 4 + u64::from(len);
        Ok(())
    }

    /// Rows written so far.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Bytes written so far (including length prefixes).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Flush and seal the run. The returned [`SpillRun`] owns the file (and the
    /// in-memory dictionary needed to decode it) from here on.
    pub fn finish(mut self) -> io::Result<SpillRun> {
        self.file.flush()?;
        Ok(SpillRun {
            guard: self.guard,
            dict: Arc::new(std::mem::take(&mut self.dict)),
            rows: self.rows,
            bytes: self.bytes,
        })
    }
}

/// A sealed, readable spill run. Deletes its file on drop.
#[derive(Debug)]
pub struct SpillRun {
    guard: FileGuard,
    dict: Arc<StringDict>,
    rows: u64,
    bytes: u64,
}

impl SpillRun {
    /// Number of rows in the run.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Size of the run on disk in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The in-memory dictionary that decodes this run's text codes.
    pub fn dict(&self) -> &Arc<StringDict> {
        &self.dict
    }

    /// Open a streaming reader over the run's rows.
    pub fn read(&self) -> io::Result<SpillReader> {
        let file = File::open(&self.guard.path)?;
        Ok(SpillReader {
            file: BufReader::new(file),
            dict: Arc::clone(&self.dict),
            remaining: self.rows,
            scratch: Vec::new(),
        })
    }
}

/// Streaming reader over a [`SpillRun`].
#[derive(Debug)]
pub struct SpillReader {
    file: BufReader<File>,
    dict: Arc<StringDict>,
    remaining: u64,
    scratch: Vec<u8>,
}

/// One value of a spilled row before it becomes a [`Value`]: text is still a code
/// into the run's dictionary.
#[derive(Debug, Clone, Copy)]
enum Raw {
    Null,
    Int(i64),
    Float(f64),
    Bool(bool),
    Text(u32),
}

impl Raw {
    fn value(self, dict: &StringDict) -> Value {
        match self {
            Raw::Null => Value::Null,
            Raw::Int(v) => Value::Int(v),
            Raw::Float(v) => Value::Float(v),
            Raw::Bool(v) => Value::Bool(v),
            Raw::Text(code) => Value::Text(dict.get_shared(code)),
        }
    }
}

impl SpillReader {
    /// Decode the next row, or `None` once the run is exhausted.
    pub fn next_row(&mut self) -> io::Result<Option<Vec<Value>>> {
        let mut values = Vec::new();
        Ok(self.next_row_into(&mut values)?.then_some(values))
    }

    /// Decode the next row into `values` (replacing what it held), or return
    /// `false` once the run is exhausted: a reader of many rows reuses one vector.
    pub fn next_row_into(&mut self, values: &mut Vec<Value>) -> io::Result<bool> {
        values.clear();
        if !self.advance()? {
            return Ok(false);
        }
        self.parse(|raw| values.push(raw.value(&self.dict)))?;
        Ok(true)
    }

    /// Read the next row, or return `false` once the run is exhausted. The row is
    /// then decoded in place by [`SpillReader::row_width`] and
    /// [`SpillReader::push_row`].
    pub fn advance(&mut self) -> io::Result<bool> {
        self.scratch.clear();
        if self.remaining == 0 {
            return Ok(false);
        }
        self.remaining -= 1;
        let mut len_buf = [0u8; 4];
        self.file.read_exact(&mut len_buf)?;
        let len = u32::from_le_bytes(len_buf) as usize;
        if len < 4 {
            return Err(corrupt("record shorter than its value count"));
        }
        self.scratch.resize(len, 0);
        self.file.read_exact(&mut self.scratch)?;
        Ok(true)
    }

    /// The decoded width ([`Value::width`] per value) of the row
    /// [`SpillReader::advance`] read.
    pub fn row_width(&self) -> io::Result<usize> {
        let mut width = 0;
        self.parse(|raw| {
            width += match raw {
                Raw::Null | Raw::Bool(_) => 1,
                Raw::Int(_) | Raw::Float(_) => 8,
                Raw::Text(code) => self.dict.get(code).len().max(1),
            }
        })?;
        Ok(width)
    }

    /// Append the values of the row [`SpillReader::advance`] read to `columns`,
    /// one column per value, without making a [`Value`] where the column's
    /// encoding holds it natively: a text value joins a dictionary column over
    /// this run's dictionary as its code. Any other pairing goes through
    /// [`ColumnData::push`], which keeps the exact value.
    pub fn push_row(&self, columns: &mut [ColumnData]) -> io::Result<()> {
        let width = columns.len();
        let mut columns = columns.iter_mut();
        let mut values = 0;
        self.parse(|raw| {
            values += 1;
            let Some(column) = columns.next() else {
                return;
            };
            match (column, raw) {
                (ColumnData::Int { values, validity }, Raw::Int(v)) => {
                    values.push(v);
                    validity.push(true);
                }
                (ColumnData::Dict { codes, dict }, Raw::Text(code))
                    if Arc::ptr_eq(dict, &self.dict) =>
                {
                    codes.push(code)
                }
                (column, raw) => column.push(raw.value(&self.dict)),
            }
        })?;
        if values != width {
            return Err(corrupt("row width differs from its columns"));
        }
        Ok(())
    }

    /// Walk the values of the row in the scratch buffer.
    fn parse(&self, mut each: impl FnMut(Raw)) -> io::Result<()> {
        let buf = &self.scratch;
        if buf.len() < 4 {
            return Err(corrupt("record shorter than its value count"));
        }
        let count = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
        let mut pos = 4usize;
        for _ in 0..count {
            let tag = *buf.get(pos).ok_or_else(|| corrupt("truncated value tag"))?;
            pos += 1;
            each(match tag {
                0 => Raw::Null,
                1 => Raw::Int(i64::from_le_bytes(read_8(buf, &mut pos)?)),
                2 => Raw::Float(f64::from_bits(u64::from_le_bytes(read_8(buf, &mut pos)?))),
                3 => {
                    let b = *buf.get(pos).ok_or_else(|| corrupt("truncated bool"))?;
                    pos += 1;
                    Raw::Bool(b != 0)
                }
                4 => {
                    let raw: [u8; 4] = buf
                        .get(pos..pos + 4)
                        .ok_or_else(|| corrupt("truncated text code"))?
                        .try_into()
                        .expect("slice of length 4");
                    pos += 4;
                    let code = u32::from_le_bytes(raw);
                    if code as usize >= self.dict.len() {
                        return Err(corrupt("text code outside the run's dictionary"));
                    }
                    Raw::Text(code)
                }
                _ => return Err(corrupt("unknown value tag")),
            });
        }
        Ok(())
    }
}

fn read_8(buf: &[u8], pos: &mut usize) -> io::Result<[u8; 8]> {
    let raw: [u8; 8] = buf
        .get(*pos..*pos + 8)
        .ok_or_else(|| corrupt("truncated 8-byte value"))?
        .try_into()
        .expect("slice of length 8");
    *pos += 8;
    Ok(raw)
}

fn corrupt(detail: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("corrupt spill run: {detail}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// Serializes the tests that create spill files: one of them checks the
    /// process-wide live-file count, which the others move while they run.
    static FILES: Mutex<()> = Mutex::new(());

    fn files() -> MutexGuard<'static, ()> {
        FILES
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn sample_rows() -> Vec<Vec<Value>> {
        vec![
            vec![
                Value::Int(42),
                Value::from("drama"),
                Value::Float(1.5),
                Value::Bool(true),
                Value::Null,
            ],
            vec![
                Value::Int(-7),
                Value::from("drama"),
                Value::Float(-0.0),
                Value::Bool(false),
                Value::from(""),
            ],
        ]
    }

    #[test]
    fn round_trips_all_value_kinds() {
        let _files = files();
        let dir = SpillDir::create().unwrap();
        let mut writer = SpillWriter::create(&dir).unwrap();
        for row in sample_rows() {
            writer.write_row(&row).unwrap();
        }
        let run = writer.finish().unwrap();
        assert_eq!(run.rows(), 2);
        let mut reader = run.read().unwrap();
        for expected in sample_rows() {
            assert_eq!(reader.next_row().unwrap().unwrap(), expected);
        }
        assert!(reader.next_row().unwrap().is_none());
    }

    #[test]
    fn columns_spill_and_read_back_as_their_decoded_rows() {
        let _files = files();
        use crate::column::ColumnBatch;
        use crate::value::DataType;
        // Native columns (two text columns, each over a dictionary of its own, a NULL
        // in each encoding, an int in the float column), and the same rows as
        // exact-value columns.
        let types = [
            DataType::Int,
            DataType::Text,
            DataType::Float,
            DataType::Bool,
            DataType::Text,
        ];
        let rows: Vec<Vec<Value>> = (0..6)
            .map(|i| match i % 3 {
                0 => sample_rows()[0].clone(),
                1 => sample_rows()[1].clone(),
                _ => vec![
                    Value::Null,
                    Value::from("noir"),
                    Value::Int(3),
                    Value::Null,
                    Value::from("drama"),
                ],
            })
            .collect();
        let mut native: Vec<ColumnData> = types.iter().map(|&t| ColumnData::new_for(t)).collect();
        for row in &rows {
            for (column, value) in native.iter_mut().zip(row) {
                column.push(value.clone());
            }
        }
        let exact = ColumnBatch::from_rows(
            rows.iter().cloned().map(crate::Row::from_values).collect(),
            5,
        );
        let dir = SpillDir::create().unwrap();
        let spill = |write: &dyn Fn(&mut SpillWriter)| {
            let mut writer = SpillWriter::create(&dir).unwrap();
            write(&mut writer);
            let run = writer.finish().unwrap();
            let mut reader = run.read().unwrap();
            let mut read = Vec::new();
            while let Some(row) = reader.next_row().unwrap() {
                read.push(row);
            }
            // Read back in place: ints stay native, text stays the run's codes, and a
            // row's width is its values' width.
            let mut columns: Vec<ColumnData> = types
                .iter()
                .map(|&t| match t {
                    DataType::Text => ColumnData::Dict {
                        codes: Vec::new(),
                        dict: Arc::clone(run.dict()),
                    },
                    t => ColumnData::new_for(t),
                })
                .collect();
            let (mut reader, mut widths) = (run.read().unwrap(), Vec::new());
            while reader.advance().unwrap() {
                widths.push(reader.row_width().unwrap());
                reader.push_row(&mut columns).unwrap();
            }
            assert!(matches!(columns[0], ColumnData::Int { .. }));
            assert!(
                matches!(&columns[1], ColumnData::Dict { dict, .. } if Arc::ptr_eq(dict, run.dict()))
            );
            let batch = ColumnBatch::new(columns, read.len()).into_rows();
            let decoded: Vec<Vec<Value>> = batch.into_iter().map(crate::Row::into_values).collect();
            assert_eq!(decoded, read);
            let expected: Vec<usize> = read
                .iter()
                .map(|row| row.iter().map(Value::width).sum())
                .collect();
            assert_eq!(widths, expected);
            (fs::read(&run.guard.path).unwrap(), read)
        };
        let by_rows = spill(&|writer| rows.iter().for_each(|row| writer.write_row(row).unwrap()));
        assert_eq!(by_rows.1, rows);
        for columns in [&native[..], exact.columns()] {
            let by_columns = spill(&|writer| {
                (0..rows.len()).for_each(|row| writer.write_columns(columns, row).unwrap())
            });
            assert_eq!(by_columns, by_rows);
        }
    }

    #[test]
    fn text_spills_as_dictionary_codes() {
        let _files = files();
        let dir = SpillDir::create().unwrap();
        let mut writer = SpillWriter::create(&dir).unwrap();
        // 1000 copies of two distinct strings: the run must stay tiny because only
        // u32 codes hit the disk.
        for i in 0..1000 {
            let s = if i % 2 == 0 { "comedy" } else { "documentary" };
            writer.write_row(&[Value::from(s)]).unwrap();
        }
        let run = writer.finish().unwrap();
        assert_eq!(run.dict().len(), 2);
        // 4 (len) + 4 (count) + 1 (tag) + 4 (code) = 13 bytes per row.
        assert_eq!(run.bytes(), 13 * 1000);
        let mut reader = run.read().unwrap();
        assert_eq!(reader.next_row().unwrap().unwrap(), vec![Value::from("comedy")]);
    }

    #[test]
    fn empty_run_round_trips() {
        let _files = files();
        let dir = SpillDir::create().unwrap();
        let writer = SpillWriter::create(&dir).unwrap();
        let run = writer.finish().unwrap();
        assert_eq!(run.rows(), 0);
        assert_eq!(run.bytes(), 0);
        assert!(run.read().unwrap().next_row().unwrap().is_none());
    }

    #[test]
    fn files_are_deleted_on_drop_even_without_finish() {
        let _files = files();
        let before = live_spill_files();
        let dir = SpillDir::create().unwrap();
        let dir_path = dir.path().to_path_buf();
        {
            let mut abandoned = SpillWriter::create(&dir).unwrap();
            abandoned.write_row(&[Value::Int(1)]).unwrap();
            let finished = {
                let mut w = SpillWriter::create(&dir).unwrap();
                w.write_row(&[Value::Int(2)]).unwrap();
                w.finish().unwrap()
            };
            assert_eq!(live_spill_files(), before + 2);
            drop(finished);
            assert_eq!(live_spill_files(), before + 1);
            // `abandoned` (a half-written run) drops here without finish().
            drop(abandoned);
            assert_eq!(live_spill_files(), before);
        }
        drop(dir);
        assert!(!dir_path.exists(), "spill dir must be removed on drop");
    }

    #[test]
    fn create_in_uses_the_given_root() {
        let root = std::env::temp_dir().join(format!("reopt-spill-root-{}", std::process::id()));
        let dir = SpillDir::create_in(&root).unwrap();
        assert!(dir.path().starts_with(&root));
        drop(dir);
        let _ = fs::remove_dir_all(&root);
    }
}
