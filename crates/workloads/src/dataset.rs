//! Streaming trace ingestion: the **`DatasetReader` seam**.
//!
//! Every recorded or external trace enters the simulator through one
//! trait, [`DatasetReader`]: a chunked pull interface that yields
//! time-ordered [`ArrivalBatch`] runs without ever materializing the
//! full trace. [`CsvReader`] implements it for `time,count,spread` CSV
//! files (the only on-disk format today); [`MemoryReader`] adapts an
//! in-memory [`Trace`] so recorded traces replay through the same seam;
//! future dataset formats (Wikipedia request logs, cluster traces) slot
//! in as further implementations without touching the simulator.
//!
//! [`StreamReplay`] turns any reader into an [`ArrivalProcess`]: it
//! buffers `chunk` batches at a time, so peak ingestion memory is
//! `chunk × size_of::<ArrivalBatch>()` regardless of trace length, and
//! a 10M-request file replays in a few megabytes. Arrivals are
//! byte-identical for every chunk size (pinned by a property test): the
//! buffer is pure plumbing, invisible to the simulation.
//!
//! [`SharedTraceScan`] is the **fan-out layer** on top of the seam:
//! one decode pass feeding N [`StreamReplay`] consumers through
//! ref-counted chunk handles with a bounded window ([`SCAN_DEPTH`]), so
//! an analyzer × replication grid over one trace parses it exactly once
//! (its [`ScanStats::file_opens`] is the probe that asserts the
//! exactly-once property end to end). The consumers either run
//! concurrently, one thread each, and decode on demand
//! ([`TraceSpec::replay_shared`]), or are *stepped*: a few worker
//! threads each advance several simulations up to a bound the scan
//! derives from the rows it has published, and publish the next chunk
//! once all their cells are parked there ([`TraceSpec::replay_stepped`],
//! [`SharedTraceScan::publish_past`]). Stepping never blocks inside a
//! simulation, so any number of cells share one scan on any number of
//! threads.
//!
//! External files are validated **up front** by [`TraceSpec::scan`],
//! which parses the file end to end for the request totals and the mean
//! arrival rate while a second thread hashes its raw bytes into the
//! content hash (the run-cache key component). Scan-time errors are
//! line-numbered [`DatasetError`]s, never panics. A reader error
//! *during* the simulation — after a successful scan — means the file
//! changed underneath the run, and `StreamReplay` treats that as fatal.

use crate::trace::Trace;
use crate::traits::{ArrivalBatch, ArrivalProcess};
use std::collections::VecDeque;
use std::fmt;
use std::fs::File;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use vmprov_des::{SimRng, SimTime, StableHasher};

/// Process-wide count of [`CsvReader::open`] calls, read through
/// [`trace_file_opens`]. Monotonic and shared by every thread, so
/// concurrent scans land in each other's deltas.
static TRACE_FILE_OPENS: AtomicU64 = AtomicU64::new(0);

/// Reads the process-wide count of [`CsvReader::open`] calls. Nothing
/// in this workspace reads it: it is kept only for the external
/// end-to-end benchmark harness. Per-scan counts are
/// [`ScanStats::file_opens`].
pub fn trace_file_opens() -> u64 {
    TRACE_FILE_OPENS.load(Ordering::SeqCst)
}

/// A trace-ingestion failure, with the 1-based source line when the
/// failure is attributable to one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatasetError {
    /// 1-based line number of the offending row (`None` for I/O-level
    /// failures that have no line, e.g. the file not existing).
    pub line: Option<u64>,
    /// What went wrong.
    pub msg: String,
}

impl DatasetError {
    /// A line-attributed parse error.
    pub fn at(line: u64, msg: impl Into<String>) -> Self {
        DatasetError {
            line: Some(line),
            msg: msg.into(),
        }
    }

    /// A file-level error with no line.
    pub fn io(msg: impl Into<String>) -> Self {
        DatasetError {
            line: None,
            msg: msg.into(),
        }
    }
}

impl fmt::Display for DatasetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line {
            Some(n) => write!(f, "line {n}: {}", self.msg),
            None => write!(f, "{}", self.msg),
        }
    }
}

impl std::error::Error for DatasetError {}

/// A chunked source of time-ordered arrival batches.
///
/// The one seam through which every trace format reaches the simulator.
/// Implementations stream: a call fills `out` with at most `max`
/// batches and must not buffer the whole dataset internally.
pub trait DatasetReader: Send {
    /// Appends up to `max` batches to `out`, returning how many were
    /// appended; `0` means the dataset is exhausted. Batches must be
    /// non-decreasing in time, both within one chunk and across chunks.
    fn read_chunk(
        &mut self,
        out: &mut Vec<ArrivalBatch>,
        max: usize,
    ) -> Result<usize, DatasetError>;
}

/// Largest request count one trace row may carry. A replay expands a
/// row into that many staged arrivals at once (24 bytes each), so the
/// bound caps one row's expansion at about 400 MB; a larger burst
/// belongs in several rows with the same timestamp.
pub const MAX_ROW_COUNT: u64 = 1 << 24;

/// Most digits a count may have on the fast path: 19 nines still fit a
/// `u64`, so the digit loop cannot overflow.
const MAX_FAST_COUNT_DIGITS: usize = 19;

/// Streaming `time,count,spread` CSV reader (header and comment lines
/// skipped; the spread column optional, defaulting to 0).
///
/// Unlike the retired `Trace::read_csv`, which slurped the file and
/// sorted it, this reader holds one line at a time — so out-of-order
/// timestamps are a *parse error* (streaming cannot sort), as are
/// truncated rows, non-finite or negative values, a count above
/// [`MAX_ROW_COUNT`], and a count that would push the running request
/// total past `u64::MAX`, all reported with their line number.
///
/// Lines are split straight out of the reader's buffer
/// (`fill_buf`/`consume`); only a line that straddles a refill is
/// copied, into a retained carry buffer. A canonical row —
/// `<digits[.digits]>,<digits>[,<spread>]` ending in `\n` or at end of
/// input — is decoded from the bytes, with the time (and any spread
/// other than `0`) still going through `str::parse::<f64>`. Every other
/// line (headers, comments, whitespace, `\r`, signs, exponents, extra
/// columns, non-ASCII, anything that fails to parse) takes the general
/// text parser, so both paths yield the same batches and errors.
pub struct CsvReader<R> {
    input: R,
    rows: RowState,
    /// The start of a line that straddles a buffer refill.
    carry: Vec<u8>,
}

/// The per-row validation state, kept apart from the input so a line
/// can be decoded while it is still borrowed from the input's buffer.
struct RowState {
    line: u64,
    last_time: f64,
    /// Sum of the count column so far; never overflows, because a row
    /// that would overflow it is a parse error.
    total: u64,
}

impl CsvReader<BufReader<File>> {
    /// Opens a CSV trace file.
    pub fn open(path: &Path) -> Result<Self, DatasetError> {
        let file = File::open(path)
            .map_err(|e| DatasetError::io(format!("cannot open {}: {e}", path.display())))?;
        TRACE_FILE_OPENS.fetch_add(1, Ordering::SeqCst);
        Ok(CsvReader::new(BufReader::with_capacity(64 * 1024, file)))
    }
}

impl<R: BufRead> CsvReader<R> {
    /// Wraps any buffered reader producing CSV text.
    pub fn new(input: R) -> Self {
        CsvReader {
            input,
            rows: RowState {
                line: 0,
                last_time: 0.0,
                total: 0,
            },
            carry: Vec::new(),
        }
    }
}

/// Length of the run of ASCII digits at the start of `b`.
#[inline]
fn digit_run(b: &[u8]) -> usize {
    b.iter().take_while(|c| c.is_ascii_digit()).count()
}

/// `str::parse::<f64>` of bytes already known to be ASCII. Skipping
/// `str::from_utf8` measured 10–20 ns/row faster on the decode of a
/// generated trace (2-vCPU x86-64 host).
///
/// # Safety
///
/// Every byte of `b` must be ASCII.
#[inline]
unsafe fn parse_ascii_f64(b: &[u8]) -> Option<f64> {
    debug_assert!(b.is_ascii());
    // SAFETY: the caller guarantees ASCII, which is valid UTF-8.
    unsafe { std::str::from_utf8_unchecked(b) }.parse().ok()
}

/// Decodes a canonical row `<digits[.digits]>,<digits>[,<spread>]` at
/// the start of `b`, where the count has at most 19 digits and the
/// spread is digits and dots. Returns `(time, count, spread)` and the
/// index of the first byte after the row; the caller checks that the
/// row ends there. `None` sends the line to the general parser.
#[inline]
fn canonical_row(b: &[u8]) -> Option<((f64, u64, f64), usize)> {
    let mut i = digit_run(b);
    if i == 0 {
        return None;
    }
    if b.get(i) == Some(&b'.') {
        let frac = digit_run(&b[i + 1..]);
        if frac == 0 {
            return None;
        }
        i += 1 + frac;
    }
    let time_end = i;
    if b.get(i) != Some(&b',') {
        return None;
    }
    i += 1;
    let digits = digit_run(&b[i..]);
    if digits == 0 || digits > MAX_FAST_COUNT_DIGITS {
        return None;
    }
    let count = b[i..i + digits]
        .iter()
        .fold(0u64, |n, &d| n * 10 + u64::from(d - b'0'));
    i += digits;
    let spread = if b.get(i) == Some(&b',') {
        i += 1;
        let len = b[i..]
            .iter()
            .take_while(|&&c| c.is_ascii_digit() || c == b'.')
            .count();
        let field = &b[i..i + len];
        i += len;
        if field == b"0" {
            0.0
        } else {
            // SAFETY: `field` holds only ASCII digits and dots.
            unsafe { parse_ascii_f64(field) }?
        }
    } else {
        0.0
    };
    // SAFETY: `b[..time_end]` holds only ASCII digits and one dot.
    let time = unsafe { parse_ascii_f64(&b[..time_end]) }?;
    Some(((time, count, spread), i))
}

impl RowState {
    /// Decodes one complete line (its `\n` included when present), or
    /// `None` for skippable lines (blank, header, comment).
    fn decode_line(&mut self, raw: &[u8]) -> Result<Option<ArrivalBatch>, DatasetError> {
        if let Some((row, end)) = canonical_row(raw) {
            if end == raw.len() || (end + 1 == raw.len() && raw[end] == b'\n') {
                self.line += 1;
                return self.accept(row).map(Some);
            }
        }
        let text = std::str::from_utf8(raw).map_err(|_| {
            DatasetError::at(
                self.line + 1,
                "read failed: stream did not contain valid UTF-8",
            )
        })?;
        self.line += 1;
        self.parse_line(text)
    }

    /// The general text parser: trims, splits on commas and parses each
    /// field with `str::parse`.
    fn parse_line(&mut self, text: &str) -> Result<Option<ArrivalBatch>, DatasetError> {
        let line = text.trim();
        if line.is_empty() || line.starts_with("time") || line.starts_with('#') {
            return Ok(None);
        }
        let n = self.line;
        let mut parts = line.split(',');
        let time_field = parts.next().unwrap_or(""); // split yields ≥1 part
        let time: f64 = time_field
            .trim()
            .parse()
            .map_err(|_| DatasetError::at(n, format!("bad time {time_field:?}")))?;
        let count_field = parts
            .next()
            .ok_or_else(|| DatasetError::at(n, "truncated row: missing count column"))?;
        let count: u64 = count_field
            .trim()
            .parse()
            .map_err(|_| DatasetError::at(n, format!("bad count {count_field:?}")))?;
        let spread: f64 = match parts.next() {
            Some(s) => s
                .trim()
                .parse()
                .map_err(|_| DatasetError::at(n, format!("bad spread {s:?}")))?,
            None => 0.0,
        };
        self.accept((time, count, spread)).map(Some)
    }

    /// Range, order, row-bound and running-total checks of one parsed
    /// row of the current line; both decode paths end here.
    #[inline]
    fn accept(
        &mut self,
        (time, count, spread): (f64, u64, f64),
    ) -> Result<ArrivalBatch, DatasetError> {
        let n = self.line;
        if !time.is_finite() || time < 0.0 {
            return Err(DatasetError::at(n, format!("time {time} out of range")));
        }
        if !spread.is_finite() || spread < 0.0 {
            return Err(DatasetError::at(
                n,
                format!("non-finite or negative spread {spread}"),
            ));
        }
        if time < self.last_time {
            return Err(DatasetError::at(
                n,
                format!(
                    "out-of-order timestamp {time} (previous row at {})",
                    self.last_time
                ),
            ));
        }
        if count > MAX_ROW_COUNT {
            return Err(row_count_error(n, count));
        }
        self.total = self.total.checked_add(count).ok_or_else(|| {
            DatasetError::at(
                n,
                format!("count {count} overflows the trace's request total"),
            )
        })?;
        self.last_time = time;
        Ok(ArrivalBatch {
            time: SimTime::from_secs(time),
            count,
            spread,
        })
    }

    /// Decodes lines straight out of `buf`, appending at most `max`
    /// batches. A non-empty `carry` is the start of the first line; a
    /// line left unfinished at the end of `buf` moves to `carry`.
    /// Returns the bytes used (every line decoded, the failing one
    /// included) and the batches appended or the first error.
    fn decode_buffer(
        &mut self,
        buf: &[u8],
        carry: &mut Vec<u8>,
        out: &mut Vec<ArrivalBatch>,
        max: usize,
    ) -> (usize, Result<usize, DatasetError>) {
        let mut pos = 0;
        let mut appended = 0;
        while appended < max && pos < buf.len() {
            let rest = &buf[pos..];
            if carry.is_empty() {
                if let Some((row, end)) = canonical_row(rest) {
                    if rest.get(end) == Some(&b'\n') {
                        pos += end + 1;
                        self.line += 1;
                        match self.accept(row) {
                            Ok(batch) => {
                                out.push(batch);
                                appended += 1;
                                continue;
                            }
                            Err(e) => return (pos, Err(e)),
                        }
                    }
                }
            }
            let Some(nl) = rest.iter().position(|&c| c == b'\n') else {
                carry.extend_from_slice(rest);
                pos = buf.len();
                break;
            };
            pos += nl + 1;
            let decoded = if carry.is_empty() {
                self.decode_line(&rest[..=nl])
            } else {
                // Finish the line that straddled the previous refill.
                carry.extend_from_slice(&rest[..=nl]);
                let decoded = self.decode_line(carry);
                carry.clear();
                decoded
            };
            match decoded {
                Ok(Some(batch)) => {
                    out.push(batch);
                    appended += 1;
                }
                Ok(None) => {}
                Err(e) => return (pos, Err(e)),
            }
        }
        (pos, Ok(appended))
    }
}

/// The error for a row whose count exceeds [`MAX_ROW_COUNT`]; `line`
/// is the 1-based row (or batch) number.
pub(crate) fn row_count_error(line: u64, count: u64) -> DatasetError {
    DatasetError::at(
        line,
        format!(
            "count {count} exceeds the per-row limit of {MAX_ROW_COUNT}; \
             split it into several rows with the same time"
        ),
    )
}

impl<R: BufRead + Send> DatasetReader for CsvReader<R> {
    fn read_chunk(
        &mut self,
        out: &mut Vec<ArrivalBatch>,
        max: usize,
    ) -> Result<usize, DatasetError> {
        let mut appended = 0;
        while appended < max {
            let buf = match self.input.fill_buf() {
                Ok(buf) => buf,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    self.carry.clear();
                    return Err(DatasetError::at(
                        self.rows.line + 1,
                        format!("read failed: {e}"),
                    ));
                }
            };
            if buf.is_empty() {
                // End of input: an unterminated last line is still a line.
                if self.carry.is_empty() {
                    break;
                }
                let decoded = self.rows.decode_line(&self.carry);
                self.carry.clear();
                if let Some(batch) = decoded? {
                    out.push(batch);
                    appended += 1;
                }
                continue;
            }
            let (used, decoded) =
                self.rows
                    .decode_buffer(buf, &mut self.carry, out, max - appended);
            self.input.consume(used);
            appended += decoded?;
        }
        Ok(appended)
    }
}

/// Adapts a recorded in-memory [`Trace`] to the reader seam, so
/// recorded and on-disk traces replay through identical plumbing. The
/// `Arc` keeps cloning a replay cheap: the batches are shared, only the
/// cursor is per-reader.
pub struct MemoryReader {
    trace: Arc<Trace>,
    pos: usize,
}

impl MemoryReader {
    /// Creates a reader over a shared trace.
    pub fn new(trace: Arc<Trace>) -> Self {
        MemoryReader { trace, pos: 0 }
    }
}

impl DatasetReader for MemoryReader {
    fn read_chunk(
        &mut self,
        out: &mut Vec<ArrivalBatch>,
        max: usize,
    ) -> Result<usize, DatasetError> {
        let rest = &self.trace.batches()[self.pos..];
        let take = rest.len().min(max);
        out.extend_from_slice(&rest[..take]);
        self.pos += take;
        Ok(take)
    }
}

/// Default batches held in memory at once by [`StreamReplay`] — 8192
/// batches ≈ 192 KiB, the whole ingestion footprint of a replay.
pub const DEFAULT_CHUNK: usize = 8192;

/// Chunks the shared scan buffers ahead of the slowest consumer: the
/// whole fan-out holds at most `SCAN_DEPTH + 1` chunks alive (the
/// window plus one evicted chunk a straggler may still be iterating),
/// independent of the consumer count. A stepped scan goes past it only
/// when every worker is parked and the window is full — the bound has
/// not moved because the rows it needs are not out yet (a run of equal
/// timestamps longer than the window, or chunks shorter than the
/// lookahead).
pub const SCAN_DEPTH: usize = 2;

/// Counters of one [`SharedTraceScan`], for the exactly-once probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanStats {
    /// Chunks decoded off the underlying reader (each exactly once).
    pub chunks_decoded: u64,
    /// Batches decoded off the underlying reader (each exactly once).
    pub batches_decoded: u64,
    /// High-water mark of the chunk window: ≤ [`SCAN_DEPTH`] for
    /// concurrent consumers (the backpressure invariant); a stepped
    /// scan exceeds it only to move a stalled bound (see there).
    pub max_window: usize,
    /// Consumers registered at fan-out time.
    pub consumers: usize,
    /// Trace files this scan opened: 1 when built by
    /// [`TraceSpec::replay_shared`], 0 when [`SharedTraceScan::fan_out`]
    /// was handed an open reader.
    pub file_opens: u64,
}

/// State shared between one scan's consumers, under one mutex.
struct ScanState {
    /// Decoded chunks awaiting slow consumers; `window[0]` has sequence
    /// number `base`.
    window: VecDeque<Arc<Vec<ArrivalBatch>>>,
    /// Sequence number of the oldest buffered chunk.
    base: u64,
    /// Per-consumer next-chunk sequence number; `u64::MAX` marks a
    /// finished or dropped consumer (it no longer holds back eviction).
    cursors: Vec<u64>,
    /// The underlying reader, `None` while a consumer holds it for an
    /// out-of-lock read or after EOF/failure retired it.
    reader: Option<Box<dyn DatasetReader>>,
    /// A consumer is currently decoding the next chunk outside the lock.
    reading: bool,
    /// The reader returned 0: no more chunks will ever appear.
    eof: bool,
    /// The reader failed; every consumer sees this error.
    failed: Option<DatasetError>,
    chunks_decoded: u64,
    batches_decoded: u64,
    max_window: usize,
    /// Publications so far (chunks, end of stream, failure): a stepping
    /// worker compares it with the [`Reach`] it acted on.
    epoch: u64,
    /// Timestamps of the last `lookahead` published rows (stepped scans
    /// only); the front one is the stepping bound.
    tail: VecDeque<SimTime>,
    /// Stepping workers still running.
    workers: usize,
    /// Stepping workers waiting in `publish_past` at the current epoch.
    parked: usize,
}

impl ScanState {
    /// Drops every window chunk all live consumers have moved past.
    /// Returns whether anything was evicted (= space freed for the
    /// producer side).
    fn evict(&mut self) -> bool {
        let min_live = self.cursors.iter().copied().min().unwrap_or(u64::MAX);
        let mut evicted = false;
        while !self.window.is_empty() && self.base < min_live {
            self.window.pop_front();
            self.base += 1;
            evicted = true;
        }
        evicted
    }
}

struct ScanShared {
    chunk: usize,
    /// Rows one simulation event may pull past the row it fires at
    /// (stepped scans; 0 for concurrent consumers).
    lookahead: usize,
    state: Mutex<ScanState>,
    /// Notified on every state transition: chunk published, chunk
    /// evicted, reader finished/failed, consumer dropped, stepping
    /// worker retired. Waiters re-check their own condition on wake.
    cv: Condvar,
}

/// One reader, one decode pass, N consumers: the **shared-scan
/// broadcaster** behind replay grids.
///
/// The scan has no thread of its own. The decoder of the moment takes
/// the reader out of the shared state, decodes one chunk *outside* the
/// lock, publishes it, and puts the reader back — so I/O and parsing
/// happen exactly once per chunk. Chunks fan out as `Arc` handles (no
/// per-consumer copy); a chunk is evicted as soon as every live
/// consumer has taken it. The window is bounded at [`SCAN_DEPTH`]
/// chunks — backpressure instead of unbounded buffering, keeping memory
/// `O(chunk × SCAN_DEPTH)` rather than `O(chunk × consumers)`.
///
/// Who decodes depends on how the scan was built:
/// * [`TraceSpec::replay_shared`]: each consumer runs on its own
///   thread and decodes the next chunk itself when it gets there first;
///   when the window is full, fast consumers block until the slowest
///   advances, so every consumer must be running.
/// * [`TraceSpec::replay_stepped`]: worker threads advance their
///   consumers' simulations only through events before the
///   [`reach`](Self::reach) bound, so a consumer always finds its chunk
///   published; a worker whose cells are all parked at the bound
///   decodes the next chunk in [`publish_past`](Self::publish_past).
///
/// Dropping a [`ScanConsumer`] (including mid-stream, e.g. a panicking
/// grid cell) marks it finished, so stragglers can never wedge the
/// group.
pub struct SharedTraceScan {
    shared: Arc<ScanShared>,
    /// Files opened to build this scan (see [`ScanStats::file_opens`]).
    file_opens: u64,
}

impl ScanShared {
    fn lock(&self) -> MutexGuard<'_, ScanState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Takes the reader out, decodes the next chunk *outside* the lock,
    /// and publishes it (or the end of stream, or the failure). The
    /// caller has checked that the reader is free.
    fn decode_next<'a>(&'a self, mut st: MutexGuard<'a, ScanState>) -> MutexGuard<'a, ScanState> {
        let mut reader = st.reader.take().expect("the reader is free");
        st.reading = true;
        drop(st);
        let mut buf = Vec::with_capacity(self.chunk);
        let res = reader.read_chunk(&mut buf, self.chunk);
        let mut st = self.lock();
        st.reading = false;
        st.epoch += 1;
        st.parked = 0;
        match res {
            Ok(0) => st.eof = true, // reader retired (file closes)
            Ok(n) => {
                st.chunks_decoded += 1;
                st.batches_decoded += n as u64;
                let keep = n.min(self.lookahead);
                st.tail.extend(buf[n - keep..].iter().map(|b| b.time));
                let excess = st.tail.len().saturating_sub(self.lookahead);
                st.tail.drain(..excess);
                st.window.push_back(Arc::new(buf));
                st.max_window = st.max_window.max(st.window.len());
                st.reader = Some(reader);
            }
            Err(e) => st.failed = Some(e),
        }
        self.cv.notify_all();
        st
    }

    fn reach(&self, st: &ScanState) -> Reach {
        let bound = if st.eof {
            StepBound::End
        } else if self.lookahead > 0 && st.tail.len() == self.lookahead {
            StepBound::Before(st.tail[0])
        } else {
            StepBound::Nothing
        };
        Reach {
            epoch: st.epoch,
            bound,
        }
    }
}

impl SharedTraceScan {
    /// Fans `reader` out to `consumers` concurrent consumers decoding
    /// `chunk` batches at a time. All consumers register up front; the
    /// returned handle reports [`ScanStats`] while and after they run.
    pub fn fan_out(
        reader: Box<dyn DatasetReader>,
        consumers: usize,
        chunk: usize,
    ) -> (SharedTraceScan, Vec<ScanConsumer>) {
        Self::build(reader, consumers, chunk, 0, 0)
    }

    /// The one constructor of both kinds of scan: `workers` threads
    /// step the consumers (see [`publish_past`](Self::publish_past)),
    /// whose events pull at most `lookahead` rows past the row they fire
    /// at; both are 0 when the consumers run concurrently instead.
    fn build(
        reader: Box<dyn DatasetReader>,
        consumers: usize,
        chunk: usize,
        workers: usize,
        lookahead: usize,
    ) -> (SharedTraceScan, Vec<ScanConsumer>) {
        assert!(consumers >= 1, "a scan needs at least one consumer");
        assert!(chunk >= 1, "chunk must hold at least one batch");
        let shared = Arc::new(ScanShared {
            chunk,
            lookahead,
            state: Mutex::new(ScanState {
                window: VecDeque::new(),
                base: 0,
                cursors: vec![0; consumers],
                reader: Some(reader),
                reading: false,
                eof: false,
                failed: None,
                chunks_decoded: 0,
                batches_decoded: 0,
                max_window: 0,
                epoch: 0,
                tail: VecDeque::with_capacity(lookahead),
                workers,
                parked: 0,
            }),
            cv: Condvar::new(),
        });
        let handles = (0..consumers)
            .map(|id| ScanConsumer {
                shared: Arc::clone(&shared),
                id,
            })
            .collect();
        (
            SharedTraceScan {
                shared,
                file_opens: 0,
            },
            handles,
        )
    }

    /// Decode counters so far (final once every consumer finished).
    pub fn stats(&self) -> ScanStats {
        let st = self.shared.lock();
        ScanStats {
            chunks_decoded: st.chunks_decoded,
            batches_decoded: st.batches_decoded,
            max_window: st.max_window,
            consumers: st.cursors.len(),
            file_opens: self.file_opens,
        }
    }

    /// How far stepped cells may run on what is published now.
    pub fn reach(&self) -> Reach {
        self.shared.reach(&self.shared.lock())
    }

    /// Called by a stepping worker once every cell it owns has handled
    /// all that `seen` allows. Returns a newer reach: at once if another
    /// worker published meanwhile, else after publishing the next chunk
    /// itself. It publishes while the window holds fewer than
    /// [`SCAN_DEPTH`] chunks, or past that when every other worker is
    /// parked too (their cells need rows the window lacks, so waiting
    /// would deadlock); otherwise it waits for the other workers' cells
    /// to take chunks. A decode error reaches every worker.
    pub fn publish_past(&self, seen: Reach) -> Result<Reach, DatasetError> {
        let sh = &self.shared;
        let mut st = sh.lock();
        loop {
            if let Some(e) = &st.failed {
                return Err(e.clone());
            }
            if st.epoch != seen.epoch || st.eof {
                return Ok(sh.reach(&st));
            }
            let all_parked = st.parked + 1 >= st.workers;
            if !st.reading && (st.window.len() < SCAN_DEPTH || all_parked) {
                st = sh.decode_next(st);
                continue;
            }
            let epoch = st.epoch;
            st.parked += 1;
            st = sh.cv.wait(st).unwrap_or_else(|e| e.into_inner());
            if st.epoch == epoch {
                st.parked -= 1;
            }
        }
    }

    /// Called once by each stepping worker when it stops (its cells
    /// finished, or it is unwinding), so the rest no longer count it as
    /// a worker that could still move.
    pub fn retire_worker(&self) {
        let mut st = self.shared.lock();
        st.workers = st.workers.saturating_sub(1);
        self.shared.cv.notify_all();
    }
}

/// How far the stepped cells of a [`SharedTraceScan`] may run, as read
/// at one publication.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reach {
    epoch: u64,
    /// What the cells may handle.
    pub bound: StepBound,
}

/// What the stepped cells of a scan may handle.
///
/// With `P` rows published and a lookahead of `L` rows, the bound is
/// the timestamp of row `P − L`. An event strictly before it fires at a
/// row below `P − L` (rows are time-ordered), so the rows it may pull
/// all lie below `P`: a cell never asks for a row that is not out yet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StepBound {
    /// Fewer than the lookahead's rows are out: no cell may start.
    Nothing,
    /// Every event strictly before this time.
    Before(SimTime),
    /// The whole trace is out: every event, to the end.
    End,
}

impl fmt::Debug for SharedTraceScan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.stats();
        f.debug_struct("SharedTraceScan")
            .field("consumers", &s.consumers)
            .field("chunks_decoded", &s.chunks_decoded)
            .finish()
    }
}

/// One consumer's cursor into a [`SharedTraceScan`]. Yields every chunk
/// of the underlying reader, in order, as ref-counted handles.
pub struct ScanConsumer {
    shared: Arc<ScanShared>,
    id: usize,
}

impl ScanConsumer {
    /// Blocks until this consumer's next chunk is available and returns
    /// it (`Ok(None)` at end of stream). Decodes the chunk itself when
    /// it gets there first and the window has room; otherwise waits for
    /// the producer-of-the-moment or — when the window is full — for
    /// the slowest consumer to free space.
    pub fn next_chunk(&mut self) -> Result<Option<Arc<Vec<ArrivalBatch>>>, DatasetError> {
        let sh = &self.shared;
        let mut st = sh.lock();
        loop {
            let seq = st.cursors[self.id];
            debug_assert!(seq >= st.base, "cursor behind the window");
            if seq < st.base + st.window.len() as u64 {
                let chunk = Arc::clone(&st.window[(seq - st.base) as usize]);
                st.cursors[self.id] = seq + 1;
                if st.evict() {
                    sh.cv.notify_all();
                }
                return Ok(Some(chunk));
            }
            if let Some(e) = &st.failed {
                return Err(e.clone());
            }
            if st.eof {
                return Ok(None);
            }
            // A stepped cell only ever asks for published rows.
            debug_assert!(
                sh.lookahead == 0,
                "a stepped cell outran the published rows"
            );
            // Nothing buffered for us and the stream is live: decode the
            // next chunk ourselves if the reader is free and the window
            // has room, else wait for whoever has it / for space.
            if !st.reading && st.window.len() < SCAN_DEPTH {
                st = sh.decode_next(st);
                continue;
            }
            st = sh.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }
}

impl Drop for ScanConsumer {
    /// Deregisters the consumer: its cursor stops holding back eviction,
    /// so a dropped (or panicked) consumer can never backpressure the
    /// rest of the group forever.
    fn drop(&mut self) {
        let mut st = self.shared.lock();
        st.cursors[self.id] = u64::MAX;
        st.evict();
        self.shared.cv.notify_all();
    }
}

impl fmt::Debug for ScanConsumer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ScanConsumer")
            .field("id", &self.id)
            .finish()
    }
}

/// Everything a run needs to know about an on-disk trace, computed by
/// one up-front streaming [`scan`](TraceSpec::scan): the content hash
/// (what the run cache keys on — two copies of one trace share cache
/// entries, and an edited trace never aliases the old one), request and
/// batch totals, the end time (= replay horizon), and the whole-trace
/// mean arrival rate (the oracle λ for a stationary trace).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpec {
    /// Where the trace lives. Not part of the cache identity.
    pub path: PathBuf,
    /// Stable 64-bit hash of the raw file bytes.
    pub content_hash: u64,
    /// Total requests (sum of the count column).
    pub total_requests: u64,
    /// Number of batch rows.
    pub batches: u64,
    /// Timestamp of the last batch.
    pub end_time: SimTime,
    /// `total_requests / end_time` (0 for an empty or instant trace).
    pub mean_rate: f64,
    /// Batches buffered per [`read_chunk`](DatasetReader::read_chunk)
    /// call during replay. Pure execution mechanics: results are
    /// bit-identical for every value (property-tested), so it is *not*
    /// part of the cache identity.
    pub chunk: usize,
}

impl TraceSpec {
    /// Reads the file at `path` through, validating every row and
    /// computing the spec. This is where all external-file errors
    /// surface, as line-numbered [`DatasetError`]s.
    ///
    /// The content hash is taken over the raw bytes on a second thread
    /// while this one parses, so the scan costs about one parse pass. A
    /// hash-pass I/O error takes precedence over a parse error.
    pub fn scan(path: &Path, chunk: usize) -> Result<TraceSpec, DatasetError> {
        assert!(chunk >= 1, "chunk must hold at least one batch");
        let (hashed, parsed) = std::thread::scope(|s| {
            let hasher = std::thread::Builder::new()
                .name("trace-hash".into())
                .spawn_scoped(s, || hash_file(path));
            let parsed = parse_totals(path, chunk);
            let hashed = match hasher {
                Ok(handle) => handle
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
                // No thread to spare: hash on this one.
                Err(_) => hash_file(path),
            };
            (hashed, parsed)
        });
        let content_hash = hashed?;
        let (total, batches, end) = parsed?;
        let mean_rate = if end > SimTime::ZERO {
            total as f64 / end.as_secs()
        } else {
            0.0
        };
        Ok(TraceSpec {
            path: path.to_path_buf(),
            content_hash,
            total_requests: total,
            batches,
            end_time: end,
            mean_rate,
            chunk,
        })
    }

    /// Builds the streaming replay process for this trace.
    pub fn replay(&self) -> StreamReplay {
        StreamReplay {
            source: ReplaySource::File(self.path.clone()),
            chunk: self.chunk,
            mean_rate: self.mean_rate,
            horizon: self.end_time,
            reader: None,
            buf: ChunkBuf::empty(),
            pos: 0,
        }
    }

    /// Builds `consumers` replay processes that share **one** scan of
    /// this trace: the file is opened and decoded once, and the decoded
    /// chunks fan out through a [`SharedTraceScan`]. Each returned
    /// replay yields the byte-identical arrival stream of
    /// [`replay`](Self::replay) — only the I/O and parse work is
    /// amortized — but the consumers must run concurrently: a consumer
    /// more than [`SCAN_DEPTH`] chunks ahead blocks until the slowest
    /// catches up.
    pub fn replay_shared(
        &self,
        consumers: usize,
    ) -> Result<(SharedTraceScan, Vec<StreamReplay>), DatasetError> {
        self.replay_fanned(consumers, 0, 0)
    }

    /// Like [`replay_shared`](Self::replay_shared), but the replays are
    /// *stepped* by `workers` threads rather than run one per thread:
    /// each worker advances its simulations only through events before
    /// the scan's [`reach`](SharedTraceScan::reach) and then calls
    /// [`publish_past`](SharedTraceScan::publish_past), so any number of
    /// replays share one decode on a few threads without ever blocking
    /// inside a simulation. `lookahead` is the most rows one event of a
    /// replaying simulation may pull past the row it fires at.
    pub fn replay_stepped(
        &self,
        consumers: usize,
        workers: usize,
        lookahead: usize,
    ) -> Result<(SharedTraceScan, Vec<StreamReplay>), DatasetError> {
        assert!(
            workers >= 1 && lookahead >= 1,
            "stepping needs a worker and a lookahead"
        );
        self.replay_fanned(consumers, workers, lookahead)
    }

    fn replay_fanned(
        &self,
        consumers: usize,
        workers: usize,
        lookahead: usize,
    ) -> Result<(SharedTraceScan, Vec<StreamReplay>), DatasetError> {
        let reader = Box::new(CsvReader::open(&self.path)?);
        let (mut scan, handles) =
            SharedTraceScan::build(reader, consumers, self.chunk, workers, lookahead);
        scan.file_opens = 1;
        let replays = handles
            .into_iter()
            .map(|consumer| StreamReplay {
                source: ReplaySource::Shared(consumer),
                chunk: self.chunk,
                mean_rate: self.mean_rate,
                horizon: self.end_time,
                reader: None,
                buf: ChunkBuf::empty(),
                pos: 0,
            })
            .collect();
        Ok((scan, replays))
    }
}

/// The content hash of a trace: [`StableHasher`] over the raw file
/// bytes, read in 64 KiB blocks (format-agnostic identity).
fn hash_file(path: &Path) -> Result<u64, DatasetError> {
    let mut file = File::open(path)
        .map_err(|e| DatasetError::io(format!("cannot open {}: {e}", path.display())))?;
    let mut hasher = StableHasher::new();
    let mut block = [0u8; 64 * 1024];
    loop {
        let n = file
            .read(&mut block)
            .map_err(|e| DatasetError::io(format!("read {}: {e}", path.display())))?;
        if n == 0 {
            return Ok(hasher.finish());
        }
        hasher.write(&block[..n]);
    }
}

/// Parses every row of the trace at `path` through the same reader the
/// replay will use, chunk by chunk: `(request total, batches, end time)`.
/// The reader keeps the overflow-checked request total.
fn parse_totals(path: &Path, chunk: usize) -> Result<(u64, u64, SimTime), DatasetError> {
    let mut reader = CsvReader::open(path)?;
    let mut buf = Vec::with_capacity(chunk);
    let mut batches = 0u64;
    let mut end = SimTime::ZERO;
    loop {
        buf.clear();
        if reader.read_chunk(&mut buf, chunk)? == 0 {
            break;
        }
        end = buf.last().map_or(end, |b| b.time);
        batches += buf.len() as u64;
    }
    Ok((reader.rows.total, batches, end))
}

/// Where a [`StreamReplay`] gets its reader from. The file and memory
/// sources are re-openable so the replay can be `Clone` (each clone
/// starts a fresh pass) even though a live reader is not; a shared-scan
/// consumer is single-pass by construction, so cloning one panics.
enum ReplaySource {
    File(PathBuf),
    Memory(Arc<Trace>),
    Shared(ScanConsumer),
}

impl Clone for ReplaySource {
    fn clone(&self) -> Self {
        match self {
            ReplaySource::File(p) => ReplaySource::File(p.clone()),
            ReplaySource::Memory(t) => ReplaySource::Memory(Arc::clone(t)),
            ReplaySource::Shared(_) => panic!(
                "a shared-scan replay cannot be cloned: the scan is single-pass \
                 (build one consumer per run via TraceSpec::replay_shared)"
            ),
        }
    }
}

/// The replay's current chunk: owned when this replay read it itself,
/// ref-counted when it came off a [`SharedTraceScan`] (no per-consumer
/// copy — the handle *is* the bounded buffering).
enum ChunkBuf {
    Owned(Vec<ArrivalBatch>),
    Shared(Arc<Vec<ArrivalBatch>>),
}

impl ChunkBuf {
    fn empty() -> Self {
        ChunkBuf::Owned(Vec::new())
    }

    #[inline]
    fn as_slice(&self) -> &[ArrivalBatch] {
        match self {
            ChunkBuf::Owned(v) => v,
            ChunkBuf::Shared(a) => a,
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.as_slice().len()
    }
}

/// An [`ArrivalProcess`] that streams batches off a [`DatasetReader`]
/// `chunk` at a time. Consumes no randomness; peak memory is one chunk
/// of batches regardless of trace length.
///
/// Cloning resets the stream: the clone replays from the start with its
/// own reader (the source — a path or a shared in-memory trace — is
/// what's cloned, never reader state). That keeps `AnyWorkload: Clone`
/// intact without pretending a half-consumed file handle can fork.
pub struct StreamReplay {
    source: ReplaySource,
    chunk: usize,
    mean_rate: f64,
    horizon: SimTime,
    reader: Option<Box<dyn DatasetReader>>,
    buf: ChunkBuf,
    pos: usize,
}

impl StreamReplay {
    /// Replays a recorded in-memory trace (see also [`Trace::replay`]).
    pub fn from_trace(trace: Trace) -> StreamReplay {
        let horizon = trace.end_time();
        let mean_rate = if horizon > SimTime::ZERO {
            trace.total_requests() as f64 / horizon.as_secs()
        } else {
            0.0
        };
        StreamReplay {
            source: ReplaySource::Memory(Arc::new(trace)),
            chunk: DEFAULT_CHUNK,
            mean_rate,
            horizon,
            reader: None,
            buf: ChunkBuf::empty(),
            pos: 0,
        }
    }

    fn refill(&mut self) -> Option<()> {
        self.pos = 0;
        if let ReplaySource::Shared(consumer) = &mut self.source {
            // The shared scan decodes each chunk once and hands out a
            // ref-counted handle — this consumer never parses anything.
            let next = consumer
                .next_chunk()
                .unwrap_or_else(|e| panic!("trace changed after scan: {e}"));
            return match next {
                Some(chunk) => {
                    self.buf = ChunkBuf::Shared(chunk);
                    Some(())
                }
                None => {
                    self.buf = ChunkBuf::empty();
                    None
                }
            };
        }
        let chunk = self.chunk;
        let reader = match &mut self.reader {
            Some(r) => r,
            None => {
                let fresh: Box<dyn DatasetReader> = match &self.source {
                    // The file was validated by `TraceSpec::scan`; an
                    // open failure now means it vanished mid-campaign.
                    ReplaySource::File(path) => Box::new(
                        CsvReader::open(path)
                            .unwrap_or_else(|e| panic!("trace changed after scan: {e}")),
                    ),
                    ReplaySource::Memory(t) => Box::new(MemoryReader::new(Arc::clone(t))),
                    ReplaySource::Shared(_) => unreachable!("handled above"),
                };
                self.reader.insert(fresh)
            }
        };
        let buf = match &mut self.buf {
            ChunkBuf::Owned(v) => v,
            // A shared handle can't land here (the shared path returned
            // above), but replacing is harmless and keeps this total.
            shared => {
                *shared = ChunkBuf::empty();
                match shared {
                    ChunkBuf::Owned(v) => v,
                    ChunkBuf::Shared(_) => unreachable!(),
                }
            }
        };
        buf.clear();
        let got = reader
            .read_chunk(buf, chunk)
            .unwrap_or_else(|e| panic!("trace changed after scan: {e}"));
        if got == 0 {
            None
        } else {
            Some(())
        }
    }
}

impl Clone for StreamReplay {
    fn clone(&self) -> Self {
        StreamReplay {
            source: self.source.clone(),
            chunk: self.chunk,
            mean_rate: self.mean_rate,
            horizon: self.horizon,
            reader: None,
            buf: ChunkBuf::empty(),
            pos: 0,
        }
    }
}

impl fmt::Debug for StreamReplay {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let source = match &self.source {
            ReplaySource::File(path) => format!("file {}", path.display()),
            ReplaySource::Memory(t) => format!("memory ({} batches)", t.len()),
            ReplaySource::Shared(c) => format!("shared scan (consumer {})", c.id),
        };
        f.debug_struct("StreamReplay")
            .field("source", &source)
            .field("chunk", &self.chunk)
            .field("mean_rate", &self.mean_rate)
            .field("horizon", &self.horizon)
            .finish()
    }
}

impl ArrivalProcess for StreamReplay {
    #[inline]
    fn next_batch(&mut self, _rng: &mut SimRng) -> Option<ArrivalBatch> {
        if self.pos == self.buf.len() {
            self.refill()?;
        }
        let b = self.buf.as_slice()[self.pos];
        self.pos += 1;
        Some(b)
    }

    /// Burst override: a replay consumes no randomness at generation
    /// time, so the default's stop-after-spread rule (which exists only
    /// to keep generation draws in scalar order) is vacuous here — the
    /// run is a straight bulk copy out of the chunk buffer, still
    /// honoring the rule so run-pulling and one-at-a-time consumers see
    /// the same cadence.
    fn next_batch_run(
        &mut self,
        _rng: &mut SimRng,
        max: usize,
        out: &mut Vec<ArrivalBatch>,
    ) -> usize {
        let mut n = 0;
        while n < max {
            if self.pos == self.buf.len() && self.refill().is_none() {
                break;
            }
            let buf = self.buf.as_slice();
            let window = &buf[self.pos..buf.len().min(self.pos + (max - n))];
            // Honor the stop-after-spread rule: copy up to and
            // including the first spread > 0 batch of the window.
            let take = match window.iter().position(|b| b.spread > 0.0) {
                Some(i) => i + 1,
                None => window.len(),
            };
            out.extend_from_slice(&window[..take]);
            let stop = window[..take].last().is_some_and(|b| b.spread > 0.0);
            self.pos += take;
            n += take;
            if stop {
                break;
            }
        }
        n
    }

    fn model_rate(&self, _t: SimTime) -> f64 {
        // The whole-trace mean: exact for a stationary trace, which is
        // what oracle-vs-estimator comparisons replay. Non-stationary
        // traces should be driven by an estimator analyzer instead.
        self.mean_rate
    }

    fn horizon(&self) -> SimTime {
        self.horizon
    }
}

/// Statistics of a generated trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeneratedTrace {
    /// Rows (= batches = requests; the generator emits count 1) written.
    pub rows: u64,
    /// Timestamp of the last row.
    pub end_time: f64,
}

/// Streams a synthetic piecewise-constant-rate Poisson trace to `w` as
/// `time,count,spread` CSV, never materializing it: the offline stand-in
/// for a real datacenter trace that CI replays. `pieces` are
/// `(start_time, rate)` breakpoints starting at 0; deterministic in
/// `seed` (inverse-CDF exponential gaps off one RNG stream).
pub fn generate_piecewise_csv<W: Write>(
    w: W,
    pieces: &[(f64, f64)],
    horizon: SimTime,
    seed: u64,
) -> io::Result<GeneratedTrace> {
    assert!(
        !pieces.is_empty() && pieces[0].0 == 0.0,
        "pieces must start at t=0"
    );
    assert!(pieces.windows(2).all(|p| p[0].0 < p[1].0));
    assert!(pieces.iter().all(|&(_, r)| r >= 0.0 && r.is_finite()));
    let mut w = io::BufWriter::new(w);
    writeln!(w, "time,count,spread")?;
    let mut rng = vmprov_des::RngFactory::new(seed).stream("trace-gen");
    let end = horizon.as_secs();
    let mut t = 0.0f64;
    let mut rows = 0u64;
    let mut last = 0.0f64;
    let mut piece = 0usize;
    loop {
        let piece_end = pieces.get(piece + 1).map_or(end, |&(s, _)| s);
        let rate = pieces[piece].1;
        if rate <= 0.0 {
            t = piece_end;
        } else {
            t += -rng.uniform01_open_left().ln() / rate;
        }
        // Crossing a breakpoint restarts the exponential clock there
        // (memorylessness makes that exact, same as PiecewiseRateProcess).
        if t >= piece_end {
            if piece + 1 >= pieces.len() || t >= end {
                break;
            }
            t = piece_end;
            piece += 1;
            continue;
        }
        if t >= end {
            break;
        }
        writeln!(w, "{t},1,0")?;
        rows += 1;
        last = t;
    }
    w.flush()?;
    Ok(GeneratedTrace {
        rows,
        end_time: last,
    })
}

/// [`generate_piecewise_csv`] for a single constant rate.
pub fn generate_poisson_csv<W: Write>(
    w: W,
    rate: f64,
    horizon: SimTime,
    seed: u64,
) -> io::Result<GeneratedTrace> {
    generate_piecewise_csv(w, &[(0.0, rate)], horizon, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmprov_des::RngFactory;

    fn drain_via(reader: &mut dyn DatasetReader, chunk: usize) -> Vec<ArrivalBatch> {
        let mut all = Vec::new();
        let mut buf = Vec::new();
        loop {
            buf.clear();
            let n = reader.read_chunk(&mut buf, chunk).expect("read_chunk");
            if n == 0 {
                return all;
            }
            assert!(n <= chunk, "reader overfilled the chunk");
            all.extend_from_slice(&buf);
        }
    }

    #[test]
    fn csv_reader_round_trips_a_written_trace() {
        let trace = Trace::new(vec![
            ArrivalBatch {
                time: SimTime::from_secs(0.0),
                count: 3,
                spread: 60.0,
            },
            ArrivalBatch {
                time: SimTime::from_secs(12.5),
                count: 1,
                spread: 0.0,
            },
        ])
        .unwrap();
        let mut csv = Vec::new();
        trace.write_csv(&mut csv).unwrap();
        let mut reader = CsvReader::new(io::BufReader::new(&csv[..]));
        assert_eq!(drain_via(&mut reader, 16), trace.batches());
    }

    #[test]
    fn csv_reader_accepts_headerless_two_column_and_comments() {
        let input = "0.0,5\n10.0,2,30.0\n# comment\n\n";
        let mut reader = CsvReader::new(io::BufReader::new(input.as_bytes()));
        let got = drain_via(&mut reader, 4);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].count, 5);
        assert_eq!(got[0].spread, 0.0);
        assert_eq!(got[1].spread, 30.0);
    }

    #[test]
    fn csv_reader_errors_carry_line_numbers() {
        // (input, offending line, message fragment)
        let cases = [
            ("0,1,0\nabc,1,0\n", 2, "bad time"),
            ("0,1,0\n1.0\n", 2, "truncated row"),
            ("1.0,notanumber\n", 1, "bad count"),
            ("time,count,spread\n-5.0,1,0\n", 2, "out of range"),
            ("0,1,0\n1.0,1,-2\n", 2, "negative spread"),
            ("0,1,0\n1.0,1,nan\n", 2, "spread"),
            ("0,1,inf\n", 1, "spread"),
            ("time,count,spread\n20.0,1,0\n5.0,2,0\n", 3, "out-of-order"),
        ];
        for (input, line, what) in cases {
            let mut reader = CsvReader::new(io::BufReader::new(input.as_bytes()));
            let mut buf = Vec::new();
            let err = loop {
                buf.clear();
                match reader.read_chunk(&mut buf, 64) {
                    Err(e) => break e,
                    Ok(0) => panic!("{input:?} should fail"),
                    Ok(_) => continue,
                }
            };
            assert_eq!(err.line, Some(line), "{input:?}: {err}");
            assert!(err.msg.contains(what), "{input:?}: {err}");
        }
    }

    #[test]
    fn truncated_file_recovery_reports_the_cut_row() {
        // A trace cut mid-row (torn download): every complete row before
        // the cut parses; the cut row fails with its line number, and a
        // repaired file scans clean.
        let mut csv = Vec::new();
        Trace::new(
            (0..50)
                .map(|i| ArrivalBatch {
                    time: SimTime::from_secs(i as f64),
                    count: 2,
                    spread: 0.0,
                })
                .collect(),
        )
        .unwrap()
        .write_csv(&mut csv)
        .unwrap();
        let cut = &csv[..csv.len() - 4]; // leaves "49," — no count digits
        let mut reader = CsvReader::new(io::BufReader::new(cut));
        let mut buf = Vec::new();
        let err = loop {
            buf.clear();
            match reader.read_chunk(&mut buf, 7) {
                Err(e) => break e,
                Ok(0) => panic!("cut file must error"),
                Ok(_) => continue,
            }
        };
        assert_eq!(err.line, Some(51), "{err}"); // header + 50 rows
        assert!(err.msg.contains("bad count"), "{err}");

        let dir = std::env::temp_dir().join(format!("vmprov_dataset_cut_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("repaired.csv");
        std::fs::write(&path, &csv).unwrap();
        let spec = TraceSpec::scan(&path, 64).expect("repaired file scans");
        assert_eq!(spec.batches, 50);
        assert_eq!(spec.total_requests, 100);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn arrivals_bit_identical_across_chunk_sizes() {
        // The chunk buffer must be invisible: whatever the buffer size,
        // the replayed arrival stream is bit-identical. Random traces ×
        // buffer sizes {1, 7, 4096}, through both the in-memory and the
        // on-disk source.
        let dir = std::env::temp_dir().join(format!("vmprov_dataset_chunk_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        vmprov_check::cases(24, |g| {
            let mut t = 0.0f64;
            let batches: Vec<ArrivalBatch> = (0..g.usize_in(0..200))
                .map(|_| {
                    t += g.f64_in(0.0..3.0);
                    ArrivalBatch {
                        time: SimTime::from_secs(t),
                        count: g.usize_in(1..5) as u64,
                        spread: g.f64_in(0.0..10.0),
                    }
                })
                .collect();
            let trace = Trace::new(batches.clone()).unwrap();
            let path = dir.join("case.csv");
            let mut csv = Vec::new();
            trace.write_csv(&mut csv).unwrap();
            std::fs::write(&path, &csv).unwrap();

            let mut rng = RngFactory::new(1).stream("unused");
            // CSV text → f64 loses nothing (Display is shortest
            // round-trip), so even file replay is bit-exact.
            let reference: Vec<ArrivalBatch> = {
                let mut r = TraceSpec::scan(&path, 4096).unwrap().replay();
                std::iter::from_fn(|| r.next_batch(&mut rng)).collect()
            };
            assert_eq!(reference, batches, "CSV round trip must be exact");
            for chunk in [1usize, 7, 4096] {
                let spec = TraceSpec::scan(&path, chunk).unwrap();
                let mut file_replay = spec.replay();
                let file_stream: Vec<ArrivalBatch> =
                    std::iter::from_fn(|| file_replay.next_batch(&mut rng)).collect();
                assert_eq!(file_stream, reference, "chunk {chunk} (file)");
                let mut mem_replay = StreamReplay::from_trace(trace.clone());
                mem_replay.chunk = chunk;
                let mem_stream: Vec<ArrivalBatch> =
                    std::iter::from_fn(|| mem_replay.next_batch(&mut rng)).collect();
                assert_eq!(mem_stream, reference, "chunk {chunk} (memory)");
            }
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scan_computes_hash_totals_and_rate() {
        let dir = std::env::temp_dir().join(format!("vmprov_dataset_scan_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        std::fs::write(&path, "time,count,spread\n0,5,0\n100,15,0\n").unwrap();
        let spec = TraceSpec::scan(&path, 8).unwrap();
        assert_eq!(spec.total_requests, 20);
        assert_eq!(spec.batches, 2);
        assert_eq!(spec.end_time.as_secs(), 100.0);
        assert!((spec.mean_rate - 0.2).abs() < 1e-12);
        // Identity is content, not location: a copy hashes identically,
        // an edit does not.
        let copy = dir.join("copy.csv");
        std::fs::copy(&path, &copy).unwrap();
        assert_eq!(
            TraceSpec::scan(&copy, 8).unwrap().content_hash,
            spec.content_hash
        );
        std::fs::write(&path, "time,count,spread\n0,5,0\n100,16,0\n").unwrap();
        assert_ne!(
            TraceSpec::scan(&path, 8).unwrap().content_hash,
            spec.content_hash
        );
        let missing = TraceSpec::scan(&dir.join("nope.csv"), 8).unwrap_err();
        assert_eq!(missing.line, None);
        assert!(missing.msg.contains("cannot open"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scan_rejects_a_row_count_past_the_bound() {
        let dir =
            std::env::temp_dir().join(format!("vmprov_dataset_row_bound_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        let max = MAX_ROW_COUNT;
        std::fs::write(&path, format!("0,{max},0\n1,1,0\n")).unwrap();
        assert_eq!(TraceSpec::scan(&path, 8).unwrap().total_requests, max + 1);
        // The bound holds on the fast path and on the general parser
        // (spaces send a row there), and a count too large for a `u64`
        // is still a bad count.
        for (row, what) in [
            (format!("1,{},0", max + 1), "per-row limit"),
            (format!(" 1 , {} ,0", max + 1), "per-row limit"),
            ("1,18446744073709551615,0".to_string(), "per-row limit"),
            ("1,18446744073709551616,0".to_string(), "bad count"),
        ] {
            std::fs::write(&path, format!("0,{max},0\n{row}\n")).unwrap();
            let err = TraceSpec::scan(&path, 8).unwrap_err();
            assert_eq!(err.line, Some(2), "{row}: {err}");
            assert!(err.msg.contains(what), "{row}: {err}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scan_reports_the_hash_pass_error_first() {
        // A directory opens but fails every read, on both passes; the
        // hash pass's unnumbered I/O error wins, as when it ran first.
        let dir = std::env::temp_dir().join(format!("vmprov_dataset_dir_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let err = TraceSpec::scan(&dir, 8).unwrap_err();
        assert_eq!(err.line, None, "{err}");
        assert!(err.msg.starts_with("read "), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reader_rejects_a_request_total_past_u64_max() {
        // Unreachable from a file under the row bound (it takes 2^40
        // rows), but the checked total stays as defence in depth.
        let mut reader = CsvReader::new(io::BufReader::new(&b"0,1,0\n1,2,0\n"[..]));
        reader.rows.total = u64::MAX - 2;
        let mut buf = Vec::new();
        let err = reader.read_chunk(&mut buf, 8).unwrap_err();
        assert_eq!(buf.len(), 1);
        assert_eq!(err.line, Some(2), "{err}");
        assert!(err.msg.contains("overflows"), "{err}");
    }

    #[test]
    fn clone_restarts_the_stream() {
        let trace = Trace::new(vec![ArrivalBatch {
            time: SimTime::from_secs(1.0),
            count: 1,
            spread: 0.0,
        }])
        .unwrap();
        let mut rng = RngFactory::new(1).stream("unused");
        let mut a = StreamReplay::from_trace(trace);
        assert!(a.next_batch(&mut rng).is_some());
        assert!(a.next_batch(&mut rng).is_none());
        let mut b = a.clone();
        assert!(b.next_batch(&mut rng).is_some(), "clone starts fresh");
    }

    #[test]
    fn generator_is_deterministic_and_matches_rate() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        let horizon = SimTime::from_secs(2000.0);
        let ga = generate_poisson_csv(&mut a, 5.0, horizon, 42).unwrap();
        let gb = generate_poisson_csv(&mut b, 5.0, horizon, 42).unwrap();
        assert_eq!(a, b, "same seed, same bytes");
        assert_eq!(ga, gb);
        let n = ga.rows as f64;
        assert!((n - 10_000.0).abs() < 3.0 * 10_000f64.sqrt(), "rows {n}");
        let mut c = Vec::new();
        generate_poisson_csv(&mut c, 5.0, horizon, 43).unwrap();
        assert_ne!(a, c, "different seed, different trace");
        // The generated bytes parse clean through the reader.
        let mut reader = CsvReader::new(io::BufReader::new(&a[..]));
        let batches = drain_via(&mut reader, 4096);
        assert_eq!(batches.len() as u64, ga.rows);
        assert!(batches.iter().all(|b| b.count == 1 && b.spread == 0.0));
    }

    /// Drains one replay to completion on its own thread, alternating
    /// between the scalar and the run-pulling consumer seam so shared
    /// chunks are exercised through both paths.
    fn drain_replay_threaded(replays: Vec<StreamReplay>) -> Vec<Vec<ArrivalBatch>> {
        let handles: Vec<_> = replays
            .into_iter()
            .enumerate()
            .map(|(i, mut r)| {
                std::thread::spawn(move || {
                    let mut rng = RngFactory::new(1).stream("unused");
                    let mut got = Vec::new();
                    if i % 2 == 0 {
                        while let Some(b) = r.next_batch(&mut rng) {
                            got.push(b);
                        }
                    } else {
                        let mut run = Vec::new();
                        loop {
                            run.clear();
                            if r.next_batch_run(&mut rng, 64, &mut run) == 0 {
                                break;
                            }
                            got.extend_from_slice(&run);
                        }
                    }
                    got
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    #[test]
    fn shared_scan_decodes_once_and_fans_out() {
        // N concurrent consumers over one scan all see the reference
        // stream bit-identically, while the underlying reader decodes
        // every batch exactly once and the window never exceeds the
        // backpressure bound.
        let dir =
            std::env::temp_dir().join(format!("vmprov_dataset_shared_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shared.csv");
        let mut csv = Vec::new();
        generate_poisson_csv(&mut csv, 4.0, SimTime::from_secs(500.0), 11).unwrap();
        std::fs::write(&path, &csv).unwrap();

        for chunk in [1usize, 7, 4096] {
            let spec = TraceSpec::scan(&path, chunk).unwrap();
            let mut rng = RngFactory::new(1).stream("unused");
            let reference: Vec<ArrivalBatch> = {
                let mut r = spec.replay();
                std::iter::from_fn(|| r.next_batch(&mut rng)).collect()
            };
            for consumers in [1usize, 2, 5] {
                let (scan, replays) = spec.replay_shared(consumers).unwrap();
                for (i, got) in drain_replay_threaded(replays).into_iter().enumerate() {
                    assert_eq!(got, reference, "chunk {chunk}, consumer {i}/{consumers}");
                }
                let stats = scan.stats();
                assert_eq!(stats.consumers, consumers);
                assert_eq!(stats.file_opens, 1, "one shared scan, one open");
                assert_eq!(
                    stats.batches_decoded, spec.batches,
                    "chunk {chunk}: every batch decoded exactly once"
                );
                assert_eq!(
                    stats.chunks_decoded,
                    spec.batches.div_ceil(chunk as u64),
                    "chunk {chunk}: chunk count"
                );
                assert!(
                    stats.max_window <= SCAN_DEPTH,
                    "chunk {chunk}: window {} breached the bound",
                    stats.max_window
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shared_scan_preserves_spread_batches() {
        // The stop-after-spread rule of `next_batch_run` must behave
        // identically through shared chunks (spread > 0 rows break runs
        // at the same points).
        let trace = Trace::new(
            (0..300)
                .map(|i| ArrivalBatch {
                    time: SimTime::from_secs(i as f64),
                    count: 1 + (i % 3) as u64,
                    spread: if i % 11 == 0 { 30.0 } else { 0.0 },
                })
                .collect(),
        )
        .unwrap();
        let reference = trace.batches().to_vec();
        let (scan, consumers) =
            SharedTraceScan::fan_out(Box::new(MemoryReader::new(Arc::new(trace))), 3, 16);
        let replays: Vec<StreamReplay> = consumers
            .into_iter()
            .map(|c| StreamReplay {
                source: ReplaySource::Shared(c),
                chunk: 16,
                mean_rate: 1.0,
                horizon: SimTime::from_secs(300.0),
                reader: None,
                buf: ChunkBuf::empty(),
                pos: 0,
            })
            .collect();
        for got in drain_replay_threaded(replays) {
            assert_eq!(got, reference);
        }
        assert_eq!(scan.stats().batches_decoded, 300);
    }

    #[test]
    fn dropped_consumer_does_not_wedge_the_group() {
        // A consumer that dies mid-grid (drop without draining) must not
        // backpressure the survivors: its cursor deregisters and the
        // scan keeps flowing.
        let trace = Trace::new(
            (0..1000)
                .map(|i| ArrivalBatch {
                    time: SimTime::from_secs(i as f64),
                    count: 1,
                    spread: 0.0,
                })
                .collect(),
        )
        .unwrap();
        let reference = trace.batches().to_vec();
        // chunk 8 → 125 chunks, far beyond SCAN_DEPTH: survivors only
        // finish if eviction stops waiting on the dropped consumer.
        let (scan, mut consumers) =
            SharedTraceScan::fan_out(Box::new(MemoryReader::new(Arc::new(trace))), 3, 8);
        drop(consumers.remove(1));
        let replays: Vec<StreamReplay> = consumers
            .into_iter()
            .map(|c| StreamReplay {
                source: ReplaySource::Shared(c),
                chunk: 8,
                mean_rate: 1.0,
                horizon: SimTime::from_secs(1000.0),
                reader: None,
                buf: ChunkBuf::empty(),
                pos: 0,
            })
            .collect();
        for got in drain_replay_threaded(replays) {
            assert_eq!(got, reference);
        }
        assert_eq!(scan.stats().batches_decoded, 1000);
    }

    #[test]
    fn shared_replay_clone_panics_with_a_clear_message() {
        let trace = Trace::new(vec![ArrivalBatch {
            time: SimTime::from_secs(0.0),
            count: 1,
            spread: 0.0,
        }])
        .unwrap();
        let (_scan, consumers) =
            SharedTraceScan::fan_out(Box::new(MemoryReader::new(Arc::new(trace))), 1, 4);
        let replay = StreamReplay {
            source: ReplaySource::Shared(consumers.into_iter().next().unwrap()),
            chunk: 4,
            mean_rate: 1.0,
            horizon: SimTime::from_secs(1.0),
            reader: None,
            buf: ChunkBuf::empty(),
            pos: 0,
        };
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| replay.clone()))
            .expect_err("cloning a shared-scan replay must panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(msg.contains("single-pass"), "unhelpful panic: {msg}");
    }

    #[test]
    fn shared_scan_propagates_reader_errors_to_every_consumer() {
        let input = "0,1,0\n1.0,notanumber\n";
        let reader = CsvReader::new(io::BufReader::new(input.as_bytes()));
        let (_scan, consumers) = SharedTraceScan::fan_out(Box::new(reader), 2, 64);
        for mut c in consumers {
            let err = c.next_chunk().expect_err("bad row must surface");
            assert_eq!(err.line, Some(2), "{err}");
            assert!(err.msg.contains("bad count"), "{err}");
        }
    }

    #[test]
    fn step_generator_shifts_density_at_the_breakpoint() {
        let mut csv = Vec::new();
        let horizon = SimTime::from_secs(1000.0);
        generate_piecewise_csv(&mut csv, &[(0.0, 1.0), (500.0, 10.0)], horizon, 7).unwrap();
        let mut reader = CsvReader::new(io::BufReader::new(&csv[..]));
        let times: Vec<f64> = drain_via(&mut reader, 4096)
            .iter()
            .map(|b| b.time.as_secs())
            .collect();
        let before = times.iter().filter(|&&t| t < 500.0).count() as f64;
        let after = times.len() as f64 - before;
        assert!((before - 500.0).abs() < 100.0, "before {before}");
        assert!((after - 5000.0).abs() < 300.0, "after {after}");
    }
}
