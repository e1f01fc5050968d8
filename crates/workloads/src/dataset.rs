//! Streaming trace ingestion: the **`DatasetReader` seam**.
//!
//! Every recorded or external trace enters the simulator through one
//! trait, [`DatasetReader`]: a chunked pull interface that yields
//! time-ordered [`ArrivalBatch`] runs without ever materializing the
//! full trace. [`CsvReader`] implements it for `time,count,spread` CSV
//! files (the only on-disk format today); further dataset formats
//! (Wikipedia request logs, cluster traces) slot in as further
//! implementations without touching the simulator.
//!
//! [`StreamReplay`] turns a trace into an [`ArrivalProcess`]: it
//! buffers `chunk` batches at a time, so peak ingestion memory is
//! `chunk × size_of::<ArrivalBatch>()` regardless of trace length, and
//! a 10M-request file replays in a few megabytes. An in-memory
//! [`Trace`] replays as one chunk. Arrivals are byte-identical for every
//! chunk size (pinned by a property test): the buffer is pure plumbing,
//! invisible to the simulation.
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
//! arrival rate and hashes its raw bytes into the content hash (the
//! run-cache key component), all on one executor batch: the hash pass
//! beside the file's line-aligned decode ranges, stitched in file
//! order. A bad file is decoded again as one range, so scan-time
//! errors are the single pass's line-numbered [`DatasetError`]s, never
//! panics. A reader error *during* the simulation — after a successful
//! scan — means the file changed underneath the run, and
//! `StreamReplay` treats that as fatal.

use crate::synthetic::PiecewiseRateProcess;
use crate::trace::Trace;
use crate::traits::{ArrivalBatch, ArrivalProcess};
use std::collections::VecDeque;
use std::fmt;
use std::fs::File;
use std::io::{self, BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use vmprov_des::pool::WorkerPool;
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
/// row into that many staged arrival times at once (8 bytes each), so
/// the bound caps one row's expansion at about 134 MB; a larger burst
/// belongs in several rows with the same timestamp.
pub const MAX_ROW_COUNT: u64 = 1 << 24;

/// Most digits the fast path accumulates into a `u64` (a count's
/// digits, a decimal's significant digits): 19 nines still fit, so the
/// digit loop cannot overflow.
const MAX_U64_DIGITS: usize = 19;

/// Streaming `time,count,spread` CSV reader (header and comment lines
/// skipped; the spread column optional, defaulting to 0).
///
/// The reader holds one line at a time, so out-of-order timestamps
/// are a *parse error* (streaming cannot sort), as are
/// truncated rows, non-finite or negative values, a count above
/// [`MAX_ROW_COUNT`], and a count that would push the running request
/// total past `u64::MAX`, all reported with their line number.
///
/// Lines are split straight out of the reader's buffer
/// (`fill_buf`/`consume`); only a line that straddles a refill is
/// copied, into a retained carry buffer. A canonical row —
/// `<digits[.digits]>,<digits>[,<digits[.digits]>]` ending in `\n` or
/// at end of input — is decoded from the bytes in one pass: the time
/// and the spread by an exact decimal decoder (Eisel–Lemire) inside its
/// window of at most 19 significant and 27 fraction digits. Every other
/// line (headers, comments, whitespace, `\r`, signs, exponents, extra
/// columns, non-ASCII, longer decimals, anything that fails to parse)
/// takes the general text parser, `str::parse` per field, so both
/// paths yield the same batches and errors.
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

/// Accumulates the run of ASCII digits starting at `b[i]` into `w`
/// (wrapping), a byte at a time, and returns the index just past the
/// run. The result is exact when the run's value, with `w`'s digits in
/// front, is below 2^64.
#[inline]
fn digits(b: &[u8], mut i: usize, w: &mut u64) -> usize {
    while let Some(d) = b.get(i).map(|c| c.wrapping_sub(b'0')).filter(|&d| d <= 9) {
        *w = w.wrapping_mul(10).wrapping_add(u64::from(d));
        i += 1;
    }
    i
}

/// [`digits`] for a run that is usually long (a fraction): while
/// eight bytes remain, it reads them as one word and takes up to eight
/// digits in one step; near the end of `b`, a byte at a time.
///
/// The short runs (integer parts, counts) go a byte at a time instead:
/// there each step is a predicted branch, and the next field's position
/// does not wait on arithmetic on a loaded word. Here the run's end
/// varies from row to row, so finding it in the word beats a
/// mispredicted loop exit. Both choices measured faster on the row
/// decode, and the word-based fraction also on the end-to-end trace
/// scan (DESIGN.md §11).
#[inline]
fn long_digits(b: &[u8], mut i: usize, w: &mut u64) -> usize {
    while let Some(eight) = b.get(i..i + 8) {
        let v = u64::from_le_bytes(eight.try_into().expect("an 8-byte slice"));
        // The lowest byte with its top bit set in `v - '0'` or in
        // `v + 0x46` is the first non-digit (bytes above it may be
        // flagged by borrows and carries, bytes below it never are).
        let flags = (v.wrapping_sub(ASCII_ZEROS) | v.wrapping_add(0x4646_4646_4646_4646))
            & 0x8080_8080_8080_8080;
        let run = flags.trailing_zeros() / 8;
        if run == 8 {
            *w = w.wrapping_mul(100_000_000).wrapping_add(eight_digits(v));
            i += 8;
            continue;
        }
        if run > 0 {
            // The run's digits move to the top bytes, '0's fill below.
            let padded = v << (64 - 8 * run) | ASCII_ZEROS >> (8 * run);
            *w = w
                .wrapping_mul(POW10[run as usize])
                .wrapping_add(eight_digits(padded));
        }
        return i + run as usize;
    }
    digits(b, i, w)
}

/// Eight ASCII `'0'`s as one little-endian word.
const ASCII_ZEROS: u64 = 0x3030_3030_3030_3030;

/// `10^k` for a run of k < 8 digits.
const POW10: [u64; 8] = [1, 10, 100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000];

/// The value of eight ASCII digits loaded little-endian (first digit in
/// the low byte): adjacent digits combine into four two-digit pairs,
/// which two multiplies scale by 10^6, 10^4, 10^2 and 1 into bits 32–63.
#[inline]
fn eight_digits(v: u64) -> u64 {
    let v = v - ASCII_ZEROS;
    let v = v * 10 + (v >> 8);
    let first_third = (v & 0x0000_00FF_0000_00FF).wrapping_mul(0x000F_4240_0000_0064);
    let second_fourth = ((v >> 16) & 0x0000_00FF_0000_00FF).wrapping_mul(0x0000_2710_0000_0001);
    u64::from((first_third.wrapping_add(second_fourth) >> 32) as u32)
}

/// Most fraction digits [`decimal`] decodes: the power of ten then lies
/// in [-27, 0], inside Eisel–Lemire's range [-27, 55] where the
/// truncated 128-bit power always decides the rounding.
const MAX_FRACTION_DIGITS: usize = 27;

/// Decodes the decimal `<digits>[.<digits>]` at the start of `b` into
/// the nearest `f64` (ties to even), bit for bit `str::parse`'s answer,
/// and returns it with the index just past the number. `None` when `b`
/// does not start with such a number, or when it has more than
/// [`MAX_U64_DIGITS`] significant digits (leading zeros do not
/// count) or more than [`MAX_FRACTION_DIGITS`] fraction digits.
#[inline]
fn decimal(b: &[u8]) -> Option<(f64, usize)> {
    let mut w = 0u64;
    let mut end = digits(b, 0, &mut w);
    let int_digits = end;
    if int_digits == 0 {
        return None;
    }
    let mut fraction = 0;
    if b.get(end) == Some(&b'.') {
        let fraction_end = long_digits(b, end + 1, &mut w);
        fraction = fraction_end - end - 1;
        // `1.` goes to the general parser.
        if fraction == 0 {
            return None;
        }
        end = fraction_end;
    }
    if fraction > MAX_FRACTION_DIGITS {
        return None;
    }
    if int_digits + fraction > MAX_U64_DIGITS {
        let leading = b[..end]
            .iter()
            .take_while(|&&c| c == b'0' || c == b'.')
            .filter(|&&c| c == b'0')
            .count();
        if int_digits + fraction - leading > MAX_U64_DIGITS {
            return None;
        }
    }
    Some((eisel_lemire(w, -(fraction as i32)), end))
}

/// `5^q` for q ∈ [-27, 0] as 128-bit fractions with the top bit set,
/// truncated upward: index `q + 27`.
const POW5: [u128; MAX_FRACTION_DIGITS + 1] = pow5_table();

/// Builds [`POW5`] by fast_float's rule: `5^0` is `2^127`, and for
/// q < 0, with z = ⌈log₂ 5^-q⌉, the entry is ⌊2^(z+127) / 5^-q⌋ + 1,
/// by exact binary long division.
const fn pow5_table() -> [u128; MAX_FRACTION_DIGITS + 1] {
    let mut table = [0u128; MAX_FRACTION_DIGITS + 1];
    table[MAX_FRACTION_DIGITS] = 1 << 127;
    let mut k = 1;
    while k <= MAX_FRACTION_DIGITS {
        let divisor = 5u128.pow(k as u32);
        let z = 128 - (divisor - 1).leading_zeros();
        // 2^(z+127) is a one followed by z + 127 zeros: start from the
        // one (below the divisor, so a zero quotient bit) and shift the
        // zeros in.
        let (mut quotient, mut rem, mut shifts) = (0u128, 1u128, 0);
        while shifts < z + 127 {
            rem <<= 1;
            quotient <<= 1;
            if rem >= divisor {
                rem -= divisor;
                quotient |= 1;
            }
            shifts += 1;
        }
        assert!(quotient >> 127 == 1, "the entry's top bit is set");
        table[MAX_FRACTION_DIGITS - k] = quotient + 1;
        k += 1;
    }
    table
}

/// `w · 10^q` rounded to the nearest `f64`, ties to even, for
/// q ∈ [-27, 0] (Lemire, "Number Parsing at a Gigabyte per Second",
/// 2021; std's `dec2flt` runs the same algorithm). In that range the
/// result is normal and finite, and the truncated product always
/// decides the rounding, so no slower path is needed.
#[inline]
fn eisel_lemire(w: u64, q: i32) -> f64 {
    debug_assert!((-(MAX_FRACTION_DIGITS as i32)..=0).contains(&q));
    if w == 0 {
        return 0.0;
    }
    let lz = w.leading_zeros();
    let w = w << lz;
    let pow5 = POW5[(q + MAX_FRACTION_DIGITS as i32) as usize];
    let product = u128::from(w) * (pow5 >> 64);
    let (mut lo, mut hi) = (product as u64, (product >> 64) as u64);
    // The 52 stored bits, the hidden bit, a rounding bit and a possible
    // leading zero are the top 55 bits of `hi`; when the bits below
    // them are all ones a carry from the low half of the power could
    // reach them, so add it in.
    const LOW_BITS: u64 = u64::MAX >> 55;
    if hi & LOW_BITS == LOW_BITS {
        let carry = ((u128::from(w) * u128::from(pow5 as u64)) >> 64) as u64;
        lo = lo.wrapping_add(carry);
        hi += u64::from(carry > lo);
    }
    let upper = (hi >> 63) as u32;
    let mut mantissa = hi >> (upper + 9);
    // ⌊log₂ 10^q⌋ + 63 + the exponent bias, adjusted for the product's
    // leading bit and the normalising shift.
    let mut exponent = ((q * (152_170 + 65_536)) >> 16) + 63 + upper as i32 - lz as i32 + 1023;
    // An exact product halfway between two floats (possible only for
    // q ≥ -4) rounds to even: clear the bit that would round it up.
    if lo <= 1 && q >= -4 && mantissa & 3 == 1 && mantissa << (upper + 9) == hi {
        mantissa &= !1;
    }
    mantissa += mantissa & 1;
    mantissa >>= 1;
    if mantissa >= 2 << 52 {
        mantissa = 1 << 52;
        exponent += 1;
    }
    f64::from_bits((mantissa & !(1 << 52)) | (exponent as u64) << 52)
}

/// Decodes a canonical row `<digits[.digits]>,<digits>[,<digits[.digits]>]`
/// at the start of `b`, where the count has at most 19 digits and both
/// decimals lie inside [`decimal`]'s window. Returns
/// `(time, count, spread)` and the index of the first byte after the
/// row; the caller checks that the row ends there. `None` sends the
/// line to the general parser.
#[inline]
fn canonical_row(b: &[u8]) -> Option<((f64, u64, f64), usize)> {
    let (time, mut i) = decimal(b)?;
    if b.get(i) != Some(&b',') {
        return None;
    }
    let mut count = 0;
    let end = digits(b, i + 1, &mut count);
    if end == i + 1 || end - i - 1 > MAX_U64_DIGITS {
        return None;
    }
    i = end;
    let spread = if b.get(i) == Some(&b',') {
        let (spread, len) = decimal(&b[i + 1..])?;
        i += 1 + len;
        spread
    } else {
        0.0
    };
    Some(((time, count, spread), i))
}

impl RowState {
    /// Decodes one complete line (its `\n` or `\r\n` included when
    /// present), or `None` for skippable lines (blank, header, comment).
    fn decode_line(&mut self, raw: &[u8]) -> Result<Option<ArrivalBatch>, DatasetError> {
        if let Some((row, end)) = canonical_row(raw) {
            if matches!(&raw[end..], b"" | b"\n" | b"\r\n") {
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
                    // `\n` is matched first, so an LF trace pays nothing
                    // for CRLF line ends.
                    let eol = match rest.get(end) {
                        Some(b'\n') => 1,
                        Some(b'\r') if rest.get(end + 1) == Some(&b'\n') => 2,
                        _ => 0,
                    };
                    if eol > 0 {
                        pos += end + eol;
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
    /// [`TraceSpec::replay_shared`] or [`TraceSpec::replay_stepped`].
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
    /// Rows one step of a consumer — an arrival-stream expansion
    /// released at some row — may pull past that row (stepped scans; 0
    /// for concurrent consumers).
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
    /// The one constructor of both kinds of scan: `workers` threads
    /// step the consumers (see [`publish_past`](Self::publish_past)),
    /// whose steps pull at most `lookahead` rows past the row they are
    /// released at; both are 0 when the consumers run concurrently
    /// instead.
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
/// the timestamp of row `P − L`. A step released strictly before it is
/// released at a row below `P − L` (rows are time-ordered), so the rows
/// it may pull all lie below `P`: a cell never asks for a row that is
/// not out yet.
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
    /// The scan is one [`WorkerPool::run_batch`] as wide as the
    /// machine: the content-hash pass over the raw bytes, then the file
    /// cut into about four line-aligned decode ranges per thread, none
    /// under 1 MiB (a smaller file is one range). Each range runs the
    /// replay's own [`CsvReader`] over its bytes; the ranges' totals
    /// are stitched in file order, with each range's first row checked
    /// against the row before it. A hash-pass I/O error takes
    /// precedence over a parse error. When a range fails, or the stitch
    /// does, the file is decoded again as one range, so every error and
    /// its line are those of a single pass; only a bad file pays for
    /// that second decode. The sequential content-hash pass is the
    /// floor: no thread count takes the scan below it, and once the
    /// decode is cheaper than the hash the scan approaches it.
    pub fn scan(path: &Path, chunk: usize) -> Result<TraceSpec, DatasetError> {
        let width = std::thread::available_parallelism().map_or(1, |n| n.get());
        let len = std::fs::metadata(path).map_or(0, |m| m.len());
        let ranges = (len / MIN_RANGE_BYTES).clamp(1, (RANGES_PER_WORKER * width) as u64);
        TraceSpec::scan_ranges(path, chunk, width, ranges as usize)
    }

    /// [`scan`](Self::scan) on `width` threads with the file cut into at
    /// most `ranges` decode ranges.
    fn scan_ranges(
        path: &Path,
        chunk: usize,
        width: usize,
        ranges: usize,
    ) -> Result<TraceSpec, DatasetError> {
        assert!(chunk >= 1, "chunk must hold at least one batch");
        let starts = line_starts(path, ranges);
        // Item 0 is the hash pass; item `i + 1` decodes range `i`, which
        // runs to the next range's start (the last one to the end).
        let items: Vec<Option<(u64, u64)>> = std::iter::once(None)
            .chain(starts.iter().enumerate().map(|(i, &start)| {
                let end = starts.get(i + 1).copied().unwrap_or(u64::MAX);
                Some((start, end - start))
            }))
            .collect();
        let mut hashed = None;
        let mut decoded = Vec::with_capacity(starts.len());
        for pass in WorkerPool::new(width).run_batch(items, |_, item| match item {
            None => ScanPass::Hash(hash_file(path)),
            Some((start, len)) => ScanPass::Decode(decode_range(path, chunk, start, len)),
        }) {
            match pass {
                ScanPass::Hash(h) => hashed = Some(h),
                ScanPass::Decode(d) => decoded.push(d),
            }
        }
        let content_hash = hashed.expect("the batch ran the hash pass")?;
        // A lone range is the single pass, errors included.
        let totals = match (decoded.len(), stitch(&decoded)) {
            (1, _) => decoded.pop().expect("one range")?,
            (_, Some(totals)) => totals,
            (_, None) => decode_range(path, chunk, 0, u64::MAX)?,
        };
        let (total, batches) = (totals.total, totals.batches);
        let end = totals.times.map_or(SimTime::ZERO, |(_, last)| last);
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
        let source = ReplaySource::File {
            path: self.path.clone(),
            reader: None,
        };
        StreamReplay::new(source, self.chunk, self.mean_rate, self.end_time)
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
    /// inside a simulation. `lookahead` is the most rows one step of a
    /// replay (an expansion of its run's arrival stream) may pull past
    /// the row it is released at.
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
            .map(|consumer| {
                let source = ReplaySource::Shared(consumer);
                StreamReplay::new(source, self.chunk, self.mean_rate, self.end_time)
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

/// Fewest bytes a decode range of [`TraceSpec::scan`] holds: below
/// this, a range's opens and seeks start to show beside its decode.
const MIN_RANGE_BYTES: u64 = 1 << 20;

/// Decode ranges [`TraceSpec::scan`] cuts per thread, so a thread that
/// finishes its share early takes another range instead of idling.
const RANGES_PER_WORKER: usize = 4;

/// What one item of a scan's batch found.
enum ScanPass {
    Hash(Result<u64, DatasetError>),
    Decode(Result<RangeTotals, DatasetError>),
}

/// What decoding one line-aligned byte range found.
#[derive(Debug, Clone, Copy)]
struct RangeTotals {
    /// Batch rows in the range.
    batches: u64,
    /// Overflow-checked sum of the range's count column.
    total: u64,
    /// The range's first and last row times (each row's own `f64`, as
    /// `SimTime::from_secs` keeps it); `None` for a range with no rows
    /// (only blank, header or comment lines).
    times: Option<(SimTime, SimTime)>,
}

/// The starts of at most `ranges` line-aligned decode ranges of the file
/// at `path`, the first at 0: the file's length is cut into `ranges`
/// equal parts, and each cut moves to just after the next `\n`. Cuts
/// that meet (a line longer than a range) merge, and a cut with no
/// `\n` after it is dropped. An I/O error stops the cutting there; the
/// decode of the ranges reports it.
fn line_starts(path: &Path, ranges: usize) -> Vec<u64> {
    let mut starts = vec![0];
    if ranges <= 1 {
        return starts;
    }
    let Ok(mut file) = File::open(path) else {
        return starts;
    };
    let len = file.metadata().map_or(0, |m| m.len());
    let mut block = [0u8; 4096];
    for k in 1..ranges as u64 {
        let nominal = (u128::from(len) * u128::from(k) / ranges as u128) as u64;
        // A cut at `nominal` is line-aligned when the byte before it is
        // `\n`, so the search starts there, or past the previous cut.
        let mut at = nominal.saturating_sub(1).max(starts[starts.len() - 1]);
        if file.seek(SeekFrom::Start(at)).is_err() {
            break;
        }
        let cut = loop {
            let n = match file.read(&mut block) {
                Ok(0) | Err(_) => break None,
                Ok(n) => n,
            };
            if let Some(i) = block[..n].iter().position(|&c| c == b'\n') {
                break Some(at + i as u64 + 1);
            }
            at += n as u64;
        };
        match cut {
            Some(cut) if cut < len => starts.push(cut),
            _ => break,
        }
    }
    starts
}

/// Decodes the `len` bytes of the trace at `path` from `start` (a line
/// start) through the replay's own reader, chunk by chunk. The reader
/// keeps the overflow-checked request total; its line numbers count
/// from the range's first line, so they are the file's only for the
/// range at 0.
fn decode_range(
    path: &Path,
    chunk: usize,
    start: u64,
    len: u64,
) -> Result<RangeTotals, DatasetError> {
    let mut file = File::open(path)
        .map_err(|e| DatasetError::io(format!("cannot open {}: {e}", path.display())))?;
    if start > 0 {
        file.seek(SeekFrom::Start(start))
            .map_err(|e| DatasetError::io(format!("read {}: {e}", path.display())))?;
    }
    let mut reader = CsvReader::new(BufReader::with_capacity(64 * 1024, file.take(len)));
    let mut buf = Vec::with_capacity(chunk);
    let mut batches = 0u64;
    let mut times = None;
    loop {
        buf.clear();
        if reader.read_chunk(&mut buf, chunk)? == 0 {
            break;
        }
        let (first, last) = (buf[0].time, buf[buf.len() - 1].time);
        times = Some((times.map_or(first, |(first, _)| first), last));
        batches += buf.len() as u64;
    }
    Ok(RangeTotals {
        batches,
        total: reader.rows.total,
        times,
    })
}

/// Joins the ranges' totals in file order into the whole file's:
/// batches add, request totals add with an overflow check, and each
/// range's first row must not be earlier than the last row before it,
/// the check its reader could not make. `None` when a range failed or
/// a check does: the file must then be decoded again as one range to
/// get its error and line right.
fn stitch(decoded: &[Result<RangeTotals, DatasetError>]) -> Option<RangeTotals> {
    let mut whole = RangeTotals {
        batches: 0,
        total: 0,
        times: None,
    };
    for range in decoded {
        let range = range.as_ref().ok()?;
        whole.batches += range.batches;
        whole.total = whole.total.checked_add(range.total)?;
        whole.times = match (whole.times, range.times) {
            (Some((_, last)), Some((first, _))) if first < last => return None,
            (Some((start, _)), Some((_, end))) => Some((start, end)),
            (times, None) | (None, times) => times,
        };
    }
    Some(whole)
}

/// Where a [`StreamReplay`] gets its chunks from. The file and memory
/// sources restart, so the replay can be `Clone` (each clone starts a
/// fresh pass) even though a live reader cannot fork; a shared-scan
/// consumer is single-pass by construction, so cloning one panics.
enum ReplaySource {
    /// A trace file, opened at the first refill and read into the
    /// replay's own chunk.
    File {
        path: PathBuf,
        reader: Option<CsvReader<BufReader<File>>>,
    },
    /// An in-memory trace, whose batches are the replay's one chunk
    /// from the start: there is nothing to refill.
    Memory,
    /// One consumer of a [`SharedTraceScan`], which hands over each
    /// chunk it decoded.
    Shared(ScanConsumer),
}

/// An [`ArrivalProcess`] that streams batches off a trace `chunk` at a
/// time. Consumes no randomness; peak memory is one chunk of batches
/// regardless of trace length.
///
/// Every source fills the same ref-counted chunk: a file replay refills
/// its own uniquely held chunk in place, a shared-scan consumer takes
/// the scan's handle (no per-consumer copy), and an in-memory trace is
/// one chunk.
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
    buf: Arc<Vec<ArrivalBatch>>,
    pos: usize,
}

impl StreamReplay {
    fn new(source: ReplaySource, chunk: usize, mean_rate: f64, horizon: SimTime) -> Self {
        StreamReplay {
            source,
            chunk,
            mean_rate,
            horizon,
            buf: Arc::default(),
            pos: 0,
        }
    }

    /// Replays a recorded in-memory trace (see also [`Trace::replay`]).
    pub fn from_trace(trace: Trace) -> StreamReplay {
        let horizon = trace.end_time();
        let mean_rate = if horizon > SimTime::ZERO {
            trace.total_requests() as f64 / horizon.as_secs()
        } else {
            0.0
        };
        StreamReplay {
            source: ReplaySource::Memory,
            chunk: trace.len(),
            mean_rate,
            horizon,
            buf: Arc::new(trace.into_batches()),
            pos: 0,
        }
    }

    /// The same replay, ending at `horizon`: the first row whose time
    /// is past it ends the stream (a row at the horizon still replays).
    /// A horizon at or past the trace's last row replays every row.
    pub fn with_horizon(mut self, horizon: SimTime) -> StreamReplay {
        self.horizon = horizon;
        self
    }

    /// Moves to the next chunk, from the start; `None` at the end of the
    /// stream. A reader error means the file changed after the scan
    /// that validated it, which is fatal.
    fn refill(&mut self) -> Option<()> {
        match &mut self.source {
            ReplaySource::Memory => return None,
            ReplaySource::Shared(consumer) => {
                self.buf = consumer
                    .next_chunk()
                    .unwrap_or_else(|e| panic!("trace changed after scan: {e}"))?;
            }
            ReplaySource::File { path, reader } => {
                let reader = reader.get_or_insert_with(|| {
                    CsvReader::open(path)
                        .unwrap_or_else(|e| panic!("trace changed after scan: {e}"))
                });
                // Nothing else holds a file replay's chunk, so this
                // reuses its storage.
                let buf = Arc::make_mut(&mut self.buf);
                buf.clear();
                reader
                    .read_chunk(buf, self.chunk)
                    .unwrap_or_else(|e| panic!("trace changed after scan: {e}"));
            }
        }
        self.pos = 0;
        (!self.buf.is_empty()).then_some(())
    }
}

impl Clone for StreamReplay {
    fn clone(&self) -> Self {
        let (source, buf) = match &self.source {
            ReplaySource::File { path, .. } => {
                let source = ReplaySource::File {
                    path: path.clone(),
                    reader: None,
                };
                (source, Arc::default())
            }
            ReplaySource::Memory => (ReplaySource::Memory, Arc::clone(&self.buf)),
            ReplaySource::Shared(_) => panic!(
                "a shared-scan replay cannot be cloned: the scan is single-pass \
                 (build one consumer per run via TraceSpec::replay_shared)"
            ),
        };
        StreamReplay {
            source,
            chunk: self.chunk,
            mean_rate: self.mean_rate,
            horizon: self.horizon,
            buf,
            pos: 0,
        }
    }
}

impl fmt::Debug for StreamReplay {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let source = match &self.source {
            ReplaySource::File { path, .. } => format!("file {}", path.display()),
            ReplaySource::Memory => format!("memory ({} batches)", self.buf.len()),
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
        let b = self.buf[self.pos];
        if b.time > self.horizon {
            return None;
        }
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
            let buf = &self.buf;
            let mut window = &buf[self.pos..buf.len().min(self.pos + (max - n))];
            // Rows are in time order, so the horizon cuts a window at
            // most once, and only the last window it reaches.
            let past = window.last().is_some_and(|b| b.time > self.horizon);
            if past {
                window = &window[..window.partition_point(|b| b.time <= self.horizon)];
            }
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
            if stop || past {
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
/// `(start_time, rate)` breakpoints starting at 0; the rows are the
/// arrivals of a [`PiecewiseRateProcess`] over `pieces` on the
/// `"trace-gen"` stream of `seed`.
///
/// # Panics
/// Panics on the pieces [`PiecewiseRateProcess::new`] rejects.
pub fn generate_piecewise_csv<W: Write>(
    w: W,
    pieces: &[(f64, f64)],
    horizon: SimTime,
    seed: u64,
) -> io::Result<GeneratedTrace> {
    let mut process = PiecewiseRateProcess::new(pieces.to_vec(), horizon);
    let mut rng = vmprov_des::RngFactory::new(seed).stream("trace-gen");
    let mut w = io::BufWriter::new(w);
    writeln!(w, "time,count,spread")?;
    let mut rows = 0u64;
    let mut last = 0.0f64;
    while let Some(batch) = process.next_batch(&mut rng) {
        last = batch.time.as_secs();
        writeln!(w, "{last},1,0")?;
        rows += 1;
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
        // buffer sizes {1, 7, 4096} through the on-disk source, and the
        // in-memory trace, which replays as one chunk.
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
            }
            let mut mem_replay = trace.replay();
            let mem_stream: Vec<ArrivalBatch> =
                std::iter::from_fn(|| mem_replay.next_batch(&mut rng)).collect();
            assert_eq!(mem_stream, reference, "memory");
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

    /// Scans `path` as one range, then at forced range counts 1–8, and
    /// asserts every ranged result equals the one-range result, error
    /// line and message included; returns the one-range result.
    fn ranged_scans_agree(path: &Path) -> Result<TraceSpec, DatasetError> {
        let whole = TraceSpec::scan_ranges(path, 3, 1, 1);
        for ranges in 1..=8 {
            let ranged = TraceSpec::scan_ranges(path, 3, 2, ranges);
            assert_eq!(ranged, whole, "{ranges} ranges");
        }
        whole
    }

    #[test]
    fn ranged_scan_matches_one_range_on_mangled_files() {
        let dir = std::env::temp_dir().join(format!("vmprov_ranged_fuzz_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mangled.csv");
        let mut valid = b"time,count,spread\n# comment\n".to_vec();
        for i in 0..40 {
            let row = match i % 4 {
                0 => format!("{i},{},0\n", i % 7),
                1 => format!("{i}.5,3\n"),
                2 => format!(" {i}.75 , 2 , 1.5\r\n"),
                _ => format!("{}e0,{MAX_ROW_COUNT},0\n", i + 1),
            };
            valid.extend_from_slice(row.as_bytes());
        }
        vmprov_check::cases(150, |g| {
            std::fs::write(&path, g.mangle(&valid)).unwrap();
            let _ = ranged_scans_agree(&path);
        });
        std::fs::write(&path, &valid).unwrap();
        assert_eq!(ranged_scans_agree(&path).unwrap().batches, 40);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ranged_scan_keeps_errors_exact_at_range_cuts() {
        let dir = std::env::temp_dir().join(format!("vmprov_ranged_cuts_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        let rows = 40;
        let row = |i: usize| format!("{i},{},0\n", 1 + i % 5);
        // Each fault replaces row `i` (file line `i + 1`); `Some(msg)`
        // is the error it must raise there.
        type Fault = (&'static str, fn(usize) -> String, Option<&'static str>);
        let faults: [Fault; 4] = [
            (
                "out-of-order",
                |i| format!("{}.5,1,0\n", i - 2),
                Some("out-of-order"),
            ),
            (
                "count",
                |i| format!("{i},{},0\n", MAX_ROW_COUNT + 1),
                Some("per-row limit"),
            ),
            ("header", |_| "time,count,spread\n".to_string(), None),
            ("comment", |_| "# a comment mid-file\n".to_string(), None),
        ];
        for (name, fault, expect) in faults {
            let mut at_a_cut = 0;
            for i in 2..rows {
                let text: String = (0..rows)
                    .map(|j| if j == i { fault(i) } else { row(j) })
                    .collect();
                std::fs::write(&path, &text).unwrap();
                let offset: usize = (0..i).map(|j| row(j).len()).sum();
                at_a_cut += (2..=8)
                    .filter(|&r| line_starts(&path, r).contains(&(offset as u64)))
                    .count();
                match (ranged_scans_agree(&path), expect) {
                    (Err(e), Some(msg)) => {
                        assert_eq!(e.line, Some(i as u64 + 1), "{name} at row {i}: {e}");
                        assert!(e.msg.contains(msg), "{name} at row {i}: {e}");
                    }
                    (Ok(spec), None) => assert_eq!(spec.batches, rows as u64 - 1),
                    (got, _) => panic!("{name} at row {i}: {got:?}"),
                }
            }
            assert!(at_a_cut > 0, "{name} never started a range");
        }
        // Line endings and the last line: CRLF throughout, and a last
        // line without its `\n`, with and without an error in it.
        let crlf: String = (0..rows).map(|j| row(j).replace('\n', "\r\n")).collect();
        let unterminated: String = (0..rows).map(row).collect::<String>();
        for (text, ok) in [
            (crlf.clone(), true),
            (format!("{crlf}1,1,0\r\n"), false),
            (unterminated.trim_end().to_string(), true),
            (format!("{unterminated}0,1,0"), false),
        ] {
            std::fs::write(&path, &text).unwrap();
            let got = ranged_scans_agree(&path);
            assert_eq!(got.is_ok(), ok, "{got:?}");
            if let Err(e) = got {
                assert_eq!(e.line, Some(rows as u64 + 1), "{e}");
            }
        }
        // Lines longer than a range: one mid-file, and a file that is
        // one line.
        let long = format!("# {}\n", "x".repeat(600));
        let text = format!("0,1,0\n{long}1,2,0\n2,3,0\n");
        std::fs::write(&path, &text).unwrap();
        // The cuts inside the long line all move past it and merge.
        let past = 6 + long.len() as u64;
        assert_eq!(line_starts(&path, 8), vec![0, past, past + 6]);
        assert_eq!(ranged_scans_agree(&path).unwrap().total_requests, 6);
        let one_line = format!("0.{}1,5", "0".repeat(600));
        std::fs::write(&path, &one_line).unwrap();
        assert_eq!(line_starts(&path, 8), vec![0]);
        assert_eq!(ranged_scans_agree(&path).unwrap().batches, 1);
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

    /// `consumers` concurrent replays of `trace` off one scan of its
    /// CSV text, `chunk` batches at a time: the consumers of
    /// [`TraceSpec::replay_shared`], over bytes in memory.
    fn shared_replays(
        trace: &Trace,
        consumers: usize,
        chunk: usize,
    ) -> (SharedTraceScan, Vec<StreamReplay>) {
        let mut csv = Vec::new();
        trace.write_csv(&mut csv).unwrap();
        let reader = Box::new(CsvReader::new(io::Cursor::new(csv)));
        let (scan, handles) = SharedTraceScan::build(reader, consumers, chunk, 0, 0);
        let replays = handles
            .into_iter()
            .map(|c| StreamReplay::new(ReplaySource::Shared(c), chunk, 1.0, trace.end_time()))
            .collect();
        (scan, replays)
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
        let (scan, replays) = shared_replays(&trace, 3, 16);
        for got in drain_replay_threaded(replays) {
            assert_eq!(got, trace.batches());
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
        // chunk 8 → 125 chunks, far beyond SCAN_DEPTH: survivors only
        // finish if eviction stops waiting on the dropped consumer.
        let (scan, mut replays) = shared_replays(&trace, 3, 8);
        drop(replays.remove(1));
        for got in drain_replay_threaded(replays) {
            assert_eq!(got, trace.batches());
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
        let (_scan, replays) = shared_replays(&trace, 1, 4);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| replays[0].clone()))
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
        let (_scan, consumers) = SharedTraceScan::build(Box::new(reader), 2, 64, 0, 0);
        for mut c in consumers {
            let err = c.next_chunk().expect_err("bad row must surface");
            assert_eq!(err.line, Some(2), "{err}");
            assert!(err.msg.contains("bad count"), "{err}");
        }
    }

    #[test]
    fn generated_traces_keep_their_bytes() {
        // The replay goldens and e2ebench replay generated traces, so
        // the generator's bytes are pinned: FNV-1a digests of the CSV
        // for one rate, the goldens' 10/40/20 steps, zero-rate pieces,
        // a breakpoint past the horizon, and e2ebench's 12-step diurnal
        // trace (300 − 150·cos(2πt/3600) req/s in 5-minute steps).
        let diurnal: Vec<(f64, f64)> = (0..12)
            .map(|i| {
                let t = f64::from(i) * 300.0;
                (
                    t,
                    300.0 - 150.0 * (std::f64::consts::TAU * t / 3600.0).cos(),
                )
            })
            .collect();
        // Rows written and the digest of the bytes.
        let digest = |pieces: &[(f64, f64)], horizon: f64, seed: u64| {
            let mut csv = Vec::new();
            let horizon = SimTime::from_secs(horizon);
            let rows = generate_piecewise_csv(&mut csv, pieces, horizon, seed)
                .unwrap()
                .rows;
            (rows, vmprov_des::stable_hash64(&csv))
        };
        assert_eq!(
            digest(&[(0.0, 40.0)], 400.0, 9),
            (15_900, 0x48e5_628e_f16a_8df4)
        );
        assert_eq!(
            digest(&[(0.0, 10.0), (2000.0, 40.0), (4000.0, 20.0)], 6000.0, 2028),
            (139_473, 0x317a_c96a_8411_456c)
        );
        assert_eq!(
            digest(
                &[(0.0, 5.0), (100.0, 0.0), (250.0, 30.0), (300.0, 0.0)],
                500.0,
                3
            ),
            (1975, 0xa19e_e11c_a2f3_427b)
        );
        assert_eq!(
            digest(&[(0.0, 20.0), (700.0, 50.0)], 500.0, 4),
            (9929, 0x71c2_0788_7f49_9f97)
        );
        assert_eq!(
            digest(&diurnal, 3600.0, 20_110_926),
            (1_081_264, 0x908f_49d3_971b_2130)
        );
    }

    #[test]
    fn a_gap_past_the_horizon_restarts_at_the_breakpoint() {
        // Seed 1's first gap at 0.01 req/s runs past the 200-s horizon;
        // the 10 req/s piece from 100 s must still fill (a generator
        // that stopped at that gap wrote no rows at all).
        let mut csv = Vec::new();
        let pieces = [(0.0, 0.01), (100.0, 10.0)];
        let generated =
            generate_piecewise_csv(&mut csv, &pieces, SimTime::from_secs(200.0), 1).unwrap();
        assert!(
            (generated.rows as f64 - 1000.0).abs() < 150.0,
            "{generated:?}"
        );
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

    /// `a · m` as three 64-bit limbs, most significant first, so that
    /// arrays compare as the numbers do.
    fn wide_mul(a: u128, m: u64) -> [u64; 3] {
        let low = u128::from(a as u64) * u128::from(m);
        let high = u128::from((a >> 64) as u64) * u128::from(m) + (low >> 64);
        [(high >> 64) as u64, high as u64, low as u64]
    }

    #[test]
    fn pow5_table_entries_are_the_truncated_powers_plus_one() {
        assert_eq!(POW5[MAX_FRACTION_DIGITS], 1 << 127);
        for k in 1..=MAX_FRACTION_DIGITS {
            let power = 5u64.pow(k as u32);
            // 5^k is not a power of two, so its bit length is ⌈log₂ 5^k⌉.
            let z = u64::BITS - power.leading_zeros();
            let exponent = z + 127;
            let mut two_to_the = [0u64; 3];
            two_to_the[2 - (exponent / 64) as usize] = 1 << (exponent % 64);
            let entry = POW5[MAX_FRACTION_DIGITS - k];
            // entry = ⌊2^(z+127) / 5^k⌋ + 1 exactly when
            // (entry − 1)·5^k ≤ 2^(z+127) < entry·5^k.
            assert!(wide_mul(entry - 1, power) <= two_to_the, "5^-{k}");
            assert!(two_to_the < wide_mul(entry, power), "5^-{k}");
            assert_eq!(entry >> 127, 1, "5^-{k} has its top bit set");
        }
    }

    /// Whether `text` lies inside [`decimal`]'s window: at most 19
    /// significant digits (leading zeros do not count) and at most 27
    /// after the point.
    fn in_window(text: &str) -> bool {
        let fraction = text.split_once('.').map_or(0, |(_, f)| f.len());
        let significant = text.trim_start_matches(['0', '.']).replace('.', "").len();
        fraction <= MAX_FRACTION_DIGITS && significant <= MAX_U64_DIGITS
    }

    /// Decodes `text` with [`decimal`] and checks it against
    /// `str::parse::<f64>` bit for bit: taken exactly when it is inside
    /// the window, and then the whole of it, to the same bits. It is
    /// decoded alone, where a fraction within eight bytes of the end
    /// goes a byte at a time, and as the start of a row, where the bytes
    /// after it let every digit run end inside a loaded eight-byte word.
    fn check_decimal(text: &str) {
        let want: f64 = text.parse().expect("a valid decimal");
        for bytes in [text.to_owned(), format!("{text},1,0\n12.5,1,0\n")] {
            match decimal(bytes.as_bytes()) {
                Some((got, len)) => {
                    assert!(in_window(text), "{text} is outside the window");
                    assert_eq!(len, text.len(), "{text}");
                    assert_eq!(got.to_bits(), want.to_bits(), "{text}: {got} vs {want}");
                }
                None => assert!(!in_window(text), "{text} was declined"),
            }
        }
    }

    /// `len` ASCII digits, the first non-zero.
    fn random_digits(rng: &mut SimRng, len: u64) -> String {
        (0..len)
            .map(|i| {
                let d = if i == 0 {
                    1 + rng.next_u64() % 9
                } else {
                    rng.next_u64() % 10
                };
                char::from(b'0' + d as u8)
            })
            .collect()
    }

    /// The digit string `d` with a point before its last `fraction`
    /// digits (zero-padded), after `lead` extra leading zeros.
    fn place_point(d: &str, fraction: usize, lead: usize) -> String {
        let zeros = "0".repeat(lead);
        if fraction == 0 {
            format!("{zeros}{d}")
        } else if fraction >= d.len() {
            format!("{zeros}0.{}{d}", "0".repeat(fraction - d.len()))
        } else {
            let (int, frac) = d.split_at(d.len() - fraction);
            format!("{zeros}{int}.{frac}")
        }
    }

    #[test]
    fn decimal_matches_std_parse_bit_for_bit() {
        let mut rng = RngFactory::new(0xDEC1).stream("decimal");
        let mut checked = 0u64;
        let mut check = |text: &str| {
            check_decimal(text);
            checked += 1;
        };
        // 1–19 significant digits, trailing zeros among them, 0–27
        // fraction digits, and up to two extra leading zeros.
        for _ in 0..700_000 {
            let significant = 1 + rng.next_u64() % 19;
            let trailing = rng.next_u64() % (20 - significant).min(4);
            let d = random_digits(&mut rng, significant) + &"0".repeat(trailing as usize);
            let fraction = (rng.next_u64() % 28) as usize;
            check(&place_point(&d, fraction, (rng.next_u64() % 3) as usize));
        }
        // The `Display` form `generate_piecewise_csv` writes, over the
        // trace times' range and far below it.
        for i in 0..300_000 {
            let x = rng.uniform(0.0, 1e7) / [1.0, 1e3, 1e9][i % 3];
            check(&x.to_string());
        }
        // Integers about 2^53 and above, where not every integer is a
        // float, and odd multiples of 2^-4…2^10 of 54-bit integers:
        // exact ties between two floats, which round to even.
        for base in [
            1u64 << 53,
            1 << 54,
            1 << 60,
            1 << 63,
            9_999_999_999_999_000_000,
        ] {
            for k in 0..2_001 {
                check(&(base - 1_000 + k).to_string());
            }
        }
        for _ in 0..20_000 {
            let m = (1u64 << 53) | rng.next_u64() >> 11 | 1;
            for j in 0..=4u32 {
                // m / 2^j = m·5^j / 10^j exactly.
                let d = (u128::from(m) * 5u128.pow(j)).to_string();
                check(&place_point(&d, j as usize, 0));
            }
            let shift = 1 + rng.next_u64() % 10;
            if let Some(v) = (m >> 1).checked_mul(1 << shift) {
                check(&(v | 1 << (shift - 1)).to_string());
            }
        }
        // 10^k and its neighbours 1 and 2 ulps away, shortest and at
        // every fixed precision the window allows.
        for k in -27..=19 {
            let p: f64 = format!("1e{k}").parse().expect("a power of ten");
            for ulps in [-2i64, -1, 0, 1, 2] {
                let x = f64::from_bits(p.to_bits().wrapping_add_signed(ulps));
                check(&x.to_string());
                for precision in 0..=MAX_FRACTION_DIGITS {
                    check(&format!("{x:.precision$}"));
                }
            }
        }
        assert!(checked >= 1_000_000, "{checked} inputs");
    }

    #[test]
    fn decimal_declines_inputs_past_the_window() {
        let mut rng = RngFactory::new(0xDEC2).stream("decimal");
        for _ in 0..10_000 {
            // Twenty significant digits, trailing zeros counted.
            let d = random_digits(&mut rng, 20);
            let fraction = (rng.next_u64() % 28) as usize;
            let text = place_point(&d, fraction, (rng.next_u64() % 3) as usize);
            assert_eq!(decimal(text.as_bytes()), None, "{text}");
            let d = random_digits(&mut rng, 19) + "0";
            assert_eq!(decimal(place_point(&d, 1, 0).as_bytes()), None, "{d}");
            // Twenty-eight fraction digits.
            let significant = 1 + rng.next_u64() % 19;
            let text = place_point(&random_digits(&mut rng, significant), 28, 0);
            assert_eq!(decimal(text.as_bytes()), None, "{text}");
            // Nineteen significant digits behind leading zeros, and 27
            // fraction digits, are inside.
            let d = random_digits(&mut rng, 19);
            let text = place_point(&d, 27, 2);
            assert!(decimal(text.as_bytes()).is_some(), "{text}");
        }
        for text in ["", ".", ".5", "1.", "+1", "-1", "x"] {
            assert_eq!(decimal(text.as_bytes()), None, "{text}");
        }
        // The number ends at the first byte that cannot continue it;
        // the row decoder checks what follows.
        assert_eq!(decimal(b"12.50,1"), Some((12.5, 5)));
        assert_eq!(decimal(b"1e5"), Some((1.0, 1)));
        assert_eq!(decimal(b"0"), Some((0.0, 1)));
        assert_eq!(decimal(&[b'0'; 64]), Some((0.0, 64)));
    }
}
