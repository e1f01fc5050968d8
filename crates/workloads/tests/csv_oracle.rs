//! Equivalence of the byte-level `CsvReader` with a line-at-a-time
//! reference decoder, and the content hash `TraceSpec::scan` reports.
//!
//! `RefReader` below is the straightforward decoder: `read_line` into a
//! `String`, trim, split on commas, `str::parse` every field, with the
//! same range, order, row-bound and total checks. `CsvReader` must yield
//! the same batches (bit for bit) and the same first error (line and
//! message) on every input, at every buffer capacity and chunk size.

use std::io::{BufRead, BufReader};
use vmprov_check::{cases, Gen};
use vmprov_des::{stable_hash64, SimTime};
use vmprov_workloads::{
    generate_piecewise_csv, generate_poisson_csv, ArrivalBatch, CsvReader, DatasetError,
    DatasetReader, TraceSpec, MAX_ROW_COUNT,
};

/// The reference decoder: one `read_line` per row, every field through
/// `str::parse`.
struct RefReader<R> {
    input: R,
    line: u64,
    last_time: f64,
    total: u64,
    buf: String,
}

impl<R: BufRead> RefReader<R> {
    fn new(input: R) -> Self {
        RefReader {
            input,
            line: 0,
            last_time: 0.0,
            total: 0,
            buf: String::new(),
        }
    }

    fn parse_line(&mut self) -> Result<Option<ArrivalBatch>, DatasetError> {
        let line = self.buf.trim();
        if line.is_empty() || line.starts_with("time") || line.starts_with('#') {
            return Ok(None);
        }
        let n = self.line;
        let mut parts = line.split(',');
        let time_field = parts.next().unwrap_or("");
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
            return Err(DatasetError::at(
                n,
                format!(
                    "count {count} exceeds the per-row limit of {MAX_ROW_COUNT}; \
                     split it into several rows with the same time"
                ),
            ));
        }
        self.total = self.total.checked_add(count).ok_or_else(|| {
            DatasetError::at(
                n,
                format!("count {count} overflows the trace's request total"),
            )
        })?;
        self.last_time = time;
        Ok(Some(ArrivalBatch {
            time: SimTime::from_secs(time),
            count,
            spread,
        }))
    }

    fn read_chunk(
        &mut self,
        out: &mut Vec<ArrivalBatch>,
        max: usize,
    ) -> Result<usize, DatasetError> {
        let mut appended = 0;
        while appended < max {
            self.buf.clear();
            let n = self
                .input
                .read_line(&mut self.buf)
                .map_err(|e| DatasetError::at(self.line + 1, format!("read failed: {e}")))?;
            if n == 0 {
                break;
            }
            self.line += 1;
            if let Some(batch) = self.parse_line()? {
                out.push(batch);
                appended += 1;
            }
        }
        Ok(appended)
    }
}

/// Everything a decode of one input produced: each batch as exact bits,
/// the chunk sizes returned, and the first error.
type Outcome = (Vec<(u64, u64, u64)>, Vec<usize>, Option<DatasetError>);

fn drain(
    mut read: impl FnMut(&mut Vec<ArrivalBatch>, usize) -> Result<usize, DatasetError>,
    chunk: usize,
) -> Outcome {
    let mut out = Vec::new();
    let mut sizes = Vec::new();
    let err = loop {
        match read(&mut out, chunk) {
            Ok(0) => break None,
            Ok(n) => sizes.push(n),
            Err(e) => break Some(e),
        }
    };
    let bits = out
        .iter()
        .map(|b| (b.time.as_secs().to_bits(), b.count, b.spread.to_bits()))
        .collect();
    (bits, sizes, err)
}

/// Decodes `bytes` through both readers over `BufReader`s of capacity
/// `cap`, `chunk` batches per call, and asserts identical outcomes.
fn assert_same(bytes: &[u8], cap: usize, chunk: usize) -> Outcome {
    let mut reference = RefReader::new(BufReader::with_capacity(cap, bytes));
    let want = drain(|out, max| reference.read_chunk(out, max), chunk);
    let mut reader = CsvReader::new(BufReader::with_capacity(cap, bytes));
    let got = drain(|out, max| reader.read_chunk(out, max), chunk);
    assert_eq!(
        got,
        want,
        "input {:?} at capacity {cap}, chunk {chunk}",
        String::from_utf8_lossy(bytes)
    );
    got
}

/// Rows that probe the edges of the canonical fast path.
const EDGE_ROWS: &[&[u8]] = &[
    b"5,1,0",
    b"5,1,0\r",
    b"5.25,3,1.5\r",
    b" 5,1,0",
    b"5,1,0 ",
    b"5 ,1, 0",
    b"\t5,1,0",
    b"1.,1,0",
    b".5,1,0",
    b".,1,0",
    b"5,1,1.",
    b"5,1,.5",
    b"5,1,.",
    b"5,1,1.2.3",
    b"1e3,1,0",
    b"5,1,1e1",
    b"5,1,1E-1",
    b"+5,1,0",
    b"5,+1,0",
    b"5,1,+0",
    b"-5,1,0",
    b"5,-1,0",
    b"5,1,-0",
    b"5,1,-0.0",
    b"007,007,007",
    b"5,0000000000000000007,0",
    b"5,00000000000000000007,0",
    b"5,9999999999999999999,0",
    b"5,18446744073709551615,0",
    b"5,18446744073709551616,0",
    b"5,16777216,0",
    b"5,16777217,0",
    b"5,1,0,extra",
    b"5,1,0,",
    b"5,1,",
    b"5,1",
    b"5,",
    b"5",
    b",1,0",
    b"",
    b"   ",
    b"# comment,1,0",
    b"time,count,spread",
    b"timestamp,1,0",
    b"5,1,inf",
    b"5,1,nan",
    b"inf,1,0",
    b"NaN,1,0",
    b"5,1,infinity",
    b"100000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000,1,0",
    b"5,1,1000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
    b"0.1000000000000000055511151231257827021181583404541015625,1,0",
    b"5,1,0.30000000000000004",
    // Both sides of the exact decoder's window (19 significant digits,
    // leading zeros not counted; 27 fraction digits), for the time and
    // for the spread: inside it the fast path decodes, past it the
    // general parser does, and both must give `str::parse`'s bits.
    b"5.123456789012345678,1,0",
    b"5.1234567890123456789,1,0",
    b"5.123456789012345670,1,0",
    b"5.1234567890123456780,1,0",
    b"00000000005.123456789012345678,1,0",
    b"1234567890123456789,1,0",
    b"12345678901234567890,1,0",
    b"0.000000001234567890123456789,1,0",
    b"0.0000000001234567890123456789,1,0",
    b"0.000000000000000000000000005,1,0",
    b"0.0000000000000000000000000005,1,0",
    b"0.000000000000000000000000000,1,0",
    b"0.0000000000000000000000000000,1,0",
    b"9007199254740993,1,0",
    b"5,1,5.123456789012345678",
    b"5,1,5.1234567890123456789",
    b"5,1,00000000005.123456789012345678",
    b"5,1,12345678901234567890",
    b"5,1,0.000000001234567890123456789",
    b"5,1,0.0000000001234567890123456789",
    b"5,1,0.000000000000000000000000005",
    b"5,1,0.0000000000000000000000000005",
    b"5,1,9007199254740993",
    "\u{0665},1,0".as_bytes(),
    "5,\u{0661},0".as_bytes(),
    "\u{00a0}5,1,0".as_bytes(),
    "5,1,0\u{2003}".as_bytes(),
    "5,1,0\u{0085}".as_bytes(),
    b"5,1,\xff",
    b"\xc3\x28,1,0",
    b"5\x00,1,0",
    b"4,1,0",
    b"5,1,0\r\r",
];

#[test]
fn edge_rows_decode_like_the_reference() {
    for row in EDGE_ROWS {
        // The row between valid neighbours, as the last line with and
        // without a newline, and alone.
        let mut contexts: Vec<Vec<u8>> = Vec::new();
        for (before, after) in [
            (&b"time,count,spread\n4.5,2,0\n"[..], &b"\n6,1,0\n"[..]),
            (&b"4.5,2,0\r\n"[..], &b"\n"[..]),
            (&b"4.5,2,0\n"[..], &b""[..]),
            (&b""[..], &b""[..]),
        ] {
            contexts.push([before, row, after].concat());
        }
        for bytes in &contexts {
            for cap in [1usize, 2, 3, 5, 8, 13, 64, 8192] {
                for chunk in [1usize, 2, 64] {
                    assert_same(bytes, cap, chunk);
                }
            }
        }
    }
}

#[test]
fn invalid_utf8_keeps_the_reference_message() {
    let (batches, _, err) = assert_same(b"0,1,0\n5,1,\xff\n6,1,0\n", 8192, 64);
    assert_eq!(batches.len(), 1);
    let err = err.expect("invalid UTF-8 must fail");
    assert_eq!(err.line, Some(2));
    assert_eq!(err.msg, "read failed: stream did not contain valid UTF-8");
}

#[test]
fn generated_traces_decode_like_the_reference() {
    let mut csv = Vec::new();
    generate_piecewise_csv(
        &mut csv,
        &[(0.0, 50.0), (20.0, 400.0)],
        SimTime::from_secs(40.0),
        3,
    )
    .unwrap();
    // The same trace with CRLF line ends: refills cut rows between their
    // `\r` and `\n`.
    let crlf = String::from_utf8(csv.clone())
        .unwrap()
        .replace('\n', "\r\n")
        .into_bytes();
    for bytes in [&csv, &crlf] {
        for cap in [7usize, 64, 1000, 64 * 1024] {
            let (batches, _, err) = assert_same(bytes, cap, 512);
            assert!(err.is_none(), "{err:?}");
            assert!(batches.len() > 5000);
        }
    }
}

/// A valid trace with every row shape the fast path and the general
/// parser share: header, comment, blank line, CRLF, spaces, two-column
/// rows, fractional spreads, and counts at the row bound.
fn valid_csv() -> Vec<u8> {
    format!(
        "time,count,spread\n# recorded\n0,3,60\n12.5,1,0\r\n\n 13 , 2 , 0.5 \n\
         60,{MAX_ROW_COUNT},0\n61.25,7,2.5\n90,{MAX_ROW_COUNT}\n120,2\n130.000,01,0.0\n"
    )
    .into_bytes()
}

#[test]
fn mangled_inputs_decode_like_the_reference() {
    let valid = valid_csv();
    let (batches, _, err) = assert_same(&valid, 64, 8);
    assert!(err.is_none() && batches.len() == 8, "{err:?}");
    cases(600, |g: &mut Gen| {
        let bytes = g.mangle(&valid);
        // Small capacities make lines straddle refills.
        let cap = g.usize_in(1..48);
        let chunk = g.usize_in(1..9);
        assert_same(&bytes, cap, chunk);
    });
}

#[test]
fn scan_hash_is_the_raw_byte_digest() {
    // The run cache keys on `content_hash`: it must stay the stable hash
    // of the file's bytes, for every file that scans.
    let dir = std::env::temp_dir().join(format!("vmprov_scan_hash_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.csv");
    let mut csv = Vec::new();
    generate_poisson_csv(&mut csv, 200.0, SimTime::from_secs(200.0), 9).unwrap();
    std::fs::write(&path, &csv).unwrap();
    let spec = TraceSpec::scan(&path, 4096).unwrap();
    assert_eq!(
        spec.content_hash,
        stable_hash64(&std::fs::read(&path).unwrap())
    );
    assert!(spec.batches > 30_000);

    let valid = valid_csv();
    let scanned = std::cell::Cell::new(0u32);
    cases(300, |g: &mut Gen| {
        let bytes = g.mangle(&valid);
        std::fs::write(&path, &bytes).unwrap();
        if let Ok(spec) = TraceSpec::scan(&path, g.usize_in(1..9)) {
            assert_eq!(spec.content_hash, stable_hash64(&bytes));
            scanned.set(scanned.get() + 1);
        }
    });
    assert!(scanned.get() > 0, "no mangled file scanned");
    let _ = std::fs::remove_dir_all(&dir);
}
