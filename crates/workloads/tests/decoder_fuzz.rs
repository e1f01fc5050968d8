//! Mangled-input property test of the trace CSV decoder: truncations,
//! bit flips, spliced junk and pure garbage fed to
//! `CsvReader::read_chunk` and `TraceSpec::scan` must yield `Ok` or
//! `Err`, never a panic. Both paths parse through the same reader, so
//! they must also agree on which inputs are valid and on their totals.

use std::io::BufReader;
use vmprov_check::{cases, Gen};
use vmprov_des::SimTime;
use vmprov_workloads::{ArrivalBatch, CsvReader, DatasetReader, Trace, TraceSpec, MAX_ROW_COUNT};

/// A small valid trace file: header, a comment, rows with and without
/// spread, and two counts at exactly `MAX_ROW_COUNT`, so a flip that
/// raises one of their digits still parses and reaches the row bound.
fn valid_csv() -> Vec<u8> {
    let big = MAX_ROW_COUNT;
    let batch = |t: f64, count, spread| ArrivalBatch {
        time: SimTime::from_secs(t),
        count,
        spread,
    };
    let trace = Trace::new(vec![
        batch(0.0, 3, 60.0),
        batch(12.5, 1, 0.0),
        batch(60.0, big, 0.0),
        batch(61.25, 7, 2.5),
        batch(90.0, big, 0.0),
    ])
    .unwrap();
    let mut csv = Vec::new();
    trace.write_csv(&mut csv).unwrap();
    csv.extend_from_slice(b"# trailing comment\n120,2\n");
    csv
}

/// Drains `bytes` through `CsvReader::read_chunk` at a random chunk
/// size, returning (batches, request total) or the first error.
fn drain(bytes: &[u8], g: &mut Gen) -> Result<(u64, u64), String> {
    let mut reader = CsvReader::new(BufReader::new(bytes));
    let chunk = g.usize_in(1..9);
    let (mut batches, mut total) = (0u64, 0u64);
    let mut buf = Vec::new();
    loop {
        buf.clear();
        match reader.read_chunk(&mut buf, chunk) {
            Ok(0) => return Ok((batches, total)),
            Ok(n) => {
                assert!(n <= chunk, "reader overfilled the chunk");
                batches += n as u64;
                for b in &buf {
                    total = total.checked_add(b.count).ok_or("total overflowed")?;
                }
            }
            Err(e) => return Err(e.to_string()),
        }
    }
}

#[test]
fn csv_decoders_never_panic_on_mangled_input() {
    let dir = std::env::temp_dir().join(format!("vmprov_csv_fuzz_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("mangled.csv");
    let valid = valid_csv();
    cases(400, |g| {
        let bytes = g.mangle(&valid);
        let streamed = drain(&bytes, g);
        std::fs::write(&path, &bytes).unwrap();
        let scanned = TraceSpec::scan(&path, g.usize_in(1..9));
        match (&streamed, &scanned) {
            (Ok((batches, total)), Ok(spec)) => {
                assert_eq!(spec.batches, *batches);
                assert_eq!(spec.total_requests, *total);
            }
            (Err(_), Err(e)) => assert!(e.line.is_some(), "unnumbered parse error {e}"),
            _ => panic!("scan {scanned:?} and read_chunk {streamed:?} disagree"),
        }
    });
    let _ = std::fs::remove_dir_all(&dir);
}
