//! Trace capture and replay.
//!
//! The paper's methodology collects Pin traces once and replays them
//! (§5.1.2). This module provides the same workflow for the synthetic
//! generators: capture any [`AccessStream`] to a compact binary file and
//! replay it later, so experiments can be re-run bit-identically without
//! regenerating (or even linking) the generators.
//!
//! Capture streams record-by-record (O(1) memory, any trace size).
//! Replay comes in two flavours: [`TraceFile`] loads the whole trace
//! (rewindable, cheap random inspection) while [`TraceReader`] streams
//! through a fixed-size buffer — the right choice for multi-GB traces
//! or long-running daemons. Both yield identical record sequences.
//!
//! ## Format
//!
//! A 16-byte header (`magic`, version, record count) followed by
//! fixed-width 13-byte records: `nonmem: u32 | flags: u8 | addr: u64`,
//! all little-endian. No compression — traces are transient artifacts.
//!
//! # Example
//!
//! ```no_run
//! use pipm_workloads::{trace, Workload, WorkloadParams};
//! use pipm_types::SystemConfig;
//!
//! # fn main() -> std::io::Result<()> {
//! let mut cfg = SystemConfig::default();
//! let params = WorkloadParams { refs_per_core: 1_000, seed: 1 };
//! let mut streams = Workload::Bfs.streams(&mut cfg, &params);
//! trace::capture(streams[0].as_mut(), "core0.trace")?;
//! let replay = trace::TraceFile::open("core0.trace")?;
//! assert_eq!(replay.len(), 1_000);
//! # Ok(())
//! # }
//! ```

use pipm_cpu::{AccessStream, TraceRecord};
use pipm_types::Addr;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

const MAGIC: u32 = 0x5049_504d; // "PIPM"
const VERSION: u32 = 1;
const RECORD_BYTES: usize = 13;
/// Total header size in bytes (magic + version + record count).
const HEADER_BYTES: u64 = 16;
/// Byte offset of the record count in the header (after magic+version).
const COUNT_OFFSET: u64 = 8;

fn encode_record(r: &TraceRecord, buf: &mut [u8; RECORD_BYTES]) {
    buf[0..4].copy_from_slice(&r.nonmem.to_le_bytes());
    buf[4] = u8::from(r.is_write);
    buf[5..13].copy_from_slice(&r.addr.raw().to_le_bytes());
}

fn decode_record(chunk: &[u8]) -> TraceRecord {
    TraceRecord {
        nonmem: u32::from_le_bytes(chunk[0..4].try_into().unwrap()),
        is_write: chunk[4] != 0,
        addr: Addr::new(u64::from_le_bytes(chunk[5..13].try_into().unwrap())),
    }
}

fn write_header(w: &mut impl Write, count: u64) -> io::Result<()> {
    w.write_all(&MAGIC.to_le_bytes())?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&count.to_le_bytes())
}

/// Captures every remaining record of `stream` into `path`, streaming
/// record-by-record through a `BufWriter` — the whole trace is never
/// held in memory, so capturing a multi-GB stream costs O(1) space.
///
/// The header's record count is written last (the stream's length is
/// unknown up front): a zero-count placeholder goes out first and is
/// patched in place once the stream is exhausted, before the final
/// flush. Returns the number of records captured.
///
/// # Errors
///
/// Propagates I/O errors from creating, writing, or patching the file.
pub fn capture(stream: &mut dyn AccessStream, path: impl AsRef<Path>) -> io::Result<u64> {
    let mut w = BufWriter::new(File::create(path)?);
    write_header(&mut w, 0)?;
    let mut count: u64 = 0;
    let mut buf = [0u8; RECORD_BYTES];
    while let Some(r) = stream.next_record() {
        encode_record(&r, &mut buf);
        w.write_all(&buf)?;
        count += 1;
    }
    let mut file = w.into_inner().map_err(io::IntoInnerError::into_error)?;
    file.seek(SeekFrom::Start(COUNT_OFFSET))?;
    file.write_all(&count.to_le_bytes())?;
    file.flush()?;
    Ok(count)
}

/// Writes a slice of records into `path` (header + fixed-width
/// records), flushing before returning the count written — consistent
/// with [`capture`], so callers can treat the two interchangeably.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_records(records: &[TraceRecord], path: impl AsRef<Path>) -> io::Result<u64> {
    let mut w = BufWriter::new(File::create(path)?);
    write_header(&mut w, records.len() as u64)?;
    let mut buf = [0u8; RECORD_BYTES];
    for r in records {
        encode_record(r, &mut buf);
        w.write_all(&buf)?;
    }
    w.flush()?;
    Ok(records.len() as u64)
}

/// An in-memory trace loaded from disk; iterate it or hand it to
/// [`System::run`](../../pipm_core/struct.System.html) as an
/// [`AccessStream`].
#[derive(Clone, Debug)]
pub struct TraceFile {
    records: Vec<TraceRecord>,
    cursor: usize,
}

impl TraceFile {
    /// Loads a trace written by [`capture`] or [`write_records`].
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` for a bad magic number, version, record count,
    /// or truncated record section, and propagates underlying I/O errors.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        let mut r = BufReader::new(File::open(path)?);
        let count = read_header(&mut r)?;
        let mut body = Vec::new();
        r.read_to_end(&mut body)?;
        if body.len() as u64 != count * RECORD_BYTES as u64 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "truncated trace file",
            ));
        }
        let mut records = Vec::with_capacity(count as usize);
        for chunk in body.chunks_exact(RECORD_BYTES) {
            records.push(decode_record(chunk));
        }
        Ok(TraceFile { records, cursor: 0 })
    }

    /// Number of records in the trace.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The records as a slice (for inspection).
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Resets replay to the beginning.
    pub fn rewind(&mut self) {
        self.cursor = 0;
    }
}

impl AccessStream for TraceFile {
    fn next_record(&mut self) -> Option<TraceRecord> {
        let r = self.records.get(self.cursor).copied();
        if r.is_some() {
            self.cursor += 1;
        }
        r
    }

    fn fork(&self) -> Option<Box<dyn AccessStream>> {
        Some(Box::new(self.clone()))
    }

    fn remaining_hint(&self) -> Option<u64> {
        Some((self.records.len() - self.cursor) as u64)
    }
}

/// Validates a trace header and returns the record count.
fn read_header(r: &mut impl Read) -> io::Result<u64> {
    let mut head = [0u8; 16];
    r.read_exact(&mut head)?;
    let magic = u32::from_le_bytes(head[0..4].try_into().unwrap());
    let version = u32::from_le_bytes(head[4..8].try_into().unwrap());
    let count = u64::from_le_bytes(head[8..16].try_into().unwrap());
    if magic != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "bad trace magic",
        ));
    }
    if version != VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unsupported trace version {version}"),
        ));
    }
    // A forged count must not overflow the body-size arithmetic later on.
    if count.checked_mul(RECORD_BYTES as u64).is_none() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("trace record count {count} is too large"),
        ));
    }
    Ok(count)
}

/// Number of records decoded per refill of a [`TraceReader`]'s buffer
/// (~1.6 MiB of file bytes — large enough to amortize syscalls, small
/// enough that many readers can coexist).
const READER_CHUNK_RECORDS: usize = 128 * 1024;

/// A streaming trace replayer: reads records through a fixed-size
/// buffer instead of loading the file, so replaying a multi-GB trace
/// (or serving many traces concurrently) costs O(1) memory.
///
/// Yields exactly the records [`TraceFile`] would — equivalence is unit
/// tested — but does not support [`rewind`](TraceFile::rewind); reopen
/// the file to replay again. It *does* support
/// [`fork`](AccessStream::fork): the fork reopens the file and seeks to
/// the first unyielded record, so checkpointed simulations can resume
/// replayed traces without buffering them.
pub struct TraceReader {
    /// Source path, kept so [`AccessStream::fork`] can reopen the file.
    path: std::path::PathBuf,
    reader: BufReader<File>,
    /// Records in the file per the header.
    total: u64,
    /// Records remaining per the header (also drives `len`).
    remaining: u64,
    /// Decoded records waiting to be yielded, in yield order.
    buffer: std::collections::VecDeque<TraceRecord>,
    /// Deferred I/O error: surfaced once, then the stream ends.
    failed: Option<io::Error>,
}

impl TraceReader {
    /// Opens a trace written by [`capture`] or [`write_records`],
    /// validating only the header (body truncation is detected during
    /// streaming, when the bytes are actually read).
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` for a bad magic number, version, or record
    /// count, and propagates underlying I/O errors.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut reader = BufReader::new(File::open(&path)?);
        let remaining = read_header(&mut reader)?;
        Ok(TraceReader {
            path,
            reader,
            total: remaining,
            remaining,
            buffer: std::collections::VecDeque::new(),
            failed: None,
        })
    }

    /// Records not yet yielded (per the header).
    pub fn remaining(&self) -> u64 {
        self.remaining + self.buffer.len() as u64
    }

    /// The I/O error that ended the stream early, if any. A truncated
    /// body surfaces here as `InvalidData` (the header promised more
    /// records than the file holds).
    pub fn error(&self) -> Option<&io::Error> {
        self.failed.as_ref()
    }

    /// Refills the buffer with up to [`READER_CHUNK_RECORDS`] records.
    fn refill(&mut self) -> io::Result<()> {
        let want = (self.remaining as usize).min(READER_CHUNK_RECORDS);
        if want == 0 {
            return Ok(());
        }
        let mut bytes = vec![0u8; want * RECORD_BYTES];
        self.reader.read_exact(&mut bytes).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                io::Error::new(io::ErrorKind::InvalidData, "truncated trace file")
            } else {
                e
            }
        })?;
        for chunk in bytes.chunks_exact(RECORD_BYTES) {
            self.buffer.push_back(decode_record(chunk));
        }
        self.remaining -= want as u64;
        Ok(())
    }
}

impl AccessStream for TraceReader {
    fn next_record(&mut self) -> Option<TraceRecord> {
        if self.buffer.is_empty() {
            if self.failed.is_some() {
                return None;
            }
            if let Err(e) = self.refill() {
                self.failed = Some(e);
                return None;
            }
        }
        self.buffer.pop_front()
    }

    fn fork(&self) -> Option<Box<dyn AccessStream>> {
        if self.failed.is_some() {
            return None;
        }
        // Reopen and seek past the records already yielded; the fork
        // re-reads anything still sitting in this reader's buffer.
        let yielded = self.total - self.remaining();
        let mut reader = BufReader::new(File::open(&self.path).ok()?);
        reader
            .seek(SeekFrom::Start(
                HEADER_BYTES + yielded * RECORD_BYTES as u64,
            ))
            .ok()?;
        Some(Box::new(TraceReader {
            path: self.path.clone(),
            reader,
            total: self.total,
            remaining: self.remaining(),
            buffer: std::collections::VecDeque::new(),
            failed: None,
        }))
    }

    fn remaining_hint(&self) -> Option<u64> {
        Some(self.remaining())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Workload, WorkloadParams};
    use pipm_types::SystemConfig;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("pipm_trace_test_{}_{name}", std::process::id()));
        p
    }

    #[test]
    fn round_trip_preserves_records() {
        let mut cfg = SystemConfig::default();
        let params = WorkloadParams {
            refs_per_core: 500,
            seed: 3,
        };
        let mut streams = Workload::Canneal.streams(&mut cfg, &params);
        let path = tmp("round_trip");
        let n = capture(streams[0].as_mut(), &path).unwrap();
        assert_eq!(n, 500);
        let mut replay = TraceFile::open(&path).unwrap();
        assert_eq!(replay.len(), 500);
        // Replaying yields the exact same records as a fresh generator.
        let mut fresh = Workload::Canneal.streams(&mut cfg, &params);
        let mut count = 0;
        while let Some(expect) = fresh[0].next_record() {
            assert_eq!(replay.next_record(), Some(expect));
            count += 1;
        }
        assert_eq!(count, 500);
        assert_eq!(replay.next_record(), None);
        replay.rewind();
        assert!(replay.next_record().is_some());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn bad_magic_rejected() {
        let path = tmp("bad_magic");
        std::fs::write(&path, b"not a trace file at all....").unwrap();
        let err = TraceFile::open(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn forged_count_rejected() {
        let path = tmp("forged_count");
        write_records(&[TraceRecord::read(1, Addr::new(64))], &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[COUNT_OFFSET as usize..HEADER_BYTES as usize]
            .copy_from_slice(&u64::MAX.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = TraceFile::open(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let err = TraceReader::open(&path).err().unwrap();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn truncated_body_rejected() {
        let path = tmp("truncated");
        let recs = vec![TraceRecord::read(1, Addr::new(64)); 4];
        write_records(&recs, &path).unwrap();
        // Chop off the last record's tail.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let err = TraceFile::open(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn empty_trace_round_trips() {
        let path = tmp("empty");
        assert_eq!(write_records(&[], &path).unwrap(), 0);
        let t = TraceFile::open(&path).unwrap();
        assert!(t.is_empty());
        let mut r = TraceReader::open(&path).unwrap();
        assert_eq!(r.remaining(), 0);
        assert_eq!(r.next_record(), None);
        assert!(r.error().is_none());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn write_records_returns_count() {
        let path = tmp("count");
        let recs = vec![TraceRecord::read(2, Addr::new(128)); 7];
        assert_eq!(write_records(&recs, &path).unwrap(), 7);
        assert_eq!(TraceFile::open(&path).unwrap().len(), 7);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn streaming_reader_matches_trace_file() {
        let mut cfg = SystemConfig::default();
        let params = WorkloadParams {
            refs_per_core: 1_200,
            seed: 9,
        };
        let mut streams = Workload::Bfs.streams(&mut cfg, &params);
        let path = tmp("streaming_equiv");
        let n = capture(streams[0].as_mut(), &path).unwrap();
        assert_eq!(n, 1_200);
        let mut whole = TraceFile::open(&path).unwrap();
        let mut streaming = TraceReader::open(&path).unwrap();
        assert_eq!(streaming.remaining(), 1_200);
        let mut count = 0u64;
        while let Some(expect) = whole.next_record() {
            assert_eq!(streaming.next_record(), Some(expect));
            count += 1;
        }
        assert_eq!(count, n);
        assert_eq!(streaming.next_record(), None);
        assert_eq!(streaming.remaining(), 0);
        assert!(streaming.error().is_none());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn streaming_reader_detects_truncation() {
        let path = tmp("streaming_truncated");
        let recs = vec![TraceRecord::read(1, Addr::new(64)); 4];
        write_records(&recs, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        // The header parses, so open succeeds; the truncation surfaces
        // as an early end-of-stream with a recorded error.
        let mut r = TraceReader::open(&path).unwrap();
        assert_eq!(r.next_record(), None);
        assert_eq!(r.error().unwrap().kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(path).ok();
    }
}
