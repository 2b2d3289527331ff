//! The generic crash-safe append-only line journal underneath
//! [`Journal`](crate::Journal) — extracted so other subsystems (the
//! `mpdpd` admission daemon's session journal, the cell cache's segments)
//! can reuse the exact recovery discipline the sweep checkpoints proved
//! out:
//!
//! - a header line `<MAGIC> fp=<16-hex fingerprint>` binding the file to
//!   one writer configuration; a mismatch is an error, a torn header (a
//!   kill mid-first-write) resets the file;
//! - one record per line, each carrying a ` #<16-hex FNV-1a>` checksum of
//!   its body;
//! - on open, records are recovered in order and the file is truncated at
//!   the first torn or checksum-failing line — a crash loses at most the
//!   records not yet synced, never the file.
//!
//! Writing and syncing are two steps. [`write`](LineJournal::write) puts a
//! record in the file and returns its sequence number;
//! [`sync`](LineJournal::sync) makes every record up to a sequence number
//! durable by group commit: it returns at once if they already are, waits
//! if another thread's fsync is running, and otherwise leads one fsync
//! that covers every record written before it began. The fsync runs
//! through a second handle with no lock held, so writers never wait behind
//! the disk. [`append`](LineJournal::append) is both steps, durable on
//! return.
//!
//! A failed write may leave a torn fragment, and a failed fsync may have
//! lost dirty pages the kernel will not write again, so either failure
//! poisons the journal: every later write, and every sync past the last
//! durable record, returns the first error. A failed fsync is never
//! retried.
//!
//! This layer knows nothing about record *content*: callers get the
//! recovered bodies back as strings, validate them domain-side, and may
//! [`truncate_to`](LineJournal::truncate_to) a shorter prefix if a
//! checksum-clean record fails semantic validation.

use std::error::Error;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};

use mpdp_core::hash::fnv1a;

/// Bytes a record line adds to its body: ` #`, 16 hex digits, newline.
pub(crate) const RECORD_OVERHEAD: u64 = 19;

/// What one read-only pass over a line-journal file found. This is the
/// format's one reader: [`LineJournal::open`] recovery, the shard merge,
/// the cell cache's foreign segments and the record counters all see
/// exactly the records it accepts.
pub(crate) struct Scan<'a> {
    /// The header fingerprint, when the first line is a complete
    /// `<magic> fp=<16-hex>` header.
    pub(crate) fingerprint: Option<u64>,
    /// The checksum-verified record bodies in file order, up to the
    /// first torn or failing line; empty without a header.
    pub(crate) bodies: Vec<&'a str>,
    /// Byte length of the header plus those records: where recovery
    /// truncates.
    pub(crate) len: u64,
}

/// Scans the text of a line journal written with `magic`. Never fails:
/// whatever is not a header or a verified record ends the scan.
pub(crate) fn scan<'a>(text: &'a str, magic: &str) -> Scan<'a> {
    let head = text.split_inclusive('\n').next().unwrap_or("");
    let fingerprint = head
        .strip_suffix('\n')
        .and_then(|h| h.strip_prefix(magic)?.strip_prefix(" fp="))
        .and_then(parse_hex16);
    let (bodies, len) = match fingerprint {
        Some(_) => {
            let (bodies, len) = scan_records(&text[head.len()..]);
            (bodies, head.len() as u64 + len)
        }
        None => (Vec::new(), 0),
    };
    Scan {
        fingerprint,
        bodies,
        len,
    }
}

/// The record half of [`scan`]: the checksum-verified record bodies at
/// the start of `text`, which begins at a record boundary, up to the
/// first torn or failing line, and their byte length. A reader following
/// a file that another process appends to continues here from the
/// length it already verified.
pub(crate) fn scan_records(text: &str) -> (Vec<&str>, u64) {
    let mut bodies = Vec::new();
    let mut len = 0;
    for line in text.split_inclusive('\n') {
        let Some(body) = line.strip_suffix('\n').and_then(verify_checksum) else {
            break;
        };
        bodies.push(body);
        len += line.len() as u64;
    }
    (bodies, len)
}

/// Exactly 16 lowercase hex digits — the only form the writer emits.
fn parse_hex16(hex: &str) -> Option<u64> {
    if hex.len() != 16 || !hex.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')) {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// Splits a record line (no newline) into its body, verifying the
/// ` #<16-hex>` checksum suffix. `None` if the suffix is missing,
/// malformed, or wrong.
fn verify_checksum(line: &str) -> Option<&str> {
    let (body, crc) = line.rsplit_once(" #")?;
    (parse_hex16(crc)? == fnv1a(body.as_bytes())).then_some(body)
}

/// Why a [`LineJournal`] could not be opened or written.
#[derive(Debug)]
pub struct LineJournalError {
    /// The journal file involved.
    pub path: String,
    /// What went wrong.
    pub detail: String,
}

impl fmt::Display for LineJournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.path, self.detail)
    }
}

impl Error for LineJournalError {}

/// An open append-only journal: the record bodies recovered from disk
/// plus an append handle. Writes are serialized through an internal mutex
/// and numbered from 1 per handle; [`sync`](Self::sync) group-commits
/// them, so the file is consistent after a kill at any instant and every
/// synced record survives it.
#[derive(Debug)]
pub struct LineJournal {
    path: PathBuf,
    /// The write handle, held across one record's `write_all` only.
    file: Mutex<File>,
    /// A second handle on the same file: the group-commit leader fsyncs
    /// through it without holding `file`.
    sync_handle: File,
    /// Sequence number of the last record fully written: stored with
    /// `Release` after its `write_all` returns, so a leader's `Acquire`
    /// load covers only records already in the file.
    written: AtomicU64,
    commit: Mutex<Commit>,
    /// Signalled when a leader's fsync ends.
    committed: Condvar,
    /// Fsyncs issued by [`sync`](Self::sync).
    syncs: AtomicU64,
    /// The first write or fsync failure, as its error detail.
    poison: OnceLock<String>,
    header_len: u64,
    recovered: Vec<String>,
}

/// Group-commit state, under the journal's `commit` mutex.
#[derive(Debug, Default)]
struct Commit {
    /// Every record up to this sequence number is on disk.
    durable: u64,
    /// A leader's fsync is running.
    syncing: bool,
}

impl LineJournal {
    /// Opens (or creates) the journal at `path`, expecting the header
    /// `<magic> fp=<fingerprint>`.
    ///
    /// An existing file is recovered: the header must match (a mismatch
    /// is an error — appending to someone else's journal would silently
    /// mix incompatible records; a torn, newline-less header prefix is
    /// reset instead), every checksum-clean line's body is returned by
    /// [`recovered`](Self::recovered), and the file is truncated at the
    /// first torn or checksum-failing line.
    ///
    /// # Errors
    ///
    /// [`LineJournalError`] on I/O failure or header mismatch.
    pub fn open(path: &Path, magic: &str, fingerprint: u64) -> Result<Self, LineJournalError> {
        let err = |detail: String| LineJournalError {
            path: path.display().to_string(),
            detail,
        };
        let header = format!("{magic} fp={fingerprint:016x}\n");
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| err(format!("cannot open: {e}")))?;
        let mut contents = String::new();
        file.read_to_string(&mut contents)
            .map_err(|e| err(format!("cannot read: {e}")))?;

        let scan = scan(&contents, magic);
        if scan.fingerprint == Some(fingerprint) {
            // A torn final write loses one record, never the file.
            if scan.len < contents.len() as u64 {
                file.set_len(scan.len)
                    .map_err(|e| err(format!("cannot truncate recovered tail: {e}")))?;
            }
            file.seek(SeekFrom::End(0))
                .map_err(|e| err(format!("cannot seek: {e}")))?;
        } else if !contents.contains('\n') && header.starts_with(&contents) {
            // A new file, or a kill landed mid-header-write: nothing was
            // journaled yet, so (re)write the header rather than reject
            // the file as a different writer's.
            file.set_len(0)
                .map_err(|e| err(format!("cannot reset torn header: {e}")))?;
            file.seek(SeekFrom::Start(0))
                .map_err(|e| err(format!("cannot seek: {e}")))?;
            file.write_all(header.as_bytes())
                .map_err(|e| err(format!("cannot write header: {e}")))?;
            file.sync_data()
                .map_err(|e| err(format!("cannot sync: {e}")))?;
        } else {
            return Err(err(format!(
                "fingerprint mismatch (journal was written for a different \
                 configuration); expected header `{}`",
                header.trim_end()
            )));
        }
        let sync_handle = file
            .try_clone()
            .map_err(|e| err(format!("cannot clone handle: {e}")))?;
        Ok(LineJournal {
            path: path.to_path_buf(),
            file: Mutex::new(file),
            sync_handle,
            written: AtomicU64::new(0),
            commit: Mutex::new(Commit::default()),
            committed: Condvar::new(),
            syncs: AtomicU64::new(0),
            poison: OnceLock::new(),
            header_len: header.len() as u64,
            recovered: scan.bodies.iter().map(|body| body.to_string()).collect(),
        })
    }

    /// The record bodies recovered from disk at open, in file order, with
    /// checksum suffixes verified and stripped.
    pub fn recovered(&self) -> &[String] {
        &self.recovered
    }

    /// Where the journal lives.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Keeps only the first `keep` recovered records, truncating the file
    /// to match. Domain layers call this when a checksum-clean record
    /// fails semantic validation: everything from that record on is
    /// dropped, exactly as if the write had torn. A `keep` at or past the
    /// recovered count is a no-op.
    ///
    /// # Errors
    ///
    /// [`LineJournalError`] if the truncation itself fails.
    pub fn truncate_to(&mut self, keep: usize) -> Result<(), LineJournalError> {
        if keep >= self.recovered.len() {
            return Ok(());
        }
        let err = |detail: String| LineJournalError {
            path: self.path.display().to_string(),
            detail,
        };
        let len = self.header_len
            + self.recovered[..keep]
                .iter()
                .map(|body| body.len() as u64 + RECORD_OVERHEAD)
                .sum::<u64>();
        let file = self.file.get_mut().unwrap_or_else(|e| e.into_inner());
        file.set_len(len)
            .map_err(|e| err(format!("cannot truncate invalid tail: {e}")))?;
        file.seek(SeekFrom::End(0))
            .map_err(|e| err(format!("cannot seek: {e}")))?;
        self.recovered.truncate(keep);
        Ok(())
    }

    /// Sequence number of the last record written through this handle;
    /// 0 before the first.
    pub fn written(&self) -> u64 {
        self.written.load(Ordering::Acquire)
    }

    /// Fsyncs [`sync`](Self::sync) has issued through this handle. Records
    /// written divided by this is the mean group-commit batch.
    pub fn syncs(&self) -> u64 {
        self.syncs.load(Ordering::Relaxed)
    }

    /// Writes one record without syncing it and returns its sequence
    /// number. The checksum suffix is added here; `body` must be a single
    /// line.
    ///
    /// # Errors
    ///
    /// [`LineJournalError`] if `body` contains a newline, the write fails
    /// (which poisons the journal), or the journal is poisoned.
    pub fn write(&self, body: &str) -> Result<u64, LineJournalError> {
        if body.contains('\n') {
            return Err(self.err("record body must be a single line".to_string()));
        }
        let line = format!("{body} #{:016x}\n", fnv1a(body.as_bytes()));
        let mut file = self.file.lock().unwrap_or_else(|e| e.into_inner());
        self.check_poison()?;
        if let Err(e) = file.write_all(line.as_bytes()) {
            // Nothing may land after a torn fragment: recovery would
            // truncate there and drop it.
            return Err(self.poison(format!("cannot append: {e}")));
        }
        let seq = self.written.load(Ordering::Relaxed) + 1;
        self.written.store(seq, Ordering::Release);
        Ok(seq)
    }

    /// Returns once every record up to `seq` is durable. If another
    /// thread's fsync is running, waits for it; if that did not cover
    /// `seq`, or none was running, leads the next fsync, which covers
    /// every record written before it began. A `seq` past the last record
    /// written waits for that record.
    ///
    /// # Errors
    ///
    /// [`LineJournalError`] if the fsync fails (which poisons the
    /// journal), or if the journal is poisoned and `seq` is not yet
    /// durable.
    pub fn sync(&self, seq: u64) -> Result<(), LineJournalError> {
        let seq = seq.min(self.written());
        let mut commit = self.commit.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if commit.durable >= seq {
                return Ok(());
            }
            self.check_poison()?;
            if !commit.syncing {
                break;
            }
            commit = self
                .committed
                .wait(commit)
                .unwrap_or_else(|e| e.into_inner());
        }
        commit.syncing = true;
        drop(commit);
        let mark = self.written();
        let synced = self.sync_handle.sync_data();
        self.syncs.fetch_add(1, Ordering::Relaxed);
        let result = synced.map_err(|e| self.poison(format!("cannot sync: {e}")));
        let mut commit = self.commit.lock().unwrap_or_else(|e| e.into_inner());
        commit.syncing = false;
        if result.is_ok() {
            commit.durable = mark;
        }
        drop(commit);
        self.committed.notify_all();
        result
    }

    /// Writes one record and returns once it is durable:
    /// [`write`](Self::write), then [`sync`](Self::sync).
    ///
    /// # Errors
    ///
    /// As for [`write`](Self::write) and [`sync`](Self::sync).
    pub fn append(&self, body: &str) -> Result<(), LineJournalError> {
        let seq = self.write(body)?;
        self.sync(seq)
    }

    /// Poisons the journal with `detail` unless it already is, and returns
    /// the poisoning error.
    fn poison(&self, detail: String) -> LineJournalError {
        self.err(self.poison.get_or_init(|| detail).clone())
    }

    fn check_poison(&self) -> Result<(), LineJournalError> {
        match self.poison.get() {
            Some(detail) => Err(self.err(detail.clone())),
            None => Ok(()),
        }
    }

    fn err(&self, detail: String) -> LineJournalError {
        LineJournalError {
            path: self.path.display().to_string(),
            detail,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tempfile(name: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!("mpdp-ljnl-{}-{name}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn records_survive_reopen_and_torn_tails_truncate() {
        let path = tempfile("roundtrip");
        let j = LineJournal::open(&path, "TESTJ1", 7).expect("creates");
        assert!(j.recovered().is_empty());
        j.append("alpha 1").expect("appends");
        j.append("beta 2").expect("appends");
        drop(j);
        // Tear the tail mid-record.
        {
            let mut f = OpenOptions::new().append(true).open(&path).expect("open");
            f.write_all(b"gamma 3 #dead").expect("tear");
        }
        let j = LineJournal::open(&path, "TESTJ1", 7).expect("recovers");
        assert_eq!(j.recovered(), ["alpha 1", "beta 2"]);
        j.append("gamma 3").expect("appends after truncation");
        drop(j);
        let j = LineJournal::open(&path, "TESTJ1", 7).expect("reopens");
        assert_eq!(j.recovered(), ["alpha 1", "beta 2", "gamma 3"]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fingerprint_mismatch_is_rejected_but_torn_header_resets() {
        let path = tempfile("fp");
        drop(LineJournal::open(&path, "TESTJ1", 7).expect("creates"));
        let err = LineJournal::open(&path, "TESTJ1", 8).expect_err("different fingerprint");
        assert!(err.detail.contains("fingerprint mismatch"), "{err}");
        let _ = std::fs::remove_file(&path);
        std::fs::write(&path, "TESTJ1 fp=00").expect("torn header");
        let j = LineJournal::open(&path, "TESTJ1", 7).expect("torn header resets");
        assert!(j.recovered().is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncate_to_drops_a_semantically_bad_suffix() {
        let path = tempfile("semantic");
        let j = LineJournal::open(&path, "TESTJ1", 7).expect("creates");
        for body in ["good 1", "bad 2", "good 3"] {
            j.append(body).expect("appends");
        }
        drop(j);
        let mut j = LineJournal::open(&path, "TESTJ1", 7).expect("reopens");
        assert_eq!(j.recovered().len(), 3);
        // The domain layer deems record 1 invalid: keep only the prefix.
        j.truncate_to(1).expect("truncates");
        assert_eq!(j.recovered(), ["good 1"]);
        j.append("good 2").expect("appends after truncate");
        drop(j);
        let j = LineJournal::open(&path, "TESTJ1", 7).expect("reopens");
        assert_eq!(j.recovered(), ["good 1", "good 2"]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn one_fsync_covers_every_record_written_before_it() {
        let path = tempfile("group");
        let j = LineJournal::open(&path, "TESTJ1", 7).expect("creates");
        let r1 = j.write("r1").expect("writes");
        let r2 = j.write("r2").expect("writes");
        assert_eq!((r1, r2, j.written()), (1, 2, 2));
        j.sync(r1).expect("syncs");
        assert_eq!(j.syncs(), 1);
        j.sync(r2).expect("already durable");
        assert_eq!(j.syncs(), 1, "r2 rode r1's fsync");
        drop(j);
        let j = LineJournal::open(&path, "TESTJ1", 7).expect("reopens");
        assert_eq!(j.recovered(), ["r1", "r2"]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn multiline_bodies_are_refused() {
        let path = tempfile("multiline");
        let j = LineJournal::open(&path, "TESTJ1", 7).expect("creates");
        let err = j.append("two\nlines").expect_err("newline refused");
        assert!(err.detail.contains("single line"), "{err}");
        let _ = std::fs::remove_file(&path);
    }
}
