//! The generic crash-safe append-only line journal underneath
//! [`Journal`](crate::Journal) — extracted so other subsystems (the
//! `mpdpd` admission daemon's session journal) can reuse the exact
//! recovery discipline the sweep checkpoints proved out:
//!
//! - a header line `<MAGIC> fp=<16-hex fingerprint>` binding the file to
//!   one writer configuration; a mismatch is an error, a torn header (a
//!   kill mid-first-write) resets the file;
//! - one record per line, each carrying a ` #<16-hex FNV-1a>` checksum of
//!   its body, fsynced as written;
//! - on open, records are recovered in order and the file is truncated at
//!   the first torn or checksum-failing line — a crash loses at most the
//!   record being written, never the file.
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
use std::sync::Mutex;

use mpdp_core::hash::fnv1a;

/// Bytes a record line adds to its body: ` #`, 16 hex digits, newline.
const RECORD_OVERHEAD: u64 = 19;

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
/// plus an append handle. Appends are serialized through an internal
/// mutex and fsynced one by one, so the file is consistent after a kill
/// at any instant.
#[derive(Debug)]
pub struct LineJournal {
    path: PathBuf,
    file: Mutex<File>,
    header_len: u64,
    recovered: Vec<String>,
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
        Ok(LineJournal {
            path: path.to_path_buf(),
            file: Mutex::new(file),
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

    /// Appends one record and fsyncs. The checksum suffix is added here;
    /// `body` must be a single line.
    ///
    /// # Errors
    ///
    /// [`LineJournalError`] if `body` contains a newline or I/O fails.
    pub fn append(&self, body: &str) -> Result<(), LineJournalError> {
        let err = |detail: String| LineJournalError {
            path: self.path.display().to_string(),
            detail,
        };
        if body.contains('\n') {
            return Err(err("record body must be a single line".to_string()));
        }
        let line = format!("{body} #{:016x}\n", fnv1a(body.as_bytes()));
        let mut file = self.file.lock().unwrap_or_else(|e| e.into_inner());
        file.write_all(line.as_bytes())
            .map_err(|e| err(format!("cannot append: {e}")))?;
        file.sync_data()
            .map_err(|e| err(format!("cannot sync: {e}")))
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
    fn multiline_bodies_are_refused() {
        let path = tempfile("multiline");
        let j = LineJournal::open(&path, "TESTJ1", 7).expect("creates");
        let err = j.append("two\nlines").expect_err("newline refused");
        assert!(err.detail.contains("single line"), "{err}");
        let _ = std::fs::remove_file(&path);
    }
}
