//! Crash-safe checkpoint journal for interrupted sweeps.
//!
//! The journal is an append-only text file: a header binding it to one
//! [`SweepSpec`], then one record per completed cell, fsynced as written.
//! On open, the file is recovered: the header's spec fingerprint must
//! match, records are parsed in order, and the file is truncated at the
//! first malformed record (a torn final write from a crash loses at most
//! that one cell). Each record is keyed by the cell's RNG stream id, so a
//! record can never be replayed against a spec that would have simulated
//! different inputs.
//!
//! # Format
//!
//! ```text
//! MPDPJ1 fp=<16-hex canonical spec fingerprint>
//! cell <index> <16-hex stream> <0|1 schedulable> <theoretical> <real> #<16-hex FNV-1a of the line body>
//! ```
//!
//! Each stack serializes as
//! `<hard>:<missed>:<samples…>;<hard>:<missed>:<samples…>;<switches>;<passes>;<words>;<survival…>`
//! (aperiodic accumulator, periodic accumulator, kernel counters, the 13
//! survival fields comma-joined with `-` for absent instants). Samples are
//! raw cycles, comma-joined, in observation order — the accumulator
//! round-trips bit for bit, which is what makes a resumed sweep's exports
//! byte-identical to an uninterrupted run's.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

use mpdp_core::time::Cycles;
use mpdp_sim::stats::{ResponseAccumulator, SurvivalStats};

use crate::engine::{CellResult, StackResult};
use crate::error::SweepError;
use crate::fingerprint::spec_fingerprint;
use crate::linejournal::{scan, scan_records, LineJournal, LineJournalError};
use crate::spec::SweepSpec;

/// Magic + version tag of the journal header line.
pub(crate) const MAGIC: &str = "MPDPJ1";

/// An open checkpoint journal: the records recovered from disk plus an
/// append handle. Appends are serialized through an internal mutex and
/// durable on return (workers appending at once may share one fsync), so
/// the file is consistent after a kill at any instant.
///
/// The file mechanics (header binding, per-record checksums, torn-tail
/// truncation, group commit) live in the generic [`LineJournal`];
/// this type adds the sweep-domain record format and its semantic
/// validation against the [`SweepSpec`].
#[derive(Debug)]
pub struct Journal {
    inner: LineJournal,
    recovered: BTreeMap<usize, CellResult>,
}

impl Journal {
    /// Opens (or creates) the journal at `path` for `spec`.
    ///
    /// An existing file is recovered: the header fingerprint must match
    /// `spec` (a mismatch is an error — resuming someone else's sweep
    /// would silently mix incompatible results), every well-formed record
    /// whose stream id matches the spec's derivation is returned in
    /// [`recovered`](Self::recovered), and the file is truncated at the
    /// first malformed or mismatched record.
    ///
    /// # Errors
    ///
    /// [`SweepError::Journal`] on I/O failure or fingerprint mismatch.
    pub fn open(path: &Path, spec: &SweepSpec) -> Result<Self, SweepError> {
        let mut inner =
            LineJournal::open(path, MAGIC, spec_fingerprint(spec)).map_err(journal_err)?;
        // Validate recovered bodies domain-side until the first record
        // that does not parse against the spec, then truncate there:
        // checksum-clean garbage is dropped exactly like a torn write.
        // Cells are enumerated once up front: record validation is then
        // O(1) per record instead of O(grid) per record.
        let cells = spec.cells();
        let mut recovered = BTreeMap::new();
        let mut good = 0usize;
        for body in inner.recovered() {
            match parse_record_body(body, spec, &cells) {
                Some((index, result)) => {
                    recovered.insert(index, result);
                    good += 1;
                }
                None => break,
            }
        }
        inner.truncate_to(good).map_err(journal_err)?;
        Ok(Journal { inner, recovered })
    }

    /// The records recovered from disk at open, keyed by cell index.
    pub fn recovered(&self) -> &BTreeMap<usize, CellResult> {
        &self.recovered
    }

    /// Where the journal lives.
    pub fn path(&self) -> &Path {
        self.inner.path()
    }

    /// Appends one completed cell and fsyncs. `stream` must be the cell's
    /// [`SweepSpec::cell_stream`] id — it is what lets a later open refuse
    /// records that no longer match the spec.
    ///
    /// # Errors
    ///
    /// [`SweepError::Journal`] on I/O failure.
    pub fn append(&self, stream: u64, result: &CellResult) -> Result<(), SweepError> {
        self.inner
            .append(&format_record_body(stream, result))
            .map_err(|e| SweepError::Journal {
                path: e.path,
                detail: format!("cell {}: {}", result.cell.index, e.detail),
            })
    }
}

/// A read-only count of the records in a journal file that another
/// process is appending to — how a supervisor follows a worker's progress
/// without opening (and so truncating) its journal. Each
/// [`count`](Self::count) reads only the bytes appended since the last,
/// so following a journal to the end reads it once, not once per record.
#[derive(Debug)]
pub struct JournalTail {
    path: PathBuf,
    fingerprint: u64,
    /// Byte length of the verified prefix counted so far; zero until a
    /// header for the spec has been read.
    verified: u64,
    records: usize,
}

impl JournalTail {
    /// Follows the journal at `path`, written for `spec`.
    pub fn new(path: &Path, spec: &SweepSpec) -> Self {
        JournalTail {
            path: path.to_path_buf(),
            fingerprint: spec_fingerprint(spec),
            verified: 0,
            records: 0,
        }
    }

    /// The checksum-verified records now in the file, under a header for
    /// the spec — the records recovery would keep from a journal its
    /// workers wrote. A missing or unreadable file, or another spec's
    /// journal, counts zero. A file shorter than the prefix already
    /// counted (recovery truncated it) is counted afresh.
    pub fn count(&mut self) -> usize {
        let mut text = String::new();
        let read = File::open(&self.path).and_then(|mut file| {
            if file.metadata()?.len() < self.verified {
                (self.verified, self.records) = (0, 0);
            }
            file.seek(SeekFrom::Start(self.verified))?;
            file.read_to_string(&mut text)
        });
        if read.is_err() {
            (self.verified, self.records) = (0, 0);
        } else if self.verified == 0 {
            let scan = scan(&text, MAGIC);
            if scan.fingerprint == Some(self.fingerprint) {
                (self.verified, self.records) = (scan.len, scan.bodies.len());
            }
        } else {
            let (bodies, len) = scan_records(&text);
            self.verified += len;
            self.records += bodies.len();
        }
        self.records
    }
}

/// Maps the generic journal error into the sweep error taxonomy.
fn journal_err(e: LineJournalError) -> SweepError {
    SweepError::Journal {
        path: e.path,
        detail: e.detail,
    }
}

fn format_accumulator(acc: &ResponseAccumulator) -> String {
    let samples: Vec<String> = acc.samples().iter().map(u64::to_string).collect();
    format!(
        "{}:{}:{}",
        acc.hard_count(),
        acc.misses(),
        samples.join(",")
    )
}

fn parse_accumulator(field: &str) -> Option<ResponseAccumulator> {
    let mut parts = field.splitn(3, ':');
    let hard: usize = parts.next()?.parse().ok()?;
    let missed: usize = parts.next()?.parse().ok()?;
    let raw = parts.next()?;
    let samples = if raw.is_empty() {
        Vec::new()
    } else {
        raw.split(',')
            .map(|s| s.parse().ok())
            .collect::<Option<Vec<u64>>>()?
    };
    Some(ResponseAccumulator::from_parts(samples, hard, missed))
}

fn opt_cycles_str(c: Option<Cycles>) -> String {
    c.map_or_else(|| "-".to_string(), |c| c.as_u64().to_string())
}

fn parse_opt_cycles(s: &str) -> Option<Option<Cycles>> {
    if s == "-" {
        Some(None)
    } else {
        s.parse().ok().map(|v| Some(Cycles::new(v)))
    }
}

fn format_survival(sv: &SurvivalStats) -> String {
    let failed = sv
        .failed_proc
        .map_or_else(|| "-".to_string(), |p| p.to_string());
    format!(
        "{},{},{},{},{},{},{},{},{},{},{},{},{}",
        sv.miss_events,
        opt_cycles_str(sv.first_miss),
        sv.overruns,
        sv.kills,
        sv.demotions,
        sv.shed,
        sv.lost_irqs,
        sv.spurious_irqs,
        failed,
        opt_cycles_str(sv.fail_at),
        opt_cycles_str(sv.recovery_at),
        sv.guaranteed_tasks,
        sv.total_tasks
    )
}

fn parse_survival(field: &str) -> Option<SurvivalStats> {
    let parts: Vec<&str> = field.split(',').collect();
    let [me, fm, ov, ki, de, sh, li, si, fp, fa, ra, gt, tt] = parts.as_slice() else {
        return None;
    };
    Some(SurvivalStats {
        miss_events: me.parse().ok()?,
        first_miss: parse_opt_cycles(fm)?,
        overruns: ov.parse().ok()?,
        kills: ki.parse().ok()?,
        demotions: de.parse().ok()?,
        shed: sh.parse().ok()?,
        lost_irqs: li.parse().ok()?,
        spurious_irqs: si.parse().ok()?,
        failed_proc: if *fp == "-" {
            None
        } else {
            Some(fp.parse().ok()?)
        },
        fail_at: parse_opt_cycles(fa)?,
        recovery_at: parse_opt_cycles(ra)?,
        guaranteed_tasks: gt.parse().ok()?,
        total_tasks: tt.parse().ok()?,
    })
}

pub(crate) fn format_stack(s: &StackResult) -> String {
    format!(
        "{};{};{};{};{};{}",
        format_accumulator(&s.aperiodic),
        format_accumulator(&s.periodic),
        s.switches,
        s.sched_passes,
        s.context_words,
        format_survival(&s.survival)
    )
}

pub(crate) fn parse_stack(field: &str) -> Option<StackResult> {
    let parts: Vec<&str> = field.split(';').collect();
    let [ap, pe, sw, sp, cw, sv] = parts.as_slice() else {
        return None;
    };
    Some(StackResult {
        aperiodic: parse_accumulator(ap)?,
        periodic: parse_accumulator(pe)?,
        switches: sw.parse().ok()?,
        sched_passes: sp.parse().ok()?,
        context_words: cw.parse().ok()?,
        survival: parse_survival(sv)?,
    })
}

/// The record body (no checksum suffix, no newline) for one completed
/// cell; [`LineJournal::append`] adds the checksum.
fn format_record_body(stream: u64, result: &CellResult) -> String {
    format!(
        "cell {} {stream:016x} {} {} {}",
        result.cell.index,
        u8::from(result.schedulable),
        format_stack(&result.theoretical),
        format_stack(&result.real)
    )
}

/// Parses one checksum-verified record body against a pre-enumerated cell
/// list — the domain half of record validation. Returns `None` for any
/// malformed or spec-mismatched record; the caller truncates (or stops
/// reading) there.
pub(crate) fn parse_record_body(
    body: &str,
    spec: &SweepSpec,
    cells: &[crate::spec::CellSpec],
) -> Option<(usize, CellResult)> {
    let mut tokens = body.split(' ');
    if tokens.next()? != "cell" {
        return None;
    }
    let index: usize = tokens.next()?.parse().ok()?;
    let stream = u64::from_str_radix(tokens.next()?, 16).ok()?;
    let schedulable = match tokens.next()? {
        "0" => false,
        "1" => true,
        _ => return None,
    };
    let theoretical = parse_stack(tokens.next()?)?;
    let real = parse_stack(tokens.next()?)?;
    if tokens.next().is_some() {
        return None;
    }
    // Re-derive the cell from the spec and refuse records whose stream id
    // no longer matches — the spec must be byte-for-byte the one that
    // wrote the journal (the header fingerprint already guarantees this;
    // the per-record check catches hand-edited or spliced files).
    let cell = *cells.get(index)?;
    if spec.cell_stream(&cell) != stream {
        return None;
    }
    Some((
        index,
        CellResult {
            cell,
            knob_label: spec.knobs[cell.knob_index].label.clone(),
            schedulable,
            theoretical,
            real,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_cell;
    use crate::spec::{ArrivalSpec, Knobs, WorkloadSpec};
    use std::fs::OpenOptions;
    use std::io::Write;
    use std::path::PathBuf;

    fn tiny_spec() -> SweepSpec {
        SweepSpec {
            utilizations: vec![0.4],
            proc_counts: vec![2],
            seeds: vec![0, 1],
            knobs: vec![Knobs::default()],
            workload: WorkloadSpec::Automotive,
            arrivals: ArrivalSpec::Bursts {
                activations: 1,
                gap: Cycles::from_secs(12),
            },
            master_seed: 42,
        }
    }

    fn tempfile(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mpdp-journal-{}-{name}", std::process::id()));
        let _ = std::fs::remove_file(&dir);
        dir
    }

    #[test]
    fn record_round_trips_bit_for_bit() {
        let spec = tiny_spec();
        let cells = spec.cells();
        let result = run_cell(&spec, &cells[0]).expect("cell runs");
        let stream = spec.cell_stream(&cells[0]);
        let body = format_record_body(stream, &result);
        let (index, parsed) = parse_record_body(&body, &spec, &cells).expect("parses");
        assert_eq!(index, 0);
        assert_eq!(parsed, result);
    }

    #[test]
    fn torn_header_resets_instead_of_rejecting() {
        let spec = tiny_spec();
        let cells = spec.cells();
        let path = tempfile("torn-header");
        // A kill mid-header-write leaves a newline-less header prefix.
        let header = format!("{MAGIC} fp={:016x}", spec_fingerprint(&spec));
        std::fs::write(&path, &header[..4]).expect("tear header");
        let journal = Journal::open(&path, &spec).expect("recovers from a torn header");
        assert!(journal.recovered().is_empty());
        let result = run_cell(&spec, &cells[0]).expect("cell runs");
        journal
            .append(spec.cell_stream(&cells[0]), &result)
            .expect("appends after reset");
        drop(journal);
        let journal = Journal::open(&path, &spec).expect("reopens");
        assert_eq!(journal.recovered().len(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn journal_recovers_appends_and_truncates_torn_tail() {
        let spec = tiny_spec();
        let cells = spec.cells();
        let path = tempfile("recover");
        let results: Vec<CellResult> = cells
            .iter()
            .map(|c| run_cell(&spec, c).expect("cell runs"))
            .collect();

        let journal = Journal::open(&path, &spec).expect("creates");
        assert!(journal.recovered().is_empty());
        journal
            .append(spec.cell_stream(&cells[0]), &results[0])
            .expect("appends");
        drop(journal);

        // Simulate a crash mid-append: a torn, newline-less partial record.
        {
            let mut f = OpenOptions::new().append(true).open(&path).expect("open");
            f.write_all(b"cell 1 deadbeef").expect("tear");
        }
        let len_torn = std::fs::metadata(&path).expect("stat").len();
        let journal = Journal::open(&path, &spec).expect("recovers");
        assert_eq!(journal.recovered().len(), 1);
        assert_eq!(journal.recovered()[&0], results[0]);
        assert!(std::fs::metadata(&path).expect("stat").len() < len_torn);

        // The recovered handle appends cleanly after the truncation.
        journal
            .append(spec.cell_stream(&cells[1]), &results[1])
            .expect("appends after recovery");
        drop(journal);
        let journal = Journal::open(&path, &spec).expect("reopens");
        assert_eq!(journal.recovered().len(), 2);
        assert_eq!(journal.recovered()[&1], results[1]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn journal_refuses_a_different_spec() {
        let spec = tiny_spec();
        let path = tempfile("fingerprint");
        drop(Journal::open(&path, &spec).expect("creates"));
        let mut other = tiny_spec();
        other.master_seed = 7;
        match Journal::open(&path, &other) {
            Err(SweepError::Journal { detail, .. }) => {
                assert!(detail.contains("fingerprint mismatch"), "{detail}");
            }
            other => panic!("expected fingerprint rejection, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupted_record_is_dropped_not_fatal() {
        let spec = tiny_spec();
        let cells = spec.cells();
        let path = tempfile("corrupt");
        let result = run_cell(&spec, &cells[0]).expect("cell runs");
        let journal = Journal::open(&path, &spec).expect("creates");
        journal
            .append(spec.cell_stream(&cells[0]), &result)
            .expect("appends");
        drop(journal);

        // Flip one byte inside the record body: the checksum must catch it.
        let mut contents = std::fs::read_to_string(&path).expect("read");
        let flip = contents.len() - 30;
        // A digit is always safe to flip to a different digit.
        let original = contents.as_bytes()[flip];
        let replacement = if original == b'7' { b'8' } else { b'7' };
        contents.replace_range(flip..flip + 1, std::str::from_utf8(&[replacement]).unwrap());
        std::fs::write(&path, &contents).expect("write");

        let journal = Journal::open(&path, &spec).expect("recovers");
        assert!(journal.recovered().is_empty(), "corrupt record must drop");
        let _ = std::fs::remove_file(&path);
    }
}
