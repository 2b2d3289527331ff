//! Byte-exact merge of shard journals into one [`SweepReport`].
//!
//! A sharded sweep writes one checkpoint [`Journal`](crate::Journal) per
//! worker process, each holding a disjoint subset of the grid's cells.
//! Because every cell result is a pure function of `(spec, cell index)`
//! and the exports fold cells in index order, recombining the journals
//! reproduces **the same bytes** a single-process
//! [`run_sweep`](crate::run_sweep) exports — at any shard count, after any
//! crash/retry history.
//!
//! The merge refuses to combine inputs that do not describe one and the
//! same sweep: every journal's header fingerprint must match the **full**
//! `SweepSpec` (not just the cell coordinates — knobs, fault plans, seeds,
//! everything that shapes a cell's inputs is covered by the fingerprint),
//! no cell may appear twice (within a journal or across journals), and the
//! union of the journals must cover the whole grid. Each rejection is a
//! typed [`MergeError`] — never a silent partial combine.
//!
//! Torn tails follow the journal's recovery semantics: a truncated or
//! corrupt final record stops the read there, and the lost cell then
//! surfaces as [`MergeError::MissingCells`] instead of corrupt output.

use std::error::Error;
use std::fmt;
use std::path::{Path, PathBuf};
use std::time::Duration;

use crate::engine::{CellResult, SweepReport};
use crate::fingerprint::spec_fingerprint;
use crate::journal::{parse_record_body, MAGIC};
use crate::linejournal::scan;
use crate::spec::SweepSpec;

/// Why shard journals could not be merged.
#[derive(Debug, Clone, PartialEq)]
pub enum MergeError {
    /// The spec itself failed validation (propagated before any file is
    /// read).
    Spec(crate::error::SweepError),
    /// No journal paths were given.
    NoInputs,
    /// A journal file could not be read.
    Io {
        /// Path of the unreadable journal.
        path: String,
        /// The I/O diagnosis.
        detail: String,
    },
    /// A file's first line is not a journal header (wrong file, or a crash
    /// tore the header before the first fsync).
    NotAJournal {
        /// Path of the rejected file.
        path: String,
    },
    /// A journal was written for a different sweep: its header fingerprint
    /// does not match the full spec's.
    WrongSpec {
        /// Path of the mismatched journal.
        path: String,
        /// Fingerprint of the spec being merged.
        expected: u64,
        /// Fingerprint the journal header carries.
        found: u64,
    },
    /// One journal contains the same cell twice (shard executors never
    /// append a recovered cell again, so this indicates a spliced or
    /// hand-edited file).
    DuplicateCell {
        /// Path of the offending journal.
        path: String,
        /// The duplicated cell index.
        cell: usize,
    },
    /// Two journals both claim the same cell — the shard plan was not
    /// disjoint.
    OverlappingShards {
        /// The doubly-claimed cell index.
        cell: usize,
        /// Journal that claimed the cell first.
        first: String,
        /// Journal that claimed it again.
        second: String,
    },
    /// The union of the journals does not cover the grid.
    MissingCells {
        /// Number of uncovered cells.
        missing: usize,
        /// Lowest uncovered cell index.
        first: usize,
        /// Total cells in the grid.
        total: usize,
    },
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::Spec(source) => write!(f, "invalid sweep spec: {source}"),
            MergeError::NoInputs => write!(f, "no shard journals to merge"),
            MergeError::Io { path, detail } => write!(f, "shard journal {path}: {detail}"),
            MergeError::NotAJournal { path } => {
                write!(f, "{path} is not a sweep journal (no valid header line)")
            }
            MergeError::WrongSpec {
                path,
                expected,
                found,
            } => write!(
                f,
                "{path} was written for a different sweep \
                 (spec fingerprint {found:016x}, expected {expected:016x})"
            ),
            MergeError::DuplicateCell { path, cell } => {
                write!(f, "{path} contains cell {cell} more than once")
            }
            MergeError::OverlappingShards {
                cell,
                first,
                second,
            } => write!(
                f,
                "shards overlap: cell {cell} appears in both {first} and {second}"
            ),
            MergeError::MissingCells {
                missing,
                first,
                total,
            } => write!(
                f,
                "merged journals cover {} of {total} cells \
                 ({missing} missing, first missing cell {first})",
                total - missing
            ),
        }
    }
}

impl Error for MergeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            MergeError::Spec(source) => Some(source),
            _ => None,
        }
    }
}

/// Reads one shard journal for `spec`, returning its records in file
/// order. Tolerates a torn tail (the read stops at the first malformed
/// record, exactly like [`Journal::open`](crate::Journal::open) recovery);
/// rejects a wrong-spec header or an in-file duplicate cell.
///
/// # Errors
///
/// [`MergeError::Io`], [`MergeError::NotAJournal`],
/// [`MergeError::WrongSpec`], or [`MergeError::DuplicateCell`].
pub fn read_shard_journal(
    path: &Path,
    spec: &SweepSpec,
) -> Result<Vec<(usize, CellResult)>, MergeError> {
    let name = path.display().to_string();
    let contents = std::fs::read_to_string(path).map_err(|e| MergeError::Io {
        path: name.clone(),
        detail: e.to_string(),
    })?;
    // A missing or torn header (no newline) is not a readable journal.
    let scan = scan(&contents, MAGIC);
    let Some(found) = scan.fingerprint else {
        return Err(MergeError::NotAJournal { path: name });
    };
    let expected = spec_fingerprint(spec);
    if found != expected {
        return Err(MergeError::WrongSpec {
            path: name,
            expected,
            found,
        });
    }
    let cells = spec.cells();
    let mut seen = vec![false; cells.len()];
    let mut out = Vec::new();
    for body in scan.bodies {
        // A torn or checksum-failing line already ended the scan; a
        // record that does not parse against the spec ends it too, as
        // journal recovery would. A lost cell surfaces as MissingCells.
        let Some((index, result)) = parse_record_body(body, spec, &cells) else {
            break;
        };
        if seen[index] {
            return Err(MergeError::DuplicateCell {
                path: name,
                cell: index,
            });
        }
        seen[index] = true;
        out.push((index, result));
    }
    Ok(out)
}

/// Merges the shard journals at `paths` into one [`SweepReport`] whose
/// exports ([`cells_csv`](crate::cells_csv), [`summary_csv`](crate::summary_csv),
/// [`report_json`](crate::report_json)) are byte-identical to a
/// single-process [`run_sweep`](crate::run_sweep) of the same spec.
///
/// Input order is irrelevant: cells are reassembled by index. Run
/// metadata (`workers`, `wall`, `profiles`) is not recoverable from
/// journals and is set to the journal count / zero / empty — none of it
/// is ever exported.
///
/// # Errors
///
/// Any [`MergeError`]; see the module docs for the invariants enforced.
pub fn merge_journal_files(spec: &SweepSpec, paths: &[PathBuf]) -> Result<SweepReport, MergeError> {
    spec.validate().map_err(MergeError::Spec)?;
    if paths.is_empty() {
        return Err(MergeError::NoInputs);
    }
    let total = spec.cell_count();
    let mut slots: Vec<Option<CellResult>> = Vec::new();
    slots.resize_with(total, || None);
    let mut owner: Vec<Option<usize>> = vec![None; total];
    for (p, path) in paths.iter().enumerate() {
        for (index, result) in read_shard_journal(path, spec)? {
            if let Some(prior) = owner[index] {
                return Err(MergeError::OverlappingShards {
                    cell: index,
                    first: paths[prior].display().to_string(),
                    second: path.display().to_string(),
                });
            }
            owner[index] = Some(p);
            slots[index] = Some(result);
        }
    }
    let missing = slots.iter().filter(|s| s.is_none()).count();
    if missing > 0 {
        let first = slots.iter().position(Option::is_none).unwrap_or(0);
        return Err(MergeError::MissingCells {
            missing,
            first,
            total,
        });
    }
    Ok(SweepReport {
        cells: slots
            .into_iter()
            .map(|s| s.expect("checked above"))
            .collect(),
        faulted: spec.is_faulted(),
        workers: paths.len(),
        wall: Duration::ZERO,
        profiles: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_cell;
    use crate::journal::Journal;
    use crate::report::{cells_csv, report_json, summary_csv};
    use crate::shard::plan_shards;
    use crate::spec::{ArrivalSpec, Knobs, WorkloadSpec};
    use mpdp_core::time::Cycles;

    fn tiny_spec() -> SweepSpec {
        SweepSpec {
            utilizations: vec![0.4],
            proc_counts: vec![2],
            seeds: vec![0, 1, 2, 3],
            knobs: vec![Knobs::default()],
            workload: WorkloadSpec::Automotive,
            arrivals: ArrivalSpec::Bursts {
                activations: 1,
                gap: Cycles::from_secs(12),
            },
            master_seed: 42,
        }
    }

    fn tempdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mpdp-merge-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    /// Writes the cells of `range` into a journal at `path`.
    fn write_shard(path: &Path, spec: &SweepSpec, range: std::ops::Range<usize>) {
        let cells = spec.cells();
        let journal = Journal::open(path, spec).expect("creates journal");
        for index in range {
            let result = run_cell(spec, &cells[index]).expect("cell runs");
            journal
                .append(spec.cell_stream(&cells[index]), &result)
                .expect("appends");
        }
    }

    #[test]
    fn sharded_merge_is_byte_identical_to_a_single_process_run() {
        let spec = tiny_spec();
        let dir = tempdir("roundtrip");
        let golden = crate::run_sweep(&spec, 1).expect("golden run");
        for shards in [1usize, 2, 3, 4] {
            let paths: Vec<PathBuf> = plan_shards(spec.cell_count(), shards)
                .iter()
                .map(|plan| {
                    let path = dir.join(format!("s{shards}-{}.mpdpj", plan.index));
                    write_shard(&path, &spec, plan.range());
                    path
                })
                .collect();
            // Merge in reverse order: input order must not matter.
            let reversed: Vec<PathBuf> = paths.iter().rev().cloned().collect();
            let merged = merge_journal_files(&spec, &reversed).expect("merges");
            assert_eq!(cells_csv(&golden), cells_csv(&merged), "{shards} shards");
            assert_eq!(summary_csv(&golden), summary_csv(&merged));
            assert_eq!(report_json(&golden), report_json(&merged));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_rejects_a_wrong_spec_journal() {
        let spec = tiny_spec();
        let dir = tempdir("wrong-spec");
        let path = dir.join("shard.mpdpj");
        write_shard(&path, &spec, 0..spec.cell_count());
        // Any spec edit — here the master seed — changes the fingerprint.
        let mut other = tiny_spec();
        other.master_seed = 7;
        match merge_journal_files(&other, std::slice::from_ref(&path)) {
            Err(MergeError::WrongSpec {
                expected, found, ..
            }) => {
                assert_eq!(expected, spec_fingerprint(&other));
                assert_eq!(found, spec_fingerprint(&spec));
            }
            other => panic!("expected WrongSpec, got {other:?}"),
        }
        // A knob-only edit (same cell coordinates!) is also a different
        // sweep: the fingerprint covers the full spec.
        let mut reknobbed = tiny_spec();
        reknobbed.knobs = vec![Knobs::named("paper").with_wcet_margin(1.3)];
        assert!(matches!(
            merge_journal_files(&reknobbed, &[path]),
            Err(MergeError::WrongSpec { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_rejects_overlapping_shards() {
        let spec = tiny_spec();
        let dir = tempdir("overlap");
        let a = dir.join("a.mpdpj");
        let b = dir.join("b.mpdpj");
        write_shard(&a, &spec, 0..3);
        write_shard(&b, &spec, 2..4); // cell 2 claimed twice
        match merge_journal_files(&spec, &[a.clone(), b.clone()]) {
            Err(MergeError::OverlappingShards {
                cell,
                first,
                second,
            }) => {
                assert_eq!(cell, 2);
                assert_eq!(first, a.display().to_string());
                assert_eq!(second, b.display().to_string());
            }
            other => panic!("expected OverlappingShards, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_rejects_missing_cells() {
        let spec = tiny_spec();
        let dir = tempdir("missing");
        let a = dir.join("a.mpdpj");
        write_shard(&a, &spec, 0..2);
        let b = dir.join("b.mpdpj");
        write_shard(&b, &spec, 3..4); // cell 2 never journaled
        match merge_journal_files(&spec, &[a, b]) {
            Err(MergeError::MissingCells {
                missing,
                first,
                total,
            }) => {
                assert_eq!((missing, first, total), (1, 2, 4));
            }
            other => panic!("expected MissingCells, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_rejects_a_duplicate_cell_within_one_journal() {
        let spec = tiny_spec();
        let cells = spec.cells();
        let dir = tempdir("duplicate");
        let path = dir.join("dup.mpdpj");
        let journal = Journal::open(&path, &spec).expect("creates");
        let result = run_cell(&spec, &cells[1]).expect("cell runs");
        journal
            .append(spec.cell_stream(&cells[1]), &result)
            .expect("appends");
        journal
            .append(spec.cell_stream(&cells[1]), &result)
            .expect("appends again");
        drop(journal);
        match merge_journal_files(&spec, &[path]) {
            Err(MergeError::DuplicateCell { cell, .. }) => assert_eq!(cell, 1),
            other => panic!("expected DuplicateCell, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_rejects_non_journals_missing_files_and_empty_input() {
        let spec = tiny_spec();
        let dir = tempdir("notajournal");
        assert!(matches!(
            merge_journal_files(&spec, &[]),
            Err(MergeError::NoInputs)
        ));
        let absent = dir.join("absent.mpdpj");
        assert!(matches!(
            merge_journal_files(&spec, &[absent]),
            Err(MergeError::Io { .. })
        ));
        let garbage = dir.join("garbage.mpdpj");
        std::fs::write(&garbage, "not a journal\n").expect("write");
        assert!(matches!(
            merge_journal_files(&spec, &[garbage]),
            Err(MergeError::NotAJournal { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_tolerates_a_torn_tail_as_missing_cells() {
        let spec = tiny_spec();
        let dir = tempdir("torn");
        let path = dir.join("torn.mpdpj");
        write_shard(&path, &spec, 0..spec.cell_count());
        // Tear the last record mid-write: the merge must not invent data —
        // the lost cell is reported missing, the intact prefix is usable.
        let bytes = std::fs::read(&path).expect("read");
        std::fs::write(&path, &bytes[..bytes.len() - 9]).expect("tear");
        match merge_journal_files(&spec, &[path]) {
            Err(MergeError::MissingCells { missing, first, .. }) => {
                assert_eq!((missing, first), (1, 3));
            }
            other => panic!("expected MissingCells, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_stops_where_journal_recovery_stops() {
        // Find a real record whose checksum starts with a zero digit.
        let mut spec = tiny_spec();
        spec.seeds = (0..32).collect();
        let dir = tempdir("short-checksum");
        let path = dir.join("shard.mpdpj");
        write_shard(&path, &spec, 0..spec.cell_count());
        let contents = std::fs::read_to_string(&path).expect("read journal");
        let at = contents
            .find(" #0")
            .expect("a checksum with a leading zero")
            + 2;
        let zeros = contents[at..].bytes().take_while(|&b| b == b'0').count();
        // Strip the zeros: the value is unchanged, the 16-digit form is not.
        let mut short = contents.clone();
        short.replace_range(at..at + zeros, "");
        std::fs::write(&path, &short).expect("write journal");

        let merged: Vec<usize> = read_shard_journal(&path, &spec)
            .expect("reads")
            .into_iter()
            .map(|(index, _)| index)
            .collect();
        let recovered: Vec<usize> = Journal::open(&path, &spec)
            .expect("recovers")
            .recovered()
            .keys()
            .copied()
            .collect();
        assert_eq!(merged, recovered);
        assert!(
            recovered.len() < spec.cell_count(),
            "the short record is dropped"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_propagates_spec_validation() {
        let mut spec = tiny_spec();
        spec.seeds.clear();
        assert!(matches!(
            merge_journal_files(&spec, &[PathBuf::from("x")]),
            Err(MergeError::Spec(_))
        ));
    }
}
