//! Property gate for torn-tail recovery at the exact record boundary.
//!
//! Both durable line formats — the sweep checkpoint journal (`MPDPJ1`)
//! and the cell-cache segment (`MPDPC1`) — end every record with a
//! ` #<16-hex FNV-1a>` trailer and a newline, and recover a crash by
//! truncating at the first malformed line. The subtle cuts are the ones
//! landing *on* that boundary: one byte into the newline, anywhere
//! inside the 16-hex checksum, or exactly at the `#`. A cut there leaves
//! a line that is almost — but not quite — a record, and an off-by-one
//! in the recovery scan would either accept a half-checksummed record
//! (corrupt data survives) or reject the intact previous record (a
//! durably completed cell is lost). This test sweeps every cut position
//! across the whole final record, newline and checksum included, and
//! pins the invariant: the torn record is dropped, every earlier record
//! survives, recovery is idempotent, and the file accepts new appends.

use std::path::PathBuf;
use std::sync::OnceLock;

use proptest::prelude::*;

use mpdp_core::time::Cycles;
use mpdp_sweep::{
    read_shard_journal, run_cell, ArrivalSpec, CellCache, Journal, JournalTail, SweepSpec,
};

fn spec() -> SweepSpec {
    let mut spec = SweepSpec::figure4();
    spec.proc_counts = vec![2];
    spec.utilizations = vec![0.4];
    spec.seeds = vec![0, 1, 2];
    spec
}

fn tempdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mpdp-prop-tears-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Pristine bytes of a 3-record artifact plus the byte offset where its
/// final record's line starts. Built once — the cells are real runs, and
/// proptest replays the tear many times over the same bytes.
struct Pristine {
    text: String,
    last_line_start: usize,
    records: usize,
}

impl Pristine {
    fn from_file(path: &std::path::Path, records: usize) -> Self {
        let text = std::fs::read_to_string(path).expect("pristine artifact reads");
        assert_eq!(text.lines().count(), records + 1, "header + records");
        let last_line_start = text[..text.len() - 1]
            .rfind('\n')
            .expect("more than one line")
            + 1;
        Pristine {
            text,
            last_line_start,
            records,
        }
    }
}

fn pristine_journal() -> &'static Pristine {
    static CELL: OnceLock<Pristine> = OnceLock::new();
    CELL.get_or_init(|| {
        let spec = spec();
        let dir = tempdir("journal-pristine");
        let path = dir.join("pristine.mpdpj");
        let journal = Journal::open(&path, &spec).expect("journal opens");
        for cell in &spec.cells() {
            let result = run_cell(&spec, cell).expect("cell runs");
            journal
                .append(spec.cell_stream(cell), &result)
                .expect("appends");
        }
        Pristine::from_file(&path, spec.cell_count())
    })
}

fn pristine_segment() -> &'static Pristine {
    static CELL: OnceLock<Pristine> = OnceLock::new();
    CELL.get_or_init(|| {
        let spec = spec();
        let dir = tempdir("segment-pristine");
        let cache = CellCache::open(&dir).expect("cache opens");
        for cell in &spec.cells() {
            let result = run_cell(&spec, cell).expect("cell runs");
            cache.insert(&spec, cell, &result);
        }
        assert_eq!(cache.len(), spec.cell_count());
        let segment = dir.join(format!("seg-{}.mpdpc", std::process::id()));
        Pristine::from_file(&segment, spec.cell_count())
    })
}

/// Plants `pristine` truncated to `cut` bytes at `path`.
fn plant(pristine: &Pristine, cut: usize, path: &std::path::Path) {
    std::fs::write(path, &pristine.text.as_bytes()[..cut]).expect("plant torn artifact");
}

proptest! {
    // Every cut position across the final record — its first body byte
    // through the trailing newline — plus the intact file (back = 0).
    // Exhaustive over the boundary by construction: `back` ranges past
    // the ~19-byte ` #<16-hex>\n` trailer into the record body.
    #[test]
    fn sweep_journal_survives_tears_on_the_last_record_boundary(back in 0usize..64) {
        let pristine = pristine_journal();
        let cut = pristine.text.len() - back;
        prop_assume!(cut >= pristine.last_line_start);
        let spec = spec();
        let dir = tempdir("journal");
        let path = dir.join("torn.mpdpj");
        plant(pristine, cut, &path);

        let expected = if back == 0 {
            pristine.records
        } else {
            // Any strict prefix of the last line — even one missing only
            // the final newline — must be dropped, never half-parsed.
            pristine.records - 1
        };
        let journal = Journal::open(&path, &spec).expect("recovery succeeds");
        prop_assert_eq!(journal.recovered().len(), expected);
        drop(journal);

        // Recovery truncated the tear away: a second open is a no-op,
        // and the journal accepts the lost cell back.
        let journal = Journal::open(&path, &spec).expect("recovered file reopens");
        prop_assert_eq!(journal.recovered().len(), expected);
        if expected < pristine.records {
            let cells = spec.cells();
            let lost = &cells[pristine.records - 1];
            let result = run_cell(&spec, lost).expect("lost cell re-runs");
            journal.append(spec.cell_stream(lost), &result).expect("append after tear");
            drop(journal);
            let journal = Journal::open(&path, &spec).expect("reopens complete");
            prop_assert_eq!(journal.recovered().len(), pristine.records);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_segment_survives_tears_on_the_last_record_boundary(back in 0usize..64) {
        let pristine = pristine_segment();
        let cut = pristine.text.len() - back;
        prop_assume!(cut >= pristine.last_line_start);
        let spec = spec();
        let dir = tempdir("segment");
        // The torn file is this process's *own* segment, so reopening the
        // directory recovers it through the same truncate-at-tear path
        // the journal uses (a foreign segment would merely stop loading).
        plant(pristine, cut, &dir.join(format!("seg-{}.mpdpc", std::process::id())));

        let expected = if back == 0 {
            pristine.records
        } else {
            pristine.records - 1
        };
        let cache = CellCache::open(&dir).expect("cache recovers the torn segment");
        prop_assert_eq!(cache.len(), expected);
        // The surviving records still answer lookups; the torn record
        // misses and can be re-inserted.
        let cells = spec.cells();
        for (i, cell) in cells.iter().enumerate() {
            let hit = cache.lookup(&spec, cell).is_some();
            prop_assert_eq!(hit, i < expected, "cell {} cached={}", i, hit);
        }
        if expected < pristine.records {
            let lost = &cells[pristine.records - 1];
            let result = run_cell(&spec, lost).expect("lost cell re-runs");
            cache.insert(&spec, lost, &result);
            drop(cache);
            let cache = CellCache::open(&dir).expect("cache reopens complete");
            prop_assert_eq!(cache.len(), pristine.records);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The record counter, the shard merge's reader and journal recovery are
/// three consumers of one file format, so they must agree on how many
/// records of a damaged journal survive: for every cut and every
/// single-byte flip (`^ 0x01`) of the 3-record journal, including cuts
/// and flips inside the header. One counter also follows the cuts in
/// order, as a supervisor follows a growing journal, and must count
/// what a fresh one does.
#[test]
fn every_reader_keeps_the_same_records_of_a_damaged_journal() {
    // Short records (one arrival, a 200 ms horizon) keep the exhaustive
    // walk cheap; the format is the same at any record length.
    let spec = SweepSpec {
        arrivals: ArrivalSpec::Explicit {
            arrivals: vec![(Cycles::from_millis(10), 0)],
            horizon: Cycles::from_millis(200),
        },
        ..spec()
    };
    let dir = tempdir("readers-agree");
    let path = dir.join("damaged.mpdpj");
    let journal = Journal::open(&path, &spec).expect("journal opens");
    for cell in &spec.cells() {
        let result = run_cell(&spec, cell).expect("cell runs");
        journal
            .append(spec.cell_stream(cell), &result)
            .expect("appends");
    }
    drop(journal);
    let pristine = std::fs::read(&path).expect("pristine journal reads");
    assert_eq!(
        pristine.iter().filter(|&&b| b == b'\n').count(),
        4,
        "header + 3 records"
    );
    let bytes = pristine.as_slice();
    let cuts = (0..=bytes.len()).map(|cut| (format!("cut at {cut}"), bytes[..cut].to_vec()));
    let flips = (0..bytes.len()).map(|at| {
        let mut flipped = bytes.to_vec();
        flipped[at] ^= 0x01;
        (format!("flip at {at}"), flipped)
    });
    let mut following = JournalTail::new(&path, &spec);
    for (case, damaged) in cuts.chain(flips) {
        std::fs::write(&path, &damaged).expect("plant damaged journal");
        // The read-only readers first: `open` truncates.
        let counted = JournalTail::new(&path, &spec).count();
        if case.starts_with("cut") {
            assert_eq!(following.count(), counted, "{case}: following count");
        }
        let merged = read_shard_journal(&path, &spec).map_or(0, |records| records.len());
        let recovered = Journal::open(&path, &spec).map_or(0, |j| j.recovered().len());
        assert_eq!(
            (counted, merged),
            (recovered, recovered),
            "{case}: count, merge and recovery disagree"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
