//! Group commit in the line journal: threads appending at once share
//! fsyncs, and every record survives a reopen in its writer's order.

use std::sync::{Arc, Barrier};

use mpdp_sweep::LineJournal;

const THREADS: usize = 8;
const PER_THREAD: usize = 50;

#[test]
fn concurrent_appends_are_all_durable_in_order_with_no_extra_fsyncs() {
    let path = std::env::temp_dir().join(format!("mpdp-group-commit-{}.jnl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let journal = Arc::new(LineJournal::open(&path, "GROUPC1", 1).expect("creates"));
    let start = Arc::new(Barrier::new(THREADS));
    let writers: Vec<_> = (0..THREADS)
        .map(|t| {
            let journal = Arc::clone(&journal);
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                for i in 0..PER_THREAD {
                    journal.append(&format!("t{t} r{i}")).expect("appends");
                }
            })
        })
        .collect();
    for writer in writers {
        writer.join().expect("writer thread");
    }
    let syncs = journal.syncs();
    assert!(
        syncs <= (THREADS * PER_THREAD) as u64,
        "{syncs} fsyncs for {} appends",
        THREADS * PER_THREAD
    );
    drop(journal);

    let reopened = LineJournal::open(&path, "GROUPC1", 1).expect("reopens");
    let recovered = reopened.recovered();
    assert_eq!(recovered.len(), THREADS * PER_THREAD);
    for t in 0..THREADS {
        let prefix = format!("t{t} ");
        let mine: Vec<&str> = recovered
            .iter()
            .filter(|body| body.starts_with(&prefix))
            .map(String::as_str)
            .collect();
        let want: Vec<String> = (0..PER_THREAD).map(|i| format!("t{t} r{i}")).collect();
        assert_eq!(mine, want, "thread {t}'s records, in its order");
    }
    let _ = std::fs::remove_file(&path);
}
