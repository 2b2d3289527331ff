//! Per-client admission sessions behind a crash-safe write-ahead journal.
//!
//! Every session-mutating operation (`open`, `admit`, `close`) is written
//! to a checksummed [`LineJournal`] *before* it executes — the same
//! append-only idiom the sweep checkpoint journal uses, including
//! torn-tail recovery — and synced before any reply that reads it is
//! sent. Because every decision in [`AdmissionSession`] is a pure function
//! of the operation history, a SIGKILLed daemon that replays its journal
//! reaches a byte-identical session state: the same sessions, the same
//! admitted sets, the same subsequent answers.
//!
//! The daemon splits each mutation in two. Under its store lock it calls
//! a `stage_*` method, which validates, writes the record, applies it and
//! renders the reply; after releasing the lock it waits in
//! `await_durable` for the journal's group commit. Sessions are held as
//! `Arc<Session>`, so a query takes a refcount under the lock and
//! computes outside it, and each session carries the sequence number of
//! its last record for the query's reply to wait on. The durable mutators
//! ([`SessionStore::open_session`], [`admit`](SessionStore::admit),
//! [`close`](SessionStore::close)) stage, then sync.
//!
//! Records are one line each:
//!
//! ```text
//! open <name> <util-bits:016x> <procs>
//! admit <name> <task-id> <exec-us> <window-us>
//! close <name>
//! ```
//!
//! The utilization is stored as IEEE-754 bits so replay reconstructs the
//! exact coordinate. A record that no longer parses (impossible without
//! checksum collision, but cheap to guard) truncates the journal at that
//! point, mirroring `Journal::open`'s semantic-truncation contract.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use mpdp_analysis::{AdmissionOutcome, AdmissionSession, PartitionHeuristic, RejectReason};
use mpdp_core::ids::TaskId;
use mpdp_core::task::AperiodicTask;
use mpdp_core::time::{Cycles, DEFAULT_TICK};
use mpdp_sweep::{LineJournal, LineJournalError};
use mpdp_workload::automotive_task_set;

use crate::protocol::{ErrorKind, MAX_DEMAND_US};

/// Journal header magic.
pub const JOURNAL_MAGIC: &str = "MPDPD1";
/// Journal header fingerprint: the session-record format version. Bump on
/// any record-format change so stale journals are rejected, not misread.
pub const JOURNAL_FINGERPRINT: u64 = 1;

/// An operation outcome: the rendered response body fragment (the part
/// between the braces, after `"ok":true,`) or a typed error.
pub type OpResult = Result<String, (ErrorKind, String)>;

/// One open session: its grid coordinate plus the admission state.
#[derive(Debug, Clone)]
pub struct Session {
    /// Target system utilization the base set was synthesized for.
    pub util: f64,
    /// Processor count.
    pub procs: usize,
    /// The analysis-side admission state.
    pub admission: AdmissionSession,
    /// Sequence number of the last journal record applied to this session
    /// by this process; 0 for a session only replayed from disk. A reply
    /// that reads the session waits until this record is durable.
    pub(crate) seq: u64,
}

/// The session map plus its write-ahead journal.
pub struct SessionStore {
    sessions: BTreeMap<String, Arc<Session>>,
    journal: Arc<LineJournal>,
    rebuilt: usize,
}

impl SessionStore {
    /// Opens (or creates) the journal at `path` and replays every recovered
    /// record, rebuilding the pre-crash session state. Torn tails were
    /// already truncated by [`LineJournal::open`]; a checksum-clean record
    /// that fails to parse truncates the journal from that point on.
    ///
    /// # Errors
    ///
    /// Journal I/O failures and header fingerprint mismatches.
    pub fn open(path: &Path) -> Result<Self, LineJournalError> {
        let mut journal = LineJournal::open(path, JOURNAL_MAGIC, JOURNAL_FINGERPRINT)?;
        let mut sessions = BTreeMap::new();
        let mut good = 0;
        for body in journal.recovered() {
            if replay_record(&mut sessions, body).is_none() {
                break;
            }
            good += 1;
        }
        if good < journal.recovered().len() {
            journal.truncate_to(good)?;
        }
        let rebuilt = sessions.len();
        Ok(SessionStore {
            sessions,
            journal: Arc::new(journal),
            rebuilt,
        })
    }

    /// The write-ahead journal, shared so a caller can wait for a record
    /// with [`await_durable`] after releasing its borrow of the store.
    pub(crate) fn journal(&self) -> &Arc<LineJournal> {
        &self.journal
    }

    /// Sequence number of the last journal record written. A reply that
    /// depends on the absence of a session (`unknown_session`,
    /// `session_exists`) waits until this record is durable.
    pub(crate) fn written(&self) -> u64 {
        self.journal.written()
    }

    /// How many sessions survived the journal replay at startup.
    pub fn rebuilt(&self) -> usize {
        self.rebuilt
    }

    /// Number of currently open sessions.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// Whether no sessions are open.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// Looks up a session for a read-only query.
    pub fn get(&self, name: &str) -> Option<&Session> {
        self.sessions.get(name).map(Arc::as_ref)
    }

    /// A shared reference to a session's current state, for a query that
    /// computes after releasing its borrow of the store.
    pub(crate) fn snapshot(&self, name: &str) -> Option<Arc<Session>> {
        self.sessions.get(name).cloned()
    }

    /// Opens a session over the automotive base set at `(util, procs)`.
    /// Journaled before execution and durable on return; an unschedulable
    /// base replays to the same rejection, so the journal stays a faithful
    /// history either way.
    pub fn open_session(&mut self, name: &str, util: f64, procs: usize) -> OpResult {
        let result = self.stage_open(name, util, procs);
        self.settle(result)
    }

    /// Admits (or rejects) one aperiodic request against a session;
    /// durable on return.
    pub fn admit(&mut self, name: &str, task: u32, exec_us: u64, window_us: u64) -> OpResult {
        let result = self.stage_admit(name, task, exec_us, window_us);
        self.settle(result)
    }

    /// Closes a session, dropping its admission state; durable on return.
    pub fn close(&mut self, name: &str) -> OpResult {
        let result = self.stage_close(name);
        self.settle(result)
    }

    /// [`open_session`](Self::open_session) without the sync: the reply
    /// may be sent once [`await_durable`] up to [`written`](Self::written)
    /// returns.
    pub(crate) fn stage_open(&mut self, name: &str, util: f64, procs: usize) -> OpResult {
        if self.sessions.contains_key(name) {
            return Err((
                ErrorKind::SessionExists,
                format!("session {name} is already open"),
            ));
        }
        let seq = self.write(&format!("open {name} {:016x} {procs}", util.to_bits()))?;
        apply_open(&mut self.sessions, name, util, procs, seq)
    }

    /// [`admit`](Self::admit) without the sync, as for
    /// [`stage_open`](Self::stage_open).
    pub(crate) fn stage_admit(
        &mut self,
        name: &str,
        task: u32,
        exec_us: u64,
        window_us: u64,
    ) -> OpResult {
        if !self.sessions.contains_key(name) {
            return Err(unknown(name));
        }
        let seq = self.write(&format!("admit {name} {task} {exec_us} {window_us}"))?;
        apply_admit(&mut self.sessions, name, task, exec_us, window_us, seq)
    }

    /// [`close`](Self::close) without the sync, as for
    /// [`stage_open`](Self::stage_open).
    pub(crate) fn stage_close(&mut self, name: &str) -> OpResult {
        if !self.sessions.contains_key(name) {
            return Err(unknown(name));
        }
        self.write(&format!("close {name}"))?;
        apply_close(&mut self.sessions, name)
    }

    fn write(&self, body: &str) -> Result<u64, (ErrorKind, String)> {
        // A journal write failure means the guarantee (crash recovery)
        // cannot be honored for this request, so refuse it as overload
        // rather than execute an unjournaled mutation.
        self.journal.write(body).map_err(journal_failed)
    }

    /// Waits for every record written so far, then returns `result`.
    fn settle(&self, result: OpResult) -> OpResult {
        await_durable(&self.journal, self.written())?;
        result
    }
}

/// Waits until every record of `journal` up to `seq` is durable. A
/// failure is the reply a mutation gets when its record cannot be made
/// durable.
///
/// # Errors
///
/// `overloaded` "journal write failed" when the write or fsync failed or
/// the journal is poisoned.
pub(crate) fn await_durable(journal: &LineJournal, seq: u64) -> Result<(), (ErrorKind, String)> {
    journal.sync(seq).map_err(journal_failed)
}

fn journal_failed(e: LineJournalError) -> (ErrorKind, String) {
    (
        ErrorKind::Overloaded,
        format!("journal write failed: {}", e.detail),
    )
}

pub(crate) fn unknown(name: &str) -> (ErrorKind, String) {
    (
        ErrorKind::UnknownSession,
        format!("no session named {name}"),
    )
}

/// Formats a finite float for a JSON body. Admission math only produces
/// finite values from validated inputs; this is a belt-and-braces guard so
/// a future bug degrades to `0` instead of emitting invalid JSON.
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

fn apply_open(
    sessions: &mut BTreeMap<String, Arc<Session>>,
    name: &str,
    util: f64,
    procs: usize,
    seq: u64,
) -> OpResult {
    let set = automotive_task_set(util, procs, DEFAULT_TICK);
    let tasks = set.periodic.len();
    match AdmissionSession::new(set.periodic, procs, PartitionHeuristic::WorstFitDecreasing) {
        Ok(admission) => {
            let base: f64 = admission.periodic().iter().map(|t| t.utilization()).sum();
            sessions.insert(
                name.to_string(),
                Arc::new(Session {
                    util,
                    procs,
                    admission,
                    seq,
                }),
            );
            Ok(format!(
                "\"session\":\"{name}\",\"tasks\":{tasks},\"base_utilization\":{}",
                json_num(base)
            ))
        }
        Err(e) => Err((
            ErrorKind::UnschedulableBase,
            format!("base set at util {util} on {procs} procs is not guaranteed: {e}"),
        )),
    }
}

fn apply_admit(
    sessions: &mut BTreeMap<String, Arc<Session>>,
    name: &str,
    task: u32,
    exec_us: u64,
    window_us: u64,
    seq: u64,
) -> OpResult {
    // Copy on write: a query still holding the old state keeps it.
    let session = Arc::make_mut(sessions.get_mut(name).ok_or_else(|| unknown(name))?);
    session.seq = seq;
    let req = AperiodicTask::new(
        TaskId::new(task),
        format!("ap{task}"),
        Cycles::from_micros(exec_us),
    );
    match session
        .admission
        .try_admit(req, Cycles::from_micros(window_us))
    {
        AdmissionOutcome::Admitted {
            bandwidth,
            total_aperiodic,
        } => Ok(format!(
            "\"admitted\":true,\"bandwidth\":{},\"total_aperiodic\":{}",
            json_num(bandwidth),
            json_num(total_aperiodic)
        )),
        AdmissionOutcome::Rejected { reason, .. } => match reason {
            RejectReason::InvalidDemand => {
                Ok("\"admitted\":false,\"reason\":\"invalid_demand\"".to_string())
            }
            RejectReason::Unschedulable { factor } if factor.is_finite() => Ok(format!(
                "\"admitted\":false,\"reason\":\"unschedulable\",\"factor\":{}",
                json_num(factor)
            )),
            RejectReason::Unschedulable { .. } => {
                Ok("\"admitted\":false,\"reason\":\"unschedulable\"".to_string())
            }
        },
    }
}

fn apply_close(sessions: &mut BTreeMap<String, Arc<Session>>, name: &str) -> OpResult {
    let session = sessions.remove(name).ok_or_else(|| unknown(name))?;
    Ok(format!(
        "\"closed\":\"{name}\",\"admitted\":{}",
        session.admission.admitted().len()
    ))
}

/// Replays one journal record body. Returns `None` when the record does
/// not parse (the caller truncates the journal there); op-level rejections
/// replay to the same rejection and are *not* parse failures.
fn replay_record(sessions: &mut BTreeMap<String, Arc<Session>>, body: &str) -> Option<()> {
    let mut parts = body.split(' ');
    let verb = parts.next()?;
    match verb {
        "open" => {
            let name = parts.next()?;
            let util = f64::from_bits(u64::from_str_radix(parts.next()?, 16).ok()?);
            let procs: usize = parts.next()?.parse().ok()?;
            if parts.next().is_some() || !(util > 0.0 && util < 1.0) || !(1..=16).contains(&procs) {
                return None;
            }
            let _ = apply_open(sessions, name, util, procs, 0);
        }
        "admit" => {
            let name = parts.next()?;
            let task: u32 = parts.next()?.parse().ok()?;
            let exec_us: u64 = parts.next()?.parse().ok()?;
            let window_us: u64 = parts.next()?.parse().ok()?;
            if parts.next().is_some() || exec_us.max(window_us) > MAX_DEMAND_US {
                return None;
            }
            let _ = apply_admit(sessions, name, task, exec_us, window_us, 0);
        }
        "close" => {
            let name = parts.next()?;
            if parts.next().is_some() {
                return None;
            }
            let _ = apply_close(sessions, name);
        }
        _ => return None,
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::OpenOptions;
    use std::io::Write as _;

    fn dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("mpdpd-session-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).expect("temp dir");
        d
    }

    #[test]
    fn a_mutation_history_replays_byte_identically() {
        let d = dir("replay");
        let path = d.join("sessions.mpdpd");
        let live: Vec<String> = {
            let mut store = SessionStore::open(&path).expect("opens");
            let mut out = vec![
                store.open_session("alpha", 0.4, 3).expect("opens alpha"),
                store.open_session("beta", 0.5, 2).expect("opens beta"),
            ];
            for (task, exec, window) in [(100, 200, 100_000), (101, 90_000, 100_000), (102, 0, 5)] {
                out.push(
                    store
                        .admit("alpha", task, exec, window)
                        .expect("admit runs"),
                );
            }
            out.push(store.close("beta").expect("closes"));
            // Read-only answers for later comparison.
            out.push(verdict(&store, "alpha"));
            out
        };
        // "Crash": drop the store, reopen from the journal alone.
        let store = SessionStore::open(&path).expect("reopens");
        assert_eq!(store.rebuilt(), 1, "alpha survives, beta was closed");
        assert_eq!(verdict(&store, "alpha"), live[live.len() - 1]);
        assert!(store.get("beta").is_none());
        let _ = std::fs::remove_dir_all(&d);
    }

    fn verdict(store: &SessionStore, name: &str) -> String {
        let s = store.get(name).expect("session exists");
        format!(
            "procs={} bandwidth={} admitted={}",
            s.procs,
            s.admission.aperiodic_bandwidth(),
            s.admission.admitted().len()
        )
    }

    #[test]
    fn a_torn_tail_drops_only_the_torn_record() {
        let d = dir("torn");
        let path = d.join("sessions.mpdpd");
        {
            let mut store = SessionStore::open(&path).expect("opens");
            store.open_session("s", 0.4, 2).expect("opens s");
            store.admit("s", 100, 200, 100_000).expect("admits");
        }
        // Simulate a crash mid-append: half a record, no checksum.
        let mut f = OpenOptions::new().append(true).open(&path).expect("append");
        f.write_all(b"admit s 101 9").expect("torn write");
        drop(f);
        let store = SessionStore::open(&path).expect("recovers");
        let s = store.get("s").expect("s survives");
        assert_eq!(s.admission.admitted().len(), 1, "torn admit discarded");
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn duplicate_open_unknown_admit_and_close_are_typed_errors() {
        let d = dir("errors");
        let mut store = SessionStore::open(&d.join("j.mpdpd")).expect("opens");
        store.open_session("s", 0.4, 2).expect("opens");
        assert_eq!(
            store.open_session("s", 0.4, 2).expect_err("dup").0,
            ErrorKind::SessionExists
        );
        assert_eq!(
            store.admit("ghost", 1, 1, 1).expect_err("ghost").0,
            ErrorKind::UnknownSession
        );
        assert_eq!(
            store.close("ghost").expect_err("ghost").0,
            ErrorKind::UnknownSession
        );
        // Errors are not journaled: replay sees only the one open.
        let again = SessionStore::open(&d.join("j.mpdpd")).expect("reopens");
        assert_eq!(again.len(), 1);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn an_admit_past_the_cycle_range_truncates_the_replay() {
        let d = dir("range");
        let path = d.join("j.mpdpd");
        {
            let mut store = SessionStore::open(&path).expect("opens");
            store.open_session("s", 0.6, 2).expect("opens");
        }
        // A record no parsed request can produce: its cycle count wraps.
        let journal = LineJournal::open(&path, JOURNAL_MAGIC, JOURNAL_FINGERPRINT).expect("opens");
        journal
            .append("admit s 101 368934881474191104 100000")
            .expect("appends");
        journal.append("close s").expect("appends");
        drop(journal);
        let store = SessionStore::open(&path).expect("recovers");
        let s = store
            .get("s")
            .expect("replay stops before the bad admit and the close");
        assert!(s.admission.admitted().is_empty());
        let journal = LineJournal::open(&path, JOURNAL_MAGIC, JOURNAL_FINGERPRINT).expect("opens");
        assert_eq!(journal.recovered().len(), 1, "truncated after the open");
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn a_staged_admit_copies_on_write_and_waits_for_its_sync() {
        let d = dir("stage");
        let mut store = SessionStore::open(&d.join("j.mpdpd")).expect("opens");
        store.open_session("s", 0.4, 2).expect("opens");
        let before = store.snapshot("s").expect("s");
        let body = store.stage_admit("s", 100, 200, 100_000).expect("admits");
        assert!(body.contains("\"admitted\":true"), "{body}");
        // The query's snapshot keeps the state and record it was taken at.
        assert_eq!((before.seq, before.admission.admitted().len()), (1, 0));
        let after = store.snapshot("s").expect("s");
        assert_eq!((after.seq, after.admission.admitted().len()), (2, 1));
        let journal = Arc::clone(store.journal());
        assert_eq!(journal.syncs(), 1, "only the open is synced");
        await_durable(&journal, after.seq).expect("syncs");
        assert_eq!(journal.syncs(), 2);
        await_durable(&journal, before.seq).expect("already durable");
        assert_eq!(journal.syncs(), 2);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn rejected_admissions_replay_to_the_same_state() {
        let d = dir("reject");
        let path = d.join("j.mpdpd");
        {
            let mut store = SessionStore::open(&path).expect("opens");
            store.open_session("s", 0.7, 2).expect("opens");
            // A whole processor's worth of bandwidth: rejected, journaled.
            let body = store.admit("s", 100, 100_000, 100_000).expect("runs");
            assert!(body.contains("\"admitted\":false"), "{body}");
        }
        let store = SessionStore::open(&path).expect("reopens");
        assert_eq!(
            store.get("s").expect("s").admission.admitted().len(),
            0,
            "rejection replays as a rejection"
        );
        let _ = std::fs::remove_dir_all(&d);
    }
}
