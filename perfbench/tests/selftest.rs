//! Self-tests of the benchmark's own arithmetic and of the traced rebuild.

use std::path::PathBuf;
use std::time::Instant;

use mpdp_core::time::Cycles;
use mpdp_sweep::{run_cell, Knobs};
use perfbench::serve::{self, Kind};
use perfbench::stats::{quartiles, Samples, Tally};
use perfbench::sweeps::{self, FanoutCounters, Memo};
use perfbench::trace::{self_time, Recorder, Span, Trace, LANE};

#[test]
fn nearest_rank_quantiles_on_fixed_vectors() {
    let s = Samples::new((1..=10).rev().collect());
    assert_eq!(s.p50(), Some(5));
    assert_eq!(s.quantile(0.0), Some(1));
    assert_eq!(s.quantile(1.0), Some(10));
    assert_eq!(s.quantile(0.91), Some(10));
    assert_eq!(Samples::new(vec![]).p50(), None);
    assert_eq!(Samples::new(vec![7]).p50(), Some(7));
}

#[test]
fn p99_needs_ten_samples_above_it() {
    // 1000 samples: p99 is the 990th, ten lie above it.
    let s = Samples::new((1..=1000).collect());
    assert_eq!(s.p99(), Some(990));
    // 999 samples: p99 is the 990th (ceil 989.01), nine lie above it.
    assert_eq!(Samples::new((1..=999).collect()).p99(), None);
    // Ties at the top do not count as above.
    let mut tied: Vec<u64> = (1..=990).collect();
    tied.extend([990; 10]);
    assert_eq!(Samples::new(tied).p99(), None);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
    // == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
    // statistics.quantiles([4, 1, 3], n=4) == [1.0, 3.0, 4.0]
    assert_eq!(quartiles(&[4.0, 1.0, 3.0]), Some((1.0, 3.0, 4.0)));
    assert_eq!(quartiles(&[2.0]), Some((2.0, 2.0, 2.0)));
    assert_eq!(quartiles(&[]), None);
}

#[test]
fn error_rate_counts_retries_refusals_and_transport_errors() {
    let mut t = Tally::default();
    t.cell(0);
    t.cell(2); // succeeded, but only after two failed attempts
    assert_eq!((t.attempted, t.failed), (2, 1));

    let mut r = Tally::default();
    r.reply(r#"{"id":1,"ok":true,"pong":true}"#);
    r.reply(r#"{"id":2,"ok":false,"error":"overloaded","detail":"queue full"}"#);
    r.transport_error();
    assert_eq!((r.attempted, r.failed), (3, 2));

    t.merge(r);
    assert_eq!((t.attempted, t.failed), (5, 3));
    assert!((t.error_rate() - 3.0 / 5.0).abs() < 1e-12);
    assert_eq!(Tally::default().error_rate(), 0.0);
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    assert_eq!(self_time(0, 100, &mut []), 100);
    // Disjoint children.
    assert_eq!(self_time(0, 100, &mut [(10, 20), (30, 50)]), 70);
    // Overlapping children count their union once.
    assert_eq!(self_time(0, 100, &mut [(40, 60), (10, 50), (55, 70)]), 40);
    // A child nested in another child adds nothing.
    assert_eq!(self_time(0, 100, &mut [(10, 90), (20, 30)]), 20);
    // Children are clipped to the parent.
    assert_eq!(self_time(10, 20, &mut [(0, 15), (18, 40)]), 3);
}

fn span(name: &'static str, lane: usize, parent: Option<usize>, start: u64, end: u64) -> Span {
    Span {
        name,
        lane,
        parent,
        start,
        end,
        key: 0,
    }
}

#[test]
fn nested_spans_conserve_busy_time() {
    // Lane 0: a cell [10, 60) holding a simulation [20, 50) holding a
    // nested call [25, 30); lane 1: a cell [0, 90).
    let trace = Trace {
        spans: vec![
            span(LANE, 0, None, 0, 100),
            span(LANE, 1, None, 0, 100),
            span("sweep.cell", 0, Some(0), 10, 60),
            span("sim.prototype", 0, Some(2), 20, 50),
            span("inner", 0, Some(3), 25, 30),
            span("sweep.cell", 1, Some(1), 0, 90),
        ],
        lanes: 2,
        start: 0,
        end: 100,
    };
    assert_eq!(trace.self_times(), vec![50, 10, 20, 25, 5, 90]);
    let c = trace.conservation();
    assert_eq!((c.attributed, c.other, c.busy), (140, 60, 200));
    assert!(c.holds());
    let layers = trace.layers();
    assert_eq!(layers["sweep.cell"].self_ns, 110);
    assert_eq!(layers["sweep.cell"].durations, vec![50, 90]);

    // A child sticking out of its parent breaks conservation.
    let mut broken = trace.clone();
    broken.spans[4].end = 70;
    assert!(!broken.conservation().holds());
}

#[test]
fn recorders_assemble_into_a_conserving_trace() {
    let origin = Instant::now();
    let mut recs = vec![Recorder::new(origin, 0), Recorder::new(origin, 1)];
    let start = recs[0].now();
    for rec in &mut recs {
        let outer = rec.enter("outer", 1);
        rec.time("inner", 2, || {
            std::hint::black_box((0..1000u64).sum::<u64>())
        });
        rec.exit(outer);
    }
    let end = recs[1].now();
    let trace = Trace::assemble(recs, 2, start, end);
    assert_eq!(trace.spans.len(), 6);
    assert_eq!(
        trace.spans[2].parent,
        Some(0),
        "top-level spans hang off their lane"
    );
    assert_eq!(trace.spans[3].parent, Some(2));
    assert!(trace.conservation().holds());
}

#[test]
fn rebuilt_cells_equal_run_cell() {
    // A small corner of the sweep_mc grid, plus a knob that changes the
    // analysis and both simulators.
    let mut spec = sweeps::mc_spec(5);
    spec.utilizations = vec![0.4, 0.6];
    spec.proc_counts = vec![2, 3];
    spec.seeds = vec![0, 1];
    spec.knobs
        .push(Knobs::named("fast-tick").with_tick(Cycles::from_millis(50)));
    for spec in [spec.clone(), spec.with_master_seed(6)] {
        let origin = Instant::now();
        let mut recs = vec![Recorder::new(origin, 0), Recorder::new(origin, 1)];
        let start = recs[0].now();
        let counters = FanoutCounters::default();
        let cells = sweeps::traced_fanout(&spec, &Memo::default(), &mut recs, &counters)
            .expect("rebuild runs");
        let end = recs[0].now();
        let expected: Vec<_> = spec
            .cells()
            .iter()
            .map(|c| run_cell(&spec, c).expect("cell runs"))
            .collect();
        assert_eq!(cells, expected);
        assert!(counters.iterations.into_inner() > 0);
        let trace = Trace::assemble(recs, 2, start, end);
        assert!(trace.conservation().holds());
        let layers = trace.layers();
        assert_eq!(layers["sweep.cell"].durations.len(), spec.cell_count());
        assert_eq!(layers["sim.prototype"].durations.len(), spec.cell_count());
        let coordinates = spec.knobs.len() * spec.proc_counts.len() * spec.utilizations.len();
        assert_eq!(layers["analysis.prepare"].durations.len(), coordinates);
    }
}

fn scratch(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn sessions_follow_the_mix_and_depend_on_the_seed() {
    let a = serve::session(1, 0, 0);
    assert_eq!(a.len(), serve::SESSION_LEN);
    assert_eq!(a[0].op.kind(), Kind::Open);
    assert_eq!(a[a.len() - 1].op.kind(), Kind::Close);
    for (kind, n) in [
        (Kind::Admit, 5),
        (Kind::At, 5),
        (Kind::Headroom, 5),
        (Kind::Verdict, 19),
        (Kind::Ping, 14),
    ] {
        assert_eq!(
            a.iter().filter(|r| r.op.kind() == kind).count(),
            n,
            "{kind:?}"
        );
    }
    for r in &a {
        mpdp_mpdpd::parse_request(&r.line).expect("every line parses");
    }
    assert_eq!(a, serve::session(1, 0, 0), "same seed, same inputs");
    assert_ne!(a, serve::session(2, 0, 0), "another seed, other inputs");
    assert_ne!(a, serve::session(1, 1, 0), "connections differ");
    let spec = sweeps::mc_spec(1);
    let other = sweeps::mc_spec(2);
    let cell = spec.cells()[0];
    assert_ne!(spec.cell_stream(&cell), other.cell_stream(&cell));
}

#[test]
fn verdict_replay_accepts_the_daemons_answers_and_rejects_others() {
    let dir = scratch("replay");
    // What the daemon answers for session 0 of connection 0, computed
    // here through the same store: the replay must accept it.
    let requests = serve::session(4, 0, 0);
    let mut store = mpdp_mpdpd::SessionStore::open(&dir.join("daemon.mpdpd")).expect("store");
    let name = serve::session_name(0, 0);
    let mut replies = Vec::new();
    for (j, r) in requests.iter().enumerate() {
        let body = match r.op {
            serve::Op::Open { util, procs } => store.open_session(&name, util, procs),
            serve::Op::Admit {
                task,
                exec_us,
                window_us,
            } => store.admit(&name, task, exec_us, window_us),
            serve::Op::Close => store.close(&name),
            serve::Op::Verdict => {
                let s = store.get(&name).expect("open");
                let base: f64 = s.admission.periodic().iter().map(|t| t.utilization()).sum();
                Ok(format!(
                    "\"session\":\"{name}\",\"procs\":{},\"base_utilization\":{base},\
                     \"aperiodic_bandwidth\":{},\"admitted\":{}",
                    s.procs,
                    s.admission.aperiodic_bandwidth(),
                    s.admission.admitted().len()
                ))
            }
            _ => continue,
        };
        let body = body.expect("op succeeds");
        replies.push((j, mpdp_mpdpd::protocol::ok_response(r.id, &body)));
    }
    let log = serve::SessionLog {
        conn: 0,
        k: 0,
        replies: replies.clone(),
        answered: requests.len(),
    };
    assert_eq!(
        serve::replay(4, std::slice::from_ref(&log), &dir.join("a.mpdpd"), None),
        Ok(1)
    );
    // Corrupt one verdict: the replay must object.
    let mut bad = log.clone();
    let (_, reply) = bad
        .replies
        .iter_mut()
        .find(|(_, r)| r.contains("\"aperiodic_bandwidth\""))
        .expect("a verdict");
    *reply = reply.replacen("\"procs\":", "\"procs\":9", 1);
    assert!(serve::replay(4, &[bad], &dir.join("b.mpdpd"), None).is_err());
    let _ = std::fs::remove_dir_all(&dir);
}
