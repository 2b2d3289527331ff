//! Flat CSV/JSON export of the cycle ledger for attribution tables.

use std::fmt::Write as _;

use crate::ledger::{CycleLedger, BUCKETS};

/// Renders a ledger as CSV: one row per processor plus a `total` row, one
/// column per bucket (in [`BUCKETS`] order), a `total` column, and an
/// `overhead_pct` column (overhead buckets as a percentage of the row
/// total).
pub fn ledger_csv(ledger: &CycleLedger) -> String {
    let mut out = String::from("proc");
    for b in BUCKETS {
        let _ = write!(out, ",{}", b.name());
    }
    out.push_str(",total,overhead_pct\n");
    for proc in 0..ledger.n_procs() {
        let _ = write!(out, "{proc}");
        let mut overhead = 0u64;
        for b in BUCKETS {
            let v = ledger.get(proc, b);
            if b.is_overhead() {
                overhead += v;
            }
            let _ = write!(out, ",{v}");
        }
        let total = ledger.proc_total(proc);
        let _ = writeln!(out, ",{total},{:.3}", percent(overhead, total));
    }
    out.push_str("total");
    for b in BUCKETS {
        let _ = write!(out, ",{}", ledger.bucket_total(b));
    }
    let _ = writeln!(
        out,
        ",{},{:.3}",
        ledger.grand_total(),
        percent(ledger.overhead_total(), ledger.grand_total())
    );
    out
}

/// Renders a ledger as a JSON object with per-processor and total bucket
/// maps (cycles), plus the overhead share of each row.
pub fn ledger_json(ledger: &CycleLedger) -> String {
    let mut out = String::from("{\n  \"procs\": [");
    for proc in 0..ledger.n_procs() {
        if proc > 0 {
            out.push(',');
        }
        out.push_str("\n    {");
        let mut overhead = 0u64;
        for (i, b) in BUCKETS.iter().enumerate() {
            let v = ledger.get(proc, *b);
            if b.is_overhead() {
                overhead += v;
            }
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{}\": {v}", b.name());
        }
        let total = ledger.proc_total(proc);
        let _ = write!(
            out,
            ", \"total\": {total}, \"overhead_pct\": {:.3}}}",
            percent(overhead, total)
        );
    }
    out.push_str("\n  ],\n  \"total\": {");
    for (i, b) in BUCKETS.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{}\": {}", b.name(), ledger.bucket_total(*b));
    }
    let _ = write!(
        out,
        ", \"total\": {}, \"overhead_pct\": {:.3}}}\n}}\n",
        ledger.grand_total(),
        percent(ledger.overhead_total(), ledger.grand_total())
    );
    out
}

fn percent(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 * 100.0 / whole as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_json;
    use crate::ledger::Bucket;

    fn ledger() -> CycleLedger {
        let mut l = CycleLedger::new(2);
        l.charge(0, Bucket::TaskWork, 700);
        l.charge(0, Bucket::Sched, 200);
        l.charge(0, Bucket::Idle, 100);
        l.charge(1, Bucket::Idle, 1000);
        l
    }

    #[test]
    fn csv_has_header_rows_and_totals() {
        let csv = ledger_csv(&ledger());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 4); // header + 2 procs + total
        assert_eq!(
            lines[0],
            "proc,task_work,sched,switch,isr,bus_stall,contention,idle,total,overhead_pct"
        );
        assert_eq!(lines[1], "0,700,200,0,0,0,0,100,1000,20.000");
        assert_eq!(lines[2], "1,0,0,0,0,0,0,1000,1000,0.000");
        assert_eq!(lines[3], "total,700,200,0,0,0,0,1100,2000,10.000");
    }

    #[test]
    fn json_is_well_formed_and_totals_match() {
        let json = ledger_json(&ledger());
        parse_json(&json).expect("ledger JSON must parse");
        assert!(json.contains("\"task_work\": 700"));
        assert!(json.contains("\"overhead_pct\": 10.000"));
    }

    #[test]
    fn empty_ledger_renders_zero_percent() {
        let csv = ledger_csv(&CycleLedger::new(1));
        assert!(csv.lines().last().unwrap().ends_with(",0,0.000"));
    }
}
