//! The daemon's newline-delimited JSON wire protocol.
//!
//! One request per line, one response line per request. Every request is a
//! flat JSON object with an `op` field, read by [`mpdp_obs::parse_json`];
//! this module adds the protocol's rules on top of the JSON grammar: the
//! line must be an object, and its values strings, numbers or booleans
//! (a nested container or `null` is a `bad_request`). Every response
//! echoes the request's `id` (default `0`) and carries either `"ok":true`
//! plus op-specific fields, or `"ok":false` with a typed `error` kind and
//! a human-readable `detail`. Responses are pure functions of the session
//! state and the request, which is what makes the journal-replay recovery
//! byte-exact.
//!
//! The two MPDP-style service bands live here too: session-mutating
//! operations (`open`, `admit`, `close`) are **guaranteed** — they survive
//! overload and are journaled before execution — while read-only
//! operations (`query`, `ping`, `stats`, `metrics`) are **best-effort**
//! and are shed first under load.

use std::collections::BTreeMap;

use mpdp_core::time::CLOCK_HZ;
use mpdp_obs::{escape_json, parse_json, Json};
use mpdp_telemetry::ServeEndpoint;

/// Longest accepted session name; names match `[A-Za-z0-9_-]{1,64}`.
pub const MAX_SESSION_NAME: usize = 64;

/// Largest `exec_us` or `window_us` an `admit` may carry: the most
/// microseconds that still fit a cycle count at the platform clock.
pub const MAX_DEMAND_US: u64 = u64::MAX / (CLOCK_HZ / 1_000_000);

/// What a `query` request asks of a session.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryKind {
    /// Current admission verdict: base utilization, aperiodic bandwidth,
    /// admitted count.
    Verdict,
    /// Would the guaranteed base survive a uniform load scale `factor`?
    At {
        /// The uniform load factor to test.
        factor: f64,
    },
    /// Remaining admissible aperiodic bandwidth (sensitivity breakdown
    /// search to `tolerance`).
    Headroom {
        /// Breakdown-search tolerance.
        tolerance: f64,
    },
    /// Run both simulator stacks at the session's grid coordinate through
    /// the shared RTA table cache and report the observed slowdown.
    Simulate {
        /// Seed coordinate for the arrival stream.
        seed: u64,
    },
}

/// A decoded request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Open a session over the automotive base set at a grid coordinate.
    Open {
        /// Session name.
        session: String,
        /// Target system utilization in `(0, 1)`.
        util: f64,
        /// Processor count.
        procs: usize,
    },
    /// Admit one aperiodic request into a session.
    Admit {
        /// Session name.
        session: String,
        /// Task identifier.
        task: u32,
        /// Execution demand in microseconds.
        exec_us: u64,
        /// Declared minimum inter-arrival window in microseconds.
        window_us: u64,
    },
    /// Close a session.
    Close {
        /// Session name.
        session: String,
    },
    /// Read-only query against a session.
    Query {
        /// Session name.
        session: String,
        /// What to compute.
        kind: QueryKind,
    },
    /// Liveness probe.
    Ping,
    /// Service counters as a flat JSON object.
    Stats,
    /// Prometheus exposition text, JSON-escaped into one field.
    Metrics,
}

impl Request {
    /// The telemetry endpoint this request is accounted under.
    pub fn endpoint(&self) -> ServeEndpoint {
        match self {
            Request::Open { .. } => ServeEndpoint::Open,
            Request::Admit { .. } => ServeEndpoint::Admit,
            Request::Close { .. } => ServeEndpoint::Close,
            Request::Query { .. } => ServeEndpoint::Query,
            Request::Ping => ServeEndpoint::Ping,
            Request::Stats | Request::Metrics => ServeEndpoint::Stats,
        }
    }

    /// Whether this request is in the guaranteed band (session-mutating;
    /// never shed) rather than the best-effort band (shed first).
    pub fn guaranteed(&self) -> bool {
        self.endpoint().guaranteed()
    }
}

/// Typed error kinds; the `error` field of a failure response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request line was malformed or carried invalid fields.
    BadRequest,
    /// The named session does not exist.
    UnknownSession,
    /// An `open` named a session that already exists.
    SessionExists,
    /// An `open`'s base set failed the offline guarantee.
    UnschedulableBase,
    /// The request sat in the queue past its deadline.
    Timeout,
    /// The bounded queue was full and the request could not be accepted.
    Overloaded,
}

impl ErrorKind {
    /// Stable lowercase wire name.
    pub fn name(self) -> &'static str {
        match self {
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::UnknownSession => "unknown_session",
            ErrorKind::SessionExists => "session_exists",
            ErrorKind::UnschedulableBase => "unschedulable_base",
            ErrorKind::Timeout => "timeout",
            ErrorKind::Overloaded => "overloaded",
        }
    }
}

/// A parsed request line: the decoded [`Request`], the echoed `id`, and
/// the per-request deadline in milliseconds (if the client set one).
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// The decoded request.
    pub request: Request,
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub id: u64,
    /// Per-request deadline override, milliseconds.
    pub deadline_ms: Option<u64>,
}

/// Whether `name` is a legal session name (`[A-Za-z0-9_-]{1,64}`).
pub fn valid_session_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= MAX_SESSION_NAME
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
}

/// Parses one request line.
///
/// # Errors
///
/// A `(kind, detail)` pair ready for [`error_response`]; the `id` is
/// recovered from the line when possible so even malformed requests get a
/// correlated error line.
pub fn parse_request(line: &str) -> Result<Envelope, (u64, ErrorKind, String)> {
    let fields = match parse_json(line) {
        Ok(Json::Obj(fields)) => fields,
        Ok(_) => return Err((0, ErrorKind::BadRequest, "expected '{'".to_string())),
        Err(e) => return Err((0, ErrorKind::BadRequest, e.to_string())),
    };
    if let Some(detail) = fields.values().find_map(|value| match value {
        Json::Null => Some("null is not part of the protocol"),
        Json::Arr(_) | Json::Obj(_) => Some("nested containers are not part of the protocol"),
        Json::Bool(_) | Json::Num(_) | Json::Str(_) => None,
    }) {
        return Err((0, ErrorKind::BadRequest, detail.to_string()));
    }
    let id = num_field(&fields, "id").unwrap_or(0.0) as u64;
    let bad = |detail: String| (id, ErrorKind::BadRequest, detail);

    let op = fields
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("missing op".into()))?;
    let deadline_ms = num_field(&fields, "deadline_ms").map(|d| d.max(0.0) as u64);

    let session = |fields: &BTreeMap<String, Json>| -> Result<String, (u64, ErrorKind, String)> {
        let name = fields
            .get("session")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("missing session".into()))?;
        if valid_session_name(name) {
            Ok(name.to_string())
        } else {
            Err(bad(format!(
                "session names match [A-Za-z0-9_-]{{1,{MAX_SESSION_NAME}}}"
            )))
        }
    };
    let num = |key: &str| -> Result<f64, (u64, ErrorKind, String)> {
        num_field(&fields, key).ok_or_else(|| bad(format!("missing numeric field {key}")))
    };
    let unsigned = |key: &str| -> Result<u64, (u64, ErrorKind, String)> {
        let v = num(key)?;
        if v >= 0.0 && v.fract() == 0.0 && v <= u64::MAX as f64 {
            Ok(v as u64)
        } else {
            Err(bad(format!("field {key} must be a non-negative integer")))
        }
    };
    let micros = |key: &str| -> Result<u64, (u64, ErrorKind, String)> {
        match unsigned(key)? {
            us if us <= MAX_DEMAND_US => Ok(us),
            _ => Err(bad(format!("field {key} must be at most {MAX_DEMAND_US}"))),
        }
    };

    let request = match op {
        "open" => {
            let util = num("util")?;
            let procs = unsigned("procs")?;
            if !(util > 0.0 && util < 1.0) {
                return Err(bad("util must be in (0, 1)".into()));
            }
            if !(1..=16).contains(&procs) {
                return Err(bad("procs must be in 1..=16".into()));
            }
            Request::Open {
                session: session(&fields)?,
                util,
                procs: procs as usize,
            }
        }
        "admit" => Request::Admit {
            session: session(&fields)?,
            task: u32::try_from(unsigned("task")?)
                .map_err(|_| bad("field task must fit in u32".into()))?,
            exec_us: micros("exec_us")?,
            window_us: micros("window_us")?,
        },
        "close" => Request::Close {
            session: session(&fields)?,
        },
        "query" => {
            let kind = match fields
                .get("kind")
                .and_then(Json::as_str)
                .unwrap_or("verdict")
            {
                "verdict" => QueryKind::Verdict,
                "at" => {
                    let factor = num("factor")?;
                    if !(factor.is_finite() && factor > 0.0) {
                        return Err(bad("factor must be finite and positive".into()));
                    }
                    QueryKind::At { factor }
                }
                "headroom" => {
                    let tolerance = num_field(&fields, "tolerance").unwrap_or(0.01);
                    if !(tolerance.is_finite() && tolerance > 0.0) {
                        return Err(bad("tolerance must be finite and positive".into()));
                    }
                    QueryKind::Headroom { tolerance }
                }
                "simulate" => QueryKind::Simulate {
                    seed: num_field(&fields, "seed")
                        .map(|s| s.max(0.0) as u64)
                        .unwrap_or(0),
                },
                other => return Err(bad(format!("unknown query kind {other}"))),
            };
            Request::Query {
                session: session(&fields)?,
                kind,
            }
        }
        "ping" => Request::Ping,
        "stats" => Request::Stats,
        "metrics" => Request::Metrics,
        other => return Err(bad(format!("unknown op {other}"))),
    };
    Ok(Envelope {
        request,
        id,
        deadline_ms,
    })
}

fn num_field(fields: &BTreeMap<String, Json>, key: &str) -> Option<f64> {
    fields.get(key).and_then(Json::as_f64)
}

/// Formats a success response: `{"id":N,"ok":true,<body>}`. `body` is a
/// pre-rendered fragment of `"key":value` pairs (no braces).
pub fn ok_response(id: u64, body: &str) -> String {
    if body.is_empty() {
        format!("{{\"id\":{id},\"ok\":true}}")
    } else {
        format!("{{\"id\":{id},\"ok\":true,{body}}}")
    }
}

/// Formats a typed failure response.
pub fn error_response(id: u64, kind: ErrorKind, detail: &str) -> String {
    format!(
        "{{\"id\":{id},\"ok\":false,\"error\":\"{}\",\"detail\":\"{}\"}}",
        kind.name(),
        escape_json(detail)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_op() {
        let cases: Vec<(&str, Request)> = vec![
            (
                r#"{"op":"open","session":"s1","util":0.4,"procs":3}"#,
                Request::Open {
                    session: "s1".into(),
                    util: 0.4,
                    procs: 3,
                },
            ),
            (
                r#"{"op":"admit","session":"s1","task":100,"exec_us":200,"window_us":100000}"#,
                Request::Admit {
                    session: "s1".into(),
                    task: 100,
                    exec_us: 200,
                    window_us: 100_000,
                },
            ),
            (
                r#"{"op":"close","session":"s1"}"#,
                Request::Close {
                    session: "s1".into(),
                },
            ),
            (
                r#"{"op":"query","session":"s1"}"#,
                Request::Query {
                    session: "s1".into(),
                    kind: QueryKind::Verdict,
                },
            ),
            (
                r#"{"op":"query","session":"s1","kind":"at","factor":1.5}"#,
                Request::Query {
                    session: "s1".into(),
                    kind: QueryKind::At { factor: 1.5 },
                },
            ),
            (r#"{"op":"ping"}"#, Request::Ping),
            (r#"{"op":"stats"}"#, Request::Stats),
            (r#"{"op":"metrics"}"#, Request::Metrics),
        ];
        for (line, want) in cases {
            let env = parse_request(line).unwrap_or_else(|e| panic!("{line}: {e:?}"));
            assert_eq!(env.request, want, "{line}");
        }
    }

    #[test]
    fn id_and_deadline_ride_along_even_on_errors() {
        let env = parse_request(r#"{"op":"ping","id":42,"deadline_ms":250}"#).expect("parses");
        assert_eq!((env.id, env.deadline_ms), (42, Some(250)));
        // A bad request still recovers the id for correlation.
        let (id, kind, _) =
            parse_request(r#"{"op":"open","id":9,"session":"s","util":1.5,"procs":2}"#)
                .expect_err("util out of range");
        assert_eq!((id, kind), (9, ErrorKind::BadRequest));
    }

    #[test]
    fn rejects_bad_sessions_ops_and_fields() {
        for line in [
            r#"{"op":"nope"}"#,
            r#"{"session":"s"}"#,
            r#"{"op":"open","session":"s","util":0.4}"#,
            r#"{"op":"open","session":"s","util":0.4,"procs":0}"#,
            r#"{"op":"open","session":"s","util":0.4,"procs":17}"#,
            r#"{"op":"open","session":"bad name!","util":0.4,"procs":2}"#,
            r#"{"op":"admit","session":"s","task":-1,"exec_us":1,"window_us":1}"#,
            r#"{"op":"admit","session":"s","task":5000000000,"exec_us":1,"window_us":1}"#,
            r#"{"op":"query","session":"s","kind":"at","factor":-1}"#,
            r#"{"op":"query","session":"s","kind":"wat"}"#,
            "not json at all",
            r#"{"op":"ping","a":1e999}"#,
            r#"{"op":"ping"} x"#,
            // Nesting past the reader's cap, on a line as long as the
            // daemon accepts: a typed error, not a stack overflow.
            &"[".repeat(1 << 20),
        ] {
            let err = parse_request(line).expect_err(line);
            assert_eq!(err.1, ErrorKind::BadRequest, "{line}");
        }
        // Every cut prefix of a good line is a typed error, never a panic.
        let line = r#"{"op":"query","session":"x_y-9","kind":"at","factor":1.25}"#;
        for cut in 0..line.len() {
            let err = parse_request(&line[..cut]).expect_err(&line[..cut]);
            assert_eq!(err.1, ErrorKind::BadRequest, "{}", &line[..cut]);
        }
    }

    #[test]
    fn demands_past_the_cycle_range_are_rejected() {
        let admit = |exec: u64, window: u64| {
            parse_request(&format!(
                r#"{{"op":"admit","session":"s","task":1,"exec_us":{exec},"window_us":{window}}}"#
            ))
        };
        // JSON numbers are doubles: the largest one not above the limit is
        // accepted, the next one up is not.
        let top: u64 = 368_934_881_474_190_976;
        assert_eq!(top as f64 as u64, top, "exact as a double");
        assert!(top <= MAX_DEMAND_US && top + 64 > MAX_DEMAND_US);
        let env = admit(top, top).expect("in range");
        assert!(matches!(
            env.request,
            Request::Admit { exec_us, window_us, .. } if exec_us == top && window_us == top
        ));
        for (exec, window) in [
            (368_934_881_474_191_104, 100_000),
            (200, MAX_DEMAND_US + 1),
            (u64::MAX, 1),
        ] {
            let (_, kind, detail) = admit(exec, window).expect_err("out of range");
            assert_eq!(kind, ErrorKind::BadRequest);
            assert!(detail.contains(&MAX_DEMAND_US.to_string()), "{detail}");
        }
    }

    #[test]
    fn nested_and_null_values_keep_their_protocol_details() {
        for (line, detail) in [
            (
                r#"{"op":"ping","a":null}"#,
                "null is not part of the protocol",
            ),
            (
                r#"{"op":"ping","a":[1]}"#,
                "nested containers are not part of the protocol",
            ),
            (
                r#"{"op":"ping","a":{"b":1}}"#,
                "nested containers are not part of the protocol",
            ),
            ("[1]", "expected '{'"),
        ] {
            assert_eq!(
                parse_request(line),
                Err((0, ErrorKind::BadRequest, detail.to_string())),
                "{line}"
            );
        }
        // Malformed JSON carries the reader's byte offset.
        let (_, _, detail) = parse_request(r#"{"op":"ping",}"#).expect_err("trailing comma");
        assert!(detail.contains("byte 13"), "{detail}");
    }

    #[test]
    fn rejects_number_spellings_outside_rfc_8259() {
        for spelling in ["02", "1.", "-.5", "1.e3", "00.5"] {
            let line = format!(r#"{{"op":"open","session":"s","util":0.5,"procs":{spelling}}}"#);
            let err = parse_request(&line).expect_err(&line);
            assert_eq!(err.1, ErrorKind::BadRequest, "{line}");
        }
    }

    #[test]
    fn decodes_escaped_session_names_and_surrogate_pairs() {
        let env = parse_request(r#"{"op":"close","session":"s\u002d1"}"#).expect("escaped name");
        assert_eq!(
            env.request,
            Request::Close {
                session: "s-1".into()
            }
        );
        // A valid surrogate pair decodes; the non-ASCII name is then
        // refused by session-name validation, not by the reader.
        let (_, kind, detail) = parse_request(r#"{"op":"close","session":"\ud83d\ude00"}"#)
            .expect_err("non-ASCII session name");
        assert_eq!(kind, ErrorKind::BadRequest);
        assert!(detail.starts_with("session names match"), "{detail}");
    }

    #[test]
    fn bands_follow_the_dual_priority_split() {
        let g = parse_request(r#"{"op":"open","session":"s","util":0.4,"procs":2}"#).expect("ok");
        assert!(g.request.guaranteed());
        let b = parse_request(r#"{"op":"query","session":"s"}"#).expect("ok");
        assert!(!b.request.guaranteed());
        assert!(!Request::Ping.guaranteed());
    }

    #[test]
    fn responses_are_valid_json() {
        for line in [
            ok_response(7, ""),
            ok_response(7, "\"pong\":true"),
            error_response(3, ErrorKind::Timeout, "deadline 250ms exceeded"),
            error_response(0, ErrorKind::BadRequest, "weird \"quotes\"\nand newlines"),
        ] {
            parse_json(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
    }
}
