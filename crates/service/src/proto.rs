//! The line-oriented wire protocol spoken over the daemon's Unix socket.
//!
//! One request per line, one response line per request, in order. Fields
//! are **tab-separated**; any value that can contain tabs or newlines
//! (source text, assumptions, verdicts) is escaped with [`esc`]/[`unesc`]
//! (`\` → `\\`, tab → `\t`, newline → `\n`, CR → `\r`), so a physical
//! line always holds exactly one message. The grammar:
//!
//! ```text
//! request  = "PING" | "STATUS" | "METRICS" | "SHUTDOWN"
//!          | "RESULT" TAB id
//!          | "SUBMIT" {TAB field}
//! response = "PONG" | "BYE"
//!          | "QUEUED" TAB id
//!          | "BUSY" TAB retry_after_ms
//!          | "STATUS" {TAB field}
//!          | "METRICS" TAB exposition
//!          | "RESULT" {TAB field}
//!          | "ERR" TAB message
//! field    = key "=" value
//! ```
//!
//! Fields are named, in any order; required keys are marked `*`:
//!
//! - `SUBMIT`: `source`*, `isolated` (`true`: verify against a private
//!   memo), and the job options `mode`, `engine`*, `list_len`*,
//!   `max_rounds`*, `max_unroll`, `budget_ms` (wall-clock deadline),
//!   `budget_calls` (theory-call cap) and `assume` (one per BMC
//!   assumption, in order). `mode` opens the options and makes the
//!   starred ones required; without it the job runs with the daemon's
//!   defaults, and any other option key is an error.
//! - `RESULT`: `id`*, `kind`*, `digest`*, `verdict`*, `from_store`, and
//!   the solver counters `checks`, `cache_hits`, `theory_calls`,
//!   `assumption_queries`, `assumption_hits`, `trail_ops`,
//!   `max_trail_depth`, `saturation_reuses`, `resaturations`.
//! - `STATUS`: `queued`, `running`, `done`, `memo`, `pipeline_store`,
//!   `journaled` — this daemon's own state; process-wide counters are in
//!   `METRICS`.
//!
//! Unknown keys are skipped, so a new field touches no reader, and an
//! absent optional key takes its default (0, `false`, no budget). A field
//! without `=`, a repeated single-valued key or a missing required key is
//! an error. `digest` is the 32-hex-char fnv128 of the job's
//! [`shadowdp::CorpusOutcome::report_digest`] text; `kind` is one of
//! `completed`/`error`/`crashed`/`exhausted` (see [`OutcomeKind`]);
//! [`JobOutcome::ok`] is not sent: it follows `kind`.
//! `BUSY` rejects a `SUBMIT` when the daemon's bounded submission queue
//! is full; the client should wait roughly `retry_after_ms` and retry.
//! `METRICS` answers with the daemon's full metrics registry rendered in
//! Prometheus text exposition format, [`esc`]-escaped onto the one
//! response line (the exposition is multi-line; the escaping keeps the
//! protocol strictly line-oriented).
//! A job's outcome is held by the connection that submitted it until a
//! `RESULT` on that connection collects it, in any order, and is dropped
//! if the connection closes first. `RESULT` for an id never issued is
//! `ERR unknown job id …`; for any other id this connection does not owe
//! (another client's, or one already collected) it is `ERR job … was
//! submitted by another client or already delivered`. Protocol errors
//! never kill the connection: the daemon answers `ERR` and keeps reading.

use std::fmt::{self, Write as _};
use std::str::FromStr;

use shadowdp::{JobSpec, OptionsSpec};

/// A malformed protocol line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProtoError(pub String);

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "protocol error: {}", self.0)
    }
}

impl std::error::Error for ProtoError {}

/// Escapes a field for single-line transport.
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

/// Reverses [`esc`].
///
/// # Errors
///
/// Returns [`ProtoError`] on a dangling or unknown escape.
pub fn unesc(s: &str) -> Result<String, ProtoError> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some(other) => return Err(ProtoError(format!("unknown escape `\\{other}`"))),
            None => return Err(ProtoError("dangling escape".into())),
        }
    }
    Ok(out)
}

/// A client → daemon message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Liveness check.
    Ping,
    /// This daemon's queue, memo, store and journal state.
    Status,
    /// Full metrics registry in Prometheus text exposition format.
    Metrics,
    /// Queue a verification job; answered immediately with `QUEUED`.
    Submit(JobSpec),
    /// Block until the job is done, then return its outcome.
    Result(u64),
    /// Flush the store and exit.
    Shutdown,
}

/// One daemon's own state, reported by `STATUS`. Process-wide counters
/// (store hits, trail operations, flush latency, …) live in `METRICS`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatusInfo {
    /// Jobs submitted but not yet taken by a worker.
    pub queued: u64,
    /// Jobs taken by a worker and not yet published.
    pub running: u64,
    /// Job outcomes published since startup, whether collected, still
    /// held by their connection, or dropped with it (journal replays
    /// included).
    pub done: u64,
    /// Entries in the live solver query memo.
    pub memo_entries: u64,
    /// Entries in the persistent pipeline tier.
    pub pipeline_store: u64,
    /// Records in the in-flight journal file: the submissions a crash
    /// now would re-verify on restart. That is every journaled queued or
    /// running job, plus finished jobs whose records the daemon has not
    /// dropped yet (their verdicts are durable, so they replay as store
    /// hits); 0 without a store.
    pub journaled: u64,
}

/// How a job's run ended, beyond the coarse `ok` flag.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OutcomeKind {
    /// Verification ran to a verdict (proved / refuted / unknown).
    Completed,
    /// The job failed before verification (malformed spec, parse or type
    /// error).
    Error,
    /// The job panicked. Panic isolation converts this into a per-job
    /// outcome: the other workers' jobs complete and the daemon keeps
    /// serving.
    Crashed,
    /// The job hit its resource budget before reaching a conclusion.
    /// Never persisted to the store: re-submitting with a larger budget
    /// re-verifies from scratch.
    Exhausted,
}

impl OutcomeKind {
    /// The wire token (`completed`/`error`/`crashed`/`exhausted`).
    pub fn as_wire(self) -> &'static str {
        match self {
            OutcomeKind::Completed => "completed",
            OutcomeKind::Error => "error",
            OutcomeKind::Crashed => "crashed",
            OutcomeKind::Exhausted => "exhausted",
        }
    }

    /// [`JobOutcome::ok`] for this kind.
    pub(crate) fn ok(self) -> bool {
        matches!(self, OutcomeKind::Completed | OutcomeKind::Exhausted)
    }
}

impl FromStr for OutcomeKind {
    type Err = ProtoError;

    /// Parses a wire token.
    fn from_str(s: &str) -> Result<OutcomeKind, ProtoError> {
        match s {
            "completed" => Ok(OutcomeKind::Completed),
            "error" => Ok(OutcomeKind::Error),
            "crashed" => Ok(OutcomeKind::Crashed),
            "exhausted" => Ok(OutcomeKind::Exhausted),
            other => Err(ProtoError(format!("bad outcome kind `{other}`"))),
        }
    }
}

/// One finished job as reported over the wire.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobOutcome {
    /// The id `QUEUED` assigned.
    pub id: u64,
    /// Whether the job reached a verdict: `completed` and `exhausted` are
    /// ok, `error` and `crashed` are not. Derived from `kind`, so it is
    /// never sent.
    pub ok: bool,
    /// Answered by the persistent pipeline tier instead of a fresh run.
    pub from_store: bool,
    /// How the run ended (completed/error/crashed/exhausted). `ok` is
    /// the coarse flag derived from it; `kind` distinguishes budget
    /// exhaustion and panic isolation, which `ok` alone cannot.
    pub kind: OutcomeKind,
    /// 32-hex-char fnv128 of the job's canonical report digest.
    pub digest: String,
    /// Solver `checks` spent on this job (0 for store-served jobs).
    pub checks: u64,
    /// Solver memo hits on this job.
    pub cache_hits: u64,
    /// Fresh theory calls on this job (0 when fully warm).
    pub theory_calls: u64,
    /// Assumption-set-keyed entailment queries (per-candidate Houdini
    /// consecution obligations) this job asked.
    pub assumption_queries: u64,
    /// How many of `assumption_queries` the solver answered from its memo
    /// — including entries persisted by *other* candidate-set variations,
    /// which is the cross-variation transfer the per-candidate keying
    /// exists for.
    pub assumption_hits: u64,
    /// Reversible trail operations recorded by this job's searches (0
    /// for store-served or fully warm jobs).
    pub trail_ops: u64,
    /// Deepest decision-level nesting any of this job's searches reached.
    pub max_trail_depth: u64,
    /// Constraints absorbed incrementally into a live saturation (pushed
    /// assumption bases and mid-search atoms).
    pub saturation_reuses: u64,
    /// Full from-scratch saturations (cold constraint sets and final
    /// model reconstructions).
    pub resaturations: u64,
    /// Rendered verdict or error.
    pub verdict: String,
}

/// A daemon → client message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// Liveness answer.
    Pong,
    /// Job accepted under this id.
    Queued(u64),
    /// The submission queue is full; retry after roughly this many
    /// milliseconds.
    Busy(u64),
    /// Counter snapshot.
    Status(StatusInfo),
    /// Prometheus text exposition of the daemon's metrics registry.
    Metrics(String),
    /// Finished job.
    Result(JobOutcome),
    /// The request could not be served (malformed line, unknown id).
    Err(String),
    /// Acknowledges `SHUTDOWN`; the daemon exits after sending it.
    Bye,
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// A message under construction: the verb, then one `TAB key=value` per
/// field.
struct Line(String);

impl Line {
    fn new(verb: &str) -> Line {
        Line(verb.to_string())
    }

    fn field(mut self, key: &str, value: impl fmt::Display) -> Line {
        // Writing into a `String` cannot fail.
        let _ = write!(self.0, "\t{key}={value}");
        self
    }

    /// A field left out when `value` is `None`, its default.
    fn opt(self, key: &str, value: Option<impl fmt::Display>) -> Line {
        match value {
            Some(value) => self.field(key, value),
            None => self,
        }
    }
}

/// Renders a request as one protocol line (no trailing newline).
pub fn encode_request(req: &Request) -> String {
    match req {
        Request::Ping => "PING".into(),
        Request::Status => "STATUS".into(),
        Request::Metrics => "METRICS".into(),
        Request::Shutdown => "SHUTDOWN".into(),
        Request::Result(id) => format!("RESULT\t{id}"),
        Request::Submit(spec) => {
            let mut line = Line::new("SUBMIT").field("isolated", spec.isolated_memo);
            if let Some(o) = &spec.options {
                line = line
                    .field("mode", esc(&o.mode))
                    .field("engine", esc(&o.engine))
                    .field("list_len", o.list_len)
                    .opt("max_unroll", o.max_unroll)
                    .field("max_rounds", o.max_rounds)
                    .opt("budget_ms", o.budget_millis)
                    .opt("budget_calls", o.budget_theory_calls);
                for assumption in &o.assumptions {
                    line = line.field("assume", esc(assumption));
                }
            }
            line.field("source", esc(&spec.source)).0
        }
    }
}

/// The `key=value` fields of one message, read by name. Every value is
/// unescaped, then parsed with its type's [`FromStr`].
struct Fields<'a>(Vec<(&'a str, &'a str)>);

impl<'a> Fields<'a> {
    /// Splits each field at its first `=`.
    fn new(fields: &[&'a str]) -> Result<Fields<'a>, ProtoError> {
        fields
            .iter()
            .map(|f| {
                f.split_once('=')
                    .ok_or_else(|| ProtoError(format!("field `{f}` is not key=value")))
            })
            .collect::<Result<_, _>>()
            .map(Fields)
    }

    /// Every value of `key`, in order.
    fn all(&self, key: &'a str) -> impl Iterator<Item = Result<String, ProtoError>> + '_ {
        self.0
            .iter()
            .filter(move |(k, _)| *k == key)
            .map(|(_, v)| unesc(v))
    }

    /// The value of single-valued `key`, if present.
    fn get<T: FromStr>(&self, key: &'a str) -> Result<Option<T>, ProtoError> {
        let mut values = self.all(key);
        let Some(value) = values.next().transpose()? else {
            return Ok(None);
        };
        if values.next().is_some() {
            return Err(ProtoError(format!("repeated key `{key}`")));
        }
        value
            .parse()
            .map(Some)
            .map_err(|_| ProtoError(format!("bad {key} `{value}`")))
    }

    /// The value of `key`, which must be present.
    fn need<T: FromStr>(&self, key: &'a str) -> Result<T, ProtoError> {
        self.get(key)?
            .ok_or_else(|| ProtoError(format!("missing key `{key}`")))
    }

    /// A counter or flag: absent reads as 0 or `false`.
    fn or_default<T: FromStr + Default>(&self, key: &'a str) -> Result<T, ProtoError> {
        Ok(self.get(key)?.unwrap_or_default())
    }
}

/// Parses one request line.
///
/// # Errors
///
/// Returns [`ProtoError`] on unknown verbs, malformed or missing fields,
/// or bad escapes.
pub fn parse_request(line: &str) -> Result<Request, ProtoError> {
    let fields: Vec<&str> = line.split('\t').collect();
    match fields[0] {
        "PING" if fields.len() == 1 => Ok(Request::Ping),
        "STATUS" if fields.len() == 1 => Ok(Request::Status),
        "METRICS" if fields.len() == 1 => Ok(Request::Metrics),
        "SHUTDOWN" if fields.len() == 1 => Ok(Request::Shutdown),
        "RESULT" if fields.len() == 2 => fields[1]
            .parse()
            .map(Request::Result)
            .map_err(|_| ProtoError(format!("bad job id `{}`", fields[1]))),
        "SUBMIT" => parse_submit(&Fields::new(&fields[1..])?),
        verb => Err(ProtoError(format!("unknown request `{verb}`"))),
    }
}

/// The SUBMIT keys that belong to the job options, which `mode` opens.
const OPTION_KEYS: [&str; 7] = [
    "engine",
    "list_len",
    "max_unroll",
    "max_rounds",
    "budget_ms",
    "budget_calls",
    "assume",
];

fn parse_submit(f: &Fields<'_>) -> Result<Request, ProtoError> {
    let options = match f.get("mode")? {
        None => {
            // Dropping these would run the job unbounded under the
            // default options' verdict and store key.
            if let Some((key, _)) = f.0.iter().find(|(k, _)| OPTION_KEYS.contains(k)) {
                return Err(ProtoError(format!("option `{key}` without `mode`")));
            }
            None
        }
        Some(mode) => Some(OptionsSpec {
            mode,
            engine: f.need("engine")?,
            list_len: f.need("list_len")?,
            max_unroll: f.get("max_unroll")?,
            max_rounds: f.need("max_rounds")?,
            budget_millis: f.get("budget_ms")?,
            budget_theory_calls: f.get("budget_calls")?,
            assumptions: f.all("assume").collect::<Result<_, _>>()?,
        }),
    };
    Ok(Request::Submit(JobSpec {
        source: f.need("source")?,
        options,
        isolated_memo: f.or_default("isolated")?,
    }))
}

/// Renders a response as one protocol line (no trailing newline).
pub fn encode_response(resp: &Response) -> String {
    match resp {
        Response::Pong => "PONG".into(),
        Response::Bye => "BYE".into(),
        Response::Queued(id) => format!("QUEUED\t{id}"),
        Response::Busy(ms) => format!("BUSY\t{ms}"),
        Response::Err(msg) => format!("ERR\t{}", esc(msg)),
        Response::Status(s) => {
            Line::new("STATUS")
                .field("queued", s.queued)
                .field("running", s.running)
                .field("done", s.done)
                .field("memo", s.memo_entries)
                .field("pipeline_store", s.pipeline_store)
                .field("journaled", s.journaled)
                .0
        }
        Response::Metrics(exposition) => format!("METRICS\t{}", esc(exposition)),
        Response::Result(r) => {
            Line::new("RESULT")
                .field("id", r.id)
                .field("from_store", r.from_store)
                .field("kind", r.kind.as_wire())
                .field("digest", esc(&r.digest))
                .field("checks", r.checks)
                .field("cache_hits", r.cache_hits)
                .field("theory_calls", r.theory_calls)
                .field("assumption_queries", r.assumption_queries)
                .field("assumption_hits", r.assumption_hits)
                .field("trail_ops", r.trail_ops)
                .field("max_trail_depth", r.max_trail_depth)
                .field("saturation_reuses", r.saturation_reuses)
                .field("resaturations", r.resaturations)
                .field("verdict", esc(&r.verdict))
                .0
        }
    }
}

/// Parses one response line.
///
/// # Errors
///
/// Returns [`ProtoError`] on unknown verbs, malformed or missing fields,
/// or bad escapes.
pub fn parse_response(line: &str) -> Result<Response, ProtoError> {
    let fields: Vec<&str> = line.split('\t').collect();
    let num = |s: &str, what: &str| -> Result<u64, ProtoError> {
        s.parse()
            .map_err(|_| ProtoError(format!("bad {what} `{s}`")))
    };
    match fields[0] {
        "PONG" if fields.len() == 1 => Ok(Response::Pong),
        "BYE" if fields.len() == 1 => Ok(Response::Bye),
        "QUEUED" if fields.len() == 2 => Ok(Response::Queued(num(fields[1], "job id")?)),
        "BUSY" if fields.len() == 2 => Ok(Response::Busy(num(fields[1], "retry_after_ms")?)),
        "ERR" if fields.len() == 2 => Ok(Response::Err(unesc(fields[1])?)),
        "STATUS" => {
            let f = Fields::new(&fields[1..])?;
            Ok(Response::Status(StatusInfo {
                queued: f.or_default("queued")?,
                running: f.or_default("running")?,
                done: f.or_default("done")?,
                memo_entries: f.or_default("memo")?,
                pipeline_store: f.or_default("pipeline_store")?,
                journaled: f.or_default("journaled")?,
            }))
        }
        "METRICS" if fields.len() == 2 => Ok(Response::Metrics(unesc(fields[1])?)),
        "RESULT" => {
            let f = Fields::new(&fields[1..])?;
            let kind: OutcomeKind = f.need("kind")?;
            Ok(Response::Result(JobOutcome {
                id: f.need("id")?,
                ok: kind.ok(),
                from_store: f.or_default("from_store")?,
                kind,
                digest: f.need("digest")?,
                checks: f.or_default("checks")?,
                cache_hits: f.or_default("cache_hits")?,
                theory_calls: f.or_default("theory_calls")?,
                assumption_queries: f.or_default("assumption_queries")?,
                assumption_hits: f.or_default("assumption_hits")?,
                trail_ops: f.or_default("trail_ops")?,
                max_trail_depth: f.or_default("max_trail_depth")?,
                saturation_reuses: f.or_default("saturation_reuses")?,
                resaturations: f.or_default("resaturations")?,
                verdict: f.need("verdict")?,
            }))
        }
        verb => Err(ProtoError(format!("unknown response `{verb}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_round_trips() {
        for s in [
            "",
            "plain",
            "tabs\tand\nnewlines\r\\backslashes\\t",
            "function F() {\n\tx := lap(1);\n}",
        ] {
            assert_eq!(unesc(&esc(s)).unwrap(), s);
            assert!(!esc(s).contains('\t'));
            assert!(!esc(s).contains('\n'));
        }
        assert!(unesc("dangling\\").is_err());
        assert!(unesc("\\x").is_err());
    }

    #[test]
    fn requests_round_trip() {
        let table1_jobs = shadowdp::table1::corpus_jobs();
        let mut specs: Vec<JobSpec> = table1_jobs.iter().map(JobSpec::from_job).collect();
        specs.push(JobSpec::new(
            "function F() returns o: num(0,0)\n{ o := 0; }",
        ));
        // A budgeted spec: both budget fields ride the wire.
        let mut budgeted = specs[0].clone();
        if let Some(o) = budgeted.options.as_mut() {
            o.budget_millis = Some(1500);
            o.budget_theory_calls = Some(10_000);
        }
        specs.push(budgeted);
        let mut requests: Vec<Request> = specs.into_iter().map(Request::Submit).collect();
        requests.extend([
            Request::Ping,
            Request::Status,
            Request::Metrics,
            Request::Result(17),
            Request::Shutdown,
        ]);
        for req in requests {
            let line = encode_request(&req);
            assert!(!line.contains('\n'), "{line:?}");
            assert_eq!(parse_request(&line).unwrap(), req, "{line:?}");
        }
    }

    #[test]
    fn responses_round_trip() {
        let outcome = JobOutcome {
            id: 7,
            ok: true,
            from_store: true,
            kind: OutcomeKind::Completed,
            digest: "00ff".repeat(8),
            checks: 120,
            cache_hits: 119,
            theory_calls: 1,
            assumption_queries: 40,
            assumption_hits: 39,
            trail_ops: 37,
            max_trail_depth: 4,
            saturation_reuses: 12,
            resaturations: 2,
            verdict: "refuted: x = 1, size = 3\nsecond line".into(),
        };
        let responses = [
            Response::Pong,
            Response::Bye,
            Response::Queued(3),
            Response::Busy(100),
            Response::Err("no such job\tid".into()),
            Response::Status(StatusInfo {
                queued: 1,
                running: 2,
                done: 3,
                memo_entries: 400,
                pipeline_store: 18,
                journaled: 3,
            }),
            // A METRICS payload is a multi-line exposition: the escaping
            // must keep it on one physical line and round-trip exactly.
            Response::Metrics(
                "# HELP shadowdp_jobs_done_total Jobs completed\n\
                 # TYPE shadowdp_jobs_done_total counter\n\
                 shadowdp_jobs_done_total 18\n"
                    .into(),
            ),
            Response::Result(outcome.clone()),
            Response::Result(JobOutcome {
                id: 8,
                ok: false,
                from_store: false,
                kind: OutcomeKind::Crashed,
                verdict: "crashed: injected panic".into(),
                ..outcome
            }),
        ];
        for resp in responses {
            let line = encode_response(&resp);
            assert!(!line.contains('\n'), "{line:?}");
            assert_eq!(parse_response(&line).unwrap(), resp, "{line:?}");
        }
    }

    /// A reader skips keys it does not know and defaults the optional
    /// ones it does; `ok` follows `kind` and is never read or sent.
    #[test]
    fn unknown_keys_are_skipped_and_absent_keys_default() {
        for kind in ["completed", "exhausted", "error", "crashed"] {
            let line = format!("RESULT\tid=4\tok=1\tnew=9\tkind={kind}\tdigest=d\tverdict=v");
            let Ok(Response::Result(r)) = parse_response(&line) else {
                panic!("{line:?} parses");
            };
            assert_eq!(
                (r.id, r.checks, r.trail_ops, r.from_store),
                (4, 0, 0, false)
            );
            assert_eq!(r.ok, matches!(kind, "completed" | "exhausted"), "{line:?}");
            assert!(!encode_response(&Response::Result(r)).contains("\tok="));
        }
        let status = StatusInfo {
            queued: 2,
            ..StatusInfo::default()
        };
        let line = "STATUS\tqueued=2\tstore_hits=7";
        assert_eq!(parse_response(line), Ok(Response::Status(status)));
        let line = "SUBMIT\tpriority=high\tsource=o := 0;";
        assert_eq!(
            parse_request(line),
            Ok(Request::Submit(JobSpec::new("o := 0;")))
        );
    }

    #[test]
    fn malformed_lines_are_errors_not_panics() {
        let submit = "SUBMIT\tmode=scaled\tengine=bmc\tlist_len=3\tmax_rounds=24\tsource=s";
        let result = "RESULT\tid=1\tkind=completed\tdigest=abc\tverdict=proved";
        assert!(parse_request(submit).is_ok() && parse_response(result).is_ok());
        // Each required key left out; a bad or repeated value added.
        let cut = |line: &str, field: &str| line.replace(&format!("\t{field}"), "");
        let mut requests = ["engine=bmc", "list_len=3", "max_rounds=24", "source=s"]
            .map(|field| cut(submit, field))
            .to_vec();
        requests.extend(
            [
                "isolated=1",
                "list_len=x",
                "budget_ms=-",
                "source=\\x",
                "source=t",
            ]
            .map(|field| format!("{submit}\t{field}")),
        );
        requests.extend(
            [
                "",
                "NOPE",
                "RESULT",
                "RESULT\tx",
                "SUBMIT",
                // Option keys without `mode`.
                "SUBMIT\tsource=s\tbudget_ms=5",
                "SUBMIT\tsource=s\tassume=x > 0",
                // Positional lines: their first field has no `=`.
                "SUBMIT\t0\t-\t-\t-\t-\t-\t-\t-\t0\tsrc",
                "SUBMIT\t0\tscaled\tbmc\t3\t-\t24\t-\t-\t1\tx > 0\tsrc",
            ]
            .map(String::from),
        );
        let mut responses = ["id=1", "kind=completed", "digest=abc", "verdict=proved"]
            .map(|field| cut(result, field))
            .to_vec();
        responses.extend(
            ["id=x", "kind=bogus", "from_store=1", "checks=-1", "id=2"]
                .map(|field| format!("{result}\t{field}")),
        );
        responses.extend(
            [
                "RESULT\t1\tok\tstore\tcompleted\tabc\t0\tproved",
                "STATUS\t1\t2\t3\t4\t5\t6",
                "METRICS",
                "BUSY\tnope",
                "QUEUED\tnope",
            ]
            .map(String::from),
        );
        for line in requests {
            assert!(parse_request(&line).is_err(), "{line:?}");
        }
        for line in responses {
            assert!(parse_response(&line).is_err(), "{line:?}");
        }
        // `LINT` is no verb either way: `shadowdp lint` runs in the client.
        let unknown = |dir: &str| ProtoError(format!("unknown {dir} `LINT`"));
        assert_eq!(parse_request("LINT\tsrc"), Err(unknown("request")));
        assert_eq!(parse_response("LINT\tpayload"), Err(unknown("response")));
    }
}
