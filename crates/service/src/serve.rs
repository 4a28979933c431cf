//! The line-delimited JSON serve loop: protocol v2 over one transport.
//!
//! One request per input line, one or more JSON frames per line of
//! output — dependency-free, so `harness serve` can speak it over
//! stdin/stdout and tests can drive it through in-memory buffers.
//!
//! Every request is a protocol-v2 envelope carrying `"v":2`
//! ([`crate::proto`] — typed requests, streaming progress frames,
//! checkpoint/resume). The headline operations are `advance` (run a
//! bounded number of scheduler rounds, so clients can interleave control
//! with execution), `snapshot`/`restore` (checkpoint/resume via
//! [`crate::SessionSnapshot`]), and per-session `progress` streaming for
//! sessions submitted with `"watch":true`. Any other line — unparseable
//! bytes, an object without `"v":2`, a line longer than
//! [`MAX_REQUEST_LINE_BYTES`] — is answered with one `error` frame.
//!
//! Execution always happens on the **server's** shared pool (every session
//! of every client multiplexes one worker pool — that is the point of the
//! serving layer), so a spec's `backend` member is ignored. The
//! scheduling discipline is chosen per serve invocation ([`PolicyKind`],
//! the harness `--policy` flag). End of input implies `drain` (pending
//! sessions still run) and then `quit`, so piping a canned request file
//! works without a trailing quit line. Malformed lines produce an error
//! frame and the loop continues — one bad request must not take down a
//! server multiplexing other clients' sessions.

use crate::jsonio::Json;
use crate::policy::PolicyKind;
use crate::proto::{DoneFrame, Frame, Reply, Request, RequestKind};
use crate::scheduler::{Scheduler, SessionId, SessionOutcome};
use crate::session::SessionEvent;
use ess::error::BudgetReason;
use ess::fitness::EvalBackend;
use ess::pipeline::RunReport;
use std::collections::HashMap;
use std::io::{self, BufRead, Read, Write};

/// The longest request line the serve loop reads, in bytes, newline
/// excluded. The largest legitimate request is a `restore` carrying a
/// snapshot (at most about 1.6 KB on the shipped cases). A longer line is
/// answered with one `error` frame and its bytes are discarded through
/// the next newline, so a client that never sends a newline cannot grow
/// the server's memory without bound.
pub const MAX_REQUEST_LINE_BYTES: usize = 1 << 20;

/// Counters the serve loop reports when it exits (the `--self-test`
/// assertions run against these).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Sessions accepted (including restored ones).
    pub accepted: usize,
    /// Sessions that ran every step.
    pub finished: usize,
    /// Sessions stopped by a budget.
    pub exhausted: usize,
    /// Sessions cancelled by request.
    pub cancelled: usize,
    /// Request lines answered with an error frame.
    pub errors: usize,
    /// Snapshots handed out.
    pub snapshots: usize,
    /// Sessions restored from a snapshot.
    pub restored: usize,
}

/// One live session's streaming state: whether the client watches its
/// progress, and its cumulative evaluations and best fitness for the
/// progress frames.
struct Stream {
    watch: bool,
    evaluations: u64,
    best: f64,
}

impl Stream {
    fn new(watch: bool, evaluations: u64, best: f64) -> Self {
        Stream {
            watch,
            evaluations,
            best,
        }
    }
}

/// Every live session's [`Stream`] on one connection.
type Streams = HashMap<SessionId, Stream>;

/// Runs the serve loop with the default round-robin policy: reads
/// requests from `input` until `quit` or end of input, writes frames to
/// `out`, executes every session on one shared pool built from `backend`.
///
/// # Errors
/// Propagates I/O errors from the transport; protocol-level problems are
/// reported in-band as error frames.
pub fn serve<R: BufRead, W: Write>(
    input: R,
    out: W,
    backend: EvalBackend,
) -> io::Result<ServeSummary> {
    serve_with(input, out, backend, PolicyKind::RoundRobin)
}

/// [`serve`] with an explicit scheduling policy — the `harness serve
/// --policy` entry point.
///
/// # Errors
/// Propagates I/O errors from the transport; protocol-level problems are
/// reported in-band as error frames.
pub fn serve_with<R: BufRead, W: Write>(
    input: R,
    out: W,
    backend: EvalBackend,
    policy: PolicyKind,
) -> io::Result<ServeSummary> {
    serve_configured(input, out, backend, policy, false)
}

/// [`serve_with`] plus the fusion switch: with `fused` on, every
/// scheduler round runs its planned sessions' steps concurrently and
/// fuses their evaluation batches into one shared-pool mega-batch per
/// wave ([`Scheduler::set_fused`]) — the protocol stream is identical,
/// frame for frame, because fused rounds are bit-identical to unfused
/// ones. The `harness serve --fused` entry point.
///
/// # Errors
/// Propagates I/O errors from the transport; protocol-level problems are
/// reported in-band as error frames.
pub fn serve_configured<R: BufRead, W: Write>(
    mut input: R,
    mut out: W,
    backend: EvalBackend,
    policy: PolicyKind,
    fused: bool,
) -> io::Result<ServeSummary> {
    let mut scheduler = Scheduler::with_policy(backend, policy);
    scheduler.set_fused(fused);
    let mut summary = ServeSummary::default();
    let mut streams = Streams::new();
    let mut line = Vec::new();

    loop {
        let text = match read_request_line(&mut input, &mut line)? {
            Line::Eof => break,
            Line::TooLong => {
                let message =
                    format!("request line longer than {MAX_REQUEST_LINE_BYTES} bytes; discarded");
                emit_error(&mut out, &mut summary, 0, &message)?;
                continue;
            }
            Line::Request => match std::str::from_utf8(&line) {
                Ok(text) => text,
                Err(_) => {
                    emit_error(&mut out, &mut summary, 0, "request line is not UTF-8")?;
                    continue;
                }
            },
        };
        if text.trim().is_empty() {
            continue;
        }
        let request = match Json::parse(text) {
            Ok(v) => v,
            Err(e) => {
                emit_error(&mut out, &mut summary, 0, &e.to_string())?;
                continue;
            }
        };
        match Request::from_json(&request) {
            Ok(req) => {
                if handle(&mut scheduler, &mut out, &mut summary, &mut streams, req)? {
                    return Ok(summary);
                }
            }
            Err(reason) => {
                let id = request.get("id").and_then(Json::as_u64).unwrap_or(0);
                emit_error(&mut out, &mut summary, id, &reason)?;
            }
        }
    }
    // End of input: run whatever is still pending, then leave (correlation
    // id 0 — there was no request line).
    let (_, drained) = run_rounds(&mut scheduler, &mut out, &mut summary, &mut streams, None)?;
    reply(&mut out, 0, Reply::Drained { sessions: drained })?;
    reply(&mut out, 0, Reply::Bye)?;
    Ok(summary)
}

/// What one [`read_request_line`] call left in the line buffer.
enum Line {
    /// One request line, newline (and a trailing `\r`) stripped.
    Request,
    /// A line over [`MAX_REQUEST_LINE_BYTES`]; its bytes were discarded.
    TooLong,
    /// End of input, nothing pending.
    Eof,
}

/// Reads the next line into `line`. The buffer grows only as bytes
/// arrive and never past [`MAX_REQUEST_LINE_BYTES`] plus the newline; an
/// over-long line is skipped through its newline (or end of input). A
/// final line without a newline still counts as a request.
fn read_request_line<R: BufRead>(input: &mut R, line: &mut Vec<u8>) -> io::Result<Line> {
    line.clear();
    let limit = MAX_REQUEST_LINE_BYTES + 1;
    if input.by_ref().take(limit as u64).read_until(b'\n', line)? == 0 {
        return Ok(Line::Eof);
    }
    if line.last() == Some(&b'\n') {
        line.pop();
        if line.last() == Some(&b'\r') {
            line.pop();
        }
    } else if line.len() == limit {
        // Release what the partial line held.
        *line = Vec::new();
        input.skip_until(b'\n')?;
        return Ok(Line::TooLong);
    }
    Ok(Line::Request)
}

/// Handles one request; returns `true` when the loop should end.
fn handle<W: Write>(
    scheduler: &mut Scheduler,
    out: &mut W,
    summary: &mut ServeSummary,
    streams: &mut Streams,
    req: Request,
) -> io::Result<bool> {
    let id = req.id;
    match req.kind {
        RequestKind::Run { spec, watch } => {
            // The spec's `backend` member is ignored here: sessions share
            // the server's pool (snapshots legitimately carry the field).
            match scheduler.submit(&spec) {
                Ok(ids) => {
                    summary.accepted += ids.len();
                    for &sid in &ids {
                        streams.insert(sid, Stream::new(watch, 0, f64::NEG_INFINITY));
                    }
                    reply(out, id, Reply::Accepted { sessions: ids })?;
                }
                Err(e) => emit_error(out, summary, id, &e.to_string())?,
            }
        }
        RequestKind::Restore { snapshot, watch } => match snapshot.restore_on(scheduler.pool()) {
            Ok(session) => {
                let evaluations = session.evaluations_spent();
                let best = session
                    .steps()
                    .iter()
                    .map(|s| s.os_best_fitness)
                    .fold(f64::NEG_INFINITY, f64::max);
                let sid = scheduler.submit_session(session);
                summary.accepted += 1;
                summary.restored += 1;
                streams.insert(sid, Stream::new(watch, evaluations, best));
                reply(
                    out,
                    id,
                    Reply::Accepted {
                        sessions: vec![sid],
                    },
                )?;
            }
            Err(e) => emit_error(out, summary, id, &e.to_string())?,
        },
        RequestKind::Advance { rounds } => {
            let (ran, _) = run_rounds(scheduler, out, summary, streams, Some(rounds))?;
            reply(
                out,
                id,
                Reply::Advanced {
                    rounds: ran,
                    live: scheduler.live_count(),
                },
            )?;
        }
        RequestKind::Snapshot { session } => {
            match scheduler.live().find(|(sid, _)| *sid == session) {
                Some((_, live)) => match live.snapshot() {
                    Ok(snapshot) => {
                        summary.snapshots += 1;
                        reply(
                            out,
                            id,
                            Reply::Snapshot {
                                session,
                                snapshot: Box::new(snapshot),
                            },
                        )?;
                    }
                    Err(e) => emit_error(out, summary, id, &e.to_string())?,
                },
                None => emit_error(
                    out,
                    summary,
                    id,
                    &format!("no live session {session} to snapshot"),
                )?,
            }
        }
        RequestKind::Cancel { session } => {
            if scheduler.cancel(session) {
                summary.cancelled += 1;
                streams.remove(&session);
                reply(out, id, Reply::Cancelled { session })?;
            } else {
                emit_error(
                    out,
                    summary,
                    id,
                    &format!("no live session {session} to cancel"),
                )?;
            }
        }
        RequestKind::Drain => {
            let (_, drained) = run_rounds(scheduler, out, summary, streams, None)?;
            reply(out, id, Reply::Drained { sessions: drained })?;
        }
        RequestKind::Quit => {
            reply(out, id, Reply::Bye)?;
            return Ok(true);
        }
    }
    Ok(false)
}

/// Runs scheduler rounds (all of them, or at most `max_rounds`),
/// streaming every session event, and folds the newly completed outcomes
/// into the summary. Returns (rounds run, sessions that reached a
/// terminal event).
fn run_rounds<W: Write>(
    scheduler: &mut Scheduler,
    out: &mut W,
    summary: &mut ServeSummary,
    streams: &mut Streams,
    max_rounds: Option<usize>,
) -> io::Result<(usize, usize)> {
    let before = scheduler.outcomes().len();
    let mut rounds = 0usize;
    while scheduler.live_count() > 0 && max_rounds.is_none_or(|m| rounds < m) {
        let events = scheduler.round();
        rounds += 1;
        for (id, event) in events {
            emit_session_event(out, streams, id, &event)?;
        }
    }
    for (_, outcome) in scheduler.outcomes().get(before..).unwrap_or_default() {
        match outcome {
            SessionOutcome::Finished(_) => summary.finished += 1,
            SessionOutcome::Exhausted { .. } => summary.exhausted += 1,
        }
    }
    let drained = scheduler.outcomes().len() - before;
    // Release the retained reports: a server process drains many times,
    // and nothing reads an outcome after its `done` frame went out.
    let _ = scheduler.take_outcomes();
    Ok((rounds, drained))
}

/// Streams one session event: a `progress` frame for a watched session's
/// step, a `done` frame for every terminal event.
fn emit_session_event<W: Write>(
    out: &mut W,
    streams: &mut Streams,
    id: SessionId,
    event: &SessionEvent,
) -> io::Result<()> {
    match event {
        SessionEvent::StepCompleted(step) => {
            let Some(stream) = streams.get_mut(&id) else {
                return Ok(());
            };
            stream.evaluations += step.evaluations;
            stream.best = stream.best.max(step.os_best_fitness);
            if stream.watch {
                let progress = Frame::Progress {
                    session: id,
                    step: step.step,
                    evaluations: stream.evaluations,
                    best: stream.best,
                };
                emit(out, progress.to_json())?;
            }
            Ok(())
        }
        SessionEvent::Finished(report) => {
            streams.remove(&id);
            emit(out, done_frame(id, "finished", None, report).to_json())
        }
        SessionEvent::BudgetExhausted { reason, partial } => {
            streams.remove(&id);
            let status = match reason {
                BudgetReason::Cancelled => "cancelled",
                _ => "exhausted",
            };
            emit(
                out,
                done_frame(id, status, Some(&reason.to_string()), partial).to_json(),
            )
        }
    }
}

/// The v2 terminal frame for one completed session.
fn done_frame(id: SessionId, status: &str, reason: Option<&str>, report: &RunReport) -> Frame {
    Frame::Done(DoneFrame {
        session: id,
        status: status.to_string(),
        reason: reason.map(str::to_string),
        system: report.system.to_string(),
        case: report.case.to_string(),
        steps: report.steps.len(),
        mean_quality: report.mean_quality(),
        total_evaluations: report.total_evaluations(),
        wall_ms: report.total_ms,
    })
}

/// The canned request script of [`self_test`]: eight sessions (every
/// registered system × two replicates) multiplexed over one pool, plus a
/// deliberate unknown-system request, an unknown-case request and a
/// cancellation, so the error and cancel paths are exercised too.
pub fn self_test_script() -> String {
    [
        r#"{"v":2,"id":1,"kind":"run","spec":{"system":"ESS","case":"meadow_small","seed":11,"replicates":2,"scale":0.15}}"#,
        r#"{"v":2,"id":2,"kind":"run","spec":{"system":"ESSIM-EA","case":"meadow_small","seed":12,"replicates":2,"scale":0.15,"max_steps":1}}"#,
        r#"{"v":2,"id":3,"kind":"run","spec":{"system":"ESSIM-DE","case":"meadow_small","seed":13,"replicates":2,"scale":0.15,"max_steps":1}}"#,
        r#"{"v":2,"id":4,"kind":"run","spec":{"system":"ESS-NS","case":"meadow_small","seed":14,"replicates":2,"scale":0.15}}"#,
        r#"{"v":2,"id":5,"kind":"run","spec":{"system":"ESS-9000","case":"meadow_small"}}"#,
        r#"{"v":2,"id":6,"kind":"run","spec":{"system":"ESS","case":"lost_valley"}}"#,
        r#"{"v":2,"id":7,"kind":"cancel","session":8}"#,
        r#"{"v":2,"id":8,"kind":"drain"}"#,
        r#"{"v":2,"id":9,"kind":"quit"}"#,
        "",
    ]
    .join("\n")
}

/// Runs [`self_test_script`] through the serve loop on `backend`, writing
/// the protocol output to `out`, and checks the summary against the
/// script's known shape. The CI smoke job runs this via
/// `harness serve --self-test`.
///
/// # Errors
/// A one-line description of the first mismatch (or transport failure).
pub fn self_test<W: Write>(out: W, backend: EvalBackend) -> Result<ServeSummary, String> {
    let script = self_test_script();
    let summary = serve(script.as_bytes(), out, backend).map_err(|e| format!("serve I/O: {e}"))?;
    let expect = |label: &str, got: usize, want: usize| {
        if got == want {
            Ok(())
        } else {
            Err(format!("self-test: expected {want} {label}, got {got}"))
        }
    };
    expect("accepted sessions", summary.accepted, 8)?;
    expect("error frames", summary.errors, 2)?;
    expect("cancelled sessions", summary.cancelled, 1)?;
    expect("exhausted sessions", summary.exhausted, 4)?;
    expect("finished sessions", summary.finished, 3)?;
    Ok(summary)
}

fn emit<W: Write>(out: &mut W, event: Json) -> io::Result<()> {
    writeln!(out, "{event}")
}

fn reply<W: Write>(out: &mut W, id: u64, reply: Reply) -> io::Result<()> {
    emit(out, Frame::Reply { id, reply }.to_json())
}

fn emit_error<W: Write>(
    out: &mut W,
    summary: &mut ServeSummary,
    id: u64,
    message: &str,
) -> io::Result<()> {
    summary.errors += 1;
    reply(
        out,
        id,
        Reply::Error {
            message: message.to_string(),
        },
    )
}
