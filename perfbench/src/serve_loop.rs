//! The end-to-end path: one typed client drives the real serve loop over
//! an in-process pipe.
//!
//! The server is `ess_service::serve_configured` on its own thread with a
//! `worker-pool` backend, round-robin scheduling and unfused rounds. One
//! generator (this thread) holds one connection. The loop is closed: the
//! serve loop is pull-driven, so rounds only run inside `advance`, and
//! the generator waits for every reply. It keeps each class's sessions in
//! flight, submits every run with `watch:true`, reads the `progress` and
//! `done` frames one `advance{rounds:1}` at a time, checks every `done`
//! against its reference fingerprint and submits a replacement of the
//! same class for each one. Every half second, between two rounds, it
//! also times one set-up of a second, short-lived server ([`setup_once`]).

use crate::trace::{now, SharedTracer};
use crate::window::Window;
use crate::workload::{Fingerprint, Plan, Ramp, Rotation};
use ess::fitness::EvalBackend;
use ess_client::pipe::{duplex, PipeReader};
use ess_client::{Client, ClientError};
use ess_service::proto::Frame;
use ess_service::{serve_configured, PolicyKind, RunSpec, SessionId};
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, BufRead, BufReader, Read};
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Trace lane of the client-side spans.
pub const LANE_CLIENT: u32 = 1;

/// Interval between set-up samples inside the loop.
const SETUP_EVERY: Duration = Duration::from_millis(500);

/// Rounds a session may stay live beyond `steps + 1` before it counts as
/// never sending `done`.
const LOST_SLACK_ROUNDS: usize = 2;

/// Per-line bookkeeping on the response stream: when each async frame
/// arrived and, in a traced run, the raw lines themselves.
#[derive(Debug, Default)]
struct TapLog {
    arrivals: VecDeque<Instant>,
    capture: Option<Vec<String>>,
}

/// A `BufRead` wrapper that timestamps every line the client reads.
/// Async frames (`{"v":2,"kind":...}`) queue their arrival instant; replies
/// (`{"v":2,"id":...}`) do not, so the queue lines up with the client's
/// stashed events.
struct Tap<R> {
    inner: R,
    log: Rc<RefCell<TapLog>>,
}

const ASYNC_FRAME_PREFIX: &str = "{\"v\":2,\"kind\":";

impl<R: BufRead> Read for Tap<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.inner.read(buf)
    }
}

impl<R: BufRead> BufRead for Tap<R> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        self.inner.fill_buf()
    }

    fn consume(&mut self, amt: usize) {
        self.inner.consume(amt);
    }

    fn read_line(&mut self, buf: &mut String) -> io::Result<usize> {
        let from = buf.len();
        let n = self.inner.read_line(buf)?;
        let at = now();
        if n > 0 {
            let line = buf[from..].trim_end();
            let mut log = self.log.borrow_mut();
            if line.starts_with(ASYNC_FRAME_PREFIX) {
                log.arrivals.push_back(at);
            }
            if let Some(lines) = log.capture.as_mut() {
                lines.push(line.to_string());
            }
        }
        Ok(n)
    }
}

/// One session the generator is waiting on.
#[derive(Debug)]
struct Live {
    class: usize,
    spec: usize,
    run_at: Instant,
    last_progress: Option<Instant>,
    rounds: usize,
    expected_rounds: usize,
}

/// A completion inside the measured window.
#[derive(Debug, Clone)]
pub struct Completion {
    /// `run` written → `done` read, ms (`INFINITY` for a failure).
    pub latency_ms: f64,
    /// Wall time the server billed to the session, ms.
    pub wall_ms: f64,
    /// Scheduler rounds (= `advance{rounds:1}` calls) the session was live.
    pub rounds: usize,
    /// Scenario evaluations the session spent.
    pub evaluations: u64,
    /// False for a failed session.
    pub ok: bool,
}

/// Everything one closed-loop run measured.
#[derive(Debug, Default)]
pub struct LoopRun {
    /// Window length, s.
    pub window_s: f64,
    /// Completions (finished or failed) inside the window.
    pub completions: Vec<Completion>,
    /// `run` written → first `progress` read, ms, in the window.
    pub first_progress_ms: Vec<f64>,
    /// Gaps between consecutive `progress` frames of one session, ms.
    pub step_gap_ms: Vec<f64>,
    /// `run` request round trips (run → `accepted`), ms, in the window.
    pub run_rtt_ms: Vec<f64>,
    /// `advance{rounds:1}` round trips, ms, in the window.
    pub advance_rtt_ms: Vec<f64>,
    /// Operations whose outcome fell in the window.
    pub attempted: usize,
    /// Of those, failed: error replies, non-`finished` terminals,
    /// fingerprint mismatches and sessions that never sent `done`.
    pub failed: usize,
    /// Descriptions of every failure, in or out of the window.
    pub failures: Vec<String>,
    /// Observed fingerprint per `(class, spec)` — the first `done` of each
    /// distinct spec anywhere in the run.
    pub observed: BTreeMap<(usize, usize), Fingerprint>,
    /// Sessions completed over the whole run (warm-up included).
    pub sessions_total: usize,
    /// Raw response lines (traced runs only).
    pub captured: Vec<String>,
    /// `(start, end)` of the window.
    pub bounds: Option<(Instant, Instant)>,
    /// Set-up samples ([`setup_once`]) taken between rounds, s.
    pub setup_s: Vec<f64>,
}

/// Runs the closed loop over a fresh serve thread for a window of at
/// least `seconds`; with `tracer`, records client-side spans and captures
/// the response lines.
///
/// # Errors
/// Transport and protocol failures, which end the run.
pub fn run(plan: &Plan, seconds: f64, tracer: Option<&SharedTracer>) -> Result<LoopRun, String> {
    let (mut client, server) = connect(tracer.is_some());
    let driven = drive(&mut client.0, &client.1, plan, seconds, tracer);
    let shutdown = if driven.is_ok() {
        client.0.quit().map_err(|e| format!("quit: {e}"))
    } else {
        Ok(())
    };
    let captured = client.1.borrow_mut().capture.take().unwrap_or_default();
    drop(client);
    let served = server
        .join()
        .map_err(|_| "serve thread panicked".to_string())?
        .map_err(|e| format!("serve loop I/O: {e}"));
    let mut out = driven?;
    shutdown?;
    served?;
    out.captured = captured;
    Ok(out)
}

type TapClient = Client<Tap<BufReader<PipeReader>>, ess_client::pipe::PipeWriter>;
type ServeHandle = std::thread::JoinHandle<io::Result<ess_service::ServeSummary>>;

/// Starts a serve thread on the served `worker-pool` and connects a
/// client to it.
fn connect(capture: bool) -> ((TapClient, Rc<RefCell<TapLog>>), ServeHandle) {
    let (req_w, req_r) = duplex();
    let (resp_w, resp_r) = duplex();
    let backend = EvalBackend::WorkerPool(crate::POOL_WORKERS);
    let server = crate::start_thread("serve", move || {
        serve_configured(
            BufReader::new(req_r),
            resp_w,
            backend,
            PolicyKind::RoundRobin,
            false,
        )
    });
    let log = Rc::new(RefCell::new(TapLog {
        arrivals: VecDeque::new(),
        capture: capture.then(Vec::new),
    }));
    let tap = Tap {
        inner: BufReader::new(resp_r),
        log: Rc::clone(&log),
    };
    ((Client::new(tap, req_w), log), server)
}

/// Set-up cost of the served path: start a serve thread with its worker
/// pool, connect, and submit `spec` until the server has built its case
/// and replied `accepted`. Returns seconds.
///
/// # Errors
/// Transport failures and a refused `spec`.
pub fn setup_once(spec: &RunSpec) -> Result<f64, String> {
    let start = now();
    let ((mut client, _log), server) = connect(false);
    client
        .run(spec, false)
        .map_err(|e| format!("setup run: {e}"))?;
    let elapsed = now().saturating_duration_since(start).as_secs_f64();
    client.quit().map_err(|e| format!("setup quit: {e}"))?;
    drop(client);
    server
        .join()
        .map_err(|_| "serve thread panicked".to_string())?
        .map_err(|e| format!("serve loop I/O: {e}"))?;
    Ok(elapsed)
}

fn ms(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

fn drive(
    client: &mut TapClient,
    log: &Rc<RefCell<TapLog>>,
    plan: &Plan,
    seconds: f64,
    tracer: Option<&SharedTracer>,
) -> Result<LoopRun, String> {
    let span = |name: &'static str, start: Instant, end: Instant, session: Option<u64>| {
        if let Some(t) = tracer {
            crate::trace::lock(t).record(name, start, end, session, LANE_CLIENT);
        }
    };
    let mut out = LoopRun::default();
    let mut live: BTreeMap<SessionId, Live> = BTreeMap::new();
    let mut rotation = Rotation::new(plan);
    let mut window = Window::new(plan.in_flight(), seconds);
    let mut next_setup = now();

    let mut submit = |class: usize,
                      client: &mut TapClient,
                      live: &mut BTreeMap<SessionId, Live>,
                      out: &mut LoopRun,
                      window: &mut Window|
     -> Result<(), String> {
        let spec_index = rotation.next_index(plan, class);
        let planned = &plan.specs[class][spec_index];
        let start = now();
        let accepted = client.run(&planned.spec, true);
        let end = now();
        match accepted {
            Ok(ids) if ids.len() == 1 => {
                span("client.run", start, end, Some(ids[0]));
                if window.is_open() {
                    out.run_rtt_ms.push(ms(start, end));
                }
                live.insert(
                    ids[0],
                    Live {
                        class,
                        spec: spec_index,
                        run_at: start,
                        last_progress: None,
                        rounds: 0,
                        expected_rounds: planned.reference.steps + 1,
                    },
                );
                Ok(())
            }
            Ok(ids) => Err(format!("one replicate accepted as {} sessions", ids.len())),
            Err(ClientError::Server(message)) => {
                fail(out, window, end, format!("run refused: {message}"));
                Ok(())
            }
            Err(e) => Err(format!("run: {e}")),
        }
    };

    let mut ramp = Ramp::new(plan);
    for class in ramp.next_round() {
        submit(class, client, &mut live, &mut out, &mut window)?;
    }

    while !window.is_closed() {
        if live.is_empty() {
            return Err("no session in flight: every submission was refused".to_string());
        }
        let start = now();
        let (_, server_live) = client.advance(1).map_err(|e| format!("advance: {e}"))?;
        let end = now();
        span("client.advance", start, end, None);
        if window.is_open() {
            out.advance_rtt_ms.push(ms(start, end));
        }
        for s in live.values_mut() {
            s.rounds += 1;
        }
        let events = client.take_events();
        let arrivals: Vec<Instant> = {
            let mut log = log.borrow_mut();
            let n = events.len().min(log.arrivals.len());
            log.arrivals.drain(..n).collect()
        };
        if arrivals.len() != events.len() {
            return Err("frame arrival log out of step with the client's events".to_string());
        }
        let mut replace = Vec::new();
        for (event, at) in events.into_iter().zip(arrivals) {
            match event {
                Frame::Progress { session, .. } => {
                    let s = live
                        .get_mut(&session)
                        .ok_or_else(|| format!("progress for unknown session {session}"))?;
                    if window.is_open() {
                        match s.last_progress {
                            None => out.first_progress_ms.push(ms(s.run_at, at)),
                            Some(prev) => out.step_gap_ms.push(ms(prev, at)),
                        }
                    }
                    s.last_progress = Some(at);
                }
                Frame::Done(done) => {
                    let s = live
                        .remove(&done.session)
                        .ok_or_else(|| format!("done for unknown session {}", done.session))?;
                    out.sessions_total += 1;
                    replace.push(s.class);
                    let planned = &plan.specs[s.class][s.spec];
                    let got = Fingerprint::of_done(&done);
                    out.observed
                        .entry((s.class, s.spec))
                        .or_insert_with(|| got.clone());
                    let ok = got == planned.reference;
                    if !ok {
                        out.failures.push(format!(
                            "session {} ({} on {}): done {:?} != reference {:?}",
                            done.session,
                            planned.spec.system_name(),
                            planned.spec.case_name(),
                            got,
                            planned.reference
                        ));
                    }
                    if window.on_done(at) {
                        out.attempted += 1;
                        out.failed += usize::from(!ok);
                        out.completions.push(Completion {
                            latency_ms: if ok { ms(s.run_at, at) } else { f64::INFINITY },
                            wall_ms: done.wall_ms,
                            rounds: s.rounds,
                            evaluations: done.total_evaluations,
                            ok,
                        });
                    }
                }
                Frame::Reply { id, .. } => {
                    return Err(format!("unsolicited reply to request {id}"));
                }
            }
        }
        // A session live past its last round never sent `done`.
        let lost: Vec<SessionId> = live
            .iter()
            .filter(|(_, s)| s.rounds > s.expected_rounds + LOST_SLACK_ROUNDS)
            .map(|(&id, _)| id)
            .collect();
        for id in lost {
            let s = live.remove(&id).expect("lost id taken from the live map");
            client
                .cancel(id)
                .map_err(|e| format!("cancel lost session {id}: {e}"))?;
            replace.push(s.class);
            fail(
                &mut out,
                &mut window,
                now(),
                format!("session {id} never sent done"),
            );
        }
        window.end_round(out.observed.len() == plan.distinct());
        if server_live != live.len() {
            return Err(format!(
                "server reports {server_live} live sessions, client tracks {}",
                live.len()
            ));
        }
        if window.is_closed() {
            break;
        }
        // Between rounds the served pool is idle, so a set-up sample
        // here shares the host state of the whole loop.
        if now() >= next_setup {
            let start = now();
            out.setup_s.push(setup_once(&plan.specs[0][0].spec)?);
            let end = now();
            span("perfbench.setup", start, end, None);
            next_setup = end + SETUP_EVERY;
        }
        for class in replace.into_iter().chain(ramp.next_round()) {
            submit(class, client, &mut live, &mut out, &mut window)?;
        }
    }
    for &id in live.keys() {
        client
            .cancel(id)
            .map_err(|e| format!("cancel session {id} at window end: {e}"))?;
    }
    out.window_s = window.seconds().unwrap_or(0.0);
    out.bounds = window.bounds();
    Ok(out)
}

/// Books a failed operation seen at `at`.
fn fail(out: &mut LoopRun, window: &mut Window, at: Instant, why: String) {
    if window.on_done(at) {
        out.attempted += 1;
        out.failed += 1;
        out.completions.push(Completion {
            latency_ms: f64::INFINITY,
            wall_ms: 0.0,
            rounds: 0,
            evaluations: 0,
            ok: false,
        });
    }
    out.failures.push(why);
}
