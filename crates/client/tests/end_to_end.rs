//! End-to-end protocol v2: a typed [`Client`] driving a real serve loop
//! in another thread over in-memory pipes — submit, stream, checkpoint,
//! kill, resume, and verify the resumed session's final report matches an
//! uninterrupted run of the same spec bit for bit (deterministic fields).

use ess::fitness::EvalBackend;
use ess_client::{pipe, Client, ClientError};
use ess_service::proto::{DoneFrame, Frame};
use ess_service::serve::serve_with;
use ess_service::{PolicyKind, RunSpec};
use std::io::BufReader;
use std::thread;

/// The deterministic fields of a done frame (wall time excluded).
fn fingerprint(d: &DoneFrame) -> (String, String, String, usize, u64, u64) {
    (
        d.status.clone(),
        d.system.clone(),
        d.case.clone(),
        d.steps,
        d.mean_quality.to_bits(),
        d.total_evaluations,
    )
}

fn spawn_server(
    policy: PolicyKind,
) -> (
    Client<BufReader<pipe::PipeReader>, pipe::PipeWriter>,
    thread::JoinHandle<std::io::Result<ess_service::ServeSummary>>,
) {
    let (req_w, req_r) = pipe::duplex();
    let (resp_w, resp_r) = pipe::duplex();
    let server = thread::spawn(move || {
        serve_with(
            BufReader::new(req_r),
            resp_w,
            EvalBackend::WorkerPool(2),
            policy,
        )
    });
    (Client::new(BufReader::new(resp_r), req_w), server)
}

#[test]
fn kill_and_resume_matches_the_uninterrupted_run() {
    let (mut client, server) = spawn_server(PolicyKind::RoundRobin);
    let spec = RunSpec::new("ESS-NS", "meadow_small").seed(5).scale(0.2);

    // Reference: the same spec, never interrupted.
    let reference_ids = client.run(&spec, true).expect("reference accepted");
    assert_eq!(reference_ids.len(), 1);
    client.drain().expect("reference drains");
    let reference: Vec<DoneFrame> = client
        .take_events()
        .into_iter()
        .filter_map(|f| match f {
            Frame::Done(d) => Some(d),
            _ => None,
        })
        .collect();
    assert_eq!(reference.len(), 1);
    assert_eq!(reference[0].status, "finished");

    // Interrupted: advance a little, checkpoint, kill, resume, drain.
    let ids = client.run(&spec, true).expect("accepted");
    let (ran, live) = client.advance(2).expect("advance");
    assert_eq!(ran, 2);
    assert_eq!(live, 1);
    let snapshot = client.snapshot(ids[0]).expect("snapshot");
    assert_eq!(snapshot.completed(), 2);
    client.cancel(ids[0]).expect("kill");
    let resumed = client.restore(&snapshot, true).expect("resume");
    assert_ne!(resumed, ids[0], "resume gets a fresh session id");
    client.drain().expect("drain");

    let events = client.take_events();
    let done: Vec<&DoneFrame> = events
        .iter()
        .filter_map(|f| match f {
            Frame::Done(d) if d.session == resumed => Some(d),
            _ => None,
        })
        .collect();
    assert_eq!(done.len(), 1, "exactly one terminal frame for the resume");
    assert_eq!(
        fingerprint(done[0]),
        fingerprint(&reference[0]),
        "resumed run diverged from the uninterrupted reference"
    );

    // Progress frames streamed for the watched sessions, with cumulative
    // evaluation counters.
    let progress: Vec<(u64, usize, u64)> = events
        .iter()
        .filter_map(|f| match f {
            Frame::Progress {
                session,
                step,
                evaluations,
                ..
            } => Some((*session, *step, *evaluations)),
            _ => None,
        })
        .collect();
    assert!(
        !progress.is_empty(),
        "watched sessions must stream progress"
    );
    let resumed_steps: Vec<usize> = progress
        .iter()
        .filter(|(s, _, _)| *s == resumed)
        .map(|(_, step, _)| *step)
        .collect();
    assert_eq!(
        resumed_steps.first().copied(),
        Some(3),
        "resume continues at the checkpointed step, not from scratch"
    );

    client.quit().expect("quit");
    let summary = server.join().expect("server thread").expect("serve I/O");
    assert_eq!(summary.accepted, 3);
    assert_eq!(summary.restored, 1);
    assert_eq!(summary.snapshots, 1);
    assert_eq!(summary.cancelled, 1);
    assert_eq!(summary.finished, 2);
}

#[test]
fn server_side_spec_errors_do_not_kill_the_connection() {
    let (mut client, server) = spawn_server(PolicyKind::WeightedFairShare);
    let err = client
        .run(&RunSpec::new("ESS-9000", "meadow_small"), false)
        .expect_err("unknown system");
    assert!(err.to_string().contains("ESS-9000"), "{err}");
    // The loop survives: a valid run still works afterwards.
    let ids = client
        .run(
            &RunSpec::new("ESS", "meadow_small").scale(0.15).max_steps(1),
            false,
        )
        .expect("valid run accepted");
    assert_eq!(ids.len(), 1);
    client.drain().expect("drains");
    client.quit().expect("quit");
    let summary = server.join().unwrap().unwrap();
    assert_eq!(summary.errors, 1);
    assert_eq!(summary.exhausted, 1);
}

#[test]
fn seeds_beyond_the_wire_limit_are_refused_on_both_paths() {
    // 2^53 is the largest integer a JSON number carries exactly: it
    // round-trips through the wire form unchanged.
    let at_limit = RunSpec::new("ESS", "meadow_small").seed(RunSpec::MAX_SEED);
    let wire = at_limit.to_json().to_string();
    let parsed = RunSpec::from_json(&ess_service::jsonio::Json::parse(&wire).unwrap()).unwrap();
    assert_eq!(parsed, at_limit);

    // 2^53 + 1 would round to 2^53 on the wire: the local path refuses it…
    let beyond = RunSpec::new("ESS", "meadow_small")
        .scale(0.15)
        .max_steps(1)
        .seed(RunSpec::MAX_SEED + 1);
    let local = beyond.run().expect_err("local run refuses the seed");
    assert!(local.to_string().contains("2^53"), "{local}");

    // …and so does the served path, with the same message.
    let (mut client, server) = spawn_server(PolicyKind::RoundRobin);
    match client.run(&beyond, false) {
        Err(ClientError::BadSpec(message)) => assert_eq!(message, local.to_string()),
        other => panic!("served run of seed 2^53+1 was not refused: {other:?}"),
    }
    client.quit().expect("quit");
    assert_eq!(server.join().unwrap().unwrap().accepted, 0);

    // A raw wire seed above the limit (2^53 + 2 is exact as a double) is
    // refused by the server with the limit named, not as a non-integer.
    let raw = concat!(
        r#"{"v":2,"id":1,"kind":"run","spec":{"system":"ESS","case":"meadow_small","#,
        r#""seed":9007199254740994}}"#,
        "\n"
    );
    let mut out = Vec::new();
    let summary = ess_service::serve(raw.as_bytes(), &mut out, EvalBackend::Serial).unwrap();
    assert_eq!((summary.accepted, summary.errors), (0, 1));
    let text = String::from_utf8(out).unwrap();
    assert!(text.contains("2^53"), "{text}");
}
