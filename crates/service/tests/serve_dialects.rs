//! Serve-loop framing conformance: every output line is a v2 frame
//! (including the EOF-implied drain/quit), every line that is not a v2
//! request — garbage, a legacy `{"op":…}` request, an over-long line — is
//! answered with exactly one error frame, and the connection keeps
//! serving afterwards.

use ess::fitness::EvalBackend;
use ess_service::jsonio::Json;
use ess_service::proto::{Frame, Reply};
use ess_service::serve::{serve, MAX_REQUEST_LINE_BYTES};
use std::io::BufReader;

#[test]
fn pure_v2_connections_get_v2_frames_even_at_eof() {
    // No explicit drain/quit: EOF implies both.
    let script = concat!(
        r#"{"v":2,"id":1,"kind":"run","watch":true,"spec":{"system":"ESS","case":"meadow_small","seed":4,"scale":0.15,"max_steps":1}}"#,
        "\n",
    );
    let mut out = Vec::new();
    let summary = serve(script.as_bytes(), &mut out, EvalBackend::Serial).expect("serve I/O");
    assert_eq!(summary.accepted, 1);
    assert_eq!(summary.exhausted, 1);
    let text = String::from_utf8(out).expect("utf-8");
    frames(&text);
    assert!(text.contains(r#""kind":"progress""#), "{text}");
    assert!(text.contains(r#""kind":"done""#), "{text}");
    assert!(text.contains(r#""kind":"drained""#), "{text}");
    assert!(text.contains(r#""kind":"bye""#), "{text}");
}

/// Every output line as a parsed v2 frame.
fn frames(text: &str) -> Vec<Frame> {
    text.lines()
        .map(|line| {
            let json = Json::parse(line).expect("every line parses");
            Frame::from_json(&json).unwrap_or_else(|e| panic!("non-v2 line: {line} ({e})"))
        })
        .collect()
}

#[test]
fn garbage_and_legacy_lines_get_one_error_frame_each() {
    // A corrupted line, a no-envelope object and a legacy v1 request
    // between valid v2 requests: each is answered with exactly one v2
    // error frame (id 0 — none carries an id), and the later v2 requests
    // on the same connection are still served.
    let script = concat!(
        r#"{"v":2,"id":1,"kind":"run","spec":{"system":"ESS","case":"meadow_small","scale":0.15,"max_steps":1}}"#,
        "\n",
        "not json at all\n",
        r#"{"typo":1}"#,
        "\n",
        r#"{"op":"run","system":"ESS","case":"meadow_small","seed":5,"scale":0.15,"max_steps":1}"#,
        "\n",
        r#"{"v":2,"id":2,"kind":"run","spec":{"system":"ESS","case":"meadow_small","seed":6,"scale":0.15,"max_steps":1}}"#,
        "\n",
        r#"{"v":2,"id":3,"kind":"drain"}"#,
        "\n",
    );
    let mut out = Vec::new();
    let summary = serve(script.as_bytes(), &mut out, EvalBackend::Serial).expect("serve I/O");
    assert_eq!(summary.errors, 3);
    assert_eq!(summary.accepted, 2);
    let frames = frames(&String::from_utf8(out).expect("utf-8"));
    let errors: Vec<u64> = frames
        .iter()
        .filter_map(|f| match f {
            Frame::Reply {
                id,
                reply: Reply::Error { .. },
            } => Some(*id),
            _ => None,
        })
        .collect();
    assert_eq!(errors, vec![0, 0, 0]);
    // The legacy line admitted nothing: the second v2 run got session 2.
    assert!(frames.contains(&Frame::Reply {
        id: 2,
        reply: Reply::Accepted { sessions: vec![2] },
    }));
    assert!(frames.contains(&Frame::Reply {
        id: 3,
        reply: Reply::Drained { sessions: 2 },
    }));
    assert_eq!(
        frames.last(),
        Some(&Frame::Reply {
            id: 0,
            reply: Reply::Bye,
        })
    );
}

#[test]
fn an_overlong_line_gets_one_error_and_serving_continues() {
    // 8 MiB with no newline in it — far past the line cap — then a valid
    // run, read in 8 KiB chunks: exactly one error frame, then the run is
    // accepted.
    const { assert!(MAX_REQUEST_LINE_BYTES < 8 << 20) };
    let mut script = vec![b'x'; 8 << 20];
    script.extend_from_slice(
        concat!(
            "\n",
            r#"{"v":2,"id":1,"kind":"run","spec":{"system":"ESS","case":"meadow_small","scale":0.15,"max_steps":1}}"#,
        )
        .as_bytes(),
    );
    let mut out = Vec::new();
    let input = BufReader::with_capacity(8 << 10, script.as_slice());
    let summary = serve(input, &mut out, EvalBackend::Serial).expect("serve I/O");
    assert_eq!((summary.errors, summary.accepted), (1, 1));
    let frames = frames(&String::from_utf8(out).expect("utf-8"));
    assert!(
        matches!(&frames[0], Frame::Reply { id: 0, reply: Reply::Error { message } }
            if message.contains("longer than")),
        "{frames:?}"
    );
    let accepted = Reply::Accepted { sessions: vec![1] };
    assert_eq!(
        frames[1],
        Frame::Reply {
            id: 1,
            reply: accepted
        }
    );
}

#[test]
fn a_retired_tiled_kernel_spec_gets_one_error_and_serving_continues() {
    // The tiled kernel is gone: a run naming it is refused with exactly
    // one error frame, and the next request on the connection is served.
    let script = concat!(
        r#"{"v":2,"id":1,"kind":"run","spec":{"system":"ESS","case":"meadow_small","scale":0.15,"max_steps":1,"kernel":"tiled:128x4"}}"#,
        "\n",
        r#"{"v":2,"id":2,"kind":"run","spec":{"system":"ESS","case":"meadow_small","scale":0.15,"max_steps":1,"kernel":"bucket"}}"#,
        "\n",
    );
    let mut out = Vec::new();
    let summary = serve(script.as_bytes(), &mut out, EvalBackend::Serial).expect("serve I/O");
    assert_eq!((summary.errors, summary.accepted), (1, 1));
    let frames = frames(&String::from_utf8(out).expect("utf-8"));
    let errors: Vec<&str> = frames
        .iter()
        .filter_map(|f| match f {
            Frame::Reply {
                reply: Reply::Error { message },
                ..
            } => Some(message.as_str()),
            _ => None,
        })
        .collect();
    assert_eq!(errors.len(), 1, "{frames:?}");
    assert!(
        errors[0].contains("kernel") && errors[0].contains("heap | bucket"),
        "{}",
        errors[0]
    );
    assert!(frames.contains(&Frame::Reply {
        id: 2,
        reply: Reply::Accepted { sessions: vec![1] },
    }));
}
