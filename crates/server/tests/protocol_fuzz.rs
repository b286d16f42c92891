//! Protocol fuzz: arbitrary request bytes — protocol tokens mixed with
//! raw bytes, non-UTF-8 sequences, stray `\r` and NUL, over-cap lines —
//! through the line framing ([`CappedLineReader`]) and the request
//! parser ([`parse_request`]) into a live [`Session`](tim_server::Session).
//!
//! Neither layer may panic, the framing must hand back every line exactly
//! as sent, and every rejection must surface as exactly one single-line
//! `error:` answer: a malformed request through the session, a non-UTF-8
//! or over-cap line through the framing reply the transports send.

use proptest::prelude::*;
use tim_diffusion::IndependentCascade;
use tim_graph::{gen, weights};
use tim_server::{
    parse_request, CappedLine, CappedLineReader, LabelMap, ParsedRequest, ServerConfig,
    ServerState, MAX_LINE_BYTES, NOT_UTF8_LINE_REPLY, OVERSIZED_LINE_REPLY,
};

/// Fragments lines are assembled from, next to raw bytes: every verb and
/// option of the grammar, separators, numbers at and past their limits,
/// and UTF-8 sequences both whole and cut.
const TOKENS: &[&[u8]] = &[
    b"select",
    b"eval",
    b"marginal",
    b"batch",
    b"use",
    b"graphs",
    b"stats",
    b"pools",
    b"attach",
    b"detach",
    b"persist",
    b"ping",
    b"fast",
    b"eps=",
    b"ell=",
    b"k=",
    b"g=/nonexistent.timg",
    b"::",
    b"=",
    b",",
    b" ",
    b"\t",
    b"\r",
    b"#",
    b"\0",
    b"0",
    b"7",
    b"4097",
    b"-1",
    b"1e309",
    b"NaN",
    b"18446744073709551616",
    "é".as_bytes(),
    &[0xC3],
    &[0x80],
    &[0xFF],
    &[0xF0, 0x9F, 0x98],
    &[0xED, 0xA0, 0x80],
];

/// One line's bytes (never containing `\n`): each atom is a token when
/// its index is in range, else the raw byte.
fn line_bytes(atoms: &[(usize, u16)]) -> Vec<u8> {
    let mut line = Vec::new();
    for &(token, byte) in atoms {
        match TOKENS.get(token) {
            Some(t) => line.extend_from_slice(t),
            None if byte as u8 == b'\n' => line.push(b' '),
            None => line.push(byte as u8),
        }
    }
    line
}

/// A tiny served graph: the fuzz never runs a well-formed request, so
/// the session only ever parses and rejects.
fn state() -> ServerState<IndependentCascade> {
    let mut g = gen::barabasi_albert(20, 2, 0.0, 1);
    weights::assign_weighted_cascade(&mut g);
    let n = g.n();
    ServerState::new(
        g,
        LabelMap::identity(n),
        IndependentCascade,
        "ic",
        ServerConfig {
            threads: 1,
            sample_threads: 1,
            ..ServerConfig::default()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_lines_never_panic_and_every_rejection_is_one_error_line(
        lines in proptest::collection::vec(
            proptest::collection::vec((0usize..TOKENS.len() * 2, 0u16..256), 0..24),
            1..12,
        ),
        oversized_at in 0usize..24,
        terminate_last in prop::bool::ANY,
    ) {
        let mut lines: Vec<Vec<u8>> = lines.iter().map(|atoms| line_bytes(atoms)).collect();
        // About one stream in four carries an over-cap line.
        if oversized_at < lines.len() {
            let mut long = lines[oversized_at].clone();
            long.resize(MAX_LINE_BYTES as usize + 1 + oversized_at, b'a');
            lines[oversized_at] = long;
        }
        let mut stream = lines.join(&b'\n');
        if terminate_last {
            stream.push(b'\n');
        }
        // An empty unterminated final line is no line at all.
        if !terminate_last && lines.last().is_some_and(Vec::is_empty) {
            lines.pop();
        }

        let state = state();
        let mut session = state.session();
        let mut reader = CappedLineReader::new(stream.as_slice());
        let mut buf = String::new();
        for (i, sent) in lines.iter().enumerate() {
            let terminated = terminate_last || i + 1 < lines.len();
            let mut content = sent.as_slice();
            if terminated {
                content = content.strip_suffix(b"\r").unwrap_or(content);
            }
            let outcome = reader.read_line(&mut buf).expect("framing never fails on bytes");
            if content.len() as u64 > MAX_LINE_BYTES {
                prop_assert_eq!(outcome, CappedLine::Oversized, "line {}", i);
                prop_assert!(OVERSIZED_LINE_REPLY.starts_with("error: "));
                // The transports answer it and end the session here.
                break;
            }
            let Ok(text) = std::str::from_utf8(content) else {
                prop_assert_eq!(outcome, CappedLine::NotUtf8, "line {}", i);
                prop_assert!(buf.is_empty());
                prop_assert!(NOT_UTF8_LINE_REPLY.starts_with("error: "));
                // The transports end the session here, but the framing
                // has consumed exactly this line: keep checking the rest.
                continue;
            };
            prop_assert_eq!(outcome, CappedLine::Line, "line {}", i);
            prop_assert_eq!(buf.as_str(), text, "line {} must come back as sent", i);
            match parse_request(&buf) {
                ParsedRequest::Empty => {
                    prop_assert!(session.push_line(&buf).is_empty(), "line {}", i);
                }
                ParsedRequest::Malformed(reason) => {
                    let answers = session.push_line(&buf);
                    prop_assert_eq!(answers.len(), 1, "line {}: {:?}", i, answers);
                    prop_assert_eq!(&answers[0], &format!("error: {reason}"));
                    prop_assert!(
                        !answers[0].contains(['\n', '\r']),
                        "line {}: multi-line answer {:?}",
                        i,
                        answers[0]
                    );
                }
                // Executing a well-formed request is the engine's
                // business, not the framing's; skipping it keeps the
                // session's state untouched.
                ParsedRequest::Request(_) => {}
            }
            prop_assert!(!session.closed(), "line {}", i);
        }
    }
}
