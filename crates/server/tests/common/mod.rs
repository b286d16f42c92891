//! Serial references shared by the concurrent integration suites.

// Each test binary compiles this module but uses only part of it.
#![allow(dead_code)]

use tim_diffusion::BackingModel;
use tim_engine::{QueryEngine, SharedEngine};
use tim_server::{parse_request, protocol, LabelMap, ParsedRequest, Request};

/// Serial ground truth: answers `lines` one at a time through
/// [`protocol::execute`] over a private single-threaded [`SharedEngine`]
/// wrapping the exclusively built `engine`. Blank lines answer nothing;
/// malformed ones answer their error, as on the wire.
///
/// # Panics
/// Panics on a line that is not a query (session and admin verbs need a
/// `Session`).
pub fn serial_replay<M: BackingModel + Clone>(
    engine: QueryEngine<M>,
    labels: &LabelMap,
    lines: &[impl AsRef<str>],
) -> Vec<String> {
    let engine = SharedEngine::new(engine);
    lines
        .iter()
        .map(AsRef::as_ref)
        .filter_map(|l| match parse_request(l) {
            ParsedRequest::Empty => None,
            ParsedRequest::Malformed(e) => Some(format!("error: {e}")),
            ParsedRequest::Request(Request::Query(q)) => {
                Some(protocol::execute(&engine, labels, &q).line)
            }
            ParsedRequest::Request(other) => panic!("{l:?}: not a query: {other:?}"),
        })
        .collect()
}

/// Checks a reader transcript captured while another session grew the
/// pool it reads: every answer must equal the serial answer from before
/// the growth (`pre`) or from after it (`post`), and once the reader has
/// seen the grown pool it never sees the old one again. A torn or
/// mis-decoded pool shows up as an answer that is neither.
pub fn assert_pre_or_post_growth(got: &[String], pre: &[String], post: &[String], what: &str) {
    assert_eq!(got.len(), pre.len(), "{what}: {got:?}");
    assert_eq!(got.len(), post.len(), "{what}: {got:?}");
    let mut grown = false;
    for (i, line) in got.iter().enumerate() {
        if *line == post[i] && post[i] != pre[i] {
            grown = true;
        } else {
            assert_eq!(*line, pre[i], "{what}: line {i} matches neither pool");
            assert!(
                !grown || pre[i] == post[i],
                "{what}: line {i} answered from the old pool after the grown one"
            );
        }
    }
}
