//! Fuzz-ish property tests: no request bytes — adversarial token soup,
//! random bytes, or any prefix of a well-formed request — may panic the
//! HTTP reader behind every connection. Every input must come back as a
//! `Request` or a `ParseError`, never unwind.

use proptest::prelude::*;
use seedb_server::http::{read_request, ParseError, Request, MAX_BODY_BYTES};

/// Fragments that compose into near-miss HTTP: methods, paths, versions,
/// every separator, header names with and without values, lengths that
/// lie, and multi-byte text.
const FRAGMENTS: &[&str] = &[
    "GET",
    "POST",
    "get",
    " ",
    "\t",
    "/",
    "/recommend",
    "?q=1",
    "HTTP/1.1",
    "HTTP/1.0",
    "HTTP/2",
    "\r\n",
    "\n",
    "\r",
    ":",
    "Content-Length:",
    "content-length: ",
    "X-Request-Id: ",
    "Host: x",
    "0",
    "7",
    "-1",
    "99999999999999999999",
    "{\"k\": 3}",
    "é",
    "🦀",
    "\u{0}",
];

fn arb_token_soup() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0..FRAGMENTS.len(), 0..40).prop_map(|picks| {
        picks
            .into_iter()
            .flat_map(|i| FRAGMENTS[i].bytes())
            .collect()
    })
}

fn arb_raw_bytes() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u16..256, 0..160)
        .prop_map(|words| words.into_iter().map(|w| w as u8).collect())
}

/// Body characters: JSON punctuation, line breaks, and multi-byte text.
const BODY: &[&str] = &[
    "{", "}", "\"", "a", "1", ":", ",", " ", "\r\n", "é", "日本", "🦀",
];

/// A well-formed request with a non-empty body whose `Content-Length`
/// tells the truth, with its path and body.
fn arb_request() -> impl Strategy<Value = (Vec<u8>, String, String)> {
    (
        0usize..3,
        0usize..4,
        prop::collection::vec(0..3usize, 0..3),
        prop::collection::vec(0..BODY.len(), 1..24),
        any::<bool>(),
    )
        .prop_map(|(method, path, headers, body, crlf)| {
            let eol = if crlf { "\r\n" } else { "\n" };
            let method = ["GET", "POST", "PUT"][method];
            let path = ["/", "/recommend", "/datasets?x=1", "/debug/traces/7"][path];
            let body: String = body.into_iter().map(|i| BODY[i]).collect();
            let mut raw = format!("{method} {path} HTTP/1.1{eol}");
            for h in headers {
                raw.push_str(["Host: x", "X-Request-Id: r-1", "Content-Type: a/b"][h]);
                raw.push_str(eol);
            }
            raw.push_str(&format!("Content-Length: {}{eol}{eol}{body}", body.len()));
            (raw.into_bytes(), path.to_owned(), body)
        })
}

/// Parses `raw`. Reaching the end without unwinding is what matters; an
/// accepted request must also respect the body cap.
fn exercise(raw: &[u8]) -> Result<Request, ParseError> {
    let parsed = read_request(raw);
    if let Ok(request) = &parsed {
        assert!(request.body.len() <= MAX_BODY_BYTES);
        assert!(!request.method.is_empty());
    }
    parsed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn token_soup_never_panics(raw in arb_token_soup()) {
        let _ = exercise(&raw);
    }

    #[test]
    fn raw_bytes_never_panic(raw in arb_raw_bytes()) {
        let _ = exercise(&raw);
    }

    #[test]
    fn truncation_at_every_offset_never_panics((raw, path, body) in arb_request()) {
        let request = exercise(&raw).expect("a well-formed request parses");
        prop_assert_eq!(&request.path, &path);
        prop_assert_eq!(&request.body, &body);
        // Every proper prefix lacks at least the body's last byte.
        for cut in 0..raw.len() {
            prop_assert!(exercise(&raw[..cut]).is_err(), "prefix of {} bytes", cut);
        }
    }
}

#[test]
fn adversarial_regressions_never_panic() {
    for raw in [
        "\n".repeat(100_000),
        ":".repeat(100_000),
        format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(100_000)),
        "GET / HTTP/1.1\r\nContent-Length: 18446744073709551616\r\n\r\n".to_owned(),
        "GET / HTTP/1.1\r\nContent-Length: 3\r\n\r\n\u{e9}".to_owned(),
        "GET / HTTP/1.1\r\nContent-Length:\r\n\r\n".to_owned(),
        "GET / HTTP/1.1\r\nno-colon\r\n\r\n".to_owned(),
        " \r\n\r\n".to_owned(),
    ] {
        let shown: String = raw.chars().take(40).collect();
        assert!(exercise(raw.as_bytes()).is_err(), "{shown:?}");
    }
    // A body that is not UTF-8 is refused, not decoded lossily.
    let mut raw = b"POST / HTTP/1.1\r\nContent-Length: 2\r\n\r\n".to_vec();
    raw.extend([0xff, 0xfe]);
    assert!(matches!(exercise(&raw), Err(ParseError::Bad(_))));
}
