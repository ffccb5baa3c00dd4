//! Fuzz-ish property tests: no input — adversarial token soup, random
//! bytes, or any prefix of a valid document — may panic the JSON parser.
//! `seedbd` parses every request body with it, so a reachable panic here
//! is a remote crash of the daemon. `Json::parse` must return `Ok` or an
//! error message, never unwind (and never overflow the stack — nesting is
//! depth-capped).

use proptest::prelude::*;
use seedb_util::Json;

/// Fragments that compose into near-miss JSON: structure, every escape
/// the string decoder knows and several it rejects, literals and their
/// truncations, numbers, and multi-byte text.
const FRAGMENTS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ",",
    ":",
    "\"",
    "\"k\"",
    "\"a\\\"b\"",
    "\\",
    "\\\"",
    "\\n",
    "\\u",
    "\\u00e9",
    "\\uD800",
    "\\u12",
    "\\x",
    "0",
    "-1",
    "2.5e3",
    "1e999",
    "-",
    ".",
    "true",
    "tru",
    "false",
    "null",
    "nul",
    " ",
    "\n",
    "é",
    "日本",
    "🦀",
];

fn arb_token_soup() -> impl Strategy<Value = String> {
    prop::collection::vec(0..FRAGMENTS.len(), 0..40)
        .prop_map(|picks| picks.into_iter().map(|i| FRAGMENTS[i]).collect())
}

fn arb_raw_bytes() -> impl Strategy<Value = String> {
    prop::collection::vec(0u16..256, 0..120).prop_map(|words| {
        let bytes: Vec<u8> = words.into_iter().map(|w| w as u8).collect();
        String::from_utf8_lossy(&bytes).into_owned()
    })
}

/// String values the documents carry: empty, escaped, control and
/// multi-byte characters.
const STRINGS: &[&str] = &[
    "",
    "plain",
    "a\"b\\c",
    "line\nbreak\ttab\r",
    "\u{1}\u{1f}",
    "é",
    "日本語",
    "🦀",
    "city,sales\nparis,10.5\n",
];

/// A value drawn from `words`, nesting at most four levels.
fn value(words: &mut impl Iterator<Item = u32>, depth: usize) -> Json {
    let Some(w) = words.next() else {
        return Json::Null;
    };
    let text = || STRINGS[w as usize % STRINGS.len()];
    match w % 7 {
        0 => Json::Null,
        1 => Json::Bool(w % 2 == 0),
        2 => Json::Num(f64::from(w) / 8.0 - 1_000.0),
        4 if depth < 4 => Json::Arr((0..w % 4).map(|_| value(words, depth + 1)).collect()),
        5 if depth < 4 => object(words, depth + 1, w % 4),
        _ => Json::from(text()),
    }
}

fn object(words: &mut impl Iterator<Item = u32>, depth: usize, fields: u32) -> Json {
    let mut obj = Json::obj();
    for i in 0..fields {
        obj = obj.set(&format!("k{i}{}", STRINGS[i as usize]), value(words, depth));
    }
    obj
}

/// A valid document — always an object, so no proper prefix of it is
/// one — rendered compact or pretty.
fn arb_document() -> impl Strategy<Value = (Json, String)> {
    (
        prop::collection::vec(0u32..10_000, 1..40),
        1u32..5,
        any::<bool>(),
    )
        .prop_map(|(words, fields, pretty)| {
            let doc = object(&mut words.into_iter(), 0, fields);
            let text = if pretty { doc.pretty() } else { doc.compact() };
            (doc, text)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn token_soup_never_panics(src in arb_token_soup()) {
        let _ = Json::parse(&src);
    }

    #[test]
    fn raw_bytes_never_panic(src in arb_raw_bytes()) {
        let _ = Json::parse(&src);
    }

    #[test]
    fn truncation_at_every_offset_never_panics((doc, text) in arb_document()) {
        prop_assert_eq!(Json::parse(&text).as_ref(), Ok(&doc));
        let complete = text.trim_end().len();
        for (offset, _) in text.char_indices() {
            let parsed = Json::parse(&text[..offset]);
            if offset < complete {
                prop_assert!(parsed.is_err(), "prefix {:?} parsed", &text[..offset]);
            }
        }
    }
}

#[test]
fn adversarial_regressions_never_panic() {
    for src in [
        "[".repeat(200_000),
        "{\"a\":".repeat(200_000),
        format!("\"{}", "\\".repeat(100_001)),
        format!("\"{}\"", "\\u".repeat(50_000)),
        "\"\\u00".to_owned(),
        "\"\\".to_owned(),
        "\"é\\".to_owned(),
        "-".to_owned(),
        "1e".to_owned(),
    ] {
        let _ = Json::parse(&src);
    }
}
