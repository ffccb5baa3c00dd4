//! Fuzz-ish property tests: no upload — adversarial token soup, random
//! bytes, or any prefix of a well-formed table — may panic the CSV reader
//! or the ingest path behind `POST /datasets`. Every input must come back
//! as a table or a `CatalogError`, never unwind.

use proptest::prelude::*;
use seedb_server::csv::{parse_csv, CsvReader};
use seedb_server::Catalog;

/// Runs one input through every entry point that reads upload bytes. The
/// results are ignored — only reaching the end without unwinding matters
/// — except that the two readings of one text must agree.
fn exercise(catalog: &Catalog, text: &str) {
    let parsed = parse_csv(text);
    if let Ok(reader) = CsvReader::new(text) {
        let mut rows = 0;
        let read = reader.read_rows(|row| {
            assert_eq!(row.len(), reader.defs().len());
            rows += 1;
            Ok(())
        });
        assert!(read.is_ok());
        assert_eq!(rows, reader.rows());
        assert_eq!(parsed.map(|t| t.rows.len()).ok(), Some(rows));
    } else {
        assert!(parsed.is_err());
    }
    let _ = catalog.ingest_csv("fuzz", text);
}

/// Fragments that compose into near-miss CSV: every separator, quote
/// shape, inferable type, and multi-byte text.
const FRAGMENTS: &[&str] = &[
    ",",
    "\"",
    "\"\"",
    "\r",
    "\n",
    "\r\n",
    "a",
    "bc",
    "1",
    "-2",
    "+3",
    "3.5",
    "1e3",
    "NaN",
    "inf",
    "true",
    "FALSE",
    "é",
    "日本",
    "🦀",
    " ",
    "\"q,\n\"",
    "\"x\"\"y\"",
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

/// Cells of well-formed records: quoted and unquoted, empty, multi-byte,
/// and every inferable type.
const CELLS: &[&str] = &[
    "",
    "paris",
    "日本",
    "1",
    "-7",
    "2.5",
    "true",
    "\"a,b\"",
    "\"say \"\"hi\"\"\"",
    "\"line\r\nbreak\"",
];

/// A well-formed table: a header, then whole records of `width` cells.
fn arb_table() -> impl Strategy<Value = String> {
    (
        1usize..5,
        prop::collection::vec(0..CELLS.len(), 0..24),
        any::<bool>(),
    )
        .prop_map(|(width, cells, crlf)| {
            let eol = if crlf { "\r\n" } else { "\n" };
            let mut text: String = (0..width).map(|c| format!("c{c},")).collect();
            text.pop();
            for record in cells.chunks_exact(width) {
                text.push_str(eol);
                let fields: Vec<&str> = record.iter().map(|&i| CELLS[i]).collect();
                text.push_str(&fields.join(","));
            }
            text.push_str(eol);
            text
        })
}

fn catalog() -> Catalog {
    Catalog::new(1_000, 100, 17)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn token_soup_never_panics(text in arb_token_soup()) {
        exercise(&catalog(), &text);
    }

    #[test]
    fn raw_bytes_never_panic(text in arb_raw_bytes()) {
        exercise(&catalog(), &text);
    }

    #[test]
    fn truncation_at_every_offset_never_panics(text in arb_table()) {
        prop_assert!(parse_csv(&text).is_ok(), "{:?}", text);
        let catalog = catalog();
        for (offset, _) in text.char_indices() {
            exercise(&catalog, &text[..offset]);
        }
    }
}

#[test]
fn adversarial_regressions_never_panic() {
    let catalog = catalog();
    for text in [
        "\"".repeat(100_001),
        ",".repeat(100_000),
        "\n".repeat(100_000),
        format!("a,b\n{}", "\"\"".repeat(50_000)),
        format!("a\n\"{}", "x".repeat(100_000)),
        "a,m\n\"\"\"".to_owned(),
        "a,m\n\"x\"y\"".to_owned(),
        "\u{feff}a,m\nx,1\n".to_owned(),
    ] {
        exercise(&catalog, &text);
    }
}
