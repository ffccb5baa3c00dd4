//! A hand-rolled CSV reader with schema inference, for `POST /datasets`.
//!
//! Dependency-free like the rest of the serving stack (the registry is
//! unreachable). Dialect: comma-separated, first record is the header,
//! `"`-quoted fields may contain commas, newlines, and doubled-quote
//! escapes (`""`); both `\n` and `\r\n` record separators are accepted,
//! and a trailing newline does not produce a phantom record.
//!
//! Column types are inferred from the data, narrowest first: a column
//! whose every non-empty field parses as `i64` is `Int64`; failing that
//! `f64` → `Float64`; failing that `true`/`false` (case-insensitive) →
//! `Bool`; anything else is `Categorical`. Empty fields are NULL in any
//! type. Roles follow SeeDB's dimension/measure split: numeric columns
//! are measures, categorical and boolean columns are dimensions.
//!
//! The text is read in two borrowed passes ([`CsvReader`]): the first
//! checks record widths and infers each column's type from per-column
//! flags, the second hands typed rows to a sink through one reused row
//! buffer. Fields are slices of the input unless a doubled quote forces a
//! copy, so a load allocates per column and per distinct label, not per
//! cell.

use seedb_storage::{ColumnDef, ColumnRole, ColumnType, Value};

/// A parsed CSV: inferred column definitions plus typed rows, ready for
/// [`seedb_storage::TableBuilder`].
#[derive(Debug)]
pub struct CsvTable {
    /// Inferred schema (header names, inferred types, inferred roles).
    pub defs: Vec<ColumnDef>,
    /// Typed rows matching `defs`.
    pub rows: Vec<Vec<Value>>,
}

/// CSV text whose structure and schema the first pass has checked.
/// [`CsvReader::read_rows`] is the second pass over the same text.
#[derive(Debug)]
pub struct CsvReader<'a> {
    text: &'a str,
    defs: Vec<ColumnDef>,
    rows: usize,
}

impl<'a> CsvReader<'a> {
    /// The first pass: splits `text` into records, checks every record's
    /// width against the header, and infers each column's type. Errors
    /// come in a fixed order whatever their position in the text: a
    /// malformed quote, then a missing header, an empty column name, and
    /// the first record of the wrong width.
    pub fn new(text: &'a str) -> Result<CsvReader<'a>, String> {
        let mut header: Vec<String> = Vec::new();
        let mut columns: Vec<Inferred> = Vec::new();
        // Records completed so far, the header included.
        let mut records = 0usize;
        // Fields seen so far in the current record.
        let mut width = 0usize;
        // The first data record whose width differs from the header's:
        // (1-based record number counting the header, fields).
        let mut bad_width: Option<(usize, usize)> = None;
        scan(text, |field, last| {
            if records == 0 {
                header.push(field.to_owned());
            } else if let Some(column) = columns.get_mut(width) {
                column.observe(field);
            }
            width += 1;
            if last {
                if records == 0 {
                    columns = vec![Inferred::EMPTY; width];
                } else if width != header.len() && bad_width.is_none() {
                    bad_width = Some((records + 1, width));
                }
                records += 1;
                width = 0;
            }
            Ok(())
        })?;
        if records == 0 {
            return Err("empty CSV: missing header record".into());
        }
        if header.iter().any(String::is_empty) {
            return Err("empty column name in header".into());
        }
        if let Some((record, fields)) = bad_width {
            return Err(format!(
                "record {record} has {fields} fields, header has {}",
                header.len()
            ));
        }
        let defs = header
            .into_iter()
            .zip(&columns)
            .map(|(name, column)| {
                let ty = column.ty();
                let role = match ty {
                    ColumnType::Int64 | ColumnType::Float64 => ColumnRole::Measure,
                    ColumnType::Categorical | ColumnType::Bool => ColumnRole::Dimension,
                };
                ColumnDef::new(name, ty, role)
            })
            .collect();
        Ok(CsvReader {
            text,
            defs,
            rows: records - 1,
        })
    }

    /// Inferred schema (header names, inferred types, inferred roles).
    pub fn defs(&self) -> &[ColumnDef] {
        &self.defs
    }

    /// Data records after the header.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The second pass: hands every data record to `sink` as typed values
    /// matching [`CsvReader::defs`], in order, through one reused buffer
    /// (a categorical cell keeps its `String` from row to row). Stops at
    /// the sink's first error.
    pub fn read_rows(
        &self,
        mut sink: impl FnMut(&[Value]) -> Result<(), String>,
    ) -> Result<(), String> {
        let mut row = vec![Value::Null; self.defs.len()];
        let mut header = true;
        let mut col = 0usize;
        scan(self.text, |field, last| {
            if !header {
                if let (Some(cell), Some(def)) = (row.get_mut(col), self.defs.get(col)) {
                    set_cell(cell, field, def.ty);
                }
            }
            col += 1;
            if last {
                if !header {
                    sink(&row)?;
                }
                header = false;
                col = 0;
            }
            Ok(())
        })
    }
}

/// What the first pass knows about one column: whether it held a
/// non-empty field, and whether every non-empty field so far parses as
/// each candidate type.
#[derive(Debug, Clone, Copy)]
struct Inferred {
    seen: bool,
    int: bool,
    float: bool,
    boolean: bool,
}

impl Inferred {
    const EMPTY: Inferred = Inferred {
        seen: false,
        int: true,
        float: true,
        boolean: true,
    };

    fn observe(&mut self, raw: &str) {
        if raw.is_empty() {
            return;
        }
        self.seen = true;
        self.int = self.int && raw.parse::<i64>().is_ok();
        self.float = self.float && raw.parse::<f64>().is_ok();
        self.boolean =
            self.boolean && (raw.eq_ignore_ascii_case("true") || raw.eq_ignore_ascii_case("false"));
    }

    /// Narrowest type every non-empty field fits (see module docs). An
    /// all-empty column degrades to `Categorical` (all-NULL dimension).
    fn ty(self) -> ColumnType {
        if !self.seen {
            ColumnType::Categorical
        } else if self.int {
            ColumnType::Int64
        } else if self.float {
            ColumnType::Float64
        } else if self.boolean {
            ColumnType::Bool
        } else {
            ColumnType::Categorical
        }
    }
}

/// Writes `raw` into `cell` as a value of type `ty`, reusing the cell's
/// `String` when both the old and the new value are labels.
fn set_cell(cell: &mut Value, raw: &str, ty: ColumnType) {
    if raw.is_empty() {
        *cell = Value::Null;
        return;
    }
    match (ty, &mut *cell) {
        (ColumnType::Categorical, Value::Str(label)) => {
            label.clear();
            label.push_str(raw);
        }
        (ColumnType::Categorical, _) => *cell = Value::Str(raw.to_owned()),
        // Type inference proved every non-empty value parses, so the
        // fallback arm is unreachable — but a parser disagreement must
        // degrade to a NULL cell, never panic an ingest.
        (ColumnType::Int64, _) => *cell = raw.parse().map_or(Value::Null, Value::Int),
        (ColumnType::Float64, _) => *cell = raw.parse().map_or(Value::Null, Value::Float),
        (ColumnType::Bool, _) => *cell = Value::Bool(raw.eq_ignore_ascii_case("true")),
    }
}

/// Splits CSV text into fields in one pass, calling `on_field(field,
/// last)` for each, where `last` marks the final field of its record. A
/// field is a slice of `text` unless a doubled quote or text after a
/// closing quote makes it a copy. Stops at the first malformed quote or
/// the callback's first error.
fn scan(
    text: &str,
    mut on_field: impl FnMut(&str, bool) -> Result<(), String>,
) -> Result<(), String> {
    let bytes = text.as_bytes();
    let mut scratch = String::new();
    let mut pos = 0usize;
    // Whether the current record has started; keeps a blank line or a
    // trailing newline from emitting a phantom empty record.
    let mut in_record = false;
    loop {
        let field = if bytes.get(pos) == Some(&b'"') {
            in_record = true;
            scratch.clear();
            // Start of the quoted text not yet copied into `scratch`.
            let mut copied_to = pos + 1;
            let mut escaped = false;
            let close = loop {
                let Some(quote) = find_quote(bytes, copied_to) else {
                    return Err("unterminated quoted field".into());
                };
                if bytes.get(quote + 1) != Some(&b'"') {
                    break quote;
                }
                // `""`: keep the first quote, skip the second.
                scratch.push_str(slice(text, copied_to, quote + 1));
                copied_to = quote + 2;
                escaped = true;
            };
            // Unquoted text after the closing quote joins the field.
            let tail = close + 1;
            pos = run_end(bytes, tail);
            if escaped || pos > tail {
                scratch.push_str(slice(text, copied_to, close));
                scratch.push_str(slice(text, tail, pos));
                scratch.as_str()
            } else {
                slice(text, copied_to, close)
            }
        } else {
            let start = pos;
            pos = run_end(bytes, start);
            in_record |= pos > start;
            slice(text, start, pos)
        };
        match bytes.get(pos) {
            None => {
                if in_record {
                    on_field(field, true)?;
                }
                return Ok(());
            }
            Some(b',') => {
                in_record = true;
                on_field(field, false)?;
                pos += 1;
            }
            // A quote can only start a field: at any other position the
            // run above stopped at it.
            Some(b'"') => return Err("quote in the middle of an unquoted field".into()),
            // '\r' or '\n', with "\r\n" taken as one separator.
            Some(&separator) => {
                pos += if separator == b'\r' && bytes.get(pos + 1) == Some(&b'\n') {
                    2
                } else {
                    1
                };
                if in_record {
                    on_field(field, true)?;
                }
                in_record = false;
            }
        }
    }
}

/// The end of the unquoted run starting at `from`: the position of the
/// next `,`, `"`, `\r` or `\n`, or the end of the text.
fn run_end(bytes: &[u8], from: usize) -> usize {
    bytes
        .get(from..)
        .and_then(|rest| {
            rest.iter()
                .position(|&b| matches!(b, b',' | b'"' | b'\r' | b'\n'))
        })
        .map_or(bytes.len(), |n| from + n)
}

/// The position of the next `"` at or after `from`.
fn find_quote(bytes: &[u8], from: usize) -> Option<usize> {
    bytes
        .get(from..)?
        .iter()
        .position(|&b| b == b'"')
        .map(|n| from + n)
}

/// `text[start..end]`. Every boundary [`scan`] produces sits next to an
/// ASCII stop byte, so it always falls on a char boundary; the empty
/// fallback keeps that invariant local instead of trusting it with a
/// panic.
fn slice(text: &str, start: usize, end: usize) -> &str {
    text.get(start..end).unwrap_or_default()
}

/// Parses CSV text (header + data records) into an inferred-schema table.
pub fn parse_csv(text: &str) -> Result<CsvTable, String> {
    let reader = CsvReader::new(text)?;
    let mut rows = Vec::with_capacity(reader.rows());
    reader.read_rows(|row| {
        rows.push(row.to_vec());
        Ok(())
    })?;
    Ok(CsvTable {
        defs: reader.defs,
        rows,
    })
}

/// FNV-1a 64-bit hash of the raw CSV bytes: the content fingerprint in
/// ingested instance signatures
/// ([`seedb_core::ingested_instance_signature`]).
pub fn fingerprint(text: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn infers_types_and_roles() {
        let t = parse_csv("city,pop,rate,flag\nparis,100,0.5,true\nlyon,200,1.5,false\n").unwrap();
        let tys: Vec<ColumnType> = t.defs.iter().map(|d| d.ty).collect();
        assert_eq!(
            tys,
            vec![
                ColumnType::Categorical,
                ColumnType::Int64,
                ColumnType::Float64,
                ColumnType::Bool
            ]
        );
        let roles: Vec<ColumnRole> = t.defs.iter().map(|d| d.role).collect();
        assert_eq!(
            roles,
            vec![
                ColumnRole::Dimension,
                ColumnRole::Measure,
                ColumnRole::Measure,
                ColumnRole::Dimension
            ]
        );
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.rows[0][0], Value::Str("paris".into()));
        assert_eq!(t.rows[0][1], Value::Int(100));
        assert_eq!(t.rows[1][2], Value::Float(1.5));
        assert_eq!(t.rows[1][3], Value::Bool(false));
    }

    #[test]
    fn empty_fields_are_null_and_mixed_numerics_widen() {
        let t = parse_csv("a,m\nx,1\ny,\nz,2.5\n").unwrap();
        // 1 and 2.5 don't all parse as i64 → Float64; empty → NULL.
        assert_eq!(t.defs[1].ty, ColumnType::Float64);
        assert_eq!(t.rows[0][1], Value::Float(1.0));
        assert_eq!(t.rows[1][1], Value::Null);
    }

    #[test]
    fn quoted_fields_handle_commas_newlines_and_escapes() {
        let t = parse_csv("d,m\n\"a,b\",1\n\"line1\nline2\",2\n\"say \"\"hi\"\"\",3\n").unwrap();
        assert_eq!(t.rows[0][0], Value::Str("a,b".into()));
        assert_eq!(t.rows[1][0], Value::Str("line1\nline2".into()));
        assert_eq!(t.rows[2][0], Value::Str("say \"hi\"".into()));
    }

    #[test]
    fn crlf_and_missing_trailing_newline_are_fine() {
        let t = parse_csv("d,m\r\nx,1\r\ny,2").unwrap();
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.rows[1][1], Value::Int(2));
    }

    #[test]
    fn structural_errors_are_reported() {
        assert!(parse_csv("").unwrap_err().contains("header"));
        assert!(parse_csv("a,\nx,1\n").unwrap_err().contains("column name"));
        assert!(parse_csv("a,b\nonly_one\n").unwrap_err().contains("fields"));
        assert!(parse_csv("a,b\n\"unterminated,1\n")
            .unwrap_err()
            .contains("unterminated"));
        assert!(parse_csv("a,b\nmid\"quote,1\n")
            .unwrap_err()
            .contains("quote"));
    }

    #[test]
    fn all_empty_column_degrades_to_categorical_nulls() {
        let t = parse_csv("d,e,m\nx,,1\ny,,2\n").unwrap();
        assert_eq!(t.defs[1].ty, ColumnType::Categorical);
        assert_eq!(t.rows[0][1], Value::Null);
    }

    #[test]
    fn fingerprint_is_content_sensitive() {
        assert_eq!(fingerprint("a,b\n1,2\n"), fingerprint("a,b\n1,2\n"));
        assert_ne!(fingerprint("a,b\n1,2\n"), fingerprint("a,b\n1,3\n"));
        assert_ne!(fingerprint(""), fingerprint("\n"));
    }

    #[test]
    fn reused_label_buffers_never_leak_between_rows() {
        let t = parse_csv("d,m\nlonger_label,1\nab,2\n,3\nxyz,4\n").unwrap();
        let labels: Vec<&Value> = t.rows.iter().map(|r| &r[0]).collect();
        assert_eq!(
            labels,
            [
                &Value::Str("longer_label".into()),
                &Value::Str("ab".into()),
                &Value::Null,
                &Value::Str("xyz".into())
            ]
        );
    }

    /// The record splitter and type inference this reader replaced, kept
    /// verbatim as the oracle the streaming passes are checked against.
    mod reference {
        use seedb_storage::{ColumnDef, ColumnRole, ColumnType, Value};

        fn split_records(text: &str) -> Result<Vec<Vec<String>>, String> {
            let mut records = Vec::new();
            let mut record: Vec<String> = Vec::new();
            let mut field = String::new();
            let mut chars = text.chars().peekable();
            let mut in_record = false;

            while let Some(c) = chars.next() {
                match c {
                    '"' => {
                        if !field.is_empty() {
                            return Err("quote in the middle of an unquoted field".into());
                        }
                        in_record = true;
                        loop {
                            match chars.next() {
                                None => return Err("unterminated quoted field".into()),
                                Some('"') => {
                                    if chars.peek() == Some(&'"') {
                                        chars.next();
                                        field.push('"');
                                    } else {
                                        break;
                                    }
                                }
                                Some(other) => field.push(other),
                            }
                        }
                    }
                    ',' => {
                        in_record = true;
                        record.push(std::mem::take(&mut field));
                    }
                    '\r' | '\n' => {
                        if c == '\r' && chars.peek() == Some(&'\n') {
                            chars.next();
                        }
                        if in_record || !field.is_empty() {
                            record.push(std::mem::take(&mut field));
                            records.push(std::mem::take(&mut record));
                        }
                        in_record = false;
                    }
                    other => {
                        in_record = true;
                        field.push(other);
                    }
                }
            }
            if in_record || !field.is_empty() {
                record.push(field);
                records.push(record);
            }
            Ok(records)
        }

        fn infer_type<'a>(samples: impl Iterator<Item = &'a str> + Clone) -> ColumnType {
            let mut non_empty = samples.filter(|s| !s.is_empty()).peekable();
            if non_empty.peek().is_none() {
                return ColumnType::Categorical;
            }
            if non_empty.clone().all(|s| s.parse::<i64>().is_ok()) {
                return ColumnType::Int64;
            }
            if non_empty.clone().all(|s| s.parse::<f64>().is_ok()) {
                return ColumnType::Float64;
            }
            if non_empty.clone().all(|s| {
                let lower = s.to_ascii_lowercase();
                lower == "true" || lower == "false"
            }) {
                return ColumnType::Bool;
            }
            ColumnType::Categorical
        }

        fn typed_value(raw: &str, ty: ColumnType) -> Value {
            if raw.is_empty() {
                return Value::Null;
            }
            match ty {
                ColumnType::Int64 => raw.parse().map_or(Value::Null, Value::Int),
                ColumnType::Float64 => raw.parse().map_or(Value::Null, Value::Float),
                ColumnType::Bool => Value::Bool(raw.eq_ignore_ascii_case("true")),
                ColumnType::Categorical => Value::Str(raw.to_owned()),
            }
        }

        pub fn parse_csv(text: &str) -> Result<super::CsvTable, String> {
            let records = split_records(text)?;
            let mut iter = records.into_iter();
            let header = iter.next().ok_or("empty CSV: missing header record")?;
            if header.iter().any(|name| name.is_empty()) {
                return Err("empty column name in header".into());
            }
            let ncols = header.len();
            let data: Vec<Vec<String>> = iter.collect();
            for (i, record) in data.iter().enumerate() {
                if record.len() != ncols {
                    return Err(format!(
                        "record {} has {} fields, header has {ncols}",
                        i + 2,
                        record.len()
                    ));
                }
            }
            let types: Vec<ColumnType> = (0..ncols)
                .map(|c| {
                    infer_type(
                        data.iter()
                            .map(move |r| r.get(c).map_or("", String::as_str)),
                    )
                })
                .collect();
            let defs: Vec<ColumnDef> = header
                .iter()
                .zip(&types)
                .map(|(name, &ty)| {
                    let role = match ty {
                        ColumnType::Int64 | ColumnType::Float64 => ColumnRole::Measure,
                        ColumnType::Categorical | ColumnType::Bool => ColumnRole::Dimension,
                    };
                    ColumnDef::new(name, ty, role)
                })
                .collect();
            let rows: Vec<Vec<Value>> = data
                .iter()
                .map(|record| {
                    record
                        .iter()
                        .zip(&types)
                        .map(|(raw, &ty)| typed_value(raw, ty))
                        .collect()
                })
                .collect();
            Ok(super::CsvTable { defs, rows })
        }
    }

    /// Both readers' outcome, compared through `Debug` so NaN cells (which
    /// `Value`'s `PartialEq` never equates) compare by spelling.
    fn assert_same_as_reference(text: &str) {
        assert_eq!(
            format!("{:?}", parse_csv(text)),
            format!("{:?}", reference::parse_csv(text)),
            "input {text:?}"
        );
    }

    #[test]
    fn streaming_reader_matches_the_reference_on_every_edge_case() {
        for text in [
            "",
            "\n",
            "\r\n\r\n",
            "\r",
            "a",
            "a,",
            ",a",
            "a,b\n",
            "a,b\n1",
            "a,b\r\n1,2\r\n",
            "a,b\r1,2\r3,4",
            "\n\na,b\n\n1,2\n\n",
            "\"a\"\"b\",c\n1,2",
            "\"\"\n\n",
            "h\n\"\"\n\"\"\n",
            "a,b\n\"x\"y,1\n",
            "a,b\n\"x\"y\"z,1\n",
            "a,b\n\"\"\"\",1\n",
            "a,b\n\"q,\r\n\",1\n",
            "a\"b",
            "\"abc",
            "a,b\n1,\"2",
            "a,b\nx\n1,2,3",
            "a,b\nx\n\"unterminated",
            "a,b\nx\nmid\"quote",
            "a,,b\n",
            ",\n1",
            "a,b\n1,2,3\n4\n",
            "é,日本\nü,1\nß,2\n",
            "d,e\nx,\ny,\n",
            "m\nNaN\ninf\n-0\n",
            "m\n1e3\n+4\n-5\n",
            "b\nTRUE\nfalse\n",
            "b\ntrue\nyes\n",
            "n\n1\n-2\n+3\n",
            "n\n1\n1.5\n",
            "n\n1\ntrue\n",
            "n\n9223372036854775808\n",
            "n\n 1\n2\n",
            "b\ntrue \nfalse\n",
        ] {
            assert_same_as_reference(text);
        }
    }

    /// Pieces that compose into near-miss CSV: every separator, quote
    /// shape and type the reader branches on.
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
        "true",
        "FALSE",
        "é",
        "日本",
        " ",
        "\"q,\n\"",
        "\"x\"\"y\"",
    ];

    /// Field values of well-formed records: quoted and unquoted, empty,
    /// non-ASCII, and every inferable type.
    const CELLS: &[&str] = &[
        "",
        "x",
        "lyon",
        "1",
        "-7",
        "2.5",
        "1e-3",
        "true",
        "False",
        "\"a,b\"",
        "\"say \"\"hi\"\"\"",
        "\"line\nbreak\"",
        "\"\"",
        "ü",
        " 1",
        "2.5 ",
        "true ",
        "日本",
    ];

    fn arb_soup() -> impl Strategy<Value = String> {
        prop::collection::vec(0..FRAGMENTS.len(), 0..40)
            .prop_map(|picks| picks.into_iter().map(|i| FRAGMENTS[i]).collect())
    }

    fn arb_well_formed() -> impl Strategy<Value = String> {
        (
            1usize..5,
            prop::collection::vec(0..CELLS.len(), 0..40),
            any::<bool>(),
            any::<bool>(),
        )
            .prop_map(|(width, cells, crlf, trailing)| {
                let eol = if crlf { "\r\n" } else { "\n" };
                let header: Vec<String> = (0..width).map(|c| format!("c{c}")).collect();
                let mut lines = vec![header.join(",")];
                for record in cells.chunks_exact(width) {
                    let fields: Vec<&str> = record.iter().map(|&i| CELLS[i]).collect();
                    lines.push(fields.join(","));
                }
                let mut text = lines.join(eol);
                if trailing {
                    text.push_str(eol);
                }
                text
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn streaming_reader_matches_the_reference_on_token_soup(text in arb_soup()) {
            assert_same_as_reference(&text);
        }

        #[test]
        fn streaming_reader_matches_the_reference_on_well_formed_tables(
            text in arb_well_formed(),
        ) {
            assert_same_as_reference(&text);
        }
    }
}
