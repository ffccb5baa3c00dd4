//! A minimal JSON value: builder, writer, and parser.
//!
//! Enough JSON to emit the `BENCH_*.json` trajectory files and to frame the
//! `seedbd` HTTP API without an external serializer. The writer emits the
//! subset the parser reads back (null, bools, finite numbers, strings,
//! arrays, objects), so documents round-trip exactly.
//!
//! Parsing is linear in the document's length. A string literal is copied
//! run by run — everything between two `"`/`\` stop bytes in one
//! `push_str` — so the time to decode a CSV upload inside a
//! `POST /datasets` body grows with its size, not with its square.
//! Nesting is capped at 128 levels.

/// A minimal JSON value builder — enough to emit the `BENCH_*.json`
/// figure files and the `seedbd` API bodies without an external serializer.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// JSON number (finite; non-finite serializes as `null`).
    Num(f64),
    /// JSON string.
    Str(String),
    /// JSON array.
    Arr(Vec<Json>),
    /// JSON object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object builder.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Parses a JSON document (the subset this crate emits: null, bools,
    /// finite numbers, strings with the escapes [`Json::pretty`] writes,
    /// arrays, objects). Used by the perf-smoke tool to read committed
    /// baseline files back in and by `seedbd` to read request bodies.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut pos = 0usize;
        let value = parse_value(text, &mut pos, 0)?;
        skip_ws(text.as_bytes(), &mut pos);
        if pos != text.len() {
            return Err(format!("trailing content at byte {pos}"));
        }
        Ok(value)
    }

    /// Member lookup on an object (`None` for missing keys or non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric view.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// Non-negative integer view (numbers with no fractional part).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= u64::MAX as f64 => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array view.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Adds `key: value` to an object.
    ///
    /// # Panics
    /// Panics when called on a non-object.
    pub fn set(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(fields) => fields.push((key.to_owned(), value.into())),
            _ => panic!("Json::set on a non-object"),
        }
        self
    }

    /// Serializes with two-space indentation and a trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Serializes on one line with no trailing newline — the wire format
    /// `seedbd` responds with.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_scalar(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => {
                if x.is_finite() {
                    if x.fract() == 0.0 && x.abs() < 1e15 {
                        out.push_str(&format!("{}", *x as i64));
                    } else {
                        out.push_str(&format!("{x}"));
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\t' => out.push_str("\\t"),
                        '\r' => out.push_str("\\r"),
                        c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(_) | Json::Obj(_) => unreachable!("containers handled by caller"),
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent + 1);
        let close_pad = "  ".repeat(indent);
        match self {
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&pad);
                    item.write(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&close_pad);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (key, value)) in fields.iter().enumerate() {
                    out.push_str(&pad);
                    Json::Str(key.clone()).write(out, indent + 1);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                    if i + 1 < fields.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&close_pad);
                out.push('}');
            }
            scalar => scalar.write_scalar(out),
        }
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(key.clone()).write_compact(out);
                    out.push(':');
                    value.write_compact(out);
                }
                out.push('}');
            }
            scalar => scalar.write_scalar(out),
        }
    }
}

/// Maximum container nesting the parser accepts — protects the recursive
/// descent from stack overflow on adversarial input (`[[[[…`), which a
/// network-facing parser must never turn into a process abort.
const MAX_DEPTH: usize = 128;

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, token: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&token) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", token as char, *pos))
    }
}

fn parse_value(text: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} levels"));
    }
    let bytes = text.as_bytes();
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_owned()),
        Some(b'n') => parse_keyword(bytes, pos, "null", Json::Null),
        Some(b't') => parse_keyword(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(text, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(text, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(text, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                fields.push((key, parse_value(text, pos, depth + 1)?));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(_) => {
            let start = *pos;
            while *pos < bytes.len()
                && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            std::str::from_utf8(&bytes[start..*pos])
                .ok()
                .and_then(|s| s.parse::<f64>().ok())
                .map(Json::Num)
                .ok_or_else(|| format!("invalid number at byte {start}"))
        }
    }
}

fn parse_keyword(
    bytes: &[u8],
    pos: &mut usize,
    keyword: &str,
    value: Json,
) -> Result<Json, String> {
    if bytes[*pos..].starts_with(keyword.as_bytes()) {
        *pos += keyword.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

/// Decodes the string literal at `*pos` in linear time: each run of bytes
/// between the stop bytes `"` and `\` is copied with one `push_str`. Both
/// stop bytes are ASCII and `text` is valid UTF-8, so every run starts and
/// ends on a char boundary.
fn parse_string(text: &str, pos: &mut usize) -> Result<String, String> {
    let bytes = text.as_bytes();
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        let start = *pos;
        let rest = bytes.get(start..).unwrap_or_default();
        *pos += rest
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .unwrap_or(rest.len());
        let run = text
            .get(start..*pos)
            .ok_or_else(|| "invalid UTF-8 in string".to_owned())?;
        out.push_str(run);
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_owned()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            // The run stopped at '\\': an escape.
            Some(_) => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .and_then(char::from_u32)
                            .ok_or_else(|| format!("bad \\u escape at byte {pos}", pos = *pos))?;
                        out.push(hex);
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
        }
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}

impl From<usize> for Json {
    fn from(x: usize) -> Json {
        Json::Num(x as f64)
    }
}

impl From<u64> for Json {
    fn from(x: u64) -> Json {
        Json::Num(x as f64)
    }
}

impl From<bool> for Json {
    fn from(x: bool) -> Json {
        Json::Bool(x)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn json_escapes_and_nests() {
        let j = Json::obj()
            .set("name", "a\"b\\c\n")
            .set("xs", vec![Json::from(1.0), Json::from(2.5)])
            .set("flag", true)
            .set("nothing", Json::Null);
        let s = j.pretty();
        assert!(s.contains("a\\\"b\\\\c\\n"));
        assert!(s.contains("2.5"));
        assert!(s.contains("\"flag\": true"));
    }

    #[test]
    fn json_parse_round_trips_emitted_documents() {
        let j = Json::obj()
            .set("figure", "fig5_overall")
            .set("seed", 17u64)
            .set("neg", -2.75)
            .set("escaped", "a\"b\\c\nd\tt\u{1}")
            .set("empty_arr", Vec::<Json>::new())
            .set("empty_obj", Json::obj())
            .set("nothing", Json::Null)
            .set(
                "results",
                vec![
                    Json::obj().set("mean_ms", 1.5).set("ok", true),
                    Json::obj().set("mean_ms", 300.0).set("ok", false),
                ],
            );
        let text = j.pretty();
        let parsed = Json::parse(&text).unwrap();
        // Round trip: re-serializing the parse yields the same text.
        assert_eq!(parsed.pretty(), text);
        assert_eq!(parsed.get("figure").unwrap().as_str(), Some("fig5_overall"));
        assert_eq!(parsed.get("neg").unwrap().as_num(), Some(-2.75));
        let results = parsed.get("results").unwrap().as_arr().unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(results[1].get("mean_ms").unwrap().as_num(), Some(300.0));
    }

    #[test]
    fn json_compact_round_trips() {
        let j = Json::obj()
            .set("k", 5u64)
            .set("where", "sex = 'F'")
            .set("xs", vec![Json::from(1.0), Json::Null, Json::from(true)]);
        let text = j.compact();
        assert!(!text.contains('\n'));
        assert_eq!(Json::parse(&text).unwrap(), j);
    }

    #[test]
    fn json_parse_rejects_malformed_input() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1, 2,]").is_err());
        assert!(Json::parse("{\"a\": 1} trailing").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn json_parse_bounds_nesting_depth() {
        // 10k opening brackets must yield an error, not a stack overflow.
        let deep = "[".repeat(10_000);
        assert!(Json::parse(&deep).is_err());
        let mut balanced = "[".repeat(10_000);
        balanced.push_str(&"]".repeat(10_000));
        assert!(Json::parse(&balanced).is_err());
        // Reasonable nesting still parses.
        let ok = format!("{}1{}", "[".repeat(50), "]".repeat(50));
        assert!(Json::parse(&ok).is_ok());
    }

    /// The decoder `parse_string` replaced — one UTF-8 scalar at a time,
    /// re-validating the rest of the document for each — kept as the
    /// oracle for the run-copying one.
    fn reference_parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
        expect(bytes, pos, b'"')?;
        let mut out = String::new();
        loop {
            match bytes.get(*pos) {
                None => return Err("unterminated string".to_owned()),
                Some(b'"') => {
                    *pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *pos += 1;
                    match bytes.get(*pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            let hex = bytes
                                .get(*pos + 1..*pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| {
                                    format!("bad \\u escape at byte {pos}", pos = *pos)
                                })?;
                            out.push(hex);
                            *pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    *pos += 1;
                }
                Some(_) => {
                    let rest = std::str::from_utf8(&bytes[*pos..])
                        .map_err(|_| "invalid UTF-8 in string".to_owned())?;
                    let c = rest.chars().next().expect("non-empty by match");
                    out.push(c);
                    *pos += c.len_utf8();
                }
            }
        }
    }

    /// Pieces of string literals: plain runs, every escape the decoder
    /// knows, broken escapes, raw control and multi-byte characters, and
    /// the stop bytes themselves.
    const STRING_PIECES: &[&str] = &[
        "a",
        "plain run",
        "\"",
        "\\\"",
        "\\\\",
        "\\n",
        "\\t",
        "\\r",
        "\\u0041",
        "\\u00e9",
        "\\u20AC",
        "\\uD800",
        "\\u12",
        "\\u+123",
        "\\x",
        "\\",
        "é",
        "日本語",
        "🦀",
        "\n",
        "\t",
        ",",
        "{}",
        " ",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn parse_string_matches_the_char_by_char_decoder(
            picks in prop::collection::vec(0..STRING_PIECES.len(), 0..24),
            close in any::<bool>(),
        ) {
            let mut text = String::from("\"");
            for i in picks {
                text.push_str(STRING_PIECES[i]);
            }
            if close {
                text.push('"');
            }
            let (mut fast_pos, mut slow_pos) = (0, 0);
            let fast = parse_string(&text, &mut fast_pos);
            let slow = reference_parse_string(text.as_bytes(), &mut slow_pos);
            prop_assert_eq!(&fast, &slow, "input {:?}", text);
            if fast.is_ok() {
                prop_assert_eq!(fast_pos, slow_pos, "input {:?}", text);
            }
        }
    }

    #[test]
    fn string_decoding_is_linear_in_length() {
        // A CSV upload as the API receives it: many short runs between
        // escaped newlines and quotes. Linear decoding makes 16× the text
        // cost about 16× the time; the char-by-char decoder's cost grew
        // with the square (about 256×).
        fn body(kib: usize) -> String {
            let row = "paris,\\\"quoted\\\",12.5,3\\n";
            let mut text = String::from("\"");
            while text.len() < kib * 1024 {
                text.push_str(row);
            }
            text.push('"');
            text
        }
        fn best_of_five(text: &str) -> std::time::Duration {
            (0..5)
                .map(|_| {
                    let started = std::time::Instant::now();
                    std::hint::black_box(Json::parse(std::hint::black_box(text)).unwrap());
                    started.elapsed()
                })
                .min()
                .unwrap()
        }
        let (small, large) = (body(64), body(1024));
        let ratio = best_of_five(&large).as_secs_f64() / best_of_five(&small).as_secs_f64();
        assert!(ratio <= 64.0, "1 MiB took {ratio:.1}× as long as 64 KiB");
    }

    #[test]
    fn typed_views() {
        let j = Json::parse("{\"n\": 3, \"b\": true, \"f\": 2.5}").unwrap();
        assert_eq!(j.get("n").unwrap().as_u64(), Some(3));
        assert_eq!(j.get("b").unwrap().as_bool(), Some(true));
        assert_eq!(j.get("f").unwrap().as_u64(), None);
        assert_eq!(j.get("f").unwrap().as_num(), Some(2.5));
    }
}
