//! Minimal HTTP/1.1 framing — just enough protocol for a JSON API daemon:
//! request-line + headers + `Content-Length` bodies in, status + headers +
//! body out, one request per connection (`Connection: close`).
//! Hand-rolled because the registry is unreachable; limits on header and
//! body sizes keep a malicious peer from ballooning memory.

use seedb_obs::TraceCtx;
use std::io::{BufRead, BufReader, Read, Write};
use std::time::Duration;

/// Upper bound on the request head (request line + headers).
const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on a request body.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;
/// Per-connection socket read timeout (the server sets it before
/// [`read_request`]); a stalled peer cannot pin a worker.
pub const IO_TIMEOUT: Duration = Duration::from_secs(10);
/// Room for a response's status line and headers, so the frame buffer
/// is allocated once.
const FRAME_HEAD_BYTES: usize = 192;

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercased method (`GET`, `POST`, …).
    pub method: String,
    /// Request path, query string included (the router splits it).
    pub path: String,
    /// Raw body bytes decoded to UTF-8 (empty when absent).
    pub body: String,
    /// Client-sent `X-Request-Id`, sanitized ([`sanitize_request_id`]);
    /// `None` when absent or unusable (the server then generates one).
    pub request_id: Option<String>,
    /// Where the router records its spans (catalog build, cache probe,
    /// plan, phases, cache deposit); disabled unless the server armed it.
    pub trace: TraceCtx,
}

impl Request {
    /// A request with no `X-Request-Id` header and a disabled trace — the
    /// common case, and the constructor tests use.
    pub fn new(
        method: impl Into<String>,
        path: impl Into<String>,
        body: impl Into<String>,
    ) -> Self {
        Request {
            method: method.into(),
            path: path.into(),
            body: body.into(),
            request_id: None,
            trace: TraceCtx::disabled(),
        }
    }
}

/// Longest client-supplied request id the server will echo.
pub const MAX_REQUEST_ID_LEN: usize = 64;

/// Validates a client-sent request id for safe echoing into headers,
/// JSON envelopes, and log lines: non-empty, at most
/// [`MAX_REQUEST_ID_LEN`] bytes, and limited to URL-safe characters
/// (alphanumerics plus `-`, `_`, `.`). Anything else is dropped and the
/// server generates its own id instead — a header is attacker-controlled
/// input, not a trusted correlation key.
pub fn sanitize_request_id(raw: &str) -> Option<String> {
    let trimmed = raw.trim();
    let ok = !trimmed.is_empty()
        && trimmed.len() <= MAX_REQUEST_ID_LEN
        && trimmed
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.'));
    ok.then(|| trimmed.to_owned())
}

/// An HTTP response ready to serialize.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Body text (JSON for every API route).
    pub body: String,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// `Retry-After` header value in seconds, for shed responses.
    pub retry_after: Option<u64>,
    /// `X-Request-Id` header value echoed back to the client.
    pub request_id: Option<String>,
}

impl Response {
    /// A `200 OK` JSON response.
    pub fn json(body: String) -> Response {
        Response {
            status: 200,
            body,
            content_type: "application/json",
            retry_after: None,
            request_id: None,
        }
    }

    /// A `200 OK` response with an explicit content type — the Prometheus
    /// exposition route serves `text/plain; version=0.0.4` through this.
    pub fn text(body: String, content_type: &'static str) -> Response {
        Response {
            status: 200,
            body,
            content_type,
            retry_after: None,
            request_id: None,
        }
    }

    /// An error response with a JSON `{"error": …}` body.
    pub fn error(status: u16, message: &str) -> Response {
        Response {
            status,
            body: seedb_util::Json::obj().set("error", message).compact(),
            content_type: "application/json",
            retry_after: None,
            request_id: None,
        }
    }

    /// Sets the `X-Request-Id` header echoed to the client.
    pub fn with_request_id(mut self, id: &str) -> Response {
        self.request_id = Some(id.to_owned());
        self
    }

    /// A structured error envelope: `{"error": …, "code": …}` plus, when
    /// the client should back off and retry, a `retry_after_ms` field and
    /// the matching `Retry-After` header (rounded up to whole seconds —
    /// the header's granularity). `error` stays a plain string so every
    /// error body, coded or not, parses the same way.
    pub fn error_envelope(
        status: u16,
        message: &str,
        code: &str,
        retry_after_ms: Option<u64>,
    ) -> Response {
        let mut body = seedb_util::Json::obj()
            .set("error", message)
            .set("code", code);
        if let Some(ms) = retry_after_ms {
            body = body.set("retry_after_ms", ms);
        }
        Response {
            status,
            body: body.compact(),
            content_type: "application/json",
            retry_after: retry_after_ms.map(|ms| ms.div_ceil(1000).max(1)),
            request_id: None,
        }
    }

    /// Standard reason phrase for the status code.
    pub fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            504 => "Gateway Timeout",
            _ => "Unknown",
        }
    }

    /// Serializes status line, headers, and body to `out` as one frame
    /// in one `write_all`: a response is one segment on the wire, not one
    /// per header.
    pub fn write_to(&self, out: &mut impl Write) -> std::io::Result<()> {
        use std::fmt::Write as _;
        let mut frame = String::with_capacity(FRAME_HEAD_BYTES + self.body.len());
        // Writing into a `String` cannot fail.
        let _ = write!(
            frame,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len()
        );
        if let Some(secs) = self.retry_after {
            let _ = write!(frame, "Retry-After: {secs}\r\n");
        }
        if let Some(id) = &self.request_id {
            let _ = write!(frame, "X-Request-Id: {id}\r\n");
        }
        frame.push_str("\r\n");
        frame.push_str(&self.body);
        out.write_all(frame.as_bytes())?;
        out.flush()
    }
}

/// Why a request could not be parsed. Each maps to a 4xx the connection
/// handler sends before closing.
#[derive(Debug, PartialEq, Eq)]
pub enum ParseError {
    /// Malformed request line or headers.
    Bad(String),
    /// Head or body exceeded its size limit.
    TooLarge,
    /// The peer closed or stalled before a full request arrived.
    Incomplete,
}

impl ParseError {
    /// The HTTP status this error maps to.
    pub fn status(&self) -> u16 {
        match self {
            ParseError::Bad(_) => 400,
            ParseError::TooLarge => 413,
            ParseError::Incomplete => 408,
        }
    }

    /// Human-readable description for the error body.
    pub fn message(&self) -> String {
        match self {
            ParseError::Bad(m) => format!("malformed request: {m}"),
            ParseError::TooLarge => "request too large".to_owned(),
            ParseError::Incomplete => "incomplete request".to_owned(),
        }
    }
}

/// Reads one HTTP/1.1 request from `stream`. Never panics, whatever the
/// bytes: every malformed, oversized or truncated input is a
/// [`ParseError`].
pub fn read_request(stream: impl Read) -> Result<Request, ParseError> {
    // The head budget is enforced *during* reads via `Take`: a peer
    // streaming a newline-free flood hits the limit after 16 KiB instead
    // of being buffered unboundedly until a '\n' arrives.
    let mut reader = BufReader::new(stream).take(MAX_HEAD_BYTES as u64);

    let mut line = String::new();
    read_line(&mut reader, &mut line)?;
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| ParseError::Bad("empty request line".into()))?
        .to_ascii_uppercase();
    let path = parts
        .next()
        .ok_or_else(|| ParseError::Bad("missing path".into()))?
        .to_owned();
    let version = parts
        .next()
        .ok_or_else(|| ParseError::Bad("missing HTTP version".into()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(ParseError::Bad(format!("unsupported version {version}")));
    }

    let mut content_length = 0usize;
    let mut request_id = None;
    loop {
        line.clear();
        read_line(&mut reader, &mut line)?;
        let trimmed = line.trim_end_matches(['\r', '\n']);
        if trimmed.is_empty() {
            break;
        }
        let Some((name, value)) = trimmed.split_once(':') else {
            return Err(ParseError::Bad(format!("bad header line '{trimmed}'")));
        };
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse()
                .map_err(|_| ParseError::Bad("bad Content-Length".into()))?;
            if content_length > MAX_BODY_BYTES {
                return Err(ParseError::TooLarge);
            }
        } else if name.eq_ignore_ascii_case("x-request-id") {
            request_id = sanitize_request_id(value);
        }
    }

    // Re-purpose the limiter for the body (already checked ≤ the body
    // cap, so the read itself can never balloon).
    reader.set_limit(content_length as u64);
    let mut body_bytes = vec![0u8; content_length];
    reader
        .read_exact(&mut body_bytes)
        .map_err(|_| ParseError::Incomplete)?;
    let body = String::from_utf8(body_bytes)
        .map_err(|_| ParseError::Bad("body is not valid UTF-8".into()))?;

    Ok(Request {
        request_id,
        ..Request::new(method, path, body)
    })
}

/// Reads one CRLF-terminated line from the head-budgeted reader. A line
/// cut short by the byte limit (no trailing newline, limiter exhausted)
/// is an oversized head, not a truncated request.
fn read_line(
    reader: &mut std::io::Take<impl BufRead>,
    line: &mut String,
) -> Result<(), ParseError> {
    let n = reader.read_line(line).map_err(|_| ParseError::Incomplete)?;
    if n == 0 {
        return Err(ParseError::Incomplete);
    }
    if !line.ends_with('\n') && reader.limit() == 0 {
        return Err(ParseError::TooLarge);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_raw(raw: &[u8]) -> Result<Request, ParseError> {
        read_request(raw)
    }

    #[test]
    fn parses_get_without_body() {
        let req = parse_raw(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert_eq!(req.body, "");
    }

    #[test]
    fn parses_post_with_content_length_body() {
        let req = parse_raw(
            b"POST /recommend HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: 9\r\n\r\n{\"k\": 3}\n",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, "{\"k\": 3}\n");
    }

    #[test]
    fn rejects_malformed_request_line() {
        assert!(matches!(
            parse_raw(b"NONSENSE\r\n\r\n"),
            Err(ParseError::Bad(_))
        ));
        assert!(matches!(
            parse_raw(b"GET /x SPDY/99\r\n\r\n"),
            Err(ParseError::Bad(_))
        ));
    }

    #[test]
    fn newline_free_flood_is_rejected_at_the_budget() {
        // A head with no '\n' at all must be cut off at MAX_HEAD_BYTES,
        // not buffered until the peer deigns to send a newline.
        let mut raw = b"GET /".to_vec();
        raw.extend(std::iter::repeat_n(b'a', MAX_HEAD_BYTES + 8 * 1024));
        assert!(matches!(parse_raw(&raw), Err(ParseError::TooLarge)));
        // Same for many well-formed header lines totalling too much.
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..300 {
            raw.extend(format!("X-Filler-{i}: {}\r\n", "v".repeat(64)).into_bytes());
        }
        raw.extend(b"\r\n");
        assert!(matches!(parse_raw(&raw), Err(ParseError::TooLarge)));
    }

    #[test]
    fn rejects_oversized_body_declaration() {
        let raw = format!(
            "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(
            parse_raw(raw.as_bytes()),
            Err(ParseError::TooLarge)
        ));
    }

    #[test]
    fn truncated_body_is_incomplete() {
        assert!(matches!(
            parse_raw(b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"),
            Err(ParseError::Incomplete)
        ));
    }

    #[test]
    fn response_serialization_includes_frame() {
        let mut out = Vec::new();
        Response::json("{\"a\":1}".to_owned())
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 7\r\n"));
        assert!(text.ends_with("{\"a\":1}"));
        let mut out = Vec::new();
        Response::error(404, "no such route")
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 404 Not Found\r\n"));
        assert!(text.contains("no such route"));
    }

    /// Counts `write` calls and keeps the bytes.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn response_is_one_write_of_the_whole_frame() {
        let mut out = CountingWriter::default();
        Response::error_envelope(503, "busy", "overloaded", Some(1_000))
            .with_request_id("r-7")
            .write_to(&mut out)
            .unwrap();
        assert_eq!(out.writes, 1);
        let text = String::from_utf8(out.bytes).unwrap();
        let body = r#"{"error":"busy","code":"overloaded","retry_after_ms":1000}"#;
        assert_eq!(
            text,
            format!(
                "HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\n\
                 Content-Length: {}\r\nConnection: close\r\nRetry-After: 1\r\n\
                 X-Request-Id: r-7\r\n\r\n{body}",
                body.len()
            )
        );
    }

    #[test]
    fn request_id_header_is_parsed_and_sanitized() {
        let req = parse_raw(b"GET /healthz HTTP/1.1\r\nX-Request-Id: abc-123.Z\r\n\r\n").unwrap();
        assert_eq!(req.request_id.as_deref(), Some("abc-123.Z"));
        // Case-insensitive header name, value whitespace trimmed.
        let req = parse_raw(b"GET / HTTP/1.1\r\nx-request-id:  r42 \r\n\r\n").unwrap();
        assert_eq!(req.request_id.as_deref(), Some("r42"));
        // Hostile values are dropped, not echoed.
        for bad in [
            "evil\"id",
            "a b",
            "x\tb",
            "",
            "id{with}braces",
            &"a".repeat(MAX_REQUEST_ID_LEN + 1),
        ] {
            assert_eq!(sanitize_request_id(bad), None, "{bad:?}");
        }
        let raw = b"GET / HTTP/1.1\r\nX-Request-Id: bad id\r\n\r\n";
        assert_eq!(parse_raw(raw).unwrap().request_id, None);
    }

    #[test]
    fn response_echoes_request_id_header() {
        let mut out = Vec::new();
        Response::json("{}".into())
            .with_request_id("r-00000001")
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("X-Request-Id: r-00000001\r\n"), "{text}");
    }

    #[test]
    fn error_envelope_carries_code_and_retry_after() {
        let r = Response::error_envelope(503, "too busy", "overloaded", Some(1500));
        assert_eq!(r.status, 503);
        let j = seedb_util::Json::parse(&r.body).unwrap();
        assert_eq!(j.get("error").unwrap().as_str(), Some("too busy"));
        assert_eq!(j.get("code").unwrap().as_str(), Some("overloaded"));
        assert_eq!(j.get("retry_after_ms").unwrap().as_u64(), Some(1500));
        let mut out = Vec::new();
        r.write_to(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("Retry-After: 2\r\n"), "{text}");

        // Without a retry hint there is no header and no field.
        let r = Response::error_envelope(504, "too slow", "deadline_exceeded", None);
        assert_eq!(r.reason(), "Gateway Timeout");
        let j = seedb_util::Json::parse(&r.body).unwrap();
        assert!(j.get("retry_after_ms").is_none());
        let mut out = Vec::new();
        r.write_to(&mut out).unwrap();
        assert!(!String::from_utf8(out).unwrap().contains("Retry-After"));
    }
}
