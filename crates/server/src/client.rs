//! A tiny std-only HTTP client — enough to exercise `seedbd` from tests,
//! examples, and the CI smoke job without curl or an HTTP crate.

use seedb_util::Json;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Status code, headers (names lowercased), body.
pub type HttpResponse = (u16, Vec<(String, String)>, String);

/// Issues one HTTP/1.1 request and returns `(status, body)`.
pub fn request(
    addr: impl ToSocketAddrs,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<(u16, String)> {
    let (status, _, body) = request_with_headers(addr, method, path, body, &[])?;
    Ok((status, body))
}

/// Issues one HTTP/1.1 request with extra headers and returns
/// `(status, headers, body)`. Header names come back lowercased so
/// callers can look up `x-request-id` without case games.
pub fn request_with_headers(
    addr: impl ToSocketAddrs,
    method: &str,
    path: &str,
    body: Option<&str>,
    headers: &[(&str, &str)],
) -> std::io::Result<HttpResponse> {
    let addr: SocketAddr = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| std::io::Error::other("no address"))?;
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(120)))?;
    stream.set_write_timeout(Some(Duration::from_secs(10)))?;
    stream.write_all(request_frame(method, path, body.unwrap_or(""), headers).as_bytes())?;
    stream.flush()?;

    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    parse_response(&raw).map_err(std::io::Error::other)
}

/// The whole request — request line, headers and body — as one buffer,
/// so it leaves in one write.
fn request_frame(method: &str, path: &str, body: &str, headers: &[(&str, &str)]) -> String {
    use std::fmt::Write as _;
    let mut frame = String::with_capacity(128 + body.len());
    // Writing into a `String` cannot fail.
    let _ = write!(
        frame,
        "{method} {path} HTTP/1.1\r\nHost: seedbd\r\nContent-Type: application/json\r\nContent-Length: {}\r\n",
        body.len()
    );
    for (name, value) in headers {
        let _ = write!(frame, "{name}: {value}\r\n");
    }
    frame.push_str("Connection: close\r\n\r\n");
    frame.push_str(body);
    frame
}

/// The first value of `name` (lowercase) in a header list from
/// [`request_with_headers`].
pub fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

/// [`request`], parsing the body as JSON.
pub fn request_json(
    addr: impl ToSocketAddrs,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<(u16, Json)> {
    let (status, body) = request(addr, method, path, body)?;
    let json = Json::parse(&body)
        .map_err(|e| std::io::Error::other(format!("unparseable body: {e}: {body}")))?;
    Ok((status, json))
}

/// Splits a raw HTTP/1.1 response into status code, headers (names
/// lowercased), and body.
fn parse_response(raw: &str) -> Result<HttpResponse, String> {
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("no header/body separator in response: {raw:.120}"))?;
    let mut lines = head.lines();
    let status_line = lines.next().unwrap_or("");
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("bad status line '{status_line}'"))?;
    let headers = lines
        .filter_map(|line| line.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_owned()))
        .collect();
    Ok((status, headers, body.to_owned()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_frame_bytes_are_unchanged() {
        assert_eq!(
            request_frame(
                "POST",
                "/recommend",
                "{\"k\":3}",
                &[("X-Request-Id", "r-1")]
            ),
            "POST /recommend HTTP/1.1\r\nHost: seedbd\r\nContent-Type: application/json\r\n\
             Content-Length: 7\r\nX-Request-Id: r-1\r\nConnection: close\r\n\r\n{\"k\":3}"
        );
        assert_eq!(
            request_frame("GET", "/healthz", "", &[]),
            "GET /healthz HTTP/1.1\r\nHost: seedbd\r\nContent-Type: application/json\r\n\
             Content-Length: 0\r\nConnection: close\r\n\r\n"
        );
    }

    #[test]
    fn parses_response_frames() {
        let (status, headers, body) =
            parse_response("HTTP/1.1 200 OK\r\nContent-Length: 2\r\nX-Request-Id: r-1\r\n\r\n{}")
                .unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "{}");
        assert_eq!(header(&headers, "content-length"), Some("2"));
        assert_eq!(header(&headers, "x-request-id"), Some("r-1"));
        assert!(header(&headers, "retry-after").is_none());
        assert!(parse_response("garbage").is_err());
        assert!(parse_response("HTTP/1.1 abc\r\n\r\nx").is_err());
    }
}
