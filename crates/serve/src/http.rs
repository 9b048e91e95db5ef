//! Minimal HTTP/1.1 wire protocol over `std::net::TcpStream`.
//!
//! Hand-rolled because the workspace has no crates.io access; the surface is
//! exactly what the SPOT service plane needs and nothing more. Robustness is
//! the design driver rather than feature coverage:
//!
//! - **Deadlines everywhere.** Reading a request runs under a per-request
//!   deadline enforced through `set_read_timeout` with the *remaining*
//!   budget before every `read` call, so a client that dribbles one byte per
//!   second (slow loris) trips [`HttpError::Timeout`] instead of pinning a
//!   worker. Keep-alive waits between requests run under a separate idle
//!   timeout.
//! - **Hard size limits.** Request line, header block, header count, and
//!   body are all bounded by [`HttpLimits`]; an oversized frame fails fast
//!   with a typed error the server maps to `413`/`431` before buffering the
//!   rest.
//! - **No speculative features.** `Content-Length` bodies only —
//!   `Transfer-Encoding` is rejected with `501` rather than half-parsed.
//!
//! The parser is shared by the server and the in-tree client
//! ([`read_response`]); both sides carry leftover bytes between requests so
//! pipelined input is not dropped.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Hard input limits applied while parsing one request or response.
#[derive(Debug, Clone)]
pub struct HttpLimits {
    /// Maximum bytes in the request line (`431` beyond this).
    pub max_request_line: usize,
    /// Maximum bytes in the whole head (request line + headers).
    pub max_head_bytes: usize,
    /// Maximum number of header fields.
    pub max_headers: usize,
    /// Maximum `Content-Length` the peer may declare (`413` beyond this).
    pub max_body_bytes: usize,
}

impl Default for HttpLimits {
    fn default() -> Self {
        HttpLimits {
            max_request_line: 8 * 1024,
            max_head_bytes: 16 * 1024,
            max_headers: 64,
            max_body_bytes: 4 * 1024 * 1024,
        }
    }
}

/// Request methods the service plane understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Read-only endpoints (health, stats).
    Get,
    /// Idempotent resource creation (tenant registration).
    Put,
    /// Ingestion and admin actions.
    Post,
    /// Tenant eviction.
    Delete,
}

impl Method {
    fn parse(s: &str) -> Option<Method> {
        match s {
            "GET" => Some(Method::Get),
            "PUT" => Some(Method::Put),
            "POST" => Some(Method::Post),
            "DELETE" => Some(Method::Delete),
            _ => None,
        }
    }
}

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Parsed method.
    pub method: Method,
    /// Raw request target (path), percent-encoded as received. The router
    /// splits off any query string before matching routes.
    pub target: String,
    /// Header fields with lower-cased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` was supplied).
    pub body: Vec<u8>,
    /// Whether the connection should be kept open after responding
    /// (HTTP/1.1 default unless `Connection: close`).
    pub keep_alive: bool,
}

impl Request {
    /// Case-insensitive header lookup (names are stored lower-cased).
    pub fn header(&self, name: &str) -> Option<&str> {
        find_header(&self.headers, &name.to_ascii_lowercase())
    }
}

/// One response, built by handlers and serialized by [`Response::write_to`].
#[derive(Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Extra headers beyond the generated status line / `Content-Length`.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            headers: vec![("content-type".to_string(), "application/json".to_string())],
            body: body.into().into_bytes(),
        }
    }

    /// Attach an extra header.
    pub fn header(mut self, name: &str, value: impl Into<String>) -> Response {
        self.headers.push((name.to_string(), value.into()));
        self
    }

    /// Canonical reason phrase for the status codes the plane emits.
    pub fn reason(status: u16) -> &'static str {
        match status {
            200 => "OK",
            201 => "Created",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            409 => "Conflict",
            411 => "Length Required",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            501 => "Not Implemented",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// Serialize onto `stream` under `deadline`, head and body in one
    /// write. `close` forces a `Connection: close` header (the server also
    /// closes after writing).
    pub fn write_to(
        &self,
        stream: &mut TcpStream,
        close: bool,
        deadline: Instant,
    ) -> std::io::Result<()> {
        arm_write(stream, deadline)?;
        stream.write_all(&self.render(close))?;
        stream.flush()
    }

    /// The message bytes: status line, headers, blank line, body.
    fn render(&self, close: bool) -> Vec<u8> {
        let mut out = Vec::with_capacity(128 + self.body.len());
        write!(
            out,
            "HTTP/1.1 {} {}\r\ncontent-length: {}\r\n",
            self.status,
            Response::reason(self.status),
            self.body.len()
        )
        .expect("writing to a Vec cannot fail");
        for (name, value) in &self.headers {
            for part in [name.as_str(), ": ", value, "\r\n"] {
                out.extend_from_slice(part.as_bytes());
            }
        }
        out.extend_from_slice(if close {
            b"connection: close\r\n\r\n"
        } else {
            b"connection: keep-alive\r\n\r\n"
        });
        out.extend_from_slice(&self.body);
        out
    }
}

/// Response as seen by the in-tree client.
#[derive(Debug)]
pub struct ClientResponse {
    /// Status code from the status line.
    pub status: u16,
    /// Lower-cased header fields.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
    /// Whether the server intends to keep the connection open.
    pub keep_alive: bool,
}

impl ClientResponse {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        find_header(&self.headers, &name.to_ascii_lowercase())
    }

    /// Body as UTF-8 (lossy — bodies the plane emits are always JSON).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Outcome of waiting for the next request on a keep-alive connection.
#[derive(Debug)]
pub enum NextRequest {
    /// A complete request arrived.
    Request(Request),
    /// The peer closed cleanly between requests — normal keep-alive end.
    Closed,
    /// No request arrived within the idle timeout.
    Idle,
}

/// Typed failure while reading a request; the server maps each variant to a
/// status code (or a silent close for mid-request disconnects).
#[derive(Debug)]
pub enum HttpError {
    /// The per-request read deadline expired mid-request (slow loris).
    Timeout,
    /// The peer disconnected mid-request (torn request line, mid-body
    /// disconnect). No response is possible; close silently.
    Disconnected,
    /// Request line longer than [`HttpLimits::max_request_line`] or head
    /// larger than [`HttpLimits::max_head_bytes`] / more than
    /// [`HttpLimits::max_headers`] fields → `431`.
    HeadTooLarge,
    /// Declared `Content-Length` exceeds [`HttpLimits::max_body_bytes`] →
    /// `413`.
    BodyTooLarge,
    /// Body-bearing method without a `Content-Length` → `411`.
    LengthRequired,
    /// A feature this plane deliberately does not implement (unknown
    /// method, `Transfer-Encoding`) → `501`.
    Unsupported(&'static str),
    /// Malformed input → `400`.
    Bad(&'static str),
    /// Transport error other than timeout/disconnect; close silently.
    Io(std::io::Error),
}

impl HttpError {
    /// Status code for variants that get a best-effort response before the
    /// connection closes; `None` means close without responding.
    pub fn status(&self) -> Option<u16> {
        match self {
            HttpError::Timeout => Some(408),
            HttpError::Disconnected | HttpError::Io(_) => None,
            HttpError::HeadTooLarge => Some(431),
            HttpError::BodyTooLarge => Some(413),
            HttpError::LengthRequired => Some(411),
            HttpError::Unsupported(_) => Some(501),
            HttpError::Bad(_) => Some(400),
        }
    }

    /// Short description used in error bodies.
    pub fn describe(&self) -> &'static str {
        match self {
            HttpError::Timeout => "read deadline exceeded",
            HttpError::Disconnected => "peer disconnected mid-request",
            HttpError::HeadTooLarge => "request head exceeds limits",
            HttpError::BodyTooLarge => "request body exceeds limit",
            HttpError::LengthRequired => "content-length required",
            HttpError::Unsupported(what) => what,
            HttpError::Bad(what) => what,
            HttpError::Io(_) => "transport error",
        }
    }
}

/// Read one request from `stream`.
///
/// `carry` holds bytes read past the previous request's end (pipelining);
/// it is consumed first and refilled with any overshoot. The wait for the
/// *first* byte runs under `idle`; once a byte exists the whole request must
/// complete within `budget`.
pub fn read_request(
    stream: &mut TcpStream,
    carry: &mut Vec<u8>,
    limits: &HttpLimits,
    idle: Duration,
    budget: Duration,
) -> Result<NextRequest, HttpError> {
    // Phase 1: wait for the first byte (idle keep-alive wait) unless the
    // carry buffer already holds pipelined input.
    if carry.is_empty() {
        stream
            .set_read_timeout(Some(idle.max(Duration::from_millis(1))))
            .map_err(HttpError::Io)?;
        let mut chunk = [0u8; 4096];
        match stream.read(&mut chunk) {
            Ok(0) => return Ok(NextRequest::Closed),
            Ok(n) => carry.extend_from_slice(&chunk[..n]),
            Err(e) if timed_out(&e) => return Ok(NextRequest::Idle),
            Err(e) if disconnected(&e) => return Ok(NextRequest::Closed),
            Err(e) => return Err(HttpError::Io(e)),
        }
    }

    // Phase 2: the request clock starts with its first byte.
    let deadline = Instant::now() + budget;
    let head = read_head(stream, carry, limits, deadline, "non-UTF-8 request head")?;
    let mut lines = head.split("\r\n");

    // Request line.
    let request_line = lines.next().unwrap_or("");
    if request_line.len() > limits.max_request_line {
        return Err(HttpError::HeadTooLarge);
    }
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => return Err(HttpError::Bad("malformed request line")),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Bad("unsupported HTTP version"));
    }
    let http_11 = version == "HTTP/1.1";
    let method = Method::parse(method).ok_or(HttpError::Unsupported("unsupported method"))?;

    let headers = header_fields(lines, limits)?;
    if find_header(&headers, "transfer-encoding").is_some() {
        return Err(HttpError::Unsupported("transfer-encoding not supported"));
    }
    let keep_alive = match find_header(&headers, "connection").map(str::to_ascii_lowercase) {
        Some(c) if c.contains("close") => false,
        Some(c) if c.contains("keep-alive") => true,
        _ => http_11,
    };

    let body_len = match content_length(&headers)? {
        Some(len) => len,
        None => {
            if matches!(method, Method::Post | Method::Put) {
                return Err(HttpError::LengthRequired);
            }
            0
        }
    };
    let body = read_body(stream, carry, body_len, limits, deadline)?;

    Ok(NextRequest::Request(Request {
        method,
        target: target.to_string(),
        headers,
        body,
        keep_alive,
    }))
}

/// Read one response from `stream` under `deadline` (client side).
pub fn read_response(
    stream: &mut TcpStream,
    carry: &mut Vec<u8>,
    limits: &HttpLimits,
    deadline: Instant,
) -> Result<ClientResponse, HttpError> {
    let head = read_head(stream, carry, limits, deadline, "non-UTF-8 response head")?;
    let mut lines = head.split("\r\n");

    let status_line = lines.next().unwrap_or("");
    let mut parts = status_line.splitn(3, ' ');
    let (version, status) = match (parts.next(), parts.next()) {
        (Some(v), Some(s)) => (v, s),
        _ => return Err(HttpError::Bad("malformed status line")),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Bad("unsupported HTTP version"));
    }
    let status = status
        .parse::<u16>()
        .map_err(|_| HttpError::Bad("malformed status code"))?;

    let headers = header_fields(lines, limits)?;
    let keep_alive = !matches!(
        find_header(&headers, "connection").map(str::to_ascii_lowercase),
        Some(c) if c.contains("close")
    );
    let body_len = content_length(&headers)?.unwrap_or(0);
    let body = read_body(stream, carry, body_len, limits, deadline)?;

    Ok(ClientResponse {
        status,
        headers,
        body,
        keep_alive,
    })
}

/// Takes one message head off `carry` (its start line and header fields,
/// without the blank line that ends it), reading from `stream` under
/// `deadline` until that line arrives. A head past `max_head_bytes` is
/// [`HttpError::HeadTooLarge`]; one that is not UTF-8 is
/// [`HttpError::Bad`] saying `non_utf8`.
fn read_head(
    stream: &mut TcpStream,
    carry: &mut Vec<u8>,
    limits: &HttpLimits,
    deadline: Instant,
    non_utf8: &'static str,
) -> Result<String, HttpError> {
    let head_end = loop {
        if let Some(pos) = find(carry, b"\r\n\r\n") {
            break pos;
        }
        if carry.len() > limits.max_head_bytes {
            return Err(HttpError::HeadTooLarge);
        }
        fill(stream, carry, deadline)?;
    };
    if head_end + 4 > limits.max_head_bytes {
        return Err(HttpError::HeadTooLarge);
    }
    let head = carry[..head_end].to_vec();
    carry.drain(..head_end + 4);
    String::from_utf8(head).map_err(|_| HttpError::Bad(non_utf8))
}

/// The header fields on the `lines` after a head's start line: names
/// lower-cased, values trimmed, at most `max_headers` of them.
fn header_fields<'a>(
    lines: impl Iterator<Item = &'a str>,
    limits: &HttpLimits,
) -> Result<Vec<(String, String)>, HttpError> {
    let mut headers = Vec::new();
    for line in lines.filter(|line| !line.is_empty()) {
        if headers.len() >= limits.max_headers {
            return Err(HttpError::HeadTooLarge);
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(HttpError::Bad("malformed header field"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    Ok(headers)
}

/// The first field named `name` (lower-case) among `headers`.
fn find_header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

/// Takes a body of `len` bytes off `carry`, reading the rest from `stream`
/// under `deadline`; a body past `max_body_bytes` is
/// [`HttpError::BodyTooLarge`].
fn read_body(
    stream: &mut TcpStream,
    carry: &mut Vec<u8>,
    len: usize,
    limits: &HttpLimits,
    deadline: Instant,
) -> Result<Vec<u8>, HttpError> {
    if len > limits.max_body_bytes {
        return Err(HttpError::BodyTooLarge);
    }
    while carry.len() < len {
        fill(stream, carry, deadline)?;
    }
    Ok(carry.drain(..len).collect())
}

/// The body length a message head declares: digits only (`str::parse`
/// would also take `+5`), and when the field is repeated every copy must
/// say the same — a peer and a proxy that each believe a different one
/// would disagree on where the next message starts.
fn content_length(headers: &[(String, String)]) -> Result<Option<usize>, HttpError> {
    let mut declared = None;
    for (_, value) in headers.iter().filter(|(name, _)| name == "content-length") {
        if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
            return Err(HttpError::Bad("malformed content-length"));
        }
        let len = value
            .parse::<usize>()
            .map_err(|_| HttpError::Bad("malformed content-length"))?;
        if declared.is_some_and(|first| first != len) {
            return Err(HttpError::Bad("conflicting content-length fields"));
        }
        declared = Some(len);
    }
    Ok(declared)
}

/// Percent-decode one path segment. Returns `None` on malformed escapes.
pub fn percent_decode(segment: &str) -> Option<String> {
    let bytes = segment.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            // Two hex digits and nothing else: `from_str_radix` would
            // also take a sign (`%+f`).
            let hi = (*bytes.get(i + 1)? as char).to_digit(16)?;
            let lo = (*bytes.get(i + 2)? as char).to_digit(16)?;
            out.push((hi << 4 | lo) as u8);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).ok()
}

/// Percent-encode one path segment: unreserved characters pass through,
/// everything else (including `/`, which `TenantId` permits) is escaped so
/// it cannot be mistaken for a path separator.
pub fn percent_encode(segment: &str) -> String {
    let mut out = String::with_capacity(segment.len());
    for b in segment.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

/// One deadline-bounded read appended to `buf`.
fn fill(stream: &mut TcpStream, buf: &mut Vec<u8>, deadline: Instant) -> Result<(), HttpError> {
    let remaining = deadline
        .checked_duration_since(Instant::now())
        .ok_or(HttpError::Timeout)?;
    stream
        .set_read_timeout(Some(remaining.max(Duration::from_millis(1))))
        .map_err(HttpError::Io)?;
    let mut chunk = [0u8; 4096];
    match stream.read(&mut chunk) {
        Ok(0) => Err(HttpError::Disconnected),
        Ok(n) => {
            buf.extend_from_slice(&chunk[..n]);
            Ok(())
        }
        Err(e) if timed_out(&e) => Err(HttpError::Timeout),
        Err(e) if disconnected(&e) => Err(HttpError::Disconnected),
        Err(e) => Err(HttpError::Io(e)),
    }
}

/// Arm the write timeout with the remaining deadline budget.
fn arm_write(stream: &mut TcpStream, deadline: Instant) -> std::io::Result<()> {
    let remaining = deadline
        .checked_duration_since(Instant::now())
        .unwrap_or(Duration::from_millis(1));
    stream.set_write_timeout(Some(remaining.max(Duration::from_millis(1))))
}

fn timed_out(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

fn disconnected(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::UnexpectedEof
    )
}

/// First index of `needle` in `haystack`.
fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    if needle.is_empty() || haystack.len() < needle.len() {
        return None;
    }
    haystack
        .windows(needle.len())
        .position(|window| window == needle)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find_subsequence() {
        assert_eq!(find(b"abc\r\n\r\ndef", b"\r\n\r\n"), Some(3));
        assert_eq!(find(b"abc", b"\r\n\r\n"), None);
        assert_eq!(find(b"", b"x"), None);
    }

    #[test]
    fn percent_roundtrip() {
        for id in ["plain", "with/slash", "sp ace", "uni-ø", "pct%25"] {
            let enc = percent_encode(id);
            assert!(!enc.contains('/'), "encoded {enc:?} leaks a separator");
            assert_eq!(percent_decode(&enc).as_deref(), Some(id));
        }
        assert_eq!(percent_decode("%zz"), None);
        assert_eq!(percent_decode("%2"), None);
        // Two hex digits, not a signed number.
        assert_eq!(percent_decode("%+f"), None);
        assert_eq!(percent_decode("a%-1"), None);
        assert_eq!(percent_decode("%fF"), None); // a lone 0xFF is not UTF-8
        assert_eq!(percent_decode("%c3%B8").as_deref(), Some("ø"));
    }

    #[test]
    fn content_length_is_digits_only_and_unambiguous() {
        let head = |values: &[&str]| -> Vec<(String, String)> {
            let mut headers = vec![("host".to_string(), "x".to_string())];
            headers.extend(
                values
                    .iter()
                    .map(|v| ("content-length".to_string(), v.to_string())),
            );
            headers
        };
        assert!(matches!(content_length(&head(&[])), Ok(None)));
        assert!(matches!(content_length(&head(&["0"])), Ok(Some(0))));
        assert!(matches!(content_length(&head(&["42"])), Ok(Some(42))));
        // Repeated but unanimous (leading zeros and all) is one length.
        assert!(matches!(content_length(&head(&["5", "05"])), Ok(Some(5))));
        for bad in [
            &["+5"][..],
            &["-0"],
            &[""],
            &["5 5"],
            &["0x10"],
            &["5,5"],
            &["99999999999999999999999999"],
            &["5", "6"],
            &["5", "5", "+5"],
        ] {
            assert!(
                matches!(content_length(&head(bad)), Err(HttpError::Bad(_))),
                "{bad:?} must be a 400"
            );
        }
    }

    #[test]
    fn reason_phrases() {
        assert_eq!(Response::reason(200), "OK");
        assert_eq!(Response::reason(429), "Too Many Requests");
        assert_eq!(Response::reason(599), "Unknown");
    }

    #[test]
    fn one_write_carries_the_head_and_body_of_two() {
        // The head ‖ body pair `write_to` used to send as two writes.
        fn two_writes(r: &Response, close: bool) -> Vec<u8> {
            let mut head = format!(
                "HTTP/1.1 {} {}\r\ncontent-length: {}\r\n",
                r.status,
                Response::reason(r.status),
                r.body.len()
            );
            for (name, value) in &r.headers {
                head.push_str(&format!("{name}: {value}\r\n"));
            }
            head.push_str(if close {
                "connection: close\r\n\r\n"
            } else {
                "connection: keep-alive\r\n\r\n"
            });
            [head.into_bytes(), r.body.clone()].concat()
        }
        let statuses = [
            200, 201, 400, 404, 405, 408, 409, 411, 413, 429, 431, 500, 501, 503, 599,
        ];
        for status in statuses {
            for body in ["", "{\"enqueued\":16}"] {
                let bare = Response {
                    status,
                    headers: Vec::new(),
                    body: body.as_bytes().to_vec(),
                };
                let json = Response::json(status, body);
                let extra = Response::json(status, body).header("retry-after", "2");
                for response in [bare, json, extra] {
                    for close in [false, true] {
                        assert_eq!(
                            response.render(close),
                            two_writes(&response, close),
                            "status {status}, close {close}, {:?}",
                            response.headers
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn error_status_mapping() {
        assert_eq!(HttpError::Timeout.status(), Some(408));
        assert_eq!(HttpError::HeadTooLarge.status(), Some(431));
        assert_eq!(HttpError::BodyTooLarge.status(), Some(413));
        assert_eq!(HttpError::LengthRequired.status(), Some(411));
        assert_eq!(HttpError::Bad("x").status(), Some(400));
        assert_eq!(HttpError::Unsupported("x").status(), Some(501));
        assert_eq!(HttpError::Disconnected.status(), None);
    }
}
