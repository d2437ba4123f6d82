//! A strictly-bounded HTTP/1.1 request parser and response writer.
//!
//! Hand-rolled on `std` only, per the hermetic policy. The parser is
//! deliberately narrow — exactly what a simulation-query service needs and
//! nothing more:
//!
//! * `Content-Length` bodies only on requests (`Transfer-Encoding` on a
//!   *request* is rejected; *responses* may stream with
//!   `Transfer-Encoding: chunked` via [`chunk_frame`]).
//! * Persistent connections: after a complete request the parser returns
//!   to the head phase with any pipelined bytes retained, so one parser
//!   serves a whole keep-alive connection. [`Request::wants_keep_alive`]
//!   reflects the peer's `Connection` preference per HTTP/1.1 / 1.0
//!   defaults.
//! * Hard caps on every dimension of a request (request line, total head,
//!   header count, body size), checked *incrementally* so a hostile peer
//!   cannot make the server buffer unbounded input. The caps are
//!   chunking-invariant: a request is accepted or rejected identically
//!   whether it arrives in one `read` or one byte at a time — the
//!   property tests in `tests/http_prop.rs` drive exactly that. The caps
//!   apply per request, not per connection.
//!
//! Violations map to the three rejection statuses the service uses:
//! `400` (malformed), `431` (request line/headers too large), `413`
//! (declared body too large). The parser never panics on any input, and
//! after a rejection it stays poisoned — the server answers the error and
//! closes, so a desynchronized byte stream is never reinterpreted.

use std::io::{self, Write};

use tts_units::json::Json;

/// Cap on the request line (method + target + version + CRLF), bytes.
pub const MAX_REQUEST_LINE_BYTES: usize = 8 * 1024;
/// Cap on the whole head: request line + headers + terminator, bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Cap on the number of header fields.
pub const MAX_HEADERS: usize = 64;
/// Cap on the declared (and therefore buffered) body size, bytes.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// Why a request was rejected, mapped to the response status the server
/// answers with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// `400 Bad Request`: syntactically invalid request.
    Malformed(&'static str),
    /// `431 Request Header Fields Too Large`: request line or head over
    /// the caps.
    HeadTooLarge,
    /// `413 Content Too Large`: declared `Content-Length` over the cap.
    BodyTooLarge,
}

impl HttpError {
    /// The response status code for this rejection.
    #[must_use]
    pub fn status(&self) -> u16 {
        match self {
            HttpError::Malformed(_) => 400,
            HttpError::HeadTooLarge => 431,
            HttpError::BodyTooLarge => 413,
        }
    }

    /// A human-readable reason, safe to echo in an error body.
    #[must_use]
    pub fn message(&self) -> String {
        match self {
            HttpError::Malformed(why) => format!("malformed request: {why}"),
            HttpError::HeadTooLarge => format!(
                "request head too large (limits: {MAX_REQUEST_LINE_BYTES} B request line, \
                 {MAX_HEAD_BYTES} B head, {MAX_HEADERS} headers)"
            ),
            HttpError::BodyTooLarge => {
                format!("request body too large (limit: {MAX_BODY_BYTES} B)")
            }
        }
    }
}

/// A fully parsed request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// The method verbatim (e.g. `GET`, `POST`).
    pub method: String,
    /// The decoded path component of the target (no query string).
    pub path: String,
    /// Decoded query parameters, in order of appearance.
    pub query: Vec<(String, String)>,
    /// Header fields with lowercased names, in order of appearance.
    pub headers: Vec<(String, String)>,
    /// The body (empty unless a `Content-Length` was declared).
    pub body: Vec<u8>,
    /// Whether the request line declared `HTTP/1.1` (vs `HTTP/1.0`),
    /// which decides the keep-alive default.
    pub http11: bool,
}

impl Request {
    /// The first value of header `name` (give `name` lowercased).
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The first value of query parameter `key`.
    #[must_use]
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the peer asked to keep the connection open. An explicit
    /// `Connection: close` token wins, an explicit `keep-alive` token
    /// opts in, and with neither the HTTP version decides: 1.1 defaults
    /// to keep-alive, 1.0 to close.
    #[must_use]
    pub fn wants_keep_alive(&self) -> bool {
        let tokens: Vec<String> = self
            .header("connection")
            .map(|v| {
                v.to_ascii_lowercase()
                    .split(',')
                    .map(|t| t.trim().to_string())
                    .collect()
            })
            .unwrap_or_default();
        if tokens.iter().any(|t| t == "close") {
            false
        } else if tokens.iter().any(|t| t == "keep-alive") {
            true
        } else {
            self.http11
        }
    }
}

/// Parser progress: still reading the head, filling the body, or poisoned
/// after a rejection.
#[derive(Debug)]
enum Phase {
    Head,
    Body { req: Request, need: usize },
    Poisoned,
}

/// An incremental request parser. Feed it reads as they arrive; it
/// returns each request once complete, or an [`HttpError`] as soon as a
/// violation is provable (possibly before the peer finishes sending).
///
/// One parser serves a whole keep-alive connection: after a complete
/// request it returns to the head phase with any pipelined bytes
/// retained, so the next call (even `feed(&[])`) can yield the next
/// request without further reads. The per-request caps reset at each
/// request boundary.
#[derive(Debug)]
pub struct RequestParser {
    buf: Vec<u8>,
    phase: Phase,
}

impl Default for RequestParser {
    fn default() -> Self {
        Self::new()
    }
}

impl RequestParser {
    /// A parser at the start of a request.
    #[must_use]
    pub fn new() -> Self {
        Self {
            buf: Vec::new(),
            phase: Phase::Head,
        }
    }

    /// Whether the parser is holding a partially received request: a
    /// non-empty head buffer or an unfinished body. A peer that closes
    /// (or goes idle) while this is `true` abandoned a request mid-flight;
    /// while `false` the connection is merely idle between requests.
    #[must_use]
    pub fn mid_request(&self) -> bool {
        match self.phase {
            Phase::Head => !self.buf.is_empty(),
            Phase::Body { .. } => true,
            Phase::Poisoned => false,
        }
    }

    /// Consumes the next chunk from the connection. Returns
    /// `Ok(Some(request))` once a request is complete, `Ok(None)` while
    /// more bytes are needed, or the rejection. After an error, further
    /// input is ignored (`Ok(None)`): the stream may be desynchronized,
    /// so the server answers the error and closes.
    pub fn feed(&mut self, bytes: &[u8]) -> Result<Option<Request>, HttpError> {
        if matches!(self.phase, Phase::Poisoned) {
            return Ok(None);
        }
        self.buf.extend_from_slice(bytes);
        if let Phase::Head = self.phase {
            // The caps are applied to positions in the byte stream
            // relative to the request's start, never to chunk sizes, so
            // acceptance is chunking-invariant.
            match find_subslice(&self.buf, b"\r\n\r\n") {
                Some(pos) if pos + 4 <= MAX_HEAD_BYTES => {
                    let head: Vec<u8> = self.buf.drain(..pos + 4).collect();
                    let (req, need) = parse_head(&head[..pos]).inspect_err(|_| {
                        self.phase = Phase::Poisoned;
                    })?;
                    self.phase = Phase::Body { req, need };
                }
                Some(_) => {
                    self.phase = Phase::Poisoned;
                    return Err(HttpError::HeadTooLarge);
                }
                None => {
                    let line_end = find_subslice(&self.buf, b"\r\n");
                    let over_line = match line_end {
                        Some(p) => p + 2 > MAX_REQUEST_LINE_BYTES,
                        None => self.buf.len() > MAX_REQUEST_LINE_BYTES,
                    };
                    if over_line || self.buf.len() > MAX_HEAD_BYTES {
                        self.phase = Phase::Poisoned;
                        return Err(HttpError::HeadTooLarge);
                    }
                    return Ok(None);
                }
            }
        }
        if let Phase::Body { req, need } = &mut self.phase {
            let take = (*need - req.body.len()).min(self.buf.len());
            req.body.extend(self.buf.drain(..take));
            if req.body.len() == *need {
                // Back to the head phase with any pipelined bytes
                // retained — the connection is persistent now.
                let done = std::mem::replace(&mut self.phase, Phase::Head);
                let Phase::Body { req, .. } = done else {
                    unreachable!("phase checked above");
                };
                return Ok(Some(req));
            }
        }
        Ok(None)
    }
}

/// First position of `needle` in `haystack`.
fn find_subslice(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// Parses the head (everything before the `\r\n\r\n` terminator) into a
/// request plus the declared body length.
fn parse_head(head: &[u8]) -> Result<(Request, usize), HttpError> {
    let text =
        std::str::from_utf8(head).map_err(|_| HttpError::Malformed("head is not valid UTF-8"))?;
    let mut lines = text.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    if request_line.len() + 2 > MAX_REQUEST_LINE_BYTES {
        return Err(HttpError::HeadTooLarge);
    }
    let (method, path, query, http11) = parse_request_line(request_line)?;

    let mut headers: Vec<(String, String)> = Vec::new();
    for line in lines {
        if headers.len() == MAX_HEADERS {
            return Err(HttpError::HeadTooLarge);
        }
        // A lone `\n` inside the head lands the stray bytes in some line
        // and fails the charset checks below.
        let (name, value) = line
            .split_once(':')
            .ok_or(HttpError::Malformed("header line without a colon"))?;
        if name.is_empty() || !name.bytes().all(is_token_byte) {
            return Err(HttpError::Malformed("invalid header name"));
        }
        let value = value.trim_matches([' ', '\t']);
        if !value
            .bytes()
            .all(|b| b == b'\t' || (0x20..0x7f).contains(&b))
        {
            return Err(HttpError::Malformed("invalid header value byte"));
        }
        headers.push((name.to_ascii_lowercase(), value.to_string()));
    }

    if headers.iter().any(|(k, _)| k == "transfer-encoding") {
        return Err(HttpError::Malformed(
            "transfer-encoding is not supported (Content-Length only)",
        ));
    }
    let mut need = 0usize;
    let mut seen_length: Option<&str> = None;
    for (k, v) in &headers {
        if k != "content-length" {
            continue;
        }
        if seen_length.is_some_and(|prev| prev != v) {
            return Err(HttpError::Malformed("conflicting content-length headers"));
        }
        seen_length = Some(v);
        if v.is_empty() || !v.bytes().all(|b| b.is_ascii_digit()) {
            return Err(HttpError::Malformed("content-length is not a number"));
        }
        let n: u64 = v
            .parse()
            .map_err(|_| HttpError::Malformed("content-length out of range"))?;
        if n > MAX_BODY_BYTES as u64 {
            return Err(HttpError::BodyTooLarge);
        }
        need = n as usize;
    }

    Ok((
        Request {
            method,
            path,
            query,
            headers,
            body: Vec::with_capacity(need.min(64 * 1024)),
            http11,
        },
        need,
    ))
}

/// `(method, decoded path, decoded query pairs, is-HTTP/1.1)` from a
/// request line.
type RequestLine = (String, String, Vec<(String, String)>, bool);

/// Splits and validates `METHOD SP target SP HTTP/1.x`.
fn parse_request_line(line: &str) -> Result<RequestLine, HttpError> {
    let mut parts = line.split(' ');
    let (Some(method), Some(target), Some(version), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Err(HttpError::Malformed(
            "request line is not `METHOD target HTTP/1.x`",
        ));
    };
    if method.is_empty() || method.len() > 16 || !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(HttpError::Malformed("invalid method"));
    }
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::Malformed("unsupported HTTP version"));
    }
    let http11 = version == "HTTP/1.1";
    if !target.starts_with('/') || !target.bytes().all(|b| (0x21..0x7f).contains(&b)) {
        return Err(HttpError::Malformed("invalid request target"));
    }
    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    let path = percent_decode(raw_path)?;
    let mut query = Vec::new();
    if let Some(q) = raw_query {
        for piece in q.split('&').filter(|p| !p.is_empty()) {
            let (k, v) = piece.split_once('=').unwrap_or((piece, ""));
            query.push((percent_decode(k)?, percent_decode(v)?));
        }
    }
    Ok((method.to_string(), path, query, http11))
}

/// Token bytes per RFC 9110 field names.
fn is_token_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&b)
}

/// Decodes `%XX` escapes and `+`-as-space; the result must be UTF-8.
fn percent_decode(s: &str) -> Result<String, HttpError> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hi = bytes.get(i + 1).and_then(|b| (*b as char).to_digit(16));
                let lo = bytes.get(i + 2).and_then(|b| (*b as char).to_digit(16));
                let (Some(hi), Some(lo)) = (hi, lo) else {
                    return Err(HttpError::Malformed("invalid percent escape"));
                };
                out.push((hi * 16 + lo) as u8);
                i += 3;
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).map_err(|_| HttpError::Malformed("escape decodes to invalid UTF-8"))
}

/// The reason phrase for every status the service emits.
#[must_use]
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Content Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// A response under construction. Every response is length-delimited —
/// either `Content-Length` ([`Response::write_to`]) or
/// `Transfer-Encoding: chunked` ([`Response::write_chunked_head`] followed
/// by [`chunk_frame`]s) — so persistent connections stay in sync; the
/// `Connection` header answers the negotiated keep-alive decision.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// An empty response with the given status.
    #[must_use]
    pub fn new(status: u16) -> Self {
        Self {
            status,
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    /// A JSON response rendered pretty from `doc`.
    #[must_use]
    pub fn json(status: u16, doc: &Json) -> Self {
        Self::json_bytes(status, doc.to_string_pretty().into_bytes())
    }

    /// A JSON response from pre-rendered bytes (the cache-hit path: the
    /// stored bytes are served verbatim, guaranteeing hot/cold identity).
    #[must_use]
    pub fn json_bytes(status: u16, body: Vec<u8>) -> Self {
        Self {
            status,
            headers: vec![("content-type".into(), "application/json".into())],
            body,
        }
    }

    /// A compact `{"error": …}` JSON body.
    #[must_use]
    pub fn error(status: u16, message: &str) -> Self {
        let doc = Json::Obj(vec![("error".to_string(), Json::Str(message.to_string()))]);
        Self {
            status,
            headers: vec![("content-type".into(), "application/json".into())],
            body: doc.to_string().into_bytes(),
        }
    }

    /// Adds a header field.
    #[must_use]
    pub fn header(mut self, name: &str, value: &str) -> Self {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }

    /// The status line plus user headers, without the framing headers.
    fn head_prefix(&self) -> String {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\n",
            self.status,
            reason_phrase(self.status)
        );
        for (name, value) in &self.headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head
    }

    /// Serializes status line, headers (plus `Content-Length` and the
    /// negotiated `Connection` header), and body to the wire.
    pub fn write_to(&self, w: &mut dyn Write, keep_alive: bool) -> io::Result<()> {
        let mut head = self.head_prefix();
        head.push_str(&format!("content-length: {}\r\n", self.body.len()));
        head.push_str(if keep_alive {
            "connection: keep-alive\r\n\r\n"
        } else {
            "connection: close\r\n\r\n"
        });
        // One coalesced write: a head segment followed by a small body
        // segment would otherwise interact badly with Nagle + delayed
        // ACK on persistent connections.
        let mut wire = head.into_bytes();
        wire.extend_from_slice(&self.body);
        w.write_all(&wire)?;
        w.flush()
    }

    /// Serializes the head of a *streaming* response: status line, user
    /// headers, `Transfer-Encoding: chunked`, and the negotiated
    /// `Connection` header. `self.body` is ignored — the caller follows
    /// up with [`chunk_frame`]s and closes the stream with
    /// `chunk_frame(&[])`.
    pub fn write_chunked_head(&self, w: &mut dyn Write, keep_alive: bool) -> io::Result<()> {
        let mut head = self.head_prefix();
        head.push_str("transfer-encoding: chunked\r\n");
        head.push_str(if keep_alive {
            "connection: keep-alive\r\n\r\n"
        } else {
            "connection: close\r\n\r\n"
        });
        w.write_all(head.as_bytes())?;
        w.flush()
    }
}

/// One frame of the chunked transfer coding: `{len:x}\r\n{data}\r\n`.
/// `chunk_frame(&[])` yields the terminal frame `0\r\n\r\n` (no
/// trailers), so a streamed body is exactly
/// `frames(non-empty chunks) + chunk_frame(&[])`.
#[must_use]
pub fn chunk_frame(data: &[u8]) -> Vec<u8> {
    let mut out = format!("{:x}\r\n", data.len()).into_bytes();
    out.extend_from_slice(data);
    out.extend_from_slice(b"\r\n");
    out
}

/// Decoder progress for [`ChunkedDecoder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChunkPhase {
    /// Reading a `{len:x}\r\n` size line.
    Size,
    /// Reading chunk data plus its trailing CRLF.
    Data { need: usize },
    /// Reading the final CRLF after the zero-size chunk.
    Trailer,
    /// Complete.
    Done,
    /// Rejected; further input is ignored.
    Poisoned,
}

/// An incremental decoder for the chunked transfer coding, as narrow as
/// the encoder ([`chunk_frame`]): hex size lines without chunk
/// extensions, no trailer fields. Feed it reads as they arrive; the
/// decoded body accumulates until [`ChunkedDecoder::is_done`], subject to
/// a total-size cap that maps to [`HttpError::BodyTooLarge`] (malformed
/// framing maps to [`HttpError::Malformed`]) — the same statuses as the
/// request caps, checked against stream positions so acceptance is
/// split-invariant.
#[derive(Debug)]
pub struct ChunkedDecoder {
    buf: Vec<u8>,
    body: Vec<u8>,
    phase: ChunkPhase,
    max_body: usize,
}

impl ChunkedDecoder {
    /// A decoder accepting a decoded body of at most `max_body` bytes.
    #[must_use]
    pub fn new(max_body: usize) -> Self {
        Self {
            buf: Vec::new(),
            body: Vec::new(),
            phase: ChunkPhase::Size,
            max_body,
        }
    }

    /// Whether the terminal chunk (and its trailer CRLF) has been read.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.phase == ChunkPhase::Done
    }

    /// The decoded body so far (complete once [`Self::is_done`]).
    #[must_use]
    pub fn body(&self) -> &[u8] {
        &self.body
    }

    /// Consumes the decoded body.
    #[must_use]
    pub fn into_body(self) -> Vec<u8> {
        self.body
    }

    /// Bytes fed but not yet consumed by the coding (non-empty only once
    /// done, when the peer pipelined more data after the terminal chunk).
    #[must_use]
    pub fn leftover(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the next chunk of the encoded stream. Returns the
    /// rejection as soon as a violation is provable; after `is_done`,
    /// extra input accumulates in [`Self::leftover`].
    pub fn feed(&mut self, bytes: &[u8]) -> Result<(), HttpError> {
        if self.phase == ChunkPhase::Poisoned {
            return Ok(());
        }
        self.buf.extend_from_slice(bytes);
        loop {
            match self.phase {
                ChunkPhase::Size => {
                    let Some(pos) = find_subslice(&self.buf, b"\r\n") else {
                        // A size line is at most 16 hex digits + CRLF.
                        if self.buf.len() > 18 {
                            self.phase = ChunkPhase::Poisoned;
                            return Err(HttpError::Malformed("chunk size line too long"));
                        }
                        return Ok(());
                    };
                    let line: Vec<u8> = self.buf.drain(..pos + 2).collect();
                    let digits = &line[..pos];
                    if digits.is_empty()
                        || digits.len() > 16
                        || !digits.iter().all(u8::is_ascii_hexdigit)
                    {
                        self.phase = ChunkPhase::Poisoned;
                        return Err(HttpError::Malformed("invalid chunk size line"));
                    }
                    let text = std::str::from_utf8(digits).expect("hex digits are UTF-8");
                    let size = usize::from_str_radix(text, 16)
                        .map_err(|_| HttpError::Malformed("chunk size out of range"))
                        .inspect_err(|_| self.phase = ChunkPhase::Poisoned)?;
                    if self.body.len().saturating_add(size) > self.max_body {
                        self.phase = ChunkPhase::Poisoned;
                        return Err(HttpError::BodyTooLarge);
                    }
                    self.phase = if size == 0 {
                        ChunkPhase::Trailer
                    } else {
                        ChunkPhase::Data { need: size }
                    };
                }
                ChunkPhase::Data { need } => {
                    // The chunk plus its own trailing CRLF.
                    if self.buf.len() < need + 2 {
                        return Ok(());
                    }
                    self.body.extend(self.buf.drain(..need));
                    let crlf: Vec<u8> = self.buf.drain(..2).collect();
                    if crlf != b"\r\n" {
                        self.phase = ChunkPhase::Poisoned;
                        return Err(HttpError::Malformed("chunk data not CRLF-terminated"));
                    }
                    self.phase = ChunkPhase::Size;
                }
                ChunkPhase::Trailer => {
                    if self.buf.len() < 2 {
                        return Ok(());
                    }
                    let crlf: Vec<u8> = self.buf.drain(..2).collect();
                    if crlf != b"\r\n" {
                        self.phase = ChunkPhase::Poisoned;
                        return Err(HttpError::Malformed(
                            "trailer fields are not supported (bare CRLF only)",
                        ));
                    }
                    self.phase = ChunkPhase::Done;
                }
                ChunkPhase::Done | ChunkPhase::Poisoned => return Ok(()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_all(bytes: &[u8]) -> Result<Option<Request>, HttpError> {
        RequestParser::new().feed(bytes)
    }

    #[test]
    fn parses_a_post_with_body_and_query() {
        let req = parse_all(
            b"POST /v1/experiments/fig7?full=1&x=a%20b HTTP/1.1\r\n\
              Host: localhost\r\nContent-Length: 4\r\n\r\n{}ok",
        )
        .unwrap()
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/experiments/fig7");
        assert_eq!(req.query_param("full"), Some("1"));
        assert_eq!(req.query_param("x"), Some("a b"));
        assert_eq!(req.header("host"), Some("localhost"));
        assert_eq!(req.body, b"{}ok");
    }

    #[test]
    fn incremental_feeding_matches_one_shot() {
        let raw = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n";
        let whole = parse_all(raw).unwrap().unwrap();
        let mut p = RequestParser::new();
        let mut got = None;
        for b in raw {
            if let Some(req) = p.feed(std::slice::from_ref(b)).unwrap() {
                got = Some(req);
            }
        }
        assert_eq!(got.unwrap(), whole);
    }

    #[test]
    fn rejections_map_to_the_three_statuses() {
        assert_eq!(parse_all(b"garbage\r\n\r\n").unwrap_err().status(), 400);
        assert_eq!(
            parse_all(b"GET / HTTP/2.0\r\n\r\n").unwrap_err().status(),
            400
        );
        assert_eq!(
            parse_all(b"GET / HTTP/1.1\r\nbad line\r\n\r\n")
                .unwrap_err()
                .status(),
            400
        );
        assert_eq!(
            parse_all(b"POST / HTTP/1.1\r\nContent-Length: 9999999999\r\n\r\n").unwrap_err(),
            HttpError::BodyTooLarge
        );
        let huge = format!(
            "GET / HTTP/1.1\r\nx: {}\r\n\r\n",
            "a".repeat(MAX_HEAD_BYTES)
        );
        assert_eq!(
            parse_all(huge.as_bytes()).unwrap_err(),
            HttpError::HeadTooLarge
        );
        let long_line = format!(
            "GET /{} HTTP/1.1\r\n\r\n",
            "a".repeat(MAX_REQUEST_LINE_BYTES)
        );
        assert_eq!(
            parse_all(long_line.as_bytes()).unwrap_err(),
            HttpError::HeadTooLarge
        );
    }

    #[test]
    fn transfer_encoding_and_conflicting_lengths_are_rejected() {
        assert!(matches!(
            parse_all(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse_all(b"POST / HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        // Duplicate but agreeing lengths are fine.
        assert!(
            parse_all(b"POST / HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 1\r\n\r\nx")
                .unwrap()
                .is_some()
        );
    }

    #[test]
    fn response_wire_format_carries_negotiated_connection_header() {
        let mut out = Vec::new();
        Response::error(503, "busy")
            .header("retry-after", "1")
            .write_to(&mut out, false)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("retry-after: 1\r\n"));
        assert!(text.contains("connection: close\r\n"));
        assert!(text.ends_with("{\"error\":\"busy\"}"));

        let mut out = Vec::new();
        Response::json_bytes(200, b"{}".to_vec())
            .write_to(&mut out, true)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("connection: keep-alive\r\n"));
        assert!(text.contains("content-length: 2\r\n"));
    }

    #[test]
    fn keep_alive_negotiation_follows_version_and_connection_header() {
        let req = |raw: &[u8]| parse_all(raw).unwrap().unwrap();
        assert!(req(b"GET / HTTP/1.1\r\n\r\n").wants_keep_alive());
        assert!(!req(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").wants_keep_alive());
        assert!(!req(b"GET / HTTP/1.0\r\n\r\n").wants_keep_alive());
        assert!(req(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").wants_keep_alive());
        // An explicit close wins over other tokens.
        assert!(
            !req(b"GET / HTTP/1.1\r\nConnection: keep-alive, close\r\n\r\n").wants_keep_alive()
        );
    }

    #[test]
    fn parser_yields_pipelined_requests_in_order() {
        let mut p = RequestParser::new();
        let wire = b"POST /a HTTP/1.1\r\nContent-Length: 2\r\n\r\nhiGET /b HTTP/1.1\r\n\r\n";
        let first = p.feed(wire).unwrap().unwrap();
        assert_eq!(first.path, "/a");
        assert_eq!(first.body, b"hi");
        assert!(p.mid_request(), "second head is buffered");
        let second = p.feed(&[]).unwrap().unwrap();
        assert_eq!(second.path, "/b");
        assert!(!p.mid_request(), "between requests");
    }

    #[test]
    fn chunk_frame_round_trips_through_the_decoder() {
        let chunks: [&[u8]; 3] = [b"hello ", b"chunked", b" world"];
        let mut wire = Vec::new();
        for c in chunks {
            wire.extend(chunk_frame(c));
        }
        wire.extend(chunk_frame(&[]));
        let mut d = ChunkedDecoder::new(MAX_BODY_BYTES);
        d.feed(&wire).unwrap();
        assert!(d.is_done());
        assert_eq!(d.body(), b"hello chunked world");
        assert!(d.leftover().is_empty());
    }

    #[test]
    fn chunked_decoder_rejections() {
        let mut d = ChunkedDecoder::new(4);
        assert_eq!(
            d.feed(b"10\r\n0123456789abcdef\r\n").unwrap_err(),
            HttpError::BodyTooLarge
        );
        let mut d = ChunkedDecoder::new(64);
        assert!(matches!(d.feed(b"zz\r\n"), Err(HttpError::Malformed(_))));
        let mut d = ChunkedDecoder::new(64);
        assert!(matches!(d.feed(b"2\r\nokXX"), Err(HttpError::Malformed(_))));
        // Trailer fields are out of scope for the narrow codec.
        let mut d = ChunkedDecoder::new(64);
        assert!(matches!(
            d.feed(b"0\r\nx-trailer: 1\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
    }
}
