//! Minimal HTTP/1.1 over `std::net`: request parsing, response writing,
//! and a chunked-transfer writer for the event stream.
//!
//! Hand-rolled (like the JSON layer in `mlpsim-telemetry`) because the
//! workspace builds offline with vendored deps only. Deliberately small:
//! one request per connection (`Connection: close`), `Content-Length`
//! bodies only on requests, responses either sized or chunked. Every
//! accepted socket carries a read timeout: [`accept`] is the only place
//! that may call `TcpListener::accept` (rule D6, via `clippy.toml`), so a
//! blocking read on the accept path cannot hang the server on a stalled
//! client.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

/// Upper bound on request bodies (a job spec is well under 1 KiB; a
/// megabyte leaves room for very long bench/policy lists).
pub const MAX_BODY: usize = 1 << 20;

/// Upper bound on the request head: the request line plus the header
/// section, read through a reader that stops here.
const MAX_HEAD: u64 = 64 * 1024;

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method token as received.
    pub method: String,
    /// Path component (query string, if any, is split off and discarded).
    pub path: String,
    /// Header name/value pairs, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Path split on `/`, empty segments dropped: `/jobs/3/events` →
    /// `["jobs", "3", "events"]`.
    pub fn segments(&self) -> Vec<&str> {
        self.path.split('/').filter(|s| !s.is_empty()).collect()
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// The socket timed out or closed before a full request arrived.
    Io(io::Error),
    /// The bytes were not a parseable HTTP/1.1 request.
    Malformed(String),
    /// The declared body exceeds [`MAX_BODY`].
    TooLarge,
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "io: {e}"),
            HttpError::Malformed(m) => write!(f, "malformed request: {m}"),
            HttpError::TooLarge => write!(f, "request body too large"),
        }
    }
}

/// Read one request off an accepted socket. The caller must already have
/// armed `set_read_timeout` (rule D6); a stalled client surfaces as
/// [`HttpError::Io`] rather than a hung accept loop. The head is read
/// through a reader capped at 64 KiB, so a client streaming
/// bytes without a newline is refused once it passes the cap instead of
/// growing a buffer for as long as it sends.
///
/// # Errors
///
/// [`HttpError`] on timeout, malformed framing (an oversized or
/// non-UTF-8 head included), or an oversized body.
pub fn read_request(stream: &mut TcpStream) -> Result<Request, HttpError> {
    let mut reader = BufReader::new(stream);
    let mut head = Read::take(&mut reader, MAX_HEAD);
    let line = head_line(&mut head)?;
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("empty request line".into()))?
        .to_string();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("request line lacks a target".into()))?;
    let path = target.split('?').next().unwrap_or("").to_string();

    let mut headers = Vec::new();
    loop {
        let h = head_line(&mut head)?;
        let h = h.trim_end_matches(['\r', '\n']);
        if h.is_empty() {
            break;
        }
        let Some((name, value)) = h.split_once(':') else {
            return Err(HttpError::Malformed(format!("header without colon: {h:?}")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let content_length = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| {
            v.parse::<usize>()
                .map_err(|_| HttpError::Malformed(format!("bad content-length {v:?}")))
        })
        .transpose()?
        .unwrap_or(0);
    if content_length > MAX_BODY {
        return Err(HttpError::TooLarge);
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(HttpError::Io)?;
    Ok(Request {
        method,
        path,
        headers,
        body,
    })
}

/// One line of the request head, newline included (absent only at end of
/// stream). Running into the head's cap mid-line, or a line that is not
/// UTF-8, is a malformed request.
fn head_line(head: &mut io::Take<&mut BufReader<&mut TcpStream>>) -> Result<String, HttpError> {
    let mut line = Vec::new();
    head.read_until(b'\n', &mut line).map_err(HttpError::Io)?;
    if !line.ends_with(b"\n") && head.limit() == 0 {
        return Err(HttpError::Malformed("request head too large".into()));
    }
    String::from_utf8(line).map_err(|_| HttpError::Malformed("request head is not UTF-8".into()))
}

/// Reason phrase for the status codes this server emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Write a complete sized response (`Connection: close`).
///
/// # Errors
///
/// Propagates socket write failures; the caller drops the connection.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n",
        reason(status),
        body.len()
    );
    for (k, v) in extra_headers {
        head.push_str(k);
        head.push_str(": ");
        head.push_str(v);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// Streaming chunked-transfer response for `GET /jobs/:id/events`.
pub struct ChunkedWriter<'a> {
    stream: &'a mut TcpStream,
}

impl<'a> ChunkedWriter<'a> {
    /// Write the response head and switch the connection to chunked mode.
    ///
    /// # Errors
    ///
    /// Propagates socket write failures.
    pub fn begin(
        stream: &'a mut TcpStream,
        status: u16,
        content_type: &str,
    ) -> io::Result<ChunkedWriter<'a>> {
        let head = format!(
            "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
            reason(status)
        );
        stream.write_all(head.as_bytes())?;
        stream.flush()?;
        Ok(ChunkedWriter { stream })
    }

    /// Send one chunk (no-op for empty payloads — an empty chunk would
    /// terminate the stream).
    ///
    /// # Errors
    ///
    /// Propagates socket write failures (the client went away).
    pub fn chunk(&mut self, payload: &[u8]) -> io::Result<()> {
        if payload.is_empty() {
            return Ok(());
        }
        write!(self.stream, "{:x}\r\n", payload.len())?;
        self.stream.write_all(payload)?;
        self.stream.write_all(b"\r\n")?;
        self.stream.flush()
    }

    /// Terminate the stream cleanly.
    ///
    /// # Errors
    ///
    /// Propagates socket write failures.
    pub fn finish(self) -> io::Result<()> {
        self.stream.write_all(b"0\r\n\r\n")?;
        self.stream.flush()
    }
}

/// Accepts one connection with its read timeout armed: the workspace's
/// one sanctioned call of `TcpListener::accept` (rule D6; `clippy.toml`
/// disallows the method everywhere else), so no accepted socket can block
/// a server thread forever on a stalled client.
///
/// # Errors
///
/// Propagates `accept` and `setsockopt` failures (`WouldBlock` on a
/// non-blocking listener with nothing pending).
pub fn accept(listener: &TcpListener, read_timeout_ms: u64) -> io::Result<TcpStream> {
    #[expect(
        clippy::disallowed_methods,
        reason = "D6: the read timeout is armed below"
    )]
    let (stream, _peer) = listener.accept()?;
    stream.set_read_timeout(Some(Duration::from_millis(read_timeout_ms.max(1))))?;
    Ok(stream)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(raw: &[u8]) -> Result<Request, HttpError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_vec();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&raw).unwrap();
        });
        let mut stream = accept(&listener, 2_000).unwrap();
        let req = read_request(&mut stream);
        client.join().unwrap();
        req
    }

    #[test]
    fn parses_post_with_body() {
        let req = roundtrip(
            b"POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 15\r\n\r\n{\"kind\":\"fig5\"}",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.segments(), vec!["jobs"]);
        assert_eq!(req.body, b"{\"kind\":\"fig5\"}");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.header("HOST"), Some("x"));
    }

    #[test]
    fn strips_query_string() {
        let req = roundtrip(b"GET /jobs/7/events?from=0 HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.segments(), vec!["jobs", "7", "events"]);
    }

    #[test]
    fn rejects_bad_content_length() {
        assert!(matches!(
            roundtrip(b"POST /jobs HTTP/1.1\r\nContent-Length: lots\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn rejects_oversized_body() {
        let raw = format!(
            "POST /jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert!(matches!(
            roundtrip(raw.as_bytes()),
            Err(HttpError::TooLarge)
        ));
    }

    #[test]
    fn stalled_client_times_out_instead_of_hanging() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            // Half a request, then silence.
            s.write_all(b"POST /jobs HTTP/1.1\r\nContent-Le").unwrap();
            std::thread::sleep(Duration::from_millis(300));
        });
        let mut stream = accept(&listener, 50).unwrap();
        let started = crate::host_ns();
        let err = read_request(&mut stream);
        assert!(matches!(err, Err(HttpError::Io(_))), "{err:?}");
        assert!(crate::host_ns() - started < 2_000_000_000);
        client.join().unwrap();
    }
}
