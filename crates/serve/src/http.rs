//! A deliberately small HTTP/1.1 layer over `std::net`.
//!
//! The service speaks just enough HTTP for its JSON API: one request per
//! connection (`Connection: close` semantics), `Content-Length` framed
//! bodies, no chunked encoding, no keep-alive. That keeps the daemon
//! dependency-free — the workspace vendors no HTTP stack — and the
//! protocol surface small enough to reason about under fault injection
//! of its own (a torn request is a 400, never a wedged worker).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use serde::Value;

/// Largest request body the daemon will buffer (a study spec is ~200
/// bytes; anything close to this is abuse, not a client).
const MAX_BODY: usize = 1 << 20;

/// Largest request line plus headers the daemon will buffer (the CLI
/// sends about 100 bytes).
const MAX_HEAD: u64 = 16 << 10;

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    pub method: String,
    pub path: String,
    headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Request {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The body parsed as JSON.
    pub fn json(&self) -> Result<Value, String> {
        let text = std::str::from_utf8(&self.body).map_err(|_| "body is not UTF-8".to_string())?;
        serde_json::from_str(text).map_err(|e| format!("body is not valid JSON: {e}"))
    }
}

/// Read and frame one request. Errors are protocol-level (malformed
/// request line, oversized head or body, timeout) — the caller answers
/// 400.
pub fn read_request(stream: &mut TcpStream) -> Result<Request, String> {
    // A stalled or byte-dribbling client must not wedge the accept loop.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let mut reader = BufReader::new(stream);
    // The request line and the headers share one byte budget, so a client
    // that never sends a newline cannot grow the daemon's memory.
    let mut head = (&mut reader).take(MAX_HEAD);
    let mut read_line = |what: &str| {
        let mut line = String::new();
        head.read_line(&mut line)
            .map_err(|e| format!("read {what}: {e}"))?;
        if head.limit() == 0 {
            return Err(format!("request head exceeds the {MAX_HEAD}-byte limit"));
        }
        Ok(line)
    };
    let line = read_line("request line")?;
    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or("empty request line")?.to_string();
    let path = parts.next().ok_or("request line has no path")?.to_string();

    let mut headers = Vec::new();
    loop {
        let h = read_line("header")?;
        let h = h.trim_end();
        if h.is_empty() {
            break;
        }
        if let Some((k, v)) = h.split_once(':') {
            headers.push((k.trim().to_string(), v.trim().to_string()));
        }
    }

    let len: usize = headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or(0);
    if len > MAX_BODY {
        return Err(format!("body of {len} bytes exceeds the {MAX_BODY} limit"));
    }
    let mut body = vec![0u8; len];
    reader
        .read_exact(&mut body)
        .map_err(|e| format!("read body: {e}"))?;
    Ok(Request {
        method,
        path,
        headers,
        body,
    })
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

/// Write one response and close (best-effort: a client that hung up
/// mid-write is its own problem, not the daemon's).
pub fn respond(stream: &mut TcpStream, status: u16, content_type: &str, body: &[u8]) {
    let head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        reason(status),
        body.len()
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body);
    let _ = stream.flush();
}

/// Respond with a JSON document.
pub fn respond_json(stream: &mut TcpStream, status: u16, doc: &Value) {
    let body = serde_json::to_string(doc).unwrap_or_else(|_| "{}".to_string());
    respond(stream, status, "application/json", body.as_bytes());
}

/// Respond with a JSON error envelope: `{"error": "..."}`.
pub fn respond_error(stream: &mut TcpStream, status: u16, message: &str) {
    respond_json(stream, status, &serde_json::json!({ "error": message }));
}

/// Parse one buffered client-side response into (status, body).
pub fn parse_response(raw: &[u8]) -> Result<(u16, String), String> {
    let text = String::from_utf8_lossy(raw);
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or("response has no header/body separator")?;
    let status_line = head.lines().next().ok_or("empty response")?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed status line '{status_line}'"))?;
    Ok((status, body.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn roundtrips_a_request_and_response() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let req = read_request(&mut s).unwrap();
            assert_eq!(req.method, "POST");
            assert_eq!(req.path, "/studies");
            assert_eq!(req.header("X-Vulfi-Tenant"), Some("alice"));
            let doc = req.json().unwrap();
            assert_eq!(
                doc.get("bench").and_then(|v| v.as_str()),
                Some("vector sum")
            );
            respond_json(&mut s, 202, &serde_json::json!({ "job": 1u64 }));
        });

        let mut c = TcpStream::connect(addr).unwrap();
        let body = r#"{"bench":"vector sum"}"#;
        write!(
            c,
            "POST /studies HTTP/1.1\r\nHost: x\r\nX-Vulfi-Tenant: alice\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        let mut raw = Vec::new();
        c.read_to_end(&mut raw).unwrap();
        let (status, body) = parse_response(&raw).unwrap();
        assert_eq!(status, 202);
        let doc: Value = serde_json::from_str(&body).unwrap();
        assert_eq!(doc.get("job").and_then(|v| v.as_u64()), Some(1));
        server.join().unwrap();
    }

    #[test]
    fn rejects_oversized_bodies() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            read_request(&mut s).unwrap_err()
        });
        let mut c = TcpStream::connect(addr).unwrap();
        write!(c, "POST / HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n").unwrap();
        let err = server.join().unwrap();
        assert!(err.contains("exceeds"), "{err}");
    }

    #[test]
    fn rejects_oversized_heads() {
        // A request line that never ends, and headers that never end.
        for head in [
            "GET /".to_string() + &"a".repeat(MAX_HEAD as usize),
            "GET / HTTP/1.1\r\n".to_string() + &"X-Pad: b\r\n".repeat(MAX_HEAD as usize / 8),
        ] {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let server = std::thread::spawn(move || {
                let (mut s, _) = listener.accept().unwrap();
                read_request(&mut s).unwrap_err()
            });
            let mut c = TcpStream::connect(addr).unwrap();
            // The server may hang up as soon as the budget runs out.
            let _ = c.write_all(head.as_bytes());
            let err = server.join().unwrap();
            assert!(err.contains("request head exceeds"), "{err}");
        }
    }
}
