//! A minimal HTTP/1.1 keep-alive client for the study server.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One keep-alive connection.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

/// A response: status and body bytes.
#[derive(Debug)]
pub struct Response {
    /// HTTP status.
    pub status: u16,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Conn {
    /// Connects with Nagle off (requests are latency-bound).
    ///
    /// # Errors
    ///
    /// Propagates connect failures.
    pub fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(64 * 1024),
        })
    }

    /// Sends one request and reads exactly one response.
    ///
    /// # Errors
    ///
    /// I/O failures and malformed responses.
    pub fn request(
        &mut self,
        method: &str,
        target: &str,
        body: &[u8],
    ) -> std::io::Result<Response> {
        let mut out = format!(
            "{method} {target} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        out.extend_from_slice(body);
        self.stream.write_all(&out)?;

        let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
        self.buf.clear();
        let mut chunk = [0u8; 16 * 1024];
        let head_len = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(bad("server closed mid-response"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8_lossy(&self.buf[..head_len]).into_owned();
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("no status"))?;
        let length: usize = head
            .lines()
            .find_map(|l| {
                let (k, v) = l.split_once(':')?;
                k.eq_ignore_ascii_case("content-length")
                    .then(|| v.trim().parse().ok())
                    .flatten()
            })
            .ok_or_else(|| bad("no content-length"))?;
        let mut body = self.buf[head_len + 4..].to_vec();
        while body.len() < length {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(bad("server closed mid-body"));
            }
            body.extend_from_slice(&chunk[..n]);
        }
        body.truncate(length);
        Ok(Response { status, body })
    }
}

/// One request on its own connection, closed before returning: an idle
/// keep-alive connection would hold one of the server's workers.
///
/// # Errors
///
/// I/O failures and malformed responses.
pub fn once(addr: SocketAddr, method: &str, target: &str) -> std::io::Result<Response> {
    Conn::open(addr)?.request(method, target, b"")
}
