//! The benchmark's own blocking HTTP/1.1 keep-alive client. It lives in
//! the benchmark, not the program, so client-side cost stays fixed while
//! the server changes.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One keep-alive connection.
pub struct Client {
    addr: SocketAddr,
    stream: TcpStream,
    buf: Vec<u8>,
}

/// A response: status and body.
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// The body as text.
    pub body: String,
}

fn invalid(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string())
}

impl Client {
    /// Opens a connection (60 s I/O timeouts: the slowest cold describe
    /// takes a few seconds).
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        stream.set_write_timeout(Some(Duration::from_secs(60)))?;
        Ok(Client {
            addr,
            stream,
            buf: Vec::with_capacity(64 * 1024),
        })
    }

    /// Replaces a broken connection with a fresh one.
    pub fn reconnect(&mut self) -> std::io::Result<()> {
        *self = Client::connect(self.addr)?;
        Ok(())
    }

    /// Sends prepared request bytes and reads one `Content-Length`-framed
    /// response.
    pub fn send(&mut self, wire: &[u8]) -> std::io::Result<Response> {
        self.stream.write_all(wire)?;
        self.buf.clear();
        let mut chunk = [0u8; 16 * 1024];
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(invalid("connection closed before the response head"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| invalid("non-UTF-8 response head"))?;
        let status = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| invalid("malformed status line"))?;
        let length = head
            .split("\r\n")
            .filter_map(|l| l.split_once(':'))
            .find(|(n, _)| n.eq_ignore_ascii_case("content-length"))
            .and_then(|(_, v)| v.trim().parse::<usize>().ok())
            .ok_or_else(|| invalid("response without Content-Length"))?;
        let start = head_end + 4;
        while self.buf.len() < start + length {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(invalid("connection closed mid-body"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        if self.buf.len() != start + length {
            return Err(invalid("bytes beyond the response"));
        }
        let body = String::from_utf8(self.buf[start..].to_vec())
            .map_err(|_| invalid("non-UTF-8 response body"))?;
        Ok(Response { status, body })
    }

    /// `GET target`.
    pub fn get(&mut self, target: &str) -> std::io::Result<Response> {
        self.send(format!("GET {target} HTTP/1.1\r\nHost: remi\r\n\r\n").as_bytes())
    }
}
