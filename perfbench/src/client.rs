//! A minimal HTTP/1.1 keep-alive client over loopback: fixed-length and
//! chunked responses, read incrementally so stream chunks can be
//! timestamped as they arrive.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// Status line and the framing headers of a response.
pub struct Head {
    pub status: u16,
    pub chunked: bool,
    pub content_length: usize,
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            reader: BufReader::with_capacity(64 * 1024, stream.try_clone()?),
            writer: stream,
        })
    }

    /// Writes one request in a single write.
    pub fn send(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<()> {
        let mut req = format!(
            "{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        req.extend_from_slice(body);
        self.writer.write_all(&req)
    }

    fn line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed",
            ));
        }
        Ok(line.trim_end().to_string())
    }

    pub fn read_head(&mut self) -> io::Result<Head> {
        let status_line = self.line()?;
        let status = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad(format!("bad status line {status_line:?}")))?;
        let mut head = Head {
            status,
            chunked: false,
            content_length: 0,
        };
        loop {
            let line = self.line()?;
            if line.is_empty() {
                return Ok(head);
            }
            if let Some((k, v)) = line.split_once(':') {
                let (k, v) = (k.trim().to_ascii_lowercase(), v.trim());
                if k == "content-length" {
                    head.content_length = v.parse().map_err(|_| bad("bad content-length"))?;
                } else if k == "transfer-encoding" && v.eq_ignore_ascii_case("chunked") {
                    head.chunked = true;
                }
            }
        }
    }

    /// The next chunk of a chunked body; `None` at the terminating chunk.
    pub fn read_chunk(&mut self) -> io::Result<Option<Vec<u8>>> {
        let size_line = self.line()?;
        let size = usize::from_str_radix(size_line.split(';').next().unwrap_or("").trim(), 16)
            .map_err(|_| bad(format!("bad chunk size {size_line:?}")))?;
        if size == 0 {
            self.line()?; // the empty line after the last chunk (no trailers)
            return Ok(None);
        }
        let mut buf = vec![0u8; size];
        self.reader.read_exact(&mut buf)?;
        let mut crlf = [0u8; 2];
        self.reader.read_exact(&mut crlf)?;
        Ok(Some(buf))
    }

    /// Reads the body that follows `head`, whatever its framing.
    pub fn read_body(&mut self, head: &Head) -> io::Result<Vec<u8>> {
        if head.chunked {
            let mut body = Vec::new();
            while let Some(chunk) = self.read_chunk()? {
                body.extend_from_slice(&chunk);
            }
            Ok(body)
        } else {
            let mut body = vec![0u8; head.content_length];
            self.reader.read_exact(&mut body)?;
            Ok(body)
        }
    }

    /// One complete exchange.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<(u16, Vec<u8>)> {
        self.send(method, path, body)?;
        let head = self.read_head()?;
        let body = self.read_body(&head)?;
        Ok((head.status, body))
    }
}

/// One exchange on a fresh connection.
pub fn once(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> io::Result<(u16, Vec<u8>)> {
    Conn::connect(addr)?.request(method, path, body)
}

/// Renders `values` as a JSON array. Rust's `{}` on `f64` is the
/// shortest text that parses back to the same value, so every `f32`
/// crosses the wire exactly.
pub fn json_array(values: impl Iterator<Item = f64>) -> String {
    let mut s = String::from("[");
    for (i, v) in values.enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&v.to_string());
    }
    s.push(']');
    s
}

/// The numbers of the first JSON array following `"key":` in `body`.
pub fn number_array(body: &[u8], key: &str) -> Option<Vec<f64>> {
    let text = std::str::from_utf8(body).ok()?;
    let at = text.find(&format!("\"{key}\""))?;
    let rest = &text[at..];
    let open = rest.find('[')?;
    let close = rest[open..].find(']')? + open;
    rest[open + 1..close]
        .split(',')
        .filter(|s| !s.trim().is_empty())
        .map(|s| s.trim().parse::<f64>().ok())
        .collect()
}

/// The integer value of `"key":N` in a JSON object line.
pub fn int_field(line: &str, key: &str) -> Option<u64> {
    let at = line.find(&format!("\"{key}\""))? + key.len() + 2;
    let rest = line[at..].trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}
