//! A minimal HTTP/1.1 client for `servecli`, the CI smoke driver and
//! the integration tests. Supports keep-alive connection reuse — the
//! load generator holds one connection per worker.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;

/// One response: status code, headers and body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Response headers, lower-cased names, in wire order.
    pub headers: Vec<(String, String)>,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// The first header with this (case-insensitive) name.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Whether the server asked to close this connection.
    #[must_use]
    pub fn closes(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// A persistent connection to one server.
pub struct Client {
    host: String,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// Strips an optional `http://` scheme and trailing slash from a base
/// URL, leaving `host:port`.
#[must_use]
pub fn host_of(base: &str) -> String {
    base.trim_start_matches("http://")
        .trim_end_matches('/')
        .to_string()
}

impl Client {
    /// Connects to `base` (`http://host:port` or `host:port`).
    ///
    /// # Errors
    ///
    /// Propagates connect failures.
    pub fn connect(base: &str) -> io::Result<Client> {
        let host = host_of(base);
        let stream = TcpStream::connect(&host)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            host,
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Issues `GET path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures and malformed responses.
    pub fn get(&mut self, path: &str) -> io::Result<ClientResponse> {
        self.request("GET", path, None)
    }

    /// Issues `POST path` with a JSON body.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures and malformed responses.
    pub fn post(&mut self, path: &str, body: &str) -> io::Result<ClientResponse> {
        self.request("POST", path, Some(body))
    }

    fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<ClientResponse> {
        let body = body.unwrap_or("");
        // One write: a SYN-cookie connection can lose its first segment,
        // and `write!` on the socket sends each formatted piece as one.
        let request = format!(
            "{method} {path} HTTP/1.1\r\nhost: {}\r\ncontent-length: {}\r\n\r\n{body}",
            self.host,
            body.len()
        );
        self.writer.write_all(request.as_bytes())?;
        read_response(&mut self.reader)
    }
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

pub(crate) fn read_response<R: BufRead>(reader: &mut R) -> io::Result<ClientResponse> {
    let mut status_line = String::new();
    if reader.read_line(&mut status_line)? == 0 {
        return Err(bad("server closed the connection"));
    }
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut content_length: Option<usize> = None;
    let mut headers = Vec::new();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(bad("eof in response headers"));
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim().to_string();
            if name == "content-length" {
                content_length = value.parse().ok();
            }
            headers.push((name, value));
        }
    }
    let len = content_length.ok_or_else(|| bad("missing content-length"))?;
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body)?;
    Ok(ClientResponse {
        status,
        headers,
        body,
    })
}

/// One-shot GET on a fresh connection.
///
/// # Errors
///
/// Propagates connect and I/O failures.
pub fn get(base: &str, path: &str) -> io::Result<ClientResponse> {
    Client::connect(base)?.get(path)
}

/// One-shot POST on a fresh connection.
///
/// # Errors
///
/// Propagates connect and I/O failures.
pub fn post(base: &str, path: &str, body: &str) -> io::Result<ClientResponse> {
    Client::connect(base)?.post(path, body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_normalization() {
        assert_eq!(host_of("http://127.0.0.1:7411/"), "127.0.0.1:7411");
        assert_eq!(host_of("localhost:80"), "localhost:80");
    }

    #[test]
    fn parses_a_response() {
        let raw =
            b"HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: 2\r\n\r\n{}";
        let resp = read_response(&mut BufReader::new(&raw[..])).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, b"{}");
        assert_eq!(resp.header("Content-Type"), Some("application/json"));
        assert!(!resp.closes());
    }
}
