//! The harness's own HTTP/1.1 client: one raw `TcpStream`, keep-alive, one
//! request in flight.
//!
//! Part of the measuring stick, so it shares no code with the program under
//! test.  It reuses one buffer across exchanges and allocates nothing per
//! request, so its own cost — which the CPU-per-request figure includes —
//! stays fixed while the server changes.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A reply no exchange should take longer than; past it the request counts
/// as failed and the connection is replaced.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Bodies past this are refused rather than buffered.
const MAX_BODY_BYTES: usize = 64 * 1024 * 1024;

pub struct Client {
    addr: SocketAddr,
    stream: TcpStream,
    /// Wire bytes of the reply being read: head, then body.
    buf: Vec<u8>,
}

/// One complete reply, borrowed from the client's buffers.
pub struct Reply<'a> {
    pub status: u16,
    head: &'a str,
    pub body: &'a [u8],
}

impl Reply<'_> {
    pub fn header(&self, name: &str) -> Option<&str> {
        header(self.head, name)
    }
}

fn header<'a>(head: &'a str, name: &str) -> Option<&'a str> {
    head.split("\r\n").skip(1).find_map(|line| {
        let (n, v) = line.split_once(':')?;
        n.eq_ignore_ascii_case(name).then(|| v.trim())
    })
}

/// The wire bytes of a proxy-form GET for `path` on the origin `authority`,
/// as a browser configured with an explicit proxy sends it.
pub fn get_request(authority: &str, path: &str) -> Vec<u8> {
    format!("GET http://{authority}{path} HTTP/1.1\r\nHost: {authority}\r\n\r\n").into_bytes()
}

fn open(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    Ok(stream)
}

impl Client {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        Ok(Client {
            addr,
            stream: open(addr)?,
            buf: vec![0; 64 * 1024],
        })
    }

    /// Replaces the connection after a failed exchange left it in an
    /// unknown state.
    pub fn reconnect(&mut self) -> std::io::Result<()> {
        self.stream = open(self.addr)?;
        Ok(())
    }

    /// Sends `request` (complete wire bytes) and reads the whole reply.
    /// `Err` names what went wrong: a reset, a timeout, or unexpected framing.
    pub fn exchange(&mut self, request: &[u8]) -> Result<Reply<'_>, String> {
        self.stream
            .write_all(request)
            .map_err(|e| format!("write: {e}"))?;

        let mut filled = 0usize;
        let head_end = loop {
            // Only the new bytes (and the three before them) can complete
            // the blank line.
            let from = filled.saturating_sub(3);
            if filled == self.buf.len() {
                return Err("response head exceeds 64 KiB".into());
            }
            let n = self
                .stream
                .read(&mut self.buf[filled..])
                .map_err(|e| format!("read: {e}"))?;
            if n == 0 {
                return Err("connection closed before the response head".into());
            }
            filled += n;
            if let Some(pos) = self.buf[from..filled]
                .windows(4)
                .position(|w| w == b"\r\n\r\n")
            {
                break from + pos + 4;
            }
        };
        let head = std::str::from_utf8(&self.buf[..head_end - 4])
            .map_err(|_| "response head is not UTF-8".to_string())?;
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|code| code.parse().ok())
            .ok_or("malformed status line")?;
        // Every reply of these workloads declares its length: the harness
        // origin does, and so does the node for anything it has cached.  A
        // chunked reply would be a change worth failing on, not decoding.
        if header(head, "transfer-encoding").is_some() {
            return Err("reply uses a transfer encoding, expected Content-Length".into());
        }
        let len: usize = match header(head, "content-length") {
            Some(v) => v.parse().map_err(|_| "bad Content-Length")?,
            None => 0,
        };
        if len > MAX_BODY_BYTES {
            return Err(format!("Content-Length {len} is past the limit"));
        }
        let end = head_end + len;
        if filled > end {
            return Err("bytes past the end of the reply".into());
        }
        if self.buf.len() < end {
            self.buf.resize(end, 0);
        }
        self.stream
            .read_exact(&mut self.buf[filled..end])
            .map_err(|e| format!("read body: {e}"))?;

        // Re-borrow the head now that the buffer is no longer being filled.
        let head = std::str::from_utf8(&self.buf[..head_end - 4]).expect("checked above");
        Ok(Reply {
            status,
            head,
            body: &self.buf[head_end..end],
        })
    }
}
