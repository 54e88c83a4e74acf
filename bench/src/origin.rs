//! The harness's own origin server: blocking `std::net`, a fixed set of
//! threads that each accept and serve one connection at a time, HTTP/1.1
//! keep-alive, GET only.
//!
//! It is part of the measuring stick, so it shares no code with the program
//! under test.  Bodies are a pure function of the path (see
//! [`crate::workload::body_for`]); a few fixed paths serve the scripts the
//! scripted workload needs.  It counts what the edge node cannot be trusted
//! to count about itself: requests that reached the origin, connections the
//! node opened to it, and the time it spent answering.

use crate::workload::{body_for, body_len_of};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A fixed document served at `path` (the scripted workload's scripts).
pub struct Document {
    pub path: String,
    pub content_type: &'static str,
    pub body: Vec<u8>,
}

#[derive(Default)]
struct Shared {
    documents: Vec<Document>,
    requests: AtomicU64,
    connections: AtomicU64,
    busy_ns: AtomicU64,
    stop: AtomicBool,
}

/// Threads accepting on the shared listener, each serving one connection at
/// a time.  The node holds at most a handful of kept-alive upstream
/// connections (its pool parks four per host) and its spliced relays are
/// one exchange each, so this many never leaves a connection waiting.
const WORKERS: usize = 16;

/// How long a worker blocks in `read` before it looks at the stop flag.
const STOP_POLL: Duration = Duration::from_millis(20);

pub struct Origin {
    addr: SocketAddr,
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

#[derive(Clone, Copy, Debug, Default)]
pub struct OriginCounts {
    pub requests: u64,
    pub connections: u64,
    pub busy_ns: u64,
}

impl Origin {
    pub fn start(documents: Vec<Document>) -> std::io::Result<Origin> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            documents,
            ..Shared::default()
        });
        let mut workers = Vec::with_capacity(WORKERS);
        for _ in 0..WORKERS {
            let listener = listener.try_clone()?;
            let shared = shared.clone();
            workers.push(std::thread::spawn(move || {
                while !shared.stop.load(Ordering::SeqCst) {
                    let Ok((stream, _)) = listener.accept() else {
                        break;
                    };
                    if shared.stop.load(Ordering::SeqCst) {
                        break;
                    }
                    shared.connections.fetch_add(1, Ordering::Relaxed);
                    serve(stream, &shared);
                }
            }));
        }
        Ok(Origin {
            addr,
            shared,
            workers,
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn base_url(&self) -> String {
        format!("http://{}", self.addr)
    }

    pub fn counts(&self) -> OriginCounts {
        OriginCounts {
            requests: self.shared.requests.load(Ordering::Relaxed),
            connections: self.shared.connections.load(Ordering::Relaxed),
            busy_ns: self.shared.busy_ns.load(Ordering::Relaxed),
        }
    }
}

impl Drop for Origin {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // One connect per worker wakes every blocking accept; workers busy
        // with a connection see the flag at their next read timeout.
        for _ in 0..WORKERS {
            let _ = TcpStream::connect(self.addr);
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// The path of a request target in origin form or absolute form.
fn path_of(target: &str) -> &str {
    match target.strip_prefix("http://") {
        Some(rest) => rest.find('/').map_or("/", |i| &rest[i..]),
        None => target,
    }
}

fn serve(mut stream: TcpStream, shared: &Shared) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(STOP_POLL));
    let mut inbuf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    loop {
        let head_end = loop {
            if let Some(pos) = inbuf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos + 4;
            }
            match stream.read(&mut chunk) {
                Ok(0) => return,
                Ok(n) => inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    if shared.stop.load(Ordering::SeqCst) {
                        return;
                    }
                }
                Err(_) => return,
            }
        };
        let started = Instant::now();
        let head = String::from_utf8_lossy(&inbuf[..head_end]).into_owned();
        inbuf.drain(..head_end);
        let mut request_line = head.lines().next().unwrap_or("").split(' ');
        let method = request_line.next().unwrap_or("");
        let path = path_of(request_line.next().unwrap_or("/"));
        let close = head
            .lines()
            .any(|line| line.to_ascii_lowercase().replace(' ', "") == "connection:close");

        let (status, content_type, body) = if method != "GET" {
            ("405 Method Not Allowed", "text/plain", Vec::new())
        } else if let Some(doc) = shared.documents.iter().find(|d| d.path == path) {
            ("200 OK", doc.content_type, doc.body.clone())
        } else if let Some(len) = body_len_of(path) {
            ("200 OK", "text/html", body_for(path, len))
        } else {
            ("404 Not Found", "text/plain", Vec::new())
        };
        let mut wire = format!(
            "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nCache-Control: max-age=600\r\n\
             Content-Length: {}\r\n{}\r\n",
            body.len(),
            if close { "Connection: close\r\n" } else { "" }
        )
        .into_bytes();
        wire.extend_from_slice(&body);
        shared.requests.fetch_add(1, Ordering::Relaxed);
        let written = stream.write_all(&wire);
        shared
            .busy_ns
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        if written.is_err() || close {
            return;
        }
    }
}
