//! Sans-IO interpreter of one upstream HTTP response — the only code in this
//! crate that knows how a response is framed on the wire.
//!
//! [`crate::conn::HttpConn`] drives the server side of the bucket brigade: it
//! parses requests and serializes responses.  `ResponseRelay` is its mirror
//! image for upstream sockets: it consumes whatever bytes the upstream
//! connection produced and turns them into typed events — a parsed response
//! head, body data chunks, end-of-body — without ever touching a socket
//! itself.  Like `HttpConn` it is one engine under two executors: the
//! reactor feeds it from its readiness loop (the spliced miss), and every
//! blocking client in [`crate::client`] — `TcpOrigin`, `http_fetch*`,
//! `ProxyClient`, hence the worker pool — feeds it from blocking reads.
//!
//! Framing starts from [`nakika_http::parse_response_head`]'s verdict:
//! `Content-Length` bodies are counted out byte-by-byte and chunked bodies
//! run through a [`ChunkedDecoder`].  A head with neither header is
//! *close-delimited* (RFC 9112 §6.3) when it may carry a body at all — any
//! status but 1xx/204/304 — and the connection will not be reused
//! (`Connection: close`, or HTTP/1.0 without `keep-alive`): the body runs
//! to EOF.  On a keep-alive connection the same head carries no body, as in
//! the one-shot `parse_response`.  The response to a HEAD request ends at
//! its head whatever its framing headers declare (RFC 9110 §9.3.2).  An
//! early EOF in any other state is an error whose message pins down exactly
//! how far the upstream got — the fault-injection tests assert on these
//! strings.
//!
//! The head the relay hands on carries no hop-by-hop headers: `Connection`,
//! `Keep-Alive` and every header `Connection` names describe the upstream
//! connection, so they are read (for [`ResponseRelay::reusable`]) and then
//! removed — never relayed to a client, never cached.

use bytes::Bytes;
use nakika_http::parse::{parse_response_head, BodyFraming, ChunkedDecoder, ParseOutcome};
use nakika_http::{Headers, Response};

/// What a [`ResponseRelay::feed`] call learned from the upstream's bytes.
#[derive(Debug)]
pub(crate) enum RelayEvent {
    /// The response head is complete.  `response` carries an empty body —
    /// the consumer decides how to attach one.  When `has_body` is false
    /// the relay emits [`RelayEvent::BodyDone`] immediately after.
    Head {
        /// Status line and headers, body left empty.
        response: Box<Response>,
        /// The `Content-Length`, when the framing declares one.
        declared: Option<u64>,
        /// False for `Content-Length: 0` and bodiless framings.
        has_body: bool,
    },
    /// A decoded slice of body data, in arrival order.
    Data(Bytes),
    /// The body ended cleanly (exact `Content-Length`, the chunked
    /// terminator, or EOF of a close-delimited body).  Emitted exactly once
    /// per response.
    BodyDone,
}

/// Body-framing progress after the head.
enum State {
    /// Accumulating head bytes until `\r\n\r\n`.
    Head { buf: Vec<u8> },
    /// Counting out a `Content-Length` body.
    Length { remaining: u64, total: u64 },
    /// Decoding a chunked body.
    Chunked { decoder: ChunkedDecoder },
    /// Passing a close-delimited body through until EOF.
    UntilClose,
    /// The response is complete; anything further is surplus.
    Done,
    /// A framing error was reported; the relay must not be fed again.
    Failed,
}

/// Incremental parser for one upstream response: head, then body framing.
pub(crate) struct ResponseRelay {
    state: State,
    /// Cap on the decoded size of a chunked body, for consumers that will
    /// materialize it; pass-through relays leave it `None` (their memory is
    /// bounded by the chunk window, not the body).
    decode_limit: Option<usize>,
    /// The request was HEAD: the response is its head alone.
    head_request: bool,
    /// The head left the connection open for another exchange.
    keep_alive: bool,
    /// Bytes arrived past the end of the response.
    surplus: bool,
}

impl ResponseRelay {
    /// A relay positioned before the status line of the response to a
    /// request that was HEAD when `head_request` is true.
    pub(crate) fn new(decode_limit: Option<usize>, head_request: bool) -> ResponseRelay {
        ResponseRelay {
            state: State::Head { buf: Vec::new() },
            decode_limit,
            head_request,
            keep_alive: false,
            surplus: false,
        }
    }

    /// True once the head was parsed (events carried it to the consumer).
    /// The executors track delivery themselves; tests use this to pin down
    /// how far a truncated feed got.
    #[cfg(test)]
    pub(crate) fn head_done(&self) -> bool {
        !matches!(self.state, State::Head { .. })
    }

    /// True once the whole response (head and body) arrived cleanly.
    pub(crate) fn is_done(&self) -> bool {
        matches!(self.state, State::Done)
    }

    /// True when the connection can carry another exchange: the response
    /// ended cleanly, its head kept the connection alive, and nothing
    /// arrived past its end (bytes nobody asked for would be mistaken for
    /// the next response).
    pub(crate) fn reusable(&self) -> bool {
        self.is_done() && self.keep_alive && !self.surplus
    }

    /// Consumes `data` from the upstream socket, appending the resulting
    /// events.  An `Err` means the byte stream is unusable (malformed head,
    /// bad chunk framing); the connection must be torn down.
    pub(crate) fn feed(&mut self, data: &[u8], events: &mut Vec<RelayEvent>) -> Result<(), String> {
        let mut input = data;
        while !input.is_empty() {
            match &mut self.state {
                State::Head { buf } => {
                    buf.extend_from_slice(input);
                    // Borrow dance: take the buffer out so the state can be
                    // replaced while we still hold the parsed leftover.
                    let buf = std::mem::take(buf);
                    let (head, consumed) = match parse_response_head(&buf) {
                        Ok(ParseOutcome::Partial) => {
                            self.state = State::Head { buf };
                            return Ok(());
                        }
                        Ok(ParseOutcome::Complete { message, consumed }) => (message, consumed),
                        Err(e) => {
                            self.state = State::Failed;
                            return Err(format!("origin sent a malformed response: {e}"));
                        }
                    };
                    let mut response = head.response;
                    self.keep_alive = response.headers.keep_alive(response.version_11);
                    strip_hop_by_hop(&mut response.headers);
                    let may_carry_body = !response.status.is_informational()
                        && !matches!(response.status.as_u16(), 204 | 304);
                    let (state, declared) = match head.framing {
                        _ if self.head_request => (State::Done, Some(0)),
                        BodyFraming::Length(n) if n > 0 => (
                            State::Length {
                                remaining: n,
                                total: n,
                            },
                            Some(n),
                        ),
                        BodyFraming::Chunked => (
                            State::Chunked {
                                decoder: match self.decode_limit {
                                    Some(limit) => ChunkedDecoder::with_limit(limit),
                                    None => ChunkedDecoder::new(),
                                },
                            },
                            None,
                        ),
                        BodyFraming::None if may_carry_body && !self.keep_alive => {
                            (State::UntilClose, None)
                        }
                        BodyFraming::Length(_) | BodyFraming::None => (State::Done, Some(0)),
                    };
                    let has_body = !matches!(state, State::Done);
                    self.state = state;
                    events.push(RelayEvent::Head {
                        response: Box::new(response),
                        declared,
                        has_body,
                    });
                    if !has_body {
                        events.push(RelayEvent::BodyDone);
                    }
                    return self.feed(&buf[consumed..], events);
                }
                State::Length { remaining, .. } => {
                    let take = (*remaining).min(input.len() as u64) as usize;
                    events.push(RelayEvent::Data(Bytes::copy_from_slice(&input[..take])));
                    *remaining -= take as u64;
                    input = &input[take..];
                    if *remaining == 0 {
                        self.state = State::Done;
                        events.push(RelayEvent::BodyDone);
                    }
                }
                State::Chunked { decoder } => {
                    let mut out = Vec::new();
                    let consumed = match decoder.feed(input, &mut out) {
                        Ok(n) => n,
                        Err(e) => {
                            self.state = State::Failed;
                            return Err(format!("origin sent bad chunked framing: {e}"));
                        }
                    };
                    events.extend(out.into_iter().map(RelayEvent::Data));
                    let done = decoder.is_done();
                    input = &input[consumed..];
                    if done {
                        self.state = State::Done;
                        events.push(RelayEvent::BodyDone);
                    }
                }
                State::UntilClose => {
                    events.push(RelayEvent::Data(Bytes::copy_from_slice(input)));
                    return Ok(());
                }
                // Nobody asked for these bytes: dropped, but remembered — the
                // connection that sent them is not one to reuse.
                State::Done => {
                    self.surplus = true;
                    return Ok(());
                }
                State::Failed => {
                    return Err("relay fed after a framing failure".to_string());
                }
            }
        }
        Ok(())
    }

    /// The upstream closed its end.  Clean when the response was already
    /// complete or EOF is what delimits its body (then this emits the
    /// [`RelayEvent::BodyDone`]); otherwise the error pins down how far the
    /// upstream got — consumers surface it to the client as a truncation.
    pub(crate) fn close(&mut self, events: &mut Vec<RelayEvent>) -> Result<(), String> {
        let truncated = match &self.state {
            State::Head { buf } if buf.is_empty() => {
                "origin closed before sending a response".to_string()
            }
            State::Head { .. } => "origin closed mid-response-head".to_string(),
            State::Length { remaining, total } => format!(
                "origin closed mid-body: got {} of {total} Content-Length bytes",
                total - remaining
            ),
            State::Chunked { .. } => "chunked body missing its terminator".to_string(),
            State::UntilClose => {
                self.state = State::Done;
                events.push(RelayEvent::BodyDone);
                return Ok(());
            }
            State::Done | State::Failed => return Ok(()),
        };
        self.state = State::Failed;
        Err(truncated)
    }
}

/// Removes `Connection`, `Keep-Alive` and every header `Connection` names
/// (RFC 9110 §7.6.1) from an upstream head.
fn strip_hop_by_hop(headers: &mut Headers) {
    let named: Vec<String> = headers
        .get_all("connection")
        .iter()
        .flat_map(|value| value.split(','))
        .map(|name| name.trim().to_string())
        .filter(|name| !name.is_empty())
        .collect();
    for name in named
        .iter()
        .map(String::as_str)
        .chain(["connection", "keep-alive"])
    {
        headers.remove(name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::BlockingRelay;
    use nakika_http::parse::parse_response;

    /// A reader that hands out `wire` one fragment per `read` call, split
    /// at `cuts`, then EOF — what a socket does to a response in flight.
    struct SplitReader {
        fragments: std::collections::VecDeque<Vec<u8>>,
    }

    impl SplitReader {
        fn new(wire: &[u8], cuts: &[usize]) -> SplitReader {
            let bounds = cuts.iter().copied().chain([wire.len()]);
            let mut last = 0;
            let mut fragments = std::collections::VecDeque::new();
            for cut in bounds {
                // An empty read would be EOF; sockets never deliver one.
                if cut > last {
                    fragments.push_back(wire[last..cut].to_vec());
                    last = cut;
                }
            }
            SplitReader { fragments }
        }
    }

    impl std::io::Read for SplitReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let Some(fragment) = self.fragments.front_mut() else {
                return Ok(0);
            };
            let n = fragment.len().min(buf.len());
            buf[..n].copy_from_slice(&fragment[..n]);
            fragment.drain(..n);
            if fragment.is_empty() {
                self.fragments.pop_front();
            }
            Ok(n)
        }
    }

    /// The blocking executor's view of `wire` split at `cuts`: the head and
    /// the drained body, or the error that ended the response early.
    fn run_blocking(wire: &[u8], cuts: &[usize]) -> Result<(Response, Vec<u8>), String> {
        let mut relay = BlockingRelay::new(SplitReader::new(wire, cuts), None, false, None);
        let (response, _) = relay.head()?;
        let mut body = Vec::new();
        while let Some(data) = relay.next_data()? {
            body.extend_from_slice(&data);
        }
        Ok((response, body))
    }

    /// Feeds `wire` split at `cuts`, returning (head response, body bytes,
    /// saw clean BodyDone) — after checking that the blocking executor,
    /// reading the same fragments, agrees byte for byte.
    fn run_split(wire: &[u8], cuts: &[usize]) -> (Response, Vec<u8>, bool) {
        let mut relay = ResponseRelay::new(None, false);
        let mut events = Vec::new();
        let mut last = 0;
        for &cut in cuts {
            relay.feed(&wire[last..cut], &mut events).unwrap();
            last = cut;
        }
        relay.feed(&wire[last..], &mut events).unwrap();
        relay.close(&mut events).unwrap();
        let (response, body, done) = collect(events);
        let (blocking_response, blocking_body) = run_blocking(wire, cuts).unwrap();
        assert_eq!(blocking_response.status, response.status, "cuts {cuts:?}");
        assert_eq!(blocking_body, body, "cuts {cuts:?}");
        (response, body, done)
    }

    fn collect(events: Vec<RelayEvent>) -> (Response, Vec<u8>, bool) {
        let mut head = None;
        let mut body = Vec::new();
        let mut done = false;
        for event in events {
            match event {
                RelayEvent::Head { response, .. } => {
                    assert!(head.is_none(), "head emitted twice");
                    head = Some(*response);
                }
                RelayEvent::Data(chunk) => {
                    assert!(!done, "data after BodyDone");
                    body.extend_from_slice(&chunk);
                }
                RelayEvent::BodyDone => {
                    assert!(!done, "BodyDone emitted twice");
                    done = true;
                }
            }
        }
        (head.expect("head event"), body, done)
    }

    /// One-shot reference: the buffered parser's view of the same bytes.
    fn reference(wire: &[u8]) -> (Response, Vec<u8>) {
        match parse_response(wire).unwrap() {
            ParseOutcome::Complete { message, .. } => {
                let body = message.body.to_bytes().to_vec();
                (message, body)
            }
            ParseOutcome::Partial => panic!("reference parse incomplete"),
        }
    }

    fn assert_equivalent_at_every_boundary(wire: &[u8]) {
        let (want_resp, want_body) = reference(wire);
        // Single cut at every position.
        for cut in 0..=wire.len() {
            let (resp, body, done) = run_split(wire, &[cut]);
            assert!(done, "no BodyDone with cut at {cut}");
            assert_eq!(resp.status, want_resp.status, "cut at {cut}");
            assert_eq!(body, want_body, "cut at {cut}");
        }
        // Fully byte-by-byte.
        let cuts: Vec<usize> = (1..wire.len()).collect();
        let (resp, body, done) = run_split(wire, &cuts);
        assert!(done);
        assert_eq!(resp.status, want_resp.status);
        assert_eq!(
            resp.headers.get("content-type"),
            want_resp.headers.get("content-type")
        );
        assert_eq!(body, want_body);
    }

    #[test]
    fn content_length_framing_matches_one_shot_at_every_split() {
        let wire =
            b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: 11\r\n\r\nhello world";
        assert_equivalent_at_every_boundary(wire);
    }

    #[test]
    fn chunked_framing_matches_one_shot_at_every_split() {
        let wire = b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nTransfer-Encoding: chunked\r\n\r\n6\r\nhello \r\n5\r\nworld\r\n0\r\n\r\n";
        assert_equivalent_at_every_boundary(wire);
    }

    #[test]
    fn bodiless_framing_matches_one_shot_at_every_split() {
        // No framing headers: bodiless by status (304, 204 — even with
        // `Connection: close`), and on a keep-alive connection by default.
        for (wire, status) in [
            (
                &b"HTTP/1.1 304 Not Modified\r\nETag: \"x\"\r\n\r\n"[..],
                304,
            ),
            (b"HTTP/1.1 204 No Content\r\nConnection: close\r\n\r\n", 204),
            (b"HTTP/1.1 200 OK\r\nX-Framing: none\r\n\r\n", 200),
        ] {
            for cut in 0..=wire.len() {
                let (resp, body, done) = run_split(wire, &[cut]);
                assert!(done);
                assert_eq!(resp.status.as_u16(), status);
                assert!(body.is_empty());
            }
            let mut relay = ResponseRelay::new(None, false);
            relay.feed(wire, &mut Vec::new()).unwrap();
            assert!(relay.is_done(), "complete without waiting for EOF");
        }
    }

    #[test]
    fn close_delimited_bodies_run_to_eof_at_every_split() {
        // Neither Content-Length nor chunked, and the connection will not
        // be reused: the body is everything up to EOF (RFC 9112 §6.3).
        let body = b"a body only the close delimits";
        for head in [
            &b"HTTP/1.0 200 OK\r\nCache-Control: max-age=60\r\n\r\n"[..],
            b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n",
        ] {
            let wire = [head, body].concat();
            let cuts: Vec<usize> = (1..wire.len()).collect();
            let every_cut = (0..=wire.len()).map(|cut| vec![cut]);
            for cuts in every_cut.chain([cuts]) {
                let (resp, got, done) = run_split(&wire, &cuts);
                assert!(done, "EOF is the clean end, cuts {cuts:?}");
                assert_eq!(resp.status.as_u16(), 200);
                assert_eq!(got, body, "cuts {cuts:?}");
            }
            let mut relay = ResponseRelay::new(None, false);
            let mut events = Vec::new();
            relay.feed(&wire, &mut events).unwrap();
            assert!(!relay.is_done(), "only EOF ends the body");
            match &events[0] {
                RelayEvent::Head {
                    declared, has_body, ..
                } => assert_eq!((*declared, *has_body), (None, true)),
                other => panic!("expected head, got {other:?}"),
            }
            relay.close(&mut events).unwrap();
            assert!(relay.is_done());
            assert!(!relay.reusable(), "a closed connection is never parked");
        }
    }

    #[test]
    fn blocking_executor_turns_every_early_eof_into_an_error() {
        // EOF mid-head, mid-body and mid-chunk, with the reader yielding
        // 1..n bytes per call: always an error, never a short body.
        for wire in [
            &b"HTTP/1.1 200 OK\r\nContent-Length: 11\r\n\r\nhello world"[..],
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n6\r\nhello \r\n5\r\nworld\r\n0\r\n\r\n",
        ] {
            for per_read in 1..=wire.len() {
                let cuts: Vec<usize> = (per_read..wire.len()).step_by(per_read).collect();
                let (_, body) = run_blocking(wire, &cuts).unwrap();
                assert_eq!(body, b"hello world", "{per_read} bytes per read");
                for end in 0..wire.len() {
                    let cuts: Vec<usize> = (per_read..end).step_by(per_read).collect();
                    let err = run_blocking(&wire[..end], &cuts)
                        .expect_err("a truncated response must not parse");
                    assert!(
                        err.contains("closed") || err.contains("terminator"),
                        "EOF at {end}, {per_read} bytes per read: {err}"
                    );
                }
            }
        }
    }

    #[test]
    fn only_cleanly_ended_keep_alive_responses_leave_a_reusable_connection() {
        let reusable = |wire: &[u8]| {
            let mut relay = ResponseRelay::new(None, false);
            relay.feed(wire, &mut Vec::new()).unwrap();
            relay.reusable()
        };
        assert!(reusable(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"));
        assert!(!reusable(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\no"));
        assert!(!reusable(
            b"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 2\r\n\r\nok"
        ));
        assert!(!reusable(b"HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nok"));
    }

    #[test]
    fn the_response_to_head_ends_at_its_head() {
        // An RFC-compliant origin declares the GET body's framing and sends
        // no body: waiting for those bytes would wedge the exchange.
        for wire in [
            &b"HTTP/1.1 200 OK\r\nContent-Length: 28\r\n\r\n"[..],
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n",
        ] {
            let mut relay = ResponseRelay::new(None, true);
            let mut events = Vec::new();
            relay.feed(wire, &mut events).unwrap();
            match &events[0] {
                RelayEvent::Head {
                    declared, has_body, ..
                } => assert_eq!((*declared, *has_body), (Some(0), false)),
                other => panic!("expected head, got {other:?}"),
            }
            assert!(matches!(events[1], RelayEvent::BodyDone));
            assert!(relay.reusable(), "the connection carries the next exchange");
            let mut relay = BlockingRelay::new(SplitReader::new(wire, &[]), None, true, None);
            relay.head().unwrap();
            assert_eq!(relay.next_data().unwrap(), None);
        }
    }

    #[test]
    fn hop_by_hop_headers_are_read_then_stripped() {
        let head = |wire: &[u8]| {
            let mut relay = ResponseRelay::new(None, false);
            let mut events = Vec::new();
            relay.feed(wire, &mut events).unwrap();
            let (response, _, _) = collect(events);
            (response, relay.reusable())
        };
        let (response, reusable) = head(
            b"HTTP/1.1 200 OK\r\nConnection: keep-alive, X-Hop\r\nKeep-Alive: timeout=5\r\n\
              X-Hop: 1\r\nX-End: 2\r\nContent-Length: 2\r\n\r\nok",
        );
        assert!(reusable);
        let names: Vec<&str> = response.headers.iter().map(|(name, _)| name).collect();
        assert_eq!(names, ["X-End", "Content-Length"]);
        let (response, reusable) =
            head(b"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 2\r\n\r\nok");
        assert!(!reusable, "the verdict is read before the strip");
        assert_eq!(response.headers.get("connection"), None);
    }

    #[test]
    fn decode_limit_caps_chunked_bodies() {
        let wire = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n6\r\nhello \r\n0\r\n\r\n";
        let mut events = Vec::new();
        assert!(ResponseRelay::new(Some(6), false)
            .feed(wire, &mut events)
            .is_ok());
        let err = ResponseRelay::new(Some(5), false)
            .feed(wire, &mut events)
            .unwrap_err();
        assert!(err.contains("chunked"), "{err}");
    }

    #[test]
    fn content_length_zero_emits_body_done_with_head() {
        let wire = b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n";
        let mut relay = ResponseRelay::new(None, false);
        let mut events = Vec::new();
        relay.feed(wire, &mut events).unwrap();
        let (resp, body, done) = collect(events);
        assert_eq!(resp.status.as_u16(), 200);
        assert!(body.is_empty());
        assert!(done);
        assert!(relay.is_done());
    }

    #[test]
    fn head_event_reports_framing() {
        let wire = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nabcde";
        let mut relay = ResponseRelay::new(None, false);
        let mut events = Vec::new();
        relay.feed(wire, &mut events).unwrap();
        match &events[0] {
            RelayEvent::Head {
                declared, has_body, ..
            } => {
                assert_eq!(*declared, Some(5));
                assert!(*has_body);
            }
            other => panic!("expected head, got {other:?}"),
        }
        let wire = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n";
        let mut relay = ResponseRelay::new(None, false);
        let mut events = Vec::new();
        relay.feed(wire, &mut events).unwrap();
        match &events[0] {
            RelayEvent::Head {
                declared, has_body, ..
            } => {
                assert_eq!(*declared, None);
                assert!(*has_body);
            }
            other => panic!("expected head, got {other:?}"),
        }
    }

    #[test]
    fn eof_before_any_bytes_is_an_error() {
        let mut relay = ResponseRelay::new(None, false);
        let mut events = Vec::new();
        let err = relay.close(&mut events).unwrap_err();
        assert!(err.contains("before sending a response"), "{err}");
    }

    #[test]
    fn eof_mid_head_is_an_error() {
        let mut relay = ResponseRelay::new(None, false);
        let mut events = Vec::new();
        relay
            .feed(b"HTTP/1.1 200 OK\r\nContent-", &mut events)
            .unwrap();
        assert!(events.is_empty());
        assert!(!relay.head_done());
        let err = relay.close(&mut events).unwrap_err();
        assert!(err.contains("mid-response-head"), "{err}");
    }

    #[test]
    fn eof_mid_content_length_body_reports_progress() {
        let mut relay = ResponseRelay::new(None, false);
        let mut events = Vec::new();
        relay
            .feed(
                b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc",
                &mut events,
            )
            .unwrap();
        let err = relay.close(&mut events).unwrap_err();
        assert_eq!(
            err,
            "origin closed mid-body: got 3 of 10 Content-Length bytes"
        );
    }

    #[test]
    fn eof_mid_chunked_body_is_an_error() {
        let mut relay = ResponseRelay::new(None, false);
        let mut events = Vec::new();
        relay
            .feed(
                b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhel",
                &mut events,
            )
            .unwrap();
        let err = relay.close(&mut events).unwrap_err();
        assert!(err.contains("missing its terminator"), "{err}");
    }

    #[test]
    fn garbage_head_is_an_error() {
        let mut relay = ResponseRelay::new(None, false);
        let mut events = Vec::new();
        let err = relay
            .feed(b"NOT HTTP AT ALL\r\n\r\n", &mut events)
            .unwrap_err();
        assert!(err.contains("malformed response"), "{err}");
        // Once failed, further feeds are refused.
        assert!(relay.feed(b"more", &mut events).is_err());
    }

    #[test]
    fn bad_chunk_framing_is_an_error() {
        let mut relay = ResponseRelay::new(None, false);
        let mut events = Vec::new();
        let err = relay
            .feed(
                b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzzzz\r\n",
                &mut events,
            )
            .unwrap_err();
        assert!(err.contains("chunked"), "{err}");
    }

    #[test]
    fn oversized_head_is_rejected() {
        let mut relay = ResponseRelay::new(None, false);
        let mut events = Vec::new();
        let mut wire = b"HTTP/1.1 200 OK\r\n".to_vec();
        // Far past MAX_HEADER_BYTES without ever completing the head.
        for i in 0..9000 {
            wire.extend_from_slice(format!("X-Flood-{i}: padding-padding\r\n").as_bytes());
        }
        let err = relay.feed(&wire, &mut events).unwrap_err();
        assert!(err.contains("malformed response"), "{err}");
    }

    #[test]
    fn trailing_bytes_after_done_are_dropped() {
        let mut relay = ResponseRelay::new(None, false);
        let mut events = Vec::new();
        relay
            .feed(
                b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nokEXTRA",
                &mut events,
            )
            .unwrap();
        assert!(relay.is_done());
        assert!(!relay.reusable(), "surplus bytes poison the connection");
        assert!(relay.close(&mut events).is_ok());
        let (_, body, done) = collect(events);
        assert_eq!(body, b"ok");
        assert!(done);
    }

    mod random_splits {
        use super::*;
        use proptest::prelude::*;

        /// A Content-Length wire around `body`.
        fn length_wire(body: &[u8]) -> Vec<u8> {
            let mut wire = format!(
                "HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream\r\nContent-Length: {}\r\n\r\n",
                body.len()
            )
            .into_bytes();
            wire.extend_from_slice(body);
            wire
        }

        /// A chunked wire: `body` carved into runs of `sizes` (cycled).
        fn chunked_wire(body: &[u8], sizes: &[usize]) -> Vec<u8> {
            let mut wire = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec();
            let mut rest = body;
            let mut i = 0;
            while !rest.is_empty() {
                let take = sizes[i % sizes.len()].min(rest.len());
                wire.extend_from_slice(format!("{take:x}\r\n").as_bytes());
                wire.extend_from_slice(&rest[..take]);
                wire.extend_from_slice(b"\r\n");
                rest = &rest[take..];
                i += 1;
            }
            wire.extend_from_slice(b"0\r\n\r\n");
            wire
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// Any body under either framing, fed in arbitrary fragments,
            /// must agree with the one-shot parser byte for byte.
            #[test]
            fn relay_agrees_with_one_shot_parser_under_random_splits(
                body in prop::collection::vec(any::<u8>(), 0..600),
                sizes in prop::collection::vec(1usize..64, 1..8),
                chunked in any::<bool>(),
                raw_cuts in prop::collection::vec(0usize..8192, 0..24),
            ) {
                let wire = if chunked {
                    chunked_wire(&body, &sizes)
                } else {
                    length_wire(&body)
                };
                let mut cuts: Vec<usize> =
                    raw_cuts.into_iter().map(|c| c % (wire.len() + 1)).collect();
                cuts.sort_unstable();
                let (want_resp, want_body) = reference(&wire);
                let (resp, got_body, done) = run_split(&wire, &cuts);
                prop_assert!(done, "no clean BodyDone");
                prop_assert_eq!(resp.status, want_resp.status);
                prop_assert_eq!(got_body, want_body);
            }
        }
    }

    #[test]
    fn chunk_data_arrives_incrementally_before_body_done() {
        // A relay must emit Data as bytes arrive, not hold them until the
        // terminator: that is the whole point of the splice.
        let mut relay = ResponseRelay::new(None, false);
        let mut events = Vec::new();
        relay
            .feed(
                b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n",
                &mut events,
            )
            .unwrap();
        let datas = events
            .iter()
            .filter(|e| matches!(e, RelayEvent::Data(_)))
            .count();
        assert_eq!(datas, 1);
        assert!(!relay.is_done());
        relay.feed(b"0\r\n\r\n", &mut events).unwrap();
        assert!(relay.is_done());
    }
}
