//! Property-based tests over the core data structures and invariants:
//! HTTP message round-trips, URI rewriting, policy-matcher agreement, cache
//! accounting, overlay lookups, the script engine's sandbox, and SHA-256.

use nakika_bench::hist::LatencyRecorder;
use nakika_core::policy::{LinearMatcher, Matcher, Policy, PolicySet};
use nakika_core::ProxyCache;
use nakika_http::{parse_request, parse_response, serialize_request, serialize_response};
use nakika_http::{Method, ParseOutcome, Request, Response, Uri};
use nakika_overlay::{key_for, Location, Overlay};
use nakika_script::{Context, Value, Vm};
use proptest::prelude::*;
use std::time::Duration;

fn header_value() -> impl Strategy<Value = String> {
    "[a-zA-Z0-9 ;=/_.-]{0,40}"
}

fn path_segment() -> impl Strategy<Value = String> {
    "[a-z0-9_-]{1,12}"
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn request_serialization_round_trips(
        segs in prop::collection::vec(path_segment(), 1..4),
        host in "[a-z]{1,10}(\\.[a-z]{2,6}){1,2}",
        body in prop::collection::vec(any::<u8>(), 0..256),
        header in header_value(),
    ) {
        let uri = format!("http://{host}/{}", segs.join("/"));
        let request = Request::get(&uri)
            .with_header("X-Test", header.trim())
            .with_body(body.clone());
        let wire = serialize_request(&request);
        match parse_request(&wire).unwrap() {
            ParseOutcome::Complete { message, consumed } => {
                prop_assert_eq!(consumed, wire.len());
                prop_assert_eq!(message.uri.path, request.uri.path);
                prop_assert_eq!(message.body.to_bytes().to_vec(), body);
            }
            ParseOutcome::Partial => prop_assert!(false, "round trip incomplete"),
        }
    }

    #[test]
    fn response_serialization_round_trips(
        status in 200u16..599,
        body in prop::collection::vec(any::<u8>(), 0..512),
        ctype in "[a-z]{2,8}/[a-z]{2,8}",
    ) {
        let mut response = Response::ok(&ctype, body.clone());
        response.status = nakika_http::StatusCode::new(status).unwrap();
        let wire = serialize_response(&response);
        match parse_response(&wire).unwrap() {
            ParseOutcome::Complete { message, consumed } => {
                prop_assert_eq!(consumed, wire.len());
                prop_assert_eq!(message.status.as_u16(), status);
                prop_assert_eq!(message.body.to_bytes().to_vec(), body);
            }
            ParseOutcome::Partial => prop_assert!(false, "round trip incomplete"),
        }
    }

    #[test]
    fn incremental_parse_agrees_with_one_shot_at_every_split(
        body in prop::collection::vec(any::<u8>(), 0..300),
        split_seed in any::<u64>(),
        chunked in any::<bool>(),
    ) {
        // Build a response wire image with either framing, then feed it to
        // the incremental parser split at a random boundary; the outcome
        // must be Partial before the message completes and identical to the
        // one-shot parse afterwards.
        let wire = if chunked {
            let mut resp = nakika_http::Response::new(nakika_http::StatusCode::OK);
            resp.body = nakika_http::Body::stream_from_iter(
                body.chunks(37).map(bytes::Bytes::copy_from_slice).collect::<Vec<_>>(),
                None,
            );
            let mut writer = nakika_http::ResponseWriter::new(resp);
            let mut wire = Vec::new();
            while let Some(part) = writer.next_part().unwrap() {
                wire.extend_from_slice(&part);
            }
            wire
        } else {
            serialize_response(&Response::ok("application/octet-stream", body.clone()))
        };
        let reference = match parse_response(&wire).unwrap() {
            ParseOutcome::Complete { message, consumed } => {
                prop_assert_eq!(consumed, wire.len());
                message
            }
            ParseOutcome::Partial => { prop_assert!(false, "one-shot incomplete"); unreachable!() }
        };
        prop_assert_eq!(reference.body.to_bytes().to_vec(), body.clone());
        let split = (split_seed as usize) % wire.len().max(1);
        match parse_response(&wire[..split]).unwrap() {
            ParseOutcome::Partial => {}
            ParseOutcome::Complete { consumed, .. } => {
                // Only an empty-body message can complete early (header-only
                // prefix of a chunked message cannot).
                prop_assert_eq!(consumed, split);
            }
        }
        match parse_response(&wire).unwrap() {
            ParseOutcome::Complete { message, .. } => {
                prop_assert_eq!(message.body.to_bytes(), reference.body.to_bytes());
                prop_assert_eq!(message.status, reference.status);
            }
            ParseOutcome::Partial => prop_assert!(false, "full buffer must complete"),
        }
    }

    #[test]
    fn chunked_decoder_is_split_invariant(
        chunks in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..60), 0..8),
        split_seed in any::<u64>(),
        with_trailer in any::<bool>(),
    ) {
        // Encode a chunked body by hand...
        let mut wire = Vec::new();
        for chunk in &chunks {
            wire.extend_from_slice(format!("{:x}\r\n", chunk.len()).as_bytes());
            wire.extend_from_slice(chunk);
            wire.extend_from_slice(b"\r\n");
        }
        wire.extend_from_slice(b"0\r\n");
        if with_trailer {
            wire.extend_from_slice(b"X-Checksum: abc\r\n");
        }
        wire.extend_from_slice(b"\r\n");
        let expected: Vec<u8> = chunks.concat();

        // ...and decode it byte-split at a random point: the incremental
        // decoder must produce exactly the same data as a whole-buffer feed,
        // consuming exactly the wire length.
        let split = (split_seed as usize) % (wire.len() + 1);
        let mut decoder = nakika_http::ChunkedDecoder::new();
        let mut out = Vec::new();
        let consumed_a = decoder.feed(&wire[..split], &mut out).unwrap();
        prop_assert_eq!(consumed_a, split);
        let consumed_b = decoder.feed(&wire[split..], &mut out).unwrap();
        prop_assert!(decoder.is_done());
        prop_assert_eq!(consumed_a + consumed_b, wire.len());
        let data: Vec<u8> = out.iter().flat_map(|c| c.to_vec()).collect();
        prop_assert_eq!(data, expected);

        // Degenerate resplit: one byte at a time must agree too.
        let mut decoder = nakika_http::ChunkedDecoder::new();
        let mut out = Vec::new();
        for byte in &wire {
            decoder.feed(std::slice::from_ref(byte), &mut out).unwrap();
        }
        prop_assert!(decoder.is_done());
        let data: Vec<u8> = out.iter().flat_map(|c| c.to_vec()).collect();
        prop_assert_eq!(data, chunks.concat());
    }

    #[test]
    fn nakika_url_rewriting_is_reversible(
        host in "[a-z]{1,10}(\\.[a-z]{2,6}){1,2}",
        segs in prop::collection::vec(path_segment(), 0..4),
    ) {
        let uri = Uri::parse(&format!("http://{host}/{}", segs.join("/"))).unwrap();
        let rewritten = uri.to_nakika();
        prop_assert!(rewritten.is_nakika());
        prop_assert_eq!(rewritten.to_origin(), uri.clone());
        // Rewriting is idempotent.
        prop_assert_eq!(rewritten.to_nakika(), rewritten);
    }

    #[test]
    fn decision_tree_and_linear_matcher_always_agree(
        hosts in prop::collection::vec("[a-z]{1,8}\\.(com|org|edu)", 1..20),
        query_host in "[a-z]{1,8}\\.(com|org|edu)",
    ) {
        let mut set = PolicySet::new();
        for (i, host) in hosts.iter().enumerate() {
            let mut policy = Policy::catch_all();
            policy.url = vec![host.clone()];
            policy.on_request = Some(Value::Number(i as f64));
            set.push(policy);
        }
        let tree = set.compile();
        let linear = LinearMatcher::build(&set);
        let request = Request::get(&format!("http://{query_host}/page"));
        let a = tree.find_closest_match(&request).map(|p| p.on_request.clone());
        let b = linear.find_closest_match(&request).map(|p| p.on_request.clone());
        prop_assert_eq!(a, b);
    }

    #[test]
    fn cache_usage_never_exceeds_capacity(
        inserts in prop::collection::vec((path_segment(), 1usize..4000), 1..30),
    ) {
        let capacity = 16 * 1024;
        let cache = ProxyCache::new(capacity, Duration::from_secs(60));
        for (i, (name, size)) in inserts.iter().enumerate() {
            let response = Response::ok("text/plain", vec![b'x'; *size])
                .with_header("Cache-Control", "max-age=600");
            cache.put(&format!("http://a.com/{name}{i}"), &Method::Get, &response, i as u64);
            prop_assert!(cache.used_bytes() <= capacity,
                "used {} exceeds capacity {capacity}", cache.used_bytes());
        }
    }

    #[test]
    fn overlay_lookup_finds_fresh_announcements(
        urls in prop::collection::vec("[a-z]{1,10}", 1..10),
        ttl in 10u64..1000,
    ) {
        let overlay = Overlay::with_defaults();
        let writer = key_for("writer");
        let reader = key_for("reader");
        overlay.join(writer, Location::new(0.0, 0.0));
        overlay.join(reader, Location::new(1.0, 0.0));
        for url in &urls {
            let key = format!("http://site.example/{url}");
            overlay.put(writer, &key, "writer", ttl);
            let values = overlay.get(reader, &key, ttl - 1);
            prop_assert!(values.iter().any(|v| v.payload == "writer"));
            prop_assert!(overlay.get(reader, &key, ttl + 1).is_empty());
        }
    }

    #[test]
    fn arithmetic_in_the_script_engine_matches_rust(
        a in -1_000_000i64..1_000_000,
        b in -1_000i64..1_000,
    ) {
        let src = format!("{a} + {b} * 2 - ({a} - {b})");
        let expected = (a + b * 2 - (a - b)) as f64;
        prop_assert_eq!(nakika_script::eval(&src).unwrap(), Value::Number(expected));
    }

    #[test]
    fn script_sandbox_always_terminates_within_its_fuel_budget(
        iterations in 1u64..10_000,
    ) {
        // Whatever the loop bound, the VM either finishes or stops at the
        // fuel limit — it never runs away.
        let ctx = Context::with_limits(20_000, 1 << 20);
        nakika_script::stdlib::install(&ctx);
        let program = nakika_script::compile(&nakika_script::parse_program(
            &format!("var s = 0; for (var i = 0; i < {iterations}; i++) {{ s = s + i; }} s"),
        ).unwrap());
        let mut vm = Vm::new(&ctx);
        let result = vm.run(&program);
        prop_assert!(vm.fuel_used() <= 20_000 + 16);
        match result {
            Ok(Value::Number(_)) => {}
            Err(nakika_script::ScriptError::FuelExhausted) => {}
            other => prop_assert!(false, "unexpected outcome: {other:?}"),
        }
    }

    #[test]
    fn sha256_is_deterministic_and_sensitive(
        data in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let a = nakika_integrity::sha256_hex(&data);
        let b = nakika_integrity::sha256_hex(&data);
        prop_assert_eq!(&a, &b);
        let mut flipped = data.clone();
        if let Some(first) = flipped.first_mut() {
            *first ^= 0x01;
            prop_assert_ne!(a, nakika_integrity::sha256_hex(&flipped));
        }
    }

    /// The bench histogram against a sorted-vec oracle: every reported
    /// percentile brackets the oracle's exact answer from above, within
    /// the log-bucketing's guaranteed relative error, and percentiles
    /// are monotone in the quantile.
    #[test]
    fn latency_histogram_percentiles_track_the_sorted_oracle(
        samples in prop::collection::vec(0u64..100_000_000, 1..200),
    ) {
        let hist = LatencyRecorder::new();
        for &s in &samples {
            hist.record_micros(s);
        }
        let mut oracle = samples.clone();
        oracle.sort_unstable();
        prop_assert_eq!(hist.count(), samples.len() as u64);

        let mut last = 0u64;
        for q in [0.01, 0.25, 0.50, 0.90, 0.99, 0.999, 1.0] {
            let got = hist.percentile_us(q);
            prop_assert!(got >= last, "percentile not monotone: p{q} = {got} < {last}");
            last = got;
            let rank = ((q * oracle.len() as f64).ceil() as usize).clamp(1, oracle.len());
            let exact = oracle[rank - 1];
            // The histogram reports the upper edge of the exact value's
            // bucket: never below the oracle, never more than one
            // sub-bucket's width (1/16th, plus a unit) above it.
            prop_assert!(got >= exact, "p{q}: {got} below oracle {exact}");
            prop_assert!(
                got <= exact + exact / 16 + 1,
                "p{q}: {got} too far above oracle {exact}"
            );
        }
    }

    /// Merging recorders is associative and agrees bucket-for-bucket with
    /// recording every sample into a single histogram, so per-thread
    /// recorders folded in any order report identical percentiles.
    #[test]
    fn latency_histogram_merge_is_associative(
        a in prop::collection::vec(0u64..10_000_000, 0..64),
        b in prop::collection::vec(0u64..10_000_000, 0..64),
        c in prop::collection::vec(0u64..10_000_000, 0..64),
    ) {
        let rec = |samples: &[u64]| {
            let h = LatencyRecorder::new();
            for &s in samples {
                h.record_micros(s);
            }
            h
        };
        // (a ⊕ b) ⊕ c
        let left = rec(&a);
        left.merge(&rec(&b));
        left.merge(&rec(&c));
        // a ⊕ (b ⊕ c)
        let bc = rec(&b);
        bc.merge(&rec(&c));
        let right = rec(&a);
        right.merge(&bc);
        // Everything into one recorder.
        let all: Vec<u64> = a.iter().chain(&b).chain(&c).copied().collect();
        let single = rec(&all);

        prop_assert_eq!(left.bucket_counts(), right.bucket_counts());
        prop_assert_eq!(left.bucket_counts(), single.bucket_counts());
        prop_assert_eq!(left.count(), all.len() as u64);
        for q in [0.5, 0.99, 0.999] {
            prop_assert_eq!(left.percentile_us(q), single.percentile_us(q));
        }
    }
}
