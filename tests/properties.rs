//! Property-based tests over the core data structures and invariants:
//! HTTP message round-trips, URI rewriting, policy-matcher agreement, cache
//! accounting, and the script engine's sandbox.

use nakika_core::policy::{LinearMatcher, Matcher, Policy, PolicySet};
use nakika_core::ProxyCache;
use nakika_http::{parse_request, parse_response, serialize_request, serialize_response};
use nakika_http::{Method, ParseOutcome, Request, Response, Uri};
use nakika_script::{Context, Value, Vm};
use proptest::prelude::*;
use std::collections::HashMap;
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

    /// Random puts (some larger than a shard's budget, some of a resident
    /// key), hits, invalidations and clears on a 1- or 8-shard cache.
    /// After every operation usage fits the capacity and the cache holds
    /// exactly the entries the model says.  With one shard, where every key
    /// shares one eviction ring, an entry last hit (or stored again) at `t`
    /// also outlives every entry inserted before `t` and never hit since.
    #[test]
    fn cache_usage_never_exceeds_capacity(
        eight_shards in 0usize..2,
        ops in prop::collection::vec((0u8..20, 0usize..24, 0usize..1500, 0u8..5), 1..200),
    ) {
        let shards = if eight_shards == 1 { 8 } else { 1 };
        let capacity = 16 * 1024;
        let cache = ProxyCache::with_shards(capacity, Duration::from_secs(60), shards);
        // Resident keys: (inserted at, last hit or re-put at).
        let mut model: HashMap<String, (u64, Option<u64>)> = HashMap::new();
        for (now, &(op, name, len, big)) in (0u64..).zip(&ops) {
            let key = format!("http://a.com/{name}");
            match op {
                0..=9 => {
                    // One body in five exceeds an 8-shard budget (2 KiB).
                    let len = if big == 0 { 2048 + 5 * len } else { len };
                    let response = Response::ok("text/plain", vec![b'x'; len])
                        .with_header("Cache-Control", "max-age=600");
                    if cache.put(&key, &Method::Get, &response, now) {
                        model.entry(key).and_modify(|e| e.1 = Some(now)).or_insert((now, None));
                    }
                }
                10..=16 => {
                    prop_assert_eq!(cache.get(&key, now).is_some(), model.contains_key(&key));
                    if let Some(entry) = model.get_mut(&key) {
                        entry.1 = Some(now);
                    }
                }
                17..=18 => prop_assert_eq!(cache.invalidate(&key), model.remove(&key).is_some()),
                _ => {
                    cache.clear();
                    model.clear();
                }
            }
            prop_assert!(cache.used_bytes() <= capacity,
                "used {} exceeds capacity {capacity}", cache.used_bytes());
            let evicted: Vec<(String, (u64, Option<u64>))> = model
                .iter()
                .filter(|(k, _)| !cache.contains_fresh(k, now))
                .map(|(k, v)| (k.clone(), *v))
                .collect();
            for (gone, _) in &evicted {
                model.remove(gone);
            }
            prop_assert_eq!(cache.len(), model.len());
            if shards > 1 {
                continue;
            }
            for (gone, (_, hit)) in &evicted {
                let Some(hit) = *hit else { continue };
                for (kept, (inserted, kept_hit)) in &model {
                    prop_assert!(
                        kept_hit.is_some() || *inserted >= hit,
                        "{} was evicted before the older, never-hit {}", gone, kept
                    );
                }
            }
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
}
