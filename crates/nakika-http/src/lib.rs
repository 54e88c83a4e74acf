//! HTTP/1.1 substrate for the Na Kika edge-side computing network.
//!
//! The Na Kika paper (Grimm et al., NSDI 2006) builds on Apache 2.0 for HTTP
//! processing.  This crate provides the equivalent substrate from scratch: an
//! HTTP/1.1 message model (requests, responses, headers, URIs, status codes),
//! a streaming body abstraction modelled after Apache's *bucket brigades*, a
//! parser and serializer, the web's expiration-based caching semantics, and
//! the matching primitives (URL prefixes, CIDR blocks, lightweight regular
//! expressions) that Na Kika's predicate-based policy selection relies on.
//!
//! The crate is deliberately dependency-light: messages carry their bodies as
//! [`bytes::Bytes`] chunks so that higher layers (the scripting pipeline) can
//! stream data without copying, exactly as the paper's byte-array extension to
//! SpiderMonkey avoids copies between Apache and the script engine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod cache_control;
pub(crate) mod error;
pub(crate) mod headers;
pub(crate) mod message;
pub(crate) mod method;
pub mod parse;
pub mod pattern;
pub mod serialize;
pub(crate) mod status;
pub(crate) mod uri;

pub use error::HttpError;
pub use headers::Headers;
pub use message::{Body, ChunkSource, Readiness, Request, Response, STREAM_CHUNK_BYTES};
pub use method::Method;
pub use parse::{parse_request, parse_response, parse_response_head, ChunkedDecoder, ParseOutcome};
pub use serialize::{serialize_request, serialize_response, ResponseWriter};
pub use status::StatusCode;
pub use uri::Uri;
