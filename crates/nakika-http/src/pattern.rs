//! Matching primitives used by Na Kika's predicate-based policy selection:
//! URL prefixes, CIDR blocks for client addresses, and lightweight regular
//! expressions for arbitrary HTTP headers (paper §3.1).

use crate::error::{HttpError, Result};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

/// A CIDR block such as `128.122.0.0/16`, or a single address.
///
/// Policy objects list allowable client addresses in CIDR notation; the
/// `System.isLocal` vocabulary call (Figure 5) also resolves to a CIDR check
/// against the hosting organisation's address blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cidr {
    network: IpAddr,
    prefix_len: u8,
}

impl Cidr {
    /// Parses `a.b.c.d/len`, a bare IPv4/IPv6 address (full-length prefix), or
    /// an IPv6 block.
    pub fn parse(s: &str) -> Result<Cidr> {
        let s = s.trim();
        let (addr_str, len_str) = match s.find('/') {
            Some(idx) => (&s[..idx], Some(&s[idx + 1..])),
            None => (s, None),
        };
        let addr: IpAddr = addr_str
            .parse()
            .map_err(|_| HttpError::InvalidPattern(s.to_string()))?;
        let max_len = match addr {
            IpAddr::V4(_) => 32,
            IpAddr::V6(_) => 128,
        };
        let prefix_len = match len_str {
            Some(l) => l
                .parse::<u8>()
                .ok()
                .filter(|l| *l <= max_len)
                .ok_or_else(|| HttpError::InvalidPattern(s.to_string()))?,
            None => max_len,
        };
        Ok(Cidr {
            network: mask_addr(addr, prefix_len),
            prefix_len,
        })
    }

    /// True if `addr` falls inside this block.
    pub fn contains(&self, addr: IpAddr) -> bool {
        match (self.network, addr) {
            (IpAddr::V4(_), IpAddr::V4(_)) | (IpAddr::V6(_), IpAddr::V6(_)) => {
                mask_addr(addr, self.prefix_len) == self.network
            }
            _ => false,
        }
    }

    /// The prefix length.
    pub fn prefix_len(&self) -> u8 {
        self.prefix_len
    }
}

fn mask_addr(addr: IpAddr, prefix_len: u8) -> IpAddr {
    match addr {
        IpAddr::V4(v4) => {
            let bits = u32::from(v4);
            let mask = if prefix_len == 0 {
                0
            } else {
                u32::MAX << (32 - prefix_len as u32)
            };
            IpAddr::V4(Ipv4Addr::from(bits & mask))
        }
        IpAddr::V6(v6) => {
            let bits = u128::from(v6);
            let mask = if prefix_len == 0 {
                0
            } else {
                u128::MAX << (128 - prefix_len as u32)
            };
            IpAddr::V6(Ipv6Addr::from(bits & mask))
        }
    }
}

/// A client-address pattern: either a CIDR block or a DNS-style domain suffix
/// (the paper's Figure 3 uses `"nyu.edu"` to mean "clients within NYU").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientPattern {
    /// Match by address block.
    Cidr(Cidr),
    /// Match by reverse-DNS domain suffix (resolved out of band and carried
    /// on the request as `X-Client-Domain` by the front-end).
    Domain(String),
}

impl ClientPattern {
    /// Parses a client pattern; anything that parses as CIDR is CIDR,
    /// otherwise it is treated as a domain suffix.
    pub fn parse(s: &str) -> Result<ClientPattern> {
        let s = s.trim();
        if s.is_empty() {
            return Err(HttpError::InvalidPattern(
                "empty client pattern".to_string(),
            ));
        }
        match Cidr::parse(s) {
            Ok(cidr) => Ok(ClientPattern::Cidr(cidr)),
            Err(_) => Ok(ClientPattern::Domain(s.to_ascii_lowercase())),
        }
    }

    /// True if a client with address `ip` and (optional) resolved domain
    /// matches this pattern.
    pub fn matches(&self, ip: IpAddr, domain: Option<&str>) -> bool {
        match self {
            ClientPattern::Cidr(c) => c.contains(ip),
            ClientPattern::Domain(suffix) => match domain {
                Some(d) => {
                    let d = d.to_ascii_lowercase();
                    d == *suffix || d.ends_with(&format!(".{suffix}"))
                }
                None => false,
            },
        }
    }
}

/// A compiled lightweight regular expression.
///
/// Supports literals, `.`, `*`, `+`, `?`, character classes `[a-z]` (with
/// negation), alternation `|`, grouping `(...)`, and the anchors `^` / `$`.
/// This is sufficient for the header predicates used in the paper (matching
/// `User-Agent` strings for device detection, URL substrings for blacklists)
/// without pulling in a full regex dependency.
#[derive(Debug, Clone)]
pub struct Regex {
    nodes: Vec<Node>,
    anchored_start: bool,
    anchored_end: bool,
}

#[derive(Debug, Clone)]
enum Node {
    Literal(char),
    Any,
    Class {
        negated: bool,
        ranges: Vec<(char, char)>,
    },
    Group(Vec<Vec<Node>>),
    Star(Box<Node>),
    Plus(Box<Node>),
    Optional(Box<Node>),
}

impl Regex {
    /// Compiles a pattern.
    pub fn new(pattern: &str) -> Result<Regex> {
        let mut chars: Vec<char> = pattern.chars().collect();
        let anchored_start = chars.first() == Some(&'^');
        if anchored_start {
            chars.remove(0);
        }
        let anchored_end = chars.last() == Some(&'$');
        if anchored_end {
            chars.pop();
        }
        let mut pos = 0;
        let alternatives = parse_alternatives(&chars, &mut pos)
            .map_err(|e| HttpError::InvalidPattern(format!("{pattern}: {e}")))?;
        if pos != chars.len() {
            return Err(HttpError::InvalidPattern(format!(
                "{pattern}: unexpected '{}'",
                chars[pos]
            )));
        }
        let nodes = if alternatives.len() == 1 {
            alternatives.into_iter().next().unwrap()
        } else {
            vec![Node::Group(alternatives)]
        };
        Ok(Regex {
            nodes,
            anchored_start,
            anchored_end,
        })
    }

    /// True if the pattern matches anywhere in `text` (or at the anchors if
    /// anchored).
    pub fn is_match(&self, text: &str) -> bool {
        self.find(text).is_some()
    }

    /// Returns the byte range of the first match, if any.
    pub fn find(&self, text: &str) -> Option<(usize, usize)> {
        let chars: Vec<char> = text.chars().collect();
        let starts: Vec<usize> = if self.anchored_start {
            vec![0]
        } else {
            (0..=chars.len()).collect()
        };
        for start in starts {
            if let Some(end) = match_seq(&self.nodes, &chars, start) {
                if self.anchored_end && end != chars.len() {
                    // Try to extend greedily failed; for simplicity require a
                    // full match to the end when anchored.
                    if match_seq_to_end(&self.nodes, &chars, start) {
                        return Some((char_to_byte(text, start), text.len()));
                    }
                    continue;
                }
                return Some((char_to_byte(text, start), char_to_byte(text, end)));
            }
        }
        None
    }
}

fn char_to_byte(text: &str, char_idx: usize) -> usize {
    text.char_indices()
        .nth(char_idx)
        .map(|(b, _)| b)
        .unwrap_or(text.len())
}

fn parse_alternatives(
    chars: &[char],
    pos: &mut usize,
) -> std::result::Result<Vec<Vec<Node>>, String> {
    let mut alternatives = Vec::new();
    let mut current = Vec::new();
    while *pos < chars.len() {
        match chars[*pos] {
            ')' => break,
            '|' => {
                *pos += 1;
                alternatives.push(std::mem::take(&mut current));
            }
            _ => {
                let node = parse_node(chars, pos)?;
                current.push(node);
            }
        }
    }
    alternatives.push(current);
    Ok(alternatives)
}

fn parse_node(chars: &[char], pos: &mut usize) -> std::result::Result<Node, String> {
    let base = parse_atom(chars, pos)?;
    let node = if *pos < chars.len() {
        match chars[*pos] {
            '*' => {
                *pos += 1;
                Node::Star(Box::new(base))
            }
            '+' => {
                *pos += 1;
                Node::Plus(Box::new(base))
            }
            '?' => {
                *pos += 1;
                Node::Optional(Box::new(base))
            }
            _ => base,
        }
    } else {
        base
    };
    Ok(node)
}

fn parse_atom(chars: &[char], pos: &mut usize) -> std::result::Result<Node, String> {
    let c = chars[*pos];
    match c {
        '.' => {
            *pos += 1;
            Ok(Node::Any)
        }
        '\\' => {
            *pos += 1;
            if *pos >= chars.len() {
                return Err("dangling escape".to_string());
            }
            let escaped = chars[*pos];
            *pos += 1;
            match escaped {
                'd' => Ok(Node::Class {
                    negated: false,
                    ranges: vec![('0', '9')],
                }),
                'w' => Ok(Node::Class {
                    negated: false,
                    ranges: vec![('a', 'z'), ('A', 'Z'), ('0', '9'), ('_', '_')],
                }),
                's' => Ok(Node::Class {
                    negated: false,
                    ranges: vec![(' ', ' '), ('\t', '\t'), ('\n', '\n'), ('\r', '\r')],
                }),
                other => Ok(Node::Literal(other)),
            }
        }
        '[' => {
            *pos += 1;
            let negated = *pos < chars.len() && chars[*pos] == '^';
            if negated {
                *pos += 1;
            }
            let mut ranges = Vec::new();
            while *pos < chars.len() && chars[*pos] != ']' {
                let lo = chars[*pos];
                *pos += 1;
                if *pos + 1 < chars.len() && chars[*pos] == '-' && chars[*pos + 1] != ']' {
                    let hi = chars[*pos + 1];
                    *pos += 2;
                    ranges.push((lo, hi));
                } else {
                    ranges.push((lo, lo));
                }
            }
            if *pos >= chars.len() {
                return Err("unterminated character class".to_string());
            }
            *pos += 1; // consume ']'
            Ok(Node::Class { negated, ranges })
        }
        '(' => {
            *pos += 1;
            let alternatives = parse_alternatives(chars, pos)?;
            if *pos >= chars.len() || chars[*pos] != ')' {
                return Err("unterminated group".to_string());
            }
            *pos += 1;
            Ok(Node::Group(alternatives))
        }
        '*' | '+' | '?' | ')' | '|' => Err(format!("unexpected '{c}'")),
        _ => {
            *pos += 1;
            Ok(Node::Literal(c))
        }
    }
}

fn match_node(node: &Node, chars: &[char], pos: usize) -> Vec<usize> {
    match node {
        Node::Literal(c) => {
            if pos < chars.len() && chars[pos] == *c {
                vec![pos + 1]
            } else {
                vec![]
            }
        }
        Node::Any => {
            if pos < chars.len() {
                vec![pos + 1]
            } else {
                vec![]
            }
        }
        Node::Class { negated, ranges } => {
            if pos < chars.len() {
                let c = chars[pos];
                let inside = ranges.iter().any(|(lo, hi)| c >= *lo && c <= *hi);
                if inside != *negated {
                    vec![pos + 1]
                } else {
                    vec![]
                }
            } else {
                vec![]
            }
        }
        Node::Group(alternatives) => {
            let mut ends = Vec::new();
            for alt in alternatives {
                if let Some(end) = match_seq(alt, chars, pos) {
                    ends.push(end);
                }
                ends.extend(match_seq_all(alt, chars, pos));
            }
            ends.sort_unstable();
            ends.dedup();
            ends
        }
        Node::Star(inner) => repeat_matches(inner, chars, pos, 0),
        Node::Plus(inner) => repeat_matches(inner, chars, pos, 1),
        Node::Optional(inner) => {
            let mut ends = vec![pos];
            ends.extend(match_node(inner, chars, pos));
            ends.sort_unstable();
            ends.dedup();
            ends
        }
    }
}

fn repeat_matches(inner: &Node, chars: &[char], pos: usize, min: usize) -> Vec<usize> {
    let mut ends = Vec::new();
    let mut frontier = vec![pos];
    let mut count = 0usize;
    if min == 0 {
        ends.push(pos);
    }
    loop {
        let mut next = Vec::new();
        for p in &frontier {
            for end in match_node(inner, chars, *p) {
                if end > *p && !next.contains(&end) {
                    next.push(end);
                }
            }
        }
        if next.is_empty() {
            break;
        }
        count += 1;
        if count >= min {
            ends.extend(next.iter().copied());
        }
        frontier = next;
        if count > chars.len() + 1 {
            break;
        }
    }
    ends.sort_unstable();
    ends.dedup();
    ends
}

/// Returns every position the sequence can end at, starting from `pos`.
fn match_seq_all(nodes: &[Node], chars: &[char], pos: usize) -> Vec<usize> {
    let mut frontier = vec![pos];
    for node in nodes {
        let mut next = Vec::new();
        for p in &frontier {
            for end in match_node(node, chars, *p) {
                if !next.contains(&end) {
                    next.push(end);
                }
            }
        }
        if next.is_empty() {
            return vec![];
        }
        frontier = next;
    }
    frontier
}

/// Longest end position of a match of the node sequence at `pos`, if any.
fn match_seq(nodes: &[Node], chars: &[char], pos: usize) -> Option<usize> {
    match_seq_all(nodes, chars, pos).into_iter().max()
}

fn match_seq_to_end(nodes: &[Node], chars: &[char], pos: usize) -> bool {
    match_seq_all(nodes, chars, pos)
        .into_iter()
        .any(|end| end == chars.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cidr_v4_membership() {
        let c = Cidr::parse("128.122.0.0/16").unwrap();
        assert!(c.contains("128.122.1.2".parse().unwrap()));
        assert!(!c.contains("128.123.1.2".parse().unwrap()));
        assert!(!c.contains("::1".parse().unwrap()));
        assert_eq!(c.prefix_len(), 16);
    }

    #[test]
    fn cidr_single_address_and_zero_prefix() {
        let single = Cidr::parse("10.0.0.1").unwrap();
        assert!(single.contains("10.0.0.1".parse().unwrap()));
        assert!(!single.contains("10.0.0.2".parse().unwrap()));
        let all = Cidr::parse("0.0.0.0/0").unwrap();
        assert!(all.contains("203.0.113.7".parse().unwrap()));
    }

    #[test]
    fn cidr_v6() {
        let c = Cidr::parse("2001:db8::/32").unwrap();
        assert!(c.contains("2001:db8::1".parse().unwrap()));
        assert!(!c.contains("2001:db9::1".parse().unwrap()));
    }

    #[test]
    fn cidr_rejects_garbage() {
        assert!(Cidr::parse("not an ip").is_err());
        assert!(Cidr::parse("10.0.0.0/33").is_err());
        assert!(Cidr::parse("10.0.0.0/abc").is_err());
    }

    #[test]
    fn client_pattern_domain_suffix() {
        let p = ClientPattern::parse("nyu.edu").unwrap();
        let ip: IpAddr = "1.2.3.4".parse().unwrap();
        assert!(p.matches(ip, Some("cs.nyu.edu")));
        assert!(p.matches(ip, Some("NYU.EDU")));
        assert!(!p.matches(ip, Some("notnyu.edu")));
        assert!(!p.matches(ip, None));
    }

    #[test]
    fn client_pattern_cidr() {
        let p = ClientPattern::parse("192.168.0.0/24").unwrap();
        assert!(p.matches("192.168.0.9".parse().unwrap(), None));
        assert!(!p.matches("192.168.1.9".parse().unwrap(), None));
    }

    #[test]
    fn regex_literals_and_any() {
        let r = Regex::new("Nokia").unwrap();
        assert!(r.is_match("User-Agent: Nokia6600"));
        assert!(!r.is_match("Mozilla"));
        let r = Regex::new("a.c").unwrap();
        assert!(r.is_match("xxabcxx"));
        assert!(!r.is_match("ac"));
    }

    #[test]
    fn regex_repetition() {
        let r = Regex::new("ab*c").unwrap();
        assert!(r.is_match("ac"));
        assert!(r.is_match("abbbc"));
        assert!(!r.is_match("adc"));
        let r = Regex::new("ab+c").unwrap();
        assert!(!r.is_match("ac"));
        assert!(r.is_match("abc"));
        let r = Regex::new("colou?r").unwrap();
        assert!(r.is_match("color"));
        assert!(r.is_match("colour"));
    }

    #[test]
    fn regex_classes_and_escapes() {
        let r = Regex::new("[A-Z][a-z]+").unwrap();
        assert!(r.is_match("the Word here"));
        assert!(!r.is_match("nothing lower"));
        let r = Regex::new(r"\d+\.\d+").unwrap();
        assert!(r.is_match("version 1.25 beta"));
        assert!(!r.is_match("version x"));
        let r = Regex::new("[^0-9]+").unwrap();
        assert!(r.is_match("abc"));
        assert!(!r.is_match("123"));
    }

    #[test]
    fn regex_alternation_and_groups() {
        let r = Regex::new("(Nokia|SonyEricsson)/[0-9]+").unwrap();
        assert!(r.is_match("Nokia/6600"));
        assert!(r.is_match("SonyEricsson/910"));
        assert!(!r.is_match("Motorola/1"));
        let r = Regex::new("(ab)+c").unwrap();
        assert!(r.is_match("ababc"));
        assert!(!r.is_match("c"));
    }

    #[test]
    fn regex_anchors() {
        let r = Regex::new("^GET").unwrap();
        assert!(r.is_match("GET /path"));
        assert!(!r.is_match("FORGET /path"));
        let r = Regex::new("html$").unwrap();
        assert!(r.is_match("/index.html"));
        assert!(!r.is_match("/index.html.old"));
        let r = Regex::new("^exact$").unwrap();
        assert!(r.is_match("exact"));
        assert!(!r.is_match("inexact"));
    }

    #[test]
    fn regex_find_positions() {
        let r = Regex::new("[0-9]+").unwrap();
        assert_eq!(r.find("abc 123 def"), Some((4, 7)));
        assert_eq!(r.find("no digits"), None);
    }

    #[test]
    fn regex_rejects_malformed() {
        assert!(Regex::new("a[bc").is_err());
        assert!(Regex::new("(unclosed").is_err());
        assert!(Regex::new("*leading").is_err());
        assert!(Regex::new("trailing\\").is_err());
    }
}
