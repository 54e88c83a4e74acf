//! Case-insensitive, order-preserving HTTP header map.
//!
//! A map is one `String` holding every name and value back to back, plus
//! one span of three offsets per field.  However many fields it holds, a map
//! costs two allocations, and a clone copies exactly the live bytes — which
//! is what a shared cache holding thousands of stored heads pays for.

use std::fmt;

/// Where one field lives in `Headers::text`: the name is
/// `text[name..value]`, the value `text[value..end]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Span {
    name: u32,
    value: u32,
    end: u32,
}

/// An ordered multimap of HTTP headers.
///
/// Header names are matched ASCII case-insensitively (per RFC 9110) while the
/// original spelling and the insertion order are preserved, which matters for
/// proxies that must forward messages faithfully.
///
/// Every writer goes through [`Headers::append`] or [`Headers::set`], which
/// refuse a name that is not an RFC 9110 token and a value containing CR, LF
/// or NUL (§5.5), so no field can split the message it is serialized into.
///
/// Invariant: `text` is exactly the live fields' names and values,
/// concatenated in order, so the derived `Clone` and `PartialEq` are exact.
#[derive(Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Headers {
    text: String,
    spans: Vec<Span>,
}

/// True if `name` is an RFC 9110 §5.6.2 token: one or more `tchar`s.
fn is_token(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&b))
}

impl Headers {
    /// Creates an empty header map.
    pub fn new() -> Headers {
        Headers::default()
    }

    /// Creates an empty map with room for `fields` fields whose names and
    /// values total `text_bytes`.
    pub fn with_capacity(fields: usize, text_bytes: usize) -> Headers {
        Headers {
            text: String::with_capacity(text_bytes),
            spans: Vec::with_capacity(fields),
        }
    }

    /// Number of header entries (counting duplicates separately).
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True if there are no headers.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Returns the first value for `name`, if any.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v)
    }

    /// Returns all values for `name` in insertion order.
    pub fn get_all(&self, name: &str) -> Vec<&str> {
        self.iter()
            .filter(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v)
            .collect()
    }

    /// True if a header with this name exists.
    pub fn contains(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// True if `name: value` may be stored: see [`Headers`].  Offsets are
    /// `u32`, so a field that would take the map past 4 GiB is refused too.
    fn accepts(&self, name: &str, value: &str) -> bool {
        is_token(name)
            && !value.bytes().any(|b| matches!(b, b'\r' | b'\n' | 0))
            && u32::try_from(self.text.len() + name.len() + value.len()).is_ok()
    }

    /// Stores a field [`accepts`](Self::accepts) has passed.
    fn push(&mut self, name: &str, value: &str) {
        let start = self.text.len();
        self.text.push_str(name);
        self.text.push_str(value);
        self.spans.push(Span {
            name: start as u32,
            value: (start + name.len()) as u32,
            end: self.text.len() as u32,
        });
    }

    /// Appends a header, keeping any existing values for the same name.
    /// Returns false, and stores nothing, if the field is refused (see
    /// [`Headers`]).
    pub fn append(&mut self, name: impl AsRef<str>, value: impl AsRef<str>) -> bool {
        let (name, value) = (name.as_ref(), value.as_ref());
        if !self.accepts(name, value) {
            return false;
        }
        self.push(name, value);
        true
    }

    /// Sets a header, replacing all existing values for the same name.
    /// Returns false, and changes nothing, if the field is refused.
    ///
    /// This is the operation exposed to scripts as `Response.setHeader` in the
    /// paper's Figure 2.
    pub fn set(&mut self, name: impl AsRef<str>, value: impl AsRef<str>) -> bool {
        let (name, value) = (name.as_ref(), value.as_ref());
        if !self.accepts(name, value) {
            return false;
        }
        self.remove(name);
        self.push(name, value);
        true
    }

    /// Removes all values for `name`, returning how many were removed.
    ///
    /// When `name` is absent this only reads; otherwise it compacts the
    /// map in place, without reallocating.
    pub fn remove(&mut self, name: &str) -> usize {
        if !self.contains(name) {
            return 0;
        }
        let before = self.spans.len();
        let text = &mut self.text;
        // Bytes cut so far: every later field moves down by this much.
        let mut cut = 0;
        self.spans.retain_mut(|span| {
            span.name -= cut;
            span.value -= cut;
            span.end -= cut;
            let (start, end) = (span.name as usize, span.end as usize);
            if !text[start..span.value as usize].eq_ignore_ascii_case(name) {
                return true;
            }
            text.drain(start..end);
            cut += span.end - span.name;
            false
        });
        before - self.spans.len()
    }

    /// Iterates over `(name, value)` pairs in insertion order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            text: &self.text,
            spans: self.spans.iter(),
        }
    }

    /// Returns the value of `Content-Length` parsed as an integer, if present
    /// and valid.
    pub fn content_length(&self) -> Option<usize> {
        self.get("content-length")
            .and_then(|v| v.trim().parse().ok())
    }

    /// Returns the value of `Content-Type`, if present (without parameters).
    pub fn content_type(&self) -> Option<&str> {
        self.get("content-type")
            .map(|v| v.split(';').next().unwrap_or(v).trim())
    }

    /// True if the message uses chunked transfer encoding.
    pub fn is_chunked(&self) -> bool {
        self.get("transfer-encoding")
            .map(|v| v.to_ascii_lowercase().contains("chunked"))
            .unwrap_or(false)
    }

    /// True if the connection should be kept alive after this message,
    /// given the HTTP version in use.
    pub fn keep_alive(&self, version_11: bool) -> bool {
        match self.get("connection").map(|v| v.to_ascii_lowercase()) {
            Some(v) if v.contains("close") => false,
            Some(v) if v.contains("keep-alive") => true,
            _ => version_11,
        }
    }

    /// Extracts cookie pairs from all `Cookie` headers.
    ///
    /// The paper's vocabularies expose cookie access to scripts; this is the
    /// parsing backend.
    pub fn cookies(&self) -> Vec<(String, String)> {
        let mut out = Vec::new();
        for value in self.get_all("cookie") {
            for pair in value.split(';') {
                let pair = pair.trim();
                if let Some(eq) = pair.find('=') {
                    out.push((
                        pair[..eq].trim().to_string(),
                        pair[eq + 1..].trim().to_string(),
                    ));
                } else if !pair.is_empty() {
                    out.push((pair.to_string(), String::new()));
                }
            }
        }
        out
    }
}

/// Borrowing iterator over a map's `(name, value)` pairs, in order.
pub struct Iter<'a> {
    text: &'a str,
    spans: std::slice::Iter<'a, Span>,
}

impl<'a> Iterator for Iter<'a> {
    type Item = (&'a str, &'a str);

    fn next(&mut self) -> Option<Self::Item> {
        let span = self.spans.next()?;
        let (name, value, end) = (span.name as usize, span.value as usize, span.end as usize);
        Some((&self.text[name..value], &self.text[value..end]))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.spans.size_hint()
    }
}

impl<'a> IntoIterator for &'a Headers {
    type Item = (&'a str, &'a str);
    type IntoIter = Iter<'a>;
    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl fmt::Debug for Headers {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl fmt::Display for Headers {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, value) in self {
            writeln!(f, "{name}: {value}")?;
        }
        Ok(())
    }
}

impl FromIterator<(String, String)> for Headers {
    fn from_iter<T: IntoIterator<Item = (String, String)>>(iter: T) -> Self {
        let mut h = Headers::new();
        for (k, v) in iter {
            h.append(k, v);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_insensitive_lookup() {
        let mut h = Headers::new();
        h.append("Content-Type", "text/html");
        assert_eq!(h.get("content-type"), Some("text/html"));
        assert_eq!(h.get("CONTENT-TYPE"), Some("text/html"));
        assert!(h.contains("Content-type"));
    }

    #[test]
    fn set_replaces_append_accumulates() {
        let mut h = Headers::new();
        h.append("X-A", "1");
        h.append("x-a", "2");
        assert_eq!(h.get_all("X-A"), vec!["1", "2"]);
        h.set("X-A", "3");
        assert_eq!(h.get_all("X-A"), vec!["3"]);
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn remove_counts() {
        let mut h = Headers::new();
        h.append("A", "1");
        h.append("a", "2");
        h.append("B", "3");
        assert_eq!(h.remove("A"), 2);
        assert_eq!(h.len(), 1);
        assert_eq!(h.remove("A"), 0);
    }

    #[test]
    fn content_length_and_type() {
        let mut h = Headers::new();
        h.set("Content-Length", " 42 ");
        h.set("Content-Type", "image/jpeg; q=1");
        assert_eq!(h.content_length(), Some(42));
        assert_eq!(h.content_type(), Some("image/jpeg"));
        h.set("Content-Length", "abc");
        assert_eq!(h.content_length(), None);
    }

    #[test]
    fn chunked_detection() {
        let mut h = Headers::new();
        assert!(!h.is_chunked());
        h.set("Transfer-Encoding", "gzip, Chunked");
        assert!(h.is_chunked());
    }

    #[test]
    fn keep_alive_defaults() {
        let mut h = Headers::new();
        assert!(h.keep_alive(true));
        assert!(!h.keep_alive(false));
        h.set("Connection", "close");
        assert!(!h.keep_alive(true));
        h.set("Connection", "keep-alive");
        assert!(h.keep_alive(false));
    }

    #[test]
    fn cookie_parsing() {
        let mut h = Headers::new();
        h.append("Cookie", "session=abc; user=bob");
        h.append("Cookie", "flag");
        let cookies = h.cookies();
        assert_eq!(cookies.len(), 3);
        assert_eq!(cookies[0], ("session".to_string(), "abc".to_string()));
        assert_eq!(cookies[1], ("user".to_string(), "bob".to_string()));
        assert_eq!(cookies[2], ("flag".to_string(), String::new()));
    }

    #[test]
    fn refuses_fields_that_could_split_a_message() {
        let mut h = Headers::new();
        assert!(h.append("X-A", "kept"));
        for value in ["a\r\nSet-Cookie: x", "a\nb", "a\rb", "a\0b"] {
            assert!(!h.append("X-B", value), "{value:?}");
            assert!(!h.set("X-A", value), "{value:?}");
        }
        for name in ["", "X A", "X-A:", "X\r\nB", "Ü"] {
            assert!(!h.append(name, "v"), "{name:?}");
        }
        assert_eq!(h.iter().collect::<Vec<_>>(), vec![("X-A", "kept")]);
        assert!(h.set("x-a", "tab\tand obs-text é are fine"));
    }

    #[test]
    fn remove_compacts_to_what_appending_the_survivors_builds() {
        let mut h = Headers::new();
        for (name, value) in [
            ("A", "1"),
            ("Via", "x"),
            ("B", "22"),
            ("via", "y"),
            ("C", ""),
        ] {
            h.append(name, value);
        }
        let capacity = h.text.capacity();
        assert_eq!(h.remove("VIA"), 2);
        assert_eq!(h.text.capacity(), capacity);
        let mut expected = Headers::new();
        for (name, value) in [("A", "1"), ("B", "22"), ("C", "")] {
            expected.append(name, value);
        }
        assert_eq!(h, expected);
        assert_eq!(h.text, "A1B22C");
        assert_eq!(h.get("c"), Some(""));
        assert_eq!(h.clone(), expected);
    }

    #[test]
    fn display_and_iteration_order() {
        let mut h = Headers::new();
        h.append("B", "2");
        h.append("A", "1");
        let pairs: Vec<_> = h.iter().collect();
        assert_eq!(pairs, vec![("B", "2"), ("A", "1")]);
        assert_eq!(h.to_string(), "B: 2\nA: 1\n");
    }
}
