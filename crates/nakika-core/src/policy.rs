//! Policy objects and predicate-based event-handler selection (paper §3.1).
//!
//! A policy object associates a pair of `onRequest` / `onResponse` event
//! handlers with predicates over HTTP requests: lists of allowable resource
//! URLs (prefixes), client addresses (CIDR blocks or domain suffixes), HTTP
//! methods, and arbitrary headers (lightweight regular expressions).  Within
//! a list values are a disjunction; across properties a conjunction; a null
//! property is true.  When several policies of a stage match, the *closest*
//! match wins, with precedence given to resource URLs, then client
//! addresses, then methods, then headers.
//!
//! Two matchers are provided: a [`DecisionTree`] that mirrors the paper's
//! space-for-time structure (candidates are narrowed by the URL's host
//! components before scoring) and a [`LinearMatcher`] used as the ablation
//! baseline.

use nakika_http::pattern::{ClientPattern, Regex};
use nakika_http::{Method, Request};
use nakika_script::Value;
use std::collections::HashMap;
use std::sync::Arc;

/// A single policy: predicates plus event handlers.
#[derive(Clone)]
pub struct Policy {
    /// Allowable resource URL prefixes (`host[/path-prefix]`); empty = any.
    pub url: Vec<String>,
    /// Allowable client patterns (CIDR or domain suffix); empty = any.
    pub client: Vec<ClientPattern>,
    /// Allowable HTTP methods; empty = any.
    pub methods: Vec<Method>,
    /// Header predicates: `(header name, compiled pattern)`; all must match.
    pub headers: Vec<(String, Arc<Regex>)>,
    /// The `onRequest` handler (a script function value), if any.
    pub on_request: Option<Value>,
    /// The `onResponse` handler, if any.
    pub on_response: Option<Value>,
    /// URLs of additional pipeline stages to schedule after this stage.
    pub next_stages: Vec<String>,
    /// True when a handler of this policy might call a blocking vocabulary
    /// entry point (it mentions `Fetch` somewhere).  Computed once at
    /// registration by a conservative static analysis; see
    /// [`nakika_script::analysis::function_mentions_ident`].
    pub blocking_fetch: bool,
    /// True when the `onRequest` handler unconditionally generates a
    /// response (`Request.respond` / `Request.terminate` as a top-level
    /// statement), so a pipeline selecting it never reaches the origin.
    /// See [`nakika_script::analysis::function_always_calls`].
    pub always_generates: bool,
}

impl Policy {
    /// A policy with no predicates (matches everything) and no handlers.
    pub fn catch_all() -> Policy {
        Policy {
            url: Vec::new(),
            client: Vec::new(),
            methods: Vec::new(),
            headers: Vec::new(),
            on_request: None,
            on_response: None,
            next_stages: Vec::new(),
            blocking_fetch: false,
            always_generates: false,
        }
    }

    /// Evaluates the policy's predicates against a request.
    ///
    /// Returns `None` when a non-empty property fails to match; otherwise the
    /// match *specificity* used to pick the closest match.  The specificity
    /// encodes the paper's precedence: URL matches dominate client matches,
    /// which dominate method matches, which dominate header matches.  Within
    /// the URL dimension a longer matching prefix is more specific.
    pub fn matches(&self, request: &Request) -> Option<Specificity> {
        let mut spec = Specificity::default();

        if !self.url.is_empty() {
            let best = self
                .url
                .iter()
                .filter(|prefix| request.uri.matches_prefix(prefix))
                .map(|prefix| prefix.len())
                .max()?;
            spec.url = best as u32 + 1;
        }

        if !self.client.is_empty() {
            let domain = request.headers.get("x-client-domain").map(str::to_string);
            let best = self
                .client
                .iter()
                .filter(|p| p.matches(request.client_ip, domain.as_deref()))
                .map(|p| match p {
                    ClientPattern::Cidr(c) => c.prefix_len() as u32 + 1,
                    ClientPattern::Domain(d) => d.len() as u32 + 1,
                })
                .max()?;
            spec.client = best;
        }

        if !self.methods.is_empty() {
            if !self.methods.contains(&request.method) {
                return None;
            }
            spec.method = 1;
        }

        if !self.headers.is_empty() {
            for (name, pattern) in &self.headers {
                let value = request.headers.get(name)?;
                if !pattern.is_match(value) {
                    return None;
                }
            }
            spec.headers = self.headers.len() as u32;
        }

        Some(spec)
    }

    /// True if the policy carries no handlers and schedules nothing — a
    /// registration mistake worth reporting to script authors.
    pub fn is_inert(&self) -> bool {
        self.on_request.is_none() && self.on_response.is_none() && self.next_stages.is_empty()
    }
}

/// Match specificity, ordered by the paper's precedence rules.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Specificity {
    /// URL-prefix match length (+1), 0 when the policy has no URL predicate.
    pub url: u32,
    /// Client match strength, 0 when the policy has no client predicate.
    pub client: u32,
    /// 1 when a method predicate matched.
    pub method: u32,
    /// Number of matching header predicates.
    pub headers: u32,
}

impl PartialOrd for Specificity {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Specificity {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Lexicographic by precedence: URL, then client, then method, then
        // headers.
        (self.url, self.client, self.method, self.headers).cmp(&(
            other.url,
            other.client,
            other.method,
            other.headers,
        ))
    }
}

/// The set of policies registered by one pipeline-stage script.
#[derive(Clone, Default)]
pub struct PolicySet {
    policies: Vec<Arc<Policy>>,
}

impl PolicySet {
    /// Creates an empty set.
    pub fn new() -> PolicySet {
        PolicySet::default()
    }

    /// Adds a policy (in registration order).
    pub fn push(&mut self, policy: Policy) {
        self.policies.push(Arc::new(policy));
    }

    /// Number of registered policies.
    pub fn len(&self) -> usize {
        self.policies.len()
    }

    /// True when no policies are registered.
    pub fn is_empty(&self) -> bool {
        self.policies.is_empty()
    }

    /// The registered policies.
    pub fn policies(&self) -> &[Arc<Policy>] {
        &self.policies
    }

    /// Compiles the set into the decision-tree matcher.
    pub fn compile(&self) -> DecisionTree {
        DecisionTree::build(self)
    }
}

/// Interface shared by the decision-tree matcher and the linear baseline.
pub trait Matcher: Send + Sync {
    /// Returns the closest-matching policy for a request, if any matches.
    fn find_closest_match(&self, request: &Request) -> Option<Arc<Policy>>;
    /// Number of policies indexed.
    fn len(&self) -> usize;
    /// True if no policies are indexed.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Linear scan over all policies — the ablation baseline the paper's decision
/// tree improves on.
pub struct LinearMatcher {
    policies: Vec<Arc<Policy>>,
}

impl LinearMatcher {
    /// Builds a linear matcher over a policy set.
    pub fn build(set: &PolicySet) -> LinearMatcher {
        LinearMatcher {
            policies: set.policies.clone(),
        }
    }
}

impl Matcher for LinearMatcher {
    fn find_closest_match(&self, request: &Request) -> Option<Arc<Policy>> {
        best_of(self.policies.iter().enumerate(), request).map(|(_, p)| p.clone())
    }

    fn len(&self) -> usize {
        self.policies.len()
    }
}

/// A policy with the position it was registered at.
type Registered = (usize, Arc<Policy>);

/// The decision tree: policies are bucketed by the components of their URL
/// predicates' host names so that dynamic evaluation only scores the policies
/// that can possibly match the request's host (plus the host-agnostic ones).
///
/// The paper's implementation goes further (branching on path components,
/// client address and headers as well); bucketing on the host captures the
/// dominant fan-out in practice — a node hosts many sites, each registering
/// policies for its own URLs — and the measured effect (near-constant match
/// cost as the number of registered policies grows) is reproduced in the
/// ablation bench.
pub struct DecisionTree {
    /// host (lower-case, origin form) -> candidate policies.
    by_host: HashMap<String, Vec<Registered>>,
    /// Policies with no URL predicate: candidates for every request.
    host_agnostic: Vec<Registered>,
    total: usize,
}

impl DecisionTree {
    /// Builds the tree from a policy set.
    pub fn build(set: &PolicySet) -> DecisionTree {
        let mut by_host: HashMap<String, Vec<Registered>> = HashMap::new();
        let mut host_agnostic = Vec::new();
        for (position, policy) in set.policies.iter().enumerate() {
            let registered = (position, policy.clone());
            if policy.url.is_empty() {
                host_agnostic.push(registered);
                continue;
            }
            for prefix in &policy.url {
                let host = prefix
                    .split('/')
                    .next()
                    .unwrap_or(prefix)
                    .to_ascii_lowercase();
                if host.is_empty() {
                    // A path-only predicate ("/api/motd") names no host, so
                    // it is a candidate for every request; Policy::matches
                    // still applies the path prefix.
                    host_agnostic.push(registered);
                    break;
                }
                by_host.entry(host).or_default().push(registered.clone());
            }
        }
        DecisionTree {
            by_host,
            host_agnostic,
            total: set.policies.len(),
        }
    }

    /// Candidate policies for a request: those registered for any suffix of
    /// the request's host, plus the host-agnostic ones.
    fn candidates(&self, request: &Request) -> Vec<&Registered> {
        let host = request.uri.to_origin().host;
        let mut out: Vec<&Registered> = Vec::new();
        // Consider every domain suffix of the host ("a.b.c" -> "a.b.c",
        // "b.c", "c") because URL predicates may name a parent domain.
        let parts: Vec<&str> = host.split('.').collect();
        for start in 0..parts.len() {
            let suffix = parts[start..].join(".");
            if let Some(policies) = self.by_host.get(&suffix) {
                out.extend(policies.iter());
            }
        }
        out.extend(self.host_agnostic.iter());
        out
    }

    /// The closest-matching policy for a request and the position it was
    /// registered at in the set this tree was built from.
    pub fn closest(&self, request: &Request) -> Option<(usize, &Arc<Policy>)> {
        let candidates = self.candidates(request);
        best_of(candidates.into_iter().map(|(at, p)| (*at, p)), request)
    }
}

impl Matcher for DecisionTree {
    fn find_closest_match(&self, request: &Request) -> Option<Arc<Policy>> {
        self.closest(request).map(|(_, p)| p.clone())
    }

    fn len(&self) -> usize {
        self.total
    }
}

/// Scores candidates and returns the most specific match with its position;
/// ties go to the policy registered first (stable registration order).
fn best_of<'a>(
    policies: impl Iterator<Item = (usize, &'a Arc<Policy>)>,
    request: &Request,
) -> Option<(usize, &'a Arc<Policy>)> {
    let mut best: Option<(Specificity, (usize, &'a Arc<Policy>))> = None;
    for candidate in policies {
        if let Some(spec) = candidate.1.matches(request) {
            match &best {
                Some((best_spec, _)) if *best_spec >= spec => {}
                _ => best = Some((spec, candidate)),
            }
        }
    }
    best.map(|(_, candidate)| candidate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nakika_http::pattern::ClientPattern;
    use std::net::IpAddr;

    fn policy_with_url(prefixes: &[&str]) -> Policy {
        Policy {
            url: prefixes.iter().map(|s| s.to_string()).collect(),
            ..Policy::catch_all()
        }
    }

    fn req(url: &str) -> Request {
        Request::get(url)
    }

    #[test]
    fn url_prefix_disjunction() {
        let p = policy_with_url(&["med.nyu.edu", "medschool.pitt.edu"]);
        assert!(p.matches(&req("http://med.nyu.edu/simm/1")).is_some());
        assert!(p.matches(&req("http://medschool.pitt.edu/x")).is_some());
        assert!(p.matches(&req("http://harvard.edu/x")).is_none());
    }

    #[test]
    fn properties_are_a_conjunction() {
        let mut p = policy_with_url(&["med.nyu.edu"]);
        p.client = vec![ClientPattern::parse("10.0.0.0/8").unwrap()];
        let mut r = req("http://med.nyu.edu/x");
        r.client_ip = "10.1.2.3".parse::<IpAddr>().unwrap();
        assert!(p.matches(&r).is_some());
        r.client_ip = "192.168.0.1".parse::<IpAddr>().unwrap();
        assert!(p.matches(&r).is_none(), "URL matches but client does not");
    }

    #[test]
    fn null_properties_are_true() {
        let p = Policy::catch_all();
        assert_eq!(
            p.matches(&req("http://anything.example/")),
            Some(Specificity::default())
        );
        assert!(p.is_inert());
    }

    #[test]
    fn method_and_header_predicates() {
        let mut p = Policy::catch_all();
        p.methods = vec![Method::Post];
        assert!(p.matches(&req("http://a.com/")).is_none());
        let mut post = Request::new(Method::Post, "http://a.com/".parse().unwrap());
        assert!(p.matches(&post).is_some());

        p.headers = vec![(
            "User-Agent".to_string(),
            Arc::new(Regex::new("Nokia").unwrap()),
        )];
        assert!(p.matches(&post).is_none(), "header absent");
        post.headers.set("User-Agent", "Nokia6600/1.0");
        assert!(p.matches(&post).is_some());
        post.headers.set("User-Agent", "Mozilla/5.0");
        assert!(p.matches(&post).is_none());
    }

    #[test]
    fn client_domain_matching_via_header() {
        let mut p = Policy::catch_all();
        p.client = vec![ClientPattern::parse("nyu.edu").unwrap()];
        let mut r = req("http://med.nyu.edu/x");
        assert!(p.matches(&r).is_none());
        r.headers.set("X-Client-Domain", "dialup.cs.nyu.edu");
        assert!(p.matches(&r).is_some());
    }

    #[test]
    fn precedence_url_over_client_over_method() {
        let url_only = Specificity {
            url: 10,
            ..Default::default()
        };
        let client_only = Specificity {
            client: 33,
            ..Default::default()
        };
        let method_only = Specificity {
            method: 1,
            headers: 5,
            ..Default::default()
        };
        assert!(url_only > client_only);
        assert!(client_only > method_only);
        let longer_url = Specificity {
            url: 20,
            ..Default::default()
        };
        assert!(longer_url > url_only);
    }

    #[test]
    fn closest_match_prefers_longer_url_prefix() {
        let mut set = PolicySet::new();
        let mut site_wide = policy_with_url(&["bmj.bmjjournals.com"]);
        site_wide.on_request = Some(Value::Number(1.0)); // marker
        let mut reprints = policy_with_url(&["bmj.bmjjournals.com/cgi/reprint"]);
        reprints.on_request = Some(Value::Number(2.0)); // marker
        set.push(site_wide);
        set.push(reprints);
        let tree = set.compile();
        let m = tree
            .find_closest_match(&req("http://bmj.bmjjournals.com/cgi/reprint/article1"))
            .unwrap();
        assert_eq!(m.on_request, Some(Value::Number(2.0)));
        let m = tree
            .find_closest_match(&req("http://bmj.bmjjournals.com/about"))
            .unwrap();
        assert_eq!(m.on_request, Some(Value::Number(1.0)));
    }

    #[test]
    fn path_only_predicates_reach_every_host_through_the_tree() {
        let mut set = PolicySet::new();
        let mut api = policy_with_url(&["/api/"]);
        api.on_request = Some(Value::Number(1.0)); // marker
        set.push(api);
        let mut generic = Policy::catch_all();
        generic.on_request = Some(Value::Number(2.0)); // marker
        set.push(generic);
        let tree = set.compile();
        let m = tree
            .find_closest_match(&req("http://any.example.org/api/motd"))
            .unwrap();
        assert_eq!(m.on_request, Some(Value::Number(1.0)));
        let m = tree
            .find_closest_match(&req("http://any.example.org/page.html"))
            .unwrap();
        assert_eq!(m.on_request, Some(Value::Number(2.0)));
    }

    #[test]
    fn tree_and_linear_matchers_agree() {
        let mut set = PolicySet::new();
        for i in 0..50 {
            let mut p = policy_with_url(&[&format!("site{i}.example.org")]);
            p.on_request = Some(Value::Number(i as f64));
            set.push(p);
        }
        let mut generic = Policy::catch_all();
        generic.on_response = Some(Value::Number(999.0));
        set.push(generic);

        let tree = set.compile();
        let linear = LinearMatcher::build(&set);
        assert_eq!(tree.len(), 51);
        for i in [0usize, 7, 49] {
            let r = req(&format!("http://site{i}.example.org/page"));
            let a = tree.find_closest_match(&r).unwrap();
            let b = linear.find_closest_match(&r).unwrap();
            assert_eq!(a.on_request, b.on_request);
            assert_eq!(a.on_request, Some(Value::Number(i as f64)));
        }
        // A host nobody registered falls through to the catch-all.
        let r = req("http://unregistered.example.net/");
        assert_eq!(
            tree.find_closest_match(&r).unwrap().on_response,
            Some(Value::Number(999.0))
        );
    }

    #[test]
    fn nakika_suffixed_requests_match_origin_policies() {
        let mut set = PolicySet::new();
        let mut p = policy_with_url(&["med.nyu.edu"]);
        p.on_request = Some(Value::Number(1.0));
        set.push(p);
        let tree = set.compile();
        assert!(tree
            .find_closest_match(&req("http://med.nyu.edu.nakika.net/simm/1"))
            .is_some());
    }

    #[test]
    fn registration_order_breaks_ties() {
        let mut set = PolicySet::new();
        let mut first = policy_with_url(&["a.com"]);
        first.on_request = Some(Value::Number(1.0));
        let mut second = policy_with_url(&["a.com"]);
        second.on_request = Some(Value::Number(2.0));
        set.push(first);
        set.push(second);
        let m = set
            .compile()
            .find_closest_match(&req("http://a.com/"))
            .unwrap();
        assert_eq!(m.on_request, Some(Value::Number(1.0)));
    }

    #[test]
    fn no_match_returns_none() {
        let mut set = PolicySet::new();
        set.push(policy_with_url(&["only.example.com"]));
        assert!(set
            .compile()
            .find_closest_match(&req("http://other.example.net/"))
            .is_none());
        assert!(PolicySet::new().compile().is_empty());
    }
}
