//! Correctness checks computed apart from the caching path: expected
//! answers come from the service's own `Corpus`, never from a response
//! the stack produced, and never from a stored copy of earlier output.

use wsrc_model::Value;
use wsrc_services::google::data::Corpus;

/// A fast 64-bit digest (word-at-a-time multiply-rotate). Comparing
/// digests stands in for comparing whole values so that the callers'
/// per-request checks stay cheap next to the calls they check.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0x243f_6a88_85a3_08d3)
    }

    fn mix(&mut self, word: u64) {
        self.0 = (self.0 ^ word)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(29);
    }

    pub fn bytes(&mut self, data: &[u8]) -> &mut Digest {
        let mut chunks = data.chunks_exact(8);
        for c in &mut chunks {
            self.mix(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let mut tail = [0u8; 8];
        tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
        self.mix(u64::from_le_bytes(tail));
        self.mix(data.len() as u64);
        self
    }

    pub fn word(&mut self, w: u64) -> &mut Digest {
        self.mix(w);
        self
    }

    pub fn finish(&self) -> u64 {
        let mut z = self.0;
        z = (z ^ (z >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
        z ^ (z >> 33)
    }
}

/// Digest of a whole value tree: variant tags, struct type and field
/// names, and every payload.
pub fn value_digest(value: &Value) -> u64 {
    fn walk(d: &mut Digest, v: &Value) {
        match v {
            Value::Null => {
                d.word(1);
            }
            Value::Bool(b) => {
                d.word(2).word(*b as u64);
            }
            Value::Int(i) => {
                d.word(3).word(*i as u64);
            }
            Value::Long(l) => {
                d.word(4).word(*l as u64);
            }
            Value::Double(x) => {
                d.word(5).word(x.to_bits());
            }
            Value::String(s) => {
                d.word(6).bytes(s.as_bytes());
            }
            Value::Bytes(b) => {
                d.word(7).bytes(b);
            }
            Value::Array(items) => {
                d.word(8).word(items.len() as u64);
                for item in items {
                    walk(d, item);
                }
            }
            Value::Struct(s) => {
                d.word(9).bytes(s.type_name().as_bytes());
                for (name, field) in s.fields() {
                    d.bytes(name.as_bytes());
                    walk(d, field);
                }
            }
        }
    }
    let mut d = Digest::new();
    walk(&mut d, value);
    d.finish()
}

/// Digest of a list of (URL, title) pairs in order.
fn pairs_digest<'a>(pairs: impl Iterator<Item = (&'a str, &'a str)>) -> u64 {
    let mut d = Digest::new();
    let mut n = 0u64;
    for (url, title) in pairs {
        d.bytes(url.as_bytes()).bytes(title.as_bytes());
        n += 1;
    }
    d.word(n).finish()
}

/// Undoes the five predefined XML entities the page writer may emit.
fn unescape(s: &str) -> std::borrow::Cow<'_, str> {
    if !s.contains('&') {
        return s.into();
    }
    s.replace("&lt;", "<")
        .replace("&gt;", ">")
        .replace("&quot;", "\"")
        .replace("&apos;", "'")
        .replace("&#39;", "'")
        .replace("&amp;", "&")
        .into()
}

/// Digest of the result links of a portal page: every
/// `<li><a href="URL">title</a>` in document order. `None` when the page
/// does not have exactly ten of them.
pub fn page_digest(html: &str) -> Option<u64> {
    const OPEN: &str = "<li><a href=\"";
    let mut pairs: Vec<(std::borrow::Cow<'_, str>, std::borrow::Cow<'_, str>)> =
        Vec::with_capacity(10);
    let mut rest = html;
    while let Some(at) = rest.find(OPEN) {
        rest = &rest[at + OPEN.len()..];
        let (url, after) = rest.split_once("\">")?;
        let (title, after) = after.split_once("</a>")?;
        pairs.push((unescape(url), unescape(title)));
        rest = after;
    }
    (pairs.len() == 10).then(|| pairs_digest(pairs.iter().map(|(u, t)| (&**u, &**t))))
}

/// The page digest the corpus predicts for query `q`: the URLs and
/// titles of `Corpus::default().search_result(q, 0, 10)`.
pub fn expected_page_digest(q: &str) -> u64 {
    let result = Corpus::default().search_result(q, 0, 10);
    let elements = result
        .get("resultElements")
        .and_then(Value::as_array)
        .unwrap_or(&[]);
    let pairs = elements.iter().filter_map(|e| {
        let e = e.as_struct()?;
        Some((e.get("URL")?.as_str()?, e.get("title")?.as_str()?))
    });
    pairs_digest(pairs)
}

/// Changes an owned value in place, so a later read of the same cache
/// key shows whether the cache handed out its own copy.
pub fn mutate(value: &mut Value) {
    match value {
        Value::String(s) => *s = format!("{s}#mutated").into(),
        Value::Bytes(b) => b.push(b'!'),
        Value::Array(items) => items.clear(),
        Value::Struct(s) => {
            let names: Vec<String> = s.fields().map(|(n, _)| n.to_string()).collect();
            for name in names {
                s.set(name, Value::Null);
            }
        }
        other => *other = Value::Null,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use wsrc_cache::{KeyStrategy, ResponseCache};
    use wsrc_client::ServiceClient;
    use wsrc_http::{Handler, InProcTransport, Request, Url};
    use wsrc_portal::PortalSite;
    use wsrc_services::google::{self, GoogleService};
    use wsrc_services::SoapDispatcher;

    #[test]
    fn digests_separate_values() {
        let corpus = Corpus::default();
        let a = Value::Struct(corpus.search_result("a", 0, 10));
        let b = Value::Struct(corpus.search_result("b", 0, 10));
        assert_eq!(value_digest(&a), value_digest(&a.clone()));
        assert_ne!(value_digest(&a), value_digest(&b));
        let mut m = a.clone();
        mutate(&mut m);
        assert_ne!(value_digest(&a), value_digest(&m));
        assert_ne!(value_digest(&Value::Int(1)), value_digest(&Value::Long(1)));
    }

    #[test]
    fn a_real_portal_page_matches_the_corpus() {
        let dispatcher = SoapDispatcher::new().mount(google::PATH, Arc::new(GoogleService::new()));
        let cache = ResponseCache::builder(google::registry())
            .policy(google::default_policy())
            .key_strategy(KeyStrategy::ToString)
            .build();
        let client = ServiceClient::builder(
            Url::new("backend.test", 80, google::PATH),
            Arc::new(InProcTransport::new(Arc::new(dispatcher))),
        )
        .registry(google::registry())
        .operations(google::operations())
        .cache(Arc::new(cache))
        .build();
        let site = PortalSite::new(Arc::new(client));
        for q in ["hot-1f-3", "u-7-c0-12"] {
            let page = site.handle(&Request::get(format!("/portal?q={q}")));
            let html = page.body_text().unwrap();
            assert_eq!(page_digest(html), Some(expected_page_digest(q)), "{q}");
            assert_ne!(page_digest(html), Some(expected_page_digest("other")));
        }
        assert_eq!(page_digest("<html>no results</html>"), None);
    }
}
