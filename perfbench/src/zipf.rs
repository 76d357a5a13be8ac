//! `client-zipf`: `ServiceClient::invoke` called directly, with miss
//! coalescing, over Zipf-distributed keys of all three Google
//! operations. The key space is several times what the
//! byte-bounded cache holds, so about half the requests miss and pay for
//! serialization, the backend's parse and serialize, the XML scan and
//! the cache build and eviction.

use crate::check;
use crate::gen::{Rng, Zipf};
use crate::probe::{Replay, Shadow};
use crate::run::{self, Args, Outcome, Pacer, Part, Tally, BUDGET_EVERY};
use crate::stack::{self, CacheConfig};
use crate::trace;
use wsrc_cache::{Capacity, KeyStrategy};
use wsrc_client::{Disposition, ServiceClient};
use wsrc_model::Value;
use wsrc_services::google::{self, data::Corpus};
use wsrc_soap::rpc::RpcRequest;

/// Keys per operation; the three operations together give the key space.
const KEYS_PER_OP: usize = 1_500;

/// Zipf exponent over the whole key space.
const ZIPF_S: f64 = 0.9;

/// The cache's byte budget: a fraction of what the whole key space would
/// take, so the cache evicts at steady state.
const MAX_BYTES: usize = 3 << 20;

/// Requests of the warm-up stream, enough to fill the budget several
/// times over before timing starts.
const WARM_REQUESTS: usize = 12_000;

/// One call-by-copy check per this many hits of a caller.
const COPY_CHECK_EVERY: u64 = 64;

fn config() -> CacheConfig {
    CacheConfig {
        capacity: Capacity {
            max_entries: 100_000,
            max_bytes: MAX_BYTES,
        },
        key_strategy: KeyStrategy::Auto,
        coalesce: true,
    }
}

/// The key space of a seed, indexed by popularity rank, with the digest
/// of the corpus answer for each key. Ranks cycle through the three
/// operations, so every seed mixes them in the same proportions at every
/// popularity level; the seed picks the parameters.
pub struct Keys {
    pub requests: Vec<RpcRequest>,
    pub expected: Vec<u64>,
}

impl Keys {
    pub fn new(seed: u64) -> Keys {
        let corpus = Corpus::default();
        let tag = Rng::new(seed, 0x2e75).next_u64() >> 40;
        let (requests, expected) = (0..3 * KEYS_PER_OP)
            .map(|rank| {
                let i = rank / 3;
                let (request, answer) = match rank % 3 {
                    0 => {
                        let phrase = format!("speling {tag:x} {i}");
                        (
                            RpcRequest::new(google::NAMESPACE, "doSpellingSuggestion")
                                .with_param("key", "demo-key")
                                .with_param("phrase", phrase.as_str()),
                            corpus.spelling_suggestion(&phrase),
                        )
                    }
                    1 => {
                        let url = format!("http://s{tag:x}.test/page/{i}");
                        (
                            RpcRequest::new(google::NAMESPACE, "doGetCachedPage")
                                .with_param("key", "demo-key")
                                .with_param("url", url.as_str()),
                            Value::Bytes(corpus.cached_page(&url)),
                        )
                    }
                    _ => {
                        let q = format!("z-{tag:x}-{i}");
                        (
                            crate::portal::search_request(&q),
                            Value::Struct(corpus.search_result(&q, 0, 10)),
                        )
                    }
                };
                (request, check::value_digest(&answer))
            })
            .unzip();
        Keys { requests, expected }
    }

    pub fn len(&self) -> usize {
        self.requests.len()
    }
}

/// One caller's key sequence: Zipf ranks drawn from its own stream.
pub fn key_stream(seed: u64, caller: usize, zipf: &Zipf) -> impl Iterator<Item = usize> + '_ {
    let mut rng = Rng::new(seed, 0x21bf + caller as u64);
    std::iter::repeat_with(move || zipf.sample(&mut rng))
}

pub fn run(args: &Args) -> Outcome {
    let seed = args.seed;
    let keys = Keys::new(seed);
    let zipf = Zipf::new(keys.len(), ZIPF_S);
    let warm_keys: Vec<usize> = key_stream(seed, run::CALLERS, &zipf)
        .take(WARM_REQUESTS)
        .collect();

    let build = || {
        let stack = stack::in_proc(&config());
        for &k in &warm_keys {
            let _ = stack.client.invoke(&keys.requests[k]);
        }
        stack
    };
    let (stack, first_setup_s) = run::timed(build);
    let shadow = args.trace.then(|| {
        trace::enable();
        let pages = warm_keys
            .iter()
            .filter_map(|&k| search_query(&keys.requests[k]).map(String::from));
        let shadow = Shadow::new(&config()).with_wire(&config(), pages);
        for &k in &warm_keys {
            shadow.probe(0, &keys.requests[k], Replay::Layers);
        }
        trace::take_all();
        shadow
    });

    let measured = run::timed_phase(
        args,
        false,
        &stack.cache,
        MAX_BYTES,
        &stack.backend,
        |c, pace, t| {
            caller(
                &stack.client,
                shadow.as_ref(),
                &keys,
                key_stream(seed, c, &zipf),
                c,
                pace,
                t,
            );
        },
    );
    drop(stack);
    let setup_s = if args.trace {
        first_setup_s
    } else {
        run::median_setup_s(first_setup_s, build)
    };
    measured.outcome(args, 0, "client.invoke", setup_s)
}

fn caller(
    client: &ServiceClient,
    shadow: Option<&Shadow>,
    keys: &Keys,
    stream: impl Iterator<Item = usize>,
    c: usize,
    pace: &mut Pacer,
    t: &mut Tally,
) {
    let mut hits_seen = 0u64;
    let mut prev = None;
    for (n, k) in stream.enumerate() {
        if pace.next().is_none() {
            break;
        }
        let request = &keys.requests[k];
        let rid = trace::request_id(c, n, false);
        let t0 = trace::now();
        let result = if shadow.is_some() {
            trace::span_with(
                rid,
                0,
                || client.invoke(request),
                |r| {
                    let hit = matches!(r, Ok((_, Disposition::CacheHit)));
                    ("client.invoke", rid | hit as u64)
                },
            )
        } else {
            client.invoke(request)
        };
        let t1 = trace::now();
        let hits_before = t.hits.len();
        t.attempted += 1;
        let ok = match result {
            Ok((handle, disposition)) => {
                let right = check::value_digest(handle.as_value()) == keys.expected[k];
                match disposition {
                    Disposition::CacheHit => {
                        t.record(Part::Both, true, t0, t1);
                        hits_seen += 1;
                        let copy_ok = !hits_seen.is_multiple_of(COPY_CHECK_EVERY)
                            || copy_check(
                                client,
                                request,
                                keys.expected[k],
                                handle.into_value(),
                                t,
                            );
                        right && copy_ok
                    }
                    Disposition::CacheMiss => {
                        t.record(Part::Both, false, t0, t1);
                        t.expected_backend += 1;
                        right
                    }
                    Disposition::Uncached | Disposition::Revalidated => false,
                }
            }
            Err(_) => false,
        };
        if !ok {
            t.failed += 1;
        }
        if t.attempted.is_multiple_of(BUDGET_EVERY)
            && client.cache().is_some_and(|c| c.bytes() > MAX_BYTES)
        {
            t.budget_exceeded = true;
        }
        if let Some(shadow) = shadow {
            // Replay the previous request (see `probe`), cycling through
            // the kinds of replay within each outcome.
            let hit = t.hits.len() > hits_before;
            let seen = if hit { hits_seen } else { t.expected_backend };
            if let Some((prev_rid, prev_k, seen)) = prev.replace((rid | hit as u64, k, seen)) {
                let prev_request = &keys.requests[prev_k];
                let replay = Replay::cycle(seen, search_query(prev_request));
                shadow.probe(prev_rid, prev_request, replay);
            }
        }
    }
}

/// The query of a `doGoogleSearch` request, which has a portal page.
fn search_query(request: &RpcRequest) -> Option<&str> {
    (request.operation == "doGoogleSearch")
        .then(|| request.param("q").and_then(Value::as_str))
        .flatten()
}

/// Call-by-copy: mutate the object a hit returned, then read the key
/// again; the answer must still be the corpus's. The second read counts
/// toward the backend requests when it misses.
fn copy_check(
    client: &ServiceClient,
    request: &RpcRequest,
    want: u64,
    mut owned: Value,
    t: &mut Tally,
) -> bool {
    check::mutate(&mut owned);
    match client.invoke(request) {
        Ok((again, disposition)) => {
            if disposition == Disposition::CacheMiss {
                t.expected_backend += 1;
            }
            check::value_digest(again.as_value()) == want
        }
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::Pace;

    #[test]
    fn keys_and_streams_follow_the_seed() {
        let a = Keys::new(11);
        let b = Keys::new(11);
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.expected, b.expected);
        assert_ne!(a.requests, Keys::new(12).requests);
        let zipf = Zipf::new(a.len(), ZIPF_S);
        let s1: Vec<_> = key_stream(11, 0, &zipf).take(1_000).collect();
        let s2: Vec<_> = key_stream(11, 0, &zipf).take(1_000).collect();
        assert_eq!(s1, s2);
        assert_ne!(s1, key_stream(11, 1, &zipf).take(1_000).collect::<Vec<_>>());
        let ops: std::collections::HashSet<_> =
            a.requests.iter().map(|r| r.operation.as_str()).collect();
        assert_eq!(ops.len(), 3);
    }

    /// On a short run from a cold cache, the `CacheMiss` dispositions
    /// match the backend's request count and every value checks out.
    #[test]
    fn dispositions_match_backend_counts() {
        let keys = Keys::new(5);
        let zipf = Zipf::new(keys.len(), ZIPF_S);
        let stack = stack::in_proc(&config());
        let mut t = Tally::new();
        let stream = key_stream(5, 0, &zipf).take(1_500);
        let pace = Pace::new(trace::now(), 3_600, false);
        caller(
            &stack.client,
            None,
            &keys,
            stream,
            0,
            &mut pace.caller(),
            &mut t,
        );
        assert_eq!((t.attempted, t.failed), (1_500, 0));
        assert!(!t.hits.is_empty() && !t.misses.is_empty());
        assert_eq!(stack.backend.calls(), t.expected_backend);
        assert!(stack.cache.bytes() <= MAX_BYTES);
    }
}
