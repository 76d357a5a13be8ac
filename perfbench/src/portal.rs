//! `portal-hot`: `PortalSite::handle` called in process, 95 % of the
//! time with a warmed hot query (a hit) and otherwise with a query nobody
//! has sent (a miss). The schedule decides hit or miss; the backend's
//! request count checks that it was right.

use crate::check;
use crate::gen::{self, PortalQuery, PortalSchedule};
use crate::probe::{Replay, Shadow};
use crate::run::{self, Args, Outcome, Pacer, Tally, BUDGET_EVERY};
use crate::stack::{self, CacheConfig};
use crate::trace;
use std::collections::HashMap;
use std::sync::Arc;
use wsrc_cache::{Capacity, KeyStrategy, ResponseCache};
use wsrc_client::{Disposition, ServiceClient};
use wsrc_http::{Handler, Request, Response, Status};
use wsrc_model::Value;
use wsrc_portal::PortalSite;
use wsrc_services::google::{self, data::Corpus};
use wsrc_soap::rpc::RpcRequest;

/// Hot queries: all of them fit the cache together with the unique
/// queries in flight, so a hot query never leaves it.
const HOT: usize = 128;

/// Entry budget of the portal cache: the hot set plus room for unique
/// queries, so the cache fills and then evicts one unique entry per miss.
const MAX_ENTRIES: usize = 1024;

/// Byte budget: far above what `MAX_ENTRIES` search results take, so
/// the entry budget is the one that binds and `cache_mib` follows the
/// size of each entry.
const MAX_BYTES: usize = 64 << 20;

/// One call-by-copy check per this many hot requests of a caller.
const COPY_CHECK_EVERY: u64 = 256;

/// The share of requests that repeat a hot query.
const HIT_RATIO: f64 = 0.95;

fn config() -> CacheConfig {
    CacheConfig {
        capacity: Capacity {
            max_entries: MAX_ENTRIES,
            max_bytes: MAX_BYTES,
        },
        key_strategy: KeyStrategy::ToString,
        coalesce: false,
    }
}

/// The `doGoogleSearch` call the portal makes for `q`.
pub fn search_request(q: &str) -> RpcRequest {
    RpcRequest::new(google::NAMESPACE, "doGoogleSearch")
        .with_param("key", "demo-key")
        .with_param("q", q)
        .with_param("start", 0)
        .with_param("maxResults", 10)
        .with_param("filter", true)
        .with_param("restrict", "")
        .with_param("safeSearch", false)
        .with_param("lr", "")
        .with_param("ie", "utf-8")
        .with_param("oe", "utf-8")
}

/// The stack under test: portal, caching client, in-process backend.
struct Stack {
    site: PortalSite,
    backend: Arc<stack::Backend>,
    cache: Arc<ResponseCache>,
}

impl Stack {
    fn build() -> Stack {
        let s = stack::in_proc(&config());
        Stack {
            site: PortalSite::new(s.client),
            backend: s.backend,
            cache: s.cache,
        }
    }

    fn client(&self) -> &Arc<ServiceClient> {
        self.site.client()
    }

    fn fetch(&self, q: &str) -> Response {
        self.site.handle(&Request::get(format!("/portal?q={q}")))
    }
}

/// Requests of the warm-up's hot and unique mix. Filling the entry
/// budget once makes the cache evict on every miss, but the heap keeps
/// changing for some thousands of misses more: after a warm-up of 2,048
/// requests, requests per second fell by a third over the first six
/// seconds of load and then held. With this many, the rate holds from
/// the start.
const WARM_REQUESTS: usize = 12 * MAX_ENTRIES;

/// The warm-up sequence: every hot query once, then a 50/50 mix of hot
/// and unique queries.
fn warm_sequence(seed: u64, hot: &[String]) -> impl Iterator<Item = String> + '_ {
    hot.iter().cloned().chain(
        PortalSchedule::new(seed, run::CALLERS, 0.5, hot)
            .take(WARM_REQUESTS)
            .map(|q| q.text),
    )
}

fn warm(stack: &Stack, seed: u64, hot: &[String]) {
    for q in warm_sequence(seed, hot) {
        stack.fetch(&q);
    }
}

/// For each hot query, the corpus's page digest and value digest.
type Expected = HashMap<String, (u64, u64)>;

fn expected_hot(hot: &[String]) -> Expected {
    let corpus = Corpus::default();
    hot.iter()
        .map(|q| {
            let value = Value::Struct(corpus.search_result(q, 0, 10));
            let digests = (check::expected_page_digest(q), check::value_digest(&value));
            (q.clone(), digests)
        })
        .collect()
}

pub fn run(args: &Args) -> Outcome {
    let seed = args.seed;
    let hot = gen::hot_queries(seed, HOT);
    let expected_hot = expected_hot(&hot);

    let build = || {
        let stack = Stack::build();
        warm(&stack, seed, &hot);
        stack
    };
    let (stack, first_setup_s) = run::timed(build);
    let shadow = args.trace.then(|| {
        trace::enable();
        let shadow = Shadow::new(&config()).with_wire(&config(), warm_sequence(seed, &hot));
        for q in warm_sequence(seed, &hot) {
            shadow.probe(0, &search_request(&q), Replay::Layers);
        }
        trace::take_all();
        shadow
    });

    // The two callers contend on the shared cache and metrics, so the
    // untimed run measures throughput free-running and latency in
    // lockstep (see `Pace`). Traced runs replay other requests between
    // the callers' own, which already breaks up their overlap.
    let measured = run::timed_phase(
        args,
        !args.trace,
        &stack.cache,
        MAX_BYTES,
        &stack.backend,
        |c, pace, t| {
            let schedule = PortalSchedule::new(seed, c, HIT_RATIO, &hot);
            caller(&stack, shadow.as_ref(), &expected_hot, schedule, c, pace, t);
        },
    );
    // Pages of unique queries are checked against the corpus now, off
    // the clock, one thread per caller.
    let wrong: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = measured
            .tallies()
            .iter()
            .map(|t| {
                s.spawn(move || {
                    t.to_verify
                        .iter()
                        .filter(|(q, d)| check::expected_page_digest(q) != *d)
                        .count() as u64
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("verifier"))
            .sum()
    });
    drop(stack);
    let setup_s = if args.trace {
        first_setup_s
    } else {
        run::median_setup_s(first_setup_s, build)
    };
    measured.outcome(args, wrong, "portal.handle", setup_s)
}

fn caller(
    stack: &Stack,
    shadow: Option<&Shadow>,
    expected_hot: &Expected,
    schedule: impl Iterator<Item = PortalQuery>,
    c: usize,
    pace: &mut Pacer,
    t: &mut Tally,
) {
    let mut hot_seen = 0u64;
    let mut prev = None;
    for (n, PortalQuery { text: q, hot }) in schedule.enumerate() {
        let Some(part) = pace.next() else {
            break;
        };
        let rid = trace::request_id(c, n, hot);
        let t0 = trace::now();
        let response = if shadow.is_some() {
            trace::span(rid, 0, "portal.handle", || stack.fetch(&q))
        } else {
            stack.fetch(&q)
        };
        t.record(part, hot, t0, trace::now());
        t.attempted += 1;
        if !hot {
            t.expected_backend += 1;
        }
        let digest = match response.status {
            Status::OK => response.body_text().ok().and_then(check::page_digest),
            _ => None,
        };
        let mut ok = match (digest, hot) {
            (Some(d), true) => expected_hot.get(&q).is_some_and(|e| e.0 == d),
            (Some(d), false) => {
                t.to_verify.push((q.clone(), d));
                true
            }
            (None, _) => false,
        };
        if hot {
            hot_seen += 1;
            if hot_seen.is_multiple_of(COPY_CHECK_EVERY) {
                ok &= copy_check(stack.client(), &q, expected_hot);
            }
        }
        if !ok {
            t.failed += 1;
        }
        if t.attempted.is_multiple_of(BUDGET_EVERY) && stack.cache.bytes() > MAX_BYTES {
            t.budget_exceeded = true;
        }
        if let Some(shadow) = shadow {
            // Replay the previous request (see `probe`), cycling through
            // the kinds of replay within each outcome, so each outcome
            // gets every kind whatever the schedule's pattern.
            let seen = if hot { hot_seen } else { t.expected_backend };
            if let Some((prev_rid, prev_q, seen)) = prev.replace((rid, q, seen)) {
                let replay = Replay::cycle(seen, Some(&prev_q));
                shadow.probe(prev_rid, &search_request(&prev_q), replay);
            }
        }
    }
}

/// Call-by-copy on a hit: mutating the object a hit returned must not
/// change what the next hit for the same key returns.
fn copy_check(client: &ServiceClient, q: &str, expected_hot: &Expected) -> bool {
    let request = search_request(q);
    let Some(&(_, want)) = expected_hot.get(q) else {
        return false;
    };
    let Ok((first, Disposition::CacheHit)) = client.invoke(&request) else {
        return false;
    };
    let mut owned = first.into_value();
    check::mutate(&mut owned);
    matches!(
        client.invoke(&request),
        Ok((again, Disposition::CacheHit)) if check::value_digest(again.as_value()) == want
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::Pace;

    /// On a short run, the schedule's hit or miss agrees with what the
    /// backend saw, and every page checks out against the corpus.
    #[test]
    fn schedule_classification_matches_backend_counts() {
        let seed = 5;
        let hot = gen::hot_queries(seed, HOT);
        let expected = expected_hot(&hot);
        let stack = Stack::build();
        for q in &hot {
            stack.fetch(q);
        }
        let before = stack.backend.calls();
        let mut t = Tally::new();
        let schedule = PortalSchedule::new(seed, 0, HIT_RATIO, &hot).take(600);
        let pace = Pace::new(trace::now(), 3_600, false);
        caller(
            &stack,
            None,
            &expected,
            schedule,
            0,
            &mut pace.caller(),
            &mut t,
        );
        assert_eq!((t.attempted, t.failed), (600, 0));
        assert_eq!(t.misses.len() as u64, t.expected_backend);
        assert!(t.expected_backend > 0);
        assert_eq!(stack.backend.calls() - before, t.expected_backend);
        for (q, digest) in &t.to_verify {
            assert_eq!(check::expected_page_digest(q), *digest, "{q}");
        }
    }
}
