//! The traced run's layer probes. After each request of the workload,
//! the caller replays the request before it against a shadow stack
//! configured like the workload's own: a `ServiceClient` over an
//! in-process backend of its own, and its cache. The shadow sees the
//! same request sequence, so its cache's state tracks the real one's,
//! while the real cache's counters stay untouched by the probes.
//!
//! Replaying the previous request rather than the current one means a
//! replay, like a real call, follows work on another key instead of a
//! call on the same key that has just warmed the code and data it uses.
//! For the same reason a replay makes one pass over the shadow's cache
//! (see [`Replay`]).

use crate::stack::{CacheConfig, Wire};
use crate::trace::{self, is_hit, Span};
use std::collections::HashMap;
use std::sync::Arc;
use wsrc_cache::repr::MissArtifacts;
use wsrc_cache::{key, CacheOutcome, KeyStrategy, ResponseCache};
use wsrc_client::{Disposition, ServiceClient};
use wsrc_http::{Handler, InProcTransport, Request, Url};
use wsrc_model::typeinfo::TypeRegistry;
use wsrc_model::{binser, reflect, Value};
use wsrc_portal::PortalSite;
use wsrc_services::google::{self, GoogleService};
use wsrc_services::{SoapDispatcher, SoapService};
use wsrc_soap::rpc::{OperationDescriptor, RpcOutcome, RpcRequest};
use wsrc_soap::{deserializer, serializer};
use wsrc_xml::XmlReader;

/// How one request is replayed.
#[derive(Debug, Clone, Copy)]
pub enum Replay<'q> {
    /// One `ServiceClient::invoke`.
    Client,
    /// The pipeline `invoke` runs, one public call per layer: lookup and
    /// keygen, and on a miss request serialization, the backend's parse
    /// and serialize, the XML scan, deserialization and the cache insert.
    Layers,
    /// The portal page for this query, fetched over loopback TCP from a
    /// portal server whose client reaches a backend server over TCP.
    Page(&'q str),
    /// The portal page for this query from an in-process `PortalSite`
    /// over the shadow's client, then the `invoke` the page makes, both
    /// timed, so their difference is the portal's own work.
    Render(&'q str),
}

impl<'q> Replay<'q> {
    /// The `seen`-th replay of an outcome, cycling through the kinds; a
    /// page only for a request that has one (a search query).
    pub fn cycle(seen: u64, page: Option<&'q str>) -> Replay<'q> {
        match (seen % 4, page) {
            (0, _) => Replay::Client,
            (2, Some(q)) => Replay::Page(q),
            (3, Some(q)) => Replay::Render(q),
            _ => Replay::Layers,
        }
    }
}

pub struct Shadow {
    client: Arc<ServiceClient>,
    site: PortalSite,
    cache: Arc<ResponseCache>,
    strategy: KeyStrategy,
    endpoint: String,
    service: GoogleService,
    operations: Vec<OperationDescriptor>,
    registry: TypeRegistry,
    wire: Option<Wire>,
}

/// Times `f` and records it under `req` with the name `name(&result)`.
fn timed<T>(req: u64, f: impl FnOnce() -> T, name: impl FnOnce(&T) -> &'static str) -> T {
    trace::span_with(req, 0, f, |out| (name(out), req))
}

impl Shadow {
    /// A shadow of a stack whose cache is built from `config`.
    pub fn new(config: &CacheConfig) -> Shadow {
        let dispatcher = SoapDispatcher::new().mount(google::PATH, Arc::new(GoogleService::new()));
        let (client, cache) = crate::stack::client(
            config,
            Url::new("backend.test", 80, google::PATH),
            Arc::new(InProcTransport::new(Arc::new(dispatcher))),
        );
        Shadow {
            endpoint: client.endpoint_url().to_string(),
            site: PortalSite::new(client.clone()),
            client,
            cache,
            strategy: config.key_strategy,
            service: GoogleService::new(),
            operations: google::operations(),
            registry: google::registry(),
            wire: None,
        }
    }

    /// Adds a wire stack for [`Replay::Page`], its cache built from
    /// `config` and warmed with the pages of `warm`.
    pub fn with_wire(mut self, config: &CacheConfig, warm: impl Iterator<Item = String>) -> Shadow {
        let wire = Wire::new(config).expect("bind loopback servers");
        for q in warm {
            let _ = wire.page(&q);
        }
        self.wire = Some(wire);
        self
    }

    /// Replays one request. Every span is a root of its own under `req`,
    /// apart from the request's real call. The hit flag in bit 0 of `req`
    /// is set from the shadow's own outcome, except for a page, whose
    /// outcome the portal schedule fixes.
    pub fn probe(&self, req: u64, rpc: &RpcRequest, replay: Replay) {
        let base = req & !1;
        match replay {
            Replay::Client => {
                let _ = trace::span_with(
                    base,
                    0,
                    || self.client.invoke(rpc),
                    |r| {
                        let hit = matches!(r, Ok((_, Disposition::CacheHit)));
                        ("client.invoke", base | hit as u64)
                    },
                );
            }
            Replay::Page(q) => {
                if let Some(wire) = &self.wire {
                    let _ = trace::span(req, 0, "http.get", || wire.page(q));
                }
            }
            Replay::Render(q) => {
                // The page's own request, not `rpc`: in client-zipf the
                // two differ. An untimed call first leaves its key
                // cached, so both timed calls are hits on warm code and
                // data.
                let search = crate::portal::search_request(q);
                let _ = self.client.invoke(&search);
                let page = Request::get(format!("/portal?q={q}"));
                let _ = trace::span(base | 1, 0, "shadow.portal.handle", || {
                    self.site.handle(&page)
                });
                let _ = trace::span(base | 1, 0, "shadow.client.invoke", || {
                    self.client.invoke(&search)
                });
            }
            Replay::Layers => self.layers(base, rpc),
        }
    }

    fn layers(&self, req: u64, rpc: &RpcRequest) {
        let Some(desc) = self.operations.iter().find(|o| o.name == rpc.operation) else {
            return;
        };
        let reg = &self.registry;
        // The lookup runs first: it generates the key itself, and a
        // keygen probe before it would warm what that costs.
        let outcome = timed(
            req,
            || {
                self.cache
                    .lookup_detailed(&self.endpoint, rpc, &desc.return_type)
            },
            |o| match o {
                CacheOutcome::Fresh { .. } => "cache.lookup_hit",
                _ => "cache.lookup_miss",
            },
        );
        let _ = timed(
            req,
            || key::generate_key(self.strategy, &self.endpoint, rpc, reg),
            |_| "cache.keygen",
        );
        if let CacheOutcome::Fresh { handle, .. } = outcome {
            let value = handle.as_value();
            let _ = timed(
                req | 1,
                || binser::deserialize(&binser::serialize(value)),
                |_| "model.binser_roundtrip",
            );
            if matches!(value, Value::Struct(_)) {
                let _ = timed(
                    req | 1,
                    || reflect::reflect_copy(value, reg),
                    |_| "model.reflect_copy",
                );
            }
            return;
        }
        self.miss_path(req, rpc, desc);
    }

    fn miss_path(&self, req: u64, rpc: &RpcRequest, desc: &OperationDescriptor) -> Option<()> {
        let reg = &self.registry;
        let request_xml = timed(
            req,
            || serializer::serialize_request(rpc, reg),
            |_| "soap.serialize_request",
        )
        .ok()?;
        let parsed = timed(
            req,
            || deserializer::parse_request(&request_xml, &self.operations, reg),
            |_| "soap.parse_request",
        )
        .ok()?;
        let value = timed(req, || self.service.call(&parsed), |_| "services.call").ok()?;
        let response_xml = timed(
            req,
            || {
                serializer::serialize_response(
                    &desc.namespace,
                    &desc.name,
                    &desc.return_name,
                    &value,
                    reg,
                )
            },
            |_| "soap.serialize_response",
        )
        .ok()?;
        let xml: Arc<[u8]> = Arc::from(response_xml.into_bytes());
        let events = timed(
            req,
            || XmlReader::from_bytes(&xml).and_then(XmlReader::read_sequence),
            |_| "xml.scan",
        )
        .ok()?;
        let events = Arc::new(events);
        let outcome = timed(
            req,
            || deserializer::read_response_events(&events, &desc.return_type, reg),
            |_| "soap.deserialize",
        )
        .ok()?;
        let RpcOutcome::Return(value) = outcome else {
            return None;
        };
        timed(
            req,
            || {
                self.cache.insert_validated(
                    &self.endpoint,
                    rpc,
                    MissArtifacts {
                        xml: &xml,
                        events: &events,
                        value: &value,
                    },
                    None,
                )
            },
            |_| "cache.insert",
        );
        Some(())
    }
}

/// Nanoseconds per `Histogram::record_nanos` call, with `threads`
/// threads recording into one histogram at once.
pub fn record_cost_ns(threads: usize) -> f64 {
    const CALLS: u64 = 2_000_000;
    let registry = wsrc_obs::MetricsRegistry::new();
    let histogram = registry.histogram("perfbench_record_probe", &[]);
    let start = trace::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            let h = &histogram;
            s.spawn(move || {
                for i in 0..CALLS {
                    h.record_nanos(std::hint::black_box(1_000 + (i ^ t as u64) % 4_096));
                }
            });
        }
    });
    (trace::now() - start) as f64 / CALLS as f64
}

/// The median of `d` in microseconds, 0 for no samples.
fn p50_us(mut d: Vec<u64>) -> f64 {
    d.sort_unstable();
    crate::stats::percentile(&d, 50.0).map_or(0.0, |n| n as f64 / 1_000.0)
}

/// p50 of the spans `keep` selects, in microseconds.
fn span_p50_us(spans: &[Span], keep: impl Fn(&Span) -> bool) -> f64 {
    p50_us(spans.iter().filter(|s| keep(s)).map(Span::nanos).collect())
}

/// p50 of `outer - inner` over every `inner` span whose parent is an
/// `outer` span, in microseconds (0 when the workload has no such pair).
fn paired_gap_us(spans: &[Span], outer: &str, inner: &str) -> f64 {
    let outers: HashMap<u64, u64> = spans
        .iter()
        .filter(|s| s.name == outer)
        .map(|s| (s.id, s.nanos()))
        .collect();
    p50_us(
        spans
            .iter()
            .filter(|s| s.name == inner)
            .filter_map(|s| outers.get(&s.parent).map(|o| o.saturating_sub(s.nanos())))
            .collect(),
    )
}

/// p50 of `a - b` over the requests that have both an `a` and a `b`
/// span, in microseconds.
fn paired_by_req_us(spans: &[Span], a: &str, b: &str) -> f64 {
    let firsts: HashMap<u64, u64> = spans
        .iter()
        .filter(|s| s.name == a)
        .map(|s| (s.req, s.nanos()))
        .collect();
    p50_us(
        spans
            .iter()
            .filter(|s| s.name == b)
            .filter_map(|s| firsts.get(&s.req).map(|n| n.saturating_sub(s.nanos())))
            .collect(),
    )
}

/// Counts from the real cache over the timed phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct CacheCounts {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub conversions: u64,
    /// `CacheMiss` dispositions the callers saw.
    pub miss_dispositions: u64,
    pub requests: u64,
    pub bytes: usize,
    pub entries: usize,
}

/// The per-layer metrics of a traced run, in the order of the benchmark
/// description, from the spans and the real cache's counts.
pub fn layer_metrics(
    spans: &[Span],
    counts: &CacheCounts,
) -> Vec<(&'static str, f64, &'static str)> {
    let p50_where =
        |name: &str, hit: bool| span_p50_us(spans, |s| s.name == name && is_hit(s.req) == hit);
    let p50 = |name: &str| span_p50_us(spans, |s| s.name == name);
    let per_kreq = |n: u64, base: u64| n as f64 * 1000.0 / base.max(1) as f64;
    let lookups = counts.hits + counts.misses;
    let client_hit = p50_where("client.invoke", true);
    vec![
        ("client.hit_us", client_hit, "us"),
        ("client.miss_us", p50_where("client.invoke", false), "us"),
        (
            "client.coalesced_per_kreq",
            per_kreq(
                counts.misses.saturating_sub(counts.miss_dispositions),
                counts.requests,
            ),
            "1/kreq",
        ),
        ("cache.keygen_us", p50("cache.keygen"), "us"),
        ("cache.lookup_hit_us", p50("cache.lookup_hit"), "us"),
        ("cache.insert_us", p50("cache.insert"), "us"),
        (
            "cache.hit_ratio",
            counts.hits as f64 / lookups.max(1) as f64,
            "ratio",
        ),
        (
            "cache.evictions_per_kreq",
            per_kreq(counts.evictions, lookups),
            "1/klookup",
        ),
        (
            "cache.conversions_per_kreq",
            per_kreq(counts.conversions, lookups),
            "1/klookup",
        ),
        (
            "cache.bytes_per_entry",
            counts.bytes as f64 / counts.entries.max(1) as f64,
            "B",
        ),
        ("model.reflect_copy_us", p50("model.reflect_copy"), "us"),
        (
            "model.binser_roundtrip_us",
            p50("model.binser_roundtrip"),
            "us",
        ),
        (
            "soap.serialize_request_us",
            p50("soap.serialize_request"),
            "us",
        ),
        ("xml.scan_us", p50("xml.scan"), "us"),
        ("soap.deserialize_us", p50("soap.deserialize"), "us"),
        ("soap.parse_request_us", p50("soap.parse_request"), "us"),
        (
            "soap.serialize_response_us",
            p50("soap.serialize_response"),
            "us",
        ),
        ("services.backend_us", p50("services.backend"), "us"),
        (
            "http.backend_wire_us",
            paired_gap_us(spans, "http.backend_execute", "services.backend"),
            "us",
        ),
        (
            "http.portal_wire_us",
            paired_gap_us(spans, "http.get", "portal.handle"),
            "us",
        ),
        (
            "portal.render_us",
            paired_by_req_us(spans, "shadow.portal.handle", "shadow.client.invoke"),
            "us",
        ),
    ]
}

/// The human-readable trace report: per span name its count, p50 and
/// mean self time; then, per outcome, the p50s of the layers on the
/// blocking path next to the traced p50 of the request itself.
pub fn print_report(spans: &[Span], root: &str, metrics: &[(&'static str, f64, &'static str)]) {
    let summary = crate::trace::summarize(spans);
    eprintln!(
        "{:<28} {:>9} {:>12} {:>14}",
        "span", "count", "p50_us", "mean_self_us"
    );
    for (name, (count, p50, self_mean)) in &summary {
        eprintln!(
            "{:<28} {:>9} {:>12.3} {:>14.3}",
            name,
            count,
            *p50 as f64 / 1e3,
            *self_mean as f64 / 1e3
        );
    }
    let metric = |name: &str| metrics.iter().find(|m| m.0 == name).map_or(0.0, |m| m.1);
    // Rendering is on the path only where the request is a page.
    let render = if root == "portal.handle" {
        metric("portal.render_us")
    } else {
        0.0
    };
    let edge = [("portal.render_us", render)];
    let hit_path = [("cache.lookup_hit_us", metric("cache.lookup_hit_us"))];
    let miss_path = [
        (
            "cache.lookup_miss_us",
            span_p50_us(spans, |s| s.name == "cache.lookup_miss"),
        ),
        (
            "soap.serialize_request_us",
            metric("soap.serialize_request_us"),
        ),
        (
            "inproc.execute_us",
            span_p50_us(spans, |s| s.name == "inproc.execute"),
        ),
        ("xml.scan_us", metric("xml.scan_us")),
        ("soap.deserialize_us", metric("soap.deserialize_us")),
        ("cache.insert_us", metric("cache.insert_us")),
    ];
    for (outcome, hit, path) in [
        ("hit", true, &hit_path[..]),
        ("miss", false, &miss_path[..]),
    ] {
        let layers: Vec<_> = path
            .iter()
            .chain(edge.iter())
            .filter(|(_, v)| *v > 0.0)
            .collect();
        let sum: f64 = layers.iter().map(|(_, v)| v).sum();
        let parts: Vec<String> = layers.iter().map(|(n, v)| format!("{n} {v:.1}")).collect();
        eprintln!(
            "blocking path ({outcome}): {} = {sum:.1} us; traced {root} p50 {:.1} us",
            parts.join(" + "),
            span_p50_us(spans, |s| s.name == root
                && s.parent == 0
                && is_hit(s.req) == hit)
        );
    }
}
