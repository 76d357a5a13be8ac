//! Builds the stacks the workloads drive, from the repository's public
//! API, plus the benchmark's wrappers around a `Handler` and a
//! `Transport`. Untraced, the wrappers only count backend requests; in a
//! traced run they also record spans and tag requests with their id.

use crate::trace;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use wsrc_cache::{Capacity, KeyStrategy, ResponseCache};
use wsrc_client::ServiceClient;
use wsrc_http::{
    Handler, HttpClient, HttpError, InProcTransport, PoolConfig, Request, Response, Server,
    ServerConfig, TcpTransport, Transport, Url,
};
use wsrc_portal::PortalSite;
use wsrc_services::google::{self, GoogleService};
use wsrc_services::SoapDispatcher;

/// Header carrying a traced request's id from the portal's client to the
/// backend server, so spans on both sides of the wire join up.
const RID_HEADER: &str = "X-Perfbench-Rid";

/// The Google backend behind a counting wrapper.
pub struct Backend {
    dispatcher: SoapDispatcher,
    calls: AtomicU64,
}

impl Backend {
    pub fn new() -> Arc<Backend> {
        Arc::new(Backend {
            dispatcher: SoapDispatcher::new().mount(google::PATH, Arc::new(GoogleService::new())),
            calls: AtomicU64::new(0),
        })
    }

    /// Requests that reached the dispatcher so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::SeqCst)
    }
}

impl Handler for Backend {
    fn handle(&self, request: &Request) -> Response {
        self.calls.fetch_add(1, Ordering::SeqCst);
        if !trace::enabled() {
            return self.dispatcher.handle(request);
        }
        let (req, parent) = match request.headers.get(RID_HEADER) {
            Some(v) => parse_rid(v),
            None => trace::current(),
        };
        trace::span(req, parent, "services.backend", || {
            self.dispatcher.handle(request)
        })
    }
}

fn parse_rid(v: &str) -> (u64, u64) {
    let mut it = v.split(':').map(|p| p.parse().unwrap_or(0));
    (it.next().unwrap_or(0), it.next().unwrap_or(0))
}

/// Times `Transport::execute` of the wrapped transport as a span named
/// `name`. In a traced run it forwards the request id in a header, so the
/// backend's span joins the request across a wire.
pub struct TimedTransport<T> {
    pub inner: T,
    pub name: &'static str,
}

impl<T: Transport> Transport for TimedTransport<T> {
    fn execute(&self, url: &Url, request: &Request) -> Result<Response, HttpError> {
        if !trace::enabled() {
            return self.inner.execute(url, request);
        }
        let (req, parent) = trace::current();
        trace::span(req, parent, self.name, || {
            let (_, id) = trace::current();
            let tagged = request
                .clone()
                .with_header(RID_HEADER, format!("{req}:{id}"));
            self.inner.execute(url, &tagged)
        })
    }
}

/// Times `PortalSite::handle` on the portal server's worker threads; the
/// request id rides the page URL as `&rid=<req>:<parent>`.
pub struct TimedPortal(pub Arc<PortalSite>);

impl Handler for TimedPortal {
    fn handle(&self, request: &Request) -> Response {
        if !trace::enabled() {
            return self.0.handle(request);
        }
        let (req, parent) = request
            .target
            .split_once("&rid=")
            .map_or((0, 0), |(_, v)| parse_rid(v));
        trace::span(req, parent, "portal.handle", || self.0.handle(request))
    }
}

/// How a workload's response cache is configured: the paper's policy
/// for the Google operations (all three cacheable for an hour), the
/// static representation selector, and a capacity.
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    pub capacity: Capacity,
    pub key_strategy: KeyStrategy,
    pub coalesce: bool,
}

impl CacheConfig {
    pub fn build(&self) -> Arc<ResponseCache> {
        Arc::new(
            ResponseCache::builder(google::registry())
                .policy(google::default_policy())
                .key_strategy(self.key_strategy)
                .capacity(self.capacity)
                .build(),
        )
    }
}

/// A caching client over `transport`.
pub fn client(
    config: &CacheConfig,
    endpoint: Url,
    transport: Arc<dyn Transport>,
) -> (Arc<ServiceClient>, Arc<ResponseCache>) {
    let cache = config.build();
    let client = ServiceClient::builder(endpoint, transport)
        .registry(google::registry())
        .operations(google::operations())
        .cache(cache.clone())
        .coalesce_misses(config.coalesce)
        .build();
    (Arc::new(client), cache)
}

/// Backend, client and cache wired in one process.
pub struct InProc {
    pub backend: Arc<Backend>,
    pub client: Arc<ServiceClient>,
    pub cache: Arc<ResponseCache>,
}

pub fn in_proc(config: &CacheConfig) -> InProc {
    let backend = Backend::new();
    let transport = TimedTransport {
        inner: InProcTransport::new(backend.clone()),
        name: "inproc.execute",
    };
    let (client, cache) = client(
        config,
        Url::new("backend.test", 80, google::PATH),
        Arc::new(transport),
    );
    InProc {
        backend,
        client,
        cache,
    }
}

/// The wire stack: a backend `Server`, a portal `Server` whose client
/// reaches the backend over TCP, and the pooled client that fetches
/// pages from the portal.
pub struct Wire {
    portal_url: Url,
    loadgen: HttpClient,
    // Held for their lifetime; dropped in declaration order, so the
    // portal server stops before the backend server it calls.
    _portal_server: Server,
    _backend_server: Server,
}

impl Wire {
    pub fn new(config: &CacheConfig) -> Result<Wire, HttpError> {
        let backend_server =
            Server::bind_with_config("127.0.0.1:0", Backend::new(), ServerConfig::default())?;
        let transport = TimedTransport {
            inner: TcpTransport::new(),
            name: "http.backend_execute",
        };
        let (client, _) = client(
            config,
            Url::new("127.0.0.1", backend_server.port(), google::PATH),
            Arc::new(transport),
        );
        let portal = Arc::new(TimedPortal(Arc::new(PortalSite::new(client))));
        let portal_server =
            Server::bind_with_config("127.0.0.1:0", portal, ServerConfig::default())?;
        Ok(Wire {
            portal_url: Url::new("127.0.0.1", portal_server.port(), "/portal"),
            loadgen: HttpClient::with_pool(PoolConfig {
                max_per_authority: 1,
                ..PoolConfig::default()
            }),
            _portal_server: portal_server,
            _backend_server: backend_server,
        })
    }

    /// Fetches the page for `q`. Inside a traced span the URL carries the
    /// span's request and id, for the portal server's wrapper.
    pub fn page(&self, q: &str) -> Result<Response, HttpError> {
        let (req, id) = trace::current();
        let target = format!("/portal?q={q}&rid={req}:{id}");
        self.loadgen.get(&self.portal_url.with_path(target))
    }
}
