//! The host side: a host browser that navigated the Table-1
//! `wikipedia.org` homepage in cache mode, a one-session router, and the
//! epoll engine — the same construction `TcpHost::start_from_browser`
//! performs, spelled out so the traced run can wrap the router's handler.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rcb_browser::{Browser, BrowserKind};
use rcb_core::agent::{AgentConfig, CacheMode};
use rcb_core::router::{RouterConfig, SessionHandle, SessionRouter};
use rcb_core::tcp::TcpHostStats;
use rcb_crypto::SessionKey;
use rcb_http::server::{
    Handler, HandlerOutcome, HttpServer, Park, ParkHub, ServerBackend, ServerConfig, ServerStats,
};
use rcb_http::{Method, Request};
use rcb_origin::OriginRegistry;
use rcb_sim::{NetProfile, Pipe};
use rcb_util::{Result, SimTime};

use crate::stats::process_cpu;
use crate::trace::{now_ns, ServerSpans, SPAN_HEADER};

/// The page every workload co-browses: Table-1 row 7.
pub const PAGE_URL: &str = "http://wikipedia.org/";
pub const PAGE_TITLE: &str = "wikipedia.org — home";
const PAGE_INDEX: usize = 7;

/// Supplementary objects in the page's manifest.
pub fn manifest_len() -> usize {
    rcb_origin::sites::site_by_index(PAGE_INDEX)
        .expect("Table 1 has a row 7")
        .objects
        .len()
}

/// A running host.
pub struct Host {
    server: HttpServer,
    router: Arc<SessionRouter>,
    session: SessionHandle,
    hub: Arc<ParkHub>,
    pub addr: String,
}

/// Counters read at the edges of the timed window; the window's
/// per-layer counts are their differences.
#[derive(Debug, Clone)]
pub struct Counters {
    pub at: Instant,
    pub cpu: Duration,
    pub tcp: TcpHostStats,
    pub server: ServerStats,
    /// Requests the router dispatched into the session.
    pub routed: u64,
    /// Highest DOM version the session has published on the hub: one
    /// step per published generation.
    pub published: u64,
    pub xml_bytes: usize,
    pub participants: usize,
}

/// What changed between two `Counters` readings, summed over rounds.
#[derive(Debug, Clone, Default)]
pub struct Window {
    pub elapsed: Duration,
    pub cpu: Duration,
    pub polls_woken: u64,
    pub polls_woken_delta: u64,
    pub park_timeouts: u64,
    pub body_bytes_copied: u64,
    pub conns: u64,
    pub shed: u64,
    pub routed: u64,
    pub generations: u64,
}

impl Window {
    pub fn add(&mut self, o: &Window) {
        self.elapsed += o.elapsed;
        self.cpu += o.cpu;
        self.polls_woken += o.polls_woken;
        self.polls_woken_delta += o.polls_woken_delta;
        self.park_timeouts += o.park_timeouts;
        self.body_bytes_copied += o.body_bytes_copied;
        self.conns += o.conns;
        self.shed += o.shed;
        self.routed += o.routed;
        self.generations += o.generations;
    }
}

impl Counters {
    pub fn since(&self, b: &Counters) -> Window {
        Window {
            elapsed: self.at - b.at,
            cpu: self.cpu.saturating_sub(b.cpu),
            polls_woken: self.tcp.polls_woken - b.tcp.polls_woken,
            polls_woken_delta: self.tcp.polls_woken_delta - b.tcp.polls_woken_delta,
            park_timeouts: self.tcp.polls_park_timeouts - b.tcp.polls_park_timeouts,
            body_bytes_copied: self.tcp.body_bytes_copied - b.tcp.body_bytes_copied,
            conns: self.server.connections_accepted - b.server.connections_accepted,
            shed: self.server.requests_shed - b.server.requests_shed,
            routed: self.routed - b.routed,
            generations: self.published - b.published,
        }
    }
}

impl Host {
    /// Navigates the host browser and starts serving it on an ephemeral
    /// loopback port with an epoll engine of `dispatch` handler threads.
    /// With `spans`, the router's handler and every park it returns are
    /// wrapped in timing closures; otherwise it is served as is.
    pub fn start(
        key: SessionKey,
        dispatch: usize,
        spans: Option<Arc<ServerSpans>>,
    ) -> Result<Host> {
        let browser = navigated_browser()?;
        let server_config = ServerConfig::builder()
            .backend(ServerBackend::Epoll)
            .workers(dispatch)
            .build();
        let hub = Arc::clone(&server_config.park_hub);
        let router = SessionRouter::new(
            Box::new(|_| None),
            AgentConfig::builder().cache_mode(CacheMode::Cache).build(),
            RouterConfig::default(),
            Arc::clone(&hub),
            server_config.clock.clone(),
        );
        let session = router.install_default_session(browser, key)?;
        let handler = match spans {
            Some(spans) => traced(router.make_handler(), spans),
            None => router.make_handler(),
        };
        let server = HttpServer::bind_with("127.0.0.1:0", handler, server_config)?;
        let addr = server.addr().to_string();
        Ok(Host {
            server,
            router,
            session,
            hub,
            addr,
        })
    }

    pub fn backend(&self) -> ServerBackend {
        self.server.backend()
    }

    /// Long-polls parked on the engine right now.
    pub fn parked(&self) -> u64 {
        self.hub.parked_now()
    }

    pub fn counters(&self) -> Counters {
        Counters {
            at: Instant::now(),
            cpu: process_cpu(),
            tcp: self.session.stats(),
            server: self.server.stats(),
            routed: self.router.stats().requests_routed,
            published: self.hub.published(),
            xml_bytes: self.session.published_xml_len(),
            participants: self.session.participant_count(),
        }
    }

    pub fn shutdown(mut self) {
        self.server.shutdown();
    }
}

fn navigated_browser() -> Result<Browser> {
    let mut origins = OriginRegistry::with_alexa20();
    let profile = NetProfile::lan();
    let mut pipe = Pipe::new(profile.host_origin);
    let mut browser = Browser::new(BrowserKind::Firefox);
    browser.navigate(
        &rcb_url::Url::parse(PAGE_URL)?,
        &mut origins,
        &mut pipe,
        &profile,
        SimTime::ZERO,
    )?;
    Ok(browser)
}

/// What the router was asked, decided before the request moves into it.
#[derive(Clone, Copy)]
enum Kind {
    Page,
    Object,
    /// A poll carrying actions (its body has lines after the timestamp).
    Action,
    Poll,
    Other,
}

fn classify(req: &Request) -> Kind {
    match (req.method, req.path()) {
        (Method::Get, "/") => Kind::Page,
        (Method::Get, p) if p.starts_with("/cache/") => Kind::Object,
        (Method::Post, "/poll") if req.body.contains(&b'\n') => Kind::Action,
        (Method::Post, "/poll") => Kind::Poll,
        _ => Kind::Other,
    }
}

/// Wraps the router's handler in timing closures: one span per handler
/// call, named by what the request was and how it was answered, and one
/// per park callback.
fn traced(inner: Handler, spans: Arc<ServerSpans>) -> Handler {
    Arc::new(move |req: Request| {
        let parent = req
            .headers
            .get(SPAN_HEADER)
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        let kind = classify(&req);
        let start = now_ns();
        let outcome = inner(req);
        let end = now_ns();
        match outcome {
            HandlerOutcome::Respond(resp) => {
                let name = match kind {
                    Kind::Page => "router.page",
                    Kind::Object => "router.object",
                    Kind::Action => "router.action",
                    Kind::Poll if resp.body.is_empty() => "router.poll",
                    Kind::Poll => "router.content_poll",
                    Kind::Other => "router.other",
                };
                spans.push(name, parent, start, end);
                HandlerOutcome::Respond(resp)
            }
            HandlerOutcome::Park(park) => {
                spans.push("router.park", parent, start, end);
                let Park {
                    channel,
                    wait_key,
                    max_wait,
                    on_wake,
                    on_timeout,
                } = park;
                let (wake_spans, timeout_spans) = (Arc::clone(&spans), Arc::clone(&spans));
                HandlerOutcome::Park(Park {
                    channel,
                    wait_key,
                    max_wait,
                    on_wake: Box::new(move || {
                        let start = now_ns();
                        let resp = on_wake();
                        wake_spans.push("tcp.wake", parent, start, now_ns());
                        resp
                    }),
                    on_timeout: Box::new(move || {
                        let start = now_ns();
                        let resp = on_timeout();
                        timeout_spans.push("tcp.timeout", parent, start, now_ns());
                        resp
                    }),
                })
            }
        }
    })
}
