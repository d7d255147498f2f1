//! A participant built from the public pieces `TcpParticipant::poll`
//! composes — `AjaxSnippet::build_poll`, `HttpConnection` round trips,
//! `AjaxSnippet::process_response` and the `/cache/` object fetches — so
//! the traced run can put a span around each one.

use std::time::Duration;

use rcb_browser::{Browser, BrowserKind};
use rcb_core::snippet::{AjaxSnippet, SnippetOutcome};
use rcb_crypto::SessionKey;
use rcb_http::client::{ClientOptions, HttpConnection};
use rcb_http::{Request, Response, Status};
use rcb_util::{RcbError, Result, SimDuration, SimTime};

use crate::trace::{Tracer, SPAN_HEADER};

/// Every blocking read gives up after this; a hung request fails its op.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

pub struct Participant {
    conn: HttpConnection,
    pub browser: Browser,
    pub snippet: AjaxSnippet,
    /// Response bytes received (status line, headers and body).
    pub wire_bytes: u64,
    pub requests: u64,
}

/// What one poll did.
pub struct Polled {
    pub outcome: SnippetOutcome,
    pub status: u16,
    /// The reply was a delta (applied onto the previous generation).
    pub delta: bool,
    pub objects_ok: usize,
    pub objects_failed: usize,
}

impl Participant {
    /// Connects, fetches the initial page (`GET /`) and parses it.
    pub fn join(
        addr: &str,
        key: SessionKey,
        pid: u64,
        tr: &mut Tracer,
        parent: u64,
    ) -> Result<Participant> {
        let t = tr.begin();
        let conn =
            HttpConnection::connect_opts(addr, &ClientOptions::with_read_timeout(READ_TIMEOUT))?;
        tr.end("http.connect", 0, parent, t);
        let mut p = Participant {
            conn,
            browser: Browser::new(BrowserKind::Firefox),
            snippet: AjaxSnippet::new(pid, key, SimDuration::from_secs(1)),
            wire_bytes: 0,
            requests: 0,
        };
        let resp = p.round_trip(Request::get("/"), "http.page_rtt", tr, parent)?;
        if resp.status != Status::OK {
            return Err(RcbError::Protocol(format!(
                "join answered {}",
                resp.status.0
            )));
        }
        let t = tr.begin();
        p.browser.doc = Some(rcb_html::parse_document(&resp.body_str()));
        tr.end("html.parse", 0, parent, t);
        Ok(p)
    }

    fn round_trip(
        &mut self,
        req: Request,
        name: &'static str,
        tr: &mut Tracer,
        parent: u64,
    ) -> Result<Response> {
        let id = tr.next_id(self.snippet.participant_id);
        let req = if tr.on() {
            req.with_header(SPAN_HEADER, id.to_string())
        } else {
            req
        };
        let t = tr.begin();
        let resp = self.conn.round_trip(&req)?;
        tr.end(name, id, parent, t);
        self.wire_bytes += resp.wire_len() as u64;
        self.requests += 1;
        Ok(resp)
    }

    /// One poll: build and sign it, round-trip it, apply the reply, and
    /// fetch every agent-served object the updated page needs that is
    /// not cached yet. A non-200 reply is an error (the snippet refuses
    /// it); a failed object fetch is counted, not stored.
    pub fn poll(&mut self, tr: &mut Tracer, parent: u64) -> Result<Polled> {
        let t = tr.begin();
        let req = self.snippet.build_poll();
        tr.end("snippet.build_poll", 0, parent, t);
        let rtt = if self.snippet.long_poll.is_some() {
            "http.longpoll_rtt"
        } else {
            "http.poll_rtt"
        };
        let resp = self.round_trip(req, rtt, tr, parent)?;
        let deltas = self.snippet.deltas_applied;
        let t = tr.begin();
        let outcome = self.snippet.process_response(&resp, &mut self.browser)?;
        let delta = self.snippet.deltas_applied > deltas;
        let applied = match (&outcome, delta) {
            (SnippetOutcome::NoNewContent, _) => "snippet.empty",
            (_, true) => "snippet.apply_delta",
            (_, false) => "snippet.apply_full",
        };
        tr.end(applied, 0, parent, t);
        let (mut objects_ok, mut objects_failed) = (0, 0);
        if let SnippetOutcome::Updated { object_urls, .. } = &outcome {
            for url in object_urls {
                if !url.starts_with('/') || self.browser.cache.contains(url) {
                    continue;
                }
                let obj =
                    self.round_trip(Request::get(url.clone()), "http.object_rtt", tr, parent)?;
                if obj.status == Status::OK {
                    let ct = obj.content_type().unwrap_or_default();
                    self.browser.cache.store(url, &ct, obj.body, SimTime::ZERO);
                    objects_ok += 1;
                } else {
                    objects_failed += 1;
                }
            }
        }
        Ok(Polled {
            outcome,
            status: resp.status.0,
            delta,
            objects_ok,
            objects_failed,
        })
    }

    /// Arena size of the participant's document, detached nodes included.
    pub fn arena_nodes(&self) -> usize {
        self.browser.doc.as_ref().map_or(0, |d| d.node_count())
    }

    /// The current value of `field` in form `form` of the participant's
    /// document.
    pub fn field(&self, form: &str, field: &str) -> Option<String> {
        let doc = self.browser.doc.as_ref()?;
        let form = rcb_html::query::element_by_id(doc, doc.root(), form)?;
        rcb_html::query::form_fields(doc, form)
            .into_iter()
            .find_map(|(name, value)| (name == field).then_some(value))
    }

    /// Whether the document shows `title` in its `<title>` element.
    pub fn has_title(&self, title: &str) -> bool {
        let Some(doc) = self.browser.doc.as_ref() else {
            return false;
        };
        doc.descendants(doc.root())
            .into_iter()
            .any(|n| doc.is_element(n, "title") && doc.text_content(n) == title)
    }
}
