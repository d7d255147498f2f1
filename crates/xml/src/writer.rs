//! Serializes a [`NewContent`] into the exact Figure-4 document, and a
//! [`DeltaContent`] into the same layout with unchanged slots omitted.
//!
//! A delta repeats the full document's sections byte for byte, so the
//! host writes each generation once ([`write_new_content_with_sections`])
//! and splices every delta from those bytes ([`splice_delta_content`])
//! instead of escaping the payloads again.

use std::fmt::Write as _;
use std::ops::Range;

use crate::model::{DeltaContent, ElementPayload, NewContent, TopLevel};
use crate::scanner::encode_text;

/// Byte ranges, within one written newContent document, of the sections a
/// deltaContent document repeats verbatim.
#[derive(Debug, Clone)]
pub struct Fig4Sections {
    /// `<docHead>…</docHead>\n`.
    pub head: Range<usize>,
    /// The top-level comment line plus `<docBody>…</docBody>\n`, or plus
    /// `docFrameSet` and the optional `docNoFrames`.
    pub top: Range<usize>,
    /// `<userActions>…</userActions>\n`.
    pub user_actions: Range<usize>,
}

/// Writes the newContent document, matching the paper's Figure 4 layout
/// (XML declaration, `docTime`, `docContent` with per-head-child
/// `hChildN` CDATA sections, `docBody` or `docFrameSet`/`docNoFrames`,
/// and `userActions`).
pub fn write_new_content(nc: &NewContent) -> String {
    write_new_content_with_sections(nc).0
}

/// [`write_new_content`], also returning where its head, top and
/// userActions sections lie in the output.
///
/// Assembly is single-pass into one output buffer: each payload is
/// JS-escaped straight into it via
/// [`ElementPayload::encode_escaped_into`], with no per-child
/// `escape(&child.encode())` intermediates — the document is the only
/// allocation that grows.
pub fn write_new_content_with_sections(nc: &NewContent) -> (String, Fig4Sections) {
    // Escaping inflates HTML payloads by roughly 2×; starting near the
    // final size keeps the single buffer from reallocating log(n) times.
    let payload_bytes: usize = nc.head_children.iter().map(payload_len).sum::<usize>()
        + match &nc.top {
            TopLevel::Body(b) => payload_len(b),
            TopLevel::Frames { frameset, noframes } => {
                payload_len(frameset) + noframes.as_ref().map_or(0, payload_len)
            }
        };
    let mut out = String::with_capacity(2 * payload_bytes + nc.user_actions.len() + 512);
    out.push_str("<?xml version='1.0' encoding='utf-8'?>\n");
    out.push_str("<newContent>\n");
    let _ = writeln!(out, "<docTime>{}</docTime>", nc.doc_time);
    out.push_str("<docContent>\n");
    let head_start = out.len();
    write_head_into(&mut out, &nc.head_children);
    let top_start = out.len();
    write_top_into(&mut out, &nc.top);
    let top_end = out.len();
    out.push_str("</docContent>\n");
    let actions_start = out.len();
    write_user_actions_into(&mut out, &nc.user_actions);
    let sections = Fig4Sections {
        head: head_start..top_start,
        top: top_start..top_end,
        user_actions: actions_start..out.len(),
    };
    out.push_str("</newContent>\n");
    (out, sections)
}

/// Writes the deltaContent document: same Fig.-4 framing as
/// [`write_new_content`] plus `fromDocTime`, with the `docHead` and
/// `docBody`/`docFrameSet` sections *omitted entirely* when that slot is
/// unchanged. A fully populated delta therefore differs from the full
/// document only in the root element name and the extra timestamp line.
pub fn write_delta_content(dc: &DeltaContent) -> String {
    let payload_bytes: usize = dc
        .head_children
        .as_ref()
        .map_or(0, |hc| hc.iter().map(payload_len).sum())
        + match &dc.top {
            Some(TopLevel::Body(b)) => payload_len(b),
            Some(TopLevel::Frames { frameset, noframes }) => {
                payload_len(frameset) + noframes.as_ref().map_or(0, payload_len)
            }
            None => 0,
        };
    let mut out = String::with_capacity(2 * payload_bytes + dc.user_actions.len() + 512);
    write_delta_prolog(&mut out, dc.doc_time, dc.from_doc_time);
    if let Some(head_children) = &dc.head_children {
        write_head_into(&mut out, head_children);
    }
    if let Some(top) = &dc.top {
        write_top_into(&mut out, top);
    }
    out.push_str("</docContent>\n");
    write_user_actions_into(&mut out, &dc.user_actions);
    out.push_str("</deltaContent>\n");
    out
}

/// Assembles the deltaContent document a generation would get from
/// [`write_delta_content`], by copying the head and/or top sections and
/// the userActions section out of its already-written newContent document
/// `full` (whose layout `sections` records). Nothing is escaped again.
pub fn splice_delta_content(
    full: &str,
    sections: &Fig4Sections,
    doc_time: u64,
    from_doc_time: u64,
    head_changed: bool,
    top_changed: bool,
) -> String {
    let head = if head_changed {
        &full[sections.head.clone()]
    } else {
        ""
    };
    let top = if top_changed {
        &full[sections.top.clone()]
    } else {
        ""
    };
    let user_actions = &full[sections.user_actions.clone()];
    let mut out = String::with_capacity(head.len() + top.len() + user_actions.len() + 160);
    write_delta_prolog(&mut out, doc_time, from_doc_time);
    out.push_str(head);
    out.push_str(top);
    out.push_str("</docContent>\n");
    out.push_str(user_actions);
    out.push_str("</deltaContent>\n");
    out
}

/// Everything a deltaContent document holds before its first section.
fn write_delta_prolog(out: &mut String, doc_time: u64, from_doc_time: u64) {
    out.push_str("<?xml version='1.0' encoding='utf-8'?>\n");
    out.push_str("<deltaContent>\n");
    let _ = writeln!(out, "<docTime>{doc_time}</docTime>");
    let _ = writeln!(out, "<fromDocTime>{from_doc_time}</fromDocTime>");
    out.push_str("<docContent>\n");
}

fn write_user_actions_into(out: &mut String, user_actions: &str) {
    out.push_str("<userActions>");
    out.push_str(&encode_text(user_actions));
    out.push_str("</userActions>\n");
}

fn write_head_into(out: &mut String, head_children: &[ElementPayload]) {
    out.push_str("<docHead>\n");
    for (i, child) in head_children.iter().enumerate() {
        let _ = write!(out, "<hChild{}><![CDATA[", i + 1);
        child.encode_escaped_into(out);
        let _ = writeln!(out, "]]></hChild{}>", i + 1);
    }
    out.push_str("</docHead>\n");
}

fn write_top_into(out: &mut String, top: &TopLevel) {
    match top {
        TopLevel::Body(body) => {
            out.push_str("<!-- for a page using body element -->\n");
            out.push_str("<docBody><![CDATA[");
            body.encode_escaped_into(out);
            out.push_str("]]></docBody>\n");
        }
        TopLevel::Frames { frameset, noframes } => {
            out.push_str("<!-- for a page using frames -->\n");
            out.push_str("<docFrameSet><![CDATA[");
            frameset.encode_escaped_into(out);
            out.push_str("]]></docFrameSet>\n");
            if let Some(nf) = noframes {
                out.push_str("<docNoFrames><![CDATA[");
                nf.encode_escaped_into(out);
                out.push_str("]]></docNoFrames>\n");
            }
        }
    }
}

fn payload_len(p: &ElementPayload) -> usize {
    p.inner_html.len() + p.tag.len() + 64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ElementPayload;

    fn sample() -> NewContent {
        NewContent {
            doc_time: 1_244_937_600_123,
            head_children: vec![
                ElementPayload::new("title", "Example Home"),
                ElementPayload {
                    tag: "style".into(),
                    attrs: vec![("type".into(), "text/css".into())],
                    inner_html: "body { margin: 0; }".into(),
                },
            ],
            top: TopLevel::Body(ElementPayload {
                tag: "body".into(),
                attrs: vec![("class".into(), "home".into())],
                inner_html: "<div id=\"main\">hello</div>".into(),
            }),
            user_actions: String::new(),
        }
    }

    #[test]
    fn output_matches_figure4_shape() {
        let xml = write_new_content(&sample());
        assert!(xml.starts_with("<?xml version='1.0' encoding='utf-8'?>"));
        assert!(xml.contains("<newContent>"));
        assert!(xml.contains("<docTime>1244937600123</docTime>"));
        assert!(xml.contains("<hChild1><![CDATA["));
        assert!(xml.contains("<hChild2><![CDATA["));
        assert!(xml.contains("<!-- for a page using body element -->"));
        assert!(xml.contains("<docBody><![CDATA["));
        assert!(xml.contains("<userActions></userActions>"));
        assert!(xml.trim_end().ends_with("</newContent>"));
    }

    #[test]
    fn frames_variant_uses_frameset_elements() {
        let nc = NewContent {
            doc_time: 1,
            head_children: vec![],
            top: TopLevel::Frames {
                frameset: ElementPayload {
                    tag: "frameset".into(),
                    attrs: vec![("cols".into(), "50%,50%".into())],
                    inner_html: "<frame src=\"a\"/><frame src=\"b\"/>".into(),
                },
                noframes: Some(ElementPayload::new("noframes", "frames required")),
            },
            user_actions: "none".into(),
        };
        let xml = write_new_content(&nc);
        assert!(xml.contains("<docFrameSet><![CDATA["));
        assert!(xml.contains("<docNoFrames><![CDATA["));
        assert!(!xml.contains("<docBody>"));
    }

    #[test]
    fn delta_omits_unchanged_slots() {
        let full = sample();
        let head_only = DeltaContent {
            doc_time: 10,
            from_doc_time: 9,
            head_children: Some(full.head_children.clone()),
            top: None,
            user_actions: String::new(),
        };
        let xml = write_delta_content(&head_only);
        assert!(xml.contains("<deltaContent>"));
        assert!(xml.contains("<docTime>10</docTime>"));
        assert!(xml.contains("<fromDocTime>9</fromDocTime>"));
        assert!(xml.contains("<docHead>"));
        assert!(!xml.contains("<docBody>"));
        assert!(!xml.contains("<docFrameSet>"));

        let top_only = DeltaContent {
            doc_time: 10,
            from_doc_time: 9,
            head_children: None,
            top: Some(full.top.clone()),
            user_actions: "a".into(),
        };
        let xml = write_delta_content(&top_only);
        assert!(!xml.contains("<docHead>"));
        assert!(xml.contains("<docBody><![CDATA["));
    }

    #[test]
    fn full_delta_reuses_figure4_section_bytes() {
        // A delta carrying both slots emits the exact section bytes of the
        // full document — only the root name and fromDocTime line differ.
        let nc = sample();
        let dc = DeltaContent {
            doc_time: nc.doc_time,
            from_doc_time: 7,
            head_children: Some(nc.head_children.clone()),
            top: Some(nc.top.clone()),
            user_actions: nc.user_actions.clone(),
        };
        let full = write_new_content(&nc);
        let delta = write_delta_content(&dc);
        let section = |xml: &str| {
            let s = xml.find("<docContent>").unwrap();
            let e = xml.find("</docContent>").unwrap();
            xml[s..e].to_string()
        };
        assert_eq!(section(&full), section(&delta));
    }

    #[test]
    fn payloads_are_js_escaped_inside_cdata() {
        let xml = write_new_content(&sample());
        // "<div" must appear escaped (%3Cdiv), never raw inside the CDATA.
        assert!(xml.contains("%3Cdiv"));
        // The raw CDATA terminator cannot be produced by escaped payloads.
        let inner = xml.split("<docBody><![CDATA[").nth(1).unwrap();
        let payload = inner.split("]]>").next().unwrap();
        assert!(!payload.contains('<'));
    }

    fn delta_of(nc: &NewContent, from_doc_time: u64, head: bool, top: bool) -> DeltaContent {
        DeltaContent {
            doc_time: nc.doc_time,
            from_doc_time,
            head_children: head.then(|| nc.head_children.clone()),
            top: top.then(|| nc.top.clone()),
            user_actions: nc.user_actions.clone(),
        }
    }

    fn assert_splices_match(nc: &NewContent, from_doc_time: u64) {
        let (full, sections) = write_new_content_with_sections(nc);
        assert_eq!(full, write_new_content(nc));
        for (head, top) in [(true, true), (true, false), (false, true), (false, false)] {
            assert_eq!(
                splice_delta_content(&full, &sections, nc.doc_time, from_doc_time, head, top),
                write_delta_content(&delta_of(nc, from_doc_time, head, top)),
                "head {head}, top {top}"
            );
        }
    }

    #[test]
    fn sections_delimit_head_top_and_user_actions() {
        let nc = sample();
        let (xml, sections) = write_new_content_with_sections(&nc);
        let head = &xml[sections.head.clone()];
        assert!(head.starts_with("<docHead>\n") && head.ends_with("</docHead>\n"));
        let top = &xml[sections.top.clone()];
        assert!(top.starts_with("<!-- for a page using body element -->\n"));
        assert!(top.ends_with("</docBody>\n"));
        assert_eq!(sections.head.end, sections.top.start);
        assert_eq!(
            &xml[sections.user_actions.clone()],
            "<userActions></userActions>\n"
        );
    }

    #[test]
    fn spliced_deltas_equal_typed_deltas() {
        let mut nc = sample();
        assert_splices_match(&nc, 7);
        // Whitespace-only and markup-bearing userActions survive verbatim.
        nc.user_actions = " \n ".into();
        assert_splices_match(&nc, 7);
        nc.user_actions = "mouse:1,2 <&>".into();
        assert_splices_match(&nc, u64::MAX);
        nc.head_children.clear();
        nc.top = TopLevel::Frames {
            frameset: ElementPayload::new("frameset", "<frame src=\"a\"/>"),
            noframes: Some(ElementPayload::new("noframes", "]]> no frames")),
        };
        assert_splices_match(&nc, 0);
    }

    proptest::proptest! {
        #[test]
        fn spliced_deltas_equal_typed_deltas_for_any_payloads(
            title in "\\PC{0,40}",
            body_html in "\\PC{0,200}",
            actions in "[ a-z0-9|,.%<>&-]{0,40}",
            times in (0u64..u64::MAX / 2, 0u64..u64::MAX / 2),
            frames in proptest::any::<bool>()
        ) {
            let top = if frames {
                TopLevel::Frames {
                    frameset: ElementPayload::new("frameset", body_html.clone()),
                    noframes: (!title.is_empty()).then(|| ElementPayload::new("noframes", title.clone())),
                }
            } else {
                TopLevel::Body(ElementPayload::new("body", body_html))
            };
            let nc = NewContent {
                doc_time: times.0,
                head_children: vec![ElementPayload::new("title", title)],
                top,
                user_actions: actions,
            };
            assert_splices_match(&nc, times.1);
        }
    }
}
