//! A minimal XML scanner.
//!
//! Ajax-Snippet receives the newContent document as `responseXML`; on the
//! participant side we must actually parse the bytes that crossed the wire.
//! This scanner handles exactly what the format needs: the XML declaration,
//! elements with optional attributes, character data, CDATA sections, and
//! comments. It is not a general XML parser (no DTDs, namespaces, or
//! processing instructions beyond the declaration).

use rcb_util::{RcbError, Result};

/// A parsed XML element: name, attributes, and children.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlElement {
    /// Element name.
    pub name: String,
    /// Attributes in document order.
    pub attrs: Vec<(String, String)>,
    /// Child nodes.
    pub children: Vec<XmlNode>,
}

/// A node in the parsed XML tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlNode {
    /// A child element.
    Element(XmlElement),
    /// Character data (entity-decoded) or CDATA content (verbatim).
    Text(String),
}

impl XmlElement {
    /// Concatenated text content of this element (direct children only).
    pub fn text(&self) -> String {
        self.children
            .iter()
            .filter_map(|c| match c {
                XmlNode::Text(t) => Some(t.as_str()),
                XmlNode::Element(_) => None,
            })
            .collect()
    }

    /// First child element named `name`.
    pub fn child(&self, name: &str) -> Option<&XmlElement> {
        self.children.iter().find_map(|c| match c {
            XmlNode::Element(e) if e.name == name => Some(e),
            _ => None,
        })
    }

    /// All child elements, in order.
    pub fn child_elements(&self) -> impl Iterator<Item = &XmlElement> {
        self.children.iter().filter_map(|c| match c {
            XmlNode::Element(e) => Some(e),
            _ => None,
        })
    }
}

/// Parses a document and returns its root element.
pub fn parse_document(input: &str) -> Result<XmlElement> {
    let mut s = Scanner {
        src: input,
        bytes: input.as_bytes(),
        pos: 0,
    };
    s.skip_prolog()?;
    let root = s.parse_element()?;
    s.skip_whitespace_and_comments()?;
    if s.pos != s.bytes.len() {
        return Err(RcbError::parse(
            "xml",
            "trailing content after root element",
        ));
    }
    Ok(root)
}

struct Scanner<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Scanner<'a> {
    fn err(&self, detail: impl Into<String>) -> RcbError {
        RcbError::parse("xml", format!("{} at byte {}", detail.into(), self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.bytes[self.pos..].starts_with(s.as_bytes())
    }

    /// Offset of the first `needle` at or after byte `from`. Every
    /// position the scanner stops at follows an ASCII delimiter, so `from`
    /// is always a char boundary.
    fn find(&self, from: usize, needle: &str) -> Option<usize> {
        self.src[from..].find(needle).map(|rel| from + rel)
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn skip_prolog(&mut self) -> Result<()> {
        self.skip_whitespace();
        if self.starts_with("<?xml") {
            match self.find(self.pos, "?>") {
                Some(end) => self.pos = end + 2,
                None => return Err(self.err("unterminated XML declaration")),
            }
        }
        self.skip_whitespace_and_comments()
    }

    fn skip_whitespace_and_comments(&mut self) -> Result<()> {
        loop {
            self.skip_whitespace();
            if self.starts_with("<!--") {
                match self.find(self.pos + 4, "-->") {
                    Some(end) => self.pos = end + 3,
                    None => return Err(self.err("unterminated comment")),
                }
            } else {
                return Ok(());
            }
        }
    }

    fn parse_name(&mut self) -> Result<String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b':' | b'.') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.err("expected name"));
        }
        Ok(self.src[start..self.pos].to_owned())
    }

    fn parse_element(&mut self) -> Result<XmlElement> {
        if self.peek() != Some(b'<') {
            return Err(self.err("expected '<'"));
        }
        self.pos += 1;
        let name = self.parse_name()?;
        let mut attrs = Vec::new();
        loop {
            self.skip_whitespace();
            match self.peek() {
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                Some(b'/') => {
                    if self.starts_with("/>") {
                        self.pos += 2;
                        return Ok(XmlElement {
                            name,
                            attrs,
                            children: Vec::new(),
                        });
                    }
                    return Err(self.err("stray '/' in tag"));
                }
                Some(_) => {
                    let attr_name = self.parse_name()?;
                    self.skip_whitespace();
                    if self.peek() != Some(b'=') {
                        return Err(self.err("expected '=' after attribute name"));
                    }
                    self.pos += 1;
                    self.skip_whitespace();
                    let quote = self
                        .peek()
                        .filter(|b| *b == b'"' || *b == b'\'')
                        .ok_or_else(|| self.err("expected quoted attribute value"))?;
                    self.pos += 1;
                    let start = self.pos;
                    while self.peek().is_some_and(|b| b != quote) {
                        self.pos += 1;
                    }
                    if self.peek() != Some(quote) {
                        return Err(self.err("unterminated attribute value"));
                    }
                    let raw = &self.src[start..self.pos];
                    self.pos += 1;
                    attrs.push((attr_name, decode_entities(raw)));
                }
                None => return Err(self.err("unterminated start tag")),
            }
        }
        // Children until matching close tag.
        let mut children = Vec::new();
        loop {
            if self.starts_with("</") {
                self.pos += 2;
                let close = self.parse_name()?;
                if close != name {
                    return Err(self.err(format!("mismatched close tag {close:?} for {name:?}")));
                }
                self.skip_whitespace();
                if self.peek() != Some(b'>') {
                    return Err(self.err("malformed close tag"));
                }
                self.pos += 1;
                return Ok(XmlElement {
                    name,
                    attrs,
                    children,
                });
            }
            if self.starts_with("<![CDATA[") {
                let body_start = self.pos + 9;
                match self.find(body_start, "]]>") {
                    Some(end) => {
                        children.push(XmlNode::Text(self.src[body_start..end].to_owned()));
                        self.pos = end + 3;
                    }
                    None => return Err(self.err("unterminated CDATA section")),
                }
                continue;
            }
            if self.starts_with("<!--") {
                self.skip_whitespace_and_comments()?;
                continue;
            }
            match self.peek() {
                Some(b'<') => children.push(XmlNode::Element(self.parse_element()?)),
                Some(_) => {
                    let start = self.pos;
                    while self.peek().is_some_and(|b| b != b'<') {
                        self.pos += 1;
                    }
                    let raw = &self.src[start..self.pos];
                    // Whitespace-only runs between elements are formatting.
                    if !raw.trim().is_empty() {
                        children.push(XmlNode::Text(decode_entities(raw)));
                    }
                }
                None => return Err(self.err(format!("unterminated element {name:?}"))),
            }
        }
    }
}

/// Decodes the five predefined XML entities plus decimal/hex references.
pub fn decode_entities(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(idx) = rest.find('&') {
        out.push_str(&rest[..idx]);
        rest = &rest[idx..];
        let Some(semi) = rest.find(';') else {
            out.push('&');
            rest = &rest[1..];
            continue;
        };
        let entity = &rest[1..semi];
        let decoded = match entity {
            "amp" => Some('&'),
            "lt" => Some('<'),
            "gt" => Some('>'),
            "quot" => Some('"'),
            "apos" => Some('\''),
            _ if entity.starts_with("#x") || entity.starts_with("#X") => char_ref(&entity[2..], 16),
            _ if entity.starts_with('#') => char_ref(&entity[1..], 10),
            _ => None,
        };
        match decoded {
            Some(c) => {
                out.push(c);
                rest = &rest[semi + 1..];
            }
            None => {
                out.push('&');
                rest = &rest[1..];
            }
        }
    }
    out.push_str(rest);
    out
}

/// A numeric character reference's digits: bare digits of `radix` only
/// (`u32::from_str_radix` alone would also take a leading `+`).
fn char_ref(digits: &str, radix: u32) -> Option<char> {
    if digits.is_empty() || !digits.chars().all(|c| c.is_digit(radix)) {
        return None;
    }
    u32::from_str_radix(digits, radix)
        .ok()
        .and_then(char::from_u32)
}

/// Encodes text for inclusion as XML character data.
pub fn encode_text(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

/// Encodes text for inclusion as a double-quoted attribute value.
pub fn encode_attr(s: &str) -> String {
    encode_text(s).replace('"', "&quot;")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_document() {
        let root = parse_document("<?xml version='1.0'?><a x=\"1\"><b>hi</b><c/></a>").unwrap();
        assert_eq!(root.name, "a");
        assert_eq!(root.attrs, vec![("x".to_string(), "1".to_string())]);
        assert_eq!(root.child("b").unwrap().text(), "hi");
        assert!(root.child("c").unwrap().children.is_empty());
        assert!(root.child("zz").is_none());
    }

    #[test]
    fn cdata_is_verbatim() {
        let root = parse_document("<r><![CDATA[a < b & c]]></r>").unwrap();
        assert_eq!(root.text(), "a < b & c");
    }

    #[test]
    fn entities_decode_in_text_and_attrs() {
        let root = parse_document("<r a=\"x &amp; &#65;\">1 &lt; 2 &#x41;</r>").unwrap();
        assert_eq!(root.attrs[0].1, "x & A");
        assert_eq!(root.text(), "1 < 2 A");
    }

    #[test]
    fn comments_are_skipped() {
        let root =
            parse_document("<!-- lead --><r><!-- for a page using body element --><b>x</b></r>")
                .unwrap();
        assert_eq!(root.child_elements().count(), 1);
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse_document("<a><b></a></b>").is_err());
        assert!(parse_document("<a>").is_err());
        assert!(parse_document("<a></a><b></b>").is_err());
        assert!(parse_document("<a x=1></a>").is_err());
        assert!(parse_document("plain").is_err());
        assert!(parse_document("<a><![CDATA[x]]</a>").is_err());
    }

    #[test]
    fn whitespace_between_elements_dropped() {
        let root = parse_document("<r>\n  <a/>\n  <b/>\n</r>").unwrap();
        assert_eq!(root.children.len(), 2);
    }

    #[test]
    fn encode_decode_entities_roundtrip() {
        let s = "a < b & \"c\" > 'd'";
        assert_eq!(decode_entities(&encode_attr(s)), s);
        assert_eq!(decode_entities("&bogus; &#xZZ; & x"), "&bogus; &#xZZ; & x");
    }

    #[test]
    fn numeric_references_reject_signed_digits() {
        assert_eq!(decode_entities("&#+65;"), "&#+65;");
        assert_eq!(decode_entities("&#x+41;"), "&#x+41;");
        assert_eq!(decode_entities("&#-65;"), "&#-65;");
        assert_eq!(decode_entities("&#65;&#x41;&#X61;"), "AAa");
    }

    #[test]
    fn cdata_bodies_ending_in_brackets() {
        for (body, text) in [
            ("<r><![CDATA[a]]]></r>", "a]"),
            ("<r><![CDATA[a]]]]></r>", "a]]"),
            ("<r><![CDATA[]]]></r>", "]"),
            ("<r><![CDATA[]]></r>", ""),
            ("<r><![CDATA[x]y]]z]]></r>", "x]y]]z"),
        ] {
            assert_eq!(parse_document(body).unwrap().text(), text, "{body}");
        }
    }

    #[test]
    fn unterminated_sections_at_end_of_input_are_errors() {
        for doc in [
            "<r><![CDATA[",
            "<r><![CDATA[x]",
            "<r><![CDATA[x]]",
            "<r><![CDATA[x]]]",
            "<r><![CDATA[x]]]>",
            "<r><!--",
            "<r><!-- x -",
            "<r><!-- x --",
            "<!-- x --",
            "<?xml version='1.0'?",
            "<?xml",
        ] {
            assert!(parse_document(doc).is_err(), "{doc:?} must not parse");
        }
    }

    proptest::proptest! {
        /// Slicing the source at scanner positions never splits a char:
        /// arbitrary markup-shaped input parses or errors, never panics.
        #[test]
        fn scanner_never_panics_on_markup_soup(
            doc in "(<|>|<!--|-->|<!\\[CDATA\\[|\\]\\]>|</|/>|<\\?xml|\\?>|=|\"|'|&#x41;|&|;|[a-z]|é|中|😀| ){0,60}"
        ) {
            let _ = parse_document(&doc);
            let _ = parse_document(&format!("<r a='é'>{doc}</r>"));
        }
    }
}
