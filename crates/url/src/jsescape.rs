//! The JavaScript `escape`/`unescape` pair.
//!
//! The paper's XML response format (§4.1.2, Fig. 4) encodes every innerHTML
//! value and attribute list "using the JavaScript escape function" before
//! wrapping it in a CDATA section, and Ajax-Snippet reverses it with
//! `unescape`. The functions here replicate the exact legacy semantics:
//!
//! * ASCII letters, digits and `@ * _ + - . /` pass through;
//! * other code units below 0x100 become `%XX`;
//! * code units at or above 0x100 become `%uXXXX` (UTF-16 code units, so
//!   supplementary-plane characters produce surrogate pairs, exactly as
//!   browsers do).

/// Characters the legacy `escape` passes through unchanged.
fn is_passthrough(c: char) -> bool {
    c.is_ascii_alphanumeric() || matches!(c, '@' | '*' | '_' | '+' | '-' | '.' | '/')
}

/// JavaScript's legacy `escape` function.
pub fn escape(input: &str) -> String {
    let mut out = String::with_capacity(input.len() + input.len() / 4);
    escape_into(input, &mut out);
    out
}

/// [`escape`], appended to an existing buffer.
///
/// Escaping is character-wise, so `escape(a) + escape(b) == escape(a + b)`:
/// streaming writers (the Fig.-4 XML assembler) escape each fragment of a
/// payload straight into one output buffer instead of building
/// per-fragment intermediate strings.
pub fn escape_into(input: &str, out: &mut String) {
    const HEX: &[u8; 16] = b"0123456789ABCDEF";
    out.reserve(input.len() + input.len() / 4);
    for c in input.chars() {
        if is_passthrough(c) {
            out.push(c);
        } else {
            let mut units = [0u16; 2];
            for unit in c.encode_utf16(&mut units) {
                let u = *unit;
                if u < 0x100 {
                    out.push('%');
                    out.push(HEX[(u >> 4) as usize] as char);
                    out.push(HEX[(u & 0xF) as usize] as char);
                } else {
                    out.push_str("%u");
                    out.push(HEX[(u >> 12) as usize] as char);
                    out.push(HEX[((u >> 8) & 0xF) as usize] as char);
                    out.push(HEX[((u >> 4) & 0xF) as usize] as char);
                    out.push(HEX[(u & 0xF) as usize] as char);
                }
            }
        }
    }
}

/// Value of each ASCII hex digit, [`NOT_HEX`] for every other byte.
const HEX_VALUE: [u8; 256] = {
    let mut t = [NOT_HEX; 256];
    let mut i = 0;
    while i < 10 {
        t[b'0' as usize + i] = i as u8;
        i += 1;
    }
    let mut i = 0;
    while i < 6 {
        t[b'a' as usize + i] = 10 + i as u8;
        t[b'A' as usize + i] = 10 + i as u8;
        i += 1;
    }
    t
};
const NOT_HEX: u8 = 0xFF;

/// Decodes two bare hex digits (no sign, no prefix) into one byte value.
fn hex_pair(hi: u8, lo: u8) -> Option<u16> {
    let (h, l) = (HEX_VALUE[hi as usize], HEX_VALUE[lo as usize]);
    // Every non-digit maps to 0xFF, so one test covers both digits.
    ((h | l) & 0xF0 == 0).then(|| u16::from(h) << 4 | u16::from(l))
}

/// The escape sequence at the start of `rest` (which begins with `%`):
/// the UTF-16 code unit it encodes and its length in bytes.
fn escape_at(rest: &[u8]) -> Option<(u16, usize)> {
    if let [_, b'u', a, b, c, d, ..] = *rest {
        if let (Some(hi), Some(lo)) = (hex_pair(a, b), hex_pair(c, d)) {
            return Some((hi << 8 | lo, 6));
        }
    }
    match *rest {
        [_, hi, lo, ..] => hex_pair(hi, lo).map(|unit| (unit, 3)),
        _ => None,
    }
}

/// JavaScript's legacy `unescape` function.
///
/// Malformed escapes — including signed digits such as `%u+041` — pass
/// through verbatim, matching browser behaviour. Surrogate pairs produced
/// by [`escape`] are re-combined; unpaired surrogates become U+FFFD.
///
/// Decodes straight into UTF-8: runs without `%` are copied as slices,
/// and only escaped code units are decoded, one at a time.
pub fn unescape(input: &str) -> String {
    /// Emits U+FFFD for an escaped high surrogate that found no low half.
    fn flush_unpaired(out: &mut String, high: &mut Option<u16>) {
        if high.take().is_some() {
            out.push(char::REPLACEMENT_CHARACTER);
        }
    }

    let bytes = input.as_bytes();
    let mut out = String::with_capacity(input.len());
    // An escaped high surrogate waiting for its low half.
    let mut high: Option<u16> = None;
    let mut i = 0;
    while i < bytes.len() {
        let mut run_end = i;
        while run_end < bytes.len() && bytes[run_end] != b'%' {
            run_end += 1;
        }
        if run_end > i {
            // `%` is ASCII, so both ends sit on char boundaries.
            flush_unpaired(&mut out, &mut high);
            out.push_str(&input[i..run_end]);
            i = run_end;
            continue;
        }
        let Some((unit, len)) = escape_at(&bytes[i..]) else {
            flush_unpaired(&mut out, &mut high);
            out.push('%');
            i += 1;
            continue;
        };
        i += len;
        if let (Some(h), 0xDC00..=0xDFFF) = (high, unit) {
            high = None;
            let c = 0x10000 + ((u32::from(h) - 0xD800) << 10) + (u32::from(unit) - 0xDC00);
            out.push(char::from_u32(c).expect("paired surrogates form a scalar value"));
            continue;
        }
        flush_unpaired(&mut out, &mut high);
        if (0xD800..0xDC00).contains(&unit) {
            high = Some(unit);
        } else {
            out.push(char::from_u32(u32::from(unit)).unwrap_or(char::REPLACEMENT_CHARACTER));
        }
    }
    flush_unpaired(&mut out, &mut high);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascii_passthrough() {
        assert_eq!(escape("Az09@*_+-./"), "Az09@*_+-./");
    }

    #[test]
    fn latin1_uses_two_digit_form() {
        assert_eq!(escape(" "), "%20");
        assert_eq!(escape("<div>"), "%3Cdiv%3E");
        assert_eq!(escape("é"), "%E9");
    }

    #[test]
    fn bmp_uses_u_form() {
        assert_eq!(escape("中"), "%u4E2D");
    }

    #[test]
    fn supplementary_plane_is_surrogate_pair() {
        // U+1F600 GRINNING FACE → D83D DE00 surrogates.
        assert_eq!(escape("😀"), "%uD83D%uDE00");
        assert_eq!(unescape("%uD83D%uDE00"), "😀");
    }

    #[test]
    fn roundtrip_html_fragment() {
        let html = r#"<a href="http://example.com/?q=1&r=2" onclick="go('x')">café 地图</a>"#;
        assert_eq!(unescape(&escape(html)), html);
    }

    #[test]
    fn unescape_tolerates_malformed() {
        assert_eq!(unescape("100%"), "100%");
        assert_eq!(unescape("%zz"), "%zz");
        assert_eq!(unescape("%u12"), "%u12");
    }

    #[test]
    fn unescape_rejects_signed_digits() {
        // `u16::from_str_radix` would accept the `+`; JS does not.
        assert_eq!(unescape("%u+041"), "%u+041");
        assert_eq!(unescape("%+41"), "%+41");
        assert_eq!(unescape("%u-041"), "%u-041");
    }

    #[test]
    fn unescape_surrogate_edges() {
        assert_eq!(unescape("%uD83D"), "\u{FFFD}");
        assert_eq!(unescape("%uDE00"), "\u{FFFD}");
        assert_eq!(unescape("%uD83Dx%uDE00"), "\u{FFFD}x\u{FFFD}");
        assert_eq!(unescape("%uD83D%uD83D%uDE00"), "\u{FFFD}😀");
        assert_eq!(unescape("%uD83D%41"), "\u{FFFD}A");
        assert_eq!(unescape("%uD83D%"), "\u{FFFD}%");
        assert_eq!(unescape("😀%uDE00"), "😀\u{FFFD}");
    }

    #[test]
    fn unescape_plain_text() {
        assert_eq!(unescape("hello world"), "hello world");
    }

    #[test]
    fn escape_into_appends_and_concatenates() {
        let mut out = String::from("prefix:");
        escape_into("<a b>", &mut out);
        assert_eq!(out, "prefix:%3Ca%20b%3E");
        // Character-wise escaping is concatenation-preserving.
        let (a, b) = ("café <", "中 &😀");
        let mut streamed = String::new();
        escape_into(a, &mut streamed);
        escape_into(b, &mut streamed);
        assert_eq!(streamed, escape(&format!("{a}{b}")));
    }

    /// The UTF-16 implementation this module shipped before decoding went
    /// straight to UTF-8, with the signed-digit fix applied: the oracle the
    /// property test holds [`unescape`] to.
    fn unescape_via_utf16(input: &str) -> String {
        let bytes = input.as_bytes();
        let mut units: Vec<u16> = Vec::with_capacity(input.len());
        let bare_hex = |d: &[u8]| {
            std::str::from_utf8(d)
                .ok()
                .filter(|s| s.bytes().all(|b| b.is_ascii_hexdigit()))
                .and_then(|s| u16::from_str_radix(s, 16).ok())
        };
        let mut i = 0;
        while i < bytes.len() {
            if bytes[i] == b'%' {
                if bytes.get(i + 1) == Some(&b'u') && i + 5 < bytes.len() {
                    if let Some(v) = bare_hex(&bytes[i + 2..i + 6]) {
                        units.push(v);
                        i += 6;
                        continue;
                    }
                }
                if let (Some(h), Some(l)) = (
                    bytes.get(i + 1).and_then(|b| (*b as char).to_digit(16)),
                    bytes.get(i + 2).and_then(|b| (*b as char).to_digit(16)),
                ) {
                    units.push((h * 16 + l) as u16);
                    i += 3;
                    continue;
                }
            }
            let c = input[i..].chars().next().unwrap();
            let mut buf = [0u16; 2];
            units.extend_from_slice(c.encode_utf16(&mut buf));
            i += c.len_utf8();
        }
        String::from_utf16_lossy(&units)
    }

    /// Builds an input from fragments chosen to hit every branch: free
    /// Unicode text, stray and truncated `%`, `%XX`, `%uXXXX` over the
    /// whole unit range (surrogates included), and signed digits.
    fn fragmented_input(parts: &[(u8, u16, String)]) -> String {
        let mut s = String::new();
        for (kind, unit, text) in parts {
            match kind {
                0 => s.push_str(text),
                1 => s.push('%'),
                2 => s.push_str(&format!(
                    "%u{}",
                    &format!("{unit:04X}")[..1 + *unit as usize % 3]
                )),
                3 => s.push_str(&format!("%{:02x}", unit & 0xFF)),
                4 => s.push_str(&format!("%u{unit:04X}")),
                5 => s.push_str(&format!("%u{:04X}", 0xD800 + (unit & 0x7FF))),
                6 => s.push_str(&format!("%u+{:03X}", unit & 0xFFF)),
                _ => s.push_str(&escape(text)),
            }
        }
        s
    }

    proptest::proptest! {
        #[test]
        fn unescape_matches_the_utf16_oracle(
            parts in proptest::collection::vec((0u8..8, proptest::any::<u16>(), "\\PC{0,4}"), 0..40)
        ) {
            let input = fragmented_input(&parts);
            proptest::prop_assert_eq!(unescape(&input), unescape_via_utf16(&input), "input {:?}", input);
        }

        #[test]
        fn unescape_matches_the_oracle_on_arbitrary_text(s in ".{0,200}") {
            proptest::prop_assert_eq!(unescape(&s), unescape_via_utf16(&s));
        }
    }

    #[test]
    fn oracle_agrees_on_fixed_edges() {
        for s in [
            "100%",
            "%zz",
            "%u12",
            "%u+041",
            "%uD83D%uDE00",
            "%uD83D",
            "a%",
            "%%u0041",
        ] {
            assert_eq!(unescape(s), unescape_via_utf16(s), "input {s:?}");
        }
    }
}
