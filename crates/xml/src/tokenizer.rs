//! Incremental, byte-level XML tokenizer.
//!
//! The tokenizer is push/pull hybrid: callers [`feed`](Tokenizer::feed) it
//! arbitrary byte chunks (e.g. as they arrive over a network connection in
//! the simulator) and repeatedly call [`next_event`](Tokenizer::next_event),
//! which returns `Ok(None)` whenever more input is required to complete the
//! next construct. This makes it usable on unbounded streams — the paper's
//! data streams are "possibly infinite".
//!
//! Supported constructs: start/end/self-closing tags with attributes, text
//! with entity references, CDATA sections, comments, processing
//! instructions, the XML declaration, and DOCTYPE (with internal subset).
//! Comments/PIs/declarations are consumed silently. Whitespace-only text is
//! dropped, matching the paper's element-only data model (no mixed content).

use crate::error::XmlError;
use crate::event::XmlEvent;
use crate::name::Symbol;
use crate::text;

/// Incremental XML tokenizer. See the module docs.
#[derive(Debug, Default)]
pub struct Tokenizer {
    buf: Vec<u8>,
    /// Consumed prefix of `buf`.
    pos: usize,
    /// Absolute stream offset of `buf[0]` (for error messages).
    base: usize,
    /// Synthesized end event for a self-closing tag, delivered next.
    pending: Option<XmlEvent>,
    /// Where the scan of the construct at `pos` stopped for want of input.
    resume: Resume,
    eof: bool,
}

/// How far the construct at the read position was scanned without finding
/// its end, and the scanner's state there. Input fed later resumes the
/// scan instead of repeating it, so a construct that arrives in `k` pieces
/// is scanned once, not `k` times.
#[derive(Debug, Default, Clone, Copy)]
struct Resume {
    /// Bytes past the read position already scanned.
    at: usize,
    /// The quote a start tag's scan is inside.
    quote: Option<u8>,
    /// A DOCTYPE's open `[` brackets.
    depth: usize,
}

/// Outcome of scanning for one construct.
enum Scan {
    /// A complete event, plus the buffer length just past it.
    Event(XmlEvent, usize),
    /// A self-closing tag: start event, synthesized end event, consumed len.
    Pair(XmlEvent, XmlEvent, usize),
    /// A complete construct that produces no event (comment, PI, …).
    Skip(usize),
    /// Not enough buffered input to finish the construct; where to resume.
    NeedMore(Resume),
}

impl Tokenizer {
    /// Creates an empty tokenizer.
    pub fn new() -> Tokenizer {
        Tokenizer::default()
    }

    /// Creates a tokenizer over a complete in-memory document.
    // Not the FromStr trait: construction is infallible and the name is
    // the natural dual of `feed`/`finish`.
    #[allow(clippy::should_implement_trait)]
    pub fn from_str(input: &str) -> Tokenizer {
        let mut t = Tokenizer::new();
        t.feed(input.as_bytes());
        t.finish();
        t
    }

    /// Appends input bytes.
    ///
    /// # Panics
    /// Panics if called after [`finish`](Tokenizer::finish).
    pub fn feed(&mut self, bytes: &[u8]) {
        assert!(!self.eof, "feed after finish");
        if self.pos == self.buf.len() {
            // Steady-state fast path: the previous chunk was fully consumed,
            // so the buffer's capacity is reused with no memmove at all.
            self.base += self.pos;
            self.buf.clear();
            self.pos = 0;
        } else {
            self.compact();
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Signals end of input. Subsequent `next_event` calls drain the
    /// remaining complete constructs, then report `Ok(None)`; a dangling
    /// partial construct yields [`XmlError::UnexpectedEof`].
    pub fn finish(&mut self) {
        self.eof = true;
    }

    /// `true` once `finish` has been called and all input was consumed.
    pub fn is_done(&self) -> bool {
        self.eof
            && self.pending.is_none()
            && self.remaining().iter().all(|b| b.is_ascii_whitespace())
    }

    fn remaining(&self) -> &[u8] {
        &self.buf[self.pos..]
    }

    /// Drops consumed bytes once they dominate the buffer, keeping memory
    /// bounded on infinite streams.
    fn compact(&mut self) {
        if self.pos > 4096 && self.pos * 2 >= self.buf.len() {
            self.base += self.pos;
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }

    fn abs(&self, rel: usize) -> usize {
        self.base + self.pos + rel
    }

    fn syntax(&self, rel: usize, message: impl Into<String>) -> XmlError {
        XmlError::Syntax {
            message: message.into(),
            offset: self.abs(rel),
        }
    }

    /// Returns the next event; `Ok(None)` means "need more input" before
    /// [`finish`](Self::finish), and "cleanly exhausted" after it.
    pub fn next_event(&mut self) -> Result<Option<XmlEvent>, XmlError> {
        if let Some(ev) = self.pending.take() {
            return Ok(Some(ev));
        }
        loop {
            let scan = self.scan()?;
            self.resume = Resume::default();
            match scan {
                Scan::Event(ev, end) => {
                    self.pos += end;
                    return Ok(Some(ev));
                }
                Scan::Pair(start, end_ev, end) => {
                    self.pos += end;
                    self.pending = Some(end_ev);
                    return Ok(Some(start));
                }
                Scan::Skip(end) => {
                    self.pos += end;
                }
                Scan::NeedMore(resume) => {
                    if !self.eof {
                        self.resume = resume;
                        return Ok(None);
                    }
                    let rem = self.remaining();
                    if rem.iter().all(|b| b.is_ascii_whitespace()) {
                        self.pos = self.buf.len();
                        return Ok(None);
                    }
                    if !rem.contains(&b'<') {
                        // Trailing text at EOF (callers decide whether it is
                        // legal — the reader treats it as trailing content).
                        let raw = std::str::from_utf8(rem)
                            .map_err(|_| self.syntax(0, "invalid UTF-8 in text"))?;
                        let t = text::unescape_text(raw.trim())?;
                        self.pos = self.buf.len();
                        return Ok(Some(XmlEvent::Text(t)));
                    }
                    return Err(XmlError::UnexpectedEof);
                }
            }
        }
    }

    /// Scans one construct at the current position without consuming it.
    fn scan(&self) -> Result<Scan, XmlError> {
        let rem = self.remaining();
        if rem.is_empty() {
            return Ok(Scan::NeedMore(Resume::default()));
        }
        if rem[0] == b'<' {
            if rem.len() < 2 {
                return Ok(Scan::NeedMore(Resume::default()));
            }
            match rem[1] {
                b'/' => self.scan_end_tag(rem),
                b'?' => Ok(self.scan_until(rem, 2, b"?>")),
                b'!' => self.scan_bang(rem),
                _ => self.scan_start_tag(rem),
            }
        } else {
            self.scan_text(rem)
        }
    }

    /// The first `byte` in `rem` from where the last scan stopped, or where
    /// to resume.
    fn find_byte(&self, rem: &[u8], byte: u8) -> Result<usize, Resume> {
        let from = self.resume.at;
        match rem[from..].iter().position(|&b| b == byte) {
            Some(i) => Ok(from + i),
            None => Err(Resume {
                at: rem.len(),
                ..Resume::default()
            }),
        }
    }

    /// Text up to the next `<`. Whitespace-only runs are skipped.
    fn scan_text(&self, rem: &[u8]) -> Result<Scan, XmlError> {
        let end = match self.find_byte(rem, b'<') {
            Ok(end) => end,
            Err(resume) => return Ok(Scan::NeedMore(resume)),
        };
        let raw = std::str::from_utf8(&rem[..end])
            .map_err(|_| self.syntax(0, "invalid UTF-8 in text"))?;
        let trimmed = raw.trim();
        if trimmed.is_empty() {
            Ok(Scan::Skip(end))
        } else {
            Ok(Scan::Event(
                XmlEvent::Text(text::unescape_text(trimmed)?),
                end,
            ))
        }
    }

    /// `<!--…-->`, `<![CDATA[…]]>`, or `<!DOCTYPE …>` (with internal subset).
    fn scan_bang(&self, rem: &[u8]) -> Result<Scan, XmlError> {
        const CDATA: &[u8] = b"<![CDATA[";
        if rem.len() < 4 && (b"<!--".starts_with(rem) || CDATA.starts_with(rem)) {
            return Ok(Scan::NeedMore(Resume::default()));
        }
        if rem.starts_with(b"<!--") {
            return Ok(self.scan_until(rem, 4, b"-->"));
        }
        if rem.starts_with(CDATA) || (rem.len() < CDATA.len() && CDATA.starts_with(rem)) {
            let close = match self.scan_until(rem, CDATA.len(), b"]]>") {
                Scan::Skip(consumed) => consumed - 3,
                need_more => return Ok(need_more),
            };
            let raw = std::str::from_utf8(&rem[CDATA.len()..close])
                .map_err(|_| self.syntax(CDATA.len(), "invalid UTF-8 in CDATA"))?;
            let consumed = close + 3;
            if raw.trim().is_empty() {
                return Ok(Scan::Skip(consumed));
            }
            return Ok(Scan::Event(XmlEvent::Text(raw.to_string()), consumed));
        }
        // DOCTYPE (or any other <!…>): skip to the matching '>', honouring a
        // bracketed internal subset.
        let mut depth = self.resume.depth;
        for (i, &b) in rem.iter().enumerate().skip(self.resume.at.max(2)) {
            match b {
                b'[' => depth += 1,
                b']' => depth = depth.saturating_sub(1),
                b'>' if depth == 0 => return Ok(Scan::Skip(i + 1)),
                _ => {}
            }
        }
        Ok(Scan::NeedMore(Resume {
            at: rem.len(),
            depth,
            ..Resume::default()
        }))
    }

    /// Generic "skip to closing delimiter" used for comments, PIs and
    /// CDATA: the construct's body starts at `from`.
    fn scan_until(&self, rem: &[u8], from: usize, close: &[u8]) -> Scan {
        // A delimiter may straddle where the last scan stopped.
        let from = from.max((self.resume.at + 1).saturating_sub(close.len()));
        if rem.len() <= from {
            return Scan::NeedMore(self.resume);
        }
        match find(&rem[from..], close) {
            Some(i) => Scan::Skip(from + i + close.len()),
            None => Scan::NeedMore(Resume {
                at: rem.len(),
                ..Resume::default()
            }),
        }
    }

    fn scan_end_tag(&self, rem: &[u8]) -> Result<Scan, XmlError> {
        let gt = match self.find_byte(rem, b'>') {
            Ok(gt) => gt,
            Err(resume) => return Ok(Scan::NeedMore(resume)),
        };
        let inner = std::str::from_utf8(&rem[2..gt])
            .map_err(|_| self.syntax(2, "invalid UTF-8 in end tag"))?;
        let name = text::name_symbol(inner.trim())?;
        Ok(Scan::Event(XmlEvent::EndElement { name }, gt + 1))
    }

    fn scan_start_tag(&self, rem: &[u8]) -> Result<Scan, XmlError> {
        // The whole tag must be buffered: find '>' outside quotes.
        let mut quote = self.resume.quote;
        let mut gt = None;
        for (i, &b) in rem.iter().enumerate().skip(self.resume.at.max(1)) {
            match (quote, b) {
                (Some(q), _) if b == q => quote = None,
                (Some(_), _) => {}
                (None, b'"') | (None, b'\'') => quote = Some(b),
                (None, b'>') => {
                    gt = Some(i);
                    break;
                }
                _ => {}
            }
        }
        let Some(gt) = gt else {
            return Ok(Scan::NeedMore(Resume {
                at: rem.len(),
                quote,
                ..Resume::default()
            }));
        };
        let self_closing = gt >= 2 && rem[gt - 1] == b'/';
        let body_end = if self_closing { gt - 1 } else { gt };
        let body = std::str::from_utf8(&rem[1..body_end])
            .map_err(|_| self.syntax(1, "invalid UTF-8 in start tag"))?;
        let (name, attributes) = self.parse_tag_body(body)?;
        let start = XmlEvent::StartElement { name, attributes };
        if self_closing {
            Ok(Scan::Pair(start, XmlEvent::EndElement { name }, gt + 1))
        } else {
            Ok(Scan::Event(start, gt + 1))
        }
    }

    /// Parses `name attr="v" …` (the inside of a start tag).
    fn parse_tag_body(&self, body: &str) -> Result<(Symbol, Vec<(Symbol, String)>), XmlError> {
        let name_end = body.find(char::is_whitespace).unwrap_or(body.len());
        let name = text::name_symbol(&body[..name_end])?;
        let mut attributes = Vec::new();
        let mut s = body[name_end..].trim_start();
        while !s.is_empty() {
            let eq = s
                .find('=')
                .ok_or_else(|| self.syntax(0, "attribute without value"))?;
            let attr_name = text::name_symbol(s[..eq].trim())?;
            let after = s[eq + 1..].trim_start();
            let quote = after
                .chars()
                .next()
                .filter(|&c| c == '"' || c == '\'')
                .ok_or_else(|| self.syntax(0, "unquoted attribute value"))?;
            let after = &after[1..];
            let close = after
                .find(quote)
                .ok_or_else(|| self.syntax(0, "unterminated attribute value"))?;
            attributes.push((attr_name, text::unescape_text(&after[..close])?));
            s = after[close + 1..].trim_start();
        }
        Ok((name, attributes))
    }
}

/// Finds `needle` in `haystack`, returning the start index.
fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    if needle.is_empty() || haystack.len() < needle.len() {
        return None;
    }
    haystack.windows(needle.len()).position(|w| w == needle)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_events(input: &str) -> Vec<XmlEvent> {
        let mut t = Tokenizer::from_str(input);
        let mut out = Vec::new();
        while let Some(ev) = t.next_event().unwrap() {
            out.push(ev);
        }
        out
    }

    #[test]
    fn simple_element() {
        assert_eq!(
            all_events("<ra>120.5</ra>"),
            vec![
                XmlEvent::start("ra"),
                XmlEvent::text("120.5"),
                XmlEvent::end("ra")
            ]
        );
    }

    #[test]
    fn nested_photon_structure() {
        let events = all_events("<photon><coord><cel><ra>120.5</ra></cel></coord></photon>");
        assert_eq!(events.len(), 9);
        assert_eq!(events[0], XmlEvent::start("photon"));
        assert_eq!(events[8], XmlEvent::end("photon"));
    }

    #[test]
    fn whitespace_between_tags_is_dropped() {
        let events = all_events("<a>\n  <b>1</b>\n  <c>2</c>\n</a>");
        assert_eq!(
            events,
            vec![
                XmlEvent::start("a"),
                XmlEvent::start("b"),
                XmlEvent::text("1"),
                XmlEvent::end("b"),
                XmlEvent::start("c"),
                XmlEvent::text("2"),
                XmlEvent::end("c"),
                XmlEvent::end("a"),
            ]
        );
    }

    #[test]
    fn self_closing_expands_to_pair() {
        assert_eq!(
            all_events("<t/>"),
            vec![XmlEvent::start("t"), XmlEvent::end("t")]
        );
        assert_eq!(
            all_events("<a><b/><c/></a>"),
            vec![
                XmlEvent::start("a"),
                XmlEvent::start("b"),
                XmlEvent::end("b"),
                XmlEvent::start("c"),
                XmlEvent::end("c"),
                XmlEvent::end("a"),
            ]
        );
    }

    #[test]
    fn attributes_are_parsed() {
        let events = all_events(r#"<p id="7" kind='x y'>v</p>"#);
        assert_eq!(
            events[0],
            XmlEvent::StartElement {
                name: "p".into(),
                attributes: vec![("id".into(), "7".into()), ("kind".into(), "x y".into())],
            }
        );
    }

    #[test]
    fn attribute_value_may_contain_gt() {
        let events = all_events(r#"<p expr="a > b">v</p>"#);
        assert_eq!(
            events[0],
            XmlEvent::StartElement {
                name: "p".into(),
                attributes: vec![("expr".into(), "a > b".into())],
            }
        );
    }

    #[test]
    fn entities_in_text() {
        assert_eq!(
            all_events("<t>a &lt; b &amp; c</t>")[1],
            XmlEvent::text("a < b & c")
        );
    }

    #[test]
    fn comments_pis_doctype_skipped() {
        let events = all_events(
            "<?xml version=\"1.0\"?><!DOCTYPE photons [<!ELEMENT x (y)>]>\
             <!-- survey --><t>1</t><!-- end -->",
        );
        assert_eq!(
            events,
            vec![
                XmlEvent::start("t"),
                XmlEvent::text("1"),
                XmlEvent::end("t")
            ]
        );
    }

    #[test]
    fn cdata_becomes_text() {
        assert_eq!(
            all_events("<t><![CDATA[a <raw> & b]]></t>")[1],
            XmlEvent::text("a <raw> & b")
        );
    }

    #[test]
    fn incremental_feeding_across_construct_boundaries() {
        let doc = "<photons><photon><en>1.3</en></photon></photons>";
        // Feed a single byte at a time; events must come out identically.
        let mut t = Tokenizer::new();
        let mut events = Vec::new();
        for b in doc.bytes() {
            t.feed(&[b]);
            while let Some(ev) = t.next_event().unwrap() {
                events.push(ev);
            }
        }
        t.finish();
        while let Some(ev) = t.next_event().unwrap() {
            events.push(ev);
        }
        assert_eq!(events, all_events(doc));
        assert!(t.is_done());
    }

    #[test]
    fn need_more_before_finish() {
        let mut t = Tokenizer::new();
        t.feed(b"<photon><en>1.");
        assert_eq!(t.next_event().unwrap(), Some(XmlEvent::start("photon")));
        assert_eq!(t.next_event().unwrap(), Some(XmlEvent::start("en")));
        assert_eq!(t.next_event().unwrap(), None); // text not terminated yet
        t.feed(b"3</en>");
        assert_eq!(t.next_event().unwrap(), Some(XmlEvent::text("1.3")));
        assert_eq!(t.next_event().unwrap(), Some(XmlEvent::end("en")));
    }

    #[test]
    fn truncated_tag_at_eof_errors() {
        let mut t = Tokenizer::new();
        t.feed(b"<photon><en");
        t.finish();
        assert_eq!(t.next_event().unwrap(), Some(XmlEvent::start("photon")));
        assert_eq!(t.next_event(), Err(XmlError::UnexpectedEof));
    }

    #[test]
    fn bad_names_are_rejected() {
        let mut t = Tokenizer::from_str("<1bad>x</1bad>");
        assert!(matches!(t.next_event(), Err(XmlError::InvalidName { .. })));
    }

    #[test]
    fn unknown_entity_is_an_error() {
        let mut t = Tokenizer::from_str("<t>&nope;</t>");
        t.next_event().unwrap(); // <t>
        assert!(matches!(
            t.next_event(),
            Err(XmlError::UnknownEntity { .. })
        ));
    }

    #[test]
    fn long_stream_compacts_buffer() {
        let mut t = Tokenizer::new();
        let item = "<photon><en>1.3</en></photon>";
        let mut n = 0;
        for _ in 0..2000 {
            t.feed(item.as_bytes());
            while let Some(_ev) = t.next_event().unwrap() {
                n += 1;
            }
        }
        assert_eq!(n, 2000 * 5);
        // The buffer must not have grown to hold the whole stream.
        assert!(
            t.buf.len() < 8 * item.len() + 8192,
            "buffer grew to {}",
            t.buf.len()
        );
    }

    #[test]
    fn constructs_split_across_feeds() {
        // Comments, CDATA, and DOCTYPE split at awkward byte positions.
        let doc = "<?xml version=\"1.0\"?><!DOCTYPE s [<!ELEMENT x (y)>]>\
                   <s><!-- com--ment --><i><![CDATA[a <b> c]]></i></s>";
        let whole = {
            let mut t = Tokenizer::from_str(doc);
            let mut out = Vec::new();
            while let Some(ev) = t.next_event().unwrap() {
                out.push(ev);
            }
            out
        };
        for chunk in [1usize, 2, 3, 5, 7] {
            let mut t = Tokenizer::new();
            let mut out = Vec::new();
            for piece in doc.as_bytes().chunks(chunk) {
                t.feed(piece);
                while let Some(ev) = t.next_event().unwrap() {
                    out.push(ev);
                }
            }
            t.finish();
            while let Some(ev) = t.next_event().unwrap() {
                out.push(ev);
            }
            assert_eq!(out, whole, "chunk size {chunk}");
        }
        assert_eq!(whole[2], XmlEvent::text("a <b> c"));
    }

    #[test]
    fn multibyte_utf8_split_across_feeds() {
        let doc = "<s><t>αβγ☃</t></s>";
        let mut t = Tokenizer::new();
        let mut out = Vec::new();
        for piece in doc.as_bytes().chunks(1) {
            t.feed(piece);
            while let Some(ev) = t.next_event().unwrap() {
                out.push(ev);
            }
        }
        t.finish();
        while let Some(ev) = t.next_event().unwrap() {
            out.push(ev);
        }
        assert_eq!(out[2], XmlEvent::text("αβγ☃"));
    }

    #[test]
    fn empty_input_is_done() {
        let mut t = Tokenizer::from_str("   \n ");
        assert_eq!(t.next_event().unwrap(), None);
        assert!(t.is_done());
    }

    /// A document exercising every construct the tokenizer knows: prolog,
    /// DOCTYPE with internal subset, comments (including `--` inside),
    /// attributes with both quote styles and `>` in values, self-closing
    /// tags, entities, CDATA, and multibyte UTF-8 — so that any split
    /// position lands inside something interesting.
    fn adversarial_doc() -> String {
        let mut doc = String::from(
            "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\
             <!DOCTYPE stream [<!ELEMENT photon (en)>]>\
             <stream source='rosat &amp; chandra'>",
        );
        for i in 0..40 {
            doc.push_str(&format!(
                "<!-- item {i} --><photon id=\"p{i}\" expr=\"a > b\">\
                 <tag/><en>1.{i}</en><note>&lt;α☃β&gt; &amp; more</note>\
                 <raw><![CDATA[<not> & a tag]]></raw></photon>",
            ));
        }
        doc.push_str("</stream>");
        doc
    }

    fn collect_all(t: &mut Tokenizer) -> Vec<XmlEvent> {
        let mut out = Vec::new();
        while let Some(ev) = t.next_event().unwrap() {
            out.push(ev);
        }
        out
    }

    #[test]
    fn adversarial_one_byte_chunks() {
        let doc = adversarial_doc();
        let whole = all_events(&doc);
        let mut t = Tokenizer::new();
        let mut out = Vec::new();
        for b in doc.bytes() {
            t.feed(&[b]);
            out.extend(collect_all(&mut t));
        }
        t.finish();
        out.extend(collect_all(&mut t));
        assert_eq!(out, whole);
        assert!(t.is_done());
    }

    #[test]
    fn adversarial_random_chunks() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let doc = adversarial_doc();
        let whole = all_events(&doc);
        assert!(!whole.is_empty());
        for seed in 0..20u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut t = Tokenizer::new();
            let mut out = Vec::new();
            let bytes = doc.as_bytes();
            let mut pos = 0;
            while pos < bytes.len() {
                // Heavily favor tiny chunks so splits land mid-construct.
                let n = if rng.gen_bool(0.7) {
                    rng.gen_range(1usize..4)
                } else {
                    rng.gen_range(4usize..64)
                };
                let end = (pos + n).min(bytes.len());
                t.feed(&bytes[pos..end]);
                pos = end;
                out.extend(collect_all(&mut t));
            }
            t.finish();
            out.extend(collect_all(&mut t));
            assert_eq!(out, whole, "seed {seed}");
            assert!(t.is_done(), "seed {seed}");
        }
    }

    #[test]
    fn entities_and_self_closing_straddle_chunks() {
        // Split exactly inside `&amp;`, inside `<t/>`, and inside `&lt;`.
        let doc = "<s><t/>a &amp; b<u>&lt;x&gt;</u></s>";
        let whole = all_events(doc);
        for split in 1..doc.len() {
            let (a, b) = doc.as_bytes().split_at(split);
            let mut t = Tokenizer::new();
            let mut out = Vec::new();
            t.feed(a);
            out.extend(collect_all(&mut t));
            t.feed(b);
            t.finish();
            out.extend(collect_all(&mut t));
            assert_eq!(out, whole, "split at byte {split}");
        }
    }
}
