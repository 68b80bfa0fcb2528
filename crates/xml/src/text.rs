//! Text handling: XML name validation, escaping, and entity resolution.

use crate::error::XmlError;

/// Returns `true` if `c` may start an XML name.
///
/// We implement the ASCII subset of the XML 1.0 name grammar plus a blanket
/// acceptance of non-ASCII characters; the data streams in the paper's domain
/// (astrophysics element names such as `det_time`) are ASCII.
pub fn is_name_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_' || c == ':' || !c.is_ascii()
}

/// Returns `true` if `c` may continue an XML name.
pub fn is_name_char(c: char) -> bool {
    is_name_start(c) || c.is_ascii_digit() || c == '-' || c == '.'
}

/// Validates a complete XML name.
pub fn validate_name(name: &str) -> Result<(), XmlError> {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if is_name_start(c) => {}
        _ => {
            return Err(XmlError::InvalidName {
                name: name.to_string(),
            })
        }
    }
    if chars.all(is_name_char) {
        Ok(())
    } else {
        Err(XmlError::InvalidName {
            name: name.to_string(),
        })
    }
}

/// Escapes text content for inclusion between tags.
///
/// Only `&`, `<`, and `>` need escaping in content; quotes are left intact
/// to keep serialized streams compact (they matter for the byte-size-based
/// cost model only insofar as both sides of a comparison use the same
/// serializer, which they do).
pub fn escape_text(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_text_into(s, &mut out);
    out
}

/// Escapes text content, appending to `out` to avoid intermediate allocations
/// on the serializer hot path.
pub fn escape_text_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            _ => out.push(c),
        }
    }
}

/// Number of bytes `s` occupies once escaped, without allocating. Counted
/// over bytes: no byte of a multi-byte UTF-8 character is ASCII, so only
/// the three escaped characters grow.
pub fn escaped_len(s: &str) -> usize {
    s.len()
        + s.bytes()
            .map(|b| match b {
                b'&' => 4,
                b'<' | b'>' => 3,
                _ => 0,
            })
            .sum::<usize>()
}

/// Resolves a single entity body (the part between `&` and `;`).
pub fn resolve_entity(entity: &str) -> Result<char, XmlError> {
    match entity {
        "lt" => Ok('<'),
        "gt" => Ok('>'),
        "amp" => Ok('&'),
        "quot" => Ok('"'),
        "apos" => Ok('\''),
        _ => {
            if let Some(rest) = entity
                .strip_prefix("#x")
                .or_else(|| entity.strip_prefix("#X"))
            {
                u32::from_str_radix(rest, 16)
                    .ok()
                    .and_then(char::from_u32)
                    .ok_or_else(|| XmlError::UnknownEntity {
                        entity: entity.to_string(),
                    })
            } else if let Some(rest) = entity.strip_prefix('#') {
                rest.parse::<u32>()
                    .ok()
                    .and_then(char::from_u32)
                    .ok_or_else(|| XmlError::UnknownEntity {
                        entity: entity.to_string(),
                    })
            } else {
                Err(XmlError::UnknownEntity {
                    entity: entity.to_string(),
                })
            }
        }
    }
}

/// Unescapes text content, resolving the predefined and numeric entities.
pub fn unescape_text(s: &str) -> Result<String, XmlError> {
    if !s.contains('&') {
        return Ok(s.to_string());
    }
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(pos) = rest.find('&') {
        out.push_str(&rest[..pos]);
        rest = &rest[pos + 1..];
        let end = rest.find(';').ok_or(XmlError::UnexpectedEof)?;
        out.push(resolve_entity(&rest[..end])?);
        rest = &rest[end + 1..];
    }
    out.push_str(rest);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_validation_accepts_paper_names() {
        for name in [
            "photon", "det_time", "coord", "cel", "ra", "dec", "phc", "en", "avg_en",
        ] {
            assert!(validate_name(name).is_ok(), "{name} should be valid");
        }
    }

    #[test]
    fn name_validation_rejects_bad_names() {
        for name in ["", "1abc", "-x", ".y", "a b", "<tag>"] {
            assert!(validate_name(name).is_err(), "{name:?} should be invalid");
        }
    }

    #[test]
    fn names_may_contain_digits_after_first_char() {
        assert!(validate_name("rxj0852").is_ok());
        assert!(validate_name("a-b.c_d").is_ok());
    }

    #[test]
    fn escape_round_trips() {
        let raw = "a < b && c > d";
        let escaped = escape_text(raw);
        assert_eq!(escaped, "a &lt; b &amp;&amp; c &gt; d");
        assert_eq!(unescape_text(&escaped).unwrap(), raw);
    }

    #[test]
    fn escaped_len_matches_escape() {
        for s in ["", "plain", "a<b", "&&&", "1.25", "ünïcode <&>"] {
            assert_eq!(escaped_len(s), escape_text(s).len(), "for {s:?}");
        }
    }

    #[test]
    fn numeric_entities_resolve() {
        assert_eq!(resolve_entity("#65").unwrap(), 'A');
        assert_eq!(resolve_entity("#x41").unwrap(), 'A');
        assert_eq!(resolve_entity("#x2603").unwrap(), '☃');
    }

    #[test]
    fn unknown_entities_error() {
        assert!(matches!(
            resolve_entity("nbsp"),
            Err(XmlError::UnknownEntity { .. })
        ));
        assert!(matches!(
            resolve_entity("#xzz"),
            Err(XmlError::UnknownEntity { .. })
        ));
    }

    #[test]
    fn unescape_handles_mixed_content() {
        assert_eq!(unescape_text("x &amp; y &#33;").unwrap(), "x & y !");
        assert_eq!(unescape_text("no entities").unwrap(), "no entities");
    }

    #[test]
    fn unescape_detects_unterminated_entity() {
        assert_eq!(unescape_text("oops &amp"), Err(XmlError::UnexpectedEof));
    }
}
