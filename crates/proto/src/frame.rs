//! Frame layer: every message travels as one length-prefixed, CRC-guarded
//! frame so a reader can always tell a torn or corrupted transmission from
//! a clean close.
//!
//! ```text
//! +-------------+-------------+=====================+
//! | len: u32 LE | crc: u32 LE |  payload (len bytes)|
//! +-------------+-------------+=====================+
//! ```
//!
//! `len` counts payload bytes only; `crc` is the CRC-32 of the payload.
//! A length prefix above [`MAX_FRAME_LEN`] is rejected *before* any
//! allocation, so a corrupted or hostile prefix can never balloon memory.
//!
//! Both directions work in a caller's buffer: [`write_frame_in`] has the
//! payload built in place behind the header, in a buffer a connection
//! reuses for every frame it sends, and [`read_frame_into`] reads into one
//! it reuses for every frame it receives — a relayed item batch is copied
//! once, from the one into the other.

use std::io::{self, Read, Write};

use crate::crc::crc32;
use crate::ProtoError;

/// Upper bound on a frame payload (16 MiB). Far above any legitimate
/// message: the data plane caps an item batch at 64 items
/// (`dss_server::data::BATCH_CAP`) whether it is live traffic, an
/// end-of-stream flush or a recovery resend, and control messages carry
/// one query text or one telemetry snapshot.
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

/// Bytes of frame header: `len` + `crc`.
const HEADER_LEN: usize = 8;

/// Writes one frame. The payload is flushed as a single header+body write
/// so small messages don't straddle TCP segments unnecessarily.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), ProtoError> {
    write_frame_with(w, |buf| buf.extend_from_slice(payload))
}

/// Writes one frame whose payload `fill` appends to the buffer it is
/// given: the payload is built in place behind a header placeholder and
/// the header patched afterwards, so a message is encoded straight into
/// the one buffer that goes to the writer.
pub fn write_frame_with(
    w: &mut impl Write,
    fill: impl FnOnce(&mut Vec<u8>),
) -> Result<(), ProtoError> {
    write_frame_in(w, &mut Vec::with_capacity(64), fill)
}

/// [`write_frame_with`] in a buffer the caller keeps: `buf`'s contents are
/// replaced by the frame, which stays there after it is written — a
/// connection's writer reuses one buffer for every frame it sends.
pub fn write_frame_in(
    w: &mut impl Write,
    buf: &mut Vec<u8>,
    fill: impl FnOnce(&mut Vec<u8>),
) -> Result<(), ProtoError> {
    buf.clear();
    buf.extend_from_slice(&[0; HEADER_LEN]);
    fill(buf);
    let (header, payload) = buf.split_at_mut(HEADER_LEN);
    if payload.len() as u64 > MAX_FRAME_LEN as u64 {
        return Err(ProtoError::TooLarge {
            len: payload.len() as u64,
        });
    }
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    w.write_all(buf).map_err(ProtoError::Io)?;
    w.flush().map_err(ProtoError::Io)
}

/// Reads one frame payload into a fresh buffer — [`read_frame_into`] for
/// a caller that keeps what it reads.
///
/// Returns `Ok(None)` on a clean end-of-stream (the peer closed between
/// frames). End-of-stream *inside* a frame — a torn write — is
/// [`ProtoError::Truncated`]; a payload whose CRC does not match its
/// header is [`ProtoError::BadCrc`].
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, ProtoError> {
    let mut payload = Vec::new();
    Ok(read_frame_into(r, &mut payload)?.then_some(payload))
}

/// Reads one frame payload into `payload`, replacing its contents — a
/// connection's reader reuses one buffer for every frame it receives.
/// `Ok(false)` is a clean end-of-stream; errors as for [`read_frame`],
/// after which the buffer's contents are unspecified.
pub fn read_frame_into(r: &mut impl Read, payload: &mut Vec<u8>) -> Result<bool, ProtoError> {
    let mut header = [0u8; HEADER_LEN];
    // Distinguish "closed between frames" from "closed mid-header".
    let mut got = 0;
    while got < header.len() {
        match r.read(&mut header[got..]) {
            Ok(0) => {
                return if got == 0 {
                    Ok(false)
                } else {
                    Err(ProtoError::Truncated)
                };
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ProtoError::Io(e)),
        }
    }
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
    let expected_crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    if len > MAX_FRAME_LEN {
        return Err(ProtoError::TooLarge { len: len as u64 });
    }
    payload.resize(len as usize, 0);
    match r.read_exact(payload) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
            return Err(ProtoError::Truncated);
        }
        Err(e) => return Err(ProtoError::Io(e)),
    }
    let found = crc32(payload);
    if found != expected_crc {
        return Err(ProtoError::BadCrc {
            expected: expected_crc,
            found,
        });
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b"hello"[..]));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b""[..]));
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn payload_built_in_place_frames_like_a_copied_one() {
        let (mut copied, mut in_place) = (Vec::new(), Vec::new());
        write_frame(&mut copied, b"payload").unwrap();
        write_frame_with(&mut in_place, |buf| {
            buf.extend_from_slice(b"pay");
            buf.extend_from_slice(b"load");
        })
        .unwrap();
        assert_eq!(in_place, copied);
        let mut r = &in_place[..];
        assert_eq!(
            read_frame(&mut r).unwrap().as_deref(),
            Some(&b"payload"[..])
        );
    }

    #[test]
    fn torn_write_is_truncated_not_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload").unwrap();
        for cut in 1..buf.len() {
            let mut r = &buf[..cut];
            match read_frame(&mut r) {
                Err(ProtoError::Truncated) => {}
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn corrupted_payload_is_bad_crc() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload").unwrap();
        buf[10] ^= 0x01;
        let mut r = &buf[..];
        assert!(matches!(read_frame(&mut r), Err(ProtoError::BadCrc { .. })));
    }

    #[test]
    fn oversized_length_prefix_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        let mut r = &buf[..];
        assert!(matches!(
            read_frame(&mut r),
            Err(ProtoError::TooLarge { len }) if len == u32::MAX as u64
        ));
    }
}
