//! Connection plumbing shared by server and client: a write-locked framed
//! sender plus the three socket loops — accept ([`accept_loop`]), read
//! ([`read_loop`]) and dial ([`connect`]). All three block in the kernel:
//! a dial is answered as soon as the acceptor thread is scheduled, a frame
//! is dispatched as soon as it is read, and only a *refused* dial (the
//! remote has not bound yet) waits, on a back-off. One TCP connection per
//! *directed* peer pair; everything a process sends on a connection goes
//! out in call order (the writer mutex serializes frames), and the single
//! reader thread on the other end dispatches in arrival order — together
//! that is the per-flow FIFO the byte-exactness argument rests on.
//!
//! The read loop reads every frame into one buffer it reuses and hands
//! item batches on as framed [`BatchView`]s over that buffer, not as
//! trees ([`Incoming`]): whether anything is read and materialised is up
//! to the handler. [`Conn::send_batch`] is the matching way out — a header in
//! front of an item list the caller writes, which for a relayed batch is
//! a copy of the bytes it received — built in a buffer the connection
//! reuses too. Neither buffer keeps more than [`FRAME_BUF_KEEP`] bytes of
//! capacity past the frame that needed it.

use std::io::{BufReader, Read};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dss_proto::{
    read_frame_into, read_message, write_frame_in, BatchHeader, BatchView, DecodeError, Message,
    ProtoError, Role, VERSION_MAX, VERSION_MIN,
};

use crate::ServerError;

/// A connected endpoint: shared, thread-safe framed writer. The read half
/// is owned by exactly one reader thread (see `read_loop`).
#[derive(Debug)]
pub struct Conn {
    /// Remote display name (from its Hello / HelloAck).
    pub name: String,
    writer: Mutex<Writer>,
    stream: TcpStream,
}

/// The write half, unbuffered: each frame is built whole in `frame` and
/// handed over as one write. The buffer is reused for every frame the
/// connection sends, under the lock that orders them.
#[derive(Debug)]
struct Writer {
    stream: TcpStream,
    frame: Vec<u8>,
}

/// Capacity a connection's reused frame buffers keep between frames. A
/// data-plane batch (at most 64 items, a few KiB) fits many times over;
/// after a larger frame the capacity is given back, so one 16 MiB frame
/// does not pin 16 MiB for the connection's life.
const FRAME_BUF_KEEP: usize = 64 * 1024;

/// Gives back the capacity a frame above [`FRAME_BUF_KEEP`] left behind.
fn trim(buf: &mut Vec<u8>) {
    if buf.capacity() > FRAME_BUF_KEEP {
        buf.clear();
        buf.shrink_to(FRAME_BUF_KEEP);
    }
}

impl Conn {
    pub fn new(stream: TcpStream, name: String) -> std::io::Result<Conn> {
        let w = stream.try_clone()?;
        Ok(Conn {
            name,
            writer: Mutex::new(Writer {
                stream: w,
                frame: Vec::new(),
            }),
            stream,
        })
    }

    /// Sends one framed message (serialized with concurrent senders).
    pub fn send(&self, msg: &Message) -> Result<(), ProtoError> {
        self.send_frame(|buf| msg.encode_into(buf))
    }

    /// Sends one framed `StreamItemBatch` or `Deliver`: `header`, then the
    /// item list (count, then the items) as `items` writes it.
    pub(crate) fn send_batch(
        &self,
        header: &BatchHeader<'_>,
        items: impl FnOnce(&mut Vec<u8>),
    ) -> Result<(), ProtoError> {
        self.send_frame(|buf| {
            header.encode_into(buf);
            items(buf);
        })
    }

    /// Sends the frame whose payload `fill` writes, built in the reused
    /// buffer.
    fn send_frame(&self, fill: impl FnOnce(&mut Vec<u8>)) -> Result<(), ProtoError> {
        let mut w = self
            .writer
            .lock()
            .expect("a sender panicked while holding the writer");
        let Writer { stream, frame } = &mut *w;
        let sent = write_frame_in(stream, frame, fill);
        trim(frame);
        sent
    }

    /// Forces the peer's reader out of its blocking read (used on exit).
    pub fn hangup(&self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }
}

/// One received frame, as [`read_loop`] hands it on.
pub enum Incoming<'a> {
    /// A `StreamItemBatch` or `Deliver`: framed, its items still the
    /// unread bytes in the connection's read buffer.
    Batch(BatchView<'a>),
    /// Any other message, decoded.
    Message(Message),
}

impl Incoming<'_> {
    /// The owned message, materialising a batch — for a receiver that
    /// consumes every item it is sent (the client). This is where such a
    /// receiver finds a malformed item.
    pub fn into_message(self) -> Result<Message, DecodeError> {
        match self {
            Incoming::Batch(view) => view.materialise(),
            Incoming::Message(msg) => Ok(msg),
        }
    }
}

/// Reads frames until close/error, handing each to `handle`; `handle`
/// returns `false` to stop. Returns the terminating error, if any. Takes
/// the `BufReader` (not the raw stream) so bytes buffered during the
/// handshake are never lost.
pub fn read_loop(
    mut r: BufReader<TcpStream>,
    handle: impl FnMut(Incoming<'_>) -> bool,
) -> Result<(), ProtoError> {
    read_frames(&mut r, &mut Vec::new(), handle)
}

/// [`read_loop`] over any reader, every frame read into `payload`.
fn read_frames(
    r: &mut impl Read,
    payload: &mut Vec<u8>,
    mut handle: impl FnMut(Incoming<'_>) -> bool,
) -> Result<(), ProtoError> {
    while read_frame_into(r, payload)? {
        let incoming = if BatchView::is_batch(payload) {
            Incoming::Batch(BatchView::parse(payload)?)
        } else {
            Incoming::Message(Message::decode(payload)?)
        };
        if !handle(incoming) {
            break;
        }
        trim(payload);
    }
    Ok(())
}

/// Accepts on `listener` for the life of the process, running `serve` on
/// a thread of its own for every connection. The listener blocks, so a
/// dial waits for nothing but the scheduler. Never returns: there is no
/// way to wake a blocked `accept` short of closing the process, so the
/// caller gives this loop a thread and lets process exit end it.
pub fn accept_loop(listener: TcpListener, serve: impl Fn(TcpStream) + Send + Sync + 'static) {
    let serve = Arc::new(serve);
    for stream in listener.incoming() {
        match stream {
            Ok(stream) => {
                let serve = Arc::clone(&serve);
                std::thread::spawn(move || serve(stream));
            }
            Err(e) => {
                // Out of descriptors, typically: report, and give the
                // process a moment to release some.
                eprintln!("dss serve: accept failed: {e}");
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    }
}

/// Longest pause between two dials of an address that refuses.
const DIAL_BACKOFF_MAX: Duration = Duration::from_millis(25);

/// Dials `addr`, retrying until `timeout` (the fleet boots in parallel, so
/// early dials race the remote's bind) — after 1 ms, then doubling up to
/// [`DIAL_BACKOFF_MAX`] — then performs the Hello handshake. Returns the
/// connection and the remote's negotiated name.
pub fn connect(
    addr: &str,
    role: Role,
    my_name: &str,
    timeout: Duration,
) -> Result<(Conn, BufReader<TcpStream>), ServerError> {
    let deadline = Instant::now() + timeout;
    let mut backoff = Duration::from_millis(1);
    let stream = loop {
        match TcpStream::connect(addr) {
            Ok(s) => break s,
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(ServerError::Timeout(format!("connecting to {addr}: {e}")));
                }
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(DIAL_BACKOFF_MAX);
            }
        }
    };
    stream.set_nodelay(true).ok();
    // Bound the handshake so a wedged remote can't hang us forever.
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    let read_half = stream.try_clone()?;
    let conn = Conn::new(stream, String::new())?;
    conn.send(&Message::Hello {
        min_version: VERSION_MIN,
        max_version: VERSION_MAX,
        role,
        name: my_name.to_string(),
    })?;
    let mut r = BufReader::new(read_half);
    let peer = match read_message(&mut r)? {
        Some(Message::HelloAck { version: _, peer }) => peer,
        Some(Message::Fault { context, message }) => {
            return Err(ServerError::Fault { context, message })
        }
        other => {
            return Err(ServerError::Handshake(format!(
                "expected HelloAck from {addr}, got {other:?}"
            )))
        }
    };
    r.get_ref().set_read_timeout(None)?;
    let conn = Conn { name: peer, ..conn };
    Ok((conn, r))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The smallest handshake a dial completes against: read the `Hello`,
    /// answer `HelloAck`, hold the connection until the dialer hangs up.
    fn ack_hello(stream: TcpStream) {
        let conn = Conn::new(stream.try_clone().unwrap(), String::new()).unwrap();
        let mut reader = BufReader::new(stream);
        let hello = read_message(&mut reader).unwrap();
        assert!(matches!(hello, Some(Message::Hello { .. })), "{hello:?}");
        conn.send(&Message::HelloAck {
            version: VERSION_MAX,
            peer: "acceptor".into(),
        })
        .unwrap();
        let _ = read_loop(reader, |_| true);
    }

    /// A dial is answered when the acceptor is scheduled, not when a poll
    /// next comes round: a listener polled every 20 ms takes 250 ms ± 30
    /// for these 25 dials, a blocking one ~10 ms.
    #[test]
    fn sequential_dials_are_answered_without_waiting_out_a_poll() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || accept_loop(listener, ack_hello));
        let started = Instant::now();
        for _ in 0..25 {
            let (conn, _reader) = connect(&addr, Role::Peer, "dialer", Duration::from_secs(10))
                .expect("the acceptor answers");
            assert_eq!(conn.name, "acceptor");
            conn.hangup();
        }
        let took = started.elapsed();
        assert!(
            took < Duration::from_millis(200),
            "25 sequential dials took {took:?}"
        );
    }

    /// One large frame, then small ones: neither reused buffer, the
    /// writer's nor the reader's, keeps the large frame's capacity.
    #[test]
    fn frame_buffers_give_back_a_large_frames_capacity() {
        let big = Message::MetricsSnapshot {
            json: "x".repeat(4 * FRAME_BUF_KEEP),
        };
        let small = Message::Ack { seq: 1 };
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let drain = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut wire = Vec::new();
            stream.read_to_end(&mut wire).unwrap();
            wire
        });
        let conn = Conn::new(TcpStream::connect(addr).unwrap(), String::new()).unwrap();
        let kept = |conn: &Conn| conn.writer.lock().unwrap().frame.capacity();
        conn.send(&big).unwrap();
        assert!(
            kept(&conn) <= FRAME_BUF_KEEP,
            "after the large frame: {}",
            kept(&conn)
        );
        for _ in 0..3 {
            conn.send(&small).unwrap();
            assert!(
                kept(&conn) <= FRAME_BUF_KEEP,
                "after a small one: {}",
                kept(&conn)
            );
        }
        drop(conn);
        let wire = drain.join().unwrap();

        let mut payload = Vec::new();
        let mut got = Vec::new();
        read_frames(&mut &wire[..], &mut payload, |incoming| {
            got.push(incoming.into_message().unwrap());
            true
        })
        .unwrap();
        assert_eq!(got, [big, small.clone(), small.clone(), small]);
        assert!(
            payload.capacity() <= FRAME_BUF_KEEP,
            "reader kept {}",
            payload.capacity()
        );
    }

    /// The back-off changes how often a refused dial is retried, not when
    /// it gives up or with what.
    #[test]
    fn a_dial_nobody_answers_times_out_at_its_deadline() {
        // Port 1 is never handed out by `bind(0)`, so no concurrent test
        // can come to listen on it.
        let timeout = Duration::from_millis(120);
        let started = Instant::now();
        let refused = connect("127.0.0.1:1", Role::Peer, "dialer", timeout);
        let took = started.elapsed();
        assert!(
            matches!(refused, Err(ServerError::Timeout(_))),
            "{:?}",
            refused.map(|(conn, _)| conn)
        );
        assert!(took >= timeout, "gave up early, after {took:?}");
        assert!(
            took < timeout + 4 * DIAL_BACKOFF_MAX,
            "gave up late, after {took:?}"
        );
    }
}
