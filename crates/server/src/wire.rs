//! Connection plumbing shared by server and client: a write-locked framed
//! sender plus a blocking read loop. One TCP connection per *directed*
//! peer pair; everything a process sends on a connection goes out in call
//! order (the writer mutex serializes frames), and the single reader
//! thread on the other end dispatches in arrival order — together that is
//! the per-flow FIFO the byte-exactness argument rests on.
//!
//! The read loop reads every frame into one buffer it reuses and hands
//! item batches on as validated [`BatchView`]s over that buffer, not as
//! trees ([`Incoming`]): whether anything is materialised is up to the
//! handler. [`Conn::send_batch`] is the matching way out — a header in
//! front of an item list the caller writes, which for a relayed batch is
//! a copy of the bytes it received.

use std::io::BufReader;
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use dss_proto::{
    read_frame_into, read_message, write_frame_with, write_message, BatchHeader, BatchView,
    Message, ProtoError, Role, VERSION_MAX, VERSION_MIN,
};

use crate::ServerError;

/// A connected endpoint: shared, thread-safe framed writer. The read half
/// is owned by exactly one reader thread (see [`read_loop`]).
#[derive(Debug)]
pub struct Conn {
    /// Remote display name (from its Hello / HelloAck).
    pub name: String,
    /// Unbuffered: `write_message` hands over each frame as one buffer.
    writer: Mutex<TcpStream>,
    stream: TcpStream,
}

impl Conn {
    pub fn new(stream: TcpStream, name: String) -> std::io::Result<Conn> {
        let w = stream.try_clone()?;
        Ok(Conn {
            name,
            writer: Mutex::new(w),
            stream,
        })
    }

    /// Sends one framed message (serialized with concurrent senders).
    pub fn send(&self, msg: &Message) -> Result<(), ProtoError> {
        let mut w = self.writer.lock().unwrap();
        write_message(&mut *w, msg)
    }

    /// Sends one framed `StreamItemBatch` or `Deliver`: `header`, then the
    /// item list (count, then the items) as `items` writes it.
    pub(crate) fn send_batch(
        &self,
        header: &BatchHeader<'_>,
        items: impl FnOnce(&mut Vec<u8>),
    ) -> Result<(), ProtoError> {
        let mut w = self.writer.lock().unwrap();
        write_frame_with(&mut *w, |buf| {
            header.encode_into(buf);
            items(buf);
        })
    }

    /// Forces the peer's reader out of its blocking read (used on exit).
    pub fn hangup(&self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }
}

/// One received frame, as [`read_loop`] hands it on.
pub enum Incoming<'a> {
    /// A `StreamItemBatch` or `Deliver`: validated, its items still the
    /// bytes in the connection's read buffer.
    Batch(BatchView<'a>),
    /// Any other message, decoded.
    Message(Message),
}

impl Incoming<'_> {
    /// The owned message, materialising a batch — for a receiver that
    /// consumes every item it is sent (the client).
    pub fn into_message(self) -> Message {
        match self {
            Incoming::Batch(view) => view.materialise(),
            Incoming::Message(msg) => msg,
        }
    }
}

/// Reads frames until close/error, handing each to `handle`; `handle`
/// returns `false` to stop. Returns the terminating error, if any. Takes
/// the `BufReader` (not the raw stream) so bytes buffered during the
/// handshake are never lost.
pub fn read_loop(
    mut r: BufReader<TcpStream>,
    mut handle: impl FnMut(Incoming<'_>) -> bool,
) -> Result<(), ProtoError> {
    let mut payload = Vec::new();
    while read_frame_into(&mut r, &mut payload)? {
        let incoming = if BatchView::is_batch(&payload) {
            Incoming::Batch(BatchView::parse(&payload)?)
        } else {
            Incoming::Message(Message::decode(&payload)?)
        };
        if !handle(incoming) {
            break;
        }
    }
    Ok(())
}

/// Dials `addr`, retrying until `timeout` (the fleet boots in parallel, so
/// early dials race the remote's bind), then performs the Hello handshake.
/// Returns the connection and the remote's negotiated name.
pub fn connect(
    addr: &str,
    role: Role,
    my_name: &str,
    timeout: Duration,
) -> Result<(Conn, BufReader<TcpStream>), ServerError> {
    let deadline = Instant::now() + timeout;
    let stream = loop {
        match TcpStream::connect(addr) {
            Ok(s) => break s,
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(ServerError::Timeout(format!("connecting to {addr}: {e}")));
                }
                std::thread::sleep(Duration::from_millis(25));
            }
        }
    };
    stream.set_nodelay(true).ok();
    // Bound the handshake so a wedged remote can't hang us forever.
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(ServerError::Io)?;
    let read_half = stream.try_clone().map_err(ServerError::Io)?;
    let conn = Conn::new(stream, String::new()).map_err(ServerError::Io)?;
    conn.send(&Message::Hello {
        min_version: VERSION_MIN,
        max_version: VERSION_MAX,
        role,
        name: my_name.to_string(),
    })
    .map_err(ServerError::Proto)?;
    let mut r = BufReader::new(read_half);
    let ack = read_message(&mut r).map_err(ServerError::Proto)?;
    let peer = match ack {
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
    r.get_ref()
        .set_read_timeout(None)
        .map_err(ServerError::Io)?;
    let conn = Conn { name: peer, ..conn };
    Ok((conn, r))
}
