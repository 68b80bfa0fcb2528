//! Client library for a deployed fleet: dial the coordinator, subscribe
//! queries, start a replay run, stream delivered results, pull telemetry.
//!
//! One reader thread funnels everything the server sends into a channel;
//! RPC methods pull from it, stashing interleaved data-plane events
//! (`Deliver`/`RunDone`) so they are never lost to a control reply race.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dss_proto::{Message, ProtoError, Role, WireStrategy};
use dss_xml::Node;

use crate::wire::{self, Conn};
use crate::ServerError;

/// Default patience for a single control-plane round trip.
const RPC_TIMEOUT: Duration = Duration::from_secs(30);

/// A data-plane event observed by this client.
#[derive(Debug, Clone)]
pub enum ClientEvent {
    /// A batch of `query`'s results (empty + `eos` marks end-of-stream).
    Deliver {
        run: u64,
        query: String,
        eos: bool,
        items: Vec<Node>,
    },
    /// The run completed; `delivered` counts items across all queries.
    RunDone { run: u64, delivered: u64 },
}

/// Reply to a successful `subscribe`.
#[derive(Debug, Clone)]
pub struct SubscribeReply {
    pub id: String,
    pub delivery_flow: u64,
    /// `true` if the plan reuses an already-deployed derived stream.
    pub reused: bool,
    pub cost: f64,
    /// Human-readable plan description (routes and operator placement).
    pub plan: String,
}

/// Results of one completed replay run, as this client saw them.
#[derive(Debug, Default)]
pub struct RunOutput {
    /// Delivered items per subscribed query, in delivery order.
    pub results: BTreeMap<String, Vec<Node>>,
    /// Fleet-wide delivered-item count (from `RunDone`).
    pub delivered: u64,
}

/// A client connection to the coordinator (or, for `metrics`, any peer).
pub struct Client {
    conn: Arc<Conn>,
    /// What the reader thread read, ending with why it stopped, if it
    /// failed.
    rx: mpsc::Receiver<Result<Message, ProtoError>>,
    pending: VecDeque<ClientEvent>,
    /// The remote's announced name (from its `HelloAck`).
    pub peer_name: String,
}

impl Client {
    /// Dials `addr` (retrying while the fleet boots) and shakes hands.
    pub fn connect(addr: &str, name: &str, timeout: Duration) -> Result<Client, ServerError> {
        let (conn, reader) = wire::connect(addr, Role::Client, name, timeout)?;
        let conn = Arc::new(conn);
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            // The client is the consumer: every batch it receives becomes
            // trees. Why the reader stopped — a bad frame, a malformed
            // item — is the last thing it sends.
            let read = wire::read_loop(reader, |incoming| {
                let msg = incoming.into_message().map_err(ProtoError::Decode);
                let stop = msg.is_err();
                tx.send(msg).is_ok() && !stop
            });
            if let Err(e) = read {
                let _ = tx.send(Err(e));
            }
        });
        Ok(Client {
            peer_name: conn.name.clone(),
            conn,
            rx,
            pending: VecDeque::new(),
        })
    }

    /// Next non-event message, stashing data-plane events encountered on
    /// the way.
    fn next_reply(&mut self, timeout: Duration) -> Result<Message, ServerError> {
        let deadline = Instant::now() + timeout;
        loop {
            let remaining = remaining(deadline, "a reply")?;
            match event(self.recv(remaining, "a reply")?) {
                Ok(e) => self.pending.push_back(e),
                Err(msg) => return Ok(msg),
            }
        }
    }

    /// Next data-plane event (stashed or fresh).
    pub fn next_event(&mut self, timeout: Duration) -> Result<ClientEvent, ServerError> {
        if let Some(e) = self.pending.pop_front() {
            return Ok(e);
        }
        event(self.recv(timeout, "stream events")?).map_err(|m| unexpected(m, "a stream event"))
    }

    /// The next message the reader thread read, or why there is none:
    /// the reader's error, the timeout waiting for `what`, or the closed
    /// connection.
    fn recv(&self, timeout: Duration, what: &str) -> Result<Message, ServerError> {
        match self.rx.recv_timeout(timeout) {
            Ok(read) => read.map_err(ServerError::Proto),
            Err(RecvTimeoutError::Timeout) => {
                Err(ServerError::Timeout(format!("waiting for {what}")))
            }
            Err(RecvTimeoutError::Disconnected) => Err(ServerError::Closed),
        }
    }

    /// Registers `text` as query `id` subscribed at `at_peer`.
    pub fn subscribe(
        &mut self,
        id: &str,
        text: &str,
        at_peer: &str,
        strategy: WireStrategy,
    ) -> Result<SubscribeReply, ServerError> {
        self.conn.send(&Message::Subscribe {
            id: id.to_string(),
            at_peer: at_peer.to_string(),
            strategy,
            text: text.to_string(),
        })?;
        match self.next_reply(RPC_TIMEOUT)? {
            Message::SubscribeOk {
                id,
                delivery_flow,
                reused,
                cost_bits,
                plan,
            } => Ok(SubscribeReply {
                id,
                delivery_flow,
                reused,
                cost: f64::from_bits(cost_bits),
                plan,
            }),
            other => Err(unexpected(other, "SubscribeOk")),
        }
    }

    /// Pulls the remote's current telemetry snapshot (JSON document).
    pub fn metrics(&mut self) -> Result<String, ServerError> {
        self.conn.send(&Message::MetricsPull)?;
        match self.next_reply(RPC_TIMEOUT)? {
            Message::MetricsSnapshot { json } => Ok(json),
            other => Err(unexpected(other, "MetricsSnapshot")),
        }
    }

    /// Asks the coordinator to start a replay run (fire-and-forget; the
    /// outcome arrives as `Deliver`/`RunDone` events).
    pub fn start_run(&mut self) -> Result<(), ServerError> {
        self.conn.send(&Message::StartRun { run: 0 })?;
        Ok(())
    }

    /// Starts a run and collects every delivery until `RunDone`.
    pub fn run_and_collect(&mut self, timeout: Duration) -> Result<RunOutput, ServerError> {
        self.start_run()?;
        let deadline = Instant::now() + timeout;
        let mut out = RunOutput::default();
        loop {
            match self.next_event(remaining(deadline, "the run to complete")?)? {
                ClientEvent::Deliver { query, items, .. } => {
                    out.results.entry(query).or_default().extend(items);
                }
                ClientEvent::RunDone { delivered, .. } => {
                    out.delivered = delivered;
                    return Ok(out);
                }
            }
        }
    }

    /// Collects deliveries until every query in `queries` has reported
    /// end-of-stream — for clients that did not request the run.
    pub fn wait_eos(
        &mut self,
        queries: &[&str],
        timeout: Duration,
    ) -> Result<BTreeMap<String, Vec<Node>>, ServerError> {
        let mut waiting: BTreeSet<String> = queries.iter().map(|q| q.to_string()).collect();
        let mut results: BTreeMap<String, Vec<Node>> = BTreeMap::new();
        let deadline = Instant::now() + timeout;
        while !waiting.is_empty() {
            let remaining = remaining(deadline, "end-of-stream")?;
            if let ClientEvent::Deliver {
                query, eos, items, ..
            } = self.next_event(remaining)?
            {
                results.entry(query.clone()).or_default().extend(items);
                if eos {
                    waiting.remove(&query);
                }
            }
        }
        Ok(results)
    }

    /// Asks the coordinator to shut the whole fleet down cleanly; returns
    /// once it has acked (run drained, metrics flushed everywhere).
    pub fn shutdown_fleet(&mut self, timeout: Duration) -> Result<(), ServerError> {
        self.conn.send(&Message::Shutdown)?;
        match self.next_reply(timeout)? {
            Message::Ack { .. } => Ok(()),
            other => Err(unexpected(other, "shutdown Ack")),
        }
    }

    /// Polite disconnect.
    pub fn goodbye(self) {
        let _ = self.conn.send(&Message::Goodbye);
        self.conn.hangup();
    }
}

/// The time left until `deadline`, or the timeout waiting for `what`.
fn remaining(deadline: Instant, what: &str) -> Result<Duration, ServerError> {
    let left = deadline.checked_duration_since(Instant::now());
    left.ok_or_else(|| ServerError::Timeout(format!("waiting for {what}")))
}

/// Why `reply` is not the `expected` reply: the remote's `Fault`, or a
/// message out of turn.
fn unexpected(reply: Message, expected: &str) -> ServerError {
    match reply {
        Message::Fault { context, message } => ServerError::Fault { context, message },
        other => ServerError::Handshake(format!("expected {expected}, got {other:?}")),
    }
}

/// The data-plane event `msg` is, or `msg` itself if it is none.
fn event(msg: Message) -> Result<ClientEvent, Message> {
    match msg {
        Message::Deliver {
            run,
            query,
            offset: _,
            eos,
            items,
        } => Ok(ClientEvent::Deliver {
            run,
            query,
            eos,
            items,
        }),
        Message::RunDone { run, delivered } => Ok(ClientEvent::RunDone { run, delivered }),
        other => Err(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;
    use std::net::TcpListener;

    use dss_proto::wire::put_items;
    use dss_proto::{read_message, write_frame, write_message, BatchDest, BatchHeader};
    use dss_proto::{DecodeError, VERSION_MAX};

    /// A server that answers the `Hello`, then sends a `Deliver` whose
    /// second item is well framed but malformed (its has-text byte is 7):
    /// the client says so — it does not report a closed connection.
    #[test]
    fn a_malformed_delivered_item_is_the_clients_error() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let hello = read_message(&mut reader).unwrap();
            assert!(matches!(hello, Some(Message::Hello { .. })), "{hello:?}");
            let ack = Message::HelloAck {
                version: VERSION_MAX,
                peer: "fake".into(),
            };
            write_message(&mut stream, &ack).unwrap();
            let mut payload = Vec::new();
            BatchHeader {
                run: 1,
                dest: BatchDest::Query("q1"),
                offset: 0,
                eos: true,
            }
            .encode_into(&mut payload);
            let at = payload.len();
            let items = [Node::leaf("e", "1"), Node::empty("photon")];
            put_items(&mut payload, &items);
            // The count, the first item (its length, then 6 bytes), the
            // second's length, its name's length, its name.
            let has_text = at + 1 + 7 + 1 + 1 + "photon".len();
            assert_eq!(payload[has_text], 0);
            payload[has_text] = 7;
            write_frame(&mut stream, &payload).unwrap();
            // Hold the connection until the client hangs up.
            let _ = read_message(&mut reader);
        });
        let mut client = Client::connect(&addr, "client", Duration::from_secs(10)).unwrap();
        match client.next_event(Duration::from_secs(10)) {
            Err(ServerError::Proto(ProtoError::Decode(e))) => {
                assert_eq!(e, DecodeError::BadBool(7))
            }
            other => panic!("expected the decode error, got {other:?}"),
        }
        client.goodbye();
        server.join().unwrap();
    }

    /// A server that acks the `Hello`, then hangs up: the client reports
    /// the connection closed — not a failed handshake.
    #[test]
    fn a_hangup_after_the_handshake_is_a_closed_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let hello = read_message(&mut reader).unwrap();
            assert!(matches!(hello, Some(Message::Hello { .. })), "{hello:?}");
            let ack = Message::HelloAck {
                version: VERSION_MAX,
                peer: "fake".into(),
            };
            write_message(&mut &stream, &ack).unwrap();
            stream.shutdown(std::net::Shutdown::Both).unwrap();
        });
        let mut client = Client::connect(&addr, "client", Duration::from_secs(10)).unwrap();
        server.join().unwrap();
        match client.next_event(Duration::from_secs(10)) {
            Err(ServerError::Closed) => {}
            other => panic!("expected a closed connection, got {other:?}"),
        }
    }
}
