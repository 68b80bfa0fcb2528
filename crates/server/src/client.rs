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

use dss_proto::{Message, Role, WireStrategy};
use dss_xml::Node;

use crate::wire::{self, Conn};
use crate::ServerError;

/// Default patience for a single control-plane round trip.
pub const RPC_TIMEOUT: Duration = Duration::from_secs(30);

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
    rx: mpsc::Receiver<Message>,
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
            // The client is the consumer: every batch it receives becomes trees.
            let _ = wire::read_loop(reader, move |incoming| {
                tx.send(incoming.into_message()).is_ok()
            });
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
            let remaining = deadline
                .checked_duration_since(Instant::now())
                .ok_or_else(|| ServerError::Timeout("waiting for a reply".into()))?;
            match self.rx.recv_timeout(remaining) {
                Ok(Message::Deliver {
                    run,
                    query,
                    offset: _,
                    eos,
                    items,
                }) => self.pending.push_back(ClientEvent::Deliver {
                    run,
                    query,
                    eos,
                    items,
                }),
                Ok(Message::RunDone { run, delivered }) => self
                    .pending
                    .push_back(ClientEvent::RunDone { run, delivered }),
                Ok(msg) => return Ok(msg),
                Err(RecvTimeoutError::Timeout) => {
                    return Err(ServerError::Timeout("waiting for a reply".into()))
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(ServerError::Handshake("connection closed".into()))
                }
            }
        }
    }

    /// Next data-plane event (stashed or fresh).
    pub fn next_event(&mut self, timeout: Duration) -> Result<ClientEvent, ServerError> {
        if let Some(e) = self.pending.pop_front() {
            return Ok(e);
        }
        match self.rx.recv_timeout(timeout) {
            Ok(Message::Deliver {
                run,
                query,
                offset: _,
                eos,
                items,
            }) => Ok(ClientEvent::Deliver {
                run,
                query,
                eos,
                items,
            }),
            Ok(Message::RunDone { run, delivered }) => Ok(ClientEvent::RunDone { run, delivered }),
            Ok(Message::Fault { context, message }) => Err(ServerError::Fault { context, message }),
            Ok(other) => Err(ServerError::Handshake(format!(
                "unexpected message while streaming: {other:?}"
            ))),
            Err(RecvTimeoutError::Timeout) => {
                Err(ServerError::Timeout("waiting for stream events".into()))
            }
            Err(RecvTimeoutError::Disconnected) => {
                Err(ServerError::Handshake("connection closed".into()))
            }
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
            Message::Fault { context, message } => Err(ServerError::Fault { context, message }),
            other => Err(ServerError::Handshake(format!(
                "expected SubscribeOk, got {other:?}"
            ))),
        }
    }

    pub fn unsubscribe(&mut self, id: &str) -> Result<(), ServerError> {
        self.conn
            .send(&Message::Unsubscribe { id: id.to_string() })?;
        match self.next_reply(RPC_TIMEOUT)? {
            Message::UnsubscribeOk { .. } => Ok(()),
            Message::Fault { context, message } => Err(ServerError::Fault { context, message }),
            other => Err(ServerError::Handshake(format!(
                "expected UnsubscribeOk, got {other:?}"
            ))),
        }
    }

    /// Pulls the remote's current telemetry snapshot (JSON document).
    pub fn metrics(&mut self) -> Result<String, ServerError> {
        self.conn.send(&Message::MetricsPull)?;
        match self.next_reply(RPC_TIMEOUT)? {
            Message::MetricsSnapshot { json } => Ok(json),
            Message::Fault { context, message } => Err(ServerError::Fault { context, message }),
            other => Err(ServerError::Handshake(format!(
                "expected MetricsSnapshot, got {other:?}"
            ))),
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
            let remaining = deadline
                .checked_duration_since(Instant::now())
                .ok_or_else(|| ServerError::Timeout("waiting for the run to complete".into()))?;
            match self.next_event(remaining)? {
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
            let remaining = deadline
                .checked_duration_since(Instant::now())
                .ok_or_else(|| ServerError::Timeout("waiting for end-of-stream".into()))?;
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
            Message::Fault { context, message } => Err(ServerError::Fault { context, message }),
            other => Err(ServerError::Handshake(format!(
                "expected shutdown Ack, got {other:?}"
            ))),
        }
    }

    /// Polite disconnect.
    pub fn goodbye(self) {
        let _ = self.conn.send(&Message::Goodbye);
        self.conn.hangup();
    }
}
