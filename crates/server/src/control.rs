//! The control plane of one `dss serve` process as a sans-IO machine:
//! [`Control::handle`] takes the time and one [`Input`] and returns the
//! [`Output`]s to execute, in order. It owns the registration replica, the
//! sequence counter, the steps awaiting acks, the subscriber table, the
//! active run and the shutdown state; it has no sockets, threads, clock or
//! log writer. `serve`'s main thread drives it over TCP
//! (`crate::peer`), and `tests/fleet_sim.rs` drives N of them on one
//! thread over a seeded in-memory network.
//!
//! Every process builds the identical deterministic base system from the
//! topology name. The *coordinator* (process 0) applies each
//! `Subscribe`/`Unsubscribe` to its own replica, then logs and broadcasts
//! a sequenced `Deploy`/`Undeploy` record; every other process applies it
//! through the same deterministic planner, logs it, and acks. Identical
//! base state + identical log + identical planner ⇒ identical deployments
//! everywhere, so plans never cross the wire — only query text does.
//! [`apply`] is the one place a record changes a replica: the coordinator
//! calls it before it sequences a record, every other process on receipt,
//! and a durable restart for each record of its log ([`replay_control`]).
//! A replica applies the coordinator's records in sequence only: it acks a
//! duplicate without applying it again, and neither applies nor acks a
//! record that follows a gap. A durable restart that finds a run its log
//! started and did not finish rejoins it ([`Control::new`]).

use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

use dss_core::{Registration, StreamGlobe};
use dss_proto::{Message, WireStrategy};
use dss_wal::WalRecord;

use crate::data::Deliveries;
use crate::spec::{NetMap, ServeSpec};
use crate::to_core_strategy;

/// How long the coordinator waits for the fleet to ack a broadcast.
pub const ACK_TIMEOUT: Duration = Duration::from_secs(30);
/// How long a run may take, from its `StartRun` to its last query's end of
/// stream, before it is aborted: a run whose path lost a process for good
/// ends in a `Fault`, not a hang (and so does a shutdown waiting for it).
pub const RUN_TIMEOUT: Duration = Duration::from_secs(300);
/// `Ack.seq` used for the unsequenced `Shutdown` broadcast.
const SHUTDOWN_SEQ: u64 = 0;

/// One end of a control message: a client connection (by the id its
/// process gave it) or fleet process `i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Addr {
    Client(u64),
    Process(usize),
}

/// What the machine is told.
#[derive(Debug)]
pub enum Input {
    /// A control message read off a connection.
    Msg { from: Addr, msg: Message },
    /// Time passed; `signal` is whether SIGINT/SIGTERM has arrived.
    Tick { signal: bool },
    /// Query `query`'s results reached end-of-stream at the coordinator:
    /// `delivered` items in all.
    QueryDone {
        run: u64,
        query: String,
        delivered: u64,
    },
    /// This process's share of run `run` is drained.
    TornDown { run: u64 },
}

/// What the machine asks its driver to do, in the order given.
#[derive(Debug, PartialEq)]
pub enum Output {
    Send {
        to: Addr,
        msg: Message,
    },
    /// `msg` to every other process. One it cannot reach owes its ack
    /// until the step's deadline.
    Broadcast(Message),
    /// Append a record to the write-ahead log (a durable process only).
    Log(WalRecord),
    /// Build this process's share of the run's data plane from
    /// [`Control::globe`] and [`Control::deliveries`], replacing any
    /// previous one.
    BuildPlane(u64),
    /// Send the run's plane's `ResumeFrom` requests
    /// (`Plane::resume_requests`): this process restarted into the run.
    Rejoin(u64),
    StartSources(u64),
    /// Drain run `run`'s plane off the control thread, then report
    /// [`Input::TornDown`].
    Teardown(u64),
    /// Drain any plane, flush the final metrics, and stop once the
    /// outputs after this one are executed.
    Stop,
}

/// What completes a step, once every ack is in or at its deadline.
enum Then {
    /// Answer the client that asked.
    Reply(Addr, Message),
    /// Release run `run`'s sources, or abort it if an ack is missing.
    Go(u64),
    /// Stop, then ack the client that asked for the shutdown, if one did.
    Stop(Option<Addr>),
}

/// The coordinator's bookkeeping of the active run, from `StartRun` to
/// its teardown (or its abort).
struct ActiveRun {
    id: u64,
    /// The client that asked for the run.
    requester: u64,
    /// Queries whose results have not reached end-of-stream yet.
    pending: BTreeSet<String>,
    delivered: u64,
    /// When it is aborted if it has not completed ([`RUN_TIMEOUT`]).
    deadline: Duration,
}

/// One process's control plane.
pub struct Control {
    globe: StreamGlobe,
    me: usize,
    map: NetMap,
    /// Where clients must dial instead, for a peer's refusal.
    coordinator_addr: String,
    /// The last sequenced record this process applied — the coordinator:
    /// issued — from its log, then as they come.
    seq: u64,
    /// Broadcasts whose acks the coordinator awaits, by seq: how many are
    /// owed, until when, and what completes the step.
    pending: BTreeMap<u64, (usize, Duration, Then)>,
    /// query id -> subscribing client (coordinator only).
    subs: BTreeMap<String, u64>,
    run: Option<ActiveRun>,
    /// A shutdown began: new requests are refused.
    shutting_down: bool,
    /// A shutdown waiting for the active run to end: whom to ack.
    draining: Option<Option<Addr>>,
}

/// How a logged control record changes a replica — the one place that
/// decides it. Returns the registration a `Deploy` installed; a record
/// outside the registration log leaves the replica as it is.
fn apply(globe: &mut StreamGlobe, record: &WalRecord) -> Result<Option<Registration>, String> {
    match record {
        WalRecord::Deploy {
            id,
            at_peer,
            strategy,
            text,
            ..
        } => {
            let strategy = WireStrategy::from_u8(*strategy).map_err(|e| e.to_string())?;
            globe
                .register_query(id.clone(), text, at_peer, to_core_strategy(strategy))
                .map(Some)
                .map_err(|e| e.to_string())
        }
        WalRecord::Undeploy { id, .. } => globe
            .unregister_query(id)
            .map(|()| None)
            .map_err(|e| e.to_string()),
        WalRecord::Checkpoint { .. }
        | WalRecord::RunStart { .. }
        | WalRecord::RunGo { .. }
        | WalRecord::RunDone { .. } => Ok(None),
    }
}

/// The coordinator's sequenced control messages as the log keeps them:
/// the sequence number the fleet acks and the record every process
/// writes. `None` for a message outside the log.
fn sequenced(msg: &Message) -> Option<(u64, WalRecord)> {
    match msg {
        Message::Deploy {
            seq,
            id,
            at_peer,
            strategy,
            text,
        } => Some((
            *seq,
            WalRecord::Deploy {
                seq: *seq,
                id: id.clone(),
                at_peer: at_peer.clone(),
                strategy: strategy.to_u8(),
                text: text.clone(),
            },
        )),
        Message::Undeploy { seq, id } => Some((
            *seq,
            WalRecord::Undeploy {
                seq: *seq,
                id: id.clone(),
            },
        )),
        Message::StartRun { run } => Some((*run, WalRecord::RunStart { run: *run })),
        _ => None,
    }
}

/// Re-applies the logged control-plane records to a fresh replica, so the
/// deterministic planner re-derives the exact pre-crash deployment.
/// Returns how many records could not be re-applied (each is reported).
fn replay_control(globe: &mut StreamGlobe, records: &[WalRecord]) -> usize {
    let mut diverged = 0;
    for record in records {
        if let Err(e) = apply(globe, record) {
            eprintln!("dss serve: WAL REPLAY DIVERGENCE applying {record:?}: {e}");
            diverged += 1;
        }
    }
    diverged
}

/// A typed `Fault` for `to`.
fn fault(to: Addr, context: &str, message: impl Into<String>) -> Output {
    let (context, message) = (context.into(), message.into());
    let msg = Message::Fault { context, message };
    Output::Send { to, msg }
}

/// The `Ack` of a `Shutdown`, for `to`.
fn shutdown_ack(to: Addr) -> Output {
    let msg = Message::Ack { seq: SHUTDOWN_SEQ };
    Output::Send { to, msg }
}

impl Control {
    /// Process `me`'s machine over `globe`, the spec's base system, after
    /// re-applying its log's `records`, and its first outputs: if the log
    /// started a run it did not finish, the process died with that run in
    /// flight and rejoins it — its plane rebuilt, its upstreams asked for
    /// what they retained, and its sources replayed if the run had gone
    /// (otherwise the coordinator's `RunGo` is still to come).
    pub fn new(
        spec: &ServeSpec,
        mut globe: StreamGlobe,
        me: usize,
        records: &[WalRecord],
    ) -> (Self, Vec<Output>) {
        replay_control(&mut globe, records);
        // The log's last sequenced record, in sequence order — a run's
        // `RunStart` takes the run's seq — and the run it left open, with
        // whether that run went.
        let (mut seq, mut open) = (0, None);
        for record in records {
            match *record {
                WalRecord::Deploy { seq: s, .. } | WalRecord::Undeploy { seq: s, .. } => seq = s,
                WalRecord::RunStart { run } => (seq, open) = (run, Some((run, false))),
                WalRecord::RunGo { run } if open == Some((run, false)) => open = Some((run, true)),
                WalRecord::RunDone { run } if open.is_some_and(|(r, _)| r == run) => open = None,
                _ => {}
            }
        }
        let mut rejoin = Vec::new();
        if let Some((run, went)) = open {
            rejoin.extend([Output::BuildPlane(run), Output::Rejoin(run)]);
            rejoin.extend(went.then_some(Output::StartSources(run)));
        }
        let map = NetMap::new(globe.topology());
        let control = Control {
            coordinator_addr: map.addr(spec, map.coordinator()),
            map,
            globe,
            me,
            seq,
            pending: BTreeMap::new(),
            subs: BTreeMap::new(),
            run: None,
            shutting_down: false,
            draining: None,
        };
        (control, rejoin)
    }

    /// This process's registration replica.
    pub fn globe(&self) -> &StreamGlobe {
        &self.globe
    }

    /// Who gets the active run's results (coordinator only): the client
    /// that subscribed each query, or the run's requester where that
    /// client is gone.
    pub fn deliveries(&self) -> Deliveries {
        Deliveries {
            subscribers: self.subs.clone(),
            requester: self.run.as_ref().map(|a| a.requester),
        }
    }

    /// Handles one input at time `now` (since the process started).
    pub fn handle(&mut self, now: Duration, input: Input) -> Vec<Output> {
        let mut out = Vec::new();
        match input {
            Input::Msg { from, msg } => self.on_message(now, from, msg, &mut out),
            Input::Tick { signal: true } if !self.shutting_down => {
                let me = &self.globe.topology().peer(self.map.sp(self.me)).name;
                eprintln!("dss serve: {me} caught signal, shutting down");
                self.on_shutdown(now, None, &mut out);
            }
            Input::Tick { .. } => {}
            Input::QueryDone {
                run,
                query,
                delivered,
            } => {
                let active = self.run.as_mut().filter(|a| a.id == run);
                if let Some(active) = active.filter(|a| a.pending.contains(&query)) {
                    active.pending.remove(&query);
                    active.delivered += delivered;
                    if active.pending.is_empty() {
                        self.finish_run(&mut out);
                    }
                }
            }
            Input::TornDown { run } => self.on_torn_down(now, run, &mut out),
        }
        self.expire(now, &mut out);
        out
    }

    fn on_message(&mut self, now: Duration, from: Addr, msg: Message, out: &mut Vec<Output>) {
        match (from, msg) {
            (
                Addr::Client(client),
                msg @ (Message::Subscribe { .. }
                | Message::Unsubscribe { .. }
                | Message::StartRun { .. }),
            ) => {
                let context = match msg {
                    Message::Subscribe { .. } => "subscribe",
                    Message::Unsubscribe { .. } => "unsubscribe",
                    _ => "run",
                };
                match self.on_request(now, client, msg, out) {
                    Ok((step, then)) => self.commit(now, step, then, out),
                    Err(message) => out.push(fault(from, context, message)),
                }
            }
            (_, Message::Ack { seq }) => self.acked(seq, out),
            // Logged, so a restart knows the sources were released.
            (_, Message::RunGo { run }) => out.extend([
                Output::Log(WalRecord::RunGo { run }),
                Output::StartSources(run),
            ]),
            // The coordinator says the run is globally complete.
            (_, Message::RunDone { run, .. }) => out.push(Output::Teardown(run)),
            (_, Message::Shutdown) => self.on_shutdown(now, Some(from), out),
            (_, other) => match sequenced(&other) {
                // The coordinator's log: `Deploy`, `Undeploy`, a run's phase 1.
                Some((seq, record)) => self.on_sequenced(from, seq, record, out),
                None => {
                    let unexpected = format!("unexpected message {other:?}");
                    out.push(fault(from, "dispatch", unexpected));
                }
            },
        }
    }

    /// A client's `Subscribe`, `Unsubscribe` or `StartRun` at the
    /// coordinator: checked and applied to its own replica, it becomes
    /// the control step to commit and what completes it. A refused
    /// request is answered with a `Fault` and never logged.
    fn on_request(
        &mut self,
        now: Duration,
        client: u64,
        msg: Message,
        out: &mut Vec<Output>,
    ) -> Result<(Message, Then), String> {
        if self.me != self.map.coordinator() {
            return Err(format!(
                "not the coordinator; dial {}",
                self.coordinator_addr
            ));
        } else if self.shutting_down {
            return Err("shutting down".into());
        } else if self.run.is_some() {
            return Err("a run is in progress; retry after it completes".into());
        }
        let seq = self.seq + 1;
        let step = match msg {
            Message::Subscribe { id, .. } if self.subs.contains_key(&id) => {
                return Err(format!("query id {id:?} is already subscribed"));
            }
            Message::Subscribe {
                id,
                at_peer,
                strategy,
                text,
            } => Message::Deploy {
                seq,
                id,
                at_peer,
                strategy,
                text,
            },
            Message::Unsubscribe { id } => Message::Undeploy { seq, id },
            _ => {
                out.push(Output::BuildPlane(seq));
                let queries = self.globe.registered_queries();
                self.run = Some(ActiveRun {
                    id: seq,
                    requester: client,
                    pending: queries.map(|(q, _)| q.to_string()).collect(),
                    delivered: 0,
                    deadline: now + RUN_TIMEOUT,
                });
                // Phase 1: every process instantiates its groups and acks.
                return Ok((Message::StartRun { run: seq }, Then::Go(seq)));
            }
        };
        let (_, record) = sequenced(&step).expect("a registration step is sequenced");
        let reply = match (apply(&mut self.globe, &record)?, record) {
            (Some(reg), WalRecord::Deploy { id, .. }) => {
                self.subs.insert(id.clone(), client);
                Message::SubscribeOk {
                    id,
                    delivery_flow: reg.delivery_flow as u64,
                    reused: reg.reused_derived_stream,
                    cost_bits: reg.plan.total_cost.to_bits(),
                    plan: reg.plan.describe(self.globe.state()),
                }
            }
            (_, WalRecord::Undeploy { id, .. }) => {
                self.subs.remove(&id);
                Message::UnsubscribeOk { id }
            }
            (_, record) => unreachable!("{record:?} is no registration step"),
        };
        Ok((step, Then::Reply(Addr::Client(client), reply)))
    }

    /// A sequenced control record from the coordinator: apply it to this
    /// process, make it durable, then ack it — an ack promises the record
    /// survives this process's crashes. Only the next record in sequence
    /// is applied: a duplicate is acked again, and a record past a gap (a
    /// process that lost its log, say) is reported and left unacked, so
    /// the coordinator's step times out instead of this replica planning
    /// on a base the fleet does not share.
    fn on_sequenced(&mut self, from: Addr, seq: u64, record: WalRecord, out: &mut Vec<Output>) {
        if seq > self.seq + 1 {
            let last = self.seq;
            eprintln!("dss serve: record {seq} follows {last}: one is missing; not applied");
            return;
        } else if seq == self.seq + 1 {
            if let WalRecord::RunStart { run } = record {
                // Phase 1 of a run: build this process's share of the plane
                // (the coordinator holds `RunGo` until every process acked).
                out.push(Output::BuildPlane(run));
            } else if let Err(e) = apply(&mut self.globe, &record) {
                // Should be impossible: same base state, same planner.
                eprintln!("dss serve: REPLICA DIVERGENCE applying {record:?}: {e}");
            }
            out.push(Output::Log(record));
            self.seq = seq;
        }
        let msg = Message::Ack { seq };
        out.push(Output::Send { to: from, msg });
    }

    /// A shutdown request (`from` a connection, or the signal latch). A
    /// peer stops alone; the coordinator first lets the active run drain
    /// — nothing in a mailbox is dropped — then stops the fleet.
    fn on_shutdown(&mut self, now: Duration, from: Option<Addr>, out: &mut Vec<Output>) {
        if self.me != self.map.coordinator() {
            out.push(Output::Stop);
            out.extend(from.map(shutdown_ack));
        } else if self.shutting_down {
            out.extend(from.map(|to| fault(to, "shutdown", "already shutting down")));
        } else if self.run.is_some() {
            self.draining = Some(from);
        } else {
            self.commit(now, Message::Shutdown, Then::Stop(from), out);
        }
        self.shutting_down = true;
    }

    /// Every query's results reached end-of-stream: tell the fleet to tear
    /// down and tear our share down. The requester hears `RunDone` once
    /// that is done ([`Self::on_torn_down`]): it may answer with the next
    /// `StartRun` at once.
    fn finish_run(&mut self, out: &mut Vec<Output>) {
        let active = self.run.as_ref().expect("a run to finish");
        let (run, delivered) = (active.id, active.delivered);
        out.push(Output::Broadcast(Message::RunDone { run, delivered }));
        out.push(Output::Teardown(run));
    }

    fn on_torn_down(&mut self, now: Duration, run: u64, out: &mut Vec<Output>) {
        // Balanced against `RunStart`: a restart after this point must
        // not try to rejoin a completed run.
        out.push(Output::Log(WalRecord::RunDone { run }));
        // An aborted run is gone already: a run still here finished.
        if let Some(active) = self.run.take_if(|a| a.id == run) {
            let (to, delivered) = (Addr::Client(active.requester), active.delivered);
            let msg = Message::RunDone { run, delivered };
            out.push(Output::Send { to, msg });
        }
        if self.run.is_none() {
            if let Some(reply) = self.draining.take() {
                self.commit(now, Message::Shutdown, Then::Stop(reply), out);
            }
        }
    }

    /// The coordinator's half of a control step: log `msg` and advance the
    /// sequence if `msg` is sequenced, send it to every other process, and
    /// await their acks. Logged before the broadcast, so a record is
    /// durable here before any ack can count.
    fn commit(&mut self, now: Duration, msg: Message, then: Then, out: &mut Vec<Output>) {
        let seq = sequenced(&msg).map_or(SHUTDOWN_SEQ, |(seq, record)| {
            self.seq = seq;
            out.push(Output::Log(record));
            seq
        });
        out.push(Output::Broadcast(msg));
        // Every process owes an ack; this one's is the `acked` below.
        let owed = self.map.process_count();
        self.pending.insert(seq, (owed, now + ACK_TIMEOUT, then));
        self.acked(seq, out);
    }

    /// Step `seq` is owed one ack fewer, and completes once none is owed.
    fn acked(&mut self, seq: u64, out: &mut Vec<Output>) {
        let Some((owed, ..)) = self.pending.get_mut(&seq) else {
            return;
        };
        *owed = owed.saturating_sub(1);
        if *owed == 0 {
            let (.., then) = self.pending.remove(&seq).expect("the step is pending");
            self.complete(then, true, out);
        }
    }

    /// Completes every step past its deadline without its missing acks,
    /// and aborts a run past its own.
    fn expire(&mut self, now: Duration, out: &mut Vec<Output>) {
        let late = self.pending.iter();
        let late = late.filter_map(|(&seq, (_, deadline, _))| (*deadline <= now).then_some(seq));
        let late: Vec<u64> = late.collect();
        for seq in late {
            let (.., then) = self.pending.remove(&seq).expect("the step is pending");
            eprintln!("dss serve: step {seq} not fully acked within {ACK_TIMEOUT:?}");
            self.complete(then, false, out);
        }
        if let Some(run) = self
            .run
            .as_ref()
            .filter(|a| a.deadline <= now)
            .map(|a| a.id)
        {
            let why = format!("run did not complete within {RUN_TIMEOUT:?}");
            self.abort(run, &why, out);
        }
    }

    /// Ends run `run` without its results: the requester hears why, and
    /// this process tears its share down (a shutdown waiting for the run
    /// goes ahead once it has).
    fn abort(&mut self, run: u64, why: &str, out: &mut Vec<Output>) {
        eprintln!("dss serve: aborting run {run}: {why}");
        let requester = self.run.take().map(|a| Addr::Client(a.requester));
        out.extend(requester.map(|to| fault(to, "run", why)));
        out.push(Output::Teardown(run));
    }

    fn complete(&mut self, then: Then, acked: bool, out: &mut Vec<Output>) {
        match then {
            Then::Reply(to, msg) => out.push(Output::Send { to, msg }),
            // Phase 2: all planes exist — release the sources.
            Then::Go(run) if acked => {
                out.extend([
                    Output::Log(WalRecord::RunGo { run }),
                    Output::Broadcast(Message::RunGo { run }),
                    Output::StartSources(run),
                ]);
                // A run with zero subscriptions completes immediately.
                if self.run.as_ref().is_some_and(|a| a.pending.is_empty()) {
                    self.finish_run(out);
                }
            }
            Then::Go(run) => self.abort(run, "fleet did not come up for the run", out),
            Then::Stop(reply) => {
                out.push(Output::Stop);
                out.extend(reply.map(shutdown_ack));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dss_network::FlowId;
    use dss_rass::Scenario;

    /// A deploy one peer never acks is answered at its deadline, not
    /// before, and leaves no ack state behind: the late ack counts for
    /// nothing.
    #[test]
    fn a_step_whose_ack_never_comes_is_answered_at_its_deadline() {
        let spec = ServeSpec::new("scenario1").unwrap();
        let mut coordinator = Control::new(&spec, spec.build_globe(), 0, &[]).0;
        let n = coordinator.map.process_count();
        let q = &Scenario::scenario1(42).queries[0];
        let client = Addr::Client(1);
        let msg = Message::Subscribe {
            id: q.id.clone(),
            at_peer: q.peer.clone(),
            strategy: WireStrategy::StreamSharing,
            text: q.text.clone(),
        };
        let out = coordinator.handle(Duration::ZERO, Input::Msg { from: client, msg });
        assert!(
            matches!(
                &out[..],
                [
                    Output::Log(WalRecord::Deploy { seq: 1, .. }),
                    Output::Broadcast(Message::Deploy { seq: 1, .. })
                ]
            ),
            "{out:?}"
        );
        let ack = |from| Input::Msg {
            from: Addr::Process(from),
            msg: Message::Ack { seq: 1 },
        };
        for peer in 1..n - 1 {
            assert_eq!(coordinator.handle(Duration::from_secs(1), ack(peer)), []);
        }
        let tick = || Input::Tick { signal: false };
        let almost = ACK_TIMEOUT - Duration::from_millis(1);
        assert_eq!(coordinator.handle(almost, tick()), []);
        let out = coordinator.handle(ACK_TIMEOUT, tick());
        assert!(
            matches!(&out[..], [Output::Send { to, msg: Message::SubscribeOk { .. } }] if *to == client),
            "{out:?}"
        );
        assert!(
            coordinator.pending.is_empty(),
            "{:?}",
            coordinator.pending.keys()
        );
        assert_eq!(coordinator.handle(2 * ACK_TIMEOUT, ack(n - 1)), []);
        assert!(
            coordinator.pending.is_empty(),
            "{:?}",
            coordinator.pending.keys()
        );
    }

    /// A shutdown asked for while a run's first phase awaits its acks
    /// waits for the run; when that phase times out and the run is torn
    /// down, the shutdown goes ahead at once, not at the drain deadline.
    #[test]
    fn a_shutdown_waiting_on_an_aborted_run_proceeds_once_it_is_torn_down() {
        let spec = ServeSpec::new("scenario1").unwrap();
        let mut coordinator = Control::new(&spec, spec.build_globe(), 0, &[]).0;
        let from = Addr::Client(1);
        let out = coordinator.handle(
            Duration::ZERO,
            Input::Msg {
                from,
                msg: Message::StartRun { run: 0 },
            },
        );
        assert!(
            matches!(
                &out[..],
                [
                    Output::BuildPlane(1),
                    Output::Log(WalRecord::RunStart { run: 1 }),
                    Output::Broadcast(Message::StartRun { run: 1 })
                ]
            ),
            "{out:?}"
        );
        let msg = Message::Shutdown;
        assert_eq!(
            coordinator.handle(Duration::ZERO, Input::Msg { from, msg }),
            []
        );
        let out = coordinator.handle(ACK_TIMEOUT, Input::Tick { signal: false });
        assert!(
            matches!(
                &out[..],
                [
                    Output::Send {
                        msg: Message::Fault { .. },
                        ..
                    },
                    Output::Teardown(1)
                ]
            ),
            "{out:?}"
        );
        let out = coordinator.handle(ACK_TIMEOUT, Input::TornDown { run: 1 });
        let shutdown = Output::Broadcast(Message::Shutdown);
        assert_eq!(out, [Output::Log(WalRecord::RunDone { run: 1 }), shutdown]);
    }

    fn deploy(seq: u64) -> WalRecord {
        let q = &Scenario::scenario1(42).queries[seq as usize];
        WalRecord::Deploy {
            seq,
            id: q.id.clone(),
            at_peer: q.peer.clone(),
            strategy: WireStrategy::StreamSharing.to_u8(),
            text: q.text.clone(),
        }
    }

    /// The coordinator's `Deploy` of `record`, as a peer receives it.
    fn received(record: &WalRecord) -> Input {
        let WalRecord::Deploy {
            seq,
            id,
            at_peer,
            text,
            ..
        } = record.clone()
        else {
            unreachable!("{record:?} is a deploy")
        };
        let (strategy, from) = (WireStrategy::StreamSharing, Addr::Process(0));
        let msg = Message::Deploy {
            seq,
            id,
            at_peer,
            strategy,
            text,
        };
        Input::Msg { from, msg }
    }

    /// A replica applies the coordinator's records in sequence only: a
    /// duplicate is acked again without being applied or logged twice,
    /// and a record past a gap is neither applied nor acked — until the
    /// missing one has come.
    #[test]
    fn a_replica_applies_records_in_sequence_only() {
        let spec = ServeSpec::new("scenario1").unwrap();
        let (mut peer, rejoin) = Control::new(&spec, spec.build_globe(), 1, &[]);
        assert_eq!(rejoin, []);
        let ack = |seq| Output::Send {
            to: Addr::Process(0),
            msg: Message::Ack { seq },
        };
        let now = Duration::ZERO;
        let out = peer.handle(now, received(&deploy(1)));
        assert_eq!(out, [Output::Log(deploy(1)), ack(1)]);
        assert_eq!(
            peer.handle(now, received(&deploy(1))),
            [ack(1)],
            "a duplicate"
        );
        assert_eq!(peer.handle(now, received(&deploy(3))), [], "past a gap");
        assert_eq!(peer.globe.registered_queries().count(), 1);
        let out = peer.handle(now, received(&deploy(2)));
        assert_eq!(out, [Output::Log(deploy(2)), ack(2)]);
        let out = peer.handle(now, received(&deploy(3)));
        assert_eq!(out, [Output::Log(deploy(3)), ack(3)]);
        assert_eq!(peer.globe.registered_queries().count(), 3);
    }

    /// A durable coordinator restarted on a log of three records issues
    /// seq 4 next — not seq 1 again, which the log and the fleet already
    /// hold.
    #[test]
    fn a_restarted_coordinator_continues_its_sequence() {
        let spec = ServeSpec::new("scenario1").unwrap();
        let undeploy = WalRecord::Undeploy {
            seq: 3,
            id: Scenario::scenario1(42).queries[1].id.clone(),
        };
        let log = [deploy(1), deploy(2), undeploy];
        let (mut coordinator, _) = Control::new(&spec, spec.build_globe(), 0, &log);
        let WalRecord::Deploy {
            id, at_peer, text, ..
        } = deploy(4)
        else {
            unreachable!()
        };
        let strategy = WireStrategy::StreamSharing;
        let msg = Message::Subscribe {
            id,
            at_peer,
            strategy,
            text,
        };
        let from = Addr::Client(1);
        let out = coordinator.handle(Duration::ZERO, Input::Msg { from, msg });
        assert!(
            matches!(
                &out[..],
                [Output::Log(WalRecord::Deploy { seq: 4, .. }), ..]
            ),
            "{out:?}"
        );
    }

    /// A restart rejoins the run its log started and did not finish: the
    /// plane, the upstreams' resends, and the sources only if the run had
    /// gone — otherwise the coordinator's `RunGo` is still to come.
    #[test]
    fn a_restart_rejoins_the_run_its_log_left_open() {
        let spec = ServeSpec::new("scenario1").unwrap();
        let rejoin = |log: &[WalRecord]| Control::new(&spec, spec.build_globe(), 3, log).1;
        let (start, go, done) = (
            WalRecord::RunStart { run: 2 },
            WalRecord::RunGo { run: 2 },
            WalRecord::RunDone { run: 2 },
        );
        let planned = [Output::BuildPlane(2), Output::Rejoin(2)];
        assert_eq!(rejoin(&[deploy(1), start.clone()]), planned);
        let went = rejoin(&[deploy(1), start.clone(), go.clone()]);
        assert_eq!(went[..2], planned);
        assert_eq!(went[2..], [Output::StartSources(2)]);
        assert_eq!(rejoin(&[deploy(1), start, go, done]), []);
        assert_eq!(rejoin(&[deploy(1)]), []);
    }

    /// A logged strategy byte no strategy owns must be reported as a
    /// divergence and skipped — not replayed as some other plan.
    #[test]
    fn wal_replay_reports_an_unknown_strategy_byte_instead_of_replanning() {
        let scenario = Scenario::scenario1(42);
        let deploy = |seq: u64, strategy: u8| {
            let q = &scenario.queries[seq as usize];
            WalRecord::Deploy {
                seq,
                id: q.id.clone(),
                at_peer: q.peer.clone(),
                strategy,
                text: q.text.clone(),
            }
        };
        let mut globe = scenario.build_system();
        let records = [
            deploy(0, WireStrategy::QueryShipping.to_u8()),
            deploy(1, 9),
            deploy(2, WireStrategy::StreamSharing.to_u8()),
        ];
        assert_eq!(replay_control(&mut globe, &records), 1);
        let replayed: Vec<&str> = globe.registered_queries().map(|(q, _)| q).collect();
        let (first, third) = (&scenario.queries[0].id, &scenario.queries[2].id);
        assert_eq!(replayed, [first, third], "the bad record alone is skipped");

        // The same log with the byte intact replays without a word.
        let mut globe = scenario.build_system();
        let records = [deploy(0, 1), deploy(1, 2), deploy(2, 2)];
        assert_eq!(replay_control(&mut globe, &records), 0);
        assert_eq!(globe.registered_queries().count(), 3);
    }

    /// Subscribes and unsubscribes in a seeded random order, one of them a
    /// deploy the planner rejects, applied as the coordinator applies
    /// them: what it logged replays into a fresh replica as the very
    /// deployment it built live.
    #[test]
    fn a_logged_control_sequence_replays_to_the_live_replica() {
        let spec = ServeSpec::new("scenario1").unwrap();
        let queries = Scenario::scenario1(42).queries;
        let mut rng = 42u64;
        let mut next = move |n: usize| {
            // xorshift64: a reproducible order without another dependency.
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng % n as u64) as usize
        };
        let mut live = spec.build_globe();
        let (mut log, mut seq, mut rejected) = (Vec::new(), 1, 0);
        let (mut pending, mut subscribed): (Vec<_>, Vec<_>) = (queries.iter().collect(), vec![]);
        let reject_at = 10 + next(20);
        for step in 0..60 {
            let unsubscribe = !subscribed.is_empty() && (pending.is_empty() || next(3) == 0);
            let msg = if step == reject_at {
                Message::Deploy {
                    seq,
                    id: "bad".into(),
                    at_peer: queries[0].peer.clone(),
                    strategy: WireStrategy::StreamSharing,
                    text: "for $p in stream(\"no-such-stream\")/photons/photon return $p".into(),
                }
            } else if unsubscribe {
                let q = subscribed.swap_remove(next(subscribed.len()));
                if next(2) == 0 {
                    pending.push(q); // subscribed again later
                }
                Message::Undeploy {
                    seq,
                    id: q.id.clone(),
                }
            } else {
                let q = pending.swap_remove(next(pending.len()));
                subscribed.push(q);
                Message::Deploy {
                    seq,
                    id: q.id.clone(),
                    at_peer: q.peer.clone(),
                    strategy: WireStrategy::StreamSharing,
                    text: q.text.clone(),
                }
            };
            // As the coordinator does: a refused record is neither
            // sequenced nor logged.
            let (_, record) = sequenced(&msg).unwrap();
            match apply(&mut live, &record) {
                Ok(_) => {
                    log.push(record);
                    seq += 1;
                }
                Err(_) => rejected += 1,
            }
        }
        assert_eq!(
            rejected, 1,
            "only the deploy over an unknown stream is refused"
        );
        let undeploys = log
            .iter()
            .filter(|r| matches!(r, WalRecord::Undeploy { .. }))
            .count();
        assert!(undeploys > 0, "the log replays unsubscribes too");

        let mut replica = spec.build_globe();
        assert_eq!(replay_control(&mut replica, &log), 0);
        let registered = |g: &StreamGlobe| -> Vec<(String, FlowId)> {
            let queries = g.registered_queries();
            queries.map(|(q, f)| (q.to_string(), f)).collect()
        };
        assert!(!registered(&live).is_empty());
        assert_eq!(registered(&replica), registered(&live));
        let (live_flows, replayed) = (live.deployment().flows(), replica.deployment().flows());
        assert_eq!(live_flows.len(), replayed.len());
        for (flow, (a, b)) in live_flows.iter().zip(replayed).enumerate() {
            assert_eq!(a.input, b.input, "flow {flow}");
            assert_eq!(a.processing_node, b.processing_node, "flow {flow}");
            assert_eq!(a.ops, b.ops, "flow {flow}");
            assert_eq!(a.route, b.route, "flow {flow}");
            assert_eq!(a.retired, b.retired, "flow {flow}");
        }
    }
}
