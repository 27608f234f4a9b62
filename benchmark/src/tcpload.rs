//! A pipelined client of one node's client listener.
//!
//! `psmr_node::NodeClient` keeps one request outstanding, so it can
//! drive neither an open loop nor a window. This client is built from
//! the same public pieces (`Request::encode`, `encode_frame`,
//! `FrameDecoder`, `decode_response`) with a sender thread and a reader
//! thread on one connection.
//!
//! In an open loop the sender follows a schedule that does not depend
//! on the replies (seeded exponential gaps at the given mean rate) and
//! latency runs from each request's *due* time, so a stall in the
//! system delays — and is charged for — every request that was due
//! while it lasted (no coordinated omission). How late the sender itself
//! ran is recorded separately.

use crate::ops::{Model, REPLY_LIMIT_NS};
use crate::run::{ClientLog, Span, SPAN_EVERY};
use psmr_common::envelope::Request;
use psmr_common::ids::{ClientId, RequestId};
use psmr_kvstore::{KvOp, KvResult};
use psmr_net::frame::{encode_frame, FrameDecoder};
use psmr_node::wire::decode_response;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Request ids only ever grow, across every connection this process
/// opens: the nodes drop a request whose id is below the newest one they
/// executed for the same client.
static NEXT_REQUEST: AtomicU64 = AtomicU64::new(1);

#[derive(Debug, Clone, Copy)]
pub enum Pace {
    /// Send on a schedule of its own, `rate` requests per second on
    /// average, whatever the replies do.
    Open { rate: f64 },
    /// Keep `window` requests outstanding.
    Closed { window: usize },
}

/// Which part of the log a phase's samples go to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Record {
    Nothing,
    Lat,
    Sat,
}

/// One command and, for read-back, the only reply that passes.
pub type Planned = (KvOp, Option<KvResult>);

pub struct Conn {
    stream: TcpStream,
    client: ClientId,
    epoch: Instant,
    traced: bool,
    sent: u64,
    /// Seeds the open-loop arrival schedule.
    schedule_seed: u64,
}

struct InFlight {
    id: u64,
    due: Instant,
    op: KvOp,
    expected: Option<KvResult>,
    sampled: bool,
}

/// What the sender measured about one sampled request.
struct SendSpan {
    id: u64,
    encode: (Instant, Instant),
    write: (Instant, Instant),
}

impl Conn {
    pub fn connect(addr: &str, client: u64, epoch: Instant, traced: bool) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // The reader wakes this often to notice the end of a phase.
        stream.set_read_timeout(Some(Duration::from_millis(20)))?;
        Ok(Self {
            stream,
            client: ClientId::new(client),
            epoch,
            traced,
            sent: 0,
            schedule_seed: client,
        })
    }

    /// Sends what `next` yields at `pace` for `length` (or until `next`
    /// runs dry), checks every reply against `model`, and appends the
    /// samples to `log`. Returns once every request is answered or has
    /// missed the reply limit.
    pub fn drive(
        &mut self,
        next: &mut (dyn FnMut() -> Option<Planned> + Send),
        model: &mut Model,
        pace: Pace,
        length: Duration,
        record: Record,
        log: &mut ClientLog,
    ) {
        let (tx, rx) = mpsc::channel::<InFlight>();
        let credits = Credits::default();
        let epoch = self.epoch;
        let client = self.client;
        let traced = self.traced;
        let mut writer = self.stream.try_clone().expect("clone the socket");
        let mut reader = self.stream.try_clone().expect("clone the socket");
        let sent_before = self.sent;
        let schedule_seed = self.schedule_seed.wrapping_add(sent_before);
        let start = Instant::now();
        let (sender_out, reader_out) = std::thread::scope(|scope| {
            let credits = &credits;
            let sender = scope.spawn(move || {
                let mut out = SenderOut::default();
                let deadline = start + length;
                let mut n = 0u64;
                let mut arrivals = StdRng::seed_from_u64(schedule_seed);
                let mut next_due = start;
                loop {
                    let due = match pace {
                        Pace::Open { rate } => {
                            let due = next_due;
                            if due >= deadline {
                                break;
                            }
                            // Exponential gaps: arrivals of independent
                            // users, and no fixed period to fall in step
                            // with the program's polling loops.
                            let u: f64 = arrivals.gen_range(0.0..1.0);
                            next_due += Duration::from_secs_f64(-(1.0 - u).ln() / rate);
                            pace_until(due);
                            due
                        }
                        Pace::Closed { window } => {
                            if !credits.wait_below(n, window as u64, deadline) {
                                break;
                            }
                            Instant::now()
                        }
                    };
                    let Some((op, expected)) = next() else { break };
                    n += 1;
                    let id = NEXT_REQUEST.fetch_add(1, Ordering::Relaxed);
                    let sampled = traced && (sent_before + n).is_multiple_of(SPAN_EVERY);
                    let t0 = Instant::now();
                    let frame = encode_frame(
                        &Request::new(client, RequestId::new(id), op.command(), op.encode())
                            .encode(),
                    );
                    let t1 = Instant::now();
                    // Registered before the bytes leave, so the reader
                    // knows the request by the time its reply can arrive.
                    let _ = tx.send(InFlight {
                        id,
                        due,
                        op,
                        expected,
                        sampled,
                    });
                    if matches!(pace, Pace::Open { .. }) && record == Record::Lat {
                        out.late_ns
                            .push(t1.saturating_duration_since(due).as_nanos() as u64);
                    }
                    if writer.write_all(&frame).is_err() {
                        break;
                    }
                    if sampled {
                        out.spans.push(SendSpan {
                            id,
                            encode: (t0, t1),
                            write: (t1, Instant::now()),
                        });
                    }
                }
                out.sent = n;
                drop(tx);
                out
            });
            let reader = scope.spawn(move || {
                let mut out = ReaderOut::default();
                let mut pending: HashMap<u64, InFlight> = HashMap::new();
                let mut decoder = FrameDecoder::new();
                let mut buf = [0u8; 64 * 1024];
                let mut sender_done: Option<Instant> = None;
                loop {
                    // Take in everything the sender registered so far.
                    loop {
                        match rx.try_recv() {
                            Ok(sent) => {
                                pending.insert(sent.id, sent);
                            }
                            Err(mpsc::TryRecvError::Empty) => break,
                            Err(mpsc::TryRecvError::Disconnected) => {
                                sender_done.get_or_insert_with(Instant::now);
                                break;
                            }
                        }
                    }
                    if let Some(done) = sender_done {
                        let overdue = done.elapsed() > Duration::from_nanos(REPLY_LIMIT_NS);
                        if pending.is_empty() || overdue {
                            break;
                        }
                    }
                    let read = match reader.read(&mut buf) {
                        Ok(0) => break,
                        Ok(n) => n,
                        Err(e)
                            if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) =>
                        {
                            continue
                        }
                        Err(_) => break,
                    };
                    let read_at = Instant::now();
                    decoder.push(&buf[..read]);
                    loop {
                        let body = match decoder.next() {
                            Ok(Some(body)) => body,
                            Ok(None) => break,
                            Err(_) => {
                                out.broken = true;
                                break;
                            }
                        };
                        let now = Instant::now();
                        let Some((request, payload)) = decode_response(&body) else {
                            out.stray += 1;
                            continue;
                        };
                        let id = request.as_raw();
                        let sent = match pending.remove(&id) {
                            Some(sent) => sent,
                            None => {
                                // Registered but not yet taken in.
                                while let Ok(sent) = rx.try_recv() {
                                    pending.insert(sent.id, sent);
                                }
                                match pending.remove(&id) {
                                    Some(sent) => sent,
                                    None => {
                                        out.stray += 1;
                                        continue;
                                    }
                                }
                            }
                        };
                        credits.complete();
                        let latency = now.duration_since(sent.due).as_nanos() as u64;
                        let valid = model.observe(&sent.op, &payload)
                            && sent.expected.is_none_or(|want| {
                                crate::ops::decode_reply(&payload) == Some(want)
                            });
                        out.attempted += 1;
                        if !valid || latency > REPLY_LIMIT_NS {
                            out.failed += 1;
                        }
                        match record {
                            Record::Nothing => {}
                            Record::Lat => out.lat_ns.push((latency, sent.op.is_structural())),
                            Record::Sat => {
                                out.sat_ns.push(latency);
                                out.sat_done_ns
                                    .push(now.duration_since(start).as_nanos() as u64);
                            }
                        }
                        if sent.sampled {
                            out.recv_spans.push((id, sent.due, read_at, now));
                        }
                    }
                    if out.broken {
                        break;
                    }
                }
                // Whatever is still unanswered missed the reply limit
                // (or the connection died under it).
                out.attempted += pending.len() as u64;
                out.failed += pending.len() as u64;
                out
            });
            (
                sender.join().expect("sender thread"),
                reader.join().expect("reader thread"),
            )
        });
        self.sent += sender_out.sent;
        log.attempted += reader_out.attempted + reader_out.stray;
        log.failed += reader_out.failed + reader_out.stray + u64::from(reader_out.broken);
        log.late_ns.extend(sender_out.late_ns);
        log.lat_ns.extend(reader_out.lat_ns);
        log.sat_ns.extend(reader_out.sat_ns);
        log.sat_done_ns.extend(reader_out.sat_done_ns);
        let ns = |t: Instant| t.saturating_duration_since(epoch).as_nanos() as u64;
        let sent_spans: HashMap<u64, SendSpan> =
            sender_out.spans.into_iter().map(|s| (s.id, s)).collect();
        for (id, due, read_at, decoded) in reader_out.recv_spans {
            let Some(sent) = sent_spans.get(&id) else {
                continue;
            };
            log.spans.push(Span {
                id,
                due_ns: ns(due),
                sent_ns: ns(sent.write.1),
                received_ns: ns(decoded),
                children: vec![
                    ("common.encode", ns(sent.encode.0), ns(sent.encode.1)),
                    ("net.socket_write", ns(sent.write.0), ns(sent.write.1)),
                    ("net.read_decode", ns(read_at), ns(decoded)),
                ],
            });
        }
    }
}

/// A sleep overshoots by the kernel's timer slack (50 µs and more),
/// which at 5 000 requests/s is a tenth of the latency being measured.
/// So sleep only to shortly before `due` and spin through the rest.
/// Measured on `tcp3_follower`'s lat phase, mean lateness: sleep alone
/// 108 µs, sleep then `yield_now` 59 µs (a yield can cost a whole
/// timeslice while the nodes are busy), sleep then spin 21–27 µs, at
/// 20 % of one core for the generator.
fn pace_until(due: Instant) {
    const SLEEP_MARGIN: Duration = Duration::from_micros(120);
    let now = Instant::now();
    if due > now + SLEEP_MARGIN {
        std::thread::sleep(due - now - SLEEP_MARGIN);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

#[derive(Default)]
struct SenderOut {
    sent: u64,
    late_ns: Vec<u64>,
    spans: Vec<SendSpan>,
}

#[derive(Default)]
struct ReaderOut {
    attempted: u64,
    failed: u64,
    /// Replies that match no request: malformed, or for an unknown id.
    stray: u64,
    /// The frame stream itself went bad.
    broken: bool,
    lat_ns: Vec<(u64, bool)>,
    sat_ns: Vec<u64>,
    sat_done_ns: Vec<u64>,
    recv_spans: Vec<(u64, Instant, Instant, Instant)>,
}

/// Completions counted by the reader, awaited by a closed-loop sender.
#[derive(Default)]
struct Credits {
    completed: Mutex<u64>,
    changed: Condvar,
}

impl Credits {
    fn complete(&self) {
        *self.completed.lock().expect("credits lock") += 1;
        self.changed.notify_one();
    }

    /// Blocks until fewer than `window` of the `sent` requests are
    /// outstanding; `false` once `deadline` has passed.
    fn wait_below(&self, sent: u64, window: u64, deadline: Instant) -> bool {
        let mut completed = self.completed.lock().expect("credits lock");
        loop {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            if sent - *completed < window {
                return true;
            }
            completed = self
                .changed
                .wait_timeout(completed, deadline - now)
                .expect("credits lock")
                .0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::OpGen;
    use psmr_node::wire::encode_response;
    use psmr_workload::KvMix;
    use std::net::TcpListener;

    /// A stand-in for a node's client listener: answers every read with
    /// `Value(key)` — except that it stops answering for `stall` once
    /// `stall_after` requests have been served, and can corrupt replies.
    fn fake_server(
        stall_after: usize,
        stall: Duration,
        tamper: bool,
    ) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            stream.set_nodelay(true).unwrap();
            let mut decoder = FrameDecoder::new();
            let mut buf = [0u8; 4096];
            let mut served = 0;
            loop {
                let n = match stream.read(&mut buf) {
                    Ok(0) | Err(_) => return,
                    Ok(n) => n,
                };
                decoder.push(&buf[..n]);
                while let Ok(Some(body)) = decoder.next() {
                    let req = Request::decode(&body).unwrap();
                    if served == stall_after {
                        std::thread::sleep(stall);
                    }
                    served += 1;
                    let key = psmr_kvstore::ops::key_of_payload(&req.payload);
                    let reply = if tamper {
                        KvResult::Ok // not a reply a read can get
                    } else {
                        KvResult::Value(key)
                    };
                    let frame = encode_frame(&encode_response(req.request, &reply.encode()));
                    if stream.write_all(&frame).is_err() {
                        return;
                    }
                }
            }
        });
        (addr, handle)
    }

    fn drive_reads(addr: &str, pace: Pace, length: Duration) -> ClientLog {
        let mut conn = Conn::connect(addr, 1, Instant::now(), true).unwrap();
        let mut gen = OpGen::new(KvMix::read_only(), 1, 0, 1);
        let mut log = ClientLog::default();
        conn.drive(
            &mut || Some((gen.next_op(), None)),
            &mut Model::default(),
            pace,
            length,
            Record::Lat,
            &mut log,
        );
        log
    }

    /// The coordinated-omission test: a 50 ms stall in the server must
    /// show up in due-time latency of the requests that were due during
    /// the stall — about 50 of them at 1000/s — not just in the one
    /// request that hit it. A generator that waited for the stalled
    /// reply before sending on would report a single slow sample.
    #[test]
    fn open_loop_charges_a_stall_to_every_request_due_during_it() {
        let (addr, server) = fake_server(100, Duration::from_millis(50), false);
        let log = drive_reads(
            &addr,
            Pace::Open { rate: 1000.0 },
            Duration::from_millis(400),
        );
        assert_eq!(log.failed, 0);
        // Exponential gaps at 1000/s over 0.4 s: 400 arrivals give or take.
        assert!((300..=500).contains(&log.attempted), "{}", log.attempted);
        let slow = |floor_ms: u64| {
            log.lat_ns
                .iter()
                .filter(|(ns, _)| *ns >= floor_ms * 1_000_000)
                .count()
        };
        assert!(
            slow(40) >= 5,
            "stall visible at its full length: {}",
            slow(40)
        );
        assert!(
            slow(10) >= 30,
            "and in the requests queued behind it: {}",
            slow(10)
        );
        // The sender kept to its schedule through the stall: the socket
        // buffer absorbed the requests, so lateness stays far below the
        // stall and is reported on its own.
        let late_max = log.late_ns.iter().max().copied().unwrap_or(0);
        assert_eq!(log.late_ns.len() as u64, log.attempted);
        assert!(late_max < 20_000_000, "sender ran {late_max} ns late");
        // Sampled requests carry the benchmark's own layer crossings.
        assert!(!log.spans.is_empty());
        for span in &log.spans {
            assert!(span.due_ns <= span.sent_ns && span.sent_ns <= span.received_ns);
            assert_eq!(span.children.len(), 3);
        }
        drop(log);
        server.join().unwrap();
    }

    #[test]
    fn closed_loop_never_exceeds_its_window() {
        // The server stalls once 8 requests are served; with a window of
        // 8 exactly 8 more can be in flight until it resumes.
        let (addr, server) = fake_server(8, Duration::from_millis(100), false);
        let started = Instant::now();
        let log = drive_reads(&addr, Pace::Closed { window: 8 }, Duration::from_millis(60));
        assert_eq!(log.failed, 0);
        assert_eq!(log.attempted, 16, "8 served, 8 behind the stall");
        assert!(started.elapsed() >= Duration::from_millis(100));
        assert!(log.late_ns.is_empty(), "lateness is an open-loop notion");
        server.join().unwrap();
    }

    /// Output checks feed `failed`: a reply of the wrong variant fails.
    #[test]
    fn tampered_replies_are_counted_as_failed() {
        let (addr, server) = fake_server(usize::MAX, Duration::ZERO, true);
        let log = drive_reads(&addr, Pace::Closed { window: 4 }, Duration::from_millis(50));
        assert!(log.attempted > 0);
        assert_eq!(log.failed, log.attempted);
        server.join().unwrap();
    }
}
