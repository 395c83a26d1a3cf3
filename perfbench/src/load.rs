//! The load generator: one client process, one sender thread and one
//! reader thread over a single loopback connection per phase.
//!
//! The open-loop phase sends every request at its scheduled instant
//! whether or not earlier ones have been answered, so a stall shows up as
//! latency on the requests scheduled behind it. The closed-loop phase
//! keeps a fixed number of requests outstanding, which is enough to keep
//! both server workers busy, and measures the throughput ceiling.

use std::io::{self, BufWriter};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use meloppr::server::{write_frame, FrameEvent, FrameReader, Response};

/// A response as the client received it.
#[derive(Debug, Clone)]
pub struct Reply {
    /// Arrival, seconds after the phase start.
    pub arrived_s: f64,
    /// The parsed frame.
    pub response: Response,
    /// Payload bytes of the frame.
    pub frame_bytes: usize,
}

/// What one phase sent and received, indexed by request id.
#[derive(Debug, Default)]
pub struct PhaseLog {
    /// Actual send instant of each request, seconds after the phase start
    /// (`None`: never sent).
    pub sent_s: Vec<Option<f64>>,
    /// Each request's response, if one arrived.
    pub replies: Vec<Option<Reply>>,
}

fn connect(addr: SocketAddr) -> io::Result<(TcpStream, TcpStream)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    // The reader wakes periodically to notice that the phase is over.
    stream.set_read_timeout(Some(Duration::from_millis(20)))?;
    let writer = stream.try_clone()?;
    Ok((stream, writer))
}

/// Reads response frames into `log` until `done` says every expected
/// response is in or `give_up` passes. Calls `on_reply` after each one.
fn read_replies(
    mut stream: TcpStream,
    start: Instant,
    slots: usize,
    expected: &AtomicUsize,
    give_up: &dyn Fn() -> bool,
    on_reply: &dyn Fn(),
) -> io::Result<Vec<Option<Reply>>> {
    let mut replies: Vec<Option<Reply>> = vec![None; slots];
    let mut received = 0usize;
    let mut reader = FrameReader::new();
    loop {
        if received >= expected.load(Ordering::SeqCst) || give_up() {
            return Ok(replies);
        }
        match reader.read_event(&mut stream)? {
            FrameEvent::Frame(payload) => {
                let arrived_s = start.elapsed().as_secs_f64();
                let response = Response::parse(&payload)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
                let id = match &response {
                    Response::Ranking { id, .. }
                    | Response::Rejected { id, .. }
                    | Response::Error { id, .. } => *id as usize,
                    other => {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("unexpected frame {other:?}"),
                        ))
                    }
                };
                let slot = replies.get_mut(id).ok_or_else(|| {
                    io::Error::new(io::ErrorKind::InvalidData, format!("unknown id {id}"))
                })?;
                *slot = Some(Reply {
                    arrived_s,
                    response,
                    frame_bytes: payload.len(),
                });
                received += 1;
                on_reply();
            }
            FrameEvent::Idle => {}
            FrameEvent::Eof => return Ok(replies),
        }
    }
}

/// Sends `frames[i]` at `schedule_s[i]` seconds after the phase start
/// and waits for every response, giving up `grace` after the last
/// scheduled send.
pub fn open_loop(
    addr: SocketAddr,
    frames: &[String],
    schedule_s: &[f64],
    grace: Duration,
) -> io::Result<PhaseLog> {
    let n = frames.len();
    let (stream, writer) = connect(addr)?;
    let expected = AtomicUsize::new(n);
    let last = Duration::from_secs_f64(schedule_s.last().copied().unwrap_or(0.0));
    let start = Instant::now();
    let (sent_s, replies) = std::thread::scope(|s| {
        let sender = s.spawn(move || -> io::Result<Vec<Option<f64>>> {
            let mut writer = BufWriter::new(writer);
            let mut sent_s = vec![None; n];
            for (i, (frame, &at)) in frames.iter().zip(schedule_s).enumerate() {
                let due = start + Duration::from_secs_f64(at);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                write_frame(&mut writer, frame)?;
                sent_s[i] = Some(start.elapsed().as_secs_f64());
            }
            Ok(sent_s)
        });
        let give_up = || start.elapsed() > last + grace;
        let replies = read_replies(stream, start, n, &expected, &give_up, &|| {});
        let sent = sender.join().expect("the sender thread does not panic");
        (sent, replies)
    });
    Ok(PhaseLog {
        sent_s: sent_s?,
        replies: replies?,
    })
}

/// Keeps `window` requests outstanding for `duration`, taking request
/// `i`'s frame from `frame(i)`, then waits (at most `grace`) for the
/// stragglers.
pub fn closed_loop(
    addr: SocketAddr,
    frame: &(dyn Fn(usize) -> String + Sync),
    window: usize,
    duration: Duration,
    grace: Duration,
) -> io::Result<PhaseLog> {
    // Room for far more requests than the server can answer in the phase.
    let slots = 1 << 16;
    let (stream, writer) = connect(addr)?;
    let expected = AtomicUsize::new(usize::MAX);
    let finished_sending = AtomicBool::new(false);
    let (freed_tx, freed_rx) = mpsc::channel::<()>();
    let start = Instant::now();
    let (sent_s, replies) = std::thread::scope(|s| {
        let expected = &expected;
        let finished_sending = &finished_sending;
        let sender = s.spawn(move || -> io::Result<Vec<Option<f64>>> {
            let mut writer = BufWriter::new(writer);
            let mut sent_s = vec![None; slots];
            let mut next = 0usize;
            let result = (|| {
                while next < slots && start.elapsed() < duration {
                    if next >= window {
                        // One response in, one request out.
                        match freed_rx.recv_timeout(Duration::from_millis(50)) {
                            Ok(()) => {}
                            Err(mpsc::RecvTimeoutError::Timeout) => continue,
                            Err(mpsc::RecvTimeoutError::Disconnected) => break,
                        }
                    }
                    write_frame(&mut writer, &frame(next))?;
                    sent_s[next] = Some(start.elapsed().as_secs_f64());
                    next += 1;
                }
                Ok(())
            })();
            expected.store(next, Ordering::SeqCst);
            finished_sending.store(true, Ordering::SeqCst);
            result.map(|()| sent_s)
        });
        let give_up =
            || finished_sending.load(Ordering::SeqCst) && start.elapsed() > duration + grace;
        let replies = read_replies(stream, start, slots, expected, &give_up, &|| {
            let _ = freed_tx.send(());
        });
        drop(freed_tx);
        let sent = sender.join().expect("the sender thread does not panic");
        (sent, replies)
    });
    Ok(PhaseLog {
        sent_s: sent_s?,
        replies: replies?,
    })
}
