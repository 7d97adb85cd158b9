//! The serving path: `tspg-server` bound in this process on a unix socket,
//! driven over the socket by closed-loop clients.
//!
//! The load comes from at most two client threads, one per connection:
//! `serve-live` keeps one request outstanding on each of two connections,
//! `serve-burst` keeps [`BURST_WINDOW`] outstanding on one. A client sends
//! more requests only when replies free slots, so the load is closed-loop.
//! A query's round trip is timed from the moment its request is written.

use crate::live::{pause, peak_rss_mb, since, Live, PROBE_GAP, SETUP_GAP};
use crate::trace::Tracer;
use crate::verify::digest;
use crate::workload::{Inputs, Kind, BURST_WINDOW};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use tspg_core::QueryEngine;
use tspg_graph::{Query, TemporalEdge};
use tspg_server::protocol::{format_ingest, format_query, parse_response, Response};
use tspg_server::{Server, ServerConfig, ServerHandle};

/// Requests a windowed client writes at once: the server's default
/// `admit_max`, so a refill is about one server batch.
const REFILL: usize = 32;

/// A reply that takes longer than this counts as a timeout.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// One client connection.
struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Conn {
    fn connect(path: &Path) -> std::io::Result<Conn> {
        let stream = UnixStream::connect(path)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        let writer = stream.try_clone()?;
        Ok(Conn { reader: BufReader::new(stream), writer })
    }

    /// Writes one request line.
    fn send(&mut self, line: &str) -> std::io::Result<()> {
        self.writer.write_all(format!("{line}\n").as_bytes())
    }

    /// Reads one reply line.
    fn recv(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(line)
    }
}

/// The request id echoed by a reply and the answer digest it carries
/// (`None` for an error reply).
fn reply(line: &str) -> Option<(u64, Option<u64>)> {
    match parse_response(line).ok()? {
        Response::Result(p) => Some((p.id, Some(digest(p.vertices, &p.edges)))),
        Response::Error { id: Some(id), .. } => Some((id, None)),
        _ => None,
    }
}

/// An answered query request: the answer's digest, when the request was
/// written and when its reply was read.
#[derive(Clone, Copy, Debug)]
struct Answered {
    digest: u64,
    sent: Instant,
    done: Instant,
}

/// The outcome of one query request; `None` for an error reply, a
/// timeout or a broken connection.
type Outcome = Option<Answered>;

/// Sends `jobs` (ascending request ids) on one connection from this thread
/// alone, keeping up to `window` requests outstanding. Requests go out up
/// to [`REFILL`] at a time, in one write, whenever that many slots are
/// free; otherwise the thread reads the next reply. After an error reply,
/// a timeout or a broken connection the remaining jobs are left unanswered.
fn windowed(
    conn: &mut Conn,
    jobs: &[(u64, Query)],
    window: usize,
    tracer: Option<&mut Tracer>,
) -> Vec<Outcome> {
    let refill = REFILL.min(window);
    let mut outcomes: Vec<Outcome> = vec![None; jobs.len()];
    let mut sent_at: Vec<Option<Instant>> = vec![None; jobs.len()];
    let mut tracer = tracer;
    let (mut next, mut received) = (0, 0);
    let mut lines = String::new();
    while received < jobs.len() {
        let chunk = &jobs[next..(next + refill).min(jobs.len())];
        if !chunk.is_empty() && next - received + chunk.len() <= window {
            lines.clear();
            for &(id, query) in chunk {
                lines.push_str(&format_query(id, &query));
                lines.push('\n');
            }
            let now = Instant::now();
            sent_at[next..next + chunk.len()].fill(Some(now));
            if conn.writer.write_all(lines.as_bytes()).is_err() {
                break;
            }
            next += chunk.len();
            continue;
        }
        let Ok(line) = conn.recv() else { break };
        let done = Instant::now();
        let Some((id, answer)) = reply(&line) else { break };
        let Ok(k) = jobs[..next].binary_search_by_key(&id, |&(id, _)| id) else { break };
        let (Some(sent), Some(digest)) = (sent_at[k], answer) else { break };
        outcomes[k] = Some(Answered { digest, sent, done });
        if let Some(tracer) = tracer.as_deref_mut() {
            tracer.record("live.query", sent, done, None, id);
        }
        received += 1;
    }
    outcomes
}

/// Sends one ingest and waits for its acknowledgement; returns whether it
/// was acknowledged at `epoch` with every edge counted, and the round trip
/// in milliseconds.
fn ingest(conn: &mut Conn, edges: &[TemporalEdge], epoch: u64) -> (bool, f64) {
    let start = Instant::now();
    let acked = conn
        .send(&format_ingest(edges))
        .and_then(|()| conn.recv())
        .ok()
        .and_then(|line| parse_response(&line).ok());
    let ok = matches!(acked, Some(Response::Ingested { epoch: e, edges: n }) if e == epoch && n == edges.len() as u64);
    (ok, start.elapsed().as_secs_f64() * 1e3)
}

/// The `stats` verb's counters.
fn stats(conn: &mut Conn) -> Result<BTreeMap<String, u64>, String> {
    let failed = |e: std::io::Error| format!("stats verb failed: {e}");
    conn.send("stats").map_err(failed)?;
    let mut counters = BTreeMap::new();
    loop {
        let line = conn.recv().map_err(failed)?;
        let line = line.trim();
        if line == "end" {
            return Ok(counters);
        }
        if let Some((key, value)) = line.split_once('=') {
            counters.insert(key.to_string(), value.parse().unwrap_or(0));
        }
    }
}

/// Edge list → CSR → engine → server bound with `threads` engine workers.
fn set_up(inputs: &Inputs, path: &Path, threads: usize) -> Result<(ServerHandle, f64), String> {
    let graph = &inputs.parts[0].graph;
    let edges = graph.edges.clone();
    let start = Instant::now();
    let engine = QueryEngine::new(tspg_graph::TemporalGraph::from_edges(graph.num_vertices, edges));
    let config = ServerConfig { threads, ..ServerConfig::default() };
    let handle = Server::bind(engine, path, config)
        .map_err(|e| format!("cannot bind {}: {e}", path.display()))?;
    Ok((handle, start.elapsed().as_secs_f64()))
}

/// The socket the server of this process listens on.
fn socket_path() -> PathBuf {
    PathBuf::from(format!("tspg-benchmark-{}.sock", std::process::id()))
}

/// Times `count` set-ups, each shut down again (untimed).
pub fn set_up_times(inputs: &Inputs, count: usize, threads: usize) -> Result<Vec<f64>, String> {
    (0..count)
        .map(|_| {
            pause(SETUP_GAP);
            let (server, seconds) = set_up(inputs, &socket_path(), threads)?;
            server.shutdown();
            server.join();
            Ok(seconds)
        })
        .collect()
}

/// Sets the server up, then drives the warm-up, the timed rounds with
/// their ingests, and the probe ingests. With a tracer, each request and
/// ingest is recorded as a span.
pub fn run(inputs: &Inputs, threads: usize, tracer: Option<&mut Tracer>) -> Result<Live, String> {
    let path = socket_path();
    let mut live = Live::default();
    let (server, seconds) = set_up(inputs, &path, threads)?;
    live.setup_s.push(seconds);
    let window = if inputs.kind == Kind::ServeLive { 1 } else { BURST_WINDOW };
    let result = drive(inputs, &path, inputs.kind.connections(), window, &mut live, tracer);
    server.shutdown();
    server.join();
    result.map(|()| live)
}

/// The client side of [`run`].
fn drive(
    inputs: &Inputs,
    path: &Path,
    connections: usize,
    window: usize,
    live: &mut Live,
    mut tracer: Option<&mut Tracer>,
) -> Result<(), String> {
    let part = &inputs.parts[0];
    let mut conns = (0..connections)
        .map(|_| Conn::connect(path))
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(|e| format!("cannot connect to {}: {e}", path.display()))?;
    let mut answers = vec![None; part.num_queries()];
    live.ingest_ms = vec![Vec::new()];
    live.answered = vec![Vec::new()];
    live.calls = vec![0];
    let mut next_id = 0u64;
    let mut epoch = 0u64;
    let mut phase: Option<Instant> = None;
    let mut before = BTreeMap::new();
    for (si, segment) in part.segments.iter().enumerate() {
        for (bi, round) in segment.batches.iter().enumerate() {
            let warm_up = si == 0 && bi == 0;
            if !warm_up && phase.is_none() {
                before = stats(&mut conns[0])?;
                phase = Some(Instant::now());
            }
            let jobs: Vec<(u64, Query)> =
                round.iter().enumerate().map(|(k, q)| (next_id + k as u64, *q)).collect();
            let outcomes = run_round(&mut conns, &jobs, window, tracer.as_deref_mut());
            for ((id, _), outcome) in jobs.iter().zip(outcomes) {
                answers[*id as usize] = outcome.map(|a| a.digest);
                if let (false, Some(a), Some(phase)) = (warm_up, outcome, phase) {
                    let ms = (a.done - a.sent).as_secs_f64() * 1e3;
                    live.answered[0].push(((a.done - phase).as_secs_f64(), ms));
                    live.calls[0] += 1;
                }
            }
            next_id += round.len() as u64;
        }
        if let Some(edges) = &segment.ingest_after {
            epoch += 1;
            record_ingest(live, &mut conns[0], edges, epoch, tracer.as_deref_mut());
        }
    }
    live.peak_rss_mb = peak_rss_mb();
    live.counters = since(&before, &stats(&mut conns[0])?);
    for edges in &part.probe_ingests {
        pause(PROBE_GAP);
        epoch += 1;
        record_ingest(live, &mut conns[0], edges, epoch, tracer.as_deref_mut());
    }
    live.answers = vec![answers];
    Ok(())
}

fn record_ingest(
    live: &mut Live,
    conn: &mut Conn,
    edges: &[TemporalEdge],
    epoch: u64,
    tracer: Option<&mut Tracer>,
) {
    let start = Instant::now();
    let (ok, ms) = ingest(conn, edges, epoch);
    if let Some(tracer) = tracer {
        tracer.record("live.ingest", start, Instant::now(), None, epoch);
    }
    live.ingest_ms[0].push(ms);
    live.failed_ingests += usize::from(!ok);
}

/// Answers one round: jobs are dealt round-robin to the connections, one
/// client thread each, and the round ends when every connection has its
/// replies (the quiesce point before an ingest).
fn run_round(
    conns: &mut [Conn],
    jobs: &[(u64, Query)],
    window: usize,
    tracer: Option<&mut Tracer>,
) -> Vec<Outcome> {
    if conns.len() == 1 {
        return windowed(&mut conns[0], jobs, window, tracer);
    }
    let n = conns.len();
    let dealt: Vec<Vec<(u64, Query)>> =
        (0..n).map(|c| jobs.iter().skip(c).step_by(n).copied().collect()).collect();
    let mut forks: Vec<Option<Tracer>> =
        (0..n).map(|_| tracer.as_ref().map(|t| t.fork())).collect();
    let per_conn: Vec<Vec<Outcome>> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(&dealt)
            .zip(&mut forks)
            .map(|((conn, jobs), fork)| {
                scope.spawn(move || windowed(conn, jobs, window, fork.as_mut()))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    if let Some(tracer) = tracer {
        for fork in forks.into_iter().flatten() {
            tracer.absorb(fork);
        }
    }
    // Undo the deal: job k went to connection k % n as its (k / n)-th job.
    (0..jobs.len()).map(|k| per_conn[k % n][k / n]).collect()
}
