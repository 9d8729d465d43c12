//! `daemon_mixed`: one client in a closed loop against a `qei_served`
//! daemon running as a child process, over its Unix socket.
//!
//! The child is this binary re-executed with `--daemon-child`, which calls
//! `qei_served::serve` exactly as `repro serve-daemon` does; the benchmark
//! then needs no second build. In a traced run a replica session in this
//! process repeats every request through the same `SimSession` calls the
//! daemon makes, with spans; what the replica does not account for of a
//! round trip is socket, protocol, and dispatch (`served.protocol_share`).

use crate::measure::{end_to_end, peak_rss_mb, phase, Layers, Opts, Outcome, MIN_CYCLES, SETUPS};
use crate::spans::Recorder;
use crate::stats::{fnv1a, mix, ms, percentile, DigestBook, Tally};
use crate::traced;
use qei_config::{MachineConfig, Scheme, SimRng};
use qei_mem::GuestMem;
use qei_served::{json_str, SCHEMA};
use qei_sim::{RunPlan, RunReport, SimSession, SimSnapshot, WorkloadKind, WorkloadSpec};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The warm session every request targets.
const SESSION: &str = "w";
/// JVM live-object tree at Paper scale.
const OBJECTS: u64 = 150_000;
const JOBS: u64 = 1_500;
const QUERIES_PER_CYCLE: usize = 20;
const CYCLES_PER_PERIOD: usize = 25;
/// 25 cycles of {20 queries, 1 mutate}, then a revert and a run.
pub const PERIOD: usize = CYCLES_PER_PERIOD * (QUERIES_PER_CYCLE + 1) + 2;
/// A reply slower than this means the daemon is wedged.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// One request of the script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Req {
    /// Blocking query of workload job `job` under CHA-TLB.
    Query(u64),
    /// Insert of a fresh key.
    Mutate(String, u64),
    /// Revert to the warm snapshot.
    Revert,
    /// A blocking CHA-TLB run of the whole job list.
    Run,
}

impl Req {
    /// The request line.
    pub fn line(&self) -> String {
        let body = match self {
            Req::Query(job) => {
                format!("\"op\":\"query\",\"session\":\"{SESSION}\",\"scheme\":\"cha-tlb\",\"job\":{job}")
            }
            Req::Mutate(key, value) => format!(
                "\"op\":\"mutate\",\"session\":\"{SESSION}\",\"action\":\"insert\",\"key\":{},\"value\":{value}",
                json_str(key)
            ),
            Req::Revert => format!("\"op\":\"revert\",\"session\":\"{SESSION}\",\"name\":\"warm\""),
            Req::Run => format!(
                "\"op\":\"run\",\"session\":\"{SESSION}\",\"mode\":\"qei-blocking\",\"scheme\":\"cha-tlb\""
            ),
        };
        request(&body)
    }

    fn kind(&self) -> &'static str {
        match self {
            Req::Query(_) => "query",
            Req::Mutate(..) => "mutate",
            Req::Revert => "revert",
            Req::Run => "run",
        }
    }
}

fn request(body: &str) -> String {
    format!("{{\"schema\":\"{SCHEMA}\",{body}}}")
}

/// The request stream: position `i` of the period, queries and keys drawn
/// from `rng`.
pub fn next_request(i: usize, rng: &mut SimRng) -> Req {
    let i = i % PERIOD;
    let cycle_len = QUERIES_PER_CYCLE + 1;
    if i == PERIOD - 2 {
        Req::Revert
    } else if i == PERIOD - 1 {
        Req::Run
    } else if i % cycle_len < QUERIES_PER_CYCLE {
        Req::Query(rng.below(JOBS))
    } else {
        Req::Mutate(
            format!("{:08x}", rng.next_u64() as u32),
            rng.below(1 << 40) + 1,
        )
    }
}

/// The unsigned field `key` of a response line (its first occurrence,
/// which precedes any embedded report).
pub fn field_u64(line: &str, key: &str) -> Option<u64> {
    let tag = format!("\"{key}\":");
    let at = line.find(&tag)? + tag.len();
    let digits: String = line[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Whether a response reports success.
pub fn is_ok(line: &str) -> bool {
    line.starts_with(&format!("{{\"schema\":\"{SCHEMA}\",\"ok\":true"))
}

/// What the replies must agree with across the run.
#[derive(Debug, Default)]
pub struct Expect {
    /// Digest of the warm snapshot.
    pub warm: u64,
    /// First answer per job and first run reply.
    pub book: DigestBook,
}

/// Checks one reply and counts it in `tally`: it must succeed, a query must
/// answer what that job answered before (the inserted keys are fresh), a
/// revert must restore the warm digest, and a run must verify and repeat
/// byte for byte after each revert.
pub fn check_reply(req: &Req, reply: &str, expect: &mut Expect, tally: &mut Tally) {
    let ok = is_ok(reply)
        && match req {
            Req::Query(job) => field_u64(reply, "result")
                .is_some_and(|r| expect.book.record(&format!("job{job:04}"), r)),
            Req::Mutate(..) => field_u64(reply, "digest").is_some_and(|d| d != expect.warm),
            Req::Revert => field_u64(reply, "digest") == Some(expect.warm),
            Req::Run => {
                reply.contains("\"correct\":true")
                    && expect.book.record("run", fnv1a(reply.as_bytes()))
            }
        };
    tally.record(ok);
}

/// The daemon child, killed and reaped however the run ends.
struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    fn spawn(exe: &Path, socket: &Path) -> Result<Daemon, String> {
        let child = Command::new(exe)
            .arg("--daemon-child")
            .arg(socket)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start the daemon: {e}"))?;
        Ok(Daemon {
            child,
            socket: socket.to_path_buf(),
        })
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// A line-protocol connection with a bounded wait for each reply.
struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Conn {
    fn connect(socket: &Path) -> Result<Conn, String> {
        let mut last = String::new();
        for _ in 0..200 {
            match UnixStream::connect(socket) {
                Ok(stream) => {
                    stream
                        .set_read_timeout(Some(REPLY_TIMEOUT))
                        .map_err(|e| e.to_string())?;
                    let reader = stream.try_clone().map_err(|e| e.to_string())?;
                    return Ok(Conn {
                        reader: BufReader::new(reader),
                        writer: stream,
                    });
                }
                Err(e) => last = e.to_string(),
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        Err(format!("cannot connect to {}: {last}", socket.display()))
    }

    /// Sends `line` and returns the reply with the round-trip time.
    fn call(&mut self, line: &str) -> Result<(String, Duration), String> {
        let started = Instant::now();
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("write failed: {e}"))?;
        let mut reply = String::new();
        let n = self
            .reader
            .read_line(&mut reply)
            .map_err(|e| format!("read failed: {e}"))?;
        let rtt = started.elapsed();
        if n == 0 {
            return Err("the daemon closed the connection".to_string());
        }
        Ok((reply.trim_end().to_string(), rtt))
    }

    fn call_ok(&mut self, line: &str) -> Result<(String, Duration), String> {
        let (reply, rtt) = self.call(line)?;
        if is_ok(&reply) {
            Ok((reply, rtt))
        } else {
            Err(format!("{line} failed: {reply}"))
        }
    }
}

/// The in-process twin of the daemon's session.
struct Replica {
    config: MachineConfig,
    spec: WorkloadSpec,
    session: SimSession,
    warm_image: GuestMem,
    warm: SimSnapshot,
}

impl Replica {
    fn build(spec: WorkloadSpec, layers: &mut Layers) -> Replica {
        let config = MachineConfig::skylake_sp_24();
        let started = Instant::now();
        let (image, workload) = spec.build_image();
        layers.add_call("workloads.build_ms", ms(started.elapsed()));
        let session = SimSession::from_prototype(
            config.clone(),
            image.clone(),
            Arc::from(workload),
            Some(spec),
        );
        let warm = session.snapshot();
        Replica {
            config,
            spec,
            session,
            warm_image: image,
            warm,
        }
    }

    /// Repeats `req` with spans; `false` when its outcome differs from the
    /// daemon's `reply`. A run also returns its report.
    fn repeat(&mut self, rec: &mut Recorder, req: &Req, reply: &str) -> (bool, Option<RunReport>) {
        let same = match req {
            Req::Query(job) => {
                let out = rec.span("core.submit", || {
                    self.session.query(Scheme::ChaTlb, *job as usize)
                });
                matches!(out, Some((c, Ok(r)))
                    if field_u64(reply, "completion") == Some(c.as_u64())
                        && field_u64(reply, "result") == Some(r))
            }
            Req::Mutate(key, value) => {
                let mut padded = key.clone().into_bytes();
                padded.resize(self.session.workload().key_len(), 0);
                let done = rec.span("datastructs.mutate", || {
                    self.session.mutate_insert(&padded, *value)
                });
                let digest = rec.span("mem.digest", || self.session.state_digest());
                done.is_ok() && field_u64(reply, "digest") == Some(digest)
            }
            Req::Revert => {
                rec.span("mem.fork", || self.session.restore(&self.warm));
                let digest = rec.span("mem.digest", || self.session.state_digest());
                field_u64(reply, "digest") == Some(digest)
            }
            Req::Run => {
                // A run right after a revert forks the warm image.
                let plan = RunPlan::qei(self.spec, Scheme::ChaTlb);
                let workload = self.session.workload();
                let report = traced::run_plan(rec, &self.config, &self.warm_image, workload, &plan);
                let digest = rec.span("mem.digest", || self.session.state_digest());
                let json = rec.span("sim.report_json", || report.to_json());
                let again = rec.span("sim.report_json", || report.to_json());
                let same = json == again
                    && field_u64(reply, "digest") == Some(digest)
                    && reply.contains(&json_str(&json));
                return (same, Some(report));
            }
        };
        (same, None)
    }
}

/// Runs the workload; `exe` is this binary, `dir` holds the socket.
///
/// # Errors
///
/// When the daemon cannot be started or reached, set-up fails, or too few
/// requests ran.
pub fn run(opts: &Opts, exe: &Path, dir: &Path) -> Result<Outcome, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let socket = dir.join(format!("daemon-{}.sock", std::process::id()));
    let mut daemon = Daemon::spawn(exe, &socket)?;
    let mut conn = Conn::connect(&socket)?;
    let spec = WorkloadSpec::new(
        mix(opts.seed, 30),
        mix(opts.seed, 31),
        WorkloadKind::JvmGc {
            objects: OBJECTS,
            queries: JOBS as usize,
        },
    );
    let build = |name: &str| {
        request(&format!(
            "\"op\":\"build\",\"session\":\"{name}\",\"kind\":\"jvm-gc\",\"guest_seed\":{},\"build_seed\":{},\"p0\":{OBJECTS},\"p1\":{JOBS}",
            spec.guest_seed, spec.build_seed
        ))
    };

    let mut out = Outcome::default();
    let mut layers = Layers::default();
    // Each set-up builds the session the way a client would; all but the
    // last are closed again so they do not hold memory.
    let mut setup_s = Vec::new();
    let setups = if opts.traced { 1 } else { SETUPS };
    for k in 1..=setups {
        let name = if k == setups { SESSION } else { "setup" };
        let (_, rtt) = conn.call_ok(&build(name))?;
        setup_s.push(rtt.as_secs_f64());
        if name != SESSION {
            conn.call_ok(&request("\"op\":\"close\",\"session\":\"setup\""))?;
        }
    }
    let (snap, _) = conn.call_ok(&request(&format!(
        "\"op\":\"snapshot\",\"session\":\"{SESSION}\",\"name\":\"warm\""
    )))?;
    let mut expect = Expect {
        warm: field_u64(&snap, "digest").ok_or("the snapshot reply has no digest")?,
        ..Expect::default()
    };

    let mut rng = SimRng::seed_from_u64(mix(opts.seed, 32));
    let mut rtt_ms: Vec<f64> = Vec::new();
    let mut kinds: Vec<&'static str> = Vec::new();
    let mut queries = 0.0;
    // The first period's replies are a pure function of the seed.
    let mut transcript = String::new();
    let mut lost = None;
    let min_ops = if opts.traced { 0 } else { MIN_CYCLES * PERIOD };
    phase(PERIOD, opts.untraced_budget(), min_ops, |i| {
        let req = next_request(i, &mut rng);
        match conn.call(&req.line()) {
            Ok((reply, rtt)) => {
                rtt_ms.push(ms(rtt));
                kinds.push(req.kind());
                queries += match req {
                    Req::Query(_) => 1.0,
                    Req::Run => field_u64(&reply, "queries").unwrap_or(0) as f64,
                    _ => 0.0,
                };
                check_reply(&req, &reply, &mut expect, &mut out.tally);
                if i < PERIOD {
                    transcript.push_str(&reply);
                    transcript.push('\n');
                }
                true
            }
            Err(e) => {
                out.tally.record(false);
                lost = Some(e);
                false
            }
        }
    });

    if opts.traced && lost.is_none() {
        let mut replica = Replica::build(spec, &mut layers);
        out.metrics
            .insert("mem.image_mb", replica.warm_image.heap_used() as f64 / 1e6);
        // Both start from the warm snapshot and replay the script.
        conn.call_ok(&Req::Revert.line())?;
        let mut rng = SimRng::seed_from_u64(mix(opts.seed, 32));
        phase(PERIOD, opts.traced_budget(), 0, |i| {
            let req = next_request(i, &mut rng);
            let rec = &mut out.spans;
            rec.set_request(i as u64);
            let first = rec.spans().len();
            let root = rec.open("op");
            let (reply, rtt) = match rec.span("served.rtt", || conn.call(&req.line())) {
                Ok(pair) => pair,
                Err(e) => {
                    rec.close(root);
                    out.tally.record(false);
                    lost = Some(e);
                    return false;
                }
            };
            let inner = rec.open("served.replica");
            let (same, report) = replica.repeat(rec, &req, &reply);
            rec.close(inner);
            let replica_ns = rec.duration_ns(inner) as f64;
            rec.close(root);
            let rtt_ns = rtt.as_nanos() as f64;
            layers.traced_ms.push(rtt_ns / 1e6);
            layers.add_spans(rec, first);
            layers.add_share("served.protocol_share", (rtt_ns - replica_ns).max(0.0));
            layers.add_op(rtt_ns);
            if i < PERIOD {
                let weight = 1.0 / PERIOD as f64;
                match (&req, report) {
                    (Req::Query(_), _) => layers.add_count("core.submits", 1.0, weight),
                    (_, Some(report)) => layers.add_report(&report, weight),
                    _ => {}
                }
            }
            check_reply(&req, &reply, &mut expect, &mut out.tally);
            if !same {
                out.tally.fail_check();
            }
            true
        });
    }

    if let Some(e) = lost {
        return Err(format!("lost the daemon: {e}"));
    }
    let rss = peak_rss_mb(&daemon.child.id().to_string())?;
    conn.call_ok(&request("\"op\":\"shutdown\""))?;
    let status = daemon
        .child
        .wait()
        .map_err(|e| format!("cannot reap the daemon: {e}"))?;
    if !status.success() {
        return Err(format!("the daemon exited with {status}"));
    }

    out.notes
        .push(format!("sim_digest {:016x}", fnv1a(transcript.as_bytes())));
    out.notes
        .push(format!("requests {} (period {PERIOD})", rtt_ms.len()));
    for kind in ["query", "mutate", "revert", "run"] {
        let rtts: Vec<f64> = rtt_ms
            .iter()
            .zip(&kinds)
            .filter(|(_, k)| **k == kind)
            .map(|(t, _)| *t)
            .collect();
        let show = |p| percentile(&rtts, p).map_or("n/a".to_string(), |v| format!("{v:.4} ms"));
        out.notes.push(format!(
            "{kind:6} rtt p50 {} p99 {} ({} samples)",
            show(50),
            show(99),
            rtts.len()
        ));
    }
    if opts.traced {
        layers.untraced_ms = rtt_ms;
        layers.finish(&mut out.metrics, PERIOD);
    } else {
        end_to_end(&mut out.metrics, &rtt_ms, PERIOD, queries, &setup_s, rss)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qei_served::{handle_line, DaemonState};

    #[test]
    fn the_period_is_queries_mutates_then_revert_and_run() {
        let mut rng = SimRng::seed_from_u64(1);
        let reqs: Vec<Req> = (0..PERIOD).map(|i| next_request(i, &mut rng)).collect();
        let count = |kind| reqs.iter().filter(|r| r.kind() == kind).count();
        assert_eq!(count("query"), 500);
        assert_eq!(count("mutate"), 25);
        assert_eq!(reqs[PERIOD - 2], Req::Revert);
        assert_eq!(reqs[PERIOD - 1], Req::Run);
        assert!(matches!(reqs[20], Req::Mutate(..)));
    }

    #[test]
    fn an_unknown_session_counts_as_failed() {
        let mut state = DaemonState::new(MachineConfig::skylake_sp_24());
        let built = handle_line(
            &mut state,
            &request("\"op\":\"build\",\"session\":\"w\",\"kind\":\"jvm-gc\",\"p0\":300,\"p1\":20"),
        );
        let mut expect = Expect::default();
        let mut tally = Tally::default();
        let query = Req::Query(3);
        let reply = handle_line(&mut state, &query.line());
        check_reply(&query, reply.line(), &mut expect, &mut tally);
        assert!(is_ok(built.line()));
        assert_eq!(tally.failed, 0);

        let stray = query
            .line()
            .replace("\"session\":\"w\"", "\"session\":\"nope\"");
        let reply = handle_line(&mut state, &stray);
        assert!(reply.line().contains("unknown session"));
        check_reply(&query, reply.line(), &mut expect, &mut tally);
        assert_eq!(
            tally,
            Tally {
                attempted: 2,
                failed: 1
            }
        );
    }

    #[test]
    fn replies_are_checked_against_earlier_ones() {
        let mut expect = Expect {
            warm: 9,
            ..Expect::default()
        };
        let mut tally = Tally::default();
        let ok = |fields: &str| format!("{{\"schema\":\"{SCHEMA}\",\"ok\":true,{fields}}}");
        check_reply(&Req::Query(1), &ok("\"result\":5"), &mut expect, &mut tally);
        check_reply(&Req::Query(1), &ok("\"result\":6"), &mut expect, &mut tally);
        check_reply(&Req::Revert, &ok("\"digest\":9"), &mut expect, &mut tally);
        check_reply(&Req::Revert, &ok("\"digest\":8"), &mut expect, &mut tally);
        assert_eq!(tally.failed, 2);
        assert_eq!(field_u64(&ok("\"a\":12,\"b\":\"x\""), "a"), Some(12));
        assert_eq!(field_u64(&ok("\"a\":12"), "b"), None);
    }
}
