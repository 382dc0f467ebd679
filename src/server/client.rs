//! Built-in client for the serve API (`melody submit` / `status` /
//! `drain`, and the integration tests).
//!
//! Every failure is a typed [`ClientError`] so callers can map
//! outcomes to exit codes without string-matching: operator mistakes
//! (unreachable server, unknown job id, malformed response) exit `2`
//! in the CLI, mirroring the repo's argument-error convention, while
//! transient `Busy`/`Draining` rejections can be retried with the same
//! capped exponential backoff the engine itself uses.

use std::fmt;
use std::io::{self, Write as _};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use super::api::{ApiError, HealthReply, JobStatus, JobView, SubmitReply};
use super::http::{self, RawResponse};

/// Connect timeout for client requests.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(3);
/// Socket read/write timeout for client requests.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Why a client call failed.
#[derive(Debug, Clone)]
pub enum ClientError {
    /// Could not resolve/connect/converse with the server at all.
    Unreachable(String),
    /// The server answered, but not with the expected shape.
    Malformed(String),
    /// `404 unknown-job`: the job id does not exist on this server.
    UnknownJob(String),
    /// `429 busy`: the client is at its in-flight bound.
    Busy {
        /// The server's `retry_after_ms` hint, if it sent one.
        retry_after_ms: Option<u64>,
    },
    /// `503 draining`: the server is shutting down gracefully.
    Draining,
    /// `409 not-finished`: the result was requested too early.
    NotFinished {
        /// The job's current status label (`queued`, `running`, ...).
        status: String,
    },
    /// Any other typed rejection (`400 bad-spec`, `422 admission`, ...).
    Rejected {
        /// HTTP status code.
        status: u16,
        /// Machine-readable error code from the [`ApiError`] body.
        error: String,
        /// Human-readable message from the body.
        message: String,
    },
    /// A wait loop gave up.
    TimedOut(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Unreachable(m) => write!(f, "cannot reach melody server: {m}"),
            ClientError::Malformed(m) => write!(f, "malformed server response: {m}"),
            ClientError::UnknownJob(m) => write!(f, "unknown job: {m}"),
            ClientError::Busy { retry_after_ms } => match retry_after_ms {
                Some(ms) => write!(f, "server busy (retry after {ms} ms)"),
                None => write!(f, "server busy"),
            },
            ClientError::Draining => write!(f, "server is draining; resubmit after restart"),
            ClientError::NotFinished { status } => {
                write!(f, "job not finished (currently {status})")
            }
            ClientError::Rejected {
                status,
                error,
                message,
            } => write!(f, "server rejected request ({status} {error}): {message}"),
            ClientError::TimedOut(m) => write!(f, "timed out: {m}"),
        }
    }
}

impl ClientError {
    /// True for rejections worth retrying after a pause.
    pub fn is_transient(&self) -> bool {
        matches!(self, ClientError::Busy { .. })
    }
}

/// One raw request/response round trip (connections are single-use).
fn request(
    server: &str,
    method: &str,
    path: &str,
    headers: &[(String, String)],
    body: &[u8],
) -> Result<RawResponse, ClientError> {
    let addrs = server
        .to_socket_addrs()
        .map_err(|e| ClientError::Unreachable(format!("cannot resolve `{server}`: {e}")))?;
    let mut last_err: Option<std::io::Error> = None;
    let mut stream: Option<TcpStream> = None;
    for addr in addrs {
        match TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT) {
            Ok(s) => {
                stream = Some(s);
                break;
            }
            Err(e) => last_err = Some(e),
        }
    }
    let Some(mut stream) = stream else {
        let detail = last_err.map_or("no addresses".to_string(), |e| e.to_string());
        return Err(ClientError::Unreachable(format!("{server}: {detail}")));
    };
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let mut head = format!("{method} {path} HTTP/1.1\r\nHost: {server}\r\nConnection: close\r\n");
    for (name, value) in headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str(&format!(
        "Content-Length: {}\r\nContent-Type: application/json\r\n\r\n",
        body.len()
    ));
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body))
        .map_err(|e| ClientError::Unreachable(format!("{server}: send failed: {e}")))?;
    http::read_response(&mut stream).map_err(|e| match e.kind() {
        // The connection died before a response arrived (e.g. the
        // server's listener shut down mid-drain): a reachability
        // problem, not a protocol one.
        io::ErrorKind::ConnectionReset
        | io::ErrorKind::ConnectionAborted
        | io::ErrorKind::BrokenPipe
        | io::ErrorKind::TimedOut
        | io::ErrorKind::WouldBlock
        | io::ErrorKind::UnexpectedEof => {
            ClientError::Unreachable(format!("{server}: connection dropped: {e}"))
        }
        _ => ClientError::Malformed(format!("from {server}: {e}")),
    })
}

/// Decodes the typed error body (tolerating a non-JSON body so an
/// unexpected proxy page still produces a useful message).
fn decode_error(resp: &RawResponse) -> ClientError {
    let api: ApiError = match std::str::from_utf8(&resp.body)
        .ok()
        .and_then(|t| serde_json::from_str(t).ok())
    {
        Some(e) => e,
        None => ApiError {
            error: "unknown".to_string(),
            message: format!("{} with undecodable body", resp.status),
            retry_after_ms: None,
        },
    };
    match (resp.status, api.error.as_str()) {
        (404, "unknown-job") => ClientError::UnknownJob(api.message),
        (409, "not-finished") => ClientError::NotFinished {
            status: api.message,
        },
        (429, _) => ClientError::Busy {
            retry_after_ms: api.retry_after_ms,
        },
        (503, "draining") => ClientError::Draining,
        (status, _) => ClientError::Rejected {
            status,
            error: api.error,
            message: api.message,
        },
    }
}

fn decode_body<T: serde::Deserialize>(resp: &RawResponse) -> Result<T, ClientError> {
    let text = std::str::from_utf8(&resp.body)
        .map_err(|_| ClientError::Malformed("non-UTF-8 body".to_string()))?;
    serde_json::from_str(text)
        .map_err(|e| ClientError::Malformed(format!("unexpected body: {e:?}")))
}

/// Submits a campaign spec (raw JSON text — exactly the file `melody
/// campaign` would load, so fingerprints and results are identical).
pub fn submit(
    server: &str,
    spec_json: &str,
    client: Option<&str>,
    deadline_ms: Option<u64>,
) -> Result<SubmitReply, ClientError> {
    let mut headers = Vec::new();
    if let Some(c) = client {
        headers.push(("X-Melody-Client".to_string(), c.to_string()));
    }
    if let Some(ms) = deadline_ms {
        headers.push(("X-Melody-Deadline-Ms".to_string(), ms.to_string()));
    }
    let resp = request(
        server,
        "POST",
        "/v1/campaigns",
        &headers,
        spec_json.as_bytes(),
    )?;
    if resp.status == 202 {
        decode_body(&resp)
    } else {
        Err(decode_error(&resp))
    }
}

/// Client-side retry schedule for transient `429 Busy` rejections.
#[derive(Debug, Clone, Copy)]
pub struct RetrySchedule {
    /// Retries after the first attempt (0 = fail fast).
    pub max_retries: u32,
    /// First retry delay; doubles each retry.
    pub base: Duration,
    /// Upper bound on any single delay (also caps the server hint).
    pub cap: Duration,
}

impl Default for RetrySchedule {
    fn default() -> Self {
        Self {
            max_retries: 0,
            base: Duration::from_millis(200),
            cap: Duration::from_secs(5),
        }
    }
}

/// The delay before retry `k` (1-based): capped exponential backoff,
/// bumped up to the server's `Retry-After` hint when the hint is
/// larger (but never past the cap — the cap is the client's word).
pub fn backoff_delay(schedule: &RetrySchedule, retry: u32, hint_ms: Option<u64>) -> Duration {
    let doublings = retry.saturating_sub(1).min(63);
    let base_ms = schedule.base.as_millis().min(u128::from(u64::MAX)) as u64;
    let cap_ms = schedule.cap.as_millis().min(u128::from(u64::MAX)) as u64;
    let exp = base_ms.saturating_mul(1u64.checked_shl(doublings).unwrap_or(u64::MAX));
    let mut delay = exp.min(cap_ms.max(base_ms));
    if let Some(hint) = hint_ms {
        delay = delay.max(hint.min(cap_ms.max(base_ms)));
    }
    Duration::from_millis(delay)
}

/// [`submit`] with a backpressure retry loop: `429 Busy` answers are
/// retried per `schedule`; every other outcome returns immediately.
/// On success, also reports how many retries were needed.
pub fn submit_with_retry(
    server: &str,
    spec_json: &str,
    client: Option<&str>,
    deadline_ms: Option<u64>,
    schedule: &RetrySchedule,
) -> Result<(SubmitReply, u32), ClientError> {
    let mut retries = 0u32;
    loop {
        match submit(server, spec_json, client, deadline_ms) {
            Ok(reply) => return Ok((reply, retries)),
            Err(e @ ClientError::Busy { .. }) if retries < schedule.max_retries => {
                let hint = match &e {
                    ClientError::Busy { retry_after_ms } => *retry_after_ms,
                    _ => None,
                };
                retries += 1;
                std::thread::sleep(backoff_delay(schedule, retries, hint));
            }
            Err(e) => return Err(e),
        }
    }
}

/// Fetches one job's status.
pub fn job_status(server: &str, id: &str) -> Result<JobView, ClientError> {
    let resp = request(server, "GET", &format!("/v1/jobs/{id}"), &[], &[])?;
    if resp.status == 200 {
        decode_body(&resp)
    } else {
        Err(decode_error(&resp))
    }
}

/// Lists every job the server knows about, in submission order.
pub fn list_jobs(server: &str) -> Result<Vec<JobView>, ClientError> {
    let resp = request(server, "GET", "/v1/jobs", &[], &[])?;
    if resp.status == 200 {
        decode_body(&resp)
    } else {
        Err(decode_error(&resp))
    }
}

/// Fetches a finished job's result — the exact bytes `melody campaign
/// --json` would have printed for the same spec.
pub fn job_result(server: &str, id: &str) -> Result<Vec<u8>, ClientError> {
    let resp = request(server, "GET", &format!("/v1/jobs/{id}/result"), &[], &[])?;
    if resp.status == 200 {
        Ok(resp.body)
    } else {
        Err(decode_error(&resp))
    }
}

/// Polls until the job finishes or comes back
/// [`JobStatus::Interrupted`] (the caller decides whether to restart
/// the server). Transient connection failures are tolerated: the
/// server may be mid-restart, which is precisely when waiting matters.
///
/// Polls back off exponentially: the sleep starts at
/// `schedule.base` and doubles up to `schedule.cap` while the job's
/// observable state (status, journaled cells, progress) is unchanged,
/// snapping back to the base the moment anything moves. Long quiet
/// waits stop hammering the server; active jobs stay responsive.
pub fn wait_with_backoff(
    server: &str,
    id: &str,
    schedule: &RetrySchedule,
    timeout: Duration,
) -> Result<JobView, ClientError> {
    let start = Instant::now();
    let mut last: Option<ClientError> = None;
    // (status, cells journaled, progress ticks) — any movement resets
    // the backoff so a briskly-running job is polled at the base rate.
    let mut fingerprint: Option<(JobStatus, usize, usize)> = None;
    let mut unchanged = 0u32;
    loop {
        if start.elapsed() >= timeout {
            let detail = match last {
                Some(e) => format!("waiting for {id}: last error: {e}"),
                None => format!("waiting for {id}"),
            };
            return Err(ClientError::TimedOut(detail));
        }
        match job_status(server, id) {
            Ok(view) => {
                if view.status.is_finished() || view.status == JobStatus::Interrupted {
                    return Ok(view);
                }
                let fp = (
                    view.status,
                    view.cells_journaled,
                    view.progress.as_ref().map_or(0, |p| p.done),
                );
                if fingerprint == Some(fp) {
                    unchanged = unchanged.saturating_add(1);
                } else {
                    fingerprint = Some(fp);
                    unchanged = 0;
                }
                last = None;
            }
            Err(e @ ClientError::Unreachable(_)) => {
                last = Some(e);
                unchanged = unchanged.saturating_add(1);
            }
            Err(e) => return Err(e),
        }
        std::thread::sleep(backoff_delay(schedule, unchanged + 1, None));
    }
}

/// Requests a graceful drain.
pub fn drain(server: &str) -> Result<(), ClientError> {
    let resp = request(server, "POST", "/v1/drain", &[], &[])?;
    if resp.status == 200 {
        Ok(())
    } else {
        Err(decode_error(&resp))
    }
}

/// Fetches the Prometheus text exposition from `GET /metrics` (the
/// raw document, ready to lint or print).
pub fn metrics(server: &str) -> Result<String, ClientError> {
    let resp = request(server, "GET", "/metrics", &[], &[])?;
    if resp.status == 200 {
        String::from_utf8(resp.body)
            .map_err(|_| ClientError::Malformed("non-UTF-8 metrics body".to_string()))
    } else {
        Err(decode_error(&resp))
    }
}

/// Fetches the health/counter snapshot.
pub fn health(server: &str) -> Result<HealthReply, ClientError> {
    let resp = request(server, "GET", "/v1/healthz", &[], &[])?;
    if resp.status == 200 {
        decode_body(&resp)
    } else {
        Err(decode_error(&resp))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let s = RetrySchedule {
            max_retries: 10,
            base: Duration::from_millis(100),
            cap: Duration::from_millis(450),
        };
        let ms = |k| backoff_delay(&s, k, None).as_millis();
        assert_eq!(ms(1), 100);
        assert_eq!(ms(2), 200);
        assert_eq!(ms(3), 400);
        assert_eq!(ms(4), 450, "capped");
        assert_eq!(ms(63), 450, "still capped, no overflow");
    }

    #[test]
    fn server_hint_raises_but_never_exceeds_cap() {
        let s = RetrySchedule {
            max_retries: 10,
            base: Duration::from_millis(100),
            cap: Duration::from_millis(450),
        };
        assert_eq!(backoff_delay(&s, 1, Some(300)).as_millis(), 300);
        assert_eq!(backoff_delay(&s, 1, Some(9_000)).as_millis(), 450);
        assert_eq!(backoff_delay(&s, 3, Some(50)).as_millis(), 400);
    }

    #[test]
    fn unreachable_server_is_a_typed_error() {
        // Port 9 (discard) on localhost is almost surely closed; if
        // something does listen there it won't speak our protocol, so
        // any failure here is acceptable — but it must be an Err.
        let err = job_status("127.0.0.1:9", "job-000001").expect_err("no server");
        let msg = err.to_string();
        assert!(!msg.is_empty());
    }
}
