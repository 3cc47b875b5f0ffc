//! The benchmark's own load generator.
//!
//! It does not use the program's traffic module, so a change there cannot
//! change the load. A seeded Poisson schedule is built before timing
//! starts; one sender thread paces it by sleeping and sends everything
//! already due on each wake, and one reader thread takes the responses off
//! the same connection. Latency is timed from each request's due time, so a
//! stall also charges the requests queued behind it, and the sender's
//! lateness is recorded beside it.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use dsstc_serve::net::frame::{WireError, WireStatus};
use dsstc_serve::{InferRequest, WireClient};
use dsstc_tensor::Matrix;

/// SplitMix64: a small, fast, seedable generator whose output depends on
/// nothing but its seed.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for the stream `stream` of run seed `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize
    }
}

/// One scheduled request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arrival {
    /// When it is due, from the start of the phase.
    pub due_ns: u64,
    /// Index into the request pool's keys.
    pub key: usize,
    /// Index into the key's inputs.
    pub input: usize,
    /// Sent at High priority (else Normal).
    pub high: bool,
}

/// A Poisson schedule at `rate` requests per second lasting `seconds`:
/// exponential gaps, keys and inputs drawn uniformly, one request in four
/// at High priority.
pub fn poisson_schedule(
    rng: &mut Rng,
    rate: f64,
    seconds: f64,
    keys: usize,
    inputs: usize,
) -> Vec<Arrival> {
    let mut schedule = Vec::with_capacity((rate * seconds * 1.1) as usize + 16);
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.next_f64()).ln() / rate;
        if t >= seconds {
            return schedule;
        }
        schedule.push(Arrival {
            due_ns: (t * 1e9) as u64,
            key: rng.below(keys),
            input: rng.below(inputs),
            high: rng.below(4) == 0,
        });
    }
}

/// The requests a workload sends and the outputs they must produce.
pub struct RequestPool {
    /// `requests[key][input]` as `[Normal, High]` priority variants.
    pub requests: Vec<Vec<[InferRequest; 2]>>,
    /// `expected[key][input]`: the in-process reference output.
    pub expected: Vec<Vec<Matrix>>,
}

impl RequestPool {
    pub fn request(&self, a: &Arrival) -> &InferRequest {
        &self.requests[a.key][a.input][usize::from(a.high)]
    }

    pub fn inputs(&self) -> usize {
        self.requests[0].len()
    }
}

/// Whether two matrices hold the same bits.
pub fn same_bits(a: &Matrix, b: &Matrix) -> bool {
    a.rows() == b.rows()
        && a.cols() == b.cols()
        && a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// How one request ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Answered with the expected bits.
    Ok,
    /// Answered with other bits.
    Mismatch,
    /// Answered with a `ShedLoad` error frame.
    Shed,
    /// Answered with any other error frame.
    Error,
    /// Answered after the timeout, or never.
    Timeout,
}

/// What a phase of open- or closed-loop traffic measured, per request in
/// schedule (send) order.
#[derive(Debug)]
pub struct PhaseResult {
    pub outcome: Vec<Outcome>,
    /// From the due time to the response, ms (`NaN` when unanswered).
    pub latency_ms: Vec<f64>,
    /// From the due time to the send, ms.
    pub late_ms: Vec<f64>,
    /// From the send to the response, µs (`NaN` when unanswered).
    pub client_us: Vec<f64>,
    /// Length of the phase, from its start to the last response.
    pub elapsed: Duration,
}

impl PhaseResult {
    fn new(n: usize) -> Self {
        PhaseResult {
            outcome: vec![Outcome::Timeout; n],
            latency_ms: vec![f64::NAN; n],
            late_ms: vec![0.0; n],
            client_us: vec![f64::NAN; n],
            elapsed: Duration::ZERO,
        }
    }

    pub fn count(&self, outcome: Outcome) -> u64 {
        self.outcome.iter().filter(|&&o| o == outcome).count() as u64
    }

    pub fn failed(&self) -> u64 {
        self.outcome.len() as u64 - self.count(Outcome::Ok)
    }

    /// Latencies of the requests in `range` of the schedule; a request
    /// that did not end `Ok` counts as infinitely late, so it misses any
    /// limit.
    pub fn latencies(&self, range: std::ops::Range<usize>) -> Vec<f64> {
        range
            .map(
                |i| if self.outcome[i] == Outcome::Ok { self.latency_ms[i] } else { f64::INFINITY },
            )
            .collect()
    }

    /// Records a response to request `i` that arrived at `at`.
    fn answer(
        &mut self,
        i: usize,
        at: Duration,
        due: Duration,
        sent: Duration,
        status: WireStatus,
        output_ok: bool,
    ) {
        self.latency_ms[i] = (at.saturating_sub(due)).as_secs_f64() * 1e3;
        self.client_us[i] = (at.saturating_sub(sent)).as_secs_f64() * 1e6;
        self.outcome[i] = if at.saturating_sub(due) > TIMEOUT {
            Outcome::Timeout
        } else {
            outcome(status, output_ok)
        };
    }
}

/// A request answered later than this after its due time failed.
pub const TIMEOUT: Duration = Duration::from_secs(10);

/// Drives `schedule` open-loop over one fresh connection to `addr`: the
/// sender thread paces the schedule, the reader thread checks every
/// response bit for bit against the pool's reference output as it arrives
/// (a slice compare; the references were computed before the phase).
/// The sender half-closes the connection after the last request, and the
/// server closes it once everything is answered.
pub fn open_loop(addr: SocketAddr, pool: &RequestPool, schedule: &[Arrival]) -> PhaseResult {
    let mut sender = WireClient::connect(addr).expect("connect to the benchmark server");
    let mut reader = sender.try_clone().expect("clone the benchmark connection");
    let n = schedule.len();
    let start = Instant::now();
    let (sent_at, mut result) = std::thread::scope(|scope| {
        let send = scope.spawn(move || {
            let mut sent_at = vec![Duration::ZERO; n];
            for (i, a) in schedule.iter().enumerate() {
                let due = Duration::from_nanos(a.due_ns);
                let now = start.elapsed();
                if now < due {
                    std::thread::sleep(due - now);
                }
                sent_at[i] = start.elapsed();
                sender.send(pool.request(a)).expect("send a benchmark request");
            }
            sender.finish_sending().expect("half-close the benchmark connection");
            sent_at
        });
        let read = scope.spawn(move || {
            let mut answers = Vec::with_capacity(n);
            loop {
                match reader.recv() {
                    Ok(frame) => {
                        let at = start.elapsed();
                        let Some(i) = usize::try_from(frame.id).ok().filter(|&i| i < n) else {
                            continue;
                        };
                        let a = &schedule[i];
                        let ok = frame
                            .body
                            .as_ref()
                            .is_some_and(|b| same_bits(&b.output, &pool.expected[a.key][a.input]));
                        answers.push((i, at, frame.status, ok));
                    }
                    Err(WireError::Truncated) => break,
                    Err(e) => panic!("benchmark connection failed: {e}"),
                }
            }
            answers
        });
        let sent_at = send.join().expect("sender thread");
        let answers = read.join().expect("reader thread");
        let mut result = PhaseResult::new(n);
        for (i, at, status, ok) in answers {
            let due = Duration::from_nanos(schedule[i].due_ns);
            result.answer(i, at, due, sent_at[i], status, ok);
            result.elapsed = result.elapsed.max(at);
        }
        (sent_at, result)
    });
    for (i, a) in schedule.iter().enumerate() {
        result.late_ms[i] =
            sent_at[i].saturating_sub(Duration::from_nanos(a.due_ns)).as_secs_f64() * 1e3;
    }
    result
}

/// Drives a closed loop over one fresh connection: `window` requests are
/// kept in flight, and each response releases the next request, until
/// `seconds` have passed; then the window drains. Request `i` is
/// `order[i % order.len()]` of a seeded shuffle of the pool, so nothing
/// per request is stored but its outcome.
pub fn closed_loop(
    addr: SocketAddr,
    pool: &RequestPool,
    rng: &mut Rng,
    window: usize,
    seconds: f64,
) -> PhaseResult {
    let mut order: Vec<Arrival> = (0..pool.requests.len())
        .flat_map(|key| {
            (0..pool.inputs()).map(move |input| Arrival { due_ns: 0, key, input, high: false })
        })
        .collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }
    let arrival = |i: usize| order[i % order.len()];
    let mut client = WireClient::connect(addr).expect("connect to the benchmark server");
    let mut result = PhaseResult::new(0);
    let stop = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let send_next = |client: &mut WireClient, result: &mut PhaseResult| {
        let i = result.outcome.len();
        result.outcome.push(Outcome::Timeout);
        client.send(pool.request(&arrival(i))).expect("send a benchmark request");
    };
    for _ in 0..window {
        send_next(&mut client, &mut result);
    }
    let mut outstanding = window;
    while outstanding > 0 {
        let frame = client.recv().expect("benchmark connection failed");
        let at = start.elapsed();
        outstanding -= 1;
        let i = usize::try_from(frame.id).expect("response id");
        let a = arrival(i);
        let ok = frame
            .body
            .as_ref()
            .is_some_and(|b| same_bits(&b.output, &pool.expected[a.key][a.input]));
        result.outcome[i] = outcome(frame.status, ok);
        result.elapsed = at;
        if at < stop {
            send_next(&mut client, &mut result);
            outstanding += 1;
        }
    }
    result
}

fn outcome(status: WireStatus, output_ok: bool) -> Outcome {
    match status {
        WireStatus::Ok if output_ok => Outcome::Ok,
        WireStatus::Ok => Outcome::Mismatch,
        WireStatus::ShedLoad => Outcome::Shed,
        _ => Outcome::Error,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_function_of_the_seed() {
        let a = poisson_schedule(&mut Rng::new(7, 1), 5000.0, 0.5, 8, 16);
        let b = poisson_schedule(&mut Rng::new(7, 1), 5000.0, 0.5, 8, 16);
        assert_eq!(a, b);
        let c = poisson_schedule(&mut Rng::new(8, 1), 5000.0, 0.5, 8, 16);
        assert_ne!(a, c);
        let d = poisson_schedule(&mut Rng::new(7, 2), 5000.0, 0.5, 8, 16);
        assert_ne!(a, d, "streams of one seed differ");
    }

    #[test]
    fn schedule_has_the_requested_rate_and_mix() {
        let s = poisson_schedule(&mut Rng::new(42, 0), 10_000.0, 2.0, 8, 16);
        let n = s.len() as f64;
        assert!((n - 20_000.0).abs() < 600.0, "{n} arrivals for 20000 expected");
        assert!(s.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!(s.iter().all(|a| a.due_ns < 2_000_000_000 && a.key < 8 && a.input < 16));
        let high = s.iter().filter(|a| a.high).count() as f64 / n;
        assert!((high - 0.25).abs() < 0.02, "High share {high}");
        for key in 0..8 {
            let share = s.iter().filter(|a| a.key == key).count() as f64 / n;
            assert!((share - 0.125).abs() < 0.02, "key {key} share {share}");
        }
    }

    #[test]
    fn rng_is_deterministic_and_uniform() {
        let mut a = Rng::new(3, 9);
        let mut b = Rng::new(3, 9);
        let xs: Vec<u64> = (0..100).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..100).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        let mut r = Rng::new(1, 0);
        let mean = (0..10_000).map(|_| r.next_f64()).sum::<f64>() / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02);
        assert!((0..1000).all(|_| r.below(5) < 5));
    }

    #[test]
    fn same_bits_tells_signed_zeros_apart() {
        let a = Matrix::from_vec(1, 2, vec![0.0, 1.0]);
        let b = Matrix::from_vec(1, 2, vec![-0.0, 1.0]);
        assert!(same_bits(&a, &a.clone()));
        assert!(!same_bits(&a, &b));
    }
}
