//! The load generators: one closed loop, one open loop, both on the calling
//! thread, and the statistics they feed.

use crate::spans::{Open, Spans};
use crate::workloads::{Mutator, Shape, Stream, World, CHURN_PERIOD, WARMUP_QUERIES, WINDOW};
use crate::RunArgs;
use gts_net::Client;
use gts_service::{Query, QueryResult, Ticket};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// The timed interval is cut into segments of about this length, and a
/// traced run records spans in every second one, so traced and untraced
/// throughput come from the same run, interleaved.
const SEGMENT_SECONDS: f64 = 0.25;
/// At most this many segments, and an even number of them.
const MAX_SEGMENTS: usize = 80;
/// Throughput, the latency percentiles and the set-up time are read off the
/// best twentieth: the rate a twentieth of the segments reach, the latency
/// a twentieth of them stay under, the time a twentieth of the set-ups
/// take. The shared hosts this runs on only ever slow the program down (a
/// fixed single-thread loop loses 5-25 % for seconds to minutes at a time),
/// so the best twentieth is what the program does when left alone; over
/// the same runs it spread half to a third as much from run to run as the
/// median over segments (README, "Why the best twentieth"). A slowdown of
/// the program moves every segment, the best ones too; what the best
/// twentieth hides shows in `load.qps_median` and `load.lat_p99_ms`.
const BEST_SHARE: f64 = 5.0;
/// Latency samples kept per segment; later ones overwrite the oldest, so
/// the memory the generator itself uses does not grow with throughput.
const SEGMENT_CAPACITY: usize = 1 << 13;

/// Segments a timed interval of `seconds` is cut into.
pub fn segment_count(seconds: f64) -> usize {
    ((seconds / SEGMENT_SECONDS).round() as usize).clamp(4, MAX_SEGMENTS) & !1
}

/// Answers kept for the reference check: a uniform sample of the timed
/// interval's queries. Brute-force kNN over 262 144 points costs ~8 ms, so
/// the sample is bounded rather than a share of the throughput.
pub const SAMPLE_CAPACITY: usize = 1280;

/// Exact nearest-rank percentile (`p` in 0..=100) of `sorted`; 0 when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 50.0)
}

/// The time the best twentieth of `values` stay under (see [`BEST_SHARE`]).
pub fn best_low(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), BEST_SHARE)
}

/// Latency samples by segment, in a fixed allocation with every page
/// touched at creation.
pub struct LatencyLog {
    ms: Vec<f32>,
    recorded: Vec<u64>,
}

impl LatencyLog {
    fn new(segments: usize) -> LatencyLog {
        LatencyLog {
            // NaN, not zero: a zeroed allocation is mapped lazily and
            // would grow the resident set as samples arrive.
            ms: vec![f32::NAN; segments * SEGMENT_CAPACITY],
            recorded: vec![0; segments],
        }
    }

    fn record(&mut self, segment: usize, latency: Duration) {
        let slot = (self.recorded[segment] % SEGMENT_CAPACITY as u64) as usize;
        self.ms[segment * SEGMENT_CAPACITY + slot] = (latency.as_secs_f64() * 1e3) as f32;
        self.recorded[segment] += 1;
    }

    fn segment_ms(&self, segment: usize) -> Vec<f64> {
        let kept = (self.recorded[segment] as usize).min(SEGMENT_CAPACITY);
        let from = segment * SEGMENT_CAPACITY;
        sorted(
            self.ms[from..from + kept]
                .iter()
                .map(|&v| v as f64)
                .collect(),
        )
    }

    /// Each segment's `p`th percentile, ms, and of those the value the best
    /// twentieth of the segments stay under.
    pub fn segment_percentile(&self, p: f64) -> f64 {
        let per_segment: Vec<f64> = (0..self.recorded.len())
            .filter(|&s| self.recorded[s] > 0)
            .map(|s| percentile(&self.segment_ms(s), p))
            .collect();
        best_low(&per_segment)
    }

    /// The `p`th percentile over every sample kept, ms: the tail a stall
    /// leaves shows here.
    pub fn overall_percentile(&self, p: f64) -> f64 {
        let all: Vec<f64> = (0..self.recorded.len())
            .flat_map(|s| self.segment_ms(s))
            .collect();
        percentile(&sorted(all), p)
    }
}

/// One answer kept for the reference check.
pub struct Sample {
    pub query: Query,
    pub result: QueryResult,
    /// Mutation batches acknowledged before the query was submitted, and
    /// before its result was seen: the answer must match the reference at
    /// one of the states in between.
    pub state_lo: usize,
    pub state_hi: usize,
}

/// A sampled query on its way to becoming a [`Sample`].
struct Kept {
    slot: usize,
    query: Query,
    state_lo: usize,
}

/// What one timed interval measured.
pub struct Load {
    /// Queries and mutation batches attempted in the timed interval.
    pub attempted: u64,
    /// The queries among them.
    queries: u64,
    /// Errors and refusals among them.
    pub errors: u64,
    /// Queries answered.
    pub completed: u64,
    /// From the interval's start to its end (closed loop) or to the last
    /// answer (open loop).
    pub wall: Duration,
    /// Queries answered per segment, and whether spans were on in it.
    pub segments: Vec<(u64, bool)>,
    pub segment_len: Duration,
    pub latency: LatencyLog,
    /// The reservoir of checked answers; a slot is `None` until its query
    /// is answered.
    samples: Vec<Option<Sample>>,
    sampler: ChaCha8Rng,
    /// Open loop: how late each burst was sent, ms.
    pub late_ms: Vec<f64>,
    /// `churn`: call-to-ack time of each mutation batch, ms.
    pub mutate_ack_ms: Vec<f64>,
}

impl Load {
    fn new(args: RunArgs) -> Load {
        let (seconds, traced) = (args.seconds, args.traced);
        let segments = segment_count(seconds);
        Load {
            attempted: 0,
            queries: 0,
            errors: 0,
            completed: 0,
            wall: Duration::ZERO,
            segments: (0..segments).map(|s| (0, traced && s % 2 == 1)).collect(),
            segment_len: Duration::from_secs_f64(seconds / segments as f64),
            latency: LatencyLog::new(segments),
            samples: Vec::new(),
            sampler: ChaCha8Rng::seed_from_u64(0x5a3b_1e55),
            late_ms: Vec::new(),
            mutate_ack_ms: Vec::new(),
        }
    }

    /// The segment `elapsed` into the interval falls in, if it is inside.
    fn segment_at(&self, elapsed: Duration) -> Option<usize> {
        let s = (elapsed.as_secs_f64() / self.segment_len.as_secs_f64()) as usize;
        (s < self.segments.len()).then_some(s)
    }

    /// Queries per second of every segment, ascending.
    fn segment_rates(&self) -> Vec<f64> {
        let rates = self.segments.iter();
        sorted(
            rates
                .map(|s| s.0 as f64 / self.segment_len.as_secs_f64())
                .collect(),
        )
    }

    /// Queries per second the best twentieth of the segments reach.
    pub fn segment_qps(&self) -> f64 {
        percentile(&self.segment_rates(), 100.0 - BEST_SHARE)
    }

    /// Median queries per second over the segments.
    pub fn median_qps(&self) -> f64 {
        percentile(&self.segment_rates(), 50.0)
    }

    /// Count one more query of the interval; reservoir sampling decides
    /// whether its answer is kept for the check, and in which slot.
    fn next_query(&mut self, query: &Query, state_lo: usize) -> Option<Kept> {
        let nth = self.queries;
        self.queries += 1;
        self.attempted += 1;
        let slot = if (nth as usize) < SAMPLE_CAPACITY {
            self.samples.push(None);
            nth as usize
        } else {
            self.sampler.gen_range(0..=nth) as usize
        };
        (slot < SAMPLE_CAPACITY).then(|| Kept {
            slot,
            query: query.clone(),
            state_lo,
        })
    }

    /// Account for one answer: seen `latency` after its clock started, in
    /// `segment` of the interval (`None`: after its end, which counts for
    /// the check only).
    fn answered(
        &mut self,
        r: Result<QueryResult, String>,
        segment: Option<usize>,
        latency: Duration,
        kept: Option<Kept>,
        state_hi: usize,
    ) {
        if let Some(s) = segment {
            self.latency.record(s, latency);
            self.segments[s].0 += 1;
        }
        match r {
            Ok(result) => {
                if let Some(k) = kept {
                    self.samples[k.slot] = Some(Sample {
                        query: k.query,
                        result,
                        state_lo: k.state_lo,
                        state_hi,
                    });
                }
            }
            Err(e) => {
                if self.errors == 0 {
                    eprintln!("gts-ledger: first failed query: {e}");
                }
                self.errors += 1;
            }
        }
    }

    /// The share of throughput the spans cost: one minus the median, over
    /// the pairs of neighbouring segments, of traced over untraced — each
    /// pair is two neighbouring segments, so the host's drift cancels.
    pub fn trace_overhead_share(&self) -> f64 {
        let ratios: Vec<f64> = self
            .segments
            .chunks(2)
            .filter(|pair| pair.len() == 2 && pair[1].1 && pair[0].0 > 0)
            .map(|pair| pair[1].0 as f64 / pair[0].0 as f64)
            .collect();
        if ratios.is_empty() {
            0.0
        } else {
            1.0 - median(&ratios)
        }
    }

    pub fn checked_samples(&self) -> Vec<&Sample> {
        self.samples.iter().flatten().collect()
    }
}

/// Queries sent, untimed, before the interval: enough to fill the window
/// on a `--quick` run, [`WARMUP_QUERIES`] otherwise.
fn warmup_queries(args: RunArgs) -> usize {
    if args.quick {
        WINDOW
    } else {
        WARMUP_QUERIES
    }
}

fn parent_id(span: Option<Open>) -> u64 {
    span.map_or(0, |s| s.id())
}

struct InFlight {
    ticket: Ticket,
    submitted: Instant,
    timed: bool,
    kept: Option<Kept>,
    span: Option<Open>,
}

/// Wait for one ticket of the closed loop and account for it; returns the
/// clock reading taken when the answer was in hand. `t0` is the interval's
/// start while it lasts, `states` the mutation batches acknowledged so far.
fn finish(
    f: InFlight,
    load: &mut Load,
    t0: Option<Instant>,
    states: usize,
    spans: &mut Spans,
) -> Instant {
    let wait = f
        .span
        .and_then(|s| spans.open_for("ticket.wait", s.id(), 0));
    let r = f.ticket.wait().map_err(|e| e.to_string());
    let done = Instant::now();
    if let Some(w) = wait {
        spans.close_at(w, done);
    }
    if let Some(s) = f.span {
        spans.close_at(s, done);
    }
    if f.timed {
        let segment = t0.and_then(|t| load.segment_at(done.duration_since(t)));
        load.completed += u64::from(segment.is_some());
        let latency = done.duration_since(f.submitted);
        load.answered(r, segment, latency, f.kept, states);
    }
    done
}

/// The closed loop: keep [`WINDOW`] tickets in flight, wait for the oldest
/// before submitting the next; on `churn`, one mutation batch after every
/// [`CHURN_PERIOD`] queries. Warm-up, then `seconds` timed, then drain.
pub fn closed_loop(
    world: &World,
    stream: &mut Stream,
    mut mutator: Option<&mut Mutator>,
    args: RunArgs,
    spans: &mut Spans,
) -> Load {
    let mut load = Load::new(args);
    let mut window: VecDeque<InFlight> = VecDeque::with_capacity(WINDOW);
    let service = &world.service;
    let mut issued = 0usize;
    // Set when the warm-up ends.
    let mut t0: Option<Instant> = None;
    spans.on = false;

    loop {
        let states = mutator.as_deref().map_or(0, |m| m.log.len());
        let now = if window.len() == WINDOW {
            let oldest = window.pop_front().expect("window is full");
            finish(oldest, &mut load, t0, states, spans)
        } else {
            Instant::now()
        };
        if t0.is_none() && issued >= warmup_queries(args) {
            t0 = Some(now);
        }
        if let Some(t) = t0 {
            match load.segment_at(now.duration_since(t)) {
                Some(s) => spans.on = load.segments[s].1,
                None => break,
            }
        }

        let query = stream.next(&world.data, &world.radii);
        let timed = t0.is_some();
        let kept = timed.then(|| load.next_query(&query, states)).flatten();
        let request = issued as u64 + 1;
        let span = spans.open_at("query", 0, request, now);
        let submit = spans.open_at("service.submit", parent_id(span), request, now);
        let ticket = service.submit(query);
        spans.close(submit);
        issued += 1;
        match ticket {
            Ok(ticket) => window.push_back(InFlight {
                ticket,
                submitted: now,
                timed,
                kept,
                span,
            }),
            Err(e) => load.answered(Err(e.to_string()), None, Duration::ZERO, None, states),
        }

        if let Some(m) = mutator.as_deref_mut() {
            if issued % CHURN_PERIOD == 0 {
                let muts = m.next(&world.data[0], world.radii[0] * 0.5);
                let span = spans.open_for("mutate", 0, m.log.len() as u64 + 1);
                let called = Instant::now();
                let ack = service.mutate(0, &muts);
                let acked = Instant::now();
                if let Some(s) = span {
                    spans.close_at(s, acked);
                }
                if timed {
                    load.attempted += 1;
                    load.mutate_ack_ms
                        .push(acked.duration_since(called).as_secs_f64() * 1e3);
                }
                match ack {
                    Ok(ack) => {
                        if ack.rejected > 0 {
                            eprintln!("gts-ledger: {} deletes of live ids refused", ack.rejected);
                            load.errors += 1;
                        }
                        m.acked(&muts, &ack.assigned, ack.pending);
                    }
                    Err(e) => {
                        eprintln!("gts-ledger: mutation batch failed: {e}");
                        load.errors += 1;
                    }
                }
            }
        }
    }
    load.wall = t0.map_or(Duration::ZERO, |t| t.elapsed());
    spans.on = false;
    let states = mutator.as_deref().map_or(0, |m| m.log.len());
    while let Some(f) = window.pop_front() {
        // Answers after the interval's end count for the check only.
        finish(f, &mut load, None, states, spans);
    }
    load
}

/// When each burst of an open loop is due, and what a late send does to the
/// numbers: latency runs from the due time, never from the send.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub start: Instant,
    pub interval: Duration,
}

impl Schedule {
    pub fn due(&self, burst: usize) -> Instant {
        self.start + self.interval.mul_f64(burst as f64)
    }

    /// How late burst `burst` was when sent at `sent`; an early wake-up is
    /// not negative lateness.
    pub fn lateness(&self, burst: usize, sent: Instant) -> Duration {
        sent.saturating_duration_since(self.due(burst))
    }

    /// How long the caller of burst `burst` waited for an answer seen at
    /// `done`: from the due time, however late the send was.
    pub fn latency(&self, burst: usize, done: Instant) -> Duration {
        done.saturating_duration_since(self.due(burst))
    }
}

/// Sleep most of the way to `due`, spin the rest: a plain sleep overshoots
/// by a scheduler quantum, which would show as generator lateness.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(300);
    loop {
        let left = due.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return;
        }
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// How an open loop delivers a burst and collects its answers.
pub enum Link<'a> {
    /// `Service::submit` per query; answers polled from the tickets, so a
    /// slow answer never delays the next burst.
    InProcess,
    /// One `BatchSubmit` frame per burst, one frame in flight:
    /// `Client::recv_batch` blocks, so a reply slower than the interval
    /// makes the next send late (and `load.late_*` says so). A second frame
    /// is never sent behind an unanswered one: `NetServer` leaves Nagle's
    /// algorithm on, the idle client delays its ACK of the first answer by
    /// 40 ms, the server holds the second answer until that ACK, and the
    /// generator, late again, sends the next two frames back to back — a
    /// state measured to persist for the rest of the run (README,
    /// "A degraded mode of the net path").
    Net(&'a mut Client),
}

impl Link<'_> {
    fn pipelines(&self) -> bool {
        matches!(self, Link::InProcess)
    }
}

enum Pending {
    Tickets(VecDeque<Result<Ticket, String>>),
    Frame(Result<u64, String>),
}

/// A burst that has been sent and not yet fully answered.
struct Burst {
    number: usize,
    /// Segment its due time falls in; `None` for a warm-up burst.
    segment: Option<usize>,
    kept: VecDeque<Option<Kept>>,
    pending: Pending,
    root: Option<Open>,
}

fn send(
    world: &World,
    link: &mut Link<'_>,
    number: usize,
    queries: Vec<Query>,
    spans: &mut Spans,
) -> (Pending, Option<Open>) {
    let request = number as u64 + 1;
    match link {
        Link::InProcess => {
            let root = spans.open_for("burst", 0, request);
            let submit = spans.open_for("service.submit", parent_id(root), request);
            let tickets = queries
                .into_iter()
                .map(|q| world.service.submit(q).map_err(|e| e.to_string()))
                .collect();
            spans.close(submit);
            (Pending::Tickets(tickets), root)
        }
        Link::Net(client) => {
            let root = spans.open_for("frame", 0, request);
            let send = spans.open_for("net.send_batch", parent_id(root), request);
            let base = client.send_batch(&queries).map_err(|e| e.to_string());
            spans.close(send);
            (Pending::Frame(base), root)
        }
    }
}

/// Collect what has arrived of `burst`, waiting until `until` at the
/// longest where the link can (`None`: as long as it takes). Each answer
/// comes with the clock reading at which it was in hand.
fn harvest(
    link: &mut Link<'_>,
    burst: &mut Burst,
    until: Option<Instant>,
    spans: &mut Spans,
) -> Vec<(Result<QueryResult, String>, Instant)> {
    let request = burst.number as u64 + 1;
    match (&mut burst.pending, link) {
        (Pending::Tickets(tickets), _) => {
            let Some(front) = tickets.front() else {
                return Vec::new();
            };
            let wait = burst
                .root
                .and_then(|root| spans.open_for("ticket.wait", root.id(), request));
            let answer = match (front, until) {
                (Err(e), _) => Some(Err(e.clone())),
                (Ok(t), None) => Some(t.wait().map_err(|e| e.to_string())),
                (Ok(t), Some(until)) => t
                    .wait_timeout(until.saturating_duration_since(Instant::now()))
                    .map(|r| r.map_err(|e| e.to_string())),
            };
            let at = Instant::now();
            if let Some(w) = wait {
                spans.close_at(w, at);
            }
            answer.map_or_else(Vec::new, |r| {
                tickets.pop_front();
                vec![(r, at)]
            })
        }
        (Pending::Frame(base), Link::Net(client)) => {
            let n = burst.kept.len();
            let recv = burst
                .root
                .and_then(|root| spans.open_for("net.recv_batch", root.id(), request));
            let answers = base
                .clone()
                .and_then(|b| client.recv_batch(b).map_err(|e| e.to_string()));
            let at = Instant::now();
            if let Some(r) = recv {
                spans.close_at(r, at);
            }
            let results = match answers {
                Ok(rs) => rs
                    .into_iter()
                    .map(|r| r.map_err(|e| e.to_string()))
                    .collect(),
                Err(e) => vec![Err(format!("transport: {e}")); n],
            };
            results.into_iter().map(|r| (r, at)).collect()
        }
        (Pending::Frame(_), Link::InProcess) => unreachable!("frames travel over the net link"),
    }
}

/// The open loop: bursts sent when they are due, whatever the answers do,
/// each answer timed from its burst's due time. Warm-up bursts back to
/// back, then `seconds` of schedule, then the answers still outstanding.
pub fn open_loop(
    world: &World,
    link: &mut Link<'_>,
    stream: &mut Stream,
    args: RunArgs,
    spans: &mut Spans,
) -> Load {
    let (burst_len, per_sec) = match world.spec.shape {
        Shape::Paced { burst, per_sec } | Shape::NetPaced { burst, per_sec } => (burst, per_sec),
        Shape::Closed => unreachable!("closed-loop workload in the open loop"),
    };
    let mut load = Load::new(args);
    let bursts = ((args.seconds * per_sec).floor() as usize).max(1);
    spans.on = false;
    for _ in 0..warmup_queries(args).div_ceil(burst_len) {
        let queries = stream.take(burst_len, &world.data, &world.radii);
        let (pending, root) = send(world, link, 0, queries, spans);
        let mut burst = Burst {
            number: 0,
            segment: None,
            kept: (0..burst_len).map(|_| None).collect(),
            pending,
            root,
        };
        let mut answered = 0;
        while answered < burst_len {
            let got = harvest(link, &mut burst, None, spans);
            load.errors += got.iter().filter(|a| a.0.is_err()).count() as u64;
            answered += got.len();
        }
    }

    let schedule = Schedule {
        start: Instant::now() + Duration::from_millis(2),
        interval: Duration::from_secs_f64(1.0 / per_sec),
    };
    let mut outstanding: VecDeque<Burst> = VecDeque::new();
    let mut next = 0;
    let mut last_done = schedule.start;
    loop {
        let now = Instant::now();
        let free = link.pipelines() || outstanding.is_empty();
        if free && next < bursts && now >= schedule.due(next) {
            let segment = load.segment_at(schedule.due(next).duration_since(schedule.start));
            spans.on = segment.is_some_and(|s| load.segments[s].1);
            let queries = stream.take(burst_len, &world.data, &world.radii);
            let kept = queries.iter().map(|q| load.next_query(q, 0)).collect();
            load.late_ms
                .push(schedule.lateness(next, now).as_secs_f64() * 1e3);
            let (pending, root) = send(world, link, next, queries, spans);
            outstanding.push_back(Burst {
                number: next,
                segment,
                kept,
                pending,
                root,
            });
            next += 1;
            continue;
        }
        let until = (next < bursts).then(|| schedule.due(next));
        let Some(burst) = outstanding.front_mut() else {
            match until {
                Some(due) => wait_until(due),
                None => break,
            }
            continue;
        };
        for (r, at) in harvest(link, burst, until, spans) {
            let kept = burst.kept.pop_front().expect("an answer per query");
            let latency = schedule.latency(burst.number, at);
            load.completed += 1;
            last_done = last_done.max(at);
            load.answered(r, burst.segment, latency, kept, 0);
        }
        if burst.kept.is_empty() {
            let done = outstanding.pop_front().expect("front exists");
            spans.close(done.root);
        }
    }
    spans.on = false;
    load.wall = last_done.duration_since(schedule.start);
    load
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 99.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn a_late_send_is_timed_from_its_due_time() {
        let start = Instant::now();
        let s = Schedule {
            start,
            interval: Duration::from_millis(8),
        };
        assert_eq!(s.due(3), start + Duration::from_millis(24));
        // Burst 3 is sent 5 ms late and answered 2 ms after the send:
        // the caller waited 7 ms, and that is what is reported.
        let sent = s.due(3) + Duration::from_millis(5);
        let done = sent + Duration::from_millis(2);
        assert_eq!(s.lateness(3, sent), Duration::from_millis(5));
        assert_eq!(s.latency(3, done), Duration::from_millis(7));
        // An early wake-up is not negative lateness.
        let early = s.due(3) - Duration::from_micros(10);
        assert_eq!(s.lateness(3, early), Duration::ZERO);
    }

    #[test]
    fn a_stalled_segment_moves_the_tail_not_the_best_segments() {
        let mut log = LatencyLog::new(20);
        for s in 0..20 {
            for i in 0..100u64 {
                // Segment 4 stalls: everything in it takes 500 ms.
                let ms = if s == 4 { 500 } else { 1 + i % 10 };
                log.record(s, Duration::from_millis(ms));
            }
        }
        assert_eq!(log.segment_percentile(50.0), 5.0);
        assert_eq!(log.segment_percentile(90.0), 9.0);
        assert_eq!(log.overall_percentile(99.0), 500.0);
    }

    #[test]
    fn throughput_is_read_off_the_best_twentieth_of_the_segments() {
        assert_eq!(segment_count(20.0), 80);
        assert_eq!(segment_count(120.0), 80);
        assert_eq!(segment_count(7.4), 30);
        assert_eq!(segment_count(0.1), 4);
        let mut load = Load::new(RunArgs {
            seed: 0,
            seconds: 5.0,
            traced: false,
            quick: false,
        });
        assert_eq!(load.segments.len(), 20);
        // Quarter-second segments answering 1000, 1010, ... 1190 queries.
        for (i, s) in load.segments.iter_mut().enumerate() {
            s.0 = 1000 + 10 * i as u64;
        }
        assert_eq!(load.segment_qps(), 4.0 * 1180.0);
        assert_eq!(load.median_qps(), 4.0 * 1090.0);
    }

    #[test]
    fn reservoir_keeps_a_bounded_sample_of_every_part_of_the_run() {
        let mut load = Load::new(RunArgs {
            seed: 0,
            seconds: 1.0,
            traced: false,
            quick: false,
        });
        let q = Query {
            index: 0,
            pos: vec![0.0; 3],
            kind: gts_service::QueryKind::Nn,
        };
        let mut kept_late = 0;
        for i in 0..100_000u64 {
            if let Some(k) = load.next_query(&q, 0) {
                assert!(k.slot < SAMPLE_CAPACITY);
                kept_late += u64::from(i >= 50_000);
            }
        }
        assert_eq!(load.samples.len(), SAMPLE_CAPACITY);
        // The second half of the run holds about half of what a uniform
        // sample of it keeps after the reservoir is full.
        assert!((300..1000).contains(&kept_late), "{kept_late}");
    }
}
