//! The benchmark's own spans: one around every call it makes into a layer.
//!
//! Spans live in a fixed ring in memory (newest win) and are written as
//! Chrome trace-event JSON when the workload ends, so Perfetto loads them
//! like the service's own traces. Nothing here reaches into the program;
//! spans inside it are a later change.

use std::time::Instant;

/// Spans kept; older ones are overwritten.
const CAPACITY: usize = 65_536;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    /// Id of the span that caused this one; 0 for a root.
    pub parent: u64,
    /// Request the span belongs to: a query or burst number, 0 for none.
    pub request: u64,
    pub start_us: f64,
    pub end_us: f64,
}

/// A span that has begun; [`Spans::close`] ends and records it.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    name: &'static str,
    id: u64,
    parent: u64,
    request: u64,
    start: Instant,
}

impl Open {
    pub fn id(&self) -> u64 {
        self.id
    }
}

pub struct Spans {
    /// Off during the untraced runs and the untraced segments of a traced
    /// run: `open` and `close` then cost one branch.
    pub on: bool,
    epoch: Instant,
    ring: Vec<Span>,
    recorded: u64,
    next_id: u64,
}

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            epoch: Instant::now(),
            ring: Vec::new(),
            recorded: 0,
            next_id: 0,
        }
    }

    pub fn open(&mut self, name: &'static str, parent: u64) -> Option<Open> {
        self.open_for(name, parent, 0)
    }

    pub fn open_for(&mut self, name: &'static str, parent: u64, request: u64) -> Option<Open> {
        if !self.on {
            return None;
        }
        self.open_at(name, parent, request, Instant::now())
    }

    /// Begin a span at `start`, a clock reading the caller already took.
    pub fn open_at(
        &mut self,
        name: &'static str,
        parent: u64,
        request: u64,
        start: Instant,
    ) -> Option<Open> {
        if !self.on {
            return None;
        }
        self.next_id += 1;
        Some(Open {
            name,
            id: self.next_id,
            parent,
            request,
            start,
        })
    }

    pub fn close(&mut self, open: Option<Open>) {
        if let Some(o) = open {
            self.close_at(o, Instant::now());
        }
    }

    /// End `open` at `end`, a clock reading the caller already took.
    pub fn close_at(&mut self, open: Open, end: Instant) {
        self.push(Span {
            name: open.name,
            id: open.id,
            parent: open.parent,
            request: open.request,
            start_us: open.start.duration_since(self.epoch).as_secs_f64() * 1e6,
            end_us: end.duration_since(self.epoch).as_secs_f64() * 1e6,
        });
    }

    fn push(&mut self, span: Span) {
        if self.ring.len() < CAPACITY {
            self.ring.push(span);
        } else {
            self.ring[(self.recorded % CAPACITY as u64) as usize] = span;
        }
        self.recorded += 1;
    }

    pub fn spans(&self) -> &[Span] {
        &self.ring
    }

    /// Per span name: how many, their total time, and their self time —
    /// the span minus the part of it its children cover.
    pub fn summary(&self) -> Vec<(&'static str, u64, f64, f64)> {
        let mut child_us: std::collections::HashMap<u64, f64> = std::collections::HashMap::new();
        for s in &self.ring {
            if s.parent != 0 {
                *child_us.entry(s.parent).or_default() += s.end_us - s.start_us;
            }
        }
        let mut rows: Vec<(&'static str, u64, f64, f64)> = Vec::new();
        for s in &self.ring {
            let dur = s.end_us - s.start_us;
            let own = (dur - child_us.get(&s.id).copied().unwrap_or(0.0)).max(0.0);
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += dur;
                    r.3 += own;
                }
                None => rows.push((s.name, 1, dur, own)),
            }
        }
        rows
    }

    /// Mean duration in µs of the spans named `name`; 0 when there are none.
    pub fn mean_us(&self, name: &str) -> f64 {
        self.summary()
            .iter()
            .find(|r| r.0 == name)
            .map_or(0.0, |r| r.2 / r.1 as f64)
    }

    /// Chrome trace-event JSON: one complete (`"X"`) event per span.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.ring.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{},\"request\":{}}}}}",
                s.name,
                s.start_us,
                s.end_us - s.start_us,
                s.id,
                s.parent,
                s.request
            ));
        }
        out.push_str(&format!(
            "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"recorded\":{},\"kept\":{}}}}}\n",
            self.recorded,
            self.ring.len()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut s = Spans::new(true);
        let t0 = s.epoch;
        let at = |us: u64| t0 + Duration::from_micros(us);
        let mut parent = s.open("query", 0).unwrap();
        parent.start = at(0);
        let mut a = s.open("service.submit", parent.id()).unwrap();
        a.start = at(10);
        s.close_at(a, at(30));
        let mut b = s.open("ticket.wait", parent.id()).unwrap();
        b.start = at(50);
        s.close_at(b, at(90));
        s.close_at(parent, at(100));
        let rows = s.summary();
        let q = rows.iter().find(|r| r.0 == "query").unwrap();
        assert_eq!((q.1, q.2.round(), q.3.round()), (1, 100.0, 40.0));
        assert_eq!(s.mean_us("service.submit").round(), 20.0);
    }

    #[test]
    fn off_records_nothing_and_ring_keeps_the_newest() {
        let mut off = Spans::new(false);
        let o = off.open("x", 0);
        off.close(o);
        assert!(off.spans().is_empty());
        let mut on = Spans::new(true);
        for _ in 0..CAPACITY + 5 {
            let o = on.open("x", 0);
            on.close(o);
        }
        assert_eq!(on.spans().len(), CAPACITY);
        assert_eq!(on.recorded, CAPACITY as u64 + 5);
    }
}
