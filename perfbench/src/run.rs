//! What every workload shares: the closed-loop driver and its pacing,
//! per-caller tallies, the end-to-end report and the timing of set-up.

use crate::probe::CacheCounts;
use crate::stack::Backend;
use crate::stats;
use crate::trace;
use std::sync::atomic::{AtomicU64, Ordering};
use wsrc_cache::ResponseCache;

/// Callers per workload: one closed loop per vCPU of the reference host.
/// Two callers keep both vCPUs busy, so a run does not depend on which
/// vCPU a single caller would have landed on.
pub const CALLERS: usize = 2;

/// What a request of the timed phase counts toward.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Part {
    /// Throughput and latency: the whole phase runs free.
    Both,
    /// Throughput only: a free-running slice of a split phase.
    Throughput,
    /// Latency only: a lockstep slice of a split phase.
    Latency,
}

/// How the callers go through the timed phase: free-running to the
/// deadline, or split into alternating slices, free-running and in
/// lockstep, where every caller starts each request together with the
/// others.
///
/// The split is for callers that contend on shared state. Free-running,
/// their latency depends on how often they overlap, and on a host whose
/// hypervisor takes vCPUs away for milliseconds at a time, that changes
/// from minute to minute: a caller whose partner is stopped runs alone
/// and fast. In lockstep they always start together, but a stopped
/// partner stops the pair, so throughput then follows the stolen time.
/// Throughput is taken from the free slices and latency from the
/// lockstep ones; alternating them lets both see the same stretch of the
/// host's time.
pub struct Pace {
    start: u64,
    deadline: u64,
    split: bool,
    /// Arrivals at the lockstep barrier so far.
    arrived: AtomicU64,
    /// Lockstep rounds released so far, shifted left by two; the low two
    /// bits say what the last round released goes on to (see `round`).
    released: AtomicU64,
}

/// Length of each slice of a split phase.
const SLICE_NS: u64 = 100_000_000;

/// Spins on the lockstep barrier before a waiting caller yields its vCPU.
const SPINS: u32 = 1 << 12;

/// How long past the deadline a caller waits at the lockstep barrier
/// before it concludes that its partner has stopped on its own.
const GRACE_NS: u64 = 1_000_000_000;

const GO_LOCKSTEP: u64 = 0;
const GO_FREE: u64 = 1;
const GO_STOP: u64 = 2;

impl Pace {
    /// A phase of `seconds` from `start`, split into slices if `split`.
    pub fn new(start: u64, seconds: u64, split: bool) -> Pace {
        Pace {
            start,
            deadline: start.saturating_add(seconds.saturating_mul(1_000_000_000)),
            split,
            arrived: AtomicU64::new(0),
            released: AtomicU64::new(0),
        }
    }

    /// One caller's view of the phase.
    pub fn caller(&self) -> Pacer<'_> {
        Pacer {
            pace: self,
            lockstep: false,
        }
    }

    /// Seconds the callers spent in the part that counts toward
    /// throughput, given the last completion in it. A split phase is a
    /// whole number of slice pairs long, since `seconds` is whole.
    fn throughput_s(&self, last_served: u64) -> f64 {
        let end = if self.split {
            self.start + (self.deadline - self.start) / 2
        } else {
            last_served
        };
        (end - self.start) as f64 / 1e9
    }

    fn free_at(&self, now: u64) -> bool {
        ((now - self.start) / SLICE_NS).is_multiple_of(2)
    }

    /// The lockstep barrier: returns once every caller has arrived. The
    /// last to arrive decides for all of them what comes next.
    fn round(&self) -> Option<Part> {
        let go = |code| match code {
            GO_LOCKSTEP => Some(Part::Latency),
            GO_FREE => Some(Part::Throughput),
            _ => None,
        };
        let round = self.released.load(Ordering::Acquire);
        if (self.arrived.fetch_add(1, Ordering::AcqRel) + 1).is_multiple_of(CALLERS as u64) {
            let now = trace::now();
            let code = if now >= self.deadline {
                GO_STOP
            } else if self.free_at(now) {
                GO_FREE
            } else {
                GO_LOCKSTEP
            };
            self.released
                .store(((round >> 2) + 1) << 2 | code, Ordering::Release);
            return go(code);
        }
        let mut spins = 0u32;
        loop {
            let released = self.released.load(Ordering::Acquire);
            if released != round {
                return go(released & 3);
            }
            spins += 1;
            if spins < SPINS {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
                if trace::now() >= self.deadline + GRACE_NS {
                    return None;
                }
            }
        }
    }
}

/// One caller's pacing: whether its last request ran in lockstep.
pub struct Pacer<'a> {
    pace: &'a Pace,
    lockstep: bool,
}

impl Pacer<'_> {
    /// Called before each request: what the request counts toward, or
    /// `None` once the phase is over. A free-running caller decides by
    /// the clock; callers in lockstep always meet at the barrier, which
    /// decides for both.
    pub fn next(&mut self) -> Option<Part> {
        let pace = self.pace;
        let now = trace::now();
        if !pace.split {
            return (now < pace.deadline).then_some(Part::Both);
        }
        if !self.lockstep {
            if now >= pace.deadline {
                return None;
            }
            if pace.free_at(now) {
                return Some(Part::Throughput);
            }
        }
        let part = pace.round();
        self.lockstep = part == Some(Part::Latency);
        part
    }
}

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// One caller's record of the timed phase.
#[derive(Debug, Default)]
pub struct Tally {
    /// Response times of requests answered from the cache, in ns.
    pub hits: Vec<u64>,
    /// Response times of requests that reached the backend, in ns.
    pub misses: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    /// Backend requests this caller's operations should have caused.
    pub expected_backend: u64,
    /// Portal pages of unique queries with their link digests, checked
    /// against the corpus after the timed phase.
    pub to_verify: Vec<(String, u64)>,
    /// Requests completed in the part that counts toward throughput.
    pub served: u64,
    /// When the last of them completed.
    pub served_end: u64,
    /// Whether a periodic check found the cache over its byte budget.
    pub budget_exceeded: bool,
}

impl Tally {
    /// Records a request that ran from `start` to `end` in `part`.
    pub fn record(&mut self, part: Part, hit: bool, start: u64, end: u64) {
        if part != Part::Latency {
            self.served += 1;
            self.served_end = end;
        }
        if part != Part::Throughput {
            if hit {
                &mut self.hits
            } else {
                &mut self.misses
            }
            .push(end - start);
        }
    }

    pub fn new() -> Tally {
        Tally {
            hits: Vec::with_capacity(1 << 18),
            misses: Vec::with_capacity(1 << 16),
            ..Tally::default()
        }
    }
}

/// Runs `caller(index, pacer, tally)` on `CALLERS` scoped threads for
/// `seconds`, split as [`Pace`] says. Returns their tallies, the phase's
/// start time and the seconds that count toward throughput.
pub fn drive<F>(seconds: u64, split: bool, caller: F) -> (Vec<Tally>, u64, f64)
where
    F: Fn(usize, &mut Pacer, &mut Tally) + Sync,
{
    let start = trace::now();
    let pace = &Pace::new(start, seconds, split);
    let caller = &caller;
    let tallies = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CALLERS)
            .map(|c| {
                s.spawn(move || {
                    let mut t = Tally::new();
                    caller(c, &mut pace.caller(), &mut t);
                    t
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("caller thread panicked"))
            .collect::<Vec<Tally>>()
    });
    let last_served = tallies.iter().map(|t| t.served_end).max().unwrap_or(start);
    (tallies, start, pace.throughput_s(last_served.max(start)))
}

/// Times one set-up on the wall clock.
pub fn timed<S>(build: impl FnOnce() -> S) -> (S, f64) {
    let t0 = trace::now();
    let stack = build();
    (stack, (trace::now() - t0) as f64 / 1e9)
}

/// The median set-up time of `SETUP_REPS` set-ups: the one the run used
/// (`first_s`) and more made after the timed phase, each dropped before
/// the next is built. Doing the extra ones last keeps them out of the
/// timed phase and out of `peak_rss_mib`.
pub fn median_setup_s<S>(first_s: f64, mut build: impl FnMut() -> S) -> f64 {
    let mut times = vec![first_s];
    for _ in 1..SETUP_REPS {
        times.push(timed(&mut build).1);
    }
    stats::median(&mut times)
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Time the hypervisor has taken from this machine's vCPUs so far, in
/// vCPU-seconds: the `steal` column of `/proc/stat` (in its 100 Hz
/// ticks), 0 where the kernel does not report it. Printed beside each
/// run's figures, which it is not used to correct.
pub fn stolen_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            stat.lines()
                .next()
                .and_then(|l| l.split_whitespace().nth(8))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Callers check the cache's byte budget once per this many operations.
pub const BUDGET_EVERY: u64 = 1024;

/// The end-to-end figures of one run and the counts behind `correct`.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

/// What the timed phase left, taken before the stack is dropped.
pub struct Measured {
    tallies: Vec<Tally>,
    /// Share of the vCPU time the hypervisor gave to other guests during
    /// the timed phase.
    stolen_share: f64,
    /// Seconds the callers spent in the part that counts toward
    /// throughput.
    throughput_s: f64,
    backend_calls: u64,
    counts: CacheCounts,
    peak_rss_mib: f64,
    budget_ok: bool,
}

/// Runs the timed phase on `CALLERS` callers, split as [`Pace`] says,
/// and takes the counts the checks and the reports need from the cache
/// and the backend.
pub fn timed_phase<F>(
    args: &Args,
    split: bool,
    cache: &ResponseCache,
    max_bytes: usize,
    backend: &Backend,
    caller: F,
) -> Measured
where
    F: Fn(usize, &mut Pacer, &mut Tally) + Sync,
{
    let before = cache.stats();
    let calls_before = backend.calls();
    let stolen_before = stolen_s();
    let (tallies, start, throughput_s) = drive(args.seconds, split, caller);
    let vcpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let vcpu_s = (trace::now() - start) as f64 / 1e9 * vcpus as f64;
    let stolen_share = (stolen_s() - stolen_before) / vcpu_s;
    let peak_rss_mib = peak_rss_mib();
    let after = cache.stats();
    Measured {
        backend_calls: backend.calls() - calls_before,
        counts: CacheCounts {
            hits: after.hits - before.hits,
            misses: after.misses - before.misses,
            evictions: after.evictions - before.evictions,
            conversions: after.conversions - before.conversions,
            miss_dispositions: tallies.iter().map(|t| t.expected_backend).sum(),
            requests: tallies.iter().map(|t| t.attempted).sum(),
            bytes: cache.bytes(),
            entries: cache.len(),
        },
        budget_ok: tallies.iter().all(|t| !t.budget_exceeded) && cache.bytes() <= max_bytes,
        tallies,
        stolen_share,
        throughput_s,
        peak_rss_mib,
    }
}

impl Measured {
    pub fn tallies(&self) -> &[Tally] {
        &self.tallies
    }

    /// The run's result. `more_failed` counts operations that failed
    /// checks made after the timed phase; `root` names the span of a
    /// request's real call in a traced run.
    pub fn outcome(self, args: &Args, more_failed: u64, root: &str, setup_s: f64) -> Outcome {
        let expected = self.counts.miss_dispositions;
        if self.backend_calls != expected {
            eprintln!(
                "check: the backend saw {} requests, the callers' outcomes imply {expected}",
                self.backend_calls
            );
        }
        if !self.budget_ok {
            eprintln!("check: the cache went over its byte budget");
        }
        let metrics = if args.trace {
            crate::finish_trace(args, &trace::take_all(), &self.counts, root)
        } else {
            self.end_to_end(setup_s)
        };
        Outcome {
            attempted: self.counts.requests,
            failed: self.tallies.iter().map(|t| t.failed).sum::<u64>() + more_failed,
            correct: self.budget_ok && self.backend_calls == expected,
            metrics,
        }
    }

    fn end_to_end(&self, setup_s: f64) -> Vec<(&'static str, f64, &'static str)> {
        let mut hits: Vec<u64> = Vec::new();
        let mut misses: Vec<u64> = Vec::new();
        let mut served = 0;
        for t in &self.tallies {
            hits.extend(&t.hits);
            misses.extend(&t.misses);
            served += t.served;
        }
        hits.sort_unstable();
        misses.sort_unstable();
        let us = |d: &[u64], p| stats::percentile(d, p).unwrap_or(0) as f64 / 1e3;
        eprintln!(
            "tails: hit p90 {:.1} p99 {:.1} us, miss p90 {:.1} p99 {:.1} us; {:.1}% of the vCPU time stolen",
            us(&hits, 90.0),
            us(&hits, 99.0),
            us(&misses, 90.0),
            us(&misses, 99.0),
            100.0 * self.stolen_share
        );
        let completed = self.counts.requests as f64;
        vec![
            ("throughput_rps", served as f64 / self.throughput_s, "1/s"),
            ("hit_p50_us", us(&hits, 50.0), "us"),
            ("miss_p50_us", us(&misses, 50.0), "us"),
            (
                "backend_calls_per_kreq",
                self.backend_calls as f64 * 1000.0 / completed.max(1.0),
                "1/kreq",
            ),
            (
                "cache_mib",
                self.counts.bytes as f64 / (1024.0 * 1024.0),
                "MiB",
            ),
            ("peak_rss_mib", self.peak_rss_mib, "MiB"),
            ("setup_s", setup_s, "s"),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A split phase alternates free and lockstep slices; every caller
    /// takes part in every lockstep round, and all of them stop.
    #[test]
    fn split_phase_pairs_every_lockstep_round() {
        let (tallies, _, throughput_s) = drive(1, true, |_, pacer, t| {
            while let Some(part) = pacer.next() {
                let t0 = trace::now();
                std::hint::black_box((0..500u64).sum::<u64>());
                t.attempted += 1;
                t.record(part, false, t0, trace::now());
            }
        });
        assert_eq!(throughput_s, 0.5);
        assert!(tallies.iter().all(|t| t.served > 0 && !t.misses.is_empty()));
        assert_eq!(tallies[0].misses.len(), tallies[1].misses.len());
        for t in &tallies {
            assert_eq!(t.served + t.misses.len() as u64, t.attempted);
        }
    }
}
