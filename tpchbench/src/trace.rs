//! Spans recorded by the benchmark around every call it makes into the
//! engine and storage layers.
//!
//! A span is `(name, start, end, parent, run)`: `run` is the setup,
//! round or cycle the call belongs to, and `parent` the span that was
//! open when it started. Spans stay in memory and are written out once,
//! when the run ends. The program itself is not instrumented: every
//! span is taken from outside, around a public call.
//!
//! Each span has two clocks. `start_ns`/`end_ns` are wall time since
//! the tracer started and give the timeline. `cpu_ns` is the CPU time
//! the process spent inside the span, summed over its threads, and is
//! what every reported time is made of: on a host whose cores are
//! shared with other machines it leaves out the time the process was
//! not running (waiting for a core, for the hypervisor or for the
//! disk), which wall time would count as the program's.

use std::fmt::Write as _;
use std::time::Instant;

/// One finished (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub cpu_ns: u64,
    pub parent: Option<usize>,
    pub run: u64,
}

impl Span {
    /// CPU seconds the process spent inside the span.
    pub fn secs(&self) -> f64 {
        self.cpu_ns as f64 * 1e-9
    }

    /// Wall seconds from the span's start to its end.
    pub fn wall_secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// In-memory span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }

    /// Start a new run id (one setup, round or cycle).
    pub fn next_run(&mut self) -> u64 {
        self.run += 1;
        self.run
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; returns its result and the
    /// span's index.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, usize) {
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now();
        let cpu_start = process_cpu_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            cpu_ns: 0,
            parent,
            run: self.run,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].cpu_ns = process_cpu_ns() - cpu_start;
        self.spans[idx].end_ns = self.now();
        (out, idx)
    }

    /// Shorthand for a span whose closure makes no nested spans.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let (out, idx) = self.span(name, |_| f());
        (out, self.spans[idx].secs())
    }

    pub fn get(&self, idx: usize) -> &Span {
        &self.spans[idx]
    }

    /// Seconds of each direct child of span `idx`, in the order they ran.
    pub fn children_secs(&self, idx: usize) -> Vec<f64> {
        self.spans[idx + 1..]
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(Span::secs)
            .collect()
    }

    /// Total seconds of all spans named `name` in run `run`.
    pub fn run_total(&self, run: u64, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.run == run && s.name == name)
            .fold(0.0, |acc, s| acc + s.secs())
    }

    /// Every span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"cpu_ns\":{},\"parent\":{parent},\"run\":{}}}",
                s.name, s.start_ns, s.end_ns, s.cpu_ns, s.run
            )
            .expect("write to String");
        }
        out
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU nanoseconds the process has used so far, over all its threads.
/// On a KVM guest with paravirtual steal-time accounting the kernel
/// also leaves out the time the host ran something else on the vCPU.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}
