//! Order statistics and process counters read from `/proc`.

/// Nearest-rank percentile `p` (0–100] of `v`; sorts `v` in place.
pub fn nearest_rank<T: Copy + PartialOrd>(v: &mut [T], p: f64) -> Option<T> {
    if v.is_empty() {
        return None;
    }
    v.sort_unstable_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    Some(v[rank.min(v.len()) - 1])
}

/// Median of `v` (mean of the middle two for an even count); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    if s.is_empty() {
        return 0.0;
    }
    s.sort_unstable_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The tail percentile of `n` samples: the highest whole percentile with at
/// least ten samples beyond its nearest-rank value, and never below the
/// median (with fewer than forty samples there is no tail to report).
pub fn tail_percentile(n: usize) -> u32 {
    // Nearest rank ceil(p n / 100) must be at most n - 10.
    let p = if n > 10 { 100 * (n - 10) / n } else { 0 };
    p.max(50) as u32
}

/// User + system CPU time of this process, all threads, in milliseconds
/// (`/proc/self/stat` counts in USER_HZ = 100 ticks per second).
pub fn process_cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|s| s.parse::<u64>().ok()).unwrap_or(0);
    ((tick(11) + tick(12)) * NS_PER_TICK) as f64 / 1e6
}

/// Nanoseconds per `/proc` clock tick (USER_HZ = 100).
pub const NS_PER_TICK: u64 = 10_000_000;

/// Host-wide steal ticks so far (`/proc/stat`, aggregate `cpu` line).
pub fn steal_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time the calling thread has run, in nanoseconds. Unlike wall time
/// it leaves out the time the host stole from the thread's vCPU.
pub fn thread_cpu_ns() -> u64 {
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `t` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark builds for), and
    // the clock id is a constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut t) };
    if rc != 0 {
        return 0;
    }
    t.tv_sec as u64 * 1_000_000_000 + t.tv_nsec as u64
}
