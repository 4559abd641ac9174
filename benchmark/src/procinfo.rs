//! What the harness reads about its own process and its machine, from
//! `/proc` (Linux only, like the program's epoll reactor).

use std::path::Path;
use std::process::Command;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;

/// User + system CPU seconds this process has consumed, to the
/// nanosecond (`CLOCK_PROCESS_CPUTIME_ID`; `/proc/self/stat` counts in
/// 10 ms ticks, too coarse for a slice of a tenth of a second), not
/// counting the [`IdleSpinner`]'s.
pub fn cpu_seconds() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let spinner = match SPINNER_TID.load(Ordering::Relaxed) {
        0 => 0.0,
        tid => thread_cpu_seconds(tid as i32),
    };
    clock_seconds(CLOCK_PROCESS_CPUTIME_ID) - spinner
}

fn clock_seconds(clock: i32) -> f64 {
    let mut ts = [0i64; 2];
    // SAFETY: `ts` has the layout of a `struct timespec` on 64-bit Linux
    // (seconds, nanoseconds), which the call fills in.
    unsafe { clock_gettime(clock, &mut ts) };
    ts[0] as f64 + ts[1] as f64 * 1e-9
}

/// CPU seconds the thread `tid` of this process has consumed, to the
/// nanosecond.
pub fn thread_cpu_seconds(tid: i32) -> f64 {
    // The kernel's id for a thread's CPU-time clock: the complement of
    // the thread id above three flag bits, of which "scheduler clock" (2)
    // and "per thread" (4) are set (`MAKE_THREAD_CPUCLOCK`).
    clock_seconds((!tid << 3) | 6)
}

/// The calling thread's id.
pub fn thread_id() -> i32 {
    // SAFETY: `gettid` takes no arguments and cannot fail.
    unsafe { gettid() }
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn rss_peak_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut [i64; 2]) -> i32;
    fn gettid() -> i32;
    fn prctl(option: i32, ...) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Confine this process — the calling thread and every thread spawned
/// from it later — to the lowest-numbered CPU it may run on. Returns that
/// CPU's number, or `None` if the kernel refused (the run then proceeds
/// unpinned and the report says so).
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; 16];
    // SAFETY: both calls pass a pointer to `mask` and its exact size in
    // bytes; the kernel reads or writes at most that many bytes. pid 0 is
    // the calling thread.
    let cpu = unsafe {
        if sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) != 0 {
            return None;
        }
        let word = mask.iter().position(|w| *w != 0)?;
        let cpu = word * 64 + mask[word].trailing_zeros() as usize;
        mask = [0u64; 16];
        mask[word] = 1 << (cpu % 64);
        if sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) != 0 {
            return None;
        }
        cpu
    };
    Some(cpu)
}

/// Give the calling thread — and every thread spawned from it later, the
/// services' included — the `SCHED_BATCH` policy: a thread that wakes up
/// never preempts the one that is running, which keeps the CPU until it
/// blocks or its time slice ends. With some three hundred threads on one
/// CPU, whether the default policy lets a woken thread preempt depends on
/// scheduler state that differs from one set of connections to the next,
/// and throughput with it (README, "One CPU"). Returns whether the kernel
/// agreed.
pub fn batch_policy() -> bool {
    const SCHED_BATCH: i32 = 3;
    // SAFETY: pid 0 is the calling thread; the parameter is a
    // `struct sched_param`, a single int, which must be 0 for SCHED_BATCH.
    unsafe { sched_setscheduler(0, SCHED_BATCH, &0) == 0 }
}

/// Let this thread's timed sleeps — and those of every thread spawned
/// from it later — end when they are due: by default the kernel may
/// stretch each by 50 µs to batch timer interrupts, which the paced phase
/// would count as latency on every op.
pub fn precise_timers() -> bool {
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: the option takes one integer argument, the slack in ns.
    unsafe { prctl(PR_SET_TIMERSLACK, 1u64) == 0 }
}

/// Thread id of the running [`IdleSpinner`], 0 when there is none.
static SPINNER_TID: AtomicU32 = AtomicU32::new(0);

/// A thread that spins at `SCHED_IDLE` priority: it runs only when nothing
/// else on the CPU wants to, and then keeps the vCPU from halting. A
/// halted vCPU is woken through the hypervisor, at a cost that is the
/// host's to set and changes with its load; with the spinner, a wakeup in
/// a half-idle phase costs what it costs in a busy one. Its CPU time is
/// left out of [`cpu_seconds`].
pub struct IdleSpinner {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl IdleSpinner {
    /// Start spinning; `None` if the thread could not be given idle
    /// priority (at normal priority it would take CPU from the program).
    pub fn start() -> Option<IdleSpinner> {
        const SCHED_IDLE: i32 = 5;
        let stop = Arc::new(AtomicBool::new(false));
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("idle-spinner".into())
            .spawn(move || {
                // SAFETY: pid 0 is the calling thread; the parameter is a
                // `struct sched_param`, a single int, which must be 0 for
                // SCHED_IDLE. `gettid` takes no arguments.
                let (idle, tid) = unsafe { (sched_setscheduler(0, SCHED_IDLE, &0) == 0, gettid()) };
                let _ = ready_tx.send(idle);
                if idle {
                    SPINNER_TID.store(tid as u32, Ordering::Relaxed);
                    while !flag.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                }
            })
            .ok()?;
        let spinner = IdleSpinner {
            stop,
            thread: Some(thread),
        };
        ready_rx.recv().ok()?.then_some(spinner)
    }
}

impl Drop for IdleSpinner {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
        SPINNER_TID.store(0, Ordering::Relaxed);
    }
}

/// Kernel release string.
pub fn kernel() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

/// Filesystem type backing `path`: the `/proc/mounts` row with the longest
/// mount point that prefixes it.
pub fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split(' ');
            let (_dev, point, kind) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(point).then_some((point.len(), kind))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, kind)| kind.to_string())
}

fn first_line_of(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// `rustc --version` of the toolchain on the path.
pub fn rustc_version() -> String {
    first_line_of("rustc", &["--version"])
}

/// The commit being measured; "unknown" outside a git work tree (the
/// driver's checkout is not one).
pub fn git_sha() -> String {
    first_line_of("git", &["rev-parse", "HEAD"])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readouts_are_sane() {
        let before = cpu_seconds();
        let mut x = 0u64;
        let spin = std::time::Instant::now();
        while spin.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_seconds() >= before + 0.03, "CPU time advances");
        assert!(rss_peak_mib() > 1.0);
        assert_ne!(kernel(), "unknown");
        assert_ne!(fs_type(Path::new("/proc")), "unknown");
    }
}
