//! Thread placement: the generator thread on one allowed CPU, the engine's
//! backend thread on another.
//!
//! Left to itself the kernel keeps a freshly spawned backend thread on its
//! parent's CPU for up to a second and, under wake-ups, pulls the two threads
//! together again from time to time; each then gets half a core and the rate
//! halves (measured on the 2-core CI box: 12k against 27k ops/s on
//! `wall_1000g_mixed`). That is the scheduler's doing, not the system's, so
//! the benchmark places its two threads itself. With fewer than two allowed
//! CPUs, or where the kernel refuses, nothing is pinned and the report says
//! so.

use std::fs;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

extern "C" {
    /// `sched_setaffinity(2)`, from the C library `std` already links.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// How long a just-spawned thread may take to show under its name.
const NAMING_PATIENCE: Duration = Duration::from_millis(50);
/// 64-CPU words of an affinity mask.
const MASK_WORDS: usize = 16;

fn set_affinity(tid: i32, cpus: &[usize]) -> bool {
    let mut mask = [0u64; MASK_WORDS];
    for &cpu in cpus {
        match mask.get_mut(cpu / 64) {
            Some(word) => *word |= 1 << (cpu % 64),
            None => return false,
        }
    }
    // SAFETY: `mask` is a live, initialised array of `size_of_val(&mask)`
    // bytes that the call only reads; `tid` names a thread of this process
    // or, as 0, the caller.
    !cpus.is_empty() && unsafe { sched_setaffinity(tid, size_of_val(&mask), mask.as_ptr()) } == 0
}

/// The CPUs this process may run on, read once — before anything here has
/// narrowed the main thread's mask — from `Cpus_allowed_list` (`0-1`,
/// `0,2-3`); empty where `/proc` does not provide it.
fn allowed() -> &'static [usize] {
    static ALLOWED: OnceLock<Vec<usize>> = OnceLock::new();
    ALLOWED.get_or_init(|| {
        let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
        let list = status
            .lines()
            .find_map(|line| line.strip_prefix("Cpus_allowed_list:"))
            .unwrap_or("");
        let mut cpus = Vec::new();
        for range in list.trim().split(',') {
            let (first, last) = range.split_once('-').unwrap_or((range, range));
            if let (Ok(first), Ok(last)) = (first.parse::<usize>(), last.parse::<usize>()) {
                cpus.extend(first..=last);
            }
        }
        cpus
    })
}

/// Pins the calling thread to the `slot`-th allowed CPU (0 or 1). Returns
/// whether it was placed; with fewer than two allowed CPUs nothing is.
pub fn pin_current(slot: usize) -> bool {
    let cpus = allowed();
    cpus.len() >= 2 && set_affinity(0, &cpus[slot..=slot])
}

/// Pins the calling thread to the first allowed CPU and this process's
/// thread named `other` to the second. Returns whether both were placed.
pub fn spread(other: &str) -> bool {
    let cpus = allowed();
    if cpus.len() < 2 {
        return false;
    }
    // A thread names itself as it starts: give a fresh one a moment.
    let started = Instant::now();
    let tid = loop {
        match thread_named(other) {
            Some(tid) => break tid,
            None if started.elapsed() > NAMING_PATIENCE => return false,
            None => std::thread::yield_now(),
        }
    };
    pin_current(0) && set_affinity(tid, &cpus[1..2])
}

/// Lets the calling thread run on every allowed CPU again (threads and
/// processes it starts inherit its mask).
pub fn release_current() {
    set_affinity(0, allowed());
}

/// The id of this process's thread whose name is `name`.
fn thread_named(name: &str) -> Option<i32> {
    for task in fs::read_dir("/proc/self/task").ok()?.flatten() {
        let comm = fs::read_to_string(task.path().join("comm")).unwrap_or_default();
        if comm.trim_end() == name {
            return task.file_name().to_str()?.parse().ok();
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_named_thread_is_found_and_placed() {
        let two = allowed().len() >= 2;
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let parked = std::thread::Builder::new()
            .name("pin-test-peer".into())
            .spawn(move || rx.recv().ok())
            .expect("spawn");
        assert_eq!(spread("pin-test-peer"), two);
        assert!(!spread("no-such-thread"));
        release_current();
        tx.send(()).expect("peer is waiting");
        parked.join().expect("peer exits");
    }
}
