//! Pin the wire workloads to one CPU — the faster one, if one is.
//!
//! The loop is closed with one client: the client thread and the server's
//! handler thread take turns, so one CPU loses them nothing. Two CPUs cost
//! steadiness here: every request then wakes a thread on the other virtual
//! CPU, and in this sandbox that wake-up takes 16 µs or 60 µs depending on
//! whether the host is polling for it — a mode that holds for minutes,
//! flips without notice and triples `get_p50_us`. On one CPU the hand-over
//! is a context switch and the host is not involved (measured while the
//! slow mode was on: 59–64 µs per get unpinned, 16–22 µs pinned). The
//! in-process workloads have no second thread and are left to the scheduler,
//! which served them better than a fixed CPU did.
//!
//! Which CPU: a fixed choice sits out on that CPU whatever the host does to
//! it. Seen once in four hours of runs: for five minutes everything pinned
//! to CPU 1 — the end of one workload's ten runs and all of the next one's —
//! ran 25–35 % slower, and the unpinned workload that ran right after was at
//! its usual speed. So a run first times a fixed piece of arithmetic on
//! every CPU it may use, a few milliseconds each, and takes the highest CPU
//! unless another one is clearly faster at that moment. The two CPUs of
//! this box measure the same on the wire workloads when neither is
//! disturbed, although the disk's interrupts all land on CPU 1.

#![cfg_attr(not(target_os = "linux"), allow(dead_code, unused_imports))]

use std::time::Instant;

/// Passes over the CPUs; a CPU's score is its median over them, so that a
/// disturbance shorter than half the calibration is not held against it.
const PASSES: usize = 7;
/// Another CPU has to beat the default by this share to be chosen over it:
/// CPUs that are equally fast must not take turns from run to run.
const MARGIN: f64 = 0.05;

/// About 2 ms of dependent multiplies over a buffer that fits the L2
/// cache: slowed by a busy sibling thread like the code under test is.
fn calibration_kernel(buf: &mut [u64]) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..32 {
        for w in buf.iter_mut() {
            x = (x ^ *w).wrapping_mul(0xBF58_476D_1CE4_E5B9).rotate_left(27);
            *w = x;
        }
    }
    x
}

/// Of `(cpu, median seconds)` pairs, the last CPU unless another one is
/// faster than it by more than [`MARGIN`]; then the fastest.
fn choose(scores: &[(usize, f64)]) -> Option<usize> {
    let &(default, default_secs) = scores.last()?;
    let &(fastest, fastest_secs) = scores.iter().min_by(|a, b| a.1.total_cmp(&b.1))?;
    Some(if fastest_secs < default_secs * (1.0 - MARGIN) { fastest } else { default })
}

/// Restrict the calling thread — and every thread it spawns afterwards —
/// to one of the CPUs it may run on: the highest, or the one that runs the
/// calibration kernel clearly faster. Returns the CPU, or `None` where the
/// call is unavailable or refused.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // 1024 CPUs: the size of glibc's `cpu_set_t`.
    let mut allowed = [0u64; 16];
    let bytes = std::mem::size_of_val(&allowed);
    // SAFETY: `allowed` is a live, writable buffer of exactly `bytes` bytes,
    // and pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, bytes, allowed.as_mut_ptr()) } != 0 {
        return None;
    }
    let pin = |cpu: usize| -> bool {
        let mut one = [0u64; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `one` is a live buffer of exactly `bytes` bytes that the
        // call only reads, and pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, bytes, one.as_ptr()) == 0 }
    };
    let cpus: Vec<usize> =
        (0..allowed.len() * 64).filter(|c| allowed[c / 64] >> (c % 64) & 1 == 1).collect();
    let mut buf = vec![0u64; 1 << 15];
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); cpus.len()];
    for _ in 0..PASSES {
        for (slot, &cpu) in times.iter_mut().zip(&cpus) {
            if !pin(cpu) {
                return None;
            }
            let t0 = Instant::now();
            std::hint::black_box(calibration_kernel(&mut buf));
            slot.push(t0.elapsed().as_secs_f64());
        }
    }
    let scores: Vec<(usize, f64)> =
        cpus.iter().zip(&times).map(|(&c, t)| (c, crate::stats::median(t))).collect();
    let cpu = choose(&scores)?;
    let shown: Vec<String> =
        scores.iter().map(|(c, s)| format!("cpu {c} {:.2} ms", s * 1e3)).collect();
    eprintln!("# calibration: {}", shown.join(", "));
    pin(cpu).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_default_cpu_holds_unless_another_is_clearly_faster() {
        assert_eq!(choose(&[]), None);
        assert_eq!(choose(&[(3, 2.0)]), Some(3));
        assert_eq!(choose(&[(0, 2.00), (1, 2.05)]), Some(1));
        assert_eq!(choose(&[(0, 1.96), (1, 2.00)]), Some(1));
        assert_eq!(choose(&[(0, 2.0), (1, 2.8)]), Some(0));
        assert_eq!(choose(&[(0, 2.8), (1, 2.0)]), Some(1));
        assert_eq!(choose(&[(0, 2.0), (1, 1.5), (2, 2.0)]), Some(1));
    }

    #[test]
    fn the_kernel_is_a_fixed_piece_of_work() {
        let mut a = vec![0u64; 1 << 10];
        let mut b = vec![0u64; 1 << 10];
        assert_eq!(calibration_kernel(&mut a), calibration_kernel(&mut b));
        assert_eq!(a, b);
    }
}
