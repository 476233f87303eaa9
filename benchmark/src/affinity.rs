//! The benchmark runs on one CPU.
//!
//! The machine the bounds were sized on is a 2-vCPU guest whose second
//! vCPU is worth a core in some minutes and next to nothing in others,
//! whatever the guest does (`BASELINE.md` has the series: every workload
//! that runs threads side by side read 1.3 to 1.6 times slower for minutes
//! at a time, and exactly as slow as on one CPU). One CPU is what such a
//! machine gives reliably, so every run restricts itself to one before it
//! starts a thread. `harness.nproc` then reads 1: no number of this
//! benchmark is a claim about parallel speed-up.

#[cfg(target_os = "linux")]
extern "C" {
    // The C library's wrappers (std links it): 0 on success, -1 on error.
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Words of the kernel's CPU mask this module handles: 1024 CPUs, the size
/// of the C library's own `cpu_set_t`.
#[cfg(target_os = "linux")]
const MASK_WORDS: usize = 16;

/// Restrict the calling thread, and so every thread it starts afterwards,
/// to the lowest-numbered CPU it is allowed on. Returns that CPU, or `None`
/// where the system has no such call or refuses it.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut allowed = [0u64; MASK_WORDS];
    let bytes = std::mem::size_of_val(&allowed);
    // SAFETY: `allowed` is writable for `bytes` bytes, which is the size
    // passed; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, bytes, allowed.as_mut_ptr()) } != 0 {
        return None;
    }
    let word = allowed.iter().position(|w| *w != 0)?;
    let bit = allowed[word].trailing_zeros() as usize;
    let mut one = [0u64; MASK_WORDS];
    one[word] = 1 << bit;
    // SAFETY: `one` is readable for `bytes` bytes, which is the size passed.
    if unsafe { sched_setaffinity(0, bytes, one.as_ptr()) } != 0 {
        return None;
    }
    Some(word * 64 + bit)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn a_pinned_thread_and_its_children_see_one_cpu() {
        // On a thread of its own: the other tests keep their CPUs.
        let seen = std::thread::spawn(|| {
            let cpu = pin_to_one_cpu().expect("the kernel lets a thread narrow its own mask");
            let parallelism = || std::thread::available_parallelism().map_or(0, |n| n.get());
            let child = std::thread::spawn(parallelism).join().expect("child thread");
            (cpu, parallelism(), child)
        })
        .join()
        .expect("pinning thread");
        assert_eq!((seen.1, seen.2), (1, 1), "pinned to CPU {}", seen.0);
    }
}
