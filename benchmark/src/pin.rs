//! Pin the whole process to one CPU.
//!
//! The functional stack hands every request across threads (client ->
//! file-manager service -> drive service). Left to the scheduler on a
//! two-vCPU machine, the same binary measured 2 876 and then 10 092
//! ops/s on `meta_mix` in consecutive runs, depending on whether the
//! wake-ups crossed CPUs. On one CPU the figures repeat, so the
//! benchmark pins itself before it starts a single thread.

/// Restrict this process (and every thread it will spawn) to the first
/// CPU it is allowed to run on. Returns the CPU, or `None` when the
/// platform offers no way to do it.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    // glibc's cpu_set_t: 1024 bits.
    const WORDS: usize = 16;
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; WORDS];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable buffer of exactly `size` bytes,
    // and pid 0 names the calling thread; the kernel writes at most
    // `size` bytes into it.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let (word, bits) = mask.iter().enumerate().find(|(_, w)| **w != 0)?;
    let cpu = word * 64 + bits.trailing_zeros() as usize;
    let mut one = [0u64; WORDS];
    one[word] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly `size` bytes that the
    // kernel only reads.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}
