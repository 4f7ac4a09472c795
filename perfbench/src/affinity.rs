//! Pins the process to one CPU before any thread starts, so the client
//! and the shard worker it spawns share that CPU.
//!
//! The queue handoff then costs a context switch. Left to the
//! scheduler on a 2-vCPU guest, the two threads drift between sharing a
//! CPU and waking each other across vCPUs. A cross-vCPU wake-up's
//! latency is set by the hypervisor: `serve-read`'s read p50 moved
//! between 8 and 20 us from run to run, and its p99 between 35 and
//! 146 us.
//!
//! The lowest-numbered allowed CPU is used. On the 2-vCPU host used for
//! tuning, the disk's interrupts go to CPU 1. In runs alternating
//! between the two CPUs, the p50 spread across runs was about half as
//! large on CPU 0.

/// A `cpu_set_t` of 1024 CPUs, as glibc lays it out.
#[repr(C)]
struct CpuSet([u64; 16]);

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Restricts the calling thread (and every thread it spawns later) to
/// the lowest-numbered CPU it may run on. Returns that CPU, or `None`
/// when the affinity calls fail (the run then goes on unpinned).
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut set = CpuSet([0; 16]);
    // SAFETY: `set` is a writable buffer of exactly the size passed;
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) } != 0 {
        return None;
    }
    let cpu = (0..1024)
        .rev()
        .find(|&c| set.0[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = CpuSet([0; 16]);
    one.0[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a valid mask of the size passed; pid 0 names the
    // calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) };
    (rc == 0).then_some(cpu)
}
