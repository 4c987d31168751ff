//! CPU placement of the load generator and the server child.
//!
//! The wire workloads run the one client and the one-worker server on one
//! CPU. Left to the scheduler, the pair sometimes lands on two CPUs, and
//! then every roundtrip pays two wake-ups of a halted virtual CPU: on the
//! sandbox this flips the median roundtrip between 8 µs and 48 µs from
//! run to run. In-process callers get one CPU each so they do not
//! migrate mid-slice.

const WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

fn get_mask() -> Option<[u64; WORDS]> {
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    (rc == 0).then_some(mask)
}

fn set_mask(mask: &[u64; WORDS]) -> bool {
    // SAFETY: `mask` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) == 0 }
}

/// The CPUs the calling thread may run on, ascending.
pub fn allowed() -> Vec<usize> {
    let Some(mask) = get_mask() else {
        return Vec::new();
    };
    (0..WORDS * 64)
        .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Restores the calling thread's earlier CPU set when dropped.
pub struct Pinned {
    earlier: Option<[u64; WORDS]>,
}

/// Pins the calling thread — and every thread or process it starts from
/// now on — to `cpu`. Where the kernel refuses, the thread stays as it
/// is and the run goes on unpinned.
pub fn pin(cpu: usize) -> Pinned {
    let earlier = get_mask();
    let mut mask = [0u64; WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    if earlier.is_none() || !set_mask(&mask) {
        eprintln!("sysbench: warning: cannot pin to CPU {cpu}; placement is the scheduler's");
        return Pinned { earlier: None };
    }
    Pinned { earlier }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        if let Some(mask) = &self.earlier {
            set_mask(mask);
        }
    }
}
