//! Statistics: the fourth lock category of §3.1.
//!
//! memcached keeps program-wide counters behind a global `stats_lock` and —
//! after years of scalability work — most command counters in per-thread
//! structures behind per-thread locks. The paper had to transactionalize
//! *both*: the per-thread locks were never contended, but any mutex
//! operation is unsafe inside an atomic transaction ("This highlights a
//! flaw with relaxed transactions: when an unsafe operation is performed in
//! a context where conflicts are exceedingly rare, it still necessitates
//! the serialization of all transactions", §3.1).
//!
//! Every counter is declared once, as one row of a `counters!` block,
//! which generates the live block, its snapshot, `snapshot()` and `+`.
//! Every `stats` line is one row of `STATS`, read by `report` when a
//! `stats` request executes — never before.

use std::sync::atomic::{AtomicU64, Ordering};

use tm::{Abort, StatsSnapshot, TCell};
use tmstd::ByteAccess;

use crate::cache::{CacheStats, McCache};
use crate::ctx::Ctx;
use crate::dur::DurSnapshot;
use crate::net::{NetSnapshot, NetStats};

/// A cell a counter block is made of, read once per snapshot.
pub(crate) trait Counter: Default {
    /// The current count, read outside any critical section.
    fn read(&self) -> u64;
}

impl Counter for TCell<u64> {
    fn read(&self) -> u64 {
        self.load_direct()
    }
}

impl Counter for AtomicU64 {
    fn read(&self) -> u64 {
        self.load(Ordering::Relaxed)
    }
}

/// Declares a counter block: one row (doc, field) per counter, stored as
/// `$cell`, and its plain-value snapshot `$snap`.
macro_rules! counters {
    ($(#[$sdoc:meta])* struct $name:ident($cell:ty) { $($(#[$doc:meta])* $f:ident),* $(,)? } snapshot $snap:ident) => {
        $(#[$sdoc])*
        #[derive(Debug, Default)]
        pub struct $name {
            $($(#[$doc])* pub(crate) $f: $cell,)*
        }

        #[doc = concat!("A point-in-time copy of [`", stringify!($name), "`].")]
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct $snap {
            $($(#[$doc])* pub $f: u64,)*
        }

        impl $name {
            /// Reads every counter (call outside critical sections).
            pub fn snapshot(&self) -> $snap {
                $snap { $($f: $crate::stats::Counter::read(&self.$f),)* }
            }
        }

        impl std::ops::Add for $snap {
            type Output = $snap;
            fn add(self, rhs: $snap) -> $snap {
                $snap { $($f: self.$f + rhs.$f,)* }
            }
        }
    };
}
pub(crate) use counters;

counters! {
    /// Counters guarded by the global `stats_lock`.
    struct GlobalStats(TCell<u64>) {
        /// Items currently linked into the cache.
        curr_items,
        /// Items ever linked.
        total_items,
        /// Hash-table expansions completed.
        expansions,
        /// Items evicted to make room.
        evictions,
        /// Slab pages moved by the rebalancer.
        rebalances,
        /// `flush_all` commands.
        flush_cmds,
        /// Maintenance wakeup signals delivered.
        maintenance_signals,
        /// Total commands processed (the program-wide counter that keeps
        /// `stats_lock` hot in §3.1's mutrace profile).
        cmd_total,
        /// Magazine refill transactions: batched freelist pops that restock
        /// a worker's private chunk cache.
        magazine_refills,
        /// Magazine flush transactions: batched freelist pushes returning a
        /// worker's cached chunks under memory pressure or overflow.
        magazine_flushes,
    } snapshot GlobalSnapshot
}

counters! {
    /// One worker thread's command counters (per-thread lock category).
    struct ThreadStats(TCell<u64>) {
        /// `get` commands.
        get_cmds,
        /// `get` hits.
        get_hits,
        /// `get` misses.
        get_misses,
        /// Store commands (`set`/`add`/`replace`/`cas`).
        set_cmds,
        /// `delete` commands.
        delete_cmds,
        /// `incr`/`decr` commands.
        arith_cmds,
        /// `touch` commands.
        touch_cmds,
        /// This worker's shard of the global `cmd_total`: the trimmed read
        /// path counts its commands here — privately, outside any
        /// transaction — and the shards are folded back into
        /// `GlobalSnapshot::cmd_total` at snapshot time.
        cmd_shard,
    } snapshot ThreadSnapshot
}

/// Transactionally (or directly, under its lock) bumps a counter of the
/// global or a per-thread block.
///
/// # Errors
///
/// [`Abort::Conflict`] under transactional access.
pub(crate) fn bump<'e>(ctx: &mut Ctx<'_, 'e>, cell: &'e TCell<u64>) -> Result<(), Abort> {
    let v = ctx.get_word(cell.word())?;
    ctx.put_word(cell.word(), v + 1)
}

impl ThreadSnapshot {
    /// All commands this thread executed.
    pub fn total_cmds(&self) -> u64 {
        self.get_cmds + self.set_cmds + self.delete_cmds + self.arith_cmds + self.touch_cmds
    }
}

/// Where a [`STATS`] row's counter lives, and how to read it from that
/// layer's snapshot.
#[derive(Clone, Copy)]
pub(crate) enum Scope {
    /// The global block and the cache's own gauges.
    Cache(fn(&CacheStats) -> u64),
    /// The per-worker blocks, folded into one sum.
    Worker(fn(&ThreadSnapshot) -> u64),
    /// The STM runtime.
    Tm(fn(&StatsSnapshot) -> u64),
    /// The redo log: reported only while one is attached.
    Dur(fn(&DurSnapshot) -> u64),
    /// The wire front end: reported only behind a server.
    Net(fn(&NetSnapshot) -> u64),
}

use Scope::{Cache, Dur, Net, Tm, Worker};

/// The general `stats` list, both protocols, in reporting order: one row
/// per line, `(wire name, scope)`.
pub(crate) const STATS: &[(&str, Scope)] = &[
    ("cmd_get", Worker(|t| t.get_cmds)),
    ("get_hits", Worker(|t| t.get_hits)),
    ("get_misses", Worker(|t| t.get_misses)),
    ("cmd_set", Worker(|t| t.set_cmds)),
    ("curr_items", Cache(|s| s.global.curr_items)),
    ("total_items", Cache(|s| s.global.total_items)),
    ("evictions", Cache(|s| s.global.evictions)),
    ("hash_expansions", Cache(|s| s.global.expansions)),
    ("slab_reassigns", Cache(|s| s.global.rebalances)),
    ("request_panics", Cache(|s| s.request_panics)),
    ("maintenance_panics", Cache(|s| s.maintenance_panics)),
    // Write-path gauges: the STM's commit clock and the per-worker slab
    // magazines.
    ("clock_tick_elisions", Tm(|t| t.clock_tick_elisions)),
    ("clock_cas_retries", Tm(|t| t.clock_cas_retries)),
    // Contention-path gauges: orec conflicts and the aborted attempts that
    // waited for a held orec before retrying.
    ("orec_stripe_conflicts", Tm(|t| t.orec_stripe_conflicts)),
    ("orec_lock_waits", Tm(|t| t.lock_waits)),
    ("magazine_refills", Cache(|s| s.global.magazine_refills)),
    ("magazine_flushes", Cache(|s| s.global.magazine_flushes)),
    ("limit_maxbytes", Cache(|s| s.limit_maxbytes)),
    ("total_malloced", Cache(|s| s.total_malloced)),
    ("dur_appends", Dur(|d| d.appends)),
    ("dur_fsyncs", Dur(|d| d.fsyncs)),
    ("dur_bytes", Dur(|d| d.bytes)),
    ("log_write_errors", Dur(|d| d.log_write_errors)),
    ("recovered_items", Dur(|d| d.recovered_items)),
    ("torn_records_dropped", Dur(|d| d.torn_records_dropped)),
    ("dur_compactions", Dur(|d| d.compactions)),
    ("recover_scan_us", Dur(|d| d.recover_scan_us)),
    ("recover_fold_us", Dur(|d| d.recover_fold_us)),
    ("recover_load_us", Dur(|d| d.recover_load_us)),
    ("recover_compact_us", Dur(|d| d.recover_compact_us)),
    ("curr_connections", Net(|n| n.curr_connections)),
    ("total_connections", Net(|n| n.total_connections)),
    ("bytes_read", Net(|n| n.bytes_read)),
    ("bytes_written", Net(|n| n.bytes_written)),
    ("frame_errors", Net(|n| n.frame_errors)),
    ("backpressure_stalls", Net(|n| n.backpressure_stalls)),
    ("accept_errors", Net(|n| n.accept_errors)),
    ("conn_timeouts", Net(|n| n.conn_timeouts)),
    ("udp_datagrams_rx", Net(|n| n.udp_datagrams_rx)),
    ("udp_datagrams_tx", Net(|n| n.udp_datagrams_tx)),
];

/// The general `stats` list: every counter read once, now — the cache's,
/// the runtime's, the redo log's when one is attached, and `net`'s behind
/// a server — as `(name, value)` lines in [`STATS`] order.
pub(crate) fn report(cache: &McCache, net: Option<&NetStats>) -> Vec<(&'static str, u64)> {
    let (s, tm, dur) = (cache.stats(), cache.tm_stats(), cache.dur_stats());
    let net = net.map(NetStats::snapshot);
    let line = |&(name, scope): &(&'static str, Scope)| {
        let v = match scope {
            Cache(f) => f(&s),
            Worker(f) => f(&s.threads),
            Tm(f) => f(&tm),
            Dur(f) => f(dur.as_ref()?),
            Net(f) => f(net.as_ref()?),
        };
        Some((name, v))
    };
    STATS.iter().filter_map(line).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm::TmRuntime;

    #[test]
    fn direct_bump_and_snapshot() {
        let g = GlobalStats::default();
        let mut ctx = Ctx::Direct;
        bump(&mut ctx, &g.curr_items).unwrap();
        bump(&mut ctx, &g.curr_items).unwrap();
        bump(&mut ctx, &g.total_items).unwrap();
        let s = g.snapshot();
        assert_eq!(s.curr_items, 2);
        assert_eq!(s.total_items, 1);
    }

    #[test]
    fn transactional_bump() {
        let rt = TmRuntime::default_runtime();
        let t = ThreadStats::default();
        rt.atomic(|tx| {
            let mut ctx = Ctx::Atomic(tx);
            bump(&mut ctx, &t.get_cmds)?;
            bump(&mut ctx, &t.get_hits)
        });
        let s = t.snapshot();
        assert_eq!(s.get_cmds, 1);
        assert_eq!(s.get_hits, 1);
        assert_eq!(s.total_cmds(), 1);
    }

    #[test]
    fn snapshots_add() {
        let a = ThreadSnapshot {
            get_cmds: 1,
            set_cmds: 2,
            ..Default::default()
        };
        let b = ThreadSnapshot {
            get_cmds: 10,
            ..Default::default()
        };
        let c = a + b;
        assert_eq!(c.get_cmds, 11);
        assert_eq!(c.set_cmds, 2);
        assert_eq!(c.total_cmds(), 13);
    }
}
