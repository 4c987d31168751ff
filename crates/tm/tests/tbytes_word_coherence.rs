//! Property tests for [`TBytes`] byte/word coherence: random programs that
//! mix byte-granularity and word-granularity accesses over the *same*
//! buffer — aliased writes, unaligned head/tail spans, cross-word copies —
//! checked against a plain `Vec<u8>` sequential model, inside one
//! transaction (so reads go through the redo-log lookup under the buffered
//! algorithms) and again after commit through direct loads.

use testkit::prop::gen::{self, Index};
use testkit::{no_shrink, prop_assert_eq, proptest};
use tm::{Algorithm, ContentionManager, SerialLockMode, TBytes, TmRuntime, Transaction};

fn runtimes() -> Vec<TmRuntime> {
    [Algorithm::Eager, Algorithm::Lazy, Algorithm::Norec]
        .into_iter()
        .map(|algo| {
            TmRuntime::builder()
                .algorithm(algo)
                .contention_manager(ContentionManager::None)
                .serial_lock(SerialLockMode::None)
                .build()
        })
        .collect()
}

/// One step of a random mixed-granularity program. Positions are
/// length-agnostic [`Index`]es resolved against the concrete buffer at run
/// time; fills come from a seed word cycled over the span.
#[derive(Clone, Copy, Debug)]
enum Op {
    WriteByte(Index, u8),
    /// Byte-span store via `write_bytes` (word-granular inside).
    WriteRange(Index, Index, u64),
    /// Same span semantics through `copy_from_slice`.
    CopySlice(Index, Index, u64),
    ReadByte(Index),
    ReadRange(Index, Index),
    /// Aliased cross-word copy within the buffer: bulk read then bulk
    /// write inside the same transaction.
    CopyWithin(Index, Index, Index),
}

no_shrink!(Op);

fn op_gen() -> impl Fn(&mut testkit::rng::SmallRng) -> Op + Clone {
    use testkit::rng::Rng;
    move |rng| {
        let i = Index(rng.next_u64());
        let j = Index(rng.next_u64());
        let k = Index(rng.next_u64());
        match rng.gen_range(0u32..6) {
            0 => Op::WriteByte(i, (rng.next_u64() & 0xFF) as u8),
            1 => Op::WriteRange(i, j, rng.next_u64()),
            2 => Op::CopySlice(i, j, rng.next_u64()),
            3 => Op::ReadByte(i),
            4 => Op::ReadRange(i, j),
            _ => Op::CopyWithin(i, j, k),
        }
    }
}

fn fill(seed: u64, n: usize) -> Vec<u8> {
    seed.to_le_bytes().iter().copied().cycle().take(n).collect()
}

/// The word the model says word index `wi` holds: little-endian bytes,
/// zero-padded past `len` (no store writes a padding byte).
fn model_word(model: &[u8], wi: usize) -> u64 {
    let base = wi * 8;
    let mut w = 0u64;
    for bi in 0..8usize.min(model.len().saturating_sub(base)) {
        w |= u64::from(model[base + bi]) << (bi * 8);
    }
    w
}

proptest! {
    #![cases(32)]

    /// In-transaction reads see exactly the sequential model at every
    /// step, and the committed buffer equals the model, for every
    /// algorithm. Lengths 9..40 force an unaligned tail word.
    #[test]
    fn mixed_granularity_matches_model(
        len in gen::range(9usize..40),
        ops in gen::vec(op_gen(), 1..24),
    ) {
        for rt in runtimes() {
            let words = len.div_ceil(8);
            let b = TBytes::zeroed(len);
            let mut model = vec![0u8; len];
            rt.atomic(|tx| {
                // The model is rebuilt on retry (irrelevant here: single
                // thread, no conflicts), so recompute from scratch.
                let mut m = vec![0u8; len];
                for &op in &ops {
                    match op {
                        Op::WriteByte(i, v) => {
                            let i = i.index(len);
                            m[i] = v;
                            tx.write_byte(&b, i, v)?;
                        }
                        Op::WriteRange(a, l, seed) => {
                            let off = a.index(len);
                            let n = l.index(len - off + 1);
                            let src = fill(seed, n);
                            m[off..off + n].copy_from_slice(&src);
                            tx.write_bytes(&b, off, &src)?;
                        }
                        Op::CopySlice(a, l, seed) => {
                            let off = a.index(len);
                            let n = l.index(len - off + 1);
                            let src = fill(seed, n);
                            m[off..off + n].copy_from_slice(&src);
                            tx.copy_from_slice(&b, off, &src)?;
                        }
                        Op::ReadByte(i) => {
                            let i = i.index(len);
                            assert_eq!(tx.read_byte(&b, i)?, m[i], "read_byte at {i}");
                        }
                        Op::ReadRange(a, l) => {
                            let off = a.index(len);
                            let n = l.index(len - off + 1);
                            let mut dst = vec![0u8; n];
                            tx.read_bytes(&b, off, &mut dst)?;
                            assert_eq!(dst, &m[off..off + n], "read_bytes at {off}+{n}");
                        }
                        Op::CopyWithin(d, s, l) => {
                            let soff = s.index(len);
                            let doff = d.index(len);
                            let n = l.index(len - soff.max(doff) + 1);
                            let mut tmp = vec![0u8; n];
                            tx.read_bytes(&b, soff, &mut tmp)?;
                            tx.write_bytes(&b, doff, &tmp)?;
                            m.copy_within(soff..soff + n, doff);
                        }
                    }
                }
                model = m;
                Ok(())
            });
            prop_assert_eq!(
                &b.to_vec_direct(),
                &model,
                "committed state, algorithm {:?}",
                rt.algorithm()
            );
            // Padding bytes past len stay zero through all the span ops.
            if len % 8 != 0 {
                let tail = b.load_word_direct(words - 1);
                prop_assert_eq!(tail, model_word(&model, words - 1), "tail padding");
            }
        }
    }

    /// The direct (uninstrumented) slice ops agree with the model
    /// too — same rewrite, no transaction.
    #[test]
    fn direct_slice_ops_match_model(
        len in gen::range(9usize..40),
        ops in gen::vec(op_gen(), 1..24),
    ) {
        let b = TBytes::zeroed(len);
        let mut m = vec![0u8; len];
        for &op in &ops {
            match op {
                Op::WriteByte(i, v) => {
                    let i = i.index(len);
                    m[i] = v;
                    b.store_byte_direct(i, v);
                }
                Op::WriteRange(a, l, seed) | Op::CopySlice(a, l, seed) => {
                    let off = a.index(len);
                    let n = l.index(len - off + 1);
                    let src = fill(seed, n);
                    m[off..off + n].copy_from_slice(&src);
                    b.store_slice_direct(off, &src);
                }
                Op::ReadByte(i) => {
                    let i = i.index(len);
                    prop_assert_eq!(b.load_byte_direct(i), m[i]);
                }
                Op::ReadRange(a, l) => {
                    let off = a.index(len);
                    let n = l.index(len - off + 1);
                    let mut dst = vec![0u8; n];
                    b.load_slice_direct(off, &mut dst);
                    prop_assert_eq!(&dst, &m[off..off + n]);
                }
                Op::CopyWithin(d, s, l) => {
                    let soff = s.index(len);
                    let doff = d.index(len);
                    let n = l.index(len - soff.max(doff) + 1);
                    let mut tmp = vec![0u8; n];
                    b.load_slice_direct(soff, &mut tmp);
                    b.store_slice_direct(doff, &tmp);
                    m.copy_within(soff..soff + n, doff);
                }
            }
        }
        prop_assert_eq!(&b.to_vec_direct(), &m);
    }
}

/// Two threads own interleaved byte ranges that share words — A bytes
/// `8k..8k+3`, B bytes `8k+3..8k+8` of every word — and store them with
/// `store_slice_direct` round after round, each reading its own bytes
/// back after every round. A partial-word store that wrote the whole word
/// from a stale read would put the other thread's previous bytes back
/// over its latest ones, and the owner would read them.
#[test]
fn concurrent_partial_word_direct_stores_lose_no_byte() {
    const LEN: usize = 4096;
    const ROUNDS: u32 = 400;
    let b = TBytes::zeroed(LEN);
    let writer = |lo: usize, n: usize, tag: u8| {
        let b = &b;
        move || {
            for round in 1..=ROUNDS {
                let fill = [round as u8 ^ tag; 8];
                for k in 0..LEN / 8 {
                    b.store_slice_direct(8 * k + lo, &fill[..n]);
                }
                let mut got = [0u8; 8];
                for k in 0..LEN / 8 {
                    b.load_slice_direct(8 * k + lo, &mut got[..n]);
                    assert_eq!(&got[..n], &fill[..n], "bytes {}.. lost round {round}", 8 * k + lo);
                }
            }
        }
    };
    std::thread::scope(|s| {
        s.spawn(writer(0, 3, 0x00));
        s.spawn(writer(3, 5, 0x80));
    });
    let (a_last, b_last) = (ROUNDS as u8, ROUNDS as u8 ^ 0x80);
    for (i, &byte) in b.to_vec_direct().iter().enumerate() {
        assert_eq!(byte, if i % 8 < 3 { a_last } else { b_last }, "byte {i}");
    }
}
