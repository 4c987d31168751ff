//! Model-based testing: random operation sequences against a plain
//! `HashMap` reference model, per branch. Single-threaded, so the cache
//! must agree with the model exactly — any divergence is a correctness
//! bug in the slab/assoc/LRU/store machinery.

use std::collections::HashMap;

use testkit::prop::{gen, CaseResult};
use testkit::rng::{Rng, SmallRng};
use testkit::{no_shrink, prop_assert_eq, proptest};

use mcache::{ArithStatus, Branch, McCache, McConfig, SlabConfig, Stage, StoreStatus};

#[derive(Clone, Debug)]
enum Cmd {
    Set(u8, Vec<u8>),
    Add(u8, Vec<u8>),
    Replace(u8, Vec<u8>),
    Get(u8),
    Delete(u8),
    Incr(u8, u16),
    SetNumeric(u8, u32),
    Append(u8, Vec<u8>),
    Prepend(u8, Vec<u8>),
    /// Set with a (far-future) expiry, in `rel_time` seconds.
    SetTtl(u8, Vec<u8>, u32),
    CasFresh(u8, Vec<u8>),
    CasStale(u8, Vec<u8>),
}

no_shrink!(Cmd);

fn cmd_gen() -> impl Fn(&mut SmallRng) -> Cmd + Clone {
    |rng: &mut SmallRng| {
        let k = rng.gen_range(0u8..24);
        match rng.gen_range(0u32..12) {
            0 => Cmd::Set(k, gen::bytes(0..48)(rng)),
            1 => Cmd::Add(k, gen::bytes(0..48)(rng)),
            2 => Cmd::Replace(k, gen::bytes(0..48)(rng)),
            3 => Cmd::Get(k),
            4 => Cmd::Delete(k),
            5 => Cmd::Incr(k, rng.next_u64() as u16),
            6 => Cmd::SetNumeric(k, rng.next_u64() as u32),
            7 => Cmd::Append(k, gen::bytes(1..16)(rng)),
            8 => Cmd::CasFresh(k, gen::bytes(0..48)(rng)),
            9 => Cmd::Prepend(k, gen::bytes(1..16)(rng)),
            10 => Cmd::SetTtl(k, gen::bytes(0..48)(rng), rng.gen_range(1_000_000u32..2_000_000)),
            _ => Cmd::CasStale(k, gen::bytes(0..48)(rng)),
        }
    }
}

fn key_name(k: u8) -> Vec<u8> {
    format!("model-key-{k:03}").into_bytes()
}

fn check_branch(branch: Branch, cmds: &[Cmd]) -> CaseResult {
    let cache = McCache::start(McConfig {
        branch,
        workers: 1,
        slab: SlabConfig {
            mem_limit: 4 << 20,
            page_size: 64 << 10,
            chunk_min: 96,
            growth_factor: 1.5,
        },
        hash_power: 6,
        hash_power_max: 9,
        item_lock_power: 4,
        maintenance: false, // single-threaded determinism
        ..Default::default()
    });
    // key -> (value, expiry): append/prepend must carry both over.
    let mut model: HashMap<u8, (Vec<u8>, u32)> = HashMap::new();
    for cmd in cmds {
        match cmd {
            Cmd::Set(k, v) => {
                let st = cache.set(0, &key_name(*k), v, 0, 0);
                prop_assert_eq!(st, StoreStatus::Stored, "{} set", branch);
                model.insert(*k, (v.clone(), 0));
            }
            Cmd::Add(k, v) => {
                let st = cache.add(0, &key_name(*k), v, 0, 0);
                if model.contains_key(k) {
                    prop_assert_eq!(st, StoreStatus::NotStored, "{} add-present", branch);
                } else {
                    prop_assert_eq!(st, StoreStatus::Stored, "{} add-absent", branch);
                    model.insert(*k, (v.clone(), 0));
                }
            }
            Cmd::Replace(k, v) => {
                let st = cache.replace(0, &key_name(*k), v, 0, 0);
                if model.contains_key(k) {
                    prop_assert_eq!(st, StoreStatus::Stored, "{} replace-present", branch);
                    model.insert(*k, (v.clone(), 0));
                } else {
                    prop_assert_eq!(st, StoreStatus::NotStored, "{} replace-absent", branch);
                }
            }
            Cmd::Get(k) => {
                let got = cache.get(0, &key_name(*k)).map(|g| (g.data, g.exp));
                prop_assert_eq!(got.as_ref(), model.get(k), "{} get key {}", branch, k);
            }
            Cmd::Delete(k) => {
                let deleted = cache.delete(0, &key_name(*k));
                prop_assert_eq!(deleted, model.remove(k).is_some(), "{} delete", branch);
            }
            Cmd::SetNumeric(k, v) => {
                let text = v.to_string().into_bytes();
                cache.set(0, &key_name(*k), &text, 0, 0);
                model.insert(*k, (text, 0));
            }
            Cmd::Incr(k, d) => {
                let st = cache.arith(0, &key_name(*k), *d as u64, true);
                match model.get_mut(k) {
                    None => prop_assert_eq!(st, ArithStatus::NotFound, "{}", branch),
                    Some((stored, _)) => {
                        // memcached's safe_strtoull: whole value numeric
                        // modulo surrounding whitespace.
                        let parse = |buf: &[u8]| {
                            let (v, used) = tmstd::parse_u64(buf)?;
                            buf[used..]
                                .iter()
                                .all(|&b| b == 0 || tmstd::isspace(b))
                                .then_some(v)
                        };
                        match (stored.len() <= 40).then(|| parse(stored)).flatten() {
                            Some(old) => {
                                let new = old.wrapping_add(*d as u64);
                                prop_assert_eq!(st, ArithStatus::Ok(new), "{}", branch);
                                *stored = new.to_string().into_bytes();
                            }
                            None => {
                                prop_assert_eq!(st, ArithStatus::NonNumeric, "{}", branch)
                            }
                        }
                    }
                }
            }
            Cmd::Append(k, v) | Cmd::Prepend(k, v) => {
                let after = matches!(cmd, Cmd::Append(..));
                let name = key_name(*k);
                let st = if after { cache.append(0, &name, v) } else { cache.prepend(0, &name, v) };
                match model.get_mut(k) {
                    // The expiry stays the original item's (memcached).
                    Some((stored, _)) => {
                        prop_assert_eq!(st, StoreStatus::Stored, "{} concat", branch);
                        if after {
                            stored.extend_from_slice(v);
                        } else {
                            stored.splice(0..0, v.iter().copied());
                        }
                    }
                    None => prop_assert_eq!(st, StoreStatus::NotStored, "{} concat", branch),
                }
            }
            Cmd::SetTtl(k, v, exp) => {
                let st = cache.set(0, &key_name(*k), v, 0, *exp);
                prop_assert_eq!(st, StoreStatus::Stored, "{} set-ttl", branch);
                model.insert(*k, (v.clone(), *exp));
            }
            Cmd::CasFresh(k, v) => {
                // CAS with the current id must succeed iff present.
                match cache.get(0, &key_name(*k)) {
                    Some(cur) => {
                        let st = cache.cas(0, &key_name(*k), v, 0, 0, cur.cas);
                        prop_assert_eq!(st, StoreStatus::Stored, "{} cas-fresh", branch);
                        model.insert(*k, (v.clone(), 0));
                    }
                    None => {
                        let st = cache.cas(0, &key_name(*k), v, 0, 0, 1);
                        prop_assert_eq!(st, StoreStatus::NotFound, "{} cas-missing", branch);
                    }
                }
            }
            Cmd::CasStale(k, v) => {
                if model.contains_key(k) {
                    // A CAS id from the future is always stale.
                    let st = cache.cas(0, &key_name(*k), v, 0, 0, u64::MAX);
                    prop_assert_eq!(st, StoreStatus::Exists, "{} cas-stale", branch);
                }
            }
        }
    }
    // Final sweep: every model entry is retrievable, nothing extra lives.
    for (k, v) in &model {
        let got = cache.get(0, &key_name(*k)).map(|g| (g.data, g.exp));
        prop_assert_eq!(got.as_ref(), Some(v), "{} final sweep key {}", branch, k);
    }
    prop_assert_eq!(
        cache.stats().global.curr_items,
        model.len() as u64,
        "{} phantom items",
        branch
    );
    Ok(())
}

proptest! {
    #![cases(24)]

    #[test]
    fn baseline_matches_model(cmds in gen::vec(cmd_gen(), 1..60)) {
        check_branch(Branch::Baseline, &cmds)?;
    }

    #[test]
    fn ip_plain_matches_model(cmds in gen::vec(cmd_gen(), 1..60)) {
        check_branch(Branch::Ip(Stage::Plain), &cmds)?;
    }

    #[test]
    fn it_plain_matches_model(cmds in gen::vec(cmd_gen(), 1..60)) {
        check_branch(Branch::It(Stage::Plain), &cmds)?;
    }

    #[test]
    fn ip_max_matches_model(cmds in gen::vec(cmd_gen(), 1..60)) {
        check_branch(Branch::Ip(Stage::Max), &cmds)?;
    }

    #[test]
    fn it_lib_matches_model(cmds in gen::vec(cmd_gen(), 1..60)) {
        check_branch(Branch::It(Stage::Lib), &cmds)?;
    }

    #[test]
    fn ip_oncommit_matches_model(cmds in gen::vec(cmd_gen(), 1..60)) {
        check_branch(Branch::Ip(Stage::OnCommit), &cmds)?;
    }

    #[test]
    fn it_nolock_matches_model(cmds in gen::vec(cmd_gen(), 1..60)) {
        check_branch(Branch::ItNoLock, &cmds)?;
    }
}

mod binary_wire {
    use mcache::proto::binary::{Opcode, Request};
    use testkit::prop::gen;
    use testkit::{prop_assert, prop_assert_eq, proptest};

    // `Opcode` is foreign to this crate, so it cannot implement testkit's
    // `Shrink`; generate an index and map it at use time instead.
    const OPCODES: [Opcode; 9] = [
        Opcode::Get,
        Opcode::Set,
        Opcode::Add,
        Opcode::Replace,
        Opcode::Delete,
        Opcode::Increment,
        Opcode::Decrement,
        Opcode::Noop,
        Opcode::Version,
    ];

    proptest! {
        #![cases(128)]

        /// decode(encode(req)) == req for arbitrary well-formed requests.
        #[test]
        fn wire_roundtrip(
            op_idx in gen::range(0usize..9),
            opaque in gen::any_u32(),
            cas in gen::any_u64(),
            key in gen::bytes(0..64),
            value in gen::bytes(0..128),
            extra in gen::any_u64(),
        ) {
            let opcode = OPCODES[op_idx];
            let req = Request { opcode, opaque, cas, key, value, extra };
            let wire = req.encode();
            let back = Request::decode(&wire).expect("self-encoded frame must decode");
            prop_assert_eq!(back.opcode, req.opcode);
            prop_assert_eq!(back.opaque, req.opaque);
            prop_assert_eq!(back.cas, req.cas);
            prop_assert_eq!(back.key, req.key);
            prop_assert_eq!(back.value, req.value);
            // extras only travel on opcodes that carry them; a store's
            // flags field is 32 bits wide
            match req.opcode {
                Opcode::Set | Opcode::Add | Opcode::Replace => {
                    prop_assert_eq!(back.extra, req.extra as u32 as u64)
                }
                Opcode::Increment | Opcode::Decrement => prop_assert_eq!(back.extra, req.extra),
                _ => prop_assert_eq!(back.extra, 0),
            }
        }

        /// Truncated frames never decode (no panics, no partial reads).
        #[test]
        fn truncated_frames_rejected(
            key in gen::bytes(1..32),
            cut in gen::index(),
        ) {
            let req = Request {
                opcode: Opcode::Set,
                opaque: 7,
                cas: 0,
                key,
                value: b"vvv".to_vec(),
                extra: 1,
            };
            let wire = req.encode();
            let cut_at = cut.index(wire.len().saturating_sub(1));
            prop_assert!(Request::decode(&wire[..cut_at]).is_none());
        }
    }
}
