//! ASCII-protocol conformance: table-driven request/response checks
//! modeled on memcached's documented protocol behavior, run on two
//! branches (lock-based and fully transactional) to pin the protocol
//! layer independent of the synchronization strategy.

use mcache::proto::execute_ascii;
use mcache::{Branch, McCache, McConfig, McHandle, SlabConfig, Stage};

fn cache(branch: Branch) -> McHandle {
    McCache::start(McConfig {
        branch,
        workers: 1,
        slab: SlabConfig {
            mem_limit: 2 << 20,
            page_size: 64 << 10,
            chunk_min: 96,
            growth_factor: 1.5,
        },
        hash_power: 6,
        hash_power_max: 8,
        item_lock_power: 4,
        maintenance: false,
        ..Default::default()
    })
}

/// (request, expected exact response) pairs executed in order.
fn conformance_script() -> Vec<(&'static [u8], &'static [u8])> {
    vec![
        // storage basics
        (b"set k1 0 0 3\r\nabc\r\n", b"STORED\r\n"),
        (b"get k1\r\n", b"VALUE k1 0 3\r\nabc\r\nEND\r\n"),
        (b"set k1 7 0 3\r\nxyz\r\n", b"STORED\r\n"),
        (b"get k1\r\n", b"VALUE k1 7 3\r\nxyz\r\nEND\r\n"),
        // add / replace predicates
        (b"add k1 0 0 1\r\nZ\r\n", b"NOT_STORED\r\n"),
        (b"add k2 0 0 2\r\nhi\r\n", b"STORED\r\n"),
        (b"replace k3 0 0 1\r\nQ\r\n", b"NOT_STORED\r\n"),
        (b"replace k2 0 0 3\r\nbye\r\n", b"STORED\r\n"),
        (b"get k2\r\n", b"VALUE k2 0 3\r\nbye\r\nEND\r\n"),
        // empty value
        (b"set empty 0 0 0\r\n\r\n", b"STORED\r\n"),
        (b"get empty\r\n", b"VALUE empty 0 0\r\n\r\nEND\r\n"),
        // delete
        (b"delete k2\r\n", b"DELETED\r\n"),
        (b"delete k2\r\n", b"NOT_FOUND\r\n"),
        (b"get k2\r\n", b"END\r\n"),
        // arithmetic
        (b"set n 0 0 1\r\n5\r\n", b"STORED\r\n"),
        (b"incr n 10\r\n", b"15\r\n"),
        (b"decr n 20\r\n", b"0\r\n"),
        (b"incr n 0\r\n", b"0\r\n"),
        (b"incr missing 1\r\n", b"NOT_FOUND\r\n"),
        (b"set w 0 0 5\r\nwords\r\n", b"STORED\r\n"),
        (
            b"incr w 1\r\n",
            b"CLIENT_ERROR cannot increment or decrement non-numeric value\r\n",
        ),
        // append / prepend
        (b"append k1 0 0 3\r\n+++\r\n", b"STORED\r\n"),
        (b"get k1\r\n", b"VALUE k1 7 6\r\nxyz+++\r\nEND\r\n"),
        (b"prepend k1 0 0 3\r\n---\r\n", b"STORED\r\n"),
        (b"get k1\r\n", b"VALUE k1 7 9\r\n---xyz+++\r\nEND\r\n"),
        (b"append ghost 0 0 1\r\nx\r\n", b"NOT_STORED\r\n"),
        // touch
        (b"touch k1 1000\r\n", b"TOUCHED\r\n"),
        (b"touch ghost 1000\r\n", b"NOT_FOUND\r\n"),
        // malformed requests
        (b"set k 0 0\r\n", b"CLIENT_ERROR bad command line format\r\n"),
        (b"set k a b c\r\n", b"CLIENT_ERROR bad command line format\r\n"),
        (b"set k 0 0 4\r\nab\r\n", b"CLIENT_ERROR bad data chunk\r\n"),
        (b"incr n\r\n", b"CLIENT_ERROR bad command line format\r\n"),
        (b"delete\r\n", b"CLIENT_ERROR bad command line format\r\n"),
        (b"frobnicate k\r\n", b"ERROR\r\n"),
        (b"\r\n", b"ERROR\r\n"),
        // flush
        (b"flush_all\r\n", b"OK\r\n"),
    ]
}

fn run_script(branch: Branch) {
    let c = cache(branch);
    for (i, (req, expected)) in conformance_script().into_iter().enumerate() {
        let got = execute_ascii(&c, 0, req);
        assert_eq!(
            got,
            expected,
            "{branch} step {i}: {:?} -> got {:?}, want {:?}",
            String::from_utf8_lossy(req),
            String::from_utf8_lossy(&got),
            String::from_utf8_lossy(expected),
        );
    }
}

#[test]
fn ascii_conformance_baseline() {
    run_script(Branch::Baseline);
}

#[test]
fn ascii_conformance_it_oncommit() {
    run_script(Branch::It(Stage::OnCommit));
}

#[test]
fn ascii_conformance_ip_lib() {
    run_script(Branch::Ip(Stage::Lib));
}

#[test]
fn multi_get_preserves_request_order() {
    let c = cache(Branch::Baseline);
    execute_ascii(&c, 0, b"set b 0 0 1\r\nB\r\n");
    execute_ascii(&c, 0, b"set a 0 0 1\r\nA\r\n");
    let r = execute_ascii(&c, 0, b"get a b a\r\n");
    let text = String::from_utf8(r).unwrap();
    let pos_a = text.find("VALUE a").unwrap();
    let pos_b = text.find("VALUE b").unwrap();
    assert!(pos_a < pos_b, "{text}");
    assert_eq!(text.matches("VALUE a").count(), 2, "{text}");
}

#[test]
fn values_with_binary_content_roundtrip() {
    let c = cache(Branch::It(Stage::OnCommit));
    // Value containing CRLF and NUL bytes: length-delimited, must survive.
    let payload = b"\x00\r\nbinary\r\n\x00";
    let mut req = format!("set bin 0 0 {}\r\n", payload.len()).into_bytes();
    req.extend_from_slice(payload);
    req.extend_from_slice(b"\r\n");
    assert_eq!(execute_ascii(&c, 0, &req), b"STORED\r\n");
    let resp = execute_ascii(&c, 0, b"get bin\r\n");
    let mut expected = format!("VALUE bin 0 {}\r\n", payload.len()).into_bytes();
    expected.extend_from_slice(payload);
    expected.extend_from_slice(b"\r\nEND\r\n");
    assert_eq!(resp, expected);
}

#[test]
fn max_key_length_is_enforced_by_cache_api() {
    let c = cache(Branch::Baseline);
    let key = vec![b'k'; 250];
    assert_eq!(
        c.set(0, &key, b"v", 0, 0),
        mcache::StoreStatus::Stored,
        "250-byte keys are legal"
    );
    assert!(c.get(0, &key).is_some());
    let too_long = vec![b'k'; 251];
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        c.set(0, &too_long, b"v", 0, 0)
    }));
    assert!(r.is_err(), "251-byte keys must be rejected");
}

#[test]
fn gets_cas_changes_on_every_store() {
    let c = cache(Branch::Ip(Stage::OnCommit));
    let mut last_cas = 0u64;
    for i in 0..5 {
        execute_ascii(&c, 0, format!("set k 0 0 1\r\n{i}\r\n").as_bytes());
        let v = c.get(0, b"k").unwrap();
        assert!(v.cas > last_cas, "CAS must be monotone: {} then {}", last_cas, v.cas);
        last_cas = v.cas;
    }
}

#[test]
fn stats_reflect_protocol_traffic() {
    let c = cache(Branch::Baseline);
    execute_ascii(&c, 0, b"set s1 0 0 1\r\nA\r\n");
    execute_ascii(&c, 0, b"get s1\r\n");
    execute_ascii(&c, 0, b"get nope\r\n");
    let stats = String::from_utf8(execute_ascii(&c, 0, b"stats\r\n")).unwrap();
    assert!(stats.contains("STAT cmd_get 2"), "{stats}");
    assert!(stats.contains("STAT get_hits 1"), "{stats}");
    assert!(stats.contains("STAT get_misses 1"), "{stats}");
    assert!(stats.contains("STAT cmd_set 1"), "{stats}");
    assert!(stats.contains("STAT curr_items 1"), "{stats}");
}

/// `limit_maxbytes` and `total_malloced` under memcached 1.4.15's names:
/// the pool is `mem_limit`, and a page counts as malloced only once a
/// size class claims it — none at start, one after the first SET.
#[test]
fn stats_report_the_slab_memory_claimed_so_far() {
    let c = cache(Branch::Baseline);
    let stat = |name: &str| -> u64 {
        let stats = String::from_utf8(execute_ascii(&c, 0, b"stats\r\n")).unwrap();
        let prefix = format!("STAT {name} ");
        stats
            .lines()
            .find_map(|l| l.strip_prefix(prefix.as_str()))
            .unwrap_or_else(|| panic!("missing {name}: {stats}"))
            .parse()
            .unwrap()
    };
    assert_eq!(stat("limit_maxbytes"), 2 << 20);
    assert_eq!(stat("total_malloced"), 0);
    execute_ascii(&c, 0, b"set m1 0 0 1\r\nA\r\n");
    assert_eq!(stat("total_malloced"), 64 << 10, "one page_size");
    assert!(stat("total_malloced") <= stat("limit_maxbytes"));
}

#[test]
fn append_and_prepend_keep_the_ttl() {
    // memcached re-stores a concatenation with the original item's flags
    // *and* expiry. In-process on three branch families, then over both
    // protocols (the storage commands' exptime is in the cache's `rel_time`
    // seconds; the binary protocol here has no append opcode and no expiry
    // field, so its line is the read side: the same item through a binary
    // GET). One sleep serves every cache.
    use mcache::proto::binary::{execute, Opcode, Request, Status};
    use mcache::StoreStatus;
    let caches: Vec<_> =
        [Branch::Baseline, Branch::Ip(Stage::OnCommit), Branch::It(Stage::OnCommit)]
            .into_iter()
            .map(|branch| {
                let c = cache(branch);
                let ttl = c.rel_time() + 2;
                for k in [&b"dies"[..], b"rescued"] {
                    c.set(0, k, b"mid", 5, ttl);
                    assert_eq!(c.append(0, k, b"-end"), StoreStatus::Stored, "{branch}");
                    assert_eq!(c.prepend(0, k, b"start-"), StoreStatus::Stored, "{branch}");
                    let v = c.get(0, k).unwrap();
                    assert_eq!(
                        (v.data.as_slice(), v.flags),
                        (&b"start-mid-end"[..], 5),
                        "{branch}"
                    );
                    assert_eq!(v.exp, ttl, "{branch}: the concatenation dropped the TTL");
                }
                // touch still owns the expiry afterwards.
                assert!(c.touch(0, b"rescued", 0), "{branch}");
                assert_eq!(c.get(0, b"rescued").unwrap().exp, 0, "{branch}");
                (branch, c, ttl)
            })
            .collect();

    let w = cache(Branch::Ip(Stage::OnCommit));
    let ttl = w.rel_time() + 2;
    let bget = || {
        let req = Request {
            opcode: Opcode::Get,
            opaque: 1,
            cas: 0,
            key: b"k".to_vec(),
            value: Vec::new(),
            extra: 0,
        };
        execute(&w, 0, &req)
    };
    assert_eq!(
        execute_ascii(&w, 0, format!("set k 3 {ttl} 3\r\nmid\r\n").as_bytes()),
        b"STORED\r\n"
    );
    assert_eq!(execute_ascii(&w, 0, b"append k 0 0 4\r\n-end\r\n"), b"STORED\r\n");
    assert_eq!(execute_ascii(&w, 0, b"prepend k 0 0 6\r\nstart-\r\n"), b"STORED\r\n");
    assert_eq!(execute_ascii(&w, 0, b"get k\r\n"), b"VALUE k 3 13\r\nstart-mid-end\r\nEND\r\n");
    assert_eq!((bget().status, bget().value), (Status::Ok, b"start-mid-end".to_vec()));

    std::thread::sleep(std::time::Duration::from_millis(2100));
    for (branch, c, ttl) in &caches {
        assert!(c.rel_time() >= *ttl);
        assert!(c.get(0, b"dies").is_none(), "{branch}: an appended item must still expire");
        assert!(c.get(0, b"rescued").is_some(), "{branch}: a touched item must live on");
    }
    assert!(w.rel_time() >= ttl);
    assert_eq!(execute_ascii(&w, 0, b"get k\r\n"), b"END\r\n", "the concatenation dropped the TTL");
    assert_eq!(bget().status, Status::KeyNotFound, "the concatenation dropped the TTL");
}
