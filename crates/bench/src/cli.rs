//! Flag-value parsing shared by the harness binaries (`mcached`,
//! `mcslap`), so every flag fails the same way.

use mcache::{Branch, ItemMode, Stage};

/// The next argument as `flag`'s value, through `parse`. A missing or
/// malformed value is a usage error: `<flag> takes <what>` on stderr,
/// exit 2.
pub fn value<T>(
    flag: &str,
    it: &mut impl Iterator<Item = String>,
    what: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> T {
    it.next().as_deref().and_then(parse).unwrap_or_else(|| {
        eprintln!("{flag} takes {what}");
        std::process::exit(2);
    })
}

/// [`value`]'s parser for anything `FromStr`.
pub fn num<T: std::str::FromStr>(s: &str) -> Option<T> {
    s.parse().ok()
}

/// Every `--branch` name and the branch it selects, in paper order.
pub const BRANCHES: [(&str, Branch); 12] = [
    ("baseline", Branch::Baseline),
    ("semaphore", Branch::Semaphore),
    ("ip", Branch::Ip(Stage::Plain)),
    ("it", Branch::It(Stage::Plain)),
    ("ip-max", Branch::Ip(Stage::Max)),
    ("it-max", Branch::It(Stage::Max)),
    ("ip-lib", Branch::Ip(Stage::Lib)),
    ("it-lib", Branch::It(Stage::Lib)),
    ("ip-oncommit", Branch::Ip(Stage::OnCommit)),
    ("it-oncommit", Branch::It(Stage::OnCommit)),
    ("ip-nolock", Branch::IpNoLock),
    ("it-nolock", Branch::ItNoLock),
];

/// [`value`]'s parser for `--branch`: a name in [`BRANCHES`].
pub fn parse_branch(name: &str) -> Option<Branch> {
    BRANCHES.iter().find(|b| b.0 == name).map(|b| b.1)
}

/// What `--branch` takes, naming every valid branch.
pub fn branch_usage() -> String {
    let names: Vec<&str> = BRANCHES.iter().map(|b| b.0).collect();
    format!("a branch name; valid: {}", names.join(" "))
}

/// Refuses `--magazine N` (N > 0) on a lock or IP branch: magazines feed
/// IT's one-transaction store and exist nowhere else, so the flag would
/// silently do nothing. One line on stderr, exit 2.
pub fn refuse_magazine_off_it(magazine: usize, branch: Branch) {
    if magazine > 0 && branch.policy().item_mode != ItemMode::Transactional {
        let name = BRANCHES.iter().find(|b| b.1 == branch).map_or("this", |b| b.0);
        eprintln!("--magazine does not apply: magazines need an it branch, not {name}");
        std::process::exit(2);
    }
}
