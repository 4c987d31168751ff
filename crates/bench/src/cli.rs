//! Flag-value parsing shared by the harness binaries (`mcached`,
//! `mcslap`), so every flag fails the same way.

use mcache::{Branch, Stage};

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

/// [`value`]'s parser for `--branch`.
pub fn parse_branch(name: &str) -> Option<Branch> {
    Some(match name {
        "baseline" => Branch::Baseline,
        "semaphore" => Branch::Semaphore,
        "ip" => Branch::Ip(Stage::Plain),
        "it" => Branch::It(Stage::Plain),
        "ip-max" => Branch::Ip(Stage::Max),
        "it-max" => Branch::It(Stage::Max),
        "ip-lib" => Branch::Ip(Stage::Lib),
        "it-lib" => Branch::It(Stage::Lib),
        "ip-oncommit" => Branch::Ip(Stage::OnCommit),
        "it-oncommit" => Branch::It(Stage::OnCommit),
        "ip-nolock" => Branch::IpNoLock,
        "it-nolock" => Branch::ItNoLock,
        _ => return None,
    })
}
