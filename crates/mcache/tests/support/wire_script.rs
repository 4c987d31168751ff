//! The deterministic ASCII wire script and its reader, shared by
//! `wire_netpath.rs` and the `mcache::net` unit tests (which include
//! this file by path to run the script over each poller).

use std::io::Read;

/// Reads until the stream's last line is the `VERSION` sync point.
pub fn read_until_version(s: &mut impl Read) -> Vec<u8> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        if buf.ends_with(b"\r\n") {
            let last_line_start = buf[..buf.len() - 2]
                .windows(2)
                .rposition(|w| w == b"\r\n")
                .map_or(0, |i| i + 2);
            if buf[last_line_start..].starts_with(b"VERSION") {
                return buf;
            }
        }
        let n = s.read(&mut chunk).expect("read response stream");
        assert!(n > 0, "connection closed before the version sync");
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// A deterministic ASCII script touching every command family, ending
/// with `version` as the sync point.
pub fn wire_script() -> Vec<u8> {
    let mut script = Vec::new();
    for i in 0..40 {
        let value = format!("payload-{i:04}-{}", "x".repeat(i * 7 % 90));
        script.extend_from_slice(
            format!("set key{} {} 0 {}\r\n", i % 13, i % 3, value.len()).as_bytes(),
        );
        script.extend_from_slice(value.as_bytes());
        script.extend_from_slice(b"\r\n");
        script.extend_from_slice(format!("get key{} key{}\r\n", i % 13, (i + 5) % 13).as_bytes());
        if i % 7 == 0 {
            script.extend_from_slice(format!("delete key{}\r\n", (i + 1) % 13).as_bytes());
        }
        if i % 11 == 0 {
            script.extend_from_slice(b"set ctr 0 0 2\r\n10\r\nincr ctr 5\r\n");
        }
    }
    script.extend_from_slice(b"version\r\n");
    script
}
