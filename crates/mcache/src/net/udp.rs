//! The UDP transport: memcached's connectionless front door for
//! GET-heavy traffic.
//!
//! Every datagram carries memcached's 8-byte UDP frame header:
//!
//! ```text
//! 0      2      4      6      8
//! +------+------+------+------+
//! | rid  | seq  | total| rsvd |   (big-endian u16 each)
//! +------+------+------+------+
//! ```
//!
//! - **Requests** must fit one datagram (`seq == 0 && total == 1`);
//!   multi-datagram requests are dropped and counted as frame errors,
//!   exactly as memcached does.
//! - **Responses** echo the request id and may span several datagrams:
//!   each carries at most [`UDP_PAYLOAD_MAX`] payload bytes, `seq`
//!   counts up from 0, `total` is the datagram count. The client
//!   reassembles by `(rid, seq)` — datagrams may arrive out of order.
//! - There is no connection, so `quit` and close-marking protocol
//!   errors simply end that datagram's run; a response too large for
//!   65535 datagrams is dropped (the client's retry will shrink it or
//!   move to TCP, per the protocol spec's "get over UDP is advisory").
//!
//! One nonblocking socket is shared by every worker (each registers its
//! own clone in its poller and drains until `WouldBlock`), so a
//! datagram burst is served by whichever workers wake first —
//! memcached's UDP mode does the same across its worker threads.

use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::Ordering;

use crate::cache::McCache;

use super::conn::run_frames;
use super::Shared;

/// The 8-byte memcached UDP frame header.
pub const UDP_HEADER: usize = 8;

/// Maximum total datagram size we emit — memcached's canonical 1400
/// bytes, chosen to dodge ethernet-MTU fragmentation.
pub const UDP_DATAGRAM_MAX: usize = 1400;

/// Response payload bytes per datagram.
pub const UDP_PAYLOAD_MAX: usize = UDP_DATAGRAM_MAX - UDP_HEADER;

/// Encodes the frame header.
pub fn encode_header(rid: u16, seq: u16, total: u16) -> [u8; UDP_HEADER] {
    let mut h = [0u8; UDP_HEADER];
    h[..2].copy_from_slice(&rid.to_be_bytes());
    h[2..4].copy_from_slice(&seq.to_be_bytes());
    h[4..6].copy_from_slice(&total.to_be_bytes());
    h
}

/// Decodes a frame header; `None` if the datagram is too short.
pub fn decode_header(datagram: &[u8]) -> Option<(u16, u16, u16)> {
    if datagram.len() < UDP_HEADER {
        return None;
    }
    Some((
        u16::from_be_bytes([datagram[0], datagram[1]]),
        u16::from_be_bytes([datagram[2], datagram[3]]),
        u16::from_be_bytes([datagram[4], datagram[5]]),
    ))
}

/// Largest request datagram we accept. A single datagram cannot
/// exceed 64KB by UDP itself; the buffer matches.
pub(crate) const RECV_BUF: usize = 64 << 10;

/// Drains up to `max_datagrams` requests off the shared socket into
/// `scratch`, the worker's receive buffer (at least [`RECV_BUF`] bytes).
/// Returns whether the socket was drained to `WouldBlock`; when it was
/// not, the edge-triggered caller must pump again.
pub(crate) fn pump_udp(
    sock: &UdpSocket,
    cache: &McCache,
    w: usize,
    shared: &Shared,
    max_datagrams: usize,
    scratch: &mut [u8],
) -> bool {
    let buf = &mut scratch[..RECV_BUF];
    for _ in 0..max_datagrams {
        match sock.recv_from(buf) {
            Ok((n, peer)) => {
                shared.stats.bytes_read.fetch_add(n as u64, Ordering::Relaxed);
                shared.stats.udp_datagrams_rx.fetch_add(1, Ordering::Relaxed);
                serve_datagram(sock, cache, w, shared, &buf[..n], peer);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            // Per-peer ICMP errors (port unreachable from a gone
            // client) surface here; skip the datagram, keep serving.
            Err(_) => return true,
        }
    }
    false
}

/// Parses the frame header, runs the payload through the same coalesced
/// frame dispatcher the stream transports use, and fans the response
/// out as sequenced datagrams.
fn serve_datagram(
    sock: &UdpSocket,
    cache: &McCache,
    w: usize,
    shared: &Shared,
    datagram: &[u8],
    peer: SocketAddr,
) {
    let Some((rid, seq, total)) = decode_header(datagram) else {
        shared.stats.frame_errors.fetch_add(1, Ordering::Relaxed);
        return;
    };
    if seq != 0 || total != 1 {
        // Multi-datagram requests are not a thing in the protocol.
        shared.stats.frame_errors.fetch_add(1, Ordering::Relaxed);
        return;
    }
    let payload = &datagram[UDP_HEADER..];
    if payload.is_empty() {
        return;
    }
    let mut out = Vec::new();
    let outcome = run_frames(cache, w, shared, payload, &mut out);
    if outcome.consumed + outcome.swallow < payload.len() && out.is_empty() {
        // A truncated tail with nothing served: the datagram carried a
        // partial frame that can never complete (no stream to read).
        shared.stats.frame_errors.fetch_add(1, Ordering::Relaxed);
        return;
    }
    if outcome.consumed + outcome.swallow < payload.len() {
        // Served what was complete; the partial tail is an error.
        shared.stats.frame_errors.fetch_add(1, Ordering::Relaxed);
    }
    if out.is_empty() {
        return; // all-noreply runs answer nothing
    }
    let chunks: Vec<&[u8]> = out.chunks(UDP_PAYLOAD_MAX).collect();
    if chunks.len() > u16::MAX as usize {
        // Cannot be sequenced in 16 bits; drop, as memcached drops
        // responses that exceed the UDP reply window.
        shared.stats.frame_errors.fetch_add(1, Ordering::Relaxed);
        return;
    }
    let total_out = chunks.len() as u16;
    let mut wire = Vec::with_capacity(UDP_DATAGRAM_MAX);
    for (i, chunk) in chunks.iter().enumerate() {
        wire.clear();
        wire.extend_from_slice(&encode_header(rid, i as u16, total_out));
        wire.extend_from_slice(chunk);
        // Best-effort: UDP is lossy by contract, so a full socket
        // buffer drops the datagram rather than stalling the worker.
        if sock.send_to(&wire, peer).is_ok() {
            shared
                .stats
                .bytes_written
                .fetch_add(wire.len() as u64, Ordering::Relaxed);
            shared.stats.udp_datagrams_tx.fetch_add(1, Ordering::Relaxed);
        }
    }
}
