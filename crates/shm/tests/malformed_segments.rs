//! A segment file is input from outside the process: `open_file` must
//! refuse a damaged one with `ErrorKind::InvalidData` — never accept it
//! (the first operation would then follow a wild pointer), never panic.
//!
//! One table per shm type. Every row is a file made by `create_file`,
//! closed, and then damaged by overwriting header words or truncating.

use std::fs::OpenOptions;
use std::io::{ErrorKind, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use bq_core::byte_record_size;
use bq_shm::{ShmByteRing, ShmQueue, ShmSegment};

/// Byte offset of `SegHdr::total_len`.
const SEG_TOTAL_LEN: u64 = 16;
/// Offsets into the payload: every ring header starts `magic, capacity`,
/// and the byte ring's `max_msg` follows.
const MAGIC: u64 = 0;
const CAPACITY: u64 = 8;
const MAX_MSG: u64 = 16;

enum Damage {
    /// Overwrite the `u64` at this payload offset.
    Payload(u64, u64),
    /// Cut the file to `payload offset + n` bytes.
    Truncate(u64),
    /// The same cut, with the segment header's recorded length patched to
    /// match — so the segment check passes and the ring's own must catch it.
    TruncateConsistently(u64),
}

fn scratch_file(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("membq-malformed-{}-{name}.seg", std::process::id()))
}

fn write_word(path: &Path, at: u64, word: u64) {
    let mut f = OpenOptions::new().write(true).open(path).unwrap();
    f.seek(SeekFrom::Start(at)).unwrap();
    f.write_all(&word.to_ne_bytes()).unwrap();
}

fn damage(path: &Path, d: &Damage) {
    let payload = ShmSegment::payload_offset() as u64;
    match *d {
        Damage::Payload(at, word) => write_word(path, payload + at, word),
        Damage::Truncate(n) | Damage::TruncateConsistently(n) => {
            let f = OpenOptions::new().write(true).open(path).unwrap();
            f.set_len(payload + n).unwrap();
            if matches!(d, Damage::TruncateConsistently(_)) {
                write_word(path, SEG_TOTAL_LEN, payload + n);
            }
        }
    }
}

/// Create with `create`, apply each row's damage, and require `open` to
/// answer `InvalidData`. An undamaged file must open, so a refusal below
/// is the damage's doing.
fn check_table<Q>(
    name: &str,
    create: impl Fn(&Path) -> std::io::Result<Q>,
    open: impl Fn(&Path) -> std::io::Result<Q>,
    rows: &[(&str, Damage)],
) {
    let path = scratch_file(name);
    drop(create(&path).unwrap());
    assert!(open(&path).is_ok(), "{name}: an undamaged file opens");
    for (what, d) in rows {
        drop(create(&path).unwrap());
        damage(&path, d);
        match open(&path) {
            Ok(_) => panic!("{name}: {what}: accepted"),
            Err(e) => assert_eq!(e.kind(), ErrorKind::InvalidData, "{name}: {what}: {e}"),
        }
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn shm_queue_refuses_malformed_segment_files() {
    const C: usize = 1024;
    // seq words + payloads of a `RelocRing<u64>` of capacity C, a lower
    // bound on its layout: half of it cannot hold the ring.
    const HALF: u64 = (C * 16 / 2) as u64;
    check_table(
        "queue",
        |p| ShmQueue::<u64>::create_file(p, C),
        ShmQueue::<u64>::open_file,
        &[
            ("capacity 1 << 40", Damage::Payload(CAPACITY, 1 << 40)),
            ("capacity u64::MAX", Damage::Payload(CAPACITY, u64::MAX)),
            ("capacity 0", Damage::Payload(CAPACITY, 0)),
            ("capacity 1", Damage::Payload(CAPACITY, 1)),
            ("magic flipped", Damage::Payload(MAGIC, !0)),
            ("truncated to half its payload", Damage::Truncate(HALF)),
            (
                "truncated, segment header agreeing",
                Damage::TruncateConsistently(HALF),
            ),
            (
                "truncated into the ring header",
                Damage::TruncateConsistently(64),
            ),
        ],
    );
}

#[test]
fn shm_byte_ring_refuses_malformed_segment_files() {
    const CAP: usize = 16 * 1024;
    const MSG: usize = 1024;
    // The smallest `max_msg` whose two records no longer fit `CAP`.
    let too_long = (MSG..)
        .find(|&m| 2 * byte_record_size(m) > CAP)
        .expect("some length is too long") as u64;
    check_table(
        "bytering",
        |p| ShmByteRing::create_file(p, CAP, MSG),
        ShmByteRing::open_file,
        &[
            ("capacity 1 << 40", Damage::Payload(CAPACITY, 1 << 40)),
            ("capacity 0", Damage::Payload(CAPACITY, 0)),
            (
                "capacity not a multiple of 8",
                Damage::Payload(CAPACITY, CAP as u64 - 4),
            ),
            (
                "max_msg: two records exceed the capacity",
                Damage::Payload(MAX_MSG, too_long),
            ),
            (
                "max_msg beyond the 32-bit record header",
                Damage::Payload(MAX_MSG, 1 << 32),
            ),
            ("max_msg 0", Damage::Payload(MAX_MSG, 0)),
            ("magic flipped", Damage::Payload(MAGIC, !0)),
            (
                "truncated to half its payload",
                Damage::Truncate(CAP as u64 / 2),
            ),
            (
                "truncated, segment header agreeing",
                Damage::TruncateConsistently(CAP as u64 / 2),
            ),
        ],
    );
}
