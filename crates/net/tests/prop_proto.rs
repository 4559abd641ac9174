//! Wire-protocol robustness: arbitrary requests round-trip through the
//! framing; arbitrary garbage never panics the decoder; partial frames are
//! detected as errors rather than misparsed.

use faucets_core::auth::SessionToken;
use faucets_core::directory::{ServerInfo, ServerStatus};
use faucets_core::ids::{ClusterId, JobId, UserId};
use faucets_net::fault::{FaultConfig, FaultPlan};
use faucets_net::proto::{
    read_frame, read_frame_with, write_frame, write_frame_with, ProtoError, Request, Response,
    MAX_FRAME,
};
use faucets_sim::check::{for_seeds, vec_of};
use rand::rngs::StdRng;
use rand::Rng;
use std::io::Cursor;
use std::time::Duration;

/// A hostile plan with no delays, so property runs stay fast.
fn hostile(seed: u64) -> FaultPlan {
    FaultPlan::new(
        seed,
        FaultConfig {
            drop: 0.25,
            truncate: 0.25,
            garble: 0.25,
            delay: 0.0,
            max_delay: Duration::ZERO,
            reject: 0.0,
        },
    )
}

/// A string of `len` characters drawn from `alphabet`.
fn string(rng: &mut StdRng, alphabet: &[u8], len: std::ops::Range<usize>) -> String {
    let chars = vec_of(rng, len, |rng| {
        alphabet[rng.random_range(0..alphabet.len())] as char
    });
    chars.into_iter().collect()
}

const LOWER: &[u8] = b"abcdefghijklmnopqrstuvwxyz";

fn request(rng: &mut StdRng) -> Request {
    match rng.random_range(0..6) {
        0 => {
            let printable: Vec<u8> = (b' '..=b'~').collect();
            Request::Login {
                user: string(rng, LOWER, 1..13),
                password: string(rng, &printable, 0..25),
            }
        }
        1 => Request::VerifyToken {
            token: SessionToken(string(rng, b"0123456789abcdef", 1..65)),
        },
        2 => Request::Heartbeat {
            cluster: ClusterId(rng.random_range(0u64..1000)),
            status: ServerStatus {
                free_pes: rng.random(),
                queue_len: 0,
                accepting: rng.random(),
                ..Default::default()
            },
        },
        3 => Request::UploadFile {
            token: SessionToken("t".into()),
            job: JobId(rng.random_range(0u64..100)),
            data: vec_of(rng, 0..512, |rng| rng.random()),
            name: string(rng, b"abcdefghijklmnopqrstuvwxyz./", 1..31),
        },
        4 => Request::RegisterJob {
            job: JobId(rng.random_range(0u64..50)),
            owner: UserId(rng.random_range(0u64..50)),
            cluster: ClusterId(rng.random_range(0u64..50)),
        },
        _ => {
            let id = rng.random_range(0u64..8);
            Request::RegisterCluster {
                info: ServerInfo {
                    cluster: ClusterId(id),
                    name: format!("cs{id}"),
                    total_pes: rng.random_range(1u32..4096),
                    mem_per_pe_mb: 1024,
                    cpu_type: "x86-64".into(),
                    flops_per_pe_sec: 1e9,
                    fd_addr: "127.0.0.1".into(),
                    fd_port: rng.random_range(1u16..65535),
                },
                apps: vec!["namd".into()],
            }
        }
    }
}

/// Every representable request survives encode → decode intact.
#[test]
fn requests_round_trip() {
    for_seeds(256, |rng| {
        let req = request(rng);
        let mut buf = Vec::new();
        write_frame(&mut buf, &req).unwrap();
        let back: Request = read_frame(&mut Cursor::new(&buf)).unwrap().unwrap();
        assert_eq!(back, req);
    });
}

/// Several frames in one stream decode in order.
#[test]
fn streams_of_frames() {
    for_seeds(256, |rng| {
        let reqs = vec_of(rng, 1..10, request);
        let mut buf = Vec::new();
        for r in &reqs {
            write_frame(&mut buf, r).unwrap();
        }
        let mut cur = Cursor::new(&buf);
        for r in &reqs {
            let back: Request = read_frame(&mut cur).unwrap().unwrap();
            assert_eq!(&back, r);
        }
        assert!(
            read_frame::<_, Request>(&mut cur).unwrap().is_none(),
            "clean EOF"
        );
    });
}

/// Arbitrary garbage (with a small sane length prefix) never panics —
/// it errors or, astronomically rarely, parses.
#[test]
fn garbage_never_panics() {
    for_seeds(256, |rng| {
        let payload: Vec<u8> = vec_of(rng, 0..256, |rng| rng.random());
        let mut buf = Vec::new();
        buf.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        buf.extend_from_slice(&payload);
        let _ = read_frame::<_, Request>(&mut Cursor::new(&buf));
        let _ = read_frame::<_, Response>(&mut Cursor::new(&buf));
    });
}

/// Truncations of a valid frame are clean EOF (empty) or an error —
/// never a wrong message.
#[test]
fn truncation_detected() {
    for_seeds(256, |rng| {
        let req = request(rng);
        let cut = rng.random_range(0usize..64);
        let mut buf = Vec::new();
        write_frame(&mut buf, &req).unwrap();
        let cut = cut.min(buf.len().saturating_sub(1));
        let truncated = &buf[..buf.len() - 1 - cut];
        match read_frame::<_, Request>(&mut Cursor::new(truncated)) {
            Ok(None) => {} // truncated inside the length prefix: clean EOF
            Ok(Some(got)) => panic!("truncated frame parsed as {got:?}"),
            Err(_) => {} // detected
        }
    });
}

/// A length prefix past [`MAX_FRAME`] is rejected before any payload
/// allocation, whatever follows it.
#[test]
fn oversized_prefix_rejected() {
    for_seeds(256, |rng| {
        let extra = rng.random_range(1u32..1_000_000);
        let tail: Vec<u8> = vec_of(rng, 0..64, |rng| rng.random());
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME + extra).to_be_bytes());
        buf.extend_from_slice(&tail);
        match read_frame::<_, Request>(&mut Cursor::new(&buf)) {
            Err(ProtoError::FrameTooLarge(n)) => assert_eq!(n, MAX_FRAME + extra),
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
    });
}

/// Frames sent through a hostile fault plan (25% each of drop,
/// truncate, garble) decode to the original, error cleanly, or vanish
/// as EOF — the decoder never panics, and a frame that survives
/// untouched framing-wise but garbled content-wise is *detected*
/// (JSON of a different Request never round-trips by accident here
/// because a single-byte XOR either breaks the JSON or changes a
/// string the equality check catches).
#[test]
fn faulty_wire_never_panics() {
    for_seeds(256, |rng| {
        let req = request(rng);
        let plan = hostile(rng.random());
        let mut buf = Vec::new();
        write_frame_with(&mut buf, &req, Some(&plan)).unwrap();
        // Ok(None): dropped in flight, or truncated inside the prefix.
        // Err: truncation/corruption detected.
        if let Ok(Some(got)) = read_frame::<_, Request>(&mut Cursor::new(&buf)) {
            // Delivered intact or garbled into... exactly itself is the
            // only way equality can hold; anything else must differ.
            if buf.len() == 4 + serde_json::to_vec(&req).unwrap().len() && plan.stats().garbled == 0
            {
                assert_eq!(got, req);
            }
        }
    });
}

/// Read-side corruption (garble injected at the receiver) also never
/// panics, across both message types.
#[test]
fn receive_side_faults_never_panic() {
    for_seeds(256, |rng| {
        let req = request(rng);
        let plan = FaultPlan::new(
            rng.random(),
            FaultConfig {
                drop: 0.0,
                truncate: 0.0,
                garble: 0.5,
                delay: 0.0,
                max_delay: Duration::ZERO,
                reject: 0.0,
            },
        );
        let mut buf = Vec::new();
        write_frame(&mut buf, &req).unwrap();
        let _ = read_frame_with::<_, Request>(&mut Cursor::new(&buf), Some(&plan));
        let _ = read_frame_with::<_, Response>(&mut Cursor::new(&buf), Some(&plan));
    });
}

/// The fault schedule is pure in (seed, bytes): two plans with the same
/// seed mangle the same stream into byte-identical wire images.
#[test]
fn fault_injection_is_deterministic() {
    for_seeds(256, |rng| {
        let reqs = vec_of(rng, 1..8, request);
        let seed: u64 = rng.random();
        let (a, b) = (hostile(seed), hostile(seed));
        let (mut wire_a, mut wire_b) = (Vec::new(), Vec::new());
        for r in &reqs {
            write_frame_with(&mut wire_a, r, Some(&a)).unwrap();
            write_frame_with(&mut wire_b, r, Some(&b)).unwrap();
        }
        assert_eq!(wire_a, wire_b);
        assert_eq!(a.stats(), b.stats());
    });
}
