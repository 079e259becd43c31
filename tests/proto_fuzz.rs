//! Never-panic property tests over the framed-protocol decoder.
//!
//! A resident serve or fleet front reads frames from anything that
//! can reach its socket; `read_frame` must reject malformed input —
//! truncated headers, bad magic, oversized lengths, corrupt CRCs,
//! unknown kinds — with an error, never a panic or an unbounded
//! allocation. Payload corruption specifically must always be caught
//! by the CRC; header bytes outside the checksum may decode to a
//! different valid frame, but still must never panic.

use cr_serve::proto::{read_frame, write_frame, Frame, FrameKind, HEADER_LEN, MAGIC, MAX_PAYLOAD};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        // Errors are fine (and expected); panics are not.
        let _ = read_frame(&mut bytes.as_slice());
    }

    #[test]
    fn near_valid_headers_never_panic(
        version in 0u16..5,
        kind in 0u8..32,
        len in prop_oneof![
            0u32..64,
            Just(MAX_PAYLOAD),
            Just(MAX_PAYLOAD + 1),
            Just(u32::MAX),
        ],
        crc in any::<u32>(),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        keep in 0usize..100,
    ) {
        // Hand-assemble a header that is plausible everywhere the
        // decoder branches: real magic, near-real version, a kind code
        // around the assigned range, and a length field that may be
        // truncated, oversized (must not allocate 4 GiB), or honest.
        let mut bytes = Vec::with_capacity(HEADER_LEN + payload.len());
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&version.to_le_bytes());
        bytes.push(kind);
        bytes.push(0);
        bytes.extend_from_slice(&u64::from(crc).to_le_bytes());
        bytes.extend_from_slice(&len.to_le_bytes());
        bytes.extend_from_slice(&crc.to_le_bytes());
        bytes.extend_from_slice(&payload);
        bytes.truncate(keep.min(bytes.len()));
        let _ = read_frame(&mut bytes.as_slice());
    }

    #[test]
    fn every_kind_roundtrips_with_arbitrary_payload(
        code in 1u8..=13,
        request_id in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let kind = FrameKind::from_code(code).expect("codes 1..=13 are assigned");
        let frame = Frame { kind, request_id, payload };
        let mut wire = Vec::new();
        write_frame(&mut wire, &frame).expect("vec write");
        let back = read_frame(&mut wire.as_slice()).expect("own output decodes");
        prop_assert_eq!(back, frame);
    }

    #[test]
    fn payload_corruption_is_always_detected(
        code in 1u8..=13,
        payload in proptest::collection::vec(any::<u8>(), 1..128),
        pos_seed in any::<usize>(),
        flip in 1u8..=255,
    ) {
        let kind = FrameKind::from_code(code).expect("codes 1..=13 are assigned");
        let frame = Frame { kind, request_id: 9, payload };
        let mut wire = frame.encode();
        let pos = HEADER_LEN + pos_seed % (wire.len() - HEADER_LEN);
        wire[pos] ^= flip;
        prop_assert!(
            read_frame(&mut wire.as_slice()).is_err(),
            "a flipped payload byte must fail the CRC"
        );
    }

    #[test]
    fn header_corruption_never_panics(
        code in 1u8..=13,
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        pos_seed in any::<usize>(),
        flip in 1u8..=255,
    ) {
        let kind = FrameKind::from_code(code).expect("codes 1..=13 are assigned");
        let frame = Frame { kind, request_id: 1, payload };
        let mut wire = frame.encode();
        let pos = pos_seed % HEADER_LEN;
        wire[pos] ^= flip;
        // Header bytes are outside the CRC: the decode may fail or may
        // yield a frame with a different kind/id — but never panic.
        let _ = read_frame(&mut wire.as_slice());
    }
}
