//! The three parsers that read bytes from outside the program — the edge
//! list, the checkpoint, `trace::json` — return an error on anything they
//! do not understand: arbitrary bytes, and well-formed input damaged in
//! a few places, never panic.

use mggcn_core::checkpoint::Checkpoint;
use mggcn_dense::Dense;
use mggcn_graph::io::parse_edge_list;
use mggcn_trace::json;
use proptest::collection::vec;
use proptest::prelude::*;

/// `bytes` with each `(position, value)` written over it (positions wrap).
fn damaged(mut bytes: Vec<u8>, edits: &[(usize, u8)]) -> Vec<u8> {
    for &(at, value) in edits {
        let len = bytes.len();
        bytes[at % len] = value;
    }
    bytes
}

/// FNV-1a as the checkpoint format defines its trailing checksum — kept
/// apart from the crate's so the format, not the helper, is what is held.
fn fnv1a(bytes: &[u8]) -> [u8; 8] {
    let fold = |h: u64, &b: &u8| (h ^ b as u64).wrapping_mul(0x100000001b3);
    bytes.iter().fold(0xcbf29ce484222325u64, fold).to_le_bytes()
}

fn small_checkpoint() -> Checkpoint {
    let layer = |rows, cols| Dense::from_fn(rows, cols, |r, c| (r * cols + c) as f32 - 2.5);
    let mats = || vec![layer(3, 2), layer(2, 4)];
    Checkpoint { epoch: 7, weights: mats(), adam_m: mats(), adam_v: mats() }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn edge_list_parser_never_panics(
        bytes in vec(any::<u8>(), 0..400),
        edits in vec((any::<usize>(), any::<u8>()), 0..6),
    ) {
        let _ = parse_edge_list(&String::from_utf8_lossy(&bytes), None);
        let valid = "# café ☕\n0 1\n1 2 0.5\n% x\n2 0 1e-3\n3 3\n".repeat(3).into_bytes();
        match parse_edge_list(&String::from_utf8_lossy(&damaged(valid, &edits)), Some(64)) {
            Ok(adj) => prop_assert!(adj.values().iter().all(|w| w.is_finite())),
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
    }

    #[test]
    fn checkpoint_parser_never_panics(
        bytes in vec(any::<u8>(), 0..400),
        edits in vec((any::<usize>(), any::<u8>()), 1..6),
    ) {
        prop_assert!(Checkpoint::from_bytes(&bytes).is_err(), "noise has no valid checksum");
        // Damage a real file, then re-seal it: what the checksum would have
        // caught now reaches the layout parser.
        let mut file = damaged(small_checkpoint().to_bytes(), &edits);
        let body = file.len() - 8;
        let sum = fnv1a(&file[..body]);
        file[body..].copy_from_slice(&sum);
        match Checkpoint::from_bytes(&file) {
            Ok(ck) => prop_assert_eq!(ck.to_bytes(), file, "an accepted file is canonical"),
            Err(e) => prop_assert_eq!(e.kind(), std::io::ErrorKind::InvalidData),
        }
    }

    #[test]
    fn json_parser_never_panics(
        bytes in vec(any::<u8>(), 0..400),
        edits in vec((any::<usize>(), any::<u8>()), 0..6),
    ) {
        let _ = json::parse(&String::from_utf8_lossy(&bytes));
        let valid = r#"{"a":[1,-2.5e3,true,null,"x\né"],"b":{"c":"\"","d":[]},"e":0.1}"#;
        prop_assert!(json::parse(valid).is_ok());
        let _ = json::parse(&String::from_utf8_lossy(&damaged(valid.into(), &edits)));
    }
}
