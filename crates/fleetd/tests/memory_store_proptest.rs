//! Model test of the in-memory checkpoint store (`fleetd::MemoryStore`)
//! against a `BTreeMap<usize, Vec<u8>>`: random sequences of put,
//! put-by-move, take, remove, get and a listing of every stored length,
//! over one shard's layout and over sparse ids in a store from
//! `MemoryStore::new()`, read back exactly what the map holds. Frames
//! are short and often empty: a 0-byte frame (a write torn at byte 0) is
//! present, never absent.

use fleetd::{CheckpointStore, MemoryStore};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// An operation: its kind (mod 6), which home it targets (an index the
/// caller maps into the store's layout), and the frame a put writes.
type Op = (u8, usize, Vec<u8>);

fn ops() -> impl Strategy<Value = Vec<Op>> {
    let frame = prop::collection::vec(0u8..=255, 0..6);
    prop::collection::vec((0u8..6, 0usize..24, frame), 1..160)
}

/// Runs `ops` against `store` and the model, comparing every read and,
/// after every operation, the target's stored length.
fn check_against_model(mut store: MemoryStore, ops: &[Op], home_of: impl Fn(usize) -> usize) {
    let mut model: BTreeMap<usize, Vec<u8>> = BTreeMap::new();
    let listing = |m: &BTreeMap<usize, Vec<u8>>| -> Vec<(usize, usize)> {
        m.iter().map(|(&home, f)| (home, f.len())).collect()
    };
    // Every home an op can target, in order: the store holds frames for
    // no others.
    let homes: BTreeSet<usize> = ops.iter().map(|&(_, k, _)| home_of(k)).collect();
    let stored = |store: &MemoryStore| -> Vec<(usize, usize)> {
        homes
            .iter()
            .filter_map(|&home| Some((home, store.stored_len(home)?)))
            .collect()
    };
    for (i, (kind, k, frame)) in ops.iter().enumerate() {
        let home = home_of(*k);
        let ctx = format!("op {i} (kind {}) on home {home}", kind % 6);
        match kind % 6 {
            0 => {
                store.put(home, i as u64, frame).unwrap();
                model.insert(home, frame.clone());
            }
            1 => {
                let mut buf = frame.clone();
                store.put_owned(home, i as u64, &mut buf).unwrap();
                assert!(buf.is_empty(), "{ctx}: put_owned must take the buffer");
                model.insert(home, frame.clone());
            }
            2 => assert_eq!(store.take(home).unwrap(), model.remove(&home), "{ctx}"),
            3 => {
                store.remove(home);
                model.remove(&home);
            }
            4 => assert_eq!(store.get(home).unwrap(), model.get(&home).cloned(), "{ctx}"),
            _ => assert_eq!(stored(&store), listing(&model), "{ctx}"),
        }
        assert_eq!(
            store.stored_len(home),
            model.get(&home).map(Vec::len),
            "{ctx}"
        );
    }
    assert_eq!(stored(&store), listing(&model));
}

proptest! {
    #[test]
    fn shard_store_matches_the_model(shards in 1usize..9, pick in 0usize..8, ops in ops()) {
        let shard = pick % shards;
        check_against_model(MemoryStore::for_shard(shard, shards), &ops, |k| shard + k * shards);
    }

    #[test]
    fn sparse_ids_match_the_model(
        pool in prop::collection::vec(0usize..20_000, 1..12),
        ops in ops(),
    ) {
        check_against_model(MemoryStore::new(), &ops, |k| pool[k % pool.len()]);
    }
}
