//! Model-based property test of [`Relation`]: seeded random operation
//! sequences run against the flat row store and against the obvious model
//! — a `Vec` of rows in first-insertion order plus a `BTreeSet` of them —
//! which is what `Relation` was before it stored rows flat.

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use mpc_storage::{Relation, StorageError, Tuple, Value};

#[derive(Default)]
struct Model {
    rows: Vec<Vec<Value>>,
    seen: BTreeSet<Vec<Value>>,
}

impl Model {
    fn insert(&mut self, row: &[Value]) -> bool {
        let fresh = self.seen.insert(row.to_vec());
        if fresh {
            self.rows.push(row.to_vec());
        }
        fresh
    }
}

fn random_row(rng: &mut StdRng, arity: usize, domain: u64) -> Vec<Value> {
    (0..arity).map(|_| rng.gen_range(0..domain)).collect()
}

fn assert_matches_model(rel: &Relation, model: &Model, rng: &mut StdRng, domain: u64) {
    assert_eq!(rel.len(), model.rows.len());
    assert_eq!(rel.is_empty(), model.rows.is_empty());
    assert_eq!(rel.iter().len(), model.rows.len());
    assert!(rel.iter().eq(model.rows.iter().map(Vec::as_slice)), "first-insertion order");
    for (i, row) in model.rows.iter().enumerate().take(50) {
        assert_eq!(rel.row(i), row.as_slice());
    }
    for _ in 0..50 {
        let probe = random_row(rng, rel.arity(), domain + 2);
        assert_eq!(rel.contains(&probe), model.seen.contains(&probe), "{probe:?}");
        assert_eq!(rel.contains(&Tuple(probe.clone())), model.seen.contains(&probe));
    }
    let shorter = vec![0; rel.arity().saturating_sub(1)];
    let longer = vec![0; rel.arity() + 1];
    assert!(rel.arity() == 0 || !rel.contains(&shorter), "a row of another arity is no member");
    assert!(!rel.contains(&longer));
}

/// One seeded run: `ops` random operations on an `arity`-wide relation
/// over `0..domain`, checked against the model as it goes.
fn run_case(seed: u64, arity: usize, domain: u64, ops: usize) -> (Relation, Model) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rel = Relation::empty("R", arity);
    let mut model = Model::default();
    for op in 0..ops {
        match rng.gen_range(0..20u32) {
            0 => {
                // A row of the wrong arity is rejected and changes nothing.
                let wrong = if arity > 0 && rng.gen_bool(0.5) { arity - 1 } else { arity + 1 };
                let err = rel.insert_row(&random_row(&mut rng, wrong, domain)).unwrap_err();
                assert_eq!(
                    err,
                    StorageError::TupleArity {
                        relation: "R".into(),
                        expected: arity,
                        actual: wrong
                    }
                );
                assert!(rel.insert(Tuple(vec![0; wrong])).is_err());
            }
            1 => {
                // A row-major batch, duplicates inside it included.
                let rows: Vec<Vec<Value>> = (0..rng.gen_range(0..40usize))
                    .map(|_| random_row(&mut rng, arity, domain))
                    .collect();
                let fresh = rows.iter().filter(|r| model.insert(r)).count();
                assert_eq!(rel.insert_rows(rows.len(), &rows.concat()).unwrap(), fresh);
            }
            2 => {
                // Malformed batches — rows of another width, a slice one
                // value short — are rejected whole and change nothing.
                let wide = vec![1; 3 * (arity + 1)];
                let wrong_width = StorageError::TupleArity {
                    relation: "R".into(),
                    expected: arity,
                    actual: arity + 1,
                };
                assert_eq!(rel.insert_rows(3, &wide), Err(wrong_width));
                if arity > 0 {
                    let short = &wide[..3 * arity - 1];
                    assert!(matches!(
                        rel.insert_rows(3, short),
                        Err(StorageError::TupleArity { .. })
                    ));
                }
            }
            3 => {
                let mut other = Relation::empty("Other", arity);
                for _ in 0..rng.gen_range(0..30usize) {
                    other.insert_row(&random_row(&mut rng, arity, domain)).unwrap();
                }
                let fresh = other.iter().filter(|r| model.insert(r)).count();
                assert_eq!(rel.extend_from(&other).unwrap(), fresh);
                assert_eq!(rel.extend_from(&Relation::empty("Wider", arity + 1)), Ok(0));
            }
            4 => {
                let row = random_row(&mut rng, arity, domain);
                assert_eq!(rel.insert(Tuple(row.clone())).unwrap(), model.insert(&row));
            }
            _ => {
                let row = random_row(&mut rng, arity, domain);
                assert_eq!(rel.insert_row(&row).unwrap(), model.insert(&row));
            }
        }
        if op % 97 == 0 {
            assert_matches_model(&rel, &model, &mut rng, domain);
        }
    }
    assert_matches_model(&rel, &model, &mut rng, domain);
    (rel, model)
}

#[test]
fn random_operation_sequences_match_the_model() {
    // Arity 0 holds at most the empty row; arity 1 over a tiny domain is
    // almost all duplicates; the wide domains cross a dozen table growths
    // (16 slots → 32 768).
    for (arity, domain, ops) in [
        (0, 1, 200),
        (1, 7, 400),
        (1, 1 << 40, 3_000),
        (2, 12, 2_000),
        (2, 90, 12_000),
        (3, 1 << 20, 6_000),
    ] {
        for seed in 0..4 {
            let (rel, model) = run_case(seed * 31 + arity as u64, arity, domain, ops);
            assert_eq!(rel.size_in_bytes(), (model.rows.len() * arity * 8) as u64);
            assert_eq!(rel.sorted_tuples().len(), model.seen.len());
            assert!(rel
                .sorted_tuples()
                .iter()
                .map(Tuple::values)
                .eq(model.seen.iter().map(Vec::as_slice)));
        }
    }
}

#[test]
fn equality_is_ordered_and_same_tuples_is_symmetric_set_equality() {
    let mut rng = StdRng::seed_from_u64(5);
    let (rel, model) = run_case(11, 2, 60, 4_000);
    assert!(rel.len() > 1_000, "crossed several growths: {}", rel.len());

    // Same rows, same order: equal — however the table got to its size.
    let mut replay = Relation::empty("R", 2);
    replay.reserve(model.rows.len());
    for row in &model.rows {
        replay.insert_row(row).unwrap();
    }
    assert_eq!(rel, replay);
    assert_eq!(rel, rel.clone());
    assert_ne!(rel, rel.with_name("S"), "the name is part of equality");
    assert!(rel.same_tuples(&rel.with_name("S")));

    // Same rows, another order: the same set, not equal.
    let mut shuffled = model.rows.clone();
    shuffled.shuffle(&mut rng);
    let other = Relation::from_tuples("R", 2, &shuffled).unwrap();
    assert_ne!(rel, other);
    assert!(rel.same_tuples(&other) && other.same_tuples(&rel));

    // One row fewer, or one row swapped for a stranger: different sets,
    // whichever side asks.
    let fewer = Relation::from_tuples("R", 2, &shuffled[1..]).unwrap();
    assert!(!rel.same_tuples(&fewer) && !fewer.same_tuples(&rel));
    let mut swapped = fewer.clone();
    swapped.insert_row(&[u64::MAX, u64::MAX]).unwrap();
    assert_eq!(swapped.len(), rel.len());
    assert!(!rel.same_tuples(&swapped) && !swapped.same_tuples(&rel));

    // Another arity is another set, even when both are empty.
    assert!(!Relation::empty("A", 1).same_tuples(&Relation::empty("A", 2)));
    assert!(Relation::empty("A", 1).same_tuples(&Relation::empty("B", 1)));
}

/// Deferred deduplication: rows appended to the unsettled tail and
/// settled at random points end up exactly where eager insertion puts
/// them — same rows, same first-occurrence order, same count — whatever
/// the stream's duplicates and wherever the settles fall. Rows still in
/// the tail are invisible to every reader.
#[test]
fn appends_settled_at_random_points_equal_eager_insertion() {
    for (arity, domain, ops) in [(0, 1, 300), (1, 9, 2_000), (2, 40, 6_000), (3, 1 << 20, 3_000)] {
        for seed in 0..4u64 {
            let mut rng = StdRng::seed_from_u64(seed * 131 + arity as u64);
            let mut eager = Relation::empty("R", arity);
            let mut lazy = Relation::empty("R", arity);
            let mut model = Model::default();
            for _ in 0..ops {
                // Mostly single rows, sometimes a block of them.
                let rows: Vec<Vec<Value>> =
                    (0..if rng.gen_bool(0.1) { rng.gen_range(0..30) } else { 1 })
                        .map(|_| random_row(&mut rng, arity, domain))
                        .collect();
                for row in &rows {
                    assert_eq!(eager.insert_row(row).unwrap(), model.insert(row));
                }
                let visible = lazy.len();
                match rows.as_slice() {
                    [row] => lazy.append_rows(1, row).unwrap(),
                    _ => lazy.append_rows(rows.len(), &rows.concat()).unwrap(),
                }
                assert_eq!(lazy.len(), visible, "an appended row is not counted before it settles");
                if rng.gen_bool(0.05) {
                    lazy.settle().unwrap();
                    assert!(lazy.is_settled());
                    assert_eq!(lazy, eager);
                }
            }
            lazy.settle().unwrap();
            assert_eq!(lazy, eager, "arity {arity}, seed {seed}");
            assert_matches_model(&lazy, &model, &mut rng, domain);
        }
    }
}

#[test]
fn zero_arity_appends_settle_to_exactly_one_row() {
    let mut unit = Relation::empty("Unit", 0);
    // A block header may announce 2³² empty rows in no bytes.
    unit.append_rows(u32::MAX as usize + 1, &[]).unwrap();
    unit.append_rows(1, &[]).unwrap();
    assert!(unit.is_empty() && !unit.is_settled());
    unit.settle().unwrap();
    assert_eq!(unit.len(), 1);
    unit.append_rows(7, &[]).unwrap();
    unit.settle().unwrap();
    assert_eq!(unit.len(), 1, "the empty row is already there");
    assert_eq!(unit, Relation::from_tuples("Unit", 0, [[0u64; 0]]).unwrap());
}

#[test]
fn an_arity_clash_on_append_is_an_error_and_appends_nothing() {
    let mut rel = Relation::empty("R", 2);
    rel.append_rows(2, &[1, 2, 3, 4]).unwrap();
    let before = rel.clone();
    let clash = |actual| StorageError::TupleArity { relation: "R".into(), expected: 2, actual };
    assert_eq!(rel.append_rows(1, &[1, 2, 3]), Err(clash(3)));
    assert_eq!(rel.append_rows(2, &[1, 2, 3, 4, 5, 6]), Err(clash(3)));
    assert_eq!(rel.append_rows(2, &[1, 2, 3]), Err(clash(1)), "a slice one value short");
    assert_eq!(rel.append_from(&Relation::from_tuples("W", 1, [[9u64]]).unwrap()), Err(clash(1)));
    assert_eq!(rel, before, "nothing was appended");
    rel.settle().unwrap();
    assert!(rel.iter().eq([&[1u64, 2][..], &[3, 4]]));
}
