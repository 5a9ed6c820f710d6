//! The receptive-field training step against the full passes it replaces.
//!
//! A training step ([`TrainStep`]) computes only the rows its batch reads:
//! each layer on the rows within reach of the batch, the exp map on the
//! batch rows, the exp-map VJP on the rows with a cotangent. Its finals on
//! the batch rows must equal [`LogiRec::propagate_graph`]'s, and its
//! parameter gradients on *every* row must equal
//! [`LogiRec::backward_rank_graph`]'s, bit for bit: the trainer's model
//! files are byte-identical to a full-pass trainer's only if they do. The
//! comparison is on `to_bits`, so the sign of zero counts (`Embedding`'s
//! `==` would take `−0.0` for `+0.0`).
//!
//! The graph has degree-zero rows on both sides, the batches repeat rows
//! and name degree-zero rows, and both tables are above the row-split
//! threshold of `parallel::for_each_row` (4,096 rows), so two threads
//! really split every pass.

use logirec_suite::core::losses::rank_loss_grad_sharded;
use logirec_suite::core::{Geometry, LogiRec, LogiRecConfig, PropGraph, TrainStep};
use logirec_suite::data::{Dataset, DatasetSpec, InteractionSet, Scale};
use logirec_suite::linalg::{Embedding, Scalar, SplitMix64};

const USERS: usize = 4_200;
const ITEMS: usize = 4_400;
/// Users and items at the end of each table that have no interaction.
const DEGREE_ZERO: usize = 40;

/// A catalog of `USERS` × `ITEMS` rows whose training graph is random: each
/// user but the last `DEGREE_ZERO` rates one to four of the items but the
/// last `DEGREE_ZERO` (some of those get no rating either).
fn catalog() -> Dataset {
    let spec = DatasetSpec {
        users: USERS,
        items: ITEMS,
        interactions: 9_000,
        ..DatasetSpec::ciao(Scale::Tiny)
    };
    let mut ds = spec.generate(5);
    assert_eq!((ds.n_users(), ds.n_items()), (USERS, ITEMS));
    let mut rng = SplitMix64::new(17);
    let pairs: Vec<(usize, usize)> = (0..USERS - DEGREE_ZERO)
        .flat_map(|u| {
            let n = 1 + rng.index(4);
            (0..n).map(|_| (u, rng.index(ITEMS - DEGREE_ZERO))).collect::<Vec<_>>()
        })
        .collect();
    ds.train = InteractionSet::from_pairs(USERS, ITEMS, &pairs);
    ds
}

/// `n` positives with `negatives` triplets each. Users come from a pool
/// of 60 (so rows repeat) that includes degree-zero users; items from the
/// whole table, with degree-zero ones mixed in; every tenth triplet has
/// its positive as its negative.
fn batch(rng: &mut SplitMix64, n: usize, negatives: usize) -> Vec<(usize, usize, usize)> {
    let pool: Vec<usize> = (0..55).map(|_| rng.index(USERS)).chain(USERS - 5..USERS).collect();
    let item = |rng: &mut SplitMix64| {
        if rng.index(8) == 0 {
            ITEMS - 1 - rng.index(DEGREE_ZERO)
        } else {
            rng.index(ITEMS)
        }
    };
    let mut out = Vec::with_capacity(n * negatives);
    for i in 0..n {
        let (u, vp) = (pool[rng.index(pool.len())], item(rng));
        for j in 0..negatives {
            let vq = if (i + j) % 10 == 0 { vp } else { item(rng) };
            out.push((u, vp, vq));
        }
    }
    out
}

fn assert_rows_bit_equal<S: Scalar>(
    what: &str,
    got: &Embedding<S>,
    want: &Embedding<S>,
    rows: impl IntoIterator<Item = usize>,
) {
    assert_eq!(got.dim(), want.dim(), "{what}: width");
    for r in rows {
        for (c, (x, y)) in got.row(r).iter().zip(want.row(r)).enumerate() {
            let (x, y) = (x.to_f64(), y.to_f64());
            assert!(x.to_bits() == y.to_bits(), "{what}: row {r} column {c}: {x:?} vs {y:?}");
        }
    }
}

/// Two steps on one [`TrainStep`], the second on new batches and new
/// parameters, so a row the first step computed and the second did not
/// would show as stale.
fn step_matches_full_passes<S: Scalar>(
    ds: &Dataset,
    pg: &PropGraph<S>,
    geometry: Geometry,
    layers: usize,
    threads: usize,
) {
    let case = format!("{geometry:?} L={layers} {} threads={threads}", std::any::type_name::<S>());
    let cfg = |seed| LogiRecConfig {
        dim: 5,
        layers,
        geometry,
        train_threads: threads,
        seed,
        ..LogiRecConfig::default()
    };
    let mut model = LogiRec::<S>::new(cfg(1), ds);
    let mut step = TrainStep::new(&model);
    let mut rng = SplitMix64::new(layers as u64);
    let alpha: Vec<f64> = (0..USERS).map(|_| rng.uniform(0.5, 1.5)).collect();
    for round in 0..2 {
        if round == 1 {
            let other = LogiRec::<S>::new(cfg(2), ds);
            model.users = other.users;
            model.items = other.items;
        }
        let triplets = batch(&mut rng, 90, 3);
        let alpha = (round == 1).then_some(&alpha[..]);
        let (margin, weight) = (0.2, 1.0 / 3.0);

        step.forward(&model, pg, &triplets);
        model.propagate_graph(pg);
        let st = model.state();
        let (fu, fv) = step.finals(&model);
        let what = format!("{case} round {round}");
        assert_rows_bit_equal(
            &format!("{what} user finals"),
            fu,
            &st.user_final,
            triplets.iter().map(|t| t.0),
        );
        let items = triplets.iter().flat_map(|t| [t.1, t.2]);
        assert_rows_bit_equal(&format!("{what} item finals"), fv, &st.item_final, items);

        let rank = step.rank_loss(&model, &triplets, margin, alpha, weight);
        let full = rank_loss_grad_sharded(&model, &triplets, margin, alpha, weight, threads);
        assert_eq!(rank.loss.to_bits(), full.loss.to_bits(), "{what}: loss");
        assert_eq!(rank.active, full.active, "{what}: active triplets");
        assert!(0 < full.active && full.active < triplets.len(), "{what}: every hinge on one side");

        let ambient = st.user_final.dim();
        let mut g_uf = Embedding::zeros(USERS, ambient);
        let mut g_vf = Embedding::zeros(ITEMS, ambient);
        full.users.scatter_add(&mut g_uf);
        full.items.scatter_add(&mut g_vf);
        let (want_u, want_v) = model.backward_rank_graph(&g_uf, &g_vf, pg);
        let (got_u, got_v) = step.backward(&model, pg, &rank);
        assert_rows_bit_equal(&format!("{what} user gradients"), got_u, &want_u, 0..USERS);
        assert_rows_bit_equal(&format!("{what} item gradients"), got_v, &want_v, 0..ITEMS);
        model.clear_state();
    }
}

fn step_matches_full_passes_at<S: Scalar>(ds: &Dataset) {
    let pg = PropGraph::<S>::build(&ds.train);
    for geometry in [Geometry::Hyperbolic, Geometry::Euclidean] {
        for layers in 0..=3 {
            for threads in [1, 2] {
                step_matches_full_passes(ds, &pg, geometry, layers, threads);
            }
        }
    }
}

#[test]
fn the_catalog_has_degree_zero_rows_on_both_sides() {
    let ds = catalog();
    assert!((0..USERS).any(|u| ds.train.items_of(u).is_empty()));
    assert!((0..ITEMS).any(|v| ds.train.users_of(v).is_empty()));
}

#[test]
fn step_matches_full_passes_at_f64() {
    step_matches_full_passes_at::<f64>(&catalog());
}

#[test]
fn step_matches_full_passes_at_f32() {
    step_matches_full_passes_at::<f32>(&catalog());
}
