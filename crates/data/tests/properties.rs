//! Property-based tests of the dataset substrate.

use std::collections::BTreeSet;

use logirec_data::interactions::temporal_split;
use logirec_data::{InteractionSet, NegativeSampler};
use logirec_linalg::SplitMix64;
use proptest::prelude::*;

/// Random event list over a small user/item universe.
fn events() -> impl Strategy<Value = Vec<(usize, usize, u64)>> {
    prop::collection::vec((0usize..8, 0usize..20, 0u64..1000), 1..200)
}

proptest! {
    #[test]
    fn split_preserves_every_distinct_interaction(evs in events()) {
        let (train, valid, test) = temporal_split(8, 20, &evs);
        // Every event lands in exactly one split (duplicates collapse).
        let mut distinct: Vec<(usize, usize)> = evs.iter().map(|&(u, v, _)| (u, v)).collect();
        distinct.sort_unstable();
        distinct.dedup();
        for &(u, v) in &distinct {
            let hits = [train.contains(u, v), valid.contains(u, v), test.contains(u, v)]
                .iter()
                .filter(|&&b| b)
                .count();
            // A user–item pair can recur at different times and land in
            // several splits; it must land in at least one.
            prop_assert!(hits >= 1, "({u},{v}) lost by the split");
        }
        prop_assert!(train.len() + valid.len() + test.len() >= distinct.len());
    }

    #[test]
    fn split_ratios_are_roughly_60_20_20(n in 5usize..60) {
        // One user, n distinct items in time order.
        let evs: Vec<(usize, usize, u64)> = (0..n).map(|i| (0, i, i as u64)).collect();
        let (train, valid, test) = temporal_split(1, n, &evs);
        let c1 = (n as f64 * 0.6).round() as usize;
        let c2 = (n as f64 * 0.8).round() as usize;
        prop_assert_eq!(train.len(), c1);
        prop_assert_eq!(valid.len(), c2 - c1);
        prop_assert_eq!(test.len(), n - c2);
        // Temporal order: max train item < min test item (ids are times).
        if !test.items_of(0).is_empty() && !train.items_of(0).is_empty() {
            prop_assert!(train.items_of(0).last() < test.items_of(0).first());
        }
    }

    #[test]
    fn interaction_set_indexes_agree(pairs in prop::collection::vec((0usize..6, 0usize..10), 0..80)) {
        let s = InteractionSet::from_pairs(6, 10, &pairs);
        // The user-side and item-side rows are transposes of each other.
        for u in 0..6 {
            for &v in s.items_of(u) {
                prop_assert!(s.users_of(v).contains(&u));
                prop_assert!(s.contains(u, v));
            }
        }
        for v in 0..10 {
            for &u in s.users_of(v) {
                prop_assert!(s.items_of(u).contains(&v));
            }
        }
        let total: usize = (0..6).map(|u| s.items_of(u).len()).sum();
        prop_assert_eq!(total, s.len());
        prop_assert_eq!(s.iter_pairs().count(), s.len());
    }

    /// The flat set against per-node `BTreeSet`s. Pairs fall on users 0..5
    /// and items 0..9 of a 7 × 12 set (so rows 5–6 and columns 9–11 stay
    /// empty) and repeat often; then users and items are pushed in a
    /// random interleaving (`0` pushes a user, `1` an item).
    #[test]
    fn flat_set_matches_a_per_node_reference(
        pairs in prop::collection::vec((0usize..5, 0usize..9), 0..90),
        pushes in prop::collection::vec(0usize..2, 0..8),
    ) {
        let mut s = InteractionSet::from_pairs(7, 12, &pairs);
        let mut by_user = vec![BTreeSet::new(); 7];
        let mut by_item = vec![BTreeSet::new(); 12];
        for &(u, v) in &pairs {
            by_user[u].insert(v);
            by_item[v].insert(u);
        }
        for &push in &pushes {
            if push == 0 {
                s.push_user();
                by_user.push(BTreeSet::new());
            } else {
                s.push_item();
                by_item.push(BTreeSet::new());
            }
        }
        prop_assert_eq!((s.n_users(), s.n_items()), (by_user.len(), by_item.len()));
        for (u, items) in by_user.iter().enumerate() {
            prop_assert_eq!(s.items_of(u), items.iter().copied().collect::<Vec<_>>().as_slice());
            for v in 0..by_item.len() {
                prop_assert_eq!(s.contains(u, v), items.contains(&v), "contains({}, {})", u, v);
            }
        }
        for (v, users) in by_item.iter().enumerate() {
            prop_assert_eq!(s.users_of(v), users.iter().copied().collect::<Vec<_>>().as_slice());
        }
        let reference: Vec<(usize, usize)> = by_user
            .iter()
            .enumerate()
            .flat_map(|(u, items)| items.iter().map(move |&v| (u, v)))
            .collect();
        prop_assert_eq!(s.len(), reference.len());
        prop_assert_eq!(s.is_empty(), reference.is_empty());
        prop_assert_eq!(s.iter_pairs().collect::<Vec<_>>(), reference);
    }

    #[test]
    fn negative_sampler_avoids_positives(
        pairs in prop::collection::vec((0usize..5, 0usize..30), 1..60),
        seed in 0u64..1000,
    ) {
        let s = InteractionSet::from_pairs(5, 30, &pairs);
        let mut sampler = NegativeSampler::new(&s, SplitMix64::new(seed));
        for u in 0..5 {
            // Skip saturated users (can't reject what doesn't exist).
            if s.items_of(u).len() >= 29 {
                continue;
            }
            for _ in 0..20 {
                let v = sampler.sample(u);
                prop_assert!(!s.contains(u, v), "sampled positive ({u},{v})");
            }
        }
    }
}
