//! Interaction storage and the temporal train/validation/test split.

use logirec_linalg::CowVec;
use logirec_taxonomy::{LogicalRelations, TagId, Taxonomy};

/// Which split an evaluation runs against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Split {
    /// First 60 % of each user's interactions by timestamp.
    Train,
    /// Next 20 %.
    Validation,
    /// Final 20 %.
    Test,
}

/// A set of user–item interactions indexed both ways as flat CSR
/// adjacency: per side an offsets array and one neighbour array, each row
/// ascending (the paper's `N_u` and `N_v`). This is the layout the
/// propagation walks — `logirec_core::PropGraph` adds only the `1/|N|`
/// normalizers. Each array is a copy-on-write [`CowVec`], so a clone costs
/// four reference counts and [`Self::push_user`] / [`Self::push_item`]
/// append one offset in place. Membership is a binary search within a row.
#[derive(Debug, Clone)]
pub struct InteractionSet {
    /// Items of user `u`: `user_items[user_off[u]..user_off[u + 1]]`.
    user_off: CowVec<usize>,
    user_items: CowVec<usize>,
    /// Users of item `v`: `item_users[item_off[v]..item_off[v + 1]]`.
    item_off: CowVec<usize>,
    item_users: CowVec<usize>,
}

impl InteractionSet {
    /// Builds from `(user, item)` pairs; duplicates are collapsed.
    pub fn from_pairs(n_users: usize, n_items: usize, pairs: &[(usize, usize)]) -> Self {
        let mut pairs = pairs.to_vec();
        pairs.sort_unstable();
        pairs.dedup();
        let mut user_off = vec![0; n_users + 1];
        let mut item_off = vec![0; n_items + 1];
        for &(u, v) in &pairs {
            user_off[u + 1] += 1;
            item_off[v + 1] += 1;
        }
        for off in [&mut user_off, &mut item_off] {
            let mut sum = 0;
            for o in off.iter_mut() {
                sum += *o;
                *o = sum;
            }
        }
        // A counting pass by item over the user-sorted pairs keeps each
        // item's users ascending.
        let mut item_users = vec![0; pairs.len()];
        let mut next = item_off.clone();
        for &(u, v) in &pairs {
            item_users[next[v]] = u;
            next[v] += 1;
        }
        let user_items: Vec<usize> = pairs.into_iter().map(|(_, v)| v).collect();
        Self {
            user_off: user_off.into(),
            user_items: user_items.into(),
            item_off: item_off.into(),
            item_users: item_users.into(),
        }
    }

    /// Number of users (rows).
    #[inline]
    pub fn n_users(&self) -> usize {
        self.user_off.len() - 1
    }

    /// Number of items (columns).
    #[inline]
    pub fn n_items(&self) -> usize {
        self.item_off.len() - 1
    }

    /// Total number of distinct interactions.
    pub fn len(&self) -> usize {
        self.user_items.len()
    }

    /// True when the set holds no interactions.
    pub fn is_empty(&self) -> bool {
        self.user_items.is_empty()
    }

    /// Sorted items of user `u` (the paper's `N_u`).
    #[inline]
    pub fn items_of(&self, u: usize) -> &[usize] {
        &self.user_items[self.user_off[u]..self.user_off[u + 1]]
    }

    /// Sorted users of item `v` (the paper's `N_v`).
    #[inline]
    pub fn users_of(&self, v: usize) -> &[usize] {
        &self.item_users[self.item_off[v]..self.item_off[v + 1]]
    }

    /// True when `(u, v)` is present.
    #[inline]
    pub fn contains(&self, u: usize, v: usize) -> bool {
        self.items_of(u).binary_search(&v).is_ok()
    }

    /// Appends a user with no interactions (id `n_users()` before the call).
    pub fn push_user(&mut self) {
        self.user_off.push(self.user_items.len());
    }

    /// Appends an item with no interactions (id `n_items()` before the call).
    pub fn push_item(&mut self) {
        self.item_off.push(self.item_users.len());
    }

    /// True when this set and `other` share all four arrays: a clone, or a
    /// clone that only [`Self::push_user`] / [`Self::push_item`] grew since.
    pub fn shares_storage_with(&self, other: &Self) -> bool {
        self.user_off.shares_storage_with(&other.user_off)
            && self.user_items.shares_storage_with(&other.user_items)
            && self.item_off.shares_storage_with(&other.item_off)
            && self.item_users.shares_storage_with(&other.item_users)
    }

    /// Iterates all `(user, item)` pairs in user order.
    pub fn iter_pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.n_users()).flat_map(move |u| self.items_of(u).iter().map(move |&v| (u, v)))
    }
}

/// A complete benchmark dataset: the three temporal splits, the tag
/// taxonomy, per-item tags, and the extracted logical relations.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Dataset name (e.g. `"ciao"`).
    pub name: String,
    /// Training interactions (first 60 % per user).
    pub train: InteractionSet,
    /// Validation interactions (next 20 %).
    pub validation: InteractionSet,
    /// Test interactions (final 20 %).
    pub test: InteractionSet,
    /// The tag taxonomy.
    pub taxonomy: Taxonomy,
    /// `item_tags[v]` = tags of item `v` (the item–tag matrix Q).
    pub item_tags: Vec<Vec<TagId>>,
    /// Logical relations extracted from the taxonomy + Q.
    pub relations: LogicalRelations,
}

impl Dataset {
    /// Number of users.
    pub fn n_users(&self) -> usize {
        self.train.n_users()
    }

    /// Number of items.
    pub fn n_items(&self) -> usize {
        self.train.n_items()
    }

    /// Number of tags.
    pub fn n_tags(&self) -> usize {
        self.taxonomy.len()
    }

    /// Total interactions across all splits.
    pub fn n_interactions(&self) -> usize {
        self.train.len() + self.validation.len() + self.test.len()
    }

    /// The split requested.
    pub fn split(&self, split: Split) -> &InteractionSet {
        match split {
            Split::Train => &self.train,
            Split::Validation => &self.validation,
            Split::Test => &self.test,
        }
    }

    /// The user's interacted tag list `T_u` **with multiplicity** (one entry
    /// per (train interaction, tag) pair), as used by Eq. 11–12.
    pub fn user_tag_list(&self, u: usize) -> Vec<TagId> {
        let mut out = Vec::new();
        for &v in self.train.items_of(u) {
            out.extend_from_slice(&self.item_tags[v]);
        }
        out
    }

    /// Number of *distinct* tag types user `u` interacted with in training —
    /// the x-axis of Fig. 5.
    pub fn user_tag_type_count(&self, u: usize) -> usize {
        let mut tags = self.user_tag_list(u);
        tags.sort_unstable();
        tags.dedup();
        tags.len()
    }
}

/// Splits timestamped interactions per user into 60 % train / 20 %
/// validation / 20 % test by time order (the paper's protocol).
///
/// Events are `(user, item, time)`; ties are broken by input order, which
/// generators make deterministic.
pub fn temporal_split(
    n_users: usize,
    n_items: usize,
    events: &[(usize, usize, u64)],
) -> (InteractionSet, InteractionSet, InteractionSet) {
    let mut per_user: Vec<Vec<(u64, usize)>> = vec![Vec::new(); n_users];
    for &(u, v, t) in events {
        per_user[u].push((t, v));
    }
    let mut train = Vec::new();
    let mut valid = Vec::new();
    let mut test = Vec::new();
    for (u, list) in per_user.iter_mut().enumerate() {
        list.sort_by_key(|&(t, _)| t);
        let n = list.len();
        // Cut points: first 60 % train, next 20 % validation, rest test.
        let c1 = (n as f64 * 0.6).round() as usize;
        let c2 = (n as f64 * 0.8).round() as usize;
        for (i, &(_, v)) in list.iter().enumerate() {
            if i < c1 {
                train.push((u, v));
            } else if i < c2 {
                valid.push((u, v));
            } else {
                test.push((u, v));
            }
        }
    }
    (
        InteractionSet::from_pairs(n_users, n_items, &train),
        InteractionSet::from_pairs(n_users, n_items, &valid),
        InteractionSet::from_pairs(n_users, n_items, &test),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_pairs_dedups_and_sorts() {
        let s = InteractionSet::from_pairs(2, 3, &[(0, 2), (0, 0), (0, 2), (1, 1)]);
        assert_eq!(s.items_of(0), &[0, 2]);
        assert_eq!(s.items_of(1), &[1]);
        assert_eq!(s.users_of(2), &[0]);
        assert_eq!(s.len(), 3);
        assert!(s.contains(0, 2));
        assert!(!s.contains(1, 2));
    }

    #[test]
    fn iter_pairs_round_trips() {
        let pairs = vec![(0, 1), (1, 0), (1, 2)];
        let s = InteractionSet::from_pairs(2, 3, &pairs);
        let got: Vec<_> = s.iter_pairs().collect();
        assert_eq!(got, pairs);
    }

    #[test]
    fn pushed_empty_rows_match_rebuilding_from_pairs() {
        let pairs = vec![(0, 1), (1, 0), (1, 2)];
        let mut s = InteractionSet::from_pairs(2, 3, &pairs);
        s.push_user();
        s.push_item();
        let rebuilt = InteractionSet::from_pairs(3, 4, &pairs);
        assert_eq!((s.n_users(), s.n_items(), s.len()), (3, 4, 3));
        for u in 0..3 {
            assert_eq!(s.items_of(u), rebuilt.items_of(u));
        }
        for v in 0..4 {
            assert_eq!(s.users_of(v), rebuilt.users_of(v));
        }
    }

    #[test]
    fn temporal_split_respects_time_order() {
        // 10 events for one user, times 0..10 → 6/2/2.
        let events: Vec<(usize, usize, u64)> = (0..10).map(|i| (0, i, i as u64)).collect();
        let (train, valid, test) = temporal_split(1, 10, &events);
        assert_eq!(train.items_of(0), &[0, 1, 2, 3, 4, 5]);
        assert_eq!(valid.items_of(0), &[6, 7]);
        assert_eq!(test.items_of(0), &[8, 9]);
    }

    #[test]
    fn temporal_split_handles_short_histories() {
        // Users with 1 and 2 events must not lose interactions.
        let events = vec![(0, 0, 5), (1, 1, 1), (1, 2, 2)];
        let (train, valid, test) = temporal_split(2, 3, &events);
        let total = train.len() + valid.len() + test.len();
        assert_eq!(total, 3);
        // A single event lands in train.
        assert_eq!(train.items_of(0), &[0]);
    }

    #[test]
    fn temporal_split_is_unaffected_by_event_order() {
        let mut events = vec![(0, 3, 30), (0, 1, 10), (0, 2, 20), (0, 4, 40), (0, 0, 0)];
        let a = temporal_split(1, 5, &events);
        events.reverse();
        let b = temporal_split(1, 5, &events);
        assert_eq!(a.0.items_of(0), b.0.items_of(0));
        assert_eq!(a.2.items_of(0), b.2.items_of(0));
    }
}
