//! The benchmark's own oracle, written apart from the program.
//!
//! Everything here is computed from plain `(item, rating)` lists: a
//! mirror of the rating matrix that applies the update stream with the
//! engine's documented semantics, its own item → raters index, its own
//! sparse cosine, exact top-k, a tie-aware recall, and the checks every
//! served answer must pass. No program code is consulted for a value
//! the checks compare against.

use std::collections::BTreeMap;

use kiff_dataset::Dataset;
use kiff_graph::Neighbor;
use kiff_online::Update;

/// Absolute tolerance when comparing a served similarity or score with
/// the oracle's.
pub const TOLERANCE: f64 = 1e-9;

/// One user's ratings, sorted by item id.
pub type Profile = Vec<(u32, f32)>;

/// The rating matrix as the oracle sees it.
#[derive(Debug, Clone, PartialEq)]
pub struct Profiles {
    /// Profile of each user, indexed by user id.
    pub users: Vec<Profile>,
    /// Size of the item space.
    pub num_items: usize,
}

impl Profiles {
    /// Copies a generated dataset.
    pub fn from_dataset(dataset: &Dataset) -> Self {
        let users = (0..dataset.num_users() as u32)
            .map(|u| dataset.user_profile(u).iter().collect())
            .collect();
        Self {
            users,
            num_items: dataset.num_items(),
        }
    }

    /// Applies one update with the engine's semantics: a repeated
    /// `(user, item)` pair adds to the rating, a rating of the user one
    /// past the end adds that user, removing an absent pair is a no-op.
    pub fn apply(&mut self, update: &Update) {
        match *update {
            Update::AddUser => self.users.push(Vec::new()),
            Update::AddRating { user, item, rating } => {
                if user as usize == self.users.len() {
                    self.users.push(Vec::new());
                }
                self.num_items = self.num_items.max(item as usize + 1);
                let profile = &mut self.users[user as usize];
                match profile.binary_search_by_key(&item, |&(i, _)| i) {
                    Ok(pos) => profile[pos].1 += rating,
                    Err(pos) => profile.insert(pos, (item, rating)),
                }
            }
            Update::RemoveRating { user, item } => {
                let profile = &mut self.users[user as usize];
                if let Ok(pos) = profile.binary_search_by_key(&item, |&(i, _)| i) {
                    profile.remove(pos);
                }
            }
        }
    }

    /// Whether the served dataset holds exactly these ratings, bit for bit.
    pub fn matches(&self, dataset: &Dataset) -> Result<(), String> {
        if dataset.num_users() != self.users.len() {
            return Err(format!(
                "dataset has {} users, oracle has {}",
                dataset.num_users(),
                self.users.len()
            ));
        }
        if dataset.num_items() != self.num_items {
            return Err(format!(
                "dataset has {} items, oracle has {}",
                dataset.num_items(),
                self.num_items
            ));
        }
        for (u, expected) in self.users.iter().enumerate() {
            let served = dataset.user_profile(u as u32);
            let same = served.items.len() == expected.len()
                && served
                    .iter()
                    .zip(expected)
                    .all(|((i, r), &(ei, er))| i == ei && r.to_bits() == er.to_bits());
            if !same {
                return Err(format!("profile of user {u} differs from the oracle's"));
            }
        }
        Ok(())
    }
}

fn norm(a: &[(u32, f32)]) -> f64 {
    a.iter()
        .map(|&(_, r)| f64::from(r) * f64::from(r))
        .sum::<f64>()
        .sqrt()
}

/// Cosine of two rating vectors: `Σ a_i b_i / (‖a‖ ‖b‖)`, 0 when either
/// is empty or they share no item.
pub fn cosine(a: &[(u32, f32)], b: &[(u32, f32)]) -> f64 {
    let (mut i, mut j, mut dot) = (0, 0, 0.0f64);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                dot += f64::from(a[i].1) * f64::from(b[j].1);
                i += 1;
                j += 1;
            }
        }
    }
    if dot == 0.0 {
        0.0
    } else {
        dot / (norm(a) * norm(b))
    }
}

/// Exact nearest neighbours over one state of the rating matrix.
pub struct Oracle<'a> {
    profiles: &'a Profiles,
    /// Users who rated each item.
    raters: Vec<Vec<u32>>,
}

impl<'a> Oracle<'a> {
    /// Indexes `profiles` by item.
    pub fn new(profiles: &'a Profiles) -> Self {
        let mut raters = vec![Vec::new(); profiles.num_items];
        for (u, profile) in profiles.users.iter().enumerate() {
            for &(item, _) in profile {
                raters[item as usize].push(u as u32);
            }
        }
        Self { profiles, raters }
    }

    /// Cosine of users `u` and `v`.
    pub fn sim(&self, u: u32, v: u32) -> f64 {
        cosine(
            &self.profiles.users[u as usize],
            &self.profiles.users[v as usize],
        )
    }

    /// Similarities of `u` to every user sharing an item with it,
    /// best first (ties by id).
    pub fn ranked(&self, u: u32) -> Vec<(u32, f64)> {
        let mut co: Vec<u32> = self.profiles.users[u as usize]
            .iter()
            .flat_map(|&(item, _)| self.raters[item as usize].iter().copied())
            .filter(|&v| v != u)
            .collect();
        co.sort_unstable();
        co.dedup();
        let mut ranked: Vec<(u32, f64)> = co
            .into_iter()
            .map(|v| (v, self.sim(u, v)))
            .filter(|&(_, s)| s > 0.0)
            .collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked
    }

    /// Tie-aware recall of `row` as `u`'s `k` nearest neighbours:
    /// `(found, wanted)`. A returned neighbour counts when its true
    /// similarity reaches the oracle's k-th best; `wanted` is `k`, or
    /// fewer when `u` has fewer than `k` users with a positive
    /// similarity.
    pub fn recall_counts(&self, u: u32, row: &[Neighbor], k: usize) -> (usize, usize) {
        let ranked = self.ranked(u);
        let wanted = ranked.len().min(k);
        if wanted == 0 {
            return (0, 0);
        }
        let kth = ranked[wanted - 1].1;
        let found = row
            .iter()
            .filter(|nb| {
                let s = self.sim(u, nb.id);
                s > 0.0 && s >= kth - TOLERANCE
            })
            .count();
        (found.min(wanted), wanted)
    }

    /// Mean tie-aware recall of `graph_row(u)` over `users`.
    pub fn recall<'g>(
        &self,
        users: &[u32],
        k: usize,
        graph_row: impl Fn(u32) -> &'g [Neighbor],
    ) -> f64 {
        let (mut found, mut wanted) = (0usize, 0usize);
        for &u in users {
            let (f, w) = self.recall_counts(u, graph_row(u), k);
            found += f;
            wanted += w;
        }
        if wanted == 0 {
            1.0
        } else {
            found as f64 / wanted as f64
        }
    }

    /// Checks one neighbour row: at most `k` entries, best first, no
    /// self, no duplicate, ids in range, and every similarity equal to
    /// the oracle's cosine.
    pub fn check_row(&self, u: u32, row: &[Neighbor], k: usize) -> Result<(), String> {
        check_row_shape(u, row, k, self.profiles.users.len())?;
        for nb in row {
            let expected = self.sim(u, nb.id);
            if (nb.sim - expected).abs() > TOLERANCE {
                return Err(format!(
                    "user {u}: neighbour {} has similarity {} but the cosine is {expected}",
                    nb.id, nb.sim
                ));
            }
        }
        Ok(())
    }

    /// Checks a `recommend(u, top)` answer computed over `row`, the
    /// served neighbours of `u`: no item `u` rated, every score equal to
    /// `Σ sim(u, v) · ρ(v, i)` over the neighbours `v` with a positive
    /// similarity that rated `i`, best first, and no unreturned item
    /// scoring above the last returned one.
    pub fn check_recommend(
        &self,
        u: u32,
        row: &[Neighbor],
        top: usize,
        recs: &[(u32, f64)],
    ) -> Result<(), String> {
        let own = &self.profiles.users[u as usize];
        let mut scores: BTreeMap<u32, f64> = BTreeMap::new();
        for nb in row.iter().filter(|nb| nb.sim > 0.0) {
            for &(item, rating) in &self.profiles.users[nb.id as usize] {
                if own.binary_search_by_key(&item, |&(i, _)| i).is_err() {
                    *scores.entry(item).or_insert(0.0) += nb.sim * f64::from(rating);
                }
            }
        }
        if recs.len() != scores.len().min(top) {
            return Err(format!(
                "recommend({u}, {top}) returned {} items, expected {}",
                recs.len(),
                scores.len().min(top)
            ));
        }
        for (pos, &(item, score)) in recs.iter().enumerate() {
            if pos > 0 && score > recs[pos - 1].1 {
                return Err(format!("recommend({u}) is not sorted by score"));
            }
            let expected = *scores.get(&item).ok_or_else(|| {
                format!("recommend({u}) returned item {item}, rated by u or by no neighbour")
            })?;
            if (score - expected).abs() > TOLERANCE * expected.max(1.0) {
                return Err(format!(
                    "recommend({u}) scores item {item} at {score}, oracle {expected}"
                ));
            }
        }
        if let Some(&(_, last)) = recs.last() {
            let returned: BTreeMap<u32, f64> = recs.iter().copied().collect();
            let beaten = scores
                .iter()
                .filter(|(i, _)| !returned.contains_key(i))
                .find(|&(_, &s)| s > last + TOLERANCE * last.max(1.0));
            if let Some((item, s)) = beaten {
                return Err(format!(
                    "recommend({u}) left out item {item} scoring {s} above {last}"
                ));
            }
        }
        Ok(())
    }

    /// Checks a `search(query, top)` answer: at most `top` distinct
    /// users, best first, each similarity equal to the cosine of the
    /// query's own ratings with the user's profile.
    pub fn check_search(
        &self,
        query: &[(u32, f32)],
        top: usize,
        hits: &[(u32, f64)],
    ) -> Result<(), String> {
        check_hits_shape(hits, top, self.profiles.users.len())?;
        for &(user, sim) in hits {
            let expected = cosine(query, &self.profiles.users[user as usize]);
            if (sim - expected).abs() > TOLERANCE {
                return Err(format!(
                    "search hit {user} has similarity {sim}, oracle {expected}"
                ));
            }
        }
        Ok(())
    }
}

/// The shape half of [`Oracle::check_row`], for answers read while the
/// stream runs (when no oracle state matches the view read).
pub fn check_row_shape(u: u32, row: &[Neighbor], k: usize, num_users: usize) -> Result<(), String> {
    if row.len() > k {
        return Err(format!("user {u}: {} neighbours, k = {k}", row.len()));
    }
    for (pos, nb) in row.iter().enumerate() {
        if nb.id == u {
            return Err(format!("user {u} lists itself as a neighbour"));
        }
        if nb.id as usize >= num_users {
            return Err(format!("user {u}: neighbour {} out of range", nb.id));
        }
        if pos > 0 && nb.sim > row[pos - 1].sim {
            return Err(format!("user {u}: neighbours are not sorted best first"));
        }
        if row[..pos].iter().any(|other| other.id == nb.id) {
            return Err(format!("user {u}: neighbour {} listed twice", nb.id));
        }
    }
    Ok(())
}

/// Shape check of a ranked `(id, score)` answer: at most `top`
/// entries, distinct ids below `bound`, scores positive and
/// non-increasing.
pub fn check_hits_shape(hits: &[(u32, f64)], top: usize, bound: usize) -> Result<(), String> {
    if hits.len() > top {
        return Err(format!("{} results, top = {top}", hits.len()));
    }
    for (pos, &(id, score)) in hits.iter().enumerate() {
        if id as usize >= bound {
            return Err(format!("result id {id} out of range {bound}"));
        }
        if score <= 0.0 || !score.is_finite() {
            return Err(format!("result {id} has score {score}"));
        }
        if pos > 0 && score > hits[pos - 1].1 {
            return Err("results are not sorted best first".into());
        }
        if hits[..pos].iter().any(|&(other, _)| other == id) {
            return Err(format!("result {id} listed twice"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Four users over four items; every value below is worked by hand.
    ///
    /// | user | item 0 | item 1 | item 2 | item 3 |
    /// |------|--------|--------|--------|--------|
    /// | 0    | 1      | 2      |        |        |
    /// | 1    | 2      | 4      |        |        |
    /// | 2    |        | 1      | 1      |        |
    /// | 3    |        |        |        | 3      |
    fn toy() -> Profiles {
        Profiles {
            users: vec![
                vec![(0, 1.0), (1, 2.0)],
                vec![(0, 2.0), (1, 4.0)],
                vec![(1, 1.0), (2, 1.0)],
                vec![(3, 3.0)],
            ],
            num_items: 4,
        }
    }

    fn nb(id: u32, sim: f64) -> Neighbor {
        Neighbor { id, sim }
    }

    #[test]
    fn cosine_matches_hand_values() {
        let p = toy();
        // Parallel vectors: cos = 1.
        assert!((cosine(&p.users[0], &p.users[1]) - 1.0).abs() < 1e-15);
        // (1,2)·(0,1) over items 0..2 vs (0,1,1): 2 / (√5 · √2) = √10 / 5.
        let expected = 2.0 / (5f64.sqrt() * 2f64.sqrt());
        assert!((cosine(&p.users[0], &p.users[2]) - expected).abs() < 1e-15);
        // 4 / (√20 · √2) = 2 / √10.
        let expected = 4.0 / (20f64.sqrt() * 2f64.sqrt());
        assert!((cosine(&p.users[1], &p.users[2]) - expected).abs() < 1e-15);
        assert_eq!(cosine(&p.users[0], &p.users[3]), 0.0);
        assert_eq!(cosine(&[], &p.users[3]), 0.0);
    }

    #[test]
    fn ranked_lists_co_raters_best_first() {
        let p = toy();
        let oracle = Oracle::new(&p);
        let ranked = oracle.ranked(0);
        assert_eq!(ranked.iter().map(|r| r.0).collect::<Vec<_>>(), vec![1, 2]);
        assert!(oracle.ranked(3).is_empty());
    }

    #[test]
    fn recall_is_tie_aware() {
        // User 0 of a tie: users 1 and 2 both rate only item 0 like 0 does.
        let p = Profiles {
            users: vec![
                vec![(0, 1.0)],
                vec![(0, 1.0)],
                vec![(0, 2.0)],
                vec![(1, 1.0)],
            ],
            num_items: 2,
        };
        let oracle = Oracle::new(&p);
        // Both tied users are correct as the single nearest neighbour.
        assert_eq!(oracle.recall_counts(0, &[nb(2, 1.0)], 1), (1, 1));
        assert_eq!(oracle.recall_counts(0, &[nb(1, 1.0)], 1), (1, 1));
        // A user sharing nothing never counts.
        assert_eq!(oracle.recall_counts(0, &[nb(3, 0.0)], 1), (0, 1));
        // Only two users have a positive similarity, so k = 3 wants 2.
        assert_eq!(
            oracle.recall_counts(0, &[nb(1, 1.0), nb(2, 1.0)], 3),
            (2, 2)
        );
        // Nobody shares an item with user 3: nothing is wanted.
        assert_eq!(oracle.recall_counts(3, &[], 2), (0, 0));
        assert_eq!(oracle.recall(&[0, 3], 1, |_| &[][..]), 0.0);
    }

    #[test]
    fn check_row_rejects_each_fault() {
        let p = toy();
        let oracle = Oracle::new(&p);
        let s02 = 2.0 / 10f64.sqrt();
        assert!(oracle.check_row(0, &[nb(1, 1.0), nb(2, s02)], 2).is_ok());
        assert!(
            oracle.check_row(0, &[nb(1, 1.0), nb(2, s02)], 1).is_err(),
            "k"
        );
        assert!(
            oracle.check_row(0, &[nb(2, s02), nb(1, 1.0)], 2).is_err(),
            "order"
        );
        assert!(oracle.check_row(0, &[nb(0, 1.0)], 2).is_err(), "self");
        assert!(
            oracle.check_row(0, &[nb(1, 1.0), nb(1, 1.0)], 2).is_err(),
            "dup"
        );
        assert!(oracle.check_row(0, &[nb(1, 0.9)], 2).is_err(), "value");
        assert!(oracle.check_row(0, &[nb(9, 0.0)], 2).is_err(), "range");
    }

    #[test]
    fn recommend_scores_by_hand() {
        let p = toy();
        let oracle = Oracle::new(&p);
        // User 1's neighbour is user 2 at 2/√10; user 1 rated items 0
        // and 1, so only item 2 is left, scored 2/√10 · 1.
        let s12 = 4.0 / (20f64.sqrt() * 2f64.sqrt());
        let row = [nb(2, s12)];
        assert!(oracle.check_recommend(1, &row, 5, &[(2, s12)]).is_ok());
        assert!(oracle
            .check_recommend(1, &row, 5, &[(2, s12 * 2.0)])
            .is_err());
        assert!(
            oracle.check_recommend(1, &row, 5, &[(1, s12)]).is_err(),
            "rated"
        );
        assert!(oracle.check_recommend(1, &row, 5, &[]).is_err(), "missing");
        // User 2 (items 1, 2) with neighbours 0 and 1: item 0 scores
        // s·1 + s'·2 where s = √10/5 and s' = 2/√10.
        let s = 2.0 / 10f64.sqrt();
        let row = [nb(1, s12), nb(0, s)];
        let score0 = s12 * 2.0 + s * 1.0;
        assert!(oracle.check_recommend(2, &row, 1, &[(0, score0)]).is_ok());
    }

    #[test]
    fn search_uses_the_query_ratings() {
        let p = toy();
        let oracle = Oracle::new(&p);
        // Query (1: 1.0) against user 2 (1: 1, 2: 1): 1 / √2.
        let query = [(1u32, 1.0f32)];
        let hit = 1.0 / 2f64.sqrt();
        assert!(oracle.check_search(&query, 3, &[(2, hit)]).is_ok());
        assert!(oracle.check_search(&query, 3, &[(2, 0.5)]).is_err());
        assert!(oracle.check_search(&query, 0, &[(2, hit)]).is_err(), "top");
        assert!(oracle
            .check_search(&query, 3, &[(2, hit), (2, hit)])
            .is_err());
    }

    #[test]
    fn mirror_follows_engine_semantics() {
        let mut p = toy();
        p.apply(&Update::AddRating {
            user: 3,
            item: 3,
            rating: 1.0,
        });
        assert_eq!(p.users[3], vec![(3, 4.0)], "a repeated pair reinforces");
        p.apply(&Update::AddRating {
            user: 4,
            item: 5,
            rating: 2.0,
        });
        assert_eq!(
            (p.users.len(), p.num_items),
            (5, 6),
            "implicit user, wider items"
        );
        p.apply(&Update::AddUser);
        assert!(p.users[5].is_empty());
        p.apply(&Update::RemoveRating { user: 0, item: 0 });
        p.apply(&Update::RemoveRating { user: 0, item: 3 });
        assert_eq!(p.users[0], vec![(1, 2.0)]);
    }
}
