//! The three workloads and the seeded inputs they are made of.
//!
//! Everything a run feeds the program — the base dataset, the update
//! stream, the read targets — is generated here from `--seed`, so the
//! same seed gives the same inputs. The program receives only these
//! inputs; the oracle's copies ([`Profiles`]) are derived from them by
//! the benchmark's own mirror.

use kiff_dataset::generators::planted::{generate_planted, PlantedConfig};
use kiff_dataset::generators::presets::PaperDataset;
use kiff_dataset::Dataset;
use kiff_online::Update;

use crate::oracle::Profiles;

/// Neighbourhood size of every graph (the paper's `k` for Gowalla).
pub(crate) const K: usize = 20;
/// Updates per `update` request.
pub(crate) const BATCH: usize = 32;
/// List length of every `recommend` and `search` request.
pub(crate) const TOP: usize = 10;
/// The daemon's default snapshot interval, in updates: a stream shorter
/// than this asks for one snapshot halfway instead.
pub(crate) const SNAPSHOT_EVERY: u64 = 10_000;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Calibrated Gowalla stand-in plus a Zipf add-only stream.
    HeavyTail,
    /// ~100k planted users plus a Zipf add-only stream.
    LargeGraph,
    /// A few thousand planted users plus a churn stream.
    SmallGraph,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::HeavyTail,
        Workload::LargeGraph,
        Workload::SmallGraph,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HeavyTail => "heavy_tail",
            Workload::LargeGraph => "large_graph",
            Workload::SmallGraph => "small_graph",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Sizes and repetition counts; `tiny` shrinks every input so a
    /// whole run finishes in seconds (the benchmark's own tests).
    pub(crate) fn shape(self, tiny: bool) -> Shape {
        let base = match (self, tiny) {
            (Workload::HeavyTail, false) => Base::Gowalla { scale: 0.1 },
            (Workload::HeavyTail, true) => Base::Gowalla { scale: 0.005 },
            (Workload::LargeGraph, false) => Base::planted(100_000, 200_000, 16),
            (Workload::LargeGraph, true) => Base::planted(3_000, 6_000, 16),
            (Workload::SmallGraph, false) => Base::planted(4_000, 3_200, 20),
            (Workload::SmallGraph, true) => Base::planted(400, 320, 20),
        };
        // Short phases are repeated more, so each median rests on
        // several seconds of samples.
        let (mix, batches_per_sec, setups, builds, recovers) = match self {
            Workload::HeavyTail => (Mix::AddOnly, 26.0, 3, 6, 3),
            Workload::LargeGraph => (Mix::AddOnly, 10.0, 3, 4, 3),
            Workload::SmallGraph => (Mix::Churn, 60.0, 9, 15, 5),
        };
        Shape {
            base,
            mix,
            batches_per_sec,
            setups,
            builds,
            recovers,
            oracle_users: if tiny { 40 } else { 200 },
            read_users: if tiny { 32 } else { 4096 },
        }
    }
}

/// How the base dataset is generated.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Base {
    /// `PaperDataset::Gowalla` at `scale`.
    Gowalla {
        /// Fraction of the paper's 107k users.
        scale: f64,
    },
    /// `generate_planted` with 8 communities and affinity 0.8.
    Planted {
        /// Users.
        users: usize,
        /// Items.
        items: usize,
        /// Ratings per user.
        per_user: usize,
    },
}

impl Base {
    fn planted(users: usize, items: usize, per_user: usize) -> Self {
        Base::Planted {
            users,
            items,
            per_user,
        }
    }

    fn generate(self, seed: u64) -> Dataset {
        match self {
            Base::Gowalla { scale } => PaperDataset::Gowalla.generate(scale, seed),
            Base::Planted {
                users,
                items,
                per_user,
            } => {
                generate_planted(&PlantedConfig {
                    name: "planted".to_string(),
                    num_users: users,
                    num_items: items,
                    communities: 8,
                    ratings_per_user: per_user,
                    affinity: 0.8,
                    ..PlantedConfig::tiny("planted", seed)
                })
                .0
            }
        }
    }
}

/// The update mix of a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mix {
    /// `AddRating` only: Zipf(0.8) users and items, rating 1.
    AddOnly,
    /// 76% `AddRating`, 20% `RemoveRating` of an existing rating, 4%
    /// `AddUser`; a quarter of the adds go to users the stream created.
    Churn,
}

/// One workload's sizes and repetition counts.
#[derive(Debug, Clone)]
pub(crate) struct Shape {
    /// Base dataset.
    pub base: Base,
    /// Update mix.
    pub mix: Mix,
    /// Nominal durable write rate: the measured stream holds
    /// `seconds × batches_per_sec` batches, which lasts about `seconds`
    /// on the reference host. A fixed length keeps every count exact.
    pub batches_per_sec: f64,
    /// Full set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Builds per run, set-ups' included; `build_s` is their median.
    pub builds: usize,
    /// Recoveries of the crash image; `recover_s` is their median.
    pub recovers: usize,
    /// Users whose exact neighbours the oracle computes.
    pub oracle_users: usize,
    /// Users the reader cycles through.
    pub read_users: usize,
}

/// One read target: a user for `neighbors` / `recommend`, and a query
/// for `search` cut from that user's base profile.
#[derive(Debug, Clone)]
pub(crate) struct ReadTarget {
    /// Queried user (a base user, present in every view).
    pub user: u32,
    /// `(item, rating)` pairs of the search query, sorted by item.
    pub query: Vec<(u32, f32)>,
}

/// Everything one run feeds the program, plus the oracle's copies.
pub(crate) struct Inputs {
    /// The base dataset the graph is built on.
    pub base: Dataset,
    /// Update batches, in order.
    pub stream: Vec<Vec<Update>>,
    /// Batch after which the writer asks for a snapshot (streams shorter
    /// than the snapshot interval only).
    pub snapshot_after: Option<usize>,
    /// Ratings of the base dataset.
    pub base_profiles: Profiles,
    /// Ratings after the measured stream.
    pub final_profiles: Profiles,
    /// Reader cycle.
    pub reads: Vec<ReadTarget>,
    /// Users sampled for `build_recall` (base ids).
    pub oracle_base_users: Vec<u32>,
    /// Users sampled for `stream_recall` and the check pass.
    pub oracle_final_users: Vec<u32>,
}

/// Queries cut from a profile hold at most this many items.
const QUERY_ITEMS: usize = 8;

impl Inputs {
    /// Generates the inputs of `workload` for `seed` and a `seconds`-long
    /// write phase.
    pub(crate) fn generate(shape: &Shape, seed: u64, seconds: u64) -> Self {
        let base = shape.base.generate(derive(seed, 1));
        let base_profiles = Profiles::from_dataset(&base);
        let batches = ((seconds as f64 * shape.batches_per_sec).round() as usize).max(8);
        let mut rng = Rng::new(derive(seed, 2));
        let (stream, final_profiles) =
            generate_stream(&base_profiles, shape.mix, batches, &mut rng);
        let snapshot_after = ((batches * BATCH) as u64) < SNAPSHOT_EVERY;
        let mut rng = Rng::new(derive(seed, 3));
        let n = base.num_users();
        let reads = (0..shape.read_users)
            .map(|_| {
                let user = rng.below(n) as u32;
                let mut query = base_profiles.users[user as usize].clone();
                rng.shuffle(&mut query);
                query.truncate(QUERY_ITEMS);
                query.sort_unstable_by_key(|&(i, _)| i);
                ReadTarget { user, query }
            })
            .collect();
        let mut rng = Rng::new(derive(seed, 4));
        let oracle_base_users = (0..shape.oracle_users)
            .map(|_| rng.below(n) as u32)
            .collect();
        let oracle_final_users = (0..shape.oracle_users)
            .map(|_| rng.below(final_profiles.users.len()) as u32)
            .collect();
        Self {
            base,
            stream,
            snapshot_after: snapshot_after.then_some(batches / 2),
            base_profiles,
            final_profiles,
            reads,
            oracle_base_users,
            oracle_final_users,
        }
    }
}

/// Generates `batches` batches, returning them with the ratings as they
/// stand after the last one.
fn generate_stream(
    base: &Profiles,
    mix: Mix,
    batches: usize,
    rng: &mut Rng,
) -> (Vec<Vec<Update>>, Profiles) {
    let n = base.users.len();
    let mut users: Vec<u32> = (0..n as u32).collect();
    rng.shuffle(&mut users);
    let mut items: Vec<u32> = (0..base.num_items as u32).collect();
    rng.shuffle(&mut items);
    let user_rank = Zipf::new(n, 0.8);
    let item_rank = Zipf::new(items.len(), 0.8);
    let mut mirror = base.clone();
    let mut new_users: Vec<u32> = Vec::new();
    let mut stream = Vec::with_capacity(batches);
    for _ in 0..batches {
        let mut batch = Vec::with_capacity(BATCH);
        while batch.len() < BATCH {
            let add = |rng: &mut Rng, new_users: &[u32]| Update::AddRating {
                user: if !new_users.is_empty() && rng.unit() < 0.25 {
                    new_users[rng.below(new_users.len())]
                } else {
                    users[user_rank.sample(rng)]
                },
                item: items[item_rank.sample(rng)],
                rating: 1.0,
            };
            let roll = rng.unit();
            let update = match mix {
                Mix::AddOnly => add(rng, &new_users),
                Mix::Churn if roll < 0.04 => {
                    new_users.push(mirror.users.len() as u32);
                    Update::AddUser
                }
                Mix::Churn if roll < 0.24 => match pick_rating(&mirror, rng) {
                    Some((user, item)) => Update::RemoveRating { user, item },
                    None => add(rng, &new_users),
                },
                Mix::Churn => add(rng, &new_users),
            };
            mirror.apply(&update);
            batch.push(update);
        }
        stream.push(batch);
    }
    (stream, mirror)
}

/// A rating that exists: a uniformly drawn user with a non-empty
/// profile, and one of its items.
fn pick_rating(profiles: &Profiles, rng: &mut Rng) -> Option<(u32, u32)> {
    (0..8).find_map(|_| {
        let user = rng.below(profiles.users.len());
        let profile = &profiles.users[user];
        (!profile.is_empty()).then(|| (user as u32, profile[rng.below(profile.len())].0))
    })
}

/// Mixes a run seed with a stream id, so each input has its own seed.
pub(crate) fn derive(seed: u64, stream: u64) -> u64 {
    let mut rng = Rng::new(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
    rng.next_u64()
}

/// SplitMix64: small, fast, and deterministic per seed.
#[derive(Debug, Clone)]
pub(crate) struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
    }
}

/// Zipf-distributed ranks `0..n` with exponent `s`, by inverse CDF.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Self {
        let mut total = 0.0;
        let cdf = (1..=n)
            .map(|r| {
                total += (r as f64).powf(-s);
                total
            })
            .collect();
        Self { cdf }
    }

    fn sample(&self, rng: &mut Rng) -> usize {
        let target = rng.unit() * self.cdf.last().copied().unwrap_or(0.0);
        self.cdf
            .partition_point(|&c| c <= target)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let shape = Workload::SmallGraph.shape(true);
        let a = Inputs::generate(&shape, 7, 1);
        let b = Inputs::generate(&shape, 7, 1);
        assert_eq!(a.stream, b.stream);
        assert_eq!(a.final_profiles, b.final_profiles);
        assert_eq!(a.oracle_final_users, b.oracle_final_users);
        let c = Inputs::generate(&shape, 8, 1);
        assert_ne!(a.stream, c.stream);
    }

    #[test]
    fn churn_removes_only_existing_ratings() {
        let shape = Workload::SmallGraph.shape(true);
        let inputs = Inputs::generate(&shape, 3, 2);
        let mut mirror = inputs.base_profiles.clone();
        let (mut adds, mut removes, mut users) = (0, 0, 0);
        for update in inputs.stream.iter().flatten() {
            match *update {
                Update::RemoveRating { user, item } => {
                    removes += 1;
                    let profile = &mirror.users[user as usize];
                    assert!(profile.iter().any(|&(i, _)| i == item));
                }
                Update::AddUser => users += 1,
                Update::AddRating { .. } => adds += 1,
            }
            mirror.apply(update);
        }
        assert!(adds > removes && removes > users && users > 0);
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let zipf = Zipf::new(100, 1.1);
        let mut rng = Rng::new(1);
        let low = (0..10_000).filter(|_| zipf.sample(&mut rng) < 10).count();
        assert!(low > 5_000, "{low}");
    }
}
